"""Run configuration: policy choice, hyperparameters, engine knobs.

A config is a flat JSON document; every CLI flag mirrors one key. Exactly
the hyperparameters of the chosen policy may be set (``f`` for alignatt,
``alpha``/``lambda`` for edatt, ``k`` for waitk, ``t_s_ms`` for
local_agreement). The run id is a content hash of the canonical JSON, so
distinct configs never share an output directory.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
from dataclasses import dataclass

from .model import DEFAULT_MAX_NEW
from .policies import (
    DEFAULT_EDATT_LAM,
    AlignAttPolicy,
    EDAttPolicy,
    LocalAgreementPolicy,
    Policy,
    WaitKPolicy,
)
from .simulator import DEFAULT_CHUNK_MS, has_json_type

__all__ = ["ConfigError", "SessionConfig", "CLOCKS", "CONFIG_TYPES", "POLICY_NAMES", "SWEEP_FIELD"]

# The hyperparameters of each policy; the first is the knob a sweep varies.
_POLICY_FIELDS = {
    "alignatt": ("f",),
    "edatt": ("alpha", "lam"),
    "waitk": ("k",),
    "local_agreement": ("t_s_ms",),
}
POLICY_NAMES = tuple(_POLICY_FIELDS)
SWEEP_FIELD = {policy: fields[0] for policy, fields in _POLICY_FIELDS.items()}
_ALL_POLICY_FIELDS = tuple(name for fields in _POLICY_FIELDS.values() for name in fields)

CLOCKS = ("simulated", "real")

# JSON key of a dataclass field, where they differ (lambda is a Python keyword).
_JSON_KEYS = {"lam": "lambda"}


class ConfigError(ValueError):
    """Invalid configuration; maps to the CLI usage exit code."""


@dataclass(frozen=True)
class SessionConfig:
    """Everything a batch run needs besides the manifest."""

    policy: str
    f: int | None = None
    alpha: float | None = None
    lam: int | None = None
    k: int | None = None
    t_s_ms: float | None = None
    chunk_ms: float = DEFAULT_CHUNK_MS
    adapter: str = "toy"
    seed: int = 0
    attention_layer: int | None = None
    max_new: int = DEFAULT_MAX_NEW
    clock: str = "simulated"
    step_cost_s: float = 0.0
    laal_cap_s: float | None = None

    def __post_init__(self) -> None:
        if self.policy == "edatt" and self.lam is None:
            object.__setattr__(self, "lam", DEFAULT_EDATT_LAM)
        self._validate()

    def _validate(self) -> None:
        # Values are checked, never coerced: run_id hashes them as given.
        for key, value in self.to_dict().items():
            kind = CONFIG_TYPES[key]
            if not (value is None and key in _NULLABLE or has_json_type(value, kind)):
                raise ConfigError(f"{key} takes {_KIND_NAMES[kind]}, got {value!r}")
        if self.policy not in POLICY_NAMES:
            raise ConfigError(f"unknown policy {self.policy!r}; expected one of {POLICY_NAMES}")
        required = _POLICY_FIELDS[self.policy]
        for name in _ALL_POLICY_FIELDS:
            value = getattr(self, name)
            if name in required and value is None:
                raise ConfigError(f"policy {self.policy!r} requires {name!r}")
            if name not in required and value is not None:
                raise ConfigError(f"{name!r} is not a hyperparameter of policy {self.policy!r}")
        try:
            self.make_policy()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.t_s_ms is not None and self.t_s_ms <= 0:
            raise ConfigError(f"t_s_ms must be positive, got {self.t_s_ms}")
        if self.chunk_ms <= 0:
            raise ConfigError(f"chunk_ms must be positive, got {self.chunk_ms}")
        if not self.adapter:
            raise ConfigError("adapter must be a non-empty name")
        if self.attention_layer is not None and self.attention_layer < 0:
            raise ConfigError(f"attention_layer must be >= 0, got {self.attention_layer}")
        if self.max_new < 1:
            raise ConfigError(f"max_new must be >= 1, got {self.max_new}")
        if self.clock not in CLOCKS:
            raise ConfigError(f"clock must be one of {CLOCKS}, got {self.clock!r}")
        if self.step_cost_s < 0:
            raise ConfigError(f"step_cost_s must be >= 0, got {self.step_cost_s}")
        if self.laal_cap_s is not None and self.laal_cap_s <= 0:
            raise ConfigError(f"laal_cap_s must be positive, got {self.laal_cap_s}")

    @property
    def effective_chunk_ms(self) -> float:
        """Read-step size: local_agreement streams by its own chunk length."""
        if self.policy == "local_agreement":
            assert self.t_s_ms is not None
            return self.t_s_ms
        return self.chunk_ms

    def make_policy(self) -> Policy:
        if self.policy == "alignatt":
            return AlignAttPolicy(f=self.f)
        if self.policy == "edatt":
            return EDAttPolicy(alpha=self.alpha, lam=self.lam)
        if self.policy == "waitk":
            return WaitKPolicy(k=self.k)
        return LocalAgreementPolicy()

    def with_sweep_value(self, value) -> "SessionConfig":
        """This config with the policy's sweep knob set to ``sweep_number(field, value)``."""
        field = SWEEP_FIELD[self.policy]
        return dataclasses.replace(self, **{field: sweep_number(field, value)})

    # -------------------------------------------------------------- JSON

    def to_dict(self) -> dict:
        out = {}
        for field in dataclasses.fields(self):
            out[_JSON_KEYS.get(field.name, field.name)] = getattr(self, field.name)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SessionConfig":
        known = {_JSON_KEYS.get(f.name, f.name): f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - set(known)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if data.get("policy") is None:
            raise ConfigError("config requires a 'policy' key")
        return cls(**{known[key]: value for key, value in data.items() if value is not None})

    @property
    def run_id(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def sweep_number(field: str, value) -> int | float:
    """``value`` as a number of the sweep knob ``field``'s type.

    Raises ConfigError for a value of an integer knob that is not a whole
    number, infinities and NaN included.
    """
    number = float(value)
    if CONFIG_TYPES[field] is int:
        if not number.is_integer():
            raise ConfigError(f"{field} takes whole numbers, got {value}")
        number = int(number)
    return number


def _value_type(hint) -> type:
    """``int`` for ``int | None``: the type a set value has."""
    return next((t for t in typing.get_args(hint) if t is not type(None)), hint)


_HINTS = {
    _JSON_KEYS.get(name, name): hint for name, hint in typing.get_type_hints(SessionConfig).items()
}
# JSON key -> value type, in field order; the CLI has one flag per key.
CONFIG_TYPES = {key: _value_type(hint) for key, hint in _HINTS.items()}
# Keys that may be null (unset).
_NULLABLE = frozenset(key for key, hint in _HINTS.items() if type(None) in typing.get_args(hint))
_KIND_NAMES = {int: "whole numbers", float: "finite numbers", str: "strings"}
