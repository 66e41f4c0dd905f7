"""Run configuration: validation, JSON round trips, run ids, sweeps."""

import json
import math

import pytest

from simulst import ConfigError, SessionConfig
from simulst.config import CONFIG_TYPES, POLICY_NAMES, SWEEP_FIELD
from simulst.policies import (
    AlignAttPolicy,
    EDAttPolicy,
    LocalAgreementPolicy,
    WaitKPolicy,
)


class TestValidation:
    def test_minimal_valid_configs(self):
        SessionConfig(policy="alignatt", f=4)
        SessionConfig(policy="edatt", alpha=0.6)
        SessionConfig(policy="waitk", k=3)
        SessionConfig(policy="local_agreement", t_s_ms=500.0)

    def test_unknown_policy(self):
        with pytest.raises(ConfigError, match="unknown policy"):
            SessionConfig(policy="oracle", f=1)

    @pytest.mark.parametrize(
        "policy,missing", [("alignatt", "f"), ("edatt", "alpha"), ("waitk", "k"), ("local_agreement", "t_s_ms")]
    )
    def test_missing_required_hyperparameter(self, policy, missing):
        with pytest.raises(ConfigError, match=f"requires '{missing}'"):
            SessionConfig(policy=policy)

    def test_foreign_hyperparameter_rejected(self):
        with pytest.raises(ConfigError, match="'k' is not a hyperparameter of policy 'alignatt'"):
            SessionConfig(policy="alignatt", f=4, k=3)
        with pytest.raises(ConfigError, match="'lam' is not a hyperparameter"):
            SessionConfig(policy="waitk", k=3, lam=2)

    def test_edatt_lambda_defaults_to_two(self):
        config = SessionConfig(policy="edatt", alpha=0.5)
        assert config.lam == 2

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            (dict(policy="alignatt", f=0), "f must be"),
            (dict(policy="edatt", alpha=0.0), "alpha must be"),
            (dict(policy="edatt", alpha=1.5), "alpha must be"),
            (dict(policy="edatt", alpha=0.5, lam=0), "lambda must be"),
            (dict(policy="waitk", k=0), "k must be"),
            (dict(policy="local_agreement", t_s_ms=0.0), "t_s_ms must be"),
            (dict(policy="alignatt", f=2, chunk_ms=0.0), "chunk_ms must be"),
            (dict(policy="alignatt", f=2, adapter=""), "adapter must be"),
            (dict(policy="alignatt", f=2, attention_layer=-1), "attention_layer must be"),
            (dict(policy="alignatt", f=2, max_new=0), "max_new must be"),
            (dict(policy="alignatt", f=2, clock="cuckoo"), "clock must be"),
            (dict(policy="alignatt", f=2, step_cost_s=-0.5), "step_cost_s must be"),
            (dict(policy="alignatt", f=2, laal_cap_s=0.0), "laal_cap_s must be"),
        ],
    )
    def test_range_checks(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            SessionConfig(**kwargs)

    def test_config_error_is_value_error(self):
        assert issubclass(ConfigError, ValueError)


class TestJson:
    def test_round_trip_identity(self):
        config = SessionConfig(
            policy="edatt", alpha=0.4, lam=3, chunk_ms=750.0, seed=7, step_cost_s=0.05
        )
        # through JSON text, as a --config file is read
        assert SessionConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config

    def test_lambda_key_spelling(self):
        config = SessionConfig(policy="edatt", alpha=0.4, lam=3)
        data = config.to_dict()
        assert data["lambda"] == 3
        assert "lam" not in data
        parsed = SessionConfig.from_dict({"policy": "edatt", "alpha": 0.4, "lambda": 5})
        assert parsed.lam == 5

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys.*beam"):
            SessionConfig.from_dict({"policy": "alignatt", "f": 2, "beam": 5})

    def test_policy_key_required(self):
        with pytest.raises(ConfigError, match="requires a 'policy' key"):
            SessionConfig.from_dict({"f": 2})

    @pytest.mark.parametrize("data", [{"policy": None}, {"policy": None, "f": 2}])
    def test_null_policy_is_a_missing_policy(self, data):
        with pytest.raises(ConfigError) as caught:
            SessionConfig.from_dict(data)
        assert str(caught.value) == "config requires a 'policy' key"

    def test_null_values_mean_unset(self):
        config = SessionConfig.from_dict({"policy": "alignatt", "f": 2, "alpha": None})
        assert config.alpha is None

    @pytest.mark.parametrize(
        "data,message",
        [
            ({"policy": "alignatt", "f": 2.5}, "f takes whole numbers, got 2.5"),
            ({"policy": "alignatt", "f": True}, "f takes whole numbers, got True"),
            ({"policy": "alignatt", "f": 2, "attention_layer": 1.5}, "attention_layer takes whole"),
            ({"policy": "alignatt", "f": 2, "max_new": 3.7}, "max_new takes whole numbers"),
            ({"policy": "edatt", "alpha": False}, "alpha takes finite numbers, got False"),
            ({"policy": "alignatt", "f": 2, "chunk_ms": "500"}, "chunk_ms takes finite numbers"),
            ({"policy": "alignatt", "f": 2, "adapter": 7}, "adapter takes strings, got 7"),
            ({"policy": 3}, "policy takes strings, got 3"),
        ],
    )
    def test_value_types_checked(self, data, message):
        with pytest.raises(ConfigError, match=message):
            SessionConfig.from_dict(data)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 10**400, -(10**400)])
    @pytest.mark.parametrize("key", [key for key, kind in CONFIG_TYPES.items() if kind is float])
    def test_non_finite_numbers_rejected(self, key, value):
        owners = {
            "alpha": {"policy": "edatt", "alpha": 0.5},
            "t_s_ms": {"policy": "local_agreement", "t_s_ms": 500.0},
        }
        data = {**owners.get(key, {"policy": "alignatt", "f": 2}), key: value}
        with pytest.raises(ConfigError, match=f"{key} takes finite numbers"):
            SessionConfig.from_dict(data)

    def test_whole_number_accepted_for_float_key_uncoerced(self):
        config = SessionConfig.from_dict({"policy": "edatt", "alpha": 1, "chunk_ms": 250})
        assert config.alpha == 1 and type(config.chunk_ms) is int


class TestRunId:
    def test_stable_across_processes(self):
        # frozen: changing the hash scheme silently breaks run directory reuse
        config = SessionConfig(policy="alignatt", f=4)
        assert config.run_id == SessionConfig(policy="alignatt", f=4).run_id
        assert len(config.run_id) == 12
        int(config.run_id, 16)

    def test_int_valued_float_key_keeps_its_run_id(self):
        # frozen: run directories written before value types were checked
        as_int = SessionConfig.from_dict({"policy": "alignatt", "f": 2, "chunk_ms": 250})
        as_float = SessionConfig.from_dict({"policy": "alignatt", "f": 2, "chunk_ms": 250.0})
        assert as_int.run_id == "1710d132346c"
        assert as_float.run_id == "052a12800b01"

    def test_differs_with_any_field(self):
        base = SessionConfig(policy="alignatt", f=4)
        assert base.run_id != SessionConfig(policy="alignatt", f=5).run_id
        assert base.run_id != SessionConfig(policy="alignatt", f=4, seed=1).run_id
        assert base.run_id != SessionConfig(policy="alignatt", f=4, chunk_ms=999.0).run_id


class TestDerived:
    def test_effective_chunk_for_local_agreement(self):
        config = SessionConfig(policy="local_agreement", t_s_ms=450.0, chunk_ms=1000.0)
        assert config.effective_chunk_ms == 450.0
        other = SessionConfig(policy="alignatt", f=2, chunk_ms=800.0)
        assert other.effective_chunk_ms == 800.0

    def test_sweep_field_per_policy(self):
        assert SWEEP_FIELD == {
            "alignatt": "f",
            "edatt": "alpha",
            "waitk": "k",
            "local_agreement": "t_s_ms",
        }
        assert set(SWEEP_FIELD) == set(POLICY_NAMES)

    def test_sweep_value_and_replacement(self):
        config = SessionConfig(policy="alignatt", f=4)
        swept = config.with_sweep_value(9)
        assert swept.f == 9 and swept.policy == "alignatt"
        assert config.f == 4  # original untouched

    def test_with_sweep_value_casts(self):
        config = SessionConfig(policy="edatt", alpha=0.5)
        assert config.with_sweep_value("0.25").alpha == 0.25
        walk = SessionConfig(policy="waitk", k=2).with_sweep_value("7")
        assert walk.k == 7 and isinstance(walk.k, int)

    def test_with_sweep_value_rejects_fraction_of_integer_knob(self):
        config = SessionConfig(policy="alignatt", f=4)
        with pytest.raises(ConfigError, match="f takes whole numbers, got 2.5"):
            config.with_sweep_value(2.5)
        with pytest.raises(ConfigError, match="k takes whole numbers"):
            SessionConfig(policy="waitk", k=2).with_sweep_value("3.5")
        assert config.with_sweep_value(3.0).f == 3
        assert SessionConfig(policy="edatt", alpha=0.5).with_sweep_value(0.25).alpha == 0.25

    def test_make_policy_types_and_parameters(self):
        assert isinstance(SessionConfig(policy="alignatt", f=6).make_policy(), AlignAttPolicy)
        edatt = SessionConfig(policy="edatt", alpha=0.3, lam=4).make_policy()
        assert isinstance(edatt, EDAttPolicy)
        assert edatt.alpha == 0.3 and edatt.lam == 4
        waitk = SessionConfig(policy="waitk", k=5).make_policy()
        assert isinstance(waitk, WaitKPolicy) and waitk.k == 5
        assert isinstance(
            SessionConfig(policy="local_agreement", t_s_ms=300.0).make_policy(),
            LocalAgreementPolicy,
        )
        assert SessionConfig(policy="alignatt", f=6).make_policy().f == 6
