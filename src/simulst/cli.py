"""Command-line entry point.

Verbs:
  run               evaluate a manifest under one config
  sweep             run a hyperparameter grid and write a latency-quality CSV
  score             recompute metrics from existing emission logs
  extract-features  audio front end: WAV to binary feature file

Every config key has a matching flag; flags override values from --config.
Exit codes: 0 success, 1 at least one utterance failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from .config import CONFIG_TYPES, SWEEP_FIELD, ConfigError, SessionConfig, sweep_number
from .features import (
    global_cmvn,
    load_cmvn_stats,
    load_source_features,
    compute_cmvn_stats,
    save_cmvn_stats,
    write_features,
)
from .manifest import ManifestError, load_manifest, write_bytes_atomic
from .runner import aggregate, param_text, run_eval, sweep, write_curve_csv
from .simulator import read_emission_log

__all__ = ["main"]

def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="JSON config file; flags override its keys")
    for key, value_type in CONFIG_TYPES.items():
        kwargs = {"type": value_type, "dest": f"cfg_{key}", "default": None}
        if key == "laal_cap_s":
            kwargs.update(
                nargs="?",
                const=3.5,
                help="drop sweep rows whose mean computational-aware LAAL exceeds this (default 3.5 when given bare)",
            )
        parser.add_argument("--" + key.replace("_", "-"), **kwargs)


def _build_config(args: argparse.Namespace, sweep_seed: float | None = None) -> SessionConfig:
    data: dict = {}
    if args.config is not None:
        try:
            text = args.config.read_text(encoding="utf-8")
            data = json.loads(text) if text.strip() else {}
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {args.config} is not UTF-8 text ({exc})")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {args.config} is not valid JSON ({exc})")
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    for key in CONFIG_TYPES:
        value = getattr(args, f"cfg_{key}")
        if value is not None:
            data[key] = value
    policy = data.get("policy")
    if sweep_seed is not None and isinstance(policy, str) and policy in SWEEP_FIELD:
        # a sweep sets the policy's knob from the grid, whatever a flag or the
        # config file gave; a policy that is not a known name fails in from_dict
        field = SWEEP_FIELD[policy]
        data[field] = sweep_number(field, sweep_seed)
    return SessionConfig.from_dict(data)


def _print_aggregate(record: dict) -> None:
    for utt in record["utterances"]:
        if utt["error"] is not None:
            print(f"{utt['id']}\tFAILED\t{utt['error']}")
        else:
            laal = utt["laal_s"]
            laal_txt = "n/a" if laal is None else f"{laal:.3f}"
            print(f"{utt['id']}\tbleu={utt['bleu']:.2f}\tlaal_s={laal_txt}")
    bleu_txt = "n/a" if record["corpus_bleu"] is None else f"{record['corpus_bleu']:.2f}"
    laal_txt = "n/a" if record["mean_laal_s"] is None else f"{record['mean_laal_s']:.3f}"
    print(f"corpus_bleu={bleu_txt} mean_laal_s={laal_txt} failed={record['num_failed']}/{record['num_utterances']}")


def _cmd_run(args: argparse.Namespace) -> int:
    config = _build_config(args)
    entries = load_manifest(args.manifest)
    evaluation = run_eval(entries, config, out_dir=args.out)
    _print_aggregate(evaluation.to_record())
    print(f"run_id={config.run_id} -> {Path(args.out) / config.run_id}")
    return 1 if evaluation.num_failed else 0


def _parse_grid(raw: str) -> list[float]:
    try:
        values = [float(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"grid must be comma-separated numbers, got {raw!r}")
    if not values:
        raise ConfigError("sweep grid is empty")
    return values


def _cmd_sweep(args: argparse.Namespace) -> int:
    grid = _parse_grid(args.grid)
    config = _build_config(args, sweep_seed=min(grid))
    entries = load_manifest(args.manifest)
    rows, evaluations = sweep(entries, config, grid, out_dir=args.out)
    # the curve is named by the grid's values, not by how --grid spelled them
    canonical = ",".join(param_text(v) for v in sorted(set(grid)))
    digest = hashlib.sha256((config.run_id + canonical).encode("utf-8")).hexdigest()[:12]
    curve_path = Path(args.out) / f"curve_{digest}.csv"
    write_curve_csv(curve_path, rows)
    for row in rows:
        print(f"param={param_text(row.param)} bleu={row.bleu:.2f} laal_s={row.laal_s:.3f} laal_ca_s={row.laal_ca_s:.3f}")
    print(f"curve -> {curve_path}")
    return 1 if any(e.num_failed for e in evaluations) else 0


def _cmd_score(args: argparse.Namespace) -> int:
    entries = load_manifest(args.manifest)
    outcomes = []
    for entry in entries:
        try:
            outcomes.append(read_emission_log(Path(args.logs) / f"{entry.id}.jsonl"))
        except (OSError, ValueError) as exc:
            outcomes.append(str(exc))
    evaluation = aggregate(entries, outcomes)
    text = json.dumps(evaluation.to_record(), indent=2, sort_keys=True)
    if args.out is not None:
        write_bytes_atomic(args.out, (text + "\n").encode("utf-8"))
    print(text)
    return 1 if evaluation.num_failed else 0


def _cmd_extract_features(args: argparse.Namespace) -> int:
    try:
        features = load_source_features(args.input)
        stats = None if args.save_cmvn is None else compute_cmvn_stats(features)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.cmvn is not None:
        try:
            features = global_cmvn(features, load_cmvn_stats(args.cmvn))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if stats is not None:
        save_cmvn_stats(args.save_cmvn, stats)
    write_features(args.output, features)
    print(f"{args.input} -> {args.output} ({features.num_frames} frames x {features.feature_dim})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulst",
        description="Streaming translation policy simulator and evaluator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="evaluate a manifest under one config")
    run_p.add_argument("--manifest", type=Path, required=True)
    run_p.add_argument("--out", type=Path, required=True, help="output directory for logs")
    _add_config_flags(run_p)
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="grid over the policy's knob, write curve CSV")
    sweep_p.add_argument("--manifest", type=Path, required=True)
    sweep_p.add_argument("--out", type=Path, required=True)
    sweep_p.add_argument("--grid", required=True, help="comma-separated values, e.g. 2,4,6,8")
    _add_config_flags(sweep_p)
    sweep_p.set_defaults(func=_cmd_sweep)

    score_p = sub.add_parser("score", help="metrics over existing emission logs")
    score_p.add_argument("--manifest", type=Path, required=True)
    score_p.add_argument("--logs", type=Path, required=True, help="directory of <id>.jsonl logs")
    score_p.add_argument("--out", type=Path, default=None, help="optional JSON report path")
    score_p.set_defaults(func=_cmd_score)

    feat_p = sub.add_parser("extract-features", help="WAV to binary feature file")
    feat_p.add_argument("input", type=Path, help="WAV (or feature) file to read")
    feat_p.add_argument("output", type=Path, help="feature file to write")
    feat_p.add_argument("--cmvn", type=Path, default=None, help="apply stats from this JSON file")
    feat_p.add_argument("--save-cmvn", type=Path, default=None, help="save this utterance's stats")
    feat_p.set_defaults(func=_cmd_extract_features)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, ManifestError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
