"""Command-line interface for the roaming twin-experiment laboratory.

Exit codes: 0 success, 2 unreadable config, 3 schema violation,
4 unusable output directory or missing stage inputs.
"""

import argparse
import json
import sys
import uuid
from pathlib import Path

from . import experiment
from .config import ConfigReadError, ConfigSchemaError, load_raw, resolve_config

EXIT_OK = 0
EXIT_CONFIG_READ = 2
EXIT_CONFIG_SCHEMA = 3
EXIT_IO = 4


def _add_common(p, out=True):
    p.add_argument("--config", type=Path, default=None, help="JSON config file (flat dotted keys)")
    p.add_argument("--runs", type=int, default=None, help="replicate count override")
    p.add_argument("--seed", type=int, default=None, help="base seed override")
    if out:
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roamlab",
        description="Agent roaming simulator with particle-filter assimilation "
        "of store inflow observations (twin experiments).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate-config", help="resolve defaults and print the full config")
    _add_common(p, out=False)

    p = sub.add_parser("generate-obs", help="run truth replicates and write observation products")
    _add_common(p)

    p = sub.add_parser("baseline", help="run the no-assimilation model replicates")
    _add_common(p)

    p = sub.add_parser("assimilate", help="run assimilation cases against stored observations")
    _add_common(p)
    p.add_argument("--case", default="all", help="1, 2, 3, or all")
    p.add_argument("--random-baseline", action="store_true",
                   help="case 3 only: assign sequences uniformly instead of by likelihood")

    p = sub.add_parser("evaluate", help="aggregate completed replicates and write metrics")
    _add_common(p)

    p = sub.add_parser("experiment", help="full pipeline: truth, baseline, cases, aggregate")
    _add_common(p)
    p.add_argument("--case", default="all", help="1, 2, 3, or all")
    p.add_argument("--jobs", type=int, default=None, help="parallel replicate workers")
    p.add_argument("--random-baseline", action="store_true",
                   help="case 3 only: assign sequences uniformly instead of by likelihood")

    return parser


def _overrides(args) -> dict:
    ov = {}
    if args.runs is not None:
        ov["experiment.replicates"] = args.runs
    if args.seed is not None:
        ov["experiment.base_seed"] = args.seed
    if getattr(args, "case", None) is not None:
        case = args.case
        ov["experiment.cases"] = "all" if case == "all" else [int(case)]
    if getattr(args, "jobs", None) is not None:
        ov["experiment.jobs"] = args.jobs
    if getattr(args, "random_baseline", False):
        ov["flags.random_baseline"] = True
    return ov


def _resolve(args):
    raw = load_raw(args.config) if args.config is not None else {}
    return resolve_config(raw, _overrides(args))


def _check_out_dir(out: Path):
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / f".write_probe_{uuid.uuid4().hex}"
        probe.touch()
        probe.unlink()
    except OSError as e:
        raise PermissionError(f"output directory {out} is not writable: {e}") from e


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
    except ConfigReadError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG_READ
    except ConfigSchemaError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG_SCHEMA
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG_SCHEMA

    if args.command == "validate-config":
        print(json.dumps(cfg.resolved, indent=2, sort_keys=True))
        return EXIT_OK

    try:
        _check_out_dir(args.out)
        if args.command == "generate-obs":
            for r in range(cfg.replicate_count):
                experiment.run_truth_stage(cfg, args.out, r)
            print(f"wrote truth products for {cfg.replicate_count} replicate(s) under {args.out}")
        elif args.command == "baseline":
            for r in range(cfg.replicate_count):
                experiment.run_baseline_stage(cfg, args.out, r)
            print(f"wrote baseline runs for {cfg.replicate_count} replicate(s) under {args.out}")
        elif args.command == "assimilate":
            labels = experiment.case_labels(cfg)
            for r in range(cfg.replicate_count):
                for label in labels:
                    experiment.run_case_stage(cfg, args.out, r, label)
            print(f"wrote {', '.join(labels)} for {cfg.replicate_count} replicate(s)")
        elif args.command == "evaluate":
            summary = experiment.evaluate(cfg, args.out)
            _print_summary(summary)
        elif args.command == "experiment":
            summary = experiment.run_experiment(cfg, args.out)
            _print_summary(summary)
    except ConfigSchemaError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG_SCHEMA
    except PermissionError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except experiment.MissingInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _print_summary(summary: dict):
    for label, stats in summary.get("discrepancy", {}).items():
        print(
            f"{label}: discrepancy vs truth "
            f"mean={stats['discrepancy_mean']:.1f} std={stats['discrepancy_std']:.1f} "
            f"of-mean-od={stats['discrepancy_of_mean_od']:.1f}"
        )
    bias = summary.get("case3_assignment_bias")
    if bias:
        for key in ("weighted", "random"):
            if f"{key}_l1_mean" in bias:
                print(f"case3 {key} assignment composition L1: {bias[f'{key}_l1_mean']:.4f}")


if __name__ == "__main__":
    sys.exit(main())
