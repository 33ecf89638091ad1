"""Command-line interface for the roaming twin-experiment laboratory.

Exit codes: 0 success, 2 unreadable config, 3 schema violation,
4 a filesystem error (OSError) such as an unusable output path, or stage
inputs that are missing or malformed.
"""

import argparse
import gc
import json
import sys
from pathlib import Path

from .config import ConfigReadError, ConfigSchemaError, validate_config

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
    p.add_argument("--case", help="1, 2, 3, or all (default: the config's experiment.cases)")

    p = sub.add_parser("evaluate", help="aggregate completed replicates and write metrics")
    _add_common(p)

    p = sub.add_parser("experiment", help="full pipeline: truth, baseline, cases, aggregate")
    _add_common(p)
    p.add_argument("--case", help="1, 2, 3, or all (default: the config's experiment.cases)")
    p.add_argument("--jobs", type=int, default=None, help="parallel replicate workers")

    return parser


def _overrides(args) -> dict:
    ov = {}
    if args.runs is not None:
        ov["experiment.replicates"] = args.runs
    if args.seed is not None:
        ov["experiment.base_seed"] = args.seed
    if getattr(args, "case", None) is not None:
        case = args.case  # anything but a number or "all" fails the schema check
        ov["experiment.cases"] = [int(case)] if case.isdecimal() else case
    if getattr(args, "jobs", None) is not None:
        ov["experiment.jobs"] = args.jobs
    return ov


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = validate_config(args.config, _overrides(args))
    except ConfigReadError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG_READ
    except ConfigSchemaError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG_SCHEMA

    if args.command == "validate-config":
        print(json.dumps(cfg.resolved, indent=2, sort_keys=True))
        return EXIT_OK

    from . import experiment, io  # imported here: validate-config needs neither

    try:
        if args.command == "generate-obs":
            for chunk in experiment.chunks(cfg):
                experiment.run_truth_stage(cfg, args.out, chunk)
            print(f"wrote truth products for {cfg.replicate_count} replicate(s) under {args.out}")
        elif args.command == "baseline":
            for chunk in experiment.chunks(cfg):
                experiment.run_baseline_stage(cfg, args.out, chunk)
            print(f"wrote baseline runs for {cfg.replicate_count} replicate(s) under {args.out}")
        elif args.command == "assimilate":
            labels = experiment.case_labels(cfg)
            for chunk in experiment.chunks(cfg):
                products = [experiment.load_truth_products(cfg, args.out, r) for r in chunk]
                observations, pools = [p[0] for p in products], [p[1] for p in products]
                for family in experiment.families(cfg):
                    experiment.run_case_stage(cfg, args.out, chunk, family, observations, pools)
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
    except (OSError, io.MalformedTableError) as e:
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


def run() -> int:
    """The program entry, `roamlab` and `python -m roamlab.cli`: main, with
    the heap the imports left frozen first, so that the collections run at
    interpreter exit do not walk it. Not done in main, which tests call in
    their own process."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
