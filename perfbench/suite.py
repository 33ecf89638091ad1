"""Run the benchmark on several seeds and write a result file.

    python3 perfbench/suite.py --out perfbench/results/baseline.json
    python3 perfbench/suite.py --checkout ../parent --checkout . \\
        --out parent.json --out change.json

Each workload runs ten times, once per seed (12345, then 1 to 9), with this
copy of perfbench/run.py and the BENCHMARK.json run length, and then once
traced (per-layer metrics) at seed 12345. With two checkouts the runs are
paired and alternate which side goes first, so both sides see the same
machine state; compare the files with perfbench/compare.py.

A result file records the machine (cores, CPU model, Python and numpy
versions), the git commit, and per workload the config, its hash, the
replicate count, every seed and every run's metrics. A per-layer metric the
traced run lists as absent (its layer did not run, or its entry point is gone)
is left out of that run's metrics.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = 10
TRACE_RUNS = 1
FIRST_SEED = 12345


def seeds(n: int):
    return [FIRST_SEED, *range(1, n)][:n]


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run.py run in `checkout`: its result and the detail line before it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()
                    if k not in detail["absent"]},
        **{k: detail[k] for k in ("absent", "science", "digest", "repetitions", "machine",
                                  "replicates", "jobs", "config", "config_hash", "seconds")},
    }


def summary(runs, defs):
    out = {}
    for d in defs:
        xs = [r["metrics"][d["name"]] for r in runs if d["name"] in r["metrics"]]
        if not xs:
            continue
        med = statistics.median(xs)
        if len(xs) > 1:
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else None
        else:
            q1 = q3 = med
            spread = None  # one sample has no spread
        out[d["name"]] = {"unit": d["unit"], "median": med, "q1": q1, "q3": q3,
                          "spread": spread, "n": len(xs)}
    return out


def record(bench: dict, runs: dict, traces: dict) -> dict:
    """One result file from the runs of one checkout."""
    workloads = {}
    for name, rs in runs.items():
        first = rs[0]
        workloads[name] = {
            **{k: first[k] for k in ("replicates", "jobs", "config", "config_hash", "seconds")},
            "seeds": [r["seed"] for r in rs],
            "failed_share": sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs),
            "summary": summary(rs, bench["end_to_end"]),
            "runs": rs,
            "trace_summary": summary(traces[name], bench["per_layer"]),
            "traces": traces[name],
        }
    machine = next(iter(runs.values()))[0]["machine"]
    return {"benchmark": bench, "machine": machine, "workloads": workloads}


def main(argv=None) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description="Run the benchmark on several seeds.")
    p.add_argument("--checkout", action="append", type=Path,
                   help="roamlab checkout to measure (default: the current directory)")
    p.add_argument("--out", action="append", type=Path, required=True,
                   help="result file, one per --checkout")
    p.add_argument("--workload", action="append",
                   help="workload to run (default: every workload in BENCHMARK.json)")
    args = p.parse_args(argv)
    checkouts = [c.resolve() for c in args.checkout or [Path.cwd()]]
    if len(args.out) != len(checkouts):
        p.error("give one --out per --checkout")
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    runs = [{w: [] for w in workloads} for _ in checkouts]
    traces = [{w: [] for w in workloads} for _ in checkouts]
    for w in workloads:
        for i, seed in enumerate(seeds(RUNS)):
            order = range(len(checkouts)) if i % 2 == 0 else reversed(range(len(checkouts)))
            for c in order:
                r = run_once(checkouts[c], w, seed, bench["run_seconds"], 0)
                runs[c][w].append(r)
                values = "  ".join(f"{k}={v:.4g}" for k, v in r["metrics"].items())
                print(f"{w} seed {seed} [{checkouts[c].name}] correct={r['correct']} "
                      f"{values}", flush=True)
        for seed in seeds(TRACE_RUNS):
            for c in range(len(checkouts)):
                traces[c][w].append(run_once(checkouts[c], w, seed, bench["run_seconds"], 1))

    for c, out in enumerate(args.out):
        result = record(bench, runs[c], traces[c])
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"\n{checkouts[c]} -> {out}")
        for name, wl in result["workloads"].items():
            print(f"{name}  (replicates {wl['replicates']}, jobs {wl['jobs']}, "
                  f"failed share {wl['failed_share']})")
            for metric, s in {**wl["summary"], **wl["trace_summary"]}.items():
                spread = "" if s["spread"] is None else f"  spread {s['spread']:.3f}"
                print(f"  {metric:46} {s['median']:12.5g} {s['unit']:6} "
                      f"[{s['q1']:.5g}, {s['q3']:.5g}] n={s['n']}{spread}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
