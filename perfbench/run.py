"""roamlab benchmark: one workload, one seed, one run of about --seconds seconds.

    python3 perfbench/run.py --workload protocol_all --seed 12345 --seconds 30 --trace 0

Run it from the root of a roamlab checkout. Every workload command is a
`python3 -m roamlab.cli` child process with PYTHONPATH pointing at the
checkout's src/, so the program is measured as a user runs it. A run repeats
its workload (same seed, so the same inputs) for about --seconds, checks every
output tree, and reports medians over the repetitions.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
alternates untraced repetitions with repetitions run under perfbench/tracecli.py,
which wraps roamlab's public entry points, and reports the per-layer metrics.

The last line of stdout is the result object; the line before it holds the
run's detail (machine, seed, config hash, per-repetition values, science
ratios). Work files go to .bench_work/ and are removed when the run ends.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import checker
import spans

HERE = Path(__file__).resolve().parent

# The test suite's tiny scale (tests/conftest.py TINY_OVERRIDES).
TINY = {
    "sim.total_agents": 200,
    "sim.group_quotas": [50, 50, 50, 50],
    "sim.initial_agents": 40,
    "sim.replenish_threshold": 10,
    "sim.replenish_count": 10,
    "sim.horizon_steps": 60,
    "pool.size": 50,
}


@dataclass(frozen=True)
class Workload:
    replicates: int
    config: dict       # sets experiment.cases and experiment.jobs; the commands follow from it
    protocol: bool     # one `experiment` call, else the separate stages; see checker.check_tree

    @property
    def jobs(self) -> int:
        return self.config["experiment.jobs"]

    def stages(self):
        """The roamlab CLI commands run in order; the last writes metrics.json."""
        cases = self.config["experiment.cases"]
        case = "all" if sorted(cases) == [1, 2, 3] else str(cases[0])
        if self.protocol:
            return (("experiment", "--case", case, "--jobs", str(self.jobs)),)
        return (("generate-obs",), ("baseline",), ("assimilate", "--case", case), ("evaluate",))


# Replicate counts keep a repetition short, so a 30 s run holds several. They
# are the smallest at which case3 < case3_random held with margin on seeds
# 0-29: largest case3/case3_random ratio 0.92 at 4 replicates with pool 400,
# 0.90 at 2 replicates with pool 1000 (0.98 at 2 replicates with pool 400).
WORKLOADS = {
    # The headline run at the default scale; the only one using the process pool.
    "protocol_all": Workload(
        4, {"experiment.cases": [1, 2, 3], "experiment.jobs": 2}, protocol=True),
    # Same scale, single process, no filtered moves: plain model and
    # sequence weighting carry the load, and case-1/2 work is bypassed.
    "protocol_case3": Workload(
        2, {"experiment.cases": [3], "experiment.jobs": 1, "pool.size": 1000}, protocol=True),
    # Tiny scale through the separate stages: the only workload that reads
    # stage products back from disk.
    "staged_small": Workload(
        8, {**TINY, "experiment.cases": [1, 2, 3], "experiment.jobs": 1}, protocol=False),
}
SETUP_CALLS = 5
# evaluate calls per untraced repetition, on the finished tree. The speed of a
# small shared VM drifts over seconds, so evaluate_s takes samples from every
# repetition rather than from one burst.
EVALUATE_CALLS = 3


def machine(root: Path) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "commit": commit,
    }


class Runner:
    """Runs one workload's CLI commands in child processes under a work directory."""

    def __init__(self, root: Path, name: str, seed: int, work: Path):
        self.root, self.name, self.seed, self.work = root, name, seed, work
        self.workload = WORKLOADS[name]
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        work.mkdir(parents=True)
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(self.workload.config), encoding="utf-8")
        self.common = ["--config", str(self.config_path),
                       "--runs", str(self.workload.replicates), "--seed", str(seed)]

    def cli(self, args, log: Path, span_dir: Path | None = None):
        """Run one roamlab command; return (exit code, wall seconds, peak RSS in MB).

        The peak RSS comes from wait4, which covers the child and the pool
        workers it reaped (the RUSAGE_CHILDREN view of that one child).
        """
        if span_dir is None:
            prog = [sys.executable, "-m", "roamlab.cli"]
        else:
            prog = [sys.executable, str(HERE / "tracecli.py"), str(span_dir)]
        with open(log, "wb") as out:
            t0 = time.perf_counter()
            with subprocess.Popen(prog + list(args), stdout=out, stderr=subprocess.STDOUT,
                                  env=self.env, cwd=self.root) as proc:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            wall = time.perf_counter() - t0
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def setup(self):
        """Resolve the config through validate-config; return (resolved, wall times)."""
        args = ["validate-config"] + self.common
        log = self.work / "validate.log"
        times = []
        for i in range(SETUP_CALLS + 1):  # the first call fills caches and is not timed
            rc, wall, _ = self.cli(args, log)
            if rc != 0:
                raise RuntimeError(f"validate-config exited {rc}: {log.read_text()}")
            if i:
                times.append(wall)
        return json.loads(log.read_text(encoding="utf-8")), times

    def repetition(self, k: int, cfg: dict, traced: bool) -> dict:
        """Run the workload once into a fresh tree, time it and check the outputs."""
        wl = self.workload
        tree = self.work / f"tree{k}"
        rec = {"traced": traced, "span_dirs": [], "problems": []}
        walls, rss = [], []
        stages = wl.stages()
        for i, stage in enumerate(stages):
            span_dir = self.work / f"spans{k}-{i}" if traced else None
            rc, wall, peak = self.cli(list(stage) + self.common + ["--out", str(tree)],
                                      self.work / f"stage{k}-{i}.log", span_dir)
            walls.append(wall)
            rss.append(peak)
            if span_dir is not None:
                rec["span_dirs"].append(span_dir)
            if rc != 0:
                rec["problems"].append(f"{stage[0]} exited {rc}")
                return rec
        rec["wall_s"] = sum(walls)
        rec["evaluate_s"] = [walls[-1]] if stages[-1][0] == "evaluate" else []
        while not traced and len(rec["evaluate_s"]) < EVALUATE_CALLS:
            rc, wall, peak = self.cli(["evaluate"] + self.common + ["--out", str(tree)],
                                      self.work / f"evaluate{k}.log")
            rec["evaluate_s"].append(wall)
            rss.append(peak)
            if rc != 0:
                rec["problems"].append(f"evaluate exited {rc}")
                return rec
        rec["peak_rss_mb"] = max(rss)
        rec["digest"], problems, rec["info"] = checker.check_tree(tree, cfg, wl.protocol,
                                                                  wl.protocol)
        rec["problems"] += problems
        shutil.rmtree(tree)
        return rec


def run(runner: Runner, seconds: float, trace: bool):
    """Repeat the workload for about `seconds`; return (result, detail)."""
    cfg, setup_times = runner.setup()
    wl = runner.workload
    reps, costs = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        reps.append(runner.repetition(len(reps), cfg, traced=trace and len(reps) % 2 == 1))
        costs.append(time.perf_counter() - t0)
        enough = len(reps) >= (2 if trace else 1)
        if enough and time.perf_counter() - start + costs[-1] / 2 >= seconds:
            break

    first = next((r["digest"] for r in reps if r.get("digest")), None)
    failed = 0
    for r in reps:
        if r.get("digest") != first:
            r["problems"].append("output checksums differ from the first run with this seed")
        if r["problems"]:
            failed += 1
            print(f"run failed: {r['problems'][:5]}", file=sys.stderr)
    # Medians come from clean repetitions only, so wrong output never counts as speed.
    timed = [r for r in reps if not r["problems"]]

    def median(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    if trace:
        traced = [r for r in timed if r["traced"]]
        plain = [r for r in timed if not r["traced"]]
        span_list, skipped = [], set()
        for d in (d for r in traced for d in r["span_dirs"]):
            found, missing = spans.load_spans(d)
            span_list += found
            skipped |= missing
        layers, absent = spans.layer_metrics(span_list, wl.replicates * max(len(traced), 1),
                                             wl.jobs, skipped)
        overhead = (median(r["wall_s"] for r in traced) / median(r["wall_s"] for r in plain) - 1.0
                    if traced and plain else 0.0)
        layers["trace_overhead_frac"] = (overhead, "ratio")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
    else:
        absent = []
        metrics = {
            "wall_s": (median(r["wall_s"] for r in timed), "s"),
            "evaluate_s": (median(e for r in timed for e in r["evaluate_s"]), "s"),
            "replicates_per_s": (wl.replicates / median(r["wall_s"] for r in timed)
                                 if timed else 0.0, "1/s"),
            "setup_s": (median(setup_times), "s"),
            "peak_rss_mb": (median(r["peak_rss_mb"] for r in timed), "MB"),
        }
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    info = next((r["info"] for r in reps if r.get("info")), {})
    detail = {
        "workload": runner.name, "seed": runner.seed, "seconds": seconds, "trace": int(trace),
        "replicates": wl.replicates, "jobs": wl.jobs, "config": wl.config,
        "config_hash": info.get("config_hash"), "science": info.get("science"),
        "digest": first, "setup_s": setup_times, "absent": absent,
        "repetitions": [{k: r[k] for k in ("traced", "wall_s", "evaluate_s", "peak_rss_mb")
                         if k in r} | {"problems": r["problems"][:5]} for r in reps],
        "machine": machine(runner.root),
    }
    result = {"correct": failed == 0, "attempted": len(reps), "failed": failed, "metrics": metrics}
    return result, detail


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "roamlab" / "cli.py").is_file():
        print(f"error: {root} holds no roamlab source tree (src/roamlab/cli.py)", file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result, detail = run(Runner(root, args.workload, args.seed, work), args.seconds,
                             bool(args.trace))
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
