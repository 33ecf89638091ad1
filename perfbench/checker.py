"""Output checks made after every timed run of a workload.

check_tree() verifies the output tree of one finished workload command
sequence against its resolved config:

- every role directory and file of the documented output tree is present and
  non-empty, for every replicate;
- per role and replicate, the agents spawned equal sim.total_agents, no path
  is longer than sim.max_transitions + 1, and the OD matrix sums to the
  path transitions;
- on the protocol workloads (science=True), the orderings the paper's claims
  rest on: case2 < case1, case3 < case3_random and weighted assignment L1 <
  random L1; the 0.85 case3/case3_random gate applies from 30 replicates on.

It returns a digest of every data file, so a caller can require all runs with
one seed to write the same bytes.
"""

import csv
import hashlib
import json
from collections import defaultdict
from pathlib import Path

ROLE_FILES = {
    "truth": ("obs_counts.csv", "obs_counts_attr.csv", "sequence_pool.csv",
              "truth_od.csv", "truth_paths.csv"),
    "baseline": ("baseline_od.csv", "baseline_paths.csv"),
    "case": ("assim_od.csv", "assim_paths.csv"),
    "case3": ("assim_od.csv", "assim_paths.csv", "assigned_sequences.csv"),
}
RATIO_GATE = 0.85
RATIO_GATE_MIN_REPLICATES = 30


def case_roles(cases):
    roles = [f"case{c}" for c in cases if c != 3]
    if 3 in cases:
        roles += ["case3", "case3_random"]
    return roles


def _role_files(role):
    if role in ("truth", "baseline"):
        return ROLE_FILES[role]
    return ROLE_FILES["case3" if role.startswith("case3") else "case"]


def expected_files(cfg: dict, manifest: bool):
    """Relative paths every complete tree for this resolved config must hold."""
    cases = case_roles(cfg["experiment.cases"])
    files = []
    for role in ["truth", "baseline"] + cases:
        for r in range(cfg["experiment.replicates"]):
            files += [f"{role}/{r:03d}/{name}" for name in _role_files(role)]
    files += ["aggregate/od_truth_mean.csv", "aggregate/od_baseline_mean.csv",
              "aggregate/metrics.json"]
    for case in cases:
        files += [f"aggregate/{case}/od_assim_mean.csv", f"aggregate/{case}/ngram_top20.csv"]
    if manifest:
        files.append("run_manifest.json")
    return files


def _read_paths(path):
    paths = defaultdict(int)
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader)
        if header != ["agent_id", "group", "position", "store"]:
            raise ValueError(f"unexpected header {header}")
        for row in reader:
            if len(row) != 4:
                raise ValueError(f"malformed row {row}")
            paths[int(row[0])] += 1
    return paths


def _od_total(path):
    with open(path, newline="", encoding="utf-8") as f:
        return sum(int(row["count"]) for row in csv.DictReader(f))


def _check_role(tree: Path, role: str, replicate: int, cfg: dict):
    d = tree / role / f"{replicate:03d}"
    prefix = {"truth": "truth", "baseline": "baseline"}.get(role, "assim")
    where = f"{role}/{replicate:03d}"
    try:
        lengths = _read_paths(d / f"{prefix}_paths.csv")
        od_total = _od_total(d / f"{prefix}_od.csv")
    except (OSError, ValueError, KeyError, StopIteration) as e:
        return [f"{where}: unreadable output: {e}"]
    problems = []
    if len(lengths) != cfg["sim.total_agents"]:
        problems.append(f"{where}: {len(lengths)} agents spawned, expected {cfg['sim.total_agents']}")
    longest = max(lengths.values(), default=0)
    if longest > cfg["sim.max_transitions"] + 1:
        problems.append(f"{where}: a path visits {longest} stores")
    transitions = sum(n - 1 for n in lengths.values())
    if od_total != transitions:
        problems.append(f"{where}: OD sums to {od_total}, paths hold {transitions} transitions")
    return problems


def science(metrics: dict, roles, replicates: int):
    """(ratios, problems) for the case orderings expected of these roles."""
    disc = {k: v["discrepancy_mean"] for k, v in metrics.get("discrepancy", {}).items()}
    bias = metrics.get("case3_assignment_bias") or {}
    ratios, problems = {}, []
    for better, worse, key in (("case2", "case1", "case2_over_case1"),
                               ("case3", "case3_random", "case3_over_case3_random")):
        if better not in roles or worse not in roles:
            continue
        if better not in disc or worse not in disc:
            problems.append(f"metrics.json lacks the {better} or {worse} discrepancy")
            continue
        ratios[key] = disc[better] / disc[worse]
        if not disc[better] < disc[worse]:
            problems.append(f"{better} discrepancy {disc[better]} is not below {worse} {disc[worse]}")
    if "case3" in roles:
        if "weighted_l1_mean" not in bias or "random_l1_mean" not in bias:
            problems.append("metrics.json lacks the case3 assignment L1 values")
        else:
            ratios["weighted_over_random_l1"] = bias["weighted_l1_mean"] / bias["random_l1_mean"]
            if not bias["weighted_l1_mean"] < bias["random_l1_mean"]:
                problems.append("weighted assignment L1 is not below random L1")
    gate = ratios.get("case3_over_case3_random")
    if gate is not None and replicates >= RATIO_GATE_MIN_REPLICATES and gate > RATIO_GATE:
        problems.append(f"case3/case3_random ratio {gate:.3f} above {RATIO_GATE}")
    return ratios, problems


def file_sums(tree: Path):
    """sha256 of every file except the manifest, which holds a wall time."""
    return {
        p.relative_to(tree).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tree.rglob("*"))
        if p.is_file() and p.name != "run_manifest.json"
    }


def check_tree(tree, cfg: dict, manifest: bool, science_checks: bool):
    """Return (digest, problems, info) for one finished output tree."""
    tree = Path(tree)
    problems = []
    for rel in expected_files(cfg, manifest):
        p = tree / rel
        if not p.is_file() or p.stat().st_size == 0:
            problems.append(f"{rel}: missing or empty")
    if problems:
        return None, problems, {}
    for role in ["truth", "baseline"] + case_roles(cfg["experiment.cases"]):
        for r in range(cfg["experiment.replicates"]):
            problems += _check_role(tree, role, r, cfg)
    sums = file_sums(tree)
    info = {}
    try:
        metrics = json.loads((tree / "aggregate" / "metrics.json").read_text(encoding="utf-8"))
        recorded = (json.loads((tree / "run_manifest.json").read_text(encoding="utf-8"))
                    .get("checksums") if manifest else sums)
    except ValueError as e:
        return None, problems + [f"unreadable JSON output: {e}"], info
    if metrics.get("replicates") != cfg["experiment.replicates"]:
        problems.append(f"metrics.json covers {metrics.get('replicates')} replicates")
    info["config_hash"] = metrics.get("config_hash")
    if recorded != sums:
        problems.append("run_manifest.json checksums do not match the files written")
    if science_checks:
        info["science"], found = science(metrics, case_roles(cfg["experiment.cases"]),
                                         cfg["experiment.replicates"])
        problems += found
    digest = hashlib.sha256(json.dumps(sums, sort_keys=True).encode()).hexdigest()
    return digest, problems, info
