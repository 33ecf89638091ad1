"""Span tracing around roamlab's public entry points, installed from outside.

A Tracer replaces module-level functions (and two ChoiceModel methods) with
wrappers that record one span per call: name, start, end and the span that
was open when the call began. A wrapper is installed under every roamlab
module attribute that holds the original object, so names imported with
`from x import f` are traced too. An entry point that no longer exists is
skipped and named in the span files; every metric built from it is then
reported as absent, counts included.

Spans stay in memory and are written as JSON when the process ends, or after
each replicate in a process-pool worker. `layer_metrics` turns the span files
of one or more traced CLI calls into the per-layer metrics.
"""

import functools
import importlib
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _label(args, kwargs, result):
    """Case label of a run_assimilation call: case1, case2, case3, case3_random."""
    case = args[2] if len(args) > 2 else kwargs["case"]
    options = args[5] if len(args) > 5 else kwargs.get("options")
    if case == 3 and options is not None and options.random_baseline:
        return "case3_random"
    return f"case{case}"


def _ess_frac(args, kwargs, result):
    """Effective sample size of the normalised candidate weights over their count."""
    w = np.exp(result.log_weights)
    return float(1.0 / np.sum(w * w) / len(w))


def _sw_step(args, kwargs, result):
    sw = args[1] if len(args) > 1 else kwargs["sw"]
    return sw.step


def _bytes_written(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


# (module, attribute, note) -- note(args, kwargs, result) is computed after the
# span has closed, so its cost is not charged to the traced call.
TARGETS = [
    ("config", "resolve_config", None),
    ("model", "ChoiceModel.log_probs", None),
    ("model", "ChoiceModel.sample", None),
    ("model", "step_world", None),
    ("twin", "run_truth", None),
    ("twin", "sample_biased_pool", None),
    ("assimilation", "update_store_weights", None),
    ("assimilation", "propose_particles", None),
    ("assimilation", "weight_particles", _ess_frac),
    ("assimilation", "resample_and_select", None),
    ("assimilation", "weight_sequences", _sw_step),
    ("assimilation", "run_baseline", None),
    ("assimilation", "run_assimilation", _label),
    ("io", "write_obs_counts", _bytes_written),
    ("io", "write_obs_counts_attr", _bytes_written),
    ("io", "write_sequence_pool", _bytes_written),
    ("io", "write_od", _bytes_written),
    ("io", "write_mean_od", _bytes_written),
    ("io", "write_paths", _bytes_written),
    ("io", "write_assignments", _bytes_written),
    ("io", "write_ngram_top", _bytes_written),
    ("io", "write_json", _bytes_written),
    ("io", "read_observations", None),
    ("io", "read_sequence_pool", None),
    ("io", "read_od", None),
    ("io", "read_paths", None),
    ("io", "read_assignments", None),
    ("metrics", "build_od", None),
    ("metrics", "ngram_table", None),
    ("metrics", "mean_ngram_table", None),
    ("metrics", "aggregate_runs", None),
    ("experiment", "run_truth_stage", None),
    ("experiment", "run_baseline_stage", None),
    ("experiment", "run_case_stage", None),
    ("experiment", "run_replicate", None),
    ("experiment", "evaluate", None),
    ("experiment", "write_manifest", None),
    ("experiment", "run_experiment", None),
]


class Tracer:
    """Records spans of wrapped calls in one process and writes them to out_dir."""

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.spans = []        # (id, parent id or -1, name, t0, t1, note)
        self.skipped = []      # TARGETS names not found in roamlab
        self.stack = []
        self.next_id = 0
        self.flushes = 0
        self.in_worker = False

    def __reduce__(self):
        # A worker started by spawn or forkserver imports roamlab afresh and
        # gets its own installed tracer; a forked worker inherits this one.
        return (install, (str(self.out_dir),))

    def wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        flush_after = name == "experiment.run_replicate"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append((sid, parent, name, t0, clock(), None))
                raise
            t1 = clock()
            stack.pop()
            spans.append((sid, parent, name, t0, t1, note(args, kwargs, result) if note else None))
            if flush_after and self.in_worker:
                self.flush()
            return result

        return traced

    def worker_start(self):
        """Process-pool initializer: drop what a forked worker inherited."""
        self.spans.clear()
        self.stack.clear()
        self.in_worker = True

    def flush(self):
        if not self.spans:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}-{self.flushes}.json"
        self.flushes += 1
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"pid": os.getpid(), "skipped": self.skipped, "spans": self.spans}, f)
        self.spans.clear()


def _worker_start(tracer):
    tracer.worker_start()


def install(out_dir) -> Tracer:
    """Wrap every entry point in TARGETS that exists; return the tracer."""
    tracer = Tracer(out_dir)
    modules = {m: importlib.import_module(f"roamlab.{m}") for m in {t[0] for t in TARGETS}}
    importlib.import_module("roamlab.cli")
    loaded = [m for n, m in sys.modules.items() if n == "roamlab" or n.startswith("roamlab.")]
    for mod_name, attr, note in TARGETS:
        owner = modules[mod_name]
        *outer, leaf = attr.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None)
        if original is None:
            tracer.skipped.append(f"{mod_name}.{attr}")
            continue
        wrapper = tracer.wrap(f"{mod_name}.{attr}", original, note)
        setattr(owner, leaf, wrapper)
        if not outer:
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
    experiment = modules["experiment"]
    pool_cls = getattr(experiment, "ProcessPoolExecutor", None)
    if pool_cls is not None:
        experiment.ProcessPoolExecutor = functools.partial(
            pool_cls, initializer=_worker_start, initargs=(tracer,)
        )
    return tracer


def load_spans(span_dir):
    """(spans, skipped) of one traced CLI call.

    spans are dicts keyed by (process, span id): span ids are unique within a
    process, and a worker's spans never name a parent in another process.
    skipped is the set of TARGETS names the tracer did not find.
    """
    out, skipped = [], set()
    for path in sorted(Path(span_dir).glob("spans-*.json")):
        with open(path, encoding="utf-8") as f:
            payload = json.load(f)
        skipped.update(payload["skipped"])
        proc = f"{Path(span_dir).name}/{payload['pid']}"
        for sid, parent, name, t0, t1, note in payload["spans"]:
            out.append({"key": (proc, sid), "parent": (proc, parent), "name": name,
                        "t0": t0, "t1": t1, "note": note})
    return out, skipped


def self_times(spans):
    """Span key -> duration minus the union of its children's intervals within it.

    A child interval reaching outside its parent is clipped to the parent.
    """
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append((s["t0"], s["t1"]))
    result = {}
    for s in spans:
        covered, end = 0.0, s["t0"]
        for c0, c1 in sorted(children[s["key"]]):
            c0, c1 = max(c0, end), min(c1, s["t1"])
            if c1 > c0:
                covered += c1 - c0
                end = c1
        result[s["key"]] = (s["t1"] - s["t0"]) - covered
    return result


def layer_metrics(spans, replicates: int, jobs: int, skipped=frozenset()):
    """Per-layer metrics from the spans of `replicates` traced replicates.

    `skipped` names the TARGETS the tracer did not find. Returns (metrics,
    absent): metrics maps name -> (value, unit); absent lists the names whose
    entry point was skipped or never ran, reported with value 0.
    """
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    by_key = {s["key"]: s for s in spans}

    def dur(s):
        return s["t1"] - s["t0"]

    def mean_dur(name, scale, where=None):
        xs = [dur(s) for s in by_name[name] if where is None or where(s)]
        return statistics.fmean(xs) * scale if xs else None

    def parent_name(s):
        p = by_key.get(s["parent"])
        return p["name"] if p else None

    def per_rep(count):
        return count / replicates

    def calls(name):
        """Calls of one entry point per replicate; None if it was skipped."""
        return None if name in skipped else per_rep(len(by_name[name]))

    def case_s(label):
        return mean_dur("assimilation.run_assimilation", 1.0, lambda s: s["note"] == label)

    plain_steps = {"twin.run_truth", "assimilation.run_baseline"}
    move_names = ("assimilation.propose_particles", "assimilation.weight_particles",
                  "assimilation.resample_and_select")
    moves = [by_name[n] for n in move_names]
    selects = len(moves[2])
    moves_skipped = bool(skipped.intersection(move_names))
    ess = [s["note"] for s in moves[1] if s["note"] is not None]
    wseq = by_name["assimilation.weight_sequences"]
    wseq_vectors = {(s["parent"], s["note"]) for s in wseq}
    writers = [f"io.{a}" for m, a, _ in TARGETS if m == "io" and a.startswith("write_")]
    writes = ([] if skipped.intersection(writers)
              else [s for n in writers for s in by_name[n]])
    selfs = self_times(spans)
    evaluate_self = [selfs[s["key"]] for s in by_name["experiment.evaluate"]]
    replicate_s = [dur(s) for s in by_name["experiment.run_replicate"]]
    phase = 0.0
    for run in by_name["experiment.run_experiment"]:
        inner = [dur(s) for s in by_name["experiment.evaluate"] + by_name["experiment.write_manifest"]
                 if s["parent"] == run["key"]]
        phase += dur(run) - sum(inner)

    values = {
        "config.resolve_ms": (mean_dur("config.resolve_config", 1e3), "ms"),
        "model.log_probs_us": (mean_dur("model.ChoiceModel.log_probs", 1e6), "us"),
        "model.step_world_ms": (mean_dur("model.step_world", 1e3,
                                         lambda s: parent_name(s) in plain_steps), "ms"),
        "model.moves": (calls("model.ChoiceModel.sample"), "count"),
        "twin.run_truth_s": (mean_dur("twin.run_truth", 1.0), "s"),
        "twin.sample_biased_pool_ms": (mean_dur("twin.sample_biased_pool", 1e3), "ms"),
        "assimilation.filtered_move_us": (
            sum(dur(s) for ss in moves for s in ss) / selects * 1e6
            if selects and not moves_skipped else None, "us"),
        "assimilation.filtered_moves": (None if moves_skipped else per_rep(selects), "count"),
        "assimilation.ess_frac": (statistics.fmean(ess) if ess else None, "ratio"),
        "assimilation.update_store_weights_us": (
            mean_dur("assimilation.update_store_weights", 1e6), "us"),
        "assimilation.case1_s": (case_s("case1"), "s"),
        "assimilation.case2_s": (case_s("case2"), "s"),
        "assimilation.weight_sequences_us": (mean_dur("assimilation.weight_sequences", 1e6), "us"),
        "assimilation.weight_sequences_calls": (calls("assimilation.weight_sequences"), "count"),
        "assimilation.weight_sequences_calls_per_step": (
            len(wseq) / len(wseq_vectors) if wseq_vectors else None, "ratio"),
        "assimilation.case3_s": (case_s("case3"), "s"),
        "assimilation.case3_random_s": (case_s("case3_random"), "s"),
        "io.write_s": (per_rep(sum(dur(s) for s in writes)) if writes else None, "s"),
        "io.bytes_written": (per_rep(sum(s["note"] or 0 for s in writes)) if writes else None,
                             "bytes"),
        "io.read_observations_ms": (mean_dur("io.read_observations", 1e3), "ms"),
        "io.obs_reads_per_replicate": (calls("io.read_observations"), "count"),
        "io.read_paths_ms": (mean_dur("io.read_paths", 1e3), "ms"),
        "io.read_od_ms": (mean_dur("io.read_od", 1e3), "ms"),
        "metrics.build_od_ms": (mean_dur("metrics.build_od", 1e3), "ms"),
        "metrics.ngram_table_ms": (mean_dur("metrics.ngram_table", 1e3), "ms"),
        "metrics.aggregate_runs_ms": (mean_dur("metrics.aggregate_runs", 1e3), "ms"),
        "experiment.evaluate_self_s": (
            statistics.fmean(evaluate_self) if evaluate_self else None, "s"),
        "experiment.replicate_s": (statistics.median(replicate_s) if replicate_s else None, "s"),
        "experiment.replicate_max_s": (max(replicate_s) if replicate_s else None, "s"),
        "experiment.parallel_efficiency": (
            sum(replicate_s) / (jobs * phase) if replicate_s and phase > 0 else None, "ratio"),
    }
    absent = sorted(name for name, (value, _) in values.items() if value is None)
    metrics = {name: (0.0 if value is None else value, unit)
               for name, (value, unit) in values.items()}
    return metrics, absent
