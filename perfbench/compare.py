"""Compare two result files written by perfbench/suite.py.

    python3 perfbench/compare.py BASE.json HEAD.json

For every workload and metric found in both files it prints each side's
median and quartiles, the share of pairs the head side wins (pair i is the
i-th run of each side; ties count for neither side), whether the medians
differ by more than the base side's own quartile distance, and a verdict:

  gain        at least 10 pairs, head is better, wins at least 9/10 of the
              pairs, and its median moved by more than the base IQR
  regression  head median is worse than the base median by more than the
              metric's bound (end-to-end metrics only)
  unresolved  the base IQR is wider than the bound, unless every head run
              beats every base run
  unchanged   none of the above
  refused     would be a gain, but the head side failed a larger share of
              its repetitions than the base side (wrong output is not speed)
  -           per-layer metric (no bound) without a gain

Each workload's header gives both sides' failed share (failed over attempted
repetitions). Directions and bounds come from the `benchmark` section of BASE.
The exit status is 1 when any end-to-end metric regresses or the head side
fails more often than the base side on any workload, else 0. Files whose
workloads differ in run length or replicate count are not compared (exit 2).
"""

import argparse
import json
import statistics
import sys

WIN_SHARE = 0.9
MIN_PAIRS = 10


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(base, head, better: str, bound):
    """Judge head against base for one metric; bound None means per-layer."""
    sign = 1 if better == "higher" else -1
    mb, mh = statistics.median(base), statistics.median(head)
    q1, q3 = quartiles(base)
    iqr = q3 - q1
    pairs = list(zip(base, head))
    wins = sum(sign * (h - b) > 0 for b, h in pairs)
    share = wins / len(pairs)
    beats_iqr = abs(mh - mb) > iqr
    if len(pairs) >= MIN_PAIRS and sign * (mh - mb) > 0 and share >= WIN_SHARE and beats_iqr:
        label = "gain"
    elif bound is None:
        label = "-"
    elif sign * (mb - mh) > bound * abs(mb):
        label = "regression"
    elif iqr > bound * abs(mb) and not all(sign * (h - b) > 0 for h in head for b in base):
        label = "unresolved"
    else:
        label = "unchanged"
    return {"base": (mb, q1, q3), "head": (mh, *quartiles(head)), "wins": wins,
            "pairs": len(pairs), "share": share, "beats_iqr": beats_iqr, "verdict": label}


def _series(workload: dict, section: str, metric: str):
    return [r["metrics"][metric] for r in workload.get(section, []) if metric in r["metrics"]]


def mismatch(base: dict, head: dict):
    """Why the two files measure different things, or None."""
    for name, wb in base["workloads"].items():
        wh = head["workloads"].get(name)
        for key in ("seconds", "replicates"):
            if wh is not None and wb[key] != wh[key]:
                return f"{name}: {key} {wb[key]} in base, {wh[key]} in head"
    return None


def compare(base: dict, head: dict):
    """Yield (workload, metric definition, verdict dict) for every shared metric."""
    bench = base["benchmark"]
    for name, wb in base["workloads"].items():
        wh = head["workloads"].get(name)
        if wh is None:
            continue
        worse_failures = wh["failed_share"] > wb["failed_share"]
        for section, defs in (("runs", bench["end_to_end"]), ("traces", bench["per_layer"])):
            for d in defs:
                b, h = _series(wb, section, d["name"]), _series(wh, section, d["name"])
                if b and h:
                    v = verdict(b, h, d["better"], d.get("bound"))
                    if worse_failures and v["verdict"] == "gain":
                        v["verdict"] = "refused"
                    yield name, d, v


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Compare two perfbench result files.")
    p.add_argument("base")
    p.add_argument("head")
    args = p.parse_args(argv)
    with open(args.base, encoding="utf-8") as f:
        base = json.load(f)
    with open(args.head, encoding="utf-8") as f:
        head = json.load(f)
    print(f"base {base['machine'].get('commit')}  head {head['machine'].get('commit')}")
    why = mismatch(base, head)
    if why:
        print(f"error: the files are not comparable: {why}", file=sys.stderr)
        return 2
    rejected = False
    current = None
    for workload, d, v in compare(base, head):
        if workload != current:
            current = workload
            fb = base["workloads"][workload]["failed_share"]
            fh = head["workloads"][workload]["failed_share"]
            print(f"\n{workload}  failed share: base {fb:.3g}, head {fh:.3g}")
            rejected |= fh > fb
            print(f"  {'metric':44} {'unit':6} {'base median [q1, q3]':>30} "
                  f"{'head median [q1, q3]':>30} {'won':>6} {'>IQR':>5}  verdict")
        fmt = "{:.4g} [{:.4g}, {:.4g}]"
        print(f"  {d['name']:44} {d['unit']:6} {fmt.format(*v['base']):>30} "
              f"{fmt.format(*v['head']):>30} {v['wins']:>3}/{v['pairs']:<2} "
              f"{'yes' if v['beats_iqr'] else 'no':>5}  {v['verdict']}")
        rejected |= v["verdict"] == "regression"
    return 1 if rejected else 0


if __name__ == "__main__":
    sys.exit(main())
