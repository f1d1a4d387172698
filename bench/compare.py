"""``--compare A B``: two sets of runs, one verdict per workload and metric.

``A`` holds the parent's runs and ``B`` the change's, each a
``runs.jsonl`` written by ``bench/run.py`` or the ``--out`` directory
holding it.  Only full-size untraced runs are read; traced and
``--smoke`` records are skipped and counted.  Runs are grouped by
workload, seed, ``--seconds`` and workload parameters, and only groups
present on both sides are compared, so runs of another seed or size are
never pooled into one median.  Within a group runs pair up in file
order, so run them alternately: parent, change, parent, change, ...

Verdicts per metric:

* ``better``     -- B wins at least 9 of every 10 pairs (10 pairs at
  least), the medians differ by more than A's interquartile range, and
  B failed no larger share of its operations than A;
* ``unresolved`` -- A's own spread is wider than the bound and B does
  not read better than every run of A;
* ``worse``      -- B's median is worse than A's by more than the bound;
* ``same``       -- otherwise: no worse than the bound allows.

A group in which B failed a larger share of its operations than A is
``worse`` whatever its timings: failures have a bound of zero.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

from .measure import summary

MIN_PAIRS = 10

#: Runs that may be pooled: workload, seed, seconds, parameters.
GroupKey = Tuple[str, int, float, str]


def load_runs(path: Path) -> Tuple[Dict[GroupKey, List[dict]], Dict[str, int]]:
    """Full-size untraced run records of one file (or ``DIR/runs.jsonl``)
    by group, in file order, and the count of records skipped by kind."""
    if path.is_dir():
        path = path / "runs.jsonl"
    runs: Dict[GroupKey, List[dict]] = {}
    skipped = {"traced": 0, "smoke": 0}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec.get("trace"):
                skipped["traced"] += 1
            elif rec.get("smoke"):
                skipped["smoke"] += 1
            else:
                key = (rec["workload"], rec["seed"], float(rec["seconds"]),
                       json.dumps(rec["params"], sort_keys=True))
                runs.setdefault(key, []).append(rec)
    return runs, skipped


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    """Judge B against A for one metric (``better`` is higher or lower)."""
    sign = 1.0 if better == "higher" else -1.0
    sa, sb = summary(a), summary(b)
    spread = sa["q3"] - sa["q1"]
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= 0.9 * len(pairs)
        and sign * (sb["median"] - sa["median"]) > spread
    ):
        return "better"
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    if spread > bound * abs(sa["median"]) and not all_better:
        return "unresolved"
    if sign * (sb["median"] - sa["median"]) < -bound * abs(sa["median"]):
        return "worse"
    return "same"


def failed_share(runs: List[dict]) -> float:
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def compare_group(spec: dict, runs_a: List[dict], runs_b: List[dict]) -> bool:
    """Print one group's verdicts; return True if any reads ``worse``."""
    more_failures = failed_share(runs_b) > failed_share(runs_a)
    worse = more_failures
    for m in spec["end_to_end"]:
        name = m["name"]
        a = [r["metrics"][name]["value"] for r in runs_a]
        b = [r["metrics"][name]["value"] for r in runs_b]
        sa, sb = summary(a), summary(b)
        v = verdict(a, b, m["better"], m["bound"])
        if v == "better" and more_failures:
            v = "unresolved"  # a gain does not count if more operations fail
        worse = worse or v == "worse"
        print(
            f"  {name:<16} A {sa['median']:.6g} [{sa['q1']:.6g}, {sa['q3']:.6g}]"
            f"  B {sb['median']:.6g} [{sb['q1']:.6g}, {sb['q3']:.6g}] {m['unit']}"
            f"  bound {m['bound']:.0%}  -> {v}"
        )
    fa, fb = (sum(r["failed"] for r in runs) for runs in (runs_a, runs_b))
    if fa or fb:
        print(f"  failed operations: A {fa} ({failed_share(runs_a):.2%}), "
              f"B {fb} ({failed_share(runs_b):.2%})"
              f"  -> {'worse' if more_failures else 'same'}")
    return worse


def main(spec: dict, path_a: Path, path_b: Path) -> int:
    (runs_a, skip_a), (runs_b, skip_b) = load_runs(path_a), load_runs(path_b)
    for label, skipped in (("A", skip_a), ("B", skip_b)):
        if any(skipped.values()):
            print(f"{label}: skipped {skipped['traced']} traced and "
                  f"{skipped['smoke']} smoke runs")
    worst = False
    for key in sorted(set(runs_a) & set(runs_b)):
        workload, seed, seconds, _ = key
        print(f"== {workload}, seed {seed}, {seconds:g} s: {len(runs_a[key])} runs "
              f"in A, {len(runs_b[key])} in B ==")
        worst = compare_group(spec, runs_a[key], runs_b[key]) or worst
    for key in sorted(set(runs_a) ^ set(runs_b)):
        workload, seed, seconds, _ = key
        side = "A" if key in runs_a else "B"
        print(f"== {workload}, seed {seed}, {seconds:g} s: runs in {side} only "
              f"(no run on the other side has this seed, length and parameters), "
              f"not compared ==")
    return 1 if worst else 0
