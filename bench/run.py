"""Run the benchmark, or compare two sets of its runs.

    python3 bench/run.py [--workload W]... [--seed S] [--seconds T]
                         [--trace 0|1] [--out DIR] [--smoke]
    python3 bench/run.py --compare A.jsonl B.jsonl

Each workload sets up (``setup_s`` is the median of several cold
set-ups), then measures for ``--seconds``, checks every output, and
prints each metric by name with its unit.  ``--trace 1`` is a separate
run that prints the per-layer metrics instead (see ``bench/trace.py``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; every run is also appended
to ``DIR/runs.jsonl`` for ``--compare``.  The exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench import compare, service_mix, sweeps  # noqa: E402
from bench.workloads import SMOKE, WORKLOADS  # noqa: E402

SPEC_PATH = ROOT / "BENCHMARK.json"
DEFAULT_OUT = ROOT / ".bench_out"
SMOKE_SECONDS = 2.0


def host_facts() -> Dict[str, Any]:
    """The facts a number needs to be read on another machine."""
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = ""
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def parse_args(argv=None) -> argparse.Namespace:
    spec = json.loads(SPEC_PATH.read_text())
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="workload to run (repeatable; default: all four)",
    )
    parser.add_argument("--seed", type=int, default=1,
                        help="seed every input is generated from (default 1)")
    parser.add_argument(
        "--seconds", type=float, default=None,
        help=f"measured seconds per workload (default {spec['run_seconds']}, "
        f"{SMOKE_SECONDS:g} with --smoke)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: traced run printing per-layer metrics",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="directory for runs.jsonl, traces and server logs")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes of every workload, for tests")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare the runs in two runs.jsonl files")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(spec["run_seconds"])
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    args.workload = args.workload or list(WORKLOADS)
    args.spec = spec
    return args


def run_workload(name: str, args: argparse.Namespace):
    table = SMOKE if args.smoke else WORKLOADS
    wl = table[name]
    run_id = f"{name}-{args.seed}-{os.getpid()}-{time.time_ns()}"
    if isinstance(wl, sweeps.SweepWorkload):
        setup_args = ["--workload", name, "--seed", str(args.seed)]
        if args.smoke:
            setup_args.append("--smoke")
        return sweeps.run(wl, args.seed, args.seconds, bool(args.trace),
                          args.out, run_id, setup_args)
    return service_mix.run(wl, args.seed, args.seconds, bool(args.trace),
                           args.out, run_id)


def report(name: str, outcome, declared: List[dict], args) -> Dict[str, Any]:
    """Print one workload's metrics; return its run record."""
    produced = set(outcome.metrics)
    wanted = {m["name"] for m in declared}
    if produced != wanted:
        raise RuntimeError(
            f"{name}: metrics {sorted(produced ^ wanted)} differ from BENCHMARK.json"
        )
    mode = "traced" if args.trace else "untraced"
    print(f"== {name}: seed {args.seed}, {args.seconds:g} s, {mode}"
          f"{', smoke' if args.smoke else ''} ==")
    for m in declared:
        value = outcome.metrics[m["name"]]
        line = f"  {m['name']:<32} {value:>14.6g} {m['unit']}"
        spread = outcome.detail.get(m["name"])
        if isinstance(spread, dict):
            line += (f"   (median of {spread['n']}; q1 {spread['q1']:.6g},"
                     f" q3 {spread['q3']:.6g})")
        print(line)
    for key, value in outcome.detail.items():
        if key not in wanted:
            print(f"  [{key}] {value}")
    print(f"  attempted {outcome.attempted}, failed {outcome.failed}")
    for err in outcome.errors[:20]:
        print(f"  CHECK FAILED: {err}")
    return {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "params": (SMOKE if args.smoke else WORKLOADS)[name].params(),
        "host": host_facts(),
        "correct": not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": outcome.metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
        "detail": outcome.detail,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare.main(args.spec, *args.compare)
    if args.setup_only:
        table = SMOKE if args.smoke else WORKLOADS
        _, _, took = sweeps.setup(table[args.workload[0]], args.seed)
        print(json.dumps({"setup_s": took}))
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program to measure ({ROOT / 'src' / 'repro'} is missing)",
              file=sys.stderr)
        return 2

    if len(args.workload) > 1:
        return run_each(args)
    name = args.workload[0]
    declared = args.spec["per_layer" if args.trace else "end_to_end"]
    args.out.mkdir(parents=True, exist_ok=True)
    if args.trace:
        # Span files of earlier traced runs of this workload are stale.
        for path in (args.out / "trace").glob(f"{name}-*.jsonl"):
            path.unlink()
    print(f"host: {json.dumps(host_facts())}", flush=True)
    record = report(name, run_workload(name, args), declared, args)
    with open(args.out / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


def run_each(args: argparse.Namespace) -> int:
    """Run every workload in a fresh process of its own, so no workload
    inherits another's warm caches or memory peak."""
    results = {}
    for name in args.workload:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(args.out)]
        if args.smoke:
            cmd.append("--smoke")
        last = ""
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            for line in proc.stdout:
                print(line, end="", flush=True)
                last = line
        result = json.loads(last) if last.startswith("{") else None
        if result is None or proc.returncode not in (0, 1):
            raise RuntimeError(f"{name}: the benchmark exited with {proc.returncode}")
        results[name] = result
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
