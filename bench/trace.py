"""Spans recorded from outside the program, around the layers' public callables.

The program has no spans of its own yet, so the benchmark wraps the
callables at each layer boundary (``TARGETS``) and records one span per
call: name, layer, pid, thread, start/end on the system-wide monotonic
clock, the enclosing span (tracked with ``contextvars``, so it follows
asyncio tasks), and the workload / run / request id.

Wrappers are installed by replacing every reference to the original
callable in the loaded ``repro`` modules, so ``from x import f`` copies
are covered too.  Install them before ``run_sweep`` forks its pool and
the supervisor workers inherit them; ``bench/serve.py`` installs them in
the server process.  Spans stay in memory and are appended to
``<out>/trace/<workload>-<pid>.jsonl`` whenever a process's root span
closes -- pool workers are terminated, not shut down, so nothing may
wait for exit.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import statistics
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

_CURRENT: contextvars.ContextVar[Optional[dict]] = contextvars.ContextVar(
    "bench_span", default=None
)

#: (layer, span name, module, attribute) of every wrapped callable.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("core", "core.build", "repro.core.adders", "qfa_circuit"),
    ("core", "core.build", "repro.core.multipliers", "qfm_circuit"),
    ("transpile", "transpile", "repro.transpile.passes", "transpile"),
    ("program", "program.compile", "repro.sim.program", "compile_circuit"),
    ("engines", "engines.trajectory", "repro.sim.trajectories", "TrajectoryEngine.run"),
    ("engines", "engines.density", "repro.sim.density", "DensityMatrixEngine.run"),
    ("engines", "engines.statevector", "repro.sim.statevector", "StatevectorEngine.run"),
    ("batch", "batch.run", "repro.sim.batch", "FusedTrajectoryScheduler.run"),
    ("cut", "cut.search", "repro.cut.search", "find_cuts"),
    ("cut", "cut.fragment_eval", "repro.cut.fragments", "run_value_job"),
    ("cut", "cut.fragment_eval", "repro.cut.fragments", "run_variant_job"),
    ("cut", "cut.reconstruct", "repro.cut.reconstruct", "assemble_register_terms"),
    ("cut", "cut.reconstruct", "repro.cut.reconstruct", "fragment_quasi_tensor"),
    ("cut", "cut.reconstruct", "repro.cut.reconstruct", "contract_wire_plan"),
    ("metrics", "metrics.evaluate", "repro.metrics.success", "evaluate_instance"),
    ("sweep", "sweep.run", "repro.experiments.sweep", "run_sweep"),
    ("sweep", "sweep.cell", "repro.experiments.runner", "run_point"),
    ("service", "service.submit", "repro.service.scheduler", "JobScheduler.submit"),
    ("service", "service.execute", "repro.service.executor", "SimulationExecutor.run"),
    ("service", "service.execute_batch", "repro.service.executor", "SimulationExecutor.run_batch"),
    ("service", "service.fusion_enqueue", "repro.service.fusion", "FusionGate.enqueue"),
    ("lint", "lint.gate", "repro.service.executor", "lint_gate"),
)

#: Packages imported before wrapping, so their ``from x import f``
#: copies exist to be replaced (and restored by ``uninstall``).
_PRELOAD = (
    "repro.experiments",
    "repro.experiments.sweep",
    "repro.cut",
    "repro.service",
    "repro.service.server",
)

#: Per-cell counters read inside each ``sweep.cell`` span (pool workers
#: die with their process-local counters, so the span carries them out).
CELL_COUNTERS = (
    "kernel_hits", "kernel_misses", "kernel_evictions",
    "batch_tasks", "batch_rows", "batch_sampled", "batch_chunks",
    "batch_chunk_rows",
    "cut_fragments_compiled", "cut_variants_evaluated",
    "cut_jobs_local", "cut_jobs_pool",
)


def counter_snapshot() -> Dict[str, float]:
    """The process's own layer counters, flattened to one dict."""
    from repro.cut import cut_stats
    from repro.sim.batch import scheduler_stats
    from repro.sim.program import compile_cache_stats, kernel_cache_stats

    kernels = kernel_cache_stats()
    sched = scheduler_stats()
    cut = cut_stats()
    compiled = compile_cache_stats().as_dict()
    return {
        "kernel_hits": kernels["hits"],
        "kernel_misses": kernels["misses"],
        "kernel_evictions": kernels["evictions"],
        "kernel_bytes": kernels["total_bytes"],
        "lowerings": compiled["lowerings"],
        "binds": compiled["binds"],
        "batch_tasks": sched["tasks"],
        "batch_rows": sched["rows_simulated"],
        "batch_sampled": sched["trajectories_sampled"],
        "batch_chunks": sched["chunks"],
        "batch_chunk_rows": sched["batch_occupancy"] * sched["chunks"],
        "cut_fragments_compiled": cut["fragments_compiled"],
        "cut_variants_evaluated": cut["variants_evaluated"],
        "cut_jobs_local": cut["jobs_local"],
        "cut_jobs_pool": cut["jobs_pool"],
    }


def _request_attrs(args: tuple) -> Dict[str, Any]:
    """Request id(s) of a service call: the content key of its request."""
    for arg in args:
        if hasattr(arg, "content_key"):
            return {"rid": arg.content_key()}
        if isinstance(arg, list) and arg and hasattr(arg[0], "content_key"):
            return {"rids": [r.content_key() for r in arg]}
    return {}


def _cell_attrs(args: tuple) -> Dict[str, Any]:
    # run_point(config, instances, error_rate, depth, ...)
    return {"rid": f"{args[2]}/{args[3]}"} if len(args) >= 4 else {}


def _batch_attrs(args: tuple) -> Dict[str, Any]:
    # FusedTrajectoryScheduler.run(self, tasks)
    return {"tasks": len(args[1])} if len(args) >= 2 else {}


def _attrs_for(layer: str, name: str) -> Optional[Callable[[tuple], Dict[str, Any]]]:
    if name == "sweep.cell":
        return _cell_attrs
    if name == "batch.run":
        return _batch_attrs
    if layer in ("service", "lint"):
        return _request_attrs
    return None


class Tracer:
    """Span recorder for one benchmark run; one per process."""

    def __init__(self, out_dir: Path, workload: str, run_id: str) -> None:
        self.trace_dir = Path(out_dir) / "trace"
        self.workload = workload
        self.run_id = run_id
        self._lock = threading.Lock()
        self._spans: List[dict] = []
        self._seq = itertools.count()
        self._pid = os.getpid()
        self._patches: List[Tuple[Any, str, Any]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # A forked worker starts with an empty buffer of its own.
        self._lock = threading.Lock()
        self._spans = []
        self._pid = os.getpid()

    # -- recording ------------------------------------------------------
    def _open(self, name: str, layer: str, attrs: Dict[str, Any]):
        parent = _CURRENT.get()
        span = {
            "name": name,
            "layer": layer,
            "pid": self._pid,
            "tid": threading.get_ident(),
            "id": f"{self._pid}-{next(self._seq)}",
            "parent": parent["id"] if parent else None,
            "workload": self.workload,
            "run": self.run_id,
            **attrs,
            "start_ns": time.monotonic_ns(),
        }
        root = parent is None or parent["pid"] != self._pid
        return span, root, _CURRENT.set(span)

    def _close(self, span: dict, root: bool, token) -> None:
        span["end_ns"] = time.monotonic_ns()
        _CURRENT.reset(token)
        with self._lock:
            self._spans.append(span)
            if not root:
                return
            batch, self._spans = self._spans, []
            self.trace_dir.mkdir(parents=True, exist_ok=True)
            path = self.trace_dir / f"{self.workload}-{self._pid}.jsonl"
            with open(path, "a") as fh:
                fh.write("".join(json.dumps(s) + "\n" for s in batch))

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        attrs: Optional[Callable[[tuple], Dict[str, Any]]] = None,
        counters: bool = False,
    ) -> Callable:
        """``fn`` recording one span per call."""
        tracer = self

        def begin(args: tuple):
            extra = attrs(args) if attrs else {}
            if counters:
                extra["counters_before"] = _cell_counters()
            return tracer._open(name, layer, extra)

        def end(span: dict, root: bool, token) -> None:
            if counters:
                before = span.pop("counters_before")
                after = _cell_counters()
                span["counters"] = {k: after[k] - before[k] for k in after}
                span["kernel_bytes"] = counter_snapshot()["kernel_bytes"]
            tracer._close(span, root, token)

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                span, root, token = begin(args)
                span["async"] = True
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end(span, root, token)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, root, token = begin(args)
            try:
                return fn(*args, **kwargs)
            finally:
                end(span, root, token)

        return wrapper

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Wrap every target in this process (idempotent per tracer)."""
        if self._patches:
            return
        import sys

        for mod in _PRELOAD:
            importlib.import_module(mod)
        for layer, name, module, attr in TARGETS:
            mod = importlib.import_module(module)
            owner_name, _, meth = attr.rpartition(".")
            attrs = _attrs_for(layer, name)
            if owner_name:
                owner = getattr(mod, owner_name)
                orig = owner.__dict__[meth]
                wrapped = self.wrap(orig, name, layer, attrs)
                self._patches.append((owner, meth, orig))
                setattr(owner, meth, wrapped)
                continue
            orig = getattr(mod, attr)
            wrapped = self.wrap(
                orig, name, layer, attrs, counters=name == "sweep.cell"
            )
            for loaded in list(sys.modules.values()):
                loaded_name = getattr(loaded, "__name__", "")
                if not (loaded_name == "repro" or loaded_name.startswith("repro.")):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is orig:
                        self._patches.append((loaded, key, orig))
                        setattr(loaded, key, wrapped)

    def uninstall(self) -> None:
        """Restore every wrapped callable."""
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches = []


def _cell_counters() -> Dict[str, float]:
    snap = counter_snapshot()
    return {k: snap[k] for k in CELL_COUNTERS}


# ----------------------------------------------------------------------
# Reading traces back
# ----------------------------------------------------------------------
def load_spans(out_dir: Path, workload: str, run_id: str) -> List[dict]:
    """Every span of one run, across all of its processes."""
    spans: List[dict] = []
    for path in sorted((Path(out_dir) / "trace").glob(f"{workload}-*.jsonl")):
        with open(path) as fh:
            for line in fh:
                span = json.loads(line)
                if span["run"] == run_id:
                    spans.append(span)
    return spans


def _union_ns(intervals: Iterable[Tuple[int, int]]) -> int:
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Span id -> seconds of its duration not covered by child spans.

    Children in other processes (pool workers under ``sweep.run``)
    count too: their interval union is clipped to the parent's.
    """
    children: Dict[str, List[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        start, end = span["start_ns"], span["end_ns"]
        covered = _union_ns(
            (max(c["start_ns"], start), min(c["end_ns"], end))
            for c in children.get(span["id"], ())
            if c["end_ns"] > start and c["start_ns"] < end
        )
        out[span["id"]] = (end - start - covered) / 1e9
    return out


def _p50(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def span_metrics(
    spans: List[dict], window_start_ns: int, ops: int, workers: int
) -> Dict[str, float]:
    """Per-layer numbers the spans give.

    Spans that end before ``window_start_ns`` belong to the traced
    set-up and feed the set-up layers as totals; the rest are divided by
    ``ops``, the operations (sweep cells or service requests) completed
    in the traced window.
    """
    selfs = self_times(spans)
    setup = [s for s in spans if s["end_ns"] <= window_start_ns]
    window = [s for s in spans if s["end_ns"] > window_start_ns]
    per_op = 1.0 / max(1, ops)

    def of(group: List[dict], *names: str) -> List[dict]:
        return [s for s in group if s["name"] in names]

    def self_sum(group: List[dict]) -> float:
        return sum((selfs[s["id"]] for s in group), 0.0)

    def dur(s: dict) -> float:
        return (s["end_ns"] - s["start_ns"]) / 1e9

    out: Dict[str, float] = {}
    for key, names in (
        ("core.build", ("core.build",)),
        ("transpile", ("transpile",)),
        ("program.compile", ("program.compile",)),
    ):
        group = of(setup, *names)
        prefix = "transpile." if key == "transpile" else key + "_"
        out[prefix + "calls"] = float(len(group))
        out[prefix + "s"] = self_sum(group)

    engines = [s for s in window if s["layer"] == "engines"]
    out["engines.calls"] = len(engines) * per_op
    out["engines.self_s"] = self_sum(engines) * per_op
    for kind in ("trajectory", "density", "statevector"):
        out[f"engines.{kind}_s"] = (
            self_sum(of(window, f"engines.{kind}")) * per_op
        )
    batches = of(window, "batch.run")
    out["batch.calls"] = len(batches) * per_op
    out["batch.self_s"] = self_sum(batches) * per_op
    for part in ("search", "fragment_eval", "reconstruct"):
        out[f"cut.{part}_s"] = self_sum(of(window, f"cut.{part}")) * per_op
    out["metrics.evaluate_s"] = self_sum(of(window, "metrics.evaluate")) * per_op

    # Sweep dispatch: cells run in pool workers under each sweep.run.
    runs = of(window, "sweep.run")
    cells = [
        s for s in of(window, "sweep.cell")
        if any(r["start_ns"] <= s["start_ns"] <= r["end_ns"] for r in runs)
    ]
    cell_s = [dur(s) for s in cells]
    out["sweep.cell_s_p50"] = _p50(cell_s)
    out["sweep.cell_s_max"] = max(cell_s, default=0.0)
    run_wall = sum(dur(r) for r in runs)
    out["sweep.worker_busy_frac"] = (
        sum(cell_s) / (workers * run_wall) if run_wall else 0.0
    )
    dispatch = []
    for r in runs:
        busy: Dict[int, float] = {}
        for s in cells:
            if r["start_ns"] <= s["start_ns"] <= r["end_ns"]:
                busy[s["pid"]] = busy.get(s["pid"], 0.0) + dur(s)
        dispatch.append(dur(r) - max(busy.values(), default=0.0))
    out["sweep.dispatch_s"] = statistics.fmean(dispatch) if dispatch else 0.0
    distinct = {(s["rid"], r["id"]) for r in runs for s in cells
                if r["start_ns"] <= s["start_ns"] <= r["end_ns"]}
    out["sweep.retries"] = float(len(cells) - len(distinct))

    # Service: queue wait and fusion wait pair spans by request id.
    submitted: Dict[str, int] = {}
    for s in of(window, "service.submit"):
        submitted.setdefault(s["rid"], s["start_ns"])
    enqueued: Dict[str, int] = {}
    for s in of(window, "service.fusion_enqueue"):
        enqueued.setdefault(s["rid"], s["start_ns"])
    executes = of(window, "service.execute")
    out["service.queue_wait_ms_p50"] = _p50([
        (s["start_ns"] - submitted[s["rid"]]) / 1e6
        for s in executes if s["rid"] in submitted
    ])
    out["service.execute_ms_p50"] = _p50([dur(s) * 1e3 for s in executes])
    out["service.fusion_wait_ms_p50"] = _p50([
        (s["start_ns"] - enqueued[rid]) / 1e6
        for s in of(window, "service.execute_batch")
        for rid in s.get("rids", ())
        if rid in enqueued
    ])
    out["lint.gate_ms_p50"] = _p50([dur(s) * 1e3 for s in of(window, "lint.gate")])
    return out


def cell_counter_totals(spans: List[dict], window_start_ns: int) -> Dict[str, float]:
    """Sum of the per-cell counter deltas over the traced window, plus
    the largest kernel-cache size any cell left behind."""
    totals = {k: 0.0 for k in CELL_COUNTERS}
    kernel_bytes = 0.0
    for s in spans:
        if s["name"] != "sweep.cell" or s["end_ns"] <= window_start_ns:
            continue
        for k, v in s["counters"].items():
            totals[k] += v
        kernel_bytes = max(kernel_bytes, s["kernel_bytes"])
    totals["kernel_bytes"] = kernel_bytes
    return totals
