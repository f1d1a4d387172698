"""The three sweep workloads: figure panels through ``run_sweep``.

Each timed repeat is one call of the public
``repro.experiments.sweep.run_sweep(config, workers=2, instances=...)``
with every execution knob (batching, dedup, adaptive, backend,
environment) at its default -- what ``run_figure`` runs.

``repro`` is imported only inside functions: set-up time includes the
import, and the harness must not have paid it before timing set-up.
"""

from __future__ import annotations

import importlib
import json
import multiprocessing
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from . import checks
from .measure import (
    ROOT,
    SETUP_REPEATS,
    Outcome,
    child_env,
    counter_metrics,
    peak_rss_mb,
    percentile,
    summary,
)
from .speed import HostSpeed, scale
from .trace import Tracer, cell_counter_totals, counter_snapshot, load_spans, span_metrics

#: Timed repeats per untraced run, at least (more while time allows).
MIN_REPEATS = 3

#: ``run_sweep`` pool size: one worker per CPU of the 2-CPU reference host.
WORKERS = 2


@dataclass(frozen=True)
class SweepWorkload:
    """One figure panel run end to end through ``run_sweep``."""

    name: str
    operation: str
    n: int
    m: int
    orders: Tuple[int, int]
    error_axis: str
    instances: int
    shots: int
    trajectories: int
    method: str = "trajectory"
    #: The paper's QFM depth series instead of full depth only.
    paper_depths: bool = False
    #: Use only the first ``rate_count`` rates of the axis (0 = all).
    rate_count: int = 0
    max_fragment_qubits: int = 0
    #: How the panels' time follows the host's speed (``speed.scale``).
    speed_sensitivity: float = 1.0

    def params(self) -> Dict[str, object]:
        """Everything that sizes a run, for the run record."""
        return {**asdict(self), "workers": WORKERS}

    def config(self, seed: int):
        """The panel's ``SweepConfig``; its seed is the workload seed."""
        from repro.experiments.config import SweepConfig
        from repro.experiments.paper import qfa_depths_for, qfm_depths_for
        from repro.noise.ibm import P1Q_SWEEP, P2Q_SWEEP

        rates = P1Q_SWEEP if self.error_axis == "1q" else P2Q_SWEEP
        depths_for = qfa_depths_for if self.operation == "add" else qfm_depths_for
        return SweepConfig(
            operation=self.operation,
            n=self.n,
            m=self.m,
            orders=self.orders,
            error_axis=self.error_axis,
            error_rates=tuple(rates[: self.rate_count or None]),
            depths=depths_for(self.n) if self.paper_depths else (None,),
            instances=self.instances,
            shots=self.shots,
            trajectories=self.trajectories,
            seed=seed,
            method=self.method,
            max_fragment_qubits=self.max_fragment_qubits,
            label=self.name,
        )


def setup(wl: SweepWorkload, seed: int):
    """Import, generate the operands, and compile every cell's program
    in this process -- the work ``run_sweep`` does before dispatch.

    Cells are not executed here: each ``run_sweep`` forks fresh workers
    that build their own kernels, and a warm parent cache would hide
    that cost from the timed repeats.
    """
    t0 = time.perf_counter()
    from repro.experiments.instances import generate_instances
    from repro.experiments.runner import (
        build_arithmetic_circuit,
        build_compiled_program,
    )

    cfg = wl.config(seed)
    instances = generate_instances(
        cfg.operation, cfg.n, cfg.m, cfg.orders, cfg.instances, cfg.seed
    )
    for depth in cfg.depths:
        if cfg.method == "cut":
            build_arithmetic_circuit(cfg.operation, cfg.n, cfg.m, depth)
            continue
        for rate in cfg.error_rates:
            build_compiled_program(
                cfg.operation, cfg.n, cfg.m, depth, cfg.error_axis, rate,
                cfg.convention,
            )
    return cfg, instances, time.perf_counter() - t0


def _setup_in_subprocess(args: List[str]) -> float:
    """One cold set-up in a fresh interpreter; returns its seconds."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--setup-only", *args],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up subprocess failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _window(wl: SweepWorkload, cfg, instances, seconds: float, min_repeats: int,
            out: Outcome, first: Optional[dict], speed: Optional[HostSpeed] = None,
            between: Optional[Callable[[float], None]] = None):
    """Repeat ``run_sweep`` while the next repeat should end within
    ``seconds``, calling ``between(elapsed_s)`` between repeats.

    Returns the wall time of each repeat, the latencies of each repeat's
    cells (from the ``run_sweep`` call to the ``progress`` report of that
    cell's result, which is when ``python -m repro fig3 -v`` prints it),
    the points every repeat must equal (the first repeat's, unless
    ``first`` is given), and each repeat's ``speed.scale`` factor.

    With ``speed``, the host is probed after every repeat, with its pool
    workers reaped, and each repeat is scaled by the samples either side
    of it: ``speed``'s last sample must be from just before the call,
    and ``between``, if it does any work, must end with a sample.
    """
    # Looked up per repeat, so installing span wrappers takes effect.
    sweep_mod = importlib.import_module("repro.experiments.sweep")
    cells = len(cfg.error_rates) * len(cfg.depths)
    walls: List[float] = []
    latencies: List[List[float]] = []
    scales: List[float] = []
    done: List[float] = []

    def progress(message: str) -> None:
        if not message.startswith("[FAILED]"):
            done.append(time.perf_counter())

    start = time.perf_counter()
    while True:
        done.clear()
        t = time.perf_counter()
        result = sweep_mod.run_sweep(cfg, workers=WORKERS, instances=instances,
                                     progress=progress)
        walls.append(time.perf_counter() - t)
        if speed is not None:
            _reap_workers()
            before = speed.samples[-1]
            scales.append(scale(before, speed.sample(), wl.speed_sensitivity))
        if len(done) != len(result.points):
            raise RuntimeError(f"{wl.name}: {len(done)} progress reports for "
                               f"{len(result.points)} cells")
        latencies.append([d - t for d in done])
        out.attempted += cells
        if not result.complete:
            lost = [f"{wl.name}: {f}" for f in result.failures]
            out.fail(lost or [f"{wl.name}: sweep incomplete"], cells - len(result.points))
        if first is None:
            first = result.points
        else:
            diffs = checks.diff_points(first, result.points)
            out.fail([f"{wl.name}: {d}" for d in diffs], len(diffs))
        elapsed = time.perf_counter() - start
        if len(walls) >= min_repeats and elapsed + statistics.median(walls) > seconds:
            return walls, latencies, first, scales
        if between is not None:
            between(elapsed)


def _check(wl: SweepWorkload, cfg, instances, points, repeats: int,
           out: Outcome) -> None:
    """The reference-free checks on the points every repeat returned."""
    from repro.analysis.budget import predicted_no_error_probability
    from repro.experiments.runner import build_arithmetic_circuit, build_compiled_program

    circuit = build_arithmetic_circuit(cfg.operation, cfg.n, cfg.m, None)
    basis = cfg.orders == (1, 1)
    errors = checks.check_ideal_cells(points, single_outcome=basis)
    if basis and cfg.method == "trajectory":
        noisy = [rate for rate in cfg.error_rates if rate > 0.0]
        p0 = {
            rate: predicted_no_error_probability(
                circuit,
                rate if cfg.error_axis == "1q" else 0.0,
                rate if cfg.error_axis == "2q" else 0.0,
            )
            for rate in noisy
        }
        # The trajectory engine draws the clean shots independently
        # (Binomial(shots, P0)) on Pauli-only noise, and otherwise splits
        # the shots evenly over its trajectories.
        realisations = {
            rate: cfg.shots if build_compiled_program(
                cfg.operation, cfg.n, cfg.m, None, cfg.error_axis, rate,
                cfg.convention,
            ).pauli_only else min(cfg.trajectories, cfg.shots)
            for rate in noisy
        }
        errors += checks.check_noise_floor(points, p0, realisations)
    if cfg.method == "cut":
        from repro.cut import DEFAULT_MAX_FRAGMENT_QUBITS, CutConfig, cut_distribution

        cut_cfg = CutConfig(
            max_fragment_qubits=cfg.max_fragment_qubits or DEFAULT_MAX_FRAGMENT_QUBITS
        )
        for i, inst in enumerate(instances):
            dist = cut_distribution(
                circuit, None, config=cut_cfg, initial_state=inst.initial_statevector()
            )
            mass = sum(float(dist.probs[o]) for o in inst.correct_outcomes())
            if mass < 1.0 - 1e-10:
                errors.append(f"ideal cut distribution of instance {i}: "
                              f"correct mass {mass!r}")
    out.fail([f"{wl.name}: {e}" for e in errors], len(errors) * repeats)


def run(wl: SweepWorkload, seed: int, seconds: float, trace: bool,
        out_dir: Path, run_id: str, setup_args: List[str]) -> Outcome:
    """One benchmark run of a sweep workload."""
    out = Outcome()
    if trace:
        return _run_traced(wl, seed, seconds, out_dir, run_id, out)
    with HostSpeed() as speed:
        before = speed.sample()
        cfg, instances, own = setup(wl, seed)
        setups = [(own, scale(before, speed.sample()))]

        def cold_setup(elapsed: float) -> None:
            # The other set-ups run in fresh interpreters between panels,
            # spread over the window.
            if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * seconds / SETUP_REPEATS:
                setups.append(_cold_setup(speed, setup_args))

        walls, cell_s, points, scales = _window(
            wl, cfg, instances, seconds, MIN_REPEATS, out, None, speed, cold_setup
        )
        while len(setups) < SETUP_REPEATS:
            setups.append(_cold_setup(speed, setup_args))
        samples = list(speed.samples)
    _check(wl, cfg, instances, points, len(walls), out)
    cells = len(cfg.error_rates) * len(cfg.depths)
    rates = [cells / (w * s) for w, s in zip(walls, scales)]
    # Each panel's own percentiles, then the median over panels, as for
    # cells_per_s: one slow panel does not move them.
    p50 = [1e3 * s * percentile(panel, 0.5) for panel, s in zip(cell_s, scales)]
    p90 = [1e3 * s * percentile(panel, 0.9) for panel, s in zip(cell_s, scales)]
    setup_s = [t * s for t, s in setups]
    out.metrics = {
        "setup_s": statistics.median(setup_s),
        "cells_per_s": statistics.median(rates),
        "latency_p50_ms": statistics.median(p50),
        "latency_p90_ms": statistics.median(p90),
        "peak_rss_mb": peak_rss_mb(),
    }
    out.detail = {
        "setup_s": summary(setup_s),
        "cells_per_s": summary(rates),
        "latency_p50_ms": summary(p50),
        "latency_p90_ms": summary(p90),
        "cells_per_repeat": cells,
        # As measured, before scaling to the nominal host speed.
        "wall_setup_s": summary([t for t, _ in setups]),
        "wall_cells_per_s": summary([cells / w for w in walls]),
        "speed_probe_s": summary(samples),
    }
    return out


def _cold_setup(speed: HostSpeed, args: List[str]) -> Tuple[float, float]:
    """A set-up in a fresh interpreter: its seconds and scale factor."""
    before = speed.samples[-1]
    took = _setup_in_subprocess(args)
    return took, scale(before, speed.sample())


def _reap_workers() -> None:
    """Wait for the pool workers ``run_sweep`` terminated, so none
    outlives the run and their memory peak counts in ``peak_rss_mb``."""
    for proc in multiprocessing.active_children():
        proc.join(timeout=60)


def _run_traced(wl: SweepWorkload, seed: int, seconds: float, out_dir: Path,
                run_id: str, out: Outcome) -> Outcome:
    """Traced set-up, an untraced half for the overhead baseline, then a
    traced half that the per-layer numbers come from."""
    tracer = Tracer(out_dir, wl.name, run_id)
    tracer.install()
    cfg, instances, _ = setup(wl, seed)
    compiled = counter_snapshot()
    tracer.uninstall()
    plain, _, points, _ = _window(wl, cfg, instances, seconds / 2, 1, out, None)
    tracer.install()
    window_start = time.monotonic_ns()
    traced, _, _, _ = _window(wl, cfg, instances, seconds / 2, 1, out, points)
    tracer.uninstall()
    _check(wl, cfg, instances, points, len(plain) + len(traced), out)
    _reap_workers()

    ops = len(cfg.error_rates) * len(cfg.depths) * len(traced)
    spans = load_spans(out_dir, wl.name, run_id)
    # Cells run inside sweep.cell spans wherever they run, so the spans'
    # counter deltas cover all of the window's execution.
    counts = cell_counter_totals(spans, window_start)
    layer: Dict[str, float] = span_metrics(spans, window_start, ops, WORKERS)
    layer.update(counter_metrics(counts, compiled["lowerings"], compiled["binds"], ops))
    chunks = counts["batch_chunks"]
    layer["batch.occupancy_rows"] = counts["batch_chunk_rows"] / chunks if chunks else 0.0
    for name in ("service.http_overhead_ms_p50", "service.fusion_hit_rate",
                 "service.fusion_occupancy", "service.cache_hits",
                 "service.coalesced", "service.rejected", "harness.gen_late_ms_p90"):
        layer[name] = 0.0  # no service, no open-loop generator
    layer["harness.trace_overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0
    )
    out.metrics = layer
    out.detail = {"untraced_s": summary(plain), "traced_s": summary(traced),
                  "spans": len(spans)}
    return out
