"""Trajectory scheduling for service requests: dedup, clean-prefix sharing.

Every noisy trajectory request the service runs goes through this
module, one request per scheduler pass.

At the paper's sparse noise most sampled trajectories are the clean one
or repeat a one-error configuration, and every erred trajectory shares
the clean prefix up to its first fire.  This module turns both
observations into wall-clock:

* **Error-configuration dedup** — each trajectory's full Pauli insertion
  pattern is sampled up front and canonicalised to a tuple of
  ``(site ordinal, label)`` events; only *distinct* configurations are
  simulated, and every trajectory samples its shots from its
  configuration's (shared) output distribution.  This generalises the
  clean/erred split of :class:`~repro.sim.trajectories.TrajectoryEngine`
  to all configurations and is **exact**: identical configurations
  produce bit-identical states, so merging them changes nothing but the
  amount of simulation work.
* **Clean-prefix sharing** — an erred row starts from a copy of the
  clean reference row at the segment of its first fire, so prefix gate
  work is paid once per chunk instead of once per row.

A task's distinct rows are evolved in chunks of at most
:data:`BATCH_BYTES` of live state, so a 65,536-trajectory, 16-qubit
request never holds all of its rows at once.

Sweeps do not use this module: every sweep cell runs through
:func:`repro.experiments.runner.run_point` and the per-cell
:class:`~repro.sim.trajectories.TrajectoryEngine` stream, which is
faster and leaner at the sweeps' 16-trajectory budgets (see
``docs/simulation.md``).

Determinism contract (pinned by ``tests/test_batch_scheduler.py``): all
random draws happen per task in a fixed order — configuration sampling
first (clean-shot binomial, first-fire sites, fire matrix, label draws
per site), then outcome sampling (shot spreading, one multinomial per
trajectory row, readout flips) — and per-row state arithmetic never
depends on which other rows share a buffer (firing rows advance through
kernel-cached *partial* monomials split at their own fire positions
only).  Consequently the other tasks of a call, the reference
``dedup=False`` mode and chunk geometry are bit-invisible.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..runtime import obs, sanitizer
from ..runtime.health import check_norms, norm_tolerance
from .backend import resolve_complex_dtype
from .ops import BitCache, apply_pauli_string_rows, probabilities
from .program import CompiledProgram, _mono_apply_rows
from .result import Counts
from .statevector import zero_state
from .trajectories import apply_readout, multinomial_outcomes, sample_outcomes

#: Live-state byte bound of one simulation chunk (state, scratch and
#: float64 probabilities of every row in it).
BATCH_BYTES = 256 * 1024 * 1024

__all__ = [
    "TrajectoryTask",
    "TaskResult",
    "FusedTrajectoryScheduler",
    "run_request_tasks",
    "scheduler_stats",
    "reset_scheduler_stats",
]


# ---------------------------------------------------------------------------
# Process-wide stats (service /metrics gauges)
# ---------------------------------------------------------------------------

def scheduler_stats() -> Dict[str, float]:
    """Process-wide scheduler counters (feeds the service gauges)."""
    c = obs.snapshot("batch.").get((), {})
    tasks = c.get("tasks", 0)
    sampled = c.get("trajectories_sampled", 0)
    simulated = c.get("rows_simulated", 0)
    chunks = c.get("chunks", 0)
    return {
        "tasks": tasks,
        "trajectories_sampled": sampled,
        "rows_simulated": simulated,
        "chunks": chunks,
        "dedup_ratio": sampled / simulated if simulated else 1.0,
        "batch_occupancy": (
            c.get("chunk_rows", 0) / chunks if chunks else 0.0
        ),
    }


def reset_scheduler_stats() -> None:
    obs.reset("batch.")


# ---------------------------------------------------------------------------
# Task / result records
# ---------------------------------------------------------------------------

class TrajectoryTask:
    """One unit of trajectory work: a (program, instance, budget) triple.

    ``rng`` is consumed exclusively by this task, in a fixed draw order,
    so a task's result is independent of the other tasks of a call.
    """

    __slots__ = (
        "key", "program", "shots", "trajectories", "rng", "initial_state",
    )

    def __init__(
        self,
        key,
        program: CompiledProgram,
        shots: int,
        trajectories: int,
        rng: np.random.Generator,
        initial_state: Optional[np.ndarray] = None,
    ) -> None:
        if shots < 1:
            raise ValueError(f"shots must be >= 1, got {shots}")
        if trajectories < 1:
            raise ValueError(
                f"trajectories must be >= 1, got {trajectories}"
            )
        if not program.pauli_only:
            raise ValueError(
                "batched scheduling requires a Pauli-only program "
                "(no Kraus channels, no mid-circuit reset)"
            )
        self.key = key
        self.program = program
        self.shots = int(shots)
        self.trajectories = int(trajectories)
        self.rng = rng
        self.initial_state = initial_state


class TaskResult:
    """The sampled counts of one task."""

    __slots__ = ("counts",)

    def __init__(self, counts: Counts) -> None:
        self.counts = counts


# ---------------------------------------------------------------------------
# Per-task plan
# ---------------------------------------------------------------------------

class _TaskPlan:
    """One task's sampled configurations, distributions and outcomes."""

    __slots__ = (
        "task", "n_clean", "n_err", "B", "rows", "row_of_traj", "probs",
        "outcomes", "trajectories_sampled", "rows_simulated",
    )

    def __init__(self, task: TrajectoryTask) -> None:
        self.task = task
        self.n_clean = 0
        self.n_err = 0
        self.B = 0
        #: distinct rows to simulate: ``None`` is the clean row,
        #: otherwise a tuple of (ordinal, qubits, label) events.
        self.rows: List[Optional[tuple]] = []
        #: trajectory index -> index into ``rows``.
        self.row_of_traj: List[int] = []
        self.probs: Optional[np.ndarray] = None
        self.outcomes: Optional[np.ndarray] = None
        self.trajectories_sampled = 0
        self.rows_simulated = 0

    def result(self) -> TaskResult:
        outcomes = (
            self.outcomes
            if self.outcomes is not None
            else np.empty(0, dtype=int)
        )
        return TaskResult(
            Counts.from_outcome_list(outcomes, self.task.program.num_qubits)
        )


# ---------------------------------------------------------------------------
# The scheduler
# ---------------------------------------------------------------------------

class FusedTrajectoryScheduler:
    """Executes :class:`TrajectoryTask`\\ s one at a time, with dedup.

    Parameters
    ----------
    dedup:
        Simulate each distinct error configuration once per task.
        ``False`` simulates every trajectory row; it is the reference
        the bit-invariance tests compare against.
    """

    def __init__(self, dedup: bool = True, dtype=None) -> None:
        self.dedup = bool(dedup)
        self.dtype = resolve_complex_dtype(dtype)
        self._bits = BitCache()
        self._chunks_run = 0
        self._chunk_rows_run = 0

    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[TrajectoryTask]) -> Dict[object, TaskResult]:
        """Execute every task alone, in input order; returns
        ``{task.key: TaskResult}``.

        Each task samples, simulates and draws its outcomes in its own
        buffers before the next one starts, so a task's result does not
        depend on the other tasks of the call.
        """
        self._chunks_run = 0
        self._chunk_rows_run = 0
        results: Dict[object, TaskResult] = {}
        sampled = simulated = 0
        for task in tasks:
            plan = _TaskPlan(task)
            self._sample_configs(plan)
            self._simulate(plan)
            self._sample_outcomes(plan)
            results[task.key] = plan.result()
            sampled += plan.trajectories_sampled
            simulated += plan.rows_simulated
        obs.add({
            "batch.tasks": len(tasks),
            "batch.trajectories_sampled": sampled,
            "batch.rows_simulated": simulated,
            "batch.chunks": self._chunks_run,
            "batch.chunk_rows": self._chunk_rows_run,
        })
        return results

    # ------------------------------------------------------------------
    # Phase A: configuration sampling (all of a task's "which errors
    # fire where" randomness, drawn in one fixed order)
    # ------------------------------------------------------------------
    def _sample_configs(self, plan: _TaskPlan) -> None:
        task = plan.task
        rng = task.rng
        shots = task.shots
        sites = task.program.pauli_sites()
        es = np.array([op.e for _, op in sites])
        one_minus = 1.0 - es
        prefix_clean = np.ones(es.size)
        if es.size > 1:
            prefix_clean[1:] = np.cumprod(one_minus[:-1])
        p0 = float(np.prod(one_minus)) if es.size else 1.0

        n_clean = int(rng.binomial(shots, p0))
        n_err = shots - n_clean
        B = min(task.trajectories, n_err) if n_err else 0
        plan.n_clean, plan.n_err, plan.B = n_clean, n_err, B

        if n_clean:
            plan.rows.append(None)
        if not B:
            return

        # First fire per trajectory: P(first = s) ∝ prefix_clean[s]*e_s,
        # then independent fires at every later site — the same exact
        # law as TrajectoryEngine's forking split.
        pfirst = prefix_clean * es
        pfirst = pfirst / pfirst.sum()
        first = rng.choice(es.size, size=B, p=pfirst)
        u = rng.random((B, es.size))
        fires = u < es[None, :]
        site_idx = np.arange(es.size)[None, :]
        fires &= site_idx > first[:, None]
        fires[np.arange(B), first] = True

        # Label draws: one conditioned-choice batch per site, in site
        # order, covering that site's firing trajectories in row order.
        labels_of = [[] for _ in range(B)]
        for s, (_, op) in enumerate(sites):
            rows_f = np.flatnonzero(fires[:, s])
            if rows_f.size == 0:
                continue
            draws = rng.choice(len(op.labels), size=rows_f.size, p=op.cond)
            for b, idx in zip(rows_f, draws):
                labels_of[b].append((s, op.qubits, op.labels[idx]))
        configs = [tuple(ev) for ev in labels_of]

        if self.dedup:
            index: Dict[tuple, int] = {}
            for cfg in configs:
                row = index.get(cfg)
                if row is None:
                    index[cfg] = len(plan.rows)
                    plan.rows.append(cfg)
                    plan.row_of_traj.append(index[cfg])
                else:
                    plan.row_of_traj.append(row)
        else:
            for cfg in configs:
                plan.row_of_traj.append(len(plan.rows))
                plan.rows.append(cfg)
        plan.trajectories_sampled = B
        plan.rows_simulated = sum(1 for r in plan.rows if r is not None)

    # ------------------------------------------------------------------
    # Phase B: chunked simulation of the distinct rows
    # ------------------------------------------------------------------
    def _simulate(self, plan: _TaskPlan) -> None:
        n = plan.task.program.num_qubits
        # state + scratch + float64 probabilities live at once
        per_row = (1 << n) * np.dtype(self.dtype).itemsize * 3
        cap = max(1, BATCH_BYTES // per_row)
        plan.probs = np.empty((len(plan.rows), 1 << n))
        # In-order chunking; the per-row arithmetic is chunk-invariant.
        for lo in range(0, len(plan.rows), cap):
            rows = list(range(lo, min(lo + cap, len(plan.rows))))
            self._simulate_chunk(plan, rows, n)
            self._chunks_run += 1
            self._chunk_rows_run += len(rows)

    def _simulate_chunk(self, plan: _TaskPlan, rows: List[int], n: int) -> None:
        """Evolve one chunk of a task's rows with clean-prefix sharing.

        The chunk carries one clean **reference** row in buffer row 0 —
        the task's clean row when it rides this chunk, a synthetic
        extra row otherwise — and every erred row stays *dead* until
        the segment holding its first fire, at which point it copies
        the reference and walks piecewise from there.  Because every
        kernel involved (boundary gate, full/partial monomial, Pauli
        scatter) is row-local, the inherited prefix is bit-identical to
        the row having idled through those segments itself — the
        determinism contract is untouched while prefix gate work is
        paid once per chunk instead of once per row.  Sorting the rows
        by first-fire ordinal keeps the live rows a contiguous prefix,
        so boundary unitaries apply to views, never to rows that have
        not started.
        """
        dim = 1 << n
        empty = [r for r in rows if not plan.rows[r]]
        eventful = sorted(
            (r for r in rows if plan.rows[r]),
            key=lambda r: plan.rows[r][0][0],
        )
        ref = empty[0] if empty else None
        height = 1 + len(eventful)

        buf = np.empty((height, dim), dtype=self.dtype)
        init = plan.task.initial_state
        if init is None:
            buf[0] = zero_state(n, 1, self.dtype)[0]
        else:
            vec = np.asarray(init, dtype=self.dtype).reshape(-1)
            if vec.shape[0] != dim:
                raise ValueError("initial state has wrong dimension")
            buf[0] = vec
        events: List[tuple] = [()] + [plan.rows[r] for r in eventful]
        cursor = [0] * height
        live = 0  # activated erred rows
        row_scratch = np.empty(dim, dtype=self.dtype)
        ordinal_base = 0
        for tag, item in plan.task.program.exec_stream():
            if tag == "op":
                # Boundary unitaries (dense gates) apply to the live
                # prefix; Pauli-only programs have no other boundaries.
                # Dead rows inherit the op through their later
                # reference-row copy.
                item.apply(buf[:1 + live], n)
                continue
            seg = item
            n_elems = len(seg.elems)
            hi = ordinal_base + len(seg.sites)
            # elem position of each ordinal inside this segment
            pos_of = {
                ordinal: elem_pos
                for elem_pos, _op, ordinal in seg.sites
            }
            # Rows whose first fire lands here copy the reference
            # (still at segment start) and join the walk.
            while live < len(eventful) and events[1 + live][0][0] < hi:
                buf[1 + live] = buf[0]
                live += 1
            idle = [0]  # the reference row never fires
            for i in range(1, 1 + live):
                evs = events[i]
                c = cursor[i]
                if c >= len(evs) or evs[c][0] >= hi:
                    idle.append(i)
                    continue
                # Walk this row alone, splitting at its own fires only:
                # the composed pieces depend on nothing but the row's
                # configuration, which keeps dedup and chunking
                # bit-invisible.
                pos = 0
                while c < len(evs) and evs[c][0] < hi:
                    ordinal, qubits, label = evs[c]
                    p = pos_of[ordinal]
                    if p > pos:
                        _mono_apply_rows(
                            buf, (i,),
                            seg.partial(n, pos, p, buf.dtype),
                            row_scratch,
                        )
                        pos = p
                    apply_pauli_string_rows(
                        buf, label, qubits, np.array([i]), n, self._bits,
                    )
                    c += 1
                cursor[i] = c
                if pos < n_elems:
                    _mono_apply_rows(
                        buf, (i,),
                        seg.partial(n, pos, n_elems, buf.dtype),
                        row_scratch,
                    )
            if n_elems:
                _mono_apply_rows(
                    buf, idle, seg.full(n, buf.dtype), row_scratch
                )
            ordinal_base = hi
        check_norms(
            buf, "batched trajectory scheduler",
            atol=norm_tolerance(self.dtype),
        )
        p = probabilities(buf)
        if ref is not None:
            plan.probs[ref] = p[0]
        for j, r in enumerate(eventful):
            plan.probs[r] = p[1 + j]
        if sanitizer.enabled():
            # Geometry-tagged (chunk height varies with BATCH_BYTES and
            # the row count), so this stage is excluded from cross-path
            # comparison; it localises a divergence to the first
            # differing evolution when the portable stages split.
            sanitizer.record(
                "chunk",
                {"height": height, "probs": p},
                key=repr(plan.task.key),
            )

    # ------------------------------------------------------------------
    # Phase C: outcome sampling (per task, fixed draw order)
    # ------------------------------------------------------------------
    def _sample_outcomes(self, plan: _TaskPlan) -> None:
        task = plan.task
        rng = task.rng
        outs: List[np.ndarray] = []
        if plan.n_clean:
            outs.append(multinomial_outcomes(rng, plan.probs[0], plan.n_clean))
        if plan.B:
            # ``row_of_traj`` already accounts for the clean row.
            outs.append(sample_outcomes(
                rng, plan.probs, plan.n_err, plan.row_of_traj
            ))
            plan.probs = None  # free the task's distributions
        outcomes = (
            np.concatenate(outs) if outs else np.empty(0, dtype=int)
        )
        outcomes = apply_readout(rng, outcomes, task.program.readout)
        if sanitizer.enabled():
            # One portable event per task: the sampled outcome stream
            # plus the RNG state it left behind.  Identical across
            # chunk geometries and dedup modes by the determinism
            # contract — neither may leak into draws.
            sanitizer.record(
                "task",
                {
                    "outcomes": outcomes,
                    "rng": rng.bit_generator.state,
                    "shots": task.shots,
                },
                key=repr(task.key),
            )
        plan.outcomes = outcomes


# ---------------------------------------------------------------------------
# Service entry
# ---------------------------------------------------------------------------

def run_request_tasks(
    tasks: Sequence[TrajectoryTask],
) -> Dict[object, TaskResult]:
    """Execute *request-owned* tasks, each alone, in one scheduler call.

    ``tasks`` may mix programs, shot budgets, trajectory counts and
    initial states.  Tasks whose keys collide must be identical
    requests; later results overwrite earlier ones, which is then a
    no-op by the determinism contract.
    """
    if not tasks:
        return {}
    return FusedTrajectoryScheduler().run(tasks)
