"""Batched trajectory scheduling for service requests: fusion, dedup.

Every noisy trajectory request the service runs goes through this
module, a solo request as a batch of one.

Concurrent service requests often share one compiled circuit skeleton
(a rate-only sweep streamed as requests), and at the paper's sparse
noise most sampled trajectories are the clean one or repeat a
one-error configuration.  This module turns both observations into
wall-clock:

* **Cross-task fusion** — trajectory rows from every task (one request's
  instance and budget) whose :attr:`~repro.sim.program.CompiledProgram.fusion_key`
  matches are packed into one ``(B, 2**n)`` state buffer, so each
  boundary gate kernel and each kernel-cached monomial gather is paid
  once per *chunk* instead of once per request.
* **Error-configuration dedup** — each trajectory's full Pauli insertion
  pattern is sampled up front and canonicalised to a tuple of
  ``(site ordinal, label)`` events; only *distinct* configurations are
  simulated, and every trajectory samples its shots from its
  configuration's (shared) output distribution.  This generalises the
  clean/erred split of :class:`~repro.sim.trajectories.TrajectoryEngine`
  to all configurations and is **exact**: identical configurations
  produce bit-identical states, so merging them changes nothing but the
  amount of simulation work.

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
only).  Consequently batch membership, the reference
``dedup=False`` mode and chunk geometry are bit-invisible.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..runtime import obs, sanitizer
from ..runtime.envutil import env_mb_bytes
from ..runtime.health import check_norms, norm_tolerance
from .backend import resolve_complex_dtype
from .ops import BitCache, apply_pauli_string_rows, probabilities
from .program import CompiledProgram, _mono_apply_rows
from .result import Counts
from .statevector import zero_state
from .trajectories import apply_readout, multinomial_outcomes, sample_outcomes

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
    so a task's result is independent of which other tasks ride the same
    fused batch.
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
    """Executes :class:`TrajectoryTask`\\ s with fusion and dedup.

    Rows of tasks whose programs share a ``fusion_key`` are packed into
    shared state buffers.

    Parameters
    ----------
    dedup:
        Simulate each distinct error configuration once per task.
        ``False`` simulates every trajectory row; it is the reference
        the bit-invariance tests compare against.
    max_batch_rows:
        Chunk-height ceiling; default derives from the ``REPRO_BATCH_MB``
        byte budget (256 MB) and the state width.
    """

    def __init__(
        self,
        dedup: bool = True,
        max_batch_rows: Optional[int] = None,
        dtype=None,
    ) -> None:
        if max_batch_rows is not None and max_batch_rows < 1:
            raise ValueError(
                f"max_batch_rows must be >= 1, got {max_batch_rows}"
            )
        self.dedup = bool(dedup)
        self.max_batch_rows = max_batch_rows
        self.dtype = resolve_complex_dtype(dtype)
        self._bits = BitCache()
        self._chunks_run = 0
        self._chunk_rows_run = 0

    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[TrajectoryTask]) -> Dict[object, TaskResult]:
        """Execute every task; returns ``{task.key: TaskResult}``.

        Tasks are processed in input order within every phase, so
        results are independent of grouping and chunk geometry.
        """
        all_plans = [_TaskPlan(t) for t in tasks]
        self._chunks_run = 0
        self._chunk_rows_run = 0
        for group in self._group(all_plans):
            for p in group:
                self._sample_configs(p)
            plans = [p for p in group if p.rows]
            self._simulate(plans)
            for p in plans:
                self._sample_outcomes(p)
        results = {p.task.key: p.result() for p in all_plans}
        obs.add({
            "batch.tasks": len(all_plans),
            "batch.trajectories_sampled": sum(
                p.trajectories_sampled for p in all_plans
            ),
            "batch.rows_simulated": sum(p.rows_simulated for p in all_plans),
            "batch.chunks": self._chunks_run,
            "batch.chunk_rows": self._chunk_rows_run,
        })
        return results

    # ------------------------------------------------------------------
    def _group(self, plans: List[_TaskPlan]) -> List[List[_TaskPlan]]:
        groups: Dict[tuple, List[_TaskPlan]] = {}
        for p in plans:
            groups.setdefault(p.task.program.fusion_key, []).append(p)
        return list(groups.values())

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
    # Phase B: batched simulation of the distinct rows
    # ------------------------------------------------------------------
    def _auto_rows(self, n: int) -> int:
        budget = env_mb_bytes("REPRO_BATCH_MB", 256)
        per_row = (1 << n) * np.dtype(self.dtype).itemsize
        # state + scratch + float64 probabilities live at once
        return max(1, budget // max(1, per_row * 3))

    def _simulate(self, plans: List[_TaskPlan]) -> None:
        if not plans:
            return
        n = plans[0].task.program.num_qubits
        cap = self.max_batch_rows or self._auto_rows(n)
        # Greedy in-order chunking; a plan's rows may span chunks (the
        # per-row arithmetic is chunk-invariant, so this is free).
        pending: List[Tuple[_TaskPlan, int]] = [
            (p, r) for p in plans for r in range(len(p.rows))
        ]
        for p in plans:
            p.probs = np.empty((len(p.rows), 1 << n))
        for lo in range(0, len(pending), cap):
            chunk = pending[lo:lo + cap]
            self._simulate_chunk(chunk, n)
            self._chunks_run += 1
            self._chunk_rows_run += len(chunk)

    def _simulate_chunk(
        self, chunk: List[Tuple[_TaskPlan, int]], n: int
    ) -> None:
        """Evolve one chunk of rows with clean-prefix sharing.

        Every plan's rows in a chunk are contiguous (``pending`` lists
        plans in order), forming a *block*.  Each block carries one
        clean **reference** row — the plan's clean row when it rides
        this chunk, a synthetic extra row otherwise — and every erred
        row stays *dead* until the segment holding its first fire, at
        which point it copies the reference and walks piecewise from
        there.  Because every kernel involved (boundary gate, full/
        partial monomial, Pauli scatter) is row-local, the inherited
        prefix is bit-identical to the row having idled through those
        segments itself — the determinism contract is untouched while
        prefix gate work is paid once per block instead of once per
        row.  Sorting a block's rows by first-fire ordinal keeps the
        live rows a contiguous prefix, so boundary unitaries apply to
        views, never to rows that have not started.
        """
        dim = 1 << n
        # -- carve the chunk into per-plan blocks -----------------------
        blocks: List[Tuple[_TaskPlan, List[int]]] = []
        for plan, r in chunk:
            if blocks and blocks[-1][0] is plan:
                blocks[-1][1].append(r)
            else:
                blocks.append((plan, [r]))
        layouts = []  # (plan, start, ref_plan_row, sorted_event_rows)
        height = 0
        for plan, rows in blocks:
            empty = [r for r in rows if not plan.rows[r]]
            eventful = sorted(
                (r for r in rows if plan.rows[r]),
                key=lambda r: plan.rows[r][0][0],
            )
            ref = empty[0] if empty else None
            layouts.append((plan, height, ref, eventful))
            height += 1 + len(eventful)

        buf = np.empty((height, dim), dtype=self.dtype)
        events: List[tuple] = [()] * height
        for plan, start, _ref, eventful in layouts:
            init = plan.task.initial_state
            if init is None:
                buf[start] = zero_state(n, 1, self.dtype)[0]
            else:
                vec = np.asarray(init, dtype=self.dtype).reshape(-1)
                if vec.shape[0] != dim:
                    raise ValueError("initial state has wrong dimension")
                buf[start] = vec
            for j, r in enumerate(eventful):
                events[start + 1 + j] = plan.rows[r]
        cursor = [0] * height
        live = [0] * len(layouts)  # activated erred rows per block
        row_scratch = np.empty(dim, dtype=self.dtype)
        stream = chunk[0][0].task.program.exec_stream()
        ordinal_base = 0
        for tag, item in stream:
            if tag == "op":
                # Boundary unitaries (dense gates) apply to each
                # block's live prefix; Pauli-only programs have no
                # other boundaries.  Dead rows inherit the op through
                # their later reference-row copy.
                for b, (_plan, start, _ref, _ev) in enumerate(layouts):
                    item.apply(buf[start:start + 1 + live[b]], n)
                continue
            seg = item
            n_sites = len(seg.sites)
            n_elems = len(seg.elems)
            hi = ordinal_base + n_sites
            # elem position of each ordinal inside this segment
            pos_of = {
                ordinal: elem_pos
                for elem_pos, _op, ordinal in seg.sites
            }
            idle: List[int] = []
            for b, (plan, start, _ref, eventful) in enumerate(layouts):
                k = live[b]
                # Rows whose first fire lands here copy the reference
                # (still at segment start) and join the walk.
                while k < len(eventful) and events[start + 1 + k][0][0] < hi:
                    buf[start + 1 + k] = buf[start]
                    k += 1
                live[b] = k
                idle.append(start)  # the reference row never fires
                for j in range(k):
                    i = start + 1 + j
                    evs = events[i]
                    c = cursor[i]
                    if c >= len(evs) or evs[c][0] >= hi:
                        idle.append(i)
                        continue
                    # Walk this row alone, splitting at its own fires
                    # only: the composed pieces depend on nothing but
                    # the row's configuration, which keeps fusion and
                    # dedup bit-invisible.
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
                            buf, label, qubits, np.array([i]), n,
                            self._bits,
                        )
                        c += 1
                    cursor[i] = c
                    if pos < n_elems:
                        _mono_apply_rows(
                            buf, (i,),
                            seg.partial(n, pos, n_elems, buf.dtype),
                            row_scratch,
                        )
            if n_elems and idle:
                _mono_apply_rows(
                    buf, idle, seg.full(n, buf.dtype), row_scratch
                )
            ordinal_base = hi
        check_norms(
            buf, "batched trajectory scheduler",
            atol=norm_tolerance(self.dtype),
        )
        p = probabilities(buf)
        for plan, start, ref, eventful in layouts:
            if ref is not None:
                plan.probs[ref] = p[start]
            for j, r in enumerate(eventful):
                plan.probs[r] = p[start + 1 + j]
        if sanitizer.enabled():
            # Geometry-tagged (chunk height varies with the batch's
            # membership and REPRO_BATCH_MB), so this stage is excluded from
            # cross-path comparison; it localises a divergence to the
            # first differing evolution when the portable stages split.
            sanitizer.record(
                "chunk",
                {"height": height, "probs": p},
                key=repr(sorted({repr(pl.task.key) for pl, _ in chunk})),
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
            # plus the RNG state it left behind.  Identical across fused
            # and solo runs by the determinism contract — chunk
            # geometry must never leak into draws.
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
# Service entry: one pass over heterogeneous request-owned tasks
# ---------------------------------------------------------------------------

def run_request_tasks(
    tasks: Sequence[TrajectoryTask],
) -> Dict[object, TaskResult]:
    """Execute a micro-batch of *request-owned* tasks in one scheduler pass.

    This is the group-of-groups entry the service runs every noisy
    trajectory request through: ``tasks`` may mix fusion keys, shot
    budgets, trajectory counts and initial states — the scheduler
    regroups by exact
    :attr:`~repro.sim.program.CompiledProgram.fusion_key` internally, so
    callers may batch on any coarser proxy (e.g. circuit family) without
    risking cross-key contamination.  Tasks whose keys collide must be
    identical requests; later results overwrite earlier ones, which is
    then a no-op by the determinism contract.

    Per-request results are bit-identical whether a request was fused
    with neighbours or ran alone as a batch of one: each task's draws
    come from its own stream in a fixed order.
    """
    if not tasks:
        return {}
    return FusedTrajectoryScheduler().run(tasks)
