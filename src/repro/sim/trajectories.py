"""Batched Monte-Carlo quantum-trajectory simulation.

The workhorse engine of the reproduction.  A depolarizing gate error is a
Pauli channel, so each shot of the noisy circuit can be simulated as the
ideal circuit with random Pauli insertions — an *exact* stochastic
unravelling of the CPTP map.  ``B`` trajectories are evolved together as
one ``(B, 2**n)`` array:

* every ideal gate is a single vectorized kernel over the whole batch
  (see :mod:`repro.sim.ops`), so Python overhead is amortised ``B``-fold;
* Pauli errors are sampled per trajectory and applied to the (usually
  small) row subsets that drew a non-identity outcome — X is an index
  permutation, Z a sign flip;
* general Kraus channels (thermal relaxation) use the standard
  quantum-trajectory branch rule: branch ``m`` is chosen with probability
  ``||K_m psi||^2`` per row.

Shots are distributed over trajectories; with ``trajectories >= shots``
every shot is an independent noise realisation (the exact setting).
Fewer trajectories re-use each noise realisation for several shots — a
controlled variance trade-off for speed, recorded in EXPERIMENTS.md.

Clean-shot splitting (``split_clean``, default on for Pauli-only
models) removes the worst of that trade-off.  The noisy ensemble
decomposes exactly as

    P = P0 * P_ideal + (1 - P0) * P_erred,

with ``P0 = prod(identity probs over all error sites)`` known in closed
form.  The engine samples ``Binomial(shots, P0)`` error-free shots
directly from the one ideal statevector, and devotes the whole
trajectory batch to the *erred* component via sequential conditioned
sampling (at each site, a still-clean trajectory fires with probability
``e_s / (1 - prod_{u>=s}(1 - e_u))``, which forces at least one error
by the last site).  In the paper's heavy-noise QFM regime — where
success hinges on a handful of error-free shots — this makes a
16-trajectory batch behave like an independent-shot simulation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..noise.channels import (
    PauliError,
    QuantumError,
    ResetError,
)
from ..noise.model import NoiseModel
from ..runtime.health import check_norms, norm_tolerance
from .backend import resolve_complex_dtype
from .ops import (
    BitCache,
    apply_gate_matrix,
    apply_pauli_string_rows,
    probabilities,
)
from .program import CompiledProgram, as_program
from .result import Counts
from .statevector import zero_state

__all__ = [
    "TrajectoryEngine",
    "apply_readout",
    "first_fire_law",
    "multinomial_outcomes",
    "sample_outcomes",
]


def first_fire_law(sites: Sequence) -> Tuple[np.ndarray, float, np.ndarray]:
    """The split walk's closed-form law over Pauli ``sites``.

    Returns ``(es, p0, pfirst)``: the per-site error probabilities, the
    probability ``prod(1 - e_s)`` that no site fires, and the law of an
    erred trajectory's first fire, ``P(first = s) ∝ prefix_clean[s] *
    e_s`` with ``prefix_clean[s] = prod_{u < s}(1 - e_u)``.  ``pfirst``
    is left unnormalised when no site can fire (then no row errs).
    """
    es = np.array([op.e for _, op in sites])
    one_minus = 1.0 - es
    prefix_clean = np.ones(es.size)
    if es.size > 1:
        prefix_clean[1:] = np.cumprod(one_minus[:-1])
    p0 = float(np.prod(one_minus)) if es.size else 1.0
    pfirst = prefix_clean * es
    total = pfirst.sum()
    if total > 0:
        pfirst = pfirst / total
    return es, p0, pfirst


def multinomial_outcomes(
    rng: np.random.Generator, probs: np.ndarray, shots: int
) -> np.ndarray:
    """``shots`` outcome integers drawn from one row's distribution."""
    # float32 states need an exact-sum float64 pvals vector.
    pv = probs.astype(np.float64, copy=True)
    pv /= pv.sum()
    cnt = rng.multinomial(shots, pv)
    nz = np.flatnonzero(cnt)
    return np.repeat(nz, cnt[nz])


def sample_outcomes(
    rng: np.random.Generator,
    probs: np.ndarray,
    shots: int,
    rows: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """One outcome integer per shot, spreading shots over trajectories.

    Trajectory ``b`` samples from ``probs[rows[b]]`` (``probs[b]`` when
    ``rows`` is None); the remainder of an uneven split goes to
    trajectories drawn without replacement, then one multinomial is
    drawn per trajectory in order.
    """
    B = probs.shape[0] if rows is None else len(rows)
    base, extra = divmod(shots, B)
    per_row = np.full(B, base, dtype=int)
    if extra:
        lucky = rng.choice(B, size=extra, replace=False)
        per_row[lucky] += 1
    outs: List[np.ndarray] = []
    for b in range(B):
        if per_row[b] == 0:
            continue
        row = b if rows is None else rows[b]
        outs.append(multinomial_outcomes(rng, probs[row], per_row[b]))
    return np.concatenate(outs) if outs else np.empty(0, dtype=int)


def apply_readout(
    rng: np.random.Generator, outcomes: np.ndarray, readout: Sequence
) -> np.ndarray:
    """Flip measured bits per a program's resolved readout table."""
    if not readout or outcomes.size == 0:
        return outcomes
    out = outcomes.copy()
    for q, p01, p10 in readout:
        bit = (out >> q) & 1
        flip_p = np.where(bit == 1, p10, p01)
        flips = rng.random(out.size) < flip_p
        out[flips] ^= 1 << q
    return out


class TrajectoryEngine:
    """Monte-Carlo Pauli/Kraus trajectory simulator.

    Parameters
    ----------
    trajectories:
        Number of independent noise realisations per :meth:`run` call.
    seed:
        Seed for the engine's own random generator (noise sampling and
        shot sampling).  Pass a :class:`numpy.random.Generator` via
        ``rng`` to share a stream.
    dtype:
        State dtype; ``complex64`` halves memory at ~1e-7 amplitude
        error, which is far below sampling noise at paper shot counts.
    """

    def __init__(
        self,
        trajectories: int = 128,
        seed: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        dtype=None,
        split_clean: bool = True,
    ) -> None:
        if trajectories < 1:
            raise ValueError("trajectories must be >= 1")
        self.trajectories = int(trajectories)
        # repro: allow[DET001] reason=public API convenience; result paths construct the runner with an explicit per-cell Generator
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.dtype = resolve_complex_dtype(dtype)
        self.split_clean = bool(split_clean)
        self._bits = BitCache()

    # ------------------------------------------------------------------
    def run(
        self,
        circuit: Union[QuantumCircuit, CompiledProgram],
        noise_model: Optional[NoiseModel] = None,
        shots: int = 2048,
        initial_state: Optional[np.ndarray] = None,
    ) -> Counts:
        """Simulate and sample ``shots`` outcomes over all qubits.

        ``circuit`` may be a raw :class:`QuantumCircuit`, lowered
        through the compile cache first, or a
        :class:`~repro.sim.program.CompiledProgram`.
        """
        program = (
            circuit
            if isinstance(circuit, CompiledProgram)
            else as_program(circuit, noise_model)
        )
        return self._run_program(program, shots, initial_state)

    # ------------------------------------------------------------------
    # Compiled-program execution
    # ------------------------------------------------------------------
    def _run_program(
        self,
        program: CompiledProgram,
        shots: int,
        initial_state: Optional[np.ndarray],
    ) -> Counts:
        """Execute a compiled program (split or unconditional path)."""
        n = program.num_qubits
        if (
            self.split_clean
            and program.pauli_only
            and program.num_noise_sites > 0
        ):
            return self._run_program_split(program, shots, initial_state, n)
        ideal = program.num_noise_sites == 0 and not program.readout
        B = 1 if ideal else min(self.trajectories, shots)
        state = self._initial_batch(initial_state, B, n)
        rows_all = np.arange(B)
        for op in program.ops:
            kind = op.kind
            if kind == "unitary":
                op.apply(state, n)
            elif kind == "noise":
                state = self._apply_error_on(state, op.error, op.qubits, n)
            elif kind == "reset":
                state = self._reset_rows(
                    state, op.qubit, rows_all, n, to_one=False
                )
        check_norms(
            state, "trajectory engine", atol=norm_tolerance(self.dtype)
        )
        outcomes = sample_outcomes(self.rng, probabilities(state), shots)
        outcomes = apply_readout(self.rng, outcomes, program.readout)
        return Counts.from_outcome_list(outcomes, n)

    def _run_program_split(
        self,
        program: CompiledProgram,
        shots: int,
        initial_state: Optional[np.ndarray],
        n: int,
    ) -> Counts:
        """Forking ideal/erred split over a compiled program.

        The noisy ensemble splits exactly into ``P0 * P_ideal + (1 - P0)
        * P_erred`` (see module docs); the erred batch is *grown* instead
        of evolved in full: each row's
        first-fire site is pre-sampled from its closed-form law
        ``P(first = s) ∝ prefix_clean[s] * e_s``, one shared clean row
        evolves through the program, and a row is forked off the clean
        row only when its first error fires (independent fires
        afterwards, as in the sequential scheme).  Gates before a row's
        first fire are therefore applied once instead of once per row —
        roughly halving gate work at paper noise levels.
        """
        es, p0, pfirst = first_fire_law(program.pauli_sites())
        n_clean = int(self.rng.binomial(shots, p0)) if p0 > 0 else 0
        n_err = shots - n_clean
        B = min(self.trajectories, n_err) if n_err else 0

        # Row 0 is the evolving clean state (fork source); rows 1..B are
        # erred trajectories, dead until their first-fire site.
        buf = self._initial_batch(initial_state, B + 1, n)
        counts_per_site = np.zeros(es.size, dtype=int)
        if B:
            first = self.rng.choice(es.size, size=B, p=pfirst)
            counts_per_site = np.bincount(first, minlength=es.size)

        self._walk_split_segments(program, buf, counts_per_site, n)

        check_norms(
            buf, "trajectory engine (split)", atol=norm_tolerance(self.dtype)
        )
        pieces = []
        if n_clean:
            pieces.append(
                sample_outcomes(self.rng, probabilities(buf[:1]), n_clean)
            )
        if n_err:
            pieces.append(
                sample_outcomes(self.rng, probabilities(buf[1:]), n_err)
            )
        outcomes = (
            np.concatenate(pieces) if pieces else np.empty(0, dtype=int)
        )
        outcomes = apply_readout(self.rng, outcomes, program.readout)
        return Counts.from_outcome_list(outcomes, n)

    def _walk_split_segments(
        self,
        program: CompiledProgram,
        buf: np.ndarray,
        counts_per_site: np.ndarray,
        n: int,
    ) -> int:
        """Segment-fused forking walk.

        Row 0 evolves clean; a row forks off it at its pre-sampled
        first-fire site and then fires independently at every later
        site.  The walk is organised around *events*: per segment every
        site's fire/fork draws happen up front (one uniform batch per
        site, in site order, so the stream consumption is
        deterministic), which pins down the small set of **active**
        rows — rows that fire here, rows forked here, and row 0 while
        forking continues.  Only active rows are walked piece by piece
        between their event sites (a piece is composed on the few
        qubits it touches, then expanded); every other live row crosses the
        whole segment through its one kernel-cached monomial
        (``seg.full``), shared across runs and instances.  At paper
        noise levels most rows cross most segments untouched.  In many
        segments the ``cx`` pairs cancel, so that crossing is an in-place
        phase multiply per row, not a gather; only a segment with a net
        permutation gathers, row by row.
        """
        from .program import _compose_elems, _mono_apply_rows

        row_scratch = np.empty(buf.shape[1], dtype=buf.dtype)
        k = 0
        for tag, item in program.exec_stream():
            if tag == "op":
                op = item
                if op.kind == "unitary":
                    op.apply(buf[: 1 + k], n)
                elif op.kind == "reset":
                    self._reset_rows(
                        buf, op.qubit, np.arange(1 + k), n, to_one=False
                    )
                elif op.kind == "noise":
                    sl = buf[: 1 + k]
                    sub = self._apply_error_on(sl, op.error, op.qubits, n)
                    if sub is not sl:
                        sl[...] = sub
                continue
            seg = item
            live = 1 + k
            # -- pre-draw every event of this segment --------------------
            # ``kv`` tracks the virtual row count: fires at a site may
            # hit rows forked at earlier sites of the same segment.
            events = []
            kv = k
            for elem_pos, noise_op, ordinal in seg.sites:
                fire_rows = None
                if kv:
                    fire = self.rng.random(kv) < noise_op.e
                    rows = np.flatnonzero(fire) + 1
                    if rows.size:
                        fire_rows = rows
                m = counts_per_site[ordinal]
                if fire_rows is not None or m:
                    events.append((elem_pos, noise_op, fire_rows, m))
                kv += m
            # -- active rows: fire rows + fork source/targets ------------
            # With no events every live row is idle.
            active = set()
            if any(m for _, _, _, m in events):
                active.add(0)
            for _, _, rows, _ in events:
                if rows is not None:
                    active.update(int(r) for r in rows)
            walking = sorted(r for r in active if r < live)
            pos = 0
            for elem_pos, noise_op, fire_rows, m in events:
                if elem_pos > pos:
                    _mono_apply_rows(
                        buf,
                        walking,
                        _compose_elems(
                            (None, None), seg.elems[pos:elem_pos], n,
                            buf.dtype,
                        ),
                        row_scratch,
                    )
                    pos = elem_pos
                if fire_rows is not None:
                    self._scatter_paulis(buf, noise_op, fire_rows, n)
                if m:
                    new_rows = np.arange(1 + k, 1 + k + m)
                    buf[new_rows] = buf[0]
                    self._scatter_paulis(buf, noise_op, new_rows, n)
                    k += m
                    walking.extend(int(r) for r in new_rows)
            # Tail for the walkers, then the untouched rows cross the
            # whole segment via the shared cached kernel.
            if pos < len(seg.elems) and walking:
                _mono_apply_rows(
                    buf,
                    walking,
                    seg.full(n, buf.dtype)
                    if pos == 0
                    else _compose_elems(
                        (None, None), seg.elems[pos:], n, buf.dtype
                    ),
                    row_scratch,
                )
            if seg.elems:
                idle = [r for r in range(live) if r not in active]
                if idle:
                    _mono_apply_rows(
                        buf, idle, seg.full(n, buf.dtype), row_scratch
                    )
        return k

    def _scatter_paulis(
        self, state: np.ndarray, op, rows: np.ndarray, n: int
    ) -> None:
        """Draw from a site's conditioned table and apply per label."""
        draws = self.rng.choice(len(op.labels), size=rows.size, p=op.cond)
        for idx in np.unique(draws):
            apply_pauli_string_rows(
                state, op.labels[idx], op.qubits, rows[draws == idx], n,
                self._bits,
            )

    # ------------------------------------------------------------------
    # Clean-shot splitting
    # ------------------------------------------------------------------
    def _initial_batch(
        self, initial_state: Optional[np.ndarray], B: int, n: int
    ) -> np.ndarray:
        if initial_state is None:
            return zero_state(n, B, self.dtype)
        vec = np.asarray(initial_state, dtype=self.dtype).reshape(1, -1)
        if vec.shape[1] != (1 << n):
            raise ValueError("initial state has wrong dimension")
        return np.repeat(vec, B, axis=0)

    def _apply_error_on(
        self,
        state: np.ndarray,
        err: QuantumError,
        qubits: Sequence[int],
        n: int,
    ) -> np.ndarray:
        B = state.shape[0]
        if isinstance(err, PauliError):
            draws = err.sample(self.rng, B)
            for idx in np.unique(draws):
                apply_pauli_string_rows(
                    state, err.paulis[idx], qubits,
                    np.flatnonzero(draws == idx), n, self._bits,
                )
            return state
        if isinstance(err, ResetError):
            return self._apply_reset_error(state, err, qubits[0], n)
        # General Kraus channel: branch with Born weights per row.
        return self._apply_kraus(state, err.kraus_operators(), qubits, n)

    def _apply_kraus(
        self,
        state: np.ndarray,
        kraus: List[np.ndarray],
        qubits: Sequence[int],
        n: int,
    ) -> np.ndarray:
        B = state.shape[0]
        m = len(kraus)
        # Candidate states and their norms for every branch.
        cands = np.empty((m,) + state.shape, dtype=state.dtype)
        norms = np.empty((m, B), dtype=float)
        for i, K in enumerate(kraus):
            cands[i] = apply_gate_matrix(state.copy(), K, qubits, n)
            norms[i] = np.einsum(
                "bi,bi->b", cands[i], cands[i].conj()
            ).real
        total = norms.sum(axis=0)
        # Trace preservation => total ~ ||psi||^2 (=1); normalise anyway.
        pick_p = norms / total
        u = self.rng.random(B)
        cum = np.cumsum(pick_p, axis=0)
        choice = (u[None, :] > cum).sum(axis=0)
        out = cands[choice, np.arange(B)]
        # Renormalise each row after the non-unitary branch.
        nrm = np.sqrt(
            np.einsum("bi,bi->b", out, out.conj()).real
        )
        nrm[nrm == 0] = 1.0
        out /= nrm[:, None]
        return np.ascontiguousarray(out)

    def _apply_reset_error(
        self, state: np.ndarray, err: ResetError, q: int, n: int
    ) -> np.ndarray:
        B = state.shape[0]
        u = self.rng.random(B)
        rows0 = np.flatnonzero(u < err.p0)
        rows1 = np.flatnonzero((u >= err.p0) & (u < err.p0 + err.p1))
        if rows0.size:
            state = self._reset_rows(state, q, rows0, n, to_one=False)
        if rows1.size:
            state = self._reset_rows(state, q, rows1, n, to_one=True)
        return state

    def _reset_rows(
        self,
        state: np.ndarray,
        q: int,
        rows: np.ndarray,
        n: int,
        to_one: bool,
    ) -> np.ndarray:
        """Measure qubit ``q`` on the given rows, then set it to 0 (or 1).

        This is the trajectory form of the reset channel: the qubit is
        projectively measured (Born rule per row) and re-prepared.
        """
        mask1 = self._bits.mask_bit(n, q)
        sub = state[rows]
        # p1 per row: probability qubit q is 1.
        p1 = (np.abs(sub[:, mask1]) ** 2).sum(axis=1)
        tot = (np.abs(sub) ** 2).sum(axis=1)
        p1 = np.where(tot > 0, p1 / tot, 0.0)
        got1 = self.rng.random(rows.size) < p1
        perm = self._bits.perm_flip(n, q)
        new = np.zeros_like(sub)
        # Outcome-0 rows: keep the qubit-0 component.
        keep0 = ~got1
        new[np.ix_(keep0, ~mask1)] = sub[np.ix_(keep0, ~mask1)]
        # Outcome-1 rows: keep the qubit-1 component, moved to qubit 0.
        new[np.ix_(got1, ~mask1)] = sub[np.ix_(got1, mask1)]
        if to_one:
            # Re-prepare in |1> instead of |0>: flip the qubit back.
            new = new[:, perm]
        nrm = np.sqrt((np.abs(new) ** 2).sum(axis=1))
        nrm[nrm == 0] = 1.0
        new /= nrm[:, None]
        state[rows] = new
        return state
