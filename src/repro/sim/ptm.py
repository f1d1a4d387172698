"""PTM-compiled exact-noise engine: superoperators in the Pauli basis.

The density engine is exact but pays for generality: every gate is two
batched vector passes over a ``2**n x 2**n`` complex operator, and every
Pauli channel replays its non-identity labels as unitary passes.  In the
(normalised) Pauli basis the same CPTP evolution is a sequence of small
*real* linear maps — the Pauli Transfer Matrix (PTM) picture used by
quantumsim-style simulators:

* the state is the real coefficient vector ``c_p = Tr[sigma_p rho]``
  over the product basis ``sigma_p = P_p / sqrt(2)`` per qubit —
  ``4**n`` reals instead of ``4**n`` complex entries;
* a ``k``-qubit unitary becomes the real ``4**k x 4**k`` matrix
  ``R[a,b] = Tr[P_a U P_b U^dag] / 2**k`` applied along the gate's
  axes;
* a Pauli channel is *diagonal*: ``D[b] = sum_j p_j chi(j, b)`` with
  ``chi`` the commutation sign of label ``j`` against basis string
  ``b`` — one broadcast multiply where the density engine pays a full
  copy-and-conjugate pass per label;
* general Kraus channels and resets lower to dense PTMs the same way
  unitaries do.

Compilation mirrors :mod:`repro.sim.program`'s two-level discipline:
gate PTMs depend only on (gate, params, arity) and live in the shared
:class:`~repro.sim.program.KernelCache` keyed with the engine's dtype
tag, so a rate sweep builds each PTM exactly once ("bind once, re-rate
cheap"); the per-program *plan* — the ordered step list with the
rate-dependent channel diagonals resolved — is cached per program
fingerprint with hit/miss counters surfaced via :func:`ptm_cache_stats`.

Precision follows the active :mod:`~repro.sim.backend` tier: the state
is ``float64`` under ``numpy64`` and ``float32`` under ``numpy32``
(kernels are built at float64 and cast once, like every other kernel).
"""

from __future__ import annotations

import threading
from functools import reduce
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..noise.channels import PauliError, QuantumError
from ..noise.model import NoiseModel
from ..noise.pauli import PAULI_CHARS, PAULI_MATRICES, pauli_matrix
from ..runtime import obs, sanitizer
from ..runtime.errors import width_limit_error
from ..runtime.health import NumericalHealthError, check_finite, norm_tolerance
from .backend import (
    as_complex,
    dtype_tag,
    resolve_complex_dtype,
)
from .program import (
    CompiledProgram,
    RawGateOp,
    _KERNELS,
    _term_instruction,
    as_program,
)
from .result import Distribution

__all__ = ["PTMEngine", "ptm_cache_stats", "reset_ptm_cache"]

_SQRT2 = float(np.sqrt(2.0))

#: Per-qubit commutation signs: ``_CHI[a][b] = +1`` when Paulis ``a``
#: and ``b`` commute (either is I, or they are equal), else ``-1``.
_CHI = {
    "I": np.array([1.0, 1.0, 1.0, 1.0]),
    "X": np.array([1.0, 1.0, -1.0, -1.0]),
    "Y": np.array([1.0, -1.0, 1.0, -1.0]),
    "Z": np.array([1.0, -1.0, -1.0, 1.0]),
}


def _basis_labels(k: int) -> List[str]:
    """Pauli strings in flat-index order: digit ``i`` (weight ``4**i``)
    is the Pauli on gate argument ``i`` — the same little-endian
    convention as :func:`repro.noise.pauli.pauli_matrix`."""
    return [
        "".join(PAULI_CHARS[(a >> (2 * i)) & 3] for i in range(k))
        for a in range(1 << (2 * k))
    ]


def _build_unitary_ptm(U: np.ndarray, k: int) -> np.ndarray:
    """``R[a,b] = Tr[P_a U P_b U^dag] / 2**k`` (real for any unitary)."""
    P = np.stack([pauli_matrix(lbl) for lbl in _basis_labels(k)])
    V = np.einsum("ij,bjk,lk->bil", U, P, U.conj())
    R = np.einsum("aij,bji->ab", P, V).real / float(1 << k)
    return R


def _build_kraus_ptm(kraus: Sequence[np.ndarray], k: int) -> np.ndarray:
    """PTM of a general CPTP map from its Kraus operators."""
    P = np.stack([pauli_matrix(lbl) for lbl in _basis_labels(k)])
    R = np.zeros((1 << (2 * k), 1 << (2 * k)))
    for K in kraus:
        V = np.einsum("ij,bjk,lk->bil", K, P, K.conj())
        R += np.einsum("aij,bji->ab", P, V).real
    return R / float(1 << k)


def _pauli_channel_diag(err: PauliError) -> np.ndarray:
    """The diagonal PTM of a Pauli channel over its argument qubits."""
    k = len(err.paulis[0])
    D = np.zeros(1 << (2 * k))
    for label, pr in zip(err.paulis, err.probs):
        if pr <= 0:
            continue
        # kron builds most-significant digit first = argument k-1.
        D += pr * reduce(np.kron, [_CHI[ch] for ch in reversed(label)])
    return D


def _cast(R: np.ndarray, real_dtype) -> np.ndarray:
    out = R.astype(real_dtype) if R.dtype != np.dtype(real_dtype) else R
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# Plan compilation (bind once per program, PTMs shared across rates)
# ---------------------------------------------------------------------------

#: One lowered step: ("mat", R, qubits) dense PTM along the gate axes,
#: or ("diag", D, qubits) broadcast multiply for a Pauli channel.
_Step = Tuple[str, np.ndarray, Tuple[int, ...]]

_PLAN_CAP = 128
_PLAN_LOCK = threading.Lock()
_PLANS: Dict[tuple, List[_Step]] = {}


def ptm_cache_stats() -> Dict[str, int]:
    """Bound-plan cache counters (``binds`` = plans compiled, hits =
    re-served from the fingerprint-keyed cache)."""
    with _PLAN_LOCK:
        plans = len(_PLANS)
        c = obs.snapshot("ptm.").get((), {})
    return {
        "plans": plans,
        "binds": c.get("binds", 0),
        "bind_hits": c.get("bind_hits", 0),
    }


def reset_ptm_cache() -> None:
    """Drop cached plans and zero the counters (tests/benchmarks)."""
    with _PLAN_LOCK:
        _PLANS.clear()
        obs.reset("ptm.")


def _gate_ptm(term, real_dtype, tag: str) -> np.ndarray:
    """Kernel-cached PTM of one gate term (rate-independent, so a rate
    sweep reuses every entry across binds — the "bind once" payoff)."""
    name, qubits, params = term
    k = len(qubits)
    return _KERNELS.get(
        ("ptm-gate", name, params, k, tag),
        lambda: _cast(
            _build_unitary_ptm(
                _term_instruction(name, qubits, params).gate.matrix, k
            ),
            real_dtype,
        ),
    )


def _channel_ptm(err: QuantumError, real_dtype, tag: str) -> np.ndarray:
    """Kernel-cached PTM of a non-Pauli channel, keyed by content."""
    k = err.num_qubits
    return _KERNELS.get(
        ("ptm-chan", err.fingerprint(), k, tag),
        lambda: _cast(_build_kraus_ptm(err.kraus_operators(), k), real_dtype),
    )


def _reset_ptm(real_dtype, tag: str) -> np.ndarray:
    k0 = as_complex([[1, 0], [0, 0]])
    k1 = as_complex([[0, 1], [0, 0]])
    return _KERNELS.get(
        ("ptm-reset", tag),
        lambda: _cast(_build_kraus_ptm([k0, k1], 1), real_dtype),
    )


def _build_plan(
    program: CompiledProgram, real_dtype, tag: str
) -> List[_Step]:
    steps: List[_Step] = []
    for op in program.ops:
        kind = op.kind
        if kind == "unitary":
            if isinstance(op, RawGateOp):
                k = len(op.instr.qubits)
                steps.append((
                    "mat",
                    _cast(
                        _build_unitary_ptm(op.instr.gate.matrix, k),
                        real_dtype,
                    ),
                    tuple(op.instr.qubits),
                ))
                continue
            # Fused diagonal runs expand back into their member gates:
            # a run may span the whole register, and a 4**n PTM would
            # defeat the point.  Per-term PTMs stay k <= 3.
            for term in op.term_list():
                steps.append((
                    "mat", _gate_ptm(term, real_dtype, tag), term[1]
                ))
        elif kind == "noise":
            if isinstance(op.error, PauliError):
                if op.e:
                    steps.append((
                        "diag",
                        _pauli_channel_diag(op.error).astype(real_dtype),
                        op.qubits,
                    ))
            else:
                steps.append((
                    "mat",
                    _channel_ptm(op.error, real_dtype, tag),
                    op.qubits,
                ))
        elif kind == "reset":
            steps.append((
                "mat", _reset_ptm(real_dtype, tag), (op.qubit,)
            ))
        # measure sites: terminal sampling is owned by distribution().
    return steps


def _plan_for(
    program: CompiledProgram, real_dtype, tag: str
) -> List[_Step]:
    key = (program.fingerprint, tag)
    with _PLAN_LOCK:
        plan = _PLANS.get(key)
        if plan is not None:
            obs.add({"ptm.bind_hits": 1})
            del _PLANS[key]
            _PLANS[key] = plan  # refresh LRU recency
            return plan
    # Build outside the lock: gate-PTM construction can be slow and the
    # kernel cache has its own lock.  A concurrent duplicate build is
    # wasteful but correct (last writer wins).
    plan = _build_plan(program, real_dtype, tag)
    with _PLAN_LOCK:
        obs.add({"ptm.binds": 1})
        while len(_PLANS) >= _PLAN_CAP:
            _PLANS.pop(next(iter(_PLANS)))
        _PLANS[key] = plan
    return plan


# ---------------------------------------------------------------------------
# State construction / step application
# ---------------------------------------------------------------------------

def _zero_state_coeffs(n: int, real_dtype) -> np.ndarray:
    """Pauli coefficients of ``|0...0><0...0|`` as a ``(4,)*n`` tensor
    (axis ``a`` holds qubit ``n-1-a``, matching little-endian flats)."""
    per_qubit = np.array([1.0, 0.0, 0.0, 1.0]) / _SQRT2
    vec = reduce(np.kron, [per_qubit] * n) if n > 1 else per_qubit
    return vec.astype(real_dtype).reshape((4,) * n)


def _coeffs_from_statevector(
    vec: np.ndarray, n: int, real_dtype
) -> np.ndarray:
    """Pauli coefficients of ``|v><v|`` via per-qubit contraction."""
    v = as_complex(vec).reshape(-1)
    if v.shape[0] != (1 << n):
        raise ValueError("initial state has wrong dimension")
    rho = np.outer(v, v.conj())  # rho[c, r] = <c|rho|r>
    t = rho.reshape((2,) * (2 * n))
    # Interleave (row, col) digits per qubit, fuse each pair into one
    # axis of size 4 with index 2*c + r.
    t = np.transpose(t, [x for a in range(n) for x in (a, n + a)])
    t = np.ascontiguousarray(t).reshape((4,) * n)
    # K4[p, 2c+r] = sigma_p[r, c]: contract each axis to its coefficient.
    K4 = np.stack(
        [PAULI_MATRICES[ch].T.reshape(-1) for ch in PAULI_CHARS]
    ) / _SQRT2
    for a in range(n):
        t = np.moveaxis(np.tensordot(K4, t, axes=([1], [a])), 0, a)
    return np.ascontiguousarray(t.real).astype(real_dtype, copy=False)


def _apply_mat(
    state_t: np.ndarray, R: np.ndarray, qubits: Tuple[int, ...], n: int
) -> np.ndarray:
    """Apply a ``4**k`` PTM along the axes of ``qubits`` (argument
    ``i`` = flat digit of weight ``4**i``, axis ``n-1-q`` = qubit q)."""
    k = len(qubits)
    src = [n - 1 - qubits[i] for i in reversed(range(k))]
    moved = np.moveaxis(state_t, src, range(k))
    shape = moved.shape
    flat = np.ascontiguousarray(moved).reshape(1 << (2 * k), -1)
    out = (R @ flat).reshape(shape)
    return np.moveaxis(out, range(k), src)


def _apply_diag(
    state_t: np.ndarray, D: np.ndarray, qubits: Tuple[int, ...], n: int
) -> None:
    """In-place broadcast multiply of a diagonal channel PTM."""
    k = len(qubits)
    src = [n - 1 - qubits[i] for i in reversed(range(k))]
    moved = np.moveaxis(state_t, src, range(k))
    moved *= D.reshape((4,) * k + (1,) * (n - k))


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class PTMEngine:
    """Exact noisy evolution of the Pauli-coefficient vector.

    Same contract as :class:`~repro.sim.density.DensityMatrixEngine`
    (exact CPTP evolution, readout folded into :meth:`distribution`),
    but the superoperators are pre-compiled once per (circuit,
    noise-structure) and shared across rates — the fast exact lane for
    the cross-validation sweeps.
    """

    #: 4**n reals; one qubit below the density engine's complex cap.
    max_qubits = 12

    def __init__(self, dtype=None) -> None:
        self.dtype = resolve_complex_dtype(dtype)
        self.tag = dtype_tag(self.dtype)
        self.real_dtype = np.float32 if self.tag == "c64" else np.float64

    def run(
        self,
        circuit: Union[QuantumCircuit, CompiledProgram],
        noise_model: Optional[NoiseModel] = None,
        initial_state: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """The final Pauli coefficient vector (``4**n`` reals).

        ``circuit`` compiles through :func:`repro.sim.program.as_program`
        exactly like the other engines, so the two-level compile cache
        plus the PTM plan cache make rate-resweeps nearly allocation-
        free.
        """
        program = as_program(circuit, noise_model)
        n = program.num_qubits
        if n > self.max_qubits:
            raise width_limit_error("PTMEngine", self.max_qubits, n)
        plan = _plan_for(program, self.real_dtype, self.tag)
        if initial_state is None:
            state_t = _zero_state_coeffs(n, self.real_dtype)
        else:
            state_t = _coeffs_from_statevector(
                initial_state, n, self.real_dtype
            )
        for kind, arr, qubits in plan:
            if kind == "mat":
                state_t = _apply_mat(state_t, arr, qubits, n)
            else:
                _apply_diag(state_t, arr, qubits, n)
        coeffs = np.ascontiguousarray(state_t).reshape(-1)
        self._check_trace(coeffs, n)
        if sanitizer.enabled():
            sanitizer.record(
                "ptm",
                {"fingerprint": program.fingerprint, "num_qubits": n},
            )
        return coeffs

    def distribution(
        self,
        circuit: Union[QuantumCircuit, CompiledProgram],
        noise_model: Optional[NoiseModel] = None,
        initial_state: Optional[np.ndarray] = None,
    ) -> Distribution:
        """Exact outcome distribution, including readout error if any.

        Readout always folds through the compiled program's resolved
        table — :func:`~repro.sim.program.as_program` bakes the model's
        readout errors in, so the uncompiled path needs no second pass.
        """
        from .density import _apply_readout_table_to_distribution

        program = as_program(circuit, noise_model)
        n = program.num_qubits
        probs = self.probabilities(program, initial_state=initial_state)
        dist = Distribution(probs, n)
        dist = _apply_readout_table_to_distribution(
            dist, program.readout, n
        )
        dist.method = "ptm"
        return dist

    def probabilities(
        self,
        circuit: Union[QuantumCircuit, CompiledProgram],
        noise_model: Optional[NoiseModel] = None,
        initial_state: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Readout-free computational-basis probabilities (``2**n``)."""
        n = circuit.num_qubits
        coeffs = self.run(circuit, noise_model, initial_state)
        return self._probabilities(coeffs.reshape((4,) * n), n)

    # ------------------------------------------------------------------
    def _probabilities(self, state_t: np.ndarray, n: int) -> np.ndarray:
        """Computational-basis probabilities from the {I, Z} subtensor."""
        sub = state_t
        for a in range(n):
            sub = sub.take([0, 3], axis=a)
        M = np.array([[1.0, 1.0], [1.0, -1.0]]) / _SQRT2
        for a in range(n):
            sub = np.moveaxis(np.tensordot(M, sub, axes=([1], [a])), 0, a)
        p = np.ascontiguousarray(sub).reshape(-1)
        if p.dtype != np.float64:
            p = p.astype(np.float64)
        # Low-precision tiers drift at ~1e-7 per step: clip the tiny
        # negatives and renormalise before the Born rule sees them.
        np.clip(p, 0.0, None, out=p)
        total = float(p.sum())
        tol = norm_tolerance(self.dtype)
        if not np.isfinite(total) or abs(total - 1.0) > max(tol, 1e-6):
            raise NumericalHealthError(
                f"ptm engine: probability mass drifted to {total:.6g} "
                f"(tolerance {max(tol, 1e-6):.3g})"
            )
        return p / total

    def _check_trace(self, coeffs: np.ndarray, n: int) -> None:
        """Trace preservation: the all-I coefficient must stay 2**(-n/2)."""
        check_finite(coeffs, "ptm engine")
        trace = float(coeffs[0]) * (_SQRT2 ** n)
        tol = norm_tolerance(self.dtype)
        if abs(trace - 1.0) > max(tol, 1e-6):
            raise NumericalHealthError(
                f"ptm engine: trace drifted to {trace:.6g} "
                f"(tolerance {max(tol, 1e-6):.3g})"
            )
