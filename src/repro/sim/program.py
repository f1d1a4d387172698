"""Compiled execution IR shared by every simulation engine.

:func:`compile_circuit` lowers a transpiled :class:`QuantumCircuit` plus
a :class:`NoiseModel` into a flat :class:`CompiledProgram` — a tuple of
typed ops with everything rate-independent hoisted out of the hot loop:

* :class:`DiagonalOp` — a fused run of adjacent diagonal gates (``rz``,
  ``p``/``cp``/``ccp``, ``z``/``s``/``t``...), executed as one
  precomputed phase multiply;
* :class:`PermutationOp` — ``x``/``cx``/``ccx``/``swap`` index
  permutations (``ccx`` precomputes its source/destination index pair);
* :class:`DenseOp` — genuinely dense 1q gates (``h``, ``sx``) via a
  broadcast matmul when the target qubit is high enough for the BLAS
  pass to beat the strided four-add kernel;
* :class:`GateOp` — fallback that replays the interpreter kernel of
  :mod:`repro.sim.ops` exactly (bit-for-bit);
* :class:`NoiseOp` — an error-channel site with the resolved
  :class:`QuantumError` and, for Pauli channels, the conditioned
  split-sampling table precomputed;
* :class:`ResetSiteOp` / :class:`MeasureSiteOp` — non-unitary circuit
  instructions, executed by the engines themselves.

Compilation is cached at two levels so a rate-only sweep lowers each
circuit exactly once:

1. **lowering** — keyed by circuit identity (weakly) plus the noise
   model's :meth:`~repro.noise.model.NoiseModel.structure_key`.  The
   skeleton fixes the op layout and the *slots* of every noise site
   but not the channel contents.
2. **bind** — keyed by the noise model's full
   :meth:`~repro.noise.model.NoiseModel.fingerprint`; resolves slots to
   channels and the per-qubit readout table.  Binding is cheap (no
   circuit walk of kernels), so recompilation across error rates costs
   microseconds.

Materialised kernels (fused phase tables, ``ccx`` index pairs) are
*not* stored on the ops — ops hold only compact picklable descriptors,
and kernels build lazily into a process-wide content-keyed LRU
(:class:`KernelCache`, budget via ``REPRO_KERNEL_CACHE_MB``).  Two
programs, or two thousand ``rz`` ops with the same angle, share one
vector; shipping a program to a worker process pickles descriptors only.
Every cached kernel is read-only.  On a register of 13 or more qubits a
fused diagonal's table is built on the qubits it touches and broadcast
over the state, so a paper-width program caches kilobytes of phase
tables, not a ``2**n`` vector per fused run.

Runs of diagonal and permutation ops are monomials, and one composer,
:func:`_compose_elems`, folds any run of them into a single
``(src, ph)`` gather-and-multiply.  It writes in place: a lone ``rz``
is two strided scalar multiplies and ``x``/``cx``/``swap``/``ccx`` are
block swaps, so a trajectory fork that re-composes a piece of a segment
builds no ``2**n`` vector and runs no gather per gate.  Its result is
bit-identical to multiplying in each op's full vector and gathering
through each permutation's index map.  A run whose permutations cancel
(transpiled ``cp`` is ``rz·cx·rz·cx·rz``, so many Fourier-basis
segments do) composes to ``src=None`` and applies as an in-place phase
multiply, with no gather at all.  On a wide register a run that touches
few qubits composes on those qubits and is expanded to ``2**n`` once,
with the same bytes.
"""

from __future__ import annotations

import cmath
import hashlib
import threading
import weakref
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from ..circuits import gates as G
from ..circuits.circuit import Instruction, QuantumCircuit
from ..circuits.gates import is_diagonal_gate, phase_on_ones
from ..noise.channels import PauliError, QuantumError
from ..noise.model import NoiseModel
from ..runtime import obs
from ..runtime.envutil import env_mb_bytes
from .backend import canonical_complex, dtype_tag
from .ops import (
    _GLOBAL_BITS,
    _apply_cx,
    _apply_phase_on_mask,
    _apply_swap,
    _apply_x,
    _split_1q,
    apply_instruction,
)

__all__ = [
    "CompiledProgram",
    "CompileStats",
    "compile_circuit",
    "as_program",
    "circuit_fingerprint",
    "compile_cache_stats",
    "reset_compile_caches",
    "kernel_cache_stats",
]

# Gate descriptor: (name, qubits, params) — hashable, picklable, enough
# to rebuild the Gate/Instruction via the registry.
Term = Tuple[str, Tuple[int, ...], Tuple[float, ...]]


def _term(instr: Instruction) -> Term:
    return (instr.gate.name, instr.qubits, tuple(instr.gate.params))


@lru_cache(maxsize=4096)
def _term_instruction(name: str, qubits: Tuple[int, ...],
                      params: Tuple[float, ...]) -> Instruction:
    """Rebuild (and share) the Instruction for a gate descriptor."""
    return Instruction(G.make_gate(name, *params), qubits)


# ---------------------------------------------------------------------------
# Lazy kernel materialisation
# ---------------------------------------------------------------------------

class KernelCache:
    """Content-keyed LRU for materialised kernels with a byte budget.

    Keys are pure-value tuples (kind, n, descriptors...), so identical
    gates anywhere — across ops, programs, engines — share one array.
    Dtype-dependent kernels carry their :func:`~repro.sim.backend.
    dtype_tag` in the key, so a float32 kernel can never collide with
    a float64 one.  Hits, misses and evictions are the
    ``program.kernel_*`` counters of :mod:`repro.runtime.obs`, so they
    travel home from a service worker with the rest of its counters;
    ``total_bytes`` and the entry count are this cache's own.
    """

    def __init__(self, budget_bytes: Optional[int] = None) -> None:
        if budget_bytes is None:
            budget_bytes = env_mb_bytes("REPRO_KERNEL_CACHE_MB", 256)
        self.budget_bytes = budget_bytes
        self._entries: Dict[tuple, object] = {}
        self._nbytes: Dict[tuple, int] = {}
        self._lock = threading.RLock()
        self.total_bytes = 0

    def get(self, key: tuple, builder) -> object:
        # The whole read-modify-write (recency refresh, eviction loop,
        # byte accounting) must be atomic: thread-tier executor workers
        # share this instance.  A duplicate builder() run under
        # contention would be wasteful but correct; a torn eviction
        # would corrupt total_bytes forever.
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                obs.add({"program.kernel_hits": 1})
                # Refresh recency (dicts preserve insertion order).
                del self._entries[key]
                self._entries[key] = value
                return value
            obs.add({"program.kernel_misses": 1})
            value = builder()
            nbytes = sum(
                getattr(a, "nbytes", 0)
                for a in (value if isinstance(value, tuple) else (value,))
            )
            evicted = 0
            while (
                self.total_bytes + nbytes > self.budget_bytes
                and self._entries
            ):
                old_key = next(iter(self._entries))
                self.total_bytes -= self._nbytes.pop(old_key)
                del self._entries[old_key]
                evicted += 1
            if evicted:
                obs.add({"program.kernel_evictions": evicted})
            self._entries[key] = value
            self._nbytes[key] = nbytes
            self.total_bytes += nbytes
            return value

    def clear(self) -> None:
        """Drop every entry and zero the ``program.kernel_*`` counters."""
        with self._lock:
            self._entries.clear()
            self._nbytes.clear()
            self.total_bytes = 0
            obs.reset("program.kernel_")


_KERNELS = KernelCache()


def kernel_cache_stats() -> Dict[str, object]:
    """Hit/miss/byte counters of the process-wide kernel cache."""
    with _KERNELS._lock:
        c = obs.snapshot("program.kernel_").get((), {})
        return {
            "hits": c.get("hits", 0),
            "misses": c.get("misses", 0),
            "evictions": c.get("evictions", 0),
            "total_bytes": _KERNELS.total_bytes,
            "entries": len(_KERNELS._entries),
        }


def _build_diag(
    n: int, terms: Tuple[Term, ...], dtype=None
) -> np.ndarray:
    """The full ``2**n`` phase vector of a run of diagonal gates.

    Each term multiplies in exactly the factor the interpreter kernel
    would have applied (``np.where`` for rz, a masked scalar for the
    phase-on-ones family), so a single-term vector reproduces the
    interpreter bit-for-bit.  The vector is always *built* at the
    canonical complex128 and cast once for lower tiers — the float32
    kernel is the rounded exact kernel, not a float32 accumulation.
    """
    diag = np.ones(1 << n, dtype=canonical_complex)
    for name, qubits, params in terms:
        if name == "rz":
            lam = params[0]
            lo, hi = cmath.exp(-0.5j * lam), cmath.exp(0.5j * lam)
            diag *= np.where(_GLOBAL_BITS.mask_bit(n, qubits[0]), hi, lo)
            continue
        gate = _term_instruction(name, qubits, params).gate
        phase = phase_on_ones(gate)
        if phase is not None:
            mask = _GLOBAL_BITS.mask_bit(n, qubits[0]).copy()
            for q in qubits[1:]:
                mask &= _GLOBAL_BITS.mask_bit(n, q)
            diag[mask] *= phase
            continue
        # Generic diagonal gate (crz, rzz, ...): expand its diagonal.
        sub = np.diag(gate.matrix)
        idx = np.zeros(1 << n, dtype=np.intp)
        for pos, t in enumerate(qubits):
            idx |= ((np.arange(1 << n, dtype=np.intp) >> t) & 1) << pos
        diag *= sub[idx]
    if dtype is not None and np.dtype(dtype) != np.dtype(canonical_complex):
        diag = diag.astype(dtype)
    diag.setflags(write=False)
    return diag


def _build_ccx_perm(n: int, c1: int, c2: int, t: int):
    mask = _GLOBAL_BITS.mask_bit(n, c1) & _GLOBAL_BITS.mask_bit(n, c2)
    src = np.flatnonzero(mask & ~_GLOBAL_BITS.mask_bit(n, t))
    dst = src | (1 << t)
    src.setflags(write=False)
    dst.setflags(write=False)
    return src, dst


# ---------------------------------------------------------------------------
# Monomial algebra
# ---------------------------------------------------------------------------
# A monomial operator has exactly one nonzero entry per row:
# ``new[j] = ph[j] * old[src[j]]``.  Diagonal gates (src = identity) and
# the permutation family x/cx/swap/ccx (ph = 1) are both monomial, and
# monomials are closed under composition — so any noise-free run of
# them collapses to a single gather-and-multiply, however long.  The
# pair ``(src, ph)`` uses ``None`` for an identity component.

def _build_perm_indices(
    n: int, name: str, qubits: Tuple[int, ...]
) -> np.ndarray:
    """Index map of one permutation gate: ``new[j] = old[idx[j]]``.

    Every supported permutation is an involution, so the map equals its
    inverse and can be used directly for both directions.
    """
    idx = np.arange(1 << n, dtype=np.int64)
    if name == "x":
        idx ^= 1 << qubits[0]
    elif name == "cx":
        c, t = qubits
        idx ^= ((idx >> c) & 1) << t
    elif name == "swap":
        a, b = qubits
        d = ((idx >> a) ^ (idx >> b)) & 1
        idx ^= (d << a) | (d << b)
    elif name == "ccx":
        c1, c2, t = qubits
        idx ^= ((idx >> c1) & (idx >> c2) & 1) << t
    else:
        raise ValueError(f"not a permutation gate: {name!r}")
    out = idx.astype(np.int32) if n < 31 else idx
    out.setflags(write=False)
    return out


def _perm_indices(n: int, name: str, qubits: Tuple[int, ...]) -> np.ndarray:
    # Index maps are dtype-independent: one entry serves every tier.
    return _KERNELS.get(
        ("perm", n, name, qubits),
        lambda: _build_perm_indices(n, name, qubits),
    )


@lru_cache(maxsize=4096)
def _rz_factors(lam: float, dtype) -> np.ndarray:
    """``[lo, hi]`` exactly as :func:`_build_diag` puts them in a vector.

    The vector starts at ``1+0j`` and is cast once for lower tiers, so
    the factors go through the same multiply and the same cast.  Cached
    per ``(lam, dtype)`` and read-only.  ``0.0`` and ``-0.0`` share an
    entry, which is safe: the multiply by ``1+0j`` turns both into the
    same bytes.
    """
    f = np.ones(2, dtype=canonical_complex)
    f *= np.array([cmath.exp(-0.5j * lam), cmath.exp(0.5j * lam)])
    f = f.astype(dtype, copy=False)
    f.setflags(write=False)
    return f


def _compose_elems(cur, elems, n: int, dtype=None):
    """Compose ``elems`` (applied in order, after ``cur``) onto ``cur``.

    The one monomial composer.  From the identity ``(None, None)`` a
    run of two or more elements on a wide register composes on the
    qubits it touches (:func:`_compose_on_support`); everything else
    composes at full width (:func:`_compose_full`).  Both give the same
    bytes.
    """
    if (
        cur[0] is None
        and cur[1] is None
        and len(elems) > 1
        and n >= _SUPPORT_MIN_QUBITS
    ):
        support = _local_support(elems, n)
        if len(support) < n:
            return _compose_on_support(elems, support, n, dtype)
    return _compose_full(cur, elems, n, dtype)


#: Registers of at least this many qubits compose runs on their
#: support.  Measured on pieces of the paper's QFA/QFM segments and on
#: random runs (docs/execution_ir.md): at 16 qubits a local run takes
#: 0.1-0.5x the full-width time, at 12 qubits per-element overhead
#: makes it a wash, and at 10 and below it is 1.2-1.9x slower.  A lone
#: element stays at full width everywhere: it is a cached kernel or
#: two strided fills, cheaper than the expansion.
_SUPPORT_MIN_QUBITS = 13

#: A support that reaches below this qubit takes every qubit under it.
_SUPPORT_LOW_QUBITS = 6


def _local_support(elems, n: int) -> Tuple[int, ...]:
    """The sorted qubits a run composes on: the ones it touches, padded.

    Two paddings keep the local run fast and byte-identical:

    * every in-place multiply must cover two or more entries.  NumPy
      multiplies a one-entry array in place through its scalar loop,
      which rounds differently from the vector loop that full-width
      arrays take.  A ``w``-qubit diagonal multiplies ``2**(k - w)``
      entries in place, so spare high qubits join until ``k > w``;
    * the expansion's inner loop runs over the lowest axis of the
      layout, so a support that reaches below ``_SUPPORT_LOW_QUBITS``
      takes every qubit under it and that axis spans at least
      ``2**_SUPPORT_LOW_QUBITS`` entries.
    """
    support = set()
    widest = 0
    for op in elems:
        if isinstance(op, DiagonalOp):
            for _, qubits, _ in op.terms:
                support.update(qubits)
                widest = max(widest, len(qubits))
        else:
            support.update(op.qubits)
    spare = [q for q in range(n - 1, -1, -1) if q not in support]
    support.update(spare[: max(0, widest + 1 - len(support))])
    if min(support) < _SUPPORT_LOW_QUBITS:
        support.update(range(min(_SUPPORT_LOW_QUBITS, n)))
    return tuple(sorted(support))


def _compose_on_support(elems, support: Tuple[int, ...], n: int, dtype):
    """Compose ``elems`` on the ``k`` qubits of ``support``.

    ``support`` holds every qubit the elems touch (see
    :func:`_local_support`).  The elems are relabelled onto local qubits (``support[i]`` becomes
    qubit ``i``, so the order is kept), composed at width ``k`` by
    :func:`_compose_full`, and expanded once to ``2**n``.  A local
    C-order tensor lists its qubits in the same order as the full one,
    so the expansion is a broadcast with no transpose:

    * ``ph[j] = ph_l[l]``, where ``l`` collects the support bits of
      ``j``;
    * ``src[j] = j + dep[src_l[l]] - dep[l]``, where ``dep`` deposits
      local bits onto the support.

    Every amplitude gets the same factors in the same order as at full
    width, so the result is byte-identical; a run whose permutations
    cancel still comes back ``src=None``.
    """
    local = {q: i for i, q in enumerate(support)}
    relabelled = [
        DiagonalOp(_relabel(op.terms, local))
        if isinstance(op, DiagonalOp)
        else PermutationOp(op.name, tuple(local[q] for q in op.qubits))
        for op in elems
    ]
    src_l, ph_l = _compose_full((None, None), relabelled, len(support), dtype)
    src = None
    if src_l is not None:
        full_shape, local_shape, dep = _support_layout(n, support)
        delta = dep[src_l]
        delta -= dep
        src = np.empty(1 << n, dtype=src_l.dtype)
        np.add(
            _identity_indices(n).reshape(full_shape),
            delta.reshape(local_shape),
            out=src.reshape(full_shape),
        )
    ph = None if ph_l is None else _expand_phase(ph_l, support, n)
    return src, ph


def _relabel(terms: Tuple[Term, ...], local: Dict[int, int]) -> Tuple[Term, ...]:
    """``terms`` with each qubit ``q`` renamed ``local[q]``."""
    return tuple(
        (name, tuple(local[q] for q in qubits), params)
        for name, qubits, params in terms
    )


def _expand_phase(ph_l: np.ndarray, support: Tuple[int, ...], n: int):
    """The ``2**n`` phase vector whose entry ``j`` is ``ph_l[l]``, where
    ``l`` collects the support bits of ``j``: a broadcast copy."""
    full_shape, local_shape, _ = _support_layout(n, support)
    ph = np.empty(1 << n, dtype=ph_l.dtype)
    ph.reshape(full_shape)[...] = ph_l.reshape(local_shape)
    return ph


@lru_cache(maxsize=4096)
def _diag_support(n: int, terms: Tuple[Term, ...]):
    """Where a fused diagonal's kernel is built: ``(support, local
    terms)``, or ``None`` for a full-width kernel.

    On a register of at least ``_SUPPORT_MIN_QUBITS`` qubits the kernel
    is built on the run's padded support (:func:`_local_support`), with
    its terms relabelled onto local qubits as
    :func:`_compose_on_support` relabels them.  Each entry is the
    product of the same factors in the same order as at full width,
    and the padding keeps every in-place multiply over two or more
    entries, so the kernel expands to the bytes of
    ``_build_diag(n, terms)``.  A support that spans the register keeps
    the full-width kernel.
    """
    if n < _SUPPORT_MIN_QUBITS:
        return None
    support = _local_support([DiagonalOp(terms)], n)
    if len(support) == n:
        return None
    local = {q: i for i, q in enumerate(support)}
    return support, _relabel(terms, local)


@lru_cache(maxsize=1024)
def _support_layout(n: int, support: Tuple[int, ...]):
    """Broadcast shapes and deposit map of a support at width ``n``.

    ``full_shape`` views a ``2**n`` vector with each maximal run of
    support (or non-support) qubits as one axis, high qubits first;
    ``local_shape`` is the same with non-support axes of length 1.
    ``dep[l]`` places the bits of local index ``l`` on the support.
    All three are ``2**len(support)`` or smaller; nothing full-size is
    kept.
    """
    inside = set(support)
    full_shape: List[int] = []
    local_shape: List[int] = []
    last = None
    for q in range(n - 1, -1, -1):
        flag = q in inside
        if flag == last:
            full_shape[-1] *= 2
            if flag:
                local_shape[-1] *= 2
        else:
            full_shape.append(2)
            local_shape.append(2 if flag else 1)
            last = flag
    k = len(support)
    dep = np.zeros(1 << k, dtype=np.int32 if n < 31 else np.int64)
    lidx = np.arange(1 << k)
    for i, q in enumerate(support):
        dep |= ((lidx >> i) & 1) << q
    dep.setflags(write=False)
    return tuple(full_shape), tuple(local_shape), dep


def _compose_full(cur, elems, n: int, dtype=None):
    """Compose ``elems`` onto ``cur`` at full width ``2**n``.

    It writes in place: the arrays of ``cur`` and any cached factor are
    copied once, on their first write, and never mutated.  Each element
    then acts on ``(src, ph)`` directly, and the result is bit-identical
    to folding the full ``2**n`` kernels (``ph * diag``,
    ``np.take(a, perm)``) element by element:

    * a single-term ``rz`` is two strided scalar multiplies, ``hi`` on
      the half where its bit is set and ``lo`` on the other;
    * ``x``/``cx``/``swap``/``ccx`` are the block swaps
      :meth:`PermutationOp.apply` does on states, run on ``src`` and
      ``ph`` — pure moves, equal to the gather;
    * every other diagonal (fused runs, ``phase_on_ones`` terms,
      generic diagonals) multiplies in its full vector.  A masked
      multiply that skipped the ``1+0j`` entries would not be bitwise:
      it keeps an imaginary ``-0.0`` that the multiply turns to ``+0.0``.

    A ``src`` the composer built from two or more permutations that
    comes out as the identity map is returned as ``None``, the
    canonical identity, so appliers multiply instead of gathering.
    """
    src, ph = cur
    own_src = own_ph = False
    cdt = np.dtype(canonical_complex if dtype is None else dtype)
    for op in elems:
        if isinstance(op, DiagonalOp):
            name, qubits, params = op.terms[0]
            if len(op.terms) > 1 or name != "rz":
                d = op.diag(n, dtype)
                if ph is None:
                    ph = d
                elif own_ph:
                    ph *= d
                else:
                    ph, own_ph = ph * d, True
                continue
            lo, hi = _rz_factors(params[0], cdt)
            if ph is None:
                ph, own_ph = np.empty(1 << n, dtype=cdt), True
                halves = _split_1q(ph[None], qubits[0], n)
                halves[:, 0, :] = lo
                halves[:, 1, :] = hi
                continue
            if not own_ph:
                ph, own_ph = ph.copy(), True
            halves = _split_1q(ph[None], qubits[0], n)
            halves[:, 0, :] *= lo
            halves[:, 1, :] *= hi
            continue
        if src is None:
            src = _perm_indices(n, op.name, op.qubits)
        else:
            if not own_src:
                src, own_src = src.copy(), True
            op.apply(src[None], n)
        if ph is not None:
            if not own_ph:
                ph, own_ph = ph.copy(), True
            op.apply(ph[None], n)
    if own_src and np.array_equal(src, _identity_indices(n)):
        src = None
    return src, ph


@lru_cache(maxsize=None)
def _identity_indices(n: int) -> np.ndarray:
    """The read-only identity index map, in :func:`_build_perm_indices`'s
    dtype, that the composer compares an owned ``src`` against."""
    idx = np.arange(1 << n, dtype=np.int32 if n < 31 else np.int64)
    idx.setflags(write=False)
    return idx


def _frozen(mono):
    """Mark a composed ``(src, ph)`` read-only before it is shared."""
    for a in mono:
        if a is not None:
            a.setflags(write=False)
    return mono


def _mono_apply_rows(
    buf: np.ndarray,
    rows: Iterable[int],
    mono,
    scratch: Optional[np.ndarray] = None,
) -> None:
    """Apply a monomial to selected rows of ``buf`` in place.

    The one monomial applier.  ``rows`` need not be contiguous; each
    row is gathered independently through :func:`np.take` into
    ``scratch`` (``buf[r]`` is a view) — an order of magnitude faster
    than column fancy-indexing a C-order batch, and never slower than
    one 2-D gather.  A pure phase (``src`` is ``None``) gathers
    nothing: ``row *= ph`` is byte-equal to gathering through the
    identity map and then multiplying.
    """
    src, ph = mono
    if src is None:
        if ph is not None:
            for r in rows:
                buf[r] *= ph
        return
    if scratch is None:
        scratch = np.empty(buf.shape[1], dtype=buf.dtype)
    for r in rows:
        row = buf[r]
        np.take(row, src, out=scratch)
        if ph is None:
            row[...] = scratch
        else:
            np.multiply(scratch, ph, out=row)


# ---------------------------------------------------------------------------
# Program ops
# ---------------------------------------------------------------------------

class ProgramOp:
    """Base class: a single lowered operation of a compiled program."""

    kind = "unitary"
    __slots__ = ()

    def apply(self, state: np.ndarray, n: int) -> None:
        """In-place application to a ``(B, 2**n)`` batch."""
        raise NotImplementedError

    def term_list(self) -> Tuple[Term, ...]:
        """The gate descriptors this op lowers (for decompilation)."""
        return ()


class DiagonalOp(ProgramOp):
    """A fused run of diagonal gates: one phase-vector multiply.

    Single-term ops (a lone ``rz``/``cp``/... between two noise sites —
    the common case at paper noise, where every gate carries a channel)
    replay the interpreter kernel directly instead of materialising and
    caching a ``2**n`` vector per gate; only genuinely fused runs pay
    for (and amortise) a cached phase table.  On a wide register that
    table covers only the run's padded support (:func:`_diag_support`)
    and :meth:`apply` broadcasts it over the state, byte-equal to the
    full-width multiply.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Term]) -> None:
        self.terms = tuple(terms)

    def diag(self, n: int, dtype=None) -> np.ndarray:
        """The op's read-only ``2**n`` phase vector.

        A fused run whose kernel lives on its support is expanded into
        a fresh vector; nothing full-size is cached for it.
        """
        if len(self.terms) == 1:
            return _build_diag(n, self.terms, dtype)
        support, d = self._kernel(n, dtype)
        if support is not None:
            d = _expand_phase(d, support, n)
            d.setflags(write=False)
        return d

    def _kernel(self, n: int, dtype):
        """``(support, kernel)`` of a fused run, kernel-cached.

        ``support`` is ``None`` for a full-width kernel; otherwise the
        kernel is the ``2**len(support)`` table of
        :func:`_diag_support`, keyed at that local width.
        """
        tag = dtype_tag(canonical_complex if dtype is None else dtype)
        placed = _diag_support(n, self.terms)
        support, terms = (None, self.terms) if placed is None else placed
        k = n if support is None else len(support)
        return support, _KERNELS.get(
            ("diag", k, terms, tag), lambda: _build_diag(k, terms, dtype)
        )

    def apply(self, state: np.ndarray, n: int) -> None:
        if len(self.terms) == 1:
            name, qubits, params = self.terms[0]
            if name == "rz":
                lam = params[0]
                lo, hi = cmath.exp(-0.5j * lam), cmath.exp(0.5j * lam)
                state *= np.where(
                    _GLOBAL_BITS.mask_bit(n, qubits[0]), hi, lo
                )
                return
            phase = phase_on_ones(_term_instruction(*self.terms[0]).gate)
            if phase is not None:
                _apply_phase_on_mask(state, phase, qubits, n)
                return
        support, d = self._kernel(n, state.dtype)
        if support is None:
            state *= d
        elif state.flags.c_contiguous:
            # Broadcast the local table over the support's layout: the
            # same multiply per amplitude, with no 2**n temporary.
            full_shape, local_shape, _ = _support_layout(n, support)
            view = state.reshape((-1,) + full_shape)
            view *= d.reshape(local_shape)
        else:
            state *= _expand_phase(d, support, n)

    def term_list(self) -> Tuple[Term, ...]:
        return self.terms

    def __repr__(self) -> str:
        return f"DiagonalOp({len(self.terms)} terms)"


class PermutationOp(ProgramOp):
    """``x``/``cx``/``swap``/``ccx`` as pure index permutations."""

    __slots__ = ("name", "qubits")

    def __init__(self, name: str, qubits: Tuple[int, ...]) -> None:
        self.name = name
        self.qubits = qubits

    def apply(self, state: np.ndarray, n: int) -> None:
        q = self.qubits
        if self.name == "x":
            _apply_x(state, q[0], n)
        elif self.name == "cx":
            _apply_cx(state, q[0], q[1], n)
        elif self.name == "swap":
            _apply_swap(state, q[0], q[1], n)
        else:  # ccx with a cached index pair
            src, dst = _KERNELS.get(
                ("ccx", n) + q, lambda: _build_ccx_perm(n, *q)
            )
            tmp = state[:, src].copy()
            state[:, src] = state[:, dst]
            state[:, dst] = tmp

    def term_list(self) -> Tuple[Term, ...]:
        return ((self.name, self.qubits, ()),)

    def __repr__(self) -> str:
        return f"PermutationOp({self.name} {list(self.qubits)})"


class DenseOp(ProgramOp):
    """A dense 1q gate applied as a broadcast (2,2) matmul.

    Beats the four-add split kernel once the inner stride ``2**q`` is
    large enough for BLAS to win; lowering only emits this op for
    ``q >= _DENSE_MATMUL_MIN_QUBIT`` (6, inner stride 64).  That
    crossover was measured with threaded BLAS, before repro's
    processes ran OpenBLAS on one thread (see docs/simulation.md), and
    applying row by row leaves it where it was.

    The batch is applied in blocks of whole rows, each about
    ``2**_DENSE_BLOCK_QUBITS`` amplitudes (one row at a time from 14
    qubits up, so at paper width): each block's matmul writes a scratch
    of one block, which is copied back.  Every block makes the same
    ``(2, 2) @ (2, 2**q)`` products as one matmul over the whole batch,
    so the bytes are equal, and no ``(B, 2**n)`` temporary is built.
    """

    __slots__ = ("term",)

    def __init__(self, term: Term) -> None:
        self.term = term

    def apply(self, state: np.ndarray, n: int) -> None:
        name, qubits, params = self.term
        U = _term_instruction(name, qubits, params).gate.matrix
        q = qubits[0]
        B = state.shape[0]
        rows = max(1, min(B, (1 << _DENSE_BLOCK_QUBITS) >> n))
        scratch = np.empty(
            (rows << (n - 1 - q), 2, 1 << q), dtype=np.result_type(U, state)
        )
        for start in range(0, B, rows):
            s = state[start:start + rows].reshape(-1, 2, 1 << q)
            out = scratch[: s.shape[0]]
            np.matmul(U, s, out=out)
            s[...] = out

    def term_list(self) -> Tuple[Term, ...]:
        return (self.term,)

    def __repr__(self) -> str:
        return f"DenseOp({self.term[0]} q{list(self.term[1])})"


class GateOp(ProgramOp):
    """Fallback: replay the interpreter kernel for one gate exactly."""

    __slots__ = ("term",)

    def __init__(self, term: Term) -> None:
        self.term = term

    def apply(self, state: np.ndarray, n: int) -> None:
        instr = _term_instruction(*self.term)
        out = apply_instruction(state, instr, n)
        if out is not state:
            # The general k>=3 dense path returns a fresh array; copy
            # back so slice-aliased callers keep in-place semantics.
            state[...] = out

    def term_list(self) -> Tuple[Term, ...]:
        return (self.term,)

    def __repr__(self) -> str:
        return f"GateOp({self.term[0]} q{list(self.term[1])})"


class RawGateOp(ProgramOp):
    """A gate outside the builder registry: carries its Instruction.

    Rare (custom-matrix gates only); not shareable across processes the
    way descriptor ops are, but still executes through the interpreter
    kernel.
    """

    __slots__ = ("instr",)

    def __init__(self, instr: Instruction) -> None:
        self.instr = instr

    def apply(self, state: np.ndarray, n: int) -> None:
        out = apply_instruction(state, self.instr, n)
        if out is not state:
            state[...] = out

    def term_list(self) -> Tuple[Term, ...]:
        return ()

    def __repr__(self) -> str:
        return f"RawGateOp({self.instr!r})"


class NoiseOp(ProgramOp):
    """An error-channel site with the channel resolved at bind time.

    For Pauli channels the conditioned table used by clean-shot
    splitting is precomputed: ``labels``/``cond`` are the non-identity
    strings and their renormalised probabilities, ``e`` the total
    non-identity weight.
    """

    kind = "noise"
    __slots__ = ("qubits", "error", "labels", "cond", "e")

    def __init__(self, qubits: Tuple[int, ...], error: QuantumError) -> None:
        self.qubits = qubits
        self.error = error
        if isinstance(error, PauliError):
            nontrivial = [
                (p, pr)
                for p, pr in zip(error.paulis, error.probs)
                if set(p) != {"I"} and pr > 0
            ]
            self.e = float(sum(pr for _, pr in nontrivial))
            self.labels = [p for p, _ in nontrivial]
            self.cond = (
                np.array([pr for _, pr in nontrivial]) / self.e
                if self.e > 0
                else np.empty(0)
            )
        else:
            self.labels, self.cond, self.e = None, None, None

    @property
    def is_pauli(self) -> bool:
        return isinstance(self.error, PauliError)

    def __repr__(self) -> str:
        return f"NoiseOp({self.error!r} on q{list(self.qubits)})"


class ResetSiteOp(ProgramOp):
    """A mid-circuit ``reset`` instruction (engines own the semantics)."""

    kind = "reset"
    __slots__ = ("qubit",)

    def __init__(self, qubit: int) -> None:
        self.qubit = qubit

    def __repr__(self) -> str:
        return f"ResetSiteOp(q{self.qubit})"


class MeasureSiteOp(ProgramOp):
    """A ``measure`` instruction; terminal sampling is engine-owned."""

    kind = "measure"
    __slots__ = ("qubits", "clbits")

    def __init__(self, qubits: Tuple[int, ...], clbits: Tuple[int, ...]) -> None:
        self.qubits = qubits
        self.clbits = clbits

    def __repr__(self) -> str:
        return f"MeasureSiteOp(q{list(self.qubits)})"


_MONOMIAL_OP_TYPES = (DiagonalOp, PermutationOp)


class _MonoSegment:
    """A maximal run of monomial ops with its interior noise sites.

    ``elems`` are the run's Diagonal/Permutation ops in order; ``sites``
    are ``(elem_pos, noise_op, site_ordinal)`` markers, where
    ``elem_pos`` is the number of elems preceding the site and
    ``site_ordinal`` indexes :meth:`CompiledProgram.pauli_sites`.  When
    no site fires, the whole run executes as one cached monomial
    (:meth:`full`): a phase multiply when its permutations cancel, a
    gather-and-multiply otherwise.  A firing site only forces the
    walker to materialise the partial product up to that point.
    """

    __slots__ = ("elems", "sites", "key")

    def __init__(self, elems, sites, n: int) -> None:
        self.elems = elems
        self.sites = sites
        self.key = ("mono", n) + tuple(
            e.terms if isinstance(e, DiagonalOp) else (e.name, e.qubits)
            for e in elems
        )

    def full(self, n: int, dtype=None):
        """The run's composed monomial ``(src, ph)`` (kernel-cached).

        ``dtype`` selects the precision tier of the phase component;
        keys carry the dtype tag so tiers never share (or pollute)
        entries.
        """
        tag = dtype_tag(canonical_complex if dtype is None else dtype)
        return _KERNELS.get(
            self.key + (tag,),
            lambda: _frozen(
                _compose_elems((None, None), self.elems, n, dtype)
            ),
        )

    def partial(self, n: int, start: int, end: int, dtype=None):
        """The composed monomial of ``elems[start:end]`` (kernel-cached).

        The batched scheduler walks a firing row piecewise between its
        own fire positions; caching each piece by ``(key, start, end)``
        shares the composition across rows and fused tasks.
        ``partial(n, 0, len(elems))`` is exactly :meth:`full` (same
        cache entry), so event-free spans pay nothing extra.
        """
        if start == 0 and end == len(self.elems):
            return self.full(n, dtype)
        tag = dtype_tag(canonical_complex if dtype is None else dtype)
        return _KERNELS.get(
            (self.key, start, end, tag),
            lambda: _frozen(_compose_elems(
                (None, None), self.elems[start:end], n, dtype
            )),
        )

    def __repr__(self) -> str:
        return (
            f"_MonoSegment({len(self.elems)} elems, "
            f"{len(self.sites)} sites)"
        )


# ---------------------------------------------------------------------------
# The compiled program
# ---------------------------------------------------------------------------

class CompiledProgram:
    """A lowered, noise-bound, engine-agnostic execution program.

    Attributes
    ----------
    ops:
        The flat op tuple, in circuit order.
    readout:
        ``((qubit, p01, p10), ...)`` resolved readout-error table.
    pauli_only:
        True when every noise site is a Pauli channel and the program
        has no mid-circuit reset — the precondition for the trajectory
        engine's clean-shot split.
    fingerprint:
        Short content hash of (circuit, noise) — stable across
        processes, suitable for checkpoint payloads.
    """

    #: slots that round-trip through pickle; ``_stream`` is a derived
    #: per-process execution plan and is rebuilt lazily after unpickling.
    _PICKLE_SLOTS = (
        "num_qubits",
        "ops",
        "readout",
        "pauli_only",
        "fingerprint",
        "circuit_fingerprint",
        "noise_fingerprint",
    )

    __slots__ = _PICKLE_SLOTS + ("_stream",)

    def __init__(
        self,
        num_qubits: int,
        ops: Tuple[ProgramOp, ...],
        readout: Tuple[Tuple[int, float, float], ...],
        fingerprint: str,
        circuit_fp: str,
        noise_fp: str,
    ) -> None:
        self.num_qubits = num_qubits
        self.ops = ops
        self.readout = readout
        self.fingerprint = fingerprint
        self.circuit_fingerprint = circuit_fp
        self.noise_fingerprint = noise_fp
        self.pauli_only = all(
            op.is_pauli for op in ops if op.kind == "noise"
        ) and not any(op.kind == "reset" for op in ops)
        self._stream = None

    # -- pickling (slots class) -----------------------------------------
    def __getstate__(self):
        return tuple(getattr(self, s) for s in self._PICKLE_SLOTS)

    def __setstate__(self, state):
        for s, v in zip(self._PICKLE_SLOTS, state):
            object.__setattr__(self, s, v)
        self._stream = None

    # -- introspection ---------------------------------------------------
    @property
    def num_noise_sites(self) -> int:
        return sum(1 for op in self.ops if op.kind == "noise")

    def pauli_sites(self) -> List[Tuple[int, NoiseOp]]:
        """(op index, NoiseOp) for every Pauli noise site with weight."""
        return [
            (i, op)
            for i, op in enumerate(self.ops)
            if op.kind == "noise" and op.e
        ]

    def exec_stream(self) -> List[tuple]:
        """The segmented execution plan: ``("seg", _MonoSegment)`` runs
        interleaved with ``("op", op)`` boundary ops.

        Monomial runs (diagonal + permutation gates) are grouped with
        their interior noise sites so a trajectory walker can execute a
        fire-free run as one composed gather; dense gates, resets and
        any other non-monomial op are boundaries.  Zero-weight noise
        sites and terminal measure markers are dropped — neither can
        affect the state walk.  Built lazily, cached per process.
        """
        stream = self._stream
        if stream is not None:
            return stream
        items: List[tuple] = []
        elems: List[ProgramOp] = []
        sites: List[tuple] = []
        ordinal = 0

        def flush() -> None:
            nonlocal elems, sites
            if elems or sites:
                items.append(
                    ("seg",
                     _MonoSegment(tuple(elems), tuple(sites),
                                  self.num_qubits))
                )
            elems, sites = [], []

        for op in self.ops:
            if isinstance(op, _MONOMIAL_OP_TYPES):
                elems.append(op)
            elif op.kind == "noise":
                if op.is_pauli:
                    if op.e:
                        sites.append((len(elems), op, ordinal))
                        ordinal += 1
                else:
                    # Non-Pauli channels can't be a segment site (their
                    # action isn't a sparse per-row fire) — keep them in
                    # the stream as explicit boundary ops.
                    flush()
                    items.append(("op", op))
            elif op.kind == "measure":
                continue
            else:
                flush()
                items.append(("op", op))
        flush()
        self._stream = items
        return items

    def decompile(self) -> QuantumCircuit:
        """Rebuild a unitary-only circuit from the lowered gate terms.

        Fused runs expand back into their member gates, so the result is
        directly comparable to the source circuit with
        :func:`repro.lint.check_equivalence` (noise sites, resets and
        measurements are dropped).
        """
        out = QuantumCircuit(self.num_qubits, name="decompiled")
        for op in self.ops:
            if isinstance(op, RawGateOp):
                out._instructions.append(op.instr)
                continue
            for term in op.term_list():
                out._instructions.append(_term_instruction(*term))
        return out

    def __repr__(self) -> str:
        return (
            f"<CompiledProgram {self.num_qubits}q, {len(self.ops)} ops, "
            f"{self.num_noise_sites} noise sites, fp={self.fingerprint}>"
        )


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------

@dataclass
class _NoiseSite:
    """A rate-independent noise placeholder in a skeleton."""

    slot: tuple
    qubits: Tuple[int, ...]


class _Skeleton:
    """Rate-independent lowering of one circuit: ops + noise slots."""

    __slots__ = ("num_qubits", "items", "circuit_fp", "_bound")

    #: max bound programs retained per skeleton (per structure key the
    #: binds of a sweep's distinct rates; far below this in practice).
    BIND_CAP = 128

    def __init__(self, num_qubits, items, circuit_fp) -> None:
        self.num_qubits = num_qubits
        self.items = items  # tuple of ProgramOp | _NoiseSite
        self.circuit_fp = circuit_fp
        self._bound: Dict[str, CompiledProgram] = {}


@dataclass(frozen=True)
class CompileStats:
    """A snapshot of the two cache levels' counters (process-local)."""

    lowerings: int = 0
    lower_hits: int = 0
    binds: int = 0
    bind_hits: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


_LOWER_CACHE: "weakref.WeakKeyDictionary[QuantumCircuit, Dict[tuple, _Skeleton]]" = (
    weakref.WeakKeyDictionary()
)
_FP_CACHE: "weakref.WeakKeyDictionary[QuantumCircuit, str]" = (
    weakref.WeakKeyDictionary()
)
#: Guards the compile caches (_LOWER_CACHE/_FP_CACHE/skeleton binds).
#: Reentrant: compile_circuit -> _lower ->
#: circuit_fingerprint all touch cached state.  Holding it across the
#: lowering serialises compilation, which is deliberate — lowering is
#: rare (cache-keyed per structure) and a duplicate concurrent lowering
#: would waste far more than the lock costs.
_COMPILE_LOCK = threading.RLock()


def compile_cache_stats() -> CompileStats:
    """The process-wide compile-cache counters, read at one instant."""
    c = obs.snapshot("program.").get((), {})
    return CompileStats(**{f.name: c.get(f.name, 0) for f in fields(CompileStats)})


def reset_compile_caches() -> None:
    """Drop every cached skeleton/bind/kernel and zero the counters."""
    with _COMPILE_LOCK:
        _LOWER_CACHE.clear()
        _FP_CACHE.clear()
        _KERNELS.clear()
        obs.reset("program.")


def circuit_fingerprint(circuit: QuantumCircuit) -> str:
    """Short content hash of a circuit's instruction list."""
    fp = _FP_CACHE.get(circuit)
    if fp is None:
        h = hashlib.sha256()
        h.update(str(circuit.num_qubits).encode())
        for instr in circuit:
            h.update(
                f"{instr.gate.name}|{instr.qubits}|{instr.gate.params}"
                f"|{instr.clbits}".encode()
            )
        fp = h.hexdigest()[:16]
        with _COMPILE_LOCK:
            try:
                _FP_CACHE[circuit] = fp
            except TypeError:  # unhashable/non-weakrefable circuit subclass
                pass
    return fp


_DENSE_MATMUL_MIN_QUBIT = 6  # inner stride 64: measured BLAS crossover
#: DenseOp blocks hold about ``2**_DENSE_BLOCK_QUBITS`` amplitudes
#: (256 KB at complex128).  Against blocks of 2**12, 2**16 and 2**18 at
#: 8-16 qubits and 4-256 rows, none was more than 6% faster than this
#: one (docs/execution_ir.md).
_DENSE_BLOCK_QUBITS = 14


def _lower(circuit: QuantumCircuit, noise: NoiseModel) -> _Skeleton:
    """Lower a circuit against a noise *structure* (rates ignored)."""
    n = circuit.num_qubits
    items: List[object] = []
    pending: List[Term] = []

    def flush() -> None:
        if pending:
            items.append(DiagonalOp(tuple(pending)))
            pending.clear()

    for instr in circuit:
        gate = instr.gate
        name = gate.name
        if name == "barrier":
            continue
        if name == "measure":
            flush()
            items.append(MeasureSiteOp(instr.qubits, instr.clbits))
            continue
        if name == "reset":
            flush()
            items.append(ResetSiteOp(instr.qubits[0]))
            continue

        # Unitary lowering.  ``id`` emits no op (identity) but still
        # carries noise below — the paper's 1q error axis includes it.
        if name != "id":
            if name not in G.GATE_BUILDERS:
                flush()
                items.append(RawGateOp(instr))
            elif gate.is_unitary and is_diagonal_gate(gate):
                pending.append(_term(instr))
            elif name in ("x", "cx", "swap", "ccx"):
                flush()
                items.append(PermutationOp(name, instr.qubits))
            elif (
                gate.num_qubits == 1
                and gate.is_unitary
                and instr.qubits[0] >= _DENSE_MATMUL_MIN_QUBIT
            ):
                flush()
                items.append(DenseOp(_term(instr)))
            else:
                flush()
                items.append(GateOp(_term(instr)))

        # Noise sites: expand 1q channels onto each qubit of wider
        # gates here (same order as the interpreting engines) so the
        # bound program needs no arity logic in the hot loop.
        sites = noise.errors_for(name, instr.qubits)
        if sites:
            flush()
            for slot, err in sites:
                if err.num_qubits == 1 and len(instr.qubits) > 1:
                    for q in instr.qubits:
                        items.append(_NoiseSite(slot, (q,)))
                elif err.num_qubits == len(instr.qubits):
                    items.append(_NoiseSite(slot, instr.qubits))
                else:
                    raise ValueError(
                        f"error arity {err.num_qubits} does not match "
                        f"gate {name!r} on {len(instr.qubits)} qubits"
                    )
    flush()
    return _Skeleton(n, tuple(items), circuit_fingerprint(circuit))


def _bind(skeleton: _Skeleton, noise: NoiseModel) -> CompiledProgram:
    """Resolve a skeleton's noise slots against a concrete model."""
    ops: List[ProgramOp] = []
    for item in skeleton.items:
        if isinstance(item, _NoiseSite):
            ops.append(NoiseOp(item.qubits, noise.error_by_slot(item.slot)))
        else:
            ops.append(item)
    readout = []
    for q in range(skeleton.num_qubits):
        ro = noise.readout_error(q)
        if ro is not None:
            readout.append((q, ro.p01, ro.p10))
    noise_fp = noise.fingerprint()
    # The "|True" suffix is the retired optimize flag; it stays so that
    # fingerprints (checkpoints, PointResults) match older runs.
    fp = hashlib.sha256(
        f"{skeleton.circuit_fp}|{noise_fp}|True".encode()
    ).hexdigest()[:16]
    return CompiledProgram(
        skeleton.num_qubits,
        tuple(ops),
        tuple(readout),
        fp,
        skeleton.circuit_fp,
        noise_fp,
    )


def compile_circuit(
    circuit: QuantumCircuit,
    noise_model: Optional[NoiseModel] = None,
) -> CompiledProgram:
    """Lower ``circuit`` + ``noise_model`` into a :class:`CompiledProgram`.

    Caching: the expensive lowering is shared by every model with the
    same :meth:`~repro.noise.model.NoiseModel.structure_key`; the cheap
    bind is shared by identical fingerprints.  A rate-only sweep over
    one circuit therefore performs exactly one lowering.
    """
    noise = noise_model or NoiseModel.ideal()
    with _COMPILE_LOCK:
        per_circuit = _LOWER_CACHE.get(circuit)
        if per_circuit is None:
            per_circuit = {}
            try:
                _LOWER_CACHE[circuit] = per_circuit
            except TypeError:
                pass
        key = noise.structure_key()
        skeleton = per_circuit.get(key)
        lowered = skeleton is None
        if lowered:
            skeleton = _lower(circuit, noise)
            per_circuit[key] = skeleton

        noise_fp = noise.fingerprint()
        program = skeleton._bound.get(noise_fp)
        bound = program is None
        if bound:
            program = _bind(skeleton, noise)
            if len(skeleton._bound) >= _Skeleton.BIND_CAP:
                skeleton._bound.pop(next(iter(skeleton._bound)))
            skeleton._bound[noise_fp] = program
        obs.add({
            "program.lowerings" if lowered else "program.lower_hits": 1,
            "program.binds" if bound else "program.bind_hits": 1,
        })
        return program


def as_program(
    target: Union[QuantumCircuit, CompiledProgram],
    noise_model: Optional[NoiseModel] = None,
) -> CompiledProgram:
    """Internal shim: accept either a circuit or a precompiled program."""
    if isinstance(target, CompiledProgram):
        return target
    return compile_circuit(target, noise_model)
