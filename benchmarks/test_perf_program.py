"""Compiled-program benchmarks: lowering payoff and sweep cache behaviour.

* What do cold lowering and a compiled trajectory run cost at the
  paper's QFM workload?
* Does a rate-only sweep lower exactly once, re-binding per rate?
* What does composing the longest monomial segment of the paper-width
  QFA program cost, and is the in-place composer still bit-identical
  to the per-element fold it replaced?
* That segment's ``cx`` pairs cancel: what does applying it to a batch
  as a phase multiply save over a gather through the identity map, and
  are the two byte-equal?
* What does composing a short piece of that segment on the few qubits
  it touches cost against composing it at full width, and is it still
  bit-identical to the fold?
* What does a cold ideal QFA 8+8 run cost, the rate-0 cell a freshly
  forked sweep worker runs, and does it stay under 1 MB of kernels?

Timings honour ``REPRO_SCALE``, except the three segment benchmarks
and the ideal run, which always use the paper-width (QFA 8+8) program
that ``paper-sweep`` runs.
"""

import time

import numpy as np
import pytest

from repro.core import qfm_circuit
from repro.experiments.instances import generate_instances
from repro.experiments.runner import build_compiled_program
from repro.noise import NoiseModel
from repro.noise.ibm import P2Q_SWEEP
from repro.sim import StatevectorEngine, TrajectoryEngine
from repro.sim.program import (
    _KERNELS,
    DiagonalOp,
    _build_diag,
    _compose_elems,
    _compose_full,
    _local_support,
    _mono_apply_rows,
    _perm_indices,
    compile_cache_stats,
    compile_circuit,
    kernel_cache_stats,
    reset_compile_caches,
)
from repro.transpile import transpile

SHOTS = 1024
# Trajectory counts sized so a round stays in seconds at every scale;
# the per-trajectory kernel cost (what the IR accelerates) dominates.
_TRAJ = {"smoke": 8, "default": 16, "paper": 64}


@pytest.fixture(scope="module")
def qfm(scale):
    """The paper's multiplier cell at the current scale, transpiled."""
    return transpile(qfm_circuit(scale.qfm_n, scale.qfm_n))


@pytest.fixture(scope="module")
def noise():
    """The paper's 2q reference point (cx depolarizing at 1%)."""
    return NoiseModel.depolarizing(p2q=0.01)


def test_compile_latency(benchmark, qfm, noise):
    """Cold lowering + bind cost — what the cache amortises away."""

    def compile_cold():
        reset_compile_caches()
        return compile_circuit(qfm, noise)

    benchmark.pedantic(compile_cold, rounds=5, iterations=1)


def test_trajectory_program_path(benchmark, scale, qfm, noise):
    """Program-path trajectory run (compile cached outside the timer)."""
    program = compile_circuit(qfm, noise)

    def run():
        eng = TrajectoryEngine(trajectories=_TRAJ[scale.name], seed=7)
        return eng.run(program, noise, shots=SHOTS)

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_rate_only_sweep_compiles_once(qfm):
    """A 2q-rate sweep lowers one skeleton and binds once per rate."""
    reset_compile_caches()
    rates = [r for r in P2Q_SWEEP if r > 0]
    programs = [
        compile_circuit(qfm, NoiseModel.depolarizing(p2q=r)) for r in rates
    ]
    stats = compile_cache_stats()
    assert stats.lowerings == 1, stats
    assert stats.binds == len(rates), stats
    assert len({p.fingerprint for p in programs}) == len(rates)
    # A second pass over the same rates is pure cache hits.
    for r in rates:
        compile_circuit(qfm, NoiseModel.depolarizing(p2q=r))
    stats = compile_cache_stats()
    assert stats.lowerings == 1, stats
    assert stats.bind_hits == len(rates), stats


def _fold(elems, n):
    """The per-element fold (full phase vector, two gathers per perm)."""
    src = ph = None
    for op in elems:
        if isinstance(op, DiagonalOp):
            d = _build_diag(n, op.terms)
            ph = d if ph is None else ph * d
            continue
        t = _perm_indices(n, op.name, op.qubits)
        src = t if src is None else np.take(src, t)
        ph = None if ph is None else np.take(ph, t)
    return src, ph


def _largest_qfa_segment():
    """The QFA 8+8 (1q 0.5%) program's longest segment: 182 rz/cx elems
    with 111 noise sites."""
    program = build_compiled_program("add", 8, 8, None, "1q", 0.005, "qiskit")
    seg = max(
        (item for kind, item in program.exec_stream() if kind == "seg"),
        key=lambda s: len(s.elems),
    )
    return seg, program.num_qubits


def test_cold_compose_largest_qfa_segment(benchmark):
    """Cold composition of the longest QFA 8+8 segment, the piece a
    trajectory fork re-composes.  Bit-identical to the fold, whose
    ``src`` is the identity map the composer returns as ``None``."""
    seg, n = _largest_qfa_segment()
    src, ph = benchmark.pedantic(
        lambda: _compose_elems((None, None), seg.elems, n),
        rounds=5, iterations=1,
    )
    ref_src, ref_ph = _fold(seg.elems, n)
    assert src is None
    assert np.array_equal(ref_src, np.arange(1 << n))
    assert ph.dtype == ref_ph.dtype and ph.tobytes() == ref_ph.tobytes()


def test_apply_identity_segment_batch(benchmark):
    """The longest QFA 8+8 segment applied to a 17-row batch (row 0
    plus ``paper-sweep``'s 16 trajectories) two ways: a gather through
    ``arange`` and a multiply per row, and the in-place phase multiply
    the walker runs.  The benchmark times the multiply; the gather's
    best of five is printed beside it.  The two are byte-equal."""
    seg, n = _largest_qfa_segment()
    src, ph = seg.full(n)
    assert src is None
    rng = np.random.default_rng(3)
    batch = rng.normal(size=(17, 1 << n)) + 1j * rng.normal(size=(17, 1 << n))
    identity = np.arange(1 << n, dtype=np.int32)

    def gather(buf):
        scratch = np.empty(buf.shape[1], dtype=buf.dtype)
        for row in buf:
            np.take(row, identity, out=scratch)
            np.multiply(scratch, ph, out=row)

    def multiply(buf):
        _mono_apply_rows(buf, range(buf.shape[0]), (src, ph))

    gathered, multiplied = batch.copy(), batch.copy()
    gather(gathered)
    multiply(multiplied)
    assert multiplied.tobytes() == gathered.tobytes()

    work = batch.copy()
    benchmark.pedantic(lambda: multiply(work), rounds=5, iterations=1)
    t_gather = []
    for _ in range(5):
        t0 = time.perf_counter()
        gather(work)
        t_gather.append(time.perf_counter() - t0)
    print(f"\n[identity segment, 17 rows] gather best {min(t_gather) * 1e3:.2f} ms")


def test_compose_short_piece_paper_width(benchmark):
    """The longest run of the QFA 8+8 segment that touches at most 8 of
    the 16 qubits, composed from the identity as the walker composes
    the piece between two events: on its support, then expanded.  The
    benchmark times that; the full-width composition's best of five is
    printed beside it.  Both are bit-identical to the fold."""
    seg, n = _largest_qfa_segment()
    elems = seg.elems
    best = (0, 0)
    for start in range(len(elems)):
        end = start
        while end < len(elems) and len(
            _local_support(elems[start:end + 1], n)
        ) <= 8:
            end += 1
        if end - start > best[1] - best[0]:
            best = (start, end)
    piece = elems[best[0]:best[1]]
    assert len(piece) > 1 and len(_local_support(piece, n)) <= 8

    src, ph = benchmark.pedantic(
        lambda: _compose_elems((None, None), piece, n),
        rounds=5, iterations=1,
    )
    ref_src, ref_ph = _fold(piece, n)
    if src is None:
        assert np.array_equal(ref_src, np.arange(1 << n))
    else:
        assert src.tobytes() == ref_src.tobytes()
    assert ph.dtype == ref_ph.dtype and ph.tobytes() == ref_ph.tobytes()

    t_full = []
    for _ in range(5):
        t0 = time.perf_counter()
        full = _compose_full((None, None), piece, n)
        t_full.append(time.perf_counter() - t0)
    assert full[1].tobytes() == ph.tobytes()
    print(
        f"\n[{len(piece)}-element piece on "
        f"{len(_local_support(piece, n))} qubits] full width best "
        f"{min(t_full) * 1e3:.2f} ms"
    )


def test_cold_ideal_qfa8_run(benchmark):
    """One ideal QFA 8+8 statevector run on a cleared kernel cache, as
    a freshly forked ``paper-sweep`` worker runs its rate-0 cell.  Its
    fused diagonals are cached on the qubits they touch, so the run
    leaves no ``2**16`` phase vector and under 1 MB of kernels."""
    program = build_compiled_program("add", 8, 8, None, "1q", 0.0, "qiskit")
    init = generate_instances("add", 8, 8, (1, 1), 1, 5)[0]
    init = init.initial_statevector()
    n = program.num_qubits
    benchmark.pedantic(
        lambda: StatevectorEngine().run(program, init),
        setup=_KERNELS.clear, rounds=5, iterations=1,
    )
    stats = kernel_cache_stats()
    assert not [k for k in _KERNELS._entries if k[:2] == ("diag", n)]
    assert 0 < stats["total_bytes"] < 1 << 20, stats
    print(
        f"\n[cold ideal QFA 8+8] {stats['entries']} kernels, "
        f"{stats['total_bytes'] / 1024:.0f} KB"
    )
