"""Compiled-program benchmarks: lowering payoff and sweep cache behaviour.

* What do cold lowering and a compiled trajectory run cost at the
  paper's QFM workload?
* Does a rate-only sweep lower exactly once, re-binding per rate?
* What does composing the longest monomial segment of the paper-width
  QFA program cost, and is the in-place composer still bit-identical
  to the per-element fold it replaced?

Timings honour ``REPRO_SCALE``, except the composer benchmark, which
always composes the paper-width (QFA 8+8) segment that ``paper-sweep``
re-composes on every fork.
"""

import numpy as np
import pytest

from repro.core import qfm_circuit
from repro.experiments.runner import build_compiled_program
from repro.noise import NoiseModel
from repro.noise.ibm import P2Q_SWEEP
from repro.sim import TrajectoryEngine
from repro.sim.program import (
    DiagonalOp,
    _compose_elems,
    _perm_indices,
    compile_cache_stats,
    compile_circuit,
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
            d = op.diag(n)
            ph = d if ph is None else ph * d
            continue
        t = _perm_indices(n, op.name, op.qubits)
        src = t if src is None else np.take(src, t)
        ph = None if ph is None else np.take(ph, t)
    return src, ph


def test_cold_compose_largest_qfa_segment(benchmark):
    """Cold composition of the QFA 8+8 (1q 0.5%) program's longest
    segment: 182 rz/cx elems with 111 noise sites, the piece a
    trajectory fork re-composes.  Bit-identical to the fold."""
    program = build_compiled_program("add", 8, 8, None, "1q", 0.005, "qiskit")
    n = program.num_qubits
    seg = max(
        (item for kind, item in program.exec_stream() if kind == "seg"),
        key=lambda s: len(s.elems),
    )
    src, ph = benchmark.pedantic(
        lambda: _compose_elems((None, None), seg.elems, n),
        rounds=5, iterations=1,
    )
    ref_src, ref_ph = _fold(seg.elems, n)
    assert src.tobytes() == ref_src.tobytes()
    assert ph.dtype == ref_ph.dtype and ph.tobytes() == ref_ph.tobytes()
