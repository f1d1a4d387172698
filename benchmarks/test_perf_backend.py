"""Backend-tier benchmarks: PTM bind-once payoff and float32 headroom.

Two numbers the pluggable-backend refactor must defend:

* The PTM engine's pre-bound superoperator lane beats the density
  engine on a rate sweep over one circuit structure — the density
  engine replays every Pauli label per rate, while PTM folds the
  channel into a cached diagonal and re-binds only the rate-dependent
  weights.  (Acceptance bar: >= 2x at paper scale; the last
  standalone measurement, on the 8-qubit QFA 2q rate sweep, was 143x:
  0.10 s PTM vs 14.5 s density, see ``docs/backends.md``.)
* The ``numpy32`` tier actually halves state memory (and keeps a
  statevector run in the same speed class) — headroom, not a tax.

Speedup floors tighten with ``REPRO_SCALE`` so the smoke lane stays
deterministic while a paper-scale run enforces the real bar.  A
summary artifact lands in ``results/bench/``.
"""

import time

import numpy as np
import pytest

from conftest import save_artifact
from repro.core import qfa_circuit
from repro.experiments.runner import noise_model_for
from repro.sim.density import DensityMatrixEngine
from repro.sim.ptm import PTMEngine, reset_ptm_cache
from repro.sim.program import reset_compile_caches
from repro.sim.statevector import StatevectorEngine, zero_state
from repro.transpile import transpile

#: Rates of one Fig.-3-shaped sweep axis (2q depolarizing).
RATES = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05)

#: Adder width per scale, capped by the PTM engine (4**n reals).
_QFA_N = {"smoke": 2, "default": 3, "paper": 4}

#: Minimum PTM/density rate-sweep speedup per scale.  Smoke registers
#: are too small to beat constant overheads, so that lane only records
#: the ratio.
_MIN_SPEEDUP = {"smoke": None, "default": 1.5, "paper": 2.0}


@pytest.fixture(scope="module")
def qfa(scale):
    n = _QFA_N[scale.name]
    return transpile(qfa_circuit(n, n))


def _sweep(engine_factory, circuit):
    for rate in RATES:
        engine_factory().distribution(
            circuit, noise_model_for("2q", rate)
        )


def test_ptm_rate_sweep(benchmark, qfa):
    """PTM lane: one lowering, cached gate PTMs, re-bind per rate."""
    reset_compile_caches()
    reset_ptm_cache()
    _sweep(PTMEngine, qfa)  # warm the structure caches once
    benchmark.pedantic(lambda: _sweep(PTMEngine, qfa), rounds=3,
                       iterations=1)


def test_density_rate_sweep(benchmark, qfa):
    """Density baseline on the identical sweep."""
    reset_compile_caches()
    _sweep(DensityMatrixEngine, qfa)
    benchmark.pedantic(lambda: _sweep(DensityMatrixEngine, qfa),
                       rounds=3, iterations=1)


def test_ptm_speedup_over_density(scale, artifact_dir, qfa):
    """The committed bar: PTM's bind-once reuse on a rate sweep."""
    reset_compile_caches()
    reset_ptm_cache()
    _sweep(PTMEngine, qfa)
    _sweep(DensityMatrixEngine, qfa)

    def best_of(factory, repeats=3):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            _sweep(factory, qfa)
            times.append(time.perf_counter() - t0)
        return min(times)

    t_ptm = best_of(PTMEngine)
    t_density = best_of(DensityMatrixEngine)
    ratio = t_density / t_ptm
    save_artifact(
        artifact_dir,
        "backend_ptm_speedup.txt",
        f"scale={scale.name} qfa_n={_QFA_N[scale.name]} "
        f"rates={len(RATES)} density={t_density:.4f}s ptm={t_ptm:.4f}s "
        f"speedup={ratio:.2f}x",
    )
    floor = _MIN_SPEEDUP[scale.name]
    if floor is not None:
        assert ratio >= floor, (
            f"PTM rate-sweep speedup {ratio:.2f}x below the {floor}x "
            f"floor at scale {scale.name}"
        )


def test_numpy32_halves_state_memory(qfa):
    """The float32 tier's whole point: half the bytes per amplitude.

    The working state is what shrinks; the :class:`Statevector`
    wrapper still hands back canonical complex128 (its exact-arithmetic
    contract), so the tiers are also compared there for accuracy.
    """
    n = qfa.num_qubits
    s64 = zero_state(n, 4, np.dtype("complex128"))
    s32 = zero_state(n, 4, np.dtype("complex64"))
    assert s32.nbytes * 2 == s64.nbytes
    v64 = StatevectorEngine().run(qfa).data
    v32 = StatevectorEngine(dtype=np.dtype("complex64")).run(qfa).data
    np.testing.assert_allclose(v32, v64, atol=1e-5)
