"""Precision tiers: env knob, dtype keying, precision, sweep journals.

Covers the ``resolve_complex_dtype`` seam end to end:

* tier selection — names, defaults and the ``REPRO_BACKEND`` knob;
* kernel-cache dtype keying — float32 kernels never collide with (or
  pollute) float64 entries;
* ``probabilities()`` — float64 bit-identity on the default tier and
  the clip/renormalise guard on complex64;
* engine-level contracts — seeded float64 runs stay bit-identical
  (hypothesis-pinned), and the float32 tier tracks float64 within a
  documented tolerance envelope per engine;
* sweeps — ``REPRO_BACKEND`` is the only selector, and a journal
  written at one tier never restores into a run at another.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.noise.channels import depolarizing_error
from repro.noise.model import NoiseModel
from repro.sim.backend import (
    BACKEND_ENV,
    BACKEND_NAMES,
    as_complex,
    canonical_complex,
    dtype_tag,
    resolve_complex_dtype,
)
from repro.sim.engines import simulate_counts, simulate_distribution
from repro.sim.ops import probabilities
from repro.sim.program import (
    DiagonalOp,
    compile_circuit,
    kernel_cache_stats,
    reset_compile_caches,
)


def small_noisy_circuit(n=4):
    qc = QuantumCircuit(n)
    for q in range(n):
        qc.h(q)
    for q in range(n - 1):
        qc.cp(0.4 + 0.1 * q, q, q + 1)
    qc.rz(0.3, 0)
    qc.x(n - 1)
    return qc


def noisy_model(p1=0.01, p2=0.02):
    nm = NoiseModel()
    nm.add_all_qubit_quantum_error(depolarizing_error(p1, 1), ["h", "rz", "x"])
    nm.add_all_qubit_quantum_error(depolarizing_error(p2, 2), ["cp", "cx"])
    return nm


class TestRegistry:
    def test_default_backend_is_numpy64(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_complex_dtype() == canonical_complex
        assert dtype_tag(resolve_complex_dtype()) == "c128"

    def test_env_knob_selects_tier(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "numpy32")
        assert np.dtype(resolve_complex_dtype()) == np.dtype("complex64")
        assert dtype_tag(resolve_complex_dtype()) == "c64"

    def test_env_knob_case_insensitive(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "NumPy32")
        assert np.dtype(resolve_complex_dtype()) == np.dtype("complex64")

    def test_unknown_name_rejected(self, monkeypatch):
        for name in ("numpy16", "cupy64", "bogus"):
            monkeypatch.setenv(BACKEND_ENV, name)
            with pytest.raises(ValueError, match="numpy64.*numpy32"):
                resolve_complex_dtype()

    def test_every_name_resolves(self, monkeypatch):
        assert list(BACKEND_NAMES) == ["numpy64", "numpy32"]
        for name, dtype in BACKEND_NAMES.items():
            monkeypatch.setenv(BACKEND_ENV, name)
            assert resolve_complex_dtype() == dtype

    def test_resolve_complex_dtype(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "numpy32")
        assert np.dtype(resolve_complex_dtype()) == np.dtype("complex64")
        # An explicit dtype always wins over the env tier.
        assert resolve_complex_dtype(canonical_complex) == canonical_complex

    def test_dtype_tag_and_group(self):
        assert dtype_tag(canonical_complex) == "c128"
        assert dtype_tag(np.dtype("complex64")) == "c64"
        assert dtype_tag(np.dtype("float32")) == "float32"
        tags = {name: dtype_tag(dt) for name, dt in BACKEND_NAMES.items()}
        assert tags == {"numpy64": "c128", "numpy32": "c64"}

    def test_as_complex_is_canonical(self):
        arr = as_complex([1, 2, 3])
        assert arr.dtype == np.dtype(canonical_complex)


class TestKernelDtypeKeying:
    def test_no_cross_dtype_pollution(self):
        reset_compile_caches()
        op = DiagonalOp((
            ("rz", (0,), (0.37,)),
            ("cp", (0, 1), (0.21,)),
        ))
        d128 = op.diag(5)
        d64 = op.diag(5, np.dtype("complex64"))
        assert d128.dtype == np.dtype(canonical_complex)
        assert d64.dtype == np.dtype("complex64")
        # The float32 kernel is the rounded float64 kernel, and asking
        # for c128 again returns the original object (no pollution).
        np.testing.assert_allclose(d64, d128.astype("complex64"))
        assert op.diag(5) is d128
        assert op.diag(5, np.dtype("complex64")) is d64

    def test_tiers_count_as_separate_entries(self):
        reset_compile_caches()
        before = kernel_cache_stats()
        op = DiagonalOp((
            ("rz", (1,), (0.11,)),
            ("p", (0,), (0.53,)),
        ))
        op.diag(4)
        op.diag(4, np.dtype("complex64"))
        op.diag(4)  # hit on the c128 entry
        stats = kernel_cache_stats()
        assert stats["entries"] == 2
        assert stats["misses"] - before["misses"] == 2
        assert stats["hits"] - before["hits"] == 1
        # One 16-amplitude vector per tier: 16 * (16 + 8) bytes.
        assert stats["total_bytes"] == 16 * 24

    def test_program_segments_keyed_by_dtype(self):
        reset_compile_caches()
        program = compile_circuit(small_noisy_circuit(4), NoiseModel.ideal())
        segs = [item for kind, item in program.exec_stream() if kind == "seg"]
        assert segs
        src64, ph64 = segs[0].full(4)
        src32, ph32 = segs[0].full(4, np.dtype("complex64"))
        if ph64 is not None:
            assert ph64.dtype == np.dtype(canonical_complex)
            assert ph32.dtype == np.dtype("complex64")


class TestProbabilitiesGuard:
    def test_float64_bit_identity(self):
        rng = np.random.default_rng(7)
        state = rng.normal(size=(3, 16)) + 1j * rng.normal(size=(3, 16))
        state /= np.linalg.norm(state, axis=1, keepdims=True)
        expected = np.abs(state) ** 2
        expected = expected / expected.sum(axis=1, keepdims=True)
        got = probabilities(state)
        # The historical formula, bit for bit — no clip on this path.
        assert np.array_equal(got, expected)
        assert got.dtype == np.float64

    def test_complex64_promoted_and_clipped(self):
        rng = np.random.default_rng(8)
        state = (
            rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
        ).astype("complex64")
        state /= np.linalg.norm(state, axis=1, keepdims=True).astype(
            "float32"
        )
        got = probabilities(state)
        assert got.dtype == np.float64
        assert np.all(got >= 0.0)
        np.testing.assert_allclose(got.sum(axis=1), 1.0, atol=1e-12)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_float64_seed_bit_identity(seed):
    """Same seed, same counts — the default tier's determinism contract."""
    qc = small_noisy_circuit(4)
    nm = noisy_model()
    a = simulate_counts(
        qc, nm, shots=256, method="trajectory", trajectories=16,
        rng=np.random.default_rng(seed),
    )
    b = simulate_counts(
        qc, nm, shots=256, method="trajectory", trajectories=16,
        rng=np.random.default_rng(seed),
    )
    assert dict(a.items()) == dict(b.items())


class TestPrecisionEnvelopes:
    """float32 must track float64 within a documented envelope.

    The envelopes are generous relative to the ~1e-7 per-gate rounding
    of complex64 (docs/backends.md): exact engines compare at 1e-4 in
    total variation, the stochastic trajectory engine at 0.15 after
    multinomial noise.
    """

    EXACT_TV = 1e-4

    @pytest.mark.parametrize("method", ["statevector", "density", "ptm",
                                        "perturbative"])
    def test_exact_engines(self, method):
        qc = small_noisy_circuit(4)
        nm = NoiseModel.ideal() if method == "statevector" else noisy_model()
        d64 = simulate_distribution(
            qc, nm, method=method, dtype=canonical_complex
        )
        d32 = simulate_distribution(
            qc, nm, method=method, dtype=np.dtype("complex64")
        )
        tv = 0.5 * np.abs(d64.probs - d32.probs).sum()
        assert tv < self.EXACT_TV

    def test_trajectory_engine(self):
        qc = small_noisy_circuit(4)
        nm = noisy_model()
        c64 = simulate_counts(
            qc, nm, shots=4096, method="trajectory", trajectories=32,
            rng=np.random.default_rng(11), dtype=canonical_complex,
        )
        c32 = simulate_counts(
            qc, nm, shots=4096, method="trajectory", trajectories=32,
            rng=np.random.default_rng(11), dtype=np.dtype("complex64"),
        )
        p64 = c64.to_array() / c64.shots
        p32 = c32.to_array() / c32.shots
        assert 0.5 * np.abs(p64 - p32).sum() < 0.15

    def test_backend_env_flips_engines(self, monkeypatch):
        """REPRO_BACKEND=numpy32 flips engine state dtype end to end."""
        monkeypatch.setenv(BACKEND_ENV, "numpy32")
        from repro.sim.statevector import StatevectorEngine, zero_state
        from repro.sim.trajectories import TrajectoryEngine

        assert np.dtype(StatevectorEngine().dtype) == np.dtype("complex64")
        engine = TrajectoryEngine(
            trajectories=4, rng=np.random.default_rng(0)
        )
        assert np.dtype(engine.dtype) == np.dtype("complex64")
        assert zero_state(3).dtype == np.dtype("complex64")


def _sweep_config(**over):
    from repro.experiments.config import SweepConfig

    base = dict(
        operation="add", n=3, m=3, orders=(1, 1), error_axis="2q",
        error_rates=(0.0, 0.05), depths=(None,), instances=1, shots=16,
        trajectories=2,
    )
    base.update(over)
    return SweepConfig(**base)


class TestSweepConfigBackend:
    def test_backend_field_validates(self):
        # REPRO_BACKEND is the only tier selector: a sweep config
        # carries no backend field to validate.
        with pytest.raises(TypeError, match="backend"):
            _sweep_config(backend="numpy32")
        with pytest.raises(ValueError, match="method"):
            _sweep_config(method="exact")

    def test_cli_has_no_backend_flag(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--backend", "numpy32"])
        assert exc.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_resume_across_tiers_restores_nothing(
        self, monkeypatch, tmp_path
    ):
        from repro.experiments.sweep import run_sweep, sweep_fingerprint

        journal = tmp_path / "panel.jsonl"
        monkeypatch.setenv(BACKEND_ENV, "numpy32")
        fp32 = sweep_fingerprint(_sweep_config(), [])
        run_sweep(_sweep_config(), workers=1, checkpoint=journal)
        monkeypatch.setenv(BACKEND_ENV, "numpy64")
        assert sweep_fingerprint(_sweep_config(), []) != fp32
        msgs = []
        res = run_sweep(
            _sweep_config(), workers=1, checkpoint=journal,
            progress=msgs.append,
        )
        assert res.complete
        assert not any("restored" in m for m in msgs)
        # Control: the same tier resumes from its own journal.
        msgs.clear()
        run_sweep(
            _sweep_config(), workers=1, checkpoint=journal,
            progress=msgs.append,
        )
        assert any("restored from checkpoint" in m for m in msgs)


def test_stats_snapshot_has_backend_sections(monkeypatch):
    from repro.service.stats import cache_stats_snapshot, render_cache_stats

    monkeypatch.setenv(BACKEND_ENV, "NumPy32")
    snap = cache_stats_snapshot()
    assert set(snap["backend"]) == {
        "name", "tag", "complex_dtype", "blas",
    }
    assert snap["backend"]["name"] == "numpy32"
    assert snap["backend"]["tag"] == "c64"
    assert snap["backend"]["complex_dtype"] == "complex64"
    assert set(snap["kernel_cache"]) == {
        "hits", "misses", "evictions", "total_bytes", "entries",
    }
    assert set(snap["ptm_cache"]) == {"plans", "binds", "bind_hits"}
    text = render_cache_stats(snap)
    assert "kernel_cache" in text and "ptm_cache" in text
