"""PTM-compiled exact-noise engine: parity, caching, caps, plumbing.

The PTM engine (:mod:`repro.sim.ptm`) must be *indistinguishable* from
the density engine at the distribution level — same circuits, same
noise models, same readout folding — while compiling every op and
noise site to pre-bound superoperators.  These tests pin:

* distribution parity vs :class:`DensityMatrixEngine` across the paper
  corpus (QFA/QFM cells) up to the PTM qubit cap, on both error axes,
  at truncated depths, and with arithmetic-instance initial states;
* channel coverage beyond the paper's depolarizing model — Kraus
  (amplitude damping), readout and reset ops;
* the plan cache (one bind per (circuit, noise) pair, hits on reuse);
* the qubit cap and the engine-selection plumbing (simulate_counts /
  service request model accept ``method="ptm"``).
"""

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.experiments.instances import generate_instances
from repro.experiments.runner import (
    build_arithmetic_circuit,
    noise_model_for,
)
from repro.noise.channels import (
    ReadoutError,
    amplitude_damping_error,
    depolarizing_error,
)
from repro.noise.model import NoiseModel
from repro.sim.density import DensityMatrixEngine
from repro.sim.engines import simulate_counts, simulate_distribution
from repro.sim.ptm import PTMEngine, ptm_cache_stats, reset_ptm_cache


def parity_atol():
    """Documented PTM-vs-density tolerance (docs/backends.md).

    Both lanes are exact, so parity is limited only by round-off —
    1e-10 TV on the canonical float64 tier, 1e-4 when
    ``REPRO_BACKEND`` selects the complex64 tier, so the CI backend
    matrix exercises parity *within* each tier.
    """
    from repro.sim.backend import dtype_tag, resolve_complex_dtype

    return 1e-10 if dtype_tag(resolve_complex_dtype()) == "c128" else 1e-4


#: Paper corpus cells that keep the density reference fast while
#: staying under the PTM qubit cap: add(3,3)=6q, add(4,4)=8q,
#: mul(2,2)=8q.
CORPUS = [
    ("add", 3, 3),
    ("add", 4, 4),
    ("mul", 2, 2),
]


def tv(a, b):
    return 0.5 * float(np.abs(a.probs - b.probs).sum())


class TestCorpusParity:
    @pytest.mark.parametrize("operation,n,m", CORPUS)
    @pytest.mark.parametrize("error_axis", ["1q", "2q"])
    def test_full_depth(self, operation, n, m, error_axis):
        circuit = build_arithmetic_circuit(operation, n, m, None)
        noise = noise_model_for(error_axis, 0.01)
        ref = DensityMatrixEngine().distribution(circuit, noise)
        got = PTMEngine().distribution(circuit, noise)
        assert tv(ref, got) < parity_atol()
        assert got.method == "ptm"

    @pytest.mark.parametrize("rate", [0.0, 0.01, 0.05])
    def test_rate_sweep(self, rate):
        circuit = build_arithmetic_circuit("add", 3, 3, None)
        noise = noise_model_for("2q", rate)
        ref = DensityMatrixEngine().distribution(circuit, noise)
        got = PTMEngine().distribution(circuit, noise)
        assert tv(ref, got) < parity_atol()

    def test_truncated_depth(self):
        # The paper's AQFT approximation axis: depth-truncated adder.
        circuit = build_arithmetic_circuit("add", 4, 4, 3)
        noise = noise_model_for("2q", 0.02)
        ref = DensityMatrixEngine().distribution(circuit, noise)
        got = PTMEngine().distribution(circuit, noise)
        assert tv(ref, got) < parity_atol()

    def test_instance_initial_states(self):
        # Arbitrary statevector entry (the sweep path: arithmetic
        # operands prepared as a product initial state).
        circuit = build_arithmetic_circuit("add", 3, 3, None)
        noise = noise_model_for("1q", 0.02)
        dm, ptm = DensityMatrixEngine(), PTMEngine()
        for inst in generate_instances("add", 3, 3, (1, 1), 2, seed=5):
            vec = inst.initial_statevector()
            ref = dm.distribution(circuit, noise, initial_state=vec)
            got = ptm.distribution(circuit, noise, initial_state=vec)
            assert tv(ref, got) < parity_atol()


class TestChannelCoverage:
    def circuit(self, n=3):
        qc = QuantumCircuit(n)
        for q in range(n):
            qc.h(q)
        qc.cp(0.7, 0, 1)
        qc.cx(1, 2)
        qc.rz(0.4, 2)
        return qc

    def test_kraus_channel(self):
        nm = NoiseModel()
        nm.add_all_qubit_quantum_error(
            amplitude_damping_error(0.08), ["h", "rz"]
        )
        qc = self.circuit()
        ref = DensityMatrixEngine().distribution(qc, nm)
        got = PTMEngine().distribution(qc, nm)
        assert tv(ref, got) < parity_atol()

    def test_readout_error(self):
        nm = NoiseModel()
        nm.add_all_qubit_quantum_error(depolarizing_error(0.02, 2), ["cx"])
        nm.add_readout_error(ReadoutError(0.03, 0.01))
        qc = self.circuit()
        ref = DensityMatrixEngine().distribution(qc, nm)
        got = PTMEngine().distribution(qc, nm)
        assert tv(ref, got) < parity_atol()

    def test_reset_op(self):
        qc = self.circuit()
        qc.reset(1)
        qc.h(1)
        nm = NoiseModel()
        nm.add_all_qubit_quantum_error(depolarizing_error(0.01, 1), ["h"])
        ref = DensityMatrixEngine().distribution(qc, nm)
        got = PTMEngine().distribution(qc, nm)
        assert tv(ref, got) < parity_atol()

    def test_complex64_tier_within_tolerance(self):
        qc = self.circuit()
        nm = NoiseModel()
        nm.add_all_qubit_quantum_error(depolarizing_error(0.02, 1), ["h"])
        ref = PTMEngine().distribution(qc, nm)
        got = PTMEngine(dtype=np.dtype("complex64")).distribution(qc, nm)
        assert tv(ref, got) < 1e-4


class TestPlanCache:
    def test_bind_once_per_pair(self):
        reset_ptm_cache()
        circuit = build_arithmetic_circuit("add", 3, 3, None)
        noise = noise_model_for("2q", 0.01)
        engine = PTMEngine()
        engine.distribution(circuit, noise)
        s1 = ptm_cache_stats()
        engine.distribution(circuit, noise)
        engine.distribution(circuit, noise)
        s2 = ptm_cache_stats()
        assert s1["binds"] == 1
        assert s2["binds"] == 1
        assert s2["bind_hits"] == s1["bind_hits"] + 2
        assert s2["plans"] >= 1

    def test_rebind_per_rate_reuses_gate_ptms(self):
        # A rate sweep over one cell builds the plan once per rate but
        # never relowers the gate PTMs (they are noise-independent).
        reset_ptm_cache()
        circuit = build_arithmetic_circuit("add", 3, 3, None)
        engine = PTMEngine()
        for rate in (0.005, 0.01, 0.02):
            engine.distribution(circuit, noise_model_for("2q", rate))
        stats = ptm_cache_stats()
        assert stats["binds"] == 3
        assert stats["plans"] == 3


class TestCapsAndPlumbing:
    def test_qubit_cap(self):
        qc = QuantumCircuit(PTMEngine.max_qubits + 1)
        qc.h(0)
        with pytest.raises(ValueError, match="limited to"):
            PTMEngine().run(qc)

    def test_simulate_counts_method_ptm(self):
        qc = QuantumCircuit(3)
        qc.h(0)
        qc.cx(0, 1)
        qc.cx(1, 2)
        nm = NoiseModel()
        nm.add_all_qubit_quantum_error(depolarizing_error(0.01, 2), ["cx"])
        counts = simulate_counts(
            qc, nm, shots=512, method="ptm",
            rng=np.random.default_rng(3),
        )
        assert counts.shots == 512
        ref = simulate_counts(
            qc, nm, shots=512, method="density",
            rng=np.random.default_rng(3),
        )
        # Same exact distribution + same RNG stream -> same samples.
        assert dict(counts.items()) == dict(ref.items())

    def test_simulate_distribution_records_method(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.cx(0, 1)
        dist = simulate_distribution(qc, method="ptm")
        assert dist.method == "ptm"
        np.testing.assert_allclose(
            dist.probs, [0.5, 0.0, 0.0, 0.5], atol=1e-12
        )

    def test_service_model_accepts_ptm(self):
        from repro.service.model import SimRequest

        req = SimRequest.from_dict(
            {"operation": "add", "n": 3, "m": 3, "x": [1], "y": [2],
             "method": "ptm"}
        )
        req.validate()
        assert req.method == "ptm"

    def test_sweep_methods_include_ptm(self):
        from repro.experiments.config import SWEEP_METHODS

        assert "ptm" in SWEEP_METHODS
