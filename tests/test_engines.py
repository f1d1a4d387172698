"""Tests for the simulation engines and their cross-consistency."""

import math

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.metrics import hellinger_fidelity, total_variation_distance
from repro.noise import (
    NoiseModel,
    PauliError,
    ReadoutError,
    amplitude_damping_error,
    depolarizing_error,
)
from repro.sim import (
    DensityMatrixEngine,
    PerturbativeEngine,
    StatevectorEngine,
    TrajectoryEngine,
    choose_method,
    simulate_counts,
    simulate_distribution,
)
from repro.sim.statevector import Statevector, zero_state


def bell():
    qc = QuantumCircuit(2)
    qc.h(0).cx(0, 1)
    return qc


def ghz(n):
    qc = QuantumCircuit(n)
    qc.h(0)
    for i in range(n - 1):
        qc.cx(i, i + 1)
    return qc


class TestStatevectorEngine:
    def test_zero_state(self):
        s = zero_state(3, 2)
        assert s.shape == (2, 8)
        np.testing.assert_allclose(s[:, 0], 1.0)

    def test_bell_distribution(self):
        dist = StatevectorEngine().distribution(bell())
        np.testing.assert_allclose(dist.probs, [0.5, 0, 0, 0.5], atol=1e-12)

    def test_initial_state_injection(self):
        qc = QuantumCircuit(1)
        qc.x(0)
        init = np.array([0, 1], dtype=complex)
        sv = StatevectorEngine().run(qc, init)
        np.testing.assert_allclose(sv.data, [1, 0], atol=1e-12)

    def test_wrong_initial_size(self):
        with pytest.raises(ValueError):
            StatevectorEngine().run(bell(), np.ones(3))

    def test_measure_ignored(self):
        qc = bell()
        qc.measure_all()
        dist = StatevectorEngine().distribution(qc)
        np.testing.assert_allclose(dist.probs, [0.5, 0, 0, 0.5], atol=1e-12)

    def test_statevector_fidelity_and_equiv(self):
        a = Statevector.from_int(1, 2)
        b = Statevector(np.array([0, 1j, 0, 0]), 2)
        assert a.fidelity(b) == pytest.approx(1.0)
        assert a.equiv(b)


class TestDensityEngine:
    def test_matches_statevector_noiseless(self):
        qc = ghz(3)
        dm = DensityMatrixEngine().run(qc)
        sv = StatevectorEngine().run(qc)
        np.testing.assert_allclose(
            dm.data, np.outer(sv.data, sv.data.conj()), atol=1e-12
        )
        assert dm.purity() == pytest.approx(1.0)

    def test_depolarizing_reduces_purity(self):
        noise = NoiseModel.depolarizing(p1q=0.1, p2q=0.1)
        dm = DensityMatrixEngine().run(bell(), noise)
        assert dm.purity() < 0.99

    def test_full_depolarizing_gives_uniform(self):
        # Qiskit convention: E(rho) = (1-p) rho + p I/2, so p=1 is the
        # completely depolarizing channel.
        qc = QuantumCircuit(1)
        qc.x(0)
        noise = NoiseModel().add_all_qubit_quantum_error(
            depolarizing_error(1.0, 1), ["x"]
        )
        dist = DensityMatrixEngine().distribution(qc, noise)
        np.testing.assert_allclose(dist.probs, [0.5, 0.5], atol=1e-9)

    def test_pauli_error_exact(self):
        # X error with probability p on an identity-like circuit.
        qc = QuantumCircuit(1)
        qc.x(0)
        err = PauliError(["I", "X"], [0.7, 0.3])
        noise = NoiseModel().add_all_qubit_quantum_error(err, ["x"])
        dist = DensityMatrixEngine().distribution(qc, noise)
        np.testing.assert_allclose(dist.probs, [0.3, 0.7], atol=1e-12)

    def test_amplitude_damping(self):
        qc = QuantumCircuit(1)
        qc.x(0)
        noise = NoiseModel().add_all_qubit_quantum_error(
            amplitude_damping_error(0.25), ["x"]
        )
        dist = DensityMatrixEngine().distribution(qc, noise)
        np.testing.assert_allclose(dist.probs, [0.25, 0.75], atol=1e-12)

    def test_1q_error_on_2q_gate_hits_both_qubits(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1)  # |00> unchanged ideally
        err = PauliError(["I", "X"], [0.5, 0.5])
        noise = NoiseModel().add_all_qubit_quantum_error(err, ["cx"])
        dist = DensityMatrixEngine().distribution(qc, noise)
        # Independent X on each qubit with p=0.5: uniform over 4 outcomes.
        np.testing.assert_allclose(dist.probs, [0.25] * 4, atol=1e-12)

    def test_readout_error_folding(self):
        qc = QuantumCircuit(1)
        qc.x(0)
        noise = NoiseModel().add_readout_error(ReadoutError(0.0, 0.2))
        dist = DensityMatrixEngine().distribution(qc, noise)
        np.testing.assert_allclose(dist.probs, [0.2, 0.8], atol=1e-12)

    def test_qubit_limit(self):
        with pytest.raises(ValueError):
            DensityMatrixEngine().run(QuantumCircuit(14))

    def test_reset_instruction(self):
        qc = QuantumCircuit(1)
        qc.x(0).reset(0)
        dist = DensityMatrixEngine().distribution(qc)
        np.testing.assert_allclose(dist.probs, [1.0, 0.0], atol=1e-12)

    def test_fidelity_with_pure(self):
        dm = DensityMatrixEngine().run(bell())
        target = np.array([1, 0, 0, 1]) / math.sqrt(2)
        assert dm.fidelity_with_pure(target) == pytest.approx(1.0)


class TestTrajectoryEngine:
    def test_ideal_matches_statevector(self):
        eng = TrajectoryEngine(trajectories=4, seed=0)
        counts = eng.run(bell(), NoiseModel.ideal(), shots=4096)
        assert counts.shots == 4096
        assert set(counts) <= {0, 3}
        assert abs(counts[0] - 2048) < 300

    def test_matches_density_engine_distribution(self):
        qc = ghz(3)
        noise = NoiseModel.depolarizing(p1q=0.05, p2q=0.08)
        exact = DensityMatrixEngine().distribution(qc, noise)
        eng = TrajectoryEngine(trajectories=6000, seed=7)
        counts = eng.run(qc, noise, shots=6000)
        tvd = total_variation_distance(exact, counts)
        assert tvd < 0.05, f"TVD {tvd} too large"

    def test_kraus_channel_trajectories_match_exact(self):
        qc = QuantumCircuit(1)
        qc.x(0)
        noise = NoiseModel().add_all_qubit_quantum_error(
            amplitude_damping_error(0.3), ["x"]
        )
        exact = DensityMatrixEngine().distribution(qc, noise)
        counts = TrajectoryEngine(trajectories=4000, seed=3).run(
            qc, noise, shots=4000
        )
        assert total_variation_distance(exact, counts) < 0.05

    def test_readout_error_sampling(self):
        qc = QuantumCircuit(1)
        qc.x(0)
        noise = NoiseModel().add_readout_error(ReadoutError(0.0, 0.25))
        counts = TrajectoryEngine(trajectories=1, seed=5).run(
            qc, noise, shots=8000
        )
        assert abs(counts[0] / 8000 - 0.25) < 0.03

    def test_reset_error_channel(self):
        from repro.noise import ResetError

        qc = QuantumCircuit(1)
        qc.x(0)
        noise = NoiseModel().add_all_qubit_quantum_error(
            ResetError(0.4), ["x"]
        )
        exact = DensityMatrixEngine().distribution(qc, noise)
        counts = TrajectoryEngine(trajectories=4000, seed=9).run(
            qc, noise, shots=4000
        )
        assert total_variation_distance(exact, counts) < 0.05

    def test_seed_reproducibility(self):
        noise = NoiseModel.depolarizing(p1q=0.02, p2q=0.05)
        a = TrajectoryEngine(trajectories=32, seed=42).run(bell(), noise, 512)
        b = TrajectoryEngine(trajectories=32, seed=42).run(bell(), noise, 512)
        assert a == b

    def test_invalid_trajectories(self):
        with pytest.raises(ValueError):
            TrajectoryEngine(trajectories=0)


class TestPerturbativeEngine:
    def test_order0_is_ideal(self):
        dist = PerturbativeEngine(max_order=0).distribution(
            bell(), NoiseModel.depolarizing(p1q=0.01)
        )
        np.testing.assert_allclose(dist.probs, [0.5, 0, 0, 0.5], atol=1e-12)

    def test_order1_close_to_exact_at_low_noise(self):
        qc = ghz(3)
        noise = NoiseModel.depolarizing(p1q=0.002, p2q=0.005)
        exact = DensityMatrixEngine().distribution(qc, noise)
        approx = PerturbativeEngine(max_order=1).distribution(qc, noise)
        assert total_variation_distance(exact, approx) < 5e-4

    def test_order1_beats_order0(self):
        qc = ghz(3)
        noise = NoiseModel.depolarizing(p1q=0.01, p2q=0.02)
        exact = DensityMatrixEngine().distribution(qc, noise)
        d0 = PerturbativeEngine(max_order=0).distribution(qc, noise)
        d1 = PerturbativeEngine(max_order=1).distribution(qc, noise)
        assert total_variation_distance(exact, d1) < total_variation_distance(
            exact, d0
        )

    def test_kraus_rejected(self):
        noise = NoiseModel().add_all_qubit_quantum_error(
            amplitude_damping_error(0.1), ["h"]
        )
        with pytest.raises(ValueError):
            PerturbativeEngine().distribution(bell(), noise)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            PerturbativeEngine(max_order=2)


class TestDispatch:
    def test_choose_ideal(self):
        assert choose_method(bell(), None) == "statevector"
        assert choose_method(bell(), NoiseModel.ideal()) == "statevector"

    def test_choose_ptm_small(self):
        assert choose_method(bell(), NoiseModel.depolarizing(0.01)) == "ptm"

    def test_choose_trajectory_large(self):
        qc = QuantumCircuit(12)
        qc.h(0)
        assert (
            choose_method(qc, NoiseModel.depolarizing(0.01)) == "trajectory"
        )

    def test_simulate_counts_shots(self):
        counts = simulate_counts(bell(), shots=100, seed=0)
        assert counts.shots == 100

    def test_simulate_distribution_rejects_trajectory(self):
        with pytest.raises(ValueError):
            simulate_distribution(bell(), method="trajectory")

    def test_methods_agree_on_noisy_circuit(self):
        noise = NoiseModel.depolarizing(p1q=0.004, p2q=0.01)
        qc = ghz(3)
        d_exact = simulate_distribution(qc, noise, method="density")
        d_pert = simulate_distribution(qc, noise, method="perturbative")
        assert hellinger_fidelity(d_exact, d_pert) > 0.999
