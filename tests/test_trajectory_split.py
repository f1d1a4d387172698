"""Tests for the clean-shot-splitting trajectory path."""

import pytest

from repro.circuits import QuantumCircuit
from repro.metrics import total_variation_distance
from repro.noise import (
    NoiseModel,
    PauliError,
    ReadoutError,
    amplitude_damping_error,
    depolarizing_error,
)
from repro.sim import DensityMatrixEngine, TrajectoryEngine
from repro.sim.program import compile_circuit


def bell():
    qc = QuantumCircuit(2)
    qc.h(0).cx(0, 1)
    return qc


class TestSiteTable:
    """The split's per-site table: the compiled program's Pauli sites."""

    def test_pauli_model_yields_table(self):
        noise = NoiseModel.depolarizing(
            p1q=0.01, p2q=0.02, gates_1q=("h",)
        )
        program = compile_circuit(bell(), noise)
        assert program.pauli_only
        # h gets one 1q site; cx gets one 2q site.
        sites = [op for _, op in program.pauli_sites()]
        assert [op.qubits for op in sites] == [(0,), (0, 1)]
        assert len(sites[1].labels) == 15
        assert sites[1].cond.sum() == pytest.approx(1.0)

    def test_kraus_model_disables_split(self):
        noise = NoiseModel().add_all_qubit_quantum_error(
            amplitude_damping_error(0.1), ["h"]
        )
        assert not compile_circuit(bell(), noise).pauli_only

    def test_1q_error_on_2q_gate_expands_to_two_sites(self):
        noise = NoiseModel().add_all_qubit_quantum_error(
            depolarizing_error(0.01, 1), ["cx"]
        )
        sites = compile_circuit(bell(), noise).pauli_sites()
        assert [op.qubits for _, op in sites] == [(0,), (1,)]

    def test_zero_rate_sites_dropped(self):
        err = PauliError(["I"], [1.0])
        noise = NoiseModel().add_all_qubit_quantum_error(err, ["h", "cx"])
        assert compile_circuit(bell(), noise).pauli_sites() == []


class TestSplitCorrectness:
    @pytest.mark.parametrize("p", [0.01, 0.1, 0.4])
    def test_matches_exact_distribution(self, p):
        qc = bell()
        noise = NoiseModel.depolarizing(p1q=p, p2q=p)
        exact = DensityMatrixEngine().distribution(qc, noise)
        eng = TrajectoryEngine(trajectories=8000, seed=2, split_clean=True)
        counts = eng.run(qc, noise, shots=8000)
        assert total_variation_distance(exact, counts) < 0.04

    def test_split_and_plain_agree_statistically(self):
        qc = bell()
        noise = NoiseModel.depolarizing(p1q=0.05, p2q=0.05)
        a = TrajectoryEngine(4000, seed=3, split_clean=True).run(
            qc, noise, shots=4000
        )
        b = TrajectoryEngine(4000, seed=3, split_clean=False).run(
            qc, noise, shots=4000
        )
        assert total_variation_distance(a, b) < 0.05

    def test_clean_fraction_matches_p0(self):
        """With a pure bit-flip channel the clean fraction is directly
        observable in the output: P(no flips anywhere)."""
        qc = QuantumCircuit(1)
        qc.x(0)
        p = 0.3
        noise = NoiseModel().add_all_qubit_quantum_error(
            PauliError(["I", "X"], [1 - p, p]), ["x"]
        )
        eng = TrajectoryEngine(trajectories=10_000, seed=4, split_clean=True)
        counts = eng.run(qc, noise, shots=10_000)
        assert counts[1] / 10_000 == pytest.approx(1 - p, abs=0.02)

    def test_forced_error_in_erred_component(self):
        """With split on and one error site, the erred shots must all
        carry the error (the conditioning forces a fire)."""
        qc = QuantumCircuit(1)
        qc.x(0)
        noise = NoiseModel().add_all_qubit_quantum_error(
            PauliError(["I", "X"], [0.5, 0.5]), ["x"]
        )
        eng = TrajectoryEngine(trajectories=64, seed=5, split_clean=True)
        counts = eng.run(qc, noise, shots=2000)
        # Outcomes: clean -> 1, erred -> 0; both present, ratio ~ 1:1.
        assert set(counts) == {0, 1}
        assert abs(counts[0] - 1000) < 150

    def test_readout_applies_to_both_components(self):
        qc = QuantumCircuit(1)
        qc.x(0)
        noise = NoiseModel().add_all_qubit_quantum_error(
            PauliError(["I", "X"], [0.9, 0.1]), ["x"]
        )
        noise.add_readout_error(ReadoutError(0.0, 1.0))  # always misread 1
        eng = TrajectoryEngine(trajectories=32, seed=6, split_clean=True)
        counts = eng.run(qc, noise, shots=500)
        # True outcome 1 (clean, 90%) always flips to 0.
        assert counts[0] > 400

    def test_heavy_noise_preserves_clean_signal(self):
        """The regression the split was built for: at tiny P0 and small
        batch, clean shots still reach the output."""
        qc = QuantumCircuit(2)
        for _ in range(200):
            qc.cx(0, 1)
        qc.h(0)
        noise = NoiseModel.depolarizing(p2q=0.02)
        # P0 = (1 - 0.02*15/16)**200 ~ 2.2% -> ~45 clean shots of 2048.
        eng = TrajectoryEngine(trajectories=8, seed=7, split_clean=True)
        counts = eng.run(qc, noise, shots=2048)
        assert counts.shots == 2048

    def test_reproducible_with_seed(self):
        noise = NoiseModel.depolarizing(p1q=0.02, p2q=0.05)
        a = TrajectoryEngine(16, seed=42).run(bell(), noise, 512)
        b = TrajectoryEngine(16, seed=42).run(bell(), noise, 512)
        assert a == b

    def test_split_off_still_works(self):
        noise = NoiseModel.depolarizing(p1q=0.02)
        eng = TrajectoryEngine(16, seed=1, split_clean=False)
        counts = eng.run(bell(), noise, shots=256)
        assert counts.shots == 256
