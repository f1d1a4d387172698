"""Tests for the compiled execution IR (repro.sim.program).

Covers the lowering taxonomy (diagonal fusion, permutations, noise and
measure sites), program<->circuit equivalence on random circuits
(numerically, against the interpreter),
the decompile round-trip checked with the symbolic equivalence engine,
the two-level compile cache, pickling for worker shipping, and the
resolved-method audit trail on simulation results.
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit
from repro.circuits import gates as G
from repro.core import qfa_circuit
from repro.experiments.config import SweepConfig
from repro.experiments.instances import generate_instances
from repro.experiments.runner import (
    build_arithmetic_circuit,
    build_compiled_program,
    noise_model_for,
    run_point,
)
from repro.experiments.serialize import point_from_dict, point_to_dict
from repro.lint import check_equivalence
from repro.metrics import total_variation_distance
from repro.noise import NoiseModel, PauliError
from repro.sim import (
    CompiledProgram,
    DensityMatrixEngine,
    PerturbativeEngine,
    StatevectorEngine,
    TrajectoryEngine,
    compile_circuit,
    compile_cache_stats,
    reset_compile_caches,
    simulate_counts,
    simulate_distribution,
)
from repro.sim.program import (
    DenseOp,
    DiagonalOp,
    MeasureSiteOp,
    NoiseOp,
    PermutationOp,
    circuit_fingerprint,
)
from repro.transpile import transpile

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(autouse=True)
def _canonical_backend(monkeypatch):
    """Float64 exactness oracles: pin the canonical tier so a
    ``REPRO_BACKEND`` matrix lane doesn't widen their tolerances."""
    monkeypatch.setenv("REPRO_BACKEND", "numpy64")


_GATE_POOL = ["h", "x", "s", "t", "sx", "rz", "cp", "cx", "z", "cz",
              "swap", "ccx", "p", "tdg", "sdg"]


def _random_circuit(seed: int, n: int, depth: int = 12) -> QuantumCircuit:
    rng = np.random.default_rng(seed)
    qc = QuantumCircuit(n)
    for _ in range(depth):
        name = _GATE_POOL[rng.integers(len(_GATE_POOL))]
        g = (
            G.make_gate(name, float(rng.uniform(-3, 3)))
            if name in ("rz", "cp", "p")
            else G.make_gate(name)
        )
        if g.num_qubits > n:
            continue
        qs = rng.choice(n, size=g.num_qubits, replace=False)
        qc.append(g, [int(q) for q in qs])
    return qc


def bell() -> QuantumCircuit:
    qc = QuantumCircuit(2)
    qc.h(0)
    qc.cx(0, 1)
    return qc


# ---------------------------------------------------------------------------
# Lowering taxonomy
# ---------------------------------------------------------------------------

class TestLowering:
    def test_adjacent_diagonals_fuse_into_one_op(self):
        qc = QuantumCircuit(3)
        qc.rz(0.3, 0)
        qc.cp(0.2, 0, 1)
        qc.t(2)
        qc.h(1)
        prog = compile_circuit(qc)
        diags = [op for op in prog.ops if isinstance(op, DiagonalOp)]
        assert len(diags) == 1
        assert len(diags[0].terms) == 3

    def test_permutation_and_measure_ops(self):
        qc = QuantumCircuit(3, 3)
        qc.x(0)
        qc.cx(0, 1)
        qc.ccx(0, 1, 2)
        qc.measure(0, 0)
        prog = compile_circuit(qc)
        kinds = [type(op).__name__ for op in prog.ops]
        assert kinds.count("PermutationOp") == 3
        assert isinstance(prog.ops[-1], MeasureSiteOp)

    def test_noise_sites_resolved(self):
        qc = QuantumCircuit(2)
        qc.sx(0)
        qc.cx(0, 1)
        noise = NoiseModel.depolarizing(p1q=0.01, p2q=0.02)
        prog = compile_circuit(qc, noise)
        sites = [op for op in prog.ops if isinstance(op, NoiseOp)]
        # sx carries a 1q channel; cx carries one 2q channel.
        assert [s.error.num_qubits for s in sites] == [1, 2]
        assert all(s.is_pauli and s.e > 0 for s in sites)
        assert prog.num_noise_sites == 2
        assert prog.pauli_only

    def test_1q_channel_on_2q_gate_expands_per_qubit(self):
        noise = NoiseModel().add_all_qubit_quantum_error(
            PauliError(["I", "X"], [0.9, 0.1]), ["cx"]
        )
        prog = compile_circuit(bell(), noise)
        sites = [op for op in prog.ops if isinstance(op, NoiseOp)]
        assert [s.qubits for s in sites] == [(0,), (1,)]

    def test_fingerprints_distinguish_noise_and_circuit(self):
        a = compile_circuit(bell(), NoiseModel.depolarizing(p2q=0.01))
        b = compile_circuit(bell(), NoiseModel.depolarizing(p2q=0.02))
        c = compile_circuit(bell())
        assert a.circuit_fingerprint == b.circuit_fingerprint
        assert a.noise_fingerprint != b.noise_fingerprint
        assert len({a.fingerprint, b.fingerprint, c.fingerprint}) == 3

    def test_circuit_fingerprint_content_keyed(self):
        assert circuit_fingerprint(bell()) == circuit_fingerprint(bell())
        other = QuantumCircuit(2)
        other.h(1)
        other.cx(0, 1)
        assert circuit_fingerprint(bell()) != circuit_fingerprint(other)

    def test_dense_op_only_above_crossover(self):
        qc = QuantumCircuit(8)
        qc.sx(0)
        qc.sx(7)
        prog = compile_circuit(qc)
        dense = [op for op in prog.ops if isinstance(op, DenseOp)]
        assert len(dense) == 1
        assert dense[0].term[1] == (7,)


# ---------------------------------------------------------------------------
# Program <-> circuit equivalence
# ---------------------------------------------------------------------------

class TestEquivalence:
    @_SETTINGS
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 5))
    def test_optimized_program_matches_interpreter(self, seed, n):
        qc = _random_circuit(seed, n)
        ref = StatevectorEngine().run(qc).data
        got = StatevectorEngine().run(compile_circuit(qc)).data
        np.testing.assert_allclose(got, ref, atol=1e-12)

    @_SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_decompiled_fused_runs_stay_equivalent(self, seed):
        """lint.check_equivalence accepts the decompilation round-trip."""
        qc = _random_circuit(seed, 4)
        round_tripped = compile_circuit(qc).decompile()
        verdict = check_equivalence(qc, round_tripped)
        assert verdict.is_equivalent

    def test_decompile_qfa_corpus_circuit(self):
        qc = transpile(qfa_circuit(3, 3))
        prog = compile_circuit(qc, NoiseModel.depolarizing(p2q=0.01))
        verdict = check_equivalence(qc, prog.decompile())
        assert verdict.is_equivalent

    def test_density_engine_program_path(self):
        noise = NoiseModel.depolarizing(p1q=0.02, p2q=0.05)
        ref = DensityMatrixEngine().distribution(bell(), noise)
        got = DensityMatrixEngine().distribution(
            compile_circuit(bell(), noise)
        )
        np.testing.assert_allclose(got.probs, ref.probs, atol=1e-12)

    def test_density_engine_program_with_readout(self):
        from repro.noise.channels import ReadoutError

        noise = NoiseModel.depolarizing(p1q=0.02)
        noise.add_readout_error(ReadoutError(0.1, 0.05))
        ref = DensityMatrixEngine().distribution(bell(), noise)
        got = DensityMatrixEngine().distribution(
            compile_circuit(bell(), noise)
        )
        np.testing.assert_allclose(got.probs, ref.probs, atol=1e-12)

    def test_perturbative_engine_program_path(self):
        qc = transpile(qfa_circuit(2, 2))
        noise = NoiseModel.depolarizing(p1q=0.002, p2q=0.01)
        ref = PerturbativeEngine().distribution(qc, noise)
        got = PerturbativeEngine().distribution(compile_circuit(qc, noise))
        np.testing.assert_allclose(got.probs, ref.probs, atol=1e-12)

    @pytest.mark.parametrize("p", [0.01, 0.1])
    def test_trajectory_program_matches_exact_distribution(self, p):
        noise = NoiseModel.depolarizing(p1q=p, p2q=p)
        exact = DensityMatrixEngine().distribution(bell(), noise)
        eng = TrajectoryEngine(trajectories=8000, seed=2)
        counts = eng.run(compile_circuit(bell(), noise), shots=8000)
        assert total_variation_distance(exact, counts) < 0.04

    def test_trajectory_segment_walker_matches_exact(self):
        """Dense boundaries + interior fire/fork events at high rate."""
        qc = transpile(qfa_circuit(2, 2))
        noise = noise_model_for("2q", 0.05)
        exact = DensityMatrixEngine().distribution(qc, noise)
        eng = TrajectoryEngine(trajectories=6000, seed=7, split_clean=True)
        counts = eng.run(compile_circuit(qc, noise), shots=6000)
        assert total_variation_distance(exact, counts) < 0.05

    def test_trajectory_program_and_interpreter_agree(self):
        """A raw circuit lowers through the program path and lands on
        the density engine's exact distribution."""
        qc = transpile(qfa_circuit(2, 2))
        noise = noise_model_for("1q", 0.02)
        exact = DensityMatrixEngine().distribution(qc, noise)
        counts = TrajectoryEngine(4000, seed=3).run(qc, noise, shots=4000)
        assert total_variation_distance(exact, counts) < 0.05

    def test_trajectory_program_readout_table(self):
        from repro.noise.channels import ReadoutError

        qc = QuantumCircuit(1)
        qc.x(0)
        noise = NoiseModel()
        noise.add_readout_error(ReadoutError(0.0, 0.25))
        eng = TrajectoryEngine(trajectories=1, seed=9)
        counts = eng.run(compile_circuit(qc, noise), shots=4000)
        assert counts[0] / 4000 == pytest.approx(0.25, abs=0.03)

    def test_non_pauli_channel_program_path(self):
        from repro.noise.channels import ResetError

        qc = QuantumCircuit(1)
        qc.x(0)
        noise = NoiseModel().add_all_qubit_quantum_error(
            ResetError(0.3, 0.0), ["x"]
        )
        prog = compile_circuit(qc, noise)
        assert not prog.pauli_only
        exact = DensityMatrixEngine().distribution(qc, noise)
        counts = TrajectoryEngine(trajectories=4000, seed=5).run(
            prog, shots=4000
        )
        assert total_variation_distance(exact, counts) < 0.04


# ---------------------------------------------------------------------------
# Compile caching
# ---------------------------------------------------------------------------

class TestCompileCache:
    def test_rate_only_sweep_lowers_once(self):
        reset_compile_caches()
        circ = build_arithmetic_circuit("add", 3, 3, None)
        rates = (0.002, 0.005, 0.007, 0.01, 0.02)
        programs = [
            compile_circuit(circ, noise_model_for("2q", r)) for r in rates
        ]
        stats = compile_cache_stats()
        assert stats.lowerings == 1
        assert stats.lower_hits == len(rates) - 1
        assert stats.binds == len(rates)
        assert stats.bind_hits == 0
        assert len({p.fingerprint for p in programs}) == len(rates)

    def test_repeat_rate_hits_bind_cache(self):
        reset_compile_caches()
        circ = build_arithmetic_circuit("add", 3, 3, None)
        noise = noise_model_for("2q", 0.01)
        a = compile_circuit(circ, noise)
        b = compile_circuit(circ, noise_model_for("2q", 0.01))
        assert a is b
        assert compile_cache_stats().bind_hits == 1

    def test_structure_change_triggers_new_lowering(self):
        reset_compile_caches()
        circ = build_arithmetic_circuit("add", 3, 3, None)
        compile_circuit(circ, noise_model_for("2q", 0.01))
        compile_circuit(circ, noise_model_for("1q", 0.002))
        assert compile_cache_stats().lowerings == 2

    def test_structure_key_ignores_rates(self):
        a = noise_model_for("2q", 0.007)
        b = noise_model_for("2q", 0.02)
        c = noise_model_for("1q", 0.002)
        assert a.structure_key() == b.structure_key()
        assert a.structure_key() != c.structure_key()
        assert a.fingerprint() != b.fingerprint()

    def test_build_compiled_program_memoised(self):
        build_compiled_program.cache_clear()
        a = build_compiled_program("add", 3, 3, None, "2q", 0.01)
        b = build_compiled_program("add", 3, 3, None, "2q", 0.01)
        assert a is b
        assert build_compiled_program.cache_info().hits == 1

    def test_ideal_model_compiles_to_noise_free_program(self):
        prog = compile_circuit(bell(), NoiseModel.ideal())
        assert prog.num_noise_sites == 0
        assert not prog.readout


# ---------------------------------------------------------------------------
# Worker shipping (pickle) and sweep integration
# ---------------------------------------------------------------------------

class TestShipping:
    def test_pickle_round_trip_executes_identically(self):
        qc = transpile(qfa_circuit(2, 2))
        noise = NoiseModel.depolarizing(p1q=0.002, p2q=0.01)
        prog = compile_circuit(qc, noise)
        clone = pickle.loads(pickle.dumps(prog))
        assert clone.fingerprint == prog.fingerprint
        assert clone.pauli_only == prog.pauli_only
        ref = StatevectorEngine().run(prog).data
        got = StatevectorEngine().run(clone).data
        np.testing.assert_allclose(got, ref, atol=1e-14)

    def test_run_point_records_program_fingerprint(self):
        cfg = SweepConfig(
            operation="add", n=3, m=3, orders=(1, 1), error_axis="2q",
            error_rates=(0.01,), depths=(None,), instances=2, shots=64,
            trajectories=4, seed=11,
        )
        insts = generate_instances("add", 3, 3, (1, 1), 2, seed=11)
        pr = run_point(cfg, insts, 0.01, None)
        expected = build_compiled_program("add", 3, 3, None, "2q", 0.01)
        assert pr.program_fingerprint == expected.fingerprint

    def test_point_serialization_keeps_fingerprint(self):
        cfg = SweepConfig(
            operation="add", n=3, m=3, orders=(1, 1), error_axis="2q",
            error_rates=(0.0,), depths=(None,), instances=2, shots=64,
            trajectories=4, seed=11,
        )
        insts = generate_instances("add", 3, 3, (1, 1), 2, seed=11)
        pr = run_point(cfg, insts, 0.0, None)
        assert pr.program_fingerprint
        back = point_from_dict(point_to_dict(pr))
        assert back.program_fingerprint == pr.program_fingerprint

    def test_legacy_point_dict_defaults_to_empty_fingerprint(self):
        cfg = SweepConfig(
            operation="add", n=3, m=3, orders=(1, 1), error_axis="2q",
            error_rates=(0.0,), depths=(None,), instances=2, shots=64,
            trajectories=4, seed=11,
        )
        insts = generate_instances("add", 3, 3, (1, 1), 2, seed=11)
        d = point_to_dict(run_point(cfg, insts, 0.0, None))
        d.pop("program_fingerprint")
        assert point_from_dict(d).program_fingerprint == ""


# ---------------------------------------------------------------------------
# Resolved-method audit trail
# ---------------------------------------------------------------------------

class TestResolvedMethod:
    def test_auto_ideal_resolves_to_statevector(self):
        dist = simulate_distribution(bell())
        assert dist.method == "statevector"

    def test_auto_small_noisy_resolves_to_ptm(self):
        dist = simulate_distribution(
            bell(), NoiseModel.depolarizing(p1q=0.01)
        )
        assert dist.method == "ptm"

    def test_auto_records_trajectory_downgrade(self):
        """Large noisy circuits silently ran perturbative before; the
        substitution is now visible on the result."""
        qc = QuantumCircuit(11)
        for q in range(11):
            qc.x(q)
        dist = simulate_distribution(qc, NoiseModel.depolarizing(p1q=0.01))
        assert dist.method == "perturbative"

    def test_explicit_method_recorded(self):
        dist = simulate_distribution(
            bell(), NoiseModel.depolarizing(p1q=0.01), method="perturbative"
        )
        assert dist.method == "perturbative"

    def test_counts_carry_resolved_method(self):
        counts = simulate_counts(
            bell(), NoiseModel.depolarizing(p1q=0.01), shots=32,
            method="trajectory", trajectories=4, rng=np.random.default_rng(0),
        )
        assert counts.method == "trajectory"
        sampled = simulate_counts(bell(), shots=32)
        assert sampled.method == "statevector"

    def test_program_input_dispatch(self):
        noisy = compile_circuit(bell(), NoiseModel.depolarizing(p2q=0.01))
        assert simulate_distribution(noisy).method == "ptm"
        ideal = compile_circuit(bell())
        assert simulate_distribution(ideal).method == "statevector"
