"""Tests for the compiled execution IR (repro.sim.program).

Covers the lowering taxonomy (diagonal fusion, permutations, noise and
measure sites), program<->circuit equivalence on random circuits
(numerically, against the interpreter),
the decompile round-trip checked with the symbolic equivalence engine,
the two-level compile cache, pickling for worker shipping, the
resolved-method audit trail on simulation results, and the bitwise
contract of the in-place monomial composer against the per-element
fold it replaced.
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
from repro.sim.ops import probabilities
from repro.sim.program import (
    _KERNELS,
    DenseOp,
    DiagonalOp,
    MeasureSiteOp,
    NoiseOp,
    PermutationOp,
    _build_diag,
    _compose_elems,
    _compose_on_support,
    _diag_support,
    _local_support,
    _mono_apply_rows,
    _perm_indices,
    _rz_factors,
    circuit_fingerprint,
    kernel_cache_stats,
)
from repro.sim.result import Distribution
from repro.sim.statevector import Statevector
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

    def test_reset_zeroes_kernel_counters(self):
        DiagonalOp((("rz", (1,), (0.11,)), ("p", (0,), (0.53,)))).diag(4)
        DiagonalOp((("rz", (1,), (0.11,)), ("p", (0,), (0.53,)))).diag(4)
        assert kernel_cache_stats()["hits"] > 0
        reset_compile_caches()
        assert kernel_cache_stats() == {
            "hits": 0, "misses": 0, "evictions": 0,
            "total_bytes": 0, "entries": 0,
        }

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


# ---------------------------------------------------------------------------
# Monomial composer: bitwise against the per-element fold
# ---------------------------------------------------------------------------

def _reference_compose(cur, elems, n, dtype=None):
    """The per-element fold the in-place composer replaced (test oracle).

    Every diagonal op multiplies in its full ``2**n`` vector, built by
    :func:`_build_diag` at full width, and every permutation gathers
    ``src`` and ``ph`` through its index map; no array is ever written
    in place.  A gathered ``src`` that comes out
    as the identity map is returned as ``None``, the composer's
    canonical form, so the comparison stays exact.
    """
    src, ph = cur
    gathered = False
    for op in elems:
        if isinstance(op, DiagonalOp):
            d = _build_diag(n, op.terms, dtype)
            ph = d if ph is None else ph * d
            continue
        t = _perm_indices(n, op.name, op.qubits)
        if src is None:
            src = t
        else:
            src, gathered = np.take(src, t), True
        ph = None if ph is None else np.take(ph, t)
    if gathered and np.array_equal(src, np.arange(1 << n)):
        src = None
    return src, ph


def _assert_same_bytes(got, want):
    for a, b in zip(got, want):
        if a is None or b is None:
            assert a is None and b is None
        else:
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()


#: Angles that include the signed-zero and exact-value corners.
_ANGLES = (0.0, -0.0, math.pi, -math.pi, math.pi / 2)


def _angle(rng):
    if rng.random() < 0.3:
        return float(_ANGLES[rng.integers(len(_ANGLES))])
    return float(rng.uniform(-2 * math.pi, 2 * math.pi))


def _diag_term(rng, n):
    """One diagonal gate: single rz, phase-on-ones, or generic."""
    kind = rng.choice(["rz", "rz", "p", "cp", "ccp", "s", "z", "crz", "id"])
    width = {"ccp": 3, "cp": 2, "crz": 2}.get(kind, 1)
    if width > n:
        kind, width = "rz", 1
    qubits = tuple(int(q) for q in rng.choice(n, size=width, replace=False))
    params = (_angle(rng),) if kind in ("rz", "p", "cp", "ccp", "crz") else ()
    return (str(kind), qubits, params)


def _random_monomial_run(rng, n, length):
    """A mixed run of Diagonal/Permutation elems, paper-like in bulk."""
    elems = []
    for _ in range(length):
        kind = rng.choice(
            ["diag", "diag", "fused", "x", "cx", "cx", "swap", "ccx"]
        )
        if kind == "diag":
            elems.append(DiagonalOp([_diag_term(rng, n)]))
        elif kind == "fused":
            count = int(rng.integers(2, 5))
            elems.append(DiagonalOp([_diag_term(rng, n) for _ in range(count)]))
        else:
            width = {"x": 1, "cx": 2, "swap": 2, "ccx": 3}[str(kind)]
            qubits = rng.choice(n, size=width, replace=False)
            elems.append(PermutationOp(str(kind), tuple(int(q) for q in qubits)))
    return elems


def _nontrivial_start(rng, n, dtype):
    """A read-only start ``(src, ph)`` whose phases carry signed zeros."""
    src = rng.permutation(1 << n).astype(np.int32)
    ph = np.exp(1j * rng.uniform(-math.pi, math.pi, 1 << n)).astype(dtype)
    ph.real[::5] = -0.0
    ph.imag[1::7] = -0.0
    ph.imag[2::7] = 0.0
    for a in (src, ph):
        a.setflags(write=False)
    return src, ph


def _rz(q, lam):
    return DiagonalOp([("rz", (q,), (lam,))])


#: Monomial runs whose permutations compose to the identity.
_CANCELLING_RUNS = {
    "cx.cx": [PermutationOp("cx", (0, 2)), PermutationOp("cx", (0, 2))],
    "x.x": [PermutationOp("x", (1,)), PermutationOp("x", (1,))],
    "swap.swap": [PermutationOp("swap", (3, 1)), PermutationOp("swap", (1, 3))],
    "ccx.ccx": [
        PermutationOp("ccx", (0, 1, 3)), PermutationOp("ccx", (1, 0, 3)),
    ],
    # The transpiled cp: rz . cx . rz . cx . rz.
    "cp": [_rz(0, 0.3), PermutationOp("cx", (0, 1)), _rz(1, -0.3),
           PermutationOp("cx", (0, 1)), _rz(1, 0.3)],
}


def _run_on_support(rng, support, length):
    """A mixed monomial run confined to the qubits of ``support``: single
    ``rz``, fused multi-term diagonals (``p``, ``crz``, ``cp``, ``rz``)
    and ``x``/``cx``/``swap``/``ccx``."""
    kinds = ["rz", "rz", "fused", "x"]
    if len(support) >= 2:
        kinds += ["cx", "cx", "swap"]
    if len(support) >= 3:
        kinds.append("ccx")

    def pick(k):
        return tuple(
            int(q) for q in rng.choice(support, size=k, replace=False)
        )

    elems = []
    for _ in range(length):
        kind = str(rng.choice(kinds))
        if kind == "rz":
            elems.append(_rz(pick(1)[0], _angle(rng)))
        elif kind == "fused":
            terms = []
            for _ in range(int(rng.integers(2, 5))):
                name = str(rng.choice(["p", "crz", "cp", "rz"]))
                width = 2 if name in ("crz", "cp") else 1
                if width > len(support):
                    name, width = "p", 1
                terms.append((name, pick(width), (_angle(rng),)))
            elems.append(DiagonalOp(terms))
        else:
            width = {"x": 1, "cx": 2, "swap": 2, "ccx": 3}[kind]
            elems.append(PermutationOp(kind, pick(width)))
    return elems


def _cp_run(c, t, lam):
    """The transpiled ``cp`` on ``(c, t)``: ``rz·cx·rz·cx·rz``."""
    return [_rz(c, lam / 2), PermutationOp("cx", (c, t)), _rz(t, -lam / 2),
            PermutationOp("cx", (c, t)), _rz(t, lam / 2)]


#: ``(n, support)``: 1-6 touched qubits at low, high and mixed
#: positions of 10-, 12- and 16-qubit registers.
_WIDE_SUPPORTS = [
    (10, (0,)), (10, (9,)), (10, (4, 5)), (10, (0, 9)), (10, (1, 3, 8)),
    (10, (2, 4, 6, 7, 9)),
    (12, (11,)), (12, (0, 1, 2)), (12, (6, 7, 8, 9)),
    (12, (2, 5, 7, 10, 11)), (12, (0, 3, 5, 6, 9, 11)),
    (16, (15,)), (16, (8,)), (16, (7, 8)), (16, (0, 15)), (16, (9, 10, 11)),
    (16, (0, 2, 4, 6)), (16, (3, 6, 9, 12, 15)),
    (16, (10, 11, 12, 13, 14, 15)), (16, (0, 1, 2, 3, 4, 5)),
]


class TestComposer:
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("n,support", _WIDE_SUPPORTS)
    def test_small_support_on_wide_register_matches_fold(
        self, n, support, dtype
    ):
        """Composed on its support (and through the composer, which
        picks local or full width by ``n``), a run is byte-equal to the
        full-width per-element fold."""
        rng = np.random.default_rng([n, *support])
        dt = np.dtype(dtype)
        for _ in range(6):
            elems = _run_on_support(rng, support, int(rng.integers(2, 25)))
            want = _reference_compose((None, None), elems, n, dt)
            local = _local_support(elems, n)
            assert len(local) < n
            _assert_same_bytes(
                _compose_on_support(elems, local, n, dt), want
            )
            _assert_same_bytes(_compose_elems((None, None), elems, n, dt), want)

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("n,pair", [
        (10, (0, 9)), (12, (7, 3)), (16, (3, 12)), (16, (15, 14)),
    ])
    def test_cancelling_cp_runs_on_wide_register(self, n, pair, dtype):
        """Cancelling ``cp`` runs compose to ``src=None`` on their
        support too, with the fold's phase."""
        dt = np.dtype(dtype)
        elems = _cp_run(*pair, 0.7) + _cp_run(pair[1], pair[0], -1.9)
        want = _reference_compose((None, None), elems, n, dt)
        assert want[0] is None
        for got in (
            _compose_on_support(elems, _local_support(elems, n), n, dt),
            _compose_elems((None, None), elems, n, dt),
        ):
            assert got[0] is None
            _assert_same_bytes(got, want)

    def test_local_support_padding(self):
        """Touched qubits, plus spare high qubits until every diagonal
        leaves a qubit free, plus every qubit below 6 once the run
        reaches below it."""
        assert _local_support([_rz(12, 0.3), _rz(12, 0.1)], 16) == (12, 15)
        ccp = DiagonalOp([("ccp", (8, 9, 15), (0.4,))])
        assert _local_support([ccp, PermutationOp("x", (9,))], 16) == (
            8, 9, 14, 15,
        )
        assert _local_support(_cp_run(2, 12, 0.5), 16) == (
            0, 1, 2, 3, 4, 5, 12,
        )

    def test_walker_pieces_match_full_width(self, monkeypatch):
        """At paper width the walker composes its pieces on their
        support; the final states equal those of full-width pieces."""
        import repro.sim.program as program_mod

        inst = generate_instances("add", 8, 8, (1, 1), 1, 5)[0]
        init = inst.initial_statevector()
        program = build_compiled_program(
            "add", 8, 8, None, "1q", 0.005, "qiskit"
        )
        runs = []
        for min_qubits in (program_mod._SUPPORT_MIN_QUBITS, 64):
            with monkeypatch.context() as mp:
                mp.setattr(program_mod, "_SUPPORT_MIN_QUBITS", min_qubits)
                local = []
                real = program_mod._compose_on_support
                mp.setattr(
                    program_mod, "_compose_on_support",
                    lambda *a: local.append(1) or real(*a),
                )
                reset_compile_caches()
                states = _capture_final_states(mp)
                eng = TrajectoryEngine(trajectories=16, seed=11)
                counts = eng.run(program, shots=2048, initial_state=init)
            runs.append((states, dict(counts.items()), len(local)))
        (loc_states, loc_counts, n_local), (ref_states, ref_counts, n_ref) = runs
        assert n_local > 0 and n_ref == 0
        assert loc_states and loc_states == ref_states
        assert loc_counts == ref_counts

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_matches_per_element_fold_bitwise(self, n, dtype):
        rng = np.random.default_rng(1000 + n)
        dt = np.dtype(dtype)
        for _ in range(25):
            elems = _random_monomial_run(rng, n, int(rng.integers(1, 40)))
            _assert_same_bytes(
                _compose_elems((None, None), elems, n, dt),
                _reference_compose((None, None), elems, n, dt),
            )
            start = _nontrivial_start(rng, n, dt)
            _assert_same_bytes(
                _compose_elems(start, elems, n, dt),
                _reference_compose(start, elems, n, dt),
            )
            # A writable start is the caller's: copied, never written.
            src0, ph0 = (a.copy() for a in start)
            _compose_elems((src0, ph0), elems, n, dt)
            _assert_same_bytes((src0, ph0), start)

    @pytest.mark.parametrize("dtype", [None, np.complex64])
    def test_cached_kernels_are_frozen(self, dtype):
        """What ``full``/``partial``/multi-term ``diag`` cache is
        read-only, and composing on top of cached pieces never changes
        a cached byte."""
        reset_compile_caches()
        program = build_compiled_program("add", 4, 4, None, "2q", 0.01, "qiskit")
        n = program.num_qubits
        segs = [item for kind, item in program.exec_stream() if kind == "seg"]
        seg = max(segs, key=lambda s: len(s.elems))
        fused = [
            e for e in seg.elems
            if isinstance(e, DiagonalOp) and len(e.terms) > 1
        ]
        assert fused, "the 2q-noise QFA segment carries fused diagonals"
        for op in fused:
            assert not op.diag(n, dtype).flags.writeable
        full = seg.full(n, dtype)
        cached = [a for a in full if a is not None]
        assert cached and not any(a.flags.writeable for a in cached)
        before = [a.tobytes() for a in cached]
        L = len(seg.elems)
        for start, end in [(0, L // 2), (L // 4, 3 * L // 4), (L // 2, L),
                           (1, L), (0, 1)]:
            piece = seg.partial(n, start, end, dtype)
            assert not any(
                a.flags.writeable for a in piece if a is not None
            )
            # Compose the rest of the segment on top of the cached piece
            # (and over the cached full run): both are read as inputs.
            rest = _compose_elems(piece, seg.elems[end:], n, dtype)
            _assert_same_bytes(
                rest, _reference_compose(piece, seg.elems[end:], n, dtype)
            )
            _compose_elems(full, seg.elems[start:end], n, dtype)
        assert [a.tobytes() for a in cached] == before
        assert [a.tobytes() for a in seg.full(n, dtype) if a is not None] \
            == before

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("run", sorted(_CANCELLING_RUNS))
    def test_cancelling_run_composes_to_no_permutation(self, run, dtype):
        """A run whose permutations cancel composes to ``src=None``,
        from the identity and from a start whose permutation it inverts,
        with the phase of the per-element fold."""
        n, dt = 4, np.dtype(dtype)
        elems = _CANCELLING_RUNS[run]
        got = _compose_elems((None, None), elems, n, dt)
        assert got[0] is None
        _assert_same_bytes(got, _reference_compose((None, None), elems, n, dt))
        # Split after the first permutation: the prefix's permutation
        # is the start, and the rest of the run undoes it.
        cut = 1 + next(
            i for i, e in enumerate(elems) if isinstance(e, PermutationOp)
        )
        start = _compose_elems((None, None), elems[:cut], n, dt)
        assert start[0] is not None
        got = _compose_elems(start, elems[cut:], n, dt)
        assert got[0] is None
        _assert_same_bytes(got, _reference_compose(start, elems[cut:], n, dt))
        ph0 = _nontrivial_start(np.random.default_rng(5), n, dt)[1]
        got = _compose_elems((start[0], ph0), elems[cut:], n, dt)
        assert got[0] is None
        _assert_same_bytes(
            got, _reference_compose((start[0], ph0), elems[cut:], n, dt)
        )

    @pytest.mark.parametrize("run", [
        (("cx", (0, 1)), ("cx", (1, 2))),
        (("x", (0,)), ("cx", (0, 1))),
        (("swap", (0, 3)), ("swap", (0, 2))),
        (("cx", (0, 1)), ("x", (2,)), ("cx", (0, 1))),
        (("ccx", (0, 1, 2)), ("ccx", (0, 2, 1))),
    ])
    def test_non_cancelling_run_keeps_its_index_map(self, run):
        n = 4
        elems = [PermutationOp(name, qubits) for name, qubits in run]
        got = _compose_elems((None, None), elems, n)
        assert got[0] is not None
        assert not np.array_equal(got[0], np.arange(1 << n))
        _assert_same_bytes(got, _reference_compose((None, None), elems, n))

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_pure_phase_rows_match_identity_gather(self, dtype):
        """``(None, ph)`` multiplies rows in place, byte-equal to a
        gather through ``arange`` followed by the multiply."""
        n = 6
        rng = np.random.default_rng(9)
        buf = (
            rng.normal(size=(5, 1 << n)) + 1j * rng.normal(size=(5, 1 << n))
        ).astype(dtype)
        buf.real[:, ::7] = -0.0
        ph = _nontrivial_start(rng, n, np.dtype(dtype))[1]
        rows = [0, 2, 3]
        want = buf.copy()
        for r in rows:
            np.multiply(np.take(want[r], np.arange(1 << n)), ph, out=want[r])
        got = buf.copy()
        _mono_apply_rows(got, rows, (None, ph))
        assert got.tobytes() == want.tobytes()

    def test_paper_width_qfa_segments_have_no_permutation(self):
        """Transpiled ``cp`` is ``rz·cx·rz·cx·rz``: at paper width every
        QFA 8+8 segment that carries ``cx`` gates composes to a pure
        phase.  A lowering or transpile change that breaks the
        cancellation fails here rather than silently slowing the walk."""
        program = build_compiled_program(
            "add", 8, 8, None, "1q", 0.005, "qiskit"
        )
        n = program.num_qubits
        segs = [item for kind, item in program.exec_stream() if kind == "seg"]
        permuting = [
            s for s in segs
            if any(isinstance(e, PermutationOp) for e in s.elems)
        ]
        assert (len(segs), len(permuting)) == (17, 15)
        assert sum(s.full(n)[0] is None for s in permuting) == 15


def _ideal_program(n):
    return build_compiled_program("add", n, n, None, "1q", 0.0, "qiskit")


def _touched(terms):
    return {q for _, qubits, _ in terms for q in qubits}


class TestFusedDiagonals:
    """On registers of 13+ qubits a fused diagonal's kernel is a table
    on its padded support, and every use of it is byte-equal to the
    full-width vector of :func:`_build_diag`."""

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("width", [8, 7])
    def test_ideal_qfa_diagonals_match_full_build(self, width, dtype):
        """Every fused op of the ideal QFA 8+8 and 7+7 programs lives
        on a support narrower than the register, many of them padded
        past the qubits they touch; expanded by ``diag`` and broadcast
        by ``apply``, each is byte-equal to the full-width build."""
        program = _ideal_program(width)
        n, dt = program.num_qubits, np.dtype(dtype)
        fused = [
            op for op in program.ops
            if isinstance(op, DiagonalOp) and len(op.terms) > 1
        ]
        assert len(fused) > 40
        rng = np.random.default_rng(width)
        state = (
            rng.normal(size=(2, 1 << n)) + 1j * rng.normal(size=(2, 1 << n))
        ).astype(dt)
        state.imag[:, ::7] = -0.0
        padded = 0
        for op in fused:
            support, _ = _diag_support(n, op.terms)
            assert len(support) < n
            padded += len(support) > len(_touched(op.terms))
            want = _build_diag(n, op.terms, dt)
            got = op.diag(n, dt)
            assert got.dtype == want.dtype and not got.flags.writeable
            assert got.tobytes() == want.tobytes()
            applied = state.copy()
            op.apply(applied, n)
            assert applied.tobytes() == (state * want).tobytes()
        assert padded > 0

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_whole_register_support_keeps_full_width_kernel(self, dtype):
        """A run whose padded support is the whole register (qubit 0
        pulls in 0-5, the rest are touched) keeps one cached ``2**n``
        vector, as below the threshold."""
        reset_compile_caches()
        n, dt = 13, np.dtype(dtype)
        terms = (("rz", (0,), (0.3,)),) + tuple(
            ("cp", (q, q + 1), (0.1 * q,)) for q in range(6, 12)
        )
        op = DiagonalOp(terms)
        assert _diag_support(n, terms) is None
        d = op.diag(n, dt)
        assert d is op.diag(n, dt)
        assert d.tobytes() == _build_diag(n, terms, dt).tobytes()
        assert kernel_cache_stats()["total_bytes"] == d.nbytes

    def test_strided_state_is_multiplied_in_place(self):
        """A batch that is a strided view cannot be reshaped in place;
        ``apply`` multiplies it by the expanded vector instead."""
        n = 16
        op = next(
            op for op in _ideal_program(8).ops
            if isinstance(op, DiagonalOp) and len(op.terms) > 1
        )
        rng = np.random.default_rng(0)
        big = rng.normal(size=(4, 1 << n)) + 1j * rng.normal(size=(4, 1 << n))
        want = big[::2] * _build_diag(n, op.terms)
        view = big[::2]
        assert not view.flags.c_contiguous
        op.apply(view, n)
        assert big[::2].tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_ideal_qfa8_run_caches_no_full_width_vector(self, dtype):
        """An ideal QFA 8+8 statevector run caches no ``2**16`` phase
        vector and under 1 MB of kernels in all, and its probabilities
        equal those of an op-by-op run that multiplies each fused op's
        full-width vector in."""
        program = _ideal_program(8)
        n, dt = program.num_qubits, np.dtype(dtype)
        init = generate_instances("add", 8, 8, (1, 1), 1, 5)[0]
        init = init.initial_statevector()
        reset_compile_caches()
        dist = StatevectorEngine(dtype=dt).distribution(program, init)
        assert not [
            key for key in _KERNELS._entries
            if key[0] == "diag" and key[1] == n
        ]
        assert 0 < kernel_cache_stats()["total_bytes"] < 1 << 20

        state = np.array(init, dtype=dt).reshape(1, -1)
        for op in program.ops:
            if op.kind != "unitary":
                continue
            if isinstance(op, DiagonalOp) and len(op.terms) > 1:
                state *= _build_diag(n, op.terms, dt)
            else:
                op.apply(state, n)
        # The engine's own read-out: Statevector, then the Born rule.
        ref = Statevector(state[0], n).data.reshape(1, -1)
        want = Distribution(probabilities(ref)[0], n)
        assert dist.probs.tobytes() == want.probs.tobytes()

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_rz_factors_are_cached_read_only(self, dtype):
        dt = np.dtype(dtype)
        """The rz factors are built once per ``(lam, dtype)``, read-only,
        with :func:`_build_diag`'s bytes; ``-0.0`` shares ``0.0``'s
        entry and bytes."""
        f = _rz_factors(0.7, dt)
        assert f is _rz_factors(0.7, dt) and not f.flags.writeable
        assert f.tobytes() == _build_diag(1, (("rz", (0,), (0.7,)),), dt).tobytes()
        assert (
            _rz_factors(0.0, dt).tobytes() == _rz_factors(-0.0, dt).tobytes()
            == _build_diag(1, (("rz", (0,), (-0.0,)),), dt).tobytes()
        )


class TestDenseOp:
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("n,q", [
        (16, 6), (16, 9), (16, 15), (12, 6), (12, 11), (9, 8),
    ])
    def test_row_wise_matches_batched_matmul(self, n, q, dtype):
        """Blocks of rows through a one-block scratch (one row at a time
        at 16 qubits, 4 rows and a shorter last block at 12, the whole
        batch at 9) are byte-equal to the single ``(B, 2**n)`` matmul
        they replaced."""
        B = 17
        rng = np.random.default_rng(q)
        state = (
            rng.normal(size=(B, 1 << n)) + 1j * rng.normal(size=(B, 1 << n))
        ).astype(dtype)
        state.real[:, ::11] = -0.0
        for name in ("h", "sx"):
            op = DenseOp((name, (q,), ()))
            U = G.make_gate(name).matrix
            want = state.copy()
            s = want.reshape(B << (n - 1 - q), 2, 1 << q)
            s[...] = np.matmul(U, s)
            got = state.copy()
            op.apply(got, n)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def _capture_final_states(monkeypatch):
    """Record every batch the engines sample from, as bytes."""
    import repro.sim.batch as batch_mod
    import repro.sim.trajectories as traj_mod

    seen = []

    def recording(module):
        real = module.probabilities

        def probabilities(state, *args, **kwargs):
            seen.append(np.ascontiguousarray(state).tobytes())
            return real(state, *args, **kwargs)

        monkeypatch.setattr(module, "probabilities", probabilities)

    recording(traj_mod)
    recording(batch_mod)
    return seen


def _count_compositions(monkeypatch, composer):
    import repro.sim.program as program_mod

    calls = []

    def counted(cur, elems, n, dtype=None):
        calls.append(len(elems))
        return composer(cur, elems, n, dtype)

    monkeypatch.setattr(program_mod, "_compose_elems", counted)
    return calls


#: ``None`` runs the active backend tier, so the ``REPRO_BACKEND``
#: matrix lanes cover both; the explicit dtypes pin each tier anyway.
_WALK_DTYPES = [None, np.complex128, np.complex64]


class TestWalkerParity:
    """The trajectory walker and the fused batch scheduler give
    byte-identical final states with the composer and with the fold."""

    @pytest.fixture(autouse=True)
    def _canonical_backend(self):
        """Bitwise parity holds on every tier: leave the backend as the
        environment sets it."""

    @pytest.mark.parametrize("dtype", _WALK_DTYPES)
    def test_trajectory_engine(self, monkeypatch, dtype):
        inst = generate_instances("add", 4, 4, (1, 1), 1, 5)[0]
        init = inst.initial_statevector()
        runs = []
        for composer in (_reference_compose, _compose_elems):
            with monkeypatch.context() as mp:
                reset_compile_caches()
                calls = _count_compositions(mp, composer)
                states = _capture_final_states(mp)
                program = build_compiled_program(
                    "add", 4, 4, None, "1q", 0.005, "qiskit"
                )
                eng = TrajectoryEngine(trajectories=16, seed=123, dtype=dtype)
                counts = eng.run(program, shots=2048, initial_state=init)
            segs = [i for kind, i in program.exec_stream() if kind == "seg"]
            # Beyond one full product per segment, the walker composed
            # the pieces between fork and fire events.
            assert len(calls) > len(segs)
            runs.append((states, dict(counts.items())))
        (ref_states, ref_counts), (new_states, new_counts) = runs
        assert ref_states and new_states == ref_states
        assert new_counts == ref_counts

    @pytest.mark.parametrize("dtype", _WALK_DTYPES)
    def test_fused_batch(self, monkeypatch, dtype):
        from repro.sim.batch import FusedTrajectoryScheduler, TrajectoryTask

        runs = []
        for composer in (_reference_compose, _compose_elems):
            with monkeypatch.context() as mp:
                reset_compile_caches()
                calls = _count_compositions(mp, composer)
                states = _capture_final_states(mp)
                tasks = [
                    TrajectoryTask(
                        key=i,
                        program=build_compiled_program(
                            "add", 4, 4, None, "1q", rate, "qiskit"
                        ),
                        shots=512,
                        trajectories=16,
                        rng=np.random.default_rng((77, i)),
                    )
                    for i, rate in enumerate((0.005, 0.01, 0.02))
                ]
                results = FusedTrajectoryScheduler(dtype=dtype).run(tasks)
            assert calls
            runs.append((
                states,
                {k: dict(r.counts.items()) for k, r in results.items()},
            ))
        (ref_states, ref_counts), (new_states, new_counts) = runs
        assert ref_states and new_states == ref_states
        assert new_counts == ref_counts
