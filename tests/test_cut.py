"""Circuit-cutting subsystem tests.

The load-bearing claims, each pinned here:

* **parity** — a cut evaluation of a QFA/QFM circuit reproduces the
  uncut engine's distribution: exactly (TV <= 1e-10) on the ideal
  register lane and on the wire-cut lane (whose per-variant engine is
  exact density matrices at these widths), and within a pinned
  statistical envelope on the noisy register (trajectory) lane;
* **searcher invariants** — plans respect the fragment budget,
  partition the wires, and are deterministic;
* **variant sharing** — all prep combinations of a wire-cut fragment
  ride one compiled program per measure-basis variant (3**out_edges
  jobs per fragment, not 3**out * 4**in);
* **width guards** — dense engines, sweep admission, and the service
  schema all reject over-wide registers with the uniform
  :class:`~repro.runtime.errors.WidthLimitError` message that names
  ``method="cut"`` as the way out.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit
from repro.circuits.gates import make_gate
from repro.core.qint import QInteger
from repro.cut import (
    CutConfig,
    CutError,
    CutSearchError,
    check_plan,
    classical_wires,
    cut_counts,
    cut_distribution,
    cut_stats,
    find_cuts,
    reset_cut_stats,
)
from repro.cut.fragments import build_variant_jobs
from repro.experiments.config import SweepConfig
from repro.experiments.instances import ArithmeticInstance
from repro.experiments.runner import (
    build_arithmetic_circuit,
    noise_model_for,
)
from repro.runtime.errors import WidthLimitError
from repro.sim.density import DensityMatrixEngine
from repro.sim.methods import METHODS
from repro.sim.statevector import StatevectorEngine


@pytest.fixture(autouse=True)
def _canonical_backend(monkeypatch):
    """Float64 exactness oracles: pin the canonical tier."""
    monkeypatch.setenv("REPRO_BACKEND", "numpy64")


_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _tv(a, b) -> float:
    return 0.5 * float(np.abs(np.asarray(a) - np.asarray(b)).sum())


def _instance(operation, n, m, xs, ys) -> ArithmeticInstance:
    return ArithmeticInstance(
        operation, n, m, QInteger.uniform(xs, n), QInteger.uniform(ys, m)
    )


# ---------------------------------------------------------------------------
# Parity: cut vs uncut
# ---------------------------------------------------------------------------
@_SETTINGS
@given(
    n=st.integers(2, 4),
    m=st.integers(2, 4),
    x=st.integers(0, 1000),
    y=st.integers(0, 1000),
)
def test_register_cut_matches_statevector_ideal(n, m, x, y):
    """Ideal register-cut QFA == uncut statevector, TV <= 1e-10."""
    qc = build_arithmetic_circuit("add", n, m, None)
    inst = _instance("add", n, m, [x % (1 << n)], [y % (1 << m)])
    init = inst.initial_statevector()
    dist = cut_distribution(
        qc, None, config=CutConfig(max_fragment_qubits=m),
        initial_state=init, seed=3,
    )
    ref = StatevectorEngine().distribution(qc, init).probs
    assert dist.cut_info["kind"] == "registers"
    assert _tv(dist.probs, ref) <= 1e-10


def test_register_cut_superposed_operands():
    """Branch decomposition: superposed x AND y stay exact."""
    n = m = 3
    qc = build_arithmetic_circuit("add", n, m, None)
    inst = _instance("add", n, m, [1, 3, 6], [2, 5])
    init = inst.initial_statevector()
    dist = cut_distribution(
        qc, None, config=CutConfig(max_fragment_qubits=m),
        initial_state=init, seed=3,
    )
    ref = StatevectorEngine().distribution(qc, init).probs
    assert _tv(dist.probs, ref) <= 1e-10


def test_register_cut_multiplier_ideal():
    """QFM: both operand registers are classical; fragment = z."""
    qc = build_arithmetic_circuit("mul", 2, 2, None)
    inst = _instance("mul", 2, 2, [3], [2])
    init = inst.initial_statevector()
    dist = cut_distribution(
        qc, None, config=CutConfig(max_fragment_qubits=4),
        initial_state=init, seed=3,
    )
    ref = StatevectorEngine().distribution(qc, init).probs
    assert dist.cut_info["kind"] == "registers"
    assert _tv(dist.probs, ref) <= 1e-10


@_SETTINGS
@given(rate=st.sampled_from([0.005, 0.02, 0.05]))
def test_wire_cut_matches_density_noisy(rate):
    """Noisy wire cut is exact here: each variant runs on PTM."""
    qc = build_arithmetic_circuit("add", 2, 2, None)
    noise = noise_model_for("2q", rate, "qiskit")
    dist = cut_distribution(
        qc, noise,
        config=CutConfig(max_fragment_qubits=3, strategy="wires"),
        seed=5,
    )
    ref = DensityMatrixEngine().run(qc, noise).probabilities().probs
    assert dist.cut_info["kind"] == "wires"
    assert _tv(dist.probs, ref) <= 1e-10


def test_wire_cut_matches_statevector_ideal():
    qc = build_arithmetic_circuit("add", 2, 2, None)
    dist = cut_distribution(
        qc, None,
        config=CutConfig(max_fragment_qubits=3, strategy="wires"),
        seed=5,
    )
    ref = StatevectorEngine().distribution(qc).probs
    assert _tv(dist.probs, ref) <= 1e-10


def test_register_cut_noisy_within_envelope():
    """The trajectory-sampled register lane converges on density.

    4000 first-fire trajectory rows at p=0.01 put the TV around 0.006;
    0.05 is a ~8-sigma envelope (seeded, so deterministic regardless).
    """
    n = m = 3
    qc = build_arithmetic_circuit("add", n, m, None)
    noise = noise_model_for("2q", 0.01, "qiskit")
    inst = _instance("add", n, m, [5], [2])
    init = inst.initial_statevector()
    dist = cut_distribution(
        qc, noise, config=CutConfig(max_fragment_qubits=m),
        initial_state=init, trajectories=4000, seed=11,
    )
    ref = (
        DensityMatrixEngine()
        .run(qc, noise, initial_state=init)
        .probabilities()
        .probs
    )
    assert _tv(dist.probs, ref) <= 0.05


#: Every event kind a register-cut template can hold.
_EVENT_KINDS = {
    "gate", "site", "flip", "cls_cx", "cls_ccx", "cls_swap", "cls_reset",
    "perm", "condphase", "conddiag1",
}


def _every_event_circuit() -> QuantumCircuit:
    """Six wires, C = {0, 1, 2} and F = {3, 4, 5}, and every event
    kind (``perm`` from one C control, two C controls and mixed
    controls; ``conddiag1`` from a classical control, a classical
    target, and two classical wires of a generic controlled-``crz``)."""
    qc = QuantumCircuit(6)
    for q in (3, 4, 5):
        qc.h(q)
    qc.x(0)  # flip
    qc.cx(0, 3)  # perm, C-only control
    qc.cx(0, 1)  # cls_cx
    qc.cp(0.7, 2, 4)  # condphase, one fragment wire
    qc.ccx(1, 4, 5)  # perm, mixed controls -> cx on F
    qc.ccx(0, 1, 2)  # cls_ccx
    qc.crz(0.9, 1, 5)  # conddiag1, C control
    qc.swap(1, 2)  # cls_swap
    qc.ccp(1.3, 0, 3, 4)  # condphase, two fragment wires
    qc.ccx(0, 2, 3)  # perm, two C controls
    qc.crz(-0.4, 5, 2)  # conddiag1, C target
    qc.append(make_gate("crz", 0.5).control(1), (0, 1, 4))  # conddiag1, 2 C
    qc.reset(2)  # cls_reset
    qc.cx(1, 2)
    for q in (3, 4, 5):
        qc.h(q)
    return qc


def _every_event_noise():
    from repro.noise.model import NoiseModel

    return NoiseModel.depolarizing(
        p2q=0.05, gates_2q=("cx", "cp", "crz", "swap")
    )


def _every_event_state() -> np.ndarray:
    rng = np.random.default_rng(5)
    vec = rng.normal(size=64) + 1j * rng.normal(size=64)
    return vec / np.linalg.norm(vec)


def _reference_walk(template, value, frag_state, row):
    """One trajectory row, walked alone with the scalar event resolver."""
    from repro.cut.fragments import _resolve_event
    from repro.noise.pauli import PAULI_MATRICES
    from repro.sim.ops import apply_gate_matrix, apply_instruction

    nF = template.frag_width
    bits = [0] * template.num_qubits
    for i, q in enumerate(template.classical):
        bits[q] = (value >> i) & 1
    state = np.array(frag_state, dtype=complex).reshape(1, -1)
    flips, paulis = row
    for event in template.events:
        if event[0] == "site":
            for s, _, loc, ch in paulis:
                if s == event[1]:
                    apply_gate_matrix(state, PAULI_MATRICES[ch], (loc,), nF)
            for s, q in flips:
                if s == event[1]:
                    bits[q] ^= 1
            continue
        instr = _resolve_event(event, bits)
        if instr is not None:
            state = apply_instruction(state, instr, nF)
    cls_out = sum(bits[q] << i for i, q in enumerate(template.classical))
    return cls_out, np.abs(state[0]) ** 2


def test_batched_walk_matches_per_row_walks(monkeypatch):
    """Every event kind, real sampled rows: one batched walk == one
    walk per row, bit for bit (classical output and probabilities)."""
    from repro.cut import fragments

    calls = []
    walk = fragments._walk_rows

    def recording(template, value, frag_state, rows):
        out = walk(template, value, frag_state, rows)
        calls.append((template, value, frag_state, rows, out))
        return out

    monkeypatch.setattr(fragments, "_walk_rows", recording)
    qc = _every_event_circuit()
    plan = find_cuts(qc, CutConfig(max_fragment_qubits=3))
    assert plan.classical == (0, 1, 2) and plan.fragment == (3, 4, 5)
    cut_distribution(
        qc, _every_event_noise(), config=CutConfig(max_fragment_qubits=3),
        initial_state=_every_event_state(), trajectories=48, seed=2,
    )
    assert len(calls) == 8  # every classical value is a branch
    template = calls[0][0]
    assert {ev[0] for ev in template.events} == _EVENT_KINDS
    perms = {ev[2].gate.name for ev in template.events if ev[0] == "perm"}
    assert perms == {"x", "cx"}
    flipped = unflipped = 0
    for template, value, frag_state, rows, (cls_outs, probs) in calls:
        assert len(cls_outs) == len(rows) == probs.shape[0]
        for r, row in enumerate(rows):
            flipped += bool(row[0])
            unflipped += not row[0]
            cls_ref, probs_ref = _reference_walk(
                template, value, frag_state, row
            )
            assert cls_outs[r] == cls_ref
            assert probs[r].tobytes() == probs_ref.tobytes()
    assert flipped and unflipped  # rows with and without flips


def test_every_event_kind_matches_density():
    """The hand-made every-event circuit: ideal cut == statevector
    exactly, noisy cut within a seeded envelope of density."""
    qc = _every_event_circuit()
    init = _every_event_state()
    config = CutConfig(max_fragment_qubits=3)
    ideal = cut_distribution(qc, None, config=config, initial_state=init)
    ref = DensityMatrixEngine().run(qc, None, initial_state=init)
    assert _tv(ideal.probs, ref.probabilities().probs) <= 1e-10
    noise = _every_event_noise()
    dist = cut_distribution(
        qc, noise, config=config, initial_state=init,
        trajectories=4000, seed=11,
    )
    ref = DensityMatrixEngine().run(qc, noise, initial_state=init)
    assert _tv(dist.probs, ref.probabilities().probs) <= 0.01


def test_rate_sweep_builds_register_skeleton_once(monkeypatch):
    """A rate sweep builds the event list once and re-binds the site
    tables per rate; each bound template equals a direct build, and a
    zero-rate channel drops out of the site list exactly as there."""
    from repro.cut import fragments
    from repro.noise.channels import bit_flip_error, depolarizing_error
    from repro.noise.model import NoiseModel

    builds = []
    build = fragments._build_skeleton

    def counting(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(fragments, "_build_skeleton", counting)
    monkeypatch.setattr(fragments, "_SKELETON_CACHE", {})
    monkeypatch.setattr(fragments, "_TEMPLATE_CACHE", {})
    qc = build_arithmetic_circuit("add", 3, 3, None)
    init = _instance("add", 3, 3, [5], [2]).initial_statevector()
    config = CutConfig(max_fragment_qubits=3)
    plan = find_cuts(qc, config)

    def model(p_cx, p_1q):
        noise = NoiseModel()
        noise.add_all_qubit_quantum_error(depolarizing_error(p_cx, 2), ["cx"])
        noise.add_all_qubit_quantum_error(bit_flip_error(p_1q), ["rz", "sx"])
        return noise

    models = [model(0.01, 0.0), model(0.02, 0.003), model(0.03, 0.0)]
    for noise in models:
        cut_distribution(qc, noise, config=config, initial_state=init,
                         trajectories=16, seed=3)
    assert len(builds) == 1
    assert len(fragments._TEMPLATE_CACHE) == len(models)
    for noise in models:
        bound = next(
            t for k, t in fragments._TEMPLATE_CACHE.items()
            if k[-1] == noise.fingerprint()
        )
        direct = fragments._bind_sites(build(qc, noise, plan), noise)
        assert bound.events == direct.events
        assert [(s.qubits, s.labels, s.e) for s in bound.sites] == [
            (s.qubits, s.labels, s.e) for s in direct.sites
        ]
    n_sites = [
        len(t.sites) for t in fragments._TEMPLATE_CACHE.values()
    ]
    assert n_sites[0] == n_sites[2] < n_sites[1]


def test_cut_counts_deterministic_given_seed():
    qc = build_arithmetic_circuit("add", 3, 3, None)
    noise = noise_model_for("2q", 0.02, "qiskit")
    init = _instance("add", 3, 3, [5], [2]).initial_statevector()
    kwargs = dict(
        config=CutConfig(max_fragment_qubits=3),
        initial_state=init, trajectories=64, seed=42,
    )
    a = cut_counts(qc, noise, shots=512, **kwargs)
    b = cut_counts(qc, noise, shots=512, **kwargs)
    assert dict(a.items()) == dict(b.items())
    assert a.method == "cut"


def test_readout_error_folds_on_register_lane():
    """Readout error applies once, on the reconstructed distribution."""
    from repro.noise import NoiseModel, ReadoutError

    qc = build_arithmetic_circuit("add", 2, 2, None)
    noisy = NoiseModel().add_readout_error(ReadoutError(0.1, 0.05))
    init = _instance("add", 2, 2, [1], [2]).initial_statevector()
    dist = cut_distribution(
        qc, noisy, config=CutConfig(max_fragment_qubits=2),
        initial_state=init, seed=3,
    )
    ref = DensityMatrixEngine().distribution(qc, noisy, init).probs
    assert _tv(dist.probs, ref) <= 1e-10


# ---------------------------------------------------------------------------
# Searcher invariants
# ---------------------------------------------------------------------------
@_SETTINGS
@given(
    n=st.integers(2, 4),
    m=st.integers(2, 4),
    budget=st.integers(2, 6),
)
def test_search_invariants_qfa(n, m, budget):
    qc = build_arithmetic_circuit("add", n, m, None)
    config = CutConfig(max_fragment_qubits=budget, max_cuts=64)
    try:
        plan = find_cuts(qc, config)
    except CutSearchError:
        return  # genuinely out of budget — acceptable for tiny budgets
    check_plan(plan, config)
    assert plan.max_width <= budget
    if plan.kind == "registers":
        assert sorted(plan.classical + plan.fragment) == list(
            range(qc.num_qubits)
        )
    else:
        # Fragments must host every wire a gate touches; wires idled by
        # transpilation (integer-multiple phases dropped) stay |0> and
        # need no fragment — reconstruction scatters them implicitly.
        touched = set()
        for inst in qc.instructions:
            touched |= set(inst.qubits)
        hosted = set()
        for frag in plan.fragments:
            hosted |= set(frag.qubits)
        assert hosted == touched
    # Deterministic: the plan is a pure function of (circuit, config).
    assert find_cuts(qc, config) == plan


def test_qfa_x_register_is_classical():
    """The structural fact the register cut exploits, stated directly."""
    n = m = 3
    qc = build_arithmetic_circuit("add", n, m, None)
    assert classical_wires(qc) == tuple(range(n))


def test_qfm_both_operands_classical():
    qc = build_arithmetic_circuit("mul", 2, 2, None)
    assert classical_wires(qc) == (0, 1, 2, 3)


def test_register_preferred_over_wires():
    qc = build_arithmetic_circuit("add", 3, 3, None)
    plan = find_cuts(qc, CutConfig(max_fragment_qubits=3))
    assert plan.kind == "registers"


def test_search_error_when_no_plan_fits():
    qc = build_arithmetic_circuit("add", 3, 3, None)
    with pytest.raises(CutSearchError):
        find_cuts(qc, CutConfig(max_fragment_qubits=2, max_cuts=1))


# ---------------------------------------------------------------------------
# Variant sharing and wire format
# ---------------------------------------------------------------------------
def test_variant_jobs_share_programs_across_preps():
    """One compiled program per measure-basis variant per fragment:
    prep combinations are initial states, never recompiles."""
    qc = build_arithmetic_circuit("add", 2, 2, None)
    plan = find_cuts(qc, CutConfig(max_fragment_qubits=3, strategy="wires"))
    jobs, frag_meta = build_variant_jobs(qc, plan, None, 16, (1,))
    for meta in frag_meta:
        out = len(meta["out_edges"])
        assert len(meta["basis_jobs"]) == 3 ** out
    assert len(jobs) == sum(
        3 ** len(meta["out_edges"]) for meta in frag_meta
    )


def test_cut_stats_counters():
    reset_cut_stats()
    qc = build_arithmetic_circuit("add", 2, 2, None)
    init = _instance("add", 2, 2, [1], [2]).initial_statevector()
    dist = cut_distribution(
        qc, None, config=CutConfig(max_fragment_qubits=2),
        initial_state=init, seed=3,
    )
    s = cut_stats()
    assert s["plans"] == 1 and s["plans_registers"] == 1
    assert s["reconstructions"] == 1
    # One register-cut branch job per value, each run in-process.
    assert s["jobs_local"] == dist.cut_info["variants_evaluated"] >= 1
    assert s["jobs_pool"] == 0


# ---------------------------------------------------------------------------
# Width guards: the uniform WidthLimitError surface
# ---------------------------------------------------------------------------
def _wide_circuit(num_qubits: int) -> QuantumCircuit:
    qc = QuantumCircuit(num_qubits)
    from repro.circuits import gates as G

    qc.append(G.XGate(), (0,))
    return qc


def test_density_engine_raises_width_limit():
    qc = _wide_circuit(DensityMatrixEngine.max_qubits + 1)
    with pytest.raises(WidthLimitError) as err:
        DensityMatrixEngine().run(qc, noise_model_for("2q", 0.01, "qiskit"))
    assert 'method="cut"' in str(err.value)


def test_ptm_engine_raises_width_limit():
    from repro.sim.ptm import PTMEngine

    qc = _wide_circuit(PTMEngine.max_qubits + 1)
    with pytest.raises(WidthLimitError) as err:
        PTMEngine().run(qc, noise_model_for("2q", 0.01, "qiskit"))
    assert 'method="cut"' in str(err.value)


def test_sweep_admission_raises_width_limit():
    with pytest.raises(WidthLimitError) as err:
        SweepConfig(
            operation="add", n=8, m=8, orders=(1, 1), error_axis="2q",
            error_rates=(0.01,), depths=(None,), instances=1, shots=8,
            trajectories=4, method="density",
        )
    assert 'method="cut"' in str(err.value)


def test_service_admission_rejects_wide_dense_requests():
    from repro.service.model import RequestValidationError, SimRequest

    req = SimRequest(
        operation="add", n=8, m=8, x=(3,), y=(5,), method="density"
    )
    with pytest.raises(RequestValidationError) as err:
        req.validate()
    assert 'method="cut"' in str(err.value)


def test_reconstruction_budget_raises_width_limit(monkeypatch):
    monkeypatch.setenv("REPRO_CUT_MB", "1")
    from repro.cut.reconstruct import _check_output_width

    _check_output_width(16)  # 0.5 MiB output: fits
    with pytest.raises(WidthLimitError):
        _check_output_width(24)  # 128 MiB output: over the 1 MiB budget


def test_cut_rejects_compiled_program():
    from repro.experiments.runner import build_compiled_program

    program = build_compiled_program("add", 2, 2, None, "2q", 0.0, "qiskit")
    with pytest.raises(ValueError, match="raw QuantumCircuit"):
        cut_distribution(program)  # type: ignore[arg-type]


def test_wire_cut_rejects_nontrivial_initial_state():
    qc = build_arithmetic_circuit("add", 2, 2, None)
    init = _instance("add", 2, 2, [1], [2]).initial_statevector()
    with pytest.raises(CutError, match=r"\|0\.\.\.0>"):
        cut_distribution(
            qc, None,
            config=CutConfig(max_fragment_qubits=3, strategy="wires"),
            initial_state=init, seed=3,
        )


# ---------------------------------------------------------------------------
# Dispatch plumbing
# ---------------------------------------------------------------------------
def test_simulate_counts_cut_method():
    from repro.sim.engines import simulate_counts

    qc = build_arithmetic_circuit("add", 3, 3, None)
    noise = noise_model_for("2q", 0.01, "qiskit")
    init = _instance("add", 3, 3, [5], [2]).initial_statevector()
    rng = np.random.default_rng(7)
    counts = simulate_counts(
        qc, noise, shots=256, method="cut", trajectories=64,
        rng=rng, initial_state=init,
        cut=CutConfig(max_fragment_qubits=3),
    )
    assert counts.method == "cut"
    assert counts.cut_info["kind"] == "registers"
    assert sum(v for _, v in counts.items()) == 256


def test_sweep_config_accepts_cut_method():
    config = SweepConfig(
        operation="add", n=8, m=8, orders=(1, 1), error_axis="2q",
        error_rates=(0.01,), depths=(None,), instances=1, shots=8,
        trajectories=4, method="cut", max_fragment_qubits=8,
    )
    assert config.total_qubits == 16  # admitted: no dense cap applies


def test_method_registry_is_the_single_source():
    from repro.experiments.config import SWEEP_METHODS
    from repro.service import model as service_model

    assert "cut" in METHODS
    assert SWEEP_METHODS == METHODS
    assert tuple(service_model._METHODS) == METHODS
