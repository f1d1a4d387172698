"""``auto`` sends small noisy circuits to PTM; density is the oracle.

Every exact engine samples from the same CPTP distribution, so the
route ``method="auto"`` takes for a noisy circuit of at most
``EXACT_MAX_QUBITS`` qubits (the Pauli-transfer-matrix engine) must
reproduce :class:`~repro.sim.density.DensityMatrixEngine` to round-off:

* across the paper's circuits (QFA 2+2 and 3+3, QFM 2x2), 1q and 2q
  depolarizing noise, thermal relaxation (a Kraus channel) and readout
  error, from basis and superposed operand states — pinned to the
  float64 tier, so the 1e-10 bound holds under every ``REPRO_BACKEND``;
* on the active backend's tier, within the documented parity tolerance
  (docs/backends.md);
* for the noisy wire-cut fragment variants of ``method="cut"``, which
  run on the same PTM lane.
"""

import numpy as np
import pytest

from repro.cut import CutConfig, find_cuts
from repro.cut.fragments import (
    build_variant_jobs,
    prep_statevector,
    run_variant_job,
)
from repro.experiments.instances import generate_instances
from repro.experiments.runner import build_arithmetic_circuit, noise_model_for
from repro.noise.channels import (
    ReadoutError,
    depolarizing_error,
    thermal_relaxation_error,
)
from repro.noise.model import NoiseModel
from repro.sim.backend import active_backend
from repro.sim.density import DensityMatrixEngine
from repro.sim.engines import simulate_distribution
from repro.sim.program import compile_circuit

C128 = np.dtype("complex128")
EXACT_TV = 1e-10


def _thermal() -> NoiseModel:
    nm = NoiseModel()
    nm.add_all_qubit_quantum_error(
        thermal_relaxation_error(50.0, 40.0, 1.0), ["sx", "rz"]
    )
    return nm


def _readout() -> NoiseModel:
    nm = NoiseModel()
    nm.add_all_qubit_quantum_error(depolarizing_error(0.01, 1), ["sx"])
    nm.add_readout_error(ReadoutError(0.03, 0.05))
    return nm


NOISE = {
    "depolarizing-1q": lambda: noise_model_for("1q", 0.01),
    "depolarizing-2q": lambda: noise_model_for("2q", 0.01),
    "thermal-kraus": _thermal,
    "readout": _readout,
}

#: Superposition orders of the operand state: one basis value per
#: register, or two-term superpositions on both.
STATES = {"basis": (1, 1), "superposed": (2, 2)}

#: QFA cells run every (noise, state) pair.  The 8-qubit QFM's density
#: oracle takes seconds per case, so it runs each noise kind once,
#: alternating the initial state.
CASES = [
    (op, n, m, noise, state)
    for op, n, m in (("add", 2, 2), ("add", 3, 3))
    for noise in NOISE
    for state in STATES
] + [
    ("mul", 2, 2, noise, state)
    for noise, state in zip(NOISE, ("basis", "superposed") * 2)
]


def _tv(p, q) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def _initial_state(op, n, m, state):
    (inst,) = generate_instances(op, n, m, STATES[state], 1, seed=7)
    return inst.initial_statevector()


def _parity_tolerance() -> float:
    """1e-10 on the float64 tier, 1e-4 on complex64 (docs/backends.md)."""
    return EXACT_TV if active_backend().tag == "c128" else 1e-4


@pytest.mark.parametrize("op,n,m,noise,state", CASES)
def test_auto_matches_density_oracle(op, n, m, noise, state):
    circuit = build_arithmetic_circuit(op, n, m, None)
    model = NOISE[noise]()
    vec = _initial_state(op, n, m, state)
    got = simulate_distribution(circuit, model, initial_state=vec, dtype=C128)
    assert got.method == "ptm"
    ref = DensityMatrixEngine(dtype=C128).distribution(
        circuit, model, initial_state=vec
    )
    assert _tv(got.probs, ref.probs) <= EXACT_TV


def test_auto_route_on_active_backend():
    circuit = build_arithmetic_circuit("add", 3, 3, None)
    model = noise_model_for("2q", 0.01)
    vec = _initial_state("add", 3, 3, "superposed")
    got = simulate_distribution(circuit, model, initial_state=vec)
    assert got.method == "ptm"
    ref = DensityMatrixEngine().distribution(circuit, model, initial_state=vec)
    assert _tv(got.probs, ref.probs) <= _parity_tolerance()


def test_noisy_wire_cut_variants_run_on_ptm(monkeypatch):
    """Every noisy fragment variant matches density without running it."""
    qc = build_arithmetic_circuit("add", 2, 2, None)
    noise = noise_model_for("2q", 0.02)
    plan = find_cuts(qc, CutConfig(max_fragment_qubits=3, strategy="wires"))
    jobs, _ = build_variant_jobs(qc, plan, noise, 16, (1,))
    refs = []
    for job in jobs:
        program = compile_circuit(job.circuit, job.noise)
        assert program.num_noise_sites > 0
        refs.append([
            DensityMatrixEngine().run(
                program, None,
                prep_statevector(job.width, job.in_wires, combo),
            ).probabilities().probs
            for combo in job.preps
        ])

    def _refuse(*args, **kwargs):
        raise AssertionError("fragment variant ran on the density engine")

    monkeypatch.setattr(DensityMatrixEngine, "run", _refuse)
    for job, ref in zip(jobs, refs):
        got = run_variant_job(job)
        for row, ref_row in zip(got, ref):
            assert _tv(row, ref_row) <= _parity_tolerance()
