"""Circuit-cutting benchmarks: wide registers and fragment parallelism.

Three claims need numbers (DESIGN.md row E22):

* A **16-qubit QFA cell** — beyond the density (13q) and PTM (12q) caps,
  and a 65536-amplitude statevector per trajectory row if run uncut —
  evaluates end-to-end through ``method="cut"`` as 8-qubit fragments,
  ideal and noisy, with the correct arithmetic on top.
* Fragment jobs **really parallelise**: a superposed operand register
  yields independent branch jobs, and the pool runner spreads them over
  at least two distinct worker processes (the ISSUE's parallelism
  floor).
* At widths every engine admits, cut and uncut **agree** (TV <= 1e-10
  ideal) — the cheap cross-check that the wide-register numbers mean
  what they say.

Timings honour ``REPRO_SCALE``; a summary artifact lands in
``results/bench/``.  ``python3 bench/run.py --workload cut-16q`` times
16-qubit cut cells end to end as part of the repository benchmark.
"""

import time

import numpy as np

from conftest import save_artifact
from repro.core.qint import QInteger
from repro.cut import CutConfig, cut_distribution
from repro.cut.parallel import PoolRunner
from repro.experiments.instances import ArithmeticInstance
from repro.experiments.runner import (
    build_arithmetic_circuit,
    noise_model_for,
)
from repro.metrics.success import evaluate_instance
from repro.sim.density import DensityMatrixEngine
from repro.sim.engines import simulate_counts
from repro.sim.statevector import StatevectorEngine

#: Noisy-lane trajectory budget per scale (the 16q cell's cost knob).
_TRAJECTORIES = {"smoke": 16, "default": 64, "paper": 512}

WIDE_N = 8  # 16 qubits total: beyond every dense engine


def _wide_instance(x_val: int = 173, y_val: int = 41) -> ArithmeticInstance:
    return ArithmeticInstance(
        "add", WIDE_N, WIDE_N,
        QInteger.basis(x_val, WIDE_N), QInteger.basis(y_val, WIDE_N),
    )


def test_wide_qfa_cell_runs_via_fragments(scale, artifact_dir):
    """The acceptance cell: 16-qubit QFA, ideal + noisy, via cut."""
    circuit = build_arithmetic_circuit("add", WIDE_N, WIDE_N, None)
    assert circuit.num_qubits == 16
    assert circuit.num_qubits > DensityMatrixEngine.max_qubits
    inst = _wide_instance()
    noise = noise_model_for("2q", 0.01, "qiskit")
    trajectories = _TRAJECTORIES.get(scale.name, 64)

    lines = [f"cut 16-qubit QFA cell (scale {scale.name})"]
    for label, model in (("ideal", None), ("2q=1%", noise)):
        t0 = time.perf_counter()
        counts = simulate_counts(
            circuit,
            model,
            shots=2048,
            method="cut",
            trajectories=trajectories,
            seed=7,
            initial_state=inst.initial_statevector(),
            cut=CutConfig(max_fragment_qubits=WIDE_N),
        )
        elapsed = time.perf_counter() - t0
        verdict = evaluate_instance(counts, inst.correct_outcomes())
        info = counts.cut_info
        assert info["kind"] == "registers"
        assert info["max_width"] == WIDE_N
        if label == "ideal":
            assert verdict.success  # exact lane: arithmetic must hold
        lines.append(
            f"  {label:<7} {elapsed:7.2f}s  fragments={info['num_fragments']}"
            f" max_width={info['max_width']} success={verdict.success}"
            f" margin={verdict.min_diff}"
        )
    save_artifact(artifact_dir, "perf_cut_wide.txt", "\n".join(lines))


def test_fragment_jobs_parallelise(scale):
    """Branch jobs of a superposed operand spread over >= 2 processes."""
    circuit = build_arithmetic_circuit("add", WIDE_N, WIDE_N, None)
    inst = ArithmeticInstance(
        "add", WIDE_N, WIDE_N,
        QInteger.uniform([3, 40, 90, 200], WIDE_N),
        QInteger.basis(41, WIDE_N),
    )
    noise = noise_model_for("2q", 0.01, "qiskit")
    runner = PoolRunner(workers=4)
    dist = cut_distribution(
        circuit, noise,
        config=CutConfig(max_fragment_qubits=WIDE_N),
        initial_state=inst.initial_statevector(),
        trajectories=_TRAJECTORIES.get(scale.name, 64),
        seed=11,
        runner=runner,
    )
    assert dist.cut_info["num_fragments"] == 2
    # 4 superposed x values -> 4 independent branch jobs; the floor is
    # 2 distinct PIDs so one slow fork can't flake the assertion.
    assert len(runner.worker_pids) >= 2, (
        f"fragment jobs did not spread: pids={runner.worker_pids}"
    )


def test_cut_uncut_parity_at_overlap_width():
    """Where both paths run, they agree — the wide numbers inherit it."""
    n = m = 3
    circuit = build_arithmetic_circuit("add", n, m, None)
    inst = ArithmeticInstance(
        "add", n, m, QInteger.uniform([1, 6], n), QInteger.basis(2, m)
    )
    init = inst.initial_statevector()
    dist = cut_distribution(
        circuit, None, config=CutConfig(max_fragment_qubits=m),
        initial_state=init, seed=3,
    )
    ref = StatevectorEngine().distribution(circuit, init).probs
    assert 0.5 * float(np.abs(dist.probs - ref).sum()) <= 1e-10
