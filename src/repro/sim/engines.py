"""Engine dispatch: pick the right simulator for a (circuit, noise) pair.

``method="auto"`` implements the strategy documented in DESIGN.md:
ideal -> statevector; small noisy -> the exact Pauli-transfer-matrix
engine; large noisy -> batched trajectories.  The density-matrix engine
computes the same distribution as PTM at a far higher cost, so it runs
only when asked for by name (it is the exact oracle the tests compare
against).  ``simulate_counts`` is the single entry point the experiment
harness uses.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..noise.model import NoiseModel
from .density import DensityMatrixEngine
from .perturbative import PerturbativeEngine
from .program import CompiledProgram
from .ptm import PTMEngine
from .result import Counts, Distribution
from .statevector import StatevectorEngine
from .trajectories import TrajectoryEngine

__all__ = ["simulate_counts", "simulate_distribution", "choose_method"]

#: Largest noisy register ``auto`` sends to an exact engine (PTM).
EXACT_MAX_QUBITS = 10

Simulatable = Union[QuantumCircuit, CompiledProgram]


def _is_ideal(
    circuit: Simulatable, noise_model: Optional[NoiseModel]
) -> bool:
    if isinstance(circuit, CompiledProgram):
        return circuit.num_noise_sites == 0 and not circuit.readout
    return noise_model is None or noise_model.is_ideal


def choose_method(
    circuit: Simulatable, noise_model: Optional[NoiseModel] = None
) -> str:
    """The auto-dispatch rule: statevector / ptm / trajectory.

    Ideal circuits run on the statevector engine.  Noisy circuits of at
    most :data:`EXACT_MAX_QUBITS` qubits run on the exact PTM engine,
    wider ones on trajectories.  For a
    :class:`~repro.sim.program.CompiledProgram` the noise sites baked
    into the program decide; ``noise_model`` is then ignored.
    """
    if _is_ideal(circuit, noise_model):
        return "statevector"
    if circuit.num_qubits <= EXACT_MAX_QUBITS:
        return "ptm"
    return "trajectory"


def _cut_distribution(
    circuit: Simulatable,
    noise_model: Optional[NoiseModel],
    initial_state: Optional[np.ndarray],
    trajectories: int,
    rng: Optional[np.random.Generator],
    cut,
) -> Distribution:
    """Dispatch ``method="cut"`` to :mod:`repro.cut` (lazy import)."""
    from ..cut import CutConfig, cut_distribution

    if isinstance(circuit, CompiledProgram):
        raise ValueError(
            "method='cut' needs the raw QuantumCircuit — fragments are "
            "re-lowered individually (pass the circuit, not the "
            "compiled program)"
        )
    return cut_distribution(
        circuit,
        noise_model,
        config=cut if cut is not None else CutConfig(),
        initial_state=initial_state,
        trajectories=trajectories,
        rng=rng,
    )


def simulate_distribution(
    circuit: Simulatable,
    noise_model: Optional[NoiseModel] = None,
    method: str = "auto",
    max_order: int = 1,
    initial_state: Optional[np.ndarray] = None,
    dtype=None,
    trajectories: int = 128,
    rng: Optional[np.random.Generator] = None,
    cut=None,
) -> Distribution:
    """Exact (or deterministic-approximate) outcome distribution.

    ``method`` in {"auto", "statevector", "density", "ptm",
    "perturbative", "cut"}.  The trajectory engine is excluded here because
    its output is stochastic — use :func:`simulate_counts` for sampled
    results; in auto mode a circuit that would dispatch to the
    trajectory engine is computed perturbatively instead.  ``"ptm"``
    is the Pauli-transfer-matrix exact lane (:mod:`repro.sim.ptm`) —
    identical output contract to ``"density"`` with pre-compiled
    superoperators.  The *resolved* engine name is
    recorded on the result as ``Distribution.method``, so callers can
    see (and tests can assert) which engine actually ran — previously
    the trajectory->perturbative substitution happened silently.

    ``circuit`` may be a :class:`~repro.sim.program.CompiledProgram`;
    its baked-in noise sites and readout table are then used and
    ``noise_model`` is ignored.
    """
    from .density import (
        _apply_readout_table_to_distribution,
        _apply_readout_to_distribution,
    )

    if method == "auto":
        method = choose_method(circuit, noise_model)
        if method == "trajectory":
            method = "perturbative"
    if method == "cut":
        # Readout folds inside the cut path (on the reconstruction).
        return _cut_distribution(
            circuit, noise_model, initial_state, trajectories, rng, cut
        )
    is_program = isinstance(circuit, CompiledProgram)
    if method == "statevector":
        dist = StatevectorEngine(dtype=dtype).distribution(
            circuit, initial_state
        )
    elif method == "density":
        # Readout folding happens inside the density path already.
        dist = DensityMatrixEngine(dtype=dtype).distribution(
            circuit, noise_model, initial_state
        )
        dist.method = method
        return dist
    elif method == "ptm":
        # Readout folds inside the PTM path too (compiled table).
        dist = PTMEngine(dtype=dtype).distribution(
            circuit, noise_model, initial_state
        )
        dist.method = method
        return dist
    elif method == "perturbative":
        dist = PerturbativeEngine(max_order=max_order, dtype=dtype).distribution(
            circuit, noise_model, initial_state
        )
    else:
        raise ValueError(f"unknown method {method!r}")
    if is_program:
        dist = _apply_readout_table_to_distribution(
            dist, circuit.readout, circuit.num_qubits
        )
    elif noise_model is not None:
        dist = _apply_readout_to_distribution(
            dist, noise_model, circuit.num_qubits
        )
    dist.method = method
    return dist


def simulate_counts(
    circuit: Simulatable,
    noise_model: Optional[NoiseModel] = None,
    shots: int = 2048,
    method: str = "auto",
    trajectories: int = 128,
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    initial_state: Optional[np.ndarray] = None,
    dtype=None,
    split_clean: bool = True,
    cut=None,
) -> Counts:
    """Sampled measurement counts over all qubits.

    The harness's single entry point.  ``method`` in {"auto",
    "statevector", "density", "ptm", "trajectory", "perturbative",
    "cut"}; non-trajectory methods compute the exact distribution and
    sample it.  ``method="cut"`` routes through :mod:`repro.cut`
    (fragment evaluation + tensor reconstruction; ``cut`` may carry a
    :class:`~repro.cut.CutConfig`) and needs the raw circuit.  ``dtype=None`` resolves through the active
    :mod:`~repro.sim.backend` (``REPRO_BACKEND``).
    ``split_clean`` toggles the trajectory engine's exact ideal/erred
    ensemble split (see :mod:`repro.sim.trajectories`).  The resolved
    engine name is recorded as ``Counts.method``.

    ``circuit`` may be a precompiled
    :class:`~repro.sim.program.CompiledProgram` (e.g. from
    :func:`repro.sim.program.compile_circuit`), which skips lowering in
    the hot path of a sweep.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if trajectories < 1:
        raise ValueError(f"trajectories must be >= 1, got {trajectories}")
    if rng is None:
        # repro: allow[DET001] reason=public API convenience; every result path (runner, batch, executor) threads an explicit (seed, content_key)-derived Generator
        rng = np.random.default_rng(seed)
    if method == "auto":
        method = choose_method(circuit, noise_model)
    if method == "trajectory":
        engine = TrajectoryEngine(
            trajectories=trajectories, rng=rng, dtype=dtype,
            split_clean=split_clean,
        )
        counts = engine.run(circuit, noise_model, shots, initial_state)
        counts.method = method
    elif method == "cut":
        dist = _cut_distribution(
            circuit, noise_model, initial_state, trajectories, rng, cut
        )
        counts = dist.sample(shots, rng)
        counts.method = "cut"
        counts.cut_info = dist.cut_info
    else:
        dist = simulate_distribution(
            circuit, noise_model, method=method,
            initial_state=initial_state, dtype=dtype,
        )
        counts = dist.sample(shots, rng)
        counts.method = dist.method
    return counts
