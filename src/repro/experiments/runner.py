"""Single-point execution: circuits, noise, simulation, verdicts.

``run_point`` evaluates one cluster of the paper's figures: a fixed
(operation, depth, error rate, superposition orders) cell, averaged over
its instances.  Circuits are transpiled to the IBM basis once per
(operation, widths, depth) and cached — only the injected initial state
changes between instances, mirroring the paper's noise-free
initialization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import dataclasses
import math

from ..circuits.circuit import QuantumCircuit
from ..core.adders import qfa_circuit
from ..core.multipliers import qfm_circuit
from ..metrics.success import (
    InstanceOutcome,
    SuccessSummary,
    evaluate_instance,
    summarize,
)
from ..noise.model import NoiseModel
from ..runtime.errors import NumericalHealthError
from ..sim.backend import get_backend
from ..sim.engines import simulate_counts
from ..sim.program import CompiledProgram, compile_circuit
from ..transpile.passes import transpile
from .config import SweepConfig
from .instances import ArithmeticInstance

__all__ = [
    "build_arithmetic_circuit",
    "build_compiled_program",
    "noise_model_for",
    "config_dtype",
    "run_instance",
    "run_point",
    "run_unit",
    "poison_point",
    "check_point_health",
    "PointResult",
]


@lru_cache(maxsize=64)
def build_arithmetic_circuit(
    operation: str, n: int, m: int, depth: Optional[int]
) -> QuantumCircuit:
    """The transpiled (IBM-basis) arithmetic circuit for a config cell.

    Cached: the circuit depends only on the operation, register widths
    and AQFT depth — never on operand values.
    """
    if operation == "add":
        logical = qfa_circuit(n, m, depth=depth)
    elif operation == "mul":
        logical = qfm_circuit(n, m, depth=depth)
    else:
        raise ValueError(f"unknown operation {operation!r}")
    return transpile(logical)


def noise_model_for(
    error_axis: str, rate: float, convention: str = "qiskit"
) -> NoiseModel:
    """The paper's isolated 1q- or 2q-depolarizing model at ``rate``.

    ``rate <= 0`` is the ideal (noise-free) model, but a *negative*
    rate is always a caller bug — rejected loudly rather than silently
    building a depolarizing channel with a nonsense parameter.
    """
    if rate < 0:
        raise ValueError(f"error rate must be >= 0, got {rate}")
    if rate <= 0.0:
        return NoiseModel.ideal()
    if error_axis == "1q":
        model = NoiseModel.depolarizing(p1q=rate, convention=convention)
    elif error_axis == "2q":
        model = NoiseModel.depolarizing(p2q=rate, convention=convention)
    else:
        raise ValueError(f"unknown error axis {error_axis!r}")
    # Tag the sweep spec so fragment jobs (repro.cut) can ship this
    # model to fabric workers by value.
    model.sweep_spec = (error_axis, float(rate), convention)
    return model


def config_dtype(config: SweepConfig):
    """The state dtype a config's ``backend`` field selects (None = the
    process default, resolved later by the engines)."""
    if not config.backend:
        return None
    return get_backend(config.backend).complex_dtype


@lru_cache(maxsize=128)
def build_compiled_program(
    operation: str,
    n: int,
    m: int,
    depth: Optional[int],
    error_axis: str,
    rate: float,
    convention: str = "qiskit",
) -> CompiledProgram:
    """The compiled execution program for one sweep cell.

    Layered caching: this LRU memoises the full (cell, rate) pair, and
    the compile cache underneath shares one *lowering* across every rate
    of the same cell structure (see :mod:`repro.sim.program`) — so a
    rate-only sweep lowers each circuit exactly once and performs one
    cheap bind per rate.
    """
    circuit = build_arithmetic_circuit(operation, n, m, depth)
    noise = noise_model_for(error_axis, rate, convention)
    return compile_circuit(circuit, noise)


def run_instance(
    circuit: QuantumCircuit,
    instance: ArithmeticInstance,
    noise: NoiseModel,
    shots: int,
    trajectories: int,
    rng: np.random.Generator,
    method: str = "trajectory",
    program: Optional[CompiledProgram] = None,
    dtype=None,
    cut=None,
) -> InstanceOutcome:
    """Simulate one instance and apply the paper's success criterion.

    When ``program`` is given the precompiled form is executed directly
    (skipping per-instance lowering); ``circuit``/``noise`` still define
    the semantics and must be the pair the program was compiled from.
    ``method="cut"`` always takes the raw circuit (fragments re-lower
    individually) and ideal rows stay on the cut path so wide registers
    never touch a full-width statevector.
    """
    if noise.is_ideal and method != "cut":
        method = "statevector"
    counts = simulate_counts(
        circuit if method == "cut" or program is None else program,
        noise,
        shots=shots,
        method=method,
        trajectories=trajectories,
        rng=rng,
        initial_state=instance.initial_statevector(),
        dtype=dtype,
        cut=cut,
    )
    return evaluate_instance(counts, instance.correct_outcomes())


@dataclass(frozen=True)
class PointResult:
    """One cluster point: (rate, depth) -> aggregated success stats."""

    error_rate: float
    depth: Optional[int]
    depth_label: str
    summary: SuccessSummary
    outcomes: Tuple[InstanceOutcome, ...]
    #: fingerprint of the compiled program that produced this point
    #: ("" for results predating program compilation, e.g. restored
    #: checkpoints from older journals).
    program_fingerprint: str = ""
    #: method="cut": fragments in the cut plan (0 = point not cut).
    num_fragments: int = 0
    #: method="cut": wire/register cuts the plan made.
    cut_count: int = 0
    #: method="cut": fragment variants evaluated across all instances.
    variants_evaluated: int = 0


def run_point(
    config: SweepConfig,
    instances: List[ArithmeticInstance],
    error_rate: float,
    depth: Optional[int],
    rng: Optional[np.random.Generator] = None,
    program: Optional[CompiledProgram] = None,
) -> PointResult:
    """Evaluate all instances of one (error rate, depth) cell.

    ``program`` lets a sweep driver ship the cell's precompiled program
    (compiled once in the parent) into worker processes; when omitted it
    is built — and cached — here.
    """
    if rng is None:
        # Deterministic per-cell stream, independent of execution order.
        rng = np.random.default_rng(
            (config.seed, int(error_rate * 1e7), depth or 0, 777)
        )
    circuit = build_arithmetic_circuit(
        config.operation, config.n, config.m, depth
    )
    noise = noise_model_for(config.error_axis, error_rate, config.convention)
    if config.method == "cut":
        return _run_point_cut(
            config, instances, error_rate, depth, circuit, noise, rng
        )
    if program is None:
        program = build_compiled_program(
            config.operation, config.n, config.m, depth,
            config.error_axis, error_rate, config.convention,
        )
    outcomes = [
        run_instance(
            circuit,
            inst,
            noise,
            config.shots,
            config.trajectories,
            rng,
            config.method,
            program=program,
            dtype=config_dtype(config),
        )
        for inst in instances
    ]
    return PointResult(
        error_rate=error_rate,
        depth=depth,
        depth_label=config.depth_label(depth),
        summary=summarize(outcomes),
        outcomes=tuple(outcomes),
        program_fingerprint=program.fingerprint,
    )


def _run_point_cut(
    config: SweepConfig,
    instances: List[ArithmeticInstance],
    error_rate: float,
    depth: Optional[int],
    circuit: QuantumCircuit,
    noise: NoiseModel,
    rng: np.random.Generator,
) -> PointResult:
    """The cut-method cell path: fragments instead of full-width engines.

    Never compiles the full-width program (a >=16-qubit register is the
    whole point); fragment metadata from the actual evaluations lands on
    the :class:`PointResult` so journals record cut traffic.
    """
    from ..cut import CutConfig

    cut_cfg = (
        CutConfig(max_fragment_qubits=config.max_fragment_qubits)
        if config.max_fragment_qubits
        else CutConfig()
    )
    outcomes = []
    num_fragments = cut_count = variants = 0
    for inst in instances:
        counts = simulate_counts(
            circuit,
            noise,
            shots=config.shots,
            method="cut",
            trajectories=config.trajectories,
            rng=rng,
            initial_state=inst.initial_statevector(),
            dtype=config_dtype(config),
            cut=cut_cfg,
        )
        info = counts.cut_info
        num_fragments = info["num_fragments"]
        cut_count = info["cut_count"]
        variants += info["variants_evaluated"]
        outcomes.append(evaluate_instance(counts, inst.correct_outcomes()))
    return PointResult(
        error_rate=error_rate,
        depth=depth,
        depth_label=config.depth_label(depth),
        summary=summarize(outcomes),
        outcomes=tuple(outcomes),
        program_fingerprint="",
        num_fragments=num_fragments,
        cut_count=cut_count,
        variants_evaluated=variants,
    )


def run_unit(
    config: SweepConfig,
    instances: List[ArithmeticInstance],
    cells: Sequence[Tuple[float, Optional[int]]],
    programs: Optional[Sequence[Optional[CompiledProgram]]] = None,
) -> Dict[Tuple[float, Optional[int]], PointResult]:
    """Execute one work unit of cells, one :func:`run_point` per cell.

    This is the single entry point shared by every execution venue —
    local supervisor workers, the arithmetic service, and fabric
    workers — so a unit's results are bit-identical no matter where it
    runs: every cell draws from its own deterministic per-cell stream,
    independent of which other cells share the unit.
    """
    cells = list(cells)
    if programs is None:
        programs = [None] * len(cells)
    return {
        (rate, depth): run_point(
            config, instances, rate, depth, program=program
        )
        for (rate, depth), program in zip(cells, programs)
    }


def poison_point(point: PointResult) -> PointResult:
    """A NaN-corrupted copy of a point (the ``nan`` fault payload)."""
    bad = dataclasses.replace(
        point.summary, sigma=float("nan"), mean_min_diff=float("nan")
    )
    return dataclasses.replace(point, summary=bad)


def check_point_health(point: PointResult) -> None:
    """Reject non-finite aggregates before they enter a result set."""
    s = point.summary
    for name in ("sigma", "mean_min_diff"):
        v = float(getattr(s, name))
        if not math.isfinite(v):
            raise NumericalHealthError(
                f"cell (rate={point.error_rate}, depth={point.depth_label}) "
                f"produced non-finite {name}={v!r}"
            )
