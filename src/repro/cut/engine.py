"""Cut evaluation: search -> fragment jobs -> runner -> reconstruction.

The subsystem's front door, reached via ``simulate_counts(...,
method="cut")`` or directly:

>>> dist = cut_distribution(circuit, noise, config=CutConfig(...))

Register cuts evaluate exactly (ideal lane) or by site-faithful
trajectory replay (noisy lane); wire cuts evaluate each fragment
variant with the best engine its width admits (statevector when ideal,
PTM up to its cap, density one qubit beyond, trajectories above that).
Readout error is folded once on the reconstructed full-register
distribution — outcome statistics see it exactly as the uncut engines
apply it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..noise.model import NoiseModel
from ..sim.density import _apply_readout_to_distribution
from ..sim.result import Counts, Distribution
from . import stats
from .config import CutConfig
from .fragments import CutError, ValueJob, build_variant_jobs, decompose_initial_state
from .parallel import resolve_runner
from .reconstruct import (
    assemble_register_terms,
    contract_wire_plan,
    fragment_quasi_tensor,
)
from .search import CutPlan, check_plan, find_cuts

__all__ = ["cut_distribution", "cut_counts"]


def cut_distribution(
    circuit: QuantumCircuit,
    noise_model: Optional[NoiseModel] = None,
    *,
    config: Optional[CutConfig] = None,
    initial_state: Optional[np.ndarray] = None,
    trajectories: int = 128,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
    runner: Optional[Any] = None,
) -> Distribution:
    """Evaluate ``circuit`` by cutting, returning the full distribution.

    The result carries ``dist.method == "cut"`` and a ``dist.cut_info``
    dict (plan kind, fragment count, cut count, variants evaluated) for
    sweep journals and the service's response metadata.
    """
    if not isinstance(circuit, QuantumCircuit):
        raise ValueError(
            "method='cut' needs the raw QuantumCircuit (fragments are "
            "re-lowered individually); got a compiled program"
        )
    config = config or CutConfig()
    noise = noise_model or NoiseModel.ideal()
    if rng is None:
        rng = np.random.default_rng(seed if seed is not None else 1234567)
    plan = find_cuts(circuit, config)
    check_plan(plan, config)
    use_runner = resolve_runner(config.workers, config.fabric, runner)
    base_seed = int(rng.integers(2**62))
    if plan.kind == "registers":
        probs, variants = _run_register_plan(
            circuit, noise, plan, initial_state, trajectories,
            base_seed, use_runner,
        )
    else:
        probs, variants = _run_wire_plan(
            circuit, noise, plan, initial_state, trajectories,
            base_seed, use_runner,
        )
    probs = _apply_readout_to_distribution(
        Distribution(_sanitize(probs), plan.num_qubits), noise,
        plan.num_qubits,
    )
    dist = probs
    dist.method = "cut"
    dist.cut_info = {
        "kind": plan.kind,
        "num_fragments": plan.num_fragments,
        "cut_count": plan.cut_count,
        "max_width": plan.max_width,
        "variants_evaluated": variants,
    }
    return dist


def cut_counts(
    circuit: QuantumCircuit,
    noise_model: Optional[NoiseModel] = None,
    shots: int = 2048,
    **kwargs,
) -> Counts:
    """Shot counts sampled from :func:`cut_distribution`."""
    rng = kwargs.pop("rng", None)
    seed = kwargs.get("seed")
    if rng is None:
        rng = np.random.default_rng(seed if seed is not None else 1234567)
    dist = cut_distribution(circuit, noise_model, rng=rng, **kwargs)
    counts = dist.sample(shots, rng)
    counts.method = "cut"
    counts.cut_info = dist.cut_info
    return counts


def _sanitize(probs: np.ndarray) -> np.ndarray:
    """Clip reconstruction round-off/statistical negatives, renormalise."""
    probs = np.clip(np.asarray(probs, dtype=float), 0.0, None)
    total = probs.sum()
    if total <= 0:
        raise CutError("reconstructed distribution has no weight")
    return probs / total


def _run_register_plan(
    circuit: QuantumCircuit,
    noise: NoiseModel,
    plan: CutPlan,
    initial_state: Optional[np.ndarray],
    trajectories: int,
    base_seed: int,
    runner: Any,
) -> Tuple[np.ndarray, int]:
    branches = decompose_initial_state(
        initial_state, plan.num_qubits, plan.classical, plan.fragment
    )
    jobs = [
        ValueJob(
            circuit=circuit,
            classical=plan.classical,
            fragment=plan.fragment,
            value=value,
            weight=weight,
            frag_state=frag_state,
            noise=None if noise.is_ideal else noise,
            trajectories=trajectories,
            seed=(base_seed, j),
        )
        for j, (value, weight, frag_state) in enumerate(branches)
    ]
    merged: Dict[int, np.ndarray] = {}
    for terms in runner.run(jobs):
        for cls_out, vec in terms:
            acc = merged.get(cls_out)
            if acc is None:
                merged[cls_out] = np.asarray(vec, dtype=float).copy()
            else:
                acc += vec
    probs = assemble_register_terms(
        list(merged.items()), plan.classical, plan.fragment, plan.num_qubits
    )
    return probs, len(jobs)


def _run_wire_plan(
    circuit: QuantumCircuit,
    noise: NoiseModel,
    plan: CutPlan,
    initial_state: Optional[np.ndarray],
    trajectories: int,
    base_seed: int,
    runner: Any,
) -> Tuple[np.ndarray, int]:
    if initial_state is not None:
        vec = np.asarray(initial_state).reshape(-1)
        if abs(vec[0]) ** 2 < 1.0 - 1e-12:
            raise CutError(
                "the generic wire-cut path starts from |0...0> only; "
                "initialise inputs with gates (or use a register cut)"
            )
    if any(
        noise.readout_error(q) is not None for q in range(plan.num_qubits)
    ):
        raise CutError(
            "readout error is unsupported on the wire-cut path (the "
            "basis-rotated cut measurements would absorb it); use the "
            "register-cut strategy"
        )
    jobs, frag_meta = build_variant_jobs(
        circuit, plan, None if noise.is_ideal else noise,
        trajectories, (base_seed,),
    )
    results = runner.run(jobs)
    tensors = []
    for meta in frag_meta:
        dists_by_basis = {
            basis: results[job_index]
            for basis, job_index in meta["basis_jobs"].items()
        }
        width = len(meta["qubits"])
        tensors.append(fragment_quasi_tensor(meta, dists_by_basis, width))
    probs = contract_wire_plan(plan, frag_meta, tensors)
    variants = sum(
        len(meta["basis_jobs"]) * len(meta["preps"]) for meta in frag_meta
    )
    return probs, variants
