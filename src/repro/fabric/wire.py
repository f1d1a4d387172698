"""Wire format of the fabric's coordinator <-> worker protocol.

One ``POST /v1/work`` request carries everything a stateless worker
needs to execute a unit bit-identically to the local path: the full
:class:`~repro.experiments.config.SweepConfig`, the operand instance
set, the member cell keys, the unit's attempt number, and (for chaos
runs) the per-cell fault specs.  Workers never see the journal and hold
no sweep state between units — any worker can run any unit at any time,
which is what makes reassignment and work stealing safe.

The payload also carries the sweep *fingerprint*; a worker recomputes
it from the decoded config + instances and refuses units whose
fingerprint does not match — a coordinator/worker version or config
skew turns into a loud 400, never a silently wrong result merged into a
checkpoint journal.

Shipping the instance list on every unit is deliberate redundancy (a
few tens of kilobytes at paper scale): it keeps workers stateless and
the protocol single-round-trip.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..experiments.config import SweepConfig
from ..experiments.serialize import depth_from_json, depth_to_json
from ..runtime.faults import FaultSpec

__all__ = [
    "WORK_PATH",
    "WireError",
    "config_to_wire",
    "config_from_wire",
    "instances_to_wire",
    "instances_from_wire",
    "cell_to_wire",
    "cell_from_wire",
    "build_work_request",
    "parse_work_request",
]

CellKey = Tuple[float, Optional[int]]

#: The batch-execution endpoint served by fabric workers.
WORK_PATH = "/v1/work"


class WireError(ValueError):
    """A malformed or incompatible fabric payload."""


# ----------------------------------------------------------------------
# Config
# ----------------------------------------------------------------------
def config_to_wire(config: SweepConfig) -> Dict[str, Any]:
    """JSON-able dict of a sweep config (depths via the 'full' sentinel)."""
    d = dataclasses.asdict(config)
    d["orders"] = list(config.orders)
    d["error_rates"] = list(config.error_rates)
    d["depths"] = [depth_to_json(x) for x in config.depths]
    return d


def config_from_wire(d: Dict[str, Any]) -> SweepConfig:
    """Inverse of :func:`config_to_wire`."""
    try:
        return SweepConfig(
            operation=d["operation"],
            n=int(d["n"]),
            m=int(d["m"]),
            orders=tuple(d["orders"]),
            error_axis=d["error_axis"],
            error_rates=tuple(float(r) for r in d["error_rates"]),
            depths=tuple(depth_from_json(x) for x in d["depths"]),
            instances=int(d["instances"]),
            shots=int(d["shots"]),
            trajectories=int(d["trajectories"]),
            seed=int(d["seed"]),
            method=d["method"],
            convention=d["convention"],
            label=d.get("label", ""),
            max_fragment_qubits=int(d.get("max_fragment_qubits", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"bad sweep config payload: {exc}") from exc


# ----------------------------------------------------------------------
# Instances
# ----------------------------------------------------------------------
def instances_to_wire(instances: Sequence) -> List[Dict[str, List[int]]]:
    """Operand value lists, matching the sweep-results JSON shape."""
    return [
        {"x": [int(v) for v in inst.x.values],
         "y": [int(v) for v in inst.y.values]}
        for inst in instances
    ]


def instances_from_wire(config: SweepConfig, data: Sequence[dict]) -> List:
    """Rebuild the instance list (uniform-amplitude operands)."""
    from ..core.qint import QInteger
    from ..experiments.instances import ArithmeticInstance

    try:
        return [
            ArithmeticInstance(
                config.operation,
                config.n,
                config.m,
                QInteger.uniform(list(i["x"]), config.n),
                QInteger.uniform(list(i["y"]), config.m),
            )
            for i in data
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"bad instance payload: {exc}") from exc


# ----------------------------------------------------------------------
# Cells and faults
# ----------------------------------------------------------------------
def cell_to_wire(key: CellKey) -> List[Any]:
    return [key[0], depth_to_json(key[1])]


def cell_from_wire(v: Sequence[Any]) -> CellKey:
    return (float(v[0]), depth_from_json(v[1]))


def _fault_to_wire(spec: Optional[FaultSpec]) -> Optional[Dict[str, Any]]:
    if spec is None:
        return None
    return {
        "kind": spec.kind,
        "attempts": spec.attempts,
        "hang_seconds": spec.hang_seconds,
    }


def _fault_from_wire(d: Optional[Dict[str, Any]]) -> Optional[FaultSpec]:
    if d is None:
        return None
    try:
        return FaultSpec(
            kind=d["kind"],
            attempts=int(d.get("attempts", 1)),
            hang_seconds=float(d.get("hang_seconds", 3600.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"bad fault spec payload: {exc}") from exc


# ----------------------------------------------------------------------
# Work requests
# ----------------------------------------------------------------------
def build_work_request(
    fingerprint: str,
    unit_id: str,
    attempt: int,
    config: SweepConfig,
    instances: Sequence,
    cells: Sequence[CellKey],
    fault_specs: Optional[Sequence[Optional[FaultSpec]]] = None,
) -> Dict[str, Any]:
    """The ``POST /v1/work`` body for one unit dispatch."""
    return {
        "fingerprint": fingerprint,
        "unit_id": unit_id,
        "attempt": int(attempt),
        "config": config_to_wire(config),
        "instances": instances_to_wire(instances),
        "cells": [cell_to_wire(k) for k in cells],
        "faults": [
            _fault_to_wire(s)
            for s in (fault_specs or [None] * len(cells))
        ],
    }


def parse_work_request(payload: Any) -> Dict[str, Any]:
    """Decode and sanity-check a work request (worker side).

    Returns a dict with typed fields: ``fingerprint``, ``unit_id``,
    ``attempt``, ``config`` (:class:`SweepConfig`), ``instances``,
    ``cells`` and ``faults``.  Raises :class:`WireError` on anything
    malformed, including a fingerprint that does not match the decoded
    config + instances (config skew between coordinator and worker).
    """
    if not isinstance(payload, dict):
        raise WireError(
            f"work request must be a JSON object, got {type(payload).__name__}"
        )
    missing = [
        f
        for f in ("fingerprint", "unit_id", "attempt", "config",
                  "instances", "cells")
        if f not in payload
    ]
    if missing:
        raise WireError(f"work request missing fields: {missing}")
    config = config_from_wire(payload["config"])
    instances = instances_from_wire(config, payload["instances"])
    cells = [cell_from_wire(c) for c in payload["cells"]]
    if not cells:
        raise WireError("work request carries no cells")
    faults_raw = payload.get("faults") or [None] * len(cells)
    if len(faults_raw) != len(cells):
        raise WireError(
            f"faults list length {len(faults_raw)} != cells {len(cells)}"
        )
    from ..experiments.sweep import sweep_fingerprint

    expected = sweep_fingerprint(config, instances)
    if payload["fingerprint"] != expected:
        raise WireError(
            f"fingerprint mismatch: coordinator sent "
            f"{payload['fingerprint']!r}, worker derives {expected!r} "
            f"(config/version skew)"
        )
    return {
        "fingerprint": str(payload["fingerprint"]),
        "unit_id": str(payload["unit_id"]),
        "attempt": int(payload["attempt"]),
        "config": config,
        "instances": instances,
        "cells": cells,
        "faults": [_fault_from_wire(f) for f in faults_raw],
    }
