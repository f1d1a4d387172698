"""Experiment configuration and scale control.

A :class:`SweepConfig` pins everything that defines one figure panel:
the arithmetic operation and register widths, the superposition orders,
the error axis and its rates, the AQFT depths, and the simulation budget
(instances, shots, trajectories).

``REPRO_SCALE`` selects the budget tier:

* ``smoke``   — seconds; CI-sized registers and counts.
* ``default`` — minutes; reduced register/instance counts that still
  show every qualitative shape of the paper's figures.
* ``paper``   — the faithful 200-instance x 2048-shot reproduction at
  the paper's register sizes (hours of single-core CPU).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from ..runtime.envutil import env_str
from ..runtime.errors import width_limit_error
from ..sim.methods import METHODS, method_width_cap

__all__ = [
    "SweepConfig",
    "Scale",
    "current_scale",
    "SCALES",
    "SWEEP_METHODS",
]

#: Engines a sweep config may name (validated in __post_init__) — the
#: single method registry, shared with the service and the CLI.
SWEEP_METHODS = METHODS


@dataclass(frozen=True)
class Scale:
    """A simulation budget tier."""

    name: str
    qfa_n: int
    qfm_n: int
    instances_add: int
    instances_mul: int
    shots: int
    trajectories: int

    def __str__(self) -> str:
        return (
            f"{self.name}(QFA n={self.qfa_n}, QFM n={self.qfm_n}, "
            f"inst={self.instances_add}/{self.instances_mul}, "
            f"shots={self.shots}, traj={self.trajectories})"
        )


SCALES = {
    "smoke": Scale("smoke", qfa_n=4, qfm_n=2, instances_add=4,
                   instances_mul=3, shots=256, trajectories=8),
    "default": Scale("default", qfa_n=6, qfm_n=3, instances_add=8,
                     instances_mul=6, shots=1024, trajectories=16),
    "paper": Scale("paper", qfa_n=8, qfm_n=4, instances_add=200,
                   instances_mul=200, shots=2048, trajectories=2048),
}


def current_scale() -> Scale:
    """The tier selected by ``REPRO_SCALE`` (default ``default``)."""
    name = env_str("REPRO_SCALE", "default").lower()
    try:
        return SCALES[name]
    except KeyError:
        raise ValueError(
            f"REPRO_SCALE must be one of {sorted(SCALES)}, got {name!r}"
        ) from None


@dataclass(frozen=True)
class SweepConfig:
    """One figure panel: success rate vs error rate, per depth.

    ``depths`` uses the library convention (kept R_2..R_d per qubit;
    ``None`` = full QFT).  ``error_axis`` selects which gate error is
    swept ("1q" or "2q"); rate 0.0 rows run the ideal engine and give
    the figures' x-origin reference points.
    """

    operation: str  # "add" | "mul"
    n: int
    m: int
    orders: Tuple[int, int]
    error_axis: str  # "1q" | "2q"
    error_rates: Tuple[float, ...]
    depths: Tuple[Optional[int], ...]
    instances: int
    shots: int
    trajectories: int
    seed: int = 1234
    method: str = "trajectory"
    convention: str = "qiskit"
    label: str = ""
    #: method="cut": fragment-width budget for the cut searcher
    #: (0 = the subsystem default).  Ignored by other methods.
    max_fragment_qubits: int = 0

    @property
    def total_qubits(self) -> int:
        """Full register width of this config's circuit."""
        if self.operation == "add":
            return self.n + self.m
        return 2 * (self.n + self.m)

    def __post_init__(self):
        if self.operation not in ("add", "mul"):
            raise ValueError(f"unknown operation {self.operation!r}")
        if self.error_axis not in ("1q", "2q"):
            raise ValueError(f"error_axis must be '1q' or '2q'")
        if self.method not in SWEEP_METHODS:
            raise ValueError(
                f"method must be one of {sorted(SWEEP_METHODS)}, "
                f"got {self.method!r}"
            )
        if self.instances < 1 or self.shots < 1:
            raise ValueError("instances and shots must be >= 1")
        if self.max_fragment_qubits < 0:
            raise ValueError("max_fragment_qubits must be >= 0")
        cap = method_width_cap(self.method)
        if cap is not None and self.total_qubits > cap:
            raise width_limit_error(
                f"{self.method} sweep admission", cap, self.total_qubits
            )

    def with_overrides(self, **kwargs) -> "SweepConfig":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)

    def depth_label(self, depth: Optional[int]) -> str:
        """Paper-style depth label: kept rotations per qubit, or 'full'."""
        if depth is None:
            return "full"
        return str(depth - 1)

    def describe(self) -> str:
        """One-line human-readable summary of the panel."""
        op = "QFA" if self.operation == "add" else "QFM"
        return (
            f"{op} n={self.n} m={self.m} orders={self.orders[0]}:{self.orders[1]} "
            f"{self.error_axis}-sweep rates={list(self.error_rates)} "
            f"depths={[self.depth_label(d) for d in self.depths]} "
            f"inst={self.instances} shots={self.shots}"
        )
