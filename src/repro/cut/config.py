"""Configuration for circuit cutting (``method="cut"``)."""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["CutConfig", "DEFAULT_MAX_FRAGMENT_QUBITS"]

#: Default fragment-width budget: matches ``auto``'s exact-engine cap
#: (``EXACT_MAX_QUBITS``), so every fragment stays in PTM territory.
DEFAULT_MAX_FRAGMENT_QUBITS = 10


@dataclass(frozen=True)
class CutConfig:
    """Knobs of one cut evaluation.

    ``strategy`` selects the searcher:

    * ``"auto"`` — try the structural register cut first (the
      Fourier-basis register boundary of QFA/QFM circuits), fall back
      to generic wire cuts;
    * ``"registers"`` — require the structural cut (error if the
      circuit has no classically-controlled register within budget);
    * ``"wires"`` — force the generic Pauli wire-cut path.

    ``workers`` parallelises fragment evaluation over a process pool
    (0 = in-process serial).  ``fabric`` is a worker fleet — a registry
    file path or comma-separated ``host:port`` list — to which fragment
    jobs are shipped individually (degrading to local execution when no
    worker answers, mirroring the sweep fabric's contract).
    """

    max_fragment_qubits: int = DEFAULT_MAX_FRAGMENT_QUBITS
    #: generic path: reconstruction terms grow as 4**cuts — hard cap.
    max_cuts: int = 8
    strategy: str = "auto"
    workers: int = 0
    fabric: str = ""

    def __post_init__(self) -> None:
        if self.max_fragment_qubits < 1:
            raise ValueError(
                f"max_fragment_qubits must be >= 1, "
                f"got {self.max_fragment_qubits}"
            )
        if self.max_cuts < 1:
            raise ValueError(f"max_cuts must be >= 1, got {self.max_cuts}")
        if self.strategy not in ("auto", "registers", "wires"):
            raise ValueError(
                f"strategy must be 'auto', 'registers' or 'wires', "
                f"got {self.strategy!r}"
            )
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")

    def with_overrides(self, **kwargs) -> "CutConfig":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)
