"""Ideal (noise-free) statevector simulation.

Used for the x-origin reference points of the paper's figures, for
verifying arithmetic circuits exactly, and as the base evolution inside
the noisy engines.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..runtime.health import check_norms
from .backend import as_complex, resolve_complex_dtype
from .ops import apply_instruction, probabilities
from .program import CompiledProgram
from .result import Distribution

__all__ = ["StatevectorEngine", "Statevector", "zero_state", "evolve_batch"]


def zero_state(
    num_qubits: int, batch: int = 1, dtype=None
) -> np.ndarray:
    """The ``(batch, 2**n)`` all-|0> state array.

    ``dtype=None`` resolves through the active
    :mod:`~repro.sim.backend` (``REPRO_BACKEND``); an explicit dtype
    pins the tier for this allocation.
    """
    state = np.zeros(
        (batch, 1 << num_qubits), dtype=resolve_complex_dtype(dtype)
    )
    state[:, 0] = 1.0
    return state


def evolve_batch(
    state: np.ndarray,
    circuit: Union[QuantumCircuit, CompiledProgram],
    skip_non_unitary: bool = True,
) -> np.ndarray:
    """Apply every unitary instruction of ``circuit`` to the batch.

    Accepts either a raw circuit (interpreted gate by gate) or a
    :class:`~repro.sim.program.CompiledProgram` (executed op by op with
    noise/measure/reset sites skipped).
    """
    if isinstance(circuit, CompiledProgram):
        return evolve_program(state, circuit)
    n = circuit.num_qubits
    for instr in circuit:
        if not instr.gate.is_unitary:
            if skip_non_unitary or instr.gate.name == "barrier":
                continue
            raise ValueError(f"non-unitary op {instr.gate.name!r} in circuit")
        state = apply_instruction(state, instr, n)
    return state


def evolve_program(state: np.ndarray, program: CompiledProgram) -> np.ndarray:
    """Apply a compiled program's unitary ops to the batch, in place."""
    n = program.num_qubits
    for op in program.ops:
        if op.kind == "unitary":
            op.apply(state, n)
    return state


class Statevector:
    """A single pure state with measurement helpers."""

    def __init__(self, data: np.ndarray, num_qubits: int) -> None:
        data = as_complex(data).reshape(-1)
        if data.shape != (1 << num_qubits,):
            raise ValueError(
                f"state has {data.shape[0]} amplitudes, expected {1 << num_qubits}"
            )
        self.data = data
        self.num_qubits = int(num_qubits)

    @classmethod
    def from_int(cls, value: int, num_qubits: int) -> "Statevector":
        """Computational basis state |value>."""
        data = as_complex(np.zeros(1 << num_qubits))
        data[value] = 1.0
        return cls(data, num_qubits)

    def probabilities(self) -> Distribution:
        """Born-rule measurement distribution."""
        p = np.abs(self.data) ** 2
        return Distribution(p / p.sum(), self.num_qubits)

    def fidelity(self, other: "Statevector") -> float:
        """|<self|other>|**2."""
        return float(np.abs(np.vdot(self.data, other.data)) ** 2)

    def equiv(self, other: "Statevector", atol: float = 1e-9) -> bool:
        """Equality up to global phase."""
        return self.fidelity(other) > 1.0 - atol

    def __repr__(self) -> str:
        return f"<Statevector {self.num_qubits}q>"


class StatevectorEngine:
    """Exact, noiseless evolution of a single pure state."""

    def __init__(self, dtype=None) -> None:
        self.dtype = resolve_complex_dtype(dtype)

    def run(
        self,
        circuit: Union[QuantumCircuit, CompiledProgram],
        initial_state: Optional[np.ndarray] = None,
    ) -> Statevector:
        """Evolve ``initial_state`` (default |0...0>) through ``circuit``.

        Measurement and barrier instructions are ignored — use
        :meth:`distribution` + sampling for shot outcomes.  A
        :class:`~repro.sim.program.CompiledProgram` is executed directly
        (its noise sites, if any, are skipped — this engine is ideal).
        """
        n = circuit.num_qubits
        if initial_state is None:
            state = zero_state(n, 1, self.dtype)
        else:
            state = np.array(initial_state, dtype=self.dtype).reshape(1, -1)
            if state.shape[1] != 1 << n:
                raise ValueError(
                    f"initial state has {state.shape[1]} amplitudes, "
                    f"expected {1 << n}"
                )
        state = evolve_batch(state, circuit)
        check_norms(state, "statevector engine")
        return Statevector(state[0], n)

    def distribution(
        self,
        circuit: Union[QuantumCircuit, CompiledProgram],
        initial_state: Optional[np.ndarray] = None,
    ) -> Distribution:
        """The exact outcome distribution of measuring all qubits."""
        sv = self.run(circuit, initial_state)
        p = probabilities(sv.data.reshape(1, -1))[0]
        return Distribution(p, circuit.num_qubits)
