"""Gate definitions and their unitary matrices.

Every gate used by the quantum-Fourier-arithmetic stack is defined here:
the one-qubit gates of the IBM basis (``id``, ``x``, ``rz``, ``sx``),
standard named gates (Hadamard, Paulis, phase family, rotations), the
two-qubit entanglers (``cx``, ``cz``, ``cp``, ``swap``, ``ch``), and the
doubly-controlled gates required by controlled quantum Fourier arithmetic
(``ccx``, ``ccp``, ``cch``).

Matrix convention
-----------------
Gates are little-endian, matching Qiskit: for a gate applied to qubit
arguments ``(q_0, q_1, ..., q_{k-1})``, bit ``i`` of a matrix row/column
index is the computational value of argument ``q_i``.  Argument 0 is the
least-significant bit of the matrix index.  Controlled gates place their
*controls first* in the argument list.

Gates are immutable; parameterised gates store their parameters as plain
floats.  The matrix for a given (name, params) pair is built on first
access and cached on the instance.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Gate",
    "GateError",
    "GATE_BUILDERS",
    "make_gate",
    "IdGate",
    "XGate",
    "YGate",
    "ZGate",
    "HGate",
    "SGate",
    "SdgGate",
    "TGate",
    "TdgGate",
    "SXGate",
    "SXdgGate",
    "PhaseGate",
    "RZGate",
    "RXGate",
    "RYGate",
    "UGate",
    "CXGate",
    "CZGate",
    "CYGate",
    "CHGate",
    "CPGate",
    "CRZGate",
    "SwapGate",
    "CSwapGate",
    "CCXGate",
    "CCPGate",
    "CCHGate",
    "MeasureOp",
    "BarrierOp",
    "ResetOp",
    "controlled_matrix",
    "is_diagonal_gate",
    "is_monomial_gate",
    "phase_on_ones",
    "phase_on_ones_angle",
]


class GateError(ValueError):
    """Raised for malformed gate construction or use."""


def _u_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    """The generic single-qubit rotation U(theta, phi, lam).

    ``U = [[cos(t/2), -e^{i lam} sin(t/2)],
           [e^{i phi} sin(t/2), e^{i(phi+lam)} cos(t/2)]]``
    """
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return np.array(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


def controlled_matrix(base: np.ndarray, num_controls: int = 1) -> np.ndarray:
    """Embed ``base`` as a controlled unitary with ``num_controls`` controls.

    Controls are the *lowest-index* qubit arguments (little-endian matrix
    bits 0..num_controls-1); the base gate acts on the remaining qubits.
    The gate fires when every control bit is 1.
    """
    if num_controls < 1:
        raise GateError("num_controls must be >= 1")
    k = int(round(math.log2(base.shape[0])))
    if 2**k != base.shape[0] or base.shape[0] != base.shape[1]:
        raise GateError(f"base matrix has invalid shape {base.shape}")
    nc = num_controls
    dim = 2 ** (k + nc)
    out = np.eye(dim, dtype=complex)
    mask = (1 << nc) - 1
    # Rows whose control bits are all ones: index = mask + (j << nc).
    sel = mask + (np.arange(2**k) << nc)
    out[np.ix_(sel, sel)] = base
    return out


class Gate:
    """An immutable quantum gate (or non-unitary op marker).

    Parameters
    ----------
    name:
        Canonical lowercase gate name (``"h"``, ``"cx"``, ``"cp"``, ...).
    num_qubits:
        Arity of the gate.
    params:
        Real parameters (rotation angles), empty for fixed gates.
    matrix_fn:
        Callable producing the unitary from ``params``; ``None`` for
        non-unitary ops (measure/barrier/reset).
    """

    __slots__ = (
        "name", "num_qubits", "params", "_matrix_fn", "_matrix",
        "num_ctrl_qubits", "_diagonal",
    )

    def __init__(
        self,
        name: str,
        num_qubits: int,
        params: Sequence[float] = (),
        matrix_fn: Optional[Callable[..., np.ndarray]] = None,
        num_ctrl_qubits: int = 0,
    ) -> None:
        self.name = name
        self.num_qubits = int(num_qubits)
        self.params: Tuple[float, ...] = tuple(float(p) for p in params)
        self._matrix_fn = matrix_fn
        self._matrix: Optional[np.ndarray] = None
        self._diagonal: Optional[bool] = None
        self.num_ctrl_qubits = int(num_ctrl_qubits)
        if self.num_qubits < 1:
            raise GateError(f"gate {name!r} must act on at least one qubit")

    # -- identity / comparison -------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gate):
            return NotImplemented
        return (
            self.name == other.name
            and self.num_qubits == other.num_qubits
            and self.params == other.params
        )

    def __hash__(self) -> int:
        return hash((self.name, self.num_qubits, self.params))

    def __repr__(self) -> str:
        if self.params:
            ps = ", ".join(f"{p:.6g}" for p in self.params)
            return f"{self.name}({ps})"
        return self.name

    # -- properties -------------------------------------------------------
    @property
    def is_unitary(self) -> bool:
        """Whether the op has a unitary matrix (False for measure etc.)."""
        return self._matrix_fn is not None

    @property
    def matrix(self) -> np.ndarray:
        """The little-endian unitary matrix of this gate."""
        if self._matrix_fn is None:
            raise GateError(f"op {self.name!r} has no matrix")
        if self._matrix is None:
            m = np.asarray(self._matrix_fn(*self.params), dtype=complex)
            expected = 2**self.num_qubits
            if m.shape != (expected, expected):
                raise GateError(
                    f"matrix for {self.name!r} has shape {m.shape}, "
                    f"expected {(expected, expected)}"
                )
            m.setflags(write=False)
            self._matrix = m
        return self._matrix

    @property
    def is_diagonal(self) -> bool:
        """Whether the gate matrix is diagonal (phase-type gate).

        Decided once per gate: the answer depends only on the name and
        the matrix, and the simulation kernels ask on every dense gate.
        """
        if self._diagonal is None:
            if self.name in _DIAGONAL_NAMES:
                self._diagonal = True
            elif not self.is_unitary:
                self._diagonal = False
            else:
                m = self.matrix
                self._diagonal = bool(np.allclose(m, np.diag(np.diag(m))))
        return self._diagonal

    # -- algebra ----------------------------------------------------------
    def inverse(self) -> "Gate":
        """Return the inverse gate, keeping a canonical name when known."""
        inv_name = _INVERSE_NAMES.get(self.name)
        if inv_name is not None:
            builder = GATE_BUILDERS[inv_name]
            return builder(*self.params)
        if self.name in _PARAM_NEGATE:
            builder = GATE_BUILDERS[self.name]
            return builder(*(-p for p in self.params))
        if self.name == "u":
            theta, phi, lam = self.params
            return UGate(-theta, -lam, -phi)
        if not self.is_unitary:
            raise GateError(f"op {self.name!r} is not invertible")
        mat = self.matrix.conj().T
        return Gate(f"{self.name}_dg", self.num_qubits, (), lambda m=mat: m)

    def control(self, num_controls: int = 1) -> "Gate":
        """Return the controlled version of this gate.

        Uses canonical controlled names when one exists (``x -> cx``,
        ``cp -> ccp``...), otherwise synthesises a generic controlled
        matrix gate named ``c{n}-{name}``.
        """
        if num_controls < 1:
            raise GateError("num_controls must be >= 1")
        key = (self.name, num_controls)
        ctrl_name = _CONTROLLED_NAMES.get(key)
        if ctrl_name is not None:
            return GATE_BUILDERS[ctrl_name](*self.params)
        base = self.matrix
        mat = controlled_matrix(base, num_controls)
        prefix = "c" * num_controls
        return Gate(
            f"{prefix}-{self.name}",
            self.num_qubits + num_controls,
            self.params,
            lambda *_, m=mat: m,
            num_ctrl_qubits=self.num_ctrl_qubits + num_controls,
        )


# ---------------------------------------------------------------------------
# Matrix builders
# ---------------------------------------------------------------------------

_SQ2 = 1.0 / math.sqrt(2.0)

_ID = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
_SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def _phase(lam: float) -> np.ndarray:
    return np.array([[1, 0], [0, cmath.exp(1j * lam)]], dtype=complex)


def _rz(lam: float) -> np.ndarray:
    return np.array(
        [[cmath.exp(-0.5j * lam), 0], [0, cmath.exp(0.5j * lam)]], dtype=complex
    )


def _rx(theta: float) -> np.ndarray:
    return _u_matrix(theta, -math.pi / 2, math.pi / 2)


def _ry(theta: float) -> np.ndarray:
    return _u_matrix(theta, 0.0, 0.0)


# ---------------------------------------------------------------------------
# Named constructors
# ---------------------------------------------------------------------------

def IdGate() -> Gate:
    """Identity gate (explicit, as in the IBM basis)."""
    return Gate("id", 1, (), lambda: _ID)


def XGate() -> Gate:
    """Pauli X."""
    return Gate("x", 1, (), lambda: _X)


def YGate() -> Gate:
    """Pauli Y."""
    return Gate("y", 1, (), lambda: _Y)


def ZGate() -> Gate:
    """Pauli Z."""
    return Gate("z", 1, (), lambda: _Z)


def HGate() -> Gate:
    """Hadamard."""
    return Gate("h", 1, (), lambda: _H)


def SGate() -> Gate:
    """Phase gate S = P(pi/2)."""
    return Gate("s", 1, (), lambda: _phase(math.pi / 2))


def SdgGate() -> Gate:
    """S-dagger."""
    return Gate("sdg", 1, (), lambda: _phase(-math.pi / 2))


def TGate() -> Gate:
    """T = P(pi/4)."""
    return Gate("t", 1, (), lambda: _phase(math.pi / 4))


def TdgGate() -> Gate:
    """T-dagger."""
    return Gate("tdg", 1, (), lambda: _phase(-math.pi / 4))


def SXGate() -> Gate:
    """Square root of X (IBM basis gate)."""
    return Gate("sx", 1, (), lambda: _SX)


def SXdgGate() -> Gate:
    """Inverse square root of X."""
    return Gate("sxdg", 1, (), lambda: _SX.conj().T)


def PhaseGate(lam: float) -> Gate:
    """P(lam) = diag(1, e^{i lam})."""
    return Gate("p", 1, (lam,), _phase)


def RZGate(lam: float) -> Gate:
    """RZ(lam) = diag(e^{-i lam/2}, e^{i lam/2}) (IBM basis gate)."""
    return Gate("rz", 1, (lam,), _rz)


def RXGate(theta: float) -> Gate:
    """Rotation about X."""
    return Gate("rx", 1, (theta,), _rx)


def RYGate(theta: float) -> Gate:
    """Rotation about Y."""
    return Gate("ry", 1, (theta,), _ry)


def UGate(theta: float, phi: float, lam: float) -> Gate:
    """Generic single-qubit rotation U(theta, phi, lam)."""
    return Gate("u", 1, (theta, phi, lam), _u_matrix)


def CXGate() -> Gate:
    """Controlled-X; argument order (control, target)."""
    return Gate("cx", 2, (), lambda: controlled_matrix(_X), num_ctrl_qubits=1)


def CZGate() -> Gate:
    """Controlled-Z (symmetric)."""
    return Gate("cz", 2, (), lambda: controlled_matrix(_Z), num_ctrl_qubits=1)


def CYGate() -> Gate:
    """Controlled-Y; argument order (control, target)."""
    return Gate("cy", 2, (), lambda: controlled_matrix(_Y), num_ctrl_qubits=1)


def CHGate() -> Gate:
    """Controlled-Hadamard; argument order (control, target)."""
    return Gate("ch", 2, (), lambda: controlled_matrix(_H), num_ctrl_qubits=1)


def CPGate(lam: float) -> Gate:
    """Controlled phase (symmetric); the paper's R_l is CP(2*pi/2**l)."""
    return Gate(
        "cp", 2, (lam,), lambda l: controlled_matrix(_phase(l)), num_ctrl_qubits=1
    )


def CRZGate(lam: float) -> Gate:
    """Controlled-RZ; argument order (control, target)."""
    return Gate(
        "crz", 2, (lam,), lambda l: controlled_matrix(_rz(l)), num_ctrl_qubits=1
    )


def SwapGate() -> Gate:
    """SWAP."""
    return Gate("swap", 2, (), lambda: _SWAP)


def CSwapGate() -> Gate:
    """Controlled-SWAP (Fredkin); argument order (control, a, b)."""
    return Gate("cswap", 3, (), lambda: controlled_matrix(_SWAP), num_ctrl_qubits=1)


def CCXGate() -> Gate:
    """Toffoli; argument order (control, control, target)."""
    return Gate(
        "ccx", 3, (), lambda: controlled_matrix(_X, 2), num_ctrl_qubits=2
    )


def CCPGate(lam: float) -> Gate:
    """Doubly-controlled phase (the paper's cR_l); symmetric in all qubits."""
    return Gate(
        "ccp", 3, (lam,), lambda l: controlled_matrix(_phase(l), 2), num_ctrl_qubits=2
    )


def CCHGate() -> Gate:
    """Doubly-controlled Hadamard (the paper's cH with an extra control)."""
    return Gate(
        "cch", 3, (), lambda: controlled_matrix(_H, 2), num_ctrl_qubits=2
    )


def MeasureOp() -> Gate:
    """Projective measurement marker (one qubit -> one classical bit)."""
    return Gate("measure", 1, (), None)


def BarrierOp(num_qubits: int) -> Gate:
    """Scheduling barrier across ``num_qubits`` qubits."""
    return Gate("barrier", num_qubits, (), None)


def ResetOp() -> Gate:
    """Reset a qubit to |0>."""
    return Gate("reset", 1, (), None)


# ---------------------------------------------------------------------------
# Registries
# ---------------------------------------------------------------------------

GATE_BUILDERS: Dict[str, Callable[..., Gate]] = {
    "id": IdGate,
    "x": XGate,
    "y": YGate,
    "z": ZGate,
    "h": HGate,
    "s": SGate,
    "sdg": SdgGate,
    "t": TGate,
    "tdg": TdgGate,
    "sx": SXGate,
    "sxdg": SXdgGate,
    "p": PhaseGate,
    "rz": RZGate,
    "rx": RXGate,
    "ry": RYGate,
    "u": UGate,
    "cx": CXGate,
    "cz": CZGate,
    "cy": CYGate,
    "ch": CHGate,
    "cp": CPGate,
    "crz": CRZGate,
    "swap": SwapGate,
    "cswap": CSwapGate,
    "ccx": CCXGate,
    "ccp": CCPGate,
    "cch": CCHGate,
}

_INVERSE_NAMES: Dict[str, str] = {
    "id": "id",
    "x": "x",
    "y": "y",
    "z": "z",
    "h": "h",
    "s": "sdg",
    "sdg": "s",
    "t": "tdg",
    "tdg": "t",
    "sx": "sxdg",
    "sxdg": "sx",
    "cx": "cx",
    "cz": "cz",
    "cy": "cy",
    "ch": "ch",
    "swap": "swap",
    "cswap": "cswap",
    "ccx": "ccx",
    "cch": "cch",
}

# Parameterised gates inverted by negating every parameter.
_PARAM_NEGATE = frozenset({"p", "rz", "rx", "ry", "cp", "crz", "ccp"})

_CONTROLLED_NAMES: Dict[Tuple[str, int], str] = {
    ("x", 1): "cx",
    ("x", 2): "ccx",
    ("y", 1): "cy",
    ("z", 1): "cz",
    ("h", 1): "ch",
    ("h", 2): "cch",
    ("p", 1): "cp",
    ("p", 2): "ccp",
    ("rz", 1): "crz",
    ("cx", 1): "ccx",
    ("cp", 1): "ccp",
    ("ch", 1): "cch",
    ("swap", 1): "cswap",
}

_DIAGONAL_NAMES = frozenset(
    {"id", "z", "s", "sdg", "t", "tdg", "p", "rz", "cz", "cp", "crz", "ccp"}
)


def is_diagonal_gate(gate: Gate) -> bool:
    """True if the gate's matrix is diagonal (enables fast simulation)."""
    return gate.is_diagonal


#: Gates whose matrix is a pure 0/1 permutation (no phases).
_PERMUTATION_NAMES = frozenset({"x", "cx", "ccx", "swap"})

#: Gates equal to ``exp(i*lam)`` on the all-ones subspace of their
#: arguments and identity elsewhere, keyed to the *exact* complex phase
#: the simulation kernels multiply in (so precomputed and interpreted
#: paths agree bit-for-bit).
_PHASE_ON_ONES_VALUES: Dict[str, complex] = {
    "z": -1.0,
    "cz": -1.0,
    "s": 1j,
    "sdg": -1j,
    "t": cmath.exp(0.25j * cmath.pi),
    "tdg": cmath.exp(-0.25j * cmath.pi),
}

_PHASE_ON_ONES_ANGLES: Dict[str, float] = {
    "z": math.pi,
    "cz": math.pi,
    "s": math.pi / 2,
    "sdg": -math.pi / 2,
    "t": math.pi / 4,
    "tdg": -math.pi / 4,
}


def phase_on_ones(gate: Gate) -> Optional[complex]:
    """The phase factor of a phase-on-all-ones gate, else ``None``.

    Covers the phase family the transpiled circuits use: ``p``/``cp``/
    ``ccp`` (parameterised) plus the fixed gates ``z``, ``cz``, ``s``,
    ``sdg``, ``t``, ``tdg``.  This is the single shared predicate behind
    the simulation fast path (:mod:`repro.sim.ops`), the execution-IR
    compiler (:mod:`repro.sim.program`) and the phase-commutation pass
    (:mod:`repro.transpile.optimize`).
    """
    if gate.name in ("p", "cp", "ccp"):
        return cmath.exp(1j * gate.params[0])
    return _PHASE_ON_ONES_VALUES.get(gate.name)


def phase_on_ones_angle(gate: Gate) -> Optional[float]:
    """The angle ``lam`` of a phase-on-all-ones gate, else ``None``."""
    if gate.name in ("p", "cp", "ccp"):
        return gate.params[0]
    return _PHASE_ON_ONES_ANGLES.get(gate.name)


def is_monomial_gate(gate: Gate) -> bool:
    """True if the gate matrix is monomial (one entry per row/column).

    Monomial unitaries — diagonal gates and the pure permutations
    ``x``/``cx``/``ccx``/``swap`` — are closed under composition, which
    is what lets the execution-IR compiler fuse noise-free runs of them
    into a single permutation-plus-phase kernel.
    """
    if gate.name in _PERMUTATION_NAMES:
        return True
    return gate.is_unitary and is_diagonal_gate(gate)


def make_gate(name: str, *params: float) -> Gate:
    """Build a gate by canonical name.

    >>> make_gate("cp", 3.14159).num_qubits
    2
    """
    try:
        builder = GATE_BUILDERS[name]
    except KeyError:
        raise GateError(f"unknown gate name {name!r}") from None
    return builder(*params)
