"""Cut search: where to split a circuit into narrow fragments.

Two families of plan, found on the transpiled instruction list:

* **register cut** (``kind="registers"``) — the structural cut QFA/QFM
  circuits admit at the Fourier-basis register boundary.  A wire set
  ``C`` is *classically controlled* when every instruction keeps it
  diagonal in the computational basis: diagonal gates, ``x`` flips,
  and ``cx``/``ccx`` whose targets stay inside ``C`` (controls may hang
  off ``C`` into the quantum fragment).  The full noisy channel then
  commutes with dephasing on ``C``, so the computational-basis outcome
  distribution decomposes exactly into a classical mixture over the
  initial state's support on ``C`` — each branch a conditioned circuit
  on the remaining ``F`` wires.  For the paper's adders that makes the
  x register classical and the fragment width ``m`` instead of
  ``n + m``.
* **wire cut** (``kind="wires"``) — the greedy/MIP-lite fallback for
  arbitrary circuits: a contiguous time-partition of the gate list into
  spans whose touched-wire count fits the budget, with a Pauli-basis
  measure/prepare cut on every wire crossing a span boundary
  (reconstruction cost ``4**cuts``, capped by ``max_cuts``).

Searching is deterministic: plans are pure functions of the circuit and
the :class:`~repro.cut.config.CutConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from ..circuits.circuit import QuantumCircuit
from ..circuits.gates import is_diagonal_gate
from ..runtime import obs
from ..runtime.errors import WidthLimitError
from .config import CutConfig

__all__ = [
    "CutSearchError",
    "CutEdge",
    "WireFragment",
    "CutPlan",
    "classical_wires",
    "find_cuts",
]


class CutSearchError(ValueError):
    """No admissible cut plan exists under the configured budgets."""


@dataclass(frozen=True)
class CutEdge:
    """One wire cut: ``qubit`` leaves fragment ``src``, enters ``dst``."""

    qubit: int
    src: int
    dst: int


@dataclass(frozen=True)
class WireFragment:
    """A contiguous gate span of a wire-cut plan.

    ``qubits`` (sorted global wires) fixes the fragment-local wire
    order; ``start``/``stop`` index the plan's filtered gate list.
    """

    index: int
    qubits: Tuple[int, ...]
    start: int
    stop: int


@dataclass(frozen=True)
class CutPlan:
    """A complete cut of one circuit, ready for fragment compilation."""

    kind: str  # "registers" | "wires"
    num_qubits: int
    #: registers kind: the classically-controlled wire set
    classical: Tuple[int, ...] = ()
    #: registers kind: the quantum-fragment wire set
    fragment: Tuple[int, ...] = ()
    #: wires kind: the time-partition spans
    fragments: Tuple[WireFragment, ...] = ()
    #: wires kind: the cut edges between spans
    edges: Tuple[CutEdge, ...] = field(default=())

    @property
    def num_fragments(self) -> int:
        if self.kind == "registers":
            # The classical register block plus the quantum fragment.
            return 2 if self.classical else 1
        return len(self.fragments)

    @property
    def cut_count(self) -> int:
        if self.kind == "registers":
            return len(self.classical)
        return len(self.edges)

    @property
    def max_width(self) -> int:
        """The widest fragment any engine must actually simulate."""
        if self.kind == "registers":
            return len(self.fragment)
        return max((len(f.qubits) for f in self.fragments), default=0)

    def describe(self) -> str:
        return (
            f"CutPlan({self.kind}, {self.num_qubits}q -> "
            f"{self.num_fragments} fragments, {self.cut_count} cuts, "
            f"max width {self.max_width})"
        )


#: Gate names whose action keeps every touched wire basis-classical
#: unconditionally (diagonal or a local bit flip).
_HARMLESS_1Q = ("x",)
_SKIP = ("barrier", "measure")


def classical_wires(circuit: QuantumCircuit) -> Tuple[int, ...]:
    """The maximal classically-controlled wire set of ``circuit``.

    Fixed-point elimination: start from all wires, drop any wire
    touched non-classically, then iterate the conditional constraints
    (a ``cx``/``ccx`` target stays classical only while its controls
    do; a ``swap`` endpoint only while its partner does) to closure.
    """
    cand: Set[int] = set(range(circuit.num_qubits))
    constraints: List[Tuple[int, Tuple[int, ...]]] = []
    for instr in circuit:
        name = instr.gate.name
        if name in _SKIP:
            continue
        if name == "reset":
            continue  # resets a classical bit to 0: stays classical
        if name in _HARMLESS_1Q:
            continue
        if name == "cx":
            c, t = instr.qubits
            constraints.append((t, (c,)))
            continue
        if name == "ccx":
            c1, c2, t = instr.qubits
            constraints.append((t, (c1, c2)))
            continue
        if name == "swap":
            a, b = instr.qubits
            constraints.append((a, (b,)))
            constraints.append((b, (a,)))
            continue
        if instr.gate.is_unitary and is_diagonal_gate(instr.gate):
            continue  # diagonal on every touched wire
        cand.difference_update(instr.qubits)
    changed = True
    while changed:
        changed = False
        for wire, needs in constraints:
            if wire in cand and any(q not in cand for q in needs):
                cand.discard(wire)
                changed = True
    return tuple(sorted(cand))


def _registers_plan(
    circuit: QuantumCircuit, config: CutConfig
) -> Optional[CutPlan]:
    """The structural register cut, or None when out of budget."""
    classical = classical_wires(circuit)
    if not classical:
        return None
    fragment = tuple(
        q for q in range(circuit.num_qubits) if q not in set(classical)
    )
    if len(fragment) > config.max_fragment_qubits:
        return None
    return CutPlan(
        kind="registers",
        num_qubits=circuit.num_qubits,
        classical=classical,
        fragment=fragment,
    )


def plan_gate_list(circuit: QuantumCircuit) -> List:
    """The instructions a wire-cut plan partitions (gates + resets)."""
    return [i for i in circuit if i.gate.name not in _SKIP]


def _wires_plan(circuit: QuantumCircuit, config: CutConfig) -> CutPlan:
    """Greedy time-partition into width-bounded spans + its cut edges."""
    gates = plan_gate_list(circuit)
    budget = config.max_fragment_qubits
    spans: List[Tuple[int, int, Tuple[int, ...]]] = []
    start = 0
    touched: Set[int] = set()
    for i, instr in enumerate(gates):
        if len(instr.qubits) > budget:
            raise CutSearchError(
                f"gate {instr.gate.name!r} touches {len(instr.qubits)} "
                f"qubits, above the {budget}-qubit fragment budget — "
                f"no wire cut can split a single gate"
            )
        grown = touched | set(instr.qubits)
        if len(grown) > budget and touched:
            spans.append((start, i, tuple(sorted(touched))))
            start, touched = i, set(instr.qubits)
        else:
            touched = grown
    if touched or not spans:
        spans.append((start, len(gates), tuple(sorted(touched))))
    fragments = tuple(
        WireFragment(index=k, qubits=qs, start=a, stop=b)
        for k, (a, b, qs) in enumerate(spans)
    )
    edges: List[CutEdge] = []
    for q in range(circuit.num_qubits):
        hosts = [f.index for f in fragments if q in f.qubits]
        for src, dst in zip(hosts, hosts[1:]):
            edges.append(CutEdge(qubit=q, src=src, dst=dst))
    if len(edges) > config.max_cuts:
        raise CutSearchError(
            f"wire-cutting this circuit at max_fragment_qubits="
            f"{budget} needs {len(edges)} cuts (> max_cuts="
            f"{config.max_cuts}; reconstruction cost grows as 4**cuts). "
            f"Raise the fragment budget or max_cuts."
        )
    return CutPlan(
        kind="wires",
        num_qubits=circuit.num_qubits,
        fragments=fragments,
        edges=tuple(edges),
    )


def find_cuts(circuit: QuantumCircuit, config: CutConfig) -> CutPlan:
    """Find a cut plan for ``circuit`` under ``config``'s budgets.

    ``strategy="auto"`` prefers the structural register cut (zero
    reconstruction blow-up, exact classical mixture) and falls back to
    generic wire cuts; the explicit strategies force one family.
    Raises :class:`CutSearchError` when no admissible plan exists.
    """
    if config.strategy in ("auto", "registers"):
        plan = _registers_plan(circuit, config)
        if plan is not None:
            obs.add({"cut.plans": 1, "cut.plans_registers": 1})
            return plan
        if config.strategy == "registers":
            raise CutSearchError(
                f"no classically-controlled register within the "
                f"{config.max_fragment_qubits}-qubit fragment budget "
                f"(classical wires found: {list(classical_wires(circuit))})"
            )
    try:
        plan = _wires_plan(circuit, config)
    except CutSearchError:
        if config.strategy == "auto":
            raise CutSearchError(
                f"no admissible cut for this {circuit.num_qubits}-qubit "
                f"circuit: the register cut is out of budget and the "
                f"wire-cut fallback exceeds its cut cap — raise "
                f"max_fragment_qubits/max_cuts"
            ) from None
        raise
    obs.add({"cut.plans": 1, "cut.plans_wires": 1})
    return plan


def check_plan(plan: CutPlan, config: CutConfig) -> None:
    """Invariant guard shared by tests and evaluators."""
    if plan.kind == "registers":
        wires = sorted(plan.classical + plan.fragment)
        if wires != list(range(plan.num_qubits)):
            raise WidthLimitError(
                "register cut does not partition the circuit wires"
            )
        if len(plan.fragment) > config.max_fragment_qubits:
            raise WidthLimitError(
                f"fragment width {len(plan.fragment)} exceeds budget "
                f"{config.max_fragment_qubits}"
            )
        return
    for frag in plan.fragments:
        if len(frag.qubits) > config.max_fragment_qubits:
            raise WidthLimitError(
                f"fragment {frag.index} width {len(frag.qubits)} exceeds "
                f"budget {config.max_fragment_qubits}"
            )
