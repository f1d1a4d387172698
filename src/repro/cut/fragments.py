"""Fragment compilation and evaluation for both cut families.

Register cuts (the structural QFA/QFM cut)
------------------------------------------
A register-cut plan splits the wires into a classically-controlled set
``C`` and a quantum fragment ``F``.  Because every instruction keeps
``C`` diagonal in the computational basis, the noisy channel commutes
with dephasing on ``C`` and the measured joint distribution decomposes
*exactly* into

``p(o) = sum_v w_v * p_v(o)``

over the initial state's computational-basis support on ``C`` — each
branch ``v`` a **conditioned circuit** of width ``|F|`` (``cx`` from a
classical wire folds to ``x`` when the tracked bit is 1, diagonal gates
on ``C`` drop, classical permutations update the tracked bits).  The
conditioned circuits lower once through
:func:`~repro.sim.program.compile_circuit`, so branch evaluation rides
the kernel caches and the active backend tier.

Noise on a register cut is replayed **site-faithfully**: the original
circuit's noise-site list (same construction and order as the lowered
program, so the clean probability matches the uncut engine exactly) is
sampled per trajectory.  A Pauli component landing on a classical wire
is classical too — ``X``/``Y`` flip the tracked bit from that point on,
``Z``/``I`` are branch-global phases — while components on fragment
wires apply as 2x2 matrices in the walker.  Fire-free rows collapse
onto the shared conditioned program's exact distribution (the
trajectory engine's clean-shot split, replayed here); every other row
of a branch rides one batched walk of the event list, with the
classical bits tracked per row.

Wire cuts (the generic fallback)
--------------------------------
Each cut edge expands into the textbook identity-channel decomposition
``rho = 1/2 * sum_P q_P(rho) * P_hat``: the upstream fragment measures
the cut wire in the Z/X/Y bases, the downstream fragment runs once per
prep state |0>, |1>, |+>, |i>.  Prep states enter through
``initial_state`` — never as gates — so **every prep variant of a
fragment shares one compiled program**; basis rotations append ``h``/``sdg`` gates, which
carry no noise under the paper's models (enforced).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from ..circuits import gates as G
from ..circuits.circuit import Instruction, QuantumCircuit
from ..circuits.gates import is_diagonal_gate, phase_on_ones_angle
from ..noise.channels import PauliError
from ..noise.model import NoiseModel
from ..noise.pauli import PAULI_MATRICES
from ..runtime import obs
from ..sim.backend import as_complex, resolve_complex_dtype
from ..sim.ops import apply_gate_matrix, apply_instruction
from ..sim.program import (
    CompiledProgram,
    circuit_fingerprint,
    compile_circuit,
)
from ..sim.result import extract_register_values
from ..sim.statevector import StatevectorEngine
from ..sim.trajectories import TrajectoryEngine
from .search import CutPlan, plan_gate_list

__all__ = [
    "CutError",
    "RegisterTemplate",
    "build_register_template",
    "decompose_initial_state",
    "conditioned_circuit",
    "ValueJob",
    "run_value_job",
    "VariantJob",
    "run_variant_job",
    "build_variant_jobs",
    "PREP_STATES",
    "PREP_COEFFS",
    "MEASURE_BASES",
]


class CutError(ValueError):
    """The circuit/noise combination is outside what cutting supports."""


# ---------------------------------------------------------------------------
# Register-cut template: events + noise sites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Site:
    """One noise site of the original circuit (global wire labels)."""

    qubits: Tuple[int, ...]
    labels: Tuple[str, ...]
    cond: np.ndarray
    e: float


@dataclass
class RegisterTemplate:
    """The event-resolved form of one circuit under a register cut."""

    num_qubits: int
    classical: Tuple[int, ...]
    fragment: Tuple[int, ...]
    #: interleaved op events and ("site", ordinal) markers, circuit order
    events: List[tuple]
    sites: List[_Site]
    circuit_fp: str

    @property
    def frag_width(self) -> int:
        return len(self.fragment)


def _pauli_table(err) -> Optional[Tuple[Tuple[str, ...], np.ndarray, float]]:
    """One Pauli channel's conditioned-fire table ``(labels, cond, e)``,
    or None when it never fires (e = 0)."""
    if not isinstance(err, PauliError):
        raise CutError(
            "register-cut noise replay supports Pauli channels only, "
            f"got {type(err).__name__}"
        )
    nontrivial = [
        (p, pr)
        for p, pr in zip(err.paulis, err.probs)
        if set(p) != {"I"} and pr > 0
    ]
    e = float(sum(pr for _, pr in nontrivial))
    if e <= 0:
        return None
    cond = np.array([pr for _, pr in nontrivial]) / e
    return tuple(p for p, _ in nontrivial), cond, e


@dataclass
class _Skeleton:
    """The rate-free half of a register template: events with a
    ``("slot", k)`` marker for every channel the noise model's structure
    attaches, and each slot's model address and wires."""

    num_qubits: int
    classical: Tuple[int, ...]
    fragment: Tuple[int, ...]
    events: List[tuple]
    slots: List[Tuple[tuple, Tuple[int, ...]]]
    circuit_fp: str


def _build_skeleton(
    circuit: QuantumCircuit, noise: NoiseModel, plan: CutPlan
) -> _Skeleton:
    cls = set(plan.classical)
    local = {q: i for i, q in enumerate(plan.fragment)}
    events: List[tuple] = []
    slots: List[Tuple[tuple, Tuple[int, ...]]] = []

    def add_slots(instr: Instruction) -> None:
        for slot, err in noise.errors_for(instr.gate.name, instr.qubits):
            if err.num_qubits == 1 and len(instr.qubits) > 1:
                expanded = [(q,) for q in instr.qubits]
            else:
                expanded = [instr.qubits]
            for qubits in expanded:
                events.append(("slot", len(slots)))
                slots.append((slot, qubits))

    for instr in circuit:
        name = instr.gate.name
        if name in ("barrier", "measure"):
            continue
        if name == "reset":
            q = instr.qubits[0]
            if q in cls:
                events.append(("cls_reset", q))
            else:
                raise CutError("reset on a fragment wire is not cuttable")
            add_slots(instr)
            continue
        events.append(_classify_gate(instr, cls, local))
        add_slots(instr)
    return _Skeleton(
        num_qubits=circuit.num_qubits,
        classical=plan.classical,
        fragment=plan.fragment,
        events=[ev for ev in events if ev is not None],
        slots=slots,
        circuit_fp=circuit_fingerprint(circuit),
    )


def _bind_sites(skeleton: _Skeleton, noise: NoiseModel) -> RegisterTemplate:
    """Resolve a skeleton's slots against one noise model's rates.

    Slots whose channel never fires are dropped, so the site list (and
    with it every random draw of the trajectory lane) is the one a
    direct build against ``noise`` makes.
    """
    tables: Dict[tuple, Optional[tuple]] = {}
    ordinal: List[Optional[int]] = []
    sites: List[_Site] = []
    for slot, qubits in skeleton.slots:
        if slot not in tables:
            tables[slot] = _pauli_table(noise.error_by_slot(slot))
        table = tables[slot]
        if table is None:
            ordinal.append(None)
            continue
        ordinal.append(len(sites))
        sites.append(_Site(qubits, *table))
    events = [
        ev if ev[0] != "slot" else ("site", ordinal[ev[1]])
        for ev in skeleton.events
        if ev[0] != "slot" or ordinal[ev[1]] is not None
    ]
    return RegisterTemplate(
        num_qubits=skeleton.num_qubits,
        classical=skeleton.classical,
        fragment=skeleton.fragment,
        events=events,
        sites=sites,
        circuit_fp=skeleton.circuit_fp,
    )


def build_register_template(
    circuit: QuantumCircuit, noise: NoiseModel, plan: CutPlan
) -> RegisterTemplate:
    """Lower ``circuit`` against ``plan`` into conditioned events + sites.

    Site construction mirrors :func:`repro.sim.program._lower` (same
    expansion of 1q channels onto wider gates, same order), so the
    fire probabilities of a cut evaluation match the uncut program's
    bit for bit.
    """
    return _bind_sites(_build_skeleton(circuit, noise, plan), noise)


def _classify_gate(
    instr: Instruction, cls: set, local: Dict[int, int]
) -> Optional[tuple]:
    """One instruction -> a conditioned event (None = provably no-op).

    Every event carries the fragment :class:`Instruction` it applies,
    built once here: ``conddiag1`` one per assignment of its classical
    bits (``instrs[k]``, bit ``j`` of ``k`` = ``ctrl[j]``).
    """
    name = instr.gate.name
    qs = instr.qubits
    in_c = [q for q in qs if q in cls]
    in_f = [q for q in qs if q not in cls]
    if not in_c:
        return ("gate", Instruction(instr.gate, tuple(local[q] for q in qs)))
    if name == "x":
        return ("flip", qs[0])
    if name == "cx":
        c, t = qs
        if t in cls:
            if c not in cls:
                raise CutError(
                    "cx target on a classical wire with a quantum "
                    "control — plan is not a valid register cut"
                )
            return ("cls_cx", c, t)
        return ("perm", (c,), _local_instruction("x", (local[t],)))
    if name == "ccx":
        c1, c2, t = qs
        if t in cls:
            if c1 not in cls or c2 not in cls:
                raise CutError(
                    "ccx target on a classical wire with a quantum "
                    "control — plan is not a valid register cut"
                )
            return ("cls_ccx", c1, c2, t)
        ctrl_c = tuple(q for q in (c1, c2) if q in cls)
        ctrl_f = tuple(local[q] for q in (c1, c2) if q not in cls)
        gate = _local_instruction("x", (local[t],)) if not ctrl_f else (
            _local_instruction("cx", ctrl_f + (local[t],)))
        return ("perm", ctrl_c, gate)
    if name == "swap" and not in_f:
        return ("cls_swap", qs[0], qs[1])
    if instr.gate.is_unitary and is_diagonal_gate(instr.gate):
        if not in_f:
            return None  # branch-global phase
        theta = phase_on_ones_angle(instr.gate)
        if theta is not None:
            f_local = tuple(local[q] for q in in_f)
            if len(f_local) > 3:
                raise CutError(
                    f"conditioned phase-on-ones over {len(f_local)} "
                    f"fragment wires is not representable"
                )
            return (
                "condphase",
                tuple(in_c),
                _local_instruction(_PHASE_ON_ONES[len(f_local)], f_local, theta),
            )
        if len(in_f) == 1:
            diag = np.diag(instr.gate.matrix)
            cpos = [pos for pos, q in enumerate(qs) if q in cls]
            fbit = 1 << qs.index(in_f[0])
            instrs = []
            for k in range(1 << len(cpos)):
                base = 0
                for j, pos in enumerate(cpos):
                    base |= ((k >> j) & 1) << pos
                theta = float(np.angle(diag[base | fbit]) - np.angle(diag[base]))
                instrs.append(_local_instruction("p", (local[in_f[0]],), theta))
            return ("conddiag1", tuple(in_c), tuple(instrs))
        raise CutError(
            f"diagonal gate {name!r} crossing the register cut with "
            f"{len(in_f)} fragment wires is unsupported"
        )
    raise CutError(
        f"gate {name!r} on {list(qs)} mixes classical and fragment "
        f"wires non-classically — the searcher should not have "
        f"classified these wires (bug or hand-built plan)"
    )


_PHASE_ON_ONES = {1: "p", 2: "cp", 3: "ccp"}


def _local_instruction(
    name: str, qubits: Tuple[int, ...], *params: float
) -> Instruction:
    return Instruction(G.make_gate(name, *params), tuple(qubits))


def _resolve_event(event: tuple, bits: List[int]) -> Optional[Instruction]:
    """Resolve one event against the tracked classical bits.

    Returns the fragment instruction it applies (or None), mutating
    ``bits`` for classical events.
    """
    kind = event[0]
    if kind == "gate":
        return event[1]
    if kind == "flip":
        bits[event[1]] ^= 1
        return None
    if kind == "cls_cx":
        bits[event[2]] ^= bits[event[1]]
        return None
    if kind == "cls_ccx":
        bits[event[3]] ^= bits[event[1]] & bits[event[2]]
        return None
    if kind == "cls_swap":
        a, b = event[1], event[2]
        bits[a], bits[b] = bits[b], bits[a]
        return None
    if kind == "cls_reset":
        bits[event[1]] = 0
        return None
    if kind in ("perm", "condphase"):
        if all(bits[c] for c in event[1]):
            return event[2]
        return None
    if kind == "conddiag1":
        return event[2][sum((bits[c] & 1) << j for j, c in enumerate(event[1]))]
    raise CutError(f"unknown event kind {kind!r}")


# ---------------------------------------------------------------------------
# Initial-state branch decomposition
# ---------------------------------------------------------------------------

def decompose_initial_state(
    initial_state: Optional[np.ndarray],
    num_qubits: int,
    classical: Sequence[int],
    fragment: Sequence[int],
    tol: float = 1e-24,
) -> List[Tuple[int, float, Optional[np.ndarray]]]:
    """Branches ``(value, weight, fragment_state)`` of the input state.

    Dephasing on the classical wires turns any pure input into the
    classical mixture ``sum_v w_v |v><v| (x) |phi_v><phi_v|`` — each
    support value carries its *own* fragment state, so no product-form
    assumption is needed.
    """
    if initial_state is None:
        return [(0, 1.0, None)]
    vec = as_complex(np.asarray(initial_state)).reshape(-1)
    if vec.shape[0] != (1 << num_qubits):
        raise ValueError("initial state has wrong dimension")
    idx = np.flatnonzero(vec)
    c_vals = extract_register_values(idx, tuple(classical))
    f_vals = extract_register_values(idx, tuple(fragment))
    M = np.zeros((1 << len(classical), 1 << len(fragment)), dtype=vec.dtype)
    M[c_vals, f_vals] = vec[idx]
    weights = np.abs(M) ** 2
    w_v = weights.sum(axis=1)
    branches: List[Tuple[int, float, Optional[np.ndarray]]] = []
    for v in np.flatnonzero(w_v > tol):
        w = float(w_v[v])
        phi = M[v] / np.sqrt(w)
        branches.append((int(v), w, phi))
    return branches


# ---------------------------------------------------------------------------
# Conditioned circuits (the ideal/clean lane)
# ---------------------------------------------------------------------------

_COND_LOCK = threading.Lock()
_COND_CACHE: Dict[tuple, Tuple[QuantumCircuit, int, CompiledProgram]] = {}
_COND_CAP = 512


def _init_bits(template: RegisterTemplate, value: int) -> List[int]:
    bits = [0] * template.num_qubits
    for i, q in enumerate(template.classical):
        bits[q] = (value >> i) & 1
    return bits


def _pack_bits(template: RegisterTemplate, bits: List[int]) -> int:
    out = 0
    for i, q in enumerate(template.classical):
        out |= (bits[q] & 1) << i
    return out


def conditioned_circuit(
    template: RegisterTemplate, value: int
) -> Tuple[QuantumCircuit, int, CompiledProgram]:
    """The width-``|F|`` circuit of branch ``value`` + its classical
    output, with the ideal compiled program (cached; rides the compile
    and kernel caches underneath)."""
    key = (
        template.circuit_fp, template.classical, template.fragment, value,
    )
    with _COND_LOCK:
        hit = _COND_CACHE.get(key)
        if hit is not None:
            return hit
    bits = _init_bits(template, value)
    width = max(1, template.frag_width)
    qc = QuantumCircuit(width, name=f"cond-{template.circuit_fp}-{value}")
    for event in template.events:
        if event[0] == "site":
            continue
        instr = _resolve_event(event, bits)
        if instr is not None:
            qc.append(instr.gate, instr.qubits)
    cls_out = _pack_bits(template, bits)
    program = compile_circuit(qc, None)
    obs.add({"cut.fragments_compiled": 1})
    with _COND_LOCK:
        if len(_COND_CACHE) >= _COND_CAP:
            _COND_CACHE.pop(next(iter(_COND_CACHE)))
        _COND_CACHE[key] = (qc, cls_out, program)
    return qc, cls_out, program


def _ideal_branch(
    template: RegisterTemplate,
    value: int,
    frag_state: Optional[np.ndarray],
) -> Tuple[np.ndarray, int]:
    """Exact branch distribution over fragment wires + classical output."""
    _, cls_out, program = conditioned_circuit(template, value)
    if template.frag_width == 0:
        return np.ones(1), cls_out
    dist = StatevectorEngine().distribution(program, frag_state)
    return dist.probs, cls_out


# ---------------------------------------------------------------------------
# Register-cut jobs (value branches) — picklable, runner-agnostic
# ---------------------------------------------------------------------------

@dataclass
class ValueJob:
    """Evaluate one classical branch of a register-cut circuit."""

    circuit: QuantumCircuit
    classical: Tuple[int, ...]
    fragment: Tuple[int, ...]
    value: int
    weight: float
    frag_state: Optional[np.ndarray]
    noise: Optional[NoiseModel]
    trajectories: int
    seed: Tuple[int, ...]

    kind = "cut_value"


def run_value_job(job: ValueJob) -> List[Tuple[int, np.ndarray]]:
    """Evaluate one branch: weighted terms (classical_out, probs*weight).

    Returned vectors are over the fragment wires and carry the branch
    weight (they sum to ``weight`` for the ideal lane and in
    expectation for the trajectory lane).
    """
    noise = job.noise or NoiseModel.ideal()
    template = _register_template(job, noise)
    obs.add({"cut.variants_evaluated": 1})
    probs, cls_out = _ideal_branch(template, job.value, job.frag_state)
    live = [s for s in template.sites if s.e > 0]
    if noise.is_ideal or not live:
        return [(cls_out, job.weight * probs)]
    return _run_noisy_branch(template, job, probs, cls_out)


_TEMPLATE_LOCK = threading.Lock()
_SKELETON_CACHE: Dict[tuple, _Skeleton] = {}
_TEMPLATE_CACHE: Dict[tuple, RegisterTemplate] = {}
_TEMPLATE_CAP = 64


_T = TypeVar("_T")


def _cached(cache: Dict[tuple, _T], key: tuple, build: Callable[[], _T]) -> _T:
    with _TEMPLATE_LOCK:
        hit = cache.get(key)
        if hit is not None:
            return hit
    value = build()
    with _TEMPLATE_LOCK:
        if len(cache) >= _TEMPLATE_CAP:
            cache.pop(next(iter(cache)))
        cache[key] = value
    return value


def _register_template(job: ValueJob, noise: NoiseModel) -> RegisterTemplate:
    """The job's register template, shared by every branch and cell that
    repeats it.  The event list is built once per (circuit, partition,
    noise structure); a rate sweep only re-binds the site tables."""
    part = (circuit_fingerprint(job.circuit), job.classical, job.fragment)

    def skeleton() -> _Skeleton:
        plan = CutPlan(
            kind="registers",
            num_qubits=job.circuit.num_qubits,
            classical=job.classical,
            fragment=job.fragment,
        )
        return _build_skeleton(job.circuit, noise, plan)

    def bound() -> RegisterTemplate:
        skel = _cached(
            _SKELETON_CACHE, part + (noise.structure_key(),), skeleton
        )
        return _bind_sites(skel, noise)

    return _cached(_TEMPLATE_CACHE, part + (noise.fingerprint(),), bound)


#: One sampled trajectory row: its classical flips ``(site, wire)`` and
#: its fragment Paulis ``(site, label position, local wire, Pauli)``.
_Row = Tuple[List[Tuple[int, int]], List[Tuple[int, int, int, str]]]


def _run_noisy_branch(
    template: RegisterTemplate,
    job: ValueJob,
    ideal_probs: np.ndarray,
    ideal_cls: int,
) -> List[Tuple[int, np.ndarray]]:
    """Trajectory replay of one branch with site-faithful noise."""
    rng = np.random.default_rng(job.seed)
    e = np.array([s.e for s in template.sites])
    keep = 1.0 - e
    P0 = float(np.prod(keep))
    terms: Dict[int, np.ndarray] = {}

    def add(cls_out: int, vec: np.ndarray) -> None:
        acc = terms.get(cls_out)
        if acc is None:
            terms[cls_out] = vec.astype(float, copy=True)
        else:
            acc += vec

    add(ideal_cls, job.weight * P0 * ideal_probs)
    if P0 >= 1.0 - 1e-15:
        return list(terms.items())
    B = max(1, int(job.trajectories))
    w_row = job.weight * (1.0 - P0) / B
    S = len(template.sites)
    # First-fire index distribution conditioned on >= 1 fire, then
    # independent Bernoulli tails: exactly the >=1-fire conditional.
    prefix = np.concatenate(([1.0], np.cumprod(keep)[:-1]))
    pfirst = e * prefix
    pfirst = pfirst / pfirst.sum()
    first = rng.choice(S, size=B, p=pfirst)
    U = rng.random((B, S))
    cols = np.arange(S)
    fires = (cols[None, :] == first[:, None]) | (
        (cols[None, :] > first[:, None]) & (U < e[None, :])
    )
    cls_set = set(template.classical)
    local = {q: i for i, q in enumerate(template.fragment)}
    # Per-row events, sampled in deterministic (row, site) order.  Terms
    # sum in a fixed order, which pins the float64 result: quiet rows,
    # then each classical-flip history in first-seen order.
    groups: Dict[tuple, List[_Row]] = {}
    quiet = 0
    for b in range(B):
        flips: List[Tuple[int, int]] = []
        paulis: List[Tuple[int, int, int, str]] = []
        for s in np.flatnonzero(fires[b]):
            site = template.sites[s]
            label = site.labels[
                int(rng.choice(len(site.labels), p=site.cond))
            ]
            for pos, ch in enumerate(label):
                if ch == "I":
                    continue
                q = site.qubits[pos]
                if q in cls_set:
                    if ch in ("X", "Y"):
                        flips.append((int(s), q))
                else:
                    paulis.append((int(s), pos, local[q], ch))
        if not flips and not paulis:
            quiet += 1
            continue
        groups.setdefault(tuple(flips), []).append((flips, paulis))
    if quiet:
        add(ideal_cls, quiet * w_row * ideal_probs)
    rows = [row for members in groups.values() for row in members]
    if rows:
        cls_outs, probs = _walk_rows(template, job.value, job.frag_state, rows)
        for r, cls_out in enumerate(cls_outs):
            add(cls_out, w_row * probs[r])
    return list(terms.items())


def _walk_rows(
    template: RegisterTemplate,
    value: int,
    frag_state: Optional[np.ndarray],
    rows: List[_Row],
) -> Tuple[List[int], np.ndarray]:
    """Walk the event list once for every row at once.

    The fragment state is ``(R, 2**|F|)`` and the classical bits an
    ``(R, num_qubits)`` array, so classical events are column updates
    and a conditioned gate applies to the rows whose control bits are
    set.  Each row sees exactly the gate sequence of its own walk, and
    every kernel acts row by row, so a row's amplitudes do not depend
    on which rows share the batch.  Returns each row's classical output
    and fragment probabilities.
    """
    nF = template.frag_width
    R = len(rows)
    dtype = resolve_complex_dtype(None)
    if nF == 0:
        state = np.ones((R, 1), dtype=dtype)
    elif frag_state is None:
        state = np.zeros((R, 1 << nF), dtype=dtype)
        state[:, 0] = 1.0
    else:
        state = np.tile(as_complex(frag_state).reshape(1, -1), (R, 1))
    bits = np.tile(
        np.array(_init_bits(template, value), dtype=np.int64), (R, 1)
    )
    flips_at: Dict[int, Dict[int, List[int]]] = {}
    paulis_at: Dict[int, Dict[Tuple[int, int, str], List[int]]] = {}
    for r, (flips, paulis) in enumerate(rows):
        for s, q in flips:
            flips_at.setdefault(s, {}).setdefault(q, []).append(r)
        for s, pos, loc, ch in paulis:
            paulis_at.setdefault(s, {}).setdefault((pos, loc, ch), []).append(r)

    def apply(instr: Instruction, sel: Optional[np.ndarray]) -> None:
        nonlocal state
        if sel is None:
            state = apply_instruction(state, instr, nF)
        else:
            state[sel] = apply_instruction(state[sel], instr, nF)

    for event in template.events:
        kind = event[0]
        if kind == "site":
            s = event[1]
            # Label positions in order: each row applies its Pauli
            # factors in the order its own walk did.
            for (_, loc, ch), members in sorted(paulis_at.get(s, {}).items()):
                sel = np.array(members)
                sub = state[sel]
                apply_gate_matrix(sub, PAULI_MATRICES[ch], (loc,), nF)
                state[sel] = sub
            for q, members in flips_at.get(s, {}).items():
                bits[members, q] ^= 1
        elif kind == "gate":
            apply(event[1], None)
        elif kind == "flip":
            bits[:, event[1]] ^= 1
        elif kind == "cls_cx":
            bits[:, event[2]] ^= bits[:, event[1]]
        elif kind == "cls_ccx":
            bits[:, event[3]] ^= bits[:, event[1]] & bits[:, event[2]]
        elif kind == "cls_swap":
            a, b = event[1], event[2]
            bits[:, [a, b]] = bits[:, [b, a]]
        elif kind == "cls_reset":
            bits[:, event[1]] = 0
        elif kind in ("perm", "condphase"):
            on = bits[:, list(event[1])].all(axis=1)
            if on.all():
                apply(event[2], None)
            elif on.any():
                apply(event[2], np.flatnonzero(on))
        elif kind == "conddiag1":
            k = np.zeros(R, dtype=np.int64)
            for j, c in enumerate(event[1]):
                k |= bits[:, c] << j
            values = np.unique(k)
            for kv in values:
                sel = None if len(values) == 1 else np.flatnonzero(k == kv)
                apply(event[2][kv], sel)
        else:
            raise CutError(f"unknown event kind {kind!r}")
    weights = np.array([1 << i for i in range(len(template.classical))],
                       dtype=np.int64)
    cls_outs = (bits[:, list(template.classical)] @ weights).tolist()
    return cls_outs, np.abs(state) ** 2


# ---------------------------------------------------------------------------
# Wire-cut variants (generic Pauli decomposition)
# ---------------------------------------------------------------------------

#: Prep states of the identity-channel decomposition, order (0, 1, +, i).
PREP_STATES = (
    np.array([1.0, 0.0]),
    np.array([0.0, 1.0]),
    np.array([1.0, 1.0]) / np.sqrt(2.0),
    np.array([1.0, 1.0j]) / np.sqrt(2.0),
)

#: rho = 1/2 sum_P q_P * P_hat with P_hat expanded over the prep states.
PREP_COEFFS = {
    "I": (1.0, 1.0, 0.0, 0.0),
    "X": (-1.0, -1.0, 2.0, 0.0),
    "Y": (-1.0, -1.0, 0.0, 2.0),
    "Z": (1.0, -1.0, 0.0, 0.0),
}

#: Physical measurement basis per cut label (I and Z share Z-basis).
MEASURE_BASES = {"I": "Z", "Z": "Z", "X": "X", "Y": "Y"}


@dataclass
class VariantJob:
    """Evaluate one fragment measure-basis variant for all prep combos."""

    circuit: QuantumCircuit
    noise: Optional[NoiseModel]
    width: int
    in_wires: Tuple[int, ...]
    preps: Tuple[Tuple[int, ...], ...]
    trajectories: int
    seed: Tuple[int, ...]

    kind = "cut_variant"


def prep_statevector(
    width: int, in_wires: Sequence[int], combo: Sequence[int]
) -> np.ndarray:
    """Product initial state: prep ``combo[i]`` on ``in_wires[i]``."""
    zero = PREP_STATES[0]
    vec = np.ones(1)
    by_wire = dict(zip(in_wires, combo))
    for w in range(width):
        factor = PREP_STATES[by_wire[w]] if w in by_wire else zero
        vec = np.kron(factor, vec)
    return as_complex(vec)


def run_variant_job(job: VariantJob) -> np.ndarray:
    """Distributions (one per prep combo) of one basis-variant circuit.

    Every prep combo runs the *same* compiled program (prep enters via
    ``initial_state``), so the compile cache sees one lowering for the
    whole family.
    """
    program = compile_circuit(job.circuit, job.noise)
    dim = 1 << job.width
    out = np.zeros((len(job.preps), dim))
    for i, combo in enumerate(job.preps):
        init = prep_statevector(job.width, job.in_wires, combo)
        out[i] = _fragment_probs(
            program, init, job.trajectories, job.seed + (i,)
        )
        obs.add({"cut.variants_evaluated": 1})
    return out


def _fragment_probs(
    program: CompiledProgram,
    initial_state: np.ndarray,
    trajectories: int,
    seed: Tuple[int, ...],
) -> np.ndarray:
    """Readout-free outcome distribution of one fragment program.

    Noisy fragments run on the exact PTM engine up to its cap, on the
    density engine one qubit beyond it, and on trajectories above that.
    """
    from ..sim.density import DensityMatrixEngine
    from ..sim.ptm import PTMEngine

    if program.num_noise_sites == 0:
        return StatevectorEngine().distribution(program, initial_state).probs
    n = program.num_qubits
    if n <= PTMEngine.max_qubits:
        return PTMEngine().probabilities(program, initial_state=initial_state)
    if n <= DensityMatrixEngine.max_qubits:
        dm = DensityMatrixEngine().run(program, None, initial_state)
        return dm.probabilities().probs
    engine = TrajectoryEngine(
        trajectories=trajectories, rng=np.random.default_rng(seed)
    )
    counts = engine.run(program, None, max(1, trajectories), initial_state)
    probs = np.zeros(1 << n)
    for outcome, c in counts.items():
        probs[outcome] = c
    return probs / max(1, probs.sum())


def build_variant_jobs(
    circuit: QuantumCircuit,
    plan: CutPlan,
    noise: Optional[NoiseModel],
    trajectories: int,
    seed: Tuple[int, ...],
) -> Tuple[List[VariantJob], List[dict]]:
    """All (fragment, measure-basis) jobs of a wire-cut plan.

    Returns the job list plus per-fragment metadata used by the
    reconstruction: in/out edge ids, local wire maps and the mapping
    from basis combos to job indices.
    """
    from itertools import product as iproduct

    gates = plan_gate_list(circuit)
    noise_model = noise or NoiseModel.ideal()
    jobs: List[VariantJob] = []
    frag_meta: List[dict] = []
    for frag in plan.fragments:
        local = {q: i for i, q in enumerate(frag.qubits)}
        in_edges = [i for i, ed in enumerate(plan.edges) if ed.dst == frag.index]
        out_edges = [i for i, ed in enumerate(plan.edges) if ed.src == frag.index]
        in_wires = tuple(local[plan.edges[i].qubit] for i in in_edges)
        out_wires = tuple(local[plan.edges[i].qubit] for i in out_edges)
        sub = QuantumCircuit(len(frag.qubits), name=f"frag{frag.index}")
        for instr in gates[frag.start : frag.stop]:
            sub.append(
                instr.gate, tuple(local[q] for q in instr.qubits)
            )
        preps = tuple(iproduct(range(4), repeat=len(in_edges)))
        basis_jobs: Dict[Tuple[str, ...], int] = {}
        for combo in iproduct("ZXY", repeat=len(out_edges)):
            var = QuantumCircuit(len(frag.qubits), name=sub.name + "".join(combo))
            for instr in sub:
                var.append(instr.gate, instr.qubits)
            for basis, w in zip(combo, out_wires):
                for rot in _basis_rotation(basis):
                    if noise_model.errors_for(rot, (w,)):
                        raise CutError(
                            f"basis-change gate {rot!r} would attract "
                            f"noise under this model; wire cutting "
                            f"requires noise-free rotations"
                        )
                    var.append(G.make_gate(rot), (w,))
            basis_jobs[combo] = len(jobs)
            jobs.append(
                VariantJob(
                    circuit=var,
                    noise=noise,
                    width=len(frag.qubits),
                    in_wires=in_wires,
                    preps=preps,
                    trajectories=trajectories,
                    seed=seed + (frag.index, len(jobs)),
                )
            )
        obs.add({"cut.fragments_compiled": 1})
        terminal = tuple(
            q for q in frag.qubits
            if local[q] not in out_wires
        )
        frag_meta.append(
            {
                "index": frag.index,
                "qubits": frag.qubits,
                "local": local,
                "in_edges": in_edges,
                "out_edges": out_edges,
                "in_wires": in_wires,
                "out_wires": out_wires,
                "terminal": terminal,
                "preps": preps,
                "basis_jobs": basis_jobs,
            }
        )
    return jobs, frag_meta


def _basis_rotation(basis: str) -> Tuple[str, ...]:
    """Gates rotating ``basis`` eigenstates onto the Z axis."""
    if basis == "Z":
        return ()
    if basis == "X":
        return ("h",)
    return ("sdg", "h")
