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
trajectory engine's clean-shot split, replayed here).

Wire cuts (the generic fallback)
--------------------------------
Each cut edge expands into the textbook identity-channel decomposition
``rho = 1/2 * sum_P q_P(rho) * P_hat``: the upstream fragment measures
the cut wire in the Z/X/Y bases, the downstream fragment runs once per
prep state |0>, |1>, |+>, |i>.  Prep states enter through
``initial_state`` — never as gates — so **every prep variant of a
fragment shares one compiled program** (and therefore one
``fusion_key``); basis rotations append ``h``/``sdg`` gates, which
carry no noise under the paper's models (enforced).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits import gates as G
from ..circuits.circuit import Instruction, QuantumCircuit
from ..circuits.gates import is_diagonal_gate, phase_on_ones_angle
from ..noise.channels import PauliError
from ..noise.model import NoiseModel
from ..noise.pauli import PAULI_MATRICES
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
from . import stats
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


def _pauli_site(qubits: Tuple[int, ...], err) -> Optional[_Site]:
    """The conditioned-fire table of one Pauli channel (None when e=0)."""
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
    return _Site(qubits, tuple(p for p, _ in nontrivial), cond, e)


def build_register_template(
    circuit: QuantumCircuit, noise: NoiseModel, plan: CutPlan
) -> RegisterTemplate:
    """Lower ``circuit`` against ``plan`` into conditioned events + sites.

    Site construction mirrors :func:`repro.sim.program._lower` (same
    expansion of 1q channels onto wider gates, same order), so the
    fire probabilities of a cut evaluation match the uncut program's
    bit for bit.
    """
    cls = set(plan.classical)
    local = {q: i for i, q in enumerate(plan.fragment)}
    events: List[tuple] = []
    sites: List[_Site] = []

    def add_sites(instr: Instruction) -> None:
        for err in noise.gate_errors(instr):
            if err.num_qubits == 1 and len(instr.qubits) > 1:
                expanded = [(q,) for q in instr.qubits]
            else:
                expanded = [instr.qubits]
            for qubits in expanded:
                site = _pauli_site(qubits, err)
                if site is not None:
                    events.append(("site", len(sites)))
                    sites.append(site)

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
            add_sites(instr)
            continue
        events.append(_classify_gate(instr, cls, local))
        add_sites(instr)
    events[:] = [ev for ev in events if ev is not None]
    return RegisterTemplate(
        num_qubits=circuit.num_qubits,
        classical=plan.classical,
        fragment=plan.fragment,
        events=events,
        sites=sites,
        circuit_fp=circuit_fingerprint(circuit),
    )


def _classify_gate(
    instr: Instruction, cls: set, local: Dict[int, int]
) -> Optional[tuple]:
    """One instruction -> a conditioned event (None = provably no-op)."""
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
        return ("perm", (c,), ("x", (local[t],), ()))
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
        gate = ("x", (local[t],), ()) if not ctrl_f else (
            "cx", ctrl_f + (local[t],), ())
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
            return ("condphase", tuple(in_c), f_local, theta)
        if len(in_f) == 1:
            diag = np.diag(instr.gate.matrix)
            return ("conddiag1", qs, local[in_f[0]], diag)
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


def _resolve_event(
    event: tuple, bits: List[int]
) -> Optional[Tuple[str, Tuple[int, ...], Tuple[float, ...]]]:
    """Resolve one event against the tracked classical bits.

    Returns a (name, local_qubits, params) gate term to apply to the
    fragment state (or None), mutating ``bits`` for classical events.
    """
    kind = event[0]
    if kind == "gate":
        instr = event[1]
        return (instr.gate.name, instr.qubits, tuple(instr.gate.params))
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
    if kind == "perm":
        if all(bits[c] for c in event[1]):
            return event[2]
        return None
    if kind == "condphase":
        _, ctrl, f_local, theta = event
        if not all(bits[c] for c in ctrl):
            return None
        return (_PHASE_ON_ONES[len(f_local)], f_local, (theta,))
    raise CutError(f"unknown event kind {kind!r}")


def _term_to_instruction(
    term: Tuple[str, Tuple[int, ...], Tuple[float, ...]]
) -> Instruction:
    name, qubits, params = term
    return Instruction(G.make_gate(name, *params), tuple(qubits))


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
    idx = np.arange(1 << num_qubits, dtype=np.int64)
    c_vals = extract_register_values(idx, tuple(classical))
    f_vals = extract_register_values(idx, tuple(fragment))
    M = np.zeros((1 << len(classical), 1 << len(fragment)), dtype=vec.dtype)
    M[c_vals, f_vals] = vec
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
        term = _resolve_register_event(template, event, bits)
        if term is not None:
            qc.append(G.make_gate(term[0], *term[2]), term[1])
    cls_out = _pack_bits(template, bits)
    program = compile_circuit(qc, None)
    stats.record("fragments_compiled")
    with _COND_LOCK:
        if len(_COND_CACHE) >= _COND_CAP:
            _COND_CACHE.pop(next(iter(_COND_CACHE)))
        _COND_CACHE[key] = (qc, cls_out, program)
    return qc, cls_out, program


def _resolve_register_event(
    template: RegisterTemplate, event: tuple, bits: List[int]
) -> Optional[Tuple[str, Tuple[int, ...], Tuple[float, ...]]]:
    """Template-aware event resolution (handles conddiag1 positions)."""
    if event[0] != "conddiag1":
        return _resolve_event(event, bits)
    _, qs, f_local, diag = event
    cls = set(template.classical)
    base = 0
    fpos = 0
    for pos, q in enumerate(qs):
        if q in cls:
            base |= (bits[q] & 1) << pos
        else:
            fpos = pos
    d0 = diag[base]
    d1 = diag[base | (1 << fpos)]
    theta = float(np.angle(d1) - np.angle(d0))
    return ("p", (f_local,), (theta,))


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
    plan = CutPlan(
        kind="registers",
        num_qubits=job.circuit.num_qubits,
        classical=job.classical,
        fragment=job.fragment,
    )
    noise = job.noise or NoiseModel.ideal()
    template = build_register_template(job.circuit, noise, plan)
    stats.record("variants_evaluated")
    probs, cls_out = _ideal_branch(template, job.value, job.frag_state)
    live = [s for s in template.sites if s.e > 0]
    if noise.is_ideal or not live:
        return [(cls_out, job.weight * probs)]
    return _run_noisy_branch(template, job, probs, cls_out)


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
    # Per-row event lists, sampled in deterministic (row, site) order.
    groups: Dict[tuple, List[list]] = {}
    quiet = 0
    for b in range(B):
        flips: List[Tuple[int, int]] = []
        paulis: List[Tuple[int, int, str]] = []
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
                    paulis.append((int(s), local[q], ch))
        if not flips and not paulis:
            quiet += 1
            continue
        groups.setdefault(tuple(flips), []).append(paulis)
    if quiet:
        add(ideal_cls, quiet * w_row * ideal_probs)
    for flips, rows in groups.items():
        for cls_out, vec in _walk_group(
            template, job.value, job.frag_state, flips, rows, w_row
        ):
            add(cls_out, vec)
    return list(terms.items())


def _walk_group(
    template: RegisterTemplate,
    value: int,
    frag_state: Optional[np.ndarray],
    flips: Tuple[Tuple[int, int], ...],
    rows: List[List[Tuple[int, int, str]]],
    w_row: float,
) -> List[Tuple[int, np.ndarray]]:
    """Walk the event list for rows sharing one classical-flip history."""
    nF = template.frag_width
    dim = 1 << nF
    B = len(rows)
    if nF == 0:
        state = np.ones((B, 1), dtype=resolve_complex_dtype(None))
    elif frag_state is None:
        state = np.zeros((B, dim), dtype=resolve_complex_dtype(None))
        state[:, 0] = 1.0
    else:
        state = np.tile(as_complex(frag_state).reshape(1, -1), (B, 1))
    bits = _init_bits(template, value)
    flips_by_site: Dict[int, List[int]] = {}
    for s, q in flips:
        flips_by_site.setdefault(s, []).append(q)
    paulis_by_site: Dict[int, List[Tuple[int, int, str]]] = {}
    for r, row in enumerate(rows):
        for s, loc, ch in row:
            paulis_by_site.setdefault(s, []).append((r, loc, ch))
    for event in template.events:
        if event[0] == "site":
            s = event[1]
            for r, loc, ch in paulis_by_site.get(s, ()):
                state[r] = apply_gate_matrix(
                    state[r : r + 1], PAULI_MATRICES[ch], (loc,), nF
                )[0]
            for q in flips_by_site.get(s, ()):
                bits[q] ^= 1
            continue
        term = _resolve_register_event(template, event, bits)
        if term is not None and nF:
            instr = _term_to_instruction(term)
            out = apply_instruction(state, instr, nF)
            if out is not state:
                state = out
    cls_out = _pack_bits(template, bits)
    probs = np.abs(state) ** 2
    return [(cls_out, w_row * probs[r]) for r in range(B)]


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
    ``initial_state``), so the compile cache sees one lowering and the
    fused scheduler would see one ``fusion_key`` for the whole family.
    """
    program = compile_circuit(job.circuit, job.noise)
    dim = 1 << job.width
    out = np.zeros((len(job.preps), dim))
    for i, combo in enumerate(job.preps):
        init = prep_statevector(job.width, job.in_wires, combo)
        out[i] = _fragment_probs(
            program, init, job.trajectories, job.seed + (i,)
        )
        stats.record("variants_evaluated")
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
        stats.record("fragments_compiled")
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
