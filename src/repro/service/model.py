"""Typed request/response model for the arithmetic service.

A :class:`SimRequest` names one simulation: an arithmetic operation,
operand superpositions, an AQFT depth, a noise point, and sampling
parameters.  The model is deliberately broader than the paper's figure
grid — any (operation, operands, depth, noise, shots, seed) combination
within the validation envelope is servable, matching the wider request
space of related adder variants (see PAPERS.md).

Determinism contract
--------------------
``content_key()`` is a content hash over every semantically relevant
field (priority excluded — it affects scheduling, never results).  Two
requests with equal keys produce bit-identical
:class:`~repro.sim.result.Counts`: the executor derives its RNG from
``(seed, content_key)`` alone, so retries, coalesced duplicates, and
repeat submissions all replay the same stream.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..runtime.envutil import env_int
from ..runtime.errors import width_limit_error
from ..sim.engines import EXACT_MAX_QUBITS
from ..sim.methods import METHODS, method_width_cap
from ..sim.result import Counts

if TYPE_CHECKING:  # pragma: no cover — annotation-only import
    from ..experiments.instances import ArithmeticInstance

__all__ = [
    "MAX_PRIORITY",
    "MAX_SWEEP_CELLS",
    "MAX_TENANT_LENGTH",
    "RequestValidationError",
    "SimRequest",
    "SimResponse",
    "SweepRequest",
    "service_max_qubits",
]

_OPERATIONS = ("add", "mul")
_ERROR_AXES = ("1q", "2q")
#: Admitted method names come from the single registry — the service
#: schema can never lag behind a newly added engine.
_METHODS = METHODS
_CONVENTIONS = ("qiskit", "pauli")

MAX_SHOTS = 1_000_000
MAX_TRAJECTORIES = 65_536
MAX_PRIORITY = 9
MAX_DEPTH = 64
MAX_SEED = 2**63 - 1
#: Cells one ``/v1/sweep`` request may carry; wider sweeps split client-side.
MAX_SWEEP_CELLS = 256
#: Tenant identifiers are accounting labels, not payloads.
MAX_TENANT_LENGTH = 64


def service_max_qubits() -> int:
    """Width cap for admitted requests (``REPRO_SERVICE_MAX_QUBITS``).

    The cap bounds the *total* circuit width (``n + m`` for add,
    ``2*(n + m)`` for mul) so a single request cannot exhaust the
    server's memory with a ``2**n`` statevector.
    """
    return env_int("REPRO_SERVICE_MAX_QUBITS", 16, minimum=1)


class RequestValidationError(ValueError):
    """A request failed validation; ``errors`` lists every problem.

    ``status`` is the HTTP status the server answers with: 422 when the
    request is well-formed but wider than its method admits (every
    problem is a width limit), 400 otherwise.
    """

    def __init__(self, errors: List[str], status: int = 400) -> None:
        super().__init__("; ".join(errors))
        self.errors = list(errors)
        self.status = status


def _as_int(value: Any, name: str, errors: List[str]) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        try:
            coerced = int(value)
        except (TypeError, ValueError):
            errors.append(f"{name}: expected integer, got {value!r}")
            return 0
        if isinstance(value, float) and coerced != value:
            errors.append(f"{name}: expected integer, got {value!r}")
            return 0
        return coerced
    return value


@dataclass(frozen=True)
class SimRequest:
    """One quantum-arithmetic simulation request.

    ``x``/``y`` are operand superpositions: tuples of distinct basis
    values given uniform amplitude (order-1 tuples are classical
    operands).  ``priority`` orders the queue (0 = most urgent) and
    ``tenant`` labels the request for fair-share accounting in the
    queue; both affect scheduling, never results, so both are
    excluded from the content key.
    """

    operation: str
    n: int
    m: int
    x: Tuple[int, ...]
    y: Tuple[int, ...]
    depth: Optional[int] = None
    error_axis: str = "2q"
    error_rate: float = 0.0
    shots: int = 512
    trajectories: int = 32
    method: str = "auto"
    seed: int = 0
    convention: str = "qiskit"
    priority: int = 5
    tenant: str = ""

    # -- derived ----------------------------------------------------------
    @property
    def total_qubits(self) -> int:
        """Full circuit width for this request's operation."""
        if self.operation == "mul":
            return 2 * (self.n + self.m)
        return self.n + self.m

    @cached_property
    def _canonical_json(self) -> str:
        payload = self.canonical_dict()
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def canonical_dict(self) -> Dict[str, Any]:
        """Every result-determining field, canonically ordered.

        Operand tuples are sorted — a uniform superposition is a *set*
        of values, so ``x=(1, 3)`` and ``x=(3, 1)`` are the same request
        and must coalesce.
        """
        return {
            "operation": self.operation,
            "n": self.n,
            "m": self.m,
            "x": sorted(self.x),
            "y": sorted(self.y),
            "depth": self.depth,
            "error_axis": self.error_axis,
            "error_rate": float(self.error_rate),
            "shots": self.shots,
            "trajectories": self.trajectories,
            "method": self.method,
            "seed": self.seed,
            "convention": self.convention,
        }

    def content_key(self) -> str:
        """Content address: sha256 over the canonical request.

        This is the coalescing and result-cache key.  It subsumes the
        compiled program's fingerprint (operation, widths, depth, noise
        point determine the program) plus the operand state, shots,
        method, and the seed policy.
        """
        return hashlib.sha256(self._canonical_json.encode()).hexdigest()[:24]

    def rng_seed(self) -> Tuple[int, int]:
        """Deterministic per-request RNG seed sequence.

        Mixing the content key in ensures distinct requests sharing a
        user seed draw independent streams, while retries and coalesced
        duplicates of *one* request replay bit-identically.
        """
        return (self.seed, int(self.content_key()[:15], 16))

    # -- validation -------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`RequestValidationError` listing every problem."""
        errors: List[str] = []
        width_errors = 0
        if self.operation not in _OPERATIONS:
            errors.append(
                f"operation: {self.operation!r} not in {_OPERATIONS}"
            )
        if self.n < 1 or self.m < 1:
            errors.append(f"register widths must be >= 1, got n={self.n} m={self.m}")
        elif self.operation in _OPERATIONS:
            cap = service_max_qubits()
            if self.total_qubits > cap:
                errors.append(
                    f"total width {self.total_qubits} exceeds service cap "
                    f"{cap} (REPRO_SERVICE_MAX_QUBITS)"
                )
        if self.depth is not None and not 1 <= self.depth <= MAX_DEPTH:
            errors.append(f"depth: must be in [1, {MAX_DEPTH}] or null")
        if self.error_axis not in _ERROR_AXES:
            errors.append(f"error_axis: {self.error_axis!r} not in {_ERROR_AXES}")
        if not 0.0 <= self.error_rate < 1.0:
            errors.append(f"error_rate: {self.error_rate!r} not in [0, 1)")
        if not 1 <= self.shots <= MAX_SHOTS:
            errors.append(f"shots: must be in [1, {MAX_SHOTS}]")
        if not 1 <= self.trajectories <= MAX_TRAJECTORIES:
            errors.append(f"trajectories: must be in [1, {MAX_TRAJECTORIES}]")
        if self.method not in _METHODS:
            errors.append(f"method: {self.method!r} not in {_METHODS}")
        else:
            # Dense-engine admission: reject at the door, with the same
            # actionable message the engine itself would raise, instead
            # of queueing a request that can only fail (or OOM) later.
            cap = method_width_cap(self.method)
            if cap is not None and self.method == "density":
                # A request holds one of the server's few executor
                # slots for its whole run, and density at 11-13 qubits
                # runs for minutes: serve it where PTM takes over.
                cap = min(cap, EXACT_MAX_QUBITS)
            if cap is not None and self.total_qubits > cap:
                errors.append(
                    str(width_limit_error(
                        f"{self.method} service admission",
                        cap,
                        self.total_qubits,
                    ))
                )
                width_errors += 1
        if not 0 <= self.seed <= MAX_SEED:
            errors.append("seed: must be in [0, 2**63)")
        if self.convention not in _CONVENTIONS:
            errors.append(f"convention: {self.convention!r} not in {_CONVENTIONS}")
        if not 0 <= self.priority <= MAX_PRIORITY:
            errors.append(f"priority: must be in [0, {MAX_PRIORITY}]")
        if not isinstance(self.tenant, str):
            errors.append("tenant: expected a string label")
        elif len(self.tenant) > MAX_TENANT_LENGTH:
            errors.append(
                f"tenant: label exceeds {MAX_TENANT_LENGTH} characters"
            )
        # Operand bounds are 2**width: check them only at widths the
        # service could run, never build a huge int for a huge width.
        if 1 <= min(self.n, self.m) <= max(self.n, self.m) <= service_max_qubits():
            errors.extend(self._validate_operands())
        if errors:
            raise RequestValidationError(
                errors, status=422 if width_errors == len(errors) else 400
            )

    def _validate_operands(self) -> List[str]:
        errors: List[str] = []
        for name, values, width in (("x", self.x, self.n), ("y", self.y, self.m)):
            if not values:
                errors.append(f"{name}: operand superposition must be non-empty")
                continue
            if len(set(values)) != len(values):
                errors.append(f"{name}: duplicate values in {list(values)}")
            bad = [v for v in values if not 0 <= int(v) < (1 << width)]
            if bad:
                errors.append(
                    f"{name}: values {bad} out of range for {width} qubits"
                )
        return errors

    # -- (de)serialisation ------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-able full payload (includes priority)."""
        d = asdict(self)
        d["x"] = list(self.x)
        d["y"] = list(self.y)
        return d

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SimRequest":
        """Build and validate a request from a decoded JSON object."""
        if not isinstance(payload, dict):
            raise RequestValidationError(
                [f"request body must be a JSON object, got {type(payload).__name__}"]
            )
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = sorted(set(payload) - known)
        errors: List[str] = []
        if unknown:
            errors.append(f"unknown fields: {unknown}")
        missing = [f for f in ("operation", "n", "m", "x", "y") if f not in payload]
        if missing:
            errors.append(f"missing required fields: {missing}")
        if errors:
            raise RequestValidationError(errors)

        def geti(name: str, default: int) -> int:
            return _as_int(payload.get(name, default), name, errors)

        operation = str(payload["operation"])
        n = geti("n", 0)
        m = geti("m", 0)
        for op_name in ("x", "y"):
            raw = payload[op_name]
            if not isinstance(raw, (list, tuple)):
                errors.append(f"{op_name}: expected a list of integers")
        if errors:
            raise RequestValidationError(errors)
        x = tuple(_as_int(v, "x[]", errors) for v in payload["x"])
        y = tuple(_as_int(v, "y[]", errors) for v in payload["y"])
        depth_raw = payload.get("depth")
        depth = None if depth_raw is None else _as_int(depth_raw, "depth", errors)
        try:
            rate = float(payload.get("error_rate", 0.0))
        except (TypeError, ValueError):
            errors.append("error_rate: expected number")
            rate = 0.0
        req = cls(
            operation=operation,
            n=n,
            m=m,
            x=x,
            y=y,
            depth=depth,
            error_axis=str(payload.get("error_axis", "2q")),
            error_rate=rate,
            shots=geti("shots", 512),
            trajectories=geti("trajectories", 32),
            method=str(payload.get("method", "auto")),
            seed=geti("seed", 0),
            convention=str(payload.get("convention", "qiskit")),
            priority=geti("priority", 5),
            tenant=str(payload.get("tenant", "")),
        )
        if errors:
            raise RequestValidationError(errors)
        req.validate()
        return req

    def instance(self) -> "ArithmeticInstance":
        """The :class:`~repro.experiments.instances.ArithmeticInstance`."""
        from ..core.qint import QInteger
        from ..experiments.instances import ArithmeticInstance

        return ArithmeticInstance(
            self.operation,
            self.n,
            self.m,
            QInteger.uniform(sorted(self.x), self.n),
            QInteger.uniform(sorted(self.y), self.m),
        )


@dataclass
class SimResponse:
    """The service's answer to one :class:`SimRequest`.

    ``cache`` records how the result was obtained: ``"miss"`` (executed
    for this request), ``"coalesced"`` (attached to an identical
    in-flight request), or ``"hit"`` (served from the result cache).
    ``timings_ms`` carries per-stage latencies; cached stages report the
    *original* compile/simulate cost alongside this request's own
    queue/total time.
    """

    content_key: str
    counts: Dict[int, int]
    num_qubits: int
    shots: int
    method: str
    program_fingerprint: str
    seed: int
    success: bool
    min_diff: int
    success_probability: float
    cache: str = "miss"
    timings_ms: Dict[str, float] = field(default_factory=dict)

    def counts_object(self) -> Counts:
        """Rehydrate the payload as a :class:`~repro.sim.result.Counts`."""
        counts = Counts(dict(self.counts), self.num_qubits)
        counts.method = self.method
        return counts

    def to_dict(self) -> Dict[str, Any]:
        d = asdict(self)
        # JSON object keys are strings; keep outcomes as decimal strings.
        d["counts"] = {str(k): v for k, v in self.counts.items()}
        return d

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SimResponse":
        d = dict(payload)
        d["counts"] = {int(k): int(v) for k, v in payload["counts"].items()}
        return cls(**d)


@dataclass(frozen=True)
class SweepRequest:
    """A multi-cell rate sweep over one circuit family (``/v1/sweep``).

    ``base`` carries every :class:`SimRequest` field except the error
    rate; ``rates`` names the cells.  Every cell is queued and run as
    its own request.  ``tenant``/``priority`` on the sweep override the base's.
    """

    base: SimRequest
    rates: Tuple[float, ...]

    def cells(self) -> List[SimRequest]:
        """One validated :class:`SimRequest` per rate, in rate order."""
        import dataclasses

        return [
            dataclasses.replace(self.base, error_rate=float(rate))
            for rate in self.rates
        ]

    def to_dict(self) -> Dict[str, Any]:
        base = self.base.to_dict()
        base.pop("error_rate", None)
        return {"base": base, "rates": list(self.rates)}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SweepRequest":
        """Build and validate a sweep spec from a decoded JSON object."""
        if not isinstance(payload, dict):
            raise RequestValidationError(
                [
                    "sweep body must be a JSON object, got "
                    f"{type(payload).__name__}"
                ]
            )
        errors: List[str] = []
        unknown = sorted(set(payload) - {"base", "rates", "tenant", "priority"})
        if unknown:
            errors.append(f"unknown fields: {unknown}")
        base_raw = payload.get("base")
        rates_raw = payload.get("rates")
        if not isinstance(base_raw, dict):
            errors.append("base: expected a SimRequest JSON object")
        if not isinstance(rates_raw, (list, tuple)) or not rates_raw:
            errors.append("rates: expected a non-empty list of numbers")
        elif len(rates_raw) > MAX_SWEEP_CELLS:
            errors.append(
                f"rates: {len(rates_raw)} cells exceed the per-request "
                f"cap {MAX_SWEEP_CELLS} (split the sweep client-side)"
            )
        if errors:
            raise RequestValidationError(errors)
        assert isinstance(base_raw, dict) and isinstance(rates_raw, (list, tuple))
        rates: List[float] = []
        for i, raw in enumerate(rates_raw):
            try:
                rate = float(raw)
            except (TypeError, ValueError):
                errors.append(f"rates[{i}]: expected number, got {raw!r}")
                continue
            if not 0.0 <= rate < 1.0:
                errors.append(f"rates[{i}]: {raw!r} not in [0, 1)")
            rates.append(rate)
        if len(set(rates)) != len(rates):
            errors.append("rates: duplicate cells")
        base_payload = dict(base_raw)
        base_payload.setdefault("error_rate", rates[0] if rates else 0.0)
        if "tenant" in payload:
            base_payload["tenant"] = payload["tenant"]
        if "priority" in payload:
            base_payload["priority"] = payload["priority"]
        try:
            base = SimRequest.from_dict(base_payload)
        except RequestValidationError as exc:
            status = exc.status if not errors else 400
            errors.extend(f"base.{e}" for e in exc.errors)
            raise RequestValidationError(errors, status=status) from None
        if errors:
            raise RequestValidationError(errors)
        return cls(base=base, rates=tuple(rates))
