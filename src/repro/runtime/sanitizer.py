"""Runtime determinism sanitizer (``REPRO_SANITIZER=1``).

The static DET rules prove no *banned construct* appears in a result
path; the sanitizer proves the *streams themselves* replay.  With the
flag on, the engines, the fused scheduler, the service executor, and
the sweep driver hash what they produce into a trace of
``(stage, key, digest)`` events:

* ``counts``  — the sampled Counts of one ``simulate_counts`` call,
  keyed by the active scope (the request content key in the service,
  the cell key in a sweep).
* ``task``    — one fused-scheduler task's outcome array and the RNG
  bit-generator state after sampling it, keyed by ``task.key``.
* ``point``   — one stored sweep :class:`PointResult`, keyed by
  ``(rate, depth)``.
* ``chunk``   — one simulated state-buffer chunk (geometry-tagged;
  excluded from cross-path comparison by default, since chunk shapes
  legitimately differ between fused batches and memory budgets).

Two runs of the same work through different machinery — thread-tier
vs process-tier executors, a fused service batch vs solo requests, a
pooled sweep vs a serial one — must produce traces whose portable stages
compare equal; :func:`compare_traces` reports every divergence.
Events recorded inside :func:`capture` (the executor wraps each
payload in one) are returned to the caller instead of accumulating
globally, so worker results carry their own evidence across process
boundaries.

The hooks are a few lines each and cost one hash per event; with the
flag off (the default) every entry point is a single boolean check.
"""

from __future__ import annotations

import hashlib
import threading
from contextlib import contextmanager
from dataclasses import asdict, is_dataclass
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .envutil import env_flag

__all__ = [
    "capture",
    "clear_trace",
    "compare_traces",
    "enabled",
    "force",
    "payload_digest",
    "record",
    "trace_digest",
    "trace_events",
    "trace_scope",
    "PORTABLE_STAGES",
]

#: Stages compared across execution paths; anything else (``chunk``) is
#: diagnostic-only.
PORTABLE_STAGES = ("counts", "task", "point")

#: One trace event: (stage, key, digest).
Event = Tuple[str, str, str]

_FORCED: Optional[bool] = None
_EVENTS: List[Event] = []
_LOCK = threading.Lock()


class _Local(threading.local):
    def __init__(self) -> None:
        self.scopes: List[str] = []
        self.captures: List[List[Event]] = []


_LOCAL = _Local()


def enabled() -> bool:
    """Whether the sanitizer is on (env flag, or :func:`force`)."""
    if _FORCED is not None:
        return _FORCED
    try:
        return env_flag("REPRO_SANITIZER", False)
    except ValueError:
        return False


def force(value: Optional[bool]) -> None:
    """Override the env flag (tests); ``None`` restores env control."""
    global _FORCED
    _FORCED = value


# ---------------------------------------------------------------------------
# Hashing
# ---------------------------------------------------------------------------

def _feed(h: "hashlib._Hash", obj: Any) -> None:
    # np is imported lazily so importing the audit package never pulls
    # numpy for CLI paths that don't simulate.
    import numpy as np

    if obj is None or isinstance(obj, (bool, int, str)):
        h.update(f"{type(obj).__name__}:{obj!r};".encode())
    elif isinstance(obj, float):
        h.update(f"f:{obj.hex()};".encode())
    elif isinstance(obj, bytes):
        h.update(b"b:")
        h.update(obj)
        h.update(b";")
    elif isinstance(obj, np.ndarray):
        h.update(f"nd:{obj.dtype.str}:{obj.shape};".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, np.generic):
        _feed(h, obj.item())
    elif isinstance(obj, (list, tuple)):
        h.update(f"seq:{len(obj)}[".encode())
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, dict):
        h.update(f"map:{len(obj)}{{".encode())
        for k in sorted(obj, key=repr):
            _feed(h, k)
            h.update(b"=")
            _feed(h, obj[k])
        h.update(b"}")
    elif is_dataclass(obj) and not isinstance(obj, type):
        h.update(f"dc:{type(obj).__name__};".encode())
        _feed(h, asdict(obj))
    elif hasattr(obj, "as_dict"):
        h.update(f"obj:{type(obj).__name__};".encode())
        _feed(h, obj.as_dict())
    else:
        h.update(f"repr:{obj!r};".encode())


def payload_digest(payload: Any) -> str:
    """Short deterministic content hash of ``payload``.

    Canonicalises dicts (sorted keys), hashes numpy arrays by
    dtype/shape/bytes, floats by their exact hex form — so two equal
    payloads digest equal regardless of construction order, and one ULP
    of drift is a different trace.
    """
    h = hashlib.sha256()
    _feed(h, payload)
    return h.hexdigest()[:24]


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------

@contextmanager
def trace_scope(key: str) -> Iterator[None]:
    """Set the default event key for the current thread."""
    _LOCAL.scopes.append(str(key))
    try:
        yield
    finally:
        _LOCAL.scopes.pop()


def record(stage: str, payload: Any, key: Optional[str] = None) -> None:
    """Record one event (no-op with the sanitizer off)."""
    if not enabled():
        return
    if key is None:
        key = _LOCAL.scopes[-1] if _LOCAL.scopes else ""
    event: Event = (stage, str(key), payload_digest(payload))
    if _LOCAL.captures:
        _LOCAL.captures[-1].append(event)
        return
    with _LOCK:
        _EVENTS.append(event)


@contextmanager
def capture() -> Iterator[List[Event]]:
    """Collect this thread's events into the yielded list.

    Worker entry points (the service executor payload) wrap their work
    in a capture and ship the list home with the result, which is how
    process-tier events cross the pickle boundary.
    """
    buf: List[Event] = []
    _LOCAL.captures.append(buf)
    try:
        yield buf
    finally:
        _LOCAL.captures.pop()


def merge_events(events: Sequence[Sequence[str]]) -> None:
    """Fold captured (possibly JSON-roundtripped) events into the trace."""
    if not events:
        return
    normalised = [(str(s), str(k), str(d)) for s, k, d in events]
    with _LOCK:
        _EVENTS.extend(normalised)


def trace_events() -> List[Event]:
    """Snapshot of the accumulated global trace."""
    with _LOCK:
        return list(_EVENTS)


def clear_trace() -> None:
    """Drop every accumulated event (start of a comparison run)."""
    with _LOCK:
        _EVENTS.clear()


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def _portable_multiset(
    events: Sequence[Event], stages: Sequence[str]
) -> Dict[Tuple[str, str], Dict[str, int]]:
    out: Dict[Tuple[str, str], Dict[str, int]] = {}
    for stage, key, digest in events:
        if stage not in stages:
            continue
        bucket = out.setdefault((stage, key), {})
        bucket[digest] = bucket.get(digest, 0) + 1
    return out


def trace_digest(
    events: Optional[Sequence[Event]] = None,
    stages: Sequence[str] = PORTABLE_STAGES,
) -> str:
    """One hash over the portable stages of a trace.

    Order-independent across (stage, key) groups — execution paths
    interleave work differently — but count-sensitive within a group.
    """
    if events is None:
        events = trace_events()
    return payload_digest(
        {
            f"{stage}|{key}": sorted(bucket.items())
            for (stage, key), bucket in _portable_multiset(
                events, stages
            ).items()
        }
    )


def compare_traces(
    a: Sequence[Event],
    b: Sequence[Event],
    stages: Sequence[str] = PORTABLE_STAGES,
) -> List[str]:
    """Human-readable divergences between two traces (empty = parity).

    Compares the multiset of digests per (stage, key): a missing key, an
    extra key, or any digest-count mismatch is reported.
    """
    ma = _portable_multiset(a, stages)
    mb = _portable_multiset(b, stages)
    problems: List[str] = []
    for group in sorted(set(ma) | set(mb)):
        stage, key = group
        da, db = ma.get(group), mb.get(group)
        if da is None:
            problems.append(f"{stage}[{key}]: only in second trace")
        elif db is None:
            problems.append(f"{stage}[{key}]: only in first trace")
        elif da != db:
            problems.append(
                f"{stage}[{key}]: digests differ "
                f"({sorted(da.items())} vs {sorted(db.items())})"
            )
    return problems
