"""One process-wide counter ledger.

Every layer that counts work in this process — the compile caches
(``program.*``), the PTM plan cache (``ptm.*``), the fused trajectory
scheduler (``batch.*``), the cutting subsystem (``cut.*``) and the
service queue's fusion counters (``fusion.*``) — bumps a counter here, and each
layer's public reader (``compile_cache_stats``, ``scheduler_stats``,
...) derives its dict from :func:`snapshot`.

A counter is keyed by a dotted name plus optional string labels (the
service queue's per-tenant rows carry ``tenant=...``).  One leaf lock
guards the ledger: nothing is called while it is held, so it can be
taken under any other lock, and one :func:`add` of several counters is
never seen half done by a :func:`snapshot`.

Counters cross a process boundary as data: a service worker returns
``delta(before, snapshot())`` with its result, and the parent adds it
to its own ledger with :func:`merge`.
"""

from __future__ import annotations

import threading
from typing import Dict, Mapping, Tuple, Union

__all__ = ["add", "snapshot", "reset", "delta", "merge"]

Number = Union[int, float]
#: A counter's label set: sorted ``(name, value)`` pairs, ``()`` if none.
Labels = Tuple[Tuple[str, str], ...]
#: What :func:`snapshot` returns: ``{labels: {name: value}}``.
Rows = Dict[Labels, Dict[str, Number]]

_LOCK = threading.Lock()
_COUNTERS: Dict[Tuple[str, Labels], Number] = {}


def add(amounts: Mapping[str, Number], **labels: str) -> None:
    """Add each ``amounts[name]`` to counter ``name``, all atomically.

    ``labels`` apply to every counter of the call.  A counter that has
    never been added to reads as absent, not zero.
    """
    key_labels = tuple(sorted(labels.items())) if labels else ()
    with _LOCK:
        for name, amount in amounts.items():
            key = (name, key_labels)
            _COUNTERS[key] = _COUNTERS.get(key, 0) + amount


def snapshot(prefix: str = "") -> Rows:
    """Every counter whose name starts with ``prefix``, read at one
    instant, grouped by label set: ``{labels: {name: value}}``.

    Names are returned with ``prefix`` stripped; unlabelled counters
    sit under ``()``.
    """
    rows: Rows = {}
    with _LOCK:
        for (name, labels), value in _COUNTERS.items():
            if name.startswith(prefix):
                rows.setdefault(labels, {})[name[len(prefix):]] = value
    return rows


def reset(prefix: str = "") -> None:
    """Drop every counter whose name starts with ``prefix``."""
    with _LOCK:
        for key in [k for k in _COUNTERS if k[0].startswith(prefix)]:
            del _COUNTERS[key]


def delta(before: Rows, after: Rows) -> Rows:
    """``after - before``, counter by counter, in :func:`snapshot`'s
    shape; counters that did not move are left out."""
    rows: Rows = {}
    for labels, row in after.items():
        old = before.get(labels, {})
        for name, value in row.items():
            moved = value - old.get(name, 0)
            if moved:
                rows.setdefault(labels, {})[name] = moved
    return rows


def merge(rows: Mapping[Labels, Mapping[str, Number]]) -> None:
    """Add every counter of ``rows`` (:func:`snapshot`'s shape, names
    unprefixed), each row atomically under its labels."""
    for labels, row in rows.items():
        add(row, **dict(labels))
