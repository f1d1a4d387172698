"""Append-only JSONL checkpoint journal for long-running sweeps.

Each completed cell is one line, written and flushed the moment the
cell finishes, so a crash (or SIGINT) loses at most the in-flight
cells.  Every line carries the sweep's *config fingerprint*; on resume
the journal only yields entries whose fingerprint matches, so a stale
journal from a different configuration can never poison a run.

The format is deliberately dumb:

    {"v": 1, "fp": "<hex>", "key": [0.003, "full"], "cell": {...}}

Lines of any other version are skipped.  Older releases wrote v2
lease/ack/downgrade event records beside the cells; such journals
still resume, with exactly their v1 cells restored.

Corrupt or truncated trailing lines (the typical artifact of a hard
kill mid-write) are skipped, not fatal — the cells they would have
recorded are simply re-run.

Multi-writer safety: every append goes through :func:`locked_append` —
an ``O_APPEND`` file descriptor, an ``fcntl`` advisory exclusive lock
(where the platform provides one), and a single ``os.write`` of the
whole line — so a restarted sweep racing a stale writer can never
interleave partial records inside one line.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Tuple, Union

try:  # pragma: no cover - absent only on non-POSIX platforms
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "CheckpointJournal",
    "config_fingerprint",
    "locked_append",
    "JOURNAL_VERSION",
]

JOURNAL_VERSION = 1


def config_fingerprint(payload: Any) -> str:
    """A stable hex digest of a JSON-serialisable config description.

    Tuples serialise as lists, so dataclass ``asdict`` output works
    directly.  Two sweeps share a fingerprint iff their canonical JSON
    matches — the journal's compatibility criterion.
    """
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:20]


def locked_append(path: Union[str, Path], line: str) -> None:
    """Append ``line`` (newline added) atomically with respect to peers.

    ``O_APPEND`` plus a single ``os.write`` means one record is one
    write syscall at the end of the file; the advisory ``fcntl`` lock
    additionally serialises concurrent appenders so even pathological
    filesystems cannot interleave two records.  Durable: fsynced before
    the lock is released.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = (line.rstrip("\n") + "\n").encode("utf-8")
    fd = os.open(str(path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            os.write(fd, data)
            os.fsync(fd)
        finally:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
    finally:
        os.close(fd)


class CheckpointJournal:
    """One sweep's journal file (see module docs for the line format)."""

    def __init__(self, path: Union[str, Path], fingerprint: str) -> None:
        self.path = Path(path)
        self.fingerprint = str(fingerprint)

    # ------------------------------------------------------------------
    def _lines(self):
        if not self.path.exists():
            return
        with self.path.open("r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    continue  # truncated tail from an interrupted write
                if isinstance(rec, dict) and rec.get("fp") == self.fingerprint:
                    yield rec

    def load(self) -> Dict[Tuple, dict]:
        """Completed cells recorded for this fingerprint.

        Returns ``{key tuple: cell payload dict}``.  Foreign-fingerprint
        and undecodable lines are skipped silently; a later record for
        the same key wins (re-runs overwrite).
        """
        out: Dict[Tuple, dict] = {}
        for rec in self._lines():
            if (
                rec.get("v") != JOURNAL_VERSION
                or "key" not in rec
                or "cell" not in rec
            ):
                continue
            out[tuple(rec["key"])] = rec["cell"]
        return out

    def record(self, key: Tuple, cell: dict) -> None:
        """Append one completed cell and flush it to disk durably."""
        rec = {
            "v": JOURNAL_VERSION,
            "fp": self.fingerprint,
            "key": list(key),
            "cell": cell,
        }
        locked_append(self.path, json.dumps(rec, separators=(",", ":")))

    def reset(self) -> None:
        """Discard any existing journal (fresh, non-resumed run)."""
        if self.path.exists():
            self.path.unlink()
