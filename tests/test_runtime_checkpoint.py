"""Tests for the JSONL checkpoint journal and config fingerprinting."""

import json

from repro.runtime import CheckpointJournal, config_fingerprint


class TestFingerprint:
    def test_stable_across_key_order(self):
        a = config_fingerprint({"x": 1, "y": [1, 2]})
        b = config_fingerprint({"y": [1, 2], "x": 1})
        assert a == b

    def test_sensitive_to_values(self):
        assert config_fingerprint({"x": 1}) != config_fingerprint({"x": 2})

    def test_tuples_equal_lists(self):
        assert config_fingerprint({"d": (1, None)}) == config_fingerprint(
            {"d": [1, None]}
        )


class TestJournal:
    def test_round_trip(self, tmp_path):
        j = CheckpointJournal(tmp_path / "j.jsonl", "fp1")
        j.record((0.05, "full"), {"success": 1})
        j.record((0.05, 2), {"success": 0})
        loaded = j.load()
        assert loaded == {
            (0.05, "full"): {"success": 1},
            (0.05, 2): {"success": 0},
        }

    def test_missing_file_loads_empty(self, tmp_path):
        j = CheckpointJournal(tmp_path / "absent.jsonl", "fp1")
        assert j.load() == {}

    def test_foreign_fingerprint_ignored(self, tmp_path):
        path = tmp_path / "j.jsonl"
        CheckpointJournal(path, "fp-old").record((0.0, 2), {"stale": True})
        CheckpointJournal(path, "fp-new").record((0.0, 2), {"fresh": True})
        assert CheckpointJournal(path, "fp-new").load() == {
            (0.0, 2): {"fresh": True}
        }
        assert CheckpointJournal(path, "fp-old").load() == {
            (0.0, 2): {"stale": True}
        }

    def test_truncated_tail_line_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = CheckpointJournal(path, "fp")
        j.record((0.1, 3), {"ok": 1})
        with path.open("a") as fh:
            fh.write('{"v": 1, "fp": "fp", "key": [0.2, 3], "cel')
        assert j.load() == {(0.1, 3): {"ok": 1}}

    def test_rerecorded_key_wins(self, tmp_path):
        j = CheckpointJournal(tmp_path / "j.jsonl", "fp")
        j.record((0.1, 3), {"run": 1})
        j.record((0.1, 3), {"run": 2})
        assert j.load() == {(0.1, 3): {"run": 2}}

    def test_reset_discards(self, tmp_path):
        j = CheckpointJournal(tmp_path / "j.jsonl", "fp")
        j.record((0.1, 3), {"ok": 1})
        j.reset()
        assert j.load() == {}
        j.reset()  # idempotent on a missing file

    def test_lines_are_valid_json(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = CheckpointJournal(path, "fp")
        j.record((0.1, "full"), {"a": [1, 2]})
        (line,) = path.read_text().splitlines()
        rec = json.loads(line)
        assert rec["v"] == 1
        assert rec["fp"] == "fp"
        assert rec["key"] == [0.1, "full"]


def _journal_writer(path, fingerprint, start, count):
    """Subprocess target: hammer the journal with cell records."""
    j = CheckpointJournal(path, fingerprint)
    for i in range(start, start + count):
        j.record((0.001 * i, i), {"payload": "x" * 200, "i": i})


class TestMultiWriterSafety:
    def test_concurrent_writers_never_interleave(self, tmp_path):
        """Two processes appending concurrently produce only whole lines.

        This is the regression test for the locked single-write append:
        a coordinator and a stale writer (or two racing workers sharing
        a journal) must never corrupt each other's records.
        """
        import multiprocessing

        path = tmp_path / "j.jsonl"
        count = 150
        ctx = multiprocessing.get_context("spawn")
        procs = [
            ctx.Process(
                target=_journal_writer, args=(path, "fp", k * count, count)
            )
            for k in range(2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 2 * count
        seen = set()
        for line in lines:
            rec = json.loads(line)  # every line is whole, valid JSON
            assert rec["v"] == 1
            seen.add(rec["cell"]["i"])
        assert seen == set(range(2 * count))
        loaded = CheckpointJournal(path, "fp").load()
        assert len(loaded) == 2 * count

    def test_locked_append_single_line(self, tmp_path):
        from repro.runtime import locked_append

        path = tmp_path / "a.log"
        locked_append(path, "one")
        locked_append(path, "two\n")  # trailing newline not doubled
        assert path.read_text() == "one\ntwo\n"


def test_journal_with_legacy_v2_event_lines_loads_only_its_cells(tmp_path):
    """Journals written by releases that logged v2 lease/ack/downgrade
    event records beside the cells still resume, cells only."""
    path = tmp_path / "j.jsonl"
    j = CheckpointJournal(path, "fp")
    j.record((0.1, 3), {"ok": 1})
    with path.open("a", encoding="utf-8") as fh:
        for rec in (
            {"v": 2, "fp": "fp", "type": "lease", "unit": "u-1",
             "worker": "w", "attempt": 1},
            {"v": 2, "fp": "fp", "type": "ack", "unit": "u-1",
             "worker": "w", "attempt": 1},
            {"v": 2, "fp": "fp", "type": "downgrade", "reason": "fleet lost"},
        ):
            fh.write(json.dumps(rec) + "\n")
    j.record((0.2, "full"), {"ok": 2})
    assert j.load() == {(0.1, 3): {"ok": 1}, (0.2, "full"): {"ok": 2}}
