"""Tests for the process-wide counter ledger (repro.runtime.obs).

Covers exact sums under forced GIL churn, atomicity of a multi-counter
``add`` against concurrent snapshots (through the service queue's real
reader), prefix-scoped reset, labelled rows, deltas merged across a
process boundary, and the key trees of the public readers, which must
not change when their ledger moves.
"""

import pickle
import sys
import threading

import pytest

from repro.runtime import obs
from repro.service import cache_stats_snapshot, fusion_stats, reset_fusion_stats
from repro.service.fusion import _note_executed
from repro.sim.batch import scheduler_stats


@pytest.fixture
def churn():
    """Hand the GIL off every few bytecodes, so torn updates show."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


def _run_threads(targets):
    threads = [threading.Thread(target=t) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def test_concurrent_adds_sum_exactly(churn):
    obs.reset("test_obs.")
    per_thread = 2000

    def bump():
        for _ in range(per_thread):
            obs.add({"test_obs.a": 1, "test_obs.b": 2})

    _run_threads([bump] * 8)
    assert obs.snapshot("test_obs.") == {
        (): {"a": 8 * per_thread, "b": 16 * per_thread}
    }
    obs.reset("test_obs.")


def test_snapshot_never_sees_a_half_done_add(churn):
    reset_fusion_stats()
    stop = threading.Event()
    torn = []

    def write():
        for _ in range(1500):
            _note_executed()
        stop.set()

    def read():
        while not stop.is_set():
            s = fusion_stats()
            if not (
                s["batch_requests"] == s["executed"] == s["batches"]
                and s["fused_requests"] == 0
            ):
                torn.append(s)

    _run_threads([write, write, read, read])
    assert torn == []
    final = fusion_stats()
    assert final["batches"] == 3000 and final["batch_requests"] == 3000
    reset_fusion_stats()


def test_reset_zeroes_only_its_prefix():
    obs.reset("test_obs")
    obs.add({"test_obs.x.a": 1, "test_obs.xy.b": 2, "test_obs.y.c": 3})
    obs.add({"test_obs.x.d": 4}, tenant="t")
    obs.reset("test_obs.x.")
    assert obs.snapshot("test_obs.") == {(): {"xy.b": 2, "y.c": 3}}
    obs.reset("test_obs")
    assert obs.snapshot("test_obs") == {}


def test_labelled_counters_form_rows():
    obs.reset("test_obs.")
    obs.add({"test_obs.n": 1, "test_obs.cost": 2.5}, tenant="b")
    obs.add({"test_obs.n": 1, "test_obs.cost": 0.5}, tenant="b")
    obs.add({"test_obs.n": 1}, tenant="a")
    obs.add({"test_obs.n": 7})
    assert obs.snapshot("test_obs.") == {
        (("tenant", "a"),): {"n": 1},
        (("tenant", "b"),): {"n": 2, "cost": 3.0},
        (): {"n": 7},
    }
    obs.reset("test_obs.")


def test_delta_and_merge_carry_counters_across_processes():
    """What a worker sends home (``delta`` of two snapshots, pickled)
    adds onto the parent's ledger label set by label set."""
    obs.reset("test_obs.")
    obs.add({"test_obs.a": 1, "test_obs.still": 5})
    before = obs.snapshot()
    obs.add({"test_obs.a": 2, "test_obs.b": 0.5})
    obs.add({"test_obs.n": 1}, tenant="t")
    moved = obs.delta(before, obs.snapshot())
    assert moved == {
        (): {"test_obs.a": 2, "test_obs.b": 0.5},
        (("tenant", "t"),): {"test_obs.n": 1},
    }
    obs.merge(pickle.loads(pickle.dumps(moved)))
    assert obs.snapshot("test_obs.") == {
        (): {"a": 5, "still": 5, "b": 1.0},
        (("tenant", "t"),): {"n": 2},
    }
    obs.reset("test_obs.")


def _key_tree(doc, data_keyed=("tenants",)):
    """Dotted paths of every key; maps keyed by data are leaves."""
    paths = set()
    for key, value in doc.items():
        paths.add(key)
        if isinstance(value, dict) and key not in data_keyed:
            paths |= {f"{key}.{sub}" for sub in _key_tree(value, data_keyed)}
    return paths


#: The readers' key trees before the counters moved onto one ledger.
CACHE_STATS_KEYS = {
    "backend", "backend.blas", "backend.blas.library",
    "backend.blas.threads", "backend.complex_dtype", "backend.name",
    "backend.tag",
    "circuit_lru", "circuit_lru.entries", "circuit_lru.hits",
    "circuit_lru.maxsize", "circuit_lru.misses",
    "compile_cache", "compile_cache.bind_hits", "compile_cache.binds",
    "compile_cache.lower_hits", "compile_cache.lowerings",
    "cut", "cut.fragments_compiled", "cut.jobs_local", "cut.jobs_pool",
    "cut.plans", "cut.plans_registers", "cut.plans_wires",
    "cut.reconstructions", "cut.variants_evaluated",
    "fusion", "fusion.admitted", "fusion.batch_occupancy",
    "fusion.batch_requests", "fusion.batches", "fusion.cancelled",
    "fusion.executed", "fusion.failures", "fusion.fused_requests",
    "fusion.hit_rate", "fusion.rejected", "fusion.tenants",
    "kernel_cache", "kernel_cache.entries",
    "kernel_cache.evictions", "kernel_cache.hits", "kernel_cache.misses",
    "kernel_cache.total_bytes",
    "program_lru", "program_lru.entries", "program_lru.hits",
    "program_lru.maxsize", "program_lru.misses",
    "ptm_cache", "ptm_cache.bind_hits", "ptm_cache.binds",
    "ptm_cache.plans",
}

SCHEDULER_STATS_KEYS = {
    "batch_occupancy", "chunks", "dedup_ratio", "rows_simulated", "tasks",
    "trajectories_sampled",
}


def test_reader_key_trees_are_unchanged():
    assert _key_tree(cache_stats_snapshot()) == CACHE_STATS_KEYS
    assert set(scheduler_stats()) == SCHEDULER_STATS_KEYS
