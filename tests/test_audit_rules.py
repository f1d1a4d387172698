"""Unit tests for the codebase audit rule families (repro.audit).

Each rule gets a minimal positive fixture (the violation fires) and a
negative fixture (the compliant spelling stays clean), driven through
``audit_source`` so the fixtures exercise the same suppression and
reporting machinery as the real package audit.
"""

from __future__ import annotations

import textwrap

from repro.audit import audit_source
from repro.audit.budget import SUPPRESSION_BUDGET, budget_for
from repro.audit.suppress import parse_suppressions


def ids(report):
    return [d.rule_id for d in report.diagnostics]


def run(source, module="repro.sim.fixture", **kwargs):
    return audit_source(textwrap.dedent(source), module=module, **kwargs)


# ---------------------------------------------------------------------------
# DET: seed discipline
# ---------------------------------------------------------------------------

class TestDet001:
    def test_default_rng_no_seed(self):
        report = run("""
            import numpy as np

            def sample():
                return np.random.default_rng()
        """)
        assert ids(report) == ["DET001"]

    def test_default_rng_none_literal(self):
        report = run("""
            import numpy as np

            def sample():
                return np.random.default_rng(None)
        """)
        assert ids(report) == ["DET001"]

    def test_optional_seed_parameter_default_none(self):
        report = run("""
            import numpy as np

            def sample(seed=None):
                return np.random.default_rng(seed)
        """)
        assert ids(report) == ["DET001"]
        assert "defaults to None" in report.diagnostics[0].message

    def test_legacy_global_stream(self):
        report = run("""
            import numpy as np

            def sample():
                return np.random.rand(4)
        """)
        assert ids(report) == ["DET001"]

    def test_stdlib_random(self):
        report = run("""
            import random

            def sample():
                return random.random()
        """)
        assert ids(report) == ["DET001"]

    def test_seeded_rng_is_clean(self):
        report = run("""
            import numpy as np

            def sample(seed):
                return np.random.default_rng((seed, 7))
        """)
        assert ids(report) == []

    def test_fires_outside_result_zone_too(self):
        # DET001 is package-wide: an unseeded stream in a tools module
        # is just as irreproducible.
        report = run("""
            import numpy as np

            def sample():
                return np.random.default_rng()
        """, module="repro.visualization.fixture")
        assert ids(report) == ["DET001"]


class TestDet002:
    def test_wall_clock_in_result_zone(self):
        report = run("""
            import time

            def run_cell():
                return time.time()
        """)
        assert ids(report) == ["DET002"]

    def test_monotonic_is_allowed(self):
        report = run("""
            import time

            def run_cell():
                t0 = time.monotonic()
                return time.perf_counter() - t0
        """)
        assert ids(report) == []

    def test_wall_clock_outside_zone_is_out_of_scope(self):
        report = run("""
            import time

            def now():
                return time.time()
        """, module="repro.visualization.fixture")
        assert ids(report) == []


class TestDet003:
    def test_clock_in_key_function(self):
        # Even a *monotonic* clock is banned inside key computations.
        report = run("""
            import time

            def content_key(doc):
                return (doc, time.monotonic())
        """)
        assert ids(report) == ["DET003"]

    def test_clock_in_helper_called_from_key_function(self):
        report = run("""
            import time

            def fingerprint(doc):
                return _canonical(doc)

            def _canonical(doc):
                return (doc, time.monotonic_ns())
        """)
        assert ids(report) == ["DET003"]

    def test_env_read_in_key_function(self):
        report = run("""
            import os

            def cache_key(doc):
                return (doc, os.getenv("HOST"))
        """)
        # The env read is both a key-input violation (DET003) and a
        # result-zone env read (DET004 is subsumed by the DET003 arm).
        assert "DET003" in ids(report)

    def test_pure_key_function_is_clean(self):
        report = run("""
            import hashlib

            def content_key(doc):
                return hashlib.sha256(doc).hexdigest()
        """)
        assert ids(report) == []


class TestDet004:
    def test_getenv_in_result_zone(self):
        report = run("""
            import os

            def knob():
                return os.getenv("REPRO_X", "1")
        """)
        assert ids(report) == ["DET004"]

    def test_environ_subscript_read(self):
        report = run("""
            import os

            def knob():
                return os.environ["REPRO_X"]
        """)
        assert ids(report) == ["DET004"]

    def test_envutil_itself_is_exempt(self):
        report = run("""
            import os

            def env_str(name, default):
                return os.getenv(name, default)
        """, module="repro.runtime.envutil")
        assert ids(report) == []


# ---------------------------------------------------------------------------
# ASYNC: loop hygiene (zone-gated to the service)
# ---------------------------------------------------------------------------

class TestAsyncRules:
    def test_blocking_sleep_in_async(self):
        report = run("""
            import time

            async def handler():
                time.sleep(0.1)
        """, module="repro.service.fixture")
        assert ids(report) == ["ASYNC001"]

    def test_untimed_future_result(self):
        report = run("""
            async def handler(fut):
                return fut.result()
        """, module="repro.service.fixture")
        assert ids(report) == ["ASYNC002"]

    def test_future_result_with_timeout_is_clean(self):
        report = run("""
            async def handler(fut):
                return fut.result(5.0)
        """, module="repro.service.fixture")
        assert ids(report) == []

    def test_await_holding_thread_lock(self):
        report = run("""
            import threading

            _LOCK = threading.Lock()

            async def handler(queue):
                with _LOCK:
                    await queue.get()
        """, module="repro.service.fixture")
        assert ids(report) == ["ASYNC003"]

    def test_sync_io_in_async(self):
        report = run("""
            async def handler(path):
                with open(path) as fh:
                    return fh.read()
        """, module="repro.service.fixture")
        assert ids(report) == ["ASYNC004"]

    def test_sync_helper_nested_in_coroutine_is_exempt(self):
        # A sync def inside a coroutine is an executor thunk: its
        # blocking calls run off-loop by construction.
        report = run("""
            import time

            async def handler(loop, pool):
                def thunk():
                    time.sleep(0.1)
                await loop.run_in_executor(pool, thunk)
        """, module="repro.service.fixture")
        assert ids(report) == []

    def test_rules_do_not_fire_outside_async_zone(self):
        report = run("""
            import time

            async def handler():
                time.sleep(0.1)
        """, module="repro.analysis.fixture")
        assert ids(report) == []


# ---------------------------------------------------------------------------
# RACE: shared mutable state
# ---------------------------------------------------------------------------

class TestRace001:
    SHARED_CACHE = """
        class Cache:
            def __init__(self):
                self.entries = {}

            def put(self, key, value):
                self.entries[key] = value

        _CACHE = Cache()
    """

    def test_unlocked_shared_instance(self):
        report = run(self.SHARED_CACHE)
        assert ids(report) == ["RACE001"]
        assert "_CACHE" in report.diagnostics[0].message

    def test_locked_mutation_is_clean(self):
        report = run("""
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.entries = {}

                def put(self, key, value):
                    with self._lock:
                        self.entries[key] = value

            _CACHE = Cache()
        """)
        assert ids(report) == []

    def test_instance_without_global_binding_is_clean(self):
        report = run("""
            class Cache:
                def __init__(self):
                    self.entries = {}

                def put(self, key, value):
                    self.entries[key] = value
        """)
        assert ids(report) == []

    def test_threading_local_subclass_is_exempt(self):
        report = run("""
            import threading

            class _Stack(threading.local):
                def __init__(self):
                    self.items = []

                def push(self, value):
                    self.items.append(value)

            _STACK = _Stack()
        """)
        assert ids(report) == []

    def test_zone_gated(self):
        report = run(self.SHARED_CACHE, module="repro.visualization.fixture")
        assert ids(report) == []


# ---------------------------------------------------------------------------
# DTYPE: backend-seam discipline
# ---------------------------------------------------------------------------

class TestDtype001:
    def test_alloc_with_dtype_kwarg(self):
        report = run("""
            import numpy as np

            def state(n):
                return np.zeros(1 << n, dtype=np.complex128)
        """)
        assert ids(report) == ["DTYPE001"]

    def test_alloc_with_string_dtype(self):
        report = run("""
            import numpy as np

            def state(n):
                return np.empty(1 << n, dtype="complex64")
        """)
        assert ids(report) == ["DTYPE001"]

    def test_alloc_with_builtin_complex(self):
        report = run("""
            import numpy as np

            def state(n):
                return np.ones(1 << n, dtype=complex)
        """)
        assert ids(report) == ["DTYPE001"]

    def test_positional_dtype(self):
        report = run("""
            import numpy as np

            def convert(data):
                return np.array(data, np.complex64)
        """)
        assert ids(report) == ["DTYPE001"]

    def test_from_import_alias(self):
        report = run("""
            from numpy import asarray, complex128

            def convert(data):
                return asarray(data, dtype=complex128)
        """)
        assert ids(report) == ["DTYPE001"]

    def test_threaded_dtype_is_clean(self):
        # The sanctioned pattern: dtype comes from the caller/backend.
        report = run("""
            import numpy as np

            def state(n, dtype=None):
                return np.zeros(1 << n, dtype=dtype)
        """)
        assert ids(report) == []

    def test_real_dtype_is_clean(self):
        report = run("""
            import numpy as np

            def probs(n):
                return np.zeros(1 << n, dtype=np.float64)
        """)
        assert ids(report) == []

    def test_no_double_count_with_dtype002(self):
        # A DTYPE001 site must not also report DTYPE002 for the same
        # literal.
        report = run("""
            import numpy as np

            def state(n):
                return np.zeros(1 << n, dtype=np.complex128)
        """)
        assert ids(report).count("DTYPE002") == 0


class TestDtype002:
    def test_bare_literal(self):
        report = run("""
            import numpy as np

            def is_wide(state):
                return state.dtype == np.complex128
        """)
        assert ids(report) == ["DTYPE002"]

    def test_shadowed_complex_name_is_clean(self):
        # ``complex`` imported from elsewhere is not the builtin dtype.
        report = run("""
            import numpy as np
            from mymath import complex

            def convert(data):
                return np.asarray(data, dtype=complex)
        """)
        assert ids(report) == []

    def test_backend_module_exempt(self):
        report = run("""
            import numpy as np

            canonical = np.complex128

            def build():
                return np.zeros(4, dtype=np.complex64)
        """, module="repro.sim.backend")
        assert ids(report) == []

    def test_zone_gated(self):
        report = run("""
            import numpy as np

            def state(n):
                return np.zeros(1 << n, dtype=np.complex128)
        """, module="repro.experiments.fixture")
        assert ids(report) == []

    def test_suppressible(self):
        report = run("""
            import numpy as np

            def exact():
                return np.complex128  # repro: allow[DTYPE002] reason=t
        """)
        assert ids(report) == []


class TestRace002:
    def test_unlocked_global_item_write(self):
        report = run("""
            _REGISTRY = {}

            def register(key, value):
                _REGISTRY[key] = value
        """)
        assert ids(report) == ["RACE002"]

    def test_unlocked_mutator_call(self):
        report = run("""
            _EVENTS = []

            def emit(event):
                _EVENTS.append(event)
        """)
        assert ids(report) == ["RACE002"]

    def test_locked_mutation_is_clean(self):
        report = run("""
            import threading

            _REGISTRY = {}
            _LOCK = threading.Lock()

            def register(key, value):
                with _LOCK:
                    _REGISTRY[key] = value
        """)
        assert ids(report) == []


class TestRace003:
    def test_submission_reaching_shared_mutation(self):
        report = run("""
            _REGISTRY = {}

            def work(key):
                _REGISTRY[key] = 1

            def launch(pool):
                return pool.submit(work, "a")
        """)
        rules = ids(report)
        assert rules == ["RACE002", "RACE003"]
        race3 = report.diagnostics[1]
        assert "pool.submit" in race3.message
        assert "call path" in race3.message

    def test_transitive_reach_through_helper(self):
        report = run("""
            _REGISTRY = {}

            def _store(key):
                _REGISTRY[key] = 1

            def work(key):
                _store(key)

            def launch(pool):
                return pool.submit(work, "a")
        """)
        assert "RACE003" in ids(report)

    def test_definition_site_allow_covers_submission(self):
        # One reviewed allow at the mutation covers the concurrency
        # claim; RACE003 must not demand a second annotation per site.
        report = run("""
            _REGISTRY = {}

            def work(key):
                # repro: allow[RACE002] reason=GIL-atomic insert
                _REGISTRY[key] = 1

            def launch(pool):
                return pool.submit(work, "a")
        """)
        assert ids(report) == []

    def test_locked_target_not_reported(self):
        report = run("""
            import threading

            _REGISTRY = {}
            _LOCK = threading.Lock()

            def work(key):
                with _LOCK:
                    _REGISTRY[key] = 1

            def launch(pool):
                return pool.submit(work, "a")
        """)
        assert ids(report) == []


# ---------------------------------------------------------------------------
# SUP: the suppression mechanism itself
# ---------------------------------------------------------------------------

class TestSuppressions:
    def test_inline_allow_suppresses(self):
        report = run("""
            import numpy as np

            def sample():
                return np.random.default_rng()  # repro: allow[DET001] reason=fixture
        """)
        assert ids(report) == []

    def test_standalone_comment_targets_next_line(self):
        report = run("""
            _REGISTRY = {}

            def register(key, value):
                # repro: allow[RACE002] reason=GIL-atomic insert
                _REGISTRY[key] = value
        """)
        assert ids(report) == []

    def test_unused_allow_reports_sup001(self):
        report = run("""
            import numpy as np

            def sample(seed):
                return np.random.default_rng(seed)  # repro: allow[DET001] reason=stale
        """)
        assert ids(report) == ["SUP001"]

    def test_missing_reason_reports_sup003(self):
        report = run("""
            import numpy as np

            def sample():
                return np.random.default_rng()  # repro: allow[DET001]
        """)
        assert ids(report) == ["SUP003"]

    def test_multi_rule_annotation(self):
        sups = parse_suppressions(
            "x = 1  # repro: allow[DET001, RACE002] reason=both\n"
        )
        (sup,) = sups[1]
        assert sup.rules == ("DET001", "RACE002")
        assert sup.reason == "both"

    def test_docstring_examples_are_not_annotations(self):
        report = run('''
            def documented():
                """Suppress with ``# repro: allow[DET001] reason=x``."""
                return 1
        ''')
        assert ids(report) == []

    def test_budget_enforced(self):
        # RACE002 has no committed budget, so a *used* allow trips
        # SUP002 when budget enforcement is on.
        assert budget_for("RACE002") == 0
        report = run("""
            _REGISTRY = {}

            def register(key, value):
                _REGISTRY[key] = value  # repro: allow[RACE002] reason=test
        """, enforce_budget=True)
        assert ids(report) == ["SUP002"]
        assert not report.ok()

    def test_budget_keys_are_known_rules(self):
        from repro.audit.engine import RULES

        for rule_id in SUPPRESSION_BUDGET:
            assert rule_id in RULES
