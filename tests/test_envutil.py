"""Regression tests for strict environment-variable parsing.

``REPRO_KERNEL_CACHE_MB`` / ``REPRO_RESULT_CACHE_MB`` used to flow
through ``float(os.environ.get(...))`` unchecked: a typo'd value either
crashed with a bare ``ValueError: could not convert string to float``
deep inside cache construction or, for negative numbers, produced a
cache with a negative byte budget that silently evicted everything.
:mod:`repro.runtime.envutil` now rejects non-numeric, non-finite and
below-minimum values with errors that name the offending variable.
"""

import numpy as np
import pytest

from repro.runtime.envutil import env_flag, env_float, env_mb_bytes


class TestEnvFloat:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_VAR", raising=False)
        assert env_float("REPRO_TEST_VAR", 3.5) == 3.5

    def test_empty_returns_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_VAR", "   ")
        assert env_float("REPRO_TEST_VAR", 3.5) == 3.5

    def test_parses_number(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_VAR", "12.25")
        assert env_float("REPRO_TEST_VAR", 0.0) == 12.25

    def test_non_numeric_names_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_VAR", "lots")
        with pytest.raises(ValueError, match="REPRO_TEST_VAR.*'lots'"):
            env_float("REPRO_TEST_VAR", 1.0)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_TEST_VAR", bad)
        with pytest.raises(ValueError, match="REPRO_TEST_VAR.*finite"):
            env_float("REPRO_TEST_VAR", 1.0)

    def test_below_minimum_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_VAR", "-5")
        with pytest.raises(ValueError, match="REPRO_TEST_VAR.*>= 0"):
            env_float("REPRO_TEST_VAR", 1.0, minimum=0.0)


class TestEnvMbBytes:
    def test_converts_mb_to_bytes(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_MB", "2")
        assert env_mb_bytes("REPRO_TEST_MB", 64) == 2 * 1024 * 1024

    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_MB", raising=False)
        assert env_mb_bytes("REPRO_TEST_MB", 64) == 64 * 1024 * 1024

    def test_negative_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_MB", "-1")
        with pytest.raises(ValueError, match="REPRO_TEST_MB"):
            env_mb_bytes("REPRO_TEST_MB", 64)


class TestEnvFlag:
    @pytest.mark.parametrize("raw", ["1", "true", "True", "yes", "on"])
    def test_truthy(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TEST_FLAG", raw)
        assert env_flag("REPRO_TEST_FLAG") is True

    @pytest.mark.parametrize("raw", ["0", "false", "no", "off", "OFF"])
    def test_falsy(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TEST_FLAG", raw)
        assert env_flag("REPRO_TEST_FLAG", default=True) is False

    def test_unset_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_FLAG", raising=False)
        assert env_flag("REPRO_TEST_FLAG") is False
        assert env_flag("REPRO_TEST_FLAG", default=True) is True

    def test_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_FLAG", "maybe")
        with pytest.raises(ValueError, match="REPRO_TEST_FLAG.*'maybe'"):
            env_flag("REPRO_TEST_FLAG")


class TestConsumersHonourEnv:
    def test_kernel_cache_budget(self, monkeypatch):
        from repro.sim.program import KernelCache

        monkeypatch.setenv("REPRO_KERNEL_CACHE_MB", "3")
        assert KernelCache().budget_bytes == 3 * 1024 * 1024

    def test_kernel_cache_rejects_garbage(self, monkeypatch):
        from repro.sim.program import KernelCache

        monkeypatch.setenv("REPRO_KERNEL_CACHE_MB", "plenty")
        with pytest.raises(ValueError, match="REPRO_KERNEL_CACHE_MB"):
            KernelCache()

    def test_kernel_cache_rejects_negative(self, monkeypatch):
        from repro.sim.program import KernelCache

        monkeypatch.setenv("REPRO_KERNEL_CACHE_MB", "-16")
        with pytest.raises(ValueError, match="REPRO_KERNEL_CACHE_MB"):
            KernelCache()

    def test_result_cache_budget(self, monkeypatch):
        from repro.service.cache import ResultCache

        monkeypatch.setenv("REPRO_RESULT_CACHE_MB", "1")
        assert ResultCache().budget_bytes == 1024 * 1024

    def test_result_cache_rejects_garbage(self, monkeypatch):
        from repro.service.cache import ResultCache

        monkeypatch.setenv("REPRO_RESULT_CACHE_MB", "big")
        with pytest.raises(ValueError, match="REPRO_RESULT_CACHE_MB"):
            ResultCache()

    def test_cut_budget_rejects_garbage(self, monkeypatch):
        from repro.cut.reconstruct import output_budget_bytes

        monkeypatch.setenv("REPRO_CUT_MB", "not-a-size")
        with pytest.raises(ValueError, match="REPRO_CUT_MB"):
            output_budget_bytes()
