"""One OpenBLAS thread in repro's pool workers; results unchanged by it."""

import pytest

from repro.experiments import SweepConfig, run_sweep
from repro.runtime import Supervisor
from repro.runtime import blas


def _worker_blas_threads(payload, attempt):
    info = blas.blas_info()
    return None if info is None else info["threads"]


def test_supervisor_worker_runs_one_blas_thread():
    found = blas._functions()
    if found is None:
        pytest.skip("no OpenBLAS loaded")
    _, set_threads, get_threads = found
    before = get_threads()
    # Workers fork from this process; raise its count first so a
    # worker that merely inherited it would report more than one.
    set_threads(2)
    try:
        results, failures = Supervisor(_worker_blas_threads, workers=2).run(
            [(0, None), (1, None)]
        )
    finally:
        set_threads(before)
    assert not failures
    assert results == {0: 1, 1: 1}


def test_cap_is_a_no_op_without_openblas(monkeypatch):
    monkeypatch.setattr(blas, "blas_library", lambda: None)
    assert blas.cap_blas_threads() is None
    assert blas.blas_info() is None


def test_pool_sweep_matches_serial_with_dense_ops():
    # 8 qubits: lowering emits DenseOp on qubits 6 and 7.
    cfg = SweepConfig(
        operation="add", n=4, m=4, orders=(1, 1), error_axis="1q",
        error_rates=(0.0, 0.003), depths=(None,), instances=1,
        shots=256, trajectories=8,
    )
    serial = run_sweep(cfg, workers=1)
    pooled = run_sweep(cfg, workers=2)
    assert serial.complete and pooled.complete
    assert pooled.points == serial.points
