"""Tests for the process-parallel sweep path and result determinism."""

import pytest

from repro.experiments import SweepConfig, default_workers, run_sweep
from repro.sim import simulate_distribution


def _cfg(**over):
    base = dict(
        operation="add", n=3, m=3, orders=(1, 1), error_axis="2q",
        error_rates=(0.0, 0.05), depths=(2, None), instances=3,
        shots=128, trajectories=4, seed=99,
    )
    base.update(over)
    return SweepConfig(**base)


class TestParallelSweep:
    def test_default_workers_at_least_one(self):
        assert default_workers() >= 1

    def test_pool_path_matches_serial(self):
        """workers=2 exercises ProcessPoolExecutor even on one core;
        the per-cell seeding makes results identical to the serial path."""
        cfg = _cfg()
        serial = run_sweep(cfg, workers=1)
        parallel = run_sweep(cfg, workers=2)
        for key, pr in serial.points.items():
            pp = parallel.points[key]
            assert pp.summary.success_rate == pr.summary.success_rate
            assert pp.outcomes == pr.outcomes

    def test_cell_results_independent_of_grid_shape(self):
        """A cell's result depends only on (seed, rate, depth), not on
        which other cells are in the sweep."""
        big = run_sweep(_cfg(), workers=1)
        small = run_sweep(
            _cfg(error_rates=(0.05,), depths=(None,)), workers=1
        )
        assert (
            big.point(0.05, None).outcomes
            == small.point(0.05, None).outcomes
        )

    def test_progress_callback_called(self):
        seen = []
        run_sweep(_cfg(error_rates=(0.0,), depths=(None,)), workers=1,
                  progress=seen.append)
        assert len(seen) == 1
        assert "rate=" in seen[0]

    def test_elapsed_recorded(self):
        res = run_sweep(_cfg(error_rates=(0.0,), depths=(None,)), workers=1)
        assert res.elapsed_seconds > 0


class TestSweepEdges:
    def test_workers_zero_clamps_to_serial(self):
        """workers=0 must clamp to 1, not blow up pool construction."""
        res = run_sweep(_cfg(error_rates=(0.05,), depths=(2, None)), workers=0)
        assert res.complete
        assert len(res.points) == 2

    def test_negative_workers_clamp(self):
        res = run_sweep(_cfg(error_rates=(0.05,), depths=(None,)), workers=-3)
        assert res.complete

    def test_single_cell_sweep_skips_pool(self, monkeypatch):
        """One cell must run in-process even when many workers are asked."""
        import repro.runtime.supervisor as sup_mod

        def forbidden(*a, **k):
            raise AssertionError("process pool built for 1 cell")

        monkeypatch.setattr(sup_mod, "process_pool", forbidden)
        res = run_sweep(
            _cfg(error_rates=(0.05,), depths=(None,)), workers=8
        )
        assert res.complete
        assert len(res.points) == 1

    def test_progress_callback_ordering_serial(self):
        """Serial sweeps report cells in grid order with 1-based indices."""
        cfg = _cfg(error_rates=(0.0, 0.05), depths=(2, None))
        msgs = []
        run_sweep(cfg, workers=1, progress=msgs.append)
        cell_msgs = [m for m in msgs if m.startswith("[")]
        assert len(cell_msgs) == 4
        expected = [
            (rate, depth)
            for rate in cfg.error_rates
            for depth in cfg.depths
        ]
        for i, (m, (rate, depth)) in enumerate(zip(cell_msgs, expected)):
            assert m.startswith(f"[{i + 1}/4] rate={rate:.4f}")
            assert f"depth={cfg.depth_label(depth)}" in m

    def test_progress_counts_complete_in_pool_path(self):
        """Pooled completion order is arbitrary, but every index appears."""
        msgs = []
        run_sweep(_cfg(), workers=2, progress=msgs.append)
        prefixes = sorted(m.split("]")[0] for m in msgs)
        assert prefixes == sorted(f"[{i}/4" for i in range(1, 5))

    def test_trajectory_method_rejected_by_simulate_distribution(self):
        from repro.experiments.runner import build_arithmetic_circuit

        circuit = build_arithmetic_circuit("add", 2, 2, None)
        with pytest.raises(ValueError, match="unknown method"):
            simulate_distribution(circuit, method="trajectory")

    def test_simulate_counts_validates_shots_and_trajectories(self):
        from repro.experiments.runner import build_arithmetic_circuit
        from repro.sim import simulate_counts

        circuit = build_arithmetic_circuit("add", 2, 2, None)
        with pytest.raises(ValueError, match="shots must be >= 1"):
            simulate_counts(circuit, shots=0)
        with pytest.raises(ValueError, match="trajectories must be >= 1"):
            simulate_counts(circuit, shots=8, trajectories=0)

    def test_noise_model_for_rejects_negative_rate(self):
        from repro.experiments.runner import noise_model_for

        with pytest.raises(ValueError, match=">= 0"):
            noise_model_for("2q", -0.01)

    def test_noise_model_for_zero_rate_is_ideal(self):
        from repro.experiments.runner import noise_model_for

        assert noise_model_for("1q", 0.0).is_ideal
        assert noise_model_for("2q", 0.0).is_ideal
