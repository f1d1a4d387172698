"""Tests for the batched trajectory scheduler (repro.sim.batch).

The load-bearing claims, each pinned here:

* **Bitwise invariance** — the other tasks of a call, dedup and chunk
  geometry change how much simulation work runs, never its results:
  for identical task RNG streams, a call of one task, a call of many,
  any chunk height and the ``dedup=False`` reference all yield
  identical ``Counts``.
* **Sweep integration** — sweeps never use the scheduler: every cell is
  exactly :func:`~repro.experiments.runner.run_point`, and documents
  written with the retired sweep-scheduler keys still load.
* **Efficiency metadata** — dedup ratios and occupancy feed the
  process-wide ``scheduler_stats()`` and the service gauges.
"""

import numpy as np
import pytest

import repro.sim.batch as batch_mod
from repro.experiments.config import SweepConfig
from repro.experiments.results import sweep_from_dict, sweep_to_dict
from repro.experiments.runner import build_compiled_program, run_point
from repro.experiments.serialize import point_from_dict, point_to_dict
from repro.experiments.sweep import run_sweep
from repro.sim.batch import (
    FusedTrajectoryScheduler,
    TrajectoryTask,
    reset_scheduler_stats,
    run_request_tasks,
    scheduler_stats,
)
from repro.sim.engines import simulate_counts
from repro.sim.trajectories import TrajectoryEngine


def _program(rate=0.002, depth=None, n=4, m=3):
    return build_compiled_program("add", n, m, depth, "1q", rate, "qiskit")


def _tasks(program, count=3, shots=512, trajectories=16, seed=99):
    return [
        TrajectoryTask(
            key=i,
            program=program,
            shots=shots,
            trajectories=trajectories,
            rng=np.random.default_rng((seed, i)),
        )
        for i in range(count)
    ]


def _counts_maps(results):
    return {k: dict(r.counts.items()) for k, r in results.items()}


class TestBitwiseInvariance:
    @pytest.mark.parametrize(
        "fuse,dedup,max_rows",
        [
            (False, False, None),
            (False, True, None),
            (True, False, None),
            (True, True, None),
            (True, True, 2),
            (True, True, 1),
        ],
    )
    def test_knobs_do_not_change_counts(
        self, monkeypatch, fuse, dedup, max_rows
    ):
        program = _program()
        # Reference: each task alone, every trajectory row simulated.
        reference = FusedTrajectoryScheduler(dedup=False)
        baseline = {}
        for t in _tasks(program):
            baseline.update(reference.run([t]))
        if max_rows is not None:
            # Chunks of ``max_rows`` rows: the byte bound of that many
            # rows' state, scratch and probabilities.
            per_row = (1 << program.num_qubits) * np.dtype(
                FusedTrajectoryScheduler().dtype
            ).itemsize * 3
            monkeypatch.setattr(batch_mod, "BATCH_BYTES", max_rows * per_row)
        if fuse:
            # Every task in one scheduler call.
            got = FusedTrajectoryScheduler(dedup=dedup).run(_tasks(program))
        else:
            # One scheduler call per task.
            got = {}
            for t in _tasks(program):
                got.update(
                    run_request_tasks([t]) if dedup else reference.run([t])
                )
        assert _counts_maps(got) == _counts_maps(baseline)

    def test_fusion_across_rates_is_invisible(self):
        """Tasks of different error rates in one scheduler call produce
        exactly what each produces alone."""
        progs = [_program(rate=r) for r in (0.001, 0.004, 0.008)]
        solo = {}
        for j, p in enumerate(progs):
            t = TrajectoryTask(
                key=j, program=p, shots=400, trajectories=12,
                rng=np.random.default_rng((5, j)),
            )
            solo[j] = run_request_tasks([t])[j]
        mixed = run_request_tasks(
            [
                TrajectoryTask(
                    key=j, program=p, shots=400, trajectories=12,
                    rng=np.random.default_rng((5, j)),
                )
                for j, p in enumerate(progs)
            ]
        )
        for j in range(len(progs)):
            assert dict(mixed[j].counts.items()) == dict(
                solo[j].counts.items()
            )

    def test_dedup_counts_match_statistics(self):
        """Dedup'd sampling stays faithful to the trajectory ensemble."""
        program = _program(rate=0.003)
        shots = 20000
        eng_counts = TrajectoryEngine(
            trajectories=64, rng=np.random.default_rng(21)
        ).run(program, shots=shots)
        task = TrajectoryTask(
            key=0, program=program, shots=shots, trajectories=64,
            rng=np.random.default_rng(22),
        )
        sch_counts = FusedTrajectoryScheduler().run([task])[0].counts
        pa = {k: v / shots for k, v in eng_counts.items()}
        pb = {k: v / shots for k, v in sch_counts.items()}
        tv = 0.5 * sum(
            abs(pa.get(k, 0) - pb.get(k, 0)) for k in set(pa) | set(pb)
        )
        assert tv < 0.05

    def test_non_pauli_program_rejected(self):
        from repro.circuits.circuit import QuantumCircuit
        from repro.noise.channels import thermal_relaxation_error
        from repro.noise.model import NoiseModel
        from repro.sim.program import compile_circuit

        circ = QuantumCircuit(2)
        circ.h(0)
        circ.cx(0, 1)
        noise = NoiseModel()
        noise.add_all_qubit_quantum_error(
            thermal_relaxation_error(50e3, 70e3, 35.0), ["h"]
        )
        program = compile_circuit(circ, noise)
        assert not program.pauli_only
        with pytest.raises(ValueError, match="Pauli-only"):
            TrajectoryTask(
                key=0, program=program, shots=10, trajectories=4,
                rng=np.random.default_rng(0),
            )

    def test_invalid_params(self):
        program = _program()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="shots"):
            TrajectoryTask(0, program, shots=0, trajectories=4, rng=rng)
        with pytest.raises(ValueError, match="trajectories"):
            TrajectoryTask(0, program, shots=8, trajectories=0, rng=rng)


class TestEngineAndSimulateCounts:
    def test_dedup_default_off_preserves_legacy_stream(self):
        program = _program()
        legacy = TrajectoryEngine(
            trajectories=16, rng=np.random.default_rng(3)
        ).run(program, shots=256)
        default = simulate_counts(
            program, shots=256, method="trajectory", trajectories=16,
            rng=np.random.default_rng(3),
        )
        assert dict(legacy.items()) == dict(default.items())


class TestSweepIntegration:
    CFG = dict(
        operation="add", n=4, m=3, orders=(4, 4), error_axis="1q",
        error_rates=(0.0, 0.001, 0.003), depths=(3, None),
        instances=3, shots=128, trajectories=8, seed=42,
    )

    def test_off_is_legacy_run_point(self):
        cfg = SweepConfig(**self.CFG)
        from repro.experiments.instances import generate_instances

        insts = generate_instances("add", 4, 3, (4, 4), 3, seed=42)
        swept = run_sweep(cfg, workers=1, instances=insts)
        for (rate, depth), pr in swept.points.items():
            direct = run_point(cfg, insts, rate, depth)
            assert pr == direct

    def test_retired_scheduler_keys_still_load(self):
        """Results JSON and checkpoint point records written with the
        retired sweep-scheduler knobs load."""
        retired_config = dict(
            batching="group", dedup=True, adaptive=True,
            adaptive_rounds=4, adaptive_delta=0.01, batch_rows=64,
        )
        retired_point = dict(
            dedup_ratio=1.5, batch_occupancy=12.0, trajectories_spent=96,
        )
        cfg = SweepConfig(**self.CFG).with_overrides(
            error_rates=(0.0, 0.003), depths=(None,), instances=2
        )
        res = run_sweep(cfg, workers=1)

        doc = sweep_to_dict(res)
        doc["config"].update(retired_config)
        for p in doc["points"]:
            p.update(retired_point)
        back = sweep_from_dict(doc)
        assert back.config == cfg
        assert back.points == res.points

        point = res.point(0.003, None)
        record = dict(point_to_dict(point), **retired_point)
        assert point_from_dict(record) == point

    def test_config_validation(self):
        for knob in ("batching", "dedup", "adaptive", "adaptive_rounds",
                     "adaptive_delta", "batch_rows"):
            with pytest.raises(TypeError, match=knob):
                SweepConfig(**self.CFG, **{knob: 0})
        with pytest.raises(ValueError, match="max_fragment_qubits"):
            SweepConfig(**self.CFG).with_overrides(max_fragment_qubits=-1)


class TestSchedulerStats:
    def test_counters_accumulate(self):
        reset_scheduler_stats()
        program = _program()
        FusedTrajectoryScheduler().run(_tasks(program, count=2))
        stats = scheduler_stats()
        assert stats["tasks"] == 2
        assert stats["trajectories_sampled"] > 0
        assert stats["rows_simulated"] > 0
        assert stats["dedup_ratio"] >= 1.0
        assert stats["batch_occupancy"] > 0
        reset_scheduler_stats()
        assert scheduler_stats()["tasks"] == 0

    def test_service_gauges_exposed(self):
        from repro.service.metrics import ServiceMetrics
        from repro.service.server import ArithmeticService

        service = ArithmeticService(metrics=ServiceMetrics())
        text = service.metrics.render_prometheus()
        assert "trajectory_dedup_ratio" in text
        assert "trajectory_batch_occupancy" in text
        assert "trajectories_spent_total" in text
        service.executor.shutdown(wait=False)
