"""The benchmark harness: smoke runs of every workload, checks, traces.

Run with ``python -m pytest bench/tests`` from the repository root
(about a minute: every workload runs untraced and traced at
``--smoke`` size).
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import checks, compare
from bench.speed import NOMINAL_S, HostSpeed, scale
from bench.trace import self_times

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One untraced and one traced smoke run of all four workloads."""
    out = tmp_path_factory.mktemp("bench")
    runs = {}
    for trace in ("0", "1"):
        proc = run_bench("--smoke", "--trace", trace, "--out", str(out))
        assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
        runs[trace] = proc
    return out, runs


def test_spec_names_and_units():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + WORKLOADS
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in metrics:
        assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", m["unit"]), m
        assert m["better"] in ("higher", "lower")
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace,group", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_printed_with_unit(smoke, trace, group):
    _, runs = smoke
    stdout = runs[trace].stdout
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for workload in WORKLOADS:
        for m in SPEC[group]:
            key = f"{workload}.{m['name']}"
            assert result["metrics"][key]["unit"] == m["unit"], key
            assert isinstance(result["metrics"][key]["value"], float), key
            assert re.search(
                rf"^\s+{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}", stdout, re.M
            ), m["name"]


def test_trace_files_and_self_times(smoke):
    out, _ = smoke
    files = sorted((out / "trace").glob("*.jsonl"))
    assert {f.name.rsplit("-", 1)[0] for f in files} == set(WORKLOADS)
    for path in files:
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        assert spans, path
        selfs = self_times(spans)
        wall = (max(s["end_ns"] for s in spans) - min(s["start_ns"] for s in spans)) / 1e9
        by_thread = {}
        for s in spans:
            if not s.get("async"):
                by_thread.setdefault(s["tid"], []).append(selfs[s["id"]])
        for tid, values in by_thread.items():
            assert all(v >= -1e-9 for v in values), path
            assert sum(values) <= wall + 1e-6, (path, tid)


def _point(rate, min_diffs, shots=256, depth=None):
    from repro.experiments.runner import PointResult
    from repro.metrics.success import InstanceOutcome, summarize

    outcomes = tuple(InstanceOutcome(d > 0, d, shots) for d in min_diffs)
    return PointResult(rate, depth, "full", summarize(outcomes), outcomes)


def test_corrupted_results_fail_the_checks():
    ideal = _point(0.0, [256, 256])
    noisy = _point(0.01, [150, 170])
    points = {(0.0, None): ideal, (0.01, None): noisy}
    assert checks.check_ideal_cells(points, single_outcome=True) == []
    assert checks.check_noise_floor(points, {0.01: 0.9}, {0.01: 256}) == []
    assert checks.diff_points(points, dict(points)) == []

    # One shot off the correct outcome in an ideal cell.
    bad = dict(points)
    bad[(0.0, None)] = _point(0.0, [256, 255])
    assert checks.check_ideal_cells(bad, single_outcome=True)
    assert checks.diff_points(points, bad)
    # A noisy cell far below what P0 guarantees.
    bad = dict(points)
    bad[(0.01, None)] = dataclasses.replace(noisy, outcomes=_point(0.01, [150, -40]).outcomes)
    assert checks.check_noise_floor(bad, {0.01: 0.9}, {0.01: 256})
    # Service responses: lost shots, an ideal probe off the correct sum,
    # and a noisy response that lost its error-free shots.
    assert checks.check_counts({3: 100, 5: 27}, 128)
    want = checks.correct_sum(3, 3, 5, 6)
    assert checks.check_counts({want: 128}, 128, [want]) == []
    assert checks.check_counts({want: 127, want + 1: 1}, 128, [want])
    assert checks.check_clean_share({want: 1700, 1: 348}, 2048, want, 0.8) == []
    assert checks.check_clean_share({want: 1300, 1: 748}, 2048, want, 0.8)


@pytest.mark.parametrize("split_clean", [True, False])
def test_noise_floor_holds_at_high_p0_and_few_trajectories(split_clean):
    """The trajectory engine as the sweeps run it (clean shots drawn
    independently) and with the clean split off (shots split evenly over
    two trajectories, so the clean share moves in steps of one half)."""
    from repro.analysis.budget import predicted_no_error_probability
    from repro.experiments.instances import generate_instances
    from repro.experiments.runner import build_arithmetic_circuit, noise_model_for
    from repro.metrics.success import evaluate_instance
    from repro.sim.engines import simulate_counts

    shots, trajectories, rate = 2048, 2, 0.001
    circuit = build_arithmetic_circuit("add", 2, 2, None)
    p0 = predicted_no_error_probability(circuit, rate, 0.0)
    assert p0 > 0.9
    realisations = shots if split_clean else trajectories
    floor = checks.noise_floor(p0, shots, realisations)
    inst = generate_instances("add", 2, 2, (1, 1), 1, seed=3)[0]
    for seed in range(20):
        counts = simulate_counts(
            circuit, noise_model_for("1q", rate), shots=shots, method="trajectory",
            trajectories=trajectories, seed=seed,
            initial_state=inst.initial_statevector(), split_clean=split_clean,
        )
        out = evaluate_instance(counts, frozenset(inst.correct_outcomes()))
        assert out.min_diff >= floor, (seed, out.min_diff, floor)


def test_service_schedule_is_seeded_with_an_exact_mix():
    from bench import service_mix
    from bench.workloads import WORKLOADS

    wl = WORKLOADS["service-mix"]
    arrivals, sweeps = wl.schedule(seed=7, seconds=20.0)
    again, _ = wl.schedule(seed=7, seconds=20.0)
    other, _ = wl.schedule(seed=8, seconds=20.0)
    assert arrivals == again and arrivals != other
    assert len(arrivals) == round(service_mix.RATE_PER_S * 20.0)
    kinds = [a.kind for a in arrivals]
    assert kinds.count("big") == round(len(kinds) * service_mix.MIX[0])
    assert kinds.count("small") == round(len(kinds) * service_mix.MIX[1])
    assert kinds != [a.kind for a in other]
    assert arrivals[0].repeat_of is None
    for a in arrivals:
        if a.kind == "repeat":
            assert arrivals[a.repeat_of].request == a.request
    assert [a.due for a in arrivals] == sorted(a.due for a in arrivals)
    assert all(s["error_rate"] == 0.0 and s["tenant"] == "batch" for s in sweeps)


def test_host_speed_probes_every_cpu_and_stops():
    with HostSpeed() as speed:
        procs = list(speed._procs)
        assert len(procs) == len(os.sched_getaffinity(0))
        t = speed.sample()
        assert 0.0 < t < 60.0 and speed.samples == [t]
    assert all(p.returncode is not None for p in procs)
    # A host at half speed: an interval counts half, or by the square
    # root of that for work half as sensitive to the host's speed.
    assert scale(2 * NOMINAL_S, 2 * NOMINAL_S) == pytest.approx(0.5)
    assert scale(NOMINAL_S, 3 * NOMINAL_S, 0.5) == pytest.approx(0.5 ** 0.5)


def test_service_segments_are_scaled_by_their_own_speed():
    from bench.service_mix import STREAM_SENSITIVITY, Load, _load_metrics

    def segment(start, scale_factor):
        slowdown = 1.0 / scale_factor
        stream_s = slowdown ** STREAM_SENSITIVITY
        return Load(
            end_s=start + 5.0, scale=scale_factor,
            interactive=[{"due": start, "sent": start, "done": start + 0.1 * slowdown,
                          "ok": True, "kind": "big", "server_total_ms": 50.0}],
            sweeps=[{"start": start, "end": start + stream_s, "cells": 8, "attempted": 8}],
        )

    # The second segment ran on a host at half the probe's speed.
    m = _load_metrics([segment(0.0, 1.0), segment(5.0, 0.5)])
    assert m["latency_ms"] == pytest.approx([100.0, 100.0])
    assert m["cells_per_s"] == pytest.approx([8.0, 8.0])
    assert m["wall_latency_ms"] == pytest.approx([100.0, 200.0])


def test_self_time_subtracts_children_across_processes():
    spans = [
        {"id": "1-0", "parent": None, "start_ns": 0, "end_ns": 10_000_000_000},
        # two workers overlap; their union covers 2..7 s of the parent
        {"id": "2-0", "parent": "1-0", "start_ns": 2_000_000_000, "end_ns": 6_000_000_000},
        {"id": "3-0", "parent": "1-0", "start_ns": 4_000_000_000, "end_ns": 7_000_000_000},
        {"id": "2-1", "parent": "2-0", "start_ns": 3_000_000_000, "end_ns": 4_000_000_000},
    ]
    selfs = self_times(spans)
    assert selfs["1-0"] == pytest.approx(5.0)
    assert selfs["2-0"] == pytest.approx(3.0)
    assert selfs["3-0"] == pytest.approx(3.0)
    assert selfs["2-1"] == pytest.approx(1.0)


def test_compare_verdicts():
    base = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    assert compare.verdict(base, [v * 1.2 for v in base], "higher", 0.1) == "better"
    assert compare.verdict(base, [v * 0.8 for v in base], "higher", 0.1) == "worse"
    assert compare.verdict(base, [v * 1.01 for v in base], "lower", 0.1) == "same"
    noisy = [60.0, 140, 80, 120, 100, 70, 130, 90, 110, 100]
    assert compare.verdict(noisy, noisy[::-1], "higher", 0.1) == "unresolved"


def _record(value, failed=0, **over):
    rec = {"workload": "qfm-panel", "seed": 1, "seconds": 30.0, "trace": 0,
           "smoke": False, "params": {"n": 3}, "attempted": 100, "failed": failed,
           "metrics": {m["name"]: {"value": value, "unit": m["unit"]}
                       for m in SPEC["end_to_end"]}}
    rec.update(over)
    return rec


def _write(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def test_compare_fails_on_more_failures(tmp_path, capsys):
    a = _write(tmp_path / "a.jsonl", [_record(1.0 + i / 100) for i in range(10)])
    same = _write(tmp_path / "b.jsonl", [_record(1.0 + i / 100) for i in range(10)])
    assert compare.main(SPEC, a, same) == 0
    failing = _write(tmp_path / "c.jsonl",
                     [_record(1.0 + i / 100, failed=int(i == 3)) for i in range(10)])
    assert compare.main(SPEC, a, failing) == 1
    assert "failed operations: A 0 (0.00%), B 1 (0.10%)  -> worse" in capsys.readouterr().out


def test_compare_pools_only_matching_full_size_runs(tmp_path, capsys):
    a = [_record(1.0) for _ in range(3)]
    b = [_record(1.0) for _ in range(3)]
    # A smoke run, a traced run, and a run of another seed: none may join
    # the seed-1 medians, and the other seed has no partner in A.
    b += [_record(50.0, smoke=True), _record(50.0, trace=1), _record(50.0, seed=2)]
    runs, skipped = compare.load_runs(_write(tmp_path / "b.jsonl", b))
    assert skipped == {"traced": 1, "smoke": 1}
    assert sorted(len(v) for v in runs.values()) == [1, 3]
    assert compare.main(SPEC, _write(tmp_path / "a.jsonl", a), tmp_path / "b.jsonl") == 0
    out = capsys.readouterr().out
    assert "skipped 1 traced and 1 smoke runs" in out
    assert "qfm-panel, seed 1, 30 s: 3 runs in A, 3 in B" in out
    assert "qfm-panel, seed 2, 30 s: runs in B only" in out
    assert "-> worse" not in out


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = run_bench("--workload", "paper-sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
