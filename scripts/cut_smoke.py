#!/usr/bin/env python
"""CI smoke for circuit cutting, with *real* fabric worker processes.

Launches a two-worker fleet as genuine ``repro.fabric.worker``
subprocesses, lets both self-register through the shared registry file,
then evaluates a **16-qubit adder** — wider than any dense engine
admits — as 8-qubit fragments with the fragment jobs dispatched to the
fleet, and asserts:

* three operand pairs each produce the exact arithmetic result
  (all probability mass on ``x + y mod 2**m``);
* the fabric-evaluated distribution is bit-identical to a local
  serial-runner evaluation of the same cell, for the exact cells and
  for one noisy cell (2q depolarizing at 1%), whose sampled noise
  replay must cross the wire unchanged;
* fragment jobs actually reached the workers
  (``cut_stats()["jobs_fabric"] > 0``, zero local fallbacks);
* both workers drain gracefully on SIGTERM.

Exits non-zero on any violated expectation — this is the ``cut-smoke``
CI lane.

Usage: python scripts/cut_smoke.py [--verbose]
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

N = M = 8  # 16 qubits total; fragments of at most 8
OPERAND_PAIRS = ((173, 41), (255, 1), (0, 77))
NOISY_PAIR = (173, 41)
NOISY_RATE = 0.01  # 2q depolarizing


def fail(message: str) -> "None":
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def _spawn_worker(registry: Path, *extra: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro.fabric.worker",
         "--registry", str(registry), *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env,
    )


def _wait_registered(registry: Path, count: int, timeout: float = 60.0):
    from repro.fabric import WorkerRegistry

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        workers = WorkerRegistry(registry).load() if registry.exists() else []
        if len(workers) >= count:
            return workers
        time.sleep(0.1)
    fail(f"fleet did not register {count} worker(s) within {timeout}s")


def _evaluate(x_val: int, y_val: int, runner, rate: float = 0.0):
    import numpy as np

    from repro.core.qint import QInteger
    from repro.cut import CutConfig, cut_distribution
    from repro.experiments.instances import ArithmeticInstance
    from repro.experiments.runner import build_arithmetic_circuit, noise_model_for

    circuit = build_arithmetic_circuit("add", N, M, None)
    inst = ArithmeticInstance(
        "add", N, M, QInteger.basis(x_val, N), QInteger.basis(y_val, M)
    )
    dist = cut_distribution(
        circuit, noise_model_for("2q", rate),
        config=CutConfig(max_fragment_qubits=M),
        initial_state=inst.initial_statevector(),
        seed=7,
        runner=runner,
    )
    mass = sum(float(dist.probs[i]) for i in inst.correct_outcomes())
    return dist.probs.astype(np.complex128, copy=False).tobytes(), mass, dist


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--verbose", action="store_true",
                        help="echo per-pair evaluation details")
    args = parser.parse_args(argv)

    from repro.cut import cut_stats, reset_cut_stats
    from repro.cut.parallel import FabricRunner, SerialRunner

    with tempfile.TemporaryDirectory() as tmp:
        registry = Path(tmp) / "fleet.txt"
        workers = [_spawn_worker(registry), _spawn_worker(registry)]
        try:
            fleet = _wait_registered(registry, 2)
            print(f"[smoke] fleet registered: {fleet}")

            for x_val, y_val in OPERAND_PAIRS:
                expected = (x_val + y_val) % (1 << M)
                local_bytes, _, _ = _evaluate(x_val, y_val, SerialRunner())

                reset_cut_stats()
                fabric_bytes, mass, dist = _evaluate(
                    x_val, y_val, FabricRunner(str(registry))
                )
                stats = cut_stats()
                if args.verbose:
                    print(
                        f"    {x_val}+{y_val}={expected}: mass={mass:.12f} "
                        f"fragments={dist.cut_info['num_fragments']} "
                        f"jobs_fabric={stats['jobs_fabric']}"
                    )
                if mass < 1.0 - 1e-10:
                    fail(
                        f"{x_val}+{y_val}: correct-outcome mass {mass} "
                        f"(expected 1 up to 1e-10)"
                    )
                if fabric_bytes != local_bytes:
                    fail(
                        f"{x_val}+{y_val}: fabric distribution diverged "
                        "from the local serial evaluation"
                    )
                if stats["jobs_fabric"] <= 0:
                    fail("no fragment job reached the fabric workers")
                if stats["jobs_fabric_fallback"] > 0:
                    fail(
                        f"{stats['jobs_fabric_fallback']} fragment job(s) "
                        "fell back to local execution"
                    )
                print(
                    f"[smoke] {x_val} + {y_val} = {expected} exact via "
                    f"{dist.cut_info['num_fragments']} fragments "
                    f"(max width {dist.cut_info['max_width']}/16, "
                    f"{stats['jobs_fabric']} fabric job(s), bit-identical "
                    "to local)"
                )

            x_val, y_val = NOISY_PAIR
            local_bytes, _, _ = _evaluate(
                x_val, y_val, SerialRunner(), NOISY_RATE
            )
            reset_cut_stats()
            fabric_bytes, mass, _ = _evaluate(
                x_val, y_val, FabricRunner(str(registry)), NOISY_RATE
            )
            stats = cut_stats()
            if fabric_bytes != local_bytes:
                fail(
                    f"{x_val}+{y_val} at 2q {NOISY_RATE}: fabric "
                    "distribution diverged from the local serial evaluation"
                )
            if stats["jobs_fabric"] <= 0 or stats["jobs_fabric_fallback"] > 0:
                fail(
                    f"noisy cell: {stats['jobs_fabric']} fabric job(s), "
                    f"{stats['jobs_fabric_fallback']} local fallback(s)"
                )
            print(
                f"[smoke] {x_val} + {y_val} at 2q {NOISY_RATE}: noisy replay "
                f"bit-identical over the fabric (correct mass {mass:.4f})"
            )

            for proc in workers:
                proc.send_signal(signal.SIGTERM)
            for proc in workers:
                out, _ = proc.communicate(timeout=60)
                if proc.returncode != 0:
                    fail(f"worker drain exit {proc.returncode}:\n{out}")
            print("[smoke] both workers drained gracefully on SIGTERM")
        finally:
            for proc in workers:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)
    print("[smoke] cut smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
