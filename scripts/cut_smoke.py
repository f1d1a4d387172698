#!/usr/bin/env python
"""CI smoke for circuit cutting on a 16-qubit adder.

Evaluates a **16-qubit adder** — wider than any dense engine admits —
as 8-qubit fragments and asserts, for three operand pairs:

* all probability mass lands on the exact arithmetic result
  ``x + y mod 2**m`` (up to 1e-10);
* the plan stays within the fragment budget (max width 8 of 16);
* every fragment job ran in-process (``cut_stats()["jobs_local"]``
  equals the variants evaluated).

Exits non-zero on any violated expectation — this is the ``cut-smoke``
CI lane.

Usage: python scripts/cut_smoke.py [--verbose]
"""

from __future__ import annotations

import argparse
import sys

N = M = 8  # 16 qubits total; fragments of at most 8
OPERAND_PAIRS = ((173, 41), (255, 1), (0, 77))


def fail(message: str) -> "None":
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def _evaluate(x_val: int, y_val: int):
    from repro.core.qint import QInteger
    from repro.cut import CutConfig, cut_distribution
    from repro.experiments.instances import ArithmeticInstance
    from repro.experiments.runner import build_arithmetic_circuit, noise_model_for

    circuit = build_arithmetic_circuit("add", N, M, None)
    inst = ArithmeticInstance(
        "add", N, M, QInteger.basis(x_val, N), QInteger.basis(y_val, M)
    )
    dist = cut_distribution(
        circuit, noise_model_for("2q", 0.0),
        config=CutConfig(max_fragment_qubits=M),
        initial_state=inst.initial_statevector(),
        seed=7,
    )
    mass = sum(float(dist.probs[i]) for i in inst.correct_outcomes())
    return mass, dist


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--verbose", action="store_true",
                        help="echo per-pair evaluation details")
    args = parser.parse_args(argv)

    from repro.cut import cut_stats, reset_cut_stats

    for x_val, y_val in OPERAND_PAIRS:
        expected = (x_val + y_val) % (1 << M)
        reset_cut_stats()
        mass, dist = _evaluate(x_val, y_val)
        stats = cut_stats()
        info = dist.cut_info
        if args.verbose:
            print(
                f"    {x_val}+{y_val}={expected}: mass={mass:.12f} "
                f"fragments={info['num_fragments']} "
                f"jobs_local={stats['jobs_local']}"
            )
        if mass < 1.0 - 1e-10:
            fail(
                f"{x_val}+{y_val}: correct-outcome mass {mass} "
                f"(expected 1 up to 1e-10)"
            )
        if info["max_width"] > M:
            fail(f"{x_val}+{y_val}: fragment width {info['max_width']} > {M}")
        if stats["jobs_local"] != info["variants_evaluated"]:
            fail(
                f"{x_val}+{y_val}: {stats['jobs_local']} local job(s) for "
                f"{info['variants_evaluated']} variant(s)"
            )
        print(
            f"[smoke] {x_val} + {y_val} = {expected} exact via "
            f"{info['num_fragments']} fragments "
            f"(max width {info['max_width']}/16, "
            f"{stats['jobs_local']} in-process job(s))"
        )
    print("[smoke] cut smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
