"""The benchmark's four workloads, at full size and at ``--smoke`` size.

Why each one exists is in ``BENCHMARK.json`` and ``bench/README.md``.
Sizes are pinned so that one timed repeat of a sweep (a panel) takes
2-5 s on a 2-CPU host: a 30 s run then holds 5-12 panels to take the
median of.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Union

from .service_mix import ServiceWorkload
from .sweeps import SweepWorkload

Workload = Union[SweepWorkload, ServiceWorkload]

WORKLOADS: Dict[str, Workload] = {
    # Fig. 3(a): QFA 8+8 (16 qubits), orders 1:1, the 1q rates with 0.0,
    # full depth.  Its panels swing half as much as the speed probe
    # (see bench/speed.py).
    "paper-sweep": SweepWorkload(
        "paper-sweep", "add", 8, 8, (1, 1), "1q",
        instances=2, shots=2048, trajectories=16, speed_sensitivity=0.5,
    ),
    # Fig. 4: QFM 3x3 (12 qubits), orders 1:1, the 2q rates, depths
    # qfm_depths_for(3).
    "qfm-panel": SweepWorkload(
        "qfm-panel", "mul", 3, 3, (1, 1), "2q",
        instances=4, shots=2048, trajectories=16, paper_depths=True,
    ),
    # QFA 8+8 through method="cut" at the default fragment budget,
    # orders 2:1 (two branch jobs per instance), the 2q rates, and the
    # depths of a Fig. 3 panel (qfa_depths_for(8)).  With full depth
    # alone a panel is four heavy cells on two workers, so its time is
    # that of the slower worker; 25 lighter cells let the faster worker
    # take up the slack when the host slows one CPU.
    "cut-16q": SweepWorkload(
        "cut-16q", "add", 8, 8, (2, 1), "2q",
        instances=2, shots=2048, trajectories=32, method="cut",
        paper_depths=True,
    ),
    "service-mix": ServiceWorkload("service-mix"),
}

#: ``--smoke`` sizes: every code path, seconds per workload.
SMOKE: Dict[str, Workload] = {
    "paper-sweep": dataclasses.replace(
        WORKLOADS["paper-sweep"], n=4, m=4, instances=1, shots=256,
        trajectories=8, rate_count=2,
    ),
    "qfm-panel": dataclasses.replace(
        WORKLOADS["qfm-panel"], n=2, m=2, instances=2, shots=256,
        trajectories=8, rate_count=2,
    ),
    "cut-16q": dataclasses.replace(
        WORKLOADS["cut-16q"], n=4, m=4, instances=1, shots=256,
        trajectories=16, rate_count=2, max_fragment_qubits=4,
    ),
    "service-mix": dataclasses.replace(
        WORKLOADS["service-mix"], interactive_shots=128, shots=256,
        trajectories=8, interactive_rates=(0.01,), sweep_rates=(0.0, 0.01),
    ),
}
