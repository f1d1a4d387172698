"""The host's speed, probed on every CPU between measured intervals.

The benchmark shares a few CPUs of a host with other tenants, and how
fast those CPUs run drifts by 20% or more over minutes, each CPU on its
own.  A run can not outlast that drift, so every timed interval is
scaled by the speed the host had around it: ``HostSpeed.sample()`` runs
one fixed computation (``reference``) on every usable CPU at once, each
in a process pinned to it, and returns their mean seconds.  An interval
of ``t`` seconds between samples ``a`` and ``b`` counts as ``t *
scale(a, b, sensitivity)`` seconds at the nominal speed ``NOMINAL_S``.

The reference shares no code with ``repro`` and nothing of the program
runs while it does: sweep workers are reaped and the server is stopped
(SIGSTOP) first.  On one CPU the ratio of one kind of work to another
(Python loops, small NumPy calls, a 2**16-amplitude vector) held within
4-12% over minutes in which each alone swung by 20%, so one probe
stands for the mix the workloads run.  Not every workload's time swings as
much as the probe's, though: over 20 runs of each, the slope of log
time against log probe time was 0.9-1.3 for the set-ups, ``qfm-panel``,
``cut-16q`` and the service latencies, but 0.5 for ``paper-sweep``'s
panels and ``service-mix``'s sweep streams.  That slope is the
``sensitivity`` each workload scales its times with.

Run as a script, this file is the probe process: ``python3 speed.py CPU``
pins itself to ``CPU`` and times ``reference()`` once per input line.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time
from typing import List

#: The speed every time is scaled to, as seconds of ``reference()``: a
#: round figure near what it takes on the reference host (the probes'
#: median per run was 0.081-0.092 s over two calibration sets).
NOMINAL_S = 0.1

_SQRT_HALF = math.sqrt(0.5)


def reference() -> float:
    """Wall seconds of one fixed computation, about 0.1 s on one CPU.

    It does, in about equal parts, what the workloads spend their time
    on: interpreting Python, NumPy calls on small arrays (dispatch-bound,
    like a 6-qubit state) and a 2**16-amplitude complex vector, the size
    of a 16-qubit state, pushed through Hadamard gates.
    """
    # Imported here: the harness must not pay NumPy's import before it
    # times set-up.
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(180_000):
        acc = (acc * 31 + i) % 1_000_003
    for size, gates in ((64, 7_500), (1 << 16, 150)):
        state = np.ones(size, dtype=complex)
        for _ in range(gates):
            pairs = state.reshape(-1, 2)
            state = np.concatenate((pairs[:, 0] + pairs[:, 1],
                                    pairs[:, 0] - pairs[:, 1])) * _SQRT_HALF
    return time.perf_counter() - t0


def scale(before: float, after: float, sensitivity: float = 1.0) -> float:
    """Factor that turns seconds measured between two samples into
    seconds at the nominal speed, for work whose time goes as the
    probe's to the power ``sensitivity``."""
    return (NOMINAL_S / ((before + after) / 2.0)) ** sensitivity


class HostSpeed:
    """One probe process per usable CPU, each pinned to its CPU.

    Use as a context manager: the processes are stopped and waited for
    on every way out.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._procs: List[subprocess.Popen] = []
        try:
            for cpu in sorted(os.sched_getaffinity(0)):
                self._procs.append(subprocess.Popen(
                    [sys.executable, __file__, str(cpu)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                ))
            self.sample()  # imports and first-touch, not a measurement
            self.samples.clear()
        except BaseException:
            self.close()
            raise

    def sample(self) -> float:
        """Mean seconds of ``reference()`` run on every CPU at once."""
        for proc in self._procs:
            proc.stdin.write("\n")
            proc.stdin.flush()
        times = []
        for proc in self._procs:
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError(f"speed probe exited with {proc.wait()}")
            times.append(float(line))
        self.samples.append(statistics.mean(times))
        return self.samples[-1]

    def close(self) -> None:
        for proc in self._procs:
            if proc.stdin and not proc.stdin.closed:
                proc.stdin.close()
        for proc in self._procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        self._procs = []

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    os.sched_setaffinity(0, {int(sys.argv[1])})
    for _ in sys.stdin:
        print(reference(), flush=True)
