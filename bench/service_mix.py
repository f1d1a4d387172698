"""The ``service-mix`` workload: a live ``repro.service`` under mixed load.

The server is ``python -m repro.service --concurrency 2
--fusion-window-ms 25 --port 0`` (every other flag at its default).
One load-generator process drives it through the public
``repro.service.ServiceClient``, with at most one request in flight per
thread:

* two threads share an open loop of interactive ``/v1/simulate``
  requests at jittered times, 8 per second -- 65% QFA 6+6 ``auto``
  (trajectories; eligible for fusion), 25% QFA 3+3 ``auto`` (density),
  10% exact repeats of an earlier request (result cache or coalescing).
  Latency counts from each request's due time, so a request that waits
  for a free thread is charged for the wait;
* one thread runs a closed loop of ``/v1/sweep`` streams (QFA 6+6, eight
  rates, 2048 shots, tenant ``batch``): the next starts as soon as the
  last one ends, so every interactive request meets a stream.

Trajectory-bound requests of both kinds use 16 trajectories.
"""

from __future__ import annotations

import contextlib
import math
import queue
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from . import checks
from .measure import (
    ROOT,
    SETUP_REPEATS,
    Outcome,
    child_env,
    counter_metrics,
    peak_rss_mb,
    percentile,
    summary,
)
from .speed import HostSpeed, scale
from .trace import load_spans, span_metrics


@dataclass(frozen=True)
class Arrival:
    """One interactive request and when it is due, in seconds from the
    start of the load window."""

    due: float
    request: Dict[str, Any]
    kind: str
    #: Index of the earlier arrival this one repeats exactly.
    repeat_of: Optional[int] = None


#: Mean arrival rate of interactive requests: 240 in a 30 s window, 24
#: of them beyond the 90th percentile.
RATE_PER_S = 8.0
#: Threads (each with one connection) that send the interactive requests.
#: With one, a request due while the previous is still out waits for it:
#: a queue in the load generator, not the server, which held a quarter
#: of the requests and set the 90th percentile.
INTERACTIVE_THREADS = 2
#: QFA width of the trajectory-bound requests (n = m; 12 qubits is past
#: the 10-qubit density cap, so ``auto`` runs trajectories and the
#: request may be fused).
BIG = 6
#: QFA width of the density-bound requests (``auto`` picks density).
SMALL = 3
#: Shares of big and small requests; the rest repeat an earlier one.
MIX = (0.65, 0.25)
#: Server flags: one simulation per CPU of the 2-CPU reference host.
CONCURRENCY = 2
FUSION_WINDOW_MS = 25.0
#: Interactive latency limit for the reported SLO share.
SLO_MS = 500.0
#: The load window is cut into segments of about this length.  Between
#: two, the load drains, the server is paused and the host's speed is
#: probed; each segment is scaled by the probes either side of it.
SEGMENT_S = 5.0
#: How the sweep streams' time follows the host's speed (``speed.scale``;
#: the interactive latencies follow it one for one).
STREAM_SENSITIVITY = 0.5

#: The constants above, for the run record.
FIXED = {
    "rate_per_s": RATE_PER_S, "interactive_threads": INTERACTIVE_THREADS,
    "big": BIG, "small": SMALL, "mix": MIX, "concurrency": CONCURRENCY,
    "fusion_window_ms": FUSION_WINDOW_MS, "slo_ms": SLO_MS, "segment_s": SEGMENT_S,
    "stream_sensitivity": STREAM_SENSITIVITY,
}

SERVER_ARGS = ["--concurrency", str(CONCURRENCY),
               "--fusion-window-ms", str(FUSION_WINDOW_MS), "--port", "0"]


@dataclass(frozen=True)
class ServiceWorkload:
    """Open-loop interactive requests plus periodic sweep streams.

    The fields are what ``--smoke`` shrinks; the rest of the workload is
    the module constants.
    """

    name: str
    #: Interactive requests take the service's default shots; sweep
    #: cells the paper's 2048.
    interactive_shots: int = 512
    shots: int = 2048
    #: Trajectories of every trajectory-bound request.  16, not 32: the
    #: server runs requests on threads of one interpreter, and the less
    #: busy it is, the less a slower host stretches the queue behind a
    #: stream.  At 32 a host slowed by a quarter (set-up 30% longer)
    #: took the 90th percentile from 139 to 366 ms.
    trajectories: int = 16
    interactive_rates: Tuple[float, ...] = (0.007, 0.010, 0.015, 0.020)
    sweep_rates: Tuple[float, ...] = (
        0.0, 0.003, 0.005, 0.007, 0.010, 0.013, 0.015, 0.020
    )

    def params(self) -> Dict[str, object]:
        """Everything that sizes a run, for the run record."""
        return {**asdict(self), **FIXED}

    def request(self, rng: random.Random, width: int, rate: float,
                tenant: str, shots: int) -> Dict[str, Any]:
        """One basis-operand QFA request."""
        return {
            "operation": "add", "n": width, "m": width,
            "x": [rng.randrange(1 << width)], "y": [rng.randrange(1 << width)],
            "error_axis": "2q", "error_rate": rate, "shots": shots,
            "trajectories": self.trajectories, "seed": rng.randrange(2**31),
            "tenant": tenant,
        }

    def schedule(self, seed: int, seconds: float):
        """Interactive arrivals ``[Arrival]`` and the sweep bases, all
        from ``seed``.

        Arrivals are jittered: the window is cut into ``RATE_PER_S *
        seconds`` equal slots and one request is due at a uniform time
        in each.  Poisson arrivals (uniform times over the whole window)
        queue their bursts behind each other and behind the sweep
        streams: over six seeds, alternating with jittered windows on one
        server, their median latency ranged over 75-143 ms against 66-106
        ms jittered.

        The mix is exact and only its order is drawn, so a seed changes
        which request comes when, not how many of each kind there are.
        """
        rng = random.Random(seed)
        count = max(1, round(RATE_PER_S * seconds))
        n_big = round(count * MIX[0])
        n_small = min(count - n_big, round(count * MIX[1]))
        kinds = ["big"] * n_big + ["small"] * n_small
        kinds += ["repeat"] * (count - len(kinds))
        rng.shuffle(kinds)
        if kinds[0] == "repeat":  # a repeat needs an earlier request
            j = next((i for i, k in enumerate(kinds) if k != "repeat"), 0)
            kinds[0], kinds[j] = kinds[j], kinds[0]
        arrivals: List[Arrival] = []
        dues = [(i + rng.random()) * seconds / count for i in range(count)]
        for due, kind in zip(dues, kinds):
            if kind == "repeat" and arrivals:
                k = rng.randrange(len(arrivals))
                arrivals.append(Arrival(due, arrivals[k].request, kind, k))
                continue
            width = SMALL if kind == "small" else BIG
            rate = rng.choice(self.interactive_rates)
            req = self.request(rng, width, rate, "interactive", self.interactive_shots)
            arrivals.append(Arrival(due, req, kind))
        # A stream takes over 0.02 s, even at --smoke size, so the closed
        # loop never runs out of distinct bases (a reused one would be a
        # result-cache hit).
        sweeps = [self.request(rng, BIG, 0.0, "batch", self.shots)
                  for _ in range(max(1, round(50 * seconds)))]
        return arrivals, sweeps



class Server:
    """A ``repro.service`` subprocess on a free port."""

    def __init__(self, wl: ServiceWorkload, out_dir: Path,
                 trace_run: Optional[str] = None) -> None:
        if trace_run is None:
            cmd = [sys.executable, "-m", "repro.service", *SERVER_ARGS]
        else:
            cmd = [sys.executable, str(ROOT / "bench" / "serve.py"),
                   "--out", str(out_dir), "--workload", wl.name,
                   "--run-id", trace_run, "--", *SERVER_ARGS]
        out_dir.mkdir(parents=True, exist_ok=True)
        self._log = open(out_dir / f"{wl.name}-server.log", "a")
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        self._lines: "queue.Queue[str]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.port = self._wait_port(deadline=time.monotonic() + 120)

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)

    def _wait_port(self, deadline: float) -> int:
        while time.monotonic() < deadline:
            try:
                line = self._lines.get(timeout=0.5)
            except queue.Empty:
                if self.proc.poll() is not None:
                    break
                continue
            if "listening on http://" in line:
                return int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        self.stop()
        raise RuntimeError("repro.service did not start (see its log in --out)")

    def client(self):
        from repro.service import ServiceClient

        return ServiceClient("127.0.0.1", self.port, timeout=120.0)

    def wait_healthy(self, deadline_s: float = 60.0) -> None:
        client = self.client()
        deadline = time.monotonic() + deadline_s
        while True:
            try:
                if client.health().get("status") == "ok":
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("repro.service never became healthy")
            time.sleep(0.05)

    @contextlib.contextmanager
    def paused(self):
        """Hold the server stopped (SIGSTOP), so that nothing it does
        while idle reaches a speed probe."""
        self.proc.send_signal(signal.SIGSTOP)
        try:
            yield
        finally:
            self.proc.send_signal(signal.SIGCONT)

    def stop(self) -> None:
        """Graceful SIGTERM, then wait for the process and its reader."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=10)
        self._log.close()


def _probe(wl: ServiceWorkload, client, seed: int) -> List[str]:
    """Ideal requests of both widths: every shot on the correct sum."""
    rng = random.Random(seed)
    errors = []
    for width in (BIG, SMALL):
        req = wl.request(rng, width, 0.0, "probe", wl.interactive_shots)
        errors += check_response(req, client.simulate(req).counts, {})
    return [f"ideal probe: {e}" for e in errors]


def setup(wl: ServiceWorkload, seed: int, out_dir: Path,
          trace_run: Optional[str] = None) -> Tuple[Server, float, List[str]]:
    """Start the server, wait for ``/healthz``, probe it, and warm its
    compile caches with one request of every shape the load sends."""
    t0 = time.perf_counter()
    server = Server(wl, out_dir, trace_run)
    try:
        server.wait_healthy()
        client = server.client()
        errors = _probe(wl, client, seed + 1)
        rng = random.Random(seed + 2)
        for rate in wl.interactive_rates:
            client.simulate(wl.request(rng, SMALL, rate, "warmup",
                                       wl.interactive_shots))
        client.simulate(wl.request(rng, BIG, wl.interactive_rates[0],
                                   "warmup", wl.interactive_shots))
        base = wl.request(rng, BIG, 0.0, "warmup", wl.shots)
        for part in client.submit_sweep(base, wl.sweep_rates):
            if not part.ok:
                errors.append(f"warm-up sweep cell failed: {part.error}")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - t0, errors


@dataclass
class Load:
    """What one segment of the load window produced; times are seconds
    on the window's clock, which stands still between segments."""

    end_s: float
    interactive: List[Dict[str, Any]] = field(default_factory=list)
    sweeps: List[Dict[str, Any]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    failed: int = 0
    #: ``speed.scale`` of the probes either side of the segment, at
    #: sensitivity 1.
    scale: float = 1.0

    @property
    def attempted(self) -> int:
        return len(self.interactive) + sum(s["attempted"] for s in self.sweeps)


def no_error_probabilities(wl: ServiceWorkload) -> Dict[Tuple[int, float], float]:
    """``P0`` of every (width, rate) the load sends, for the checks."""
    from repro.analysis.budget import predicted_no_error_probability
    from repro.experiments.runner import build_arithmetic_circuit

    table = {}
    for width, rates in ((BIG, wl.interactive_rates + wl.sweep_rates),
                         (SMALL, wl.interactive_rates)):
        circuit = build_arithmetic_circuit("add", width, width, None)
        for rate in rates:
            table[width, rate] = predicted_no_error_probability(circuit, 0.0, rate)
    return table


def check_response(req: Dict[str, Any], counts: Dict[int, int],
                   p0: Dict[Tuple[int, float], float]) -> List[str]:
    """Counts sum to the shots; an ideal request puts every shot on the
    correct sum, and a noisy one at least its error-free share."""
    width, rate = req["n"], req["error_rate"]
    correct = checks.correct_sum(width, width, req["x"][0], req["y"][0])
    if rate == 0.0:
        return checks.check_counts(counts, req["shots"], [correct])
    return (checks.check_counts(counts, req["shots"])
            + checks.check_clean_share(counts, req["shots"], correct, p0[width, rate]))


def drive(wl: ServiceWorkload, client, arrivals: List[Tuple[int, Arrival]],
          sweeps: Iterator[Tuple[int, Dict[str, Any]]], start_s: float, end_s: float,
          p0: Dict[Tuple[int, float], float], responses: Dict[int, Dict[int, int]]) -> Load:
    """Run the interactive and sweep connections over one segment, from
    ``start_s`` to ``end_s`` on the window's clock: every ``(index,
    arrival)`` given is sent and awaited, and sweep streams are started
    from ``sweeps`` until the segment ends.  Each response's counts go to
    ``responses`` under its arrival's index."""
    from repro.service import ServiceError

    load = Load(end_s=end_s)
    lock = threading.Lock()
    start = time.perf_counter() - start_s

    def note(messages: List[str], failed: int = 1) -> None:
        if messages:
            with lock:
                load.errors.extend(messages)
                load.failed += failed

    pending = iter(arrivals)

    def interactive() -> None:
        """Send the next due request; several threads share the schedule,
        so one slow request does not hold back the next arrival."""
        while True:
            with lock:
                i, arrival = next(pending, (None, None))
            if arrival is None:
                return
            wait = arrival.due - (time.perf_counter() - start)
            if wait > 0:
                time.sleep(wait)
            rec = {"due": arrival.due, "kind": arrival.kind,
                   "sent": time.perf_counter() - start, "ok": False}
            try:
                resp = client.simulate(arrival.request)
            except (ServiceError, OSError) as exc:
                note([f"interactive request {i}: {exc}"])
            else:
                rec.update(ok=True, server_total_ms=resp.timings_ms.get("total", 0.0))
                responses[i] = resp.counts
                errs = check_response(arrival.request, resp.counts, p0)
                note([f"interactive request {i}: {e}" for e in errs])
            rec["done"] = time.perf_counter() - start
            with lock:
                load.interactive.append(rec)

    def batch() -> None:
        for k, base in sweeps:
            t = time.perf_counter() - start
            if t >= end_s:
                return
            cells = 0
            try:
                for part in client.submit_sweep(base, wl.sweep_rates):
                    if not part.ok:
                        note([f"sweep {k} cell {part.error_rate}: {part.error}"])
                        continue
                    cells += 1
                    errs = check_response({**base, "error_rate": part.error_rate},
                                          part.response.counts, p0)
                    note([f"sweep {k} cell {part.error_rate}: {e}" for e in errs])
            except (ServiceError, OSError) as exc:
                note([f"sweep {k}: {exc}"], len(wl.sweep_rates) - cells)
            load.sweeps.append({"start": t, "end": time.perf_counter() - start,
                                "cells": cells, "attempted": len(wl.sweep_rates)})

    with ThreadPoolExecutor(max_workers=INTERACTIVE_THREADS + 1) as pool:
        futures = [pool.submit(interactive) for _ in range(INTERACTIVE_THREADS)]
        futures.append(pool.submit(batch))
        for future in futures:
            future.result()
    load.interactive.sort(key=lambda r: r["due"])
    return load


def _load_metrics(loads: List[Load]) -> Dict[str, Any]:
    """Latency from each request's due time (a failed request counts as
    missing every limit) and sweep throughput per stream that ended in
    its segment: as measured (``wall_*``) and scaled to the nominal host
    speed."""
    requests = [(r, load.scale) for load in loads for r in load.interactive]
    streams = [(s, load.scale) for load in loads for s in load.sweeps
               if s["end"] <= load.end_s and s["cells"]]
    wall = [1e3 * (r["done"] - r["due"]) if r["ok"] else math.inf for r, _ in requests]
    latency = [v * f for v, (_, f) in zip(wall, requests)]
    wall_rates = [s["cells"] / (s["end"] - s["start"]) for s, _ in streams]
    by_kind: Dict[str, List[float]] = {}
    for (r, _), v in zip(requests, latency):
        by_kind.setdefault(r["kind"], []).append(v)
    return {
        "latency_ms": latency,
        "wall_latency_ms": wall,
        "latency_ms_by_kind": {k: summary(v) for k, v in sorted(by_kind.items())},
        "cells_per_s": [v / f ** STREAM_SENSITIVITY for v, (_, f) in zip(wall_rates, streams)],
        "wall_cells_per_s": wall_rates,
        "late_ms": [1e3 * (r["sent"] - r["due"]) for r, _ in requests],
        "http_overhead_ms": [
            1e3 * (r["done"] - r["sent"]) - r["server_total_ms"]
            for r, _ in requests if r["ok"]
        ],
        "slo_frac": sum(1 for v in wall if v <= SLO_MS) / len(wall),
        "cells": sum(s["cells"] for load in loads for s in load.sweeps),
        "requests": len(requests),
    }


def _measure(wl: ServiceWorkload, server: Server, seed: int, seconds: float,
             out: Outcome, speed: Optional[HostSpeed] = None) -> List[Load]:
    """One load window, then the ideal probes after it.

    With ``speed`` the window runs in segments (``SEGMENT_S``), each
    scaled by the host's speed either side of it; ``speed``'s last
    sample must be from just before the call.  Without, it is one
    segment, unscaled.
    """
    arrivals, sweeps = wl.schedule(seed, seconds)
    p0 = no_error_probabilities(wl)
    client = server.client()
    count = max(1, round(seconds / SEGMENT_S)) if speed is not None else 1
    bases = iter(enumerate(sweeps))
    responses: Dict[int, Dict[int, int]] = {}
    loads: List[Load] = []
    for k in range(count):
        lo = k * seconds / count
        hi = seconds if k == count - 1 else (k + 1) * seconds / count
        part = [(i, a) for i, a in enumerate(arrivals) if lo <= a.due < hi]
        load = drive(wl, client, part, bases, lo, hi, p0, responses)
        if speed is not None:
            before = speed.samples[-1]
            with server.paused():
                load.scale = scale(before, speed.sample())
        loads.append(load)
    errors = [error for load in loads for error in load.errors]
    failed = sum(load.failed for load in loads)
    for i, arrival in enumerate(arrivals):
        original = responses.get(arrival.repeat_of)
        if original is not None and i in responses and responses[i] != original:
            errors.append(f"repeat {i} of request {arrival.repeat_of} returned other counts")
            failed += 1
    after = _probe(wl, client, seed + 3)
    out.attempted += sum(load.attempted for load in loads) + 2
    out.fail(errors + after, failed + len(after))
    return loads


def run(wl: ServiceWorkload, seed: int, seconds: float, trace: bool,
        out_dir: Path, run_id: str) -> Outcome:
    """One benchmark run of the service workload."""
    out = Outcome()
    if trace:
        return _run_traced(wl, seed, seconds, out_dir, run_id, out)
    setups: List[Tuple[float, float]] = []
    with HostSpeed() as speed:
        for _ in range(SETUP_REPEATS):
            before = speed.sample()
            server, took, errors = setup(wl, seed, out_dir)
            with server.paused():
                setups.append((took, scale(before, speed.sample())))
            out.fail(errors, len(errors))
            if len(setups) < SETUP_REPEATS:
                server.stop()
        try:
            loads = _measure(wl, server, seed, seconds, out, speed)
        finally:
            server.stop()
        samples = list(speed.samples)
    m = _load_metrics(loads)
    setup_s = [t * f for t, f in setups]
    out.metrics = {
        "setup_s": statistics.median(setup_s),
        "cells_per_s": statistics.median(m["cells_per_s"]),
        "latency_p50_ms": percentile(m["latency_ms"], 0.5),
        "latency_p90_ms": percentile(m["latency_ms"], 0.9),
        "peak_rss_mb": peak_rss_mb(),
    }
    out.detail = {
        "setup_s": summary(setup_s),
        "cells_per_s": summary(m["cells_per_s"]),
        "latency_ms": summary(m["latency_ms"]),
        "latency_ms_by_kind": m["latency_ms_by_kind"],
        "interactive_slo_frac": m["slo_frac"],
        "generator_late_ms_p90": percentile(m["late_ms"], 0.9),
        "requests": m["requests"],
        "sweep_cells": m["cells"],
        # As measured, before scaling to the nominal host speed.
        "wall_setup_s": summary([t for t, _ in setups]),
        "wall_cells_per_s": summary(m["wall_cells_per_s"]),
        "wall_latency_ms": summary(m["wall_latency_ms"]),
        "speed_probe_s": summary(samples),
    }
    return out


def _run_traced(wl: ServiceWorkload, seed: int, seconds: float, out_dir: Path,
                run_id: str, out: Outcome) -> Outcome:
    """An untraced half for the overhead baseline, then a server started
    through ``bench/serve.py`` for the traced half."""
    server, _, errors = setup(wl, seed, out_dir)
    out.fail(errors, len(errors))
    try:
        plain = _measure(wl, server, seed, seconds / 2, out)
    finally:
        server.stop()
    server, _, errors = setup(wl, seed, out_dir, trace_run=run_id)
    out.fail(errors, len(errors))
    try:
        client = server.client()
        before = client.stats()
        window_start = time.monotonic_ns()
        traced = _measure(wl, server, seed, seconds / 2, out)
        after = client.stats()
    finally:
        server.stop()

    m_plain, m = _load_metrics(plain), _load_metrics(traced)
    ops = m["requests"] + m["cells"]
    spans = load_spans(out_dir, wl.name, run_id)
    layer = span_metrics(spans, window_start, ops, workers=0)
    layer.update(_stats_metrics(before, after, spans, window_start, ops))
    layer["service.http_overhead_ms_p50"] = percentile(m["http_overhead_ms"], 0.5)
    layer["harness.gen_late_ms_p90"] = percentile(m["late_ms"], 0.9)
    layer["harness.trace_overhead_frac"] = (
        statistics.median(m_plain["cells_per_s"])
        / statistics.median(m["cells_per_s"]) - 1.0
    )
    out.metrics = layer
    out.detail = {"spans": len(spans), "requests": m["requests"],
                  "sweep_cells": m["cells"]}
    return out


def _stats_metrics(before: Dict[str, Any], after: Dict[str, Any],
                   spans: List[dict], window_start: int,
                   ops: int) -> Dict[str, float]:
    """Per-layer numbers from the server's ``/stats`` over the window."""
    def delta(*path: str) -> float:
        a, b = after, before
        for key in path:
            a, b = a.get(key, {}), b.get(key, {})
        return float(a or 0) - float(b or 0)

    def rows(doc: Dict[str, Any]) -> float:
        # /stats exposes the sampled trajectories and their dedup ratio.
        gauges = doc["metrics"]["gauges"]
        ratio = gauges.get("trajectory_dedup_ratio", 0.0)
        return gauges.get("trajectories_spent_total", 0.0) / ratio if ratio else 0.0

    counts = {
        "kernel_hits": delta("kernel_cache", "hits"),
        "kernel_misses": delta("kernel_cache", "misses"),
        "kernel_evictions": delta("kernel_cache", "evictions"),
        "kernel_bytes": float(after["kernel_cache"]["total_bytes"]),
        "batch_tasks": float(sum(
            s.get("tasks", 0) for s in spans
            if s["name"] == "batch.run" and s["end_ns"] > window_start
        )),
        "batch_rows": rows(after) - rows(before),
        "batch_sampled": delta("metrics", "gauges", "trajectories_spent_total"),
        "cut_fragments_compiled": delta("cut", "fragments_compiled"),
        "cut_variants_evaluated": delta("cut", "variants_evaluated"),
        "cut_jobs_local": delta("cut", "jobs_local"),
        "cut_jobs_pool": delta("cut", "jobs_pool"),
    }
    compiled = before["compile_cache"]
    out = counter_metrics(counts, compiled["lowerings"], compiled["binds"], ops)
    per_op = 1.0 / max(1, ops)
    executed = delta("fusion", "totals", "executed")
    batches = delta("fusion", "totals", "batches")
    out.update({
        # The server's running mean over its life (set-up included).
        "batch.occupancy_rows": float(
            after["metrics"]["gauges"].get("trajectory_batch_occupancy", 0.0)
        ),
        "service.fusion_hit_rate": (
            delta("fusion", "totals", "fused_requests") / executed if executed else 0.0
        ),
        "service.fusion_occupancy": (
            delta("fusion", "totals", "batch_requests") / batches if batches else 0.0
        ),
        "service.cache_hits": delta("metrics", "counters", "result_cache_hits_total") * per_op,
        "service.coalesced": delta("metrics", "counters", "requests_coalesced_total") * per_op,
        "service.rejected": delta("metrics", "counters", "requests_rejected_total") * per_op,
    })
    return out
