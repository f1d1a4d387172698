"""Fragment-job runners: serial and fabric workers.

A cut evaluation reduces to a list of independent jobs
(:class:`~repro.cut.fragments.ValueJob` branches of a register cut, or
:class:`~repro.cut.fragments.VariantJob` basis variants of a wire cut).
Runners execute a job list and return results in order:

* :class:`SerialRunner` — in-process, the default;
* :class:`FabricRunner` — ships each job to a ``repro-serve`` /
  ``repro.fabric.worker`` fleet over the existing ``POST /v1/work``
  endpoint (payload ``kind`` distinguishes fragment jobs from sweep
  units), degrading to local execution per job when no worker answers —
  the same contract the sweep fabric's recovery ladder keeps.

The wire format round-trips jobs through QASM + JSON so a worker needs
no shared memory: :func:`job_to_wire` / :func:`job_from_wire` /
:func:`execute_wire_job` are used by both ends.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits.qasm import from_qasm, to_qasm
from ..fabric.wire import WORK_PATH
from ..noise.model import NoiseModel
from ..runtime import obs
from .fragments import ValueJob, VariantJob, run_value_job, run_variant_job

__all__ = [
    "CutJob",
    "SerialRunner",
    "FabricRunner",
    "resolve_runner",
    "job_to_wire",
    "job_from_wire",
    "execute_wire_job",
    "run_cut_job",
]

CutJob = Union[ValueJob, VariantJob]

#: Payload kinds accepted on ``/v1/work`` for fragment execution.
FRAGMENT_KINDS = ("cut_value", "cut_variant")


def run_cut_job(job: CutJob) -> Any:
    """Execute one job locally (the shared dispatch)."""
    if isinstance(job, ValueJob):
        return run_value_job(job)
    return run_variant_job(job)


class SerialRunner:
    """Run jobs one after another in this process."""

    name = "serial"

    def run(self, jobs: Sequence[CutJob]) -> List[Any]:
        out = []
        for job in jobs:
            out.append(run_cut_job(job))
            obs.add({"cut.jobs_local": 1})
        return out


class FabricRunner:
    """Ship jobs to a worker fleet; fall back to local per failed job.

    ``fleet`` is a comma-separated ``host:port`` list or the path of a
    registry file with one address per line (the same format the sweep
    fabric's coordinator consumes).
    """

    name = "fabric"

    def __init__(self, fleet: str, timeout: float = 60.0) -> None:
        self.addresses = _parse_fleet(fleet)
        if not self.addresses:
            raise ValueError(f"no worker addresses in fleet spec {fleet!r}")
        self.timeout = float(timeout)

    def run(self, jobs: Sequence[CutJob]) -> List[Any]:
        results: List[Any] = [None] * len(jobs)
        pending: "queue.Queue[int]" = queue.Queue()
        for i in range(len(jobs)):
            pending.put(i)
        failed: List[int] = []
        failed_lock = threading.Lock()

        def drain(address: Tuple[str, int]) -> None:
            while True:
                try:
                    i = pending.get_nowait()
                except queue.Empty:
                    return
                try:
                    results[i] = self._post(address, jobs[i])
                    obs.add({"cut.jobs_fabric": 1})
                except Exception:  # noqa: BLE001 — degrade, don't die
                    with failed_lock:
                        failed.append(i)

        threads = [
            threading.Thread(target=drain, args=(addr,), daemon=True)
            for addr in self.addresses
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Anything still queued (all workers died mid-drain) is failed.
        while True:
            try:
                failed.append(pending.get_nowait())
            except queue.Empty:
                break
        for i in sorted(set(failed)):
            results[i] = run_cut_job(jobs[i])
            obs.add({"cut.jobs_fabric_fallback": 1})
        return results

    def _post(self, address: Tuple[str, int], job: CutJob) -> Any:
        host, port = address
        body = json.dumps(job_to_wire(job)).encode()
        conn = http.client.HTTPConnection(host, port, timeout=self.timeout)
        try:
            conn.request(
                "POST",
                WORK_PATH,
                body,
                {"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            data = resp.read()
            if resp.status != 200:
                raise RuntimeError(
                    f"{host}:{port} returned {resp.status} for fragment job"
                )
        finally:
            conn.close()
        payload = json.loads(data.decode())
        return result_from_wire(job, payload["result"])


def _parse_fleet(fleet: str) -> List[Tuple[str, int]]:
    """Fleet spec -> address list (registry file or inline list)."""
    entries: List[str] = []
    if os.path.exists(fleet):
        with open(fleet, "r", encoding="utf-8") as fh:
            entries = [ln.strip() for ln in fh if ln.strip()]
    else:
        entries = [part.strip() for part in fleet.split(",") if part.strip()]
    out: List[Tuple[str, int]] = []
    for entry in entries:
        host, _, port = entry.rpartition(":")
        out.append((host or "127.0.0.1", int(port)))
    return out


def resolve_runner(fabric: str = "", runner: Optional[Any] = None) -> Any:
    """The runner a cut evaluation should use for its jobs."""
    if runner is not None:
        return runner
    if fabric:
        return FabricRunner(fabric)
    return SerialRunner()


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------

def _noise_to_wire(noise: Optional[NoiseModel]) -> Optional[Dict[str, Any]]:
    """Serialise a noise model by its sweep spec, when it carries one.

    Models built by :func:`~repro.experiments.runner.noise_model_for`
    are tagged with their ``(error_axis, rate, convention)`` — the only
    models fragment jobs ship across processes by value.
    """
    if noise is None or noise.is_ideal:
        return None
    spec = getattr(noise, "sweep_spec", None)
    if spec is None:
        raise ValueError(
            "this noise model carries no sweep spec and cannot be "
            "shipped to a fabric worker; run with a local runner"
        )
    axis, rate, convention = spec
    return {"error_axis": axis, "rate": rate, "convention": convention}


def _noise_from_wire(spec: Optional[Dict[str, Any]]) -> Optional[NoiseModel]:
    if spec is None:
        return None
    from ..experiments.runner import noise_model_for

    return noise_model_for(
        spec["error_axis"], float(spec["rate"]), spec.get("convention", "qiskit")
    )


def _complex_to_wire(vec: Optional[np.ndarray]) -> Optional[List[List[float]]]:
    if vec is None:
        return None
    arr = np.asarray(vec).reshape(-1)
    return [[float(np.real(z)), float(np.imag(z))] for z in arr]


def _complex_from_wire(data: Optional[List[List[float]]]) -> Optional[np.ndarray]:
    if data is None:
        return None
    from ..sim.backend import as_complex

    re = np.array([p[0] for p in data])
    im = np.array([p[1] for p in data])
    return as_complex(re + 1j * im)


def job_to_wire(job: CutJob) -> Dict[str, Any]:
    """One fragment job as a JSON-safe ``/v1/work`` payload."""
    if isinstance(job, ValueJob):
        return {
            "kind": "cut_value",
            "qasm": to_qasm(job.circuit),
            "classical": list(job.classical),
            "fragment": list(job.fragment),
            "value": job.value,
            "weight": job.weight,
            "frag_state": _complex_to_wire(job.frag_state),
            "noise": _noise_to_wire(job.noise),
            "trajectories": job.trajectories,
            "seed": list(job.seed),
        }
    return {
        "kind": "cut_variant",
        "qasm": to_qasm(job.circuit),
        "width": job.width,
        "in_wires": list(job.in_wires),
        "preps": [list(c) for c in job.preps],
        "noise": _noise_to_wire(job.noise),
        "trajectories": job.trajectories,
        "seed": list(job.seed),
    }


def job_from_wire(payload: Dict[str, Any]) -> CutJob:
    """Reconstruct a fragment job from its wire payload."""
    kind = payload.get("kind")
    if kind == "cut_value":
        return ValueJob(
            circuit=from_qasm(payload["qasm"]),
            classical=tuple(payload["classical"]),
            fragment=tuple(payload["fragment"]),
            value=int(payload["value"]),
            weight=float(payload["weight"]),
            frag_state=_complex_from_wire(payload.get("frag_state")),
            noise=_noise_from_wire(payload.get("noise")),
            trajectories=int(payload["trajectories"]),
            seed=tuple(int(s) for s in payload["seed"]),
        )
    if kind == "cut_variant":
        return VariantJob(
            circuit=from_qasm(payload["qasm"]),
            noise=_noise_from_wire(payload.get("noise")),
            width=int(payload["width"]),
            in_wires=tuple(payload["in_wires"]),
            preps=tuple(tuple(c) for c in payload["preps"]),
            trajectories=int(payload["trajectories"]),
            seed=tuple(int(s) for s in payload["seed"]),
        )
    raise ValueError(f"unknown fragment job kind {kind!r}")


def result_to_wire(job_kind: str, result: Any) -> Any:
    """A job result as JSON (terms list or distribution matrix)."""
    if job_kind == "cut_value":
        return [[int(c), [float(x) for x in vec]] for c, vec in result]
    return [[float(x) for x in row] for row in np.asarray(result)]


def result_from_wire(job: CutJob, data: Any) -> Any:
    """Invert :func:`result_to_wire` for the given job's kind."""
    if isinstance(job, ValueJob):
        return [(int(c), np.asarray(vec, dtype=float)) for c, vec in data]
    return np.asarray(data, dtype=float)


def execute_wire_job(payload: Dict[str, Any]) -> Any:
    """Worker-side entry point: payload in, JSON-safe result out."""
    job = job_from_wire(payload)
    result = run_cut_job(job)
    obs.add({"cut.jobs_local": 1})
    return result_to_wire(payload["kind"], result)
