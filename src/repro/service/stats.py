"""Shared cache-statistics snapshot for ``/stats`` and the CLI.

One source of truth: the service's ``/stats`` handler and the
``repro-arith cache-stats`` subcommand both call
:func:`cache_stats_snapshot`, so an operator sees identical counter
names whether they scrape a live server or inspect a batch process.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover — annotation-only import
    from .cache import ResultCache

__all__ = ["cache_stats_snapshot", "render_cache_stats"]


def cache_stats_snapshot(
    result_cache: Optional["ResultCache"] = None,
) -> Dict[str, Any]:
    """Counters for every cache layer in this process.

    * ``compile_cache`` — the two-level lowering/bind cache of
      :mod:`repro.sim.program`;
    * ``kernel_cache`` — the process-wide materialised-kernel LRU;
    * ``program_lru`` — the per-cell memo on
      :func:`repro.experiments.runner.build_compiled_program`;
    * ``ptm_cache`` — the PTM engine's bound-plan cache;
    * ``backend`` — the active :mod:`repro.sim.backend` tier (name,
      kernel tag, dtype, and the ``REPRO_BACKEND`` value requested),
      plus ``blas``: the OpenBLAS library basename and its thread
      count in this process (``None`` when no OpenBLAS is found);
    * ``cut`` — the circuit-cutting subsystem's counters (plans found,
      fragments compiled, variants evaluated, job routing);
    * ``fusion`` — the cross-request fusion gate's process-wide
      counters (admitted / fused / batches / hit rate / per-tenant
      served cost);
    * ``result_cache`` — the service's content-addressed response
      cache, when one is supplied.

    The ``kernel_cache`` entry includes a ``by_backend`` breakdown
    (hits/misses/entries/bytes per tier) so mixed-precision service
    traffic is observable.
    """
    from ..experiments.runner import (
        build_arithmetic_circuit,
        build_compiled_program,
    )
    from ..runtime.blas import blas_info
    from ..runtime.envutil import env_str
    from ..sim.backend import BACKEND_ENV, DEFAULT_BACKEND, active_backend
    from ..cut import cut_stats
    from ..sim.program import compile_cache_stats, kernel_cache_stats
    from ..sim.ptm import ptm_cache_stats
    from .fusion import fusion_stats

    def _lru(fn: Any) -> Dict[str, int]:
        info = fn.cache_info()
        return {
            "hits": info.hits,
            "misses": info.misses,
            "entries": info.currsize,
            "maxsize": info.maxsize,
        }

    backend = active_backend().describe()
    backend["requested"] = env_str(BACKEND_ENV, DEFAULT_BACKEND).lower()
    backend["blas"] = blas_info()
    snapshot: Dict[str, Any] = {
        "backend": backend,
        "compile_cache": compile_cache_stats().as_dict(),
        "kernel_cache": kernel_cache_stats(),
        "ptm_cache": dict(ptm_cache_stats()),
        "cut": dict(cut_stats()),
        "program_lru": _lru(build_compiled_program),
        "circuit_lru": _lru(build_arithmetic_circuit),
        "fusion": fusion_stats(),
    }
    if result_cache is not None:
        snapshot["result_cache"] = result_cache.stats()
    return snapshot


def render_cache_stats(snapshot: Optional[Dict[str, Any]] = None) -> str:
    """Aligned text rendering of a cache snapshot (CLI default view)."""
    if snapshot is None:
        snapshot = cache_stats_snapshot()
    lines: list = []

    def emit(doc: Dict[str, Any], indent: int) -> None:
        pad = "  " * indent
        for name in sorted(doc):
            value = doc[name]
            if isinstance(value, dict):
                lines.append(f"{pad}{name}:")
                emit(value, indent + 1)
            else:
                lines.append(f"{pad}{name:<18} {value}")

    emit({k: v for k, v in snapshot.items() if isinstance(v, dict)}, 0)
    return "\n".join(lines)
