"""Circuit cutting: fragment evaluation + tensor reconstruction.

Wide QFA/QFM registers exceed the dense engines' width caps
(:class:`~repro.runtime.errors.WidthLimitError`); this package
evaluates them anyway by cutting the transpiled circuit into narrow
fragments, running every fragment variant through the ordinary compile
pipeline (kernel caches, fused scheduling, backend tiers all apply),
and contracting the results back into the full-register distribution.

Entry points:

* ``simulate_counts(circuit, noise, method="cut")`` — engine dispatch;
* :func:`~repro.cut.engine.cut_distribution` /
  :func:`~repro.cut.engine.cut_counts` — direct evaluation;
* :func:`~repro.cut.search.find_cuts` — just the cut plan.

See ``docs/cutting.md`` for the cut model and cost trade-offs.
"""

from .config import DEFAULT_MAX_FRAGMENT_QUBITS, CutConfig
from .engine import cut_counts, cut_distribution, cut_stats, reset_cut_stats
from .fragments import CutError
from .reconstruct import assemble_register_terms, contract_wire_plan
from .search import (
    CutEdge,
    CutPlan,
    CutSearchError,
    WireFragment,
    check_plan,
    classical_wires,
    find_cuts,
)

__all__ = [
    "CutConfig",
    "DEFAULT_MAX_FRAGMENT_QUBITS",
    "CutError",
    "CutSearchError",
    "CutEdge",
    "CutPlan",
    "WireFragment",
    "classical_wires",
    "find_cuts",
    "check_plan",
    "cut_distribution",
    "cut_counts",
    "cut_stats",
    "reset_cut_stats",
    "assemble_register_terms",
    "contract_wire_plan",
]
