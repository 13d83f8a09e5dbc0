"""Design-analysis tooling on top of energy reports.

The paper positions CamJ inside an iterative refinement loop (Sec. 3.1):
estimate, *identify energy bottlenecks*, re-design the offending
component, re-estimate.  This subpackage provides that loop's analysis
half: bottleneck ranking (implemented in :mod:`repro.explore.annotate`,
where the exploration engine annotates frontier points with it) and
report-to-report comparison.  Sweeps and Pareto analysis are
explorations: see :func:`repro.explore.explore`.
"""

from repro.analysis.compare import (
    ReportDelta,
    compare_reports,
    savings_fraction,
)
from repro.explore.annotate import (
    Bottleneck,
    dominant_category,
    identify_bottlenecks,
)

__all__ = [
    "Bottleneck",
    "identify_bottlenecks",
    "dominant_category",
    "ReportDelta",
    "compare_reports",
    "savings_fraction",
]
