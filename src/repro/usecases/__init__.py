"""Architectural-exploration use cases of Sec. 6 (Figs. 8-13, Table 3).

Names resolve on first access (see :mod:`repro._lazy`), so importing one
use case (``repro.usecases.fig5``) loads none of the others.
"""

from repro import _lazy

_lazy.install(globals(), {
    "repro.usecases.common": ("UseCaseConfig", "CIS_NODES", "HOST_NODE"),
    "repro.usecases.rhythmic": (
        "build_rhythmic", "run_rhythmic", "rhythmic_configs",
        "rhythmic_space"),
    "repro.usecases.edgaze": (
        "build_edgaze", "run_edgaze", "edgaze_configs", "edgaze_space"),
    "repro.usecases.edgaze_mixed": ("build_edgaze_mixed", "run_edgaze_mixed"),
    "repro.usecases.fig5": ("build_fig5_design", "run_fig5"),
    "repro.usecases.threelayer": ("build_three_layer", "run_three_layer"),
})
