"""Worst-case conditioning of planar sensing matrices: designs, search, simulation.

Each public name has one path: the Monte Carlo studies are ``sensedesign.simulate.<name>`` only.  That
module runs at its first attribute access, so ``design``, ``evaluate`` and ``verify`` never execute it.
"""

__version__ = "0.1.0"

from .core import (
    RANK_TOL_SCALE,
    AngleSet,
    SpectralSummary,
    SubsetSelection,
    angles_to_matrix,
    normalize_angle,
    spectral_summary,
)
from .designs import (
    baseline_circle,
    baseline_semicircle,
    build_design,
    design_even,
    design_large_odd,
    design_optimal,
    design_small_odd,
)
from .search import (
    EVALUATION_GUARD,
    MinimaxSearchConfig,
    ResourceLimitError,
    WorstCaseReport,
    grid_evaluations,
    minimax_grid_search,
    worst_subset,
)

__all__ = [
    "__version__",
    "RANK_TOL_SCALE",
    "AngleSet",
    "SpectralSummary",
    "SubsetSelection",
    "angles_to_matrix",
    "normalize_angle",
    "spectral_summary",
    "baseline_circle",
    "baseline_semicircle",
    "build_design",
    "design_even",
    "design_large_odd",
    "design_optimal",
    "design_small_odd",
    "EVALUATION_GUARD",
    "MinimaxSearchConfig",
    "ResourceLimitError",
    "WorstCaseReport",
    "grid_evaluations",
    "minimax_grid_search",
    "worst_subset",
]


def _lazy_submodule(name: str):
    """Register ``name`` in ``sys.modules`` as a module whose code runs at its first attribute access.

    An ``import`` statement that names the module reads its ``__spec__``, so it runs the module too.
    ``importlib.util.LazyLoader`` does not lock that first access the same way on every supported
    Python, so two threads must not race to it; the package starts no threads.
    """
    import importlib.util
    import sys

    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


simulate = _lazy_submodule(__name__ + ".simulate")
