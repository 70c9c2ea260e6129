"""Frames from graph Laplacians: duals, erasure radii, and optimality checks.

Importing the package before numpy pins OpenBLAS to one thread unless
``OPENBLAS_NUM_THREADS`` is already set: no matrix at these sizes gains from
the worker pool, and starting it costs every command-line query tens of
milliseconds. Set the variable before the import to choose another count.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .erasure import worst_radius
from .frames import (
    DUAL_TOL,
    DualFrame,
    Frame,
    canonical_dual,
    dual_from_params,
    dual_to_doc,
    frame_bounds,
    frame_from_graph,
    frame_to_doc,
    is_dual,
)
from .graph import (
    ComponentDecomposition,
    EdgeListError,
    Graph,
    components,
    contiguous_decomposition,
    laplacian,
    parse_edge_list,
)
from .linalg import (
    EIG_TOL,
    ZERO_TOL,
    ConvergenceError,
    EigenDecomposition,
    hermitian_eigenvalues,
    small_complex_eigenvalues,
    symmetric_eig,
)
from .optimality import (
    ProbeReport,
    SearchBudgetError,
    SearchReport,
    OptimalityReport,
    alternate_optimal_dual,
    predicted_worst_radius,
    search_optimal_dual,
    uniqueness_probe,
    verify_order,
)

__version__ = "0.1.0"
