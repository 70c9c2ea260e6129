"""Frames from graph Laplacians: duals, erasure radii, and optimality checks."""

from .erasure import ErasureReport, ErasureSet, erasure_report, error_operator, reduced_error_matrix, worst_radius
from .frames import (
    DUAL_TOL,
    DualFrame,
    Frame,
    apply_unitary,
    canonical_dual,
    dual_from_params,
    dual_to_doc,
    frame_bounds,
    frame_from_doc,
    frame_from_graph,
    frame_operator,
    frame_to_doc,
    gramian,
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
    permuted_laplacian,
)
from .linalg import (
    EIG_TOL,
    ZERO_TOL,
    ConvergenceError,
    EigenDecomposition,
    hermitian_eigenvalues,
    small_complex_eigenvalues,
    spectral_radius,
    symmetric_eig,
)
from .optimality import (
    ProbeReport,
    SearchBudgetError,
    SearchConfig,
    SearchReport,
    OptimalityReport,
    alternate_optimal_dual,
    check_uniform_diagonal,
    diagonal_couplings,
    predicted_worst_radius,
    search_optimal_dual,
    singleton_shift_dual,
    uniqueness_probe,
    verify_order,
)

__version__ = "0.1.0"
