"""graphprox: graph similarity measures, the transforms between kernels,
proximities, and distances, and audits of the properties each measure
does or does not have."""

from ._version import __version__
from .audit import (
    CHECKS,
    AuditReport,
    MeasureAudit,
    ThresholdBracketError,
    ThresholdResult,
    default_checks,
    export_embedding,
    find_threshold,
    run_audit,
    run_check,
)
from .graphs import (
    BUILTIN_GRAPHS,
    GraphFormatError,
    GraphValidationError,
    WeightedGraph,
    builtin_graph,
    is_cut_between,
    load_graph,
    separation_labels,
)
from .kernels import (
    MEASURES,
    SYMMETRIC_MEASURES,
    KernelResult,
    ParameterDomainError,
    absorption,
    communicability,
    compute_kernel,
    double_factorial,
    heat,
    katz,
    modified_ppr,
    normalized_heat,
    pagerank_heat,
    param_domain,
    ppr,
    regularized_laplacian,
)
from .linalg import (
    EigenDecomposition,
    NonConvergenceError,
    NotPositiveSemidefiniteError,
    SingularMatrixError,
    gram_factor,
    invert,
    is_symmetric,
    matrix_exp,
    spectral_radius,
    sym_eigen,
)
from .properties import (
    DEFAULT_TOL,
    PropertyReport,
    check_cutpoint_additive,
    check_distance_order,
    check_egocentrism,
    check_metric,
    check_proximity,
    check_psd,
    check_sigma_proximity,
    check_sq_euclidean,
    check_sqrt_distance,
    check_transitional,
)
from .transforms import (
    dist_to_sigma_prox,
    embed,
    kernel_to_sq_dist,
    log_distance,
    pair_to_dist,
    symmetrize_geometric,
)

__all__ = [name for name in dir() if not name.startswith("_")]
