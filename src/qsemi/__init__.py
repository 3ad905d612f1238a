"""qsemi: numerical analysis of semigroups exp(-t q^w) generated by accretive
quadratic differential operators.

Computes singular spaces and smoothing classification, synthesizes exact
complex Gaussian kernels, constructs and verifies the multi-factor
decomposition of the evolution, and measures short-time L^p -> L^q behavior.
"""
from . import errors
from .decompose import (
    DecompositionFactors,
    GammaSelection,
    PolarFactors,
    UnitaryFactors,
    build_decomposition,
    polar_factors,
    select_gamma,
    strang_middle,
    unitary_factorization,
    verify_decomposition,
)
from .evolve import (
    GaussianState,
    apply_kernel_gaussian,
    compute_cpq,
    counterexample_demo,
    derivative_growth_check,
    dispersion_gaussian,
    fit_exponent,
    lp_norm,
    miraculous_bound_check,
    norm_sweep,
    op_norm_1_inf,
    op_norm_edge,
    op_norm_lower_gaussian,
    young_exponent,
)
from .fixtures import fixture_names, get_fixture
from .matfun import (
    BranchTrackedScalar,
    mat_cos,
    mat_log_principal,
    sqrt_det_cos_tracked,
)
from .mehler import (
    GaussianKernel,
    KernelDiagnostics,
    MehlerSymbol,
    compose_kernels,
    diagnostics_PVMN,
    kernel_from_symbol,
    mehler_inverse_twisted,
    mehler_symbol,
    twisted_form_matrix,
)
from .quadform import (
    BlockForm,
    QuadraticForm,
    block_decompose,
    hamilton_map,
    shear_transform,
    standard_J,
)
from .singular import (
    GraphCertificate,
    SingularSpaceReport,
    graph_condition,
    singular_space,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
