"""Feasibility-preserving conic relaxations of nonconvex quadratic programs.

The package models quadratic programs ``min x^T Q x + 2 c^T x`` over
``{A x = b, x >= 0}``, lifts them to conic problems over the doubly
nonnegative cone or the PSD-with-nonnegative-border cone, solves the lifted
problems by closed forms or by a primal-dual interior-point method on a face
of the PSD cone, searches their recession cones for certificates of
unboundedness the same way, evaluates the induced convex
underestimators, checks the structural exactness and unboundedness
conditions, and generates the Horn-matrix family of instances whose doubly
nonnegative relaxation is unbounded despite a finite optimum.
"""

from .core import (
    CONES,
    DNN,
    FEAS_TOL,
    PSD0,
    IndexSets,
    LiftedPoint,
    LiftedProblem,
    MixtureCertificate,
    QpInstance,
    ValidationReport,
    construct_lifted_from_mixture,
    evaluate_objective,
    feasibility_residual,
    index_sets,
    in_recession_cone,
    is_feasible,
    lift_instance,
    load_instance,
    load_vector,
    save_instance,
    validate_lifted_point,
)
from .numerics import (
    AffineProjector,
    FaceProjector,
    build_affine_projector,
    nullspace_basis,
    project_cone,
)
from .oracle import (
    KktCertificate,
    LocalMinVerdict,
    OracleResult,
    RayCertificate,
    RayCheck,
    basic_feasible_points,
    enumerate_vertices,
    first_order_certificate,
    global_solve,
    minimize_quad_over_polytope,
    verify_local_minimizer,
    verify_ray_certificate,
)
from .conic import (
    CertificateSearch,
    RecessionCertificate,
    RelaxationResult,
    SolveOptions,
    evaluate_underestimator,
    recession_certificate_search,
    solve_relaxation,
    verify_certificate,
)
from .analysis import (
    CopositivityCheck,
    NullspaceCurvatureReport,
    RecessionReport,
    analyze_recession_cone,
    check_copositivity_desk_scale,
    check_psd_on_nullspace,
    sample_envelope,
)
from .generators import (
    HornFamilyParams,
    horn_family,
    horn_instance,
    random_instance,
)
from .report import Report, compare_report

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
