"""Exact torus-GIT computations for Schubert and Richardson varieties in
the Grassmannian of 2-planes: standard monomial bases, straightening,
invariant section rings and their presentations, confluence checks, and
singular-locus enumeration."""

from .poly import Poly
from .weyl import (
    Stability,
    bruhat_leq,
    coset_reps,
    minimal_elements,
    stability_status,
    weight_root_coords,
)
from .plucker import PlaneMatrix, evaluate, plucker_relation, pmono, pvar
from .straightening import (
    Straightener,
    SupportRange,
    is_standard,
    standard_basis,
    straighten,
)
from .invariants import (
    GeneratorSet,
    content,
    degree_one_generation_check,
    hilbert_count,
    invariant_basis,
    multiplication_kernel,
)
from .presentations import (
    JacobianReport,
    case_jacobian,
    case_suite,
    jacobian,
    toric_suite,
    verify_identity,
)
from .rewriting import (
    ConfluenceReport,
    ReductionSystem,
    confluence_check,
    is_binomial_presentation,
    matching_probes,
    nesting_reduction_system,
)
from .git_geometry import (
    SingularCandidateSet,
    XiPoint,
    singular_candidates,
    smooth_locus_width,
    sorted_pair,
    witness_monomial,
    xi_point,
)

__version__ = "0.1.0"

__all__ = [
    "Poly",
    "Stability",
    "bruhat_leq",
    "coset_reps",
    "minimal_elements",
    "stability_status",
    "weight_root_coords",
    "PlaneMatrix",
    "evaluate",
    "plucker_relation",
    "pmono",
    "pvar",
    "Straightener",
    "SupportRange",
    "is_standard",
    "standard_basis",
    "straighten",
    "GeneratorSet",
    "content",
    "degree_one_generation_check",
    "hilbert_count",
    "invariant_basis",
    "multiplication_kernel",
    "JacobianReport",
    "case_jacobian",
    "case_suite",
    "jacobian",
    "toric_suite",
    "verify_identity",
    "ConfluenceReport",
    "ReductionSystem",
    "confluence_check",
    "is_binomial_presentation",
    "matching_probes",
    "nesting_reduction_system",
    "SingularCandidateSet",
    "XiPoint",
    "singular_candidates",
    "smooth_locus_width",
    "sorted_pair",
    "witness_monomial",
    "xi_point",
    "__version__",
]
