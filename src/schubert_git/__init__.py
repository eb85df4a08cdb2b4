"""Exact torus-GIT computations for Schubert and Richardson varieties in
the Grassmannian of 2-planes: standard monomial bases, straightening,
invariant section rings and their presentations, confluence checks, and
singular-locus enumeration.

Importing the package imports none of its modules.  Each public name
loads its home module on first access (``from schubert_git import X``,
``schubert_git.X`` or ``import *``), so a command-line process pays only
for the modules its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

# Every public name and the module that defines it.
_HOMES = {
    "Poly": "poly",
    "Stability": "weyl",
    "bruhat_leq": "weyl",
    "coset_reps": "weyl",
    "minimal_elements": "weyl",
    "stability_status": "weyl",
    "weight_root_coords": "weyl",
    "PlaneMatrix": "plucker",
    "evaluate": "plucker",
    "plucker_relation": "plucker",
    "pmono": "plucker",
    "pvar": "plucker",
    "Straightener": "straightening",
    "SupportRange": "straightening",
    "is_standard": "straightening",
    "standard_basis": "straightening",
    "straighten": "straightening",
    "GeneratorSet": "invariants",
    "content": "invariants",
    "degree_one_generation_check": "invariants",
    "hilbert_count": "invariants",
    "invariant_basis": "invariants",
    "multiplication_kernel": "invariants",
    "JacobianReport": "presentations",
    "case_jacobian": "presentations",
    "case_suite": "presentations",
    "jacobian": "presentations",
    "toric_suite": "presentations",
    "verify_identity": "presentations",
    "ConfluenceReport": "rewriting",
    "ReductionSystem": "rewriting",
    "confluence_check": "rewriting",
    "is_binomial_presentation": "rewriting",
    "matching_probes": "rewriting",
    "nesting_reduction_system": "rewriting",
    "SingularCandidateSet": "git_geometry",
    "singular_candidates": "git_geometry",
    "singular_count": "git_geometry",
    "smooth_locus_width": "git_geometry",
    "sorted_pair": "git_geometry",
    "witness_monomial": "git_geometry",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
