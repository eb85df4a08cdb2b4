"""Test-only reference scan for singular candidates.

This is the membership test the package used before it compared preimage
pairs against xi's own vanishing minors: it builds the row-permuted point
for every middle-parabolic coset and evaluates each Pluecker coordinate
outside the lower interval of w on it, exactly.
"""

from __future__ import annotations

from schubert_git.git_geometry import (
    SingularCandidateSet,
    permuted_matrix,
    xi_point,
)
from schubert_git.weyl import (
    Pair,
    Stability,
    Subset,
    bruhat_leq,
    check_pair,
    coset_reps,
    stability_status,
)


def reference_singular_candidates(
    w: Pair, n: int, seed: int = 0
) -> SingularCandidateSet:
    check_pair(w, n)
    if stability_status(w, n, n // 2) == Stability.NO_SEMISTABLE:
        raise ValueError(f"X{w} admits no semistable points for n={n}")
    xi = xi_point(n, seed)
    outside = [t for t in coset_reps(n, 2) if not bruhat_leq(t, w)]
    members: list[Subset] = []
    for subset in coset_reps(n, n // 2):
        matrix = permuted_matrix(subset, xi)
        if all(matrix.minor(*t) == 0 for t in outside):
            members.append(subset)
    member_set = set(members)
    pairs: list[tuple[Subset, Subset]] = []
    for subset in members:
        partner = tuple(x for x in range(1, n + 1) if x not in subset)
        if partner == subset:
            raise RuntimeError(f"complementation fixes {subset}; pairing broken")
        if partner not in member_set:
            raise RuntimeError(
                f"candidate set is not closed under complementation at {subset}"
            )
        if subset < partner:
            pairs.append((subset, partner))
    return SingularCandidateSet(n, w, tuple(members), tuple(pairs), len(pairs))
