"""Test-only oracle for the singular-candidate scan: the seeded point xi.

The package decides membership by the split rule, on subsets alone.  This
module keeps the exact point it replaced: xi, a seeded generic point of
the open cell of X(n/2, n), its row permutations by middle-parabolic
coset representatives, and the evaluations of Pluecker monomials there.
``reference_singular_candidates`` is the scan the package used before the
split rule: it builds the row-permuted point for every coset and evaluates
each Pluecker coordinate outside the lower interval of w on it, exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from schubert_git.git_geometry import SingularCandidateSet, witness_monomial
from schubert_git.plucker import PlaneMatrix, evaluate, pmono
from schubert_git.poly import Monomial
from schubert_git.weyl import (
    Pair,
    Stability,
    Subset,
    bruhat_leq,
    check_pair,
    coset_reps,
    full_permutation,
    stability_status,
)

_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
    233, 239, 241, 251, 257, 263, 269, 271, 277, 281,
]


@dataclass(frozen=True)
class XiPoint:
    """The distinguished semistable point and its free parameters."""

    n: int
    matrix: PlaneMatrix
    col1_params: tuple[Fraction, ...]
    col2_params: tuple[Fraction, ...]

    @property
    def parameter_product(self) -> Fraction:
        out = Fraction(1)
        for x in self.col1_params + self.col2_params:
            out *= x
        return out


def xi_point(n: int, seed: int = 0) -> XiPoint:
    """Seeded generic point of the open cell of X(n/2, n).

    Column one is supported on rows 1..n/2 with pivot at n/2, column two
    on rows n/2+1..n with pivot at n.  Free entries are ratios of distinct
    small primes, so they are nonzero and pairwise distinct.  A genericity
    self-test (the diagonal minors p[k, n/2+k] must all be nonzero) retries
    with a fresh draw, at most 5 times.
    """
    if n % 2 or n < 4:
        raise ValueError(f"need even n >= 4, got {n}")
    if 2 * (n - 2) > len(_PRIMES):
        raise ValueError(f"n={n} exceeds the prime pool for free parameters")
    half = n // 2
    for attempt in range(5):
        rng = random.Random(seed * 1_000_003 + attempt)
        primes = _PRIMES[: min(len(_PRIMES), 4 * (n - 2))]
        rng.shuffle(primes)
        values = [
            Fraction(primes[2 * k], primes[2 * k + 1]) for k in range(n - 2)
        ]
        col1 = values[: half - 1]
        col2 = values[half - 1 :][: half - 1]
        rows: list[tuple[Fraction, Fraction]] = []
        for r in range(1, n + 1):
            a = col1[r - 1] if r < half else (Fraction(1) if r == half else Fraction(0))
            b = (
                col2[r - half - 1]
                if half < r < n
                else (Fraction(1) if r == n else Fraction(0))
            )
            rows.append((a, b))
        matrix = PlaneMatrix(tuple(rows))
        if all(matrix.minor(k, half + k) != 0 for k in range(1, half + 1)):
            return XiPoint(n, matrix, tuple(col1), tuple(col2))
    raise RuntimeError(f"could not draw a generic point for n={n}, seed={seed}")


def permuted_matrix(subset: Subset, xi: XiPoint) -> PlaneMatrix:
    """Row permutation of xi by the coset representative of the subset."""
    perm = full_permutation(subset, xi.n)
    rows: list[tuple[Fraction, Fraction] | None] = [None] * xi.n
    for i in range(xi.n):
        rows[perm[i] - 1] = xi.matrix.rows[i]
    return PlaneMatrix(tuple(rows))  # type: ignore[arg-type]


def witness_value(subset: Subset, xi: XiPoint) -> Fraction:
    """Value of the witness monomial at the permuted point."""
    return evaluate(pmono(witness_monomial(subset, xi.n)), permuted_matrix(subset, xi))


def invariant_evaluation_vector(
    subset: Subset, xi: XiPoint, monomials: tuple[Monomial, ...]
) -> tuple[Fraction, ...]:
    """Evaluations of the degree-one invariants at the permuted point."""
    matrix = permuted_matrix(subset, xi)
    return tuple(evaluate(pmono(m), matrix) for m in monomials)


def projectively_equal(
    a: tuple[Fraction, ...], b: tuple[Fraction, ...]
) -> bool:
    """True iff two coordinate vectors agree up to a global nonzero scale."""
    if len(a) != len(b):
        return False
    pivot = next((k for k, x in enumerate(a) if x), None)
    pivot_b = next((k for k, x in enumerate(b) if x), None)
    if pivot is None or pivot_b is None:
        return pivot == pivot_b
    if pivot != pivot_b:
        return False
    scale = b[pivot] / a[pivot]
    return all(y == scale * x for x, y in zip(a, b))


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
