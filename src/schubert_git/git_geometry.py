"""Singular-locus machinery for quotients of Schubert varieties.

The distinguished point ``xi`` sits in the open cell of the minimal
semistable Schubert variety: column one is supported on rows 1..n/2 with
pivot at n/2, column two on rows n/2+1..n with pivot at n.  Permuting its
rows by middle-parabolic coset representatives produces every candidate
singular point of the quotient; the candidates pair up under subset
complementation and the quotient identifies exactly the members of a pair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .plucker import PlaneMatrix, evaluate, pmono
from .poly import Monomial
from .weyl import (
    Pair,
    Subset,
    Stability,
    check_pair,
    full_permutation,
    stability_status,
)

# The scan keeps only the member cosets and their pairs.  At n = 22 the
# full window, all 705,432 cosets, takes about 0.6 s and peaks at 134 MB;
# the partial window (15, 22), which keeps 2,730 of them, takes about
# 0.1 s and peaks at 15 MB (one fresh Python 3.11 process, 2 vCPUs).  Each
# step of n multiplies the count by about four, so n = 24, with 2,704,156
# cosets, would need about 0.5 GB.  Larger scans are refused up front.
MAX_CANDIDATE_COSETS = 10**6

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


def _check_xi_n(n: int) -> None:
    if n % 2 or n < 4:
        raise ValueError(f"need even n >= 4, got {n}")


def xi_point(n: int, seed: int = 0) -> XiPoint:
    """Seeded generic point of the open cell of X(n/2, n).

    Free entries are ratios of distinct small primes, so they are nonzero
    and pairwise distinct.  A genericity self-test (the diagonal minors
    p[k, n/2+k] must all be nonzero) retries with a fresh draw, at most 5
    times.
    """
    _check_xi_n(n)
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


def sorted_pair(a: int, b: int) -> Pair:
    """The pair sorted increasingly; requires distinct entries.

    Componentwise-smaller inputs give a Bruhat-smaller sorted pair, which
    is what makes the witness monomials below standard.
    """
    if a == b:
        raise ValueError(f"need distinct entries, got ({a}, {b})")
    return (a, b) if a < b else (b, a)


def permuted_matrix(subset: Subset, xi: XiPoint) -> PlaneMatrix:
    """Row permutation of xi by the coset representative of the subset."""
    perm = full_permutation(subset, xi.n)
    rows: list[tuple[Fraction, Fraction] | None] = [None] * xi.n
    for i in range(xi.n):
        rows[perm[i] - 1] = xi.matrix.rows[i]
    return PlaneMatrix(tuple(rows))  # type: ignore[arg-type]


def witness_monomial(subset: Subset, n: int) -> Monomial:
    """The invariant standard monomial that is nonzero at the permuted
    point: the product of p over the sorted pairs (perm(k), perm(n/2+k)).

    The identity subset and its complement are excluded: there the
    construction degenerates to the diagonal monomial.

    >>> witness_monomial((1, 2, 4), 6)
    ((1, 3), (2, 5), (4, 6))
    """
    half = n // 2
    chosen = tuple(sorted(subset))
    if len(chosen) != half:
        raise ValueError(f"need an n/2-subset, got {subset} for n={n}")
    identity = tuple(range(1, half + 1))
    reversal = tuple(range(half + 1, n + 1))
    if chosen in (identity, reversal):
        raise ValueError(
            f"subset {subset} is the identity or reversal coset; no distinct "
            "witness monomial exists there"
        )
    perm = full_permutation(chosen, n)
    return tuple(sorted(sorted_pair(perm[k], perm[half + k]) for k in range(half)))


@dataclass(frozen=True)
class SingularCandidateSet:
    """Candidate singular points of the quotient of X(w)."""

    n: int
    w: Pair
    members: tuple[Subset, ...]
    pairs: tuple[tuple[Subset, Subset], ...]
    l_size: int


def _complement(subset: Subset, everything: frozenset[int]) -> Subset:
    return tuple(sorted(everything.difference(subset)))


def singular_candidates(w: Pair, n: int, seed: int = 0) -> SingularCandidateSet:
    """Enumerate the middle-parabolic cosets whose translate of xi stays in
    X(w), pair them by complementation, and count the quotient images.

    Membership is decided by the split rule, which is exact for every
    choice of xi's free parameters.  The translate of xi by the coset of S
    has row i equal to (a_i, 0) for i in S and (0, b_i) otherwise, with
    every a_i and b_i nonzero, so its minor on rows (i, j) is nonzero
    exactly when one of i, j is in S and the other is not.  The translate
    lies in X(w) iff every such split pair is Bruhat-below w.  Only windows
    w = (b, n) with b >= n/2 have semistable points, and the pairs outside
    their lower interval are the pairs inside {b+1, ..., n}, so S is a
    member iff it contains all of {b+1, ..., n} or none of it.  No point is
    drawn and no minor is computed; ``seed`` is accepted for callers that
    pass one and is not read.  The full window w = (n-1, n) keeps every
    coset.  Cosets are generated in lexicographic order and filtered as
    they are generated, so a partial window never holds the cosets it
    rejects.

    Complementation reverses the lexicographic order of n/2-subsets, so a
    member tuple closed under it pairs ``members[k]`` with
    ``members[-1 - k]``: each pair holds two member objects, and no set of
    members or fresh complement is kept.  The first half of the members is
    checked against its computed complement, which certifies that the
    tuple is closed and that no coset is its own complement.
    More than :data:`MAX_CANDIDATE_COSETS` cosets are refused before any
    is enumerated.
    """
    check_pair(w, n)
    if stability_status(w, n, n // 2) == Stability.NO_SEMISTABLE:
        raise ValueError(f"X{w} admits no semistable points for n={n}")
    cosets = comb(n, n // 2)
    if cosets > MAX_CANDIDATE_COSETS:
        raise ValueError(
            f"the candidate scan for n={n} would enumerate C({n}, {n // 2}) = "
            f"{cosets} cosets, above the cap of {MAX_CANDIDATE_COSETS}"
        )
    _check_xi_n(n)
    b = w[0]
    candidates = combinations(range(1, n + 1), n // 2)
    if b < n - 1:
        # S is sorted: it holds none of the tail iff its last entry is at
        # most b, and all of it iff it ends with the tail.
        tail = tuple(range(b + 1, n + 1))
        candidates = (s for s in candidates if s[-1] <= b or s[b - n :] == tail)
    members = tuple(candidates)
    everything = frozenset(range(1, n + 1))
    last = len(members) - 1
    pairs: list[tuple[Subset, Subset]] = []
    for k in range(len(members) - len(members) // 2):
        subset = members[k]
        partner = _complement(subset, everything)
        if partner == subset:
            raise RuntimeError(f"complementation fixes {subset}; pairing broken")
        mate = members[last - k]
        if partner != mate:
            raise RuntimeError(
                f"candidate set is not closed under complementation at {subset}"
            )
        pairs.append((subset, mate))
    return SingularCandidateSet(n, w, members, tuple(pairs), len(pairs))


def smooth_locus_width(w: Pair, n: int) -> int:
    """Codimension of the strictly semistable locus inside the semistable
    locus of X(w), for w = (b+1, n) with b >= n/2."""
    check_pair(w, n)
    if w[1] != n:
        raise ValueError(f"need w of the form (b+1, n), got {w}")
    b = w[0] - 1
    if b < n // 2:
        raise ValueError(f"need b >= n/2, got b={b} for n={n}")
    return b + 1 - n // 2


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
