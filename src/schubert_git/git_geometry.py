"""Singular-locus combinatorics for torus quotients of Schubert varieties.

The candidate singular points of the quotient of X(w) are indexed by the
middle-parabolic cosets, that is by the n/2-subsets S of {1..n}.  The
point for S is the translate, by the coset of S, of a generic point of
the open cell of the minimal semistable Schubert variety X(n/2, n): its
row i is (a_i, 0) for i in S and (0, b_i) otherwise, with every a_i and
b_i nonzero.  Which Pluecker coordinates vanish there depends only on
which rows S holds, so every question below is answered on the subsets
themselves and no point is drawn.  The candidates pair up under
complementation, and the quotient identifies exactly the two members of a
pair: the full Grassmannian has C(n-1, n/2) singular points.
"""

from __future__ import annotations

from itertools import combinations, islice
from math import comb

from .weyl import (
    Pair,
    Subset,
    Stability,
    check_pair,
    full_permutation,
    stability_status,
)

# The scan keeps only the member cosets and their pairs.  At n = 22 the
# full window, all 705,432 cosets, takes about 0.5 s and peaks at 130 MB;
# the partial window (15, 22), which keeps 2,730 of them, takes about
# 0.11 s and peaks at 14 MB (one fresh Python 3.11 process, 2 vCPUs).  Each
# step of n multiplies the count by about four, so n = 24, with 2,704,156
# cosets, would need about 0.5 GB.  Larger scans are refused up front;
# :func:`singular_count` needs no scan.
MAX_CANDIDATE_COSETS = 10**6


def _check_window(w: Pair, n: int) -> None:
    """Refuse a window without semistable points, and odd or small n."""
    check_pair(w, n)
    if stability_status(w, n, n // 2) == Stability.NO_SEMISTABLE:
        raise ValueError(f"X{w} admits no semistable points for n={n}")
    if n % 2 or n < 4:
        raise ValueError(f"need even n >= 4, got {n}")


def sorted_pair(a: int, b: int) -> Pair:
    """The pair sorted increasingly; requires distinct entries.

    Componentwise-smaller inputs give a Bruhat-smaller sorted pair, which
    is what makes the witness monomials below standard.
    """
    if a == b:
        raise ValueError(f"need distinct entries, got ({a}, {b})")
    return (a, b) if a < b else (b, a)


def witness_monomial(subset: Subset, n: int) -> tuple[Pair, ...]:
    """The invariant standard monomial that is nonzero at the point of the
    coset: the product of p over the sorted pairs (perm(k), perm(n/2+k)).
    Each pair has one row in the subset and one outside it, so each factor
    is a nonzero minor there.

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


class SingularCandidateSet:
    """Candidate singular points of the quotient of X(w): the member
    cosets, their complementation pairs and the number of pairs."""

    __slots__ = ("n", "w", "members", "pairs", "l_size")

    def __init__(
        self,
        n: int,
        w: Pair,
        members: tuple[Subset, ...],
        pairs: tuple[tuple[Subset, Subset], ...],
        l_size: int,
    ) -> None:
        self.n = n
        self.w = w
        self.members = members
        self.pairs = pairs
        self.l_size = l_size

    def _fields(self) -> tuple:
        return (self.n, self.w, self.members, self.pairs, self.l_size)

    def __eq__(self, other: object) -> bool:
        if type(other) is not SingularCandidateSet:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return (
            "SingularCandidateSet(n={!r}, w={!r}, members={!r}, pairs={!r}, "
            "l_size={!r})".format(*self._fields())
        )


def singular_count(n: int) -> int:
    """Number of singular points of the quotient of the full Grassmannian:
    the full window keeps all C(n, n/2) cosets, and complementation pairs
    them without fixed points, so there are C(n, n/2)/2 = C(n-1, n/2).

    >>> [singular_count(n) for n in (4, 6, 8, 10)]
    [3, 10, 35, 126]
    """
    _check_window((n - 1, n), n)
    return comb(n - 1, n // 2)


def singular_candidates(w: Pair, n: int, seed: int = 0) -> SingularCandidateSet:
    """Enumerate the middle-parabolic cosets whose point stays in X(w),
    pair them by complementation, and count the quotient images.

    Membership is decided by the split rule, which is exact for every
    choice of the generic point's free parameters.  The point of the coset
    of S has row i equal to (a_i, 0) for i in S and (0, b_i) otherwise,
    with every a_i and b_i nonzero, so its minor on rows (i, j) is nonzero
    exactly when one of i, j is in S and the other is not.  The point lies
    in X(w) iff every such split pair is Bruhat-below w.  Only windows
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
    members or fresh complement is kept.  Two n/2-subsets of {1..n} are
    complements exactly when they are disjoint, and the first half of the
    members is checked for disjointness from its mates, which certifies
    that the tuple is closed; an odd count would leave the middle member
    as its own mate.
    More than :data:`MAX_CANDIDATE_COSETS` cosets are refused before any
    is enumerated.
    """
    _check_window(w, n)
    cosets = comb(n, n // 2)
    if cosets > MAX_CANDIDATE_COSETS:
        raise ValueError(
            f"the candidate scan for n={n} would enumerate C({n}, {n // 2}) = "
            f"{cosets} cosets, above the cap of {MAX_CANDIDATE_COSETS}"
        )
    b = w[0]
    candidates = combinations(range(1, n + 1), n // 2)
    if b < n - 1:
        # S is sorted: it holds none of the tail iff its last entry is at
        # most b, and all of it iff it ends with the tail.
        tail = tuple(range(b + 1, n + 1))
        candidates = (s for s in candidates if s[-1] <= b or s[b - n :] == tail)
    members = tuple(candidates)
    half, odd = divmod(len(members), 2)
    if odd:
        raise RuntimeError(f"complementation fixes {members[half]}; pairing broken")
    # Iterated in C: one transient frozenset per member of the first half.
    disjoint = map(frozenset.isdisjoint, map(frozenset, members), reversed(members))
    if not all(islice(disjoint, half)):
        subset = next(
            s
            for s, mate in zip(members, reversed(members))
            if not frozenset(s).isdisjoint(mate)
        )
        raise RuntimeError(
            f"candidate set is not closed under complementation at {subset}"
        )
    # Collected in a list and then copied: a tuple grown in place from the
    # iterator raised the benchmark's peak RSS by about 0.2 MB at n = 18.
    pairs = tuple(list(zip(islice(members, half), reversed(members))))
    return SingularCandidateSet(n, w, members, pairs, half)


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
