"""Pluecker variables, quadratic relations, and evaluation on 2-plane
matrices.

A 2-plane in C^n is presented by an n x 2 matrix of exact rationals whose
columns span the plane; the Pluecker coordinate ``p[i,j]`` is the 2x2 minor
on rows ``i < j``.  Polynomials in the ``p[i,j]`` are :class:`~.poly.Poly`
instances whose tokens are the index pairs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .poly import Poly
from .weyl import Pair, bruhat_leq, check_pair, coset_reps


def pvar(i: int, j: int) -> Poly:
    """The single Pluecker variable p[i,j] as a polynomial."""
    return Poly.variable(check_pair((i, j)))


def pmono(pairs: Iterable[Pair], coeff: Fraction | int = 1) -> Poly:
    """Monomial with the given factors (validated) and coefficient."""
    return Poly.from_monomial([check_pair(p) for p in pairs], coeff)


class _PairNames(dict):
    """``p[i,j]`` names by index pair, each built on first use."""

    def __missing__(self, pair: Pair) -> str:
        name = self[pair] = f"p[{pair[0]},{pair[1]}]"
        return name


_PAIR_NAMES = _PairNames()


def format_plucker(p: Poly) -> str:
    """Canonical text form with ``p[i,j]`` variable names."""
    return p.format(_PAIR_NAMES.__getitem__)


def plucker_relation(i: int, j: int, k: int, l: int) -> Poly:
    """The quadratic relation ``p[i,l]p[j,k] - p[i,k]p[j,l] + p[i,j]p[k,l]``
    for ``i < j < k < l``; it vanishes identically on decomposable vectors.

    >>> format_plucker(plucker_relation(1, 2, 3, 4))
    'p[1,2]*p[3,4] - p[1,3]*p[2,4] + p[1,4]*p[2,3]'
    """
    if not i < j < k < l:
        raise ValueError(f"need strictly increasing indices, got {(i, j, k, l)}")
    if i < 1:
        raise ValueError(f"indices must be positive, got {(i, j, k, l)}")
    return (
        pmono([(i, l), (j, k)])
        - pmono([(i, k), (j, l)])
        + pmono([(i, j), (k, l)])
    )


class PlaneMatrix(NamedTuple):
    """An n x 2 matrix of exact rationals, rows indexed 1..n."""

    rows: tuple[tuple[Fraction, Fraction], ...]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Fraction | int]]) -> "PlaneMatrix":
        return cls(tuple((Fraction(a), Fraction(b)) for a, b in rows))

    @property
    def n(self) -> int:
        return len(self.rows)

    def minor(self, i: int, j: int) -> Fraction:
        """2x2 minor on rows i < j (1-based)."""
        (a, b), (c, d) = self.rows[i - 1], self.rows[j - 1]
        return a * d - b * c

    def minors(self) -> dict[Pair, Fraction]:
        """All Pluecker coordinates of the matrix."""
        return {pair: self.minor(*pair) for pair in coset_reps(self.n, 2)}


def evaluate(p: Poly, matrix: PlaneMatrix) -> Fraction:
    """Evaluate a Pluecker polynomial at a 2-plane matrix.

    Substitutes each variable by the corresponding 2x2 minor; exact.
    """
    pairs = {pair for mono in p.terms for pair in mono}
    return p.evaluate({t: matrix.minor(*check_pair(t, matrix.n)) for t in pairs})


def vanishing_pattern(matrix: PlaneMatrix) -> set[Pair]:
    """The set of index pairs whose Pluecker coordinate vanishes."""
    return {pair for pair, value in matrix.minors().items() if value == 0}


def _draw_fraction(rng: random.Random, used: set[Fraction]) -> Fraction:
    # Small numerators/denominators keep minor arithmetic fast.
    while True:
        value = Fraction(rng.choice([-1, 1]) * rng.randint(1, 100), rng.randint(1, 100))
        if value not in used:
            used.add(value)
            return value


def random_schubert_point(support, seed: int) -> PlaneMatrix:
    """Deterministic random point of the open cell of X(w), or best effort
    for a Richardson window.

    ``support`` provides ``n``, ``v``, ``w`` (see
    :class:`~.straightening.SupportRange`).  For the Schubert case
    ``v = (1, 2)`` the columns are supported on rows ``1..w[0]`` and
    ``1..w[1]`` with pivots at ``w[0]`` and ``w[1]``; consequently
    ``p[t]`` vanishes exactly for ``t`` not below ``w``.  The draw is
    retried (bounded) until the vanishing pattern is exact, so the seeded
    result is generic.  For ``v != (1, 2)`` the supports are clipped from
    below as well; this is best effort and raises if the exact pattern
    ``{t : v <= t <= w}`` is not achieved.
    """
    n, v, w = support.n, support.v, support.w
    expected_nonzero = {
        t for t in coset_reps(n, 2) if bruhat_leq(v, t) and bruhat_leq(t, w)
    }
    rng = random.Random(seed)
    for _ in range(50):
        used: set[Fraction] = set()
        col1 = [Fraction(0)] * (n + 1)
        col2 = [Fraction(0)] * (n + 1)
        for row in range(v[0], w[0]):
            col1[row] = _draw_fraction(rng, used)
        col1[w[0]] = Fraction(1)
        for row in range(v[1], w[1]):
            col2[row] = _draw_fraction(rng, used)
        col2[w[1]] = Fraction(1)
        matrix = PlaneMatrix.from_rows([(col1[r], col2[r]) for r in range(1, n + 1)])
        nonzero = {t for t, val in matrix.minors().items() if val != 0}
        if nonzero == expected_nonzero:
            return matrix
    raise ValueError(
        f"could not realize the support pattern for n={n}, v={v}, w={w}"
    )
