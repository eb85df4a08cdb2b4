"""Standard monomials and the straightening normal form.

A monomial in Pluecker variables is standard for a window ``(n, v, w)``
when its factors can be sorted into a weakly increasing chain
``t_1 <= t_2 <= ... <= t_m`` (componentwise) with ``v <= t_1`` and
``t_m <= w``.  Standard monomials form a basis of the section spaces of
the corresponding Schubert or Richardson variety, and every Pluecker
polynomial has a unique expansion in that basis, computed here by
rewriting with the quadratic relations.

One engine, :class:`Straightener`, computes the expansion, and it has one
entry point, :meth:`Straightener.batch`: one rewrite pass straightens many
rows at once, each row a combination of monomials.  A pending monomial
carries the coefficients of every row it occurs in, so each distinct
monomial is rewritten once per pass for all rows; that is how related
polynomials share work, and nothing is cached between passes.  The engine
holds one window and its count of rewrite steps.  Coefficients are ``int``
inside the engine when the input's are (every rewrite has coefficients
+-1), so an integral input stays on ``int`` throughout.  Both bounds of the
window are pruned as soon as a factor appears, and pending monomials are
rewritten in decreasing order of a measure that every rewrite lowers.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Hashable, Iterable, Mapping, TypeVar

from .poly import Monomial, Poly, monomial
from .weyl import Pair, bruhat_leq, check_pair, coset_reps

MAX_REWRITE_STEPS = 10**6

Row = TypeVar("Row", bound=Hashable)


class StraighteningLimit(RuntimeError):
    """Raised if the rewrite step ceiling is exceeded (bug guard)."""


@dataclass(frozen=True)
class SupportRange:
    """A window ``(n, v, w)`` with ``v <= w``: the pairs surviving
    restriction are exactly those between ``v`` and ``w``."""

    n: int
    v: Pair
    w: Pair

    def __post_init__(self) -> None:
        check_pair(self.v, self.n)
        check_pair(self.w, self.n)
        if not bruhat_leq(self.v, self.w):
            raise ValueError(f"empty window: {self.v} is not below {self.w}")

    @classmethod
    def full(cls, n: int) -> "SupportRange":
        """The whole Grassmannian of 2-planes in C^n."""
        return cls(n, (1, 2), (n - 1, n))

    @classmethod
    def schubert(cls, n: int, w: Pair) -> "SupportRange":
        return cls(n, (1, 2), w)

    def variables(self) -> list[Pair]:
        """Pairs in the window, in lexicographic order."""
        return [
            t
            for t in coset_reps(self.n, 2)
            if bruhat_leq(self.v, t) and bruhat_leq(t, self.w)
        ]


def _is_chain(sorted_factors: Monomial) -> bool:
    # Lexicographically sorted factors form a chain iff consecutive ones
    # are componentwise comparable.
    for a, b in zip(sorted_factors, sorted_factors[1:]):
        if not (a[0] <= b[0] and a[1] <= b[1]):
            return False
    return True


def is_standard(factors: Iterable[Pair], support: SupportRange) -> bool:
    """True iff the factors sort into a chain bounded by the window.

    >>> is_standard([(1, 4), (2, 5), (3, 6)], SupportRange.full(6))
    True
    >>> is_standard([(1, 4), (2, 3)], SupportRange.full(4))
    False
    """
    fs = monomial(check_pair(f, support.n) for f in factors)
    if not _is_chain(fs):
        return False
    if not fs:
        return True
    return bruhat_leq(support.v, fs[0]) and bruhat_leq(fs[-1], support.w)


class Straightener:
    """Normal forms on one window, with a count of the rewrite work.

    ``batch(rows)`` is the one entry point: it straightens many integer
    combinations of monomials in one rewrite pass, and ``steps`` counts the
    rewrites of every pass made.  Nothing is kept between passes, so to
    share work, straighten related polynomials as rows of one batch.

    The expansion rewrites an incomparable factor pair ``(a,b), (c,d)``
    (``a < c < d < b``) into ``(a,d)(c,b) - (a,c)(d,b)``.  Every rewrite
    strictly lowers the measure ``sum (j - i)^2`` over the factors, so one
    pass takes the pending monomials from a heap in decreasing measure.  A
    pending monomial carries a sparse ``{row: coefficient}`` vector, and all
    contributions to it from every row are summed before it is rewritten:
    each distinct monomial is rewritten once per pass for all rows.  An
    entry that cancels to zero is dropped, and a monomial whose vector is
    empty is not rewritten.  A factor outside ``[v, w]`` kills its monomial
    as soon as it appears, at the input and after every rewrite: ``p_t``
    lies in the window's ideal for such ``t``, and the normal form is
    unique.  The rewritten pair is the leftmost bad adjacent one of the
    lexicographically sorted factors; an adjacent pair is bad exactly when
    the second entry of the first factor exceeds that of the next.
    """

    def __init__(self, support: SupportRange) -> None:
        self.support = support
        self.steps = 0

    def batch(
        self, rows: Mapping[Row, Mapping[tuple[Pair, ...], int]]
    ) -> dict[Row, dict[Monomial, int]]:
        """Normal forms of many integer combinations of monomials, in one
        rewrite pass.

        ``rows`` maps each row key to ``{factors: int}``, the factors of a
        monomial in any order; the result maps each row key to its
        expansion ``{chain: int}``, with no zero coefficients.  The pass
        only adds and negates coefficients, so ``Fraction`` ones work too.
        A monomial met in several rows, as a start or after a rewrite, is
        rewritten once for all of them.  A factor that is not an index pair
        on ``n`` raises ``ValueError`` before any rewrite.

        The pass itself works on columns: it returns each standard monomial
        with its ``{row: coefficient}`` vector, and ``batch`` transposes
        these into rows.  The product matrix of
        :func:`~schubert_git.invariants.product_normal_forms` keeps the
        columns instead and feeds them to the next degree's pass.

        >>> engine = Straightener(SupportRange.full(6))
        >>> nf = engine.batch({
        ...     "a": {((3, 4), (2, 5)): 1},
        ...     "b": {((2, 5), (3, 4)): 2, ((2, 3), (4, 5)): 2},
        ... })
        >>> nf["a"]
        {((2, 4), (3, 5)): 1, ((2, 3), (4, 5)): -1}
        >>> nf["b"]
        {((2, 4), (3, 5)): 2}
        >>> engine.steps
        1
        """
        pending: dict[Monomial, dict[Row, int]] = {}
        for row, terms in rows.items():
            for factors, coeff in terms.items():
                vec = pending.setdefault(monomial(factors), {})
                coeff += vec.get(row, 0)
                if coeff:
                    vec[row] = coeff
                else:
                    vec.pop(row, None)
        for t in {t for mono in pending for t in mono}:
            check_pair(t, self.support.n)
        out: dict[Row, dict[Monomial, int]] = {row: {} for row in rows}
        for mono, vec in self._pass(pending).items():
            for row, coeff in vec.items():
                out[row][mono] = coeff
        return out

    def _pass(
        self, pending: dict[Monomial, dict[Row, int]]
    ) -> dict[Monomial, dict[Row, int]]:
        """The one rewrite loop: straighten the sorted monomials in
        ``pending``, each with its ``{row: coefficient}`` vector, and return
        the standard monomials reached with their nonzero vectors, in the
        order the loop finishes them.  ``pending`` and its vectors are
        consumed; the factors are trusted to be index pairs on ``n``."""
        (v0, v1), (w0, w1) = self.support.v, self.support.w
        limit = MAX_REWRITE_STEPS
        steps = 0
        done: dict[Monomial, dict[Row, int]] = {}
        # Pending monomials wait in buckets by measure, and the heap holds
        # the distinct measures, negated, so the largest is taken first.
        # Rewrites only lower the measure, so a bucket is taken whole.
        buckets: dict[int, list[Monomial]] = {}
        for mono in pending:
            measure = 0
            for i, j in mono:
                if not (v0 <= i <= w0 and v1 <= j <= w1):
                    break
                measure += (j - i) ** 2
            else:
                buckets.setdefault(measure, []).append(mono)
        heap = [-measure for measure in buckets]
        heapify(heap)
        while heap:
            measure = -heappop(heap)
            for mono in buckets.pop(measure):
                vec = pending.pop(mono)
                if not vec:
                    continue
                for k in range(len(mono) - 1):
                    if mono[k][1] > mono[k + 1][1]:
                        break
                else:
                    done[mono] = vec
                    continue
                steps += 1
                if steps > limit:
                    self.steps += steps
                    raise StraighteningLimit(
                        f"exceeded {limit} rewrite steps in one pass, at {mono}"
                    )
                (a, b), (c, d) = mono[k], mono[k + 1]
                rest = mono[:k] + mono[k + 2 :]
                # Against (a,b)(c,d), the measure of (a,d)(c,b) is lower by
                # 2(c-a)(b-d) and that of (a,c)(d,b) by 2(d-a)(b-c).  The
                # first keeps every entry in its place, so it stays in the
                # window; the second makes c a second entry and d a first one.
                products = [((a, d), (c, b), 1, measure - 2 * (c - a) * (b - d))]
                if v1 <= c and d <= w0:
                    drop = 2 * (d - a) * (b - c)
                    products.append(((a, c), (d, b), -1, measure - drop))
                for x, y, sign, after in products:
                    factors = list(rest)
                    insort(factors, x)
                    insort(factors, y)
                    new = tuple(factors)
                    old = pending.get(new)
                    if old is None:
                        # vec is no longer pending, so the first product may
                        # take it over: the second only reads it, and nothing
                        # changes it before it is popped again.
                        pending[new] = vec if sign > 0 else {r: -e for r, e in vec.items()}
                        bucket = buckets.get(after)
                        if bucket is None:
                            buckets[after] = [new]
                            heappush(heap, -after)
                        else:
                            bucket.append(new)
                        continue
                    for r, e in vec.items():
                        e = old.get(r, 0) + sign * e
                        if e:
                            old[r] = e
                        else:
                            del old[r]
        self.steps += steps
        return done


def straighten(p: Poly, support: SupportRange) -> Poly:
    """Unique expansion of ``p`` in the standard-monomial basis of the
    window; the identity modulo the defining ideal of the restriction.

    A one-row :meth:`Straightener.batch` on a fresh engine.  To straighten
    many polynomials on one window, pass them as rows of one ``batch``.

    >>> from .plucker import pmono, format_plucker
    >>> nf = straighten(pmono([(2, 5), (3, 4)]), SupportRange.full(6))
    >>> format_plucker(nf)
    '-p[2,3]*p[4,5] + p[2,4]*p[3,5]'
    """
    return Poly(Straightener(support).batch({0: p.terms})[0])


def standard_basis(support: SupportRange, degree: int) -> list[Monomial]:
    """All standard monomials of the given degree for the window, as
    chains enumerated in lexicographic order.

    >>> len(standard_basis(SupportRange.full(4), 2))
    20
    """
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    variables = support.variables()
    out: list[Monomial] = []

    def extend(chain: list[Pair], start: int, remaining: int) -> None:
        if remaining == 0:
            out.append(tuple(chain))
            return
        for idx in range(start, len(variables)):
            t = variables[idx]
            if chain and not bruhat_leq(chain[-1], t):
                continue
            chain.append(t)
            extend(chain, idx, remaining - 1)
            chain.pop()

    extend([], 0, degree)
    return out
