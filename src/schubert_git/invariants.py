"""Torus-invariant sections on a window: content vectors, invariant
standard-monomial bases, Hilbert counts, relation kernels of the
multiplication maps, and the degree-one generation test.

A monomial of Pluecker degree ``d*n/2`` is torus invariant for the degree
``d`` polarization exactly when every row index ``1..n`` occurs ``d``
times among its factors, i.e. its content vector is ``(d, ..., d)``.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Callable

from . import case_studies, linalg
from .poly import Monomial, Poly
from .straightening import Coded, Straightener, SupportRange
from .weyl import Pair, check_pair


def content(factors: Monomial, n: int) -> tuple[int, ...]:
    """Occurrence counts of each row index 1..n among the factors.

    >>> content(((1, 4), (2, 5), (3, 6)), 6)
    (1, 1, 1, 1, 1, 1)
    """
    counts = [0] * n
    for pair in factors:
        check_pair(pair, n)
        counts[pair[0] - 1] += 1
        counts[pair[1] - 1] += 1
    return tuple(counts)


class GeneratorSet:
    """Labeled invariant standard monomials of one degree on a window."""

    __slots__ = ("labels", "monomials")

    def __init__(self, labels: tuple[str, ...], monomials: tuple[Monomial, ...]) -> None:
        self.labels = labels
        self.monomials = monomials

    def __len__(self) -> int:
        return len(self.monomials)


def _enumerate_invariant_chains(
    support: SupportRange, d: int, leaf: Callable[[list[Pair]], None]
) -> None:
    """Depth-first chain extension with content pruning; hands each
    invariant chain to ``leaf``.

    Each new factor must start at the first row index whose count is still
    below ``d``: later factors are componentwise larger, so a skipped index
    could never be completed.  Indices below the previous factor's start
    are therefore complete, and the search for the next start begins there.
    """
    n, v, w = support.n, support.v, support.w
    length = d * n // 2
    counts = [0] * (n + 2)
    counts[n + 1] = -1  # sentinel: the scan below always stops at n + 1
    chain: list[Pair] = []

    def extend(remaining: int, a: int) -> None:
        if remaining == 0:
            leaf(chain)
            return
        while counts[a] >= d:
            a += 1
        prev = chain[-1] if chain else v
        # The next factor (a, b) must dominate prev componentwise, so the
        # forced first entry rules the branch out when it lags behind.
        if a < prev[0] or a > w[0]:
            return
        for b in range(max(a + 1, prev[1]), min(n, w[1]) + 1):
            if counts[b] >= d:
                continue
            counts[a] += 1
            counts[b] += 1
            chain.append((a, b))
            extend(remaining - 1, a)
            chain.pop()
            counts[a] -= 1
            counts[b] -= 1

    extend(length, 1)


def _check_degree(support: SupportRange, d: int) -> None:
    if support.n % 2:
        raise ValueError(f"invariants need even n, got n={support.n}")
    if d < 1:
        raise ValueError(f"polarization degree must be >= 1, got {d}")


def invariant_basis(support: SupportRange, d: int) -> GeneratorSet:
    """All invariant standard monomials of polarization degree ``d``.

    For the windows with a pinned label table (the explicit case studies
    and the projective-space and toric families) the elements are ordered
    and named by that table; otherwise labels are ``m_1, m_2, ...`` in
    enumeration order.
    """
    _check_degree(support, d)
    found: list[Monomial] = []
    _enumerate_invariant_chains(
        support, d, lambda chain: found.append(tuple(chain))
    )
    table = case_studies.generator_labels(support.n, support.v, support.w) if d == 1 else None
    if table is not None:
        expected = {mono: label for label, mono in table}
        if set(found) != set(expected):
            raise RuntimeError(
                f"enumerated degree-1 invariants disagree with the pinned "
                f"label table for window {support}: "
                f"enumerated {len(found)}, pinned {len(expected)}"
            )
        ordered = tuple(mono for _, mono in table)
        labels = tuple(label for label, _ in table)
        return GeneratorSet(labels, ordered)
    labels = tuple(f"m_{k}" for k in range(1, len(found) + 1))
    return GeneratorSet(labels, tuple(found))


def hilbert_count(support: SupportRange, d: int) -> int:
    """Dimension of the degree-d invariant section space of the window.

    An invariant standard monomial ``(a_1, b_1) <= ... <= (a_m, b_m)``
    (``m = d*n/2``) is a two-row semistandard tableau of content
    ``(d, ..., d)``: the a's are its top row and the b's its bottom row, so
    ``a_i < b_i`` is column strictness, and the window bounds each row's
    entries, ``v_0 <= a_i <= w_0`` and ``v_1 <= b_i <= w_1``.  Every degree,
    one included, counts these tableaux value by value, in O(n*m*d) steps:
    after the values up to k the state is the number r of top-row entries
    (the bottom row holds ``d*k - r``), and value k puts x copies in the
    top row and ``d - x`` in the bottom row.  The columns stay strict iff
    the new bottom count is at most the old top count, ``d*k - r - x <= r``.

    >>> hilbert_count(SupportRange.full(16), 3)
    8976188
    """
    _check_degree(support, d)
    n, (v0, v1), (w0, w1) = support.n, support.v, support.w
    m = d * n // 2
    ways = [1] + [0] * m  # ways[r]: partial tableaux with r top-row entries
    for k in range(1, n + 1):
        lo = 0 if v1 <= k <= w1 else d  # x < d puts k in the bottom row
        hi = d if v0 <= k <= w0 else 0  # x > 0 puts k in the top row
        nxt = [0] * (m + 1)
        for r, count in enumerate(ways):
            if count:
                for x in range(max(lo, d * k - 2 * r), min(hi, m - r) + 1):
                    nxt[r + x] += count
        ways = nxt
    return ways[m]


def product_normal_forms(
    support: SupportRange, d: int
) -> tuple[GeneratorSet, dict[int, linalg.SparseRow]]:
    """Straightened d-fold products of the degree-one generators, as the
    sparse rows of the product matrix.

    Returns the generator set and a map from each row id ``r`` to its
    ``{column: int}`` row.  Row ``r`` is the product over the ``r``-th
    nondecreasing combination of 0-based generator indices in lexicographic
    order, the ``r``-th item of ``combinations_with_replacement(range(g),
    d)``.  A column is a standard monomial, numbered once after the last
    rewrite pass in no promised order; neither the rank nor the left kernel
    depends on that numbering.

    Products are built one factor at a time, so partial products are
    shared, and each degree is one pass of the rewrite loop behind
    :meth:`Straightener.batch`.  The pass returns each standard
    monomial with its ``{row: coeff}`` column vector, and these go straight
    into the next degree's pending set: the monomial times generator
    ``idx`` carries the rows whose combination ends at or below ``idx``,
    each renamed to the row of that combination extended by ``idx``.  No
    row is ever held as a ``{monomial: coeff}`` dict.  The generators are
    coded once into the pass's integer codes, and the monomials stay coded
    from degree to degree: the columns are numbered without ever being
    decoded into index pairs.
    """
    gens = invariant_basis(support, 1)
    g = len(gens)
    straightener = Straightener(support)
    coded = [straightener._encode(gen) for gen in gens.monomials]
    columns: dict[Coded, dict[int, int]] = {(): {0: 1}}
    last = [0]  # per row: the last index of its combination, 0 for ()
    for _ in range(d):
        # The rows extending row r are numbered offset[r] + idx for idx in
        # range(last[r], g): row by row, they keep lexicographic order.
        offset: list[int] = []
        extended: list[int] = []
        for lo in last:
            offset.append(len(extended) - lo)
            extended.extend(range(lo, g))
        pending: dict[Coded, dict[int, int]] = {}
        for mono, vec in columns.items():
            for idx, gen in enumerate(coded):
                new = {offset[r] + idx: c for r, c in vec.items() if last[r] <= idx}
                if not new:
                    continue
                key = tuple(sorted(mono + gen))
                # The row ids from different (mono, idx) are distinct: idx is
                # part of the row, and mono * gen determines mono.
                if key in pending:
                    pending[key].update(new)
                else:
                    pending[key] = new
        columns = straightener._pass(pending)
        last = extended
    rows: list[linalg.SparseRow] = [{} for _ in last]
    # Popping frees each column vector as soon as its entries are in rows.
    for col in range(len(columns)):
        _, vec = columns.popitem()
        for r, coeff in vec.items():
            rows[r][col] = coeff
    return gens, dict(enumerate(rows))


def _product_matrix(
    support: SupportRange, d: int
) -> tuple[GeneratorSet, list[linalg.SparseRow]]:
    """The generators and the rows of :func:`product_normal_forms` as the
    list :mod:`linalg` takes; list index ``r`` is row ``r``, the ``r``-th
    nondecreasing index combination in lexicographic order."""
    gens, rows = product_normal_forms(support, d)
    return gens, list(rows.values())


def multiplication_kernel(support: SupportRange, d_target: int) -> list[Poly]:
    """Kernel of the multiplication map from degree-``d_target`` monomials
    in the degree-one generators onto the invariant sections.

    Returns a reduced-row-echelon basis of the relations, as formal
    polynomials in ``x_k`` (``x_k`` standing for the k-th generator),
    with monomial columns in lexicographic order.
    """
    if d_target not in (2, 3):
        raise ValueError(f"relation degree must be 2 or 3, got {d_target}")
    gens, rows = _product_matrix(support, d_target)
    # Each combo is nondecreasing, so its x tokens are already a sorted
    # monomial, and distinct combos give distinct monomials.
    monomials = [
        tuple(("x", i + 1) for i in combo)
        for combo in combinations_with_replacement(range(len(gens)), d_target)
    ]
    return [
        Poly({monomials[r]: c for r, c in vec.items()})
        for vec in linalg.left_nullspace(rows)
    ]


def degree_one_generation_check(support: SupportRange, d: int) -> bool:
    """True iff d-fold products of degree-one invariants span the whole
    degree-d invariant space.

    The certificate is the exact rank over Q of the product matrix, whose
    rows are the products' normal forms in the standard invariant basis;
    generation holds iff that rank equals the Hilbert count.
    """
    if d < 2:
        raise ValueError(f"generation degree must be >= 2, got {d}")
    _, rows = _product_matrix(support, d)
    return linalg.rank(rows) == hilbert_count(support, d)


def projective_window_products_standard(n: int, k: int, d: int = 2) -> bool:
    """Polynomiality witness for the projective-space windows: all d-fold
    products of the X_t generators are already standard and distinct."""
    from .straightening import is_standard

    support = SupportRange(n, (1, k + 1), (n // 2 + 1, n))
    gens = invariant_basis(support, 1)
    seen: set[Monomial] = set()
    for combo in combinations_with_replacement(range(len(gens)), d):
        product: tuple = ()
        for idx in combo:
            product = tuple(sorted(product + gens.monomials[idx]))
        if not is_standard(product, support) or product in seen:
            return False
        seen.add(product)
    return True
