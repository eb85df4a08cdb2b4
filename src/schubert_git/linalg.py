"""Exact linear algebra over the rationals.

One sparse forward eliminator serves every rank and kernel in the package.
A row is a ``{column: value}`` dict of its nonzero entries (a stored zero
is dropped on input).  Columns are never permuted: a pivot is always the
leftmost nonzero entry of its row, scaled to 1.  :func:`rank` stops at this
echelon form; :func:`left_nullspace` adds one back-substitution sweep, which
gives the unique reduced row echelon form of the row space.  All arithmetic
is exact; there is no modular step.  Integral values are held as ``int``
and only the others as ``Fraction``, since the matrices met here are
integral and ``int`` arithmetic is many times faster.

The sparse row is the one matrix format, in and out: :func:`rank` and
:func:`left_nullspace` take a list of rows, and the kernel comes back as
sparse ``{row index: value}`` vectors.  Column keys are any integers;
neither result depends on how the columns are numbered.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Iterable

Scalar = Fraction | int
SparseRow = dict[int, Scalar]


def _exact(x: Scalar) -> Scalar:
    """``x`` as an ``int`` when it is integral, else as a ``Fraction``."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _scaled(row: SparseRow, scale: Scalar) -> SparseRow:
    """``row / scale`` with every integral entry held as an ``int``, so
    later eliminations with the row stay on ``int`` arithmetic where they
    can."""
    if scale == 1:
        if all(type(v) is int for v in row.values()):
            return row
        return {c: _exact(v) for c, v in row.items()}
    scale = Fraction(scale)
    return {c: _exact(v / scale) for c, v in row.items()}


def _echelon(rows: Iterable[SparseRow]) -> dict[int, SparseRow]:
    """A row echelon form of the span of ``rows``, as ``{pivot column:
    row}``: each row's leftmost entry is a 1 in its pivot column, and no two
    rows share one.  The input rows are not modified.

    A single-entry row is a unit pivot, taken up front, and its column is
    dropped from every other row with no arithmetic.  The other rows go
    sparsest first, which keeps fill-in small.  A row is reduced from the
    left, its columns taken from a heap: each pivot column met is cleared
    with that pivot's row, which adds only columns to its right, until the
    leftmost column left is no pivot's, or the row is zero.
    """
    sources = sorted(rows, key=len)
    units = {c for row in sources if len(row) == 1 for c, v in row.items() if v}
    pivots: dict[int, SparseRow] = {c: {c: 1} for c in units}
    for source in sources:
        if len(source) < 2:
            continue
        row = {c: v for c, v in source.items() if v and c not in units}
        heap = list(row)
        heapify(heap)
        while heap:
            lead = heappop(heap)
            factor = row.get(lead)
            if factor is None:
                continue
            pivot = pivots.get(lead)
            if pivot is None:
                break
            for c, v in pivot.items():
                x = row.get(c)
                if x is None:
                    row[c] = -factor * v
                    heappush(heap, c)
                else:
                    x -= factor * v
                    if x:
                        row[c] = x
                    else:
                        del row[c]
        else:
            continue
        pivots[lead] = _scaled(row, row[lead])
    return pivots


def _rref(rows: Iterable[SparseRow]) -> dict[int, SparseRow]:
    """The reduced row echelon form of the span of ``rows``, as ``{pivot
    column: row}``: :func:`_echelon`, then one back-substitution sweep in
    decreasing pivot order, so each pivot row is cleared only with rows that
    are already reduced.  The RREF is unique, so it does not depend on the
    order the rows came in."""
    pivots = _echelon(rows)
    for p in sorted(pivots, reverse=True):
        row = pivots[p]
        for col in [c for c in row if c != p and c in pivots]:
            factor = row[col]
            for c, v in pivots[col].items():
                x = row.get(c, 0) - factor * v
                if x:
                    row[c] = x
                else:
                    del row[c]
        pivots[p] = _scaled(row, 1)
    return pivots


def rank(rows: list[SparseRow]) -> int:
    """Exact rank over Q of the matrix with the given sparse rows."""
    return len(_echelon(rows))


def left_nullspace(rows: list[SparseRow]) -> list[SparseRow]:
    """Basis of ``{c : c M = 0}`` in reduced row echelon form, as sparse
    ``{row index: value}`` vectors with no zero entries, by leading index.

    The kernel's pivots are the rows of ``M`` that depend on the rows after
    them.  Eliminating the columns of ``M`` with its row indices reversed
    finds them as the free columns; the identity on the free columns then
    makes each basis vector a reduced-row-echelon row in the original order.
    The kernel does not depend on how the columns of ``M`` are numbered.

    >>> left_nullspace([{0: 2, 7: 4}, {0: 1, 7: 2}, {}, {3: 1}])
    [{0: 1, 1: -2}, {2: 1}]
    """
    last = len(rows) - 1
    columns: dict[int, SparseRow] = {}
    for r, row in enumerate(rows):
        for c, x in row.items():
            columns.setdefault(c, {})[last - r] = x
    pivots = _rref(columns.values())
    kernel = {last - f: {last - f: 1} for f in range(last + 1) if f not in pivots}
    for p, row in pivots.items():
        for f, v in row.items():
            if f != p:
                kernel[last - f][last - p] = -v
    return [kernel[lead] for lead in sorted(kernel)]
