"""Exact linear algebra over the rationals.

One sparse Gauss–Jordan eliminator serves every rank and kernel in the
package.  A row is a ``{column: value}`` dict of its nonzero entries (a
stored zero is dropped on input), and every pivot row is kept fully reduced (leading 1, zeros in all
other pivot columns), so the reduced row echelon form comes out directly.
Columns are never permuted: a pivot is always the leftmost nonzero entry of
its row, so the result is the unique RREF of the row space.  All arithmetic
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
from typing import Iterable

Scalar = Fraction | int
SparseRow = dict[int, Scalar]


def _exact(x: Scalar) -> Scalar:
    """``x`` as an ``int`` when it is integral, else as a ``Fraction``."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _rref(rows: Iterable[SparseRow]) -> dict[int, SparseRow]:
    """Reduced row echelon form of the span of ``rows``, as
    ``{pivot column: row}``.  The input rows are not modified.

    The RREF does not depend on the order rows are taken in, so the
    sparsest go first: that keeps the fill-in of the pivot rows small.
    """
    pivots: dict[int, SparseRow] = {}
    for source in sorted(rows, key=len):
        row = {c: v for c, v in source.items() if v}
        for col in [c for c in row if c in pivots]:
            factor = row[col]
            for c, v in pivots[col].items():
                x = row.get(c, 0) - factor * v
                if x:
                    row[c] = x
                else:
                    del row[c]
        if not row:
            continue
        lead = min(row)
        scale = Fraction(row[lead])
        if scale != 1:
            row = {c: _exact(v / scale) for c, v in row.items()}
        for other in pivots.values():
            factor = other.get(lead)
            if factor:
                for c, v in row.items():
                    x = other.get(c, 0) - factor * v
                    if x:
                        other[c] = x
                    else:
                        del other[c]
        pivots[lead] = row
    return pivots


def rank(rows: list[SparseRow]) -> int:
    """Exact rank over Q of the matrix with the given sparse rows."""
    return len(_rref(rows))


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
