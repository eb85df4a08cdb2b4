"""Test-only reference build of the product matrix.

This is the per-combination build the package used before product rows
became integer ids.  Each degree is one :meth:`Straightener.batch` whose
rows are keyed by index-combination tuples, so every normal form comes back
as a ``{monomial: coeff}`` dict; the matrix sorts the combinations and
numbers a column the first time its monomial appears.  It shares the
rewrite engine with the package and differs in all the bookkeeping around
it: row keys, the transposition back into rows, and the column numbering.
"""

from __future__ import annotations

from schubert_git.invariants import GeneratorSet, invariant_basis
from schubert_git.poly import Monomial
from schubert_git.straightening import Straightener, SupportRange


def reference_product_normal_forms(
    support: SupportRange, d: int
) -> tuple[GeneratorSet, dict[tuple[int, ...], dict[Monomial, int]]]:
    """The generators and a map from each nondecreasing combination of
    0-based generator indices to its product's normal form."""
    gens = invariant_basis(support, 1)
    straightener = Straightener(support)
    level: dict[tuple[int, ...], dict[Monomial, int]] = {(): {(): 1}}
    for _ in range(d):
        rows: dict[tuple[int, ...], dict[Monomial, int]] = {}
        for combo, nf in level.items():
            for idx in range(combo[-1] if combo else 0, len(gens)):
                gen = gens.monomials[idx]
                rows[combo + (idx,)] = {mono + gen: coeff for mono, coeff in nf.items()}
        level = straightener.batch(rows)
    return gens, level


def reference_product_matrix(
    support: SupportRange, d: int
) -> tuple[list[tuple[int, ...]], list[dict[int, int]]]:
    """The combinations in lexicographic order and their sparse rows, a
    column numbered the first time its monomial appears."""
    _, nfs = reference_product_normal_forms(support, d)
    combos = sorted(nfs)
    index: dict[Monomial, int] = {}
    rows = [
        {index.setdefault(mono, len(index)): coeff for mono, coeff in nfs[combo].items()}
        for combo in combos
    ]
    return combos, rows
