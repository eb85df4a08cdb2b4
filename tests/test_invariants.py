import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, prod

import pytest

from schubert_git import case_studies, invariants, linalg
from schubert_git.case_studies import projective_generator, toric_generator
from schubert_git.formal import format_formal
from schubert_git.invariants import (
    content,
    degree_one_generation_check,
    hilbert_count,
    invariant_basis,
    multiplication_kernel,
    product_normal_forms,
    projective_window_products_standard,
)
from schubert_git.plucker import evaluate, pmono, random_schubert_point
from schubert_git.poly import Poly
from schubert_git.straightening import Straightener, SupportRange, is_standard, straighten
from schubert_git.weyl import bruhat_leq, coset_reps

from reference_products import reference_product_matrix, reference_product_normal_forms
from reference_straightening import reference_straighten


def test_content_examples():
    assert content(((1, 4), (2, 5), (3, 6)), 6) == (1, 1, 1, 1, 1, 1)
    assert content(((1, 2), (1, 2)), 4) == (2, 2, 0, 0)
    for n in (6, 8, 10):
        diag = tuple((k, n // 2 + k) for k in range(1, n // 2 + 1))
        assert content(diag, n) == (1,) * n


def _brute_force_invariants(support: SupportRange, d: int):
    length = d * support.n // 2
    target = (d,) * support.n
    out = []
    for multiset in combinations_with_replacement(support.variables(), length):
        if content(multiset, support.n) != target:
            continue
        if is_standard(multiset, support):
            out.append(tuple(sorted(multiset)))
    return out


def test_invariant_basis_brute_force_oracle(g26_support, x68_support):
    # Independent enumeration over unordered factor multisets.
    assert sorted(invariant_basis(g26_support, 1).monomials) == sorted(
        _brute_force_invariants(g26_support, 1)
    )
    assert sorted(invariant_basis(g26_support, 2).monomials) == sorted(
        _brute_force_invariants(g26_support, 2)
    )
    assert sorted(invariant_basis(x68_support, 1).monomials) == sorted(
        _brute_force_invariants(x68_support, 1)
    )
    small = SupportRange.schubert(6, (4, 6))
    assert sorted(invariant_basis(small, 2).monomials) == sorted(
        _brute_force_invariants(small, 2)
    )


def test_invariant_basis_matches_recorded_generators(
    g26_support, x68_support, x710_support
):
    for support, case in (
        (g26_support, case_studies.G26),
        (x68_support, case_studies.X68),
        (x710_support, case_studies.X710),
    ):
        gens = invariant_basis(support, 1)
        assert gens.labels == tuple(label for label, _ in case.generators)
        assert gens.monomials == case.generator_monomials
        for mono in gens.monomials:
            assert is_standard(mono, support)
            assert content(mono, support.n) == (1,) * support.n


def test_hilbert_counts(g26_support, x68_support, x710_support):
    assert hilbert_count(g26_support, 1) == 5
    assert hilbert_count(g26_support, 2) == 15
    assert hilbert_count(x68_support, 1) == 9
    assert hilbert_count(x68_support, 2) == 40
    assert hilbert_count(x710_support, 1) == 14
    for n in (6, 8, 10):
        assert hilbert_count(SupportRange.schubert(n, (n // 2, n)), 1) == 1
        assert hilbert_count(SupportRange.schubert(n, (n // 2 + 1, n)), 1) == n // 2


# Largest degree drawn per n, so that the enumerated oracle stays small.
_MAX_RANDOM_DEGREE = {4: 4, 6: 4, 8: 3, 10: 2, 12: 2}


def _random_window(rng: random.Random, n: int) -> SupportRange:
    # Index 1 only fits the top row and index n only the bottom row, so a
    # nonzero count needs v_0 = 1 and w_1 = n.  Most draws keep both; the
    # rest are any Richardson window, v_0 > 1 among them.
    if rng.random() < 0.8:
        return SupportRange(n, (1, rng.randint(2, n)), (rng.randint(1, n - 1), n))
    pairs = coset_reps(n, 2)
    v = rng.choice(pairs)
    w = rng.choice([t for t in pairs if bruhat_leq(v, t)])
    return SupportRange(n, v, w)


def test_hilbert_count_matches_enumeration_on_random_windows():
    rng = random.Random(7)
    shifted = nonzero = 0
    for _ in range(1200):
        n = rng.choice(sorted(_MAX_RANDOM_DEGREE))
        d = rng.randint(1, _MAX_RANDOM_DEGREE[n])
        support = _random_window(rng, n)
        count = hilbert_count(support, d)
        assert count == len(invariant_basis(support, d)), (support, d)
        shifted += support.v[0] > 1
        nonzero += count > 0
    assert shifted >= 100 and nonzero >= 300


def test_degree_one_hilbert_count_matches_enumeration_on_every_window():
    windows = 0
    for n in range(4, 11, 2):
        pairs = coset_reps(n, 2)
        for v in pairs:
            for w in pairs:
                if bruhat_leq(v, w):
                    support = SupportRange(n, v, w)
                    assert hilbert_count(support, 1) == len(invariant_basis(support, 1)), support
                    windows += 1
    assert windows == 1286


def _kostka_two_row(n: int, d: int) -> int:
    """K_{(dn/2, dn/2), (d^n)} by Jacobi-Trudi: M(dn/2) - M(dn/2 + 1), where
    M(a) counts the vectors in [0, d]^n with sum a."""
    ways = [1]
    for _ in range(n):
        ways = [sum(ways[max(0, a - d) : a + 1]) for a in range(len(ways) + d)]
    return ways[d * n // 2] - ways[d * n // 2 + 1]


@pytest.mark.parametrize("n", range(4, 25, 2))
def test_full_window_hilbert_counts_are_kostka_numbers(n):
    for d in range(1, 5):
        assert hilbert_count(SupportRange.full(n), d) == _kostka_two_row(n, d)


def test_unique_invariant_on_minimal_semistable():
    for n in (6, 8, 10):
        gens = invariant_basis(SupportRange.schubert(n, (n // 2, n)), 1)
        diag = tuple((k, n // 2 + k) for k in range(1, n // 2 + 1))
        assert gens.monomials == (diag,)


def test_projective_window_generators():
    assert projective_generator(6, 2) == tuple(sorted([(1, 2), (3, 5), (4, 6)]))
    assert projective_generator(6, 4) == tuple(sorted([(1, 4), (2, 5), (3, 6)]))
    for n in (6, 8, 10):
        for k in range(1, n // 2 + 1):
            support = SupportRange(n, (1, k + 1), (n // 2 + 1, n))
            gens = invariant_basis(support, 1)
            expected = tuple(
                projective_generator(n, t) for t in range(k + 1, n // 2 + 2)
            )
            assert gens.monomials == expected
            assert gens.labels == tuple(
                f"X_{t}" for t in range(k + 1, n // 2 + 2)
            )


@pytest.mark.parametrize("n", [6, 8, 10])
def test_projective_window_dimension_formula(n):
    for k in range(2, n // 2 + 1):
        support = SupportRange(n, (1, k + 1), (n // 2 + 1, n))
        for d in (1, 2, 3):
            assert hilbert_count(support, d) == comb(n // 2 - k + d, d)


@pytest.mark.parametrize("n", [6, 8, 10])
def test_projective_window_products_standard(n):
    for k in range(2, n // 2 + 1):
        assert projective_window_products_standard(n, k, d=2)
        assert projective_window_products_standard(n, k, d=3)


def test_toric_window_basis():
    for n, k in ((8, 2), (10, 2), (10, 3)):
        support = SupportRange(n, (1, k + 1), (n // 2 + 2, n))
        gens = invariant_basis(support, 1)
        expected = {
            toric_generator(n, i, j)
            for i in range(k + 1, n // 2 + 2)
            for j in range(i + 1, n // 2 + 3)
        }
        assert set(gens.monomials) == expected
        for mono in gens.monomials:
            assert is_standard(mono, support)


def test_widest_toric_window_is_projective_plane():
    # At k = n/2 - 1 the window has three generators whose powers are all
    # standard, so the quotient is a projective plane.
    for n in (6, 8, 10):
        k = n // 2 - 1
        support = SupportRange(n, (1, k + 1), (n // 2 + 2, n))
        gens = invariant_basis(support, 1)
        assert len(gens) == 3
        for d in (2, 3):
            products = set()
            for combo in combinations_with_replacement(gens.monomials, d):
                product = tuple(sorted(sum(combo, ())))
                assert is_standard(product, support)
                products.add(product)
            assert len(products) == comb(d + 2, 2)
            assert hilbert_count(support, d) == comb(d + 2, 2)


def test_invariant_basis_parameter_errors(g26_support):
    with pytest.raises(ValueError):
        invariant_basis(SupportRange.full(5), 1)
    with pytest.raises(ValueError):
        invariant_basis(g26_support, 0)
    with pytest.raises(ValueError):
        multiplication_kernel(g26_support, 4)
    with pytest.raises(ValueError):
        degree_one_generation_check(g26_support, 1)


def test_g26_kernel_degree_two_empty(g26_support):
    assert multiplication_kernel(g26_support, 2) == []


def test_g26_kernel_degree_three_is_hypersurface(g26_support):
    kernel = multiplication_kernel(g26_support, 3)
    assert len(kernel) == 1
    (rel,) = kernel
    (cubic,) = case_studies.G26.presentation
    lead = rel.terms[min(rel.terms)]
    target = cubic.terms[min(cubic.terms)]
    assert rel * target == cubic * lead  # equal up to scalar


def _relation_vector(rel, combos):
    index = {c: i for i, c in enumerate(combos)}
    return {
        index[tuple(sorted(t[1] - 1 for t in mono))]: coeff for mono, coeff in rel.terms.items()
    }


@pytest.mark.parametrize("name,num_gens,expected_dim", [("x68", 9, 5), ("x710", 14, 21)])
def test_kernels_contain_recorded_relations(name, num_gens, expected_dim):
    case = case_studies.CASES[name]
    support = SupportRange(case.n, case.v, case.w)
    kernel = multiplication_kernel(support, 2)
    assert len(kernel) == expected_dim
    combos = list(combinations_with_replacement(range(num_gens), 2))
    kernel_vectors = [_relation_vector(p, combos) for p in kernel]
    base_rank = linalg.rank(kernel_vectors)
    assert base_rank == expected_dim
    for rel in case.presentation:
        vec = _relation_vector(rel, combos)
        assert linalg.rank(kernel_vectors + [vec]) == base_rank


@pytest.mark.parametrize("name", ["g26", "x68", "x710"])
def test_kernel_soundness_and_completeness(name):
    case = case_studies.CASES[name]
    support = SupportRange(case.n, case.v, case.w)
    d = case.presentation_degree
    kernel = multiplication_kernel(support, d)
    # Substitute each generator's monomial for x_k, as the case suites do.
    identities = case_studies.case_kernel_identities(case._replace(presentation=tuple(kernel)))
    matrices = [random_schubert_point(support, seed) for seed in range(20)]
    for identity in identities:
        assert straighten(identity.lhs, support).is_zero
        for A in matrices:
            assert evaluate(identity.lhs, A) == 0
    # Rank-nullity at desk scale, with a row per index combination and a
    # column per invariant standard monomial at most.
    gens, rows = product_normal_forms(support, d)
    assert list(rows) == list(range(comb(len(gens) + d - 1, d)))
    assert len(_column_vectors(rows)) <= hilbert_count(support, d)
    assert linalg.rank(list(rows.values())) + len(kernel) == len(rows)


def _column_vectors(rows) -> list[list[tuple[int, int]]]:
    """The sorted list of a matrix's column vectors, each as its sorted
    ``(row, coeff)`` entries: two matrices with the same rows have equal
    lists exactly when their rows agree up to a renumbering of columns."""
    columns: dict = {}
    for r, row in rows.items():
        for col, coeff in row.items():
            columns.setdefault(col, []).append((r, coeff))
    return sorted(sorted(vec) for vec in columns.values())


@pytest.mark.parametrize(
    "support,d",
    [
        (SupportRange.full(8), 2),
        (SupportRange.full(8), 3),
        (SupportRange(8, (1, 2), (6, 8)), 3),
        (SupportRange(10, (1, 3), (7, 10)), 2),
    ],
)
def test_product_normal_forms_match_per_product_straightening(support, d):
    # Each product straightened on its own, from its whole factor list, by
    # the independent reference loop.  Row r is the r-th combination, and
    # its entries are the normal form's coefficients, each in the column of
    # its monomial; only the numbering of those columns is free.
    gens, rows = product_normal_forms(support, d)
    expected = [
        reference_straighten(pmono([t for idx in combo for t in gens.monomials[idx]]), support)
        for combo in combinations_with_replacement(range(len(gens)), d)
    ]
    assert list(rows) == list(range(len(expected)))
    assert _column_vectors(rows) == _column_vectors(dict(enumerate(nf.terms for nf in expected)))


def test_one_pass_per_degree_rewrites_less_than_one_pass_per_product():
    # Degree-3 rows, one per index combination, each a degree-2 normal form
    # times one more generator: a batch over all of them rewrites fewer
    # monomials than one pass per row.
    support = SupportRange.full(8)
    gens, level = reference_product_normal_forms(support, 2)
    rows = {
        combo + (idx,): {mono + gens.monomials[idx]: c for mono, c in nf.items()}
        for combo, nf in level.items()
        for idx in range(combo[-1], len(gens))
    }
    batch = Straightener(support)
    out = batch.batch(rows)
    one_row_steps = 0
    for key, row in rows.items():
        single = Straightener(support)
        assert single.batch({key: row}) == {key: out[key]}
        one_row_steps += single.steps
    assert 0 < batch.steps < one_row_steps


@pytest.mark.parametrize(
    "support,d",
    [
        (SupportRange(6, (1, 2), (5, 6)), 3),
        (SupportRange(8, (1, 2), (6, 8)), 2),
        (SupportRange(8, (1, 2), (6, 8)), 3),
        (SupportRange(10, (1, 2), (7, 10)), 2),
        (SupportRange.full(8), 2),
        (SupportRange.full(8), 3),
        (SupportRange.full(10), 2),
    ],
    ids=["g26-d3", "x68-d2", "x68-d3", "x710-d2", "full8-d2", "full8-d3", "full10-d2"],
)
def test_product_matrix_matches_per_combination_build(support, d):
    # The integer-row build against the per-combination one: the same rows
    # in the same order up to column numbering, the same rank, and the same
    # relation kernel, read off the oracle's rows as multiplication_kernel
    # reads off its own.
    gens, rows = product_normal_forms(support, d)
    combos, oracle = reference_product_matrix(support, d)
    assert combos == list(combinations_with_replacement(range(len(gens)), d))
    assert list(rows) == list(range(len(combos)))
    assert _column_vectors(rows) == _column_vectors(dict(enumerate(oracle)))
    assert linalg.rank(list(rows.values())) == linalg.rank(oracle)
    monomials = [tuple(("x", i + 1) for i in combo) for combo in combos]
    expected = [
        Poly({monomials[r]: c for r, c in vec.items()}) for vec in linalg.left_nullspace(oracle)
    ]
    assert multiplication_kernel(support, d) == expected


@pytest.mark.parametrize(
    "support,d,steps",
    [
        (SupportRange(6, (1, 2), (5, 6)), 3, 30),
        (SupportRange.full(8), 2, 159),
        (SupportRange(8, (1, 2), (6, 8)), 3, 373),
        (SupportRange.full(10), 2, 4237),
    ],
    ids=["g26-d3", "full8-d2", "x68-d3", "full10-d2"],
)
def test_product_build_rewrite_counts(monkeypatch, support, d, steps):
    # The build makes one engine, and its rewrite count is pinned:
    # rewriting another bad pair, or taking the pending monomials in
    # another order, would in general change it.
    engines = []

    class Counted(Straightener):
        def __init__(self, support: SupportRange) -> None:
            super().__init__(support)
            engines.append(self)

    monkeypatch.setattr(invariants, "Straightener", Counted)
    product_normal_forms(support, d)
    assert [engine.steps for engine in engines] == [steps]


@pytest.mark.parametrize("n,expected_dim", [(8, 14), (10, 300)])
def test_full_window_quadrics(n, expected_dim):
    # Degree-2 relations of the full Gr(2,n)//T: the 14 quadrics of
    # Howard-Millson-Snowden-Vakil at n = 8; at n = 10, 903 products of the
    # 42 generators against 603 invariants leave 300.  Each relation must
    # vanish at a random point of the Grassmannian.
    support = SupportRange.full(n)
    kernel = multiplication_kernel(support, 2)
    assert len(kernel) == expected_dim
    minors = random_schubert_point(support, n).minors()
    values = {
        ("x", k): prod(minors[pair] for pair in mono)
        for k, mono in enumerate(invariant_basis(support, 1).monomials, 1)
    }
    for rel in kernel:
        assert rel.evaluate(values) == 0


def test_degree_one_generation(g26_support, x68_support, x710_support):
    for support in (g26_support, x68_support, x710_support):
        assert degree_one_generation_check(support, 2)
        assert degree_one_generation_check(support, 3)


def test_degree_one_generation_richardson_windows():
    windows = [
        SupportRange(6, (1, 3), (5, 6)),
        SupportRange(6, (1, 4), (4, 6)),
        SupportRange(8, (1, 3), (6, 8)),
        SupportRange(8, (1, 4), (6, 8)),
        SupportRange(10, (1, 3), (7, 10)),
    ]
    for support in windows:
        assert degree_one_generation_check(support, 2)
        assert degree_one_generation_check(support, 3)


def test_kernel_output_format(g26_support):
    kernel = multiplication_kernel(g26_support, 3)
    assert format_formal(kernel[0]) == (
        "x_1*x_2*x_5 - x_1*x_3*x_4 + x_2*x_3*x_4 - x_2*x_3*x_5 - x_3*x_4^2 "
        "+ x_3*x_4*x_5"
    )


def test_invariant_basis_elements_are_invariant_and_standard(x710_support):
    for d in (1, 2):
        gens = invariant_basis(x710_support, d)
        for mono in gens.monomials:
            assert content(mono, 10) == (d,) * 10
            assert is_standard(mono, x710_support)


_PRIME = 2**31 - 1


def _evaluation_rank(monomials, matrices) -> int:
    """Rank (mod a large prime) of the matrix of monomial values at the
    given points; a lower bound for the rank of the monomials in R_d."""
    minors_per_matrix = [A.minors() for A in matrices]
    rows = []
    for mono in monomials:
        row = []
        for minors in minors_per_matrix:
            value = Fraction(1)
            for pair in mono:
                value *= minors[pair]
            row.append(
                value.numerator % _PRIME * pow(value.denominator, _PRIME - 2, _PRIME)
                % _PRIME
            )
        rows.append(row)
    return _rank_mod_prime(rows)


def _rank_mod_prime(rows) -> int:
    """Rank over F_p of rows of residues, by forward elimination."""
    pivots: dict[int, list[int]] = {}
    for row in rows:
        for col, prow in pivots.items():
            f = row[col]
            if f:
                row = [(a - f * b) % _PRIME for a, b in zip(row, prow)]
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is not None:
            inv = pow(row[lead], _PRIME - 2, _PRIME)
            pivots[lead] = [x * inv % _PRIME for x in row]
    return len(pivots)


@pytest.mark.parametrize("name,d", [("g26", 2), ("g26", 3), ("x68", 2), ("x710", 2)])
def test_basis_independence_certified_by_evaluation(name, d):
    # Evaluation at random points gives a straightening-free certificate
    # that the enumerated invariant monomials are linearly independent.
    case = case_studies.CASES[name]
    support = SupportRange(case.n, case.v, case.w)
    basis = invariant_basis(support, d).monomials
    matrices = [
        random_schubert_point(support, seed) for seed in range(len(basis) + 20)
    ]
    assert _evaluation_rank(basis, matrices) == len(basis)


@pytest.mark.parametrize("name,expected_kernel", [("g26", 1), ("x68", 5), ("x710", 21)])
def test_kernel_dimension_cross_validated_by_evaluation(name, expected_kernel):
    # Dual route: the evaluation rank of the generator products bounds the
    # relation space from above without using straightening at all, and the
    # straightening route must land on the same dimension.
    case = case_studies.CASES[name]
    support = SupportRange(case.n, case.v, case.w)
    d = case.presentation_degree
    gens = invariant_basis(support, 1).monomials
    combos = list(combinations_with_replacement(range(len(gens)), d))
    products = [
        tuple(sorted(sum((gens[i] for i in combo), ()))) for combo in combos
    ]
    matrices = [
        random_schubert_point(support, seed) for seed in range(len(combos) + 20)
    ]
    evaluation_rank = _evaluation_rank(products, matrices)
    assert len(combos) - evaluation_rank == expected_kernel
    assert len(multiplication_kernel(support, d)) == expected_kernel
