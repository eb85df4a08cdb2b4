import pickle
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from schubert_git.plucker import evaluate, pmono, pvar, random_schubert_point
from schubert_git.poly import Poly
from schubert_git import straightening
from schubert_git.straightening import (
    StraighteningLimit,
    Straightener,
    SupportRange,
    is_standard,
    standard_basis,
    straighten,
)
from schubert_git.invariants import content
from schubert_git.weyl import coset_reps

from conftest import random_pair, random_poly
from reference_straightening import reference_straighten


def test_support_range_validation():
    with pytest.raises(ValueError):
        SupportRange(6, (2, 5), (3, 4))
    with pytest.raises(ValueError):
        SupportRange(6, (1, 2), (5, 7))
    assert SupportRange.full(6) == SupportRange(6, (1, 2), (5, 6))


def test_support_range_is_an_immutable_value():
    full = SupportRange.full(6)
    same = SupportRange(n=6, v=(1, 2), w=(5, 6))
    assert full == same and hash(full) == hash(same)
    assert full != SupportRange(6, (1, 3), (5, 6)) and full != (6, (1, 2), (5, 6))
    assert len({full, same, SupportRange.schubert(6, (4, 6))}) == 2
    assert repr(full) == "SupportRange(n=6, v=(1, 2), w=(5, 6))"
    with pytest.raises(AttributeError, match="cannot assign to field 'n'"):
        full.n = 8
    with pytest.raises(AttributeError):
        full.extra = 1
    with pytest.raises(AttributeError):
        del full.w
    assert pickle.loads(pickle.dumps(full)) == full


def test_is_standard_examples(g26_support):
    assert is_standard([(1, 4), (2, 5), (3, 6)], g26_support)
    assert not is_standard([(1, 4), (2, 3)], SupportRange.full(4))
    # Sorting is up to the test: factor order must not matter.
    assert is_standard([(3, 6), (1, 4), (2, 5)], g26_support)
    assert is_standard([], g26_support)


def test_is_standard_respects_window():
    support = SupportRange(6, (1, 3), (4, 6))
    assert is_standard([(1, 3), (2, 4)], support)
    assert not is_standard([(1, 2), (3, 4)], support)  # (1,2) below the window
    assert not is_standard([(1, 3), (5, 6)], support)  # (5,6) above the window


def test_straighten_displayed_instances(g26_support):
    nf = straighten(pmono([(2, 5), (3, 4)]), g26_support)
    assert nf == pmono([(2, 4), (3, 5)]) - pmono([(2, 3), (4, 5)])
    nf = straighten(pmono([(1, 4), (2, 3)]), SupportRange.full(4))
    assert nf == pmono([(1, 3), (2, 4)]) - pmono([(1, 2), (3, 4)])
    already = pmono([(1, 2), (3, 4)])
    assert straighten(already, SupportRange.full(4)) == already


def test_straighten_kills_variables_outside_window():
    support = SupportRange.schubert(6, (3, 6))
    assert straighten(pvar(4, 5), support).is_zero
    # p[1,4]p[2,3] = p[1,3]p[2,4] - p[1,2]p[3,4] and both products survive.
    assert straighten(pvar(1, 4) * pvar(2, 3), support) == pmono(
        [(1, 3), (2, 4)]
    ) - pmono([(1, 2), (3, 4)])


def test_straighten_applies_lower_bound_on_sorted_chains():
    support = SupportRange(6, (1, 3), (5, 6))
    # p[1,4]p[2,3] -> p[1,3]p[2,4] - p[1,2]p[3,4]; the second chain starts
    # at (1,2) which is outside the window.
    nf = straighten(pmono([(1, 4), (2, 3)]), support)
    assert nf == pmono([(1, 3), (2, 4)])


def _standard_multisets_oracle(support: SupportRange, degree: int):
    # Independent oracle: filter all unordered factor multisets.
    out = []
    for multiset in combinations_with_replacement(support.variables(), degree):
        if is_standard(multiset, support):
            out.append(tuple(sorted(multiset)))
    return out


@pytest.mark.parametrize(
    "support,degree,expected",
    [
        (SupportRange.full(4), 1, 6),
        (SupportRange.full(4), 2, 20),
        (SupportRange.schubert(6, (3, 6)), 1, 12),
    ],
)
def test_standard_basis_counts(support, degree, expected):
    basis = standard_basis(support, degree)
    assert len(basis) == expected
    oracle = _standard_multisets_oracle(support, degree)
    assert sorted(basis) == sorted(oracle)
    assert len(set(basis)) == len(basis)


def test_standard_basis_schubert_window_degree_one():
    support = SupportRange.schubert(6, (3, 6))
    basis = standard_basis(support, 1)
    assert {m[0] for m in basis} == {t for t in coset_reps(6, 2) if t[0] <= 3}


def test_standard_basis_deterministic_order(g26_support):
    assert standard_basis(g26_support, 2) == standard_basis(g26_support, 2)
    basis = standard_basis(g26_support, 2)
    assert basis == sorted(basis)


def _assert_standard_output(nf: Poly, support: SupportRange):
    for mono in nf.terms:
        assert is_standard(mono, support)


def test_straighten_soundness_and_purity(g26_support):
    rng = random.Random(2024)
    matrices = [random_schubert_point(g26_support, seed) for seed in range(20)]
    for _ in range(25):
        p = random_poly(rng, 6)
        nf = straighten(p, g26_support)
        _assert_standard_output(nf, g26_support)
        assert straighten(nf, g26_support) == nf
        for A in matrices:
            assert evaluate(p, A) == evaluate(nf, A)


def test_straighten_strategy_independence(g26_support):
    rng = random.Random(99)
    for trial in range(15):
        p = random_poly(rng, 6, max_terms=2, max_degree=4)
        leftmost = straighten(p, g26_support)
        for seed in range(3):
            random_order = reference_straighten(p, g26_support, strategy="random", seed=seed)
            assert random_order == leftmost


def test_straighten_content_conservation(g26_support):
    rng = random.Random(5)
    for _ in range(20):
        p = random_poly(rng, 6, max_terms=1, max_degree=4)
        (mono,) = p.terms
        expected = content(mono, 6)
        nf = straighten(p, g26_support)
        for out_mono in nf.terms:
            assert content(out_mono, 6) == expected


def test_straighten_commutes_with_schubert_evaluation():
    support = SupportRange.schubert(8, (6, 8))
    rng = random.Random(31)
    matrices = [random_schubert_point(support, seed) for seed in range(10)]
    for _ in range(10):
        p = random_poly(rng, 8, max_terms=2, max_degree=3)
        nf = straighten(p, support)
        _assert_standard_output(nf, support)
        for A in matrices:
            assert evaluate(p, A) == evaluate(nf, A)


def test_straighten_richardson_window_products():
    # On a window with a nontrivial lower bound the output chains must
    # start at or above it.
    support = SupportRange(8, (1, 3), (6, 8))
    rng = random.Random(17)
    for _ in range(10):
        p = random_poly(rng, 8, max_terms=2, max_degree=3)
        nf = straighten(p, support)
        _assert_standard_output(nf, support)


def _random_window(rng: random.Random, n: int) -> SupportRange:
    """A random window, mostly wide: v near (1, 2) and w near (n-1, n)
    leave room for long rewrite chains, which narrow windows rarely do."""
    if rng.random() < 0.25:
        while True:
            v, w = random_pair(rng, n), random_pair(rng, n)
            if v[0] <= w[0] and v[1] <= w[1]:
                return SupportRange(n, v, w)
    v0 = rng.randint(1, min(3, n - 1))
    v = (v0, rng.randint(v0 + 1, min(v0 + 3, n)))
    w1 = rng.randint(max(n - 2, v[1]), n)
    w = (rng.randint(max(v0, w1 - 4), w1 - 1), w1)
    return SupportRange(n, v, w)


def _random_window_poly(rng: random.Random, support: SupportRange) -> Poly:
    """Mostly factors inside the window, some outside it."""
    window = support.variables()
    out = Poly.zero()
    for _ in range(rng.randint(1, 3)):
        factors = [
            rng.choice(window) if rng.random() < 0.85 else random_pair(rng, support.n)
            for _ in range(rng.randint(1, 6))
        ]
        out = out + pmono(factors, rng.choice([-3, -2, -1, 1, 2, 3]))
    return out


def test_engine_matches_reference_on_random_windows():
    rng = random.Random(4117)
    lower_bounded = 0
    for _ in range(1000):
        support = _random_window(rng, rng.randint(4, 12))
        lower_bounded += support.v != (1, 2)
        p = _random_window_poly(rng, support)
        nf = straighten(p, support)
        assert nf == reference_straighten(p, support), (support, p)
        _assert_standard_output(nf, support)
    # The early kill at the lower bound must be exercised, not just the
    # full and Schubert windows.
    assert lower_bounded > 500


def test_batch_validates_factors():
    engine = Straightener(SupportRange.full(6))
    with pytest.raises(ValueError, match="exceeds n=6"):
        engine.batch({0: {((1, 7),): 1}})
    with pytest.raises(ValueError, match="need 1 <= i < j"):
        engine.batch({0: {((2, 5),): 1}, 1: {((1, 4), (3, 2)): 1}})
    # Inside the pass (i, j) is coded as i * (n + 1) + j, which is one to
    # one on index pairs only: at n = 6, (0, 7) codes like (1, 0) and
    # (1, 10) like the window pair (2, 3).  A bad factor must raise before
    # any rewrite, even beside a row that needs one.
    for bad, message in [
        ((0, 7), "need 1 <= i < j"),
        ((2, 2), "need 1 <= i < j"),
        ((3, 2), "need 1 <= i < j"),
        ((1, 10), "exceeds n=6"),
    ]:
        with pytest.raises(ValueError, match=message):
            engine.batch({0: {((2, 5), (3, 4)): 1}, 1: {((1, 4), bad): 1}})
    assert engine.steps == 0


def _random_rows(
    rng: random.Random, support: SupportRange, max_degree: int = 6
) -> dict[int, dict]:
    """Rows of one batch.  Starting monomials repeat across rows (in any
    factor order), some factors lie outside the window, some coefficients
    are fractions, and the last two rows cancel to zero: one before any
    rewrite and one only among the standard monomials it reaches."""
    window = support.variables()
    shared = [
        [
            rng.choice(window) if rng.random() < 0.85 else random_pair(rng, support.n)
            for _ in range(rng.randint(1, max_degree))
        ]
        for _ in range(4)
    ]
    coefficients = [-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3)]
    rows: dict[int, dict] = {}
    for r in range(rng.randint(1, 5)):
        row: dict = {}
        for _ in range(rng.randint(1, 3)):
            factors = rng.choice(shared)[:]
            rng.shuffle(factors)
            factors = tuple(factors)
            row[factors] = row.get(factors, 0) + rng.choice(coefficients)
        rows[r] = row
    # start minus itself in another factor order, and minus its normal form
    start = tuple(rng.choice(shared))
    for equal in ({start[::-1]: 1}, reference_straighten(pmono(start), support).terms):
        row = {start: 1}
        for factors, c in equal.items():
            row[factors] = row.get(factors, 0) - c
        rows[len(rows)] = row
    return rows


def _check_random_batches(
    rng: random.Random, windows: int, n_range: tuple[int, int], max_degree: int
) -> None:
    """Each batch against one-row passes and the reference engine."""
    for _ in range(windows):
        support = _random_window(rng, rng.randint(*n_range))
        rows = _random_rows(rng, support, max_degree)
        engine = Straightener(support)
        out = engine.batch(rows)
        assert list(out) == list(rows)
        one_row_steps = 0
        for r, row in rows.items():
            single = Straightener(support)
            assert single.batch({r: row}) == {r: out[r]}
            one_row_steps += single.steps
            p = sum((pmono(f, c) for f, c in row.items()), Poly.zero())
            assert Poly(out[r]) == reference_straighten(p, support), (support, row)
            assert all(out[r].values())
        assert not out[len(rows) - 1] and not out[len(rows) - 2]
        assert engine.steps <= one_row_steps


def test_batch_matches_one_row_passes_and_reference_on_random_windows():
    _check_random_batches(random.Random(7411), 300, (4, 12), 6)


def test_batch_matches_reference_on_wide_random_windows():
    # From n = 16 on, the codes of the pass, i * (n + 1) + j, exceed 255.
    # Monomials of at most five factors keep the reference engine fast.
    _check_random_batches(random.Random(7412), 60, (16, 22), 5)


def test_straighteners_on_different_windows_share_nothing():
    full = Straightener(SupportRange.full(6))
    lower = Straightener(SupportRange(6, (1, 3), (5, 6)))
    row = {0: {((1, 4), (2, 3)): 1}}
    assert full.batch(row) == {0: {((1, 3), (2, 4)): 1, ((1, 2), (3, 4)): -1}}
    assert lower.batch(row) == {0: {((1, 3), (2, 4)): 1}}
    assert (full.steps, lower.steps) == (1, 1)
    # Nothing is kept between passes: the same row is rewritten again.
    assert full.batch(row) != lower.batch(row)
    assert (full.steps, lower.steps) == (2, 2)


def test_straightener_returns_poly_with_fraction_coefficients():
    support = SupportRange.full(6)
    p = pmono([(2, 5), (3, 4)], Fraction(1, 2))
    nf = straighten(p, support)
    assert nf == Fraction(1, 2) * (pmono([(2, 4), (3, 5)]) - pmono([(2, 3), (4, 5)]))
    assert all(type(c) is Fraction for c in nf.terms.values())
    with pytest.raises(ValueError):
        straighten(pmono([(1, 7)]), support)


def test_step_ceiling_raises_from_the_engine(monkeypatch):
    support = SupportRange.full(8)
    p = pmono([(4, 5), (3, 6), (2, 7), (1, 8)])
    monkeypatch.setattr(straightening, "MAX_REWRITE_STEPS", 2)
    # The message names the monomial by its index pairs, not its codes.
    at = r"exceeded 2 rewrite steps in one pass, at \(\(1, 7\), \(2, 6\), \(3, 8\), \(4, 5\)\)$"
    with pytest.raises(StraighteningLimit, match=at):
        straighten(p, support)
    monkeypatch.setattr(straightening, "MAX_REWRITE_STEPS", 10**6)
    assert not straighten(p, support).is_zero
