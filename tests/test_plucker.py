import random
from fractions import Fraction
from itertools import combinations

import pytest

from schubert_git.plucker import (
    PlaneMatrix,
    evaluate,
    format_plucker,
    plucker_relation,
    pmono,
    pvar,
    random_schubert_point,
    vanishing_pattern,
)
from schubert_git.straightening import SupportRange
from schubert_git.weyl import bruhat_leq, coset_reps

from conftest import random_poly


def test_plucker_relation_displayed_instances():
    assert plucker_relation(2, 3, 4, 5) == (
        pmono([(2, 5), (3, 4)]) - pmono([(2, 4), (3, 5)]) + pmono([(2, 3), (4, 5)])
    )
    assert plucker_relation(1, 2, 3, 4) == (
        pmono([(1, 4), (2, 3)]) - pmono([(1, 3), (2, 4)]) + pmono([(1, 2), (3, 4)])
    )
    assert plucker_relation(3, 4, 5, 6) == (
        pmono([(3, 6), (4, 5)]) - pmono([(3, 5), (4, 6)]) + pmono([(3, 4), (5, 6)])
    )


def test_plucker_relation_rejects_bad_indices():
    with pytest.raises(ValueError):
        plucker_relation(1, 2, 2, 4)
    with pytest.raises(ValueError):
        plucker_relation(2, 1, 3, 4)


def test_multiply_monomials():
    x1 = pmono([(1, 4), (2, 5), (3, 6)])
    x2 = pmono([(1, 2), (3, 5), (4, 6)])
    product = x1 * x2
    assert product == pmono([(1, 2), (1, 4), (2, 5), (3, 5), (3, 6), (4, 6)])
    assert ((pvar(1, 2) + pvar(1, 3)) * 0).is_zero


def test_evaluate_unit_minor():
    rows = [(1, 0), (0, 1), (0, 0), (0, 0)]
    A = PlaneMatrix.from_rows(rows)
    assert evaluate(pvar(1, 2), A) == 1
    assert evaluate(pvar(3, 4), A) == 0


def test_evaluate_alternating_sum_of_minor_products():
    A = PlaneMatrix.from_rows(
        [(1, 2), (3, Fraction(5, 7)), (0, 1), (2, 2), (1, 1), (4, 9)]
    )
    x1 = pmono([(1, 4), (2, 5), (3, 6)])
    x2 = pmono([(1, 2), (3, 5), (4, 6)])
    x3 = pmono([(1, 3), (2, 5), (4, 6)])
    combo = x1 - x2 + x3
    direct = (
        A.minor(1, 4) * A.minor(2, 5) * A.minor(3, 6)
        - A.minor(1, 2) * A.minor(3, 5) * A.minor(4, 6)
        + A.minor(1, 3) * A.minor(2, 5) * A.minor(4, 6)
    )
    assert evaluate(combo, A) == direct


def test_relations_vanish_on_random_rank2_matrices():
    n = 10
    full = SupportRange.full(n)
    quadruples = list(combinations(range(1, n + 1), 4))
    for seed in range(100):
        A = random_schubert_point(full, seed)
        minors = A.minors()
        for i, j, k, l in quadruples:
            value = (
                minors[(i, l)] * minors[(j, k)]
                - minors[(i, k)] * minors[(j, l)]
                + minors[(i, j)] * minors[(k, l)]
            )
            assert value == 0


def test_schubert_point_vanishing_pattern_exact():
    n = 8
    all_pairs = set(coset_reps(n, 2))
    for w in coset_reps(n, 2):
        support = SupportRange.schubert(n, w)
        expected_zero = {t for t in all_pairs if not bruhat_leq(t, w)}
        for seed in range(20):
            A = random_schubert_point(support, seed)
            assert vanishing_pattern(A) == expected_zero


def test_schubert_point_specific_vanishing():
    A = random_schubert_point(SupportRange.schubert(8, (6, 8)), 0)
    assert evaluate(pvar(7, 8), A) == 0
    B = random_schubert_point(SupportRange.full(6), 0)
    assert not vanishing_pattern(B)
    C = random_schubert_point(SupportRange.schubert(6, (3, 6)), 0)
    nonzero = {t for t in coset_reps(6, 2) if t not in vanishing_pattern(C)}
    assert nonzero == {t for t in coset_reps(6, 2) if t[0] <= 3}


def test_richardson_point_best_effort():
    support = SupportRange(6, (1, 3), (4, 6))
    A = random_schubert_point(support, 5)
    nonzero = {t for t in coset_reps(6, 2) if t not in vanishing_pattern(A)}
    expected = {
        t
        for t in coset_reps(6, 2)
        if bruhat_leq((1, 3), t) and bruhat_leq(t, (4, 6))
    }
    assert nonzero == expected


def test_random_poly_evaluation_distributes(g26_support):
    rng = random.Random(11)
    A = random_schubert_point(g26_support, 3)
    p = random_poly(rng, 6)
    q = random_poly(rng, 6)
    assert evaluate(p * q, A) == evaluate(p, A) * evaluate(q, A)
    assert evaluate(p + q, A) == evaluate(p, A) + evaluate(q, A)


def test_format_plucker_canonical():
    p = pvar(1, 2) * pvar(1, 2) * 3 - pvar(3, 4)
    assert format_plucker(p) == "-p[3,4] + 3*p[1,2]^2"


def test_evaluate_is_poly_evaluate_at_the_minors(g26_support):
    rng = random.Random(12)
    A = random_schubert_point(g26_support, 4)
    p = random_poly(rng, 6)
    assert evaluate(p, A) == p.evaluate(A.minors())
    with pytest.raises(ValueError):
        evaluate(pvar(5, 7), A)
