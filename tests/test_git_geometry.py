import random
import sys
import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from schubert_git import git_geometry
from schubert_git.git_geometry import (
    SingularCandidateSet,
    singular_candidates,
    singular_count,
    smooth_locus_width,
    sorted_pair,
    witness_monomial,
)
from schubert_git.invariants import content, invariant_basis
from schubert_git.plucker import PlaneMatrix, evaluate, pmono
from schubert_git.straightening import SupportRange, is_standard
from schubert_git.weyl import Stability, bruhat_leq, coset_reps, stability_status

from reference_git_geometry import (
    invariant_evaluation_vector,
    permuted_matrix,
    projectively_equal,
    reference_singular_candidates,
    witness_value,
    xi_point,
)


def test_xi_point_structure():
    xi = xi_point(6, 0)
    A = xi.matrix
    assert evaluate(pmono([(1, 2)]), A) == 0
    diag = pmono([(1, 4), (2, 5), (3, 6)])
    value = evaluate(diag, A)
    assert value != 0
    assert value == xi.parameter_product
    params = xi.col1_params + xi.col2_params
    assert len(set(params)) == len(params)
    assert all(p != 0 for p in params)


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_xi_point_diagonal_minors(n):
    for seed in range(3):
        xi = xi_point(n, seed)
        for k in range(1, n // 2 + 1):
            assert xi.matrix.minor(k, n // 2 + k) != 0


def test_xi_point_odd_n_rejected():
    with pytest.raises(ValueError):
        xi_point(7, 0)


def test_sorted_pair_basics():
    assert sorted_pair(3, 1) == (1, 3)
    assert sorted_pair(1, 3) == (1, 3)
    with pytest.raises(ValueError):
        sorted_pair(2, 2)
    assert bruhat_leq(sorted_pair(3, 1), sorted_pair(4, 2))
    assert bruhat_leq(sorted_pair(1, 3), sorted_pair(2, 6))


@given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 30), st.integers(1, 30))
@settings(max_examples=200, deadline=None)
def test_sorted_pair_monotone(x1, x2, y1, y2):
    # Componentwise-smaller unsorted pairs sort to Bruhat-smaller pairs.
    if x1 == x2 or y1 == y2:
        return
    if x1 < y1 and x2 < y2:
        assert bruhat_leq(sorted_pair(x1, x2), sorted_pair(y1, y2))
        assert sorted_pair(x1, x2) != sorted_pair(y1, y2)


def test_witness_monomial_example():
    assert witness_monomial((1, 2, 4), 6) == ((1, 3), (2, 5), (4, 6))


def test_witness_monomial_excluded_cosets():
    with pytest.raises(ValueError):
        witness_monomial((1, 2, 3), 6)
    with pytest.raises(ValueError):
        witness_monomial((4, 5, 6), 6)


@pytest.mark.parametrize("n", [6, 8, 10])
def test_witness_monomials_standard_invariant_nonvanishing(n):
    full = SupportRange.full(n)
    half = n // 2
    identity = tuple(range(1, half + 1))
    reversal = tuple(range(half + 1, n + 1))
    diagonal = tuple((k, half + k) for k in range(1, half + 1))
    xis = [xi_point(n, seed) for seed in range(5)]
    for subset in coset_reps(n, half):
        if subset in (identity, reversal):
            continue
        mono = witness_monomial(subset, n)
        assert is_standard(mono, full)
        assert content(mono, n) == (1,) * n
        assert mono != diagonal
        for xi in xis:
            value = witness_value(subset, xi)
            assert value != 0
            assert abs(value) == abs(xi.parameter_product)


@pytest.mark.parametrize("n,expected", [(6, 10), (8, 35), (10, 126)])
def test_singular_candidate_counts_full_grassmannian(n, expected):
    result = singular_candidates((n - 1, n), n)
    assert len(result.members) == comb(n, n // 2)
    assert result.l_size == expected
    assert result.l_size == comb(n, n // 2) // 2


def test_no_window_draws_a_point(monkeypatch):
    # Membership follows from which rows the coset moves, not from a point:
    # the package has no point to draw, and no minor is computed.
    def minor(self, i, j):
        raise AssertionError(f"minor ({i}, {j}) computed")

    assert not hasattr(git_geometry, "xi_point")
    monkeypatch.setattr(PlaneMatrix, "minor", minor)
    result = singular_candidates((6, 8), 8)
    assert len(result.members) == 30
    assert result.l_size == 15
    for b in range(4, 8):
        singular_candidates((b, 8), 8, seed=b)
    with pytest.raises(ValueError, match="need even n >= 4, got 2"):
        singular_candidates((1, 2), 2)


@pytest.mark.parametrize("n", range(4, 15, 2))
def test_singular_candidates_match_matrix_per_coset_reference(n):
    semistable = [
        w for w in coset_reps(n, 2) if stability_status(w, n, n // 2) != Stability.NO_SEMISTABLE
    ]
    for seed in range(3):
        for w in semistable:
            assert singular_candidates(w, n, seed) == reference_singular_candidates(w, n, seed)


@pytest.mark.parametrize("n", [16, 18])
def test_singular_candidates_full_window_above_reference_range(n):
    result = singular_candidates((n - 1, n), n)
    assert result.members == tuple(coset_reps(n, n // 2))
    everything = set(range(1, n + 1))
    expected = set()
    for subset in result.members:
        partner = tuple(sorted(everything - set(subset)))
        if subset < partner:
            expected.add((subset, partner))
    assert set(result.pairs) == expected
    assert len(result.pairs) == len(expected)
    assert result.l_size == comb(n, n // 2) // 2


def test_pairs_hold_member_objects():
    for w, n in [((5, 6), 6), ((4, 6), 6), ((9, 10), 10), ((7, 10), 10)]:
        result = singular_candidates(w, n)
        member_ids = {id(m) for m in result.members}
        for a, b in result.pairs:
            assert id(a) in member_ids and id(b) in member_ids


@pytest.mark.parametrize("n", [16, 18])
def test_singular_candidate_counts_match_closed_form(n):
    # Members contain all of {b+1, ..., n} or none of it; complementation
    # swaps the two kinds, so each kind is one member of every pair.
    half = n // 2
    for b in range(half, n):
        result = singular_candidates((b, n), n)
        assert len(result.members) == comb(b, half) + comb(b, half - (n - b))
        assert result.l_size == comb(b, half)


def _footprint(result):
    # Bytes of the returned tuples themselves; the small ints they hold
    # are shared.  Independent of the allocator's free lists.
    return sum(
        sys.getsizeof(t)
        for t in (result.members, result.pairs, *result.members, *result.pairs)
    )


@pytest.mark.parametrize("w", [(15, 16), (12, 16)])
def test_singular_candidates_peak_memory_near_result_size(w):
    # The scan keeps only what it returns: no member set, no fresh
    # complements, and no rejected coset of a partial window.
    singular_candidates(w, 16)  # warm imports and caches outside the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = singular_candidates(w, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.members
    assert peak - base <= 1.25 * _footprint(result)


def test_pairing_is_fixed_point_free_involution():
    result = singular_candidates((5, 6), 6)
    seen = set()
    for a, b in result.pairs:
        assert a != b
        assert set(a) | set(b) == set(range(1, 7))
        assert not (set(a) & set(b))
        seen.update((a, b))
    assert seen == set(result.members)
    assert len(result.pairs) * 2 == len(result.members)


def test_singular_candidates_proper_schubert():
    # For w = (4, 6) only translates staying inside X(4,6) survive.
    result = singular_candidates((4, 6), 6)
    assert set(result.members) < set(coset_reps(6, 3))
    xi = xi_point(6, 0)
    outside = [t for t in coset_reps(6, 2) if not bruhat_leq(t, (4, 6))]
    for subset in result.members:
        matrix = permuted_matrix(subset, xi)
        assert all(matrix.minor(*t) == 0 for t in outside)


def test_singular_candidates_requires_semistability():
    with pytest.raises(ValueError):
        singular_candidates((2, 6), 6)


def test_singular_candidates_refuse_oversized_scans_before_enumerating(monkeypatch):
    class Enumerated(Exception):
        pass

    def refuse(items, r):
        raise Enumerated(f"combinations of {r}")

    # With enumeration made to raise, a refusal proves none happened.
    monkeypatch.setattr(git_geometry, "combinations", refuse)
    with pytest.raises(ValueError, match="C\\(24, 12\\) = 2704156 cosets, above the cap of 1000000"):
        singular_candidates((23, 24), 24)
    assert comb(22, 11) <= git_geometry.MAX_CANDIDATE_COSETS
    with pytest.raises(Enumerated):
        singular_candidates((21, 22), 22)
    with pytest.raises(Enumerated):
        singular_candidates((15, 22), 22)


def _enumerate(cosets):
    # Stands in for itertools.combinations: the scan's cosets become these.
    return lambda items, r: iter(cosets)


def test_singular_candidates_self_check_fixed_point(monkeypatch):
    # An odd count leaves the middle coset as its own mate.
    cosets = coset_reps(6, 3)
    del cosets[0]
    monkeypatch.setattr(git_geometry, "combinations", _enumerate(cosets))
    with pytest.raises(RuntimeError, match=r"complementation fixes \(2, 3, 4\)"):
        singular_candidates((5, 6), 6)


def test_singular_candidates_self_check_not_closed(monkeypatch):
    # X(4,6) keeps 8 of the 20 cosets.  Without (1, 2, 3) and (1, 2, 4) it
    # keeps 6, and the first, (1, 3, 4), faces (4, 5, 6), not its
    # complement.
    cosets = coset_reps(6, 3)[2:]
    monkeypatch.setattr(git_geometry, "combinations", _enumerate(cosets))
    with pytest.raises(
        RuntimeError, match=r"not closed under complementation at \(1, 3, 4\)"
    ):
        singular_candidates((4, 6), 6)


def test_membership_agrees_with_combinatorial_criterion():
    # Exact minor vanishing vs. the sorted-pair criterion on mixed pairs.
    rng = random.Random(0)
    n = 8
    subsets = coset_reps(n, n // 2)
    pairs_w = [w for w in coset_reps(n, 2) if stability_status(w, n, n // 2).value > 0]
    xi = xi_point(n, 1)
    outside_cache = {
        w: [t for t in coset_reps(n, 2) if not bruhat_leq(t, w)] for w in pairs_w
    }
    for _ in range(100):
        subset = rng.choice(subsets)
        w = rng.choice(pairs_w)
        matrix = permuted_matrix(subset, xi)
        exact = all(matrix.minor(*t) == 0 for t in outside_cache[w])
        complement = tuple(x for x in range(1, n + 1) if x not in set(subset))
        combinatorial = all(
            bruhat_leq(sorted_pair(a, b), w) for a in subset for b in complement
        )
        assert exact == combinatorial


def test_quotient_separates_exactly_the_pairs():
    # Partner cosets give projectively equal invariant vectors; distinct
    # orbits give projectively distinct ones.
    n = 6
    full = SupportRange.full(n)
    monomials = invariant_basis(full, 1).monomials
    xi = xi_point(n, 2)
    result = singular_candidates((n - 1, n), n)
    vectors = {
        subset: invariant_evaluation_vector(subset, xi, monomials)
        for subset in result.members
    }
    partner = {}
    for a, b in result.pairs:
        partner[a] = b
        partner[b] = a
    members = list(result.members)
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            same = projectively_equal(vectors[a], vectors[b])
            assert same == (partner[a] == b)


def test_smooth_locus_width_values():
    assert smooth_locus_width((4, 6), 6) == 1
    assert smooth_locus_width((5, 6), 6) == 2
    assert smooth_locus_width((6, 8), 8) == 2
    with pytest.raises(ValueError):
        smooth_locus_width((4, 5), 6)
    with pytest.raises(ValueError):
        smooth_locus_width((2, 6), 6)


@pytest.mark.parametrize("n", range(4, 19, 2))
def test_singular_count_closed_form_matches_scan(n):
    assert singular_count(n) == singular_candidates((n - 1, n), n).l_size


@pytest.mark.parametrize(
    "n, message",
    [
        (2, "need even n >= 4, got 2"),
        (3, "weight 1\\*omega_2 is not in the root lattice for n=3"),
        (25, "weight 12\\*omega_2 is not in the root lattice for n=25"),
        (0, "invalid index pair \\(-1, 0\\): need 1 <= i < j"),
    ],
)
def test_singular_count_refuses_what_the_scan_refuses(n, message):
    for count in (singular_count, lambda n: singular_candidates((n - 1, n), n)):
        with pytest.raises(ValueError, match=message):
            count(n)


def _split_point(subset, n):
    # Rows (1, 0) on the subset and (0, 1) off it.
    return PlaneMatrix(tuple((1, 0) if i in subset else (0, 1) for i in range(1, n + 1)))


@pytest.mark.parametrize("n", [6, 8])
def test_permuted_xi_is_projectively_the_split_point(n):
    # The split rule's premise: the translate of xi by the coset of S has
    # rows (a_i, 0) on S and (0, b_i) off it, so on the degree-one
    # invariants, each holding every index once, it is a fixed nonzero
    # multiple of the 0/1 split point.
    monomials = invariant_basis(SupportRange.full(n), 1).monomials
    xis = [xi_point(n, seed) for seed in range(5)]
    for subset in coset_reps(n, n // 2):
        split = tuple(evaluate(pmono(m), _split_point(subset, n)) for m in monomials)
        assert set(split) <= {-1, 0, 1} and any(split)
        for xi in xis:
            assert projectively_equal(invariant_evaluation_vector(subset, xi, monomials), split)


def test_candidate_set_is_a_value():
    a = singular_candidates((6, 8), 8)
    b = singular_candidates((6, 8), 8)
    assert a == b and a is not b
    assert a != singular_candidates((7, 8), 8)
    assert repr(a).startswith("SingularCandidateSet(n=8, w=(6, 8), members=((1, 2, 3, 4), ")
    assert repr(a).endswith(", l_size=15)")
    assert SingularCandidateSet(4, (3, 4), (), (), 0) == SingularCandidateSet(4, (3, 4), (), (), 0)
