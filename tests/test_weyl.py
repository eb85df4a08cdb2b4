from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from schubert_git.weyl import (
    Stability,
    bruhat_leq,
    coset_reps,
    epsilon_vector,
    full_permutation,
    minimal_elements,
    stability_status,
    weight_root_coords,
)


def test_bruhat_examples():
    assert bruhat_leq((1, 3), (2, 5))
    assert bruhat_leq((3, 6), (4, 6))
    assert not bruhat_leq((2, 5), (3, 4))
    assert not bruhat_leq((3, 4), (2, 5))


def test_coset_reps_counts():
    reps = coset_reps(4, 2)
    assert len(reps) == 6
    assert reps[0] == (1, 2) and reps[-1] == (3, 4)
    assert len(coset_reps(6, 3)) == 20
    assert len(coset_reps(8, 4)) == 70
    assert reps == sorted(reps)


def test_coset_reps_invalid():
    with pytest.raises(ValueError):
        coset_reps(4, 0)
    with pytest.raises(ValueError):
        coset_reps(4, 4)


def test_full_permutation():
    assert full_permutation((1, 2, 4), 6) == (1, 2, 4, 3, 5, 6)
    assert full_permutation((4, 5, 6), 6) == (4, 5, 6, 1, 2, 3)


def _prefix_sum_oracle(w, n, d):
    # Independent oracle: build the epsilon vector, then take prefix sums.
    shift = 2 * d // n
    c = [(d if i in w else 0) - shift for i in range(1, n + 1)]
    out = []
    acc = 0
    for value in c[:-1]:
        acc += value
        out.append(acc)
    return tuple(out)


def test_weight_root_coords_derived_values():
    # Frozen from the prefix-sum oracle.
    assert weight_root_coords((3, 6), 6, 3) == (-1, -2, 0, -1, -2)
    assert weight_root_coords((4, 6), 6, 3) == (-1, -2, -3, -1, -2)
    assert weight_root_coords((1, 2), 6, 3) == (2, 4, 3, 2, 1)
    for n in (4, 6, 8):
        for w in coset_reps(n, 2):
            assert weight_root_coords(w, n, n // 2) == _prefix_sum_oracle(w, n, n // 2)


def test_weight_root_coords_root_lattice_error():
    with pytest.raises(ValueError):
        weight_root_coords((1, 2), 6, 2)


@pytest.mark.parametrize("d", [0, -3])
def test_non_ample_polarization_is_refused(d):
    # d = 0 and d = -3 lie in the root lattice for n = 6 but are not ample.
    message = f"polarization degree must be >= 1, got {d}"
    for call in (weight_root_coords, epsilon_vector, stability_status):
        with pytest.raises(ValueError, match=message):
            call((4, 6), 6, d)


def test_epsilon_round_trip():
    # Differencing the prefix sums recovers the epsilon vector exactly.
    for n in (4, 6, 8, 10):
        d = n // 2
        for w in coset_reps(n, 2):
            coords = weight_root_coords(w, n, d)
            eps = epsilon_vector(w, n, d)
            assert sum(eps) == 0
            recovered = []
            prev = 0
            for a in coords:
                recovered.append(a - prev)
                prev = a
            recovered.append(-prev)
            assert tuple(recovered) == eps


def test_stability_examples():
    assert stability_status((4, 6), 6, 3) == Stability.STABLE
    assert stability_status((3, 6), 6, 3) == Stability.SEMISTABLE_ONLY
    assert stability_status((1, 2), 6, 3) == Stability.NO_SEMISTABLE


def test_minimal_elements_formulas():
    assert minimal_elements(6) == ((3, 6), (4, 6))
    assert minimal_elements(8) == ((4, 8), (5, 8))
    assert minimal_elements(10) == ((5, 10), (6, 10))
    with pytest.raises(ValueError):
        minimal_elements(7)


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
def test_minimal_elements_exhaustive_scan(n):
    # The formula values must be the unique Bruhat-minimal elements of the
    # semistable and stable sets over the whole index poset.
    d = n // 2
    semistable = [
        w for w in coset_reps(n, 2) if stability_status(w, n, d) != Stability.NO_SEMISTABLE
    ]
    stable = [w for w in coset_reps(n, 2) if stability_status(w, n, d) == Stability.STABLE]
    w_ss, w_s = minimal_elements(n)

    def unique_minimum(elements):
        minima = [
            u for u in elements if not any(bruhat_leq(v, u) and v != u for v in elements)
        ]
        return minima[0] if len(minima) == 1 else None

    assert unique_minimum(semistable) == w_ss
    assert unique_minimum(stable) == w_s
    assert all(bruhat_leq(w_ss, w) for w in semistable)
    assert all(bruhat_leq(w_s, w) for w in stable)


@pytest.mark.parametrize("n", [6, 8])
def test_stability_monotone_in_bruhat_order(n):
    d = n // 2
    reps = coset_reps(n, 2)
    status = {w: stability_status(w, n, d) for w in reps}
    for u, w in combinations(reps, 2):
        if bruhat_leq(u, w):
            assert status[w] >= status[u]
        elif bruhat_leq(w, u):
            assert status[u] >= status[w]


@given(st.integers(2, 6), st.data())
@settings(max_examples=40, deadline=None)
def test_coset_reps_are_all_subsets(r, data):
    n = data.draw(st.integers(r + 1, 9))
    reps = coset_reps(n, r)
    assert len(reps) == comb(n, r)
    assert all(len(set(t)) == r and t == tuple(sorted(t)) for t in reps)
