"""Index combinatorics for 2-planes: Bruhat order, coset representatives,
weight coordinates, and torus (semi)stability of Schubert varieties.

A minimal coset representative for a maximal parabolic is stored as the
defining tuple alone: a pair ``(i, j)`` with ``1 <= i < j <= n`` for the
2-plane Grassmannian, or a sorted k-subset of ``{1..n}`` for the middle
parabolic used by the singular-locus machinery.  The full permutation
(subset values in increasing order, then the complement in increasing
order) is derived on demand.

The ambient ``n`` is threaded explicitly through every call so one process
can work with several Grassmannians at once.

>>> bruhat_leq((1, 3), (2, 5))
True
>>> minimal_elements(6)
((3, 6), (4, 6))
>>> stability_status((4, 6), 6, 3).name
'STABLE'
"""

from __future__ import annotations

import enum
from itertools import combinations

Pair = tuple[int, int]
Subset = tuple[int, ...]


class Stability(enum.IntEnum):
    """Torus stability of the Schubert variety indexed by a pair.

    Ordered so that ``>=`` means "at least as stable".
    """

    NO_SEMISTABLE = 0
    SEMISTABLE_ONLY = 1
    STABLE = 2


def check_pair(pair: Pair, n: int | None = None) -> Pair:
    """Validate ``1 <= i < j`` (and ``j <= n`` when ``n`` is given)."""
    i, j = pair
    if not (1 <= i < j):
        raise ValueError(f"invalid index pair {pair}: need 1 <= i < j")
    if n is not None and j > n:
        raise ValueError(f"invalid index pair {pair}: second entry exceeds n={n}")
    return (i, j)


def bruhat_leq(a: Pair, b: Pair) -> bool:
    """Componentwise order on index pairs (the Bruhat order on I(2,n)).

    >>> bruhat_leq((3, 6), (4, 6))
    True
    >>> bruhat_leq((2, 5), (3, 4)) or bruhat_leq((3, 4), (2, 5))
    False
    """
    return a[0] <= b[0] and a[1] <= b[1]


def coset_reps(n: int, r: int) -> list[Subset]:
    """All strictly increasing r-tuples from {1..n}, in lexicographic order.

    These index the torus-fixed points of the r-plane Grassmannian.

    >>> len(coset_reps(4, 2)), coset_reps(4, 2)[0], coset_reps(4, 2)[-1]
    (6, (1, 2), (3, 4))
    """
    if not 1 <= r <= n - 1:
        raise ValueError(f"need 1 <= r <= n-1, got r={r}, n={n}")
    return list(combinations(range(1, n + 1), r))


def full_permutation(subset: Subset, n: int) -> tuple[int, ...]:
    """One-line permutation of a subset coset representative.

    Subset values in increasing order, then the complement in increasing
    order.

    >>> full_permutation((1, 2, 4), 6)
    (1, 2, 4, 3, 5, 6)
    """
    chosen = tuple(sorted(subset))
    taken = set(chosen)
    if len(taken) != len(chosen) or not all(1 <= x <= n for x in chosen):
        raise ValueError(f"invalid subset {subset} for n={n}")
    return chosen + tuple(x for x in range(1, n + 1) if x not in taken)


def _root_lattice_shift(w: Pair, n: int, d: int) -> int:
    """Validate the pair and the ample degree ``d``; return ``2d/n``."""
    check_pair(w, n)
    if d < 1:
        raise ValueError(f"polarization degree must be >= 1, got {d}")
    if (2 * d) % n != 0:
        raise ValueError(f"weight {d}*omega_2 is not in the root lattice for n={n}")
    return (2 * d) // n


def weight_root_coords(w: Pair, n: int, d: int) -> tuple[int, ...]:
    """Simple-root coordinates of the pair representative applied to d
    times the second fundamental weight.

    The weight is normalized to sum zero in epsilon-coordinates, giving the
    integer vector ``c`` with ``c_i = d*[i in w] - 2d/n``; the coordinate on
    the k-th simple root is the prefix sum ``c_1 + ... + c_k``.  Requires
    an ample polarization, ``d >= 1``, and ``n | 2d`` so that everything
    stays integral.

    >>> weight_root_coords((3, 6), 6, 3)
    (-1, -2, 0, -1, -2)
    >>> weight_root_coords((1, 2), 6, 3)
    (2, 4, 3, 2, 1)
    """
    shift = _root_lattice_shift(w, n, d)
    members = set(w)
    coords: list[int] = []
    acc = 0
    for i in range(1, n):
        acc += (d if i in members else 0) - shift
        coords.append(acc)
    return tuple(coords)


def epsilon_vector(w: Pair, n: int, d: int) -> tuple[int, ...]:
    """Sum-zero epsilon-coordinate vector of the same weight (length n)."""
    shift = _root_lattice_shift(w, n, d)
    members = set(w)
    return tuple((d if i in members else 0) - shift for i in range(1, n + 1))


def stability_status(w: Pair, n: int, d: int) -> Stability:
    """Hilbert-Mumford test on the root coordinates of the moved weight.

    Stable iff every coordinate is <= -1; semistable (only) iff every
    coordinate is <= 0 but not all <= -1.

    >>> stability_status((3, 6), 6, 3).name
    'SEMISTABLE_ONLY'
    >>> stability_status((1, 2), 6, 3).name
    'NO_SEMISTABLE'
    """
    coords = weight_root_coords(w, n, d)
    if all(a <= -1 for a in coords):
        return Stability.STABLE
    if all(a <= 0 for a in coords):
        return Stability.SEMISTABLE_ONLY
    return Stability.NO_SEMISTABLE


def minimal_elements(n: int) -> tuple[Pair, Pair]:
    """The unique Bruhat-minimal pairs admitting semistable and stable
    points for the degree n/2 polarization: ``((n/2, n), (n/2+1, n))``.

    >>> minimal_elements(8)
    ((4, 8), (5, 8))
    """
    if n % 2 != 0 or n < 4:
        raise ValueError(f"need even n >= 4, got {n}")
    half = n // 2
    return ((half, n), (half + 1, n))
