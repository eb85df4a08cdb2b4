"""Independent oracles for the benchmark's output checks.

Nothing here calls the program's straightening or linear algebra: counts
come from closed forms or brute-force enumeration, and polynomial outputs
are tested by evaluating them at seeded random 2-plane matrices whose 2x2
minors are computed here.  A polynomial identity that holds on a window
holds at every point of the corresponding Richardson variety, and a
nonzero polynomial almost never vanishes at random integer points.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from itertools import combinations
from math import comb

Pair = tuple[int, int]


# --- closed forms -----------------------------------------------------------


def kostka_two_row(n: int, d: int) -> int:
    """K_{(dn/2, dn/2), (d^n)} by Jacobi-Trudi: M(dn/2) - M(dn/2 + 1), where
    M(a) counts vectors c in {0..d}^n with sum a.  This is the Hilbert
    count of the full window Gr(2,n)//T in degree d."""
    if n % 2 or n < 2 or d < 1:
        raise ValueError(f"need even n >= 2 and d >= 1, got n={n}, d={d}")
    ways = [1]
    for _ in range(n):
        nxt = [0] * (len(ways) + d)
        for total, count in enumerate(ways):
            for c in range(d + 1):
                nxt[total + c] += count
        ways = nxt
    half = d * n // 2
    return ways[half] - ways[half + 1]


def catalan(m: int) -> int:
    """Number of non-crossing perfect matchings of 2m points: the degree-one
    generators of the full window for n = 2m (Kempe)."""
    return comb(2 * m, m) // (m + 1)


def double_factorial_odd(n: int) -> int:
    """(n-1)!! for even n: the number of perfect matchings of n symbols."""
    out = 1
    for k in range(n - 1, 0, -2):
        out *= k
    return out


def singular_count(n: int) -> int:
    """C(n, n/2)/2: candidate singular points of the full Gr(2,n)//T."""
    return comb(n, n // 2) // 2


def kernel_dimension(generators: int, d: int, hilbert_d: int) -> int:
    """Relations in degree d when degree-d products span: monomials of
    degree d in the generators minus the invariant space dimension."""
    return comb(generators + d - 1, d) - hilbert_d


def toric_identity_count(n: int, k: int) -> int:
    """Two identities for every 4-subset of the symbols k+1 .. n/2+2."""
    return 2 * comb(n // 2 + 2 - k, 4)


def stability_name(w: Pair, n: int) -> str:
    """Hilbert-Mumford status of X(w) at degree n/2, in closed form.

    The root coordinates are S_k = (n/2) * #{x in w : x <= k} - k, so every
    S_k <= 0 iff w[0] >= n/2 and w[1] = n, and every S_k < 0 iff in
    addition w[0] >= n/2 + 1.
    """
    a, b = w
    if b != n or a < n // 2:
        return "NO_SEMISTABLE"
    return "STABLE" if a >= n // 2 + 1 else "SEMISTABLE_ONLY"


def minimal_pairs(n: int) -> tuple[Pair, Pair]:
    """Bruhat-minimal semistable and stable indices, (n/2, n), (n/2+1, n)."""
    return ((n // 2, n), (n // 2 + 1, n))


def candidate_members(w: Pair, n: int) -> set[tuple[int, ...]]:
    """n/2-subsets S whose translate of the distinguished point lies in X(w).

    The translate spans a vector supported on S and one supported on the
    complement, with all entries nonzero, so its minor on rows i < j is
    nonzero exactly when one row is in S and the other is not.  It lies in
    X(w) iff every such pair is componentwise <= w: no row may exceed w[1],
    and the rows above w[0] must all lie on one side.
    """
    if w[1] < n:
        return set()
    high = set(range(w[0] + 1, n + 1))
    return {
        subset
        for subset in combinations(range(1, n + 1), n // 2)
        if high <= set(subset) or not high & set(subset)
    }


def complement(subset: tuple[int, ...], n: int) -> tuple[int, ...]:
    chosen = set(subset)
    return tuple(x for x in range(1, n + 1) if x not in chosen)


def nested_matching_text(symbols: int) -> str:
    """The fully nested matching y[1,n]*y[2,n-1]*... as the program prints
    formal monomials (factors in increasing order)."""
    half = symbols // 2
    return "*".join(f"y[{k},{symbols + 1 - k}]" for k in range(1, half + 1))


# --- brute-force enumeration -----------------------------------------------


def window_pairs(n: int, v: Pair, w: Pair) -> list[Pair]:
    """Index pairs t with v <= t <= w componentwise, in lexicographic order."""
    return [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if v[0] <= i <= w[0] and v[1] <= j <= w[1]
    ]


def is_chain(factors) -> bool:
    """Lexicographically sorted factors form a chain iff consecutive ones
    are componentwise ordered."""
    ordered = sorted(factors)
    return all(a[0] <= b[0] and a[1] <= b[1] for a, b in zip(ordered, ordered[1:]))


def chain_count(n: int, v: Pair, w: Pair, d: int) -> int:
    """Brute-force count of standard monomials of degree dn/2 on a window
    whose content is (d, ..., d): chains t_1 <= ... <= t_m of window pairs
    using every row index exactly d times.

    Factors are taken in lexicographic order, each dominating the last.  The
    only pruning is that no row is used more than d times, and that the
    search stops once a row below the next factor's first entry is still
    short, since no later factor can reach that row.
    """
    pairs = window_pairs(n, v, w)
    counts = [0] * (n + 1)

    def extend(last: int, remaining: int) -> int:
        if remaining == 0:
            return int(all(c == d for c in counts[1:]))
        floor = pairs[last][1] if last >= 0 else 0
        total = 0
        for idx in range(max(last, 0), len(pairs)):
            a, b = pairs[idx]
            if any(counts[r] < d for r in range(1, a)):
                break
            if b < floor or counts[a] >= d or counts[b] >= d:
                continue
            counts[a] += 1
            counts[b] += 1
            total += extend(idx, remaining - 1)
            counts[a] -= 1
            counts[b] -= 1
        return total

    return extend(-1, d * n // 2)


# --- evaluation at random points -------------------------------------------


def random_plane(n: int, v: Pair, w: Pair, rng: random.Random) -> dict[Pair, int]:
    """Plucker coordinates of a random integer point of the Richardson
    variety of the window (v, w).

    The plane is spanned by a vector supported on rows v[0]..w[0] and one on
    rows v[1]..w[1], with nonzero entries; such planes are dense in the
    Richardson variety.  The draw is repeated until the minor on rows i < j
    is nonzero exactly for the window pairs, so the point is generic.
    """
    window = set(window_pairs(n, v, w))
    while True:
        a = [0] * (n + 1)
        b = [0] * (n + 1)
        for r in range(v[0], w[0] + 1):
            a[r] = rng.choice((-1, 1)) * rng.randint(1, 60)
        for r in range(v[1], w[1] + 1):
            b[r] = rng.choice((-1, 1)) * rng.randint(1, 60)
        minors = {
            (i, j): a[i] * b[j] - a[j] * b[i]
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        }
        if {t for t, m in minors.items() if m} == window:
            return minors


def evaluate(terms, values) -> Fraction:
    """Value of a polynomial given as {monomial: coefficient}, a monomial
    being a tuple of tokens, with each token replaced by ``values[token]``."""
    total = Fraction(0)
    for mono, coeff in terms.items():
        term = Fraction(coeff)
        for token in mono:
            term *= values[token]
        total += term
    return total


_TERM = re.compile(r"\s*([+-]?)\s*([^+-]+)")
_FACTOR = re.compile(r"^(?:p\[(\d+),(\d+)\]|x_(\d+)|y\[(\d+),(\d+)\]|(\d+(?:/\d+)?))(?:\^(\d+))?$")


def parse_printed(text: str) -> dict[tuple, Fraction]:
    """Parse a polynomial as the command line prints it: terms joined by
    ' + ' and ' - ', factors joined by '*', each a rational, p[i,j], x_k or
    y[i,j] with an optional ^exponent.  Tokens come back as (i, j) for p,
    ("x", k) and ("y", i, j), as in the library."""
    out: dict[tuple, Fraction] = {}
    if text.strip() == "0":
        return out
    end = 0
    for match in _TERM.finditer(text):
        if match.start() != end:
            break
        end = match.end()
        sign, body = match.groups()
        coeff = Fraction(-1 if sign == "-" else 1)
        mono: list = []
        for factor in body.strip().split("*"):
            m = _FACTOR.match(factor)
            if m is None:
                raise ValueError(f"cannot parse factor {factor!r} in {text!r}")
            p_i, p_j, x_k, y_i, y_j, number, exp = m.groups()
            if number is not None:
                coeff *= Fraction(number)
                continue
            if p_i is not None:
                token: tuple = (int(p_i), int(p_j))
            elif x_k is not None:
                token = ("x", int(x_k))
            else:
                token = ("y", int(y_i), int(y_j))
            mono.extend([token] * int(exp or 1))
        key = tuple(sorted(mono))
        out[key] = out.get(key, Fraction(0)) + coeff
    if end != len(text):
        raise ValueError(f"cannot parse {text[end:]!r} in {text!r}")
    return {m: c for m, c in out.items() if c}


def derivative(terms, token) -> dict[tuple, Fraction]:
    """Partial derivative of {monomial: coefficient} in one token."""
    out: dict[tuple, Fraction] = {}
    for mono, coeff in terms.items():
        power = mono.count(token)
        if power:
            rest = list(mono)
            rest.remove(token)
            key = tuple(rest)
            out[key] = out.get(key, Fraction(0)) + coeff * power
    return out


def matrix_rank(rows) -> int:
    """Rank of a small rational matrix by plain Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] / m[rank][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank
