"""Formal polynomials in abstract generator labels.

Tokens are tuples ``("x", k)`` for numbered generators and ``("y", i, j)``
for pair-indexed generators, so they sort numerically and can share the
generic :class:`~.poly.Poly` arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Monomial, Poly

XToken = tuple[str, int]
YToken = tuple[str, int, int]


def xvar(k: int) -> Poly:
    if k < 1:
        raise ValueError(f"generator index must be positive, got {k}")
    return Poly.variable(("x", k))


def yvar(i: int, j: int) -> Poly:
    if not 1 <= i < j:
        raise ValueError(f"invalid pair generator indices ({i}, {j})")
    return Poly.variable(("y", i, j))


def ytoken(i: int, j: int) -> YToken:
    if not 1 <= i < j:
        raise ValueError(f"invalid pair generator indices ({i}, {j})")
    return ("y", i, j)


def format_formal(p: Poly) -> str:
    """Text form with ``x_k`` and ``y[i,j]`` labels, graded-lex terms."""
    return p.format(_token_str)


def _token_str(token) -> str:
    if isinstance(token, tuple) and len(token) == 2 and token[0] == "x":
        return f"x_{token[1]}"
    if isinstance(token, tuple) and len(token) == 3 and token[0] == "y":
        return f"y[{token[1]},{token[2]}]"
    return str(token)


def x_monomial(indices: tuple[int, ...], coeff: Fraction | int = 1) -> Poly:
    """Monomial ``x_{i1} * ... * x_{id}`` from 1-based generator indices."""
    return Poly.from_monomial([("x", k) for k in indices], coeff)


def partial_derivative(p: Poly, token) -> Poly:
    """Exact partial derivative with respect to one variable token."""
    out: dict[Monomial, Fraction | int] = {}
    for mono, coeff in p.terms.items():
        exponent = mono.count(token)
        if not exponent:
            continue
        lowered = list(mono)
        lowered.remove(token)
        key = tuple(lowered)
        out[key] = out.get(key, 0) + coeff * exponent
    return Poly(out)


def substitute(p: Poly, values: dict) -> Poly:
    """Substitute a polynomial for every token (ring homomorphism)."""
    total = Poly.zero()
    for mono, coeff in p.terms.items():
        term = Poly.const(coeff)
        for token in mono:
            term = term * values[token]
        total = total + term
    return total
