"""Formal polynomials in abstract generator labels.

Tokens are tuples ``("x", k)`` for numbered generators and ``("y", i, j)``
for pair-indexed generators, so they sort numerically and can share the
generic :class:`~.poly.Poly` arithmetic.
"""

from __future__ import annotations

from .poly import Poly

YToken = tuple[str, int, int]


def yvar(i: int, j: int) -> Poly:
    return Poly.variable(ytoken(i, j))


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
