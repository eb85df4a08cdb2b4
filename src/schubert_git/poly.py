"""Exact sparse polynomials over an ordered alphabet of variable tokens.

A monomial is a sorted tuple of variable tokens, one entry per unit of
degree, so repeated tokens encode powers:

    ((1, 2), (1, 2), (3, 4))  is  p[1,2]^2 * p[3,4]

A polynomial maps monomials to nonzero exact coefficients.  The
constructor sorts each monomial it is given and sums the coefficients of
keys that sort alike, so every ``Poly`` is canonical, however its terms
were spelled.  A coefficient is an ``int`` when it is integral and a
``Fraction`` otherwise, so the integral polynomials met almost everywhere
here run on ``int`` arithmetic.  The token type only needs total ordering
and hashability; this package uses row-index pairs ``(i, j)`` for Pluecker
variables and tuples ``("x", k)`` or ``("y", i, j)`` for formal generators.

>>> Poly({("a",): Fraction(4, 2)}).terms == {("a",): 2}
True
>>> Poly({("b", "a"): 1, ("a", "b"): Fraction(1, 2)}).terms
{('a', 'b'): Fraction(3, 2)}

>>> x = Poly.variable("a")
>>> y = Poly.variable("b")
>>> (x + y) * (x - y) == x * x - y * y
True
>>> ((x + y) * 0).is_zero
True
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping

Token = Hashable
Monomial = tuple


def monomial(tokens: Iterable[Token]) -> Monomial:
    """Canonical (sorted) monomial from an iterable of variable tokens."""
    return tuple(sorted(tokens))


class Poly:
    """Immutable-by-convention sparse polynomial with exact coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction | int] | None = None):
        canon: dict[Monomial, Fraction | int] = {}
        if terms:
            for mono, coeff in terms.items():
                mono = tuple(sorted(mono))
                if mono in canon:
                    coeff += canon[mono]
                if type(coeff) is not int:
                    coeff = Fraction(coeff)
                    if coeff.denominator == 1:
                        coeff = coeff.numerator
                if coeff:
                    canon[mono] = coeff
                else:
                    canon.pop(mono, None)
        self.terms = canon

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def const(cls, value: Fraction | int) -> "Poly":
        return cls({(): value})

    @classmethod
    def variable(cls, token: Token) -> "Poly":
        return cls({(token,): 1})

    @classmethod
    def from_monomial(cls, tokens: Iterable[Token], coeff: Fraction | int = 1) -> "Poly":
        return cls({tuple(tokens): coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.terms == other.terms
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # mutable dict inside

    def key(self) -> tuple:
        """Hashable canonical form, usable as a dict/set member."""
        return tuple(sorted(self.terms.items()))

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out.get(mono, 0) + coeff
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out.get(mono, 0) - coeff
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "Poly | Fraction | int") -> "Poly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly()
            return Poly({m: c * other for m, c in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        out: dict[Monomial, Fraction | int] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                # Sorted here so that like terms merge in this loop: a power
                # of a sum makes many, and the constructor would hash each.
                mono = tuple(sorted(ma + mb))
                out[mono] = out.get(mono, 0) + ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative exponents are not supported")
        result = Poly.const(1)
        for _ in range(exponent):
            result = result * self
        return result

    def sorted_terms(self) -> list[tuple[Monomial, Fraction | int]]:
        """Terms in graded-lexicographic order (degree, then token tuple)."""
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def evaluate(self, assignment: Mapping[Token, Fraction]) -> Fraction:
        """Substitute a value for every token; exact rational result."""
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            term = coeff
            for token in mono:
                term *= assignment[token]
            total += term
        return total

    def format(self, token_str: Callable[[Token], str]) -> str:
        """Canonical text form: graded-lex terms, ``c*v^e*...`` factors."""
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for mono, coeff in self.sorted_terms():
            body = _format_monomial(mono, token_str)
            mag = abs(coeff)
            if body:
                text = body if mag == 1 else f"{mag}*{body}"
            else:
                text = str(mag)
            if not chunks:
                chunks.append(f"-{text}" if coeff < 0 else text)
            else:
                chunks.append(f" - {text}" if coeff < 0 else f" + {text}")
        return "".join(chunks)

    def __repr__(self) -> str:
        return f"Poly({self.format(str)})"


_END = object()  # follows the last token of a monomial; equals no token


def _format_monomial(mono: Monomial, token_str: Callable[[Token], str]) -> str:
    if len(set(mono)) == len(mono):
        return "*".join(map(token_str, mono))
    # A sorted monomial holds each repeated token as one run.
    parts: list[str] = []
    exp = 1
    for token, after in zip(mono, mono[1:] + (_END,)):
        if token == after:
            exp += 1
            continue
        name = token_str(token)
        parts.append(name if exp == 1 else f"{name}^{exp}")
        exp = 1
    return "*".join(parts)
