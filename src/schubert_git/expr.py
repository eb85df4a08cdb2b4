"""Expression parsing for the command line.

Grammar (whitespace insensitive)::

    expr     := ['-'] term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := atom ('^' posint)?
    atom     := rational | 'p[' int ',' int ']' | '(' expr ')'
    rational := int ('/' int)?

Parsing is evaluation: each rule returns its value as a Pluecker
polynomial, so the parser's result is a canonical :class:`Poly`.
A product or power whose degree would exceed :data:`MAX_EXPR_DEGREE`, or a
power with a larger exponent, is refused before it is multiplied out, and
so is one that would take the expression's estimated work, counted in term
products, above :data:`MAX_EXPR_WORK`.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .poly import Poly
from .weyl import check_pair

# Bounds the work of one expression: a power is multiplied out one factor
# at a time, at a cost quadratic in its degree.
MAX_EXPR_DEGREE = 1000

# Bounds the work of one expression where the degree cap does not: a power
# of a sum has few factors but many terms.  Work is counted in term
# products, len(a.terms) * len(b.terms) per multiplication, summed over
# the expression; a million of them take about three seconds.
MAX_EXPR_WORK = 10**6


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _degree(poly: Poly) -> int:
    return max(map(len, poly.terms), default=0)


class _Parser:
    def __init__(self, text: str, n: int | None):
        self.text = text
        self.n = n
        self.pos = 0
        self.work = 0

    def error(self, message: str) -> ExprSyntaxError:
        return ExprSyntaxError(message, self.pos)

    def check_degree(self, degree: int) -> None:
        if degree > MAX_EXPR_DEGREE:
            raise self.error(
                f"expression of degree {degree} is above the cap of {MAX_EXPR_DEGREE}"
            )

    def charge(self, products: int) -> None:
        self.work += products
        if self.work > MAX_EXPR_WORK:
            raise self.error(
                f"expression needs an estimated {self.work} term products, "
                f"above the cap of {MAX_EXPR_WORK}"
            )

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, char: str) -> None:
        if self.peek() != char:
            raise self.error(f"expected {char!r}")
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an integer")
        return int(self.text[start : self.pos])

    def expr(self) -> Poly:
        negate = self.peek() == "-"
        if negate:
            self.pos += 1
        value = self.term()
        if negate:
            value = -value
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            part = self.term()
            value = value + part if op == "+" else value - part
        return value

    def term(self) -> Poly:
        value = self.factor()
        while self.peek() == "*":
            self.pos += 1
            factor = self.factor()
            self.check_degree(_degree(value) + _degree(factor))
            self.charge(len(value.terms) * len(factor.terms))
            value = value * factor
        return value

    def factor(self) -> Poly:
        base = self.atom()
        if self.peek() != "^":
            return base
        self.pos += 1
        exponent = self.integer()
        if exponent < 1:
            raise self.error("exponent must be a positive integer")
        self.check_degree(_degree(base) * exponent)
        # Only a constant base passes with a larger exponent; its value grows.
        if exponent > MAX_EXPR_DEGREE:
            raise self.error(
                f"exponent {exponent} is above the cap of {MAX_EXPR_DEGREE}"
            )
        # The k-th power of a t-term base has at most C(k+t-1, k) terms, so
        # multiplying it out after the first factor takes at most
        # t * (C(e+t-1, t) - 1) term products.
        terms = len(base.terms)
        self.charge(terms * (comb(exponent + terms - 1, terms) - 1))
        return base**exponent

    def atom(self) -> Poly:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            inner = self.expr()
            self.take(")")
            return inner
        if ch == "p":
            self.pos += 1
            self.take("[")
            i = self.integer()
            self.take(",")
            j = self.integer()
            self.take("]")
            try:
                check_pair((i, j), self.n)
            except ValueError as exc:
                raise ExprSyntaxError(str(exc), self.pos) from exc
            return Poly.variable((i, j))
        if ch.isdigit():
            num = self.integer()
            if self.peek() == "/":
                self.pos += 1
                den = self.integer()
                if den == 0:
                    raise self.error("zero denominator")
                return Poly.const(Fraction(num, den))
            return Poly.const(num)
        raise self.error("expected a rational, p[i,j], or '('")


def parse_expr(text: str, n: int | None = None) -> Poly:
    """The polynomial an expression denotes; validates p-indices against
    ``n`` when given.

    >>> from .plucker import format_plucker
    >>> format_plucker(parse_expr("-(p[1,2] - 2*p[3,4])^2 + 1/2", 4))
    '1/2 - p[1,2]^2 + 4*p[1,2]*p[3,4] - 4*p[3,4]^2'
    """
    parser = _Parser(text, n)
    try:
        value = parser.expr()
    except RecursionError:
        raise parser.error("expression nested too deeply") from None
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("unexpected trailing input")
    return value
