"""Expression parsing and printing for the command line.

Grammar (whitespace insensitive)::

    expr     := ['-'] term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := atom ('^' posint)?
    atom     := rational | 'p[' int ',' int ']' | '(' expr ')'
    rational := int ('/' int)?

Parsing returns a small AST; lowering turns it into a Pluecker polynomial.
Printing emits a string that reparses to the identical AST.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .poly import Poly
from .weyl import check_pair


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Lit:
    value: Fraction


@dataclass(frozen=True)
class PVar:
    i: int
    j: int


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Prod:
    factors: tuple["Node", ...]


@dataclass(frozen=True)
class Sum:
    # Signed parts: (+1 | -1, node).
    parts: tuple[tuple[int, "Node"], ...]


Node = Union[Lit, PVar, Pow, Prod, Sum]


class _Parser:
    def __init__(self, text: str, n: int | None):
        self.text = text
        self.n = n
        self.pos = 0

    def error(self, message: str) -> ExprSyntaxError:
        return ExprSyntaxError(message, self.pos)

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

    def expr(self) -> Node:
        parts: list[tuple[int, Node]] = []
        sign = 1
        if self.peek() == "-":
            self.pos += 1
            sign = -1
        parts.append((sign, self.term()))
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            parts.append((1 if op == "+" else -1, self.term()))
        if len(parts) == 1 and parts[0][0] == 1:
            return parts[0][1]
        return Sum(tuple(parts))

    def term(self) -> Node:
        factors = [self.factor()]
        while self.peek() == "*":
            self.pos += 1
            factors.append(self.factor())
        if len(factors) == 1:
            return factors[0]
        return Prod(tuple(factors))

    def factor(self) -> Node:
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            exponent = self.integer()
            if exponent < 1:
                raise self.error("exponent must be a positive integer")
            return Pow(base, exponent)
        return base

    def atom(self) -> Node:
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
            return PVar(i, j)
        if ch.isdigit():
            num = self.integer()
            if self.peek() == "/":
                self.pos += 1
                den = self.integer()
                if den == 0:
                    raise self.error("zero denominator")
                return Lit(Fraction(num, den))
            return Lit(Fraction(num))
        raise self.error("expected a rational, p[i,j], or '('")


def parse_expr(text: str, n: int | None = None) -> Node:
    """Parse an expression; validates p-indices against ``n`` when given.

    >>> parse_expr("p[1,2]*p[3,4]", 4)
    Prod(factors=(PVar(i=1, j=2), PVar(i=3, j=4)))
    """
    parser = _Parser(text, n)
    try:
        node = parser.expr()
    except RecursionError:
        raise parser.error("expression nested too deeply") from None
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("unexpected trailing input")
    return node


def format_expr(node: Node) -> str:
    """Print an AST so that parsing the output returns the identical AST."""
    if isinstance(node, Lit):
        return str(node.value)
    if isinstance(node, PVar):
        return f"p[{node.i},{node.j}]"
    if isinstance(node, Pow):
        base = format_expr(node.base)
        if not isinstance(node.base, (Lit, PVar)):
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, Prod):
        chunks = []
        for factor in node.factors:
            text = format_expr(factor)
            if isinstance(factor, (Sum, Prod)):
                text = f"({text})"
            chunks.append(text)
        return "*".join(chunks)
    if isinstance(node, Sum):
        out = ""
        for idx, (sign, part) in enumerate(node.parts):
            text = format_expr(part)
            if isinstance(part, Sum):
                text = f"({text})"
            if idx == 0:
                out = f"-{text}" if sign < 0 else text
            else:
                out += f" - {text}" if sign < 0 else f" + {text}"
        return out
    raise TypeError(f"not an expression node: {node!r}")


def lower(node: Node) -> Poly:
    """Lower an AST to a Pluecker polynomial."""
    if isinstance(node, Lit):
        return Poly.const(node.value)
    if isinstance(node, PVar):
        return Poly.variable((node.i, node.j))
    if isinstance(node, Pow):
        return lower(node.base) ** node.exponent
    if isinstance(node, Prod):
        poly = Poly.const(1)
        for factor in node.factors:
            poly = poly * lower(factor)
        return poly
    if isinstance(node, Sum):
        poly = Poly.zero()
        for sign, part in node.parts:
            ppoly = lower(part)
            poly = poly + (ppoly if sign > 0 else -ppoly)
        return poly
    raise TypeError(f"not an expression node: {node!r}")


def lower_plucker(node: Node, n: int) -> Poly:
    """Lower to a Pluecker polynomial, validating indices against n."""
    poly = lower(node)
    for mono in poly.terms:
        for pair in mono:
            check_pair(pair, n)
    return poly
