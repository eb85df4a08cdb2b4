import random
from fractions import Fraction

import pytest

from schubert_git.expr import (
    ExprSyntaxError,
    Lit,
    Pow,
    Prod,
    PVar,
    Sum,
    format_expr,
    lower_plucker,
    parse_expr,
)
from schubert_git.cli import main
from schubert_git.plucker import pmono


def test_parse_monomial():
    node = parse_expr("p[2,5]*p[3,4]", 6)
    assert node == Prod((PVar(2, 5), PVar(3, 4)))
    poly = lower_plucker(node, 6)
    assert poly == pmono([(2, 5), (3, 4)])


def test_parse_difference_of_products():
    text = "p[1,4]*p[2,5]*p[3,6] - p[1,2]*p[3,5]*p[4,6]"
    poly = lower_plucker(parse_expr(text, 6), 6)
    assert poly == pmono([(1, 4), (2, 5), (3, 6)]) - pmono([(1, 2), (3, 5), (4, 6)])


def test_parse_index_errors():
    with pytest.raises(ExprSyntaxError):
        parse_expr("p[3,3]", 6)
    with pytest.raises(ExprSyntaxError):
        parse_expr("p[2,7]", 6)
    parse_expr("p[2,7]")  # no ambient bound given


def test_parse_syntax_error_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("p[1,2] + ", 6)
    assert err.value.position == 9
    with pytest.raises(ExprSyntaxError):
        parse_expr("p[1,2] p[3,4]", 6)


def test_parse_rationals_powers_parens():
    node = parse_expr("3/4*p[1,2]^2 - (p[1,3] + 2)", 4)
    poly = lower_plucker(node, 4)
    expected = pmono([(1, 2), (1, 2)], Fraction(3, 4)) - (
        pmono([(1, 3)]) + pmono([], 2)
    )
    assert poly == expected
    with pytest.raises(ExprSyntaxError):
        parse_expr("p[1,2]^0", 4)
    with pytest.raises(ExprSyntaxError):
        parse_expr("1/0", 4)


def test_leading_minus():
    poly = lower_plucker(parse_expr("-p[1,2] + p[1,3]", 4), 4)
    assert poly == pmono([(1, 3)]) - pmono([(1, 2)])


def test_x_variables_are_a_syntax_error(capsys):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("x_1")
    assert err.value.position == 0
    with pytest.raises(ExprSyntaxError):
        parse_expr("p[1,2]*x_1", 6)
    assert main(["straighten", "x_1", "--n", "6"]) == 2
    assert "expected a rational, p[i,j], or '('" in capsys.readouterr().err


def _random_ast(rng: random.Random, depth: int):
    atoms = [
        lambda: Lit(Fraction(rng.randint(0, 9))),
        lambda: Lit(Fraction(rng.randint(1, 9), rng.randint(2, 9))),
        lambda: PVar(*sorted(rng.sample(range(1, 9), 2))),
    ]
    if depth == 0:
        return rng.choice(atoms)()
    roll = rng.random()
    if roll < 0.25:
        return Pow(rng.choice(atoms)(), rng.randint(2, 4))
    if roll < 0.6:
        factors = tuple(
            _random_ast(rng, depth - 1) for _ in range(rng.randint(2, 3))
        )
        return Prod(factors)
    parts = tuple(
        (rng.choice([1, -1]), _random_ast(rng, depth - 1))
        for _ in range(rng.randint(2, 3))
    )
    if all(s == 1 for s, _ in parts[:1]) and len(parts) == 1:
        parts = parts + ((1, Lit(Fraction(1))),)
    return Sum(parts)


def test_parse_print_round_trip_randomized():
    rng = random.Random(12345)
    for _ in range(1000):
        ast = _random_ast(rng, rng.randint(0, 3))
        text = format_expr(ast)
        assert parse_expr(text) == ast


def test_format_examples():
    ast = Sum(((1, Prod((PVar(1, 2), PVar(3, 4)))), (-1, Lit(Fraction(2)))))
    assert format_expr(ast) == "p[1,2]*p[3,4] - 2"
    nested = Prod((Lit(Fraction(2)), Sum(((1, PVar(1, 2)), (1, PVar(3, 4))))))
    assert format_expr(nested) == "2*(p[1,2] + p[3,4])"
    assert parse_expr(format_expr(nested)) == nested


def test_canonical_plucker_text_reparses():
    # The canonical printer output is consumable by the CLI grammar.
    import random as _random

    from schubert_git.plucker import format_plucker
    from schubert_git.straightening import SupportRange, straighten

    from conftest import random_poly

    rng = _random.Random(4)
    support = SupportRange.full(6)
    for _ in range(25):
        p = straighten(random_poly(rng, 6), support)
        text = format_plucker(p)
        assert lower_plucker(parse_expr(text, 6), 6) == p
