import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial, prod

import pytest

from schubert_git import expr
from schubert_git.cli import main
from schubert_git.expr import MAX_EXPR_DEGREE, MAX_EXPR_WORK, ExprSyntaxError, parse_expr
from schubert_git.plucker import pmono
from schubert_git.poly import Poly


def test_parse_monomial():
    assert parse_expr("p[2,5]*p[3,4]", 6) == pmono([(2, 5), (3, 4)])


def test_parse_difference_of_products():
    text = "p[1,4]*p[2,5]*p[3,6] - p[1,2]*p[3,5]*p[4,6]"
    poly = parse_expr(text, 6)
    assert poly == pmono([(1, 4), (2, 5), (3, 6)]) - pmono([(1, 2), (3, 5), (4, 6)])


def test_parse_index_errors():
    with pytest.raises(ExprSyntaxError):
        parse_expr("p[3,3]", 6)
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("p[2,7]", 6)
    assert err.value.position == 6
    # No ambient bound given.
    assert parse_expr("p[2,7]") == Poly.variable((2, 7))


def test_parse_syntax_error_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("p[1,2] + ", 6)
    assert err.value.position == 9
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("p[1,2] p[3,4]", 6)
    assert err.value.position == 7


def test_parse_rationals_powers_parens():
    poly = parse_expr("3/4*p[1,2]^2 - (p[1,3] + 2)", 4)
    expected = pmono([(1, 2), (1, 2)], Fraction(3, 4)) - (
        pmono([(1, 3)]) + pmono([], 2)
    )
    assert poly == expected
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("p[1,2]^0", 4)
    assert err.value.position == 8
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("1/0", 4)
    assert err.value.position == 3


def test_leading_minus():
    poly = parse_expr("-p[1,2] + p[1,3]", 4)
    assert poly == pmono([(1, 3)]) - pmono([(1, 2)])
    # The minus negates the whole first term, powers included.
    assert parse_expr("-p[1,2]^2*p[3,4]", 4) == -pmono([(1, 2), (1, 2), (3, 4)])


def test_x_variables_are_a_syntax_error(capsys):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("x_1")
    assert err.value.position == 0
    with pytest.raises(ExprSyntaxError):
        parse_expr("p[1,2]*x_1", 6)
    assert main(["straighten", "x_1", "--n", "6"]) == 2
    assert "expected a rational, p[i,j], or '('" in capsys.readouterr().err


def test_degree_cap_refuses_runaway_powers_at_once(capsys):
    start = time.perf_counter()
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("p[1,2]^80000", 4)
    assert time.perf_counter() - start < 1.0
    assert "degree 80000" in str(err.value) and err.value.position == 12
    # A constant's power has degree 0, so its exponent is capped instead.
    with pytest.raises(ExprSyntaxError, match="exponent 80000"):
        parse_expr("2^80000", 4)
    # The cap is on the degree of each product, before it is multiplied out.
    top = f"p[1,2]^{MAX_EXPR_DEGREE}"
    assert parse_expr(top, 4) == pmono([(1, 2)] * MAX_EXPR_DEGREE)
    with pytest.raises(ExprSyntaxError, match=f"degree {MAX_EXPR_DEGREE + 1}"):
        parse_expr(f"{top}*p[3,4]", 4)
    assert parse_expr(f"0*{top}*{top}", 4).is_zero
    assert main(["straighten", "p[1,2]^80000", "--n", "4"]) == 2
    assert "degree 80000 is above the cap" in capsys.readouterr().err


SIX_TERM_SUM = "(p[1,2]+p[1,3]+p[1,4]+p[1,5]+p[1,6]+p[2,3])"


def test_work_cap_refuses_powers_of_sums_at_once(capsys):
    # Degree 60 is far under the degree cap, but the power has C(65, 5)
    # terms; the estimate 6 * (C(65, 6) - 1) is refused before multiplying.
    estimate = 6 * (comb(65, 6) - 1)
    start = time.perf_counter()
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(f"{SIX_TERM_SUM}^60", 6)
    assert time.perf_counter() - start < 1.0
    assert f"estimated {estimate} term products" in str(err.value)
    assert f"above the cap of {MAX_EXPR_WORK}" in str(err.value)
    assert err.value.position == len(SIX_TERM_SUM) + 3
    # A product is charged len(a.terms) * len(b.terms): 3003^2 here.
    with pytest.raises(ExprSyntaxError, match=f"estimated {2 * 30024 + 3003**2} "):
        parse_expr(f"{SIX_TERM_SUM}^10*{SIX_TERM_SUM}^10", 6)
    assert main(["straighten", f"{SIX_TERM_SUM}^60", "--n", "6"]) == 2
    assert "term products, above the cap" in capsys.readouterr().err


def test_work_is_summed_over_the_expression(monkeypatch):
    # (p[1,2]+p[1,3])^3 is charged 2 * (C(4, 2) - 1) = 10 term products.
    monkeypatch.setattr(expr, "MAX_EXPR_WORK", 25)
    cube = "(p[1,2]+p[1,3])^3"
    assert parse_expr(f"{cube} + {cube}", 4) == 2 * parse_expr(cube, 4)
    with pytest.raises(ExprSyntaxError, match="estimated 30 term products"):
        parse_expr(f"{cube} + {cube} - {cube}", 4)


def test_power_of_sum_under_work_cap_is_multinomial():
    # (x1 + ... + x6)^16: every degree-16 monomial, with its multinomial
    # coefficient, built here without Poly arithmetic.
    variables = [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3)]
    expected = Poly(
        {
            mono: factorial(16) // prod(factorial(mono.count(v)) for v in set(mono))
            for mono in combinations_with_replacement(variables, 16)
        }
    )
    value = parse_expr(f"{SIX_TERM_SUM}^16", 6)
    assert len(value.terms) == comb(21, 5)
    assert value == expected


# A random expression is built as a text and, alongside it with Poly
# arithmetic, the value it denotes; one builder per grammar rule.


def _random_atom(rng: random.Random, depth: int) -> tuple[str, Poly]:
    roll = rng.random()
    if depth and roll < 0.35:
        text, value = _random_expr(rng, depth - 1)
        return f"({text})", value
    if roll < 0.6:
        i, j = sorted(rng.sample(range(1, 7), 2))
        return f"p[{i},{j}]", Poly.variable((i, j))
    if roll < 0.8:
        k = rng.randint(0, 9)
        return str(k), Poly.const(k)
    num, den = rng.randint(0, 9), rng.randint(1, 9)
    return f"{num}/{den}", Poly.const(Fraction(num, den))


def _random_factor(rng: random.Random, depth: int) -> tuple[str, Poly]:
    text, value = _random_atom(rng, depth)
    if rng.random() < 0.25:
        exponent = rng.randint(1, 3)
        return f"{text}^{exponent}", value**exponent
    return text, value


def _random_term(rng: random.Random, depth: int) -> tuple[str, Poly]:
    text, value = _random_factor(rng, depth)
    for _ in range(rng.randint(0, 2)):
        more, factor = _random_factor(rng, depth)
        text, value = f"{text}{rng.choice(['*', ' * '])}{more}", value * factor
    return text, value


def _random_expr(rng: random.Random, depth: int) -> tuple[str, Poly]:
    text, value = _random_term(rng, depth)
    if rng.random() < 0.3:
        text, value = f"-{text}", -value
    for _ in range(rng.randint(0, 2)):
        more, part = _random_term(rng, depth)
        if rng.random() < 0.5:
            text, value = f"{text} + {more}", value + part
        else:
            text, value = f"{text} - {more}", value - part
    return text, value


def test_parse_matches_poly_arithmetic_randomized():
    rng = random.Random(12345)
    seen = dict.fromkeys(
        ["leading minus", "nested parens", "power", "rational", "mixed precedence"], 0
    )
    for _ in range(1000):
        text, expected = _random_expr(rng, rng.randint(0, 2))
        assert parse_expr(text, 6) == expected, text
        seen["leading minus"] += text.startswith("-")
        seen["nested parens"] += "((" in text
        seen["power"] += "^" in text
        seen["rational"] += "/" in text
        seen["mixed precedence"] += "*" in text and (" + " in text or " - " in text)
    assert all(seen.values()), seen


def test_canonical_plucker_text_reparses():
    # The canonical printer output is consumable by the CLI grammar.
    from schubert_git.plucker import format_plucker
    from schubert_git.straightening import SupportRange, straighten

    from conftest import random_poly

    rng = random.Random(4)
    support = SupportRange.full(6)
    for _ in range(25):
        p = straighten(random_poly(rng, 6), support)
        assert parse_expr(format_plucker(p), 6) == p
