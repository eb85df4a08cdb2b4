import random
from fractions import Fraction
from itertools import groupby

from hypothesis import given, settings, strategies as st

from schubert_git.formal import format_formal
from schubert_git.plucker import format_plucker, pmono
from schubert_git.poly import Poly, monomial
from schubert_git.straightening import SupportRange, straighten

from conftest import random_poly


def small_poly(seed: int) -> Poly:
    return random_poly(random.Random(seed), n=6, max_terms=4, max_degree=3)


@given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_ring_axioms(sa, sb, sc):
    a, b, c = small_poly(sa), small_poly(sb), small_poly(sc)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == Poly.zero()


def test_annihilation_and_units():
    a = small_poly(7)
    assert (a * 0).is_zero
    assert a * Poly.zero() == Poly.zero()
    assert a * Poly.const(1) == a
    assert -(-a) == a
    assert a * Fraction(1, 2) * 2 == a


def test_monomial_canonicalization():
    m = monomial([(3, 4), (1, 2), (3, 4)])
    assert m == ((1, 2), (3, 4), (3, 4))
    p = Poly.from_monomial([(3, 4), (1, 2)]) - Poly.from_monomial([(1, 2), (3, 4)])
    assert p.is_zero


def test_unsorted_keys_are_canonicalized():
    spelled = Poly({("b", "a"): 1})
    assert spelled == Poly.from_monomial(["a", "b"])
    assert spelled.terms == {("a", "b"): 1}
    assert spelled.format(str) == "a*b"
    assert spelled.key() == Poly.from_monomial(["b", "a"]).key()
    # Keys that sort alike are summed, and a zero sum is dropped.
    assert Poly({("b", "a"): 1, ("a", "b"): -1}).is_zero
    mixed = Poly({("b", "a"): Fraction(1, 2), ("c",): 2, ("a", "b"): Fraction(1, 2)})
    assert mixed.terms == {("a", "b"): 1, ("c",): 2}
    assert type(mixed.terms[("a", "b")]) is int


def test_power_and_degree():
    x = Poly.variable("a")
    y = Poly.variable("b")
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y


def test_evaluate_exact():
    x = Poly.variable("a")
    y = Poly.variable("b")
    p = x * x - y
    assert p.evaluate({"a": Fraction(2, 3), "b": Fraction(1, 9)}) == Fraction(1, 3)


def test_format_graded_lex():
    x = Poly.variable("a")
    y = Poly.variable("b")
    p = y * y - x + Poly.const(2)
    assert p.format(str) == "2 - a + b^2"
    assert Poly.zero().format(str) == "0"


def _reference_format(p: Poly, token_str) -> str:
    """Poly.format written out plainly: graded-lex terms, each monomial as
    its runs of equal tokens, a run of length e > 1 printed as ``name^e``."""
    if not p.terms:
        return "0"
    text = ""
    for mono, coeff in sorted(p.terms.items(), key=lambda kv: (len(kv[0]), kv[0])):
        runs = [(token, len(list(run))) for token, run in groupby(mono)]
        body = "*".join(
            token_str(token) + ("" if e == 1 else f"^{e}") for token, e in runs
        )
        mag = abs(coeff)
        term = (body if mag == 1 else f"{mag}*{body}") if body else str(mag)
        if not text:
            text = f"-{term}" if coeff < 0 else term
        else:
            text += f" - {term}" if coeff < 0 else f" + {term}"
    return text


def test_format_matches_run_length_reference():
    rng = random.Random(14)
    pairs = [(i, j) for i in range(1, 7) for j in range(i + 1, 8)]
    formal = [("x", k) for k in range(1, 12)] + [("y", i, j) for i, j in pairs[:6]]
    kinds = {"distinct": 0, "repeated": 0}
    cases = [
        (pairs, format_plucker, lambda t: f"p[{t[0]},{t[1]}]"),
        (formal, format_formal, lambda t: f"x_{t[1]}" if t[0] == "x" else f"y[{t[1]},{t[2]}]"),
    ]
    for tokens, text, name in cases:
        for _ in range(200):
            terms = {}
            for _ in range(rng.randint(0, 4)):
                degree = rng.randint(0, 12)
                if rng.random() < 0.5:
                    factors = rng.sample(tokens, min(degree, len(tokens)))
                else:
                    factors = rng.choices(tokens[:4], k=degree)
                mono = monomial(factors)
                kinds["repeated" if len(set(mono)) < len(mono) else "distinct"] += 1
                terms[mono] = rng.choice([1, -1, 3, -12, Fraction(2, 3), Fraction(-5, 4)])
            p = Poly(terms)
            assert text(p) == _reference_format(p, name)
    assert min(kinds.values()) > 100, kinds
    assert format_plucker(pmono([(1, 2), (1, 2), (3, 4)])) == "p[1,2]^2*p[3,4]"


def test_integral_coefficients_are_stored_as_int():
    m = ("a",)
    for value in (Fraction(4, 2), 2):
        (coeff,) = Poly({m: value}).terms.values()
        assert coeff == 2 and type(coeff) is int
    (one,) = Poly({m: True}).terms.values()
    assert one == 1 and type(one) is int
    (half,) = Poly({m: Fraction(1, 2)}).terms.values()
    assert half == Fraction(1, 2) and type(half) is Fraction
    for p in (Poly.const(Fraction(6, 3)), Poly.variable("a"), Poly.from_monomial(["a", "b"], Fraction(-3, 1))):
        assert all(type(c) is int for c in p.terms.values())


def test_int_and_integral_fraction_coefficients_agree():
    monos = [(), ("a",), ("a", "b"), ("b", "b")]
    values = [3, -1, 1, -7]
    as_int = Poly(dict(zip(monos, values)))
    as_fraction = Poly({m: Fraction(v) for m, v in zip(monos, values)})
    assert as_int == as_fraction
    assert as_int.key() == as_fraction.key()
    assert as_int.format(str) == as_fraction.format(str) == "3 - a + a*b - 7*b^2"
    # Sums and products of int polynomials stay on int.
    assert all(type(c) is int for c in (as_int * as_int - as_int).terms.values())
    assert all(type(c) is int for c in (as_int * Fraction(1, 2) * 2).terms.values())


def test_evaluate_returns_fraction():
    p = Poly.variable("a") * 3 + Poly.const(1)
    value = p.evaluate({"a": 2})
    assert value == 7 and type(value) is Fraction
    zero = Poly.zero().evaluate({})
    assert zero == 0 and type(zero) is Fraction


def test_straightener_keeps_integral_coefficients_int():
    p = pmono([(2, 5), (3, 4)], 3) + pmono([(1, 6), (2, 3)], Fraction(-2))
    nf = straighten(p, SupportRange.full(6))
    assert nf.terms
    assert all(type(c) is int for c in nf.terms.values())
