import random
from fractions import Fraction

import pytest
from reference_rewriting import reference_confluence_check, reference_reduce_steps

from schubert_git.formal import format_formal, ytoken
from schubert_git.poly import Poly
from schubert_git.rewriting import (
    ConfluenceReport,
    ReductionSystem,
    RewriteGraphLimit,
    _steps,
    confluence_check,
    is_binomial_presentation,
    matching_probes,
    nested_normal_form,
    nesting_reduction_system,
)


def test_single_rule_confluent():
    system = ReductionSystem(
        ((("a", "b"), Poly.from_monomial(["c", "d"])),)
    )
    report = confluence_check(system, [("a", "b")])
    assert report.confluent
    assert report.results[0].normal_forms == ("c*d",)


def test_two_rule_counterexample():
    system = ReductionSystem(
        (
            (("a", "b"), Poly.from_monomial(["c", "c"])),
            (("a", "b"), Poly.from_monomial(["d", "d"])),
        )
    )
    report = confluence_check(system, [("a", "b")])
    assert not report.confluent
    assert len(report.results[0].normal_forms) == 2


def test_rule_validation_rejects_trivial_loop():
    with pytest.raises(ValueError):
        ReductionSystem(((("a",), Poly.from_monomial(["a", "b"])),))
    with pytest.raises(ValueError):
        ReductionSystem((((), Poly.from_monomial(["a"])),))


def test_nesting_system_unique_normal_form():
    system = nesting_reduction_system(6)
    assert len(system.rules) == 30
    probes = matching_probes(6)
    assert len(probes) == 15
    report = confluence_check(system, probes)
    assert report.confluent
    expected = format_formal(Poly.from_monomial(nested_normal_form(6)))
    assert expected == "y[1,6]*y[2,5]*y[3,4]"
    for result in report.results:
        assert result.normal_forms == (expected,)


def test_nesting_system_ordered_probe():
    # The side-by-side probe from the three-factor diagram.
    system = nesting_reduction_system(6)
    probe = tuple(sorted((ytoken(1, 2), ytoken(3, 4), ytoken(5, 6))))
    report = confluence_check(system, [probe])
    assert report.results[0].normal_forms == ("y[1,6]*y[2,5]*y[3,4]",)


def test_rule_order_does_not_change_report():
    system = nesting_reduction_system(6)
    probes = matching_probes(6)
    baseline = confluence_check(system, probes)
    rng = random.Random(3)
    for _ in range(3):
        shuffled = list(system.rules)
        rng.shuffle(shuffled)
        scrambled = ReductionSystem(tuple(shuffled))
        assert confluence_check(scrambled, probes) == baseline


def test_polynomial_right_sides():
    # x*y -> x + y is a legal rule; reduction acts on terms of polynomials.
    system = ReductionSystem(
        ((("x", "y"), Poly.variable("x") + Poly.variable("y")),)
    )
    report = confluence_check(system, [("x", "x", "y")])
    assert report.confluent
    (form,) = report.results[0].normal_forms
    assert form == "x + y + x^2"  # x*(x+y), then the leftover x*y reduces too


def _outcome(check, system, probes, state_cap=10_000):
    try:
        report = check(system, probes, state_cap=state_cap)
    except RewriteGraphLimit as exc:
        return ("limit", str(exc))
    return [(r.probe, r.normal_forms, r.states_explored) for r in report.results]


def _random_system(rng):
    tokens = ["a", "b", "c", "d"][: rng.randint(3, 4)]
    rules = []
    while len(rules) < rng.randint(1, 4):
        lhs = tuple(sorted(rng.choices(tokens, k=rng.randint(1, 2))))
        terms = {}
        for _ in range(rng.randint(1, 2)):
            mono = tuple(sorted(rng.choices(tokens, k=rng.randint(0, 2))))
            terms[mono] = rng.choice([1, -1, 2])
        rule = (lhs, Poly(terms))
        try:
            ReductionSystem((rule,))
        except ValueError:  # the right side reproduces the left side
            continue
        rules.append(rule)
    probes = [
        tuple(rng.choices(tokens, k=rng.randint(1, 3))) for _ in range(rng.randint(2, 5))
    ]
    return ReductionSystem(tuple(rules)), probes


def test_shared_graph_matches_reference():
    cases = []
    rng = random.Random(6)
    # Rule order is varied on 4 and 6 symbols only: the 8-symbol shuffles
    # ran the same code paths, at most of the reference scan's cost.
    for symbols, shuffles in ((4, 3), (6, 3), (8, 0)):
        system = nesting_reduction_system(symbols)
        cases.append((system, matching_probes(symbols), 10_000))
        for _ in range(shuffles):
            shuffled = list(system.rules)
            rng.shuffle(shuffled)
            cases.append((ReductionSystem(tuple(shuffled)), matching_probes(symbols), 10_000))
    counterexample = ReductionSystem(
        (
            (("a", "b"), Poly.from_monomial(["c", "c"])),
            (("a", "b"), Poly.from_monomial(["d", "d"])),
        )
    )
    cases.append((counterexample, [("a", "b"), ("a", "b", "e"), ("a", "a", "b", "b")], 10_000))
    polynomial = ReductionSystem(((("x", "y"), Poly.variable("x") + Poly.variable("y")),))
    cases.append((polynomial, [("x", "x", "y"), ("x", "y"), ("x", "y", "y")], 10_000))
    for _ in range(50):
        system, probes = _random_system(rng)
        cases.append((system, probes, 25))
    limited = 0
    for system, probes, cap in cases:
        expected = _outcome(reference_confluence_check, system, probes, cap)
        assert _outcome(confluence_check, system, probes, cap) == expected
        limited += expected[0] == "limit"
    # Both the finished and the refused branch are compared.
    assert 0 < limited < len(cases) - 20


def _indexed_system(rng):
    """A random system that exercises the rule index: left sides of degree
    1-3 given in any order and with repeated tokens, several rules on one
    left side, and right sides with Fraction coefficients."""
    tokens = ["a", "b", "c", "d"]
    rules = []
    target = rng.randint(1, 5)
    while len(rules) < target:
        if rules and rng.random() < 0.3:
            lhs = list(rng.choice(rules)[0])
            rng.shuffle(lhs)
        else:
            lhs = rng.choices(tokens, k=rng.randint(1, 3))
        terms = {}
        for _ in range(rng.randint(1, 3)):
            mono = tuple(sorted(rng.choices(tokens, k=rng.randint(0, 3))))
            terms[mono] = rng.choice([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
        rule = (tuple(lhs), Poly(terms))
        try:
            ReductionSystem((rule,))
        except ValueError:  # the right side reproduces the left side
            continue
        rules.append(rule)
    return ReductionSystem(tuple(rules))


def _random_state(rng):
    # Poly sorts every monomial on construction; the unsorted spellings
    # here exercise that sort, and the rule index must still match each
    # term as a multiset, as the reference does.
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = rng.choices(["a", "b", "c", "d"], k=rng.randint(0, 4))
        if rng.random() < 0.7:
            mono.sort()
        terms[tuple(mono)] = rng.choice([1, -2, 3, Fraction(2, 3)])
    return Poly(terms)


def test_rule_index_matches_all_rules_scan():
    rng = random.Random(14)
    seen = {"degree 3": 0, "unsorted": 0, "shared left side": 0, "fraction": 0}
    outcomes = {"finished": 0, "refused": 0}
    for _ in range(150):
        system = _indexed_system(rng)
        lefts = [tuple(sorted(lhs)) for lhs, _ in system.rules]
        seen["degree 3"] += any(len(lhs) == 3 for lhs in lefts)
        seen["unsorted"] += any(tuple(sorted(lhs)) != lhs for lhs, _ in system.rules)
        seen["shared left side"] += len(set(lefts)) < len(lefts)
        seen["fraction"] += any(
            type(c) is Fraction for _, rhs in system.rules for c in rhs.terms.values()
        )
        for _ in range(4):
            state = _random_state(rng)
            got = list(_steps(system, state).values())
            expected = reference_reduce_steps(system, state)
            assert len({p.key() for p in got}) == len(got)
            assert sorted(p.key() for p in got) == sorted(p.key() for p in expected)
        probes = [
            tuple(rng.choices(["a", "b", "c", "d"], k=rng.randint(1, 4)))
            for _ in range(rng.randint(2, 5))
        ]
        expected = _outcome(reference_confluence_check, system, probes, 30)
        assert _outcome(confluence_check, system, probes, 30) == expected
        outcomes["refused" if expected[0] == "limit" else "finished"] += 1
    assert all(seen.values()), seen
    assert all(outcomes.values()), outcomes


def test_cyclic_system_refused_by_both():
    # a -> b*c and b -> a feed each other: a, b*c, a*c, b*c^2, ... never
    # ends, so both searches refuse it at the cap with the same message.
    system = ReductionSystem(
        (
            (("a",), Poly.from_monomial(["b", "c"])),
            (("b",), Poly.variable("a")),
        )
    )
    for cap in (3, 10):
        expected = _outcome(reference_confluence_check, system, [("a",)], cap)
        assert expected == ("limit", f"more than {cap} states from probe ('a',)")
        assert _outcome(confluence_check, system, [("a",)], cap) == expected


def test_state_cap_is_per_probe():
    # The six-symbol matchings come first and add 15 states to the shared
    # graph before the probe that alone reaches 105; a cap counted over the
    # shared graph would refuse it.
    system = nesting_reduction_system(8)
    probes = matching_probes(6) + matching_probes(8)
    report = confluence_check(system, probes)
    cap = max(r.states_explored for r in report.results)
    assert cap == 105
    assert confluence_check(system, probes, state_cap=cap) == report
    with pytest.raises(RewriteGraphLimit):
        confluence_check(system, probes, state_cap=cap - 1)


def test_nesting_system_ten_symbols():
    report = confluence_check(nesting_reduction_system(10), matching_probes(10))
    assert len(report.results) == 945
    assert report.confluent
    expected = format_formal(Poly.from_monomial(nested_normal_form(10)))
    assert expected == "y[1,10]*y[2,9]*y[3,8]*y[4,7]*y[5,6]"
    assert all(r.normal_forms == (expected,) for r in report.results)
    assert sum(r.states_explored for r in report.results) == 207_738


def test_matching_probes_refuse_more_matchings_than_the_state_cap():
    # Every state of the nesting system is a perfect matching, so a symbol
    # count with more than STATE_CAP of them is refused before any probe is
    # built, with the count (or, once past the cap, a bound) and the cap.
    assert len(matching_probes(10)) == 945
    with pytest.raises(ValueError, match=r"\(12-1\)!! = 10395 states, above the cap of 10000"):
        matching_probes(12)
    with pytest.raises(ValueError, match=r"\(14-1\)!! > 45045 states"):
        matching_probes(14)


def test_state_cap():
    system = nesting_reduction_system(8)
    with pytest.raises(RewriteGraphLimit):
        confluence_check(system, matching_probes(8), state_cap=3)


def test_binomial_presentation_shapes():
    from schubert_git.formal import yvar

    good = [yvar(1, 2) * yvar(3, 4) - yvar(1, 3) * yvar(2, 4)]
    assert is_binomial_presentation(good)
    assert not is_binomial_presentation([yvar(1, 2) * 2 - yvar(1, 3)])
    assert not is_binomial_presentation(
        [yvar(1, 2) - yvar(1, 3) + yvar(1, 4)]
    )
    assert is_binomial_presentation([])


def test_report_is_a_value():
    system = nesting_reduction_system(4)
    report = confluence_check(system, matching_probes(4))
    assert isinstance(report, ConfluenceReport)
    assert report == confluence_check(system, matching_probes(4))
    assert hash(report) == hash(confluence_check(system, matching_probes(4)))
    with pytest.raises(AttributeError):
        report.results = ()
    assert report.confluent
    assert report.results[0].states_explored >= 1
