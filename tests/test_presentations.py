import random
from fractions import Fraction

import pytest

from schubert_git import case_studies
from schubert_git.case_studies import toric_presentation
from schubert_git.invariants import content
from schubert_git.plucker import evaluate, pmono, random_schubert_point
from schubert_git.poly import Poly
from schubert_git.presentations import (
    case_jacobian,
    case_suite,
    jacobian,
    toric_suite,
    verify_identity,
)
from schubert_git.rewriting import is_binomial_presentation
from schubert_git.straightening import SupportRange


def partial_derivative(p: Poly, token) -> Poly:
    """Exact partial derivative with respect to one variable token: the
    oracle for the one-pass Jacobian rows."""
    out = {}
    for mono, coeff in p.terms.items():
        exponent = mono.count(token)
        if not exponent:
            continue
        lowered = list(mono)
        lowered.remove(token)
        key = tuple(lowered)
        out[key] = out.get(key, 0) + coeff * exponent
    return Poly(out)


def test_verify_identity_examples(g26_support, x68_support, x710_support):
    g26 = case_studies.G26
    x3, x4, x2, x5 = (pmono(g26.generator_monomials[k]) for k in (2, 3, 1, 4))
    y2 = pmono(dict(g26.auxiliaries)["Y_2"])
    assert verify_identity(x3 * x4, x2 * x5 - y2, g26_support)

    x68 = case_studies.X68
    g = [pmono(m) for m in x68.generator_monomials]
    y1 = pmono(dict(x68.auxiliaries)["Y_1"])
    assert verify_identity(g[0] * g[2], g[1] * g[3] - y1, x68_support)

    x710 = case_studies.X710
    g = [pmono(m) for m in x710.generator_monomials]
    y1 = pmono(dict(x710.auxiliaries)["Y_1"])
    assert verify_identity(y1, g[3] * g[6] - g[0] * g[7], x710_support)


def test_verify_identity_detects_failure(g26_support):
    assert not verify_identity(pmono([(1, 2)]), pmono([(1, 3)]), g26_support)


@pytest.mark.parametrize(
    "name,count",
    [("g26", 7 + 1), ("x68", 9 + 5), ("x710", 3 + 21)],
)
def test_case_suites_all_pass(name, count):
    report = case_suite(name)
    assert len(report.records) == count
    assert report.all_ok, [r.relation_label for r in report.failures()]
    for record in report.records:
        assert record.case == name
        assert record.status == "pass"
        assert record.lhs_normal_form == record.rhs_normal_form


def test_case_suite_unknown_case():
    with pytest.raises(ValueError):
        case_suite("g27")


@pytest.mark.parametrize(
    "n,k,families", [(10, 2, 10), (10, 3, 2), (8, 2, 2), (20, 2, 420), (20, 3, 252)]
)
def test_toric_suites_pass(n, k, families):
    report = toric_suite(n, k)
    assert len(report.records) == families
    assert report.all_ok


def test_toric_relation_evaluation_at_richardson_points():
    # The exchange identities vanish at actual points of the window.
    n, k = 8, 2
    support = SupportRange(n, (1, k + 1), (n // 2 + 2, n))
    identities = case_studies.toric_identities(n, k)
    for seed in range(5):
        A = random_schubert_point(support, seed)
        for ident in identities:
            assert evaluate(ident.lhs - ident.rhs, A) == 0


def test_recorded_relations_vanish_at_schubert_points():
    for case in case_studies.CASES.values():
        support = SupportRange(case.n, case.v, case.w)
        identities = list(case.identities) + case_studies.case_kernel_identities(case)
        matrices = [random_schubert_point(support, seed) for seed in range(20)]
        for ident in identities:
            difference = ident.lhs - ident.rhs
            for A in matrices:
                assert evaluate(difference, A) == 0


def test_g26_values_satisfy_cubic_at_random_points(g26_support):
    cubic = case_studies.G26.presentation[0]
    for seed in range(10):
        A = random_schubert_point(g26_support, seed)
        point = {
            ("x", k): evaluate(pmono(m), A)
            for k, m in enumerate(case_studies.G26.generator_monomials, start=1)
        }
        assert cubic.evaluate(point) == 0


def test_jacobian_gradient_vanishes_at_cone_point():
    report = case_jacobian("g26", [1, 0, 0, 0, 0])
    assert report.matrix == ((0, 0, 0, 0, 0),)
    assert report.rank == 0
    assert report.codim_target == 1
    assert report.singular


def test_jacobian_x68_displayed_matrix():
    report = case_jacobian("x68", [0, 0, 0, 0, 0, 0, 0, 0, 1])
    expected = (
        (0, 0, 0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, -1, 0, 0, 0, 0, 0),
        (0, 0, 0, 1, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, 0, 0),
        (-1, 0, 0, 0, 0, 0, 0, 0, 0),
    )
    assert report.matrix == tuple(tuple(Fraction(x) for x in row) for row in expected)
    assert report.rank == 2
    assert report.codim_target == 4
    assert report.singular


def test_jacobian_nonsingular_hypersurface_point():
    # Seeded search for a point on the cubic with nonvanishing gradient.
    cubic = case_studies.G26.presentation[0]
    rng = random.Random(0)
    found = None
    while found is None:
        partial_point = [Fraction(rng.randint(-4, 4)) for _ in range(4)]
        # Solve for the last coordinate when the cubic is linear in it.
        assignment = {("x", k): partial_point[k - 1] for k in range(1, 5)}
        linear = Fraction(0)
        constant = Fraction(0)
        for mono, coeff in cubic.terms.items():
            exponent = mono.count(("x", 5))
            rest = [t for t in mono if t != ("x", 5)]
            value = coeff
            for t in rest:
                value *= assignment[t]
            if exponent == 0:
                constant += value
            elif exponent == 1:
                linear += value
        if linear == 0:
            continue
        candidate = partial_point + [-constant / linear]
        report = case_jacobian("g26", candidate)
        full = {("x", k): candidate[k - 1] for k in range(1, 6)}
        assert cubic.evaluate(full) == 0
        if report.rank == 1:
            found = report
    assert not found.singular


def test_jacobian_linearity_and_product_rule():
    rng = random.Random(7)

    def random_formal():
        out = Poly.zero()
        for _ in range(rng.randint(1, 3)):
            mono = [("x", rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
            out = out + Poly.from_monomial(mono, rng.randint(-3, 3))
        return out

    token = ("x", 2)
    for _ in range(25):
        f, g = random_formal(), random_formal()
        assert partial_derivative(f + g, token) == partial_derivative(
            f, token
        ) + partial_derivative(g, token)
        assert partial_derivative(f * g, token) == partial_derivative(
            f, token
        ) * g + f * partial_derivative(g, token)


def test_jacobian_dimension_mismatch():
    with pytest.raises(ValueError):
        case_jacobian("g26", [1, 0, 0])
    with pytest.raises(ValueError):
        jacobian([Poly.variable(("x", 3))], [1, 2], codim_target=1)


@pytest.mark.parametrize("name", ["g26", "x68", "x710"])
def test_jacobian_rows_match_the_derivative_oracle(name):
    # Every unit point, which includes the paper's e_1 and e_9, then seeded
    # rational points.
    case = case_studies.CASES[name]
    width = len(case.generators)
    points = [[int(j == k) for j in range(width)] for k in range(width)]
    rng = random.Random(name)
    points += [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(width)]
        for _ in range(10)
    ]
    for point in points:
        assignment = {("x", k): Fraction(x) for k, x in enumerate(point, start=1)}
        expected = tuple(
            tuple(
                partial_derivative(rel, ("x", k)).evaluate(assignment)
                for k in range(1, width + 1)
            )
            for rel in case.presentation
        )
        assert case_jacobian(name, point).matrix == expected


@pytest.mark.parametrize("name", ["g26", "x68", "x710"])
def test_case_tables_are_well_formed(name):
    # A dropped or extra factor in a table entry shows as a term whose
    # content vector is not (c, ..., c), or differs from its neighbours'.
    case = case_studies.CASES[name]

    def contents(*polys):
        return {content(mono, case.n) for p in polys for mono in p.terms}

    for identity in case.identities:
        (vector,) = contents(identity.lhs, identity.rhs)
        assert vector == (vector[0],) * case.n, identity.label
    d = case.presentation_degree
    for identity in case_studies.case_kernel_identities(case):
        assert contents(identity.lhs) <= {(d,) * case.n}, identity.label
        assert identity.rhs.is_zero


def test_binomial_detection():
    assert is_binomial_presentation(toric_presentation(10, 2))
    assert not is_binomial_presentation(list(case_studies.G26.presentation))
    assert is_binomial_presentation([])


def test_reports_expose_normal_forms_on_failure(g26_support):
    from schubert_git.presentations import _run_checks
    from schubert_git.case_studies import Identity

    bogus = Identity("bogus", pmono([(1, 2)]), pmono([(1, 3)]))
    report = _run_checks("g26", [bogus], g26_support)
    (record,) = report.records
    assert record.status == "fail"
    assert record.lhs_normal_form == "p[1,2]"
    assert record.rhs_normal_form == "p[1,3]"


def test_passing_record_prints_one_normal_form_for_both_sides(g26_support):
    from schubert_git.presentations import _run_checks
    from schubert_git.case_studies import Identity
    from schubert_git.plucker import format_plucker
    from schubert_git.straightening import straighten

    lhs = pmono([(2, 5), (3, 4)])
    true = Identity("true", lhs, pmono([(2, 4), (3, 5)]) - pmono([(2, 3), (4, 5)]))
    false_rhs = pmono([(2, 4), (3, 5)])
    false = Identity("false", lhs, false_rhs)
    passed, failed = _run_checks("g26", [true, false], g26_support).records
    assert passed.status == "pass"
    assert passed.lhs_normal_form == passed.rhs_normal_form == format_plucker(straighten(lhs, g26_support))
    assert failed.status == "fail"
    assert failed.lhs_normal_form == passed.lhs_normal_form
    assert failed.rhs_normal_form == format_plucker(straighten(false_rhs, g26_support))
    assert failed.rhs_normal_form != failed.lhs_normal_form


@pytest.mark.parametrize(
    "suite", ["g26", "x68", "x710", (10, 2), (10, 3), (12, 2)], ids=str
)
def test_suite_records_print_reference_normal_forms(suite):
    # Each side straightened on its own by the independent reference loop
    # prints what the suite's one batch printed for it.
    from schubert_git.plucker import format_plucker

    from reference_straightening import reference_straighten

    if isinstance(suite, str):
        case = case_studies.CASES[suite]
        support = SupportRange(case.n, case.v, case.w)
        identities = list(case.identities) + case_studies.case_kernel_identities(case)
        report = case_suite(suite)
    else:
        n, k = suite
        support = SupportRange(n, (1, k + 1), (n // 2 + 2, n))
        identities = case_studies.toric_identities(n, k)
        report = toric_suite(n, k)
    assert len(report.records) == len(identities)
    for record, identity in zip(report.records, identities):
        assert record.relation_label == identity.label
        lhs = format_plucker(reference_straighten(identity.lhs, support))
        rhs = format_plucker(reference_straighten(identity.rhs, support))
        assert (record.lhs_normal_form, record.rhs_normal_form) == (lhs, rhs)
        assert record.status == ("pass" if lhs == rhs else "fail")


@pytest.mark.parametrize("n", [10, 12, 20])
def test_toric_identities_match_per_identity_construction(n):
    from itertools import combinations

    from schubert_git.case_studies import toric_generator

    def y(i, j):
        return pmono(toric_generator(n, i, j))

    for k in range(2, n // 2 - 1):
        expected = []
        for i, j, m, s in combinations(range(k + 1, n // 2 + 3), 4):
            expected.append((f"exchange-{i}.{j}.{m}.{s}", y(i, j) * y(m, s), y(i, m) * y(j, s)))
            expected.append((f"nest-{i}.{j}.{m}.{s}", y(i, m) * y(j, s), y(i, s) * y(j, m)))
        got = [(ident.label, ident.lhs, ident.rhs) for ident in case_studies.toric_identities(n, k)]
        assert got == expected


def test_x710_cas_transcription_matches_recorded_relation():
    # The 12th recorded relation also circulates with its terms permuted;
    # both readings are literally the same polynomial.
    permuted = "X_1 X_6 - X_4 X_6 - X_2 X_7 + X_4 X_7 - X_1 X_8 + X_2 X_8"
    formal = {f"X_{k}": (("x", k),) for k in range(1, 15)}
    assert case_studies._read(permuted, formal) == case_studies.X710.presentation[11]
