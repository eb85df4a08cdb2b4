"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
comparison is exact (integer or rational equality, no tolerances).
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

from schubert_git import case_studies, linalg
from schubert_git.cli import main as cli_main
from schubert_git.formal import format_formal
from schubert_git.git_geometry import singular_candidates, witness_monomial
from schubert_git.invariants import (
    degree_one_generation_check,
    hilbert_count,
    multiplication_kernel,
    projective_window_products_standard,
)
from schubert_git.plucker import evaluate, random_schubert_point
from schubert_git.poly import Poly
from schubert_git.presentations import case_jacobian, case_suite, toric_suite
from schubert_git.rewriting import (
    confluence_check,
    is_binomial_presentation,
    matching_probes,
    nested_normal_form,
    nesting_reduction_system,
)
from schubert_git.straightening import SupportRange, is_standard, straighten
from schubert_git.weyl import (
    Stability,
    bruhat_leq,
    coset_reps,
    minimal_elements,
    stability_status,
)

from conftest import random_poly
from reference_git_geometry import witness_value, xi_point
from reference_straightening import reference_straighten


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "pass" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"criterion {criterion} failed{suffix}"


def test_criterion_01_minimal_elements(capsys):
    ok = True
    for n in (4, 6, 8, 10, 12):
        half = n // 2
        expected = ((half, n), (half + 1, n))
        ok &= minimal_elements(n) == expected
        code = cli_main(["minimal", "--n", str(n), "--json"])
        out = capsys.readouterr().out
        ok &= code == 0
        ok &= f'"w_ss_min": [{half}, {n}]' in out and f'"w_s_min": [{half + 1}, {n}]' in out
        semistable = [
            w
            for w in coset_reps(n, 2)
            if stability_status(w, n, half) != Stability.NO_SEMISTABLE
        ]
        stable = [
            w for w in coset_reps(n, 2) if stability_status(w, n, half) == Stability.STABLE
        ]
        ok &= all(bruhat_leq(expected[0], w) for w in semistable)
        ok &= all(bruhat_leq(expected[1], w) for w in stable)
        ok &= expected[0] in semistable and expected[1] in stable
    report("1 minimal elements", ok, "n in {4,6,8,10,12}, exhaustive scan")


def test_criterion_02_invariant_dimensions():
    checks = [
        (SupportRange(6, (1, 2), (5, 6)), 1, 5),
        (SupportRange(8, (1, 2), (6, 8)), 1, 9),
        (SupportRange(10, (1, 2), (7, 10)), 1, 14),
    ]
    for n in (6, 8, 10):
        checks.append((SupportRange.schubert(n, (n // 2, n)), 1, 1))
        checks.append((SupportRange.schubert(n, (n // 2 + 1, n)), 1, n // 2))
    ok = all(hilbert_count(support, d) == expected for support, d, expected in checks)
    report("2 invariant dimensions", ok, "5/9/14/1/(n/2) at degree one")


def test_criterion_03_relation_reproduction():
    ok = True
    details = []
    for name, expected in (("g26", 8), ("x68", 14), ("x710", 24)):
        rep = case_suite(name)
        ok &= len(rep.records) == expected and rep.all_ok
        details.append(f"{name} {sum(r.ok for r in rep.records)}/{len(rep.records)}")
    for k in (2, 3):
        rep = toric_suite(10, k)
        ok &= rep.all_ok
        details.append(f"richardson(10,{k}) {sum(r.ok for r in rep.records)}/{len(rep.records)}")
    report("3 relation reproduction", ok, ", ".join(details))


def _relation_vector(rel: Poly, combos: list[tuple[int, ...]]) -> dict[int, Fraction]:
    index = {c: i for i, c in enumerate(combos)}
    return {
        index[tuple(sorted(t[1] - 1 for t in mono))]: coeff for mono, coeff in rel.terms.items()
    }


def test_criterion_04_kernel_structure():
    g26 = SupportRange(6, (1, 2), (5, 6))
    ok = multiplication_kernel(g26, 2) == []
    k3 = multiplication_kernel(g26, 3)
    ok &= len(k3) == 1
    cubic = case_studies.G26.presentation[0]
    lead = k3[0].terms[min(k3[0].terms)]
    target = cubic.terms[min(cubic.terms)]
    ok &= k3[0] * target == cubic * lead
    for name, num_gens, min_dim in (("x68", 9, 5), ("x710", 14, 21)):
        case = case_studies.CASES[name]
        support = SupportRange(case.n, case.v, case.w)
        kernel = multiplication_kernel(support, 2)
        ok &= len(kernel) >= min_dim
        combos = list(combinations_with_replacement(range(num_gens), 2))
        kernel_vectors = [_relation_vector(p, combos) for p in kernel]
        base_rank = linalg.rank(kernel_vectors)
        for rel in case.presentation:
            ok &= linalg.rank(kernel_vectors + [_relation_vector(rel, combos)]) == base_rank
    report("4 kernel structure", ok, "0 / {F} / >=5 / all 21 contained")


def test_criterion_05_projective_space_quotients():
    ok = True
    for n in (6, 8, 10):
        for k in range(2, n // 2 + 1):
            support = SupportRange(n, (1, k + 1), (n // 2 + 1, n))
            for d in (1, 2, 3):
                ok &= hilbert_count(support, d) == comb(n // 2 - k + d, d)
            ok &= projective_window_products_standard(n, k, d=2)
            ok &= projective_window_products_standard(n, k, d=3)
    report("5 projective-space quotients", ok, "dim = C(n/2-k+d, d), products standard")


def test_criterion_06_confluence_and_binomials():
    system = nesting_reduction_system(6)
    probes = matching_probes(6)
    rep = confluence_check(system, probes)
    expected = format_formal(Poly.from_monomial(nested_normal_form(6)))
    ok = rep.confluent
    ok &= all(r.normal_forms == (expected,) for r in rep.results)
    ok &= expected == "y[1,6]*y[2,5]*y[3,4]"
    ok &= is_binomial_presentation(case_studies.toric_presentation(10, 2))
    ok &= is_binomial_presentation(case_studies.toric_presentation(10, 3))
    report("6 confluence and binomials", ok, f"{len(probes)} probes -> {expected}")


def test_criterion_07_jacobian_singularities():
    r1 = case_jacobian("g26", [1, 0, 0, 0, 0])
    ok = r1.matrix == ((0, 0, 0, 0, 0),) and r1.rank == 0 and r1.singular
    r2 = case_jacobian("x68", [0, 0, 0, 0, 0, 0, 0, 0, 1])
    ok &= r2.rank == 2 and r2.codim_target == 4 and r2.singular
    report("7 jacobian singularities", ok, "grad F = 0 at e1; rank 2 < 4 at e9")


def test_criterion_08_singular_counts():
    ok = True
    for n, expected in ((6, 10), (8, 35), (10, 126)):
        result = singular_candidates((n - 1, n), n)
        ok &= result.l_size == expected
        ok &= len(result.members) == 2 * expected
        ok &= all(
            a != b and sorted(a + b) == list(range(1, n + 1)) for a, b in result.pairs
        )
        half = n // 2
        identity = tuple(range(1, half + 1))
        reversal = tuple(range(half + 1, n + 1))
        xis = [xi_point(n, seed) for seed in range(5)]
        for subset in result.members:
            if subset in (identity, reversal):
                continue
            full = SupportRange.full(n)
            mono = witness_monomial(subset, n)
            ok &= is_standard(mono, full)
            ok &= all(witness_value(subset, xi) != 0 for xi in xis)
    report("8 singular counts", ok, "L = 10/35/126, involution free, witnesses nonzero")


def test_criterion_09_straightening_soundness():
    rng = random.Random(20240915)
    ok = True
    sizes = [4, 5, 6, 7, 8]
    matrices = {
        n: [random_schubert_point(SupportRange.full(n), seed) for seed in range(20)]
        for n in sizes
    }
    for trial in range(200):
        n = sizes[trial % len(sizes)]
        support = SupportRange.full(n)
        p = random_poly(rng, n, max_terms=3, max_degree=3)
        nf = straighten(p, support)
        ok &= all(is_standard(mono, support) for mono in nf.terms)
        ok &= straighten(nf, support) == nf
        ok &= reference_straighten(p, support, strategy="random", seed=trial) == nf
        ok &= all(evaluate(p, A) == evaluate(nf, A) for A in matrices[n])
        if not ok:
            break
    report("9 straightening soundness", ok, "200 polynomials x 20 points, exact")


def test_criterion_10_degree_one_generation():
    ok = True
    supports = [
        SupportRange(6, (1, 2), (5, 6)),
        SupportRange(8, (1, 2), (6, 8)),
        SupportRange(10, (1, 2), (7, 10)),
        SupportRange(6, (1, 3), (5, 6)),
        SupportRange(6, (1, 4), (4, 6)),
        SupportRange(8, (1, 3), (6, 8)),
        SupportRange(8, (1, 4), (6, 8)),
        SupportRange(10, (1, 3), (7, 10)),
    ]
    for support in supports:
        for d in (2, 3):
            ok &= degree_one_generation_check(support, d)
    report("10 degree-one generation", ok, "3 case studies + 5 windows, d in {2,3}")
