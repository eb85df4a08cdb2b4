"""The benchmark's own tests: its checks reject corrupted outputs, and its
oracles agree with brute force.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import random
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from schubert_git import case_studies, git_geometry, invariants, presentations  # noqa: E402
from schubert_git.poly import Poly  # noqa: E402
from schubert_git.straightening import SupportRange  # noqa: E402


def _x68() -> SupportRange:
    case = case_studies.CASES["x68"]
    return SupportRange(case.n, case.v, case.w)


def test_kernel_check_accepts_the_program_output():
    support = _x68()
    kernel = invariants.multiplication_kernel(support, 2)
    assert workloads.check_kernel(support, 2, kernel, workloads.Points(0)) == []


def test_flipped_coefficient_in_one_relation_is_rejected():
    support = _x68()
    kernel = invariants.multiplication_kernel(support, 2)
    relation = kernel[2]
    mono = max(relation.terms)
    terms = dict(relation.terms)
    terms[mono] = -terms[mono]
    corrupted = kernel[:2] + [Poly(terms)] + kernel[3:]
    problems = workloads.check_kernel(support, 2, corrupted, workloads.Points(0))
    assert any("relation 3 does not vanish" in p for p in problems)


def test_missing_relation_is_rejected():
    support = _x68()
    kernel = invariants.multiplication_kernel(support, 2)
    problems = workloads.check_kernel(support, 2, kernel[:-1], workloads.Points(0))
    assert any("dimension 4, oracle 5" in p for p in problems)


@pytest.mark.parametrize("n,d", [(6, 3), (8, 2), (10, 2)])
def test_hilbert_count_off_by_one_is_rejected(n, d):
    op = workloads._hilbert_op(n, d)
    h = invariants.hilbert_count(SupportRange.full(n), d)
    assert op.check(h) == []
    assert op.check(h + 1) and op.check(h - 1)


def test_candidates_not_closed_under_complementation_are_rejected():
    n, w = 8, (7, 8)
    result = git_geometry.singular_candidates(w, n)
    assert workloads.check_candidates(result.members, result.pairs, result.l_size, w, n) == []
    members = result.members[1:]
    problems = workloads.check_candidates(members, result.pairs, result.l_size, w, n)
    assert any("not closed under complementation" in p for p in problems)


def _g26_suite():
    case = case_studies.CASES["g26"]
    report = presentations.case_suite("g26")
    identities = list(case.identities) + [None] * len(case.presentation)
    window = (case.n, case.v, case.w)
    return report, (len(report.records), identities, window, workloads.Points(0))


def test_suite_check_accepts_the_program_output():
    report, args = _g26_suite()
    assert workloads._check_suite("g26", report, *args) == []


def test_wrong_identity_is_rejected():
    report, (expected, identities, window, points) = _g26_suite()
    identities[0] = replace(identities[0], rhs=identities[0].rhs + identities[1].lhs)
    problems = workloads._check_suite("g26", report, expected, identities, window, points)
    assert any("quad-1: identity fails at a random point" in p for p in problems)


def test_suite_with_zero_normal_forms_is_rejected():
    """A straightening that returns 0 makes both sides agree, and the
    program reports every identity as passing."""
    report, args = _g26_suite()
    zeroed = replace(
        report, records=tuple(replace(r, lhs_normal_form="0", rhs_normal_form="0") for r in report.records)
    )
    problems = workloads._check_suite("g26", zeroed, *args)
    assert any("quad-1: normal form differs from the identity" in p for p in problems)


def test_corrupted_normal_form_is_rejected():
    report, args = _g26_suite()
    records = list(report.records)
    first = records[0]
    # The leading coefficient with its sign flipped, on one side only.
    assert first.lhs_normal_form.startswith("-")
    records[0] = replace(first, lhs_normal_form=first.lhs_normal_form[1:])
    problems = workloads._check_suite("g26", replace(report, records=tuple(records)), *args)
    assert any("quad-1: the two normal forms differ" in p for p in problems)
    assert any("quad-1: normal form differs from the identity" in p for p in problems)


def test_unstraightened_normal_form_is_rejected():
    report, args = _g26_suite()
    records = list(report.records)
    # p[1,3]*p[2,4] is the non-standard side of a Plucker relation on Gr(2,6).
    records[0] = replace(records[0], lhs_normal_form="p[1,4]*p[2,3]", rhs_normal_form="p[1,4]*p[2,3]")
    problems = workloads._check_suite("g26", replace(report, records=tuple(records)), *args)
    assert any("quad-1: a normal form is not a sum of standard monomials" in p for p in problems)


def test_operation_that_raises_fails_the_run(monkeypatch):
    def broken():
        raise ZeroDivisionError("fault in the program")

    ops = [workloads.Op("straightening", broken, 3, lambda out: [])]
    monkeypatch.setitem(workloads.BUILDERS, "broken", lambda seed: ops)
    record = worker.run_pass("broken", 1, False, time.perf_counter())
    assert record["failed"] == 3 and "ZeroDivisionError" in record["errors"][0]
    assert run.tally([record, record]) == {"correct": False, "attempted": 6, "failed": 6}


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("d", [1, 2])
def test_kostka_matches_exhaustive_search(n, d):
    """Every multiset of dn/2 pairs, kept when it is a chain of content
    (d, ..., d)."""
    pairs = oracles.window_pairs(n, (1, 2), (n - 1, n))
    count = 0
    for mono in combinations_with_replacement(pairs, d * n // 2):
        content = [0] * (n + 1)
        for a, b in mono:
            content[a] += 1
            content[b] += 1
        count += oracles.is_chain(mono) and set(content[1:]) == {d}
    assert oracles.kostka_two_row(n, d) == count


@pytest.mark.parametrize("n", [4, 6, 8, 10])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_kostka_matches_chain_count(n, d):
    assert oracles.kostka_two_row(n, d) == oracles.chain_count(n, (1, 2), (n - 1, n), d)


def test_catalan_and_paper_counts():
    assert [oracles.kostka_two_row(n, 1) for n in (6, 8, 10, 12)] == [
        oracles.catalan(m) for m in (3, 4, 5, 6)
    ]
    assert [oracles.kostka_two_row(12, d) for d in (1, 2, 3)] == [132, 4213, 52844]
    assert [oracles.singular_count(n) for n in (6, 8, 10, 18)] == [10, 35, 126, 24310]
    assert oracles.kernel_dimension(14, 2, 91) == 14
    assert oracles.kernel_dimension(14, 3, 364) == 196


def test_printed_polynomials_parse():
    assert oracles.parse_printed("-p[2,3]*p[4,5] + 3/4*p[2,4]^2") == {
        ((2, 3), (4, 5)): Fraction(-1),
        ((2, 4), (2, 4)): Fraction(3, 4),
    }
    assert oracles.parse_printed("x_3*x_4^2 - x_1") == {
        (("x", 3), ("x", 4), ("x", 4)): Fraction(1),
        (("x", 1),): Fraction(-1),
    }
    for text in ("--p[1,2]", "p[1,2] + q[3,4]", "p[1,2] * p[3,4]"):
        with pytest.raises(ValueError):
            oracles.parse_printed(text)


def test_random_plane_realizes_the_window():
    minors = oracles.random_plane(10, (1, 3), (7, 10), random.Random(4))
    nonzero = {t for t, m in minors.items() if m}
    assert nonzero == set(oracles.window_pairs(10, (1, 3), (7, 10)))


def test_self_times_add_up_to_the_root_span():
    tracer = tracing.Tracer()
    with tracer.span("bench"):
        with tracer.span("a"):
            with tracer.span("b"):
                sum(range(10000))
        with tracer.span("a"):
            sum(range(10000))
    name, start, end, _ = tracer.spans[0]
    busy = tracer.self_times()
    assert name == "bench"
    assert sum(busy.values()) == pytest.approx(end - start)
    assert min(busy.values()) >= 0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_benchmark_spec_names_every_metric_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BUILDERS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "ops_per_s", "peak_rss_mb"}
