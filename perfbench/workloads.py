"""The benchmark's three workloads: their operations and output checks.

Each workload is a fixed list of calls into the program's public functions
or, for the command line, fresh ``python3 -m schubert_git.cli`` processes.
An operation carries the layer its call enters, how many units of work it
counts for, and a check that compares its output with the oracles in
``oracles.py``.  Checks run after the timed pass.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Callable

import oracles
from schubert_git import (
    case_studies,
    git_geometry,
    invariants,
    presentations,
    rewriting,
    weyl,
)
from schubert_git.straightening import SupportRange

# Evaluation points per window in every check that evaluates a polynomial.
POINTS = 2


@dataclass
class Op:
    layer: str  # span name of the call into the program
    call: Callable[[], object]
    weight: int  # operations this call counts for
    check: Callable[[object], list[str]]  # problems found; empty when correct
    count: Callable[[Counter, object], None] | None = None  # traced counters


class Points:
    """Seeded random points per window, drawn once per pass."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._cache: dict[tuple, list[dict]] = {}

    def of(self, n: int, v, w) -> list[dict]:
        key = (n, tuple(v), tuple(w))
        if key not in self._cache:
            rng = random.Random(f"{self.seed}:{key}")
            self._cache[key] = [oracles.random_plane(n, v, w, rng) for _ in range(POINTS)]
        return self._cache[key]


def _expect(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


# --- verify -----------------------------------------------------------------


def _check_suite(label, rep, expected, identities, window, points) -> list[str]:
    """A suite report against its identity table.

    ``identities`` lists, record by record, the identity the program was
    asked to check, or None where its left side must vanish on the window
    (the presentation relations).  Both printed normal forms must be
    standard, chains of window pairs, and equal, since standard monomials
    are a basis on the window; and each must agree with the identity's left
    side at seeded random points, where the identity must hold too.
    """
    problems: list[str] = []
    records = rep.records
    _expect(problems, len(records) == expected, f"{label}: {len(records)} identities, oracle {expected}")
    window_pairs = set(oracles.window_pairs(*window))
    for record, ident in zip(records, identities):
        name = f"{label}: {record.relation_label}"
        if ident is not None and record.relation_label != ident.label:
            problems.append(f"{name}: label differs from the identity table ({ident.label})")
            continue
        try:
            lhs_nf = oracles.parse_printed(record.lhs_normal_form)
            rhs_nf = oracles.parse_printed(record.rhs_normal_form)
        except ValueError as exc:
            problems.append(f"{name}: {exc}")
            continue
        _expect(problems, record.status == "pass", f"{name}: reported {record.status!r}")
        _expect(problems, lhs_nf == rhs_nf, f"{name}: the two normal forms differ")
        standard = all(set(mono) <= window_pairs and oracles.is_chain(mono) for mono in (*lhs_nf, *rhs_nf))
        _expect(problems, standard, f"{name}: a normal form is not a sum of standard monomials")
        for point in points.of(*window):
            value = oracles.evaluate(lhs_nf, point)
            if ident is None:
                _expect(problems, value == 0, f"{name}: normal form does not vanish at a random point")
                continue
            lhs = oracles.evaluate(ident.lhs.terms, point)
            _expect(problems, lhs == oracles.evaluate(ident.rhs.terms, point), f"{name}: identity fails at a random point")
            _expect(problems, value == lhs, f"{name}: normal form differs from the identity at a random point")
    return problems


def _toric_op(n: int, k: int, points: Points) -> Op:
    window = (n, (1, k + 1), (n // 2 + 2, n))
    expected = oracles.toric_identity_count(n, k)
    return Op(
        "presentations",
        lambda: presentations.toric_suite(n, k),
        expected,
        lambda rep: _check_suite(
            f"toric({n},{k})", rep, expected, case_studies.toric_identities(n, k), window, points
        ),
        lambda c, rep: c.update({"presentations.identities": len(rep.records)}),
    )


def _case_op(name: str, points: Points) -> Op:
    case = case_studies.CASES[name]
    window = (case.n, case.v, case.w)
    expected = len(case.identities) + len(case.presentation)

    def check(rep) -> list[str]:
        identities = list(case.identities) + [None] * len(case.presentation)
        problems = _check_suite(name, rep, expected, identities, window, points)
        # The presentation relations are evaluated through generator values,
        # not through the program's substitution.
        for point in points.of(*window):
            values = _generator_values(case.generator_monomials, point)
            for rel in case.presentation:
                if oracles.evaluate(rel.terms, values):
                    problems.append(f"{name}: a presentation relation fails at a random point")
        return problems

    return Op(
        "presentations",
        lambda: presentations.case_suite(name),
        expected,
        check,
        lambda c, rep: c.update({"presentations.identities": len(rep.records)}),
    )


def _generator_values(monomials, point) -> dict:
    return {("x", k): oracles.evaluate({m: 1}, point) for k, m in enumerate(monomials, start=1)}


def _confluence_op(symbols: int) -> Op:
    expected = oracles.double_factorial_odd(symbols)
    nested = oracles.nested_matching_text(symbols)

    def check(report) -> list[str]:
        problems: list[str] = []
        results = report.results
        _expect(problems, len(results) == expected, f"confluence: {len(results)} probes, oracle {expected}")
        _expect(problems, len({r.probe for r in results}) == len(results), "confluence: repeated probes")
        for r in results:
            symbols_used = sorted(s for token in r.probe for s in token[1:])
            if symbols_used != list(range(1, symbols + 1)):
                problems.append(f"confluence: probe {r.probe} is not a perfect matching")
            if tuple(r.normal_forms) != (nested,):
                problems.append(f"confluence: probe {r.probe} reaches {r.normal_forms}")
        _expect(problems, report.confluent == (not problems), "confluence: verdict disagrees with the probes")
        return problems

    return Op(
        "rewriting",
        lambda: rewriting.confluence_check(
            rewriting.nesting_reduction_system(symbols), rewriting.matching_probes(symbols)
        ),
        expected,
        check,
        lambda c, rep: c.update({"rewriting.states": sum(r.states_explored for r in rep.results)}),
    )


def _jacobian_op(name: str, point: list[int], rank: int, codim: int) -> Op:
    case = case_studies.CASES[name]

    def check(report) -> list[str]:
        values = {("x", k): v for k, v in enumerate(point, start=1)}
        matrix = [
            [oracles.evaluate(oracles.derivative(rel.terms, ("x", k)), values) for k in range(1, len(point) + 1)]
            for rel in case.presentation
        ]
        problems: list[str] = []
        _expect(problems, [list(r) for r in report.matrix] == matrix, f"jacobian {name}: matrix differs from the oracle")
        _expect(problems, oracles.matrix_rank(matrix) == rank, f"jacobian {name}: oracle rank is not {rank}")
        _expect(problems, report.rank == rank, f"jacobian {name}: rank {report.rank}, paper {rank}")
        _expect(problems, report.codim_target == codim, f"jacobian {name}: codimension {report.codim_target}, paper {codim}")
        _expect(problems, report.singular, f"jacobian {name}: point not reported singular")
        return problems

    return Op(
        "presentations",
        lambda: presentations.case_jacobian(name, point),
        1,
        check,
        lambda c, rep: c.update({"presentations.jacobians": 1}),
    )


def verify_ops(seed: int) -> list[Op]:
    points = Points(seed)
    return [
        _toric_op(20, 2, points),
        _toric_op(20, 3, points),
        _case_op("g26", points),
        _case_op("x68", points),
        _case_op("x710", points),
        _toric_op(10, 2, points),
        _toric_op(10, 3, points),
        _confluence_op(8),
        # The paper's singular points: grad F = 0 at e1, and rank 2 < 4 at e9.
        _jacobian_op("g26", [1, 0, 0, 0, 0], 0, 1),
        _jacobian_op("x68", [0] * 8 + [1], 2, 4),
    ]


# --- relations --------------------------------------------------------------


def _hilbert_oracle(support: SupportRange, d: int) -> int:
    if support.v == (1, 2) and support.w == (support.n - 1, support.n):
        return oracles.kostka_two_row(support.n, d)
    return oracles.chain_count(support.n, support.v, support.w, d)


def _pivot(relation) -> tuple:
    """Leading generator-index combination of a relation, in the
    lexicographic column order of the multiplication matrix."""
    return min(tuple(k for _, k in mono) for mono in relation.terms)


def check_kernel(support: SupportRange, d: int, kernel, points: Points) -> list[str]:
    window = (support.n, support.v, support.w)
    label = f"kernel{window} d={d}"
    problems: list[str] = []
    gens = invariants.invariant_basis(support, 1).monomials
    g = _hilbert_oracle(support, 1)
    _expect(problems, len(gens) == g and len(set(gens)) == g, f"{label}: {len(gens)} generators, oracle {g}")
    for mono in gens:
        content = Counter(x for pair in mono for x in pair)
        in_window = all(
            support.v[0] <= a <= support.w[0] and support.v[1] <= b <= support.w[1] for a, b in mono
        )
        if not (oracles.is_chain(mono) and in_window and set(content.values()) == {1} and len(content) == support.n):
            problems.append(f"{label}: generator {mono} is not an invariant standard monomial")
    expected = oracles.kernel_dimension(g, d, _hilbert_oracle(support, d))
    _expect(problems, len(kernel) == expected, f"{label}: dimension {len(kernel)}, oracle {expected}")
    pivots = [_pivot(rel) for rel in kernel if rel.terms]
    _expect(problems, len(set(pivots)) == len(kernel), f"{label}: relations are not independent")
    for point in points.of(*window):
        values = _generator_values(gens, point)
        for k, rel in enumerate(kernel, start=1):
            if oracles.evaluate(rel.terms, values):
                problems.append(f"{label}: relation {k} does not vanish at a random point")
    return problems


def _kernel_op(support: SupportRange, d: int, points: Points) -> Op:
    rows = comb(_hilbert_oracle(support, 1) + d - 1, d)
    return Op(
        "invariants.products",
        lambda: invariants.multiplication_kernel(support, d),
        rows,
        lambda kernel: check_kernel(support, d, kernel, points),
    )


def _generation_op(n: int, d: int) -> Op:
    # Degree-one generation of the full window holds for every even n
    # (Kempe), so the exact check must return True.
    return Op(
        "invariants.products",
        lambda: invariants.degree_one_generation_check(SupportRange.full(n), d),
        comb(oracles.catalan(n // 2) + d - 1, d),
        lambda ok: [] if ok is True else [f"generation full({n}) d={d}: returned {ok!r}"],
    )


def relations_ops(seed: int) -> list[Op]:
    points = Points(seed)
    case = {name: SupportRange(c.n, c.v, c.w) for name, c in case_studies.CASES.items()}
    full8 = SupportRange.full(8)
    return [
        _kernel_op(case["g26"], 3, points),
        _kernel_op(case["x68"], 2, points),
        _kernel_op(case["x68"], 3, points),
        _kernel_op(case["x710"], 2, points),
        _kernel_op(full8, 2, points),
        _generation_op(10, 2),
    ]


# --- combinatorics ----------------------------------------------------------


def _hilbert_op(n: int, d: int) -> Op:
    expected = oracles.kostka_two_row(n, d)
    return Op(
        "invariants.enumerate",
        lambda: invariants.hilbert_count(SupportRange.full(n), d),
        expected,
        lambda h: [] if h == expected else [f"hilbert full({n}) d={d}: {h}, Kostka {expected}"],
    )


def _weyl_scan(n: int):
    """Stability of every Schubert index, and the Bruhat-minimal semistable
    and stable indices found by comparing every pair with every other."""
    pairs = weyl.coset_reps(n, 2)
    status = [weyl.stability_status(w, n, n // 2) for w in pairs]

    def minimal(level):
        chosen = [w for w, s in zip(pairs, status) if s >= level]
        return [w for w in chosen if not any(u != w and weyl.bruhat_leq(u, w) for u in chosen)]

    return (
        pairs,
        [s.name for s in status],
        weyl.minimal_elements(n),
        minimal(weyl.Stability.SEMISTABLE_ONLY) + minimal(weyl.Stability.STABLE),
    )


def _weyl_op(n: int) -> Op:
    pairs = oracles.window_pairs(n, (1, 2), (n - 1, n))
    status = [oracles.stability_name(w, n) for w in pairs]
    minimal = oracles.minimal_pairs(n)

    def check(out) -> list[str]:
        got_pairs, got_status, got_minimal, scanned = out
        problems: list[str] = []
        _expect(problems, list(got_pairs) == pairs, f"weyl n={n}: coset representatives differ")
        _expect(problems, got_status == status, f"weyl n={n}: stability differs from the closed form")
        _expect(problems, tuple(got_minimal) == minimal, f"weyl n={n}: minimal elements {got_minimal}")
        _expect(problems, tuple(scanned) == minimal, f"weyl n={n}: scanned minimal elements {scanned}")
        return problems

    return Op(
        "weyl",
        lambda: _weyl_scan(n),
        len(pairs),
        check,
        lambda c, out: c.update({"weyl.pairs_scanned": len(out[0])}),
    )


def check_candidates(members, pairs, l_size: int, w, n: int) -> list[str]:
    """Candidate cosets, their complementation pairs and the count of
    quotient images, against the closed-form membership."""
    label = f"candidates n={n} w={w}"
    problems: list[str] = []
    member_set = {tuple(s) for s in members}
    _expect(problems, member_set == oracles.candidate_members(w, n), f"{label}: members differ from the oracle")
    _expect(problems, len(member_set) == len(members), f"{label}: repeated members")
    for subset in member_set:
        if oracles.complement(subset, n) not in member_set:
            problems.append(f"{label}: not closed under complementation at {subset}")
            break
    got_pairs = {frozenset(tuple(s) for s in p) for p in pairs}
    expected_pairs = {frozenset((s, oracles.complement(s, n))) for s in member_set}
    _expect(problems, got_pairs == expected_pairs and len(pairs) == len(got_pairs), f"{label}: pairing differs")
    _expect(problems, l_size == len(expected_pairs), f"{label}: l_size {l_size}")
    return problems


def _singular_op(n: int, seed: int) -> Op:
    expected = oracles.singular_count(n)
    w = (n - 1, n)

    def check(result) -> list[str]:
        problems = check_candidates(result.members, result.pairs, result.l_size, w, n)
        _expect(problems, result.l_size == expected, f"singular n={n}: {result.l_size}, oracle {expected}")
        return problems

    return Op(
        "git_geometry",
        lambda: git_geometry.singular_candidates(w, n, seed=seed),
        comb(n, n // 2),
        check,
        lambda c, _: c.update({"git_geometry.cosets": comb(n, n // 2)}),
    )


def combinatorics_ops(seed: int) -> list[Op]:
    ops = [_hilbert_op(n, d) for n in range(6, 13, 2) for d in (1, 2, 3)]
    ops += [_weyl_op(n) for n in range(4, 19, 2)]
    ops += [_singular_op(n, seed) for n in range(6, 19, 2)]
    # The README subcommands as fresh processes: interactive use, where
    # interpreter start and import dominate.  Their straightening and
    # elimination are on the paper's small cases, under 1% of the pass.
    return ops + cli_ops(seed)


# --- cli --------------------------------------------------------------------

@dataclass
class CliResult:
    returncode: int
    payload: object  # parsed JSON, or None


def _run_cli(args: list[str]) -> CliResult:
    proc = subprocess.run(
        [sys.executable, "-m", "schubert_git.cli", *args], capture_output=True, text=True, timeout=120
    )
    try:
        payload = json.loads(proc.stdout)
    except json.JSONDecodeError:
        payload = None
    return CliResult(proc.returncode, payload)


def _cli_op(args: list[str], seed: int, check: Callable[[dict], list[str]]) -> Op:
    argv = [*args, "--json", "--seed", str(seed)]
    label = "schubert-git " + " ".join(args)

    def check_result(res: CliResult) -> list[str]:
        if res.returncode != 0 or not isinstance(res.payload, dict):
            return [f"{label}: exit {res.returncode}, expected 0 with a JSON record"]
        return [f"{label}: {p}" for p in check(res.payload)]

    return Op("cli", lambda: _run_cli(argv), 1, check_result, lambda c, _: c.update({"cli.calls": 1}))


def _fields(**expected) -> Callable[[dict], list[str]]:
    def check(payload: dict) -> list[str]:
        return [f"{k} = {payload.get(k)!r}, oracle {v!r}" for k, v in expected.items() if payload.get(k) != v]

    return check


def _same_function(lhs: dict, rhs: dict, n: int, points: Points) -> bool:
    return all(
        oracles.evaluate(lhs, p) == oracles.evaluate(rhs, p) for p in points.of(n, (1, 2), (n - 1, n))
    )


def _plucker_text(factors) -> str:
    return "*".join(f"p[{i},{j}]" for i, j in factors)


def cli_ops(seed: int) -> list[Op]:
    points = Points(seed)
    rng = random.Random(seed)
    pairs6 = oracles.window_pairs(6, (1, 2), (5, 6))
    # A seeded product of three Plucker variables for `straighten`, and for
    # `verify` the same product against itself plus a multiple of a
    # quadratic Plucker relation, which is a true identity on Gr(2,6).
    product = sorted(rng.sample(pairs6, 3))
    i, j, k, l = sorted(rng.sample(range(1, 7), 4))
    m = rng.choice(pairs6)
    relation = (
        f"{_plucker_text([m, (i, l), (j, k)])} - {_plucker_text([m, (i, k), (j, l)])}"
        f" + {_plucker_text([m, (i, j), (k, l)])}"
    )
    lhs_text = _plucker_text(product)
    rhs_text = f"{lhs_text} + {relation}"

    def check_straighten(payload: dict) -> list[str]:
        nf = oracles.parse_printed(payload["normal_form"])
        problems = [] if all(oracles.is_chain(mono) for mono in nf) else ["normal form is not standard"]
        if not _same_function(oracles.parse_printed(lhs_text), nf, 6, points):
            problems.append("normal form differs from the input at a random point")
        return problems

    def check_verify(payload: dict) -> list[str]:
        problems = _fields(status="pass")(payload)
        if not _same_function(oracles.parse_printed(lhs_text), oracles.parse_printed(rhs_text), 6, points):
            problems.append("the seeded identity fails at a random point")
        return problems

    g26 = case_studies.CASES["g26"]

    def check_relations(payload: dict) -> list[str]:
        expected = oracles.kernel_dimension(oracles.catalan(3), 3, oracles.kostka_two_row(6, 3))
        problems = _fields(dimension=expected)(payload)
        for point in points.of(6, (1, 2), (5, 6)):
            values = _generator_values(g26.generator_monomials, point)
            for rel in payload["relations"]:
                if oracles.evaluate(oracles.parse_printed(rel), values):
                    problems.append(f"relation {rel} does not vanish at a random point")
        return problems

    def suite(name: str) -> Callable[[dict], list[str]]:
        case = case_studies.CASES[name]
        total = len(case.identities) + len(case.presentation)
        return _fields(total=total, passed=total)

    def confluence(symbols: int) -> Callable[[dict], list[str]]:
        probes = oracles.double_factorial_odd(symbols)
        nested = [oracles.nested_matching_text(symbols)]

        def check(payload: dict) -> list[str]:
            problems = _fields(probes=probes, confluent=True)(payload)
            if any(r["normal_forms"] != nested for r in payload["results"]):
                problems.append("a probe does not reach the nested normal form")
            return problems

        return check

    def candidates(payload: dict) -> list[str]:
        return check_candidates(payload["members"], payload["pairs"], payload["l_size"], (6, 8), 8)

    richardson = oracles.toric_identity_count(10, 2)
    calls = [
        (["minimal", "--n", "8"], _fields(w_ss_min=[4, 8], w_s_min=[5, 8])),
        (["stability", "--n", "6", "--w", "4,6"], _fields(status=oracles.stability_name((4, 6), 6))),
        (["basis", "--n", "6", "--degree", "1", "--kind", "invariant"], _fields(count=oracles.catalan(3))),
        (["straighten", lhs_text, "--n", "6"], check_straighten),
        (["verify", "--n", "6", "--lhs", lhs_text, "--rhs", rhs_text], check_verify),
        (["relations", "--case", "g26", "--degree", "3"], check_relations),
        (["reproduce", "--case", "g26"], suite("g26")),
        (["reproduce", "--case", "x68"], suite("x68")),
        (["reproduce", "--case", "x710"], suite("x710")),
        (["reproduce", "--case", "richardson", "--n", "10", "--k", "2"], _fields(total=richardson, passed=richardson)),
        (["jacobian", "--case", "x68", "--point", "0,0,0,0,0,0,0,0,1"], _fields(rank=2, codim_target=4, singular=True)),
        (["confluence", "--symbols", "6"], confluence(6)),
        (["singular-count", "--n", "6"], _fields(count=oracles.singular_count(6))),
        (["singular-count", "--n", "8"], _fields(count=oracles.singular_count(8))),
        (["singular-count", "--n", "10"], _fields(count=oracles.singular_count(10))),
        (["candidates", "--n", "8", "--w", "6,8"], candidates),
    ]
    return [_cli_op(args, seed, check) for args, check in calls]


BUILDERS = {
    "verify": verify_ops,
    "relations": relations_ops,
    "combinatorics": combinatorics_ops,
}
