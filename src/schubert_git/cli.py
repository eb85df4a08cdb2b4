"""Command-line front end.

Each ``cmd_*`` handler computes its subcommand's record and returns it as
``(payload, lines)``: the JSON payload and the text lines.  ``verify``,
``reproduce`` and ``confluence`` also return a pass/fail verdict, as
``(payload, lines, ok)``.  :func:`main` is the one place that prints,
the text lines or (with --json) the payload, and the one place that maps
outcomes to exit codes: 0 success, 1 a failed verdict, 2 usage or
parameter error, 3 internal fault (an exhausted rewrite budget or a failed
self-check).

No subcommand draws anything at random.  Every subcommand still accepts
--seed and none reads it, so callers that pass a seed to every command,
such as the benchmark's command-line workload, keep working.

Each handler imports the modules it calls when it runs, so a process
loads only what its subcommand needs: ``minimal`` and ``stability`` load
``weyl`` alone, and nothing builds the worked case studies unless a
subcommand reads one.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

    from .straightening import SupportRange

# The names of case_studies.CASES, sorted; the parser offers them without
# importing that module, and a test keeps the two in step.
CASE_NAMES = ("g26", "x68", "x710")


def _pair(text: str) -> tuple[int, int]:
    try:
        i, j = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected i,j got {text!r}")
    return (i, j)


def _point(text: str) -> list[Fraction]:
    from fractions import Fraction

    try:
        return [Fraction(x) for x in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected comma-separated rationals, got {text!r}")


def _support(args) -> SupportRange:
    from .straightening import SupportRange

    return SupportRange(args.n, args.v or (1, 2), args.w or (args.n - 1, args.n))


def _window(support: SupportRange) -> dict:
    return {"n": support.n, "v": list(support.v), "w": list(support.w)}


def cmd_minimal(args) -> tuple[dict, list]:
    from .weyl import minimal_elements

    w_ss, w_s = minimal_elements(args.n)
    return (
        {"n": args.n, "w_ss_min": list(w_ss), "w_s_min": list(w_s)},
        [f"w_ss_min = {w_ss}", f"w_s_min = {w_s}"],
    )


def cmd_stability(args) -> tuple[dict, list]:
    from .weyl import stability_status

    d = args.d if args.d is not None else args.n // 2
    status = stability_status(args.w, args.n, d)
    return (
        {"n": args.n, "w": list(args.w), "d": d, "status": status.name},
        [f"X{args.w} at degree {d}: {status.name}"],
    )


def cmd_basis(args) -> tuple[dict, list]:
    from .plucker import format_plucker, pmono

    support = _support(args)
    if args.kind == "standard":
        from .straightening import standard_basis

        monos = standard_basis(support, args.degree)
        labels = [f"m_{k}" for k in range(1, len(monos) + 1)]
    else:
        from .invariants import invariant_basis

        gens = invariant_basis(support, args.degree)
        monos, labels = list(gens.monomials), list(gens.labels)
    texts = [format_plucker(pmono(m)) for m in monos]
    payload = {
        **_window(support),
        "kind": args.kind,
        "degree": args.degree,
        "count": len(monos),
        "elements": [
            {"label": lbl, "monomial": text} for lbl, text in zip(labels, texts)
        ],
    }
    lines = [f"{len(monos)} elements"] + [
        f"  {lbl} = {text}" for lbl, text in zip(labels, texts)
    ]
    return payload, lines


def cmd_straighten(args) -> tuple[dict, list]:
    from .expr import parse_expr
    from .plucker import format_plucker
    from .straightening import straighten

    support = _support(args)
    poly = parse_expr(args.expr, support.n)
    normal_form = format_plucker(straighten(poly, support))
    payload = {**_window(support), "input": args.expr, "normal_form": normal_form}
    return payload, [normal_form]


def _refuse_window_flags(args, names: tuple[str, ...], case: str) -> None:
    """A named case fixes its own window: refuse flags that would be ignored."""
    given = [f"--{name}" for name in names if getattr(args, name) is not None]
    if given:
        raise ValueError(
            f"{args.command} --case {case} takes its window from the case; "
            f"drop {', '.join(given)}"
        )


def cmd_relations(args) -> tuple[dict, list]:
    from .formal import format_formal
    from .invariants import multiplication_kernel

    if args.case:
        _refuse_window_flags(args, ("n", "v", "w"), args.case)
        from .case_studies import CASES
        from .straightening import SupportRange

        case = CASES[args.case]
        support = SupportRange(case.n, case.v, case.w)
    elif args.n is None:
        raise ValueError("relations needs --case or an explicit --n window")
    else:
        support = _support(args)
    kernel = [format_formal(p) for p in multiplication_kernel(support, args.degree)]
    payload = {
        **_window(support),
        "degree": args.degree,
        "dimension": len(kernel),
        "relations": kernel,
    }
    return payload, [f"kernel dimension {len(kernel)}"] + [f"  {r}" for r in kernel]


def cmd_verify(args) -> tuple[dict, list, bool]:
    from .expr import parse_expr
    from .presentations import verify_identity

    support = _support(args)
    lhs = parse_expr(args.lhs, support.n)
    rhs = parse_expr(args.rhs, support.n)
    ok = verify_identity(lhs, rhs, support)
    status = "pass" if ok else "fail"
    payload = {**_window(support), "lhs": args.lhs, "rhs": args.rhs, "status": status}
    return payload, [status], ok


def cmd_reproduce(args) -> tuple[dict, list, bool]:
    from dataclasses import asdict

    from .presentations import case_suite, toric_suite

    if args.case == "richardson":
        if args.n is None or args.k is None:
            raise ValueError("case richardson needs --n and --k")
        report = toric_suite(args.n, args.k)
    else:
        _refuse_window_flags(args, ("n", "k"), args.case)
        report = case_suite(args.case)
    total, passed = len(report.records), sum(r.ok for r in report.records)
    payload = {
        "case": report.case,
        "total": total,
        "passed": passed,
        "records": [asdict(r) for r in report.records],
    }
    lines = [f"case {report.case}: {passed}/{total} identities hold"]
    for r in report.records:
        lines.append(f"  [{r.status}] {r.relation_label}")
        if not r.ok:
            lines.append(f"         lhs -> {r.lhs_normal_form}")
            lines.append(f"         rhs -> {r.rhs_normal_form}")
    return payload, lines, report.all_ok


def cmd_jacobian(args) -> tuple[dict, list]:
    from .presentations import case_jacobian

    report = case_jacobian(args.case, args.point)
    payload = {
        "case": args.case,
        "point": [str(x) for x in args.point],
        "rank": report.rank,
        "codim_target": report.codim_target,
        "singular": report.singular,
        "matrix": [[str(x) for x in row] for row in report.matrix],
    }
    lines = [
        f"rank {report.rank} vs codimension {report.codim_target}: "
        + ("singular" if report.singular else "nonsingular")
    ]
    return payload, lines


def cmd_confluence(args) -> tuple[dict, list, bool]:
    from . import rewriting
    from .formal import format_formal
    from .poly import Poly

    probes = rewriting.matching_probes(args.symbols)
    system = rewriting.nesting_reduction_system(args.symbols)
    report = rewriting.confluence_check(system, probes)
    results = [
        {
            "probe": format_formal(Poly.from_monomial(r.probe)),
            "normal_forms": list(r.normal_forms),
        }
        for r in report.results
    ]
    payload = {
        "symbols": args.symbols,
        "probes": len(results),
        "confluent": report.confluent,
        "results": results,
    }
    lines = [
        f"{len(results)} probes, "
        + ("confluent" if report.confluent else "NOT confluent")
    ] + [f"  {r['probe']} -> {', '.join(r['normal_forms'])}" for r in results]
    return payload, lines, report.confluent


def cmd_singular_count(args) -> tuple[dict, list]:
    from .git_geometry import singular_count

    count = singular_count(args.n)
    # The count stays an int here: main turns it into text.
    return {"n": args.n, "count": count}, [count]


def cmd_candidates(args) -> tuple[dict, list]:
    from .git_geometry import singular_candidates

    w = args.w or (args.n - 1, args.n)
    candidates = singular_candidates(w, args.n)
    payload = {
        "n": args.n,
        "w": list(w),
        "members": [list(m) for m in candidates.members],
        "pairs": [[list(a), list(b)] for a, b in candidates.pairs],
        "l_size": candidates.l_size,
    }
    lines = [
        f"{len(candidates.members)} cosets, {candidates.l_size} candidate points"
    ] + [f"  {a} ~ {b}" for a, b in candidates.pairs]
    return payload, lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schubert-git",
        description="Exact torus-GIT data for Schubert varieties of 2-planes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=fn)
        p.add_argument("--json", action="store_true", help="emit JSON records")
        p.add_argument("--seed", type=int, default=0, help="accepted and unused")
        return p

    def add_window(p, n_required=True):
        p.add_argument("--n", type=int, required=n_required)
        p.add_argument("--v", type=_pair, default=None)
        p.add_argument("--w", type=_pair, default=None)

    p = add("minimal", cmd_minimal, help="minimal (semi)stable Schubert indices")
    p.add_argument("--n", type=int, required=True)

    p = add("stability", cmd_stability, help="stability of one Schubert index")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", type=_pair, required=True)
    p.add_argument("--d", type=int, default=None)

    p = add("basis", cmd_basis, help="standard or invariant monomial basis")
    add_window(p)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--kind", choices=["standard", "invariant"], default="standard")

    p = add("straighten", cmd_straighten, help="standard-monomial normal form")
    p.add_argument("expr")
    add_window(p)

    p = add("relations", cmd_relations, help="kernel of the multiplication map")
    p.add_argument("--case", choices=CASE_NAMES, default=None)
    add_window(p, n_required=False)
    p.add_argument("--degree", type=int, default=2)

    p = add("verify", cmd_verify, help="verify one identity on a window")
    add_window(p)
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)

    p = add("reproduce", cmd_reproduce, help="run a recorded identity suite")
    p.add_argument(
        "--case",
        choices=[*CASE_NAMES, "richardson"],
        required=True,
    )
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)

    p = add("jacobian", cmd_jacobian, help="Jacobian rank of a presentation")
    p.add_argument("--case", choices=CASE_NAMES, required=True)
    p.add_argument("--point", type=_point, required=True)

    p = add("confluence", cmd_confluence, help="diamond-lemma confluence check")
    p.add_argument("--symbols", type=int, default=6)

    p = add("singular-count", cmd_singular_count, help="singular points of the quotient")
    p.add_argument("--n", type=int, required=True)

    p = add("candidates", cmd_candidates, help="candidate singular cosets")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", type=_pair, default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, lines, *verdict = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    # A singular count has about 0.3 n digits: print it whatever its length,
    # then restore the interpreter's limit on converting an int to text.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        if args.json:
            print(json.dumps(payload))
        else:
            for line in lines:
                print(line)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    return 0 if all(verdict) else 1


if __name__ == "__main__":
    sys.exit(main())
