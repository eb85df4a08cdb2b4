#!/usr/bin/env python3
"""One-shot reproduction run: every recorded identity suite, the relation
kernels, the section-space dimensions, the paper's two Jacobian verdicts,
the confluence checks on 6 and 8 symbols, and the singular counts, with a
summary table.
Exits 1 if anything fails."""

import math
import sys
import time

from schubert_git import case_studies
from schubert_git.formal import format_formal
from schubert_git.invariants import hilbert_count, multiplication_kernel
from schubert_git.presentations import case_jacobian, case_suite, toric_suite
from schubert_git.rewriting import (
    confluence_check,
    matching_probes,
    nesting_reduction_system,
)
from schubert_git.git_geometry import singular_candidates, singular_count
from schubert_git.straightening import SupportRange


def main() -> int:
    t0 = time.perf_counter()
    failures = 0

    print("== identity suites ==")
    for name in ("g26", "x68", "x710"):
        rep = case_suite(name)
        passed = sum(r.ok for r in rep.records)
        print(f"  {name:22s} {passed}/{len(rep.records)}")
        failures += len(rep.records) - passed
    for n, k in ((10, 2), (10, 3)):
        rep = toric_suite(n, k)
        passed = sum(r.ok for r in rep.records)
        print(f"  richardson n={n} k={k:<6d} {passed}/{len(rep.records)}")
        failures += len(rep.records) - passed

    print("== relation kernels ==")
    for name in ("g26", "x68", "x710"):
        case = case_studies.CASES[name]
        support = SupportRange(case.n, case.v, case.w)
        d = case.presentation_degree
        kernel = multiplication_kernel(support, d)
        print(
            f"  {name}: degree {d}, #generators {len(case.generators)}, "
            f"kernel dimension {len(kernel)}, recorded {len(case.presentation)}"
        )
        failures += len(kernel) != len(case.presentation)
        if name == "g26":
            print(f"    {format_formal(kernel[0])}")

    print("== section-space dimensions ==")
    for name in ("g26", "x68", "x710"):
        case = case_studies.CASES[name]
        support = SupportRange(case.n, case.v, case.w)
        dims = [hilbert_count(support, d) for d in (1, 2)]
        print(f"  {name}: degree 1 -> {dims[0]}, degree 2 -> {dims[1]}")
    # Full windows, against the Kostka numbers K_{(3n/2, 3n/2), (3^n)}.
    for n, kostka in ((14, 679172), (16, 8976188)):
        count = hilbert_count(SupportRange.full(n), 3)
        print(f"  full n={n}: degree 3 -> {count}, Kostka {kostka}")
        failures += count != kostka

    print("== jacobians ==")
    # The paper's points: the cone point e_1 of g26 and e_9 of x68.
    for name, k, paper_rank in (("g26", 1, 0), ("x68", 9, 2)):
        case = case_studies.CASES[name]
        point = [int(j == k) for j in range(1, len(case.generators) + 1)]
        rep = case_jacobian(name, point)
        verdict = "singular" if rep.singular else "nonsingular"
        print(f"  {name} at e_{k}: rank {rep.rank} vs codimension {rep.codim_target}: {verdict}")
        failures += rep.rank != paper_rank or not rep.singular

    print("== confluence ==")
    for symbols in (6, 8):
        matchings = math.prod(range(symbols - 1, 0, -2))  # (s-1)!!, one probe each
        rep = confluence_check(nesting_reduction_system(symbols), matching_probes(symbols))
        forms = {f for r in rep.results for f in r.normal_forms}
        print(
            f"  {symbols} symbols: {len(rep.results)} probes, "
            f"confluent={rep.confluent}, forms={sorted(forms)}"
        )
        failures += not rep.confluent or len(rep.results) != matchings

    print("== singular counts ==")
    for n in (6, 8, 10):
        result = singular_candidates((n - 1, n), n)
        count = singular_count(n)
        print(
            f"  n={n}: |K|={len(result.members)}, candidate points={result.l_size}, "
            f"closed form {count}"
        )
        failures += result.l_size != count

    print(f"done in {time.perf_counter() - t0:.3f}s, failures: {failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
