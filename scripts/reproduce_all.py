#!/usr/bin/env python3
"""One-shot reproduction run: every recorded identity suite, the relation
kernels, the section-space dimensions, the confluence check, and the
singular counts, with a summary table.  Exits 1 if anything fails."""

import sys
import time

from schubert_git import case_studies
from schubert_git.formal import format_formal
from schubert_git.invariants import hilbert_count, multiplication_kernel
from schubert_git.presentations import case_suite, toric_suite
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

    print("== confluence ==")
    rep = confluence_check(nesting_reduction_system(6), matching_probes(6))
    forms = {f for r in rep.results for f in r.normal_forms}
    print(f"  {len(rep.results)} probes, confluent={rep.confluent}, forms={sorted(forms)}")
    if not rep.confluent:
        failures += 1

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
