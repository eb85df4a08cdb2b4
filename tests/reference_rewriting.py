"""Test-only reference for the confluence check.

This is the per-probe search the package used before
:func:`schubert_git.rewriting.confluence_check` shared one rewrite graph
across the probes of a call: every probe runs its own breadth-first walk
and calls :func:`schubert_git.rewriting.reduce_steps` on every state it
visits, so a state reached from several probes is expanded once per probe.
It returns the same :class:`ConfluenceReport` and raises the same
:class:`RewriteGraphLimit` past ``state_cap`` states of one probe.
"""

from __future__ import annotations

from fractions import Fraction

from schubert_git.formal import format_formal
from schubert_git.poly import Monomial, Poly
from schubert_git.rewriting import (
    ConfluenceReport,
    ProbeResult,
    ReductionSystem,
    RewriteGraphLimit,
    reduce_steps,
)


def reference_confluence_check(
    system: ReductionSystem,
    probes: list[Monomial],
    state_cap: int = 10_000,
) -> ConfluenceReport:
    results = []
    for probe in probes:
        start = Poly({tuple(sorted(probe)): Fraction(1)})
        seen: dict[tuple, Poly] = {start.key(): start}
        frontier = [start]
        normal: dict[tuple, Poly] = {}
        while frontier:
            nxt: list[Poly] = []
            for state in frontier:
                successors = reduce_steps(system, state)
                if not successors:
                    normal[state.key()] = state
                    continue
                for succ in successors:
                    key = succ.key()
                    if key not in seen:
                        if len(seen) >= state_cap:
                            raise RewriteGraphLimit(
                                f"more than {state_cap} states from probe {probe}"
                            )
                        seen[key] = succ
                        nxt.append(succ)
            frontier = nxt
        forms = tuple(sorted(format_formal(p) for p in normal.values()))
        results.append(ProbeResult(tuple(sorted(probe)), forms, len(seen)))
    return ConfluenceReport(tuple(results))
