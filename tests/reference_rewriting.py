"""Test-only reference for the rewriting module.

It shares no search code with :mod:`schubert_git.rewriting`: one step tries
every rule of the system by multiset division, in rule order, and builds
each successor with :class:`Poly` arithmetic; every probe runs its own
breadth-first walk and expands each state it visits, so a state reached
from several probes is expanded once per probe.  The package's rule index
and shared rewrite graph must agree with it: the same successor sets, the
same :class:`ConfluenceReport`, and the same :class:`RewriteGraphLimit` past
``state_cap`` states of one probe.
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
)


def _divide(mono: Monomial, divisor: Monomial) -> Monomial | None:
    """Multiset quotient mono / divisor, or None when not divisible."""
    remaining = list(mono)
    for token in divisor:
        if token not in remaining:
            return None
        remaining.remove(token)
    return tuple(remaining)


def reference_reduce_steps(system: ReductionSystem, state: Poly) -> list[Poly]:
    """All polynomials one step from ``state``, by trying every rule on
    every term."""
    out: dict[tuple, Poly] = {}
    for mono, coeff in state.terms.items():
        for lhs, rhs in system.rules:
            quotient = _divide(mono, lhs)
            if quotient is None:
                continue
            replaced = state - Poly({mono: coeff}) + (rhs * coeff) * Poly({quotient: 1})
            out[replaced.key()] = replaced
    return list(out.values())


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
                successors = reference_reduce_steps(system, state)
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
