"""Commutative monomial rewriting and exhaustive confluence checking.

A reduction system is a finite list of rules (monomial -> polynomial).
A rule applies to a term whose monomial is divisible by the rule's left
side; one step replaces that term accordingly.  The system builds one
index, once: each left side, as a sorted monomial, maps to its right sides
in rule order, and the set of left-side degrees is kept beside it.  The
rules that apply to a term are found by looking up each distinct
sub-monomial of the term of a left-side degree, not by trying every rule,
and each step is one edit of a copy of the state's terms.

The confluence check explores every reduction sequence from each probe
and reports the set of normal forms per probe: the system is confluent on
the probes iff each set is a singleton.  The probes of one check share one
rewrite graph, so every distinct state is expanded once per call however
many probes reach it, and one reachability pass over the graph's strongly
connected components gives every state's reachable set as an int bit mask,
shared by the states of one component.  Over V states the masks cost at
most V²/8 bytes.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .formal import format_formal, ytoken
from .poly import Monomial, Poly


STATE_CAP = 10_000


class RewriteGraphLimit(RuntimeError):
    """Raised when the explored rewrite graph exceeds the state cap."""


class ReductionSystem:
    """Rules ``lhs -> rhs`` with their index, built once: each sorted left
    side maps to its right sides in rule order, and ``degrees`` holds the
    left-side degrees."""

    __slots__ = ("rules", "index", "degrees")

    def __init__(self, rules: tuple[tuple[Monomial, Poly], ...]) -> None:
        index: dict[Monomial, list[Poly]] = {}
        for lhs, rhs in rules:
            if not lhs:
                raise ValueError("rule left sides must be nonconstant monomials")
            key = tuple(sorted(lhs))
            for mono in rhs.terms:
                if _divide(mono, key) is not None:
                    raise ValueError(
                        f"rule {lhs} -> {format_formal(rhs)} reproduces its "
                        "own left side; trivial loop"
                    )
            index.setdefault(key, []).append(rhs)
        self.rules = rules
        self.index = {lhs: tuple(rhss) for lhs, rhss in index.items()}
        self.degrees = frozenset(len(lhs) for lhs in index)


def _divide(mono: Monomial, divisor: Monomial) -> Monomial | None:
    """Multiset quotient mono / divisor, or None when not divisible."""
    remaining = list(mono)
    for token in divisor:
        try:
            remaining.remove(token)
        except ValueError:
            return None
    return tuple(remaining)


def _steps(system: ReductionSystem, state: Poly) -> dict[tuple, Poly]:
    """The one-step successors of ``state``, keyed by :meth:`Poly.key`.

    The sub-monomials of a term of each left-side degree are looked up in
    the rule index, and each distinct one found is applied once: each of its
    right sides gives one successor, built by one edit of a copy of the
    state's terms.
    """
    index = system.index
    terms = state.terms
    out: dict[tuple, Poly] = {}
    for mono, coeff in terms.items():
        applied: set[Monomial] = set()
        for size in system.degrees:
            # mono is sorted, so its combinations are sorted too: index keys.
            for lhs in combinations(mono, size):
                rhss = index.get(lhs)
                if rhss is None or lhs in applied:
                    continue
                applied.add(lhs)
                quotient = _divide(mono, lhs)
                for rhs in rhss:
                    new = dict(terms)
                    del new[mono]
                    for part, c in rhs.terms.items():
                        product = quotient + part  # Poly sorts it
                        new[product] = new.get(product, 0) + coeff * c
                    successor = Poly(new)
                    out[successor.key()] = successor
    return out


class ProbeResult(NamedTuple):
    probe: Monomial
    normal_forms: tuple[str, ...]
    states_explored: int

    @property
    def confluent(self) -> bool:
        return len(self.normal_forms) == 1


class ConfluenceReport(NamedTuple):
    results: tuple[ProbeResult, ...]

    @property
    def confluent(self) -> bool:
        return all(r.confluent for r in self.results)


def confluence_check(
    system: ReductionSystem,
    probes: list[Monomial],
    state_cap: int = STATE_CAP,
) -> ConfluenceReport:
    """Explore all reduction sequences from each probe monomial.

    The probes share one rewrite graph: each state is numbered when first
    met, and its successors are computed, once, when a depth-first walk
    first enters it.  That walk is Tarjan's strongly connected components
    algorithm, run from each probe not yet covered and skipping the states
    earlier walks closed; when a component closes, its reachable set is
    the bits of its states and the masks of their successors outside it,
    one int shared by all its states.  Over V states the masks cost at most
    V²/8 bytes.  A probe's normal forms are the normal-form states in its
    mask, each formatted once, and ``states_explored`` is the mask's
    popcount.
    The successors of a term come from the system's rule index: its
    sub-monomials of each left-side degree are looked up, and each distinct
    one that is a left side is applied once, so the cost of a state does not
    grow with the number of rules.  Neither rule
    order nor successor order can affect the result, because every
    applicable step is taken and the normal forms are sorted.
    :class:`RewriteGraphLimit` is raised for the first probe that reaches
    more than ``state_cap`` states, which depends only on the reachable
    set; a walk raises as soon as it meets that many new states, so an
    infinite system is refused after bounded work.

    Two rules on the same left side give a critical pair that never joins:

    >>> system = ReductionSystem((
    ...     (("a", "b"), Poly.from_monomial(["c", "c"])),
    ...     (("a", "b"), Poly.from_monomial(["d", "d"])),
    ... ))
    >>> confluence_check(system, [("b", "a")]).results[0].normal_forms
    ('c^2', 'd^2')
    """
    index: dict[tuple, int] = {}  # Poly.key() -> state number
    states: list[Poly] = []
    graph: list[tuple[int, ...]] = []  # successors, by state number
    reach: list[int] = []  # reachable set as bits; 0 until its component closes
    forms: dict[int, str] = {}  # normal forms, by state number
    normal = 0  # the normal-form states, as bits

    def number(key: tuple, poly: Poly) -> int:
        state = index.get(key)
        if state is None:
            state = index[key] = len(states)
            states.append(poly)
            graph.append(())
            reach.append(0)
        return state

    def expand(state: int) -> tuple[int, ...]:
        nonlocal normal
        steps = _steps(system, states[state])
        successors = tuple(number(key, poly) for key, poly in steps.items())
        if not successors:
            forms[state] = format_formal(states[state])
            normal |= 1 << state
        graph[state] = successors
        return successors

    def refusal(probe: Monomial) -> RewriteGraphLimit:
        return RewriteGraphLimit(f"more than {state_cap} states from probe {probe}")

    results = []
    for probe in probes:
        start = len(states)
        first = Poly({probe: 1})
        root = number(first.key(), first)
        if not reach[root]:
            # Iterative Tarjan from root: order and low link of the states
            # entered on this walk; an entered state with no mask yet is on
            # the component stack.
            order = {root: 0}
            low = {root: 0}
            stack = [root]
            walk = [(root, iter(expand(root)), 0)]  # with stack positions
            while walk:
                state, successors, at = walk[-1]
                for succ in successors:
                    if succ not in order:
                        if reach[succ]:
                            continue  # closed by an earlier walk
                        if len(states) - start > state_cap:
                            raise refusal(probe)
                        order[succ] = low[succ] = len(order)
                        walk.append((succ, iter(expand(succ)), len(stack)))
                        stack.append(succ)
                        break
                    if not reach[succ] and order[succ] < low[state]:
                        low[state] = order[succ]
                else:
                    walk.pop()
                    if walk and low[state] < low[walk[-1][0]]:
                        low[walk[-1][0]] = low[state]
                    if low[state] == order[state]:
                        component = stack[at:]
                        del stack[at:]
                        mask = 0
                        for member in component:
                            mask |= 1 << member
                            for succ in graph[member]:
                                mask |= reach[succ]
                        for member in component:
                            reach[member] = mask
        mask = reach[root]
        explored = mask.bit_count()
        if explored > state_cap:
            raise refusal(probe)
        found = mask & normal
        normal_forms = []
        while found:
            low_bit = found & -found
            normal_forms.append(forms[low_bit.bit_length() - 1])
            found ^= low_bit
        normal_forms.sort()
        results.append(ProbeResult(tuple(sorted(probe)), tuple(normal_forms), explored))
    return ConfluenceReport(tuple(results))


def nesting_reduction_system(symbols: int) -> ReductionSystem:
    """The pair-rewriting system of the toric windows on a symbol range.

    For every i < j < m < s the side-by-side product y[i,j]y[m,s] rewrites
    to the crossing product y[i,m]y[j,s], and the crossing product to the
    nested product y[i,s]y[j,m].  Nested pairs are irreducible.
    """
    if symbols < 4:
        raise ValueError(f"need at least 4 symbols, got {symbols}")
    rules: list[tuple[Monomial, Poly]] = []
    for i, j, m, s in combinations(range(1, symbols + 1), 4):
        rules.append(
            (
                tuple(sorted((ytoken(i, j), ytoken(m, s)))),
                Poly.from_monomial([ytoken(i, m), ytoken(j, s)]),
            )
        )
        rules.append(
            (
                tuple(sorted((ytoken(i, m), ytoken(j, s)))),
                Poly.from_monomial([ytoken(i, s), ytoken(j, m)]),
            )
        )
    return ReductionSystem(tuple(rules))


def matching_probes(symbols: int) -> list[Monomial]:
    """All degree-(symbols/2) products of disjoint pair variables: the
    perfect matchings of the symbol range.

    Every state of the nesting system is a perfect matching, and the
    side-by-side probe reaches all (symbols-1)!! of them, so a symbol count
    with more matchings than :data:`STATE_CAP` is refused here, before any
    probe is built.
    """
    if symbols % 2:
        raise ValueError(f"need an even symbol count, got {symbols}")
    # The product stops once past the cap; a partial one is a lower bound.
    factors = range(symbols - 1, 1, -2)
    states = 1
    for done, factor in enumerate(factors, 1):
        states *= factor
        if states > STATE_CAP:
            relation = "=" if done == len(factors) else ">"
            raise ValueError(
                f"confluence on {symbols} symbols would explore "
                f"({symbols}-1)!! {relation} {states} states, "
                f"above the cap of {STATE_CAP}"
            )

    def matchings(values: tuple[int, ...]) -> list[list[tuple[int, int]]]:
        if not values:
            return [[]]
        first, rest = values[0], values[1:]
        out = []
        for idx, second in enumerate(rest):
            left = rest[:idx] + rest[idx + 1 :]
            for tail in matchings(left):
                out.append([(first, second)] + tail)
        return out

    return [
        tuple(sorted(ytoken(i, j) for i, j in match))
        for match in matchings(tuple(range(1, symbols + 1)))
    ]


def nested_normal_form(symbols: int) -> Monomial:
    """The fully nested perfect matching: (1,n)(2,n-1)...(n/2, n/2+1)."""
    if symbols % 2:
        raise ValueError(f"need an even symbol count, got {symbols}")
    half = symbols // 2
    return tuple(sorted(ytoken(k, symbols + 1 - k) for k in range(1, half + 1)))


def is_binomial_presentation(relations: list[Poly]) -> bool:
    """True iff every relation is a difference of two monomials with unit
    coefficients (the shape that certifies a toric quotient).

    >>> from .formal import yvar
    >>> is_binomial_presentation([yvar(1, 2) * yvar(3, 4) - yvar(1, 3) * yvar(2, 4)])
    True
    """
    for rel in relations:
        if len(rel.terms) != 2:
            return False
        if sorted(rel.terms.values()) != [-1, 1]:
            return False
    return True
