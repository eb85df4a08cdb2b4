"""Verification of recorded identities and Jacobian singularity tests.

Identity verification is ground truth: when a recorded equality fails to
straighten to zero, the report carries both recomputed normal forms side
by side; nothing is silently patched.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .plucker import format_plucker
from .poly import Poly
from .straightening import Straightener, SupportRange, straighten

if TYPE_CHECKING:
    from .case_studies import CaseStudy, Identity


def verify_identity(lhs: Poly, rhs: Poly, support: SupportRange) -> bool:
    """True iff lhs and rhs agree on the window, i.e. their difference
    straightens to zero."""
    return straighten(lhs - rhs, support).is_zero


# The suite records are dataclasses so that callers can derive a variant
# with ``dataclasses.replace``.
@dataclass(frozen=True)
class IdentityRecord:
    case: str
    relation_label: str
    status: str  # "pass" or "fail"
    lhs_normal_form: str
    rhs_normal_form: str

    @property
    def ok(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class SuiteReport:
    case: str
    records: tuple[IdentityRecord, ...]

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.records)

    def failures(self) -> list[IdentityRecord]:
        return [r for r in self.records if not r.ok]


def _run_checks(
    case_name: str, identities: Iterable[Identity], support: SupportRange
) -> SuiteReport:
    # One batch per suite: identities share many monomials (one identity's
    # right side is often the next one's left side), and the batch rewrites
    # each distinct monomial once for every side it occurs in.  A side
    # object shared by several identities is one row, keyed by id(): a key
    # on its terms would rehash its degree-20 monomials at every lookup,
    # and ``identities`` keeps every keyed side alive.  Sides that an
    # identity equates share one text, so a chain of passing identities
    # formats its normal form once.
    identities = list(identities)
    rows = {
        id(side): side.terms
        for identity in identities
        for side in (identity.lhs, identity.rhs)
    }
    normal_forms = Straightener(support).batch(rows)
    texts: dict[int, str] = {}  # by id() of a side

    def text(side: int) -> str:
        if side not in texts:
            texts[side] = format_plucker(Poly(normal_forms[side]))
        return texts[side]

    records = []
    for identity in identities:
        lhs, rhs = id(identity.lhs), id(identity.rhs)
        agree = normal_forms[lhs] == normal_forms[rhs]
        if agree:
            # Equal normal forms print alike: a passing record prints one.
            texts[lhs] = texts[rhs] = texts.get(lhs) or text(rhs)
        records.append(
            IdentityRecord(
                case=case_name,
                relation_label=identity.label,
                status="pass" if agree else "fail",
                lhs_normal_form=text(lhs),
                rhs_normal_form=text(rhs),
            )
        )
    return SuiteReport(case_name, tuple(records))


def _case(name: str) -> CaseStudy:
    from . import case_studies

    case = case_studies.CASES.get(name)
    if case is None:
        raise ValueError(
            f"unknown case {name!r}; expected one of {sorted(case_studies.CASES)}"
        )
    return case


def case_suite(name: str) -> SuiteReport:
    """Verify every recorded identity of one explicit case study,
    including its presentation relations."""
    from . import case_studies

    case = _case(name)
    support = SupportRange(case.n, case.v, case.w)
    identities = list(case.identities) + case_studies.case_kernel_identities(case)
    return _run_checks(case.name, identities, support)


def toric_suite(n: int, k: int) -> SuiteReport:
    """Verify both identity families of the toric window v=(1,k+1),
    w=(n/2+2,n)."""
    from . import case_studies

    support = SupportRange(n, (1, k + 1), (n // 2 + 2, n))
    identities = case_studies.toric_identities(n, k)
    return _run_checks(f"richardson-n{n}-k{k}", identities, support)


class JacobianReport(NamedTuple):
    matrix: tuple[tuple[Fraction | int, ...], ...]
    rank: int
    codim_target: int

    @property
    def singular(self) -> bool:
        return self.rank < self.codim_target


def jacobian(
    relations: Sequence[Poly],
    point: Sequence[Fraction | int],
    codim_target: int,
) -> JacobianReport:
    """Exact Jacobian matrix of formal relations at a point, its rank, and
    the singularity verdict rank < codim_target.

    ``point[k-1]`` is the value of ``x_k``; every variable occurring in
    the relations must be covered.  Each row is built in one pass over
    its relation's terms: every occurrence of ``x_k`` in a term adds the
    coefficient times the other factors' values to entry ``k``.  Integral
    point values are held as ``int``, so at an integral point the matrix
    and its rank are computed over the integers.

    >>> cubic = Poly({(("x", 1), ("x", 1), ("x", 2)): 1, (("x", 2),): -3})
    >>> [str(x) for x in jacobian([cubic], [2, 5], 1).matrix[0]]
    ['20', '1']
    """
    from . import linalg

    values = [x.numerator if x.denominator == 1 else x for x in map(Fraction, point)]
    index = {("x", k): k - 1 for k in range(1, len(values) + 1)}
    rows = []
    for rel in relations:
        row: list[Fraction | int] = [0] * len(values)
        for mono, coeff in rel.terms.items():
            slots = [index.get(token) for token in mono]
            if None in slots:
                raise ValueError(
                    f"point of length {len(values)} does not cover {mono[slots.index(None)]}"
                )
            for at, slot in enumerate(slots):
                part = coeff
                for other in slots[:at] + slots[at + 1 :]:
                    part *= values[other]
                row[slot] += part
        rows.append(tuple(row))
    rank = linalg.rank([{k: x for k, x in enumerate(row) if x} for row in rows])
    return JacobianReport(tuple(rows), rank, codim_target)


def case_jacobian(name: str, point: Sequence[Fraction | int]) -> JacobianReport:
    """Jacobian of a case study's presentation at a point, with the
    codimension target #generators - dim(quotient) built in."""
    case = _case(name)
    if len(point) != len(case.generators):
        raise ValueError(
            f"case {name} has {len(case.generators)} generators, "
            f"got a point of length {len(point)}"
        )
    return jacobian(case.presentation, point, case.codim_target)
