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
    # each distinct monomial once for every side it occurs in.
    identities = list(identities)
    rows: dict[tuple[int, str], dict] = {}
    for k, identity in enumerate(identities):
        rows[k, "lhs"] = identity.lhs.terms
        rows[k, "rhs"] = identity.rhs.terms
    normal_forms = Straightener(support).batch(rows)
    records = []
    for k, identity in enumerate(identities):
        lhs_nf, rhs_nf = normal_forms[k, "lhs"], normal_forms[k, "rhs"]
        agree = lhs_nf == rhs_nf
        lhs_text = format_plucker(Poly(lhs_nf))
        records.append(
            IdentityRecord(
                case=case_name,
                relation_label=identity.label,
                status="pass" if agree else "fail",
                lhs_normal_form=lhs_text,
                # Equal normal forms print alike: a passing record prints one.
                rhs_normal_form=lhs_text if agree else format_plucker(Poly(rhs_nf)),
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
    matrix: tuple[tuple[Fraction, ...], ...]
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
    the relations must be covered.
    """
    from . import linalg
    from .formal import partial_derivative

    values = [Fraction(x) for x in point]
    assignment = {("x", k): values[k - 1] for k in range(1, len(values) + 1)}
    for rel in relations:
        for mono in rel.terms:
            for token in mono:
                if token not in assignment:
                    raise ValueError(
                        f"point of length {len(values)} does not cover {token}"
                    )
    rows = []
    for rel in relations:
        rows.append(
            tuple(
                partial_derivative(rel, ("x", k)).evaluate(assignment)
                for k in range(1, len(values) + 1)
            )
        )
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
