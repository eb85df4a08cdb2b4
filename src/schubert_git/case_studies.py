"""The worked quotient presentations and their recorded identities.

Three torus quotients have fully explicit presentations: the whole
Grassmannian of 2-planes in C^6, the Schubert variety X(6,8) in C^8, and
X(7,10) in C^10.  Each case records the degree-one invariant generators
(X_1, X_2, ...), auxiliary standard monomials (Y_i, W_i), the quadratic
and cubic identities relating them, and the polynomial relations that
present the quotient ring.  The identity suites and acceptance checks
verify every one of these by straightening.

Each case is stated once, as one table of data:

- ``generators`` and ``auxiliaries`` map a label to its standard monomial,
  a sorted tuple of index pairs;
- ``identities`` are ``(label, lhs, rhs)`` triples, each side a signed sum
  of label products such as ``"Y_1 - X_2 X_5 + X_4 X_4"``, or ``"0"``;
- ``presentation`` holds sums of the same kind over the generators.

Every polynomial is read from that text by concatenating monomials: on an
identity's sides a label stands for its Pluecker monomial, and in a
presentation relation the k-th generator stands for the formal variable
``x_k``.  No polynomial is multiplied.

Also here: the closed-form generator families for the small windows whose
quotients are projective spaces (generators ``X_t``) and toric varieties
(generators ``Y_{i,j}``).

The three case studies are built on first use, not at import: ``CASES``,
``G26``, ``X68`` and ``X710`` read as module attributes all come from one
cached build.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations
from typing import Iterable, Mapping, NamedTuple

from .formal import yvar
from .poly import Monomial, Poly
from .weyl import Pair


def _mono(*pairs: Pair) -> Monomial:
    return tuple(sorted(pairs))


# A dataclass, unlike the records of the command-line paths, so that
# callers can derive a variant with ``dataclasses.replace``.
@dataclass(frozen=True)
class Identity:
    """A recorded equality of Pluecker polynomials on a window."""

    label: str
    lhs: Poly
    rhs: Poly


class CaseStudy(NamedTuple):
    name: str
    n: int
    v: Pair
    w: Pair
    generators: tuple[tuple[str, Monomial], ...]
    auxiliaries: tuple[tuple[str, Monomial], ...]
    identities: tuple[Identity, ...]
    # Presentation of the quotient ring: formal polynomials in x_k that
    # vanish after substituting x_k -> k-th generator.
    presentation: tuple[Poly, ...]
    presentation_degree: int
    codim_target: int

    @property
    def generator_monomials(self) -> tuple[Monomial, ...]:
        return tuple(m for _, m in self.generators)


_TABLES = (
    dict(
        name="g26", n=6, v=(1, 2), w=(5, 6), presentation_degree=3, codim_target=1,
        generators={
            "X_1": ((1, 4), (2, 5), (3, 6)),
            "X_2": ((1, 2), (3, 5), (4, 6)),
            "X_3": ((1, 3), (2, 5), (4, 6)),
            "X_4": ((1, 2), (3, 4), (5, 6)),
            "X_5": ((1, 3), (2, 4), (5, 6)),
        },
        auxiliaries={
            "Y_1": ((1, 2), (1, 4), (2, 4), (3, 5), (3, 6), (5, 6)),
            "Y_2": ((1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)),
            "W_1": ((1, 2), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6), (5, 6)),
            "W_2": ((1, 2), (1, 2), (1, 3), (2, 3), (3, 5), (4, 5), (4, 6), (4, 6), (5, 6)),
            "W_3": ((1, 2), (1, 3), (1, 3), (2, 3), (2, 4), (4, 5), (4, 6), (5, 6), (5, 6)),
        },
        identities=(
            ("quad-1", "X_1 X_4", "Y_1 - X_2 X_5 + X_4 X_5 - X_4 X_4 + X_2 X_4"),
            ("quad-2", "X_3 X_4", "X_2 X_5 - Y_2"),
            ("cubic-1", "X_4 X_4 X_3", "X_2 X_4 X_5 - W_1"),
            (
                "cubic-2",
                "X_1 X_3 X_4",
                "X_1 X_2 X_5 - X_2 X_3 X_5 + X_2 X_2 X_5 - W_2"
                " + X_2 X_5 X_5 - W_3 - X_2 X_4 X_5 + W_1",
            ),
            ("cubic-3", "X_2 X_3 X_4", "X_2 X_2 X_5 - W_2"),
            ("cubic-4", "X_3 X_4 X_5", "X_2 X_5 X_5 - W_3"),
            (
                "cubic-F",
                "X_3 X_4 X_4 - X_1 X_2 X_5 + X_1 X_3 X_4"
                " - X_2 X_3 X_4 + X_2 X_3 X_5 - X_3 X_4 X_5",
                "0",
            ),
        ),
        presentation=(
            "X_3 X_4 X_4 - X_1 X_2 X_5 + X_1 X_3 X_4"
            " - X_2 X_3 X_4 + X_2 X_3 X_5 - X_3 X_4 X_5",
        ),
    ),
    dict(
        name="x68", n=8, v=(1, 2), w=(6, 8), presentation_degree=2, codim_target=4,
        generators={
            "X_1": ((1, 2), (3, 4), (5, 7), (6, 8)),
            "X_2": ((1, 2), (3, 5), (4, 7), (6, 8)),
            "X_3": ((1, 3), (2, 5), (4, 7), (6, 8)),
            "X_4": ((1, 3), (2, 4), (5, 7), (6, 8)),
            "X_5": ((1, 4), (2, 5), (3, 7), (6, 8)),
            "X_6": ((1, 4), (2, 6), (3, 7), (5, 8)),
            "X_7": ((1, 3), (2, 6), (4, 7), (5, 8)),
            "X_8": ((1, 2), (3, 6), (4, 7), (5, 8)),
            "X_9": ((1, 5), (2, 6), (3, 7), (4, 8)),
        },
        auxiliaries={
            "Y_1": ((1, 2), (1, 3), (2, 3), (4, 5), (4, 7), (5, 7), (6, 8), (6, 8)),
            "Y_2": ((1, 2), (1, 4), (2, 4), (3, 5), (3, 7), (5, 7), (6, 8), (6, 8)),
            "Y_3": ((1, 2), (1, 4), (2, 4), (3, 6), (3, 7), (5, 7), (5, 8), (6, 8)),
            "Y_4": ((1, 2), (1, 3), (2, 3), (4, 6), (4, 7), (5, 7), (5, 8), (6, 8)),
            "Y_5": ((1, 2), (1, 5), (2, 5), (3, 6), (3, 7), (4, 7), (4, 8), (6, 8)),
        },
        identities=(
            ("quad-1", "X_1 X_3", "X_2 X_4 - Y_1"),
            ("quad-2", "X_1 X_5", "Y_2 - X_2 X_4 + X_1 X_2 + X_1 X_4 - X_1 X_1"),
            ("quad-3", "X_1 X_6", "Y_3 - X_4 X_8 + X_1 X_8 + X_1 X_4 - X_1 X_1"),
            ("quad-4", "X_1 X_7", "X_4 X_8 - Y_4"),
            ("quad-5", "X_1 X_9", "X_5 X_8 - X_3 X_8 + X_1 X_8 + X_2 X_4 - X_1 X_2 - Y_1"),
            ("quad-6", "X_2 X_6", "X_5 X_8 - X_4 X_8 + X_1 X_8 + X_2 X_4 - X_1 X_2"),
            ("quad-7", "X_2 X_7", "X_3 X_8 - Y_4 + Y_1"),
            ("quad-8", "X_2 X_9", "Y_5 - X_3 X_8 + X_2 X_8 + X_2 X_3 - X_2 X_2"),
            ("quad-9", "X_4 X_9", "X_3 X_6 - X_3 X_8 + X_4 X_8 - Y_1"),
        ),
        presentation=(
            "X_2 X_6 - X_5 X_8 + X_4 X_8 - X_1 X_8 - X_2 X_4 + X_1 X_2",
            "X_1 X_3 - X_2 X_4 + X_3 X_6 - X_3 X_8 + X_4 X_8 - X_4 X_9",
            "X_2 X_7 - X_1 X_7 - X_3 X_6 + X_4 X_9",
            "X_3 X_6 - X_5 X_7",
            "X_1 X_3 - X_2 X_4 + X_2 X_6 - X_3 X_8 + X_4 X_8 - X_1 X_9",
        ),
    ),
    dict(
        name="x710", n=10, v=(1, 2), w=(7, 10), presentation_degree=2, codim_target=8,
        generators={
            "X_1": ((1, 2), (3, 4), (5, 8), (6, 9), (7, 10)),
            "X_2": ((1, 2), (3, 5), (4, 8), (6, 9), (7, 10)),
            "X_3": ((1, 2), (3, 6), (4, 8), (5, 9), (7, 10)),
            "X_4": ((1, 2), (3, 7), (4, 8), (5, 9), (6, 10)),
            "X_5": ((1, 3), (2, 6), (4, 8), (5, 9), (7, 10)),
            "X_6": ((1, 3), (2, 5), (4, 8), (6, 9), (7, 10)),
            "X_7": ((1, 3), (2, 4), (5, 8), (6, 9), (7, 10)),
            "X_8": ((1, 3), (2, 7), (4, 8), (5, 9), (6, 10)),
            "X_9": ((1, 4), (2, 6), (3, 8), (5, 9), (7, 10)),
            "X_10": ((1, 4), (2, 5), (3, 8), (6, 9), (7, 10)),
            "X_11": ((1, 4), (2, 7), (3, 8), (5, 9), (6, 10)),
            "X_12": ((1, 5), (2, 6), (3, 8), (4, 9), (7, 10)),
            "X_13": ((1, 5), (2, 7), (3, 8), (4, 9), (6, 10)),
            "X_14": ((1, 6), (2, 7), (3, 8), (4, 9), (5, 10)),
        },
        auxiliaries={
            "Y_1": (
                (1, 2), (1, 3), (2, 3), (4, 7), (4, 8),
                (5, 8), (5, 9), (6, 9), (6, 10), (7, 10),
            ),
            "Y_2": (
                (1, 2), (1, 3), (2, 3), (4, 6), (4, 8),
                (5, 8), (5, 9), (6, 9), (7, 10), (7, 10),
            ),
            "Y_3": (
                (1, 2), (1, 3), (2, 3), (4, 5), (4, 8),
                (5, 8), (6, 9), (6, 9), (7, 10), (7, 10),
            ),
        },
        identities=(
            ("aux-1", "Y_1", "X_4 X_7 - X_1 X_8"),
            ("aux-2", "Y_2", "X_3 X_7 - X_1 X_5"),
            ("aux-3", "Y_3", "X_2 X_7 - X_1 X_6"),
        ),
        presentation=(
            "X_2 X_9 - X_3 X_10 + X_3 X_7 - X_1 X_3 - X_2 X_7 + X_1 X_2",
            "X_2 X_11 - X_4 X_10 + X_4 X_7 - X_1 X_4 - X_2 X_7 + X_1 X_2",
            "X_3 X_8 - X_4 X_5 - X_1 X_8 + X_4 X_7 - X_3 X_7 + X_1 X_5",
            "X_3 X_13 - X_4 X_12 + X_4 X_6 - X_2 X_4 - X_3 X_6 + X_2 X_3",
            "X_3 X_11 - X_4 X_9 + X_4 X_7 - X_1 X_4 - X_3 X_7 + X_1 X_3",
            "X_10 X_14 - X_9 X_13 + X_4 X_9 - X_4 X_10"
            " + X_3 X_7 - X_1 X_3 - X_2 X_7 + X_1 X_2",
            "X_5 X_10 - X_6 X_9",
            "X_8 X_12 - X_5 X_13",
            "X_5 X_11 - X_8 X_9",
            "X_6 X_11 - X_8 X_10",
            "X_9 X_13 - X_11 X_12",
            "X_2 X_8 - X_4 X_6 - X_2 X_7 + X_4 X_7 - X_1 X_8 + X_1 X_6",
            "X_2 X_5 - X_3 X_6 + X_3 X_7 - X_1 X_5 + X_1 X_6 - X_2 X_7",
            "X_1 X_14 - X_4 X_9 + X_4 X_5 - X_1 X_4 + X_1 X_3 - X_1 X_5",
            "X_1 X_13 - X_4 X_10 + X_4 X_6 - X_1 X_4 - X_1 X_6 + X_1 X_2",
            "X_1 X_12 - X_3 X_10 + X_3 X_6 - X_1 X_3 - X_1 X_6 + X_1 X_2",
            "X_7 X_14 - X_8 X_9 + X_4 X_5 - X_4 X_7 + X_3 X_7 - X_1 X_5",
            "X_6 X_14 - X_8 X_12 + X_4 X_5 - X_4 X_6"
            " + X_3 X_7 - X_1 X_5 + X_1 X_6 - X_2 X_7",
            "X_2 X_14 - X_4 X_12 + X_4 X_5 - X_2 X_4 - X_3 X_6"
            " + X_2 X_3 + X_3 X_7 - X_1 X_5 + X_1 X_6 - X_2 X_7",
            "X_7 X_12 - X_5 X_10 + X_3 X_6 - X_3 X_7 + X_2 X_7 - X_1 X_6",
            "X_7 X_13 - X_8 X_10 + X_4 X_6 - X_4 X_7 + X_2 X_7 - X_1 X_6",
        ),
    ),
)


def _expand(terms: Iterable[tuple[Iterable, int]], monomials: Mapping) -> Poly:
    """The sum of ``coeff * product`` over ``(labels, coeff)`` terms, where a
    product is the concatenation of its labels' monomials."""
    out: dict[Monomial, int] = {}
    for labels, coeff in terms:
        mono = tuple(sorted(chain.from_iterable(monomials[label] for label in labels)))
        out[mono] = out.get(mono, 0) + coeff
    return Poly(out)


def _read(text: str, monomials: Mapping[str, Monomial]) -> Poly:
    """A signed sum of label products, ``"0"`` for the empty sum, as a
    polynomial over the labels' monomials.

    >>> labels = {"X_1": ((1, 2),), "X_2": ((3, 4),), "Y": ((1, 3), (2, 4))}
    >>> _read("X_1 X_2 - Y + X_2 X_1", labels).terms
    {((1, 2), (3, 4)): 2, ((1, 3), (2, 4)): -1}
    >>> _read("X_2 X_2 - X_1", {"X_1": (("x", 1),), "X_2": (("x", 2),)}).terms
    {(('x', 2), ('x', 2)): 1, (('x', 1),): -1}
    """
    terms: list[tuple[list[str], int]] = []
    sign, labels = 1, []
    for word in ([] if text == "0" else text.split()) + ["+"]:
        if word in ("+", "-"):
            if labels:
                terms.append((labels, sign))
            sign, labels = (-1 if word == "-" else 1), []
        else:
            labels.append(word)
    return _expand(terms, monomials)


def _build(
    generators: dict, auxiliaries: dict, identities: tuple, presentation: tuple, **fields
) -> CaseStudy:
    """One case table read into its ``CaseStudy``."""
    plucker = {**generators, **auxiliaries}
    formal = {label: (("x", k),) for k, label in enumerate(generators, start=1)}
    return CaseStudy(
        generators=tuple(generators.items()),
        auxiliaries=tuple(auxiliaries.items()),
        identities=tuple(
            Identity(label, _read(lhs, plucker), _read(rhs, plucker))
            for label, lhs, rhs in identities
        ),
        presentation=tuple(_read(text, formal) for text in presentation),
        **fields,
    )


@cache
def _cases() -> dict[str, CaseStudy]:
    return {table["name"]: _build(**table) for table in _TABLES}


def __getattr__(name: str):
    if name == "CASES":
        value = _cases()
    elif name in ("G26", "X68", "X710"):
        value = _cases()[name.lower()]
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def case_kernel_identities(case: CaseStudy) -> list[Identity]:
    """The presentation relations turned into Pluecker identities
    (substitute x_k by the k-th generator; right side zero)."""
    values = {("x", k): mono for k, mono in enumerate(case.generator_monomials, start=1)}
    return [
        Identity(f"kernel-{idx}", _expand(relation.terms.items(), values), Poly.zero())
        for idx, relation in enumerate(case.presentation, start=1)
    ]


def projective_generator(n: int, t: int) -> Monomial:
    """The degree-one invariant generator X_t on the window whose quotient
    is a projective space: X_t = p[1,t] * prod p[k, n/2+k] (k = 2..t-1)
    * prod p[k+1, n/2+k] (k = t..n/2), for 2 <= t <= n/2 + 1.

    >>> projective_generator(6, 2)
    ((1, 2), (3, 5), (4, 6))
    """
    half = n // 2
    if n % 2 or not 2 <= t <= half + 1:
        raise ValueError(f"need even n and 2 <= t <= n/2+1, got n={n}, t={t}")
    pairs = [(1, t)]
    pairs += [(k, half + k) for k in range(2, t)]
    pairs += [(k + 1, half + k) for k in range(t, half + 1)]
    return _mono(*pairs)


def toric_generator(n: int, i: int, j: int) -> Monomial:
    """The degree-one invariant generator Y_{i,j} on the window whose
    quotient is toric, for 3 <= i < j <= n/2 + 2.

    >>> toric_generator(8, 5, 6) == tuple(sorted([(1, 5), (2, 6), (3, 7), (4, 8)]))
    True
    """
    half = n // 2
    if n % 2 or not (3 <= i < j <= half + 2):
        raise ValueError(f"need even n and 3 <= i < j <= n/2+2, got {(n, i, j)}")
    pairs = [(1, i), (2, j)]
    pairs += [(l, half + l) for l in range(3, i)]
    pairs += [(l, half + l - 1) for l in range(i + 1, j)]
    pairs += [(l, half + l - 2) for l in range(j + 1, half + 3)]
    return _mono(*pairs)


def generator_labels(n: int, v: Pair, w: Pair) -> tuple[tuple[str, Monomial], ...] | None:
    """Pinned label table for a window, or None when no table applies.

    Covers the three explicit case studies, the projective-space windows
    ``v=(1,k+1), w=(n/2+1,n)``, and the toric windows
    ``v=(1,k+1), w=(n/2+2,n)``.
    """
    for case in _cases().values():
        if (case.n, case.v, case.w) == (n, v, w):
            return case.generators
    if n % 2 == 0:
        half = n // 2
        if v[0] == 1 and w == (half + 1, n) and 2 <= v[1] <= half + 1:
            k = v[1] - 1
            return tuple(
                (f"X_{t}", projective_generator(n, t)) for t in range(k + 1, half + 2)
            )
        if v[0] == 1 and w == (half + 2, n) and 3 <= v[1] <= half + 1:
            k = v[1] - 1
            return tuple(
                (f"Y_{i},{j}", toric_generator(n, i, j))
                for i in range(k + 1, half + 2)
                for j in range(i + 1, half + 3)
            )
    return None


def toric_identities(n: int, k: int) -> list[Identity]:
    """Both identity families Y_{i,j}Y_{m,s} = Y_{i,m}Y_{j,s} and
    Y_{i,m}Y_{j,s} = Y_{i,s}Y_{j,m}, over all k+1 <= i<j<m<s <= n/2+2."""
    half = n // 2
    if n % 2 or not 2 <= k <= half - 2:
        raise ValueError(f"need even n and 2 <= k <= n/2-2, got n={n}, k={k}")
    indices = range(k + 1, half + 3)
    y = {(i, j): toric_generator(n, i, j) for i, j in combinations(indices, 2)}

    def product(a: Pair, b: Pair) -> Poly:
        # The suite's straightening pass validates every factor.
        return Poly({y[a] + y[b]: 1})

    out: list[Identity] = []
    for i, j, m, s in combinations(indices, 4):
        crossing = product((i, m), (j, s))
        out.append(Identity(f"exchange-{i}.{j}.{m}.{s}", product((i, j), (m, s)), crossing))
        out.append(Identity(f"nest-{i}.{j}.{m}.{s}", crossing, product((i, s), (j, m))))
    return out


def toric_presentation(n: int, k: int) -> list[Poly]:
    """Formal binomial generators of the toric window's relation ideal:
    y[i,j]y[m,s] - y[i,m]y[j,s] and y[i,j]y[m,s] - y[i,s]y[j,m]."""
    half = n // 2
    if n % 2 or not 2 <= k <= half - 2:
        raise ValueError(f"need even n and 2 <= k <= n/2-2, got n={n}, k={k}")
    out: list[Poly] = []
    for i, j, m, s in combinations(range(k + 1, half + 3), 4):
        out.append(yvar(i, j) * yvar(m, s) - yvar(i, m) * yvar(j, s))
        out.append(yvar(i, j) * yvar(m, s) - yvar(i, s) * yvar(j, m))
    return out
