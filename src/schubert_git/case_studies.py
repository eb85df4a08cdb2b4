"""The worked quotient presentations and their recorded identities.

Three torus quotients have fully explicit presentations: the whole
Grassmannian of 2-planes in C^6, the Schubert variety X(6,8) in C^8, and
X(7,10) in C^10.  Each case records the degree-one invariant generators
(X_1, X_2, ...), auxiliary standard monomials (Y_i, W_i), the quadratic
and cubic identities relating them, and the polynomial relations that
present the quotient ring.  The identity suites and acceptance checks
verify every one of these by straightening.

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
from itertools import combinations
from typing import NamedTuple

from .formal import substitute, x_monomial, xvar, yvar
from .plucker import pmono
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

    def generator_values(self) -> list[Poly]:
        return [pmono(m) for m in self.generator_monomials]


def _g26() -> CaseStudy:
    X = {
        1: _mono((1, 4), (2, 5), (3, 6)),
        2: _mono((1, 2), (3, 5), (4, 6)),
        3: _mono((1, 3), (2, 5), (4, 6)),
        4: _mono((1, 2), (3, 4), (5, 6)),
        5: _mono((1, 3), (2, 4), (5, 6)),
    }
    Y = {
        1: _mono((1, 2), (1, 4), (2, 4), (3, 5), (3, 6), (5, 6)),
        2: _mono((1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)),
    }
    W = {
        1: _mono((1, 2), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6), (5, 6)),
        2: _mono((1, 2), (1, 2), (1, 3), (2, 3), (3, 5), (4, 5), (4, 6), (4, 6), (5, 6)),
        3: _mono((1, 2), (1, 3), (1, 3), (2, 3), (2, 4), (4, 5), (4, 6), (5, 6), (5, 6)),
    }
    x = {k: pmono(m) for k, m in X.items()}
    y = {k: pmono(m) for k, m in Y.items()}
    w = {k: pmono(m) for k, m in W.items()}
    hypersurface = (
        xvar(3) * xvar(4) ** 2
        - xvar(1) * xvar(2) * xvar(5)
        + xvar(1) * xvar(3) * xvar(4)
        - xvar(2) * xvar(3) * xvar(4)
        + xvar(2) * xvar(3) * xvar(5)
        - xvar(3) * xvar(4) * xvar(5)
    )
    identities = (
        Identity(
            "quad-1",
            x[1] * x[4],
            y[1] - x[2] * x[5] + x[4] * x[5] - x[4] * x[4] + x[2] * x[4],
        ),
        Identity("quad-2", x[3] * x[4], x[2] * x[5] - y[2]),
        Identity("cubic-1", x[4] * x[4] * x[3], x[2] * x[4] * x[5] - w[1]),
        Identity(
            "cubic-2",
            x[1] * x[3] * x[4],
            x[1] * x[2] * x[5]
            - x[2] * x[3] * x[5]
            + x[2] * x[2] * x[5]
            - w[2]
            + x[2] * x[5] * x[5]
            - w[3]
            - x[2] * x[4] * x[5]
            + w[1],
        ),
        Identity("cubic-3", x[2] * x[3] * x[4], x[2] * x[2] * x[5] - w[2]),
        Identity("cubic-4", x[3] * x[4] * x[5], x[2] * x[5] * x[5] - w[3]),
        Identity(
            "cubic-F",
            pmono(X[3]) * pmono(X[4]) ** 2
            - pmono(X[1]) * pmono(X[2]) * pmono(X[5])
            + pmono(X[1]) * pmono(X[3]) * pmono(X[4])
            - pmono(X[2]) * pmono(X[3]) * pmono(X[4])
            + pmono(X[2]) * pmono(X[3]) * pmono(X[5])
            - pmono(X[3]) * pmono(X[4]) * pmono(X[5]),
            Poly.zero(),
        ),
    )
    return CaseStudy(
        name="g26",
        n=6,
        v=(1, 2),
        w=(5, 6),
        generators=tuple((f"X_{k}", X[k]) for k in sorted(X)),
        auxiliaries=tuple(
            [(f"Y_{k}", Y[k]) for k in sorted(Y)] + [(f"W_{k}", W[k]) for k in sorted(W)]
        ),
        identities=identities,
        presentation=(hypersurface,),
        presentation_degree=3,
        codim_target=1,
    )


def _x68() -> CaseStudy:
    X = {
        1: _mono((1, 2), (3, 4), (5, 7), (6, 8)),
        2: _mono((1, 2), (3, 5), (4, 7), (6, 8)),
        3: _mono((1, 3), (2, 5), (4, 7), (6, 8)),
        4: _mono((1, 3), (2, 4), (5, 7), (6, 8)),
        5: _mono((1, 4), (2, 5), (3, 7), (6, 8)),
        6: _mono((1, 4), (2, 6), (3, 7), (5, 8)),
        7: _mono((1, 3), (2, 6), (4, 7), (5, 8)),
        8: _mono((1, 2), (3, 6), (4, 7), (5, 8)),
        9: _mono((1, 5), (2, 6), (3, 7), (4, 8)),
    }
    Y = {
        1: _mono((1, 2), (1, 3), (2, 3), (4, 5), (4, 7), (5, 7), (6, 8), (6, 8)),
        2: _mono((1, 2), (1, 4), (2, 4), (3, 5), (3, 7), (5, 7), (6, 8), (6, 8)),
        3: _mono((1, 2), (1, 4), (2, 4), (3, 6), (3, 7), (5, 7), (5, 8), (6, 8)),
        4: _mono((1, 2), (1, 3), (2, 3), (4, 6), (4, 7), (5, 7), (5, 8), (6, 8)),
        5: _mono((1, 2), (1, 5), (2, 5), (3, 6), (3, 7), (4, 7), (4, 8), (6, 8)),
    }
    x = {k: pmono(m) for k, m in X.items()}
    y = {k: pmono(m) for k, m in Y.items()}
    identities = (
        Identity("quad-1", x[1] * x[3], x[2] * x[4] - y[1]),
        Identity(
            "quad-2",
            x[1] * x[5],
            y[2] - x[2] * x[4] + x[1] * x[2] + x[1] * x[4] - x[1] * x[1],
        ),
        Identity(
            "quad-3",
            x[1] * x[6],
            y[3] - x[4] * x[8] + x[1] * x[8] + x[1] * x[4] - x[1] * x[1],
        ),
        Identity("quad-4", x[1] * x[7], x[4] * x[8] - y[4]),
        Identity(
            "quad-5",
            x[1] * x[9],
            x[5] * x[8] - x[3] * x[8] + x[1] * x[8] + x[2] * x[4] - x[1] * x[2] - y[1],
        ),
        Identity(
            "quad-6",
            x[2] * x[6],
            x[5] * x[8] - x[4] * x[8] + x[1] * x[8] + x[2] * x[4] - x[1] * x[2],
        ),
        Identity("quad-7", x[2] * x[7], x[3] * x[8] - y[4] + y[1]),
        Identity(
            "quad-8",
            x[2] * x[9],
            y[5] - x[3] * x[8] + x[2] * x[8] + x[2] * x[3] - x[2] * x[2],
        ),
        Identity(
            "quad-9",
            x[4] * x[9],
            x[3] * x[6] - x[3] * x[8] + x[4] * x[8] - y[1],
        ),
    )
    presentation = (
        x_monomial((2, 6)) - x_monomial((5, 8)) + x_monomial((4, 8))
        - x_monomial((1, 8)) - x_monomial((2, 4)) + x_monomial((1, 2)),
        x_monomial((1, 3)) - x_monomial((2, 4)) + x_monomial((3, 6))
        - x_monomial((3, 8)) + x_monomial((4, 8)) - x_monomial((4, 9)),
        x_monomial((2, 7)) - x_monomial((1, 7)) - x_monomial((3, 6))
        + x_monomial((4, 9)),
        x_monomial((3, 6)) - x_monomial((5, 7)),
        x_monomial((1, 3)) - x_monomial((2, 4)) + x_monomial((2, 6))
        - x_monomial((3, 8)) + x_monomial((4, 8)) - x_monomial((1, 9)),
    )
    return CaseStudy(
        name="x68",
        n=8,
        v=(1, 2),
        w=(6, 8),
        generators=tuple((f"X_{k}", X[k]) for k in sorted(X)),
        auxiliaries=tuple((f"Y_{k}", Y[k]) for k in sorted(Y)),
        identities=identities,
        presentation=presentation,
        presentation_degree=2,
        codim_target=4,
    )


def _x710() -> CaseStudy:
    X = {
        1: _mono((1, 2), (3, 4), (5, 8), (6, 9), (7, 10)),
        2: _mono((1, 2), (3, 5), (4, 8), (6, 9), (7, 10)),
        3: _mono((1, 2), (3, 6), (4, 8), (5, 9), (7, 10)),
        4: _mono((1, 2), (3, 7), (4, 8), (5, 9), (6, 10)),
        5: _mono((1, 3), (2, 6), (4, 8), (5, 9), (7, 10)),
        6: _mono((1, 3), (2, 5), (4, 8), (6, 9), (7, 10)),
        7: _mono((1, 3), (2, 4), (5, 8), (6, 9), (7, 10)),
        8: _mono((1, 3), (2, 7), (4, 8), (5, 9), (6, 10)),
        9: _mono((1, 4), (2, 6), (3, 8), (5, 9), (7, 10)),
        10: _mono((1, 4), (2, 5), (3, 8), (6, 9), (7, 10)),
        11: _mono((1, 4), (2, 7), (3, 8), (5, 9), (6, 10)),
        12: _mono((1, 5), (2, 6), (3, 8), (4, 9), (7, 10)),
        13: _mono((1, 5), (2, 7), (3, 8), (4, 9), (6, 10)),
        14: _mono((1, 6), (2, 7), (3, 8), (4, 9), (5, 10)),
    }
    Y = {
        1: _mono(
            (1, 2), (1, 3), (2, 3), (4, 7), (4, 8),
            (5, 8), (5, 9), (6, 9), (6, 10), (7, 10),
        ),
        2: _mono(
            (1, 2), (1, 3), (2, 3), (4, 6), (4, 8),
            (5, 8), (5, 9), (6, 9), (7, 10), (7, 10),
        ),
        3: _mono(
            (1, 2), (1, 3), (2, 3), (4, 5), (4, 8),
            (5, 8), (6, 9), (6, 9), (7, 10), (7, 10),
        ),
    }
    x = {k: pmono(m) for k, m in X.items()}
    y = {k: pmono(m) for k, m in Y.items()}
    identities = [
        Identity("aux-1", y[1], x[4] * x[7] - x[1] * x[8]),
        Identity("aux-2", y[2], x[3] * x[7] - x[1] * x[5]),
        Identity("aux-3", y[3], x[2] * x[7] - x[1] * x[6]),
    ]
    relation_terms: tuple[tuple[tuple[int, tuple[int, int]], ...], ...] = (
        ((1, (2, 9)), (-1, (3, 10)), (1, (3, 7)), (-1, (1, 3)), (-1, (2, 7)), (1, (1, 2))),
        ((1, (2, 11)), (-1, (4, 10)), (1, (4, 7)), (-1, (1, 4)), (-1, (2, 7)), (1, (1, 2))),
        ((1, (3, 8)), (-1, (4, 5)), (-1, (1, 8)), (1, (4, 7)), (-1, (3, 7)), (1, (1, 5))),
        ((1, (3, 13)), (-1, (4, 12)), (1, (4, 6)), (-1, (2, 4)), (-1, (3, 6)), (1, (2, 3))),
        ((1, (3, 11)), (-1, (4, 9)), (1, (4, 7)), (-1, (1, 4)), (-1, (3, 7)), (1, (1, 3))),
        (
            (1, (10, 14)), (-1, (9, 13)), (1, (4, 9)), (-1, (4, 10)),
            (1, (3, 7)), (-1, (1, 3)), (-1, (2, 7)), (1, (1, 2)),
        ),
        ((1, (5, 10)), (-1, (6, 9))),
        ((1, (8, 12)), (-1, (5, 13))),
        ((1, (5, 11)), (-1, (8, 9))),
        ((1, (6, 11)), (-1, (8, 10))),
        ((1, (9, 13)), (-1, (11, 12))),
        ((1, (2, 8)), (-1, (4, 6)), (-1, (2, 7)), (1, (4, 7)), (-1, (1, 8)), (1, (1, 6))),
        ((1, (2, 5)), (-1, (3, 6)), (1, (3, 7)), (-1, (1, 5)), (1, (1, 6)), (-1, (2, 7))),
        ((1, (1, 14)), (-1, (4, 9)), (1, (4, 5)), (-1, (1, 4)), (1, (1, 3)), (-1, (1, 5))),
        ((1, (1, 13)), (-1, (4, 10)), (1, (4, 6)), (-1, (1, 4)), (-1, (1, 6)), (1, (1, 2))),
        ((1, (1, 12)), (-1, (3, 10)), (1, (3, 6)), (-1, (1, 3)), (-1, (1, 6)), (1, (1, 2))),
        ((1, (7, 14)), (-1, (8, 9)), (1, (4, 5)), (-1, (4, 7)), (1, (3, 7)), (-1, (1, 5))),
        (
            (1, (6, 14)), (-1, (8, 12)), (1, (4, 5)), (-1, (4, 6)),
            (1, (3, 7)), (-1, (1, 5)), (1, (1, 6)), (-1, (2, 7)),
        ),
        (
            (1, (2, 14)), (-1, (4, 12)), (1, (4, 5)), (-1, (2, 4)), (-1, (3, 6)),
            (1, (2, 3)), (1, (3, 7)), (-1, (1, 5)), (1, (1, 6)), (-1, (2, 7)),
        ),
        ((1, (7, 12)), (-1, (5, 10)), (1, (3, 6)), (-1, (3, 7)), (1, (2, 7)), (-1, (1, 6))),
        ((1, (7, 13)), (-1, (8, 10)), (1, (4, 6)), (-1, (4, 7)), (1, (2, 7)), (-1, (1, 6))),
    )
    presentation = tuple(
        sum(
            (x_monomial(idx, coeff) for coeff, idx in terms),
            Poly.zero(),
        )
        for terms in relation_terms
    )
    return CaseStudy(
        name="x710",
        n=10,
        v=(1, 2),
        w=(7, 10),
        generators=tuple((f"X_{k}", X[k]) for k in sorted(X)),
        auxiliaries=tuple((f"Y_{k}", Y[k]) for k in sorted(Y)),
        identities=tuple(identities),
        presentation=presentation,
        presentation_degree=2,
        codim_target=8,
    )


@cache
def _cases() -> dict[str, CaseStudy]:
    return {c.name: c for c in (_g26(), _x68(), _x710())}


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
    values = case.generator_values()
    table = {("x", k): values[k - 1] for k in range(1, len(values) + 1)}
    return [
        Identity(f"kernel-{idx}", substitute(relation, table), Poly.zero())
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
