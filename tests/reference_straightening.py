"""Test-only reference engine for straightening.

This is the generation-frontier rewriting loop the package used before
:class:`schubert_git.straightening.Straightener`: all pending monomials are
rewritten once per generation, factors not below ``w`` kill a monomial
eagerly, and the lower bound ``v`` is checked on the finished chains only.
With ``strategy="random"`` the rewritten pair is drawn at random (from
``seed``) among all incomparable factor pairs, not only adjacent ones, so
agreement with the engine also witnesses that the normal form does not
depend on the order of rewrites.  It keeps ``Fraction`` coefficients and has
no cache.
"""

from __future__ import annotations

import random
from fractions import Fraction

from schubert_git.poly import Monomial, Poly
from schubert_git.straightening import SupportRange
from schubert_git.weyl import bruhat_leq, check_pair


def _find_bad_pair(
    factors: Monomial, rng: random.Random | None
) -> tuple[int, int] | None:
    if rng is None:
        for k in range(len(factors) - 1):
            a, b = factors[k], factors[k + 1]
            if not (a[0] <= b[0] and a[1] <= b[1]):
                return (k, k + 1)
        return None
    bad = [
        (k, l)
        for k in range(len(factors))
        for l in range(k + 1, len(factors))
        if not (
            bruhat_leq(factors[k], factors[l]) or bruhat_leq(factors[l], factors[k])
        )
    ]
    return bad[rng.randrange(len(bad))] if bad else None


def reference_monomial_normal_form(
    factors: Monomial, support: SupportRange, rng: random.Random | None = None
) -> dict[Monomial, Fraction]:
    w, v = support.w, support.v
    done: dict[Monomial, Fraction] = {}
    pending: dict[Monomial, Fraction] = {}
    if all(bruhat_leq(f, w) for f in factors):
        pending[tuple(sorted(factors))] = Fraction(1)
    while pending:
        nxt: dict[Monomial, Fraction] = {}
        for mono, coeff in pending.items():
            pos = _find_bad_pair(mono, rng)
            if pos is None:
                if not mono or bruhat_leq(v, mono[0]):
                    done[mono] = done.get(mono, Fraction(0)) + coeff
                continue
            k, l = pos
            (a, b), (c, d) = mono[k], mono[l]
            rest = mono[:k] + mono[k + 1 : l] + mono[l + 1 :]
            for new_pair, sign in ((((a, d), (c, b)), 1), (((a, c), (d, b)), -1)):
                if bruhat_leq(new_pair[0], w) and bruhat_leq(new_pair[1], w):
                    nm = tuple(sorted(rest + new_pair))
                    nxt[nm] = nxt.get(nm, Fraction(0)) + sign * coeff
        pending = {m: c for m, c in nxt.items() if c}
    return {m: c for m, c in done.items() if c}


def reference_straighten(
    p: Poly, support: SupportRange, strategy: str = "leftmost", seed: int | None = None
) -> Poly:
    """Normal form of ``p`` by the reference loop; ``strategy="random"``
    picks the rewritten pair at random from ``seed``."""
    rng = random.Random(seed) if strategy == "random" else None
    out: dict[Monomial, Fraction] = {}
    for mono, coeff in p.terms.items():
        for t in mono:
            check_pair(t, support.n)
        nf = reference_monomial_normal_form(mono, support, rng)
        for nf_mono, nf_coeff in nf.items():
            out[nf_mono] = out.get(nf_mono, Fraction(0)) + coeff * nf_coeff
    return Poly(out)
