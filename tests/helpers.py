"""Constructions the tests use as oracles or fixtures.

The library itself never calls these, so they live with the tests: a
determinant to certify unimodular Smith transforms, the covariant view of a
contravariant diagram, and the identity morphism of a presheaf of
categories.
"""

from fibsite.fibred import MorphismOfPresheavesOfCategories
from fibsite.fincat import COVARIANT, SetValuedFunctor, identity_functor, opposite


def determinant(a) -> int:
    """Fraction-free Bareiss determinant of a square integer matrix."""
    n = len(a)
    if n == 0:
        return 1
    if any(len(r) != n for r in a):
        raise ValueError("determinant of non-square matrix")
    m = [list(r) for r in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def as_covariant(f: SetValuedFunctor) -> SetValuedFunctor:
    """View a contravariant diagram as a covariant one on the opposite base.

    The value and action dictionaries carry over unchanged; only the base
    flips.
    """
    if f.variance == COVARIANT:
        return f
    return SetValuedFunctor(
        base=opposite(f.base),
        variance=COVARIANT,
        value=dict(f.value),
        action=dict(f.action),
    )


def identity_morphism_of_presheaves(a) -> MorphismOfPresheavesOfCategories:
    return MorphismOfPresheavesOfCategories(
        domain=a,
        codomain=a,
        components={u: identity_functor(a.value[u]) for u in a.site.objects},
    )
