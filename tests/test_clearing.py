"""Clearing between consecutive differentials, and the integer string table.

Clearing leaves out the columns of a differential at the unit-pivot rows of
the one reduced before it.  These tests reduce sampled cochain complexes
and boundary chains both ways and require the same (rank, factors) per
matrix; they also check the ``pivot_rows`` contract and that the string
table matches the tuple enumeration and face rule it replaced.
"""

import random

import pytest

from fibsite import cohom, fibred, hocopb, sampling, sset
from fibsite.errors import CapExceeded
from fibsite.fincat import codiscrete_groupoid, cyclic_groupoid, opposite, poset_chain
from fibsite.snf import normalize_factors, sparse_invariant_factors


def reduce_with_clearing(chain):
    """chain: (entries, nrows, ncols) in reduction order, each matrix's
    columns indexed like the rows of the one before it."""
    cleared: set[int] = set()
    for entries, nrows, ncols in chain:
        kept = {k: v for k, v in entries.items() if k[1] not in cleared}
        pivots: list[int] = []
        got = sparse_invariant_factors(kept, nrows, ncols, pivots)
        assert got == sparse_invariant_factors(entries, nrows, ncols)
        assert len(set(pivots)) == len(pivots)
        assert all(0 <= p < nrows for p in pivots)
        # one row per unit pivot: the pivot rows alone already have every
        # invariant factor 1 (the dense leftover may add further unit factors)
        assert len(pivots) <= got[1].count(1)
        block = {k: v for k, v in kept.items() if k[0] in set(pivots)}
        assert sparse_invariant_factors(block, nrows, ncols) == (
            len(pivots),
            [1] * len(pivots),
        )
        cleared = set(pivots)


def cochain_chain(cc):
    return [
        (dict(entries), cc.ranks[n + 1] if n + 1 < len(cc.ranks) else 0, cc.ranks[n])
        for n, entries in enumerate(cc.differentials)
    ]


def boundary_chain(s, top):
    return [sset.boundary_entries(s, n) for n in range(top + 1, 0, -1)]


def sampled_invariance_complexes(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m, gh = sampling.random_sectionwise_equivalence(rng)
        total = fibred.grothendieck_construct(gh).total
        if len(total.morphisms) > 12:
            continue
        t = fibred.total_functor(m)
        for coeff in (cohom.ZZ, cohom.zmod(2)):
            f = cohom.constant_abelian_presheaf(total, coeff)
            out.append(cohom.cochain_complex(total, f, 2))
            pulled = cohom.restrict_abelian_along(t, f)
            out.append(cohom.cochain_complex(t.domain, pulled, 2))
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_clearing_keeps_factors_on_invariance_complexes(seed):
    for cc in sampled_invariance_complexes(seed, 4):
        reduce_with_clearing(cochain_chain(cc))


def test_clearing_keeps_factors_on_nerve_and_hocolim_chains():
    spaces = [
        sset.nerve(cyclic_groupoid(3), 4),
        sset.nerve(codiscrete_groupoid(["a", "b"]), 4),
        sset.nerve(poset_chain(["W", "V", "U"]), 4),
        sset.standard_simplex(3, 4),
    ]
    rng = random.Random(5)
    for g in (cyclic_groupoid(2), codiscrete_groupoid(["a", "b"])):
        for _ in range(3):
            spaces.append(hocopb.hocolim(sampling.random_diagram(rng, opposite(g), 4), 4).total)
    for s in spaces:
        reduce_with_clearing(boundary_chain(s, 3))


def test_homology_matches_uncleared_reduction():
    s = sset.nerve(cyclic_groupoid(2), 5)
    expected = []
    sizes = [len(s.nondegenerate(n)) for n in range(5)]
    rank = {0: 0, 5: 0}
    tors = {}
    for n in range(1, 5):
        rank[n], factors = sparse_invariant_factors(*sset.boundary_entries(s, n))
        tors[n] = [f for f in factors if f > 1]
    for n in range(4):
        expected.append(normalize_factors(tors[n + 1], sizes[n] - rank[n] - rank[n + 1]))
    assert list(sset.homology(s, 3).factors) == expected


def test_pivot_rows_leave_the_dense_leftover_out():
    # no +-1 entry: the only unit factor comes from the dense routine
    pivots: list[int] = []
    assert sparse_invariant_factors({(0, 0): 2, (0, 1): 3}, 1, 2, pivots) == (1, [1])
    assert pivots == []
    pivots = []
    entries = {(0, 0): 1, (1, 0): 1, (1, 1): 2, (2, 1): -1}
    assert sparse_invariant_factors(entries, 3, 2, pivots) == (2, [1, 1])
    assert len(pivots) == 2 and len(set(pivots)) == 2


# ---------------------------------------------------------------------------
# the integer string table against the tuple enumeration it replaced


def reference_faces(c, t):
    n = len(t)
    out = []
    for i in range(n + 1):
        if n == 1:
            out.append((c.target(t[0]),) if i == 0 else (c.source(t[0]),))
        elif i == 0:
            out.append(t[1:])
        elif i == n:
            out.append(t[:-1])
        else:
            out.append(t[: i - 1] + (c.compose(t[i], t[i - 1]),) + t[i + 1 :])
    return out


def table_categories():
    z2 = cyclic_groupoid(2)
    pc = sampling.random_presheaf_of_categories(random.Random(4), poset_chain(["V", "U"]))
    return [
        cyclic_groupoid(3),
        codiscrete_groupoid(["a", "b", "c"]),
        poset_chain(["W", "V", "U"]),
        fibred.grothendieck_construct(fibred.constant_presheaf_of_categories(
            poset_chain(["V", "U"]), z2)).total,
        fibred.grothendieck_construct(pc).total,
    ]


@pytest.mark.parametrize("normalized", [True, False])
def test_string_table_matches_tuple_enumeration(normalized):
    for c in table_categories():
        top = 4
        vertex, first, faces = cohom._string_table(c, top, normalized, 10**6)
        strings = [sorted(c.strings(n, nondegenerate=normalized)) for n in range(top + 1)]
        for n in range(top + 1):
            assert len(vertex[n]) == len(strings[n])
            assert vertex[n] == [c.string_vertex(n, t) for t in strings[n]]
            if n == 0:
                continue
            assert first[n] == [t[0] for t in strings[n]]
            below = {t: k for k, t in enumerate(strings[n - 1])}
            assert faces[n] == [
                tuple(below.get(s) for s in reference_faces(c, t)) for t in strings[n]
            ]


def test_string_table_cap_names_the_degree():
    z3 = cyclic_groupoid(3)
    # nondegenerate strings of Z/3: 1, 2, 4, 8, ...
    cohom._string_table(z3, 3, True, 8)
    with pytest.raises(CapExceeded, match=r"^more than 7 strings in degree 3$"):
        cohom._string_table(z3, 3, True, 7)
    with pytest.raises(CapExceeded, match=r"^more than 0 strings in degree 0$"):
        cohom._string_table(z3, 3, True, 0)
