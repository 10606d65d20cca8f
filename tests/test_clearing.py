"""Clearing between consecutive differentials, and the integer string table.

Clearing leaves out the columns of a differential at the unit-pivot rows of
the one reduced before it.  These tests reduce sampled cochain complexes
and boundary chains, in both orders, with and without clearing and require
the same (rank, factors) per matrix; they check ``sset.homology``, which
reduces the transposed boundaries bottom up, against an uncleared
reduction of every boundary matrix, and count the work it hands the
kernel.  They also check the ``pivot_rows`` contract and that the string
kernel matches a brute-force enumeration, the direct face formula and the
counting recurrence for its cap.
"""

import dataclasses
import itertools
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibsite import cohom, fibred, hocopb, sampling, snf, sset
from fibsite.bundle import parse_bundle
from fibsite.errors import CapExceeded
from fibsite.fincat import (
    build_category,
    codiscrete_groupoid,
    cyclic_groupoid,
    group_block_groupoid,
    opposite,
    poset_chain,
    string_table,
)
from fibsite.sset import validate_simplicial
from fibsite.snf import normalize_factors, sparse_invariant_factors


def without(rows, cleared):
    """rows without the columns in cleared, and without the rows left empty."""
    out = {i: {j: v for j, v in row.items() if j not in cleared} for i, row in rows.items()}
    return {i: row for i, row in out.items() if row}


def reduce_with_clearing(chain):
    """chain: (rows, nrows, ncols) in reduction order, each matrix's
    columns indexed like the rows of the one before it."""
    cleared: set[int] = set()
    for rows, nrows, ncols in chain:
        kept = without(rows, cleared)
        assert snf._stored(rows)(cleared) == kept
        pivots: list[int] = []
        got = sparse_invariant_factors(snf._stored(rows)(cleared), nrows, ncols, pivots)
        # skipping the cleared columns is leaving them out of the rows
        assert got == sparse_invariant_factors(kept, nrows, ncols)
        assert got == sparse_invariant_factors(rows, nrows, ncols)
        assert len(set(pivots)) == len(pivots)
        assert all(0 <= p < nrows for p in pivots)
        # one row per unit pivot: the pivot rows alone already have every
        # invariant factor 1 (the dense leftover may add further unit factors)
        assert len(pivots) <= got[1].count(1)
        block = {i: row for i, row in kept.items() if i in set(pivots)}
        assert sparse_invariant_factors(block, nrows, ncols) == (
            len(pivots),
            [1] * len(pivots),
        )
        cleared = set(pivots)
    # the loop that sset.homology and cohom._cohomology share
    uncleared = [sparse_invariant_factors(*m) for m in chain]
    stored = [(snf._stored(rows), nrows, ncols) for rows, nrows, ncols in chain]
    assert snf._reduce_with_clearing(stored) == uncleared
    if chain:
        last = snf._reduce_with_clearing(stored, last_rank_only=True)
        assert last == uncleared[:-1] + [(uncleared[-1][0], [])]


def transposed(matrix):
    rows, nrows, ncols = matrix
    out = {}
    for i, row in rows.items():
        for j, v in row.items():
            out.setdefault(j, {})[i] = v
    return out, ncols, nrows


def cochain_chain(cc):
    return [
        (rows, cc.ranks[n + 1] if n + 1 < len(cc.ranks) else 0, cc.ranks[n])
        for n, rows in enumerate(cc.differentials)
    ]


def boundary_chain(s, top, normalized=True):
    """d_{top+1}, ..., d_1: the boundaries from the top down."""
    return [sset.boundary_entries(s, n, normalized) for n in range(top + 1, 0, -1)]


def coboundary_chain(s, top, normalized=True):
    """d_1^T, ..., d_{top+1}^T: the order ``sset.homology`` reduces in."""
    return [transposed(m) for m in reversed(boundary_chain(s, top, normalized))]


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


def z3_simplex_hocolim(d):
    """hocolim(pb(x)) for x the standard 2-simplex over a 2-string of Z/3."""
    z3 = cyclic_groupoid(3)
    ng = sset.nerve(z3, d)
    sigma = sorted(ng.simplices[2], key=repr)[0]
    x = hocopb.OverNerve(z3, *sampling.simplex_over_nerve(z3, sigma, ng))
    return hocopb.hocolim(hocopb.pb(x), d).total


def oracle_spaces():
    """(space, top): nerves, standard simplices and hocolims."""
    spaces = [
        (sset.nerve(cyclic_groupoid(2), 5), 4),
        (sset.nerve(cyclic_groupoid(3), 5), 4),
        (sset.nerve(cyclic_groupoid(5), 5), 4),
        (sset.nerve(codiscrete_groupoid(["a", "b"]), 4), 3),
        (sset.nerve(codiscrete_groupoid(["a", "b", "c"]), 4), 3),
        (sset.nerve(poset_chain(["W", "V", "U"]), 4), 3),
        (sset.nerve(poset_chain(["X", "W", "V", "U"]), 5), 4),
        (sset.standard_simplex(2, 4), 3),
        (sset.standard_simplex(3, 5), 4),
        (z3_simplex_hocolim(4), 3),
    ]
    rng = random.Random(5)
    for g in (cyclic_groupoid(2), cyclic_groupoid(3), codiscrete_groupoid(["a", "b"])):
        for _ in range(2):
            diagram = sampling.random_diagram(rng, opposite(g), 4)
            spaces.append((hocopb.hocolim(diagram, 4).total, 3))
    return spaces


def test_clearing_keeps_factors_on_nerve_and_hocolim_chains():
    for s, top in oracle_spaces():
        # cut lower than the homology oracle below, to keep the chains small
        for normalized, t in ((True, min(top, 3)), (False, min(top, 2))):
            reduce_with_clearing(boundary_chain(s, t, normalized))
            reduce_with_clearing(coboundary_chain(s, t, normalized))


def uncleared_homology(s, top, normalized):
    """H_0..H_top from one uncleared reduction of each boundary matrix."""
    mats = {n: sset.boundary_entries(s, n, normalized) for n in range(1, top + 2)}
    size = {0: mats[1][1], **{n: m[2] for n, m in mats.items()}}
    rank, factors = {0: 0}, {0: []}
    for n, m in mats.items():
        rank[n], factors[n] = sparse_invariant_factors(*m)
    return tuple(
        normalize_factors(factors[n + 1], size[n] - rank[n] - rank[n + 1])
        for n in range(top + 1)
    )


def test_homology_matches_uncleared_reduction():
    for s, top in oracle_spaces():
        components = len(set(sset.pi0_sset(s).values()))
        for normalized, t in ((True, top), (False, min(top, 3))):
            h = sset.homology(s, t, normalized)
            assert h.factors == uncleared_homology(s, t, normalized)
            assert h.components == components


def test_homology_hands_the_kernel_cleared_coboundaries(monkeypatch):
    # the workload's largest homology: degrees 0..4 hold 9, 45, 171, 558 and
    # 1656 nondegenerate simplices.  Reduced from the top down, d_4 (558 x
    # 1656, 7254 nonzeros) reaches the kernel with nothing cleared; in
    # coboundary order d_4^T comes last, written without the columns at the
    # pivot rows of d_3^T
    s = z3_simplex_hocolim(4)
    full = {n: transposed(sset.boundary_entries(s, n))[0] for n in range(1, 5)}
    calls, dense = [], []
    sparse, diagonal = snf.sparse_invariant_factors, snf.snf_diagonal

    def record(rows, nrows, ncols, pivot_rows=None, *, rank_only=False):
        nnz = sum(len(row) for row in rows.values())
        out = sparse(rows, nrows, ncols, pivot_rows, rank_only=rank_only)
        calls.append((nrows, ncols, nnz, list(pivot_rows), rows))
        return out

    monkeypatch.setattr(snf, "sparse_invariant_factors", record)
    monkeypatch.setattr(snf, "snf_diagonal", lambda m: dense.append(m) or diagonal(m))
    assert sset.homology(s, 3).factors == ((0,), (), (), ())
    assert [sum(len(row) for row in full[n].values()) for n in full] == [90, 495, 2052, 7254]
    assert [c[:3] for c in calls] == [
        (45, 9, 90), (171, 45, 407), (558, 171, 1608), (1656, 558, 5512)
    ]
    # the builder leaves the cleared columns out (the kernel takes no
    # column filter): each matrix is the full coboundary without the
    # columns at the pivot rows of the one before it, and without the rows
    # that leaves empty
    assert calls[0][4] == full[1]
    for n, (before, after) in enumerate(zip(calls, calls[1:]), start=2):
        assert after[4] == without(full[n], set(before[3]))
    # unit pivots take every rank, so d_4^T skips rank d_3 = 134 columns,
    # and nothing reaches the dense Smith routine
    assert [len(c[3]) for c in calls] == [8, 37, 134, 424]
    assert dense == []


def test_pivot_rows_leave_the_dense_leftover_out():
    # no +-1 entry: the only unit factor comes from the dense routine
    pivots: list[int] = []
    assert sparse_invariant_factors({0: {0: 2, 1: 3}}, 1, 2, pivots) == (1, [1])
    assert pivots == []
    pivots = []
    rows = {0: {0: 1}, 1: {0: 1, 1: 2}, 2: {1: -1}}
    assert sparse_invariant_factors(rows, 3, 2, pivots) == (2, [1, 1])
    assert len(pivots) == 2 and len(set(pivots)) == 2


# ---------------------------------------------------------------------------
# the string kernel against a brute-force enumeration and the face formula


def brute_strings(c, n, normalized):
    """Degree-n strings by filtering every n-tuple of sorted morphisms."""
    if n == 0:
        return [(u,) for u in sorted(c.objects)]
    pool = [m for m in sorted(c.morphisms) if not (normalized and c.is_identity(m))]
    return [
        t for t in itertools.product(pool, repeat=n)
        if all(c.target(t[k]) == c.source(t[k + 1]) for k in range(n - 1))
    ]


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


def nerve_cap_degree(c, d, max_strings, normalized):
    """First degree <= d with more than max_strings strings, or None.

    An independent count that builds no string: the strings ending at each
    object, extended one arrow at a time.
    """
    arrows = [(a, b) for m, (a, b) in c.morphisms.items()
              if not (normalized and c.is_identity(m))]
    ending = dict.fromkeys(c.objects, 1)
    for n in range(d + 1):
        if n:
            longer = dict.fromkeys(c.objects, 0)
            for a, b in arrows:
                longer[b] += ending[a]
            ending = longer
        if sum(ending.values()) > max_strings:
            return n
    return None


def assert_matches_reference(c, top, normalized):
    table = string_table(c, top, normalized)
    assert len(table.tokens) == top + 1
    for n in range(top + 1):
        strings = brute_strings(c, n, normalized)
        assert table.tokens[n] == strings
        if n == 0:
            continue
        below = {t: k for k, t in enumerate(table.tokens[n - 1])}
        assert table.faces[n] == [
            tuple(below.get(s) for s in reference_faces(c, t)) for t in strings
        ]
        if not normalized:
            assert all(None not in f for f in table.faces[n])
        if n >= 2:
            # the simplicial identities d_i d_j = d_{j-1} d_i for i < j, on
            # which d.d = 0 of every cochain complex rests; a degenerate
            # (None) face has no faces in a normalized table
            down = table.faces[n - 1]
            for f in table.faces[n]:
                for i, j in itertools.combinations(range(n + 1), 2):
                    if f[i] is not None and f[j] is not None:
                        assert down[f[j]][i] == down[f[i]][j - 1]


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
        assert_matches_reference(c, 4, normalized)


def test_string_table_cap_names_the_degree():
    z3 = cyclic_groupoid(3)
    # nondegenerate strings of Z/3: 1, 2, 4, 8, ...
    string_table(z3, 3, True, 8)
    with pytest.raises(CapExceeded, match=r"^more than 7 strings in degree 3$"):
        string_table(z3, 3, True, 7)
    with pytest.raises(CapExceeded, match=r"^more than 0 strings in degree 0$"):
        string_table(z3, 3, True, 0)


def out_of_source_order():
    """Arrow names sort apart from their sources: a leaves Y, b and c leave X."""
    return build_category(
        ["X", "Y", "Z"], {"b": ("X", "Y"), "a": ("Y", "Z"), "c": ("X", "Z")},
        {("a", "b"): "c"},
    )


def sampled_category(seed):
    rng = random.Random(seed)
    kind = rng.randrange(3)
    if kind == 0:
        return sampling.random_poset_site(rng)
    if kind == 1:
        return sampling.random_groupoid(rng)
    pc = sampling.random_presheaf_of_categories(rng, sampling.random_poset_site(rng, 2))
    return fibred.grothendieck_construct(pc).total


# ---------------------------------------------------------------------------
# every complex that cochain_complex builds composes to zero


BUNDLES = Path(__file__).resolve().parents[1] / "bundles"
COEFFICIENTS = (cohom.ZZ, cohom.zmod(2), cohom.zmod(4), cohom.FgAbelianGroup(factors=(2, 0)))


def cochain_inputs():
    """(category, coefficients) pairs: every coefficient group, constant on
    sampled categories and on the codomain totals of sampled sectionwise
    equivalences and pulled back to their domain totals along the induced
    functor; and the sign-twisted Z/4 + Z of pt_z2_twisted.bundle."""
    cats = [sampled_category(seed) for seed in range(6)]
    rng = random.Random(7)
    equivalences = []
    while len(equivalences) < 2:
        m, gh = sampling.random_sectionwise_equivalence(rng)
        if len(fibred.grothendieck_construct(gh).total.morphisms) <= 12:
            equivalences.append(fibred.total_functor(m))
    out = []
    for coeff in COEFFICIENTS:
        out += [(c, cohom.constant_abelian_presheaf(c, coeff)) for c in cats]
        for t in equivalences:
            f = cohom.constant_abelian_presheaf(t.codomain, coeff)
            out += [(t.codomain, f), (t.domain, cohom.restrict_abelian_along(t, f))]
    twisted = parse_bundle([str(BUNDLES / "pt_z2_twisted.bundle")]).abelian_presheaves["FT"]
    return out + [(twisted.base, twisted)]


@pytest.mark.parametrize("normalized", [True, False])
def test_built_complexes_compose_to_zero(normalized):
    # cochain_complex multiplies nothing out: d.d = 0 follows from the face
    # table, strict restriction matrices and exact relation lifts; this is
    # the product that argument replaces
    for c, f in cochain_inputs():
        cc = cohom.cochain_complex(c, f, 2, normalized=normalized)
        cohom._check_dd_zero(cc.differentials)


def textbook_strings(c, n, normalized):
    """Degree-n strings: (object,) for n = 0, else every composable n-tuple
    of arrows, identities left out when normalized."""
    if n == 0:
        return [(u,) for u in c.objects]
    arrows = [m for m in c.morphisms if not (normalized and c.is_identity(m))]
    return [
        t
        for t in itertools.product(arrows, repeat=n)
        if all(c.target(a) == c.source(b) for a, b in zip(t, t[1:]))
    ]


def textbook_face(c, t, i):
    """Face i of a string of arrows t: drop the first or last arrow, or
    compose arrows i-1 and i; a one-arrow string's faces are its ends."""
    if len(t) == 1:
        return (c.target(t[0]),) if i == 0 else (c.source(t[0]),)
    if i == 0:
        return t[1:]
    if i == len(t):
        return t[:-1]
    return t[: i - 1] + (c.compose(t[i], t[i - 1]),) + t[i + 1 :]


def textbook_differential(c, f, n, normalized):
    """D^n entry by entry: (D phi)(t) = F(t_0) phi(d_0 t) + sum_{i>0} (-1)^i
    phi(d_i t), a face through an identity vanishing when normalized; rows
    and columns follow the string ids of ``string_table``."""
    tokens = string_table(c, n + 1, normalized).tokens

    def offsets(k):
        assert sorted(tokens[k]) == sorted(textbook_strings(c, k, normalized))
        out, pos = {}, 0
        for t in tokens[k]:
            out[t] = pos
            pos += f.group[t[0] if k == 0 else c.source(t[0])].generator_count
        return out

    cols, rows = offsets(n), offsets(n + 1)
    entries = {}
    for t in textbook_strings(c, n + 1, normalized):
        k0 = f.group[c.source(t[0])].generator_count
        for i in range(n + 2):
            s = textbook_face(c, t, i)
            if normalized and n > 0 and any(c.is_identity(m) for m in s):
                continue
            mat = f.restriction[t[0]] if i == 0 else [[int(a == b) for b in range(k0)] for a in range(k0)]
            for a, row in enumerate(mat):
                for b, v in enumerate(row):
                    key = (rows[t] + a, cols[s] + b)
                    entries[key] = entries.get(key, 0) + (-1) ** i * v
    return {k: v for k, v in entries.items() if v}


@pytest.mark.parametrize("normalized", [True, False])
def test_built_differentials_match_the_textbook_formula(normalized):
    # squaring to zero cannot tell a face 0 that skips the twist F(t_0),
    # since the untwisted complex squares to zero too; entry by entry can.
    # With torsion, D^n is the block of the cone's differential out of
    # C^n into C^{n+1}, its first rows and columns
    n_max = 2
    for c, f in cochain_inputs():
        cc = cohom.cochain_complex(c, f, n_max, normalized=normalized)
        gens = [
            sum(f.group[t[0] if k == 0 else c.source(t[0])].generator_count for t in level)
            for k, level in enumerate(string_table(c, n_max + 1, normalized).tokens)
        ]
        for n in range(n_max + 1):
            want = textbook_differential(c, f, n, normalized)
            rows = cc.differentials[n + cc.offset]
            built = {
                (r, col): v
                for r, row in rows.items()
                for col, v in row.items()
                if r < gens[n + 1] and col < gens[n]
            }
            assert built == want
            # no zero entry and no empty row
            assert all(row and 0 not in row.values() for row in rows.values())


object_names = st.lists(st.sampled_from("UVWXY"), min_size=1, max_size=3, unique=True)
kernel_categories = st.one_of(
    object_names.map(poset_chain),
    st.integers(1, 4).map(cyclic_groupoid),
    object_names.map(codiscrete_groupoid),
    st.builds(group_block_groupoid, object_names, st.integers(1, 3)),
    st.integers(0, 2**16).map(sampled_category),
    st.just(out_of_source_order()),
)


@settings(max_examples=60, deadline=None)
@given(kernel_categories, st.integers(0, 4), st.booleans(), st.integers(0, 400))
def test_string_kernel_matches_brute_force(c, top, normalized, cap):
    # keep the brute-force product small
    while top > 1 and len(c.morphisms) ** top > 20_000:
        top -= 1
    assert_matches_reference(c, top, normalized)
    if top >= 1:
        assert validate_simplicial(sset.nerve(c, top)) == []
    degree = nerve_cap_degree(c, top, cap, normalized)
    if degree is None:
        string_table(c, top, normalized, cap)
    else:
        with pytest.raises(CapExceeded, match=rf"^more than {cap} strings in degree {degree}$"):
            string_table(c, top, normalized, cap)


# ---------------------------------------------------------------------------
# the streamed reduction against an uncleared one of the fully built matrices


def streamed(run):
    """run(), with every kernel call recorded as (rows, shape, pivot_rows,
    rank_only)."""
    calls = []
    kernel = snf.sparse_invariant_factors

    def record(rows, nrows, ncols, pivot_rows=None, *, rank_only=False):
        out = kernel(rows, nrows, ncols, pivot_rows, rank_only=rank_only)
        calls.append((rows, (nrows, ncols), pivot_rows, rank_only))
        return out

    with mock.patch.object(snf, "sparse_invariant_factors", record):
        result = run()
    return result, calls


def assert_streamed_as_full_without_pivot_columns(calls, full):
    """full: (rows, nrows, ncols) of every matrix, built with nothing
    cleared, in reduction order.  Each streamed matrix must be its full
    matrix without the columns at the unit-pivot rows of the one before it
    (and without the rows that leaves empty); the kernel takes no column
    filter of its own."""
    assert len(calls) == len(full)
    cleared: set[int] = set()
    for (rows, shape, pivots, rank_only), (want, nrows, ncols) in zip(calls, full):
        assert shape == (nrows, ncols)
        assert rows == without(want, cleared)
        assert all(row and 0 not in row.values() for row in rows.values())
        cleared = set(pivots) if not rank_only else set()


def uncleared_cohomology(cc):
    """H^0..H^degrees from one full, uncleared reduction of each fully
    built differential."""
    rank, factors = [0], [[]]
    for n, rows in enumerate(cc.differentials):
        nrows = cc.ranks[n + 1] if n + 1 < len(cc.ranks) else 0
        r, fs = sparse_invariant_factors(rows, nrows, cc.ranks[n])
        rank.append(r)
        factors.append(fs)
    return [
        cohom.FgAbelianGroup(
            factors=normalize_factors(factors[i], cc.ranks[i] - rank[i] - rank[i + 1])
        )
        for i in range(cc.offset, cc.offset + cc.degrees + 1)
    ]


def assert_streamed_cohomology(c, f, n_max, normalized):
    cc = cohom.cochain_complex(c, f, n_max, normalized=normalized)
    got, calls = streamed(lambda: cohom._cohomology(cc))
    full = [
        (rows, cc.ranks[n + 1] if n + 1 < len(cc.ranks) else 0, cc.ranks[n])
        for n, rows in enumerate(cc.differentials)
    ]
    assert_streamed_as_full_without_pivot_columns(calls, full)
    want = uncleared_cohomology(cc)
    assert got == want
    # a caller's complex, given as rows, is handed over the same way
    given_rows = dataclasses.replace(cc, differentials=tuple(cc.differentials))
    got, calls = streamed(lambda: cohom.cohomology_of_complex(given_rows))
    assert_streamed_as_full_without_pivot_columns(calls, full)
    assert got == want


def assert_streamed_homology(s, top, normalized):
    got, calls = streamed(lambda: sset.homology(s, top, normalized))
    full = [transposed(sset.boundary_entries(s, n, normalized)) for n in range(1, top + 2)]
    assert_streamed_as_full_without_pivot_columns(calls, full)
    assert got.factors == uncleared_homology(s, top, normalized)


@pytest.mark.parametrize("normalized", [True, False])
def test_streamed_cohomology_matches_uncleared_reduction_on_cochain_inputs(normalized):
    # constants, pullbacks along induced functors and the sign twist; the
    # unnormalized complexes are cut lower, to keep the full reductions small
    for c, f in cochain_inputs():
        assert_streamed_cohomology(c, f, 2 if normalized else 1, normalized)


STREAMED_COEFFICIENTS = COEFFICIENTS + (cohom.zmod(3), cohom.FgAbelianGroup(factors=(2, 4, 0)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**16), st.sampled_from(STREAMED_COEFFICIENTS), st.integers(1, 3), st.booleans())
def test_streamed_cohomology_matches_uncleared_reduction(seed, coeff, n_max, normalized):
    c = sampled_category(seed)
    while n_max > 1 and len(c.morphisms) ** (n_max + 1) > 5_000:
        n_max -= 1
    assert_streamed_cohomology(c, cohom.constant_abelian_presheaf(c, coeff), n_max, normalized)


def sampled_space(seed):
    """(space, top): the nerve of a sampled category or groupoid, or the
    hocolim of a sampled diagram over a sampled groupoid."""
    rng = random.Random(seed)
    kind = rng.randrange(3)
    if kind == 0:
        return sset.nerve(sampled_category(seed), 4), 3
    g = sampling.random_groupoid(rng)
    if kind == 1:
        return sset.nerve(g, 4), 3
    return hocopb.hocolim(sampling.random_diagram(rng, opposite(g), 3), 3).total, 2


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**16), st.booleans())
def test_streamed_homology_matches_uncleared_reduction(seed, normalized):
    s, top = sampled_space(seed)
    assert_streamed_homology(s, top if normalized else min(top, 2), normalized)
