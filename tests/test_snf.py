import copy
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import hermite_normal_form
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from fibsite import cohom, snf
from fibsite.cohom import (
    FgAbelianGroup,
    ZZ,
    cochain_complex,
    constant_abelian_presheaf,
    zmod,
)
from fibsite.fincat import codiscrete_groupoid, cyclic_groupoid, poset_chain
from fibsite.snf import (
    identity_matrix,
    kernel_basis,
    lattice_basis,
    matmul,
    matrix,
    normalize_factors,
    quotient_invariants,
    smith_normal_form,
    snf_diagonal,
    solve_in_lattice,
    sparse_invariant_factors,
)
from helpers import determinant

matrices = st.integers(1, 6).flatmap(
    lambda nr: st.integers(1, 6).flatmap(
        lambda nc: st.lists(
            st.lists(st.integers(-10, 10), min_size=nc, max_size=nc),
            min_size=nr,
            max_size=nr,
        )
    )
)


def _zero_lines(case):
    m, rows, cols = case
    return [[0 if i in rows or j in cols else x for j, x in enumerate(r)] for i, r in enumerate(m)]


# Tall, wide and square shapes with mostly zero entries and some all-zero
# rows and columns: the augmented Smith layout depends on nr != nc.
dense_shaped = st.one_of(
    st.tuples(st.integers(4, 30), st.integers(1, 3)),
    st.tuples(st.integers(1, 3), st.integers(4, 30)),
    st.tuples(st.integers(1, 8), st.integers(1, 8)),
).flatmap(
    lambda shape: st.tuples(
        st.lists(
            st.lists(st.just(0) | st.just(0) | st.integers(-9, 9), min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        ),
        st.sets(st.integers(0, shape[0] - 1), max_size=3),
        st.sets(st.integers(0, shape[1] - 1), max_size=3),
    ).map(_zero_lines)
)


def check_form(m):
    sf = smith_normal_form(m)
    assert matmul(matmul(sf.u, matrix(m)), sf.v) == sf.d
    assert determinant(sf.u) in (1, -1)
    assert determinant(sf.v) in (1, -1)
    diag = sf.diagonal
    for i in range(len(diag) - 1):
        if diag[i + 1] != 0:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        # zeros must come after all nonzero entries
        if diag[i] == 0:
            assert diag[i + 1] == 0
    # off-diagonal entries vanish
    for i, row in enumerate(sf.d):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    return sf


def test_identity_and_zero():
    sf = check_form(identity_matrix(3))
    assert sf.diagonal == (1, 1, 1)
    sf = check_form([[0, 0], [0, 0]])
    assert sf.diagonal == (0, 0)


def test_known_small_cases():
    assert check_form([[2, 0], [0, 3]]).diagonal == (1, 6)
    assert check_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]).diagonal == (2, 2, 156)
    assert snf_diagonal([[2, 0], [0, 3]]) == [1, 6]


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_smith_form_properties(m):
    check_form(m)


@settings(max_examples=150, deadline=None)
@given(dense_shaped)
def test_dense_matches_sympy_on_tall_wide_and_zero_heavy(m):
    check_form(m)
    oracle = sympy_snf(sympy.Matrix(m), domain=sympy.ZZ)
    expected = [abs(int(oracle[i, i])) for i in range(min(oracle.shape))]
    assert snf_diagonal(m) == [d for d in expected if d != 0]


@settings(max_examples=150, deadline=None)
@given(dense_shaped)
def test_lattice_basis_matches_sympy_hnf(g):
    g = matrix(g)
    basis = lattice_basis(g)
    assert hermite_normal_form(sympy.Matrix(basis)) == hermite_normal_form(sympy.Matrix(g))
    rank = sympy.Matrix(g).rank()
    assert all(len(row) == rank for row in basis)
    coords = solve_in_lattice(basis, g)
    if rank:
        assert matmul(basis, coords) == g
    else:
        assert coords == () and not any(any(row) for row in g)


@settings(max_examples=60, deadline=None)
@given(dense_shaped, st.data())
def test_quotient_invariants_match_sympy(g, data):
    g = matrix(g)
    rank = sympy.Matrix(g).rank()
    assert quotient_invariants(g, tuple(tuple(2 * x for x in row) for row in g)) == (2,) * rank
    k = data.draw(st.integers(1, 4).flatmap(lambda kc: st.lists(
        st.lists(st.integers(-3, 3), min_size=kc, max_size=kc),
        min_size=len(g[0]), max_size=len(g[0]),
    )))
    den = matmul(g, matrix(k))
    got = quotient_invariants(g, den)
    if rank == 0:
        assert got == ()
        return
    # exact rational coordinates of den in the HNF basis h of lattice(g)
    h = hermite_normal_form(sympy.Matrix(g))
    coords = (h.T * h).inv() * h.T * sympy.Matrix(den)
    assert h * coords == sympy.Matrix(den) and all(x.is_integer for x in coords)
    oracle = sympy_snf(coords, domain=sympy.ZZ)
    diag = [abs(int(oracle[i, i])) for i in range(min(oracle.shape))]
    nonzero = [d for d in diag if d]
    assert got == normalize_factors(nonzero, h.shape[1] - len(nonzero))


def test_quotient_by_a_non_sublattice_raises():
    for num, den in (
        (((0,), (0,)), ((1,), (0,))),  # rank 0: only 0 lies in the lattice
        (((2,), (0,)), ((1,), (0,))),
        (((1,), (0,)), ((0,), (1,))),
    ):
        with pytest.raises(ValueError):
            quotient_invariants(num, den)


def as_rows(entries):
    """{(i, j): v} as the kernel's sparse rows {i: {j: v}}."""
    rows = {}
    for (i, j), v in entries.items():
        rows.setdefault(i, {})[j] = v
    return rows


def as_dense(rows, nrows, ncols):
    return [[rows.get(i, {}).get(j, 0) for j in range(ncols)] for i in range(nrows)]


@settings(max_examples=100, deadline=None)
@given(matrices)
def test_sparse_matches_dense(m):
    rows = {i: {j: v for j, v in enumerate(row) if v} for i, row in enumerate(m)}
    rank, factors = sparse_invariant_factors(rows, len(m), len(m[0]))
    dense = snf_diagonal(m)
    assert rank == len(dense)
    assert factors == dense


def assert_sparse_matches_dense(rows, nrows, ncols):
    dense = snf_diagonal(as_dense(rows, nrows, ncols))
    assert sparse_invariant_factors(rows, nrows, ncols) == (len(dense), dense)


# Boundary-shaped: sparse, mostly +-1 (long unit-pivot cascades), with empty
# rows and columns and a few entries in {+-2, +-3} so a dense leftover remains.
boundary_shaped = st.integers(1, 40).flatmap(
    lambda nr: st.integers(1, 40).flatmap(
        lambda nc: st.tuples(
            st.dictionaries(
                st.tuples(st.integers(0, nr - 1), st.integers(0, nc - 1)),
                st.sampled_from((1, -1) * 4 + (2, -2, 3, -3)),
                max_size=3 * max(nr, nc),
            ),
            st.just(nr),
            st.just(nc),
        )
    )
)


@settings(max_examples=150, deadline=None)
@given(boundary_shaped)
def test_sparse_matches_dense_on_boundary_shaped(case):
    entries, nrows, ncols = case
    assert_sparse_matches_dense(as_rows(entries), nrows, ncols)


def test_sparse_matches_dense_on_cochain_differentials():
    z4, z3 = cyclic_groupoid(4), cyclic_groupoid(3)
    e3 = codiscrete_groupoid(["a", "b", "c"])
    chain = poset_chain(["W", "V", "U"])
    complexes = [
        cochain_complex(z4, constant_abelian_presheaf(z4, ZZ), 4),
        cochain_complex(z3, constant_abelian_presheaf(z3, zmod(2)), 4),
        cochain_complex(e3, constant_abelian_presheaf(e3, FgAbelianGroup(factors=(2, 0))), 3),
        cochain_complex(chain, constant_abelian_presheaf(chain, ZZ), 3, normalized=False),
    ]
    for cc in complexes:
        for n, rows in enumerate(cc.differentials):
            nrows = cc.ranks[n + 1] if n + 1 < len(cc.ranks) else 0
            assert_sparse_matches_dense(rows, nrows, cc.ranks[n])


# A random sparse block, then singleton columns and rows planted beside it,
# with unit and non-unit entries: the coreduction pivots on the unit ones in
# both modes and peels the non-unit ones only in rank-only mode.
@st.composite
def planted_singletons(draw):
    nr, nc = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    values = st.sampled_from((1, -1, 1, -1, 2, -2, 3, -3))
    entries = draw(
        st.dictionaries(
            st.tuples(st.integers(0, nr - 1), st.integers(0, nc - 1)),
            values,
            max_size=2 * max(nr, nc),
        )
    )
    singles = st.sampled_from((1, -1, 2, -3))
    ncols = nc + draw(st.integers(0, 4))
    for j in range(nc, ncols):
        entries[(draw(st.integers(0, nr - 1)), j)] = draw(singles)
    nrows = nr + draw(st.integers(0, 4))
    for i in range(nr, nrows):
        entries[(i, draw(st.integers(0, ncols - 1)))] = draw(singles)
    return entries, nrows, ncols


@settings(max_examples=150, deadline=None)
@given(planted_singletons())
def test_coreduction_keeps_factors_rank_and_pivot_rows(case):
    entries, nrows, ncols = case
    rows = as_rows(entries)
    m = as_dense(rows, nrows, ncols)
    dense = snf_diagonal(m)
    pivots: list[int] = []
    assert sparse_invariant_factors(rows, nrows, ncols, pivots) == (len(dense), dense)
    assert sparse_invariant_factors(rows, nrows, ncols, rank_only=True) == (len(dense), [])
    # distinct rows, each with a +-1 at its pivot: then the pivot rows alone
    # span a saturated lattice of full rank
    assert len(set(pivots)) == len(pivots)
    assert snf_diagonal([m[i] for i in pivots]) == [1] * len(pivots)


# A boundary-shaped matrix with explicit zero entries mixed in and a random
# set of cleared columns.
@st.composite
def zeros_and_cleared(draw):
    entries, nrows, ncols = draw(boundary_shaped)
    for key in draw(
        st.lists(st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1)), max_size=nrows + ncols)
    ):
        entries[key] = 0
    cleared = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols))
    return entries, nrows, ncols, cleared


@settings(max_examples=150, deadline=None)
@given(zeros_and_cleared())
def test_kernel_load_skips_zeros_and_cleared_columns_and_never_changes_entries(case):
    entries, nrows, ncols, cleared = case
    rows = as_rows(entries)
    before = copy.deepcopy(rows)
    kept = {i: {j: v for j, v in row.items() if v and j not in cleared} for i, row in rows.items()}
    kept = {i: row for i, row in kept.items() if row}
    dense = snf_diagonal(as_dense(kept, nrows, ncols))
    pivots: list[int] = []
    kept_pivots: list[int] = []
    stored = snf._stored(rows)(cleared)
    assert sparse_invariant_factors(stored, nrows, ncols, pivots) == (
        len(dense),
        dense,
    )
    assert sparse_invariant_factors(kept, nrows, ncols, kept_pivots) == (len(dense), dense)
    # the load drops zeros and cleared entries before building anything, so
    # the reduction of the rest runs exactly as on the matrix without them
    assert pivots == kept_pivots
    assert sparse_invariant_factors(stored, nrows, ncols, rank_only=True) == (
        len(dense),
        [],
    )
    assert rows == before


@settings(max_examples=100, deadline=None)
@given(zeros_and_cleared())
def test_kernel_never_changes_its_input(case):
    # the kernel copies each row as it loads it: two calls on the same rows,
    # in every mode, give the same answer and leave the rows as they were
    entries, nrows, ncols, cleared = case
    rows = as_rows(entries)
    before = copy.deepcopy(rows)
    for skip in ((), cleared):
        for rank_only in (False, True):
            answers = []
            for _ in range(2):
                pivots = None if rank_only else []
                got = sparse_invariant_factors(
                    snf._stored(rows)(skip), nrows, ncols, pivots, rank_only=rank_only
                )
                answers.append((got, pivots))
                assert rows == before
            assert answers[0] == answers[1]


def test_rank_only_peels_non_unit_singletons_and_reports_no_pivots():
    rows = {0: {0: 4}, 1: {1: -6, 2: 2}, 2: {2: 3}}
    assert sparse_invariant_factors(rows, 3, 3) == (3, [1, 2, 36])
    assert sparse_invariant_factors(rows, 3, 3, rank_only=True) == (3, [])
    with pytest.raises(ValueError, match="rank-only"):
        sparse_invariant_factors(rows, 3, 3, [], rank_only=True)


def test_cut_cone_sends_no_dense_leftover_from_its_last_differential(monkeypatch):
    # Z/4 + Z on the codiscrete groupoid: the relation columns of the last
    # differential carry the factor 4, and a full reduction of that matrix
    # leaves a dense block of 182 x 182 (normalized: 32 x 32) for the Smith
    # routine; the rank-only reduction that _cohomology runs peels them all
    e3 = codiscrete_groupoid(["a", "b", "c"])
    f = constant_abelian_presheaf(e3, FgAbelianGroup(factors=(4, 0)))
    sparse = snf.sparse_invariant_factors
    last: list[tuple] = []

    def record(rows, nrows, ncols, pivot_rows=None, *, rank_only=False):
        if rank_only:
            last.append((rows, nrows, ncols))
        return sparse(rows, nrows, ncols, pivot_rows, rank_only=rank_only)

    monkeypatch.setattr(snf, "sparse_invariant_factors", record)
    for normalized, full_leftover in ((True, 32), (False, 182)):
        last.clear()
        h = cohom._cohomology(cochain_complex(e3, f, 3, normalized))
        assert [x.factors for x in h] == [(4, 0), (), (), ()]
        (top,) = last
        # the same matrix in both modes, counting the rows that reach the
        # dense routine without reducing them
        leftover: list[int] = []
        with monkeypatch.context() as mp:
            mp.setattr(snf, "snf_diagonal", lambda m: leftover.append(len(m)) or [])
            sparse(*top, rank_only=True)
            sparse(*top)
        assert leftover == [full_leftover]


def test_kernel_basis():
    m = [[1, 2, 3], [2, 4, 6]]
    cols = kernel_basis(m)
    assert len(cols) == 2
    for col in cols:
        assert all(sum(r[i] * col[i] for i in range(3)) == 0 for r in m)


def test_lattice_ops():
    gens = matrix([[2, 4], [0, 2]])
    basis = lattice_basis(gens)
    # solve for the generators themselves
    coords = solve_in_lattice(basis, gens)
    assert matmul(basis, coords) == gens
    # Z^2 / <2e1, 2e2> = (Z/2)^2
    full = matrix([[1, 0], [0, 1]])
    sub = matrix([[2, 0], [0, 2]])
    assert quotient_invariants(full, sub) == (2, 2)
    # Z^2 / <e1> = Z
    assert quotient_invariants(full, matrix([[1], [0]])) == (0,)


def test_normalize_factors():
    assert normalize_factors([1, 2, 6], 2) == (2, 6, 0, 0)
    assert normalize_factors([], 0) == ()


def test_random_seeded_batch():
    rng = random.Random(7)
    for _ in range(50):
        nr = rng.randint(1, 8)
        nc = rng.randint(1, 8)
        m = [[rng.randint(-10, 10) for _ in range(nc)] for _ in range(nr)]
        check_form(m)
