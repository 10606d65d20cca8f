"""Exact integer matrix arithmetic: Smith normal form and lattice computations.

Everything here works over arbitrary-precision Python integers; no floats
anywhere.  Dense matrices are immutable row-major tuples of tuples.  The
sparse routine exists because boundary/differential matrices of simplicial
objects are large but mostly eliminate with unit pivots: a coreduction
first takes every +-1 entry that is alone in its row or column, with no
arithmetic, then sweeps the columns shortest first, pivots on the shortest
row with a +-1 entry, and hands the small leftover to the dense Smith-form
diagonal.  Its one input format is sparse rows, ``{row: {col: value}}``,
which it copies row by row and never changes.  It can report its unit pivot
rows, so ``_reduce_with_clearing`` reduces a chain of differentials in
order and streams each into it: a differential is written by its builder
only after the reduction before it has named its unit-pivot rows, and the
builder leaves the columns at those rows out (clearing), so no matrix ever
holds a cleared column.  The kernel itself filters no column: a builder
does, and ``_stored`` is the builder for rows written already.  It also has
a rank-only mode, for a differential whose factors nobody reads, in which
the coreduction also takes non-unit entries.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Sequence

Matrix = tuple[tuple[int, ...], ...]
# a sparse matrix as {row: {column: value}}; a missing row or entry is zero
Rows = dict[int, dict[int, int]]
# writes a matrix's rows, leaving out the columns it is given
Builder = Callable[[Collection[int]], Rows]


def matrix(rows: Iterable[Iterable[int]]) -> Matrix:
    out = tuple(tuple(int(x) for x in row) for row in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    bt = list(zip(*b)) if b else []
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


@dataclass(frozen=True)
class SmithForm:
    """Decomposition u @ m @ v == d with u, v unimodular and d diagonal.

    The diagonal entries are non-negative and form a divisibility chain.
    """

    d: Matrix
    u: Matrix
    v: Matrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.d[i][i] for i in range(min(len(self.d), len(self.d[0]) if self.d else 0)))

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal if x != 0)


def _smith(a: list[list[int]], nr: int, nc: int) -> list[int]:
    """Smith-reduce the leading nr x nc block of ``a`` in place.

    Returns the block's nonzero diagonal, which ends up positive.  Pivot
    search, clearing and the divisibility check look only inside the block,
    but every row operation acts on the whole row and every column operation
    on the whole column, so identity blocks bordering the block record the
    transforms.  The pivot is always a least-absolute-value nonzero entry,
    which keeps intermediate growth tame.
    """
    width = len(a[0]) if a else 0
    diag: list[int] = []
    t = 0
    while True:
        # locate a least-absolute-value nonzero pivot in the trailing block
        pivot = None
        best = None
        for i in range(t, nr):
            ai = a[i]
            for j in range(t, nc):
                x = ai[j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        i0, j0 = pivot
        if i0 != t:
            a[t], a[i0] = a[i0], a[t]
        if j0 != t:
            for r in a:
                r[t], r[j0] = r[j0], r[t]
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    if q:
                        at = a[t]
                        ai = a[i]
                        for j in range(t, width):
                            ai[j] -= q * at[j]
                    if a[i][t] != 0:
                        # remainder strictly smaller: promote it
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, nc):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    if q:
                        for r in a:
                            r[j] -= q * r[t]
                    if a[t][j] != 0:
                        for r in a:
                            r[t], r[j] = r[j], r[t]
                        dirty = True
            if dirty:
                continue
            # row and column are clear; enforce divisibility of the rest
            d = a[t][t]
            bad = None
            for i in range(t + 1, nr):
                ai = a[i]
                for j in range(t + 1, nc):
                    if ai[j] % d != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            at = a[t]
            ab = a[bad]
            for j in range(t, width):
                at[j] += ab[j]
        if a[t][t] < 0:
            at = a[t]
            for j in range(t, width):
                at[j] = -at[j]
        diag.append(a[t][t])
        t += 1
    return diag


def smith_normal_form(m: Sequence[Sequence[int]]) -> SmithForm:
    """Full Smith normal form with transform tracking.

    Reduces the augmented matrix [[m, I], [I, 0]]: the row operations on m
    build u in the top-right block and the column operations build v in the
    bottom-left one (Cohen, GTM 138, section 2.4).
    """
    nr = len(m)
    nc = len(m[0]) if m else 0
    a = [list(map(int, row)) + list(e) for row, e in zip(m, identity_matrix(nr))]
    a += [list(e) + [0] * nr for e in identity_matrix(nc)]
    _smith(a, nr, nc)
    return SmithForm(
        d=matrix(row[:nc] for row in a[:nr]),
        u=matrix(row[nc:] for row in a[:nr]),
        v=matrix(row[:nc] for row in a[nr:]),
    )


def snf_diagonal(m: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero diagonal of the Smith form, without transform tracking."""
    a = [list(map(int, row)) for row in m]
    return _smith(a, len(a), len(a[0]) if a else 0)


def sparse_invariant_factors(
    rows: Rows,
    nrows: int,
    ncols: int,
    pivot_rows: list[int] | None = None,
    *,
    rank_only: bool = False,
) -> tuple[int, list[int]]:
    """(rank, invariant factors) of a sparse integer matrix given as rows.

    ``rows`` maps a row index to that row's ``{column: value}``; a missing
    row or column is zero.  The matrix is nrows x ncols.

    Strategy: greedy +-1 elimination in two phases.  The first is a
    coreduction (algebraic Morse matching; Mrozek & Batko 2009, Skoeldberg
    2006) driven by a work stack seeded with every row and column of length
    one: when the single entry of such a line is +-1 it is a pivot whose
    row and column are dropped with no arithmetic, and each neighbour whose
    length falls to one is pushed.  A singleton column needs no row
    operation to clear, and a singleton row's row operations touch only its
    own column, so the factors are those of the rest.  The second phase
    sweeps the live columns shortest first and, within a column, pivots on
    the shortest row whose entry there is +-1, eliminating the rest of the
    column.  Every unit pivot contributes an invariant factor 1 and removes
    its row and column.  Sweeps repeat until one finds no unit pivot, and
    whatever is left goes to the dense routine.  Invariant factors do not
    depend on the pivot order; for simplicial boundary matrices the dense
    leftover is tiny.

    With ``rank_only`` only the rank is computed and the factors list comes
    back empty.  A singleton line is then peeled whatever its nonzero entry
    (over the rationals it splits off a rank-one block), so a column like
    the relation column of a torsion generator never reaches the dense
    leftover; ``pivot_rows`` cannot be asked for in this mode.

    When ``pivot_rows`` is given, the row of every +-1 pivot is appended to
    it, once each and in pivot order; there are as many as the unit pivots,
    which is at most the number of unit factors (the dense leftover may add
    more).  The only row operations are "row i -= c * pivot row"; with E
    their product, ``d2 @ E^-1`` differs from ``d2`` only in the columns at
    pivot rows, and for any ``d2`` with ``d2 @ m == 0`` (``m`` this matrix)
    those columns vanish, because ``E @ m`` has a signed unit column at each
    pivot row (in both phases the pivot column ends as +-e_p).  So such a
    ``d2`` keeps its rank and factors when the columns at these rows are
    left out ("clearing", Chen & Kerber 2011).

    The kernel works on a copy of each row, with its zeros left out, so
    ``rows`` itself is never changed.  It reduces every column it is given:
    a caller that clears columns leaves them out of ``rows`` (``_stored``
    does that for rows written already).
    """
    if rank_only and pivot_rows is not None:
        raise ValueError("a rank-only reduction reports no pivot rows")
    live: dict[int, dict[int, int]] = {}
    for i, row in rows.items():
        if 0 in row.values():
            row = {j: v for j, v in row.items() if v}
        else:
            row = row.copy()
        if row:
            live[i] = row
    rows = live
    cols: defaultdict[int, set[int]] = defaultdict(set)
    for i, row in rows.items():
        for j in row:
            cols[j].add(i)
    # from here on a missing column is a bug, not an empty one
    cols.default_factory = None

    # every pivot adds one to the rank; outside rank-only mode each is +-1
    # and so an invariant factor 1
    pivot_count = 0
    # coreduction: (is_column, index) of lines that had length one when pushed
    stack = [(False, i) for i, row in rows.items() if len(row) == 1]
    stack += [(True, j) for j, col in cols.items() if len(col) == 1]
    while stack:
        is_col, k = stack.pop()
        if is_col:
            col = cols.get(k)
            if col is None or len(col) != 1:
                continue
            p, q = next(iter(col)), k
        else:
            row = rows.get(k)
            if row is None or len(row) != 1:
                continue
            p, q = k, next(iter(row))
        if not rank_only and rows[p][q] not in (1, -1):
            continue
        pivot_count += 1
        if pivot_rows is not None:
            pivot_rows.append(p)
        for j in rows.pop(p):
            if j != q:
                col = cols[j]
                col.discard(p)
                if len(col) == 1:
                    stack.append((True, j))
                elif not col:
                    del cols[j]
        for i in cols.pop(q):
            if i != p:
                row = rows[i]
                del row[q]
                if len(row) == 1:
                    stack.append((False, i))
                elif not row:
                    del rows[i]

    found = True
    while found:
        found = False
        for q in sorted(cols, key=lambda j: len(cols[j])):
            if q not in cols:
                continue
            # the first unit row of least length
            p, plen = None, 0
            for i in cols[q]:
                row = rows[i]
                if (p is None or len(row) < plen) and row[q] in (1, -1):
                    p, plen = i, len(row)
            if p is None:
                continue
            if pivot_rows is not None:
                pivot_rows.append(p)
            prow = rows.pop(p)
            pval = prow.pop(q)
            for i in cols.pop(q):
                if i == p:
                    continue
                irow = rows[i]
                mult = irow.pop(q) * pval  # pval in {1,-1}
                for j, val in prow.items():
                    cur = irow.get(j, 0) - mult * val
                    if cur:
                        if j not in irow:
                            cols[j].add(i)
                        irow[j] = cur
                    else:
                        del irow[j]
                        cols[j].discard(i)
                if not irow:
                    del rows[i]
            for j in prow:
                cols[j].discard(p)
                if not cols[j]:
                    del cols[j]
            pivot_count += 1
            found = True

    if rows:
        live_rows = sorted(rows)
        live_cols = sorted({j for row in rows.values() for j in row})
        cindex = {j: k for k, j in enumerate(live_cols)}
        dense = [[0] * len(live_cols) for _ in live_rows]
        for k, i in enumerate(live_rows):
            for j, val in rows[i].items():
                dense[k][cindex[j]] = val
        rest = snf_diagonal(dense)
    else:
        rest = []
    if rank_only:
        return pivot_count + len(rest), []
    factors = [1] * pivot_count + [d for d in rest if d != 0]
    return len(factors), factors


def _signed_row(
    ids: Sequence[int | None], signs: Sequence[int], cleared: Collection[int]
) -> dict[int, int]:
    """The row sum_k signs[k] e_{ids[k]}, over the ids that are not None.

    A face list and the alternating signs give a row of a boundary or
    coboundary.  The columns in ``cleared`` are left out, and so is an
    entry whose contributions cancel.
    """
    row: dict[int, int] = {}
    for c, sgn in zip(ids, signs):
        if c is not None and c not in cleared:
            if c in row:
                row[c] += sgn
            else:
                row[c] = sgn
    if 0 in row.values():
        row = {c: v for c, v in row.items() if v}
    return row


def _stored(rows: Rows) -> Builder:
    """A builder for rows written already, and the one column filter.

    It leaves the cleared columns, and a row left with no entry, out of a
    copy; with nothing cleared it returns ``rows`` itself.
    """

    def build(cleared: Collection[int]) -> Rows:
        if not cleared:
            return rows
        out = {}
        for i, row in rows.items():
            kept = {j: v for j, v in row.items() if j not in cleared}
            if kept:
                out[i] = kept
        return out

    return build


def _reduce_with_clearing(
    chain: Sequence[tuple[Builder, int, int]],
    last_rank_only: bool = False,
) -> list[tuple[int, list[int]]]:
    """(rank, invariant factors) of every matrix of a chain, with clearing.

    ``chain`` lists (build, nrows, ncols) in reduction order; the columns
    of each matrix are indexed like the rows of the one before it, and each
    composes to zero with the one before it.  ``build(cleared)`` writes a
    matrix's rows with the columns in ``cleared`` left out, and is called
    once, after the reduction before it has reported its unit-pivot rows:
    those are the columns it leaves out, which keeps the rank and factors
    (see ``sparse_invariant_factors``).  So no matrix ever holds a cleared
    column.  With ``last_rank_only`` the last matrix is reduced in
    rank-only mode and its factors list is empty.
    """
    out: list[tuple[int, list[int]]] = []
    pivots: list[int] = []
    last = len(chain) - 1
    for k, (build, nrows, ncols) in enumerate(chain):
        rows = build(set(pivots))
        if last_rank_only and k == last:
            out.append(sparse_invariant_factors(rows, nrows, ncols, rank_only=True))
            break
        pivots = []
        out.append(sparse_invariant_factors(rows, nrows, ncols, pivots))
    return out


def kernel_basis(m: Sequence[Sequence[int]]) -> Matrix:
    """Integer basis of ker(m), returned as columns of a matrix."""
    a = matrix(m)
    if not a:
        return ()
    nc = len(a[0])
    sf = smith_normal_form(a)
    r = sf.rank
    cols = [tuple(sf.v[i][j] for i in range(nc)) for j in range(r, nc)]
    return tuple(cols)


def lattice_basis(gens: Matrix) -> Matrix:
    """Basis (as columns) of the lattice spanned by the columns of ``gens``."""
    if not gens or not gens[0]:
        return tuple(() for _ in gens)
    sf = smith_normal_form(gens)
    r = sf.rank
    # gens @ v == u^-1 @ d spans lattice(gens); its first r columns are a basis
    return matmul(gens, tuple(row[:r] for row in sf.v))


def _coordinates(sf: SmithForm, targets: Matrix) -> Matrix:
    """Coordinates of the columns of ``targets`` in lattice(m), with u @ m @ v == d.

    lattice(m) has the basis u^-1 @ d (its first rank columns), so the
    coordinates are the leading rank rows of u @ targets divided by the
    diagonal; the other rows vanish exactly when every target lies in the
    lattice.  Raises ValueError otherwise.
    """
    um = matmul(sf.u, targets)
    r = sf.rank
    if any(any(row) for row in um[r:]):
        raise ValueError("target not in lattice")
    out = []
    for d, row in zip(sf.diagonal, um[:r]):
        if any(x % d for x in row):
            raise ValueError("target not in lattice")
        out.append(tuple(x // d for x in row))
    return tuple(out)


def solve_in_lattice(basis: Matrix, targets: Matrix) -> Matrix:
    """Coordinates x with basis @ x == targets; raises if not in the lattice.

    ``basis`` must have full column rank (as produced by lattice_basis).
    """
    sf = smith_normal_form(basis)
    if sf.rank != (len(basis[0]) if basis else 0):
        raise ValueError("basis does not have full column rank")
    return matmul(sf.v, _coordinates(sf, targets))


def normalize_factors(torsion: Iterable[int], free_rank: int) -> tuple[int, ...]:
    """Canonical invariant factor tuple: torsion in divisibility order, then 0s.

    Unit factors are dropped.  The input torsion list must already be a
    divisibility chain up to order (Smith diagonals are).
    """
    tor = sorted(abs(d) for d in torsion if abs(d) not in (0, 1))
    return tuple(tor) + (0,) * free_rank


def quotient_invariants(num_gens: Matrix, den_gens: Matrix) -> tuple[int, ...]:
    """Invariant factors of lattice(num_gens) / lattice(den_gens).

    Both arguments are matrices whose columns generate sublattices of the
    same ambient Z^n.  Raises ValueError unless lattice(den_gens) lies in
    lattice(num_gens).
    """
    sf = smith_normal_form(num_gens)
    diag = snf_diagonal(_coordinates(sf, den_gens))
    return normalize_factors(diag, sf.rank - len(diag))
