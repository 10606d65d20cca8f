"""Cohomology of finite categories with finitely generated abelian coefficients.

The cochain complex is the cosimplicial replacement: degree-n cochains are
tuples of coefficient elements indexed by composable n-strings, with the
twisted face-zero differential.  Torsion coefficients are handled by the
mapping cone of the relation inclusion, which is a free complex computing
the same cohomology; it is cut at degree n_max+1, so with any coefficients
strings are enumerated in degrees 0..n_max+1 only, and the differential out
of the top degree, whose rank is all that is read, is reduced in rank-only
mode.  Strings are numbered per degree by ``fincat.string_table``, and the
differentials index cochains by those ids.

Each differential has a builder that writes its sparse rows straight from
the face table, and every kernel computation runs through the sparse
invariant-factor routine.  The differentials are streamed into it in order
with clearing: a builder runs only after the reduction of the differential
before it, whose unit-pivot rows name columns of this one that a
unimodular change of basis sends to zero, and it writes the differential
without them.  That is sound because d^{n+1} d^n = 0 exactly.  On a complex
that ``cochain_complex`` builds this holds by construction (the argument is
written out there), as ``sset.homology`` relies on the simplicial
identities; ``cohomology_of_complex`` checks it on any other complex.

Stack cohomology of a presheaf of groupoids is the cohomology of the total
category of its construction, which for the trivial topology is the derived
limit the site theory asks for; nontrivial topologies are refused in exact
mode and served by the Cech approximation.

Coefficients are validated through ``fincat._verified``, at most once while
they pass, and coefficients the library builds itself, such as a pullback
along an induced functor, go to the unchecked ``_cochain_complex``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from typing import Iterable, Sequence

from .errors import InputError, RefusedMode, ValidationFailure
from .fibred import (
    MorphismOfPresheavesOfCategories,
    PresheafOfGroupoids,
    grothendieck_construct,
    is_sectionwise_equivalence,
    total_functor,
)
from .fincat import FiniteCategory, Functor, _verified, comma_data, identity_functor, string_table
from .site import GrothendieckTopology, Sieve, is_trivial_topology, validate_sieve
from .sset import _deferrable, _deferred
from .snf import (
    Matrix,
    Rows,
    _reduce_with_clearing,
    _signed_row,
    _stored,
    identity_matrix,
    kernel_basis,
    matmul,
    matrix,
    normalize_factors,
    quotient_invariants,
    # importable from here, as from sset (see there)
    sparse_invariant_factors,  # noqa: F401
)


@dataclass(frozen=True)
class FgAbelianGroup:
    """Invariant-factor form of a finitely generated abelian group.

    factors is a divisibility chain with 0 denoting an infinite cyclic
    summand; unit factors are never stored.  Equality of groups is equality
    of factor tuples.
    """

    factors: tuple[int, ...]

    def __post_init__(self):
        tor = [f for f in self.factors if f != 0]
        free = sum(1 for f in self.factors if f == 0)
        canonical = normalize_factors(tor, free)
        if tuple(self.factors) != canonical:
            raise InputError(f"factors {self.factors} not in canonical form {canonical}")

    @classmethod
    def from_orders(cls, orders: Iterable[int]) -> "FgAbelianGroup":
        """Canonicalize an arbitrary list of cyclic orders (0 = infinite).

        Z/a + Z/b = Z/gcd + Z/lcm, so replacing each pair by that leaves a
        divisibility chain; 0 absorbs, as every order divides it.
        """
        orders = [abs(int(o)) for o in orders]
        for i in range(len(orders)):
            for j in range(i + 1, len(orders)):
                a, b = orders[i], orders[j]
                orders[i], orders[j] = math.gcd(a, b), math.lcm(a, b)
        tor = [d for d in orders if d != 0]
        return cls(factors=normalize_factors(tor, len(orders) - len(tor)))

    @property
    def rank(self) -> int:
        return sum(1 for f in self.factors if f == 0)

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(f for f in self.factors if f != 0)

    @property
    def generator_count(self) -> int:
        return len(self.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "0"
        parts = ["Z"] * self.rank + [f"Z/{f}" for f in self.torsion]
        return " + ".join(parts)


ZZ = FgAbelianGroup(factors=(0,))
TRIVIAL_GROUP = FgAbelianGroup(factors=())


def zmod(n: int) -> FgAbelianGroup:
    return FgAbelianGroup.from_orders([n])


@dataclass(frozen=True)
class AbelianPresheaf:
    """Contravariant functor to f.g. abelian groups with chosen generators.

    group[x] fixes the generators (one per invariant factor, in order); the
    matrix at m: a -> b maps the generators of group[b] into group[a],
    i.e. shape (gens(a), gens(b)).  Functoriality holds modulo relations.
    """

    base: FiniteCategory
    group: dict[str, FgAbelianGroup]
    restriction: dict[str, Matrix]


def _entry_ok(value: int, modulus: int) -> bool:
    return value == 0 if modulus == 0 else value % modulus == 0


def _matrices_equal_mod(a: Matrix, b: Matrix, target: FgAbelianGroup) -> bool:
    if len(a) != len(b):
        return False
    for i, (ra, rb) in enumerate(zip(a, b)):
        if len(ra) != len(rb):
            return False
        mod = target.factors[i] if i < len(target.factors) else 0
        for x, y in zip(ra, rb):
            if not _entry_ok(x - y, mod):
                return False
    return True


def validate_abelian_presheaf(f: AbelianPresheaf) -> list[str]:
    report: list[str] = []
    c = f.base
    for x in c.objects:
        if x not in f.group:
            report.append(f"no coefficient group at {x}")
    for m in c.morphisms:
        if m not in f.restriction:
            report.append(f"no restriction matrix for {m}")
    if report:
        return report
    for m, (a, b) in c.morphisms.items():
        mat = f.restriction[m]
        ga, gb = f.group[a], f.group[b]
        if len(mat) != ga.generator_count or any(
            len(r) != gb.generator_count for r in mat
        ):
            report.append(f"matrix for {m} has wrong shape")
            continue
        # relations must map into relations
        for j, dj in enumerate(gb.factors):
            if dj == 0:
                continue
            for i, di in enumerate(ga.factors):
                if not _entry_ok(dj * mat[i][j], di):
                    report.append(f"matrix for {m} does not respect relations")
                    break
            else:
                continue
            break
    if report:
        return report
    for x in c.objects:
        ident = f.restriction[c.identity[x]]
        eye = identity_matrix(f.group[x].generator_count)
        if not _matrices_equal_mod(ident, eye, f.group[x]):
            report.append(f"identity matrix at {x} is not the identity")
    for (g, h), gh in c.composition.items():
        # contravariant: (g.h)^* = h^* g^*
        a = c.source(h)
        lhs = matmul(f.restriction[h], f.restriction[g])
        if not _matrices_equal_mod(lhs, f.restriction[gh], f.group[a]):
            report.append(f"functoriality fails on ({g}, {h})")
    return report


def constant_abelian_presheaf(c: FiniteCategory, g: FgAbelianGroup) -> AbelianPresheaf:
    eye = identity_matrix(g.generator_count)
    return AbelianPresheaf(
        base=c, group={x: g for x in c.objects}, restriction={m: eye for m in c.morphisms}
    )


def restrict_abelian_along(t: Functor, f: AbelianPresheaf) -> AbelianPresheaf:
    """Coefficients pulled back along a functor into the coefficient base."""
    if f.base != t.codomain:
        raise InputError("coefficients do not live on the functor's codomain")
    return AbelianPresheaf(
        base=t.domain,
        group={x: f.group[t.on_object(x)] for x in t.domain.objects},
        restriction={m: f.restriction[t.on_morphism(m)] for m in t.domain.morphisms},
    )


# ---------------------------------------------------------------------------
# the cochain complex


def _fill_differentials(cc: CochainComplex) -> None:
    """Write every differential of a built complex, with nothing cleared."""
    vars(cc)["differentials"] = tuple(build(()) for build in cc._builders)


@_deferrable(differentials=_fill_differentials)
@dataclass(frozen=True)
class CochainComplex:
    """A free complex of finite rank with consecutive differentials composing to zero.

    ``differentials`` lists d^0, d^1, ... as sparse rows ``{row: {col:
    value}}`` (see ``snf.sparse_invariant_factors``); d^n is ranks[n+1] x
    ranks[n], with 0 rows past the last rank.  A complex that
    ``cochain_complex`` builds holds one builder per differential
    (``_builders``) instead, and ``sset``'s deferred-field mechanism writes
    them all from the face table, with nothing cleared, on the first read
    of ``differentials``; it pickles as its fields.  When the coefficients
    carry torsion the complex stored here is the mapping cone of the
    relation inclusion (quasi-isomorphic to the complex of presented
    groups), which starts one slot below the cochains proper; offset records
    that shift.  Its top slot is C^{n_max+1} alone, without the relations of degree n_max+2: that
    leaves the kernel of the last differential, and so every group up to
    degree n_max, unchanged (see ``cochain_complex``).  string_counts is
    the underlying string enumeration per cochain degree, 0..n_max+1.
    """

    ranks: tuple[int, ...]
    differentials: Sequence[Rows]
    string_counts: tuple[int, ...]
    degrees: int
    offset: int = 0


def cochain_complex(
    c: FiniteCategory,
    f: AbelianPresheaf,
    n_max: int,
    normalized: bool = True,
    max_strings: int = 200_000,
) -> CochainComplex:
    """Cosimplicial-replacement cochain complex, as a free mapping cone.

    Degree-n cochains assign to each n-string an element of the coefficient
    group at the string's first object; the differential applies the first
    arrow's restriction to the zeroth face and alternates signs on the rest.
    The returned complex computes H^0..H^{n_max}.  Strings are enumerated in
    degrees 0..n_max+1 whatever the coefficients, and a degree with more than
    max_strings strings raises ``CapExceeded``.  f is validated first.  The
    differentials are written by their builders, with nothing cleared, on
    the first read of ``differentials``; ``_cohomology`` streams the same
    builders into the kernel instead.
    """
    if n_max < 0:
        raise InputError(f"cohomology degree bound {n_max} is negative")
    if f.base != c:
        raise InputError("coefficients do not live on the category")
    _verified(f, validate_abelian_presheaf)
    # the mapping-cone route needs the matrices to compose strictly, not just
    # modulo relations; every presheaf built here (constants, pullbacks,
    # slice restrictions) is strict, and a strict model can be demanded of
    # callers without loss for the coefficients in scope
    for (g, h), gh in c.composition.items():
        if matmul(f.restriction[h], f.restriction[g]) != f.restriction[gh]:
            raise ValidationFailure(
                "restriction matrices compose only modulo relations; "
                "re-present the coefficients with strictly functorial matrices"
            )
    return _cochain_complex(c, f, n_max, normalized, max_strings)


def _cochain_complex(
    c: FiniteCategory, f: AbelianPresheaf, n_max: int, normalized: bool, max_strings: int
) -> CochainComplex:
    # d^{n+1} d^n = 0 holds exactly on the complex built here whenever c is
    # a category, so nothing multiplies the differentials out (the callers
    # that skip the check build c from validated input):
    # (a) the faces of ``string_table`` satisfy d_i d_j = d_{j-1} d_i for
    #     i < j (a test checks the table against them), so the untwisted
    #     terms of D^{n+1} D^n cancel in pairs, and so do the pairs (0, j)
    #     for j >= 2, whose faces keep the first arrow and with it the twist;
    # (b) the restriction matrices compose strictly (see cochain_complex), so the
    #     last pair, F(t_0) F(t_1) on d_0 d_0 against F(t_1 t_0) on d_0 d_1,
    #     cancels as well;
    # (b') F(id) = I exactly: F(id) F(id) = F(id) by (b), and validation
    #     makes every row of F(id) - I divisible by the smallest torsion
    #     factor d >= 2 (zero if there is none), so det F(id) = 1 mod d is
    #     not zero, and an invertible idempotent is the identity.  Hence
    #     the cochains vanishing on degenerate strings form a subcomplex,
    #     and the normalized complex, which drops degenerate (None) faces,
    #     is that subcomplex;
    # (c) validation makes every F(m) send relations into relations: a
    #     free generator's row of D has no entry in a torsion generator's
    #     column, and D's entry v at torsion row and column, of factors dr
    #     and d, has dr | d v.  So the relation lift r, with entries
    #     d v / dr, is exact and D rho = rho r; then rho r r = D D rho = 0 with rho injective gives r r = 0, and the
    #     cone differential (x, s) -> (D x + rho s, -r s) squares to
    #     (D D x + (D rho - rho r) s, r r s) = 0.  The cone is cut at
    #     degree n_max+1: its top slot is C^{n_max+1} alone, and the last
    #     differential (x, s) -> D x + rho s drops the lift block.  That is a
    #     projection of the full one, so it still composes to zero with the
    #     one below, and it has the same kernel: D x + rho s = 0 gives
    #     rho r s = D rho s = -D D x = 0, so r s = 0.  Only the rank of the
    #     last differential is read, so no string of degree n_max+2 is needed.
    has_torsion = any(f.group[x].torsion for x in c.objects)
    top = n_max + 1
    tokens, faces = string_table(c, top, normalized, max_strings)
    string_counts = tuple(len(level) for level in tokens)
    ends = c.morphisms
    # the signs of faces 0, 1, ... of a string of degree top
    signs = (1, -1) * (top // 2 + 1)
    # every F(m) is (1), identities included: then every object has one
    # generator, and each row is a string's alternating sum of faces
    untwisted = all(f.restriction[m] == ((1,),) for m in ends)
    # per object: one factor per generator, the torsion ones first, then 0
    # for each free one
    factors = {x: f.group[x].factors for x in c.objects}
    # per degree: each string's first object, which holds its generators
    vertex = None
    if has_torsion or not untwisted:
        vertex = [[t[0] for t in tokens[0]]]
        vertex += [[ends[t[0]][0] for t in level] for level in tokens[1:]]
    if untwisted:
        gen_ranks = list(string_counts)
    else:
        # per arrow m and generator i at its source: the nonzero entries
        # (j, v) of row i of F(m), which face 0 of a string starting with m
        # carries; the other faces carry the identity on those generators
        twists = {
            m: [[(j, v) for j, v in enumerate(row) if v] for row in f.restriction[m]]
            for m in ends
        }
        # per degree: the offset of each string's generators
        gen_offsets = [
            list(accumulate((len(factors[x]) for x in level), initial=0)) for level in vertex
        ]
        gen_ranks = [off[-1] for off in gen_offsets]

    def d_rows(n: int, cleared) -> Rows:
        """The rows of D^n: strings_n-cochains -> strings_{n+1}-cochains.

        One row per generator at each string of degree n+1, written from
        its faces without the columns in ``cleared``.  Contributions to one
        column are added; an entry whose contributions cancel is dropped,
        and so is a row left empty.
        """
        rows: Rows = {}
        if untwisted:
            for r, fs in enumerate(faces[n + 1]):
                row = _signed_row(fs, signs, cleared)
                if row:
                    rows[r] = row
            return rows
        cols = gen_offsets[n]
        for tok, fs, rbase in zip(tokens[n + 1], faces[n + 1], gen_offsets[n + 1]):
            # face 0 is twisted by the restriction along the first arrow;
            # a degenerate (None) face vanishes in the normalized complex
            fs = [None if s is None else cols[s] for s in fs]
            c0 = fs[0]
            for i, twist in enumerate(twists[tok[0]]):
                row: dict[int, int] = {}
                if c0 is not None:
                    for j, v in twist:
                        if c0 + j not in cleared:
                            row[c0 + j] = v
                for cbase, sgn in zip(fs[1:], signs[1:]):
                    if cbase is not None and cbase + i not in cleared:
                        row[cbase + i] = row.get(cbase + i, 0) + sgn
                if 0 in row.values():
                    row = {col: v for col, v in row.items() if v}
                if row:
                    rows[rbase + i] = row
        return rows

    if not has_torsion:
        return _deferred(
            CochainComplex,
            ranks=tuple(gen_ranks),
            string_counts=string_counts,
            degrees=n_max,
            offset=0,
            _builders=[partial(d_rows, n) for n in range(top)],
        )

    # mapping cone: T^n = C^n (free part) + relations of degree n+1, and
    # T^{-1} the relations of degree 0.  Per degree, each generator's
    # torsion factor (0 when free) and relation index (-1 when free)
    gen_factor = [[d for x in level for d in factors[x]] for level in vertex]
    gen_rel: list[list[int]] = []
    rel_ranks: list[int] = []
    for level in gen_factor:
        rel, k = [], 0
        for d in level:
            rel.append(k if d else -1)
            k += d != 0
        gen_rel.append(rel)
        rel_ranks.append(k)

    def cone_rows(n: int, cleared) -> Rows:
        """The rows of the cone's differential out of T^n, for n = -1..n_max.

        Rows: the generators of degree n+1, each D^n's row plus rho's entry
        at its relation; then, below n_max, the relations of degree n+2,
        each -r^{n+1}'s row, with D^{n+1} rho_{n+1} = rho_{n+2} r^{n+1}.
        Columns: C^n, then the relations of degree n+1 from ``shift`` on.
        """
        shift = gen_ranks[n] if n >= 0 else 0
        rows = d_rows(n, cleared) if n >= 0 else {}
        factor, rel = gen_factor[n + 1], gen_rel[n + 1]
        for r, d in enumerate(factor):
            if d and shift + rel[r] not in cleared:
                row = rows.get(r)
                if row is None:
                    rows[r] = {shift + rel[r]: d}
                else:
                    row[shift + rel[r]] = d
        if n < n_max:
            lift_factor, lift_rel = gen_factor[n + 2], gen_rel[n + 2]
            base = gen_ranks[n + 1]
            for r, drow in d_rows(n + 1, ()).items():
                dr = lift_factor[r]
                if dr:
                    # the block of D^{n+1} at torsion rows and columns,
                    # scaled by d / dr, which divides exactly by (c)
                    row = {
                        shift + rel[col]: -(factor[col] * v // dr)
                        for col, v in drow.items()
                        if factor[col] and shift + rel[col] not in cleared
                    }
                    if row:
                        rows[base + lift_rel[r]] = row
        return rows

    ranks = [rel_ranks[0]]
    for n in range(n_max + 1):
        ranks.append(gen_ranks[n] + rel_ranks[n + 1])
    ranks.append(gen_ranks[n_max + 1])
    return _deferred(
        CochainComplex,
        ranks=tuple(ranks),
        string_counts=string_counts,
        degrees=n_max,
        offset=1,
        _builders=[partial(cone_rows, n) for n in range(-1, n_max + 1)],
    )


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_shape(cc: CochainComplex) -> None:
    """Every entry inside its matrix and a nonzero int, and ranks and
    differentials reaching degree ``degrees + offset``."""
    if not (_is_int(cc.degrees) and _is_int(cc.offset)) or cc.degrees < 0 or cc.offset < 0:
        raise ValidationFailure(
            f"degrees {cc.degrees!r} and offset {cc.offset!r} must be non-negative ints"
        )
    if not all(_is_int(r) and r >= 0 for r in cc.ranks):
        raise ValidationFailure(f"ranks {cc.ranks!r} must be non-negative ints")
    need = cc.degrees + cc.offset + 1
    if len(cc.ranks) < need or len(cc.differentials) < need:
        raise ValidationFailure(
            f"H^{cc.degrees} needs {need} ranks and {need} differentials; "
            f"the complex has {len(cc.ranks)} and {len(cc.differentials)}"
        )
    for n, rows in enumerate(cc.differentials):
        nrows = cc.ranks[n + 1] if n + 1 < len(cc.ranks) else 0
        ncols = cc.ranks[n] if n < len(cc.ranks) else 0
        if not isinstance(rows, dict):
            raise ValidationFailure(f"d^{n} is not a dict of rows")
        for i, row in rows.items():
            if not isinstance(row, dict):
                raise ValidationFailure(f"row {i!r} of d^{n} is not a dict")
            for j, v in row.items():
                if not (_is_int(i) and _is_int(j) and 0 <= i < nrows and 0 <= j < ncols):
                    raise ValidationFailure(
                        f"d^{n} has an entry at ({i!r}, {j!r}), outside its {nrows} x {ncols} matrix"
                    )
                if not _is_int(v) or v == 0:
                    raise ValidationFailure(
                        f"d^{n} holds {v!r} at ({i}, {j}); an entry is a nonzero int"
                    )


def _check_dd_zero(diffs: Sequence[Rows]) -> None:
    """Exact d^{n+1} d^n = 0, one row of the product at a time."""
    for n in range(len(diffs) - 1):
        lower = diffs[n]
        for terms in diffs[n + 1].values():
            acc: dict[int, int] = {}
            for mid, w in terms.items():
                for col, v in lower.get(mid, {}).items():
                    acc[col] = acc.get(col, 0) + w * v
            if any(acc.values()):
                raise ValidationFailure(f"differentials do not compose to zero at degree {n}")


def cohomology_of_complex(cc: CochainComplex) -> list[FgAbelianGroup]:
    """H^0..H^degrees by ranks and invariant factors of the differentials.

    The differentials are reduced in order, d^0 first, each by one
    ``sparse_invariant_factors`` call, through ``snf._reduce_with_clearing``.
    Each call reports its unit-pivot rows, and the next differential is
    handed over without the columns at those rows (clearing): since
    d^{n+1} d^n = 0 and the pivot block is unimodular, those columns become
    zero under a change of basis that leaves every other column alone, so
    each (rank, factors) is exactly that of the whole matrix.  cc is a
    caller's input, so it is checked first: every entry must lie inside its
    matrix and be a nonzero int, ranks and differentials must reach degree
    ``degrees + offset``, and the complex must compose to zero exactly; a
    complex that fails raises ``ValidationFailure``, naming the degree where
    it does not compose to zero.  Complexes that ``cochain_complex`` builds
    pass by construction, and the library's own callers skip the checks.
    """
    _check_shape(cc)
    _check_dd_zero(cc.differentials)
    return _cohomology(cc)


def _cohomology(cc: CochainComplex) -> list[FgAbelianGroup]:
    """``cohomology_of_complex`` without the checks.

    A complex that ``cochain_complex`` builds is streamed, unless its
    ``differentials`` have been read already: each of its ``_builders`` is
    called once, after the reduction before it, and writes its differential
    without the cleared columns.  Any other complex's rows, and a built
    complex's differentials written already (by the checks of
    ``cohomology_of_complex``), are handed over without them through
    ``snf._stored``, so no differential is written twice.  Only the rank of
    the differential out of the top degree is read, so it is reduced in
    rank-only mode and nothing above it is reduced at all.
    """
    last = cc.degrees + cc.offset
    if "differentials" in vars(cc):
        builders = [_stored(d) for d in cc.differentials]
    else:
        builders = cc._builders
    chain = [
        (build, cc.ranks[n + 1] if n + 1 < len(cc.ranks) else 0, cc.ranks[n])
        for n, build in enumerate(builders[: last + 1])
    ]
    # reduced[n + 1] is (rank, factors) of d^n, with d^{-1} = 0
    reduced = [(0, [])] + _reduce_with_clearing(chain, last_rank_only=True)
    out = []
    for n in range(cc.degrees + 1):
        idx = n + cc.offset
        (rank_in, factors_in), (rank_out, _) = reduced[idx], reduced[idx + 1]
        free = cc.ranks[idx] - rank_out - rank_in
        out.append(FgAbelianGroup(factors=normalize_factors(factors_in, free)))
    return out


def compatible_family_group(c: FiniteCategory, f: AbelianPresheaf) -> FgAbelianGroup:
    """Direct computation of H^0: families fixed by every restriction.

    Independent of the cochain machinery: solves the kernel-with-relations
    problem by dense Smith-form lattice arithmetic on the degree-0 data.
    """
    if f.base != c:
        raise InputError("coefficients do not live on the category")
    _verified(f, validate_abelian_presheaf)
    objs = sorted(c.objects)
    *starts, total = accumulate((f.group[x].generator_count for x in objs), initial=0)
    if total == 0:
        return TRIVIAL_GROUP
    offset = dict(zip(objs, starts))
    # rows: one block per non-identity morphism (constraint F(m) a_tgt = a_src)
    rows: list[list[int]] = []
    row_mods: list[int] = []
    for m in sorted(c.morphisms):
        if c.is_identity(m):
            continue
        a, b = c.morphisms[m]
        mat = f.restriction[m]
        for i in range(f.group[a].generator_count):
            row = [0] * total
            for j in range(f.group[b].generator_count):
                row[offset[b] + j] += mat[i][j]
            row[offset[a] + i] -= 1
            rows.append(row)
            row_mods.append(f.group[a].factors[i])
    # kernel of [A | R] where R carries the relation moduli of each constraint row
    rel_cols = [k for k, d in enumerate(row_mods) if d != 0]
    block = [row + [0] * len(rel_cols) for row in rows]
    for pos_idx, k in enumerate(rel_cols):
        block[k][total + pos_idx] = row_mods[k]
    ker = kernel_basis(matrix(block)) if block else identity_matrix(total)
    # the kernel vectors projected to the section coordinates, as columns
    num = tuple(zip(*(v[:total] for v in ker))) or ((),) * total
    # denominator: the relation lattice of the degree-0 groups
    den_cols = []
    for x in objs:
        for i, d in enumerate(f.group[x].factors):
            if d != 0:
                col = [0] * total
                col[offset[x] + i] = d
                den_cols.append(col)
    den = tuple(zip(*den_cols)) or ((),) * total
    return FgAbelianGroup(factors=quotient_invariants(num, den))


# ---------------------------------------------------------------------------
# stack cohomology, Cech approximation, invariance harness


def stack_cohomology(
    topology: GrothendieckTopology,
    g: PresheafOfGroupoids,
    f: AbelianPresheaf,
    n_max: int,
    max_strings: int = 200_000,
) -> list[FgAbelianGroup]:
    """H^0..H^n_max of the fibred site with abelian coefficients (exact mode).

    Exact mode covers the trivial topology, where the site cohomology is the
    derived limit over the total category; a nontrivial topology is refused
    with a pointer to the Cech approximation.
    """
    if topology.site != g.site:
        raise InputError("topology does not live on the site of the groupoid presheaf")
    if not is_trivial_topology(topology):
        raise RefusedMode(
            "exact stack cohomology is limited to the trivial topology; "
            "use cech_cohomology for a chosen covering sieve"
        )
    fs = grothendieck_construct(g)
    if f.base != fs.total:
        raise InputError("coefficients do not live on the total category")
    cc = cochain_complex(fs.total, f, n_max, max_strings=max_strings)
    return _cohomology(cc)


def cech_cohomology(
    t: GrothendieckTopology,
    u: str,
    s: Sieve,
    f: AbelianPresheaf,
    n_max: int,
    max_strings: int = 200_000,
) -> list[FgAbelianGroup]:
    """Cohomology of the full slice subcategory spanned by a covering sieve.

    H^0 is the matching-family group of the sieve; higher degrees give the
    Cech approximation for nontrivial topologies.
    """
    c, least = t.site, t.checked_least()
    if (
        u not in c.objects
        or s.base_object != u
        or validate_sieve(c, s)
        or not least[u].members <= s.members
    ):
        raise InputError(f"the sieve is not a covering sieve of {u}")
    if f.base != c:
        raise InputError("coefficients do not live on the site")
    # the slice c/u, cut down to the comma objects (x|h) with h in the sieve
    sl = comma_data(identity_functor(c), u)
    whole = sl.category
    objects = tuple(a for a in whole.objects if sl.object_pair[a][1] in s.members)
    kept = set(objects)
    morphisms = {
        n: (a, b) for n, (a, b) in whole.morphisms.items() if a in kept and b in kept
    }
    sub = FiniteCategory(
        objects=objects,
        morphisms=morphisms,
        identity={a: whole.identity[a] for a in objects},
        composition={
            (g, h): gh
            for (g, h), gh in whole.composition.items()
            if g in morphisms and h in morphisms
        },
    )
    group = {a: f.group[sl.object_pair[a][0]] for a in objects}
    restriction = {n: f.restriction[sl.morphism_under[n]] for n in morphisms}
    coeffs = AbelianPresheaf(base=sub, group=group, restriction=restriction)
    cc = cochain_complex(sub, coeffs, n_max, max_strings=max_strings)
    # nothing on this path validates the site, so the argument in
    # ``cochain_complex`` does not cover it and the complex is checked
    return cohomology_of_complex(cc)


@dataclass(frozen=True)
class InvarianceReport:
    passed: bool
    degrees: int
    source: tuple[FgAbelianGroup, ...]
    target: tuple[FgAbelianGroup, ...]

    def mismatches(self) -> tuple[int, ...]:
        return tuple(
            n for n in range(self.degrees + 1) if self.source[n] != self.target[n]
        )


def invariance_report(
    m: MorphismOfPresheavesOfCategories,
    f: AbelianPresheaf,
    n_max: int,
    max_strings: int = 200_000,
) -> InvarianceReport:
    """Compare stack cohomology across a sectionwise equivalence (trivial topology).

    Computes the cohomology of the codomain's total category with the given
    coefficients and of the domain's with coefficients pulled back along the
    induced functor; a pass is equality of invariant factors in every degree
    up to n_max.  Each total category is built once and remembered on its
    presheaf.
    """
    t = total_functor(m)
    if not is_sectionwise_equivalence(m):
        raise RefusedMode(
            "the comparison hypothesis fails: the morphism is not a sectionwise equivalence"
        )
    if f.base != t.codomain:
        raise InputError("coefficients do not live on the codomain's total category")
    ch = _cohomology(cochain_complex(t.codomain, f, n_max, max_strings=max_strings))
    # f is valid and strict and t is a functor, so the pullback is too:
    # F(t(id)) = F(id), and F(t(g h)) = F(t(g) t(h)) = F(t(h)) F(t(g))
    f_pulled = restrict_abelian_along(t, f)
    cg = _cohomology(_cochain_complex(t.domain, f_pulled, n_max, True, max_strings))
    return InvarianceReport(
        passed=all(ch[n] == cg[n] for n in range(n_max + 1)),
        degrees=n_max,
        source=tuple(cg),
        target=tuple(ch),
    )
