"""Cohomology of finite categories with finitely generated abelian coefficients.

The cochain complex is the cosimplicial replacement: degree-n cochains are
tuples of coefficient elements indexed by composable n-strings, with the
twisted face-zero differential.  Torsion coefficients are handled by the
mapping cone of the relation inclusion, which is a free complex computing
the same cohomology; it is cut at degree n_max+1, so with any coefficients
strings are enumerated in degrees 0..n_max+1 only, and the differential out
of the top degree, whose rank is all that is read, is reduced in rank-only
mode.  Every kernel computation runs through the sparse invariant-factor
routine.  Strings are numbered per degree by
``fincat.string_table``, and the differentials index cochains by those
ids.  Consecutive differentials are reduced with clearing: the
unit-pivot rows of d^n name columns of d^{n+1} that a unimodular change of
basis sends to zero, so they are left out of the next reduction, which is
sound because d^{n+1} d^n = 0 exactly.  On a complex that
``cochain_complex`` builds this holds by construction (the argument is
written out there), as ``sset.homology`` relies on the simplicial
identities; ``cohomology_of_complex`` checks it on any other complex.

Stack cohomology of a presheaf of groupoids is the cohomology of the total
category of its construction, which for the trivial topology is the derived
limit the site theory asks for; nontrivial topologies are refused in exact
mode and served by the Cech approximation.

Inputs are validated once, at the public boundary, and coefficients the
library builds itself, such as a pullback along an induced functor, go to
the unchecked ``_cochain_complex``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import InputError, RefusedMode, ValidationFailure, require_valid
from .fibred import (
    MorphismOfPresheavesOfCategories,
    PresheafOfGroupoids,
    grothendieck_construct,
    is_sectionwise_equivalence,
    total_functor,
)
from .fincat import FiniteCategory, Functor, comma_data, identity_functor, string_table
from .site import GrothendieckTopology, Sieve, is_trivial_topology, validate_sieve
from .snf import (
    Matrix,
    _reduce_with_clearing,
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

    def is_trivial(self) -> bool:
        return not self.factors

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


@dataclass(frozen=True)
class CochainComplex:
    """A free complex of finite rank with consecutive differentials composing to zero.

    When the coefficients carry torsion the complex stored here is the
    mapping cone of the relation inclusion (quasi-isomorphic to the complex
    of presented groups), which starts one slot below the cochains proper;
    offset records that shift.  Its top slot is C^{n_max+1} alone, without
    the relations of degree n_max+2: that leaves the kernel of the last
    differential, and so every group up to degree n_max, unchanged (see
    ``cochain_complex``).  string_counts is the underlying string
    enumeration per cochain degree, 0..n_max+1.
    """

    ranks: tuple[int, ...]
    differentials: tuple[dict[tuple[int, int], int], ...]
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
    max_strings strings raises ``CapExceeded``.  f is validated first.
    """
    if n_max < 0:
        raise InputError(f"cohomology degree bound {n_max} is negative")
    if f.base != c:
        raise InputError("coefficients do not live on the category")
    require_valid(validate_abelian_presheaf(f))
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
    # (c) ``rel_lift`` divides exactly, so D rho = rho r; then
    #     rho r r = D D rho = 0 with rho injective gives r r = 0, and the
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
    ends = c.morphisms
    vertex = [[t[0] for t in tokens[0]]]
    vertex += [[ends[t[0]][0] for t in level] for level in tokens[1:]]
    gens = {x: f.group[x].generator_count for x in c.objects}
    tors = {x: f.group[x].torsion for x in c.objects}
    # per arrow m: the nonzero entries (i, j, v) of F(m), which face 0 of a
    # string starting with m carries, and the identity block range(k) on
    # the k generators at m's source, which the other faces carry
    split = {
        m: (
            [(i, j, v) for i, row in enumerate(f.restriction[m]) for j, v in enumerate(row) if v],
            range(gens[a]),
        )
        for m, (a, _) in ends.items()
    }

    # per degree and string id: offset of its generators and of its
    # relations (the torsion factors come first in a canonical group)
    gen_offsets: list[list[int]] = []
    gen_ranks: list[int] = []
    rel_offsets: list[list[int]] = []
    rel_ranks: list[int] = []
    for n in range(top + 1):
        off: list[int] = []
        roff: list[int] = []
        pos = rpos = 0
        for x in vertex[n]:
            off.append(pos)
            roff.append(rpos)
            pos += gens[x]
            rpos += len(tors[x])
        gen_offsets.append(off)
        gen_ranks.append(pos)
        rel_offsets.append(roff)
        rel_ranks.append(rpos)

    def base_differential(n: int) -> dict[tuple[int, int], int]:
        """Entries of D^n: strings_n-cochains -> strings_{n+1}-cochains.

        Each contribution is added where it lands, and an entry whose
        contributions cancel is deleted, so no zero is stored.
        """
        entries: dict[tuple[int, int], int] = {}
        get = entries.get
        cols = gen_offsets[n]
        for tok, tau_faces, rbase in zip(tokens[n + 1], faces[n + 1], gen_offsets[n + 1]):
            twist, block = split[tok[0]]
            # face 0 is twisted by the restriction along the first arrow;
            # a degenerate (None) face vanishes in the normalized complex
            sigma = tau_faces[0]
            if sigma is not None:
                cbase = cols[sigma]
                for i, j, v in twist:
                    key = (rbase + i, cbase + j)
                    s = get(key, 0) + v
                    if s:
                        entries[key] = s
                    else:
                        del entries[key]
            sgn = 1
            for sigma in tau_faces[1:]:
                sgn = -sgn
                if sigma is None:
                    continue
                cbase = cols[sigma]
                for i in block:
                    key = (rbase + i, cbase + i)
                    s = get(key, 0) + sgn
                    if s:
                        entries[key] = s
                    else:
                        del entries[key]
        return entries

    base_diffs = [base_differential(n) for n in range(top)]
    string_counts = tuple(len(level) for level in vertex)

    if not has_torsion:
        return CochainComplex(
            ranks=tuple(gen_ranks),
            differentials=tuple(base_diffs),
            string_counts=string_counts,
            degrees=n_max,
        )

    # mapping cone: T^n = C^n (free part) + relations of degree n+1
    def rel_matrix(n: int) -> dict[tuple[int, int], int]:
        """rho_n: relation columns into the free cochains of degree n."""
        entries = {}
        for t, x in enumerate(vertex[n]):
            for i, d in enumerate(tors[x]):
                entries[(gen_offsets[n][t] + i, rel_offsets[n][t] + i)] = d
        return entries

    def rel_lift(n: int) -> dict[tuple[int, int], int]:
        """r^n with D^n rho_n = rho_{n+1} r^n (exact division by the factors)."""
        entries: dict[tuple[int, int], int] = {}
        by_col: dict[int, list[tuple[int, int]]] = {}
        for (r, cc), v in base_diffs[n].items():
            by_col.setdefault(cc, []).append((r, v))
        # torsion generator row of degree n+1 -> (its relation, the factor)
        row_rel = {
            gen_offsets[n + 1][t] + i: (rel_offsets[n + 1][t] + i, d)
            for t, x in enumerate(vertex[n + 1])
            for i, d in enumerate(tors[x])
        }
        for t, x in enumerate(vertex[n]):
            for i, d in enumerate(tors[x]):
                col = rel_offsets[n][t] + i
                for r, v in by_col.get(gen_offsets[n][t] + i, []):
                    num = d * v
                    rel = row_rel.get(r)
                    if rel is not None:
                        rrow, dr = rel
                        if num % dr != 0:
                            raise ValidationFailure("restriction does not respect relations")
                        # each entry of column col is written once: the
                        # rows r of one column of D^n are distinct, and so
                        # are their relations
                        q = num // dr
                        if q:
                            entries[(rrow, col)] = q
                    elif num != 0:
                        raise ValidationFailure("restriction does not respect relations")
        return entries

    # bottom slot: the degree-0 relations map into T^0 = F^0 (+) R^1; the
    # top slot is C^{n_max+1} alone (see (c) above)
    ranks = [rel_ranks[0]]
    for n in range(n_max + 1):
        ranks.append(gen_ranks[n] + rel_ranks[n + 1])
    ranks.append(gen_ranks[n_max + 1])
    diffs = []
    bottom = rel_matrix(0)
    for (r, cc), v in rel_lift(0).items():
        bottom[(gen_ranks[0] + r, cc)] = -v
    diffs.append(bottom)
    # D^n becomes the cone's differential in place: rel_lift(n) has read it
    for n in range(n_max + 1):
        entries = base_diffs[n]
        for (r, cc), v in rel_matrix(n + 1).items():
            entries[(r, gen_ranks[n] + cc)] = v
        if n < n_max:
            for (r, cc), v in rel_lift(n + 1).items():
                entries[(gen_ranks[n + 1] + r, gen_ranks[n] + cc)] = -v
        diffs.append(entries)
    return CochainComplex(
        ranks=tuple(ranks),
        differentials=tuple(diffs),
        string_counts=string_counts,
        degrees=n_max,
        offset=1,
    )


def _check_dd_zero(ranks: tuple[int, ...], diffs: tuple[dict, ...]) -> None:
    """Exact d^{n+1} d^n = 0, one row of the product at a time."""
    by_row: list[dict[int, list[tuple[int, int]]]] = []
    for d in diffs:
        rows: dict[int, list[tuple[int, int]]] = {}
        for (r, cc), v in d.items():
            rows.setdefault(r, []).append((cc, v))
        by_row.append(rows)
    for n in range(len(diffs) - 1):
        lower = by_row[n]
        for terms in by_row[n + 1].values():
            acc: dict[int, int] = {}
            for mid, w in terms:
                for cc, v in lower.get(mid, ()):
                    acc[cc] = acc.get(cc, 0) + w * v
            if any(acc.values()):
                raise ValidationFailure(f"differentials do not compose to zero at degree {n}")


def cohomology_of_complex(cc: CochainComplex) -> list[FgAbelianGroup]:
    """H^0..H^degrees by ranks and invariant factors of the differentials.

    The differentials are reduced in order, d^0 first, each by one
    ``sparse_invariant_factors`` call, through ``snf._reduce_with_clearing``.
    Each call reports its unit-pivot rows, and the next one skips the
    columns at those rows (clearing): since d^{n+1} d^n = 0 and the pivot
    block is unimodular, those columns become zero under a change of basis
    that leaves every other column alone, so each (rank, factors) is exactly
    that of the whole matrix.  The complex must therefore compose to zero
    exactly; cc is a caller's input, so that is checked first, and a
    complex that fails raises ``ValidationFailure`` naming the degree.
    Complexes that ``cochain_complex`` builds compose to zero by
    construction, and the library's own callers skip the check.
    """
    _check_dd_zero(cc.ranks, cc.differentials)
    return _cohomology(cc)


def _cohomology(cc: CochainComplex) -> list[FgAbelianGroup]:
    """``cohomology_of_complex`` without the d^{n+1} d^n = 0 check.

    Only the rank of the differential out of the top degree is read, so it
    is reduced in rank-only mode and nothing above it is reduced at all.
    """
    last = cc.degrees + cc.offset
    chain = [
        (entries, cc.ranks[n + 1] if n + 1 < len(cc.ranks) else 0, cc.ranks[n])
        for n, entries in enumerate(cc.differentials[: last + 1])
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
    require_valid(validate_abelian_presheaf(f))
    objs = sorted(c.objects)
    offset = {}
    pos = 0
    for x in objs:
        offset[x] = pos
        pos += f.group[x].generator_count
    total = pos
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
    ncols = total + len(rel_cols)
    block = []
    for k, row in enumerate(rows):
        ext = list(row) + [0] * len(rel_cols)
        block.append(ext)
    for pos_idx, k in enumerate(rel_cols):
        block[k][total + pos_idx] = row_mods[k]
    if not rows:
        block = []
    ker = kernel_basis(matrix(block)) if block else tuple(
        tuple(1 if i == j else 0 for i in range(total)) for j in range(total)
    )
    # project kernel vectors to the section coordinates
    num_cols = [tuple(v[:total]) for v in ker]
    num = tuple(tuple(col[i] for col in num_cols) for i in range(total)) if num_cols else tuple(() for _ in range(total))
    # denominator: the relation lattice of the degree-0 groups
    den_cols = []
    for x in objs:
        for i, d in enumerate(f.group[x].factors):
            if d != 0:
                col = [0] * total
                col[offset[x] + i] = d
                den_cols.append(tuple(col))
    den = tuple(tuple(col[i] for col in den_cols) for i in range(total)) if den_cols else tuple(() for _ in range(total))
    if total == 0:
        return TRIVIAL_GROUP
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
    up to n_max.  m is validated first (``total_functor``), and each total
    category is built once.  f is validated once, by ``cochain_complex``.
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
