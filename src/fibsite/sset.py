"""Truncated simplicial sets, nerves, bisimplicial diagonals, and homology.

Simplices are hashable tokens (strings, or tuples for structured carriers
like nerve strings); all face and degeneracy maps are explicit dictionaries,
so simplicial identities are exhaustively checkable.  The two-sided string
bisimplicial set reuses the nerve's face and degeneracy maps, reindexed by
bidegree.  Each set has an integer level (``_integer_level``): every simplex
with its degeneracy mask and integer face ids; each map has an integer
action (``_action_ids``).  For every set and map the library builds (nerves,
standard simplices, disjoint unions and their injections, ``hocopb``'s
hocolim and pb values, ``sampling``'s diagrams) the builder supplies that
level, and it is the one source of truth: one generic fill per field
(``_fill_simplices``, ``_fill_maps``, ``_fill_components``) writes the
public dicts from it on first read, so a set nobody reads writes none.  A
set or map a caller passes in as dicts has its level read off them, once
(``_levels_from_dicts``).  Homology and path components read one
normalized table per set (``simplex_table``): per degree the nondegenerate
simplices in a fixed order and their face ids, with None for a degenerate
face.  It is the level's simplices of mask 0 unless the builder supplies it
directly.  Homology runs over the normalized integer chain complex through
the exact Smith-form kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations_with_replacement, compress, islice, repeat
from operator import itemgetter
from typing import Hashable

from .errors import InputError
from .fincat import (
    FiniteCategory,
    Functor,
    Groupoid,
    StringTable,
    _least_representatives,
    _verified,
    automorphism_group,
    is_group_isomorphism,
    opposite,
    string_table,
)
# sparse_invariant_factors stays importable from here, where perfbench's
# tracer test looks for it, although homology reaches it through
# _reduce_with_clearing
from .snf import (  # noqa: F401
    Builder,
    Rows,
    _reduce_with_clearing,
    _signed_row,
    normalize_factors,
    sparse_invariant_factors,
)

Token = Hashable


def _tkey(t: Token):
    return repr(t)


class _DeferredField:
    """A dataclass field that a library builder leaves to be written on first read.

    ``_deferred(cls, **given)`` makes an instance that holds only the given
    fields and the private views ``fill(obj)`` writes the missing fields
    from: a set's or map's integer level (``_integer_level``,
    ``_action_ids``), or a cochain complex's builders (``cohom``).  An instance's own
    value always wins over this class-level descriptor, so only the first
    read of a missing field reaches it; that runs its fill, which sets the
    fields it writes and leaves the others missing.  Equality, repr,
    pickling and every reader then see the ordinary values.  A descriptor,
    unlike ``__getattr__``, leaves the reads of every other attribute on the
    interpreter's fast path.
    """

    def __init__(self, name: str, fill):
        self.name = name
        self.fill = fill

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        self.fill(obj)
        return vars(obj)[self.name]


def _reduce_to_fields(obj):
    # the fields only: level generators and builders cannot be pickled, and
    # all of them are rebuilt on demand
    return type(obj), tuple(getattr(obj, f) for f in obj.__dataclass_fields__)


def _deferrable(**fills):
    """Class decorator: dataclass field f may be deferred, written by fills[f]."""

    def decorate(cls):
        for name, fill in fills.items():
            setattr(cls, name, _DeferredField(name, fill))
        cls.__reduce__ = _reduce_to_fields
        return cls

    return decorate


def _deferred(cls, **given):
    """An instance of cls holding the given fields and private views only."""
    obj = object.__new__(cls)
    vars(obj).update(given)
    return obj


def _fill_simplices(s: TruncatedSimplicialSet) -> None:
    """Write s's simplices from its integer level."""
    vars(s)["simplices"] = tuple(frozenset(_level_cells(s, n)[0]) for n in range(s.dim + 1))


def _fill_maps(s: TruncatedSimplicialSet) -> None:
    """Write s's faces and degeneracies from its integer level.

    Faces come from the face ids.  A simplex y with bit i of its mask set
    is s_i(d_i y), and d_i s_i = id makes s_i injective (Goerss & Jardine,
    §I.1), so those y give s_i out of the degree below, entry by entry.
    """
    faces: dict[tuple[int, int], dict] = {}
    degeneracies: dict[tuple[int, int], dict] = {}
    for n in range(1, s.dim + 1):
        below = _level_cells(s, n - 1)[0].__getitem__
        tokens, masks, ids = _integer_level(s, n)
        for i in range(n + 1):
            faces[(n, i)] = dict(zip(tokens, map(below, map(itemgetter(i), ids))))
        for i in range(n):
            image = [m >> i & 1 for m in masks]
            degeneracies[(n - 1, i)] = dict(
                zip(map(below, map(itemgetter(i), compress(ids, image))), compress(tokens, image))
            )
    vars(s).update(faces=faces, degeneracies=degeneracies)


def _fill_components(f: SimplicialMap) -> None:
    """Write f's components from its integer action."""
    comps = []
    for n in range(f.domain.dim + 1):
        into = _level_cells(f.codomain, n)[0].__getitem__
        comps.append(dict(zip(_level_cells(f.domain, n)[0], map(into, _action_ids(f, n)))))
    vars(f)["components"] = tuple(comps)


@_deferrable(simplices=_fill_simplices, faces=_fill_maps, degeneracies=_fill_maps)
@dataclass(frozen=True)
class TruncatedSimplicialSet:
    """Simplicial set truncated at dimension ``dim``.

    faces[(n, i)] is the i-th face map in degree n (1 <= n <= dim,
    0 <= i <= n); degeneracies[(n, i)] is the i-th degeneracy out of degree n
    (0 <= n < dim, 0 <= i <= n).
    """

    dim: int
    simplices: tuple[frozenset, ...]
    faces: dict[tuple[int, int], dict]
    degeneracies: dict[tuple[int, int], dict]

    def nondegenerate(self, n: int) -> tuple:
        """Degree-n simplices outside every degeneracy image, in table order."""
        return tuple(simplex_table(self, n).tokens[n])


def validate_simplicial(s: TruncatedSimplicialSet) -> list[str]:
    report: list[str] = []
    if s.dim < 0 or len(s.simplices) != s.dim + 1:
        return ["simplex tuple does not match truncation degree"]
    levels = [set(level) for level in s.simplices]
    for n in range(1, s.dim + 1):
        for i in range(n + 1):
            fm = s.faces.get((n, i))
            if fm is None or fm.keys() != levels[n]:
                report.append(f"face ({n},{i}) missing or wrongly indexed")
            elif not set(fm.values()) <= levels[n - 1]:
                report.append(f"face ({n},{i}) escapes degree {n-1}")
    for n in range(0, s.dim):
        for i in range(n + 1):
            dm = s.degeneracies.get((n, i))
            if dm is None or dm.keys() != levels[n]:
                report.append(f"degeneracy ({n},{i}) missing or wrongly indexed")
            elif not set(dm.values()) <= levels[n + 1]:
                report.append(f"degeneracy ({n},{i}) escapes degree {n+1}")
    if report:
        return report
    # face[n][i] and degen[n][i] are the maps d_i and s_i out of degree n
    face = [[s.faces[(n, i)] for i in range(n + 1)] if n else [] for n in range(s.dim + 1)]
    degen = [[s.degeneracies[(n, i)] for i in range(n + 1)] for n in range(s.dim)]
    # d_i d_j = d_{j-1} d_i (i < j)
    for n in range(2, s.dim + 1):
        here, below = face[n], face[n - 1]
        for x in s.simplices[n]:
            dx = [f[x] for f in here]
            for j in range(1, n + 1):
                for i in range(j):
                    if below[i][dx[j]] != below[j - 1][dx[i]]:
                        report.append(f"d{i} d{j} fails in degree {n}")
    # s_i s_j = s_{j+1} s_i (i <= j)
    for n in range(0, s.dim - 1):
        here, above = degen[n], degen[n + 1]
        for x in s.simplices[n]:
            sx = [f[x] for f in here]
            for j in range(n + 1):
                for i in range(j + 1):
                    if above[i][sx[j]] != above[j + 1][sx[i]]:
                        report.append(f"s{i} s{j} fails in degree {n}")
    # mixed identities
    for n in range(1, s.dim):
        up, down = face[n + 1], degen[n - 1]
        for x in s.simplices[n]:
            dx = [f[x] for f in face[n]]
            sx = [f[x] for f in degen[n]]
            for j in range(n + 1):
                for i in range(n + 2):
                    lhs = up[i][sx[j]]
                    if i < j:
                        rhs = down[j - 1][dx[i]]
                    elif i in (j, j + 1):
                        rhs = x
                    else:
                        rhs = down[j][dx[i - 1]]
                    if lhs != rhs:
                        report.append(f"d{i} s{j} fails in degree {n}")
    return report


@_deferrable(components=_fill_components)
@dataclass(frozen=True)
class SimplicialMap:
    domain: TruncatedSimplicialSet
    codomain: TruncatedSimplicialSet
    components: tuple[dict, ...]

    def apply(self, n: int, x: Token) -> Token:
        return self.components[n][x]


def validate_simplicial_map(f: SimplicialMap) -> list[str]:
    report: list[str] = []
    if f.domain.dim != f.codomain.dim:
        return ["domain and codomain truncations differ"]
    d = f.domain.dim
    if len(f.components) != d + 1:
        return ["component tuple does not match truncation"]
    for n in range(d + 1):
        comp = f.components[n]
        if comp.keys() != set(f.domain.simplices[n]):
            report.append(f"component {n} wrongly indexed")
        elif not set(comp.values()) <= set(f.codomain.simplices[n]):
            report.append(f"component {n} escapes the codomain")
    if report:
        return report
    dom, cod, comps = f.domain, f.codomain, f.components
    # face i out of degree n lands in degree n-1, and degeneracy i in n+1;
    # an empty level reads no tables, and a table that lacks an entry (one
    # validate_simplicial reports) is reported, at no cost on valid tables
    for name, dom_maps, cod_maps, step, degrees in (
        ("face", dom.faces, cod.faces, -1, range(1, d + 1)),
        ("degeneracy", dom.degeneracies, cod.degeneracies, 1, range(d)),
    ):
        for n in degrees:
            if not dom.simplices[n]:
                continue
            here, there = comps[n], comps[n + step]
            try:
                pairs = [(dom_maps[(n, i)], cod_maps[(n, i)]) for i in range(n + 1)]
                for x in dom.simplices[n]:
                    fx = here[x]
                    for i, (dm, cm) in enumerate(pairs):
                        if there[dm[x]] != cm[fx]:
                            report.append(f"{name} {i} not preserved in degree {n}")
            except KeyError as missing:
                report.append(f"an endpoint's {name} maps in degree {n} lack {missing.args[0]!r}")
    return report


def identity_simplicial_map(s: TruncatedSimplicialSet) -> SimplicialMap:
    return SimplicialMap(
        domain=s,
        codomain=s,
        components=tuple({x: x for x in s.simplices[n]} for n in range(s.dim + 1)),
    )


def compose_simplicial_maps(g: SimplicialMap, f: SimplicialMap) -> SimplicialMap:
    return SimplicialMap(
        domain=f.domain,
        codomain=g.codomain,
        components=tuple(
            {x: g.components[n][f.components[n][x]] for x in f.components[n]}
            for n in range(f.domain.dim + 1)
        ),
    )


# ---------------------------------------------------------------------------
# nerves


def nerve(c: FiniteCategory, d: int) -> TruncatedSimplicialSet:
    """Composable strings of morphisms, truncated at degree d.

    Degree-0 simplices are (object,) tuples; a degree-n simplex is the tuple
    of its n arrows read source to target.  ``string_table`` is the nerve's
    integer level, and its dicts are written from it (see ``_nerve``).
    """
    return _nerve(c, string_table(c, d))


def _nerve(c: FiniteCategory, table: StringTable) -> TruncatedSimplicialSet:
    """The nerve of c truncated at the top degree of its string table.

    The table is the nerve's integer level, with bit i of a string's mask
    set when its arrow i is an identity (s_i inserts that identity); the
    dicts are written from it on first read.  The last face of a string is
    its parent, so each mask is its parent's plus the last arrow's bit.
    """
    d = len(table.tokens) - 1
    if d < 1:
        raise InputError("truncation degree must be at least 1")
    identities = c._identity_set
    masks = [[0] * len(table.tokens[0])]
    for n in range(1, d + 1):
        parent, last = masks[-1], 1 << (n - 1)
        masks.append([
            parent[f[-1]] | (last if t[-1] in identities else 0)
            for t, f in zip(table.tokens[n], table.faces[n])
        ])
    return _deferred(
        TruncatedSimplicialSet, dim=d, _int=list(zip(table.tokens, masks, table.faces))
    )


def nerve_map(f: Functor, d: int) -> SimplicialMap:
    """The simplicial map of nerves induced by a functor."""
    dom = nerve(f.domain, d)
    cod = nerve(f.codomain, d)
    comps = []
    for n in range(d + 1):
        if n == 0:
            comps.append({t: (f.on_object(t[0]),) for t in dom.simplices[0]})
        else:
            comps.append(
                {t: tuple(f.on_morphism(m) for m in t) for t in dom.simplices[n]}
            )
    return SimplicialMap(domain=dom, codomain=cod, components=tuple(comps))


@lru_cache(maxsize=64)
def _simplex_level(k: int, d: int) -> tuple:
    """The integer level of the k-simplex truncated at d, shared read-only."""
    levels, index = [], {}
    for n in range(d + 1):
        tokens = list(combinations_with_replacement(range(k + 1), n + 1))
        masks = [sum(1 << i for i in range(n) if t[i] == t[i + 1]) for t in tokens]
        # face i drops vertex i; degree 0 has no faces
        faces = [tuple([index[t[:i] + t[i + 1 :]] for i in range(n + 1)]) for t in tokens if n]
        levels.append((tokens, masks, faces))
        index = {t: j for j, t in enumerate(tokens)}
    return tuple(levels)


def standard_simplex(k: int, d: int) -> TruncatedSimplicialSet:
    """The k-simplex, truncated at d; tokens are monotone vertex tuples.

    Its integer level lists them in lexicographic order, and a tuple lies in
    the image of s_i when its vertices i and i+1 agree.  The level is built
    once per (k, d), and each instance gets a fresh list of it.
    """
    return _deferred(TruncatedSimplicialSet, dim=d, _int=list(_simplex_level(k, d)))


def disjoint_union_ssets(
    pieces: list[TruncatedSimplicialSet], tags: list[str]
) -> tuple[TruncatedSimplicialSet, list[SimplicialMap]]:
    """Coproduct with tagged tokens, plus the injection maps.

    The union's integer level is its pieces' in order: (tag, x) for each x,
    with x's mask and x's face ids shifted by its piece's start, and an
    injection's ids are a range.  A piece holding dicts (a caller's) is
    validated first, raising ``ValidationFailure``; a library one is trusted.
    """
    d = pieces[0].dim
    if any(p.dim != d for p in pieces):
        raise InputError("pieces have different truncations")
    if len(set(tags)) != len(tags):
        raise InputError("disjoint union tags repeat")
    parts = list(zip(pieces, tags))
    for p, tag in parts:
        if "faces" in vars(p):
            _verified(p, validate_simplicial, f"piece {tag}: ")
    levels, ids = [], [[] for _ in parts]
    for n in range(d + 1):
        tokens, masks, shifts = [], [], []
        for (p, tag), own in zip(parts, ids):
            pt, pm = _level_cells(p, n)
            shifts.append((p, own[-1].start if n else 0))  # its start in degree n - 1
            own.append(range(len(tokens), len(tokens) + len(pt)))
            tokens.extend(zip(repeat(tag), pt))
            masks.extend(pm)
        levels.append((tokens, masks, partial(_shifted_faces, shifts, n)))
    total = _deferred(TruncatedSimplicialSet, dim=d, _int=levels)
    injections = [
        _deferred(SimplicialMap, domain=p, codomain=total, _int=own)
        for (p, _tag), own in zip(parts, ids)
    ]
    return total, injections


def _shifted_faces(shifts: list, n: int) -> list:
    """A union's face ids in degree n: each piece's, shifted by its start."""
    return [tuple([f + k for f in fs]) for p, k in shifts for fs in _integer_level(p, n)[2]]


# ---------------------------------------------------------------------------
# bisimplicial sets and the interchange comparison


@dataclass(frozen=True)
class BisimplicialSet:
    """Bidegree-indexed simplices with commuting horizontal/vertical structure."""

    dim: int
    simplices: dict[tuple[int, int], frozenset]
    h_faces: dict[tuple[int, int, int], dict]
    h_degeneracies: dict[tuple[int, int, int], dict]
    v_faces: dict[tuple[int, int, int], dict]
    v_degeneracies: dict[tuple[int, int, int], dict]


def validate_bisimplicial(b: BisimplicialSet) -> list[str]:
    report: list[str] = []
    d = b.dim
    for m in range(d + 1):
        for n in range(d + 1):
            if (m, n) not in b.simplices:
                report.append(f"no simplices at bidegree ({m},{n})")
    if report:
        return report
    # horizontal structure is simplicial at each fixed vertical degree
    for n in range(d + 1):
        sub = TruncatedSimplicialSet(
            dim=d,
            simplices=tuple(b.simplices[(m, n)] for m in range(d + 1)),
            faces={
                (m, i): b.h_faces[(m, n, i)] for m in range(1, d + 1) for i in range(m + 1)
            },
            degeneracies={
                (m, i): b.h_degeneracies[(m, n, i)]
                for m in range(d)
                for i in range(m + 1)
            },
        )
        report.extend(f"horizontal at v={n}: {r}" for r in validate_simplicial(sub))
    for m in range(d + 1):
        sub = TruncatedSimplicialSet(
            dim=d,
            simplices=tuple(b.simplices[(m, n)] for n in range(d + 1)),
            faces={
                (n, i): b.v_faces[(m, n, i)] for n in range(1, d + 1) for i in range(n + 1)
            },
            degeneracies={
                (n, i): b.v_degeneracies[(m, n, i)]
                for n in range(d)
                for i in range(n + 1)
            },
        )
        report.extend(f"vertical at h={m}: {r}" for r in validate_simplicial(sub))
    if report:
        return report
    # the two directions commute
    for m in range(d + 1):
        for n in range(d + 1):
            for x in b.simplices[(m, n)]:
                for i in range(m + 1):
                    for j in range(n + 1):
                        if m >= 1 and n >= 1:
                            if b.v_faces[(m - 1, n, j)][b.h_faces[(m, n, i)][x]] != \
                               b.h_faces[(m, n - 1, i)][b.v_faces[(m, n, j)][x]]:
                                report.append(f"h-face/v-face clash at ({m},{n})")
                        if m >= 1 and n < d:
                            if b.v_degeneracies[(m - 1, n, j)][b.h_faces[(m, n, i)][x]] != \
                               b.h_faces[(m, n + 1, i)][b.v_degeneracies[(m, n, j)][x]]:
                                report.append(f"h-face/v-degeneracy clash at ({m},{n})")
                        if m < d and n >= 1:
                            if b.v_faces[(m + 1, n, j)][b.h_degeneracies[(m, n, i)][x]] != \
                               b.h_degeneracies[(m, n - 1, i)][b.v_faces[(m, n, j)][x]]:
                                report.append(f"h-degeneracy/v-face clash at ({m},{n})")
                        if m < d and n < d:
                            if b.v_degeneracies[(m + 1, n, j)][b.h_degeneracies[(m, n, i)][x]] != \
                               b.h_degeneracies[(m, n + 1, i)][b.v_degeneracies[(m, n, j)][x]]:
                                report.append(f"degeneracy clash at ({m},{n})")
    return report


def diagonal(b: BisimplicialSet) -> TruncatedSimplicialSet:
    """n-simplices are the (n,n)-bisimplices; both structures apply at once."""
    d = b.dim
    simplices = tuple(b.simplices[(n, n)] for n in range(d + 1))
    faces = {}
    for n in range(1, d + 1):
        for i in range(n + 1):
            faces[(n, i)] = {
                x: b.v_faces[(n - 1, n, i)][b.h_faces[(n, n, i)][x]]
                for x in b.simplices[(n, n)]
            }
    degeneracies = {}
    for n in range(d):
        for i in range(n + 1):
            degeneracies[(n, i)] = {
                x: b.v_degeneracies[(n + 1, n, i)][b.h_degeneracies[(n, n, i)][x]]
                for x in b.simplices[(n, n)]
            }
    return TruncatedSimplicialSet(
        dim=d, simplices=simplices, faces=faces, degeneracies=degeneracies
    )


def interchange_comparison(
    c: FiniteCategory, d: int
) -> tuple[BisimplicialSet, SimplicialMap, SimplicialMap]:
    """The two-sided string bisimplicial set and its comparison maps.

    Bidegree (m,n) is degree m+n+1 of the nerve, read as is: strings of
    m+n+1 arrows, whose vertices 0..m carry the horizontal structure in
    reverse and vertices m+1..m+n+1 the vertical one.  So h-face i and
    h-degeneracy i are the nerve's face and degeneracy m-i, and v-face j and
    v-degeneracy j are its face and degeneracy m+1+j.  Returns the
    bisimplicial set with the diagonal-level maps to the nerve of the
    opposite category (left part) and to the nerve (right part).
    """
    strings = nerve(c, 2 * d + 1)
    grid = [(m, n) for m in range(d + 1) for n in range(d + 1)]
    big = BisimplicialSet(
        dim=d,
        simplices={(m, n): strings.simplices[m + n + 1] for m, n in grid},
        h_faces={
            (m, n, i): strings.faces[(m + n + 1, m - i)]
            for m, n in grid if m >= 1 for i in range(m + 1)
        },
        h_degeneracies={
            (m, n, i): strings.degeneracies[(m + n + 1, m - i)]
            for m, n in grid if m < d for i in range(m + 1)
        },
        v_faces={
            (m, n, j): strings.faces[(m + n + 1, m + 1 + j)]
            for m, n in grid if n >= 1 for j in range(n + 1)
        },
        v_degeneracies={
            (m, n, j): strings.degeneracies[(m + n + 1, m + 1 + j)]
            for m, n in grid if n < d for j in range(n + 1)
        },
    )
    diag = diagonal(big)
    cop = nerve(opposite(c), d)
    cn = nerve(c, d)
    left_comps = []
    right_comps = []
    for n in range(d + 1):
        lm = {}
        rm = {}
        for t in diag.simplices[n]:
            if n == 0:
                lm[t] = (c.source(t[0]),)
                rm[t] = (c.target(t[0]),)
            else:
                lm[t] = tuple(reversed(t[:n]))
                rm[t] = t[n + 1 :]
        left_comps.append(lm)
        right_comps.append(rm)
    left = SimplicialMap(domain=diag, codomain=cop, components=tuple(left_comps))
    right = SimplicialMap(domain=diag, codomain=cn, components=tuple(right_comps))
    return big, left, right


# ---------------------------------------------------------------------------
# homology over the normalized integer chain complex


@dataclass(frozen=True)
class HomologyResult:
    """Invariant factors of H_0..H_top (0 marks an infinite cyclic factor)."""

    factors: tuple[tuple[int, ...], ...]
    components: int


def simplex_table(s: TruncatedSimplicialSet, top: int) -> StringTable:
    """The normalized table of s through degree top (see ``StringTable``).

    Per degree: the nondegenerate simplices, and for each its face ids in
    the degree below, None for a degenerate face.  A set built with its own
    table (``hocopb``'s hocolim and pb values) yields that; any other set's
    table is read off its integer level (``_integer_level``), keeping the
    simplices of mask 0 in that level's order.  Each degree is built once
    per set, on first request, and the table returned may run past top.
    """
    own = vars(s)
    table = own.get("_table")
    if table is None:
        table = own["_table"] = StringTable([], [])
        own.setdefault("_levels", _normalized_levels(s))
    levels = own["_levels"]
    for tokens, faces in islice(levels, max(0, top + 1 - len(table.tokens))):
        table.tokens.append(tokens)
        table.faces.append(faces)
    return table


def _cached_levels(obj, top: int, default) -> list:
    """The integer levels of a set or map through at least degree top.

    A library builder supplies them, as the list ``_int`` or the generator
    ``_int_levels``, and may leave a degree's faces, or a map's ids, to a
    function of no arguments, which ``_integer_level`` or ``_action_ids``
    calls on first read.  For a set or map given as dicts, ``default(obj)``
    reads them off the dicts.  Each degree is built once.
    """
    own = vars(obj)
    done = own.get("_int")
    if done is None:
        done = own["_int"] = []
        own.setdefault("_int_levels", default(obj))
    if len(done) <= top:
        done.extend(islice(own["_int_levels"], top + 1 - len(done)))
    return done


def _integer_level(s: TruncatedSimplicialSet, n: int) -> tuple[list, list, list]:
    """Degree n of s as (tokens, masks, faces): every simplex, bit i of its
    mask set when it lies in the image of s_i, and its face ids as positions
    in degree n-1 of the same view."""
    levels = _cached_levels(s, n, _levels_from_dicts)
    tokens, masks, faces = levels[n]
    if callable(faces):
        levels[n] = (tokens, masks, faces())
    return levels[n]


def _level_cells(s: TruncatedSimplicialSet, n: int) -> tuple[list, list]:
    """Degree n of s's integer level without its faces: (tokens, masks)."""
    return _cached_levels(s, n, _levels_from_dicts)[n][:2]


def _action_ids(f: SimplicialMap, n: int) -> list[int]:
    """Degree n of f as integers: position k of the domain's integer level
    goes to the position of its image in the codomain's."""
    levels = _cached_levels(f, n, _ids_from_dicts)
    if callable(levels[n]):
        levels[n] = levels[n]()
    return levels[n]


def _levels_from_dicts(s: TruncatedSimplicialSet):
    """The integer levels of a caller's set, given as dicts, simplices in
    ``repr`` order.

    A face or degeneracy image outside the set (one ``validate_simplicial``
    reports) gets no id: its face id is None and it sets no mask bit.
    """
    index: dict = {}
    for n in range(s.dim + 1):
        tokens = sorted(s.simplices[n], key=_tkey)
        here = {x: k for k, x in enumerate(tokens)}
        masks = [0] * len(tokens)
        faces = []
        if n:
            for i in range(n):
                for x in s.degeneracies[(n - 1, i)].values():
                    k = here.get(x)
                    if k is not None:
                        masks[k] |= 1 << i
            maps = [s.faces[(n, i)] for i in range(n + 1)]
            faces = [tuple([index.get(m[x]) for m in maps]) for x in tokens]
        index = here
        yield tokens, masks, faces


def _ids_from_dicts(f: SimplicialMap):
    """The integer levels of a map given as dicts."""
    for n in range(f.domain.dim + 1):
        image = f.components[n]
        index = {x: k for k, x in enumerate(_level_cells(f.codomain, n)[0])}
        yield [index[image[x]] for x in _level_cells(f.domain, n)[0]]


def _normalized_levels(s: TruncatedSimplicialSet):
    """The normalized levels of s, read off its integer level."""
    renumber: dict = {}
    for n in range(s.dim + 1):
        tokens, masks, faces = _integer_level(s, n)
        keep = [k for k, m in enumerate(masks) if not m]
        # a degenerate face, absent from renumber, gets None
        kept_faces = [tuple([renumber.get(c) for c in faces[k]]) for k in keep] if n else []
        yield [tokens[k] for k in keep], kept_faces
        renumber = {k: j for j, k in enumerate(keep)}


def _table(s: TruncatedSimplicialSet, top: int, normalized: bool) -> StringTable:
    """``simplex_table``, or without normalized s's integer level."""
    if normalized:
        return simplex_table(s, top)
    levels = [_integer_level(s, n) for n in range(top + 1)]
    return StringTable([tokens for tokens, _, _ in levels], [faces for _, _, faces in levels])


def pi0_sset(s: TruncatedSimplicialSet) -> dict:
    """Vertex -> least vertex of its edge-path component."""
    table = simplex_table(s, 1)
    vertices = table.tokens[0]
    # a degenerate edge is a loop at one vertex, so the table's edges suffice
    return _least_representatives(
        vertices, ((vertices[e[1]], vertices[e[0]]) for e in table.faces[1]), key=_tkey
    )


def boundary_entries(
    s: TruncatedSimplicialSet, n: int, normalized: bool = True
) -> tuple[Rows, int, int]:
    """Sparse boundary matrix from degree n to degree n-1 as (rows, nrows, ncols).

    ``rows`` is ``{row: {col: value}}`` (see ``snf.sparse_invariant_factors``):
    row i is simplex i of degree n-1 and column j simplex j of degree n, in
    the order of ``simplex_table``, or without normalized the integer
    level's (string-table order for a nerve, ``repr`` order for a set given
    as dicts).  It is the transpose of what ``homology``'s builder writes
    with nothing cleared.
    """
    table = _table(s, n, normalized)
    rows: Rows = {}
    for j, row in _coboundary(table, n)(()).items():
        for i, v in row.items():
            out = rows.get(i)
            if out is None:
                rows[i] = {j: v}
            else:
                out[j] = v
    return rows, len(table.tokens[n - 1]), len(table.tokens[n])


def _coboundary(table: StringTable, n: int) -> Builder:
    """The builder of the transposed boundary d_n^T, degree n-1 to degree n.

    Row j is the boundary of simplex j of degree n, written straight from
    its face ids; a face id of None is a degenerate face, which vanishes in
    the normalized complex.  A row whose faces cancel is left out.
    """
    faces = table.faces[n]
    # the sign of face i, for each of the n + 1 faces
    signs = (1, -1) * (n // 2 + 1)

    def build(cleared) -> Rows:
        rows: Rows = {}
        for j, fs in enumerate(faces):
            row = _signed_row(fs, signs, cleared)
            if row:
                rows[j] = row
        return rows

    return build


def homology(
    s: TruncatedSimplicialSet, top: int, normalized: bool = True
) -> HomologyResult:
    """H_0..H_top of the integer chain complex, and the path components.

    Requires top <= dim - 1 so that the boundaries out of degree top+1 are
    available; under that condition the truncated answer agrees with the
    homology of any simplicial set this one truncates.  The transposed
    boundaries d_1^T, d_2^T, ..., d_{top+1}^T are reduced in that order with
    clearing, the order ``cohom`` uses: each is written from the face table
    only after the one before it is reduced, without the columns at that
    reduction's unit-pivot rows, so the largest matrix comes last with the
    most columns cleared.  Clearing relies on d d = 0, that is on s
    satisfying the simplicial identities (``validate_simplicial``), and
    transposing changes no rank or invariant factor.  H_0 is free on the
    path components, so their number is the rank of H_0.
    """
    if top < 0:
        raise InputError(f"homology degree bound {top} is negative")
    if top > s.dim - 1:
        raise InputError("truncation too low for the requested degree")
    table = _table(s, top + 1, normalized)
    size = [len(level) for level in table.tokens]
    chain = [(_coboundary(table, n), size[n], size[n - 1]) for n in range(1, top + 2)]
    # reduced[n] is (rank, factors) of d_n, with d_0 = 0
    reduced = [(0, [])] + _reduce_with_clearing(chain)
    out = []
    for n in range(top + 1):
        free = size[n] - reduced[n][0] - reduced[n + 1][0]
        out.append(normalize_factors(reduced[n + 1][1], free))
    return HomologyResult(factors=tuple(out), components=size[0] - reduced[1][0])


# ---------------------------------------------------------------------------
# weak-equivalence evidence


@dataclass(frozen=True)
class EvidenceReport:
    """Sectionwise weak-equivalence evidence for one simplicial map.

    A pass means: bijective on path components and isomorphic homology
    invariant factors through the requested degree; when both sides are
    nerves of groupoids and the groupoid check ran, additionally the induced
    map on automorphism groups is an isomorphism at one vertex per component.
    The homology comparison is of abstract isomorphism type only, so a pass
    is necessary for a weak equivalence, and sufficient exactly on the
    groupoid-nerve path.
    """

    passed: bool
    pi0_bijective: bool
    homology_matches: tuple[bool, ...]
    domain_homology: tuple[tuple[int, ...], ...]
    codomain_homology: tuple[tuple[int, ...], ...]
    groupoid_check: bool | None
    notes: tuple[str, ...] = ()


def we_evidence(
    f: SimplicialMap,
    top: int,
    domain_groupoid: Groupoid | None = None,
    codomain_groupoid: Groupoid | None = None,
) -> EvidenceReport:
    """Homology-and-components evidence that f is a weak equivalence."""
    if top < 0:
        raise InputError(f"evidence degree bound {top} is negative")
    if top > min(f.domain.dim, f.codomain.dim) - 1:
        raise InputError("truncation too low for the requested evidence degree")
    notes: list[str] = []
    rep_d = pi0_sset(f.domain)
    rep_c = pi0_sset(f.codomain)
    reps = sorted(set(rep_d.values()), key=_tkey)
    induced = {r: rep_c[f.apply(0, r)] for r in reps}
    injective = len(set(induced.values())) == len(reps)
    surjective = set(induced.values()) == set(rep_c.values())
    pi0_ok = injective and surjective

    hd = homology(f.domain, top)
    hc = homology(f.codomain, top)
    matches = tuple(hd.factors[n] == hc.factors[n] for n in range(top + 1))

    groupoid_ok: bool | None = None
    if domain_groupoid is not None and codomain_groupoid is not None:
        groupoid_ok = True
        for v in reps:
            x = v[0]
            fx = f.apply(0, v)[0]
            ga = automorphism_group(domain_groupoid, x)
            gb = automorphism_group(codomain_groupoid, fx)
            mapping = {m: f.apply(1, (m,))[0] for m in ga.elements}
            if not is_group_isomorphism(ga, gb, mapping):
                groupoid_ok = False
                notes.append(f"automorphism comparison fails at component of {x!r}")
    passed = pi0_ok and all(matches) and groupoid_ok is not False
    return EvidenceReport(
        passed=passed,
        pi0_bijective=pi0_ok,
        homology_matches=matches,
        domain_homology=hd.factors,
        codomain_homology=hc.factors,
        groupoid_check=groupoid_ok,
        notes=tuple(notes),
    )


__all__ = [
    "BisimplicialSet",
    "EvidenceReport",
    "HomologyResult",
    "SimplicialMap",
    "TruncatedSimplicialSet",
    "boundary_entries",
    "compose_simplicial_maps",
    "diagonal",
    "disjoint_union_ssets",
    "homology",
    "identity_simplicial_map",
    "interchange_comparison",
    "nerve",
    "nerve_map",
    "pi0_sset",
    "simplex_table",
    "standard_simplex",
    "validate_bisimplicial",
    "validate_simplicial",
    "validate_simplicial_map",
    "we_evidence",
]
