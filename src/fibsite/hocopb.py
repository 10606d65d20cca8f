"""The homotopy-colimit / pullback adjunction over groupoid nerves.

A groupoid diagram assigns a truncated simplicial set to every object and a
simplicial map to every morphism.  Its homotopy colimit is the diagonal of
the simplicial replacement: an n-simplex is a pair (string, x) with x an
n-simplex of the value at the string's first vertex.  The pullback functor
goes the other way, sending a simplicial set over the nerve to the diagram
of triples (x, sigma, anchor) with the anchor based at sigma's first vertex
(the groupoid rewrite of the slice construction).  The unit and counit are
implemented at simplex level and satisfy the triangle identities exactly;
the sectionwise versions over a presheaf of groupoids carry the site actions
along unchanged.  The triangle identities are equations between
components, so ``check_triangles`` reads the unit's components and never
builds the unit's codomain hocolim(pb(...)); ``unit_eta`` builds it when a
caller asks for the map itself.

Both builders are deferred.  A hocolim or pb value builds its normalized
table (``sset.simplex_table``), which homology and path components read,
and its integer level (``sset._integer_level``) directly: a hocolim from
the nerve's and its values' integer levels, a pb value from x's table and
x's integer level.  ``sset`` writes every dict from the integer levels on
first read, in two parts: the cells (the simplices, and a map's
components), which the triangle checks and the counit read, and the maps
(faces and degeneracies), which only equality, pickling and the validators
read.  A hocolim builds its integer level only when that level or a dict
is read, and its table without it.  So the triangle checks and
``we_evidence`` on the unit and on each counit write no face or degeneracy
dict, and pb(hocolim(a)) reads hocolim(a)'s integer level, not its dicts.
The counit is remembered per diagram, so ``check_triangles(a=...)`` and
``counit_epsilon`` share one.

Inputs are validated once, at the public boundary: ``hocolim``, ``pb``,
``enriched_hocolim`` and ``enriched_pb`` validate a caller's argument before
their first build from it, and ``presheaf_hocolim_pb`` validates its enriched
input.  What the library feeds back in (``pb`` of a hocolim it built, the
sections of its own sectionwise results) goes to the unchecked builders
directly; the property test in ``tests/test_builders.py`` runs the validators
on every builder's output instead, and compares its dicts with hand-written
reference builders.  Every result is remembered for as long as
its argument object is alive, and the checked and unchecked paths share that
one entry, so the triangle checks, the unit, the counit and the sectionwise
run share one build of each intermediate.  Library values are immutable:
mutating a diagram or an over-object after passing it in is unsupported,
since a later call would return the result remembered for it.

Functor laws are checked degree by degree: a simplicial map is its
components, so an equation between composites of simplicial maps holds
exactly when it holds on the n-simplices for every n (Goerss & Jardine,
§I.1).  The validators check each degree's diagram of sets with
``fincat.validate_set_functor`` and ``fibred``'s enriched-diagram laws,
and keep no law loop of their own.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import partial
from itertools import repeat, tee
from operator import itemgetter

from .errors import InputError
from .fibred import EnrichedSetDiagram, PresheafOfGroupoids, _site_laws
from .fincat import (
    CONTRAVARIANT,
    COVARIANT,
    Groupoid,
    SetValuedFunctor,
    opposite,
    opposite_functor,
    validate_groupoid,
    validate_set_functor,
)
from .sset import (
    SimplicialMap,
    TruncatedSimplicialSet,
    _action_ids,
    _deferred,
    _equals_level_of,
    _integer_level,
    _level_cells,
    compose_simplicial_maps,
    nerve,
    nerve_map,
    simplex_table,
    validate_simplicial,
    validate_simplicial_map,
)


@dataclass(frozen=True)
class GroupoidDiagram:
    """A covariant diagram of truncated simplicial sets on a groupoid."""

    base: Groupoid
    value: dict[str, TruncatedSimplicialSet]
    action: dict[str, SimplicialMap]


def validate_diagram(a: GroupoidDiagram) -> list[str]:
    report = validate_groupoid(a.base)
    if report:
        return [f"base: {r}" for r in report]
    g = a.base
    dims = {a.value[y].dim for y in g.objects if y in a.value}
    for y in g.objects:
        if y not in a.value:
            report.append(f"no value at {y}")
            continue
        report.extend(f"value at {y}: {r}" for r in validate_simplicial(a.value[y]))
    if len(dims) > 1:
        report.append("values have mixed truncations")
    for m, (s, t) in g.morphisms.items():
        am = a.action.get(m)
        if am is None:
            report.append(f"no action for {m}")
            continue
        if am.domain != a.value[s] or am.codomain != a.value[t]:
            report.append(f"action of {m} has wrong endpoints")
            continue
        report.extend(f"action of {m}: {r}" for r in validate_simplicial_map(am))
    return report or _lowest_failing_degree(
        lambda value, action: validate_set_functor(
            SetValuedFunctor(base=g, variance=COVARIANT, value=value, action=action)
        ),
        {y: a.value[y].simplices for y in g.objects},
        {m: a.action[m].components for m in g.morphisms},
    )


def _lowest_failing_degree(report_at, simplices: dict, *components: dict) -> list[str]:
    """report_at on the sets' n-simplices and the maps' components in degree
    n, for n = 0, 1, ... in turn: the first nonempty report, each line
    prefixed with its degree.  Above its truncation a set or map is empty."""

    def degree(n: int, levels: dict) -> dict:
        return {k: level[n] if n < len(level) else {} for k, level in levels.items()}

    for n in range(max(map(len, simplices.values()), default=0)):
        report = report_at(degree(n, simplices), *(degree(n, c) for c in components))
        if report:
            return [f"degree {n}: {r}" for r in report]
    return []


@dataclass(frozen=True)
class OverNerve:
    """A truncated simplicial set with a structure map to a groupoid nerve."""

    base: Groupoid
    total: TruncatedSimplicialSet
    structure: SimplicialMap


def validate_over_nerve(x: OverNerve) -> list[str]:
    report = validate_groupoid(x.base)
    if report:
        return [f"base: {r}" for r in report]
    report.extend(validate_simplicial(x.total))
    if x.structure.domain != x.total:
        report.append("structure map does not start at the total object")
    if not _equals_level_of(x.structure.codomain, _remembered(x.base, nerve, x.total.dim)):
        report.append("structure map does not land in the base nerve")
    report.extend(validate_simplicial_map(x.structure))
    return report


# Results per argument object: id(argument) -> {(builder, *args): result}.
# The entry is dropped when its argument is collected, so an id is never
# reused while its entry exists.  A raised error is never stored.
_MEMO: dict[int, dict] = {}


def _entries(arg) -> dict:
    entries = _MEMO.get(id(arg))
    if entries is None:
        entries = _MEMO[id(arg)] = {}
        weakref.finalize(arg, _MEMO.pop, id(arg), None)
    return entries


def _remembered(arg, build, *args, check=None):
    """build(arg, *args), built once for as long as arg is alive.

    With a validator check, a caller's argument is validated before the first
    build from it; a nonempty report raises InputError.  The library calls
    without check on what it built itself, and both share one entry.
    """
    entries = _entries(arg)
    key = (build, *args)
    out = entries.get(key)
    if out is None:
        if check is not None:
            bad = check(arg)
            if bad:
                raise InputError("; ".join(bad))
        out = entries[key] = build(arg, *args)
    return out


def hocolim(a: GroupoidDiagram, d: int) -> OverNerve:
    """Diagonal of the simplicial replacement, over the nerve of the base.

    n-simplices are pairs (sigma, x) with sigma a nerve n-simplex and x an
    n-simplex of the value at sigma's first vertex; the 0-th face moves x
    along the string's first arrow before taking its value-level face.  a is
    validated before the first build from it, and the result is remembered
    for as long as a is alive.
    """
    return _remembered(a, _hocolim, d, check=validate_diagram)


def _hocolim(a: GroupoidDiagram, d: int) -> OverNerve:
    """The hocolim, with its normalized table, integer level and dicts deferred.

    ``_hocolim_levels`` gives the normalized table directly and, in its full
    mode, the integer level of the total and of the structure map, from
    which ``sset`` writes their dicts.  The full mode runs only when
    something reads that level or those dicts.  The deferred builds hold
    a's parts but not a itself, so the memo entry for a is freed with a.
    """
    g = a.base
    if any(a.value[y].dim < d for y in g.objects):
        raise InputError("diagram values truncated below the requested degree")
    ng = _remembered(g, nerve, d)
    parts = (g, ng, a.value, a.action, d)
    full = tee(_hocolim_levels(*parts, full=True), 2)
    total = _deferred(
        TruncatedSimplicialSet,
        dim=d,
        _levels=_hocolim_levels(*parts),
        _int_levels=map(itemgetter(0), full[0]),
    )
    structure = _deferred(
        SimplicialMap, domain=total, codomain=ng, _int_levels=map(itemgetter(1), full[1])
    )
    return OverNerve(base=g, total=total, structure=structure)


def _hocolim_levels(
    g: Groupoid, ng: TruncatedSimplicialSet, value: dict, action: dict, d: int, full=False
):
    """The hocolim's normalized table, or in full mode its integer level,
    one degree at a time.

    Degeneracies act on both parts of (sigma, x) at once, so (sigma, x) lies
    in the image of s_i iff arrow i of sigma is an identity and x lies in
    the image of s_i in the value at sigma's first vertex: its mask is
    sigma's mask in the nerve AND x's.  The table keeps the simplices of
    mask 0; the full mode keeps every one, and yields each degree as
    (tokens, masks, faces) with the structure map's action, the place of
    each simplex's sigma in the nerve.  Its faces are left to
    ``_hocolim_faces`` until they are read.  The nerve and every value are
    read as their integer levels and every action as its integer one
    (``sset._integer_level``, ``sset._action_ids``), so simplices are
    ordered by sigma's string-table order, then by x's place in that level,
    and face ids are looked up by position: no token is hashed.
    """
    # per string of degree n-1: place of x -> id of (string, x), or None
    below: list = []
    for n in range(d + 1):
        strings, string_masks, string_faces = _integer_level(ng, n)
        tokens: list = []
        masks: list = []
        over: list = []
        ids: list = []
        placed: list = []  # (k, sigma, key into kept, kept places) per string
        levels = {y: _level_cells(value[y], n) for y in g.objects}
        # (y, mask of sigma) -> the places of the x that pair with such a
        # sigma into a kept simplex, those x, all x's masks AND sigma's, and
        # the size of the value's level
        kept: dict = {}
        for k, sigma in enumerate(strings):
            key = (g.string_vertex(n, sigma), string_masks[k])
            entry = kept.get(key)
            if entry is None:
                xt, xm = levels[key[0]]
                keep = [j for j, b in enumerate(xm) if full or not b & key[1]]
                entry = kept[key] = (keep, [xt[j] for j in keep], [b & key[1] for b in xm], len(xt))
            keep, xs, kept_masks, size = entry
            start = len(tokens)
            if len(keep) == size:
                ids.append(range(start, start + size))
            else:
                here = [None] * size
                for i, j in enumerate(keep, start):
                    here[j] = i
                ids.append(here)
            tokens.extend(zip(repeat(sigma), xs))
            if full:
                masks.extend(kept_masks)
                over.extend(repeat(k, size))
            if n and keep:
                placed.append((k, sigma, key, keep))
        faces = partial(_hocolim_faces, g, n, placed, string_faces, below, value, action)
        yield ((tokens, masks, faces), over) if full else (tokens, faces())
        below = ids


def _hocolim_faces(
    g: Groupoid, n: int, placed: list, string_faces: list, below: list, value: dict, action: dict
) -> list:
    """The face ids of the simplices ``_hocolim_levels`` placed in degree n.

    Face 0 of (sigma, x) moves x along sigma's first arrow g1 before taking
    its face; face i > 0 takes face i of both parts.
    """
    faces: list = []
    columns: dict = {}  # (y, mask of sigma) -> the kept x's faces, a column per face map
    moves: dict = {}  # arrow -> its action's integer level n
    # y -> face 0 of each n-simplex of the value at y
    first = {y: [f[0] for f in _integer_level(value[y], n)[2]] for y in g.objects}
    for k, sigma, key, keep in placed:
        cols = columns.get(key)
        if cols is None:
            xf = _integer_level(value[key[0]], n)[2]
            cols = columns[key] = list(zip(*[xf[j] for j in keep]))
        g1 = sigma[0]
        moved = moves.get(g1)
        if moved is None:
            moved = moves[g1] = _action_ids(action[g1], n)
        sf = string_faces[k]
        d0 = first[g.target(g1)].__getitem__
        zeros = map(below[sf[0]].__getitem__, map(d0, map(moved.__getitem__, keep)))
        rest = [map(below[f].__getitem__, col) for f, col in zip(sf[1:], cols[1:])]
        faces.extend(zip(zeros, *rest))
    return faces


def pb(x: OverNerve) -> GroupoidDiagram:
    """Pull a simplicial set over the nerve back to a diagram on the groupoid.

    The value at y has n-simplices (x, gamma) with gamma: a_0 -> y anchored
    at the first vertex of the underlying string (the string itself is
    recoverable from the structure map, so tokens only store the anchor);
    the 0-th face reanchors by inverting the string's first arrow, which is
    where invertibility is genuinely required.  x is validated before the
    first build from it, and the result is remembered for as long as x is
    alive.
    """
    return _remembered(x, _pb, check=validate_over_nerve)


def _pb(x: OverNerve) -> GroupoidDiagram:
    """pb(x), with each value's normalized table and integer level built directly.

    Degeneracies act on t alone, so (t, gamma) is degenerate exactly when t
    is, and its mask is t's.  So a value's normalized table comes from x's
    table, and its integer level (every simplex with its mask) and the
    actions' integer levels come from x's integer level, in the order of t,
    then of gamma in ``hom``.  ``sset`` writes the dicts from the integer
    levels on first read.  The deferred builds hold x's parts, never x, so
    the memo entry for x is freed with x.
    """
    g = x.base
    total, structure = x.total, x.structure
    d = total.dim
    comp = g.composition
    objects = sorted(g.objects)
    arrows = sorted(g.morphisms)
    anchors = {(a0, y): g.hom(a0, y) for a0 in g.objects for y in g.objects}
    place = {key: {gamma: j for j, gamma in enumerate(hom)} for key, hom in anchors.items()}

    def rows(n: int, ts) -> list:
        # each t with its anchor vertex and, in positive degree, the inverse
        # of its string's first arrow
        over = structure.components[n]
        return [
            (t, g.string_vertex(n, over[t]), g.inverse[over[t][0]] if n else None)
            for t in ts
        ]

    def pulled(full: bool):
        """Per degree: the values' tables by object, or in full mode their
        integer levels by object and the actions' ids by arrow, read off
        x's view at n.  Full levels leave their faces and ids to
        ``pb_faces`` and ``action_ids`` until they are read."""
        below: dict = {}
        for n in range(d + 1):
            if full:
                xt, xm = _level_cells(total, n)
            else:
                xt, xm = simplex_table(total, n).tokens[n], None
            per = rows(n, xt)
            levels = {}
            offsets = {}
            for y in objects:
                tokens: list = []
                masks: list = []
                starts = offsets[y] = []
                for k, (t, a0, _inv) in enumerate(per):
                    here = anchors[(a0, y)]
                    starts.append(len(tokens))
                    tokens.extend(zip(repeat(t), here))
                    if full:
                        masks.extend(repeat(xm[k], len(here)))
                faces = partial(pb_faces, n, y, per, full, below.get(y))
                levels[y] = (tokens, masks, faces) if full else (tokens, faces())
            ids = {m: partial(action_ids, m, per, offsets) for m in arrows} if full else {}
            yield levels, ids
            below = offsets

    def pb_faces(n: int, y, per: list, full: bool, under: list) -> list:
        # face 0 re-anchors gamma along the inverse of t's first arrow; the
        # other faces keep it
        if not n:
            return []
        xf = _integer_level(total, n)[2] if full else simplex_table(total, n).faces[n]
        faces: list = []
        for k, (_t, a0, inv) in enumerate(per):
            here = anchors[(a0, y)]
            size = len(here)
            f0, *fs = xf[k]
            if f0 is None:
                zeros = repeat(None, size)
            else:
                at = place[(g.source(inv), y)]
                zeros = [under[f0] + at[comp[(gamma, inv)]] for gamma in here]
            rest = [repeat(None) if f is None else range(under[f], under[f] + size) for f in fs]
            faces.extend(zip(zeros, *rest))
        return faces

    def action_ids(m: str, per: list, offsets: dict) -> list:
        s, t_ = g.morphisms[m]
        starts = offsets[t_]
        return [
            starts[k] + place[(a0, t_)][comp[(m, gamma)]]
            for k, (_t, a0, _inv) in enumerate(per)
            for gamma in anchors[(a0, s)]
        ]

    tables = tee(pulled(False), len(objects))
    full = tee(pulled(True), len(objects) + len(arrows))
    value: dict[str, TruncatedSimplicialSet] = {}
    for y, own, ints in zip(objects, tables, full):
        value[y] = _deferred(
            TruncatedSimplicialSet,
            dim=d,
            _levels=map(itemgetter(y), map(itemgetter(0), own)),
            _int_levels=map(itemgetter(y), map(itemgetter(0), ints)),
        )
    action: dict[str, SimplicialMap] = {}
    for m, ints in zip(arrows, full[len(objects):]):
        s, t_ = g.morphisms[m]
        action[m] = _deferred(
            SimplicialMap,
            domain=value[s],
            codomain=value[t_],
            _int_levels=map(itemgetter(m), map(itemgetter(1), ints)),
        )
    return GroupoidDiagram(base=g, value=value, action=action)


def _unit_components(x: OverNerve) -> tuple[dict, ...]:
    """The unit's components at x: t over sigma goes to (sigma, (t, identity)).

    They land in hocolim(pb(x)), which is not built here; the triangle
    checks read only these components.
    """
    g = x.base
    comps = []
    for n in range(x.total.dim + 1):
        over = x.structure.components[n]
        cm = {}
        for t in x.total.simplices[n]:
            sigma = over[t]
            cm[t] = (sigma, (t, g.identity[g.string_vertex(n, sigma)]))
        comps.append(cm)
    return tuple(comps)


def _unit(x: OverNerve, target: OverNerve) -> SimplicialMap:
    """x -> target = hocolim(pb(x)), sending t over sigma to (sigma, (t, identity))."""
    return SimplicialMap(domain=x.total, codomain=target.total, components=_unit_components(x))


def _counit(a: GroupoidDiagram, p: GroupoidDiagram) -> dict[str, SimplicialMap]:
    """p = pb(hocolim(a)) -> a, pushing the carried simplex along the anchor."""
    d = next(iter(a.value.values())).dim
    out: dict[str, SimplicialMap] = {}
    for y in a.base.objects:
        comps = []
        for n in range(d + 1):
            cm = {}
            for tok in p.value[y].simplices[n]:
                (_sigma, x), gamma = tok
                cm[tok] = a.action[gamma].components[n][x]
            comps.append(cm)
        out[y] = SimplicialMap(domain=p.value[y], codomain=a.value[y], components=tuple(comps))
    return out


def unit_eta(x: OverNerve) -> SimplicialMap:
    """x -> hocolim(pb(x)), sending t over sigma to (sigma, (t, identity))."""
    return _unit(x, _remembered(pb(x), _hocolim, x.total.dim))


def _counit_at(a: GroupoidDiagram) -> dict[str, SimplicialMap]:
    """The counit at a, built once per diagram: the triangle check and
    ``counit_epsilon`` share it."""
    h = _remembered(a, _hocolim, next(iter(a.value.values())).dim)
    return _counit(a, _remembered(h, _pb))


def counit_epsilon(a: GroupoidDiagram) -> dict[str, SimplicialMap]:
    """pb(hocolim(a)) -> a, pushing the carried simplex along the anchor."""
    hocolim(a, next(iter(a.value.values())).dim)
    return dict(_remembered(a, _counit_at))


@dataclass(frozen=True)
class TriangleReport:
    hocolim_side: bool
    pb_side: bool

    @property
    def passed(self) -> bool:
        return self.hocolim_side and self.pb_side


def check_triangles(
    a: GroupoidDiagram | None = None, x: OverNerve | None = None
) -> TriangleReport:
    """Exact, simplex-by-simplex verification of both triangle identities.

    With a diagram a: hocolim(epsilon) after eta at hocolim(a) must be the
    identity.  With an over-object x: epsilon at pb(x) after pb(eta) must be
    the identity.  Either argument may be omitted.  The identities are
    equations between components, so only eta's components are read and its
    codomain hocolim(pb(...)) is never built; a unit value outside that
    codomain, or one the counit cannot push, fails its side.  Only a and x
    are validated; hocolim(a), pb(hocolim(a)) and pb(x) are built once each
    and shared with the unit and the counit.
    """
    hocolim_side = True
    pb_side = True
    if a is not None:
        g = a.base
        d = next(iter(a.value.values())).dim
        h = hocolim(a, d)
        eps = _remembered(a, _counit_at)
        for n, eta_n in enumerate(_unit_components(h)):
            eps_n = {y: m.components[n] for y, m in eps.items()}
            for tok in h.total.simplices[n]:
                # eta must stay over tok's string, at a simplex of
                # pb(hocolim(a)) there that the counit sends back to tok
                sigma, inner = eta_n[tok]
                if sigma != tok[0] or eps_n[g.string_vertex(n, sigma)].get(inner) != tok[1]:
                    hocolim_side = False
    if x is not None:
        g = x.base
        px = pb(x)
        nerve_simplices = x.structure.codomain.simplices
        for n, eta_n in enumerate(_unit_components(x)):
            # the t whose eta(t) = (sigma, inner) lies in hocolim(pb(x))
            lands = {
                t
                for t, (sigma, inner) in eta_n.items()
                if sigma in nerve_simplices[n]
                and inner in px.value[g.string_vertex(n, sigma)].simplices[n]
            }
            for y in g.objects:
                for (t, gamma) in px.value[y].simplices[n]:
                    # pb(eta) lifts the token, then the counit at pb(x)
                    # pushes the carried simplex along the anchor
                    _sigma, (t1, delta) = eta_n[t]
                    if t not in lands or t1 != t or g.composition.get((gamma, delta)) != gamma:
                        pb_side = False
    return TriangleReport(hocolim_side=hocolim_side, pb_side=pb_side)


def transpose_counit(x: OverNerve) -> SimplicialMap:
    """The comparison hocolim(pb(x)) -> x, as the adjoint transpose of the identity.

    Concretely (sigma, (t, gamma)) goes to t; left inverse to the unit, which
    tests verify exactly.
    """
    h = _remembered(pb(x), _hocolim, x.total.dim)
    comps = []
    for n in range(x.total.dim + 1):
        comps.append({(sigma, (t, gamma)): t for (sigma, (t, gamma)) in h.total.simplices[n]})
    return SimplicialMap(domain=h.total, codomain=x.total, components=tuple(comps))


# ---------------------------------------------------------------------------
# sectionwise (enriched) versions over a presheaf of groupoids


@dataclass(frozen=True)
class EnrichedGroupoidDiagram:
    """Sectionwise diagrams over the opposed fibres, tied by site actions.

    value[(U, x)] is a truncated simplicial set; cat_action[(U, gamma)] for
    gamma: x -> y in the fibre maps value[(U, y)] to value[(U, x)] (the
    sectionwise diagram lives on the opposite groupoid); site_action[(alpha,
    x)] maps value[(U, x)] to value[(V, alpha*(x))] degreewise.
    """

    base: PresheafOfGroupoids
    value: dict[tuple[str, str], TruncatedSimplicialSet]
    cat_action: dict[tuple[str, str], SimplicialMap]
    site_action: dict[tuple[str, str], SimplicialMap]


def section_diagram(x: EnrichedGroupoidDiagram, u: str) -> GroupoidDiagram:
    """The section at U as a diagram on the opposite fibre groupoid.

    The result is remembered for as long as x is alive, so hocolim and pb of
    a section are shared by every caller.
    """
    return _remembered(x, _section_diagram, u)


def _section_diagram(x: EnrichedGroupoidDiagram, u: str) -> GroupoidDiagram:
    fib = x.base.value[u]
    op = opposite(fib)
    return GroupoidDiagram(
        base=op,
        value={y: x.value[(u, y)] for y in fib.objects},
        action={m: x.cat_action[(u, m)] for m in fib.morphisms},
    )


def validate_enriched_diagram(x: EnrichedGroupoidDiagram) -> list[str]:
    report: list[str] = []
    a = x.base
    c = a.site
    for u in c.objects:
        report.extend(
            f"section at {u}: {r}" for r in validate_diagram(section_diagram(x, u))
        )
    if report:
        return report
    for alpha, (v, u) in c.morphisms.items():
        r = a.restriction[alpha]
        for ob in a.value[u].objects:
            sm = x.site_action.get((alpha, ob))
            if sm is None:
                report.append(f"no site action for ({alpha}, {ob})")
                continue
            if sm.domain != x.value[(u, ob)] or sm.codomain != x.value[(v, r.on_object(ob))]:
                report.append(f"site action for ({alpha}, {ob}) has wrong endpoints")
                continue
            report.extend(
                f"site action for ({alpha}, {ob}): {b}"
                for b in validate_simplicial_map(sm)
            )
    # the sections' laws are checked above, so only the site actions' remain
    return report or _lowest_failing_degree(
        lambda value, cat_action, site_action: _site_laws(
            EnrichedSetDiagram(base=a, value=value, cat_action=cat_action, site_action=site_action)
        ),
        {k: s.simplices for k, s in x.value.items()},
        {k: f.components for k, f in x.cat_action.items()},
        {k: f.components for k, f in x.site_action.items()},
    )


@dataclass(frozen=True)
class EnrichedOverNerve:
    """Sectionwise over-nerve objects tied by site actions over the op-nerves."""

    base: PresheafOfGroupoids
    sections: dict[str, OverNerve]
    site_action: dict[str, SimplicialMap]  # alpha -> total(U) -> total(V)


def validate_enriched_over_nerve(y: EnrichedOverNerve) -> list[str]:
    report: list[str] = []
    checked: dict[int, list[str]] = {}
    a = y.base
    c = a.site
    for u in c.objects:
        sec = y.sections.get(u)
        if sec is None:
            report.append(f"no section at {u}")
            continue
        if sec.base != opposite(a.value[u]):
            report.append(f"section at {u} not over the opposed fibre")
            continue
        # a section object shared by several site objects is checked once
        if id(sec) not in checked:
            checked[id(sec)] = validate_over_nerve(sec)
        report.extend(f"section at {u}: {r}" for r in checked[id(sec)])
    if report:
        return report
    dims = {y.sections[u].total.dim for u in c.objects}
    if len(dims) > 1:
        return ["sections have mixed truncations"]
    d = y.sections[next(iter(c.objects))].total.dim
    for alpha, (v, u) in c.morphisms.items():
        sm = y.site_action.get(alpha)
        if sm is None:
            report.append(f"no site action along {alpha}")
            continue
        if sm.domain != y.sections[u].total or sm.codomain != y.sections[v].total:
            report.append(f"site action along {alpha} has wrong endpoints")
            continue
        report.extend(
            f"site action along {alpha}: {b}" for b in validate_simplicial_map(sm)
        )
        # compatibility with the structure maps over the op-nerve restriction
        opr = nerve_map(opposite_functor(a.restriction[alpha]), d)
        lhs = compose_simplicial_maps(y.sections[v].structure, sm)
        rhs = compose_simplicial_maps(opr, y.sections[u].structure)
        if lhs.components != rhs.components:
            report.append(f"site action along {alpha} does not cover the nerve restriction")
    return report or _lowest_failing_degree(
        lambda value, action: validate_set_functor(
            SetValuedFunctor(base=c, variance=CONTRAVARIANT, value=value, action=action)
        ),
        {u: y.sections[u].total.simplices for u in c.objects},
        {alpha: f.components for alpha, f in y.site_action.items()},
    )


def enriched_hocolim(x: EnrichedGroupoidDiagram, d: int) -> EnrichedOverNerve:
    """Sectionwise homotopy colimit; site actions act on both components.

    x is validated before the first build from it, and the result is
    remembered for as long as x is alive.
    """
    return _remembered(x, _enriched_hocolim, d, check=validate_enriched_diagram)


def _enriched_hocolim(x: EnrichedGroupoidDiagram, d: int) -> EnrichedOverNerve:
    a = x.base
    c = a.site
    sections = {u: _remembered(section_diagram(x, u), _hocolim, d) for u in c.objects}
    site_action: dict[str, SimplicialMap] = {}
    for alpha, (v, u) in c.morphisms.items():
        opr = nerve_map(opposite_functor(a.restriction[alpha]), d)
        op = sections[u].base  # the opposed fibre at u
        comps = []
        for n in range(d + 1):
            cm = {}
            for (sigma, t) in sections[u].total.simplices[n]:
                y0 = op.string_vertex(n, sigma)
                cm[(sigma, t)] = (
                    opr.components[n][sigma],
                    x.site_action[(alpha, y0)].components[n][t],
                )
            comps.append(cm)
        site_action[alpha] = SimplicialMap(
            domain=sections[u].total,
            codomain=sections[v].total,
            components=tuple(comps),
        )
    return EnrichedOverNerve(base=a, sections=sections, site_action=site_action)


def enriched_pb(y: EnrichedOverNerve) -> EnrichedGroupoidDiagram:
    """Sectionwise pullback; site actions move carried simplices and anchors.

    y is validated before the first build from it, and the result is
    remembered for as long as y is alive.  The result's section at U is
    pb(y.sections[U]) itself, so one section object shared by several site
    objects gives one pullback and one hocolim of it.
    """
    return _remembered(y, _enriched_pb, check=validate_enriched_over_nerve)


def _enriched_pb(y: EnrichedOverNerve) -> EnrichedGroupoidDiagram:
    a = y.base
    c = a.site
    d = y.sections[next(iter(c.objects))].total.dim
    per_section = {u: _remembered(y.sections[u], _pb) for u in c.objects}
    value = {
        (u, ob): per_section[u].value[ob]
        for u in c.objects
        for ob in a.value[u].objects
    }
    cat_action = {
        (u, m): per_section[u].action[m]
        for u in c.objects
        for m in a.value[u].morphisms
    }
    site_action: dict[tuple[str, str], SimplicialMap] = {}
    for alpha, (v, u) in c.morphisms.items():
        r = a.restriction[alpha]
        for ob in a.value[u].objects:
            comps = []
            for n in range(d + 1):
                cm = {}
                for (t, gamma) in per_section[u].value[ob].simplices[n]:
                    cm[(t, gamma)] = (
                        y.site_action[alpha].apply(n, t),
                        r.on_morphism(gamma),
                    )
                comps.append(cm)
            site_action[(alpha, ob)] = SimplicialMap(
                domain=per_section[u].value[ob],
                codomain=per_section[v].value[r.on_object(ob)],
                components=tuple(comps),
            )
    p = EnrichedGroupoidDiagram(
        base=a, value=value, cat_action=cat_action, site_action=site_action
    )
    _entries(p).update(((_section_diagram, u), s) for u, s in per_section.items())
    return p


def enriched_unit(y: EnrichedOverNerve) -> dict[str, SimplicialMap]:
    """Per-section units; naturality in the site direction is exact.

    Each section is validated by ``pb`` before the first build from it.
    """
    return {u: unit_eta(y.sections[u]) for u in y.sections}


def enriched_counit(
    x: EnrichedGroupoidDiagram, d: int
) -> dict[tuple[str, str], SimplicialMap]:
    """Per-section counits, indexed by (U, fibre object), at the truncation
    of x's values, which d must equal.  Each section is validated by
    ``hocolim`` before the first build from it.
    """
    if any(v.dim != d for v in x.value.values()):
        raise InputError(f"the counit is computed at the values' truncation, not at {d}")
    out: dict[tuple[str, str], SimplicialMap] = {}
    for u in x.base.site.objects:
        eps = counit_epsilon(section_diagram(x, u))
        for ob, m in eps.items():
            out[(u, ob)] = m
    return out


@dataclass(frozen=True)
class EnrichedAdjunctionRun:
    """Outcome of applying the sectionwise adjunction to one enriched input."""

    kind: str  # "diagram" or "over"
    triangles: TriangleReport
    unit_natural: bool
    counit_natural: bool
    hocolim_object: EnrichedOverNerve | None = None
    pb_object: EnrichedGroupoidDiagram | None = None


def presheaf_hocolim_pb(
    obj: EnrichedGroupoidDiagram | EnrichedOverNerve, d: int
) -> EnrichedAdjunctionRun:
    """Apply hocolim/pb/unit/counit section by section and check coherence.

    For an enriched diagram the counit of its hocolim is checked natural for
    the site actions; for an enriched over-object, the unit is.  Triangle
    identities are verified exactly in every section.  obj is validated once;
    what is built from it is not validated again, and the unit, counit and
    triangle checks find every section's hocolim and pb already built.
    """
    a = obj.base
    on_diagram = isinstance(obj, EnrichedGroupoidDiagram)
    if on_diagram:
        h = enriched_hocolim(obj, d)
        p = _remembered(h, _enriched_pb)
        diagram, over = obj, h
        eps = enriched_counit(obj, d)
        # the counit's naturality squares: obj's site action after eps, and eps
        # after the site action of pb(hocolim(obj))
        squares = [
            (obj.site_action[(alpha, ob)], eps[(u, ob)],
             eps[(v, a.restriction[alpha].on_object(ob))], p.site_action[(alpha, ob)])
            for alpha, (v, u) in a.site.morphisms.items()
            for ob in a.value[u].objects
        ]
    else:
        p = enriched_pb(obj)
        h = _remembered(p, _enriched_hocolim, d)
        diagram, over = p, obj
        eta = enriched_unit(obj)
        # the unit's naturality squares: the site action of hocolim(pb(obj))
        # after eta, and eta after obj's site action
        squares = [
            (h.site_action[alpha], eta[u], eta[v], obj.site_action[alpha])
            for alpha, (v, u) in a.site.morphisms.items()
        ]
    natural = all(
        compose_simplicial_maps(g1, f1).components == compose_simplicial_maps(g2, f2).components
        for g1, f1, g2, f2 in squares
    )
    return EnrichedAdjunctionRun(
        kind="diagram" if on_diagram else "over",
        triangles=TriangleReport(
            hocolim_side=all(
                check_triangles(a=section_diagram(diagram, u)).hocolim_side for u in a.site.objects
            ),
            pb_side=all(check_triangles(x=over.sections[u]).pb_side for u in a.site.objects),
        ),
        unit_natural=on_diagram or natural,
        counit_natural=natural or not on_diagram,
        hocolim_object=h,
        pb_object=p,
    )
