"""Finite categories with explicit composition tables, and their basic calculus.

Objects and morphisms are opaque string identifiers; equality everywhere is
identifier equality.  Composition is stored as a total table, so every law is
exhaustively checkable.  All values are immutable after construction and all
operations are pure functions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple

from .errors import CapExceeded, InputError


@dataclass(frozen=True)
class FiniteCategory:
    """A finite category as explicit tables.

    morphisms maps a morphism name to its (source, target) pair; composition
    maps every composable pair (g, f) with target(f) == source(g) to g after f.
    """

    objects: tuple[str, ...]
    morphisms: dict[str, tuple[str, str]]
    identity: dict[str, str]
    composition: dict[tuple[str, str], str]

    def source(self, m: str) -> str:
        return self.morphisms[m][0]

    def target(self, m: str) -> str:
        return self.morphisms[m][1]

    def compose(self, g: str, f: str) -> str:
        """g after f."""
        return self.composition[(g, f)]

    @cached_property
    def _identity_set(self) -> frozenset[str]:
        return frozenset(self.identity.values())

    def is_identity(self, m: str) -> bool:
        return m in self._identity_set

    @cached_property
    def _into(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {u: [] for u in self.objects}
        for m in sorted(self.morphisms):
            out[self.target(m)].append(m)
        return {u: tuple(v) for u, v in out.items()}

    @cached_property
    def _out_of(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {u: [] for u in self.objects}
        for m in sorted(self.morphisms):
            out[self.source(m)].append(m)
        return {u: tuple(v) for u, v in out.items()}

    def into(self, u: str) -> tuple[str, ...]:
        """All morphisms with target u."""
        return self._into[u]

    def out_of(self, u: str) -> tuple[str, ...]:
        return self._out_of[u]

    @cached_property
    def _hom(self) -> dict[tuple[str, str], tuple[str, ...]]:
        out: dict[tuple[str, str], list[str]] = {}
        for m in sorted(self.morphisms):
            out.setdefault(self.morphisms[m], []).append(m)
        return {ends: tuple(ms) for ends, ms in out.items()}

    def hom(self, a: str, b: str) -> tuple[str, ...]:
        """The arrows a -> b in name order; KeyError if b is not an object."""
        arrows = self._hom.get((a, b))
        if arrows is None:
            if b not in self._into:
                raise KeyError(b)
            return ()
        return arrows

    def string_vertex(self, n: int, t: tuple[str, ...], i: int = 0) -> str:
        """The i-th object along a degree-n string token (see ``string_table``).

        The degree decides the token's shape: a degree-0 string is
        ``(object,)``, and any longer one is a tuple of arrows.
        """
        if n == 0:
            return t[0]
        if i == 0:
            return self.morphisms[t[0]][0]
        return self.morphisms[t[i - 1]][1]


class StringTable(NamedTuple):
    """Simplices per degree, numbered from 0 in each degree.

    ``string_table`` fills it with composable strings, and
    ``sset.simplex_table`` with the nondegenerate simplices of a simplicial
    set.  tokens[n][k] is simplex k of degree n; faces[n][k] holds its face
    ids in degree n-1, in vertex-deletion order, with None for a degenerate
    face, such as one that contains a left-out identity (degree 0 has no
    faces).
    """

    tokens: list[list[tuple[str, ...]]]
    faces: list[list[tuple]]


def string_table(
    c: FiniteCategory, top: int, normalized: bool = False, max_strings: float = math.inf
) -> StringTable:
    """Composable strings of degrees 0..top, numbered in lexicographic order.

    This is the one enumerator of composable strings: nerves, the two-sided
    comparison and the cochain complexes all read it.  A token is
    ``(object,)`` in degree 0 and the tuple of its arrows above that.
    Degree n extends each degree n-1 string by one arrow, so a token is its
    parent's plus the last arrow; the children of a string get consecutive
    ids in arrow-name order, so ids follow the lexicographic order of the
    tokens.  With normalized set, identity arrows are left out; without it
    no face id is None.  Face ids come from the parent's: face i of p.m is
    (face i of p).m, the next-to-last face is the last face of p extended by
    the composite of p's last arrow and m, and the last face is p.  A degree
    with more than max_strings strings raises CapExceeded as soon as its
    count passes the cap.
    """
    ends, compose = c.morphisms, c.composition
    out_of = c._out_of
    pool = sorted(ends)
    if normalized:
        skip = c._identity_set
        out_of = {u: [m for m in ms if m not in skip] for u, ms in out_of.items()}
        pool = [m for m in pool if m not in skip]
    place = {m: k for arrows in out_of.values() for k, m in enumerate(arrows)}

    def within_cap(n: int, count: int) -> None:
        if count > max_strings:
            raise CapExceeded(f"more than {max_strings} strings in degree {n}")

    table = StringTable([], [])
    if top < 0:
        return table
    objects = sorted(c.objects)
    within_cap(0, len(objects))
    table.tokens.append([(u,) for u in objects])
    table.faces.append([])
    if top < 1:
        return table
    within_cap(1, len(pool))
    obj_id = {u: k for k, u in enumerate(objects)}
    table.tokens.append([(m,) for m in pool])
    table.faces.append([(obj_id[ends[m][1]], obj_id[ends[m][0]]) for m in pool])
    # children[s][k] is the id of string s (two degrees down) followed by the
    # k-th arrow leaving its last vertex; degree-1 ids follow arrow names,
    # not sources, so the children of an object are looked up one by one
    one = {m: k for k, m in enumerate(pool)}
    children: list = [[one[m] for m in out_of[u]] for u in objects]
    # per last arrow a: the arrows m that may follow it, and the place of
    # m.a among the arrows leaving a's source (None for an omitted identity)
    after = {}
    if top >= 2:
        for a in pool:
            arrows = out_of[ends[a][1]]
            after[a] = (arrows, [place.get(compose[(m, a)]) for m in arrows])
    for n in range(2, top + 1):
        tokens: list[tuple[str, ...]] = []
        faces: list[tuple] = []
        starts: list[range] = []
        for p, (tok, pf) in enumerate(zip(table.tokens[n - 1], table.faces[n - 1])):
            arrows, places = after[tok[-1]]
            starts.append(range(len(tokens), len(tokens) + len(arrows)))
            # the inner faces of p end where p ends, so their children line
            # up with p's: row k holds the inner faces of p's k-th child
            none = (None,) * len(arrows)
            inner = zip(*[none if f is None else children[f] for f in pf[:-1]])
            tail = children[pf[-1]]
            for m, row, j in zip(arrows, inner, places):
                faces.append(row + (None if j is None else tail[j], p))
                tokens.append(tok + (m,))
            within_cap(n, len(tokens))
        table.tokens.append(tokens)
        table.faces.append(faces)
        children = starts
    return table


def validate_category(c: FiniteCategory) -> list[str]:
    """Report of violated category laws; empty iff c is a valid category."""
    return _table_report(c) or _law_report(c)


def _table_report(c: FiniteCategory) -> list[str]:
    """Objects, identities and a total, well-typed composition table."""
    report: list[str] = []
    objset = set(c.objects)
    if len(c.objects) != len(objset):
        report.append("duplicate object identifiers")
    for m, (s, t) in c.morphisms.items():
        if s not in objset or t not in objset:
            report.append(f"morphism {m} has unknown endpoint")
        # nerve strings tell a vertex (u,) from an edge (m,) by membership
        # in the objects, so the two name spaces must not overlap
        if m in objset:
            report.append(f"morphism {m} has the same identifier as an object")
    for u in c.objects:
        i = c.identity.get(u)
        if i is None or i not in c.morphisms:
            report.append(f"object {u} has no identity morphism")
        elif c.morphisms[i] != (u, u):
            report.append(f"identity of {u} is not an endomorphism of {u}")
    # totality and typing of the composition table
    ends, comp = c.morphisms, c.composition
    for (g, (gs, gt)), (f, (fs, ft)) in itertools.product(ends.items(), repeat=2):
        composable = ft == gs
        present = (g, f) in comp
        if composable and not present:
            report.append(f"missing composite {g}.{f}")
        elif not composable and present:
            report.append(f"spurious composite {g}.{f}")
        elif present:
            h = comp[(g, f)]
            if h not in ends:
                report.append(f"composite {g}.{f} is not a morphism")
            elif ends[h] != (fs, gt):
                report.append(f"composite {g}.{f} has wrong endpoints")
    # a pair with a factor that is no morphism is never composable
    report.extend(f"spurious composite {g}.{f}" for g, f in comp if g not in ends or f not in ends)
    return report


def _law_report(c: FiniteCategory) -> list[str]:
    """Unit and associativity laws, read off a table ``_table_report`` passed."""
    report: list[str] = []
    ends, comp, identity, out_of = c.morphisms, c.composition, c.identity, c._out_of
    # unit laws
    for m, (s, t) in ends.items():
        if comp[(m, identity[s])] != m:
            report.append(f"right unit law fails for {m}")
        if comp[(identity[t], m)] != m:
            report.append(f"left unit law fails for {m}")
    # associativity on every composable triple: after[k] lists h k for the
    # h leaving k's target, so (h g) f = h (g f) for every h says that
    # precomposing after[g] with f gives after[g f]
    after = {k: [comp[(h, k)] for h in out_of[t]] for k, (_, t) in ends.items()}
    for f, (_, b) in ends.items():
        with_f = dict(zip(out_of[b], after[f])).__getitem__
        for g in out_of[b]:
            gf = comp[(g, f)]
            if list(map(with_f, after[g])) != after[gf]:
                for h, hg, h_gf in zip(out_of[ends[g][1]], after[g], after[gf]):
                    if with_f(hg) != h_gf:
                        report.append(f"associativity fails on ({h}, {g}, {f})")
    return report


@dataclass(frozen=True)
class Groupoid(FiniteCategory):
    """A finite category in which every morphism has a recorded inverse."""

    inverse: dict[str, str] = field(default_factory=dict)


def validate_groupoid(g: Groupoid) -> list[str]:
    # the inverse laws compose, so they wait for a total, well-typed table
    return _table_report(g) or _law_report(g) + _inverse_laws(g)


def _inverse_laws(g: Groupoid) -> list[str]:
    """The inverse-law part of validate_groupoid's report."""
    report: list[str] = []
    for m in g.morphisms:
        inv = g.inverse.get(m)
        if inv is None or inv not in g.morphisms:
            report.append(f"no inverse recorded for {m}")
            continue
        s, t = g.morphisms[m]
        if g.morphisms[inv] != (t, s):
            report.append(f"inverse of {m} has wrong endpoints")
            continue
        if g.compose(inv, m) != g.identity[s] or g.compose(m, inv) != g.identity[t]:
            report.append(f"inverse law fails for {m}")
    return report


def is_isomorphism(c: FiniteCategory, m: str) -> bool:
    s, t = c.morphisms[m]
    for w in c.hom(t, s):
        if c.compose(w, m) == c.identity[s] and c.compose(m, w) == c.identity[t]:
            return True
    return False


@dataclass(frozen=True)
class Functor:
    domain: FiniteCategory
    codomain: FiniteCategory
    object_map: dict[str, str]
    morphism_map: dict[str, str]

    def on_object(self, x: str) -> str:
        return self.object_map[x]

    def on_morphism(self, m: str) -> str:
        return self.morphism_map[m]


def validate_functor(f: Functor) -> list[str]:
    report: list[str] = []
    dom, cod = f.domain, f.codomain
    omap, mmap = f.object_map, f.morphism_map
    objects = set(cod.objects)
    for x in dom.objects:
        if omap.get(x) not in objects:
            report.append(f"object {x} not mapped into codomain")
    for m, (s, t) in dom.morphisms.items():
        fm = mmap.get(m)
        if fm is None or fm not in cod.morphisms:
            report.append(f"morphism {m} not mapped into codomain")
            continue
        if cod.morphisms[fm] != (omap.get(s), omap.get(t)):
            report.append(f"image of {m} has wrong endpoints")
    if report:
        return report
    for x in dom.objects:
        if mmap[dom.identity[x]] != cod.identity[omap[x]]:
            report.append(f"identity of {x} not preserved")
    comp = cod.composition
    for (g, h), gh in dom.composition.items():
        if comp[(mmap[g], mmap[h])] != mmap[gh]:
            report.append(f"composition not preserved on ({g}, {h})")
    return report


def identity_functor(c: FiniteCategory) -> Functor:
    return Functor(
        domain=c,
        codomain=c,
        object_map={x: x for x in c.objects},
        morphism_map={m: m for m in c.morphisms},
    )


def compose_functors(g: Functor, f: Functor) -> Functor:
    if g.domain != f.codomain:
        raise InputError("functors not composable")
    return Functor(
        domain=f.domain,
        codomain=g.codomain,
        object_map={x: g.object_map[f.object_map[x]] for x in f.domain.objects},
        morphism_map={m: g.morphism_map[f.morphism_map[m]] for m in f.domain.morphisms},
    )


def opposite(c: FiniteCategory) -> FiniteCategory:
    """Same identifiers, sources and targets swapped, composition transposed."""
    morphisms = {m: (t, s) for m, (s, t) in c.morphisms.items()}
    composition = {(g, f): h for (f, g), h in c.composition.items()}
    if isinstance(c, Groupoid):
        return Groupoid(
            objects=c.objects,
            morphisms=morphisms,
            identity=dict(c.identity),
            composition=composition,
            inverse=dict(c.inverse),
        )
    return FiniteCategory(
        objects=c.objects,
        morphisms=morphisms,
        identity=dict(c.identity),
        composition=composition,
    )


def opposite_functor(f: Functor) -> Functor:
    return Functor(
        domain=opposite(f.domain),
        codomain=opposite(f.codomain),
        object_map=dict(f.object_map),
        morphism_map=dict(f.morphism_map),
    )


# ---------------------------------------------------------------------------
# comma categories


@dataclass(frozen=True)
class CommaCategory:
    """The category f/y together with its bookkeeping maps.

    object_pair maps a comma object id, pair_name(x, h), to (x, h: f(x) -> y);
    morphism_under maps a comma morphism id to the underlying domain morphism.
    """

    category: FiniteCategory
    object_pair: dict[str, tuple[str, str]]
    morphism_under: dict[str, str]
    projection: Functor


def comma_data(f: Functor, y: str) -> CommaCategory:
    """The comma category f/y, named as ``CommaCategory`` says.

    A '|' or '>' inside a name can print two comma objects or two comma
    arrows alike; that raises ``InputError`` naming the shared name.
    """
    cod = f.codomain
    dom = f.domain
    if y not in set(cod.objects):
        raise InputError(f"object {y} not in codomain")

    def clash(kind: str, name: str) -> InputError:
        return InputError(f"two comma {kind} over {y} are both named {name}; a name holds '|' or '>'")

    obj_of: dict[tuple[str, str], str] = {}
    object_pair: dict[str, tuple[str, str]] = {}
    for x in sorted(dom.objects):
        for h in cod.hom(f.on_object(x), y):
            a = pair_name(x, h)
            if a in object_pair:
                raise clash("objects", a)
            obj_of[(x, h)] = a
            object_pair[a] = (x, h)
    morphisms: dict[str, tuple[str, str]] = {}
    under: dict[str, str] = {}
    mor_of: dict[tuple[str, str, str], str] = {}
    # the arrows into each comma object, in construction order
    into: dict[str, list[str]] = {}
    pairs = sorted(obj_of.items())
    comp, fm, hom = cod.composition, f.morphism_map, dom._hom
    for (x, h), a in pairs:
        for (x2, h2), b in pairs:
            for m in hom.get((x, x2), ()):
                if comp[(h2, fm[m])] == h:
                    name = f"({m}|{h}>{h2})"
                    if name in morphisms:
                        raise clash("arrows", name)
                    morphisms[name] = (a, b)
                    under[name] = m
                    mor_of[(m, a, b)] = name
                    into.setdefault(b, []).append(name)
    identity = {a: mor_of[(dom.identity[x], a, a)] for (x, _h), a in obj_of.items()}
    composition: dict[tuple[str, str], str] = {}
    for n2, (b, c_) in morphisms.items():
        for n1 in into.get(b, ()):
            a = morphisms[n1][0]
            composition[(n2, n1)] = mor_of[(dom.compose(under[n2], under[n1]), a, c_)]
    cat = FiniteCategory(
        objects=tuple(sorted(object_pair)),
        morphisms=morphisms,
        identity=identity,
        composition=composition,
    )
    proj = Functor(
        domain=cat,
        codomain=dom,
        object_map={a: x for a, (x, _h) in object_pair.items()},
        morphism_map=dict(under),
    )
    return CommaCategory(
        category=cat, object_pair=object_pair, morphism_under=under, projection=proj,
    )


def comma_category(f: Functor, y: str) -> FiniteCategory:
    return comma_data(f, y).category


# ---------------------------------------------------------------------------
# connected components


def _least_representatives(items, links, key=None) -> dict:
    """Map each item to the least member of its class, where the classes are
    those of the equivalence relation generated by the pairs in ``links``.

    Least means least under ``key`` (the items themselves when it is None).
    The root of every class is its least member, since a union keeps the
    lesser root, so the result does not depend on the order of the links.
    """
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = (ra, rb) if (key(ra) < key(rb) if key else ra < rb) else (rb, ra)
            parent[hi] = lo
    return {x: find(x) for x in parent}


def pi0(c: FiniteCategory) -> dict[str, str]:
    """Map each object to the least object of its zig-zag component."""
    return _least_representatives(c.objects, c.morphisms.values())


def pi0_classes(c: FiniteCategory) -> tuple[tuple[str, ...], ...]:
    rep = pi0(c)
    classes: dict[str, list[str]] = {}
    for u in sorted(c.objects):
        classes.setdefault(rep[u], []).append(u)
    return tuple(tuple(v) for _, v in sorted(classes.items()))


# ---------------------------------------------------------------------------
# set-valued functors, colimits, pointwise left Kan extension

COVARIANT = "covariant"
CONTRAVARIANT = "contravariant"


@dataclass(frozen=True)
class SetValuedFunctor:
    """Finite set-valued diagram on a finite category.

    For a covariant functor, action[m] maps value[source(m)] to
    value[target(m)]; contravariant swaps the two.
    """

    base: FiniteCategory
    variance: str
    value: dict[str, tuple[str, ...]]
    action: dict[str, dict[str, str]]

    def act(self, m: str, elem: str) -> str:
        return self.action[m][elem]


def _action_endpoints(f: SetValuedFunctor, m: str) -> tuple[str, str]:
    s, t = f.base.morphisms[m]
    return (s, t) if f.variance == COVARIANT else (t, s)


def validate_set_functor(f: SetValuedFunctor) -> list[str]:
    report: list[str] = []
    if f.variance not in (COVARIANT, CONTRAVARIANT):
        return [f"unknown variance {f.variance!r}"]
    value_sets: dict[str, set[str]] = {}
    for u in f.base.objects:
        values = f.value.get(u)
        if values is None:
            report.append(f"no value at {u}")
            continue
        value_sets[u] = set(values)
        if len(value_sets[u]) < len(values):
            # a repeated element would count as two sections
            twice = next(e for i, e in enumerate(values) if e in values[:i])
            report.append(f"value at {u} repeats {twice}")
    for m in f.base.morphisms:
        if m not in f.action:
            report.append(f"no action for {m}")
    if report:
        return report
    for m in f.base.morphisms:
        src, tgt = _action_endpoints(f, m)
        amap = f.action[m]
        if amap.keys() != value_sets[src]:
            report.append(f"action of {m} not defined on exactly the value set")
            continue
        if not value_sets[tgt].issuperset(amap.values()):
            report.append(f"action of {m} escapes the target value set")
    if report:
        return report
    ends, action = f.base.morphisms, f.action
    loop_at: dict[str, str] = {}  # identity -> its object, for loops acting as one
    for u in f.base.objects:
        i = f.base.identity[u]
        if any(action[i][e] != e for e in f.value[u]):
            report.append(f"identity action at {u} is not the identity")
        elif ends.get(i) == (u, u):
            loop_at[i] = u
    for (g, h), gh in f.base.composition.items():
        # (g, id_u) with composite g out of u, and (id_u, h) with composite
        # h into u, hold whenever id_u acts as the identity, so the every-
        # pair check would report neither
        if gh == g and h in loop_at and ends.get(g, (None,))[0] == loop_at[h]:
            continue
        if gh == h and g in loop_at and ends.get(h, (None, None))[1] == loop_at[g]:
            continue
        if f.variance == COVARIANT:
            lhs = {e: action[g][x] for e, x in action[h].items()}
        else:
            lhs = {e: action[h][x] for e, x in action[g].items()}
        if lhs != action[gh]:
            report.append(f"functoriality fails on ({g}, {h})")
    return report


@dataclass(frozen=True)
class ColimitCocone:
    """Colimit set of a covariant diagram with its cocone legs."""

    elements: tuple[str, ...]
    leg: dict[str, dict[str, str]]


def _class_name(pair: tuple[str, str]) -> str:
    return f"[{pair[0]}|{pair[1]}]"


def colim_set(f: SetValuedFunctor) -> ColimitCocone:
    """Colimit of a covariant set-valued functor as a concrete quotient."""
    if f.variance != COVARIANT:
        raise InputError("colim_set requires a covariant functor")
    pairs = [(u, e) for u in sorted(f.base.objects) for e in sorted(f.value[u])]
    rep = _least_representatives(
        pairs,
        (
            ((s, e), (t, f.act(m, e)))
            for m, (s, t) in f.base.morphisms.items()
            for e in f.value[s]
        ),
    )
    leg = {
        u: {e: _class_name(rep[(u, e)]) for e in f.value[u]}
        for u in f.base.objects
    }
    elements = tuple(sorted({_class_name(r) for r in rep.values()}))
    return ColimitCocone(elements=elements, leg=leg)


def _comma_cocones(
    along: Functor, f: SetValuedFunctor
) -> dict[str, tuple[CommaCategory, ColimitCocone]]:
    """Per object b of the codomain: the comma category along/b and the
    colimit of the covariant diagram f pulled back to it (CWM X.3).

    This is the one place comma colimits are built; the pointwise left Kan
    extensions here and in ``fibred`` read their values and legs from it.
    """
    out: dict[str, tuple[CommaCategory, ColimitCocone]] = {}
    for b in along.codomain.objects:
        cd = comma_data(along, b)
        diagram = SetValuedFunctor(
            base=cd.category,
            variance=COVARIANT,
            value={a: f.value[x] for a, (x, _) in cd.object_pair.items()},
            action={m: f.action[under] for m, under in cd.morphism_under.items()},
        )
        out[b] = (cd, colim_set(diagram))
    return out


def left_kan_set(along: Functor, f: SetValuedFunctor) -> SetValuedFunctor:
    """Pointwise left Kan extension of a covariant set diagram.

    The value at b is the colimit of f pulled back to the comma category
    along/b; the action of n: b -> b' pushes comma objects forward by
    postcomposition.
    """
    if f.variance != COVARIANT:
        raise InputError("left_kan_set requires a covariant functor")
    if f.base != along.domain:
        raise InputError("diagram must live on the domain of the functor")
    cod = along.codomain
    cocones = _comma_cocones(along, f)
    value = {b: cocones[b][1].elements for b in cod.objects}
    action: dict[str, dict[str, str]] = {}
    for n, (b, b2) in cod.morphisms.items():
        (cd, cocone), leg2 = cocones[b], cocones[b2][1].leg
        amap: dict[str, str] = {}
        for a, (x, h) in cd.object_pair.items():
            a2 = pair_name(x, cod.compose(n, h))
            for e in f.value[x]:
                amap[cocone.leg[a][e]] = leg2[a2][e]
        action[n] = amap
    return SetValuedFunctor(base=cod, variance=COVARIANT, value=value, action=action)


# ---------------------------------------------------------------------------
# equivalences and automorphism groups


def is_fully_faithful(f: Functor) -> bool:
    dom, cod = f.domain, f.codomain
    for a in dom.objects:
        for b in dom.objects:
            hom_ab = dom.hom(a, b)
            images = {f.on_morphism(m) for m in hom_ab}
            if len(images) != len(hom_ab):
                return False
            if images != set(cod.hom(f.on_object(a), f.on_object(b))):
                return False
    return True


def is_essentially_surjective(f: Functor) -> bool:
    """Every codomain object is isomorphic to an image object: its class
    under the isomorphisms meets the image."""
    cod = f.codomain
    rep = _least_representatives(
        cod.objects, (st for m, st in cod.morphisms.items() if is_isomorphism(cod, m))
    )
    hit = {rep[f.on_object(x)] for x in f.domain.objects}
    return all(rep[y] in hit for y in cod.objects)


def is_equivalence(f: Functor) -> bool:
    """Brute-force test: essentially surjective and fully faithful."""
    return is_fully_faithful(f) and is_essentially_surjective(f)


@dataclass(frozen=True)
class GroupTable:
    """A finite group presented by its multiplication table."""

    elements: tuple[str, ...]
    unit: str
    mult: dict[tuple[str, str], str]

    def order_of(self, g: str) -> int:
        n, x = 1, g
        while x != self.unit:
            x = self.mult[(x, g)]
            n += 1
        return n


def automorphism_group(c: FiniteCategory, x: str) -> GroupTable:
    """The group of automorphisms of x (requires them to be closed, e.g. groupoids)."""
    elems = tuple(m for m in c.hom(x, x) if is_isomorphism(c, m))
    mult = {(g, h): c.compose(g, h) for g in elems for h in elems}
    return GroupTable(elements=elems, unit=c.identity[x], mult=mult)


def groups_isomorphic(a: GroupTable, b: GroupTable) -> bool:
    """Brute-force isomorphism search, meant for groups of order <= 8."""
    if len(a.elements) != len(b.elements):
        return False
    if sorted(a.order_of(g) for g in a.elements) != sorted(
        b.order_of(g) for g in b.elements
    ):
        return False
    others_a = [g for g in a.elements if g != a.unit]
    by_order: dict[int, list[str]] = {}
    for h in b.elements:
        by_order.setdefault(b.order_of(h), []).append(h)

    def extend(assign: dict[str, str], used: set[str]) -> bool:
        if len(assign) == len(a.elements):
            return all(
                assign[a.mult[(g, h)]] == b.mult[(assign[g], assign[h])]
                for g in a.elements
                for h in a.elements
            )
        g = others_a[len(assign) - 1]
        for h in by_order.get(a.order_of(g), []):
            if h in used:
                continue
            assign[g] = h
            used.add(h)
            ok = True
            for k in list(assign):
                gk = a.mult[(g, k)]
                kg = a.mult[(k, g)]
                if gk in assign and assign[gk] != b.mult[(h, assign[k])]:
                    ok = False
                if ok and kg in assign and assign[kg] != b.mult[(assign[k], h)]:
                    ok = False
                if not ok:
                    break
            if ok and extend(assign, used):
                return True
            del assign[g]
            used.discard(h)
        return False

    return extend({a.unit: b.unit}, {b.unit})


def is_group_isomorphism(a: GroupTable, b: GroupTable, mapping: dict[str, str]) -> bool:
    if set(mapping) != set(a.elements):
        return False
    if sorted(mapping.values()) != sorted(b.elements):
        return False
    return all(
        mapping[a.mult[(g, h)]] == b.mult[(mapping[g], mapping[h])]
        for g in a.elements
        for h in a.elements
    )


# ---------------------------------------------------------------------------
# builders


def _id_name(obj: str) -> str:
    return f"id_{obj}"


def build_category(
    objects: Iterable[str],
    arrows: dict[str, tuple[str, str]],
    compose: dict[tuple[str, str], str],
) -> FiniteCategory:
    """Assemble a category from non-identity arrows and their composites.

    Identities are created automatically (named id_<object>) and composites
    with identities are filled in.
    """
    objs = tuple(sorted(objects))
    morphisms = {_id_name(u): (u, u) for u in objs}
    for m, (s, t) in arrows.items():
        if m in morphisms:
            raise InputError(f"morphism name {m} collides with an identity")
        morphisms[m] = (s, t)
    identity = {u: _id_name(u) for u in objs}
    composition: dict[tuple[str, str], str] = {}
    for m, (s, t) in morphisms.items():
        composition[(m, identity[s])] = m
        composition[(identity[t], m)] = m
    for (g, f), h in compose.items():
        composition[(g, f)] = h
    return FiniteCategory(
        objects=objs, morphisms=morphisms, identity=identity, composition=composition
    )


def terminal_category(obj: str = "*") -> FiniteCategory:
    return build_category([obj], {}, {})


def discrete_category(objects: Iterable[str]) -> FiniteCategory:
    return build_category(objects, {}, {})


def poset_chain(names: Iterable[str]) -> FiniteCategory:
    """The total order on the given objects: names[0] -> names[1] -> ...

    Non-identity arrows are named a_<src>_<tgt> for every src < tgt.
    """
    ns = list(names)
    arrows = {}
    for i in range(len(ns)):
        for j in range(i + 1, len(ns)):
            arrows[f"a_{ns[i]}_{ns[j]}"] = (ns[i], ns[j])
    compose = {}
    for i in range(len(ns)):
        for j in range(i + 1, len(ns)):
            for k in range(j + 1, len(ns)):
                g = f"a_{ns[j]}_{ns[k]}"
                f = f"a_{ns[i]}_{ns[j]}"
                compose[(g, f)] = f"a_{ns[i]}_{ns[k]}"
    return build_category(ns, arrows, compose)


def cyclic_groupoid(k: int, obj: str = "*") -> Groupoid:
    """The cyclic group of order k as a one-object groupoid (r1 generates)."""
    if k < 1:
        raise InputError("group order must be positive")
    name = {0: _id_name(obj)}
    for i in range(1, k):
        name[i] = f"r{i}"
    morphisms = {name[i]: (obj, obj) for i in range(k)}
    composition = {
        (name[i], name[j]): name[(i + j) % k] for i in range(k) for j in range(k)
    }
    return Groupoid(
        objects=(obj,),
        morphisms=morphisms,
        identity={obj: name[0]},
        composition=composition,
        inverse={name[i]: name[(-i) % k] for i in range(k)},
    )


def codiscrete_groupoid(objects: Iterable[str]) -> Groupoid:
    """Exactly one morphism between any two objects (a contractible groupoid)."""
    return group_block_groupoid(objects, 1)


def group_block_groupoid(objects: Iterable[str], k: int) -> Groupoid:
    """Connected groupoid on the given objects with Z/k automorphism groups.

    Morphism x -> y carrying the group element i is named gi_<x>_<y>; the
    composite multiplies the labels.  k = 1 gives the codiscrete groupoid.
    """
    objs = tuple(sorted(objects))
    if k < 1:
        raise InputError("group order must be positive")

    def name(i: int, x: str, y: str) -> str:
        if i == 0 and x == y:
            return _id_name(x)
        return f"g{i}_{x}_{y}"

    morphisms = {}
    for x in objs:
        for y in objs:
            for i in range(k):
                morphisms[name(i, x, y)] = (x, y)
    composition = {}
    for x in objs:
        for y in objs:
            for z in objs:
                for i in range(k):
                    for j in range(k):
                        composition[(name(j, y, z), name(i, x, y))] = name(
                            (i + j) % k, x, z
                        )
    return Groupoid(
        objects=objs,
        morphisms=morphisms,
        identity={x: name(0, x, x) for x in objs},
        composition=composition,
        inverse={
            name(i, x, y): name((-i) % k, y, x)
            for x in objs
            for y in objs
            for i in range(k)
        },
    )


def disjoint_union_groupoid(blocks: Iterable[Groupoid], tags: Iterable[str]) -> Groupoid:
    """Disjoint union, with every identifier prefixed by its block tag."""
    objects: list[str] = []
    morphisms: dict[str, tuple[str, str]] = {}
    identity: dict[str, str] = {}
    composition: dict[tuple[str, str], str] = {}
    inverse: dict[str, str] = {}
    for g, tag in zip(blocks, tags):
        ren_o = {x: f"{tag}.{x}" for x in g.objects}
        ren_m = {m: f"{tag}.{m}" for m in g.morphisms}
        objects.extend(ren_o.values())
        for m, (s, t) in g.morphisms.items():
            morphisms[ren_m[m]] = (ren_o[s], ren_o[t])
        for x, i in g.identity.items():
            identity[ren_o[x]] = ren_m[i]
        for (a, b), c_ in g.composition.items():
            composition[(ren_m[a], ren_m[b])] = ren_m[c_]
        for m, w in g.inverse.items():
            inverse[ren_m[m]] = ren_m[w]
    return Groupoid(
        objects=tuple(sorted(objects)),
        morphisms=morphisms,
        identity=identity,
        composition=composition,
        inverse=inverse,
    )


def pair_name(a: str, b: str) -> str:
    return f"({a}|{b})"


def product_category(c: FiniteCategory, d: FiniteCategory) -> FiniteCategory:
    """The product category, objects (U|x) and morphisms (a|f) componentwise."""
    objects = tuple(
        pair_name(u, x) for u in sorted(c.objects) for x in sorted(d.objects)
    )
    morphisms = {}
    for a in sorted(c.morphisms):
        for f in sorted(d.morphisms):
            morphisms[pair_name(a, f)] = (
                pair_name(c.source(a), d.source(f)),
                pair_name(c.target(a), d.target(f)),
            )
    identity = {
        pair_name(u, x): pair_name(c.identity[u], d.identity[x])
        for u in c.objects
        for x in d.objects
    }
    composition = {}
    for (a2, a1), a in c.composition.items():
        for (f2, f1), f in d.composition.items():
            composition[(pair_name(a2, f2), pair_name(a1, f1))] = pair_name(a, f)
    return FiniteCategory(
        objects=objects, morphisms=morphisms, identity=identity, composition=composition
    )
