"""Hand-written dict builders for the sets, maps and diagrams the library builds.

The library writes every dict of a nerve, a hocolim, a pb value, a
standard simplex or a disjoint union, every component of their maps, and
every action of a sampled orbit or union diagram, from the set's or map's
integer level (see ``sset._DeferredField``).  These are the constructions
it used before that: each reads only its inputs' dicts and writes faces,
degeneracies and components by hand.  ``test_builders.py`` compares the
library's dicts with them.
"""

import itertools

from fibsite.fincat import string_table
from fibsite.hocopb import GroupoidDiagram, OverNerve
from fibsite.sset import SimplicialMap, TruncatedSimplicialSet


def reference_nerve(c, d: int) -> TruncatedSimplicialSet:
    """The nerve of c truncated at d: faces from ``string_table``, and s_i
    inserting the identity of vertex i."""
    table = string_table(c, d)
    tokens = table.tokens
    faces = {}
    for n in range(1, d + 1):
        for i in range(n + 1):
            faces[(n, i)] = {t: tokens[n - 1][f[i]] for t, f in zip(tokens[n], table.faces[n])}
    # vertex i is the source of the first arrow or the target of arrow i-1
    at_source = {m: c.identity[s] for m, (s, _) in c.morphisms.items()}
    at_target = {m: c.identity[t] for m, (_, t) in c.morphisms.items()}
    degeneracies = {(0, 0): {t: (c.identity[t[0]],) for t in tokens[0]}}
    for n in range(1, d):
        degeneracies[(n, 0)] = {t: (at_source[t[0]],) + t for t in tokens[n]}
        for i in range(1, n + 1):
            degeneracies[(n, i)] = {t: t[:i] + (at_target[t[i - 1]],) + t[i:] for t in tokens[n]}
    return TruncatedSimplicialSet(
        dim=d,
        simplices=tuple(frozenset(level) for level in tokens),
        faces=faces,
        degeneracies=degeneracies,
    )


def reference_hocolim(a: GroupoidDiagram, d: int) -> OverNerve:
    """(sigma, x) over sigma; face 0 moves x along sigma's first arrow before
    its face, and the other faces and every degeneracy act on both parts."""
    g, value, action = a.base, a.value, a.action
    ng = reference_nerve(g, d)
    simplices, over_sigma = [], []
    faces, degeneracies = {}, {}
    for n in range(d + 1):
        over = {}
        fms = [{} for _ in range(n + 1)] if n else []
        dms = [{} for _ in range(n + 1)] if n < d else []
        for sigma in ng.simplices[n]:
            val = value[g.string_vertex(n, sigma)]
            for x in val.simplices[n]:
                over[(sigma, x)] = sigma
                if fms:
                    g1 = sigma[0]
                    moved = action[g1].components[n][x]
                    fms[0][(sigma, x)] = (ng.faces[(n, 0)][sigma], value[g.target(g1)].faces[(n, 0)][moved])
                    for i in range(1, n + 1):
                        fms[i][(sigma, x)] = (ng.faces[(n, i)][sigma], val.faces[(n, i)][x])
                for i, dm in enumerate(dms):
                    dm[(sigma, x)] = (ng.degeneracies[(n, i)][sigma], val.degeneracies[(n, i)][x])
        simplices.append(frozenset(over))
        over_sigma.append(over)
        faces.update(((n, i), fm) for i, fm in enumerate(fms))
        degeneracies.update(((n, i), dm) for i, dm in enumerate(dms))
    total = TruncatedSimplicialSet(
        dim=d, simplices=tuple(simplices), faces=faces, degeneracies=degeneracies
    )
    structure = SimplicialMap(domain=total, codomain=ng, components=tuple(over_sigma))
    return OverNerve(base=g, total=total, structure=structure)


def reference_pb(x: OverNerve) -> GroupoidDiagram:
    """(t, gamma) with gamma: a_0 -> y anchored at the first vertex of t's
    string; face 0 re-anchors along the inverse of the first arrow, and an
    arrow m acts by composing with the anchor."""
    g, total, over = x.base, x.total, x.structure.components
    d = total.dim
    comp = g.composition
    value, action = {}, {}
    for y in g.objects:
        simplices, faces, degeneracies = [], {}, {}
        for n in range(d + 1):
            level = set()
            fms = [{} for _ in range(n + 1)] if n else []
            dms = [{} for _ in range(n + 1)] if n < d else []
            for t in total.simplices[n]:
                sigma = over[n][t]
                for gamma in g.hom(g.string_vertex(n, sigma), y):
                    level.add((t, gamma))
                    if fms:
                        inv = g.inverse[sigma[0]]
                        fms[0][(t, gamma)] = (total.faces[(n, 0)][t], comp[(gamma, inv)])
                        for i in range(1, n + 1):
                            fms[i][(t, gamma)] = (total.faces[(n, i)][t], gamma)
                    for i, dm in enumerate(dms):
                        dm[(t, gamma)] = (total.degeneracies[(n, i)][t], gamma)
            simplices.append(frozenset(level))
            faces.update(((n, i), fm) for i, fm in enumerate(fms))
            degeneracies.update(((n, i), dm) for i, dm in enumerate(dms))
        value[y] = TruncatedSimplicialSet(
            dim=d, simplices=tuple(simplices), faces=faces, degeneracies=degeneracies
        )
    for m, (s, t_) in g.morphisms.items():
        action[m] = SimplicialMap(
            domain=value[s],
            codomain=value[t_],
            components=tuple(
                {(t, gamma): (t, comp[(m, gamma)]) for (t, gamma) in value[s].simplices[n]}
                for n in range(d + 1)
            ),
        )
    return GroupoidDiagram(base=g, value=value, action=action)


def reference_standard_simplex(k: int, d: int) -> TruncatedSimplicialSet:
    """Monotone vertex tuples; d_i drops vertex i and s_i repeats it."""
    simplices = [
        frozenset(itertools.combinations_with_replacement(range(k + 1), n + 1))
        for n in range(d + 1)
    ]
    faces = {
        (n, i): {t: t[:i] + t[i + 1 :] for t in simplices[n]}
        for n in range(1, d + 1)
        for i in range(n + 1)
    }
    degeneracies = {
        (n, i): {t: t[: i + 1] + t[i:] for t in simplices[n]}
        for n in range(d)
        for i in range(n + 1)
    }
    return TruncatedSimplicialSet(
        dim=d, simplices=tuple(simplices), faces=faces, degeneracies=degeneracies
    )


def reference_disjoint_union(pieces, tags):
    """(tag, x) with every face and degeneracy acting on x, and the injections."""
    d = pieces[0].dim
    parts = list(zip(pieces, tags))
    simplices = tuple(
        frozenset((tag, x) for p, tag in parts for x in p.simplices[n]) for n in range(d + 1)
    )
    faces = {
        (n, i): {(tag, x): (tag, y) for p, tag in parts for x, y in p.faces[(n, i)].items()}
        for n in range(1, d + 1)
        for i in range(n + 1)
    }
    degeneracies = {
        (n, i): {(tag, x): (tag, y) for p, tag in parts for x, y in p.degeneracies[(n, i)].items()}
        for n in range(d)
        for i in range(n + 1)
    }
    total = TruncatedSimplicialSet(
        dim=d, simplices=simplices, faces=faces, degeneracies=degeneracies
    )
    injections = [
        SimplicialMap(
            domain=p,
            codomain=total,
            components=tuple({x: (tag, x) for x in p.simplices[n]} for n in range(d + 1)),
        )
        for p, tag in parts
    ]
    return total, injections


def reference_orbit_diagram(g, y0: str, k: TruncatedSimplicialSet) -> GroupoidDiagram:
    """Copies of k tagged by the arrows h out of y0; m sends (h, x) to (m h, x)."""
    d = k.dim
    value = {}
    for y in sorted(g.objects):
        tags = list(g.hom(y0, y))
        if tags:
            value[y], _ = reference_disjoint_union([k] * len(tags), tags)
        else:
            value[y] = TruncatedSimplicialSet(
                dim=d,
                simplices=tuple(frozenset() for _ in range(d + 1)),
                faces={(n, i): {} for n in range(1, d + 1) for i in range(n + 1)},
                degeneracies={(n, i): {} for n in range(d) for i in range(n + 1)},
            )
    action = {
        m: SimplicialMap(
            domain=value[s],
            codomain=value[t],
            components=tuple(
                {(h, x): (g.compose(m, h), x) for (h, x) in value[s].simplices[n]}
                for n in range(d + 1)
            ),
        )
        for m, (s, t) in g.morphisms.items()
    }
    return GroupoidDiagram(base=g, value=value, action=action)


def reference_union_diagram(parts, tags) -> GroupoidDiagram:
    """The valuewise union; m acts on (tag, x) by the action of its part."""
    g = parts[0].base
    d = next(iter(parts[0].value.values())).dim
    value = {
        y: reference_disjoint_union([p.value[y] for p in parts], tags)[0] for y in g.objects
    }
    action = {}
    for m, (s, t) in g.morphisms.items():
        comps = tuple(
            {
                (tag, x): (tag, p.action[m].components[n][x])
                for tag, p in zip(tags, parts)
                for x in p.value[s].simplices[n]
            }
            for n in range(d + 1)
        )
        action[m] = SimplicialMap(domain=value[s], codomain=value[t], components=comps)
    return GroupoidDiagram(base=g, value=value, action=action)
