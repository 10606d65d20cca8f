"""Seeded random instance generators used by the verification harnesses.

Everything here is driven by random.Random(seed), so a fixed seed yields a
fixed instance.  Groupoids are disjoint unions of connected blocks with
cyclic automorphism groups; sites are saturated poset topologies; presheaves
of categories come from constant fibres or translation categories of
diagrams of presheaves, which are functorial by construction; over-objects
are unions of standard simplices attached to nerve strings.  Diagrams are
built on integer levels (see ``sset``), so a draw writes no dict until read.
"""

from __future__ import annotations

import random
from itertools import accumulate

from .fibred import (
    MorphismOfPresheavesOfCategories,
    PresheafDiagram,
    PresheafOfCategories,
    PresheafOfGroupoids,
    constant_presheaf_of_categories,
    make_translation_presheaf,
)
from .fincat import (
    FiniteCategory,
    Functor,
    Groupoid,
    build_category,
    codiscrete_groupoid,
    cyclic_groupoid,
    discrete_category,
    disjoint_union_groupoid,
    identity_functor,
    opposite,
    pair_name,
    poset_chain,
    product_category,
    terminal_category,
)
from .hocopb import EnrichedGroupoidDiagram, EnrichedOverNerve, GroupoidDiagram, OverNerve
from .site import (
    GrothendieckTopology,
    Presheaf,
    constant_presheaf,
    coproduct_presheaf,
    representable_presheaf,
    sieve_from_generators,
    saturate_topology,
    trivial_topology,
)
from .sset import (
    SimplicialMap,
    TruncatedSimplicialSet,
    _action_ids,
    _deferred,
    _level_cells,
    disjoint_union_ssets,
    identity_simplicial_map,
    nerve,
    standard_simplex,
)

SMALL_CATEGORIES = ("pt", "chain2", "chain3", "disc2", "z2", "z3", "e2")


def small_category(name: str) -> FiniteCategory:
    if name == "pt":
        return terminal_category()
    if name == "chain2":
        return poset_chain(["x", "y"])
    if name == "chain3":
        return poset_chain(["x", "y", "z"])
    if name == "disc2":
        return discrete_category(["x", "y"])
    if name == "z2":
        return cyclic_groupoid(2)
    if name == "z3":
        return cyclic_groupoid(3)
    if name == "e2":
        return codiscrete_groupoid(["o1", "o2"])
    raise ValueError(name)


def random_poset_site(rng: random.Random, max_objects: int = 3) -> FiniteCategory:
    """A random finite poset, as a thin category (composites forced)."""
    n = rng.randint(1, max_objects)
    names = [f"U{i}" for i in range(n)]
    # random order relation: i < j may hold for i below j in the list
    below: dict[str, set[str]] = {u: set() for u in names}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                below[names[i]].add(names[j])
    # transitive closure
    changed = True
    while changed:
        changed = False
        for u in names:
            for v in list(below[u]):
                for w in below[v]:
                    if w not in below[u]:
                        below[u].add(w)
                        changed = True
    arrows = {}
    compose = {}
    def arrow(u, v):
        return f"a_{u}_{v}"
    for u in names:
        for v in below[u]:
            arrows[arrow(u, v)] = (u, v)
    for u in names:
        for v in below[u]:
            for w in below[v]:
                compose[(arrow(v, w), arrow(u, v))] = arrow(u, w)
    return build_category(names, arrows, compose)


def random_topology(rng: random.Random, site: FiniteCategory) -> GrothendieckTopology:
    """Trivial or a saturation of one random generated sieve."""
    candidates = [
        u
        for u in sorted(site.objects)
        if any(not site.is_identity(m) for m in site.into(u))
    ]
    if rng.random() < 0.3 or not candidates:
        return trivial_topology(site)
    u = rng.choice(candidates)
    arrows = [m for m in site.into(u) if not site.is_identity(m)]
    gens = set(rng.sample(arrows, rng.randint(1, min(2, len(arrows)))))
    seed_sieve = sieve_from_generators(site, u, gens)
    return saturate_topology(site, {u: {seed_sieve}})


def random_presheaf(rng: random.Random, site: FiniteCategory, max_parts: int = 2) -> Presheaf:
    """A coproduct of representables and small constant presheaves."""
    parts: list[Presheaf] = []
    tags: list[str] = []
    for k in range(rng.randint(1, max_parts)):
        if rng.random() < 0.6:
            z = rng.choice(sorted(site.objects))
            parts.append(representable_presheaf(site, z))
            tags.append(f"y{k}")
        else:
            size = rng.randint(1, 2)
            parts.append(constant_presheaf(site, tuple(f"c{i}" for i in range(size))))
            tags.append(f"k{k}")
    return coproduct_presheaf(parts, tags)


def _yoneda_map(site: FiniteCategory, arrow: str) -> dict[str, dict[str, str]]:
    """Postcomposition components hom(-, src) -> hom(-, tgt)."""
    return {
        u: {e: site.compose(arrow, e) for e in site.hom(u, site.source(arrow))}
        for u in site.objects
    }


def random_presheaf_of_categories(
    rng: random.Random, site: FiniteCategory, max_fibre_objects: int = 3
) -> PresheafOfCategories:
    """Constant fibres or a translation presheaf of a small diagram."""
    roll = rng.random()
    if roll < 0.5:
        name = rng.choice([n for n in SMALL_CATEGORIES])
        fib = small_category(name)
        if len(fib.objects) > max_fibre_objects:
            fib = terminal_category()
        return constant_presheaf_of_categories(site, fib)
    # translation presheaf of a one-arrow diagram of representables
    idx = poset_chain(["i", "j"])
    zs = sorted(site.objects)
    z0 = rng.choice(zs)
    z1 = rng.choice(zs)
    y0 = representable_presheaf(site, z0)
    arrows_01 = site.hom(z0, z1)
    if arrows_01 and rng.random() < 0.8:
        theta = rng.choice(sorted(arrows_01))
        y1 = representable_presheaf(site, z1)
        comp = _yoneda_map(site, theta)
    else:
        y1 = constant_presheaf(site, ("c",))
        comp = {u: {e: "c" for e in y0.value[u]} for u in site.objects}
    diagram = PresheafDiagram(
        index=idx,
        value={"i": y0, "j": y1},
        map={
            "id_i": {u: {e: e for e in y0.value[u]} for u in site.objects},
            "id_j": {u: {e: e for e in y1.value[u]} for u in site.objects},
            "a_i_j": comp,
        },
    )
    return make_translation_presheaf(diagram)


GROUP_ZOO = ((1, 1), (1, 2), (1, 3), (2, 1), (1, 4), (2, 2))


def random_groupoid(rng: random.Random, max_objects: int = 2, max_group: int = 3) -> Groupoid:
    """Disjoint union of connected blocks with cyclic automorphism groups.

    Blocks with more than one object keep trivial automorphisms so nerves
    stay small.
    """
    blocks = []
    tags = []
    n_blocks = rng.randint(1, 2)
    total = 0
    for b in range(n_blocks):
        n_obj = rng.randint(1, max(1, max_objects - total))
        total += n_obj
        if n_obj == 1:
            k = rng.randint(1, max_group)
            blocks.append(cyclic_groupoid(k, obj="x"))
        else:
            blocks.append(codiscrete_groupoid([f"x{i}" for i in range(n_obj)]))
        tags.append(f"b{b}")
        if total >= max_objects:
            break
    return disjoint_union_groupoid(blocks, tags)


def random_sectionwise_equivalence(
    rng: random.Random, max_site_objects: int = 3
) -> tuple[MorphismOfPresheavesOfCategories, PresheafOfGroupoids]:
    """A sectionwise equivalence G -> H over a random poset site.

    H is a small constant presheaf of groupoids; G inflates it by a
    codiscrete factor, and the morphism is the projection.  Returns the
    morphism and its codomain.
    """
    site = random_poset_site(rng, max_objects=max_site_objects)
    n_obj, k = rng.choice(GROUP_ZOO[:4])
    if n_obj == 1:
        h = cyclic_groupoid(k, obj="x")
    else:
        h = codiscrete_groupoid([f"x{i}" for i in range(n_obj)])
    if rng.random() < 0.25:
        g = h
        comp = identity_functor(h)
    else:
        e = codiscrete_groupoid(["p0", "p1"])
        g = _product_groupoid(h, e)
        comp = Functor(
            domain=g,
            codomain=h,
            object_map={pair_name(o, p): o for o in h.objects for p in e.objects},
            morphism_map={pair_name(m, n): m for m in h.morphisms for n in e.morphisms},
        )
    gh = constant_presheaf_of_categories(site, h)
    gg = constant_presheaf_of_categories(site, g)
    mor = MorphismOfPresheavesOfCategories(
        domain=gg, codomain=gh, components={u: comp for u in site.objects}
    )
    return mor, gh


def _product_groupoid(a: Groupoid, b: Groupoid) -> Groupoid:
    prod = product_category(a, b)
    inverse = {
        pair_name(m1, m2): pair_name(a.inverse[m1], b.inverse[m2])
        for m1 in a.morphisms
        for m2 in b.morphisms
    }
    return Groupoid(
        objects=prod.objects,
        morphisms=prod.morphisms,
        identity=prod.identity,
        composition=prod.composition,
        inverse=inverse,
    )


# ---------------------------------------------------------------------------
# diagrams and over-objects for the adjunction harness


def orbit_diagram(g: Groupoid, y0: str, k: TruncatedSimplicialSet) -> GroupoidDiagram:
    """The free diagram on one value: copies of k indexed by arrows out of y0.

    The value at y unions the copies tagged by hom(y0, y), and m sends the
    copy at h to the copy at m h."""
    d = k.dim
    value: dict[str, TruncatedSimplicialSet] = {}
    for y in sorted(g.objects):
        tags = list(g.hom(y0, y))
        value[y] = disjoint_union_ssets([k] * len(tags), tags)[0] if tags else _deferred(
            TruncatedSimplicialSet, dim=d, _int=[([], [], []) for _ in range(d + 1)]
        )
    action = {}
    for m, (s, t) in g.morphisms.items():
        place = {h: j for j, h in enumerate(g.hom(y0, t))}
        moves = [(None, place[g.compose(m, h)]) for h in g.hom(y0, s)]
        ids = _block_ids([k] * len(place), moves, d)
        action[m] = _deferred(SimplicialMap, domain=value[s], codomain=value[t], _int_levels=ids)
    return GroupoidDiagram(base=g, value=value, action=action)


def _block_ids(targets: list[TruncatedSimplicialSet], moves: list[tuple], d: int):
    """Per degree, the integer action of a map of disjoint unions: block i
    goes into block j of the union of targets by f, where (f, j) = moves[i]
    and f = None is the identity."""
    for n in range(d + 1):
        starts = list(accumulate((len(_level_cells(t, n)[0]) for t in targets), initial=0))
        ids: list[int] = []
        for f, j in moves:
            own = range(starts[j + 1] - starts[j]) if f is None else _action_ids(f, n)
            ids.extend([starts[j] + i for i in own])
        yield ids


def constant_diagram(g: Groupoid, k: TruncatedSimplicialSet) -> GroupoidDiagram:
    return GroupoidDiagram(
        base=g,
        value={y: k for y in g.objects},
        action={m: identity_simplicial_map(k) for m in g.morphisms},
    )


def disjoint_union_diagrams(
    parts: list[GroupoidDiagram], tags: list[str]
) -> GroupoidDiagram:
    """The valuewise union; each part acts on its own block."""
    g = parts[0].base
    d = next(iter(parts[0].value.values())).dim
    value = {y: disjoint_union_ssets([p.value[y] for p in parts], tags)[0] for y in g.objects}
    action = {}
    for m, (s, t) in g.morphisms.items():
        moves = [(p.action[m], j) for j, p in enumerate(parts)]
        ids = _block_ids([p.value[t] for p in parts], moves, d)
        action[m] = _deferred(SimplicialMap, domain=value[s], codomain=value[t], _int_levels=ids)
    return GroupoidDiagram(base=g, value=value, action=action)


def random_diagram(rng: random.Random, g: Groupoid, d: int) -> GroupoidDiagram:
    """Union of orbit diagrams on small standard simplices (plus constants)."""
    parts: list[GroupoidDiagram] = []
    tags: list[str] = []
    for i in range(rng.randint(1, 2)):
        k = standard_simplex(rng.randint(0, 2), d)
        if rng.random() < 0.75:
            y0 = rng.choice(sorted(g.objects))
            parts.append(orbit_diagram(g, y0, k))
        else:
            parts.append(constant_diagram(g, k))
        tags.append(f"t{i}")
    if len(parts) == 1:
        return parts[0]
    return disjoint_union_diagrams(parts, tags)


def simplex_over_nerve(
    g: FiniteCategory, sigma: tuple, ng: TruncatedSimplicialSet
) -> tuple[TruncatedSimplicialSet, SimplicialMap]:
    """The standard simplex classifying a nerve string, over the nerve ``ng`` of g."""
    d = ng.dim
    k = len(sigma) if (len(sigma) > 1 or sigma[0] in set(g.morphisms)) else 0
    simp = standard_simplex(k, d)

    def vertex_obj(i: int) -> str:
        if k == 0:
            return sigma[0]
        if i == 0:
            return g.source(sigma[0])
        return g.target(sigma[i - 1])

    def segment(i: int, j: int) -> str:
        # composite arrow from vertex i to vertex j (i <= j)
        if i == j:
            return g.identity[vertex_obj(i)]
        m = sigma[i]
        for t in range(i + 1, j):
            m = g.compose(sigma[t], m)
        return m

    comps = []
    for n in range(d + 1):
        cm = {}
        for tok in simp.simplices[n]:
            if n == 0:
                cm[tok] = (vertex_obj(tok[0]),)
            else:
                cm[tok] = tuple(segment(tok[i], tok[i + 1]) for i in range(n))
        comps.append(cm)
    return simp, SimplicialMap(domain=simp, codomain=ng, components=tuple(comps))


def random_over_nerve(rng: random.Random, g: Groupoid, d: int, max_pieces: int = 2) -> OverNerve:
    """Disjoint unions of standard simplices attached to nerve strings.

    Occasionally returns the nerve over itself, which exercises the identity
    case of the adjunction.
    """
    ng = nerve(g, d)
    if rng.random() < 0.2:
        return OverNerve(base=g, total=ng, structure=identity_simplicial_map(ng))
    pieces = []
    maps = []
    tags = []
    for i in range(rng.randint(1, max_pieces)):
        klen = rng.randint(0, min(2, d))
        if klen == 0:
            sigma = (rng.choice(sorted(g.objects)),)
        else:
            sigma = rng.choice(sorted(ng.simplices[klen], key=repr))
        simp, cls = simplex_over_nerve(g, sigma, ng)
        pieces.append(simp)
        maps.append(cls)
        tags.append(f"s{i}")
    total, injections = disjoint_union_ssets(pieces, tags)
    comps = []
    for n in range(d + 1):
        cm = {}
        for tag, m in zip(tags, maps):
            for x in m.domain.simplices[n]:
                cm[(tag, x)] = m.apply(n, x)
        comps.append(cm)
    structure = SimplicialMap(domain=total, codomain=ng, components=tuple(comps))
    return OverNerve(base=g, total=total, structure=structure)


# ---------------------------------------------------------------------------
# enriched instances over a constant presheaf of groupoids


def constant_enriched_diagram_from(
    g: PresheafOfGroupoids, diag: GroupoidDiagram
) -> EnrichedGroupoidDiagram:
    """Spread a section-level diagram (over the opposed fibre) constantly."""
    site = g.site
    value = {
        (u, y): diag.value[y] for u in site.objects for y in diag.base.objects
    }
    cat_action = {
        (u, m): diag.action[m] for u in site.objects for m in diag.base.morphisms
    }
    site_action = {
        (alpha, y): identity_simplicial_map(diag.value[y])
        for alpha in site.morphisms
        for y in diag.base.objects
    }
    return EnrichedGroupoidDiagram(
        base=g, value=value, cat_action=cat_action, site_action=site_action
    )


def random_enriched_diagram(
    rng: random.Random, site: FiniteCategory, d: int, max_group: int = 3
) -> EnrichedGroupoidDiagram:
    """A seeded enriched diagram over a constant presheaf of groupoids."""
    base_groupoid = random_groupoid(rng, max_objects=2, max_group=max_group)
    g = constant_presheaf_of_categories(site, base_groupoid)
    diag = random_diagram(rng, opposite(base_groupoid), d)
    return constant_enriched_diagram_from(g, diag)


def random_enriched_over_nerve(
    rng: random.Random, site: FiniteCategory, d: int, max_group: int = 3
) -> EnrichedOverNerve:
    """A seeded enriched over-object with constant site actions."""
    base_groupoid = random_groupoid(rng, max_objects=2, max_group=max_group)
    g = constant_presheaf_of_categories(site, base_groupoid)
    x = random_over_nerve(rng, opposite(base_groupoid), d)
    sections = {u: x for u in site.objects}
    site_action = {
        alpha: identity_simplicial_map(x.total) for alpha in site.morphisms
    }
    return EnrichedOverNerve(base=g, sections=sections, site_action=site_action)


def random_matrix(rng: random.Random, max_dim: int = 8, bound: int = 10):
    nr = rng.randint(1, max_dim)
    nc = rng.randint(1, max_dim)
    return tuple(
        tuple(rng.randint(-bound, bound) for _ in range(nc)) for _ in range(nr)
    )
