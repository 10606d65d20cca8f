"""Sites fibred over presheaves of categories.

The total category of the construction has objects (U|x) with U an object of
the base site and x an object of the fibre category at U, and morphisms (a|f)
with the twisted composition law (a|f)(g|h) = (a.g | g*(f).h).  The construction
lists each morphism as its triple (a, f, x), with (U|x) its target, and keeps
that index as ``FibredSite.morphism_of``: readers look morphisms up there,
and no name is ever parsed back into its parts.  Covering sieves of the
fibred site are the sieves containing a preimage of a base cover.  Presheaves
on the total category are equivalent to enriched diagrams, and this module
implements both directions of that equivalence together with the
restriction / left Kan adjunctions between diagram categories.
``fincat.validate_set_functor`` checks the laws of every set-valued
diagram here, and ``validate_enriched`` those of the site actions.  The left
Kan extension, its unit and its counit take their comma categories and
colimits from ``fincat._comma_cocones``, the one routine that builds them.

Arguments are checked by the one rule of ``fincat._verdict``, before any
lookup, and the total site of a presheaf of categories is remembered on it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, ValidationFailure
from .fincat import (
    CONTRAVARIANT,
    COVARIANT,
    FiniteCategory,
    Functor,
    Groupoid,
    ColimitCocone,
    CommaCategory,
    SetValuedFunctor,
    _comma_cocones,
    _remembered,
    _verdict,
    _verified,
    compose_functors,
    identity_functor,
    is_fully_faithful,
    is_essentially_surjective,
    opposite_functor,
    pair_name,
    validate_category,
    validate_functor,
    validate_groupoid,
    validate_set_functor,
)
from .site import (
    GrothendieckTopology,
    Presheaf,
    Sieve,
    make_presheaf,
)


def _well_defined_set(amap: dict, key, val, what: str) -> None:
    if key in amap and amap[key] != val:
        raise ValidationFailure(f"{what}: conflicting images for {key}")
    amap[key] = val


@dataclass(frozen=True)
class PresheafOfCategories:
    """Contravariant assignment of a finite category to each site object.

    restriction[alpha] for alpha: V -> U is a functor value[U] -> value[V];
    functoriality is strict.
    """

    site: FiniteCategory
    value: dict[str, FiniteCategory]
    restriction: dict[str, Functor]


@dataclass(frozen=True)
class PresheafOfGroupoids(PresheafOfCategories):
    """A presheaf of categories whose values are groupoids."""


def validate_presheaf_of_categories(a: PresheafOfCategories) -> list[str]:
    report: list[str] = []
    c = a.site
    bad = _verdict(c, validate_category)
    if bad:
        return [f"site: {b}" for b in bad]
    for u in c.objects:
        if u not in a.value:
            report.append(f"no fibre category at {u}")
            continue
        report.extend(f"fibre at {u}: {b}" for b in _verdict(a.value[u], validate_category))
    for alpha, (v, u) in c.morphisms.items():
        r = a.restriction.get(alpha)
        if r is None:
            report.append(f"no restriction functor for {alpha}")
            continue
        if r.domain != a.value[u] or r.codomain != a.value[v]:
            report.append(f"restriction along {alpha} has wrong endpoints")
            continue
        report.extend(f"restriction along {alpha}: {b}" for b in _verdict(r, validate_functor))
    if report:
        return report
    for u in c.objects:
        if a.restriction[c.identity[u]].object_map != {
            x: x for x in a.value[u].objects
        } or a.restriction[c.identity[u]].morphism_map != {
            m: m for m in a.value[u].morphisms
        }:
            report.append(f"restriction along the identity of {u} is not the identity")
    for (g, f), gf in c.composition.items():
        lhs = compose_functors(a.restriction[f], a.restriction[g])
        r = a.restriction[gf]
        if lhs.object_map != r.object_map or lhs.morphism_map != r.morphism_map:
            report.append(f"restriction functoriality fails on ({g}, {f})")
    if isinstance(a, PresheafOfGroupoids):
        # every fibre passed its category laws above, so validate_groupoid
        # reports only its inverse laws
        for u in c.objects:
            fib = a.value[u]
            if not isinstance(fib, Groupoid):
                report.append(f"fibre at {u} carries no groupoid structure")
                continue
            report.extend(f"fibre at {u}: {b}" for b in _verdict(fib, validate_groupoid))
    return report


def constant_presheaf_of_categories(
    site: FiniteCategory, fibre: FiniteCategory
) -> PresheafOfCategories:
    cls = PresheafOfGroupoids if isinstance(fibre, Groupoid) else PresheafOfCategories
    return cls(
        site=site,
        value={u: fibre for u in site.objects},
        restriction={m: identity_functor(fibre) for m in site.morphisms},
    )


def object_presheaf(a: PresheafOfCategories) -> Presheaf:
    """The presheaf of objects of the fibres."""
    return make_presheaf(
        a.site,
        value={u: tuple(sorted(a.value[u].objects)) for u in a.site.objects},
        action={
            m: {
                x: a.restriction[m].on_object(x)
                for x in a.value[a.site.target(m)].objects
            }
            for m in a.site.morphisms
        },
    )


# ---------------------------------------------------------------------------
# the construction itself


@dataclass(frozen=True)
class FibredSite:
    """Total category of the construction, with its projection to the base.

    object_pair maps a total object id back to (U, x); morphism_pair maps a
    total morphism id to (alpha, f); morphism_of is the index the
    construction lists, from each arrow's triple (alpha, f, x) to its id.
    """

    base: PresheafOfCategories
    total: FiniteCategory
    projection: Functor
    object_pair: dict[str, tuple[str, str]]
    morphism_pair: dict[str, tuple[str, str]]
    morphism_of: dict[tuple[str, str, str], str]


def grothendieck_construct(a: PresheafOfCategories) -> FibredSite:
    """Build the total category over the presheaf of categories.

    Morphisms (U|x) <- (V|y) are triples (alpha: V -> U, f: y -> alpha*(x),
    x); composition follows the twisted law.  Morphism ids are the bare
    pairs (alpha|f) when those determine the morphism, and carry the target
    fibre object as a third component otherwise (restrictions that are not
    injective on objects make the bare pair ambiguous).  a is validated
    first, and the result is remembered on a.
    """
    _verified(a, validate_presheaf_of_categories)
    return _remembered(a, _grothendieck_construct)


def _grothendieck_construct(a: PresheafOfCategories) -> FibredSite:
    c = a.site
    object_pair = {
        pair_name(u, x): (u, x)
        for u in sorted(c.objects)
        for x in sorted(a.value[u].objects)
    }
    triples = [
        (alpha, f, x)
        for alpha in sorted(c.morphisms)
        for x in sorted(a.value[c.target(alpha)].objects)
        for f in a.value[c.source(alpha)].into(a.restriction[alpha].on_object(x))
    ]
    ambiguous = len({(alpha, f) for alpha, f, _x in triples}) < len(triples)
    morphism_of = {
        (alpha, f, x): f"({alpha}|{f}|{x})" if ambiguous else pair_name(alpha, f)
        for alpha, f, x in triples
    }
    morphisms: dict[str, tuple[str, str]] = {}
    # the arrows into each total object (U, x), in construction order
    into: dict[tuple[str, str], list[tuple[str, str, str]]] = {}
    for alpha, f, x in triples:
        v, u = c.morphisms[alpha]
        y = a.value[v].source(f)
        morphisms[morphism_of[(alpha, f, x)]] = (pair_name(v, y), pair_name(u, x))
        into.setdefault((u, x), []).append((alpha, f, x))
    # nothing parses a name back, but a '|' inside a site or fibre name can
    # still print two objects or two arrows alike
    n_objects = sum(len(a.value[u].objects) for u in c.objects)
    if len(object_pair) < n_objects or len(morphisms) < len(triples):
        raise InputError("two total objects or arrows share a name; a name holds '|'")
    # (alpha|f) after (gamma|g) is (alpha.gamma | gamma*(f).g)
    composition: dict[tuple[str, str], str] = {}
    for alpha, f, x in triples:
        v = c.source(alpha)
        m2 = morphism_of[(alpha, f, x)]
        for gamma, g, y in into.get((v, a.value[v].source(f)), ()):
            w = c.source(gamma)
            h = a.value[w].compose(a.restriction[gamma].on_morphism(f), g)
            composition[(m2, morphism_of[(gamma, g, y)])] = morphism_of[
                (c.compose(alpha, gamma), h, x)
            ]
    total = FiniteCategory(
        objects=tuple(object_pair),
        morphisms=morphisms,
        identity={
            pair_name(u, x): morphism_of[(c.identity[u], a.value[u].identity[x], x)]
            for u in c.objects
            for x in a.value[u].objects
        },
        composition=composition,
    )
    morphism_pair = {n: (alpha, f) for (alpha, f, _x), n in morphism_of.items()}
    projection = Functor(
        domain=total,
        codomain=c,
        object_map={n: p[0] for n, p in object_pair.items()},
        morphism_map={n: p[0] for n, p in morphism_pair.items()},
    )
    return FibredSite(a, total, projection, object_pair, morphism_pair, morphism_of)


def preimage_sieve(fs: FibredSite, total_object: str, s: Sieve) -> Sieve:
    """The sieve of all total morphisms whose projection lies in s."""
    u, _x = fs.object_pair[total_object]
    if s.base_object != u:
        raise InputError("sieve does not live under the given total object")
    members = frozenset(
        m
        for m in fs.total.into(total_object)
        if fs.morphism_pair[m][0] in s.members
    )
    return Sieve(base_object=total_object, members=members)


def induced_topology(fs: FibredSite, base_topology: GrothendieckTopology) -> GrothendieckTopology:
    """Topology on the total category generated by preimages of base covers.

    A sieve covers (U|x) exactly when it contains the preimage of some
    cover of U.  Preimages are monotone, so L(U|x) is the preimage of L(U).
    For groupoid fibres every cover is a preimage; with non-invertible
    fibre morphisms some covers are not, and dropping them would break the
    local character axiom.
    """
    if base_topology.site != fs.base.site:
        raise InputError("topology does not live on the base site")
    base_least = base_topology.checked_least()
    least = {
        tot: preimage_sieve(fs, tot, base_least[u])
        for tot, (u, _x) in fs.object_pair.items()
    }
    return GrothendieckTopology(site=fs.total, least=least)


# ---------------------------------------------------------------------------
# enriched diagrams and the equivalence with presheaves on the total category


@dataclass(frozen=True)
class EnrichedSetDiagram:
    """Sectionwise contravariant set diagram on the fibres, tied together by
    site restrictions.

    value is indexed by (U, x); cat_action[(U, gamma)] for gamma: x -> y in
    the fibre at U maps value[(U, y)] to value[(U, x)]; site_action[(alpha, x)]
    for alpha: V -> U maps value[(U, x)] to value[(V, alpha*(x))].
    """

    base: PresheafOfCategories
    value: dict[tuple[str, str], tuple[str, ...]]
    cat_action: dict[tuple[str, str], dict[str, str]]
    site_action: dict[tuple[str, str], dict[str, str]]


def validate_enriched(x: EnrichedSetDiagram) -> list[str]:
    a = x.base
    report = _verdict(a, validate_presheaf_of_categories)
    if report:
        return report
    c = a.site
    for u in c.objects:
        fib = a.value[u]
        for ob in fib.objects:
            if (u, ob) not in x.value:
                report.append(f"no value at ({u}, {ob})")
        for gamma in fib.morphisms:
            if (u, gamma) not in x.cat_action:
                report.append(f"no fibre action for ({u}, {gamma})")
    for alpha, (v, u) in c.morphisms.items():
        for ob in a.value[u].objects:
            if (alpha, ob) not in x.site_action:
                report.append(f"no site action for ({alpha}, {ob})")
    if report:
        return report
    for u in c.objects:
        fib = a.value[u]
        # each section is a contravariant set functor on the fibre
        section = SetValuedFunctor(
            base=fib,
            variance=CONTRAVARIANT,
            value={ob: x.value[(u, ob)] for ob in fib.objects},
            action={g: x.cat_action[(u, g)] for g in fib.morphisms},
        )
        report.extend(f"section at {u}: {b}" for b in validate_set_functor(section))
    for alpha, (v, u) in c.morphisms.items():
        r = a.restriction[alpha]
        for ob in a.value[u].objects:
            amap = x.site_action[(alpha, ob)]
            if set(amap) != set(x.value[(u, ob)]):
                report.append(f"site action for ({alpha}, {ob}) has wrong domain")
                continue
            if not set(amap.values()) <= set(x.value[(v, r.on_object(ob))]):
                report.append(f"site action for ({alpha}, {ob}) has wrong codomain")
    return report or _site_laws(x)


def _site_laws(x: EnrichedSetDiagram) -> list[str]:
    """The laws of x's site actions, on an x that passes the rest of ``validate_enriched``."""
    a = x.base
    c = a.site
    report: list[str] = []
    # strict functoriality of the site actions
    for u in c.objects:
        for ob in a.value[u].objects:
            amap = x.site_action[(c.identity[u], ob)]
            if any(amap[e] != e for e in x.value[(u, ob)]):
                report.append(f"identity site action at ({u}, {ob}) not the identity")
    for (g, f), gf in c.composition.items():
        u = c.target(g)
        rg = x.base.restriction[g]
        for ob in a.value[u].objects:
            one = x.site_action[(gf, ob)]
            g_then_f = {
                e: x.site_action[(f, rg.on_object(ob))][x.site_action[(g, ob)][e]]
                for e in x.value[(u, ob)]
            }
            if one != g_then_f:
                report.append(f"site functoriality fails on ({g}, {f}) at {ob}")
    # the commuting square tying fibre actions to site actions
    for alpha, (v, u) in c.morphisms.items():
        r = a.restriction[alpha]
        for gamma, (xx, yy) in a.value[u].morphisms.items():
            lhs = {
                e: x.site_action[(alpha, xx)][x.cat_action[(u, gamma)][e]]
                for e in x.value[(u, yy)]
            }
            rhs = {
                e: x.cat_action[(v, r.on_morphism(gamma))][x.site_action[(alpha, yy)][e]]
                for e in x.value[(u, yy)]
            }
            if lhs != rhs:
                report.append(
                    f"enriched square fails for {alpha} and {gamma}"
                )
    return report


def presheaf_to_enriched(fs: FibredSite, f: Presheaf) -> EnrichedSetDiagram:
    """Read a presheaf on the total category as an enriched diagram.

    The fibre action of gamma is the action of (1|gamma); the site action of
    alpha at x is the action of (alpha|1) into (U|x).
    """
    if f.base != fs.total:
        raise InputError("presheaf does not live on the total category")
    _verified(f, validate_set_functor)
    a = fs.base
    c = a.site
    value = {
        fs.object_pair[n]: tuple(f.value[n]) for n in fs.total.objects
    }
    cat_action = {}
    for u in c.objects:
        fib = a.value[u]
        for gamma, (xx, yy) in fib.morphisms.items():
            m = fs.morphism_of[(c.identity[u], gamma, yy)]
            cat_action[(u, gamma)] = dict(f.action[m])
    site_action = {}
    for alpha, (v, u) in c.morphisms.items():
        r = a.restriction[alpha]
        for x in a.value[u].objects:
            m = fs.morphism_of[(alpha, a.value[v].identity[r.on_object(x)], x)]
            site_action[(alpha, x)] = dict(f.action[m])
    return EnrichedSetDiagram(
        base=a, value=value, cat_action=cat_action, site_action=site_action
    )


def enriched_to_presheaf(fs: FibredSite, x: EnrichedSetDiagram) -> Presheaf:
    """Reassemble the presheaf; (alpha|gamma) acts as (1|gamma) after (alpha|1)."""
    if x.base != fs.base:
        raise InputError("diagram does not live over the construction's base")
    _verified(x, validate_enriched)
    c = fs.base.site
    value = {n: tuple(x.value[fs.object_pair[n]]) for n in fs.total.objects}
    action: dict[str, dict[str, str]] = {}
    for (alpha, gamma, ob), m in fs.morphism_of.items():
        v, u = c.morphisms[alpha]
        site = x.site_action[(alpha, ob)]
        fib = x.cat_action[(v, gamma)]
        action[m] = {e: fib[site[e]] for e in x.value[(u, ob)]}
    return make_presheaf(fs.total, value, action)


def constant_enriched_diagram(
    a: PresheafOfCategories, elems: tuple[str, ...] = ("*",)
) -> EnrichedSetDiagram:
    ident = {e: e for e in elems}
    return EnrichedSetDiagram(
        base=a,
        value={(u, x): tuple(elems) for u in a.site.objects for x in a.value[u].objects},
        cat_action={
            (u, g): dict(ident) for u in a.site.objects for g in a.value[u].morphisms
        },
        site_action={
            (alpha, x): dict(ident)
            for alpha in a.site.morphisms
            for x in a.value[a.site.target(alpha)].objects
        },
    )


# ---------------------------------------------------------------------------
# over-presheaves and the object-restriction adjunction


@dataclass(frozen=True)
class OverPresheaf:
    """A presheaf together with a structure map into a base presheaf."""

    total: Presheaf
    base: Presheaf
    over: dict[str, dict[str, str]]  # per site object: element -> base element


def validate_over_presheaf(p: OverPresheaf) -> list[str]:
    report = _verdict(p.total, validate_set_functor) + _verdict(p.base, validate_set_functor)
    if report:
        return report
    c = p.total.base
    if p.base.base != c:
        return ["total and base live on different sites"]
    for u in c.objects:
        fib = p.over.get(u)
        if fib is None or set(fib) != set(p.total.value[u]):
            report.append(f"structure map at {u} has wrong domain")
            continue
        if not set(fib.values()) <= set(p.base.value[u]):
            report.append(f"structure map at {u} has wrong codomain")
    if report:
        return report
    for m, (v, u) in c.morphisms.items():
        for e in p.total.value[u]:
            if p.over[v][p.total.act(m, e)] != p.base.act(m, p.over[u][e]):
                report.append(f"structure map not natural along {m}")
    return report


def object_restriction(x: EnrichedSetDiagram) -> OverPresheaf:
    """Forget the fibre actions, keeping only the object-indexed sets.

    The result is the over-object form: sections at U are the disjoint union
    of the value sets over the objects of the fibre at U, mapping down to the
    presheaf of fibre objects.  x, with its base, is validated first.
    """
    _verified(x, validate_enriched)
    a = x.base
    c = a.site
    base = object_presheaf(a)
    value = {
        u: tuple(
            pair_name(ob, e)
            for ob in sorted(a.value[u].objects)
            for e in x.value[(u, ob)]
        )
        for u in c.objects
    }
    action: dict[str, dict[str, str]] = {}
    for alpha, (v, u) in c.morphisms.items():
        r = a.restriction[alpha]
        amap = {}
        for ob in a.value[u].objects:
            for e in x.value[(u, ob)]:
                amap[pair_name(ob, e)] = pair_name(
                    r.on_object(ob), x.site_action[(alpha, ob)][e]
                )
        action[alpha] = amap
    total = make_presheaf(c, value, action)
    over = {
        u: {pair_name(ob, e): ob for ob in a.value[u].objects for e in x.value[(u, ob)]}
        for u in c.objects
    }
    return OverPresheaf(total=total, base=base, over=over)


def free_enrichment(a: PresheafOfCategories, x0: OverPresheaf) -> EnrichedSetDiagram:
    """Left adjoint of object_restriction.

    The value at (U, y) consists of pairs (e, f) where f is a fibre morphism
    out of y and e an element of x0 sitting over the target of f; fibre
    morphisms act by precomposition, site restrictions componentwise.  The
    underlying object-presheaf is the pullback of sections against fibre
    morphisms, placed over the source object.  a, then x0, is validated
    first.
    """
    _verified(a, validate_presheaf_of_categories)
    _verified(x0, validate_over_presheaf)
    c = a.site
    if x0.base.value != object_presheaf(a).value:
        raise InputError("over-presheaf does not sit over the fibre objects")
    # each element's (e, f), in the order of its token in value
    parts: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for u in c.objects:
        fib = a.value[u]
        for y in fib.objects:
            parts[(u, y)] = [
                (e, f)
                for f in sorted(fib.out_of(y))
                for e in x0.total.value[u]
                if x0.over[u][e] == fib.target(f)
            ]
    value = {k: tuple(pair_name(e, f) for e, f in ps) for k, ps in parts.items()}
    cat_action = {
        (u, gamma): {
            pair_name(e, f): pair_name(e, a.value[u].compose(f, gamma))
            for e, f in parts[(u, zz)]
        }
        for u in c.objects
        for gamma, (_yy, zz) in a.value[u].morphisms.items()
    }
    site_action = {
        (alpha, y): {
            pair_name(e, f): pair_name(
                x0.total.act(alpha, e), a.restriction[alpha].on_morphism(f)
            )
            for e, f in parts[(u, y)]
        }
        for alpha, (_v, u) in c.morphisms.items()
        for y in a.value[u].objects
    }
    return EnrichedSetDiagram(
        base=a, value=value, cat_action=cat_action, site_action=site_action
    )


# ---------------------------------------------------------------------------
# morphisms of presheaves of categories; restriction and left Kan extension


@dataclass(frozen=True)
class MorphismOfPresheavesOfCategories:
    domain: PresheafOfCategories
    codomain: PresheafOfCategories
    components: dict[str, Functor]


def validate_morphism_of_presheaves(m: MorphismOfPresheavesOfCategories) -> list[str]:
    """The laws of m, read after its domain's report, then its codomain's:
    the naturality squares compose the endpoints' restrictions."""
    report = _verdict(m.domain, validate_presheaf_of_categories) or _verdict(
        m.codomain, validate_presheaf_of_categories
    )
    if report:
        return report
    if m.domain.site != m.codomain.site:
        return ["domain and codomain live on different sites"]
    c = m.domain.site
    for u in c.objects:
        comp = m.components.get(u)
        if comp is None:
            report.append(f"no component at {u}")
            continue
        if comp.domain != m.domain.value[u] or comp.codomain != m.codomain.value[u]:
            report.append(f"component at {u} has wrong endpoints")
            continue
        report.extend(f"component at {u}: {b}" for b in _verdict(comp, validate_functor))
    if report:
        return report
    for alpha, (v, u) in c.morphisms.items():
        lhs = compose_functors(m.components[v], m.domain.restriction[alpha])
        rhs = compose_functors(m.codomain.restriction[alpha], m.components[u])
        if lhs.object_map != rhs.object_map or lhs.morphism_map != rhs.morphism_map:
            report.append(f"naturality square fails along {alpha}")
    return report


def restrict_along(
    m: MorphismOfPresheavesOfCategories, x: EnrichedSetDiagram
) -> EnrichedSetDiagram:
    """Pull an enriched diagram on the codomain back along the morphism."""
    _verified(m, validate_morphism_of_presheaves)
    if x.base != m.codomain:
        raise InputError("diagram does not live on the codomain")
    _verified(x, validate_enriched)
    a = m.domain
    c = a.site
    value = {
        (u, ob): tuple(x.value[(u, m.components[u].on_object(ob))])
        for u in c.objects
        for ob in a.value[u].objects
    }
    cat_action = {
        (u, g): dict(x.cat_action[(u, m.components[u].on_morphism(g))])
        for u in c.objects
        for g in a.value[u].morphisms
    }
    site_action = {
        (alpha, ob): dict(x.site_action[(alpha, m.components[c.target(alpha)].on_object(ob))])
        for alpha in c.morphisms
        for ob in a.value[c.target(alpha)].objects
    }
    return EnrichedSetDiagram(
        base=a, value=value, cat_action=cat_action, site_action=site_action
    )


def _kan_cocones(
    m: MorphismOfPresheavesOfCategories, y: EnrichedSetDiagram
) -> dict[str, dict[str, tuple[CommaCategory, ColimitCocone]]]:
    """Per section U: ``fincat._comma_cocones`` of y at U, a covariant diagram
    on the opposite fibre, along the opposed component m(U)^op."""
    out: dict[str, dict[str, tuple[CommaCategory, ColimitCocone]]] = {}
    for u in m.domain.site.objects:
        op = opposite_functor(m.components[u])
        section = SetValuedFunctor(
            base=op.domain,
            variance=COVARIANT,
            value={ob: y.value[(u, ob)] for ob in op.domain.objects},
            action={g: y.cat_action[(u, g)] for g in op.domain.morphisms},
        )
        out[u] = _comma_cocones(op, section)
    return out


def left_kan_along(
    m: MorphismOfPresheavesOfCategories, y: EnrichedSetDiagram
) -> EnrichedSetDiagram:
    """Left Kan extension of an enriched diagram along a morphism.

    Computed pointwise per section: the value at (U, b) is the colimit over
    the comma category of the opposed sectionwise functor at b.  Site actions
    carry colimit classes along the restrictions.
    """
    _verified(m, validate_morphism_of_presheaves)
    if y.base != m.domain:
        raise InputError("diagram does not live on the domain")
    _verified(y, validate_enriched)
    a, b = m.domain, m.codomain
    c = a.site
    cocones = _kan_cocones(m, y)
    value = {
        (u, ob): cocones[u][ob][1].elements
        for u in c.objects
        for ob in b.value[u].objects
    }

    def classify(u: str, ob: str, x_ob: str, h: str, e: str) -> str:
        return cocones[u][ob][1].leg[pair_name(x_ob, h)][e]

    cat_action: dict[tuple[str, str], dict[str, str]] = {}
    for u in c.objects:
        fibb = b.value[u]
        for delta, (b1, b2) in fibb.morphisms.items():
            # contravariant: classes over b2 move to classes over b1 by
            # extending the comma anchor h: b2 -> m(x) with delta: b1 -> b2
            cd2, cocone2 = cocones[u][b2]
            amap: dict[str, str] = {}
            for n, (x_ob, h) in cd2.object_pair.items():
                h_new = fibb.compose(h, delta)
                for e in y.value[(u, x_ob)]:
                    _well_defined_set(
                        amap,
                        cocone2.leg[n][e],
                        classify(u, b1, x_ob, h_new, e),
                        "left Kan fibre action",
                    )
            cat_action[(u, delta)] = amap
    site_action: dict[tuple[str, str], dict[str, str]] = {}
    for alpha, (v, u) in c.morphisms.items():
        ra = a.restriction[alpha]
        rb = b.restriction[alpha]
        for ob in b.value[u].objects:
            cd, cocone = cocones[u][ob]
            amap = {}
            for n, (x_ob, h) in cd.object_pair.items():
                for e in y.value[(u, x_ob)]:
                    _well_defined_set(
                        amap,
                        cocone.leg[n][e],
                        classify(
                            v,
                            rb.on_object(ob),
                            ra.on_object(x_ob),
                            rb.on_morphism(h),
                            y.site_action[(alpha, x_ob)][e],
                        ),
                        "left Kan site action",
                    )
            site_action[(alpha, ob)] = amap
    return EnrichedSetDiagram(
        base=b, value=value, cat_action=cat_action, site_action=site_action
    )


def kan_unit(
    m: MorphismOfPresheavesOfCategories, y: EnrichedSetDiagram
) -> dict[tuple[str, str], dict[str, str]]:
    """Unit y -> restrict_along(m, left_kan_along(m, y))."""
    _verified(m, validate_morphism_of_presheaves)
    if y.base != m.domain:
        raise InputError("diagram does not live on the domain")
    _verified(y, validate_enriched)
    a, b = m.domain, m.codomain
    cocones = _kan_cocones(m, y)
    out: dict[tuple[str, str], dict[str, str]] = {}
    for u in a.site.objects:
        comp = m.components[u]
        for ob in a.value[u].objects:
            mob = comp.on_object(ob)
            # e goes to the class of ((ob, id), e) in the colimit at m(ob)
            leg = cocones[u][mob][1].leg[pair_name(ob, b.value[u].identity[mob])]
            out[(u, ob)] = {e: leg[e] for e in y.value[(u, ob)]}
    return out


def kan_counit(
    m: MorphismOfPresheavesOfCategories, x: EnrichedSetDiagram
) -> dict[tuple[str, str], dict[str, str]]:
    """Counit left_kan_along(m, restrict_along(m, x)) -> x; restrict_along
    checks m and x."""
    a, b = m.domain, m.codomain
    y = restrict_along(m, x)
    cocones = _kan_cocones(m, y)
    out: dict[tuple[str, str], dict[str, str]] = {}
    for u in a.site.objects:
        for ob in b.value[u].objects:
            cd, cocone = cocones[u][ob]
            amap: dict[str, str] = {}
            for n, (x_ob, h) in cd.object_pair.items():
                # h: ob -> m(x_ob) in the fibre; x's own action brings the
                # element down from m(x_ob) to ob
                for e in y.value[(u, x_ob)]:
                    _well_defined_set(
                        amap, cocone.leg[n][e], x.cat_action[(u, h)][e], "Kan counit"
                    )
            out[(u, ob)] = amap
    return out


def total_functor(m: MorphismOfPresheavesOfCategories) -> Functor:
    """The induced functor between the total categories of the construction,
    each built once and remembered on its presheaf."""
    _verified(m, validate_morphism_of_presheaves)
    fs_a = _remembered(m.domain, _grothendieck_construct)
    fs_b = _remembered(m.codomain, _grothendieck_construct)
    c = m.domain.site
    object_map = {}
    for n, (u, x) in fs_a.object_pair.items():
        object_map[n] = pair_name(u, m.components[u].on_object(x))
    morphism_map = {}
    for (alpha, f, x), n in fs_a.morphism_of.items():
        v, u = c.morphisms[alpha]
        morphism_map[n] = fs_b.morphism_of[
            (alpha, m.components[v].on_morphism(f), m.components[u].on_object(x))
        ]
    return Functor(
        domain=fs_a.total,
        codomain=fs_b.total,
        object_map=object_map,
        morphism_map=morphism_map,
    )


def is_sectionwise_equivalence(m: MorphismOfPresheavesOfCategories) -> bool:
    """Essential surjectivity plus full faithfulness in every section."""
    return all(
        is_fully_faithful(m.components[u]) and is_essentially_surjective(m.components[u])
        for u in m.domain.site.objects
    )


# ---------------------------------------------------------------------------
# translation presheaves of categories built from diagrams of presheaves


@dataclass(frozen=True)
class PresheafDiagram:
    """An index-category-shaped diagram of presheaves with natural maps."""

    index: FiniteCategory
    value: dict[str, Presheaf]
    map: dict[str, dict[str, dict[str, str]]]  # theta -> per site object -> elements


def validate_presheaf_diagram(d: PresheafDiagram) -> list[str]:
    report = _verdict(d.index, validate_category)
    if report:
        return [f"index: {b}" for b in report]
    if not d.value:
        return ["no presheaves, so the diagram has no site"]
    base = next(iter(d.value.values())).base
    for i, p in d.value.items():
        if p.base != base:
            return [f"presheaf at {i} lives on a different site"]
        report.extend(f"presheaf at {i}: {b}" for b in _verdict(p, validate_set_functor))
    report.extend(f"no component for {theta}" for theta in d.index.morphisms if theta not in d.map)
    if report:
        return report
    # at each site object the components form a covariant set functor on the index
    for u in base.objects:
        at_u = SetValuedFunctor(
            base=d.index,
            variance=COVARIANT,
            value={i: p.value[u] for i, p in d.value.items()},
            action={theta: comp[u] for theta, comp in d.map.items() if u in comp},
        )
        report.extend(f"at {u}: {b}" for b in validate_set_functor(at_u))
    if report:
        return report
    for theta, (i, j) in d.index.morphisms.items():
        for alpha, (v, u) in base.morphisms.items():
            for e in d.value[i].value[u]:
                if d.map[theta][v][d.value[i].act(alpha, e)] != d.value[j].act(
                    alpha, d.map[theta][u][e]
                ):
                    report.append(f"naturality of {theta} fails along {alpha}")
    return report


def make_translation_presheaf(d: PresheafDiagram) -> PresheafOfCategories:
    """The presheaf of translation categories of a diagram of presheaves.

    Sectionwise, objects are pairs (i|x) with x a section of the i-th
    presheaf; a morphism (theta|x): (i|x) -> (j|x') exists when the diagram
    map carries x to x'.
    """
    _verified(d, validate_presheaf_diagram)
    base = next(iter(d.value.values())).base
    idx = d.index
    fibres: dict[str, FiniteCategory] = {}
    for u in base.objects:
        objs = [
            pair_name(i, x) for i in sorted(idx.objects) for x in d.value[i].value[u]
        ]
        morphisms: dict[str, tuple[str, str]] = {}
        for theta, (i, j) in idx.morphisms.items():
            for x in d.value[i].value[u]:
                morphisms[pair_name(theta, x)] = (
                    pair_name(i, x),
                    pair_name(j, d.map[theta][u][x]),
                )
        identity = {
            pair_name(i, x): pair_name(idx.identity[i], x)
            for i in idx.objects
            for x in d.value[i].value[u]
        }
        composition = {}
        for t2, (j, k) in idx.morphisms.items():
            for t1, (i, j1) in idx.morphisms.items():
                if j1 != j:
                    continue
                for x in d.value[i].value[u]:
                    x1 = d.map[t1][u][x]
                    composition[(pair_name(t2, x1), pair_name(t1, x))] = pair_name(
                        idx.compose(t2, t1), x
                    )
        fibres[u] = FiniteCategory(
            objects=tuple(objs),
            morphisms=morphisms,
            identity=identity,
            composition=composition,
        )
    restriction: dict[str, Functor] = {}
    for alpha, (v, u) in base.morphisms.items():
        object_map = {}
        morphism_map = {}
        for i in idx.objects:
            for x in d.value[i].value[u]:
                object_map[pair_name(i, x)] = pair_name(i, d.value[i].act(alpha, x))
        for theta, (i, j) in idx.morphisms.items():
            for x in d.value[i].value[u]:
                morphism_map[pair_name(theta, x)] = pair_name(
                    theta, d.value[i].act(alpha, x)
                )
        restriction[alpha] = Functor(
            domain=fibres[u],
            codomain=fibres[v],
            object_map=object_map,
            morphism_map=morphism_map,
        )
    return PresheafOfCategories(site=base, value=fibres, restriction=restriction)
