"""Every law branch of the diagram validators, broken one law at a time.

Each case builds input that passes every structural check (endpoints,
indexing, simplicial identities) and breaks exactly one law: an identity
that acts as a nontrivial idempotent, a composite that disagrees with the
composition of its factors, a square that does not commute.  The report is
pinned in full, so it names the offending arrow or object, and a validator
that drops the law's check fails its case.  A missing site action is
refused as such, before any law is read.  The last two cases move one
simplex of the counit or the unit, which valid input never does, and check
that the sectionwise run reports the naturality square it breaks.
"""

import random

import pytest

from fibsite import hocopb
from fibsite.cohom import AbelianPresheaf, ZZ, validate_abelian_presheaf, zmod
from fibsite.fibred import (
    EnrichedSetDiagram,
    MorphismOfPresheavesOfCategories,
    OverPresheaf,
    PresheafDiagram,
    constant_enriched_diagram,
    constant_presheaf_of_categories,
    validate_enriched,
    validate_morphism_of_presheaves,
    validate_over_presheaf,
    validate_presheaf_diagram,
)
from fibsite.fincat import (
    FiniteCategory,
    Functor,
    codiscrete_groupoid,
    cyclic_groupoid,
    discrete_category,
    identity_functor,
    opposite,
    poset_chain,
    terminal_category,
    validate_functor,
)
from fibsite.hocopb import (
    EnrichedGroupoidDiagram,
    EnrichedOverNerve,
    GroupoidDiagram,
    OverNerve,
    presheaf_hocolim_pb,
    validate_diagram,
    validate_enriched_diagram,
    validate_enriched_over_nerve,
)
from fibsite.sampling import random_enriched_diagram, random_enriched_over_nerve
from fibsite.site import make_presheaf
from fibsite.sset import SimplicialMap, disjoint_union_ssets, nerve, standard_simplex

D = 2  # the truncation of every simplicial set here
CHAIN2 = ("V", "U")  # a_V_U : V -> U
CHAIN3 = ("W", "V", "U")  # a_W_V, a_V_U and their composite a_W_U
TRIVIAL = cyclic_groupoid(1)  # one object * and its identity


def points(tags: str):
    """A discrete simplicial set: one vertex per tag, with its degeneracies."""
    return disjoint_union_ssets([standard_simplex(0, D)] * len(tags), list(tags))[0]


def moving(s, t, perm: dict):
    """The simplicial map s -> t moving the vertex at tag e to the one at perm[e]."""
    return SimplicialMap(
        domain=s,
        codomain=t,
        components=tuple(
            {tok: (perm.get(tok[0], tok[0]), tok[1]) for tok in s.simplices[n]}
            for n in range(s.dim + 1)
        ),
    )


IDENTITY: dict = {}
SWAP = {"p": "q", "q": "p"}
TO_P = {"q": "p"}  # an idempotent that is not the identity
CYCLE = {"p": "q", "q": "r", "r": "p"}


# ---------------------------------------------------------------------------
# hocopb: diagrams, enriched diagrams and enriched over-objects


def groupoid_diagram(tags: str, identity: dict, r1: dict) -> GroupoidDiagram:
    """A diagram on Z/2 whose value is a discrete set of points."""
    s = points(tags)
    return GroupoidDiagram(
        base=cyclic_groupoid(2),
        value={"*": s},
        action={"id_*": moving(s, s, identity), "r1": moving(s, s, r1)},
    )


def enriched_diagram(chain, fibre, site_moves: dict, cat_moves: dict | None = None):
    """A constant presheaf of groupoids with points pq in every value; each
    action is the identity unless the moves name it."""
    site = poset_chain(list(chain))
    base = constant_presheaf_of_categories(site, fibre)
    s = points("pq")
    value = {(u, ob): s for u in site.objects for ob in fibre.objects}
    cat_action = {
        (u, m): moving(s, s, (cat_moves or {}).get((u, m), IDENTITY))
        for u in site.objects
        for m in fibre.morphisms
    }
    site_action = {
        (alpha, ob): moving(s, s, site_moves.get(alpha, IDENTITY))
        for alpha in site.morphisms
        for ob in fibre.objects
    }
    return EnrichedGroupoidDiagram(
        base=base, value=value, cat_action=cat_action, site_action=site_action
    )


def enriched_over_nerve(chain, fibre, over: dict, site_moves: dict) -> EnrichedOverNerve:
    """One section shared by every site object: points pq, the point at e
    sitting at the vertex over[e] of the opposed fibre's nerve."""
    site = poset_chain(list(chain))
    base = constant_presheaf_of_categories(site, fibre)
    op = opposite(fibre)
    s = points("pq")
    ns = nerve(op, D)
    structure = SimplicialMap(
        domain=s,
        codomain=ns,
        components=tuple(
            {tok: (over[tok[0]],) if n == 0 else (op.identity[over[tok[0]]],) * n
             for tok in s.simplices[n]}
            for n in range(D + 1)
        ),
    )
    x = OverNerve(base=op, total=s, structure=structure)
    return EnrichedOverNerve(
        base=base,
        sections={u: x for u in site.objects},
        site_action={alpha: moving(s, s, site_moves.get(alpha, IDENTITY)) for alpha in site.morphisms},
    )


ALL_AT_STAR = {"p": "*", "q": "*"}
HOCOPB_CASES = [
    ("diagram-identity", validate_diagram,
     lambda: groupoid_diagram("pq", TO_P, TO_P),
     ["degree 0: identity action at * is not the identity"]),
    ("diagram-functoriality", validate_diagram,
     lambda: groupoid_diagram("pqr", IDENTITY, CYCLE),
     ["degree 0: functoriality fails on (r1, r1)"]),
    ("enriched-identity-site-action", validate_enriched_diagram,
     lambda: enriched_diagram(CHAIN2, TRIVIAL, {"id_U": TO_P, "a_V_U": TO_P}),
     ["degree 0: identity site action at (U, *) not the identity"]),
    ("enriched-site-functoriality", validate_enriched_diagram,
     lambda: enriched_diagram(CHAIN3, TRIVIAL, {"a_V_U": SWAP}),
     ["degree 0: site functoriality fails on (a_V_U, a_W_V) at *"]),
    ("enriched-square", validate_enriched_diagram,
     lambda: enriched_diagram(CHAIN2, cyclic_groupoid(2), {}, {("U", "r1"): SWAP}),
     ["degree 0: enriched square fails for a_V_U and r1"]),
    ("over-nerve-cover", validate_enriched_over_nerve,
     lambda: enriched_over_nerve(
         CHAIN2, codiscrete_groupoid(["o1", "o2"]), {"p": "o1", "q": "o2"}, {"a_V_U": SWAP}),
     ["site action along a_V_U does not cover the nerve restriction"]),
    ("over-nerve-identity-site-action", validate_enriched_over_nerve,
     lambda: enriched_over_nerve(CHAIN2, TRIVIAL, ALL_AT_STAR, {"id_U": TO_P, "a_V_U": TO_P}),
     ["degree 0: identity action at U is not the identity"]),
    ("over-nerve-site-functoriality", validate_enriched_over_nerve,
     lambda: enriched_over_nerve(CHAIN3, TRIVIAL, ALL_AT_STAR, {"a_V_U": SWAP}),
     ["degree 0: functoriality fails on (a_V_U, a_W_V)"]),
]


def without_site_action(alpha: str) -> EnrichedOverNerve:
    y = enriched_over_nerve(CHAIN2, TRIVIAL, ALL_AT_STAR, {})
    site_action = {k: f for k, f in y.site_action.items() if k != alpha}
    return EnrichedOverNerve(base=y.base, sections=y.sections, site_action=site_action)


HOCOPB_CASES += [
    # a missing site action is a structural refusal; the laws are not read
    ("over-nerve-no-identity-site-action", validate_enriched_over_nerve,
     lambda: without_site_action("id_U"), ["no site action along id_U"]),
    ("over-nerve-no-site-action", validate_enriched_over_nerve,
     lambda: without_site_action("a_V_U"), ["no site action along a_V_U"]),
]


@pytest.mark.parametrize(
    "validator, build, report", [c[1:] for c in HOCOPB_CASES], ids=[c[0] for c in HOCOPB_CASES]
)
def test_a_broken_simplicial_law_is_refused(validator, build, report):
    assert validator(build()) == report


def test_each_section_is_valid_on_its_own():
    # the enriched cases break a law between sections, never inside one
    for case in HOCOPB_CASES[2:5]:
        x = case[2]()
        for u in x.base.site.objects:
            assert validate_diagram(hocopb.section_diagram(x, u)) == []


# ---------------------------------------------------------------------------
# fibred: enriched set diagrams, over-presheaves, morphisms, presheaf diagrams


def enriched_sets(chain, fibre, site_moves: dict, cat_moves: dict | None = None) -> EnrichedSetDiagram:
    """A constant presheaf of categories with the set pq in every value; each
    action is the identity unless the moves name it."""
    x = constant_enriched_diagram(
        constant_presheaf_of_categories(poset_chain(list(chain)), fibre), ("p", "q")
    )

    def moved(perm: dict) -> dict:
        return {e: perm.get(e, e) for e in ("p", "q")}

    return EnrichedSetDiagram(
        base=x.base,
        value=x.value,
        cat_action={k: moved((cat_moves or {}).get(k, IDENTITY)) for k in x.cat_action},
        site_action={k: moved(site_moves.get(k[0], IDENTITY)) for k in x.site_action},
    )


def over_presheaf() -> OverPresheaf:
    # the structure map swaps x and y at V and fixes them at U
    site = poset_chain(list(CHAIN2))
    same = {m: {"x": "x", "y": "y"} for m in site.objects}
    p = make_presheaf(site, {u: ("x", "y") for u in site.objects},
                      {m: {"x": "x", "y": "y"} for m in site.morphisms})
    return OverPresheaf(total=p, base=p, over={**same, "V": {"x": "y", "y": "x"}})


def swapped_morphism() -> MorphismOfPresheavesOfCategories:
    # identity components from a constant presheaf of {x, y} to one whose
    # restriction swaps x and y
    site = poset_chain(list(CHAIN2))
    d = discrete_category(["x", "y"])
    a = constant_presheaf_of_categories(site, d)
    swap = Functor(domain=d, codomain=d, object_map={"x": "y", "y": "x"},
                   morphism_map={"id_x": "id_y", "id_y": "id_x"})
    b = type(a)(site=site, value=a.value, restriction={**a.restriction, "a_V_U": swap})
    return MorphismOfPresheavesOfCategories(
        domain=a, codomain=b, components={u: identity_functor(d) for u in site.objects}
    )


def presheaf_diagram(index_chain, maps: dict) -> PresheafDiagram:
    """A diagram of the one presheaf pq on the terminal site, over a chain
    of index objects; maps gives each index arrow's component at U."""
    site = terminal_category("U")
    p = make_presheaf(site, {"U": ("p", "q")}, {"id_U": {"p": "p", "q": "q"}})
    index = poset_chain(list(index_chain))
    comps = {}
    for theta in index.morphisms:
        if theta in maps:
            if maps[theta] is not None:
                comps[theta] = {"U": maps[theta]}
        else:
            comps[theta] = {"U": {"p": "p", "q": "q"}}
    return PresheafDiagram(index=index, value={i: p for i in index.objects}, map=comps)


CONST_P = {"p": "p", "q": "p"}
SWAP_PQ = {"p": "q", "q": "p"}
FIBRED_CASES = [
    ("enriched-sets-identity-site-action", validate_enriched,
     lambda: enriched_sets(CHAIN2, TRIVIAL, {"id_U": TO_P, "a_V_U": TO_P}),
     ["identity site action at (U, *) not the identity"]),
    ("enriched-sets-site-functoriality", validate_enriched,
     lambda: enriched_sets(CHAIN3, TRIVIAL, {"a_V_U": SWAP}),
     ["site functoriality fails on (a_V_U, a_W_V) at *"]),
    ("enriched-sets-square", validate_enriched,
     lambda: enriched_sets(CHAIN2, cyclic_groupoid(2), {}, {("U", "r1"): SWAP}),
     ["enriched square fails for a_V_U and r1"]),
    ("over-presheaf-naturality", validate_over_presheaf, over_presheaf,
     ["structure map not natural along a_V_U"] * 2),
    ("morphism-naturality", validate_morphism_of_presheaves, swapped_morphism,
     ["naturality square fails along a_V_U"]),
    ("presheaf-diagram-no-component", validate_presheaf_diagram,
     lambda: presheaf_diagram("ij", {"a_i_j": None}),
     ["no component for a_i_j"]),
    ("presheaf-diagram-wrong-domain", validate_presheaf_diagram,
     lambda: presheaf_diagram("ij", {"a_i_j": {"p": "p"}}),
     ["at U: action of a_i_j not defined on exactly the value set"]),
    ("presheaf-diagram-wrong-codomain", validate_presheaf_diagram,
     lambda: presheaf_diagram("ij", {"a_i_j": {"p": "p", "q": "z"}}),
     ["at U: action of a_i_j escapes the target value set"]),
    ("presheaf-diagram-identity", validate_presheaf_diagram,
     lambda: presheaf_diagram("ij", {"id_i": CONST_P, "a_i_j": CONST_P}),
     ["at U: identity action at i is not the identity"]),
    ("presheaf-diagram-functoriality", validate_presheaf_diagram,
     lambda: presheaf_diagram("ijk", {"a_i_j": SWAP_PQ}),
     ["at U: functoriality fails on (a_j_k, a_i_j)"]),
]


@pytest.mark.parametrize(
    "validator, build, report", [c[1:] for c in FIBRED_CASES], ids=[c[0] for c in FIBRED_CASES]
)
def test_a_broken_set_level_law_is_refused(validator, build, report):
    assert validator(build()) == report


# ---------------------------------------------------------------------------
# cohom and fincat


def abelian(chain, groups: dict, matrices: dict) -> AbelianPresheaf:
    site = poset_chain(list(chain)) if len(chain) > 1 else terminal_category(chain[0])
    return AbelianPresheaf(
        base=site,
        group={u: groups.get(u, ZZ) for u in site.objects},
        restriction={m: matrices.get(m, [[1]]) for m in site.morphisms},
    )


def idempotent_category() -> FiniteCategory:
    return FiniteCategory(
        objects=("x",),
        morphisms={"id_x": ("x", "x"), "e": ("x", "x")},
        identity={"x": "id_x"},
        composition={("id_x", "id_x"): "id_x", ("id_x", "e"): "e", ("e", "id_x"): "e", ("e", "e"): "e"},
    )


def identity_to_idempotent() -> Functor:
    c = idempotent_category()
    return Functor(domain=c, codomain=c, object_map={"x": "x"},
                   morphism_map={"id_x": "e", "e": "e"})


OTHER_CASES = [
    ("abelian-relations", validate_abelian_presheaf,
     lambda: abelian(CHAIN2, {"U": zmod(2)}, {}),
     ["matrix for a_V_U does not respect relations"]),
    ("abelian-identity", validate_abelian_presheaf,
     lambda: abelian(("U",), {}, {"id_U": [[0]]}),
     ["identity matrix at U is not the identity"]),
    ("abelian-functoriality", validate_abelian_presheaf,
     lambda: abelian(CHAIN3, {}, {"a_V_U": [[-1]]}),
     ["functoriality fails on (a_V_U, a_W_V)"]),
    ("functor-identity", validate_functor, identity_to_idempotent,
     ["identity of x not preserved"]),
]


@pytest.mark.parametrize(
    "validator, build, report", [c[1:] for c in OTHER_CASES], ids=[c[0] for c in OTHER_CASES]
)
def test_a_broken_law_elsewhere_is_refused(validator, build, report):
    assert validator(build()) == report


# ---------------------------------------------------------------------------
# naturality of the sectionwise counit and unit, with one simplex moved


def one_simplex_moved(m: SimplicialMap) -> SimplicialMap:
    """m with the least simplex of degree 0 sent to another vertex."""
    cm = dict(m.components[0])
    k = min(cm, key=repr)
    cm[k] = next(v for v in sorted(m.codomain.simplices[0], key=repr) if v != cm[k])
    return SimplicialMap(domain=m.domain, codomain=m.codomain, components=(cm, *m.components[1:]))


def test_a_counit_off_by_one_simplex_is_not_natural(monkeypatch):
    x = random_enriched_diagram(random.Random(3), poset_chain(list(CHAIN2)), 2)
    assert presheaf_hocolim_pb(x, 2).counit_natural
    counit = hocopb.enriched_counit

    def moved(x_, d):
        eps = counit(x_, d)
        key = next(k for k in sorted(eps) if k[0] == "U" and len(eps[k].codomain.simplices[0]) > 1)
        eps[key] = one_simplex_moved(eps[key])
        return eps

    monkeypatch.setattr(hocopb, "enriched_counit", moved)
    run = presheaf_hocolim_pb(random_enriched_diagram(random.Random(3), poset_chain(list(CHAIN2)), 2), 2)
    assert (run.counit_natural, run.unit_natural, run.triangles.passed) == (False, True, True)


def test_a_unit_off_by_one_simplex_is_not_natural(monkeypatch):
    y = random_enriched_over_nerve(random.Random(3), poset_chain(list(CHAIN2)), 2)
    assert presheaf_hocolim_pb(y, 2).unit_natural
    unit = hocopb.enriched_unit

    def moved(y_):
        eta = unit(y_)
        eta["U"] = one_simplex_moved(eta["U"])
        return eta

    monkeypatch.setattr(hocopb, "enriched_unit", moved)
    run = presheaf_hocolim_pb(random_enriched_over_nerve(random.Random(3), poset_chain(list(CHAIN2)), 2), 2)
    assert (run.unit_natural, run.counit_natural, run.triangles.passed) == (False, True, True)
