import itertools
import random
from pathlib import Path

import pytest

from fibsite.bundle import parse_bundle
from fibsite.errors import InputError
from fibsite.fibred import (
    constant_presheaf_of_categories,
    grothendieck_construct,
    induced_topology,
)
from fibsite.fincat import (
    _least_representatives,
    build_category,
    poset_chain,
    terminal_category,
    validate_category,
    validate_set_functor,
)
from fibsite.sampling import random_poset_site, random_presheaf, random_topology
from fibsite.site import (
    GrothendieckTopology,
    Sieve,
    all_sieves,
    constant_presheaf,
    coproduct_presheaf,
    family_of_section,
    is_sheaf,
    is_trivial_topology,
    make_presheaf,
    matching_families,
    maximal_sieve,
    plus_construction,
    pullback_sieve,
    representable_presheaf,
    saturate_topology,
    sheafify,
    sieve_from_generators,
    trivial_topology,
    validate_sieve,
    verify_topology,
)
from helpers import random_seeds
from topology_oracles import presheaves_isomorphic


BUNDLES = Path(__file__).resolve().parents[1] / "bundles"


@pytest.fixture
def covered_chain(chain2):
    s = sieve_from_generators(chain2, "U", {"a_V_U"})
    return chain2, saturate_topology(chain2, {"U": {s}}), s


def diamond():
    """The poset w < d, e < u, with L(w) empty and L(u) generated by
    g: d -> u and h: e -> u, and a presheaf F that is not separated at w.

    d and e are the irreducibles, and L(u) is the sieve they generate, so
    the topology is rigid.  F(u) = {s} restricts to 0 at d and at e, and
    F(d) = F(e) = {0, 1} both restrict to w by 0 -> a and 1 -> b.  The
    arrows are named so that g sorts before its restriction m = g.k.
    """
    c = build_category(
        ["u", "d", "e", "w"],
        {"g": ("d", "u"), "h": ("e", "u"), "k": ("w", "d"), "l": ("w", "e"), "m": ("w", "u")},
        {("g", "k"): "m", ("h", "l"): "m"},
    )
    seeds = {"u": {sieve_from_generators(c, "u", {"g", "h"})}, "w": {Sieve("w", frozenset())}}
    bit, to_w = {"0": "0", "1": "1"}, {"0": "a", "1": "b"}
    f = make_presheaf(
        c,
        value={"u": ("s",), "d": ("0", "1"), "e": ("0", "1"), "w": ("a", "b")},
        action={
            "id_u": {"s": "s"}, "id_d": bit, "id_e": bit, "id_w": {"a": "a", "b": "b"},
            "g": {"s": "0"}, "h": {"s": "0"}, "k": to_w, "l": to_w, "m": {"s": "a"},
        },
    )
    return c, saturate_topology(c, seeds), f


class TestSieves:
    def test_empty_generators(self, chain2):
        s = sieve_from_generators(chain2, "U", set())
        assert s.members == frozenset()
        assert validate_sieve(chain2, s) == []

    def test_identity_generates_maximal(self, chain2):
        s = sieve_from_generators(chain2, "U", {"id_U"})
        assert s == maximal_sieve(chain2, "U")

    def test_closure_on_three_chain(self, chain3):
        s = sieve_from_generators(chain3, "U", {"a_V_U"})
        assert s.members == frozenset({"a_V_U", "a_W_U"})

    def test_wrong_target_rejected(self, chain2):
        with pytest.raises(InputError):
            sieve_from_generators(chain2, "V", {"a_V_U"})

    def test_closure_idempotent(self, chain3):
        s = sieve_from_generators(chain3, "U", {"a_V_U"})
        again = sieve_from_generators(chain3, "U", set(s.members))
        assert again == s


class TestPullback:
    def test_along_identity(self, chain3):
        s = sieve_from_generators(chain3, "U", {"a_V_U"})
        assert pullback_sieve(chain3, s, "id_U") == s

    def test_maximal_pulls_to_maximal(self, chain3):
        for alpha in chain3.morphisms:
            u = chain3.target(alpha)
            v = chain3.source(alpha)
            assert pullback_sieve(
                chain3, maximal_sieve(chain3, u), alpha
            ) == maximal_sieve(chain3, v)

    def test_chain_example(self, chain3):
        s = sieve_from_generators(chain3, "U", {"a_V_U"})
        assert pullback_sieve(chain3, s, "a_V_U") == maximal_sieve(chain3, "V")

    def test_composition_law(self, chain3, z2):
        # (pullback along gamma) of (pullback along alpha) = pullback along alpha.gamma
        for c in (chain3, z2):
            for u in c.objects:
                for s in all_sieves(c, u):
                    for alpha in c.into(u):
                        p = pullback_sieve(c, s, alpha)
                        for gamma in c.into(c.source(alpha)):
                            lhs = pullback_sieve(c, p, gamma)
                            rhs = pullback_sieve(c, s, c.compose(alpha, gamma))
                            assert lhs == rhs


class TestVerifyTopology:
    def test_trivial_always_passes(self, pt, chain3, z2, e2):
        for c in (pt, chain3, z2, e2):
            assert verify_topology(trivial_topology(c)) == []

    def test_saturation_produces_topology(self, chain3):
        s = sieve_from_generators(chain3, "U", {"a_W_U"})
        t = saturate_topology(chain3, {"U": {s}})
        assert verify_topology(t) == []
        # local character forces the intermediate sieve to cover
        mid = sieve_from_generators(chain3, "U", {"a_V_U"})
        assert mid in t.covering("U")

    def test_seed_on_an_unknown_object_refused(self, chain2):
        with pytest.raises(InputError, match="seed sieve on X is not a sieve"):
            saturate_topology(chain2, {"X": {Sieve("X", frozenset())}})

    def test_all_sieves_counts(self, chain3):
        # sieves on U: {}, <a_W_U>, <a_V_U>, maximal
        assert len(all_sieves(chain3, "U")) == 4


class TestMatchingFamilies:
    @staticmethod
    def every_family(f, s):
        """Matching families by brute force over all assignments."""
        c = f.base
        members = sorted(s.members)
        out = []
        for values in itertools.product(*(f.value[c.source(m)] for m in members)):
            fam = dict(zip(members, values))
            if all(
                f.act(g, fam[m]) == fam[c.compose(m, g)]
                for m in members
                for g in c.into(c.source(m))
            ):
                out.append(tuple(sorted(fam.items())))
        return tuple(sorted(out))

    @pytest.mark.parametrize("seed", [99, 191, *range(12)])
    def test_search_agrees_with_brute_force(self, seed):
        # seeds 99 and 191 reach a member forced twice, by two earlier
        # members; the search must not forget the first forcing on backtrack
        rng = random.Random(seed)
        site = random_poset_site(rng, rng.choice([3, 4, 5]))
        f = random_presheaf(rng, site)
        for u in site.objects:
            for s in all_sieves(site, u):
                assert matching_families(f, s) == self.every_family(f, s)

    def test_member_assigned_before_its_turn(self):
        # g sorts before its restriction m = g.k, so a value at g assigns m
        # ahead of m's own turn, and the search must step on past m
        c, t, f = diamond()
        s = t.least["u"]
        assert sorted(s.members) == ["g", "h", "m"]
        assert matching_families(f, s) == self.every_family(f, s)
        assert len(matching_families(f, s)) == 2


class TestSheafCondition:
    def test_trivial_topology_everything_is_sheaf(self, chain2):
        t = trivial_topology(chain2)
        f = representable_presheaf(chain2, "U")
        assert is_sheaf(f, t).ok

    def test_failing_example(self, covered_chain):
        chain2, t, s = covered_chain
        f = make_presheaf(
            chain2,
            value={"U": ("s",), "V": ("0", "1")},
            action={
                "id_U": {"s": "s"},
                "id_V": {"0": "0", "1": "1"},
                "a_V_U": {"s": "0"},
            },
        )
        fams = matching_families(f, s)
        assert len(fams) == 2
        verdict = is_sheaf(f, t)
        assert not verdict.ok and verdict.kind == "existence"

    def test_bijective_restriction_is_sheaf(self, covered_chain):
        chain2, t, s = covered_chain
        f = make_presheaf(
            chain2,
            value={"U": ("0", "1"), "V": ("0", "1")},
            action={
                "id_U": {"0": "0", "1": "1"},
                "id_V": {"0": "0", "1": "1"},
                "a_V_U": {"0": "0", "1": "1"},
            },
        )
        assert is_sheaf(f, t).ok

    def test_uniqueness_failure_detected(self, covered_chain):
        chain2, t, s = covered_chain
        f = make_presheaf(
            chain2,
            value={"U": ("0", "1"), "V": ("z",)},
            action={
                "id_U": {"0": "0", "1": "1"},
                "id_V": {"z": "z"},
                "a_V_U": {"0": "z", "1": "z"},
            },
        )
        verdict = is_sheaf(f, t)
        assert not verdict.ok and verdict.kind == "uniqueness"


class TestSheafify:
    def test_sheaf_fixed_up_to_isomorphism(self, covered_chain):
        chain2, t, s = covered_chain
        f = make_presheaf(
            chain2,
            value={"U": ("0", "1"), "V": ("0", "1")},
            action={
                "id_U": {"0": "0", "1": "1"},
                "id_V": {"0": "0", "1": "1"},
                "a_V_U": {"0": "0", "1": "1"},
            },
        )
        plus = sheafify(f, t)
        assert is_sheaf(plus, t).ok
        assert presheaves_isomorphic(f, plus)

    def test_failing_example_gets_fixed(self, covered_chain):
        chain2, t, s = covered_chain
        f = make_presheaf(
            chain2,
            value={"U": ("s",), "V": ("0", "1")},
            action={
                "id_U": {"s": "s"},
                "id_V": {"0": "0", "1": "1"},
                "a_V_U": {"s": "0"},
            },
        )
        plus = sheafify(f, t)
        assert is_sheaf(plus, t).ok
        assert len(plus.value["U"]) == 2
        assert len(plus.value["V"]) == 2

    def test_empty_presheaf(self, chain2):
        t = trivial_topology(chain2)
        f = make_presheaf(
            chain2,
            value={"U": (), "V": ()},
            action={m: {} for m in chain2.morphisms},
        )
        plus = sheafify(f, t)
        assert all(len(plus.value[u]) == 0 for u in chain2.objects)

    def test_idempotent_up_to_isomorphism(self, covered_chain):
        chain2, t, s = covered_chain
        f = coproduct_presheaf(
            [representable_presheaf(chain2, "U"), constant_presheaf(chain2, ("c",))],
            ["y", "k"],
        )
        once = sheafify(f, t)
        twice = sheafify(once, t)
        assert is_sheaf(once, t).ok
        assert presheaves_isomorphic(once, twice)

    def test_an_identity_and_a_constant_restriction_are_not_isomorphic(self):
        # equal section counts everywhere, but no bijections commute with
        # the arrow a -> b, so the search must try them all before it says no
        c = poset_chain(["a", "b"])
        ident = {"0": "0", "1": "1"}
        sections = {"a": ("0", "1"), "b": ("0", "1")}
        f = make_presheaf(c, value=sections, action={"id_a": ident, "id_b": ident, "a_a_b": ident})
        g = make_presheaf(
            c,
            value=sections,
            action={"id_a": ident, "id_b": ident, "a_a_b": {"0": "0", "1": "0"}},
        )
        assert not presheaves_isomorphic(f, g)
        assert presheaves_isomorphic(f, f) and presheaves_isomorphic(g, g)

    def test_cech_h0_matches_matching_families(self, covered_chain):
        # |matching families| equals the sheafified section count over U here
        chain2, t, s = covered_chain
        f = make_presheaf(
            chain2,
            value={"U": ("s",), "V": ("0", "1")},
            action={
                "id_U": {"s": "s"},
                "id_V": {"0": "0", "1": "1"},
                "a_V_U": {"s": "0"},
            },
        )
        fams = matching_families(f, s)
        plus = sheafify(f, t)
        assert len(plus.value["U"]) == len(fams)

    def test_invalid_presheaf_refused(self, covered_chain):
        chain2, t, _s = covered_chain
        f = make_presheaf(
            chain2,
            value={"U": ("s",), "V": ("0",)},
            action={"id_U": {"s": "s"}, "id_V": {"0": "0"}, "a_V_U": {"s": "1"}},
        )
        with pytest.raises(InputError, match="presheaf invalid"):
            sheafify(f, t)

    def test_every_check_refuses_a_presheaf_with_no_actions(self, chain2, covered_chain):
        # is_sheaf and plus_construction once read it until KeyError: 'id_V'
        rep = representable_presheaf(chain2, "U")
        f = make_presheaf(chain2, rep.value, {})
        for t in (trivial_topology(chain2), covered_chain[1]):
            for check in (is_sheaf, plus_construction, sheafify):
                with pytest.raises(InputError, match="presheaf invalid: no action for id_U; "):
                    check(f, t)

    def test_topology_from_another_site_refused(self, chain2, pt):
        # the point's covers say nothing about U and V: no verdict may pass
        f = constant_presheaf(chain2, ("a", "b"))
        t = trivial_topology(pt)
        for check in (is_sheaf, plus_construction, sheafify):
            with pytest.raises(InputError, match="does not live on"):
                check(f, t)

    def test_object_without_cover_refused(self, chain2):
        f = constant_presheaf(chain2, ("a",))
        lacking = GrothendieckTopology(site=chain2, least={"U": maximal_sieve(chain2, "U")})
        elsewhere = GrothendieckTopology(
            site=chain2, least={u: maximal_sieve(chain2, "V") for u in chain2.objects}
        )
        for t, message in ((lacking, "no least cover of V"), (elsewhere, "cover of U lives on V")):
            for read in (
                verify_topology, is_trivial_topology, lambda t: t.covering("U"),
                lambda t: is_sheaf(f, t), lambda t: plus_construction(f, t),
                lambda t: sheafify(f, t),
            ):
                with pytest.raises(InputError, match=message):
                    read(t)
        with pytest.raises(InputError, match="W is not an object"):
            trivial_topology(chain2).covering("W")

    @pytest.mark.parametrize("stray", ["zz", "id_V"])
    def test_least_cover_holding_a_stray_arrow_refused(self, chain2, stray):
        # every reader refuses a least cover holding an arrow that does not
        # end at U, unknown or not; the verifier reports it as a non-sieve
        least = {"U": Sieve("U", frozenset({stray})), "V": maximal_sieve(chain2, "V")}
        t = GrothendieckTopology(site=chain2, least=least)
        f = constant_presheaf(chain2, ("a",))
        fs = grothendieck_construct(constant_presheaf_of_categories(chain2, terminal_category("x")))
        message = f"least cover of U holds {stray}, which is not an arrow into U"
        for read in (
            is_trivial_topology, lambda t: t.covering("U"), lambda t: is_sheaf(f, t),
            lambda t: plus_construction(f, t), lambda t: sheafify(f, t),
            lambda t: induced_topology(fs, t),
        ):
            with pytest.raises(InputError, match=message):
                read(t)
        assert verify_topology(t) == [f"L(U) is not a sieve on U: ['{stray}']"]

    def test_cover_not_stable_under_pullback_refused(self, chain3):
        least = {u: maximal_sieve(chain3, u) for u in chain3.objects}
        least["U"] = sieve_from_generators(chain3, "U", {"a_W_U"})
        t = GrothendieckTopology(site=chain3, least=least)
        with pytest.raises(InputError, match="not stable under pullback"):
            plus_construction(constant_presheaf(chain3, ("x",)), t)


def _plus_oracle(f, t):
    """F+ the slow way: the colimit over every cover of each object.

    The classes are those of (cover index, matching family) pairs, where a
    family is linked to its restriction to every smaller cover.  The action
    of alpha is read off every member of a class and must be the same class.
    """
    c = f.base
    covers = {u: sorted(t.covering(u), key=lambda s: sorted(s.members)) for u in c.objects}
    fams = {u: [matching_families(f, s) for s in covers[u]] for u in c.objects}
    rep = {}
    for u in c.objects:
        links = [
            ((i, fam), (j, tuple(p for p in fam if p[0] in sj.members)))
            for i, si in enumerate(covers[u])
            for j, sj in enumerate(covers[u])
            if sj.members < si.members
            for fam in fams[u][i]
        ]
        items = [(i, fam) for i, fs in enumerate(fams[u]) for fam in fs]
        rep[u] = _least_representatives(items, links)
    restrict = {}
    for alpha, (v, u) in c.morphisms.items():
        image: dict = {}
        for (i, fam), cls in rep[u].items():
            pulled = pullback_sieve(c, covers[u][i], alpha)
            j = covers[v].index(pulled)
            lut = dict(fam)
            sub = tuple(sorted((g, lut[c.compose(alpha, g)]) for g in pulled.members))
            image.setdefault(cls, set()).add(rep[v][(j, sub)])
        assert all(len(img) == 1 for img in image.values())
        restrict[alpha] = {cls: img.pop() for cls, img in image.items()}
    return covers, rep, restrict


def _assert_plus_matches_oracle(f, t):
    plus = plus_construction(f, t)
    covers, rep, restrict = _plus_oracle(f, t)
    label = {}
    for u in f.base.objects:
        classes = set(rep[u].values())
        assert len(plus.value[u]) == len(classes)
        # plus labels the families on the least cover; every class meets
        # that cover exactly once, since it is terminal among the covers
        i = min(range(len(covers[u])), key=lambda i: len(covers[u][i].members))
        assert all(covers[u][i].members <= s.members for s in covers[u])
        least = matching_families(f, covers[u][i])
        label[u] = {rep[u][(i, fam)]: x for fam, x in zip(least, plus.value[u])}
        assert len(least) == len(label[u]) == len(classes)
    for alpha, (v, u) in f.base.morphisms.items():
        for cls, img in restrict[alpha].items():
            assert plus.act(alpha, label[u][cls]) == label[v][img]


class TestPlusConstructionOracle:
    def test_random_instances(self):
        for seed in range(200):
            rng = random.Random(seed)
            c = random_poset_site(rng)
            t = random_topology(rng, c)
            f = random_presheaf(rng, c)
            _assert_plus_matches_oracle(f, t)
            _assert_plus_matches_oracle(plus_construction(f, t), t)

    def test_chain_cover_bundle(self):
        b = parse_bundle([str(BUNDLES / "chain_cover.bundle")])
        t = b.topologies["C"]
        for f in b.set_presheaves.values():
            _assert_plus_matches_oracle(f, t)
            _assert_plus_matches_oracle(plus_construction(f, t), t)


# ---------------------------------------------------------------------------
# sheafification is F++ on every finite site, and F+ is not enough


class TestOnePlusConstructionIsNotEnough:
    def test_the_diamond_is_a_rigid_site(self):
        c, t, f = diamond()
        assert verify_topology(t) == [] and validate_set_functor(f) == []
        assert {u: sorted(t.least[u].members) for u in c.objects} == {
            "u": ["g", "h", "m"], "d": ["id_d", "k"], "e": ["id_e", "l"], "w": [],
        }
        assert is_rigid(t)

    def test_plus_is_not_a_sheaf(self):
        # F+(u) holds the families with x_g = x_h, since both restrict to
        # x_m; but F+(w) is a point, so F+ has families with x_g != x_h
        c, t, f = diamond()
        plus = plus_construction(f, t)
        assert {u: len(plus.value[u]) for u in c.objects} == {"u": 2, "d": 2, "e": 2, "w": 1}
        verdict = is_sheaf(plus, t)
        assert (verdict.ok, verdict.object, verdict.kind) == (False, "u", "existence")

    def test_sheafify_is_the_limit_over_the_irreducibles(self):
        # aF(u) = F(d) x F(e), the limit of F over the arrows g and h
        c, t, f = diamond()
        a = sheafify(f, t)
        assert {u: len(a.value[u]) for u in c.objects} == {"u": 4, "d": 2, "e": 2, "w": 1}
        assert is_sheaf(a, t).ok


def function_category(rng):
    """A category of finite sets and functions, closed under composition.

    One to three sets of one to three points, a non-identity idempotent on
    one of them, so that the category is not EI, and up to two random maps.
    An arrow from set i to set j is named fij_ followed by its values.
    None when the closure has more than 14 arrows.
    """
    sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
    x = rng.randrange(len(sizes))
    sizes[x] = max(sizes[x], 2)
    keep = rng.sample(range(sizes[x]), rng.randint(1, sizes[x] - 1))
    gens = {(x, x, tuple(i if i in keep else rng.choice(keep) for i in range(sizes[x])))}
    for _ in range(rng.randint(0, 2)):
        i, j = rng.randrange(len(sizes)), rng.randrange(len(sizes))
        gens.add((i, j, tuple(rng.randrange(sizes[j]) for _ in range(sizes[i]))))
    ids = {(i, i, tuple(range(n))) for i, n in enumerate(sizes)}

    def then(a, b):
        return (a[0], b[1], tuple(b[2][p] for p in a[2]))

    arrows, new = set(), gens | ids
    while new and len(arrows) <= 14:
        arrows |= new
        new = {then(a, b) for a in arrows for b in arrows if a[1] == b[0]} - arrows
    if len(arrows) > 14:
        return None

    def name(a):
        return f"id_x{a[0]}" if a in ids else f"f{a[0]}{a[1]}_" + "".join(map(str, a[2]))

    plain = arrows - ids
    return build_category(
        [f"x{i}" for i in range(len(sizes))],
        {name(a): (f"x{a[0]}", f"x{a[1]}") for a in plain},
        {(name(b), name(a)): name(then(a, b)) for a in plain for b in plain if a[1] == b[0]},
    )


def identify_two_sections(rng, f):
    """The quotient of f that identifies two sections at one object, and
    with them every pair of their restrictions; often not separated."""
    c = f.base
    crowded = [u for u in sorted(c.objects) if len(f.value[u]) >= 2]
    if not crowded:
        return f
    u = rng.choice(crowded)
    todo, links = [tuple((u, x) for x in rng.sample(f.value[u], 2))], set()
    while todo:
        pair = todo.pop()
        (v, x), (_v, y) = pair
        if x != y and pair not in links:
            links.add(pair)
            todo += [((c.source(m), f.act(m, x)), (c.source(m), f.act(m, y))) for m in c.into(v)]
    rep = _least_representatives([(v, z) for v in c.objects for z in f.value[v]], links)
    return make_presheaf(
        c,
        value={v: tuple(sorted({rep[(v, z)][1] for z in f.value[v]})) for v in c.objects},
        action={
            m: {rep[(w, z)][1]: rep[(v, f.act(m, z))][1] for z in f.value[w]}
            for m, (v, w) in c.morphisms.items()
        },
    )


def is_separated(f, t):
    least = t.checked_least()
    return all(
        len({family_of_section(f, least[u], x) for x in f.value[u]}) == len(f.value[u])
        for u in f.base.objects
    )


def is_rigid(t):
    """Whether each L(u) lies in the sieve of arrows that factor through an
    irreducible, an object whose least cover is maximal."""
    c, least = t.site, t.checked_least()
    irreducible = {d for d in c.objects if least[d] == maximal_sieve(c, d)}
    return all(
        least[u].members
        <= {c.compose(a, b) for a in c.into(u) if c.source(a) in irreducible for b in c.into(c.source(a))}
        for u in c.objects
    )


def test_sheafify_on_finite_categories_that_are_not_ei():
    # F+ is separated and F++ is a sheaf with F+++ = F++, on 400 categories
    # of finite sets under saturated random seed sieves, many of them not
    # rigid, and on presheaves that are often not separated.
    rng = random.Random(31)
    seen = {"categories": 0, "not rigid": 0, "not separated": 0, "compared": 0}
    while seen["categories"] < 400:
        c = function_category(rng)
        if c is None:
            continue
        assert validate_category(c) == []
        t = saturate_topology(c, random_seeds(rng, c))
        f = random_presheaf(rng, c)
        if rng.random() < 0.7:
            f = identify_two_sections(rng, f)
        assert validate_set_functor(f) == []
        seen["categories"] += 1
        seen["not rigid"] += not is_rigid(t)
        seen["not separated"] += not is_separated(f, t)
        assert is_separated(plus_construction(f, t), t)
        a = sheafify(f, t)
        assert is_sheaf(a, t).ok
        again = plus_construction(a, t)
        assert all(len(again.value[u]) == len(a.value[u]) for u in c.objects)
        seen["compared"] += 1
        assert presheaves_isomorphic(a, again)
    assert seen["not rigid"] >= 20 and seen["not separated"] >= 20, seen
    assert seen["compared"] == 400, seen
