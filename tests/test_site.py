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
from fibsite.fincat import _least_representatives, poset_chain, terminal_category
from fibsite.sampling import random_poset_site, random_presheaf, random_topology
from fibsite.site import (
    GrothendieckTopology,
    Sieve,
    all_sieves,
    constant_presheaf,
    coproduct_presheaf,
    is_sheaf,
    is_trivial_topology,
    make_presheaf,
    matching_families,
    maximal_sieve,
    plus_construction,
    pullback_sieve,
    representable_presheaf,
    restrict_family,
    saturate_topology,
    sheafify,
    sieve_from_generators,
    trivial_topology,
    validate_sieve,
    verify_topology,
)
from topology_oracles import presheaves_isomorphic


BUNDLES = Path(__file__).resolve().parents[1] / "bundles"


@pytest.fixture
def covered_chain(chain2):
    s = sieve_from_generators(chain2, "U", {"a_V_U"})
    return chain2, saturate_topology(chain2, {"U": {s}}), s


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
            sub = restrict_family(c, fam, pulled, alpha)
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
