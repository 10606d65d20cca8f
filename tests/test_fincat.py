import random

import pytest

from fibsite.errors import InputError
from fibsite.fincat import (
    COVARIANT,
    FiniteCategory,
    Functor,
    SetValuedFunctor,
    automorphism_group,
    build_category,
    codiscrete_groupoid,
    colim_set,
    comma_category,
    comma_data,
    cyclic_groupoid,
    discrete_category,
    groups_isomorphic,
    identity_functor,
    is_equivalence,
    is_essentially_surjective,
    is_isomorphism,
    left_kan_set,
    opposite,
    pi0,
    pi0_classes,
    poset_chain,
    product_category,
    string_table,
    terminal_category,
    validate_category,
    validate_functor,
    validate_groupoid,
    validate_set_functor,
)
from fibsite.sampling import random_groupoid, random_poset_site, random_presheaf
from helpers import as_covariant


def one_point_diagram(base):
    return SetValuedFunctor(
        base=base,
        variance=COVARIANT,
        value={o: ("*",) for o in base.objects},
        action={m: {"*": "*"} for m in base.morphisms},
    )


def comparison_map(base, f, b, e):
    """Class of ((b, id_b), e) in the identity-Kan colimit at b."""
    cd = comma_data(identity_functor(base), b)
    diagram = SetValuedFunctor(
        base=cd.category,
        variance=COVARIANT,
        value={n: f.value[cd.object_pair[n][0]] for n in cd.category.objects},
        action={mm: f.action[cd.morphism_under[mm]] for mm in cd.category.morphisms},
    )
    return colim_set(diagram).leg[f"({b}|{base.identity[b]})"][e]


class TestValidateCategory:
    def test_terminal_is_valid(self, pt):
        assert validate_category(pt) == []

    def test_broken_unit_law_is_reported(self):
        c = build_category(["V"], {"a": ("V", "V")}, {("a", "a"): "a"})
        bad = FiniteCategory(
            objects=c.objects,
            morphisms=c.morphisms,
            identity=c.identity,
            composition={**c.composition, ("a", "id_V"): "id_V"},
        )
        report = validate_category(bad)
        assert any("unit" in r for r in report)

    def test_poset_chain_valid(self, chain3):
        assert validate_category(chain3) == []

    def test_missing_composite_reported(self):
        c = poset_chain(["a", "b", "c"])
        comp = dict(c.composition)
        del comp[("a_b_c", "a_a_b")]
        broken = FiniteCategory(
            objects=c.objects, morphisms=c.morphisms, identity=c.identity,
            composition=comp,
        )
        assert any("missing composite" in r for r in validate_category(broken))

    def test_groupoids_valid(self, z2, z3, e2):
        for g in (z2, z3, e2):
            assert validate_groupoid(g) == []

    def test_bad_inverse_reported(self, z2):
        from fibsite.fincat import Groupoid

        bad = Groupoid(
            objects=z2.objects,
            morphisms=z2.morphisms,
            identity=z2.identity,
            composition=z2.composition,
            inverse={"id_*": "id_*", "r1": "id_*"},
        )
        assert any("inverse" in r for r in validate_groupoid(bad))


class TestOpposite:
    def test_terminal_fixed(self, pt):
        assert opposite(pt) == pt

    def test_involution(self, chain3, z3, e2):
        for c in (chain3, z3, e2):
            assert opposite(opposite(c)) == c

    def test_chain_reverses(self, chain3):
        op = opposite(chain3)
        assert validate_category(op) == []
        non_id = [m for m in op.morphisms if not op.is_identity(m)]
        assert len(non_id) == 3
        assert op.morphisms["a_W_V"] == ("V", "W")
        assert len(op.composition) == len(chain3.composition)


def pipe_clash_category():
    # endomorphisms p|q and p of A compose as g.f = f; h.(p|q) = r and
    # h.p = q|r, so (p|q: (A, r) -> (A, h)) and (p: (A, q|r) -> (A, h))
    # both print as (p|q|r>h)
    ends = ("p|q", "p")
    return build_category(
        ["A", "Y"],
        {"p|q": ("A", "A"), "p": ("A", "A"), "r": ("A", "Y"), "q|r": ("A", "Y")},
        {
            **{(g, f): f for g in ends for f in ends},
            **{(h, "p|q"): "r" for h in ("r", "q|r")},
            **{(h, "p"): "q|r" for h in ("r", "q|r")},
        },
    )


def angle_clash_category():
    # no '|' at all, so a bundle may declare it: m is idempotent with
    # r.m = p>q and (q>r).m = p, so (m: (X, p>q) -> (X, r)) and
    # (m: (X, p) -> (X, q>r)) both print as (m|p>q>r); a comma category
    # that kept only one of them would still validate
    action = {"r": "p>q", "p>q": "p>q", "q>r": "p", "p": "p"}
    return build_category(
        ["X", "Y"],
        {"m": ("X", "X"), **{h: ("X", "Y") for h in action}},
        {("m", "m"): "m", **{(h, "m"): v for h, v in action.items()}},
    )


class TestComma:
    def test_identity_on_point(self, pt):
        c = comma_category(identity_functor(pt), "*")
        assert len(c.objects) == 1 and len(c.morphisms) == 1

    def test_z2_slice_connected(self, z2):
        cd = comma_data(identity_functor(z2), "*")
        assert len(cd.category.objects) == 2
        assert len(cd.category.morphisms) == 4
        assert validate_category(cd.category) == []
        assert len(pi0_classes(cd.category)) == 1

    def test_groupoid_comma_is_groupoid(self, z2, e2):
        for g in (z2, e2):
            for y in g.objects:
                cat = comma_category(identity_functor(g), y)
                assert all(is_isomorphism(cat, m) for m in cat.morphisms)

    def test_unknown_object_rejected(self, pt):
        with pytest.raises(InputError):
            comma_category(identity_functor(pt), "nope")

    def test_comma_objects_printing_alike_are_refused(self):
        # (U, a|g) and (U|a, g) both print as (U|a|g) over Y
        c = build_category(["Y", "U|a", "U"], {"a|g": ("U", "Y"), "g": ("U|a", "Y")}, {})
        assert validate_category(c) == []
        with pytest.raises(InputError, match=r"comma objects over Y are both named \(U\|a\|g\)"):
            comma_data(identity_functor(c), "Y")

    @pytest.mark.parametrize(
        "make, name",
        [(pipe_clash_category, r"\(p\|q\|r>"), (angle_clash_category, r"\(m\|p>q>r\)")],
    )
    def test_comma_arrows_printing_alike_are_refused(self, make, name):
        c = make()
        assert validate_category(c) == []
        with pytest.raises(InputError, match=rf"comma arrows over Y are both named {name}"):
            comma_data(identity_functor(c), "Y")

    def test_comma_composition_matches_the_underlying_arrows(self, chain3, z3, e2):
        # composites come from an index by target; each must lie over the
        # composite of the underlying arrows, and every composable pair
        # must be present
        for c in (chain3, z3, e2):
            for y in c.objects:
                cd = comma_data(identity_functor(c), y)
                cat = cd.category
                assert validate_category(cat) == []
                for (g, f), h in cat.composition.items():
                    under = cd.morphism_under
                    assert under[h] == c.compose(under[g], under[f])


class TestPi0:
    def test_discrete(self):
        d = discrete_category(["a", "b"])
        assert len(pi0_classes(d)) == 2

    def test_codiscrete(self, e2):
        assert len(pi0_classes(e2)) == 1

    def test_opposite_invariance(self, chain3, z2, e2):
        for c in (chain3, z2, e2):
            assert pi0(c) == pi0(opposite(c))

    def test_representatives_are_least(self, chain3):
        rep = pi0(chain3)
        assert set(rep.values()) == {"U"}  # least identifier in the class


class TestColim:
    def test_connected_one_point(self, e2):
        assert len(colim_set(one_point_diagram(e2)).elements) == 1

    def test_components_count(self):
        d = discrete_category(["a", "b", "c"])
        assert len(colim_set(one_point_diagram(d)).elements) == 3

    def test_two_to_one_quotient(self):
        c = poset_chain(["a", "b"])
        f = SetValuedFunctor(
            base=c,
            variance=COVARIANT,
            value={"a": ("x", "y"), "b": ("c",)},
            action={
                "id_a": {"x": "x", "y": "y"},
                "id_b": {"c": "c"},
                "a_a_b": {"x": "c", "y": "c"},
            },
        )
        assert validate_set_functor(f) == []
        col = colim_set(f)
        assert len(col.elements) == 1
        # cocone legs commute with the action
        assert col.leg["a"]["x"] == col.leg["b"]["c"]

    def test_variance_checked(self, pt):
        f = SetValuedFunctor(
            base=pt, variance="contravariant", value={"*": ("e",)},
            action={"id_*": {"e": "e"}},
        )
        with pytest.raises(InputError):
            colim_set(f)

    def test_universality_on_small_instance(self):
        # check against all cocones into a 2-element set, by enumeration
        import itertools

        c = poset_chain(["a", "b"])
        f = SetValuedFunctor(
            base=c,
            variance=COVARIANT,
            value={"a": ("x",), "b": ("c", "d")},
            action={
                "id_a": {"x": "x"},
                "id_b": {"c": "c", "d": "d"},
                "a_a_b": {"x": "c"},
            },
        )
        col = colim_set(f)
        assert len(col.elements) == 2
        target = ["0", "1"]
        cocones = []
        for fa in itertools.product(target, repeat=1):
            for fb in itertools.product(target, repeat=2):
                legs = {"a": {"x": fa[0]}, "b": {"c": fb[0], "d": fb[1]}}
                if legs["b"][f.act("a_a_b", "x")] == legs["a"]["x"]:
                    cocones.append(legs)
        for legs in cocones:
            # a unique factoring map exists
            factor = {}
            ok = True
            for u in c.objects:
                for e in f.value[u]:
                    cls = col.leg[u][e]
                    if cls in factor and factor[cls] != legs[u][e]:
                        ok = False
                    factor[cls] = legs[u][e]
            assert ok


class TestLeftKan:
    def test_along_identity_is_isomorphic(self, z2, e2, chain2):
        # the canonical comparison e -> class((b, id_b), e) must be a
        # bijection commuting with the actions
        for base in (z2, e2, chain2):
            f = SetValuedFunctor(
                base=base,
                variance=COVARIANT,
                value={o: (f"{o}.0", f"{o}.1") for o in base.objects},
                action={
                    m: {
                        f"{base.source(m)}.{i}": f"{base.target(m)}.{i}"
                        for i in range(2)
                    }
                    for m in base.morphisms
                },
            )
            assert validate_set_functor(f) == []
            kan = left_kan_set(identity_functor(base), f)
            assert validate_set_functor(kan) == []
            for b in base.objects:
                cd = comma_data(identity_functor(base), b)
                diagram = SetValuedFunctor(
                    base=cd.category,
                    variance=COVARIANT,
                    value={n: f.value[cd.object_pair[n][0]] for n in cd.category.objects},
                    action={mm: f.action[cd.morphism_under[mm]] for mm in cd.category.morphisms},
                )
                cocone = colim_set(diagram)
                comparison = {
                    e: cocone.leg[f"({b}|{base.identity[b]})"][e] for e in f.value[b]
                }
                assert sorted(comparison.values()) == sorted(kan.value[b])
                assert len(set(comparison.values())) == len(f.value[b])
                # naturality of the comparison
                for m, (s, t) in base.morphisms.items():
                    for e in f.value[s]:
                        lhs = kan.act(m, comparison_map(base, f, s, e))
                        rhs = comparison_map(base, f, t, f.act(m, e))
                        assert lhs == rhs

    def test_one_point_gives_components(self, e2, pt):
        bang = Functor(
            domain=e2,
            codomain=pt,
            object_map={o: "*" for o in e2.objects},
            morphism_map={m: "id_*" for m in e2.morphisms},
        )
        assert validate_functor(bang) == []
        kan = left_kan_set(bang, one_point_diagram(e2))
        assert len(kan.value["*"]) == 1

    def test_value_sizes_match_comma_components(self, chain2):
        # functor: discrete two objects -> chain
        d = discrete_category(["p", "q"])
        f = Functor(
            domain=d,
            codomain=chain2,
            object_map={"p": "V", "q": "U"},
            morphism_map={"id_p": "id_V", "id_q": "id_U"},
        )
        kan = left_kan_set(f, one_point_diagram(d))
        for b in chain2.objects:
            comma = comma_category(f, b)
            assert len(kan.value[b]) == len(set(pi0(comma).values()))


class TestEquivalenceAndGroups:
    def test_identity_is_equivalence(self, z3):
        assert is_equivalence(identity_functor(z3))

    def test_collapse_is_equivalence(self, e2, pt):
        bang = Functor(
            domain=e2,
            codomain=pt,
            object_map={o: "*" for o in e2.objects},
            morphism_map={m: "id_*" for m in e2.morphisms},
        )
        assert is_equivalence(bang)

    def test_trivial_endo_not_equivalence(self, z2):
        f = Functor(
            domain=z2, codomain=z2, object_map={"*": "*"},
            morphism_map={m: "id_*" for m in z2.morphisms},
        )
        assert validate_functor(f) == []
        assert not is_equivalence(f)

    def test_automorphism_groups(self, z2, z3, e2):
        g2 = automorphism_group(z2, "*")
        g3 = automorphism_group(z3, "*")
        ge = automorphism_group(e2, "o1")
        assert len(g2.elements) == 2 and len(g3.elements) == 3 and len(ge.elements) == 1
        assert groups_isomorphic(g2, g2)
        assert not groups_isomorphic(g2, g3)

    def test_z4_vs_klein(self):
        z4 = cyclic_groupoid(4)
        from fibsite.fincat import Groupoid

        # Klein four group as a one-object groupoid
        elems = ["id_*", "a", "b", "c"]
        mult = {}
        table = {
            ("id_*", x): x for x in elems
        }
        for x in elems:
            table[(x, "id_*")] = x
        table.update({
            ("a", "a"): "id_*", ("b", "b"): "id_*", ("c", "c"): "id_*",
            ("a", "b"): "c", ("b", "a"): "c",
            ("a", "c"): "b", ("c", "a"): "b",
            ("b", "c"): "a", ("c", "b"): "a",
        })
        klein = Groupoid(
            objects=("*",),
            morphisms={x: ("*", "*") for x in elems},
            identity={"*": "id_*"},
            composition=table,
            inverse={x: x for x in elems},
        )
        assert validate_groupoid(klein) == []
        assert not groups_isomorphic(
            automorphism_group(z4, "*"), automorphism_group(klein, "*")
        )


def _point_at(cod: FiniteCategory, x: str) -> Functor:
    """The functor from the one-object category p that picks x."""
    return Functor(
        domain=terminal_category("p"),
        codomain=cod,
        object_map={"p": x},
        morphism_map={"id_p": cod.identity[x]},
    )


class TestEssentiallySurjective:
    def test_iso_chain_reaches_every_object(self):
        # in the chain x0 ~ x1 ~ x2 each object's isomorphisms reach the
        # other two, so an image of one object is enough
        cod = codiscrete_groupoid(["x0", "x1", "x2"])
        for x in cod.objects:
            f = _point_at(cod, x)
            assert validate_functor(f) == []
            assert is_essentially_surjective(f)

    def test_non_iso_arrow_does_not_reach(self, chain2):
        # V -> U is not invertible, so neither end reaches the other
        for x in chain2.objects:
            assert not is_essentially_surjective(_point_at(chain2, x))
        # one object of each iso class is enough
        both = Functor(
            domain=discrete_category(["p", "q"]),
            codomain=chain2,
            object_map={"p": "V", "q": "U"},
            morphism_map={"id_p": "id_V", "id_q": "id_U"},
        )
        assert validate_functor(both) == []
        assert is_essentially_surjective(both)

    def test_empty_domain_and_codomain(self, pt):
        empty = discrete_category([])
        assert is_essentially_surjective(identity_functor(empty))
        to_pt = Functor(domain=empty, codomain=pt, object_map={}, morphism_map={})
        assert validate_functor(to_pt) == []
        assert not is_essentially_surjective(to_pt)


def test_product_category(chain2):
    j = poset_chain(["x", "y"])
    p = product_category(chain2, j)
    assert validate_category(p) == []
    assert len(p.objects) == 4
    assert len(p.morphisms) == 9


def test_strings_enumeration(z2):
    assert len(string_table(z2, 3).tokens[3]) == 8
    assert len(string_table(z2, 3, normalized=True).tokens[3]) == 1


def test_string_vertex_follows_the_degree(chain3):
    tokens = string_table(chain3, 3).tokens
    for n in range(4):
        for t in tokens[n]:
            path = [t[0]] if n == 0 else [chain3.source(t[0])] + [chain3.target(m) for m in t]
            assert [chain3.string_vertex(n, t, i) for i in range(n + 1)] == path
    # an arrow named like an object is still read as an arrow in degree 1
    c = FiniteCategory(
        objects=("V", "U"),
        morphisms={"id_V": ("V", "V"), "id_U": ("U", "U"), "U": ("V", "U")},
        identity={"V": "id_V", "U": "id_U"},
        composition={},
    )
    assert c.string_vertex(0, ("U",)) == "U"
    assert c.string_vertex(1, ("U",)) == "V"
    assert c.string_vertex(1, ("U",), 1) == "U"


def test_as_covariant_flips_base(chain2):
    from fibsite.site import representable_presheaf

    f = representable_presheaf(chain2, "U")
    g = as_covariant(f)
    assert g.variance == COVARIANT
    assert g.base == opposite(chain2)
    assert validate_set_functor(g) == []
    assert len(colim_set(g).elements) >= 1
    assert as_covariant(g) is g


def test_a_value_that_repeats_an_element_is_refused():
    # read as two sections, the copies agreed on every cover and failed
    # uniqueness on the trivial topology, where every presheaf is a sheaf
    from fibsite.site import is_sheaf, make_presheaf, trivial_topology

    c = poset_chain(["V", "U"])
    arrow = next(m for m in c.morphisms if not c.is_identity(m))
    value = {"U": ("s", "t", "s"), "V": ("r",)}
    action = {"id_U": {"s": "s", "t": "t"}, "id_V": {"r": "r"}, arrow: {"s": "r", "t": "r"}}
    assert validate_set_functor(make_presheaf(c, value, action)) == ["value at U repeats s"]
    for variance in (COVARIANT, "contravariant"):
        f = SetValuedFunctor(base=c, variance=variance, value=value, action=action)
        assert "value at U repeats s" in validate_set_functor(f)
    value["U"] = ("s", "t")
    p = make_presheaf(c, value, action)
    assert validate_set_functor(p) == []
    assert is_sheaf(p, trivial_topology(c)).ok


# ---------------------------------------------------------------------------
# hom from its (source, target) index, and the composition-law check that
# skips the pairs its identity check has decided


def test_hom_matches_a_scan_of_the_arrows_into_its_target():
    rng = random.Random(3)
    cats = [poset_chain(["W", "V", "U"]), cyclic_groupoid(3), codiscrete_groupoid(["o1", "o2"])]
    cats += [random_poset_site(rng, 4) for _ in range(5)]
    cats += [random_groupoid(rng, max_objects=3) for _ in range(5)]
    for c in cats:
        for a in c.objects:
            for b in c.objects:
                assert c.hom(a, b) == tuple(m for m in c.into(b) if c.source(m) == a)
        u = sorted(c.objects)[0]
        assert c.hom("nowhere", u) == ()
        with pytest.raises(KeyError):
            c.hom(u, "nowhere")


def every_pair_report(f: SetValuedFunctor) -> list[str]:
    """``validate_set_functor`` as it was, checking every composable pair."""
    report: list[str] = []
    if f.variance not in (COVARIANT, "contravariant"):
        return [f"unknown variance {f.variance!r}"]
    for u in f.base.objects:
        if u not in f.value:
            report.append(f"no value at {u}")
    for m in f.base.morphisms:
        if m not in f.action:
            report.append(f"no action for {m}")
    if report:
        return report
    for m in f.base.morphisms:
        src, tgt = _ends(f, m)
        amap = f.action[m]
        if set(amap) != set(f.value[src]):
            report.append(f"action of {m} not defined on exactly the value set")
            continue
        if not set(amap.values()) <= set(f.value[tgt]):
            report.append(f"action of {m} escapes the target value set")
    if report:
        return report
    for u in f.base.objects:
        i = f.base.identity[u]
        if any(f.act(i, e) != e for e in f.value[u]):
            report.append(f"identity action at {u} is not the identity")
    for (g, h), gh in f.base.composition.items():
        if f.variance == COVARIANT:
            lhs = {e: f.act(g, f.act(h, e)) for e in f.action[h]}
        else:
            lhs = {e: f.act(h, f.act(g, e)) for e in f.action[g]}
        if lhs != f.action[gh]:
            report.append(f"functoriality fails on ({g}, {h})")
    return report


def _ends(f: SetValuedFunctor, m: str) -> tuple[str, str]:
    """The value sets that m's action maps from and to."""
    s, t = f.base.morphisms[m]
    return (s, t) if f.variance == COVARIANT else (t, s)


def one_entry_mutants(rng, f: SetValuedFunctor, count: int):
    """Copies of f with one action entry moved inside its target set."""
    movable = [
        (m, e) for m, amap in sorted(f.action.items()) for e in sorted(amap)
        if len(set(f.value[_ends(f, m)[1]])) > 1
    ]
    for m, e in rng.sample(movable, min(count, len(movable))):
        others = sorted(set(f.value[_ends(f, m)[1]]) - {f.action[m][e]})
        action = {**f.action, m: {**f.action[m], e: rng.choice(others)}}
        yield SetValuedFunctor(base=f.base, variance=f.variance, value=f.value, action=action)


def test_set_functor_report_matches_the_every_pair_loop():
    failing = 0
    for seed in range(60):
        rng = random.Random(seed)
        base = random_poset_site(rng, 4) if seed % 2 else random_groupoid(rng, max_objects=3)
        f = random_presheaf(rng, base, max_parts=3)
        for g in (f, as_covariant(f)):
            assert validate_set_functor(g) == every_pair_report(g) == []
            for mutant in one_entry_mutants(rng, g, 6):
                report = validate_set_functor(mutant)
                assert report == every_pair_report(mutant)
                failing += bool(report)
    assert failing >= 300  # most mutants break a law
