import gc
import pickle
import random
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibsite import hocopb, sset
from fibsite.errors import InputError
from fibsite.fibred import constant_presheaf_of_categories
from fibsite.fincat import codiscrete_groupoid, cyclic_groupoid, opposite, poset_chain
from fibsite.hocopb import (
    GroupoidDiagram,
    OverNerve,
    check_triangles,
    counit_epsilon,
    enriched_counit,
    enriched_hocolim,
    enriched_pb,
    enriched_unit,
    hocolim,
    pb,
    presheaf_hocolim_pb,
    section_diagram,
    transpose_counit,
    unit_eta,
    validate_diagram,
    validate_enriched_diagram,
    validate_enriched_over_nerve,
    validate_over_nerve,
)
from fibsite.sampling import (
    constant_diagram,
    constant_enriched_diagram_from,
    orbit_diagram,
    random_diagram,
    random_enriched_diagram,
    random_enriched_over_nerve,
    random_groupoid,
    random_over_nerve,
    random_poset_site,
)
from fibsite.sset import (
    SimplicialMap,
    _action_ids,
    _integer_level,
    TruncatedSimplicialSet,
    homology,
    identity_simplicial_map,
    nerve,
    pi0_sset,
    simplex_table,
    standard_simplex,
    validate_simplicial_map,
    we_evidence,
)


def one_point_diagram(g, d):
    return constant_diagram(g, standard_simplex(0, d))


class TestHocolim:
    def test_trivial_group_returns_value(self, z2):
        triv = cyclic_groupoid(1)
        k = standard_simplex(1, 3)
        h = hocolim(constant_diagram(triv, k), 3)
        assert validate_over_nerve(h) == []
        assert homology(h.total, 2).factors == homology(k, 2).factors

    def test_one_point_on_z2_is_its_nerve(self, z2):
        h = hocolim(one_point_diagram(z2, 4), 4)
        assert homology(h.total, 3).factors == ((0,), (2,), (), (2,))
        # structure map is an isomorphism degreewise
        for n in range(5):
            assert len(h.total.simplices[n]) == len(
                h.structure.codomain.simplices[n]
            )

    def test_free_orbit_contractible(self, z2):
        orbit = orbit_diagram(z2, "*", standard_simplex(0, 4))
        assert validate_diagram(orbit) == []
        h = hocolim(orbit, 4)
        assert homology(h.total, 2).factors == ((0,), (), ())

    def test_truncation_guard(self, z2):
        with pytest.raises(InputError):
            hocolim(one_point_diagram(z2, 2), 4)


class TestPb:
    def test_identity_gives_slices(self, z2):
        nz = nerve(z2, 4)
        x = OverNerve(base=z2, total=nz, structure=identity_simplicial_map(nz))
        p = pb(x)
        assert validate_diagram(p) == []
        assert [len(p.value["*"].simplices[n]) for n in range(5)] == [
            2 * 2**n for n in range(5)
        ]
        # slice of a group: contractible
        assert homology(p.value["*"], 2).factors == ((0,), (), ())

    def test_trivial_group_pb_is_x(self):
        triv = cyclic_groupoid(1)
        rng = random.Random(3)
        x = random_over_nerve(rng, triv, 3)
        p = pb(x)
        for n in range(4):
            assert len(p.value["*"].simplices[n]) == len(x.total.simplices[n])


class TestUnitCounit:
    def test_eta_simplicial_and_evidence(self, z2):
        nz = nerve(z2, 4)
        x = OverNerve(base=z2, total=nz, structure=identity_simplicial_map(nz))
        eta = unit_eta(x)
        assert validate_simplicial_map(eta) == []
        assert we_evidence(eta, 3).passed

    def test_eta_commutes_with_structure(self, z2):
        rng = random.Random(5)
        x = random_over_nerve(rng, z2, 3)
        eta = unit_eta(x)
        h = hocolim(pb(x), 3)
        for n in range(4):
            for t in x.total.simplices[n]:
                assert h.structure.apply(n, eta.apply(n, t)) == x.structure.apply(n, t)

    def test_epsilon_simplicial_and_evidence(self, z2):
        eps = counit_epsilon(one_point_diagram(z2, 4))
        for y, m in eps.items():
            assert validate_simplicial_map(m) == []
            assert we_evidence(m, 2).passed

    def test_epsilon_on_free_orbit(self, z2):
        orbit = orbit_diagram(z2, "*", standard_simplex(0, 4))
        eps = counit_epsilon(orbit)
        for y, m in eps.items():
            ev = we_evidence(m, 3)
            assert ev.pi0_bijective and ev.passed

    def test_epsilon_natural_in_y(self, z3):
        a = one_point_diagram(z3, 3)
        eps = counit_epsilon(a)
        p = pb(hocolim(a, 3))
        for m, (s, t) in z3.morphisms.items():
            for n in range(4):
                for tok in p.value[s].simplices[n]:
                    lhs = a.action[m].apply(n, eps[s].apply(n, tok))
                    rhs = eps[t].apply(n, p.action[m].apply(n, tok))
                    assert lhs == rhs


class TestTriangles:
    def test_trivial_group(self):
        triv = cyclic_groupoid(1)
        rng = random.Random(1)
        a = random_diagram(rng, triv, 3)
        x = random_over_nerve(rng, triv, 3)
        assert check_triangles(a=a, x=x).passed

    def test_z2_nerve_over_itself_at_4(self, z2):
        nz = nerve(z2, 4)
        x = OverNerve(base=z2, total=nz, structure=identity_simplicial_map(nz))
        assert check_triangles(x=x).passed

    def test_random_instances(self):
        rng = random.Random(42)
        for _ in range(8):
            g = random_groupoid(rng)
            a = random_diagram(rng, g, 3)
            x = random_over_nerve(rng, g, 3)
            assert check_triangles(a=a, x=x).passed

    def test_counit_corrupted_in_one_entry_fails_the_hocolim_side_only(self, monkeypatch, z2):
        rng = random.Random(11)
        a = random_diagram(rng, z2, 3)
        x = random_over_nerve(rng, z2, 3)
        counit = hocopb._counit

        def one_entry_moved(a_, p):
            eps = counit(a_, p)
            m = eps["*"]
            cm = dict(m.components[1])
            k = min(cm, key=repr)
            cm[k] = next(v for v in cm.values() if v != cm[k])
            comps = (m.components[0], cm, *m.components[2:])
            eps["*"] = SimplicialMap(domain=m.domain, codomain=m.codomain, components=comps)
            return eps

        monkeypatch.setattr(hocopb, "_counit", one_entry_moved)
        report = check_triangles(a=a, x=x)
        assert (report.hocolim_side, report.pb_side) == (False, True)

    @pytest.mark.parametrize("side,string,anchor", [
        ("hocolim", None, "bogus"),  # lands outside pb(hocolim(a))
        ("hocolim", ("bogus",), None),  # leaves the string it sits over
        ("pb", None, "bogus"),  # lands outside pb(x); no composite with any anchor
        ("pb", None, "r1"),  # lands in pb(x), but the counit pushes it elsewhere
        ("pb", ("bogus",), None),  # lands off the nerve, outside hocolim(pb(x))
    ])
    def test_unit_corrupted_in_one_entry_fails_its_side_only(
        self, monkeypatch, z2, side, string, anchor
    ):
        rng = random.Random(11)
        a = random_diagram(rng, z2, 3)
        x = random_over_nerve(rng, z2, 3)
        assert check_triangles(a=a, x=x).passed
        target = hocolim(a, 3) if side == "hocolim" else x
        components = hocopb._unit_components

        def one_entry_moved(arg):
            comps = components(arg)
            if arg is not target:
                return comps
            cm = dict(comps[1])
            t = min(cm, key=repr)
            sigma, (t1, gamma) = cm[t]
            cm[t] = (string or sigma, (t1, anchor or gamma))
            return (comps[0], cm, *comps[2:])

        monkeypatch.setattr(hocopb, "_unit_components", one_entry_moved)
        report = check_triangles(a=a, x=x)
        assert (report.hocolim_side, report.pb_side) == (side == "pb", side == "hocolim")

    def test_transpose_left_inverse_to_eta(self, z2):
        rng = random.Random(9)
        x = random_over_nerve(rng, z2, 3)
        eta = unit_eta(x)
        c = transpose_counit(x)
        assert validate_simplicial_map(c) == []
        for n in range(4):
            for t in x.total.simplices[n]:
                assert c.apply(n, eta.apply(n, t)) == t


def _faces_by_token(table, n):
    """The degree-n simplices of a table, each with its faces as tokens."""
    if n == 0:
        return dict.fromkeys(table.tokens[0], ())
    below = table.tokens[n - 1]
    return {
        t: tuple(None if f is None else below[f] for f in faces)
        for t, faces in zip(table.tokens[n], table.faces[n])
    }


def _unbuilt(s) -> bool:
    return not {"simplices", "faces", "degeneracies"} & vars(s).keys()


def _maps_unbuilt(s) -> bool:
    return not {"faces", "degeneracies"} & vars(s).keys()


def _integer_levels(s, d) -> list:
    return [_integer_level(s, n) for n in range(d + 1)]


def _by_token(levels) -> list[dict]:
    """Per degree: each simplex with its mask and its faces as tokens."""
    out = []
    below: list = []
    for tokens, masks, faces in levels:
        rows = [tuple(below[c] for c in f) for f in faces] if faces else [()] * len(tokens)
        out.append(dict(zip(tokens, zip(masks, rows))))
        below = tokens
    return out


@st.composite
def hocolim_inputs(draw):
    """A random diagram, pb of a random over-nerve, or a section of a random
    enriched diagram, with the truncation degree."""
    rng = random.Random(draw(st.integers(0, 2**16)))
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["diagram", "pb", "section"]))
    if kind == "diagram":
        return random_diagram(rng, random_groupoid(rng), d), d
    if kind == "pb":
        return hocopb._pb(random_over_nerve(rng, random_groupoid(rng), d)), d
    x = random_enriched_diagram(rng, random_poset_site(rng, 2), d)
    return section_diagram(x, rng.choice(sorted(x.base.site.objects))), d


@st.composite
def pb_inputs(draw):
    """A random over-nerve or the hocolim of a random diagram, with the
    truncation degree."""
    rng = random.Random(draw(st.integers(0, 2**16)))
    d = draw(st.integers(1, 3))
    g = random_groupoid(rng)
    if draw(st.booleans()):
        return random_over_nerve(rng, g, d), d
    return hocopb._hocolim(random_diagram(rng, g, d), d), d


class TestTable:
    """The views a hocolim or pb value builds directly against those its
    dicts give, and which dicts the adjunction's readers leave unbuilt."""

    @settings(max_examples=100, deadline=None)
    @given(hocolim_inputs())
    def test_direct_table_matches_the_dicts(self, case):
        a, d = case
        h = hocopb._hocolim(a, d)
        direct = simplex_table(h.total, d)
        assert _unbuilt(h.total)
        # an equal set given as dicts has its table read off them
        eager = TruncatedSimplicialSet(
            dim=d, simplices=h.total.simplices, faces=h.total.faces,
            degeneracies=h.total.degeneracies,
        )
        derived = simplex_table(eager, d)
        for n in range(d + 1):
            assert _faces_by_token(direct, n) == _faces_by_token(derived, n)
        assert homology(h.total, d - 1) == homology(eager, d - 1)
        assert pi0_sset(h.total) == pi0_sset(eager)

    @settings(max_examples=60, deadline=None)
    @given(pb_inputs())
    def test_pb_views_match_the_dicts(self, case):
        x, d = case
        p = hocopb._pb(x)
        views = {y: (simplex_table(v, d), _integer_levels(v, d)) for y, v in p.value.items()}
        ids = {m: [_action_ids(f, n) for n in range(d + 1)] for m, f in p.action.items()}
        assert all(_unbuilt(v) for v in p.value.values())
        assert all("components" not in vars(f) for f in p.action.values())
        for y, v in p.value.items():
            # an equal set given as dicts has both views read off them
            eager = TruncatedSimplicialSet(
                dim=d, simplices=v.simplices, faces=v.faces, degeneracies=v.degeneracies
            )
            direct, levels = views[y]
            derived = simplex_table(eager, d)
            for n in range(d + 1):
                assert _faces_by_token(direct, n) == _faces_by_token(derived, n)
            assert _by_token(levels) == _by_token(_integer_levels(eager, d))
            assert homology(v, d - 1) == homology(eager, d - 1)
            assert pi0_sset(v) == pi0_sset(eager)
        for m, f in p.action.items():
            eager = SimplicialMap(domain=f.domain, codomain=f.codomain, components=f.components)
            for n, image in enumerate(ids[m]):
                tokens, into = (_integer_level(s, n)[0] for s in (f.domain, f.codomain))
                assert {t: into[k] for t, k in zip(tokens, image)} == eager.components[n]

    def test_unit_evidence_leaves_the_codomain_unbuilt(self, z2):
        x = random_over_nerve(random.Random(6), z2, 4)
        eta = unit_eta(x)
        assert we_evidence(eta, 3).passed
        h = hocopb._remembered(pb(x), hocopb._hocolim, 4)
        assert h.total is eta.codomain
        assert _unbuilt(eta.codomain) and "components" not in vars(h.structure)
        # the first read fills the dicts of the total and of the structure map
        assert validate_simplicial_map(eta) == []
        assert validate_over_nerve(h) == []
        assert not _unbuilt(eta.codomain) and "components" in vars(h.structure)

    def test_over_checks_leave_the_pullback_maps_unbuilt(self, z2):
        x = random_over_nerve(random.Random(6), z2, 4)
        assert check_triangles(x=x).passed
        assert we_evidence(unit_eta(x), 3).passed
        p = pb(x)
        # the triangle check reads the cells; the evidence reads the tables
        assert all(_maps_unbuilt(v) for v in p.value.values())
        assert all("components" not in vars(f) for f in p.action.values())

    def test_diagram_checks_leave_the_maps_unbuilt(self, e2, monkeypatch):
        a = random_diagram(random.Random(3), e2, 4)
        counits = _recorded(monkeypatch, ("_counit",))
        assert check_triangles(a=a).passed
        for m in counit_epsilon(a).values():
            assert we_evidence(m, 3).passed
        assert counit_epsilon(a) == counit_epsilon(a)
        # one counit per diagram, shared by the triangle check and the caller
        assert [arg for _name, arg in counits] == [a]
        h = hocolim(a, 4)
        assert _maps_unbuilt(h.total)
        assert all(_maps_unbuilt(v) for v in pb(h).value.values())
        assert all("components" not in vars(f) for f in pb(h).action.values())

    def test_a_hocolim_of_a_pullback_of_a_hocolim_writes_no_dict(self, z2):
        # a hocolim has an integer level of its own, so pb(h) reads that
        # level, and hocolim(pb(h)) reads pb(h)'s, without h's dicts
        h = hocopb._hocolim(random_diagram(random.Random(4), z2, 3), 3)
        hp = hocopb._hocolim(hocopb._pb(h), 3)
        simplex_table(hp.total, 3)
        assert _integer_levels(hp.total, 3)
        assert "faces" not in vars(h.total)
        assert _maps_unbuilt(h.total) and _unbuilt(hp.total)

    def test_a_hocolim_pickles_as_its_dicts(self, z2):
        # neither the fill functions nor the table's level generator pickle;
        # a copy carries the fields only, read before or after homology
        h = hocopb._hocolim(random_diagram(random.Random(2), z2, 3), 3)
        before = pickle.loads(pickle.dumps(h))
        assert homology(h.total, 2) == homology(before.total, 2)
        after = pickle.loads(pickle.dumps(h))
        assert before == after == h
        assert "_table" not in vars(after.total)

    def test_a_pullback_pickles_as_its_dicts(self, z2):
        p = hocopb._pb(random_over_nerve(random.Random(2), z2, 3))
        before = pickle.loads(pickle.dumps(p))
        assert homology(p.value["*"], 2) == homology(before.value["*"], 2)
        after = pickle.loads(pickle.dumps(p))
        assert before == after == p
        assert validate_diagram(after) == []
        assert not {"_table", "_int", "_int_levels"} & vars(after.value["*"]).keys()


class TestFunctorialityEvidence:
    def test_hocolim_preserves_evidence_passes(self, z2):
        # a map of diagrams that is a sectionwise equivalence-evidence pass
        # induces an evidence pass on homotopy colimits: free orbit to point
        orbit = orbit_diagram(z2, "*", standard_simplex(0, 4))
        one = one_point_diagram(z2, 4)
        comps_by_y = {}
        h_orbit = hocolim(orbit, 4)
        h_one = hocolim(one, 4)
        comps = []
        for n in range(5):
            cm = {}
            for (sigma, x) in h_orbit.total.simplices[n]:
                cm[(sigma, x)] = (sigma, (0,) * (n + 1))
            comps.append(cm)
        induced = SimplicialMap(domain=h_orbit.total, codomain=h_one.total, components=tuple(comps))
        assert validate_simplicial_map(induced) == []
        # the free orbit is contractible-total, the point diagram gives the
        # nerve; the induced map cannot pass H1 evidence
        assert not we_evidence(induced, 3).passed

    def test_pb_of_evidence_pass(self, z2):
        # eta is an evidence pass; pb(eta) is a per-object evidence pass
        nz = nerve(z2, 4)
        x = OverNerve(base=z2, total=nz, structure=identity_simplicial_map(nz))
        eta = unit_eta(x)
        hx = hocolim(pb(x), 4)
        px = pb(x)
        phx = pb(hx)
        for y in z2.objects:
            comps = []
            for n in range(5):
                cm = {}
                for (t, gamma) in px.value[y].simplices[n]:
                    cm[(t, gamma)] = (eta.apply(n, t), gamma)
                comps.append(cm)
            induced = SimplicialMap(
                domain=px.value[y], codomain=phx.value[y], components=tuple(comps)
            )
            assert validate_simplicial_map(induced) == []
            assert we_evidence(induced, 3).passed


class TestEnriched:
    def test_constant_enriched_run(self, chain2, z2):
        g = constant_presheaf_of_categories(chain2, z2)
        diag = one_point_diagram(opposite(z2), 3)
        X = constant_enriched_diagram_from(g, diag)
        assert validate_enriched_diagram(X) == []
        run = presheaf_hocolim_pb(X, 3)
        assert run.triangles.passed
        assert run.counit_natural
        assert validate_enriched_over_nerve(run.hocolim_object) == []
        assert validate_enriched_diagram(run.pb_object) == []
        for u in chain2.objects:
            h = homology(run.hocolim_object.sections[u].total, 2)
            assert h.factors == ((0,), (2,), ())

    def test_enriched_over_nerve_run(self, chain2):
        rng = random.Random(7)
        Y = random_enriched_over_nerve(rng, chain2, 3)
        assert validate_enriched_over_nerve(Y) == []
        run = presheaf_hocolim_pb(Y, 3)
        assert run.triangles.passed
        assert run.unit_natural

    def test_random_enriched_diagrams(self):
        rng = random.Random(17)
        for _ in range(4):
            site = random_poset_site(rng, 2)
            X = random_enriched_diagram(rng, site, 3)
            run = presheaf_hocolim_pb(X, 3)
            assert run.triangles.passed and run.counit_natural

    def test_sectionwise_evidence(self, chain2, z2):
        g = constant_presheaf_of_categories(chain2, z2)
        diag = one_point_diagram(opposite(z2), 4)
        X = constant_enriched_diagram_from(g, diag)
        run = presheaf_hocolim_pb(X, 4)
        eps = enriched_counit(X, 4)
        for (u, ob), m in eps.items():
            assert we_evidence(m, 2).passed
        eta = enriched_unit(run.hocolim_object)
        for u, m in eta.items():
            assert we_evidence(m, 2).passed


# ---------------------------------------------------------------------------
# hocolim, pb and section_diagram remember their result per argument object


def _recorded(monkeypatch, names) -> list:
    """(name, argument) of every call to the named hocopb functions."""
    seen = []

    def count(name):
        fn = getattr(hocopb, name)

        def wrapper(arg, *args):
            seen.append((name, arg))
            return fn(arg, *args)
        return wrapper

    for name in names:
        monkeypatch.setattr(hocopb, name, count(name))
    return seen


@pytest.fixture
def builds(monkeypatch):
    """(builder, argument) of every call to the private builders."""
    return _recorded(monkeypatch, ("_hocolim", "_pb", "_section_diagram"))


@pytest.fixture
def validated(monkeypatch):
    """(validator, argument) of every diagram/over-nerve validation."""
    return _recorded(monkeypatch, ("validate_diagram", "validate_over_nerve"))


def _per_argument(seen) -> Counter:
    return Counter((name, id(arg)) for name, arg in seen)


class TestMemo:
    def test_same_argument_same_result(self, z2):
        rng = random.Random(5)
        a = random_diagram(rng, z2, 3)
        x = random_over_nerve(rng, z2, 3)
        assert hocolim(a, 3) is hocolim(a, 3)
        assert hocolim(a, 2) is not hocolim(a, 3)
        assert pb(x) is pb(x)
        X = random_enriched_diagram(rng, random_poset_site(rng, 2), 3)
        u = sorted(X.base.site.objects)[0]
        assert section_diagram(X, u) is section_diagram(X, u)

    def test_equal_arguments_are_built_apart(self, z2, builds):
        a = random_diagram(random.Random(6), z2, 3)
        twin = GroupoidDiagram(base=a.base, value=a.value, action=a.action)
        assert twin == a
        assert hocolim(twin, 3) is not hocolim(a, 3)
        assert [arg for _name, arg in builds] == [twin, a]

    def test_diagram_side_builds_each_intermediate_once(self, e2, builds):
        a = random_diagram(random.Random(3), e2, 3)
        assert check_triangles(a=a).passed
        # the triangle check reads the unit's components only: the unit's
        # codomain hocolim(pb(hocolim(a))) is never built
        assert Counter(name for name, _arg in builds) == {"_hocolim": 1, "_pb": 1}
        counit_epsilon(a)
        h = hocolim(a, 3)
        p = pb(h)
        assert _per_argument(builds) == _per_argument([("_hocolim", a), ("_pb", h)])

    def test_over_side_builds_each_intermediate_once(self, z2, builds):
        x = random_over_nerve(random.Random(4), z2, 3)
        assert check_triangles(x=x).passed
        unit_eta(x)
        transpose_counit(x)
        assert _per_argument(builds) == _per_argument([("_pb", x), ("_hocolim", pb(x))])

    def test_enriched_run_builds_each_section_once(self, builds):
        rng = random.Random(17)
        X = random_enriched_diagram(rng, random_poset_site(rng, 2), 3)
        run = presheaf_hocolim_pb(X, 3)
        enriched_counit(X, 3)
        enriched_unit(run.hocolim_object)
        expected = []
        for u in X.base.site.objects:
            section = section_diagram(X, u)
            h = hocolim(section, 3)
            assert run.hocolim_object.sections[u] is h
            expected += [("_section_diagram", X), ("_hocolim", section), ("_pb", h),
                         ("_hocolim", pb(h))]
        # one build per argument; the section builder runs once per object
        counts = _per_argument(builds)
        assert set(counts) == set(_per_argument(expected))
        assert counts[("_section_diagram", id(X))] == len(X.base.site.objects)
        assert all(
            k == 1 for (name, _arg), k in counts.items() if name != "_section_diagram"
        )

    def test_enriched_over_run_shares_one_section_pullback(self, chain2, builds, validated):
        # both site objects carry one section object: its pullback is the
        # pb side's section at each object, so one hocolim serves them all
        y = random_enriched_over_nerve(random.Random(7), chain2, 3)
        sec = y.sections["V"]
        assert y.sections["U"] is sec
        run = presheaf_hocolim_pb(y, 3)
        assert run.triangles.passed and run.unit_natural
        enriched_unit(y)
        p = pb(sec)
        h = hocolim(p, 3)
        for u in chain2.objects:
            assert section_diagram(run.pb_object, u) is p
            assert run.hocolim_object.sections[u] is h
        assert _per_argument(builds) == _per_argument([("_pb", sec), ("_hocolim", p), ("_pb", h)])
        assert validated == [("validate_over_nerve", sec)]

    def test_enriched_diagram_run_validates_each_section_once(self, validated):
        rng = random.Random(17)
        X = random_enriched_diagram(rng, random_poset_site(rng, 2), 3)
        run = presheaf_hocolim_pb(X, 3)
        enriched_counit(X, 3)
        enriched_unit(run.hocolim_object)
        assert _per_argument(validated) == _per_argument(
            ("validate_diagram", section_diagram(X, u)) for u in X.base.site.objects
        )

    def test_entry_goes_with_its_argument(self, z2):
        a = random_diagram(random.Random(8), z2, 3)
        key = id(a)
        h = weakref.ref(hocolim(a, 3))
        p = weakref.ref(pb(h()))
        assert key in hocopb._MEMO
        del a
        gc.collect()
        assert key not in hocopb._MEMO
        assert h() is None and p() is None

    def test_pullback_entry_goes_with_its_argument(self, z2):
        # pb's deferred views and fills hold x's parts, never x: with its
        # tables read and its cells and maps unbuilt, nothing keeps x alive
        x = random_over_nerve(random.Random(8), z2, 3)
        key = id(x)
        p = weakref.ref(pb(x))
        assert we_evidence(unit_eta(x), 2).passed
        assert all(_unbuilt(v) for v in p().value.values())
        h = weakref.ref(hocopb._remembered(p(), hocopb._hocolim, 3))
        assert key in hocopb._MEMO and id(p()) in hocopb._MEMO
        del x
        gc.collect()
        assert key not in hocopb._MEMO
        assert p() is None and h() is None

    def test_one_nerve_per_base_groupoid(self, monkeypatch):
        # the over side checks x against the nerve of its base and builds
        # hocolim(pb(x)) over the same groupoid: one nerve serves both
        g = cyclic_groupoid(3)
        x = random_over_nerve(random.Random(4), g, 3)
        built = []
        monkeypatch.setattr(hocopb, "nerve", lambda c, d: built.append((c, d)) or nerve(c, d))
        assert check_triangles(x=x).passed
        assert we_evidence(unit_eta(x), 2).passed
        assert built == [(g, 3)]

    def test_nerve_entry_goes_with_its_groupoid(self):
        g = cyclic_groupoid(3)
        key = id(g)
        h = hocolim(random_diagram(random.Random(8), g, 3), 3)
        ng = weakref.ref(h.structure.codomain)
        # the nerve refers to no groupoid, so nothing but g keeps the entry
        assert hocopb._MEMO[key] == {(nerve, 3): ng()}
        del h, g
        gc.collect()
        assert key not in hocopb._MEMO
        assert ng() is None

    def test_invalid_input_raises_on_every_call(self, z2, builds, validated):
        rng = random.Random(9)
        a = random_diagram(rng, z2, 3)
        bad = GroupoidDiagram(base=a.base, value=a.value, action={})
        x = random_over_nerve(rng, z2, 3)
        stray = OverNerve(base=cyclic_groupoid(3), total=x.total, structure=x.structure)
        for _ in range(2):
            with pytest.raises(InputError):
                hocolim(bad, 3)
            with pytest.raises(InputError):
                hocolim(a, 4)
            with pytest.raises(InputError):
                pb(stray)
        # every raising call validates its argument again; an invalid argument
        # never reaches a builder, and the truncation guard is the builder's
        assert _per_argument(validated) == Counter({
            ("validate_diagram", id(bad)): 2,
            ("validate_diagram", id(a)): 2,
            ("validate_over_nerve", id(stray)): 2,
        })
        assert _per_argument(builds) == Counter({("_hocolim", id(a)): 2})


# ---------------------------------------------------------------------------
# validate_over_nerve compares the codomain with the remembered nerve's
# integer level, and writes none of that nerve's dicts


def _as_dicts(s: TruncatedSimplicialSet) -> TruncatedSimplicialSet:
    return TruncatedSimplicialSet(
        dim=s.dim,
        simplices=tuple(s.simplices),
        faces={k: dict(m) for k, m in s.faces.items()},
        degeneracies={k: dict(m) for k, m in s.degeneracies.items()},
    )


PERTURBATIONS = (
    "none", "drop simplex", "stray simplex", "move face", "drop face entry", "stray face entry",
    "drop face map", "stray face map", "move degeneracy", "drop degeneracy entry", "stray degeneracy entry",
    "raise dim", "simplices as list", "library nerve",
)


@st.composite
def perturbed_nerves(draw):
    """A groupoid, a truncation, and a dict copy of its nerve with at most
    one simplex, face or degeneracy changed, or the library's own nerve."""
    g = draw(st.sampled_from((cyclic_groupoid(2), cyclic_groupoid(3), codiscrete_groupoid(["o1", "o2"]))))
    d = draw(st.integers(1, 3))
    s = _as_dicts(nerve(g, d))
    kind = draw(st.sampled_from(PERTURBATIONS))
    n = draw(st.integers(1, d))
    i = draw(st.integers(0, n))
    level = sorted(s.simplices[n], key=repr)
    below = sorted(s.simplices[n - 1], key=repr)
    x = draw(st.sampled_from(level))
    simplices = list(s.simplices)
    if kind == "drop simplex":
        simplices[n] = s.simplices[n] - {x}
    elif kind == "stray simplex":
        simplices[n] = s.simplices[n] | {("stray",) * n}
    elif kind == "move face":
        face = s.faces[(n, i)]
        face[x] = draw(st.sampled_from([y for y in below if y != face[x]] or below))
    elif kind == "drop face entry":
        del s.faces[(n, i)][x]
    elif kind == "stray face entry":
        s.faces[(n, i)][("stray",) * n] = below[0]
    elif kind == "drop face map":
        del s.faces[(n, i)]
    elif kind == "stray face map":
        s.faces[(d + 1, 0)] = {}
    elif kind == "move degeneracy" and i < n:
        degeneracy, y = s.degeneracies[(n - 1, i)], draw(st.sampled_from(below))
        degeneracy[y] = draw(st.sampled_from([z for z in level if z != degeneracy[y]] or level))
    elif kind == "drop degeneracy entry" and i < n:
        del s.degeneracies[(n - 1, i)][draw(st.sampled_from(below))]
    elif kind == "stray degeneracy entry" and i < n:
        s.degeneracies[(n - 1, i)][("stray",) * n] = x
    if kind == "simplices as list":
        simplices = list(simplices)
    else:
        simplices = tuple(simplices)
    if kind == "library nerve":
        return g, d, nerve(g, d)
    dim = d + 1 if kind == "raise dim" else d
    return g, d, TruncatedSimplicialSet(dim, simplices, s.faces, s.degeneracies)


@settings(max_examples=120, deadline=None)
@given(perturbed_nerves())
def test_level_comparison_agrees_with_equality(case):
    g, d, s = case
    remembered = nerve(g, d)
    assert sset._equals_level_of(s, remembered) == (s == nerve(g, d))
    assert "faces" not in vars(remembered) and "degeneracies" not in vars(remembered)
    # a set given as dicts is compared as dicts: its level would drop a stray entry
    copy = _as_dicts(s)
    assert sset._equals_level_of(s, copy) == (s == copy)


def test_pb_writes_no_dict_of_the_remembered_nerve():
    for seed in range(6):
        g = cyclic_groupoid(2)
        x = random_over_nerve(random.Random(seed), g, 3)
        pb(x)
        ng = hocopb._remembered(g, nerve, 3)
        assert ng is not x.structure.codomain
        assert "faces" not in vars(ng) and "degeneracies" not in vars(ng)
