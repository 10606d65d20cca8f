import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibsite import sampling
from fibsite.errors import InputError
from fibsite.hocopb import hocolim
from fibsite.fincat import Functor, Groupoid, cyclic_groupoid, opposite
from fibsite.sset import (
    compose_simplicial_maps,
    diagonal,
    disjoint_union_ssets,
    homology,
    identity_simplicial_map,
    interchange_comparison,
    nerve,
    nerve_map,
    pi0_sset,
    standard_simplex,
    validate_bisimplicial,
    validate_simplicial,
    validate_simplicial_map,
    we_evidence,
)


def point_groupoid():
    pt = cyclic_groupoid(1)
    return pt


class TestNerve:
    def test_point(self, pt):
        n = nerve(pt, 4)
        assert validate_simplicial(n) == []
        assert all(len(n.simplices[k]) == 1 for k in range(5))
        assert n.nondegenerate(0) == (("*",),)
        assert all(n.nondegenerate(k) == () for k in range(1, 5))

    def test_z2_counts(self, z2):
        n = nerve(z2, 5)
        assert validate_simplicial(n) == []
        assert [len(n.simplices[k]) for k in range(6)] == [1, 2, 4, 8, 16, 32]
        assert all(len(n.nondegenerate(k)) == 1 for k in range(6))

    def test_chain_nondegenerate(self, chain2):
        n = nerve(chain2, 3)
        assert validate_simplicial(n) == []
        assert len(n.nondegenerate(0)) == 2
        assert len(n.nondegenerate(1)) == 1
        assert len(n.nondegenerate(2)) == 0

    def test_functor_map_is_simplicial(self, e2, pt):
        f = Functor(
            domain=e2, codomain=pt,
            object_map={o: "*" for o in e2.objects},
            morphism_map={m: "id_*" for m in e2.morphisms},
        )
        nm = nerve_map(f, 3)
        assert validate_simplicial_map(nm) == []

    def test_standard_simplex(self):
        s = standard_simplex(2, 4)
        assert validate_simplicial(s) == []
        # nondegenerate j-simplices of the 2-simplex: C(3, j+1)
        assert [len(s.nondegenerate(j)) for j in range(4)] == [3, 3, 1, 0]


class TestHomology:
    def test_point(self, pt):
        h = homology(nerve(pt, 4), 3)
        assert h.factors == ((0,), (), (), ())
        assert h.components == 1

    def test_z2(self, z2):
        h = homology(nerve(z2, 5), 3)
        assert h.factors == ((0,), (2,), (), (2,))

    def test_z3(self, z3):
        h = homology(nerve(z3, 5), 3)
        assert h.factors == ((0,), (3,), (), (3,))

    def test_e2_contractible(self, e2):
        h = homology(nerve(e2, 5), 3)
        assert h.factors == ((0,), (), (), ())

    def test_components_count_free_part(self):
        from fibsite.fincat import discrete_category

        d = discrete_category(["a", "b", "c"])
        h = homology(nerve(d, 2), 1)
        assert h.factors[0] == (0, 0, 0)
        assert h.components == 3

    def test_normalized_matches_unnormalized(self, z2):
        a = homology(nerve(z2, 3), 2)
        b = homology(nerve(z2, 3), 2, normalized=False)
        assert a.factors == b.factors

    def test_truncation_stability(self, z2, e2):
        for g in (z2, e2):
            low = homology(nerve(g, 3), 2).factors
            high = homology(nerve(g, 5), 2).factors
            assert low == high[:3]

    def test_truncation_guard(self, z2):
        with pytest.raises(InputError):
            homology(nerve(z2, 3), 3)

    def test_negative_degree_bound_rejected(self, z2):
        with pytest.raises(InputError, match="negative"):
            homology(nerve(z2, 3), -1)

    def test_opposite_has_same_homology(self, z2, z3, chain2, e2):
        for c in (z2, z3, chain2, e2):
            a = homology(nerve(c, 4), 3)
            b = homology(nerve(opposite(c), 4), 3)
            assert a.factors == b.factors


class TestInterchange:
    def test_validates(self, pt, chain2, z2, e2):
        for c in (pt, chain2, z2, e2):
            big, left, right = interchange_comparison(c, 3)
            assert validate_bisimplicial(big) == [], c
            assert validate_simplicial_map(left) == []
            assert validate_simplicial_map(right) == []

    def test_a_moved_face_in_the_last_column_is_reported(self, chain2):
        # every one of the d + 1 vertical columns is checked, the last too
        d = 2
        big, _left, _right = interchange_comparison(chain2, d)
        key = (d, 1, 0)
        face = dict(big.v_faces[key])
        x = min(face)
        face[x] = min(s for s in big.simplices[(d, 0)] if s != face[x])
        moved = dataclasses.replace(big, v_faces={**big.v_faces, key: face})
        assert validate_bisimplicial(moved) == [
            "vertical at h=2: d0 d2 fails in degree 2",
            "vertical at h=2: d0 s1 fails in degree 1",
        ]

    def test_point_isomorphism(self, pt):
        big, left, right = interchange_comparison(pt, 3)
        for n in range(4):
            assert len(left.domain.simplices[n]) == 1

    def test_z2_diagonal_counts(self, z2):
        big, left, right = interchange_comparison(z2, 3)
        # (n,n)-bisimplices are strings of 2n+1 arrows
        assert [len(left.domain.simplices[n]) for n in range(4)] == [2, 8, 32, 128]

    def test_comparisons_pass_evidence(self, z2, e2):
        for c in (z2, e2):
            big, left, right = interchange_comparison(c, 4)
            assert we_evidence(left, 3).passed
            assert we_evidence(right, 3).passed

    def test_chain_diagonal_contractible(self, chain2):
        big, left, right = interchange_comparison(chain2, 4)
        h = homology(left.domain, 2)
        assert h.factors == ((0,), (), ())


class TestDiagonalAndUnions:
    def test_disjoint_union(self, pt):
        a = standard_simplex(1, 3)
        b = standard_simplex(0, 3)
        total, (ia, ib) = disjoint_union_ssets([a, b], ["a", "b"])
        assert validate_simplicial(total) == []
        assert validate_simplicial_map(ia) == []
        h = homology(total, 2)
        assert h.factors[0] == (0, 0)

    def test_diagonal_of_interchange_matches_both(self, z2):
        big, left, right = interchange_comparison(z2, 3)
        d = diagonal(big)
        assert validate_simplicial(d) == []
        assert d.simplices == left.domain.simplices


class TestEvidence:
    def test_identity_passes(self, z2):
        n = nerve(z2, 4)
        assert we_evidence(identity_simplicial_map(n), 3).passed

    def test_collapse_e2_passes_with_groupoid_check(self, e2):
        ptg = cyclic_groupoid(1)
        f = Functor(
            domain=e2, codomain=ptg,
            object_map={o: "*" for o in e2.objects},
            morphism_map={m: "id_*" for m in e2.morphisms},
        )
        ev = we_evidence(nerve_map(f, 4), 3, domain_groupoid=e2, codomain_groupoid=ptg)
        assert ev.passed and ev.groupoid_check is True

    def test_z2_to_point_fails_h1(self, z2):
        ptg = cyclic_groupoid(1)
        f = Functor(
            domain=z2, codomain=ptg,
            object_map={"*": "*"},
            morphism_map={m: "id_*" for m in z2.morphisms},
        )
        ev = we_evidence(nerve_map(f, 4), 3)
        assert not ev.passed
        assert ev.homology_matches[1] is False

    def test_trivial_endomorphism_caught_by_groupoid_check(self, z2):
        f = Functor(
            domain=z2, codomain=z2, object_map={"*": "*"},
            morphism_map={m: "id_*" for m in z2.morphisms},
        )
        ev = we_evidence(nerve_map(f, 4), 3, domain_groupoid=z2, codomain_groupoid=z2)
        assert ev.groupoid_check is False and not ev.passed

    def test_pi0_detected(self, e2):
        from fibsite.fincat import discrete_category

        d2 = discrete_category(["a", "b"])
        # inclusion of two points into the contractible groupoid nerve
        nd = nerve(d2, 3)
        ne = nerve(e2, 3)
        comp0 = {("a",): ("o1",), ("b",): ("o2",)}
        comps = [comp0]
        for n in range(1, 4):
            cm = {}
            for t in nd.simplices[n]:
                obj = "o1" if t[0] == "id_a" else "o2"
                cm[t] = tuple([f"id_{obj}"] * n)
            comps.append(cm)
        f = __import__("fibsite.sset", fromlist=["SimplicialMap"]).SimplicialMap(
            domain=nd, codomain=ne, components=tuple(comps)
        )
        assert validate_simplicial_map(f) == []
        ev = we_evidence(f, 2)
        assert not ev.pi0_bijective and not ev.passed

    def test_truncation_guard(self, z2):
        n = nerve(z2, 3)
        with pytest.raises(InputError):
            we_evidence(identity_simplicial_map(n), 3)

    def test_negative_degree_bound_rejected(self, z2):
        # a bound below 0 would compare homology in no degree at all
        with pytest.raises(InputError, match="negative"):
            we_evidence(identity_simplicial_map(nerve(z2, 3)), -1)


def test_diagonal_of_horizontally_constant_bisimplicial(chain2):
    # a bisimplicial set constant in the horizontal direction has the
    # vertical simplicial set as its diagonal
    from fibsite.sset import BisimplicialSet

    base = nerve(chain2, 3)
    d = 3
    simplices = {(m, n): base.simplices[n] for m in range(d + 1) for n in range(d + 1)}
    h_faces = {
        (m, n, i): {x: x for x in base.simplices[n]}
        for m in range(1, d + 1)
        for n in range(d + 1)
        for i in range(m + 1)
    }
    h_deg = {
        (m, n, i): {x: x for x in base.simplices[n]}
        for m in range(d)
        for n in range(d + 1)
        for i in range(m + 1)
    }
    v_faces = {
        (m, n, i): dict(base.faces[(n, i)])
        for m in range(d + 1)
        for n in range(1, d + 1)
        for i in range(n + 1)
    }
    v_deg = {
        (m, n, i): dict(base.degeneracies[(n, i)])
        for m in range(d + 1)
        for n in range(d)
        for i in range(n + 1)
    }
    b = BisimplicialSet(
        dim=d, simplices=simplices, h_faces=h_faces, h_degeneracies=h_deg,
        v_faces=v_faces, v_degeneracies=v_deg,
    )
    assert validate_bisimplicial(b) == []
    diag = diagonal(b)
    assert diag.simplices == base.simplices
    assert diag.faces == base.faces
    assert diag.degeneracies == base.degeneracies


def test_z4_homology_oracle():
    from fibsite.fincat import cyclic_groupoid

    h = homology(nerve(cyclic_groupoid(4), 5), 3)
    assert h.factors == ((0,), (4,), (), (4,))


# ---------------------------------------------------------------------------
# path components read off H_0, against the edge-path classes


def sampled_piece(rng):
    if rng.random() < 0.5:
        c = sampling.random_groupoid(rng) if rng.random() < 0.5 else sampling.random_poset_site(rng)
        return nerve(c, 3)
    return standard_simplex(rng.randrange(4), 3)


def sampled_space(seed):
    """A nerve, a standard simplex, a disjoint union of these or a hocolim
    of a random groupoid diagram, truncated at degree 3."""
    rng = random.Random(seed)
    kind = rng.randrange(3)
    if kind == 0:
        return sampled_piece(rng)
    if kind == 1:
        pieces = [sampled_piece(rng) for _ in range(rng.randint(1, 3))]
        return disjoint_union_ssets(pieces, [f"p{i}" for i in range(len(pieces))])[0]
    g = sampling.random_groupoid(rng, max_group=2)
    return hocolim(sampling.random_diagram(rng, g, 3), 3).total


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**16), st.booleans())
def test_components_are_the_edge_path_classes(seed, normalized):
    s = sampled_space(seed)
    assert homology(s, 2, normalized).components == len(set(pi0_sset(s).values()))
