"""Topologies stored as least covers, checked against the every-sieve oracles.

The library stores a topology as the least cover L(u) of each object and
verifies, saturates, induces and checks sheaves from L alone;
``topology_oracles`` holds the extensional versions that list every sieve.
Verdicts, listed covers and sheaf verdicts must agree on sampled sites and
on least covers changed at one object.
"""

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibsite.fibred import grothendieck_construct, induced_topology
from fibsite.fincat import build_category
from fibsite.sampling import random_poset_site, random_presheaf, random_presheaf_of_categories
from fibsite.site import (
    GrothendieckTopology,
    Sieve,
    all_sieves,
    is_sheaf,
    maximal_sieve,
    saturate_topology,
    sheafify,
    sieve_from_generators,
    validate_sieve,
    verify_topology,
)
from helpers import random_seeds
from topology_oracles import (
    listed,
    oracle_induced_topology,
    oracle_is_sheaf,
    oracle_saturate_topology,
    oracle_verify_topology,
)


def one_object_mutants(rng, t):
    """t with L changed at one object: an arrow removed from L(u), keeping
    it a sieve; a principal sieve added to L(u); and a maximal L(v) where
    some a: v -> w outside L(w) makes that break stability."""
    c, least = t.site, t.least
    u = rng.choice(sorted(c.objects))
    lu = least[u].members
    removable = [m for m in sorted(lu) if not validate_sieve(c, Sieve(u, lu - {m}))]
    if removable:
        yield GrothendieckTopology(c, {**least, u: Sieve(u, lu - {rng.choice(removable)})})
    outside = sorted(set(c.into(u)) - lu)
    if outside:
        principal = sieve_from_generators(c, u, {rng.choice(outside)})
        yield GrothendieckTopology(c, {**least, u: Sieve(u, lu | principal.members)})
    unstable = sorted({v for a, (v, w) in c.morphisms.items() if a not in least[w].members})
    if unstable:
        v = rng.choice(unstable)
        yield GrothendieckTopology(c, {**least, v: maximal_sieve(c, v)})


def agrees_with_oracle(t):
    return bool(verify_topology(t)) == bool(oracle_verify_topology(t.site, listed(t)))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32))
def test_least_covers_agree_with_every_sieve_oracles(seed):
    rng = random.Random(seed)
    site = random_poset_site(rng, 4)
    seeds = random_seeds(rng, site)
    topo = saturate_topology(site, seeds)
    assert listed(topo) == oracle_saturate_topology(site, seeds)
    fs = grothendieck_construct(random_presheaf_of_categories(rng, site))
    induced = induced_topology(fs, topo)
    assert listed(induced) == oracle_induced_topology(fs, listed(topo))
    for t in (topo, induced, *one_object_mutants(rng, topo)):
        assert agrees_with_oracle(t)
    f = random_presheaf(rng, site)
    for g in (f, sheafify(f, topo)):
        # on a failure the oracle may cite a larger cover of the same object
        ours, oracle = is_sheaf(g, topo), oracle_is_sheaf(g, listed(topo))
        assert (ours.ok, ours.object, ours.kind) == (oracle.ok, oracle.object, oracle.kind)


def test_least_cover_that_is_not_a_sieve_is_reported(chain3):
    t = saturate_topology(chain3, {"U": {sieve_from_generators(chain3, "U", {"a_V_U"})}})
    broken = GrothendieckTopology(chain3, {**t.least, "U": Sieve("U", frozenset({"a_V_U"}))})
    assert verify_topology(broken) == ["L(U) is not a sieve on U: ['a_V_U']"]


# ---------------------------------------------------------------------------
# McCord's finite model of a wedge of circles


def wedge_of_circles(minimal: int = 5):
    """Opens of `minimal` points below two maximal ones, with union covers.

    The space is the non-Hausdorff suspension of `minimal` points, a finite
    model of a wedge of minimal - 1 circles (McCord, Duke Math. J. 33, 1966).
    Opens are the down-sets: any set of minimal points, or all of them with
    one or both maximal points; 35 opens for five minimal points.  The site
    is their inclusion order, and a sieve covers an open when the union of
    its members' sources is that open.  So L(U) is generated by the smallest
    opens around the points of U.  Returns the topology and its opens.
    """
    low = [f"a{i}" for i in range(minimal)]
    opens = [frozenset(p) for k in range(minimal + 1) for p in itertools.combinations(low, k)]
    opens += [frozenset(low) | top for top in ({"b0"}, {"b1"}, {"b0", "b1"})]
    name = {o: "U_" + "".join(sorted(o)) for o in opens}
    arrows = {f"i_{name[v]}_{name[u]}": (name[v], name[u]) for u in opens for v in opens if v < u}
    compose = {
        (f"i_{name[v]}_{name[u]}", f"i_{name[w]}_{name[v]}"): f"i_{name[w]}_{name[u]}"
        for u in opens for v in opens for w in opens if w < v < u
    }
    site = build_category(name.values(), arrows, compose)
    smallest = [min((o for o in opens if p in o), key=len) for p in low + ["b0", "b1"]]
    least = {}
    for u in opens:
        gens = {m for m in site.into(name[u]) if site.source(m) in {name[o] for o in smallest if o <= u}}
        least[name[u]] = sieve_from_generators(site, name[u], gens)
    return GrothendieckTopology(site, least), {name[o]: o for o in opens}


@pytest.fixture(scope="module")
def wedge4():
    return wedge_of_circles()


def union_covers(t, points):
    c = t.site
    return {
        u: frozenset(
            s for s in all_sieves(c, u)
            if frozenset().union(*(points[c.source(m)] for m in s.members)) == points[u]
        )
        for u in c.objects
    }


def test_wedge_of_four_circles_verifies(wedge4):
    t, _points = wedge4
    assert len(t.site.objects) == 35
    start = time.perf_counter()
    assert verify_topology(t) == []
    assert time.perf_counter() - start < 1.0


def test_wedge_of_four_circles_saturates_from_least_covers(wedge4):
    # the union covers list the sieves above L, and saturating them gives L
    t, points = wedge4
    covers = union_covers(t, points)
    assert listed(t) == covers
    assert saturate_topology(t.site, covers).least == t.least


def test_wedge_of_four_circles_mutant_fails_local_character(wedge4):
    # L(bottom) raised to the sieve of two four-point opens: every object
    # still pulls back, but the sieve of the five singletons is locally
    # covering for L(bottom) without covering; the oracle, which lists
    # every sieve, finds local character failing there and nowhere else
    t, _points = wedge4
    bottom = "U_a0a1a2a3a4"
    two = {"i_U_a0a1a2a3_U_a0a1a2a3a4", "i_U_a1a2a3a4_U_a0a1a2a3a4"}
    broken = GrothendieckTopology(
        t.site, {**t.least, bottom: sieve_from_generators(t.site, bottom, two)}
    )
    report = verify_topology(broken)
    oracle = oracle_verify_topology(t.site, listed(broken))
    verdict = f"local character fails at {bottom}: "
    assert len(report) == 1 and report[0].startswith(verdict)
    assert oracle and all(r.startswith(verdict) for r in oracle)


def test_wedge_of_three_circles_mutants_agree_with_oracle():
    # four minimal points, 19 opens: small enough to run the oracle often
    t, _points = wedge_of_circles(4)
    assert oracle_verify_topology(t.site, listed(t)) == [] == verify_topology(t)
    rng = random.Random(7)
    for _ in range(3):
        for broken in one_object_mutants(rng, t):
            assert agrees_with_oracle(broken)
