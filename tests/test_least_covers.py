"""Topologies through least covers, checked against the every-sieve oracles.

The library verifies, saturates and induces topologies from the least cover
L(u) of each object; ``topology_oracles`` holds the extensional versions
that list every sieve.  Verdicts, saturated covers and induced covers must
agree on sampled sites and on topologies broken in one place.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibsite.fibred import grothendieck_construct, induced_topology
from fibsite.fincat import build_category
from fibsite.sampling import random_poset_site, random_presheaf_of_categories
from fibsite.site import (
    GrothendieckTopology,
    all_sieves,
    least_cover,
    pullback_sieve,
    saturate_topology,
    sieve_from_generators,
    verify_topology,
)
from topology_oracles import (
    oracle_induced_topology,
    oracle_saturate_topology,
    oracle_verify_topology,
)


def random_seeds(rng, site):
    """Up to two objects, each seeded with a sieve of up to two generators."""
    seeds = {}
    for u in rng.sample(sorted(site.objects), rng.randint(0, min(2, len(site.objects)))):
        arrows = sorted(site.into(u))
        gens = set(rng.sample(arrows, rng.randint(0, min(2, len(arrows)))))
        seeds.setdefault(u, set()).add(sieve_from_generators(site, u, gens))
    return seeds


def by_members(sieves):
    return sorted(sieves, key=lambda s: sorted(s.members))


def one_place_mutants(rng, t):
    """t with one sieve added, one cover dropped, and one pullback removed."""
    c = t.site
    u = rng.choice(sorted(c.objects))
    covers = t.covering(u)
    others = by_members(set(all_sieves(c, u)) - covers)
    if others:
        yield GrothendieckTopology(c, {**t.covers, u: covers | {rng.choice(others)}})
    yield GrothendieckTopology(c, {**t.covers, u: covers - {rng.choice(by_members(covers))}})
    pulled = [
        (v, pullback_sieve(c, s, alpha))
        for alpha, (v, w) in sorted(c.morphisms.items())
        for s in by_members(t.covering(w))
        if not c.is_identity(alpha)
    ]
    if pulled:
        v, p = rng.choice(pulled)
        yield GrothendieckTopology(c, {**t.covers, v: t.covering(v) - {p}})


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32))
def test_least_covers_agree_with_every_sieve_oracles(seed):
    rng = random.Random(seed)
    site = random_poset_site(rng, 4)
    seeds = random_seeds(rng, site)
    topo = saturate_topology(site, seeds)
    assert topo.covers == oracle_saturate_topology(site, seeds).covers
    fs = grothendieck_construct(random_presheaf_of_categories(rng, site))
    induced = induced_topology(fs, topo)
    assert induced.covers == oracle_induced_topology(fs, topo).covers
    for t in (topo, induced, *one_place_mutants(rng, topo)):
        assert bool(verify_topology(t)) == bool(oracle_verify_topology(t))


# ---------------------------------------------------------------------------
# McCord's finite model of a wedge of circles


def wedge_of_circles_site(minimal: int = 5):
    """Opens of `minimal` points below two maximal ones, with union covers.

    The space is the non-Hausdorff suspension of `minimal` points, a finite
    model of a wedge of minimal - 1 circles (McCord, Duke Math. J. 33, 1966).
    Opens are the down-sets: any set of minimal points, or all of them with
    one or both maximal points; 35 opens for five minimal points.  The site
    is their inclusion order, and a sieve covers an open when the union of
    its members' sources is that open.
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
    points = {name[o]: o for o in opens}
    covers = {
        u: frozenset(
            s for s in all_sieves(site, u)
            if frozenset().union(*(points[site.source(m)] for m in s.members)) == points[u]
        )
        for u in site.objects
    }
    return GrothendieckTopology(site, covers)


@pytest.fixture(scope="module")
def wedge4():
    return wedge_of_circles_site()


def test_wedge_of_four_circles_verifies(wedge4):
    assert len(wedge4.site.objects) == 35
    assert verify_topology(wedge4) == []


def test_wedge_of_four_circles_without_one_cover_fails_local_character(wedge4):
    bottom = "U_a0a1a2a3a4"
    # two four-point opens cover the five minimal points
    dropped = sieve_from_generators(
        wedge4.site, bottom, {"i_U_a0a1a2a3_U_a0a1a2a3a4", "i_U_a1a2a3a4_U_a0a1a2a3a4"}
    )
    covers = wedge4.covering(bottom)
    assert dropped in covers
    broken = GrothendieckTopology(wedge4.site, {**wedge4.covers, bottom: covers - {dropped}})
    assert any("local character" in r for r in verify_topology(broken))


def test_wedge_of_four_circles_saturates_from_least_covers(wedge4):
    seeds = {u: {least_cover(wedge4, u)} for u in wedge4.site.objects}
    assert saturate_topology(wedge4.site, seeds).covers == wedge4.covers


def test_wedge_of_three_circles_mutants_agree_with_oracle():
    # four minimal points, 19 opens: small enough for the every-sieve oracle
    t = wedge_of_circles_site(4)
    assert oracle_verify_topology(t) == [] == verify_topology(t)
    for broken in one_place_mutants(random.Random(7), t):
        assert bool(verify_topology(broken)) == bool(oracle_verify_topology(broken))
