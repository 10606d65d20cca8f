"""The builders' outputs pass the validators.

``hocolim``, ``pb``, ``enriched_hocolim`` and ``enriched_pb`` validate only
their caller's argument; what they build is fed back into the unchecked
builders without another validation.  This property test is what covers the
builders instead: on sampled diagrams, over-objects and enriched inputs over
several groupoids it runs the validators on every builder output, the unit
and counit included, and a builder corrupted in one face or action entry
must be reported.  The dicts of every set and map they build, and of the
standard simplices, disjoint unions and sampled diagrams they start from,
are written from its integer level; ``reference_builders`` holds the
hand-written constructions those dicts must equal.
"""

import pickle
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_builders import (
    reference_disjoint_union,
    reference_hocolim,
    reference_nerve,
    reference_orbit_diagram,
    reference_pb,
    reference_standard_simplex,
    reference_union_diagram,
)

from fibsite import hocopb
from fibsite.bundle import parse_bundle
from fibsite.fincat import codiscrete_groupoid, cyclic_groupoid, poset_chain
from fibsite.hocopb import (
    validate_diagram,
    validate_enriched_diagram,
    validate_enriched_over_nerve,
    validate_over_nerve,
)
from fibsite.sampling import (
    constant_diagram,
    disjoint_union_diagrams,
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
    TruncatedSimplicialSet,
    disjoint_union_ssets,
    nerve,
    standard_simplex,
    validate_simplicial_map,
)

D = 3


def _reports(name, report):
    return [f"{name}: {r}" for r in report]


def builder_reports(a=None, x=None) -> list[str]:
    """Validator reports on everything the builders make from a diagram a
    and an over-object x: hocolim(a), pb of it and its hocolim, the counit at
    a and the unit at hocolim(a); pb(x), its hocolim and pb of that, the unit
    at x.  Builders are called unchecked, the way the library calls them on
    its own output."""
    report = []
    if a is not None:
        h = hocopb._hocolim(a, D)
        p = hocopb._pb(h)
        report += _reports("hocolim(a)", validate_over_nerve(h))
        report += _reports("pb(hocolim(a))", validate_diagram(p))
        hp = hocopb._hocolim(p, D)
        report += _reports("hocolim(pb(hocolim(a)))", validate_over_nerve(hp))
        # check_triangles reads these components without building hp
        report += _reports("unit at hocolim(a)", validate_simplicial_map(hocopb._unit(h, hp)))
        for y, m in hocopb._counit(a, p).items():
            report += _reports(f"counit at {y}", validate_simplicial_map(m))
    if x is not None:
        px = hocopb._pb(x)
        hpx = hocopb._hocolim(px, D)
        report += _reports("pb(x)", validate_diagram(px))
        report += _reports("hocolim(pb(x))", validate_over_nerve(hpx))
        report += _reports("pb(hocolim(pb(x)))", validate_diagram(hocopb._pb(hpx)))
        report += _reports("unit", validate_simplicial_map(hocopb._unit(x, hpx)))
    return report


def enriched_reports(X=None, Y=None) -> list[str]:
    """Validator reports on the sectionwise builders' outputs."""
    report = []
    if X is not None:
        h = hocopb._enriched_hocolim(X, D)
        report += _reports("enriched_hocolim(X)", validate_enriched_over_nerve(h))
        report += _reports("enriched_pb(...)", validate_enriched_diagram(hocopb._enriched_pb(h)))
    if Y is not None:
        p = hocopb._enriched_pb(Y)
        report += _reports("enriched_pb(Y)", validate_enriched_diagram(p))
        report += _reports(
            "enriched_hocolim(...)",
            validate_enriched_over_nerve(hocopb._enriched_hocolim(p, D)),
        )
    return report


GROUPOIDS = {
    "z2": cyclic_groupoid(2),
    "z3": cyclic_groupoid(3),
    "e2": codiscrete_groupoid(["o1", "o2"]),
    "random 1": random_groupoid(random.Random(1)),
    "random 2": random_groupoid(random.Random(2)),
    "random 3": random_groupoid(random.Random(3)),
}


@pytest.mark.parametrize("name", sorted(GROUPOIDS))
def test_builder_outputs_pass_the_validators(name):
    g = GROUPOIDS[name]
    rng = random.Random(name)
    a = random_diagram(rng, g, D)
    x = random_over_nerve(rng, g, D)
    assert validate_diagram(a) == [] and validate_over_nerve(x) == []
    assert builder_reports(a=a, x=x) == []


@pytest.mark.parametrize("seed", [3, 17])
def test_enriched_builder_outputs_pass_the_validators(seed):
    rng = random.Random(seed)
    X = random_enriched_diagram(rng, random_poset_site(rng, 2), D)
    Y = random_enriched_over_nerve(rng, poset_chain(["V", "U"]), D)
    assert validate_enriched_diagram(X) == [] and validate_enriched_over_nerve(Y) == []
    assert enriched_reports(X=X, Y=Y) == []


# ---------------------------------------------------------------------------
# the dicts written from the integer levels equal the hand-written ones


@pytest.mark.parametrize("name", sorted(GROUPOIDS))
def test_dicts_match_the_reference_builders(name):
    g = GROUPOIDS[name]
    rng = random.Random(name)
    a = random_diagram(rng, g, D)
    x = random_over_nerve(rng, g, D)
    assert nerve(g, D) == reference_nerve(g, D)
    h, ref_h = hocopb._hocolim(a, D), reference_hocolim(a, D)
    px, ref_px = hocopb._pb(x), reference_pb(x)
    # equality reads every field, so every dict is written and compared
    assert h == ref_h and px == ref_px
    assert hocopb._pb(h) == reference_pb(ref_h)
    assert hocopb._hocolim(px, D) == reference_hocolim(ref_px, D)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**16), st.integers(0, 2), st.integers(0, 2), st.integers(0, 4))
def test_sampled_builders_match_the_reference_builders(seed, k, k2, d):
    # standard simplices, unions (a library piece, a caller's dict piece and
    # a nerve) with their injections, orbit diagrams and unions of diagrams
    rng = random.Random(seed)
    g = random_groupoid(rng, max_objects=2, max_group=3)
    y0 = rng.choice(sorted(g.objects))
    ref_k, ref_k2 = reference_standard_simplex(k, d), reference_standard_simplex(k2, d)
    assert standard_simplex(k, d) == ref_k
    pieces, tags = [standard_simplex(k, d), ref_k2], ["a", "b"]
    if d:
        pieces.append(nerve(g, d))
        tags.append("n")
    assert disjoint_union_ssets(pieces, tags) == reference_disjoint_union(
        [ref_k, *pieces[1:]], tags
    )
    orbit = orbit_diagram(g, y0, standard_simplex(k, d))
    assert orbit == reference_orbit_diagram(g, y0, ref_k)
    parts = [orbit, constant_diagram(g, standard_simplex(k2, d))]
    ref_parts = [reference_orbit_diagram(g, y0, ref_k), constant_diagram(g, ref_k2)]
    assert disjoint_union_diagrams(parts, ["t0", "t1"]) == reference_union_diagram(
        ref_parts, ["t0", "t1"]
    )


# seeds whose diagram is an orbit diagram or a union, not a bare constant one
UNBUILT_SEEDS = [0, 2, 3, 7]


@pytest.mark.parametrize("seed", UNBUILT_SEEDS)
def test_a_sampled_diagram_writes_no_dict_until_read(seed):
    a = random_diagram(random.Random(seed), cyclic_groupoid(2), D)
    values, actions = list(a.value.values()), list(a.action.values())
    # what a size signature reads: the simplices only
    assert [len(v.simplices[n]) for v in values for n in range(D + 1)]
    assert not any({"faces", "degeneracies"} & vars(v).keys() for v in values)
    assert not any("components" in vars(f) for f in actions)
    copy = pickle.loads(pickle.dumps(a))
    # pickling writes every dict, and the copy carries the fields only
    fields = set(TruncatedSimplicialSet.__dataclass_fields__)
    assert all(vars(v).keys() == fields for v in copy.value.values())
    fields = set(SimplicialMap.__dataclass_fields__)
    assert all(vars(f).keys() == fields for f in copy.action.values())
    assert copy == a and validate_diagram(copy) == []


BUNDLES = Path(__file__).resolve().parents[1] / "bundles"
SHIPPED = [p for p in sorted(BUNDLES.glob("*.bundle")) if not p.name.startswith("bad_")]


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_bundle_nerves_match_the_reference(path):
    categories = parse_bundle([str(path)]).categories
    assert categories
    for c in categories.values():
        for d in (1, 3):
            assert nerve(c, d) == reference_nerve(c, d)


# ---------------------------------------------------------------------------
# a builder corrupted in one entry is reported


def _swapped(table: dict) -> dict:
    """A copy of a map with the values of its first two differing entries swapped."""
    keys = sorted(table, key=repr)
    k1 = keys[0]
    k2 = next(k for k in keys if table[k] != table[k1])
    return {**table, k1: table[k2], k2: table[k1]}


def _hocolim_with_a_face_swapped(build):
    def corrupted(a, d):
        h = build(a, d)
        faces = {**h.total.faces, (1, 0): _swapped(h.total.faces[(1, 0)])}
        total = TruncatedSimplicialSet(
            dim=h.total.dim, simplices=h.total.simplices, faces=faces,
            degeneracies=h.total.degeneracies,
        )
        structure = SimplicialMap(
            domain=total, codomain=h.structure.codomain, components=h.structure.components
        )
        return hocopb.OverNerve(base=h.base, total=total, structure=structure)
    return corrupted


def _pb_with_an_action_entry_swapped(build):
    def corrupted(x):
        p = build(x)
        m = next(m for m in sorted(p.action) if m not in p.base.identity.values())
        f = p.action[m]
        comps = (_swapped(f.components[0]), *f.components[1:])
        moved = SimplicialMap(domain=f.domain, codomain=f.codomain, components=comps)
        return hocopb.GroupoidDiagram(base=p.base, value=p.value, action={**p.action, m: moved})
    return corrupted


@pytest.mark.parametrize("builder,corrupt", [
    ("_hocolim", _hocolim_with_a_face_swapped),
    ("_pb", _pb_with_an_action_entry_swapped),
])
def test_a_corrupted_builder_is_reported(monkeypatch, builder, corrupt):
    g = cyclic_groupoid(2)
    rng = random.Random(5)
    a = random_diagram(rng, g, D)
    x = random_over_nerve(rng, g, D)
    Y = random_enriched_over_nerve(rng, poset_chain(["V", "U"]), D)
    assert builder_reports(a=a, x=x) == enriched_reports(Y=Y) == []
    monkeypatch.setattr(hocopb, builder, corrupt(getattr(hocopb, builder)))
    assert builder_reports(a=a) != []
    assert builder_reports(x=x) != []
    assert enriched_reports(Y=Y) != []
