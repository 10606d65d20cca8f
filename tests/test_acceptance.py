"""Acceptance criteria, one test per criterion, each printing a PASS line.

Every criterion runs at its stated scale: seeded instance counts, exact
comparisons (no tolerances anywhere; all arithmetic is integer), and wall
clock bounds asserted at the end of each test.  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import io
import itertools
import json
import random
import time
from pathlib import Path

import pytest

from fibsite.bundle import emit_bundle, parse_bundle
from fibsite.cli import run as cli_run
from fibsite.cohom import (
    ZZ,
    cech_cohomology,
    cochain_complex,
    cohomology_of_complex,
    constant_abelian_presheaf,
    invariance_report,
    zmod,
)
from fibsite.fibred import (
    constant_enriched_diagram,
    constant_presheaf_of_categories,
    enriched_to_presheaf,
    grothendieck_construct,
    induced_topology,
    left_kan_along,
    presheaf_to_enriched,
)
from fibsite.fincat import (
    COVARIANT,
    SetValuedFunctor,
    colim_set,
    comma_data,
    cyclic_groupoid,
    opposite_functor,
    pair_name,
    pi0,
    poset_chain,
    terminal_category,
    codiscrete_groupoid,
)
from fibsite.hocopb import (
    check_triangles,
    counit_epsilon,
    presheaf_hocolim_pb,
    unit_eta,
)
from fibsite.sampling import (
    constant_diagram,
    constant_enriched_diagram_from,
    orbit_diagram,
    random_diagram,
    random_enriched_diagram,
    random_groupoid,
    random_matrix,
    random_over_nerve,
    random_poset_site,
    random_presheaf,
    random_presheaf_of_categories,
    random_sectionwise_equivalence,
    random_topology,
)
from fibsite.site import (
    Sieve,
    all_sieves,
    is_sheaf,
    matching_families,
    make_presheaf,
    sheafify,
    verify_topology,
)
from fibsite.snf import identity_matrix, matmul, matrix, smith_normal_form
from fibsite.sset import interchange_comparison, standard_simplex, we_evidence
from helpers import determinant

BUNDLES = Path(__file__).resolve().parents[1] / "bundles"
SHIPPED = ["pt_z2.bundle", "chain_cover.bundle", "e2_collapse.bundle", "product_cj.bundle"]


def record(number: int, name: str, elapsed: float, bound: float) -> None:
    print(f"ACCEPTANCE {number:2d} ({name}): PASS in {elapsed:.1f}s (bound {bound:.0f}s)")
    assert elapsed < bound, f"criterion {number} exceeded its {bound}s budget"


# ---------------------------------------------------------------------------
# shared instance pools (generated once; used by criteria 4 and 5)


@pytest.fixture(scope="module")
def adjunction_instances():
    d = 4
    rng = random.Random(2024)
    diagrams = []
    over_objects = []
    # two deliberate Z/3 instances at point-level values keep the larger
    # group in the pool without blowing up the simplex counts
    z3 = cyclic_groupoid(3)
    diagrams.append(constant_diagram(z3, standard_simplex(0, d)))
    diagrams.append(orbit_diagram(z3, "*", standard_simplex(0, d)))
    over_objects.append(random_over_nerve(random.Random(99), z3, d, max_pieces=1))
    while len(diagrams) < 13:
        g = random_groupoid(rng, max_objects=2, max_group=2)
        diagrams.append(random_diagram(rng, g, d))
    while len(over_objects) < 12:
        g = random_groupoid(rng, max_objects=2, max_group=2)
        over_objects.append(random_over_nerve(rng, g, d))
    enriched = []
    rng2 = random.Random(77)
    while len(enriched) < 10:
        site = random_poset_site(rng2, 2)
        enriched.append(random_enriched_diagram(rng2, site, d, max_group=2))
    return d, diagrams, over_objects, enriched, {}


def test_criterion_01_topology_soundness():
    t0 = time.monotonic()
    count = 0
    seed = 0
    while count < 100:
        rng = random.Random(seed)
        seed += 1
        site = random_poset_site(rng)
        topo = random_topology(rng, site)
        a = random_presheaf_of_categories(rng, site)
        fs = grothendieck_construct(a)
        induced = induced_topology(fs, topo)
        assert verify_topology(induced) == [], f"seed {seed - 1}"
        count += 1
    # shipped examples
    for name in SHIPPED:
        b = parse_bundle([str(BUNDLES / name)])
        for pname, pc in b.presheaves_of_categories.items():
            base_name = next(n for n, c in b.categories.items() if c == pc.site)
            fs = grothendieck_construct(pc)
            induced = induced_topology(fs, b.topologies[base_name])
            assert verify_topology(induced) == [], f"{name}:{pname}"
    record(1, "induced topologies satisfy the axioms", time.monotonic() - t0, 60)


def test_criterion_02_roundtrip_identity():
    from fibsite.site import constant_presheaf, coproduct_presheaf, representable_presheaf

    t0 = time.monotonic()
    for seed in range(100):
        rng = random.Random(seed)
        site = random_poset_site(rng)
        a = random_presheaf_of_categories(rng, site)
        fs = grothendieck_construct(a)
        parts = [representable_presheaf(fs.total, rng.choice(sorted(fs.total.objects)))]
        tags = ["y0"]
        if rng.random() < 0.5:
            parts.append(constant_presheaf(fs.total, ("c0", "c1")))
            tags.append("k0")
        f = coproduct_presheaf(parts, tags)
        enr = presheaf_to_enriched(fs, f)
        assert enriched_to_presheaf(fs, enr) == f, seed
        assert presheaf_to_enriched(fs, enriched_to_presheaf(fs, enr)) == enr, seed
    record(2, "presheaf/enriched round trip is the identity", time.monotonic() - t0, 10)


def test_criterion_03_product_topology():
    t0 = time.monotonic()
    site_pool = [
        poset_chain(["V", "U"]),
        poset_chain(["W", "V", "U"]),
        terminal_category(),
    ]
    fibre_pool = [
        poset_chain(["x", "y"]),
        terminal_category("x"),
        cyclic_groupoid(2, obj="x"),
        poset_chain(["x", "y", "z"]),
    ]
    rng = random.Random(3)
    checked = 0
    while checked < 10:
        c = rng.choice(site_pool)
        j = rng.choice(fibre_pool)
        topo = random_topology(rng, c)
        fs = grothendieck_construct(constant_presheaf_of_categories(c, j))
        induced = induced_topology(fs, topo)

        # independent product side, built here from scratch
        objects = [pair_name(u, x) for u in sorted(c.objects) for x in sorted(j.objects)]
        morphisms = {
            pair_name(a, f): (
                pair_name(c.source(a), j.source(f)),
                pair_name(c.target(a), j.target(f)),
            )
            for a in sorted(c.morphisms)
            for f in sorted(j.morphisms)
        }
        assert sorted(fs.total.objects) == sorted(objects)
        assert fs.total.morphisms == morphisms
        identity = {
            pair_name(u, x): pair_name(c.identity[u], j.identity[x])
            for u in c.objects
            for x in j.objects
        }
        assert fs.total.identity == identity
        composition = {}
        for (a2, a1), a in c.composition.items():
            for (f2, f1), f in j.composition.items():
                composition[(pair_name(a2, f2), pair_name(a1, f1))] = pair_name(a, f)
        assert fs.total.composition == composition
        # product topology: sieves containing a block S x Mor(J) over x
        for tot in fs.total.objects:
            u, x = fs.object_pair[tot]
            gens = []
            for s in topo.covering(u):
                members = frozenset(
                    pair_name(alpha, f)
                    for alpha in s.members
                    for f in j.into(x)
                )
                gens.append(members)
            expected = frozenset(
                r
                for r in all_sieves(fs.total, tot)
                if any(g <= r.members for g in gens)
            )
            assert frozenset(induced.covering(tot)) == expected
        checked += 1
    record(3, "constant fibres give the product site exactly", time.monotonic() - t0, 10)


def test_criterion_04_triangle_identities(adjunction_instances):
    d, diagrams, over_objects, enriched, cache = adjunction_instances
    t0 = time.monotonic()
    assert len(diagrams) + len(over_objects) >= 25
    for a in diagrams:
        assert check_triangles(a=a).hocolim_side
    for x in over_objects:
        assert check_triangles(x=x).pb_side
    assert len(enriched) >= 10
    for i, X in enumerate(enriched):
        run = presheaf_hocolim_pb(X, d)
        cache[i] = run
        assert run.triangles.passed
        assert run.counit_natural
    record(4, "triangle identities hold exactly", time.monotonic() - t0, 120)


def test_criterion_05_unit_counit_evidence(adjunction_instances):
    from fibsite.hocopb import enriched_counit, enriched_unit

    d, diagrams, over_objects, enriched, cache = adjunction_instances
    t0 = time.monotonic()
    for x in over_objects:
        eta = unit_eta(x)
        assert we_evidence(eta, 3).passed
    for a in diagrams:
        for y, m in sorted(counit_epsilon(a).items()):
            assert we_evidence(m, 3).passed, y
    # sectionwise maps of the enriched instances (runs shared with criterion 4)
    for i, X in enumerate(enriched):
        run = cache.get(i) or presheaf_hocolim_pb(X, d)
        for (u, ob), m in sorted(enriched_counit(X, d).items()):
            assert we_evidence(m, 3).passed
        for u, m in sorted(enriched_unit(run.hocolim_object).items()):
            assert we_evidence(m, 3).passed
    record(5, "unit and counit pass weak-equivalence evidence", time.monotonic() - t0, 120)


def test_criterion_06_interchange_comparison(pt, chain2, z2, e2):
    t0 = time.monotonic()
    for c in (pt, chain2, z2, e2):
        _big, left, right = interchange_comparison(c, 4)
        assert we_evidence(left, 3).passed
        assert we_evidence(right, 3).passed
    record(6, "two-sided string comparison maps pass evidence", time.monotonic() - t0, 60)


def test_criterion_07_kan_extension_vs_components():
    t0 = time.monotonic()
    rng = random.Random(2025)
    checked = 0
    while checked < 50:
        m, _gh = random_sectionwise_equivalence(rng)
        one = constant_enriched_diagram(m.domain)
        kan = left_kan_along(m, one)
        b = m.codomain
        for u in b.site.objects:
            op = opposite_functor(m.components[u])
            for ob in b.value[u].objects:
                cd = comma_data(op, ob)
                reps = pi0(cd.category)
                # independent path: components of the comma category
                classes = set(reps.values())
                assert len(kan.value[(u, ob)]) == len(classes)
                # exact bijection: colimit legs constant on components
                diagram = SetValuedFunctor(
                    base=cd.category,
                    variance=COVARIANT,
                    value={n: ("*",) for n in cd.category.objects},
                    action={mm: {"*": "*"} for mm in cd.category.morphisms},
                )
                cocone = colim_set(diagram)
                pairing = {}
                for n in cd.category.objects:
                    cls = cocone.leg[n]["*"]
                    rep = reps[n]
                    assert pairing.setdefault(rep, cls) == cls
                assert len(set(pairing.values())) == len(classes)
                assert set(pairing.values()) == set(kan.value[(u, ob)])
        checked += 1
    record(7, "left Kan of the point matches comma components", time.monotonic() - t0, 30)


def test_criterion_08_stack_cohomology_oracle(pt, z2):
    import sympy
    from test_cohom import bar_cohomology_oracle

    t0 = time.monotonic()
    g = constant_presheaf_of_categories(pt, z2)
    fs = grothendieck_construct(g)
    from fibsite.site import trivial_topology
    from fibsite.cohom import stack_cohomology

    ours = stack_cohomology(
        trivial_topology(pt), g, constant_abelian_presheaf(fs.total, ZZ), 4
    )
    assert [x.factors for x in ours] == [(0,), (), (2,), (), (2,)]
    oracle = bar_cohomology_oracle(2, 4)
    assert [x.factors for x in ours] == list(oracle)
    record(8, "stack cohomology of the Z/2 point matches the bar oracle", time.monotonic() - t0, 10)


def test_criterion_09_homotopy_invariance():
    t0 = time.monotonic()
    rng = random.Random(31)
    checked = 0
    while checked < 25:
        m, gh = random_sectionwise_equivalence(rng)
        total = grothendieck_construct(gh).total
        dom_total = grothendieck_construct(m.domain).total
        # torsion coefficients enumerate two extra string degrees, so keep
        # them for the small instances; integer coefficients everywhere else
        wants_torsion = rng.random() < 0.5
        coeff = zmod(2) if wants_torsion and len(dom_total.morphisms) <= 16 else ZZ
        f = constant_abelian_presheaf(total, coeff)
        rep = invariance_report(m, f, 3)
        assert rep.passed, f"instance {checked}: {rep}"
        checked += 1
    record(9, "cohomology is invariant across sectionwise equivalences", time.monotonic() - t0, 300)


def test_criterion_10_snf_kernel():
    t0 = time.monotonic()
    rng = random.Random(4096)
    for i in range(1000):
        m = random_matrix(rng, max_dim=8, bound=10)
        sf = smith_normal_form(m)
        assert matmul(matmul(sf.u, matrix(m)), sf.v) == sf.d
        assert determinant(sf.u) in (1, -1)
        assert determinant(sf.v) in (1, -1)
        diag = sf.diagonal
        for k in range(len(diag) - 1):
            if diag[k + 1] != 0:
                assert diag[k] != 0 and diag[k + 1] % diag[k] == 0
            if diag[k] == 0:
                assert diag[k + 1] == 0
    record(10, "Smith form kernel exact on 1000 random matrices", time.monotonic() - t0, 10)


def test_criterion_11_sheaf_machinery():
    t0 = time.monotonic()
    rng = random.Random(55)
    topologies = 0
    while topologies < 12:
        site = random_poset_site(rng, 3)
        topo = random_topology(rng, site)
        assert verify_topology(topo) == []
        for k in range(3):
            f = random_presheaf(rng, site)
            plus = sheafify(f, topo)
            assert is_sheaf(plus, topo).ok
        topologies += 1
    # Cech H0 equals the matching-family group, via the sheaf-condition
    # machinery on the underlying set presheaf of Z/2 coefficients
    chain = poset_chain(["V", "U"])
    from fibsite.site import saturate_topology, sieve_from_generators

    s = sieve_from_generators(chain, "U", {"a_V_U"})
    topo = saturate_topology(chain, {"U": {s}})
    coeff = constant_abelian_presheaf(chain, zmod(2))
    for sieve in sorted(topo.covering("U"), key=lambda x: sorted(x.members)):
        h0 = cech_cohomology(topo, "U", sieve, coeff, 1)[0]
        order = 1
        for d in h0.factors:
            order *= d
        sets = make_presheaf(
            chain,
            value={u: ("0", "1") for u in chain.objects},
            action={m: {"0": "0", "1": "1"} for m in chain.morphisms},
        )
        fams = matching_families(sets, sieve)
        assert order == len(fams)
    record(11, "sheafification and Cech H0 agree with the sheaf machinery", time.monotonic() - t0, 60)


def test_criterion_12_cli_surface(tmp_path):
    t0 = time.monotonic()

    def go(argv):
        buf = io.StringIO()
        code = cli_run(argv, stdout=buf)
        return code, buf.getvalue()

    # every shipped bundle parses, round-trips, and reports deterministically
    for name in SHIPPED:
        b = parse_bundle([str(BUNDLES / name)])
        text = emit_bundle(b)
        p = tmp_path / f"rt_{name}"
        p.write_text(text)
        assert parse_bundle([str(p)]) == b
        code1, out1 = go(["validate", str(BUNDLES / name)])
        code2, out2 = go(["validate", str(BUNDLES / name)])
        assert code1 == code2 == 0
        assert out1 == out2
    # the flagship computation
    code, out = go([
        "cohomology", str(BUNDLES / "pt_z2.bundle"), "--psheaf", "G", "--coeffs", "F",
    ])
    assert code == 0
    assert json.loads(out)["payload"]["cohomology"] == [[0], [], [2], [], [2]]
    # every documented exit code has a fixture
    code, _ = go(["sheaf-check", str(BUNDLES / "chain_cover.bundle"), "--presheaf", "P"])
    assert code == 1
    code, _ = go(["validate", str(BUNDLES / "bad_syntax.bundle")])
    assert code == 2
    code, _ = go(["validate", str(BUNDLES / "bad_inverse.bundle")])
    assert code == 3
    code, _ = go([
        "cohomology", str(BUNDLES / "chain_cover.bundle"), "--psheaf", "GT", "--coeffs", "FT",
    ])
    assert code == 4
    code, _ = go([
        "cohomology", str(BUNDLES / "pt_z2.bundle"), "--psheaf", "G", "--coeffs", "F",
        "--max-strings", "0",
    ])
    assert code == 5
    record(12, "bundles, reports, and exit codes behave", time.monotonic() - t0, 30)
