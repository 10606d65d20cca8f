"""The benchmark's three workloads: seeded instance generation and one check each.

Every workload is a fixed list of slots.  Setup fills the slots from the
package's own seeded generators (`fibsite.sampling`), so all random draws
happen before timing starts; the timed loop only hands a generated input to
`run_check` and receives the check's own verdict plus a canonical,
JSON-ready result that the harness hashes.

The invariance and adjunction generators are heavy-tailed: one instance can
cost a thousand times another.  So that runs with different seeds measure
the same amount of work, each slot asks for a size signature (string or
simplex counts per degree, computed here from the instance's tables), and
setup keeps the first drawn instance that matches a free slot.  The seed
then decides which instances of each size are drawn, their labels and the
order of the checks.  A few sizes get several slots, so that the median and
the tail check (the eleventh from the top) fall among checks of one cost
instead of at a gap between two sizes, where the seed would decide them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

WORKLOADS = ("invariance", "adjunction", "sites")
# Setup always makes at least this many draws, so that its cost does not
# depend on how soon a seed happens to fill the schedule.
MIN_DRAWS = 1_000
MIN_DRAWS_PER_KIND = 600
MAX_DRAWS = 20_000
D = 4  # truncation degree of the adjunction checks (criteria 4 and 5)

# (coefficients, nondegenerate strings per degree of the domain total,
#  same for the codomain total) -> slots per pass.  The two largest sizes the
# generator makes (8500 x 1400 and 4806 x 1098 top cochain matrices, 4 s and
# 1.6 s a check) are left out: a pass must be short enough to run about ten
# times in a run, so that each check's median over the passes is steady.
INVARIANCE_SCHEDULE = {
    ("Z", (12, 68, 300, 1188, 4428), (6, 14, 22, 30, 38)): 1,
    ("Z", (12, 52, 204, 756, 2700), (6, 10, 14, 18, 22)): 1,
    ("Z", (4, 20, 100, 500, 2500), (2, 4, 8, 16, 32)): 1,
    ("Z", (8, 40, 168, 648, 2376), (4, 8, 12, 16, 20)): 1,
    ("Z", (6, 34, 150, 594, 2214), (3, 7, 11, 15, 19)): 1,
    # the tail check: seven slots cost more than these six, so the eleventh
    # slot from the top is in the middle of six checks of similar cost
    ("Z", (2, 10, 50, 250, 1250), (1, 2, 4, 8, 16)): 3,
    ("Z", (4, 20, 84, 324, 1188), (2, 4, 6, 8, 10)): 3,
    ("Z/2", (4, 12, 36, 108, 324, 972), (2, 2, 2, 2, 2, 2)): 2,
    ("Z", (8, 24, 72, 216, 648), (4, 4, 4, 4, 4)): 2,
    ("Z/2", (2, 6, 18, 54, 162, 486), (1, 1, 1, 1, 1, 1)): 2,
    ("Z", (4, 12, 36, 108, 324), (2, 2, 2, 2, 2)): 2,
    ("Z", (2, 6, 18, 54, 162), (1, 1, 1, 1, 1)): 5,  # the median check
    ("Z", (6, 18, 38, 66, 102), (3, 3, 1, 0, 0)): 2,
    ("Z", (6, 14, 22, 30, 38), (3, 2, 0, 0, 0)): 2,
    ("Z/2", (4, 8, 12, 16, 20, 24), (2, 1, 0, 0, 0, 0)): 2,
    ("Z", (4, 8, 12, 16, 20), (2, 1, 0, 0, 0)): 2,
    ("Z/2", (2, 2, 2, 2, 2, 2), (2, 2, 2, 2, 2, 2)): 1,
    ("Z", (2, 2, 2, 2, 2), (2, 2, 2, 2, 2)): 1,
    ("Z/2", (2, 2, 2, 2, 2, 2), (1, 0, 0, 0, 0, 0)): 4,
    ("Z", (2, 2, 2, 2, 2), (1, 0, 0, 0, 0)): 4,
}

# (kind, automorphism group order per object, morphisms, simplices per degree
# of each value or of the total) -> slots per pass; enriched kinds lead with
# the base site's objects and morphisms and describe the fibre groupoid.
E2, Z2, PT = (1, 1), (2,), (1,)
# criterion 4's Z/3 over-nerve, held to one standard 2-simplex: the nerve
# over itself, which the same generator sometimes returns, costs 20 times more
Z3_OVER = ("over", (3,), 3, (3, 6, 10, 15, 21))
# Sizes whose check takes 0.45 s or more on E2 are left out, for the same
# reason as the largest invariance sizes.  So are three sizes that some seeds
# need more than MIN_DRAWS_PER_KIND draws to find (the Z/2 + Z/2 diagram with
# one empty value, the Z/2 + Z/2 over-nerve with (2, 4, 8, 16, 32) simplices
# and the enriched point-fibre diagram with (5, 9, 14, 20, 27)), so that
# setup does the same work on nearly every seed.
ADJUNCTION_SCHEDULE = {
    ("diagram", E2, 4, ((3, 4, 5, 6, 7), (3, 4, 5, 6, 7))): 1,
    ("diagram", E2, 4, ((2, 3, 4, 5, 6), (2, 3, 4, 5, 6))): 1,
    ("diagram", E2, 4, ((2, 2, 2, 2, 2), (2, 2, 2, 2, 2))): 1,
    ("diagram", E2, 4, ((1, 1, 1, 1, 1), (1, 1, 1, 1, 1))): 5,  # the median check
    ("diagram", Z2, 2, ((4, 6, 8, 10, 12),)): 1,
    ("diagram", Z2, 2, ((2, 2, 2, 2, 2),)): 1,
    ("diagram", PT, 1, ((2, 3, 4, 5, 6),)): 1,
    ("over", E2, 4, (6, 12, 20, 30, 42)): 1,
    ("over", E2, 4, (5, 9, 14, 20, 27)): 1,
    ("over", E2, 4, (4, 7, 11, 16, 22)): 5,
    ("over", E2, 4, (4, 6, 8, 10, 12)): 1,
    ("over", E2, 4, (3, 6, 10, 15, 21)): 1,
    ("over", E2, 4, (3, 4, 5, 6, 7)): 1,
    ("over", E2, 4, (2, 4, 8, 16, 32)): 1,
    ("over", E2, 4, (2, 3, 4, 5, 6)): 1,
    ("over", E2, 4, (1, 1, 1, 1, 1)): 1,
    ("over", (1, 2), 3, (2, 3, 5, 9, 17)): 1,
    ("over", (1, 1), 2, (2, 2, 2, 2, 2)): 1,
    ("over", (1, 1), 2, (1, 1, 1, 1, 1)): 1,
    ("over", Z2, 2, (1, 2, 4, 8, 16)): 1,
    ("over", Z2, 2, (2, 3, 4, 5, 6)): 1,
    ("over", Z2, 2, (1, 1, 1, 1, 1)): 1,
    ("over", PT, 1, (3, 6, 10, 15, 21)): 1,
    ("over", PT, 1, (2, 3, 4, 5, 6)): 1,
    ("over", PT, 1, (1, 1, 1, 1, 1)): 1,
    ("enriched", 1, 1, E2, 4, ((1, 1, 1, 1, 1), (1, 1, 1, 1, 1))): 1,
    ("enriched", 2, 3, PT, 1, ((3, 6, 10, 15, 21),)): 1,
    ("enriched", 1, 1, PT, 1, ((4, 7, 11, 16, 22),)): 1,
    ("enriched", 1, 1, PT, 1, ((3, 6, 10, 15, 21),)): 1,
}

# More CLI calls than random checks, so that the median and the tail check
# are CLI calls, which are the same on every seed; the random checks' costs
# spread too widely for their median to repeat across seeds.
SITES_RANDOM_PER_KIND = 40
SITES_CLI_REPEATS = 20

# In-process CLI calls on the shipped bundles, with the exit code each one
# must return.  adjunction-check is left out: it is hocolim/pb work, which
# the adjunction workload measures.
CLI_CATALOG = (
    (("validate", "pt_z2"), 0),
    (("validate", "chain_cover"), 0),
    (("validate", "e2_collapse"), 0),
    (("validate", "product_cj"), 0),
    (("fibred-build", "product_cj", "--psheaf", "A"), 0),
    (("fibred-build", "chain_cover", "--psheaf", "GT"), 0),
    (("fibred-build", "e2_collapse", "--psheaf", "G"), 0),
    (("topology-check", "chain_cover", "--category", "C"), 0),
    (("topology-check", "product_cj", "--psheaf", "A", "--category", "C"), 0),
    (("sheaf-check", "chain_cover", "--presheaf", "Q", "--sheafify"), 0),
    (("sheaf-check", "chain_cover", "--presheaf", "P"), 1),
    (("cohomology", "pt_z2", "--psheaf", "G", "--coeffs", "F"), 0),
    (("invariance-check", "e2_collapse", "--mor", "m"), 0),
    (("validate", "bad_syntax"), 2),
    (("validate", "bad_inverse"), 3),
    (("cohomology", "chain_cover", "--psheaf", "GT", "--coeffs", "FT"), 4),
    (("cohomology", "pt_z2", "--psheaf", "G", "--coeffs", "F", "--max-strings", "0"), 5),
)


class ScheduleNotFilled(RuntimeError):
    """The generator did not produce every requested size within MAX_DRAWS."""


# ---------------------------------------------------------------------------
# size signatures, computed from an instance's tables only


def _strings(objects, arrows, top: int) -> tuple[int, ...]:
    """Composable strings of `arrows` ((source, target) pairs) in degrees 0..top."""
    ending = dict.fromkeys(objects, 1)
    counts = [len(ending)]
    for _ in range(top):
        nxt = dict.fromkeys(objects, 0)
        for s, t in arrows:
            nxt[t] += ending[s]
        ending = nxt
        counts.append(sum(ending.values()))
    return tuple(counts)


def _constant_fibre(p):
    fibres = {id(v): v for v in p.value.values()}
    if len(fibres) != 1:
        raise ValueError("expected a constant presheaf of categories")
    return next(iter(fibres.values()))


def total_strings(p, top: int) -> tuple[int, ...]:
    """Nondegenerate strings of the total category of a constant presheaf of
    categories, which is the product of its site and its fibre."""
    c, fibre = p.site, _constant_fibre(p)
    ids_c, ids_f = set(c.identity.values()), set(fibre.identity.values())
    objects = [(u, x) for u in c.objects for x in fibre.objects]
    arrows = [
        ((sa, sf), (ta, tf))
        for a, (sa, ta) in c.morphisms.items()
        for f, (sf, tf) in fibre.morphisms.items()
        if not (a in ids_c and f in ids_f)
    ]
    return _strings(objects, arrows, top)


def _simplex_counts(s) -> tuple[int, ...]:
    return tuple(len(s.simplices[n]) for n in range(s.dim + 1))


class _Schedule:
    def __init__(self, wanted: dict):
        self.left = dict(wanted)

    def take(self, key) -> bool:
        if self.left.get(key, 0) > 0:
            self.left[key] -= 1
            return True
        return False

    @property
    def full(self) -> bool:
        return not any(self.left.values())

    def check_full(self, workload: str) -> None:
        if not self.full:
            missing = {k: v for k, v in self.left.items() if v}
            raise ScheduleNotFilled(f"{workload}: no draw matched {missing}")


# ---------------------------------------------------------------------------
# generation (setup)


def generate(lib, workload: str, seed: int, bundles: Path) -> list[tuple[str, object]]:
    """The workload's slots as (kind, input) pairs, drawn from `seed`."""
    rng = random.Random(seed)
    if workload == "invariance":
        return _generate_invariance(lib, rng)
    if workload == "adjunction":
        return _generate_adjunction(lib, rng)
    if workload == "sites":
        return _generate_sites(lib, rng, bundles)
    raise ValueError(f"unknown workload {workload!r}")


def _generate_invariance(lib, rng):
    schedule = _Schedule(INVARIANCE_SCHEDULE)
    out = []
    for i in range(MAX_DRAWS):
        if i >= MIN_DRAWS and schedule.full:
            break
        # the criterion-9 draw: an equivalence, then the torsion roll
        m, gh = lib.sampling.random_sectionwise_equivalence(rng)
        wants_torsion = rng.random() < 0.5
        dom_morphisms = len(m.domain.site.morphisms) * len(_constant_fibre(m.domain).morphisms)
        torsion = wants_torsion and dom_morphisms <= 16
        top = 5 if torsion else 4
        key = ("Z/2" if torsion else "Z", total_strings(m.domain, top), total_strings(gh, top))
        if schedule.take(key):
            total = lib.fibred.grothendieck_construct(gh).total
            coeff = lib.cohom.zmod(2) if torsion else lib.cohom.ZZ
            out.append(("invariance", (m, lib.cohom.constant_abelian_presheaf(total, coeff))))
    schedule.check_full("invariance")
    return out


def _generate_adjunction(lib, rng):
    sampling = lib.sampling
    z3 = lib.fincat.cyclic_groupoid(3)
    point = lib.sset.standard_simplex(0, D)
    # the deliberate Z/3 instances of criteria 4 and 5, at point-level values
    # (the orbit diagram, 1.1 s a check, is left out to keep a pass short)
    out = [("diagram", sampling.constant_diagram(z3, point))]
    schedule = _Schedule({Z3_OVER: 1})
    for _ in range(MAX_DRAWS):
        x = sampling.random_over_nerve(rng, z3, D, max_pieces=1)
        if schedule.take(_adjunction_key("over", x)):
            out.append(("over", x))
            break
    schedule.check_full("adjunction")
    schedule = _Schedule(ADJUNCTION_SCHEDULE)
    draws = {
        "diagram": lambda: sampling.random_diagram(
            rng, sampling.random_groupoid(rng, max_objects=2, max_group=2), D
        ),
        "over": lambda: sampling.random_over_nerve(
            rng, sampling.random_groupoid(rng, max_objects=2, max_group=2), D
        ),
        "enriched": lambda: sampling.random_enriched_diagram(
            rng, sampling.random_poset_site(rng, 2), D, max_group=2
        ),
    }
    for kind, draw in draws.items():
        for i in range(MAX_DRAWS):
            if i >= MIN_DRAWS_PER_KIND and not any(v for k, v in schedule.left.items() if k[0] == kind):
                break
            x = draw()
            if schedule.take(_adjunction_key(kind, x)):
                out.append((kind, x))
    schedule.check_full("adjunction")
    return out


def _automorphisms(g) -> tuple[int, ...]:
    """Sorted automorphism group orders, one per object (tells Z/2 + Z/2 from E2)."""
    loops = dict.fromkeys(g.objects, 0)
    for s, t in g.morphisms.values():
        if s == t:
            loops[s] += 1
    return tuple(sorted(loops.values()))


def _adjunction_key(kind: str, x):
    if kind == "diagram":
        g = x.base
        sizes = tuple(sorted(_simplex_counts(x.value[y]) for y in g.objects))
        return (kind, _automorphisms(g), len(g.morphisms), sizes)
    if kind == "over":
        g = x.base
        return (kind, _automorphisms(g), len(g.morphisms), _simplex_counts(x.total))
    site = x.base.site
    u = sorted(site.objects)[0]
    fibre = x.base.value[u]
    sizes = tuple(sorted(_simplex_counts(x.value[(u, y)]) for y in fibre.objects))
    return (kind, len(site.objects), len(site.morphisms), _automorphisms(fibre), len(fibre.morphisms), sizes)


def _generate_sites(lib, rng, bundles: Path):
    sampling, site_mod = lib.sampling, lib.site
    out = []
    for _ in range(SITES_RANDOM_PER_KIND):
        site = sampling.random_poset_site(rng, 3)
        out.append(("topology", sampling.random_topology(rng, site)))

        site = sampling.random_poset_site(rng)
        topo = sampling.random_topology(rng, site)
        out.append(("induced", (sampling.random_presheaf_of_categories(rng, site), topo)))

        # criterion 2: a presheaf on the total category, round-tripped
        site = sampling.random_poset_site(rng)
        a = sampling.random_presheaf_of_categories(rng, site)
        total = lib.fibred.grothendieck_construct(a).total
        parts = [site_mod.representable_presheaf(total, rng.choice(sorted(total.objects)))]
        tags = ["y0"]
        if rng.random() < 0.5:
            parts.append(site_mod.constant_presheaf(total, ("c0", "c1")))
            tags.append("k0")
        out.append(("roundtrip", (a, site_mod.coproduct_presheaf(parts, tags))))

        site = sampling.random_poset_site(rng, 3)
        topo = sampling.random_topology(rng, site)
        out.append(("sheaf", (sampling.random_presheaf(rng, site), topo)))

        m, _gh = sampling.random_sectionwise_equivalence(rng)
        out.append(("kan", m))
    calls = []
    for argv, expected in CLI_CATALOG:
        full = [argv[0], str(bundles / f"{argv[1]}.bundle"), *argv[2:]]
        calls.extend([("cli", (full, expected))] * SITES_CLI_REPEATS)
    out.extend(calls)
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# checks (timed): each returns (own verdict, canonical result)


def run_check(lib, kind: str, x) -> tuple[bool, object]:
    return _CHECKS[kind](lib, x)


def _factors(groups) -> list[list[int]]:
    return [list(g.factors) for g in groups]


def _evidence(ev) -> list:
    return [ev.passed, [list(h) for h in ev.domain_homology], [list(h) for h in ev.codomain_homology]]


def _check_invariance(lib, x):
    m, f = x
    rep = lib.cohom.invariance_report(m, f, 3)
    return rep.passed, {"passed": rep.passed, "source": _factors(rep.source), "target": _factors(rep.target)}


def _check_diagram(lib, a):
    hocopb, sset = lib.hocopb, lib.sset
    tri = hocopb.check_triangles(a=a).hocolim_side
    evidence = [
        [y, *_evidence(sset.we_evidence(m, 3))]
        for y, m in sorted(hocopb.counit_epsilon(a).items())
    ]
    ok = tri and all(e[1] for e in evidence)
    return ok, {"triangles": tri, "counit": evidence}


def _check_over(lib, x):
    hocopb, sset = lib.hocopb, lib.sset
    tri = hocopb.check_triangles(x=x).pb_side
    evidence = _evidence(sset.we_evidence(hocopb.unit_eta(x), 3))
    return tri and evidence[0], {"triangles": tri, "unit": evidence}


def _check_enriched(lib, x):
    hocopb, sset = lib.hocopb, lib.sset
    run = hocopb.presheaf_hocolim_pb(x, D)
    counit = [
        [u, ob, *_evidence(sset.we_evidence(m, 3))]
        for (u, ob), m in sorted(hocopb.enriched_counit(x, D).items())
    ]
    unit = [
        [u, *_evidence(sset.we_evidence(m, 3))]
        for u, m in sorted(hocopb.enriched_unit(run.hocolim_object).items())
    ]
    tri = run.triangles.passed
    ok = tri and run.counit_natural and all(e[2] for e in counit) and all(e[1] for e in unit)
    return ok, {"triangles": tri, "natural": run.counit_natural, "counit": counit, "unit": unit}


def _covers(topo, objects) -> dict:
    return {u: len(topo.covering(u)) for u in sorted(objects)}


def _check_topology(lib, topo):
    bad = lib.site.verify_topology(topo)
    return not bad, {"violations": bad, "covers": _covers(topo, topo.site.objects)}


def _check_induced(lib, x):
    a, topo = x
    fs = lib.fibred.grothendieck_construct(a)
    induced = lib.fibred.induced_topology(fs, topo)
    bad = lib.site.verify_topology(induced)
    return not bad, {"violations": bad, "covers": _covers(induced, fs.total.objects)}


def _check_roundtrip(lib, x):
    a, f = x
    fibred = lib.fibred
    fs = fibred.grothendieck_construct(a)
    enr = fibred.presheaf_to_enriched(fs, f)
    back = fibred.enriched_to_presheaf(fs, enr)
    ok = back == f and fibred.presheaf_to_enriched(fs, back) == enr
    sizes = {f"{u}|{ob}": len(v) for (u, ob), v in sorted(enr.value.items())}
    return ok, {"ok": ok, "sizes": sizes}


def _check_sheaf(lib, x):
    f, topo = x
    plus = lib.site.sheafify(f, topo)
    ok = lib.site.is_sheaf(plus, topo).ok
    return ok, {"ok": ok, "sizes": {u: len(plus.value[u]) for u in sorted(plus.base.objects)}}


def _check_kan(lib, m):
    """Criterion 7: the left Kan extension of the point counts comma components."""
    fincat, fibred = lib.fincat, lib.fibred
    kan = fibred.left_kan_along(m, fibred.constant_enriched_diagram(m.domain))
    b = m.codomain
    ok = True
    sizes = {}
    for u in sorted(b.site.objects):
        op = fincat.opposite_functor(m.components[u])
        for ob in sorted(b.value[u].objects):
            cd = fincat.comma_data(op, ob)
            reps = fincat.pi0(cd.category)
            classes = set(reps.values())
            point = fincat.SetValuedFunctor(
                base=cd.category,
                variance=fincat.COVARIANT,
                value={n: ("*",) for n in cd.category.objects},
                action={mm: {"*": "*"} for mm in cd.category.morphisms},
            )
            cocone = fincat.colim_set(point)
            pairing = {}
            for n in cd.category.objects:
                if pairing.setdefault(reps[n], cocone.leg[n]["*"]) != cocone.leg[n]["*"]:
                    ok = False
            ok = ok and len(kan.value[(u, ob)]) == len(classes) == len(set(pairing.values()))
            ok = ok and set(pairing.values()) == set(kan.value[(u, ob)])
            sizes[f"{u}|{ob}"] = len(classes)
    return ok, {"ok": ok, "components": sizes}


def _check_cli(lib, x):
    argv, expected = x
    out = io.StringIO()
    with contextlib.redirect_stderr(io.StringIO()):
        code = lib.cli.run(list(argv), stdout=out)
    result = {"code": code}
    if code in (0, 1):
        doc = json.loads(out.getvalue())
        result["verdicts"] = doc["verdicts"]
        result["payload"] = doc["payload"]
    return code == expected, result


_CHECKS = {
    "invariance": _check_invariance,
    "diagram": _check_diagram,
    "over": _check_over,
    "enriched": _check_enriched,
    "topology": _check_topology,
    "induced": _check_induced,
    "roundtrip": _check_roundtrip,
    "sheaf": _check_sheaf,
    "kan": _check_kan,
    "cli": _check_cli,
}
