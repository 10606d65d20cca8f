"""The table-driven simplicial validators against a per-simplex reference,
the once-only validation of the caller's argument of ``check_triangles``, and
the reports of presheaves of categories whose fibres are shared."""

import dataclasses
import random
from collections import Counter

import pytest

from fibsite import fibred, hocopb
from fibsite.fibred import (
    PresheafOfCategories,
    PresheafOfGroupoids,
    validate_presheaf_of_categories,
)
from fibsite.fincat import (
    FiniteCategory,
    codiscrete_groupoid,
    cyclic_groupoid,
    identity_functor,
    poset_chain,
    validate_category,
    validate_groupoid,
)
from fibsite.sampling import orbit_diagram, random_diagram, random_groupoid, random_over_nerve
from fibsite.sset import (
    SimplicialMap,
    TruncatedSimplicialSet,
    nerve,
    standard_simplex,
    validate_simplicial,
    validate_simplicial_map,
)

# ---------------------------------------------------------------------------
# reference validators: one lookup per face, degeneracy and component


def face(s: TruncatedSimplicialSet, n: int, i: int, x):
    return s.faces[(n, i)][x]


def degeneracy(s: TruncatedSimplicialSet, n: int, i: int, x):
    return s.degeneracies[(n, i)][x]


def slow_validate_simplicial(s: TruncatedSimplicialSet) -> list[str]:
    report: list[str] = []
    if s.dim < 0 or len(s.simplices) != s.dim + 1:
        return ["simplex tuple does not match truncation degree"]
    for n in range(1, s.dim + 1):
        for i in range(n + 1):
            fm = s.faces.get((n, i))
            if fm is None or set(fm) != set(s.simplices[n]):
                report.append(f"face ({n},{i}) missing or wrongly indexed")
            elif not set(fm.values()) <= set(s.simplices[n - 1]):
                report.append(f"face ({n},{i}) escapes degree {n-1}")
    for n in range(0, s.dim):
        for i in range(n + 1):
            dm = s.degeneracies.get((n, i))
            if dm is None or set(dm) != set(s.simplices[n]):
                report.append(f"degeneracy ({n},{i}) missing or wrongly indexed")
            elif not set(dm.values()) <= set(s.simplices[n + 1]):
                report.append(f"degeneracy ({n},{i}) escapes degree {n+1}")
    if report:
        return report
    for n in range(2, s.dim + 1):
        for x in s.simplices[n]:
            for j in range(1, n + 1):
                for i in range(j):
                    if face(s, n - 1, i, face(s, n, j, x)) != face(s, n - 1, j - 1, face(s, n, i, x)):
                        report.append(f"d{i} d{j} fails in degree {n}")
    for n in range(0, s.dim - 1):
        for x in s.simplices[n]:
            for j in range(n + 1):
                for i in range(j + 1):
                    lhs = degeneracy(s, n + 1, i, degeneracy(s, n, j, x))
                    if lhs != degeneracy(s, n + 1, j + 1, degeneracy(s, n, i, x)):
                        report.append(f"s{i} s{j} fails in degree {n}")
    for n in range(1, s.dim):
        for x in s.simplices[n]:
            for j in range(n + 1):
                for i in range(n + 2):
                    lhs = face(s, n + 1, i, degeneracy(s, n, j, x))
                    if i < j:
                        rhs = degeneracy(s, n - 1, j - 1, face(s, n, i, x))
                    elif i in (j, j + 1):
                        rhs = x
                    else:
                        rhs = degeneracy(s, n - 1, j, face(s, n, i - 1, x))
                    if lhs != rhs:
                        report.append(f"d{i} s{j} fails in degree {n}")
    return report


def slow_validate_simplicial_map(f: SimplicialMap) -> list[str]:
    report: list[str] = []
    if f.domain.dim != f.codomain.dim:
        return ["domain and codomain truncations differ"]
    d = f.domain.dim
    if len(f.components) != d + 1:
        return ["component tuple does not match truncation"]
    for n in range(d + 1):
        comp = f.components[n]
        if set(comp) != set(f.domain.simplices[n]):
            report.append(f"component {n} wrongly indexed")
        elif not set(comp.values()) <= set(f.codomain.simplices[n]):
            report.append(f"component {n} escapes the codomain")
    if report:
        return report
    for n in range(1, d + 1):
        for x in f.domain.simplices[n]:
            for i in range(n + 1):
                if f.apply(n - 1, face(f.domain, n, i, x)) != face(f.codomain, n, i, f.apply(n, x)):
                    report.append(f"face {i} not preserved in degree {n}")
    for n in range(d):
        for x in f.domain.simplices[n]:
            for i in range(n + 1):
                lhs = f.apply(n + 1, degeneracy(f.domain, n, i, x))
                if lhs != degeneracy(f.codomain, n, i, f.apply(n, x)):
                    report.append(f"degeneracy {i} not preserved in degree {n}")
    return report


# ---------------------------------------------------------------------------
# objects and one-entry corruptions of them


def _objects():
    """(name, simplicial sets, simplicial maps) built by the library."""
    rng = random.Random(7)
    z2, z3, e2 = cyclic_groupoid(2), cyclic_groupoid(3), codiscrete_groupoid(["o1", "o2"])
    out = [
        ("nerve z3", [nerve(z3, 4), nerve(poset_chain(["W", "V", "U"]), 3)], []),
        ("simplex", [standard_simplex(2, 3)], []),
    ]
    diagrams = [
        orbit_diagram(z2, "*", standard_simplex(1, 3)),
        random_diagram(rng, e2, 3),
        random_diagram(rng, random_groupoid(rng), 3),
    ]
    for k, a in enumerate(diagrams):
        h = hocopb.hocolim(a, 3)
        out.append((f"hocolim {k}", [h.total], [h.structure]))
    overs = [random_over_nerve(rng, z2, 3), random_over_nerve(rng, random_groupoid(rng), 3)]
    for k, x in enumerate(overs):
        p = hocopb.pb(x)
        out.append((f"pb {k}", list(p.value.values()), list(p.action.values())))
    return out


OBJECTS = _objects()
IDS = [name for name, _s, _m in OBJECTS]


def _with_entry(tables: dict, key, x, y) -> dict:
    """A copy of a faces/degeneracies table with entry x of map key set to y."""
    out = dict(tables)
    out[key] = dict(tables[key])
    if y is None:
        del out[key][x]
    else:
        out[key][x] = y
    return out


def _corrupted_ssets(s: TruncatedSimplicialSet, rng: random.Random):
    """Copies of s with one face or degeneracy entry moved, escaped or removed."""
    for _ in range(6):
        for tables, lo, hi, shift in (
            ("faces", 1, s.dim, -1),
            ("degeneracies", 0, s.dim - 1, 1),
        ):
            n = rng.randint(lo, hi)
            if not s.simplices[n]:
                continue
            key = (n, rng.randint(0, n))
            x = rng.choice(sorted(s.simplices[n], key=repr))
            y = rng.choice([*sorted(s.simplices[n + shift], key=repr)[:3], ("stray",), None])
            changed = _with_entry(getattr(s, tables), key, x, y)
            yield TruncatedSimplicialSet(
                dim=s.dim,
                simplices=s.simplices,
                faces=changed if tables == "faces" else s.faces,
                degeneracies=changed if tables == "degeneracies" else s.degeneracies,
            )


def _corrupted_maps(f: SimplicialMap, rng: random.Random):
    """Copies of f with one component entry moved, escaped or removed."""
    for _ in range(8):
        n = rng.randint(0, f.domain.dim)
        if not f.domain.simplices[n]:
            continue
        x = rng.choice(sorted(f.domain.simplices[n], key=repr))
        y = rng.choice([*sorted(f.codomain.simplices[n], key=repr)[:3], ("stray",), None])
        comps = list(f.components)
        comps[n] = dict(comps[n])
        if y is None:
            del comps[n][x]
        else:
            comps[n][x] = y
        yield SimplicialMap(domain=f.domain, codomain=f.codomain, components=tuple(comps))


@pytest.mark.parametrize("name,ssets,maps", OBJECTS, ids=IDS)
def test_validators_pass_the_library_objects(name, ssets, maps):
    for s in ssets:
        assert validate_simplicial(s) == slow_validate_simplicial(s) == []
    for f in maps:
        assert validate_simplicial_map(f) == slow_validate_simplicial_map(f) == []


@pytest.mark.parametrize("name,ssets,maps", OBJECTS, ids=IDS)
def test_validators_match_the_reference_on_corruptions(name, ssets, maps):
    rng = random.Random(name)
    caught = 0
    for s in ssets:
        for bad in _corrupted_ssets(s, rng):
            report = validate_simplicial(bad)
            assert report == slow_validate_simplicial(bad)
            caught += bool(report)
    for f in maps:
        for bad in _corrupted_maps(f, rng):
            report = validate_simplicial_map(bad)
            assert report == slow_validate_simplicial_map(bad)
            caught += bool(report)
    assert caught > 0


def test_repeated_failures_are_all_reported():
    s = nerve(cyclic_groupoid(2), 3)
    x = next(t for t in s.simplices[2] if len(set(t)) == 2)
    other = next(t for t in s.simplices[1] if t != s.faces[(2, 0)][x])
    bad = TruncatedSimplicialSet(
        dim=s.dim,
        simplices=s.simplices,
        faces=_with_entry(s.faces, (2, 0), x, other),
        degeneracies=s.degeneracies,
    )
    report = validate_simplicial(bad)
    assert report == slow_validate_simplicial(bad)
    assert len(report) > len(set(report))


# ---------------------------------------------------------------------------
# check_triangles validates only its caller's argument, exactly once; the
# intermediates it builds are covered by tests/test_builders.py


@pytest.fixture
def recorded(monkeypatch):
    """Arguments of every diagram/over-nerve validation."""
    seen = {"diagram": [], "over": []}

    def record(kind, fn):
        def wrapper(obj):
            seen[kind].append(obj)
            return fn(obj)
        return wrapper

    monkeypatch.setattr(hocopb, "validate_diagram", record("diagram", hocopb.validate_diagram))
    monkeypatch.setattr(hocopb, "validate_over_nerve", record("over", hocopb.validate_over_nerve))
    return seen


def _ids(objs) -> Counter:
    return Counter(id(o) for o in objs)


def test_diagram_side_validates_each_object_once(recorded):
    a = random_diagram(random.Random(3), codiscrete_groupoid(["o1", "o2"]), 3)
    assert hocopb.check_triangles(a=a).passed
    assert hocopb.check_triangles(a=a).passed
    hocopb.counit_epsilon(a)
    assert _ids(recorded["diagram"]) == _ids([a])
    assert recorded["over"] == []


def test_over_side_validates_each_object_once(recorded):
    x = random_over_nerve(random.Random(4), cyclic_groupoid(2), 3)
    assert hocopb.check_triangles(x=x).passed
    assert hocopb.check_triangles(x=x).passed
    hocopb.unit_eta(x)
    hocopb.transpose_counit(x)
    assert _ids(recorded["over"]) == _ids([x])
    assert recorded["diagram"] == []


# ---------------------------------------------------------------------------
# presheaves of categories whose site objects share one fibre object: each
# distinct fibre is checked once, and the reports list every site object's
# failures word for word and in order


def _shared(cls, value, restriction=None):
    site = poset_chain(["W", "V", "U"])
    if restriction is None:
        restriction = {m: identity_functor(value["U"]) for m in site.morphisms}
    return cls(site=site, value=value, restriction=restriction)


# Z/3 with r1.r1 corrupted to r1: endpoints stay right, associativity breaks
_Z3 = cyclic_groupoid(3)
_BAD_LAW = dataclasses.replace(_Z3, composition={**_Z3.composition, ("r1", "r1"): "r1"})
_BAD_INVERSE = dataclasses.replace(_Z3, inverse={**_Z3.inverse, "r1": "r1"})
_ASSOCIATIVITY = [
    "associativity fails on (r2, r1, r1)",
    "associativity fails on (r2, r2, r1)",
    "associativity fails on (r1, r1, r2)",
    "associativity fails on (r1, r2, r2)",
]


def _per_fibre(lines):
    return [f"fibre at {u}: {b}" for u in ("U", "V", "W") for b in lines]


def test_shared_fibre_category_law_reported_at_every_object():
    cat = FiniteCategory(
        objects=_BAD_LAW.objects,
        morphisms=_BAD_LAW.morphisms,
        identity=_BAD_LAW.identity,
        composition=_BAD_LAW.composition,
    )
    a = _shared(PresheafOfCategories, {"W": cat, "V": cat, "U": dataclasses.replace(cat)})
    assert validate_presheaf_of_categories(a) == _per_fibre(_ASSOCIATIVITY)
    g = _shared(
        PresheafOfGroupoids,
        {"W": _BAD_LAW, "V": dataclasses.replace(_BAD_LAW), "U": _BAD_LAW},
    )
    assert validate_presheaf_of_categories(g) == _per_fibre(_ASSOCIATIVITY)


def test_shared_fibre_inverse_reported_at_every_object():
    a = _shared(
        PresheafOfGroupoids,
        {"W": _BAD_INVERSE, "V": _BAD_INVERSE, "U": dataclasses.replace(_BAD_INVERSE)},
    )
    assert validate_presheaf_of_categories(a) == _per_fibre(["inverse law fails for r1"])


def test_shared_fibre_restriction_reports():
    value = {"W": _Z3, "V": _Z3, "U": _Z3}
    r = {m: identity_functor(_Z3) for m in poset_chain(["W", "V", "U"]).morphisms}
    trivial = {**r["id_U"].morphism_map, "r1": "id_*", "r2": "id_*"}
    at_identity = {**r, "id_U": dataclasses.replace(r["id_U"], morphism_map=trivial)}
    assert validate_presheaf_of_categories(
        _shared(PresheafOfGroupoids, value, at_identity)
    ) == [
        "restriction along the identity of U is not the identity",
        "restriction functoriality fails on (id_U, a_W_U)",
        "restriction functoriality fails on (id_U, a_V_U)",
    ]
    swapped = {**r["a_V_U"].morphism_map, "r1": "r2"}
    not_a_functor = {**r, "a_V_U": dataclasses.replace(r["a_V_U"], morphism_map=swapped)}
    assert validate_presheaf_of_categories(
        _shared(PresheafOfGroupoids, value, not_a_functor)
    ) == [
        "restriction along a_V_U: composition not preserved on (r1, r1)",
        "restriction along a_V_U: composition not preserved on (r1, r2)",
        "restriction along a_V_U: composition not preserved on (r2, r1)",
        "restriction along a_V_U: composition not preserved on (r2, r2)",
    ]


def test_validate_groupoid_reports_category_then_inverse_laws():
    both = dataclasses.replace(_BAD_LAW, inverse=_BAD_INVERSE.inverse)
    assert validate_groupoid(both) == _ASSOCIATIVITY + ["inverse law fails for r1"]
    assert validate_groupoid(_BAD_INVERSE) == ["inverse law fails for r1"]
    assert validate_groupoid(_Z3) == []


def test_each_distinct_fibre_checked_once(monkeypatch):
    checked = []

    def counting(c):
        checked.append(c)
        return validate_category(c)

    monkeypatch.setattr(fibred, "validate_category", counting)
    copy = dataclasses.replace(_Z3)
    a = _shared(PresheafOfGroupoids, {"W": _Z3, "V": copy, "U": _Z3})
    assert validate_presheaf_of_categories(a) == []
    assert _ids(checked) == _ids([a.site, _Z3, copy])
