"""Sieves, Grothendieck topologies, the sheaf condition, and sheafification.

Topologies are stored extensionally: an explicit set of covering sieves per
object.  The verifier enumerates all sieves on an object when checking local
character, which is feasible because sites here are small; caps guard against
pathological blowup.  The plus construction reads the least covering sieve of
each object, the intersection of its covers, which is the terminal object of
the covers ordered by reverse inclusion; the sheaf condition still checks
every cover.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CapExceeded, InputError
from .fincat import (
    CONTRAVARIANT,
    FiniteCategory,
    SetValuedFunctor,
    validate_set_functor,
)

#: a presheaf is a contravariant set-valued functor on the site
Presheaf = SetValuedFunctor


def make_presheaf(
    base: FiniteCategory, value: dict[str, tuple[str, ...]], action: dict[str, dict[str, str]]
) -> Presheaf:
    return SetValuedFunctor(base=base, variance=CONTRAVARIANT, value=value, action=action)


def representable_presheaf(c: FiniteCategory, z: str) -> Presheaf:
    """hom(-, z) with the precomposition action."""
    value = {u: tuple(c.hom(u, z)) for u in c.objects}
    action = {
        m: {e: c.compose(e, m) for e in value[c.target(m)]} for m in c.morphisms
    }
    return make_presheaf(c, value, action)


def constant_presheaf(c: FiniteCategory, elems: tuple[str, ...]) -> Presheaf:
    value = {u: tuple(elems) for u in c.objects}
    action = {m: {e: e for e in elems} for m in c.morphisms}
    return make_presheaf(c, value, action)


def coproduct_presheaf(parts: list[Presheaf], tags: list[str]) -> Presheaf:
    base = parts[0].base
    value = {
        u: tuple(f"{tag}.{e}" for part, tag in zip(parts, tags) for e in part.value[u])
        for u in base.objects
    }
    action = {
        m: {
            f"{tag}.{e}": f"{tag}.{part.act(m, e)}"
            for part, tag in zip(parts, tags)
            for e in part.action[m]
        }
        for m in base.morphisms
    }
    return make_presheaf(base, value, action)


@dataclass(frozen=True)
class Sieve:
    """A set of morphisms with common target, closed under precomposition."""

    base_object: str
    members: frozenset[str]


def validate_sieve(c: FiniteCategory, s: Sieve) -> list[str]:
    report = []
    for m in s.members:
        if m not in c.morphisms:
            report.append(f"unknown morphism {m}")
        elif c.target(m) != s.base_object:
            report.append(f"member {m} does not target {s.base_object}")
    if report:
        return report
    for m in s.members:
        for g in c.into(c.source(m)):
            if c.compose(m, g) not in s.members:
                report.append(f"not closed under precomposition: {m} by {g}")
    return report


def maximal_sieve(c: FiniteCategory, u: str) -> Sieve:
    return Sieve(base_object=u, members=frozenset(c.into(u)))


def sieve_from_generators(c: FiniteCategory, u: str, gens: frozenset[str] | set[str]) -> Sieve:
    """Smallest sieve on u containing the generators."""
    for g in gens:
        if c.target(g) != u:
            raise InputError(f"generator {g} does not target {u}")
    members = set(gens)
    for g in gens:
        for h in c.into(c.source(g)):
            members.add(c.compose(g, h))
    return Sieve(base_object=u, members=frozenset(members))


def pullback_sieve(c: FiniteCategory, s: Sieve, alpha: str) -> Sieve:
    """The sieve of morphisms whose composite with alpha lands in s."""
    if c.target(alpha) != s.base_object:
        raise InputError(f"{alpha} does not target {s.base_object}")
    v = c.source(alpha)
    members = frozenset(g for g in c.into(v) if c.compose(alpha, g) in s.members)
    return Sieve(base_object=v, members=members)


def all_sieves(c: FiniteCategory, u: str, cap: int = 100_000) -> tuple[Sieve, ...]:
    """Every sieve on u, enumerated as unions of principal sieves."""
    arrows = c.into(u)
    index = {m: i for i, m in enumerate(arrows)}
    principal: dict[str, int] = {}
    for m in arrows:
        mask = 1 << index[m]
        for h in c.into(c.source(m)):
            mask |= 1 << index[c.compose(m, h)]
        principal[m] = mask
    seen = {0}
    frontier = [0]
    while frontier:
        cur = frontier.pop()
        for m, pmask in principal.items():
            nxt = cur | pmask
            if nxt not in seen:
                if len(seen) >= cap:
                    raise CapExceeded(f"more than {cap} sieves on {u}")
                seen.add(nxt)
                frontier.append(nxt)
    out = []
    for mask in sorted(seen):
        members = frozenset(m for m in arrows if mask & (1 << index[m]))
        out.append(Sieve(base_object=u, members=members))
    return tuple(out)


@dataclass(frozen=True)
class GrothendieckTopology:
    site: FiniteCategory
    covers: dict[str, frozenset[Sieve]]

    def covering(self, u: str) -> frozenset[Sieve]:
        return self.covers.get(u, frozenset())


def trivial_topology(c: FiniteCategory) -> GrothendieckTopology:
    return GrothendieckTopology(
        site=c, covers={u: frozenset({maximal_sieve(c, u)}) for u in c.objects}
    )


def is_trivial_topology(t: GrothendieckTopology) -> bool:
    return all(
        t.covering(u) == frozenset({maximal_sieve(t.site, u)}) for u in t.site.objects
    )


def verify_topology(
    t: GrothendieckTopology, max_sieves: int = 100_000
) -> list[str]:
    """Report of violated topology axioms; empty iff t is a Grothendieck topology.

    Local character is checked against every sieve on every object, so this
    is exponential in the worst case; max_sieves caps the enumeration.
    """
    c = t.site
    report: list[str] = []
    for u in c.objects:
        for s in t.covering(u):
            bad = validate_sieve(c, s)
            if bad or s.base_object != u:
                report.append(f"covers({u}) contains an invalid sieve: {sorted(s.members)}")
    if report:
        return report
    for u in c.objects:
        if maximal_sieve(c, u) not in t.covering(u):
            report.append(f"maximal sieve missing from covers({u})")
    for alpha, (v, u) in c.morphisms.items():
        for s in t.covering(u):
            if pullback_sieve(c, s, alpha) not in t.covering(v):
                report.append(
                    f"base change fails: pullback of a cover of {u} along {alpha}"
                )
    # local character, via bitmask arithmetic over morphisms into each object
    for u in c.objects:
        if not t.covering(u):
            continue
        arrows = c.into(u)
        index = {m: i for i, m in enumerate(arrows)}

        def mask_of(s: Sieve) -> int:
            out = 0
            for m in s.members:
                out |= 1 << index[m]
            return out

        sieves = all_sieves(c, u, cap=max_sieves)
        cover_masks = {mask_of(s) for s in t.covering(u)}
        pull_cache: dict[tuple[str, int], bool] = {}

        def pulled_covering(alpha: str, rmask: int, r: Sieve) -> bool:
            key = (alpha, rmask)
            if key not in pull_cache:
                p = pullback_sieve(c, r, alpha)
                pull_cache[key] = p in t.covering(c.source(alpha))
            return pull_cache[key]

        for s in t.covering(u):
            smembers = sorted(s.members)
            for r in sieves:
                rmask = mask_of(r)
                if rmask in cover_masks:
                    continue
                if all(pulled_covering(alpha, rmask, r) for alpha in smembers):
                    report.append(
                        f"local character fails at {u}: sieve {sorted(r.members)} "
                        f"is locally covering for {sorted(s.members)} but not covering"
                    )
                    break
    return report


def saturate_topology(
    c: FiniteCategory,
    seeds: dict[str, set[Sieve]] | None = None,
    max_sieves: int = 100_000,
) -> GrothendieckTopology:
    """Smallest Grothendieck topology whose covers include the seed sieves."""
    sieves = {u: all_sieves(c, u, cap=max_sieves) for u in c.objects}
    covers: dict[str, set[Sieve]] = {u: {maximal_sieve(c, u)} for u in c.objects}
    for u, ss in (seeds or {}).items():
        for s in ss:
            if validate_sieve(c, s):
                raise InputError(f"seed sieve on {u} is not a sieve")
            covers[u].add(s)
    changed = True
    while changed:
        changed = False
        for alpha, (v, u) in c.morphisms.items():
            for s in list(covers[u]):
                p = pullback_sieve(c, s, alpha)
                if p not in covers[v]:
                    covers[v].add(p)
                    changed = True
        for u in c.objects:
            for r in sieves[u]:
                if r in covers[u]:
                    continue
                for s in covers[u]:
                    if all(
                        pullback_sieve(c, r, alpha) in covers[c.source(alpha)]
                        for alpha in s.members
                    ):
                        covers[u].add(r)
                        changed = True
                        break
    return GrothendieckTopology(
        site=c, covers={u: frozenset(v) for u, v in covers.items()}
    )


# ---------------------------------------------------------------------------
# matching families, sheaf condition, sheafification

#: a matching family is a sorted tuple of (member, element) pairs
Family = tuple[tuple[str, str], ...]


def matching_families(f: Presheaf, s: Sieve) -> tuple[Family, ...]:
    """All compatible assignments of sections along the sieve."""
    c = f.base
    members = sorted(s.members)
    families: list[Family] = []

    def search(i: int, assigned: dict[str, str]) -> None:
        if i == len(members):
            families.append(tuple(sorted(assigned.items())))
            return
        m = members[i]
        if m in assigned:
            search(i + 1, assigned)
            return
        for e in f.value[c.source(m)]:
            forced: dict[str, str] = {m: e}
            ok = True
            for g in c.into(c.source(m)):
                mg = c.compose(m, g)
                val = f.act(g, e)
                if mg in assigned and assigned[mg] != val:
                    ok = False
                    break
                if mg in forced and forced[mg] != val:
                    ok = False
                    break
                forced[mg] = val
            if not ok:
                continue
            assigned.update(forced)
            search(i + 1, assigned)
            for k in forced:
                if k in assigned:
                    del assigned[k]

    search(0, {})
    return tuple(sorted(set(families)))


def restrict_family(c: FiniteCategory, fam: Family, p: Sieve, alpha: str) -> Family:
    """Pull a matching family on s back to one on p = pullback_sieve(c, s, alpha)."""
    lut = dict(fam)
    return tuple(sorted((g, lut[c.compose(alpha, g)]) for g in p.members))


def family_of_section(f: Presheaf, s: Sieve, x: str) -> Family:
    return tuple(sorted((m, f.act(m, x)) for m in s.members))


@dataclass(frozen=True)
class SheafVerdict:
    ok: bool
    object: str | None = None
    sieve: Sieve | None = None
    kind: str | None = None  # "existence" or "uniqueness"
    detail: str | None = None


def _same_site(f: Presheaf, t: GrothendieckTopology) -> None:
    if t.site != f.base:
        raise InputError("topology does not live on the base of the presheaf")


def is_sheaf(f: Presheaf, t: GrothendieckTopology) -> SheafVerdict:
    """Check that sections biject with matching families for every cover.

    Every cover is checked, not only the least one that plus_construction
    reads, so this verdict stays independent of how sheafify builds.
    """
    _same_site(f, t)
    c = f.base
    for u in sorted(c.objects):
        for s in sorted(t.covering(u), key=lambda s: sorted(s.members)):
            fams = set(matching_families(f, s))
            image: dict[Family, str] = {}
            for x in f.value[u]:
                fam = family_of_section(f, s, x)
                if fam in image:
                    return SheafVerdict(
                        ok=False, object=u, sieve=s, kind="uniqueness",
                        detail=f"sections {image[fam]} and {x} agree on the cover",
                    )
                image[fam] = x
            missing = fams - set(image)
            if missing:
                fam = sorted(missing)[0]
                return SheafVerdict(
                    ok=False, object=u, sieve=s, kind="existence",
                    detail=f"matching family {fam} has no amalgamation",
                )
    return SheafVerdict(ok=True)


def plus_construction(f: Presheaf, t: GrothendieckTopology) -> Presheaf:
    """One application of the plus construction.

    F+(u) is the colimit, over the covers of u ordered by reverse inclusion,
    of the matching-family sets.  Covers are closed under intersection, so
    on a finite site the intersection S_min(u) of all covers of u is a cover,
    and it is the terminal object of that order; a colimit over a category
    with a terminal object is the value there.  So F+(u) is the set of
    matching families on S_min(u).  An arrow alpha: v -> u restricts a
    family along alpha to the cover alpha*S_min(u) of v, then cuts it down
    to S_min(v).
    """
    _same_site(f, t)
    c = f.base
    least: dict[str, Sieve] = {}
    for u in c.objects:
        covers = t.covering(u)
        if not covers:
            raise InputError(
                f"no cover of {u}, but the maximal sieve must cover; "
                "verify the topology first"
            )
        meet = frozenset.intersection(*(s.members for s in covers))
        least[u] = Sieve(base_object=u, members=meet)
        if least[u] not in covers:
            raise InputError(
                f"the covers of {u} are not closed under intersection; "
                "verify the topology first"
            )
    fams = {u: matching_families(f, least[u]) for u in c.objects}
    label = {u: {fam: f"p{i}" for i, fam in enumerate(fams[u])} for u in c.objects}
    action: dict[str, dict[str, str]] = {}
    for alpha, (v, u) in c.morphisms.items():
        pulled = pullback_sieve(c, least[u], alpha)
        if pulled not in t.covering(v):
            raise InputError(
                "covers are not stable under pullback; verify the topology first"
            )
        keep = least[v].members
        amap: dict[str, str] = {}
        for fam in fams[u]:
            sub = restrict_family(c, fam, pulled, alpha)
            amap[label[u][fam]] = label[v][tuple(p for p in sub if p[0] in keep)]
        action[alpha] = amap
    value = {u: tuple(label[u].values()) for u in c.objects}
    return make_presheaf(c, value, action)


def sheafify(f: Presheaf, t: GrothendieckTopology) -> Presheaf:
    """The associated sheaf, by applying the plus construction twice."""
    bad = validate_set_functor(f)
    if bad:
        raise InputError("presheaf invalid: " + "; ".join(bad))
    return plus_construction(plus_construction(f, t), t)


def presheaves_isomorphic(f: Presheaf, g: Presheaf) -> bool:
    """Sectionwise-bijective natural isomorphism test by backtracking search."""
    if f.base != g.base:
        return False
    c = f.base
    if any(len(f.value[u]) != len(g.value[u]) for u in c.objects):
        return False
    objs = sorted(c.objects)

    def extend(i: int, maps: dict[str, dict[str, str]]) -> bool:
        if i == len(objs):
            for m, (v, u) in c.morphisms.items():
                for e in f.value[u]:
                    if maps[v][f.act(m, e)] != g.act(m, maps[u][e]):
                        return False
            return True
        u = objs[i]
        fe = sorted(f.value[u])
        for perm in itertools.permutations(sorted(g.value[u])):
            maps[u] = dict(zip(fe, perm))
            ok = True
            for m in c.morphisms:
                mv, mu = c.morphisms[m]
                if mu in maps and mv in maps:
                    for e in f.value[mu]:
                        if maps[mv][f.act(m, e)] != g.act(m, maps[mu][e]):
                            ok = False
                            break
                if not ok:
                    break
            if ok and extend(i + 1, maps):
                return True
            del maps[u]
        return False

    return extend(0, {})
