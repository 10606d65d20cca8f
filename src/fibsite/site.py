"""Sieves, Grothendieck topologies, the sheaf condition, and sheafification.

Topologies are stored extensionally: an explicit set of covering sieves per
object.  On a finite site they are the sieves containing the least cover
L(u), the intersection of the covers (``least_cover``).  The verifier checks
the axioms as two conditions on L, saturation shrinks L to a fixpoint, and
both list only the sieves containing L(u), never every sieve.  The plus
construction reads L(u), the terminal cover; the sheaf condition still
checks every cover.
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


def all_sieves(
    c: FiniteCategory, u: str, cap: int = 100_000, contains: Sieve | None = None
) -> tuple[Sieve, ...]:
    """Every sieve on u that contains ``contains`` (default: the empty sieve)."""
    arrows = c.into(u)
    index = {m: i for i, m in enumerate(arrows)}
    principal: dict[str, int] = {}
    for m in arrows:
        mask = 1 << index[m]
        for h in c.into(c.source(m)):
            mask |= 1 << index[c.compose(m, h)]
        principal[m] = mask
    start = sum(1 << index[m] for m in contains.members) if contains else 0
    seen = {start}
    frontier = [start]
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


def least_cover(t: GrothendieckTopology, u: str) -> Sieve:
    """L(u), the intersection of the covers of u, which must itself cover."""
    covers = t.covering(u)
    least = Sieve(u, frozenset.intersection(*(s.members for s in covers))) if covers else None
    if least not in covers:
        raise InputError(
            (f"the covers of {u} are not closed under intersection" if covers
             else f"no cover of {u}, but the maximal sieve must cover")
            + "; verify the topology first"
        )
    return least


def _composite(c: FiniteCategory, least: dict[str, Sieve], u: str) -> frozenset[str]:
    """L.L(u) = {alpha.beta : alpha in L(u), beta in L(dom alpha)}, a sieve."""
    return frozenset(
        c.compose(a, b) for a in least[u].members for b in least[c.source(a)].members
    )


def verify_topology(t: GrothendieckTopology) -> list[str]:
    """Report of violated topology axioms; empty iff t is a Grothendieck topology.

    With L(u) the intersection of the covers of u and L.L(u) the sieve
    {ab : a in L(u), b in L(dom a)}, t is a topology iff each covers(u) is
    the set of sieves containing L(u), (a) L(v) <= a*L(u) for every
    a: v -> u, and (b) L(u) <= L.L(u).  If: a cover S contains L(u), so a*S
    contains L(v) by (a); and if a*R covers for each a in a cover S, then R
    contains L.L(u), hence L(u) by (b).  Only if: local character makes
    covers upward closed (R above a cover S pulls back to maximal sieves
    along S) and closed under meets (a*(A & S) = a*A for a in S); (a) is
    stability of L(u); and L.L(u) is locally covering for L(u), giving (b).

    After checking that covers are sieves including the maximal one:
    3. covers(u) is the set of sieves containing L(u), listed under a cap of
       one more than the number of covers.  If not, some R outside the
       covers is A & S for covers A, S, or S | <m> for a cover S (grow L(u)
       one principal sieve at a time); along a in S, R pulls back to a*A or
       to the maximal sieve a*S, pullbacks of covers.
    4. (a), between objects passing 3; a failure pulls the cover L(u) back
       to a sieve missing part of L(v), so not to a cover.
    5. (b), where u and the domains of L(u) pass 3; L.L(u) is locally
       covering for L(u), and does not cover if it misses part of L(u).
    A witness (R, S) from 3 or 5 is checked last: R is locally covering
    for S but does not cover, or some a in S pulls a cover back to a
    non-cover, and base change fails.
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
    least: dict[str, Sieve] = {}
    witnesses: list[tuple[str, Sieve, Sieve]] = []  # (u, R, S): R locally covers for S?
    for u in c.objects:
        covers = t.covering(u)
        try:
            lu = least_cover(t, u)
            if set(all_sieves(c, u, len(covers) + 1, lu)) == covers:
                least[u] = lu
                continue
        except (InputError, CapExceeded):
            if not covers:
                continue
        order = sorted(covers, key=lambda s: sorted(s.members))
        up = ((sieve_from_generators(c, u, s.members | {m}), s) for s in order for m in c.into(u))
        meets = ((Sieve(u, a.members & s.members), s) for a, s in itertools.combinations(order, 2))
        witnesses.append(next((u, r, s) for r, s in itertools.chain(up, meets) if r not in covers))
    for alpha, (v, u) in c.morphisms.items():
        if u in least and v in least:
            if not least[v].members <= pullback_sieve(c, least[u], alpha).members:
                report.append(f"base change fails: pullback of a cover of {u} along {alpha}")
    for u, lu in least.items():
        if all(c.source(a) in least for a in lu.members):
            r = Sieve(u, _composite(c, least, u))
            if not lu.members <= r.members:
                witnesses.append((u, r, lu))
    for u, r, s in witnesses:
        bad = [a for a in sorted(s.members)
               if pullback_sieve(c, r, a) not in t.covering(c.source(a))]
        report.append(
            f"base change fails: pullback of a cover of {u} along {bad[0]}" if bad
            else f"local character fails at {u}: sieve {sorted(r.members)} "
            f"is locally covering for {sorted(s.members)} but not covering"
        )
    return report


def saturate_topology(
    c: FiniteCategory,
    seeds: dict[str, set[Sieve]] | None = None,
    max_sieves: int = 100_000,
) -> GrothendieckTopology:
    """Smallest Grothendieck topology whose covers include the seed sieves.

    Its least covers are the largest L below the seeds' intersections with
    (a) and (b) of ``verify_topology``: shrink L(v) to L(v) & alpha*L(u), and
    L(u) to L.L(u), until nothing changes.  Both steps are monotone, so any
    such L stays below the iterate.  The covers are the sieves containing
    L(u), at most max_sieves of them per object.
    """
    least = {u: maximal_sieve(c, u) for u in c.objects}
    for u, ss in (seeds or {}).items():
        for s in ss:
            if validate_sieve(c, s) or s.base_object != u:
                raise InputError(f"seed sieve on {u} is not a sieve")
            least[u] = Sieve(u, least[u].members & s.members)
    changed = True
    while changed:
        changed = False
        for alpha, (v, u) in c.morphisms.items():
            meet = least[v].members & pullback_sieve(c, least[u], alpha).members
            changed |= meet != least[v].members
            least[v] = Sieve(v, meet)
        for u in c.objects:
            comp = _composite(c, least, u)
            changed |= comp != least[u].members
            least[u] = Sieve(u, comp)
    covers = {u: frozenset(all_sieves(c, u, max_sieves, least[u])) for u in c.objects}
    return GrothendieckTopology(site=c, covers=covers)


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
            # e at m forces its restriction at every m.g, which must agree
            # with what is already assigned there
            grown = dict(assigned)
            if all(
                grown.setdefault(c.compose(m, g), f.act(g, e)) == f.act(g, e)
                for g in c.into(c.source(m))
            ):
                search(i + 1, grown)

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
    on a finite site the least cover L(u) = ``least_cover(t, u)`` is the
    terminal object of that order; a colimit over a category with a
    terminal object is the value there.  So F+(u) is the set of matching
    families on L(u).  An arrow alpha: v -> u restricts a family along alpha
    to the cover alpha*L(u) of v, then cuts it down to L(v).
    """
    _same_site(f, t)
    c = f.base
    least = {u: least_cover(t, u) for u in c.objects}
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
        if i == len(objs):  # the last assignment checked every arrow
            return True
        u = objs[i]
        fe = sorted(f.value[u])
        for perm in itertools.permutations(sorted(g.value[u])):
            maps[u] = dict(zip(fe, perm))
            natural = all(
                maps[v][f.act(m, e)] == g.act(m, maps[w][e])
                for m, (v, w) in c.morphisms.items()
                if v in maps and w in maps
                for e in f.value[w]
            )
            if natural and extend(i + 1, maps):
                return True
            del maps[u]
        return False

    return extend(0, {})
