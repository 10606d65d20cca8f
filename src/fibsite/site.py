"""Sieves, Grothendieck topologies, the sheaf condition, and sheafification.

A topology on a finite site is stored as its least covers: one sieve L(u)
per object, the intersection of the covers of u, which covers u itself.
The covers of u are the sieves containing L(u) (Johnstone, *Elephant*
C2.1); ``covering`` lists them only for reports that count them.  The
verifier checks the axioms as two conditions on L, saturation shrinks L to
a fixpoint, and the sheaf condition and the plus construction read L(u).
"""

from __future__ import annotations

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


#: the most covering sieves ``covering`` lists on one object
MAX_LISTED_COVERS = 100_000


@dataclass(frozen=True)
class GrothendieckTopology:
    """A topology given by its least covers: the covers of u are the sieves
    containing ``least[u]``."""

    site: FiniteCategory
    least: dict[str, Sieve]

    def _least_on_objects(self) -> dict[str, Sieve]:
        """``least``, refused unless it holds a sieve based at u for every object u."""
        for u in self.site.objects:
            lu = self.least.get(u)
            if lu is None:
                raise InputError(f"the topology has no least cover of {u}")
            if lu.base_object != u:
                raise InputError(f"the least cover of {u} lives on {lu.base_object}")
        return self.least

    def checked_least(self) -> dict[str, Sieve]:
        """``least``, refused unless each L(u) is based at u and holds only
        arrows into u.  ``verify_topology`` checks the rest of the sieve
        axioms; this check costs O(|L(u)|) per object."""
        least = self._least_on_objects()
        ends = self.site.morphisms
        for u in self.site.objects:
            stray = [m for m in least[u].members if ends.get(m, (None, None))[1] != u]
            if stray:
                raise InputError(
                    f"the least cover of {u} holds {min(stray)}, which is not an arrow into {u}"
                )
        return least

    def covering(self, u: str) -> frozenset[Sieve]:
        """Every covering sieve of u, for reports that count them."""
        least = self.checked_least()
        if u not in self.site.objects:
            raise InputError(f"{u} is not an object of the site")
        return frozenset(all_sieves(self.site, u, MAX_LISTED_COVERS, least[u]))


def trivial_topology(c: FiniteCategory) -> GrothendieckTopology:
    return GrothendieckTopology(site=c, least={u: maximal_sieve(c, u) for u in c.objects})


def is_trivial_topology(t: GrothendieckTopology) -> bool:
    least = t.checked_least()
    return all(least[u] == maximal_sieve(t.site, u) for u in t.site.objects)


def _composite(c: FiniteCategory, least: dict[str, Sieve], u: str) -> frozenset[str]:
    """L.L(u) = {alpha.beta : alpha in L(u), beta in L(dom alpha)}, a sieve."""
    return frozenset(
        c.compose(a, b) for a in least[u].members for b in least[c.source(a)].members
    )


def verify_topology(t: GrothendieckTopology) -> list[str]:
    """Report of violated topology axioms; empty iff t is a Grothendieck topology.

    The covers of u are the sieves containing L(u), so they hold the maximal
    sieve once L(u) is a sieve on u.  With L.L(u) the sieve
    {ab : a in L(u), b in L(dom a)}, the other two axioms hold iff
    (a) L(v) <= a*L(u) for every a: v -> u, and (b) L(u) <= L.L(u).
    Stability: a* is monotone, so every cover pulls back to a cover iff
    L(u) does, which is (a).  Local character: if a*R covers for each a in
    a cover S, then R contains L.L(u), hence L(u) by (b); conversely L.L(u)
    is locally covering for L(u), so it must cover, which is (b).
    """
    c, least = t.site, t._least_on_objects()
    report = [
        f"L({u}) is not a sieve on {u}: {sorted(least[u].members)}"
        for u in c.objects
        if validate_sieve(c, least[u])
    ]
    if report:
        return report
    for alpha, (v, u) in c.morphisms.items():
        if not least[v].members <= pullback_sieve(c, least[u], alpha).members:
            report.append(f"base change fails: pullback of a cover of {u} along {alpha}")
    for u in c.objects:
        comp = _composite(c, least, u)
        if not least[u].members <= comp:
            report.append(
                f"local character fails at {u}: sieve {sorted(comp)} "
                f"is locally covering for {sorted(least[u].members)} but not covering"
            )
    return report


def saturate_topology(
    c: FiniteCategory, seeds: dict[str, set[Sieve]] | None = None
) -> GrothendieckTopology:
    """Smallest Grothendieck topology whose covers include the seed sieves.

    Its least covers are the largest L below the seeds' intersections with
    (a) and (b) of ``verify_topology``: shrink L(v) to L(v) & alpha*L(u), and
    L(u) to L.L(u), until nothing changes.  Both steps are monotone, so any
    such L stays below the iterate.
    """
    least = {u: maximal_sieve(c, u) for u in c.objects}
    for u, ss in (seeds or {}).items():
        for s in ss:
            if u not in least or validate_sieve(c, s) or s.base_object != u:
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
    return GrothendieckTopology(site=c, least=least)


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
    """Check that sections biject with matching families on each L(u).

    That suffices: by (a) of ``verify_topology`` the least covers form a
    coverage generating t, and a presheaf is a sheaf for a topology iff it
    is one for a coverage generating it (Johnstone, *Elephant* C2.1).
    """
    _same_site(f, t)
    least = t.checked_least()
    for u in sorted(f.base.objects):
        s = least[u]
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
    of the matching-family sets.  The least cover L(u) is the terminal
    object of that order, and a colimit over a category with a terminal
    object is the value there.  So F+(u) is the set of matching families on
    L(u).  An arrow alpha: v -> u restricts a family along alpha to the
    cover alpha*L(u) of v, then cuts it down to L(v).
    """
    _same_site(f, t)
    c, least = f.base, t.checked_least()
    fams = {u: matching_families(f, least[u]) for u in c.objects}
    label = {u: {fam: f"p{i}" for i, fam in enumerate(fams[u])} for u in c.objects}
    action: dict[str, dict[str, str]] = {}
    for alpha, (v, u) in c.morphisms.items():
        pulled = pullback_sieve(c, least[u], alpha)
        keep = least[v].members
        if not keep <= pulled.members:
            raise InputError(
                "covers are not stable under pullback; verify the topology first"
            )
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
