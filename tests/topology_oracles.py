"""Reference implementations of the topology code, read off every sieve.

These are the extensional versions the library used before it stored a
topology as its least covers: each works on an explicit set of covering
sieves per object, and lists every sieve on every object, so they cost time
exponential in the site.  The tests compare the library against them on
small sites, passing ``listed(t)`` for a library topology t.
``presheaves_isomorphic`` is the sheafification tests' oracle: a search for
a natural isomorphism, section by section.
"""

import itertools

from fibsite.errors import InputError
from fibsite.fibred import preimage_sieve
from fibsite.site import (
    SheafVerdict,
    all_sieves,
    family_of_section,
    matching_families,
    maximal_sieve,
    pullback_sieve,
    validate_sieve,
)


def listed(t):
    """The covers of every object of t, listed."""
    return {u: t.covering(u) for u in t.site.objects}


def oracle_verify_topology(c, covers, max_sieves=100_000):
    """Every axiom checked directly; local character against every sieve."""

    def covering(u):
        return covers.get(u, frozenset())

    report = []
    for u in c.objects:
        for s in covering(u):
            bad = validate_sieve(c, s)
            if bad or s.base_object != u:
                report.append(f"covers({u}) contains an invalid sieve: {sorted(s.members)}")
    if report:
        return report
    for u in c.objects:
        if maximal_sieve(c, u) not in covering(u):
            report.append(f"maximal sieve missing from covers({u})")
    for alpha, (v, u) in c.morphisms.items():
        for s in covering(u):
            if pullback_sieve(c, s, alpha) not in covering(v):
                report.append(f"base change fails: pullback of a cover of {u} along {alpha}")
    for u in c.objects:
        for s in covering(u):
            for r in all_sieves(c, u, cap=max_sieves):
                if r in covering(u):
                    continue
                if all(
                    pullback_sieve(c, r, alpha) in covering(c.source(alpha))
                    for alpha in s.members
                ):
                    report.append(
                        f"local character fails at {u}: sieve {sorted(r.members)} "
                        f"is locally covering for {sorted(s.members)} but not covering"
                    )
                    break
    return report


def oracle_saturate_topology(c, seeds=None, max_sieves=100_000):
    """Close the seeds under base change and local character, over every sieve."""
    sieves = {u: all_sieves(c, u, cap=max_sieves) for u in c.objects}
    covers = {u: {maximal_sieve(c, u)} for u in c.objects}
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
    return {u: frozenset(v) for u, v in covers.items()}


def oracle_induced_topology(fs, base_covers, max_sieves=100_000):
    """Every sieve on each total object that contains a preimage of a base cover."""
    covers = {}
    for tot in fs.total.objects:
        u, _x = fs.object_pair[tot]
        gens = [preimage_sieve(fs, tot, s) for s in base_covers[u]]
        covers[tot] = frozenset(
            r
            for r in all_sieves(fs.total, tot, cap=max_sieves)
            if any(g.members <= r.members for g in gens)
        )
    return covers


def oracle_is_sheaf(f, covers):
    """Sections biject with matching families on every cover, in sorted order."""
    for u in sorted(f.base.objects):
        for s in sorted(covers[u], key=lambda s: sorted(s.members)):
            fams = set(matching_families(f, s))
            image = {}
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
                return SheafVerdict(
                    ok=False, object=u, sieve=s, kind="existence",
                    detail=f"matching family {sorted(missing)[0]} has no amalgamation",
                )
    return SheafVerdict(ok=True)


def presheaves_isomorphic(f, g) -> bool:
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
