"""Reference implementations of the topology code, read off every sieve.

These are the extensional versions the library used before it worked from
least covers: each lists every sieve on every object, so they cost time
exponential in the site.  The tests compare the library against them on
small sites.
"""

from fibsite.errors import InputError
from fibsite.fibred import preimage_sieve
from fibsite.site import (
    GrothendieckTopology,
    Sieve,
    all_sieves,
    maximal_sieve,
    pullback_sieve,
    validate_sieve,
)


def oracle_verify_topology(t, max_sieves=100_000):
    """Every axiom checked directly; local character against every sieve."""
    c = t.site
    report = []
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
                report.append(f"base change fails: pullback of a cover of {u} along {alpha}")
    for u in c.objects:
        if not t.covering(u):
            continue
        for s in t.covering(u):
            for r in all_sieves(c, u, cap=max_sieves):
                if r in t.covering(u):
                    continue
                if all(
                    pullback_sieve(c, r, alpha) in t.covering(c.source(alpha))
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
    return GrothendieckTopology(site=c, covers={u: frozenset(v) for u, v in covers.items()})


def oracle_induced_topology(fs, base_topology, max_sieves=100_000):
    """Every sieve on each total object that contains a preimage of a base cover."""
    covers = {}
    for tot in fs.total.objects:
        u, _x = fs.object_pair[tot]
        gens = [preimage_sieve(fs, tot, s) for s in base_topology.covering(u)]
        covers[tot] = frozenset(
            r
            for r in all_sieves(fs.total, tot, cap=max_sieves)
            if any(g.members <= r.members for g in gens)
        )
    return GrothendieckTopology(site=fs.total, covers=covers)
