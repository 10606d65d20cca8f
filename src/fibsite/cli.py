"""Command-line front end: parse bundles, run checks, emit reports.

Exit codes: 0 ok (all verdicts pass), 1 a check failed, 2 parse/usage error,
3 validation error, 4 refused mode, 5 cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
import time

from . import cohom, fibred, hocopb, sampling, site, sset
from .bundle import (
    Bundle,
    BundleNameError,
    BundleSyntaxError,
    BundleValidationError,
    _KINDS,
    parse_bundle,
)
from .errors import CapExceeded, InputError, RefusedMode, ValidationFailure
from .fincat import opposite, string_table, validate_category, validate_functor
from .report import Report, emit_report, factors_to_payload

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_REFUSED = 4
EXIT_CAP = 5

COMMANDS = (
    "validate",
    "fibred-build",
    "topology-check",
    "sheaf-check",
    "cohomology",
    "cech",
    "adjunction-check",
    "invariance-check",
    "homology",
    "nerve-export",
)


def _instance_count(text: str) -> int:
    """Parse --count; fewer than one instance would check nothing."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fibsite",
        description="Exact checks and cohomology on sites fibred over presheaves of categories.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        """A subcommand, with the options every subcommand takes."""
        sp = sub.add_parser(name, help=help)
        sp.add_argument("files", nargs="+", help="bundle files")
        sp.add_argument("--format", choices=("json", "markdown"), default="json")
        sp.add_argument("--out", default=None, help="write the report here instead of stdout")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--truncation", type=int, default=5)
        sp.add_argument("--nmax", type=int, default=4)
        sp.add_argument("--max-strings", type=int, default=200_000)
        sp.add_argument("--timings", action="store_true",
                        help="include wall-clock timings (breaks byte-determinism)")
        return sp

    command("validate", "run every validator in the bundle")
    sp = command("fibred-build", "build the total site of a presheaf of categories")
    sp.add_argument("--psheaf", required=True)
    sp = command("topology-check", "verify the topology axioms")
    sp.add_argument("--psheaf", default=None,
                    help="check the induced topology on this construction instead of the base")
    sp.add_argument("--category", default=None, help="base category (default: the only one)")
    sp = command("sheaf-check", "sheaf condition for a set presheaf")
    sp.add_argument("--presheaf", required=True)
    sp.add_argument("--sheafify", action="store_true", help="also sheafify and re-check")
    sp = command("cohomology", "exact stack cohomology (trivial topology)")
    sp.add_argument("--psheaf", required=True)
    sp.add_argument("--coeffs", required=True)
    sp = command("cech", "cohomology of a covering sieve's slice")
    sp.add_argument("--coeffs", required=True)
    sp.add_argument("--object", required=True)
    sp.add_argument("--cover", default="",
                    help="comma-separated sieve generators (empty: maximal sieve)")
    sp.add_argument("--psheaf", default=None,
                    help="work on the induced topology of this construction")
    sp = command("adjunction-check", "triangle identities and evidence on seeded instances")
    sp.add_argument("--psheaf", required=True)
    sp.add_argument("--count", type=_instance_count, default=3)
    sp = command("invariance-check", "cohomology comparison across an equivalence")
    sp.add_argument("--mor", required=True)
    sp.add_argument("--coeffs", default=None,
                    help="abelian presheaf on the codomain total (default: constant Z)")
    sp = command("homology", "nerve homology of a category")
    sp.add_argument("--category", required=True)
    sp.add_argument("--top", type=int, default=3)
    sp = command("nerve-export", "export a nerve as JSON")
    sp.add_argument("--category", required=True)
    return p


def _base_report(args, bundle: Bundle) -> Report:
    return Report(
        command=args.command,
        inputs={"files": list(bundle.paths), "sha256": bundle.content_hash},
        options={
            "seed": args.seed,
            "truncation": args.truncation,
            "nmax": args.nmax,
            "max_strings": args.max_strings,
        },
    )


def _the_category(bundle: Bundle, name: str | None):
    if name is not None:
        return name, bundle.named("category", name)
    if len(bundle.categories) != 1:
        raise InputError("bundle has several categories; pass --category")
    ((name, cat),) = bundle.categories.items()
    return name, cat


def cmd_validate(args, bundle: Bundle, rep: Report) -> None:
    """Every validator's verdict on the bundle.

    parse_bundle ran each validator but the topology check and exits 3 on a
    failure, so those verdicts are recorded as passed; the saturated
    topologies are verified here, since parsing never checks them.
    """
    for kind, (table, _) in _KINDS.items():
        for name in sorted(getattr(bundle, table)):
            rep.add_verdict(f"{kind} {name}", True, "")
        if kind == "category":
            for name, topo in sorted(bundle.topologies.items()):
                bad = site.verify_topology(topo)
                rep.add_verdict(f"topology on {name}", not bad, "; ".join(bad))
    rep.payload["counts"] = {table: len(getattr(bundle, table)) for table, _ in _KINDS.values()}


def _construction(bundle: Bundle, name: str):
    pc = bundle.named("psheaf-cat", name)
    fs = bundle.fibred_site(name)
    return pc, fs, bundle.topologies[bundle.name_of("category", pc.site)]


def _cover_counts(topo: site.GrothendieckTopology) -> dict[str, int]:
    return {u: len(topo.covering(u)) for u in sorted(topo.site.objects)}


def cmd_fibred_build(args, bundle: Bundle, rep: Report) -> None:
    pc, fs, topo = _construction(bundle, args.psheaf)
    bad = validate_category(fs.total)
    rep.add_verdict("total category valid", not bad, "; ".join(bad))
    bad = validate_functor(fs.projection)
    rep.add_verdict("projection is a functor", not bad, "; ".join(bad))
    induced = fibred.induced_topology(fs, topo)
    rep.payload["objects"] = sorted(fs.total.objects)
    rep.payload["morphisms"] = sorted(fs.total.morphisms)
    rep.payload["morphism_count"] = len(fs.total.morphisms)
    rep.payload["cover_counts"] = _cover_counts(induced)


def cmd_topology_check(args, bundle: Bundle, rep: Report) -> None:
    if args.psheaf:
        _pc, fs, topo = _construction(bundle, args.psheaf)
        induced = fibred.induced_topology(fs, topo)
        bad = site.verify_topology(induced)
        rep.add_verdict(f"induced topology on C/{args.psheaf}", not bad, "; ".join(bad))
        rep.payload["cover_counts"] = _cover_counts(induced)
    else:
        name, _cat = _the_category(bundle, args.category)
        topo = bundle.topologies[name]
        bad = site.verify_topology(topo)
        rep.add_verdict(f"topology on {name}", not bad, "; ".join(bad))
        rep.payload["cover_counts"] = _cover_counts(topo)


def cmd_sheaf_check(args, bundle: Bundle, rep: Report) -> None:
    pre = bundle.named("spresheaf", args.presheaf)
    topo = bundle.topologies[bundle.name_of("category", pre.base)]
    verdict = site.is_sheaf(pre, topo)
    detail = ""
    if not verdict.ok:
        detail = f"{verdict.kind} fails at {verdict.object}: {verdict.detail}"
    rep.add_verdict(f"{args.presheaf} is a sheaf", verdict.ok, detail)
    if args.sheafify:
        plus = site.sheafify(pre, topo)
        verdict2 = site.is_sheaf(plus, topo)
        rep.add_verdict("sheafification is a sheaf", verdict2.ok, "")
        rep.payload["sheafified_sizes"] = {
            u: len(plus.value[u]) for u in sorted(plus.base.objects)
        }


def cmd_cohomology(args, bundle: Bundle, rep: Report) -> None:
    pc, fs, topo = _construction(bundle, args.psheaf)
    f = bundle.named("abpresheaf", args.coeffs)
    if not isinstance(pc, fibred.PresheafOfGroupoids):
        raise RefusedMode("stack cohomology needs a presheaf of groupoids")
    groups = cohom.stack_cohomology(
        topo, pc, f, args.nmax, max_strings=args.max_strings
    )
    rep.payload["cohomology"] = factors_to_payload(groups)
    h0 = cohom.compatible_family_group(fs.total, f)
    rep.add_verdict(
        "H0 equals the compatible-family group", groups[0] == h0, str(h0)
    )


def cmd_cech(args, bundle: Bundle, rep: Report) -> None:
    f = bundle.named("abpresheaf", args.coeffs)
    if args.psheaf:
        _pc, fs, base_topo = _construction(bundle, args.psheaf)
        topo = fibred.induced_topology(fs, base_topo)
        cat = fs.total
    else:
        over = bundle.abelian_base[args.coeffs]
        if over not in bundle.categories:
            raise InputError("coefficients live over a construction; pass --psheaf")
        cat = bundle.categories[over]
        topo = bundle.topologies[over]
    if f.base != cat:
        raise InputError("coefficients do not live on the requested category")
    u = args.object
    if u not in set(cat.objects):
        raise InputError(f"no object named {u}")
    gens = [g for g in args.cover.split(",") if g]
    if gens:
        for g in gens:
            if g not in cat.morphisms:
                raise InputError(f"no morphism named {g}")
        sieve = site.sieve_from_generators(cat, u, set(gens))
    else:
        sieve = site.maximal_sieve(cat, u)
    groups = cohom.cech_cohomology(
        topo, u, sieve, f, args.nmax, max_strings=args.max_strings
    )
    rep.payload["cohomology"] = factors_to_payload(groups)
    rep.payload["sieve"] = sorted(sieve.members)
    rep.add_verdict("sieve is covering", True, "")


def cmd_adjunction_check(args, bundle: Bundle, rep: Report) -> None:
    pc = bundle.named("psheaf-cat", args.psheaf)
    if not isinstance(pc, fibred.PresheafOfGroupoids):
        raise RefusedMode("the adjunction needs groupoid fibres")
    # the instances are sampled over the fibre at the first site object, and
    # anchored at its objects
    if not pc.site.objects:
        raise InputError(
            f"psheaf-cat {args.psheaf} lives on a site with no objects, "
            "so there is no fibre to sample the adjunction over"
        )
    d = min(args.truncation, 4)
    u0 = sorted(pc.site.objects)[0]
    if not pc.value[u0].objects:
        raise InputError(
            f"psheaf-cat {args.psheaf} has an empty fibre at {u0}, "
            "so there is no object to sample the adjunction over"
        )
    fibre_op = opposite(pc.value[u0])
    # the sampled diagrams and over-objects live over this fibre's nerve
    string_table(fibre_op, d, max_strings=args.max_strings)
    rng = random.Random(args.seed)

    all_triangles = True
    all_evidence = True
    for i in range(args.count):
        diag = sampling.random_diagram(rng, fibre_op, d)
        over = sampling.random_over_nerve(rng, fibre_op, d)
        tri = hocopb.check_triangles(a=diag, x=over)
        all_triangles = all_triangles and tri.passed
        eta = hocopb.unit_eta(over)
        ev = sset.we_evidence(eta, d - 2)
        all_evidence = all_evidence and ev.passed
        eps = hocopb.counit_epsilon(diag)
        for y, m in sorted(eps.items()):
            ev2 = sset.we_evidence(m, d - 2)
            all_evidence = all_evidence and ev2.passed
    rep.add_verdict("triangle identities exact", all_triangles, "")
    rep.add_verdict("unit and counit pass weak-equivalence evidence", all_evidence, "")
    constant = all(
        pc.restriction[alpha].object_map == {x: x for x in pc.value[pc.site.target(alpha)].objects}
        and pc.restriction[alpha].morphism_map
        == {m: m for m in pc.value[pc.site.target(alpha)].morphisms}
        for alpha in pc.site.morphisms
    )
    if constant:
        diag = sampling.random_diagram(rng, fibre_op, d)
        enriched = sampling.constant_enriched_diagram_from(pc, diag)
        run_ = hocopb.presheaf_hocolim_pb(enriched, d)
        rep.add_verdict(
            "sectionwise triangles and naturality",
            run_.triangles.passed and run_.counit_natural,
            "",
        )
    rep.payload["instances"] = args.count
    rep.payload["truncation"] = d


def cmd_invariance_check(args, bundle: Bundle, rep: Report) -> None:
    mor = bundle.named("psheaf-mor", args.mor)
    if not isinstance(mor.codomain, fibred.PresheafOfGroupoids) or not isinstance(
        mor.domain, fibred.PresheafOfGroupoids
    ):
        raise RefusedMode("invariance comparison needs presheaves of groupoids")
    if args.coeffs is not None:
        f = bundle.named("abpresheaf", args.coeffs)
    else:
        # parse_bundle validated the codomain; its total is built unchecked
        total = bundle.fibred_site(bundle.name_of("psheaf-cat", mor.codomain)).total
        f = cohom.constant_abelian_presheaf(total, cohom.ZZ)
    n_max = min(args.nmax, 3)
    result = cohom.invariance_report(mor, f, n_max, max_strings=args.max_strings)
    rep.add_verdict(
        "cohomology agrees across the equivalence",
        result.passed,
        f"mismatched degrees: {list(result.mismatches())}" if not result.passed else "",
    )
    rep.payload["cohomology"] = factors_to_payload(result.target)
    rep.payload["pulled_back"] = factors_to_payload(result.source)


def cmd_homology(args, bundle: Bundle, rep: Report) -> None:
    name, cat = _the_category(bundle, args.category)
    if args.top > args.truncation - 1:
        raise InputError("raise --truncation to reach the requested degree")
    # the string kernel stops at the first degree past the cap
    n = sset._nerve(cat, string_table(cat, args.truncation, max_strings=args.max_strings))
    h = sset.homology(n, args.top)
    rep.payload["homology"] = [list(f) for f in h.factors]
    rep.payload["components"] = h.components
    rep.add_verdict("computed", True, "")


def cmd_nerve_export(args, bundle: Bundle, rep: Report) -> None:
    name, cat = _the_category(bundle, args.category)
    n = sset._nerve(cat, string_table(cat, args.truncation, max_strings=args.max_strings))
    export = {
        "dim": n.dim,
        "simplices": [sorted(map(list, n.simplices[k])) for k in range(n.dim + 1)],
        "faces": {
            f"{k},{i}": sorted([[list(a), list(b)] for a, b in n.faces[(k, i)].items()])
            for k in range(1, n.dim + 1)
            for i in range(k + 1)
        },
        "degeneracies": {
            f"{k},{i}": sorted(
                [[list(a), list(b)] for a, b in n.degeneracies[(k, i)].items()]
            )
            for k in range(n.dim)
            for i in range(k + 1)
        },
    }
    rep.payload["nerve"] = export
    rep.add_verdict("exported", True, "")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built by the first run call.

    parse_args leaves a parser unchanged, so every call can share it.
    """
    return build_parser()


HANDLERS = {
    "validate": cmd_validate,
    "fibred-build": cmd_fibred_build,
    "topology-check": cmd_topology_check,
    "sheaf-check": cmd_sheaf_check,
    "cohomology": cmd_cohomology,
    "cech": cmd_cech,
    "adjunction-check": cmd_adjunction_check,
    "invariance-check": cmd_invariance_check,
    "homology": cmd_homology,
    "nerve-export": cmd_nerve_export,
}


# the exit code of each error a run reports; an OSError is a bundle that
# cannot be read or an --out that cannot be written
EXIT_CODES = {
    BundleSyntaxError: EXIT_PARSE,
    BundleNameError: EXIT_PARSE,
    OSError: EXIT_PARSE,
    BundleValidationError: EXIT_VALIDATION,
    ValidationFailure: EXIT_VALIDATION,
    InputError: EXIT_VALIDATION,
    RefusedMode: EXIT_REFUSED,
    CapExceeded: EXIT_CAP,
}


def run(argv: list[str] | None = None, stdout=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_PARSE if e.code not in (0, None) else 0
    t0 = time.monotonic()
    try:
        bundle = parse_bundle(args.files)
        rep = _base_report(args, bundle)
        HANDLERS[args.command](args, bundle, rep)
        if args.timings:
            rep.timings = {"wall_seconds": round(time.monotonic() - t0, 6)}
        text = emit_report(rep, args.format)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except tuple(EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(e, kind))
    if not args.out:
        out.write(text)
    return EXIT_OK if rep.ok else EXIT_CHECK_FAILED


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
