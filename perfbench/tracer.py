"""Outside-in tracing: spans and counters around calls into the package's layers.

Nothing inside `fibsite` knows about this.  `Tracer.install` replaces each
target function with a timing wrapper in every `fibsite` module namespace
that holds a reference to it (``from .snf import ...`` binds copies, and a
module calling its own function goes through its module globals), and
`Tracer.uninstall` puts the originals back.  A span is recorded per call
(target, start, end, parent span, check id) and kept in memory; counters are
derived from the arguments and results of the traced calls only.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "fibsite"
# Layers are the package's modules; bundle, report and cli form one layer,
# and every validate_* function forms the cross-cutting validator layer.
LAYERS = ("fincat", "site", "fibred", "sset", "hocopb", "cohom", "snf", "bundle", "validate")
MODULE_LAYER = {
    "fincat": "fincat",
    "site": "site",
    "fibred": "fibred",
    "sset": "sset",
    "hocopb": "hocopb",
    "cohom": "cohom",
    "snf": "snf",
    "bundle": "bundle",
    "report": "bundle",
    "cli": "bundle",
}

TARGETS = {
    "fincat": (
        "validate_category", "validate_groupoid", "validate_functor", "validate_set_functor",
        "opposite", "opposite_functor", "compose_functors", "comma_data", "comma_category",
        "pi0", "pi0_classes", "colim_set", "left_kan_set", "is_fully_faithful",
        "is_essentially_surjective", "is_equivalence", "automorphism_group",
        "is_group_isomorphism", "groups_isomorphic", "product_category", "build_category",
    ),
    "site": (
        "validate_sieve", "all_sieves", "verify_topology", "saturate_topology",
        "sieve_from_generators", "pullback_sieve", "maximal_sieve", "matching_families",
        "is_sheaf", "plus_construction", "sheafify", "representable_presheaf",
        "coproduct_presheaf",
    ),
    "fibred": (
        "validate_presheaf_of_categories", "validate_enriched", "validate_morphism_of_presheaves",
        "validate_presheaf_diagram", "grothendieck_construct", "induced_topology",
        "presheaf_to_enriched", "enriched_to_presheaf", "constant_enriched_diagram",
        "left_kan_along", "restrict_along", "total_functor", "is_sectionwise_equivalence",
        "make_translation_presheaf",
    ),
    "sset": (
        "validate_simplicial", "validate_simplicial_map", "nerve", "nerve_map",
        "compose_simplicial_maps", "disjoint_union_ssets", "pi0_sset", "boundary_entries",
        "homology", "we_evidence",
    ),
    "hocopb": (
        "validate_diagram", "validate_over_nerve", "validate_enriched_diagram",
        "validate_enriched_over_nerve", "hocolim", "pb", "unit_eta", "counit_epsilon",
        "check_triangles", "section_diagram", "enriched_hocolim", "enriched_pb",
        "enriched_unit", "enriched_counit", "presheaf_hocolim_pb",
    ),
    "cohom": (
        "validate_abelian_presheaf", "constant_abelian_presheaf", "restrict_abelian_along",
        "cochain_complex", "cohomology_of_complex", "compatible_family_group",
        "stack_cohomology", "cech_cohomology", "invariance_report",
    ),
    "snf": (
        "sparse_invariant_factors", "snf_diagonal", "smith_normal_form", "kernel_basis",
        "lattice_basis", "solve_in_lattice", "quotient_invariants",
    ),
    "bundle": ("parse_bundle", "emit_bundle"),
    "report": ("emit_report",),
    "cli": ("run", "build_parser"),
}


def layer_of(module: str, name: str) -> str:
    return "validate" if name.startswith("validate_") else MODULE_LAYER[module]


# ---------------------------------------------------------------------------
# counters: (target) -> function(counts, args, kwargs, result)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _sparse(c, args, kwargs, result):
    entries = _arg(args, kwargs, 0, "entries")
    rows, cols = _arg(args, kwargs, 1, "nrows"), _arg(args, kwargs, 2, "ncols")
    c["snf.sparse.calls"] += 1
    c["snf.sparse.nnz"] += sum(1 for v in entries.values() if v)
    c["snf.sparse.max_cells"] = max(c["snf.sparse.max_cells"], rows * cols)
    factors = result[1]
    c["snf.unit_factors"] += sum(1 for f in factors if f == 1)
    c["snf.nonunit_factors"] += sum(1 for f in factors if f > 1)


def _dense(c, args, kwargs, result):
    m = _arg(args, kwargs, 0, "m")
    c["snf.dense.calls"] += 1
    c["snf.dense.cells"] += len(m) * (len(m[0]) if m else 0)


def _smith(c, args, kwargs, result):
    c["snf.smith.calls"] += 1


def _cochains(c, args, kwargs, cc):
    c["cohom.complexes"] += 1
    c["cohom.strings"] += sum(cc.string_counts)
    c["cohom.cochain_rank"] += sum(cc.ranks)
    c["cohom.diff_nnz"] += sum(len(d) for d in cc.differentials)


def _simplices(s) -> int:
    return sum(len(level) for level in s.simplices)


def _hocolim(c, args, kwargs, over):
    c["hocopb.hocolim.calls"] += 1
    c["hocopb.hocolim.simplices"] += _simplices(over.total)


def _pb(c, args, kwargs, result):
    c["hocopb.pb.calls"] += 1


def _nerve(c, args, kwargs, s):
    c["sset.nerve.simplices"] += _simplices(s)


def _homology(c, args, kwargs, result):
    c["sset.homology.calls"] += 1


def _boundary(c, args, kwargs, result):
    c["sset.boundary.nnz"] += len(result[0])


def _total(c, args, kwargs, fs):
    c["fibred.total.morphisms"] += len(fs.total.morphisms)


def _sieves(c, args, kwargs, result):
    c["site.sieves"] += len(result)


def _parse(c, args, kwargs, result):
    c["bundle.parse.calls"] += 1


def _report(c, args, kwargs, text):
    c["bundle.report_bytes"] += len(text.encode("utf-8"))


COUNTERS = {
    ("snf", "sparse_invariant_factors"): _sparse,
    ("snf", "snf_diagonal"): _dense,
    ("snf", "smith_normal_form"): _smith,
    ("cohom", "cochain_complex"): _cochains,
    ("hocopb", "hocolim"): _hocolim,
    ("hocopb", "pb"): _pb,
    ("sset", "nerve"): _nerve,
    ("sset", "homology"): _homology,
    ("sset", "boundary_entries"): _boundary,
    ("fibred", "grothendieck_construct"): _total,
    ("site", "all_sieves"): _sieves,
    ("bundle", "parse_bundle"): _parse,
    ("report", "emit_report"): _report,
}

COUNTER_NAMES = (
    "snf.sparse.calls", "snf.sparse.nnz", "snf.sparse.max_cells", "snf.unit_factors",
    "snf.nonunit_factors", "snf.dense.calls", "snf.dense.cells", "snf.smith.calls",
    "cohom.complexes", "cohom.strings", "cohom.cochain_rank", "cohom.diff_nnz",
    "hocopb.hocolim.calls", "hocopb.hocolim.simplices", "hocopb.pb.calls",
    "sset.nerve.simplices", "sset.homology.calls", "sset.boundary.nnz",
    "fibred.total.morphisms", "site.sieves", "bundle.parse.calls", "bundle.report_bytes",
)


class Tracer:
    """Span recorder; install() patches the package, uninstall() restores it."""

    def __init__(self):
        self.names: list[str] = []  # target index -> "module.function"
        self.spans: list[tuple] = []  # (target, start, end, parent, check)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        self.missing: list[str] = []
        self.counter_errors: Counter[str] = Counter()
        self.check = None
        self._open: list[int] = []  # indices of open spans
        self._child: list[float] = []  # child time per open span
        self._patches: list[tuple[object, str, object, object]] = []

    def _modules(self):
        return [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self) -> None:
        """Patch every namespace holding a target; wrappers are built once."""
        if not self._patches:
            self._prepare()
        for m, attr, _fn, wrapper in self._patches:
            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, fn, _wrapper in self._patches:
            setattr(m, attr, fn)

    def _prepare(self) -> None:
        modules = self._modules()
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for module, names in TARGETS.items():
            for name in names:
                fn = getattr(by_name.get(module), name, None)
                if not callable(fn):
                    self.missing.append(f"{module}.{name}")
                    continue
                wrapper = self._wrap(fn, f"{module}.{name}", layer_of(module, name),
                                     COUNTERS.get((module, name)))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._patches.append((m, attr, fn, wrapper))

    def _wrap(self, fn, name: str, layer: str, counter):
        target = len(self.names)
        self.names.append(name)
        spans, open_, child = self.spans, self._open, self._child

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(index)
            child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_.pop()
                inner = child.pop()
                self.self_s[layer] += end - start - inner
                self.calls[layer] += 1
                spans[index] = (target, start, end, parent, self.check)
                if child:
                    child[-1] += end - start
            if counter is not None:
                c0 = perf_counter()
                try:
                    counter(self.counters, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    # the target changed shape; report it rather than stop
                    self.counter_errors[name] += 1
                if child:
                    child[-1] += perf_counter() - c0
            return result

        return traced

    def reset(self) -> None:
        """Forget recorded spans and totals; the wrappers stay."""
        self.spans.clear()
        self.self_s.clear()
        self.calls.clear()
        self.counters.clear()
        self.counter_errors.clear()
