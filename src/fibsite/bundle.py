"""Line-oriented declarative format for categories, sites, and coefficients.

The grammar (one declaration per line, ``#`` starts a comment):

    category NAME              # or: groupoid NAME (then inverses are required)
    objects a b c
    mor f : a -> b
    compose g.f = h            # identities implicit, everything else mandatory
    inverse f = g              # (also marks a plain category block a groupoid)
    cover U = { f g }          # sieve generators; the topology is the saturation

    spresheaf P over C         # set-valued presheaf on the site C
    at U set s1 s2
    restrict alpha elem s1 = s2    # the action F(U) -> F(V) for alpha: V -> U

    psheaf-cat A over C        # presheaf of categories (fibres declared earlier)
    at U category GU
    restrict alpha obj x = y
    restrict alpha mor f = g   # identity morphisms map automatically

    psheaf-mor m : A -> B      # morphism of presheaves of categories
    at U obj x = y
    at U mor f = g

    abpresheaf F over A        # abelian coefficients; over a psheaf-cat name
    at (U|x) group Z/2 Z       # ...means the total category of C/A; over a
    restrict (a|f) matrix [[1,0],[0,1]]  # category name means that category

Groups are written in invariant-factor form (torsion factors in
divisibility order, then the Z factors) and matrices index the generators
in that order; a group line in any other order is a validation error.

The grammar itself is the table ``_LINES``: the shape, ``usage:`` message
and store of each line, by keyword and kind of enclosing block.
``parse_bundle`` reads every line through it, then assembles the blocks.

Identity morphisms are created automatically and named ``id_<object>``; the
parser rejects attempts to redefine them.  Declared object and morphism
names may not contain ``|``, ``(`` or ``)``, which the pair names of total
objects and arrows use, nor ``>``, which comma arrow names use.  Every block
is validated after parsing, through ``fincat._verdict``, so each block keeps
its passing verdict and no command validates it again; validation failures
surface as BundleValidationError with the structure's own report attached.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .cohom import AbelianPresheaf, FgAbelianGroup, validate_abelian_presheaf
from .errors import FibsiteError, InputError
from .fibred import (
    FibredSite,
    MorphismOfPresheavesOfCategories,
    PresheafOfCategories,
    PresheafOfGroupoids,
    grothendieck_construct,
    validate_morphism_of_presheaves,
    validate_presheaf_of_categories,
)
from .fincat import (
    FiniteCategory,
    Functor,
    Groupoid,
    SetValuedFunctor,
    _verdict,
    build_category,
    identity_functor,
    validate_category,
    validate_groupoid,
    validate_set_functor,
)
from .site import (
    GrothendieckTopology,
    Sieve,
    make_presheaf,
    maximal_sieve,
    saturate_topology,
    sieve_from_generators,
    trivial_topology,
)
from .snf import identity_matrix


# total objects and arrows are written (U|x) and (a|f), and comma arrows
# (m|h>h2), so a declared name holding one of these could not be told apart
# from a pair or a comma arrow; each character maps to the names it reserves
_RESERVED = {
    "|": "total-object names",
    "(": "total-object names",
    ")": "total-object names",
    ">": "comma arrow names",
}

class BundleSyntaxError(FibsiteError):
    def __init__(self, path: str, line: int, message: str, column: int | None = None):
        loc = f"{path}:{line}:{column}" if column else f"{path}:{line}"
        super().__init__(f"{loc}: {message}")
        self.path = path
        self.line = line
        self.column = column


class BundleNameError(FibsiteError):
    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")


class BundleValidationError(FibsiteError):
    def __init__(self, name: str, report: list[str]):
        super().__init__(f"{name}: " + "; ".join(report))
        self.report = report


@dataclass
class Bundle:
    """Parsed, validated contents of one or more bundle files.

    Two bundles are equal when their blocks are, wherever they were read from.
    """

    categories: dict[str, FiniteCategory] = field(default_factory=dict)
    topologies: dict[str, GrothendieckTopology] = field(default_factory=dict)
    set_presheaves: dict[str, SetValuedFunctor] = field(default_factory=dict)
    presheaves_of_categories: dict[str, PresheafOfCategories] = field(default_factory=dict)
    psheaf_morphisms: dict[str, MorphismOfPresheavesOfCategories] = field(default_factory=dict)
    abelian_presheaves: dict[str, AbelianPresheaf] = field(default_factory=dict)
    abelian_base: dict[str, str] = field(default_factory=dict)
    paths: tuple[str, ...] = field(default=(), compare=False)
    content_hash: str = field(default="", compare=False)

    def fibred_site(self, name: str) -> FibredSite:
        """The total site of the psheaf-cat `name`: ``grothendieck_construct``,
        which remembers it on the psheaf-cat, as the psheaf-cat keeps the
        verdict parse_bundle left on it."""
        return grothendieck_construct(self.presheaves_of_categories[name])

    def named(self, kind: str, name: str):
        """The block of this kind (a ``_KINDS`` key) called `name`."""
        table = getattr(self, _KINDS[kind][0])
        if name not in table:
            raise InputError(f"no {kind} named {name} in the bundle")
        return table[name]

    def name_of(self, kind: str, value) -> str:
        """The name of the block of this kind that is `value` itself.

        By identity: blocks with equal tables are still two sites, two topologies.
        """
        for name, v in getattr(self, _KINDS[kind][0]).items():
            if v is value:
                return name
        raise InputError(f"{kind} not registered in the bundle")


class _Block:
    """One block as read: its header line and what its other lines stored."""

    def __init__(
        self, kind: str, name: str, where: tuple[str, int], refs: list[str], groupoid: bool
    ):
        self.kind = kind  # a _KINDS key; a groupoid block is of kind category
        self.name = name
        self.where = where  # the header's (path, line)
        self.refs = refs  # the names the header points at: X of "over X", A and B of "A -> B"
        self.groupoid = groupoid
        self.objects: list[str] = []
        self.arrows: dict[str, tuple[str, str]] = {}
        self.compose: dict[tuple[str, str], str] = {}
        self.inverses: dict[str, str] = {}
        self.covers: dict[str, list[list[str]]] = {}
        # at U lines: (the set, fibre name or group factors, (path, line))
        self.at: dict[str, tuple] = {}
        # KW X ROLE a = b lines, by (ROLE, X): the map a -> b
        self.maps: dict[tuple[str, str], dict[str, str]] = {}
        self.matrices: dict[str, list[list[int]]] = {}

    # what each body line stores, with its tokens (keyword first) and (path, line)
    def add_objects(self, toks: list[str], where: tuple[str, int]) -> None:
        self.objects.extend(toks[1:])

    def add_arrow(self, toks: list[str], where: tuple[str, int]) -> None:
        if toks[1] in self.arrows or toks[1].startswith("id_"):
            raise BundleSyntaxError(*where, f"morphism {toks[1]} already declared or reserved")
        self.arrows[toks[1]] = (toks[3], toks[5])

    def add_composite(self, toks: list[str], where: tuple[str, int]) -> None:
        g, f = toks[1].split(".", 1)
        self.compose[(g, f)] = toks[3]

    def add_inverse(self, toks: list[str], where: tuple[str, int]) -> None:
        self.inverses[toks[1]] = toks[3]

    def add_cover(self, toks: list[str], where: tuple[str, int]) -> None:
        self.covers.setdefault(toks[1], []).append(toks[4:-1])

    def add_at(self, toks: list[str], where: tuple[str, int]) -> None:
        self.at[toks[1]] = (toks[3:], where)

    def add_group(self, toks: list[str], where: tuple[str, int]) -> None:
        self.at[toks[1]] = ([_group_factor(t, where) for t in toks[3:]], where)

    def add_map(self, toks: list[str], where: tuple[str, int]) -> None:
        self.maps.setdefault((toks[2], toks[1]), {})[toks[3]] = toks[5]

    def add_matrix(self, toks: list[str], where: tuple[str, int]) -> None:
        blob = " ".join(toks[3:])
        try:
            mat = json.loads(blob)
        except json.JSONDecodeError:
            raise BundleSyntaxError(*where, f"bad matrix literal {blob!r}")
        if not isinstance(mat, list) or not all(
            isinstance(r, list) and all(isinstance(x, int) for x in r)
            for r in mat
        ):
            raise BundleSyntaxError(*where, "matrix must be a list of integer rows")
        self.matrices[toks[1]] = mat

    # the three refusals of assembly: a failed validator or a missing
    # declaration, and an unknown name
    def refuse(self, report: list[str]) -> None:
        """Raise a validator's report, when it has one, as this block's."""
        if report:
            raise BundleValidationError(f"{self.kind} {self.name}", report)

    def required(self, table: dict, key, missing: str):
        """table[key], refused with "no {missing}" when no line declared it."""
        if key not in table:
            self.refuse([f"no {missing}"])
        return table[key]

    def resolve(self, table: dict, name: str, what: str):
        """table[name] for a name the header line gives."""
        if name not in table:
            raise BundleNameError(*self.where, f"{self.kind} {self.name} {what}")
        return table[name]


# A line's shape lists the words after its keyword.  NAME is any word and
# PAIR a word g.f; NAMES and FACTORS are any number of words and MATRIX one
# or more, at most one of the three per shape; a|b is either word, and any
# other word is itself.
_REST = {"NAMES": 0, "FACTORS": 0, "MATRIX": 1}


class _Line:
    """One line of the grammar: its shape, usage message and what it stores.

    A header line opens a block of kind `opens`; any other line hands its
    tokens, keyword first, and its (path, line) to `store` with its block.
    """

    __slots__ = ("shape", "usage", "store", "opens", "least", "most", "checks")

    def __init__(self, shape: str, usage: str, store=None, opens: str | None = None):
        self.shape = tuple(shape.split())
        self.usage = f"usage: {usage}"
        self.store = store
        self.opens = opens
        # the fewest and most words after the keyword
        n = len(self.shape)
        rest = next((i for i, w in enumerate(self.shape) if w in _REST), n)
        self.least = n if rest == n else n - 1 + _REST[self.shape[rest]]
        self.most = n if rest == n else float("inf")
        # (token index, the words allowed there or None for a PAIR); the
        # words after a rest slot are counted from the end of the line
        self.checks = tuple(
            (i + 1 if i < rest else i - n, None if w == "PAIR" else frozenset(w.split("|")))
            for i, w in enumerate(self.shape)
            if w != "NAME" and w not in _REST
        )

    def fits(self, toks: list[str]) -> bool:
        if not self.least <= len(toks) - 1 <= self.most:
            return False
        for i, allowed in self.checks:
            word = toks[i]
            if ("." not in word) if allowed is None else (word not in allowed):
                return False
        return True


def _group_factor(tok: str, where: tuple[str, int]) -> int:
    if tok == "Z":
        return 0
    if tok.startswith("Z/"):
        try:
            n = int(tok[2:])
        except ValueError:
            raise BundleSyntaxError(*where, f"bad group factor {tok!r}")
        if n <= 0:
            raise BundleSyntaxError(*where, f"bad group factor {tok!r}")
        return n
    raise BundleSyntaxError(*where, f"bad group factor {tok!r} (want Z or Z/n)")


# The grammar: each line by (keyword, the kind of block it sits in), a
# header line by (keyword, None), since it may sit anywhere.
_LINES = {
    ("category", None): _Line("NAME", "category NAME", opens="category"),
    ("groupoid", None): _Line("NAME", "groupoid NAME", opens="category"),
    ("spresheaf", None): _Line("NAME over NAME", "spresheaf NAME over CATEGORY", opens="spresheaf"),
    ("psheaf-cat", None): _Line("NAME over NAME", "psheaf-cat NAME over CATEGORY", opens="psheaf-cat"),
    ("psheaf-mor", None): _Line("NAME : NAME -> NAME", "psheaf-mor NAME : A -> B", opens="psheaf-mor"),
    ("abpresheaf", None): _Line("NAME over NAME", "abpresheaf NAME over BASE", opens="abpresheaf"),
    ("objects", "category"): _Line("NAMES", "objects NAME ...", _Block.add_objects),
    ("mor", "category"): _Line("NAME : NAME -> NAME", "mor NAME : SRC -> TGT", _Block.add_arrow),
    ("compose", "category"): _Line("PAIR = NAME", "compose g.f = h", _Block.add_composite),
    ("inverse", "category"): _Line("NAME = NAME", "inverse f = g", _Block.add_inverse),
    ("cover", "category"): _Line("NAME = { NAMES }", "cover U = { f g }", _Block.add_cover),
    ("at", "spresheaf"): _Line("NAME set NAMES", "at U set e1 e2 ...", _Block.add_at),
    ("at", "psheaf-cat"): _Line("NAME category NAME", "at U category NAME", _Block.add_at),
    ("at", "psheaf-mor"): _Line("NAME obj|mor NAME = NAME", "at U obj|mor a = b", _Block.add_map),
    ("at", "abpresheaf"): _Line("NAME group FACTORS", "at OBJ group Z/2 Z ...", _Block.add_group),
    ("restrict", "spresheaf"): _Line(
        "NAME elem NAME = NAME", "restrict ALPHA elem x = y", _Block.add_map
    ),
    ("restrict", "psheaf-cat"): _Line(
        "NAME obj|mor NAME = NAME", "restrict ALPHA obj|mor a = b", _Block.add_map
    ),
    ("restrict", "abpresheaf"): _Line(
        "NAME matrix MATRIX", "restrict MOR matrix [[..],[..]]", _Block.add_matrix
    ),
}

# each kind's lines by keyword, headers included, so a line costs one lookup
_IN_BLOCK = {
    kind: {kw: line for (kw, k), line in _LINES.items() if k in (kind, None)}
    for kind in {k for _, k in _LINES}
}


def _misplaced(path: str, ln: int, rawline: str, head: str, kind: str | None):
    """The refusal of a line whose keyword no block of this kind takes."""
    kinds = {k for kw, k in _LINES if kw == head}
    if not kinds:
        return BundleSyntaxError(path, ln, f"unknown declaration {head!r}", rawline.index(head) + 1)
    if kinds == {"category"}:
        return BundleSyntaxError(path, ln, f"{head} outside a category block")
    if kind is None:
        return BundleSyntaxError(path, ln, f"{head} outside a block")
    return BundleSyntaxError(path, ln, f"{head} not valid in this block")


def _read(chunks: list[tuple[str, str]]) -> dict[str, dict[str, _Block]]:
    """Every block of the texts by kind and name, in the order declared."""
    blocks: dict[str, dict[str, _Block]] = {kind: {} for kind in _KINDS}
    block = kind = None
    lines = _IN_BLOCK[kind]
    for path, text in chunks:
        for ln, rawline in enumerate(text.splitlines(), start=1):
            toks = rawline.partition("#")[0].split()
            if not toks:
                continue
            head = toks[0]
            line = lines.get(head)
            if line is None:
                raise _misplaced(path, ln, rawline, head, kind)
            if not line.fits(toks):
                raise BundleSyntaxError(path, ln, line.usage)
            if line.opens is None:
                line.store(block, toks, (path, ln))
                continue
            kind = line.opens
            lines = _IN_BLOCK[kind]
            if toks[1] in blocks[kind]:
                raise BundleSyntaxError(path, ln, f"{kind} {toks[1]} already declared")
            block = blocks[kind][toks[1]] = _Block(
                kind, toks[1], (path, ln), toks[3::2], head == "groupoid"
            )
    return blocks


def parse_bundle(paths: list[str]) -> Bundle:
    """Parse and fully validate one or more bundle files."""
    chunks = []
    for p in paths:
        with open(p, "r", encoding="utf-8") as fh:
            chunks.append((p, fh.read()))
    digest = hashlib.sha256()
    for p, text in chunks:
        digest.update(text.encode("utf-8"))
    bundle = Bundle(paths=tuple(paths), content_hash=digest.hexdigest())
    blocks = _read(chunks)
    for kind, (table_name, assemble) in _KINDS.items():
        table = getattr(bundle, table_name)
        for name, b in blocks[kind].items():
            table[name] = assemble(bundle, b)
    return bundle


def _category(bundle: Bundle, b: _Block) -> FiniteCategory:
    b.refuse([
        f"{kind} {x!r} contains {ch!r}, which {names_of} reserve"
        for kind, names in (("object", b.objects), ("morphism", b.arrows))
        for x in names
        if not _RESERVED.keys().isdisjoint(x)
        for ch, names_of in _RESERVED.items()
        if ch in x
    ])
    for m, (s, t) in b.arrows.items():
        if s not in b.objects or t not in b.objects:
            raise BundleNameError(*b.where, f"morphism {m} of {b.name} references unknown objects")
    for (g, f), h in b.compose.items():
        for nm in (g, f, h):
            if nm not in b.arrows and not nm.startswith("id_"):
                raise BundleNameError(*b.where, f"compose line references unknown morphism {nm}")
    cat = build_category(b.objects, b.arrows, b.compose)
    if b.inverses or b.groupoid:
        inv = dict(b.inverses)
        for u in cat.objects:
            inv.setdefault(cat.identity[u], cat.identity[u])
        # inverses of composite mentions must resolve
        for m, w in inv.items():
            if m not in cat.morphisms or w not in cat.morphisms:
                raise BundleNameError(*b.where, f"inverse line of {b.name} references unknown morphism")
        cat = Groupoid(
            objects=cat.objects,
            morphisms=cat.morphisms,
            identity=cat.identity,
            composition=cat.composition,
            inverse=inv,
        )
        b.refuse(_verdict(cat, validate_groupoid))
    else:
        b.refuse(_verdict(cat, validate_category))
    seeds: dict[str, set[Sieve]] = {}
    for u, gen_lists in b.covers.items():
        if u not in cat.objects:
            raise BundleNameError(*b.where, f"cover on unknown object {u}")
        for gens in gen_lists:
            for g in gens:
                if g not in cat.morphisms:
                    raise BundleNameError(*b.where, f"cover generator {g} unknown")
                if cat.target(g) != u:
                    b.refuse([f"cover generator {g} does not target {u}"])
            seeds.setdefault(u, set()).add(
                sieve_from_generators(cat, u, set(gens))
            )
    if seeds:
        bundle.topologies[b.name] = saturate_topology(cat, seeds)
    else:
        bundle.topologies[b.name] = trivial_topology(cat)
    return cat


def _set_presheaf(bundle: Bundle, b: _Block) -> SetValuedFunctor:
    base = b.resolve(bundle.categories, b.refs[0], "over unknown category")
    value = {u: tuple(b.required(b.at, u, f"set at {u}")[0]) for u in base.objects}
    action = {}
    for m in base.morphisms:
        if base.is_identity(m):
            action[m] = {e: e for e in value[base.target(m)]}
        else:
            action[m] = dict(b.required(b.maps, ("elem", m), f"action for {m}"))
    pre = make_presheaf(base, value, action)
    b.refuse(_verdict(pre, validate_set_functor))
    return pre


def _psheaf_cat(bundle: Bundle, b: _Block) -> PresheafOfCategories:
    base = b.resolve(bundle.categories, b.refs[0], "over unknown category")
    value = {}
    for u in base.objects:
        (fib_name,), where = b.required(b.at, u, f"fibre at {u}")
        if fib_name not in bundle.categories:
            raise BundleNameError(*where, f"unknown fibre category {fib_name}")
        value[u] = bundle.categories[fib_name]
    restriction = {}
    for alpha, (v, u) in base.morphisms.items():
        if base.is_identity(alpha):
            restriction[alpha] = identity_functor(value[u])
        else:
            restriction[alpha] = _declared_functor(value[u], value[v], b, alpha, f"restrict {alpha}")
    all_groupoids = all(isinstance(f, Groupoid) for f in value.values())
    cls = PresheafOfGroupoids if all_groupoids else PresheafOfCategories
    pc = cls(site=base, value=value, restriction=restriction)
    b.refuse(_verdict(pc, validate_presheaf_of_categories))
    return pc


def _psheaf_mor(bundle: Bundle, b: _Block) -> MorphismOfPresheavesOfCategories:
    dom, cod = (
        b.resolve(bundle.presheaves_of_categories, name, "references unknown presheaves")
        for name in b.refs
    )
    # the components are read off the domain's site, at which cod has
    # fibres only when it lives on the same site
    if dom.site != cod.site:
        b.refuse(["domain and codomain live on different sites"])
    components = {
        u: _declared_functor(dom.value[u], cod.value[u], b, u, f"at {u}")
        for u in dom.site.objects
    }
    mor = MorphismOfPresheavesOfCategories(domain=dom, codomain=cod, components=components)
    b.refuse(_verdict(mor, validate_morphism_of_presheaves))
    return mor


def _abelian_presheaf(bundle: Bundle, b: _Block) -> AbelianPresheaf:
    (over,) = b.refs
    if over in bundle.presheaves_of_categories:
        base = bundle.fibred_site(over).total
    else:
        base = b.resolve(bundle.categories, over, f"over unknown base {over}")
    group = {}
    for x in base.objects:
        factors, _ = b.required(b.at, x, f"group at {x}")
        # matrices index the generators in the order written, so the
        # line must already be in invariant-factor order
        try:
            group[x] = FgAbelianGroup(factors=tuple(factors))
        except InputError:
            canonical = FgAbelianGroup.from_orders(factors).factors
            b.refuse([
                f"at {x}: group {_group_tokens(factors)} is not in canonical"
                f" form {_group_tokens(canonical)}"
            ])
    restriction = {}
    for m in base.morphisms:
        if base.is_identity(m):
            restriction[m] = identity_matrix(group[base.source(m)].generator_count)
        else:
            mat = b.required(b.matrices, m, f"matrix for {m}")
            restriction[m] = tuple(tuple(r) for r in mat)
    ab = AbelianPresheaf(base=base, group=group, restriction=restriction)
    b.refuse(_verdict(ab, validate_abelian_presheaf))
    bundle.abelian_base[b.name] = over
    return ab


# each block kind: the Bundle table its blocks go to and their assembler,
# in the order parse_bundle runs them
_KINDS = {
    "category": ("categories", _category),
    "spresheaf": ("set_presheaves", _set_presheaf),
    "psheaf-cat": ("presheaves_of_categories", _psheaf_cat),
    "psheaf-mor": ("psheaf_morphisms", _psheaf_mor),
    "abpresheaf": ("abelian_presheaves", _abelian_presheaf),
}


def _declared_functor(
    dom: FiniteCategory, cod: FiniteCategory, b: _Block, x: str, where: str
) -> Functor:
    """The functor dom -> cod that block b's obj and mor lines at x declare.

    Every object must be mapped; identities map to the identity of the
    image object unless a line maps them, and every other morphism must be
    mapped.  The result is not validated here.
    """
    obj_map = dict(b.maps.get(("obj", x), {}))
    missing = [y for y in dom.objects if y not in obj_map]
    if missing:
        b.refuse([f"{where}: objects {missing} unmapped"])
    mor_map = dict(b.maps.get(("mor", x), {}))
    for y in dom.objects:
        mor_map.setdefault(dom.identity[y], cod.identity.get(obj_map[y], ""))
    missing = [m for m in dom.morphisms if m not in mor_map]
    if missing:
        b.refuse([f"{where}: morphisms {missing} unmapped"])
    return Functor(domain=dom, codomain=cod, object_map=obj_map, morphism_map=mor_map)


def emit_bundle(bundle: Bundle) -> str:
    """Render a bundle back into the declarative format (canonical order).

    A topology is written as one ``cover`` line per object whose least cover
    is not maximal, listing its members; parsing saturates those lines back
    to the same least covers.
    """
    lines: list[str] = []
    for name in sorted(bundle.categories):
        cat = bundle.categories[name]
        lines.append(("groupoid " if isinstance(cat, Groupoid) else "category ") + name)
        lines.append("objects " + " ".join(sorted(cat.objects)))
        for m in sorted(cat.morphisms):
            if cat.is_identity(m):
                continue
            s, t = cat.morphisms[m]
            lines.append(f"mor {m} : {s} -> {t}")
        for (g, f), h in sorted(cat.composition.items()):
            if cat.is_identity(g) or cat.is_identity(f):
                continue
            lines.append(f"compose {g}.{f} = {h}")
        if isinstance(cat, Groupoid):
            for m in sorted(cat.morphisms):
                if not cat.is_identity(m):
                    lines.append(f"inverse {m} = {cat.inverse[m]}")
        topo = bundle.topologies.get(name)
        if topo is not None:
            least = topo.checked_least()
            for u in sorted(cat.objects):
                lu = least[u]
                if lu != maximal_sieve(cat, u):  # a maximal least cover is implicit
                    lines.append(f"cover {u} = {{ " + " ".join(sorted(lu.members)) + " }")
        lines.append("")
    for name in sorted(bundle.set_presheaves):
        pre = bundle.set_presheaves[name]
        over = bundle.name_of("category", pre.base)
        lines.append(f"spresheaf {name} over {over}")
        for u in sorted(pre.base.objects):
            lines.append(f"at {u} set " + " ".join(pre.value[u]))
        for m in sorted(pre.base.morphisms):
            if pre.base.is_identity(m):
                continue
            for e in pre.value[pre.base.target(m)]:
                lines.append(f"restrict {m} elem {e} = {pre.act(m, e)}")
        lines.append("")
    for name in sorted(bundle.presheaves_of_categories):
        pc = bundle.presheaves_of_categories[name]
        over = bundle.name_of("category", pc.site)
        lines.append(f"psheaf-cat {name} over {over}")
        for u in sorted(pc.site.objects):
            lines.append(f"at {u} category " + bundle.name_of("category", pc.value[u]))
        for alpha in sorted(pc.site.morphisms):
            if pc.site.is_identity(alpha):
                continue
            r = pc.restriction[alpha]
            for x in sorted(r.object_map):
                lines.append(f"restrict {alpha} obj {x} = {r.object_map[x]}")
            for m in sorted(r.morphism_map):
                if r.domain.is_identity(m):
                    continue
                lines.append(f"restrict {alpha} mor {m} = {r.morphism_map[m]}")
        lines.append("")
    for name in sorted(bundle.psheaf_morphisms):
        mor = bundle.psheaf_morphisms[name]
        dom = bundle.name_of("psheaf-cat", mor.domain)
        cod = bundle.name_of("psheaf-cat", mor.codomain)
        lines.append(f"psheaf-mor {name} : {dom} -> {cod}")
        for u in sorted(mor.domain.site.objects):
            comp = mor.components[u]
            for x in sorted(comp.object_map):
                lines.append(f"at {u} obj {x} = {comp.object_map[x]}")
            for m in sorted(comp.morphism_map):
                if comp.domain.is_identity(m):
                    continue
                lines.append(f"at {u} mor {m} = {comp.morphism_map[m]}")
        lines.append("")
    for name in sorted(bundle.abelian_presheaves):
        ab = bundle.abelian_presheaves[name]
        lines.append(f"abpresheaf {name} over {bundle.abelian_base[name]}")
        for x in sorted(ab.base.objects):
            lines.append(f"at {x} group {_group_tokens(ab.group[x].factors)}")
        for m in sorted(ab.base.morphisms):
            if ab.base.is_identity(m):
                continue
            mat = json.dumps([list(r) for r in ab.restriction[m]], separators=(",", ":"))
            lines.append(f"restrict {m} matrix {mat}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def _group_tokens(factors) -> str:
    return " ".join("Z" if f == 0 else f"Z/{f}" for f in factors)
