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

Identity morphisms are created automatically and named ``id_<object>``; the
parser rejects attempts to redefine them.  Declared object and morphism
names may not contain ``|``, ``(`` or ``)``, which the pair names of total
objects and arrows use, nor ``>``, which comma arrow names use.  Every block
is validated after
parsing; validation failures surface as BundleValidationError with the
structure's own report attached.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .cohom import AbelianPresheaf, FgAbelianGroup
from .errors import FibsiteError, InputError
from .fibred import (
    FibredSite,
    MorphismOfPresheavesOfCategories,
    PresheafOfCategories,
    PresheafOfGroupoids,
    _grothendieck_construct,
    validate_morphism_of_presheaves,
    validate_presheaf_of_categories,
)
from .fincat import (
    FiniteCategory,
    Functor,
    Groupoid,
    validate_category,
    validate_groupoid,
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
from .fincat import SetValuedFunctor, validate_set_functor


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
    """Parsed, validated contents of one or more bundle files."""

    categories: dict[str, FiniteCategory] = field(default_factory=dict)
    topologies: dict[str, GrothendieckTopology] = field(default_factory=dict)
    set_presheaves: dict[str, SetValuedFunctor] = field(default_factory=dict)
    presheaves_of_categories: dict[str, PresheafOfCategories] = field(default_factory=dict)
    psheaf_morphisms: dict[str, MorphismOfPresheavesOfCategories] = field(default_factory=dict)
    abelian_presheaves: dict[str, AbelianPresheaf] = field(default_factory=dict)
    abelian_base: dict[str, str] = field(default_factory=dict)
    paths: tuple[str, ...] = ()
    content_hash: str = ""
    # total site of each psheaf-cat, built on first use by fibred_site
    fibred_sites: dict[str, FibredSite] = field(
        default_factory=dict, compare=False, repr=False
    )

    def fibred_site(self, name: str) -> FibredSite:
        """The total site of the psheaf-cat `name`, built once per bundle.

        parse_bundle has validated the psheaf-cat, so it is not checked again.
        """
        fs = self.fibred_sites.get(name)
        if fs is None:
            fs = _grothendieck_construct(self.presheaves_of_categories[name])
            self.fibred_sites[name] = fs
        return fs

    def structural_key(self):
        return (
            self.categories,
            {k: v.least for k, v in self.topologies.items()},
            self.set_presheaves,
            self.presheaves_of_categories,
            {
                k: (m.domain, m.codomain, m.components)
                for k, m in self.psheaf_morphisms.items()
            },
            self.abelian_presheaves,
            self.abelian_base,
        )

    def __eq__(self, other):
        if not isinstance(other, Bundle):
            return NotImplemented
        return self.structural_key() == other.structural_key()


@dataclass
class _RawCategory:
    name: str
    path: str
    line: int
    groupoid: bool = False
    objects: list[str] = field(default_factory=list)
    arrows: dict[str, tuple[str, str]] = field(default_factory=dict)
    compose: dict[tuple[str, str], str] = field(default_factory=dict)
    inverses: dict[str, str] = field(default_factory=dict)
    covers: dict[str, list[list[str]]] = field(default_factory=dict)


def _parse_group_token(tok: str, path: str, line: int) -> int:
    if tok == "Z":
        return 0
    if tok.startswith("Z/"):
        try:
            n = int(tok[2:])
        except ValueError:
            raise BundleSyntaxError(path, line, f"bad group factor {tok!r}")
        if n <= 0:
            raise BundleSyntaxError(path, line, f"bad group factor {tok!r}")
        return n
    raise BundleSyntaxError(path, line, f"bad group factor {tok!r} (want Z or Z/n)")


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

    raw_cats: dict[str, _RawCategory] = {}
    raw_sprs: dict[str, dict] = {}
    raw_pcats: dict[str, dict] = {}
    raw_mors: dict[str, dict] = {}
    raw_abs: dict[str, dict] = {}
    current: tuple[str, str] | None = None  # (kind, name)

    rawline = ""

    def syntax(path, ln, msg, token=None):
        column = None
        if token is not None and token in rawline:
            column = rawline.index(token) + 1
        raise BundleSyntaxError(path, ln, msg, column)

    for path, text in chunks:
        for ln, rawline in enumerate(text.splitlines(), start=1):
            lineen = rawline.split("#", 1)[0].strip()
            if not lineen:
                continue
            toks = lineen.split()
            head = toks[0]
            if head in ("category", "groupoid"):
                if len(toks) != 2:
                    syntax(path, ln, f"usage: {head} NAME")
                name = toks[1]
                if name in raw_cats:
                    syntax(path, ln, f"category {name} already declared")
                raw_cats[name] = _RawCategory(
                    name=name, path=path, line=ln, groupoid=(head == "groupoid")
                )
                current = ("category", name)
            elif head == "objects":
                if current is None or current[0] != "category":
                    syntax(path, ln, "objects outside a category block")
                raw_cats[current[1]].objects.extend(toks[1:])
            elif head == "mor":
                if current is None or current[0] != "category":
                    syntax(path, ln, "mor outside a category block")
                # mor f : a -> b
                if len(toks) != 6 or toks[2] != ":" or toks[4] != "->":
                    syntax(path, ln, "usage: mor NAME : SRC -> TGT")
                name, src, tgt = toks[1], toks[3], toks[5]
                rc = raw_cats[current[1]]
                if name in rc.arrows or name.startswith("id_"):
                    syntax(path, ln, f"morphism {name} already declared or reserved")
                rc.arrows[name] = (src, tgt)
            elif head == "compose":
                if current is None or current[0] != "category":
                    syntax(path, ln, "compose outside a category block")
                # compose g.f = h
                if len(toks) != 4 or toks[2] != "=" or "." not in toks[1]:
                    syntax(path, ln, "usage: compose g.f = h")
                g, f = toks[1].split(".", 1)
                raw_cats[current[1]].compose[(g, f)] = toks[3]
            elif head == "inverse":
                if current is None or current[0] != "category":
                    syntax(path, ln, "inverse outside a category block")
                if len(toks) != 4 or toks[2] != "=":
                    syntax(path, ln, "usage: inverse f = g")
                raw_cats[current[1]].inverses[toks[1]] = toks[3]
            elif head == "cover":
                if current is None or current[0] != "category":
                    syntax(path, ln, "cover outside a category block")
                # cover U = { f g }
                if len(toks) < 5 or toks[2] != "=" or toks[3] != "{" or toks[-1] != "}":
                    syntax(path, ln, "usage: cover U = { f g }")
                raw_cats[current[1]].covers.setdefault(toks[1], []).append(toks[4:-1])
            elif head == "spresheaf":
                if len(toks) != 4 or toks[2] != "over":
                    syntax(path, ln, "usage: spresheaf NAME over CATEGORY")
                if toks[1] in raw_sprs:
                    syntax(path, ln, f"spresheaf {toks[1]} already declared")
                raw_sprs[toks[1]] = {"over": toks[3], "line": ln, "path": path,
                                     "sets": {}, "maps": {}}
                current = ("spresheaf", toks[1])
            elif head == "psheaf-cat":
                if len(toks) != 4 or toks[2] != "over":
                    syntax(path, ln, "usage: psheaf-cat NAME over CATEGORY")
                if toks[1] in raw_pcats:
                    syntax(path, ln, f"psheaf-cat {toks[1]} already declared")
                raw_pcats[toks[1]] = {"over": toks[3], "line": ln, "path": path,
                                      "at": {}, "obj": {}, "mor": {}}
                current = ("psheaf-cat", toks[1])
            elif head == "psheaf-mor":
                # psheaf-mor m : A -> B
                if len(toks) != 6 or toks[2] != ":" or toks[4] != "->":
                    syntax(path, ln, "usage: psheaf-mor NAME : A -> B")
                if toks[1] in raw_mors:
                    syntax(path, ln, f"psheaf-mor {toks[1]} already declared")
                raw_mors[toks[1]] = {"dom": toks[3], "cod": toks[5], "line": ln,
                                     "path": path, "obj": {}, "mor": {}}
                current = ("psheaf-mor", toks[1])
            elif head == "abpresheaf":
                if len(toks) != 4 or toks[2] != "over":
                    syntax(path, ln, "usage: abpresheaf NAME over BASE")
                if toks[1] in raw_abs:
                    syntax(path, ln, f"abpresheaf {toks[1]} already declared")
                raw_abs[toks[1]] = {"over": toks[3], "line": ln, "path": path,
                                    "groups": {}, "matrices": {}}
                current = ("abpresheaf", toks[1])
            elif head == "at":
                if current is None:
                    syntax(path, ln, "at outside a block")
                kind, name = current
                if kind == "spresheaf":
                    # at U set s1 s2
                    if len(toks) < 3 or toks[2] != "set":
                        syntax(path, ln, "usage: at U set e1 e2 ...")
                    raw_sprs[name]["sets"][toks[1]] = toks[3:]
                elif kind == "psheaf-cat":
                    if len(toks) != 4 or toks[2] != "category":
                        syntax(path, ln, "usage: at U category NAME")
                    raw_pcats[name]["at"][toks[1]] = (toks[3], ln, path)
                elif kind == "psheaf-mor":
                    # at U obj x = y   |   at U mor f = g
                    if len(toks) != 6 or toks[2] not in ("obj", "mor") or toks[4] != "=":
                        syntax(path, ln, "usage: at U obj|mor a = b")
                    raw_mors[name][toks[2]].setdefault(toks[1], {})[toks[3]] = toks[5]
                elif kind == "abpresheaf":
                    if len(toks) < 3 or toks[2] != "group":
                        syntax(path, ln, "usage: at OBJ group Z/2 Z ...")
                    factors = [
                        _parse_group_token(t, path, ln) for t in toks[3:]
                    ]
                    raw_abs[name]["groups"][toks[1]] = (factors, ln, path)
                else:
                    syntax(path, ln, "at not valid in this block")
            elif head == "restrict":
                if current is None:
                    syntax(path, ln, "restrict outside a block")
                kind, name = current
                if kind == "spresheaf":
                    # restrict alpha elem x = y
                    if len(toks) != 6 or toks[2] != "elem" or toks[4] != "=":
                        syntax(path, ln, "usage: restrict ALPHA elem x = y")
                    raw_sprs[name]["maps"].setdefault(toks[1], {})[toks[3]] = toks[5]
                elif kind == "psheaf-cat":
                    # restrict alpha obj x = y | restrict alpha mor f = g
                    if len(toks) != 6 or toks[2] not in ("obj", "mor") or toks[4] != "=":
                        syntax(path, ln, "usage: restrict ALPHA obj|mor a = b")
                    raw_pcats[name][toks[2]].setdefault(toks[1], {})[toks[3]] = toks[5]
                elif kind == "abpresheaf":
                    # restrict MOR matrix [[...]]
                    if len(toks) < 4 or toks[2] != "matrix":
                        syntax(path, ln, "usage: restrict MOR matrix [[..],[..]]")
                    blob = " ".join(toks[3:])
                    try:
                        mat = json.loads(blob)
                    except json.JSONDecodeError:
                        syntax(path, ln, f"bad matrix literal {blob!r}")
                    if not isinstance(mat, list) or not all(
                        isinstance(r, list) and all(isinstance(x, int) for x in r)
                        for r in mat
                    ):
                        syntax(path, ln, "matrix must be a list of integer rows")
                    raw_abs[name]["matrices"][toks[1]] = (mat, ln, path)
                else:
                    syntax(path, ln, "restrict not valid in this block")
            else:
                syntax(path, ln, f"unknown declaration {head!r}", token=head)

    # assemble categories
    from .fincat import build_category

    for name, rc in raw_cats.items():
        reserved = [
            f"{kind} {x!r} contains {ch!r}, which {names_of} reserve"
            for kind, names in (("object", rc.objects), ("morphism", rc.arrows))
            for x in names
            for ch, names_of in _RESERVED.items()
            if ch in x
        ]
        if reserved:
            raise BundleValidationError(f"category {name}", reserved)
        for m, (s, t) in rc.arrows.items():
            if s not in rc.objects or t not in rc.objects:
                raise BundleNameError(rc.path, rc.line, f"morphism {m} of {name} references unknown objects")
        try:
            cat = build_category(rc.objects, rc.arrows, _resolve_compose(rc))
        except InputError as e:
            raise BundleNameError(rc.path, rc.line, str(e))
        if rc.inverses or rc.groupoid:
            inv = dict(rc.inverses)
            for u in cat.objects:
                inv.setdefault(cat.identity[u], cat.identity[u])
            # inverses of composite mentions must resolve
            for m, w in inv.items():
                if m not in cat.morphisms or w not in cat.morphisms:
                    raise BundleNameError(rc.path, rc.line, f"inverse line of {name} references unknown morphism")
            cat = Groupoid(
                objects=cat.objects,
                morphisms=cat.morphisms,
                identity=cat.identity,
                composition=cat.composition,
                inverse=inv,
            )
            report = validate_groupoid(cat)
        else:
            report = validate_category(cat)
        if report:
            raise BundleValidationError(f"category {name}", report)
        bundle.categories[name] = cat
        seeds: dict[str, set[Sieve]] = {}
        for u, gen_lists in rc.covers.items():
            if u not in set(cat.objects):
                raise BundleNameError(rc.path, rc.line, f"cover on unknown object {u}")
            for gens in gen_lists:
                for g in gens:
                    if g not in cat.morphisms:
                        raise BundleNameError(rc.path, rc.line, f"cover generator {g} unknown")
                    if cat.target(g) != u:
                        raise BundleValidationError(
                            f"category {name}", [f"cover generator {g} does not target {u}"]
                        )
                seeds.setdefault(u, set()).add(
                    sieve_from_generators(cat, u, set(gens))
                )
        if seeds:
            bundle.topologies[name] = saturate_topology(cat, seeds)
        else:
            bundle.topologies[name] = trivial_topology(cat)

    # set presheaves
    for name, blk in raw_sprs.items():
        base = bundle.categories.get(blk["over"])
        if base is None:
            raise BundleNameError(blk["path"], blk["line"], f"spresheaf {name} over unknown category")
        value = {}
        for u in base.objects:
            if u not in blk["sets"]:
                raise BundleValidationError(f"spresheaf {name}", [f"no set at {u}"])
            value[u] = tuple(blk["sets"][u])
        action = {}
        for m in base.morphisms:
            if base.is_identity(m):
                action[m] = {e: e for e in value[base.target(m)]}
            else:
                fn = blk["maps"].get(m)
                if fn is None:
                    raise BundleValidationError(f"spresheaf {name}", [f"no action for {m}"])
                action[m] = dict(fn)
        pre = make_presheaf(base, value, action)
        report = validate_set_functor(pre)
        if report:
            raise BundleValidationError(f"spresheaf {name}", report)
        bundle.set_presheaves[name] = pre

    # presheaves of categories
    for name, blk in raw_pcats.items():
        base = bundle.categories.get(blk["over"])
        if base is None:
            raise BundleNameError(blk["path"], blk["line"], f"psheaf-cat {name} over unknown category")
        value = {}
        for u in base.objects:
            if u not in blk["at"]:
                raise BundleValidationError(f"psheaf-cat {name}", [f"no fibre at {u}"])
            fib_name, ln, path = blk["at"][u]
            fib = bundle.categories.get(fib_name)
            if fib is None:
                raise BundleNameError(path, ln, f"unknown fibre category {fib_name}")
            value[u] = fib
        restriction = {}
        for alpha, (v, u) in base.morphisms.items():
            if base.is_identity(alpha):
                from .fincat import identity_functor

                restriction[alpha] = identity_functor(value[u])
                continue
            restriction[alpha] = _declared_functor(
                value[u], value[v], blk["obj"].get(alpha, {}), blk["mor"].get(alpha, {}),
                f"psheaf-cat {name}", f"restrict {alpha}",
            )
        all_groupoids = all(isinstance(f, Groupoid) for f in value.values())
        cls = PresheafOfGroupoids if all_groupoids else PresheafOfCategories
        pc = cls(site=base, value=value, restriction=restriction)
        report = validate_presheaf_of_categories(pc)
        if report:
            raise BundleValidationError(f"psheaf-cat {name}", report)
        bundle.presheaves_of_categories[name] = pc

    # morphisms of presheaves of categories
    for name, blk in raw_mors.items():
        dom = bundle.presheaves_of_categories.get(blk["dom"])
        cod = bundle.presheaves_of_categories.get(blk["cod"])
        if dom is None or cod is None:
            raise BundleNameError(blk["path"], blk["line"], f"psheaf-mor {name} references unknown presheaves")
        # the components are read off the domain's site, at which cod has
        # fibres only when it lives on the same site
        if dom.site != cod.site:
            raise BundleValidationError(
                f"psheaf-mor {name}", ["domain and codomain live on different sites"]
            )
        components = {
            u: _declared_functor(
                dom.value[u], cod.value[u], blk["obj"].get(u, {}), blk["mor"].get(u, {}),
                f"psheaf-mor {name}", f"at {u}",
            )
            for u in dom.site.objects
        }
        mor = MorphismOfPresheavesOfCategories(
            domain=dom, codomain=cod, components=components
        )
        report = validate_morphism_of_presheaves(mor)
        if report:
            raise BundleValidationError(f"psheaf-mor {name}", report)
        bundle.psheaf_morphisms[name] = mor

    # abelian presheaves
    for name, blk in raw_abs.items():
        over = blk["over"]
        if over in bundle.presheaves_of_categories:
            base = bundle.fibred_site(over).total
        elif over in bundle.categories:
            base = bundle.categories[over]
        else:
            raise BundleNameError(blk["path"], blk["line"], f"abpresheaf {name} over unknown base {over}")
        group = {}
        for x in base.objects:
            if x not in blk["groups"]:
                raise BundleValidationError(f"abpresheaf {name}", [f"no group at {x}"])
            factors, ln, path = blk["groups"][x]
            # matrices index the generators in the order written, so the
            # line must already be in invariant-factor order
            try:
                group[x] = FgAbelianGroup(factors=tuple(factors))
            except InputError:
                canonical = FgAbelianGroup.from_orders(factors).factors
                raise BundleValidationError(f"abpresheaf {name}", [
                    f"at {x}: group {_group_tokens(factors)} is not in canonical"
                    f" form {_group_tokens(canonical)}"
                ])
        restriction = {}
        for m in base.morphisms:
            if base.is_identity(m):
                n = group[base.source(m)].generator_count
                restriction[m] = tuple(
                    tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
                )
            else:
                if m not in blk["matrices"]:
                    raise BundleValidationError(f"abpresheaf {name}", [f"no matrix for {m}"])
                mat, ln, path = blk["matrices"][m]
                restriction[m] = tuple(tuple(r) for r in mat)
        ab = AbelianPresheaf(base=base, group=group, restriction=restriction)
        from .cohom import validate_abelian_presheaf

        report = validate_abelian_presheaf(ab)
        if report:
            raise BundleValidationError(f"abpresheaf {name}", report)
        bundle.abelian_presheaves[name] = ab
        bundle.abelian_base[name] = over
    return bundle


def _declared_functor(
    dom: FiniteCategory,
    cod: FiniteCategory,
    obj_lines: dict[str, str],
    mor_lines: dict[str, str],
    block: str,
    where: str,
) -> Functor:
    """The functor dom -> cod that a block's obj and mor lines declare.

    Every object must be mapped; identities map to the identity of the
    image object unless a line maps them, and every other morphism must be
    mapped.  The result is not validated here.
    """
    obj_map = dict(obj_lines)
    missing = [x for x in dom.objects if x not in obj_map]
    if missing:
        raise BundleValidationError(block, [f"{where}: objects {missing} unmapped"])
    mor_map = dict(mor_lines)
    for x in dom.objects:
        mor_map.setdefault(dom.identity[x], cod.identity.get(obj_map[x], ""))
    missing = [m for m in dom.morphisms if m not in mor_map]
    if missing:
        raise BundleValidationError(block, [f"{where}: morphisms {missing} unmapped"])
    return Functor(domain=dom, codomain=cod, object_map=obj_map, morphism_map=mor_map)


def _resolve_compose(rc: _RawCategory) -> dict[tuple[str, str], str]:
    out = {}
    for (g, f), h in rc.compose.items():
        for nm in (g, f, h):
            if nm not in rc.arrows and not nm.startswith("id_"):
                raise BundleNameError(rc.path, rc.line, f"compose line references unknown morphism {nm}")
        out[(g, f)] = h
    return out


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
        over = _category_name(bundle, pre.base)
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
        over = _category_name(bundle, pc.site)
        lines.append(f"psheaf-cat {name} over {over}")
        for u in sorted(pc.site.objects):
            lines.append(f"at {u} category " + _category_name(bundle, pc.value[u]))
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
        dom = _psheaf_name(bundle, mor.domain)
        cod = _psheaf_name(bundle, mor.codomain)
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


def _category_name(bundle: Bundle, cat: FiniteCategory) -> str:
    # by identity: blocks with equal tables are still two sites, two topologies
    for name, c in bundle.categories.items():
        if c is cat:
            return name
    raise InputError("category not registered in the bundle")


def _psheaf_name(bundle: Bundle, pc: PresheafOfCategories) -> str:
    for name, p in bundle.presheaves_of_categories.items():
        if p is pc:
            return name
    raise InputError("presheaf of categories not registered in the bundle")
