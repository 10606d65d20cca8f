"""Hostile input: token-level mutants of the shipped bundles through every command.

Exit codes 0-5 are the whole contract between ``run`` and its caller, and a
traceback out of ``run`` would reach a shell as exit 1, which reads as a
failed check.  Each example mutates one shipped bundle by deleting,
duplicating or swapping lines or tokens, then runs each of the ten commands
on it in-process, with names drawn from what the mutant declares.  Every
file in ``bundles/`` seeds the mutants, the refused ones too, and an
example may leave its seed unchanged.  A crash is mended where it arises,
never by a catch-all in ``run``.  The public builders are held to the same
rule: a malformed input raises ``InputError`` or ``ValidationFailure``,
never ``KeyError``.
"""

import contextlib
import dataclasses
import io
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibsite import hocopb, sset
from fibsite.bundle import (
    _LINES,
    BundleNameError,
    BundleSyntaxError,
    BundleValidationError,
    parse_bundle,
)
from fibsite.cli import COMMANDS, run
from fibsite.errors import InputError, ValidationFailure
from fibsite.cohom import ZZ, constant_abelian_presheaf, invariance_report
from fibsite.fibred import (
    MorphismOfPresheavesOfCategories,
    constant_enriched_diagram,
    constant_presheaf_of_categories,
    free_enrichment,
    grothendieck_construct,
    object_restriction,
)
from fibsite.fincat import Functor, Groupoid, cyclic_groupoid, poset_chain, terminal_category
from fibsite.sampling import (
    random_diagram,
    random_enriched_diagram,
    random_groupoid,
    random_over_nerve,
    random_sectionwise_equivalence,
)
from fibsite.sset import (
    TruncatedSimplicialSet,
    disjoint_union_ssets,
    homology,
    nerve,
    standard_simplex,
    validate_simplicial,
)

BUNDLES = Path(__file__).resolve().parents[1] / "bundles"
TEXTS = [path.read_text() for path in sorted(BUNDLES.glob("*.bundle"))]

# the keyword lines that declare what each option names
DECLARES = {
    "--psheaf": "psheaf-cat",
    "--category": "category|groupoid",
    "--presheaf": "spresheaf",
    "--coeffs": "abpresheaf",
    "--mor": "psheaf-mor",
    "--object": "objects",
    "--cover": "mor",
}


@st.composite
def mutants(draw) -> str:
    text = draw(st.sampled_from(TEXTS))
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(("delete", "duplicate", "swap")))
        if draw(st.booleans()):
            # a whole line
            if op == "delete" and len(lines) > 1:
                del lines[i]
            elif op == "duplicate":
                lines.insert(i, list(lines[i]))
            else:
                lines[i], lines[j] = lines[j], lines[i]
            continue
        k = draw(st.integers(0, len(lines[i]) - 1))
        if op == "delete" and len(lines[i]) > 1:
            del lines[i][k]
        elif op == "duplicate":
            lines[i].insert(k, lines[i][k])
        else:
            h = draw(st.integers(0, len(lines[j]) - 1))
            lines[i][k], lines[j][h] = lines[j][h], lines[i][k]
    return "".join(" ".join(ln) + "\n" for ln in lines)


def _declared(text: str, option: str) -> list[str]:
    out = []
    for line in text.splitlines():
        m = re.match(rf"(?:{DECLARES[option]})\s+(.*)", line)
        if m:
            words = m.group(1).split()
            out += words if option == "--object" else words[:1]
    return out


def _commands(draw, path: str, text: str) -> list[list[str]]:
    tokens = sorted(set(text.split())) or ["x"]

    def name(option: str) -> list[str]:
        return [option, draw(st.sampled_from(_declared(text, option) or tokens))]

    def maybe(option: str) -> list[str]:
        return name(option) if draw(st.booleans()) else []

    return [
        ["validate", path],
        ["fibred-build", path, *name("--psheaf")],
        ["topology-check", path, *maybe("--psheaf"), *maybe("--category")],
        ["sheaf-check", path, *name("--presheaf"), "--sheafify"],
        ["cohomology", path, *name("--psheaf"), *name("--coeffs"), "--nmax", "1"],
        ["cech", path, *name("--coeffs"), *name("--object"), *maybe("--cover"),
         *maybe("--psheaf"), "--nmax", "1"],
        ["adjunction-check", path, *name("--psheaf"), "--count", "1", "--truncation", "3"],
        ["invariance-check", path, *name("--mor"), *maybe("--coeffs"), "--nmax", "1"],
        ["homology", path, *name("--category"), "--truncation", "3", "--top", "1"],
        ["nerve-export", path, *name("--category"), "--truncation", "2"],
    ]


@pytest.fixture(scope="module")
def bundle_path(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("hostile") / "mutant.bundle"


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(text=mutants(), data=st.data())
def test_every_command_exits_with_a_documented_code(bundle_path, text, data):
    bundle_path.write_text(text)
    argvs = _commands(data.draw, str(bundle_path), text)
    assert [argv[0] for argv in argvs] == list(COMMANDS)
    for argv in argvs:
        with contextlib.redirect_stderr(io.StringIO()):
            code = run([*argv, "--max-strings", "5000"], stdout=io.StringIO())
        assert code in range(6), (argv, code)


# ---------------------------------------------------------------------------
# bundles written line by line from the grammar table, with hostile names

# each bundle draws its names from a few plain ones and one hostile name,
# which holds a character of pair or comma-arrow names, is not ASCII, or
# spells an identity or a composite; a name may name an object and an arrow
PLAIN = ("U", "V", "W", "a", "b", "s", "t", "C", "D")
HOSTILE = ("a|b", "(U|V)", "(a|a)", "(U", "V)", "s>a", "é", "λ", "Ω", "id_U", "id_V", "a.a")
FACTORS = st.sampled_from(("Z", "Z/2", "Z/3", "Z/4"))
MATRICES = st.sampled_from(("[[1]]", "[[0]]", "[[-1]]", "[]", "[[1,0],[0,1]]", "[[1],[0]]", "[[2,1]]"))


# The role of each name slot (NAME, PAIR or NAMES) of each grammar line, in
# order.  A role with a + declares a name; "site" names a category whose
# objects and arrows the block's lines then refer to, and "source" a
# psheaf-cat whose site they refer to; "+at" is an object of the site that
# no at line of the block names yet; "fibre" is an object of a fibre of the
# block's psheaf-cat after obj, and an arrow after mor.
ROLES = {
    ("category", None): ("+category",),
    ("groupoid", None): ("+category",),
    ("spresheaf", None): ("+spresheaf", "site"),
    ("psheaf-cat", None): ("+psheaf-cat", "site"),
    ("psheaf-mor", None): ("+psheaf-mor", "source", "psheaf-cat"),
    ("abpresheaf", None): ("+abpresheaf", "site"),
    ("objects", "category"): ("+object",),
    ("mor", "category"): ("+arrow", "object", "object"),
    ("compose", "category"): ("arrow", "arrow"),
    ("inverse", "category"): ("arrow", "arrow"),
    ("cover", "category"): ("object", "arrow"),
    ("at", "spresheaf"): ("+at", "+element"),
    ("at", "psheaf-cat"): ("+at", "category"),
    ("at", "psheaf-mor"): ("object", "fibre", "fibre"),
    ("at", "abpresheaf"): ("+at",),
    ("restrict", "spresheaf"): ("arrow", "element", "element"),
    ("restrict", "psheaf-cat"): ("arrow", "fibre", "fibre"),
    ("restrict", "abpresheaf"): ("arrow",),
}
assert ROLES.keys() == _LINES.keys()


class _Declared:
    """The names a grammar bundle has declared so far, by role."""

    def __init__(self):
        self.names: dict[str, list[str]] = {}  # a + role without its + -> names
        self.cats: dict[str, dict] = {}  # category -> {"object": [...], "arrow": [...]}
        self.sites: dict[str, str] = {}  # psheaf-cat -> the category it is over
        self.fibres: dict[str, list[str]] = {}  # psheaf-cat -> its fibre categories
        self.block = ""  # the psheaf-cat a psheaf-cat or psheaf-mor block is about
        self.here = {"object": [], "arrow": []}  # what object and arrow lines refer to

    def known(self, role: str, words: list[str]) -> list[str]:
        if role == "fibre":
            kind = "object" if "obj" in words else "arrow"
            fibres = [self.cats[c] for c in self.fibres.get(self.block, ()) if c in self.cats]
            return [w for cat in fibres for w in self._of(cat, kind)]
        if role in self.here:
            return self._of(self.here, role)
        if role == "at":
            return [x for x in self.here["object"] if x not in self.names.get(role, ())]
        return self.names.get({"site": "category", "source": "psheaf-cat"}.get(role, role), [])

    @staticmethod
    def _of(cat: dict, kind: str) -> list[str]:
        # an arrow may also be the identity of an object
        return cat[kind] + ([f"id_{x}" for x in cat["object"]] if kind == "arrow" else [])

    def record(self, role: str, word: str, words: list[str]) -> None:
        if role.startswith("+"):
            self.names.setdefault(role[1:], []).append(word)
        if role == "+category":
            self.here = self.cats.setdefault(word, {"object": [], "arrow": []})
        elif role in ("+object", "+arrow"):
            self.here[role[1:]].append(word)
        elif role == "site":
            self.here = self.cats.get(word, {"object": [], "arrow": []})
            self.names["at"] = []
            self.block = words[1]
            self.sites[self.block] = word
        elif role == "source":
            self.here = self.cats.get(self.sites.get(word), {"object": [], "arrow": []})
            self.names["at"] = []
            self.block = word
        elif role == "category" and words[0] == "at":
            self.fibres.setdefault(self.block, []).append(word)


def _line(draw, key: tuple, line, names: tuple[str, ...], seen: list[str], declared: _Declared) -> str:
    """A line of this kind, its shape's slots (see ``bundle._REST``) drawn.

    A name a line declares is new in its role while the bundle's names
    last.  In seven lines of eight, a new arrow is no object either, and
    every other name is one already declared in its slot's role (see
    ``ROLES``).  In the rest, an arrow may share an object's name, and any
    other name repeats one already written half of the time.
    """
    roles = iter(ROLES[key])
    faithful = draw(st.integers(0, 7)) < 7

    def name(role: str) -> str:
        known = declared.known(role.lstrip("+"), words)
        if role == "+arrow" and faithful:
            known += declared.known("object", words)
        if role == "+at":
            word = draw(st.sampled_from(known if known and faithful else names))
        elif role.startswith("+"):
            word = draw(st.sampled_from([w for w in names if w not in known] or names))
        elif known and faithful:
            word = draw(st.sampled_from(known))
        else:
            word = draw(st.sampled_from(seen if seen and draw(st.booleans()) else names))
        declared.record(role, word, words)
        seen.append(word)
        return word

    words = [key[0]]
    for slot in line.shape:
        if slot == "NAME":
            words.append(name(next(roles)))
        elif slot == "PAIR":
            role = next(roles)
            words.append(f"{name(role)}.{name(role)}")
        elif slot == "NAMES":
            role = next(roles)
            words += [name(role) for _ in range(draw(st.integers(0, 3)))]
        elif slot == "FACTORS":
            words += draw(st.lists(FACTORS, max_size=2))
        elif slot == "MATRIX":
            words.append(draw(MATRICES))
        else:
            words.append(draw(st.sampled_from(slot.split("|"))))
    return " ".join(words)


@st.composite
def grammar_bundles(draw) -> str:
    """One or two blocks of each kind in turn, categories first; every line
    well formed.  Hypothesis tries the simplest draws first, so the least
    of each draw is the coherent choice: a line of declared names, one
    block of a kind, a block of its first kind of line only."""
    hostile = draw(st.sampled_from(HOSTILE))
    names = (*PLAIN, hostile, hostile, hostile)  # a quarter of the draws
    lines: list[str] = []
    seen: list[str] = []
    declared = _Declared()
    for key, header in _LINES.items():
        if key[1] is not None:
            continue
        body = [k for k in _LINES if k[1] == header.opens]
        for _ in range(draw(st.integers(1, 2))):
            lines.append(_line(draw, key, header, names, seen, declared))
            # the block's first kind of line (objects, or at) and up to six
            # more, in the table's order, so that what a line declares comes
            # first; a third of the blocks use only that first kind, and a
            # third the first two (a category: objects and arrows, no laws)
            width = draw(st.sampled_from((1, 2, len(body))))
            kinds = [body[0], *draw(st.lists(st.sampled_from(body[:width]), max_size=6))]
            for k in sorted(kinds, key=body.index):
                lines.append(_line(draw, k, _LINES[k], names, seen, declared))
    return "".join(line + "\n" for line in lines)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(text=grammar_bundles())
def test_grammar_built_bundles_are_parsed_or_refused(bundle_path, text):
    bundle_path.write_text(text, encoding="utf-8")
    with contextlib.suppress(BundleSyntaxError, BundleNameError, BundleValidationError):
        parse_bundle([str(bundle_path)])
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(["validate", str(bundle_path)], stdout=io.StringIO())
    assert code in (0, 2, 3), (text, code)
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# malformed input to the public builders


def _drop_one_entry(table: dict) -> None:
    del table[min(table, key=repr)]


def test_hocolim_reports_a_value_missing_a_degeneracy_entry():
    a = random_diagram(random.Random(1), cyclic_groupoid(2), 3)
    # in place, so the actions still start at the broken value
    _drop_one_entry(a.value[min(a.value)].degeneracies[(1, 0)])
    with pytest.raises(InputError, match="degeneracy maps in degree 1 lack"):
        hocopb.hocolim(a, 3)


def test_pb_reports_a_total_missing_a_degeneracy_entry():
    x = random_over_nerve(random.Random(2), cyclic_groupoid(2), 3)
    _drop_one_entry(x.total.degeneracies[(1, 0)])
    with pytest.raises(InputError, match="degeneracy maps in degree 1 lack"):
        hocopb.pb(x)


@pytest.mark.parametrize("over", ["outside", "empty"])
def test_free_enrichment_refuses_a_structure_map_off_the_base(over):
    # every element over a fibre object the base does not hold, or over
    # nothing at all: the first once gave all-empty values, the second a
    # KeyError
    a = constant_presheaf_of_categories(terminal_category(), cyclic_groupoid(2))
    x0 = object_restriction(constant_enriched_diagram(a, ("0", "1")))
    broken = {
        u: {e: "zz" for e in fib} if over == "outside" else {} for u, fib in x0.over.items()
    }
    with pytest.raises(ValidationFailure, match="structure map at"):
        free_enrichment(a, dataclasses.replace(x0, over=broken))


def test_object_restriction_refuses_a_site_action_off_its_values():
    # the site action along U0 -> U1 sends e to an element U0 does not hold;
    # unchecked, the over-presheaf's action escaped its value set
    a = constant_presheaf_of_categories(poset_chain(["U0", "U1"]), terminal_category())
    x = constant_enriched_diagram(a, ("e",))
    site_action = {**x.site_action, ("a_U0_U1", "*"): {"e": "zz"}}
    with pytest.raises(ValidationFailure, match="wrong codomain"):
        object_restriction(dataclasses.replace(x, site_action=site_action))


def _simplex_with(change: str) -> TruncatedSimplicialSet:
    """The 1-simplex at truncation 2, as a caller's dicts, with one entry broken."""
    good = standard_simplex(1, 2)
    faces = {key: dict(m) for key, m in good.faces.items()}
    degeneracies = {key: dict(m) for key, m in good.degeneracies.items()}
    if change == "face escapes":
        faces[(1, 0)][(0, 1)] = ("stray",)
    elif change == "degeneracy escapes":
        degeneracies[(0, 0)][(0,)] = ("stray",)
    else:
        del faces[(1, 0)][(0, 1)]
    return TruncatedSimplicialSet(
        dim=2, simplices=good.simplices, faces=faces, degeneracies=degeneracies
    )


@pytest.mark.parametrize("change,report", [
    ("face escapes", r"piece b: face \(1,0\) escapes degree 0"),
    ("degeneracy escapes", r"piece b: degeneracy \(0,0\) escapes degree 1"),
    ("face entry missing", r"piece b: face \(1,0\) missing or wrongly indexed"),
])
def test_disjoint_union_refuses_a_bad_caller_piece(change, report):
    # the union's level is read off a caller's dicts, so a bad piece is
    # refused before it is read; unchecked, an escaping face once rode into
    # the union and a missing entry raised KeyError
    with pytest.raises(ValidationFailure, match=report):
        disjoint_union_ssets([standard_simplex(0, 2), _simplex_with(change)], ["a", "b"])


def test_disjoint_union_trusts_library_pieces_and_validates_a_callers(monkeypatch):
    validated = []

    def recording(s):
        validated.append(s)
        return validate_simplicial(s)

    monkeypatch.setattr(sset, "validate_simplicial", recording)
    inner, _ = disjoint_union_ssets([standard_simplex(1, 2)], ["i"])
    library = [standard_simplex(2, 2), nerve(cyclic_groupoid(2), 2), inner]
    disjoint_union_ssets(library, ["s", "n", "u"])
    assert validated == []
    caller = dataclasses.replace(standard_simplex(1, 2))
    disjoint_union_ssets([*library, caller], ["s", "n", "u", "c"])
    assert validated == [caller]
    with pytest.raises(InputError, match="tags repeat"):
        disjoint_union_ssets(library[:2], ["s", "s"])


def test_enriched_counit_refuses_a_truncation_other_than_its_values():
    # the counit is built at the values' truncation; a lower d once
    # returned it at the full one
    x = random_enriched_diagram(random.Random(1), poset_chain(["V", "U"]), 4)
    with pytest.raises(InputError, match="values' truncation, not at 2"):
        hocopb.enriched_counit(x, 2)
    assert {m.domain.dim for m in hocopb.enriched_counit(x, 4).values()} == {4}


# ---------------------------------------------------------------------------
# renamed inputs: nothing reads meaning into a name


def _renamed(c, rename: dict):
    """c with every object and morphism x renamed to rename[x]."""
    fields = {
        "objects": tuple(rename[x] for x in c.objects),
        "morphisms": {rename[m]: (rename[s], rename[t]) for m, (s, t) in c.morphisms.items()},
        "identity": {rename[x]: rename[i] for x, i in c.identity.items()},
        "composition": {(rename[g], rename[f]): rename[h] for (g, f), h in c.composition.items()},
    }
    if isinstance(c, Groupoid):
        fields["inverse"] = {rename[m]: rename[n] for m, n in c.inverse.items()}
    return type(c)(**fields)


@st.composite
def renamings(draw, *categories) -> list[dict]:
    """One injective renaming per category, into names that hold pair and
    comma-arrow characters and non-ASCII letters, objects apart from
    morphisms; a name holds '|' in about one example in five."""
    alphabet = "ab(.)>éλΩ" + ("|" if draw(st.integers(0, 4)) == 0 else "")
    out = []
    for c in categories:
        items = [*c.objects, *c.morphisms]
        names = draw(st.lists(
            st.text(alphabet, min_size=1, max_size=4), min_size=len(items), max_size=len(items), unique=True
        ))
        out.append(dict(zip(items, names)))
    return out


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**16), data=st.data())
def test_renamed_groupoids_and_equivalences_keep_their_invariants(seed, data):
    rng = random.Random(seed)
    g = random_groupoid(rng)
    (names,) = data.draw(renamings(g))
    assert homology(nerve(_renamed(g, names), 3), 2).factors == homology(nerve(g, 3), 2).factors

    m, h = random_sectionwise_equivalence(rng, max_site_objects=2)
    site, fibre = h.site, h.value[next(iter(h.site.objects))]
    comp = m.components[next(iter(site.objects))]
    on_site, on_fibre, on_domain = data.draw(renamings(site, fibre, comp.domain))
    new_site = _renamed(site, on_site)
    functor = Functor(
        domain=_renamed(comp.domain, on_domain),
        codomain=_renamed(fibre, on_fibre),
        object_map={on_domain[x]: on_fibre[y] for x, y in comp.object_map.items()},
        morphism_map={on_domain[x]: on_fibre[y] for x, y in comp.morphism_map.items()},
    )
    renamed = MorphismOfPresheavesOfCategories(
        domain=constant_presheaf_of_categories(new_site, functor.domain),
        codomain=constant_presheaf_of_categories(new_site, functor.codomain),
        components={u: functor for u in new_site.objects},
    )

    def factors(mor):
        total = grothendieck_construct(mor.codomain).total
        report = invariance_report(mor, constant_abelian_presheaf(total, ZZ), 2)
        return report.source, report.target

    try:
        assert factors(renamed) == factors(m)
    except InputError as err:
        assert "'|'" in str(err) and any("|" in n for d in (on_site, on_fibre, on_domain) for n in d.values())
