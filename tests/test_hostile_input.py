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
from fibsite.fibred import (
    constant_enriched_diagram,
    constant_presheaf_of_categories,
    free_enrichment,
    object_restriction,
)
from fibsite.fincat import cyclic_groupoid, poset_chain, terminal_category
from fibsite.sampling import random_diagram, random_enriched_diagram, random_over_nerve
from fibsite.sset import (
    TruncatedSimplicialSet,
    disjoint_union_ssets,
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


def _line(draw, keyword: str, line, names: tuple[str, ...], seen: list[str]) -> str:
    """A line of this kind, its shape's slots (see ``bundle._REST``) drawn.

    The names a header or objects line declares are new, and an arrow's
    name is any of the bundle's; every other name repeats one already
    written half of the time, so that lines refer to what others declare.
    """

    def name() -> str:
        fresh = [w for w in names if w not in seen]
        if fresh and (keyword == "objects" or line.opens and len(words) == 1):
            word = draw(st.sampled_from(fresh))
        elif keyword == "mor" and len(words) == 1:
            word = draw(st.sampled_from(names))
        else:
            word = draw(st.sampled_from(seen if seen and draw(st.booleans()) else names))
        seen.append(word)
        return word

    words = [keyword]
    for slot in line.shape:
        if slot == "NAME":
            words.append(name())
        elif slot == "PAIR":
            words.append(f"{name()}.{name()}")
        elif slot == "NAMES":
            words += [name() for _ in range(draw(st.integers(0, 3)))]
        elif slot == "FACTORS":
            words += draw(st.lists(FACTORS, max_size=2))
        elif slot == "MATRIX":
            words.append(draw(MATRICES))
        else:
            words.append(draw(st.sampled_from(slot.split("|"))))
    return " ".join(words)


@st.composite
def grammar_bundles(draw) -> str:
    """Blocks of each kind in turn, categories first; every line well formed."""
    hostile = draw(st.sampled_from(HOSTILE))
    names = (*PLAIN, hostile, hostile, hostile)  # a quarter of the draws
    lines: list[str] = []
    seen: list[str] = []
    for (keyword, kind), header in _LINES.items():
        if kind is not None:
            continue
        body = [(kw, line) for (kw, k), line in _LINES.items() if k == header.opens]
        for _ in range(draw(st.integers(1 if keyword == "category" else 0, 2))):
            lines.append(_line(draw, keyword, header, names, seen))
            for _ in range(draw(st.integers(0, 6))):
                lines.append(_line(draw, *draw(st.sampled_from(body)), names, seen))
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
