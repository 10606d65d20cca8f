"""Every refusal of the bundle reader and assembler, pinned message by message.

Each row is one minimal bundle and the one exception ``parse_bundle`` raises
on it: the type, the line and column where the error type carries them, and
the full message.  The reader's refusals (``BundleSyntaxError``) come first,
then the assembler's, block kind by block kind, in the order it assembles
them.  A row changes only when a refusal's wording or order is meant to.
"""

import pytest

from fibsite.bundle import (
    BundleNameError,
    BundleSyntaxError,
    BundleValidationError,
    parse_bundle,
)

C1 = "category C\nobjects U\n"
C2 = "category C\nobjects U V\nmor a : V -> U\n"
F2 = "category F\nobjects x y\nmor f : x -> y\n"
# a presheaf of categories over a: V -> U with the fibre x -f-> y at both
PC = C2 + F2 + "psheaf-cat A over C\nat U category F\nat V category F\n"
FULL = "restrict a obj x = x\nrestrict a obj y = y\nrestrict a mor f = f\n"
SP = C2 + "spresheaf P over C\nat U set s\nat V set r\n"
AB = C2 + "abpresheaf F over C\nat U group Z\nat V group Z\n"

# (id, bundle text, exception type, line, column, message after the location)
REFUSALS = [
    # the reader: one line at a time
    ("group-factor-not-an-integer", C1 + "abpresheaf F over C\nat U group Z/x\n",
     BundleSyntaxError, 4, None, "bad group factor 'Z/x'"),
    ("group-factor-zero", C1 + "abpresheaf F over C\nat U group Z/0\n",
     BundleSyntaxError, 4, None, "bad group factor 'Z/0'"),
    ("group-factor-unknown", C1 + "abpresheaf F over C\nat U group Q\n",
     BundleSyntaxError, 4, None, "bad group factor 'Q' (want Z or Z/n)"),
    ("category-usage", "category\n",
     BundleSyntaxError, 1, None, "usage: category NAME"),
    ("groupoid-usage", "groupoid G H\n",
     BundleSyntaxError, 1, None, "usage: groupoid NAME"),
    ("category-again", C1 + "category C\n",
     BundleSyntaxError, 3, None, "category C already declared"),
    ("groupoid-again", C1 + "groupoid C\n",
     BundleSyntaxError, 3, None, "category C already declared"),
    ("objects-outside-a-block", "objects U\n",
     BundleSyntaxError, 1, None, "objects outside a category block"),
    ("objects-in-a-spresheaf", SP + "objects W\n",
     BundleSyntaxError, 7, None, "objects outside a category block"),
    ("mor-outside-a-block", "mor a : U -> U\n",
     BundleSyntaxError, 1, None, "mor outside a category block"),
    ("mor-usage", C1 + "mor a U -> U\n",
     BundleSyntaxError, 3, None, "usage: mor NAME : SRC -> TGT"),
    ("mor-again", C1 + "mor a : U -> U\nmor a : U -> U\n",
     BundleSyntaxError, 4, None, "morphism a already declared or reserved"),
    ("mor-named-like-an-identity", C1 + "mor id_U : U -> U\n",
     BundleSyntaxError, 3, None, "morphism id_U already declared or reserved"),
    ("compose-outside-a-block", "compose g.f = h\n",
     BundleSyntaxError, 1, None, "compose outside a category block"),
    ("compose-usage", C1 + "compose g f = h\n",
     BundleSyntaxError, 3, None, "usage: compose g.f = h"),
    ("compose-without-a-dot", C1 + "compose gf = h\n",
     BundleSyntaxError, 3, None, "usage: compose g.f = h"),
    ("inverse-outside-a-block", "inverse f = g\n",
     BundleSyntaxError, 1, None, "inverse outside a category block"),
    ("inverse-usage", C1 + "inverse f g\n",
     BundleSyntaxError, 3, None, "usage: inverse f = g"),
    ("cover-outside-a-block", "cover U = { a }\n",
     BundleSyntaxError, 1, None, "cover outside a category block"),
    ("cover-usage", C2 + "cover U = a\n",
     BundleSyntaxError, 4, None, "usage: cover U = { f g }"),
    ("spresheaf-usage", C1 + "spresheaf P C\n",
     BundleSyntaxError, 3, None, "usage: spresheaf NAME over CATEGORY"),
    ("spresheaf-again", SP + "spresheaf P over C\n",
     BundleSyntaxError, 7, None, "spresheaf P already declared"),
    ("psheaf-cat-usage", C1 + "psheaf-cat A on C\n",
     BundleSyntaxError, 3, None, "usage: psheaf-cat NAME over CATEGORY"),
    ("psheaf-cat-again", PC + "psheaf-cat A over C\n",
     BundleSyntaxError, 10, None, "psheaf-cat A already declared"),
    ("psheaf-mor-usage", PC + "psheaf-mor m A -> A\n",
     BundleSyntaxError, 10, None, "usage: psheaf-mor NAME : A -> B"),
    ("psheaf-mor-again", PC + "psheaf-mor m : A -> A\npsheaf-mor m : A -> A\n",
     BundleSyntaxError, 11, None, "psheaf-mor m already declared"),
    ("abpresheaf-usage", C1 + "abpresheaf F over\n",
     BundleSyntaxError, 3, None, "usage: abpresheaf NAME over BASE"),
    ("abpresheaf-again", AB + "abpresheaf F over C\n",
     BundleSyntaxError, 7, None, "abpresheaf F already declared"),
    ("at-outside-a-block", "at U set s\n",
     BundleSyntaxError, 1, None, "at outside a block"),
    ("at-set-usage", C1 + "spresheaf P over C\nat U elem s\n",
     BundleSyntaxError, 4, None, "usage: at U set e1 e2 ..."),
    ("at-category-usage", PC + "at U category\n",
     BundleSyntaxError, 10, None, "usage: at U category NAME"),
    ("at-obj-mor-usage", PC + "psheaf-mor m : A -> A\nat U arrow x = x\n",
     BundleSyntaxError, 11, None, "usage: at U obj|mor a = b"),
    ("at-group-usage", C1 + "abpresheaf F over C\nat U groups Z\n",
     BundleSyntaxError, 4, None, "usage: at OBJ group Z/2 Z ..."),
    ("at-in-a-category", C1 + "at U set s\n",
     BundleSyntaxError, 3, None, "at not valid in this block"),
    ("restrict-outside-a-block", "restrict a elem s = r\n",
     BundleSyntaxError, 1, None, "restrict outside a block"),
    ("restrict-elem-usage", SP + "restrict a elem s r\n",
     BundleSyntaxError, 7, None, "usage: restrict ALPHA elem x = y"),
    ("restrict-obj-mor-usage", PC + "restrict a ob x = x\n",
     BundleSyntaxError, 10, None, "usage: restrict ALPHA obj|mor a = b"),
    ("restrict-matrix-usage", AB + "restrict a mat [[1]]\n",
     BundleSyntaxError, 7, None, "usage: restrict MOR matrix [[..],[..]]"),
    ("matrix-literal", AB + "restrict a matrix [[1,]\n",
     BundleSyntaxError, 7, None, "bad matrix literal '[[1,]'"),
    ("matrix-not-integer-rows", AB + "restrict a matrix [[1.5]]\n",
     BundleSyntaxError, 7, None, "matrix must be a list of integer rows"),
    ("matrix-not-a-list", AB + "restrict a matrix 7\n",
     BundleSyntaxError, 7, None, "matrix must be a list of integer rows"),
    ("restrict-in-a-category", C2 + "restrict a elem s = r\n",
     BundleSyntaxError, 4, None, "restrict not valid in this block"),
    ("restrict-in-a-psheaf-mor", PC + FULL + "psheaf-mor m : A -> A\nrestrict a obj x = x\n",
     BundleSyntaxError, 14, None, "restrict not valid in this block"),
    ("unknown-declaration", C1 + "  frob U\n",
     BundleSyntaxError, 3, 3, "unknown declaration 'frob'"),
    # categories
    ("reserved-object-character", "category C\nobjects U x|y\n",
     BundleValidationError, None, None,
     "category C: object 'x|y' contains '|', which total-object names reserve"),
    ("reserved-characters", "category C\nobjects U V\nmor (a) : V -> U\nmor b>c : V -> U\n",
     BundleValidationError, None, None,
     "category C: morphism '(a)' contains '(', which total-object names reserve; "
     "morphism '(a)' contains ')', which total-object names reserve; "
     "morphism 'b>c' contains '>', which comma arrow names reserve"),
    ("morphism-on-unknown-objects", C1 + "mor a : U -> V\n",
     BundleNameError, 1, None, "morphism a of C references unknown objects"),
    ("compose-unknown-morphism", C1 + "mor a : U -> U\ncompose a.b = a\n",
     BundleNameError, 1, None, "compose line references unknown morphism b"),
    ("inverse-unknown-morphism", "groupoid G\nobjects x\ninverse t = t\n",
     BundleNameError, 1, None, "inverse line of G references unknown morphism"),
    ("groupoid-laws", "groupoid G\nobjects x\nmor t : x -> x\ncompose t.t = t\n",
     BundleValidationError, None, None, "category G: no inverse recorded for t"),
    ("category-laws", C1 + "mor a : U -> U\n",
     BundleValidationError, None, None, "category C: missing composite a.a"),
    # id_V names no morphism of C, whose only object is U
    ("compose-identity-of-no-object", C1 + "compose id_V.id_V = id_V\n",
     BundleValidationError, None, None, "category C: spurious composite id_V.id_V"),
    ("cover-on-unknown-object", C2 + "cover W = { a }\n",
     BundleNameError, 1, None, "cover on unknown object W"),
    ("cover-generator-unknown", C2 + "cover U = { b }\n",
     BundleNameError, 1, None, "cover generator b unknown"),
    ("cover-generator-off-target", C2 + "cover V = { a }\n",
     BundleValidationError, None, None, "category C: cover generator a does not target V"),
    # set presheaves
    ("spresheaf-over-unknown", C1 + "spresheaf P over D\n",
     BundleNameError, 3, None, "spresheaf P over unknown category"),
    ("spresheaf-no-set", C2 + "spresheaf P over C\nat U set s\n",
     BundleValidationError, None, None, "spresheaf P: no set at V"),
    ("spresheaf-no-action", SP,
     BundleValidationError, None, None, "spresheaf P: no action for a"),
    ("spresheaf-validator", SP + "restrict a elem s = q\n",
     BundleValidationError, None, None, "spresheaf P: action of a escapes the target value set"),
    # presheaves of categories; the first site object decides
    ("psheaf-cat-over-unknown", F2 + "psheaf-cat A over C\n",
     BundleNameError, 4, None, "psheaf-cat A over unknown category"),
    ("psheaf-cat-no-fibre", C2 + F2 + "psheaf-cat A over C\nat U category F\n",
     BundleValidationError, None, None, "psheaf-cat A: no fibre at V"),
    ("psheaf-cat-unknown-fibre", C2 + "psheaf-cat A over C\nat U category F\nat V category F\n",
     BundleNameError, 5, None, "unknown fibre category F"),
    ("psheaf-cat-objects-unmapped", PC + "restrict a obj x = x\n",
     BundleValidationError, None, None, "psheaf-cat A: restrict a: objects ['y'] unmapped"),
    ("psheaf-cat-morphisms-unmapped", PC + "restrict a obj x = x\nrestrict a obj y = y\n",
     BundleValidationError, None, None, "psheaf-cat A: restrict a: morphisms ['f'] unmapped"),
    ("psheaf-cat-validator", PC + "restrict a obj x = y\nrestrict a obj y = y\nrestrict a mor f = f\n",
     BundleValidationError, None, None,
     "psheaf-cat A: restriction along a: image of f has wrong endpoints"),
    # morphisms of presheaves of categories
    ("psheaf-mor-unknown-presheaves", PC + FULL + "psheaf-mor m : A -> B\n",
     BundleNameError, 13, None, "psheaf-mor m references unknown presheaves"),
    ("psheaf-mor-across-sites", C1 + "category D\nobjects V\n" + F2
     + "psheaf-cat A over C\nat U category F\npsheaf-cat B over D\nat V category F\n"
     + "psheaf-mor m : A -> B\n",
     BundleValidationError, None, None, "psheaf-mor m: domain and codomain live on different sites"),
    ("psheaf-mor-objects-unmapped", PC + FULL + "psheaf-mor m : A -> A\nat U obj x = x\n",
     BundleValidationError, None, None, "psheaf-mor m: at U: objects ['y'] unmapped"),
    ("psheaf-mor-morphisms-unmapped", PC + FULL + "psheaf-mor m : A -> A\n"
     "at U obj x = x\nat U obj y = y\nat U mor f = f\nat V obj x = x\nat V obj y = y\n",
     BundleValidationError, None, None, "psheaf-mor m: at V: morphisms ['f'] unmapped"),
    ("psheaf-mor-validator", PC + FULL + "psheaf-mor m : A -> A\n"
     "at U obj x = x\nat U obj y = y\nat U mor f = f\n"
     "at V obj x = y\nat V obj y = y\nat V mor f = f\n",
     BundleValidationError, None, None,
     "psheaf-mor m: component at V: image of f has wrong endpoints"),
    ("psheaf-mor-naturality", C2 + "category D\nobjects x y\n"
     "psheaf-cat A over C\nat U category D\nat V category D\n"
     "restrict a obj x = x\nrestrict a obj y = y\n"
     "psheaf-cat B over C\nat U category D\nat V category D\n"
     "restrict a obj x = y\nrestrict a obj y = x\n"
     "psheaf-mor m : A -> B\nat U obj x = x\nat U obj y = y\nat V obj x = x\nat V obj y = y\n",
     BundleValidationError, None, None, "psheaf-mor m: naturality square fails along a"),
    # abelian presheaves
    ("abpresheaf-over-unknown", C1 + "abpresheaf F over D\n",
     BundleNameError, 3, None, "abpresheaf F over unknown base D"),
    ("abpresheaf-no-group", C2 + "abpresheaf F over C\nat U group Z\n",
     BundleValidationError, None, None, "abpresheaf F: no group at V"),
    ("abpresheaf-non-canonical-group", C1 + "abpresheaf F over C\nat U group Z Z/2\n",
     BundleValidationError, None, None,
     "abpresheaf F: at U: group Z Z/2 is not in canonical form Z/2 Z"),
    ("abpresheaf-no-matrix", AB,
     BundleValidationError, None, None, "abpresheaf F: no matrix for a"),
    ("abpresheaf-validator", AB + "restrict a matrix [[1,0]]\n",
     BundleValidationError, None, None, "abpresheaf F: matrix for a has wrong shape"),
    # order: site objects in turn, blocks in the order declared
    ("psheaf-cat-first-object-decides-missing", C2 + F2 + "psheaf-cat A over C\nat V category NOPE\n",
     BundleValidationError, None, None, "psheaf-cat A: no fibre at U"),
    ("psheaf-cat-first-object-decides-unknown", C2 + F2 + "psheaf-cat A over C\nat U category NOPE\n",
     BundleNameError, 8, None, "unknown fibre category NOPE"),
    ("first-category-decides", "category C\nobjects U\nmor a : U -> U\ncategory D\nobjects U\nmor b : U -> W\n",
     BundleValidationError, None, None, "category C: missing composite a.a"),

]


@pytest.mark.parametrize(
    "text, error, line, column, message", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS]
)
def test_each_refusal_is_pinned(text, error, line, column, message, tmp_path):
    path = tmp_path / "refused.bundle"
    path.write_text(text)
    with pytest.raises(error) as err:
        parse_bundle([str(path)])
    assert type(err.value) is error
    location = "".join(f"{x}:" for x in (path, line, column) if x is not None)
    assert str(err.value) == (f"{location} " if line else "") + message
    if error is BundleSyntaxError:
        assert (err.value.line, err.value.column) == (line, column)


def test_every_refusal_id_is_distinct():
    assert len({r[0] for r in REFUSALS}) == len(REFUSALS)
