import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from fibsite.bundle import (
    Bundle,
    BundleSyntaxError,
    BundleValidationError,
    emit_bundle,
    parse_bundle,
)
from fibsite import cli
from fibsite.cli import run
from fibsite.report import SCHEMA, Report, emit_report
from fibsite.sampling import random_poset_site, random_topology
from fibsite.site import maximal_sieve

BUNDLES = Path(__file__).resolve().parents[1] / "bundles"


def report_from_json(text: str) -> Report:
    """The report a JSON document holds, read back for the round-trip test."""
    doc = json.loads(text)
    assert doc["schema"] == SCHEMA
    return Report(
        command=doc["command"],
        inputs=doc["inputs"],
        options=doc["options"],
        verdicts=doc["verdicts"],
        payload=doc["payload"],
        timings=doc["timings"],
    )
SHIPPED = [
    "pt_z2.bundle",
    "chain_cover.bundle",
    "e2_collapse.bundle",
    "product_cj.bundle",
    "pt_z2_twisted.bundle",
    "twin_sites.bundle",
]


# a presheaf of categories over a: V -> U with the fibre x -f-> y at both
_TWO_FIBRES = (
    "category C\nobjects U V\nmor a : V -> U\n\n"
    "category F\nobjects x y\nmor f : x -> y\n\n"
    "psheaf-cat A over C\nat U category F\nat V category F\n"
)
_FULL_RESTRICTION = "restrict a obj x = x\nrestrict a obj y = y\nrestrict a mor f = f\n"


def go(argv):
    buf = io.StringIO()
    code = run(argv, stdout=buf)
    return code, buf.getvalue()


class TestParsing:
    def test_minimal_point(self, tmp_path):
        p = tmp_path / "pt.bundle"
        p.write_text("category PT\nobjects U\n")
        b = parse_bundle([str(p)])
        assert len(b.categories["PT"].objects) == 1

    def test_pt_z2_counts(self):
        b = parse_bundle([str(BUNDLES / "pt_z2.bundle")])
        g = b.presheaves_of_categories["G"]
        (u,) = g.site.objects
        assert len(g.value[u].morphisms) == 2

    def test_syntax_error_carries_location(self, tmp_path):
        p = tmp_path / "bad.bundle"
        p.write_text("category C\nobjects U\nmor a U -> U\n")
        with pytest.raises(BundleSyntaxError) as err:
            parse_bundle([str(p)])
        assert ":3:" in str(err.value)

    def test_wrong_compose_cited(self):
        with pytest.raises(BundleValidationError) as err:
            parse_bundle([str(BUNDLES / "bad_inverse.bundle")])
        assert "inverse law" in str(err.value)

    @pytest.mark.parametrize("name", SHIPPED)
    def test_total_sites_validate_each_psheaf_cat_once(self, name, monkeypatch):
        # parse validates every psheaf-cat; building or checking from the
        # parsed bundle must not validate it again
        from fibsite import bundle, fibred

        seen = []
        check = fibred.validate_presheaf_of_categories

        def counting(pc):
            seen.append(pc)
            return check(pc)

        monkeypatch.setattr(fibred, "validate_presheaf_of_categories", counting)
        monkeypatch.setattr(bundle, "validate_presheaf_of_categories", counting)
        b = parse_bundle([str(BUNDLES / name)])
        for pname in b.presheaves_of_categories:
            b.fibred_site(pname)
        assert len(seen) == len(b.presheaves_of_categories)
        seen.clear()
        assert go(["validate", str(BUNDLES / name)])[0] == 0
        assert len(seen) == len(b.presheaves_of_categories)

    def test_unresolved_name(self, tmp_path):
        p = tmp_path / "nn.bundle"
        p.write_text("category C\nobjects U\ncover U = { nope }\n")
        from fibsite.bundle import BundleNameError

        with pytest.raises(BundleNameError):
            parse_bundle([str(p)])

    def test_error_in_a_second_file_names_that_file(self, tmp_path, capsys):
        one = tmp_path / "one.bundle"
        one.write_text("category C\nobjects U\n")
        two = tmp_path / "two.bundle"
        two.write_text("# the category block starts on line 3\n\ncategory D\n"
                       "objects U\nmor a : V -> U\n")
        assert go(["validate", str(one), str(two)])[0] == 2
        err = capsys.readouterr().err
        assert f"{two}:3: morphism a of D references unknown objects" in err
        assert str(one) not in err


class TestTwinSites:
    """C and D in twin_sites.bundle have equal tables; only D has a cover."""

    BUNDLE = str(BUNDLES / "twin_sites.bundle")

    def test_sheaf_check_reads_the_declared_site(self):
        code, out = go(["sheaf-check", self.BUNDLE, "--presheaf", "P"])
        assert code == 1
        (verdict,) = json.loads(out)["verdicts"]
        assert verdict["detail"] == "uniqueness fails at U: sections s and t agree on the cover"

    def test_induced_topology_reads_the_declared_site(self):
        code, out = go(["topology-check", self.BUNDLE, "--psheaf", "A"])
        assert code == 0
        assert json.loads(out)["payload"]["cover_counts"] == {"(U|x)": 2, "(V|x)": 1}

    def test_emit_names_the_declared_site(self):
        text = emit_bundle(parse_bundle([self.BUNDLE]))
        assert "spresheaf P over D\n" in text
        assert "psheaf-cat A over D\n" in text


class TestRoundTrip:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_emit_parse_emit(self, name, tmp_path):
        b = parse_bundle([str(BUNDLES / name)])
        text = emit_bundle(b)
        p = tmp_path / "again.bundle"
        p.write_text(text)
        b2 = parse_bundle([str(p)])
        assert b2 == b
        assert emit_bundle(b2) == text

    @pytest.mark.parametrize("seed", range(20))
    def test_topology_is_emitted_as_its_least_covers(self, seed, tmp_path):
        # one cover line per non-maximal L(u), saturated back to the same L
        rng = random.Random(seed)
        site = random_poset_site(rng, 4)
        t = random_topology(rng, site)
        text = emit_bundle(Bundle(categories={"C": site}, topologies={"C": t}))
        lines = [ln for ln in text.splitlines() if ln.startswith("cover ")]
        assert len(lines) == sum(t.least[u] != maximal_sieve(site, u) for u in site.objects)
        p = tmp_path / "topology.bundle"
        p.write_text(text)
        assert parse_bundle([str(p)]).topologies["C"].least == t.least


class TestCommands:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_validate_shipped(self, name):
        code, out = go(["validate", str(BUNDLES / name)])
        assert code == 0
        doc = json.loads(out)
        assert all(v["pass"] for v in doc["verdicts"])

    def test_fibred_build_product(self):
        code, out = go(["fibred-build", str(BUNDLES / "product_cj.bundle"), "--psheaf", "A"])
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"]["morphism_count"] == 9
        assert len(doc["payload"]["objects"]) == 4

    def test_topology_check_base_and_induced(self):
        code, _ = go(["topology-check", str(BUNDLES / "chain_cover.bundle"), "--category", "C"])
        assert code == 0
        code, _ = go(["topology-check", str(BUNDLES / "product_cj.bundle"), "--psheaf", "A"])
        assert code == 0

    def test_sheaf_check(self):
        code, out = go(["sheaf-check", str(BUNDLES / "chain_cover.bundle"), "--presheaf", "P", "--sheafify"])
        assert code == 1  # the check itself fails, deterministically
        doc = json.loads(out)
        assert doc["verdicts"][0]["pass"] is False
        assert doc["verdicts"][1]["pass"] is True
        code, out = go(["sheaf-check", str(BUNDLES / "chain_cover.bundle"), "--presheaf", "Q"])
        assert code == 0

    def test_cohomology_flagship(self):
        code, out = go([
            "cohomology", str(BUNDLES / "pt_z2.bundle"),
            "--psheaf", "G", "--coeffs", "F", "--nmax", "4",
        ])
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"]["cohomology"] == [[0], [], [2], [], [2]]

    def test_cohomology_with_torsion_relations(self):
        # Z/4 + Z, t acting by 1 on Z/4 and by -1 on Z: the H^0 cross-check
        # divides by the nonempty relation lattice 4 * Z/4
        code, out = go([
            "cohomology", str(BUNDLES / "pt_z2_twisted.bundle"),
            "--psheaf", "G", "--coeffs", "FT", "--nmax", "3",
        ])
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"]["cohomology"] == [[4], [2, 2], [2], [2, 2]]
        assert doc["verdicts"] == [
            {"check": "H0 equals the compatible-family group", "pass": True, "detail": "Z/4"}
        ]

    def test_cech(self):
        code, out = go([
            "cech", str(BUNDLES / "chain_cover.bundle"),
            "--coeffs", "FZ", "--object", "U", "--cover", "a", "--nmax", "2",
        ])
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"]["cohomology"] == [[0], [], []]

    def test_adjunction_check(self):
        code, out = go([
            "adjunction-check", str(BUNDLES / "pt_z2.bundle"),
            "--psheaf", "G", "--truncation", "4", "--count", "2", "--seed", "5",
        ])
        assert code == 0
        doc = json.loads(out)
        assert all(v["pass"] for v in doc["verdicts"])

    def test_invariance_check(self):
        code, out = go([
            "invariance-check", str(BUNDLES / "e2_collapse.bundle"),
            "--mor", "m", "--coeffs", "F", "--nmax", "3",
        ])
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"]["cohomology"] == doc["payload"]["pulled_back"]

    def test_invariance_check_builds_totals_unchecked(self, monkeypatch):
        # parse validated the bundle's presheaves; neither the default
        # coefficients nor total_functor may validate them again
        from fibsite import fibred

        def refuse(a):
            raise AssertionError("a parsed presheaf of categories was validated again")

        monkeypatch.setattr(fibred, "grothendieck_construct", refuse)
        code, _ = go(["invariance-check", str(BUNDLES / "e2_collapse.bundle"), "--mor", "m"])
        assert code == 0

    def test_homology_command(self):
        code, out = go(["homology", str(BUNDLES / "pt_z2.bundle"), "--category", "Z2", "--top", "3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"]["homology"] == [[0], [2], [], [2]]

    def test_homology_payload_golden(self):
        # H_1..H_6 of BZ/2 through the coboundary-order reduction, and the
        # component count read off H_0, pinned with their key order
        code, out = go([
            "homology", str(BUNDLES / "pt_z2.bundle"), "--category", "Z2",
            "--truncation", "8", "--top", "6",
        ])
        assert code == 0
        assert json.dumps(json.loads(out)["payload"]) == (
            '{"homology": [[0], [2], [], [2], [], [2], []], "components": 1}'
        )

    def test_nerve_export(self):
        code, out = go(["nerve-export", str(BUNDLES / "pt_z2.bundle"), "--category", "Z2", "--truncation", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"]["nerve"]["dim"] == 2


class TestExitCodes:
    def test_parse_error_is_2(self):
        code, _ = go(["validate", str(BUNDLES / "bad_syntax.bundle")])
        assert code == 2

    def test_missing_file_is_2(self):
        code, _ = go(["validate", "no_such_file.bundle"])
        assert code == 2

    def test_validation_error_is_3(self):
        code, _ = go(["validate", str(BUNDLES / "bad_inverse.bundle")])
        assert code == 3

    def test_morphism_across_sites_is_3(self, capsys):
        # A over PT and B over PV: no component is built, so no traceback
        code, out = go(["validate", str(BUNDLES / "bad_cross_site.bundle")])
        assert (code, out) == (3, "")
        assert capsys.readouterr().err == (
            "error: psheaf-mor m: domain and codomain live on different sites\n"
        )

    def test_morphism_named_like_object_is_3(self, tmp_path):
        p = tmp_path / "clash.bundle"
        p.write_text(
            "category C\nobjects U V\nmor U : V -> U\n\n"
            "abpresheaf F over C\nat U group Z\nat V group Z Z\n"
            "restrict U matrix [[1],[0]]\n"
        )
        code, _ = go(["validate", str(p)])
        assert code == 3
        with pytest.raises(BundleValidationError) as err:
            parse_bundle([str(p)])
        assert "same identifier as an object" in str(err.value)

    def test_unknown_name_is_3(self):
        code, _ = go(["cohomology", str(BUNDLES / "pt_z2.bundle"), "--psheaf", "G", "--coeffs", "NOPE"])
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ["homology", "chain_cover.bundle", "--category", "C", "--top", "-1"],
        ["invariance-check", "e2_collapse.bundle", "--mor", "m", "--nmax", "-1"],
        ["cohomology", "pt_z2.bundle", "--psheaf", "G", "--coeffs", "F", "--nmax", "-1"],
        ["adjunction-check", "pt_z2.bundle", "--psheaf", "G", "--count", "1", "--truncation", "1"],
    ], ids=lambda argv: argv[0])
    def test_negative_degree_bound_is_3(self, argv, capsys):
        # a bound below 0 compares no degree; it must not read as a pass
        code, out = go([argv[0], str(BUNDLES / argv[1]), *argv[2:]])
        assert (code, out) == (3, "")
        assert "is negative" in capsys.readouterr().err

    def test_refused_mode_is_4(self):
        code, _ = go([
            "cohomology", str(BUNDLES / "chain_cover.bundle"),
            "--psheaf", "GT", "--coeffs", "FT",
        ])
        assert code == 4

    def test_cap_exceeded_is_5(self):
        code, _ = go([
            "cohomology", str(BUNDLES / "pt_z2.bundle"),
            "--psheaf", "G", "--coeffs", "F", "--max-strings", "0",
        ])
        assert code == 5

    @pytest.mark.parametrize("command", ["homology", "nerve-export"])
    def test_nerve_commands_respect_max_strings(self, command, capsys):
        # strings of the nerve of Z/2 per degree: 1, 2, 4, 8
        argv = [command, str(BUNDLES / "pt_z2.bundle"), "--category", "Z2", "--truncation", "3"]
        if command == "homology":
            argv += ["--top", "2"]
        code, out = go(argv + ["--max-strings", "1"])
        assert (code, out) == (5, "")
        assert "more than 1 strings in degree 1" in capsys.readouterr().err
        code, out = go(argv + ["--max-strings", "7"])
        assert (code, out) == (5, "")
        assert "more than 7 strings in degree 3" in capsys.readouterr().err
        code, _ = go(argv + ["--max-strings", "8"])
        assert code == 0

    def test_adjunction_check_respects_max_strings(self, capsys):
        # the samples live over the nerve of the opposed fibre Z/2: 1, 2, 4, 8
        argv = ["adjunction-check", str(BUNDLES / "pt_z2.bundle"), "--psheaf", "G",
                "--count", "1", "--truncation", "3"]
        code, out = go(argv + ["--max-strings", "1"])
        assert (code, out) == (5, "")
        assert "more than 1 strings in degree 1" in capsys.readouterr().err
        code, out = go(argv + ["--max-strings", "7"])
        assert (code, out) == (5, "")
        assert "more than 7 strings in degree 3" in capsys.readouterr().err
        code, _ = go(argv + ["--max-strings", "8"])
        assert code == 0

    @pytest.mark.parametrize("name", SHIPPED)
    def test_nerve_cap_counts_every_string(self, name):
        # the cap sits exactly at the largest degree of the built nerve
        from fibsite.sset import nerve

        for cname, cat in parse_bundle([str(BUNDLES / name)]).categories.items():
            most = max(len(level) for level in nerve(cat, 3).simplices)
            argv = ["nerve-export", str(BUNDLES / name), "--category", cname,
                    "--truncation", "3", "--max-strings"]
            assert go(argv + [str(most)])[0] == 0
            assert go(argv + [str(most - 1)])[0] == 5

    @pytest.mark.parametrize("char", ["|", "(", ")", ">"])
    def test_reserved_character_in_a_name_is_3(self, char, tmp_path):
        for text, name in (
            (f"category C\nobjects U x{char}y\n", f"x{char}y"),
            (f"category C\nobjects U V\nmor a{char}b : V -> U\n", f"a{char}b"),
        ):
            p = tmp_path / "reserved.bundle"
            p.write_text(text)
            with pytest.raises(BundleValidationError) as err:
                parse_bundle([str(p)])
            assert repr(name) in str(err.value)
            assert go(["validate", str(p)])[0] == 3

    def test_non_canonical_group_line_is_3(self, tmp_path, capsys):
        # read through from_orders, "Z Z/4" became Z/4 + Z and the matrix
        # silently acted on swapped generators
        text = (BUNDLES / "pt_z2_twisted.bundle").read_text()
        p = tmp_path / "swapped.bundle"
        p.write_text(text.replace("group Z/4 Z", "group Z Z/4"))
        code, out = go(["cohomology", str(p), "--psheaf", "G", "--coeffs", "FT"])
        assert (code, out) == (3, "")
        assert capsys.readouterr().err == (
            "error: abpresheaf FT: at (U|x): group Z Z/4 is not in canonical form Z/4 Z\n"
        )

    @pytest.mark.parametrize("lines, message", [
        ("restrict a obj x = x\n", "psheaf-cat A: restrict a: objects ['y'] unmapped"),
        ("restrict a obj x = x\nrestrict a obj y = y\n",
         "psheaf-cat A: restrict a: morphisms ['f'] unmapped"),
        (_FULL_RESTRICTION + "psheaf-mor m : A -> A\nat U obj x = x\n",
         "psheaf-mor m: at U: objects ['y'] unmapped"),
        (_FULL_RESTRICTION + "psheaf-mor m : A -> A\n"
         "at U obj x = x\nat U obj y = y\nat U mor f = f\nat V obj x = x\nat V obj y = y\n",
         "psheaf-mor m: at V: morphisms ['f'] unmapped"),
    ], ids=["psheaf-cat-object", "psheaf-cat-morphism", "psheaf-mor-object", "psheaf-mor-morphism"])
    def test_unmapped_name_is_3(self, lines, message, tmp_path, capsys):
        p = tmp_path / "unmapped.bundle"
        p.write_text(_TWO_FIBRES + lines)
        code, out = go(["validate", str(p)])
        assert (code, out) == (3, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("name,message", [
        # the inverse laws compose, so an incomplete table stops before them
        ("bad_groupoid_compose", "category Z2: missing composite t.t"),
        ("bad_inverse", "category M: inverse law fails for t"),
    ])
    def test_groupoid_laws_are_3(self, name, message, capsys):
        code, out = go(["validate", str(BUNDLES / f"{name}.bundle")])
        assert (code, out) == (3, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_angle_in_a_name_is_3(self, capsys):
        # comma arrows are named (m|h>h2), so 'p>q' could print two alike
        code, out = go(["validate", str(BUNDLES / "bad_angle_name.bundle")])
        assert (code, out) == (3, "")
        assert capsys.readouterr().err == (
            "error: category C: morphism 'p>q' contains '>', which comma arrow names reserve\n"
        )

    @pytest.mark.parametrize("argv", [["validate"], ["sheaf-check", "--presheaf", "P"]])
    def test_repeated_set_element_is_3(self, argv, capsys):
        # the site has no cover lines, so every presheaf on it is a sheaf;
        # the two copies of s failed uniqueness there with exit 1
        code, out = go([argv[0], str(BUNDLES / "bad_repeated_element.bundle"), *argv[1:]])
        assert (code, out) == (3, "")
        assert capsys.readouterr().err == "error: spresheaf P: value at U repeats s\n"

    def test_adjunction_check_on_an_empty_site_is_3(self, capsys):
        bundle = str(BUNDLES / "empty_site.bundle")
        assert go(["validate", bundle])[0] == 0
        code, out = go(["adjunction-check", bundle, "--psheaf", "G"])
        assert (code, out) == (3, "")
        assert capsys.readouterr().err.endswith(
            "error: psheaf-cat G lives on a site with no objects, "
            "so there is no fibre to sample the adjunction over\n"
        )

    def test_adjunction_check_on_an_empty_fibre_is_3(self, tmp_path, capsys):
        p = tmp_path / "empty_fibre.bundle"
        p.write_text("category PT\nobjects U\n\ngroupoid F\n\npsheaf-cat G over PT\nat U category F\n")
        code, out = go(["adjunction-check", str(p), "--psheaf", "G"])
        assert (code, out) == (3, "")
        assert capsys.readouterr().err.endswith(
            "error: psheaf-cat G has an empty fibre at U, "
            "so there is no object to sample the adjunction over\n"
        )

    def test_failed_check_is_1(self):
        code, _ = go(["sheaf-check", str(BUNDLES / "chain_cover.bundle"), "--presheaf", "P"])
        assert code == 1

    def test_unwritable_out_is_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        code, out = go(["validate", str(BUNDLES / "pt_z2.bundle"), "--out", str(target)])
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(target) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_adjunction_check_without_instances_is_2(self, count, capsys):
        code, out = go([
            "adjunction-check", str(BUNDLES / "pt_z2.bundle"), "--psheaf", "G",
            "--count", count,
        ])
        assert (code, out) == (2, "")
        assert f"argument --count: must be at least 1, got {int(count)}" in capsys.readouterr().err

    def test_non_integer_count_keeps_the_int_message(self, capsys):
        code, _ = go([
            "adjunction-check", str(BUNDLES / "pt_z2.bundle"), "--psheaf", "G",
            "--count", "three",
        ])
        assert code == 2
        assert "argument --count: invalid int value: 'three'" in capsys.readouterr().err


SRC = str(Path(__file__).resolve().parents[1] / "src")


def python_run(args, **env_extra):
    """Run `python *args` in a fresh process with the package on its path."""
    env = dict(os.environ, **env_extra)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120,
    )


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["fibsite", "fibsite.cli"])
    def test_validate_matches_run(self, module):
        argv = ["validate", str(BUNDLES / "pt_z2.bundle")]
        proc = python_run(["-m", module, *argv])
        assert proc.returncode == 0
        assert proc.stdout == go(argv)[1]

    @pytest.mark.parametrize("module", ["fibsite", "fibsite.cli"])
    def test_validation_error_is_3(self, module):
        proc = python_run(["-m", module, "validate", str(BUNDLES / "bad_inverse.bundle")])
        assert proc.returncode == 3


def _bundle(name):
    return str(BUNDLES / f"{name}.bundle")


class TestParserReuse:
    """run builds one parser per process and reuses it for every call; a
    reused parser must change no byte of any report, usage text or error
    text, nor any exit code, against a fresh ``python -m fibsite``."""

    CASES = [
        (["validate", _bundle("pt_z2")], 0),
        (["validate", _bundle("chain_cover"), "--format", "markdown"], 0),
        (["fibred-build", _bundle("product_cj"), "--psheaf", "A"], 0),
        (["cohomology", _bundle("pt_z2"), "--psheaf", "G", "--coeffs", "F",
          "--format", "markdown"], 0),
        (["sheaf-check", _bundle("chain_cover"), "--presheaf", "P"], 1),
        (["sheaf-check", _bundle("chain_cover"), "--presheaf", "P",
          "--format", "markdown"], 1),
        (["validate", _bundle("bad_syntax")], 2),
        (["validate", _bundle("bad_inverse")], 3),
        (["cohomology", _bundle("chain_cover"), "--psheaf", "GT", "--coeffs", "FT"], 4),
        (["cohomology", _bundle("pt_z2"), "--psheaf", "G", "--coeffs", "F",
          "--max-strings", "0"], 5),
        (["--help"], 0),
        (["adjunction-check", "--help"], 0),
        ([], 2),
        (["frobnicate"], 2),
        (["fibred-build", _bundle("pt_z2")], 2),
        (["adjunction-check", _bundle("pt_z2"), "--psheaf", "G", "--count", "0"], 2),
    ]

    @pytest.mark.parametrize(
        "argv,code", CASES, ids=[" ".join(Path(a).name for a in c[0]) or "no-args" for c in CASES]
    )
    def test_reused_parser_matches_a_fresh_process(self, argv, code, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        fresh = python_run(["-m", "fibsite", *argv], COLUMNS="80")
        assert fresh.returncode == code
        for _ in range(2):
            got = run(list(argv))
            out, err = capsys.readouterr()
            assert (got, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)

    def test_one_parser_per_process(self, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        for argv in (["validate", _bundle("pt_z2")], ["frobnicate"], ["validate", _bundle("pt_z2")]):
            go(argv)
        assert len(built) == 1

    def test_import_builds_no_parser(self):
        proc = python_run(["-c", "import fibsite.cli as c; print(c._parser.cache_info().currsize)"])
        assert proc.stdout == "0\n"


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["cohomology", "--psheaf", "G", "--coeffs", "F"],
            ["validate"],
            ["adjunction-check", "--psheaf", "G", "--seed", "7", "--truncation", "3", "--count", "1"],
        ],
    )
    def test_byte_identical_reruns(self, argv):
        full = [argv[0], str(BUNDLES / "pt_z2.bundle")] + argv[1:]
        _, out1 = go(full)
        _, out2 = go(full)
        assert out1 == out2

    def test_report_roundtrip(self):
        _, out = go(["cohomology", str(BUNDLES / "pt_z2.bundle"), "--psheaf", "G", "--coeffs", "F"])
        rep = report_from_json(out)
        assert emit_report(rep, "json") == out

    def test_markdown_lists_degrees(self):
        _, out = go([
            "cohomology", str(BUNDLES / "pt_z2.bundle"),
            "--psheaf", "G", "--coeffs", "F", "--format", "markdown",
        ])
        for degree in range(5):
            assert f"| {degree} |" in out
        assert "Z/2" in out and "Z ⊕" not in out.splitlines()[0]


def test_emit_report_empty_verdicts():
    rep = Report(command="validate", inputs={"files": [], "sha256": ""}, options={})
    doc = json.loads(emit_report(rep, "json"))
    assert doc["verdicts"] == []
    assert doc["schema"] == "fibsite-report/1"
