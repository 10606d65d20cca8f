"""Cohomology kernel tests, including the independent bar-complex oracle.

The oracle path builds the normalized inhomogeneous bar cochain complex of a
finite cyclic group directly (functions on tuples of non-identity elements)
and reduces it with sympy's Smith normal form, entirely separate from the
package's string enumeration and sparse kernel.
"""

import dataclasses
import io
import pickle
import random
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from fibsite import cohom, fibred
from fibsite.cli import run
from fibsite.cohom import (
    AbelianPresheaf,
    CochainComplex,
    FgAbelianGroup,
    TRIVIAL_GROUP,
    ZZ,
    cech_cohomology,
    cochain_complex,
    cohomology_of_complex,
    compatible_family_group,
    constant_abelian_presheaf,
    invariance_report,
    restrict_abelian_along,
    stack_cohomology,
    validate_abelian_presheaf,
    zmod,
)
from fibsite.errors import CapExceeded, InputError, RefusedMode, ValidationFailure
from fibsite.fibred import (
    MorphismOfPresheavesOfCategories,
    constant_presheaf_of_categories,
    grothendieck_construct,
    total_functor,
)
from fibsite.fincat import (
    Functor,
    build_category,
    codiscrete_groupoid,
    cyclic_groupoid,
    group_block_groupoid,
    poset_chain,
    terminal_category,
    validate_category,
)
from fibsite.sampling import (
    random_poset_site,
    random_presheaf_of_categories,
    random_sectionwise_equivalence,
    random_topology,
)
from fibsite.snf import normalize_factors, snf_diagonal
from fibsite.site import (
    Sieve,
    maximal_sieve,
    saturate_topology,
    sieve_from_generators,
    trivial_topology,
)
from helpers import identity_morphism_of_presheaves

BUNDLES = Path(__file__).resolve().parents[1] / "bundles"


def bar_cohomology_oracle(k: int, n_max: int) -> list[tuple[int, ...]]:
    """H^*(Z/k; Z) from the normalized bar complex, reduced with sympy.

    Cochains in degree n are integer functions on n-tuples of non-identity
    group elements; the differential is the standard alternating sum with
    the group acting trivially on the coefficients.
    """
    import itertools

    elements = list(range(1, k))  # non-identity residues

    def tuples(n):
        return list(itertools.product(elements, repeat=n))

    def normalize(tup):
        # multiply adjacent entries when a face composes them; identity
        # results leave the normalized complex
        return tup if all(t != 0 for t in tup) else None

    diffs = []
    for n in range(n_max + 1):
        dom = tuples(n)
        cod = tuples(n + 1)
        index = {t: i for i, t in enumerate(dom)}
        rows = []
        for tau in cod:
            row = [0] * len(dom)
            # face 0 drops the first entry (trivial action)
            face = tau[1:]
            if normalize(face) is not None:
                row[index[face]] += 1
            for i in range(1, n + 1):
                face = tau[: i - 1] + (((tau[i - 1] + tau[i]) % k),) + tau[i + 1 :]
                if normalize(face) is not None:
                    row[index[face]] += 1 if i % 2 == 0 else -1
            face = tau[:-1]
            if normalize(face) is not None:
                row[index[face]] += 1 if (n + 1) % 2 == 0 else -1
            rows.append(row)
        diffs.append(sympy.Matrix(rows) if rows else sympy.zeros(0, len(dom)))
    out = []
    for n in range(n_max + 1):
        d_out = diffs[n]
        rank_out = d_out.rank()
        if n == 0:
            rank_in = 0
            tor = []
        else:
            d_in = diffs[n - 1]
            rank_in = d_in.rank()
            if d_in.rows and d_in.cols:
                snf = sympy_snf(d_in)
                diag = [abs(snf[i, i]) for i in range(min(snf.rows, snf.cols))]
                tor = [int(x) for x in diag if x > 1]
            else:
                tor = []
        free = len(tuples(n)) - rank_out - rank_in
        out.append(tuple(sorted(tor)) + (0,) * free)
    return out


class TestFgAbelianGroup:
    def test_canonical_form_enforced(self):
        with pytest.raises(Exception):
            FgAbelianGroup(factors=(0, 2))
        assert FgAbelianGroup(factors=(2, 0)).rank == 1

    def test_from_orders(self):
        assert FgAbelianGroup.from_orders([2, 3]).factors == (6,)
        assert FgAbelianGroup.from_orders([2, 4]).factors == (2, 4)
        assert FgAbelianGroup.from_orders([0, 6, 1]).factors == (6, 0)
        assert FgAbelianGroup.from_orders([]).factors == ()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([0, 1, -1]), st.integers(-36, 36)), max_size=6))
    def test_from_orders_matches_the_smith_form(self, orders):
        # the oracle: the Smith diagonal of the diagonal matrix of the orders
        k = len(orders)
        diag = snf_diagonal([[orders[i] if j == i else 0 for j in range(k)] for i in range(k)])
        expected = normalize_factors([d for d in diag if d > 1], orders.count(0))
        assert FgAbelianGroup.from_orders(orders).factors == expected

    def test_str(self):
        assert str(ZZ) == "Z"
        assert str(zmod(2)) == "Z/2"
        assert str(TRIVIAL_GROUP) == "0"


def corrupted_differentials(cc, n):
    """cc's differentials, with 1 added to d^{n+1} at a column where d^n has
    a nonzero row: that row turns up in d^{n+1} d^n, and no lower degree
    changes.  An entry that falls to 0 is left out, as rows store no zero."""
    diffs = [{r: dict(row) for r, row in d.items()} for d in cc.differentials]
    mid = min(diffs[n])
    row = diffs[n + 1].setdefault(0, {})
    row[mid] = row.get(mid, 0) + 1
    if not row[mid]:
        del row[mid]
    return tuple(diffs)


class TestCochainComplex:
    def test_point_with_z(self, pt):
        cc = cochain_complex(pt, constant_abelian_presheaf(pt, ZZ), 3)
        h = cohomology_of_complex(cc)
        assert [x.factors for x in h] == [(0,), (), (), ()]

    def test_zero_coefficients(self, z2):
        cc = cochain_complex(z2, constant_abelian_presheaf(z2, TRIVIAL_GROUP), 2)
        h = cohomology_of_complex(cc)
        assert all(x == TRIVIAL_GROUP for x in h)

    def test_group_cohomology_matches_bar_oracle(self):
        # the oracle's sympy kernel slows sharply past ~100x30, so the Z/4
        # comparison stops at degree 3 (matrices up to 81x27)
        for k, n_max in ((2, 4), (3, 4), (4, 3)):
            g = cyclic_groupoid(k)
            ours = cohomology_of_complex(
                cochain_complex(g, constant_abelian_presheaf(g, ZZ), n_max)
            )
            oracle = bar_cohomology_oracle(k, n_max)
            assert [x.factors for x in ours] == list(oracle), k

    def test_unnormalized_agrees_low_degrees(self, z2):
        coeff = constant_abelian_presheaf(z2, ZZ)
        a = cohomology_of_complex(cochain_complex(z2, coeff, 2))
        b = cohomology_of_complex(cochain_complex(z2, coeff, 2, normalized=False))
        assert [x.factors for x in a] == [y.factors for y in b]

    def test_dd_zero_guard(self, z2):
        cc = cochain_complex(z2, constant_abelian_presheaf(z2, zmod(4)), 3)
        # construction multiplies nothing out; check the stored entries
        from fibsite.cohom import _check_dd_zero

        _check_dd_zero(cc.differentials)

    @pytest.mark.parametrize("torsion", [False, True], ids=["free", "torsion-cone"])
    def test_dd_zero_guard_names_the_corrupted_degree(self, z2, torsion):
        from fibsite.cohom import _check_dd_zero

        if torsion:
            cc = cochain_complex(z2, constant_abelian_presheaf(z2, zmod(4)), 3)
        else:
            e2 = codiscrete_groupoid(["a", "b"])
            cc = cochain_complex(e2, constant_abelian_presheaf(e2, ZZ), 3)
        assert cc.offset == (1 if torsion else 0)
        for n in range(len(cc.differentials) - 1):
            diffs = corrupted_differentials(cc, n)
            with pytest.raises(ValidationFailure, match=rf"at degree {n}$"):
                _check_dd_zero(diffs)

    @pytest.mark.parametrize("torsion", [False, True], ids=["free", "torsion-cone"])
    def test_public_entry_rejects_a_corrupted_complex(self, z2, torsion):
        # the library's own callers skip the d.d check on what they build;
        # a caller's complex goes through it
        if torsion:
            cc = cochain_complex(z2, constant_abelian_presheaf(z2, zmod(4)), 3)
        else:
            e2 = codiscrete_groupoid(["a", "b"])
            cc = cochain_complex(e2, constant_abelian_presheaf(e2, ZZ), 3)
        assert len(cohomology_of_complex(cc)) == 4
        for n in range(len(cc.differentials) - 1):
            corrupted = dataclasses.replace(cc, differentials=corrupted_differentials(cc, n))
            with pytest.raises(ValidationFailure, match=rf"at degree {n}$"):
                cohomology_of_complex(corrupted)

    @pytest.mark.parametrize("torsion", [False, True], ids=["free", "torsion-cone"])
    def test_a_built_complex_pickles_as_its_fields(self, z2, torsion):
        # the builders are local functions, which do not pickle; a built
        # complex pickles as its fields, its differentials written in full
        coeff = constant_abelian_presheaf(z2, zmod(2) if torsion else ZZ)
        cc = cochain_complex(z2, coeff, 3)
        back = pickle.loads(pickle.dumps(cc))
        assert back == cc
        assert vars(back).keys() == {f.name for f in dataclasses.fields(CochainComplex)}
        assert cohomology_of_complex(back) == cohomology_of_complex(cc)
        assert [str(x) for x in cohomology_of_complex(back)] == (
            ["Z/2"] * 4 if torsion else ["Z", "0", "Z/2", "0"]
        )

    def test_entry_outside_its_matrix_is_refused(self):
        # d^0 of Z -> Z is 1 x 1, so an entry at (5, 7) is no entry of it
        cc = CochainComplex(
            ranks=(1, 1), differentials=({5: {7: 1}},), string_counts=(1, 1), degrees=0
        )
        with pytest.raises(ValidationFailure, match=r"\(5, 7\), outside its 1 x 1 matrix"):
            cohomology_of_complex(cc)
        ok = dataclasses.replace(cc, differentials=({0: {0: 1}},))
        assert cohomology_of_complex(ok) == [TRIVIAL_GROUP]

    @pytest.mark.parametrize("value", [0, 2.0, True, "1"])
    def test_entry_that_is_not_a_nonzero_int_is_refused(self, value):
        cc = CochainComplex(
            ranks=(1, 1), differentials=({0: {0: value}},), string_counts=(1, 1), degrees=0
        )
        with pytest.raises(ValidationFailure, match="an entry is a nonzero int"):
            cohomology_of_complex(cc)

    def test_missing_differential_is_refused(self):
        # H^0 reads the rank of d^0, which the complex does not have
        cc = CochainComplex(ranks=(1,), differentials=(), string_counts=(1,), degrees=0)
        with pytest.raises(ValidationFailure, match="needs 1 ranks and 1 differentials"):
            cohomology_of_complex(cc)
        ok = dataclasses.replace(cc, differentials=({},))
        assert cohomology_of_complex(ok) == [ZZ]

    def test_ranks_short_of_the_degrees_are_refused(self):
        # H^3 reads ranks[3], which the complex does not have
        cc = CochainComplex(
            ranks=(1, 1), differentials=({}, {}, {}, {}), string_counts=(1, 1), degrees=3
        )
        with pytest.raises(ValidationFailure, match="needs 4 ranks and 4 differentials"):
            cohomology_of_complex(cc)
        ok = dataclasses.replace(cc, ranks=(1, 1, 1, 1))
        assert cohomology_of_complex(ok) == [ZZ] * 4

    def test_string_cap(self, z2):
        with pytest.raises(CapExceeded):
            cochain_complex(z2, constant_abelian_presheaf(z2, ZZ), 3, max_strings=0)

    def test_negative_degree_bound_rejected(self, z2):
        with pytest.raises(InputError, match="negative"):
            cochain_complex(z2, constant_abelian_presheaf(z2, ZZ), -1)

    def test_torsion_cone_stops_at_degree_n_max_plus_one(self, z3):
        # normalized Z/3 has 2^n strings in degree n; with Z/2 and n_max = 2
        # the cut cone enumerates degrees 0..3 (8 strings) and never degree 4
        f = constant_abelian_presheaf(z3, zmod(2))
        cc = cochain_complex(z3, f, 2, max_strings=10)
        assert cc.string_counts == (1, 2, 4, 8)
        assert [x.factors for x in cohomology_of_complex(cc)] == [(2,), (), ()]
        with pytest.raises(CapExceeded, match="^more than 7 strings in degree 3$"):
            cochain_complex(z3, f, 2, max_strings=7)

    def test_coefficients_on_another_category_are_refused(self, chain2, z2):
        # f lives on Z/2, whose morphism names chain2 does not share
        f = constant_abelian_presheaf(z2, ZZ)
        with pytest.raises(InputError, match="do not live on the category"):
            cochain_complex(chain2, f, 2)

    def test_compatible_families_on_another_category_are_refused(self, chain2, pt):
        # f's groups sit at the point's one object, and chain2 has others
        f = constant_abelian_presheaf(pt, ZZ)
        with pytest.raises(InputError, match="do not live on the category"):
            compatible_family_group(chain2, f)

    def test_torsion_universal_coefficients(self, z2):
        # H^*(Z/2; Z/4) by universal coefficients: Z/4, Z/2, Z/2, ...
        h = cohomology_of_complex(
            cochain_complex(z2, constant_abelian_presheaf(z2, zmod(4)), 4)
        )
        assert [x.factors for x in h] == [(4,), (2,), (2,), (2,), (2,)]

    def test_mixed_coefficients_split(self, z2):
        h = cohomology_of_complex(
            cochain_complex(z2, constant_abelian_presheaf(z2, FgAbelianGroup(factors=(2, 0))), 3)
        )
        assert [x.factors for x in h] == [(2, 0), (2,), (2, 2), (2,)]

    def test_nonconstant_torsion_coefficients(self, chain2):
        # F(U) = Z/4, F(V) = Z/2, restriction the projection
        f = AbelianPresheaf(
            base=chain2,
            group={"U": zmod(4), "V": zmod(2)},
            restriction={
                "id_U": ((1,),),
                "id_V": ((1,),),
                "a_V_U": ((1,),),
            },
        )
        assert validate_abelian_presheaf(f) == []
        h = cohomology_of_complex(cochain_complex(chain2, f, 2))
        # limit of Z/4 -> Z/2 over the chain (H^0 = Z/4, kernel pairs),
        # chain is contractible-shaped: higher degrees vanish
        assert h[0].factors == (4,)
        assert h[1].factors == () and h[2].factors == ()
        assert compatible_family_group(chain2, f) == h[0]

    def test_morphism_named_like_object_rejected(self):
        # chain V -> U with F(U) = Z, F(V) = Z^2: H^* = Z, 0, 0, 0.  Naming
        # the arrow U made the edge string (U,) read as the vertex U, which
        # gave H^0 = Z + Z, so such a category must not validate.
        def chain(name):
            c = build_category(["U", "V"], {name: ("V", "U")}, {})
            f = AbelianPresheaf(
                base=c,
                group={"U": ZZ, "V": FgAbelianGroup(factors=(0, 0))},
                restriction={
                    "id_U": ((1,),),
                    "id_V": ((1, 0), (0, 1)),
                    name: ((1,), (0,)),
                },
            )
            return c, f

        c, f = chain("a")
        assert validate_category(c) == []
        h = cohomology_of_complex(cochain_complex(c, f, 3))
        assert [x.factors for x in h] == [(0,), (), (), ()]
        c, _ = chain("U")
        assert validate_category(c) == [
            "morphism U has the same identifier as an object"
        ]


class TestH0Independent:
    def test_matches_on_groups(self, z2, z3):
        for g in (z2, z3):
            for coeff in (ZZ, zmod(2), zmod(6), FgAbelianGroup(factors=(2, 0))):
                f = constant_abelian_presheaf(g, coeff)
                a = cohomology_of_complex(cochain_complex(g, f, 1))[0]
                b = compatible_family_group(g, f)
                assert a == b

    def test_basis_change_invariance(self, chain2):
        # conjugating the presentation by generator automorphisms must not
        # change the cohomology (Q_x unimodular, respecting relations both
        # ways; restriction matrices become Q_src . M . Q_tgt^{-1})
        base = AbelianPresheaf(
            base=chain2,
            group={"U": FgAbelianGroup(factors=(2, 0)), "V": zmod(2)},
            restriction={
                "id_U": ((1, 0), (0, 1)),
                "id_V": ((1,),),
                "a_V_U": ((1, 0),),
            },
        )
        assert validate_abelian_presheaf(base) == []
        h_ref = [x.factors for x in cohomology_of_complex(cochain_complex(chain2, base, 3))]
        # Q_U = [[1,1],[0,1]] (an automorphism of Z/2 + Z), Q_V = identity
        twisted = AbelianPresheaf(
            base=chain2,
            group=base.group,
            restriction={
                "id_U": ((1, 0), (0, 1)),
                "id_V": ((1,),),
                # Q_V . M . Q_U^{-1} = [[1,0]] . [[1,-1],[0,1]] = [[1,-1]]
                "a_V_U": ((1, -1),),
            },
        )
        assert validate_abelian_presheaf(twisted) == []
        h_tw = [
            x.factors for x in cohomology_of_complex(cochain_complex(chain2, twisted, 3))
        ]
        assert h_tw == h_ref

    def test_non_strict_matrices_refused(self, z2):
        # functorial modulo relations but not strictly: the cochain layer
        # demands a strict model
        twisted = AbelianPresheaf(
            base=z2,
            group={"*": FgAbelianGroup(factors=(2, 0))},
            restriction={"id_*": ((1, 0), (0, 1)), "r1": ((1, 1), (0, 1))},
        )
        assert validate_abelian_presheaf(twisted) == []
        with pytest.raises(ValidationFailure):
            cochain_complex(z2, twisted, 2)


class TestStackCohomology:
    def test_pt_trivial_group(self, pt):
        g = constant_presheaf_of_categories(pt, cyclic_groupoid(1))
        fs = grothendieck_construct(g)
        out = stack_cohomology(
            trivial_topology(pt), g, constant_abelian_presheaf(fs.total, ZZ), 3
        )
        assert [x.factors for x in out] == [(0,), (), (), ()]

    def test_pt_z2_is_group_cohomology(self, pt, z2):
        g = constant_presheaf_of_categories(pt, z2)
        fs = grothendieck_construct(g)
        out = stack_cohomology(
            trivial_topology(pt), g, constant_abelian_presheaf(fs.total, ZZ), 4
        )
        assert [x.factors for x in out] == [(0,), (), (2,), (), (2,)]

    def test_pt_e2_matches_trivial(self, pt, e2):
        g = constant_presheaf_of_categories(pt, e2)
        fs = grothendieck_construct(g)
        out = stack_cohomology(
            trivial_topology(pt), g, constant_abelian_presheaf(fs.total, ZZ), 4
        )
        assert [x.factors for x in out] == [(0,), (), (), (), ()]

    def test_refuses_nontrivial_topology(self, chain2):
        t = saturate_topology(
            chain2, {"U": {sieve_from_generators(chain2, "U", {"a_V_U"})}}
        )
        g = constant_presheaf_of_categories(chain2, cyclic_groupoid(1))
        fs = grothendieck_construct(g)
        with pytest.raises(RefusedMode):
            stack_cohomology(t, g, constant_abelian_presheaf(fs.total, ZZ), 2)

    def test_h0_cross_check(self, chain2, z2):
        g = constant_presheaf_of_categories(chain2, z2)
        fs = grothendieck_construct(g)
        f = constant_abelian_presheaf(fs.total, ZZ)
        out = stack_cohomology(trivial_topology(chain2), g, f, 2)
        assert out[0] == compatible_family_group(fs.total, f)


class TestCech:
    def covered(self, chain2):
        s = sieve_from_generators(chain2, "U", {"a_V_U"})
        return saturate_topology(chain2, {"U": {s}}), s

    def test_maximal_gives_sections(self, chain2):
        t, s = self.covered(chain2)
        f = constant_abelian_presheaf(chain2, ZZ)
        out = cech_cohomology(t, "U", maximal_sieve(chain2, "U"), f, 3)
        assert [x.factors for x in out] == [(0,), (), (), ()]

    @pytest.mark.parametrize("seed", range(24))
    def test_maximal_sieve_slice_has_a_terminal_object(self, seed):
        # c/u has the terminal object (u|id_u), so constant coefficients
        # have their group in degree 0 and nothing above
        rng = random.Random(seed)
        c = random_poset_site(rng, max_objects=4)
        t = random_topology(rng, c)
        if seed % 2:
            a = random_presheaf_of_categories(rng, c, max_fibre_objects=2)
            c = grothendieck_construct(a).total
            t = trivial_topology(c)
        for g in (ZZ, zmod(4), FgAbelianGroup.from_orders([0, 2, 3])):
            f = constant_abelian_presheaf(c, g)
            for u in c.objects:
                out = cech_cohomology(t, u, maximal_sieve(c, u), f, 3)
                assert out == [f.group[u], TRIVIAL_GROUP, TRIVIAL_GROUP, TRIVIAL_GROUP]

    def test_generated_sieve(self, chain2):
        t, s = self.covered(chain2)
        f = constant_abelian_presheaf(chain2, ZZ)
        out = cech_cohomology(t, "U", s, f, 3)
        assert [x.factors for x in out] == [(0,), (), (), ()]

    def test_zero_coefficients(self, chain2):
        t, s = self.covered(chain2)
        f = constant_abelian_presheaf(chain2, TRIVIAL_GROUP)
        out = cech_cohomology(t, "U", s, f, 2)
        assert all(x == TRIVIAL_GROUP for x in out)

    def test_cech_writes_each_differential_once(self, monkeypatch):
        # the public entry's checks write every differential; the reduction
        # reads those rows instead of calling the builders again
        calls = []
        deferred = cohom._deferred

        def counted(k, build):
            def write(cleared):
                calls.append(k)
                return build(cleared)
            return write

        def counting(cls, _builders, **given):
            builders = [counted(k, b) for k, b in enumerate(_builders)]
            return deferred(cls, _builders=builders, **given)

        monkeypatch.setattr(cohom, "_deferred", counting)
        argv = ["cech", str(BUNDLES / "chain_cover.bundle"), "--coeffs", "FZ",
                "--object", "U", "--cover", "a", "--nmax", "2"]
        assert run(argv, stdout=io.StringIO()) == 0
        assert sorted(calls) == [0, 1, 2]

    def test_noncovering_rejected(self, chain2):
        t, s = self.covered(chain2)
        f = constant_abelian_presheaf(chain2, ZZ)
        empty = sieve_from_generators(chain2, "U", set())

        with pytest.raises(InputError):
            cech_cohomology(t, "U", empty, f, 2)

    def test_cover_above_least_cover_must_be_a_sieve_on_the_object(self, chain2, chain3):
        # the check reads L(u) rather than listing covers, so a set of arrows
        # above L(u) that is no sieve, or a sieve on another object, is refused
        t = saturate_topology(chain3, {"U": {sieve_from_generators(chain3, "U", {"a_W_U"})}})
        assert t.least["U"].members == {"a_W_U"}
        f = constant_abelian_presheaf(chain3, ZZ)
        with pytest.raises(InputError, match="not a covering sieve of U"):
            cech_cohomology(t, "U", Sieve("U", frozenset({"a_W_U", "id_U"})), f, 1)
        empty = sieve_from_generators(chain2, "U", set())
        t = saturate_topology(chain2, {"U": {empty}})
        assert t.least["U"] == empty
        f = constant_abelian_presheaf(chain2, ZZ)
        with pytest.raises(InputError, match="not a covering sieve of U"):
            cech_cohomology(t, "U", maximal_sieve(chain2, "V"), f, 1)

    def test_h0_matches_matching_families_mod2(self, chain2):
        # set-level matching families of the underlying Z/2 presheaf count
        # the elements of the Cech H^0 group
        from fibsite.site import make_presheaf, matching_families

        t, s = self.covered(chain2)
        f = constant_abelian_presheaf(chain2, zmod(2))
        out = cech_cohomology(t, "U", s, f, 1)
        sets = make_presheaf(
            chain2,
            value={u: ("0", "1") for u in chain2.objects},
            action={m: {"0": "0", "1": "1"} for m in chain2.morphisms},
        )
        fams = matching_families(sets, s)
        order = 1
        for d in out[0].factors:
            order *= d if d else 0
        assert order == len(fams) == 2


class TestInvariance:
    def test_identity_passes(self, pt, z2):
        g = constant_presheaf_of_categories(pt, z2)
        m = identity_morphism_of_presheaves(g)
        fs = grothendieck_construct(g)
        rep = invariance_report(m, constant_abelian_presheaf(fs.total, ZZ), 3)
        assert rep.passed

    def test_e2_collapse(self, pt, e2):
        triv = cyclic_groupoid(1)
        ge = constant_presheaf_of_categories(pt, e2)
        gt = constant_presheaf_of_categories(pt, triv)
        m = MorphismOfPresheavesOfCategories(
            domain=ge,
            codomain=gt,
            components={
                "*": Functor(
                    domain=e2,
                    codomain=triv,
                    object_map={o: "*" for o in e2.objects},
                    morphism_map={mm: "id_*" for mm in e2.morphisms},
                )
            },
        )
        rep = invariance_report(
            m, constant_abelian_presheaf(grothendieck_construct(gt).total, ZZ), 3
        )
        assert rep.passed
        assert [x.factors for x in rep.target] == [(0,), (), (), ()]

    def test_blocks_over_chain(self, chain2, z2):
        gb = group_block_groupoid(["o1", "o2"], 2)
        gG = constant_presheaf_of_categories(chain2, gb)
        gH = constant_presheaf_of_categories(chain2, z2)
        mor_map = {}
        for m, (s, t) in gb.morphisms.items():
            if m.startswith("id_"):
                mor_map[m] = "id_*"
            else:
                i = int(m.split("_")[0][1:])
                mor_map[m] = "id_*" if i == 0 else "r1"
        comp = Functor(
            domain=gb, codomain=z2,
            object_map={o: "*" for o in gb.objects},
            morphism_map=mor_map,
        )
        m = MorphismOfPresheavesOfCategories(
            domain=gG, codomain=gH, components={u: comp for u in chain2.objects}
        )
        rep = invariance_report(
            m, constant_abelian_presheaf(grothendieck_construct(gH).total, ZZ), 3
        )
        assert rep.passed
        assert [x.factors for x in rep.target] == [(0,), (), (2,), ()]

    def test_non_equivalence_refused(self, pt, z2):
        triv = cyclic_groupoid(1)
        gz = constant_presheaf_of_categories(pt, z2)
        gt = constant_presheaf_of_categories(pt, triv)
        m = MorphismOfPresheavesOfCategories(
            domain=gz,
            codomain=gt,
            components={
                "*": Functor(
                    domain=z2, codomain=triv, object_map={"*": "*"},
                    morphism_map={mm: "id_*" for mm in z2.morphisms},
                )
            },
        )
        with pytest.raises(RefusedMode):
            invariance_report(
                m, constant_abelian_presheaf(grothendieck_construct(gt).total, ZZ), 2
            )

    def test_seeded_equivalences(self):
        rng = random.Random(23)
        for _ in range(5):
            m, gh = random_sectionwise_equivalence(rng)
            f = constant_abelian_presheaf(
                grothendieck_construct(gh).total, ZZ
            )
            rep = invariance_report(m, f, 2)
            assert rep.passed

    def test_malformed_morphism_fails_validation(self):
        m, gh = random_sectionwise_equivalence(random.Random(1))
        u = sorted(m.components)[0]
        broken = dataclasses.replace(
            m, components={v: c for v, c in m.components.items() if v != u}
        )
        f = constant_abelian_presheaf(grothendieck_construct(gh).total, ZZ)
        with pytest.raises(ValidationFailure, match=f"no component at {u}"):
            invariance_report(broken, f, 2)

    def test_each_total_built_once(self, monkeypatch):
        m, gh = random_sectionwise_equivalence(random.Random(1))
        f = constant_abelian_presheaf(grothendieck_construct(gh).total, ZZ)
        built = []
        build = fibred._grothendieck_construct

        def counting(a):
            built.append(a)
            return build(a)

        monkeypatch.setattr(fibred, "_grothendieck_construct", counting)
        assert invariance_report(m, f, 2).passed
        assert [id(a) for a in built] == [id(m.domain), id(m.codomain)]

    def test_each_input_validated_once(self, monkeypatch):
        # the pulled-back coefficients and the two totals are the library's
        # own; only the caller's presheaves, morphism and coefficients are
        # checked, once each
        m, gh = random_sectionwise_equivalence(random.Random(1))
        f = constant_abelian_presheaf(grothendieck_construct(gh).total, ZZ)
        seen: dict[str, list[int]] = {}
        for module, name in (
            (fibred, "validate_presheaf_of_categories"),
            (fibred, "validate_morphism_of_presheaves"),
            (cohom, "validate_abelian_presheaf"),
            (fibred, "_grothendieck_construct"),
        ):
            def counting(x, name=name, original=getattr(module, name)):
                seen.setdefault(name, []).append(id(x))
                return original(x)

            monkeypatch.setattr(module, name, counting)
        assert invariance_report(m, f, 2).passed
        assert seen == {
            "validate_presheaf_of_categories": [id(m.domain), id(m.codomain)],
            "validate_morphism_of_presheaves": [id(m)],
            "validate_abelian_presheaf": [id(f)],
            "_grothendieck_construct": [id(m.domain), id(m.codomain)],
        }

    def test_broken_endpoint_fails_validation(self):
        # the morphism's own laws read the endpoints' restrictions, so the
        # endpoints are checked first
        m, gh = random_sectionwise_equivalence(random.Random(5))
        alpha = "a_U0_U2"
        domain = dataclasses.replace(
            m.domain,
            restriction={k: r for k, r in m.domain.restriction.items() if k != alpha},
        )
        broken = dataclasses.replace(m, domain=domain)
        f = constant_abelian_presheaf(grothendieck_construct(gh).total, ZZ)
        with pytest.raises(ValidationFailure, match=f"no restriction functor for {alpha}"):
            total_functor(broken)
        with pytest.raises(ValidationFailure, match=f"no restriction functor for {alpha}"):
            invariance_report(broken, f, 2)


def test_torsion_coefficients_on_stack(pt, z2):
    g = constant_presheaf_of_categories(pt, z2)
    fs = grothendieck_construct(g)
    out = stack_cohomology(
        trivial_topology(pt), g, constant_abelian_presheaf(fs.total, zmod(2)), 3
    )
    assert [x.factors for x in out] == [(2,), (2,), (2,), (2,)]
