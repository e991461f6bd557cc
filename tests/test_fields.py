"""Lie bracket, decomposition, table, derived-series, and canonical-match tests."""

import dataclasses
import itertools
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from liesym import fields, parse
from liesym.catalog import FRACTIONAL, INTEGER, HeatEquation, generators
from liesym.expr import (
    Expr,
    alpha,
    partial_derivative,
    point_derivative,
    spatial_name,
    sum_of_products,
)
from liesym.fields import (
    CommutatorTable,
    Decomposition,
    DimensionMismatchError,
    VectorField,
    closure_report,
    commutator_table,
    decompose_in_basis,
    derived_series,
    identify_rotation,
    lie_bracket,
    match_canonical,
    vf_add,
    vf_scale,
)

from .strategies import point_fields


def _named(eq):
    return {g.name: g.field for g in generators(eq)}


@pytest.fixture(scope="module")
def g1():
    return _named(HeatEquation(1, INTEGER))


@pytest.fixture(scope="module")
def g3():
    return _named(HeatEquation(3, INTEGER))


@pytest.fixture(scope="module")
def gf1():
    return _named(HeatEquation(1, FRACTIONAL))


class TestBracket:
    def test_time_translation_vs_dilation(self, g1):
        br = lie_bracket(g1["G3"], g1["G4"])
        dec = decompose_in_basis(br, list(g1.values()))
        assert dec.coeffs == {"G3": Expr.number(2)}

    def test_self_bracket_vanishes(self, g1):
        assert lie_bracket(g1["G5"], g1["G5"]).is_zero()

    def test_translation_vs_fractional_dilation(self, gf1):
        br = lie_bracket(gf1["G01"], gf1["G02"])
        dec = decompose_in_basis(br, [gf1["G01"], gf1["G02"], gf1["G03"]])
        assert dec.coeffs == {"G01": parse("alpha")}

    def test_dimension_mismatch(self, g1, g3):
        with pytest.raises(DimensionMismatchError):
            lie_bracket(g1["G1"], g3["G31"])

    def test_point_field_invariant_enforced(self):
        with pytest.raises(ValueError):
            VectorField("bad", 1, parse("u_x"), (parse("0"),), parse("0"))


class TestDecompose:
    def test_constant_combination(self, g1):
        f = vf_scale(2, g1["G3"])
        dec = decompose_in_basis(f, [g1["G3"], g1["G1"]])
        assert dec.coeffs == {"G3": Expr.number(2)}

    def test_alpha_coefficient(self, gf1):
        f = vf_scale(parse("alpha"), gf1["G01"])
        dec = decompose_in_basis(f, [gf1["G01"]])
        assert dec.coeffs == {"G01": parse("alpha")}

    def test_outside_span(self, g1):
        f = VectorField("f", 1, parse("0"), (parse("0"),), parse("x"))
        assert not decompose_in_basis(f, [g1["G1"], g1["G3"]]).in_span

    def test_infinite_family_flag(self, g1):
        br = lie_bracket(g1["G1"], g1["G7"])
        dec = decompose_in_basis(br, list(g1.values()))
        assert not dec.in_span
        assert dec.infinite_family

    def test_bare_function_decomposes(self, g1):
        br = lie_bracket(g1["G6"], g1["G7"])
        dec = decompose_in_basis(br, list(g1.values()))
        assert dec.coeffs == {"G7": Expr.number(-1)}


def _random_alpha_poly(rng):
    return sum(
        (Expr.number(Fraction(rng.randint(-5, 5), rng.randint(1, 4))) * parse(f"alpha^{d}")
         for d in range(rng.randint(1, 3))),
        Expr.zero(),
    )


@pytest.mark.parametrize("regime", [INTEGER, FRACTIONAL])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_random_combinations_decompose_back(n, regime):
    basis = [g.field for g in generators(HeatEquation(n, regime))]
    rng = random.Random(1000 * n + len(regime))
    for _ in range(3):
        coeffs = {}
        f = VectorField("0", n, Expr.zero(), (Expr.zero(),) * n, Expr.zero())
        for b in basis:
            if rng.random() < 0.5:
                continue
            c = _random_alpha_poly(rng)
            if not c.is_zero:
                coeffs[b.name] = c
                f = vf_add(f, vf_scale(c, b))
        assert decompose_in_basis(f, basis).coeffs == coeffs


@pytest.mark.parametrize("pivot", [2, 3, -6])
def test_integral_pivot_inverts_exactly(pivot):
    # the basis holds int coefficients; its pivot must be inverted as a
    # Fraction, not a float (1/3 has no exact binary form)
    d_x = VectorField("d_x", 1, Expr.zero(), (Expr.one(),), Expr.zero())
    dec = decompose_in_basis(d_x, [vf_scale(pivot, d_x, name="B")])
    assert dec.coeffs == {"B": Expr.number(Fraction(1, pivot))}
    assert dec.coeffs["B"].as_fraction() == Fraction(1, pivot)


class TestDependentBasis:
    """Unknowns of basis vectors that depend on earlier ones stay zero."""

    def test_rational_multiple(self, g1):
        g3 = g1["G3"]
        h = vf_scale(2, g3, name="H")
        alpha_h = vf_scale(parse("alpha"), h)
        assert decompose_in_basis(g3, [g3, h]).coeffs == {"G3": Expr.one()}
        assert decompose_in_basis(h, [g3, h]).coeffs == {"G3": Expr.number(2)}
        assert decompose_in_basis(alpha_h, [g3, h]).coeffs == {"G3": parse("2*alpha")}
        assert decompose_in_basis(g3, [h, g3]).coeffs == {"H": Expr.number(Fraction(1, 2))}
        assert decompose_in_basis(h, [h, g3]).coeffs == {"H": Expr.one()}
        assert decompose_in_basis(alpha_h, [h, g3]).coeffs == {"H": parse("alpha")}
        assert not decompose_in_basis(vf_add(g3, g1["G1"]), [g3, h]).in_span

    def test_alpha_multiple(self, g1):
        g3 = g1["G3"]
        k = vf_scale(parse("alpha"), g3, name="K")
        f = vf_scale(parse("alpha^2 + 1"), g3)
        assert decompose_in_basis(k, [g3, k]).coeffs == {"G3": parse("alpha")}
        assert decompose_in_basis(f, [g3, k]).coeffs == {"G3": parse("alpha^2 + 1")}
        assert decompose_in_basis(k, [k, g3]).coeffs == {"K": Expr.one()}
        assert decompose_in_basis(f, [k, g3]).coeffs == {"K": parse("alpha"), "G3": Expr.one()}


def test_same_names_different_fields_do_not_share_reduction(g1):
    def named_a(vf):
        return VectorField("A", vf.n, vf.xi0, vf.xi, vf.eta)

    translation, dilation = named_a(g1["G1"]), named_a(g1["G3"])
    assert decompose_in_basis(g1["G1"], [translation]).coeffs == {"A": Expr.one()}
    assert not decompose_in_basis(g1["G1"], [dilation]).in_span
    assert decompose_in_basis(g1["G3"], [dilation]).coeffs == {"A": Expr.one()}
    assert not decompose_in_basis(g1["G3"], [translation]).in_span


class TestClosure:
    def test_empty_basis_closed(self):
        assert closure_report([]).closed

    def test_translations_closed(self, g3):
        assert closure_report([g3["G31"], g3["G32"]]).closed

    def test_sl2_triple_not_closed_without_homogeneity(self, g3):
        # [G310, G312] = 4 G311 - 6 G313 leaves the triple's span
        rep = closure_report([g3["G310"], g3["G311"], g3["G312"]])
        assert not rep.closed
        assert ("G310", "G312") in rep.offending_pairs

    def test_sl2_plus_homogeneity_closed(self, g3):
        rep = closure_report([g3["G310"], g3["G311"], g3["G312"], g3["G313"]])
        assert rep.closed

    def test_projective_pair_not_closed(self, g1):
        rep = closure_report([g1["G3"], g1["G5"]])
        assert not rep.closed
        assert rep.offending_pairs == (("G3", "G5"),)

    def test_infinite_family_not_a_violation(self, g1):
        rep = closure_report(list(g1.values()))
        assert rep.closed
        assert rep.infinite_pairs  # brackets with G7 stay in the family


class TestDerivedSeries:
    def test_abelian_pair(self, g3):
        assert derived_series([g3["G31"], g3["G32"]]) == [2, 0]

    def test_fractional_1d(self, gf1):
        assert derived_series([gf1["G01"], gf1["G02"], gf1["G03"]]) == [3, 1, 0]

    def test_so3_perfect(self, g3):
        assert derived_series([g3["G37"], g3["G38"], g3["G39"]]) == [3, 3]

    def test_not_closed_raises(self, g1):
        with pytest.raises(ValueError):
            derived_series([g1["G3"], g1["G5"]])

    @pytest.mark.parametrize("n,regime,series", [
        (6, INTEGER, [31, 31]), (7, INTEGER, [39, 39]), (8, INTEGER, [48, 48]),
        (6, FRACTIONAL, [23, 21, 21]), (7, FRACTIONAL, [30, 28, 28]),
        (8, FRACTIONAL, [38, 36, 36]),
    ])
    def test_finite_catalog_series(self, n, regime, series):
        finite = [g.field for g in generators(HeatEquation(n, regime)) if g.klass != "infinite"]
        assert derived_series(finite) == series


def _finite_table(eq):
    return commutator_table([g.field for g in generators(eq) if g.klass != "infinite"])


class TestCanonical:
    def test_sl2_1d(self):
        table = _finite_table(HeatEquation(1, INTEGER))
        rep = match_canonical(table, ["G3", "G4", "G5"], "sl2", modulo=["G6"])
        assert rep.matched
        assert rep.scaling == (Fraction(1), Fraction(1), Fraction(1, 4))
        assert rep.modulo_components  # the projected homogeneity component is recorded

    def test_sl2_requires_modulo(self):
        # [G3,G5] has a G6 component, and G6 is neither matched nor projected away
        rep = match_canonical(_finite_table(HeatEquation(1, INTEGER)), ["G3", "G4", "G5"], "sl2")
        assert not rep.matched
        assert rep.message == "[G3,G5] outside span"

    def test_so3(self):
        table = _finite_table(HeatEquation(3, INTEGER))
        assert match_canonical(table, ["G37", "G38", "G39"], "so").matched

    def test_translations_are_not_so3(self):
        table = _finite_table(HeatEquation(3, INTEGER))
        rep = match_canonical(table, ["G31", "G32", "G33"], "so")
        assert not rep.matched
        assert rep.message == "not rotation generators: G31, G32, G33"

    def test_so4(self):
        table = _finite_table(HeatEquation(4, INTEGER))
        rep = match_canonical(table, [f"G5{i}" for i in (9, 10, 11, 12, 13, 14)], "so")
        assert rep.matched

    def test_sl2_requires_three_elements(self):
        rep = match_canonical(_finite_table(HeatEquation(1, INTEGER)), ["G3", "G4"], "sl2")
        assert (rep.matched, rep.message) == (False, "sl2 requires three elements")

    def test_duplicate_rotation_planes(self, g3):
        table = commutator_table([g3["G37"], vf_scale(-1, g3["G37"], "J")])
        rep = match_canonical(table, ["G37", "J"], "so")
        assert (rep.matched, rep.message) == (False, "duplicate rotation planes")

    def test_alpha_dependent_constant(self):
        # [G01, G02] = alpha*G01
        rep = match_canonical(_finite_table(HeatEquation(1, FRACTIONAL)),
                              ["G01", "G02", "G03"], "sl2")
        assert (rep.matched, rep.message) == (False, "alpha-dependent constant in [G01,G02]")

    def test_constant_mismatch(self):
        # [G1, G2] = -G6 has no e component, where sl(2) needs [e,h] = 2e
        rep = match_canonical(_finite_table(HeatEquation(1, INTEGER)),
                              ["G1", "G2", "G3"], "sl2", modulo=["G6"])
        assert (rep.matched, rep.message) == (False, "constant mismatch on [G1,G2] -> G1")

    def test_no_rational_rescaling(self):
        # the zero pattern of sl(2) with [e,h] = 2e, [e,f] = h - 2Y but
        # [h,f] = 4f - 2Z: a_h = 1 and a_f = 1 leave [h,f] off by a factor 2
        def vf(name, xi0, xi, eta="0"):
            return VectorField(name, 1, parse(xi0), (parse(xi),), parse(eta))

        table = commutator_table([vf("E", "0", "1"), vf("Hs", "2*t", "2*x"),
                                  vf("F", "0", "x^2", "t^2*u"), vf("Z", "0", "x^2"),
                                  vf("Y", "t", "0")])
        rep = match_canonical(table, ["E", "Hs", "F"], "sl2", modulo=["Z", "Y"])
        assert (rep.matched, rep.message) == (False, "no rational rescaling matches the pattern")

    def test_identify_rotation(self, g3):
        assert identify_rotation(g3["G37"]) == (1, 2, 1)
        assert identify_rotation(g3["G31"]) is None


class TestTable:
    def test_antisymmetric_json(self, gf1):
        basis = list(gf1.values())
        table = commutator_table(basis)
        obj = table.to_json_obj()
        assert obj["basis"] == ["G01", "G02", "G03", "G04"]
        by_pair = {(e["i"], e["j"]): e for e in obj["entries"]}
        assert by_pair[(0, 1)]["coeffs"] == {"G01": "alpha"}
        assert by_pair[(0, 3)].get("outside") and by_pair[(0, 3)].get("infinite")

    def test_structure_constants_checks(self, g3):
        rots = [g3["G37"], g3["G38"], g3["G39"]]
        table = commutator_table(rots)
        # so(3): [G37,G38] = -G39, [G37,G39] = G38, [G38,G39] = -G37
        assert [b.name for b in table.basis] == ["G37", "G38", "G39"]
        coeffs = {(e.i, e.j): e.decomposition.coeffs for e in table.entries}
        assert coeffs == {
            (0, 1): {"G39": Expr.number(-1)},
            (0, 2): {"G38": Expr.one()},
            (1, 2): {"G37": Expr.number(-1)},
        }

    @pytest.mark.parametrize("rows,rank", [
        ([[alpha(), alpha() ** 2], [Expr.one(), alpha()]], 1),
        ([[alpha(), Expr.one()], [Expr.one(), alpha()]], 2),
        ([[alpha() - 1, Expr.zero()], [Expr.zero(), Expr.zero()]], 1),
        ([], 0),
    ])
    def test_rank_over_rational_functions_in_alpha(self, rows, rank):
        # [[alpha, alpha^2], [1, alpha]] is singular over Q(alpha) although
        # its alpha-power coordinates are independent over Q
        sparse = [{k: e for k, e in enumerate(row) if e} for row in rows]
        assert len(fields._echelon(sparse)) == rank

    def test_echelon_scales_constant_pivots_only(self):
        pivots = fields._echelon([{0: Expr.number(2), 1: alpha()}, {1: alpha() + 1, 2: Expr.one()}])
        assert pivots == {0: {0: Expr.one(), 1: alpha() / 2}, 1: {1: alpha() + 1, 2: Expr.one()}}

    def test_table_reduces_its_basis_once_per_alpha_degree(self, monkeypatch):
        finite = [g.field for g in generators(HeatEquation(3, FRACTIONAL)) if g.klass != "infinite"]
        degrees = []
        reduce = fields._reduced_basis
        monkeypatch.setattr(fields, "_reduced_basis",
                            lambda basis, d: degrees.append(d) or reduce(basis, d))
        fields._commutator_table.cache_clear()
        reduce.cache_clear()
        commutator_table(finite)
        # every bracket looks its reduction up; each alpha degree is reduced once
        assert len(degrees) > len(set(degrees)) == reduce.cache_info().misses

    def test_field_hash_is_computed_once(self, monkeypatch, g3):
        calls = []
        expr_hash = Expr.__hash__
        monkeypatch.setattr(Expr, "__hash__", lambda e: calls.append(e) or expr_hash(e))
        vf = fields.vf_scale(2, g3["G37"])
        assert hash(vf) == hash(vf) and len(calls) == len(vf.components())
        assert hash(dataclasses.replace(vf, name="H")) != hash(vf)

    def test_bracket_reads_each_ordered_pair(self, g3):
        table = commutator_table([g3["G37"], g3["G38"], g3["G39"]])
        assert table.bracket("G37", "G38").coeffs == {"G39": Expr.number(-1)}
        assert table.bracket("G38", "G37").coeffs == {"G39": Expr.one()}
        assert table.bracket("G38", "G38").coeffs == {}
        with pytest.raises(KeyError):
            table.bracket("G37", "G31")

    def test_latex_emission(self, g1):
        table = commutator_table([g1["G3"], g1["G4"]])
        tex = table.to_latex()
        assert r"\Gamma_{3}" in tex and r"\begin{tabular}" in tex

    def test_duplicate_names_rejected(self, g1):
        with pytest.raises(ValueError):
            commutator_table([g1["G1"], g1["G1"]])

    def test_table_deterministic(self, g1):
        basis = list(g1.values())
        t1 = commutator_table(basis).to_json_obj()
        t2 = commutator_table(basis).to_json_obj()
        assert t1 == t2


# -- catalog-wide exact properties -------------------------------------------

def _jacobi_failures(table):
    """Triples of basis names whose structure constants, read through
    CommutatorTable.bracket, break [[a,b],c] + [[b,c],a] + [[c,a],b] = 0."""
    names = [b.name for b in table.basis]
    constants = {}
    for a, b in itertools.product(names, repeat=2):
        dec = table.bracket(a, b)
        assert dec.in_span, (a, b)
        constants[a, b] = dec.coeffs
    failures = []
    for a, b, c in itertools.combinations(names, 3):
        products = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for l, cxy in constants[x, y].items():
                for m, clz in constants[l, z].items():
                    products.setdefault(m, []).append((cxy, clz))
        if any(sum_of_products(p) for p in products.values()):
            failures.append((a, b, c))
    return failures


@pytest.mark.parametrize("n,regime", [(n, r) for n in range(1, 9) for r in (INTEGER, FRACTIONAL)])
def test_jacobi_of_table_structure_constants(n, regime):
    finite = [g.field for g in generators(HeatEquation(n, regime)) if g.klass != "infinite"]
    assert _jacobi_failures(commutator_table(finite)) == []


def test_jacobi_of_table_fails_with_one_flipped_constant():
    finite = [g.field for g in generators(HeatEquation(1, INTEGER)) if g.klass != "infinite"]
    table = commutator_table(finite)
    names = [b.name for b in table.basis]
    k = next(k for k, e in enumerate(table.entries) if (names[e.i], names[e.j]) == ("G1", "G4"))
    coeffs = dict(table.entries[k].decomposition.coeffs)
    coeffs["G1"] = -coeffs["G1"]
    entries = list(table.entries)
    entries[k] = dataclasses.replace(entries[k], decomposition=Decomposition("coeffs", coeffs))
    failures = _jacobi_failures(CommutatorTable(table.basis, tuple(entries)))
    # the flipped constant of [G1, G4] (or of [G4, G1]) enters only the Jacobi
    # sums of triples that hold G1 or G4
    assert failures and all({"G1", "G4"} & set(triple) for triple in failures)
    assert _jacobi_failures(table) == []


@pytest.mark.parametrize("n,regime", [(n, r) for n in (1, 2) for r in (INTEGER, FRACTIONAL)])
def test_antisymmetry_all_pairs(n, regime):
    basis = [g.field for g in generators(HeatEquation(n, regime))]
    for a, b in itertools.combinations(basis, 2):
        assert vf_add(lie_bracket(a, b), lie_bracket(b, a)).is_zero()


@pytest.mark.parametrize("n,regime", [(1, INTEGER), (1, FRACTIONAL), (2, FRACTIONAL)])
def test_jacobi_all_triples(n, regime):
    basis = [g.field for g in generators(HeatEquation(n, regime))]
    for a, b, c in itertools.combinations(basis, 3):
        total = vf_add(
            vf_add(lie_bracket(a, lie_bracket(b, c)), lie_bracket(b, lie_bracket(c, a))),
            lie_bracket(c, lie_bracket(a, b)),
        )
        assert total.is_zero()


@settings(max_examples=40, deadline=None)
@given(point_fields(), point_fields())
def test_bilinearity_over_rationals(a, b):
    lhs = lie_bracket(vf_scale(2, a), b)
    rhs = vf_scale(2, lie_bracket(a, b))
    assert vf_add(lhs, vf_scale(-1, rhs)).is_zero()


@settings(max_examples=30, deadline=None)
@given(point_fields(), point_fields())
def test_antisymmetry_random(a, b):
    assert vf_add(lie_bracket(a, b), lie_bracket(b, a)).is_zero()


def _apply(A, f):
    """Reference action A(f) = sum_v A^v d_v f over v in (t, x_1..x_n, u),
    one derivative and one product at a time."""
    out = A.xi0 * point_derivative(f, "t")
    for i, xi in enumerate(A.xi):
        out = out + xi * point_derivative(f, spatial_name(i + 1))
    return out + A.eta * partial_derivative(f, "u")


def _bracket_by_definition(A, B):
    """Components A(B^k) - B(A^k) of [A, B]."""
    return tuple(_apply(A, b) - _apply(B, a) for a, b in zip(A.components(), B.components()))


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bracket_matches_definition_random(n, data):
    a, b = data.draw(point_fields(n)), data.draw(point_fields(n))
    assert lie_bracket(a, b).components() == _bracket_by_definition(a, b)


@pytest.mark.parametrize("n,regime", [(n, r) for n in (1, 2) for r in (INTEGER, FRACTIONAL)])
def test_bracket_matches_definition_on_catalog(n, regime):
    basis = [g.field for g in generators(HeatEquation(n, regime))]
    # the cases the definition must cover: the infinite generator's F, and
    # the alpha-dependent coefficients of the fractional catalog
    assert any(b.involves_function_symbols() for b in basis)
    if regime == FRACTIONAL:
        assert any(("a",) in c.atoms() for b in basis for c in b.components())
    for a, b in itertools.product(basis, repeat=2):
        assert lie_bracket(a, b).components() == _bracket_by_definition(a, b), (a.name, b.name)


def test_zero_field_helpers():
    z = VectorField("0", 2, Expr.zero(), (Expr.zero(),) * 2, Expr.zero())
    assert z.is_zero()
    assert vf_add(z, z).is_zero()
