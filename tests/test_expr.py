"""Kernel tests: parsing, normal form, derivatives, substitution, evaluation."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liesym import expr, parse
from liesym.expr import (
    EvaluationError,
    Expr,
    ExprError,
    JetOrderError,
    ParseError,
    SubstitutionError,
    UnknownSymbolError,
    equals_zero,
    eval_numeric,
    func_sym,
    jet,
    partial_derivative,
    point_derivative,
    substitute,
    to_latex,
    total_derivative,
    var,
)

from .strategies import _ATOM_TUPLES, _ATOMS_1D, _COEFFS, jet_polynomials, monomials


class TestParse:
    def test_sum_of_products_structure(self):
        e = parse("2*t*u_t + x*u_x")
        assert len(e.terms) == 2
        assert e == 2 * var("t") * jet("t") + var("x") * jet("x")

    def test_index_symmetry_collapses(self):
        assert parse("u_{xy} - u_{yx}") == Expr.zero()

    def test_alpha_coefficient_product(self):
        from liesym.expr import alpha

        assert parse("alpha*x*u_x") == alpha() * var("x") * jet("x")

    def test_braces_required_for_long_indices(self):
        with pytest.raises(ParseError):
            parse("u_xx + 1")  # must be written u_{xx}

    def test_spatial_aliases(self):
        assert parse("x1 + x2") == parse("x + y")
        assert parse("u_{x1x2}") == parse("u_{xy}")

    def test_unknown_symbol(self):
        with pytest.raises(ParseError):
            parse("q + 1")

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("2*t +")
        assert "position" in str(err.value)

    def test_rationals_and_powers(self):
        e = parse("3/4*x^2 - x")
        assert e == Fraction(3, 4) * var("x") ** 2 - var("x")
        assert parse("1/2*x") == Expr.number(Fraction(1, 2)) * var("x")

    def test_polynomial_grammar(self):
        # exponents are non-negative integers and divisors nonzero rationals
        for text, pos in (("x^-1", 2), ("x^(2)", 2), ("x/y", 1), ("x/(x+1)", 1)):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert err.value.pos == pos and "position" in str(err.value)
        with pytest.raises(ParseError, match="division by zero"):
            parse("2/0")
        with pytest.raises(ExprError):
            var("x") ** -1
        with pytest.raises(ExprError):
            var("x") / var("y")
        with pytest.raises(ZeroDivisionError, match="division by zero"):
            var("x") / 0

    def test_atoms_pass_the_constructor_checks(self):
        # the parser builds atoms through the same check as jet(), func_sym()
        # and frac_deriv(): the jet-order cap and spatial-only fractional markers
        for text in ("u_{xxxxx}", "phi_{ttttt}", "F_{xxxxxx}", "Dalpha[u_t]"):
            with pytest.raises(ParseError) as err:
                parse("t + " + text)
            assert err.value.pos == 4
        with pytest.raises(JetOrderError):
            jet("x", "x", "x", "x", "x")
        with pytest.raises(JetOrderError):
            func_sym("F", ("t",) * 5)
        with pytest.raises(ExprError):
            expr.frac_deriv("t")
        assert parse("u_{xxxx} + phi_{tttt} + Dalpha[u_{xxyy}]") == (
            jet(*"xxxx") + func_sym("phi", "tttt") + expr.frac_deriv(*"xxyy"))

    def test_exponent_cap(self):
        with pytest.raises(ParseError) as err:
            parse("x^99999999999")
        assert err.value.pos == 2 and "0..1000" in str(err.value)
        with pytest.raises(ExprError, match="0..1000"):
            var("x") ** 1001
        assert str(parse("x^1000")) == "x^1000"
        assert (var("x") + 1) ** 0 == Expr.one()
        # integers past what int() reads from a string, and digits int() does
        # not read at all, are parse errors too
        for text, pos in (("x^" + "9" * 5000, 2), ("9" * 5000, 0), ("x²", 0), ("²", 0)):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert err.value.pos == pos

    def test_extra_symbols_table(self):
        w = parse("-u_x")
        assert parse("W*phi", {"W": w}) == w * parse("phi")

    def test_fractional_markers(self):
        e = parse("Dalpha[u] - u_{xx}")
        assert str(e) == "-u_{xx} + Dalpha[u]"
        assert parse(str(e)) == e
        with pytest.raises(ParseError):
            parse("Dalphastar[phi]")


class TestDerivatives:
    def test_partial_in_variable(self):
        assert partial_derivative(parse("x^2*u_x"), "x") == parse("2*x*u_x")

    def test_partial_in_jet(self):
        assert partial_derivative(parse("x^2*u_x"), "u_x") == parse("x^2")

    def test_partial_in_u(self):
        assert partial_derivative(parse("u*(2*t+x^2)"), "u") == parse("2*t+x^2")

    def test_total_derivative_basic(self):
        assert total_derivative(parse("u"), "x") == parse("u_x")

    def test_total_derivative_product_rule_oracle(self):
        # independent Leibniz oracle: D(fg) = D(f) g + f D(g)
        f, g = parse("u"), parse("phi")
        direct = total_derivative(f * g, "t")
        leibniz = total_derivative(f, "t") * g + f * total_derivative(g, "t")
        assert equals_zero(direct - leibniz)
        assert direct == parse("u_t*phi + u*phi_t")

    def test_total_derivative_flux_expansion(self):
        got = total_derivative(parse("u*phi_x - phi*u_x"), "x")
        assert got == parse("u*phi_{xx} - phi*u_{xx}")

    def test_function_symbols_gain_subscripts(self):
        assert total_derivative(parse("F"), "t") == parse("F_t")

    def test_jet_order_cap(self):
        with pytest.raises(JetOrderError):
            total_derivative(parse("u_{xxxx}"), "x")

    def test_point_derivative_ignores_jets(self):
        assert point_derivative(parse("u_x*t"), "t") == parse("u_x")
        assert point_derivative(parse("u"), "x") == Expr.zero()
        assert point_derivative(parse("F*t"), "x") == parse("F_x*t")


class TestSubstitute:
    def test_onshell_reduction(self):
        assert equals_zero(substitute(parse("u_t - u_{xx}"), {"u_t": parse("u_{xx}")}))

    def test_fixpoint_through_derived_rules(self):
        # oracle: applying D to the rule twice, u_tt -> D_t(u_xx) -> u_xxxx
        oracle = total_derivative(total_derivative(parse("u_{xx}"), "x"), "x")
        got = substitute(parse("u_{tt}"), {"u_t": parse("u_{xx}")})
        assert got == oracle == parse("u_{xxxx}")

    def test_adjoint_onshell(self):
        got = substitute(parse("phi_t + phi_{xx}"), {"phi_t": -parse("phi_{xx}")})
        assert equals_zero(got)

    def test_cycle_detected(self):
        with pytest.raises(SubstitutionError):
            substitute(parse("u_t"), {"u_t": parse("u_x"), "u_x": parse("u_t")})

    def test_substituting_u_itself(self):
        res = substitute(parse("u_t - u_{xx}"), {"u": parse("x^2 + 2*t")})
        assert equals_zero(res)

    def test_cycle_detected_on_every_call(self):
        # a rule set that cycles is never cached as compiled
        for _ in range(2):
            with pytest.raises(SubstitutionError):
                substitute(parse("u_t"), {"u_t": parse("u_{xy}"), "u_y": parse("u_t")})

    def test_recurrent_derived_replacement_detected(self):
        # u_{txy} -> D_t(u_{tx}) = u_{ttx} -> D_{tx}(u_y) = u_{txy}: no cycle
        # among the base rules, but the derived chain returns to its atom
        with pytest.raises(SubstitutionError):
            substitute(parse("u_{txy}"), {"u_t": parse("u_y"), "u_{xy}": parse("u_{tx}")})

    def test_chain_past_jet_order_cap(self):
        # u_{ttt} -> D_tt(u_{xx}) = u_{ttxx} -> D_txx(u_{xx}): order 5
        with pytest.raises(SubstitutionError):
            substitute(parse("u_{ttt}"), {"u_t": parse("u_{xx}")})

    def test_equal_rules_reuse_derived_replacements(self, monkeypatch):
        import liesym.expr as kernel

        calls = []
        real = kernel.total_derivative

        def counting(e, v):
            calls.append(v)
            return real(e, v)

        monkeypatch.setattr(kernel, "total_derivative", counting)
        rhs = parse("u_{xx} + 7*u")
        first = substitute(parse("u_{txx}"), {"u_t": rhs})
        assert calls == ["x", "x"]  # u_{txx} -> D_x D_x (u_{xx} + 7*u)
        second = substitute(parse("u_{txx}"), {"u_t": parse("u_{xx} + 7*u")})
        assert second == first == parse("u_{xxxx} + 7*u_{xx}")
        assert calls == ["x", "x"]


class TestNormalize:
    def test_square_expansion(self):
        assert equals_zero(parse("(u+x)^2 - u^2 - 2*u*x - x^2"))

    def test_alpha_collection(self):
        assert parse("alpha*x + x*alpha") == parse("2*alpha*x")

    def test_eta_coefficient_collapse(self):
        assert equals_zero(parse("u*(3*alpha-2) - 3*alpha*u + 2*u"))

    def test_equals_zero_examples(self):
        assert equals_zero(parse("u_{xy} - u_{yx}"))
        assert not equals_zero(parse("alpha - 1"))


class TestEval:
    def test_polynomial(self):
        assert eval_numeric(parse("2*t+x^2"), {"t": 1, "x": 2}) == 6.0

    def test_alpha_value(self):
        assert eval_numeric(parse("alpha*x"), {"x": 3}, alpha_value=0.5) == 1.5

    def test_unbound_symbol(self):
        with pytest.raises(EvaluationError):
            eval_numeric(parse("u_x"), {})

    def test_alpha_window(self):
        with pytest.raises(EvaluationError):
            eval_numeric(parse("alpha"), {}, alpha_value=1.5)

    def test_characteristic_on_grid_point(self):
        w = parse("2*t*u_t - alpha*x*u_x")
        val = eval_numeric(w, {"t": 1.0, "x": 2.0, "u_t": 0.25, "u_x": -1.0},
                           alpha_value=0.5)
        assert math.isfinite(val)
        assert val == pytest.approx(2 * 0.25 + 0.5 * 2.0)

    def test_atom_and_name_keys_agree(self):
        e = parse("2*t*u_{xy} - phi_t*Dalpha[u_x] + alpha*x^2")
        values = (0.7, -1.5, 0.25, 3.0, 1.25)
        by_name = eval_numeric(e, dict(zip(("t", "x", "u_xy", "phi_t", "Dalpha[u_x]"), values)), 0.5)
        by_print = eval_numeric(e, dict(zip(("t", "x", "u_{xy}", "phi_t", "Dalpha[u_x]"), values)),
                                0.5)
        atoms = (("v", "t"), ("v", "x"), ("j", ("x", "y")), ("f", "phi", ("t",)), ("D", ("x",)))
        by_atom = eval_numeric(e, dict(zip(atoms, values)), 0.5)
        assert by_name == by_print == by_atom == 2 * 0.7 * 0.25 - 3.0 * 1.25 + 0.5 * 1.5 ** 2

    def test_non_finite_array_entry(self):
        x = np.array([0.5, np.inf, 2.0])
        with pytest.raises(EvaluationError):
            eval_numeric(parse("t*x + 1"), {"t": np.ones(3), "x": x})

    def test_unbound_atom_with_array_values(self):
        with pytest.raises(EvaluationError, match="u_x"):
            eval_numeric(parse("t*u_x"), {"t": np.ones(3)})

    def test_negated_zero_sums_to_positive_zero(self):
        # summed from 0.0: 0.0 + (-0.0) is +0.0, for scalars and arrays alike
        assert math.copysign(1.0, eval_numeric(parse("-u"), {"u": 0.0})) == 1.0
        assert not np.signbit(eval_numeric(parse("-u"), {"u": np.zeros(3)})).any()

    def test_one_atom_allocates_only_its_result(self):
        # no value ** 1 copy and no second array for the sum: the result,
        # plus the boolean mask of the finiteness check
        import tracemalloc

        u = np.random.default_rng(2).standard_normal((2048, 33))
        for w in (parse("u"), parse("-u_x")):
            tracemalloc.start()
            try:
                eval_numeric(w, {"u": u, "u_x": u})
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.2 * u.nbytes

    def test_product_allocates_only_its_result(self):
        # each further factor is multiplied into the term's own array
        import tracemalloc

        u = np.random.default_rng(3).standard_normal((2048, 33))
        w = parse("t*u_x")
        tracemalloc.start()
        try:
            got = eval_numeric(w, {"t": u, "u_x": u[::-1]})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * u.nbytes
        want = _by_the_formula(w, {("v", "t"): u, ("j", ("x",)): u[::-1]}, None)
        assert got.tobytes() == want.tobytes()
        assert eval_numeric(w, {"t": -0.0, "u_x": 3.0}) == 0.0


# one fixed array of values per default atom (alpha is passed separately)
_RNG = np.random.default_rng(5)
_ATOM_ARRAYS = {
    atom: _RNG.uniform(0.5, 2.0, 7) for e in _ATOMS_1D for atom in e.atoms() if atom != ("a",)
}


@settings(max_examples=120, deadline=None)
@given(jet_polynomials())
def test_eval_numeric_on_arrays_is_elementwise(e):
    got = np.broadcast_to(eval_numeric(e, _ATOM_ARRAYS, 0.5), (7,))
    for i in range(7):
        # each element bound on its own as a length-1 array: numpy's vectorised
        # power may differ from the C library pow of float scalars in the last bit
        own = eval_numeric(e, {a: v[i:i + 1] for a, v in _ATOM_ARRAYS.items()}, 0.5)
        assert np.array_equal(np.broadcast_to(own, (1,)), got[i:i + 1])
        scalar = eval_numeric(e, {a: float(v[i]) for a, v in _ATOM_ARRAYS.items()}, 0.5)
        assert scalar == pytest.approx(float(got[i]), rel=1e-12, abs=1e-12)


def _by_the_formula(e, values, alpha_value):
    """eval_numeric's documented sum written out with no shortcut: float(c)
    times value ** k for every factor, k = 1 included, and every term added
    to a new total, from 0.0."""
    values = {**values, ("a",): alpha_value}
    total = 0.0
    for mono, c in e.terms:
        val = float(c)
        for atom, k in mono:
            val = val * values[atom] ** k
        total = total + val
    return total


# signed zeros and a few magnitudes, so that 0.0 + (-0.0) sums occur
_SIGNED = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 1.5])


@settings(max_examples=150, deadline=None)
@given(jet_polynomials(), st.data())
def test_eval_numeric_bits_equal_the_formula(e, data):
    atoms = [a for x in _ATOMS_1D for a in x.atoms() if a != ("a",)]
    scalars = {a: data.draw(_SIGNED) for a in atoms}
    got = eval_numeric(e, scalars, 0.5)
    assert np.float64(got).tobytes() == np.float64(_by_the_formula(e, scalars, 0.5)).tobytes()
    # the same shape for every atom, and a column t against a row x, which
    # sums into a new array of the broadcast shape
    for shapes in ({}, {("v", "t"): (5, 1), ("v", "x"): (1, 5)}):
        arrays = {a: np.array(data.draw(st.lists(_SIGNED, min_size=5, max_size=5)))
                  .reshape(shapes.get(a, (5,))) for a in atoms}
        got = np.asarray(eval_numeric(e, arrays, 0.5))
        want = np.asarray(_by_the_formula(e, arrays, 0.5))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# -- properties --------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(jet_polynomials())
def test_normalize_idempotent(e):
    parsed = parse(str(e))  # printer round trip
    assert parsed == e
    assert hash(parsed) == hash(e)


@settings(max_examples=120, deadline=None)
@given(jet_polynomials())
def test_coefficient_type_is_invisible(e):
    # Fraction(1, 2) * 2 leaves Fraction coefficients with denominator 1
    # where e holds ints: ==, hash and str must not tell them apart
    f = e * Fraction(1, 2) * 2
    assert f == e
    assert hash(f) == hash(e)
    assert str(f) == str(e)


def test_integral_numbers_are_stored_as_int():
    for q in (Fraction(4, 2), 2, Fraction(-6, 3)):
        ((mono, c),) = Expr.number(q).terms
        assert mono == () and type(c) is int and c == q
    ((_, half),) = Expr.number(Fraction(2, 4)).terms
    assert half == Fraction(1, 2) and type(half) is Fraction
    assert type(Expr.number(Fraction(3, 1)).as_fraction()) is Fraction


@settings(max_examples=80, deadline=None)
@given(jet_polynomials(max_terms=3), st.integers(0, 7))
def test_power_by_squaring_equals_the_repeated_product(e, k):
    want = Expr.one()
    for _ in range(k):
        want = want * e
    assert e ** k == want


def test_unscaled_terms_form_no_product(monkeypatch):
    e, f, t = parse("t*u_x - 2*x*u + 3"), parse("u_x*x"), var("t")
    want = e + parse("t*x*u_x")
    calls = []
    real = expr._add_products
    monkeypatch.setattr(expr, "_add_products", lambda *args: calls.append(args) or real(*args))
    assert expr.sum_of_products(((Expr.one(), e), (Expr.one(), -e))) == Expr.zero()
    assert expr.sum_of_products(((Expr.one(), e), (t, f))) == want
    assert len(calls) == 1  # the products of t and f only


@settings(max_examples=80, deadline=None)
@given(jet_polynomials(), jet_polynomials())
def test_total_derivative_linear(e1, e2):
    a, b = Fraction(3, 2), Fraction(-2)
    lhs = total_derivative(a * e1 + b * e2, "x")
    rhs = a * total_derivative(e1, "x") + b * total_derivative(e2, "x")
    assert equals_zero(lhs - rhs)


@settings(max_examples=80, deadline=None)
@given(jet_polynomials())
def test_total_derivatives_commute(e):
    dxdt = total_derivative(total_derivative(e, "t"), "x")
    dtdx = total_derivative(total_derivative(e, "x"), "t")
    assert equals_zero(dxdt - dtdx)


# monomials to multiply by, so that terms carry higher powers
_FACTORS = (Expr.one(), var("t"), var("x"), var("t") * var("x"), jet(), jet("x"))


def _atom_derivative(atom, v, jets_chain):
    """D_v of one atom, written out from its kind."""
    kind = atom[0]
    if kind == "v":
        return Expr.one() if atom[1] == v else Expr.zero()
    if kind == "j":
        return jet(*atom[1], v) if jets_chain else Expr.zero()
    if kind == "f":
        return func_sym(atom[1], atom[2] + (v,))
    return Expr.zero()  # alpha


def _chain_rule(e, v, jets_chain):
    out = Expr.zero()
    for atom in e.atoms():
        out = out + partial_derivative(e, atom) * _atom_derivative(atom, v, jets_chain)
    return out


@settings(max_examples=120, deadline=None)
@given(jet_polynomials(), st.sampled_from(_FACTORS), st.sampled_from(("t", "x")))
def test_total_derivative_chain_rule(e, factor, v):
    e = e * factor
    assert total_derivative(e, v) == _chain_rule(e, v, jets_chain=True)


@settings(max_examples=120, deadline=None)
@given(jet_polynomials(), st.sampled_from(_FACTORS), st.sampled_from(("t", "x")))
def test_point_derivative_chain_rule(e, factor, v):
    # u, its jets and fractional markers are constant on (t, x, u)-space
    e = e * factor
    assert point_derivative(e, v) == _chain_rule(e, v, jets_chain=False)


# -- construction order ------------------------------------------------------
# The normal form is an unordered map; only Expr.terms is sorted, so no result
# may depend on the order in which terms were added.

def _sum_in_order(terms, order=None, as_fraction=()):
    """Sum of the terms in the given order; a term whose index is in
    as_fraction carries Fraction coefficients (denominator 1 included)."""
    out = Expr.zero()
    for i in range(len(terms)) if order is None else order:
        term = terms[i]
        out = out + (term * Fraction(1, 3) * 3 if i in as_fraction else term)
    return out


@st.composite
def _term_lists(draw):
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        term = Expr.number(draw(_COEFFS))
        for atom in draw(st.lists(st.sampled_from(_ATOMS_1D), max_size=3)):
            term = term * atom
        terms.append(term)
    return terms


@settings(max_examples=120, deadline=None)
@given(_term_lists(), st.data())
def test_construction_order_is_invisible(terms, data):
    idx = range(len(terms))
    a = _sum_in_order(terms, data.draw(st.permutations(idx)), data.draw(st.sets(st.sampled_from(idx))))
    b = _sum_in_order(terms, data.draw(st.permutations(idx)), data.draw(st.sets(st.sampled_from(idx))))
    assert a == b
    assert hash(a) == hash(b)
    assert a.terms == b.terms
    assert str(a) == str(b)
    assert to_latex(a) == to_latex(b)


def test_eval_numeric_float_sum_ignores_construction_order():
    # 1e16 + 1 rounds to 1e16, so the float sum depends on the term order
    terms = [10**16 * var("t"), var("x"), -(10**16) * jet()]
    values = {"t": np.ones(3), "x": np.array([1.0, 3.0, -5.0]), "u": np.ones(3)}
    got = [eval_numeric(_sum_in_order(terms, order), values) for order in ([0, 1, 2], [0, 2, 1])]
    assert np.array_equal(got[0], got[1])
    assert np.array_equal(got[0], (1e16 + values["x"]) - 1e16)
    scalars = {k: float(v[1]) for k, v in values.items()}
    assert eval_numeric(_sum_in_order(terms, [2, 1, 0]), scalars) == (1e16 + 3.0) - 1e16


def test_decomposition_ignores_construction_order():
    from liesym import fields
    from liesym.expr import alpha
    from liesym.fields import VectorField, decompose_in_basis

    t, x, u, a = var("t"), var("x"), jet(), alpha()
    b1 = ([t, 2 * x, a * t * x], [x, -t * t], [u, a * u * x])
    b2 = ([x * x, -a * t], [3 * t, u], [t * u, -a])
    b3 = tuple(p + [a * q for q in r] for p, r in zip(b1, b2))  # b1 + alpha*b2: dependent
    f = tuple([2 * q for q in p] + [(1 - a) * q for q in r] + s for p, r, s in zip(b1, b2, b3))

    def field(name, comps, reverse):
        c = [_sum_in_order(p, range(len(p))[::-1] if reverse else None) for p in comps]
        return VectorField(name, 1, c[0], (c[1],), c[2])

    results = []
    for reverse in (False, True):
        fields._reduced_basis.cache_clear()  # the cache is keyed on equal fields
        basis = [field(name, comps, reverse) for name, comps in (("B1", b1), ("B2", b2), ("B3", b3))]
        dec = decompose_in_basis(field("f", f, reverse), basis)
        _, columns, pivots = fields._reduced_basis(tuple(basis), 1)
        results.append(({k: str(v) for k, v in dec.coeffs.items()}, list(columns), list(pivots)))
    assert results[0] == results[1]
    assert results[0][0] == {"B1": "3", "B2": "1"}


def test_certificates_never_sort_terms(monkeypatch):
    from liesym import expr
    from liesym.catalog import INTEGER, HeatEquation, generators
    from liesym.conservation import conserved_vector, divergence_onshell_symbolic
    from liesym.fields import VectorField
    from liesym.prolong import determining_residual

    eq = HeatEquation(5, INTEGER)
    gens = generators(eq)
    cvs = [conserved_vector(g, eq) for g in gens]
    first = gens[0].field
    bad = VectorField("perturbed", 5, first.xi0, first.xi, first.eta + parse("u^2"))
    calls = []
    terms = expr.Expr.terms.fget
    # every read of the sorted terms, computed or cached, and every sort key
    monkeypatch.setattr(expr.Expr, "terms", property(lambda e: calls.append(e) or terms(e)))
    sort_key = expr._term_key
    monkeypatch.setattr(expr, "_term_key", lambda mono: calls.append(mono) or sort_key(mono))
    assert all(determining_residual(g.field, eq).is_zero for g in gens)
    assert all(divergence_onshell_symbolic(cv, eq).is_zero for cv in cvs)
    residual = determining_residual(bad, eq)
    assert not residual.is_zero and calls == []
    assert str(residual) and calls  # printing reads the sorted terms


# -- packed monomials and the one-map reduction against references ----------

_KIND_RANK = {"v": 0, "j": 1, "f": 2, "D": 3, "a": 4}


def _atom_key(atom):
    """The atom order written out: kind, function name, index length, then
    the variable ranks in turn (a variable is ranked by itself)."""
    kind = atom[0]
    if kind == "v":
        return (0, "", (expr.var_rank(atom[1]),))
    if kind == "a":
        return (4, "", ())
    name, idx = (atom[1], atom[2]) if kind == "f" else ("", atom[1])
    return (_KIND_RANK[kind], name, (len(idx),) + tuple(map(expr.var_rank, idx)))


def _pairs(mono):
    """The (atom, exponent) pairs of a monomial of codes, sorted by _atom_key."""
    powers = {}
    for code in mono:
        atom = expr._atom(code)
        powers[atom] = powers.get(atom, 0) + 1
    return tuple(sorted(powers.items(), key=lambda pair: _atom_key(pair[0])))


def _encode(pairs):
    """The monomial of codes of sorted (atom, exponent) pairs."""
    return tuple(expr._code(atom) for atom, k in pairs for _ in range(k))


def _mono_mul_by_sorting(m1, m2):
    """The product as a dict of powers sorted by _atom_key: the reference."""
    powers = dict(_pairs(m1))
    for atom, e in _pairs(m2):
        powers[atom] = powers.get(atom, 0) + e
    return _encode(sorted(powers.items(), key=lambda pair: _atom_key(pair[0])))


def _replace_power_by_scan(mono, atom, new):
    """One power of atom replaced by one of new (or dropped when new is ()),
    with the insertion point found by a linear scan over the sorted pairs."""
    out = [[a, k] for a, k in _pairs(mono)]
    i = next(j for j, (a, _) in enumerate(out) if a == atom)
    out[i][1] -= 1
    if not out[i][1]:
        del out[i]
    if new:
        j = 0
        while j < len(out) and _atom_key(out[j][0]) < _atom_key(new):
            j += 1
        if j < len(out) and out[j][0] == new:
            out[j][1] += 1
        else:
            out.insert(j, [new, 1])
    return _encode(out)


@settings(max_examples=300, deadline=None)
@given(monomials(), monomials())
def test_mono_mul_equals_the_sorted_reference(m1, m2):
    for a, b in ((m1, m2), (m2, m1)):
        assert (Expr({a: 1}) * Expr({b: 1}))._map == {_mono_mul_by_sorting(a, b): 1}


@settings(max_examples=300, deadline=None)
@given(monomials(), st.data())
def test_derivative_step_equals_the_linear_scan(mono, data):
    if not mono:
        return
    atom = expr._atom(data.draw(st.sampled_from(mono)))
    new = data.draw(st.sampled_from(((), *_ATOM_TUPLES)))
    target, new_code = expr._code(atom), expr._code(new) if new else 0
    got = expr._derive(Expr({mono: 1}), lambda code: new_code if code == target else None)
    # the k equal codes of atom**k each take one step: k times the same monomial
    assert got._map == {_replace_power_by_scan(mono, atom, new): mono.count(target)}


def test_mono_mul_decodes_no_atom(monkeypatch):
    monos = [m for e in (parse("t*u_x*phi^2"), parse("x^2*u + alpha*u_t"), parse("u*u_x*t"))
             for m in e._map]
    want = [{_mono_mul_by_sorting(a, b): 1} for a in monos for b in monos]
    calls = []
    for name in ("_atom", "_code", "_term_key"):
        real = getattr(expr, name)
        monkeypatch.setattr(expr, name, lambda arg, real=real: calls.append(arg) or real(arg))
    assert [(Expr({a: 1}) * Expr({b: 1}))._map for a in monos for b in monos] == want
    assert calls == []


@settings(max_examples=150, deadline=None)
@given(jet_polynomials())
def test_terms_and_printers_equal_the_atom_key_reference(e):
    # the terms in (atom key, exponent) order, from the decoded codes
    want = tuple(sorted(((_pairs(m), c) for m, c in e._map.items()),
                        key=lambda t: [(_atom_key(a), k) for a, k in t[0]]))
    assert e.terms == want
    ref = Expr(dict(e._map))
    ref._terms = want
    assert str(e) == str(ref)
    assert to_latex(e) == to_latex(ref)


def test_codes_order_like_atom_keys():
    # names in rank order, so combinations_with_replacement gives sorted
    # indices of every order up to the cap of 4
    names = ("t", "x", "y", "z", "w", "x5", "x999", "x1000", "x1001", f"x{2**20 - 1}")
    idxs = [i for r in range(5) for i in itertools.combinations_with_replacement(names, r)]
    atoms = [("v", a) for a in names] + [("a",)] + [("j", i) for i in idxs]
    atoms += [("f", f, i) for f in ("phi", "F") for i in idxs]
    atoms += [("D", i) for i in idxs if "t" not in i]
    codes = {expr._code(a): a for a in atoms}
    assert len(codes) == len(atoms)
    assert all(expr._atom(c) == a for c, a in codes.items())
    assert [codes[c] for c in sorted(codes)] == sorted(atoms, key=_atom_key)
    with pytest.raises(UnknownSymbolError, match="past x1048575"):
        var(f"x{2**20}")
    assert var("x05") == var("x5")  # one code per variable, so one name


_SHELL_1D = {"u_t": parse("u_{xx} + x*u_x"), "phi_t": parse("-phi_{xx}")}


def _reduce_by_products(rules, e):
    """Reduction as one sum of products (plain part of each term, times the
    product of its replacements): the reference for the one-map reduce."""
    compiled = expr._compile_rules(tuple(rules.items()))
    products = []
    for mono, c in e.terms:
        plain, factor = Expr.number(c), Expr.one()
        for atom, k in mono:
            rep = compiled.replacement(expr._code(atom))
            if rep is None:
                plain = plain * Expr.from_atom(atom) ** k
            else:
                factor = factor * rep ** k
        products.append((plain, factor))
    return expr.sum_of_products(products)


@settings(max_examples=150, deadline=None)
@given(jet_polynomials())
def test_one_map_reduce_equals_the_sum_of_products(e):
    assert substitute(e, _SHELL_1D) == _reduce_by_products(_SHELL_1D, e)


def test_name_memos_raise_on_every_call():
    assert expr.canonical_var("x1") == "x"
    assert expr._sorted_index(("x2", "t", "x1")) == ("t", "x", "y")
    for _ in range(2):
        with pytest.raises(UnknownSymbolError):
            expr.canonical_var("q")
        with pytest.raises(UnknownSymbolError):
            expr._sorted_index(("x", "q"))
        with pytest.raises(ParseError, match="at position 4"):
            parse("t + q")
