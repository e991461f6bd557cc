"""Hypothesis strategies for random jet-space expressions and point fields."""

from fractions import Fraction

import hypothesis.strategies as st

from liesym.expr import Expr, _code, alpha, func_sym, jet, spatial_names, var
from liesym.fields import VectorField

# atoms keep the jet order <= 2 so that two more total derivatives stay
# within the default cap of 4
_ATOMS_1D = (
    var("t"), var("x"),
    jet(), jet("t"), jet("x"), jet("x", "x"), jet("t", "x"),
    alpha(), func_sym("phi"), func_sym("phi", ("x",)),
)

_ATOM_TUPLES = tuple(atom for e in _ATOMS_1D for atom in e.atoms())

_COEFFS = st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=4)


@st.composite
def jet_polynomials(draw, atoms=_ATOMS_1D, max_terms=4, max_factors=3):
    """Random polynomial expression over the default 1D jet atoms."""
    n_terms = draw(st.integers(0, max_terms))
    out = Expr.zero()
    for _ in range(n_terms):
        c = draw(_COEFFS)
        term = Expr.number(c)
        for _ in range(draw(st.integers(0, max_factors))):
            term = term * draw(st.sampled_from(atoms))
        out = out + term
    return out


@st.composite
def monomials(draw, max_atoms=4):
    """Random monomial in normal form over the default 1D atoms: the sorted
    codes of up to max_atoms distinct atoms, each repeated 1..3 times (its
    exponent)."""
    powers = draw(st.dictionaries(st.sampled_from(_ATOM_TUPLES), st.integers(1, 3),
                                  max_size=max_atoms))
    return tuple(sorted(_code(atom) for atom, k in powers.items() for _ in range(k)))


@st.composite
def point_coefficients(draw, n=1):
    """Random polynomial in t, x_1..x_n and u."""
    atoms = (var("t"), *(var(v) for v in spatial_names(n)), jet())
    n_terms = draw(st.integers(0, 3))
    out = Expr.zero()
    for _ in range(n_terms):
        c = draw(_COEFFS)
        term = Expr.number(c)
        for _ in range(draw(st.integers(0, 2))):
            term = term * draw(st.sampled_from(atoms))
        out = out + term
    return out


@st.composite
def point_fields(draw, n=1):
    name = f"V{draw(st.integers(0, 999))}"
    xi0 = draw(point_coefficients(n))
    xi = tuple(draw(point_coefficients(n)) for _ in range(n))
    eta = draw(point_coefficients(n))
    return VectorField(name, n, xi0, xi, eta)
