"""Lie point symmetries, Lie algebra structure, and conservation laws of the
n-dimensional heat equation in both the integer-order and time-fractional
(Riemann-Liouville) regimes, with symbolic certification for the integer case
and grid-based numeric verification for the fractional one."""

from .expr import (
    Expr,
    ExprError,
    ParseError,
    equals_zero,
    eval_numeric,
    partial_derivative,
    substitute,
    total_derivative,
)
from .parser import parse

__version__ = "0.1.0"

__all__ = [
    "Expr",
    "ExprError",
    "ParseError",
    "parse",
    "equals_zero",
    "partial_derivative",
    "total_derivative",
    "substitute",
    "eval_numeric",
    "__version__",
]
