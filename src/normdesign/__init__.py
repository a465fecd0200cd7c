"""Exact norm-form shells, ellipsoidal design checks and theta coefficients
for the nine class-number-1 imaginary quadratic rings.

The names below are the API the README documents; everything else stays
importable from its submodule.
"""

from .arith import kronecker
from .design import quadrature_average, spherical_map, strength_profile
from .harmonic import (
    BasisKind,
    basis_poly,
    decompose,
    format_poly,
    parse_poly,
)
from .ring import ADMISSIBLE_D, mul, ring_data
from .shells import enumerate_shell, shell_from_factorization
from .theta import a_norm, hecke_verify, shell_sum, theta_series

__version__ = "0.1.0"

__all__ = [
    "ADMISSIBLE_D",
    "BasisKind",
    "a_norm",
    "basis_poly",
    "decompose",
    "enumerate_shell",
    "format_poly",
    "hecke_verify",
    "kronecker",
    "mul",
    "parse_poly",
    "quadrature_average",
    "ring_data",
    "shell_from_factorization",
    "shell_sum",
    "spherical_map",
    "strength_profile",
    "theta_series",
]
