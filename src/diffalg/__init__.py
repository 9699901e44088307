"""Finite-dimensional involutive algebras with a differential calculus:
derivative systems, operator order, centralizer towers, jets, tangent
data, sampled density certificates, and fiberwise spectral decompositions.

Everything is exact linear algebra over structure constants; no symbolic
engine is involved.
"""
from .errors import DiffalgError, DomainError, NumericError
from .multiindex import mi_add, mi_count, mi_enumerate, mi_le, mi_sub
from .algebra import (Character, Element, LinearOp, PolyAlgebra,
                      StructureAlgebra, Subspace, algebra_from_name,
                      centralizer, characters, cusp_algebra, direct_sum,
                      function_algebra, group_algebra, matrix_algebra, mul,
                      quotient, re_im, subalgebra, subspace_product,
                      truncated_poly)
from .series import (SeriesElement, SeriesStructureAlgebra, coords_to_series,
                     ser_involve, ser_mul, ser_unit, series_algebra,
                     series_to_coords)
from .dersys import (DerivativeSystem, SystemReport, from_homomorphism,
                     monomial_about, taylor_system, to_homomorphism,
                     verify_system)
from .geometry import (CotangentClass, TangentVector, cotangent_class,
                       cotangent_space, pairing, pairing_matrix,
                       tangent_space)
from .diffcalc import (RelativeOp, Tower, check_diffsys_characterization,
                       check_stabilization, commutator, derivative_matrix,
                       derivative_op, diff_order, is_derivation,
                       left_multiply, multiplication_matrix,
                       tangent_of_derivation, truncation_hom, z_tower,
                       z_tower_from_images)
from .jets import (ChartBasis, JetSpace, ideal_power, ideal_power_chart,
                   induced_jet_map, jet_project, jet_space, maximal_ideal,
                   quotient_seminorm, taylor_truncate)
from .envelope import (Const, Cos, Exp, Expr, FlatBumpTimes, JetSurjectivity,
                       Pow, Prod, Sin, Sum, Var, Verdict, envelope_verdict,
                       flat_bump, jet_surjectivity_check, parse_expr,
                       separation_check, tangent_rank_check)
from .spectra import (FiniteAbelianGroup, ValueBundle, dauns_hofmann_check,
                      fourier_check, fourier_matrix, kernel_ideal_check,
                      parse_group_spec, value_bundle)

__version__ = "0.1.0"

__all__ = [
    "DiffalgError", "DomainError", "NumericError",
    "mi_add", "mi_count", "mi_enumerate", "mi_le", "mi_sub",
    "Character", "Element", "LinearOp", "PolyAlgebra", "StructureAlgebra",
    "Subspace", "algebra_from_name", "centralizer", "characters",
    "cusp_algebra", "direct_sum", "function_algebra", "group_algebra",
    "matrix_algebra", "mul", "quotient", "re_im", "subalgebra",
    "subspace_product", "truncated_poly",
    "SeriesElement", "SeriesStructureAlgebra", "coords_to_series",
    "ser_involve", "ser_mul", "ser_unit", "series_algebra",
    "series_to_coords",
    "DerivativeSystem", "SystemReport", "from_homomorphism",
    "monomial_about", "taylor_system", "to_homomorphism", "verify_system",
    "CotangentClass", "TangentVector", "cotangent_class", "cotangent_space",
    "pairing", "pairing_matrix", "tangent_space",
    "RelativeOp", "Tower", "check_diffsys_characterization",
    "check_stabilization", "commutator", "derivative_matrix",
    "derivative_op", "diff_order", "multiplication_matrix",
    "is_derivation", "left_multiply", "tangent_of_derivation",
    "truncation_hom", "z_tower", "z_tower_from_images",
    "ChartBasis", "JetSpace", "ideal_power", "ideal_power_chart",
    "induced_jet_map", "jet_project", "jet_space", "maximal_ideal",
    "quotient_seminorm", "taylor_truncate",
    "Const", "Cos", "Exp", "Expr", "FlatBumpTimes", "JetSurjectivity",
    "Pow", "Prod", "Sin", "Sum", "Var", "Verdict", "envelope_verdict",
    "flat_bump", "jet_surjectivity_check", "parse_expr",
    "separation_check", "tangent_rank_check",
    "FiniteAbelianGroup", "ValueBundle", "dauns_hofmann_check",
    "fourier_check", "fourier_matrix", "kernel_ideal_check",
    "parse_group_spec", "value_bundle",
    "__version__",
]
