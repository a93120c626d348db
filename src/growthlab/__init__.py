"""Exact growth series of groups and lattices.

Cayley-ball enumeration for marked groups, rational generating function
recognition, growth-rate diagnostics, Gauss circle counts, Ehrhart
lattice-point counting and theta series, all in exact arithmetic.
"""

__version__ = "0.1.0"

from .analysis import (DyeResult, GrowthReport, classify, dye_quantity,
                       dye_quantity_strict, exponential_rate, krause_degree)
from .cayley import (BallTable, enumerate_balls, trivial_ball_table,
                     word_distance, word_length)
from .ehrhart import (LatticePolytope, cross_polytope, cross_polytope_series,
                      ehrhart_sequence, legendre, root_polytope,
                      root_polytope_series)
from .errors import (ArgumentError, BudgetExceededError, CheckFailure,
                     ConfigError, GrowthLabError, StructuralError)
from .gauss import (count_disc, error_exponent_fit, gauss_bound_check,
                    pi_decimal, r2, r2_table)
from .groups import (FreeAbelian, FreeGroup, MarkedGroup, MatrixGroup,
                     PermutationGroup, free_abelian_standard,
                     free_group_standard, heisenberg_group,
                     symmetric_group_adjacent)
from .series import (RationalFunction, catalan, closed_form_free_abelian,
                     recognize_rational)
from .theta import (IntegralLattice, ThetaPrefix, theta3_power,
                    theta_coefficients)

__all__ = [
    "ArgumentError", "BallTable", "BudgetExceededError", "CheckFailure",
    "ConfigError", "DyeResult", "FreeAbelian", "FreeGroup",
    "GrowthLabError", "GrowthReport", "IntegralLattice", "LatticePolytope",
    "MarkedGroup", "MatrixGroup", "PermutationGroup",
    "RationalFunction", "StructuralError", "ThetaPrefix",
    "catalan", "classify", "closed_form_free_abelian", "count_disc",
    "cross_polytope", "cross_polytope_series", "dye_quantity",
    "dye_quantity_strict", "ehrhart_sequence", "enumerate_balls",
    "error_exponent_fit", "exponential_rate",
    "free_abelian_standard", "free_group_standard", "gauss_bound_check",
    "heisenberg_group", "krause_degree", "legendre", "pi_decimal", "r2",
    "r2_table", "recognize_rational", "root_polytope",
    "root_polytope_series", "symmetric_group_adjacent",
    "theta3_power", "theta_coefficients",
    "trivial_ball_table", "word_distance", "word_length",
    "__version__",
]
