"""Exact growth series of groups and lattices.

Cayley-ball enumeration for marked groups, rational generating function
recognition, growth-rate diagnostics, Gauss circle counts, Ehrhart
lattice-point counting and theta series, all in exact arithmetic.

Importing the package loads no submodule: a public name imports the
submodule that defines it on first access (PEP 562) and is then cached
here, so a process pays only for the kernels it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": ("DyeResult", "GrowthReport", "classify", "dye_quantity",
                 "dye_quantity_strict", "exponential_rate", "krause_degree"),
    "cayley": ("BallTable", "enumerate_balls", "word_length"),
    "ehrhart": ("LatticePolytope", "cross_polytope", "cross_polytope_series",
                "ehrhart_sequence", "legendre", "root_polytope",
                "root_polytope_series"),
    "errors": ("ArgumentError", "BudgetExceededError", "CheckFailure",
               "ConfigError", "GrowthLabError", "StructuralError"),
    "gauss": ("count_disc", "error_exponent_fit", "gauss_bound_check",
              "pi_decimal", "r2_table"),
    "groups": ("FreeAbelian", "FreeGroup", "MarkedGroup", "MatrixGroup",
               "PermutationGroup", "free_abelian_standard",
               "free_group_standard", "heisenberg_group",
               "symmetric_group_adjacent"),
    "series": ("RationalFunction", "catalan", "closed_form_free_abelian",
               "recognize_rational"),
    "theta": ("IntegralLattice", "ThetaPrefix", "theta3_power",
              "theta_coefficients"),
}

# each public name -> the submodule that defines it
_SUBMODULE = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = [*sorted(_SUBMODULE), "__version__"]


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
