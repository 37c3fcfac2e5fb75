"""Exact models of the hyperbolic symplectic group over Z, its quadratic
refinements, and the Jacobi-group extensions they generate, with an
algorithmic decision of the extension splitting question.

Importing the package loads no library module: each public name is imported
from its module on first access (PEP 562), so `from symsplit import splits`
works and a CLI start that runs no command compiles nothing it does not use.
"""

__version__ = "0.1.0"

# public name -> the module that defines it
_MODULE_OF = {
    **dict.fromkeys(("Covector", "SymplecticMatrix", "Vector", "is_symplectic", "neg_identity",
                     "phi_eval", "transvection"), "symplectic"),
    **dict.fromkeys(("OrbitClass", "OrbitReport", "QuadraticRefinement", "arf",
                     "enumerate_refinements", "expected_orbit_sizes", "orbit_decomposition",
                     "qact", "qdifference", "qeval", "qtranslate"), "quadratic"),
    **dict.fromkeys(("Cocycle", "check_cocycle_law", "coboundary_at", "minus_id_constraint",
                     "principal_at"), "cocycles"),
    **dict.fromkeys(("JacobiElement", "SplitVerdict", "gamma_psi_member", "include_fiber",
                     "jacobi_identity", "jinv", "jmul", "reduce_modulus", "reframe", "splits"),
                    "jacobi"),
    **dict.fromkeys(("COEFFICIENT_ORDER", "HOMOTOPY", "SMOOTH", "ManifoldParams", "MCGModel",
                     "SplittingTheoremVerdict", "aut_model", "dehn_twist", "homotopy_model",
                     "pontryagin_coefficient", "splitting_theorem_verdict", "to_homotopy"), "mcg"),
}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value
