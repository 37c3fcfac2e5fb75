"""Exact models of the hyperbolic symplectic group over Z, its quadratic
refinements, and the Jacobi-group extensions they generate, with an
algorithmic decision of the extension splitting question.
"""

__version__ = "0.1.0"

from .symplectic import (
    Covector,
    SymplecticMatrix,
    Vector,
    is_symplectic,
    neg_identity,
    phi_eval,
    transvection,
)
from .quadratic import (
    OrbitClass,
    OrbitReport,
    QuadraticRefinement,
    arf,
    enumerate_refinements,
    expected_orbit_sizes,
    orbit_decomposition,
    qact,
    qdifference,
    qeval,
    qtranslate,
)
from .cocycles import (
    Cocycle,
    check_cocycle_law,
    coboundary_at,
    minus_id_constraint,
    principal_at,
)
from .jacobi import (
    JacobiElement,
    SplitVerdict,
    gamma_psi_member,
    include_fiber,
    jacobi_identity,
    jinv,
    jmul,
    reduce_modulus,
    reframe,
    splits,
)
from .mcg import (
    COEFFICIENT_ORDER,
    HOMOTOPY,
    SMOOTH,
    ManifoldParams,
    MCGModel,
    SplittingTheoremVerdict,
    aut_model,
    dehn_twist,
    homotopy_model,
    pontryagin_coefficient,
    splitting_theorem_verdict,
    to_homotopy,
)
