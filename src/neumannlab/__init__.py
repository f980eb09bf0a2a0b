"""Least-energy solutions of pure-Neumann Lane-Emden systems on radial domains.

The coupled system -Lap u = |v|^(q-1) v, -Lap v = |u|^(p-1) u with no-flux
boundary data is solved through its dual formulation: the level
D = sup int f K g over mean-zero densities with Lebesgue-norm constraints,
whose reciprocal is the nonlinear Neumann eigenvalue Lambda and whose
maximizers reconstruct the least-energy solution pair.  The sign-limit
p = 0 (and the scalar limit p = q = 0) is solved by one application of the
balanced-level-set map to the step that changes sign at the radius halving
the measure, certified as its fixed point, and the closed-form radial
solutions of the biharmonic sign problem certify symmetry breaking on balls.

The solvers log one DEBUG record per solve, and ls_upper_bounds one per call,
to the "neumannlab" logger, which is silent until the application configures
logging.
"""

import logging

from .closed_form import (
    asymptotic_bound,
    competitor_energy,
    eval_u,
    eval_v,
    h2,
    m_rad,
    m_rad_quadrature,
    symmetry_breaking_verdict,
    table1,
    zero_radius,
)
from .dual import (
    DualPair,
    NonConvergenceError,
    SolutionReport,
    SolverOptions,
    compute_dual,
    compute_lambda,
    oracle_dual_smallgrid,
    reconstruct_solution,
)
from .exponents import (
    ExponentPair,
    HyperbolaError,
    Region,
    c_from_lambda,
    classify_region,
    lambda_from_c,
)
from .experiments import (
    ClassificationReport,
    FrakCReport,
    PqToZeroReport,
    SweepSpec,
    check_pq_to_0,
    classify_pq_to_1,
    continuation_lambda,
    estimate_frak_c,
    ls_upper_bounds,
    run_sweep,
)
from .greens import (
    CompatibilityError,
    NumericalFailure,
    balanced_shift,
    kappa_shift,
    solve_neumann,
)
from .grid import (
    GridFunction,
    RadialGrid,
    discrete_radial_laplacian,
    interval_grid,
    make_grid,
    unit_ball_grid,
)
from .sign import (
    BalancedFunction,
    certify_balanced,
    solve_scalar_sign,
    solve_sign_system,
)

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())
