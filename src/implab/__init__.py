"""Spectral-Galerkin laboratory for semilinear parabolic equations with
impulse action at state-dependent moments.

The package realizes the abstract problem

    du/dt + (A + A_1(t)) u = f(t, u),   t != tau_j(u),
    u(tau_j + 0) - u(tau_j - 0) = g_j(u),

with A the Dirichlet Laplacian on (0, l) in its diagonal sine-basis
realization, and provides:

* ``trig`` / ``spectral`` — exact trigonometric coefficient algebra and the
  truncated spectral phase space with fractional norms,
* ``ap_analysis`` — eps-almost-period detection and Wexler-style
  certification on finite windows,
* ``evolution`` — the nonautonomous linear evolution factors, exponential
  dichotomy fitting, the Green function and its Simpson integral,
* ``impulsive`` — hybrid simulation (exponential integrator + event
  detection + jumps) and beating-exclusion certificates,
* ``solver`` — the two-level fixed point (inner Picard in function space,
  outer Poincare-type sequence map) for the almost periodic solution,
  smallness verification and almost-periodicity certification,
* ``config`` / ``records`` / ``cli`` — instance files, flat text artifacts
  and the batch front door.
"""

from .ap_analysis import (
    PiecewiseSampledFunction,
    StronglyAPSet,
    WindowTooShortError,
    almost_periodicity_report,
    eps_almost_periods,
    harmonize,
    wexler_deviation,
)
from .evolution import (
    DichotomyData,
    KBundle,
    LinearCoefficient,
    NonHyperbolicError,
    fit_dichotomy,
    k_bundle,
)
from .impulsive import (
    JUMP_MAP_CATALOGUE,
    BallExitError,
    BeatingError,
    EventLocationError,
    ImpulseSurfaceSpec,
    ImpulseSystemSpec,
    JumpSpec,
    SeparationError,
    apply_jump,
    beating_certificate,
    detect_crossing,
    simulate,
    step_segment,
)
from .solver import (
    APSequencePoint,
    ConvergenceError,
    OuterResult,
    SolverConfig,
    certify_almost_periodicity,
    inner_solve,
    integral_residual,
    measure_lipschitz,
    outer_solve,
    poincare_map,
    verify_smallness,
)
from .spectral import AliasingError, DirichletLaplacian
from .trajectory import HitRecord, PiecewiseTrajectory, Segment
from .trig import TrigSum

__version__ = "0.1.0"

__all__ = [
    "TrigSum",
    "DirichletLaplacian",
    "AliasingError",
    "Segment",
    "HitRecord",
    "PiecewiseTrajectory",
    "StronglyAPSet",
    "PiecewiseSampledFunction",
    "WindowTooShortError",
    "eps_almost_periods",
    "wexler_deviation",
    "harmonize",
    "almost_periodicity_report",
    "LinearCoefficient",
    "DichotomyData",
    "KBundle",
    "NonHyperbolicError",
    "fit_dichotomy",
    "k_bundle",
    "ImpulseSurfaceSpec",
    "JumpSpec",
    "ImpulseSystemSpec",
    "BallExitError",
    "BeatingError",
    "EventLocationError",
    "SeparationError",
    "JUMP_MAP_CATALOGUE",
    "step_segment",
    "detect_crossing",
    "apply_jump",
    "simulate",
    "beating_certificate",
    "APSequencePoint",
    "SolverConfig",
    "ConvergenceError",
    "OuterResult",
    "inner_solve",
    "integral_residual",
    "poincare_map",
    "outer_solve",
    "measure_lipschitz",
    "verify_smallness",
    "certify_almost_periodicity",
]
