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

The package itself exports no names: each is imported from the module that
defines it, e.g. ``from implab.impulsive import ImpulseSystemSpec``.
"""

__version__ = "0.1.0"
