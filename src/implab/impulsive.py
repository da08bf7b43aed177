"""Hybrid simulation of the semilinear system with state-dependent impulses.

The flow between impulses solves ``u' + (A + A_1(t))u = f(t, u)`` per mode
with an exponential trapezoid integrator (exact nonautonomous linear
propagation, two-point variation-of-constants weights, step doubling).  A
step-doubling trial (one step of h, two of h/2) makes four f calls and one
weight evaluation; f(t, x) is computed once per node.  The impulse surfaces
are ``tau_j(x) = t_j + b_j Q(x)`` with the energy functional
``Q(x) = int_0^l u^2 = sum_k x_k^2``.  ``simulate`` runs one adaptive loop
from t0 to t_end and searches each accepted step for an upward crossing of
``zeta_j(t) = t - tau_j(u(t))`` on its dense output, which is linear in t
and bit-equal to numpy's per-mode ``interp`` (``tests/test_trajectory.py``
checks this).  So zeta is a quadratic in t there, zeta < 0 at the left node
with zeta >= 0 at the right one leaves room for one root only, taken in
closed form, and a grazing contact is no hit.  The hit time is then
sharpened on re-integrated states until |zeta| < ``event_tol``.

``beating_certificate`` checks the two repeated-hit exclusion hypotheses on
sampled non-negative states, sums of four squared sines with weights drawn
by ``rng.random`` from the surface's stream, built in coefficient space from
their projections: ``theta_j(x) = tau_j(x + g_j(x)) - tau_j(x) <= 0``
and the explicit functional

    P(u) = -2 b_j int u_xi^2 + 2 b_j a(tau) int u^2 (1 - b(tau) u) < 1,

together with the threshold ``beta_0 = 0.5 ((1 + sup[ab])(rho^2 +
sqrt(l) rho^3))^{-1}`` under which the bound holds automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ap_analysis import StronglyAPSet
from .evolution import LinearCoefficient, NonFiniteConstantError, _require_finite
from .spectral import _IMAGE_ROWS, DirichletLaplacian
from .trajectory import HitRecord, PiecewiseTrajectory, Segment
from .trig import TrigSum

__all__ = [
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
    "q_functional",
]


class BallExitError(RuntimeError):
    """The state left the admissible ball U^alpha_rho."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class BeatingError(RuntimeError):
    """Repeated hit on a surface whose beating certificate passed."""


class EventLocationError(RuntimeError):
    """A hit time did not reach ``event_tol`` in the allowed sharpening runs."""


class SeparationError(ValueError):
    """Hypothesis (H3) fails or cannot be measured on the surface window.

    The surface time intervals over the ball overlap, or the window holds
    fewer surfaces than theta (2) or the gap constant (4) is taken over.
    """


# scalar Lipschitz maps I with I(0) = 0, as (callable, Lipschitz constant)
JUMP_MAP_CATALOGUE = {
    "zero": (lambda u: np.zeros_like(u), 0.0),
    "identity": (lambda u: u, 1.0),
    "relu": (lambda u: np.maximum(u, 0.0), 1.0),
    "tanh": (np.tanh, 1.0),
    "sin": (np.sin, 1.0),
}


def q_functional(x) -> float | np.ndarray:
    """Q(x) = int_0^l u^2 = sum_k x_k^2 (Parseval)."""
    x = np.asarray(x, dtype=float)
    val = np.sum(x * x, axis=-1)
    return float(val) if val.ndim == 0 else val


@dataclass(frozen=True)
class JumpSpec:
    """Jump maps g_j(x) = amp_j * sum_r K_left[r] <K_right[r], I(u)> + d_j.

    The kernel K_j(xi, zeta) = amp_j sum_r phi_r(xi) chi_r(zeta) is a
    separable low-rank sine expansion; ``left``/``right`` hold the spectral
    coefficients of phi_r / chi_r as (R, N) arrays.  ``nonlinearity`` names a
    catalogue map I with I(0) = 0; ``amp`` is a TrigSum of j; ``d`` is the
    additive offset d_j, one (N,) array for every j, or None for zero.
    """

    left: np.ndarray | None = None
    right: np.ndarray | None = None
    nonlinearity: str = "zero"
    amp: TrigSum = TrigSum(1.0)
    d: np.ndarray | None = None

    def __post_init__(self):
        if self.nonlinearity not in JUMP_MAP_CATALOGUE:
            raise ValueError(
                "unknown jump nonlinearity %r (catalogue: %s)"
                % (self.nonlinearity, sorted(JUMP_MAP_CATALOGUE))
            )

    @property
    def i_map(self):
        return JUMP_MAP_CATALOGUE[self.nonlinearity][0]

    def offset(self, j, n_modes) -> np.ndarray:
        """d_j, the same (N,) array for every j."""
        if self.d is None:
            return np.zeros(n_modes)
        return np.asarray(self.d, dtype=float)

    def g(self, j, x, lap: DirichletLaplacian) -> np.ndarray:
        """g_j(x) on the grid of ``lap``, with the shape of x.

        j is an index, applied to x of shape (N,) or to every row of an
        (S, N) batch, or an index array of S entries with one state row each,
        as ``ImpulseSystemSpec.tau`` takes them.
        """
        out = self.offset(j, np.shape(x)[-1])
        if self.left is None or self.nonlinearity == "zero":
            return np.broadcast_to(out, np.shape(x)).copy()
        image = lap.nonlinear_image(x, self.i_map)
        # <chi_r, I(u)> by Parseval on the projected image
        inner = np.asarray(self.right, dtype=float) @ image.T
        amp = np.asarray(self.amp(np.asarray(j, dtype=float)))
        return out + amp[..., None] * (inner.T @ np.asarray(self.left, dtype=float))


@dataclass(frozen=True)
class ImpulseSystemSpec:
    """Full problem instance in the diagonal realization.

    The reaction-diffusion form u_t = u_xixi + a(t) u (1 - b(t) u) with
    confinement radius rho splits into the linear coefficient
    m(t) = -a(t) + rho (a b)(t) and the nonlinearity
    f(t, u) = (a b)(t) (rho - u) u; both a and b are trig sums so the split
    is exact.  The impulse surfaces are tau_j(x) = t_j + b_j Q(x) over the
    index window of ``base`` (the base times t_j), with slopes b_j =
    ``slopes``(j); their arrays are built once, on first use.
    """

    lap: DirichletLaplacian
    alpha: float
    rho: float
    a: TrigSum
    b: TrigSum
    base: StronglyAPSet
    slopes: TrigSum
    jumps: JumpSpec

    @cached_property
    def indices(self) -> np.ndarray:
        return self.base.indices()

    @cached_property
    def base_times(self) -> np.ndarray:
        return self.base.taus()

    @cached_property
    def slope_window(self) -> np.ndarray:
        return np.asarray(self.slopes(self.indices), dtype=float)

    @cached_property
    def coeff(self) -> LinearCoefficient:
        return LinearCoefficient(m=(-1.0) * self.a + self.rho * self.ab)

    @cached_property
    def rates(self) -> np.ndarray:
        """Per-mode rates of the autonomous linear part."""
        return self.coeff.rates(self.lap)

    @cached_property
    def ab(self) -> TrigSum:
        return self.a * self.b

    @cached_property
    def sup_q(self) -> float:
        """sup of Q over the ball, rho^2 / lambda_1^(2 alpha), attained on the first mode."""
        # rho * rho, not rho**2: a Python float power raises OverflowError, a product gives inf
        with np.errstate(over="ignore", divide="ignore"):
            return self.rho * self.rho / self.lap.eigenvalues[0] ** (2.0 * self.alpha)

    @cached_property
    def beta0(self) -> float:
        """The certificate's slope threshold 0.5 ((1 + sup[ab])(rho^2 + sqrt(l) rho^3))^{-1}."""
        rho = self.rho
        return float(0.5 / ((1.0 + self.ab.sup_bound()) * (rho**2 + np.sqrt(self.lap.l) * rho**3)))

    @cached_property
    def intervals(self) -> tuple:
        """Per-surface interval [tau'_j, tau''_j] of tau_j over the ball, as (lo, hi)."""
        t, b = self.base_times, self.slope_window
        return t + np.minimum(0.0, b * self.sup_q), t + np.maximum(0.0, b * self.sup_q)

    @cached_property
    def theta(self) -> float:
        """theta = inf_j (tau'_{j+1} - tau''_j) over the window; must be > 0."""
        lo, hi = self.intervals
        if lo.size < 2:
            raise SeparationError("theta needs at least 2 surfaces in the window")
        theta = float(np.min(lo[1:] - hi[:-1]))
        if not 0.0 < theta < np.inf:  # a nan theta (base times overflowed to inf) fails too
            raise SeparationError(
                "surface intervals overlap over the ball (theta = %g, not finite and > 0)" % theta
            )
        return theta

    @cached_property
    def gap_constant(self) -> dict:
        """The (H3) triple-gap constant, by formula and by direct measurement.

        The formula value is ``sup_j (c_{j+3} - c_j) + 3a - 2 theta``; the
        measured value is ``sup_j (tau''_{j+1} - tau'_j)``.  Both are
        reported; downstream estimates use the larger.
        """
        c = self.base.offsets()
        if c.size < 4:
            raise SeparationError("the gap constant needs at least 4 surfaces in the window")
        formula = float(np.max(c[3:] - c[:-3])) + 3.0 * self.base.a - 2.0 * self.theta
        lo, hi = self.intervals
        measured = float(np.max(hi[1:] - lo[:-1]))
        return {"formula": formula, "measured": measured, "value": max(formula, measured)}

    def in_ball(self, x) -> bool:
        """Whether every state of x, shape (N,) or (..., N), lies in U^alpha_rho."""
        norm, bound = self.lap.frac_norm(x, self.alpha), self.rho * (1.0 + 1e-9)
        return norm <= bound if isinstance(norm, float) else bool(np.all(norm <= bound))

    def forcing(self, t, x) -> np.ndarray:
        """f(t, x) at one time and state (N,), or at times (M,) and states (M, N).

        f = (a b)(t) project((rho - u) u).  One state stays an (N,) vector:
        as a (1, N) batch it would round differently.
        """
        batch = isinstance(t, np.ndarray) and t.ndim > 0
        ab = self.ab(t)
        image = self.lap.nonlinear_image(x, self._reaction)
        image *= ab[:, None] if batch else ab
        return image

    @cached_property
    def _sine_squares(self) -> np.ndarray:
        """project(sin^2(m pi xi / l)) for m = 1..4, the (4, N) shapes of the certificate samples."""
        lap = self.lap
        return lap.project(np.sin(np.arange(1, 5)[:, None] * np.pi * lap.xi / lap.l) ** 2)

    @cached_property
    def _reaction(self):
        """The pointwise map u -> (rho - u) u, built once."""
        rho = self.rho
        return lambda u: (rho - u) * u

    def f(self, t, x) -> np.ndarray:
        return self.forcing(t, x)

    def tau(self, j, x) -> float | np.ndarray:
        """tau_j(x) for an index j or an index array broadcast against Q(x).

        Raises ValueError for an index outside the window: numpy would wrap a
        negative position silently.
        """
        pos = np.asarray(j) - self.base.window[0]
        if np.any((pos < 0) | (pos >= self.indices.size)):
            raise ValueError("surface indices %d..%d leave the surface window %s"
                             % (np.min(j), np.max(j), self.base.window))
        val = self.base_times[pos] + self.slope_window[pos] * q_functional(x)
        return float(val) if np.ndim(val) == 0 else val

    def g(self, j, x) -> np.ndarray:
        """g_j(x) for an index j or an index array with one state row per index."""
        return self.jumps.g(j, x, self.lap)


def apply_jump(system: ImpulseSystemSpec, j, x) -> np.ndarray:
    """x + g_j(x), with a hard post-state ball check."""
    if not system.in_ball(x):
        raise BallExitError("pre-jump state outside the admissible ball")
    # a huge jump overflows to inf and fails the check with no numpy warning
    with np.errstate(over="ignore"):
        post = np.asarray(x, dtype=float) + system.g(j, x)
        if not system.in_ball(post):
            raise BallExitError("jump exits ball at surface %d" % int(j))
    return post


# ---------------------------------------------------------------------------
# exponential trapezoid stepper with step doubling
# ---------------------------------------------------------------------------


def _phi_weights(z):
    """(e^{-z}, phi1, A, B) with the two-point variation-of-constants weights.

    A = (1 - (1+z)e^{-z})/z^2 and B = (z - 1 + e^{-z})/z^2 integrate the
    linear interpolant of the nonlinearity against the decay kernel exactly;
    series expansions take over for small z.
    """
    z = np.asarray(z, dtype=float)
    ez = np.exp(-np.clip(z, -700.0, 700.0))
    small = np.abs(z) < 1e-4
    if not small.any():
        # the np.where branch below with every entry taken from z
        return ez, (1.0 - ez) / z, (1.0 - (1.0 + z) * ez) / z**2, (z - 1.0 + ez) / z**2
    zs = np.where(small, 1.0, z)
    phi1 = np.where(small, 1.0 - z / 2.0 + z**2 / 6.0, (1.0 - ez) / zs)
    A = np.where(small, 0.5 - z / 3.0 + z**2 / 8.0, (1.0 - (1.0 + z) * ez) / zs**2)
    B = np.where(small, 0.5 - z / 6.0 + z**2 / 24.0, (z - 1.0 + ez) / zs**2)
    return ez, phi1, A, B


def _etd2_update(system, t, h, x, f0, weights):
    """The exponential trapezoid step from (t, x) to t + h, given f0 = f(t, x)."""
    ez, phi1, A, B = weights
    pred = ez * x + h * phi1 * f0
    f1 = system.f(t + h, pred)
    return ez * x + h * (A * f0 + B * f1)


def _doubling_trial(system, t, h, x, f0):
    """One step of size h and two of h/2 from (t, x): (coarse, fine).

    The three steps share f0 = f(t, x), the antiderivative of m at the four
    step ends and one ``_phi_weights`` call, so a trial makes four f calls;
    each quantity is the same float the three steps would compute on their
    own.
    """
    t_mid = t + h / 2.0
    big_m = system.coeff.m.antiderivative
    m0, m1, m2 = big_m(t), big_m(t_mid), big_m(t + h)
    z = (system.rates * np.array([h, h / 2.0, h / 2.0])[:, None]
         + np.array([m2 - m0, m1 - m0, big_m(t_mid + h / 2.0) - m1])[:, None])
    w_coarse, w_first, w_second = zip(*_phi_weights(z))
    coarse = _etd2_update(system, t, h, x, f0, w_coarse)
    half = _etd2_update(system, t, h / 2.0, x, f0, w_first)
    fine = _etd2_update(system, t_mid, h / 2.0, half, system.f(t_mid, half), w_second)
    return coarse, fine


_H0 = 0.05  # the first trial step of a flow; each later one is the size the last step proposed


def _accepted_step(system, t, x, f0, h, seg_tol):
    """One step from (t, x), given f0 = f(t, x), with first trial step h.

    Each trial compares one step of size h with two of h/2; a trial whose
    difference, over 3, reaches ``seg_tol`` is retried at a smaller h (down
    to 1e-12).  Returns (h, the halved solution at t + h, the next step's
    first trial size): the halved solution is kept (local extrapolation).
    """
    while True:
        coarse, fine = _doubling_trial(system, t, h, x, f0)
        err = float(np.linalg.norm(fine - coarse)) / 3.0
        grow = 0.9 * (seg_tol / max(err, 1e-300)) ** (1.0 / 3.0)
        if err < seg_tol or h < 1e-12:
            return h, fine, h * min(4.0, max(0.25, grow))
        h *= max(0.25, grow)


def step_segment(
    system: ImpulseSystemSpec, x0, t0: float, t1: float, seg_tol: float = 1e-8,
    h_max: float = np.inf, h0: float = _H0, f0=None,
) -> Segment:
    """Integrate the flow on [t0, t1] by accepted steps of ``_accepted_step``.

    The first trial step is ``h0``; every trial step is clipped to t1 and
    ``h_max``.  ``f0`` is f(t0, x0) when the caller has it already.  Node
    times of accepted steps form the dense output grid, and the last one is
    t1 itself: the loop stops within 1e-13 of t1, and t + (t1 - t) can round
    below t1.  A segment shorter than that margin is one step.
    """
    if t1 <= t0:
        raise ValueError("segment needs t1 > t0")
    x = np.asarray(x0, dtype=float)
    if not system.in_ball(x):
        raise BallExitError("initial state outside the admissible ball", time=t0)
    stop = t1 - 1e-13 * max(1.0, abs(t1))
    nodes, states = [t0], [x]
    t, h = t0, h0
    fx = system.f(t0, x) if f0 is None else f0
    while True:
        step, x, h = _accepted_step(system, t, x, fx, min(h, t1 - t, h_max), seg_tol)
        t = t + step
        nodes.append(t)
        states.append(x)
        if not system.in_ball(x):
            raise BallExitError("left admissible ball at t = %g" % t, time=t)
        if t >= stop:
            break
        fx = system.f(t, x)
    nodes[-1] = t1
    return Segment(t=np.asarray(nodes), states=np.stack(states))


# ---------------------------------------------------------------------------
# event detection
# ---------------------------------------------------------------------------


def _bracket_root(a, b, c) -> float:
    """The root in (0, 1] of a s^2 + b s + c, where c < 0 <= a + b + c.

    Roots q/a and c/q with q = -(b + sign(b) sqrt(b^2 - 4ac)) / 2, which
    cancels no digits; the discriminant is clamped at 0 and a = 0 leaves
    -c/b.  Of the positive roots the smallest is taken, capped at 1, and 1
    when rounding left none.
    """
    if a == 0.0:
        roots = (-c / b,) if b != 0.0 else ()
    else:
        q = -0.5 * (b + math.copysign(math.sqrt(max(b * b - 4.0 * a * c, 0.0)), b))
        roots = (q / a, c / q) if q != 0.0 else ()
    return min([r for r in roots if r > 0.0] + [1.0])


def detect_crossing(system: ImpulseSystemSpec, seg: Segment, j):
    """Earliest upward crossing of zeta(t) = t - tau_j(u(t)) on the segment.

    Returns the hit time, or None when zeta has no sign change (including
    tangential grazing).  On the first step with zeta < 0 at its left node
    and zeta >= 0 at its right one, the dense output is u_i + s d with
    d = u_{i+1} - u_i and s in [0, 1], so zeta(s) = A s^2 + B s + C with
    A = -b_j |d|^2, B = dt - 2 b_j u_i.d and C = zeta_i: one root, taken
    in closed form.
    """
    zeta = seg.t - system.tau(j, seg.states)
    up = np.flatnonzero((zeta[:-1] < 0.0) & (zeta[1:] >= 0.0))
    if up.size == 0:
        return None
    i = int(up[0])
    b_j = float(system.slope_window[j - system.base.window[0]])
    u, d = seg.states[i], seg.states[i + 1] - seg.states[i]
    dt = seg.t[i + 1] - seg.t[i]
    s = _bracket_root(-b_j * float(d @ d), dt - 2.0 * b_j * float(u @ d), float(zeta[i]))
    return float(seg.t[i] + s * dt)


# re-integration runs that sharpen one hit time to event_tol: 1-3 for a
# crossing at slope near 1, up to about 30 for one at slope 1e-3 to 1e-2
# just after zeta dips (a secant through two runs on the near-flat side
# leaves the bracket, and the midpoint takes over)
_SHARPEN_RUNS = 40


def simulate(
    system: ImpulseSystemSpec, u0, t0: float, t_end: float, seg_tol: float = 1e-8,
    event_tol: float = 1e-10, certified_surfaces=(),
) -> PiecewiseTrajectory:
    """Flow, crossing detection and jumps on [t0, t_end], in one adaptive loop.

    The step size of ``_accepted_step`` is carried from step to step and
    across jumps, capped at max(theta / 2, 1e-3).  ``detect_crossing``
    searches each accepted step (t_i, t_{i+1}] for every surface whose
    interval [lo_j, hi_j] meets it.  A hit is sharpened on runs from
    (t_i, x_i) that reuse f(t_i, x_i): a secant step through the exact zeta
    at t_{i+1}, then through the last two runs, each kept inside the bracket
    (t_i, t_{i+1}) shrunk by the sign of every run's zeta (the midpoint
    replaces an iterate outside it).  The node table takes the last run's
    nodes and then the post-jump state, so a time repeats only at a hit;
    ``meta['n_segments']`` counts the pieces between cuts (hits + 1).

    ``certified_surfaces`` lists surface indices with a passing beating
    certificate; a second hit on such a surface raises BeatingError, while
    uncertified repeats are only counted in ``meta['hit_counts']``.  A hit
    time whose |zeta| stays >= ``event_tol`` after ``_SHARPEN_RUNS``
    re-integrations raises EventLocationError.
    """
    lo, hi = system.intervals
    certified = set(int(j) for j in certified_surfaces)

    x = np.asarray(u0, dtype=float)
    t = float(t0)
    if not system.in_ball(x):
        raise BallExitError("initial state outside the admissible ball", time=t)
    h_max = max(system.theta / 2.0, 1e-3)
    stop = t_end - 1e-13 * max(1.0, abs(t_end))
    node_t, node_states, hits = [t], [x], []
    hit_counts: dict = {}
    last_hit = (None, -np.inf)  # (surface, time): suppress re-detecting the jump just taken
    h = _H0

    while t < stop:
        fx = system.f(t, x)
        step, x1, h = _accepted_step(system, t, x, fx, min(h, t_end - t, h_max), seg_tol)
        t1 = t_end if t + step >= stop else t + step
        if not system.in_ball(x1):
            raise BallExitError("left admissible ball at t = %g" % t1, time=t1)
        cand = system.indices[(hi >= t - event_tol) & (lo <= t1 + event_tol)]
        best = None
        if cand.size:
            seg = Segment(t=np.array([t, t1]), states=np.stack([x, x1]))
            for j in cand:
                th = detect_crossing(system, seg, j)
                if th is None or (int(j) == last_hit[0] and th <= last_hit[1] + 10.0 * event_tol):
                    continue
                if best is None or th < best[0]:
                    best = (th, int(j))
        if best is None:
            node_t.append(t1)
            node_states.append(x1)
            t, x = t1, x1
            continue
        th, j = best
        # sharpen on re-integrated (not interpolated) states; th == t takes the first branch
        a, b = t, t1
        last = (t1, t1 - system.tau(j, x1))
        for _ in range(_SHARPEN_RUNS):
            if th - t <= 1e-12:
                th, run, pre = t, None, x
                break
            run = step_segment(system, x, t, th, seg_tol, h_max, h0=step, f0=fx)
            pre = run.states[-1]
            zeta = th - system.tau(j, pre)
            if abs(zeta) < event_tol:
                break
            a, b = (th, b) if zeta < 0.0 else (a, th)
            nxt = th - zeta
            if zeta != last[1]:
                nxt = th - zeta * (th - last[0]) / (zeta - last[1])
            last = (th, zeta)
            th = nxt if a < nxt < b else 0.5 * (a + b)
        else:
            raise EventLocationError(
                "hit on surface %d near t = %.17g: |zeta| = %g >= event_tol = %g after "
                "%d runs" % (j, th, abs(zeta), event_tol, _SHARPEN_RUNS)
            )
        if run is not None:
            node_t.extend(run.t[1:])
            node_states.extend(run.states[1:])
        post = apply_jump(system, j, pre)
        node_t.append(th)
        node_states.append(post)
        last_hit = (j, th)
        hits.append(HitRecord(time=th, surface=j, pre=pre, post=post))
        hit_counts[j] = hit_counts.get(j, 0) + 1
        if hit_counts[j] > 1 and j in certified:
            raise BeatingError("repeated hit on certified surface %d at t = %g" % (j, th))
        t, x = th, post

    nodes = Segment(t=np.array(node_t), states=np.stack(node_states))
    return PiecewiseTrajectory(
        nodes=nodes, hits=hits, meta={"hit_counts": hit_counts, "n_segments": len(hits) + 1}
    )


# ---------------------------------------------------------------------------
# beating exclusion certificate
# ---------------------------------------------------------------------------


def _nonnegative_samples(system, raw) -> tuple:
    """Non-negative states in the ball: sums of squared sines, rescaled.

    Each row of the (R, 5) draws ``raw`` gives four weights of
    u = sum_m w_m sin^2(m pi xi / l) and a radius draw.  The state is built in
    coefficient space: the projection is linear, so the four shapes are
    projected once per system (``_sine_squares``) and
    x = sum_m w_m project(sin^2(m pi xi / l)).  Half the
    samples are pushed to the ball boundary |x|_alpha = rho (the functionals
    in P are extremized there), the rest fill the interior.  Returns the
    (S, N) states and the rows of ``raw`` they come from; draws with weights
    summing below 1e-8 or with a vanishing norm are dropped.
    """
    lap = system.lap
    rows = np.flatnonzero(np.sum(raw[:, :4], axis=1) >= 1e-8)
    x = raw[rows, :4] @ system._sine_squares
    nrm = lap.frac_norm(x, system.alpha)
    keep = nrm >= 1e-12
    x, nrm, rows = x[keep], nrm[keep], rows[keep]
    r, rho = raw[rows, 4], system.rho
    scale = np.where(r < 0.5, rho / nrm, rho * (0.1 + 1.8 * (r - 0.5)) / nrm)
    return np.minimum(scale, rho / nrm)[:, None] * x, rows


def _cube(u):
    return u**3


def beating_certificate(system: ImpulseSystemSpec, js, n_samples: int, rngs) -> list:
    """Check the repeated-hit exclusion hypotheses on the surfaces js by sampling.

    theta_j(x) <= 0 and P(u) < 1 must hold on every sampled non-negative
    state in the ball; beta_0 is the slope threshold below which the bound
    chain for P closes automatically.  Surface js[i] draws
    ``rngs[i].random((n_samples, 5))``.  The surfaces go in groups of
    max(1, _IMAGE_ROWS // n_samples), whose stacked draws are evaluated as
    one (S, N) batch, so at most max(n_samples, _IMAGE_ROWS) samples are
    alive; the grid work (the jump image and int u^3) runs through the
    Laplacian's scratch grid.  Returns one record per surface, in js order,
    as ``certify`` writes them.  Raises NonFiniteConstantError, naming the
    first such surface, when a surface draws a sample and its theta_check or
    P_check is not finite (a huge jump overflows Q(x + g_j(x)) to inf, and
    theta_check = -inf would pass).
    """
    lap, js, per = system.lap, np.asarray(js, dtype=int), max(n_samples, 1)
    system.tau(js, np.zeros(1))  # a surface with no sample is checked against the window too
    certs, size = [], max(1, _IMAGE_ROWS // per)
    for lo in range(0, js.size, size):
        group = js[lo:lo + size]
        raw = np.concatenate([rng.random((n_samples, 5)) for rng in rngs[lo:lo + size]])
        x, rows = _nonnegative_samples(system, raw)
        owner = group[rows // per]
        b_j = system.slope_window[owner - system.base.window[0]]
        q = q_functional(x)
        tau = system.tau(owner, x)
        with np.errstate(over="ignore"):  # rejected below when not finite
            theta = b_j * (q_functional(x + system.g(owner, x)) - q)
            cubic = lap.integral(x, _cube)
            grad_sq = np.sum(lap.eigenvalues * x * x, axis=-1)
            p_val = -2.0 * b_j * grad_sq + 2.0 * b_j * system.a(tau) * (q - system.b(tau) * cubic)
        # each surface's maximum over its own rows; with no sample, the -inf of an empty set
        checks = np.full((2, raw.shape[0]), -np.inf)
        checks[:, rows] = theta, p_val
        maxima = checks.reshape(2, group.size, n_samples).max(axis=2, initial=-np.inf)
        counts = np.bincount(rows // per, minlength=group.size)
        for j, th, p, n in zip(group.tolist(), *maxima.tolist(), counts.tolist()):
            if n:
                _require_finite(NonFiniteConstantError, "surface %d certificate" % j,
                                theta_check=th, P_check=p)
            certs.append({"surface": j, "theta_check": th, "P_check": p, "beta0": system.beta0,
                          "n_samples": n, "verdict": "pass" if th <= 1e-10 and p < 1.0 else "fail"})
    return certs
