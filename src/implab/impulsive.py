"""Hybrid simulation of the semilinear system with state-dependent impulses.

The flow between impulses solves ``u' + (A + A_1(t))u = f(t, u)`` per mode
with an exponential trapezoid integrator (exact nonautonomous linear
propagation, two-point variation-of-constants weights, step doubling).  A
step-doubling trial (one step of h, two of h/2) makes four f calls and one
weight evaluation; f(t, x) is computed once per node.  The impulse surfaces
are ``tau_j(x) = t_j + b_j Q(x)`` with the energy functional
``Q(x) = int_0^l u^2 = sum_k x_k^2``; crossings of ``zeta_j(t) =
t - tau_j(u(t))`` are bracketed on the dense output, with grazing
contacts classified as no-hit, and the bracket's root is taken in closed
form.  The dense output is linear in t on each step, bit-equal to
numpy's per-mode ``interp`` (``tests/test_trajectory.py`` checks this),
so zeta is a quadratic in t there, and zeta < 0 at the left node with
zeta >= 0 at the right one leaves room for one root only.  A hit time is then sharpened on
re-integrated states until |zeta| < ``event_tol``: one fixed-point step
th - zeta, then secant steps through the last two (th, zeta) pairs, each
kept inside the flow step that brackets the sign change, shrunk by the sign
of every run's zeta; an iterate that leaves it is replaced by its midpoint.
Each run integrates from the left node of that flow step, with the step taken
there as its first trial step, so the flow segment up to that node is shared
with the hit segment as it is.

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
from .evolution import LinearCoefficient
from .spectral import DirichletLaplacian
from .trajectory import HitRecord, PiecewiseTrajectory, Segment
from .trig import TrigSum

__all__ = [
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


@dataclass(frozen=True)
class ImpulseSurfaceSpec:
    """Surfaces tau_j(x) = t_j + b_j Q(x) over the base set's index window."""

    base: StronglyAPSet
    slopes: TrigSum = TrigSum(0.0)

    def indices(self) -> np.ndarray:
        return self.base.indices()

    @cached_property
    def base_times(self) -> np.ndarray:
        return self.base.taus()

    @cached_property
    def slope_window(self) -> np.ndarray:
        return np.asarray(self.slopes(self.indices()), dtype=float)

    def slope(self, j) -> float:
        return float(self.slope_window[int(j) - self.base.window[0]])

    @staticmethod
    def q_functional(x) -> float | np.ndarray:
        """Q(x) = int_0^l u^2 = sum_k x_k^2 (Parseval)."""
        x = np.asarray(x, dtype=float)
        val = np.sum(x * x, axis=-1)
        return float(val) if val.ndim == 0 else val

    def tau(self, j, x) -> float | np.ndarray:
        """tau_j(x) for an index j or an index array broadcast against Q(x).

        Raises ValueError for an index outside the window: numpy would wrap a
        negative position silently.
        """
        pos = np.asarray(j) - self.base.window[0]
        if np.any((pos < 0) | (pos >= self.base_times.size)):
            raise ValueError("surface indices %d..%d leave the surface window %s"
                             % (np.min(j), np.max(j), self.base.window))
        val = self.base_times[pos] + self.slope_window[pos] * self.q_functional(x)
        return float(val) if np.ndim(val) == 0 else val


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
        as ``ImpulseSurfaceSpec.tau`` takes them.
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
    is exact.
    """

    lap: DirichletLaplacian
    alpha: float
    rho: float
    a: TrigSum
    b: TrigSum
    surfaces: ImpulseSurfaceSpec
    jumps: JumpSpec

    @cached_property
    def coeff(self) -> LinearCoefficient:
        return LinearCoefficient(m=(-1.0) * self.a + self.rho * (self.a * self.b))

    @cached_property
    def rates(self) -> np.ndarray:
        """Per-mode rates of the autonomous linear part."""
        return self.coeff.rates(self.lap)

    @cached_property
    def ab(self) -> TrigSum:
        return self.a * self.b

    @cached_property
    def intervals(self) -> tuple:
        """Per-surface interval [tau'_j, tau''_j] of tau_j over the ball, as (lo, hi)."""
        # sup of Q over |x|_alpha <= rho, attained on the first mode
        rho_q = self.rho**2 / self.lap.eigenvalues[0] ** (2.0 * self.alpha)
        t = self.surfaces.base_times
        b = self.surfaces.slope_window
        return t + np.minimum(0.0, b * rho_q), t + np.maximum(0.0, b * rho_q)

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
        c = self.surfaces.base.offsets()
        if c.size < 4:
            raise SeparationError("the gap constant needs at least 4 surfaces in the window")
        formula = float(np.max(c[3:] - c[:-3])) + 3.0 * self.surfaces.base.a - 2.0 * self.theta
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
    def _reaction(self):
        """The pointwise map u -> (rho - u) u, built once."""
        rho = self.rho
        return lambda u: (rho - u) * u

    def f(self, t, x) -> np.ndarray:
        return self.forcing(t, x)

    def tau(self, j, x) -> float | np.ndarray:
        return self.surfaces.tau(j, x)

    def g(self, j, x) -> np.ndarray:
        """g_j(x) for an index j or an index array with one state row per index."""
        return self.jumps.g(j, x, self.lap)


def apply_jump(system: ImpulseSystemSpec, j, x) -> np.ndarray:
    """x + g_j(x), with a hard post-state ball check."""
    if not system.in_ball(x):
        raise BallExitError("pre-jump state outside the admissible ball")
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


def step_segment(
    system: ImpulseSystemSpec,
    x0,
    t0: float,
    t1: float,
    seg_tol: float = 1e-8,
    h_max: float = np.inf,
    h0: float = 0.05,
) -> Segment:
    """Integrate the flow on [t0, t1]; adaptive steps by step doubling.

    Each trial step compares one step of size h with two of h/2; the halved
    solution is kept (local extrapolation), and h adapts to keep the
    difference below ``seg_tol``.  The first trial step is ``h0``; every
    trial step is clipped to t1 and ``h_max``.  Node times of accepted steps
    form the dense output grid, and the last one is t1 itself: the loop stops
    within 1e-13 of t1, and t + (t1 - t) can round below t1.  A segment
    shorter than that margin is one step.
    """
    if t1 <= t0:
        raise ValueError("segment needs t1 > t0")
    x = np.asarray(x0, dtype=float)
    if not system.in_ball(x):
        raise BallExitError("initial state outside the admissible ball", time=t0)
    stop = t1 - 1e-13 * max(1.0, abs(t1))
    nodes, states = [t0], [x]
    t, h = t0, h0
    while t < stop or len(nodes) == 1:
        h = min(h, t1 - t, h_max)
        f0 = system.f(t, x)
        while True:
            coarse, fine = _doubling_trial(system, t, h, x, f0)
            err = float(np.linalg.norm(fine - coarse)) / 3.0
            if err < seg_tol or h < 1e-12:
                break
            h *= max(0.25, 0.9 * (seg_tol / max(err, 1e-300)) ** (1.0 / 3.0))
        t = t + h
        x = fine
        nodes.append(t)
        states.append(x)
        if not system.in_ball(x):
            raise BallExitError("left admissible ball at t = %g" % t, time=t)
        h = h * min(4.0, max(0.25, 0.9 * (seg_tol / max(err, 1e-300)) ** (1.0 / 3.0)))
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
    b_j = system.surfaces.slope(j)
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
    system: ImpulseSystemSpec,
    u0,
    t0: float,
    t_end: float,
    seg_tol: float = 1e-8,
    event_tol: float = 1e-10,
    certified_surfaces=(),
) -> PiecewiseTrajectory:
    """Alternate flow segments, crossing detection and jumps on [t0, t_end].

    The trajectory's node table is the flow segments joined end to start:
    each boundary, a hit or a horizon end, repeats a time.  Their number is
    ``meta['n_segments']``.

    ``certified_surfaces`` lists surface indices with a passing beating
    certificate; a second hit on such a surface raises BeatingError, while
    uncertified repeats are only counted in ``meta['hit_counts']``.  A hit
    time whose |zeta| stays >= ``event_tol`` after ``_SHARPEN_RUNS``
    re-integrations raises EventLocationError.
    """
    lo, hi = system.intervals
    idx = system.surfaces.indices()
    certified = set(int(j) for j in certified_surfaces)

    x = np.asarray(u0, dtype=float)
    t = float(t0)
    horizon = max(system.theta / 2.0, 1e-3)
    node_t, node_states, hits = [], [], []  # the node table, flow segment by segment
    n_segments = 0
    hit_counts: dict = {}
    last_hit = None  # (surface, time): suppress re-detecting the jump just taken

    while t < t_end - 1e-12:
        t1 = min(t_end, t + horizon)
        seg = step_segment(system, x, t, t1, seg_tol, h_max=horizon / 4.0)
        cand = idx[(hi >= t - event_tol) & (lo <= t1 + event_tol)]
        best = None
        for j in cand:
            th = detect_crossing(system, seg, j)
            if th is None:
                continue
            if last_hit is not None and int(j) == last_hit[0] and th <= last_hit[1] + 10.0 * event_tol:
                continue
            if best is None or th < best[0]:
                best = (th, int(j))
        if best is None:
            node_t.append(seg.t)
            node_states.append(seg.states)
            n_segments += 1
            t, x = t1, seg.states[-1]
            continue
        th, j = best
        # sharpen the hit time on re-integrated (not interpolated) states; each
        # run goes from the left node of the step (a, b] of seg that holds th,
        # with that step as its first trial step.  Each run's sign of zeta
        # shrinks (a, b), and an iterate outside it is replaced by the
        # midpoint; th == seg.t[0] takes the th - t branch below
        i = max(int(np.searchsorted(seg.t, th)) - 1, 0)
        a, b = seg.t[i], seg.t[i + 1]
        last = None
        for _ in range(_SHARPEN_RUNS):
            if th - t <= 1e-12:
                th, run, pre = t, None, x
                break
            run = step_segment(
                system, seg.states[i], seg.t[i], th, seg_tol, horizon / 4.0,
                h0=seg.t[i + 1] - seg.t[i],
            )
            pre = run.states[-1]
            zeta = th - system.tau(j, pre)
            if abs(zeta) < event_tol:
                break
            if zeta < 0.0:
                a = th
            else:
                b = th
            nxt = th - zeta
            if last is not None and zeta != last[1]:
                nxt = th - zeta * (th - last[0]) / (zeta - last[1])
            last = (th, zeta)
            th = nxt if a < nxt < b else 0.5 * (a + b)
        else:
            raise EventLocationError(
                "hit on surface %d near t = %.17g: |zeta| = %g >= event_tol = %g after "
                "%d runs" % (j, th, abs(zeta), event_tol, _SHARPEN_RUNS)
            )
        if run is not None:
            node_t += [seg.t[:i], run.t]
            node_states += [seg.states[:i], run.states]
            n_segments += 1
        post = apply_jump(system, j, pre)
        last_hit = (j, th)
        hits.append(HitRecord(time=th, surface=j, pre=pre, post=post))
        hit_counts[j] = hit_counts.get(j, 0) + 1
        if hit_counts[j] > 1 and j in certified:
            raise BeatingError(
                "repeated hit on certified surface %d at t = %g" % (j, th)
            )
        t, x = th, post

    nodes = Segment(t=np.concatenate(node_t), states=np.concatenate(node_states))
    return PiecewiseTrajectory(
        nodes=nodes, hits=hits, meta={"hit_counts": hit_counts, "n_segments": n_segments}
    )


# ---------------------------------------------------------------------------
# beating exclusion certificate
# ---------------------------------------------------------------------------


def _nonnegative_samples(system, n_samples, rng) -> np.ndarray:
    """Non-negative states in the ball: sums of squared sines, rescaled.

    Each row of ``rng.random((n_samples, 5))`` gives four weights of
    u = sum_m w_m sin^2(m pi xi / l) and a radius draw.  The state is built in
    coefficient space: the projection is linear, so the four shapes are
    projected once and x = sum_m w_m project(sin^2(m pi xi / l)).  Half the
    samples are pushed to the ball boundary |x|_alpha = rho (the functionals
    in P are extremized there), the rest fill the interior.  Returns an
    (S, N) array; draws with weights summing below 1e-8 or with a vanishing
    norm are dropped.
    """
    lap = system.lap
    raw = rng.random((n_samples, 5))
    raw = raw[np.sum(raw[:, :4], axis=1) >= 1e-8]
    shapes = lap.project(np.sin(np.arange(1, 5)[:, None] * np.pi * lap.xi / lap.l) ** 2)
    x = raw[:, :4] @ shapes
    nrm = lap.frac_norm(x, system.alpha)
    keep = nrm >= 1e-12
    x, nrm, r = x[keep], nrm[keep], raw[keep, 4]
    rho = system.rho
    scale = np.where(r < 0.5, rho / nrm, rho * (0.1 + 1.8 * (r - 0.5)) / nrm)
    return np.minimum(scale, rho / nrm)[:, None] * x


def beating_certificate(
    system: ImpulseSystemSpec, j, n_samples: int = 512, rng=None
) -> dict:
    """Check the repeated-hit exclusion hypotheses on surface j by sampling.

    theta_j(x) <= 0 and P(u) < 1 must hold on every sampled non-negative
    state in the ball; beta_0 is the slope threshold below which the bound
    chain for P closes automatically.  All samples of the surface are
    evaluated as one (S, N) batch.  Returns the record ``certify`` writes.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    lap = system.lap
    b_j = system.surfaces.slope(j)

    sup_ab = system.ab.sup_bound()
    rho, l = system.rho, lap.l
    beta0 = 0.5 / ((1.0 + sup_ab) * (rho**2 + np.sqrt(l) * rho**3))

    x = _nonnegative_samples(system, n_samples, rng)
    q = ImpulseSurfaceSpec.q_functional(x)
    tau = system.tau(j, x)
    theta = b_j * (ImpulseSurfaceSpec.q_functional(x + system.g(j, x)) - q)
    cubic = lap.eval_physical(x) ** 3 @ lap.weights
    grad_sq = np.sum(lap.eigenvalues * x * x, axis=-1)
    p_val = -2.0 * b_j * grad_sq + 2.0 * b_j * system.a(tau) * (q - system.b(tau) * cubic)
    theta_check = float(np.max(theta, initial=-np.inf))
    p_check = float(np.max(p_val, initial=-np.inf))
    return {
        "surface": int(j),
        "theta_check": theta_check,
        "P_check": p_check,
        "beta0": float(beta0),
        "n_samples": x.shape[0],
        "verdict": "pass" if theta_check <= 1e-10 and p_check < 1.0 else "fail",
    }
