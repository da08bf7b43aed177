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
``np.interp`` (``test_segment_interp_matches_np_interp`` in
``tests/test_trajectory.py`` checks this), so zeta is a quadratic in t
there, and zeta < 0 at the left node with zeta >= 0 at the right one
leaves room for one root only.  A hit time is then sharpened on
re-integrated states until |zeta| < ``event_tol``: one fixed-point step
th - zeta, then secant steps through the last two (th, zeta) pairs, each
kept inside the flow step that brackets the sign change, shrunk by the sign
of every run's zeta; an iterate that leaves it is replaced by its midpoint.
Each run integrates from the left node of that flow step, with the step taken
there as its first trial step, so the flow segment up to that node is shared
with the hit segment as it is.

``beating_certificate`` checks the two repeated-hit exclusion hypotheses on
sampled non-negative states: ``theta_j(x) = tau_j(x + g_j(x)) - tau_j(x) <= 0``
and the explicit functional

    P(u) = -2 b_j int u_xi^2 + 2 b_j a(tau) int u^2 (1 - b(tau) u) < 1,

together with the threshold ``beta_0 = 0.5 ((1 + sup[ab])(rho^2 +
sqrt(l) rho^3))^{-1}`` under which the bound holds automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .ap_analysis import StronglyAPSet
from .evolution import LinearCoefficient
from .spectral import DirichletLaplacian, SineTransform
from .trajectory import HitRecord, PiecewiseTrajectory, Segment
from .trig import SeqGen, TrigSum

__all__ = [
    "ImpulseSurfaceSpec",
    "JumpSpec",
    "ImpulseSystemSpec",
    "BeatingCertificate",
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
    slopes: object = field(default_factory=lambda: SeqGen.constant(0.0))

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

    def base_time(self, j) -> float:
        return float(self.base_times[int(j) - self.base.window[0]])

    @staticmethod
    def q_functional(x) -> float | np.ndarray:
        """Q(x) = int_0^l u^2 = sum_k x_k^2 (Parseval)."""
        x = np.asarray(x, dtype=float)
        val = np.sum(x * x, axis=-1)
        return float(val) if val.ndim == 0 else val

    def tau(self, j, x) -> float:
        return self.base_time(j) + self.slope(j) * self.q_functional(x)


@dataclass(frozen=True)
class JumpSpec:
    """Jump maps g_j(x) = amp_j * sum_r K_left[r] <K_right[r], I(u)> + d_j.

    The kernel K_j(xi, zeta) = amp_j sum_r phi_r(xi) chi_r(zeta) is a
    separable low-rank sine expansion; ``left``/``right`` hold the spectral
    coefficients of phi_r / chi_r as (R, N) arrays.  ``nonlinearity`` names a
    catalogue map I with I(0) = 0; ``d`` generates the additive offsets d_j
    (SeqGen with vector values, a fixed array, or None).
    """

    left: np.ndarray | None = None
    right: np.ndarray | None = None
    nonlinearity: str = "zero"
    amp: object = field(default_factory=lambda: SeqGen.constant(1.0))
    d: object = None

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
        if self.d is None:
            return np.zeros(n_modes)
        if callable(self.d):
            return np.asarray(self.d(int(j)), dtype=float)
        return np.asarray(self.d, dtype=float)

    def g(self, j, x, transform: SineTransform) -> np.ndarray:
        """g_j at x of shape (N,) or (S, N), on the grid of ``transform``; same shape as x."""
        out = self.offset(j, np.shape(x)[-1])
        if self.left is None or self.nonlinearity == "zero":
            return np.broadcast_to(out, np.shape(x)).copy()
        image = transform.nonlinear_image(x, self.i_map)
        # <chi_r, I(u)> by Parseval on the projected image
        inner = np.asarray(self.right, dtype=float) @ image.T
        return out + float(self.amp(int(j))) * (inner.T @ np.asarray(self.left, dtype=float))


@dataclass(frozen=True)
class ImpulseSystemSpec:
    """Full problem instance in the diagonal realization.

    The reaction-diffusion form u_t = u_xixi + a(t) u (1 - b(t) u) with
    confinement radius rho splits into the linear coefficient
    m(t) = -a(t) + rho (a b)(t) and the nonlinearity
    f(t, u) = (a b)(t) (rho - u) u; both a and b are trig sums so the split
    is exact.  ``f_override`` freezes f to a state-independent time profile
    (used by linear oracles).
    """

    lap: DirichletLaplacian
    alpha: float
    rho: float
    a: TrigSum
    b: TrigSum
    surfaces: ImpulseSurfaceSpec
    jumps: JumpSpec
    n_xi: int = 256
    f_override: object = None

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
    def transform(self) -> SineTransform:
        """Sine basis and weights of the uniform n_xi grid, built once."""
        return SineTransform(self.lap, self.lap.uniform_grid(self.n_xi))

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
        if theta <= 0.0:
            raise SeparationError(
                "surface intervals overlap over the ball (theta = %g <= 0)" % theta
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
        as a (1, N) batch it would round differently.  ``f_override``
        replaces f by a profile of t alone.
        """
        batch = isinstance(t, np.ndarray) and t.ndim > 0
        if self.f_override is not None:
            if batch:
                return np.stack([np.asarray(self.f_override(s), dtype=float) for s in t])
            return np.asarray(self.f_override(t), dtype=float)
        ab = self.ab(t)
        image = self.transform.nonlinear_image(x, self._reaction)
        return (ab[:, None] if batch else ab) * image

    @cached_property
    def _reaction(self):
        """The pointwise map u -> (rho - u) u, built once."""
        rho = self.rho
        return lambda u: (rho - u) * u

    def f(self, t, x) -> np.ndarray:
        return self.forcing(t, x)

    def tau(self, j, x) -> float:
        return self.surfaces.tau(j, x)

    def g(self, j, x) -> np.ndarray:
        return self.jumps.g(j, x, self.transform)


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
    form the dense output grid.
    """
    if t1 <= t0:
        raise ValueError("segment needs t1 > t0")
    x = np.asarray(x0, dtype=float)
    if not system.in_ball(x):
        raise BallExitError("initial state outside the admissible ball", time=t0)
    stop = t1 - 1e-13 * max(1.0, abs(t1))
    nodes, states = [t0], [x]
    t, h = t0, h0
    while t < stop:
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

    ``certified_surfaces`` lists surface indices with a passing beating
    certificate; a second hit on such a surface raises BeatingError, while
    uncertified repeats are only counted in ``meta['hit_counts']``.  A hit
    time whose |zeta| stays >= ``event_tol`` after ``_SHARPEN_RUNS``
    re-integrations raises EventLocationError.
    """
    theta = system.theta
    lo, hi = system.intervals
    idx = system.surfaces.indices()
    certified = set(int(j) for j in certified_surfaces)

    x = np.asarray(u0, dtype=float)
    t = float(t0)
    horizon = max(theta / 2.0, 1e-3)
    segments, hits = [], []
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
            segments.append(seg)
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
            segments.append(Segment(t=np.concatenate([seg.t[:i], run.t]),
                                    states=np.concatenate([seg.states[:i], run.states])))
        post = apply_jump(system, j, pre)
        last_hit = (j, th)
        hits.append(HitRecord(time=th, surface=j, pre=pre, post=post))
        hit_counts[j] = hit_counts.get(j, 0) + 1
        if hit_counts[j] > 1 and j in certified:
            raise BeatingError(
                "repeated hit on certified surface %d at t = %g" % (j, th)
            )
        t, x = th, post

    traj = PiecewiseTrajectory(segments=segments, hits=hits)
    traj.meta.update({"hit_counts": hit_counts, "theta": theta, "seg_tol": seg_tol})
    return traj


# ---------------------------------------------------------------------------
# beating exclusion certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BeatingCertificate:
    surface: int
    theta_check: float
    p_check: float
    beta0: float
    n_samples: int
    verdict: bool

    def as_record(self) -> dict:
        return {
            "surface": self.surface,
            "theta_check": self.theta_check,
            "P_check": self.p_check,
            "beta0": self.beta0,
            "n_samples": self.n_samples,
            "verdict": "pass" if self.verdict else "fail",
        }


# Joe-Kuo direction numbers of the first five Sobol' dimensions: primitive
# polynomial (bit-coded, leading and trailing 1 included) and initial values
_SOBOL_BITS = 30
_SOBOL_POLY = (1, 3, 7, 11, 13)
_SOBOL_VINIT = ((1,), (1,), (1, 3), (1, 3, 1), (1, 1, 1))


def _sobol_direction_numbers() -> np.ndarray:
    """(5, 30) direction numbers v[d, j], each scaled by 2^(29 - j) to 30 bits."""
    v = np.ones((5, _SOBOL_BITS), dtype=np.int64)
    for d in range(1, 5):
        p = _SOBOL_POLY[d]
        m = p.bit_length() - 1
        v[d, :m] = _SOBOL_VINIT[d]
        for j in range(m, _SOBOL_BITS):
            newv = v[d, j - m]
            for k in range(m):
                if (p >> (m - 1 - k)) & 1:
                    newv ^= v[d, j - k - 1] << (k + 1)
            v[d, j] = newv
    return v << (_SOBOL_BITS - 1 - np.arange(_SOBOL_BITS))


_SOBOL_V = _sobol_direction_numbers()


def _scrambled_sobol(n, seed) -> np.ndarray:
    """First n points of the 5-d scrambled Sobol' sequence, as an (n, 5) array.

    Bit-identical to ``scipy.stats.qmc.Sobol(d=5, seed=seed).random(n)``:
    linear matrix scramble plus digital shift, drawn from
    ``np.random.default_rng(seed)`` in the same order (shift bits, then the
    lower-triangular matrices with unit diagonal), and the Gray-code order
    in which point i flips the direction number of the lowest set bit of i.
    """
    if n > 2**_SOBOL_BITS:
        raise ValueError("at most 2**%d Sobol' points" % _SOBOL_BITS)
    rng = np.random.default_rng(seed)
    bit = np.arange(_SOBOL_BITS)
    msb_weight = np.int64(1) << (_SOBOL_BITS - 1 - bit)
    shift = rng.integers(2, size=(5, _SOBOL_BITS), dtype=np.uint32).astype(np.int64) @ (1 << bit)
    ltm = np.tril(rng.integers(2, size=(5, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32))
    ltm[:, bit, bit] = 1
    # scrambled number = L @ (its bits, most significant first), mod 2
    v_bits = (_SOBOL_V[:, :, None] & msb_weight) != 0
    sv = ((v_bits.astype(np.int64) @ ltm.transpose(0, 2, 1)) & 1) @ msb_weight
    i = np.arange(1, max(n, 1))
    lowest_bit = np.frexp(i & -i)[1] - 1
    rows = np.concatenate([shift[None, :], sv[:, lowest_bit].T])[:n]
    return np.bitwise_xor.accumulate(rows, axis=0) * 2.0**-_SOBOL_BITS


def _nonnegative_samples(system, n_samples, rng) -> np.ndarray:
    """Non-negative states in the ball: sums of squared sines, rescaled.

    Low-discrepancy weights drive u = sum_m w_m sin^2(m pi xi / l); half the
    samples are pushed to the ball boundary |x|_alpha = rho (the functionals
    in P are extremized there), the rest fill the interior.  Returns an
    (S, N) array; draws with weights summing below 1e-8 or with a vanishing
    norm are dropped.
    """
    lap, tr = system.lap, system.transform
    raw = _scrambled_sobol(n_samples, rng.integers(2**31))
    raw = raw[np.sum(raw[:, :4], axis=1) >= 1e-8]
    u = np.zeros((raw.shape[0], tr.xi.size))
    for m in range(1, 5):
        u += raw[:, m - 1, None] * np.sin(m * np.pi * tr.xi / lap.l) ** 2
    x = tr.project(u)
    nrm = lap.frac_norm(x, system.alpha)
    keep = nrm >= 1e-12
    x, nrm, r = x[keep], nrm[keep], raw[keep, 4]
    rho = system.rho
    scale = np.where(r < 0.5, rho / nrm, rho * (0.1 + 1.8 * (r - 0.5)) / nrm)
    return np.minimum(scale, rho / nrm)[:, None] * x


def beating_certificate(
    system: ImpulseSystemSpec, j, n_samples: int = 512, rng=None
) -> BeatingCertificate:
    """Check the repeated-hit exclusion hypotheses on surface j by sampling.

    theta_j(x) <= 0 and P(u) < 1 must hold on every sampled non-negative
    state in the ball; beta_0 is the slope threshold below which the bound
    chain for P closes automatically.  All samples of the surface are
    evaluated as one (S, N) batch.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    lap, tr = system.lap, system.transform
    b_j = system.surfaces.slope(j)

    sup_ab = system.ab.sup_bound()
    rho, l = system.rho, lap.l
    beta0 = 0.5 / ((1.0 + sup_ab) * (rho**2 + np.sqrt(l) * rho**3))

    x = _nonnegative_samples(system, n_samples, rng)
    q = ImpulseSurfaceSpec.q_functional(x)
    tau = system.surfaces.base_time(j) + b_j * q
    theta = b_j * (ImpulseSurfaceSpec.q_functional(x + system.g(j, x)) - q)
    cubic = np.sum(tr.weights * tr.synthesize(x) ** 3, axis=-1)
    grad_sq = np.sum(lap.eigenvalues * x * x, axis=-1)
    p_val = -2.0 * b_j * grad_sq + 2.0 * b_j * system.a(tau) * (q - system.b(tau) * cubic)
    theta_check = float(np.max(theta, initial=-np.inf))
    p_check = float(np.max(p_val, initial=-np.inf))
    verdict = bool(theta_check <= 1e-10 and p_check < 1.0)
    return BeatingCertificate(
        surface=int(j),
        theta_check=theta_check,
        p_check=p_check,
        beta0=float(beta0),
        n_samples=x.shape[0],
        verdict=verdict,
    )
