"""Almost periodic solution via inner Picard iteration and an outer fixed point.

The inner stage solves, for a frozen sequence of impulse moments
``tau~_j = tau_j(y_j)``, the integral equation

    u(t) = int G(t, s) f(s, u(s)) ds + sum_j G(t, tau~_j) g_j(y_j)

by Picard iteration from u_0 = 0.  Each iterate is evaluated by a
*recursion* route: exact per-mode linear propagation plus two-point
variation-of-constants weights scanned forward (stable modes, zero state at
the far left buffer edge) and backward (unstable modes, zero at the far
right).  This route is deliberately independent of the composite-Simpson
quadrature of the Green representation (``evolution._green_integral_at``)
that ``integral_residual`` and the tests' ``bounded_solution`` oracle use,
so the two can cross-check each other.

The outer stage iterates the sequence map S(y)_j = u*(tau_j(y_j), y) to its
fixed point y*, assembles the trajectory, and certifies hit-time
consistency, smallness conditions and almost periodicity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .ap_analysis import (
    PiecewiseSampledFunction,
    WindowTooShortError,
    almost_periodicity_report,
)
from .evolution import DichotomyData, KBundle, _green_integral_at, _jump_sum
from .impulsive import BallExitError, ImpulseSystemSpec, _phi_weights
from .trajectory import HitRecord, PiecewiseTrajectory, Segment

__all__ = [
    "APSequencePoint",
    "ContractionReport",
    "SolverConfig",
    "ConvergenceError",
    "SurfaceWindowError",
    "OuterResult",
    "inner_solve",
    "integral_residual",
    "poincare_map",
    "outer_solve",
    "measure_lipschitz",
    "verify_smallness",
    "certify_almost_periodicity",
    "cropped_ap_report",
]


class ConvergenceError(RuntimeError):
    """An iteration failed to contract."""


class SurfaceWindowError(ValueError):
    """No impulse surface lies in, or within one buffer of, the reporting window."""


@dataclass(frozen=True)
class SolverConfig:
    h_t: float = 0.005
    inner_tol: float = 1e-8
    outer_tol: float = 1e-8
    residual_tol: float = 1e-6
    event_tol: float = 1e-10
    tail_tol: float = 1e-10
    seg_tol: float = 1e-8
    max_inner: int = 60
    max_outer: int = 80
    buffer: float | None = None


@dataclass(frozen=True)
class APSequencePoint:
    """Windowed almost periodic sequence of spectral vectors y_j."""

    window: tuple  # (j_min, j_max), inclusive
    values: np.ndarray  # shape (J, N)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape[0] != self.window[1] - self.window[0] + 1:
            raise ValueError("value count does not match the index window")
        object.__setattr__(self, "values", vals)

    @staticmethod
    def zero(window, n_modes) -> "APSequencePoint":
        j = window[1] - window[0] + 1
        return APSequencePoint(window=tuple(window), values=np.zeros((j, n_modes)))

    def value(self, j) -> np.ndarray:
        return self.values[int(j) - self.window[0]]

    def dist(self, other: "APSequencePoint", lap, alpha) -> float:
        """sup_j |y_j - z_j|_alpha over the common window."""
        if self.window != other.window:
            raise ValueError("sequence windows differ")
        return float(np.max(lap.frac_norm(self.values - other.values, alpha)))


@dataclass(frozen=True)
class ContractionReport:
    K_M0: float
    rho: float
    N1_declared: float
    N1_measured: float
    psi1_inv: float
    psi3_inv: float
    L_dprime: float | None
    L_prime: float | None
    check_KM0: bool
    check_N1: bool
    # largest ratio of successive increments in the final inner solve, and of
    # successive outer steps of S
    observed_inner_ratio: float | None = None
    observed_S_ratio: float | None = None

    @property
    def all_pass(self) -> bool:
        return self.check_KM0 and self.check_N1

    def as_record(self) -> dict:
        rec = {
            "K_M0": self.K_M0,
            "rho": self.rho,
            "N1_declared": self.N1_declared,
            "N1_measured": self.N1_measured,
            "psi1_inv": self.psi1_inv,
            "psi3_inv": self.psi3_inv,
            "check_KM0": "pass" if self.check_KM0 else "fail",
            "check_N1": "pass" if self.check_N1 else "fail",
        }
        rec["L_dprime"] = "undefined" if self.L_dprime is None else self.L_dprime
        rec["L_prime"] = "undefined" if self.L_prime is None else self.L_prime
        if self.observed_inner_ratio is not None:
            rec["observed_inner_ratio"] = self.observed_inner_ratio
        if self.observed_S_ratio is not None:
            rec["observed_S_ratio"] = self.observed_S_ratio
        return rec


# ---------------------------------------------------------------------------
# inner iteration machinery
# ---------------------------------------------------------------------------


def frozen_times(system: ImpulseSystemSpec, y: APSequencePoint) -> np.ndarray:
    """tau~_j = tau_j(y_j) for every surface index in the sequence window.

    One expression over the surfaces' arrays and Q of all values, bit-equal
    to ``system.tau(j, y.value(j))`` surface by surface.
    """
    surf = system.surfaces
    lo, hi = (k - surf.base.window[0] for k in y.window)
    if lo < 0 or hi >= surf.base_times.size:
        raise ValueError(
            "sequence window %s leaves the surface window %s" % (y.window, surf.base.window)
        )
    q = surf.q_functional(y.values)
    return surf.base_times[lo : hi + 1] + surf.slope_window[lo : hi + 1] * q


def _default_buffer(system, dich: DichotomyData, tail_tol) -> float:
    """Propagation length after which the zero boundary state is felt < tail_tol."""
    rho0 = system.rho / system.lap.eigenvalues[0] ** system.alpha
    f_bound = system.ab.sup_bound() * 2.0 * max(system.rho, 1.0) * max(rho0, 1.0) ** 2
    amp = dich.M * max(f_bound / dich.beta + 1.0, 1.0)
    return max(1.0, float(np.log(amp / tail_tol) / dich.beta))


# Largest cumulative |z| inside one scan block: e^500 and e^-500 stay finite.
_SCAN_CLIP = 500.0
# Longest scan block: bounds the rounding of the in-block cumulative sums.
_SCAN_MAX_BLOCK = 256


class _BlockedScan:
    """x_0 = 0, x_{k+1} = E_k x_k + c_k for a fixed E, in blocks of equal length.

    Inside a block, x = P cumsum(c / P) with P the running product of E and
    the block start state carried over as P x_start (the prefix-product form
    of Blelloch's scan, as in Martin & Cundy's linear-recurrence scan).  The
    block length keeps the cumulative |log E| under _SCAN_CLIP, so neither P
    nor c / P leaves the float range.  P depends on the grid only and is
    built once.
    """

    def __init__(self, E, z_max):
        n_steps, k = E.shape
        length = int(min(_SCAN_MAX_BLOCK, max(1.0, _SCAN_CLIP // max(z_max, 1e-300))))
        n_blocks = -(-n_steps // length)
        self.n_steps = n_steps
        E = np.concatenate([E, np.ones((n_blocks * length - n_steps, k))])
        E = E.reshape(n_blocks, length, k)
        self.P = np.cumprod(E, axis=1)

    def __call__(self, c) -> np.ndarray:
        """States x_0 .. x_n for increments c of shape (n, k)."""
        n_blocks, length, k = self.P.shape
        x = np.zeros((n_blocks * length + 1, k))
        x[1 : self.n_steps + 1] = c
        body = x[1:].reshape(n_blocks, length, k)  # a view: the scan runs in place
        body /= self.P
        np.cumsum(body, axis=1, out=body)
        body *= self.P
        starts = np.zeros((n_blocks, k))
        for b in range(1, n_blocks):
            starts[b] = self.P[b - 1, -1] * starts[b - 1] + body[b - 1, -1]
        body += self.P * starts[:, None, :]
        return x[: self.n_steps + 1]


@dataclass(frozen=True)
class _InnerGrid:
    """Every inter-impulse piece on one flat node axis.

    Each cut appears twice on ``t``: the pre-jump node closes one piece and
    the post-jump node opens the next.  The two are joined by a zero-length
    step with E = 1 and A h = B h = 0, whose increment is the jump vector.
    """

    t: np.ndarray  # (M,) node times
    Ah: np.ndarray  # (M - 1, N) two-point weights times the step length
    Bh: np.ndarray
    joins: np.ndarray  # index of each cut's join step, in cut order
    forward: _BlockedScan | None  # stable modes, left to right
    backward: _BlockedScan | None  # unstable modes, right to left, factors 1/E
    stable: np.ndarray  # boolean mode mask
    inv_E: np.ndarray  # (M - 1, n_unstable) reversed 1/E of the unstable modes

    def split(self, arr) -> list:
        """Cut a flat (M, ...) array back into its pieces."""
        return np.split(arr, self.joins + 1)


def _build_inner_grid(system, dich: DichotomyData, cuts, t_lo, t_hi, h_t) -> _InnerGrid:
    """Nodes and step factors of every piece between t_lo, the cuts and t_hi."""
    edges = np.concatenate(([t_lo], cuts, [t_hi]))
    n = np.maximum(1, np.ceil(np.diff(edges) / h_t).astype(int))
    t = np.concatenate(
        [np.linspace(a, b, k + 1) for a, b, k in zip(edges[:-1], edges[1:], n)]
    )
    h = np.diff(t)
    z = system.rates[None, :] * h[:, None] + np.diff(
        system.coeff.m.antiderivative(t)
    )[:, None]
    E, _, A, B = _phi_weights(z)
    z_max = np.max(np.abs(z), axis=0)
    stable = ~dich.unstable
    forward = backward = None
    if np.any(stable):
        forward = _BlockedScan(E[:, stable], float(np.max(z_max[stable])))
    inv_E = 1.0 / E[::-1][:, dich.unstable]
    if dich.has_unstable:
        backward = _BlockedScan(inv_E, float(np.max(z_max[dich.unstable])))
    return _InnerGrid(
        t=t,
        Ah=A * h[:, None],
        Bh=B * h[:, None],
        joins=np.cumsum(n + 1)[:-1] - 1,
        forward=forward,
        backward=backward,
        stable=stable,
        inv_E=inv_E,
    )


def _recursion_pass(ig: _InnerGrid, f_vals, jumps) -> np.ndarray:
    """One application of the integral operator to sampled forcing values.

    ``f_vals`` holds f(t, u_n(t)) at the flat nodes and ``jumps`` the jump
    vector of each cut.  Stable coordinates scan forward from 0 at the left
    edge; unstable coordinates scan backward from 0 at the right edge.
    """
    c = ig.Ah * f_vals[:-1]
    c += ig.Bh * f_vals[1:]
    c[ig.joins] = jumps
    out = np.empty_like(f_vals)
    if ig.forward is not None:
        out[:, ig.stable] = ig.forward(c[:, ig.stable])
    if ig.backward is not None:
        # x_i = (x_{i+1} - c_i) / E_i, run left to right on the reversed axis
        unstable = ~ig.stable
        out[::-1, unstable] = ig.backward(-c[::-1][:, unstable] * ig.inv_E)
    return out


def inner_solve(
    system: ImpulseSystemSpec,
    dich: DichotomyData,
    y: APSequencePoint,
    window,
    cfg: SolverConfig = SolverConfig(),
):
    """Picard iteration for u*(., y) at frozen impulse times.

    Returns (trajectory, info).  The trajectory spans the extended window
    (reporting window plus buffers); ``info`` holds iteration counts, the
    increment history and the sup norm.  Raises BallExitError when an
    iterate leaves U^alpha_rho and ConvergenceError when max_inner is hit.
    """
    lap, alpha = system.lap, system.alpha
    buf = cfg.buffer if cfg.buffer is not None else _default_buffer(system, dich, cfg.tail_tol)
    t_lo, t_hi = float(window[0]) - buf, float(window[1]) + buf

    taus = frozen_times(system, y)
    jump_vecs = {
        float(taus[k]): system.g(j, y.value(j))
        for k, j in enumerate(range(y.window[0], y.window[1] + 1))
        if t_lo < taus[k] < t_hi
    }
    cuts = sorted(jump_vecs)
    jumps = np.array([jump_vecs[c] for c in cuts]).reshape(len(cuts), lap.n_modes)
    ig = _build_inner_grid(system, dich, cuts, t_lo, t_hi, cfg.h_t)

    states = np.zeros((ig.t.size, lap.n_modes))
    increments = []
    for it in range(cfg.max_inner):
        new_states = _recursion_pass(ig, system.forcing(ig.t, states), jumps)
        inc = float(np.max(lap.frac_norm(new_states - states, alpha)))
        increments.append(inc)
        states = new_states
        if not system.in_ball(states):
            raise BallExitError(
                "ball violation: hypotheses fail (inner iterate |u|_alpha = %g)"
                % np.max(lap.frac_norm(states, alpha))
            )
        if inc < cfg.inner_tol:
            break
    else:
        raise ConvergenceError(
            "inner iteration did not converge; last increment %g" % increments[-1]
        )

    segments = [Segment(t=g, states=s) for g, s in zip(ig.split(ig.t), ig.split(states))]
    traj = PiecewiseTrajectory(segments=segments)
    traj.meta.update(
        {
            "buffer": buf,
            "iterations": len(increments),
            "increments": increments,
            "sup_alpha": float(np.max(lap.frac_norm(states, alpha))),
            "frozen_times": taus,
        }
    )
    return traj, dict(traj.meta)


def integral_residual(
    system: ImpulseSystemSpec,
    dich: DichotomyData,
    traj: PiecewiseTrajectory,
    y: APSequencePoint,
    times,
    h_t: float = 0.002,
) -> float:
    """Residual of the integral equation at sample times, by direct Simpson.

    Independent of the recursion route: the Green integral of f(., u*(.))
    plus the jump sum is evaluated by composite Simpson quadrature over one
    buffer length on each side and compared with u* itself, in the alpha norm.
    """
    lap, alpha = system.lap, system.alpha
    # recompute the frozen times from y itself: the trajectory metadata may
    # cover a wider (buffered) surface window than the sequence at hand
    taus = frozen_times(system, y)
    T_tail = traj.meta["buffer"]
    js = range(y.window[0], y.window[1] + 1)
    jump_vecs = np.array([system.g(j, y.value(j)) for j in js]).reshape(len(js), lap.n_modes)
    breakpoints = np.sort(taus)

    def f_vals_fn(v):
        return system.forcing(v, traj.eval_many(v))

    worst = 0.0
    for t in times:
        val = _green_integral_at(lap, system.coeff, dich, t, f_vals_fn, breakpoints, h_t, T_tail)
        val += _jump_sum(lap, system.coeff, dich, t, taus, jump_vecs, T_tail)
        worst = max(worst, float(lap.frac_norm(traj.eval(t) - val, alpha)))
    return worst


# ---------------------------------------------------------------------------
# outer iteration
# ---------------------------------------------------------------------------


def poincare_map(
    system: ImpulseSystemSpec,
    dich: DichotomyData,
    y: APSequencePoint,
    window,
    cfg: SolverConfig = SolverConfig(),
):
    """S(y)_j = u*(tau_j(y_j), y), sampled left-continuously."""
    traj, info = inner_solve(system, dich, y, window, cfg)
    out = APSequencePoint(window=y.window, values=traj.eval_many(info["frozen_times"]))
    if not system.in_ball(out.values):
        raise BallExitError("Poincare image leaves the sequence ball")
    return out, traj, info


@dataclass
class OuterResult:
    y_star: APSequencePoint
    trajectory: PiecewiseTrajectory
    steps: list
    meta: dict = field(default_factory=dict)


def _max_ratio(seq) -> float | None:
    """Largest ratio of successive entries; None when no entry is divisible."""
    ratios = [b / a for a, b in zip(seq[:-1], seq[1:]) if a > 0.0]
    return max(ratios) if ratios else None


def outer_solve(
    system: ImpulseSystemSpec,
    dich: DichotomyData,
    window,
    cfg: SolverConfig = SolverConfig(),
) -> OuterResult:
    """Fixed point of S from y_0 = 0, with the assembled certified trajectory.

    The iteration runs over every surface whose base moment falls within one
    buffer length of the reporting window (so the reported interior does not
    feel the lattice truncation); the returned y* covers only the surfaces
    strictly inside the window.
    """
    lap, alpha = system.lap, system.alpha
    buf = cfg.buffer if cfg.buffer is not None else _default_buffer(system, dich, cfg.tail_tol)
    cfg = replace(cfg, buffer=buf)  # every inner solve reuses it
    idx = system.surfaces.indices()
    bt = system.surfaces.base_times
    dyn = idx[(bt > window[0] - buf) & (bt < window[1] + buf)]
    if dyn.size == 0:
        raise SurfaceWindowError("no surfaces near the reporting window")
    surface_window = (int(dyn[0]), int(dyn[-1]))
    inside = idx[(bt > window[0]) & (bt < window[1])]
    if inside.size == 0:
        raise SurfaceWindowError("no surfaces inside the reporting window")
    report_window = (int(inside[0]), int(inside[-1]))

    y = APSequencePoint.zero(surface_window, lap.n_modes)
    steps = []
    traj, info = None, None
    bad = 0
    for _ in range(cfg.max_outer):
        y_new, traj, info = poincare_map(system, dich, y, window, cfg)
        step = y_new.dist(y, lap, alpha)
        steps.append(step)
        if len(steps) >= 2 and steps[-1] >= steps[-2] and steps[-1] >= cfg.outer_tol:
            bad += 1
            if bad >= 5:
                raise ConvergenceError(
                    "no contraction: reduce N1 or check dichotomy (steps %s)"
                    % steps[-5:]
                )
        else:
            bad = 0
        y = y_new
        if step < cfg.outer_tol:
            break
    else:
        raise ConvergenceError("outer iteration did not converge; steps %s" % steps[-3:])

    # assemble hit records on the interior and certify hit-time consistency
    taus = info["frozen_times"]
    report_js = range(report_window[0], report_window[1] + 1)
    report = slice(report_window[0] - surface_window[0], report_window[1] - surface_window[0] + 1)
    report_taus = taus[report]
    hits = []
    worst_hit = 0.0
    for j, t, pre in zip(report_js, report_taus.tolist(), traj.eval_many(report_taus)):
        post = pre + system.g(j, y.value(j))
        hits.append(HitRecord(time=t, surface=j, pre=pre, post=post))
        worst_hit = max(worst_hit, abs(t - system.tau(j, pre)))
    traj.hits = hits
    traj.meta["hit_consistency"] = worst_hit
    traj.meta["outer_steps"] = steps
    traj.meta["observed_inner_ratio"] = _max_ratio(info["increments"])
    traj.meta["observed_S_ratio"] = _max_ratio(steps)

    # estimate (vot) analogue: sup of |u|_gamma away from the hits
    theta = system.theta
    t_all, s_all = traj.all_nodes()
    dist = np.min(np.abs(t_all[:, None] - taus[None, :]), axis=1)
    mask = dist >= theta / 4.0
    for gamma in (alpha, 0.9):
        traj.meta["sup_norm_%g" % gamma] = float(
            np.max(lap.frac_norm(s_all[mask], gamma))
        )
    y_report = APSequencePoint(window=report_window, values=y.values[report])
    traj.meta["surface_window"] = surface_window
    return OuterResult(y_star=y_report, trajectory=traj, steps=steps, meta=dict(traj.meta))


# ---------------------------------------------------------------------------
# smallness verification
# ---------------------------------------------------------------------------


def measure_lipschitz(system: ImpulseSystemSpec, rng=None, n_pairs: int = 200) -> dict:
    """Sampled Lipschitz constants of f, g_j and tau_j over ball pairs.

    Returns the per-ingredient constants and their sum N1 (the theorem uses
    one common constant), plus M0 = max(sup_t |f(t,0)|_0, sup_j |g_j(0)|_1).
    The pair loop only draws, in the per-pair order; f then runs once on all
    pairs, g once per probe surface and tau from the surfaces' arrays.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    lap, alpha, rho, n = system.lap, system.alpha, system.rho, system.lap.n_modes
    w = lap.frac_weights(alpha)
    surf, idx = system.surfaces, system.surfaces.indices()
    probe = np.arange(0, idx.size, max(1, idx.size // 8))
    pairs, d, t, k = [], [], [], []
    for _ in range(n_pairs):
        x1 = rng.standard_normal(n) / w
        x1 *= rng.uniform(0.1, 1.0) * rho / lap.frac_norm(x1, alpha)
        x2 = x1 + rng.standard_normal(n) / w * rng.uniform(1e-3, 0.3)
        if lap.frac_norm(x2, alpha) > rho:
            x2 *= rho / lap.frac_norm(x2, alpha)
        dist = lap.frac_norm(x1 - x2, alpha)
        if dist < 1e-12:
            continue
        pairs.append((x1, x2))
        d.append(dist)
        t.append(rng.uniform(0.0, 50.0))
        k.append(rng.integers(probe.size))
    x = np.array(pairs).reshape(-1, 2, n)
    d, t, k = np.array(d), np.array(t), np.array(k, dtype=int)
    f = system.forcing(np.r_[t, t], np.r_[x[:, 0], x[:, 1]])
    lip_f = np.max(np.linalg.norm(f[: d.size] - f[d.size :], axis=1) / d, initial=0.0)
    # each probe surface's batch ends with the zero state, for g_j(0)
    lip_g = g_star = m0_g = 0.0
    for i, pos in enumerate(probe):
        sel = k == i
        batch = np.r_[x[sel, 0], x[sel, 1], np.zeros((1, n))]
        g = system.g(idx[pos], batch)
        g1, g2 = np.split(g[:-1], 2)
        lip_g = max(lip_g, np.max(lap.frac_norm(g1 - g2, alpha) / d[sel], initial=0.0))
        g_star = max(g_star, np.max(lap.frac_norm(g1, 1.0), initial=0.0))
        m0_g = max(m0_g, lap.frac_norm(g[-1], 1.0))
    pos = probe[k]
    tau = surf.base_times[pos, None] + surf.slope_window[pos, None] * surf.q_functional(x)
    lip_tau = np.max(np.abs(tau[:, 0] - tau[:, 1]) / d, initial=0.0)
    t0 = np.linspace(0.0, 50.0, 32)
    m0_f = np.max(np.linalg.norm(system.forcing(t0, np.zeros((t0.size, n))), axis=1))
    return {
        "lip_f": float(lip_f),
        "lip_g": float(lip_g),
        "lip_tau": float(lip_tau),
        "N1": float(lip_f + lip_g + lip_tau),
        "M0": float(max(m0_f, m0_g)),
        "g_star": float(max(g_star, m0_g)),
    }


def verify_smallness(
    system: ImpulseSystemSpec,
    kb: KBundle,
    N1: float,
    M0: float,
    rng=None,
) -> ContractionReport:
    """Evaluate the explicit smallness gates of the contraction argument.

    ``N1`` is the declared Lipschitz constant (the larger of it and a fresh
    measurement is gated) and ``M0`` bounds f(., 0) and g_j(0); the ball
    radius is the system's rho.
    """
    measured = measure_lipschitz(system, rng=rng)
    n1 = max(N1, measured["N1"])
    k_m0 = kb.K * M0
    psi1_inv = 1.0 / kb.Psi1 if kb.Psi1 > 0.0 else np.inf
    psi3_inv = 1.0 / kb.Psi3 if kb.Psi3 > 0.0 else np.inf
    check_km0 = bool(k_m0 < system.rho)
    check_n1 = bool(n1 < min(psi1_inv, psi3_inv))
    if n1 * kb.Psi3 < 1.0:
        l_dprime = kb.K4 / (1.0 - n1 * kb.Psi3)
    else:
        l_dprime = None
    if l_dprime is not None and n1 * kb.Psi1 < 1.0:
        l_prime = (n1 * kb.Psi2 * l_dprime + kb.K3) / (1.0 - n1 * kb.Psi1)
    else:
        l_prime = None
    return ContractionReport(
        K_M0=float(k_m0),
        rho=system.rho,
        N1_declared=N1,
        N1_measured=measured["N1"],
        psi1_inv=float(psi1_inv),
        psi3_inv=float(psi3_inv),
        L_dprime=l_dprime,
        L_prime=l_prime,
        check_KM0=check_km0,
        check_N1=check_n1,
    )


# ---------------------------------------------------------------------------
# almost periodicity certification
# ---------------------------------------------------------------------------


def cropped_ap_report(system, seq, k_min, taus, span, crop, h_t, sample, eps_list):
    """``almost_periodicity_report`` of a sequence and a function on a cropped span.

    The span (t_start, t_end) loses ``crop`` at each end; ``sample(grid)``
    gives the function's (T, N) values on the grid of step ``h_t`` over the
    rest, and ``taus`` are the sorted hit times of ``seq`` (indexed from
    ``k_min``).  Returns (t0, t1, report) with [t0, t1] the cropped span;
    raises WindowTooShortError when it is shorter than 4 h_t.
    """
    t0, t1 = span[0] + crop, span[1] - crop
    if t1 - t0 < 4.0 * h_t:
        raise WindowTooShortError(
            "trajectory span too short for the almost-periodicity crop of %g at each end"
            % crop
        )
    grid = np.arange(t0, t1 + h_t / 2.0, h_t)
    f = PiecewiseSampledFunction(
        t0=t0, h_t=h_t, values=sample(grid), discontinuities=taus,
        weights=system.lap.frac_weights(system.alpha),
    )
    report = almost_periodicity_report(seq, k_min, taus, system.surfaces.base.a, f, eps_list)
    return t0, t1, report


def certify_almost_periodicity(
    system: ImpulseSystemSpec,
    result: OuterResult,
    eps_list,
    h_t: float = 0.01,
) -> dict:
    """Eps-almost-period reports for y* and Wexler deviations for u*.

    Samples u* on a grid of step ``h_t`` and hands y*, its hit times and the
    samples to ``almost_periodicity_report``.
    """
    traj = result.trajectory
    # crop two buffer lengths from each end: near the span edges the
    # truncated impulse lattice is missing neighbors, so the trajectory is not
    # almost periodic there.  One buffer length reaches the reporting window
    # edge; the second damps the influence of the lattice truncated at that
    # edge below tail_tol.
    y = result.y_star
    return cropped_ap_report(
        system, y.values, y.window[0], np.sort(traj.hit_times()),
        (traj.t_start, traj.t_end), 2.0 * result.meta["buffer"], h_t, traj.eval_many,
        eps_list,
    )[2]
