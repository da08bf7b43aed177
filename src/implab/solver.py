"""Almost periodic solution via inner Picard iteration and an outer fixed point.

The inner stage solves, for a frozen sequence of impulse moments
``tau~_j = tau_j(y_j)``, the integral equation

    u(t) = int G(t, s) f(s, u(s)) ds + sum_j G(t, tau~_j) g_j(y_j)

by Picard iteration, from u_0 = 0 or from the previous outer step's u*
(``WarmStart``).  Each iterate is evaluated by a
*recursion* route: exact per-mode linear propagation plus two-point
variation-of-constants weights scanned forward (stable modes, zero state at
the far left buffer edge) and backward (unstable modes, zero at the far
right).  This route is deliberately independent of the composite-Simpson
quadrature of the Green representation (``evolution._green_integral_at``)
that ``integral_residual`` and the tests' ``bounded_solution`` oracle use,
so the two can cross-check each other.

The outer stage iterates the sequence map S(y)_j = u*(tau_j(y_j), y) to its
fixed point y*, seeding each inner solve from the one before, assembles the
trajectory, and certifies hit-time
consistency and smallness conditions; ``certify_almost_periodicity`` hands
y* and u* to ``ap_analysis.almost_periodicity_report``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ap_analysis import almost_periodicity_report, cropped_span, nearest_distance
from .evolution import DichotomyData, _green_integral_at, _jump_sum
from .impulsive import BallExitError, ImpulseSystemSpec, _phi_weights
from .trajectory import HitRecord, PiecewiseTrajectory, Segment

__all__ = [
    "SolverConfig",
    "ConvergenceError",
    "SurfaceWindowError",
    "OuterResult",
    "WarmStart",
    "inner_solve",
    "integral_residual",
    "poincare_map",
    "outer_solve",
    "measure_lipschitz",
    "verify_smallness",
    "buffer_length",
    "check_ap_crop",
    "certify_almost_periodicity",
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
    event_tol: float = 1e-10
    tail_tol: float = 1e-10
    seg_tol: float = 1e-8
    max_inner: int = 60
    max_outer: int = 80


# ---------------------------------------------------------------------------
# inner iteration machinery
# ---------------------------------------------------------------------------


# Largest cumulative |z| inside one scan block: e^500 and e^-500 stay finite.
_SCAN_CLIP = 500.0
# Longest scan block: bounds the rounding of the in-block cumulative sums.
_SCAN_MAX_BLOCK = 256
# Steps per block when the step factors of the inner grid are built.
_WEIGHT_ROWS = 512
# The Simpson step of integral_residual.
_RESIDUAL_H_T = 0.002
# Ball pairs drawn by measure_lipschitz.
_LIPSCHITZ_PAIRS = 200


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
        # carry each block's end state, already complete, into the next block
        for b in range(1, n_blocks):
            body[b] += self.P[b] * body[b - 1, -1]
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


def _piece_nodes(edges, h_t):
    """Node times of the pieces between successive edges, and each inner edge's join step.

    Piece p has n_p = ceil(length / h_t) steps, at least one.  Its node i is
    i * ((b - a) / n_p) + a and its last node is b itself, which is what
    ``np.linspace(a, b, n_p + 1)`` computes, bit for bit.  The join step of
    an inner edge runs from the last node of one piece to the first of the
    next, at the same time.
    """
    length = np.diff(edges)
    n = np.maximum(1, np.ceil(length / h_t).astype(int))
    piece = np.repeat(np.arange(n.size), n + 1)
    ends = np.cumsum(n + 1)
    i = np.arange(ends[-1]) - (ends - (n + 1))[piece]
    t = i * (length / n)[piece] + edges[:-1][piece]
    t[ends - 1] = edges[1:]
    return t, ends[:-1] - 1


def _build_inner_grid(system, dich: DichotomyData, t, joins) -> _InnerGrid:
    """Step factors of the node times t, whose join steps are ``joins``.

    The step factors are built in blocks of _WEIGHT_ROWS steps, so the
    temporaries of ``_phi_weights`` stay small next to the (M - 1, N) results.
    """
    h = np.diff(t)[:, None]
    dm = np.diff(system.coeff.m.antiderivative(t))[:, None]
    E, Ah, Bh = (np.empty((h.size, system.rates.size)) for _ in range(3))
    z_max = np.zeros(system.rates.size)
    for lo in range(0, h.size, _WEIGHT_ROWS):
        rows = slice(lo, lo + _WEIGHT_ROWS)
        z = system.rates * h[rows] + dm[rows]
        E[rows], _, A, B = _phi_weights(z)
        np.multiply(A, h[rows], out=Ah[rows])
        np.multiply(B, h[rows], out=Bh[rows])
        np.maximum(z_max, np.max(np.abs(z), axis=0), out=z_max)
    stable = ~dich.unstable
    forward = backward = None
    if np.any(stable):
        forward = _BlockedScan(E[:, stable], float(np.max(z_max[stable])))
    inv_E = 1.0 / E[::-1][:, dich.unstable]
    if dich.has_unstable:
        backward = _BlockedScan(inv_E, float(np.max(z_max[dich.unstable])))
    return _InnerGrid(
        t=t,
        Ah=Ah,
        Bh=Bh,
        joins=joins,
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
    if ig.backward is None:  # every mode is stable
        return ig.forward(c)
    out = np.empty_like(f_vals)
    if ig.forward is not None:
        out[:, ig.stable] = ig.forward(c[:, ig.stable])
    # x_i = (x_{i+1} - c_i) / E_i, run left to right on the reversed axis
    unstable = ~ig.stable
    out[::-1, unstable] = ig.backward(-c[::-1][:, unstable] * ig.inv_E)
    return out


@dataclass
class WarmStart:
    """An inner solve's node table and its cuts, each cut tagged with its surface index.

    ``inner_solve`` seeds its Picard iteration from it and then sets
    ``nodes`` to None, so the table is freed, when nothing else holds it,
    before the new grid's step factors are built.
    """

    nodes: Segment | None
    cuts: np.ndarray
    surfaces: np.ndarray


def _warm_states(warm: WarmStart, t, joins, cuts, surfaces, jumps) -> np.ndarray:
    """The Picard seed at the node times t, with join steps ``joins``, from the previous table.

    Each node time goes into the old table through one piecewise linear map
    whose knots are the two grid ends and the cut of every surface that is
    cut in both solves, matched by surface index: a node between a cut and
    its neighbour stays on the same side of that cut's jump in both tables.
    The old table is read at the mapped times in blocks of _WEIGHT_ROWS rows,
    and each post-jump node is re-seeded as its pre-jump node plus the jump.
    """
    _, old, new = np.intersect1d(warm.surfaces, surfaces, assume_unique=True,
                                 return_indices=True)
    t_old = warm.nodes.t
    mapped = np.interp(t, np.r_[t[0], cuts[new], t[-1]],
                       np.r_[t_old[0], warm.cuts[old], t_old[-1]])
    states = np.empty((t.size, jumps.shape[1]))
    for lo in range(0, mapped.size, _WEIGHT_ROWS):
        states[lo : lo + _WEIGHT_ROWS] = warm.nodes.interp(mapped[lo : lo + _WEIGHT_ROWS])
    warm.nodes = None
    states[joins + 1] = states[joins] + jumps
    return states


def buffer_length(system, dich: DichotomyData, cfg: SolverConfig) -> float:
    """The buffer added to each side of the reporting window: the propagation
    length after which the zero boundary state is felt < ``cfg.tail_tol``."""
    rho0 = system.rho / system.lap.eigenvalues[0] ** system.alpha
    f_bound = system.ab.sup_bound() * 2.0 * max(system.rho, 1.0) * max(rho0, 1.0) ** 2
    amp = dich.M * max(f_bound / dich.beta + 1.0, 1.0)
    return max(1.0, float(np.log(amp / cfg.tail_tol) / dich.beta))


def inner_solve(
    system: ImpulseSystemSpec,
    dich: DichotomyData,
    surfaces: np.ndarray,
    y: np.ndarray,
    window,
    cfg: SolverConfig = SolverConfig(),
    warm: WarmStart | None = None,
):
    """Picard iteration for u*(., y) at the frozen impulse times tau_j(y_j).

    ``y`` is a (J, N) array with one pre-jump state row per entry of the
    surface index array ``surfaces``.  The iteration starts from ``warm``,
    the previous solve's table, when one is given (and frees that table),
    else from u = 0.  Returns (trajectory, info).  The trajectory spans the
    extended window (reporting window plus buffers); ``info``, also its
    ``meta``, holds the buffer, the iteration count, the increment history,
    the frozen times ``taus`` (one per row of y) and the cuts with their
    surface indices.
    Raises BallExitError when an iterate leaves U^alpha_rho and
    ConvergenceError when max_inner is hit.
    """
    lap, alpha = system.lap, system.alpha
    buf = buffer_length(system, dich, cfg)
    t_lo, t_hi = float(window[0]) - buf, float(window[1]) + buf

    # frozen times increase with j for y in the ball, so the cuts come sorted
    taus = system.tau(surfaces, y)
    inside = (t_lo < taus) & (taus < t_hi)
    cuts, surfaces = taus[inside], surfaces[inside]
    jumps = system.g(surfaces, y[inside])
    t, joins = _piece_nodes(np.concatenate(([t_lo], cuts, [t_hi])), cfg.h_t)
    # seed before the step factors are built, so they can reuse the old table's memory
    states = None if warm is None else _warm_states(warm, t, joins, cuts, surfaces, jumps)
    ig = _build_inner_grid(system, dich, t, joins)
    if states is None:
        states = np.zeros((t.size, lap.n_modes))
    increments = []
    for it in range(cfg.max_inner):
        new_states = _recursion_pass(ig, system.f(ig.t, states), jumps)
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

    info = {
        "buffer": buf,
        "iterations": len(increments),
        "increments": increments,
        "taus": taus,
        "cuts": cuts,
        "cut_surfaces": surfaces,
    }
    return PiecewiseTrajectory(nodes=Segment(t=ig.t, states=states), meta=info), info


def integral_residual(
    system: ImpulseSystemSpec,
    dich: DichotomyData,
    traj: PiecewiseTrajectory,
    times,
) -> float:
    """Residual of the integral equation at sample times, by direct Simpson.

    Independent of the recursion route: the Green integral of f(., u*(.))
    plus the jump sum is evaluated by composite Simpson quadrature over one
    buffer length on each side and compared with u* itself, in the alpha norm.
    The jump sum runs over every cut of u* (``meta['cuts']``, buffer surfaces
    included), with tau_j and g_j of the pre-jump state there.  The Simpson
    pieces end at the cuts, not at those tau_j: the cuts are the frozen times
    of the last outer step, which may differ from them in the last digits,
    and a piece must not straddle a jump of u*.
    """
    lap, alpha = system.lap, system.alpha
    cuts, surfaces = traj.meta["cuts"], traj.meta["cut_surfaces"]
    pres = traj.eval_many(cuts)
    taus = system.tau(surfaces, pres)
    jump_vecs = system.g(surfaces, pres)
    T_tail = traj.meta["buffer"]

    def f_vals_fn(v):
        return system.f(v, traj.eval_many(v))

    worst = 0.0
    for t in times:
        val = _green_integral_at(lap, system.coeff, dich, t, f_vals_fn, cuts, _RESIDUAL_H_T,
                                 T_tail)
        val += _jump_sum(lap, system.coeff, dich, t, taus, jump_vecs, T_tail)
        worst = max(worst, float(lap.frac_norm(traj.eval(t) - val, alpha)))
    return worst


# ---------------------------------------------------------------------------
# outer iteration
# ---------------------------------------------------------------------------


def poincare_map(
    system: ImpulseSystemSpec,
    dich: DichotomyData,
    surfaces: np.ndarray,
    y: np.ndarray,
    window,
    cfg: SolverConfig = SolverConfig(),
    warm: WarmStart | None = None,
):
    """S(y)_j = u*(tau_j(y_j), y), sampled left-continuously; ``warm`` seeds the inner solve.

    ``y`` and S(y) have one row per entry of ``surfaces``, as in ``inner_solve``.
    Each value is a node row that ``inner_solve`` checked against the ball: the
    pre-jump row at a cut, or an end row for a frozen time outside the span.
    """
    traj, info = inner_solve(system, dich, surfaces, y, window, cfg, warm)
    return traj.eval_many(info["taus"]), traj, info


@dataclass
class OuterResult:
    surfaces: np.ndarray  # the surface indices strictly inside the reporting window
    y_star: np.ndarray  # (J, N): the pre-jump state of each of those surfaces
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
    feel the lattice truncation); the returned y* has the rows of the
    surfaces strictly inside the window only.
    """
    lap, alpha = system.lap, system.alpha
    buf = buffer_length(system, dich, cfg)
    w0, w1 = window
    bt = system.base_times
    near = (bt > w0 - buf) & (bt < w1 + buf)
    dyn = system.indices[near]
    if dyn.size == 0:
        raise SurfaceWindowError("no surfaces near the reporting window")
    inside = ((bt > w0) & (bt < w1))[near]  # the report rows of y
    if not np.any(inside):
        raise SurfaceWindowError("no surfaces inside the reporting window")

    y = np.zeros((dyn.size, lap.n_modes))
    steps, iterations, increments = [], [], []
    warm, bad = None, 0
    for _ in range(cfg.max_outer):
        # the previous (M, N) node table lives on in warm only, which the next
        # inner solve empties once it has seeded from it
        traj = info = None
        y_new, traj, info = poincare_map(system, dich, dyn, y, window, cfg, warm)
        warm = WarmStart(traj.nodes, info["cuts"], info["cut_surfaces"])
        iterations.append(info["iterations"])
        increments.append(info["increments"])
        step = float(np.max(lap.frac_norm(y_new - y, alpha)))
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

    # assemble hit records on the interior and certify hit-time consistency;
    # y, the last map's output, is u* at the frozen times: the pre-jump states
    taus = info["taus"]
    report_js, report_taus, pres = dyn[inside], taus[inside], y[inside]
    posts = pres + system.g(report_js, pres)
    traj.hits = [
        HitRecord(time=t, surface=j, pre=pre, post=post)
        for j, t, pre, post in zip(report_js.tolist(), report_taus.tolist(), pres, posts)
    ]
    ratios = [r for r in map(_max_ratio, increments) if r is not None]
    meta = {
        "buffer": buf,
        "hit_consistency": float(
            np.max(np.abs(report_taus - system.tau(report_js, pres)), initial=0.0)
        ),
        "inner_iterations": iterations,
        "inner_increments": increments,
        "observed_inner_ratio": max(ratios, default=None),
        "observed_S_ratio": _max_ratio(steps),
    }

    # estimate (vot) analogue: sup of |u|_gamma away from the hits
    nodes = traj.nodes
    mask = nearest_distance(nodes.t, np.sort(taus)) >= system.theta / 4.0
    for gamma in (alpha, 0.9):
        meta["sup_norm_%g" % gamma] = float(np.max(lap.frac_norm(nodes.states[mask], gamma)))
    return OuterResult(surfaces=report_js, y_star=pres, trajectory=traj, steps=steps, meta=meta)


# ---------------------------------------------------------------------------
# smallness verification
# ---------------------------------------------------------------------------


def measure_lipschitz(system: ImpulseSystemSpec, rng=None) -> dict:
    """Sampled Lipschitz constants of f, g_j and tau_j over ball pairs.

    Returns the per-ingredient constants and their sum N1 (the theorem uses
    one common constant), plus M0 = max(sup_t |f(t,0)|_0, sup_j |g_j(0)|_1).
    The pair loop only draws, in the per-pair order (a uniform draw is
    lo + (hi - lo) * rng.random(), Generator.uniform's formula); f then runs
    once on all pairs, g once per probe surface and tau once on all pairs.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    lap, alpha, rho, n = system.lap, system.alpha, system.rho, system.lap.n_modes
    w = lap.frac_weights(alpha)
    idx = system.indices
    probe = np.arange(0, idx.size, max(1, idx.size // 8))
    pairs, d, t, k = [], [], [], []
    for _ in range(_LIPSCHITZ_PAIRS):
        x1 = rng.standard_normal(n) / w
        x1 *= (0.1 + (1.0 - 0.1) * rng.random()) * rho / lap.frac_norm(x1, alpha)
        x2 = x1 + rng.standard_normal(n) / w * (1e-3 + (0.3 - 1e-3) * rng.random())
        if lap.frac_norm(x2, alpha) > rho:
            x2 *= rho / lap.frac_norm(x2, alpha)
        dist = lap.frac_norm(x1 - x2, alpha)
        if dist < 1e-12:
            continue
        pairs.append((x1, x2))
        d.append(dist)
        t.append(50.0 * rng.random())
        k.append(rng.integers(probe.size))
    x = np.array(pairs).reshape(-1, 2, n)
    d, t, k = np.array(d), np.array(t), np.array(k, dtype=int)
    f = system.f(np.r_[t, t], np.r_[x[:, 0], x[:, 1]])
    lip_f = np.max(np.linalg.norm(f[: d.size] - f[d.size :], axis=1) / d, initial=0.0)
    # each probe surface's batch ends with the zero state, for g_j(0).  A huge
    # jump datum gives inf norms, without a warning: the constant bundle rejects them
    lip_g = g_star = m0_g = 0.0
    with np.errstate(over="ignore"):
        for i, pos in enumerate(probe):
            sel = k == i
            batch = np.r_[x[sel, 0], x[sel, 1], np.zeros((1, n))]
            g = system.g(idx[pos], batch)
            g1, g2 = np.split(g[:-1], 2)
            lip_g = max(lip_g, np.max(lap.frac_norm(g1 - g2, alpha) / d[sel], initial=0.0))
            g_star = max(g_star, np.max(lap.frac_norm(g1, 1.0), initial=0.0))
            m0_g = max(m0_g, lap.frac_norm(g[-1], 1.0))
    tau = system.tau(idx[probe[k], None], x)
    lip_tau = np.max(np.abs(tau[:, 0] - tau[:, 1]) / d, initial=0.0)
    t0 = np.linspace(0.0, 50.0, 32)
    m0_f = np.max(np.linalg.norm(system.f(t0, np.zeros((t0.size, n))), axis=1))
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
    kb: dict,
    N1: float,
    M0: float,
    rng=None,
) -> dict:
    """The smallness gates of the contraction argument, as the record ``solve-ap`` writes.

    ``N1`` is the K-bundle's own sampled Lipschitz constant, no value the
    instance declares; the larger of it and a fresh sample is gated (the
    record keeps the keys ``N1_declared`` and ``N1_measured``).  ``M0``
    bounds f(., 0) and g_j(0); the ball radius is the system's rho.  L''
    and L' are ``undefined`` without a positive denominator.
    """
    measured = measure_lipschitz(system, rng=rng)
    n1 = max(N1, measured["N1"])
    k_m0 = kb["K"] * M0
    psi1, psi3 = kb["Psi1"], kb["Psi3"]
    psi1_inv = 1.0 / psi1 if psi1 > 0.0 else np.inf
    psi3_inv = 1.0 / psi3 if psi3 > 0.0 else np.inf
    l_dprime = l_prime = "undefined"
    if n1 * psi3 < 1.0:
        l_dprime = kb["K4"] / (1.0 - n1 * psi3)
        if n1 * psi1 < 1.0:
            l_prime = (n1 * kb["Psi2"] * l_dprime + kb["K3"]) / (1.0 - n1 * psi1)
    return {
        "K_M0": float(k_m0),
        "rho": system.rho,
        "N1_declared": N1,
        "N1_measured": measured["N1"],
        "psi1_inv": float(psi1_inv),
        "psi3_inv": float(psi3_inv),
        "check_KM0": "pass" if k_m0 < system.rho else "fail",
        "check_N1": "pass" if n1 < min(psi1_inv, psi3_inv) else "fail",
        "L_dprime": l_dprime,
        "L_prime": l_prime,
    }


# ---------------------------------------------------------------------------
# almost periodicity certification
# ---------------------------------------------------------------------------


# buffer lengths cropped from each end of u* before its almost-periodicity
# analysis: near the span edges the truncated impulse lattice is missing
# neighbors, so the trajectory is not almost periodic there.  One buffer
# length reaches the reporting window edge; the second damps the influence of
# the lattice truncated at that edge below tail_tol.
_AP_CROP_BUFFERS = 2.0


def check_ap_crop(window, buffer) -> tuple:
    """The span (t0, t1) that ``certify_almost_periodicity`` samples after an
    outer solve over ``window`` with this buffer; WindowTooShortError now if
    it would raise it then."""
    span = (float(window[0]) - buffer, float(window[1]) + buffer)
    return cropped_span(span, _AP_CROP_BUFFERS * buffer)


def certify_almost_periodicity(system: ImpulseSystemSpec, result: OuterResult, eps_list) -> dict:
    """The flat ``eps_<e>_*`` almost-periodicity record of y* and u*.

    Hands y*, its hit times and u* to ``almost_periodicity_report``, cropped
    by two buffer lengths at each end.
    """
    traj = result.trajectory
    return almost_periodicity_report(
        result.y_star, int(result.surfaces[0]), np.sort(traj.hit_times()), traj.eval_many,
        (traj.t_start, traj.t_end), _AP_CROP_BUFFERS * result.meta["buffer"], eps_list,
        system.lap.frac_weights(system.alpha),
    )
