"""Reference implementations that only the tests use.

Each function here either restates a closed form of the package in its
direct form (a dense scan, a per-operator apply) or evaluates a quantity by
a route that shares no discretisation with the solver, so the tests can
check the package against it:

* ``shift_sup_scan`` — a*(h) = sup_s |m(s) - m(s+h)| by a dense scan, the
  check of the closed form ``TrigSum.shift_sup``;
* ``semigroup_apply``, ``evolution_factors``, ``evolution_apply``,
  ``green_factors`` and ``green_apply`` — e^{-At}, U(t, s) and G(t, s)
  applied to a state;
* ``fit_continuity_constant`` — C in |(U(t+d, t) - I)x|_alpha <= C
  d^{1-alpha} |x|_1, fitted on samples;
* ``fit_dichotomy_by_sample``, ``measure_lipschitz_by_pair`` and
  ``table_by_value`` — the per-sample loops of ``evolution.fit_dichotomy``
  and ``solver.measure_lipschitz`` and the per-value table formatter of
  ``records.write_table``, the references of their batched forms;
* ``samples_in_physical_space`` — the beating certificate's sample states
  summed on the grid and then projected, the reference of their
  coefficient-space build in ``impulsive._nonnegative_samples``;
* ``green_shift_defect`` — the shift defect of the Green function against
  its fitted bound;
* ``bounded_solution`` — the bounded solution of the linear impulsive
  system by composite-Simpson quadrature of its Green representation,
  independent of the recursion route of ``solver.inner_solve``;
* ``segment_residual`` and ``_etd2_step`` — the flow residual of a
  simulated segment, from single exponential trapezoid steps;
* ``SegmentedTrajectory``, ``interp_by_mode`` and ``pieces`` — the
  per-segment trajectory rule (one ``np.interp`` per mode on the first
  segment that ends at or after a time), the reference of the node-table
  rule ``PiecewiseTrajectory.eval_many``, and the node table cut back into
  pieces at its repeated times.
"""

from dataclasses import dataclass

import numpy as np

from implab.evolution import (
    DichotomyData,
    _green_factor,
    _green_integral_at,
    _jump_sum,
    _safe_exp,
    psi,
)
from implab.impulsive import ImpulseSystemSpec, _etd2_update, _phi_weights
from implab.trajectory import PiecewiseTrajectory, Segment


def shift_sup_scan(m, h, t_span=200.0, n=4096) -> float:
    """sup_s |m(s) - m(s+h)| approximated by a dense scan of [0, t_span].

    The difference is again a trig sum, so the scan window only needs to
    be long compared with the slowest beat present.
    """
    if not m.terms:
        return 0.0
    s = np.linspace(0.0, t_span, n)
    return float(np.max(np.abs(m(s) - m(s + h))))


def semigroup_apply(lap, t: float, x) -> np.ndarray:
    """e^{-At} x, exact per mode."""
    if t < 0.0:
        raise ValueError("semigroup is defined for t >= 0 only")
    x = np.asarray(x, dtype=float)
    return x * np.exp(-lap.eigenvalues * t)


def evolution_factors(lap, coeff, s, t) -> np.ndarray:
    """Diagonal of U(t, s) (any order of arguments; exact per mode)."""
    rates = coeff.rates(lap)
    return _safe_exp(-(rates * (t - s) + coeff.m.integral(s, t)))


def fit_continuity_constant(
    lap, coeff, alpha: float, rng=None, n_samples: int = 200, slack: float = 0.05,
    d_max: float = 2.0,
) -> float:
    """Fit C in |(U(t+d, t) - I)x|_alpha <= C d^{1-alpha} |x|_1 on samples."""
    rng = np.random.default_rng(0) if rng is None else rng
    lam_a = lap.frac_weights(alpha)
    lam_1 = lap.frac_weights(1.0)
    best = 0.0
    for _ in range(n_samples):
        t = rng.uniform(0.0, 20.0)
        d = float(np.exp(rng.uniform(np.log(1e-4), np.log(d_max))))
        fac = evolution_factors(lap, coeff, t, t + d)
        ratio = np.max(lam_a * np.abs(fac - 1.0) / lam_1) / d ** (1.0 - alpha)
        best = max(best, float(ratio))
    return (1.0 + slack) * max(best, 1e-12)


def evolution_apply(lap, coeff, t, s, x) -> np.ndarray:
    """U(t, s) x for t >= s (forward family)."""
    if t < s:
        raise ValueError("evolution family is forward only (t >= s)")
    return np.asarray(x, dtype=float) * evolution_factors(lap, coeff, s, t)


def green_factors(lap, coeff, dich: DichotomyData, t, s) -> np.ndarray:
    """Diagonal of the Green function G(t, s) (see ``evolution._green_factor``)."""
    return _green_factor(coeff.rates(lap), coeff.m, dich.unstable, t, s)


def green_apply(lap, coeff, dich, t, s, x) -> np.ndarray:
    return np.asarray(x, dtype=float) * green_factors(lap, coeff, dich, t, s)


def green_shift_defect(lap, coeff, dich, h, t, tau, x):
    """Directly computed |(G(t+h, tau+h) - G(t, tau)) x|_alpha and its fitted bound.

    The bound is ``M2 e^{-beta1 |t-tau|} psi_alpha(t-tau) a*(h) |x|_0`` with
    ``a*(h)`` the closed form ``TrigSum.shift_sup`` that ``fit_dichotomy``
    fits M2 with.
    """
    if t == tau:
        raise ValueError("shift defect requires t != tau")
    x = np.asarray(x, dtype=float)
    d1 = green_factors(lap, coeff, dich, t + h, tau + h)
    d0 = green_factors(lap, coeff, dich, t, tau)
    defect = lap.frac_norm((d1 - d0) * x, dich.alpha)
    a_star = coeff.m.shift_sup(h)
    bound = (
        dich.M2
        * np.exp(-dich.beta1 * abs(t - tau))
        * psi(dich.alpha, t - tau)
        * a_star
        * lap.frac_norm(x, 0.0)
    )
    return float(defect), float(bound)


def fit_dichotomy_by_sample(
    lap, coeff, alpha=0.5, rng=None, n_samples=400, slack=0.05, d_max=20.0
) -> DichotomyData:
    """``evolution.fit_dichotomy`` with one Green-factor call per sample."""
    rng = np.random.default_rng(0) if rng is None else rng
    mu = coeff.mean_exponents(lap)
    unstable = mu < 0.0
    beta = (1.0 - slack) * float(np.min(np.abs(mu)))
    rates = coeff.rates(lap)
    lam_a = lap.frac_weights(alpha)

    m_fit = 1.0
    m1_fit = 1.0
    for _ in range(n_samples):
        s = rng.uniform(0.0, 40.0)
        d = float(np.exp(rng.uniform(np.log(1e-3), np.log(d_max))))
        for sign in (1.0, -1.0):
            t = s + sign * d
            fac = np.abs(_green_factor(rates, coeff.m, unstable, t, s))
            if not np.any(fac > 0.0):
                continue
            decay = np.exp(-beta * d)
            m_fit = max(m_fit, float(np.max(fac)) / decay)
            ratio = np.max(lam_a * fac) / (decay * psi(alpha, t - s))
            m1_fit = max(m1_fit, float(ratio))

    M = (1.0 + slack) * m_fit
    M1 = max(M, (1.0 + slack) * m1_fit)

    beta1 = 0.5 * beta
    m2_fit = M
    for _ in range(n_samples):
        h = rng.uniform(-5.0, 5.0)
        a_star = coeff.m.shift_sup(h)
        if a_star < 1e-14:
            continue
        t = rng.uniform(-20.0, 20.0)
        tau = t + rng.choice([-1.0, 1.0]) * np.exp(rng.uniform(np.log(1e-2), np.log(10.0)))
        fac1 = _green_factor(rates, coeff.m, unstable, t + h, tau + h)
        fac0 = _green_factor(rates, coeff.m, unstable, t, tau)
        defect = np.max(lam_a * np.abs(fac1 - fac0))
        denom = np.exp(-beta1 * abs(t - tau)) * psi(alpha, t - tau) * a_star
        m2_fit = max(m2_fit, float(defect) / denom)
    M2 = (1.0 + slack) * m2_fit

    return DichotomyData(
        unstable=unstable, M=M, beta=beta, M1=M1, M2=M2, beta1=beta1, alpha=alpha
    )


def measure_lipschitz_by_pair(system: ImpulseSystemSpec, rng=None, n_pairs: int = 200) -> dict:
    """``solver.measure_lipschitz`` with single-state f, g and tau calls per pair."""
    rng = np.random.default_rng(0) if rng is None else rng
    lap, alpha, rho = system.lap, system.alpha, system.rho
    w = lap.frac_weights(alpha)
    idx = system.surfaces.indices()
    probe_js = idx[:: max(1, idx.size // 8)]
    lip_f = lip_g = lip_tau = g_star = 0.0
    for _ in range(n_pairs):
        x1 = rng.standard_normal(lap.n_modes) / w
        x1 *= rng.uniform(0.1, 1.0) * rho / lap.frac_norm(x1, alpha)
        x2 = x1 + rng.standard_normal(lap.n_modes) / w * rng.uniform(1e-3, 0.3)
        if lap.frac_norm(x2, alpha) > rho:
            x2 *= rho / lap.frac_norm(x2, alpha)
        d = lap.frac_norm(x1 - x2, alpha)
        if d < 1e-12:
            continue
        t = rng.uniform(0.0, 50.0)
        df = np.linalg.norm(system.f(t, x1) - system.f(t, x2))
        lip_f = max(lip_f, df / d)
        j = probe_js[rng.integers(probe_js.size)]
        g1 = system.g(j, x1)
        dg = lap.frac_norm(g1 - system.g(j, x2), alpha)
        lip_g = max(lip_g, dg / d)
        g_star = max(g_star, float(lap.frac_norm(g1, 1.0)))
        dtau = abs(system.tau(j, x1) - system.tau(j, x2))
        lip_tau = max(lip_tau, dtau / d)
    m0_f = max(
        float(np.linalg.norm(system.f(t, np.zeros(lap.n_modes))))
        for t in np.linspace(0.0, 50.0, 32)
    )
    m0_g = max(
        float(lap.frac_norm(system.g(j, np.zeros(lap.n_modes)), 1.0)) for j in probe_js
    )
    return {
        "lip_f": lip_f,
        "lip_g": lip_g,
        "lip_tau": lip_tau,
        "N1": lip_f + lip_g + lip_tau,
        "M0": max(m0_f, m0_g),
        "g_star": max(g_star, m0_g),
    }


def samples_in_physical_space(system: ImpulseSystemSpec, n_samples, rng) -> np.ndarray:
    """The certificate's samples: u = sum_m w_m sin^2(m pi xi / l) on the grid, projected.

    The same draws, rejection rules and scaling as ``_nonnegative_samples``.
    """
    lap = system.lap
    raw = rng.random((n_samples, 5))
    raw = raw[np.sum(raw[:, :4], axis=1) >= 1e-8]
    u = np.zeros((raw.shape[0], lap.xi.size))
    for m in range(1, 5):
        u += raw[:, m - 1, None] * np.sin(m * np.pi * lap.xi / lap.l) ** 2
    x = lap.project(u)
    nrm = lap.frac_norm(x, system.alpha)
    keep = nrm >= 1e-12
    x, nrm, r = x[keep], nrm[keep], raw[keep, 4]
    rho = system.rho
    scale = np.where(r < 0.5, rho / nrm, rho * (0.1 + 1.8 * (r - 0.5)) / nrm)
    return np.minimum(scale, rho / nrm)[:, None] * x


def table_by_value(index, values) -> str:
    """The text of ``records.write_table``, formatted one value at a time."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    index = np.asarray(index)
    int_index = np.issubdtype(index.dtype, np.integer)
    lines = []
    for i, row in zip(index, values):
        head = "%d" % i if int_index else "%.17g" % i
        lines.append(head + " " + " ".join("%.17g" % v for v in row) + "\n")
    return "".join(lines)


def bounded_solution(
    lap,
    coeff,
    dich: DichotomyData,
    forcing,
    jumps,
    window,
    h_t: float = 0.005,
    tail_tol: float = 1e-10,
) -> PiecewiseTrajectory:
    """Unique bounded solution of the linear impulsive system on ``window``.

    ``forcing`` is a callable t -> coefficient vector; ``jumps`` is a list
    of (time, jump-vector) pairs.  The improper Green integral

        u0(t) = int_R G(t, v) f(v) dv + sum_j G(t, tau_j) g_j

    is truncated at ``T_tail`` derived from the fitted (M, beta) so the
    neglected tail is below ``tail_tol``; the bound and T_tail are stored in
    ``meta``.
    """
    t0, t1 = float(window[0]), float(window[1])

    def f_eval(v):
        return np.stack([np.asarray(forcing(vi), dtype=float) for vi in np.atleast_1d(v)])

    # a-priori tail bound
    probe = np.linspace(t0, t1, 64)
    sup_f = float(np.max([np.linalg.norm(f_eval(t)[0]) for t in probe]))
    sum_g = float(sum(np.linalg.norm(np.asarray(g, dtype=float)) for _, g in jumps))
    amp = dich.M * (sup_f / dich.beta + sum_g)
    T_tail = max(1.0, np.log(max(amp, tail_tol) / tail_tol) / dich.beta)
    tail_bound = amp * np.exp(-dich.beta * T_tail)

    jumps = sorted(((float(tj), np.asarray(g, dtype=float)) for tj, g in jumps), key=lambda p: p[0])
    jump_times = np.array([tj for tj, _ in jumps])
    jump_vecs = np.array([g for _, g in jumps]).reshape(len(jumps), lap.n_modes)

    def value_at(t, right=False):
        integral = _green_integral_at(lap, coeff, dich, t, f_eval, jump_times, h_t, T_tail)
        return integral + _jump_sum(lap, coeff, dich, t, jump_times, jump_vecs, T_tail, right)

    # output grid split at interior jump times
    cuts = [t0] + [tj for tj in jump_times if t0 < tj < t1] + [t1]
    segments = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        n = max(1, int(np.ceil((b - a) / h_t)))
        t_nodes = np.linspace(a, b, n + 1)
        states = np.stack([value_at(t) for t in t_nodes])
        segments.append(Segment(t=t_nodes, states=states))

    traj = SegmentedTrajectory(segments).table()
    traj.meta.update({"T_tail": T_tail, "tail_bound": tail_bound, "h_t": h_t})

    # certify the jump condition at interior jump times
    jump_defects = [
        float(np.linalg.norm(value_at(tj, right=True) - value_at(tj) - g))
        for tj, g in jumps
        if t0 < tj < t1
    ]
    traj.meta["jump_defect"] = max(jump_defects) if jump_defects else 0.0
    return traj


def _etd2_step(system, t, h, x):
    """One exponential trapezoid step from (t, x) to t + h."""
    z = system.rates * h + system.coeff.m.integral(t, t + h)
    return _etd2_update(system, t, h, x, system.f(t, x), _phi_weights(z))


def segment_residual(system: ImpulseSystemSpec, seg: Segment, probe: float = 1e-5) -> float:
    """max over interior nodes of |du/dt + (A + A_1(t))u - f(t, u)|_0.

    du/dt is a centered difference over a refined probe step: the dense
    output is locally re-integrated +-probe around each node, because the
    accepted node spacing (chosen by the nonlinearity error only; the stiff
    linear part propagates exactly) is far too coarse to differentiate the
    fast modes directly.
    """
    t, u = seg.t, seg.states
    if t.size < 3:
        return 0.0
    m = system.coeff.m
    best = 0.0
    for i in range(1, t.size - 1):
        fwd = _etd2_step(system, t[i], probe, u[i])
        bwd = _etd2_step(system, t[i], -probe, u[i])
        du = (fwd - bwd) / (2.0 * probe)
        res = du + (system.rates + m(t[i])) * u[i] - system.f(t[i], u[i])
        best = max(best, float(np.linalg.norm(res)))
    return best


# ---------------------------------------------------------------------------
# the per-segment trajectory rule
# ---------------------------------------------------------------------------


def interp_by_mode(seg: Segment, t) -> np.ndarray:
    """One np.interp per mode on the segment's nodes."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty((t.size, seg.states.shape[1]))
    for j in range(seg.states.shape[1]):
        out[:, j] = np.interp(t, seg.t, seg.states[:, j])
    return out


@dataclass
class SegmentedTrajectory:
    """A trajectory as a list of segments on strictly increasing nodes.

    Each segment opens, with the post-jump state, at the time the previous
    one closes.
    """

    segments: list

    def all_nodes(self):
        """Concatenated (t, states) over all segments, repeating the cut times."""
        t = np.concatenate([seg.t for seg in self.segments])
        s = np.concatenate([seg.states for seg in self.segments])
        return t, s

    def table(self) -> PiecewiseTrajectory:
        """The same trajectory as one node table."""
        return PiecewiseTrajectory(nodes=Segment(*self.all_nodes()))

    def eval(self, t: float) -> np.ndarray:
        """Linear scan for the first segment that ends at or after t.

        Where the segments tile the span, that is the one whose span
        (start, end] holds t, so a cut time gives the pre-jump value; later
        times go to the last segment.
        """
        for seg in self.segments:
            if t <= seg.t[-1]:
                return interp_by_mode(seg, t)[0]
        return interp_by_mode(self.segments[-1], t)[0]

    def eval_many(self, times) -> np.ndarray:
        return np.stack([self.eval(t) for t in np.atleast_1d(times)])


def pieces(traj: PiecewiseTrajectory) -> list:
    """The node table cut at its repeated times, one Segment per piece."""
    t, s = traj.nodes.t, traj.nodes.states
    cut = np.flatnonzero(np.diff(t) == 0.0) + 1
    return [Segment(t=a, states=b) for a, b in zip(np.split(t, cut), np.split(s, cut))]
