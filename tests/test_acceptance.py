"""Acceptance criteria, one test per criterion.

Each test prints exactly one ``ACCEPTANCE n ...: PASS/FAIL`` line (written
to the unbuffered real stdout so it survives pytest capture) and asserts
the collected sub-checks.  Scale: l = 1, N = 16 modes, 128-point xi-grid,
up to 50 impulse surfaces.
"""

import sys

import numpy as np
from scipy import integrate

from implab.ap_analysis import StronglyAPSet, eps_almost_periods, harmonize
from implab.evolution import (
    LinearCoefficient,
    fit_dichotomy,
    k_bundle,
    psi,
)
from implab.impulsive import (
    JumpSpec,
    beating_certificate,
    simulate,
    step_segment,
)
from implab.solver import (
    SolverConfig,
    integral_residual,
    measure_lipschitz,
    outer_solve,
    poincare_map,
    verify_smallness,
)
from implab.spectral import DirichletLaplacian
from implab.trig import TrigSum

from oracles import (
    _etd2_step,
    bounded_solution,
    evolution_factors,
    fit_shift_defect,
    green_factors,
    green_shift_defect,
    pieces,
)
from systems import (
    IndexedOffsetJumps,
    ShiftedCoefficient,
    certified_logistic,
    make_system,
    rank1_jumps,
)

N = 16
ALPHA = 0.5
RHO = 1.0


def finish(num, name, failures):
    ok = not failures
    line = "ACCEPTANCE %d %s: %s" % (num, name, "PASS" if ok else "FAIL")
    print(line)
    if sys.stdout is not sys.__stdout__ and sys.__stdout__ is not None:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, "; ".join(failures)


def check(failures, cond, message):
    if not cond:
        failures.append(message)


def e1(c):
    x = np.zeros(N)
    x[0] = c
    return x


# ---------------------------------------------------------------------------
# 1. beta_0 threshold, beating certificate, 50-surface simulation
# ---------------------------------------------------------------------------


def test_criterion_1_beta0_and_beating():
    failures = []
    # plug-in: l = 1, rho = 1, b == 0 gives beta0 = 0.5/((1+0)(1+1)) = 0.25
    sys_b0 = make_system(n_modes=N, a=TrigSum(0.5, ((0.2, 1.0, 0.0),)), b=TrigSum(),
                         window=(1, 10), slopes=TrigSum(0.0), jumps=JumpSpec())
    (cert0,) = beating_certificate(sys_b0, [1], 8, [np.random.default_rng(201)])
    check(failures, cert0["beta0"] == 0.25, "beta0 plug-in != 0.25 (got %r)" % cert0["beta0"])

    # b_j = -0.2 certificate over 512 samples
    sys1 = certified_logistic((1, 50), n_modes=N)
    (cert,) = beating_certificate(sys1, [1], 512, [np.random.default_rng(202)])
    check(failures, cert["n_samples"] == 512, "certificate used %d samples" % cert["n_samples"])
    check(failures, cert["theta_check"] <= 1e-10, "theta_j > 0 on a sample")
    check(failures, cert["P_check"] < 1.0, "max P >= 1 (got %g)" % cert["P_check"])
    check(failures, cert["verdict"] == "pass", "certificate verdict is fail")

    # 50-surface simulation from non-negative data: <= 1 hit per surface
    x0 = sys1.lap.project(lambda s: 0.3 * np.sin(np.pi * s) ** 2)
    traj = simulate(sys1, x0, 0.5, 50.5, seg_tol=1e-8)
    counts = traj.meta["hit_counts"]
    check(failures, len(traj.hits) == 50, "expected 50 hits, got %d" % len(traj.hits))
    check(failures, max(counts.values()) <= 1, "a surface was hit twice")
    finish(1, "beta0 threshold and beating exclusion", failures)


# ---------------------------------------------------------------------------
# 2. linear oracle equivalence: recursion route vs Simpson route
# ---------------------------------------------------------------------------


def test_criterion_2_linear_oracle_equivalence():
    failures = []
    d = e1(0.02)

    def profile(t):
        out = np.zeros((t.size, N))
        out[:, 0] = 0.3 * np.cos(0.7 * t)
        out[:, 1] = 0.1 * np.sin(1.3 * t)
        return out

    sys0 = make_system(n_modes=N, a=TrigSum(0.5, ((0.2, 1.0, 0.0),)), b=TrigSum(),
                       window=(0, 6), slopes=TrigSum(0.0), jumps=JumpSpec(d=d),
                       f_override=profile)
    dich = fit_dichotomy(sys0.lap, sys0.coeff, rng=np.random.default_rng(211))
    cfg = SolverConfig(h_t=0.002)
    from implab.solver import inner_solve

    traj, info = inner_solve(sys0, dich, np.arange(7), np.zeros((7, N)), (0.0, 6.0), cfg)
    jumps = [(float(t), d) for t in info["taus"]]
    ref = bounded_solution(sys0.lap, sys0.coeff, dich, profile, jumps,
                           window=(0.0, 6.0), h_t=0.002)
    probe = np.linspace(0.05, 5.95, 41)
    disc = max(sys0.lap.frac_norm(traj.eval(t) - ref.eval(t), ALPHA) for t in probe)
    check(failures, disc < 1e-6, "route discrepancy %g >= 1e-6" % disc)
    check(failures, ref.meta["jump_defect"] < 1e-10,
          "Simpson route jump defect %g" % ref.meta["jump_defect"])
    worst_jump = 0.0
    for tj, g in jumps:
        pre = traj.eval(tj)
        seg_start = [s for s in pieces(traj) if abs(s.t[0] - tj) < 1e-9]
        if not seg_start:
            failures.append("recursion route lost the jump at t=%g" % tj)
            continue
        worst_jump = max(worst_jump, float(np.max(np.abs(seg_start[0].states[0] - pre - g))))
    check(failures, worst_jump < 1e-10, "recursion jump defect %g" % worst_jump)
    finish(2, "linear oracle equivalence (recursion vs Simpson)", failures)


# ---------------------------------------------------------------------------
# 3. direct-integration oracle: 8x finer reference
# ---------------------------------------------------------------------------


def test_criterion_3_segment_oracle():
    failures = []
    # near-neutral first mode (mean a close to lambda_1) so the relative
    # error is measured against a solution that does not decay away
    sys0 = make_system(n_modes=N,
                       a=TrigSum(9.0, ((0.2, 1.0, 0.0), (0.1, np.sqrt(2.0), 0.3))),
                       b=TrigSum(0.1, ((0.05, np.sqrt(2.0), 0.0),)),
                       window=(1, 10), slopes=TrigSum(0.0), jumps=JumpSpec())
    rng = np.random.default_rng(221)
    w = sys0.lap.frac_weights(ALPHA)
    x0 = rng.standard_normal(N) / w
    x0 *= 0.4 / sys0.lap.frac_norm(x0, ALPHA)
    seg = step_segment(sys0, x0, 0.2, 0.95, seg_tol=1e-10)
    u = np.asarray(x0, dtype=float)
    worst = 0.0
    for i in range(seg.t.size - 1):
        h = (seg.t[i + 1] - seg.t[i]) / 8.0
        for k in range(8):
            u = _etd2_step(sys0, seg.t[i] + k * h, h, u)
        rel = np.linalg.norm(seg.states[i + 1] - u) / np.linalg.norm(u)
        worst = max(worst, rel)
    check(failures, worst < 1e-6, "relative error vs 8x reference %g >= 1e-6" % worst)
    finish(3, "direct-integration oracle (8x finer reference)", failures)


# ---------------------------------------------------------------------------
# 4. dichotomy and Green estimates
# ---------------------------------------------------------------------------


def test_criterion_4_dichotomy_and_green():
    failures = []
    lap4 = DirichletLaplacian(l=1.0, n_modes=4)
    coeff = LinearCoefficient(
        m=TrigSum(0.3, ((0.2, 1.0, 0.1), (0.1, np.sqrt(2.0), -0.4)))
    )
    rng_fit = np.random.default_rng(231)
    dich = fit_dichotomy(lap4, coeff, alpha=ALPHA, rng=rng_fit)
    lam_a = lap4.frac_weights(ALPHA)
    rng = np.random.default_rng(232)
    viol = 0
    for _ in range(1000):
        s = rng.uniform(0.0, 40.0)
        d = float(np.exp(rng.uniform(np.log(1e-3), np.log(20.0))))
        fac = evolution_factors(lap4, coeff, s, s + d)
        if np.max(fac) > dich.M * np.exp(-dich.beta * d) * (1.0 + 1e-12):
            viol += 1
        if np.max(lam_a * fac) > dich.M1 * psi(ALPHA, d) * np.exp(-dich.beta * d) * (1.0 + 1e-12):
            viol += 1
    check(failures, viol == 0, "%d violations of Definition 2.2(iii)" % viol)

    # backward (unstable) branch on a shifted instance
    sigma = np.zeros(4)
    sigma[0] = -lap4.eigenvalues[0] - 2.0
    coeff_u = ShiftedCoefficient(m=TrigSum(0.0, ((0.3, 1.0, 0.0),)), per_mode_shift=sigma)
    dich_u = fit_dichotomy(lap4, coeff_u, alpha=ALPHA, rng=np.random.default_rng(233))
    viol = 0
    for _ in range(1000):
        s = rng.uniform(0.0, 40.0)
        d = float(np.exp(rng.uniform(np.log(1e-3), np.log(20.0))))
        fac = np.abs(green_factors(lap4, coeff_u, dich_u, s - d, s))
        if np.max(fac) > dich_u.M * np.exp(-dich_u.beta * d) * (1.0 + 1e-12):
            viol += 1
    check(failures, viol == 0, "%d violations of Definition 2.2(iv)" % viol)

    # Lemma 2.5 shift inequality with (M2, beta1) fitted on the rest of the fit's stream
    M2, beta1 = fit_shift_defect(lap4, coeff, dich, ALPHA, rng=rng_fit)
    viol = 0
    for _ in range(1000):
        h = rng.uniform(-5.0, 5.0)
        t = rng.uniform(-20.0, 20.0)
        tau = t + rng.choice([-1.0, 1.0]) * np.exp(rng.uniform(np.log(1e-2), np.log(10.0)))
        x = rng.standard_normal(4)
        defect, bound = green_shift_defect(lap4, coeff, dich, M2, beta1, ALPHA, h, t, tau, x)
        if defect > bound * (1.0 + 1e-10):
            viol += 1
    check(failures, viol == 0, "%d violations of the Lemma 2.5 shift bound" % viol)

    # Green identity by quadrature, stable and unstable instance (N = 4)
    m0, a, wf, p = 0.3, 0.2, 1.3, 0.4
    coeff_s = LinearCoefficient(m=TrigSum(m0, ((a, wf, p),)))
    dich_s = fit_dichotomy(lap4, coeff_s, rng=np.random.default_rng(234))

    def f_mode(v):
        return np.cos(0.7 * v)

    def forcing(t):
        out = np.zeros((t.size, 4))
        out[:, 0] = f_mode(t)
        return out

    traj = bounded_solution(lap4, coeff_s, dich_s, forcing, [], window=(0.0, 0.5),
                            h_t=0.002, tail_tol=1e-12)
    lam1 = lap4.eigenvalues[0]

    def kernel_s(v, t):
        intm = m0 * (t - v) + (a / wf) * (np.sin(wf * t + p) - np.sin(wf * v + p))
        return np.exp(-(lam1 * (t - v) + intm)) * f_mode(v)

    worst = 0.0
    for t in (0.0, 0.25, 0.5):
        ref, _ = integrate.quad(kernel_s, t - 8.0, t, args=(t,), epsabs=1e-12,
                                epsrel=1e-12, limit=400)
        worst = max(worst, abs(traj.eval(t)[0] - ref))
    check(failures, worst < 1e-6, "stable Green quadrature defect %g" % worst)

    m0u, au = 0.0, 0.3
    dich_u2 = fit_dichotomy(lap4, coeff_u, rng=np.random.default_rng(235))
    traj_u = bounded_solution(lap4, coeff_u, dich_u2, forcing, [], window=(0.0, 0.5),
                              h_t=0.002, tail_tol=1e-12)
    rate1 = lam1 + sigma[0]  # = -2: mode 1 unstable

    def kernel_u(v, t):
        intm = m0u * (t - v) + au * (np.sin(t) - np.sin(v))
        return np.exp(-(rate1 * (t - v) + intm)) * f_mode(v)

    worst = 0.0
    for t in (0.0, 0.25, 0.5):
        # backward branch: u(t) = -int_t^inf U(t,v) P f(v) dv
        ref, _ = integrate.quad(kernel_u, t, t + 25.0, args=(t,), epsabs=1e-12,
                                epsrel=1e-12, limit=400)
        worst = max(worst, abs(traj_u.eval(t)[0] + ref))
    check(failures, worst < 1e-6, "unstable Green quadrature defect %g" % worst)
    finish(4, "dichotomy and Green estimates", failures)


# ---------------------------------------------------------------------------
# 5. contraction behavior on a compliant instance
# ---------------------------------------------------------------------------


def test_criterion_5_contraction():
    failures = []
    sys0 = make_system(n_modes=N, a=TrigSum(0.5, ((0.2, 1.0, 0.0),)),
                       b=TrigSum(0.1, ((0.05, np.sqrt(2.0), 0.0),)),
                       window=(0, 8), slopes=TrigSum(0.0),
                       jumps=rank1_jumps(N, "tanh", 0.02, 0.02))
    dich = fit_dichotomy(sys0.lap, sys0.coeff, rng=np.random.default_rng(241))
    theta = sys0.theta
    gc = sys0.gap_constant
    meas = measure_lipschitz(sys0, rng=np.random.default_rng(242))
    kb = k_bundle(ALPHA, dich, theta, gc["value"], g_star=meas["g_star"],
                  M_star=meas["M0"] + meas["N1"] * RHO)
    rep = verify_smallness(sys0, kb, meas["N1"], meas["M0"], rng=np.random.default_rng(243))
    check(failures, rep["check_KM0"] == rep["check_N1"] == "pass",
          "verify_smallness gates fail on the compliant instance")

    cfg = SolverConfig(h_t=0.005)
    res = outer_solve(sys0, dich, (0.0, 6.0), cfg=cfg)
    check(failures, res.steps[-1] < 1e-8, "outer step %g >= 1e-8" % res.steps[-1])

    # inner Picard increment ratios of every inner solve vs the theoretical
    # contraction factor
    n1 = max(meas["N1"], rep["N1_measured"])
    bound = kb["K"] * n1 * 1.05
    ratios = [inc[i] / inc[i - 1] for inc in res.meta["inner_increments"]
              for i in range(1, len(inc)) if inc[i - 1] > 1e-12]
    check(failures, ratios and max(ratios) <= bound,
          "inner ratio %g > K N1 bound %g" % (max(ratios, default=np.inf), bound))

    # measured S-map contraction over 20 probe pairs
    js, y = np.arange(9), np.zeros((9, N))

    def dist(a, b):
        return float(np.max(sys0.lap.frac_norm(a - b, ALPHA)))

    for _ in range(40):
        y_new, _, _ = poincare_map(sys0, dich, js, y, (0.0, 6.0), cfg)
        step = dist(y_new, y)
        y = y_new
        if step < 1e-10:
            break
    s_y, _, _ = poincare_map(sys0, dich, js, y, (0.0, 6.0), cfg)
    defect = dist(s_y, y)
    check(failures, defect < 1e-8, "|S(y*) - y*| = %g >= 1e-8" % defect)

    rng = np.random.default_rng(244)
    w = sys0.lap.frac_weights(ALPHA)
    worst_ratio = 0.0
    for _ in range(20):
        p1 = rng.standard_normal((9, N)) / w * 0.05
        p2 = p1 + rng.standard_normal((9, N)) / w * 0.02
        ya, yb = y + p1, y + p2
        sa, _, _ = poincare_map(sys0, dich, js, ya, (0.0, 6.0), cfg)
        sb, _, _ = poincare_map(sys0, dich, js, yb, (0.0, 6.0), cfg)
        worst_ratio = max(worst_ratio, dist(sa, sb) / dist(ya, yb))
    check(failures, worst_ratio < 1.0, "S-map ratio %g >= 1" % worst_ratio)

    resid = integral_residual(sys0, dich, res.trajectory, (2.5, 3.0, 3.5))
    check(failures, resid < 1e-6, "integral residual %g >= 1e-6" % resid)
    finish(5, "contraction behavior (inner, S-map, fixed point)", failures)


# ---------------------------------------------------------------------------
# 6. degenerate and reduction cases
# ---------------------------------------------------------------------------


def test_criterion_6_degenerate_and_reduction():
    failures = []
    # zero data
    sys_z = make_system(n_modes=N, a=TrigSum(0.5, ((0.2, 1.0, 0.0),)), b=TrigSum(),
                        window=(0, 8), slopes=TrigSum(0.0), jumps=JumpSpec())
    dich_z = fit_dichotomy(sys_z.lap, sys_z.coeff, rng=np.random.default_rng(251))
    res_z = outer_solve(sys_z, dich_z, (0.0, 6.0), cfg=SolverConfig(h_t=0.005))
    states = res_z.trajectory.nodes.states
    check(failures, np.max(np.abs(res_z.y_star)) == 0.0, "zero data: y* != 0")
    check(failures, np.max(np.abs(states)) == 0.0, "zero data: u* != 0")

    # fully periodic data (common time period 2, q = 4 surfaces per period)
    q = 4
    amp = TrigSum(1.0, ((0.3, 2.0 * np.pi / q, 0.0),))
    left = np.zeros((1, N))
    left[0, 0] = 1.0
    jumps_p = JumpSpec(left=left, right=left.copy(), nonlinearity="tanh",
                       amp=amp, d=e1(0.2))
    sys_p = make_system(n_modes=N, a=TrigSum(0.5, ((0.2, np.pi, 0.0),)),
                        b=TrigSum(0.1, ((0.05, np.pi, 0.2),)),
                        base_gap=0.5, window=(0, 24), slopes=TrigSum(0.0),
                        jumps=jumps_p)
    dich_p = fit_dichotomy(sys_p.lap, sys_p.coeff, rng=np.random.default_rng(252))
    res_p = outer_solve(sys_p, dich_p, (2.0, 10.0), cfg=SolverConfig(h_t=0.005))
    yv = res_p.y_star
    check(failures, np.max(np.abs(yv)) > 1e-4, "periodic y* trivially small")
    shift_dev = np.max(np.abs(yv[q:] - yv[:-q]))
    check(failures, shift_dev < 1e-7, "periodic reduction defect %g >= 1e-7" % shift_dev)

    # quasi-periodic data (frequencies 1 and sqrt 2): eps report stability
    d_amp = TrigSum(0.1, ((0.01, 1.0, 0.0), (0.001, np.sqrt(2.0), 0.4)))
    sys_q = make_system(n_modes=N,
                        a=TrigSum(9.0, ((0.03, 1.0, 0.0), (0.002, np.sqrt(2.0), 0.3))),
                        b=TrigSum(), window=(-15, 65), slopes=TrigSum(0.0),
                        jumps=IndexedOffsetJumps(offsets=lambda j: d_amp(j) * e1(1.0)))
    dich_q = fit_dichotomy(sys_q.lap, sys_q.coeff, rng=np.random.default_rng(253))
    cfg_q = SolverConfig(h_t=0.005, tail_tol=5.1977e-5)  # a buffer of 12.0
    w = sys_q.lap.frac_weights(ALPHA)
    gaps = []
    for win in ((2.0, 26.0), (2.0, 50.0)):
        res_q = outer_solve(sys_q, dich_q, win, cfg=cfg_q)
        n = res_q.y_star.shape[0]
        rep = eps_almost_periods(res_q.y_star, 1e-2, (-(n // 3), n // 3), weights=w)
        max_gap = float(np.max(np.diff(rep))) if len(rep) >= 2 else None
        check(failures, max_gap is not None and np.isfinite(max_gap),
              "no finite max gap on window %s" % (win,))
        gaps.append(max_gap)
    if all(g is not None for g in gaps):
        check(failures, abs(gaps[0] - gaps[1]) <= 1.0,
              "max gap unstable under window doubling: %s" % gaps)
    finish(6, "degenerate and reduction cases", failures)


# ---------------------------------------------------------------------------
# 7. non-negativity on the certified logistic instance
# ---------------------------------------------------------------------------


def test_criterion_7_nonnegativity():
    failures = []
    sys0 = certified_logistic((0, 14), n_modes=N)
    dich = fit_dichotomy(sys0.lap, sys0.coeff, rng=np.random.default_rng(261))
    res = outer_solve(sys0, dich, (0.5, 12.5), cfg=SolverConfig(h_t=0.005))
    t_all, states = res.trajectory.nodes.t, res.trajectory.nodes.states
    mask = (t_all >= 0.5) & (t_all <= 12.5)
    u = sys0.lap.eval_physical(states[mask])
    check(failures, np.min(u) >= -1e-8, "min u = %g < -1e-8" % np.min(u))
    check(failures, np.max(u) > 1e-3, "solution trivially small")

    # all d_j = 0: identically zero (I(0) = 0 kills the kernel term too)
    sys_0 = make_system(n_modes=N, a=sys0.a, b=sys0.b, window=(0, 14),
                        slopes=TrigSum(-0.2), jumps=rank1_jumps(N, "relu", 0.02, 0.0))
    res0 = outer_solve(sys_0, dich, (0.5, 12.5), cfg=SolverConfig(h_t=0.005))
    states0 = res0.trajectory.nodes.states
    check(failures, np.max(np.abs(res0.y_star)) == 0.0, "d=0: y* != 0")
    check(failures, np.max(np.abs(states0)) == 0.0, "d=0: u* != 0")
    finish(7, "non-negativity and zero-offset degeneration", failures)


# ---------------------------------------------------------------------------
# 8. ap_analysis oracle equivalence
# ---------------------------------------------------------------------------


def _brute_force_periods(seq, eps, p_range):
    """Independent double loop over all (p, k) pairs."""
    n = len(seq)
    out = []
    for p in range(p_range[0], p_range[1] + 1):
        ok = True
        for k in range(n):
            if 0 <= k + p < n and abs(seq[k + p] - seq[k]) >= eps:
                ok = False
                break
        if ok:
            out.append(p)
    return out


def test_criterion_8_ap_analysis_oracles():
    failures = []
    k = np.arange(-800, 801)  # window length 1601 <= 2000
    seq = np.cos(k) + np.cos(np.sqrt(2.0) * k)
    for eps in (0.05, 0.1, 0.5):
        rep = eps_almost_periods(seq, eps, (-500, 500))
        oracle = _brute_force_periods(seq, eps, (-500, 500))
        check(failures, list(rep) == oracle,
              "eps=%g period sets differ from brute force" % eps)

    # harmonize re-verification, all three bounds checked from scratch
    a = 1.0
    taus = StronglyAPSet(a=a, c=TrigSum(0.0, ((0.1, np.sqrt(2.0), 0.0),)), window=(-800, 800))
    kk = taus.indices()
    B = np.cos(np.sqrt(3.0) * kk)
    h = 0.01
    t = np.arange(-900.0, 900.0 + h / 2.0, h)
    fvals = np.cos(np.sqrt(2.0) * t)
    from implab.ap_analysis import PiecewiseSampledFunction

    f = PiecewiseSampledFunction(t0=-900.0, h_t=h, values=fvals)
    for eps in (0.1, 0.25):
        got = harmonize(B, taus.taus(), f, eps=eps, q_range=(1, 720))
        if got is None:
            failures.append("harmonize found no (q, r) at eps=%g" % eps)
            continue
        q, r, _ = got
        tv = taus.taus()
        check(failures, np.max(np.abs(B[q:] - B[:-q])) < eps,
              "sequence bound fails at eps=%g" % eps)
        check(failures, np.max(np.abs((tv[q:] - tv[:-q]) - r)) < eps,
              "point-set bound fails at eps=%g" % eps)
        # independent function-shift check: direct interpolation on the grid
        t_chk = t[(t >= t[0]) & (t <= t[-1] - r)]
        shifted = np.interp(t_chk + r, t, fvals)
        dev = float(np.max(np.abs(shifted - np.interp(t_chk, t, fvals))))
        check(failures, dev < eps, "function bound fails at eps=%g (dev %g)" % (eps, dev))
    finish(8, "almost-periodicity analysis oracles", failures)
