import warnings

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import qmc

from implab.impulsive import (
    JUMP_MAP_CATALOGUE,
    BallExitError,
    ImpulseSurfaceSpec,
    JumpSpec,
    SeparationError,
    apply_jump,
    beating_certificate,
    detect_crossing,
    segment_residual,
    simulate,
    step_segment,
    _scrambled_sobol,
)
from implab.trig import SeqGen, TrigSum

from systems import certified_logistic, make_system


def e1(system, c=1.0):
    x = np.zeros(system.lap.n_modes)
    x[0] = c
    return x


# ---------------------------------------------------------------------------
# surfaces
# ---------------------------------------------------------------------------


def test_q_functional_parseval():
    rng = np.random.default_rng(30)
    x = rng.standard_normal(6)
    assert ImpulseSurfaceSpec.q_functional(x) == pytest.approx(np.sum(x**2))


def test_separation_and_intervals():
    sys0 = make_system(slopes=SeqGen.constant(-0.2))
    theta = sys0.theta
    rho_q = 1.0 / sys0.lap.eigenvalues[0]  # rho^2 / lambda_1^{2 alpha}, alpha = 1/2
    assert theta == pytest.approx(1.0 - 0.2 * rho_q)
    gc = sys0.gap_constant
    assert gc["value"] >= max(gc["formula"], gc["measured"]) - 1e-14
    # measured: tau''_{j+1} - tau'_j = 1 + 0.2 rho_q
    assert gc["measured"] == pytest.approx(1.0 + 0.2 * rho_q)


def test_separation_failure():
    sys0 = make_system(slopes=SeqGen.constant(-20.0))
    with pytest.raises(SeparationError):
        sys0.theta


# ---------------------------------------------------------------------------
# stepper
# ---------------------------------------------------------------------------


def test_step_segment_reduces_to_semigroup():
    sys0 = make_system(a=TrigSum(), b=TrigSum())
    x0 = e1(sys0, 0.2) + 0.05 * np.roll(e1(sys0), 2)
    seg = step_segment(sys0, x0, 0.0, 0.4, seg_tol=1e-10)
    ref = sys0.lap.semigroup_apply(0.4, x0)
    assert np.max(np.abs(seg.states[-1] - ref)) < 1e-12


def test_step_segment_scalar_closed_form():
    # b = 0: single-mode linear equation x' = (a(t) - lambda_1) x
    a = TrigSum(0.3, ((0.2, 1.0, 0.1),))
    sys0 = make_system(n_modes=1, a=a, b=TrigSum())
    x0 = np.array([0.25])
    t1 = 1.0
    seg = step_segment(sys0, x0, 0.0, t1, seg_tol=1e-10)
    lam1 = sys0.lap.eigenvalues[0]
    ref = x0[0] * np.exp(a.integral(0.0, t1) - lam1 * t1)  # scalar closed form
    assert abs(seg.states[-1][0] - ref) < 1e-8


def test_step_doubling_self_convergence():
    sys0 = make_system(b=TrigSum(0.1, ((0.05, np.sqrt(2.0), 0.0),)))
    x0 = 0.3 * e1(sys0)
    ref = step_segment(sys0, x0, 0.0, 1.0, seg_tol=1e-12).states[-1]
    errs = []
    for tol in (1e-5, 1e-7, 1e-9):
        end = step_segment(sys0, x0, 0.0, 1.0, seg_tol=tol).states[-1]
        errs.append(np.linalg.norm(end - ref))
    assert errs[0] > errs[1] > errs[2]


def test_segment_residual_small():
    sys0 = make_system(b=TrigSum(0.1, ((0.05, np.sqrt(2.0), 0.0),)))
    x0 = 0.3 * e1(sys0)
    seg = step_segment(sys0, x0, 0.0, 1.0, seg_tol=1e-8)
    h_min = float(np.min(np.diff(seg.t)))
    assert segment_residual(sys0, seg) < 10.0 * 1e-8 / h_min


def test_ball_exit_detected():
    sys0 = make_system(f_override=lambda t: np.array([50.0] + [0.0] * 7))
    with pytest.raises(BallExitError) as exc:
        step_segment(sys0, np.zeros(8), 0.0, 5.0, seg_tol=1e-8)
    assert exc.value.time is not None


# ---------------------------------------------------------------------------
# event detection
# ---------------------------------------------------------------------------


def test_detect_crossing_fixed_moment():
    sys0 = make_system()
    x0 = 0.2 * e1(sys0)
    seg = step_segment(sys0, x0, 0.5, 1.5, seg_tol=1e-10, h_max=0.01)
    th = detect_crossing(sys0, seg, 1)
    assert th == pytest.approx(1.0, abs=1e-9)


def test_detect_crossing_zero_state():
    sys0 = make_system(slopes=SeqGen.constant(-0.2))
    seg = step_segment(sys0, np.zeros(8), 0.5, 1.5, seg_tol=1e-10)
    th = detect_crossing(sys0, seg, 1)
    assert th == pytest.approx(1.0, abs=1e-9)  # Q(0) = 0


def test_detect_crossing_no_hit():
    sys0 = make_system()
    seg = step_segment(sys0, 0.1 * e1(sys0), 1.2, 1.8, seg_tol=1e-10)
    assert detect_crossing(sys0, seg, 1) is None


def test_detect_crossing_scalar_oracle():
    # pure decay (a = b = 0): Q(t) = Q0 e^{-2 lambda_1 t}; root of
    # t - t_j - b_j Q(t) found independently by scipy brentq
    sys0 = make_system(a=TrigSum(), b=TrigSum(), slopes=SeqGen.constant(-0.1))
    x0 = 0.3 * e1(sys0)
    lam1 = sys0.lap.eigenvalues[0]
    seg = step_segment(sys0, x0, 0.0, 1.2, seg_tol=1e-12, h_max=2e-3)
    th = detect_crossing(sys0, seg, 1, event_tol=1e-12)

    def zeta(t):
        return t - 1.0 + 0.1 * 0.09 * np.exp(-2.0 * lam1 * t)

    ref = brentq(zeta, 0.0, 1.2, xtol=1e-14)
    assert abs(th - ref) < 5e-6


# ---------------------------------------------------------------------------
# jumps
# ---------------------------------------------------------------------------


def test_apply_jump_identity():
    sys0 = make_system()
    x = 0.3 * e1(sys0)
    assert np.allclose(apply_jump(sys0, 1, x), x)


def test_apply_jump_separable_kernel_orthonormality():
    n = 8
    left = np.zeros((1, n))
    left[0, 0] = 1.0
    jumps = JumpSpec(left=left, right=left.copy(), nonlinearity="identity")
    sys0 = make_system(jumps=jumps)
    c = 0.15
    post = apply_jump(sys0, 1, e1(sys0, c))
    # <e1, c e1> = c, so the jump adds c * e1
    assert post[0] == pytest.approx(2.0 * c, abs=1e-10)
    assert np.max(np.abs(post[1:])) < 1e-10


def test_apply_jump_nonnegative_data():
    n = 8
    left = np.zeros((1, n))
    left[0, 0] = 1.0
    d = np.zeros(n)
    d[0] = 0.05
    jumps = JumpSpec(left=left, right=left.copy(), nonlinearity="relu",
                     amp=SeqGen.constant(0.02), d=d)
    sys0 = make_system(jumps=jumps)
    x = 0.2 * e1(sys0)
    post = apply_jump(sys0, 1, x)
    xi = sys0.transform.xi
    u = sys0.lap.eval_physical(post, xi)
    assert np.min(u) >= -1e-8


def test_apply_jump_ball_exit():
    n = 8
    d = np.zeros(n)
    d[0] = 5.0
    sys0 = make_system(jumps=JumpSpec(d=d))
    with pytest.raises(BallExitError):
        apply_jump(sys0, 1, 0.3 * e1(sys0))


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_no_surfaces_in_window():
    sys0 = make_system(window=(100, 110))
    traj = simulate(sys0, 0.2 * e1(make_system()), 0.0, 2.0)
    assert traj.hits == []
    assert traj.t_end == pytest.approx(2.0)


def test_simulate_fixed_moments_ten_hits():
    n = 8
    d = np.zeros(n)
    d[0] = 0.01
    sys0 = make_system(jumps=JumpSpec(d=d))
    traj = simulate(sys0, 0.2 * e1(sys0), 0.5, 10.5, seg_tol=1e-9)
    assert len(traj.hits) == 10
    for k, h in enumerate(traj.hits, start=1):
        assert h.time == pytest.approx(float(k), abs=1e-9)
        g = sys0.g(h.surface, h.pre)
        assert np.max(np.abs(h.post - h.pre - g)) < 1e-10
    assert np.all(np.diff(traj.hit_times()) > 0.0)


@pytest.mark.parametrize(
    "seed", [0, 1, 7, 2**31 - 1, np.random.default_rng(5).integers(2**31)]
)
def test_scrambled_sobol_matches_scipy(seed):
    for n in (0, 1, 2, 3, 16, 64, 512, 1000):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # n not a power of 2
            ref = qmc.Sobol(d=5, seed=seed).random(n)
        got = _scrambled_sobol(n, seed)
        assert got.shape == (n, 5) and got.dtype == np.float64
        assert np.array_equal(got, ref), n


def test_beating_certificate_trivial_slope():
    sys0 = make_system()
    cert = beating_certificate(sys0, 1, n_samples=64)
    assert cert.verdict
    assert cert.theta_check == pytest.approx(0.0, abs=1e-14)
    assert cert.p_check == pytest.approx(0.0, abs=1e-14)


def test_beta0_plugin_value():
    # l = 1, rho = 1, b == 0: beta0 = 0.5 / ((1 + 0)(1 + 1)) = 0.25 exactly
    sys0 = make_system(b=TrigSum())
    cert = beating_certificate(sys0, 1, n_samples=16)
    assert cert.beta0 == 0.25


def test_beating_certificate_certified_instance():
    sys0 = certified_logistic()
    cert = beating_certificate(sys0, 1, n_samples=128, rng=np.random.default_rng(31))
    assert cert.verdict
    assert cert.theta_check <= 1e-10
    # the analytic chain bound dominates every sampled value
    bound = 2.0 * 0.2 * (1.0 + sys0.ab.sup_bound()) * (1.0 + 1.0)
    assert cert.p_check <= bound + 1e-9
    assert bound < 1.0


def test_simulate_certified_no_beating():
    sys0 = certified_logistic(window=(1, 6))
    certs = [beating_certificate(sys0, j, n_samples=64,
                                 rng=np.random.default_rng(32))
             for j in range(1, 7)]
    assert all(c.verdict for c in certs)
    traj = simulate(sys0, 0.2 * e1(sys0), 0.5, 6.5, seg_tol=1e-8,
                    certified_surfaces=range(1, 7))
    counts = traj.meta["hit_counts"]
    assert all(v <= 1 for v in counts.values())
    assert len(traj.hits) == 6
    # monotone exit: zeta_j stays positive after the hit on surface j
    for h in traj.hits:
        for t in np.linspace(h.time + 1e-3, traj.t_end, 25):
            u = traj.eval(t)
            assert t - sys0.tau(h.surface, u) > 0.0


def test_simulate_nonnegativity():
    sys0 = certified_logistic(window=(1, 4))
    x0 = sys0.lap.project(lambda s: 0.3 * np.sin(np.pi * s) ** 2, sys0.transform.xi)
    traj = simulate(sys0, x0, 0.5, 4.5, seg_tol=1e-8)
    xi = sys0.transform.xi
    t_all, states = traj.all_nodes()
    u = sys0.lap.eval_physical(states, xi)
    assert np.min(u) >= -1e-8 * max(1.0, np.max(np.abs(u)))


def test_surface_lookups_index_the_window_arrays():
    sys0 = make_system(slopes=SeqGen(freqs=(0.7,), amps=(0.05,), phases=(0.0,), offset=-0.2))
    surf = sys0.surfaces
    for pos, j in enumerate(surf.indices()):
        assert surf.base_time(j) == surf.base_times[pos]
        assert surf.slope(j) == surf.slope_window[pos]


def test_jump_map_catalogue_zero_and_lipschitz():
    rng = np.random.default_rng(33)
    u, v = rng.uniform(-3.0, 3.0, (2, 1000))
    for name, (i_map, lip) in JUMP_MAP_CATALOGUE.items():
        assert np.all(i_map(np.zeros(3)) == 0.0), name
        assert np.all(np.abs(i_map(u) - i_map(v)) <= lip * np.abs(u - v) + 1e-15), name


# ---------------------------------------------------------------------------
# batched certificate against the per-sample loop
# ---------------------------------------------------------------------------


def certificate_by_sample(system, j, n_samples, rng):
    """Reference: the beating certificate evaluated one sample at a time."""
    lap, alpha, rho = system.lap, system.alpha, system.rho
    xi = system.transform.xi
    w_quad = lap.quad_weights(xi)
    b_j = system.surfaces.slope(j)
    sob = qmc.Sobol(d=5, seed=rng.integers(2**31))
    samples = []
    for row in sob.random(n_samples):
        w = row[:4]
        if np.sum(w) < 1e-8:
            continue
        u = np.zeros(xi.size)
        for m, wm in enumerate(w, start=1):
            u += wm * np.sin(m * np.pi * xi / lap.l) ** 2
        x = lap.project(u, xi)
        nrm = lap.frac_norm(x, alpha)
        if nrm < 1e-12:
            continue
        scale = rho / nrm if row[4] < 0.5 else rho * (0.1 + 1.8 * (row[4] - 0.5)) / nrm
        samples.append(min(scale, rho / nrm) * x)
    theta_check = p_check = -np.inf
    for x in samples:
        q = ImpulseSurfaceSpec.q_functional(x)
        tau = system.surfaces.base_time(j) + b_j * q
        theta_j = b_j * (ImpulseSurfaceSpec.q_functional(x + system.g(j, x)) - q)
        theta_check = max(theta_check, theta_j)
        u = lap.eval_physical(x, xi)
        cubic = float(np.sum(w_quad * u**3))
        grad_sq = float(np.sum(lap.eigenvalues * x * x))
        p_val = -2.0 * b_j * grad_sq + 2.0 * b_j * system.a(tau) * (
            q - system.b(tau) * cubic
        )
        p_check = max(p_check, p_val)
    beta0 = 0.5 / ((1.0 + system.ab.sup_bound()) * (rho**2 + np.sqrt(lap.l) * rho**3))
    return theta_check, p_check, beta0, len(samples)


def readme_like():
    left = np.zeros((1, 16))
    left[0, 0] = 1.0
    d = np.zeros(16)
    d[0] = 0.05
    jumps = JumpSpec(left=left, right=left.copy(), nonlinearity="relu",
                     amp=SeqGen.constant(0.02), d=d)
    return make_system(
        n_modes=16,
        a=TrigSum(0.5, ((0.2, 1.0, 0.0),)),
        b=TrigSum(0.1, ((0.05, 1.41421356237, 0.0),)),
        slopes=SeqGen.constant(-0.2),
        jumps=jumps,
    )


@pytest.mark.parametrize("build", [readme_like, make_system, certified_logistic])
@pytest.mark.parametrize("n_samples", [0, 8, 256])
def test_batched_certificate_matches_per_sample_loop(build, n_samples):
    sys0 = build()
    for j in (1, 4):
        cert = beating_certificate(sys0, j, n_samples=n_samples,
                                   rng=np.random.default_rng([34, j]))
        theta, p_val, beta0, count = certificate_by_sample(
            sys0, j, n_samples, np.random.default_rng([34, j])
        )
        assert cert.n_samples == count
        assert cert.verdict == bool(theta <= 1e-10 and p_val < 1.0)
        assert cert.beta0 == beta0
        if count == 0:
            assert cert.theta_check == theta == -np.inf
            assert cert.p_check == p_val == -np.inf
            continue
        assert cert.theta_check == pytest.approx(theta, rel=1e-13, abs=1e-15)
        assert cert.p_check == pytest.approx(p_val, rel=1e-13, abs=1e-15)
