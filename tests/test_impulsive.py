from dataclasses import dataclass, field

import numpy as np
import pytest
from scipy.optimize import brentq

from implab import impulsive
from implab.impulsive import (
    JUMP_MAP_CATALOGUE,
    BallExitError,
    EventLocationError,
    ImpulseSystemSpec,
    JumpSpec,
    SeparationError,
    apply_jump,
    beating_certificate,
    detect_crossing,
    q_functional,
    simulate,
    step_segment,
    _bracket_root,
    _nonnegative_samples,
)
from implab.spectral import DirichletLaplacian
from implab.trajectory import Segment
from implab.trig import TrigSum

import systems
from oracles import (
    SegmentedTrajectory,
    _etd2_step,
    pieces,
    samples_in_physical_space,
    segment_residual,
    semigroup_apply,
)
from systems import IndexedOffsetJumps, certified_logistic, make_system, rank1_jumps, slope


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
    assert q_functional(x) == pytest.approx(np.sum(x**2))


def test_separation_and_intervals():
    sys0 = make_system(slopes=TrigSum(-0.2))
    theta = sys0.theta
    rho_q = 1.0 / sys0.lap.eigenvalues[0]  # rho^2 / lambda_1^{2 alpha}, alpha = 1/2
    assert theta == pytest.approx(1.0 - 0.2 * rho_q)
    gc = sys0.gap_constant
    assert gc["value"] >= max(gc["formula"], gc["measured"]) - 1e-14
    # measured: tau''_{j+1} - tau'_j = 1 + 0.2 rho_q
    assert gc["measured"] == pytest.approx(1.0 + 0.2 * rho_q)


def test_separation_failure():
    sys0 = make_system(slopes=TrigSum(-20.0))
    with pytest.raises(SeparationError):
        sys0.theta
    # theta is taken over 2 surfaces or more, the gap constant over 4 or more
    with pytest.raises(SeparationError, match="at least 2"):
        make_system(window=(1, 1)).theta
    with pytest.raises(SeparationError, match="at least 4"):
        make_system(window=(1, 3)).gap_constant
    assert make_system(window=(1, 4)).gap_constant["value"] > 0.0


# ---------------------------------------------------------------------------
# stepper
# ---------------------------------------------------------------------------


def test_step_segment_reduces_to_semigroup():
    sys0 = make_system(a=TrigSum(), b=TrigSum())
    x0 = e1(sys0, 0.2) + 0.05 * np.roll(e1(sys0), 2)
    seg = step_segment(sys0, x0, 0.0, 0.4, seg_tol=1e-10)
    ref = semigroup_apply(sys0.lap, 0.4, x0)
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


@pytest.mark.parametrize("t0, t1", [(0.5, 1.8), (3.0, 3.0 + 1e-14)])
def test_step_segment_ends_at_t1(t0, t1):
    # 3 + 1e-14 lies inside the 1e-13 end margin: one step, not one node
    sys0 = make_system(b=TrigSum(0.1, ((0.05, np.sqrt(2.0), 0.0),)))
    seg = step_segment(sys0, e1(sys0, 0.3), t0, t1, seg_tol=1e-8, h_max=0.013)
    assert seg.t[0] == t0 and seg.t[-1] == t1 and seg.t.size >= 2
    assert np.all(np.diff(seg.t) > 0.0)


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
    sys0 = make_system(slopes=TrigSum(-0.2))
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
    sys0 = make_system(a=TrigSum(), b=TrigSum(), slopes=TrigSum(-0.1))
    x0 = 0.3 * e1(sys0)
    lam1 = sys0.lap.eigenvalues[0]
    seg = step_segment(sys0, x0, 0.0, 1.2, seg_tol=1e-12, h_max=2e-3)
    th = detect_crossing(sys0, seg, 1)

    def zeta(t):
        return t - 1.0 + 0.1 * 0.09 * np.exp(-2.0 * lam1 * t)

    ref = brentq(zeta, 0.0, 1.2, xtol=1e-14)
    assert abs(th - ref) < 5e-6


@pytest.mark.parametrize(
    "a, b, c, root",
    [
        (0.0, 2.0, -1.0, 0.5),  # linear: -c/b
        (-0.0, 2.0, -1.0, 0.5),  # b_j = 0 gives A = -0
        (1.0, 0.0, -0.25, 0.5),  # roots -0.5 and 0.5
        (-1.0, 2.5, -1.0, 0.5),  # roots 0.5 and 2
        (-1.0, 2.0, -1.0, 1.0),  # double root at the right node
        (1e-12, 1.0, -0.75, 0.75),  # tiny a: no cancellation in c/q
        (-1.0, 2.0, -1.0 - 1e-15, 1.0),  # discriminant below 0 by rounding: the vertex
    ],
)
def test_bracket_root(a, b, c, root):
    assert _bracket_root(a, b, c) == pytest.approx(root, rel=1e-12)


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
                     amp=TrigSum(0.02), d=d)
    sys0 = make_system(jumps=jumps)
    x = 0.2 * e1(sys0)
    post = apply_jump(sys0, 1, x)
    u = sys0.lap.eval_physical(post)
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


def test_beating_certificate_trivial_slope():
    sys0 = make_system()
    cert = beating_certificate(sys0, 1, n_samples=64)
    assert cert["verdict"] == "pass"
    assert cert["theta_check"] == pytest.approx(0.0, abs=1e-14)
    assert cert["P_check"] == pytest.approx(0.0, abs=1e-14)


def test_beta0_plugin_value():
    # l = 1, rho = 1, b == 0: beta0 = 0.5 / ((1 + 0)(1 + 1)) = 0.25 exactly
    sys0 = make_system(b=TrigSum())
    cert = beating_certificate(sys0, 1, n_samples=16)
    assert cert["beta0"] == 0.25


def test_beating_certificate_certified_instance():
    """The closed-form P bound over the whole ball dominates every sampled P.

    For b_j <= 0 and every state in the ball,
    P <= 2|b_j| (rho^2 max_k lambda_k^{1-2alpha} + sup(-a)^+ Q_max
    + sup|ab| |u|_inf,max Q_max), with Q_max = rho^2 / lambda_1^{2alpha} and
    |u|_inf,max = sqrt(2/l) rho (sum_k lambda_k^{-2alpha})^{1/2}.  The samples
    are drawn from the CLI's streams at seed 7.
    """
    for build in (systems.readme_like, systems.moving_like, certified_logistic):
        sys0 = build()
        lap, alpha, rho = sys0.lap, sys0.alpha, sys0.rho
        lam = lap.eigenvalues
        q_max = rho**2 / lam[0] ** (2.0 * alpha)
        u_sup = np.sqrt(2.0 / lap.l) * rho * np.sqrt(np.sum(lam ** (-2.0 * alpha)))
        neg_a = max(0.0, -sys0.a.offset + sum(abs(amp) for amp, _, _ in sys0.a.terms))
        chain = (rho**2 * np.max(lam ** (1.0 - 2.0 * alpha)) + neg_a * q_max
                 + sys0.ab.sup_bound() * u_sup * q_max)
        for j in map(int, sys0.indices):
            b_j = slope(sys0, j)
            assert b_j <= 0.0
            x = _nonnegative_samples(sys0, 512, np.random.default_rng([7, 3, j]))
            assert x.shape[0] >= 1 and sys0.in_ball(x)
            cert = beating_certificate(sys0, j, n_samples=512,
                                       rng=np.random.default_rng([7, 3, j]))
            bound = 2.0 * abs(b_j) * chain
            assert bound < 1.0
            assert cert["verdict"] == "pass" and cert["theta_check"] <= 1e-10, (build.__name__, j)
            assert cert["P_check"] <= bound, (build.__name__, j, cert["P_check"], bound)


def test_simulate_certified_no_beating():
    sys0 = certified_logistic(window=(1, 6))
    certs = [beating_certificate(sys0, j, n_samples=64,
                                 rng=np.random.default_rng(32))
             for j in range(1, 7)]
    assert all(c["verdict"] == "pass" for c in certs)
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
    x0 = sys0.lap.project(lambda s: 0.3 * np.sin(np.pi * s) ** 2)
    traj = simulate(sys0, x0, 0.5, 4.5, seg_tol=1e-8)
    u = sys0.lap.eval_physical(traj.nodes.states)
    assert np.min(u) >= -1e-8 * max(1.0, np.max(np.abs(u)))


def test_surface_lookups_index_the_window_arrays():
    sys0 = make_system(slopes=TrigSum(-0.2, ((0.05, 0.7, 0.0),)))
    assert sys0.indices is sys0.indices  # built once
    for pos, j in enumerate(sys0.indices):
        assert sys0.tau(j, np.zeros(sys0.lap.n_modes)) == sys0.base_times[pos]
        assert sys0.slope_window[pos] == sys0.slopes(float(j))


def test_tau_on_an_index_array_bit_equal_to_per_surface_formula():
    sys0 = make_system(slopes=TrigSum(-0.2, ((0.05, 0.7, 0.0),)))
    n = sys0.lap.n_modes
    j = sys0.indices
    x = 0.1 * np.random.default_rng(34).standard_normal((j.size, 3, n))
    got = sys0.tau(j[:, None], x)
    assert got.shape == (j.size, 3)
    for pos in range(j.size):
        for k in range(3):
            want = float(sys0.base_times[pos]) + slope(sys0, j[pos]) * float(np.sum(x[pos, k] ** 2))
            assert got[pos, k] == want
            assert sys0.tau(j[pos], x[pos, k]) == want
    assert isinstance(sys0.tau(j[0], x[0, 0]), float)


@pytest.mark.parametrize("outside", [-1, 9, [0, -1], [3, 9]])
def test_tau_rejects_an_index_outside_the_window(outside):
    # window (0, 8): a position of -1 would wrap to the last surface
    sys0 = make_system(window=(0, 8))
    with pytest.raises(ValueError, match="surface window"):
        sys0.tau(np.asarray(outside), np.zeros(sys0.lap.n_modes))


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
    xi, w_quad = lap.xi, lap.weights
    b_j = slope(system, j)
    samples = []
    for row in rng.random((n_samples, 5)):
        w = row[:4]
        if np.sum(w) < 1e-8:
            continue
        u = np.zeros(xi.size)
        for m, wm in enumerate(w, start=1):
            u += wm * np.sin(m * np.pi * xi / lap.l) ** 2
        x = lap.project(u)
        nrm = lap.frac_norm(x, alpha)
        if nrm < 1e-12:
            continue
        scale = rho / nrm if row[4] < 0.5 else rho * (0.1 + 1.8 * (row[4] - 0.5)) / nrm
        samples.append(min(scale, rho / nrm) * x)
    theta_check = p_check = -np.inf
    for x in samples:
        q = q_functional(x)
        tau = system.base_times[j - system.base.window[0]] + b_j * q
        theta_j = b_j * (q_functional(x + system.g(j, x)) - q)
        theta_check = max(theta_check, theta_j)
        u = lap.eval_physical(x)
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
                     amp=TrigSum(0.02), d=d)
    return make_system(
        n_modes=16,
        a=TrigSum(0.5, ((0.2, 1.0, 0.0),)),
        b=TrigSum(0.1, ((0.05, 1.41421356237, 0.0),)),
        slopes=TrigSum(-0.2),
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
        assert cert["n_samples"] == count
        assert (cert["verdict"] == "pass") == bool(theta <= 1e-10 and p_val < 1.0)
        assert cert["beta0"] == beta0
        if count == 0:
            assert cert["theta_check"] == theta == -np.inf
            assert cert["P_check"] == p_val == -np.inf
            continue
        assert cert["theta_check"] == pytest.approx(theta, rel=1e-13, abs=1e-15)
        assert cert["P_check"] == pytest.approx(p_val, rel=1e-13, abs=1e-15)


@pytest.mark.parametrize(
    "build", [systems.readme_like, systems.moving_like, certified_logistic]
)
@pytest.mark.parametrize("n_samples", [1, 512])
def test_coefficient_space_samples_match_physical_space(build, n_samples):
    """The projected shape table gives the samples built on the grid, to rounding."""
    sys0 = build()
    for seed in (0, 1, 2):
        got = _nonnegative_samples(sys0, n_samples, np.random.default_rng(seed))
        ref = samples_in_physical_space(sys0, n_samples, np.random.default_rng(seed))
        assert got.shape == ref.shape and got.shape[0] >= 1
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# one-evaluation trials and bracketed sharpening against the re-integrating loop
# ---------------------------------------------------------------------------


def segment_by_doubling(system, x0, t0, t1, seg_tol, h_max=np.inf, stats=None, h0=0.05):
    """Reference: step doubling by three independent ETD2 steps per trial.

    ``h0`` is the first trial step; ``stats`` counts the rejected trials.
    The last node time is t1.
    """
    x = np.asarray(x0, dtype=float)
    t, h = t0, min(h_max, t1 - t0, h0)
    nodes, states = [t0], [x]
    while t < t1 - 1e-13 * max(1.0, abs(t1)) or len(nodes) == 1:
        h = min(h, t1 - t, h_max)
        while True:
            coarse = _etd2_step(system, t, h, x)
            half = _etd2_step(system, t, h / 2.0, x)
            fine = _etd2_step(system, t + h / 2.0, h / 2.0, half)
            err = float(np.linalg.norm(fine - coarse)) / 3.0
            if err < seg_tol or h < 1e-12:
                break
            if stats is not None:
                stats["rejected"] += 1
            h *= max(0.25, 0.9 * (seg_tol / max(err, 1e-300)) ** (1.0 / 3.0))
        t, x = t + h, fine
        nodes.append(t)
        states.append(x)
        h = h * min(4.0, max(0.25, 0.9 * (seg_tol / max(err, 1e-300)) ** (1.0 / 3.0)))
    nodes[-1] = t1
    return Segment(t=np.asarray(nodes), states=np.stack(states))


def crossing_by_probe(system, seg, j, event_tol):
    """Reference: earliest upward crossing, every zeta value taken alone."""

    def zeta_at(t):
        return t - system.tau(j, seg.interp(t)[0])

    zeta = [zeta_at(t) for t in seg.t]
    for i in range(seg.t.size - 1):
        if not (zeta[i] < 0.0 <= zeta[i + 1]):
            continue
        signs = np.sign([zeta_at(t) for t in np.linspace(seg.t[i], seg.t[i + 1], 10)])
        assert int(np.sum(np.abs(np.diff(signs[signs != 0.0])) > 0.0)) <= 1
        lo, hi = seg.t[i], seg.t[i + 1]
        while hi - lo > event_tol:
            mid = 0.5 * (lo + hi)
            if zeta_at(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)
    return None


def crossing_by_quadratic(system, seg, j):
    """Reference: the closed-form root on the first bracket, node by node.

    Returns (root, index of the left node), or None.
    """

    def zeta_at(t):
        return t - system.tau(j, seg.interp(t)[0])

    b_j = slope(system, j)
    for i in range(seg.t.size - 1):
        zeta_i = zeta_at(seg.t[i])
        if not (zeta_i < 0.0 <= zeta_at(seg.t[i + 1])):
            continue
        u, d = seg.states[i], seg.states[i + 1] - seg.states[i]
        dt = seg.t[i + 1] - seg.t[i]
        s = _bracket_root(-b_j * float(d @ d), dt - 2.0 * b_j * float(u @ d), zeta_i)
        return float(seg.t[i] + s * dt), i
    return None


def simulate_by_reintegration(system, u0, t0, t_end, seg_tol, event_tol=1e-10, stats=None):
    """Reference: the hybrid loop, every quantity of a trial step computed alone.

    A hit time is sharpened by one fixed-point step, then secant steps; an
    iterate outside the bracket, shrunk by the sign of each run's zeta, is
    replaced by the bracket's midpoint.  Each run re-integrates from the
    bracket's left node i with that node's step as its first step, and the
    hit segment is the horizon segment's first i nodes plus the last run.
    """
    lo, hi = system.intervals
    idx = system.indices
    x, t = np.asarray(u0, dtype=float), float(t0)
    horizon = max(system.theta / 2.0, 1e-3)
    segments, hits, last_hit = [], [], None
    while t < t_end - 1e-12:
        t1 = min(t_end, t + horizon)
        seg = segment_by_doubling(system, x, t, t1, seg_tol, horizon / 4.0, stats)
        best = None
        for j in idx[(hi >= t - event_tol) & (lo <= t1 + event_tol)]:
            found = crossing_by_quadratic(system, seg, j)
            if found is None or found[0] < t:
                continue
            th = found[0]
            if last_hit is not None and int(j) == last_hit[0] and th <= last_hit[1] + 10.0 * event_tol:
                continue
            if best is None or th < best[0]:
                best = (th, int(j), found[1])
        if best is None:
            segments.append(seg)
            t, x = t1, seg.states[-1]
            continue
        th, j, i = best
        a, b = seg.t[i], seg.t[i + 1]
        pre, last = x, None
        for _ in range(40):
            if th - t <= 1e-12:
                th, run, pre = t, None, x
                break
            run = segment_by_doubling(system, seg.states[i], seg.t[i], th, seg_tol,
                                      horizon / 4.0, stats, h0=seg.t[i + 1] - seg.t[i])
            pre = run.states[-1]
            zeta = th - system.tau(j, pre)
            if abs(zeta) < event_tol:
                break
            if zeta < 0.0:
                a = th
            else:
                b = th
            if last is None or zeta == last[1]:
                th_next = th - zeta
            else:
                th_next = th - zeta * (th - last[0]) / (zeta - last[1])
            last = (th, zeta)
            th = th_next if a < th_next < b else 0.5 * (a + b)
        else:
            raise AssertionError("hit time not sharpened to event_tol")
        if run is not None:
            segments.append(Segment(t=np.concatenate([seg.t[:i], run.t]),
                                    states=np.concatenate([seg.states[:i], run.states])))
        post = apply_jump(system, j, pre)
        last_hit = (j, th)
        hits.append((th, j, pre, post))
        t, x = th, post
    return segments, hits


def moving_like(n_modes=16):
    """README coefficients with moments 0.1 apart that move: b_j = -0.45."""
    return make_system(
        n_modes=n_modes,
        a=TrigSum(0.5, ((0.2, 1.0, 0.0),)),
        b=TrigSum(0.1, ((0.05, 1.41421356237, 0.0),)),
        slopes=TrigSum(-0.45),
        base_gap=0.1,
        window=(0, 40),
        jumps=rank1_jumps(n_modes, "relu", 0.02, 0.18),
    )


def tangent_like():
    """Pure decay (a = b = 0) with b_j = -1: on Q = C_TANGENT e^{-2 lambda_1 (t - t0)}
    from T0_TANGENT, zeta_1 = t - 1 + Q starts at -1e-6 with slope -1e-3, dips and
    crosses upward 3.7e-4 later with slope 6.3e-3, on a flow step 0.05 long."""
    return make_system(a=TrigSum(), b=TrigSum(), slopes=TrigSum(-1.0))


C_TANGENT = 1.001 / (2.0 * np.pi**2)
T0_TANGENT = 1.0 - C_TANGENT - 1e-6


SIMULATE_CASES = {
    # (system builder, initial amplitude of e_1, t0, t_end, seg_tol)
    "readme": (readme_like, 0.2, 0.5, 3.5, 1e-8),
    "moving": (moving_like, 0.2, 0.5, 1.8, 1e-8),
    "tight": (certified_logistic, 0.3, 0.5, 2.5, 1e-11),
    "tangent": (tangent_like, np.sqrt(C_TANGENT), T0_TANGENT, 2.5, 1e-8),
}


@pytest.mark.parametrize("case", sorted(SIMULATE_CASES))
def test_simulate_matches_reintegrating_loop(case):
    build, amp, t0, t_end, seg_tol = SIMULATE_CASES[case]
    sys0 = build()
    stats = {"rejected": 0}
    ref_segments, ref_hits = simulate_by_reintegration(
        sys0, e1(sys0, amp), t0, t_end, seg_tol, stats=stats
    )
    traj = simulate(sys0, e1(sys0, amp), t0, t_end, seg_tol=seg_tol)
    assert len(ref_hits) >= 2
    if case == "tight":
        assert stats["rejected"] > 0
    assert traj.meta["n_segments"] == len(ref_segments)
    for seg, ref in zip(pieces(traj), ref_segments, strict=True):
        assert np.array_equal(seg.t, ref.t)
        assert np.array_equal(seg.states, ref.states)
    assert len(traj.hits) == len(ref_hits)
    for hit, (th, j, pre, post) in zip(traj.hits, ref_hits):
        assert hit.time == th and hit.surface == j
        assert np.array_equal(hit.pre, pre) and np.array_equal(hit.post, post)


@pytest.mark.parametrize("case", sorted(SIMULATE_CASES))
def test_simulate_table_evaluates_like_its_segments(case):
    """eval_many on simulate's node table, bit for bit the per-segment rule."""
    build, amp, t0, t_end, seg_tol = SIMULATE_CASES[case]
    sys0 = build()
    ref_segments, _ = simulate_by_reintegration(sys0, e1(sys0, amp), t0, t_end, seg_tol)
    traj = simulate(sys0, e1(sys0, amp), t0, t_end, seg_tol=seg_tol)
    segmented = SegmentedTrajectory(ref_segments)
    t_all, _ = segmented.all_nodes()
    rng = np.random.default_rng(35)
    times = np.concatenate([
        rng.uniform(t0, t_end, 300), t_all, traj.hit_times(),
        [t0 - 1.0, t0, t_end, t_end + 1.0],
    ])
    assert np.array_equal(traj.eval_many(times), segmented.eval_many(times))
    # a hit time gives the pre-jump state
    pre = traj.eval_many(traj.hit_times())
    assert np.array_equal(pre, np.stack([h.pre for h in traj.hits]))


@pytest.mark.parametrize("case", sorted(SIMULATE_CASES))
def test_simulate_boundaries_repeat_their_times(case):
    """Each segment ends at its t1 exactly: a horizon end or a hit time is
    repeated in the node table, and a hit time evaluates to its pre-jump state."""
    build, amp, t0, t_end, seg_tol = SIMULATE_CASES[case]
    sys0 = build()
    traj = simulate(sys0, e1(sys0, amp), t0, t_end, seg_tol=seg_tol)
    steps = np.diff(traj.nodes.t)
    assert np.count_nonzero(steps == 0.0) == traj.meta["n_segments"] - 1
    assert np.all((steps == 0.0) | (steps > 1e-12))
    assert traj.nodes.t[-1] == t_end
    pre = traj.eval_many(traj.hit_times())
    assert np.array_equal(pre, np.stack([h.pre for h in traj.hits]))


@pytest.mark.parametrize("case", sorted(SIMULATE_CASES))
def test_closed_form_root_matches_bisection(case, monkeypatch):
    """Every crossing search of a run, against bisection of zeta on ``interp``."""
    build, amp, t0, t_end, seg_tol = SIMULATE_CASES[case]
    sys0 = build()
    event_tol = 1e-10
    searches = []
    detect = impulsive.detect_crossing

    def recorded(system, seg, j):
        th = detect(system, seg, j)
        searches.append((seg, j, th))
        return th

    monkeypatch.setattr(impulsive, "detect_crossing", recorded)
    traj = simulate(sys0, e1(sys0, amp), t0, t_end, seg_tol=seg_tol, event_tol=event_tol)
    found = 0
    for seg, j, th in searches:
        ref = crossing_by_probe(sys0, seg, j, event_tol)
        assert (th is None) == (ref is None)
        if th is not None:
            assert abs(th - ref) <= event_tol
            found += 1
    assert found >= len(traj.hits) >= 2


@dataclass
class StepCall:
    """One step_segment call of simulate: its x0, t0, t1, h0 and result."""

    x0: np.ndarray
    t0: float
    t1: float
    h0: float | None  # None for a horizon segment
    seg: Segment
    counts: dict  # increments of the recorder's counters during the call
    runs: list = field(default_factory=list)  # a horizon segment's sharpening runs


def record_step_calls(monkeypatch, counters=None):
    """simulate's step_segment calls: the horizon segments, each with its runs.

    A sharpening run is the call that passes its first trial step ``h0``; it
    is filed under the horizon segment called before it.  ``counters`` is a
    dict of counts that other patches raise; each call records by how much.
    """
    horizon = []
    counters = {} if counters is None else counters
    step = impulsive.step_segment

    def recorded(system, x0, t0, t1, *args, **kwargs):
        before = dict(counters)
        seg = step(system, x0, t0, t1, *args, **kwargs)
        call = StepCall(x0, t0, t1, kwargs.get("h0"), seg,
                        {k: counters[k] - before[k] for k in counters})
        if call.h0 is None:
            horizon.append(call)
        else:
            horizon[-1].runs.append(call)
        return seg

    monkeypatch.setattr(impulsive, "step_segment", recorded)
    return horizon


def test_sharpening_takes_three_runs_per_hit(monkeypatch):
    """The secant steps reach event_tol in three re-integrations per hit."""
    sys0 = moving_like()
    horizon = record_step_calls(monkeypatch)
    traj = simulate(sys0, e1(sys0, 0.2), 0.5, 3.8, seg_tol=1e-8)
    # each hit's runs follow the horizon segment it was found on
    runs = [len(h.runs) for h in horizon if h.runs]
    assert len(runs) == len(traj.hits) >= 30
    assert max(runs) <= 3


def test_near_tangential_hit_solves_exact_zeta(monkeypatch):
    """The hit time against zeta of the exact flow; every trial stays in its bracket.

    Unbounded, a secant step through two runs left of the root jumps out of
    the flow step the crossing lies on, here once to before t0, where a hit
    would be recorded at t0 without a zeta check.
    """
    sys0 = tangent_like()
    lam1 = sys0.lap.eigenvalues[0]
    horizon = record_step_calls(monkeypatch)
    traj = simulate(sys0, e1(sys0, np.sqrt(C_TANGENT)), T0_TANGENT, 1.5, seg_tol=1e-8)
    trials = [(run.t1, h.seg) for h in horizon for run in h.runs]
    assert [h.surface for h in traj.hits] == [1]
    th = traj.hits[0].time
    assert abs(th - 1.0 + C_TANGENT * np.exp(-2.0 * lam1 * (th - T0_TANGENT))) < 1e-10
    assert len(trials) > 3
    assert all(seg.t[0] < t1 < seg.t[1] for t1, seg in trials)


@pytest.mark.parametrize("case", ["moving", "tight"])
def test_hit_segment_shares_horizon_nodes_up_to_bracket(case, monkeypatch):
    """Each sharpening run starts at the bracket's left node i of its horizon
    segment, and the hit segment is that segment up to node i, bit for bit,
    then the last run."""
    build, amp, t0, t_end, seg_tol = SIMULATE_CASES[case]
    sys0 = build()
    horizon = record_step_calls(monkeypatch)
    traj = simulate(sys0, e1(sys0, amp), t0, t_end, seg_tol=seg_tol)
    hits = iter(traj.hits)
    assert traj.meta["n_segments"] == len(horizon)
    start = 0

    def next_piece(size):
        """The next ``size`` rows of the node table."""
        nonlocal start
        start += size
        return Segment(t=traj.nodes.t[start - size : start],
                       states=traj.nodes.states[start - size : start])

    lefts = []
    for h in horizon:
        if not h.runs:
            seg = next_piece(h.seg.t.size)
            assert np.array_equal(seg.t, h.seg.t) and np.array_equal(seg.states, h.seg.states)
            continue
        hit = next(hits)
        zeta = h.seg.t - sys0.tau(hit.surface, h.seg.states)
        i = int(np.flatnonzero((zeta[:-1] < 0.0) & (zeta[1:] >= 0.0))[0])
        lefts.append(i)
        seg = next_piece(i + h.runs[-1].seg.t.size)
        for run in h.runs:
            assert run.t0 == h.seg.t[i] and np.array_equal(run.x0, h.seg.states[i])
            assert run.h0 == h.seg.t[i + 1] - h.seg.t[i]
        assert np.array_equal(seg.t[: i + 1], h.seg.t[: i + 1])
        assert np.array_equal(seg.states[: i + 1], h.seg.states[: i + 1])
        assert np.array_equal(seg.t[i:], h.runs[-1].seg.t)
        assert np.array_equal(seg.states[i:], h.runs[-1].seg.states)
        assert seg.t[-1] == hit.time
    assert next(hits, None) is None and start == traj.nodes.t.size
    assert len(lefts) >= 2 and max(lefts) > 0


def test_unsharpened_hit_raises(monkeypatch):
    sys0 = moving_like()
    monkeypatch.setattr(impulsive, "_SHARPEN_RUNS", 1)
    with pytest.raises(EventLocationError, match="event_tol"):
        simulate(sys0, e1(sys0, 0.2), 0.5, 1.8, seg_tol=1e-8)


def test_simulate_makes_four_f_calls_per_trial_and_one_per_node(monkeypatch):
    """Counts, not timings, on a moving-moment run where no trial is rejected.

    A trial evaluates f four times (f(t, x) is shared by the full and the
    first half step and computed once per node), so a segment of n steps
    costs 5n f calls and n ``_phi_weights`` calls.  A sharpening run goes
    from the left node t_k of the bracketing step of the horizon segment,
    with that step h_k as its first trial step, and the trial hit time th
    clips it, so th - t_k <= h_k.  The error estimate scales as h^3, and
    h_k passed in this run, so the shorter step passes too: one trial and
    one step, 5 f calls per sharpening iteration.  Re-integrating from the
    segment start costs k more steps.
    """
    sys0 = moving_like()
    calls = {"f": 0, "trials": 0}
    f_spec = ImpulseSystemSpec.f
    phi_weights = impulsive._phi_weights

    def counted_f(self, t, x):
        calls["f"] += 1
        return f_spec(self, t, x)

    def counted_phi_weights(z):
        calls["trials"] += 1
        return phi_weights(z)

    monkeypatch.setattr(ImpulseSystemSpec, "f", counted_f)
    monkeypatch.setattr(impulsive, "_phi_weights", counted_phi_weights)
    horizon = record_step_calls(monkeypatch, calls)
    traj = simulate(sys0, e1(sys0, 0.2), 0.5, 3.8, seg_tol=1e-8)

    sharpen = [(h.seg, run) for h in horizon for run in h.runs]
    assert len(traj.hits) >= 30 and len(sharpen) >= len(traj.hits)
    steps = sum(h.seg.t.size - 1 for h in horizon)
    assert sum(h.counts["trials"] for h in horizon) == steps  # no rejected trial
    assert sum(h.counts["f"] for h in horizon) == 5 * steps
    starts = []
    for prev, run in sharpen:
        assert (run.counts["f"], run.counts["trials"]) == (5, 1)
        # the run is one step from a node of the horizon segment
        k = int(np.searchsorted(prev.t, run.t0))
        assert prev.t[k] == run.t0 and run.seg.t.size == 2
        starts.append(k)
    assert sum(starts) >= len(sharpen)
    assert calls["f"] == 4 * calls["trials"] + steps + len(sharpen)


# ---------------------------------------------------------------------------
# fast paths of a step-doubling trial, against the formulas they replace
# ---------------------------------------------------------------------------


def phi_weights_by_where(z):
    """The weights with series and closed forms merged by np.where on every entry."""
    z = np.asarray(z, dtype=float)
    ez = np.exp(-np.clip(z, -700.0, 700.0))
    small = np.abs(z) < 1e-4
    zs = np.where(small, 1.0, z)
    phi1 = np.where(small, 1.0 - z / 2.0 + z**2 / 6.0, (1.0 - ez) / zs)
    A = np.where(small, 0.5 - z / 3.0 + z**2 / 8.0, (1.0 - (1.0 + z) * ez) / zs**2)
    B = np.where(small, 0.5 - z / 6.0 + z**2 / 24.0, (z - 1.0 + ez) / zs**2)
    return ez, phi1, A, B


@pytest.mark.parametrize("case", ["mixed", "all_large", "all_small", "trial"])
def test_phi_weights_match_where_formulas(case):
    rng = np.random.default_rng(42)
    z = {
        "mixed": np.array([[-1e-4, -9.9e-5, 0.0, 1e-6, 9.99e-5, 1e-4],
                           [1e-3, -0.5, 2.0, 50.0, 650.0, -650.0]]),
        "all_large": rng.uniform(1e-3, 30.0, (3, 16)) * rng.choice([-1.0, 1.0], (3, 16)),
        "all_small": rng.uniform(-1e-4, 1e-4, (3, 16)),
        # the z of one trial on the moving instance at h = theta / 8
        "trial": moving_like().rates * np.array([0.0068, 0.0034, 0.0034])[:, None] + 1e-3,
    }[case]
    for got, ref in zip(impulsive._phi_weights(z), phi_weights_by_where(z)):
        assert got.shape == z.shape and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("build", [readme_like, moving_like])
def test_single_state_forcing_bit_equal_to_formula(build, monkeypatch):
    """f(t, x) = (a b)(t) project((rho - u) u), with one pointwise map for every call."""
    sys0 = build()
    rng = np.random.default_rng(43)
    w = sys0.lap.frac_weights(sys0.alpha)
    times = [0.0, 0.5, 1.2345, -3.0, 1e4, np.float64(2.5), 2]
    states = [0.3 * rng.standard_normal(sys0.lap.n_modes) / w for _ in times]
    refs = [
        sys0.ab(np.asarray(t)) * sys0.lap.nonlinear_image(x, lambda u: (sys0.rho - u) * u)
        for t, x in zip(times, states)
    ]
    maps = []
    image = DirichletLaplacian.nonlinear_image

    def recorded(self, x, pointwise_map):
        maps.append(pointwise_map)
        return image(self, x, pointwise_map)

    monkeypatch.setattr(DirichletLaplacian, "nonlinear_image", recorded)
    for t, x, ref in zip(times, states, refs):
        assert sys0.forcing(t, x).tobytes() == ref.tobytes()
        assert sys0.f(t, x).tobytes() == ref.tobytes()
    assert len(maps) == 2 * len(times) and all(m is maps[0] for m in maps)


@pytest.mark.parametrize("jump_map", sorted(JUMP_MAP_CATALOGUE) + ["left=None"])
def test_jump_g_keeps_the_input_shape(jump_map):
    n = 8
    if jump_map == "left=None":
        d = np.zeros(n)
        d[0] = 0.05
        jumps = JumpSpec(nonlinearity="relu", d=d)
    else:
        jumps = rank1_jumps(n, jump_map, 0.3, 0.05)
    sys0 = make_system(jumps=jumps)
    xs = 0.2 * np.random.default_rng(44).standard_normal((5, n))
    single = sys0.g(3, xs[0])
    assert single.shape == (n,) and single.flags.writeable
    assert not np.shares_memory(single, jumps.d)
    for batch in (xs, xs[:1], xs[:0]):
        g = sys0.g(3, batch)
        assert g.shape == batch.shape
        for row, x in zip(g, batch):
            assert np.allclose(row, sys0.g(3, x), rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("jump_map", sorted(JUMP_MAP_CATALOGUE) + ["left=None", "callable d"])
def test_jump_g_takes_one_state_row_per_index(jump_map):
    # an index array gives each state row its own g_j, amp_j and d_j
    n = 8
    rng = np.random.default_rng(45)
    amp = TrigSum(0.3, ((0.1, 0.7, 0.2),))
    kernel = dict(left=rng.standard_normal((2, n)), right=rng.standard_normal((2, n)), amp=amp)
    if jump_map == "left=None":
        jumps = JumpSpec(nonlinearity="relu", d=0.05 * rng.standard_normal(n))
    elif jump_map == "callable d":
        jumps = IndexedOffsetJumps(nonlinearity="tanh", offsets=lambda j: 0.01 * j * np.ones(n),
                                   **kernel)
    else:
        jumps = JumpSpec(nonlinearity=jump_map, d=0.05 * rng.standard_normal(n), **kernel)
    sys0 = make_system(jumps=jumps, window=(0, 20))
    js = np.array([3, 7, 7, 12, 0, 20])
    xs = 0.2 * rng.standard_normal((js.size, n))
    got = sys0.g(js, xs)
    ref = np.stack([sys0.g(int(j), x) for j, x in zip(js, xs)])
    assert got.shape == xs.shape
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert sys0.g(js[:0], xs[:0]).shape == (0, n)
