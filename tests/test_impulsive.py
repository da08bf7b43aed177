from dataclasses import dataclass

import numpy as np
import pytest
from scipy.optimize import brentq

from implab import impulsive
from implab.evolution import NonFiniteConstantError
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
    sys0 = make_system(f_override=lambda t: np.tile([50.0] + [0.0] * 7, (t.size, 1)))
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
    (cert,) = beating_certificate(sys0, [1], 64, [np.random.default_rng(0)])
    assert cert["verdict"] == "pass"
    assert cert["theta_check"] == pytest.approx(0.0, abs=1e-14)
    assert cert["P_check"] == pytest.approx(0.0, abs=1e-14)


def test_beta0_plugin_value():
    # l = 1, rho = 1, b == 0: beta0 = 0.5 / ((1 + 0)(1 + 1)) = 0.25 exactly
    sys0 = make_system(b=TrigSum())
    (cert,) = beating_certificate(sys0, [1], 16, [np.random.default_rng(0)])
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
        certs = beating_certificate(sys0, sys0.indices, 512,
                                    [np.random.default_rng([7, 3, j]) for j in sys0.indices])
        for j, cert in zip(map(int, sys0.indices), certs):
            b_j = slope(sys0, j)
            assert b_j <= 0.0
            x, _ = _nonnegative_samples(sys0, np.random.default_rng([7, 3, j]).random((512, 5)))
            assert x.shape[0] >= 1 and sys0.in_ball(x)
            assert cert["surface"] == j
            bound = 2.0 * abs(b_j) * chain
            assert bound < 1.0
            assert cert["verdict"] == "pass" and cert["theta_check"] <= 1e-10, (build.__name__, j)
            assert cert["P_check"] <= bound, (build.__name__, j, cert["P_check"], bound)


def test_simulate_certified_no_beating():
    sys0 = certified_logistic(window=(1, 6))
    certs = beating_certificate(sys0, range(1, 7), 64,
                                [np.random.default_rng(32) for _ in range(6)])
    assert all(c["verdict"] == "pass" for c in certs)
    traj = simulate(sys0, 0.2 * e1(sys0), 0.5, 6.5, seg_tol=1e-8)
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


class FixedDraws:
    """A stand-in Generator whose ``random`` returns the given rows."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)

    def random(self, shape):
        assert shape == self.rows.shape
        return self.rows.copy()


def assert_matches_per_sample_loop(sys0, certs, js, n_samples, rng_of):
    """Each record of a batched call against ``certificate_by_sample`` on its surface alone."""
    assert [c["surface"] for c in certs] == list(js)
    for j, cert in zip(js, certs):
        theta, p_val, beta0, count = certificate_by_sample(sys0, j, n_samples, rng_of(j))
        assert cert["n_samples"] == count
        assert (cert["verdict"] == "pass") == bool(theta <= 1e-10 and p_val < 1.0)
        assert cert["beta0"] == beta0
        if count == 0:
            assert cert["theta_check"] == theta == -np.inf
            assert cert["P_check"] == p_val == -np.inf
            continue
        assert cert["theta_check"] == pytest.approx(theta, rel=1e-13, abs=1e-15)
        assert cert["P_check"] == pytest.approx(p_val, rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("build", [readme_like, make_system, certified_logistic])
@pytest.mark.parametrize("n_samples", [0, 8, 256])
def test_batched_certificate_matches_per_sample_loop(build, n_samples):
    # js = 1..4 in one call: one group at 8 samples, two groups of two at 256 (the
    # boundary between surfaces 2 and 3), and at 0 samples every surface gives -inf
    sys0 = build()
    js = (1, 2, 3, 4)
    certs = beating_certificate(sys0, js, n_samples,
                                [np.random.default_rng([34, j]) for j in js])
    assert_matches_per_sample_loop(sys0, certs, js, n_samples,
                                   lambda j: np.random.default_rng([34, j]))
    if n_samples == 0:
        assert all(c["theta_check"] == c["P_check"] == -np.inf for c in certs)


@pytest.mark.parametrize("n_samples", [8, 256])
def test_batched_certificate_with_a_surface_that_keeps_no_sample(n_samples):
    # surface 2 draws all-zero weights and surface 3 some: their rows are dropped, and in
    # its group surface 2 gives -inf with no error, as an empty set does
    sys0 = readme_like()
    js = (1, 2, 3, 4)
    some = np.random.default_rng(5).random((n_samples, 5))
    some[::2, :4] = 0.0
    draws = {2: np.zeros((n_samples, 5)), 3: some}

    def rng_of(j):
        return FixedDraws(draws[j]) if j in draws else np.random.default_rng([35, j])

    certs = beating_certificate(sys0, js, n_samples, [rng_of(j) for j in js])
    assert certs[1]["n_samples"] == 0 and certs[1]["theta_check"] == -np.inf
    assert certs[2]["n_samples"] == n_samples // 2
    assert_matches_per_sample_loop(sys0, certs, js, n_samples, rng_of)


def test_batched_certificate_names_the_lowest_overflowing_surface():
    # surfaces 2 and 3 of one group jump by 1e308: Q(x + g_j(x)) overflows on both, and
    # their theta_check = -inf would pass
    d_big = np.full(8, 1e308)
    jumps = IndexedOffsetJumps(offsets=lambda j: d_big if j in (2, 3) else np.zeros(8))
    sys0 = make_system(slopes=TrigSum(-0.2), jumps=jumps)
    with pytest.raises(NonFiniteConstantError, match="surface 2 certificate"):
        beating_certificate(sys0, (1, 2, 3, 4), 8, [np.random.default_rng(j) for j in range(4)])
    (cert,) = beating_certificate(sys0, [4], 8, [np.random.default_rng(0)])
    assert cert["verdict"] == "pass"


def test_batched_certificate_rejects_a_surface_outside_the_window():
    # with no sample drawn there is no row whose tau could reject the index
    sys0 = make_system(window=(0, 8))
    for outside in ([0, 9], [-1]):
        with pytest.raises(ValueError, match="surface window"):
            beating_certificate(sys0, outside, 0, [np.random.default_rng(0)] * len(outside))


@pytest.mark.parametrize(
    "build", [systems.readme_like, systems.moving_like, certified_logistic]
)
@pytest.mark.parametrize("n_samples", [1, 512])
def test_coefficient_space_samples_match_physical_space(build, n_samples):
    """The projected shape table gives the samples built on the grid, to rounding."""
    sys0 = build()
    for seed in (0, 1, 2):
        got, _ = _nonnegative_samples(sys0, np.random.default_rng(seed).random((n_samples, 5)))
        ref = samples_in_physical_space(sys0, n_samples, np.random.default_rng(seed))
        assert got.shape == ref.shape and got.shape[0] >= 1
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# one-evaluation trials and bracketed sharpening against the re-integrating loop
# ---------------------------------------------------------------------------


def step_by_doubling(system, t, x, h, seg_tol, stats=None):
    """Reference: one accepted step, three independent ETD2 steps per trial.

    Returns (h, state at t + h, next first trial step); ``stats`` counts the
    rejected trials.
    """
    while True:
        coarse = _etd2_step(system, t, h, x)
        half = _etd2_step(system, t, h / 2.0, x)
        fine = _etd2_step(system, t + h / 2.0, h / 2.0, half)
        err = float(np.linalg.norm(fine - coarse)) / 3.0
        if err < seg_tol or h < 1e-12:
            return h, fine, h * min(4.0, max(0.25, 0.9 * (seg_tol / max(err, 1e-300)) ** (1.0 / 3.0)))
        if stats is not None:
            stats["rejected"] += 1
        h *= max(0.25, 0.9 * (seg_tol / max(err, 1e-300)) ** (1.0 / 3.0))


def segment_by_doubling(system, x0, t0, t1, seg_tol, h_max=np.inf, stats=None, h0=0.05):
    """Reference: ``step_by_doubling`` from t0 to t1; ``h0`` is the first trial step.

    The last node time is t1.
    """
    x = np.asarray(x0, dtype=float)
    t, h = t0, h0
    nodes, states = [t0], [x]
    while t < t1 - 1e-13 * max(1.0, abs(t1)) or len(nodes) == 1:
        step, x, h = step_by_doubling(system, t, x, min(h, t1 - t, h_max), seg_tol, stats)
        t = t + step
        nodes.append(t)
        states.append(x)
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

    Steps run from t0 to t_end with the step size carried across jumps and
    capped at max(theta / 2, 1e-3); each step (t_i, t_{i+1}] is searched by
    the closed-form root.  A hit time is sharpened by secant steps, the
    first through the step's right node; an iterate outside the bracket
    (t_i, t_{i+1}), shrunk by the sign of each run's zeta, is replaced by
    the bracket's midpoint.  Each run re-integrates from (t_i, x_i) with the
    step as its first trial step, and the piece ends with the last run.
    Returns the pieces between the hits, and the hits.
    """
    lo, hi = system.intervals
    h_max = max(system.theta / 2.0, 1e-3)
    stop = t_end - 1e-13 * max(1.0, abs(t_end))
    x, t, h = np.asarray(u0, dtype=float), float(t0), 0.05
    piece_t, piece_x = [t], [x]
    segments, hits, last_hit = [], [], None
    while t < stop:
        step, x1, h = step_by_doubling(system, t, x, min(h, t_end - t, h_max), seg_tol, stats)
        t1 = t_end if t + step >= stop else t + step
        seg = Segment(t=[t, t1], states=[x, x1])
        best = None
        for j in system.indices[(hi >= t - event_tol) & (lo <= t1 + event_tol)]:
            found = crossing_by_quadratic(system, seg, j)
            if found is None:
                continue
            th = found[0]
            if last_hit is not None and int(j) == last_hit[0] and th <= last_hit[1] + 10.0 * event_tol:
                continue
            if best is None or th < best[0]:
                best = (th, int(j))
        if best is None:
            piece_t.append(t1)
            piece_x.append(x1)
            t, x = t1, x1
            continue
        th, j = best
        a, b = t, t1
        pre, last = x, (t1, t1 - system.tau(j, x1))
        for _ in range(40):
            if th - t <= 1e-12:
                th, run, pre = t, None, x
                break
            run = segment_by_doubling(system, x, t, th, seg_tol, h_max, stats, h0=step)
            pre = run.states[-1]
            zeta = th - system.tau(j, pre)
            if abs(zeta) < event_tol:
                break
            if zeta < 0.0:
                a = th
            else:
                b = th
            if zeta == last[1]:
                th_next = th - zeta
            else:
                th_next = th - zeta * (th - last[0]) / (zeta - last[1])
            last = (th, zeta)
            th = th_next if a < th_next < b else 0.5 * (a + b)
        else:
            raise AssertionError("hit time not sharpened to event_tol")
        if run is not None:
            piece_t += list(run.t[1:])
            piece_x += list(run.states[1:])
        segments.append(Segment(t=piece_t, states=piece_x))
        post = apply_jump(system, j, pre)
        last_hit = (j, th)
        hits.append((th, j, pre, post))
        t, x = th, post
        piece_t, piece_x = [t], [x]
    segments.append(Segment(t=piece_t, states=piece_x))
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
    """Each hit time is repeated in the node table, and no other time; the
    table ends at t_end exactly, and a hit time evaluates to its pre-jump state."""
    build, amp, t0, t_end, seg_tol = SIMULATE_CASES[case]
    sys0 = build()
    traj = simulate(sys0, e1(sys0, amp), t0, t_end, seg_tol=seg_tol)
    steps = np.diff(traj.nodes.t)
    assert np.count_nonzero(steps == 0.0) == traj.meta["n_segments"] - 1 == len(traj.hits)
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
    """One step_segment call of simulate, a sharpening run: its arguments and result."""

    x0: np.ndarray
    t0: float
    t1: float
    h0: float
    f0: np.ndarray
    seg: Segment
    counts: dict  # increments of the recorder's counters during the call


def record_step_calls(monkeypatch, counters=None):
    """simulate's step_segment calls, as one list of sharpening runs per hit.

    Every call is a run, and the runs of one hit start at the same node.
    ``counters`` is a dict of counts that other patches raise; each call
    records by how much.
    """
    hits = []
    counters = {} if counters is None else counters
    step = impulsive.step_segment

    def recorded(system, x0, t0, t1, *args, **kwargs):
        before = dict(counters)
        seg = step(system, x0, t0, t1, *args, **kwargs)
        call = StepCall(x0, t0, t1, kwargs["h0"], kwargs["f0"], seg,
                        {k: counters[k] - before[k] for k in counters})
        if not hits or hits[-1][0].t0 != t0:
            hits.append([])
        hits[-1].append(call)
        return seg

    monkeypatch.setattr(impulsive, "step_segment", recorded)
    return hits


def record_steps(monkeypatch):
    """The two-node segments that detect_crossing searches, by left node time."""
    steps = {}
    detect = impulsive.detect_crossing

    def recorded(system, seg, j):
        steps[seg.t[0]] = seg
        return detect(system, seg, j)

    monkeypatch.setattr(impulsive, "detect_crossing", recorded)
    return steps


def test_sharpening_takes_three_runs_per_hit(monkeypatch):
    """The secant steps reach event_tol in three re-integrations per hit.

    The first secant runs through the exact zeta at the step's right node;
    a fixed-point first step needed a 4th run on a third of these hits.
    """
    sys0 = moving_like()
    runs = record_step_calls(monkeypatch)
    traj = simulate(sys0, e1(sys0, 0.2), 0.5, 3.8, seg_tol=1e-8)
    assert len(runs) == len(traj.hits) >= 30
    assert max(len(hit) for hit in runs) <= 3


def test_near_tangential_hit_solves_exact_zeta(monkeypatch):
    """The hit time against zeta of the exact flow; every trial stays in its bracket.

    Unbounded, a secant step through two runs left of the root jumps out of
    the flow step the crossing lies on, here once to before t0, where a hit
    would be recorded at t0 without a zeta check.
    """
    sys0 = tangent_like()
    lam1 = sys0.lap.eigenvalues[0]
    runs = record_step_calls(monkeypatch)
    steps = record_steps(monkeypatch)
    traj = simulate(sys0, e1(sys0, np.sqrt(C_TANGENT)), T0_TANGENT, 1.5, seg_tol=1e-8)
    trials = [(run.t1, steps[run.t0]) for hit in runs for run in hit]
    assert [h.surface for h in traj.hits] == [1]
    th = traj.hits[0].time
    assert abs(th - 1.0 + C_TANGENT * np.exp(-2.0 * lam1 * (th - T0_TANGENT))) < 1e-10
    assert len(trials) > 3
    assert all(seg.t[0] < t1 < seg.t[1] for t1, seg in trials)


@pytest.mark.parametrize("case", ["moving", "tight"])
def test_hit_piece_ends_with_its_last_run(case, monkeypatch):
    """Each sharpening run starts at the bracket's left node (t_i, x_i) of the
    node table, with f(t_i, x_i) passed in and the step as its first trial
    step; the table goes on with the last run's nodes, bit for bit, and the
    hit time repeats with the post-jump state."""
    build, amp, t0, t_end, seg_tol = SIMULATE_CASES[case]
    sys0 = build()
    runs = record_step_calls(monkeypatch)
    steps = record_steps(monkeypatch)
    traj = simulate(sys0, e1(sys0, amp), t0, t_end, seg_tol=seg_tol)
    t, states = traj.nodes.t, traj.nodes.states
    cuts = np.flatnonzero(np.diff(t) == 0.0)
    assert len(runs) == len(traj.hits) == cuts.size >= 2
    prev = -1
    for hit, cut, hit_runs in zip(traj.hits, cuts, runs, strict=True):
        last = hit_runs[-1].seg
        i = cut - (last.t.size - 1)  # the bracket's left node
        assert i > prev
        assert np.array_equal(t[i : cut + 1], last.t)
        assert np.array_equal(states[i : cut + 1], last.states)
        assert t[cut] == t[cut + 1] == hit.time
        assert np.array_equal(states[cut], hit.pre) and np.array_equal(states[cut + 1], hit.post)
        for run in hit_runs:
            assert run.t0 == t[i] and np.array_equal(run.x0, states[i])
            assert np.array_equal(run.f0, sys0.f(run.t0, run.x0))
            assert run.t0 + run.h0 == steps[run.t0].t[1]
        prev = cut + 1
    assert traj.meta["n_segments"] == len(traj.hits) + 1


@pytest.mark.parametrize("build, t_end, bound", [(moving_like, 3.8, 2e-8), (readme_like, 9.5, 1e-10)])
def test_hit_times_converge_with_seg_tol(build, t_end, bound):
    """The hit times at the default seg_tol against a seg_tol = 1e-13 run.

    The same surfaces are hit in the same order.  Measured max |dt|: 5.8e-9
    on moving_like, 2.2e-11 on readme_like; each bound leaves a factor of
    3.4 and 4.6 over it.
    """
    sys0 = build()
    coarse = simulate(sys0, e1(sys0, 0.2), 0.5, t_end)
    fine = simulate(sys0, e1(sys0, 0.2), 0.5, t_end, seg_tol=1e-13)
    assert len(coarse.hits) >= 9
    assert [h.surface for h in coarse.hits] == [h.surface for h in fine.hits]
    assert np.max(np.abs(coarse.hit_times() - fine.hit_times())) < bound


def test_unsharpened_hit_raises(monkeypatch):
    sys0 = moving_like()
    monkeypatch.setattr(impulsive, "_SHARPEN_RUNS", 1)
    with pytest.raises(EventLocationError, match="event_tol"):
        simulate(sys0, e1(sys0, 0.2), 0.5, 1.8, seg_tol=1e-8)


def test_simulate_makes_four_f_calls_per_trial_and_one_per_node(monkeypatch):
    """Counts, not timings, on a moving-moment run.

    A trial evaluates f four times (f(t, x) is shared by the full and the
    first half step), and the main loop evaluates f once at the left node
    of each of its accepted steps.  A sharpening run from (t_i, x_i) takes
    f(t_i, x_i) from the step that found the hit, so a run of n steps makes
    4 f calls per trial and n - 1 at its inner nodes.
    """
    sys0 = moving_like()
    calls = {"f": 0, "trials": 0, "steps": 0}
    f_spec = ImpulseSystemSpec.f
    phi_weights = impulsive._phi_weights
    accepted_step = impulsive._accepted_step

    def counted_f(self, t, x):
        calls["f"] += 1
        return f_spec(self, t, x)

    def counted_phi_weights(z):
        calls["trials"] += 1
        return phi_weights(z)

    def counted_step(*args):
        calls["steps"] += 1
        return accepted_step(*args)

    monkeypatch.setattr(ImpulseSystemSpec, "f", counted_f)
    monkeypatch.setattr(impulsive, "_phi_weights", counted_phi_weights)
    monkeypatch.setattr(impulsive, "_accepted_step", counted_step)
    hits = record_step_calls(monkeypatch, calls)
    traj = simulate(sys0, e1(sys0, 0.2), 0.5, 3.8, seg_tol=1e-8)

    runs = [run for hit in hits for run in hit]
    assert len(hits) == len(traj.hits) >= 30
    for run in runs:
        assert run.counts["f"] == 4 * run.counts["trials"] + run.counts["steps"] - 1
    main_steps = calls["steps"] - sum(run.counts["steps"] for run in runs)
    inner_nodes = sum(run.counts["steps"] - 1 for run in runs)
    assert calls["f"] == 4 * calls["trials"] + main_steps + inner_nodes
    # the table: t0 and one node per main step, where the step that finds a
    # hit gives way to the last run's nodes and the post-jump state
    assert traj.nodes.t.size == 1 + main_steps + sum(hit[-1].counts["steps"] for hit in hits)
    # 1,950 here; theta / 2 horizons with steps capped at theta / 8 took 3,140
    assert calls["f"] <= 2200


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
        # the z of one trial on the moving instance at h = 0.0068
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
        assert sys0.f(t, x).tobytes() == ref.tobytes()
    assert len(maps) == len(times) and all(m is maps[0] for m in maps)


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
