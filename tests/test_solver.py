import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from implab.evolution import LinearCoefficient, fit_dichotomy, k_bundle
from implab import evolution
from implab.impulsive import ImpulseSystemSpec, JumpSpec, _phi_weights
from implab.solver import (
    APSequencePoint,
    SolverConfig,
    _build_inner_grid,
    _recursion_pass,
    certify_almost_periodicity,
    frozen_times,
    inner_solve,
    integral_residual,
    measure_lipschitz,
    outer_solve,
    poincare_map,
    verify_smallness,
)
from implab.spectral import DirichletLaplacian
from implab.trig import SeqGen, TrigSum

from oracles import bounded_solution, measure_lipschitz_by_pair
from systems import make_system, moving_like, readme_like


def const_d(n, c=0.02):
    d = np.zeros(n)
    d[0] = c
    return d


CFG = SolverConfig(h_t=0.005)


def pieces_by_loop(system, cuts, t_lo, t_hi, h_t):
    """Nodes and (E, A h, B h) of each piece, built one piece at a time."""
    edges = np.concatenate(([t_lo], cuts, [t_hi]))
    rates = system.coeff.rates(system.lap)
    m = system.coeff.m
    grids, factors = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        n = max(1, int(np.ceil((b - a) / h_t)))
        t_nodes = np.linspace(a, b, n + 1)
        h = np.diff(t_nodes)
        z = rates[None, :] * h[:, None] + (
            m.antiderivative(t_nodes[1:]) - m.antiderivative(t_nodes[:-1])
        )[:, None]
        E, _, A, B = _phi_weights(z)
        grids.append(t_nodes)
        factors.append((E, A * h[:, None], B * h[:, None]))
    return grids, factors


def recursion_by_node(dich, grids, factors, f_vals, jumps):
    """The per-node sweep over the pieces that the blocked scan replaced."""
    stable = ~dich.unstable
    n_modes = stable.size
    out = [np.zeros((g.size, n_modes)) for g in grids]
    if np.any(stable):
        state = np.zeros(n_modes)
        for p, (t_nodes, (E, Ah, Bh)) in enumerate(zip(grids, factors)):
            if p > 0:
                state = state + np.where(stable, jumps[p - 1], 0.0)
            out[p][0][stable] = state[stable]
            fv = f_vals[p]
            for i in range(t_nodes.size - 1):
                state = E[i] * state + Ah[i] * fv[i] + Bh[i] * fv[i + 1]
                out[p][i + 1][stable] = state[stable]
    if dich.has_unstable:
        state = np.zeros(n_modes)
        for p in range(len(grids) - 1, -1, -1):
            E, Ah, Bh = factors[p]
            fv = f_vals[p]
            if p < len(grids) - 1:
                state = state - np.where(dich.unstable, jumps[p], 0.0)
            out[p][-1][dich.unstable] += state[dich.unstable]
            for i in range(grids[p].size - 2, -1, -1):
                state = (state - Ah[i] * fv[i] - Bh[i] * fv[i + 1]) / E[i]
                out[p][i][dich.unstable] += state[dich.unstable]
    return out


def scan_case(name):
    if name == "unstable":
        # mode 1 shifted below zero, as in the Definition 2.2(iv) check
        lap = DirichletLaplacian(l=1.0, n_modes=4)
        sigma = np.zeros(4)
        sigma[0] = -lap.eigenvalues[0] - 2.0
        coeff = LinearCoefficient(m=TrigSum(0.0, ((0.3, 1.0, 0.0),)), per_mode_shift=sigma)
        system = SimpleNamespace(lap=lap, coeff=coeff, rates=coeff.rates(lap))
        return system, 0.005, (0.0, 8.0)
    if name == "stiff":
        # z reaches 500 in one step on the top mode: one step per scan block
        return make_system(n_modes=32, window=(0, 8)), 0.05, (-2.0, 9.0)
    return make_system(window=(0, 8)), 0.005, (-3.0, 11.0)


@pytest.mark.parametrize("name", ["stable", "stiff", "unstable"])
def test_recursion_scan_matches_node_loop(name):
    system, h_t, (t_lo, t_hi) = scan_case(name)
    n = system.lap.n_modes
    dich = fit_dichotomy(system.lap, system.coeff, rng=np.random.default_rng(60))
    assert dich.has_unstable == (name == "unstable")
    # a cut next to each window edge and two one-step pieces
    cuts = np.array([t_lo + 1e-3, 0.5, 0.5 + 0.3 * h_t, 0.5 + 0.9 * h_t, 3.25, t_hi - 2e-3])
    rng = np.random.default_rng(61)
    jumps = rng.standard_normal((cuts.size, n)) * 0.1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ig = _build_inner_grid(system, dich, cuts, t_lo, t_hi, h_t)
        f_vals = rng.standard_normal((ig.t.size, n))
        got = _recursion_pass(ig, f_vals, jumps)
    grids, factors = pieces_by_loop(system, cuts, t_lo, t_hi, h_t)
    # the backward sweep of the node loop divides the stable coordinates by
    # E too, where they overflow; only its unstable coordinates are read
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.concatenate(
            recursion_by_node(dich, grids, factors, ig.split(f_vals), jumps)
        )
    assert [g.size for g in ig.split(ig.t)][2:4] == [2, 2]
    # the flat grid holds the per-piece nodes and weights bit for bit
    assert np.array_equal(ig.t, np.concatenate(grids))
    assert np.array_equal(np.delete(ig.Ah, ig.joins, axis=0), np.concatenate([f[1] for f in factors]))
    assert np.array_equal(np.delete(ig.Bh, ig.joins, axis=0), np.concatenate([f[2] for f in factors]))
    assert np.all(ig.Ah[ig.joins] == 0.0) and np.all(ig.Bh[ig.joins] == 0.0)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_inner_solve_zero_data():
    sys0 = make_system(window=(0, 8))
    dich = fit_dichotomy(sys0.lap, sys0.coeff, rng=np.random.default_rng(40))
    y = APSequencePoint.zero((0, 8), 8)
    traj, info = inner_solve(sys0, dich, y, (0.0, 8.0), CFG)
    assert info["iterations"] <= 2
    _, states = traj.all_nodes()
    assert np.max(np.abs(states)) == 0.0


def test_inner_solve_matches_bounded_solution():
    # frozen forcing + constant jumps: the recursion route must agree with
    # the direct Simpson route of the bounded_solution oracle
    n = 8
    d = const_d(n, 0.02)

    def profile(t):
        out = np.zeros(n)
        out[0] = 0.3 * np.cos(0.7 * t)
        out[1] = 0.1 * np.sin(1.3 * t)
        return out

    sys0 = make_system(jumps=JumpSpec(d=d), f_override=profile, window=(0, 6))
    dich = fit_dichotomy(sys0.lap, sys0.coeff, rng=np.random.default_rng(41))
    y = APSequencePoint.zero((0, 6), n)
    cfg = SolverConfig(h_t=0.002)
    traj, info = inner_solve(sys0, dich, y, (0.0, 6.0), cfg)

    jumps = [(float(t), d) for t in info["frozen_times"]]
    ref = bounded_solution(sys0.lap, sys0.coeff, dich, profile, jumps,
                           window=(0.0, 6.0), h_t=0.002)
    probe = np.linspace(0.05, 5.95, 41)
    disc = max(
        sys0.lap.frac_norm(traj.eval(t) - ref.eval(t), 0.5) for t in probe
    )
    assert disc < 1e-6
    # both satisfy the jump condition
    assert ref.meta["jump_defect"] < 1e-10
    for tj, g in jumps:
        pre = traj.eval(tj)
        post = traj.eval(tj + 1e-12)  # right-limit node opens the next piece
        seg_start = [s for s in traj.segments if abs(s.t[0] - tj) < 1e-9]
        assert seg_start
        assert np.max(np.abs(seg_start[0].states[0] - pre - g)) < 1e-10


def test_inner_solve_unstable_mode_closed_form():
    # constant a with mean above lambda_1: mode 1 unstable, f identically 0
    n = 4
    d = const_d(n, 0.05)
    sys0 = make_system(n_modes=n, a=TrigSum(11.0), window=(0, 2), base_gap=3.0,
                       jumps=JumpSpec(d=d))
    dich = fit_dichotomy(sys0.lap, sys0.coeff, rng=np.random.default_rng(42))
    assert dich.has_unstable
    y = APSequencePoint.zero((0, 2), n)
    traj, info = inner_solve(sys0, dich, y, (0.0, 6.0), CFG)
    mu1 = sys0.lap.eigenvalues[0] - 11.0  # < 0
    # bounded branch: u_1(t) = -sum_{tau >= t} e^{-mu1 (t - tau)} d_1
    for t in (0.5, 2.0, 4.0):
        ref = -sum(0.05 * np.exp(-mu1 * (t - tau)) for tau in info["frozen_times"]
                   if tau >= t)
        assert abs(traj.eval(t)[0] - ref) < 1e-7


def test_integral_residual_small():
    n = 8
    left = np.zeros((1, n))
    left[0, 0] = 1.0
    jumps = JumpSpec(left=left, right=left.copy(), nonlinearity="tanh",
                     amp=SeqGen.constant(0.02), d=const_d(n, 0.02))
    sys0 = make_system(b=TrigSum(0.1, ((0.05, np.sqrt(2.0), 0.0),)),
                       jumps=jumps, window=(0, 6))
    dich = fit_dichotomy(sys0.lap, sys0.coeff, rng=np.random.default_rng(43))
    y = APSequencePoint.zero((0, 6), n)
    cfg = SolverConfig(h_t=0.002)
    traj, info = inner_solve(sys0, dich, y, (0.0, 6.0), cfg)
    res = integral_residual(sys0, dich, traj, y, times=(1.5, 3.5, 5.5), h_t=0.002)
    assert res < 1e-6


def test_poincare_zero_map():
    sys0 = make_system(window=(0, 8))
    dich = fit_dichotomy(sys0.lap, sys0.coeff, rng=np.random.default_rng(44))
    rng = np.random.default_rng(45)
    w = sys0.lap.frac_weights(0.5)
    vals = rng.standard_normal((9, 8)) / w * 0.1
    y = APSequencePoint(window=(0, 8), values=vals)
    s_y, _, _ = poincare_map(sys0, dich, y, (0.0, 8.0), CFG)
    assert np.max(np.abs(s_y.values)) == 0.0  # f == 0 and g == 0


def test_outer_solve_zero_data():
    sys0 = make_system(window=(0, 6))
    dich = fit_dichotomy(sys0.lap, sys0.coeff, rng=np.random.default_rng(46))
    res = outer_solve(sys0, dich, (0.0, 6.0), cfg=CFG)
    assert np.max(np.abs(res.y_star.values)) == 0.0
    _, states = res.trajectory.all_nodes()
    assert np.max(np.abs(states)) == 0.0


def periodic_system(q=4, window=(0, 24)):
    # every ingredient shares the time period 2: a, b have frequency pi, the
    # impulse lattice has gap 1/2 (so q = 4 surfaces per period) and the jump
    # modulation amp_j has period q in the index
    n = 8
    left = np.zeros((1, n))
    left[0, 0] = 1.0
    amp = SeqGen(freqs=(2.0 * np.pi / q,), amps=(0.3,), phases=(0.0,), offset=1.0)
    jumps = JumpSpec(left=left, right=left.copy(), nonlinearity="tanh",
                     amp=amp, d=const_d(n, 0.2))
    return make_system(
        a=TrigSum(0.5, ((0.2, np.pi, 0.0),)),
        b=TrigSum(0.1, ((0.05, np.pi, 0.2),)),
        base_gap=0.5,
        window=window,
        jumps=jumps,
    )


def test_outer_solve_periodic_reduction():
    q = 4
    sys0 = periodic_system(q=q)
    dich = fit_dichotomy(sys0.lap, sys0.coeff, rng=np.random.default_rng(47))
    res = outer_solve(sys0, dich, (2.0, 10.0), cfg=CFG)
    yv = res.y_star.values
    # pre-jump values are genuinely nonzero here
    assert np.max(np.abs(yv)) > 1e-4
    shift_dev = np.max(np.abs(yv[q:] - yv[:-q]))
    assert shift_dev < 1e-7
    assert res.steps[-1] < CFG.outer_tol
    assert res.meta["hit_consistency"] < 1e-10  # slopes are zero here


def test_verify_smallness_linear_instance():
    # b == 0 (f == 0), constant jumps, fixed moments: N1 = 0
    n = 8
    sys0 = make_system(jumps=JumpSpec(d=const_d(n, 0.02)), window=(0, 8))
    dich = fit_dichotomy(sys0.lap, sys0.coeff, alpha=0.5,
                         rng=np.random.default_rng(48))
    theta = sys0.theta
    gc = sys0.gap_constant
    kb = k_bundle(0.5, dich, theta, gc["value"], g_star=0.1)
    measured = measure_lipschitz(sys0, rng=np.random.default_rng(49))
    assert measured["N1"] < 1e-12
    rep = verify_smallness(sys0, kb, measured["N1"], measured["M0"],
                           rng=np.random.default_rng(50))
    assert rep.all_pass
    assert rep.L_dprime == pytest.approx(kb.K4)


def test_verify_smallness_overloaded():
    n = 8
    sys0 = make_system(jumps=JumpSpec(d=const_d(n, 5.0)), window=(0, 8))
    dich = fit_dichotomy(sys0.lap, sys0.coeff, alpha=0.5,
                         rng=np.random.default_rng(51))
    theta = sys0.theta
    kb = k_bundle(0.5, dich, theta, 2.0)
    measured = measure_lipschitz(sys0, rng=np.random.default_rng(52))
    rep = verify_smallness(sys0, kb, measured["N1"], measured["M0"],
                           rng=np.random.default_rng(53))
    assert not rep.check_KM0


LIPSCHITZ_CASES = {
    "readme": readme_like,
    "moving": moving_like,
    # zero jump map: g_j is its offset whatever the state
    "constant_jumps": lambda: make_system(jumps=JumpSpec(d=const_d(8)), window=(0, 8)),
    "f_override": lambda: make_system(
        f_override=lambda t: 0.1 * np.cos(t) * np.ones(8), slopes=SeqGen.constant(-0.2)
    ),
}


@pytest.mark.parametrize("name", sorted(LIPSCHITZ_CASES))
def test_measure_lipschitz_matches_per_pair_loop(name):
    # a batch of states rounds differently from single states, except for tau
    system = LIPSCHITZ_CASES[name]()
    rng, rng_ref = np.random.default_rng(61), np.random.default_rng(61)
    got = measure_lipschitz(system, rng=rng)
    ref = measure_lipschitz_by_pair(system, rng=rng_ref)
    assert got["lip_tau"] == ref["lip_tau"]
    for key in ("lip_f", "lip_g", "N1", "M0", "g_star"):
        assert got[key] == pytest.approx(ref[key], rel=1e-12, abs=0.0), key
    assert rng.random() == rng_ref.random()


def test_fits_batch_green_factor_and_forcing_calls(monkeypatch):
    calls = {"green": 0, "forcing": 0}
    green, forcing = evolution._green_factor, ImpulseSystemSpec.forcing

    def counted_green(*args, **kwargs):
        calls["green"] += 1
        return green(*args, **kwargs)

    def counted_forcing(self, t, x):
        calls["forcing"] += 1
        return forcing(self, t, x)

    monkeypatch.setattr(evolution, "_green_factor", counted_green)
    monkeypatch.setattr(ImpulseSystemSpec, "forcing", counted_forcing)
    system = readme_like()
    fit_dichotomy(system.lap, system.coeff, rng=np.random.default_rng(62))
    assert calls == {"green": 2, "forcing": 0}
    measure_lipschitz(system, rng=np.random.default_rng(63))
    assert calls["green"] == 2 and 1 <= calls["forcing"] <= 3


def test_certify_almost_periodicity_periodic():
    q = 4
    sys0 = periodic_system(q=q)
    dich = fit_dichotomy(sys0.lap, sys0.coeff, rng=np.random.default_rng(54))
    res = outer_solve(sys0, dich, (2.0, 10.0), cfg=CFG)
    report = certify_almost_periodicity(sys0, res, eps_list=(1e-4,), h_t=0.004)
    entry = report[1e-4]
    periods = [int(p) for p in entry["sequence"]["periods"].split()]
    assert 0 in periods and q in periods
    assert all(p % q == 0 for p in periods)
    assert entry["q"] != "none"
    assert entry["wexler_deviation"] < 1e-4


def test_sequence_point_validation():
    with pytest.raises(ValueError):
        APSequencePoint(window=(0, 3), values=np.zeros((3, 5)))
    y = APSequencePoint.zero((0, 3), 5)
    z = APSequencePoint(window=(0, 3), values=np.ones((4, 5)))
    from implab.spectral import DirichletLaplacian

    lap = DirichletLaplacian(n_modes=5)
    assert y.dist(z, lap, 0.0) == pytest.approx(np.sqrt(5.0))


@pytest.mark.parametrize("window", [(7, 142), (0, 150)])
def test_frozen_times_bit_equal_to_per_surface_loop(window):
    """One expression over the surfaces' arrays, against tau_j(y_j) one j at a time."""
    sys0 = moving_like()
    n = sys0.lap.n_modes
    rng = np.random.default_rng(45)
    count = window[1] - window[0] + 1
    x = rng.standard_normal((count, n)) / sys0.lap.frac_weights(sys0.alpha)
    x *= rng.uniform(0.0, sys0.rho, (count, 1)) / sys0.lap.frac_norm(x, sys0.alpha)[:, None]
    y = APSequencePoint(window=window, values=x)
    ref = np.array([sys0.tau(j, y.value(j)) for j in range(window[0], window[1] + 1)])
    assert frozen_times(sys0, y).tobytes() == ref.tobytes()


@pytest.mark.parametrize("window", [(-1, 5), (140, 151)])
def test_frozen_times_reject_a_window_outside_the_surfaces(window):
    sys0 = moving_like()
    with pytest.raises(ValueError, match="surface window"):
        frozen_times(sys0, APSequencePoint.zero(window, sys0.lap.n_modes))
