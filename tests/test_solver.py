import gc
import tracemalloc
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from implab.evolution import fit_dichotomy, k_bundle
from implab import evolution
from implab.impulsive import ImpulseSystemSpec, JumpSpec, _phi_weights
from implab.solver import (
    APSequencePoint,
    SolverConfig,
    WarmStart,
    _build_inner_grid,
    _piece_nodes,
    _recursion_pass,
    _warm_states,
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
from implab.trajectory import Segment
from implab.trig import TrigSum

from oracles import bounded_solution, measure_lipschitz_by_pair, pieces
from systems import ShiftedCoefficient, make_system, moving_like, readme_like


def const_d(n, c=0.02):
    d = np.zeros(n)
    d[0] = c
    return d


CFG = SolverConfig(h_t=0.005)


def split_at_joins(ig, arr) -> list:
    """Cut a flat (M, ...) array of the inner grid back into its pieces."""
    return np.split(arr, ig.joins + 1)


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
        coeff = ShiftedCoefficient(m=TrigSum(0.0, ((0.3, 1.0, 0.0),)), per_mode_shift=sigma)
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
        ig = _build_inner_grid(system, dich, *_piece_nodes(np.r_[t_lo, cuts, t_hi], h_t))
        f_vals = rng.standard_normal((ig.t.size, n))
        got = _recursion_pass(ig, f_vals, jumps)
    grids, factors = pieces_by_loop(system, cuts, t_lo, t_hi, h_t)
    # the backward sweep of the node loop divides the stable coordinates by
    # E too, where they overflow; only its unstable coordinates are read
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.concatenate(
            recursion_by_node(dich, grids, factors, split_at_joins(ig, f_vals), jumps)
        )
    assert [g.size for g in split_at_joins(ig, ig.t)][2:4] == [2, 2]
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
    states = traj.nodes.states
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
        seg_start = [s for s in pieces(traj) if abs(s.t[0] - tj) < 1e-9]
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
                     amp=TrigSum(0.02), d=const_d(n, 0.02))
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
    states = res.trajectory.nodes.states
    assert np.max(np.abs(states)) == 0.0


def periodic_system(q=4, window=(0, 24)):
    # every ingredient shares the time period 2: a, b have frequency pi, the
    # impulse lattice has gap 1/2 (so q = 4 surfaces per period) and the jump
    # modulation amp_j has period q in the index
    n = 8
    left = np.zeros((1, n))
    left[0, 0] = 1.0
    amp = TrigSum(1.0, ((0.3, 2.0 * np.pi / q, 0.0),))
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
    assert rep["check_KM0"] == rep["check_N1"] == "pass"
    assert rep["L_dprime"] == pytest.approx(kb["K4"])


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
    assert rep["check_KM0"] == "fail"


LIPSCHITZ_CASES = {
    "readme": readme_like,
    "moving": moving_like,
    # zero jump map: g_j is its offset whatever the state
    "constant_jumps": lambda: make_system(jumps=JumpSpec(d=const_d(8)), window=(0, 8)),
    "f_override": lambda: make_system(
        f_override=lambda t: 0.1 * np.cos(t) * np.ones(8), slopes=TrigSum(-0.2)
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


def test_fit_dichotomy_checks_m_before_the_m2_fit(monkeypatch):
    # a = 1e308 gives M = inf: the raise comes before the M2 fit calls the
    # Green factor a second time
    calls = {"green": 0}
    green = evolution._green_factor

    def counted_green(*args, **kwargs):
        calls["green"] += 1
        return green(*args, **kwargs)

    monkeypatch.setattr(evolution, "_green_factor", counted_green)
    system = make_system(a=TrigSum(1e308))
    with np.errstate(all="ignore"), pytest.raises(evolution.NonHyperbolicError,
                                                  match="dichotomy constant M = inf"):
        fit_dichotomy(system.lap, system.coeff, rng=np.random.default_rng(62))
    assert calls == {"green": 1}


def test_outer_solve_memory_is_linear_in_the_node_table():
    # memory linear in the node table: no (M x J) distance matrix and no
    # redundant (M, N) copy in a Picard iterate; the peak is about 9.5 M N
    # doubles on moving
    sys0 = moving_like()
    dich = fit_dichotomy(sys0.lap, sys0.coeff, rng=np.random.default_rng(70))
    tracemalloc.start()
    try:
        res = outer_solve(sys0, dich, (0.5, 12.5), cfg=CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m, n = res.trajectory.nodes.states.shape
    assert peak <= 12 * m * n * 8


def test_outer_solve_frees_each_table_before_the_next_maps_first_iterate(monkeypatch):
    # the previous outer step's (M, N) node table seeds the next map and is
    # dropped by the first Picard iterate of that map, not when it returns
    import implab.solver

    sys0 = readme_like()
    dich = fit_dichotomy(sys0.lap, sys0.coeff, rng=np.random.default_rng(71))
    made, alive = [], []
    recursion_pass = implab.solver._recursion_pass

    def tracked_map(*args):
        y_new, traj, info = poincare_map(*args)
        made.append(weakref.ref(traj.nodes.states))
        return y_new, traj, info

    def tracked_pass(*args):
        gc.collect()
        alive.append(sum(ref() is not None for ref in made))
        return recursion_pass(*args)

    monkeypatch.setattr(implab.solver, "poincare_map", tracked_map)
    monkeypatch.setattr(implab.solver, "_recursion_pass", tracked_pass)
    res = outer_solve(sys0, dich, (0.5, 6.5), cfg=CFG)
    assert len(made) >= 2 and len(alive) == sum(res.meta["inner_iterations"])
    assert not any(alive)


def outer_solve_cold(monkeypatch, system, dich, window):
    """outer_solve with every inner solve started from u = 0."""
    import implab.solver

    monkeypatch.setattr(implab.solver, "WarmStart", lambda *args: None)
    try:
        return outer_solve(system, dich, window, cfg=CFG)
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("name", ["moving", "readme"])
def test_warm_start_agrees_with_cold_start_in_fewer_iterates(monkeypatch, name):
    system = {"moving": moving_like, "readme": readme_like}[name]()
    dich = fit_dichotomy(system.lap, system.coeff, rng=np.random.default_rng(72))
    warm = outer_solve(system, dich, (0.5, 12.5), cfg=CFG)
    cold = outer_solve_cold(monkeypatch, system, dich, (0.5, 12.5))
    tol = 10.0 * (CFG.outer_tol + CFG.inner_tol)
    assert len(warm.steps) == len(cold.steps)
    assert np.max(np.abs(warm.y_star.values - cold.y_star.values)) <= tol
    assert np.max(np.abs(warm.trajectory.hit_times() - cold.trajectory.hit_times())) <= tol
    if name == "moving":
        assert sum(warm.meta["inner_iterations"]) <= 0.65 * sum(cold.meta["inner_iterations"])
    else:
        assert sum(warm.meta["inner_iterations"]) < sum(cold.meta["inner_iterations"])


def test_warm_seed_matches_cuts_by_surface_index():
    # old cuts belong to surfaces 3, 4, 5 and new ones to 4, 5, 6: surface 3
    # left the cut set and 6 entered it.  The old table holds, on each piece,
    # the index of the surface whose cut opens it (-1 on the first piece).
    t_lo, t_hi, h_t = 0.0, 4.0, 0.1
    old_cuts, new_cuts = np.array([0.95, 2.03, 3.01]), np.array([1.98, 2.96, 3.6])
    old_t, old_joins = _piece_nodes(np.r_[t_lo, old_cuts, t_hi], h_t)
    old_piece = np.searchsorted(old_joins, np.arange(old_t.size), side="left")
    old_states = np.array([-1.0, 3.0, 4.0, 5.0])[old_piece, None] * np.ones(2)
    warm = WarmStart(Segment(t=old_t, states=old_states), old_cuts, np.array([3, 4, 5]))
    t, joins = _piece_nodes(np.r_[t_lo, new_cuts, t_hi], h_t)
    jumps = np.array([[0.5, 0.0], [0.25, 0.0], [0.125, 0.0]])
    seed = _warm_states(warm, t, joins, new_cuts, np.array([4, 5, 6]), jumps)
    assert warm.nodes is None
    piece = np.searchsorted(joins, np.arange(t.size), side="left")
    body = np.ones(t.size, dtype=bool)
    body[np.r_[0, joins + 1]] = False  # the first node of each piece
    # pieces opened by the matched surfaces 4 and 5 read the old pieces of 4 and 5
    for p, label in ((1, 4.0), (2, 5.0)):
        assert np.all(seed[body & (piece == p)] == label)
    # surface 6 has no old cut: its piece reads the old table past the cut of 5
    assert np.all(seed[body & (piece == 3)] == 5.0)
    # every post-jump node is its pre-jump node plus the new jump
    assert np.array_equal(seed[joins + 1], seed[joins] + jumps)


@pytest.mark.parametrize("seed", range(6))
def test_piece_nodes_bit_equal_to_per_piece_linspace(seed):
    rng = np.random.default_rng(seed)
    h_t = rng.choice([0.005, 0.01, 0.1, 1.0 / 3.0])
    # piece lengths below h_t (one step), at exact multiples of it and in between
    lengths = np.r_[rng.uniform(0.01, 5.0, 30) * h_t, 0.3 * h_t, h_t, 7 * h_t, 1e-9]
    edges = rng.uniform(-50.0, 50.0) + np.cumsum(np.r_[0.0, rng.permutation(lengths)])
    t, joins = _piece_nodes(edges, h_t)
    ref = [np.linspace(a, b, max(1, int(np.ceil((b - a) / h_t))) + 1)
           for a, b in zip(edges[:-1], edges[1:])]
    assert t.tobytes() == np.concatenate(ref).tobytes()
    assert joins.tolist() == (np.cumsum([r.size for r in ref])[:-1] - 1).tolist()
    assert 2 in [r.size for r in ref]  # a one-step piece


def test_integral_residual_ignores_rounding_of_y_star():
    # the Simpson pieces end at the trajectory's cuts: frozen times of y*
    # moved by rounding must not move a piece end across a jump of u*
    sys0 = moving_like()
    dich = fit_dichotomy(sys0.lap, sys0.coeff, rng=np.random.default_rng(73))
    res = outer_solve(sys0, dich, (0.5, 12.5), cfg=CFG)
    y, times = res.y_star, np.linspace(3.1, 12.3, 3)
    base = integral_residual(sys0, dich, res.trajectory, y, times)
    for sign in (1.0, -1.0):
        values = y.values * (1.0 + sign * 0.9e-12 / np.max(np.abs(y.values)))
        assert np.max(np.abs(values - y.values)) <= 1e-12
        moved = APSequencePoint(window=y.window, values=values)
        got = integral_residual(sys0, dich, res.trajectory, moved, times)
        assert got == pytest.approx(base, rel=1e-6)


def test_certify_almost_periodicity_periodic():
    q = 4
    sys0 = periodic_system(q=q)
    dich = fit_dichotomy(sys0.lap, sys0.coeff, rng=np.random.default_rng(54))
    res = outer_solve(sys0, dich, (2.0, 10.0), cfg=CFG)
    record = certify_almost_periodicity(sys0, res, eps_list=(1e-4,), h_t=0.004)
    periods = [int(p) for p in record["eps_0.0001_sequence_periods"].split()]
    assert 0 in periods and q in periods
    assert all(p % q == 0 for p in periods)
    assert record["eps_0.0001_q"] != "none"
    assert record["eps_0.0001_wexler_deviation"] < 1e-4


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
