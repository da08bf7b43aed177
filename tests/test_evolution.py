import numpy as np
import pytest
from scipy import integrate, special

from implab.evolution import (
    DichotomyData,
    LinearCoefficient,
    NonHyperbolicError,
    fit_dichotomy,
    k_bundle,
    psi,
)
from implab.spectral import DirichletLaplacian
from implab.trig import TrigSum

from oracles import (
    bounded_solution,
    evolution_apply,
    evolution_factors,
    fit_continuity_constant,
    green_apply,
    green_factors,
    green_shift_defect,
    fit_dichotomy_by_sample,
    semigroup_apply,
)
from systems import ShiftedCoefficient, moving_like, readme_like


@pytest.fixture
def lap():
    return DirichletLaplacian(l=1.0, n_modes=4)


@pytest.fixture
def coeff():
    return LinearCoefficient(m=TrigSum(0.3, ((0.2, 1.0, 0.1), (0.1, np.sqrt(2.0), -0.4))))


def test_cocycle_identity(lap, coeff):
    rng = np.random.default_rng(10)
    for _ in range(20):
        s = rng.uniform(-5.0, 5.0)
        v = s + rng.uniform(0.0, 3.0)
        t = v + rng.uniform(0.0, 3.0)
        x = rng.standard_normal(lap.n_modes)
        a = evolution_apply(lap, coeff, t, v, evolution_apply(lap, coeff, v, s, x))
        b = evolution_apply(lap, coeff, t, s, x)
        assert np.max(np.abs(a - b)) < 1e-12 * max(1.0, np.max(np.abs(b)))


def test_reduction_to_semigroup(lap):
    coeff = LinearCoefficient()
    rng = np.random.default_rng(11)
    x = rng.standard_normal(lap.n_modes)
    for t in (0.0, 0.2, 1.5):
        assert np.allclose(
            evolution_apply(lap, coeff, t, 0.0, x), semigroup_apply(lap, t, x), rtol=1e-14
        )


def test_evolution_identity_and_order_guard(lap, coeff):
    x = np.ones(lap.n_modes)
    assert np.allclose(evolution_apply(lap, coeff, 1.3, 1.3, x), x)
    with pytest.raises(ValueError):
        evolution_apply(lap, coeff, 0.0, 1.0, x)


def test_nonhyperbolic_rejected(lap):
    # shift mode 1 so its mean exponent vanishes
    sigma = np.zeros(lap.n_modes)
    sigma[0] = -lap.eigenvalues[0]
    coeff = ShiftedCoefficient(per_mode_shift=sigma)
    with pytest.raises(NonHyperbolicError):
        fit_dichotomy(lap, coeff)


def _unstable_coeff(lap):
    """Mode 1 pushed to a negative mean exponent."""
    sigma = np.zeros(lap.n_modes)
    sigma[0] = -lap.eigenvalues[0] - 2.0
    return ShiftedCoefficient(m=TrigSum(0.0, ((0.3, 1.0, 0.0),)), per_mode_shift=sigma)


def test_dichotomy_fit_then_verify_stable(lap, coeff):
    dich = fit_dichotomy(lap, coeff, alpha=0.5, rng=np.random.default_rng(12))
    assert not dich.has_unstable
    lam_a = lap.frac_weights(0.5)
    rng = np.random.default_rng(13)
    for _ in range(1000):
        s = rng.uniform(0.0, 40.0)
        d = float(np.exp(rng.uniform(np.log(1e-3), np.log(20.0))))
        fac = evolution_factors(lap, coeff, s, s + d)
        assert np.max(fac) <= dich.M * np.exp(-dich.beta * d) * (1.0 + 1e-12)
        lhs = np.max(lam_a * fac)
        assert lhs <= dich.M1 * psi(0.5, d) * np.exp(-dich.beta * d) * (1.0 + 1e-12)


def test_dichotomy_fit_then_verify_unstable(lap):
    coeff = _unstable_coeff(lap)
    dich = fit_dichotomy(lap, coeff, alpha=0.5, rng=np.random.default_rng(14))
    assert dich.has_unstable
    assert list(np.nonzero(dich.unstable)[0]) == [0]
    rng = np.random.default_rng(15)
    for _ in range(1000):
        s = rng.uniform(0.0, 40.0)
        d = float(np.exp(rng.uniform(np.log(1e-3), np.log(20.0))))
        # backward branch: |U(s-d, s) P| <= M e^{-beta d}
        fac = np.abs(green_factors(lap, coeff, dich, s - d, s))
        assert np.max(fac) <= dich.M * np.exp(-dich.beta * d) * (1.0 + 1e-12)


def test_projection_is_coordinate_projection(lap):
    dich = fit_dichotomy(lap, _unstable_coeff(lap), rng=np.random.default_rng(16))
    x = np.arange(1.0, lap.n_modes + 1.0)
    p = np.where(dich.unstable, x, 0.0)
    assert p[0] == x[0] and np.all(p[1:] == 0.0)
    # complementary split
    assert np.allclose(p + np.where(dich.unstable, 0.0, x), x)


FIT_CASES = {
    "readme": (lambda lap: readme_like().coeff, 0.5),
    "moving": (lambda lap: moving_like().coeff, 0.5),
    "unstable": (_unstable_coeff, 0.5),
    "alpha_zero": (lambda lap: readme_like().coeff, 0.0),
    # a*(h) = 0 for every h: each shift-defect sample is skipped, M2 = 1.05 M
    "constant_m": (lambda lap: LinearCoefficient(m=TrigSum(0.3)), 0.5),
}


@pytest.mark.parametrize("name", sorted(FIT_CASES))
def test_fit_dichotomy_matches_per_sample_loop(name):
    lap = readme_like().lap
    make_coeff, alpha = FIT_CASES[name]
    coeff = make_coeff(lap)
    rng, rng_ref = np.random.default_rng(23), np.random.default_rng(23)
    dich = fit_dichotomy(lap, coeff, alpha=alpha, rng=rng)
    ref = fit_dichotomy_by_sample(lap, coeff, alpha=alpha, rng=rng_ref)
    for key in ("M", "beta", "M1", "M2", "beta1"):
        assert getattr(dich, key) == getattr(ref, key), key
    assert np.array_equal(dich.unstable, ref.unstable)
    assert rng.random() == rng_ref.random()
    if name == "constant_m":
        assert dich.M2 == 1.05 * dich.M
    if name == "unstable":
        assert dich.has_unstable


def test_green_branches(lap):
    coeff = _unstable_coeff(lap)
    dich = fit_dichotomy(lap, coeff, rng=np.random.default_rng(17))
    x = np.ones(lap.n_modes)
    fwd = green_apply(lap, coeff, dich, 1.0, 0.0, x)
    assert fwd[0] == 0.0 and np.all(fwd[1:] > 0.0)
    bwd = green_apply(lap, coeff, dich, 0.0, 1.0, x)
    assert bwd[0] < 0.0 and np.all(bwd[1:] == 0.0)


def test_green_shift_defect_verified(lap, coeff):
    dich = fit_dichotomy(lap, coeff, alpha=0.5, rng=np.random.default_rng(18))
    rng = np.random.default_rng(19)
    for _ in range(300):
        h = rng.uniform(-5.0, 5.0)
        t = rng.uniform(-20.0, 20.0)
        tau = t + rng.choice([-1.0, 1.0]) * np.exp(rng.uniform(np.log(1e-2), np.log(10.0)))
        x = rng.standard_normal(lap.n_modes)
        defect, bound = green_shift_defect(lap, coeff, dich, h, t, tau, x)
        assert defect <= bound * (1.0 + 1e-10)


def test_continuity_constant_verified(lap, coeff):
    C = fit_continuity_constant(lap, coeff, 0.5, rng=np.random.default_rng(20))
    lam_a = lap.frac_weights(0.5)
    lam_1 = lap.frac_weights(1.0)
    rng = np.random.default_rng(21)
    for _ in range(500):
        t = rng.uniform(0.0, 20.0)
        d = float(np.exp(rng.uniform(np.log(1e-4), np.log(2.0))))
        x = rng.standard_normal(lap.n_modes)
        fac = evolution_factors(lap, coeff, t, t + d)
        lhs = np.sqrt(np.sum((lam_a * (fac - 1.0) * x) ** 2))
        rhs = C * d**0.5 * np.sqrt(np.sum((lam_1 * x) ** 2))
        assert lhs <= rhs * (1.0 + 1e-10)


# ---------------------------------------------------------------------------
# bounded solution against closed-form and quadrature oracles
# ---------------------------------------------------------------------------


def test_bounded_solution_single_jump_closed_form(lap):
    coeff = LinearCoefficient()
    dich = fit_dichotomy(lap, coeff, rng=np.random.default_rng(22))
    g = np.zeros(lap.n_modes)
    g[0] = 1.0
    traj = bounded_solution(
        lap, coeff, dich, lambda t: np.zeros(lap.n_modes), [(0.0, g)],
        window=(-1.0, 1.0), h_t=0.01,
    )
    lam1 = lap.eigenvalues[0]
    for t in (-0.5, -1e-6, 0.25, 0.5, 1.0):
        u = traj.eval(t)
        ref = np.exp(-lam1 * t) if t > 0.0 else 0.0
        assert abs(u[0] - ref) < 1e-9
        assert np.max(np.abs(u[1:])) < 1e-12
    # right limit at the jump realizes the full jump
    assert traj.meta["jump_defect"] < 1e-9


def test_bounded_solution_single_jump_unstable_mode(lap):
    coeff = ShiftedCoefficient(per_mode_shift=np.where(np.arange(lap.n_modes) == 0,
                                                       -lap.eigenvalues[0] - 2.0, 0.0))
    dich = fit_dichotomy(lap, coeff, rng=np.random.default_rng(23))
    g = np.zeros(lap.n_modes)
    g[0] = 1.0
    traj = bounded_solution(
        lap, coeff, dich, lambda t: np.zeros(lap.n_modes), [(0.0, g)],
        window=(-1.0, 1.0), h_t=0.01,
    )
    # mode 1 rate is -2: bounded branch lives in t <= 0 with value -e^{2t}
    for t in (-1.0, -0.3, 0.5):
        u = traj.eval(t)
        ref = -np.exp(2.0 * t) if t <= 0.0 else 0.0
        assert abs(u[0] - ref) < 1e-9
    # right limit at the jump realizes the full jump on the unstable branch
    assert traj.meta["jump_defect"] < 1e-9


def test_bounded_solution_constant_forcing_closed_form(lap):
    coeff = LinearCoefficient(m=TrigSum(0.5))
    dich = fit_dichotomy(lap, coeff, rng=np.random.default_rng(24))
    c = 2.0
    f = np.zeros(lap.n_modes)
    f[0] = c
    traj = bounded_solution(lap, coeff, dich, lambda t: f, [], window=(0.0, 1.0), h_t=0.005)
    ref = c / (lap.eigenvalues[0] + 0.5)
    for t in (0.0, 0.4, 1.0):
        u = traj.eval(t)
        assert abs(u[0] - ref) < 1e-8
        assert np.max(np.abs(u[1:])) < 1e-12


def test_bounded_solution_oscillatory_quadrature_oracle(lap):
    # independent oracle: scipy quad of the explicit kernel with the
    # antiderivative of m rewritten by hand
    m0, a, w, p = 0.3, 0.2, 1.3, 0.4
    coeff = LinearCoefficient(m=TrigSum(m0, ((a, w, p),)))
    dich = fit_dichotomy(lap, coeff, rng=np.random.default_rng(25))

    def f_mode(v):
        return np.cos(0.7 * v)

    def forcing(t):
        out = np.zeros(lap.n_modes)
        out[0] = f_mode(t)
        return out

    traj = bounded_solution(lap, coeff, dich, forcing, [], window=(0.0, 0.5),
                            h_t=0.002, tail_tol=1e-12)
    lam1 = lap.eigenvalues[0]

    def kernel(v, t):
        intm = m0 * (t - v) + (a / w) * (np.sin(w * t + p) - np.sin(w * v + p))
        return np.exp(-(lam1 * (t - v) + intm)) * f_mode(v)

    for t in (0.0, 0.25, 0.5):
        ref, _ = integrate.quad(kernel, t - 8.0, t, args=(t,), epsabs=1e-12,
                                epsrel=1e-12, limit=400)
        assert abs(traj.eval(t)[0] - ref) < 1e-6


def test_bounded_solution_tail_invariance(lap):
    coeff = LinearCoefficient(m=TrigSum(0.2, ((0.1, 1.0, 0.0),)))
    dich = fit_dichotomy(lap, coeff, rng=np.random.default_rng(26))
    f = np.zeros(lap.n_modes)
    f[0] = 1.0
    kw = dict(window=(0.0, 0.2), h_t=0.005)
    t1 = bounded_solution(lap, coeff, dich, lambda t: f, [], tail_tol=1e-8, **kw)
    t2 = bounded_solution(lap, coeff, dich, lambda t: f, [], tail_tol=1e-12, **kw)
    assert t2.meta["T_tail"] > t1.meta["T_tail"]
    assert abs(t1.eval(0.1)[0] - t2.eval(0.1)[0]) < 1e-7


# ---------------------------------------------------------------------------
# constant bundle
# ---------------------------------------------------------------------------


def _dich(M1, beta, alpha=0.5):
    return DichotomyData(unstable=np.zeros(1, bool), M=M1, beta=beta,
                         M1=M1, M2=M1, beta1=beta / 2.0, alpha=alpha)


def test_k_bundle_alpha_zero_closed_form():
    kb = k_bundle(0.0, _dich(M1=1.5, beta=2.0, alpha=0.0), theta=1.0, Q=0.5)
    # alpha = 0: psi = 2 on s > 0, so K1 = M1 (2/beta + 1/beta)
    assert kb["K1"] == pytest.approx(1.5 * 3.0 / 2.0, rel=1e-8)
    assert kb["K2"] == pytest.approx(2.0 * 1.5 / (1.0 - np.exp(-2.0)), rel=1e-12)
    assert kb["K"] == pytest.approx(kb["K1"] + kb["K2"], rel=1e-12)


def test_k_bundle_gamma_closed_form():
    alpha, M1, beta = 0.5, 2.0, 1.3
    kb = k_bundle(alpha, _dich(M1, beta, alpha), theta=0.8, Q=0.3)
    ref = M1 * (2.0 / beta + special.gamma(1.0 - alpha) * beta ** (alpha - 1.0))
    assert kb["K1"] == pytest.approx(ref, rel=1e-8)
    # Psi3 at alpha = 1/2: Beta(1/2, 1/2) = pi
    assert kb["Psi3"] == pytest.approx(M1 * np.pi * np.sqrt(0.3), rel=1e-12)


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75])
def test_k_bundle_matches_quadrature_and_beta(alpha):
    # the closed forms replace integrate.quad for K1 and special.beta for Psi3
    M1, beta, Q = 2.0, 1.3, 0.3
    kb = k_bundle(alpha, _dich(M1, beta, alpha), theta=0.8, Q=Q)
    pos, _ = integrate.quad(
        lambda s: (1.0 + s ** (-alpha)) * np.exp(-beta * s), 0.0, np.inf, limit=200
    )
    assert kb["K1"] == pytest.approx(M1 * (pos + 1.0 / beta), rel=1e-9)
    ref = M1 * special.beta(1.0 - alpha, 1.0 - alpha) * Q ** (1.0 - alpha)
    assert kb["Psi3"] == pytest.approx(ref, rel=1e-14)


def test_k_bundle_validation():
    d = _dich(1.0, 1.0)
    with pytest.raises(ValueError):
        k_bundle(1.0, d, theta=1.0, Q=1.0)
    with pytest.raises(ValueError):
        k_bundle(0.5, d, theta=0.0, Q=1.0)
