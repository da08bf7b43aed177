import numpy as np
import pytest

from implab.ap_analysis import (
    PiecewiseSampledFunction,
    StronglyAPSet,
    WindowTooShortError,
    almost_periodicity_report,
    cropped_span,
    eps_almost_periods,
    harmonize,
    nearest_distance,
    wexler_deviation,
)
from implab.trig import TrigSum


def brute_force_periods(seq, eps, p_range):
    """Independent double loop over all (p, k) pairs."""
    n = len(seq)
    out = []
    for p in range(p_range[0], p_range[1] + 1):
        ok = True
        for k in range(n):
            if 0 <= k + p < n:
                if abs(seq[k + p] - seq[k]) >= eps:
                    ok = False
                    break
        if ok:
            out.append(p)
    return out


def test_constant_sequence_all_periods():
    seq = np.full(400, 3.7)
    rep = eps_almost_periods(seq, 1e-6, (-50, 50))
    assert rep == tuple(range(-50, 51))


def test_exact_periodicity():
    k = np.arange(-300, 301)
    seq = np.cos(2.0 * np.pi * k / 7.0)
    rep = eps_almost_periods(seq, 1e-9, (-90, 90))
    assert all(p % 7 == 0 for p in rep)
    assert set(rep) == {p for p in range(-90, 91) if p % 7 == 0}


def test_brute_force_oracle_quasi_periodic():
    k = np.arange(-800, 801)
    seq = np.cos(k) + np.cos(np.sqrt(2.0) * k)
    rep = eps_almost_periods(seq, 0.1, (-500, 500))
    assert list(rep) == brute_force_periods(seq, 0.1, (-500, 500))


def test_period_symmetry():
    rng = np.random.default_rng(0)
    k = np.arange(-400, 401)
    seq = np.cos(0.9 * k) + 0.5 * np.cos(np.sqrt(3.0) * k + 0.2)
    rep = eps_almost_periods(seq, 0.25, (-120, 120))
    ps = set(rep)
    assert all((-p) in ps for p in ps)


def test_rational_frequency_generator_periods():
    # frequencies 2 pi a/b: every multiple of lcm(b) is an eps-period
    gen = TrigSum(0.2, ((1.0, 2.0 * np.pi * 1.0 / 4.0, 0.1), (0.7, 2.0 * np.pi * 2.0 / 6.0, -0.4)))
    k = np.arange(-200, 201)
    seq = gen(k)
    rep = eps_almost_periods(seq, 1e-10, (-60, 60))
    lcm = 12
    expected = {p for p in range(-60, 61) if p % lcm == 0}
    assert expected.issubset(set(rep))


def test_eps_validation():
    with pytest.raises(ValueError):
        eps_almost_periods(np.zeros(100), -1.0, (-5, 5))
    with pytest.raises(WindowTooShortError):
        eps_almost_periods(np.zeros(10), 1.0, (-50, 50))


def test_almost_periodicity_report_flat_record():
    # 30 rows of y and hit times k + 1/2; u(t) = cos(2 pi t), cropped to [1, 29]
    k = np.arange(30)
    taus = k + 0.5

    def report(seq, eps):
        return almost_periodicity_report(
            seq, 0, taus, lambda t: np.cos(2.0 * np.pi * t), (0.0, 30.0), 1.0, (eps,)
        )

    # a constant sequence: every |p| <= 10 is an eps-period, and (q, r) = (1, 1) is a pair
    assert cropped_span((0.0, 30.0), 1.0) == (1.0, 29.0)
    rec = report(np.full(30, 3.7), 1e-2)
    tag = "eps_0.01_"
    assert list(rec) == [tag + key for key in (
        "sequence_epsilon", "sequence_n_periods", "sequence_max_gap",
        "sequence_relatively_dense", "sequence_p_range", "sequence_k_range",
        "sequence_periods", "q", "r", "wexler_deviation")]
    assert rec[tag + "sequence_epsilon"] == 1e-2
    assert rec[tag + "sequence_n_periods"] == 21
    assert rec[tag + "sequence_max_gap"] == 1.0
    assert rec[tag + "sequence_relatively_dense"] is True
    assert rec[tag + "sequence_p_range"] == "-10..10"
    assert rec[tag + "sequence_k_range"] == "0..29"
    assert rec[tag + "sequence_periods"] == " ".join(str(p) for p in range(-10, 11))
    assert (rec[tag + "q"], rec[tag + "r"]) == (1, 1.0)
    assert rec[tag + "wexler_deviation"] < 1e-12

    # a ramp: only p = 0, no max gap and no pair
    rec = report(k.astype(float), 0.5)
    tag = "eps_0.5_"
    assert list(rec) == [tag + key for key in (
        "sequence_epsilon", "sequence_n_periods", "sequence_max_gap",
        "sequence_relatively_dense", "sequence_p_range", "sequence_k_range",
        "sequence_periods", "q")]
    assert rec[tag + "sequence_n_periods"] == 1
    assert rec[tag + "sequence_max_gap"] == "none"
    assert rec[tag + "sequence_relatively_dense"] is False
    assert rec[tag + "sequence_periods"] == "0"
    assert rec[tag + "q"] == "none"

    # a crop that leaves less than 4 steps of the span
    with pytest.raises(WindowTooShortError):
        almost_periodicity_report(np.full(30, 3.7), 0, taus, np.cos, (0.0, 30.0), 14.99, (1e-2,))


def _sampled(fn, t0, t1, h, discontinuities=()):
    t = np.arange(t0, t1 + h / 2.0, h)
    return PiecewiseSampledFunction(t0=t0, h_t=h, values=fn(t), discontinuities=np.asarray(discontinuities))


def brute_force_nearest(t, points):
    """Distance to every point of the set, then the minimum."""
    return np.min(np.abs(t[:, None] - points[None, :]), axis=1)


@pytest.mark.parametrize("seed", range(6))
def test_nearest_distance_bit_equal_to_brute_force(seed):
    rng = np.random.default_rng(seed)
    # points on a grid of step 1/8 (midpoints exact) and points anywhere
    for points in (np.unique(rng.integers(-40, 40, rng.integers(2, 30))) / 8.0,
                   np.sort(rng.uniform(-5.0, 5.0, rng.integers(2, 30)))):
        t = np.concatenate([
            rng.uniform(points[0], points[-1], 400),
            0.5 * (points[:-1] + points[1:]),  # midway between two points
            points,
            points[0] - rng.uniform(0.0, 3.0, 20),  # outside [p_0, p_-1]
            points[-1] + rng.uniform(0.0, 3.0, 20),
        ])
        assert np.array_equal(nearest_distance(t, points), brute_force_nearest(t, points))


def test_nearest_distance_one_point_and_empty_set():
    t = np.linspace(-2.0, 2.0, 41)
    one = np.array([0.3])
    assert np.array_equal(nearest_distance(t, one), brute_force_nearest(t, one))
    far = nearest_distance(t, np.empty(0))
    assert far.shape == t.shape and np.all(far == np.inf)


def test_wexler_deviation_exact_period():
    f = _sampled(np.sin, -40.0, 40.0, 0.01)
    # 2 pi is not a grid multiple of 0.01: interpolation tolerance only
    assert wexler_deviation(f, 2.0 * np.pi, 0.05) < 1e-4


def test_wexler_deviation_zero_function():
    f = _sampled(lambda t: 0.0 * t, -10.0, 10.0, 0.01)
    for r in (0.37, 1.0, 5.5):
        assert wexler_deviation(f, r, 0.01) == 0.0


def test_wexler_deviation_square_wave_oracle():
    h = 0.005
    taus = np.arange(-30.0, 31.0, 1.0)

    def fn(t):
        return np.floor(t) % 2.0

    f = _sampled(fn, -30.0, 30.0, h, discontinuities=taus)
    r = 1.0 + 1e-3
    got = wexler_deviation(f, r, eps_guard=0.01)

    # direct scan oracle on the same grid
    t = f.t0 + h * np.arange(f.n_samples)
    n_shift = int(np.floor(r / h))
    frac = r / h - n_shift
    base = np.arange(0, t.size - n_shift - 1)
    shifted = (1.0 - frac) * f.values[base + n_shift] + frac * f.values[base + n_shift + 1]
    dist = np.min(np.abs(t[base][:, None] - taus[None, :]), axis=1)
    mask = dist >= 0.01
    ref = float(np.max(np.abs(shifted[mask] - f.values[base][mask])))
    assert got == pytest.approx(ref, abs=1e-12)


def test_harmonize_periodic_data():
    taus = StronglyAPSet(a=1.0, c=TrigSum(0.0), window=(-30, 30))
    B = np.ones(61)
    f = _sampled(lambda t: 0.0 * t, -40.0, 40.0, 0.01)
    got = harmonize(B, taus.taus(), f, 1e-6)
    assert got is not None
    q, r, dev = got
    # contract: the three bounds hold; (1, 1) is among the valid answers
    tv = taus.taus()
    assert np.max(np.abs(B[q:] - B[:-q])) < 1e-6
    assert np.max(np.abs((tv[q:] - tv[:-q]) - r)) < 1e-6
    assert dev == wexler_deviation(f, r, 1e-6) < 1e-6


def test_harmonize_common_period_two_pi():
    a = 1.0
    c = TrigSum(0.0, ((0.0, 2.0 * np.pi / (2.0 * np.pi), 0.0),))
    taus = StronglyAPSet(a=a, c=c, window=(-100, 100))
    k = taus.indices()
    B = np.cos(2.0 * np.pi * k / 1.0)  # constant, trivially 2 pi periodic in t
    f = _sampled(lambda t: np.sin(t), -120.0, 120.0, 0.005)
    got = harmonize(B, taus.taus(), f, eps=0.05, q_range=(1, 60))
    assert got is not None
    q, r, dev = got
    assert abs(r - 2.0 * np.pi * round(r / (2.0 * np.pi))) < 0.05
    assert dev == wexler_deviation(f, r, 0.05) < 0.05


def test_harmonize_quasi_periodic_reverification():
    a = 1.0
    c = TrigSum(0.0, ((0.1, np.sqrt(2.0), 0.0),))
    taus = StronglyAPSet(a=a, c=c, window=(-800, 800))
    k = taus.indices()
    B = np.cos(np.sqrt(3.0) * k)
    f = _sampled(lambda t: np.cos(np.sqrt(2.0) * t), -900.0, 900.0, 0.01)
    got = harmonize(B, taus.taus(), f, eps=0.1, q_range=(1, 720))
    assert got is not None
    q, r, dev = got
    # independent re-verification of all three bounds, from scratch
    tv = taus.taus()
    assert np.max(np.abs(B[q:] - B[:-q])) < 0.1
    assert np.max(np.abs((tv[q:] - tv[:-q]) - r)) < 0.1
    assert dev == wexler_deviation(f, r, 0.1) < 0.1


def _jittered_lattice(draw):
    """Draw ``draw`` of the jittered-lattice protocol: tau_k = k + c_k, k = 0..39.

    Each draw takes amp ~ U(0, 0.02), c_k = amp N(0, 1), then eps and the
    sample step h_t, all from one default_rng(0) stream.
    """
    rng = np.random.default_rng(0)
    for _ in range(draw + 1):
        amp = rng.uniform(0.0, 0.02)
        c = amp * rng.standard_normal(40)
        eps = float(rng.choice([0.01, 0.02, 0.05]))
        h_t = float(rng.choice([0.005, 0.01, 0.02]))
    return StronglyAPSet(a=1.0, c=c, window=(0, 39)), eps, h_t


@pytest.mark.parametrize("draw", [0, 3, 22, 107, 162, 238, 261])
def test_harmonize_returns_the_smallest_passing_q(draw):
    # B = 0 and f = 0 pass their bounds at every shift, so the first q of the
    # scan whose gaps spread by less than 2 eps has a passing r: the middle
    # of its gap range, r_center, is a grid candidate.  Draws 22..261 gave a
    # larger q, or None, from a search that screened r by a saw function;
    # no q passes on draw 0.
    taus, eps, h_t = _jittered_lattice(draw)
    tv = taus.taus()
    f = _sampled(lambda t: 0.0 * t, -2.0, 40.0, h_t, discontinuities=tv)
    B = np.zeros(tv.size)
    spreads = [np.ptp(tv[q:] - tv[:-q]) for q in range(1, tv.size // 3 + 1)]
    expected = next((q for q, s in enumerate(spreads, 1) if s < 2.0 * eps), None)
    got = harmonize(B, tv, f, eps)
    if expected is None:
        assert got is None
        return
    assert got is not None and got[0] == expected
    q, r, dev = got
    # independent re-verification of all three bounds, from scratch
    assert np.max(np.abs(B[q:] - B[:-q])) < eps
    assert np.max(np.abs((tv[q:] - tv[:-q]) - r)) < eps
    assert dev == wexler_deviation(f, r, eps) < eps


def test_strongly_ap_set_validation():
    with pytest.raises(ValueError):
        StronglyAPSet(a=-1.0, c=TrigSum(0.0), window=(0, 5))
    with pytest.raises(ValueError):
        # offsets large enough to break monotonicity
        StronglyAPSet(a=0.1, c=TrigSum(0.0, ((1.0, 1.0, 0.0),)), window=(0, 20))
    s = StronglyAPSet(a=1.0, c=TrigSum(0.0, ((0.1, np.sqrt(2.0), 0.0),)), window=(0, 50))
    assert np.min(np.diff(s.taus())) > 0.5
