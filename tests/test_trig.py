import numpy as np
import pytest
from scipy import integrate

from implab.evolution import LinearCoefficient, fit_dichotomy
from implab.spectral import DirichletLaplacian
from implab.trig import TrigSum, SeqGen

from oracles import shift_sup_scan


def test_constant_sum():
    m = TrigSum(offset=2.5)
    assert m(0.3) == 2.5
    assert m.integral(0.0, 2.0) == pytest.approx(5.0)
    assert m.mean == 2.5


def test_integral_matches_quadrature():
    m = TrigSum(1.0, ((0.5, 1.0, 0.2), (0.3, np.sqrt(2.0), -1.0)))
    for s, t in [(0.0, 1.0), (-2.3, 4.1), (5.0, 5.0)]:
        ref, _ = integrate.quad(m, s, t, epsabs=1e-13, epsrel=1e-13)
        assert m.integral(s, t) == pytest.approx(ref, abs=1e-11)


def test_product_is_exact():
    a = TrigSum(1.0, ((0.5, 1.0, 0.0), (0.2, np.sqrt(2.0), 0.3)))
    b = TrigSum(0.4, ((0.1, 1.0, -0.5),))
    p = a * b
    t = np.linspace(-7.0, 7.0, 301)
    assert np.max(np.abs(p(t) - a(t) * b(t))) < 1e-12


def test_sum_and_scale():
    a = TrigSum(1.0, ((0.5, 2.0, 0.0),))
    t = np.linspace(0.0, 5.0, 50)
    assert np.allclose((a + a)(t), 2.0 * a(t))
    assert np.allclose((3.0 * a)(t), 3.0 * a(t))
    assert np.allclose((a - a)(t), 0.0)


def test_sup_bound_and_shift():
    m = TrigSum(0.0, ((1.0, 1.0, 0.0),))
    assert m.sup_bound() == pytest.approx(1.0)
    # one frequency: the closed form is exact, so the scan meets it up to the
    # loss of its grid spacing ds at the peak, bound * (w ds)^2 / 8
    ds = 200.0 / 4095.0
    for h in (0.3, 1.7, 4.0):
        scan, bound = shift_sup_scan(m, h), m.shift_sup(h)
        assert scan <= bound + 1e-12
        assert bound - scan <= bound * ds**2 / 8.0 + 1e-12
    # exact period 2*pi: shifted function identical
    assert shift_sup_scan(m, 2.0 * np.pi) < 1e-9
    periodic = TrigSum(0.3, ((1.0, 1.0, 0.0), (0.5, 2.0, 0.4), (0.2, 3.0, -1.0)))
    assert periodic.shift_sup(2.0 * np.pi) < 1e-12
    # several frequencies: the scan never exceeds the rigorous bound on the
    # README coefficient m = -a + rho a b (rho = 1)
    a = TrigSum(0.5, ((0.2, 1.0, 0.0),))
    b = TrigSum(0.1, ((0.05, 1.41421356237, 0.0),))
    readme = -1.0 * a + 1.0 * (a * b)
    assert len(readme.terms) == 4
    for h in (-3.1, -0.7, 0.05, 0.3, 1.7, 2.9, 4.6):
        assert shift_sup_scan(readme, h) <= readme.shift_sup(h) + 1e-12
    # `constants` on the README instance at seed 7: the M, M1 and M2 the
    # scan gave, M2 at its floor 1.05 M
    dich = fit_dichotomy(DirichletLaplacian(l=1.0, n_modes=16), LinearCoefficient(m=readme),
                         alpha=0.5, rng=np.random.default_rng([7, 1]))
    assert (dich.M, dich.M1, dich.M2) == pytest.approx((1.05, 1.245548906401333, 1.1025),
                                                       rel=1e-12)


def test_seq_gen_scalar_and_vector():
    g = SeqGen(freqs=(2.0 * np.pi / 5.0,), amps=(1.0,), phases=(0.0,), offset=0.5)
    k = np.arange(0, 10)
    v = g(k)
    assert v.shape == (10,)
    assert v[0] == pytest.approx(v[5])
    gv = SeqGen(freqs=(1.0,), amps=((1.0, 2.0),), phases=(0.3,), offset=(0.0, 1.0))
    vals = gv(k)
    assert vals.shape == (10, 2)
    assert vals[3, 1] == pytest.approx(1.0 + 2.0 * np.cos(3.0 + 0.3))


def test_zero_frequency_folds_into_offset():
    m = TrigSum(0.0, ((2.0, 0.0, np.pi / 3.0),))
    assert m.terms == ()
    assert m.offset == pytest.approx(2.0 * np.cos(np.pi / 3.0))


FLOAT_PATH_SUMS = {
    "empty": TrigSum(),
    "offset_only": TrigSum(1.5),
    # a zero frequency and a repeated (freq, phase) pair merge into the offset
    # and into one term
    "merged_offset": TrigSum(0.3, ((0.5, 0.0, 0.2), (0.2, 1.0, 0.1), (0.1, 1.0, 0.1),
                                   (0.4, -np.sqrt(2.0), 0.7))),
    # m and a b of the README instance
    "readme_m": (-1.0) * TrigSum(0.5, ((0.2, 1.0, 0.0),))
    + TrigSum(0.5, ((0.2, 1.0, 0.0),)) * TrigSum(0.1, ((0.05, np.sqrt(2.0), 0.0),)),
    "readme_ab": TrigSum(0.5, ((0.2, 1.0, 0.0),)) * TrigSum(0.1, ((0.05, np.sqrt(2.0), 0.0),)),
}


@pytest.mark.parametrize("name", sorted(FLOAT_PATH_SUMS))
def test_float_path_bit_equal_to_array_path(name):
    """A float time skips the 0-d array: value and antiderivative keep every bit."""
    m = FLOAT_PATH_SUMS[name]
    rng = np.random.default_rng(41)
    ts = np.concatenate([
        rng.uniform(-1e4, 1e4, 400), rng.uniform(-10.0, 10.0, 400),
        [0.0, -0.0, 1e-300, 1e4, -1e4, 0.5 + 2.0**-40],
    ])
    for t in ts:
        for ft in (float(t), np.float64(t)):
            val, anti = m(ft), m.antiderivative(ft)
            assert type(val) is float and type(anti) is float
            ref_val, ref_anti = m(np.asarray(t)), m.antiderivative(np.asarray(t))
            assert np.float64(val).tobytes() == np.float64(ref_val).tobytes()
            assert np.float64(anti).tobytes() == np.float64(ref_anti).tobytes()
    # and against one call on the whole array, as a batched caller makes it
    assert np.array([m(float(t)) for t in ts]).tobytes() == m(ts).tobytes()
    assert np.array([m.antiderivative(float(t)) for t in ts]).tobytes() == m.antiderivative(ts).tobytes()
