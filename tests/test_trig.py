import numpy as np
import pytest
from scipy import integrate

from implab.evolution import LinearCoefficient, fit_dichotomy
from implab.spectral import DirichletLaplacian
from implab.trig import TrigSum

from oracles import fit_shift_defect, shift_sup_scan


def test_constant_sum():
    m = TrigSum(offset=2.5)
    assert m(0.3) == 2.5
    assert m.integral(0.0, 2.0) == pytest.approx(5.0)
    assert m.offset == 2.5


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
    # `constants` on the README instance at seed 7: its M and M1, and the M2 that the shift
    # defect fits with this closed form on the rest of the stream, at its floor 1.05 M
    lap, coeff, rng = (DirichletLaplacian(l=1.0, n_modes=16), LinearCoefficient(m=readme),
                       np.random.default_rng([7, 1]))
    dich = fit_dichotomy(lap, coeff, alpha=0.5, rng=rng)
    assert (dich.M, dich.M1) == pytest.approx((1.05, 1.245548906401333), rel=1e-12)
    assert fit_shift_defect(lap, coeff, dich, 0.5, rng=rng)[0] == pytest.approx(1.1025, rel=1e-12)


def test_seq_gen_scalar_and_vector():
    """A sequence generator is a TrigSum at integer arguments."""
    g = TrigSum(0.5, ((1.0, 2.0 * np.pi / 5.0, 0.0),))
    k = np.arange(0, 10)
    v = g(k)
    assert v.shape == (10,)
    assert v[0] == pytest.approx(v[5])
    assert type(g(3)) is float


def test_zero_frequency_folds_into_offset():
    m = TrigSum(0.0, ((2.0, 0.0, np.pi / 3.0),))
    assert m.terms == ()
    assert m.offset == pytest.approx(2.0 * np.cos(np.pi / 3.0))


@pytest.mark.parametrize("phase", [-0.4, np.pi / 3.0, -1.0, 7.0, 0.3])
def test_phase_kept_as_given(phase):
    """Value and antiderivative are numpy's cos and sin of t + p to the bit.

    Phases p and p + 2 pi merge into one term with the summed amplitude,
    which keeps the first phase.
    """
    t = np.linspace(-20.0, 20.0, 4001)
    m = TrigSum(0.0, ((1.0, 1.0, phase),))
    assert m.terms == ((1.0, 1.0, phase),)
    assert np.array_equal(m(t), np.cos(t + phase))
    assert np.array_equal(m.antiderivative(t), np.sin(t + phase))
    merged = TrigSum(0.0, ((0.5, 1.0, phase), (0.25, 1.0, phase + 2.0 * np.pi)))
    assert merged.terms == ((0.75, 1.0, phase),)
    assert np.array_equal(merged(t), 0.75 * np.cos(t + phase))


def test_offset_and_shift_sup_are_python_floats():
    # a zero-frequency term merges into the offset, which stays a Python float
    m = TrigSum(0.3, ((0.5, 0.0, 0.2), (0.2, 1.0, 0.1), (0.4, -np.sqrt(2.0), 0.7)))
    assert type(m.offset) is float and m.offset == 0.3 + 0.5 * np.cos(0.2)
    assert type(TrigSum(np.float64(1.5)).offset) is float
    # shift_sup on a float h: bit-equal to the same sum through np.sin
    for h in np.random.default_rng(42).uniform(-5.0, 5.0, 200):
        ref = 0.0
        for a, f, _ in m.terms:
            ref = ref + 2.0 * abs(a * np.sin(f * h / 2.0))
        val = m.shift_sup(float(h))
        assert type(val) is float and np.float64(val).tobytes() == np.float64(ref).tobytes()


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
