import numpy as np
import pytest

from implab.spectral import AliasingError, DirichletLaplacian

from oracles import semigroup_apply


@pytest.fixture
def lap():
    return DirichletLaplacian(l=1.0, n_modes=16)


def e(lap, k):
    x = np.zeros(lap.n_modes)
    x[k - 1] = 1.0
    return x


def test_eigenvalues_increasing(lap):
    assert np.all(np.diff(lap.eigenvalues) > 0.0)
    assert lap.eigenvalues[0] == pytest.approx(np.pi**2)


def test_frac_norm_parseval(lap):
    rng = np.random.default_rng(1)
    x = rng.standard_normal(lap.n_modes)
    assert lap.frac_norm(x, 0.0) == pytest.approx(np.linalg.norm(x))


def test_frac_norm_basis_vectors(lap):
    assert lap.frac_norm(e(lap, 1), 0.0) == pytest.approx(1.0)
    # l = 1: lambda_1 = pi^2, so |e1|_{1/2} = pi
    assert lap.frac_norm(e(lap, 1), 0.5) == pytest.approx(np.pi)
    for k in (1, 5, 16):
        assert lap.frac_norm(e(lap, k), 1.0) == pytest.approx(lap.eigenvalues[k - 1])


def test_semigroup_identity_and_mode_decay(lap):
    rng = np.random.default_rng(2)
    x = rng.standard_normal(lap.n_modes)
    assert np.allclose(semigroup_apply(lap, 0.0, x), x)
    y = semigroup_apply(lap, 1.0, e(lap, 1))
    assert y[0] == pytest.approx(np.exp(-np.pi**2))
    assert np.all(y[1:] == 0.0)
    with pytest.raises(ValueError):
        semigroup_apply(lap, -0.1, x)


def test_semigroup_property(lap):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(lap.n_modes)
    a = semigroup_apply(lap, 0.3, semigroup_apply(lap, 0.7, x))
    b = semigroup_apply(lap, 1.0, x)
    assert np.allclose(a, b, rtol=1e-13, atol=1e-250)


def test_eval_physical(lap):
    coarse = DirichletLaplacian(l=1.0, n_modes=16, n_xi=64)
    assert coarse.xi.size == 65 and coarse.xi[32] == 0.5
    assert np.allclose(coarse.eval_physical(np.zeros(lap.n_modes)), 0.0)
    # basis value at the midpoint: sqrt(2) sin(pi/2) = sqrt(2)
    assert coarse.eval_physical(e(lap, 1))[32] == pytest.approx(np.sqrt(2.0))
    # Dirichlet ends
    rng = np.random.default_rng(6)
    x = rng.standard_normal(lap.n_modes)
    u = coarse.eval_physical(x)
    assert abs(u[0]) < 1e-12 and abs(u[-1]) < 1e-12


def test_project_basis_function(lap):
    coeffs = lap.project(lambda s: np.sqrt(2.0) * np.sin(np.pi * s))
    target = np.zeros(lap.n_modes)
    target[0] = 1.0
    assert np.max(np.abs(coeffs - target)) < 1e-10


def test_project_round_trip(lap):
    rng = np.random.default_rng(7)
    x = rng.standard_normal(lap.n_modes)
    back = lap.project(lap.eval_physical(x))
    assert np.max(np.abs(back - x)) < 1e-10


def test_project_zero_and_aliasing_guard(lap):
    assert np.allclose(lap.project(np.zeros(lap.xi.size)), 0.0)
    with pytest.raises(ValueError, match="does not match the grid"):
        lap.project(np.zeros(lap.xi.size - 1))
    with pytest.raises(AliasingError):
        DirichletLaplacian(l=1.0, n_modes=16, n_xi=9).project(np.zeros(10))


def test_nonlinear_image_identity_and_zero(lap):
    rng = np.random.default_rng(8)
    x = rng.standard_normal(lap.n_modes)
    assert np.max(np.abs(lap.nonlinear_image(x, lambda u: u) - x)) < 1e-10
    assert np.allclose(lap.nonlinear_image(np.zeros(lap.n_modes), lambda u: u**3), 0.0)


def test_nonlinear_image_square_closed_form(lap):
    # u = e1 on (0,1): u^2 = 2 sin^2(pi xi); coefficients against the
    # closed-form integrals <2 sin^2(pi xi), sqrt(2) sin(k pi xi)>
    fine = DirichletLaplacian(l=1.0, n_modes=16, n_xi=2048)
    got = fine.nonlinear_image(e(lap, 1), lambda u: u**2)

    def coeff(k):
        # <2 sin^2(pi s), sqrt(2) sin(k pi s)> = -8 sqrt(2) / (pi k (k^2 - 4))
        # for odd k (zero for even k), via 2 sin^2 = 1 - cos(2 pi s)
        if k % 2 == 0:
            return 0.0
        return -8.0 * np.sqrt(2.0) / (np.pi * k * (k**2 - 4.0))

    expected = np.array([coeff(k) for k in range(1, lap.n_modes + 1)])
    assert np.max(np.abs(got - expected)) < 1e-10


def test_heat_semigroup_positivity(lap):
    rng = np.random.default_rng(9)
    xi = lap.xi
    for _ in range(10):
        w = rng.uniform(0.0, 1.0, 4)
        u0 = np.zeros(xi.size)
        for m, wm in enumerate(w, start=1):
            u0 += wm * np.sin(m * np.pi * xi) ** 2
        x = lap.project(u0)
        scale = np.max(np.abs(u0))
        for t in (0.0, 0.01, 0.1, 1.0):
            u = lap.eval_physical(semigroup_apply(lap, t, x))
            assert np.min(u) >= -1e-8 * max(scale, 1.0)


def test_transform_owns_basis_and_weights():
    lap = DirichletLaplacian(l=1.0, n_modes=16, n_xi=128)
    assert np.array_equal(lap.xi, np.linspace(0.0, 1.0, 129))
    assert lap.basis is lap.basis and lap.weights is lap.weights  # built once
    assert np.array_equal(lap.basis, lap.basis_matrix(lap.xi))
    # n_xi + 1 >= 4N points, or the projection aliases
    assert DirichletLaplacian(l=1.0, n_modes=16, n_xi=4 * 16 - 1).basis.shape == (16, 64)
    with pytest.raises(AliasingError):
        DirichletLaplacian(l=1.0, n_modes=16, n_xi=4 * 16 - 2).basis


def test_transforms_bit_equal_to_explicit_formulas():
    # the arithmetic of the per-call formulas: (vals * w) @ B.T and x @ B
    rng = np.random.default_rng(10)
    lap = DirichletLaplacian(l=1.0, n_modes=16, n_xi=128)
    xi = np.linspace(0.0, lap.l, 129)
    B = np.sqrt(2.0 / lap.l) * np.sin(
        np.arange(1, lap.n_modes + 1)[:, None] * np.pi * xi[None, :] / lap.l
    )
    h = np.diff(xi)
    w = np.zeros_like(xi)
    w[:-1] += 0.5 * h
    w[1:] += 0.5 * h
    x = rng.standard_normal(lap.n_modes)
    vals = rng.standard_normal(xi.size)
    assert np.array_equal(lap.basis, B)
    assert np.array_equal(lap.weights, w)
    assert np.array_equal(lap.eval_physical(x), x @ B)
    assert np.array_equal(lap.project(vals), (vals * w) @ B.T)
    cube = lambda u: u**3  # noqa: E731
    expected = (cube(x @ B) * w) @ B.T
    assert np.array_equal(lap.nonlinear_image(x, cube), expected)


def test_transform_batches_over_leading_axis():
    rng = np.random.default_rng(11)
    lap = DirichletLaplacian(l=1.0, n_modes=16, n_xi=128)
    xs = rng.standard_normal((5, lap.n_modes))
    batched = lap.nonlinear_image(xs, np.tanh)
    for x, row in zip(xs, batched):
        assert np.allclose(row, lap.nonlinear_image(x, np.tanh), rtol=1e-13, atol=1e-15)


def test_nonlinear_image_in_row_batches():
    # more states than one batch: the row batches must reassemble in order
    rng = np.random.default_rng(12)
    lap = DirichletLaplacian(l=1.0, n_modes=16, n_xi=128)
    xs = rng.standard_normal((1000, lap.n_modes))
    batched = lap.nonlinear_image(xs, np.tanh)
    whole = lap.project(np.tanh(lap.eval_physical(xs)))
    assert batched.shape == whole.shape
    assert np.allclose(batched, whole, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("rows", [None, 1, 7, 64, 512, 513, 1100, 4096])
def test_batched_transforms_bit_equal_to_per_block_formulas(rows):
    # one state (None) or a batch of rows: per block of 512 rows,
    # nonlinear_image is project(map(eval_physical(x))) and integral is
    # eval_physical(x) ** 3 @ weights, bit for bit (up to 512 rows, one block
    # is the whole batch; past it, BLAS may round the tail rows of one big
    # matmul differently from a small one); no result shares memory with
    # another or with the scratch grid
    rng = np.random.default_rng(14)
    lap = DirichletLaplacian(l=1.0, n_modes=16, n_xi=128)
    x = rng.standard_normal(lap.n_modes if rows is None else (rows, lap.n_modes))
    cube = lambda u: u**3  # noqa: E731
    blocks = [x] if rows is None else [x[lo : lo + 512] for lo in range(0, rows, 512)]
    image = np.concatenate([lap.project(cube(lap.eval_physical(b))) for b in blocks])
    cubic = [lap.eval_physical(b) ** 3 @ lap.weights for b in blocks]
    cubic = cubic[0] if rows is None else np.concatenate(cubic)
    results = []
    for _ in range(2):
        got = lap.nonlinear_image(x, cube)
        assert got.shape == x.shape and np.array_equal(got, image)
        total = lap.integral(x, cube)
        assert np.shape(total) == x.shape[:-1]
        assert np.array_equal(total, cubic)
        results += [got, np.asarray(total)]
    for i, a in enumerate(results):
        assert not np.shares_memory(a, lap._scratch)
        assert not any(np.shares_memory(a, b) for b in results[i + 1 :])


def test_batched_transforms_allocate_no_grid_of_their_own():
    # a warm 512-row call allocates the output and what the map does (one
    # grid array for u**3), not the synthesized and weighted grids
    import tracemalloc

    rng = np.random.default_rng(15)
    lap = DirichletLaplacian(l=1.0, n_modes=16, n_xi=128)
    x = rng.standard_normal((512, lap.n_modes))
    cube = lambda u: u**3  # noqa: E731
    grid_bytes = 512 * lap.xi.size * 8
    for transform in (lap.nonlinear_image, lap.integral):
        transform(x, cube)  # builds the basis, the weights and the scratch grid
        tracemalloc.start()
        try:
            transform(x, cube)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * grid_bytes, (transform.__name__, peak / grid_bytes)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_frac_norm_of_one_state_bit_equal_to_its_batch_row(lap, alpha):
    # one (N,) state skips the batch's per-call overhead: a Python float, bit-equal
    xs = np.random.default_rng(14).standard_normal((1000, lap.n_modes))
    batch = lap.frac_norm(xs, alpha)
    single = [lap.frac_norm(x, alpha) for x in xs]
    assert all(type(val) is float for val in single)
    assert np.array(single).tobytes() == batch.tobytes()


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 1.0])
def test_frac_norm_with_cached_weights_bit_equal_to_formula(lap, alpha):
    rng = np.random.default_rng(13)
    xs = rng.standard_normal((7, lap.n_modes))
    w = lap.frac_weights(alpha)
    assert lap.frac_weights(alpha) is w  # computed once per alpha
    assert not w.flags.writeable
    assert np.array_equal(w, lap.eigenvalues**alpha)
    explicit = np.sqrt(np.sum((lap.eigenvalues**alpha * xs) ** 2, axis=-1))
    for _ in range(2):
        assert np.array_equal(lap.frac_norm(xs, alpha), explicit)
        for x, ref in zip(xs, explicit):
            val = lap.frac_norm(x, alpha)
            assert type(val) is float and val == ref
    with pytest.raises(ValueError):
        lap.frac_weights(-0.5)
