"""Evolution family, exponential dichotomy, Green function and bounded solutions.

The linear part is ``x' + (A + A_1(t)) x = 0`` with ``A_1(t) x = m(t) x`` for
an almost periodic scalar ``m``.  In the diagonal realization every operator
is a per-mode scalar exponential,

    U(t, s) e_k = exp(-r_k (t - s) - int_s^t m(v) dv) e_k,

with the rates r = ``coeff.rates(lap)`` (the eigenvalues lambda_k; a subclass
may shift them, as the tests do to make a mode unstable) and the integral of
``m`` taken from its exact antiderivative.  Dichotomy
projections are coordinate projections onto the modes whose mean exponent is
negative; the constants (M, beta, M_1, M_2, beta_1) carry no values in the
abstract theory and are fitted here with a 5% slack, to be verified on fresh
samples by the caller.  Each fit loop draws its samples in the per-sample
order and then evaluates them all in one batched ``_green_factor`` call.

The branch rule of the Green function G(t, s) (stable modes propagate
forward, unstable modes carry -U(t, s) backward) is written once, in
``_green_factor``; the dichotomy fit, the Simpson kernel
``_green_integral_at`` and the jump sum ``_jump_sum`` (the term
``sum_j G(t, tau_j) g_j``) call it.  The last two evaluate the Green
representation

    u0(t) = int_R G(t, v) f(v) dv + sum_j G(t, tau_j) g_j

by direct composite-Simpson quadrature, for ``solver.integral_residual``;
that route is deliberately independent of the recursive
exponential-integrator route of ``solver.inner_solve`` so the two can
cross-check.  The shift-defect constant M2 uses the closed-form bound
``TrigSum.shift_sup`` on a*(h) = sup_s |m(s) - m(s+h)|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import DirichletLaplacian
from .trig import TrigSum

__all__ = [
    "LinearCoefficient",
    "DichotomyData",
    "NonHyperbolicError",
    "NonFiniteConstantError",
    "fit_dichotomy",
    "k_bundle",
]

_EXP_CLIP = 700.0


class NonHyperbolicError(ValueError):
    """A mode's mean exponent vanishes, or a fitted constant is not finite:
    no exponential dichotomy with finite constants."""


class NonFiniteConstantError(ArithmeticError):
    """A constant of the contraction argument (the K-bundle) is inf or nan."""


@dataclass(frozen=True)
class LinearCoefficient:
    """A_1(t) x = m(t) x; mode k decays at rate lambda_k."""

    m: TrigSum = TrigSum()

    def rates(self, lap: DirichletLaplacian) -> np.ndarray:
        return lap.eigenvalues.copy()

    def mean_exponents(self, lap: DirichletLaplacian) -> np.ndarray:
        return self.rates(lap) + self.m.mean


def _safe_exp(exponent):
    return np.exp(np.clip(exponent, -_EXP_CLIP, _EXP_CLIP))


@dataclass(frozen=True)
class DichotomyData:
    """Projection data and fitted dichotomy constants."""

    unstable: np.ndarray  # boolean mask over modes; P projects onto these
    M: float
    beta: float
    M1: float
    M2: float
    beta1: float
    alpha: float

    @property
    def has_unstable(self) -> bool:
        return bool(np.any(self.unstable))

    def as_record(self) -> dict:
        return {
            "unstable_modes": " ".join(str(i + 1) for i in np.nonzero(self.unstable)[0]) or "none",
            "M": self.M,
            "beta": self.beta,
            "M1": self.M1,
            "M2": self.M2,
            "beta1": self.beta1,
            "alpha": self.alpha,
        }


def psi(alpha: float, s):
    """psi_alpha(s) = 1 + s^-alpha for s > 0, and 1 for s <= 0."""
    s = np.asarray(s, dtype=float)
    out = np.ones_like(s)
    pos = s > 0.0
    if alpha > 0.0:
        out = np.where(pos, 1.0 + np.where(pos, s, 1.0) ** (-alpha), out)
    else:
        out = np.where(pos, 2.0, out)
    return out if out.ndim else float(out)


def _green_factor(rates, m, unstable, t, s, right=False) -> np.ndarray:
    """Diagonal of G(t, s), shape s.shape + (N,).

    t and s are scalars, or arrays of one shape, or t is a scalar and s an
    array.

    Stable modes propagate forward from a past s (s < t) and vanish
    otherwise; unstable modes carry -U(t, s) for s >= t and vanish for a past
    s.  ``right`` counts s == t as past, which gives the right limit t + 0.
    """
    s = np.asarray(s, dtype=float)
    fac = _safe_exp(-(rates * (t - s)[..., None] + np.asarray(m.integral(s, t))[..., None]))
    past = (s <= t) if right else (s < t)
    return np.where(past[..., None], np.where(unstable, 0.0, fac), np.where(unstable, -fac, 0.0))


def _require_finite(error, kind, **constants) -> None:
    for name, value in constants.items():
        if not np.isfinite(value):
            raise error("%s %s = %g is not finite" % (kind, name, value))


def fit_dichotomy(
    lap,
    coeff: LinearCoefficient,
    alpha: float = 0.5,
    rng=None,
    n_samples: int = 400,
    slack: float = 0.05,
    d_max: float = 20.0,
) -> DichotomyData:
    """Select unstable modes by mean exponent sign and fit (M, beta, M1, M2, beta1).

    The fit exploits diagonality: the supremum of |U(t,s)(I-P)x|_a / |x|_a
    over x is the largest per-mode factor, so only (s, d) pairs are sampled.
    All constants get a multiplicative ``slack`` on top of the sampled
    supremum; verification on fresh samples is the caller's job.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    mu = coeff.mean_exponents(lap)
    if np.any(np.abs(mu) < 1e-8):
        raise NonHyperbolicError(
            "non-hyperbolic mode: mean exponent %g too close to zero" % float(np.min(np.abs(mu)))
        )
    unstable = mu < 0.0
    beta = (1.0 - slack) * float(np.min(np.abs(mu)))
    rates = coeff.rates(lap)
    lam_a = lap.frac_weights(alpha)

    # Each loop only draws, in the per-sample order; one Green-factor call
    # then covers all samples, and a row without a positive factor is skipped.
    draws = [(rng.uniform(0.0, 40.0), rng.uniform(np.log(1e-3), np.log(d_max)))
             for _ in range(n_samples)]
    s, log_d = np.array(draws).reshape(-1, 2).T
    # each (s, d) is used forward (t = s + d) and backward (t = s - d)
    s, d = np.repeat(s, 2), np.repeat(np.exp(log_d), 2)
    t = s + np.tile([1.0, -1.0], n_samples) * d
    fac = np.abs(_green_factor(rates, coeff.m, unstable, t, s))
    keep = np.any(fac > 0.0, axis=1)
    decay = np.exp(-beta * d[keep])
    m_fit = np.max(np.max(fac[keep], axis=1) / decay, initial=1.0)
    # refined alpha <- 0 smoothing estimate with the psi weight
    ratio = np.max(lam_a * fac[keep], axis=1) / (decay * psi(alpha, (t - s)[keep]))
    m1_fit = np.max(ratio, initial=1.0)

    M = (1.0 + slack) * float(m_fit)
    M1 = max(M, (1.0 + slack) * float(m1_fit))
    # before the M2 fit spends its samples on them
    _require_finite(NonHyperbolicError, "dichotomy constant", M=M, beta=beta, M1=M1)

    # shift-defect constants (Lemma-style inequality); beta1 <= beta.  The
    # scalar a*(h) test stays in the loop: it decides whether t and tau are drawn.
    beta1 = 0.5 * beta
    rows = []
    for _ in range(n_samples):
        h = rng.uniform(-5.0, 5.0)
        a_star = coeff.m.shift_sup(h)
        if a_star < 1e-14:
            continue
        rows.append((h, a_star, rng.uniform(-20.0, 20.0), rng.choice([-1.0, 1.0]),
                     rng.uniform(np.log(1e-2), np.log(10.0))))
    h, a_star, t, sign, log_gap = np.array(rows).reshape(-1, 5).T
    tau = t + sign * np.exp(log_gap)
    both = _green_factor(rates, coeff.m, unstable, np.r_[t + h, t], np.r_[tau + h, tau])
    defect = np.max(lam_a * np.abs(both[: t.size] - both[t.size :]), axis=1)
    denom = np.exp(-beta1 * np.abs(t - tau)) * psi(alpha, t - tau) * a_star
    M2 = (1.0 + slack) * float(np.max(defect / denom, initial=M))
    _require_finite(NonHyperbolicError, "dichotomy constant", M2=M2)

    return DichotomyData(
        unstable=unstable, M=M, beta=beta, M1=M1, M2=M2, beta1=beta1, alpha=alpha
    )


# ---------------------------------------------------------------------------
# Simpson route of the Green representation
# ---------------------------------------------------------------------------


def _simpson_nodes(a: float, b: float, h_t: float):
    """Even node count composite-Simpson rule on [a, b] with step <= h_t."""
    n = max(2, int(np.ceil((b - a) / h_t)))
    if n % 2:
        n += 1
    v = np.linspace(a, b, n + 1)
    w = np.empty(n + 1)
    w[0] = w[-1] = 1.0
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (b - a) / n / 3.0
    return v, w


def _green_integral_at(lap, coeff, dich, t, f_vals_fn, breakpoints, h_t, T_tail):
    """int G(t, v) f(v) dv by composite Simpson split at the breakpoints.

    The stable part runs over [t - T_tail, t] and the unstable part over
    [t, t + T_tail]; the node v = t takes the branch of its own piece.
    """
    rates = coeff.rates(lap)
    total = np.zeros(lap.n_modes)
    stable = ~dich.unstable
    for lo, hi, past, modes in ((t - T_tail, t, True, stable), (t, t + T_tail, False, ~stable)):
        if not np.any(modes):
            continue
        pts = [lo] + [b for b in breakpoints if lo < b < hi] + [hi]
        for a, b in zip(pts[:-1], pts[1:]):
            if b - a < 1e-14:
                continue
            v, w = _simpson_nodes(a, b, h_t)
            ker = _green_factor(rates, coeff.m, dich.unstable, t, v, right=past)
            total += (w[:, None] * ker * f_vals_fn(v)).sum(axis=0)
    return total


def _jump_sum(lap, coeff, dich, t, jump_times, jump_vecs, T_tail, right=False):
    """sum_j G(t, tau_j) g_j over the jumps within T_tail of t, in their order.

    ``jump_times`` is (J,) and ``jump_vecs`` (J, N); ``right`` gives the
    right limit at t (a jump at tau_j == t counts as past).
    """
    near = np.abs(t - jump_times) <= T_tail
    G = _green_factor(coeff.rates(lap), coeff.m, dich.unstable, t, jump_times[near], right)
    return (G * jump_vecs[near]).sum(axis=0)


# ---------------------------------------------------------------------------
# constant bundle of the fixed-point argument
# ---------------------------------------------------------------------------


def k_bundle(alpha, dich: DichotomyData, theta, Q, C=1.0, g_star=0.0, M_star=0.0) -> dict:
    """Constants K1, K2, K, K3, K4 and Psi1..Psi3 of the contraction argument.

    All are closed-form: K1 integrates ``M1 psi_alpha(s) e^{-beta |s|}``
    with ``int_0^inf s^-alpha e^{-beta s} ds = Gamma(1 - alpha)
    beta^(alpha - 1)``, and Psi3 carries ``B(a, a) = Gamma(a)^2 / Gamma(2a)``
    with a = 1 - alpha.  Raises NonFiniteConstantError when an entry is inf
    or nan, as a huge jump offset or amplitude makes g_star and M_star.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    if theta <= 0.0:
        raise ValueError("impulse separation theta must be positive")
    M1, beta = dich.M1, dich.beta
    pos = 1.0 / beta + math.gamma(1.0 - alpha) * beta ** (alpha - 1.0)
    K1 = M1 * (pos + 1.0 / beta)  # s <= 0 contributes int e^{beta s} ds = 1/beta
    K2 = 2.0 * M1 / (1.0 - np.exp(-beta * theta))
    K = K1 + K2
    denom = 1.0 - np.exp(-beta * theta)
    K3 = M1 * (1.0 + theta ** (-alpha)) * (1.0 + C * g_star + 2.0 * M_star) / denom
    K4 = M1 * (g_star * C + 2.0 * M_star)
    Psi1 = 2.0 * M1 * (1.0 + theta ** (-alpha)) * Q / denom + M1 * Q ** (1.0 - alpha) / (1.0 - alpha)
    Psi2 = 2.0 * M1 * (1.0 + theta ** (-alpha)) * Q ** (1.0 - alpha) / (denom * (1.0 - alpha))
    a = 1.0 - alpha
    Psi3 = M1 * (math.gamma(a) ** 2 / math.gamma(2.0 * a)) * Q ** a
    bundle = {
        "alpha": alpha, "theta": theta, "Q": Q, "K1": K1, "K2": K2, "K": K, "K3": K3, "K4": K4,
        "Psi1": Psi1, "Psi2": Psi2, "Psi3": Psi3, "C": C, "g_star": g_star, "M_star": M_star,
    }
    _require_finite(NonFiniteConstantError, "K-bundle constant", **bundle)
    return bundle
