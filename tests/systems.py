"""Problem instances shared by the test modules."""

from dataclasses import dataclass

import numpy as np

from implab.ap_analysis import StronglyAPSet
from implab.evolution import LinearCoefficient
from implab.impulsive import ImpulseSystemSpec, JumpSpec
from implab.spectral import DirichletLaplacian
from implab.trig import TrigSum


@dataclass(frozen=True)
class ProfileForcedSystem(ImpulseSystemSpec):
    """A system whose f is a profile of t alone, for the linear oracles.

    ``profile`` maps an array of M times to the (M, N) forcing there.
    """

    profile: object = None

    def forcing(self, t, x) -> np.ndarray:
        """The profile at one time (N,), or at times (M,) as (M, N)."""
        if isinstance(t, np.ndarray) and t.ndim > 0:
            return np.asarray(self.profile(t), dtype=float)
        return np.asarray(self.profile(np.array([t])), dtype=float)[0]


@dataclass(frozen=True)
class IndexedOffsetJumps(JumpSpec):
    """Jumps whose offset d_j = offsets(j) varies with j, for the reduction checks."""

    offsets: object = None

    def offset(self, j, n_modes) -> np.ndarray:
        """d_j, with one row per index of an index array."""
        rows = [np.asarray(self.offsets(int(i)), dtype=float) for i in np.ravel(j)]
        return np.array(rows).reshape(np.shape(j) + (n_modes,))


@dataclass(frozen=True)
class ShiftedCoefficient(LinearCoefficient):
    """A coefficient with per-mode shifts lambda_k -> lambda_k + sigma_k.

    A negative shift makes a mode unstable, for the backward dichotomy branch.
    """

    per_mode_shift: np.ndarray = None

    def rates(self, lap) -> np.ndarray:
        sigma = np.asarray(self.per_mode_shift, dtype=float)
        if sigma.size != lap.n_modes:
            raise ValueError("per_mode_shift length must equal the mode count")
        return lap.eigenvalues + sigma


def make_system(
    n_modes=8,
    rho=1.0,
    a=TrigSum(0.5, ((0.2, 1.0, 0.0),)),
    b=TrigSum(),
    slopes=TrigSum(0.0),
    base_gap=1.0,
    window=(1, 10),
    jumps=None,
    f_override=None,
    l=1.0,
):
    """N modes on (0, l), alpha = 1/2, n_xi = 8N; base moments base_gap * j.

    ``f_override``, a profile of t alone on an array of times, replaces f (a
    ProfileForcedSystem).
    """
    lap = DirichletLaplacian(l=l, n_modes=n_modes, n_xi=8 * n_modes)
    base = StronglyAPSet(a=base_gap, c=TrigSum(0.0), window=window)
    spec = dict(
        lap=lap, alpha=0.5, rho=rho, a=a, b=b, base=base, slopes=slopes,
        jumps=JumpSpec() if jumps is None else jumps,
    )
    if f_override is None:
        return ImpulseSystemSpec(**spec)
    return ProfileForcedSystem(**spec, profile=f_override)


def slope(system, j) -> float:
    """b_j, the slope of surface j."""
    return float(system.slope_window[int(j) - system.base.window[0]])


def rank1_jumps(n_modes, nonlinearity, amp, d1):
    """g_j(x) = amp <e_1, I(u)> e_1 + d1 e_1."""
    left = np.zeros((1, n_modes))
    left[0, 0] = 1.0
    d = np.zeros(n_modes)
    d[0] = d1
    return JumpSpec(left=left, right=left.copy(), nonlinearity=nonlinearity,
                    amp=TrigSum(amp), d=d)


def certified_logistic(window=(1, 6), n_modes=8):
    """Logistic instance whose beating certificate passes (b_j = -0.2)."""
    return make_system(
        n_modes=n_modes,
        a=TrigSum(0.5, ((0.2, 1.0, 0.0), (0.1, np.sqrt(2.0), 0.3))),
        b=TrigSum(0.1, ((0.05, np.sqrt(2.0), 0.0),)),
        slopes=TrigSum(-0.2),
        window=window,
        jumps=rank1_jumps(n_modes, "relu", 0.02, 0.05),
    )


def readme_like(base_gap=1.0, window=(0, 30), slope=-0.2, d1=0.05, l=1.0, a_offset=0.5):
    """The README example: N = 16, n_xi = 128, surfaces 0..30 with slope -0.2."""
    return make_system(
        n_modes=16,
        l=l,
        a=TrigSum(a_offset, ((0.2, 1.0, 0.0),)),
        b=TrigSum(0.1, ((0.05, np.sqrt(2.0), 0.0),)),
        slopes=TrigSum(slope),
        base_gap=base_gap,
        window=window,
        jumps=rank1_jumps(16, "relu", 0.02, d1),
    )


def moving_like():
    """The benchmark's ``moving`` instance: impulse moments that move with the state."""
    return readme_like(base_gap=0.1, window=(0, 150), slope=-0.45, d1=0.18)


def unstable_like():
    """README with l = pi, a = 2.5 + 0.2 cos t and surfaces 0..60: mode 1 is unstable."""
    return readme_like(window=(0, 60), l=np.pi, a_offset=2.5)
