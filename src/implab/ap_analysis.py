"""Detection and certification of almost periodicity on finite windows.

Infinite sequences and functions are realized on finite symmetric windows;
every supremum below is a supremum over the scanned window and each report
states the range that was scanned.  Three objects are handled:

* windowed sequences ``x_k`` (values in R^d, optionally with a weighted
  Euclidean norm such as the fractional-power norm),
* strongly almost periodic point sets ``tau_k = a k + c_k``,
* left-continuous piecewise sampled functions with listed discontinuities.

``harmonize`` finds a common pair (integer shift q, real shift r) for a
sequence, a point set and a piecewise function, the W-almost-periodicity of
Halanay & Wexler: it scans q and, for each q, candidate r on the function's
grid, and checks the three deviation bounds directly on the data.
``almost_periodicity_report`` crops and samples the function, then writes
per eps the flat ``eps_<e>_*`` record of ``ap_report.txt`` and
``ap_analysis.txt``: the eps-periods of the sequence, their max gap and
relatively-dense verdict, and the (q, r) pair with its Wexler deviation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "StronglyAPSet",
    "PiecewiseSampledFunction",
    "WindowTooShortError",
    "eps_almost_periods",
    "wexler_deviation",
    "harmonize",
    "almost_periodicity_report",
    "cropped_span",
    "nearest_distance",
]


class WindowTooShortError(ValueError):
    """Not enough data for the requested shift range."""


def nearest_distance(t, points) -> np.ndarray:
    """Distance from each time ``t`` to the nearest point of the sorted ``points``.

    Only the two neighbours that ``searchsorted`` finds are compared:
    rounding of t - p is monotone in p, so they give the same float as the
    minimum over every point.  An empty set gives inf.
    """
    if points.size == 0:
        return np.full(t.shape, np.inf)
    k = np.searchsorted(points, t)
    left = np.abs(t - points[np.maximum(k - 1, 0)])
    return np.minimum(left, np.abs(t - points[np.minimum(k, points.size - 1)]), out=left)


def _value_norms(diff, weights=None):
    """Norms of an array of value differences, last axis = value dimension."""
    diff = np.asarray(diff, dtype=float)
    if diff.ndim == 1:
        return np.abs(diff if weights is None else weights * diff)
    if weights is not None:
        diff = diff * weights
    return np.sqrt(np.sum(diff**2, axis=-1))


@dataclass(frozen=True)
class StronglyAPSet:
    """Point set tau_k = a k + c_k on an integer window [j_min, j_max]."""

    a: float
    c: object  # a TrigSum of the index, or an explicit array over the window
    window: tuple  # (j_min, j_max), inclusive

    def __post_init__(self):
        if self.a <= 0.0:
            raise ValueError("mean gap a must be positive")
        with np.errstate(over="ignore"):  # a huge gap overflows to inf, rejected below
            taus = self.taus()
        if not np.all(np.isfinite(taus)):
            raise ValueError("tau_k must be finite on the window")
        if np.any(np.diff(taus) <= 0.0):
            raise ValueError("tau_k must be strictly increasing on the window")

    def indices(self) -> np.ndarray:
        return np.arange(self.window[0], self.window[1] + 1)

    def offsets(self) -> np.ndarray:
        j = self.indices()
        if callable(self.c):
            return np.asarray(self.c(j), dtype=float)
        c = np.asarray(self.c, dtype=float)
        if c.size != j.size:
            raise ValueError("explicit offset window does not match the index window")
        return c

    def taus(self) -> np.ndarray:
        return self.a * self.indices() + self.offsets()


@dataclass(frozen=True)
class PiecewiseSampledFunction:
    """Left-continuous function sampled on a uniform time grid.

    values has shape (T,) or (T, d); discontinuities is a sorted list of
    jump locations (those outside the grid span are dropped).
    """

    t0: float
    h_t: float
    values: np.ndarray
    discontinuities: np.ndarray = field(default_factory=lambda: np.empty(0))
    weights: np.ndarray | None = None  # value-space norm weights

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        d = np.sort(np.asarray(self.discontinuities, dtype=float))
        d = d[(d >= self.t0) & (d <= self.t_end)]
        object.__setattr__(self, "discontinuities", d)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def t_end(self) -> float:
        return self.t0 + self.h_t * (np.asarray(self.values).shape[0] - 1)


def eps_almost_periods(seq, eps, p_range, weights=None) -> tuple:
    """All integer shifts p in p_range with sup_k |x_{k+p} - x_k| < eps, sorted.

    ``seq`` is the windowed value array (first axis = index k); the supremum
    runs over the overlap of the window with its shift.  Requires the window
    to be at least three times longer than the largest requested |p| so
    overlaps stay meaningful.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    seq = np.asarray(seq, dtype=float)
    n = seq.shape[0]
    p_lo, p_hi = int(p_range[0]), int(p_range[1])
    max_abs_p = max(abs(p_lo), abs(p_hi))
    if max_abs_p > 0 and n < 3 * max_abs_p:
        raise WindowTooShortError(
            "window too short: %d samples for |p| up to %d" % (n, max_abs_p)
        )
    periods = []
    for p in range(p_lo, p_hi + 1):
        if p >= 0:
            a, b = seq[p:], seq[: n - p]
        else:
            a, b = seq[: n + p], seq[-p:]
        if a.shape[0] == 0:
            raise WindowTooShortError("window too short: empty overlap at p=%d" % p)
        if float(np.max(_value_norms(a - b, weights))) < eps:
            periods.append(p)
    return tuple(periods)


def wexler_deviation(f: PiecewiseSampledFunction, r, eps_guard) -> float:
    """sup over guarded grid points of |f(t + r) - f(t)|.

    Grid points within ``eps_guard`` of a recorded discontinuity are skipped
    (the Wexler definition excludes eps-neighborhoods of the jumps).  The
    shift is evaluated on the grid, with linear interpolation when r is not
    a grid multiple.
    """
    if eps_guard <= 0.0:
        raise ValueError("eps_guard must be positive")
    n = f.n_samples
    steps = r / f.h_t
    n_floor = int(np.floor(steps))
    frac = steps - n_floor
    if frac < 1e-12 or frac > 1.0 - 1e-12:
        n_shift = int(round(steps))
        frac = 0.0
    else:
        n_shift = n_floor
    need = n_shift + (1 if frac > 0.0 else 0)
    if need >= n or need <= -n:
        raise WindowTooShortError("insufficient window for shift r=%g" % r)
    if n_shift >= 0:
        base = np.arange(0, n - need)
    else:
        base = np.arange(-n_shift, n)
    shifted = f.values[base + n_shift]
    if frac > 0.0:
        shifted = (1.0 - frac) * shifted + frac * f.values[base + n_shift + 1]
    t = f.t0 + f.h_t * base
    mask = nearest_distance(t, f.discontinuities) >= eps_guard
    if not np.any(mask):
        return 0.0
    diff = shifted[mask] - f.values[base[mask]]
    return float(np.max(_value_norms(diff, f.weights)))


def harmonize(B, taus: StronglyAPSet, f: PiecewiseSampledFunction, eps,
              weights=None, q_range=None):
    """Common almost-period pair (q, r) for a sequence, a point set and a function.

    Returns ``(q, r, deviation)`` for the first (q, r) of the scan with, on
    the scanned window, ``sup_k |B_{k+q} - B_k| < eps``,
    ``sup_k |(tau_{k+q} - tau_k) - r| < eps`` and ``deviation =
    wexler_deviation(f, r, eps) < eps``; or None when no candidate in the
    scan range passes (the scan range is visible via ``q_range``).

    q runs up through ``q_range`` (default 1..n // 3).  For each q the
    candidates r are grid steps of ``f`` around the middle of the gap
    range, r_center + k h_t for |k| <= min(400, ceil(eps / h_t) + 1), in
    increasing order; below the cap of 400 steps they cover the admissible
    band (max gaps - eps, min gaps + eps), which is empty unless the gaps
    spread by less than 2 eps.  A shift of n_samples - 1 grid steps or more
    is skipped, so ``wexler_deviation`` always has a window to compare.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    tau_vals = taus.taus()
    B = np.asarray(B, dtype=float)
    n = B.shape[0]
    if tau_vals.size != n:
        raise ValueError("sequence window and point-set window must agree")
    if q_range is None:
        q_range = (1, max(1, n // 3))
    n_r = min(400, int(np.ceil(eps / f.h_t)) + 1)

    for q in range(max(1, q_range[0]), min(n - 1, q_range[1]) + 1):
        if float(np.max(_value_norms(B[q:] - B[:-q], weights))) >= eps:
            continue
        gaps = tau_vals[q:] - tau_vals[:-q]
        if np.max(gaps) - np.min(gaps) >= 2.0 * eps:
            continue
        r_center = 0.5 * (np.min(gaps) + np.max(gaps))
        for r in r_center + f.h_t * np.arange(-n_r, n_r + 1):
            if float(np.max(np.abs(gaps - r))) >= eps:
                continue
            if abs(int(round(r / f.h_t))) >= f.n_samples - 1:
                continue
            deviation = wexler_deviation(f, r, eps)
            if deviation < eps:
                return q, float(r), deviation
    return None


def cropped_span(span, crop, h_t) -> tuple:
    """(t0, t1), the span less ``crop`` at each end; WindowTooShortError below 4 h_t."""
    t0, t1 = span[0] + crop, span[1] - crop
    if t1 - t0 < 4.0 * h_t:
        raise WindowTooShortError(
            "trajectory span too short for the almost-periodicity crop of %g at each end"
            % crop
        )
    return t0, t1


def almost_periodicity_report(seq, k_min, taus, gap, sample, span, crop, h_t, eps_list,
                              weights=None):
    """Per eps: eps-periods of a sequence, a common (q, r) and the Wexler deviation.

    ``seq`` is indexed from ``k_min`` (first axis) and ``taus`` are its sorted
    hit times, the point set ``gap k + c_k`` (the first min(len(taus),
    len(seq)) pair with the sequence).  The span (t_start, t_end) loses
    ``crop`` at each end; ``sample(grid)`` gives the function's (T, N) values
    on the grid of step ``h_t`` over the rest, with the hit times as its
    discontinuities.  ``weights`` measure the sequence and the function.
    Integer periods are scanned over |p| <= len(seq) // 3.

    Returns (t0, t1, record) with [t0, t1] the cropped span and, per eps, the
    keys ``eps_<e>_sequence_{epsilon, n_periods, max_gap, relatively_dense,
    p_range, k_range, periods}`` and ``eps_<e>_q`` (q or "none"), then
    ``eps_<e>_r`` and ``eps_<e>_wexler_deviation`` only when a pair was
    found.  Raises WindowTooShortError when the cropped span is shorter than
    4 h_t.
    """
    t0, t1 = cropped_span(span, crop, h_t)
    grid = np.arange(t0, t1 + h_t / 2.0, h_t)
    f = PiecewiseSampledFunction(
        t0=t0, h_t=h_t, values=sample(grid), discontinuities=taus, weights=weights
    )
    n = seq.shape[0]
    keep = min(taus.size, n)
    hit_set = StronglyAPSet(a=gap, c=taus[:keep] - gap * np.arange(k_min, k_min + keep),
                            window=(k_min, k_min + keep - 1))
    record = {}
    for eps in eps_list:
        tag = "eps_%g_" % eps
        periods = eps_almost_periods(seq, eps, (-(n // 3), n // 3), weights=weights)
        max_gap = float(np.max(np.diff(periods))) if len(periods) >= 2 else None
        record.update({
            tag + "sequence_epsilon": eps,
            tag + "sequence_n_periods": len(periods),
            tag + "sequence_max_gap": "none" if max_gap is None else max_gap,
            tag + "sequence_relatively_dense": max_gap is not None,
            tag + "sequence_p_range": "%d..%d" % (-(n // 3), n // 3),
            tag + "sequence_k_range": "%d..%d" % (k_min, k_min + n - 1),
            tag + "sequence_periods": " ".join(str(p) for p in periods),
            tag + "q": "none",
        })
        found = harmonize(seq[:keep], hit_set, f, eps, weights=weights)
        if found is not None:
            record[tag + "q"], record[tag + "r"], record[tag + "wexler_deviation"] = found
    return t0, t1, record
