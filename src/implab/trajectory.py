"""Piecewise trajectories of impulsive evolution: segments plus hit records.

The state convention is left-continuity: the value stored at a segment's
final node is the pre-jump limit u(T_j) = u(T_j - 0); the next segment opens
at the same time with the post-jump state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Segment", "HitRecord", "PiecewiseTrajectory"]


@dataclass(frozen=True)
class Segment:
    t: np.ndarray  # strictly increasing node times
    states: np.ndarray  # shape (len(t), N)

    def __post_init__(self):
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float))
        object.__setattr__(self, "states", np.asarray(self.states, dtype=float))

    def interp(self, t) -> np.ndarray:
        """Linear interpolation of the coefficients inside the segment.

        Bit for bit what ``np.interp`` gives per mode: the node value at a
        node, the end value beyond either end, and in between the same
        slope formula, all found by one ``searchsorted``.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        xp, fp = self.t, self.states
        j = np.clip(np.searchsorted(xp, t, side="right") - 1, 0, xp.size - 2)
        x0, x1 = xp[j], xp[j + 1]
        f0, f1 = fp[j], fp[j + 1]
        out = (f1 - f0) / (x1 - x0)[:, None] * (t - x0)[:, None] + f0
        out = np.where((t <= x0)[:, None], f0, out)
        return np.where((t >= x1)[:, None], f1, out)


@dataclass(frozen=True)
class HitRecord:
    time: float
    surface: int
    pre: np.ndarray
    post: np.ndarray


@dataclass
class PiecewiseTrajectory:
    segments: list
    hits: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def t_start(self) -> float:
        return float(self.segments[0].t[0])

    @property
    def t_end(self) -> float:
        return float(self.segments[-1].t[-1])

    def hit_times(self) -> np.ndarray:
        return np.array([h.time for h in self.hits])

    def eval(self, t: float) -> np.ndarray:
        return self.eval_many(t)[0]

    def eval_many(self, times) -> np.ndarray:
        """States at the given times, shape (len(times), N).

        The segments tile [t_start, t_end].  A time is evaluated on the
        segment whose span (start, end] holds it, so a cut time gives the
        pre-jump value; earlier times go to the first segment and later ones
        to the last.
        """
        t = np.atleast_1d(np.asarray(times, dtype=float))
        ends = np.array([seg.t[-1] for seg in self.segments])
        k = np.minimum(np.searchsorted(ends, t, side="left"), ends.size - 1)
        out = np.empty((t.size, self.segments[0].states.shape[1]))
        order = np.argsort(k, kind="stable")
        for idx in np.split(order, np.flatnonzero(np.diff(k[order])) + 1):
            out[idx] = self.segments[k[idx[0]]].interp(t[idx])
        return out

    def all_nodes(self):
        """Concatenated (t, states) over all segments, duplicating jump times."""
        t = np.concatenate([seg.t for seg in self.segments])
        s = np.concatenate([seg.states for seg in self.segments])
        return t, s
