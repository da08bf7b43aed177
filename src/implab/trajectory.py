"""Piecewise trajectories of impulsive evolution: one node table plus hit records.

The state convention is left-continuity, u(T_j) = u(T_j - 0).  A trajectory
is one table of non-decreasing node times; a time that appears twice marks a
cut, whose first row is the pre-jump state and whose second row the
post-jump state that opens the next piece.  ``Segment.interp`` on that
table is the one evaluation rule: a cut time gives the pre-jump row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Segment", "HitRecord", "PiecewiseTrajectory"]


@dataclass(frozen=True)
class Segment:
    t: np.ndarray  # non-decreasing node times; a repeated time is a cut
    states: np.ndarray  # shape (len(t), N)

    def __post_init__(self):
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float))
        object.__setattr__(self, "states", np.asarray(self.states, dtype=float))

    def interp(self, t) -> np.ndarray:
        """Linear interpolation of the coefficients between the nodes.

        A time goes to the first step (x0, x1] that holds it, all found by
        one ``searchsorted``: a node time gives the row of its first
        occurrence, so a cut time gives the pre-jump row, and times beyond
        either end give the end row.  On strictly increasing nodes this is
        bit for bit what numpy's ``interp`` gives per mode.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        xp, fp = self.t, self.states
        j = np.clip(np.searchsorted(xp, t, side="left") - 1, 0, xp.size - 2)
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
    nodes: Segment
    hits: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def t_start(self) -> float:
        return float(self.nodes.t[0])

    @property
    def t_end(self) -> float:
        return float(self.nodes.t[-1])

    def hit_times(self) -> np.ndarray:
        return np.array([h.time for h in self.hits])

    def eval(self, t: float) -> np.ndarray:
        return self.eval_many(t)[0]

    def eval_many(self, times) -> np.ndarray:
        """States at the given times, shape (len(times), N); a cut time gives the pre-jump state."""
        return self.nodes.interp(times)
