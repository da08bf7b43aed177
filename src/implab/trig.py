"""Finite cosine sums for almost periodic coefficients and sequences.

A ``TrigSum`` is a finite cosine sum ``c0 + sum_i a_i cos(w_i t + p_i)``.
Every time-dependent coefficient in the package (the scalar factor of the
linear part, the logistic rates a(t), b(t)) is represented this way, which
keeps antiderivatives exact: they enter exponents of propagators, where
quadrature errors would amplify exponentially.  The almost periodic
sequences (surface offsets c_j, surface slopes b_j, jump amplitudes) are
the same sums evaluated at integer arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["TrigSum"]


def _merge_terms(terms):
    """Collapse duplicate (freq, phase mod 2 pi) pairs and zero frequencies.

    A merged term keeps its first phase as given; the rounded key only groups.
    """
    out = {}
    offset = 0.0
    for amp, freq, phase in terms:
        if amp == 0.0:
            continue
        if freq < 0.0:
            freq, phase = -freq, -phase
        if freq == 0.0:
            offset += amp * np.cos(phase)
            continue
        key = (freq, round(phase % (2.0 * np.pi), 14))
        total, first_phase = out.get(key, (0.0, phase))
        out[key] = (total + amp, first_phase)
    merged = tuple(
        (amp, freq, phase) for (freq, _), (amp, phase) in sorted(out.items()) if amp != 0.0
    )
    return float(offset), merged


@dataclass(frozen=True)
class TrigSum:
    """Finite cosine sum ``offset + sum a_i cos(w_i t + p_i)``."""

    offset: float = 0.0
    terms: tuple = ()  # tuple of (amp, freq, phase), freq > 0

    def __post_init__(self):
        extra, merged = _merge_terms(self.terms)
        object.__setattr__(self, "offset", float(self.offset) + extra)
        object.__setattr__(self, "terms", merged)

    # A float t (np.float64 included) skips the 0-d array round trip: the
    # same terms in the same order, through math.cos and math.sin on Python
    # floats, so each value is bit-equal to the array path's (the tests pin
    # that libm and numpy agree).

    def __call__(self, t):
        scalar = isinstance(t, float)
        t, cos = (float(t), math.cos) if scalar else (np.asarray(t, dtype=float), np.cos)
        val = self.offset if scalar else np.full_like(t, self.offset)
        for amp, freq, phase in self.terms:
            val = val + amp * cos(freq * t + phase)
        return float(val) if scalar or val.ndim == 0 else val

    def antiderivative(self, t):
        """Exact antiderivative, normalized so that only differences matter."""
        scalar = isinstance(t, float)
        t, sin = (float(t), math.sin) if scalar else (np.asarray(t, dtype=float), np.sin)
        val = self.offset * t
        for amp, freq, phase in self.terms:
            val = val + (amp / freq) * sin(freq * t + phase)
        return float(val) if scalar or val.ndim == 0 else val

    def integral(self, s, t):
        """Exact integral over [s, t]."""
        return self.antiderivative(t) - self.antiderivative(s)

    def sup_bound(self):
        """Upper bound ``|offset| + sum |a_i|`` for sup |m(t)|."""
        return abs(self.offset) + float(sum(abs(a) for a, _, _ in self.terms))

    def shift_sup(self, h):
        """Bound ``sum 2|a_i sin(w_i h / 2)|`` on a*(h) = sup_s |m(s) - m(s+h)|.

        m(s) - m(s+h) = sum 2 a_i sin(w_i h / 2) sin(w_i (s + h/2) + p_i), so
        the bound is rigorous and exact for a single frequency.
        """
        total = 0.0  # summed in order: sum() compensates Python floats from 3.12 on
        for a, f, _ in self.terms:
            total = total + 2.0 * abs(a * math.sin(f * h / 2.0))
        return float(total)

    def __add__(self, other):
        if isinstance(other, TrigSum):
            return TrigSum(self.offset + other.offset, self.terms + other.terms)
        return TrigSum(self.offset + float(other), self.terms)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, TrigSum):
            terms = []
            # offset * cosine parts
            terms += [(self.offset * a, f, p) for a, f, p in other.terms]
            terms += [(other.offset * a, f, p) for a, f, p in self.terms]
            # product-to-sum for cosine * cosine
            for a1, f1, p1 in self.terms:
                for a2, f2, p2 in other.terms:
                    terms.append((0.5 * a1 * a2, f1 + f2, p1 + p2))
                    terms.append((0.5 * a1 * a2, f1 - f2, p1 - p2))
            return TrigSum(self.offset * other.offset, tuple(terms))
        c = float(other)
        return TrigSum(c * self.offset, tuple((c * a, f, p) for a, f, p in self.terms))

    __rmul__ = __mul__
