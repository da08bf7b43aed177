"""Trigonometric-sum generators for almost periodic coefficients and sequences.

A ``TrigSum`` is a finite cosine sum ``c0 + sum_i a_i cos(w_i t + p_i)``.
Every time-dependent coefficient in the package (the scalar factor of the
linear part, the logistic rates a(t), b(t)) is represented this way, which
keeps antiderivatives exact: they enter exponents of propagators, where
quadrature errors would amplify exponentially.

``SeqGen`` is the discrete analogue, used for surface offsets c_j, surface
slopes b_j and jump modulations: sequences of the form
``off + sum_m amp_m cos(w_m k + p_m)`` which are almost periodic by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TrigSum", "SeqGen"]


def _merge_terms(terms):
    """Collapse duplicate (freq, phase) pairs and zero frequencies."""
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
        out[key] = out.get(key, 0.0) + amp
    merged = tuple(
        (amp, freq, phase) for (freq, phase), amp in sorted(out.items()) if amp != 0.0
    )
    return offset, merged


@dataclass(frozen=True)
class TrigSum:
    """Finite cosine sum ``offset + sum a_i cos(w_i t + p_i)``."""

    offset: float = 0.0
    terms: tuple = ()  # tuple of (amp, freq, phase), freq > 0

    def __post_init__(self):
        extra, merged = _merge_terms(self.terms)
        object.__setattr__(self, "offset", float(self.offset) + extra)
        object.__setattr__(self, "terms", merged)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        val = np.full_like(t, self.offset, dtype=float)
        for amp, freq, phase in self.terms:
            val = val + amp * np.cos(freq * t + phase)
        return val if val.ndim else float(val)

    def antiderivative(self, t):
        """Exact antiderivative, normalized so that only differences matter."""
        t = np.asarray(t, dtype=float)
        val = self.offset * t
        for amp, freq, phase in self.terms:
            val = val + (amp / freq) * np.sin(freq * t + phase)
        return val if val.ndim else float(val)

    def integral(self, s, t):
        """Exact integral over [s, t]."""
        return self.antiderivative(t) - self.antiderivative(s)

    @property
    def mean(self):
        return self.offset

    def sup_bound(self):
        """Upper bound ``|offset| + sum |a_i|`` for sup |m(t)|."""
        return abs(self.offset) + float(sum(abs(a) for a, _, _ in self.terms))

    def shift_sup(self, h):
        """Bound ``sum 2|a_i sin(w_i h / 2)|`` on a*(h) = sup_s |m(s) - m(s+h)|.

        m(s) - m(s+h) = sum 2 a_i sin(w_i h / 2) sin(w_i (s + h/2) + p_i), so
        the bound is rigorous and exact for a single frequency.
        """
        return float(sum(2.0 * abs(a * np.sin(f * h / 2.0)) for a, f, _ in self.terms))

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

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        return self + (-other if isinstance(other, TrigSum) else -float(other))


@dataclass(frozen=True)
class SeqGen:
    """Almost periodic scalar (or vector-valued) sequence generator.

    k -> offset + sum_m amps[m] * cos(freqs[m] * k + phases[m]).
    ``amps`` may be an array of shape (M,) for scalar sequences or (M, d)
    for d-dimensional values; ``offset`` follows the same convention.
    """

    freqs: tuple = ()
    amps: tuple = ()
    phases: tuple = ()
    offset: float | tuple = 0.0

    def __call__(self, k):
        k = np.asarray(k, dtype=float)
        offset = np.asarray(self.offset, dtype=float)
        scalar_vals = offset.ndim == 0
        val = np.zeros(k.shape + offset.shape) + offset
        for freq, amp, phase in zip(self.freqs, self.amps, self.phases):
            amp = np.asarray(amp, dtype=float)
            osc = np.cos(freq * k + phase)
            val = val + (osc[..., None] * amp if amp.ndim else osc * amp)
        if k.ndim == 0 and scalar_vals:
            return float(val)
        return val

    @staticmethod
    def constant(value):
        return SeqGen(offset=value)
