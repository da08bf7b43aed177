"""Problem-instance files: flat INI sections, parsed into system objects.

A config file fully determines one problem instance: geometry, the trig-sum
coefficients a(t) and b(t), the confinement ball (rho, alpha), the impulse
surface lattice, the jump maps, solver tolerances, the reporting window and
the sampling seed.  All generator functions are lists of
``amplitude frequency phase`` triples, so no expression parsing is needed
and instances are reproducible byte for byte.

``SECTION_KEYS`` is the file format: it maps each section and key to the one
parser of its value, which holds the key's bound and raises ``ConfigError``
outside it.  Any other section or key is rejected.  An empty list value
(``u0``, ``d``, ``kernel_*``, ``*_terms``) means the key is absent; an empty
scalar value is rejected.

``validate_instance`` enforces the checkable hypothesis parts that combine
keys: the ball quantities and 1 / (rho^2 + sqrt(l) rho^3) are finite floats,
and so is ((lambda_N + sup|m| + max(w + |p|)) t)^2 over the instance's times,
surface slopes have the admissible sign (b_j <= 0), the surface time
intervals over the ball are separated (theta > 0, by interval arithmetic),
and the n_xi grid has at least 4N points.  ``check_grid`` bounds a time
grid of ``solve-ap`` or ``analyze-ap`` once the command knows its span.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from .ap_analysis import StronglyAPSet
from .impulsive import (
    JUMP_MAP_CATALOGUE,
    ImpulseSystemSpec,
    JumpSpec,
    SeparationError,
)
from .solver import SolverConfig
from .spectral import AliasingError, DirichletLaplacian
from .trig import TrigSum

__all__ = ["ConfigError", "InstanceConfig", "check_grid", "load_instance", "validate_instance"]


class ConfigError(ValueError):
    """The instance file is malformed or violates a checkable hypothesis."""


def _number(convert, ok, bound):
    """Parser of one number: convert(text), or ConfigError unless ok(value)."""

    def parse(text, name):
        try:
            value = convert(text)
            if ok(value):  # a nan fails every bound
                return value
        except ValueError:
            pass
        raise ConfigError("%s must be %s, not %r" % (name, bound, text))

    return parse


def _list(item, sep=None):
    """Parser of the items of text split at sep (default: whitespace or ',').

    Empty items are skipped, and an empty list is None: the key is absent.
    """

    def parse(text, name):
        toks = text.split(sep) if sep else text.replace(",", " ").split()
        return [v for v in (item(tok, name) for tok in toks) if v is not None] or None

    return parse


def _pair(item, most=np.inf):
    """Parser of 'lo hi': two values through item, with lo < hi <= lo + most."""
    bound = "lo < hi" if most == np.inf else "lo < hi <= lo + %d" % most

    def parse(text, name):
        vals = tuple(item(tok, name) for tok in text.split())
        if len(vals) != 2 or not vals[0] < vals[1] <= vals[0] + most:
            raise ConfigError("%s must be 'lo hi' with %s, not %r" % (name, bound, text))
        return vals

    return parse


def _size(most):
    """Parser of an integer in [1, most]."""
    return _number(int, lambda v: 1 <= v <= most, "an integer in [1, %d]" % most)


_REAL = _number(float, np.isfinite, "finite")
_POSITIVE = _number(float, lambda v: 0.0 < v < np.inf, "finite and > 0")
_NONNEGATIVE = _number(float, lambda v: 0.0 <= v < np.inf, "finite and >= 0")
_COUNT = _number(int, lambda v: v >= 1, "an integer >= 1")
_VECTOR = _list(_REAL)


def _triple(text, name):
    vals = _VECTOR(text, name)
    if vals is not None and len(vals) != 3:
        raise ConfigError("%s term %r is not an 'amp freq phase' triple" % (name, text))
    return vals


def _eps(text, name):
    vals = _list(_POSITIVE)(text, name)
    if vals is None:
        raise ConfigError("%s needs at least one value" % name)
    if len({"%g" % v for v in vals}) < len(vals):  # each value keys its eps_%g_* lines
        raise ConfigError("%s values must differ in %%g form, not %r" % (name, text))
    return tuple(vals)


def _nonlinearity(text, name):
    if text not in JUMP_MAP_CATALOGUE:
        raise ConfigError("%s must be one of %s, not %r"
                          % (name, " ".join(JUMP_MAP_CATALOGUE), text))
    return text


_TERMS = _list(_triple, ";")  # 'amp freq phase; amp freq phase; ...'

# the file format: each accepted key of each section, case-sensitive, with the
# parser of its value.  [overrides]: the crop of analyze-ap; every constant
# follows from the instance.
# The sizes have upper bounds, checked before anything is allocated: the sine
# basis is n_modes x (n_xi + 1) floats, at most 512 x 8193 (34 MB); certify
# samples the surfaces in groups of max(1, 512 // n_samples), so it keeps
# (max(n_samples, 512), N) arrays, at most 4096 x 512 floats (17 MB), and
# takes them to the grid 512 states at a time through the Laplacian's
# scratch grid, at most 512 x 8193 floats (34 MB); the commands keep arrays and
# loops per surface, at most 10^4 surfaces.  The time grids, whose spans are known
# only later, are bounded by ``check_grid`` before they are allocated
SECTION_KEYS = {
    "geometry": {"l": _POSITIVE, "n_modes": _size(512), "n_xi": _size(8192)},
    "problem": {"alpha": _number(float, lambda v: 0.0 < v < 1.0, "in (0, 1)"), "rho": _POSITIVE},
    "coefficient_a": {"offset": _REAL, "terms": _TERMS},
    "coefficient_b": {"offset": _REAL, "terms": _TERMS},
    "surfaces": {"gap": _POSITIVE,
                 "window": _pair(_number(int, lambda v: True, "an integer"), 10**4 - 1),
                 "offset_constant": _REAL, "offset_terms": _TERMS,
                 "slope_constant": _REAL, "slope_terms": _TERMS},
    "jumps": {"nonlinearity": _nonlinearity, "kernel_left": _list(_VECTOR, ";"),
              "kernel_right": _list(_VECTOR, ";"), "amp_constant": _REAL, "amp_terms": _TERMS,
              "d": _VECTOR},
    "solver": {**dict.fromkeys(("h_t", "inner_tol", "outer_tol", "event_tol", "tail_tol"),
                               _POSITIVE),
               # the step-doubling estimate's rounding level: a smaller seg_tol is never met
               "seg_tol": _number(float, lambda v: 1e-14 <= v < np.inf, "finite and >= 1e-14"),
               "max_inner": _COUNT, "max_outer": _COUNT,
               "window": _pair(_REAL)},
    "sampling": {"seed": _number(int, lambda v: v >= 0, "an integer >= 0"),
                 "n_samples": _size(4096)},
    "analysis": {"eps": _eps},
    "simulate": {"u0": _VECTOR, "t_range": _pair(_REAL)},
    # a negative crop would sample past the data, where the interpolant repeats its end rows
    "overrides": {"analysis_crop": _NONNEGATIVE},
}


# a time grid's span over its step, times n_modes, is at most GRID_VALUES: solve-ap's
# node table spans under 2 (w1 - w0), since the AP crop keeps each buffer below
# (w1 - w0) / 2, so each of its (M, N) arrays has at most 4 10^6 floats (32 MB);
# each almost-periodicity analysis samples at most 2 10^6 floats (16 MB)
GRID_VALUES = 2 * 10**6


def check_grid(span, h_t, n_modes, what) -> None:
    """ConfigError unless span / h_t * n_modes <= GRID_VALUES; ``what`` names the grid's fault.

    The test multiplies instead of dividing by h_t, so a tiny step overflows nothing.
    """
    if float(span) * n_modes > GRID_VALUES * h_t:
        raise ConfigError("%s: (span / h_t) n_modes must be at most %d, with span = %g, "
                          "h_t = %g and n_modes = %d" % (what, GRID_VALUES, span, h_t, n_modes))


def _modes(vals, n_modes, name) -> np.ndarray:
    """The coefficients vals, padded with zeros to n_modes."""
    if len(vals) > n_modes:
        raise ConfigError("%s has %d coefficients for %d modes" % (name, len(vals), n_modes))
    out = np.zeros(n_modes)
    out[: len(vals)] = vals
    return out


def _sum(sec, prefix, offset=0.0) -> TrigSum:
    """The TrigSum of <prefix>_constant (default offset) and <prefix>_terms."""
    return TrigSum(sec.get(prefix + "_constant", offset), sec.get(prefix + "_terms", ()))


@dataclass(frozen=True)
class InstanceConfig:
    """One loaded problem instance plus run parameters."""

    system: ImpulseSystemSpec
    solver: SolverConfig
    time_window: tuple
    u0: np.ndarray
    t_range: tuple
    eps_list: tuple
    seed: int = 0
    n_samples: int = 512
    overrides: dict = field(default_factory=dict)


def load_instance(path) -> InstanceConfig:
    """Parse an instance file; raises ConfigError on malformed input."""
    # ';' separates terms and kernel rows, so only '#' starts a comment
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.optionxform = str  # keep key case (l vs L in [geometry])
    try:
        read = parser.read(str(path))
    except configparser.Error as exc:  # a repeated section or key, a line outside a section
        raise ConfigError("malformed config: %s" % exc) from None
    if not read:
        raise ConfigError("cannot read config file %s" % path)
    sections = parser.sections() + ([parser.default_section] if parser.defaults() else [])
    unknown = [name for name in sections if name not in SECTION_KEYS]
    if unknown:
        raise ConfigError(
            "unknown section(s) %s; accepted: %s" % (" ".join(unknown), " ".join(SECTION_KEYS))
        )
    for name in sections:
        unknown = sorted(set(parser[name]) - set(SECTION_KEYS[name]))
        if unknown:
            raise ConfigError("unknown [%s] key(s) %s; accepted: %s"
                              % (name, " ".join(unknown), " ".join(SECTION_KEYS[name])))
    values = {name: {} for name in SECTION_KEYS}
    for name in sections:
        for key, text in parser[name].items():
            value = SECTION_KEYS[name][key](text, "[%s] %s" % (name, key))
            if value is not None:
                values[name][key] = value

    geo, surf, jsec, ssec = (values[s] for s in ("geometry", "surfaces", "jumps", "solver"))
    # lambda_N = (N pi / l)^2, the Laplacian's largest eigenvalue: a float product overflows to inf
    root = geo.get("n_modes", 16) * np.pi / geo.get("l", 1.0)
    if not root * root < np.inf:
        raise ConfigError("[geometry] l too small: lambda_N = (N pi / l)^2 must be finite")
    # lambda_1 = (pi / l)^2, the smallest eigenvalue: the ball radius divides by it
    if not (np.pi / geo.get("l", 1.0)) ** 2 > 0.0:
        raise ConfigError("[geometry] l too large: lambda_1 = (pi / l)^2 must be > 0")
    lap = DirichletLaplacian(**geo)
    left, right = (
        np.stack([_modes(row, lap.n_modes, "[jumps] " + key) for row in jsec[key]])
        if key in jsec else None
        for key in ("kernel_left", "kernel_right")
    )
    if (left is None) != (right is None):
        raise ConfigError("kernel_left and kernel_right must come together")
    if left is not None and left.shape != right.shape:
        raise ConfigError("kernel rank mismatch between left and right")
    try:
        base = StronglyAPSet(a=surf.get("gap", 1.0), c=_sum(surf, "offset"),
                             window=surf.get("window", (0, 30)))
    except ValueError as exc:  # offsets that keep tau_k from increasing
        raise ConfigError("malformed config: %s" % exc) from None
    jumps = JumpSpec(
        left=left, right=right, nonlinearity=jsec.get("nonlinearity", JumpSpec.nonlinearity),
        amp=_sum(jsec, "amp", JumpSpec.amp.offset),
        d=_modes(jsec["d"], lap.n_modes, "[jumps] d") if "d" in jsec else None,
    )
    system = ImpulseSystemSpec(
        lap=lap, **({"alpha": 0.5, "rho": 1.0} | values["problem"]),
        a=TrigSum(**values["coefficient_a"]), b=TrigSum(**values["coefficient_b"]),
        base=base, slopes=_sum(surf, "slope"), jumps=jumps,
    )
    t_window = ssec.pop("window", (0.0, 10.0))
    sim = values["simulate"]
    u0 = _modes(sim.get("u0", ()), lap.n_modes, "[simulate] u0")
    # a finite u0 outside the ball is simulate's ball exit; one whose norm overflows is no state
    with np.errstate(over="ignore"):
        if not lap.frac_norm(u0, system.alpha) < np.inf:
            raise ConfigError("[simulate] u0 too large: |u0|_alpha must be finite")
    return InstanceConfig(
        system=system, solver=SolverConfig(**ssec), time_window=t_window, u0=u0,
        t_range=sim.get("t_range", t_window), eps_list=values["analysis"].get("eps", (1e-2,)),
        overrides=values["overrides"], **values["sampling"],
    )


def validate_instance(cfg: InstanceConfig) -> dict:
    """Checkable hypothesis parts; raises ConfigError on the first failure.

    Returns a record of the checked quantities (slope range, separation
    theta, sup_j |d_j|_1).
    """
    system = cfg.system
    lap, rho = system.lap, system.rho
    # the ball quantities of theta and beta_0, each finite, and beta_0's 1 / (rho^2 + sqrt(l)
    # rho^3) too; a float overflows to inf, and a tiny lambda_1^(2 alpha) underflows to 0
    ball = (system.sup_q, lap.l**0.5 * (rho * rho * rho))
    if not np.all(np.isfinite(ball)):
        raise ConfigError("[problem] rho too large or [geometry] l too large: rho^2 / "
                          "lambda_1^(2 alpha) and sqrt(l) rho^3 must be finite")
    small = rho * rho + ball[1]
    if not (small > 0.0 and 1.0 / small < np.inf):
        raise ConfigError("[problem] rho too small: 1 / (rho^2 + sqrt(l) rho^3) must be finite")

    # m = rho a b - a over the instance's times (the windows, the base times and the dichotomy
    # fit's samples, |t| <= 60): its antiderivative, z^2 of the step weights, with
    # z = (lambda_k + m) h, and the math.cos/math.sin arguments w t + p of m and a b (an
    # infinite one raises) overflow unless ((lambda_N + sup|m| + max(w + |p|)) t)^2 is finite
    span = float(np.max(np.abs(np.r_[cfg.time_window, cfg.t_range, system.base_times, 60.0])))
    arg = max((f + abs(p) for _, f, p in system.coeff.m.terms + system.ab.terms), default=0.0)
    reach = (float(lap.eigenvalues[-1]) + system.coeff.m.sup_bound() + arg) * span
    if not reach * reach < np.inf:
        raise ConfigError("[geometry] l too small or [coefficient_a] and [coefficient_b] too "
                          "large: ((lambda_N + sup|m| + max(w + |p|)) t)^2 must be finite for "
                          "|t| <= %g, with lambda_N = (N pi / l)^2, m = rho a b - a and "
                          "w, p the frequencies and phases of m and a b" % span)

    slopes = system.slope_window
    if np.any(slopes > 0.0):
        raise ConfigError("surface slopes b_j must be <= 0 (beating hypothesis)")

    try:
        theta = system.theta
        lap.basis  # built here once for the command; rejects n_xi + 1 < 4N
    except (SeparationError, AliasingError) as exc:
        raise ConfigError(str(exc)) from exc

    # d_j is one array for every j: sup_j |d_j|_1 is its norm at the first surface.  A huge
    # d_j gives inf, without a warning: the constant bundle rejects it by name
    j0 = system.base.window[0]
    with np.errstate(over="ignore"):
        d_norm = float(lap.frac_norm(system.jumps.offset(j0, lap.n_modes), 1.0))

    return {
        "slope_min": float(np.min(slopes)),
        "slope_max": float(np.max(slopes)),
        "theta": theta,
        "d_norm_x1": d_norm,
    }
