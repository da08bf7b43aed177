"""Problem-instance files: flat INI sections, parsed into system objects.

A config file fully determines one problem instance: geometry, the trig-sum
coefficients a(t) and b(t), the confinement ball (rho, alpha), the impulse
surface lattice, the jump maps, solver tolerances, the reporting window and
the sampling seed.  All generator functions are lists of
``amplitude frequency phase`` triples, so no expression parsing is needed
and instances are reproducible byte for byte.

Every section and key must be one of ``SECTION_KEYS``; every float must be
finite, and steps, tolerances, the buffer and the eps levels also > 0.

``validate_instance`` enforces the checkable hypothesis parts at load time:
surface slopes have the admissible sign (b_j <= 0), the surface time
intervals over the ball are separated (theta > 0, by interval arithmetic),
the n_xi grid has at least 4N points, the jump offsets d_j have finite X^1
norm, and the catalogue map I satisfies I(0) = 0.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from .ap_analysis import StronglyAPSet
from .impulsive import (
    ImpulseSurfaceSpec,
    ImpulseSystemSpec,
    JumpSpec,
    SeparationError,
)
from .solver import SolverConfig
from .spectral import AliasingError, DirichletLaplacian
from .trig import TrigSum

__all__ = ["ConfigError", "InstanceConfig", "load_instance", "validate_instance"]


class ConfigError(ValueError):
    """The instance file is malformed or violates a checkable hypothesis."""


# the accepted keys of each section, case-sensitive; any other section or key
# is rejected.  [overrides]: the dichotomy constants (constants, solve-ap),
# the K-bundle inputs (constants, solve-ap) and the resampling of analyze-ap
SECTION_KEYS = {
    "geometry": ("l", "n_modes", "n_xi"),
    "problem": ("alpha", "rho"),
    "coefficient_a": ("offset", "terms"),
    "coefficient_b": ("offset", "terms"),
    "surfaces": ("gap", "window", "offset_constant", "offset_terms",
                 "slope_constant", "slope_terms"),
    "jumps": ("nonlinearity", "kernel_left", "kernel_right", "amp_constant",
              "amp_terms", "d"),
    "solver": ("h_t", "inner_tol", "outer_tol", "residual_tol", "event_tol",
               "tail_tol", "seg_tol", "buffer", "max_inner", "max_outer", "window"),
    "sampling": ("seed", "n_samples"),
    "analysis": ("eps",),
    "simulate": ("u0", "t_range"),
    "overrides": ("M", "beta", "M1", "M2", "beta1", "theta", "Q", "C",
                  "analysis_crop", "analysis_h_t"),
}


def _check_keys(parser) -> None:
    """Reject a section or key that ``SECTION_KEYS`` does not list."""
    sections = parser.sections() + ([parser.default_section] if parser.defaults() else [])
    unknown = [name for name in sections if name not in SECTION_KEYS]
    if unknown:
        raise ConfigError(
            "unknown section(s) %s; accepted: %s" % (" ".join(unknown), " ".join(SECTION_KEYS))
        )
    for name in sections:
        unknown = sorted(set(parser[name]) - set(SECTION_KEYS[name]))
        if unknown:
            raise ConfigError(
                "unknown [%s] key(s) %s; accepted: %s"
                % (name, " ".join(unknown), " ".join(SECTION_KEYS[name]))
            )


def _finite(text, name, positive=False) -> float:
    """float(text); ConfigError naming the key unless it is finite (and > 0)."""
    # a step or tolerance of 0 would never end its loop, nor would an infinite range
    value = float(text)
    if not np.isfinite(value) or (positive and value <= 0.0):
        raise ConfigError("%s must be finite%s" % (name, " and > 0" if positive else ""))
    return value


def _floats(text, name, positive=False) -> list:
    return [_finite(tok, name, positive) for tok in text.replace(",", " ").split()]


def _getfloat(sec, key, default) -> float:
    """The float of a section key, or default when the key is absent."""
    return default if key not in sec else _finite(sec[key], "[%s] %s" % (sec.name, key))


def _parse_triples(text, name) -> tuple:
    """'amp freq phase; amp freq phase; ...' -> ((amp, freq, phase), ...)."""
    out = []
    for chunk in text.split(";"):
        vals = _floats(chunk, name)
        if not vals:
            continue
        if len(vals) != 3:
            raise ConfigError("term %r is not an 'amp freq phase' triple" % chunk)
        out.append(tuple(vals))
    return tuple(out)


def _parse_vector(text, n_modes, name) -> np.ndarray:
    vals = _floats(text, name)
    if len(vals) > n_modes:
        raise ConfigError("vector has %d coefficients for %d modes" % (len(vals), n_modes))
    out = np.zeros(n_modes)
    out[: len(vals)] = vals
    return out


def _parse_rows(text, n_modes, name):
    rows = [
        _parse_vector(chunk, n_modes, name) for chunk in text.split(";") if chunk.strip()
    ]
    return np.stack(rows) if rows else None


def _interval(text, name) -> tuple:
    """'lo hi' -> (lo, hi), two values with lo < hi."""
    vals = tuple(_finite(v, name) for v in text.split())
    if len(vals) != 2 or vals[1] <= vals[0]:
        raise ConfigError("%s must be 'lo hi' with lo < hi" % name)
    return vals


def _trig_sum(sec, offset_key="offset", terms_key="terms", offset=0.0) -> TrigSum:
    return TrigSum(
        offset=_getfloat(sec, offset_key, offset),
        terms=_parse_triples(sec.get(terms_key, ""), "[%s] %s" % (sec.name, terms_key)),
    )


@dataclass(frozen=True)
class InstanceConfig:
    """One loaded problem instance plus run parameters."""

    system: ImpulseSystemSpec
    solver: SolverConfig
    time_window: tuple
    seed: int
    n_samples: int
    eps_list: tuple
    u0: np.ndarray
    t_range: tuple
    overrides: dict = field(default_factory=dict)


def load_instance(path) -> InstanceConfig:
    """Parse an instance file; raises ConfigError on malformed input."""
    # ';' separates terms and kernel rows, so only '#' starts a comment
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.optionxform = str  # keep key case (M1 vs m1 in [overrides])
    read = parser.read(str(path))
    if not read:
        raise ConfigError("cannot read config file %s" % path)
    _check_keys(parser)
    try:
        geo = parser["geometry"]
        lap = DirichletLaplacian(
            l=_getfloat(geo, "l", 1.0), n_modes=geo.getint("n_modes", 16)
        )
        n_xi = geo.getint("n_xi", 256)

        prob = parser["problem"]
        alpha = _getfloat(prob, "alpha", 0.5)
        rho = _getfloat(prob, "rho", 1.0)

        a = _trig_sum(parser["coefficient_a"]) if "coefficient_a" in parser else TrigSum()
        b = _trig_sum(parser["coefficient_b"]) if "coefficient_b" in parser else TrigSum()

        surf = parser["surfaces"]
        j_lo, j_hi = (int(v) for v in surf.get("window", "0 30").split())
        base = StronglyAPSet(
            a=_getfloat(surf, "gap", 1.0),
            c=_trig_sum(surf, "offset_constant", "offset_terms"),
            window=(j_lo, j_hi),
        )
        surfaces = ImpulseSurfaceSpec(base, _trig_sum(surf, "slope_constant", "slope_terms"))

        jsec = parser["jumps"] if "jumps" in parser else {}
        if jsec:
            left = _parse_rows(jsec.get("kernel_left", ""), lap.n_modes, "[jumps] kernel_left")
            right = _parse_rows(jsec.get("kernel_right", ""), lap.n_modes, "[jumps] kernel_right")
            if (left is None) != (right is None):
                raise ConfigError("kernel_left and kernel_right must come together")
            if left is not None and left.shape != right.shape:
                raise ConfigError("kernel rank mismatch between left and right")
            d_text = jsec.get("d", "")
            jumps = JumpSpec(
                left=left,
                right=right,
                nonlinearity=jsec.get("nonlinearity", "zero"),
                amp=_trig_sum(jsec, "amp_constant", "amp_terms", 1.0),  # JumpSpec.amp's default
                d=_parse_vector(d_text, lap.n_modes, "[jumps] d") if d_text.strip() else None,
            )
        else:
            jumps = JumpSpec()

        system = ImpulseSystemSpec(
            lap=lap, alpha=alpha, rho=rho, a=a, b=b,
            surfaces=surfaces, jumps=jumps, n_xi=n_xi,
        )

        ssec = parser["solver"] if "solver" in parser else {}
        kwargs = {}
        for key in ("h_t", "inner_tol", "outer_tol", "residual_tol",
                    "event_tol", "tail_tol", "seg_tol", "buffer"):
            if ssec and ssec.get(key, "").strip():
                kwargs[key] = _finite(ssec[key], "[solver] " + key, positive=True)
        if kwargs.get("seg_tol", 1.0) < 1e-14:  # the step-doubling estimate's rounding level
            raise ConfigError("[solver] seg_tol must be >= 1e-14")
        for key in ("max_inner", "max_outer"):
            if ssec and ssec.get(key, "").strip():
                kwargs[key] = int(ssec[key])
                if kwargs[key] < 1:
                    raise ConfigError("[solver] %s must be at least 1" % key)
        solver = SolverConfig(**kwargs)
        t_window = _interval(ssec.get("window", "0 10") if ssec else "0 10", "[solver] window")

        samp = parser["sampling"] if "sampling" in parser else {}
        seed = int(samp.get("seed", 0)) if samp else 0
        n_samples = int(samp.get("n_samples", 512)) if samp else 512
        if n_samples < 1:
            raise ConfigError("[sampling] n_samples must be at least 1")

        asec = parser["analysis"] if "analysis" in parser else {}
        eps_list = tuple(_floats(asec.get("eps", "1e-2"), "[analysis] eps", positive=True)
                         if asec else (1e-2,))
        if not eps_list:
            raise ConfigError("[analysis] eps needs at least one value")

        sim = parser["simulate"] if "simulate" in parser else {}
        u0_text = sim.get("u0", "") if sim else ""
        u0 = (_parse_vector(u0_text, lap.n_modes, "[simulate] u0") if u0_text.strip()
              else np.zeros(lap.n_modes))
        t_range = (
            _interval(sim["t_range"], "[simulate] t_range")
            if sim and "t_range" in sim else t_window
        )

        osec = parser["overrides"] if "overrides" in parser else {}
        overrides = {k: _finite(v, "[overrides] " + k) for k, v in osec.items()} if osec else {}
        if "analysis_h_t" in overrides:
            _finite(overrides["analysis_h_t"], "[overrides] analysis_h_t", positive=True)
        # a negative crop would sample past the data, where the interpolant repeats its end rows
        if overrides.get("analysis_crop", 0.0) < 0.0:
            raise ConfigError("[overrides] analysis_crop must be finite and >= 0")
    except ConfigError:
        raise
    except (KeyError, ValueError) as exc:
        raise ConfigError("malformed config: %s" % exc) from exc

    return InstanceConfig(
        system=system, solver=solver, time_window=t_window, seed=seed,
        n_samples=n_samples, eps_list=eps_list, u0=u0, t_range=t_range,
        overrides=overrides,
    )


def validate_instance(cfg: InstanceConfig) -> dict:
    """Checkable hypothesis parts; raises ConfigError on the first failure.

    Returns a record of the checked quantities (slope range, separation
    theta, sup_j |d_j|_1, I(0)).
    """
    system = cfg.system
    lap, alpha, rho = system.lap, system.alpha, system.rho
    if not 0.0 < alpha < 1.0:
        raise ConfigError("alpha must lie in (0, 1)")
    if rho <= 0.0:
        raise ConfigError("rho must be positive")
    # the ball quantities of theta and beta_0; a float product overflows to inf, a power raises
    ball = (rho * rho / lap.eigenvalues[0] ** (2.0 * alpha), lap.l**0.5 * (rho * rho * rho))
    if not np.all(np.isfinite(ball)):
        raise ConfigError("[problem] rho too large: rho^2 / lambda_1^(2 alpha) and sqrt(l) rho^3 "
                          "must be finite")

    slopes = system.surfaces.slope_window
    if np.any(slopes > 0.0):
        raise ConfigError("surface slopes b_j must be <= 0 (beating hypothesis)")

    try:
        theta = system.theta
        system.transform  # built here once for the command; rejects n_xi + 1 < 4N
    except (SeparationError, AliasingError) as exc:
        raise ConfigError(str(exc)) from exc

    d_norm = 0.0
    for j in system.surfaces.indices()[:: max(1, slopes.size // 8)]:
        d = system.jumps.offset(j, lap.n_modes)
        if not np.all(np.isfinite(d)):
            raise ConfigError("jump offset d_%d is not finite" % j)
        d_norm = max(d_norm, float(lap.frac_norm(d, 1.0)))

    i_zero = float(np.asarray(system.jumps.i_map(np.zeros(1)))[0])
    if abs(i_zero) > 0.0:
        raise ConfigError("jump nonlinearity must satisfy I(0) = 0")

    return {
        "slope_min": float(np.min(slopes)),
        "slope_max": float(np.max(slopes)),
        "theta": theta,
        "d_norm_x1": d_norm,
        "i_zero": i_zero,
        "validation": "pass",
    }
