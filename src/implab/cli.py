"""Batch front door: run one pipeline stage on a configured instance.

Commands (each takes ``--config PATH``, ``--out DIR`` and optional
``--seed``):

* ``constants`` — fit the exponential dichotomy and evaluate the constant
  bundle of the contraction argument,
* ``simulate`` — hybrid forward simulation from configured initial data,
* ``certify`` — beating-exclusion certificates, one table row per surface,
* ``solve-ap`` — the two-level fixed point: y* table, assembled trajectory,
  contraction report and almost-periodicity report,
* ``analyze-ap`` — re-run the almost-periodicity analysis on previously
  written artifacts (``--data DIR``).

Exit codes: 0 success, 2 validation failure, 3 numerical failure; the last
stdout line is machine readable (``status=ok`` or
``status=error kind=<kind> reason=<...>``).  All randomness derives from the
single config seed (overridable with ``--seed``), so identical config and
seed produce byte-identical report files.
"""

from __future__ import annotations

import argparse
import re
import sys
import warnings
from pathlib import Path

import numpy as np

from .ap_analysis import SAMPLE_H_T, WindowTooShortError, almost_periodicity_report, cropped_span
from .config import SECTION_KEYS, ConfigError, check_grid, load_instance, validate_instance
from .evolution import NonFiniteConstantError, NonHyperbolicError, fit_dichotomy, k_bundle
from .impulsive import (
    BallExitError,
    BeatingError,
    EventLocationError,
    SeparationError,
    beating_certificate,
    simulate,
)
from .records import write_record, write_rows, write_table, write_trajectory
from .solver import (
    ConvergenceError,
    SurfaceWindowError,
    buffer_length,
    certify_almost_periodicity,
    check_ap_crop,
    integral_residual,
    measure_lipschitz,
    outer_solve,
    verify_smallness,
)
from .trajectory import Segment
# every command draws from numpy.random, which numpy 2 loads lazily; loaded after the
# package modules are compiled, it adds 1 MB less to the peak RSS than loaded before them
import numpy.random  # noqa: E402,F401  # isort: skip

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

_VALIDATION_ERRORS = (ConfigError, SeparationError, SurfaceWindowError, WindowTooShortError)
_NUMERICAL_ERRORS = (
    BallExitError,
    BeatingError,
    ConvergenceError,
    EventLocationError,
    NonFiniteConstantError,
    NonHyperbolicError,
)

# fixed per-stage rng streams: default_rng([seed, stage]) keeps commands
# independent of each other while everything still flows from one seed
_STAGE_DICHOTOMY = 1
_STAGE_LIPSCHITZ = 2
_STAGE_CERTIFY = 3
_STAGE_SMALLNESS = 4


def _fitted_dichotomy(cfg, seed):
    system = cfg.system
    return fit_dichotomy(
        system.lap,
        system.coeff,
        alpha=system.alpha,
        rng=np.random.default_rng([seed, _STAGE_DICHOTOMY]),
    )


def _constant_bundle(cfg, checks, dich, seed):
    """The K-bundle, the gap constant and the measured Lipschitz data.

    theta and Q are the system's own; only ``C`` may be set, in
    ``[overrides]``.  Raises NonFiniteConstantError when ``d_norm_x1`` of the
    validation ``checks`` or an entry of the bundle is not finite.
    """
    if not np.isfinite(checks["d_norm_x1"]):
        raise NonFiniteConstantError("d_norm_x1 = %g is not finite" % checks["d_norm_x1"])
    system = cfg.system
    gc = system.gap_constant
    measured = measure_lipschitz(
        system, rng=np.random.default_rng([seed, _STAGE_LIPSCHITZ])
    )
    kb = k_bundle(
        system.alpha,
        dich,
        system.theta,
        gc["value"],
        C=cfg.overrides.get("C", 1.0),
        g_star=measured["g_star"],
        M_star=measured["M0"] + measured["N1"] * system.rho,
    )
    return kb, gc, measured


def cmd_constants(cfg, out: Path, seed: int) -> None:
    checks = validate_instance(cfg)
    dich = _fitted_dichotomy(cfg, seed)
    kb, gc, _ = _constant_bundle(cfg, checks, dich, seed)
    rec = dict(checks)
    rec.update(dich.as_record())
    rec["gap_constant_formula"] = gc["formula"]
    rec["gap_constant_measured"] = gc["measured"]
    write_record(out / "dichotomy.txt", rec)
    write_record(out / "kbundle.txt", kb)


def cmd_simulate(cfg, out: Path, seed: int) -> None:
    system = cfg.system
    validate_instance(cfg)
    t0, t_end = cfg.t_range
    traj = simulate(
        system,
        cfg.u0,
        t0,
        t_end,
        seg_tol=cfg.solver.seg_tol,
        event_tol=cfg.solver.event_tol,
    )
    write_trajectory(out, traj, system.lap, system.alpha)
    rec = {
        "t0": t0,
        "t_end": t_end,
        "n_segments": traj.meta["n_segments"],
        "n_hits": len(traj.hits),
        "theta": system.theta,
        "max_hits_per_surface": max(traj.meta["hit_counts"].values(), default=0),
    }
    for j in sorted(traj.meta["hit_counts"]):
        rec["hits_surface_%d" % j] = traj.meta["hit_counts"][j]
    write_record(out / "simulate.txt", rec)


def cmd_certify(cfg, out: Path, seed: int) -> None:
    system = cfg.system
    validate_instance(cfg)
    js = system.indices
    rngs = [np.random.default_rng([seed, _STAGE_CERTIFY, j]) for j in js.tolist()]
    certs = beating_certificate(system, js, cfg.n_samples, rngs)
    write_rows(out / "beating.txt", certs)
    # the per-surface certificates of earlier versions
    for path in out.glob("beating_*.txt"):
        if re.fullmatch(r"beating_-?[0-9]+\.txt", path.name):
            path.unlink()
    summary = {"surface_%d" % c["surface"]: c["verdict"] for c in certs}
    summary["all_pass"] = all(v == "pass" for v in summary.values())
    write_record(out / "certificates.txt", summary)


def cmd_solve_ap(cfg, out: Path, seed: int) -> None:
    system = cfg.system
    lap, alpha = system.lap, system.alpha
    checks = validate_instance(cfg)
    dich = _fitted_dichotomy(cfg, seed)
    # the checks that need no u* come before the outer solve; consecutive
    # cuts are >= theta apart, so h_t < theta gives every piece two steps
    if cfg.solver.h_t >= system.theta:
        raise ConfigError(
            "[solver] h_t = %g must be below theta = %g" % (cfg.solver.h_t, system.theta)
        )
    w0, w1 = cfg.time_window
    check_grid(w1 - w0, cfg.solver.h_t, lap.n_modes, "[solver] h_t too small")
    t0, t1 = check_ap_crop(cfg.time_window, buffer_length(system, dich, cfg.solver))
    check_grid(t1 - t0, SAMPLE_H_T, lap.n_modes,
               "almost-periodicity grid too long: its span, the [solver] window plus a buffer "
               "at each end less the crop of two buffers at each end, at the fixed step")
    kb, _, measured = _constant_bundle(cfg, checks, dich, seed)
    res = outer_solve(system, dich, cfg.time_window, cfg=cfg.solver)

    y = res.y_star
    write_table(
        out / "ystar.txt", np.arange(y.window[0], y.window[1] + 1), y.values
    )
    write_trajectory(out, res.trajectory, lap, alpha)

    rec = verify_smallness(
        system, kb, measured["N1"], measured["M0"],
        rng=np.random.default_rng([seed, _STAGE_SMALLNESS]),
    )
    for key in ("observed_inner_ratio", "observed_S_ratio"):
        if res.meta[key] is not None:
            rec[key] = res.meta[key]

    # residual probes away from the window edges (the truncated Green tail
    # must fit inside the buffered span)
    buf = res.meta["buffer"]
    lo = max(w0 + min(buf, (w1 - w0) / 3.0), w0 + 0.2)
    times = np.linspace(lo, max(w1 - 0.2, lo), 3)
    residual = integral_residual(system, dich, res.trajectory, times)

    rec["outer_steps"] = len(res.steps)
    rec["inner_iterations"] = res.meta["inner_iterations"]
    rec["final_step"] = res.steps[-1]
    rec["integral_residual"] = residual
    rec["hit_consistency"] = res.meta["hit_consistency"]
    rec["sup_norm_alpha"] = res.meta["sup_norm_%g" % alpha]
    rec["sup_norm_0.9"] = res.meta["sup_norm_0.9"]
    rec["buffer"] = buf
    write_record(out / "contraction.txt", rec)

    write_record(out / "ap_report.txt", certify_almost_periodicity(system, res, cfg.eps_list))


def _load_data(path: Path, what: str) -> np.ndarray:
    """A solve-ap artifact as a 2-D array; an empty text file gives no rows, and no warning.

    A ``.npy`` header is checked against the file's size before any data is read."""
    try:
        if path.suffix != ".npy":
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                return np.loadtxt(path, ndmin=2)
        with open(path, "rb") as fh:
            np.lib.format.read_magic(fh)
            shape, _, dtype = np.lib.format.read_array_header_1_0(fh)
            size = path.stat().st_size - fh.tell()
            if dtype != np.float64 or len(shape) != 2 or 8 * shape[0] * shape[1] != size:
                raise ValueError("its header gives %s values of shape %s in %d bytes, not a "
                                 "2-D float64 table of that size" % (dtype, shape, size))
            fh.seek(0)
            return np.load(fh, allow_pickle=False)
    except FileNotFoundError as exc:
        raise ConfigError("--data lacks a file written by solve-ap: %s" % exc) from None
    except (OSError, ValueError) as exc:
        raise ConfigError("%s is not %s: %s" % (path, what, exc)) from None


def _read_data_table(path: Path, n_modes: int, min_rows: int, what: str = "a table"):
    """A solve-ap table of ``min_rows`` rows or more, each an index and n_modes values."""
    rows = _load_data(path, what)
    index, values = rows[:, 0], rows[:, 1:]
    if not (np.all(np.isfinite(index)) and np.all(np.isfinite(values))):
        raise ConfigError("%s has an entry that is not finite" % path)
    if index.size < min_rows:
        raise ConfigError("%s has %d rows; it needs %d or more" % (path, index.size, min_rows))
    if values.shape[1] != n_modes:
        raise ConfigError("%s has %d columns; it needs %d (the index and n_modes = %d values)"
                          % (path, values.shape[1] + 1, n_modes + 1, n_modes))
    return index, values


def cmd_analyze_ap(cfg, out: Path, seed: int, data: Path) -> None:
    system = cfg.system
    # two rows of y* at least: with one row, no shift of y* or of the hit times can be compared
    j_idx, y_vals = _read_data_table(data / "ystar.txt", system.lap.n_modes, 2)
    if np.any(j_idx != np.round(j_idx[0]) + np.arange(j_idx.size)):
        raise ConfigError("%s: the indices are not consecutive integers" % (data / "ystar.txt"))
    table = data / "trajectory.npy"
    t_nodes, states = _read_data_table(table, system.lap.n_modes, 2, "a .npy node table")
    if not np.all(np.diff(t_nodes) >= 0.0):
        raise ConfigError("%s: the node times decrease" % table)
    hits_path = data / "trajectory_hits.txt"
    hit_times = _load_data(hits_path, "a hit log")[:, 0]
    if not np.all(np.isfinite(hit_times)):
        raise ConfigError("%s lists a hit time that is not finite" % hits_path)
    if np.any(np.diff(hit_times) <= 0.0):
        raise ConfigError("%s: the hit times do not strictly increase" % hits_path)
    if hit_times.size != y_vals.shape[0]:
        raise ConfigError("%s lists %d hit times for %d rows of y*"
                          % (hits_path, hit_times.size, y_vals.shape[0]))

    crop = cfg.overrides.get("analysis_crop", 0.0)
    span = (t_nodes[0], t_nodes[-1])
    t0, t1 = cropped_span(span, crop)
    check_grid(t1 - t0, SAMPLE_H_T, system.lap.n_modes,
               "almost-periodicity grid too long: its span, that of %s less [overrides] "
               "analysis_crop at each end, at the fixed step" % table)
    record = almost_periodicity_report(
        y_vals, int(j_idx[0]), hit_times, Segment(t=t_nodes, states=states).interp, span, crop,
        cfg.eps_list, system.lap.frac_weights(system.alpha),
    )
    flat = {"n_sequence": y_vals.shape[0], "t0": t0, "t1": t1, "h_t": SAMPLE_H_T}
    flat.update(record)
    write_record(out / "ap_analysis.txt", flat)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="implab",
        description="Spectral-Galerkin laboratory for impulsive parabolic "
        "equations: constants, simulation, certification and the almost "
        "periodic solver, driven by flat instance files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("constants", "dichotomy constants and the contraction bundle"),
        ("simulate", "hybrid forward simulation"),
        ("certify", "beating-exclusion certificates, one table row per surface"),
        ("solve-ap", "almost periodic solution via the two-level fixed point"),
        ("analyze-ap", "almost-periodicity analysis of written artifacts"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="instance file (INI)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name == "analyze-ap":
            p.add_argument(
                "--data", required=True, help="directory with solve-ap artifacts"
            )
    args = parser.parse_args(argv)

    try:
        cfg = load_instance(args.config)
        seed = (cfg.seed if args.seed is None
                else SECTION_KEYS["sampling"]["seed"](args.seed, "--seed"))
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError("--out %s is not a usable directory: %s" % (args.out, exc)) from None
        if args.command == "constants":
            cmd_constants(cfg, out, seed)
        elif args.command == "simulate":
            cmd_simulate(cfg, out, seed)
        elif args.command == "certify":
            cmd_certify(cfg, out, seed)
        elif args.command == "solve-ap":
            cmd_solve_ap(cfg, out, seed)
        else:
            cmd_analyze_ap(cfg, out, seed, Path(args.data))
    except _VALIDATION_ERRORS as exc:
        print("status=error kind=validation reason=%r" % str(exc))
        return EXIT_VALIDATION
    except _NUMERICAL_ERRORS as exc:
        extra = ""
        if isinstance(exc, BallExitError) and exc.time is not None:
            extra = " time=%.17g" % exc.time
        print("status=error kind=numerical%s reason=%r" % (extra, str(exc)))
        return EXIT_NUMERICAL
    print("status=ok command=%s" % args.command)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
