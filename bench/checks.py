"""Output checks for one benchmark pipeline.

Artifacts live under ``<out>/<command>/``.  Three kinds of check apply:

* invariants, at every seed: the verdicts and counts that do not depend on
  the seed (simulate hit counts, certificate ``all_pass``, the contraction
  gates, the eps-period ``q``), plus outer convergence below ``outer_tol``
  and the integral residual below the workload's stated bound;
* headline numbers, at the reference seed only: y*, hit times, the
  K-bundle, every certificate verdict and ``r`` from the AP reports,
  compared with the stored reference within tolerances derived from the
  instance's ``outer_tol``, ``inner_tol`` and ``event_tol``;
* byte identity, at the reference seed only: the SHA-256 of each artifact
  against the reference.  It is reported, not required, so a change that
  converges to the same tolerances by another route still passes.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

KBUNDLE_RTOL = 1e-9  # float reordering only: the bundle runs no iteration


def read_record(path) -> dict:
    """``key value`` lines -> {key: value string}."""
    out = {}
    with open(path) as fh:
        for line in fh:
            key, _, val = line.strip().partition(" ")
            if key:
                out[key] = val
    return out


def artifact_hashes(out_root) -> dict:
    """{"<command>/<file>": sha256} for every artifact under ``out_root``."""
    root = Path(out_root)
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.glob("*/*"))
    }


def tolerances(solver_config) -> dict:
    """Headline tolerances from the instance's solver tolerances.

    y*: ten outer steps' worth of ``outer_tol`` plus ten inner increments.
    Hit times and ``r``: the y* tolerance (a hit time moves by at most
    |b_j| dQ <= |y*| dy) plus ten bisection widths.
    """
    tol_y = 10.0 * (solver_config["outer_tol"] + solver_config["inner_tol"])
    return {"y": tol_y, "t": tol_y + 10.0 * solver_config["event_tol"]}


def _keys(*names):
    return lambda path: {k: read_record(path)[k] for k in names}


def _ap_keys(suffix):
    return lambda path: {k: v for k, v in read_record(path).items() if k.endswith(suffix)}


def _hit_times(path):
    return np.loadtxt(path, ndmin=2)[:, 0].tolist()


# artifact -> reader of its seed-independent verdicts and counts
INVARIANTS = {
    "simulate/simulate.txt": _keys("n_hits", "max_hits_per_surface"),
    "certify/certificates.txt": _keys("all_pass"),
    "solve-ap/contraction.txt": _keys("check_KM0", "check_N1"),
    "solve-ap/ap_report.txt": _ap_keys("_q"),
    "analyze-ap/ap_analysis.txt": _ap_keys("_q"),
}

# artifact -> reader of its headline numbers at the reference seed
HEADLINE = {
    "solve-ap/ystar.txt": lambda path: np.loadtxt(path, ndmin=2).tolist(),
    "solve-ap/trajectory_hits.txt": _hit_times,
    "simulate/trajectory_hits.txt": _hit_times,
    "constants/kbundle.txt": lambda path: {k: float(v) for k, v in read_record(path).items()},
    "certify/certificates.txt": read_record,
    "solve-ap/ap_report.txt": _ap_keys("_r"),
    "analyze-ap/ap_analysis.txt": _ap_keys("_r"),
}


def make_reference(out_root, seed) -> dict:
    return {
        "seed": seed,
        "sha256": artifact_hashes(out_root),
        "invariants": {k: read(Path(out_root) / k) for k, read in INVARIANTS.items()},
        "headline": {k: read(Path(out_root) / k) for k, read in HEADLINE.items()},
    }


def _max_abs_diff(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return math.inf
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def _compare_headline(key, got, want, tol) -> str | None:
    if key.endswith("ystar.txt"):
        diff, limit = _max_abs_diff(got, want), tol["y"]
    elif key.endswith("trajectory_hits.txt"):
        diff, limit = _max_abs_diff(got, want), tol["t"]
    elif key.endswith("kbundle.txt"):
        if got.keys() != want.keys():
            return "keys differ"
        diff = max(abs(got[k] - want[k]) / max(abs(want[k]), 1e-300) for k in want)
        limit = KBUNDLE_RTOL
    elif key.endswith("certificates.txt"):
        return None if got == want else "verdicts differ"
    else:  # r of the eps-almost-period pairs
        if got.keys() != want.keys():
            return "r keys differ"
        diff = _max_abs_diff([float(got[k]) for k in want], [float(want[k]) for k in want])
        limit = tol["t"]
    if not diff <= limit:
        return "deviation %.3g exceeds %.3g" % (diff, limit)
    return None


def check_pipeline(out_root, solver_config, residual_bound, reference, seed) -> dict:
    """{command: [problem, ...]} for the artifacts of one pipeline.

    Commands whose outputs pass do not appear.
    """
    problems = {}
    root = Path(out_root)

    def flag(key, msg):
        problems.setdefault(key.split("/", 1)[0], []).append("%s: %s" % (key, msg))

    def read(key, reader):
        try:
            return reader(root / key)
        except (OSError, KeyError, ValueError) as exc:
            flag(key, "unreadable (%s)" % exc)
            return None

    con = read("solve-ap/contraction.txt", _keys("final_step", "integral_residual"))
    if con is not None:
        if not float(con["final_step"]) < solver_config["outer_tol"]:
            flag("solve-ap/contraction.txt", "final outer step %s not below outer_tol" % con["final_step"])
        if not float(con["integral_residual"]) < residual_bound:
            flag(
                "solve-ap/contraction.txt",
                "integral_residual %s not below %g" % (con["integral_residual"], residual_bound),
            )
    for key, want in reference["invariants"].items():
        got = read(key, INVARIANTS[key])
        if got is not None and got != want:
            flag(key, "%s != reference %s" % (got, want))
    if seed == reference["seed"]:
        tol = tolerances(solver_config)
        for key, want in reference["headline"].items():
            got = read(key, HEADLINE[key])
            msg = None if got is None else _compare_headline(key, got, want, tol)
            if msg:
                flag(key, msg)
    return problems


def byte_identity(out_root, reference) -> tuple:
    """(identical, total) artifact count against the reference hashes."""
    got = artifact_hashes(out_root)
    want = reference["sha256"]
    return sum(got.get(k) == v for k, v in want.items()), len(want)


def moving_fitness(out_root, gap) -> dict:
    """How far the impulse moments move on the solved trajectory.

    A solve-ap hit time is T_j = tau_j(y*_j) = gap*j + b_j Q(y*_j), so
    |T_j - gap*j| is |b_j| Q(y*_j); it is compared with theta.
    """
    root = Path(out_root)
    hits = np.loadtxt(root / "solve-ap" / "trajectory_hits.txt", ndmin=2)
    shift = float(np.max(np.abs(hits[:, 0] - gap * hits[:, 1])))
    theta = float(read_record(root / "constants" / "kbundle.txt")["theta"])
    con = read_record(root / "solve-ap" / "contraction.txt")
    return {
        "max_moment_shift": shift,
        "theta": theta,
        "shift_over_theta": shift / theta,
        "outer_steps": int(con["outer_steps"]),
        "all_pass": read_record(root / "certify" / "certificates.txt")["all_pass"],
    }
