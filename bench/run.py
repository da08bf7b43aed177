"""implab benchmark: the five CLI commands on three canonical instances.

Usage (from the repository root)::

    python3 bench/run.py --workload readme|big|moving --seed N --seconds S --trace 0|1

The benchmark writes the workload's instance file from its definition and
the seed, then runs the workload's commands in order, each in a fresh
Python process (``bench/child.py``) with BLAS pinned to one thread; that is
one pipeline.  Every command's outputs are checked (``bench/checks.py``).

* ``--trace 0``: one untraced pipeline, then ``--seconds`` of repeats of
  the timed commands, each again in a fresh process, and each required to
  write the same bytes as in the pipeline.  The repeats go in rounds, the
  shortest command first, so every command gets samples spread over the
  run.  The end-to-end metrics are medians over the samples.
* ``--trace 1``: one untraced and one traced pipeline, whose artifacts must
  be byte-identical; the per-layer metrics come from the traced one.

Human-readable lines come first; the last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``attempted`` counts command invocations and ``failed`` the invocations
that exited non-zero, lacked a final ``status=ok`` line, raised an
uncaught exception or failed the output check.

``--write-reference`` stores the current outputs as the workload's
reference (``bench/reference/<workload>.json``) before checking them.
Only do this at the default seed, and explain every reference change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
from child import COUNTS, LAYERS, ROOT_SPAN, SETUP_LAYERS

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
WORK = REPO / ".bench_work"
DEFAULT_SEED = 7
DEADLINE_S = 170.0  # so that a run ends within 180 s
COMMANDS = ("constants", "simulate", "certify", "solve-ap", "analyze-ap")
TIMED_COMMANDS = ("constants", "simulate", "certify", "solve-ap")
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

# the example instance of README.md; [sampling] seed is set per run
README_INSTANCE = {
    "geometry": {"l": "1.0", "n_modes": "16", "n_xi": "128"},
    "problem": {"alpha": "0.5", "rho": "1.0"},
    "coefficient_a": {"offset": "0.5", "terms": "0.2 1.0 0.0"},
    "coefficient_b": {"offset": "0.1", "terms": "0.05 1.41421356237 0.0"},
    "surfaces": {"gap": "1.0", "window": "0 30", "slope_constant": "-0.2"},
    "jumps": {
        "nonlinearity": "relu",
        "kernel_left": "1.0",
        "kernel_right": "1.0",
        "amp_constant": "0.02",
        "d": "0.05",
    },
    "solver": {"h_t": "0.005", "window": "0.5 12.5"},
    "sampling": {"seed": str(DEFAULT_SEED), "n_samples": "512"},
    "analysis": {"eps": "1e-2"},
}

# Each workload: changes to the README instance, and the bound stated for
# the integral residual of solve-ap (about five times the value at the
# default seed).  Why each exists is recorded in bench/README.md.
WORKLOADS = {
    "readme": {"changes": {}, "residual_bound": 1e-4},
    "big": {
        # certify runs with 16 samples per surface: at 512 it takes 102 s
        "changes": {
            "geometry": {"n_modes": "64", "n_xi": "512"},
            "surfaces": {"window": "0 70"},
            "solver": {"window": "0.5 50.5"},
            "sampling": {"n_samples": "16"},
        },
        "residual_bound": 1e-4,
    },
    "moving": {
        "changes": {
            "surfaces": {"gap": "0.1", "window": "0 150", "slope_constant": "-0.45"},
            "jumps": {"d": "0.18"},
            "sampling": {"n_samples": "64"},
        },
        "residual_bound": 1e-3,
        # at the default seed: |b_j| Q(y*_j) >= 0.1 theta, >= 5 outer steps
        "fitness": {"shift_over_theta": 0.1, "outer_steps": 5},
    },
}


def instance(workload, seed) -> dict:
    sections = {name: dict(keys) for name, keys in README_INSTANCE.items()}
    for name, keys in WORKLOADS[workload]["changes"].items():
        sections[name].update(keys)
    sections["sampling"]["seed"] = str(seed)
    return sections


def write_instance(path, sections) -> None:
    with open(path, "w") as fh:
        for name, keys in sections.items():
            fh.write("[%s]\n" % name)
            for key, val in keys.items():
                fh.write("%s = %s\n" % (key, val))
            fh.write("\n")


# ---------------------------------------------------------------------------
# one pipeline
# ---------------------------------------------------------------------------


def run_command(cmd, cmd_id, config, out_root, seed, trace, deadline) -> dict:
    record_path = out_root / ("record_%d.json" % cmd_id)
    argv = [
        sys.executable, str(BENCH_DIR / "child.py"), str(record_path),
        "1" if trace else "0", str(cmd_id), "--",
        cmd, "--config", str(config), "--out", str(out_root / cmd), "--seed", str(seed),
    ]
    if cmd == "analyze-ap":
        argv += ["--data", str(out_root / "solve-ap")]
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_THREADS)
    inv = {"command": cmd, "problems": [], "record": None}
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            argv, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        inv["problems"].append("timed out")
        return inv
    finally:
        inv["wall_s"] = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        inv["problems"].append("exit %d: %s" % (proc.returncode, proc.stderr.strip()[-400:]))
    if not lines or lines[-1] != "status=ok command=%s" % cmd:
        inv["problems"].append("last stdout line %r" % (lines[-1] if lines else ""))
    if record_path.exists():
        inv["record"] = json.loads(record_path.read_text())
        record_path.unlink()
        if inv["record"]["exception"]:
            inv["problems"].append("uncaught exception")
    else:
        inv["problems"].append("no timing record")
    return inv


def run_pipeline(config, out_root, seed, trace, deadline) -> dict:
    """Run every command once, in order."""
    out_root.mkdir(parents=True)
    start = time.perf_counter()
    invocations = []
    for cmd_id, cmd in enumerate(COMMANDS):
        invocations.append(run_command(cmd, cmd_id, config, out_root, seed, trace, deadline))
        if "timed out" in invocations[-1]["problems"]:
            break
    return {"out": out_root, "wall_s": time.perf_counter() - start, "invocations": invocations}


def check(pipeline, workload, reference, seed) -> None:
    """Add the output-check problems of each command to its invocation."""
    invocations = pipeline["invocations"]
    solver_config = next(
        (inv["record"]["solver_config"] for inv in invocations
         if inv["record"] and inv["record"]["solver_config"]),
        None,
    )
    if solver_config is None or len(invocations) < len(COMMANDS):
        for inv in invocations:
            inv["problems"].append("pipeline incomplete, outputs not checked")
        return
    found = checks.check_pipeline(
        pipeline["out"], solver_config, WORKLOADS[workload]["residual_bound"], reference, seed
    )
    fitness = WORKLOADS[workload].get("fitness")
    if fitness and seed == reference["seed"]:
        gap = float(instance(workload, seed)["surfaces"]["gap"])
        try:
            seen = checks.moving_fitness(pipeline["out"], gap)
        except (OSError, KeyError, ValueError) as exc:
            seen = {"unreadable": str(exc)}
        print("fitness " + json.dumps(seen, sort_keys=True))
        if ("unreadable" in seen
                or seen["shift_over_theta"] < fitness["shift_over_theta"]
                or seen["outer_steps"] < fitness["outer_steps"]
                or seen["all_pass"] != "true"):
            found.setdefault("solve-ap", []).append(
                "fitness: the instance no longer exercises moving impulse moments"
            )
    for inv in invocations:
        inv["problems"] += found.get(inv["command"], [])


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def span_durations(record, names) -> float:
    return sum(end - start for name, start, end, _, _ in record["spans"] if name in names)


def setup_s(record) -> float:
    """Import of implab.cli plus the command's load_instance / validate_instance."""
    return record["import_s"] + span_durations(record, SETUP_LAYERS)


def command_s(record) -> float:
    """Time inside implab.cli.main, without the set-up functions."""
    return span_durations(record, (ROOT_SPAN,)) - span_durations(record, SETUP_LAYERS)


def summary(values) -> dict:
    values = sorted(values)
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(pipeline, invocations) -> dict:
    """{metric: (summary, unit)} from one untraced pipeline and its repeats.

    A metric without samples (its command failed) is left out.
    """
    records = [inv["record"] for inv in invocations if inv["record"]]
    samples = {"pipeline_s": ([pipeline["wall_s"]], "s")}
    for cmd in TIMED_COMMANDS:
        vals = [command_s(r) for r in records if r["command"] == cmd]
        samples["%s_s" % cmd.replace("-", "_")] = (vals, "s")
    samples["setup_s"] = ([setup_s(r) for r in records], "s")
    samples["peak_rss_mb"] = ([max(r["max_rss_kb"] for r in records) / 1024.0] if records else [], "MB")
    try:
        con = checks.read_record(pipeline["out"] / "solve-ap" / "contraction.txt")
        samples["solve_ap_residual"] = ([float(con["integral_residual"])], "alpha_norm")
    except (OSError, KeyError):
        pass
    return {name: (summary(vals), unit) for name, (vals, unit) in samples.items() if vals}


def per_layer(records, bytes_written, overhead_s) -> dict:
    """{metric: (value, unit)} from the spans of one traced pipeline."""
    totals = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in LAYERS}
    counts = {metric: 0 for metric, _ in COUNTS.values()}
    f_in_step = 0
    for record in records:
        spans = record["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for idx, (name, start, end, parent, count) in enumerate(spans):
            if name not in totals:
                continue
            t = totals[name]
            t["calls"] += 1
            t["self_s"] += end - start - child_time[idx]
            # nested calls of the same function count once in the total
            anc = parent
            while anc >= 0 and spans[anc][0] != name:
                anc = spans[anc][3]
            if anc < 0:
                t["s"] += end - start
            if count is not None:
                counts[COUNTS[name][0]] += count
            if name == "impulsive.f" and parent >= 0 and spans[parent][0] == "impulsive.step_segment":
                f_in_step += 1
    out = {}
    for name, t in totals.items():
        out[name + ".calls"] = (t["calls"], "count")
        out[name + ".s"] = (t["s"], "s")
        if LAYERS[name][2]:
            out[name + ".self_s"] = (t["self_s"], "s")
    for metric, value in counts.items():
        out[metric] = (value, "count")
    # six f evaluations per trial step (one full step, two half steps)
    out["impulsive.step_acceptance"] = (
        6.0 * counts["impulsive.accepted_steps"] / f_in_step if f_in_step else 0.0, "ratio"
    )
    out["records.bytes_written"] = (bytes_written, "bytes")
    out["cli.import_s"] = (statistics.median([r["import_s"] for r in records] or [0.0]), "s")
    out["trace_overhead_s"] = (overhead_s, "s")
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def environment(records, seed) -> dict:
    env = dict(records[0]["environment"]) if records else {}
    commit = None
    if (REPO / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    env.update(
        {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS,
            "git_commit": commit,
            "seed": seed,
        }
    )
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "implab" / "cli.py").is_file():
        print("bench: no implab sources at %s" % SRC, file=sys.stderr)
        return 2
    ref_path = BENCH_DIR / "reference" / ("%s.json" % args.workload)
    if not args.write_reference and not ref_path.is_file():
        print("bench: no reference %s" % ref_path, file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        config = work / ("%s.ini" % args.workload)
        write_instance(config, instance(args.workload, args.seed))
        if args.write_reference:
            ref = run_pipeline(config, work / "reference", args.seed, False, deadline)
            ref_path.write_text(
                json.dumps(checks.make_reference(ref["out"], args.seed), indent=1) + "\n"
            )
        reference = json.loads(ref_path.read_text())
        return report(args, config, work, deadline, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def same_artifacts(base_out, inv, out, what) -> None:
    """Require the command of ``inv`` to have written the same bytes as in ``base_out``."""
    prefix = inv["command"] + "/"

    def own(hashes):
        return {k: v for k, v in hashes.items() if k.startswith(prefix)}

    if own(checks.artifact_hashes(out)) != own(checks.artifact_hashes(base_out)):
        inv["problems"].append("%s artifacts differ from the first pipeline's" % what)


def repeat_commands(first, config, work, seed, until, deadline) -> list:
    """Re-run the timed commands in fresh processes until ``until``.

    Rounds in order of duration: the command with the fewest samples goes
    next, the shortest first, so that every command gets samples spread over
    the run.
    """
    if any(inv["problems"] for inv in first["invocations"]):
        return []
    samples = {cmd: 1 for cmd in TIMED_COMMANDS}
    wall = {inv["command"]: inv["wall_s"] for inv in first["invocations"]}
    repeats = []
    while time.monotonic() < until:
        cmd = min(TIMED_COMMANDS, key=lambda c: (samples[c], wall[c]))
        if deadline - time.monotonic() < 2.0 * wall[cmd]:
            break
        out = work / ("r%d" % len(repeats))
        inv = run_command(cmd, len(COMMANDS) + len(repeats), config, out, seed, False, deadline)
        repeats.append(inv)
        if inv["record"] is None:
            break
        samples[cmd] += 1
        same_artifacts(first["out"], inv, out, "repeated")
    return repeats


def report(args, config, work, deadline, reference) -> int:
    def pipeline(tag, trace):
        p = run_pipeline(config, work / tag, args.seed, trace, deadline)
        check(p, args.workload, reference, args.seed)
        return p

    first = pipeline("p0", False)
    invocations = list(first["invocations"])
    if args.trace:
        traced = pipeline("traced", True)
        for inv in traced["invocations"]:
            same_artifacts(first["out"], inv, traced["out"], "traced")
        invocations += traced["invocations"]
    else:
        invocations += repeat_commands(
            first, config, work, args.seed, time.monotonic() + args.seconds, deadline
        )

    failed = [inv for inv in invocations if inv["problems"]]
    records = [inv["record"] for inv in invocations if inv["record"]]
    print("environment " + json.dumps(environment(records, args.seed), sort_keys=True))
    for inv in failed:
        print("FAILED %s: %s" % (inv["command"], "; ".join(inv["problems"])))
    print("failed_ops %.6g (%d of %d invocations)" % (
        len(failed) / len(invocations), len(failed), len(invocations)))
    if args.seed == reference["seed"]:
        same, total = checks.byte_identity(first["out"], reference)
        print("byte_identical_artifacts %d of %d" % (same, total))

    if args.trace:
        traced_records = [inv["record"] for inv in traced["invocations"] if inv["record"]]
        bytes_written = sum(p.stat().st_size for p in traced["out"].glob("*/*"))
        metrics = per_layer(traced_records, bytes_written, traced["wall_s"] - first["wall_s"])
        for name, (value, unit) in metrics.items():
            print("layer %-45s %.6g %s" % (name, value, unit))
        values = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    else:
        metrics = end_to_end(first, invocations)
        for name, (s, unit) in metrics.items():
            print("metric %-18s median %.6g %s (q1 %.6g, q3 %.6g, n=%d)" % (
                name, s["median"], unit, s["q1"], s["q3"], s["n"]))
        values = {name: {"value": s["median"], "unit": unit} for name, (s, unit) in metrics.items()}

    correct = not failed
    print(json.dumps({
        "correct": correct,
        "attempted": len(invocations),
        "failed": len(failed),
        "metrics": values,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
