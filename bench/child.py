"""Run one implab command in this process, the way the console script does.

Usage::

    python3 bench/child.py RECORD.json TRACE COMMAND_ID -- <implab arguments>

The script times the import of ``implab.cli``, wraps functions of the
package from outside, calls ``implab.cli.main`` and writes RECORD.json when
the process exits.  With TRACE = 0 only the set-up functions
(``config.load_instance`` and ``config.validate_instance``) are wrapped, so
that set-up can be told apart from the command's own work.  With TRACE = 1
every function in ``LAYERS`` is wrapped.

Each wrapped call appends one span ``[name, start, end, parent, count]`` to
an in-memory list: ``parent`` is the index of the enclosing span (-1 for
the command's root span) and ``count`` is a number read from the return
value for the functions in ``COUNTS`` (else null).  Nothing is written
while the command runs.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
import traceback

ROOT_SPAN = "command"
SETUP_LAYERS = ("config.load_instance", "config.validate_instance")

# metric name -> (module, attribute path, report self time).  Self time is
# reported for the functions that call other wrapped functions.
LAYERS = {
    "spectral.basis_matrix": ("implab.spectral", "DirichletLaplacian.basis_matrix", False),
    "spectral.project": ("implab.spectral", "DirichletLaplacian.project", True),
    "spectral.eval_physical": ("implab.spectral", "DirichletLaplacian.eval_physical", True),
    "spectral.nonlinear_image": ("implab.spectral", "DirichletLaplacian.nonlinear_image", True),
    "trajectory.eval": ("implab.trajectory", "PiecewiseTrajectory.eval", True),
    "trajectory.eval_many": ("implab.trajectory", "PiecewiseTrajectory.eval_many", True),
    "trajectory.interp": ("implab.trajectory", "Segment.interp", False),
    "solver.outer_solve": ("implab.solver", "outer_solve", True),
    "solver.poincare_map": ("implab.solver", "poincare_map", True),
    "solver.inner_solve": ("implab.solver", "inner_solve", True),
    "solver.integral_residual": ("implab.solver", "integral_residual", True),
    "solver.measure_lipschitz": ("implab.solver", "measure_lipschitz", True),
    "solver.verify_smallness": ("implab.solver", "verify_smallness", True),
    "solver.certify_almost_periodicity": ("implab.solver", "certify_almost_periodicity", True),
    "impulsive.simulate": ("implab.impulsive", "simulate", True),
    "impulsive.step_segment": ("implab.impulsive", "step_segment", True),
    "impulsive.detect_crossing": ("implab.impulsive", "detect_crossing", True),
    "impulsive.beating_certificate": ("implab.impulsive", "beating_certificate", True),
    "impulsive.f": ("implab.impulsive", "ImpulseSystemSpec.f", True),
    "impulsive.tau": ("implab.impulsive", "ImpulseSystemSpec.tau", False),
    "evolution.fit_dichotomy": ("implab.evolution", "fit_dichotomy", True),
    "trig.shift_sup": ("implab.trig", "TrigSum.shift_sup", False),
    "ap_analysis.harmonize": ("implab.ap_analysis", "harmonize", True),
    "ap_analysis.wexler_deviation": ("implab.ap_analysis", "wexler_deviation", False),
    "ap_analysis.eps_almost_periods": ("implab.ap_analysis", "eps_almost_periods", False),
    "records.write_trajectory": ("implab.records", "write_trajectory", True),
    "records.write_table": ("implab.records", "write_table", False),
    "records.write_record": ("implab.records", "write_record", False),
    "config.load_instance": ("implab.config", "load_instance", False),
    "config.validate_instance": ("implab.config", "validate_instance", False),
}

# wrapped function -> (count metric, reader of its return value)
COUNTS = {
    "solver.outer_solve": ("solver.outer_steps", lambda res: len(res.steps)),
    "solver.inner_solve": ("solver.inner_iterations", lambda res: res[1]["iterations"]),
    "impulsive.step_segment": ("impulsive.accepted_steps", lambda seg: seg.t.size - 1),
    "impulsive.simulate": ("impulsive.hits", lambda traj: len(traj.hits)),
}


class Tracer:
    """In-memory span list; one open-span stack (implab is single-threaded)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.solver_config = None

    def begin(self, name) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1, None])
        self.stack.append(idx)
        return idx

    def end(self, idx) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn):
        count = COUNTS.get(name, (None, None))[1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if count is not None:
                self.spans[idx][4] = count(result)
            if name == "config.load_instance":
                self.solver_config = vars(result.solver).copy()
            return result

        return traced

    def install(self, names) -> None:
        """Replace each function where it is defined and wherever it was imported."""
        wrappers = {}
        for name in names:
            module, attr, _ = LAYERS[name]
            owner = sys.modules[module]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = vars(owner)[leaf]
            wrappers[id(fn)] = self.wrap(name, fn)
            setattr(owner, leaf, wrappers[id(fn)])
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "implab" or mod_name.startswith("implab."):
                for key, value in list(vars(module).items()):
                    if id(value) in wrappers:
                        setattr(module, key, wrappers[id(value)])


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
    }


def main(argv) -> None:
    record_path, trace, command_id = argv[0], argv[1] == "1", int(argv[2])
    implab_argv = argv[argv.index("--") + 1:]

    t0 = time.perf_counter()
    import implab.cli as cli

    import_s = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install(list(LAYERS) if trace else list(SETUP_LAYERS))
    exc_text = None
    code = None
    root = tracer.begin(ROOT_SPAN)
    try:
        code = cli.main(implab_argv)
    except Exception:
        exc_text = traceback.format_exc()
        raise
    finally:
        tracer.end(root)
        record = {
            "command": implab_argv[0],
            "command_id": command_id,
            "import_s": import_s,
            "exit": code,
            "exception": exc_text,
            "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "solver_config": tracer.solver_config,
            "environment": environment(),
            "spans": tracer.spans,
        }
        with open(record_path, "w") as fh:
            json.dump(record, fh)
    sys.exit(code)


if __name__ == "__main__":
    main(sys.argv[1:])
