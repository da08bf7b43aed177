"""Flat artifacts: key-value records, indexed coefficient tables, node tables.

Identical data gives byte-identical files.  Records and tables are plain
delimiter-separated text for plotting tools, floats at 17 significant digits.

* record files: one ``key value`` pair per line,
* tables: one row per index/time, first column the index, the remaining
  columns coefficients; every row is written with one format string,
* trajectory dumps: the ``(t, coeff_1 .. coeff_N)`` node table as one float64
  ``.npy`` array (a repeated time is a cut: pre-jump row, then post-jump row)
  and a text hits file with rows ``(T_i, surface, |pre|_alpha, |post|_alpha)``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["format_value", "write_record", "read_record", "write_table", "write_trajectory"]


def format_value(v) -> str:
    """Deterministic text form: 17 significant digits for floats."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return "%d" % v
    if isinstance(v, (float, np.floating)):
        return "%.17g" % v
    if isinstance(v, (list, tuple, np.ndarray)):
        return " ".join(format_value(x) for x in v)
    return str(v)


def write_record(path, mapping) -> None:
    """One ``key value`` pair per line, in mapping order."""
    with open(path, "w") as fh:
        for key, val in mapping.items():
            fh.write("%s %s\n" % (key, format_value(val)))


def read_record(path) -> dict:
    """Inverse of write_record; values stay strings."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition(" ")
            out[key] = val
    return out


def write_table(path, index, values) -> None:
    """Rows ``index v_1 .. v_d``; ``index`` may be integer or time."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    index = np.asarray(index)
    if index.size != values.shape[0]:
        raise ValueError("index and value row counts differ")
    head = "%d" if np.issubdtype(index.dtype, np.integer) else "%.17g"
    fmt = head + " " + " ".join(["%.17g"] * values.shape[1]) + "\n"
    with open(path, "w") as fh:
        # row by row: one list of the whole table would hold a Python float per value
        for i, row in zip(index.tolist(), values):
            fh.write(fmt % (i, *row.tolist()))


def write_trajectory(out_dir, traj, lap, alpha) -> None:
    """Dump a piecewise trajectory into the directory ``out_dir`` (a Path).

    Writes ``trajectory.npy`` (the (M, 1 + N) node table, times in column 0)
    and, when hits exist, ``trajectory_hits.txt``, whose norms are |.|_alpha of
    ``lap``.  Deletes the text table ``trajectory.txt`` of earlier versions
    and, without hits, a ``trajectory_hits.txt`` left by an earlier run.
    """
    nodes = np.column_stack((traj.nodes.t, traj.nodes.states))
    np.save(out_dir / "trajectory.npy", nodes, allow_pickle=False)
    (out_dir / "trajectory.txt").unlink(missing_ok=True)

    hits_path = out_dir / "trajectory_hits.txt"
    if not traj.hits:
        hits_path.unlink(missing_ok=True)
        return
    with open(hits_path, "w") as fh:
        for h in traj.hits:
            fh.write(
                "%.17g %d %.17g %.17g\n"
                % (h.time, h.surface, lap.frac_norm(h.pre, alpha), lap.frac_norm(h.post, alpha))
            )
