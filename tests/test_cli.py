import configparser
import contextlib
import importlib.util
import io
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import implab
from implab import impulsive
from implab.cli import main
from implab.config import SECTION_KEYS, ConfigError, load_instance, validate_instance
from implab.records import format_value, read_record, write_record, write_table, write_trajectory

from oracles import dichotomy_scan, table_by_value
from systems import readme_like

BASE = """
[geometry]
l = 1.0
n_modes = 8
n_xi = 64

[problem]
alpha = 0.5
rho = 1.0

[coefficient_a]
offset = 0.5
terms = 0.2 1.0 0.0

[coefficient_b]
offset = 0.0

[surfaces]
gap = 1.0
window = 0 8
slope_constant = 0.0

[jumps]
nonlinearity = zero
d = 0.02

[solver]
h_t = 0.005
window = 0 6

[sampling]
seed = 7
n_samples = 16

[analysis]
eps = 1e-2
"""


def write_config(tmp_path, text=BASE, name="instance.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def readme_instance() -> str:
    """The example instance file of the README."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.search(r"```ini\n(.*?)```", readme, re.S).group(1)


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


def test_record_roundtrip(tmp_path):
    rec = {"a": 1.5, "b": "pass", "c": 3, "d": True, "e": [1.0, 2.0]}
    path = tmp_path / "rec.txt"
    write_record(path, rec)
    back = read_record(path)
    assert back["a"] == "1.5"
    assert back["b"] == "pass"
    assert back["c"] == "3"
    assert back["d"] == "true"
    assert back["e"] == "1 2"


def test_table_roundtrip(tmp_path):
    idx = np.arange(3, 8)
    vals = np.arange(15.0).reshape(5, 3) * np.pi
    path = tmp_path / "tab.txt"
    write_table(path, idx, vals)
    rows = np.loadtxt(path, ndmin=2)
    i2, v2 = rows[:, 0], rows[:, 1:]
    assert np.array_equal(i2, idx.astype(float))
    assert np.array_equal(v2, vals)  # 17 digits reproduce doubles exactly


TABLE_CASES = {
    "int_index": (np.arange(3, 8), np.arange(15.0).reshape(5, 3) * np.pi),
    "float_index": (np.linspace(0.1, 0.9, 4), np.random.default_rng(64).standard_normal((4, 5))),
    "one_column": (np.arange(4), np.array([[0.1], [1.0 / 3.0], [2.0], [-7.5]])),
    "special_values": (
        np.array([0.5, -0.0, 1e-310]),
        np.array([[np.nan, np.inf, -np.inf], [-0.0, 1e-310, 0.0], [1e300, -1e-5, 5e-324]]),
    ),
}


@pytest.mark.parametrize("name", sorted(TABLE_CASES))
def test_write_table_bytes_match_per_value_formatter(tmp_path, name):
    index, values = TABLE_CASES[name]
    path = tmp_path / "tab.txt"
    write_table(path, index, values)
    assert path.read_bytes() == table_by_value(index, values).encode()


def test_write_trajectory_saves_the_node_table_as_npy(tmp_path):
    # one C-order (M, 1 + N) <f8 array, times in column 0; two runs write the same bytes
    system = readme_like()
    u0 = np.zeros(system.lap.n_modes)
    u0[0] = 0.2
    written = []
    for run in ("a", "b"):
        traj = impulsive.simulate(system, u0, 0.5, 3.5)
        assert traj.hits
        (tmp_path / run).mkdir()
        write_trajectory(tmp_path / run, traj, system.lap, system.alpha)
        written.append((tmp_path / run / "trajectory.npy").read_bytes())
    assert written[0] == written[1]
    with open(tmp_path / "a" / "trajectory.npy", "rb") as fh:
        assert np.lib.format.read_magic(fh) == (1, 0)
        header = np.lib.format.read_array_header_1_0(fh)
    m = traj.nodes.t.size
    assert header == ((m, 1 + system.lap.n_modes), False, np.dtype("<f8"))
    assert written[0].startswith(
        b"\x93NUMPY\x01\x00v\x00{'descr': '<f8', 'fortran_order': False, 'shape': (%d, %d), }"
        % (m, 1 + system.lap.n_modes))
    table = np.load(tmp_path / "a" / "trajectory.npy", allow_pickle=False)
    assert np.array_equal(table[:, 0], traj.nodes.t)
    assert np.array_equal(table[:, 1:], traj.nodes.states)
    # a repeated time is a cut: the pre-jump row, then the post-jump row
    cut = np.flatnonzero(np.diff(table[:, 0]) == 0.0)
    assert cut.size == len(traj.hits)
    hit = traj.hits[0]
    assert np.array_equal(table[cut[0], 1:], hit.pre)
    assert np.array_equal(table[cut[0] + 1, 1:], hit.post)


def test_format_value_deterministic():
    assert format_value(0.1) == format_value(0.1)
    assert format_value(np.float64(1.0) / 3.0) == "0.33333333333333331"
    assert format_value(np.bool_(True)) == format_value(True) == "true"
    assert format_value(np.bool_(False)) == format_value(False) == "false"


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_load_instance_and_validate(tmp_path):
    cfg = load_instance(write_config(tmp_path))
    assert cfg.system.lap.n_modes == 8
    assert cfg.system.a.offset == pytest.approx(0.5)
    assert cfg.seed == 7
    checks = validate_instance(cfg)
    assert checks["theta"] == pytest.approx(1.0)
    assert checks["validation"] == "pass"


def test_load_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_instance(tmp_path / "nope.ini")


def test_validate_rejects_positive_slope(tmp_path):
    text = BASE.replace("slope_constant = 0.0", "slope_constant = 0.3")
    cfg = load_instance(write_config(tmp_path, text))
    with pytest.raises(ConfigError, match="slopes"):
        validate_instance(cfg)


def test_validate_rejects_overlap(tmp_path):
    # slope -20 spreads each surface interval over 20 rho^2/pi^2 > gap
    text = BASE.replace("slope_constant = 0.0", "slope_constant = -20.0")
    cfg = load_instance(write_config(tmp_path, text))
    with pytest.raises(ConfigError, match="overlap"):
        validate_instance(cfg)


def test_malformed_terms(tmp_path):
    text = BASE.replace("terms = 0.2 1.0 0.0", "terms = 0.2 1.0")
    with pytest.raises(ConfigError):
        load_instance(write_config(tmp_path, text))


def test_terms_separator_is_not_a_comment(tmp_path):
    for sep in (" ; ", "; ", ";"):
        text = BASE.replace(
            "terms = 0.2 1.0 0.0", "terms = 0.2 1.0 0.0%s0.3 3.0 0.0  # two terms" % sep
        )
        a = load_instance(write_config(tmp_path, text)).system.a
        assert a.terms == ((0.2, 1.0, 0.0), (0.3, 3.0, 0.0)), sep
        assert a.offset == 0.5


def test_surface_and_jump_terms_keys(tmp_path):
    # each <prefix>_terms key adds amp cos(freq j + phase) terms to <prefix>_constant
    text = BASE.replace(
        "slope_constant = 0.0",
        "offset_constant = 0.05\noffset_terms = 0.02 1.3 0.4; 0.01 0.7 -1.0\n"
        "slope_constant = -0.1\nslope_terms = 0.05 0.9 0.2",
    ).replace(
        "nonlinearity = zero",
        "nonlinearity = sin\nkernel_left = 1.0\nkernel_right = 1.0\n"
        "amp_constant = 0.02\namp_terms = 0.01 2.0 0.5",
    )
    cfg = load_instance(write_config(tmp_path, text))
    system, jumps = cfg.system, cfg.system.jumps
    j = np.arange(0, 9)
    offsets = 0.05 + 0.02 * np.cos(1.3 * j + 0.4) + 0.01 * np.cos(0.7 * j - 1.0)
    np.testing.assert_allclose(system.base_times, 1.0 * j + offsets, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(
        system.slope_window, -0.1 + 0.05 * np.cos(0.9 * j + 0.2), rtol=1e-15, atol=0.0
    )
    for k in j:
        assert jumps.amp(k) == pytest.approx(0.02 + 0.01 * np.cos(2.0 * k + 0.5), rel=1e-15)
    assert validate_instance(cfg)["validation"] == "pass"


EDGE_VALUES = ("", "nan", "inf", "-inf", "-1", "0", "1e-300", "1e300", "1e308", "abc", "1 2 3")


def _with_key(section, key, value) -> str:
    """BASE with [section] key = value, the section added if BASE lacks it."""
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser.read_string(BASE)
    if not parser.has_section(section):
        parser.add_section(section)
    parser[section][key] = value
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


@pytest.mark.parametrize(
    "section, key", [(section, key) for section, keys in SECTION_KEYS.items() for key in keys]
)
def test_every_key_edge_value_is_rejected_or_valid(tmp_path, section, key):
    # every key of the file format, at each edge value: a ConfigError, or an
    # instance that validates with a finite theta > 0; no other exception, and
    # no numpy warning (an l of 1e300 used to divide by a lambda_1 of 0)
    for value in EDGE_VALUES:
        path = write_config(tmp_path, _with_key(section, key, value))
        try:
            checks = validate_instance(load_instance(path))
        except ConfigError:
            continue
        assert 0.0 < checks["theta"] < np.inf, value


@pytest.mark.parametrize(
    "section, key, most, above",
    [("geometry", "n_modes", "512", "513"), ("geometry", "n_xi", "8192", "8193"),
     ("sampling", "n_samples", "4096", "4097"), ("surfaces", "window", "0 9999", "0 10000")],
)
def test_size_keys_have_upper_bounds(tmp_path, section, key, most, above):
    # checked at load, before any array of that size exists; no command runs at these sizes
    load_instance(write_config(tmp_path, _with_key(section, key, most)))
    with pytest.raises(ConfigError, match=r"\[%s\] %s must be " % (section, key)):
        load_instance(write_config(tmp_path, _with_key(section, key, above)))


def test_readme_key_table_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.findall(r"^\| `\[(\w+)\] (\w+)` \|", readme, re.M)
    assert len(listed) == len(set(listed))
    assert set(listed) == {(section, key) for section, keys in SECTION_KEYS.items() for key in keys}


# ---------------------------------------------------------------------------
# cli commands
# ---------------------------------------------------------------------------


def test_cmd_constants(tmp_path):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["constants", "--config", cfg_path, "--out", str(out)]) == 0
    dich = read_record(out / "dichotomy.txt")
    # mean of a(t) = 0.5 < pi^2: no unstable modes (logistic stability)
    assert dich["unstable_modes"] == "none"
    kb = read_record(out / "kbundle.txt")
    assert float(kb["K2"]) > 0.0


def test_unknown_override_key_rejected(tmp_path):
    # key case is kept, so c is not C
    text = BASE + "\n[overrides]\nc = 1.0\n"
    with pytest.raises(ConfigError, match="c; accepted: C analysis_crop$"):
        load_instance(write_config(tmp_path, text))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["constants", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert "status=error kind=validation" in buf.getvalue()


@pytest.mark.parametrize(
    "old, new, match",
    [("[solver]", "[solver]\nseg_tl = 1e-12", r"\[solver\] key\(s\) seg_tl; accepted: h_t "),
     ("[solver]", "[solvr]", r"section\(s\) solvr; accepted: geometry "),
     ("l = 1.0", "L = 1.0", r"\[geometry\] key\(s\) L; accepted: l n_modes n_xi"),
     ("[geometry]", "[DEFAULT]\nseed = 3\n\n[geometry]", r"section\(s\) DEFAULT")],
    ids=["misspelt-key", "misspelt-section", "key-case", "default-section"],
)
def test_unknown_section_or_key_rejected(tmp_path, old, new, match):
    with pytest.raises(ConfigError, match=match):
        load_instance(write_config(tmp_path, BASE.replace(old, new)))


# the keys that once replaced computed constants with declared ones, an unread tolerance,
# a second way to set the buffer that tail_tol sets, and analyze-ap's own sampling step
DELETED_KEYS = [("overrides", key) for key in ("M", "beta", "M1", "M2", "beta1", "theta", "Q")]
DELETED_KEYS += [("solver", "residual_tol"), ("solver", "buffer"), ("overrides", "analysis_h_t")]


@pytest.mark.parametrize("command", ["constants", "solve-ap"])
@pytest.mark.parametrize("section, key", DELETED_KEYS, ids=[key for _, key in DELETED_KEYS])
def test_deleted_key_exits_2(tmp_path, capsys, command, section, key):
    # a verdict follows from the instance: a file that still declares a dichotomy constant, theta
    # or Q (M = 0.1, M1 = 0.1 and theta = 10 used to turn check_KM0 fail into pass) is rejected
    # by name, and so is the never-enforced residual_tol
    argv = [command, "--config", write_config(tmp_path, _with_key(section, key, "1.0")),
            "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out.splitlines()[-1].startswith(
        "status=error kind=validation reason='unknown [%s] key(s) %s; accepted: " % (section, key))
    assert err == ""


def test_solve_ap_reads_the_kbundle_of_constants(tmp_path):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["constants", "--config", cfg_path, "--out", str(out)]) == 0
    assert main(["solve-ap", "--config", cfg_path, "--out", str(out)]) == 0
    kb = read_record(out / "kbundle.txt")
    psi1_inv = float(read_record(out / "contraction.txt")["psi1_inv"])
    assert psi1_inv == pytest.approx(1.0 / float(kb["Psi1"]), rel=1e-12)


def test_cmd_constants_validation_exit(tmp_path):
    text = BASE.replace("slope_constant = 0.0", "slope_constant = -20.0")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["constants", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert "status=error kind=validation" in buf.getvalue()


def _first_row(text):
    return text.splitlines()[0] + "\n"


def _last_row(text):
    return text.splitlines()[-1] + "\n"


def _swap_rows(text, i, k):
    rows = text.splitlines(keepends=True)
    rows[i], rows[k] = rows[k], rows[i]
    return "".join(rows)


def _edit_row(text, i, edit):
    """Row ``i`` replaced by ``edit(rows)``."""
    rows = text.splitlines(keepends=True)
    rows[i] = edit(rows)
    return "".join(rows)


def _set_index(text, i, index):
    """Row ``i`` with ``index`` in its index column."""
    return _edit_row(text, i, lambda rows: index + " " + rows[i].split(" ", 1)[1])


def _npy(change):
    """An edit of a ``.npy`` file's bytes: its array, changed by ``change``, saved again."""
    def edit(raw):
        buf = io.BytesIO()
        np.save(buf, change(np.load(io.BytesIO(raw))))
        return buf.getvalue()

    return edit


def _swap_array_rows(rows, i=10, k=50):
    rows = rows.copy()
    rows[[i, k]] = rows[[k, i]]
    return rows


def _set_entry(rows, i, j, value):
    rows = rows.copy()
    rows[i, j] = value
    return rows


# analyze-ap data damage: (file, edit of its text, or of its bytes for a .npy file); an edit
# of None deletes it, one of "directory" puts a directory in its place
DAMAGED_DATA = {
    "analyze-ap-missing-ystar": ("ystar.txt", None),
    "analyze-ap-empty-ystar": ("ystar.txt", lambda text: ""),
    "analyze-ap-ystar-directory": ("ystar.txt", "directory"),
    "analyze-ap-one-row-ystar": ("ystar.txt", _first_row),
    "analyze-ap-empty-trajectory": ("trajectory.npy", lambda raw: b""),
    "analyze-ap-one-row-trajectory": ("trajectory.npy", _npy(lambda rows: rows[:1])),
    "analyze-ap-trajectory-missing-column": ("trajectory.npy", _npy(lambda rows: rows[:, :-1])),
    "analyze-ap-ystar-extra-column": (
        "ystar.txt", lambda text: "".join(row + " 0.5\n" for row in text.splitlines())),
    # rows of unequal length: an object array, which is never unpickled
    "analyze-ap-ragged-trajectory": (
        "trajectory.npy", _npy(lambda rows: np.array([*rows[:3], rows[3, :-1]], dtype=object))),
    "analyze-ap-decreasing-times": ("trajectory.npy", _npy(_swap_array_rows)),
    "analyze-ap-truncated-trajectory": ("trajectory.npy", lambda raw: raw[:-8]),
    "analyze-ap-object-trajectory": ("trajectory.npy", _npy(lambda rows: rows.astype(object))),
    "analyze-ap-float32-trajectory": ("trajectory.npy", _npy(lambda rows: rows.astype(np.float32))),
    "analyze-ap-1d-trajectory": ("trajectory.npy", _npy(np.ravel)),
    "analyze-ap-trajectory-directory": ("trajectory.npy", "directory"),
    # the hit times are column 0 of the hit log
    "analyze-ap-empty-discontinuities": ("trajectory_hits.txt", lambda text: ""),
    "analyze-ap-extra-discontinuity": (
        "trajectory_hits.txt", lambda text: text + _set_index(_last_row(text), 0, "99.5")),
    "analyze-ap-text-discontinuity": ("trajectory_hits.txt", lambda text: _set_index(text, 0, "abc")),
    "analyze-ap-repeated-discontinuity": (
        "trajectory_hits.txt", lambda text: _set_index(text, 1, text.split(" ", 1)[0])),
    "analyze-ap-nan-discontinuity": ("trajectory_hits.txt", lambda text: _set_index(text, 1, "nan")),
    "analyze-ap-nan-trajectory-state": (
        "trajectory.npy", _npy(lambda rows: _set_entry(rows, 5, -1, np.nan))),
    "analyze-ap-swapped-ystar-rows": ("ystar.txt", lambda text: _swap_rows(text, 2, 3)),
    "analyze-ap-ystar-index-gap": ("ystar.txt", lambda text: _set_index(text, 0, "-9")),
    "analyze-ap-fractional-ystar-index": ("ystar.txt", lambda text: _set_index(text, 1, "1.5")),
}


@pytest.mark.parametrize(
    "command, old, new, damage",
    [(c, "n_xi = 64", "n_xi = 16", None) for c in ("constants", "simulate", "certify", "solve-ap")]
    + [
        ("solve-ap", "window = 0 6", "window = 100.5 110.5", None),
        ("solve-ap", "window = 0 6", "window = 0.5 4.5", None),
        ("analyze-ap", "[analysis]", "[overrides]\nanalysis_crop = 10\n\n[analysis]", None),
        ("certify", "n_samples = 16", "n_samples = 0", None),
        ("certify", "n_samples = 16", "n_samples = -1", None),
    ]
    + [("simulate", "[analysis]", "[simulate]\nt_range = %s\n\n[analysis]" % t_range, None)
       for t_range in ("5 5", "8 3", "1 2 3")]
    + [
        ("simulate", "h_t = 0.005", "h_t = 0.005\nevent_tol = 0", None),
        ("simulate", "h_t = 0.005", "h_t = 0.005\nseg_tol = -1", None),
        ("solve-ap", "h_t = 0.005", "h_t = inf", None),
        ("solve-ap", "h_t = 0.005", "h_t = 1e308", None),
        ("solve-ap", "h_t = 0.005", "h_t = 0.005\nbuffer = -1", None),
        ("solve-ap", "h_t = 0.005", "h_t = 0.005\nmax_inner = 0", None),
        ("solve-ap", "h_t = 0.005", "h_t = 0.005\nmax_outer = 0", None),
        ("solve-ap", "eps = 1e-2", "eps = 1e-2 0", None),
        ("solve-ap", "eps = 1e-2", "eps =", None),
        ("analyze-ap", "[analysis]", "[overrides]\nanalysis_h_t = 0\n\n[analysis]", None),
        ("analyze-ap", "[analysis]", "[overrides]\nanalysis_crop = -1\n\n[analysis]", None),
        ("simulate", "h_t = 0.005", "h_t = 0.005\nseg_tl = 1e-12", None),
        ("constants", "[analysis]", "[analyse]", None),
        ("constants", "n_modes = 8", "n_modes = abc", None),
        ("constants", "offset = 0.5", "offset = nan", None),
        ("constants", "offset = 0.0", "offset = inf", None),
        ("constants", "terms = 0.2 1.0 0.0", "terms = nan 1.0 0.0", None),
        ("certify", "d = 0.02", "d = 0.02\namp_constant = inf", None),
        ("constants", "nonlinearity = zero",
         "nonlinearity = relu\nkernel_left = nan\nkernel_right = 1", None),
        ("constants", "rho = 1.0", "rho = nan", None),
        ("certify", "gap = 1.0", "gap = nan", None),
        ("certify", "slope_constant = 0.0", "slope_constant = nan", None),
        ("constants", "l = 1.0", "l = nan", None),
        ("simulate", "[analysis]", "[simulate]\nt_range = 0.5 inf\n\n[analysis]", None),
        ("simulate", "[analysis]", "[simulate]\nt_range = 0.5 nan\n\n[analysis]", None),
        ("simulate", "[analysis]", "[simulate]\nu0 = 0.1 nan\n\n[analysis]", None),
        ("solve-ap", "window = 0 6", "window = 0 inf", None),
        ("constants", "rho = 1.0", "rho = 1e308", None),
        ("certify", "rho = 1.0", "rho = 1e154", None),
        ("simulate", "h_t = 0.005", "h_t = 0.005\nseg_tol = 1e-300", None),
    ]
    + [
        ("constants", "[analysis]", "[overrides]\nC = -1\n\n[analysis]", None),
        ("constants", "seed = 7", "seed = -1", None),
        ("constants", "gap = 1.0", "gap = 1e308", None),
        ("simulate", "gap = 1.0", "gap = 1e308", None),
        ("certify", "gap = 1.0", "gap = 1e308", None),
        ("solve-ap", "h_t = 0.005", "h_t =", None),
        ("constants", "rho = 1.0", "rho = 1.0\nrho = 2.0", None),
        ("constants", "nonlinearity = zero", "nonlinearity = cube", None),
    ]
    + [(c, "offset = 0.5", "offset = 1e308", None)
       for c in ("constants", "simulate", "certify", "solve-ap")]
    + [(c, "l = 1.0", "l = %s" % l, None)
       for l in ("1e-160", "1e-150", "1e-100") for c in ("constants", "simulate", "certify", "solve-ap")]
    + [(c, "terms = 0.2 1.0 0.0", "terms = 0.2 1e308 0.0", None)
       for c in ("constants", "simulate", "certify", "solve-ap")]
    + [(c, "terms = 0.2 1.0 0.0", "terms = 0.2 1.0 1e308", None) for c in ("constants", "simulate")]
    + [(c, "l = 1.0", "l = 1e300", None) for c in ("constants", "simulate", "certify", "solve-ap")]
    + [
        ("constants", "l = 1.0", "l = 1e160", None),
        ("constants", "rho = 1.0", "rho = 1e-200", None),
        ("certify", "rho = 1.0", "rho = 1e-200", None),
        ("certify", "rho = 1.0", "rho = 1e-155", None),
        ("simulate", "[analysis]", "[simulate]\nu0 = 1e300\n\n[analysis]", None),
        ("solve-ap", "h_t = 0.005", "h_t = 1e-300", None),
        ("solve-ap", "h_t = 0.005", "h_t = 1e-12", None),
        ("analyze-ap", "[analysis]", "[overrides]\nanalysis_h_t = 1e-300\n\n[analysis]", None),
        ("analyze-ap", "[analysis]", "[overrides]\nanalysis_h_t = 1e-12\n\n[analysis]", None),
    ]
    # bad values of deleted [overrides] keys: rejected as unknown keys, before any value is read
    + [(c, "[analysis]", "[overrides]\n%s\n\n[analysis]" % pin, None)
       for c, pin in (("constants", "M = nan"), ("constants", "M = 0"),
                      ("constants", "beta = 0"), ("solve-ap", "beta = 0"),
                      ("constants", "beta = -1"), ("solve-ap", "beta = -1"))]
    + [("analyze-ap", "[analysis]", "[analysis]", damage) for damage in DAMAGED_DATA.values()],
    ids=["constants-n_xi", "simulate-n_xi", "certify-n_xi", "solve-ap-n_xi",
         "solve-ap-no-surfaces", "solve-ap-short-window", "analyze-ap-short-span",
         "certify-no-samples", "certify-negative-samples",
         "simulate-empty-range", "simulate-reversed-range", "simulate-three-values",
         "simulate-zero-event-tol", "simulate-negative-seg-tol", "solve-ap-infinite-h_t", "solve-ap-huge-h_t",
         "solve-ap-negative-buffer", "solve-ap-zero-max_inner", "solve-ap-zero-max_outer",
         "solve-ap-zero-eps", "solve-ap-no-eps", "analyze-ap-zero-h_t", "analyze-ap-negative-crop",
         "simulate-unknown-key", "constants-unknown-section", "constants-malformed-n_modes",
         "constants-nan-a-offset", "constants-inf-b-offset",
         "constants-nan-term", "certify-inf-amp", "constants-nan-kernel", "constants-nan-rho",
         "certify-nan-gap", "certify-nan-slope", "constants-nan-l", "simulate-inf-range",
         "simulate-nan-range", "simulate-nan-u0", "solve-ap-inf-window",
         "constants-huge-rho", "certify-huge-rho", "simulate-tiny-seg-tol",
         "constants-negative-C", "constants-negative-seed", "constants-huge-gap",
         "simulate-huge-gap", "certify-huge-gap",
         "solve-ap-blank-h_t", "constants-repeated-key", "constants-unknown-nonlinearity",
         "constants-huge-a-offset", "simulate-huge-a-offset", "certify-huge-a-offset",
         "solve-ap-huge-a-offset",
         "constants-tiny-l", "simulate-tiny-l", "certify-tiny-l", "solve-ap-tiny-l",
         "constants-l-1e-150", "simulate-l-1e-150", "certify-l-1e-150", "solve-ap-l-1e-150",
         "constants-l-1e-100", "simulate-l-1e-100", "certify-l-1e-100", "solve-ap-l-1e-100",
         "constants-huge-freq", "simulate-huge-freq", "certify-huge-freq", "solve-ap-huge-freq",
         "constants-huge-phase", "simulate-huge-phase",
         "constants-huge-l", "simulate-huge-l", "certify-huge-l", "solve-ap-huge-l",
         "constants-l-1e160", "constants-tiny-rho", "certify-tiny-rho", "certify-rho-1e-155",
         "simulate-huge-u0", "solve-ap-tiny-h_t", "solve-ap-h_t-1e-12", "analyze-ap-tiny-h_t",
         "analyze-ap-h_t-1e-12",
         "constants-nan-override", "constants-zero-M", "constants-zero-beta", "solve-ap-zero-beta",
         "constants-negative-beta", "solve-ap-negative-beta",
         ] + list(DAMAGED_DATA),
)
def test_rejected_input_exits_2_with_status_line(tmp_path, command, old, new, damage):
    # n_xi + 1 < 4N aliases; no surface lies in or within a buffer (2.59) of
    # 100.5..110.5; 0.5..4.5 is shorter than the AP crop of two buffers per end;
    # certify needs a sample, simulate a range t0 < t_end; a step or tolerance
    # must be finite and > 0 (event_tol = 0 used to bisect forever), h_t below
    # theta (1e308 used to give status=ok), and so must every eps (one at
    # least); the iteration caps are >= 1 and the analysis crop >= 0; a misspelt key or
    # section is not dropped, and a value that does not parse is malformed;
    # every float the file gives must be finite (an
    # infinite t_range used to run simulate until it was killed), and so must
    # rho^2 / lambda_1^(2 alpha) and sqrt(l) rho^3 (a huge rho used to end in an
    # OverflowError); seg_tol must be >= 1e-14, which the step-doubling
    # estimate can meet (1e-300 used to hang simulate); analyze-ap needs every solve-ap artifact it
    # reads, with two rows of y* and two trajectory nodes at least, one column
    # per mode after the index, a node table that is a 2-D float64 .npy array of
    # its file's size (an empty .npy file raised EOFError through the exit 2 of
    # a ValueError, and a directory in place of a data file IsADirectoryError), node
    # times that do not decrease, every entry
    # finite and one hit time per row of y*, the hit times strictly
    # increasing (a repeated or nan hit time used to end in a traceback, a nan
    # state in status=ok), and the y* indices consecutive integers (swapped
    # rows, a gap or a fractional index used to give status=ok); C pinned in
    # [overrides] must be >= 0, the seed >= 0 (numpy's rng raised), the base
    # times finite (a gap of 1e308 overflowed them and gave theta = nan with
    # status=ok), (sup|m| t)^2 finite over the instance's times (an a offset of
    # 1e308 used to print overflow warnings before its exit 3), and so must
    # lambda_N = (N pi / l)^2 (an l of 1e-160 did the same) and (lambda_N t)^2 (an l of
    # 1e-100 or 1e-150 overflowed the step weights of simulate) and the cosine arguments
    # w t + p of m and a b (math.cos raises on an infinite one), a scalar value
    # not blank (a blank [solver] value used to fall back to the default), and
    # a key not given twice (configparser raised); lambda_1 = (pi / l)^2 must be
    # > 0 (an l of 1e300 used to divide by 0, an l of 1e160 overflowed the ball
    # radius), 1 / (rho^2 + sqrt(l) rho^3) finite (a rho of 1e-200 wrote certify's
    # beta0 as inf), |u0|_alpha finite (1e300 printed an overflow warning), and
    # the grid (span / h_t) n_modes at most 2 10^6 for [solver] h_t (1e-300
    # gave solve-ap one step per piece with status=ok); a deleted key, such as
    # [solver] buffer or [overrides] analysis_h_t, is rejected as an unknown key
    assert old in BASE
    argv = [command, "--config", write_config(tmp_path, BASE.replace(old, new)),
            "--out", str(tmp_path / "o")]
    if command == "analyze-ap":
        data = tmp_path / "data"
        assert main(["solve-ap", "--config", write_config(tmp_path, name="data.ini"),
                     "--out", str(data)]) == 0
        if damage is not None:
            name, edit = damage
            path = data / name
            if edit is None or edit == "directory":
                path.unlink()
                if edit:
                    path.mkdir()
            elif path.suffix == ".npy":
                path.write_bytes(edit(path.read_bytes()))
            else:
                path.write_text(edit(path.read_text()))
        argv += ["--data", str(data)]
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err), warnings.catch_warnings():
        # no input is rejected with a numpy warning first (an empty data file
        # used to give loadtxt's, a gap of 1e308 three overflow warnings)
        warnings.simplefilter("error")
        code = main(argv)
    assert code == 2
    last = buf.getvalue().splitlines()[-1]
    assert last.startswith("status=error kind=validation")
    assert damage is None or damage[0] in last
    for section, key in DELETED_KEYS:
        if "\n%s = " % key in new:
            assert "unknown [%s] key(s) %s;" % (section, key) in last
    assert err.getvalue() == ""


def test_negative_seed_option_exits_2(tmp_path):
    # --seed has the bound of [sampling] seed (numpy's rng used to raise)
    argv = ["constants", "--config", write_config(tmp_path), "--out", str(tmp_path / "o"),
            "--seed", "-3"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 2
    assert buf.getvalue().splitlines()[-1].startswith("status=error kind=validation")


# the files each command writes on the README instance, into an empty --out
WRITTEN_FILES = {
    "constants": ["dichotomy.txt", "kbundle.txt"],
    "simulate": ["simulate.txt", "trajectory.npy", "trajectory_hits.txt"],
    "certify": ["certificates.txt"] + ["beating_%d.txt" % j for j in range(31)],
    "solve-ap": ["ystar.txt", "trajectory.npy", "trajectory_hits.txt", "contraction.txt",
                 "ap_report.txt"],
    "analyze-ap": ["ap_analysis.txt"],
}


def test_each_command_writes_exactly_its_files(tmp_path):
    cfg_path = write_config(tmp_path, readme_instance())
    for command, names in WRITTEN_FILES.items():
        out = tmp_path / command
        argv = [command, "--config", cfg_path, "--out", str(out)]
        assert main(argv + (["--data", str(tmp_path / "solve-ap")]
                            if command == "analyze-ap" else [])) == 0
        assert sorted(path.name for path in out.iterdir()) == sorted(names), command


@pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
@pytest.mark.parametrize("command", sorted(WRITTEN_FILES))
def test_unusable_out_exits_2(tmp_path, capsys, command, under):
    # an --out that is a file, or a path under one, used to end in a traceback from mkdir
    afile = tmp_path / "afile"
    afile.write_text("")
    out = afile / "sub" if under else afile
    argv = [command, "--config", write_config(tmp_path), "--out", str(out)]
    assert main(argv + (["--data", str(tmp_path)] if command == "analyze-ap" else [])) == 2
    stdout, err = capsys.readouterr()
    last = stdout.splitlines()[-1]
    assert last.startswith("status=error kind=validation reason=\"--out %s is not a usable "
                           "directory" % out)
    assert err == ""
    assert afile.read_text() == ""


@pytest.mark.parametrize(
    "command, window, code",
    [("constants", "0 0", 2), ("simulate", "0 0", 2), ("certify", "0 0", 2),
     ("constants", "0 2", 2), ("simulate", "0 2", 0)],
)
def test_too_few_surfaces_exit_2(tmp_path, command, window, code):
    # theta is taken over 2 surfaces or more, the gap constant over 4 or more;
    # simulate reads theta only
    argv = [command, "--config",
            write_config(tmp_path, BASE.replace("window = 0 8", "window = " + window)),
            "--out", str(tmp_path / "o")]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == code
    last = buf.getvalue().splitlines()[-1]
    assert last.startswith("status=ok" if code == 0 else "status=error kind=validation")


def test_cmd_simulate_zero(tmp_path):
    # zero data: no jump offset, f(., 0) = 0
    text = BASE.replace("d = 0.02", "d =")
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, text), "--out", str(out)]) == 0
    states = np.load(out / "trajectory.npy")[:, 1:]
    assert np.max(np.abs(states)) == 0.0
    rec = read_record(out / "simulate.txt")
    assert int(rec["max_hits_per_surface"]) <= 1


def test_hit_free_simulate_lists_no_discontinuity(tmp_path):
    # the README instance hits no surface before 0.9: one piece, with no cut
    text = readme_instance() + "\n[simulate]\nt_range = 0.05 0.9\n"
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, text), "--out", str(out)]) == 0
    rec = read_record(out / "simulate.txt")
    assert (rec["n_hits"], rec["n_segments"]) == ("0", "1")
    assert sorted(path.name for path in out.iterdir()) == ["simulate.txt", "trajectory.npy"]


def test_simulate_without_hits_deletes_an_earlier_hit_log(tmp_path):
    # two runs into one --out: the hit log of the first must not outlive the
    # second, which hits nothing
    out = tmp_path / "out"
    for t_range, hits in (("0.5 3.5", True), ("0.05 0.1", False)):
        text = readme_instance() + "\n[simulate]\nt_range = %s\n" % t_range
        assert main(["simulate", "--config", write_config(tmp_path, text),
                     "--out", str(out)]) == 0
        n_hits = int(read_record(out / "simulate.txt")["n_hits"])
        assert (n_hits > 0) == hits == (out / "trajectory_hits.txt").exists(), t_range
    assert sorted(path.name for path in out.iterdir()) == ["simulate.txt", "trajectory.npy"]


def test_analyze_ap_samples_the_table_as_solve_ap_does(tmp_path, monkeypatch):
    """analyze-ap's sampler on trajectory.npy, bit for bit solve-ap's eval_many.

    Checked on the grids both commands sample, at the hit times (pre-jump
    state) and at every node.
    """
    import implab.cli
    import implab.solver

    samplers = {}

    def recorder(tag, report):
        def recorded(*args):
            head, sample, tail = args[:3], args[3], args[4:]
            grids = []

            def sampled(grid):
                grids.append(grid)
                return sample(grid)

            samplers[tag] = (sample, grids)
            return report(*head, sampled, *tail)

        return recorded

    monkeypatch.setattr(implab.solver, "almost_periodicity_report",
                        recorder("solve-ap", implab.solver.almost_periodicity_report))
    monkeypatch.setattr(implab.cli, "almost_periodicity_report",
                        recorder("analyze-ap", implab.cli.almost_periodicity_report))
    cfg_path = write_config(tmp_path, BASE.replace("slope_constant = 0.0", "slope_constant = -0.2"))
    data = tmp_path / "data"
    assert main(["solve-ap", "--config", cfg_path, "--out", str(data)]) == 0
    assert main(["analyze-ap", "--config", cfg_path, "--out", str(tmp_path / "analysis"),
                 "--data", str(data)]) == 0
    solve_sample, solve_grids = samplers["solve-ap"]
    analyze_sample, analyze_grids = samplers["analyze-ap"]
    hit_times = np.loadtxt(data / "trajectory_hits.txt", ndmin=2)[:, 0]
    table = np.load(data / "trajectory.npy")
    t_nodes, states = table[:, 0], table[:, 1:]
    assert hit_times.size >= 4 and np.count_nonzero(np.diff(t_nodes) == 0.0) >= hit_times.size
    for grid in solve_grids + analyze_grids + [hit_times, t_nodes]:
        assert grid.size and np.array_equal(analyze_sample(grid), solve_sample(grid))
    # the pre-jump state at a hit: the first of the two rows at its time
    pre = np.stack([states[np.searchsorted(t_nodes, t)] for t in hit_times])
    assert np.array_equal(analyze_sample(hit_times), pre)


def test_cmd_simulate_ball_exit(tmp_path):
    text = BASE + "\n[simulate]\nu0 = 2.0\nt_range = 0 2\n"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["simulate", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")])
    assert code == 3
    assert "status=error kind=numerical" in buf.getvalue()


@pytest.mark.parametrize("length", ["0.5", "0.45", "0.3"])
def test_dichotomy_fit_past_the_exponent_clip(tmp_path, capsys, length):
    # beta * 20 > 700 on these lengths: the fit used to divide a factor clipped at e^-700 by an
    # unclipped e^(-beta d), which wrote M1 = 4.8e9 at l = 0.5 and ended in M = inf, after
    # divide-by-zero warnings, at l = 0.45 and 0.3
    text = readme_instance().replace("l = 1.0", "l = " + length)
    out = tmp_path / "o"
    assert main(["constants", "--config", write_config(tmp_path, text), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    dich = read_record(out / "dichotomy.txt")
    assert all(np.isfinite(float(dich[key])) for key in ("M", "beta", "M1"))
    system = load_instance(write_config(tmp_path, text)).system
    _, m1_scan = dichotomy_scan(system.lap, system.coeff, float(dich["beta"]))
    assert m1_scan <= float(dich["M1"]) <= 1.1 * m1_scan


@pytest.mark.parametrize("command", ["constants", "solve-ap"])
def test_non_finite_dichotomy_constant_exits_3(tmp_path, capsys, command):
    # a term of amplitude 1000 keeps (sup|m| t)^2 finite, but the fitted M is not: U grows by
    # up to e^2000 against the decay (M used to be written as inf); the overflow of the fit's
    # ratio prints no numpy warning
    text = BASE.replace("terms = 0.2 1.0 0.0", "terms = 1000 1.0 0.0")
    code = main([command, "--config", write_config(tmp_path, text), "--out", str(tmp_path / "o")])
    out, err = capsys.readouterr()
    assert code == 3
    assert err == ""
    last = out.splitlines()[-1]
    assert last.startswith("status=error kind=numerical")
    assert "dichotomy constant M = inf is not finite" in last


@pytest.mark.parametrize("command", ["constants", "solve-ap", "certify", "simulate"])
@pytest.mark.parametrize("key", ["d", "amp_constant", "kernel_left"])
def test_non_finite_k_bundle_exits_3(tmp_path, capsys, command, key):
    # 1e308 is finite, but |d_j|_1, g_star and M_star are not (K3, K4, g_star
    # and M_star used to be written as inf with status=ok), and neither is a
    # certificate's theta_check (-inf used to pass with status=ok); simulate
    # meets the first jump, which leaves the ball; the overflow to inf prints
    # no numpy warning (simulate's ball check used to print one)
    text = re.sub(r"^%s = .*$" % key, "%s = 1e308" % key, readme_instance(), flags=re.M)
    code = main([command, "--config", write_config(tmp_path, text), "--out", str(tmp_path / "o")])
    out, err = capsys.readouterr()
    assert code == 3
    assert err == ""
    last = out.splitlines()[-1]
    assert last.startswith("status=error kind=numerical")
    assert ("jump exits ball" if command == "simulate" else "is not finite") in last


@pytest.mark.parametrize("h_t", ["1e308", "1.0"])
def test_solve_ap_rejects_h_t_not_below_theta_before_the_outer_solve(tmp_path, monkeypatch, h_t):
    # consecutive cuts are >= theta apart, so h_t < theta gives every piece
    # between impulses two steps at least (1e308 used to give status=ok with
    # sup_norm_alpha 0); the README instance has theta = 0.979736
    import implab.cli

    def no_outer_solve(*args, **kwargs):
        raise AssertionError("the outer solve ran")

    monkeypatch.setattr(implab.cli, "outer_solve", no_outer_solve)
    text = readme_instance().replace("h_t = 0.005", "h_t = %s" % h_t)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["solve-ap", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")])
    assert code == 2
    last = buf.getvalue().splitlines()[-1]
    assert last.startswith("status=error kind=validation")
    assert "[solver] h_t = %g must be below theta = 0.979736" % float(h_t) in last


def test_solve_ap_checks_the_ap_crop_before_the_outer_solve(tmp_path, monkeypatch):
    import implab.cli

    def no_outer_solve(*args, **kwargs):
        raise AssertionError("the outer solve ran")

    monkeypatch.setattr(implab.cli, "outer_solve", no_outer_solve)
    text = readme_instance().replace("window = 0.5 12.5", "window = 0.5 5.5")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["solve-ap", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")])
    assert code == 2
    last = buf.getvalue().splitlines()[-1]
    assert last.startswith("status=error kind=validation")
    assert ("trajectory span too short for the almost-periodicity crop of 5.16232 at each end"
            in last)


def test_solve_ap_bounds_the_ap_grid_before_the_outer_solve(tmp_path, monkeypatch, capsys):
    # the README instance over a window of 2050: every [solver] check passes (the h_t grid holds
    # 1.6 10^6 values), but the almost-periodicity grid at step 0.01 would hold 3.3 10^6
    import implab.cli

    def no_outer_solve(*args, **kwargs):
        raise AssertionError("the outer solve ran")

    monkeypatch.setattr(implab.cli, "outer_solve", no_outer_solve)
    text = (readme_instance().replace("window = 0 30", "window = 0 2100")
            .replace("window = 0.5 12.5", "window = 0.5 2050.5")
            .replace("h_t = 0.005", "h_t = 0.02"))
    assert main(["solve-ap", "--config", write_config(tmp_path, text),
                 "--out", str(tmp_path / "o")]) == 2
    out, err = capsys.readouterr()
    last = out.splitlines()[-1]
    assert last.startswith("status=error kind=validation reason='almost-periodicity grid too long")
    assert "h_t = 0.01 and n_modes = 16" in last
    assert err == ""


def test_analyze_ap_bounds_its_grid_before_sampling(tmp_path, monkeypatch, capsys):
    # two trajectory nodes 10^7 apart: the grid at step 0.01 would hold 8 10^9 values
    import implab.cli

    def no_sampling(*args, **kwargs):
        raise AssertionError("the analysis sampled u*")

    data = tmp_path / "data"
    assert main(["solve-ap", "--config", write_config(tmp_path), "--out", str(data)]) == 0
    table = data / "trajectory.npy"
    rows = np.load(table)[[0, -1]]
    rows[1, 0] = 1e7
    np.save(table, rows)
    monkeypatch.setattr(implab.cli, "almost_periodicity_report", no_sampling)
    capsys.readouterr()
    assert main(["analyze-ap", "--config", write_config(tmp_path), "--out", str(tmp_path / "o"),
                 "--data", str(data)]) == 2
    out, err = capsys.readouterr()
    last = out.splitlines()[-1]
    assert last.startswith("status=error kind=validation reason='almost-periodicity grid too long")
    assert str(table) in last
    assert err == ""


def test_analyze_ap_rejects_a_header_that_promises_more_than_the_file_holds(tmp_path, capsys):
    # a few hundred bytes whose header claims 2^40 rows: numpy's reader would pass that count
    # to fromfile; the size check rejects the file before any data is read
    import tracemalloc

    data = tmp_path / "data"
    assert main(["solve-ap", "--config", write_config(tmp_path), "--out", str(data)]) == 0
    table = data / "trajectory.npy"
    rows = np.load(table)
    head = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        head, {"descr": "<f8", "fortran_order": False, "shape": (2**40, rows.shape[1])})
    table.write_bytes(head.getvalue() + rows[:2].tobytes())
    assert table.stat().st_size < 512
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(["analyze-ap", "--config", write_config(tmp_path),
                     "--out", str(tmp_path / "o"), "--data", str(data)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 2**24
    out, err = capsys.readouterr()
    last = out.splitlines()[-1]
    assert last.startswith("status=error kind=validation reason=")
    assert ("%s is not a .npy node table: its header gives float64 values of shape "
            "(1099511627776, 9)" % table) in last
    assert err == ""


def test_write_trajectory_deletes_the_text_table_of_an_earlier_version(tmp_path):
    # an --out written by a version that kept the node table as text
    cfg_path = write_config(tmp_path)
    for command in ("simulate", "solve-ap"):
        out = tmp_path / command
        out.mkdir()
        (out / "trajectory.txt").write_text("0 0\n")
        assert main([command, "--config", cfg_path, "--out", str(out)]) == 0
        assert not (out / "trajectory.txt").exists() and (out / "trajectory.npy").exists()


def test_analyze_ap_rejects_the_text_table_of_an_earlier_version(tmp_path, capsys):
    # --data as an earlier version wrote it: the node table as trajectory.txt; no fallback reads it
    cfg_path = write_config(tmp_path)
    data = tmp_path / "data"
    assert main(["solve-ap", "--config", cfg_path, "--out", str(data)]) == 0
    rows = np.load(data / "trajectory.npy")
    (data / "trajectory.npy").unlink()
    (data / "trajectory.txt").write_text(table_by_value(rows[:, 0], rows[:, 1:]))
    argv = ["analyze-ap", "--config", cfg_path, "--out", str(tmp_path / "o"), "--data", str(data)]
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out.splitlines()[-1].startswith(
        "status=error kind=validation reason=\"--data lacks a file written by solve-ap: ")
    assert str(data / "trajectory.npy") in out.splitlines()[-1]
    assert err == ""
    # the same text under the .npy name is named as what it is not (numpy's own error
    # speaks of pickled data)
    (data / "trajectory.txt").rename(data / "trajectory.npy")
    assert main(argv) == 2
    out, err = capsys.readouterr()
    last = out.splitlines()[-1]
    assert last.startswith("status=error kind=validation reason=")
    assert "%s is not a .npy node table: " % (data / "trajectory.npy") in last
    assert "pickle" not in last
    assert err == ""


@pytest.mark.parametrize("cap", ["max_inner", "max_outer"])
def test_solve_ap_iteration_cap_exits_3(tmp_path, cap):
    # one iterate cannot meet inner_tol (first increment 6e-2) or outer_tol
    # (first step 6e-6)
    text = BASE.replace("h_t = 0.005", "h_t = 0.005\n%s = 1" % cap)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["solve-ap", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")])
    assert code == 3
    last = buf.getvalue().splitlines()[-1]
    assert last.startswith("status=error kind=numerical")
    assert "%s iteration did not converge" % cap[4:] in last


def test_cmd_simulate_unsharpened_hit_exits_3(tmp_path, monkeypatch):
    # moving moments (b_j = -0.2): one re-integration cannot reach event_tol
    monkeypatch.setattr(impulsive, "_SHARPEN_RUNS", 1)
    text = BASE.replace("slope_constant = 0.0", "slope_constant = -0.2")
    text += "\n[simulate]\nu0 = 0.2\nt_range = 0.5 2.5\n"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["simulate", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")])
    assert code == 3
    last = buf.getvalue().splitlines()[-1]
    assert last.startswith("status=error kind=numerical") and "event_tol" in last


def test_t_range_defaults_to_the_solver_window(tmp_path):
    text = BASE.replace("window = 0 6", "window = 0.1234567 12.5")
    cfg = load_instance(write_config(tmp_path, text))
    assert cfg.time_window == (0.1234567, 12.5)
    assert cfg.t_range == cfg.time_window


def test_cmd_certify(tmp_path):
    out = tmp_path / "out"
    assert main(["certify", "--config", write_config(tmp_path), "--out", str(out)]) == 0
    summary = read_record(out / "certificates.txt")
    assert summary["all_pass"] == "true"
    cert0 = read_record(out / "beating_0.txt")
    assert cert0["verdict"] == "pass"
    assert float(cert0["theta_check"]) <= 1e-10


CONTRACTION_KEYS = (
    "K_M0 rho N1_declared N1_measured psi1_inv psi3_inv check_KM0 check_N1 L_dprime L_prime "
    "observed_inner_ratio observed_S_ratio outer_steps inner_iterations final_step "
    "integral_residual hit_consistency sup_norm_alpha sup_norm_0.9 buffer"
).split()


DICHOTOMY_KEYS = (
    "slope_min slope_max theta d_norm_x1 i_zero validation unstable_modes M beta M1 "
    "gap_constant_formula gap_constant_measured"
).split()


def test_gate_record_layouts(tmp_path):
    # the key order of dichotomy.txt (the validation checks, the fitted constants that the
    # K-bundle reads, the gap constant), of contraction.txt (the record of verify_smallness,
    # then what solve-ap adds) and of a beating certificate
    cfg_path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["constants", "--config", cfg_path, "--out", str(out)]) == 0
    assert list(read_record(out / "dichotomy.txt")) == DICHOTOMY_KEYS
    assert main(["solve-ap", "--config", cfg_path, "--out", str(out)]) == 0
    assert main(["certify", "--config", cfg_path, "--out", str(out)]) == 0
    assert list(read_record(out / "contraction.txt")) == CONTRACTION_KEYS
    cert = read_record(out / "beating_3.txt")
    assert list(cert) == ["surface", "theta_check", "P_check", "beta0", "n_samples", "verdict"]
    assert (cert["surface"], cert["n_samples"], cert["verdict"]) == ("3", "16", "pass")


def test_cmd_certify_determinism(tmp_path):
    cfg_path = write_config(tmp_path, readme_instance())
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["certify", "--config", cfg_path, "--out", str(out1)]) == 0
    assert main(["certify", "--config", cfg_path, "--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.glob("beating_*.txt"))
    assert len(names) == 31
    assert names == sorted(p.name for p in out2.glob("beating_*.txt"))
    for name in names + ["certificates.txt"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_certify_deletes_the_certificates_of_an_earlier_window(tmp_path):
    # two runs into one --out, over surfaces 0..30 and then 0..10: the directory holds the
    # certificates that certificates.txt lists, and any file not named beating_<j>.txt
    out = tmp_path / "out"
    out.mkdir()
    (out / "beating_notes.txt").write_text("kept\n")
    for window in ("0 30", "0 10"):
        text = readme_instance().replace("window = 0 30", "window = " + window)
        assert main(["certify", "--config", write_config(tmp_path, text),
                     "--out", str(out)]) == 0
    listed = [key for key in read_record(out / "certificates.txt") if key != "all_pass"]
    assert listed == ["surface_%d" % j for j in range(11)]
    assert sorted(path.name for path in out.iterdir()) == sorted(
        ["beating_notes.txt", "certificates.txt"]
        + ["beating_%s.txt" % key[len("surface_"):] for key in listed])


def test_cmd_solve_ap_and_determinism(tmp_path):
    cfg_path = write_config(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["solve-ap", "--config", cfg_path, "--out", str(out1)]) == 0
    assert main(["solve-ap", "--config", cfg_path, "--out", str(out2)]) == 0
    for name in ("ystar.txt", "trajectory.npy", "trajectory_hits.txt", "contraction.txt",
                 "ap_report.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    rec = read_record(out1 / "contraction.txt")
    assert rec["check_KM0"] == "pass"
    assert rec["check_N1"] == "pass"
    assert float(rec["integral_residual"]) < 1e-6
    rows = np.loadtxt(out1 / "ystar.txt", ndmin=2)
    idx, yv = rows[:, 0], rows[:, 1:]
    # report window: surfaces strictly inside (0, 6)
    assert np.array_equal(idx, np.arange(1.0, 6.0))
    assert np.all(np.isfinite(yv))


def test_observed_contraction_ratios_readme_instance(tmp_path):
    out = tmp_path / "out"
    assert main(["solve-ap", "--config", write_config(tmp_path, readme_instance()),
                 "--out", str(out)]) == 0
    rec = read_record(out / "contraction.txt")
    assert 0.0 < float(rec["observed_inner_ratio"]) < 1.0
    assert 0.0 < float(rec["observed_S_ratio"]) < 1.0
    # Picard iterates per outer step; each step after the first starts warm
    iterations = [int(v) for v in rec["inner_iterations"].split()]
    assert len(iterations) == int(rec["outer_steps"]) and min(iterations) >= 1
    assert sum(iterations) <= 10


def test_cmd_analyze_ap(tmp_path):
    cfg_path = write_config(tmp_path)
    data = tmp_path / "data"
    assert main(["solve-ap", "--config", cfg_path, "--out", str(data)]) == 0
    out = tmp_path / "analysis"
    assert main([
        "analyze-ap", "--config", cfg_path, "--out", str(out), "--data", str(data)
    ]) == 0
    rec = read_record(out / "ap_analysis.txt")
    assert "eps_0.01_sequence_n_periods" in rec
    assert int(rec["eps_0.01_sequence_n_periods"]) >= 1
    # both commands report the same y* through the same record
    report = read_record(data / "ap_report.txt")
    seq_keys = [k for k in report if re.fullmatch(r"eps_.*_sequence_.*", k)]
    assert seq_keys == [k for k in rec if re.fullmatch(r"eps_.*_sequence_.*", k)]
    assert {k: report[k] for k in seq_keys} == {k: rec[k] for k in seq_keys}


def test_analyze_ap_pairs_y_star_with_the_hit_times_it_reads(tmp_path):
    # the hit times go to the analysis as read: wrapped as gap k + c_k with the instance's gap
    # and read back, they were lost at a gap of 1e15 (a traceback: tau_k must be strictly
    # increasing); the gap changes nothing in ap_analysis.txt
    data = tmp_path / "data"
    text = readme_instance()
    assert main(["solve-ap", "--config", write_config(tmp_path, text), "--out", str(data)]) == 0
    written = []
    for gap in ("1.0", "1e15", "1e17"):
        cfg_path = write_config(tmp_path, text.replace("gap = 1.0", "gap = " + gap), "gap.ini")
        out = tmp_path / gap
        assert main(["analyze-ap", "--config", cfg_path, "--out", str(out),
                     "--data", str(data)]) == 0
        written.append((out / "ap_analysis.txt").read_bytes())
    assert written[1] == written[2] == written[0]


def test_cmd_constants_sin_jump_map(tmp_path):
    text = BASE.replace(
        "nonlinearity = zero",
        "nonlinearity = sin\nkernel_left = 1.0\nkernel_right = 1.0\namp_constant = 0.02",
    )
    out = tmp_path / "out"
    assert main(["constants", "--config", write_config(tmp_path, text), "--out", str(out)]) == 0
    assert float(read_record(out / "kbundle.txt")["K2"]) > 0.0


def test_jump_kernel_without_amp_constant_has_amplitude_one(tmp_path):
    # amp_constant defaults to 1, as JumpSpec.amp does (it used to default to
    # 0, which dropped the kernel term and left g_j = d_j)
    kernel = "nonlinearity = relu\nkernel_left = 1.0\nkernel_right = 1.0"
    x = np.zeros(8)
    x[0] = 0.5
    g = {}
    for name, extra in (("default", ""), ("one", "\namp_constant = 1.0")):
        cfg_path = write_config(tmp_path, BASE.replace("nonlinearity = zero", kernel + extra),
                                name=name + ".ini")
        g[name] = load_instance(cfg_path).system.g(3, x)
        assert main(["constants", "--config", cfg_path, "--out", str(tmp_path / name)]) == 0
        assert float(read_record(tmp_path / name / "kbundle.txt")["K2"]) > 0.0
    d = np.zeros(8)
    d[0] = 0.02
    assert np.array_equal(g["default"], g["one"])
    assert not np.allclose(g["default"], d)


def test_one_sine_basis_per_grid(tmp_path, monkeypatch):
    # the transforms must reuse the system's basis instead of rebuilding it
    from implab.spectral import DirichletLaplacian

    builds = []
    build = DirichletLaplacian.basis_matrix

    def counted(self, xi):
        builds.append(np.asarray(xi, dtype=float).tobytes())
        return build(self, xi)

    monkeypatch.setattr(DirichletLaplacian, "basis_matrix", counted)
    text = BASE.replace(
        "nonlinearity = zero",
        "nonlinearity = relu\nkernel_left = 1.0\nkernel_right = 1.0\namp_constant = 0.02",
    )
    cfg_path = write_config(tmp_path, text)
    for command in ("certify", "simulate"):
        builds.clear()
        assert main([command, "--config", cfg_path, "--out", str(tmp_path / command)]) == 0
        assert 1 <= len(builds) == len(set(builds)), command


def test_import_loads_no_scipy():
    # every command starts in a fresh process, so import time is paid each time
    src = str(Path(implab.__file__).resolve().parents[1])
    code = (
        "import sys, implab, implab.cli; print(implab.__file__); "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    where, loaded = run.stdout.splitlines()
    assert Path(where).resolve() == Path(implab.__file__).resolve()
    assert loaded == "[]"


def test_every_solver_config_field_is_read():
    # a [solver] key that is parsed but never read (as residual_tol was) fails
    # here: each SolverConfig field must be read as an attribute outside the class body
    import ast
    import dataclasses

    from implab.solver import SolverConfig

    read = set()
    for path in Path(implab.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        body = {id(node) for cls in ast.walk(tree)
                if isinstance(cls, ast.ClassDef) and cls.name == "SolverConfig"
                for node in ast.walk(cls)}
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Load) and id(node) not in body}
    fields = {field.name for field in dataclasses.fields(SolverConfig)}
    assert fields - read == set()


def test_export_lists_resolve():
    # every name a module exports exists, and a function or class is exported
    # only by the module that defines it; the package itself exports none
    import importlib
    import inspect
    import pkgutil

    def defined(value):
        return inspect.isclass(value) or inspect.isfunction(value)

    assert not [name for name, value in vars(implab).items() if defined(value)]
    for info in pkgutil.iter_modules(implab.__path__):
        mod = importlib.import_module("implab." + info.name)
        assert len(mod.__all__) == len(set(mod.__all__)), mod.__name__
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, (mod.__name__, missing)
        foreign = [name for name in mod.__all__
                   if defined(getattr(mod, name)) and getattr(mod, name).__module__ != mod.__name__]
        assert not foreign, (mod.__name__, foreign)


# ---------------------------------------------------------------------------
# bench harness
# ---------------------------------------------------------------------------


def test_every_bench_layer_resolves():
    """Each function that bench/child.py wraps is found by the walk of its ``Tracer.install``.

    child.py is imported, not run: a renamed or deleted function fails here
    instead of only in the traced bench runs.
    """
    path = Path(__file__).resolve().parents[1] / "bench" / "child.py"
    spec = importlib.util.spec_from_file_location("bench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    assert set(child.SETUP_LAYERS) | set(child.COUNTS) <= set(child.LAYERS)
    for name, (module, attr, _) in child.LAYERS.items():
        owner = importlib.import_module(module)
        *parts, leaf = attr.split(".")
        for part in parts:
            owner = getattr(owner, part)
        assert callable(vars(owner).get(leaf)), name
