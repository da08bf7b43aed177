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
from implab.records import (
    format_value,
    read_record,
    read_table,
    write_record,
    write_table,
    write_trajectory,
)

from oracles import table_by_value
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
    i2, v2 = read_table(path)
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


def test_write_trajectory_bytes_match_per_value_formatter(tmp_path):
    system = readme_like()
    u0 = np.zeros(system.lap.n_modes)
    u0[0] = 0.2
    traj = impulsive.simulate(system, u0, 0.5, 3.5)
    assert traj.hits
    write_trajectory(tmp_path, traj, system.lap, system.alpha)
    t, states = traj.nodes.t, traj.nodes.states
    assert (tmp_path / "trajectory.txt").read_bytes() == table_by_value(t, states).encode()


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
    surfaces, jumps = cfg.system.surfaces, cfg.system.jumps
    j = np.arange(0, 9)
    offsets = 0.05 + 0.02 * np.cos(1.3 * j + 0.4) + 0.01 * np.cos(0.7 * j - 1.0)
    np.testing.assert_allclose(surfaces.base_times, 1.0 * j + offsets, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(
        surfaces.slope_window, -0.1 + 0.05 * np.cos(0.9 * j + 0.2), rtol=1e-15, atol=0.0
    )
    for k in j:
        assert jumps.amp(k) == pytest.approx(0.02 + 0.01 * np.cos(2.0 * k + 0.5), rel=1e-15)
    assert validate_instance(cfg)["validation"] == "pass"


EDGE_VALUES = ("", "nan", "inf", "-inf", "-1", "0", "1e308", "abc", "1 2 3")


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
    # instance that validates with a finite theta > 0; no other exception
    for value in EDGE_VALUES:
        path = write_config(tmp_path, _with_key(section, key, value))
        try:
            with np.errstate(all="ignore"):
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


def test_cmd_constants_k2_override(tmp_path):
    # theta = ln 2, M1 = 1, beta = 1 gives K2 = 2/(1 - 1/2) = 4
    text = BASE + "\n[overrides]\ntheta = 0.6931471805599453\nM1 = 1.0\nbeta = 1.0\n"
    out = tmp_path / "out"
    assert main(["constants", "--config", write_config(tmp_path, text), "--out", str(out)]) == 0
    kb = read_record(out / "kbundle.txt")
    assert float(kb["K2"]) == pytest.approx(4.0, rel=1e-12)


def test_unknown_override_key_rejected(tmp_path):
    # key case is kept, so m1 is not M1
    text = BASE + "\n[overrides]\nm1 = 1.0\n"
    with pytest.raises(ConfigError, match="m1.*accepted: M beta M1 M2 beta1 theta Q C "
                       "analysis_crop analysis_h_t"):
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


def test_solve_ap_honours_kbundle_overrides(tmp_path):
    cfg_path = write_config(tmp_path, BASE + "\n[overrides]\nQ = 5.0\n")
    out = tmp_path / "out"
    assert main(["constants", "--config", cfg_path, "--out", str(out)]) == 0
    assert main(["solve-ap", "--config", cfg_path, "--out", str(out)]) == 0
    kb = read_record(out / "kbundle.txt")
    assert float(kb["Q"]) == 5.0
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


def _swap_rows(text, i=10, k=50):
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


def _drop_last_column(text, only=None):
    """Every row, or only row ``only``, without its last column."""
    rows = text.splitlines()
    return "".join(
        (row.rsplit(" ", 1)[0] if only in (None, i) else row) + "\n" for i, row in enumerate(rows)
    )


# analyze-ap data damage: (file, edit of its text); an edit of None deletes it
DAMAGED_DATA = {
    "analyze-ap-missing-ystar": ("ystar.txt", None),
    "analyze-ap-empty-ystar": ("ystar.txt", lambda text: ""),
    "analyze-ap-one-row-ystar": ("ystar.txt", _first_row),
    "analyze-ap-empty-trajectory": ("trajectory.txt", lambda text: ""),
    "analyze-ap-one-row-trajectory": ("trajectory.txt", _first_row),
    "analyze-ap-trajectory-missing-column": ("trajectory.txt", _drop_last_column),
    "analyze-ap-ystar-extra-column": (
        "ystar.txt", lambda text: "".join(row + " 0.5\n" for row in text.splitlines())),
    "analyze-ap-ragged-trajectory": ("trajectory.txt", lambda text: _drop_last_column(text, 3)),
    "analyze-ap-decreasing-times": ("trajectory.txt", _swap_rows),
    "analyze-ap-empty-discontinuities": ("trajectory_discontinuities.txt", lambda text: ""),
    "analyze-ap-extra-discontinuity": ("trajectory_discontinuities.txt", lambda text: text + "3.5\n"),
    "analyze-ap-text-discontinuity": ("trajectory_discontinuities.txt", lambda text: "abc\n"),
    "analyze-ap-repeated-discontinuity": (
        "trajectory_discontinuities.txt", lambda text: _edit_row(text, 1, lambda rows: rows[0])),
    "analyze-ap-nan-discontinuity": (
        "trajectory_discontinuities.txt", lambda text: _edit_row(text, 1, lambda rows: "nan\n")),
    "analyze-ap-nan-trajectory-state": (
        "trajectory.txt",
        lambda text: _edit_row(text, 5, lambda rows: rows[5].rsplit(" ", 1)[0] + " nan\n")),
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
        ("constants", "[analysis]", "[overrides]\ntheta = -1\n\n[analysis]", None),
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
        ("constants", "[analysis]", "[overrides]\nM = nan\n\n[analysis]", None),
        ("constants", "rho = 1.0", "rho = 1e308", None),
        ("certify", "rho = 1.0", "rho = 1e154", None),
        ("simulate", "h_t = 0.005", "h_t = 0.005\nseg_tol = 1e-300", None),
    ]
    + [(c, "[analysis]", "[overrides]\n%s\n\n[analysis]" % pin, None)
       for c, pin in (("constants", "beta = 0"), ("solve-ap", "beta = 0"),
                      ("constants", "beta = -1"), ("solve-ap", "beta = -1"),
                      ("constants", "Q = -1"), ("solve-ap", "Q = -1"),
                      ("constants", "M1 = -1"), ("constants", "M = 0"), ("constants", "M2 = -1"),
                      ("constants", "beta1 = 0"), ("constants", "C = -1"))]
    + [
        ("constants", "seed = 7", "seed = -1", None),
        ("constants", "gap = 1.0", "gap = 1e308", None),
        ("simulate", "gap = 1.0", "gap = 1e308", None),
        ("certify", "gap = 1.0", "gap = 1e308", None),
        ("solve-ap", "h_t = 0.005", "h_t =", None),
        ("constants", "rho = 1.0", "rho = 1.0\nrho = 2.0", None),
        ("constants", "nonlinearity = zero", "nonlinearity = cube", None),
    ]
    + [("analyze-ap", "[analysis]", "[analysis]", damage) for damage in DAMAGED_DATA.values()],
    ids=["constants-n_xi", "simulate-n_xi", "certify-n_xi", "solve-ap-n_xi",
         "solve-ap-no-surfaces", "solve-ap-short-window", "analyze-ap-short-span",
         "certify-no-samples", "certify-negative-samples",
         "simulate-empty-range", "simulate-reversed-range", "simulate-three-values",
         "simulate-zero-event-tol", "simulate-negative-seg-tol", "solve-ap-infinite-h_t",
         "solve-ap-negative-buffer", "solve-ap-zero-max_inner", "solve-ap-zero-max_outer",
         "solve-ap-zero-eps", "solve-ap-no-eps", "analyze-ap-zero-h_t", "analyze-ap-negative-crop",
         "simulate-unknown-key", "constants-unknown-section", "constants-malformed-n_modes",
         "constants-negative-theta", "constants-nan-a-offset", "constants-inf-b-offset",
         "constants-nan-term", "certify-inf-amp", "constants-nan-kernel", "constants-nan-rho",
         "certify-nan-gap", "certify-nan-slope", "constants-nan-l", "simulate-inf-range",
         "simulate-nan-range", "simulate-nan-u0", "solve-ap-inf-window",
         "constants-nan-override", "constants-huge-rho", "certify-huge-rho",
         "simulate-tiny-seg-tol", "constants-zero-beta", "solve-ap-zero-beta",
         "constants-negative-beta", "solve-ap-negative-beta", "constants-negative-Q",
         "solve-ap-negative-Q", "constants-negative-M1", "constants-zero-M",
         "constants-negative-M2", "constants-zero-beta1", "constants-negative-C",
         "constants-negative-seed", "constants-huge-gap", "simulate-huge-gap", "certify-huge-gap",
         "solve-ap-blank-h_t", "constants-repeated-key", "constants-unknown-nonlinearity",
         ] + list(DAMAGED_DATA),
)
def test_rejected_input_exits_2_with_status_line(tmp_path, command, old, new, damage):
    # n_xi + 1 < 4N aliases; no surface lies in or within a buffer (2.59) of
    # 100.5..110.5; 0.5..4.5 is shorter than the AP crop of two buffers per end;
    # certify needs a sample, simulate a range t0 < t_end; a step or tolerance
    # must be finite and > 0 (event_tol = 0 used to bisect forever), and so
    # must the buffer, every eps (one at least) and the analysis step; the
    # iteration caps are >= 1 and the analysis crop >= 0; a misspelt key or
    # section is not dropped, a value that does not parse is malformed, and a
    # theta override must be > 0; every float the file gives must be finite (an
    # infinite t_range used to run simulate until it was killed), and so must
    # rho^2 / lambda_1^(2 alpha) and sqrt(l) rho^3 (a huge rho used to end in an
    # OverflowError); seg_tol must be >= 1e-14, which the step-doubling
    # estimate can meet (1e-300 used to hang simulate); analyze-ap needs every solve-ap artifact it
    # reads, with two rows of y* and two trajectory nodes at least, one column
    # per mode after the index, node times that do not decrease, every entry
    # finite and one hit time per row of y*, the sorted hit times strictly
    # increasing (a repeated or nan hit time used to end in a traceback, a nan
    # state in status=ok), and the y* indices consecutive integers (swapped
    # rows, a gap or a fractional index used to give status=ok); the dichotomy
    # constants and Q pinned in [overrides] must be > 0 and C >= 0 (beta = 0
    # used to end in a ZeroDivisionError, a negative beta or Q in a complex
    # K-bundle), the seed >= 0 (numpy's rng raised), the base times finite (a
    # gap of 1e308 overflowed them and gave theta = nan with status=ok), a
    # scalar value not blank (a blank [solver] value used to fall back to the
    # default), and a key not given twice (configparser raised)
    assert old in BASE
    argv = [command, "--config", write_config(tmp_path, BASE.replace(old, new)),
            "--out", str(tmp_path / "o")]
    if command == "analyze-ap":
        data = tmp_path / "data"
        assert main(["solve-ap", "--config", write_config(tmp_path, name="data.ini"),
                     "--out", str(data)]) == 0
        if damage is not None:
            name, edit = damage
            if edit is None:
                (data / name).unlink()
            else:
                (data / name).write_text(edit((data / name).read_text()))
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
    assert err.getvalue() == ""


def test_negative_seed_option_exits_2(tmp_path):
    # --seed has the bound of [sampling] seed (numpy's rng used to raise)
    argv = ["constants", "--config", write_config(tmp_path), "--out", str(tmp_path / "o"),
            "--seed", "-3"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 2
    assert buf.getvalue().splitlines()[-1].startswith("status=error kind=validation")


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
    _, states = read_table(out / "trajectory.txt")
    assert np.max(np.abs(states)) == 0.0
    rec = read_record(out / "simulate.txt")
    assert int(rec["max_hits_per_surface"]) <= 1


def test_hit_free_simulate_lists_no_discontinuity(tmp_path):
    # the README instance hits no surface before 0.9; its two horizon
    # segments join without a jump
    text = readme_instance() + "\n[simulate]\nt_range = 0.05 0.9\n"
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, text), "--out", str(out)]) == 0
    rec = read_record(out / "simulate.txt")
    assert (rec["n_hits"], rec["n_segments"]) == ("0", "2")
    assert (out / "trajectory_discontinuities.txt").read_text() == ""
    assert not (out / "trajectory_hits.txt").exists()


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
    assert (out / "trajectory_discontinuities.txt").read_text() == ""


def test_analyze_ap_samples_the_table_as_solve_ap_does(tmp_path, monkeypatch):
    """analyze-ap's sampler on trajectory.txt, bit for bit solve-ap's eval_many.

    Checked on the grids both commands sample, at the hit times (pre-jump
    state) and at every node.
    """
    import implab.cli
    import implab.solver

    samplers = {}

    def recorder(tag, report):
        def recorded(*args):
            head, sample, tail = args[:4], args[4], args[5:]
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
    hit_times = np.loadtxt(data / "trajectory_discontinuities.txt", ndmin=1)
    t_nodes, states = read_table(data / "trajectory.txt")
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


@pytest.mark.parametrize("command", ["constants", "solve-ap"])
def test_non_finite_dichotomy_constant_exits_3(tmp_path, command):
    # a = 1e308 is finite, but the fitted M is not (it used to be written as inf)
    text = BASE.replace("offset = 0.5", "offset = 1e308")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), np.errstate(all="ignore"):
        code = main([command, "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")])
    assert code == 3
    last = buf.getvalue().splitlines()[-1]
    assert last.startswith("status=error kind=numerical")
    assert "dichotomy constant M = inf is not finite" in last


@pytest.mark.parametrize("command", ["constants", "solve-ap"])
@pytest.mark.parametrize("key", ["d", "amp_constant", "kernel_left"])
def test_non_finite_k_bundle_exits_3(tmp_path, command, key):
    # 1e308 is finite, but |d_j|_1, g_star and M_star are not (K3, K4, g_star
    # and M_star used to be written as inf with status=ok)
    text = re.sub(r"^%s = .*$" % key, "%s = 1e308" % key, readme_instance(), flags=re.M)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), np.errstate(all="ignore"):
        code = main([command, "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")])
    assert code == 3
    last = buf.getvalue().splitlines()[-1]
    assert last.startswith("status=error kind=numerical")
    assert "is not finite" in last


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


def test_gate_record_layouts(tmp_path):
    # the key order of contraction.txt (the record of verify_smallness, then
    # what solve-ap adds) and of a beating certificate
    cfg_path = write_config(tmp_path)
    out = tmp_path / "out"
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


def test_cmd_solve_ap_and_determinism(tmp_path):
    cfg_path = write_config(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["solve-ap", "--config", cfg_path, "--out", str(out1)]) == 0
    assert main(["solve-ap", "--config", cfg_path, "--out", str(out2)]) == 0
    for name in ("ystar.txt", "contraction.txt", "ap_report.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    rec = read_record(out1 / "contraction.txt")
    assert rec["check_KM0"] == "pass"
    assert rec["check_N1"] == "pass"
    assert float(rec["integral_residual"]) < 1e-6
    idx, yv = read_table(out1 / "ystar.txt")
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


def test_export_lists_resolve():
    # every name a module exports exists, in the package and in each module
    import importlib
    import pkgutil

    modules = [implab] + [
        importlib.import_module("implab." + info.name)
        for info in pkgutil.iter_modules(implab.__path__)
    ]
    for mod in modules:
        assert len(mod.__all__) == len(set(mod.__all__)), mod.__name__
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, (mod.__name__, missing)


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
