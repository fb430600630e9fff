import contextlib
import errno
import io
import math
import os
import shlex
import stat
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ddemagnus
from ddemagnus import ChebyshevGrid, NumericalFailure, cli
from ddemagnus._g17 import WORDS, Formatter
from ddemagnus.cli import _format_rows, _solve_lines, build_parser, main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    header = {}
    columns = None
    rows = []
    for line in text.strip().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            header[key.strip()] = value.strip()
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return header, columns, rows


def test_solve_interval_row_layout(tmp_path, capsys):
    out = tmp_path / "solution.csv"
    code, _, _ = run_cli(["solve", "--problem", "example1", "--N", "8",
                          "--M", "8", "--order", "6",
                          "--t-final", "6.2832", "--out", str(out)], capsys)
    assert code == 0
    header, columns, rows = parse_csv(out.read_text())
    assert columns == ["interval", "node_index", "time", "component_index", "value"]
    assert header["N"] == "8" and header["order"] == "6"
    intervals = {row[0] for row in rows}
    assert intervals == {"1", "2", "3", "4"}  # 2*pi / (pi/2) delay windows
    assert sum(1 for row in rows if row[0] == "1") == 9  # N+1 nodes, d=1


def test_solve_sir_conserves_total(tmp_path, capsys):
    out = tmp_path / "sir.csv"
    code, _, _ = run_cli(["solve", "--problem", "sir", "--order", "3",
                          "--N", "12", "--M", "10", "--t-final", "3",
                          "--out", str(out)], capsys)
    assert code == 0
    _, _, rows = parse_csv(out.read_text())
    last = [row for row in rows if row[0] == "3" and row[1] == "0"]
    total = sum(float(row[4]) for row in last)
    assert abs(total - 1.0) <= 1e-12


def test_solve_rejects_invalid_order(capsys):
    code, _, err = run_cli(["solve", "--problem", "example1", "--order", "5",
                            "--t-final", "1"], capsys)
    assert code == 2
    assert "2, 4, 6" in err
    code, _, err = run_cli(["solve", "--problem", "sir", "--order", "6",
                            "--t-final", "1"], capsys)
    assert code == 2
    assert "2, 3" in err


@pytest.mark.parametrize("command, problem", [("solve", "example1"), ("audit", "sir")])
def test_a_run_over_a_horizon_requires_t_final(capsys, command, problem):
    code, out, err = run_cli([command, "--problem", problem], capsys)
    assert code == 2 and out == "" and err == "error: field 't_final': required\n"


@pytest.mark.parametrize("command", ["solve", "multipliers", "convergence", "audit"])
def test_periods_is_no_option(tmp_path, capsys, command):
    # p periods are the horizon --t-final p T, and the multipliers over p
    # periods those of one period to the power p: no command takes
    # --periods, from the command line or from a config file
    with pytest.raises(SystemExit) as info:
        main([command, "--periods", "1"])
    assert info.value.code == 2
    assert "unrecognized arguments: --periods" in capsys.readouterr().err
    config = tmp_path / "run.cfg"
    config.write_text("periods = 1\n")
    code, out, err = run_cli([command, "--config", str(config)], capsys)
    assert code == 2 and out == ""
    assert err == "error: field 'periods': unknown configuration key\n"


@pytest.mark.parametrize("argv, field", [
    (["solve", "--problem", "example1", "--t-final", "nan"], "t_final"),
    (["solve", "--problem", "example1", "--t-final", "inf"], "t_final"),
    (["solve", "--problem", "example1", "--t-final=-inf"], "t_final"),
    (["audit", "--problem", "sir", "--t-final", "inf"], "t_final"),
    (["convergence", "--problem", "example1", "--M-list", "4,8", "--t-final", "nan"],
     "t_final"),
    (["audit", "--problem", "sir", "--t-final", "nan"], "t_final"),
    (["convergence", "--problem", "example1", "--M-list", "4,8", "--t-final", "inf"],
     "t_final"),
])
def test_nonfinite_horizon_is_a_usage_error(capsys, argv, field):
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert f"field '{field}'" in err


BAD_PERIODS = ["nan", "inf", "-1", "0", "1e308"]


@pytest.mark.parametrize("value", BAD_PERIODS)
def test_multipliers_rejects_nonfinite_periods(capsys, value):
    # multipliers take no --periods, bad or good: over p periods they are
    # those of one period to the power p
    with pytest.raises(SystemExit) as info:
        main(["multipliers", "--problem", "example1", "--N", "4", "--M", "4",
              "--periods", value])
    assert info.value.code == 2
    assert "unrecognized arguments: --periods" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--M-list", "--N-list"])
@pytest.mark.parametrize("value", ["0,4", "x", "", "4,4", "4,8,4"])
def test_bad_integer_list_is_a_usage_error(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as info:
        main(["convergence", "--problem", "example1", flag, value])
    assert info.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err
    config = tmp_path / "run.cfg"
    key = flag[2:].lower().replace("-", "_")
    config.write_text(f"{key} = {value}\n")
    code, _, err = run_cli(["convergence", "--problem", "example1", "--config", str(config)],
                           capsys)
    assert code == 2 and f"field '{key}': cannot parse" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_nonfinite_slope_floor_is_a_usage_error(capsys, value):
    code, out, err = run_cli(["convergence", "--problem", "example1", "--N", "4",
                              "--M-list", "2,4", f"--slope-floor={value}"], capsys)
    assert code == 2 and "field 'slope_floor'" in err
    assert out == ""


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_nonfinite_delay_parameter_is_a_usage_error(capsys, value):
    code, _, err = run_cli(["audit", "--problem", "sir", "--t-final", "2",
                            "--param", f"tau={value}"], capsys)
    assert code == 2 and "field 'param': delay tau must be finite" in err


@pytest.mark.parametrize("param", ["s0=nan", "i0=inf", "r0=-inf"])
def test_nonfinite_sir_history_is_a_usage_error(capsys, param):
    code, out, err = run_cli(["audit", "--problem", "sir", "--t-final", "2",
                              "--param", param], capsys)
    assert code == 2 and "field 'param': s0, i0 and r0 must be finite" in err
    assert out == ""


def test_nan_stability_tolerance_is_a_usage_error(capsys):
    code, out, err = run_cli(["multipliers", "--problem", "example1", "--N", "4",
                              "--M", "4", "--stability-tol", "nan"], capsys)
    assert code == 2 and "field 'stability_tol'" in err
    assert "stability_verdict" not in out


def test_solve_store_steps_emits_every_step(tmp_path, capsys):
    out = tmp_path / "steps.csv"
    code, _, _ = run_cli(["solve", "--problem", "example1", "--N", "4",
                          "--M", "3", "--order", "2", "--t-final", "1.5707963",
                          "--store-steps", "--out", str(out)], capsys)
    assert code == 0
    _, _, rows = parse_csv(out.read_text())
    assert len(rows) == 3 * 5  # three steps, N+1 nodes each


def g17_lines(values):
    """The vectorised %.17g text of ``values``, one per line."""
    canvas = np.zeros((len(values), WORDS + 1), np.uint64)
    Formatter(len(values))(np.asarray(values, dtype=float), canvas[:, :WORDS])
    canvas[:, WORDS] = ord("\n")
    return canvas.tobytes().translate(None, b"\0")


def assert_renders_as_percent_g17(values):
    values = np.asarray(values, dtype=float)
    expected = b"".join(b"%.17g\n" % v for v in values.tolist())
    got = g17_lines(values)
    if got != expected:
        pairs = zip(values.tolist(), got.split(b"\n"), expected.split(b"\n"))
        value, text, want = next(p for p in pairs if p[1] != p[2])
        pytest.fail(f"{value!r} rendered {text!r}, %.17g gives {want!r}")


def assert_body_is_rows(body, rows):
    """``body`` is the lines of ``_format_rows(rows)``, each ended by a newline.

    A mismatch names the first differing row; a diff of whole bodies of
    thousands of rows would take minutes to build.
    """
    got, want = body.split("\n"), _format_rows(rows) + [""]
    for index, (line, expected) in enumerate(zip(got, want)):
        if line != expected:
            pytest.fail(f"row {index} is {line!r}, expected {expected!r}")
    if len(got) != len(want):
        pytest.fail(f"{len(got) - 1} rows, expected {len(want) - 1}")


def test_g17_matches_percent_format_over_the_exponent_range():
    rng = np.random.default_rng(20261018)
    signs = rng.choice([-1.0, 1.0], size=1_000_000)
    # most of them where the vectorised path applies, the rest anywhere
    exponents = np.r_[rng.uniform(-4.5, 16.5, 800_000), rng.uniform(-320, 308.25, 200_000)]
    values = signs * 10.0 ** exponents
    assert values.min() < -1e300 and values.max() > 1e300
    assert 0 < np.abs(values).min() < 1e-319
    assert_renders_as_percent_g17(values)


def test_g17_edge_values_match_percent_format():
    assert_renders_as_percent_g17(
        [0.0, -0.0, 5e-324, -5e-324, 1e-4, np.nextafter(1e-4, 0), -1e-4,
         9.9999999999999998e15, 1e16, -1e16, 1e17, float("nan"), float("inf"),
         float("-inf"), 1.0, 0.1, 0.5, 1e15, 123.0, np.nextafter(1e15, 0)]
        + [s * 10.0 ** p for p in range(-5, 18) for s in (1, -1)]
        + [np.nextafter(10.0 ** p, t) for p in range(-5, 18) for t in (0, np.inf)])


def test_g17_rounds_exact_ties_to_even():
    ties = [100000000000000.125, 100000000000000.375, 100000000000000.625,
            100000000000000.875, 1e15 + 0.25]
    assert g17_lines(ties) == (b"100000000000000.12\n100000000000000.38\n"
                               b"100000000000000.62\n100000000000000.88\n"
                               b"1000000000000000.2\n")
    rng = np.random.default_rng(7)
    whole = rng.integers(10 ** 15, 2 ** 51, 20_000).astype(float)
    fifteen = rng.integers(10 ** 14, 2 ** 48, 20_000).astype(float)
    assert_renders_as_percent_g17(np.r_[ties, whole + 0.25, -(whole + 0.75),
                                        fifteen + 0.125, fifteen + 0.625])


def test_g17_cuts_trailing_zeros():
    assert g17_lines([2.5, 100.0, 0.001, 1234.5, 0.10000000000000001]) == \
        b"2.5\n100\n0.001\n1234.5\n0.10000000000000001\n"
    rng = np.random.default_rng(11)
    assert_renders_as_percent_g17(np.r_[np.round(rng.uniform(-1e3, 1e3, 20_000), 3),
                                        rng.integers(-10 ** 15, 10 ** 15, 20_000)])


def test_g17_text_starts_its_canvas_and_padding_follows():
    rng = np.random.default_rng(14)
    values = np.r_[rng.choice([-1.0, 1.0], 50_000) * 10.0 ** rng.uniform(-6, 18, 50_000),
                   -2.2250738585072014e-308, 0.0, -0.0, float("nan"), -float("inf")]
    canvas = np.zeros((len(values), WORDS), np.uint64)
    Formatter(len(values))(values, canvas)
    text = canvas.view(np.uint8).reshape(len(values), -1)
    lengths = np.array([len(b"%.17g" % v) for v in values.tolist()])
    assert (lengths <= text.shape[1]).all()
    # the text from byte 0, no zero byte inside it, zero bytes after it
    np.testing.assert_array_equal(text != 0, np.arange(text.shape[1]) < lengths[:, None])
    longest = text[len(values) - 5].tobytes()
    assert longest == b"-2.2250738585072014e-308" and len(longest) == 8 * WORDS


def test_solve_rows_render_as_the_generic_formatter():
    grid = ChebyshevGrid.build(2, 1.0)
    states = np.array([[0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
                       [-0.0, float("nan"), float("inf"), 1e-300, -7.25, -1e-300],
                       [float("-inf"), 0.1, -2.5, 1e16, 5e-324, 1e-4]])
    times = np.array([0.0, -1.5, 12345.678])
    rows = [(k, j, float(times[k] + theta), c, float(states[k][2 * j + c]))
            for k in (1, 2) for j, theta in enumerate(grid.nodes_shifted) for c in range(2)]
    blocks = [(k, times[k:k + 1], states[k:k + 1]) for k in (1, 2)]
    assert_body_is_rows(b"\n".join(_solve_lines(grid, 2, 2, blocks)).decode() + "\n", rows)


@pytest.mark.parametrize("problem, argv", [
    ("example1", ["--N", "4", "--M", "3", "--order", "2", "--t-final", "4.0"]),
    ("mathieu", ["--N", "3", "--M", "2", "--order", "6", "--t-final", "14.0"]),
])
def test_solve_store_steps_streams_the_generic_rows(tmp_path, capsys, monkeypatch, problem, argv):
    # every step of every interval (a trailing partial one too), in chunks
    # that hold all rows, split intervals, or hold less than a window, byte
    # for byte the rows of _format_rows
    traj = ddemagnus.solve(ddemagnus.builtin_problem(problem).problem, int(argv[1]),
                           int(argv[3]), int(argv[5]), float(argv[7]), store_steps=True)
    d, theta = traj.d, traj.grid.nodes_shifted
    rows = [(k, j, float(t + theta[j]), c, float(state[j * d + c]))
            for k, t, state in zip(traj.intervals[1:], traj.times[1:], traj.states[1:])
            for j in range(len(theta)) for c in range(d)]
    assert len({row[0] for row in rows}) == 3
    out = tmp_path / "steps.csv"
    for chunk_rows in (cli._SOLVE_CHUNK_ROWS, 12, 1):
        monkeypatch.setattr(cli, "_SOLVE_CHUNK_ROWS", chunk_rows)
        assert run_cli(["solve", "--problem", problem, *argv, "--store-steps",
                        "--out", str(out)], capsys)[0] == 0
        body = out.read_text(encoding="utf-8").split("component_index,value\n", 1)[1]
        assert_body_is_rows(body, rows)


@pytest.mark.parametrize("N", ["2", "10"])
def test_solve_rows_of_a_thousand_intervals_and_more(tmp_path, capsys, N):
    # "\nk,j," with k >= 1000 fills one 8-byte word (N = 2) or needs a second
    # one (N = 10)
    argv = ["--N", N, "--M", "1", "--order", "2", "--t-final", "1575.0"]
    traj = ddemagnus.solve(ddemagnus.builtin_problem("example1").problem, int(N), 1, 2,
                           1575.0, store_steps=True)
    theta = traj.grid.nodes_shifted
    rows = [(k, j, float(t + theta[j]), 0, float(state[j]))
            for k, t, state in zip(traj.intervals[1:], traj.times[1:], traj.states[1:])
            for j in range(len(theta))]
    assert traj.intervals[-1] > 1000
    out = tmp_path / "steps.csv"
    assert run_cli(["solve", "--problem", "example1", *argv, "--store-steps",
                    "--out", str(out)], capsys)[0] == 0
    body = out.read_text(encoding="utf-8").split("component_index,value\n", 1)[1]
    assert_body_is_rows(body, rows)


def test_solve_writes_the_same_bytes_to_stdout_and_to_a_file(tmp_path, capsys):
    argv = ["solve", "--problem", "mathieu", "--N", "6", "--M", "40", "--order", "4",
            "--t-final", "60.0", "--store-steps"]
    code, stdout, _ = run_cli(argv, capsys)
    assert code == 0
    out = tmp_path / "steps.csv"
    assert run_cli(argv + ["--out", str(out)], capsys)[0] == 0
    assert stdout.encode("utf-8") == out.read_bytes()
    assert stdout.count("\n") > cli._SOLVE_CHUNK_ROWS   # more than one chunk


def test_failing_solve_writes_no_file(tmp_path, capsys):
    out = tmp_path / "never.csv"
    code, _, err = run_cli(["solve", "--problem", "mathieu", "--param", "delta=-4e6",
                            "--N", "12", "--M", "1", "--order", "2", "--t-final", "12.566370",
                            "--out", str(out)], capsys)
    assert code == 1 and "numerical failure" in err
    assert not out.exists()


# delta = -100 makes the Mathieu state overflow in interval 11; rows of 112
# are 8 windows, so the intervals before it fill chunks and reach the file
_FAILING_LATE = ["solve", "--problem", "mathieu", "--param", "delta=-100", "--N", "6",
                 "--M", "8", "--t-final", "400", "--store-steps"]


def test_a_solve_failing_after_its_first_rows_leaves_no_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_SOLVE_CHUNK_ROWS", 112)
    written, lines = [], cli._solve_lines

    def recorded(*args):
        for text in lines(*args):
            yield text
            written.append(sum(path.stat().st_size for path in tmp_path.iterdir()))
    monkeypatch.setattr(cli, "_solve_lines", recorded)
    out = tmp_path / "never.csv"
    code, _, err = run_cli(_FAILING_LATE + ["--out", str(out)], capsys)
    assert code == 1 and "interval 11" in err
    assert written[-1] > 0   # the rows went to a file beside the output
    assert list(tmp_path.iterdir()) == []


def test_an_interrupted_solve_leaves_no_file(tmp_path, monkeypatch):
    lines = cli._solve_lines

    def interrupted(*args):
        for count, text in enumerate(lines(*args)):
            if count == 3:
                raise KeyboardInterrupt
            yield text
    monkeypatch.setattr(cli, "_solve_lines", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["solve", "--problem", "example1", "--N", "20", "--M", "64", "--t-final", "31.4",
              "--store-steps", "--out", str(tmp_path / "never.csv")])
    assert list(tmp_path.iterdir()) == []


def test_the_output_is_created_as_open_would_create_it(tmp_path, capsys):
    argv = ["solve", "--problem", "example1", "--N", "4", "--M", "4", "--t-final", "3"]
    mode = lambda path: stat.S_IMODE(path.stat().st_mode)   # noqa: E731
    umask = os.umask(0o027)
    try:
        reference = tmp_path / "reference"
        open(reference, "w").close()
        out = tmp_path / "out.csv"
        assert run_cli(argv + ["--out", str(out)], capsys)[0] == 0
        assert mode(out) == mode(reference) == 0o640
        # a file that exists keeps its mode, and a link stays a link to it
        out.chmod(0o604)
        link = tmp_path / "link.csv"
        link.symlink_to(out)
        assert run_cli(argv + ["--out", str(link)], capsys)[0] == 0
        assert link.is_symlink() and mode(out) == 0o604
    finally:
        os.umask(umask)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["link.csv", "out.csv",
                                                                 "reference"]


@pytest.mark.parametrize("name, reason", [("missing/out.csv", "No such file or directory"),
                                          ("", "Is a directory")])
def test_an_output_that_cannot_be_opened_is_a_usage_error(tmp_path, capsys, name, reason):
    # a directory is opened itself; in a missing directory the new file
    # that replaces the target cannot be created, so the message names it
    out = tmp_path / name
    failure = (f"cannot write {out}" if out.is_dir() else
               f"cannot create a file in {os.path.realpath(out.parent)}, the directory of {out}")
    code, stdout, err = run_cli(["solve", "--problem", "example1", "--N", "4", "--M", "4",
                                 "--t-final", "3", "--out", str(out)], capsys)
    assert code == 2 and stdout == ""
    assert err.splitlines() == [f"error: field 'out': {failure}: {reason}"]
    assert list(tmp_path.iterdir()) == []


def test_an_output_the_user_may_not_write_is_kept(tmp_path, capsys, monkeypatch):
    # a 0444 file is refused with exit 2 and kept as it was, as open(path,
    # "w") refuses it; a user the mode does not bind (root) writes it, as
    # open(path, "w") would, so there the refusal is taken from os.access
    argv = ["solve", "--problem", "example1", "--N", "4", "--M", "4", "--t-final", "3"]
    probe = tmp_path / "probe"
    probe.touch(mode=0o444)
    try:
        open(probe, "w").close()
    except PermissionError:
        pass
    else:
        monkeypatch.setattr(os, "access", lambda path, mode: not (stat.S_IMODE(
            os.stat(path).st_mode) == 0o444 and mode == os.W_OK))
    probe.unlink()
    out = tmp_path / "out.csv"
    out.write_bytes(b"kept\n")
    out.chmod(0o444)
    code, stdout, err = run_cli(argv + ["--out", str(out)], capsys)
    assert code == 2 and stdout == ""
    assert err.splitlines() == [f"error: field 'out': cannot write {out}: Permission denied"]
    assert out.read_bytes() == b"kept\n" and stat.S_IMODE(out.stat().st_mode) == 0o444
    assert [path.name for path in tmp_path.iterdir()] == ["out.csv"]


def test_an_output_in_a_directory_the_user_may_not_write_names_it(tmp_path, capsys,
                                                                   monkeypatch):
    # a writable file in a 0555 directory: the new file cannot be created
    # beside it, so the refusal (exit 2) names the directory, and the file
    # is kept; a user the mode does not bind (root) creates it, so there
    # the refusal is stubbed where the new file is opened
    argv = ["solve", "--problem", "example1", "--N", "4", "--M", "4", "--t-final", "3"]
    locked = tmp_path / "locked"
    locked.mkdir()
    out = locked / "out.csv"
    out.write_bytes(b"kept\n")
    locked.chmod(0o555)
    try:
        try:
            open(locked / "probe", "x").close()
        except PermissionError:
            pass
        else:
            (locked / "probe").unlink()

            def refusing_open(name, mode="r", *args, **kwargs):
                if "x" in mode and os.path.dirname(name) == os.path.realpath(locked):
                    raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), name)
                return open(name, mode, *args, **kwargs)
            monkeypatch.setattr(cli, "open", refusing_open, raising=False)
        code, stdout, err = run_cli(argv + ["--out", str(out)], capsys)
    finally:
        locked.chmod(0o755)
    assert code == 2 and stdout == ""
    assert err.splitlines() == [f"error: field 'out': cannot create a file in "
                                f"{os.path.realpath(locked)}, the directory of {out}: "
                                f"Permission denied"]
    assert out.read_bytes() == b"kept\n"
    assert [path.name for path in locked.iterdir()] == ["out.csv"]


def test_solve_writes_into_a_pipe_in_place(tmp_path, capsys):
    argv = ["solve", "--problem", "mathieu", "--N", "6", "--M", "8", "--t-final", "30",
            "--store-steps"]
    out, fifo, read = tmp_path / "out.csv", tmp_path / "fifo", []
    assert run_cli(argv + ["--out", str(out)], capsys)[0] == 0
    os.mkfifo(fifo)
    reader = threading.Thread(target=lambda: read.append(fifo.read_bytes()))
    reader.start()
    try:
        code = run_cli(argv + ["--out", str(fifo)], capsys)[0]
    finally:
        reader.join(timeout=60)
    assert not reader.is_alive() and code == 0
    assert read == [out.read_bytes()] and stat.S_ISFIFO(fifo.lstat().st_mode)


def test_solve_writes_the_same_text_to_a_text_stdout(tmp_path, capsys):
    # a stdout without a binary buffer, such as an io.StringIO
    argv = ["solve", "--problem", "mathieu", "--N", "6", "--M", "40", "--order", "4",
            "--t-final", "20.0", "--store-steps"]
    out = tmp_path / "steps.csv"
    assert run_cli(argv + ["--out", str(out)], capsys)[0] == 0
    with contextlib.redirect_stdout(io.StringIO()) as text:
        assert main(argv) == 0
    assert text.getvalue().encode() == out.read_bytes()


@pytest.mark.parametrize("store_steps, chunk_rows", [(["--store-steps"], 512), ([], 36)])
def test_solve_memory_does_not_grow_with_the_horizon(tmp_path, monkeypatch, store_steps,
                                                     chunk_rows):
    # 16 and 256 periods of example1 (64 and 1024 delay intervals) at N = 8,
    # M = 16, in chunks of 56 windows and bursts of 448 (28 intervals) with
    # every step kept, of 4 windows and 32 intervals with one window per
    # interval: the windows of a burst are written and dropped as it ends,
    # so the peak is the C_k of the 4 phases, one burst and one chunk of rows
    monkeypatch.setattr(cli, "_SOLVE_CHUNK_ROWS", chunk_rows)
    peaks, sizes = [], []
    for periods in (16, 256):
        out = tmp_path / f"{periods}.csv"
        argv = ["solve", "--problem", "example1", "--N", "8", "--M", "16", "--t-final",
                repr(periods * 2 * math.pi), *store_steps, "--out", str(out)]
        assert main(argv) == 0   # what a first call allocates once
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        sizes.append(out.stat().st_size)
    assert 15 < sizes[1] / sizes[0] < 17
    assert abs(peaks[1] - peaks[0]) < 0.1 * peaks[0]


def test_convergence_of_an_unreused_solve(capsys):
    # one period of example1: no interval reuses propagators, so every step
    # is computed; order 6 and the M = 128 error as measured when added
    code, out, _ = run_cli(["convergence", "--problem", "example1", "--N", "20",
                            "--order", "6", "--M-list", "16,32,64,128",
                            "--t-final", "6.2832"], capsys)
    assert code == 0
    header, columns, rows = parse_csv(out)
    assert columns == ["M", "error", "local_order"] and header["metric"] == "solution"
    assert float(header["fitted_order"]) >= 5.5
    assert rows[-1][0] == "128" and float(rows[-1][1]) <= 5e-11


def test_multipliers_output(tmp_path, capsys):
    out = tmp_path / "mult.csv"
    code, out_text, _ = run_cli(["multipliers", "--problem", "example1",
                                 "--N", "10", "--M", "16", "--order", "4",
                                 "--out", str(out)], capsys)
    assert code == 0
    header, columns, rows = parse_csv(out.read_text())
    assert columns == ["rank", "re", "im", "modulus"]
    assert len(rows) == 11  # d (N+1) with d = 1
    assert header["stability_verdict"] in ("stable", "unstable", "marginal")
    first = rows[0]
    assert abs(float(first[1]) - 1.0) <= 1e-5
    assert abs(float(first[2])) <= 1e-7
    assert abs(float(first[3]) - 1.0) <= 1e-5
    assert "stability:" in out_text


def test_multipliers_needs_periodic_linear_problem(capsys):
    code, _, err = run_cli(["multipliers", "--problem", "sir"], capsys)
    assert code == 2 and "linear" in err


def test_csv_output_is_deterministic(capsys):
    args = ["multipliers", "--problem", "mathieu", "--N", "6", "--M", "4",
            "--order", "2"]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_convergence_multiplier_metric(capsys):
    code, out_text, _ = run_cli(["convergence", "--problem", "example1",
                                 "--N", "10", "--order", "2",
                                 "--M-list", "4,8,16"], capsys)
    assert code == 0
    header, columns, rows = parse_csv(out_text)
    assert columns == ["M", "error", "local_order"]
    assert header["metric"] == "multiplier"
    assert len(rows) == 3
    assert 1.5 <= float(header["fitted_order"]) <= 2.5


def test_convergence_order4_multiplier_slope(capsys):
    code, out_text, _ = run_cli(["convergence", "--problem", "example1",
                                 "--N", "20", "--order", "4",
                                 "--M-list", "4,8,16,32"], capsys)
    assert code == 0
    header, _, _ = parse_csv(out_text)
    assert 3.6 <= float(header["fitted_order"]) <= 4.4


def test_convergence_solution_metric_rejects_jobs(capsys):
    args = ["convergence", "--problem", "nonlinear-scalar", "--N", "10",
            "--order", "2", "--t-final", "1.5707963", "--M-list", "4,8"]
    with pytest.raises(SystemExit) as info:
        main(args + ["--jobs", "2"])
    assert info.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    code, out_text, _ = run_cli(args, capsys)
    assert code == 0
    header, _, _ = parse_csv(out_text)
    assert header["metric"] == "solution"
    assert 1.5 <= float(header["fitted_order"]) <= 2.5


def test_convergence_takes_its_metric_from_the_horizon(capsys):
    # without --t-final the study is of the multipliers of one period
    argv = ["convergence", "--problem", "example1", "--N", "6", "--M-list", "2,4"]
    for horizon, metric in (([], "multiplier"), (["--t-final", "1"], "solution")):
        code, out, _ = run_cli(argv + horizon, capsys)
        assert code == 0 and parse_csv(out)[0]["metric"] == metric


def test_convergence_requires_reference(capsys):
    code, _, err = run_cli(["convergence", "--problem", "mathieu", "--N", "6",
                            "--t-final", "6.2832", "--M-list", "2,4"], capsys)
    assert code == 2 and err.count("\n") == 1
    assert err.startswith("error: field 'problem': no exact solution available")
    code, _, err = run_cli(["convergence", "--problem", "example1", "--N", "6",
                            "--t-final", "1"], capsys)
    assert code == 2 and "M-list" in err
    # non-canonical parameters carry no reference multiplier
    code, _, err = run_cli(["convergence", "--problem", "mathieu",
                            "--param", "b=0.3", "--N", "6", "--M-list", "2,4"], capsys)
    assert code == 2 and "reference multiplier" in err


def test_audit_sir_and_rejection(tmp_path, capsys):
    out = tmp_path / "audit.csv"
    code, _, _ = run_cli(["audit", "--problem", "sir", "--N", "10", "--M", "10",
                          "--t-final", "4", "--out", str(out)], capsys)
    assert code == 0
    _, columns, rows = parse_csv(out.read_text())
    assert columns == ["interval", "end_time", "mean_total_error",
                       "boundary_total_error", "min_component"]
    assert len(rows) == 4
    assert all(float(row[3]) <= 1e-12 for row in rows)

    code, _, err = run_cli(["audit", "--problem", "example1",
                            "--t-final", "4"], capsys)
    assert code == 2 and "conserv" in err


def test_config_file_and_cli_precedence(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("problem = sir\nN = 6\nM = 5\norder = 2\n"
                      "t-final = 2\nparam.gamma = 0.5\n")
    code, out_text, _ = run_cli(["solve", "--config", str(config)], capsys)
    assert code == 0
    header, _, _ = parse_csv(out_text)
    assert header["N"] == "6" and header["param.gamma"] == "0.5"

    code, out_text, _ = run_cli(["solve", "--config", str(config),
                                 "--N", "8"], capsys)
    assert code == 0
    header, _, _ = parse_csv(out_text)
    assert header["N"] == "8"  # command line wins


# A complete command line of each command, and per configuration key a
# value other than its default (per (command, key) where that command needs
# another); a case drops the key, and the keys exclusive with it, from the
# command line, then sets it by flag and by config file.
_RUNS = {
    "solve": {"problem": "example1", "N": "4", "M": "8", "t_final": "1"},
    "multipliers": {"problem": "example1", "N": "4", "M": "4"},
    "convergence": {"problem": "example1", "N": "4", "m_list": "2,4,8"},
    "audit": {"problem": "sir", "N": "4", "M": "4", "t_final": "2"},
}
_VALUES = {
    "problem": "mathieu", ("audit", "problem"): "sir", "N": "5", "M": "3", "order": "2",
    "t_final": "1.5", "store_steps": None, "stability_tol": "0.5",
    "m_list": "2,4", "n_list": "4,6",
    # drops the M = 8 point (error 0.01926) from the fit, keeps M = 2 and 4
    "slope_floor": "0.0193",
}
_EXCLUSIVE = ({"m_list", "n_list"}, {"n_list", "N"})
# the study over --M-list reads no M: setting it is a usage error
_FAILS = {("convergence", "M"): "field 'M': M-list replaces it"}
_SOLVE = ["solve", "--N", "4", "--M", "8", "--t-final", "1"]
_STUDY = ["convergence", "--N", "4"]


@pytest.mark.parametrize("key", sorted({key for options in build_parser()[1].values()
                                        for key in options}))
def test_config_key_matches_flag(tmp_path, capsys, key):
    out = tmp_path / "out.csv"

    def run(argv):
        result = run_cli(argv, capsys)
        text = out.read_text() if out.exists() else None
        out.unlink(missing_ok=True)
        return result + (text,)

    for command, options in build_parser()[1].items():
        if key not in options:
            continue
        value = str(out) if key == "out" else _VALUES.get((command, key), _VALUES.get(key))
        dropped = {key}.union(*(keys for keys in _EXCLUSIVE if key in keys))
        argv = [command] + [token for name, text in _RUNS[command].items() if name not in dropped
                            for token in (options[name].option_strings[0], text)]
        flag = [options[key].option_strings[0]] + ([] if value is None else [value])
        config = tmp_path / "run.cfg"
        config.write_text(f"{key} = {'yes' if value is None else value}\n")
        base = run(argv)
        from_flag = run(argv + flag)
        from_file = run(argv + ["--config", str(config)])
        assert from_file == from_flag != base, command  # the option took effect
        failure = _FAILS.get((command, key))
        assert from_flag[0] == (0 if failure is None else 2), from_flag
        assert failure is None or failure in from_flag[2]


def _foreign_options():
    """(command, flag) of each option that another command takes and this one does not."""
    flags = {command: {action.option_strings[0] for action in options.values()}
             for command, options in build_parser()[1].items()}
    every = set().union(*flags.values())
    return [(command, flag) for command in flags for flag in sorted(every - flags[command])]


@pytest.mark.parametrize("command, flag", _foreign_options())
def test_option_of_another_command_is_rejected(tmp_path, capsys, command, flag):
    # a command takes, and so echoes, only the options it reads
    with pytest.raises(SystemExit) as info:
        main([command, flag, "1"])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    config = tmp_path / "run.cfg"
    config.write_text(f"{flag[2:]} = 1\n")
    code, out, err = run_cli([command, "--config", str(config)], capsys)
    assert code == 2 and out == "" and "unknown configuration key" in err


@pytest.mark.parametrize("written, flag", [
    ("M-list", "--M-list"), ("M_list", "--M-list"), ("m_list", "--M-list"),
    ("m-list", "--M-list"), ("N-list", "--N-list"), ("n_list", "--N-list")])
def test_config_key_accepts_flag_spellings(tmp_path, capsys, written, flag):
    config = tmp_path / "run.cfg"
    config.write_text(f"{written} = 2,4\nt-final = 1\n")
    argv = ["convergence", "--problem", "example1", "--order", "4"]
    from_file = run_cli(argv + ["--config", str(config)], capsys)
    from_flag = run_cli(argv + [flag, "2,4", "--t-final", "1"], capsys)
    assert from_file[0] == from_flag[0] == 0
    assert from_file[1] == from_flag[1]


@pytest.mark.parametrize("written", ["n", "m", "M-List", "t-Final", "m__list",
                                     "warn_as_error", "warn-as-error"])
def test_config_key_spellings_stay_case_sensitive(tmp_path, capsys, written):
    # N and M are different keys from a lowercase n or m, so no key is
    # lowercased; a name of no option is unknown in any spelling
    config = tmp_path / "run.cfg"
    config.write_text(f"{written} = 4\n")
    code, _, err = run_cli(["solve", "--t-final", "1", "--config", str(config)], capsys)
    assert code == 2 and "unknown configuration key" in err


@pytest.mark.parametrize("key", ["M", "N"])
def test_convergence_list_replaces_its_single_value(capsys, key):
    # the study takes every M (or N) from the list: the single value is not
    # echoed, and setting it is a usage error
    argv = ["convergence", "--problem", "example1", f"--{key}-list", "2,4"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and key not in parse_csv(out)[0]
    code, out, err = run_cli(argv + [f"--{key}", "3"], capsys)
    assert code == 2 and out == ""
    assert err == f"error: field '{key}': {key}-list replaces it; give only one of them\n"


def test_convergence_header_echoes_slope_floor(capsys):
    argv = _STUDY + ["--M-list", "2,4,8"]
    base = parse_csv(run_cli(argv, capsys)[1])[0]
    floored = parse_csv(run_cli(argv + ["--slope-floor", "0.0193"], capsys)[1])[0]
    assert base["slope_floor"] == "0" and floored["slope_floor"] == "0.019300000000000001"
    assert base["fitted_order"] != floored["fitted_order"]
    assert ({k: v for k, v in base.items() if k not in ("slope_floor", "fitted_order")}
            == {k: v for k, v in floored.items() if k not in ("slope_floor", "fitted_order")})


@pytest.mark.parametrize("flag, single", [("--M-list", "--N"), ("--N-list", "--M")])
def test_convergence_of_one_value_is_a_usage_error(tmp_path, capsys, monkeypatch, flag,
                                                   single):
    # one point fits no order: the study is refused before any solve, from
    # the command line and from a config file alike
    monkeypatch.setattr(cli, "solve", lambda *args: pytest.fail("solve ran"))
    config = tmp_path / "run.cfg"
    config.write_text(f"{flag[2:]} = 4\n")
    argv = ["convergence", "--problem", "example1", single, "6", "--t-final", "1"]
    for given in ([flag, "4"], ["--config", str(config)]):
        code, out, err = run_cli(argv + given, capsys)
        assert code == 2 and out == ""
        assert err == (f"error: field '{flag[2:]}': fitting an order needs at least two "
                       f"values, got 4\n")


def test_config_skips_blank_and_comment_lines_and_reads_false_words(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("\n# step count\nM = 3\n   \nstore_steps = no\n")
    argv = ["solve", "--N", "4", "--t-final", "1"]
    from_file = run_cli(argv + ["--config", str(config)], capsys)
    assert from_file[0] == 0
    assert from_file == run_cli(argv + ["--M", "3"], capsys)


@pytest.mark.parametrize("text, message", [
    (None, "field 'config': cannot read"),
    ("M = 3\nN 6\n", "run.cfg:2: expected key = value"),
    ("store_steps = maybe\n", "field 'store_steps': cannot parse 'maybe'"),
])
def test_bad_config_file_is_a_usage_error(tmp_path, capsys, text, message):
    config = tmp_path / "run.cfg"
    if text is not None:
        config.write_text(text)
    code, out, err = run_cli(_SOLVE + ["--config", str(config)], capsys)
    assert code == 2 and out == "" and err.startswith("error: ") and message in err


def test_string_parameter_reaches_the_model_and_the_header(capsys):
    argv = ["audit", "--problem", "sir", "--N", "4", "--M", "4", "--t-final", "2"]
    code, rising, _ = run_cli(argv + ["--param", "history=increasing"], capsys)
    assert code == 0
    header, _, rows = parse_csv(rising)
    assert header["param.history"] == "increasing"
    assert rows != parse_csv(run_cli(argv, capsys)[1])[2]


def test_multiplier_study_of_a_quasilinear_problem_is_a_usage_error(capsys):
    code, out, err = run_cli(["convergence", "--problem", "sir", "--N", "4",
                              "--M-list", "2,4"], capsys)
    assert code == 2 and out == "" and err == (
        "error: field 'problem': a multiplier study (no --t-final) needs a linear problem\n")


def test_config_file_unknown_key(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("nodes = 6\n")
    code, _, err = run_cli(["solve", "--config", str(config),
                            "--t-final", "1"], capsys)
    assert code == 2 and "nodes" in err


def test_unknown_problem_and_bad_param(capsys):
    code, _, err = run_cli(["solve", "--problem", "nope", "--t-final", "1"],
                           capsys)
    assert code == 2 and "unknown problem" in err
    code, _, err = run_cli(["solve", "--problem", "sir", "--t-final", "1",
                            "--param", "beta"], capsys)
    assert code == 2 and "param" in err


def test_warn_as_error_is_not_an_option(capsys):
    with pytest.raises(SystemExit) as info:
        main(_SOLVE + ["--warn-as-error"])
    assert info.value.code == 2
    assert "unrecognized arguments: --warn-as-error" in capsys.readouterr().err


def test_step_far_outside_the_magnus_series_bound_runs_without_warnings():
    # one step per delay interval at N = 20 puts h ||A|| far above pi
    src = str(Path(ddemagnus.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-W", "error", "-m", "ddemagnus",
                           "solve", "--problem", "example1", "--N", "20", "--M", "1",
                           "--order", "2", "--t-final", "1.5707963"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0 and done.stderr == ""
    assert len(parse_csv(done.stdout)[2]) == 21


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_numerical_failure_exit_code(capsys):
    # eigenvalue 2000 of the frozen system overflows exp within one step
    code, _, err = run_cli(["solve", "--problem", "mathieu",
                            "--param", "delta=-4e6", "--N", "12", "--M", "1",
                            "--order", "2", "--t-final", "12.566370"], capsys)
    assert code == 1
    assert "numerical failure" in err
    assert "interval 0" in err


def test_failed_eigenvalue_iteration_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    def no_convergence(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
    with pytest.raises(NumericalFailure, match="eigenvalue iteration failed to converge"):
        ddemagnus.eigenvalues(np.eye(2))
    out = tmp_path / "never.csv"
    code, _, err = run_cli(["multipliers", "--problem", "mathieu", "--N", "4", "--M", "4",
                            "--out", str(out)], capsys)
    assert code == 1 and not out.exists()
    assert err.splitlines() == ["numerical failure: eigenvalue iteration failed to "
                                "converge: Eigenvalues did not converge"]


def test_overflowing_exponential_prints_only_the_failure():
    # numpy's overflow warnings would only repeat the failure line
    src = str(Path(ddemagnus.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "ddemagnus",
                           "solve", "--problem", "mathieu", "--param", "delta=-4e6",
                           "--N", "12", "--M", "1", "--order", "2", "--t-final", "12.566370"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        "numerical failure: expm result is not finite (input 1-norm 2.51328e+07) "
        "in interval 0, step 0"]


@pytest.mark.parametrize("argv", [
    # finite parameters whose coefficients overflow: delta + epsilon cos t,
    # and beta times a delayed I of 2
    ["multipliers", "--problem", "mathieu", "--param", "delta=1e308",
     "--param", "epsilon=1e308"],
    ["solve", "--problem", "sir", "--t-final", "2", "--param", "beta=1e308",
     "--param", "i0=2"],
])
def test_nonfinite_coefficient_is_a_numerical_failure(argv):
    src = str(Path(ddemagnus.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-W", "ignore", "-m", "ddemagnus", *argv,
                           "--N", "6", "--M", "4"], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 1
    assert done.stderr.startswith("numerical failure")
    assert "interval 0, step 0" in done.stderr
    assert "Traceback" not in done.stderr


def test_closed_stdout_ends_the_run_quietly():
    # the reader stops after a few bytes, as `| head -1` does
    src = str(Path(ddemagnus.__file__).resolve().parents[1])
    with subprocess.Popen([sys.executable, "-m", "ddemagnus", "solve", "--problem", "example1",
                           "--N", "20", "--M", "64", "--t-final", "31.4159", "--store-steps"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env={**os.environ, "PYTHONPATH": src}) as proc:
        assert proc.stdout.read(100).startswith(b"# generator = ddemagnus")
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE and err == b""


def test_readme_cli_examples_run(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("ddemagnus ")]
    assert len(lines) >= 4
    for line in lines:
        argv = shlex.split(line)[1:]
        if "--out" in argv:
            del argv[argv.index("--out"):argv.index("--out") + 2]
        code, _, err = run_cli(argv + ["--out", str(tmp_path / "out.csv")], capsys)
        assert code == 0, f"{line}: {err}"


def test_cli_version_and_help_exit():
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0


# Each numeric flag and parameter of every subcommand over bad and edge
# values.  A horizon of 1e300, or --param tau=1e-9 over a horizon of 1,
# spans more delay intervals than a run may take and fails before its plan
# is built.
_BAD_VALUES = ("nan", "inf", "-inf", "0", "-1", "0.5", "2.5", "1e-9", "1e300")
# model parameters outside their problem's domain, each with its problem:
# a usage error (exit 2) of every command, with one line naming the field
_BAD_PARAMS = {"b=nan": "mathieu", "delta=inf": "mathieu", "epsilon=nan": "mathieu",
               "beta=nan": "sir", "gamma=inf": "sir", "alpha=nan": "sir"}
# values bad for one flag only: a study of one M or one N fits no order,
# and the model parameters above
_BAD_FOR = {"--M-list": ("4",), "--N-list": ("4",), "--param": tuple(_BAD_PARAMS)}
_BAD_FLAGS = ("--N", "--M", "--order", "--t-final", "--stability-tol",
              "--slope-floor", "--M-list", "--N-list", "--param")
# (command, flag) -> the values that are legitimate there and exit 0; every
# other combination is a usage error (exit 2) or a numerical failure (1)
_LEGITIMATE = {
    ("solve", "--t-final"): {"0.5", "2.5"},
    ("audit", "--t-final"): {"0.5", "2.5"},
    ("convergence", "--t-final"): {"0.5", "2.5"},
    ("convergence", "--slope-floor"): {"0", "-1", "0.5", "2.5", "1e-9", "1e300"},
    ("solve", "--param"): {"0.5", "2.5"},
    ("audit", "--param"): {"0.5", "2.5"},
    ("multipliers", "--stability-tol"): {"0", "0.5", "2.5", "1e-9", "1e300"},
}


def _bad_input_argv(command, flag, value, out):
    # a --param value without a key is that of tau
    problem = _BAD_PARAMS.get(value, "sir" if command == "audit" or flag == "--param"
                              else "example1")
    sizes = {"--N": "4", "--M": "4"}
    if command == "convergence":
        # the study lists M, or N when --M or --N-list is the flag under test,
        # in place of the single value
        single = "--N" if flag in ("--M", "--N-list") else "--M"
        del sizes[single]
        if flag != f"{single}-list":
            sizes[f"{single}-list"] = "2,4"
    argv = [command, "--problem", problem, "--out", str(out)]
    argv += [token for pair in sizes.items() for token in pair]
    if command != "multipliers" and flag != "--t-final":
        argv += ["--t-final", "1"]
    if flag == "--param" and "=" not in value:
        value = f"tau={value}"
    return argv + [flag, value]


def test_bad_numeric_inputs_fail_cleanly_and_write_nothing(tmp_path, capsys):
    wrong = []
    for command in ("solve", "multipliers", "convergence", "audit"):
        for flag in _BAD_FLAGS:
            for value in _BAD_VALUES + _BAD_FOR.get(flag, ()):
                out = tmp_path / f"{command}{flag}={value}.csv"
                argv = _bad_input_argv(command, flag, value, out)
                try:
                    code = main(argv)
                except SystemExit as exc:   # argparse rejects the value
                    code = exc.code
                except Exception as exc:
                    code = f"raised {exc!r}"
                err = capsys.readouterr().err
                if value in _LEGITIMATE.get((command, flag), ()):
                    fine = code == 0 and out.exists()
                elif value in _BAD_PARAMS:
                    fine = (code == 2 and err.startswith("error: field 'param': ")
                            and err.count("\n") == 1 and not out.exists())
                else:
                    fine = code in (1, 2) and "Traceback" not in err and not out.exists()
                if not fine:
                    wrong.append(f"{' '.join(argv)}: exit {code}, stderr {err!r}")
    assert not wrong, "\n".join(wrong)


# Runs whose memory estimate exceeds dde.MAX_BYTES, with the parameter their
# message names; each fails before its grid is built, where it would end
# in a MemoryError traceback
_OVERSIZED_RUNS = [
    (["solve", "--N", "200000", "--t-final", "1"], "N = 200000"),
    (["solve", "--N", "20", "--M", "100000000", "--t-final", "100"], "M = 100000000"),
    (["multipliers", "--problem", "mathieu", "--N", "3000", "--M", "2"], "N = 3000"),
]


@pytest.mark.parametrize("argv, named", _OVERSIZED_RUNS)
def test_a_run_too_large_for_memory_is_a_usage_error(tmp_path, capsys, argv, named):
    out = tmp_path / "out.csv"
    tracemalloc.start()
    try:
        code, stdout, err = run_cli(argv + ["--out", str(out)], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and stdout == "" and not out.exists()
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err
    assert "GiB, more than the 2 GiB a run may hold" in err
    assert peak < 2 ** 24


@pytest.mark.parametrize("command", ["multipliers"])
def test_infinite_stability_tolerance_is_a_usage_error(tmp_path, capsys, command):
    # with an infinite marginal band every verdict would read "marginal"
    out = tmp_path / "out.csv"
    code, _, err = run_cli(_bad_input_argv(command, "--stability-tol", "inf", out), capsys)
    assert code == 2 and "field 'stability_tol'" in err and not out.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "example1", "--t-final", "1e-9"],
    ["solve", "--problem", "mathieu", "--t-final", "1e-9"],
    ["audit", "--problem", "sir", "--t-final", "1e-9"],
    ["convergence", "--problem", "example1", "--M-list", "2,4", "--t-final", "1e-9"],
])
def test_horizon_inside_the_breakpoint_snap_is_a_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    code, stdout, err = run_cli(argv + ["--N", "4", "--out", str(out)], capsys)
    assert code == 2 and stdout == "" and not out.exists()
    assert err.startswith("error: ") and err.count("\n") == 1 and "snap" in err
    assert "t_final = " in err
