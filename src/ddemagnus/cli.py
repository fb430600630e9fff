"""Command-line front end: solve benchmarks, multipliers, convergence studies, audits.

Subcommands
-----------
solve        integrate a problem and dump the node values as CSV
multipliers  monodromy matrix eigenvalues plus a stability verdict
convergence  error-versus-M (or N) table with fitted order
audit        per-interval conservation/positivity report for SIR-like models

Each subcommand takes only the options it reads.  All output is CSV with
a ``# key = value`` header block echoing the fully resolved value of each
of them but the output path, floats printed as %.17g, so repeated runs
with the same configuration produce byte-identical files.  Exit codes:
0 success, 1 numerical failure, 2 usage or configuration error, 141 the
reader of stdout went away (as after ``| head``).
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import itertools
import math
import os
import stat
import sys
import warnings
from types import SimpleNamespace

import numpy as np

from . import __version__
from .dde import (LinearDDEProblem, admissible_orders, monodromy, solve, solve_blocks,
                  stability_verdict)
from .linalg import NumericalFailure
from .models import builtin_problem

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141   # what a shell reports for a process that SIGPIPE ended


class ConfigError(Exception):
    """Invalid or inconsistent run configuration (exit code 2)."""


# The value of a configuration key that neither the command line nor a
# config file sets; a key not listed here defaults to None.
_DEFAULTS = {"problem": "example1", "N": 20, "M": 32, "store_steps": False,
             "stability_tol": 1e-9, "slope_floor": 0.0}
# A list key and the single value it replaces: once the list is set, the
# single value is not read, so it may not be set and takes no default.
_LISTED = {"m_list": "M", "n_list": "N"}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (list, tuple)):
        return " ".join(_fmt(v) for v in value)
    return str(value)


def _parse_value(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _parse_param_item(item: str):
    if "=" not in item:
        raise ConfigError(f"field 'param': expected key=value, got {item!r}")
    key, _, value = item.partition("=")
    return key.strip(), _parse_value(value.strip())


def read_config_file(path: str):
    """Parse a key = value config file mirroring the command-line flags.

    Returns the (key, value) pairs in file order, keys as written (see
    :func:`resolve_config` for the accepted spellings), and the problem
    parameters, written as ``param.<name> = <value>``.  ``#`` starts a
    comment.
    """
    values = []
    params = {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"field 'config': cannot read {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"field 'config': {path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key.startswith("param."):
            params[key[len("param."):]] = _parse_value(value)
        else:
            values.append((key, value))
    return values, params


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


def _parse_int_list(text: str):
    try:
        items = [int(part) for part in text.replace(",", " ").split()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"cannot parse integer list from {text!r}") from exc
    if not items or any(v < 1 for v in items):
        raise argparse.ArgumentTypeError(
            f"integer list must contain positive values: {text!r}")
    if len(set(items)) < len(items):
        raise argparse.ArgumentTypeError(f"integer list must not repeat a value: {text!r}")
    return items


def resolve_config(args: argparse.Namespace, options: dict) -> argparse.Namespace:
    """Merge config file and command line (later wins), then the defaults.

    ``options`` maps each configuration key of the command to its parser
    action, in the order of the header lines; the result holds ``command``,
    those keys in that order, then ``params``.  A config-file key is the
    key itself or one of the action's flag names without the leading
    dashes, each with dashes or underscores (so ``m_list``, ``m-list``,
    ``M-list`` and ``M_list`` all name --M-list; case matters, since N and
    M are different keys).  Its value is converted by the action's
    ``type`` (or as a true/false word for a flag that takes no value).
    Setting M or N together with the list that replaces it (``_LISTED``)
    is an error; otherwise it stays None.
    """
    cfg = argparse.Namespace(command=args.command, **dict.fromkeys(options))
    params = {}
    if args.config:
        file_values, params = read_config_file(args.config)
        spellings = {}
        for dest, action in options.items():
            for name in (dest, *(flag.lstrip("-") for flag in action.option_strings)):
                spellings[name.replace("-", "_")] = spellings[name.replace("_", "-")] = dest
        for written, text in file_values:
            key = spellings.get(written)
            if key is None:
                raise ConfigError(f"field {written.replace('-', '_')!r}: "
                                  f"unknown configuration key")
            action = options[key]
            convert = _parse_bool if action.nargs == 0 else action.type or str
            try:
                setattr(cfg, key, convert(text))
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ConfigError(f"field {key!r}: cannot parse {text!r}") from exc
    for key in options:
        value = getattr(args, key)
        if value is not None:
            setattr(cfg, key, value)
    unread = {single for listed, single in _LISTED.items()
              if getattr(cfg, listed, None) is not None}
    for key in options:
        if key in unread and getattr(cfg, key) is not None:
            raise ConfigError(f"field {key!r}: {key}-list replaces it; give only one of them")
        if key not in unread and getattr(cfg, key) is None:
            setattr(cfg, key, _DEFAULTS.get(key))
    for item in args.param or []:
        key, value = _parse_param_item(item)
        params[key] = value
    cfg.params = params
    return cfg


def _build_benchmark(cfg: argparse.Namespace):
    """The built-in problem of ``cfg``; each warning it gives (such as an
    SIR alpha outside {0, 1}) goes to stderr as one ``warning:`` line."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bench = builtin_problem(cfg.problem, **cfg.params)
    except KeyError as exc:
        raise ConfigError(f"field 'problem': {exc.args[0]}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field 'param': {exc}") from exc
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    return bench


def _fill_order(cfg: argparse.Namespace, problem) -> None:
    kind, admissible = admissible_orders(problem)
    if cfg.order is None:
        cfg.order = max(admissible)
    if cfg.order not in admissible:
        raise ConfigError(
            f"field 'order': {cfg.order} invalid for {kind} problems; "
            f"admissible orders: {', '.join(str(o) for o in admissible)}")


def _validate_common(cfg: argparse.Namespace) -> None:
    if cfg.N is not None and cfg.N < 1:
        raise ConfigError("field 'N': must be >= 1")
    if cfg.M is not None and cfg.M < 1:
        raise ConfigError("field 'M': must be >= 1")


def _horizon(cfg: argparse.Namespace) -> float:
    """The horizon --t-final, which must be given, positive and finite."""
    if cfg.t_final is None:
        raise ConfigError("field 't_final': required")
    if not 0 < cfg.t_final < math.inf:
        raise ConfigError("field 't_final': must be positive and finite")
    return cfg.t_final


def _header_pairs(cfg: argparse.Namespace, extra=()):
    """The problem and its parameters, then every other key of ``cfg`` that
    is set but the output path, then ``extra``."""
    pairs = [("generator", f"ddemagnus {__version__}"), ("command", cfg.command),
             ("problem", cfg.problem)]
    for key in sorted(cfg.params):
        pairs.append((f"param.{key}", _fmt(cfg.params[key])))
    for key, value in vars(cfg).items():
        if key not in ("command", "problem", "out", "params") and value is not None:
            pairs.append((key, _fmt(value)))
    pairs.extend(extra)
    return pairs


def _format_rows(rows) -> list:
    return [",".join(_fmt(cell) for cell in row) for row in rows]


@contextlib.contextmanager
def _output(path):
    """The binary handle the CSV is written to: stdout's, or for ``path`` a
    new file beside it that takes the place of ``path`` once the CSV is
    complete, and is removed if the writing raises (KeyboardInterrupt too),
    so a failed run leaves no file and an existing one as it was.

    The new file is created as ``open(path, "w")`` would create it, under
    the umask, and takes the mode of a file it replaces; it is a new file
    all the same, so other hard links keep the old contents and the owner
    becomes the user who runs it.  A path that is not a regular file, such
    as /dev/null or a pipe, is written in place.  A file that cannot be
    opened, an existing one that the user may not write, or a directory
    in which the new file cannot be created, is a ConfigError.
    """
    def opened(name, mode, failure):
        try:
            return open(name, mode)
        except OSError as exc:
            raise ConfigError(f"field 'out': {failure}: {exc.strerror}") from None

    if not path:
        sys.stdout.flush()
        binary = getattr(sys.stdout, "buffer", None)
        if binary is None:   # a text stream, such as an io.StringIO
            yield SimpleNamespace(write=lambda data: sys.stdout.write(bytes(data).decode()))
            return
        yield binary
        binary.flush()
        return
    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except OSError:   # a missing file, or a path that opening reports
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with opened(target, "wb", f"cannot write {path}") as handle:
            yield handle
        return
    if mode is not None and not os.access(target, os.W_OK):
        raise ConfigError(f"field 'out': cannot write {path}: {os.strerror(errno.EACCES)}")
    directory, name = os.path.split(target)
    temporary = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    handle = opened(temporary, "xb",
                    f"cannot create a file in {directory}, the directory of {path}")
    try:
        with handle:
            yield handle
        if mode is not None:
            os.chmod(temporary, stat.S_IMODE(mode))
        os.replace(temporary, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temporary)
        raise


def _write_csv(cfg: argparse.Namespace, header_pairs, columns, body) -> None:
    """Write the header block and the column line, then each ``body`` item
    (the text of one or more lines, as str or as ASCII bytes) as it comes,
    to ``cfg.out`` (see :func:`_output`) or stdout."""
    head = "".join(f"# {key} = {value}\n" for key, value in header_pairs)
    with _output(cfg.out) as handle:
        handle.write((head + ",".join(columns) + "\n").encode())
        for text in body:
            handle.write(text.encode() if isinstance(text, str) else text)
            handle.write(b"\n")
            del text   # not held while the next one is formed


# Rows of the solve CSV formatted at once: enough to spread numpy's per-call
# cost over thousands of values, few enough that the formatting temporaries
# stay below the solve's own peak memory.
_SOLVE_CHUNK_ROWS = 4096
# Chunks of windows pulled from the solve before they are formatted, so
# that the two take turns once per burst, not once per delay interval:
# turning every interval cost the `scalar-long` command about 6 ms (7 %)
# of CPU time in cache misses, every 4 chunks about 2 ms.  A burst holds
# at most 8 chunks of values, 260 KB, and one interval.
_SOLVE_BURST_CHUNKS = 8


def _digits(values, count: int) -> np.ndarray:
    """The decimal digits of each nonnegative integer in ``values`` as
    ``count`` ASCII bytes, right-aligned, zero bytes in place of leading zeros."""
    powers = 10 ** np.arange(count - 1, -1, -1)
    values = np.asarray(values)[:, None]
    shown = (values >= powers) | (powers == 1)
    return np.where(shown, values // powers % 10 + ord("0"), 0).astype(np.uint8)


def _in_bursts(blocks, windows: int):
    """The (interval, times, states) ``blocks`` as they come, but each pulled
    ahead until the blocks held have ``windows`` windows: a consumer that
    formats them takes turns with the solve once per burst, not once per
    interval, and each keeps more of its own arrays in the caches."""
    burst, held = [], 0
    for block in blocks:
        burst.append(block)
        held += len(block[1])
        if held >= windows:
            yield from burst
            burst, held = [], 0
    yield from burst


def _solve_lines(grid, d: int, intervals: int, blocks):
    """Yield the CSV bytes of the windows in ``blocks``, the (interval, times,
    states) of one of ``intervals`` delay intervals each, as
    :func:`solve_blocks` hands them on: about ``_SOLVE_CHUNK_ROWS`` rows
    (interval, node_index, time, component_index, value) at a time, joined
    by newlines.

    A chunk is laid out in one buffer of 8-byte words reused from chunk to
    chunk, two half-rows per row: the prefix "\\nk,j," and the time's
    :mod:`._g17` canvas, then ",c," and the value's canvas.  A prefix has
    a fixed field per number, its digits right-aligned: "j," and ",c," are
    laid out once, "\\nk," once per interval.  Zero bytes pad the fields
    and the canvases, and dropping them with one ``translate`` per chunk
    leaves the text, byte for byte that of ``%.17g``.  Each chunk is a
    memoryview of its own bytes.
    """
    from . import _g17 as g17   # its tables are built for solve output only
    theta = np.repeat(grid.nodes_shifted, d)
    size = len(theta)
    # digits of the largest k, j and c, and the 8-byte words that hold "\nk,j," and ",c,"
    nk, nj, nc = (len(str(v)) for v in (intervals, grid.N, d - 1))
    width = -(-max(nk + nj + 3, nc + 2) // 8)
    # the prefix fields: "j," and ",c," of each row of a window
    j_fields = np.zeros((size, 8 * width), np.uint8)
    j_fields[:, nk + 2:nk + nj + 2] = _digits(np.arange(size) // d, nj)
    j_fields[:, nk + nj + 2] = ord(",")
    c_fields = np.zeros((size, 8 * width), np.uint8)
    c_fields[:, [0, nc + 1]] = ord(",")
    c_fields[:, 1:nc + 1] = _digits(np.arange(size) % d, nc)
    j_words = j_fields.view(np.uint64)

    # the rows live in a bytearray, which translate reads in place; it is
    # made once the solve's first burst is in, whose first interval (a C_k
    # build, or a run's first chunks) is the solve's own peak
    windows = max(1, _SOLVE_CHUNK_ROWS // size)
    bursts = _in_bursts(blocks, _SOLVE_BURST_CHUNKS * windows)
    first = next(bursts)
    shape = (windows, size, 2, width + g17.WORDS)
    buffer = bytearray(8 * math.prod(shape))
    rows = np.frombuffer(buffer, np.uint64).reshape(shape)
    rows[:, :, 1, :width] = c_fields.view(np.uint64)
    canvases = rows.reshape(-1, width + g17.WORDS)[:, width:]
    values = np.empty((windows, size, 2))
    formatter, filled = None, 0

    def chunk():
        nonlocal formatter
        # made once the first chunk is full, as late as the buffer
        formatter = formatter or g17.Formatter(values.size)
        formatter(values[:filled].reshape(-1), canvases[:2 * size * filled])
        rows[filled:] = 0   # past the rows of a short last chunk
        return memoryview(buffer.translate(None, b"\0"))[1:]   # without the first "\n"

    for k, times, states in itertools.chain([first], bursts):
        digits = str(k).encode()
        k_words = np.frombuffer(b"\n" + bytes(nk - len(digits)) + digits + b","
                                + bytes(8 * width - nk - 2), np.uint64)
        start = 0
        while start < len(times):
            part = slice(start, start + windows - filled)
            taken = len(times[part])
            np.bitwise_or(j_words, k_words, out=rows[filled:filled + taken, :, 0, :width])
            np.add(times[part, None], theta, out=values[filled:filled + taken, :, 0])
            values[filled:filled + taken, :, 1] = states[part]
            start, filled = start + taken, filled + taken
            if filled == windows:
                yield chunk()
                filled = 0
    if filled:
        yield chunk()


def cmd_solve(cfg: argparse.Namespace, bench) -> int:
    horizon = _horizon(cfg)
    grid, intervals, blocks = solve_blocks(bench.problem, cfg.N, cfg.M, cfg.order, horizon,
                                           store_steps=cfg.store_steps)
    header = _header_pairs(cfg, extra=[("columns_per_interval",
                                        _fmt((cfg.N + 1) * bench.problem.d))])
    _write_csv(cfg, header,
               ["interval", "node_index", "time", "component_index", "value"],
               _solve_lines(grid, bench.problem.d, intervals, blocks))
    return EXIT_OK


def cmd_multipliers(cfg: argparse.Namespace, bench) -> int:
    if not isinstance(bench.problem, LinearDDEProblem):
        raise ConfigError("field 'problem': multipliers need a linear periodic problem")
    if not 0 <= cfg.stability_tol < math.inf:
        raise ConfigError("field 'stability_tol': must be >= 0 and finite")
    result = monodromy(bench.problem, cfg.N, cfg.M, cfg.order)
    verdict = stability_verdict(result, cfg.stability_tol)
    dominant = abs(result.dominant)
    header = _header_pairs(cfg, extra=[
        ("stability_verdict", verdict),
        ("dominant_modulus", _fmt(dominant)),
    ])
    rows = [(rank, float(mu.real), float(mu.imag), float(abs(mu)))
            for rank, mu in enumerate(result.multipliers, start=1)]
    _write_csv(cfg, header, ["rank", "re", "im", "modulus"], _format_rows(rows))
    if cfg.out:
        print(f"stability: {verdict} (dominant modulus {dominant:.17g})")
    return EXIT_OK


def fitted_order(values, errors, floor: float = 0.0):
    """Least-squares slope of log(error) against log(1/value).

    Points at or below ``floor`` (already saturated at round-off or at
    the spectral floor) are dropped, keeping at least two points.
    """
    values = np.asarray(values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    keep = errors > floor
    if keep.sum() < 2:
        keep = np.ones_like(keep)
    safe = np.maximum(errors[keep], 1e-300)
    slope = np.polyfit(np.log(values[keep]), np.log(safe), 1)[0]
    return -float(slope)


def cmd_convergence(cfg: argparse.Namespace, bench) -> int:
    if (cfg.m_list is None) == (cfg.n_list is None):
        raise ConfigError("fields 'M-list'/'N-list': give exactly one of them")
    listed = cfg.m_list or cfg.n_list
    if len(listed) < 2:
        raise ConfigError(f"field '{'M' if cfg.m_list else 'N'}-list': fitting an order "
                          f"needs at least two values, got {_fmt(listed)}")
    if cfg.t_final is None:
        # without a horizon the study is of the multipliers of one period
        if not isinstance(bench.problem, LinearDDEProblem):
            raise ConfigError("field 'problem': a multiplier study (no --t-final) "
                              "needs a linear problem")
        if bench.reference_multiplier is None:
            raise ConfigError("field 'problem': no reference multiplier available")
        metric, reference = "multiplier", bench.reference_multiplier

        def error(N, M):
            # track the dominant multiplier against the reference; at coarse M
            # some other branch can sit accidentally closer to the reference,
            # which would hide the scheme's convergence order.  `dominant` is
            # one member of a complex pair, so it is compared with both.
            mu = monodromy(bench.problem, N, M, cfg.order).dominant
            return float(min(abs(mu - reference), abs(mu - reference.conjugate())))
    else:
        if bench.exact is None:
            raise ConfigError("field 'problem': no exact solution available; "
                              "leave out --t-final for a multiplier study")
        metric, horizon = "solution", _horizon(cfg)

        def error(N, M):
            trajectory = solve(bench.problem, N, M, cfg.order, horizon)
            return float(trajectory.mean_error(bench.exact))
    if not math.isfinite(cfg.slope_floor):
        raise ConfigError("field 'slope_floor': must be finite")

    if cfg.m_list is not None:
        label, points = "M", sorted(cfg.m_list)
        runs = [(cfg.N, M) for M in points]
    else:
        label, points = "N", sorted(cfg.n_list)
        runs = [(N, cfg.M) for N in points]
    errors = [error(N, M) for N, M in runs]

    rows = []
    for i, (point, err) in enumerate(zip(points, errors)):
        if i == 0 or errors[i - 1] <= 0 or err <= 0:
            local = float("nan")
        else:
            local = math.log(errors[i - 1] / err) / math.log(point / points[i - 1])
        rows.append((point, err, local))
    overall = fitted_order(points, errors, cfg.slope_floor)
    header = _header_pairs(cfg, extra=[("metric", metric),
                                       ("fitted_order", _fmt(overall))])
    _write_csv(cfg, header, [label, "error", "local_order"], _format_rows(rows))
    return EXIT_OK


def cmd_audit(cfg: argparse.Namespace, bench) -> int:
    if bench.conserved_total is None:
        raise ConfigError("field 'problem': conservation audit needs a "
                          "population-conserving model (e.g. sir)")
    horizon = _horizon(cfg)
    trajectory = solve(bench.problem, cfg.N, cfg.M, cfg.order, horizon)
    total = bench.conserved_total
    d = trajectory.d
    rows = []
    for k in range(1, len(trajectory.times)):
        blocks = trajectory.states[k].reshape(cfg.N + 1, d)
        totals = np.abs(blocks.sum(axis=1) - total)
        rows.append((k, float(trajectory.times[k]), float(totals.mean()),
                     float(totals[0]), float(blocks.min())))
    header = _header_pairs(cfg, extra=[("conserved_total", _fmt(total))])
    _write_csv(cfg, header,
               ["interval", "end_time", "mean_total_error",
                "boundary_total_error", "min_component"],
               _format_rows(rows))
    return EXIT_OK


# Each option once: its flag and its add_argument keywords.
_OPTIONS = {
    "--problem": dict(help="builtin problem name (example1, mathieu, nonlinear-scalar, sir)"),
    "--N": dict(type=int, help="collocation intervals (N+1 nodes)"),
    "--M": dict(type=int, help="Magnus steps per delay interval"),
    "--order": dict(type=int, help="integrator order: 2/4/6 linear, 2/3 quasilinear"),
    "--t-final": dict(type=float, help="integration horizon"),
    "--param": dict(action="append", metavar="KEY=VALUE",
                    help="problem parameter override (repeatable)"),
    "--out": dict(help="output CSV path (default: stdout)"),
    "--store-steps": dict(action="store_true", default=None,
                          help="emit every Magnus step, not just interval endpoints"),
    "--config": dict(help="key = value file mirroring these flags"),
    "--stability-tol": dict(type=float, help="half-width of the marginal band around |mu| = 1"),
    "--M-list": dict(dest="m_list", type=_parse_int_list,
                     help="comma-separated step counts, e.g. 4,8,16,32"),
    "--N-list": dict(dest="n_list", type=_parse_int_list, help="comma-separated node counts"),
    "--slope-floor": dict(type=float, help="ignore errors at/below this value when fitting"),
}
_SHARED = ("--problem", "--N", "--M", "--order", "--param", "--out", "--config")

# Each command: its function, its help line and the options it takes
# besides the shared ones; the header lines follow the shared options,
# then these.
_COMMANDS = {
    "solve": (cmd_solve, "integrate and dump node values",
              ("--t-final", "--store-steps")),
    "multipliers": (cmd_multipliers, "characteristic multipliers and stability verdict",
                    ("--stability-tol",)),
    "convergence": (cmd_convergence, "error table against M or N",
                    ("--t-final", "--M-list", "--N-list", "--slope-floor")),
    "audit": (cmd_audit, "per-interval conservation and positivity report", ("--t-final",)),
}


def build_parser():
    """The argument parser, and per command the parser action of each
    configuration key it takes, in the order of the header lines."""
    parser = argparse.ArgumentParser(
        prog="ddemagnus",
        description="Spectral-Magnus delay differential equation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    shared = [common.add_argument(flag, **_OPTIONS[flag]) for flag in _SHARED]
    options = {}
    for command, (_, help_line, own) in _COMMANDS.items():
        command_parser = sub.add_parser(command, parents=[common], help=help_line)
        actions = shared + [command_parser.add_argument(flag, **_OPTIONS[flag]) for flag in own]
        options[command] = {action.dest: action for action in actions
                            if action.dest not in ("param", "config")}
    return parser, options


def main(argv=None) -> int:
    parser, options = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args, options[args.command])
        bench = _build_benchmark(cfg)
        _fill_order(cfg, bench.problem)
        _validate_common(cfg)
        return _COMMANDS[cfg.command][0](cfg, bench)
    except (ConfigError, ValueError) as exc:
        # a ValueError here is an input check of solve or monodromy, such as
        # a horizon inside the breaking-point snap; stepping raises NumericalFailure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except BrokenPipeError:
        # the output is cut short; stdout goes to devnull so that the flush
        # at exit does not fail on the closed pipe again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
