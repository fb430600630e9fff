"""The benchmark's workloads: ddemagnus CLI command lines plus the checks on their output.

Each workload is one command line run through ``ddemagnus.cli.main``.
The three were picked to load different layers (see README.md); the
sizes are fixed because every accuracy reference below belongs to them.
``ddemagnus`` must be importable (``run.load_program``) before this
module is imported.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ddemagnus import MATHIEU_REFERENCE_MULTIPLIER, builtin_problem


@dataclass(frozen=True)
class Workload:
    """One CLI command line and what a correct run of it must produce.

    ``flags`` maps each option to its value (None for a switch); ``--out``
    is added per call.  ``steps`` is the number of Magnus steps one call
    takes.  ``check`` reads a call's CSV and returns (err, problems);
    a call passes when ``problems`` is empty and ``err <= accept``.
    Errors below ``err_floor`` are round-off and are reported as the
    floor, so the metric's relative bound acts as an absolute one there.
    """

    name: str
    command: str
    flags: dict
    steps: int
    accept: float
    check: Callable[["Workload", Path], tuple]
    reference: object = None
    err_floor: float = 0.0

    @property
    def N(self) -> int:
        return int(self.flags["--N"])

    def argv(self, out: Path, rng) -> list:
        """Command line writing to ``out``; ``rng`` permutes the option order."""
        pairs = [[flag] if value is None else [flag, value]
                 for flag, value in self.flags.items()]
        pairs.append(["--out", str(out)])
        rng.shuffle(pairs)
        return [self.command] + [token for pair in pairs for token in pair]


def _data_rows(text: str) -> list:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return list(csv.reader(io.StringIO("\n".join(lines[1:]))))


def _tail_text(path: Path, size: int) -> str:
    with open(path, "rb") as handle:
        handle.seek(0, 2)
        handle.seek(max(0, handle.tell() - size))
        return handle.read().decode("utf-8")


def check_last_window(spec: Workload, path: Path):
    """Mean node error of the last stored window against the exact solution.

    Reads only the file's tail: the last window is the final N+1 rows
    (scalar problem), the same quantity as ``Trajectory.mean_error``.
    """
    rows = _tail_text(path, 200 * (spec.N + 1)).splitlines()[-(spec.N + 1):]
    window = list(csv.reader(rows))
    if [int(r[1]) for r in window] != list(range(spec.N + 1)):
        return math.inf, ["last window is not nodes 0..N of one step"]
    total = sum(abs(float(spec.reference(float(r[2]))[0]) - float(r[4])) for r in window)
    return total / len(window), []


def check_multiplier(spec: Workload, path: Path):
    """|mu_1 - reference| for the rank-1 multiplier."""
    rows = _data_rows(path.read_text(encoding="utf-8"))
    if not rows or rows[0][0] != "1":
        return math.inf, ["no rank-1 multiplier row"]
    mu = complex(float(rows[0][1]), float(rows[0][2]))
    return abs(mu - spec.reference), []


def check_audit(spec: Workload, path: Path):
    """Largest boundary total error; every component must stay nonnegative."""
    rows = _data_rows(path.read_text(encoding="utf-8"))
    if not rows:
        return math.inf, ["audit has no rows"]
    err = max(float(r[3]) for r in rows)
    low = min(float(r[4]) for r in rows)
    problems = [] if low >= 0.0 else [f"min_component {low!r} < 0"]
    return err, problems


WORKLOADS = {spec.name: spec for spec in (
    Workload(
        name="scalar-long",
        command="solve",
        flags={"--problem": "example1", "--N": "20", "--M": "64", "--order": "6",
               "--t-final": "314.159265358979", "--store-steps": None},
        steps=200 * 64,
        accept=1.1e-7,              # measured 1.072e-7 (acceptance criterion #4)
        check=check_last_window,
        reference=builtin_problem("example1").exact,
    ),
    Workload(
        name="mathieu-floquet",
        command="multipliers",
        flags={"--problem": "mathieu", "--N": "60", "--M": "128", "--order": "6"},
        steps=128,
        accept=2.5e-12,             # measured 2.254e-12 with one BLAS thread
        check=check_multiplier,
        reference=MATHIEU_REFERENCE_MULTIPLIER,
    ),
    Workload(
        name="sir-audit",
        command="audit",
        flags={"--problem": "sir", "--N": "20", "--M": "20", "--order": "3",
               "--t-final": "10"},
        steps=10 * 20,
        accept=1e-12,               # absolute; measured about 4e-14
        check=check_audit,
        err_floor=1e-13,
    ),
)}
