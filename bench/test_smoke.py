"""Smoke test of the benchmark itself: every workload at N=4, M=4 in a few seconds.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench/test_smoke.py
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer

PACKAGE = run.load_program()

import workloads  # noqa: E402  (needs the program on sys.path)

CONFIG = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in CONFIG["workloads"]]


def tiny(spec, **changes):
    """The same command line at N=4, M=4, with no acceptance limit unless given."""
    flags = dict(spec.flags, **{"--N": "4", "--M": "4"})
    steps = spec.steps // int(spec.flags["--M"]) * 4
    return dataclasses.replace(spec, **{"flags": flags, "steps": steps, "accept": math.inf,
                                        **changes})


@pytest.fixture(autouse=True)
def one_setup_process(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def test_benchmark_json_names_every_workload():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(name, trace):
    spec = tiny(workloads.WORKLOADS[name])
    result = run.run_workload(PACKAGE, spec, seed=7, seconds=0.3, trace=bool(trace))
    specs = CONFIG["per_layer" if trace else "end_to_end"]
    line = run.report(result, specs)
    assert line["correct"], result["failures"]
    assert line["attempted"] >= 2 and line["failed"] == 0
    assert list(line["metrics"]) == [m["name"] for m in specs]
    for metric, declared in zip(line["metrics"].values(), specs):
        assert metric["unit"] == declared["unit"]
        assert math.isfinite(metric["value"])
    if trace:
        values = result["values"]
        # reported self times over the externally timed traced call
        assert abs(values["trace.coverage_frac"] - 1.0) <= 0.10
        assert values["magnus_linear.step.calls"] + values["magnus_nonlinear.step.calls"] \
            == spec.steps
        assert not result["trace_targets_missing"]
    else:
        assert line["metrics"]["ok_frac"]["value"] == 1.0


WRONG = {
    "scalar-long": dict(reference=lambda t: [math.exp(math.sin(t)) * math.cos(t) + 10.0]),
    "mathieu-floquet": dict(reference=workloads.MATHIEU_REFERENCE_MULTIPLIER + 10.0),
    "sir-audit": dict(accept=0.0),   # no reference multiplier; tighten the gate instead
}


@pytest.mark.parametrize("name", NAMES)
def test_gate_trips_on_a_wrong_reference(name):
    right = run.run_workload(PACKAGE, tiny(workloads.WORKLOADS[name]),
                             seed=3, seconds=0.1, trace=False)
    assert right["failed"] == 0
    accept = 2.0 * right["err_raw"]
    spec = tiny(workloads.WORKLOADS[name], **{"accept": accept, **WRONG[name]})
    result = run.run_workload(PACKAGE, spec, seed=3, seconds=0.1, trace=False)
    assert result["failed"] == result["attempted"] >= 2
    assert all("above acceptance value" in f for f in result["failures"])
    assert run.report(result, CONFIG["end_to_end"])["correct"] is False


def test_failed_gate_makes_the_command_exit_nonzero(monkeypatch, capsys):
    spec = tiny(workloads.WORKLOADS["sir-audit"], accept=0.0)
    monkeypatch.setitem(workloads.WORKLOADS, "sir-audit", spec)
    code = run.main(["--workload", "sir-audit", "--seed", "1", "--seconds", "0.1"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 1
    assert json.loads(out[-1])["correct"] is False
    assert any(line.strip().startswith("FAILED call 0") for line in out)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for path in Path(run.__file__).parent.glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "sir-audit",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_tail_has_ten_samples_beyond_it_from_21_samples_on():
    assert run.tail(list(range(1, 31))) == (20, 100.0 * 20 / 30, 10)
    assert run.tail(list(range(1, 22))) == (11, 100.0 * 11 / 21, 10)
    assert run.tail(list(range(1, 21))) == (11, 100.0 * 11 / 20, 9)   # upper median
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 100.0 * 2 / 3, 1)


def test_taylor_thresholds_match_the_program():
    assert tracer.TAYLOR_THETA == PACKAGE.linalg._TAYLOR_THETA
