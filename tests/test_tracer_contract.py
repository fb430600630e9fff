"""The benchmark's tracer (bench/tracer.py) wraps functions by the names the
package binds them under; each of those names must stay bound, and the
calls of a run must reach the program through them."""

import importlib.util
from pathlib import Path

import pytest

import ddemagnus
import ddemagnus.cli  # noqa: F401  (the tracer wraps names in the cli module)

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound():
    tracer = load_tracer().Tracer(ddemagnus)
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()


# a step routed through an untraced name would zero its layer's count; a
# linear interval at n = 5 is one chunk, one magnus_step and one stacked expm
@pytest.mark.parametrize("argv, counts", [
    (["solve", "--problem", "example1", "--N", "4", "--M", "4", "--t-final", "20",
      "--store-steps"],
     {"magnus_linear.step.calls": 5, "linalg.expm.calls": 5}),
    (["multipliers", "--problem", "mathieu", "--N", "4", "--M", "4"],
     {"magnus_linear.step.calls": 1, "linalg.expm.calls": 1,
      "linalg.eigenvalues.calls": 1}),
    (["audit", "--problem", "sir", "--N", "4", "--M", "4", "--t-final", "2"],
     {"magnus_nonlinear.step.calls": 8, "linalg.expm.calls": 2}),
], ids=["solve", "multipliers", "audit"])
def test_traced_layers_count_the_steps_of_a_run(tmp_path, argv, counts):
    module = load_tracer()
    tracer = module.Tracer(ddemagnus)
    try:
        tracer.install()
        assert ddemagnus.cli.main(argv + ["--out", str(tmp_path / "out.csv")]) == 0
    finally:
        tracer.uninstall()
    metrics = module.layer_metrics(tracer.spans, tracer.eigenvalue_calls)
    assert {key: metrics[key] for key in counts} == counts
