"""The benchmark's tracer (bench/tracer.py) wraps functions by the names the
package binds them under; each of those names must stay bound."""

import importlib.util
from pathlib import Path

import ddemagnus
import ddemagnus.cli  # noqa: F401  (the tracer wraps names in the cli module)

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_name_is_bound():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer(ddemagnus)
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()
