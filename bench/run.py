"""Benchmark of the ddemagnus CLI: time to solution, accuracy gates, per-layer trace.

Run from the root of a checkout:

    python3 bench/run.py --workload scalar-long --seed 1 --seconds 35 --trace 0

Each workload is one ``ddemagnus`` command line, run in this process
through ``ddemagnus.cli.main``: one untimed warm-up call, then calls
back to back (a closed loop, one client) until ``--seconds`` have
passed.  Every call's CSV is checked.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` alternates untraced
and traced calls and reports the per-layer metrics.  The last line of
standard output is one JSON object; a full record, including the
environment, goes to ``.bench_out/``.  The exit code is 0 only when
every call passed.  See README.md in this directory.
"""

import os

# One BLAS thread: a plain single-threaded baseline, and reproducible
# digits (the Mathieu err changes in its 4th digit between 1 and 2
# threads).  This has to happen before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import gc
import glob
import hashlib
import io
import json
import math
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy as np

from tracer import SELF_TIME_METRICS, Tracer, layer_metrics, write_spans

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 15

SETUP_CODE = """\
import sys, time
start = time.perf_counter()
import ddemagnus
ddemagnus.discretize(ddemagnus.builtin_problem(sys.argv[1]).problem, int(sys.argv[2]))
print(repr(time.perf_counter() - start))
"""


def load_program(root: Path = ROOT):
    """Import ddemagnus (and its CLI) from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    if not (src / "ddemagnus" / "__init__.py").is_file():
        raise ImportError(f"no ddemagnus sources under {src}")
    sys.path.insert(0, str(src))
    import ddemagnus
    import ddemagnus.cli
    if Path(ddemagnus.__file__).resolve().parent != src / "ddemagnus":
        raise ImportError(f"ddemagnus was imported from {ddemagnus.__file__}, not {src}")
    return ddemagnus


def blas_info() -> dict:
    """BLAS vendor, version and live thread count (OpenBLAS queried through ctypes)."""
    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (AttributeError, KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs + [None]:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    info["threads"] = getter()
                    if config is not None:
                        config.restype = ctypes.c_char_p
                        info["config"] = config().decode()
                    return info
    info["threads"] = None
    return info


def environment(package) -> dict:
    """What the numbers depend on besides the code; src_sha256 identifies the code itself."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "ddemagnus": getattr(package, "__version__", None),
    }


def setup_sample(spec) -> float:
    """Seconds a fresh process takes to import ddemagnus and build the problem and grid."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, "-c", SETUP_CODE, spec.flags["--problem"], str(spec.N)]
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return float(done.stdout.split()[-1])


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def one_call(package, spec, argv, out: Path, tracer=None) -> dict:
    """Run one command line; time it, then check its output."""
    if out.exists():
        out.unlink()
    gc.collect()
    captured = io.StringIO()
    record = {"argv": argv, "traced": tracer is not None, "failure": None}
    code = None
    recorder = warnings.catch_warnings(record=True) if tracer else contextlib.nullcontext([])
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured), \
            recorder as caught:
        if tracer:
            warnings.simplefilter("always")
            tracer.reset()
            tracer.install()
        start = time.perf_counter()
        try:
            code = package.cli.main(argv)
        except Exception:
            record["failure"] = "exception: " + traceback.format_exc(limit=-3)
        record["seconds"] = time.perf_counter() - start
        if tracer:
            tracer.uninstall()
    if record["failure"] is None and code != 0:
        record["failure"] = f"exit code {code}: {captured.getvalue()[-500:]!r}"
    if record["failure"] is None:
        try:
            record["sha256"] = _sha256(out)
            record["bytes"] = out.stat().st_size
            err, problems = spec.check(spec, out)
        except (OSError, ValueError, IndexError) as exc:
            err, problems = math.inf, [f"unreadable output: {exc!r}"]
        record["err"] = err
        if not err <= spec.accept:
            problems.append(f"err {err!r} above acceptance value {spec.accept!r}")
        if problems:
            record["failure"] = "; ".join(problems)
    if tracer and record["failure"] is None:
        warning_class = getattr(package, "MagnusConvergenceWarning", Warning)
        record["layers"] = layer_metrics(tracer.spans, tracer.eigenvalue_calls)
        record["layers"]["magnus.convergence_warnings"] = sum(
            issubclass(w.category, warning_class) for w in caught)
        record["layers"]["cli.bytes_out"] = record["bytes"]
    return record


def tail(times) -> tuple:
    """(value, percentile, samples beyond) of the highest percentile with ten samples beyond it.

    Below 21 samples no such percentile lies above the median, so the
    tail falls back to the upper median.
    """
    ordered = sorted(times)
    beyond = min(10, (len(ordered) - 1) // 2)
    rank = len(ordered) - beyond
    return ordered[rank - 1], 100.0 * rank / len(ordered), beyond


def run_workload(package, spec, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for ``seconds`` and return the full result record."""
    rng = random.Random(seed)
    csv_dir = OUT_DIR / "csv"
    csv_dir.mkdir(parents=True, exist_ok=True)
    setup = []
    setup_target = 0 if trace else SETUP_REPEATS
    if setup_target:
        setup_sample(spec)                        # may compile bytecode: untimed
    tracer = Tracer(package) if trace else None
    calls, last_spans = [], []

    def call(traced: bool):
        out = csv_dir / f"{spec.name}-{len(calls) % 2}.csv"
        record = one_call(package, spec, spec.argv(out, rng), out, tracer if traced else None)
        if record["failure"] is None and calls and record["sha256"] != calls[0].get("sha256"):
            record["failure"] = "CSV differs from the first call's"
        calls.append(record)
        if traced:
            last_spans[:] = tracer.spans

    call(False)                                   # warm-up, untimed
    # Peak RSS through the first call: what one CLI invocation holds.  Later
    # calls can raise the process high-water mark through allocator history
    # (glibc's adaptive mmap threshold), which would make it bimodal.
    first_call_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    start = time.perf_counter()
    while time.perf_counter() < start + seconds:
        for traced in (rng.sample([False, True], 2) if trace else [False]):
            call(traced)
        # Setup samples are spread over the run: CPU speed on a shared host
        # drifts over seconds, and samples taken in one burst see one phase.
        due = setup_target * (time.perf_counter() - start) / seconds
        while len(setup) < min(due, setup_target):
            setup.append(setup_sample(spec))
    while len(setup) < setup_target:
        setup.append(setup_sample(spec))
    for path in csv_dir.glob(f"{spec.name}-*.csv"):
        path.unlink()

    timed = calls[1:]
    failures = [f"call {i}: {c['failure']}" for i, c in enumerate(calls) if c["failure"]]
    errs = [c["err"] for c in calls if "err" in c]
    values, notes = {}, {}
    if trace:
        plain = [c["seconds"] for c in timed if not c["traced"]]
        traced = [c for c in timed if c.get("layers")]
        for name in traced[0]["layers"] if traced else ():
            values[name] = statistics.median_low(c["layers"][name] for c in traced)
        if traced and plain:
            traced_s = statistics.median(c["seconds"] for c in timed if c["traced"])
            values["trace.overhead_frac"] = traced_s / statistics.median(plain) - 1.0
            values["trace.coverage_frac"] = statistics.median(
                sum(c["layers"][m] for m in SELF_TIME_METRICS) / c["seconds"] for c in traced)
            notes["traced_calls"] = len(traced)
        if last_spans:
            write_spans(last_spans, OUT_DIR / f"{spec.name}-seed{seed}-spans.csv")
    else:
        times = [c["seconds"] for c in timed]
        values["setup_s"] = statistics.median(setup)
        values["call_s"] = statistics.median(times)
        values["call_s.tail"], percentile, beyond = tail(times)
        values["steps_per_s"] = spec.steps / values["call_s"]
        if errs:
            values["err"] = max(max(errs), spec.err_floor)
        values["ok_frac"] = (len(calls) - len(failures)) / len(calls)
        values["peak_rss_mib"] = first_call_rss / 1024.0
        notes.update({"call_s.tail": f"p{percentile:.1f} of {len(times)} timed calls, "
                                     f"{beyond} beyond it",
                      "setup_s": f"median of {len(setup)} fresh processes"})
    return {
        "workload": spec.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "attempted": len(calls), "failed": len(failures), "failures": failures,
        "values": values, "notes": notes, "err_raw": max(errs) if errs else None,
        "setup_samples": setup, "call_seconds": [c["seconds"] for c in calls],
        "trace_targets_missing": tracer.missing if tracer else [],
        "argv_example": calls[0]["argv"],
    }


def report(result: dict, metric_specs: list) -> dict:
    """The result line: every metric BENCHMARK.json lists for this mode."""
    metrics = {}
    for spec in metric_specs:
        value = result["values"].get(spec["name"])
        if value is not None and not math.isfinite(value):
            value = None
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    correct = result["failed"] == 0 and all(m["value"] is not None for m in metrics.values())
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        package = load_program()
        config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (ImportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    result = run_workload(package, WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    result["environment"] = environment(package)
    line = report(result, config["per_layer" if args.trace else "end_to_end"])
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(dict(result, report=line), indent=1) + "\n", encoding="utf-8")

    blas = result["environment"]["blas"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{result['attempted']} calls (1 warm-up), {result['failed']} failed; "
          f"BLAS {blas.get('name')} {blas.get('version')}, {blas.get('threads')} thread(s)")
    for name, metric in line["metrics"].items():
        note = result["notes"].get(name, "")
        print(f"  {name:32s} {metric['value']!r:>24} {metric['unit']:6s} {note}")
    if result["err_raw"] is not None:
        print(f"  raw err (before the round-off floor) {result['err_raw']!r}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print(f"  record: {record.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
