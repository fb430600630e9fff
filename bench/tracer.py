"""Outside-in tracer: spans around the ddemagnus functions each module calls.

A module calls a function through the name it imported, so the tracer
replaces that name (``ddemagnus.magnus_linear.expm``, not
``ddemagnus.linalg.expm``).  Each wrapped call appends a span
``[layer, start, end, parent, info]`` to an in-memory list; self time is
a span's duration minus its children's.  The program is single-threaded
(BLAS pinned to one thread), so spans nest strictly and nothing waits.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

# Degree thresholds of the Taylor scaling-and-squaring exponential
# (Bader, Blanes & Casas 2019, double precision), and the matrix products
# each degree's evaluation scheme costs.  Operation counts derived from
# them are labelled "computed": they model the scheme, they are not
# counted inside the program.
TAYLOR_THETA = ((1, 2.220446049250313e-16), (2, 2.580956802971767e-08),
                (4, 3.397168839976962e-04), (8, 4.991228871115323e-02),
                (12, 2.996158913811580e-01), (18, 1.090863719290036e+00))
TAYLOR_PRODUCTS = {1: 0, 2: 1, 4: 2, 8: 3, 12: 4, 18: 5}


def expm_plan(n: int, norm1: float):
    """(degree, squarings) the exponential uses for an n x n input, None for n = 1."""
    if n == 1:
        return None
    for degree, theta in TAYLOR_THETA:
        if norm1 <= theta:
            return degree, 0
    return 18, max(0, int(np.ceil(np.log2(norm1 / TAYLOR_THETA[-1][1]))))


def _shape(args, position):
    return np.shape(args[position])


# (module, attribute, layer, info) -- info maps the call's positional
# arguments to what the operation counts need.
TARGETS = (
    ("cli", "main", "cli", None),
    ("cli", "solve", "dde.driver", None),
    ("cli", "monodromy", "dde.driver", None),
    ("dde", "discretize", "dde.discretize", None),
    ("dde.DiscretizedSystem", "matrix_at", "dde.assemble", None),
    ("dde.DiscretizedSystem", "matrix_of_state", "dde.assemble", None),
    ("dde", "magnus_step", "magnus_linear.step", lambda a: _shape(a, 3)),
    ("dde", "magnus_step_matrix", "magnus_linear.step", lambda a: _shape(a, 3)),
    ("dde", "nonlinear_magnus_step", "magnus_nonlinear.step", None),
    ("magnus_linear", "expm", "linalg.expm",
     lambda a: (a[0].shape[0], float(np.abs(a[0]).sum(axis=0).max()))),
    ("magnus_nonlinear", "expm", "linalg.expm",
     lambda a: (a[0].shape[0], float(np.abs(a[0]).sum(axis=0).max()))),
    ("magnus_linear", "commutator", "linalg.commutator", lambda a: _shape(a, 0)),
    ("magnus_nonlinear", "commutator", "linalg.commutator", lambda a: _shape(a, 0)),
)


class Tracer:
    """Installs span-recording wrappers into a loaded ``ddemagnus`` and removes them."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.eigenvalue_calls = 0
        self.missing = []
        self._stack = []
        self._saved = []

    def wrap(self, layer, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [layer, clock(), 0.0, stack[-1] if stack else -1,
                    info(args) if info else None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        return traced

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _owner(self, dotted):
        obj = self.package
        for part in dotted.split("."):
            obj = getattr(obj, part, None)
        return obj

    def install(self):
        """Wrap every target the program still has; record the ones it lacks."""
        self.missing = []
        for dotted, attr, layer, info in TARGETS:
            owner = self._owner(dotted)
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{dotted}.{attr}")
                continue
            self._patch(owner, attr, self.wrap(layer, vars(owner)[attr], info))
        dde = self._owner("dde")
        if dde is not None and "eigenvalues" in vars(dde):
            eigenvalues = dde.eigenvalues

            def counted(*args, **kwargs):
                self.eigenvalue_calls += 1
                return eigenvalues(*args, **kwargs)
            self._patch(dde, "eigenvalues", counted)
        cli = self._owner("cli")
        if cli is not None and "builtin_problem" in vars(cli):
            build = cli.builtin_problem

            def traced_problem(*args, **kwargs):
                bench = build(*args, **kwargs)
                for name in ("A", "B"):
                    if callable(getattr(bench.problem, name, None)):
                        setattr(bench.problem, name,
                                self.wrap("models.coeff", getattr(bench.problem, name)))
                return bench
            self._patch(cli, "builtin_problem", traced_problem)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def reset(self):
        self.spans.clear()
        self.eigenvalue_calls = 0


# Per-layer self times that are reported; together they cover every span.
SELF_TIME_METRICS = {
    "models.coeff.self_s": ("models.coeff",),
    "dde.assemble.self_s": ("dde.assemble",),
    "dde.driver.self_s": ("dde.driver",),
    "dde.discretize_s": ("dde.discretize",),
    "magnus.step.self_s": ("magnus_linear.step", "magnus_nonlinear.step"),
    "linalg.expm.self_s": ("linalg.expm",),
    "linalg.commutator.self_s": ("linalg.commutator",),
    "cli.self_s": ("cli",),
}


def layer_metrics(spans, eigenvalue_calls: int) -> dict:
    """Per-layer counts, self times and computed operation counts of one call."""
    children = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for (layer, start, end, _, _), child in zip(spans, children):
        calls[layer] += 1
        self_s[layer] += end - start - child

    degrees = dict.fromkeys(TAYLOR_PRODUCTS, 0)
    squarings = matmuls = expm_flops = comm_flops = 0
    products = prop_flops = 0
    max_norm = 0.0
    for layer, _, _, parent, info in spans:
        if layer == "linalg.expm":
            n, norm = info
            max_norm = max(max_norm, norm)
            plan = expm_plan(n, norm)
            if plan is not None:
                degree, s = plan
                degrees[degree] += 1
                squarings += s
                matmuls += TAYLOR_PRODUCTS[degree] + s
                expm_flops += (TAYLOR_PRODUCTS[degree] + s) * 2 * n ** 3
            if parent >= 0 and spans[parent][0] == "magnus_nonlinear.step":
                products += 1           # the step applies each exponential to y
                prop_flops += 2 * n * n
        elif layer == "linalg.commutator":
            comm_flops += 2 * 2 * info[0] ** 3
        elif layer == "magnus_linear.step":
            n = info[0]
            columns = info[1] if len(info) > 1 else 1
            products += 1
            prop_flops += 2 * n * n * columns

    metrics = {name: sum(self_s[layer] for layer in layers)
               for name, layers in SELF_TIME_METRICS.items()}
    metrics.update({
        "dde.driver.total_s": sum(end - start for layer, start, end, _, _ in spans
                                  if layer == "dde.driver"),
        "models.coeff.calls": calls["models.coeff"],
        "dde.assemble.calls": calls["dde.assemble"],
        "magnus_linear.step.calls": calls["magnus_linear.step"],
        "magnus_nonlinear.step.calls": calls["magnus_nonlinear.step"],
        "magnus.propagation.products": products,
        "magnus.propagation.flops": prop_flops,
        "linalg.expm.calls": calls["linalg.expm"],
        "linalg.expm.squarings": squarings,
        "linalg.expm.max_norm1": max_norm,
        "linalg.expm.matmuls": matmuls,
        "linalg.expm.flops": expm_flops,
        "linalg.commutator.calls": calls["linalg.commutator"],
        "linalg.commutator.flops": comm_flops,
        "linalg.eigenvalues.calls": eigenvalue_calls,
    })
    for degree, count in degrees.items():
        metrics[f"linalg.expm.deg_hist.{degree}"] = count
    return metrics


def write_spans(spans, path) -> None:
    """One CSV row per span, times relative to the first span's start."""
    origin = spans[0][1] if spans else 0.0
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("index,layer,start_s,end_s,parent\n")
        for i, (layer, start, end, parent, _) in enumerate(spans):
            handle.write(f"{i},{layer},{start - origin:.9f},{end - origin:.9f},{parent}\n")
