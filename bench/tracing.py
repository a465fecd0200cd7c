"""Per-layer tracing of normdesign from the benchmark's side.

``install`` replaces every binding of each traced function with a wrapper:
the defining module's attribute, every ``from ... import`` copy in the other
normdesign modules and the package namespace, and class attributes for
methods. A wrapper records one span per call. Spans are folded into
per-name totals as they close (``ring.mul`` alone closes hundreds of
thousands per sweep), and self time is a span's duration minus the time of
the traced spans it encloses.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from math import isqrt
from time import perf_counter

# Public functions wrapped, as <module>.<function> or <module>.<Class>.<method>.
TRACED = (
    "cli.run",
    "design.strength_profile",
    "theta.basis_shell_sums_upto",
    "theta.power_sums",
    "ring.mul",
    "arith.is_representable",
    "arith.factorize",
    "arith.is_prime",
    "shells.enumerate_shell",
    "theta.theta_series",
    "harmonic.BivarPoly.evaluate",
    "theta.format_rational",
    "theta.a_norm",
    "theta.hecke_verify",
)


@dataclass(frozen=True)
class Prediction:
    """One row of the layer -> end-to-end prediction table.

    ``busy`` workloads must record calls on every layer of the row: zero
    calls there means a wrapper missed a binding. On ``idle`` workloads the
    row should take ~0 of the traced time; the report flags it otherwise.
    """

    layers: tuple[str, ...]
    moves: tuple[str, ...]
    busy: tuple[str, ...]
    idle: tuple[str, ...]


PREDICTIONS = (
    Prediction(("theta.power_sums", "ring.mul"), ("work_per_s",), ("sweep",), ("theta",)),
    Prediction(("theta.basis_shell_sums_upto",), ("work_per_s",), ("sweep",), ("theta",)),
    Prediction(
        ("design.strength_profile", "cli.run"),
        ("work_per_s", "peak_rss_mb"),
        ("sweep",),
        (),
    ),
    Prediction(("arith.is_representable",), ("work_per_s",), ("sweep",), ("theta",)),
    Prediction(
        ("harmonic.BivarPoly.evaluate", "theta.theta_series"),
        ("work_per_s",),
        ("theta",),
        ("sweep", "large_norm"),
    ),
    # DesignReport.to_json_dict and the hecke report format witnesses too,
    # so format_rational is busy on every workload.
    Prediction(("theta.format_rational",), ("work_per_s",), ("theta",), ()),
    Prediction(
        ("shells.enumerate_shell",),
        ("call_p50_ms", "call_p90_ms"),
        ("large_norm",),
        ("theta",),
    ),
    Prediction(
        ("arith.factorize", "arith.is_prime", "theta.a_norm", "theta.hecke_verify"),
        ("call_p90_ms",),
        ("large_norm",),
        ("theta",),
    ),
)

# Per-layer metrics, each a mean over the run's traced passes: (name, unit).
LAYER_METRICS = (
    ("theta.power_sums.calls", "count"),
    ("theta.power_sums.self_s", "s"),
    ("theta.power_sums.point_degrees", "count"),
    ("ring.mul.calls", "count"),
    ("theta.basis_shell_sums_upto.self_s", "s"),
    ("design.strength_profile.calls", "count"),
    ("design.strength_profile.self_s", "s"),
    ("cli.run.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("arith.is_representable.calls", "count"),
    ("arith.is_representable.self_s", "s"),
    ("arith.is_representable.distinct_ratio", "ratio"),
    ("harmonic.BivarPoly.evaluate.calls", "count"),
    ("harmonic.BivarPoly.evaluate.self_s", "s"),
    ("theta.theta_series.self_s", "s"),
    ("theta.format_rational.calls", "count"),
    ("theta.format_rational.self_s", "s"),
    ("shells.enumerate_shell.calls", "count"),
    ("shells.enumerate_shell.self_s", "s"),
    ("shells.enumerate_shell.points", "count"),
    ("shells.y_steps", "count"),
    ("shells.enumerate_shell.distinct_ratio", "ratio"),
    ("arith.factorize.calls", "count"),
    ("arith.factorize.self_s", "s"),
    ("arith.is_prime.calls", "count"),
    ("arith.is_prime.self_s", "s"),
    ("theta.a_norm.calls", "count"),
    ("theta.hecke_verify.self_s", "s"),
    ("bench.trace_overhead_s", "s"),
)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _y_steps(D: int, r: int) -> int:
    """Rows of the O(sqrt r) scan that enumerate_shell makes for (D, r)."""
    if r == 0:
        return 0
    return 2 * isqrt((r if D % 4 in (1, 2) else 4 * r) // D) + 1


class Tracer:
    """Span totals per traced name, plus the counters measured at the same calls."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {
            "theta.power_sums.point_degrees": 0,
            "shells.enumerate_shell.points": 0,
            "shells.y_steps": 0,
            "cli.output_bytes": 0,
        }
        self.distinct: dict[str, set] = {
            "arith.is_representable": set(),
            "shells.enumerate_shell": set(),
        }
        # Time of closed child spans, one slot per open span plus the root.
        self._child_time = [0.0]
        self.hooks = {
            "theta.power_sums": self._on_power_sums,
            "shells.enumerate_shell": self._on_enumerate_shell,
            "arith.is_representable": self._on_is_representable,
        }

    def _on_power_sums(self, args, kwargs, result) -> None:
        shell = _arg(args, kwargs, 0, "shell")
        self.counters["theta.power_sums.point_degrees"] += len(shell.points) * len(result)

    def _on_enumerate_shell(self, args, kwargs, result) -> None:
        self.counters["shells.enumerate_shell.points"] += len(result.points)
        self.counters["shells.y_steps"] += _y_steps(result.D, result.r)
        self.distinct["shells.enumerate_shell"].add((result.D, result.r))

    def _on_is_representable(self, args, kwargs, result) -> None:
        key = (_arg(args, kwargs, 0, "D"), _arg(args, kwargs, 1, "r"))
        self.distinct["arith.is_representable"].add(key)

    def wrap(self, name: str, fn):
        totals = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._child_time
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                stack[-1] += elapsed
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - children
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def snapshot(self) -> dict:
        spans = {
            name: {"calls": c, "total_s": t, "self_s": s}
            for name, (c, t, s) in self.spans.items()
        }
        return {
            "spans": spans,
            "counters": dict(self.counters),
            "distinct": {name: len(keys) for name, keys in self.distinct.items()},
        }


def layer_metrics(snapshots: list[dict], overhead_s: float) -> dict[str, float]:
    """Every LAYER_METRICS value, averaged over the traced passes."""
    n = len(snapshots)
    out = {}
    for metric, _ in LAYER_METRICS:
        if metric == "bench.trace_overhead_s":
            value = overhead_s
        elif metric in snapshots[0]["counters"]:
            value = sum(s["counters"][metric] for s in snapshots) / n
        elif metric.endswith(".distinct_ratio"):
            name = metric.removesuffix(".distinct_ratio")
            ratios = []
            for s in snapshots:
                calls = s["spans"].get(name, {}).get("calls", 0)
                ratios.append(s["distinct"][name] / calls if calls else 0.0)
            value = sum(ratios) / n
        else:
            name, field = metric.rsplit(".", 1)
            value = sum(s["spans"].get(name, {}).get(field, 0) for s in snapshots) / n
        out[metric] = value
    return out


def _bindings(modules):
    """Every (namespace, attribute, value) in the package's modules and classes."""
    for module in modules:
        namespaces = [module]
        namespaces += [
            v
            for v in vars(module).values()
            if isinstance(v, type) and v.__module__.startswith("normdesign")
        ]
        for space in namespaces:
            for attr, value in list(vars(space).items()):
                yield space, attr, value


def install(tracer: Tracer) -> None:
    """Wrap every binding of each traced function.

    A traced name the package no longer has is skipped; its metrics read 0.
    References held elsewhere than module or class attributes (in a dict,
    a closure, a default argument) are not found; the busy-layer check in
    run.py catches a layer that goes dark that way.
    """
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "normdesign"]
    # id(original) -> (original, wrapper); holding the original keeps its id.
    wrappers = {}
    for name in TRACED:
        module_name, *path = name.split(".")
        obj = sys.modules.get(f"normdesign.{module_name}")
        for part in path:
            obj = vars(obj).get(part) if obj is not None else None
        if callable(obj):
            wrappers[id(obj)] = (obj, tracer.wrap(name, obj))
    for space, attr, value in _bindings(modules):
        if id(value) in wrappers:
            setattr(space, attr, wrappers[id(value)][1])
