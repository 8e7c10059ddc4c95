"""In-memory span tracer that wraps confhydro's functions from outside.

``Tracer.install`` replaces each traced function with a timing wrapper in
every module namespace that binds it (the defining module, the package
``__init__`` and each module that imported it by name), so calls made
through any of those bindings are recorded.  Nothing under ``src/`` is
edited; ``uninstall`` puts the original objects back.

A span is one call: name, start, end, parent span and, for array
functions, the number of elements returned.  Spans are kept in flat
arrays and written out once, at the end of the run.
"""
from __future__ import annotations

import importlib
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

SPECIAL = (
    "laguerre_assoc",
    "laguerre_assoc_du",
    "laguerre_assoc_du2",
    "legendre_assoc",
    "legendre_assoc_dz",
    "legendre_assoc_dz2",
    "conf_laguerre",
    "conf_laguerre_rodrigues_oracle",
)
HYDROGEN = (
    "radial_wavefunction",
    "radial_with_derivatives",
    "u_with_derivatives",
    "angular_Y",
    "full_wavefunction",
    "probability_density_radial",
    "energy_level",
)
CALCULUS = ("conf_integral", "conf_derivative", "conf_second_derivative")
RESIDUALS = (
    "radial_ode_residual",
    "u_ode_residual",
    "laguerre_ode_residual",
    "angular_ode_residual",
)
REPORTS = ("normalization_report", "classical_limit_report", "run_verification")
CLI = ("cmd_energy", "cmd_density", "cmd_table", "cmd_verify", "cmd_slice")
NODE_BINDINGS = ("roots_laguerre", "roots_legendre")

# (module, functions, record points)
TARGETS = (
    ("special", SPECIAL, True),
    ("hydrogen", HYDROGEN, True),
    ("calculus", CALCULUS, False),
    ("verification", RESIDUALS, True),
    ("verification", REPORTS, False),
    ("cli", CLI, False),
)
PACKAGE = "confhydro"
BINDING_MODULES = ("", ".calculus", ".special", ".hydrogen", ".verification", ".cli")
NODES = "calculus.nodes"
# perf_counter readings are exact, but the sum of child durations can exceed
# the parent's duration by rounding in the subtractions
SELF_TOLERANCE_S = 1e-9


def _points(result) -> int:
    """Elements evaluated by an array function, read from what it returned."""
    if isinstance(result, (float, complex)):
        return 1
    if isinstance(result, tuple):
        result = result[0]
    size = getattr(result, "grid_size", None)  # ResidualReport
    if size is not None:
        return int(size)
    values = getattr(result, "values", None)  # DensityCurve
    if values is not None:
        return int(np.size(values))
    return int(np.size(result))


class Spans:
    """Flat, append-only span storage for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.points = array("q")
        self.failed = array("b")
        self.stack: list[int] = []
        self.keys: dict[str, set] = defaultdict(set)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.points.append(0)
        self.failed.append(0)
        self.stack.append(idx)
        return idx

    def close(self, idx: int, t0: float, failed: bool) -> None:
        t1 = perf_counter()
        self.stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1
        self.failed[idx] = failed

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one operation."""
        idx = self.open(self.name_id(name))
        failed = True
        t0 = perf_counter()
        try:
            yield
            failed = False
        finally:
            self.close(idx, t0, failed)

    def arrays(self) -> dict:
        return {
            "name": np.array(self.name, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int32),
            "points": np.array(self.points, dtype=np.int64),
            "failed": np.array(self.failed, dtype=np.int8),
        }


class Tracer:
    """Installs timing wrappers on confhydro's traced functions."""

    def __init__(self):
        self.spans = Spans()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, with_points: bool, key=None):
        spans = self.spans
        nid = spans.name_id(name)
        keys = spans.keys[name]

        def wrapper(*args, **kwargs):
            idx = spans.open(nid)
            if key is not None:
                keys.add(key(args))
            failed = True
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                spans.close(idx, t0, failed)
                if with_points and not failed:
                    spans.points[idx] = _points(result)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> "Tracer":
        modules = [importlib.import_module(PACKAGE + suffix) for suffix in BINDING_MODULES]
        wrappers = {}  # id(original) -> wrapper
        for mod_name, funcs, with_points in TARGETS:
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            for fname in funcs:
                fn = getattr(mod, fname)
                wrappers[id(fn)] = (fn, self._wrap(f"{mod_name}.{fname}", fn, with_points))
        calculus = importlib.import_module(f"{PACKAGE}.calculus")
        for fname in NODE_BINDINGS:
            fn = getattr(calculus, fname)
            w = self._wrap(NODES, fn, False, key=lambda args, f=fname: (f, args[0]))
            self._set(calculus, fname, w)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])
        return self

    def _set(self, mod, attr: str, value) -> None:
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _self_times(a: dict) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = a["end"] - a["start"]
    kids = a["parent"] >= 0
    child = np.bincount(a["parent"][kids], weights=dur[kids], minlength=len(dur))
    return dur - child


def summarize(spans: Spans) -> dict:
    """Per span name: calls, inclusive s, self_s, points, failed, distinct keys."""
    a = spans.arrays()
    dur = a["end"] - a["start"]
    self_s = _self_times(a)
    out = {}
    for nid, name in enumerate(spans.names):
        sel = a["name"] == nid
        out[name] = {
            "calls": int(np.count_nonzero(sel)),
            "s": float(np.sum(dur[sel])),
            "self_s": float(np.sum(self_s[sel])),
            "points": int(np.sum(a["points"][sel])),
            "failed": int(np.sum(a["failed"][sel])),
            "distinct": len(spans.keys.get(name, ())),
        }
    return out


def sanity_problems(spans: Spans) -> list[str]:
    """Structural checks: children inside parents, nonnegative self time."""
    a = spans.arrays()
    problems = []
    if spans.stack:
        problems.append(f"{len(spans.stack)} spans left open")
    kids = np.flatnonzero(a["parent"] >= 0)
    par = a["parent"][kids]
    outside = (a["start"][kids] < a["start"][par]) | (a["end"][kids] > a["end"][par])
    if np.any(outside):
        problems.append(f"{int(np.sum(outside))} child spans lie outside their parent")
    self_s = _self_times(a)
    if len(self_s) and np.min(self_s) < -SELF_TOLERANCE_S:
        problems.append(f"negative self time {np.min(self_s):.3e} s")
    return problems


def count_mismatches(first: Spans, second: Spans) -> list[str]:
    """Names whose call count or point total differs between two passes."""
    s1, s2 = summarize(first), summarize(second)
    problems = []
    for name in sorted(set(s1) | set(s2)):
        c1 = s1.get(name, {"calls": 0, "points": 0, "distinct": 0})
        c2 = s2.get(name, {"calls": 0, "points": 0, "distinct": 0})
        for kind in ("calls", "points", "distinct"):
            if c1[kind] != c2[kind]:
                problems.append(f"{name}.{kind}: {c1[kind]} vs {c2[kind]}")
    return problems


def save(path, passes: list[Spans]) -> None:
    """Write every pass's spans to one compressed .npz file."""
    payload = {}
    for i, spans in enumerate(passes):
        for field, values in spans.arrays().items():
            payload[f"pass{i}_{field}"] = values
        payload[f"pass{i}_names"] = np.array(spans.names)
    np.savez_compressed(path, **payload)


def layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []

    def add(prefix, funcs, kinds):
        for f in funcs:
            for kind in kinds:
                out.append((f"{prefix}.{f}.{kind}", *KIND_UNITS[kind]))

    add("special", SPECIAL, ("calls", "s", "points"))
    add("hydrogen", HYDROGEN, ("calls", "s", "self_s", "points"))
    add("calculus", CALCULUS, ("calls", "s", "self_s"))
    add("calculus", ("conf_integral",), ("failed",))
    add("calculus", ("nodes",), ("calls", "s", "distinct", "useful_ratio"))
    add("verification", RESIDUALS, ("calls", "s", "self_s", "points"))
    add("verification", REPORTS, ("calls", "s", "self_s"))
    add("cli", CLI, ("s", "self_s"))
    out.append(("cli.bytes_out", "bytes", "lower"))
    out.append(("cli.rows_out", "count", "lower"))
    for mod in IMPORTED:
        out.append((f"import.{mod}_s", "s", "lower"))
    out.append(("trace.overhead_s", "s", "lower"))
    return out


KIND_UNITS = {
    "calls": ("count", "lower"),
    "s": ("s", "lower"),
    "self_s": ("s", "lower"),
    "points": ("count", "lower"),
    "failed": ("count", "lower"),
    "distinct": ("count", "lower"),
    "useful_ratio": ("ratio", "higher"),
}
IMPORTED = ("confhydro", "scipy.special", "numpy")


def layer_values(summary: dict) -> dict:
    """Values of the span-derived per-layer metrics from ``summarize``."""
    values = {}
    for name, _, _ in layer_metrics():
        span, _, kind = name.rpartition(".")
        if span not in summary:
            continue  # counted outside the spans: output, imports, overhead
        s = summary[span]
        if kind == "useful_ratio":
            values[name] = s["distinct"] / s["calls"] if s["calls"] else 0.0
        else:
            values[name] = s[kind]
    return values
