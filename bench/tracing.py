"""Outside-in tracing of the squeezecert package for the benchmark.

A Tracer replaces every public function of the package's modules with a
wrapper that records a span (name, start, end, parent span, op id, self
time) and the counts the per-layer metrics need.  The package binds names
with ``from .domains import contains, ...``, so a wrapper must replace the
binding in every module that imported the function, not only in the module
that defines it; install() does that and uninstall() restores every binding.

``domains.contains`` runs 10^4 to 10^5 times per op, so it gets no span of
its own: its calls, points and time are aggregated on the enclosing span.
"""
from __future__ import annotations

import importlib
import inspect
import math
import sys
import time
from collections import defaultdict

import numpy as np

from metrics import KINDS, LAYERS

AGGREGATED = "domains.contains"


def layer_modules():
    """The traced modules, imported, keyed by layer name."""
    return {name: importlib.import_module(f"squeezecert.{name}") for name in LAYERS}


def public_functions(modules):
    """(qualified name, function) for every public function a layer defines."""
    found = []
    for layer, mod in modules.items():
        for attr, value in sorted(vars(mod).items()):
            if (not attr.startswith("_") and callable(value) and not isinstance(value, type)
                    and getattr(value, "__module__", None) == mod.__name__):
                found.append((f"{layer}.{attr}", value))
    return found


def _points(z):
    """Number of points in a batch of shape (..., n)."""
    return math.prod(np.shape(z)[:-1])


class Tracer:
    """Spans and counts recorded at the package's public-function boundaries."""

    def __init__(self):
        self.spans = []      # (id, name, start, end, parent id, op id, self_s, counts)
        self._stack = []     # open frames: [id, name, start, child_s, counts]
        self._bindings = []  # (module, attribute, original)
        self._next_id = 0
        self.op_id = None

    # -- installation -----------------------------------------------------------

    def install(self):
        """Wrap every public function and rebind it in every importing module."""
        modules = layer_modules()
        originals = {id(fn): (name, fn) for name, fn in public_functions(modules)}
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in originals.items()}
        holders = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "squeezecert" or k.startswith("squeezecert."))]
        for mod in holders:
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)][1] is value:
                    self._bindings.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])

    def uninstall(self):
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- wrappers -------------------------------------------------------------------

    def _wrap(self, name, fn):
        if name == AGGREGATED:
            return self._wrap_aggregated(fn)
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        signature = inspect.signature(fn) if before or after else None
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            counts = {}
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if before is not None:
                    before(bound.arguments, counts)
                    args, kwargs = bound.args, bound.kwargs
            frame = [self._next_id, name, 0.0, 0.0, counts]
            self._next_id += 1
            stack.append(frame)
            frame[2] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[3] += end - start
                self.spans.append((frame[0], name, start, end,
                                   None if parent is None else parent[0],
                                   self.op_id, end - start - frame[3], counts))
            if after is not None:
                after(bound.arguments, result, counts)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _wrap_aggregated(self, fn):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(d, z):
            start = clock()
            try:
                return fn(d, z)
            finally:
                spent = clock() - start
                if stack:
                    parent = stack[-1]
                    parent[3] += spent
                    c = parent[4]
                    pts = _points(z)
                    c["contains.calls"] = c.get("contains.calls", 0) + 1
                    c["contains.points"] = c.get("contains.points", 0) + pts
                    c["contains.s"] = c.get("contains.s", 0.0) + spent
                    key = f"contains.kind.{d.kind}"
                    c[key + ".points"] = c.get(key + ".points", 0) + pts
                    c[key + ".s"] = c.get(key + ".s", 0.0) + spent

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper


# -- counts taken at the call boundary ---------------------------------------------


def _before_inscribed(arguments, counts):
    """Wrap the oracle argument so its point count is measured where it is used."""
    oracle = arguments["oracle"]
    counts["rays"] = int(arguments["rays"])
    counts["oracle_points"] = 0

    def counted(y):
        counts["oracle_points"] += _points(y)
        return oracle(y)

    arguments["oracle"] = counted


def _after_ray_exit(arguments, result, counts):
    counts["rays"] = len(arguments["directions"])
    counts["kind"] = arguments["d"].kind


def _after_interior(arguments, result, counts):
    counts["points"] = int(arguments["count"])


def _after_samples(arguments, result, counts):
    counts["samples"] = int(result.samples)


def _after_match(arguments, result, counts):
    counts["matched"] = int(result is not None)


_BEFORE = {"bounds.inscribed_radius_estimate": _before_inscribed}
_AFTER = {
    "domains.ray_exit_batch": _after_ray_exit,
    "domains.interior_samples": _after_interior,
    "bounds.containment_check": _after_samples,
    "planar.tau_radius_check": _after_samples,
    "planar.rho_radius_check": _after_samples,
    "bounds.match_projection": _after_match,
}


# -- per-layer metrics ----------------------------------------------------------------


def layer_metrics(spans, ops, op_seconds):
    """Per-op per-layer metrics from recorded spans.

    Calls and inclusive times count entries from outside the function only,
    so recursion (image kinds recurse to their base) is not counted twice;
    self times sum over every span.  A kind's ray rate divides its rays by the
    full duration of its ray_exit_batch spans, since the membership calls
    beneath them are part of the kernel; its point rate uses contains time.
    Shares are inclusive times over `op_seconds`, the summed op latency, so
    nested layers overlap.
    """
    by_id = {s[0]: s for s in spans}
    calls = defaultdict(int)
    incl = defaultdict(float)
    self_s = defaultdict(float)
    counts = defaultdict(float)
    layer_self = defaultdict(float)
    ray_exit_calls_in_search = 0
    for sid, name, start, end, parent, _op, own, cnt in spans:
        layer_self[name.split(".")[0]] += own
        self_s[name] += own
        parent_name = by_id[parent][1] if parent is not None else None
        if parent_name != name:
            calls[name] += 1
            incl[name] += end - start
            for key, value in cnt.items():
                if not isinstance(value, str):
                    counts[f"{name}.{key}"] += value
        if name == "domains.ray_exit_batch":
            counts[f"rays.kind.{cnt['kind']}"] += cnt["rays"]
            counts[f"rays_s.kind.{cnt['kind']}"] += end - start
            if parent_name == "frame.min_boundary_point":
                ray_exit_calls_in_search += 1
        for key, value in cnt.items():
            if key.startswith("contains."):
                counts[key] += value
                if name == "domains.ray_exit_batch" and key == "contains.points":
                    counts["contains.points.under_ray_exit"] += value
    layer_self["domains"] += counts["contains.s"]

    per_op = 1.0 / max(ops, 1)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name, keys in _TABLE.items():
        for key in keys:
            if key == "calls":
                m[f"{name}.calls"] = calls[name] * per_op
            elif key == "s":
                m[f"{name}.s"] = incl[name] * per_op
            elif key == "self_s":
                m[f"{name}.self_s"] = self_s[name] * per_op
            else:
                m[f"{name}.{key}"] = counts[f"{name}.{key}"] * per_op
    m["domains.contains.calls"] = counts["contains.calls"] * per_op
    m["domains.contains.points"] = counts["contains.points"] * per_op
    m["domains.contains.self_s"] = counts["contains.s"] * per_op
    m["domains.oracle_points_per_ray"] = ratio(
        counts["contains.points.under_ray_exit"], counts["domains.ray_exit_batch.rays"])
    for kind in KINDS:
        m[f"domains.ray_exit_batch.rays_per_s.{kind}"] = ratio(
            counts[f"rays.kind.{kind}"], counts[f"rays_s.kind.{kind}"])
        m[f"domains.contains.points_per_s.{kind}"] = ratio(
            counts[f"contains.kind.{kind}.points"], counts[f"contains.kind.{kind}.s"])
    m["frame.min_boundary_point.ray_exit_calls"] = ratio(
        ray_exit_calls_in_search, calls["frame.min_boundary_point"])
    m["bounds.inscribed_points_per_ray"] = ratio(
        counts["bounds.inscribed_radius_estimate.oracle_points"],
        counts["bounds.inscribed_radius_estimate.rays"])
    m["bounds.match_projection.matched_ratio"] = ratio(
        counts["bounds.match_projection.matched"], calls["bounds.match_projection"])
    for name in ("domains.ray_exit_batch", "bounds.inscribed_radius_estimate",
                 "domains.convexity_spot_check"):
        m[f"{name}.share"] = ratio(incl[name], op_seconds)
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = layer_self[layer] * per_op
    m["trace.spans"] = len(spans) * per_op
    return m


# metrics taken per function: calls, inclusive seconds, self seconds, or a
# count recorded at the boundary
_TABLE = {
    "domains.ray_exit_batch": ("calls", "rays", "self_s"),
    "domains.convexity_spot_check": ("calls", "self_s"),
    "domains.boundary_residual": ("calls", "self_s"),
    "domains.interior_samples": ("points", "self_s"),
    "domains.tangent_functional": ("calls", "self_s"),
    "frame.build_frame": ("s",),
    "frame.min_boundary_point": ("calls", "s"),
    "frame.build_normalizer": ("s",),
    "bounds.inscribed_radius_estimate": ("calls", "rays", "s"),
    "bounds.containment_check": ("calls", "samples", "self_s"),
    "bounds.match_projection": ("calls", "s"),
    "bounds.report_to_json": ("s",),
    "bounds.certify": ("self_s",),
    "planar.tau_radius_check": ("samples", "s"),
    "planar.rho_radius_check": ("samples", "s"),
    "numerics.inverse_coefficients": ("calls", "s"),
    "numerics.count_inverse_monomials": ("s",),
    "verify.suite_star": ("s",),
    "verify.suite_lemmas": ("s",),
    "verify.kappa_probe": ("s",),
    "cli.main": ("self_s",),
}
