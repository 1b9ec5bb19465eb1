"""Per-layer tracing of the qequil package from outside it.

The layers are the package modules. ``install`` replaces every public
function and public method of each module with a timing wrapper, under every
name in every qequil module that refers to it (modules bind each other's
functions with ``from .x import f``, so patching only the defining module
would miss calls). ``uninstall`` puts the originals back. Spans are
aggregated in memory as they close: per span, call count and self time; per
named group, the time and count of its outermost spans. A few counters are
computed from argument shapes; they are marked ``COMPUTED`` below.

The untraced child never imports this module, so it runs unwrapped.
"""
from __future__ import annotations

import functools
import importlib
import types
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "batteries", "constructions", "haar", "measure", "states",
          "averaging", "spectra", "bounds")

# Private names that still mark a layer boundary worth a span.
PRIVATE_SPANS = {"cli": ("_write_json", "_write_rows_csv")}

# ``cli.main`` is the root the benchmark itself times as ``wall_s``; leaving
# it unwrapped makes ``trace.coverage`` measure what the layer spans explain.
UNWRAPPED = {("cli", "main")}

# Lazily materialized dense matrices: property -> slot that caches it. The
# counter hook runs only when the getter actually builds the matrix.
LAZY_PROPERTIES = {("measure", "Projector", "matrix"): "_matrix",
                   ("states", "QuantumState", "rho"): "_rho"}

# Span groups: time of the outermost span in the group, and its call count.
GROUPS = {
    "measure.Measurement.residuals": ("residuals",),
    "measure.expectation_series": ("series",),
    "measure.distinguishability_series": ("series",),
    "averaging.lorentzian_state": ("lorentzian",),
    "averaging.lorentzian_purity": ("lorentzian",),
    "averaging.lorentzian_purity_product": ("lorentzian",),
    "spectra.max_window_probability": ("scan",),
    "spectra.max_window_probability_window": ("scan",),
    "constructions.snapshot_subspace": ("snapshot",),
    "cli._write_json": ("write",),
    "cli._write_rows_csv": ("write",),
    "averaging.TimeSeries.to_csv": ("write",),
}
GROUP_PREFIXES = {"haar.mc_": "mc", "bounds.": "bound"}

# Counted metrics that are computed from argument shapes rather than counted
# at the point where the work happens.
COMPUTED = ("measure.dense_bytes", "measure.series_elems",
            "states.dense_rho_bytes", "haar.qr_work")


class Tracer:
    """In-memory span aggregator; one per traced run."""

    def __init__(self):
        self._stack = []          # [key, start, child_seconds]
        self._group_depth = Counter()
        self._group_start = {}
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.group_s = defaultdict(float)
        self.group_calls = Counter()
        self.counts = Counter()
        self.top_s = 0.0          # time under any outermost span

    def enter(self, key, groups):
        now = perf_counter()
        for g in groups:
            if self._group_depth[g] == 0:
                self._group_start[g] = now
            self._group_depth[g] += 1
        self._stack.append([key, now, 0.0])

    def exit(self, groups):
        now = perf_counter()
        key, start, child = self._stack.pop()
        dur = now - start
        self.calls[key] += 1
        self.self_s[key] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        else:
            self.top_s += dur
        for g in groups:
            self._group_depth[g] -= 1
            if self._group_depth[g] == 0:
                self.group_s[g] += now - self._group_start[g]
                self.group_calls[g] += 1

    def layer_metrics(self, wall_s: float, artifact_bytes: int) -> dict:
        """Per-layer metric values of this run, keyed by metric name."""
        layer_self = defaultdict(float)
        for key, s in self.self_s.items():
            layer_self[key.split(".", 1)[0]] += s
        c, g, n = self.counts, self.group_s, self.calls
        out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
        out.update({
            "measure.residuals_s": g["residuals"],
            "measure.dense_builds": c["measure.dense_builds"],
            "measure.dense_bytes": c["measure.dense_bytes"],
            "measure.series_s": g["series"],
            "measure.series_calls": self.group_calls["series"],
            "measure.series_elems": c["measure.series_elems"],
            "states.dephase_calls": n["states.dephase"],
            "states.dense_rho_bytes": c["states.dense_rho_bytes"],
            "haar.mc_s": g["mc"],
            "haar.draws": n["haar.HaarSampler.frame"] + n["haar.HaarSampler.unitary"],
            "haar.qr_work": c["haar.qr_work"],
            "averaging.grid_points": c["averaging.grid_points"],
            "averaging.lorentzian_s": g["lorentzian"],
            "spectra.window_scans": self.group_calls["scan"],
            "spectra.validate_calls": n["spectra.validated_level_probs"],
            "batteries.rows": c["batteries.rows"],
            "constructions.snapshot_s": g["snapshot"],
            "bounds.calls": self.group_calls["bound"],
            "cli.write_s": g["write"],
            "cli.artifact_bytes": artifact_bytes,
            "trace.coverage": self.top_s / wall_s if wall_s > 0 else 0.0,
        })
        return out


# --- counters computed at call boundaries ---------------------------------

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _dense_build(counts, projector):
    counts["measure.dense_builds"] += 1
    counts["measure.dense_bytes"] += 16 * projector.dim ** 2


def _dense_rho(counts, state):
    counts["states.dense_rho_bytes"] += 16 * state.dim ** 2


def _series_elems(counts, args, kwargs):
    state = _arg(args, kwargs, 1, "state")
    per_time = state.dim if state.is_pure else state.dim ** 2
    counts["measure.series_elems"] += per_time * int(np.size(_arg(args, kwargs, 2, "times")))


def _state_init(counts, args, kwargs):
    if kwargs.get("rho") is not None:
        counts["states.dense_rho_bytes"] += 16 * _arg(args, kwargs, 1, "spectrum").dim ** 2


def _haar_draw(counts, args, kwargs):
    counts["haar.qr_work"] += args[0].sample_dim ** 3


def _grid_points(counts, args, kwargs):
    counts["averaging.grid_points"] += int(_arg(args, kwargs, 1, "grid").times.size)


def _battery_rows(counts, result):
    rows = getattr(result, "rows", None)
    if isinstance(rows, list):
        counts["batteries.rows"] += len(rows)


BEFORE = {
    "measure.Projector.complement_matrix": lambda c, a, k: _dense_build(c, a[0]),
    "measure.Projector.matrix": lambda c, a, k: _dense_build(c, a[0]),
    "states.QuantumState.rho": lambda c, a, k: _dense_rho(c, a[0]),
    "measure.expectation_series": _series_elems,
    "states.QuantumState.__init__": _state_init,
    "haar.HaarSampler.frame": _haar_draw,
    "haar.HaarSampler.unitary": _haar_draw,
    "averaging.time_average": _grid_points,
}
AFTER_PREFIXES = {"batteries.": _battery_rows}


def _groups(key):
    found = list(GROUPS.get(key, ()))
    found += [g for prefix, g in GROUP_PREFIXES.items() if key.startswith(prefix)]
    return tuple(found)


def _wrap_function(tracer, key, fn):
    groups = _groups(key)
    before = BEFORE.get(key)
    after = next((f for p, f in AFTER_PREFIXES.items() if key.startswith(p)), None)
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(counts, args, kwargs)
        tracer.enter(key, groups)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(groups)
        if after is not None:
            after(counts, result)
        return result

    wrapper.__perfbench_original__ = fn
    return wrapper


def _wrap_lazy_property(tracer, key, prop, slot):
    """Span and count only the calls that build the cached matrix."""
    fget = prop.fget
    traced = _wrap_function(tracer, key, fget)

    def getter(self):
        if getattr(self, slot) is not None:
            return fget(self)
        return traced(self)

    getter.__perfbench_original__ = fget
    return property(getter, prop.fset, prop.fdel, prop.__doc__)


def _modules():
    mods = {layer: importlib.import_module(f"qequil.{layer}") for layer in LAYERS}
    return mods, [importlib.import_module("qequil"), *mods.values()]


def _wants(layer, name, owner_is_class):
    if (layer, name) in UNWRAPPED:
        return False
    if owner_is_class:
        return not name.startswith("_") or name == "__init__"
    return not name.startswith("_") or name in PRIVATE_SPANS.get(layer, ())


def install(tracer):
    """Wrap every public function and method; return the patch list that
    ``uninstall`` reverses."""
    mods, all_mods = _modules()
    patches = []
    for layer, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, types.FunctionType) and _wants(layer, name, False):
                wrapper = _wrap_function(tracer, f"{layer}.{name}", obj)
                for holder, alias in _references(all_mods, obj):
                    patches.append((holder, alias, obj))
                    _set(holder, alias, wrapper)
            elif (isinstance(obj, type) and not name.startswith("_")
                  and not issubclass(obj, (tuple, BaseException))):
                patches += _install_class(tracer, layer, obj)
    return patches


def _holders(all_mods):
    """Every module namespace, and every module-level dict (registries such
    as ``cli.RUNNERS`` call through their own references)."""
    for mod in all_mods:
        yield mod, vars(mod)
        for name, value in list(vars(mod).items()):
            if isinstance(value, dict) and not name.startswith("__"):
                yield value, value


def _references(all_mods, obj):
    return [(holder, key) for holder, names in _holders(all_mods)
            for key, value in list(names.items()) if value is obj]


def _set(holder, key, value):
    if isinstance(holder, dict):
        holder[key] = value
    else:
        setattr(holder, key, value)


def _install_class(tracer, layer, cls):
    patches = []
    for attr, raw in list(vars(cls).items()):
        key = f"{layer}.{cls.__name__}.{attr}"
        slot = LAZY_PROPERTIES.get((layer, cls.__name__, attr))
        if isinstance(raw, property) and slot is not None:
            new = _wrap_lazy_property(tracer, key, raw, slot)
        elif not _wants(layer, attr, True):
            continue
        elif isinstance(raw, types.FunctionType):
            new = _wrap_function(tracer, key, raw)
        elif isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(_wrap_function(tracer, key, raw.__func__))
        else:
            continue
        patches.append((cls, attr, raw))
        setattr(cls, attr, new)
    return patches


def uninstall(patches):
    for owner, attr, original in reversed(patches):
        _set(owner, attr, original)


def leftover_wrappers() -> list:
    """Names in the qequil modules that still hold a tracing wrapper."""
    _, all_mods = _modules()
    found = []
    for _, names in _holders(all_mods):
        for name, obj in list(names.items()):
            if hasattr(obj, "__perfbench_original__"):
                found.append(name)
            if isinstance(obj, type) and obj.__module__.startswith("qequil"):
                for attr, raw in vars(obj).items():
                    inner = getattr(raw, "__func__", None) or getattr(raw, "fget", None) or raw
                    if hasattr(inner, "__perfbench_original__"):
                        found.append(f"{name}.{attr}")
    return found
