"""Spans at the layer boundaries of fracdecay, recorded from outside it.

``Tracer.install`` wraps every public module-level function of the layer
modules and rebinds the wrapper wherever a fracdecay module holds that
function, so calls between layers go through it.  A call records one span
(id, parent id, run id, name, start ns, end ns, error, info) unless the
innermost open span belongs to the same layer: one span per layer crossing.
Thin wrappers and functions that only sequence other traced calls are
left unwrapped so that the calls they make are the recorded spans.  Spans stay
in memory; the worker writes them once, at exit.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import fmean

LAYERS = ("specfun", "spectral", "fracode", "nonlinear", "decayfit", "io",
          "reproduce")
UNWRAPPED = {"specfun.kilbas_saigo", "reproduce.run_all",
             "nonlinear.run_scenario", "io.format_value"}


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _band(z):
    z = abs(z)
    return "near" if z <= 1.0 else "mid" if z <= 10.0 else "deep"


def _ks_info(tracer, args, kwargs, result):
    p = _arg(args, kwargs, 0, "params")
    key = (p.alpha, p.m, p.l)
    cold = key not in tracer.seen_params
    tracer.seen_params.add(key)
    return {"band": _band(_arg(args, kwargs, 1, "z")), "cold": cold,
            "approx": bool(result is not None and result[1])}


def _nonlinear_info(tracer, args, kwargs, result):
    grid = _arg(args, kwargs, 5, "grid")
    tgrid = _arg(args, kwargs, 6, "tgrid")
    return {"operator": _arg(args, kwargs, 0, "spec").kind,
            "source": _arg(args, kwargs, 1, "source").kind,
            "M": grid.interior, "N": tgrid.steps,
            "sweeps": _arg(args, kwargs, 7, "sweeps", 1)}


def _csv_info(tracer, args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    columns = _arg(args, kwargs, 2, "columns")
    return {"rows": len(columns[0]),
            "bytes": os.path.getsize(path) if result is not None else 0}


def _row_info(tracer, args, kwargs, result):
    label = result.label if result is not None else "?"
    return {"label": label}


HOOKS = {
    "specfun.kilbas_saigo_with_info": _ks_info,
    "specfun.mittag_leffler":
        lambda t, a, k, r: {"band": _band(_arg(a, k, 2, "z"))},
    "spectral.solve_subdiffusion":
        lambda t, a, k, r: {"cells": a[0].K * len(_arg(a, k, 4, "times"))},
    "spectral.solve_heat_general":
        lambda t, a, k, r: {"cells": a[0].K * len(_arg(a, k, 3, "times"))},
    "fracode.solve_linear_mode":
        lambda t, a, k, r: {"N": _arg(a, k, 4, "grid").steps},
    "fracode.solve_semilinear":
        lambda t, a, k, r: {"N": _arg(a, k, 2, "grid").steps},
    "nonlinear.solve_nonlinear": _nonlinear_info,
    "io.write_csv_atomic": _csv_info,
    # the operator suite is shared by two rows; its time goes to the
    # exponent row, which it feeds first
    "reproduce.run_operator_suite":
        lambda t, a, k, r: {"label": "nonlinear-decay-exponents"},
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.seen_params = set()
        self.active = False
        self._stack = []
        self._next_id = 0

    def _open(self, layer):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, layer))
        return sid, parent

    @contextmanager
    def span(self, name, layer="bench"):
        """A span of the benchmark's own, e.g. around a whole pass."""
        sid, parent = self._open(layer)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, self.run_id, name, start, end,
                               None, None))

    def _wrap(self, layer, name, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            if not tracer.active or (stack and stack[-1][1] == layer):
                return fn(*args, **kwargs)
            sid, parent = tracer._open(layer)
            result = error = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                info = hook(tracer, args, kwargs, result) if hook else None
                tracer.spans.append((sid, parent, tracer.run_id, name, start,
                                     end, error, info))

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap the public functions of every layer and rebind the wrappers
        in every loaded fracdecay module."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"fracdecay.{layer}")
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNWRAPPED):
                    hook = HOOKS.get(name, _row_info if name.startswith(
                        "reproduce.check_") else None)
                    wrappers[obj] = self._wrap(layer, name, obj, hook)
        for modname, mod in list(sys.modules.items()):
            if modname == "fracdecay" or modname.startswith("fracdecay."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        setattr(mod, attr, wrappers[obj])

    def records(self):
        keys = ("id", "parent", "run", "name", "start_ns", "end_ns", "error",
                "info")
        return [dict(zip(keys, s)) for s in self.spans]


# {{{ per-layer metrics of one traced pass


def _classify(M, N):
    """Finite-difference shape class by aspect ratio: history-bound narrow
    (M/N < 1/16), solve-bound wide (M/N > 1), square otherwise."""
    r = M / N
    return "narrow" if r < 1.0 / 16.0 else "wide" if r > 1.0 else "square"


def layer_metrics(spans):
    """Per-layer metrics of one pass.  Counts are always reported (0 when a
    layer was not called); times only when the pass has samples of them."""
    by = defaultdict(list)
    for s in spans:
        by[s[3]].append(s)

    def dur(s):
        return (s[5] - s[4]) * 1e-9

    out = {}

    def put_mean(metric, group, scale):
        if group:
            out[metric] = fmean(dur(s) for s in group) * scale

    ks = by["specfun.kilbas_saigo_with_info"]
    out["specfun.ks_calls"] = len(ks)
    out["specfun.ks_approx_frac"] = \
        sum(s[7]["approx"] for s in ks) / len(ks) if ks else 0.0
    for band in ("near", "mid", "deep"):
        xs = [dur(s) for s in ks if s[7]["band"] == band and not s[7]["cold"]]
        if xs:
            out[f"specfun.ks_{band}_us"] = fmean(xs) * 1e6
    cold = [dur(s) for s in ks if s[7]["cold"]]
    if cold:
        out["specfun.ks_cold_ms"] = fmean(cold) * 1e3
    put_mean("specfun.ml_us", by["specfun.mittag_leffler"], 1e6)
    out["specfun.ml_failed"] = sum(s[6] is not None
                                   for s in by["specfun.mittag_leffler"])
    put_mean("specfun.bounds_us", by["specfun.kilbas_saigo_bounds"], 1e6)

    for kind in ("subdiffusion", "heat"):
        fn = "spectral.solve_subdiffusion" if kind == "subdiffusion" \
            else "spectral.solve_heat_general"
        cells = sum(s[7]["cells"] for s in by[fn])
        if cells:
            out[f"spectral.{kind}_us_per_mode_time"] = \
                sum(dur(s) for s in by[fn]) / cells * 1e6
    put_mean("spectral.project_ms", by["spectral.project_initial_data"], 1e3)
    put_mean("spectral.eigensystem_ms", by["spectral.interval_eigensystem"]
             + by["spectral.rectangle_eigensystem"], 1e3)
    put_mean("spectral.verify_ms", by["spectral.verify_dirichlet_sandwich"]
             + by["spectral.verify_neumann"], 1e3)

    lin = by["fracode.solve_linear_mode"]
    semi = by["fracode.solve_semilinear"]
    terms = lambda s: s[7]["N"] * (s[7]["N"] - 1) // 2  # noqa: E731
    out["fracode.history_terms"] = sum(terms(s) for s in lin + semi)
    if lin:
        out["fracode.linear_mode_s"] = sum(dur(s) for s in lin)
        out["fracode.ns_per_history_term"] = \
            sum(dur(s) for s in lin) / sum(terms(s) for s in lin) * 1e9
    if semi:
        out["fracode.semilinear_us_per_step"] = \
            sum(dur(s) for s in semi) / sum(s[7]["N"] for s in semi) * 1e6

    fd = by["nonlinear.solve_nonlinear"]
    shapes = defaultdict(lambda: [0.0, 0])
    kinds = defaultdict(float)
    for s in fd:
        i = s[7]
        if i["sweeps"] == 1:
            acc = shapes[_classify(i["M"], i["N"])]
            acc[0] += dur(s)
            acc[1] += i["M"] * i["N"]
        else:
            kinds[i["source"] if i["source"] != "none" else i["operator"]] += dur(s)
    for shape, (t, cells) in shapes.items():
        out[f"nonlinear.ns_per_cell_step.{shape}"] = t / cells * 1e9
    for kind, t in kinds.items():
        out[f"nonlinear.{kind}_s"] = t
    energy = by["nonlinear.check_energy_inequality"]
    if energy:
        out["nonlinear.energy_check_s"] = sum(dur(s) for s in energy)
    out["nonlinear.failed"] = sum(s[6] is not None for name, group in by.items()
                                  if name.startswith("nonlinear.") for s in group)
    out["nonlinear.history_bytes"] = max(
        (8 * s[7]["M"] * (2 * s[7]["N"] + 1) for s in fd), default=0)

    fits = [s for name, group in by.items() if name.startswith("decayfit.")
            for s in group]
    out["decayfit.calls"] = len(fits)
    out["decayfit.ambiguous"] = sum(s[6] == "AmbiguousFit" for s in fits)
    put_mean("decayfit.envelope_us", by["decayfit.check_envelope"], 1e6)
    put_mean("decayfit.select_us", by["decayfit.fit_model_select"], 1e6)

    csv = by["io.write_csv_atomic"]
    out["io.csv_bytes"] = sum(s[7]["bytes"] for s in csv)
    if csv:
        t = sum(dur(s) for s in csv)
        out["io.csv_ms"] = t * 1e3
        out["io.us_per_row"] = t / max(1, sum(s[7]["rows"] for s in csv)) * 1e6

    rows = defaultdict(float)
    for name, group in by.items():
        if name.startswith("reproduce."):
            for s in group:
                if s[7] is not None and "label" in s[7]:
                    rows[s[7]["label"]] += dur(s)
    for label, t in rows.items():
        out[f"reproduce.{label}_s"] = t
    out["trace.spans"] = len(spans)
    return out


# }}}
