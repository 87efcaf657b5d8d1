"""Set-up, timed pass and output checks of each workload.

Each workload has three functions, listed in PASSES: ``build_*`` turns the
generated numbers into program objects (timed as part of set-up), ``run_*``
is the timed pass, and ``check_*`` runs untimed after it: the workload's
fixed probe points against stored references, plus gates on the pass's own
outputs.  Program functions are always looked up as
module attributes at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
import tempfile

import numpy as np

from fracdecay import cli, decayfit, fracode, nonlinear, specfun, spectral
from fracdecay.errors import FracdecayError


class Tally:
    """Program operations attempted in a pass and the FracdecayErrors they
    raised.  A raising call yields None and the caller skips what needs it."""

    def __init__(self):
        self.ops = 0
        self.errors = {}

    def call(self, fn, *args, **kwargs):
        self.ops += 1
        try:
            return fn(*args, **kwargs)
        except FracdecayError as exc:
            name = type(exc).__name__
            self.errors[name] = self.errors.get(name, 0) + 1
            return None


class Checks:
    """Untimed outcome of one pass.

    A gate is a property the outputs must have.  A probe compares one output
    with a stored independent reference; it is gated at its tolerance, or,
    for a known defect (tolerance None), only measured: its error counts in
    max_rel_err and a FracdecayError it raises counts in `known_errors`.
    Failed gates make the run incorrect.
    """

    def __init__(self):
        self.count = 0
        self.failed = []
        self.known_errors = 0
        self.max_rel_err = 0.0

    def gate(self, name, ok):
        self.count += 1
        if not ok:
            self.failed.append(name)

    def probe(self, name, value, ref):
        if value is None:
            self.count += 1
            if ref["tol"] is None:
                self.known_errors += 1
            else:
                self.failed.append(name)
            return
        rel = abs(float(value) - ref["ref"]) / abs(ref["ref"])
        self.max_rel_err = max(self.max_rel_err, rel)
        self.gate(name, ref["tol"] is None or rel <= ref["tol"])


def _quiet(fn, *args):
    try:
        return fn(*args)
    except FracdecayError:
        return None


def _decays(values, slack=1e-9):
    v = np.asarray(values, dtype=float)
    return bool(np.all(np.isfinite(v)) and np.all(v >= 0.0)
                and v[-1] <= v[0] * (1.0 + slack))


# {{{ spectral_sweep


def _u0_dirichlet(dims, c):
    if len(dims) == 1:
        L = dims[0]
        return lambda x: x * (L - x) * (1.0 + c[0] * np.sin(math.pi * x / L))
    Lx, Ly = dims
    return lambda x, y: x * (Lx - x) * y * (Ly - y) * (1.0 + c[0] * x / Lx)


def _u0_neumann(dims, c):
    if len(dims) == 1:
        L = dims[0]
        # constant offset: the plateau branch of the Neumann dichotomy
        return lambda x: 1.0 + c[1] * np.cos(math.pi * x / L) \
            + c[2] * np.cos(2.0 * math.pi * x / L)
    Lx, Ly = dims
    return lambda x, y: np.cos(math.pi * x / Lx) + c[1] * np.cos(math.pi * y / Ly)


def build_spectral_sweep(inp):
    sets = []
    for ps in inp["param_sets"]:
        a, b = ps["alpha"], ps["beta"]
        params = specfun.KilbasSaigoParams(a, 1.0 + b / a, b / a)
        args = {band: [float(z) for z in zs] for band, zs in ps["args"].items()}
        sets.append({"params": params, "alpha": a, "m": 1.0 + b / a,
                     "args": args})
    cases = []
    for c in inp["cases"]:
        u0 = (_u0_dirichlet if c["bc"] == "dirichlet" else _u0_neumann)(
            c["dims"], c["shape_coeffs"])
        cases.append(dict(c, u0=u0))
    heat = []
    for h in inp["heat"]:
        kw = {k: tuple(v) if isinstance(v, list) else v
              for k, v in h.items() if k != "kind"}
        spec = spectral.CoefficientSpec(kind=h["kind"], **kw)
        short = h["kind"] in ("power", "exponential_rate", "tabulated")
        heat.append({"spec": spec, "short": short})
    return {"sets": sets, "cases": cases, "heat": heat,
            "heat_modes": inp["heat_modes"]}


def run_spectral_sweep(st, tally):
    out = {"sets": [], "cases": [], "heat": []}
    for s in st["sets"]:
        res = {}
        for band, zs in s["args"].items():
            res[band] = {
                "ks": [tally.call(specfun.kilbas_saigo_with_info, s["params"], z)
                       for z in zs],
                "bounds": [tally.call(specfun.kilbas_saigo_bounds, s["alpha"],
                                      s["m"], -z) for z in zs],
                "ml": [tally.call(specfun.mittag_leffler, s["alpha"], 1.0, z)
                       for z in zs],
            }
        out["sets"].append(res)

    for c in st["cases"]:
        if c["shape"] == "interval":
            sys_ = tally.call(spectral.interval_eigensystem, c["dims"][0],
                              c["bc"], c["modes"])
        else:
            sys_ = tally.call(spectral.rectangle_eigensystem, *c["dims"],
                              c["bc"], c["modes"])
        trace = None
        if sys_ is not None:
            u0k = tally.call(spectral.project_initial_data, sys_, c["u0"])
            times = tally.call(spectral.log_times, 1e3)
            if u0k is not None:
                trace = tally.call(spectral.solve_subdiffusion, sys_, c["alpha"],
                                   c["beta"], u0k, times)
        if trace is not None:
            if c["bc"] == "dirichlet":
                tally.call(spectral.verify_dirichlet_sandwich, trace, sys_,
                           c["alpha"], c["beta"])
            else:
                tally.call(spectral.verify_neumann, trace, sys_, c["alpha"],
                           c["beta"], float(u0k[0]), float(u0k[1]))
            tally.call(decayfit.fit_power_tail, trace.times, trace.energies)
        out["cases"].append(trace)

    sys_ = tally.call(spectral.interval_eigensystem, math.pi, "dirichlet",
                      st["heat_modes"])
    u0k = np.zeros(st["heat_modes"])
    u0k[0] = 1.0
    long_times = tally.call(spectral.log_times, 1e4, 1.0)
    short_times = tally.call(spectral.log_times, 10.0, 1e-2)
    for h in st["heat"]:
        times, window = (short_times, 1.0) if h["short"] else (long_times, 2.0)
        trace = tally.call(spectral.solve_heat_general, sys_, h["spec"], u0k,
                           times)
        if trace is not None:
            tally.call(decayfit.fit_model_select, times, trace.energies, window)
        out["heat"].append(trace)
    return out


def check_spectral_sweep(st, out, refs, checks):
    for i, (s, res) in enumerate(zip(st["sets"], out["sets"])):
        ok = True
        for band in res.values():
            for ks, b in zip(band["ks"], band["bounds"]):
                ok &= (ks is not None and b is not None
                       and math.isfinite(ks[0])
                       and b.lower - 1e-9 <= ks[0] <= b.upper + 1e-9)
        checks.gate(f"set{i}.kilbas-saigo-within-bounds", ok)
    for i, trace in enumerate(out["cases"]):
        checks.gate(f"case{i}.energy-decays",
                    trace is not None and _decays(trace.energies))
    for i, trace in enumerate(out["heat"]):
        checks.gate(f"heat{i}.energy-decays",
                    trace is not None and _decays(trace.energies, 1e-12))

    sub = [r for r in refs if r["kind"] == "subdiffusion"]
    for r in refs:
        name = f"{r['kind']}@{r['z'] if 'z' in r else r['t']}"
        if r["kind"] == "ks":
            p = specfun.KilbasSaigoParams(r["alpha"], r["m"], r["l"])
            got = _quiet(specfun.kilbas_saigo_with_info, p, r["z"])
            if got is not None and got[1]:
                r = dict(r, tol=None)   # flagged approximate: measured only
            checks.probe(name, None if got is None else got[0], r)
        elif r["kind"] == "ml":
            checks.probe(name, _quiet(specfun.mittag_leffler, r["alpha"],
                                      r["beta"], r["z"]), r)
    if sub:
        sys1 = spectral.interval_eigensystem(math.pi, "dirichlet", 1)
        times = np.array([r["t"] for r in sub])
        trace = _quiet(spectral.solve_subdiffusion, sys1, sub[0]["alpha"],
                       sub[0]["beta"], np.ones(1), times)
        for k, r in enumerate(sub):
            checks.probe(f"subdiffusion@{r['t']}",
                         None if trace is None else trace.energies[k], r)


# }}}


# {{{ fd_stepping


def _sine_mix(grid, modes, amplitude=1.0):
    x = grid.x * (math.pi / grid.length)
    return amplitude * sum(c * np.sin((j + 1) * x) for j, c in enumerate(modes))


def build_fd_stepping(inp):
    lin = inp["linear"]
    semi = inp["semilinear"]
    st = {
        "linear": (lin["alpha"], lin["beta"], lin["lam"], 1.0,
                   fracode.TimeGrid(lin["horizon"], lin["steps"], 3.0)),
        "semilinear": (fracode.SemilinearParams(semi["nu"], semi["delta"],
                                                semi["beta"], semi["H0"]),
                       semi["alpha"],
                       fracode.TimeGrid(semi["horizon"], semi["steps"], 3.0)),
        "shapes": {},
        "runs": [],
    }
    for name, s in inp["shapes"].items():
        grid = nonlinear.SpatialGrid1D(math.pi, s["points"])
        st["shapes"][name] = {
            "args": (nonlinear.OperatorSpec(kind="laplace"),
                     nonlinear.SourceSpec(), s["alpha"],
                     spectral.CoefficientSpec(kind="power", beta=s["beta"]),
                     _sine_mix(grid, s["modes"]), grid,
                     fracode.TimeGrid(10.0, s["steps"], 3.0)),
            "keep_fields": s["keep_fields"],
        }
    for r in inp["runs"]:
        grid = nonlinear.SpatialGrid1D(math.pi, r["shape"][0])
        st["runs"].append((
            nonlinear.OperatorSpec(**r["operator"]),
            nonlinear.SourceSpec(**r["source"]), r["alpha"],
            spectral.CoefficientSpec(kind="power", beta=r["beta"]),
            _sine_mix(grid, [1.0], r["amplitude"]), grid,
            fracode.TimeGrid(100.0, r["shape"][1],
                             fracode.default_grading(r["alpha"]))))
    return st


def run_fd_stepping(st, tally):
    out = {"linear": tally.call(fracode.solve_linear_mode, *st["linear"]),
           "semilinear": tally.call(fracode.solve_semilinear, *st["semilinear"]),
           "shapes": {}, "margins": None, "runs": []}
    for name, s in st["shapes"].items():
        trace = tally.call(nonlinear.solve_nonlinear, *s["args"], sweeps=1,
                           keep_fields=s["keep_fields"])
        out["shapes"][name] = trace
        if s["keep_fields"] and trace is not None:
            out["margins"] = tally.call(nonlinear.check_energy_inequality,
                                        trace, s["args"][2])
    for args in st["runs"]:
        out["runs"].append(tally.call(nonlinear.solve_nonlinear, *args,
                                      sweeps=2, keep_fields=False))
    return out


def check_fd_stepping(st, out, refs, checks):
    lin, semi = out["linear"], out["semilinear"]
    checks.gate("linear-mode-decays", lin is not None and _decays(lin.values))
    checks.gate("semilinear-decays", semi is not None and _decays(semi.values))
    for name, trace in out["shapes"].items():
        checks.gate(f"{name}.energy-decays",
                    trace is not None and _decays(trace.energies))
    checks.gate("discrete-energy-inequality", out["margins"] is not None
                and float(np.min(out["margins"])) >= -1e-8)
    for args, trace in zip(st["runs"], out["runs"]):
        checks.gate(f"{args[0].kind}+{args[1].kind}.energy-decays",
                    trace is not None and _decays(trace.energies))

    narrow = out["shapes"].get("narrow")
    for r in refs:
        source = {"linear_mode": lin, "fd_energy": narrow}[r["kind"]]
        value = None
        if source is not None:
            values = source.values if r["kind"] == "linear_mode" else source.energies
            j = round(r["fraction"] * (len(values) - 1))
            value = values[j]
        checks.probe(f"{r['kind']}@{r['t']}", value, r)


# }}}


# {{{ reproduce_strict


def build_reproduce_strict(inp):
    out_dir = tempfile.mkdtemp(prefix="reproduce-")
    return {"out_dir": out_dir,
            "argv": ["--out", out_dir, "--tolerance-profile", inp["profile"],
                     "reproduce"]}


def run_reproduce_strict(st, tally):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = tally.call(cli.main, st["argv"])
    return {"rc": rc, "table": buf.getvalue()}


def _csv_value(path, key, x, column):
    """Value in `column` of the CSV row whose `key` column equals x."""
    with open(path) as fh:
        names = fh.readline().strip().split(",")
        ik, ic = names.index(key), names.index(column)
        for line in fh:
            parts = line.split(",")
            if abs(float(parts[ik]) - x) <= 1e-12 * max(1.0, abs(x)):
                return float(parts[ic])
    return None


def check_reproduce_strict(st, out, refs, checks):
    checks.gate("exit-code", out["rc"] == 0)
    rows = [ln.split() for ln in out["table"].splitlines()[:-1]]
    checks.gate("at-least-twelve-rows", len(rows) >= 12)
    for row in rows:
        checks.gate(row[0], len(row) > 1 and row[1] == "PASS")
    for r in refs:
        path = os.path.join(st["out_dir"], r["file"])
        value = _csv_value(path, r["key"], r["x"], r["column"]) \
            if os.path.exists(path) else None
        checks.probe(f"{r['file']}:{r['column']}@{r['x']}", value, r)
    shutil.rmtree(st["out_dir"], ignore_errors=True)


# }}}


PASSES = {
    "spectral_sweep": (build_spectral_sweep, run_spectral_sweep,
                       check_spectral_sweep),
    "fd_stepping": (build_fd_stepping, run_fd_stepping, check_fd_stepping),
    "reproduce_strict": (build_reproduce_strict, run_reproduce_strict,
                         check_reproduce_strict),
}
