"""End-to-end verification matrix.

Each check exercises one pipeline (special function, scalar solver,
spectral solution, finite-difference solver, fitting) against a closed
form or a proved decay profile at desk scale, with pinned tolerances.
``run_all`` executes the whole matrix, optionally writing every trace as
CSV, and returns structured rows for the report table.
"""

from __future__ import annotations

import filecmp
import functools
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import decayfit, io, spectral
from .fracode import (SemilinearParams, TimeGrid, lemma_envelope,
                      solve_linear_mode, solve_semilinear)
from .nonlinear import (OperatorSpec, SourceSpec, SpatialGrid1D,
                        check_energy_inequality, predict_exponent,
                        solve_nonlinear)
from .specfun import (KilbasSaigoParams, SeriesAccuracy, kilbas_saigo,
                      kilbas_saigo_bounds)
from .spectral import CoefficientSpec

# tight series accuracy for identity checks at the 1e-10 level
TIGHT = SeriesAccuracy(abs_tol=1e-15, rel_tol=1e-14, max_terms=512)


@dataclass
class CriterionResult:
    label: str
    passed: bool
    detail: str
    artifacts: dict = field(default_factory=dict)  # name -> (header, columns)


def _res(label, passed, detail, artifacts=None):
    return CriterionResult(label, bool(passed), detail, artifacts or {})


# {{{ individual checks


def check_exponential_identity() -> CriterionResult:
    """E_{1,m,m-1}(z) = exp(z/m) on a 41-point grid, three m values."""
    zs = np.linspace(-5.0, 5.0, 41)
    worst = 0.0
    cols = {"z": zs}
    for m in (1.5, 2.0, 3.0):
        p = KilbasSaigoParams(alpha=1.0, m=m, l=m - 1.0)
        vals = np.array([kilbas_saigo(p, z, TIGHT) for z in zs])
        worst = max(worst, float(np.max(np.abs(vals - np.exp(zs / m)))))
        cols[f"m_{m:g}"] = vals
    return _res("kilbas-saigo-exponential-identity", worst <= 1e-10,
                f"max abs error {worst:.3e} (tol 1e-10)",
                {"specfun_identity": (list(cols), list(cols.values()))})


def check_bound_sandwich() -> CriterionResult:
    """Series value between the two-sided algebraic bounds, slack 1e-9."""
    rows = []
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
        for m in (1.5, 2.0, 5.0):
            p = KilbasSaigoParams(alpha=alpha, m=m, l=m - 1.0)
            for z in np.logspace(-3, 1, 30):
                b = kilbas_saigo_bounds(alpha, m, z)
                rows.append((alpha, m, z, kilbas_saigo(p, -z), b.lower, b.upper))
    worst = max(0.0, *(max(lo - v, v - hi) for *_, v, lo, hi in rows))
    art = {"specfun_bounds": (["alpha", "m", "z", "value", "lower", "upper"],
                              [list(col) for col in zip(*rows)])}
    return _res("kilbas-saigo-two-sided-bounds", worst <= 1e-9,
                f"max bound violation {worst:.3e} (slack 1e-9)", art)


@functools.lru_cache(maxsize=2)
def _decay_profile(steps):
    """E_{0.5,2,1}(-t) at the nodes t >= 0.1 of TimeGrid(10, steps, 3), the
    closed form of the L1 and the cross-solver check; evaluated once, as
    the first Dirichlet mode on (0, pi), lam_1 = 1, of the spectral solver."""
    t = TimeGrid(10.0, steps, 3.0).nodes
    sysD = spectral.interval_eigensystem(math.pi, "dirichlet", 1)
    tr = spectral.solve_subdiffusion(sysD, 0.5, 0.5, [1.0], t[t >= 0.1])
    return tuple(tr.coeffs[0])  # read-only


def check_l1_vs_closed_form(steps=4096) -> CriterionResult:
    """L1 mode solve against the exact Kilbas-Saigo decay profile, with
    the observed order from steps/8 to steps, which theory puts at
    min(r a, 2 - a) = 1.5 here."""
    exact = np.array(_decay_profile(steps))
    errs = []
    for k in (3, 2, 1, 0):
        # node j of steps/2^k is node 2^k j of steps, bit for bit
        tr = solve_linear_mode(0.5, 0.5, 1.0, 1.0,
                               TimeGrid(10.0, steps >> k, 3.0))
        mask = tr.times >= 0.1
        ref = exact[-1::-(1 << k)][::-1]  # the profile ends at t_steps
        errs.append(float(np.max(np.abs(tr.values[mask] - ref) / ref)))
    rel = errs[-1]
    orders = np.log2(np.divide(errs[:-1], errs[1:]))
    ok = rel <= 5e-3 and bool(np.all(np.abs(orders - 1.5) <= 0.1))
    art = {"l1_mode": (["t", "u", "exact"],
                       [tr.times[mask], tr.values[mask], exact])}
    return _res("l1-scheme-vs-closed-form", ok,
                f"max relative error {rel:.3e} for t >= 0.1 (tol 5e-3), "
                f"orders {', '.join(f'{p:.3f}' for p in orders)} from "
                f"steps/8 (1.5 +- 0.1)", art)


def check_dirichlet_sandwich() -> CriterionResult:
    """16-mode Dirichlet energy between its explicit modal bounds, with
    the tail exponent of `fit_power_tail`."""
    sysD = spectral.interval_eigensystem(math.pi, "dirichlet", 16)
    u0k = spectral.project_initial_data(sysD, lambda x: x * (math.pi - x))
    times = spectral.log_times(1e3, t_min=1e-2)
    tr = spectral.solve_subdiffusion(sysD, 0.5, 0.5, u0k, times)
    rep = spectral.verify_dirichlet_sandwich(tr, sysD, 0.5, 0.5)
    s = decayfit.fit_power_tail(times, tr.energies)[0]
    ok = rep.verdict == "sandwich_ok" and abs(s - 1.0) <= 0.05
    art = {"dirichlet_energy": (["t", "E", "bound_lower", "bound_upper"],
                                [times, tr.energies, rep.lower, rep.upper])}
    return _res("dirichlet-energy-sandwich",
                ok, f"{rep.verdict}, fitted exponent {s:.4f} "
                    f"(target 1 within 5%)", art)


def check_neumann_dichotomy() -> CriterionResult:
    """Constant data plateaus at |u00|; mean-zero data decays at lam2 rate."""
    sysN = spectral.interval_eigensystem(math.pi, "neumann", 16)
    times = spectral.log_times(1e3, t_min=1e-2)
    u0c = np.zeros(16); u0c[0] = 2.0
    trc = spectral.solve_subdiffusion(sysN, 0.5, 0.5, u0c, times)
    repc = spectral.verify_neumann(trc, sysN, 0.5, 0.5, u00=2.0, u01=0.0)
    plateau_dev = float(np.max(np.abs(trc.energies - 2.0))) / 2.0
    u0z = np.zeros(16); u0z[1] = 1.0; u0z[3] = 0.5
    trz = spectral.solve_subdiffusion(sysN, 0.5, 0.5, u0z, times)
    repz = spectral.verify_neumann(trz, sysN, 0.5, 0.5, u00=0.0, u01=1.0)
    ok = (repc.verdict in ("upper_only_ok", "sandwich_ok")
          and plateau_dev <= 0.01 and repz.verdict == "sandwich_ok")
    art = {"neumann_constant": (["t", "E"], [times, trc.energies]),
           "neumann_meanzero": (["t", "E"], [times, trz.energies])}
    return _res("neumann-plateau-vs-decay", ok,
                f"plateau deviation {plateau_dev:.2e} (tol 1e-2); "
                f"mean-zero verdict {repz.verdict}", art)


def check_heat_catalog() -> CriterionResult:
    """Model selection recovers the three closed-form heat decay laws."""
    sysD = spectral.interval_eigensystem(math.pi, "dirichlet", 8)
    lam1 = float(sysD.lambdas[0])
    u0k = np.zeros(8); u0k[0] = 1.0
    times = spectral.log_times(1e4, t_min=1.0)
    notes, ok = [], True

    # start near t = 0 so the reference level is the initial energy
    times_e = spectral.log_times(10.0, t_min=1e-2)
    coeff = CoefficientSpec(kind="exponential_rate", beta=2.0)
    tre = spectral.solve_heat_general(sysD, coeff, u0k, times_e)
    fm = decayfit.fit_model_select(times_e, tre.energies, window=1.0)
    rate = fm.params.get("rate", math.nan)  # A(t) = t^2, decay exp(-lam1 t^2)
    ok &= fm.kind == "exponential" and abs(rate - lam1) <= 0.05 * lam1 \
        and abs(fm.params.get("power", 0.0) - 2.0) <= 0.1
    notes.append(f"exponential: rate = {rate:.3f} vs lam1 = {lam1:g}")

    coeff = CoefficientSpec(kind="logarithmic", p=3.0 / lam1)
    tr = spectral.solve_heat_general(sysD, coeff, u0k, times)
    fm = decayfit.fit_model_select(times, tr.energies, window=2.0)
    pfit = fm.params.get("p", math.nan)
    ok &= fm.kind == "logarithmic" and abs(pfit - 3.0) <= 0.15
    notes.append(f"logarithmic: p*lam1 = {pfit:.3f} vs 3")
    e_log = tr.energies

    coeff = CoefficientSpec(kind="polynomial", q=1.0 / lam1, poly=(1.0, 1.0))
    tr = spectral.solve_heat_general(sysD, coeff, u0k, times)
    fm = decayfit.fit_model_select(times, tr.energies, window=2.0)
    sfit = fm.params.get("s", math.nan)
    ok &= fm.kind == "power" and abs(sfit - 1.0) <= 0.05
    notes.append(f"polynomial: exponent {sfit:.3f} vs 1")

    art = {"heat_exponential": (["t", "E"], [times_e, tre.energies]),
           "heat_catalog": (["t", "E_logarithmic", "E_polynomial"],
                            [times, e_log, tr.energies])}
    return _res("heat-coefficient-catalog", ok, "; ".join(notes), art)


def check_semilinear_sandwich(steps=2048) -> CriterionResult:
    """Scalar semilinear solve between the unscaled sub/super envelopes;
    its margins shrink like steps^-3, to 2.5e-12 (near the slack) at 32768."""
    params = SemilinearParams(nu=1.0, delta=2.0, beta=0.5, H0=1.0)
    grid = TimeGrid(100.0, steps, 3.0)
    tr = solve_semilinear(params, 0.5, grid)
    sub, sup = lemma_envelope(params, 0.5)
    v, lo, hi = tr.values[1:], sub(tr.times[1:]), sup(tr.times[1:])
    s_fit, _, _ = decayfit.fit_power_tail(tr.times, tr.values, window=1.5)
    target = (0.5 + 0.5) / 2.0
    ok = (np.all(lo <= v * (1 + 1e-12)) and np.all(v <= hi * (1 + 1e-12))
          and abs(s_fit - target) <= 0.1 * target)
    art = {"semilinear_mode": (["t", "H", "sub_envelope", "super_envelope"],
                               [tr.times, tr.values, sub(tr.times), sup(tr.times)])}
    return _res("semilinear-envelope-sandwich", ok,
                f"margins min H/sub - 1 = {np.min(v / lo) - 1.0:.2e}, "
                f"1 - max H/sup = {1.0 - np.max(v / hi):.2e}; fitted "
                f"exponent {s_fit:.4f} vs {target:g} (10%)", art)


_OPERATOR_CASES = (
    ("p_laplace", dict(kind="p_laplace", p=3.0)),
    ("porous_medium", dict(kind="porous_medium", m=1.0)),
    ("degenerate", dict(kind="degenerate", q=1.0)),
    ("mean_curvature", dict(kind="mean_curvature")),
    ("kirchhoff", dict(kind="kirchhoff", gamma=1.0, p=2.0)),
)


def _fd_run(spec, source, u0, points, steps, horizon, sweeps=2,
            keep_fields=True):
    """Run at alpha = beta = 0.5 on (0, pi); returns (trace, report), the
    report's predicted exponent s from `predict_exponent`."""
    grid = SpatialGrid1D(math.pi, points)
    coeff = CoefficientSpec(kind="power", kappa=1.0, beta=0.5)
    tr = solve_nonlinear(spec, source, 0.5, coeff, u0(grid), grid,
                         TimeGrid(horizon, steps, 3.0), sweeps=sweeps,
                         keep_fields=keep_fields)
    return tr, decayfit.check_envelope(tr.times, tr.energies,
                                       predict_exponent(spec, 0.5, 0.5),
                                       two_sided=False)


def run_operator_suite(points=255, steps=2048):
    """Shared runs behind the exponent-conformance and energy checks, as
    (name, trace, report); no run keeps its field history."""
    return [(name, *_fd_run(OperatorSpec(**kw), SourceSpec(),
                            lambda g: 0.5 * np.sin(g.x), points, steps, 100.0,
                            keep_fields=False))
            for name, kw in _OPERATOR_CASES]


def check_exponent_conformance(suite) -> CriterionResult:
    notes, ok = [], True
    art = {}
    for name, tr, rep in suite:
        ok &= rep.verdict == "upper_only_ok" and \
            math.isfinite(rep.envelope_upper) and rep.envelope_upper > 0
        notes.append(f"{name}: {rep.verdict} (s = {rep.predicted_exponent:g})")
        art[f"nonlinear_{name}"] = (["t", "E", "predicted_bound"],
                                    [tr.times, tr.energies, rep.upper])
    return _res("nonlinear-decay-exponents", ok, "; ".join(notes), art)


def check_energy_inequality_suite(suite) -> CriterionResult:
    worst = min(float(np.min(check_energy_inequality(tr, 0.5)))
                for _, tr, _ in suite)
    return _res("discrete-energy-inequality", worst >= -1e-8,
                f"min margin {worst:.3e} (tol -1e-8)")


def check_application_scenarios() -> CriterionResult:
    """Fisher-KPP stays in (0, 1]; both applications keep the upper envelope."""
    def u0(g):
        return 0.5 * np.sin(math.pi * g.x / g.length)
    trf, repf = _fd_run(OperatorSpec(kind="laplace"),
                        SourceSpec(kind="fisher_kpp"), u0, 127, 1024, 100.0)
    order_ok = float(np.min(trf.fields[1:])) > 0.0 \
        and float(np.max(trf.fields)) <= 1.0 + 1e-12
    # Lap |w|^m w in flux form has mobility (m+1)|w|^m, here m = 1
    trp, repp = _fd_run(OperatorSpec(kind="porous_medium", m=1.0, c0=2.0),
                        SourceSpec(kind="power_absorption", mu=1.0, p=2.0),
                        u0, 127, 1024, 1000.0)
    ok = order_ok and repf.verdict == "upper_only_ok" \
        and repp.verdict == "upper_only_ok"
    art = {"fisher_kpp": (["t", "E"], [trf.times, trf.energies]),
           "semilinear_pme": (["t", "E"], [trp.times, trp.energies])}
    return _res("application-scenarios", ok,
                f"population bounds {'held' if order_ok else 'violated'}; "
                f"fisher {repf.verdict}; porous-medium {repp.verdict}", art)


def check_cross_solver(points=511, steps=4096) -> CriterionResult:
    """Finite-difference Laplace run against the spectral closed form."""
    tr, _ = _fd_run(OperatorSpec(kind="laplace"), SourceSpec(),
                    lambda g: np.sin(g.x), points, steps, 10.0, sweeps=1,
                    keep_fields=False)
    mask = tr.times >= 0.1
    exact = math.sqrt(math.pi / 2.0) * np.abs(_decay_profile(steps))
    rel = float(np.max(np.abs(tr.energies[mask] - exact) / exact))
    art = {"cross_solver": (["t", "E_fd", "E_spectral"],
                            [tr.times[mask], tr.energies[mask], exact])}
    return _res("finite-difference-vs-spectral", rel <= 5e-3,
                f"max relative energy error {rel:.3e} for t >= 0.1 (tol 5e-3)",
                art)


def _determinism_artifacts():
    """Small representative pipeline used for the byte-identity check."""
    sysD = spectral.interval_eigensystem(math.pi, "dirichlet", 8)
    u0k = spectral.project_initial_data(sysD, lambda x: x * (math.pi - x))
    times = spectral.log_times(100.0, t_min=1e-2)
    tr = spectral.solve_subdiffusion(sysD, 0.5, 0.5, u0k, times)
    params = SemilinearParams(nu=1.0, delta=2.0, beta=0.5, H0=1.0)
    ode = solve_semilinear(params, 0.5, TimeGrid(100.0, 512, 3.0))
    return {"det_spectral": (["t", "E"], [times, tr.energies]),
            "det_ode": (["t", "H"], [ode.times, ode.values])}


def check_determinism() -> CriterionResult:
    """Recompute and rewrite a pipeline twice; outputs must match bytewise."""
    with tempfile.TemporaryDirectory(prefix="repro1_") as d1, \
            tempfile.TemporaryDirectory(prefix="repro2_") as d2:
        for d in (d1, d2):
            for name, (hdr, cols) in _determinism_artifacts().items():
                io.write_csv_atomic(os.path.join(d, name + ".csv"), hdr, cols)
        same = all(filecmp.cmp(os.path.join(d1, n), os.path.join(d2, n),
                               shallow=False) for n in os.listdir(d1))
    return _res("csv-byte-determinism", same,
                "repeated runs produce byte-identical CSVs" if same
                else "outputs differ between runs")


# }}}


def run_all(out_dir: str = None, profile: str = "strict"):
    """Execute the full matrix; returns the list of CriterionResult rows."""
    if profile not in ("strict", "fast"):
        raise ValueError("profile must be strict or fast")
    fast = profile == "fast"
    rows = [
        check_exponential_identity(),
        check_bound_sandwich(),
        check_l1_vs_closed_form(steps=1024 if fast else 4096),
        check_dirichlet_sandwich(),
        check_neumann_dichotomy(),
        check_heat_catalog(),
        check_semilinear_sandwich(steps=512 if fast else 2048),
    ]
    suite = run_operator_suite(points=127 if fast else 255,
                               steps=1024 if fast else 2048)
    rows.append(check_exponent_conformance(suite))
    rows.append(check_energy_inequality_suite(suite))
    rows.append(check_application_scenarios())
    rows.append(check_cross_solver(points=255 if fast else 511,
                                   steps=2048 if fast else 4096))
    rows.append(check_determinism())
    if out_dir is not None:
        for row in rows:
            for name, (hdr, cols) in row.artifacts.items():
                io.write_csv_atomic(os.path.join(out_dir, name + ".csv"),
                                    hdr, cols)
    return rows


def format_table(rows) -> str:
    width = max(len(r.label) for r in rows)
    lines = []
    for r in rows:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.label:<{width}}  {mark}  {r.detail}")
    n_ok = sum(r.passed for r in rows)
    lines.append(f"{n_ok}/{len(rows)} checks passed")
    return "\n".join(lines)
