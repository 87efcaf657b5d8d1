"""Command-line entry point.

Subcommands: specfun eval, ode solve, subdiffusion solve, heat solve,
nonlinear solve, decay fit, reproduce.  Exit codes: 0 ok, 2 config error,
3 scientific violation, 4 degenerate input, 5 internal numeric failure.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys

import numpy as np

from . import decayfit, io, reproduce, spectral
from .errors import (AmbiguousFit, ConfigError, DegenerateTrace, DomainError,
                     FracdecayError, InadmissibleParams, NonConvergence,
                     NonFiniteState, NonpositivePrimitive, PositivityLoss,
                     QuadratureUnderResolved, RootSolveFailure, StepDivergence)
from .fracode import (SemilinearParams, TimeGrid, default_grading,
                      lemma_envelope, solve_semilinear)
from .nonlinear import (OperatorSpec, SourceSpec, SpatialGrid1D,
                        predict_exponent, solve_nonlinear)
from .specfun import KilbasSaigoParams, kilbas_saigo, kilbas_saigo_bounds
from .spectral import CoefficientSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VIOLATION = 3
EXIT_DEGENERATE = 4
EXIT_NUMERIC = 5

_CONFIG_ERRORS = (ConfigError, DomainError, InadmissibleParams)
_NUMERIC_ERRORS = (NonConvergence, RootSolveFailure, NonFiniteState,
                   StepDivergence, QuadratureUnderResolved,
                   NonpositivePrimitive)


def _out_path(args, name):
    d = args.out or "."
    os.makedirs(d, exist_ok=True)
    return os.path.join(d, name)


def _parse_geometry(text):
    if ":" in text:
        shape, dims = text.split(":", 1)
        sizes = [float(v) for v in dims.split(",")]
    else:
        shape, sizes = text, [math.pi]
    if shape == "interval" and len(sizes) == 1:
        return ("interval", sizes)
    if shape == "rectangle" and len(sizes) == 2:
        return ("rectangle", sizes)
    raise ConfigError(f"geometry must be interval[:L] or rectangle:Lx,Ly, "
                      f"got {text!r}")


def _spectral_u0(sys_, text, seed):
    K = sys_.K
    if text in ("first_mode", "constant"):
        if text == "constant" and sys_.bc != "neumann":
            raise ConfigError("preset 'constant' needs Neumann conditions")
        u0k = np.zeros(K); u0k[0] = 1.0
        return u0k
    if text == "mean_zero":
        u0k = np.zeros(K); u0k[1] = 1.0
        if K > 3:
            u0k[3] = 0.5
        return u0k
    if text == "parabola":
        if len(sys_.geometry) != 1:
            raise ConfigError("preset 'parabola' is one-dimensional")
        L = sys_.geometry[0]
        return spectral.project_initial_data(sys_, lambda x: x * (L - x))
    if text == "random":
        rng = np.random.default_rng(seed)
        return rng.standard_normal(K) / (1.0 + np.arange(K))
    try:
        u0k = np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise ConfigError(f"unknown initial-data preset {text!r}") from None
    if len(u0k) != K:
        raise ConfigError(f"need {K} coefficients, got {len(u0k)}")
    return u0k


def _cmd_specfun_eval(args):
    p = KilbasSaigoParams(alpha=args.alpha, m=args.m, l=args.l)
    v = kilbas_saigo(p, args.z)
    if p.is_decay_form and args.z < 0:
        b = kilbas_saigo_bounds(args.alpha, args.m, -args.z)
        print("\t".join(io.format_value(x) for x in (v, b.lower, b.upper)))
    else:
        print(io.format_value(v))
    return EXIT_OK


def _cmd_ode_solve(args):
    params = SemilinearParams(nu=args.nu, delta=args.delta, beta=args.beta,
                              H0=args.h0)
    grading = args.grading if args.grading else default_grading(args.alpha)
    grid = TimeGrid(args.T, args.steps, grading)
    tr = solve_semilinear(params, args.alpha, grid)
    sub, sup = lemma_envelope(params, args.alpha)
    path = _out_path(args, "ode_trace.csv")
    io.write_csv_atomic(path, ["t", "H", "sub_envelope", "super_envelope"],
                        [tr.times, tr.values, sub(tr.times), sup(tr.times)])
    print(path)
    return EXIT_OK


def _build_eigensystem(args):
    shape, sizes = _parse_geometry(args.geometry)
    if shape == "interval":
        return spectral.interval_eigensystem(sizes[0], args.bc, args.modes)
    return spectral.rectangle_eigensystem(sizes[0], sizes[1], args.bc,
                                          args.modes)


def _cmd_subdiffusion_solve(args):
    sys_ = _build_eigensystem(args)
    u0k = _spectral_u0(sys_, args.u0, args.seed)
    times = spectral.log_times(args.T)
    tr = spectral.solve_subdiffusion(sys_, args.alpha, args.beta, u0k, times)
    if sys_.bc == "dirichlet":
        rep = spectral.verify_dirichlet_sandwich(tr, sys_, args.alpha,
                                                 args.beta)
        lam, level = sys_.lambdas[0], 0.0
    else:
        rep = spectral.verify_neumann(tr, sys_, args.alpha, args.beta,
                                      u0k[0], u0k[1])
        lam = sys_.lambdas[sys_.lambdas > 0][0]
        # with a conserved level the envelope constants bound E - |u00|
        level = abs(u0k[0]) if abs(u0k[0]) > spectral.NEUMANN_PLATEAU_TOL \
            else 0.0
    prof = 1.0 + lam * times ** (args.alpha + args.beta)
    lo = level + rep.envelope_lower / prof
    hi = level + rep.envelope_upper / prof
    path = _out_path(args, "subdiffusion_trace.csv")
    io.write_csv_atomic(path, ["t", "E", "bound_lower", "bound_upper"],
                        [times, tr.energies, lo, hi])
    print(f"{path}\t{rep.verdict}")
    return EXIT_OK if rep.verdict != "violated" else EXIT_VIOLATION


def _heat_coefficient(args):
    kind = args.coeff_kind
    if kind == "power":
        return CoefficientSpec(kind="power", kappa=args.kappa, beta=args.beta)
    if kind == "exponential_rate":
        return CoefficientSpec(kind="exponential_rate", beta=args.beta)
    if kind == "logarithmic":
        return CoefficientSpec(kind="logarithmic", p=args.p)
    if kind == "polynomial":
        poly = tuple(float(v) for v in args.poly.split(","))
        return CoefficientSpec(kind="polynomial", q=args.q, poly=poly)
    raise ConfigError(f"unknown coefficient kind {kind!r}")


def _cmd_heat_solve(args):
    sys_ = _build_eigensystem(args)
    u0k = _spectral_u0(sys_, args.u0, args.seed)
    coeff = _heat_coefficient(args)
    times = spectral.log_times(args.T)
    tr = spectral.solve_heat_general(sys_, coeff, u0k, times)
    # modal domination: |u01| e^{-lam1 A} <= E <= ||u0|| e^{-lam1 A}
    lam1 = sys_.lambdas[0]
    A = np.asarray(coeff.primitive(times), dtype=float)
    lo = abs(u0k[0]) * np.exp(-lam1 * A)
    hi = float(np.linalg.norm(u0k)) * np.exp(-lam1 * A)
    path = _out_path(args, "heat_trace.csv")
    io.write_csv_atomic(path, ["t", "E", "bound_lower", "bound_upper"],
                        [times, tr.energies, lo, hi])
    print(path)
    return EXIT_OK


def _nonlinear_u0(grid, text, seed):
    if text == "sine":
        return 0.5 * np.sin(math.pi * grid.x / grid.length)
    if text == "bump":
        c = grid.length / 2.0
        return np.exp(-((grid.x - c) / (grid.length / 8.0)) ** 2)
    if text == "random":
        rng = np.random.default_rng(seed)
        envelope = np.sin(math.pi * grid.x / grid.length)
        return envelope * (0.5 + 0.1 * rng.standard_normal(grid.interior))
    raise ConfigError(f"unknown initial-data preset {text!r}")


def _run_nonlinear_once(args, suffix="", created=None):
    spec = OperatorSpec(kind=args.operator, p=args.p, m=args.m, c0=1.0,
                        q=args.q, gamma=args.gamma)
    src = SourceSpec(kind=args.source, mu=args.mu) if args.source != "none" \
        else SourceSpec()
    coeff = CoefficientSpec(kind="power", kappa=args.kappa, beta=args.beta)
    if not coeff.satisfies_hypothesis(args.alpha):
        raise ConfigError(
            "coefficient lower bound needs kappa > 0 and beta > -alpha "
            f"(offending key: beta = {args.beta:g})"
        )
    grid = SpatialGrid1D(args.L, args.points)
    grading = args.grading if args.grading else default_grading(args.alpha)
    tgrid = TimeGrid(args.T, args.steps, grading)
    u0 = _nonlinear_u0(grid, args.u0_preset, args.seed)
    tr = solve_nonlinear(spec, src, args.alpha, coeff, u0, grid, tgrid,
                         sweeps=2, keep_fields=False)
    pe = predict_exponent(spec, args.alpha, args.beta)
    rep = decayfit.check_envelope(tr.times, tr.energies, pe.value,
                                  two_sided=False, predicted_tag=pe.tag)
    bound = rep.envelope_upper / (1.0 + tr.times ** pe.value)
    path = _out_path(args, f"nonlinear_trace{suffix}.csv")
    io.write_csv_atomic(path, ["t", "E", "predicted_bound"],
                        [tr.times, tr.energies, bound])
    if created is not None:
        created.append(path)
    print(f"{path}\t{rep.verdict}\texponent={pe.value:g}")
    return EXIT_OK if rep.verdict != "violated" else EXIT_VIOLATION


class _SweepParser(argparse.ArgumentParser):
    """Parses experiment-file entries; bad entries raise ConfigError."""

    def error(self, message):
        raise ConfigError(message)


def _cmd_nonlinear_solve(args):
    if not args.experiment:
        return _run_nonlinear_once(args)
    # entries are checked against the `nonlinear solve` flags themselves
    flags = _SweepParser(add_help=False, allow_abbrev=False)
    _nonlinear_flags(flags)
    flags.add_argument("--seed", type=int)
    jobs = {}
    for section, kv in io.parse_experiment_file(args.experiment).items():
        kv = {k.replace("-", "_"): v for k, v in kv.items()}
        grids = {k: v for k, v in kv.items() if isinstance(v, list)}
        for combo in itertools.product(*grids.values()):
            point = dict(zip(grids, combo))
            argv = [f"--{k.replace('_', '-')}={v}"
                    for k, v in {**kv, **point}.items()]
            try:
                run = flags.parse_args(argv, argparse.Namespace(**vars(args)))
            except ConfigError as exc:
                raise ConfigError(f"[{section}] {exc}") from None
            tags = [f"{k}{v:g}" if isinstance(v, float) else f"{k}{v}"
                    for k, v in point.items()]
            tag = "_" + "_".join([section] + tags)
            # {v:g} keeps 6 digits: refuse before any run starts
            if tag in jobs:
                raise ConfigError(f"[{section}] two grid points both write "
                                  f"nonlinear_trace{tag}.csv")
            jobs[tag] = run
    created = []
    try:
        codes = [_run_nonlinear_once(run, tag, created)
                 for tag, run in jobs.items()]
    except Exception:
        # a failed sweep leaves no partial artifact set behind
        for path in created:
            if os.path.exists(path):
                os.unlink(path)
        raise
    return max(codes) if codes else EXIT_OK


def _cmd_decay_fit(args):
    names, cols = io.read_csv_columns(args.input)
    if len(names) < 2:
        raise ConfigError(f"{args.input}: need at least two columns")
    t = cols[names[0]]
    e = cols[names[1]]
    if args.exponent is not None:
        rep = decayfit.check_envelope(t, e, args.exponent,
                                      two_sided=not args.one_sided,
                                      fit_window=args.window)
        print(f"verdict: {rep.verdict}")
        print(f"  fitted_exponent  {rep.fitted_exponent:.6g}")
        print(f"  window           [{rep.window[0]:.6g}, {rep.window[1]:.6g}]")
        print(f"  residual_rms     {rep.residual_rms:.6g}")
        print(f"  envelope_lower   {rep.envelope_lower:.6g}")
        print(f"  envelope_upper   {rep.envelope_upper:.6g}")
        print(f"  notes            {rep.notes}")
        if rep.verdict == "degenerate":
            return EXIT_DEGENERATE
        return EXIT_OK if rep.verdict in ("sandwich_ok", "upper_only_ok") \
            else EXIT_VIOLATION
    fm = decayfit.fit_model_select(t, e, window=args.window)
    print(f"model: {fm.kind}")
    for k, v in fm.params.items():
        print(f"  {k:<16} {v:.6g}")
    print(f"  residual_rms     {fm.residual:.6g}")
    return EXIT_OK


def _cmd_reproduce(args):
    rows = reproduce.run_all(out_dir=args.out, profile=args.tolerance_profile)
    print(reproduce.format_table(rows))
    return EXIT_OK if all(r.passed for r in rows) else EXIT_VIOLATION


def _nonlinear_flags(s):
    s.add_argument("--operator", default="laplace",
                   choices=("laplace", "p_laplace", "porous_medium",
                            "degenerate", "mean_curvature", "kirchhoff"))
    s.add_argument("--p", type=float, default=2.0)
    s.add_argument("--m", type=float, default=0.0)
    s.add_argument("--q", type=float, default=0.0)
    s.add_argument("--gamma", type=float, default=0.0)
    s.add_argument("--alpha", type=float, default=0.5)
    s.add_argument("--beta", type=float, default=0.5)
    s.add_argument("--kappa", type=float, default=1.0)
    s.add_argument("--source", default="none",
                   choices=("none", "fisher_kpp", "power_absorption"))
    s.add_argument("--mu", type=float, default=0.0)
    s.add_argument("--u0-preset", default="sine")
    s.add_argument("--L", type=float, default=math.pi)
    s.add_argument("--points", type=int, default=127)
    s.add_argument("--T", type=float, default=100.0)
    s.add_argument("--steps", type=int, default=1024)
    s.add_argument("--grading", type=float, default=0.0)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="fracdecay",
        description="Fractional-diffusion decay toolkit",
    )
    ap.add_argument("--out", default=None, help="output directory for CSVs")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--tolerance-profile", choices=("strict", "fast"),
                    default="strict")
    top = ap.add_subparsers(dest="group", required=True)

    g = top.add_parser("specfun").add_subparsers(dest="verb", required=True)
    s = g.add_parser("eval")
    s.add_argument("--alpha", type=float, required=True)
    s.add_argument("--m", type=float, required=True)
    s.add_argument("--l", type=float, required=True)
    s.add_argument("--z", type=float, required=True)
    s.set_defaults(func=_cmd_specfun_eval)

    g = top.add_parser("ode").add_subparsers(dest="verb", required=True)
    s = g.add_parser("solve")
    s.add_argument("--alpha", type=float, required=True)
    s.add_argument("--beta", type=float, required=True)
    s.add_argument("--delta", type=float, required=True)
    s.add_argument("--nu", type=float, required=True)
    s.add_argument("--h0", type=float, required=True)
    s.add_argument("--T", type=float, default=100.0)
    s.add_argument("--steps", type=int, default=1024)
    s.add_argument("--grading", type=float, default=0.0)
    s.set_defaults(func=_cmd_ode_solve)

    def spectral_flags(s):
        s.add_argument("--alpha", type=float, required=True)
        s.add_argument("--beta", type=float, default=0.0)
        s.add_argument("--geometry", default="interval")
        s.add_argument("--bc", choices=("dirichlet", "neumann"),
                       default="dirichlet")
        s.add_argument("--modes", type=int, default=16)
        s.add_argument("--u0", default="first_mode")
        s.add_argument("--T", type=float, default=1e3)

    g = top.add_parser("subdiffusion").add_subparsers(dest="verb",
                                                      required=True)
    s = g.add_parser("solve")
    spectral_flags(s)
    s.set_defaults(func=_cmd_subdiffusion_solve)

    g = top.add_parser("heat").add_subparsers(dest="verb", required=True)
    s = g.add_parser("solve")
    spectral_flags(s)
    s.add_argument("--coeff-kind", default="power",
                   choices=("power", "exponential_rate", "logarithmic",
                            "polynomial"))
    s.add_argument("--kappa", type=float, default=1.0)
    s.add_argument("--p", type=float, default=1.0)
    s.add_argument("--q", type=float, default=1.0)
    s.add_argument("--poly", default="1,1")
    s.set_defaults(func=_cmd_heat_solve)

    g = top.add_parser("nonlinear").add_subparsers(dest="verb", required=True)
    s = g.add_parser("solve")
    _nonlinear_flags(s)
    s.add_argument("--experiment", default=None,
                   help="key-value sweep file; list values form a grid")
    s.set_defaults(func=_cmd_nonlinear_solve)

    g = top.add_parser("decay").add_subparsers(dest="verb", required=True)
    s = g.add_parser("fit")
    s.add_argument("--input", required=True)
    s.add_argument("--window", type=float, default=2.0)
    s.add_argument("--exponent", type=float, default=None)
    s.add_argument("--one-sided", action="store_true")
    s.set_defaults(func=_cmd_decay_fit)

    s = top.add_parser("reproduce")
    s.set_defaults(func=_cmd_reproduce)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DegenerateTrace, AmbiguousFit) as exc:
        print(f"degenerate: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except PositivityLoss as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FracdecayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
