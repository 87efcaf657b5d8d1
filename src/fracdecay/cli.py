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
                     FracdecayError, InadmissibleParams, NonpositivePrimitive,
                     PositivityLoss)
from .fracode import (SemilinearParams, TimeGrid, default_grading,
                      lemma_envelope, solve_semilinear)
from .nonlinear import (OPERATORS, SOURCES, OperatorSpec, SourceSpec,
                        SpatialGrid1D, predict_exponent, solve_nonlinear)
from .specfun import KilbasSaigoParams, kilbas_saigo, kilbas_saigo_bounds
from .spectral import CoefficientSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VIOLATION = 3
EXIT_DEGENERATE = 4
EXIT_NUMERIC = 5

# stderr prefix and exit status of each error family; the first family
# that matches wins, and every other toolkit error is a numeric failure
_ERRORS = (
    ((ConfigError, DomainError, InadmissibleParams, NonpositivePrimitive),
     "error", EXIT_CONFIG),
    ((DegenerateTrace, AmbiguousFit), "degenerate", EXIT_DEGENERATE),
    (PositivityLoss, "violation", EXIT_VIOLATION),
    (FracdecayError, "numeric failure", EXIT_NUMERIC),
)

# exit status of each decay verdict; None is a command that gives none
_VERDICT_EXIT = {None: EXIT_OK, "sandwich_ok": EXIT_OK,
                 "upper_only_ok": EXIT_OK, "violated": EXIT_VIOLATION,
                 "degenerate": EXIT_DEGENERATE}


def _emit(args, name, header, columns, verdict=None, *notes):
    """Write the CSV `name` under --out, print its path, verdict and notes
    tab-separated, and return the verdict's exit status."""
    path = io.write_csv_atomic(os.path.join(args.out or ".", name), header,
                               columns)
    print("\t".join(filter(None, (path, verdict, *notes))))
    return _VERDICT_EXIT[verdict]


def _floats(text):
    return tuple(float(v) for v in text.split(","))


def _geometry(text):
    """``--geometry`` value: interval[:L] or rectangle:Lx,Ly."""
    shape, colon, dims = text.partition(":")
    try:
        sizes = _floats(dims) if colon else (math.pi,)
    except ValueError:
        sizes = ()
    if (shape, len(sizes)) in (("interval", 1), ("rectangle", 2)):
        return shape, sizes
    raise argparse.ArgumentTypeError(
        f"geometry must be interval[:L] or rectangle:Lx,Ly, got {text!r}")


def _spectral_u0(sys_, text, seed):
    K = sys_.K
    if text in ("first_mode", "constant"):
        if text == "constant" and sys_.bc != "neumann":
            raise ConfigError("preset 'constant' needs Neumann conditions")
        u0k = np.zeros(K); u0k[0] = 1.0
        return u0k
    if text == "mean_zero":
        if K < 2:
            raise ConfigError("preset 'mean_zero' needs at least 2 modes")
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
    sub, sup = lemma_envelope(params, args.alpha)  # checks alpha first
    tr = solve_semilinear(params, args.alpha, grid)
    return _emit(args, "ode_trace.csv",
                 ["t", "H", "sub_envelope", "super_envelope"],
                 [tr.times, tr.values, sub(tr.times), sup(tr.times)])


def _build_eigensystem(args):
    shape, sizes = args.geometry
    if shape == "interval":
        return spectral.interval_eigensystem(sizes[0], args.bc, args.modes)
    return spectral.rectangle_eigensystem(sizes[0], sizes[1], args.bc,
                                          args.modes)


def _cmd_subdiffusion_solve(args):
    sys_ = _build_eigensystem(args)
    u0k = _spectral_u0(sys_, args.u0, args.seed)
    times = spectral.log_times(args.T)
    tr = spectral.solve_subdiffusion(sys_, args.alpha, args.beta, u0k, times)
    rep = spectral.verify_subdiffusion(tr, sys_, args.alpha, args.beta)
    return _emit(args, "subdiffusion_trace.csv",
                 ["t", "E", "bound_lower", "bound_upper"],
                 [times, tr.energies, rep.lower, rep.upper], rep.verdict)


def _cmd_heat_solve(args):
    sys_ = _build_eigensystem(args)
    u0k = _spectral_u0(sys_, args.u0, args.seed)
    # each coefficient kind reads only its own fields
    coeff = CoefficientSpec(kind=args.coeff_kind, kappa=args.kappa,
                            beta=args.beta, p=args.p, q=args.q, poly=args.poly)
    times = spectral.log_times(args.T)
    tr = spectral.solve_heat_general(sys_, coeff, u0k, times)
    return _emit(args, "heat_trace.csv",
                 ["t", "E", "bound_lower", "bound_upper"],
                 [times, tr.energies, *spectral.heat_bounds(tr, sys_, coeff)])


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


def _run_nonlinear(args):
    """One run as the header, columns, verdict and note `_emit` takes."""
    spec = OperatorSpec(kind=args.operator, p=args.p, m=args.m, q=args.q,
                        gamma=args.gamma)
    src = SourceSpec(kind=args.source, mu=args.mu)
    coeff = CoefficientSpec(kind="power", kappa=args.kappa, beta=args.beta)
    grid = SpatialGrid1D(args.L, args.points)
    grading = args.grading if args.grading else default_grading(args.alpha)
    tgrid = TimeGrid(args.T, args.steps, grading)
    u0 = _nonlinear_u0(grid, args.u0_preset, args.seed)
    tr = solve_nonlinear(spec, src, args.alpha, coeff, u0, grid, tgrid,
                         sweeps=2, keep_fields=False)
    s = predict_exponent(spec, args.alpha, args.beta)
    rep = decayfit.check_envelope(tr.times, tr.energies, s, two_sided=False)
    return (["t", "E", "predicted_bound"],
            [tr.times, tr.energies, rep.upper],
            rep.verdict, f"exponent={s:g}")


class _SweepParser(argparse.ArgumentParser):
    """Parses experiment-file entries; bad entries raise ConfigError."""

    def error(self, message):
        raise ConfigError(message)


def _cmd_nonlinear_solve(args):
    if not args.experiment:
        return _emit(args, "nonlinear_trace.csv", *_run_nonlinear(args))
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
            typed = {k: getattr(run, k) for k in point}
            tags = [f"{k}{v:g}" if isinstance(v, float) else f"{k}{v}"
                    for k, v in typed.items()]
            tag = "_" + "_".join([section] + tags)
            # {v:g} keeps 6 digits: refuse before any run starts
            if tag in jobs:
                raise ConfigError(f"[{section}] two grid points both write "
                                  f"nonlinear_trace{tag}.csv")
            jobs[tag] = run
    # every point runs before the first CSV is written, so a failed
    # sweep leaves no partial artifact set behind
    runs = {tag: _run_nonlinear(run) for tag, run in jobs.items()}
    return max((_emit(args, f"nonlinear_trace{tag}.csv", *run)
                for tag, run in runs.items()), default=EXIT_OK)


def _cmd_decay_fit(args):
    names, cols = io.read_csv_columns(args.input)
    if len(names) < 2:
        raise ConfigError(f"{args.input}: need at least two columns")
    t, e = cols[names[0]], cols[names[1]]
    if args.exponent is not None:
        rep = decayfit.check_envelope(t, e, args.exponent,
                                      two_sided=not args.one_sided,
                                      fit_window=args.window)
        print(f"verdict: {rep.verdict}")
        print(f"  fitted_exponent  {rep.fitted_exponent:.6g}")
        print(f"  window           [{rep.window[0]:.6g}, {rep.window[1]:.6g}]")
        for k in ("residual_rms", "envelope_lower", "envelope_upper"):
            print(f"  {k:<16} {getattr(rep, k):.6g}")
        print(f"  notes            {rep.notes}")
        return _VERDICT_EXIT[rep.verdict]
    fm = decayfit.fit_model_select(t, e, window=args.window)
    print(f"model: {fm.kind}")
    for k, v in fm.params.items():
        print(f"  {k:<16} {v:.6g}")
    print(f"  residual_rms     {fm.residual:.6g}")
    return EXIT_OK


def _cmd_reproduce(args):
    rows = reproduce.run_all(out_dir=args.out, profile=args.tolerance_profile)
    print(reproduce.format_table(rows))
    # a failed row is a violation of what it checks
    return _VERDICT_EXIT[None if all(r.passed for r in rows) else "violated"]


def _nonlinear_flags(s):
    s.add_argument("--operator", default="laplace", choices=OPERATORS)
    s.add_argument("--p", type=float, default=2.0)
    s.add_argument("--m", type=float, default=0.0)
    s.add_argument("--q", type=float, default=0.0)
    s.add_argument("--gamma", type=float, default=0.0)
    s.add_argument("--alpha", type=float, default=0.5)
    s.add_argument("--beta", type=float, default=0.5)
    s.add_argument("--kappa", type=float, default=1.0)
    s.add_argument("--source", default="none", choices=SOURCES)
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
    for name in ("--alpha", "--m", "--l", "--z"):
        s.add_argument(name, type=float, required=True)
    s.set_defaults(func=_cmd_specfun_eval)

    g = top.add_parser("ode").add_subparsers(dest="verb", required=True)
    s = g.add_parser("solve")
    for name in ("--alpha", "--beta", "--delta", "--nu", "--h0"):
        s.add_argument(name, type=float, required=True)
    s.add_argument("--T", type=float, default=100.0)
    s.add_argument("--steps", type=int, default=1024)
    s.add_argument("--grading", type=float, default=0.0)
    s.set_defaults(func=_cmd_ode_solve)

    def spectral_flags(s):
        s.add_argument("--beta", type=float, default=0.0)
        s.add_argument("--geometry", type=_geometry, default="interval")
        s.add_argument("--bc", choices=("dirichlet", "neumann"),
                       default="dirichlet")
        s.add_argument("--modes", type=int, default=16)
        s.add_argument("--u0", default="first_mode")
        s.add_argument("--T", type=float, default=1e3)

    g = top.add_parser("subdiffusion").add_subparsers(dest="verb",
                                                      required=True)
    s = g.add_parser("solve")
    spectral_flags(s)
    s.add_argument("--alpha", type=float, required=True)
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
    s.add_argument("--poly", type=_floats, default="1,1")
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
    except FracdecayError as exc:
        prefix, code = next((prefix, code) for family, prefix, code in _ERRORS
                            if isinstance(exc, family))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
