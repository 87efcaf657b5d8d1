"""Regenerate references.json: the fixed probe points of every workload and
their reference values from mpmath power series summed at a working
precision sized from the peak term (independent of fracdecay's own
summation).  Run from the repository root:

    python3 benchmarks/references.py

A probe's ``tol`` is the relative error it is gated at; ``null`` marks a
known defect that is measured (it counts in max_rel_err and ok_frac) but
not gated.  Kilbas-Saigo probes are gated unless kilbas_saigo_with_info
flags the value as approximate: a value must be accurate or flagged.  Deep probes cost seconds each in mpmath (alpha = 0.5, z = -40
takes ~5 s), so they stop at |z| = 40.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from mpmath import mp, mpf

OUT = Path(__file__).resolve().parent / "references.json"
GUARD = 30  # decimal digits kept beyond the largest term


def _series(z, ratio, log_ratio):
    """sum_k t_k with t_0 = 1 and t_{k+1} = t_k * ratio(k) * z, where
    log_ratio(k) = log|ratio(k)| in floats sizes the precision and length."""
    logs = [0.0]
    while (len(logs) < 50 or logs[-1] > -GUARD * math.log(10.0)
           or logs[-1] > logs[-2]):
        k = len(logs) - 1
        logs.append(logs[-1] + log_ratio(k) + math.log(abs(z)))
    digits = int(max(logs) / math.log(10.0)) + GUARD
    with mp.workdps(digits):
        s = t = mpf(1)
        zz = mpf(z)
        for k in range(len(logs) - 1):
            t *= ratio(k) * zz
            s += t
        return float(s)


def kilbas_saigo(alpha, m, l, z):
    a, M, L = mpf(alpha), mpf(m), mpf(l)

    def ratio(j):
        x = a * (j * M + L) + 1
        return mp.gamma(x) / mp.gamma(x + a)

    def log_ratio(j):
        x = alpha * (j * m + l) + 1.0
        return math.lgamma(x) - math.lgamma(x + alpha)

    return _series(z, ratio, log_ratio)


def mittag_leffler(alpha, beta, z):
    """sum_k z^k / Gamma(alpha k + beta)."""
    a, b = mpf(alpha), mpf(beta)

    def ratio(j):
        return mp.gamma(a * j + b) / mp.gamma(a * (j + 1) + b)

    def log_ratio(j):
        return math.lgamma(alpha * j + beta) - math.lgamma(alpha * (j + 1) + beta)

    return _series(z, ratio, log_ratio) / math.gamma(beta)


def _decay(alpha, beta):
    return 1.0 + beta / alpha, beta / alpha


FRACTIONS = (0.25, 0.5, 0.75, 0.875, 1.0)   # node j/N of graded meshes


def probes():
    ss = []
    # Kilbas-Saigo on the decay family: near, mid and deep (surrogate) band
    for alpha, beta, zs in ((0.5, 0.5, (-0.5, -5.0, -9.5, -20.0, -30.0, -40.0)),
                            (0.8, 1.6, (-0.9, -7.0, -20.0, -40.0)),
                            (0.3, 0.3, (-0.7, -4.0, -9.0)),
                            (0.65, 0.4, (-2.0, -25.0))):
        m, l = _decay(alpha, beta)
        for z in zs:
            ss.append({"kind": "ks", "alpha": alpha, "m": m, "l": l, "z": z,
                       "ref": kilbas_saigo(alpha, m, l, z), "tol": 1e-8})
    # Mittag-Leffler: (0.5, -9.9) and (0.3, -9) raise NonConvergence, the
    # asymptotic branch returns 0 at alpha = 1 and is ~1e-3 off near 1
    for alpha, beta, z, tol in ((0.5, 1.0, -2.0, 1e-8), (0.8, 1.0, -3.0, 1e-8),
                                (0.5, 1.0, -9.9, None), (0.3, 1.0, -9.0, None),
                                (1.0, 1.0, -12.0, None), (0.9, 1.0, -15.0, None),
                                (0.6, 1.0, -30.0, None)):
        ss.append({"kind": "ml", "alpha": alpha, "beta": beta, "z": z,
                   "ref": mittag_leffler(alpha, beta, z), "tol": tol})
    # single-mode subdiffusion on (0, pi): E(t) = E_{1/2,2,1}(-t)
    for t in (0.5, 2.0, 8.0, 16.0):
        ss.append({"kind": "subdiffusion", "alpha": 0.5, "beta": 0.5, "t": t,
                   "ref": kilbas_saigo(0.5, 2.0, 1.0, -t),
                   "tol": 1e-8 if t <= 10.0 else None})

    fd, rp = [], []
    amp = math.sqrt(math.pi / 2.0)
    for f in FRACTIONS:
        t = 10.0 * f ** 3
        ks = kilbas_saigo(0.5, 2.0, 1.0, -t)
        fd.append({"kind": "linear_mode", "fraction": f, "t": t, "ref": ks,
                   "tol": 1e-3})
        fd.append({"kind": "fd_energy", "fraction": f, "t": t, "ref": amp * ks,
                   "tol": 5e-3})
        rp.append({"kind": "csv", "file": "l1_mode.csv", "key": "t", "x": t,
                   "column": "u", "ref": ks, "tol": 5e-3})
        rp.append({"kind": "csv", "file": "cross_solver.csv", "key": "t",
                   "x": t, "column": "E_fd", "ref": amp * ks, "tol": 5e-3})
    for m, z in ((2.0, -5.0), (2.0, 5.0), (1.5, -2.5)):
        with mp.workdps(30):
            ref = float(mp.exp(mpf(z) / m))
        rp.append({"kind": "csv", "file": "specfun_identity.csv", "key": "z",
                   "x": z, "column": f"m_{m:g}", "ref": ref, "tol": 1e-10})
    return {"spectral_sweep": ss, "fd_stepping": fd, "reproduce_strict": rp}


if __name__ == "__main__":
    OUT.write_text(json.dumps(probes(), indent=1) + "\n")
    print(f"wrote {OUT}")
