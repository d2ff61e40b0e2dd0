"""Output checks for every benchmark case.

Each case's stdout is compared with an oracle the repository already
has wherever one exists:

* ``analytic_eigenvalue`` (p = 2..4) for 1D eigenvalues, and d times the
  1D extremes for lifted condition numbers;
* sorted d-fold sums of those 1D values for lifted spectra, and the
  continuum values pi^2 * |j|^2 enumerated over the lattice and paired
  by rank for the ``lambda_exact`` column;
* the exact rational dispersion coefficients;
* ``"pass": true`` from ``softiga verify``.

Outputs with no oracle (the plain-IGA baseline extremes for p > 2, H1
errors, fitted dispersion coefficients) are compared with values
recorded from the seed commit in ``expected.json`` at the stated
relative tolerances. Columns derived from other printed columns are
recomputed from them.
"""

import json
import math

import numpy as np

from softiga.analytic import (analytic_eigenvalue, dispersion_expansion,
                              eta_table)
from softiga.cli import build_parser
from workloads import case_key

# The dense solve against the closed forms; `softiga verify` uses the
# same budget.
RTOL_CLOSED_FORM = 1e-9
# Recorded eigenvalues: a different LAPACK path or BLAS thread count
# moves them by about 1e-14.
RTOL_RECORDED = 1e-9
# H1 errors of the lowest modes come from eigenvectors and move by about
# 3e-9 relative between one and two BLAS threads.
RTOL_H1 = 1e-6
# Columns recomputed from other printed 16-digit columns.
RTOL_DERIVED = 1e-12
ATOL_REL_ERR = 1e-14

# `spectrum -d 2|3` compares n1^d discrete values with an n1^(d^2)-entry
# continuum reference and exits 1 with numpy's broadcast error. The
# benchmark expects that outcome until the program is fixed, and then
# checks the fixed output against the oracles instead.
KNOWN_DEFECT = "operands could not be broadcast"

OK = "ok"
DEFECT = "known_defect"


class CheckError(AssertionError):
    """A case's output disagrees with its oracle or recorded value."""


class Reference:
    """Recorded values for outputs the repository has no oracle for.

    With ``record=True`` every comparison stores the observed value
    instead of checking it; ``values`` is then written to
    ``expected.json``.
    """

    def __init__(self, values=None, record=False):
        self.values = {} if values is None else values
        self.record = record

    def compare(self, key, field, observed, rtol):
        observed = [float(v) for v in observed]
        if self.record:
            self.values.setdefault(key, {})[field] = observed
            return
        try:
            expected = self.values[key][field]
        except KeyError:
            raise CheckError(f"no recorded value for {field!r} of {key!r}")
        _close(f"{field} vs recorded", observed, expected, rtol)


def _close(what, observed, expected, rtol, atol=0.0):
    observed = np.atleast_1d(np.asarray(observed, dtype=float))
    expected = np.atleast_1d(np.asarray(expected, dtype=float))
    if observed.shape != expected.shape:
        raise CheckError(f"{what}: {observed.size} values, expected"
                         f" {expected.size}")
    gap = np.abs(observed - expected)
    limit = atol + rtol * np.abs(expected)
    if not np.all(gap <= limit):
        k = int(np.argmax(gap - limit))
        raise CheckError(f"{what}: entry {k} is {observed[k]!r}, expected"
                         f" {expected[k]!r} (rtol {rtol}, atol {atol})")


def _require(condition, message):
    if not condition:
        raise CheckError(message)


def _csv(text):
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def _column(rows, name):
    return np.array([float(row[name]) for row in rows])


def _closed_form(p, eta, N):
    """Ascending closed-form spectrum of the outlier-free pencil."""
    top = N if p % 2 == 0 else N - 1
    return np.sort([analytic_eigenvalue(p, float(eta), j, N)
                    for j in range(1, top + 1)])


def _lift(one_d, d):
    """Sorted d-fold sums of a 1D spectrum."""
    values = np.asarray(one_d, dtype=float)
    total = values
    for _ in range(d - 1):
        total = np.add.outer(total, values)
    return np.sort(total, axis=None)


def _continuum(d, count):
    """The `count` smallest pi^2 * |j|^2 over the positive lattice.

    With count = n1^d, the box [1, n1]^d already holds count values of at
    most d * n1^2, so no wanted mode has a component above sqrt(d) * n1;
    that bounds the box enumerated here. Truncating each axis at n1
    instead would skip modes such as (1, 1, n1 + 1).
    """
    side = int(math.isqrt(int(d * round(count ** (1.0 / d)) ** 2))) + 2
    squares = np.arange(1, side + 1, dtype=float) ** 2
    return (math.pi ** 2) * _lift(squares, d)[:count]


def _eta(p, text):
    table = eta_table()
    named = {"default": table.default, "super": table.superconvergent,
             "zero": None}
    if text in named:
        return 0 if named[text] is None else named[text][p]
    return float(text)


def _check_condition(args, out, ref, key):
    _, rows = _csv(out)
    _require(len(rows) == 1, f"expected one row, got {len(rows)}")
    row = rows[0]
    d, p, N = args.d, args.p, args.N
    _require(int(row["d"]) == d and int(row["p"]) == p, "d/p columns")
    target = _closed_form(p, _eta(p, args.eta or "default"), N)
    lam_min = float(row["lambda_min"])
    lam_max_base = float(row["lambda_max_baseline"])
    _close("lambda_max_target", float(row["lambda_max_target"]),
           d * target[-1], RTOL_CLOSED_FORM)
    # p <= 2: the standard space and the outlier-free one coincide.
    if args.baseline == "of-iga" or p <= 2:
        base = _closed_form(p, 0, N)
        _close("lambda_min", lam_min, d * base[0], RTOL_CLOSED_FORM)
        _close("lambda_max_baseline", lam_max_base, d * base[-1],
               RTOL_CLOSED_FORM)
    else:
        ref.compare(key, "lambda_min", [lam_min], RTOL_RECORDED)
        ref.compare(key, "lambda_max_baseline", [lam_max_base],
                    RTOL_RECORDED)
    gamma_target = float(row["gamma_target"])
    _close("gamma_target", gamma_target, target[-1] / target[0],
           RTOL_CLOSED_FORM)
    gamma_base = float(row["gamma_baseline"])
    _close("gamma_baseline", gamma_base, lam_max_base / lam_min,
           RTOL_DERIVED)
    rho = float(row["rho"])
    _close("rho", rho, gamma_base / gamma_target, RTOL_DERIVED)
    _close("varrho_pct", float(row["varrho_pct"]), 100 * (1 - 1 / rho),
           0.0, 1e-10)
    return OK


def _check_eta_sweep(args, out, ref, key):
    _, rows = _csv(out)
    p, N = args.p, args.N
    sharp = float(eta_table().sharp_max[p])
    grid = np.linspace(0.0, sharp, args.grid_points, endpoint=False)
    _require(len(rows) == grid.size, f"expected {grid.size} rows")
    _close("eta", _column(rows, "eta"), grid, RTOL_DERIVED)
    base = _closed_form(p, 0, N)
    exact = (np.arange(1, base.size + 1) * math.pi) ** 2
    rho, e_lambda = [], []
    for eta in grid:
        lam = _closed_form(p, eta, N)
        rho.append((base[-1] / base[0]) / (lam[-1] / lam[0]))
        e_lambda.append(math.sqrt(float(np.sum(((lam - exact) / exact)
                                               ** 2))))
    _close("rho", _column(rows, "rho"), rho, RTOL_CLOSED_FORM)
    _close("e_lambda", _column(rows, "e_lambda"), e_lambda,
           RTOL_CLOSED_FORM)
    return OK


def _check_spectrum(args, code, out, err, ref, key):
    d, p, N = args.d, args.p, args.N
    if d > 1 and code == 1 and KNOWN_DEFECT in err:
        return DEFECT
    _require(code == 0, f"exit {code}: {err.strip()[:200]}")
    header, rows = _csv(out)
    one_d = _closed_form(p, _eta(p, args.eta or "default"), N)
    values = _lift(one_d, d)
    _require(len(rows) == values.size,
             f"expected {values.size} rows, got {len(rows)}")
    _close("j", _column(rows, "j"), np.arange(1, values.size + 1), 0.0)
    lam_e = _column(rows, "lambda_exact")
    _close("lambda_exact", lam_e, _continuum(d, values.size), RTOL_DERIVED)
    lam_h = _column(rows, "lambda_h")
    _close("lambda_h", lam_h, values, RTOL_CLOSED_FORM)
    _close("rel_err", _column(rows, "rel_err"),
           np.abs(lam_h - lam_e) / lam_e, RTOL_DERIVED, ATOL_REL_ERR)
    if d == 1:
        _require("h1_err" in header, "missing h1_err column")
        ref.compare(key, "h1_err", _column(rows, "h1_err"), RTOL_H1)
    return OK


def _check_convergence(args, out, ref, key):
    _, rows = _csv(out)
    ns = args.N_list
    _require(len(rows) == len(ns), f"expected {len(ns)} rows")
    _close("N", _column(rows, "N"), ns, 0.0)
    errors = _column(rows, "error")
    ref.compare(key, "error", errors, RTOL_H1)
    slope = np.polyfit(np.log(1.0 / np.asarray(ns, dtype=float)),
                       np.log(errors), 1)[0]
    _close("fitted_slope", _column(rows, "fitted_slope"),
           np.full(len(ns), slope), 1e-9)
    if args.quantity == "h1":
        # H1 eigenfunction errors converge at order p.
        _require(abs(slope - args.p) < 0.25,
                 f"fitted H1 slope {slope} far from order {args.p}")
    return OK


def _check_dispersion(args, out, ref, key):
    _, rows = _csv(out)
    _require(len(rows) == 1, f"expected one row, got {len(rows)}")
    row = rows[0]
    p = args.p
    eta = _eta(p, args.eta or "default")
    expansion = dispersion_expansion(p, eta)
    if expansion.lead != 0:
        power, exact = 2 * p, expansion.lead
    else:
        power, exact = 2 * p + 2, expansion.next
    _require(int(row["p"]) == p and int(row["power"]) == power,
             "p/power columns")
    _close("eta", float(row["eta"]), float(eta), RTOL_DERIVED)
    _close("coeff_exact", float(row["coeff_exact"]), float(exact),
           RTOL_DERIVED)
    _close("next_coeff", float(row["next_coeff"]), float(expansion.next),
           RTOL_DERIVED)
    fitted = float(row["coeff_fitted"])
    gap = float(row["rel_gap"])
    # The fit agrees with the exact value to ~1e-13, so the gap recomputed
    # from the rounded printed columns is only good to ~1e-16 absolute.
    _close("rel_gap", gap, abs(fitted - float(exact)) / abs(float(exact)),
           1e-9, 1e-15)
    # `softiga verify` holds the fit to the same budget.
    _require(gap <= 1e-2, f"dispersion fit misses by {gap}")
    ref.compare(key, "coeff_fitted", [fitted], 1e-9)
    return OK


def _check_verify(out):
    payload = json.loads(out)
    failing = [c["name"] for c in payload["checks"] if not c["pass"]]
    _require(payload["pass"] is True and not failing,
             f"verify failed: {failing}")
    return OK


def check_case(argv, code, out, err, ref):
    """Check one case's result; returns OK or DEFECT, raises CheckError.

    DEFECT is returned only for the recorded known defect; any other
    nonzero exit or wrong output raises.
    """
    args = build_parser().parse_args(argv)
    key = case_key(argv)
    if args.command == "spectrum":
        return _check_spectrum(args, code, out, err, ref, key)
    _require(code == 0, f"exit {code}: {err.strip()[:200]}")
    if args.command == "condition":
        return _check_condition(args, out, ref, key)
    if args.command == "eta-sweep":
        return _check_eta_sweep(args, out, ref, key)
    if args.command == "convergence":
        return _check_convergence(args, out, ref, key)
    if args.command == "dispersion":
        return _check_dispersion(args, out, ref, key)
    if args.command == "verify":
        return _check_verify(out)
    raise CheckError(f"no check for command {args.command!r}")
