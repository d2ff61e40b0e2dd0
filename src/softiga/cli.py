"""Command line front end.

Subcommands emit machine-readable reports (CSV or JSON) for spectra,
condition-number tables, convergence studies, softness-weight sweeps,
dispersion coefficients, and a self-verification suite. Output is
deterministic: fixed 16-significant-digit scientific notation, comma
separator, newline line endings, and sorted JSON keys.
"""

import argparse
import json
import math
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analytic import (analytic_eigenvalue, commutator_norm,
                       dispersion_expansion, eta_table,
                       fit_leading_coefficient, reference_matrix,
                       softened_reference)
from .assembly import IndefinitenessWarning, build_soft_system
from .eigensolve import DefinitenessError, EigenSolveError
from .spaces import space_dimension
from .spectral_analysis import (condition_stats, convergence_slope,
                                eigenvalue_convergence, eta_sweep,
                                h1_convergence, h1_errors_for_modes,
                                solve_system, spectral_report)
from .tensor import check_lift_size, lifted_extremes

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VERIFICATION = 3

_METHOD_FLAVOR = {"iga": "standard", "of-iga": "outlier_free",
                  "softiga": "outlier_free"}


class ConfigError(ValueError):
    """Invalid command-line configuration."""


class _Parser(argparse.ArgumentParser):
    """argparse front end whose usage errors exit with the config code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: weights are concrete numbers, not modes."""

    command: str
    p: int
    N: int
    d: int
    method: str
    eta: object
    eta_b: object
    out: str
    format: str


def _resolve_eta(p, spec_text):
    """Map an --eta value to a number; named modes use the exact table."""
    table = eta_table()
    named = {"default": "default", "super": "superconvergent",
             "superconvergent": "superconvergent", "zero": None}
    if spec_text in named:
        if named[spec_text] is None:
            return Fraction(0)
        try:
            return table.resolve(p, named[spec_text])
        except KeyError as exc:
            raise ConfigError(exc.args[0])
    try:
        value = float(spec_text)
    except ValueError:
        raise ConfigError(f"--eta must be default, super, zero, or a"
                          f" number, got {spec_text!r}")
    if not math.isfinite(value):
        raise ConfigError(f"--eta must be finite, got {value}")
    if value < 0:
        raise ConfigError(f"--eta must be nonnegative, got {value}")
    sharp = table.sharp_max.get(p)
    if sharp is not None:
        if value > float(sharp):
            raise ConfigError(f"--eta {value} exceeds the sharp"
                              f" admissibility bound {float(sharp)}"
                              f" for p={p}")
        default = table.default.get(p)
        if default is not None and value > float(default):
            warnings.warn(f"eta={value} exceeds the default weight"
                          f" {float(default)} for p={p}; spectrum"
                          f" monotonicity is no longer guaranteed",
                          UserWarning, stacklevel=2)
    return value


def _resolve_eta_b(p, spec_text):
    if spec_text == "zero":
        return Fraction(0)
    if spec_text == "paper":
        try:
            return eta_table().resolve(p, "mass_side")
        except KeyError as exc:
            raise ConfigError(exc.args[0])
    try:
        value = float(spec_text)
    except ValueError:
        raise ConfigError(f"--eta-b must be zero, paper, or a number,"
                          f" got {spec_text!r}")
    if not math.isfinite(value):
        raise ConfigError(f"--eta-b must be finite, got {value}")
    if value < 0:
        raise ConfigError(f"--eta-b must be nonnegative, got {value}")
    return value


def _config_from_args(args):
    if args.command in ("convergence", "dispersion") and args.d != 1:
        raise ConfigError(f"{args.command} is one-dimensional only,"
                          f" got -d {args.d}")
    method = args.method
    eta_text = args.eta
    if eta_text is None:
        eta_text = "default" if method == "softiga" else "zero"
    eta = _resolve_eta(args.p, eta_text)
    eta_b = _resolve_eta_b(args.p, args.eta_b)
    if method != "softiga":
        if eta != 0:
            raise ConfigError(f"method {method!r} takes no softness"
                              f" weight; pass --eta zero or use softiga")
        if eta_b != 0:
            raise ConfigError(f"method {method!r} takes no mass-side"
                              f" weight; pass --eta-b zero or use softiga")
    return RunConfig(args.command, args.p, args.N, args.d, method,
                     eta, eta_b, args.out, args.format)


def _fmt(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.15e" % float(value)


def _emit(config, columns, rows):
    """Render rows and write them to --out or stdout."""
    if config.format == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        def coerce(v):
            if isinstance(v, str):
                return v
            if isinstance(v, (int, np.integer)):
                return int(v)
            return float(v)

        payload = [{c: coerce(v) for c, v in zip(columns, row)}
                   for row in rows]
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if config.out:
        with open(config.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build(config):
    return build_soft_system(config.p, config.N, config.eta, config.eta_b,
                             _METHOD_FLAVOR[config.method])


def _check_lift(config, flavor):
    """Refuse an oversized d-dimensional lift before any assembly."""
    if config.d > 1:
        check_lift_size(space_dimension(config.p, config.N, flavor),
                        config.d)


def cmd_spectrum(config):
    """Discrete spectrum with continuum targets and per-mode errors."""
    _check_lift(config, _METHOD_FLAVOR[config.method])
    system = _build(config)
    spectrum = solve_system(system)
    report = spectral_report(system, spectrum, config.d)
    columns = ["j", "indices", "lambda_exact", "lambda_h", "rel_err"]
    rows = [[k + 1, "-".join(map(str, report.indices[k])),
             report.exact[k], report.computed[k], report.rel_errors[k]]
            for k in range(report.computed.size)]
    if config.d == 1:
        columns.append("h1_err")
        h1 = h1_errors_for_modes(system, spectrum,
                                 range(1, spectrum.n + 1))
        for row, err in zip(rows, h1):
            row.append(err)
    _emit(config, columns, rows)
    return EXIT_OK


def cmd_condition(config, baseline_method):
    """Condition-number reduction of the target method over a baseline.

    Only the two ends of each lifted spectrum matter, and they are the
    d-fold sums of the 1D ends, so no lift is built. A baseline on the
    target's space reuses its assembled operators.
    """
    system = _build(config)
    flavor = _METHOD_FLAVOR[baseline_method]
    if flavor == system.space.flavor:
        base = system.with_weights(0.0)
    else:
        base = build_soft_system(config.p, config.N, 0.0, 0.0, flavor)
    target = lifted_extremes(solve_system(system).values, config.d)
    baseline = lifted_extremes(solve_system(base).values, config.d)
    stats = condition_stats(target, baseline)
    columns = ["d", "p", "lambda_min", "lambda_max_baseline",
               "lambda_max_target", "gamma_baseline", "gamma_target",
               "rho", "varrho_pct"]
    rows = [[config.d, config.p, stats.lambda_min,
             stats.lambda_max_baseline, stats.lambda_max_target,
             stats.gamma_baseline, stats.gamma_target, stats.rho,
             stats.varrho_pct]]
    _emit(config, columns, rows)
    return EXIT_OK


def cmd_convergence(config, n_list, j, quantity):
    """Per-N errors of one mode plus the fitted convergence slope."""
    flavor = _METHOD_FLAVOR[config.method]
    if quantity == "eigenvalue":
        errors = eigenvalue_convergence(config.p, n_list, j, config.eta,
                                        config.eta_b, flavor)
    else:
        errors = h1_convergence(config.p, n_list, j, config.eta,
                                config.eta_b, flavor)
    slope = convergence_slope(n_list, errors)
    columns = ["N", "error", "fitted_slope"]
    rows = [[N, err, slope] for N, err in zip(n_list, errors)]
    _emit(config, columns, rows)
    return EXIT_OK


def cmd_eta_sweep(config, grid_points):
    """Reduction ratio and total eigenvalue error along a weight grid."""
    sharp = eta_table().resolve(config.p, "sharp_max")
    _check_lift(config, "outlier_free")
    grid = np.linspace(0.0, float(sharp), grid_points, endpoint=False)
    rows = eta_sweep(config.p, config.N, grid, config.d)
    _emit(config, ["eta", "rho", "e_lambda"], rows)
    return EXIT_OK


def cmd_dispersion(config):
    """Leading dispersion coefficient, exact and empirically fitted."""
    fitted, exact, power = fit_leading_coefficient(config.p, config.eta)
    expansion = dispersion_expansion(config.p, config.eta)
    columns = ["p", "eta", "power", "coeff_exact", "coeff_fitted",
               "rel_gap", "next_coeff"]
    gap = abs(fitted - float(exact)) / abs(float(exact))
    rows = [[config.p, float(config.eta), power, float(exact), fitted,
             gap, float(expansion.next)]]
    _emit(config, columns, rows)
    return EXIT_OK


def _verify_checks():
    """Cross-module oracle suite at reduced sizes; yields check dicts."""
    checks = []

    def add(name, passed, detail):
        checks.append({"name": name, "pass": bool(passed),
                       "detail": detail})

    table = eta_table()

    worst = 0.0
    for p in (2, 3, 4):
        base = build_soft_system(p, 16, 0.0)
        for eta in (Fraction(0), table.default[p]):
            values = solve_system(base.with_weights(eta)).values
            top = 16 if p % 2 == 0 else 15
            exact = np.array([analytic_eigenvalue(p, float(eta), j, 16)
                              for j in range(1, top + 1)])
            worst = max(worst, float(np.max(np.abs(values - exact)
                                            / exact)))
    add("closed_form_match", worst <= 1e-9,
        f"max relative gap {worst:.3e} (budget 1e-09)")

    worst = 0.0
    for p in (2, 3, 4, 5):
        T = reference_matrix("T", p, 14)
        K = reference_matrix("K", p, 14)
        M = reference_matrix("M", p, 14)
        worst = max(worst, commutator_norm(K, T), commutator_norm(M, T))
        default = table.default.get(p)
        if default is not None:
            A, _ = softened_reference(p, 14, default)
            worst = max(worst, commutator_norm(A, T))
    add("commutators", worst <= 1e-12,
        f"max Frobenius norm {worst:.3e} (budget 1e-12)")

    ok = True
    details = []
    for p in (2, 3, 4):
        sharp = float(table.sharp_max[p])
        base = build_soft_system(p, 50, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IndefinitenessWarning)
            below = solve_system(base.with_weights(0.99 * sharp))
            above = base.with_weights(1.01 * sharp)
        low = float(np.linalg.eigvalsh(above.A)[0])
        if below.lam_min <= 0:
            ok = False
            details.append(f"p={p}: spectrum not positive below sharp")
        if low >= 0:
            ok = False
            details.append(f"p={p}: pencil not indefinite above sharp")
        else:
            details.append(f"p={p}: indefinite above sharp"
                           f" (min stiffness eigenvalue {low:.3e})")
    add("coercivity_sharpness", ok, "; ".join(details))

    ok = True
    worst = 0.0
    for p in (2, 3, 4):
        eta = float(table.default[p])
        theo = float(table.theoretical_max[p])
        system = build_soft_system(p, 20, eta)
        K = system.stiffness.toarray()
        beta = 1.0 - eta / theo
        gap = float(np.linalg.eigvalsh(system.A - beta * K)[0])
        scale = float(np.linalg.norm(K))
        worst = min(worst, gap / scale)
        if gap < -1e-10 * scale:
            ok = False
    add("coercivity_certificate", ok,
        f"worst scaled slack {worst:.3e} (floor -1e-10)")

    ok = True
    bounds = {2: (Fraction(37, 5040), Fraction(1, 1680)),
              3: (Fraction(131, 332640), Fraction(1, 27720))}
    for p, (c_default, c_super) in bounds.items():
        N = 20
        h = 1.0 / N
        top = N if p % 2 == 0 else N - 1
        eta = float(table.default[p])
        sup = float(table.superconvergent[p])
        for j in range(1, top + 1):
            t = j * math.pi * h
            lam = (j * math.pi) ** 2
            err = abs(analytic_eigenvalue(p, eta, j, N) - lam) / lam
            if not err < (float(c_default) + eta) * t ** (2 * p):
                ok = False
            err = abs(analytic_eigenvalue(p, sup, j, N) - lam) / lam
            if not err < float(c_super) * t ** (2 * p + 2):
                ok = False
    add("theorem_bounds", ok, "strict eigenvalue-error bounds at N=20")

    worst = 0.0
    for p in (2, 3, 4, 5):
        for eta in (Fraction(0), table.superconvergent[p]):
            fitted, exact, _ = fit_leading_coefficient(p, eta)
            worst = max(worst, abs(fitted - float(exact))
                        / abs(float(exact)))
    add("dispersion_fit", worst <= 0.01,
        f"max relative misfit {worst:.3e} (budget 1e-02)")

    spectrum = solve_system(build_soft_system(3, 24, table.default[3]))
    ok = bool(np.all(spectrum.residuals <= spectrum.residual_bounds))
    add("residual_contract", ok,
        f"max residual {float(np.max(spectrum.residuals)):.3e}")

    return checks


def cmd_verify(config):
    """Run the oracle suite; exit 0 only when every check passes."""
    checks = _verify_checks()
    passed = all(c["pass"] for c in checks)
    text = json.dumps({"checks": checks, "pass": passed},
                      sort_keys=True, indent=2) + "\n"
    if config.out:
        with open(config.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if passed else EXIT_VERIFICATION


def _int_list(text):
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated"
                                         f" integers, got {text!r}")


def build_parser():
    parser = _Parser(prog="softiga",
                     description="Spectral reports for softened"
                                 " isogeometric discretizations of the"
                                 " Laplace eigenproblem on the unit"
                                 " cube.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, n_default=None):
        sp.add_argument("-p", type=int, default=2,
                        help="spline degree (default 2)")
        sp.add_argument("-N", type=int, default=n_default or 16,
                        help="elements per direction")
        sp.add_argument("-d", type=int, choices=(1, 2, 3), default=1,
                        help="spatial dimension")
        sp.add_argument("--method", choices=sorted(_METHOD_FLAVOR),
                        default="softiga")
        sp.add_argument("--eta", default=None,
                        help="softness weight: default, super, zero, or"
                             " a number (default: default for softiga,"
                             " zero otherwise)")
        sp.add_argument("--eta-b", default="zero",
                        help="mass-side weight: zero, paper, or a"
                             " number")
        sp.add_argument("--out", default=None,
                        help="output path (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"),
                        default="csv")

    common(sub.add_parser("spectrum", help="discrete vs continuum"
                                           " spectrum"))
    sp = sub.add_parser("condition", help="condition-number reduction")
    common(sp)
    sp.add_argument("--baseline", choices=sorted(_METHOD_FLAVOR),
                    default="iga")
    sp = sub.add_parser("convergence", help="error slopes over meshes")
    common(sp)
    sp.add_argument("--N-list", type=_int_list,
                    default=[9, 12, 15, 18, 21, 24, 27, 30],
                    help="comma-separated element counts")
    sp.add_argument("--j", type=int, default=1, help="mode index")
    sp.add_argument("--quantity", choices=("eigenvalue", "h1"),
                    default="eigenvalue")
    sp = sub.add_parser("eta-sweep", help="weight sweep up to the sharp"
                                          " bound")
    common(sp)
    sp.add_argument("--grid-points", type=int, default=13)
    common(sub.add_parser("dispersion", help="dispersion-coefficient"
                                             " fit"))
    common(sub.add_parser("verify", help="cross-module oracle suite"))
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "spectrum":
            return cmd_spectrum(config)
        if args.command == "condition":
            return cmd_condition(config, args.baseline)
        if args.command == "convergence":
            return cmd_convergence(config, args.N_list, args.j,
                                   args.quantity)
        if args.command == "eta-sweep":
            return cmd_eta_sweep(config, args.grid_points)
        if args.command == "dispersion":
            return cmd_dispersion(config)
        if args.command == "verify":
            return cmd_verify(config)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, KeyError, ValueError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"softiga: config error: {message}", file=sys.stderr)
        return EXIT_CONFIG
    except (DefinitenessError, EigenSolveError,
            np.linalg.LinAlgError) as exc:
        print(f"softiga: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
