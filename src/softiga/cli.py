"""Command line front end.

Subcommands emit machine-readable reports (CSV or JSON) for spectra,
condition-number tables, convergence studies, softness-weight sweeps,
dispersion coefficients, and a self-verification suite. Output is
deterministic: fixed 16-significant-digit scientific notation, comma
separator, newline line endings, and sorted JSON keys.

Every command hands ``_emit`` its report as named columns, and one
renderer writes them for all six. It formats a column a chunk of rows
at a time, each run of equal floats once (a d-dimensional lift repeats
a value up to d! times), and writes each chunk before it renders the
next, so no more than one chunk of text exists at once and the peak
memory of a report is that of the lift it prints. A report for a
regular file at --out goes to a temporary file beside it, renamed over
it once complete, so a run that fails leaves an existing file as it
was; a pipe or a device at --out is written in place.
"""

import argparse
import json
import math
import os
import sys
import warnings
from fractions import Fraction

import numpy as np

from .analytic import (analytic_eigenvalue, dispersion_expansion,
                       eta_table, fit_leading_coefficient,
                       transformation_commutators)
from .assembly import IndefinitenessWarning, build_soft_system
from .eigensolve import (DefinitenessError, EigenSolveError,
                         cholesky_pivot, lowest_eigenvalue)
from .spaces import space_dimension
from .spectral_analysis import (condition_stats, convergence_slope,
                                eta_sweep, extreme_values,
                                h1_errors_for_modes, mode_convergence,
                                reweighted_values, solve_system,
                                spectral_report)
from .tensor import check_lift_size, lifted_extremes

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VERIFICATION = 3

_METHOD_FLAVOR = {"iga": "standard", "of-iga": "outlier_free",
                  "softiga": "outlier_free"}

# Largest 1D pencil order that condition accepts. Only the standard
# baseline at p >= 3 grows with it: just under it, at p = 3 on a 2-core
# shared host with one BLAS thread, condition took 1.1 s and 235 MB max
# RSS in a fresh process (0.9 s after the imports), its band solve
# peaking at 175.5 MiB traced: A, B, one factor buffer and a few vectors,
# with two shifted factorizations. The outlier-free pencils took 0.24 s
# and 35 MB.
MAX_CONDITION_ORDER = 1_000_000

# Most weights eta-sweep accepts. The sweep holds n values per weight,
# so its memory grows as points * n. On a 2-core shared host with one
# BLAS thread, 1000 points at p = 2, N = 16 took about 0.1 s and 200
# points at p = 3, N = 800 about 1.2 s.
MAX_GRID_POINTS = 1000


class ConfigError(ValueError):
    """Invalid command-line configuration."""


class _Parser(argparse.ArgumentParser):
    """argparse front end whose usage errors exit with the config code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _number(option, text, names):
    """A weight option given as a number, finite and nonnegative;
    ``names`` lists its named values for the error message."""
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{option} must be {names}, or a number,"
                          f" got {text!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{option} must be finite, got {value}")
    if value < 0:
        raise ConfigError(f"{option} must be nonnegative, got {value}")
    return value


def _resolve_eta(p, spec_text):
    """Map an --eta value to a number; named modes use the exact table,
    whose KeyError for a degree it lacks main reports as a config
    error."""
    table = eta_table()
    named = {"default": "default", "super": "superconvergent",
             "superconvergent": "superconvergent"}
    if spec_text == "zero":
        return Fraction(0)
    if spec_text in named:
        return table.resolve(p, named[spec_text])
    value = _number("--eta", spec_text, "default, super, zero")
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
        return eta_table().resolve(p, "mass_side")
    return _number("--eta-b", spec_text, "zero, paper")


def _weights(args):
    """Resolve --eta and --eta-b; only softiga takes nonzero weights."""
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
    return eta, eta_b


# Rows of a report rendered and written at a time: the text of one
# chunk is all of the report that exists at once, whatever its length.
_CHUNK_ROWS = 4096


def _csv_floats(values):
    """A list of floats in %.15e, formatted by one % operation."""
    return ("\n".join(["%.15e"] * len(values)) % tuple(values)).split("\n")


def _json_floats(values):
    """A list of floats as json.dumps writes them."""
    return [float.__repr__(v) if math.isfinite(v) else json.dumps(float(v))
            for v in values]


def _cells(part, floats, quote):
    """The text of one column's cells in a chunk of rows.

    A list (or a range) of floats, ints or strings prints cell by cell.
    A 1D float array holds the values of a lift, which repeats a value
    up to d! times, always in adjacent rows, so each run of equal values
    (equal bit patterns, so that -0.0 and 0.0 stay apart) is formatted
    once. A 2D integer array holds multi-indices, each row printed as
    its entries joined by "-". ``floats`` formats a list of floats,
    ``quote`` a string.
    """
    if not isinstance(part, np.ndarray):
        first = part[0]
        if isinstance(first, float):
            return floats(part)
        return map(quote if isinstance(first, str) else str, part)
    if part.ndim == 2:
        labels = list(map(str, range(int(part.max()) + 1)))
        return map(quote, map("-".join, zip(*[map(labels.__getitem__, axis)
                                              for axis in part.T.tolist()])))
    values = np.asarray(part, dtype=float)
    bits = values.view(np.int64)
    starts = np.empty(len(bits), dtype=bool)
    starts[0] = True
    np.not_equal(bits[1:], bits[:-1], out=starts[1:])
    text = np.array(floats(values[starts].tolist()), dtype=object)
    return text[np.cumsum(starts) - 1].tolist()


def _render(columns, as_json):
    """Yield the text of a report in chunks of ``_CHUNK_ROWS`` rows.

    The CSV is a header and one comma-separated line per row; the JSON
    is, byte for byte, ``json.dumps(rows, sort_keys=True, indent=2)``
    plus a newline, with one object per row. Each chunk starts with the
    newline before its first row, or with the separator of two rows.
    """
    names = sorted(columns) if as_json else list(columns)
    n = len(columns[names[0]])
    if as_json:
        floats, quote = _json_floats, json.encoder.encode_basestring_ascii
        keys = (quote(name).replace("%", "%%") for name in names)
        row = ("  {\n" + ",\n".join(f"    {key}: %s" for key in keys)
               + "\n  }").__mod__
        opening, separator, closing = "[", ",\n", "\n]\n" if n else "]\n"
    else:
        floats, quote = _csv_floats, str
        row = ",".join
        opening, separator, closing = ",".join(names), "\n", "\n"
    yield opening
    for lo in range(0, n, _CHUNK_ROWS):
        rows = slice(lo, lo + _CHUNK_ROWS)
        cells = [_cells(columns[name][rows], floats, quote)
                 for name in names]
        yield (separator if lo else "\n") + separator.join(
            map(row, zip(*cells)))
    yield closing


def _write(path, chunks):
    """Write a report's chunks to stdout or to --out.

    A regular file at --out is written through a temporary file beside
    it that is renamed over the path once the last chunk is written, so
    a run that fails on the way leaves the file as it was. The file
    keeps its mode, but takes the owner of the run and leaves any other
    hard link to it with the old report. Any other path (a pipe, a
    terminal, /dev/null) takes the chunks in place as they come.
    """
    if not path:
        sys.stdout.writelines(chunks)
        return
    target = os.path.realpath(path)
    if not os.path.isfile(target):
        with open(path, "w", newline="\n") as fh:
            fh.writelines(chunks)
        return
    import tempfile

    fd, temp = tempfile.mkstemp(dir=os.path.dirname(target),
                                prefix=os.path.basename(target) + ".",
                                suffix=".tmp")
    try:
        with open(fd, "w", newline="\n") as fh:
            fh.writelines(chunks)
        # the mode of the file main's probe opened, not mkstemp's 0600
        os.chmod(temp, os.stat(target).st_mode & 0o7777)
        os.replace(temp, target)
    except BaseException:
        os.remove(temp)
        raise


def _emit(args, columns):
    """Write a report in --format, a chunk of rows at a time.

    ``columns`` maps each column name, in CSV order, to its cells, all
    of one length: a list, tuple or range of floats, ints or strings, a
    1D float array (the values of a lift), or a 2D integer array of
    multi-indices.
    """
    _write(args.out, _render(columns, args.format == "json"))


def _check_lift(args, flavor):
    """Refuse an oversized d-dimensional lift before any assembly."""
    if args.d > 1:
        check_lift_size(space_dimension(args.p, args.N, flavor), args.d)


def cmd_spectrum(args):
    """Discrete spectrum with continuum targets and per-mode errors."""
    eta, eta_b = _weights(args)
    flavor = _METHOD_FLAVOR[args.method]
    _check_lift(args, flavor)
    system = build_soft_system(args.p, args.N, eta, eta_b, flavor)
    spectrum = solve_system(system)
    report = spectral_report(spectrum.values, args.d)
    columns = {"j": range(1, len(report.computed) + 1),
               "indices": report.indices,
               "lambda_exact": report.exact, "lambda_h": report.computed,
               "rel_err": report.rel_errors}
    if args.d == 1:
        columns["h1_err"] = h1_errors_for_modes(system, spectrum,
                                                range(1, spectrum.n + 1))
    _emit(args, columns)
    return EXIT_OK


def cmd_condition(args):
    """Condition-number reduction of the target method over a baseline.

    Only the two ends of each lifted spectrum matter, and they are the
    d-fold sums of the 1D ends, so no lift is built. The 1D ends come
    from ``extreme_values``, one call per space and mass-side weight. On
    the outlier-free space they are the extremes of its n closed-form
    values, with no factorization and in memory flat in N; where the
    baseline shares the target's space and eta_b, one pass gives the
    ends of both weights. On a standard space of p >= 3 they take
    usually two band Cholesky factorizations, linear in N, at shifts
    just above the top of the pencil's leading block (found on that
    block) and just below lambda_min, and a few shift-invert steps; a
    baseline identical to the target is solved once. A 1D order above
    ``MAX_CONDITION_ORDER`` is refused before any assembly. The baseline
    is the unsoftened pencil of its method's space. Both spaces, the
    same one or not, read the bands of one mesh of at most N_ref
    elements, assembled once per degree and process
    (``assembly.build_soft_system``).
    """
    eta, eta_b = _weights(args)
    target_flavor = _METHOD_FLAVOR[args.method]
    flavor = _METHOD_FLAVOR[args.baseline]
    order = max(space_dimension(args.p, args.N, f)
                for f in (target_flavor, flavor))
    if order > MAX_CONDITION_ORDER:
        raise ConfigError(f"a pencil of order {order} is above the limit"
                          f" of {MAX_CONDITION_ORDER} for condition")
    target = build_soft_system(args.p, args.N, eta, eta_b, target_flavor)
    # a baseline on the target's space (at p <= 2 the flavors are one
    # space) and eta_b is one more weight of the target's pass; another
    # is built only once the target is solved, whose errors come first
    if target.eta_b == 0.0 and (flavor == target_flavor or args.p <= 2):
        ends = extreme_values(target, [target.eta, 0.0])
    else:
        ends = [extreme_values(target), extreme_values(
            build_soft_system(args.p, args.N, 0.0, 0.0, flavor))]
    stats = condition_stats(*(lifted_extremes(end, args.d) for end in ends))
    # the fields of ConditionStats are the remaining columns, in order
    _emit(args, {"d": [args.d], "p": [args.p],
                 **{name: [value] for name, value in vars(stats).items()}})
    return EXIT_OK


def cmd_convergence(args):
    """Per-N errors of one mode plus the fitted convergence slope."""
    eta, eta_b = _weights(args)
    if min(args.N_list, default=0) < 1 or len(set(args.N_list)) < 2:
        text = ",".join(map(str, args.N_list))
        raise ConfigError(f"--N-list must hold at least two distinct"
                          f" meshes, each with N >= 1, got {text!r}")
    errors = mode_convergence(args.p, args.N_list, args.j, args.quantity,
                              eta, eta_b, _METHOD_FLAVOR[args.method])
    slope = convergence_slope(args.N_list, errors)
    _emit(args, {"N": args.N_list, "error": errors,
                 "fitted_slope": [slope] * len(errors)})
    return EXIT_OK


def cmd_eta_sweep(args):
    """Reduction ratio and total eigenvalue error along a weight grid."""
    if not 1 <= args.grid_points <= MAX_GRID_POINTS:
        raise ConfigError(f"--grid-points must be in 1..{MAX_GRID_POINTS},"
                          f" got {args.grid_points}")
    sharp = eta_table().resolve(args.p, "sharp_max")
    _check_lift(args, "outlier_free")
    grid = np.linspace(0.0, float(sharp), args.grid_points, endpoint=False)
    rows = eta_sweep(args.p, args.N, grid, args.d)
    _emit(args, dict(zip(["eta", "rho", "e_lambda"], zip(*rows))))
    return EXIT_OK


def cmd_dispersion(args):
    """Leading dispersion coefficient, exact and empirically fitted."""
    eta = _resolve_eta(args.p, "default" if args.eta is None else args.eta)
    fitted, exact, power = fit_leading_coefficient(args.p, eta)
    expansion = dispersion_expansion(args.p, eta)
    gap = abs(fitted - float(exact)) / abs(float(exact))
    _emit(args, {"p": [args.p], "eta": [float(eta)], "power": [power],
                 "coeff_exact": [float(exact)], "coeff_fitted": [fitted],
                 "rel_gap": [gap], "next_coeff": [float(expansion.next)]})
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
        etas = (Fraction(0), table.default[p])
        spectra = reweighted_values(build_soft_system(p, 16, 0.0), etas)
        for eta, values in zip(etas, spectra):
            exact = np.array([analytic_eigenvalue(p, float(eta), j, 16)
                              for j in range(1, len(values) + 1)])
            worst = max(worst, float(np.max(np.abs(values - exact)
                                            / exact)))
    add("closed_form_match", worst <= 1e-9,
        f"max relative gap {worst:.3e} (budget 1e-09)")

    worst = 0.0
    for p in (2, 3, 4, 5):
        worst = max(worst, *transformation_commutators(p, 14))
    add("commutators", worst <= 1e-12,
        f"max Frobenius norm {worst:.3e} (budget 1e-12)")

    ok = True
    details = []
    for p in (2, 3, 4):
        sharp = float(table.sharp_max[p])
        base = build_soft_system(p, 50, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IndefinitenessWarning)
            below = base.with_weights(0.99 * sharp)
            above = base.with_weights(1.01 * sharp)
        low = lowest_eigenvalue(above.A)
        # B > 0, so the pencil is positive iff A is (Sylvester's law)
        if cholesky_pivot(below.A) != 0:
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
        beta = 1.0 - eta / theo
        X = system.A.plus(-beta, system.stiffness)
        gap = lowest_eigenvalue(X)
        # dsbevx resolves no sign within a few eps ||X|| (the p = 2 gap)
        gap *= abs(gap) > 16 * np.finfo(float).eps * X.frobenius()
        scale = system.stiffness.frobenius()
        worst = min(worst, gap / scale)
        if gap < -1e-10 * scale:
            ok = False
    add("coercivity_certificate", ok,
        f"worst scaled slack {worst:.3e} (floor -1e-10; gaps within"
        f" 16 eps ||X||_F read as 0)")

    ok = True
    bounds = {2: (Fraction(37, 5040), Fraction(1, 1680)),
              3: (Fraction(131, 332640), Fraction(1, 27720))}
    for p, (c_default, c_super) in bounds.items():
        N = 20
        h = 1.0 / N
        top = space_dimension(p, N, "outlier_free")
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

    # a pair that breaks the contract raises in the solve, so this check
    # passes or the run exits 2
    spectrum = solve_system(build_soft_system(3, 24, table.default[3]))
    add("residual_contract", True,
        f"max residual bound {float(np.max(spectrum.residuals)):.3e}")

    return checks


def cmd_verify(args):
    """Run the oracle suite; exit 0 only when every check passes."""
    checks = _verify_checks()
    passed = all(c["pass"] for c in checks)
    _write(args.out, [json.dumps({"checks": checks, "pass": passed},
                                 sort_keys=True, indent=2) + "\n"])
    return EXIT_OK if passed else EXIT_VERIFICATION


def _int_list(text):
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated"
                                         f" integers, got {text!r}")


# argparse settings of every option, by option string
_OPTIONS = {
    "-p": {"type": int, "default": 2, "help": "spline degree (default 2)"},
    "-N": {"type": int, "default": 16, "help": "elements per direction"},
    "-d": {"type": int, "choices": (1, 2, 3), "default": 1,
           "help": "spatial dimension"},
    "--method": {"choices": sorted(_METHOD_FLAVOR), "default": "softiga"},
    "--eta": {"help": "softness weight: default, super, zero, or a number"
                      " (default: default, or zero for --method iga and"
                      " of-iga)"},
    "--eta-b": {"default": "zero",
                "help": "mass-side weight: zero, paper, or a number"},
    "--baseline": {"choices": sorted(_METHOD_FLAVOR), "default": "iga",
                   "help": "unsoftened pencil to compare against: iga, or"
                           " of-iga (softiga names the same of-iga"
                           " baseline)"},
    "--N-list": {"type": _int_list, "default": (9, 12, 15, 18, 21, 24, 27, 30),
                 "help": "comma-separated element counts"},
    "--j": {"type": int, "default": 1, "help": "mode index"},
    "--quantity": {"choices": ("eigenvalue", "h1"), "default": "eigenvalue"},
    "--grid-points": {"type": int, "default": 13},
    "--out": {"help": "output path (default stdout)"},
    "--format": {"choices": ("csv", "json"), "default": "csv"},
}

_PENCIL = ("-p", "-N", "-d", "--method", "--eta", "--eta-b")
_REPORT = ("--out", "--format")

# help text and options of every subcommand; each takes exactly the
# options its cmd_* function reads
_COMMANDS = {
    "spectrum": ("discrete vs continuum spectrum", _PENCIL + _REPORT),
    "condition": ("condition-number reduction",
                  _PENCIL + ("--baseline",) + _REPORT),
    "convergence": ("error slopes over meshes",
                    ("-p", "--method", "--eta", "--eta-b", "--N-list",
                     "--j", "--quantity") + _REPORT),
    "eta-sweep": ("weight sweep up to the sharp bound",
                  ("-p", "-N", "-d", "--grid-points") + _REPORT),
    "dispersion": ("dispersion-coefficient fit", ("-p", "--eta") + _REPORT),
    "verify": ("cross-module oracle suite", ("--out",)),
}


def build_parser():
    parser = _Parser(prog="softiga",
                     description="Spectral reports for softened"
                                 " isogeometric discretizations of the"
                                 " Laplace eigenproblem on the unit"
                                 " cube.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, options) in _COMMANDS.items():
        sp = sub.add_parser(command, help=text)
        for option in options:
            sp.add_argument(option, **_OPTIONS[option])
    return parser


# built once: main parses with it on every call
_PARSER = build_parser()


def _probe(path):
    """Refuse an --out path that cannot be written, before any work;
    True when the probe created it. A regular file is opened for
    appending, and its directory must be writable for the temporary
    file of ``_write``. Any other path is only asked: opening and
    closing a named pipe would hand its reader an end of file."""
    target = os.path.realpath(path)
    if os.path.exists(target) and not (os.path.isfile(target)
                                       or os.path.isdir(target)):
        if not os.access(target, os.W_OK):
            raise ConfigError(f"--out {path} is not writable")
        return False
    directory = os.path.dirname(target)
    if os.path.isdir(directory) and not os.access(directory,
                                                  os.W_OK | os.X_OK):
        raise ConfigError(f"--out {path}: its directory {directory} is not"
                          f" writable")
    existed = os.path.exists(path)
    open(path, "a").close()
    return not existed


def main(argv=None):
    args = _PARSER.parse_args(argv)
    # looked up at call time, so a rebound cmd_* function is the one run
    command = globals()["cmd_" + args.command.replace("-", "_")]
    created = False
    try:
        try:
            if args.out:
                created = _probe(args.out)
            return command(args)
        except BaseException:
            if created:
                # nor an empty report where there was no file, whatever
                # the failure
                os.remove(args.out)
            raise
    except (ConfigError, KeyError, ValueError, OSError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"softiga: config error: {message}", file=sys.stderr)
        return EXIT_CONFIG
    except (DefinitenessError, EigenSolveError,
            np.linalg.LinAlgError) as exc:
        print(f"softiga: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
