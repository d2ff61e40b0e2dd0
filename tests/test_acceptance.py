"""Acceptance gate: ten numbered criteria, one summary line each.

Every test prints exactly one line, ``criterion N: PASS`` or
``criterion N: FAIL - detail``, then asserts on it. Criteria 1 and 2
run the shipped ``condition`` command and compare its row against the
published reduction tables; their quartic target columns were
tabulated without the boundary softness contribution that the bilinear
form requires for even degrees, so the faithful assembly reproduces
every other column and fails those six groups honestly (see README).
"""

import contextlib
import io
import math
import sys
import time
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from oracles import (band_product, closed_form_vectors, lam_min,
                     softened_reference)
from softiga.analytic import (analytic_eigenvalue, commutator_norm,
                              eta_table, fit_leading_coefficient,
                              reference_matrix)
from softiga.assembly import IndefinitenessWarning, build_soft_system
from softiga.cli import EXIT_OK, main
from softiga.spectral_analysis import (convergence_slope,
                                       mode_convergence, solve_system)
from softiga.splines import eval_basis, open_knot_vector

# (d, p) -> lambda_min, lambda_max_baseline, lambda_max_target,
#           gamma_baseline, gamma_target, rho, varrho_pct
_TABLE_ONE = {
    (1, 2): (9.8696, 1.0000e5, 4.7059e4, 1.0132e4, 4.7681e3, 2.1250,
             52.94),
    (1, 3): (9.8696, 1.4556e5, 5.7581e4, 1.4748e4, 5.8341e3, 2.5279,
             60.44),
    (1, 4): (9.8696, 2.4490e5, 6.8279e4, 2.4814e4, 6.9181e3, 3.5868,
             72.12),
    (2, 2): (1.9739e1, 3.2000e4, 1.5059e4, 1.6211e3, 7.6289e2, 2.1250,
             52.94),
    (2, 3): (1.9739e1, 4.6579e4, 1.8425e4, 2.3597e3, 9.3342e2, 2.5280,
             60.44),
    (2, 4): (1.9739e1, 7.8369e4, 2.1849e4, 3.9702e3, 1.1069e3, 3.5868,
             72.12),
    (3, 2): (2.9609e1, 1.2000e4, 5.6471e3, 4.0528e2, 1.9072e2, 2.1250,
             52.94),
    (3, 3): (2.9609e1, 1.7470e4, 6.9051e3, 5.9004e2, 2.3321e2, 2.5301,
             60.48),
    (3, 4): (2.9609e1, 2.9392e4, 8.1964e3, 9.9268e2, 2.7682e2, 3.5860,
             72.11),
}
_TABLE_TWO = {
    (1, 3): (9.8696, 9.8675e4, 5.7581e4, 9.9979e3, 5.8341e3, 1.7137,
             41.65),
    (1, 4): (9.8696, 9.8710e4, 6.8279e4, 1.0001e4, 6.9181e3, 1.4457,
             30.83),
    (2, 3): (1.9739e1, 3.1331e4, 1.8425e4, 1.5872e3, 9.3342e2, 1.7004,
             41.19),
    (2, 4): (1.9739e1, 3.1587e4, 2.1849e4, 1.6002e3, 1.1069e3, 1.4457,
             30.83),
    (3, 3): (2.9609e1, 1.1437e4, 6.9051e3, 3.8627e2, 2.3321e2, 1.6563,
             39.63),
    (3, 4): (2.9609e1, 1.1845e4, 8.1964e3, 4.0006e2, 2.7682e2, 1.4452,
             30.80),
}
_COLUMNS = ("lambda_min", "lambda_max_baseline", "lambda_max_target",
            "gamma_baseline", "gamma_target", "rho", "varrho_pct")
_MESH_FOR_DIM = {1: 100, 2: 40, 3: 20}

SOLVE_LOG = []


# every public solver whose pairs the criteria reach: the dense solve,
# the band solve of the ``condition`` command and the closed-form pairs
# of ``solve_system``, wrapped under every module name they are called by
_SOLVERS = ("generalized_eig", "extreme_eigenpairs", "solve_system")
_SOLVER_MODULES = ("softiga.eigensolve", "softiga.spectral_analysis",
                   "softiga.cli", "oracles", __name__)


def _log_solve(spectrum, vectors, B):
    """Log the residual contract and the B-orthonormality defect of the
    pairs of one solve, its vectors, with the solver's own B."""
    gram = vectors.T @ band_product(B, vectors)
    SOLVE_LOG.append((
        bool(np.all(spectrum.residuals <= spectrum.residual_bounds)),
        float(np.max(np.abs(gram - np.eye(gram.shape[0])))),
    ))


def _tracked(name, solve):
    if name == "solve_system":
        def wrapped(system):
            spectrum = solve(system)
            # elsewhere it is generalized_eig, which logs itself
            if system.space.odd:
                _log_solve(spectrum, closed_form_vectors(system, spectrum),
                           system.B)
            return spectrum
    else:
        def wrapped(A, B, *args):
            spectrum = solve(A, B, *args)
            _log_solve(spectrum, spectrum.vectors, B)
            return spectrum
    return wrapped


@pytest.fixture(autouse=True, scope="module")
def _track_solves():
    """Record residual-contract and B-orthonormality facts per solve."""
    bindings = [(sys.modules[module], name) for module in _SOLVER_MODULES
                for name in _SOLVERS if hasattr(sys.modules[module], name)]
    originals = [getattr(module, name) for module, name in bindings]
    for (module, name), original in zip(bindings, originals):
        setattr(module, name, _tracked(name, original))
    yield
    for (module, name), original in zip(bindings, originals):
        setattr(module, name, original)


def _finish(num, failures):
    if failures:
        shown = "; ".join(failures[:6])
        more = f"; +{len(failures) - 6} more" if len(failures) > 6 else ""
        line = f"criterion {num}: FAIL - {shown}{more}"
    else:
        line = f"criterion {num}: PASS"
    print(line)
    assert not failures, line


def _condition_row(p, N, d, baseline):
    """The one CSV row of the shipped ``condition`` command, by column."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["condition", "-p", str(p), "-N", str(N), "-d", str(d),
                     "--baseline", baseline])
    assert code == EXIT_OK
    header, row = out.getvalue().splitlines()
    return dict(zip(header.split(","), map(float, row.split(","))))


def _table_failures(printed, baseline, degrees):
    failures = []
    for (d, p), expected in sorted(printed.items()):
        if p not in degrees:
            continue
        row = _condition_row(p, _MESH_FOR_DIM[d], d, baseline)
        got = [row[name] for name in _COLUMNS]
        bad = []
        for name, value, digits in zip(_COLUMNS, got, expected):
            tol = 0.01 if name == "varrho_pct" else 5e-5 * abs(digits)
            if abs(value - digits) > tol:
                bad.append((name, value, digits))
        if bad:
            name, value, digits = bad[0]
            extra = f" (+{len(bad) - 1} cols)" if len(bad) > 1 else ""
            failures.append(f"d={d} p={p} {name} {value:.5e}"
                            f" vs {digits:.5e}{extra}")
    return failures


def test_criterion_01_reduction_table_vs_plain_iga():
    start = time.perf_counter()
    failures = _table_failures(_TABLE_ONE, "iga", (2, 3, 4))
    elapsed = time.perf_counter() - start
    if elapsed > 60.0:
        failures.append(f"took {elapsed:.1f}s (budget 60s)")
    _finish(1, failures)


def test_criterion_02_reduction_table_vs_outlier_free():
    failures = _table_failures(_TABLE_TWO, "of-iga", (3, 4))
    _finish(2, failures)


def test_criterion_03_assembled_matches_closed_forms():
    table = eta_table()
    failures = []
    for p in (2, 3, 4):
        for N in (8, 16, 32, 64):
            for mode in ("zero", "default", "superconvergent"):
                eta = F(0) if mode == "zero" else table.resolve(p, mode)
                values = solve_system(build_soft_system(p, N, eta)).values
                top = N if p % 2 == 0 else N - 1
                exact = np.array([analytic_eigenvalue(p, float(eta), j, N)
                                  for j in range(1, top + 1)])
                gap = float(np.max(np.abs(values - exact) / exact))
                if gap > 1e-9:
                    failures.append(f"p={p} N={N} eta={mode}:"
                                    f" rel gap {gap:.2e}")
    _finish(3, failures)


def test_criterion_04_commutators_with_analysis_matrix():
    table = eta_table()
    failures = []
    for p in (2, 3, 4, 5):
        T = reference_matrix("T", p, 14)
        pairs = [("K", reference_matrix("K", p, 14)),
                 ("M", reference_matrix("M", p, 14))]
        default = table.default.get(p)
        if default is not None:
            pairs.append(("softened", softened_reference(p, 14,
                                                         default)[0]))
        for label, matrix in pairs:
            norm = commutator_norm(matrix, T)
            if norm > 1e-12:
                failures.append(f"p={p} [{label},T] norm {norm:.2e}")
    _finish(4, failures)


def test_criterion_05_coercivity_and_sharpness():
    table = eta_table()
    failures = []
    for p in (2, 3, 4):
        sharp = float(table.sharp_max[p])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IndefinitenessWarning)
            below = solve_system(build_soft_system(p, 50, 0.99 * sharp))
            above = solve_system(build_soft_system(p, 50, 1.01 * sharp))
        if lam_min(below) <= 0:
            failures.append(f"p={p}: not coercive below the sharp bound"
                            f" (min {lam_min(below):.2e})")
        if lam_min(above) >= 0:
            failures.append(f"p={p}: pencil not indefinite above the"
                            f" sharp bound (min {lam_min(above):.2e})")
        eta = float(table.default[p])
        beta = 1.0 - eta / float(table.theoretical_max[p])
        system = build_soft_system(p, 50, eta)
        K = system.stiffness.toarray()
        slack = float(np.linalg.eigvalsh(system.A.toarray() - beta * K)[0])
        floor = -1e-10 * float(np.linalg.norm(K))
        if slack < floor:
            failures.append(f"p={p}: coercivity certificate slack"
                            f" {slack:.2e} below {floor:.2e}")
    _finish(5, failures)


def test_criterion_06_convergence_slopes():
    table = eta_table()
    ns = [9, 12, 15, 18, 21, 24, 27, 30]
    failures = []

    def check(label, ns_used, errors, expected, width):
        slope = convergence_slope(ns_used, errors)
        if abs(slope - expected) > width:
            failures.append(f"{label}: slope {slope:.3f}"
                            f" outside {expected}+/-{width}")

    for p in (2, 3, 4):
        eta = float(table.default[p])
        for j in (1, 3):
            check(f"eigenvalue p={p} j={j}", ns,
                  mode_convergence(p, ns, j, eta=eta), 2 * p, 0.2)
        check(f"h1 p={p} j=1", ns, mode_convergence(p, ns, 1, "h1", eta),
              p, 0.1)
    for p, ns_used in ((2, ns), (3, ns), (4, [6, 9, 12, 15, 18])):
        eta = float(table.superconvergent[p])
        check(f"super p={p} j=1", ns_used,
              mode_convergence(p, ns_used, 1, eta=eta), 2 * p + 2, 0.3)
    _finish(6, failures)


def test_criterion_07_eigenvalue_error_bounds():
    table = eta_table()
    constants = {2: (F(37, 5040), F(1, 1680)),
                 3: (F(131, 332640), F(1, 27720))}
    failures = []
    for N in (10, 20, 40):
        h = 1.0 / N
        for p, (c_any, c_super) in constants.items():
            top = N if p % 2 == 0 else N - 1
            for mode in ("default", "superconvergent"):
                eta = float(table.resolve(p, mode))
                for j in range(1, top + 1):
                    t = j * math.pi * h
                    lam = (j * math.pi) ** 2
                    err = abs(analytic_eigenvalue(p, eta, j, N)
                              - lam) / lam
                    if not err < (float(c_any) + eta) * t ** (2 * p):
                        failures.append(f"p={p} N={N} j={j} eta={mode}:"
                                        f" general bound not strict")
                    if mode == "superconvergent":
                        if not err < float(c_super) * t ** (2 * p + 2):
                            failures.append(f"p={p} N={N} j={j}:"
                                            f" super bound not strict")
    _finish(7, failures)


def test_criterion_08_dispersion_coefficients():
    table = eta_table()
    failures = []
    for p in (2, 3, 4, 5):
        for mode in ("zero", "superconvergent"):
            eta = F(0) if mode == "zero" else table.superconvergent[p]
            fitted, exact, power = fit_leading_coefficient(p, eta)
            gap = abs(fitted - float(exact)) / abs(float(exact))
            if gap > 0.01:
                failures.append(f"p={p} eta={mode}: t^{power}"
                                f" coefficient off by {gap:.2%}")
    _finish(8, failures)


def test_criterion_09_eigenvalue_sandwich():
    table = eta_table()
    failures = []
    for p in (2, 3, 4):
        eta = float(table.default[p])
        factor = 1.0 - eta / float(table.theoretical_max[p])
        soft = solve_system(build_soft_system(p, 40, eta)).values
        plain = solve_system(build_soft_system(p, 40, 0.0)).values
        if not np.all(soft < plain):
            failures.append(f"p={p}: softened eigenvalue not strictly"
                            f" below the unsoftened one")
        slack = np.zeros_like(soft)
        if p == 2:
            # theta_2 = 1/48 = sharp_2, and at t = pi (j = N, the top
            # pair) the closed form's numerator factor 2 - 18 eta + (1 +
            # 24 eta) cos t - 6 eta cos 2t is 1 - 48 eta against 1 at
            # eta = 0: the lower bound is an equality there, which the
            # computed pair may miss by round-off (1.1 eps * lambda_N)
            exact = F(table.default[2])
            assert table.theoretical_max[2] == table.sharp_max[2] == F(1, 48)
            assert (2 - 18 * exact - (1 + 24 * exact) - 6 * exact
                    == 1 - exact / table.theoretical_max[2])
            slack[-1] = 4 * np.finfo(float).eps * plain[-1]
        if not np.all(soft >= factor * plain - slack):
            worst = float(np.min(soft - factor * plain))
            failures.append(f"p={p}: lower sandwich violated by"
                            f" {worst:.2e}")
    _finish(9, failures)


def test_criterion_10_property_floor():
    table = eta_table()
    solve_system(build_soft_system(3, 12, table.default[3]))
    failures = []
    if not SOLVE_LOG:
        failures.append("no solves recorded")
    if not all(ok for ok, _ in SOLVE_LOG):
        bad = sum(1 for ok, _ in SOLVE_LOG if not ok)
        failures.append(f"residual contract violated on {bad} of"
                        f" {len(SOLVE_LOG)} solves")
    worst_gram = max(dev for _, dev in SOLVE_LOG) if SOLVE_LOG else 1.0
    if worst_gram > 1e-10:
        failures.append(f"B-orthonormality deviation {worst_gram:.2e}")

    rng = np.random.default_rng(7)
    for p in (2, 3, 4, 5):
        kv = open_knot_vector(p, 16)
        xs = np.concatenate([rng.uniform(0, 1, 40),
                             np.linspace(0.0, 1.0, kv.N + 1)])
        for x in xs:
            basis = eval_basis(kv, float(x))
            total = float(np.sum(basis.ders[-1]))
            if abs(total - 1.0) > 1e-12:
                failures.append(f"partition of unity off by"
                                f" {abs(total - 1.0):.2e} at p={p}")
                break
            for m in range(p + 1):
                lo = kv.knots[basis.element + m]
                hi = kv.knots[basis.element + m + p + 1]
                if not lo <= x <= hi:
                    failures.append(f"support window wrong at p={p}"
                                    f" x={x:.4f}")
                    break
    _finish(10, failures)
