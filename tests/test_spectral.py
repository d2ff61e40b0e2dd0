"""Spectrum reports, eigenfunction errors, condition statistics, weight
sweeps, and convergence fits."""

import dataclasses
import functools
import math
import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

import softiga.eigensolve as eigensolve
import softiga.spectral_analysis as spectral
from oracles import (band_product, closed_form_vectors, dense_extraction,
                     dispersion_eigenvalue, full_lift_values,
                     pythagorean_residual, raw_coefficients, sine_modes)
from softiga.analytic import (analytic_eigenvalue, eta_table,
                              interior_symbol, sharp_weight)
from softiga.assembly import IndefinitenessWarning, build_soft_system
from softiga.eigensolve import (EigenSolveError, SymBandedMatrix,
                                _checked_pencil, generalized_eig)
from softiga.spaces import build_of_space, sine_table
from softiga.spectral_analysis import (ConditionStats,
                                       InsufficientDataError,
                                       condition_stats, convergence_slope,
                                       eta_sweep, h1_errors_for_modes,
                                       mode_convergence,
                                       reweighted_values, solve_system,
                                       spectral_report)


def _report(p, N, eta, d=1):
    """Rank-paired report of one freshly assembled and solved pencil."""
    return spectral_report(solve_system(build_soft_system(p, N, eta)).values,
                           d)


def test_relative_errors_report_shape_and_pairing():
    report = _report(2, 12, 0.0)
    assert report.indices.shape == (12, 1)
    assert report.indices[0].tolist() == [1]
    assert report.exact[0] == pytest.approx(math.pi ** 2)
    assert report.computed.shape == report.exact.shape
    # errors grow toward the top of the spectrum
    assert report.rel_errors[0] < report.rel_errors[-1]
    assert np.all(np.diff(report.computed) > 0)


def test_relative_errors_match_closed_form_errors():
    p, N = 3, 16
    eta = float(eta_table().default[p])
    report = _report(p, N, eta)
    for j in (1, 2, 5):
        lam = (j * math.pi) ** 2
        expected = abs(analytic_eigenvalue(p, eta, j, N) - lam) / lam
        assert report.rel_errors[j - 1] == pytest.approx(expected,
                                                         rel=1e-6)


def test_superconvergent_first_mode_hits_machine_floor():
    # quartic on 24 elements at the superconvergent weight leaves no
    # measurable error in the first eigenvalue
    eta = float(eta_table().superconvergent[4])
    report = _report(4, 24, eta)
    assert report.rel_errors[0] < 1e-14


def test_two_dimensional_report_uses_index_tuples():
    report = _report(2, 6, 0.0, d=2)
    assert report.indices[0].tolist() == [1, 1]
    assert report.exact[0] == pytest.approx(2 * math.pi ** 2)
    assert report.indices.shape == (36, 2)


def test_h1_error_decreases_with_refinement_at_rate_p():
    ns = [9, 12, 15, 18, 21, 24, 27, 30]
    errs = mode_convergence(2, ns, 1, "h1", float(eta_table().default[2]))
    slope = convergence_slope(ns, errs)
    assert slope == pytest.approx(2.0, abs=0.1)


def test_higher_modes_have_larger_h1_error():
    eta = float(eta_table().default[3])
    e1, = mode_convergence(3, [20], 1, "h1", eta)
    e3, = mode_convergence(3, [20], 3, "h1", eta)
    assert e3 > e1 > 0


def test_condition_stats_identities():
    target = np.array([1.0, 50.0])
    baseline = np.array([1.0, 100.0])
    stats = condition_stats(target, baseline)
    assert isinstance(stats, ConditionStats)
    assert stats.rho == pytest.approx(2.0)
    assert stats.varrho_pct == pytest.approx(50.0)
    # varrho is determined by rho
    assert stats.varrho_pct == pytest.approx(100 * (1 - 1 / stats.rho))
    same = condition_stats(baseline, baseline)
    assert same.rho == pytest.approx(1.0)
    assert same.varrho_pct == pytest.approx(0.0)
    with pytest.raises(ValueError):
        condition_stats(np.array([-1.0, 2.0]), baseline)
    with pytest.raises(ValueError):
        condition_stats(np.array([]), baseline)


def test_condition_stats_table_reference_row():
    # quadratic 1D row: gamma drops from 1.0132e4 to 4.7681e3
    target = full_lift_values(2, 100, float(eta_table().default[2]))
    baseline = full_lift_values(2, 100, 0.0, flavor="standard")
    stats = condition_stats(target, baseline)
    assert stats.lambda_min == pytest.approx(9.8696, rel=5e-5)
    assert stats.lambda_max_baseline == pytest.approx(1.0000e5, rel=5e-5)
    assert stats.lambda_max_target == pytest.approx(4.7059e4, rel=5e-5)
    assert stats.gamma_baseline == pytest.approx(1.0132e4, rel=5e-5)
    assert stats.gamma_target == pytest.approx(4.7681e3, rel=5e-5)
    assert stats.rho == pytest.approx(2.1250, rel=5e-5)
    assert stats.varrho_pct == pytest.approx(52.94, abs=0.01)


def test_eta_sweep_rho_matches_quadratic_formula():
    # on the quadratic space the reduction ratio has a closed form in
    # the weight and the mesh size
    N = 24
    h = 1.0 / N
    etas = [0.0, 1e-3, 5e-3, 1e-2]
    rows = eta_sweep(2, N, etas)
    c1, c2 = math.cos(math.pi * h), math.cos(2 * math.pi * h)
    for (eta, rho, _), eta_in in zip(rows, etas):
        assert eta == pytest.approx(eta_in)
        expected = ((2 - 18 * eta + (1 + 24 * eta) * c1 - 6 * eta * c2)
                    / ((1 - 48 * eta) * (2 + c1)))
        assert rho == pytest.approx(expected, rel=1e-9)


def test_eta_sweep_rho_is_monotone_and_errors_dip_near_super():
    N = 20
    sharp = float(eta_table().sharp_max[2])
    super_eta = float(eta_table().superconvergent[2])
    etas = np.linspace(0.0, 0.9 * sharp, 12)
    rows = eta_sweep(2, N, etas)
    rhos = [r[1] for r in rows]
    assert all(b > a for a, b in zip(rhos, rhos[1:]))
    # total eigenvalue error is minimized near the superconvergent
    # weight (between half and three times it) and beats eta = 0
    grid = np.linspace(0.0, 10 * super_eta, 41)
    errors = [row[2] for row in eta_sweep(2, N, grid)]
    best = grid[int(np.argmin(errors))]
    assert 0.5 * super_eta < best < 3.0 * super_eta
    idx_super = int(np.argmin(np.abs(grid - super_eta)))
    assert errors[idx_super] < errors[0]


def test_eta_sweep_rejects_weights_at_or_beyond_sharp():
    sharp = float(eta_table().sharp_max[2])
    with pytest.raises(ValueError):
        eta_sweep(2, 10, [0.0, sharp])
    with pytest.raises(ValueError):
        eta_sweep(2, 10, [-1e-4])


def test_convergence_slope_on_synthetic_data():
    ns = np.array([10, 20, 40, 80])
    errors = 3.7 * (1.0 / ns) ** 4
    assert convergence_slope(ns, errors) == pytest.approx(4.0)
    # zero errors are dropped; a single survivor cannot be fitted
    with pytest.raises(InsufficientDataError):
        convergence_slope([10, 20], [0.0, 1e-8])
    with pytest.raises(ValueError):
        convergence_slope([10, 20], [1e-3])


def test_convergence_slope_needs_two_distinct_meshes():
    with pytest.raises(InsufficientDataError):
        convergence_slope([8, 8], [1e-3, 2e-3])
    # the one other mesh carries no positive error
    with pytest.raises(InsufficientDataError):
        convergence_slope([8, 8, 16], [1e-3, 1e-3, 0.0])
    assert convergence_slope([8, 8, 16], [1e-3, 1e-3, 1.25e-4]) == (
        pytest.approx(3.0))


def test_eigenvalue_convergence_rates():
    ns = [9, 12, 15, 18, 21, 24, 27, 30]
    for p, eta_name, expected, tol in [
            (2, "default", 4.0, 0.2), (3, "default", 6.0, 0.2),
            (2, "superconvergent", 6.0, 0.3)]:
        eta = float(eta_table().resolve(p, eta_name))
        errs = mode_convergence(p, ns, 1, eta=eta)
        assert convergence_slope(ns, errs) == pytest.approx(expected,
                                                            abs=tol)


def test_pythagorean_identity_residual_is_negligible():
    for p, N in [(2, 16), (3, 16)]:
        eta = float(eta_table().default[p])
        residual, gap = pythagorean_residual(p, N, eta, 2)
        assert gap > 0
        assert residual <= 1e-3 * gap


# (id, function, its arguments with the mode index last, space
# dimension): mode_convergence takes the smallest over the N list, whose
# smaller mesh comes second so that a late check would assemble first
_MODE_FUNCTIONS = [
    ("mode_convergence-eigenvalue", mode_convergence, (2, [16, 8]), 8),
    ("mode_convergence-h1", functools.partial(mode_convergence,
                                              quantity="h1"),
     (3, [16, 8]), 7),
    ("mode_convergence-h1-one_mesh", functools.partial(mode_convergence,
                                                       quantity="h1"),
     (2, [8]), 8),
]


@pytest.mark.parametrize("function,args,dim",
                         [case[1:] for case in _MODE_FUNCTIONS],
                         ids=[case[0] for case in _MODE_FUNCTIONS])
def test_mode_index_out_of_range_is_refused_before_assembly(
        function, args, dim, monkeypatch):
    builds = []
    monkeypatch.setattr(spectral, "build_soft_system",
                        lambda *a, **k: builds.append(a))
    for j in (0, -1, dim + 1):
        with pytest.raises(ValueError, match="mode index"):
            function(*args, j)
    assert builds == []
    monkeypatch.undo()
    # the top mode itself is accepted
    assert np.all(np.isfinite(function(*args, dim)))


def test_mode_convergence_refuses_an_unknown_quantity_before_assembly(
        monkeypatch):
    builds = []
    monkeypatch.setattr(spectral, "build_soft_system",
                        lambda *a, **k: builds.append(a))
    for quantity in ("l2", "H1", None):
        with pytest.raises(ValueError, match="quantity"):
            mode_convergence(2, [8, 16], 1, quantity)
    assert builds == []


def test_lifted_spectrum_dimensions():
    one = full_lift_values(2, 6, 0.0)
    two = full_lift_values(2, 6, 0.0, d=2)
    assert one.size == 6
    assert two.size == 36
    assert two[0] == pytest.approx(2 * one[0], rel=1e-12)


def _counting(monkeypatch, name):
    """Record the arguments of every call to spectral_analysis.<name>."""
    calls = []
    original = getattr(spectral, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(spectral, name, counting)
    return calls


def _fresh_rows(p, N, etas, d=1):
    """eta_sweep rows from one assembly and one solve per weight."""
    baseline = full_lift_values(p, N, 0.0, d=d)
    rows = []
    for eta in etas:
        report = _report(p, N, eta, d)
        stats = condition_stats(report.computed, baseline)
        rows.append((eta, stats.rho,
                     float(np.sqrt(np.sum(report.rel_errors ** 2)))))
    return rows


def test_eta_sweep_assembles_once_and_matches_fresh_builds(monkeypatch):
    builds = _counting(monkeypatch, "build_soft_system")
    closed_form = _counting(monkeypatch, "_sine_pairs")
    dense = _counting(monkeypatch, "generalized_eig")
    etas = [0.0, 2e-3, 8e-3]
    rows = eta_sweep(2, 16, etas, d=2)
    # the one solve is the closed form
    assert len(builds) == len(closed_form) == 1
    assert dense == []
    monkeypatch.undo()
    # the reweighted rows differ from fresh solves by round-off: at most
    # 3.9e-15 relative at this size over the default 13-weight grid
    np.testing.assert_allclose(rows, _fresh_rows(2, 16, etas, d=2),
                               rtol=1e-13, atol=0)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_reweighted_rows_match_fresh_solves(p):
    grid = np.linspace(0.0, float(eta_table().sharp_max[p]), 13,
                       endpoint=False)
    # both carry the eps * lambda_max / lambda_1 floor of the Rayleigh
    # quotients, which grows as N^2: at N = 200 the rows differ by at
    # most 5.4e-13 relative (p = 2)
    for N in (10, 50, 200):
        np.testing.assert_allclose(eta_sweep(p, N, grid),
                                   _fresh_rows(p, N, grid), rtol=2e-12,
                                   atol=0)


@pytest.mark.parametrize("p", [2, 3])
def test_reweighting_keeps_the_mass_side_weight(p):
    table = eta_table()
    eta_b = table.mass_side[p]
    etas = [0.0, table.default[p], table.superconvergent[p]]
    values = reweighted_values(build_soft_system(p, 30, 0.0, eta_b), etas)
    for eta, reweighted in zip(etas, values):
        fresh = solve_system(build_soft_system(p, 30, eta, eta_b)).values
        # 3.8e-15 at most, measured
        np.testing.assert_allclose(reweighted, fresh, rtol=1e-13, atol=0)


def test_reweighting_a_space_its_vectors_do_not_diagonalize_fails(
        monkeypatch):
    # on the standard space with p >= 3 the eta = 0 eigenvectors do not
    # diagonalize S, so no one set of vectors serves every weight: the
    # space is refused before its pencil is checked or its pairs formed
    checks = _counting(monkeypatch, "_checked_pencil")
    modes = _counting(monkeypatch, "_sine_pairs")
    system = build_soft_system(3, 20, 0.0, flavor="standard")
    for etas in ([0.0], [0.0, eta_table().default[3]]):
        with pytest.raises(ValueError, match="closed-form"):
            reweighted_values(system, etas)
    assert checks == modes == []


@pytest.mark.parametrize("points", [1, 13, 300])
def test_a_sweep_is_one_solve_and_one_contract_check(points, monkeypatch):
    # the grid is one array from the pairs to the rows: one assembly, one
    # set of pairs, one contract check, and no lift or condition number
    # per weight
    names = ("build_soft_system", "_sine_pairs", "_contract",
             "kron_sum_spectrum", "condition_stats")
    calls = {name: _counting(monkeypatch, name) for name in names}
    grid = np.linspace(0.0, float(eta_table().sharp_max[2]), points,
                       endpoint=False)
    rows = eta_sweep(2, 12, grid, d=2)
    assert len(rows) == points
    assert {name: len(c) for name, c in calls.items()} == {
        "build_soft_system": 1, "_sine_pairs": 1, "_contract": 1,
        "kron_sum_spectrum": 0, "condition_stats": 0}


def test_reweighting_warns_once_per_weight_at_or_beyond_sharp():
    # the text of a single weight's check, once for each weight
    sharp = float(sharp_weight(2))
    system = build_soft_system(2, 10, 0.0)
    with pytest.warns(IndefinitenessWarning) as record:
        reweighted_values(system, [0.0, sharp, 1.5 * sharp])
    tail = (" is at or beyond the sharp threshold 0.020833333333333332 for"
            " p=2; the stiffness side may be indefinite")
    assert [str(w.message) for w in record] == [
        "eta=0.020833333333333332" + tail, "eta=0.03125" + tail]


@pytest.mark.parametrize("etas, message, warned", [
    ([0.0, math.nan], "finite", 0),
    ([0.0, -1e-3], "nonnegative", 0),
    ([-1.0, math.nan], "nonnegative", 0),
    ([math.inf], "finite", 0),
    ([-math.inf], "finite", 0),
    # the weights before the first refused one warn, as one at a time
    ([float(sharp_weight(2)), math.nan], "finite", 1),
])
def test_a_refused_weight_stops_the_grid_before_its_pencil(
        etas, message, warned, monkeypatch):
    checks = _counting(monkeypatch, "_checked_pencil")
    system = build_soft_system(2, 10, 0.0)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        with pytest.raises(ValueError) as refusal:
            reweighted_values(system, etas)
    assert str(refusal.value) == f"softness weights must be {message}"
    assert len(record) == warned
    assert checks == []


@pytest.mark.parametrize("p, N, etas, message", [
    (2, 10, [0.0, 0.01], "eigenpair 9 of 10 breaks the residual contract:"
     " residual 2.106e-12 above its bound 2.050e-298"),
    (3, 12, [0.0, 0.001, 0.002], "eigenpair 11 of 11 breaks the residual"
     " contract: residual 4.477e-12 above its bound 2.356e-298"),
])
def test_a_grid_breaking_the_contract_names_one_pair(p, N, etas, message,
                                                     monkeypatch):
    # messages of the one-weight-at-a-time checks: the worst pair of the
    # first weight that breaks the contract. The residuals were 1.879e-12
    # and 4.431e-12 while whole bands were certified from a regular run
    # and the symbol, where every row is now a product
    monkeypatch.setattr(eigensolve, "RESIDUAL_RTOL", 1e-300)
    with pytest.raises(EigenSolveError) as breach:
        reweighted_values(build_soft_system(p, N, 0.0), etas)
    assert str(breach.value) == message


def test_rows_of_pencils_are_checked_as_one_pencil_each():
    rng = np.random.default_rng(7)
    values = rng.permutation(np.tile(np.arange(6.0), (3, 2)).T).T
    residuals = rng.uniform(0.0, 1e-12, values.shape)
    norms = np.array([[2.0, 1.0], [3.0, 1.5], [4.0, 2.0]]).T[..., None]
    rows = eigensolve._contract(values, residuals, norms)
    for row in range(3):
        one = eigensolve._contract(values[row], residuals[row],
                                   norms[:, row, 0])
        assert rows[row].tobytes() == one.tobytes()
    # the breach named is the first row's that breaks, as alone
    residuals[1:, 4] = 1.0
    residuals[2, 7] = 5.0
    with pytest.raises(EigenSolveError) as alone:
        eigensolve._contract(values[1], residuals[1], norms[:, 1, 0])
    with pytest.raises(EigenSolveError, match=re.escape(str(alone.value))):
        eigensolve._contract(values, residuals, norms)


@pytest.mark.parametrize("flavor", ["standard", "outlier_free"])
def test_each_solve_checks_its_pencil_once(flavor, monkeypatch):
    # the standard space at p = 3 takes the dense solve, which factors B
    # once; the outlier-free one the closed form, whose B the symbol
    # proves positive with no factorization
    import softiga.eigensolve as eigensolve

    pivots = []
    original = eigensolve.cholesky_pivot

    def counting(B):
        pivots.append(B)
        return original(B)

    monkeypatch.setattr(eigensolve, "cholesky_pivot", counting)
    solve_system(build_soft_system(3, 20, 0.0, flavor=flavor))
    assert len(pivots) == (flavor == "standard")


def test_h1_mode_index_outside_the_spectrum_is_refused():
    system = build_soft_system(2, 8, 0.0)
    spectrum = solve_system(system)
    for j in (0, -1, spectrum.n + 1):
        with pytest.raises(ValueError, match="mode index"):
            h1_errors_for_modes(system, spectrum, [1, j])
    assert len(h1_errors_for_modes(system, spectrum, [1, spectrum.n])) == 2


def test_h1_errors_match_pointwise_sampling():
    # same eigenvectors, basis values sampled point by point
    from softiga.assembly import build_soft_system
    from softiga.spectral_analysis import h1_errors_for_modes, solve_system
    from softiga.splines import eval_basis

    for p, N in [(2, 12), (3, 9), (4, 10)]:
        system = build_soft_system(p, N, float(eta_table().default[p]))
        spectrum = solve_system(system)
        kv, E = system.space.kv, dense_extraction(system.space)
        vectors = closed_form_vectors(system, spectrum)
        nq = p + 4
        xg, wg = np.polynomial.legendre.leggauss(nq)
        mass = system.mass.toarray()
        js = range(1, spectrum.n + 1)
        expected = []
        for j in js:
            c = vectors[:, j - 1]
            c = E.T @ (c / math.sqrt(c @ mass @ c))
            omega = j * math.pi
            rows = []
            for e in range(N):
                for xq, wq in zip(xg, wg):
                    x = (e + 0.5 * (xq + 1.0)) / N
                    be = eval_basis(kv, x, 1)
                    local = c[be.element:be.element + p + 1]
                    rows.append((0.5 * wq / N, be.ders[0] @ local,
                                 be.ders[1] @ local,
                                 math.sqrt(2.0) * math.sin(omega * x),
                                 math.sqrt(2.0) * omega
                                 * math.cos(omega * x)))
            w, uh, duh, u, du = map(np.array, zip(*rows))
            sign = 1.0 if w @ (uh * u) >= 0 else -1.0
            expected.append(math.sqrt(w @ (sign * duh - du) ** 2))
        got = h1_errors_for_modes(system, spectrum, js)
        # the derivative of mode j has size j*pi, so its round-off floor
        # is an absolute eps * j * pi beside the relative 1e-12
        floor = 4 * np.finfo(float).eps * math.pi * np.array(js)
        assert np.all(np.abs(np.array(got) - expected)
                      <= 1e-12 * np.abs(expected) + floor)


def test_multi_dimensional_report_pairs_with_lattice_values():
    # 3D lift of 4 modes: the eighth target is (1, 1, 3), not (1, 2, 2)
    report = _report(2, 4, 0.0, d=3)
    assert report.computed.size == 64
    np.testing.assert_allclose(report.exact[:8] / math.pi ** 2,
                               [3, 6, 6, 6, 9, 9, 9, 11])


def test_one_mode_error_allocates_no_square_array():
    # the L2 norm of a mode is a quadrature, not a band or dense product
    system = build_soft_system(3, 400, 0.0)
    spectrum = solve_system(system)
    n = spectrum.n
    tracemalloc.start()
    try:
        h1_errors_for_modes(system, spectrum, [1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * n * n * 8


def _by_quadrature(system, spectrum):
    """The closed-form spectrum of the system with no mode numbers and,
    as its vectors, the raw coefficients of its modes in the oracle
    extraction: their first and last rows are zero, since the odd space
    lies in the standard one, so the rest are standard-space vectors,
    whose H1 errors are all integrated over every element."""
    raw = raw_coefficients(system.space, closed_form_vectors(system, spectrum))
    assert not raw[[0, -1]].any()
    return dataclasses.replace(spectrum, modes=None, vectors=raw[1:-1])


def _h1_gap_bound(ranks):
    """Bound on the gap between the two routes to the H1 error of rank
    j: the derivative of mode j has size j*pi, and both routes sit at
    the round-off floor of its square."""
    return 64 * np.finfo(float).eps * math.pi * np.asarray(ranks)


@pytest.mark.parametrize("p", range(1, 15))
def test_closed_form_h1_errors_match_the_quadrature(p):
    # every rank, j = N at even p included; measured within
    # 29.9 * eps * j * pi (4.1e-12 absolute) of the quadrature over all
    # elements at p <= 12 (p = 12, N = 200), and 57.4 at p = 14. The
    # bound holds to p = 14: the values of a top mode are sums of p + 1
    # B-spline pieces whose alternating coefficients cancel to about
    # (2/pi)^p of their size, so both routes lose about a factor pi/2
    # per degree, and the gap reads 75, 86, 212 and 593 * eps * j * pi at
    # p = 15, 16, 17 and 20. Against a 40-digit evaluation of the same
    # Gauss rule neither route is the one off: at p = 15, N = 40, j = 39
    # the closed form is 41.6 and the quadrature -33.4 * eps * j * pi
    # from it, at p = 16, N = 200, j = 199 -28.8 and 57.6.
    for N in sorted({*range(_smallest_mesh(p), 2 * p), 16, 40, 200}):
        system = build_soft_system(p, N, 0.0)
        spectrum = solve_system(system)
        ranks = np.arange(1, spectrum.n + 1)
        assert np.array_equal(spectrum.modes, ranks)
        closed = h1_errors_for_modes(system, spectrum, ranks)
        oracle = h1_errors_for_modes(system,
                                     _by_quadrature(system, spectrum), ranks)
        assert np.all(np.abs(np.subtract(closed, oracle))
                      <= _h1_gap_bound(ranks))


@pytest.mark.parametrize("p,N", [(2, 8), (2, 12), (2, 40), (3, 16),
                                 (3, 40)])
def test_ranks_filled_by_another_mode_are_integrated_from_their_vectors(
        p, N):
    # with the paper's mass-side weight the top modes leave their ranks:
    # at p = 2, N = 12 rank 10 holds mode 12, whose error against the
    # continuum mode 10 is 49.26; keyed on mode numbers alone, the
    # closed form gave 4.56 there. The oracle integrates these ranks from
    # their vectors; the package takes them from one element
    table = eta_table()
    system = build_soft_system(p, N, float(table.default[p]),
                               float(table.mass_side[p]))
    spectrum = solve_system(system)
    ranks = np.arange(1, spectrum.n + 1)
    moved = spectrum.modes != ranks
    assert moved.any()
    got = h1_errors_for_modes(system, spectrum, ranks)
    oracle = h1_errors_for_modes(system, _by_quadrature(system, spectrum),
                                 ranks)
    assert np.all(np.abs(np.subtract(got, oracle)) <= _h1_gap_bound(ranks))
    # a rank whose pair is another mode is far from its continuum mode
    assert min(np.array(got)[moved]) > 1.0
    if (p, N) == (2, 12):
        assert spectrum.modes[9] == 12
        assert got[9] == pytest.approx(49.26419024107608, rel=1e-12)


@pytest.mark.parametrize("p,N", [(1, 9), (2, 12), (3, 40), (4, 31),
                                 (5, 16), (8, 40), (12, 13)])
def test_one_mode_error_does_not_depend_on_the_other_ranks(p, N):
    # alone, in reverse order or among all ranks, and through
    # mode_convergence, each closed-form mode gives the same bits
    eta = float(eta_table().default.get(p) or 0)
    system = build_soft_system(p, N, eta)
    spectrum = solve_system(system)
    ranks = list(range(1, spectrum.n + 1))
    every = [e.hex() for e in h1_errors_for_modes(system, spectrum, ranks)]
    alone = [h1_errors_for_modes(system, spectrum, [j])[0].hex()
             for j in ranks]
    assert alone == every
    backward = h1_errors_for_modes(system, spectrum, ranks[::-1])
    assert [e.hex() for e in backward] == every[::-1]
    pairs = h1_errors_for_modes(system, spectrum, ranks[1::2] + ranks[::2])
    assert sorted(e.hex() for e in pairs) == sorted(every)
    for j in {1, len(ranks) // 2, len(ranks)}:
        error = mode_convergence(p, [N], j, "h1", eta)[0]
        assert error.hex() == every[j - 1]


@pytest.mark.parametrize("p,N,flavor", [(3, 40, "standard"),
                                        (4, 31, "standard"),
                                        (5, 16, "standard"),
                                        (13, 30, "standard")])
def test_one_dense_mode_error_does_not_depend_on_the_other_ranks(p, N,
                                                                 flavor):
    # the quadrature route of every dense solve: alone, in reverse or
    # interleaved order, among all ranks in several blocks, and through
    # mode_convergence, each rank gives the same bits
    system = build_soft_system(p, N, 0.0, 0.0, flavor)
    spectrum = solve_system(system)
    assert spectrum.modes is None
    ranks = list(range(1, spectrum.n + 1))
    every = [e.hex() for e in h1_errors_for_modes(system, spectrum, ranks)]
    alone = [h1_errors_for_modes(system, spectrum, [j])[0].hex()
             for j in ranks]
    assert alone == every
    backward = h1_errors_for_modes(system, spectrum, ranks[::-1])
    assert [e.hex() for e in backward] == every[::-1]
    pairs = h1_errors_for_modes(system, spectrum, ranks[1::2] + ranks[::2])
    assert sorted(e.hex() for e in pairs) == sorted(every)
    for j in {1, 7, len(ranks)}:
        error = mode_convergence(p, [N], j, "h1", 0.0, 0.0, flavor)[0]
        assert error.hex() == every[j - 1]


def test_every_closed_form_h1_error_peaks_at_a_few_values_per_point():
    # p = 3, N = 2000 (n = 1999): measured 18.5 n (p + 4) doubles,
    # arrays of one value per Gauss point of one element and mode;
    # integrating each mode over all elements took about 2 n^2 doubles
    # of vectors before it
    p = 3
    system = build_soft_system(p, 2000, 0.0)
    spectrum = solve_system(system)
    n = spectrum.n
    peak = _traced_peak(h1_errors_for_modes, system, spectrum,
                        range(1, n + 1))
    assert peak < 24 * n * (p + 4) * 8


def _gate_weights(p):
    """(eta, eta_b) pairs of the tabulated weights of degree p: zero,
    default and super, each alone and with the paper's mass-side
    weight where one is tabulated."""
    table = eta_table()
    etas = [0.0] + [float(w) for w in (table.default.get(p),
                                       table.superconvergent.get(p))
                    if w is not None]
    sides = [0.0] + ([float(table.mass_side[p])]
                     if table.mass_side.get(p) is not None else [])
    return [(eta, eta_b) for eta in etas for eta_b in sides]


def _smallest_mesh(p):
    """The smallest N on which the outlier-free space of degree p exists."""
    for N in range(1, 4 * p + 4):
        try:
            build_of_space(p, N)
        except ValueError:
            continue
        return N


@pytest.mark.parametrize("p", range(1, 21))
def test_closed_form_pairs_match_the_dense_solve(p, monkeypatch):
    # measured over these meshes and weights, at p <= 12: values within
    # 2.3e-12 relative of the dense solve's (p = 12, N = 200), which is
    # the eigenvalue of the rounded bands and carries all of the gap, the
    # closed form being within ``_SYMBOL_RTOL`` of the 50-digit
    # eigenvalue of the exact pencil; 1 - |x^T B v| below 5.3e-13, and
    # the residual contract kept with a margin above 3400. Past p = 12 the
    # dense solve loses digits at the top, up to 3.3e-9 of lambda_max at
    # p = 20, so there each route is held to the 50-digit values, the
    # dense one the farther; 1 - |x^T B v| below 3.5e-10 and the margin
    # above 81 (p = 20). The residuals are measured from the sampled
    # vectors; the certificates that the solve holds to the contract
    # reach 2.7e-2 of the bound at p <= 12 and 0.996 at p = 20, in double
    # precision, below the bound at which extended precision takes over
    def refuse(A, B):
        raise AssertionError("dense solve on a space with closed-form pairs")

    monkeypatch.setattr(spectral, "generalized_eig", refuse)
    N0 = _smallest_mesh(p)
    for N in sorted({N0, N0 + 1, 2 * p + 3, 40, 200}):
        for eta, eta_b in _gate_weights(p):
            system = build_soft_system(p, N, eta, eta_b)
            closed = solve_system(system)
            dense = generalized_eig(system.A, system.B)
            if p <= 12:
                np.testing.assert_allclose(closed.values, dense.values,
                                           rtol=3e-12, atol=0)
            else:
                exact = np.sort(_symbol_oracle(p, N, closed.modes, eta,
                                               eta_b))
                np.testing.assert_allclose(closed.values, exact,
                                           rtol=_SYMBOL_RTOL, atol=0)
                np.testing.assert_allclose(dense.values, exact, rtol=0,
                                           atol=1e-8 * exact[-1])
                assert (np.max(np.abs(closed.values - exact))
                        <= np.max(np.abs(dense.values - exact)))
            vectors = closed_form_vectors(system, closed)
            overlap = np.einsum("ij,ij->j", vectors,
                                band_product(system.B, dense.vectors))
            np.testing.assert_allclose(np.abs(overlap), 1.0, rtol=0,
                                       atol=2e-12 if p <= 12 else 1e-9)
            residuals = np.linalg.norm(
                band_product(system.A, vectors)
                - closed.values * band_product(system.B, vectors), axis=0)
            margin = 1e-3 if p <= 12 else 2e-2
            assert np.all(residuals <= margin * closed.residual_bounds)
            if p <= 12:
                assert np.all(closed.residuals
                              <= 3e-2 * closed.residual_bounds)


@pytest.mark.parametrize("p", range(3, 21, 2))
def test_closed_form_pairs_at_the_coarsest_odd_degree_mesh(p):
    # N = p leaves the space its two corners and no identity part;
    # measured within 9.3e-14 * lambda_max of the dense solve at
    # p <= 11; past it each route is held to the 50-digit values, where
    # the dense solve is 7.8e-12 (p = 17) and 1.1e-10 (p = 19) of
    # lambda_max off
    for eta, eta_b in _gate_weights(p):
        system = build_soft_system(p, p, eta, eta_b)
        closed = solve_system(system).values
        dense = generalized_eig(system.A, system.B).values
        assert len(closed) == p - 1
        if p <= 12:
            np.testing.assert_allclose(closed, dense, rtol=0,
                                       atol=5e-13 * dense[-1])
            continue
        exact = np.sort(_symbol_oracle(p, p, range(1, p), eta, eta_b))
        np.testing.assert_allclose(closed, exact, rtol=_SYMBOL_RTOL, atol=0)
        np.testing.assert_allclose(dense, exact, rtol=0,
                                   atol=1e-9 * exact[-1])


def test_standard_spaces_stay_dense(monkeypatch):
    dense = _counting(monkeypatch, "generalized_eig")
    for p, N in ((3, 20), (13, 40)):
        system = build_soft_system(p, N, 0.0, flavor="standard")
        assert solve_system(system).n == system.space.dim
    assert len(dense) == 2
    monkeypatch.undo()
    # the outlier-free space of every degree, and the standard one at
    # p <= 2, where the two are one, take the closed form
    dense = _counting(monkeypatch, "generalized_eig")
    solve_system(build_soft_system(2, 20, 0.0, flavor="standard"))
    for p in (3, 13, 20):
        solve_system(build_soft_system(p, 40, 0.0))
    assert dense == []


def _traced_peak(call, *args):
    """Peak bytes that tracemalloc sees allocated during call(*args)."""
    tracemalloc.start()
    try:
        call(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_closed_form_solve_peaks_below_the_dense_solve():
    # measured at p = 3, N = 200 (n = 199): 153 n doubles, a few arrays of
    # one value per irregular row and mode, against the dense solve's
    # 6.1 n^2 (1.93 MB); at N = 2000 the closed form peaks at 136 n
    p = 3
    system = build_soft_system(p, 200, float(eta_table().default[p]))
    n = system.space.dim
    solve_system(system)
    closed = _traced_peak(solve_system, system)
    dense = _traced_peak(generalized_eig, system.A, system.B)
    assert closed <= 200 * n * 8 < 5 * n * n * 8 < dense


def _spectrum_and_every_h1_error(system):
    spectrum = solve_system(system)
    return h1_errors_for_modes(system, spectrum, range(1, spectrum.n + 1))


@pytest.mark.parametrize("N", [1000, 2000])
def test_a_closed_form_spectrum_and_its_h1_errors_peak_at_o_n(N):
    # with the paper's mass-side weight, so that some ranks hold another
    # mode. No vector is formed: measured 145 and 139 n doubles; blocks
    # of 128 modes took 662 and 657 n, and keeping all n vectors 2278
    # and 4008 n
    p = 3
    table = eta_table()
    system = build_soft_system(p, N, float(table.default[p]),
                               float(table.mass_side[p]))
    n = system.space.dim
    _spectrum_and_every_h1_error(system)
    peak = _traced_peak(_spectrum_and_every_h1_error, system)
    assert peak < 200 * 8 * n


@pytest.mark.parametrize("p", range(1, 6))
def test_closed_form_spectra_hold_mode_numbers_and_no_vectors(p):
    # a numerical solve sets the vectors and no mode numbers, a
    # closed-form one the reverse: every mode once, in the order of the
    # values, which a mass-side weight permutes
    for eta, eta_b in _gate_weights(p):
        system = build_soft_system(p, 2 * p + 5, eta, eta_b)
        closed = solve_system(system)
        assert closed.vectors is None
        assert sorted(closed.modes) == list(range(1, closed.n + 1))
        dense = generalized_eig(system.A, system.B)
        assert dense.modes is None
        assert dense.vectors.shape == (closed.n, closed.n)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_a_pairs_bits_do_not_depend_on_the_other_modes_or_weights(p):
    # the two ends alone, every mode, one weight or all of them: each
    # mode's value and certificate are the same bits
    N = 40
    weights = _gate_weights(p)
    etas = sorted({eta for eta, _ in weights})
    for eta, eta_b in weights:
        system = build_soft_system(p, N, eta, eta_b)
        values, certificates, _ = spectral._sine_pairs(system, etas)
        for row, weight in enumerate(etas):
            alone = spectral._sine_pairs(system.with_weights(weight, eta_b),
                                         [weight])
            assert alone[0][0].tobytes() == values[row].tobytes()
        own, mine, _ = spectral._sine_pairs(system, [eta])
        ends, ends_certificates, _ = spectral._sine_pairs(system, [eta],
                                                          ends=True)
        picks = [np.argmin(own[0]), np.argmax(own[0])]
        assert ends.tobytes() == own[:, picks].tobytes()
        assert ends_certificates.tobytes() == mine[:, picks].tobytes()
        spectrum = solve_system(system)
        assert spectrum.values.tobytes() == np.sort(own[0]).tobytes()


def test_reweighting_peaks_at_a_few_blocks_of_modes():
    # eta_sweep's default 14 weights at p = 3, N = 1000 (n = 999): the
    # certificates form no vector, and their peak, measured 205 n
    # doubles (508 n while every weight's certificate rows were held at
    # once), a few arrays of one value per weight and mode, is far below
    # the 6 n^2 doubles that whole-spectrum products took
    p = 3
    system = build_soft_system(p, 1000, 0.0)
    n = system.space.dim
    etas = [0.0] + list(np.linspace(0.0, float(eta_table().sharp_max[p]),
                                    13, endpoint=False))
    reweighted_values(system, etas)
    peak = _traced_peak(reweighted_values, system, etas)
    assert peak < 600 * n * 8


def test_a_lifted_sweep_peaks_flat_in_its_grid():
    # every weight's lift is formed and dropped in turn: at p = 2, N = 40,
    # d = 3 (64,000 lifted values a weight) the grid of 300 weights peaks
    # within 1.5 times the grid of 10, where holding every lift added
    # about 0.5 MB a weight
    sharp = float(eta_table().sharp_max[2])
    peaks = []
    for points in (10, 300):
        grid = np.linspace(0.0, sharp, points, endpoint=False)
        eta_sweep(2, 40, grid, 3)
        peaks.append(_traced_peak(eta_sweep, 2, 40, grid, 3))
    assert peaks[1] <= 1.5 * peaks[0]


@pytest.mark.parametrize("p", [2, 3, 4])
def test_reweighting_holds_a_few_values_per_weight(p):
    # each weight adds its values, certificates and contract bounds,
    # measured 3.1 n doubles at N = 400 (p = 2); sorting the certificates
    # and bounds with the values took 6.2 n, and holding every weight's
    # certificate rows at once 23 n (p = 2) to 33 n (p = 4)
    system = build_soft_system(p, 400, 0.0)
    n = system.space.dim
    peaks = []
    for points in (11, 301):
        etas = list(np.linspace(0.0, float(eta_table().sharp_max[p]),
                                points, endpoint=False))
        reweighted_values(system, etas)
        peaks.append(_traced_peak(reweighted_values, system, etas))
    assert peaks[1] - peaks[0] <= 4 * 8 * n * 290


def test_h1_errors_of_every_mode_stay_within_their_block_budget():
    # the per-mode loop this replaced peaked at 0.85 MB here, and blocks
    # of five modes at 0.71 MB; every closed-form error now comes from one
    # element, measured 0.22 MB
    p = 3
    system = build_soft_system(p, 200, float(eta_table().default[p]))
    spectrum = solve_system(system)
    peak = _traced_peak(h1_errors_for_modes, system, spectrum,
                        range(1, spectrum.n + 1))
    assert peak <= 0.84e6


def test_extreme_values_peak_flat_in_the_mesh():
    # the two ends of the symbol are read a block of _SLICE values at a
    # time, the bands are stretched and certified in O(p^2) and no
    # knot vector is formed: past one full block, at N = 10^5, the peak
    # does not move, and from N = 10^4, whose one block is partial, it
    # grows by the temporaries of the rest of that block alone, a few
    # doubles per value (measured 2.0 MB, 11 doubles), where at N = 10^6
    # a single array of one double per mode would take 8 MB (writing the
    # bands out and scanning every column peaked at 309 MB there)
    eta = float(eta_table().default[3])

    def ends(N):
        return spectral.extreme_values(build_soft_system(3, N, eta))

    peaks = {}
    for N in (10 ** 4, 10 ** 5, 10 ** 6):
        ends(N)
        peaks[N] = _traced_peak(ends, N)
    assert peaks[10 ** 6] <= 1.01 * peaks[10 ** 5]
    assert peaks[10 ** 6] - peaks[10 ** 4] <= 16 * 8 * (spectral._SLICE
                                                        - 9999)
    assert peaks[10 ** 6] < 8 * 10 ** 6 / 2


def _symbol_oracle(p, N, js, eta, eta_b):
    """50-digit eigenvalues of the modes ``js`` of the exact outlier-free
    pencil on N elements (``oracles.dispersion_eigenvalue``)."""
    with mpmath.workdps(50):
        return np.array([float(dispersion_eigenvalue(
            p, mpmath.pi * int(j) / N, eta, eta_b) * N * N) for j in js])


# Relative distance of the closed-form values from the 50-digit ones
# where ``analytic_eigenvalue`` does not apply (p = 5..20, or a
# mass-side weight): at most 9.4e-16 measured here, at p = 19.
_SYMBOL_RTOL = 2e-15


@pytest.mark.parametrize("N", [16, 100, 400, 1000, 2000, 10 ** 5])
@pytest.mark.parametrize("p", range(2, 21))
def test_closed_form_values_and_extremes_hit_the_exact_ones(p, N):
    # every value of solve_system and reweighted_values on meshes of at
    # most 1000 elements at p <= 4 (100 past it, where the oracle is
    # mpmath), and the two ends of extreme_values on every mesh, against
    # the closed form at p = 2..4, within 1e-14, and the 50-digit
    # symbol elsewhere
    if N < p:
        pytest.skip(f"no outlier-free space of degree {p} on {N} elements")
    for eta, eta_b in _gate_weights(p):
        system = build_soft_system(p, N, eta, eta_b)
        n = system.space.dim
        closed_form = p <= 4 and eta_b == 0.0
        full = N <= (1000 if closed_form else 100)
        if not (full or eta_b == 0.0):
            # the top mode of a mass-side weight needs every value
            continue
        # without a mass-side weight mode 1 is the lowest, mode n the top
        js = np.arange(1, n + 1) if full else np.array([1, n])
        if closed_form:
            exact = np.array([analytic_eigenvalue(p, eta, j, N) for j in js])
            rtol = 1e-14
        else:
            exact = _symbol_oracle(p, N, js, eta, eta_b)
            rtol = _SYMBOL_RTOL
        np.testing.assert_allclose(spectral.extreme_values(system),
                                   [exact.min(), exact.max()], rtol=rtol,
                                   atol=0)
        if full:
            spectrum = solve_system(system)
            np.testing.assert_allclose(spectrum.values,
                                       exact[spectrum.modes - 1],
                                       rtol=rtol, atol=0)
            [values] = reweighted_values(system.with_weights(0.0, eta_b),
                                         [eta])
            np.testing.assert_allclose(values, np.sort(exact), rtol=rtol,
                                       atol=0)


def _measured_residuals(system, etas, values, js):
    """||(A + (eta_sys - eta) S) x - lambda B x|| of the B-normalized
    sine modes ``js``, one row per weight of ``etas``, from band products
    in extended precision, and the rounding that those products may
    carry: (2 hbw + 8) eps_x times the products with the absolute
    bands."""
    X = sine_modes(system.space, js, np.longdouble)
    A, B, S = system.A, system.B, system.softness
    BX = band_product(B, X)
    scales = 1 / np.sqrt(np.einsum("ij,ij->j", X, BX))
    AX, SX = band_product(A, X), band_product(S, X)
    absolute = [band_product(SymBandedMatrix(abs(M.band)), abs(X))
                for M in (A, B, S)]
    eps = (2 * len(A.band) + 8) * float(np.finfo(np.longdouble).eps)
    measured, slack = [], []
    for eta, lam in zip(etas, values):
        shift = system.eta - eta
        R = AX + np.longdouble(shift) * SX - lam.astype(np.longdouble) * BX
        measured.append(np.linalg.norm((R * scales).astype(float), axis=0))
        bound = absolute[0] + abs(shift) * absolute[2] + abs(lam) * absolute[1]
        slack.append(eps * np.linalg.norm((bound * scales).astype(float),
                                          axis=0))
    return np.array(measured), np.array(slack)


def _certificate_weights(p):
    """(eta, eta_b) pairs: zero and a default weight (half the sharp one
    where none is tabulated), each alone and with a mass-side weight."""
    table = eta_table()
    eta = float(table.default.get(p) or 0.5 * float(sharp_weight(p)))
    eta_b = float(table.mass_side.get(p) or 1e-4)
    return [(0.0, 0.0), (eta, 0.0), (0.0, eta_b), (eta, eta_b)]


@pytest.mark.parametrize("p", range(1, 17))
def test_certificates_bound_the_measured_residuals(p):
    # every mode, every weight, reweighted to the other weights of the
    # grid too: the certificate is at least the residual of the sines
    # that extended band products show, measured at most 0.11 of it
    for N in sorted({p + 1, 2 * p + 3, 4 * p + 2, 4 * p + 3, 40, 201}):
        if N < _smallest_mesh(p):
            continue
        for eta, eta_b in _certificate_weights(p):
            system = build_soft_system(p, N, eta, eta_b)
            etas = [eta, 0.0, 0.5 * eta + 1e-3 * float(sharp_weight(p))]
            js = np.arange(1, system.space.dim + 1)
            values, certificates, _ = spectral._sine_pairs(system, etas)
            measured, slack = _measured_residuals(system, etas, values, js)
            assert np.all(measured - slack <= certificates)


@pytest.mark.parametrize("p,N", [(20, 40), (24, 40), (28, 29), (28, 40),
                                 (28, 100)])
def test_high_degree_pairs_are_certified_in_extended_precision(p, N):
    # in double precision the certificates of the top modes reach the
    # contract's bound from about p = 20; summed over sines of extended
    # precision every one stays below 0.3 of it, measured 0.25 at p = 28,
    # N = 40, and both bound the residual that extended band products
    # show. The solve keeps the smaller of the two where the first fails
    system = build_soft_system(p, N, 0.0)
    js = np.arange(1, system.space.dim + 1)
    values, certificates, [(norm, mass_norm)] = spectral._sine_pairs(
        system, [0.0])
    bounds = 1e-10 * (norm + abs(values) * mass_norm)
    A, B, _ = _checked_pencil(system.A, system.B)
    extended = spectral._certificates([A, B], None, values, js, p, N,
                                      np.longdouble)
    assert np.all(extended <= 0.3 * bounds)
    assert np.all(certificates <= bounds)
    measured, slack = _measured_residuals(system, [0.0], values, js)
    assert np.all(measured - slack <= np.minimum(certificates, extended))
    solve_system(system)


def _perturbed(system, name, row, column, factor):
    """The system with entry (row, column) of its operator ``name``,
    row >= column, and its mirror scaled by factor."""
    band = getattr(system, name).band.copy()
    band[row - column, column] *= factor
    return dataclasses.replace(system, **{name: SymBandedMatrix(band)})


@pytest.mark.parametrize("name,row,column", [("stiffness", 21, 20),
                                             ("mass", 19, 19),
                                             ("stiffness", 1, 0),
                                             ("mass", 2, 0)])
def test_a_perturbed_entry_is_certified_or_refused(name, row, column):
    # one interior entry, the middle column's among them, or one corner
    # entry of an outlier-free pencil: by one unit in the last place its
    # rows are irregular (every row, when the middle column is the one
    # perturbed) and the certificate still bounds what the perturbed
    # pencil's products show; by one part in a million the sine samples
    # are no longer its eigenvectors, and the pencil is refused
    system = build_soft_system(3, 40, float(eta_table().default[3]))
    slightly = _perturbed(system, name, row, column, 1 + 2 ** -52)
    js = np.arange(1, system.space.dim + 1)
    values, certificates, _ = spectral._sine_pairs(slightly, [slightly.eta])
    measured = _measured_residuals(slightly, [slightly.eta], values, js)
    assert np.all(measured <= certificates)
    plain = spectral._sine_pairs(system, [system.eta])[1]
    assert np.any(certificates != plain)
    with pytest.raises(EigenSolveError, match="residual contract"):
        solve_system(_perturbed(system, name, row, column, 1 + 1e-6))


def test_a_band_changed_by_hand_is_certified_in_bounded_memory():
    # the middle diagonal entry of the mass band scaled by 1 + 2^-52 at
    # p = 3, N = 4000 (n = 3999): the whole bands are certified a block of
    # rows and of modes at a time, measured 4.1 MiB and 2.2 s; a dense
    # plan of every irregular row took 307 MiB and 8.6 s at N = 2000
    def moved(N):
        system = build_soft_system(3, N, float(eta_table().default[3]))
        middle = system.space.dim // 2
        return _perturbed(system, "mass", middle, middle, 1 + 2 ** -52)

    spectral._sine_pairs(moved(40), [0.0])
    slightly = moved(4000)
    assert _traced_peak(spectral._sine_pairs, slightly, [slightly.eta]) \
        < 16 * 2 ** 20


def _band_residuals(bands, shifts, values, space, js):
    """||(A + t S) x - lambda B x|| / sqrt(x^T B x) of the sine modes
    ``js`` of ``space`` on the bands (A, B) or (A, B, S), one row per
    value row and shift, from band products in extended precision."""
    X = sine_modes(space, js, np.longdouble)
    products = [band_product(M, X) for M in bands]
    scales = 1 / np.sqrt(np.einsum("ij,ij->j", X, products[1]))
    out = []
    for row, lam in enumerate(values):
        R = products[0] - lam.astype(np.longdouble) * products[1]
        if shifts is not None:
            R += np.longdouble(shifts[row]) * products[2]
        out.append(np.linalg.norm((R * scales).astype(float), axis=0))
    return np.array(out)


@pytest.mark.parametrize("slice_", [spectral._SLICE, 300])
@pytest.mark.parametrize("p", range(1, 9))
def test_certificates_of_moved_bands_are_their_residuals(p, slice_,
                                                         monkeypatch):
    # every entry that A, B and S store moved by up to one part in 10^6,
    # a stretched band staying persymmetric: the sines are no longer
    # eigenvectors, and the certificate, with its first c + hbw rows
    # counted twice or with every row a product (the bands written out,
    # in blocks of a few rows and modes at the small slice), is within
    # 1e-6 above the residual of extended band products, measured 9e-8.
    # A stretched band of order up to 2 (c + hbw) is certified as written
    # out, bit for bit
    monkeypatch.setattr(spectral, "_SLICE", slice_)
    rng = np.random.default_rng(p)
    eta = _certificate_weights(p)[1][0]
    size = 4 * p + 2
    for N in (*range(size, size + 12), 60):
        system = build_soft_system(p, N, eta)
        A, B, _ = _checked_pencil(system.A, system.B)
        S = system.softness.padded(len(A.left))
        (rows, width), n = A.left.shape, A.n
        bands = [SymBandedMatrix(np.asfortranarray(X.left * (
            1 + 1e-6 * rng.uniform(-1, 1, X.left.shape))), X.order)
            for X in (A, B, S)]
        etas = [eta, 0.0]
        shifts = system.eta - np.array(etas)
        js = np.arange(1, n + 1)
        values = spectral._sine_pairs(system, etas)[0]
        measured = _band_residuals(bands, shifts, values, system.space, js)
        mine, whole = (spectral._certificates(
            X, shifts, values, js, p, N, float)
            for X in (bands, [X.whole() for X in bands]))
        for certificates in (mine, whole):
            assert np.all(measured <= certificates)
            assert np.all(certificates <= (1 + 1e-6) * measured)
        if n <= 2 * (width + rows - 2):
            assert mine.tobytes() == whole.tobytes()


@pytest.mark.parametrize("p,N", [(2, 12), (3, 40), (4, 31), (8, 40)])
def test_closed_form_values_are_the_symbol_mode_by_mode(p, N):
    # one mode at a time, each value is the symbol's bits, as the
    # closed-form pairs computed them before they were certified
    for eta, eta_b in _gate_weights(p):
        system = build_soft_system(p, N, eta, eta_b)
        spectrum = solve_system(system)
        sines = sine_table(N)
        alone = [(N * N) * interior_symbol(p, np.array([[eta]]), eta_b,
                                           sines[[j]] ** 2,
                                           sines[[N - j]] ** 2)[0, 0]
                 for j in spectrum.modes]
        assert np.array(alone).tobytes() == spectrum.values.tobytes()


@pytest.mark.parametrize("p,N,eta_b", [(2, 12, "paper"), (3, 40, "paper"),
                                       (4, 31, 3e-4), (5, 21, 1e-5)])
def test_moved_ranks_h1_errors_match_the_quadrature(p, N, eta_b):
    # the closed form of a rank that holds another mode, from the element
    # sums of two modes, against the quadrature over every element of the
    # oracle vectors: measured within 8.2 eps * j * pi
    table = eta_table()
    eta_b = float(table.mass_side[p]) if eta_b == "paper" else eta_b
    system = build_soft_system(p, N, float(table.default.get(p) or 0),
                               eta_b)
    spectrum = solve_system(system)
    ranks = np.arange(1, spectrum.n + 1)
    assert np.any(spectrum.modes != ranks)
    got = h1_errors_for_modes(system, spectrum, ranks)
    oracle = h1_errors_for_modes(system, _by_quadrature(system, spectrum),
                                 ranks)
    assert np.all(np.abs(np.subtract(got, oracle)) <= _h1_gap_bound(ranks))



@pytest.mark.parametrize("p", range(1, 17))
def test_one_pass_rows_are_the_single_weight_passes(p):
    # the extremes of several weights on one space come from one pass of
    # the symbol, each row's ends its own: the values are bit for bit
    # those of one pass per weight, and the pairs of every row are held
    # to the contract; a weight repeated is one row solved once
    half = 0.5 * float(sharp_weight(p))
    for N in sorted({_smallest_mesh(p), 4 * p + 2, 4 * p + 3, 200, 10 ** 5}):
        for eta, eta_b in _gate_weights(p) + [(half, 0.0)]:
            system = build_soft_system(p, N, eta, eta_b)
            alone = [spectral.extreme_values(system.with_weights(w, eta_b))
                     for w in (eta, 0.0, half)]
            for weights in ([eta, 0.0], [0.0, eta], [eta, 0.0, half, eta]):
                rows = spectral.extreme_values(system, weights)
                assert rows.shape == (len(weights), 2)
                for row, w in zip(rows, weights):
                    want = alone[[eta, 0.0, half].index(w)]
                    assert row.tobytes() == want.tobytes()
            assert (spectral.extreme_values(system, [eta])[0].tobytes()
                    == alone[0].tobytes())


def test_extreme_values_of_other_weights_on_a_standard_space_are_refused():
    system = build_soft_system(3, 40, 0.0, 0.0, "standard")
    np.testing.assert_array_equal(
        spectral.extreme_values(system, [0.0, 0.0]),
        [spectral.extreme_values(system)] * 2)
    with pytest.raises(ValueError, match="no closed-form eigenvectors"):
        spectral.extreme_values(system, [0.0, 1e-4])


def test_extreme_values_check_the_other_weights():
    system = build_soft_system(2, 40, 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        spectral.extreme_values(system, [0.0, -1.0])
    sharp = float(sharp_weight(2))
    with pytest.warns(IndefinitenessWarning):
        spectral.extreme_values(system, [0.0, sharp])
