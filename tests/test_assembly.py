"""Assembled operators against hand-computable stencils, polynomial
identities, and the closed-form spectrum."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg import lapack

from oracles import pth_derivative_jump, space_member_eval
from softiga.analytic import (analytic_eigenvalue, eta_table,
                              interior_stencil)
from softiga.assembly import (IndefinitenessWarning, SymBandedMatrix,
                              assemble_mass, assemble_softness,
                              assemble_stiffness, build_soft_system)
from softiga.eigensolve import (DefinitenessError, cholesky_pivot,
                                generalized_eig)
from softiga.spaces import build_of_space, build_standard_space
from softiga.spectral_analysis import solve_system, spectral_report
from softiga.splines import eval_basis
from softiga.tensor import kron_sum_spectrum


def test_banded_storage_round_trip():
    A = np.array([[2.0, -1.0, 0.0, 0.0],
                  [-1.0, 2.0, -1.0, 0.0],
                  [0.0, -1.0, 2.0, -1.0],
                  [0.0, 0.0, -1.0, 2.0]])
    banded = SymBandedMatrix(np.array([[2.0, 2.0, 2.0, 2.0],
                                       [-1.0, -1.0, -1.0, 0.0]]))
    assert banded.n == 4
    assert banded.half_bandwidth == 1
    assert banded.entry(0, 1) == -1.0
    assert banded.entry(1, 0) == -1.0
    assert banded.entry(0, 3) == 0.0
    np.testing.assert_array_equal(banded.toarray(), A)


def test_banded_storage_keeps_exact_rationals():
    banded = SymBandedMatrix(np.array([[Fraction(2), Fraction(2)],
                                       [Fraction(-1, 3), Fraction(0)]],
                                      dtype=object))
    assert banded.entry(0, 1) == Fraction(-1, 3)
    assert isinstance(banded.entry(0, 1), Fraction)
    diagonal = SymBandedMatrix(np.array([[Fraction(1), Fraction(3)]],
                                        dtype=object))
    total = banded.plus(Fraction(-1, 2), diagonal)
    assert total.half_bandwidth == 1
    assert list(total.band[0]) == [Fraction(3, 2), Fraction(1, 2)]
    assert isinstance(total.entry(0, 1), Fraction)
    assert total.entry(0, 1) == Fraction(-1, 3)


def test_linear_elements_reproduce_textbook_stencils():
    N = 6
    space = build_standard_space(1, N)
    K = assemble_stiffness(space).toarray()
    M = assemble_mass(space).toarray()
    h = 1.0 / N
    i = 2
    np.testing.assert_allclose(K[i, i - 1:i + 2],
                               np.array([-1.0, 2.0, -1.0]) / h)
    np.testing.assert_allclose(M[i, i - 1:i + 2],
                               np.array([1 / 6, 2 / 3, 1 / 6]) * h)


def test_quadratic_interior_rows_match_reference_stencils():
    N = 10
    space = build_standard_space(2, N)
    K = assemble_stiffness(space).toarray()
    M = assemble_mass(space).toarray()
    S = assemble_softness(space).toarray()
    h = 1.0 / N
    i = 5
    np.testing.assert_allclose(
        K[i, i - 2:i + 3],
        np.array([-1 / 6, -1 / 3, 1.0, -1 / 3, -1 / 6]) / h, rtol=1e-13)
    np.testing.assert_allclose(
        M[i, i - 2:i + 3],
        np.array([1 / 120, 13 / 60, 11 / 20, 13 / 60, 1 / 120]) * h,
        rtol=1e-13)
    np.testing.assert_allclose(
        S[i, i - 3:i + 4],
        np.array([-1, 6, -15, 20, -15, 6, -1]) / h, rtol=1e-12)


def test_softness_vanishes_on_low_degree_polynomials():
    # members with p-th derivative zero carry no jump energy; the
    # standard space contains such members for p >= 3
    for p, N in [(3, 6), (4, 6), (5, 7)]:
        space = build_standard_space(p, N)
        S = assemble_softness(space).toarray()
        kv = space.kv
        # interpolate x(1-x), a degree-2 polynomial in the space
        xs = np.linspace(0.02, 0.98, space.dim)
        A = np.zeros((space.dim, space.dim))
        for row, x in enumerate(xs):
            be = eval_basis(kv, float(x))
            full = np.zeros(kv.num_raw)
            full[be.element:be.element + p + 1] = be.ders[-1]
            A[row] = space.extraction @ full
        coeff = np.linalg.solve(A, xs * (1 - xs))
        energy = float(coeff @ S @ coeff)
        assert abs(energy) < 1e-9 * np.linalg.norm(S)


def test_even_degree_boundary_faces_carry_energy():
    # p=2: u = x - x^2 has u'' = -2 everywhere, so no interior jumps;
    # the two boundary faces contribute 2 * h^3 * (2 * (-2)^2) = 16 h^3
    N = 8
    space = build_standard_space(2, N)
    S = assemble_softness(space).toarray()
    kv = space.kv
    xs = np.linspace(0.05, 0.95, space.dim)
    A = np.zeros((space.dim, space.dim))
    for row, x in enumerate(xs):
        be = eval_basis(kv, float(x))
        full = np.zeros(kv.num_raw)
        full[be.element:be.element + 3] = be.ders[-1]
        A[row] = space.extraction @ full
    coeff = np.linalg.solve(A, xs - xs ** 2)
    energy = float(coeff @ S @ coeff)
    h = 1.0 / N
    assert energy == pytest.approx(16 * h ** 3, rel=1e-10)


def test_odd_degree_boundary_faces_carry_no_energy():
    # p=3: u with constant third derivative has no interior jumps and
    # odd degree adds no boundary terms, so the energy is zero
    N = 8
    space = build_standard_space(3, N)
    S = assemble_softness(space).toarray()
    kv = space.kv
    target = lambda x: x * (1 - x) * (1 + 2 * x)  # cubic, u''' = -12
    xs = np.linspace(0.03, 0.97, space.dim)
    A = np.zeros((space.dim, space.dim))
    for row, x in enumerate(xs):
        be = eval_basis(kv, float(x))
        full = np.zeros(kv.num_raw)
        full[be.element:be.element + 4] = be.ders[-1]
        A[row] = space.extraction @ full
    coeff = np.linalg.solve(A, target(xs))
    energy = float(coeff @ S @ coeff)
    assert abs(energy) < 1e-9 * np.linalg.norm(S)


def test_mass_row_sums_integrate_against_member_sum():
    # sum_j M_ij = integral of member i times the sum of all members
    from scipy.integrate import quad

    space = build_of_space(3, 6)
    M = assemble_mass(space).toarray()

    def member_sum(x):
        return sum(space_member_eval(space, j, x)
                   for j in range(space.dim))

    for i in range(space.dim):
        integral = 0.0
        for e in range(space.kv.N):
            val, _ = quad(lambda x: (space_member_eval(space, i, x)
                                     * member_sum(x)),
                          e / 6, (e + 1) / 6, epsabs=1e-13)
            integral += val
        assert M[i].sum() == pytest.approx(integral, abs=1e-11)


def test_operators_are_symmetric_and_persymmetric():
    for p, N in [(2, 9), (3, 9), (4, 9)]:
        space = build_of_space(p, N)
        for op in (assemble_stiffness, assemble_mass, assemble_softness):
            A = op(space).toarray()
            np.testing.assert_allclose(A, A.T, atol=1e-13 * abs(A).max())
            np.testing.assert_allclose(A, A[::-1, ::-1].T,
                                       atol=1e-11 * abs(A).max())


@pytest.mark.parametrize("p", [2, 3, 4])
def test_assembled_spectrum_matches_closed_form(p):
    N = 12
    eta = eta_table().default[p]
    system = build_soft_system(p, N, eta)
    spectrum = generalized_eig(system.A, system.B)
    top = N if p % 2 == 0 else N - 1
    exact = np.array([analytic_eigenvalue(p, float(eta), j, N)
                      for j in range(1, top + 1)])
    np.testing.assert_allclose(spectrum.values, exact, rtol=1e-10)


def test_soft_system_fields_and_pencil_composition():
    p, N = 3, 8
    eta = 1e-4
    system = build_soft_system(p, N, eta)
    assert (system.space.kv.p, system.space.kv.N) == (p, N)
    assert system.eta == eta
    assert system.eta_b == 0.0
    K = system.stiffness.toarray()
    S = system.softness.toarray()
    M = system.mass.toarray()
    assert isinstance(system.A, SymBandedMatrix)
    assert isinstance(system.B, SymBandedMatrix)
    np.testing.assert_allclose(system.A.toarray(), K - eta * S, atol=1e-14)
    np.testing.assert_allclose(system.B.toarray(), M, atol=1e-16)


def test_bands_and_systems_compare_by_identity():
    # equal fields hold arrays, so a field-wise == could not give a bool
    one = build_soft_system(3, 8, 1e-4)
    two = build_soft_system(3, 8, 1e-4)
    assert one.stiffness.band.tobytes() == two.stiffness.band.tobytes()
    spectra = [solve_system(one), solve_system(two)]
    assert spectra[0].values.tobytes() == spectra[1].values.tobytes()
    reports = [spectral_report(spectrum.values, 2) for spectrum in spectra]
    lifts = [kron_sum_spectrum(spectrum.values, 2) for spectrum in spectra]
    for a, b in [(one, two), (one.stiffness, two.stiffness), spectra,
                 reports, lifts]:
        assert (a == b) is False
        assert (a != b) is True
        assert a == a
        assert hash(a) == hash(a)
        assert len({a, b}) == 2


def test_mass_side_weight_scales_with_square_of_mesh():
    p, N = 2, 8
    eta_b = 1e-3
    system = build_soft_system(p, N, 0.0, eta_b)
    M = system.mass.toarray()
    S = system.softness.toarray()
    h = 1.0 / N
    np.testing.assert_allclose(system.B.toarray(), M + eta_b * h * h * S,
                               atol=1e-16)


def test_sharp_threshold_warning_and_input_validation():
    sharp = float(eta_table().sharp_max[2])
    with pytest.warns(IndefinitenessWarning):
        build_soft_system(2, 10, sharp)
    # the jump penalty is a Gram matrix, so any nonnegative mass-side
    # weight keeps B positive definite
    system = build_soft_system(2, 10, 0.0, 50.0)
    assert np.all(np.linalg.eigvalsh(system.B.toarray()) > 0)
    with pytest.raises(ValueError):
        build_soft_system(2, 10, -1e-3)
    with pytest.raises(ValueError):
        build_soft_system(2, 10, 0.0, -1.0)
    with pytest.raises(ValueError):
        build_soft_system(2, 10, 0.0, flavor="fancy")


@pytest.mark.parametrize("eta,eta_b", [(float("nan"), 0.0),
                                       (0.0, float("nan")),
                                       (float("inf"), 0.0),
                                       (0.0, float("inf"))])
def test_non_finite_weights_are_rejected(eta, eta_b):
    with pytest.raises(ValueError, match="finite"):
        build_soft_system(2, 10, eta, eta_b)
    with pytest.raises(ValueError, match="finite"):
        build_soft_system(2, 10, 0.0).with_weights(eta, eta_b)


def test_coercivity_certificate_at_default_weight():
    table = eta_table()
    for p in (2, 3, 4):
        eta = float(table.default[p])
        beta = 1.0 - eta / float(table.theoretical_max[p])
        space = build_of_space(p, 20)
        K = assemble_stiffness(space).toarray()
        system = build_soft_system(p, 20, eta)
        low = float(np.linalg.eigvalsh(system.A.toarray() - beta * K)[0])
        assert low >= -1e-10 * np.linalg.norm(K)


def test_softened_eigenvalues_sandwiched_by_unsoftened():
    table = eta_table()
    for p in (2, 3, 4):
        eta = table.default[p]
        base = generalized_eig(build_soft_system(p, 16, 0.0).A,
                               build_soft_system(p, 16, 0.0).B).values
        soft = generalized_eig(build_soft_system(p, 16, eta).A,
                               build_soft_system(p, 16, eta).B).values
        factor = 1.0 - 2.0 * float(eta) / (2.0 * float(
            eta_table().theoretical_max[p]))
        assert np.all(soft <= base * (1 + 1e-12))
        assert np.all(soft >= factor * base * (1 - 1e-12))


def test_standard_flavor_reproduces_plain_galerkin_extremes():
    # degree 2 on 100 elements: the classic outlier makes the top
    # eigenvalue hit 1e5 while softening pulls it to 80/17 * 1e4
    base = generalized_eig(*_pencil(2, 100, 0.0, "standard")).values
    assert base[-1] == pytest.approx(1.0000e5, rel=5e-5)
    eta = eta_table().default[2]
    soft = generalized_eig(*_pencil(2, 100, eta, "outlier_free")).values
    assert soft[-1] == pytest.approx(4.7059e4, rel=5e-5)
    assert soft[-1] == pytest.approx(80.0 / 17.0 * 1e4, rel=1e-10)
    of = generalized_eig(*_pencil(3, 100, 0.0, "outlier_free")).values
    assert of[-1] == pytest.approx(9.8675e4, rel=5e-5)


def _pencil(p, N, eta, flavor):
    system = build_soft_system(p, N, eta, flavor=flavor)
    return system.A, system.B


def test_banded_toarray_matches_elementwise_fill():
    rng = np.random.default_rng(3)
    n, hbw = 9, 3
    band = rng.standard_normal((hbw + 1, n))
    for k in range(1, hbw + 1):
        band[k, n - k:] = 0.0  # slots past the end of the subdiagonal
    banded = SymBandedMatrix(band)
    expected = np.zeros((n, n))
    for k in range(hbw + 1):
        for i in range(n - k):
            expected[i + k, i] = expected[i, i + k] = band[k, i]
    np.testing.assert_array_equal(banded.toarray(), expected)
    assert banded.entry(0, hbw + 1) == 0.0
    assert banded.entry(hbw, 0) == expected[hbw, 0]
    np.testing.assert_array_equal(banded.principal(2, 7),
                                  expected[2:7, 2:7])
    # a window narrower than the band drops the slots past its end
    np.testing.assert_array_equal(banded.principal(6, 8),
                                  expected[6:8, 6:8])


def test_banded_rows_keep_exact_rationals():
    A = np.array([[Fraction(2), Fraction(-1, 3), Fraction(0)],
                  [Fraction(-1, 3), Fraction(2), Fraction(1, 7)],
                  [Fraction(0), Fraction(1, 7), Fraction(5)]], dtype=object)
    banded = SymBandedMatrix(np.array(
        [[Fraction(2), Fraction(2), Fraction(5)],
         [Fraction(-1, 3), Fraction(1, 7), Fraction(0)]], dtype=object))
    assert banded.half_bandwidth == 1
    row = banded.toarray()[1]
    assert list(row) == [Fraction(-1, 3), Fraction(2), Fraction(1, 7)]
    assert isinstance(row[2], Fraction)
    assert isinstance(banded.entry(0, 2), Fraction)
    assert (banded.toarray() == A).all()


def test_banded_cholesky_pivot_matches_dense():
    band = np.array([[2.0, 1.0, -1.0, 3.0],
                     [0.5, 0.5, 0.5, 0.0]])
    A = SymBandedMatrix(band).toarray()

    def dense_pivot(A):
        _, info = lapack.dpotrf(A, lower=1)
        return int(info) if info > 0 else 0

    assert cholesky_pivot(SymBandedMatrix(band)) == dense_pivot(A) == 3
    shifted = band.copy()
    shifted[0] += 4.0
    assert (cholesky_pivot(SymBandedMatrix(shifted))
            == dense_pivot(A + 4.0 * np.eye(4)) == 0)


def _reference_operators(space):
    """K, M, S by per-point quadrature and per-face jumps, dense."""
    kv = space.kv
    p, N, h = kv.p, kv.N, kv.h
    raw = kv.num_raw
    x, w = np.polynomial.legendre.leggauss(p + 1)
    K, M, S = (np.zeros((raw, raw)) for _ in range(3))
    for e in range(N):
        for xq, wq in zip(x, w):
            be = eval_basis(kv, (e + 0.5 * (xq + 1.0)) * h, 1)
            window = slice(be.element, be.element + p + 1)
            M[window, window] += 0.5 * h * wq * np.outer(be.ders[0],
                                                         be.ders[0])
            K[window, window] += 0.5 * h * wq * np.outer(be.ders[1],
                                                         be.ders[1])
    for f in range(N + 1):
        jump = pth_derivative_jump(kv, f)
        if 0 < f < N:
            S += np.outer(jump, jump)
        elif p % 2 == 0:
            S += 2.0 * np.outer(jump, jump)
    S *= h ** (2 * p - 1)
    E = space.extraction
    return [E @ A @ E.T for A in (K, M, S)]


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("flavor", ["standard", "outlier_free"])
def test_banded_operators_match_per_point_quadrature(p, flavor):
    # the meshes run from ones whose two boundary blocks meet (no
    # translate of the interior element, N < 2p + 1) to ones with many
    build = build_standard_space if flavor == "standard" else build_of_space
    for N in range(1, 2 * p + 6):
        try:
            space = build(p, N)
        except ValueError:
            continue
        operators = (assemble_stiffness(space), assemble_mass(space),
                     assemble_softness(space))
        for got, expected in zip(operators, _reference_operators(space)):
            scale = max(abs(expected).max(), 1e-300)
            assert np.abs(got.toarray() - expected).max() <= 1e-13 * scale
            # the band is LAPACK lower storage, usable as it is
            dense = np.linalg.eigvalsh(got.toarray())
            banded = sla.eigvals_banded(got.band, lower=True)
            assert (np.abs(banded - dense).max()
                    <= 1e-12 * max(np.abs(dense).max(), 1e-300))


@pytest.mark.parametrize("p", [2, 3, 4])
def test_interior_rows_match_printed_stencils(p):
    N = 400
    h = 1.0 / N
    space = build_of_space(p, N)
    for kind, op, unit in (("K", assemble_stiffness, h),
                           ("M", assemble_mass, 1.0 / h),
                           ("S", assemble_softness, h)):
        stencil = np.array([float(c) for c in interior_stencil(kind, p)])
        full = np.concatenate([stencil[::-1], stencil[1:]])
        width = len(stencil) - 1
        dense = op(space).toarray()
        margin = 3 * p + 2  # rows untouched by the boundary elements
        worst = max(
            np.abs(dense[i, i - width:i + width + 1] * unit
                   - full).max()
            for i in range(margin, space.dim - margin))
        assert worst <= 1e-15 * np.abs(stencil).max(), (kind, worst)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_assembled_spectrum_matches_closed_form_on_fine_mesh(p):
    N = 400
    eta = eta_table().default[p]
    values = generalized_eig(*_pencil(p, N, eta, "outlier_free")).values
    top = N if p % 2 == 0 else N - 1
    exact = np.array([analytic_eigenvalue(p, float(eta), j, N)
                      for j in range(1, top + 1)])
    np.testing.assert_allclose(values, exact, rtol=1e-9)


def test_with_weights_equals_fresh_assembly():
    table = eta_table()
    for p, eta, eta_b in [(2, table.default[2], table.mass_side[2]),
                          (3, table.superconvergent[3], 0.0),
                          (4, table.default[4], 1e-3)]:
        base = build_soft_system(p, 20, 0.0)
        reweighted = base.with_weights(eta, eta_b)
        fresh = build_soft_system(p, 20, eta, eta_b)
        assert (reweighted.eta, reweighted.eta_b) == (float(eta),
                                                      float(eta_b))
        assert reweighted.stiffness is base.stiffness
        for got, want in ((reweighted.A, fresh.A),
                          (reweighted.B, fresh.B)):
            got, want = got.toarray(), want.toarray()
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_with_weights_runs_the_build_checks():
    system = build_soft_system(2, 10, 0.0)
    with pytest.warns(IndefinitenessWarning):
        system.with_weights(float(eta_table().sharp_max[2]))
    with pytest.raises(ValueError):
        system.with_weights(-1e-3)
    with pytest.raises(ValueError):
        system.with_weights(0.0, -1.0)


def test_mass_side_definiteness_is_checked_on_the_band(monkeypatch):
    import softiga.assembly as assembly

    seen = []

    def failing_pivot(B):
        seen.append(B)
        return 2

    monkeypatch.setattr(assembly, "cholesky_pivot", failing_pivot)
    build_soft_system(2, 10, 0.0)  # eta_b = 0 skips the check
    assert seen == []
    with pytest.raises(DefinitenessError) as err:
        build_soft_system(2, 10, 0.0, 1e-3)
    assert err.value.pivot == 2
    assert isinstance(seen[0], SymBandedMatrix)
