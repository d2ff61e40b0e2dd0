"""Closed-form spectra, canonical weight tables, exact reference
matrices, commutators, and dispersion expansions."""

import math
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest

from softiga.analytic import (analytic_eigenvalue,
                              analytic_eigenvector_sample,
                              commutator_norm, dispersion_eigenvalue,
                              dispersion_expansion, eta_table,
                              fit_leading_coefficient, interior_stencil,
                              inverse_constants,
                              inverse_constants_squared, reference_matrix,
                              softened_reference)
from softiga.assembly import build_soft_system
from softiga.eigensolve import generalized_eig


def test_eta_table_exact_values():
    table = eta_table()
    assert table.sharp_max[2] == F(1, 48)
    assert table.sharp_max[3] == F(1, 480)
    assert table.sharp_max[4] == F(17, 80640)
    assert table.default[2] == F(3, 272)
    assert table.default[3] == F(69, 79360)
    assert table.default[4] == F(451, 6191360)
    assert table.superconvergent[2] == F(1, 720)
    assert table.superconvergent[3] == F(1, 30240)
    assert table.superconvergent[4] == F(1, 1209600)
    assert table.superconvergent[5] == F(1, 47900160)
    assert table.mass_side[2] == F(1, 3360)
    assert table.mass_side[3] == F(1, 60480)
    assert table.theoretical_max[2] == F(1, 48)
    assert table.theoretical_max[3] == F(1, 2880)
    assert table.theoretical_max[4] == F(1, 518400)


def test_eta_table_orderings_and_resolution():
    table = eta_table()
    for p in (2, 3, 4):
        assert 0 < table.superconvergent[p] < table.default[p]
        assert table.default[p] < table.sharp_max[p]
        assert table.theoretical_max[p] <= table.sharp_max[p]
    assert table.resolve(3, "default") == F(69, 79360)
    with pytest.raises(KeyError):
        table.resolve(5, "default")
    with pytest.raises(KeyError):
        table.resolve(4, "mass_side")


def test_inverse_constants_squared():
    for p, expected in [(2, 24), (3, 1440), (4, 259200)]:
        _, _, c3 = inverse_constants_squared(p)
        assert c3 == expected
    c1, c2, _ = inverse_constants_squared(2, k=2)
    assert c1 == F(2 * 3 * 4 * 5, 2)
    assert c2 == 1  # the k = p constant is exactly one
    c1f, c2f, c3f = inverse_constants(3)
    assert c3f == pytest.approx(math.sqrt(1440))
    with pytest.raises(ValueError):
        inverse_constants_squared(0)
    with pytest.raises(ValueError):
        inverse_constants_squared(3, k=4)


def test_closed_form_reference_points():
    table = eta_table()
    # quadratic top mode with the default weight: exactly 8e4/17
    top = analytic_eigenvalue(2, float(table.default[2]), 100, 100)
    assert top == pytest.approx(8e4 / 1.7, rel=1e-12)
    # first mode approaches the continuum on refinement
    for p in (2, 3, 4):
        lam = analytic_eigenvalue(p, float(table.default[p]), 1, 200)
        assert lam == pytest.approx(math.pi ** 2, rel=1e-6)
    # cubic unsoftened top mode on 100 elements
    assert analytic_eigenvalue(3, 0.0, 99, 100) == pytest.approx(
        9.8675e4, rel=5e-5)


def test_closed_form_validates_mode_range():
    with pytest.raises(ValueError):
        analytic_eigenvalue(2, 0.0, 0, 10)
    with pytest.raises(ValueError):
        analytic_eigenvalue(2, 0.0, 11, 10)
    with pytest.raises(ValueError):
        analytic_eigenvalue(3, 0.0, 10, 10)
    with pytest.raises(ValueError):
        analytic_eigenvalue(5, 0.0, 1, 10)
    assert analytic_eigenvalue(3, 0.0, 9, 10) > 0


@pytest.mark.parametrize("p,N", [(2, 16), (3, 16), (4, 16)])
def test_assembled_modes_follow_sine_coefficient_pattern(p, N):
    system = build_soft_system(p, N, float(eta_table().default[p]))
    spectrum = generalized_eig(system.A, system.B)
    dim = system.space.dim
    side = system.space.alpha  # recombined members per boundary
    for j in (1, 2, 5):
        c = spectrum.vectors[:, j - 1]
        inner = c[side:dim - side]
        want = np.array([analytic_eigenvector_sample(p, j, N, i + 1)
                         for i in range(side, dim - side)])
        scale = (inner @ want) / (want @ want)
        residual = np.linalg.norm(inner - scale * want)
        assert residual <= 1e-8 * np.linalg.norm(c)


def test_eigenvectors_do_not_depend_on_the_weight():
    p, N = 2, 14
    a = generalized_eig(*_pencil(p, N, 0.0)).vectors
    b = generalized_eig(*_pencil(p, N, float(eta_table().default[2])))
    # the same one-dimensional eigenspaces up to per-mode orientation
    signs = np.sign(np.einsum("ij,ij->j", a, b.vectors))
    np.testing.assert_allclose(a, b.vectors * signs, atol=1e-8)


def _pencil(p, N, eta):
    system = build_soft_system(p, N, eta)
    return system.A, system.B


def test_interior_stencils_spot_values():
    assert interior_stencil("K", 2) == (F(1), F(-1, 3), F(-1, 6))
    assert interior_stencil("M", 3)[1] == F(397, 1680)
    assert interior_stencil("S", 4) == (F(252), F(-210), F(120), F(-45),
                                        F(10), F(-1))
    assert interior_stencil("T", 5) == (F(11, 20), F(13, 60), F(1, 120))
    with pytest.raises(ValueError):
        interior_stencil("K", 6)
    with pytest.raises(ValueError):
        interior_stencil("X", 2)


def test_reference_matrix_orders():
    assert reference_matrix("K", 2, 8).n == 8
    assert reference_matrix("K", 3, 9).n == 8
    assert reference_matrix("M", 5, 14).n == 13
    with pytest.raises(ValueError):
        reference_matrix("S", 5, 10)  # boundary stencils would overlap


def test_reference_matrix_boundary_rows_quartic():
    S = reference_matrix("S", 4, 14)
    assert [S.entry(0, j) for j in range(6)] == [462, -330, 165, -55,
                                                 11, -1]
    assert [S.entry(1, j) for j in range(1, 4)] == [297, -220, 121]
    assert S.entry(2, 2) == 253
    K = reference_matrix("K", 4, 14)
    assert [K.entry(0, j) for j in range(5)] == [
        F(31, 60), F(19, 120), F(-139, 840), F(-13, 560), F(-1, 5040)]
    assert K.entry(1, 1) == F(107, 210)
    assert K.entry(1, 2) == F(-17, 560)
    M = reference_matrix("M", 4, 14)
    assert [M.entry(0, j) for j in range(4)] == [
        F(809, 4320), F(1753, 8640), F(2351, 60480), F(167, 120960)]
    assert M.entry(1, 1) == F(6487, 15120)
    assert M.entry(1, 2) == F(29411, 120960)
    T = reference_matrix("T", 4, 14)
    assert T.entry(0, 0) == F(77, 192)
    assert T.entry(0, 1) == F(25, 128)
    assert T.entry(0, 2) == F(1, 384)
    assert T.entry(1, 1) == F(115, 192)


def test_reference_matrix_boundary_rows_quintic():
    S = reference_matrix("S", 5, 16)
    assert [S.entry(0, j) for j in range(7)] == [429, -572, 429, -208,
                                                 65, -12, 1]
    assert [S.entry(1, j) for j in range(1, 4)] == [858, -780, 494]
    assert S.entry(2, 2) == 923
    K = reference_matrix("K", 5, 14)
    assert K.entry(0, 0) == F(8143, 15120)
    assert K.entry(0, 1) == F(1285, 24192)
    assert K.entry(1, 1) == F(34103, 90720)
    assert K.entry(1, 2) == F(5671, 362880)
    M = reference_matrix("M", 5, 14)
    assert M.entry(0, 0) == F(10243, 30240)
    assert M.entry(0, 1) == F(96823, 403200)
    assert M.entry(1, 1) == F(357323, 907200)
    T = reference_matrix("T", 5, 14)
    assert T.entry(0, 0) == F(13, 24)


def test_reference_matrix_low_degree_corners():
    assert reference_matrix("T", 2, 6).entry(0, 0) == F(5, 8)
    assert reference_matrix("T", 3, 8).entry(0, 0) == F(2, 3)
    K2 = reference_matrix("K", 2, 8)
    assert K2.entry(0, 0) == F(1) - F(-1, 3)  # 4/3
    M2 = reference_matrix("M", 2, 8)
    assert M2.entry(0, 0) == F(11, 20) - F(13, 60)


def test_reference_matrices_interior_rows_match_stencils():
    for kind in ("K", "M", "S", "T"):
        for p in (2, 3, 4, 5):
            A = reference_matrix(kind, p, 16)
            sym = interior_stencil(kind, p)
            mid = A.n // 2
            for off, value in enumerate(sym):
                assert A.entry(mid, mid + off) == value


def test_reference_matrices_are_persymmetric():
    for kind in ("K", "M", "S", "T"):
        for p in (2, 3, 4, 5):
            A = reference_matrix(kind, p, 16).toarray()
            assert np.array_equal(A, A[::-1, ::-1].T)


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_commutators_vanish_exactly(p, N=14):
    T = reference_matrix("T", p, N)
    for kind in ("K", "M"):
        assert commutator_norm(reference_matrix(kind, p, N), T) == 0
    eta = eta_table().default.get(p)
    if eta is not None:
        A, B = softened_reference(p, N, eta)
        assert commutator_norm(A, T) == 0
        assert commutator_norm(B, T) == 0


def test_softened_commutator_at_arbitrary_weight():
    # folding any multiple of the penalty matrix into the stiffness
    # keeps the commutation with the transformation matrix exact
    A, _ = softened_reference(3, 12, F(1, 1000))
    T = reference_matrix("T", 3, 12)
    assert commutator_norm(A, T) == 0


def test_commutator_norm_on_plain_arrays():
    X = np.array([[0.0, 1.0], [0.0, 0.0]])
    Y = np.array([[1.0, 0.0], [0.0, 2.0]])
    # [X, Y] = XY - YX has entries (0, 1; 0, 0)
    assert commutator_norm(X, Y) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        commutator_norm(np.eye(2), np.eye(3))


def test_reference_pencil_eigenvalues_match_closed_form():
    # the printed matrices are dimensionless; K/M carries the h^-2
    p, N = 3, 16
    eta = eta_table().default[p]
    A, B = softened_reference(p, N, eta)
    w = generalized_eig(A.toarray().astype(float),
                        B.toarray().astype(float)).values * N ** 2
    exact = np.array([analytic_eigenvalue(p, float(eta), j, N)
                      for j in range(1, N)])
    np.testing.assert_allclose(w, exact, rtol=1e-10)


def test_dispersion_expansion_reference_values():
    lead = dispersion_expansion(2, 0)
    assert (lead.lead, lead.next) == (F(1, 720), F(1, 3360))
    sup4 = dispersion_expansion(4, F(1, 1209600))
    assert (sup4.lead, sup4.next) == (F(0), F(1, 1368576))
    five = dispersion_expansion(5, 0)
    assert (five.lead, five.next) == (F(1, 47900160),
                                      F(691, 24216192000))
    with pytest.raises(ValueError):
        dispersion_expansion(6, 0)


def test_symbol_matches_closed_form_on_grid_modes():
    for p in (2, 3, 4):
        N = 16
        eta = eta_table().default[p]
        top = N if p % 2 == 0 else N - 1
        for j in (1, 3, top):
            t = j * math.pi / N
            sym = float(dispersion_eigenvalue(p, t, eta)) * N ** 2
            exact = analytic_eigenvalue(p, float(eta), j, N)
            assert sym == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_fitted_dispersion_coefficients(p):
    table = eta_table()
    for eta in (F(0), table.superconvergent[p]):
        fitted, exact, power = fit_leading_coefficient(p, eta)
        assert power == (2 * p + 2 if eta else 2 * p)
        assert fitted == pytest.approx(float(exact), rel=1e-2)
        # the high-precision fit is far tighter than the 1% budget
        assert fitted == pytest.approx(float(exact), rel=1e-10)


def test_mass_side_weight_reaches_eighth_order():
    # quadratic with both canonical weights: relative error t^8 / 86400
    eta = F(1, 720)
    eta_b = F(1, 3360)
    with mpmath.workdps(60):
        for t in (mpmath.mpf("0.02"), mpmath.mpf("0.01")):
            lam = dispersion_eigenvalue(2, t, eta, eta_b)
            rel = lam / t ** 2 - 1
            assert abs(rel / t ** 8 - F(1, 86400)) < 1e-7
        # cubic counterpart: t^10 / 532224
        for t in (mpmath.mpf("0.05"), mpmath.mpf("0.02")):
            lam = dispersion_eigenvalue(3, t, F(1, 30240), F(1, 60480))
            rel = lam / t ** 2 - 1
            assert abs(rel / t ** 10 - F(1, 532224)) < 1e-5


def test_assembled_mass_side_matches_symbol():
    for p in (2, 3):
        N = 16
        table = eta_table()
        eta = table.superconvergent[p]
        eta_b = table.mass_side[p]
        system = build_soft_system(p, N, eta, eta_b)
        values = generalized_eig(system.A, system.B).values
        top = N if p % 2 == 0 else N - 1
        sym = np.array([float(dispersion_eigenvalue(
            p, j * math.pi / N, eta, eta_b)) * N ** 2
            for j in range(1, top + 1)])
        np.testing.assert_allclose(values, sym, rtol=1e-9)


def test_spectrum_monotone_at_default_weight():
    for p in (2, 3, 4):
        N = 100
        eta = float(eta_table().default[p])
        top = N if p % 2 == 0 else N - 1
        vals = np.array([analytic_eigenvalue(p, eta, j, N)
                         for j in range(1, top + 1)])
        assert np.all(np.diff(vals) > 0)


def test_spectrum_not_monotone_at_sharp_weight():
    for p in (2, 3, 4):
        N = 100
        eta = float(eta_table().sharp_max[p])
        top = N if p % 2 == 0 else N - 1
        vals = np.array([analytic_eigenvalue(p, eta, j, N)
                         for j in range(1, top + 1)])
        assert np.any(np.diff(vals) < 0)


@pytest.mark.parametrize("N", [10, 20, 40, 60])
def test_quadratic_error_bounds(N):
    # relative error below (37/5040 + eta) t^4 for every mode, and
    # below t^6/1680 at the superconvergent weight
    h = 1.0 / N
    for eta in (0.0, float(eta_table().default[2])):
        for j in range(1, N + 1):
            t = j * math.pi * h
            lam = (j * math.pi) ** 2
            rel = abs(analytic_eigenvalue(2, eta, j, N) - lam) / lam
            assert rel < (37 / 5040 + eta) * t ** 4
    for j in range(1, N + 1):
        t = j * math.pi * h
        lam = (j * math.pi) ** 2
        rel = abs(analytic_eigenvalue(2, 1 / 720, j, N) - lam) / lam
        assert rel < t ** 6 / 1680


@pytest.mark.parametrize("N", [10, 20, 40, 60])
def test_cubic_error_bounds(N):
    h = 1.0 / N
    for eta in (0.0, float(eta_table().default[3])):
        for j in range(1, N):
            t = j * math.pi * h
            lam = (j * math.pi) ** 2
            rel = abs(analytic_eigenvalue(3, eta, j, N) - lam) / lam
            assert rel < (131 / 332640 + eta) * t ** 6
    for j in range(1, N):
        t = j * math.pi * h
        lam = (j * math.pi) ** 2
        rel = abs(analytic_eigenvalue(3, 1 / 30240, j, N) - lam) / lam
        assert rel < t ** 8 / 27720
