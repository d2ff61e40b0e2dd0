"""Closed-form spectra, canonical weight tables, exact reference
matrices, commutators, and dispersion expansions."""

import math
import random
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest

from oracles import (PRINTED_SHARP, PRINTED_STENCILS, band_entry, banded,
                     dense_commutator_norm, dispersion_eigenvalue,
                     loop_reference_numerators, mpmath_fit, sine_sample,
                     softened_reference)
from softiga.analytic import (_commutator_square, _mass_polynomial,
                              _reference_numerators, analytic_eigenvalue,
                              commutator_norm, dispersion_expansion,
                              eta_table, fit_leading_coefficient,
                              interior_stencil, inverse_constants_squared,
                              reference_matrix, sharp_weight,
                              transformation_commutators)
from softiga.assembly import build_soft_system
from softiga.eigensolve import SymBandedMatrix, generalized_eig


def test_eta_table_exact_values():
    table = eta_table()
    assert dict(table.sharp_max) == PRINTED_SHARP | {5: None}
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


@pytest.mark.parametrize("p", range(1, 17))
def test_sharp_weight_is_the_least_stiffness_to_softness_symbol_ratio(p):
    # the stiffness side K - eta S stays positive semidefinite while eta
    # is at most the ratio of the interior symbols of K and S, here their
    # unfactored cosine series; its minimum over a 60-point grid sits at
    # theta = pi
    def series(kind, theta):
        stencil = interior_stencil(kind, p)
        return stencil[0] + 2 * sum(
            mpmath.mpf(c.numerator) / c.denominator * mpmath.cos(k * theta)
            for k, c in enumerate(stencil) if k)

    with mpmath.workdps(100):
        ratios = [series("K", theta) / series("S", theta)
                  for theta in (mpmath.pi * i / 60 for i in range(1, 61))]
        sharp = sharp_weight(p)
        assert min(ratios) == ratios[-1]
        assert abs(ratios[-1] - mpmath.mpf(sharp.numerator)
                   / sharp.denominator) < mpmath.mpf(10) ** -90 * sharp
    # c = cos^2(theta / 2) vanishes at theta = pi
    assert sharp == _mass_polynomial(p - 1)[0] / 4 ** p


@pytest.mark.parametrize("q", range(31))
def test_mass_polynomial_is_the_cosine_series_with_positive_coefficients(
        q):
    # at rational c = cos^2(theta / 2), x = cos(theta) = 2c - 1 is
    # rational and so is cos(k theta), the real part of (x + i y)^k with
    # y^2 = 1 - x^2 (de Moivre), which checks cos(k theta) = T_k(x)
    def cosine(k, x):
        return sum(math.comb(k, m) * x ** (k - m) * (x * x - 1) ** (m // 2)
                   for m in range(0, k + 1, 2))

    coeffs = _mass_polynomial(q)
    stencil = interior_stencil("M", q) if q else (F(1),)
    assert len(coeffs) == q + 1
    assert all(a > 0 for a in coeffs)
    for c in (F(0), F(1, 7), F(1, 3), F(1, 2), F(5, 6), F(1)):
        series = stencil[0] + 2 * sum(m * cosine(k, 2 * c - 1)
                                      for k, m in enumerate(stencil) if k)
        assert sum(a * c ** i for i, a in enumerate(coeffs)) == series


def test_eta_table_is_built_once_and_read_only():
    table = eta_table()
    assert eta_table() is table
    for weights in (table.theoretical_max, table.sharp_max, table.default,
                    table.superconvergent, table.mass_side):
        with pytest.raises(TypeError):
            weights[2] = F(1)
    assert table.sharp_max[2] == F(1, 48)


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
        assert inverse_constants_squared(p) == expected
    with pytest.raises(ValueError):
        inverse_constants_squared(0)


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
    # every component, the fold corners included, is a sine sample
    for j in (1, 2, 5):
        c = spectrum.vectors[:, j - 1]
        want = np.array([sine_sample(p, j, N, i + 1)
                         for i in range(system.space.dim)])
        scale = (c @ want) / (want @ want)
        residual = np.linalg.norm(c - scale * want)
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
    for (kind, p), stencil in PRINTED_STENCILS.items():
        assert interior_stencil(kind, p) == stencil, (kind, p)
    # past the printed degrees: the two-sided sums of the mass stencil
    # (a partition of unity) and of the stiffness and softness stencils
    # (they annihilate constants)
    for kind, total in (("M", 1), ("K", 0), ("S", 0)):
        stencil = interior_stencil(kind, 6)
        assert stencil[0] + 2 * sum(stencil[1:]) == total, kind
    with pytest.raises(ValueError):
        interior_stencil("X", 2)
    with pytest.raises(ValueError):
        interior_stencil("K", 0)


def test_reference_matrix_orders():
    assert reference_matrix("K", 2, 8).n == 8
    assert reference_matrix("K", 3, 9).n == 8
    assert reference_matrix("M", 5, 14).n == 13
    # an order below twice the stencil length takes more images: on one
    # element of degree 2 the one member, 2x(1 - x), is the B-spline at
    # 1/2 with its odd images at -1/2, 3/2, ..., so its mass is
    # s_0 - 2 s_1 + 2 s_2 = 4/30
    S = reference_matrix("S", 5, 10)
    assert S.n == 9 and S.half_bandwidth == 6
    M = reference_matrix("M", 2, 1)
    assert M.n == 1 and band_entry(M, 0, 0) == F(2, 15)
    with pytest.raises(ValueError):
        reference_matrix("K", 3, 1)  # no interior node


def test_reference_matrix_boundary_rows_quartic():
    S = reference_matrix("S", 4, 14)
    assert [band_entry(S, 0, j) for j in range(6)] == [462, -330, 165, -55,
                                                 11, -1]
    assert [band_entry(S, 1, j) for j in range(1, 4)] == [297, -220, 121]
    assert band_entry(S, 2, 2) == 253
    K = reference_matrix("K", 4, 14)
    assert [band_entry(K, 0, j) for j in range(5)] == [
        F(31, 60), F(19, 120), F(-139, 840), F(-13, 560), F(-1, 5040)]
    assert band_entry(K, 1, 1) == F(107, 210)
    assert band_entry(K, 1, 2) == F(-17, 560)
    M = reference_matrix("M", 4, 14)
    assert [band_entry(M, 0, j) for j in range(4)] == [
        F(809, 4320), F(1753, 8640), F(2351, 60480), F(167, 120960)]
    assert band_entry(M, 1, 1) == F(6487, 15120)
    assert band_entry(M, 1, 2) == F(29411, 120960)
    T = reference_matrix("T", 4, 14)
    assert band_entry(T, 0, 0) == F(77, 192)
    assert band_entry(T, 0, 1) == F(25, 128)
    assert band_entry(T, 0, 2) == F(1, 384)
    assert band_entry(T, 1, 1) == F(115, 192)


def test_reference_matrix_boundary_rows_quintic():
    S = reference_matrix("S", 5, 16)
    assert [band_entry(S, 0, j) for j in range(7)] == [429, -572, 429, -208,
                                                 65, -12, 1]
    assert [band_entry(S, 1, j) for j in range(1, 4)] == [858, -780, 494]
    assert band_entry(S, 2, 2) == 923
    K = reference_matrix("K", 5, 14)
    assert band_entry(K, 0, 0) == F(8143, 15120)
    assert band_entry(K, 0, 1) == F(1285, 24192)
    assert band_entry(K, 1, 1) == F(34103, 90720)
    assert band_entry(K, 1, 2) == F(5671, 362880)
    M = reference_matrix("M", 5, 14)
    assert band_entry(M, 0, 0) == F(10243, 30240)
    assert band_entry(M, 0, 1) == F(96823, 403200)
    assert band_entry(M, 1, 1) == F(357323, 907200)
    T = reference_matrix("T", 5, 14)
    assert band_entry(T, 0, 0) == F(13, 24)


def test_reference_matrix_low_degree_corners():
    assert band_entry(reference_matrix("T", 2, 6), 0, 0) == F(5, 8)
    assert band_entry(reference_matrix("T", 3, 8), 0, 0) == F(2, 3)
    K2 = reference_matrix("K", 2, 8)
    assert band_entry(K2, 0, 0) == F(1) - F(-1, 3)  # 4/3
    M2 = reference_matrix("M", 2, 8)
    assert band_entry(M2, 0, 0) == F(11, 20) - F(13, 60)


def test_reference_matrices_interior_rows_match_stencils():
    for kind in ("K", "M", "S", "T"):
        for p in (2, 3, 4, 5):
            A = reference_matrix(kind, p, 16)
            sym = interior_stencil(kind, p)
            mid = A.n // 2
            for off, value in enumerate(sym):
                assert band_entry(A, mid, mid + off) == value


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


def test_commutator_norm_on_float_bands():
    X = banded([[0.0, 1.0], [1.0, 0.0]])
    Y = banded([[1.0, 0.0], [0.0, 2.0]])
    # [X, Y] = XY - YX has entries (0, 1; -1, 0)
    assert commutator_norm(X, Y) == pytest.approx(math.sqrt(2.0))
    with pytest.raises(ValueError):
        commutator_norm(banded(np.eye(2)), banded(np.eye(3)))
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="non-finite"):
            commutator_norm(banded([[bad, 0.0], [0.0, 1.0]]), Y)


def _random_band(rng, n, hbw, entry):
    """A symmetric band of order n whose slots inside the matrix hold
    entry(rng) and whose slots past it hold zero."""
    band = np.zeros((hbw + 1, n), dtype=object)
    for k in range(hbw + 1):
        for i in range(n - k):
            band[k, i] = entry(rng)
    return SymBandedMatrix(band)


def _rational(rng):
    if rng.random() < 0.25:
        return rng.randint(-9, 9)
    return F(rng.randint(-60, 60), rng.randint(1, 97))


def test_scaled_commutator_matches_dense_fractions():
    # the integer kernel returns the float of the same exact rational
    # as dense Fraction products; random operands do not commute unless
    # both are diagonal or the order is one
    rng = random.Random(15)
    for n in range(1, 21):
        for a in range(6):
            b = rng.randint(0, 5)
            a, b = min(a, n - 1), min(b, n - 1)
            A, B = (_random_band(rng, n, hbw, _rational) for hbw in (a, b))
            norm = commutator_norm(A, B)
            assert norm == dense_commutator_norm(A, B)
            assert (norm > 0) == (n > 1 and max(a, b) > 0)


def test_scaled_commutator_matches_dense_fractions_on_references():
    table = eta_table()
    for p in (2, 3, 4, 5):
        T = reference_matrix("T", p, 14)
        # the pairs verify checks, and a mass side with a nonzero weight
        pairs = [(reference_matrix(kind, p, 14), T) for kind in "KM"]
        if table.default.get(p) is not None:
            pairs.extend((side, T) for side in
                         softened_reference(p, 14, table.default[p],
                                            table.superconvergent[p]))
        for A, B in pairs:
            assert commutator_norm(A, B) == dense_commutator_norm(A, B)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 8])
def test_transformation_commutators_are_those_of_the_references(p):
    # the integer completions, each over its denominator, give the float
    # of the Fraction references' commutator: zero, at every size
    for N in (2, p + 1, 14):
        T = reference_matrix("T", p, N)
        exact = [commutator_norm(reference_matrix(kind, p, N), T)
                 for kind in "KMS"]
        assert transformation_commutators(p, N) == exact == [0, 0, 0]


@pytest.mark.parametrize("p", range(1, 17))
def test_reference_bands_match_the_entrywise_completion(p):
    # the completion read from the wrapped stencil by index arrays is the
    # loop's, entry by entry, on every small mesh, odd orders included
    for kind in "KMST":
        for N in range(1, 4 * p + 6):
            if p % 2 and N == 1:
                with pytest.raises(ValueError, match="no interior node"):
                    reference_matrix(kind, p, N)
                continue
            band, d = loop_reference_numerators(kind, p, N)
            numerators, scale = _reference_numerators(kind, p, N)
            assert scale == d
            assert numerators.band.shape == band.shape
            assert numerators.band.tolist() == band.tolist()
            exact = reference_matrix(kind, p, N).band.tolist()
            assert exact == (band / F(d)).tolist()
            assert {type(x) for row in exact for x in row} == {F}


def _object_commutator_norm(X, x, T, t):
    """The norm of [X, T] over x * t from Python-integer dense products,
    in the order and rounding of ``transformation_commutators``."""
    return dense_commutator_norm(SymBandedMatrix(X), SymBandedMatrix(T)) / (
        x * t)


@pytest.mark.parametrize("p", range(1, 9))
def test_transformation_commutators_match_python_integer_products(p):
    for N in (p + 1, 14, 40):
        T, t = loop_reference_numerators("T", p, N)
        expected = [_object_commutator_norm(
            *loop_reference_numerators(kind, p, N), T, t) for kind in "KMS"]
        got = transformation_commutators(p, N)
        assert [x.hex() for x in got] == [x.hex() for x in expected]


def _int64_bound(A, B):
    return 2 * A.n * math.prod(max(abs(x) for x in M.band.ravel().tolist())
                               for M in (A, B))


def test_changed_entry_gives_an_exact_nonzero_commutator():
    # one entry of K off its completion breaks the commutation; the sum
    # of squares is the dense Python-integer products' exactly
    for p, N in ((2, 14), (3, 14), (5, 40)):
        (K, _), (T, _) = (_reference_numerators(kind, p, N) for kind in "KT")
        band = K.band.astype(object)
        band[1, 3] += 1
        X, T = SymBandedMatrix(band), SymBandedMatrix(T.band.astype(object))
        assert _int64_bound(X, T) < 2 ** 63
        exact = (X.toarray() @ T.toarray()) - (T.toarray() @ X.toarray())
        square = _commutator_square(X, T)
        assert square == sum(x * x for x in exact.ravel().tolist()) > 0
        assert math.sqrt(square) == dense_commutator_norm(X, T)


def test_operands_past_the_int64_bound_take_python_integers():
    # numerators near 2^40 and 2^30 put 2 n max|X| max|T| past 2^63,
    # where int64 products would wrap; the norm is still exact
    rng = random.Random(38)
    for p, N in ((3, 14), (4, 40), (8, 40)):
        (K, _), (T, _) = (_reference_numerators(kind, p, N) for kind in "KT")
        X = SymBandedMatrix(K.band.astype(object) * (1 << 40)
                            + rng.randint(1, 99))
        Y = SymBandedMatrix(T.band.astype(object) * (1 << 30))
        assert _int64_bound(X, Y) >= 2 ** 63
        exact = (X.toarray() @ Y.toarray()) - (Y.toarray() @ X.toarray())
        assert _commutator_square(X, Y) == sum(
            x * x for x in exact.ravel().tolist()) > 0
        assert commutator_norm(X, Y) == dense_commutator_norm(X, Y)


def test_int64_products_are_exact_up_to_the_bound():
    # entries as large as the bound allows, of both signs: the int64
    # route's squares are those of the Python-integer products
    rng = random.Random(39)
    for n in (1, 2, 9, 30):
        top = math.isqrt((2 ** 63 - 1) // (2 * n))
        for a, b in ((0, 3), (4, 4), (8, 1)):
            A, B = (_random_band(rng, n, min(hbw, n - 1),
                                 lambda r: r.randint(-top, top))
                    for hbw in (a, b))
            exact = (A.toarray() @ B.toarray()) - (B.toarray() @ A.toarray())
            assert _commutator_square(A, B) == sum(
                x * x for x in exact.ravel().tolist())


def test_float_operands_match_python_integer_products():
    # doubles with small scaled integers and doubles scaled by 2^52 or
    # more, on either side of the int64 bound, through commutator_norm
    rng = random.Random(40)
    for n in (3, 11):
        small = [SymBandedMatrix(M.band.astype(float)) for M in
                 (_random_band(rng, n, 2, lambda r: r.randint(-9, 9)),
                  _random_band(rng, n, 1, lambda r: r.randint(-9, 9)))]
        wide = [SymBandedMatrix(M.band.astype(float)) for M in
                (_random_band(rng, n, 2, lambda r: r.uniform(-1, 1)),
                 _random_band(rng, n, 3, lambda r: r.uniform(-1e3, 1e3)))]
        for A, B in (small, wide, (small[0], wide[1])):
            exact = [SymBandedMatrix(np.vectorize(F, otypes=[object])(M.band))
                     for M in (A, B)]
            assert commutator_norm(A, B) == dense_commutator_norm(*exact)


def test_float_commutator_matches_dense_products():
    rng = random.Random(16)
    for n in (1, 2, 7, 20):
        for a, b in ((0, 3), (2, 2), (5, 1)):
            A, B = (_random_band(rng, n, min(hbw, n - 1),
                                 lambda r: r.uniform(-1, 1))
                    for hbw in (a, b))
            A, B = (SymBandedMatrix(M.band.astype(float)) for M in (A, B))
            # the exact norm of the bands' rationals, rounded once
            exact = [SymBandedMatrix(np.vectorize(F, otypes=[object])(M.band))
                     for M in (A, B)]
            assert commutator_norm(A, B) == dense_commutator_norm(*exact)


def test_reference_pencil_eigenvalues_match_closed_form():
    # the printed matrices are dimensionless; K/M carries the h^-2
    p, N = 3, 16
    eta = eta_table().default[p]
    A, B = softened_reference(p, N, eta)
    w = generalized_eig(A, B).values * N ** 2
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


# The fitted doubles, bit for bit, at p = 2..5 and the weights 0,
# superconvergent, default (where tabulated) and 1/1000, as recorded from
# the 60-digit mpmath fit of ``oracles.mpmath_fit``.
_FITTED_HEX = {
    (2, F(0)): "0x1.6c16c16c16c12p-10",
    (2, F(1, 720)): "0x1.3813813813810p-12",
    (2, F(3, 272)): "-0x1.3be6913be6914p-7",
    (2, F(1, 1000)): "0x1.97c790f3f085bp-12",
    (3, F(0)): "0x1.1566abc011571p-15",
    (3, F(1, 30240)): "0x1.1566abc011565p-16",
    (3, F(69, 79360)): "-0x1.b681f1c184b26p-11",
    (3, F(1, 1000)): "-0x1.faf34fa2342a1p-11",
    (4, F(0)): "0x1.bbd779334ef89p-21",
    (4, F(1, 1209600)): "0x1.8848c98163824p-21",
    (4, F(451, 6191360)): "-0x1.2e0f5f1ee5296p-14",
    (4, F(1, 1000)): "-0x1.05ed623ff435ep-10",
    (5, F(0)): "0x1.66a8f2bf71033p-26",
    (5, F(1, 47900160)): "0x1.ea389d9930115p-26",
    (5, F(1, 1000)): "-0x1.0623768627e05p-10",
}


@pytest.mark.parametrize("p,eta", sorted(_FITTED_HEX))
def test_fitted_dispersion_coefficient_bits(p, eta):
    assert fit_leading_coefficient(p, eta)[0].hex() == _FITTED_HEX[p, eta]


def _fit_weights_checked(p):
    """Every tabulated weight of degree p, the weights of ``_FITTED_HEX``,
    the double of the superconvergent weight and its two neighbours, and
    250 seeded random weights: 150 in [0, sharp) ([0, 0.1) at p = 5,
    which tabulates no sharp weight) and 100 in 10^(-300..-2)."""
    table = eta_table()
    weights = [eta for name in ("theoretical_max", "sharp_max", "default",
                                "superconvergent", "mass_side")
               if (eta := getattr(table, name).get(p)) is not None]
    weights += [eta for q, eta in _FITTED_HEX if q == p]
    sup = float(table.superconvergent[p])
    weights += [sup, math.nextafter(sup, 0), math.nextafter(sup, 1)]
    rng = random.Random(3800 + p)
    top = float(table.sharp_max[p] or 0.1)
    weights += [rng.uniform(0, top) for _ in range(150)]
    weights += [10 ** rng.uniform(-300, -2) for _ in range(100)]
    return weights


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_fixed_point_fit_matches_mpmath_bits(p):
    # the integer fit and the 60-digit mpmath fit round to one double
    for eta in _fit_weights_checked(p):
        assert fit_leading_coefficient(p, eta)[0].hex() == (
            mpmath_fit(p, eta).hex()), eta


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
