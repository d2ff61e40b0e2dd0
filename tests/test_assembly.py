"""Assembled operators against hand-computable stencils, polynomial
identities, and the closed-form spectrum."""

import dataclasses
import functools
import hashlib
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg import lapack

import softiga.assembly as assembly
from oracles import (PRINTED_STENCILS, band_entry, dense_extraction,
                     fresh_assembly_caches, pth_derivative_jump,
                     space_member_eval, space_operators, stretch)
from softiga.analytic import (analytic_eigenvalue, eta_table,
                              reference_matrix, sharp_weight)
from softiga.assembly import (IndefinitenessWarning, SymBandedMatrix,
                              build_soft_system)
from softiga.eigensolve import (DefinitenessError, cholesky_pivot,
                                generalized_eig, lowest_eigenvalue)
from softiga.spaces import build_of_space, build_standard_space
from softiga.spectral_analysis import solve_system, spectral_report
from softiga.splines import eval_basis, open_knot_vector
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
    assert band_entry(banded, 0, 1) == -1.0
    assert band_entry(banded, 1, 0) == -1.0
    assert band_entry(banded, 0, 3) == 0.0
    np.testing.assert_array_equal(banded.toarray(), A)


def test_banded_storage_keeps_exact_rationals():
    banded = SymBandedMatrix(np.array([[Fraction(2), Fraction(2)],
                                       [Fraction(-1, 3), Fraction(0)]],
                                      dtype=object))
    assert band_entry(banded, 0, 1) == Fraction(-1, 3)
    assert isinstance(band_entry(banded, 0, 1), Fraction)
    diagonal = SymBandedMatrix(np.array([[Fraction(1), Fraction(3)]],
                                        dtype=object))
    total = banded.plus(Fraction(-1, 2), diagonal)
    assert total.half_bandwidth == 1
    assert list(total.band[0]) == [Fraction(3, 2), Fraction(1, 2)]
    assert isinstance(band_entry(total, 0, 1), Fraction)
    assert band_entry(total, 0, 1) == Fraction(-1, 3)


def test_linear_elements_reproduce_textbook_stencils():
    N = 6
    space = build_standard_space(1, N)
    K, M, _ = (op.toarray() for op in space_operators(space))
    h = 1.0 / N
    i = 2
    np.testing.assert_allclose(K[i, i - 1:i + 2],
                               np.array([-1.0, 2.0, -1.0]) / h)
    np.testing.assert_allclose(M[i, i - 1:i + 2],
                               np.array([1 / 6, 2 / 3, 1 / 6]) * h)


def test_quadratic_interior_rows_match_reference_stencils():
    N = 10
    space = build_standard_space(2, N)
    K, M, S = (op.toarray() for op in space_operators(space))
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
        S = space_operators(space)[2].toarray()
        kv = space.kv
        # interpolate x(1-x), a degree-2 polynomial in the space
        xs = np.linspace(0.02, 0.98, space.dim)
        A = np.zeros((space.dim, space.dim))
        for row, x in enumerate(xs):
            be = eval_basis(kv, float(x))
            full = np.zeros(kv.num_raw)
            full[be.element:be.element + p + 1] = be.ders[-1]
            A[row] = dense_extraction(space) @ full
        coeff = np.linalg.solve(A, xs * (1 - xs))
        energy = float(coeff @ S @ coeff)
        assert abs(energy) < 1e-9 * np.linalg.norm(S)


def test_even_degree_boundary_faces_carry_energy():
    # p=2: u = x - x^2 has u'' = -2 everywhere, so no interior jumps;
    # the two boundary faces contribute 2 * h^3 * (2 * (-2)^2) = 16 h^3
    N = 8
    space = build_standard_space(2, N)
    S = space_operators(space)[2].toarray()
    kv = space.kv
    xs = np.linspace(0.05, 0.95, space.dim)
    A = np.zeros((space.dim, space.dim))
    for row, x in enumerate(xs):
        be = eval_basis(kv, float(x))
        full = np.zeros(kv.num_raw)
        full[be.element:be.element + 3] = be.ders[-1]
        A[row] = dense_extraction(space) @ full
    coeff = np.linalg.solve(A, xs - xs ** 2)
    energy = float(coeff @ S @ coeff)
    h = 1.0 / N
    assert energy == pytest.approx(16 * h ** 3, rel=1e-10)


def test_odd_degree_boundary_faces_carry_no_energy():
    # p=3: u with constant third derivative has no interior jumps and
    # odd degree adds no boundary terms, so the energy is zero
    N = 8
    space = build_standard_space(3, N)
    S = space_operators(space)[2].toarray()
    kv = space.kv
    target = lambda x: x * (1 - x) * (1 + 2 * x)  # cubic, u''' = -12
    xs = np.linspace(0.03, 0.97, space.dim)
    A = np.zeros((space.dim, space.dim))
    for row, x in enumerate(xs):
        be = eval_basis(kv, float(x))
        full = np.zeros(kv.num_raw)
        full[be.element:be.element + 4] = be.ders[-1]
        A[row] = dense_extraction(space) @ full
    coeff = np.linalg.solve(A, target(xs))
    energy = float(coeff @ S @ coeff)
    assert abs(energy) < 1e-9 * np.linalg.norm(S)


def test_mass_row_sums_integrate_against_member_sum():
    # sum_j M_ij = integral of member i times the sum of all members
    from scipy.integrate import quad

    space = build_of_space(3, 6)
    M = space_operators(space)[1].toarray()

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
        for op in space_operators(space):
            A = op.toarray()
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


@pytest.mark.parametrize("p", range(1, 17))
def test_every_degree_warns_at_its_sharp_weight(p):
    sharp = float(sharp_weight(p))
    N = 2 * p + 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        system = build_soft_system(p, N, 0.99 * sharp)
    with pytest.warns(IndefinitenessWarning, match=f"{sharp}"):
        build_soft_system(p, N, sharp)
    with pytest.warns(IndefinitenessWarning, match=f"{sharp}"):
        system.with_weights(1.01 * sharp)


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
        K = space_operators(space)[0].toarray()
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
    assert band_entry(banded, 0, hbw + 1) == 0.0
    assert band_entry(banded, hbw, 0) == expected[hbw, 0]


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
    assert isinstance(band_entry(banded, 0, 2), Fraction)
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
    E = dense_extraction(space)
    return [E @ A @ E.T for A in (K, M, S)]


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("flavor", ["standard", "outlier_free"])
def test_banded_operators_match_per_point_quadrature(p, flavor):
    # the meshes run from ones whose two boundary blocks meet (no
    # translate of the interior element, N < 2p + 1) to ones with many
    for N in range(1, 2 * p + 6):
        try:
            system = build_soft_system(p, N, 0.0, 0.0, flavor)
        except ValueError:
            continue
        for got, expected in zip((system.stiffness, system.mass,
                                  system.softness),
                                 _reference_operators(system.space)):
            scale = max(abs(expected).max(), 1e-300)
            assert np.abs(got.toarray() - expected).max() <= 1e-13 * scale
            # the band is LAPACK lower storage, usable as it is
            dense = np.linalg.eigvalsh(got.toarray())
            banded = sla.eigvals_banded(got.band, lower=True)
            assert (np.abs(banded - dense).max()
                    <= 1e-12 * max(np.abs(dense).max(), 1e-300))



# md5 digests of the raw stiffness, mass and softness bands of the knot
# vector (``band.tobytes()``), recorded when each of the three was
# assembled from a basis table of its own; the one shared table must
# give the same bytes. N < 2p - 1 leaves no interior element, so the
# two corners meet.
_RAW_BAND_DIGESTS = {
    (1, 1): ("b73037c3c7cf568a37d18eda0920da80",
             "ddf38f5ee41d862af44755a56ac2626c",
             "70bc8f4b72a86921468bf8e8441dce51"),
    (1, 7): ("81ccd0f5cbb2b5c007e9a0c32660bcc1",
             "b67024a303819e532a3667a553d99cff",
             "f2243946d5ae22990f27f49a7de0f77b"),
    (2, 1): ("cbe6882ef464b9860ab3969002517269",
             "87be76a736660165fdc3982260928c12",
             "23d8f14e10b8ae81e8c0a161b45557e0"),
    (2, 3): ("79c7e2212be2c56030cb8c344347a5f0",
             "741b7f06420d67f3a4ffdfec785a56d6",
             "bb5895a969d911921c9f0bf06d036d8c"),
    (2, 100): ("5131d7c7ab3ed1d8635f58dee7d9f035",
               "55169b5fda85715ad17c153e7eea0aa9",
               "be9cfa95d450d6bafc4be3644a641911"),
    (3, 2): ("ea3242eceddbfa381d4b19fc23226f7a",
             "38fc4f0a714b8833694d2ed23ef138a6",
             "90ad0d5dc7bfa3baa78c2323873fdcf5"),
    (3, 5): ("c0553feee49e1b2983fe891fc5bca3d3",
             "7d94d6bf33c09b5df4ee7c9c6f789e03",
             "fcfd27fc8695ed78266464f8f2e34640"),
    (3, 40): ("90cd073957d4d4f4673492dac7d0d44b",
              "07b419c8c60777b0502b17ea35b378fe",
              "20b4fe1c5d8ea94cb7d95352376e6077"),
    (4, 3): ("d2eaaace13cb10c8fe4a23b9ee4261b8",
             "51bda1d70be5fab972f68166d93ca1a3",
             "7f21f92a68b93bab0b215d8278736924"),
    (4, 7): ("fa5deb62687c1f4384f8ebca8d4f013e",
             "1182d0ddf16f8ab7f3ba718921fba8ba",
             "ce37fd8f8ec49b4cfc782b9e2930f3f8"),
    (4, 400): ("3a2ac89fa18555b9afbe27edc65f172a",
               "20e0a40984861c47bcefc1806caba0e0",
               "d885dd04d87d355c959d3ac9221d4859"),
    (5, 4): ("3de584631b35de9b101ff13c4e83e13f",
             "d7853870086fb21cada2c59c26edc36e",
             "a656806475116e1c67c56873989e4ef7"),
    (6, 11): ("82d2581a32d608009147ab2b3251da6e",
              "bd70b60b4dbe0091bcd85e60a3ca9f77",
              "e6a3a4deddbd22eb2faf40380a6893ef"),
    (7, 13): ("3c76b3311216201bd8dfa33a254b7636",
              "dad6d433e30f9a41a4aedda7b975ae04",
              "c261d20694e0c552b87f83434a3be8ab"),
    (8, 2): ("b888c8029790a01d513d2e364488d151",
             "7772f6ad84a56aba8f19b8249dca6e73",
             "c268cd1b87df8f40184617129fa1b779"),
    (9, 20): ("24ddd7aaf4bf9f6b1edf6107842d4a9e",
              "c5e5f491af0515197508594b13c80346",
              "feb95b7f1d7bc5f7cba89491c24e5536"),
    (10, 19): ("ff9bd010b3c9593d71c2c9a58fd194d3",
               "ca8e14b12145b27dcb4bb67deeb90105",
               "69cd2216ba0f30fd0ac34290887be1f2"),
    (12, 1): ("584808334bc6501a591bc37af0d9a24d",
              "765c9cdc659066d61294f1cee34d5af3",
              "0c690449f4e1643f119f547f4684934c"),
    (13, 25): ("fb142011708a46275269c84e1e90da8d",
               "ff533e4b04493feb8728e6210a701b6d",
               "4e7ccd247ea2685e56f483d1839714f5"),
    (16, 1): ("1fdcc2f224df8ce6f6555f88ab922512",
              "32fd8ea6e6492a5348de948f67fafa1d",
              "c6b834143e2a893b6919a793be7736f5"),
    (16, 3): ("5b0f76c523da37248f9614c5f7f22be0",
              "f059b404faebf6ba1a8349f0fb40ab9a",
              "e5d1ac2f85d83a1a12c7f7a516122669"),
    (16, 31): ("0f8a447489f6460c9077ce9120ef99e0",
               "03b138d21fd28a17dc0247c9522abd49",
               "96e55f4977371bb3dad6f1cf6d521aee"),
    (16, 100): ("7d007a24ec52f91b16c3086b35d4e5d3",
                "0a01d0bd3671fa189cf888d99eec4eb4",
                "25a679c62dd4b6bd090888ebbabe62b8"),
}


@pytest.mark.parametrize("p,N", sorted(_RAW_BAND_DIGESTS))
def test_raw_bands_match_recorded_digests(p, N):
    raw = assembly._raw_operators(open_knot_vector(p, N))
    digests = tuple(hashlib.md5(op.band.tobytes()).hexdigest() for op in raw)
    assert digests == _RAW_BAND_DIGESTS[p, N]


@pytest.mark.parametrize("p", [2, 3, 4])
def test_interior_rows_match_printed_stencils(p):
    N = 400
    h = 1.0 / N
    space = build_of_space(p, N)
    for kind, op, unit in zip("KMS", space_operators(space),
                              (h, 1.0 / h, h)):
        stencil = np.array([float(c) for c in PRINTED_STENCILS[kind, p]])
        full = np.concatenate([stencil[::-1], stencil[1:]])
        width = len(stencil) - 1
        dense = op.toarray()
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
    import softiga.eigensolve as eigensolve

    seen = []

    def failing_pivot(B):
        seen.append(B)
        return 2

    monkeypatch.setattr(eigensolve, "cholesky_pivot", failing_pivot)
    # the build factors nothing; a solve on the standard space checks B
    # once, as its band, and one on the outlier-free space proves it
    # positive from the symbol instead, with no factorization
    for p, flavor in ((3, "standard"), (2, "outlier_free")):
        system = build_soft_system(p, 20, 0.0, 1e-3, flavor)
        assert seen == []
        if flavor == "outlier_free":
            solve_system(system)
            continue
        with pytest.raises(DefinitenessError) as err:
            solve_system(system)
        assert err.value.pivot == 2
        assert len(seen) == 1 and isinstance(seen[0], SymBandedMatrix)
        np.testing.assert_array_equal(seen[0].band, system.B.band)
        seen.clear()


_FLAVORS = ("standard", "outlier_free")
_EPS = np.finfo(float).eps


def _bands(system):
    return (system.stiffness.band, system.mass.band, system.softness.band)


def _at_height(band, rows):
    """The band cut or padded with zeros to the given number of rows;
    the rows cut must be zero."""
    assert not band[rows:].any()
    out = np.zeros((rows, band.shape[1]))
    out[:len(band)] = band[:rows]
    return out


def _is_odd(p, flavor):
    """Whether ``build_soft_system`` rounds the bands of the space from
    the exact completion: the outlier-free space, the one space for
    p <= 2."""
    return flavor == "outlier_free" or p <= 2


@functools.cache
def _rounded_completion(p, N):
    """The outlier-free (K, M, S) bands on N elements: the exact
    completions of ``analytic.reference_matrix`` times N, 1/N and N,
    each entry rounded once."""
    # a quotient of two Python integers is rounded once
    return tuple(np.array([[x.numerator * up / (x.denominator * down)
                            for x in row]
                           for row in reference_matrix(name, p, N).band])
                 for name, up, down in (("K", N, 1), ("M", 1, N),
                                        ("S", N, 1)))


@pytest.mark.parametrize("p", range(1, 17))
def test_reference_size_is_the_smallest_with_an_interior_column(p):
    size = assembly._reference_size(p)
    assert size == 4 * p + 2
    for flavor in _FLAVORS:
        space = build_soft_system(p, size, 0.0, 0.0, flavor).space
        corner = assembly._corner_width(space)
        # column `corner` and its p + 1 softness rows clear both corners
        # on the reference mesh, and on no smaller one
        assert space.dim == 2 * corner + p + 2
        # one reference per degree and space, and nothing cached can be
        # written to
        bands = assembly._bands(p, size, _is_odd(p, flavor))
        assert assembly._bands(p, size, _is_odd(p, flavor)) is bands
        for band in bands:
            assert not band.flags.writeable


@pytest.mark.parametrize("p", range(1, 17))
def test_corner_width_counts_the_members_over_the_boundary_functions(p):
    # the formula p + p // 2 (odd space) or 2p - 1 (standard) against the
    # oracle extraction: the leading members with a nonzero coefficient
    # on raw functions 0..2p-1, on the reference mesh and above it
    for flavor in _FLAVORS:
        for N in (assembly._reference_size(p), 6 * p + 5):
            space = build_soft_system(p, N, 0.0, 0.0, flavor).space
            assert space.odd == _is_odd(p, flavor)
            touching = dense_extraction(space)[:, :2 * p].any(axis=1)
            width = assembly._corner_width(space)
            assert touching[:width].all() and not touching[width:].any()


@pytest.mark.parametrize("p", [1, 2])
def test_both_flavors_share_one_reference_up_to_degree_2(p):
    fresh_assembly_caches()
    size = assembly._reference_size(p)
    for N in (size, size + 1, 3 * size):
        for flavor in _FLAVORS:
            build_soft_system(p, N, 0.0, 0.0, flavor)
    # the two flavors name one space, so they read one cached entry
    assert assembly._bands.cache_info().currsize == 1
    assert assembly._bands.cache_info().misses == 1


@pytest.mark.parametrize("p", range(1, 17))
def test_bands_up_to_the_reference_size_are_the_direct_assembly(p):
    # bit for bit on the standard space at p >= 3, whose bands are
    # sliced from the raw ones; the outlier-free bands are rounded from
    # the exact completion, so they agree with the direct assembly to
    # round-off, but for the softness at high degree, whose folded
    # corners lose digits in the direct assembly (checked against the
    # exact completion below)
    size = assembly._reference_size(p)
    for flavor in _FLAVORS:
        for N in sorted({max(p, 2), p + 1, 2 * p, 2 * p + 1, size - 1,
                         size}):
            system = build_soft_system(p, N, 0.0, 0.0, flavor)
            for name, got, want in zip("KMS", _bands(system),
                                       space_operators(system.space)):
                want = _at_height(want.band, len(got))
                if not _is_odd(p, flavor):
                    assert np.array_equal(got, want), (flavor, N, name)
                elif name != "S" or p <= 5:
                    # measured at most 18.6 eps (p = 5, S)
                    scale = np.abs(want).max()
                    assert np.abs(got - want).max() <= 32 * _EPS * scale, (
                        flavor, N, name)


@pytest.mark.parametrize("p", range(1, 17))
def test_stretched_bands_are_persymmetric_with_a_constant_interior(p):
    size = assembly._reference_size(p)
    for flavor in _FLAVORS:
        for N in list(range(size + 1, 3 * size + 1)) + [1000, 10 ** 4]:
            system = build_soft_system(p, N, 0.0, 0.0, flavor)
            n = system.space.dim
            corner = assembly._corner_width(system.space)
            for band in _bands(system):
                for k, row in enumerate(band):
                    inside = row[:n - k]
                    # entry (i + k, i) equals entry (n-1-i, n-1-i-k)
                    assert np.array_equal(inside, inside[::-1])
                    assert np.all(inside[corner:n - k - corner]
                                  == inside[corner])
                    assert not row[n - k:].any()


@pytest.mark.parametrize("p", range(1, 17))
def test_stretched_bands_agree_with_the_direct_assembly(p):
    # The direct assembly drifts from the exact entries by up to about
    # 1e-12 of the largest as N grows; the stretched bands do not. The
    # outlier-free softness is checked against the exact completion,
    # since the folded corners of the direct assembly lose digits past
    # p = 8.
    size = assembly._reference_size(p)
    for flavor in _FLAVORS:
        for N in (size + 1, 3 * size, 1000):
            system = build_soft_system(p, N, 0.0, 0.0, flavor)
            wants = [op.band for op in space_operators(system.space)]
            if flavor == "outlier_free":
                wants[2] = _rounded_completion(p, N)[2]
            for name, got, want in zip("KMS", _bands(system), wants):
                want = _at_height(want, len(got))
                scale = np.abs(want).max()
                assert np.abs(got - want).max() <= 4e-12 * scale, (
                    flavor, N, name)


@pytest.mark.parametrize("p", range(1, 21))
def test_outlier_free_bands_are_the_rounded_exact_completion(p):
    size = assembly._reference_size(p)
    for N in sorted({max(p, 2), p + 1, 2 * p + 1, size, size + 1,
                     3 * size, 1000}):
        system = build_soft_system(p, N, 0.0)
        for name, got, want in zip("KMS", _bands(system),
                                   _rounded_completion(p, N)):
            assert got.shape == want.shape
            if N <= size:
                assert np.array_equal(got, want), (N, name)
            else:
                # the reference's rounding, times N/N_ref or N_ref/N
                worst = np.abs(got - want).max()
                assert worst <= 8 * _EPS * np.abs(want).max(), (N, name)


@pytest.mark.parametrize("p", range(3, 17))
def test_outlier_free_softness_error_does_not_grow_with_the_mesh(p):
    size = assembly._reference_size(p)

    def error(N):
        band = build_soft_system(p, N, 0.0).softness.band
        exact = _rounded_completion(p, N)[2]
        assert not band[len(exact):].any()
        return (np.abs(band[:len(exact)] - exact).max()
                / np.abs(exact).max())

    reference = error(size)
    for N in (size + 1, 3 * size, 1000):
        assert error(N) <= reference + 4 * _EPS


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_stretched_bands_match_the_exact_stencils(p):
    size = assembly._reference_size(p)
    # the exact matrices are built in rationals, so the largest mesh is
    # checked on the stiffness alone, whose direct assembly drifts most
    for N, names in ((size + 1, "KMS"), (100, "KMS"), (1000, "KMS"),
                     (10 ** 4, "K")):
        system = build_soft_system(p, N, 0.0)
        for name, band in zip("KMS", _bands(system)):
            if name not in names:
                continue
            exact = reference_matrix(name, p, N).band
            scale = Fraction(1, N) if name == "M" else Fraction(N)
            exact = np.array([[float(x * scale) for x in row]
                              for row in exact])
            assert not band[len(exact):].any()
            # measured at most 7.1 eps of the largest entry (p = 5, S)
            worst = np.abs(band[:len(exact)] - exact).max()
            assert worst <= 8 * _EPS * np.abs(exact).max(), (N, name)


def _stretch_weights(p):
    """(eta, eta_b) pairs of the stretched-band checks: a softness weight
    (the default one, or half the sharp one where none is tabulated),
    without and with a mass-side weight (the paper's, or 1e-4)."""
    table = eta_table()
    eta = float(table.default.get(p) or 0.5 * float(sharp_weight(p)))
    return [(eta, 0.0), (eta, float(table.mass_side.get(p) or 1e-4))]


@pytest.mark.parametrize("p", range(1, 17))
def test_stretched_bands_are_the_stretch_written_out(p):
    # a band above the reference size is stored as its corner and one
    # interior column; written out, it is the stretch of the reference
    # entry for entry, and so is the sum of two, while its Frobenius norm
    # and inner products, summed in another order, agree to n eps
    size = assembly._reference_size(p)
    for flavor in _FLAVORS:
        for N in (size + 1, 2 * size + 3, 1000):
            for eta, eta_b in _stretch_weights(p):
                system = build_soft_system(p, N, eta, eta_b, flavor)
                n, corner = system.space.dim, assembly._corner_width(
                    system.space)
                operators = (system.stiffness, system.mass, system.softness)
                references = assembly._bands(p, size, _is_odd(p, flavor))
                for X, band, scale in zip(operators, references,
                                          (N / size, size / N, N / size)):
                    assert X.order == n and X.left.shape[1] == corner + 1
                    assert (X.band.tobytes()
                            == stretch(band, corner, n, scale).tobytes())
                h = system.space.kv.h
                for total, (X, weight, Y) in (
                        (system.A, (system.stiffness, -eta, system.softness)),
                        (system.B, (system.mass, eta_b * h * h,
                                    system.softness))):
                    whole = SymBandedMatrix(X.band).plus(
                        weight, SymBandedMatrix(Y.band))
                    assert total.order == n
                    assert total.band.tobytes() == whole.band.tobytes()
                    norm = whole.frobenius()
                    assert abs(total.frobenius() - norm) <= n * _EPS * norm
                    S = system.softness.padded(len(total.left))
                    dot = whole.inner(S.whole())
                    bound = n * _EPS * norm * S.frobenius()
                    assert abs(total.inner(S) - dot) <= bound


@pytest.mark.parametrize("p", range(1, 17))
def test_a_mass_side_proved_positive_factors(p):
    # on the odd space the symbol's floor, less the distance of the
    # stored entries from the exact completion, is positive on every
    # mesh, with or without a mass-side weight, and below the smallest
    # eigenvalue of B, which a Cholesky factorization confirms positive;
    # a band changed by hand, or the standard space at p >= 3, is not
    # proved but factored
    size = assembly._reference_size(p)
    for N in sorted({max(p, 2), size, size + 1, 2 * size + 3, 1000}):
        for eta, eta_b in _stretch_weights(p):
            system = build_soft_system(p, N, eta, eta_b)
            floor = assembly._mass_side_floor(system)
            assert floor > 0, (N, eta_b)
            assert cholesky_pivot(system.B) == 0
            assert floor <= lowest_eigenvalue(system.B)
            mass = SymBandedMatrix(system.mass.left.copy(),
                                   system.mass.order)
            copied = dataclasses.replace(system, mass=mass)
            assert assembly._mass_side_floor(copied) == 0.0
            if p >= 3:
                standard = build_soft_system(p, N, 0.0, eta_b, "standard")
                assert assembly._mass_side_floor(standard) == 0.0
    # a weight whose rounding outweighs the floor proves nothing
    huge = build_soft_system(p, 1000, 0.0, 1e300)
    assert assembly._mass_side_floor(huge) == 0.0
