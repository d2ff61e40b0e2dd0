"""Trial-space construction: dimensions, boundary conditions, nesting,
the fold corners of the oracle extraction, and invariance of assembled
operators under a change of corner basis."""

import dataclasses

import mpmath
import numpy as np
import pytest
from scipy.interpolate import BSpline

from oracles import (dense_extraction, extraction_corners, folds,
                     raw_coefficients, sine_modes, space_member_eval,
                     space_operators)
from softiga.spaces import (build_of_space, build_standard_space,
                            quarter_sines, sine_samples, sine_table,
                            space_dimension)
from softiga.splines import eval_basis


def test_standard_space_dimension_and_boundary_values():
    for p, N in [(1, 4), (2, 6), (3, 5), (4, 7)]:
        space = build_standard_space(p, N)
        assert space.dim == N + p - 2
        for i in range(space.dim):
            assert space_member_eval(space, i, 0.0) == pytest.approx(0.0)
            assert space_member_eval(space, i, 1.0) == pytest.approx(0.0)


@pytest.mark.parametrize("p,N,dim", [(2, 7, 7), (3, 10, 9), (4, 10, 10),
                                     (5, 8, 7), (3, 4, 3), (4, 6, 6)])
def test_outlier_free_dimension(p, N, dim):
    space = build_of_space(p, N)
    assert space.dim == dim


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_space_dimension_without_building(p):
    for N in range(6, 14):
        assert (space_dimension(p, N, "standard")
                == build_standard_space(p, N).dim)
        assert (space_dimension(p, N, "outlier_free")
                == build_of_space(p, N).dim)
    with pytest.raises(ValueError):
        space_dimension(p, 8, "fancy")


def test_low_degree_outlier_free_equals_standard():
    for p in (1, 2):
        std = build_standard_space(p, 9)
        ofs = build_of_space(p, 9)
        np.testing.assert_array_equal(dense_extraction(std),
                                      dense_extraction(ofs))


def test_even_boundary_derivatives_vanish():
    for p, N in [(3, 6), (4, 8), (5, 8)]:
        space = build_of_space(p, N)
        kv = space.kv
        alpha = (p - 1) // 2
        # derivative magnitudes grow like N^order; budget scales with them
        for i in range(space.dim):
            for order in range(0, 2 * alpha + 1, 2):
                scale = max(1.0, float(kv.N) ** order)
                for x in (0.0, 1.0):
                    v = space_member_eval(space, i, x, r=order)
                    assert abs(v) <= 1e-11 * scale, (i, order, x)


def test_persymmetry_of_extraction():
    for p, N in [(3, 8), (4, 8), (5, 9)]:
        E = dense_extraction(build_of_space(p, N))
        flipped = E[::-1, ::-1]
        np.testing.assert_array_equal(E, flipped)


def test_outlier_free_nests_in_standard():
    # no member uses the first or last raw function
    for p, N in [(3, 7), (4, 8), (5, 8)]:
        E = dense_extraction(build_of_space(p, N))
        assert np.all(E[:, 0] == 0)
        assert np.all(E[:, -1] == 0)


def test_small_mesh_validation():
    # below N = p the two corners would share raw functions
    for p in (3, 4, 5, 12):
        with pytest.raises(ValueError, match=f"needs N >= {p}"):
            build_of_space(p, p - 1)
    # the smallest admissible meshes build fine
    assert build_of_space(5, 5).dim == 4
    assert build_of_space(4, 4).dim == 4
    assert build_of_space(3, 3).dim == 2


def test_operator_spectrum_invariant_under_null_basis_remix():
    # any other basis of the same space yields congruent operators, so
    # the generalized spectrum is unchanged
    import scipy.linalg as sla

    p, N = 4, 8
    space = build_of_space(p, N)
    rng = np.random.default_rng(42)
    k = p // 2 + 1  # the folds and the first identity member
    R = np.eye(space.dim)
    R[:k, :k] = np.eye(k) + 0.2 * rng.standard_normal((k, k))
    remixed = R @ dense_extraction(space)

    K0, M0, _ = (op.toarray() for op in space_operators(space))
    K1, M1, _ = (op.toarray() for op in space_operators(space, remixed))
    w0 = sla.eigh(K0, M0, eigvals_only=True)
    w1 = sla.eigh(K1, M1, eigvals_only=True)
    np.testing.assert_allclose(w0, w1, rtol=1e-10)


def test_space_member_eval_matches_extraction_product():
    space = build_of_space(3, 6)
    kv = space.kv
    for x in (0.13, 0.5, 0.77):
        be = eval_basis(kv, x)
        full = np.zeros(kv.num_raw)
        full[be.element:be.element + be.ders.shape[1]] = be.ders[-1]
        for i in range(space.dim):
            expected = float(dense_extraction(space)[i] @ full)
            assert space_member_eval(space, i, x) == pytest.approx(expected)


def test_extraction_has_full_rank():
    for p, N in [(2, 6), (3, 8), (4, 8), (5, 9)]:
        E = dense_extraction(build_of_space(p, N))
        assert np.linalg.matrix_rank(E, tol=1e-10) == E.shape[0]


def test_corner_form_reproduces_the_dense_extraction():
    # the oracle's corners and identity part give the same matrix as
    # writing every row out: left folds, unit rows, mirrored block
    for p, N in [(1, 4), (2, 6), (3, 4), (3, 9), (4, 8), (5, 6), (5, 12)]:
        space = build_of_space(p, N)
        raw = space.kv.num_raw
        left, _ = extraction_corners(space)
        a, m = left.shape
        E = np.zeros((space.dim, raw))
        E[:a, :m] = left
        for i in range(raw - 2 * m):
            E[a + i, m + i] = 1.0
        for r in range(a):
            E[space.dim - 1 - r, raw - m:] = left[r, ::-1]
        np.testing.assert_array_equal(dense_extraction(space), E)
        c = np.random.default_rng(p).standard_normal((space.dim, 2))
        np.testing.assert_allclose(raw_coefficients(space, c), E.T @ c,
                                   rtol=0, atol=1e-15)


def _meshes(p, top=300):
    """Every N up to top on which the outlier-free space of degree
    p >= 3 exists."""
    return range(p, top)


@pytest.mark.parametrize("p", range(3, 13))
def test_corner_map_does_not_depend_on_the_mesh(p):
    # every mesh shares the one exact fold table, and its mirror
    for N in _meshes(p):
        left, right = extraction_corners(build_of_space(p, N))
        assert left is folds(p)
        assert left.shape == (p // 2, p)
        assert np.array_equal(right, folds(p)[::-1, ::-1])


@pytest.mark.parametrize("p", range(3, 13))
def test_fold_members_are_odd_pairs_of_uniform_b_splines(p):
    # member k - 1 of the left corner is B_k(x) - B_k(-x), B_k the
    # uniform B-spline centred at node k (odd p) or k - 1/2 (even p)
    for N in (p, p + 1, 2 * p + 3):
        space = build_of_space(p, N)
        x = np.linspace(0.0, 1.0, 7 * N + 2)[1:-1]
        for k in range(1, p // 2 + 1):
            centre = k - (p + 1) % 2 / 2
            knots = (centre + np.arange(p + 2) - (p + 1) / 2) / N
            bump = BSpline.basis_element(knots, extrapolate=False)
            expected = np.nan_to_num(bump(x)) - np.nan_to_num(bump(-x))
            member = [space_member_eval(space, k - 1, t) for t in x]
            np.testing.assert_allclose(member, expected, rtol=0,
                                       atol=1e-13)


def test_corner_map_of_the_cubic_and_quartic_spaces():
    # the folds, exact rationals rounded once
    (left, _), (_, right) = (extraction_corners(build_of_space(p, 9))
                             for p in (3, 4))
    assert np.array_equal(left, [[0, 1 / 3, 1]])
    assert np.array_equal(folds(4),
                          [[0, 1 / 4, 3 / 4, 0], [0, 1 / 12, 1 / 4, 1]])
    assert np.array_equal(right,
                          [[1, 1 / 4, 1 / 12, 0], [0, 3 / 4, 1 / 4, 0]])


@pytest.mark.parametrize("N", [1, 2, 7, 40])
def test_sine_table_is_the_sine_with_its_symmetries_exact(N):
    table = sine_table(N)
    i = np.arange(4 * N)
    with mpmath.workdps(30):
        exact = [float(mpmath.sin(mpmath.pi * k / (2 * N))) for k in i]
    np.testing.assert_allclose(table, exact, rtol=0, atol=3e-16)
    # odd about 0 and 2N, even about N, exactly
    assert np.array_equal(table[(4 * N - i) % (4 * N)], -table)
    assert np.array_equal(table[(2 * N - i) % (4 * N)], table)


@pytest.mark.parametrize("dtype", [float, np.longdouble])
@pytest.mark.parametrize("N", [1, 2, 3, 7, 40, 1001])
def test_sine_samples_are_the_table_entries_bit_for_bit(N, dtype):
    # folded onto the quarter wave one at a time, as a few samples of a
    # large mesh are, or read from the table when they outnumber it; the
    # signs of the zeros at 0 and 2N too
    table = sine_table(N, dtype)
    index = np.arange(-8 * N - 3, 8 * N + 5)
    for picks in (index, index[::7][:3 * N], index[[0, -1]], index[2:3]):
        samples = sine_samples(N, picks.reshape(-1, 1), dtype)
        wanted = table[picks % (4 * N)].reshape(-1, 1)
        assert samples.dtype == wanted.dtype
        assert np.array_equal(samples, wanted)
        assert np.array_equal(np.signbit(samples), np.signbit(wanted))
    assert np.array_equal(quarter_sines(N, np.arange(N + 1), dtype),
                          table[:N + 1])


@pytest.mark.parametrize("p,N", [(1, 6), (2, 7), (3, 9), (4, 10), (7, 20),
                                 (12, 30), (1, 2), (2, 2), (3, 3), (4, 4),
                                 (5, 5), (5, 40), (6, 6), (6, 40), (7, 7),
                                 (8, 8), (8, 17), (9, 9), (9, 40), (10, 10),
                                 (10, 41), (11, 11), (11, 23), (12, 12)])
def test_sine_modes_are_sine_samples_in_the_identity_part(p, N):
    # and in the corners, whose folds carry the samples as they are
    space = build_of_space(p, N)
    n, r = space.dim, p // 2
    X = sine_modes(space, range(1, n + 1))
    node = np.arange(1, n + 1) - (0.0 if p % 2 else 0.5)
    expected = np.sin(np.pi / N * np.multiply.outer(node, np.arange(1, n + 1)))
    np.testing.assert_allclose(X, expected, rtol=0, atol=1e-13)
    # the right corner mirrors the left one, times (-1)^(j + 1)
    signs = np.where(np.arange(1, n + 1) % 2, 1.0, -1.0)
    assert np.array_equal(X[n - r:], X[:r][::-1] * signs)


def test_only_outlier_free_spaces_have_sine_modes():
    # of every degree, and the standard space where it is the same one;
    # a space is its knot vector and that one flag
    for p in (1, 2):
        assert build_standard_space(p, 10).odd
        assert build_of_space(p, 10).odd
    for p in (3, 13):
        assert not build_standard_space(p, 40).odd
    for p in (3, 13, 20, 40):
        assert build_of_space(p, 40).odd
    assert [f.name for f in dataclasses.fields(build_of_space(3, 9))] == [
        "kv", "odd"]


@pytest.mark.parametrize("p,N", [(2, 7), (3, 3), (3, 9), (4, 10), (12, 30)])
def test_chosen_sine_modes_are_those_columns_of_all_modes(p, N):
    space = build_of_space(p, N)
    every = sine_modes(space, range(1, space.dim + 1))
    js = [space.dim, 1, 2]
    assert np.array_equal(sine_modes(space, js), every[:, [j - 1 for j in js]])
