"""Tensor-product spectra: Kronecker-sum construction against an
explicitly assembled 2D pencil, exact continuum eigenvalues, and
deterministic tie-breaking."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from oracles import banded, sorted_continuum_values
from softiga.assembly import build_soft_system
from softiga.eigensolve import generalized_eig
import softiga.tensor as tensor
from softiga.tensor import (continuum_values, kron_sum_spectrum,
                            lifted_extremes)


def _continuum_one_d(n):
    """The 1D continuum eigenvalues pi^2 * j^2, j = 1..n."""
    return np.pi ** 2 * np.arange(1, n + 1, dtype=float) ** 2


def test_exact_spectrum_is_sorted_with_lexicographic_ties():
    spectrum = kron_sum_spectrum(_continuum_one_d(12), 2)
    assert np.all(np.diff(spectrum.values) >= 0)
    # the degenerate pair (1,2)/(2,1) appears in index order
    k = spectrum.values.tolist().index(pytest.approx(5 * math.pi ** 2))
    assert spectrum.indices[k].tolist() == [1, 2]
    assert spectrum.indices[k + 1].tolist() == [2, 1]


@pytest.mark.parametrize("p,N", [(2, 6), (3, 8), (2, 8)])
def test_kron_sum_matches_assembled_2d_pencil(p, N):
    system = build_soft_system(p, N, 1e-4)
    one_d = generalized_eig(system.A, system.B)
    via_sum = kron_sum_spectrum(one_d.values, 2)
    A, B = system.A.toarray(), system.B.toarray()
    A2, B2 = np.kron(A, B) + np.kron(B, A), np.kron(B, B)
    direct = generalized_eig(banded(A2), banded(B2))
    np.testing.assert_allclose(via_sum.values, direct.values, rtol=1e-9)


def test_kron_sum_counts_and_values():
    vals = np.array([1.0, 4.0, 9.0])
    for d in (1, 2, 3):
        tensor = kron_sum_spectrum(vals, d)
        assert tensor.values.size == 3 ** d
        assert tensor.indices.shape == (3 ** d, d)
    two = kron_sum_spectrum(vals, 2)
    assert two.values[0] == pytest.approx(2.0)
    assert two.values[-1] == pytest.approx(18.0)
    assert two.indices[0].tolist() == [1, 1]
    # the tie 1+9 = 4+4 ... no tie here; check a real one
    tied = kron_sum_spectrum(np.array([1.0, 2.0, 3.0]), 2)
    k = tied.values.tolist().index(pytest.approx(4.0))
    assert tied.indices[k:k + 3].tolist() == [[1, 3], [2, 2], [3, 1]]


def test_kron_sum_validates_input():
    with pytest.raises(ValueError):
        kron_sum_spectrum(np.array([2.0, 1.0]), 2)  # not ascending
    with pytest.raises(ValueError):
        kron_sum_spectrum(np.array([1.0, 2.0]), 4)  # bad dimension


def test_one_d_passthrough_keeps_values():
    vals = np.array([3.0, 7.0, 11.0])
    tensor = kron_sum_spectrum(vals, 1)
    np.testing.assert_array_equal(tensor.values, vals)
    assert tensor.indices.tolist() == [[1], [2], [3]]


def _lattice_values(d, count, side):
    sums = sorted(sum(j * j for j in idx)
                  for idx in itertools.product(range(1, side + 1),
                                               repeat=d))
    return math.pi ** 2 * np.array(sums[:count], dtype=float)


@pytest.mark.parametrize("d,n1", [(2, 1), (2, 7), (2, 15), (3, 2), (3, 5),
                                  (3, 12)])
def test_continuum_values_are_the_smallest_lattice_values(d, n1):
    # brute force over a box twice the proven bound
    values = continuum_values(d, n1)
    assert values.size == n1 ** d
    np.testing.assert_array_equal(
        values, _lattice_values(d, n1 ** d, 2 * n1 + 2))


def test_continuum_values_reach_beyond_the_box():
    # the eighth smallest 3D value is (1, 1, 3), outside [1, 2]^3
    values = continuum_values(3, 2) / math.pi ** 2
    np.testing.assert_allclose(values, [3, 6, 6, 6, 9, 9, 9, 11])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_counted_continuum_values_are_the_sorted_enumeration(d):
    for n1 in [*range(1, 41), 60, 99]:
        assert (continuum_values(d, n1).tobytes()
                == sorted_continuum_values(d, n1).tobytes()), n1


def test_continuum_values_peak_near_their_own_size():
    # the enumeration held 5.2 n1^3 sums at d = 3 and sorted a copy
    continuum_values(3, 60)
    tracemalloc.start()
    try:
        values = continuum_values(3, 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * values.nbytes


def test_continuum_values_in_one_dimension_are_bit_identical():
    for n in (1, 7, 400):
        assert (continuum_values(1, n).tobytes()
                == kron_sum_spectrum(_continuum_one_d(n), 1).values.tobytes())


def _itertools_lift(one_d, d):
    """Reference lift: every index tuple, summed left to right and
    sorted by (value, index tuple)."""
    pairs = sorted(
        (float(sum(one_d[i] for i in combo)), tuple(i + 1 for i in combo))
        for combo in itertools.product(range(len(one_d)), repeat=d))
    return np.array([v for v, _ in pairs]), tuple(i for _, i in pairs)


_SPECTRA = {
    # exact integer ties, within the 1D list and across index tuples
    "integer_ties": np.array([1.0, 1.0, 2.0, 3.0, 3.0, 3.0, 5.0, 8.0, 9.0]),
    "squares": np.arange(1.0, 12.0) ** 2,
    # sums of generic floats round differently in every order
    "random": np.sort(np.random.default_rng(7).uniform(0.1, 1e4, 13)),
}


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(_SPECTRA))
def test_vectorized_lift_is_bit_identical_to_itertools_reference(name, d):
    one_d = _SPECTRA[name]
    values, indices = _itertools_lift(one_d, d)
    tensor_spectrum = kron_sum_spectrum(one_d, d)
    assert tensor_spectrum.values.tobytes() == values.tobytes()
    assert tensor_spectrum.indices.dtype.kind == "i"
    assert tensor_spectrum.indices.tolist() == [list(i) for i in indices]
    extremes = lifted_extremes(one_d, d)
    assert extremes.tobytes() == values[[0, -1]].tobytes()


@pytest.mark.parametrize("n,d", [(5, 2), (3, 3), (1, 3)])
def test_lift_size_limit_is_exact(monkeypatch, n, d):
    one_d = np.arange(1.0, n + 1.0)
    monkeypatch.setattr(tensor, "MAX_LIFT_ENTRIES", n ** d)
    assert kron_sum_spectrum(one_d, d).values.size == n ** d
    assert continuum_values(d, n).size == n ** d
    monkeypatch.setattr(tensor, "MAX_LIFT_ENTRIES", n ** d - 1)
    with pytest.raises(ValueError, match="above the limit"):
        kron_sum_spectrum(one_d, d)
    with pytest.raises(ValueError, match="above the limit"):
        continuum_values(d, n)
