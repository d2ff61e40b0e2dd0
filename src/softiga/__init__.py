"""Softened isogeometric discretization of the Laplace eigenproblem on
the unit cube: B-spline spaces with and without outlier modes, jump
penalization of the highest derivative, closed-form reference spectra,
and spectral comparison utilities."""

from .analytic import (DispersionExpansion, EtaTable, analytic_eigenvalue,
                       commutator_norm, dispersion_expansion, eta_table,
                       fit_leading_coefficient, inverse_constants_squared,
                       interior_stencil, reference_matrix)
from .assembly import (IndefinitenessWarning, SoftSystem, SymBandedMatrix,
                       build_soft_system)
from .eigensolve import (DefinitenessError, EigenSolveError, Spectrum,
                         extreme_eigenpairs, generalized_eig)
from .spaces import SplineSpace, build_of_space, build_standard_space
from .splines import (BasisEval, KnotVector, basis_table, eval_basis,
                      open_knot_vector)
from .spectral_analysis import (ConditionStats, InsufficientDataError,
                                SpectralReport, condition_stats,
                                convergence_slope, eta_sweep,
                                extreme_values, h1_errors_for_modes,
                                mode_convergence, solve_system,
                                spectral_report)
from .tensor import (TensorSpectrum, continuum_values, kron_sum_spectrum,
                     lifted_extremes)

__version__ = "0.1.0"

__all__ = [
    "BasisEval", "ConditionStats", "DefinitenessError",
    "DispersionExpansion", "EigenSolveError", "EtaTable",
    "IndefinitenessWarning", "InsufficientDataError", "KnotVector",
    "SoftSystem", "SpectralReport", "Spectrum", "SplineSpace",
    "SymBandedMatrix", "TensorSpectrum", "analytic_eigenvalue",
    "basis_table", "build_of_space", "build_soft_system",
    "build_standard_space", "commutator_norm", "condition_stats",
    "continuum_values", "convergence_slope", "dispersion_expansion",
    "eta_sweep", "eta_table", "eval_basis", "extreme_eigenpairs",
    "extreme_values", "fit_leading_coefficient", "generalized_eig",
    "h1_errors_for_modes", "interior_stencil",
    "inverse_constants_squared", "kron_sum_spectrum", "lifted_extremes",
    "mode_convergence", "open_knot_vector", "reference_matrix",
    "solve_system", "spectral_report",
]
