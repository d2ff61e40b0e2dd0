"""Closed-form eigenvalues, canonical softness weights, the
inverse-estimate constant behind the theoretical weight bound,
dispersion expansions, exact reference matrices, and commutator checks.

Everything rational is stored exactly (fractions.Fraction) and converted
to floating point only at use sites. Reference matrices hard-code the
printed interior stencils; the remaining boundary entries follow from
one completion rule (symmetric Toeplitz part minus two mirrored Hankel
tails) that reproduces every printed boundary row. The rule fills the
band storage of each reference matrix directly, in O(n * hbw) work.

The interior symbol of the softened pencil's stencils gives its
eigenvalue as a function of the normalized wavenumber t; evaluated in
high precision it supports dispersion-coefficient fits far below
double-precision noise. Only those fits use mpmath, so it is imported
by them, not with the package. The closed-form eigenvectors live in
``spaces.sine_modes``.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .eigensolve import SymBandedMatrix

F = Fraction


@dataclass(frozen=True)
class EtaTable:
    """Canonical softness weights per degree, exact rationals.

    ``sharp_max`` is the largest weight keeping the stiffness side
    positive semidefinite; ``theoretical_max`` = 1/(2*C_{p,3}^2) is the
    (smaller) bound certified by the inverse estimate; ``default``
    preserves strict spectrum monotonicity; ``superconvergent`` cancels
    the t^(2p) dispersion term; ``mass_side`` is the matching mass
    weight where one is known. Missing entries are None.
    """

    theoretical_max: dict
    sharp_max: dict
    default: dict
    superconvergent: dict
    mass_side: dict

    def resolve(self, p, mode):
        """Look up a named weight; raises KeyError when not tabulated."""
        table = getattr(self, mode)
        value = table.get(p)
        if value is None:
            raise KeyError(f"no {mode} softness weight tabulated for p={p}")
        return value


_SHARP = {2: F(1, 48), 3: F(1, 480), 4: F(17, 80640), 5: None}
_DEFAULT = {2: F(3, 272), 3: F(69, 79360), 4: F(451, 6191360), 5: None}
_SUPER = {2: F(1, 720), 3: F(1, 30240), 4: F(1, 1209600), 5: F(1, 47900160)}
_MASS_SIDE = {2: F(1, 3360), 3: F(1, 60480), 4: None, 5: None}

# Coefficient of t^(2p+2) in the relative eigenvalue-error expansion;
# the t^(2p) coefficient is superconvergent-eta minus eta.
_NEXT_COEFF = {2: F(1, 3360), 3: F(1, 60480), 4: F(1, 1368576),
               5: F(691, 24216192000)}


def inverse_constants_squared(p):
    """Exact square C_{p,3}^2 of the inverse-estimate constant, a
    Fraction."""
    if p < 1:
        raise ValueError(f"degree must be at least 1, got {p}")
    return F(math.factorial(p - 1) * math.factorial(p) * math.factorial(p + 1)
             * math.factorial(p + 2), 3 * 2 ** p)


@functools.cache
def eta_table():
    """The canonical softness-weight table for p in {2, 3, 4, 5}.

    Built once and shared: its tables are read-only mappings of
    immutable Fractions.
    """
    theoretical = {p: 1 / (2 * inverse_constants_squared(p))
                   for p in (2, 3, 4, 5)}
    return EtaTable(*(MappingProxyType(dict(table)) for table in
                      (theoretical, _SHARP, _DEFAULT, _SUPER, _MASS_SIDE)))


def analytic_eigenvalue(p, eta, j, N):
    """Closed-form pencil eigenvalue for p in {2, 3, 4}.

    Parameters
    ----------
    p : int
        Degree 2, 3, or 4.
    eta : float
        Softness weight.
    j : int
        Mode index, 1..N for even p and 1..N-1 for odd p.
    N : int
        Element count; t_j = j*pi/N.

    Returns
    -------
    float
    """
    top = N if p % 2 == 0 else N - 1
    if not 1 <= j <= top:
        raise ValueError(f"mode index must be in 1..{top}, got {j}")
    eta = float(eta)
    h = 1.0 / N
    t = j * math.pi * h
    c1, c2, c3, c4 = (math.cos(k * t) for k in (1, 2, 3, 4))
    s = math.sin(t / 2.0) ** 2 / h ** 2
    if p == 2:
        return (80.0 * s * (2.0 - 18.0 * eta + (1.0 + 24.0 * eta) * c1
                            - 6.0 * eta * c2)
                / (33.0 + 26.0 * c1 + c2))
    if p == 3:
        return (168.0 * s * (33.0 - 1200.0 * eta
                             + 2.0 * (13.0 + 900.0 * eta) * c1
                             + (1.0 - 720.0 * eta) * c2 + 120.0 * eta * c3)
                / (1208.0 + 1191.0 * c1 + 120.0 * c2 + c3))
    if p == 4:
        return (288.0 * s * (1208.0 - 176400.0 * eta
                             + 3.0 * (397.0 + 94080.0 * eta) * c1
                             + 120.0 * (1.0 - 1176.0 * eta) * c2
                             + (1.0 + 40320.0 * eta) * c3
                             - 5040.0 * eta * c4)
                / (78095.0 + 88234.0 * c1 + 14608.0 * c2 + 502.0 * c3 + c4))
    raise ValueError(f"no closed form for p={p}")


# Interior stencils of the printed matrices: (symbol, completion parity).
# The symbol s_k lists the entries k off the main diagonal, k = 0 first.
# The boundary completion subtracts two mirrored Hankel
# tails: entry(i, j) = s_|i-j| - s_(i+j+1+sigma) - s_(2n-i-j-1+sigma),
# sigma = 0 for even p, 1 for odd p, symbols beyond the list being zero.
_STENCILS = {
    ("K", 2): (F(1), F(-1, 3), F(-1, 6)),
    ("M", 2): (F(11, 20), F(13, 60), F(1, 120)),
    ("S", 2): (F(20), F(-15), F(6), F(-1)),
    ("T", 2): (F(3, 4), F(1, 8)),
    ("K", 3): (F(2, 3), F(-1, 8), F(-1, 5), F(-1, 120)),
    ("M", 3): (F(151, 315), F(397, 1680), F(1, 42), F(1, 5040)),
    ("S", 3): (F(70), F(-56), F(28), F(-8), F(1)),
    ("T", 3): (F(2, 3), F(1, 6)),
    ("K", 4): (F(35, 72), F(-11, 360), F(-17, 90), F(-59, 2520),
               F(-1, 5040)),
    ("M", 4): (F(15619, 36288), F(44117, 181440), F(913, 22680),
               F(251, 181440), F(1, 362880)),
    ("S", 4): (F(252), F(-210), F(120), F(-45), F(10), F(-1)),
    ("T", 4): (F(115, 192), F(19, 96), F(1, 384)),
    ("K", 5): (F(809, 2160), F(1, 64), F(-31, 189), F(-907, 24192),
               F(-25, 18144), F(-1, 362880)),
    ("M", 5): (F(655177, 1663200), F(1623019, 6652800), F(1093, 19800),
               F(50879, 13305600), F(509, 9979200), F(1, 39916800)),
    ("S", 5): (F(924), F(-792), F(495), F(-220), F(66), F(-12), F(1)),
    ("T", 5): (F(11, 20), F(13, 60), F(1, 120)),
}

def interior_stencil(kind, p):
    """Exact interior stencil (diagonal first) of a printed matrix."""
    try:
        return _STENCILS[(kind, p)]
    except KeyError:
        raise ValueError(f"no reference matrix of kind {kind!r} for p={p}")


def reference_matrix(kind, p, N):
    """Exact printed matrix of the given kind on N elements.

    Parameters
    ----------
    kind : {"K", "M", "S", "T"}
        Stiffness, mass, softness, or transformation matrix. Entries
        are dimensionless as printed.
    p : int
        Degree 2..5.
    N : int
        Element count; the order is N for even p, N-1 for odd p.

    Returns
    -------
    SymBandedMatrix with Fraction entries, half bandwidth
    len(stencil) - 1, its band filled from the completion rule.
    """
    sym = interior_stencil(kind, p)
    n = N if p % 2 == 0 else N - 1
    if n < 2 * len(sym):
        raise ValueError(f"need N large enough for two disjoint boundary"
                         f" stencils, got order {n}")
    sigma = 1 if p % 2 else 0

    def s(i):
        return sym[i] if 0 <= i < len(sym) else F(0)

    band = np.full((len(sym), n), F(0), dtype=object)
    for k in range(len(sym)):
        for i in range(n - k):  # entry (i + k, i)
            band[k, i] = (sym[k] - s(2 * i + k + 1 + sigma)
                          - s(2 * (n - 1) - 2 * i - k + 1 + sigma))
    return SymBandedMatrix(band)


def _scaled(M):
    """The dense integer matrix d*M and d, d the least common multiple
    of the denominators of the entries of the band M, each read as the
    rational it is (exactly, for a double)."""
    try:
        entries = [Fraction(x) for x in M.band.ravel()]
    except (OverflowError, ValueError):
        raise ValueError("non-finite entry in a commutator operand") from None
    d = math.lcm(*(x.denominator for x in entries))
    band = np.array([x.numerator * (d // x.denominator) for x in entries],
                    dtype=object).reshape(M.band.shape)
    return SymBandedMatrix(band).toarray(), d


def commutator_norm(A, B):
    """Frobenius norm of AB - BA for two SymBandedMatrix operands, of
    rational or float entries, rounded once from its exact value.

    Each operand is scaled to integers by the lcm of its denominators (a
    double is a rational), so the products run in Python integers with
    no gcd per operation; the result is the square root of the exact
    rational norm squared. Raises ValueError on an order mismatch or a
    non-finite entry.
    """
    if A.n != B.n:
        raise ValueError(f"order mismatch: {A.n} vs {B.n}")
    (A, d_A), (B, d_B) = _scaled(A), _scaled(B)
    # both operands are symmetric, so BA = (AB)^T
    C = A @ B
    C = C - C.T
    total = sum(x * x for x in C.ravel())
    return math.sqrt(Fraction(total, (d_A * d_B) ** 2))


@dataclass(frozen=True)
class DispersionExpansion:
    """Two leading coefficients of the relative eigenvalue-error
    expansion in t = omega*h: lead * t^(2p) + next * t^(2p+2) + ..."""

    lead: Fraction
    next: Fraction


def dispersion_expansion(p, eta):
    """Exact expansion coefficients; pass eta as a Fraction to make the
    superconvergent cancellation exact."""
    if p not in _SUPER:
        raise ValueError(f"no dispersion expansion for p={p}")
    eta = Fraction(eta)
    return DispersionExpansion(_SUPER[p] - eta, _NEXT_COEFF[p])


def _symbol(p, eta):
    """The interior symbol of the softened pencil K - eta S, M as two
    cosine series, (numerator, denominator), each the list of its
    mpmath coefficients c_k of c_0 + sum over k >= 1 of 2 c_k cos(k t),
    converted at the caller's working precision; both lists are as long
    as the softness stencil."""
    import mpmath

    ss = interior_stencil("S", p)

    def frac(x):
        return mpmath.mpf(x.numerator) / x.denominator

    def series(stencil, weight=0):
        return [frac(stencil[k] if k < len(stencil) else F(0))
                + weight * frac(ss[k]) for k in range(len(ss))]

    return (series(interior_stencil("K", p), -frac(Fraction(eta))),
            series(interior_stencil("M", p)))


def _symbol_value(symbol, t):
    """lambda * h^2 at wavenumber t from the series of ``_symbol``; each
    cos(k t) is computed once and read by both series."""
    import mpmath

    num, den = symbol
    cosines = [mpmath.cos(k * t) for k in range(1, max(len(num), len(den)))]

    def value(coeffs):
        out = coeffs[0]
        for k in range(1, len(coeffs)):
            out += 2 * coeffs[k] * cosines[k - 1]
        return out

    return value(num) / value(den)


# Sample wavenumbers t of the dispersion fit, and its mpmath precision
# in decimal digits.
FIT_WAVENUMBERS = (0.02, 0.01, 0.005)
FIT_DPS = 60


def fit_leading_coefficient(p, eta):
    """Empirical leading dispersion coefficient from a 3-point fit.

    Evaluates the symbol relative error at ``FIT_WAVENUMBERS``,
    divides by the leading power of t, and extrapolates t -> 0 with a
    quadratic in t^2. The leading power is 2p, or 2p+2 when the exact
    t^(2p) coefficient vanishes (superconvergent eta).

    Returns
    -------
    (fitted, exact, exponent)
        Fitted coefficient, its exact rational target, and the power of
        t it multiplies.
    """
    import mpmath

    exp = dispersion_expansion(p, eta)
    if exp.lead != 0:
        power, target = 2 * p, exp.lead
    else:
        power, target = 2 * p + 2, exp.next
    with mpmath.workdps(FIT_DPS):
        symbol = _symbol(p, eta)
        rows, rhs = [], []
        for t in FIT_WAVENUMBERS:
            t = mpmath.mpf(t)
            err = _symbol_value(symbol, t) / t ** 2 - 1
            rows.append([mpmath.mpf(1), t ** 2, t ** 4])
            rhs.append(err / t ** power)
        sol = mpmath.lu_solve(mpmath.matrix(rows), mpmath.matrix(rhs))
        fitted = float(sol[0])
    return fitted, target, power
