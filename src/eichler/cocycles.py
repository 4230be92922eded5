"""Eichler cocycles, period functions, and L-value identities.

The central object is the cocycle

    psi^{z0}_{F,gamma}(t) = int_{gamma^{-1} z0}^{z0} (z-t)^{r-2} F(z) dz,

with t below the real line and the branch arg(z-t) in (-pi/2, 3pi/2).
With the base point moved to the cusp at infinity (for cusp forms) the
value on S is the period function, whose Taylor coefficients are Mellin
transforms I(r,s) of eta powers; those in turn tie the package to the
L-series of eta^{2r}.  The Goldfeld L'(1) integral for weight-2 newforms,
with the coefficients of the level-37 newform, closes the module.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple, Union

import numpy as np

from .algebra import (ARG_CUT_DOWN, GroupElement, MultiplierSystem, S, T,
                      power_branch, slash_multiplier)
from .errors import DomainError, RefusalError
from .quadrature import INF, ContourSpec, contour_integral
from .specfun import (_pentagonal, _rgamma, binom_complex, eta_power_coeffs,
                      eta_power_eval, incomplete_gamma)

__all__ = [
    "CocycleSample", "FormEvaluator", "GoldfeldResult", "LSeriesValue",
    "ResidualReport", "DEFAULT_SAMPLES", "I_integral", "L_eta",
    "L_eta_detailed", "cusp_cocycle", "eichler_cocycle", "goldfeld_lprime",
    "newform37_coeffs", "period_function", "period_series_coeffs",
    "verify_period_relations",
]

# default evaluation points in the lower half-plane, kept well away from
# the real line and from the downward branch cuts of the integrands
DEFAULT_SAMPLES: Tuple[complex, ...] = (
    -0.7 - 0.4j, -2j, 3 - 0.5j, -1.3 - 0.8j, 0.4 - 1.5j,
    2.2 - 0.35j, -3.1 - 0.6j, 1.1 - 2.4j, -0.45 - 3.2j, 0.8 - 0.9j,
)


# ---------------------------------------------------------------------------
# form evaluators


@dataclass(frozen=True)
class FormEvaluator:
    """eta^{2r} as a weight-r form with its modular multiplier system.

    eta_power(0) is the constant 1 with the trivial multiplier.
    """

    weight: complex
    multiplier: MultiplierSystem

    @staticmethod
    def eta_power(r: complex) -> "FormEvaluator":
        r = complex(r)
        return FormEvaluator(r, MultiplierSystem(r))

    def __call__(self, z: complex) -> complex:
        z = complex(z)
        if z.imag <= 0:
            raise DomainError("forms are evaluated in the upper half-plane")
        return eta_power_eval(self.weight, z)

    @property
    def is_cuspidal(self) -> bool:
        return self.weight.real > 0

    @property
    def decay_rate(self) -> float:
        """Exponential decay rate of |F| at i*infinity."""
        return 2 * math.pi * self.weight.real / 12.0

    def invariance_residual(self) -> float:
        """max of |F|_{v,r}gamma - F| / |F| over gamma = T, S and five points."""
        worst = 0.0
        for g in (T, S):
            for z in (2j, 0.3 + 1.1j, -0.7 + 0.8j, 1.4 + 2.2j, -2.1 + 0.6j):
                fz = self(z)
                res = abs(slash_multiplier(self, self.multiplier, self.weight, g, z) - fz)
                worst = max(worst, res / max(abs(fz), 1e-300))
        return worst


def _e2_eval(z: complex) -> complex:
    # E2 = 1 - 24 sum sigma_1(n) q^n = 1 + 24 q P'(q)/P(q), pulled back via
    # E2(z) = w^2 E2(w) - 6iw/pi with w = -1/z until Im w >= 1/2
    A = 1.0 + 0j
    B = 0.0 + 0j
    w = complex(z)
    for _ in range(64):
        w -= round(w.real)
        if w.imag >= 0.5:
            break
        w = -1.0 / w
        A, B = A * w * w, B - 6j * A * w / math.pi
    else:
        raise DomainError("E2 pullback did not terminate")
    p, qdp = _pentagonal(cmath.exp(2j * math.pi * w))
    return A * (1.0 + 24.0 * qdp / p) + B


# ---------------------------------------------------------------------------
# cocycles


@dataclass(frozen=True)
class CocycleSample:
    """One cocycle evaluation: value of psi_{F,gamma}(t) with its base data."""

    gamma: GroupElement
    t: complex
    value: complex
    base: Union[complex, float]
    error: float = 0.0
    converged: bool = True

    def __complex__(self) -> complex:
        return self.value


def _omega(F: FormEvaluator, t) -> Callable[[complex], complex]:
    # (z-t)^{r-2} F(z); for an array of t, one F(z) serves every t
    r = F.weight

    def f(z: complex):
        return F(z) * power_branch(z - t, r - 2.0, ARG_CUT_DOWN)

    return f


def _is_identity(g: GroupElement) -> bool:
    return (g.a, g.b, g.c, g.d) in ((1, 0, 0, 1), (-1, 0, 0, -1))


def eichler_cocycle(F: FormEvaluator, gamma: GroupElement, z0: complex,
                    t: complex, tol: float = 1e-10) -> CocycleSample:
    """psi^{z0}_{F,gamma}(t) along the geodesic from gamma^{-1} z0 to z0."""
    z0 = complex(z0)
    t = complex(t)
    if z0.imag <= 0:
        raise DomainError("base point must lie in the upper half-plane")
    if t.imag > 0:
        raise DomainError("cocycles are evaluated on the closed lower half-plane")
    if _is_identity(gamma):
        return CocycleSample(gamma, t, 0j, z0)
    a = gamma.inv().apply(z0)
    if abs(a - z0) <= 1e-14 * max(1.0, abs(z0)):
        # z0 is an elliptic fixed point of gamma; the cycle is contractible
        return CocycleSample(gamma, t, 0j, z0)
    try:
        res = contour_integral(_omega(F, t), ContourSpec.geodesic(a, z0), tol=tol)
    except OverflowError as exc:
        raise RefusalError(f"psi at r={F.weight}, t={t}: the integrand overflows ({exc})") from exc
    return CocycleSample(gamma, t, res.value, z0, res.error, res.converged)


def cusp_cocycle(F: FormEvaluator, gamma: GroupElement, t,
                 tol: float = 1e-10) -> CocycleSample:
    """psi^{infinity}_{F,gamma}(t): base point at the cusp, F cuspidal.

    t may be a 1-D array of points: value and error are then arrays, from one
    integral whose nodes, and evaluations of F, every t shares.
    """
    if not F.is_cuspidal:
        raise DomainError("cusp cocycle needs a cusp form (Re r > 0)")
    ts = np.asarray(t, dtype=complex)
    if np.any(ts.imag > 0):
        raise DomainError("cocycles are evaluated on the closed lower half-plane")
    t = complex(ts) if ts.ndim == 0 else ts
    if gamma.c == 0:
        # gamma fixes infinity; the cycle is empty
        return CocycleSample(gamma, t, 0j if ts.ndim == 0 else np.zeros_like(ts), INF)
    ginv = gamma.inv()
    cusp = ginv.a / ginv.c
    try:
        with np.errstate(over="raise", invalid="raise"):
            res = contour_integral(_omega(F, t), ContourSpec.geodesic(cusp, INF, decay=F.decay_rate),
                                   tol=tol)
    except (OverflowError, FloatingPointError) as exc:
        raise RefusalError(f"psi at r={F.weight}: the integrand overflows ({exc})") from exc
    return CocycleSample(gamma, t, res.value, INF, res.error, res.converged)


def period_function(r: complex, t, tol: float = 1e-10):
    """psi^{infinity}_{eta^{2r}, S}(t), the period function of eta^{2r}.

    t may be a 1-D array; the values are then an array, from one integral.
    """
    return cusp_cocycle(FormEvaluator.eta_power(r), S, t, tol=tol).value


# ---------------------------------------------------------------------------
# Mellin transform and L-series of eta powers

def I_integral(r: complex, s, tol: float = 1e-11):
    """I(r,s) = int_0^infty y^s eta^{2r}(iy) dy/y, Re r > 0.

    One trapezoid integral over the whole ray 0 -> i infinity.  s may be a
    1-D array: the values are then an array, one per s, sharing every node
    and its eta evaluation.  The functional equation I(r,s) = I(r,r-s)
    is not built in, so comparing the two sides is a check.
    """
    r = complex(r)
    if r.real <= 0:
        raise DomainError("I(r,s) needs Re r > 0")
    ss = np.asarray(s, dtype=complex)
    sm1 = ss - 1.0

    def f(z: complex):
        # y^{s-1} eta^{2r}(iy) dy with dy = dz/i; y is exact on the vertical ray
        return np.exp(sm1 * math.log(z.imag)) * (eta_power_eval(r, z) / 1j)

    try:
        with np.errstate(over="raise", invalid="raise"):
            res = contour_integral(f, ContourSpec.geodesic(0.0, INF, decay=math.pi * r.real / 6.0),
                                   tol=tol)
    except (OverflowError, FloatingPointError) as exc:
        name = complex(ss) if ss.ndim == 0 else s
        raise RefusalError(f"I(r,s) at r={r}, s={name}: the integrand overflows ({exc})") from exc
    return res.value


@dataclass(frozen=True)
class LSeriesValue:
    """L(eta^{2r}, s) with its completion Lambda(s) = (2pi)^{-s} Gamma(s) L(s)."""

    value: complex
    completed: complex
    tail: float


def L_eta_detailed(r: complex, s: complex) -> LSeriesValue:
    """L(eta^{2r}, s) = sum_k p_k(r) (r/12 + k)^{-s}, continued to every s.

    The split Mellin series, Re r > 0: L = (2pi)^s Lambda(s) / Gamma(s) with
    Lambda(s) = sum_k p_k [c_k^{-s} Gamma(s,c_k) + c_k^{s-r} Gamma(r-s,c_k)],
    c_k = 2pi(k + r/12).  `tail` estimates L's absolute error: twice the last
    term (the terms fall like e^{-c_k}) plus 64 ulps of sum |summands| (their
    rounding measured below 5e-15 of it), times |(2pi)^s / Gamma(s)|.  The
    summands cancel at large |Im s|, as |Gamma(s)| ~ e^{-pi |Im s|/2}; a tail
    above sqrt(eps) max(|L|, |(r/12)^{-s}|) is refused (at r = 12 from
    |Im s| ~ 28 for Re s = 14, ~ 18 for Re s = 6).
    """
    r = complex(r)
    s = complex(s)
    if r.real <= 0:
        raise RefusalError(f"L(eta^(2r), s) at r={r}: the split Mellin series needs Re r > 0")
    p = eta_power_coeffs(r, 60).coeffs
    acc, mag = 0j, 0.0
    try:
        for k in range(61):
            c = 2 * math.pi * (k + r / 12.0)
            lo = p[k] * c ** (-s) * incomplete_gamma(s, c)
            hi = p[k] * c ** (s - r) * incomplete_gamma(r - s, c)
            acc += lo + hi
            mag += abs(lo) + abs(hi)
            if abs(lo + hi) < 1e-18 * max(abs(acc), 1e-300) and k > 4:
                break
        scale = (2 * math.pi) ** s * _rgamma(s)
        value = acc * scale
        size = max(abs(value), abs((r / 12.0) ** (-s)))
    except OverflowError as exc:
        raise RefusalError(f"L(eta^(2r), s) at r={r}, s={s} overflows ({exc})") from exc
    tail = float((2 * abs(lo + hi) + 2.0 ** -46 * mag) * abs(scale))  # 64 ulps
    if not tail <= 2.0 ** -26 * size:  # sqrt(eps)
        raise RefusalError(f"L(eta^(2r), s) at r={r}, s={s} cancels to {tail / size:.1e}")
    return LSeriesValue(value, acc, tail)


def L_eta(r: complex, s: complex) -> complex:
    return L_eta_detailed(r, s).value


# ---------------------------------------------------------------------------
# period function Taylor coefficients


def period_series_coeffs(r: complex, N: int, tol: float = 1e-11) -> Tuple[complex, ...]:
    """Taylor coefficients c_n of the period function of eta^{2r} at t=0:

    c_n = e^{pi i (r-1)/2} i^n binom(r-2, n) I(r, r-1-n).
    """
    r = complex(r)
    if r.real <= 0:
        raise DomainError("period coefficients need Re r > 0")
    phase = cmath.exp(1j * math.pi * (r - 1.0) / 2.0)
    mellin = I_integral(r, r - 1.0 - np.arange(N), tol)
    return tuple(phase * 1j ** n * binom_complex(r - 2.0, n) * complex(mellin[n])
                 for n in range(N))


# ---------------------------------------------------------------------------
# relation verification


@dataclass(frozen=True)
class ResidualReport:
    """Named residual maxima from a verification sweep."""

    checks: Tuple[Tuple[str, float], ...]
    tolerance: float

    @property
    def max_residual(self) -> float:
        return max((v for _, v in self.checks), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


def verify_period_relations(r: complex, samples: Sequence[complex] = DEFAULT_SAMPLES,
                            tol: float = 1e-7, quad_tol: float = 1e-9) -> ResidualReport:
    """max residuals of psi|S + psi and psi - psi|(T + TST), action |_{v_r,2-r}."""
    r = complex(r)
    ms = MultiplierSystem(r)
    p = 2.0 - r
    TST = T @ S @ T
    samples = [complex(t) for t in samples]
    if any(t.imag >= 0 for t in samples):
        raise DomainError("period relations are checked in the open lower half-plane")
    # psi at every t, S t, T t and TST t from one integral; the slashes look
    # their psi values up, at the points g.apply computes
    points = list(dict.fromkeys(samples + [g.apply(t) for t in samples for g in (S, T, TST)]))
    psi = dict(zip(points, period_function(r, np.array(points), tol=quad_tol))).__getitem__

    def sl(g: GroupElement, t: complex) -> complex:
        return slash_multiplier(psi, ms, p, g, t, "lower")

    worst_s = 0.0
    worst_3 = 0.0
    for t in samples:
        psi_t = psi(t)
        worst_s = max(worst_s, abs(sl(S, t) + psi_t))
        worst_3 = max(worst_3, abs(psi_t - sl(T, t) - sl(TST, t)))
    return ResidualReport((("psi|S + psi", worst_s), ("psi - psi|(T+TST)", worst_3)), tol)


# ---------------------------------------------------------------------------
# Goldfeld's L'(1) integral


@dataclass(frozen=True)
class GoldfeldResult:
    """L'_f(1) from the eta-log integral, with the cocycle slope cross-check.

    lprime = -4 pi int_0^inf f(iy) u(iy) dy with u = log(eta(iy) eta(iNy));
    slope = d/dr psi_{f_r}(p;0) at r = 0, differentiated under the integral:
    i [(i pi/2) int f dy + int f u dy + int f log y dy], which the Fricke
    symmetry forces to equal -i int f u dy = i L'(1)/(4 pi).
    """

    lprime: float
    slope: complex
    l1: float
    u_integral: complex

    def __float__(self) -> float:
        return self.lprime


def _coeff_form(a: Sequence[float], N: int, w: float) -> Callable[[float], float]:
    # below y = 1/sqrt(N) the q-series cancels catastrophically; the Fricke
    # relation f(iy) = -f(i/(Ny)) / (w N y^2) evaluates there instead
    arr = np.asarray(a, dtype=float)
    ns = np.arange(1, len(arr) + 1, dtype=float)
    ylo = 1.0 / math.sqrt(N)

    def series(y: float) -> float:
        return float(np.sum(arr * np.exp(-2 * math.pi * ns * y)))

    def f(y: float) -> float:
        if y >= ylo:
            return series(y)
        return -series(1.0 / (N * y)) / (w * N * y * y)

    return f


def _log_eta(y: float) -> float:
    # log eta(iy); the product underflows near y = 0 so use the inversion
    # eta(i/y) = sqrt(y) eta(iy) and sum log(1 - q^n) directly
    if y < 1.0:
        return _log_eta(1.0 / y) - 0.5 * math.log(y)
    s = -math.pi * y / 12.0
    q = math.exp(-2.0 * math.pi * y)
    qn = q
    while qn > 1e-18:
        s += math.log1p(-qn)
        qn *= q
    return s


def _smoothed_g(a: Sequence[float], x: float) -> float:
    # G(x) = sum a_n e^{-2 pi n x} / (2 pi n)
    arr = np.asarray(a, dtype=float)
    ns = np.arange(1, len(arr) + 1, dtype=float)
    return float(np.sum(arr / (2 * math.pi * ns) * np.exp(-2 * math.pi * ns * x)))


def _ray_integral(g: Callable[[float], np.ndarray], decay: float, tol: float) -> np.ndarray:
    # int_0^inf g(y) dy over the vertical geodesic, componentwise
    res = contour_integral(lambda z: g(z.imag) / 1j, ContourSpec.geodesic(0.0, INF, decay=decay),
                           tol=tol)
    return res.value


def goldfeld_lprime(a: Sequence[float], N: int, tol: float = 1e-7) -> GoldfeldResult:
    """L'_f(1) of a weight-2 level-N newform with L_f(1) = 0.

    a is the 1-indexed coefficient list (a[0] = a_1 = 1).  The complete
    Mellin transform Lambda(1) = G(A) - w G(1/(N A)) fixes the Fricke
    eigenvalue w from the data and verifies |L_f(1)| <= 1e-4 before the
    integral is attempted.
    """
    if not any(a):
        return GoldfeldResult(lprime=0.0, slope=0j, l1=0.0, u_integral=0j)
    if len(a) < 16:
        raise DomainError("need more Fourier coefficients")
    if abs(a[0] - 1.0) > 1e-12:
        raise DomainError("coefficients must be normalized with a_1 = 1")
    rtN = math.sqrt(N)
    # fit the Fricke eigenvalue from Lambda(1) = G(A) - w G(1/(N A))
    a1, a2 = 1.0 / rtN, 2.0 / rtN
    g = [_smoothed_g(a, x) for x in (a1, 1.0 / (N * a1), a2, 1.0 / (N * a2))]
    w = (g[0] - g[2]) / (g[1] - g[3])
    if abs(w - round(w)) > 1e-2 or round(w) not in (-1, 1):
        raise DomainError(f"fitted Fricke eigenvalue {w:.4f} is not +-1")
    w = float(round(w))
    l1 = 2 * math.pi * (g[0] - w * g[1])
    if abs(l1) > 1e-4:
        raise DomainError(f"L_f(1) = {l1:.2e} is not zero; the integral needs L_f(1) = 0")

    f = _coeff_form(a, N, w)
    # u decays only linearly at the cusps; the eta factors keep everything
    # integrable against the cusp form
    u = lambda y: _log_eta(y) + _log_eta(N * y)
    decay = 2 * math.pi / max(N, 4)
    # int f u dy, and for the cocycle slope, d/dr at r = 0 of
    # psi_{f_r}(p;0) = i e^{i pi r/2} int f e^{r u} y^r dy, int f dy and int f log y dy
    u_int, f_int, log_int = (complex(v) for v in _ray_integral(
        lambda y: f(y) * np.array([u(y), 1.0, math.log(y)]), decay, tol))
    lprime = -4.0 * math.pi * u_int.real
    slope = 1j * (0.5j * math.pi * f_int + u_int + log_int)
    return GoldfeldResult(lprime=lprime, slope=slope, l1=l1, u_integral=u_int)


def _curve37_ap(p: int) -> int:
    # a_p = p - #{(x, y) mod p : y^2 + y = x^3 - x}; for odd p, completing
    # the square gives y^2 + y = u exactly 1 + chi(1 + 4u) solutions
    if p == 2:
        return 2 - sum(1 for x in range(2) for y in range(2)
                       if (y * y + y - (x ** 3 - x)) % 2 == 0)
    squares = {v * v % p for v in range(1, p)}
    tot = 0
    for x in range(p):
        u = (1 + 4 * (x ** 3 - x)) % p
        if u:
            tot += 1 if u in squares else -1
    return -tot


def newform37_coeffs(nmax: int) -> List[int]:
    """a_1..a_nmax of the weight-2 level-37 newform (the curve y^2 + y = x^3 - x).

    a_p comes from point counts mod p; prime powers follow the Hecke relation
    a_{p^{k+1}} = a_p a_{p^k} - p a_{p^{k-1}} (a_{37^k} = a_37^k at the bad
    prime), and every other a_n is the product over its prime-power factors.
    """
    spf = list(range(nmax + 1))  # smallest prime factor
    for p in range(2, math.isqrt(nmax) + 1):
        if spf[p] == p:
            for m in range(p * p, nmax + 1, p):
                if spf[m] == m:
                    spf[m] = p
    a = [0] * (nmax + 1)
    a[1] = 1
    for n in range(2, nmax + 1):
        p = spf[n]
        pk = p
        while n % (pk * p) == 0:
            pk *= p
        if pk < n:
            a[n] = a[pk] * a[n // pk]
        elif n == p:
            a[n] = _curve37_ap(p)
        else:
            a[n] = a[p] * a[n // p] - (0 if p == 37 else p) * a[n // (p * p)]
    return a[1:]
