"""Special functions backing the period and average machinery.

Fourier coefficients of eta powers and their evaluation by Euler's
pentagonal series, the upper incomplete gamma function on the cut plane,
Gauss and Kummer hypergeometric series, and the Hurwitz-Lerch zeta

    H(s, a, z) = sum_{n >= 0} e^{2 pi i a n} (z + n)^{-s},

with analytic continuation in s and a large-|z| asymptotic expansion.

Conventions
-----------
* All powers are principal unless stated otherwise.
* H(s, a, z) needs Im a >= 0 so that |e^{2 pi i a n}| stays bounded.
* Continuation of H uses the shift identity plus an order-8
  Euler-Maclaurin correction (Abel-Plana integral as fallback when the
  correction stalls).  It is refused for Re s <= -4, where the error grows
  quickly (6e-9 relative at s = -10, 6e-4 at s = -20, a = 0).  Against
  mpmath on Re s in (-4, 0], |Im s| <= 3, the relative error stays below
  ~3e-11 (a few 1e-12 at a = 0).  The geometric direct sum for Im a > 0
  has no such limit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gamma as _cgamma, rgamma as _crgamma

from .errors import BranchError, DomainError, PoleError, RefusalError

TWO_PI = 2.0 * math.pi
_EULER = 0.5772156649015328606

__all__ = [
    "EtaPowerSeries",
    "LerchEval",
    "eta_power_coeffs",
    "eta_power_eval",
    "incomplete_gamma",
    "gauss_2f1",
    "kummer_1f1",
    "kummer_1f1_detailed",
    "hurwitz_lerch",
    "hurwitz_lerch_detailed",
    "lerch_asymptotic",
    "lerch_b_coeffs",
    "binom_complex",
    "pochhammer",
]


def pochhammer(x: complex, n: int) -> complex:
    """Rising factorial (x)_n = x (x+1) ... (x+n-1)."""
    out = 1.0 + 0j
    for j in range(n):
        out *= x + j
    return out


def binom_complex(x: complex, n: int) -> complex:
    """Binomial coefficient C(x, n) = x (x-1) ... (x-n+1) / n! for complex x."""
    if n < 0:
        raise DomainError("binomial order must be >= 0")
    out = 1.0 + 0j
    for j in range(n):
        out *= x - j
    return out / math.factorial(n)


# ---------------------------------------------------------------------------
# eta powers


@dataclass(frozen=True)
class EtaPowerSeries:
    """Coefficients p_0..p_K with eta^{2r}(z) = sum_k p_k e^{2 pi i (12k+r) z / 12}."""

    r: complex
    K: int
    coeffs: Tuple[complex, ...]


def _sigma_one(n: int) -> int:
    # sum of divisors of n
    tot = 0
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            tot += d
            e = n // d
            if e != d:
                tot += e
    return tot


@lru_cache(maxsize=None)
def _eta_coeff_tuple(r: complex, K: int) -> Tuple[complex, ...]:
    # p = exp(A) with A(q) = -2r sum_n sigma_{-1}(n) q^n, via p' = A' p, so
    # k p_k = sum_j ja_j p_{k-j} with ja_j = -2r sigma_1(j); when 2r is an
    # integer so is every ja_j and p_k, and the recurrence runs in exact ints
    exact = r.imag == 0 and 2 * r.real == round(2 * r.real)
    c = -int(round(2 * r.real)) if exact else -2.0 * r
    ja = [0] + [c * _sigma_one(j) for j in range(1, K + 1)]
    p = [1] + [0] * K
    for k in range(1, K + 1):
        acc = 0
        for j in range(1, k + 1):
            acc += ja[j] * p[k - j]
        if exact:
            p[k], rem = divmod(acc, k)
            assert rem == 0
        else:
            p[k] = acc / k
    return tuple(complex(x) for x in p)


def eta_power_coeffs(r: complex, K: int) -> EtaPowerSeries:
    """Fourier coefficients of eta^{2r} up to order K."""
    if K < 0:
        raise DomainError("K must be >= 0")
    return EtaPowerSeries(r=complex(r), K=K, coeffs=_eta_coeff_tuple(complex(r), K))


def _pentagonal(q: complex) -> Tuple[complex, complex]:
    # P(q) = prod_{n>=1} (1 - q^n) = sum_k (-1)^k q^{k(3k-1)/2} and q P'(q);
    # for |q| <= e^{-pi} the omitted terms of P are below 2|q|^22/(1-|q|)
    q2 = q * q
    q5 = q2 * q2 * q
    q7 = q5 * q2
    q12 = q7 * q5
    q15 = q12 * q2 * q
    return (1.0 - q - q2 + q5 + q7 - q12 - q15,
            -q - 2.0 * q2 + 5.0 * q5 + 7.0 * q7 - 12.0 * q12 - 15.0 * q15)


def eta_power_eval(r: complex, z: complex) -> complex:
    """Evaluate eta^{2r}(z) for Im z > 0 by Euler's pentagonal series.

    After a modular pullback to Im w >= 1/2, where |q| <= e^{-pi},
    eta^{2r}(w) = exp(2r (pi i w/12 + log P(q))) with P(q) = prod (1 - q^n)
    summed through q^15: the omitted terms are proven below 2|q|^22/(1-|q|)
    < 3e-30 for every r, and |P - 1| < 0.05 makes the principal log the
    analytic branch.  The exponent's rounding is amplified ~|2r|-fold, so
    the relative error is a few |2r| ulps.  Each exponentiated argument
    carries a rounding error of an ulp of its modulus; where eps times the
    sum of those moduli exceeds sqrt(eps) the value is refused with
    RefusalError, unless it underflows to 0 (deep in the cusp, where the
    decay swamps any error in the phase).
    """
    r = complex(r)
    z = complex(z)
    if z.imag <= 0:
        raise DomainError("eta power needs Im z > 0")
    if r == 0:
        return 1.0 + 0j
    fac = 1.0 + 0j
    mag = 0.0  # sum of the moduli of the exponentiated arguments
    w = z
    try:
        for _ in range(256):
            n = round(w.real)
            if n:
                e = 1j * math.pi * r * n / 6.0
                mag += abs(e)
                fac *= cmath.exp(e)
                w -= n
            if w.imag >= 0.5:
                break
            # eta^{2r}(-1/w') = (-i w')^r eta^{2r}(w') with w' = -1/w
            w = -1.0 / w
            e = r * cmath.log(-1j * w)
            mag += abs(e)
            fac *= cmath.exp(e)
        else:
            raise DomainError("modular reduction failed to converge")
        p, _ = _pentagonal(cmath.exp(2j * math.pi * w))
        x = 2.0 * r * (1j * math.pi * w / 12.0 + cmath.log(p))
        if not cmath.isfinite(x):
            raise OverflowError("the exponent is not finite")
        mag += abs(x)
        value = fac * cmath.exp(x)
        if mag > 2.0 ** 26 and value != 0:  # eps * mag > sqrt(eps)
            raise RefusalError(f"eta^(2r) at r={r}, z={z}: rounding of exponents "
                               f"of modulus {mag:.3g} swamps the value")
        return value
    except OverflowError as exc:
        raise RefusalError(f"eta^(2r) at r={r}, z={z} overflows ({exc})") from exc


# ---------------------------------------------------------------------------
# incomplete gamma


def _gamma_series_direct(a: complex, u: complex) -> complex:
    # Gamma(a) - u^a sum_n (-u)^n / (n! (a+n)); a away from nonpositive integers
    s = 0j
    term = 1.0 + 0j
    for n in range(300):
        s += term / (a + n)
        term *= -u / (n + 1)
        if abs(term) < 1e-18 * max(abs(s), 1e-300) and n > 3:
            break
    return complex(_cgamma(a)) - cmath.exp(a * cmath.log(u)) * s


def _gamma_series_lower(a: complex, u: complex) -> complex:
    # Gamma(a) - u^a e^{-u} sum_n u^n / (a)_{n+1}; for |u| < Re a + 1 the
    # ratios u/(a+n+1) have modulus below 1 and the terms never grow
    s = term = 1.0 / a
    for n in range(1, 1000):
        term *= u / (a + n)
        s += term
        if abs(term) < 1e-18 * abs(s):
            break
    return complex(_cgamma(a)) - cmath.exp(a * cmath.log(u) - u) * s


def _gamma_series_int_nonpos(n: int, u: complex) -> complex:
    # exact route for a = -n <= 0: E_1-type series then downward recurrence
    s = 0j
    term = 1.0 + 0j
    for k in range(1, 300):
        term *= -u / k
        s += term / k
        if abs(term) < 1e-18 * max(abs(s), 1e-300) and k > 3:
            break
    g = -_EULER - cmath.log(u) - s
    lu = cmath.log(u)
    for j in range(1, n + 1):
        g = (g - cmath.exp(-j * lu - u)) / (-j)
    return g


def _gamma_cf(a: complex, u: complex, maxit: int = 5000) -> complex:
    # modified Lentz continued fraction; needs Re u >= 0 in practice
    tiny = 1e-300
    b = u + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    h = d
    for i in range(1, maxit):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        de = d * c
        h *= de
        if abs(de - 1.0) < 5e-17:
            break
    return cmath.exp(-u + a * cmath.log(u)) * h


def _gamma_asymp(a: complex, u: complex) -> complex:
    s = 1.0 + 0j
    term = 1.0 + 0j
    prev = abs(term)
    for k in range(1, 300):
        term *= (a - k) / u
        if abs(term) > prev:
            break
        s += term
        prev = abs(term)
        if prev < 1e-17 * abs(s):
            break
    return cmath.exp(-u + (a - 1) * cmath.log(u)) * s


_ARC_N, _ARC_W = leggauss(24)


def _gamma_arc(a: complex, u: complex) -> complex:
    # integrate v^{a-1} e^{-v} along |v| = |u| from u to the positive axis,
    # then continue with the continued fraction at real argument
    R = abs(u)
    th = cmath.phase(u)
    npan = max(4, int(abs(th) * R / 4.0) + 1)
    total = 0j
    for j in range(npan):
        t0 = th * (1 - j / npan)
        t1 = th * (1 - (j + 1) / npan)
        mid, half = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
        for x, wgt in zip(_ARC_N, _ARC_W):
            phi = mid + half * x
            v = R * cmath.exp(1j * phi)
            total += wgt * cmath.exp((a - 1) * cmath.log(v) - v) * (1j * v) * half
    return total + _gamma_cf(a, complex(R))


def incomplete_gamma(a: complex, u: complex) -> complex:
    """Upper incomplete gamma Gamma(a, u) = int_u^inf v^{a-1} e^{-v} dv.

    Principal branch, defined on u in C minus (-inf, 0].  Alternating series
    for small |u|; for Re u >= 0 the lower-gamma series Gamma(a) - gamma(a, u)
    while |u| < Re a + 1 and the continued fraction beyond; asymptotic series
    for very large |u|, and an arc-path integral bridging the left half plane.
    """
    a = complex(a)
    u = complex(u)
    if u.imag == 0 and u.real <= 0:
        raise BranchError("Gamma(a, u) is not defined on the cut (-inf, 0]")
    au = abs(u)
    # direct series cancels badly for Re u past ~4.5, sooner for very negative Re a
    series_cap = max(1.0, 4.5 - 0.35 * max(0.0, -a.real - 1.0))
    if au <= 6 and u.real <= series_cap:
        if a.imag == 0 and a.real == round(a.real) and a.real <= 0:
            return _gamma_series_int_nonpos(int(-a.real), u)
        return _gamma_series_direct(a, u)
    if u.real >= 0:
        if au < a.real + 1.0:
            return _gamma_series_lower(a, u)
        return _gamma_cf(a, u)
    if au >= 35.0 + 2.2 * abs(a):
        return _gamma_asymp(a, u)
    return _gamma_arc(a, u)


# ---------------------------------------------------------------------------
# hypergeometric series


def gauss_2f1(a: complex, b: complex, c: complex, x: float) -> complex:
    """Gauss 2F1(a, b; c; x) by direct series, restricted to x in [0, 0.95]."""
    c = complex(c)
    if c.imag == 0 and c.real == round(c.real) and c.real <= 0:
        raise DomainError("2F1 pole: c is a nonpositive integer")
    x = float(x)
    if x < 0.0:
        raise DomainError("2F1 argument must be >= 0")
    if x > 0.95:
        raise RefusalError("2F1 argument > 0.95 refused (series accuracy)")
    a = complex(a)
    b = complex(b)
    s = 1.0 + 0j
    term = 1.0 + 0j
    for n in range(4000):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * x
        s += term
        if abs(term) <= 1e-14 * abs(s) and n >= 2:
            break
    return s


def kummer_1f1_detailed(a: complex, b: complex, t: complex) -> Tuple[complex, float]:
    """Kummer 1F1(a; b; t) with a relative error estimate.

    Direct series for |t| <= 30 (via the Kummer transform when Re t < 0 to
    avoid cancellation); for larger |t| the compound asymptotic expansion,
    whose smallest-term truncation error is returned as the estimate.
    """
    a = complex(a)
    b = complex(b)
    t = complex(t)
    if b.imag == 0 and b.real == round(b.real) and b.real <= 0:
        raise DomainError("1F1 pole: b is a nonpositive integer")
    if abs(t) <= 30.0:
        if t.real < 0:
            val, est = kummer_1f1_detailed(b - a, b, -t)
            return cmath.exp(t) * val, est
        s = 1.0 + 0j
        term = 1.0 + 0j
        for n in range(600):
            term *= (a + n) / ((b + n) * (n + 1)) * t
            s += term
            if abs(term) <= 1e-16 * abs(s) and n >= 2:
                break
        return s, 1e-15
    # 1F1(a;b;t) ~ Gamma(b) [ e^t t^{a-b}/Gamma(a) S1 + (-t)^{-a}/Gamma(b-a) S2 ]
    pre1 = cmath.exp(t + (a - b) * cmath.log(t)) * complex(_crgamma(a))
    pre2 = cmath.exp(-a * cmath.log(-t)) * complex(_crgamma(b - a))

    def _asym_sum(p: complex, q: complex, arg: complex) -> Tuple[complex, float]:
        s = 1.0 + 0j
        term = 1.0 + 0j
        best = abs(term)
        for k in range(300):
            nxt = term * (p + k) * (q + k) / ((k + 1) * arg)
            if abs(nxt) > abs(term):
                return s, abs(term)
            term = nxt
            s += term
            best = abs(term)
            if best < 1e-17 * abs(s):
                break
        return s, best

    s1, e1 = _asym_sum(b - a, 1 - a, t)
    s2, e2 = _asym_sum(a, a - b + 1, -t)
    val = complex(_cgamma(b)) * (pre1 * s1 + pre2 * s2)
    abserr = abs(_cgamma(b)) * (abs(pre1) * e1 + abs(pre2) * e2)
    return val, abserr / max(abs(val), 1e-300)


def kummer_1f1(a: complex, b: complex, t: complex) -> complex:
    """Kummer 1F1(a; b; t); see kummer_1f1_detailed for the error estimate."""
    return kummer_1f1_detailed(a, b, t)[0]


# ---------------------------------------------------------------------------
# Hurwitz-Lerch zeta


@dataclass(frozen=True)
class LerchEval:
    """One H(s, a, z) evaluation with the method that produced it."""

    s: complex
    a: complex
    z: complex
    value: complex
    method: str  # direct | shifted


_BERN = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66)  # B_2, B_4, ..., B_10
_FACT = tuple(math.factorial(k) for k in range(16))


def _lerch_pow(base: complex, s: complex) -> complex:
    return cmath.exp(-s * cmath.log(base))


def _lerch_head(s: complex, a: complex, z: complex, M: int) -> complex:
    if M <= 0:
        return 0j
    n = np.arange(M)
    # an overflowing term comes back non-finite, which the caller refuses
    with np.errstate(over="ignore", invalid="ignore"):
        return complex(np.sum(np.exp(2j * math.pi * a * n - s * np.log(z + n))))


def _lerch_tail_integral(s: complex, a: complex, w: complex) -> complex:
    # int_0^inf e^{2 pi i a t} (w + t)^{-s} dt
    if a == 0:
        return _lerch_pow(w, s - 1) / (s - 1)
    c = -2j * math.pi * a
    return cmath.exp(c * w) * cmath.exp((s - 1) * cmath.log(c)) * incomplete_gamma(1 - s, c * w)


def _lerch_derivs(s: complex, a: complex, w: complex, mmax: int) -> list:
    # derivatives of e^{2 pi i a x} (w + x)^{-s} at x = 0; caller adds e^{2 pi i a M}
    c = 2j * math.pi * a
    g = []
    poch = 1.0 + 0j
    for k in range(mmax + 1):
        g.append(((-1) ** k) * poch * _lerch_pow(w, s + k))
        poch *= s + k
    out = []
    for m in range(mmax + 1):
        tot = 0j
        for k in range(m + 1):
            tot += math.comb(m, k) * c ** (m - k) * g[k]
        out.append(tot)
    return out


_AP_N, _AP_W = leggauss(48)


def _abel_plana(s: complex, a: complex, z: complex, M: int) -> complex:
    # i int_0^inf [f(M+iy) - f(M-iy)] / (e^{2 pi y} - 1) dy
    alpha = abs(a.real)
    decay = TWO_PI * (1.0 - alpha) - 1e-9
    Y = 42.0 / decay
    edges = np.concatenate(([0.0], np.geomspace(0.02, Y, 9)))
    total = 0j
    for j in range(len(edges) - 1):
        mid = 0.5 * (edges[j] + edges[j + 1])
        half = 0.5 * (edges[j + 1] - edges[j])
        for x, wgt in zip(_AP_N, _AP_W):
            y = mid + half * x
            fp = cmath.exp(2j * math.pi * a * (M + 1j * y) - s * cmath.log(z + M + 1j * y))
            fm = cmath.exp(2j * math.pi * a * (M - 1j * y) - s * cmath.log(z + M - 1j * y))
            total += wgt * half * (fp - fm) / math.expm1(TWO_PI * y)
    return 1j * total


def _lerch_geometric(s: complex, a: complex, z: complex, q: float, tol: float) -> complex:
    tot = 0j
    n = 0
    grow = max(0.0, -s.real)  # |z+n|^grow growth before the decay wins
    nmin = abs(z) + 2.0 * grow / math.log(1.0 / q) + 10.0
    while n <= 200000:
        term = cmath.exp(2j * math.pi * a * n - s * cmath.log(z + n))
        tot += term
        n += 1
        if n > nmin:
            qp = q * math.exp(grow / max(1.0, n - abs(z)))
            if qp < 1 and abs(term) * qp / (1 - qp) < tol * max(abs(tot), 1e-300):
                break
    return tot


def _lerch_plain(s: complex, a: complex, z: complex, N: int) -> complex:
    # head + tail integral + half term: Euler-Maclaurin at order zero
    w = z + N
    phase = cmath.exp(2j * math.pi * a * N)
    return (_lerch_head(s, a, z, N) + _lerch_tail_integral(s, a, w) * phase
            + 0.5 * phase * _lerch_pow(w, s))


def _lerch_scale(s: complex, a: complex, z: complex) -> float:
    # |z|^{-Re s}, the size the direct-sum truncation targets are relative to
    scale = max(abs(z), 1.0) ** (-s.real)
    if scale == 0.0:
        raise RefusalError(f"H(s,a,z) at s={s}, a={a}, z={z}: |z|^(-Re s) underflows")
    return scale


def _lerch_value(s: complex, a: complex, z: complex, tol: float) -> Tuple[complex, str]:
    # H(s, a, z) for Re a in [-1/2, 1/2], with the method that produced it
    sig = s.real
    q = math.exp(-TWO_PI * a.imag)
    if q <= 0.9:
        return _lerch_geometric(s, a, z, q, tol), "direct"
    if sig >= 2.5:
        # plain sum viable when the order-zero truncation cost stays modest
        scale = _lerch_scale(s, a, z)
        N = (tol * scale * (sig - 1)) ** (1.0 / (1.0 - sig))
        if N < 60000:
            N = int(N) + int(abs(z)) + 10
            return _lerch_plain(s, a, z, N), "direct"
    if sig <= -4.0:
        raise RefusalError(f"continuation of H(s, a, z) is not accurate for "
                           f"Re s <= -4 (s={s})")
    # shifted Euler-Maclaurin, order 8
    if sig >= 0.3:
        R = 15.0 + 3.0 * abs(s) + 8.0 * abs(a)
        M = int(max(0.0, R - z.real)) + 1
        while abs(z + M) < R:
            M += 8
        w = z + M
        phaseM = cmath.exp(2j * math.pi * a * M)
        base = (_lerch_head(s, a, z, M) + _lerch_tail_integral(s, a, w) * phaseM
                + 0.5 * phaseM * _lerch_pow(w, s))
        derivs = _lerch_derivs(s, a, w, 9)
        em = 0j
        for j in range(1, 5):
            em -= _BERN[j - 1] / _FACT[2 * j] * derivs[2 * j - 1] * phaseM
        value8 = base + em
        est = 3.0 * abs(_BERN[4] / _FACT[10] * derivs[9])
        if est < tol * max(abs(value8), 1e-300):
            return value8, "shifted"
    # Abel-Plana with a short shift: keeps head/tail cancellation mild,
    # which matters once Re s < 0
    M = 0
    while (z + M).real < 1.5 or abs(z + M) < 2.5:
        M += 1
    w = z + M
    phaseM = cmath.exp(2j * math.pi * a * M)
    base = (_lerch_head(s, a, z, M) + _lerch_tail_integral(s, a, w) * phaseM
            + 0.5 * phaseM * _lerch_pow(w, s))
    return base + _abel_plana(s, a, z, M), "shifted"


def hurwitz_lerch_detailed(s: complex, a: complex, z: complex,
                           tol: float = 1e-12) -> LerchEval:
    """Hurwitz-Lerch zeta H(s, a, z) with the evaluation method recorded.

    "direct": the defining series, summed term by term when e^{-2 pi Im a}
    <= 0.9, else for Re s >= 2.5 as a head plus tail integral when fewer
    than 6e4 terms suffice.  "shifted": the continuation, an order-8
    Euler-Maclaurin sum after a shift (Re s >= 0.3) or the Abel-Plana
    formula.  A value that overflows or is not finite is refused with
    RefusalError.
    """
    s = complex(s)
    a = complex(a)
    z = complex(z)
    if a.imag < 0:
        raise DomainError("H(s, a, z) needs Im a >= 0")
    if z.imag == 0 and z.real <= 0:
        raise BranchError("z on the cut (-inf, 0]")
    frac = a - round(a.real)
    if abs(frac) < 1e-14 and abs(s - 1) < 1e-14:
        raise PoleError("H(s, a, z) has a pole at s = 1 for integer a")
    try:
        value, method = _lerch_value(s, frac, z, tol)
    except OverflowError as exc:
        raise RefusalError(f"H(s, a, z) at s={s}, a={a}, z={z} overflows ({exc})") from exc
    if not cmath.isfinite(value):
        raise RefusalError(f"H(s, a, z) at s={s}, a={a}, z={z} is not finite")
    return LerchEval(s, frac, z, value, method)


def hurwitz_lerch(s: complex, a: complex, z: complex, tol: float = 1e-12) -> complex:
    """Hurwitz-Lerch zeta H(s, a, z) = sum_{n>=0} e^{2 pi i a n} (z+n)^{-s}."""
    return hurwitz_lerch_detailed(s, a, z, tol=tol).value


# ---------------------------------------------------------------------------
# large-|z| asymptotics of H


def _series_divide(num: list, den: list, K: int) -> list:
    g = [0j] * (K + 1)
    g[0] = num[0] / den[0]
    for k in range(1, K + 1):
        acc = num[k]
        for j in range(1, k + 1):
            acc -= den[j] * g[k - j]
        g[k] = acc / den[0]
    return g


def lerch_b_coeffs(lam: complex, s: complex, kmax: int) -> Tuple[complex, ...]:
    """Coefficients b_0..b_kmax of H(s, a, 1/2 + z) ~ eps z^{1-s}/(s-1) + sum b_k z^{-k-s}.

    b_k(lambda, s) = (-1)^{k+1} / (k+1)! * B_{k+1}(1/2; lambda) * (s)_k where
    the half-shifted generalized Bernoulli numbers have generating function
    z e^{z/2} / (lambda e^z - 1).
    """
    lam = complex(lam)
    s = complex(s)
    K = kmax + 1
    if abs(lam - 1.0) < 1e-13:
        # z e^{z/2}/(e^z - 1) = e^{z/2} / (sum_j z^j/(j+1)!)
        num = [complex(0.5 ** j / _FACT[j]) for j in range(K + 1)]
        den = [complex(1.0 / _FACT[j + 1]) for j in range(K + 1)]
    else:
        num = [0j] + [complex(0.5 ** (j - 1) / _FACT[j - 1]) for j in range(1, K + 1)]
        den = [lam - 1.0] + [lam / _FACT[j] for j in range(1, K + 1)]
    g = _series_divide(num, den, K)
    out = []
    for k in range(kmax + 1):
        Bk1 = _FACT[k + 1] * g[k + 1]
        out.append(((-1) ** (k + 1) / _FACT[k + 1]) * Bk1 * pochhammer(s, k))
    return tuple(out)


def lerch_asymptotic(s: complex, a: complex, z: complex, K: int) -> Tuple[complex, float]:
    """Large-|z| expansion of H(s, a, z) through order K, with error bound.

    Returns (value, bound) where value = eps(lambda) t^{1-s}/(s-1)
    + sum_{k<=K} b_k t^{-k-s} at t = z - 1/2, and bound majorizes the
    truncation error via the first two omitted coefficients.  The error
    then sits inside 10 |z|^{-Re s - K} once |z| is a few dozen.
    """
    s = complex(s)
    a = complex(a)
    z = complex(z)
    if not 0 <= K <= 3:
        raise DomainError("expansion order K must be in 0..3")
    t = z - 0.5
    if t == 0 or abs(cmath.phase(t)) > 1.35:
        raise DomainError("z outside the asymptotic sector")
    frac = a - round(a.real)
    lam = cmath.exp(2j * math.pi * a)
    b = lerch_b_coeffs(lam, s, K + 2)
    val = 0j
    if abs(frac) < 1e-12:
        if abs(s - 1.0) < 1e-14:
            raise PoleError("leading term has a pole at s = 1")
        val += cmath.exp((1 - s) * cmath.log(t)) / (s - 1)
    for k in range(K + 1):
        val += b[k] * cmath.exp(-(k + s) * cmath.log(t))
    at = abs(t)
    sig = s.real
    bound = 2.0 * abs(b[K + 1]) * at ** (-K - 1 - sig) + abs(b[K + 2]) * at ** (-K - 2 - sig)
    return val, bound
