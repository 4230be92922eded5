"""Quantum values of eta powers at rational points.

For Re r > 0 the cusp integral h_a(t) = int_{z0}^{a} eta^{2r}(z)(z-t)^{r-2} dz
converges up to the rational endpoint a, and its value p(a) = h_a(a) defines a
function on the rationals whose modular transformation defect is exactly the
Eichler cocycle psi^{z0}_delta evaluated on the real line: a function with
"modular transformation behaviour modulo smooth".  The weight-0 model case
h_a(t) = 1/(t-a) satisfies the analogous relation exactly, with defect
-c/(ct+d).

Near the cusp the integrand is pulled back through the scaling matrix
sigma_a(inf) = a, which turns the geodesic into a vertical ray on which
eta^{2r} decays like exp(-pi Re(r) Im(w)/6) while every (qw+d) power cancels
algebraically -- the quadrature never sees the cusp.
"""

import math
from fractions import Fraction
from typing import Optional, Tuple, Union

from .algebra import (ARG_CUT_DOWN, ARG_LOWER, ARG_UPPER, GroupElement,
                      multiplier_eval, power_branch, scaling_matrix)
from .cocycles import FormEvaluator, eichler_cocycle
from .errors import DomainError, PoleError, RefusalError
from .quadrature import INF, ContourSpec, contour_integral

__all__ = [
    "eta_defect",
    "quantum_value_eta",
    "weight0_quantum",
]

Cusp = Union[int, Fraction]


def _as_rational(a) -> Fraction:
    if isinstance(a, float):
        if math.isinf(a):
            raise DomainError("quantum values live at finite rationals")
        a = Fraction(a).limit_denominator(10 ** 9)
    return Fraction(a)


def quantum_value_eta(r: complex, a, z0: complex, tol: float = 1e-10,
                      t: Optional[complex] = None) -> complex:
    """h_a(t) = int_{z0}^{a} eta^{2r}(z)(z-t)^{r-2} dz, with t = a by default.

    The path is the geodesic from z0 to the rational cusp a.  Substituting
    z = sigma_a(w) maps it to a vertical ray, where z - a = -1/(q(qw+d)) is
    evaluated in closed form (no cancellation) and eta^{2r}(sigma_a w) =
    j_{v,r}(sigma_a, w) eta^{2r}(w) decays exponentially.  t may also lie in
    the closed lower half-plane (boundary values of the smooth class).
    """
    r = complex(r)
    if r.real <= 0:
        raise DomainError("quantum values need Re r > 0")
    a = _as_rational(a)
    av = float(a)
    if t is None:
        t = av
    t = complex(t)
    if t.imag > 0:
        raise DomainError("evaluation point must lie in the closed lower half-plane")
    F = FormEvaluator.eta_power(r)
    ms = F.multiplier
    sigma = scaling_matrix(a)
    q = sigma.c
    w0 = sigma.inv().apply(complex(z0))
    shift = av - t  # z - t = (z - a) + (a - t), Im(z - t) > 0 on the ray
    v = multiplier_eval(ms, sigma)

    def integrand(w: complex) -> complex:
        den = q * w + sigma.d
        dz = 1.0 / (den * den)
        zt = -1.0 / (q * den) + shift
        j = v * power_branch(den, r, ARG_UPPER)  # j_{v,r}(sigma, w)
        return j * F(w) * power_branch(zt, r - 2.0, ARG_CUT_DOWN) * dz

    ray = ContourSpec.geodesic(w0, INF, decay=F.decay_rate)
    try:
        return complex(contour_integral(integrand, ray, tol=tol))
    except OverflowError as exc:
        raise RefusalError(f"h_a at r={r}, a={a}: the integrand overflows ({exc})") from exc


def _boundary_j_power(c: int, d: int, x: float, expo: complex) -> complex:
    # (cx+d)^expo as the limit from the lower half-plane, where h_a lives:
    # Im(ct+d) = c Im t, so c > 0 approaches the real value from below
    base = c * x + d
    if base == 0:
        raise PoleError("cusp maps to infinity under delta")
    if c > 0:
        return power_branch(base, expo, ARG_LOWER)
    if c < 0:
        return power_branch(base, expo, ARG_UPPER)
    return power_branch(base, expo, ARG_UPPER)  # c = 0: real positive scale


def eta_defect(r: complex, a, delta: GroupElement, z0: complex,
               tol: float = 1e-10) -> Tuple[complex, complex]:
    """Both sides of p|_{v,2-r}(delta - 1)(a) = psi^{z0}_delta(a).

    lhs = v(delta)^{-1} (c a + d)^{r-2} p(delta a) - p(a); rhs is the Eichler
    cocycle of eta^{2r} evaluated at the real point a.  Their agreement is
    the "modular transformation behaviour modulo smooth" of the quantum
    value map, exact up to quadrature error.
    """
    r = complex(r)
    a = _as_rational(a)
    da = delta.apply_cusp(a)
    if isinstance(da, float) and math.isinf(da):
        raise DomainError("delta sends a to infinity; defect undefined there")
    F = FormEvaluator.eta_power(r)
    p_a = quantum_value_eta(r, a, z0, tol=tol)
    p_da = quantum_value_eta(r, da, z0, tol=tol)
    v = multiplier_eval(F.multiplier, delta)
    j = _boundary_j_power(delta.c, delta.d, float(a), r - 2.0)
    lhs = j / v * p_da - p_a
    rhs = complex(eichler_cocycle(F, delta, complex(z0), float(a), tol=tol))
    return lhs, rhs


def weight0_quantum(a, delta: GroupElement, t: complex) -> float:
    """Residual of the weight-0 model: h_a(t) = 1/(t-a), defect -c/(ct+d).

    Returns |(ct+d)^{-2} h_{delta a}(delta t) - h_a(t) + c/(ct+d)|, which is
    zero to rounding by an exact algebraic identity.
    """
    a = _as_rational(a)
    t = complex(t)
    den = delta.c * t + delta.d
    if den == 0:
        raise PoleError("ct + d vanishes at t")
    da = delta.apply_cusp(a)
    if isinstance(da, float) and math.isinf(da):
        raise DomainError("delta a must be a finite rational")
    lhs = den ** -2 / (delta.apply(t) - float(da))
    val = lhs - 1.0 / (t - float(a)) + delta.c / den
    return abs(val)
