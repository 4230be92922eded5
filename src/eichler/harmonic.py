"""Polar r-harmonic functions, shadow operators, and the resolvent kernel.

The weight-r Laplacian Delta_r = -4y^2 d_z d_zbar + 2iry d_zbar annihilates
holomorphic functions, the polar families P/M/H built from hypergeometric
series in the disk coordinate w = (z-i)/(z+i), the kernel function K_r, the
resolvent Q_r, and the lowered exponentials F_{r,n}.  The shadow operator
xi_r F = 2i y^{conj r} conj(d_zbar F) sends r-harmonic functions to
holomorphic ones and is checked here both by finite differences and by the
tabulated closed forms.

The kernel K_r(z; tau) generalises the Cauchy kernel 1/(z - tau): paired with
the resolvent in a Green's form it reproduces function values from contour
integrals (cauchy_formula), and its expansion in the polar families converges
geometrically in each of the two regimes separated by |w(z)| = |w(tau)|.
The resolvent's d_zbar in that form is closed-form, from the same 2F1 series
as its value.  Derivatives of caller-supplied functions are taken by central
finite differences with step 1e-4, so that every closed form is testable
against a derivative-free evaluation.
"""

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Tuple

from .algebra import ARG_CUT_DOWN, GroupElement, power_branch
from .cocycles import FormEvaluator, _e2_eval
from .errors import DomainError, PoleError, RefusalError
from .quadrature import ContourSpec, contour_integral
from .specfun import gauss_2f1, kummer_1f1

__all__ = [
    "PolarIndex",
    "bol_operator",
    "cauchy_formula",
    "dz_fd",
    "dzbar_fd",
    "e2_star",
    "f_rn",
    "germ_factor",
    "kernel_K",
    "kernel_restriction",
    "laplacian_r",
    "polar_eval",
    "polar_expansion_partial",
    "polar_shadow",
    "q_lift",
    "resolvent_Q",
    "shadow",
]

Func = Callable[[complex], complex]

# Hypergeometric arguments above this are refused rather than continued.
ARG_CAP = 0.95


# ---------------------------------------------------------------------------
# Finite differences


_FD_STEP = 1e-4  # step h of the order-2 central differences


def _check_interior(z: complex) -> None:
    if z.imag - _FD_STEP <= 0:
        raise DomainError("stencil leaves the upper half-plane")


def _grad(F: Func, z: complex) -> Tuple[complex, complex]:
    # (d_x F, d_y F) by central differences
    h = _FD_STEP
    fx = (F(z + h) - F(z - h)) / (2.0 * h)
    fy = (F(z + 1j * h) - F(z - 1j * h)) / (2.0 * h)
    return fx, fy


def dz_fd(F: Func, z: complex) -> complex:
    """d_z F = (d_x - i d_y)/2 by central differences."""
    _check_interior(z)
    fx, fy = _grad(F, z)
    return 0.5 * (fx - 1j * fy)


def dzbar_fd(F: Func, z: complex) -> complex:
    """d_zbar F = (d_x + i d_y)/2 by central differences."""
    _check_interior(z)
    fx, fy = _grad(F, z)
    return 0.5 * (fx + 1j * fy)


def laplacian_r(F: Func, r: complex, z: complex) -> complex:
    """Delta_r F = -4y^2 d_z d_zbar F + 2iry d_zbar F at z, by central differences.

    4 d_z d_zbar is the Euclidean Laplacian, evaluated with the classical
    5-point stencil.
    """
    _check_interior(z)
    h = _FD_STEP
    try:
        f0 = F(z)
        lap = (F(z + h) + F(z - h) + F(z + 1j * h) + F(z - 1j * h) - 4.0 * f0) / (h * h)
        dzbar = dzbar_fd(F, z)
    except OverflowError as exc:
        raise RefusalError(f"Delta_r F at r={complex(r)}, z={z} overflows ({exc})") from exc
    y = z.imag
    return -y * y * lap + 2j * complex(r) * y * dzbar


def shadow(F: Func, r: complex, z: complex) -> complex:
    """Shadow operator xi_r F = 2i y^{conj r} conj(d_zbar F).

    Annihilates holomorphic functions; on r-harmonic functions the output is
    holomorphic, which is how r-harmonicity is detected from the lowering side.
    """
    _check_interior(z)
    rb = complex(r).conjugate()
    val = dzbar_fd(F, z)
    return 2j * cmath.exp(rb * math.log(z.imag)) * val.conjugate()


# ---------------------------------------------------------------------------
# Polar families in the disk coordinate w = (z-i)/(z+i)


@dataclass(frozen=True)
class PolarIndex:
    """Weight r and angular index mu of a polar r-harmonic function."""

    r: complex
    mu: int

    def __post_init__(self):
        if not isinstance(self.mu, int):
            raise DomainError("polar index mu must be an integer")


def _integer_weight(r: complex):
    # r as an integer >= 2, or None
    rr = complex(r)
    n = round(rr.real)
    if n >= 2 and abs(rr - n) <= 1e-9:
        return n
    return None


def _require_upper(z: complex) -> None:
    if complex(z).imag <= 0:
        raise DomainError("point must lie in the upper half-plane")


def germ_factor(r: complex, z: complex) -> complex:
    """f_r(z) = (2i/(z-i)) ((zbar-i)/(zbar-z))^{r-1}, the boundary-germ scale.

    Equals kernel_K(r, z, i).  The power base (zbar-i)/(-2iy) has positive
    real part everywhere on the upper half-plane, so the principal branch is
    the real-analytic choice.
    """
    _require_upper(z)
    z = complex(z)
    if abs(z - 1j) < 1e-13:
        raise PoleError("f_r has its singularity at z = i")
    zb = z.conjugate()
    return 2j / (z - 1j) * ((zb - 1j) / (zb - z)) ** (complex(r) - 1.0)


def _core(r: complex, z: complex) -> complex:
    # f_r(z) * w(z) = (2i/(z+i)) ((zbar-i)/(zbar-z))^{r-1}; finite on all of H
    zb = z.conjugate()
    return 2j / (z + 1j) * ((zb - 1j) / (zb - z)) ** (complex(r) - 1.0)


def _m_hyp(mu: int, r: complex, x: float) -> complex:
    # 2F1(1+mu, 1-r; 2-r; x); terminates after -mu terms when mu <= -1, which
    # is also the holomorphic-in-r evaluation at admissible integer weights
    if mu >= 0:
        return gauss_2f1(1 + mu, 1.0 - r, 2.0 - r, x)
    if x > ARG_CAP:
        raise RefusalError("2F1 argument > 0.95 refused (series accuracy)")
    term = 1.0 + 0j
    acc = term
    for k in range(-mu - 1):
        term *= (1 + mu + k) * (1.0 - r + k) / ((2.0 - r + k) * (k + 1)) * x
        acc += term
    return acc


def polar_eval(idx: PolarIndex, kind: str, z: complex) -> complex:
    """Evaluate the polar r-harmonic functions P, M, H at z.

    With w = (z-i)/(z+i) and x = 4y/|z+i|^2 = 1 - |w|^2:

        P = (2i/(z+i))^r w^mu                          (holomorphic part)
        M = f_r w^{mu+1} 2F1(1+mu, 1-r; 2-r; x)        (singular at i, mu <= -1)
        H = f_r w conj(w)^{-mu} 2F1(1-mu-r, 1; 1-mu; |w|^2)   (mu <= -1)

    M at integer r >= 2 requires 1-r <= mu <= -1, where the 2F1 terminates;
    H requires mu <= -1.  Hypergeometric arguments above 0.95 (points too
    close to i for M, too close to the boundary for H) are refused.
    """
    _require_upper(z)
    z = complex(z)
    r, mu = complex(idx.r), idx.mu
    w = (z - 1j) / (z + 1j)
    if kind == "P":
        if mu < 0 and abs(w) < 1e-13:
            raise PoleError("P_{r,mu} with mu < 0 has a pole at z = i")
        # 2i/(z+i) has positive real part on H: principal branch
        return (2j / (z + 1j)) ** r * w ** mu
    if kind == "M":
        n = _integer_weight(r)
        if n is not None and not (1 - n <= mu <= -1):
            raise PoleError("M_{r,mu} at integer r >= 2 needs 1-r <= mu <= -1")
        x = 1.0 - abs(w) ** 2
        if x > ARG_CAP:
            raise RefusalError("point too close to i for the M series")
        return _core(r, z) * w ** mu * _m_hyp(mu, r, x)
    if kind == "H":
        if mu > -1:
            raise DomainError("H_{r,mu} is defined for mu <= -1 only")
        x = abs(w) ** 2
        zb = z.conjugate()
        hyp = gauss_2f1(1.0 - mu - r, 1.0, 1.0 - mu, x)  # caps x at 0.95
        return _core(r, z) * ((zb + 1j) / (zb - 1j)) ** (-mu) * hyp
    raise DomainError("kind must be one of P, M, H")


def polar_shadow(idx: PolarIndex, kind: str, z: complex) -> complex:
    """Closed-form shadows of the polar functions.

    xi_r P = 0;  xi_r M = (conj(r)-1) G;  xi_r H = -mu G, where
    G(z) = (2i/(z+i))^{2-conj r} ((z-i)/(z+i))^{-mu-1}.
    """
    _require_upper(z)
    z = complex(z)
    r, mu = complex(idx.r), idx.mu
    if kind == "P":
        return 0j
    w = (z - 1j) / (z + 1j)
    if mu + 1 < 0 and abs(w) < 1e-13:
        raise PoleError("shadow has a pole at z = i")
    G = (2j / (z + 1j)) ** (2.0 - r.conjugate()) * w ** (-mu - 1)
    if kind == "M":
        return (r.conjugate() - 1.0) * G
    if kind == "H":
        return -mu * G
    raise DomainError("kind must be one of P, M, H")


# ---------------------------------------------------------------------------
# Kernel function and resolvent


def kernel_K(r: complex, z: complex, tau: complex) -> complex:
    """K_r(z; tau) = (2i/(z-tau)) ((zbar-tau)/(zbar-z))^{r-1}.

    The power base i(zbar-tau)/(2y) has real part (y + Im tau)/(2y) > 0 for
    z, tau in the upper half-plane, so the principal branch is real-analytic
    on H x H minus the diagonal.  Generalises the Cauchy kernel: K_2 is
    2i/(z-tau) up to the conjugate-linear factor.
    """
    _require_upper(z)
    _require_upper(tau)
    z, tau = complex(z), complex(tau)
    if abs(z - tau) <= 1e-13 * max(1.0, abs(z)):
        raise PoleError("kernel pole at z = tau")
    zb = z.conjugate()
    try:
        return 2j / (z - tau) * ((zb - tau) / (zb - z)) ** (complex(r) - 1.0)
    except OverflowError as exc:
        raise RefusalError(f"K_r(z; tau) at r={complex(r)}, z={z} overflows ({exc})") from exc


def kernel_restriction(r: complex, tau: complex, t: float) -> complex:
    """Boundary germ restriction of K_r(.; tau): ((tau-t)/(i-t))^{r-2} at real t.

    This is the limit of K_r(z; tau)/f_r(z) as z -> t along the vertical, on
    the principal branch (the base stays off the negative real axis for tau
    in the upper half-plane).
    """
    _require_upper(tau)
    t = float(t)
    base = (complex(tau) - t) / (1j - t)
    return base ** (complex(r) - 2.0)


def resolvent_Q(r: complex, z1: complex, z2: complex) -> complex:
    """Free-space resolvent Q_r(z1, z2) = M_{r,0}((z2 - Re z1)/Im z1).

    Point-pair invariant: annihilated by Delta_r in z2 and by the conjugate
    equation (with +r zeroth term) in z1.  Undefined at integer r >= 2,
    where M_{r,0} degenerates.
    """
    _require_upper(z1)
    _require_upper(z2)
    z1, z2 = complex(z1), complex(z2)
    u = (z2 - z1.real) / z1.imag
    if abs(u - 1j) <= 1e-13:
        raise PoleError("resolvent pole at z2 = z1")
    return polar_eval(PolarIndex(r, 0), "M", u)


def _m0_and_slope(r: complex, x: float) -> Tuple[complex, complex]:
    # H = 2F1(1, b; b+1; x), b = 1-r, and dH/dx from the same series: since
    # c = b+1, H = b sum x^n/(b+n) and x H' = b (1/(1-x) - H) (DLMF 15.5).
    # H' carries H's rounding times |b|/x, which grows as x -> 0
    H = _m_hyp(0, r, x)
    return H, (1.0 - r) * (1.0 / (1.0 - x) - H) / x


def _resolvent_dzbar(r: complex, z1: complex, z2: complex) -> Tuple[complex, complex]:
    # Q_r(z1, z2) and d_{zbar1} Q_r(z1, z2) in closed form.  With
    # u = (z2 - Re z1)/Im z1, Q = M_{r,0}(u) = C(u) H(x), C = _core(r, u),
    # x = 1 - |w|^2; the product rule in u and ubar, then the chain rule
    u = (z2 - z1.real) / z1.imag
    w = (u - 1j) / (u + 1j)
    x = 1.0 - abs(w) ** 2
    if x > ARG_CAP:
        raise RefusalError("point too close to i for the M series")
    C = _core(r, u)
    H, dH = _m0_and_slope(r, x)
    ub = u.conjugate()
    C_u = C * (-1.0 / (u + 1j) + (r - 1.0) / (ub - u))
    C_ub = C * (r - 1.0) * (1.0 / (ub - 1j) - 1.0 / (ub - u))
    x_u = -2j / (u + 1j) ** 2 * (ub + 1j) / (ub - 1j)
    x_ub = w * 2j / (ub - 1j) ** 2
    M_u = C_u * H + C * dH * x_u
    M_ub = C_ub * H + C * dH * x_ub
    # du/dzbar1 = -(1 + iu)/(2 Im z1), and likewise for ubar
    dzbar = -(M_u * (1.0 + 1j * u) + M_ub * (1.0 + 1j * ub)) / (2.0 * z1.imag)
    return C * H, dzbar


def cauchy_formula(F: Func, r: complex, zprime: complex, circle: ContourSpec,
                   tol: float = 1e-9) -> complex:
    """Integrate the Green's form [F, Q_r(., z')]_r over a circle.

    The form is A dz + B dzbar with A = (d_z F + r/(z-zbar) F) Q and
    B = F d_zbar Q; it is closed when F is r-harmonic, because Q satisfies
    the companion equation in its first slot.  For r-harmonic F the result
    is 2 pi i (1-r) F(z') when z' is enclosed and 0 when z' lies outside.
    Integer r >= 1 is excluded (the resolvent degenerates), and z' too close
    to the contour is refused, as is an unconverged integral whose error
    estimate exceeds max(1, |value|): it has no significant digit.
    """
    if circle.kind != "circle":
        raise DomainError("cauchy_formula integrates over circles only")
    r = complex(r)
    n = round(r.real)
    if n >= 1 and abs(r - n) <= 1e-9:
        raise PoleError("integer weight r >= 1: resolvent degenerates")
    center, rho = circle.endpoints
    center = complex(center)
    zprime = complex(zprime)
    _require_upper(zprime)
    if center.imag - rho <= _FD_STEP:
        raise DomainError("circle must stay inside the upper half-plane")
    if abs(abs(zprime - center) - rho) <= 1e-3:
        raise RefusalError("z' too close to the contour")

    def integrand(u: complex) -> complex:
        Q, dQ = _resolvent_dzbar(r, u, zprime)
        f = F(u)
        A = (dz_fd(F, u) + r / (u - u.conjugate()) * f) * Q
        # on the circle, dzbar = -rho^2/(u-center)^2 dz
        return A - f * dQ * rho * rho / (u - center) ** 2

    try:
        res = contour_integral(integrand, circle, tol=tol)
    except OverflowError as exc:
        raise RefusalError(f"Green's form at r={r}, z'={zprime} overflows ({exc})") from exc
    if not res.converged and res.error > max(1.0, abs(res.value)):
        raise RefusalError(f"circle integral has no significant digit (value "
                           f"{abs(res.value):.3g}, error estimate {res.error:.3g})")
    return res.value


# ---------------------------------------------------------------------------
# Holomorphic lift of the kernel integral


def q_lift(F: FormEvaluator, z0: complex, t: complex, tol: float = 1e-9) -> complex:
    """Integral of (z-t)^{r-2} F(z) dz from z0 to conj(t), for t below the axis.

    Its coboundary in gamma reproduces the form's cocycle, and the reflected
    conjugate z -> conj(q_lift(F, z0, conj(z))) has shadow
    2^{r-1} e^{i pi (r-1)/2} F(z).  The branch of (z-t)^{r-2} takes
    arg(z-t) in [-pi/2, 3pi/2).
    """
    t = complex(t)
    if t.imag >= 0:
        raise DomainError("t must lie in the lower half-plane")
    tb = t.conjugate()
    z0 = complex(z0)
    if abs(z0 - tb) <= 1e-14 * max(1.0, abs(z0)):
        return 0j
    r = complex(F.weight)
    f = lambda z: power_branch(z - t, r - 2.0, ARG_CUT_DOWN) * F(z)
    return complex(contour_integral(f, ContourSpec.geodesic(z0, tb), tol=tol))


# ---------------------------------------------------------------------------
# Concrete harmonic families


def e2_star(z: complex) -> complex:
    """E2*(z) = E2(z) - 3/(pi y): the weight-2 invariant completion of E2.

    2-harmonic with constant shadow 3/pi.
    """
    z = complex(z)
    _require_upper(z)
    return _e2_eval(z) - 3.0 / (math.pi * z.imag)


def f_rn(r: complex, n: complex, z: complex) -> complex:
    """F_{r,n}(z) = e^{2 pi i n z} y^{1-r} 1F1(1-r; 2-r; 4 pi n y).

    r-harmonic lift of the exponential: n = 0 gives y^{1-r}, and r = 1
    collapses to e^{2 pi i n z}.  Integer r >= 2 is excluded (the 1F1
    parameter 2-r degenerates); |4 pi n y| > 30 is refused by kummer_1f1.
    """
    z = complex(z)
    _require_upper(z)
    r = complex(r)
    if _integer_weight(r) is not None:
        raise PoleError("F_{r,n} degenerates at integer r >= 2")
    x = 4.0 * math.pi * complex(n) * z.imag
    y = z.imag
    return cmath.exp(2j * math.pi * complex(n) * z) * cmath.exp((1.0 - r) * math.log(y)) \
        * kummer_1f1(1.0 - r, 2.0 - r, x)


# ---------------------------------------------------------------------------
# Polar expansion of the kernel


def _p_extra(r_int: int, z: complex, tau: complex) -> complex:
    # holomorphic remainder p_r(z;tau) = (2i/(z-tau)) ((tau-i)/(z-i))^{r-1}
    return 2j / (z - tau) * ((tau - 1j) / (z - 1j)) ** (r_int - 1)


def polar_expansion_partial(r: complex, z: complex, tau: complex, terms: int = 40) -> complex:
    """Truncated polar expansion of K_r(z; tau).

    Regime |w(z)| > |w(tau)| expands in M_{r,mu}(z) with P_{2-r,-mu-1}(tau)
    coefficients (a finite sum plus the holomorphic piece p_r for integer
    r >= 2); regime |w(z)| < |w(tau)| expands in H and P.  Truncation error
    decays geometrically with ratio min(|w|)/max(|w|); equal moduli lie on
    the common boundary of validity and are rejected.
    """
    _require_upper(z)
    _require_upper(tau)
    z, tau = complex(z), complex(tau)
    r = complex(r)
    if terms < 1:
        raise DomainError("need at least one term")
    wz = abs((z - 1j) / (z + 1j))
    wt = abs((tau - 1j) / (tau + 1j))
    if abs(wz - wt) <= 1e-12:
        raise DomainError("|w(z)| = |w(tau)|: point pair on the expansion boundary")

    try:
        if wz > wt:
            n = _integer_weight(r)
            if n is not None:
                # finite expansion: mu runs over 1-r .. -1
                acc = _p_extra(n, z, tau)
                for nu in range(n - 1):
                    coef = (-1) ** nu * math.comb(n - 2, nu)
                    acc += coef * polar_eval(PolarIndex(2.0 - r, nu), "P", tau) \
                        * polar_eval(PolarIndex(r, -nu - 1), "M", z)
                return acc
            acc = 0j
            coef = 1.0 + 0j  # (2-r)_nu / nu!, as a running product
            for nu in range(terms):
                acc += coef * polar_eval(PolarIndex(2.0 - r, nu), "P", tau) \
                    * polar_eval(PolarIndex(r, -nu - 1), "M", z)
                coef *= (2.0 - r + nu) / (nu + 1)
            return acc

        acc = 0j
        coef = 1.0 + 0j  # (1-r)_nu / nu!, as a running product
        for nu in range(1, terms + 1):
            coef *= (nu - r) / nu
            acc -= coef * polar_eval(PolarIndex(2.0 - r, nu - 1), "P", tau) \
                * polar_eval(PolarIndex(r, -nu), "H", z)
        for mu in range(terms):
            acc -= polar_eval(PolarIndex(2.0 - r, -mu - 1), "P", tau) \
                * polar_eval(PolarIndex(r, mu), "P", z)
        return acc
    except OverflowError as exc:
        raise RefusalError(f"polar expansion at r={r}, terms={terms}: a coefficient "
                           f"overflows ({exc})") from exc


# ---------------------------------------------------------------------------
# Bol's identity


def bol_operator(terms, r: int, g: GroupElement, z: complex) -> Tuple[complex, complex]:
    """Both sides of Bol's identity d_z^{r-1}(F|_{2-r} g) = (d_z^{r-1} F)|_r g.

    F is an entire Fourier series sum c_n e^{2 pi i n z} given as (n, c)
    pairs.  The left side differentiates (cz+d)^{r-2} e^{2 pi i n gz}
    exactly via the coefficient recurrence over powers of (cz+d), so the
    comparison is free of finite-difference error.
    """
    n_wt = _integer_weight(r)
    if n_wt is None or abs(complex(r) - n_wt) > 1e-12:
        raise DomainError("Bol's operator needs integer weight r >= 2")
    pairs = [(complex(n), complex(c)) for n, c in terms]
    z = complex(z)
    den = g.cd(z)
    if abs(den) < 1e-13:
        raise PoleError("cz + d vanishes at z")
    gz = g.apply(z)
    c_low = complex(g.c)

    lhs = 0j
    rhs = 0j
    for nn, cc in pairs:
        # d/dz [ sum_m a_m (cz+d)^{r-2-m} e^{2 pi i n gz} ] adds c(r-2-m) at
        # m+1 and 2 pi i n at m+2 (since d(gz)/dz = (cz+d)^{-2})
        coefs = {0: cc}
        for _ in range(n_wt - 1):
            nxt = {}
            for m, am in coefs.items():
                if c_low != 0:
                    nxt[m + 1] = nxt.get(m + 1, 0j) + am * (n_wt - 2 - m) * c_low
                nxt[m + 2] = nxt.get(m + 2, 0j) + am * 2j * math.pi * nn
            coefs = nxt
        phase = cmath.exp(2j * math.pi * nn * gz)
        lhs += sum(am * den ** (n_wt - 2 - m) for m, am in coefs.items()) * phase
        rhs += cc * (2j * math.pi * nn) ** (n_wt - 1) * phase
    rhs *= den ** (-n_wt)
    return lhs, rhs
