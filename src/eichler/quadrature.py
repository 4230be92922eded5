"""Contour integration over hyperbolic paths.

Every integral in the package runs through :func:`contour_integral`:
geodesics between points of the closed upper half plane (cusps included,
so a vertical ray is the geodesic to INF) and circles.  Paths are
parametrized smoothly by hyperbolic arc length u.  Each path kind takes one
of two rules:

* a geodesic whose two endpoints are cusps: the trapezoid rule in u, which
  converges exponentially because a cusp form decays like exp(-c e^{|u|})
  at both ends (Trefethen & Weideman, SIAM Rev. 56, 2014); the step is
  halved, every node reused, until two levels agree;
* finite arcs, rays with one cusp end and circles: 15-point Gauss-Legendre
  panels with bisection on disagreement, cusp ends truncated using the
  caller's decay hint.

The engine does not know about branch cuts: callers pick paths that avoid
the cuts of their integrands.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, RefusalError

__all__ = ["ContourSpec", "QuadResult", "contour_integral"]

INF = float("inf")


def _is_inf(p) -> bool:
    return not isinstance(p, complex) and p == INF or (
        isinstance(p, complex) and (math.isinf(p.real) or math.isinf(p.imag)))


@dataclass(frozen=True)
class ContourSpec:
    """A path in the closed upper half plane.

    kind is geodesic or circle; endpoints hold kind-specific data (use the
    constructors).  decay is the exponential-decay-rate hint required when
    an endpoint is a cusp; a vertical ray is geodesic(z, INF, decay).
    """

    kind: str
    endpoints: tuple
    decay: Optional[float] = None

    @staticmethod
    def geodesic(z1, z2, decay: Optional[float] = None) -> "ContourSpec":
        return ContourSpec("geodesic", (z1, z2), decay)

    @staticmethod
    def circle(center: complex, radius: float) -> "ContourSpec":
        # full counterclockwise circle
        return ContourSpec("circle", (center, float(radius)))


@dataclass(frozen=True)
class QuadResult:
    """An integral with its absolute error estimate.

    value and error are arrays, one entry per component, when the integrand
    returns a 1-D array.
    """

    value: Union[complex, np.ndarray]
    error: Union[float, np.ndarray]
    converged: bool

    def __complex__(self) -> complex:
        return self.value


# ---------------------------------------------------------------------------
# geodesic parametrization


def _geodesic_frame(z1, z2):
    # classify the geodesic through z1, z2: vertical line or semicircle
    inf1, inf2 = _is_inf(z1), _is_inf(z2)
    if inf1 and inf2:
        raise DomainError("degenerate geodesic: both endpoints infinite")
    if inf1 or inf2:
        other = complex(z2 if inf1 else z1)
        return "vertical", other.real
    w1, w2 = complex(z1), complex(z2)
    if w1 == w2:
        raise DomainError("degenerate geodesic: equal endpoints")
    if abs(w1.real - w2.real) < 1e-14 * max(1.0, abs(w1), abs(w2)):
        return "vertical", w1.real
    c = (abs(w2) ** 2 - abs(w1) ** 2) / (2.0 * (w2.real - w1.real))
    rho = abs(w1 - c)
    return "arc", (c, rho)


def _vertical_coord(p, x: float) -> float:
    # parameter w with point = x + i e^w; cusps sit at w = +/- inf
    if _is_inf(p):
        return INF
    p = complex(p)
    if p.imag <= 0:
        return -INF
    return math.log(p.imag)


def _arc_coord(p, c: float, rho: float) -> float:
    # parameter w with point = c + rho (tanh w + i sech w)
    p = complex(p)
    if p.imag <= 0:
        return -INF if p.real < c else INF
    x = (p.real - c) / rho
    x = min(1.0, max(-1.0, x))
    return math.atanh(x)


class _GeodesicPath:
    """Unit-hyperbolic-speed parametrization u -> (z, dz/du) from z1 to z2.

    Anchor convention: u = 0 at z1 when z1 is interior, else at z2 when z2
    is interior, else at the apex/height-1 point of the geodesic.
    """

    def __init__(self, z1, z2):
        shape, data = _geodesic_frame(z1, z2)
        self.shape = shape
        self.data = data
        if shape == "vertical":
            w1 = _vertical_coord(z1, data)
            w2 = _vertical_coord(z2, data)
        else:
            w1 = _arc_coord(z1, *data)
            w2 = _arc_coord(z2, *data)
        if w1 == w2:
            raise DomainError("degenerate geodesic: equal endpoints")
        self.sign = 1.0 if w2 > w1 else -1.0
        if math.isfinite(w1):
            self.shift = w1
        elif math.isfinite(w2):
            self.shift = w2
        else:
            self.shift = 0.0
        # u-range endpoints (infinite when the endpoint is a cusp); for two
        # interior points u2 - u1 is the hyperbolic distance
        self.u1 = (w1 - self.shift) * self.sign
        self.u2 = (w2 - self.shift) * self.sign

    def __call__(self, u: float) -> Tuple[complex, complex]:
        w = self.sign * u + self.shift
        if self.shape == "vertical":
            x = self.data
            y = math.exp(w)
            return complex(x, y), complex(0.0, y * self.sign)
        c, rho = self.data
        sech = 1.0 / math.cosh(w)
        tanh = math.tanh(w)
        z = complex(c + rho * tanh, rho * sech)
        dz = rho * sech * complex(sech, -tanh) * self.sign
        return z, dz


# ---------------------------------------------------------------------------
# adaptive Gauss-Legendre

_GL_N, _GL_W = leggauss(15)
_MAX_DEPTH = 26
# Gauss panels one contour_integral call may evaluate before it is refused;
# _MAX_DEPTH alone lets a non-converging integrand bisect for minutes
_MAX_PANELS = 5000


class _Panels:
    # counts one call's Gauss panels and refuses past _MAX_PANELS
    def __init__(self, kind: str):
        self.kind = kind
        self.used = 0

    def gl15(self, F: Callable[[float], complex], a: float, b: float) -> complex:
        self.used += 1
        if self.used > _MAX_PANELS:
            raise RefusalError(f"{self.kind} integral refused after {_MAX_PANELS} "
                               "Gauss panels without converging")
        return _gl15(F, a, b)


def _gl15(F: Callable[[float], complex], a: float, b: float) -> complex:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    tot = 0j
    for x, w in zip(_GL_N, _GL_W):
        tot += w * F(mid + half * x)
    return tot * half


def _adapt(F, a: float, b: float, whole: complex, target: float, depth: int,
           panels: _Panels):
    # whole is the panel's Gauss sum, already computed by the caller
    m = 0.5 * (a + b)
    left, right = panels.gl15(F, a, m), panels.gl15(F, m, b)
    fine = left + right
    err = abs(whole - fine)
    if err <= target or (b - a) < 1e-13 * max(1.0, abs(a), abs(b)):
        return fine, err, True
    if depth >= _MAX_DEPTH:
        return fine, err, False
    v1, e1, ok1 = _adapt(F, a, m, left, 0.5 * target, depth + 1, panels)
    v2, e2, ok2 = _adapt(F, m, b, right, 0.5 * target, depth + 1, panels)
    return v1 + v2, e1 + e2, ok1 and ok2


def _safe_abs(F, u: float) -> float:
    try:
        m = abs(F(u))
    except OverflowError:
        return INF
    return m if math.isfinite(m) else INF


def _truncate_end(F, u0: float, direction: float, rate: float, thr: float) -> float:
    # march toward the cusp until |F| stays below thr; the decay hint sets
    # the stride so slowly-decaying integrands are not cut off early
    step = max(0.5, 2.0 / max(rate, 0.05))
    first = None
    below = 0
    u = u0
    for k in range(1, 500):
        u = u0 + direction * step * k
        m = _safe_abs(F, u)
        if not math.isfinite(m):
            break
        if first is None:
            first = m
        if m <= thr:
            below += 1
            if below >= 2:
                return u
        else:
            below = 0
            if k > 60 and m > 10.0 * max(first, 1e-300):
                break
    raise DomainError("integrand does not decay toward the cusp end")


# ---------------------------------------------------------------------------
# trapezoid rule in arc length, between two cusps

_EPS = 2.0 ** -52
# nodes one cusp-to-cusp integral may evaluate before it is refused
_MAX_NODES = 8192
# the first level gives up on an end that has not decayed this far from u = 0
_U_MAX = 64.0


def _march(F, direction: float, h: float, u_min: float, mass):
    # first-level terms F(k h direction), k = 1, 2, ..., until two in a row
    # fall below eps times the sum of |terms| (mass starts at |F(0)|); the
    # decay hint sets u_min, how far the march goes at least
    vals = []
    below = 0
    k = 0
    while below < 2:
        k += 1
        try:
            fk = F(direction * k * h)
        except OverflowError:
            fk = INF
        m = np.abs(fk)
        if k * h > _U_MAX or not np.all(np.isfinite(m)):
            raise DomainError("integrand does not decay toward the cusp end")
        mass = mass + m
        vals.append(fk)
        below = below + 1 if k * h >= u_min and np.all(m <= _EPS * mass) else 0
    return vals


def _trapezoid(F, decay: float, tol: float):
    # T_h = h sum_k F(k h) on u in (-inf, inf), h halved from 1/2 with every
    # node reused; error |T_h - T_{h/2}| + 8 eps M with the mass M = h sum |F|
    if not decay > 0:
        raise DomainError("a cusp end needs a positive decay hint")
    h = 0.5
    f0 = F(0.0)
    u_min = max(0.0, -math.log(decay))
    left = _march(F, -1.0, h, u_min, np.abs(f0))
    right = _march(F, 1.0, h, u_min, np.abs(f0))
    vals = np.array(left[::-1] + [f0] + right)
    lo = -h * len(left)
    n = len(vals)
    coarse = h * vals.sum(axis=0)
    mass = h * np.abs(vals).sum(axis=0)
    while True:
        # n nodes so far; the next level adds one between each pair
        if 2 * n - 1 > _MAX_NODES:
            raise RefusalError(f"cusp-to-cusp integral refused after {n} nodes "
                               f"without meeting tol={tol:g}")
        mids = np.array([F(lo + (j + 0.5) * h) for j in range(n - 1)])
        n += n - 1
        h *= 0.5
        fine = 0.5 * coarse + h * mids.sum(axis=0)
        mass = 0.5 * mass + h * np.abs(mids).sum(axis=0)
        if not np.all(np.isfinite(fine)):
            raise RefusalError("cusp-to-cusp integral: the integrand is not finite on the path")
        err = np.abs(fine - coarse) + 8.0 * _EPS * mass
        if np.all(err <= tol * np.maximum(np.abs(fine), np.minimum(1.0, mass))):
            return fine, err
        coarse = fine


def _segments(path: ContourSpec):
    # reduce either kind to (make, a, b, open_left, open_right): make(f) is
    # the integrand f(z) dz/du on the parameter interval [a, b]
    if path.kind == "circle":
        center, radius = complex(path.endpoints[0]), float(path.endpoints[1])

        def make(f):
            def F(th: float) -> complex:
                z = center + radius * cmath.exp(1j * th)
                return f(z) * (1j * radius * cmath.exp(1j * th))
            return F

        return make, 0.0, 2.0 * math.pi, False, False
    if path.kind == "geodesic":
        geo = _GeodesicPath(*path.endpoints)

        def make(f):
            def F(u: float) -> complex:
                z, dz = geo(u)
                return f(z) * dz
            return F

        return make, geo.u1, geo.u2, not math.isfinite(geo.u1), not math.isfinite(geo.u2)
    raise DomainError(f"unknown path kind: {path.kind}")


def contour_integral(f: Callable[[complex], complex], path: ContourSpec,
                     tol: float = 1e-10) -> QuadResult:
    """Integrate f dz along the path; the returned error is an absolute estimate.

    Cusp ends need the path's exponential decay hint; without one the
    integral is refused as (potentially) divergent, and so is an integrand
    that does not decay toward a cusp (DomainError).  Each path kind takes
    one rule:

    * A geodesic whose two endpoints are cusps (a vertical line from a real
      x0 to INF, or a semicircle between two real points) is integrated by
      the trapezoid rule in arc length u, from step 1/2 halved with every
      node reused.  The first level marches out from u = 0 until the terms
      fall below eps times the sum of their moduli.  The error is
      |T_h - T_{h/2}| plus 8 eps M, where M = h sum |f dz/du| is the
      integrand's mass, and the finer sum is returned once the error meets
      tol max(|value|, min(1, M)).  That target never exceeds
      tol max(1, |value|); it asks for tol relative to M when the value is
      far below a mass below 1, so a value with no significant digit is
      not passed on.  f may return a 1-D array, one component per
      parameter (t or s), sharing every node: value and error are then
      arrays, and every component must meet its own target.  A call that
      needs more than 8192 nodes is refused with RefusalError, so converged
      is always true on this route.
    * Every other path (finite arcs, rays with one cusp end, circles) is
      integrated by 15-point Gauss-Legendre panels, bisected on
      disagreement; f returns a scalar.  The error adds panel
      disagreements, truncated tails and rounding; converged reports
      whether it met tol max(1, |value|).  A call that needs more than
      5000 Gauss panels is refused with RefusalError.
    """
    make, a, b, open_l, open_r = _segments(path)
    if (open_l or open_r) and path.decay is None:
        raise DomainError("cusp endpoint without a decay hint")
    F = make(f)
    if open_l and open_r:
        value, err = _trapezoid(F, path.decay, tol)
        if np.ndim(value) == 0:
            return QuadResult(complex(value), float(err), True)
        return QuadResult(value, err, True)
    # probe a magnitude scale on the finite core of the path
    if open_l:
        core = (b - 4.0, b)
    elif open_r:
        core = (a, a + 4.0)
    else:
        core = (a, b)
    scale = max(abs(F(core[0] + (core[1] - core[0]) * k / 8.0)) for k in range(9))
    thr = tol * 1e-2 * max(scale, 1e-300)
    tail = 0.0
    if open_l:
        a = _truncate_end(F, core[0], -1.0, path.decay, thr)
        tail += abs(F(a))
    if open_r:
        b = _truncate_end(F, core[1], 1.0, path.decay, thr)
        tail += abs(F(b))
    # distribute the tolerance by panel length
    length = max(b - a, 1.0)
    target = tol * max(scale, 1e-300) * length
    value = 0j
    err = 0.0
    absacc = 0.0
    ok = True
    panels = _Panels(path.kind)
    # initial panels no longer than 3 in the parameter
    n = max(1, int(math.ceil((b - a) / 3.0)))
    for j in range(n):
        pa = a + (b - a) * j / n
        pb = a + (b - a) * (j + 1) / n
        v, e, good = _adapt(F, pa, pb, panels.gl15(F, pa, pb),
                            target * (pb - pa) / length, 0, panels)
        value += v
        err += e
        absacc += abs(v)
        ok = ok and good
    err += tail
    # rounding floor: panel sums cannot be trusted past a few ulps
    err += 5e-16 * absacc
    converged = ok and err <= tol * max(1.0, abs(value))
    return QuadResult(value=complex(value), error=float(err), converged=bool(converged))
