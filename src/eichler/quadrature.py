"""Adaptive contour integration over hyperbolic paths.

Every integral in the package runs through :func:`contour_integral`:
geodesics between points of the closed upper half plane (cusps included),
vertical rays to i*infinity, circles, and straight polylines.  Paths are
parametrized smoothly, cusp ends are truncated using the caller's decay
hint, and panels are 15-point Gauss-Legendre with bisection on
disagreement.

The engine does not know about branch cuts: callers pick paths that avoid
the cuts of their integrands.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

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

    kind is one of geodesic | vertical-ray | circle | polyline; endpoints
    hold kind-specific data (use the constructors).  decay is the
    exponential-decay-rate hint required when an endpoint is a cusp.
    """

    kind: str
    endpoints: tuple
    decay: Optional[float] = None

    @staticmethod
    def geodesic(z1, z2, decay: Optional[float] = None) -> "ContourSpec":
        return ContourSpec("geodesic", (z1, z2), decay)

    @staticmethod
    def vertical_ray(start: complex, decay: Optional[float] = None) -> "ContourSpec":
        # from an interior point straight up to i*infinity
        return ContourSpec("vertical-ray", (start, INF), decay)

    @staticmethod
    def circle(center: complex, radius: float) -> "ContourSpec":
        # full counterclockwise circle
        return ContourSpec("circle", (center, float(radius)))

    @staticmethod
    def polyline(*points: complex) -> "ContourSpec":
        return ContourSpec("polyline", tuple(points))


@dataclass(frozen=True)
class QuadResult:
    value: complex
    error: float
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


def _segments(path: ContourSpec):
    # reduce every kind to a list of (F, a, b, open_left, open_right)
    if path.kind == "circle":
        center, radius = complex(path.endpoints[0]), float(path.endpoints[1])

        def make(f):
            def F(th: float) -> complex:
                z = center + radius * cmath.exp(1j * th)
                return f(z) * (1j * radius * cmath.exp(1j * th))
            return F

        return [(make, 0.0, 2.0 * math.pi, False, False)]
    if path.kind == "polyline":
        pts = [complex(p) for p in path.endpoints]
        if len(pts) < 2:
            raise DomainError("polyline needs at least two points")
        segs = []
        for p, q in zip(pts, pts[1:]):
            def make(f, p=p, q=q):
                def F(t: float) -> complex:
                    return f(p + t * (q - p)) * (q - p)
                return F
            segs.append((make, 0.0, 1.0, False, False))
        return segs
    if path.kind in ("geodesic", "vertical-ray"):
        z1, z2 = path.endpoints
        geo = _GeodesicPath(z1, z2)

        def make(f, geo=geo):
            def F(u: float) -> complex:
                z, dz = geo(u)
                return f(z) * dz
            return F

        return [(make, geo.u1, geo.u2, not math.isfinite(geo.u1), not math.isfinite(geo.u2))]
    raise DomainError(f"unknown path kind: {path.kind}")


def contour_integral(f: Callable[[complex], complex], path: ContourSpec,
                     tol: float = 1e-10) -> QuadResult:
    """Integrate f dz along the path; tol is relative to max(1, |value|).

    Cusp ends need the path's exponential decay hint; without one the
    integral is refused as (potentially) divergent.  The returned error is
    an absolute estimate from panel disagreements plus truncated tails;
    converged reports whether it met tol.  A call that needs more than
    5000 Gauss panels is refused with RefusalError.
    """
    segs = _segments(path)
    has_cusp_end = any(ol or orr for _, _, _, ol, orr in segs)
    if has_cusp_end and path.decay is None:
        raise DomainError("cusp endpoint without a decay hint")
    pieces = []
    for make, a, b, open_l, open_r in segs:
        F = make(f)
        # probe a magnitude scale on the finite core of the segment
        if open_l and open_r:
            core = (-2.0, 2.0)
        elif open_l:
            core = (b - 4.0, b)
        elif open_r:
            core = (a, a + 4.0)
        else:
            core = (a, b)
        scale = max(abs(F(core[0] + (core[1] - core[0]) * k / 8.0)) for k in range(9))
        thr = tol * 1e-2 * max(scale, 1e-300)
        tail_est = 0.0
        if open_l:
            a = _truncate_end(F, core[0], -1.0, path.decay, thr)
            tail_est += abs(F(a))
        if open_r:
            b = _truncate_end(F, core[1], 1.0, path.decay, thr)
            tail_est += abs(F(b))
        pieces.append((F, a, b, scale, tail_est))
    # distribute the tolerance by panel length
    total_len = sum(b - a for _, a, b, _, _ in pieces)
    global_scale = max(s for _, _, _, s, _ in pieces)
    target = tol * max(global_scale, 1e-300) * max(total_len, 1.0)
    value = 0j
    err = 0.0
    absacc = 0.0
    ok = True
    panels = _Panels(path.kind)
    for F, a, b, _, tail in pieces:
        # initial panels no longer than 3 in the parameter
        n = max(1, int(math.ceil((b - a) / 3.0)))
        for j in range(n):
            pa = a + (b - a) * j / n
            pb = a + (b - a) * (j + 1) / n
            v, e, good = _adapt(F, pa, pb, panels.gl15(F, pa, pb),
                                target * (pb - pa) / max(total_len, 1.0), 0, panels)
            value += v
            err += e
            absacc += abs(v)
            ok = ok and good
        err += tail
    # rounding floor: panel sums cannot be trusted past a few ulps
    err += 5e-16 * absacc
    converged = ok and err <= tol * max(1.0, abs(value))
    return QuadResult(value=complex(value), error=float(err), converged=bool(converged))
