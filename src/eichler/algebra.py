"""Branch-correct complex powers, modular-group matrices, and slash operators.

Argument conventions are the load-bearing part of this module.  Every complex
power w^p taken anywhere in the package goes through :func:`power_branch` with
an explicit half-open argument interval of length 2*pi; in particular the two
half-planes use the two different closures of (-pi, pi):

* ``ARG_UPPER``   : arg in (-pi, pi]   -- automorphy factors cz+d for z in H
* ``ARG_LOWER``   : arg in [-pi, pi)   -- same for z in the lower half-plane
* ``ARG_CUT_DOWN``: arg in [-pi/2, 3pi/2)  -- powers of z-t (cut pointing
  straight down from the base point)
* ``ARG_CUT_UP``  : arg in [-3pi/2, pi/2)  -- powers of z-i (cut pointing up)

Group elements are integer matrices of SL2(Z).  The multiplier system of
eta^{2r} is evaluated in Rademacher's closed form, v(g) = exp(pi i r phi(g))
with an exact rational phase phi built from the Dedekind sum s(d, c)
(Rademacher & Grosswald, Dedekind Sums, 1972; Apostol, GTM 41, Thm 3.4).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Literal, Tuple, Union

import numpy as np

from .errors import DomainError, PoleError, RefusalError

TWO_PI = 2.0 * math.pi

Evaluator = Callable[[complex], complex]

# ---------------------------------------------------------------------------
# branched powers


@dataclass(frozen=True)
class ArgInterval:
    """Half-open argument interval [lo, lo+2pi) or (lo, lo+2pi]."""

    lo: float
    closed: Literal["left", "right"] = "left"

    @property
    def hi(self) -> float:
        return self.lo + TWO_PI

    def arg(self, w: complex) -> float:
        """The unique argument of w lying in this interval."""
        if w == 0:
            raise DomainError("argument of zero is undefined")
        a = cmath.phase(w)  # atan2 range [-pi, pi]; signed zeros matter on the axes
        if self.closed == "left":
            a -= TWO_PI * math.floor((a - self.lo) / TWO_PI)
            if a >= self.hi:
                a -= TWO_PI
        else:
            a -= TWO_PI * math.ceil((a - self.lo - TWO_PI) / TWO_PI)
            if a <= self.lo:
                a += TWO_PI
        return a

    def arg_array(self, w: np.ndarray) -> np.ndarray:
        """Elementwise :meth:`arg` of a complex array, in the same arithmetic."""
        if not np.all(w):
            raise DomainError("argument of zero is undefined")
        a = np.angle(w)
        if self.closed == "left":
            a -= TWO_PI * np.floor((a - self.lo) / TWO_PI)
            return np.where(a >= self.hi, a - TWO_PI, a)
        a -= TWO_PI * np.ceil((a - self.lo - TWO_PI) / TWO_PI)
        return np.where(a <= self.lo, a + TWO_PI, a)


ARG_UPPER = ArgInterval(-math.pi, "right")
ARG_LOWER = ArgInterval(-math.pi, "left")
ARG_CUT_DOWN = ArgInterval(-math.pi / 2.0, "left")
ARG_CUT_UP = ArgInterval(-3.0 * math.pi / 2.0, "left")


def power_branch(base: Union[complex, np.ndarray], exponent: complex,
                 interval: ArgInterval) -> Union[complex, np.ndarray]:
    """base**exponent with arg(base) taken in the given interval.

    A complex ndarray base is raised elementwise and gives an array; any zero
    element raises DomainError.
    """
    if isinstance(base, np.ndarray):
        log_base = np.empty(base.shape, dtype=complex)
        log_base.imag = interval.arg_array(base)  # DomainError on a zero element
        log_base.real = np.log(np.abs(base))
        return np.exp(exponent * log_base)
    if base == 0:
        raise DomainError("power_branch: zero base")
    return cmath.exp(exponent * complex(math.log(abs(base)), interval.arg(base)))


# ---------------------------------------------------------------------------
# group elements


@dataclass(frozen=True)
class GroupElement:
    """An element of SL2(Z): a 2x2 integer matrix of determinant 1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if not all(isinstance(x, int) for x in self.entries()):
            raise DomainError(f"entries {self.entries()} are not all integers")
        det = self.a * self.d - self.b * self.c
        if det != 1:
            raise DomainError(f"determinant {det} != 1")

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inv(self) -> "GroupElement":
        return GroupElement(self.d, -self.b, -self.c, self.a)

    def cd(self, z: complex) -> complex:
        return self.c * z + self.d

    def apply(self, z: complex) -> complex:
        """Moebius action on a finite point."""
        den = self.cd(z)
        if den == 0:
            raise PoleError(f"Moebius map has a pole at z={z}")
        return (self.a * z + self.b) / den

    def apply_cusp(self, x: Union[Fraction, float]) -> Union[Fraction, float]:
        """Moebius action on a cusp (Fraction, or +-inf for the cusp at infinity)."""
        if isinstance(x, float) and math.isinf(x):
            if self.c == 0:
                return math.inf
            return Fraction(self.a, self.c)
        den = self.c * x + self.d
        if den == 0:
            return math.inf
        return Fraction(self.a * x + self.b) / Fraction(den)

    def entries(self) -> Tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


IDENTITY = GroupElement(1, 0, 0, 1)
T = GroupElement(1, 1, 0, 1)
S = GroupElement(0, -1, 1, 0)


# ---------------------------------------------------------------------------
# multiplier systems


@dataclass(frozen=True)
class MultiplierSystem:
    """The weight-r multiplier system of eta^{2r}: v(T) = e^{pi i r/6}, v(S) = e^{-pi i r/2}."""

    weight: complex


def _dedekind_sum(d: int, c: int) -> Fraction:
    """s(d, c) = sum_{k mod c} ((k/c)) ((dk/c)) for c > 0 and gcd(d, c) = 1.

    Reciprocity s(h, k) + s(k, h) = (h/k + k/h + 1/(hk))/12 - 1/4 and
    s(h, k) = s(h mod k, k) reduce (d, c) like Euclid's algorithm.
    """
    total = Fraction(0)
    sign = 1
    h, k = d % c, c
    while h:
        total += sign * (Fraction(h * h + k * k + 1, 12 * h * k) - Fraction(1, 4))
        sign = -sign
        h, k = k % h, h
    return total


def multiplier_eval(ms: MultiplierSystem, g: GroupElement) -> complex:
    """v(g) with eta^{2r}(gz) = v(g) (cz+d)^r eta^{2r}(z), arg(cz+d) in (-pi, pi].

    Rademacher's closed form: v(g) = exp(pi i r phi) with the exact rational
    phase phi = (a+d)/(6c) - 2 s(d, c) - 1/2 for c > 0, s the Dedekind sum;
    phi(g) = phi(-g) + 1 for c < 0; phi = b/6 for c = 0, d = 1 and
    -(b/6 + 1) for c = 0, d = -1 (Rademacher & Grosswald, Dedekind Sums,
    1972; Apostol, Modular Functions and Dirichlet Series, Thm 3.4).
    The exponent pi r phi carries a rounding error of an ulp of its modulus;
    where that exceeds sqrt(eps) the phase means nothing and v(g) is refused
    with RefusalError, the rule of eta_power_eval.
    """
    a, b, c, d = g.entries()
    if c == 0:
        phase = Fraction(b, 6) if d == 1 else -Fraction(b, 6) - 1
    else:
        turn = 0
        if c < 0:
            a, c, d, turn = -a, -c, -d, 1
        phase = Fraction(a + d, 6 * c) - 2 * _dedekind_sum(d, c) - Fraction(1, 2) + turn
    try:
        e = 1j * math.pi * ms.weight * float(phase)
        if abs(e) > 2.0 ** 26:  # eps * |e| > sqrt(eps)
            raise RefusalError(f"multiplier v(g) for g={g.entries()} at r={complex(ms.weight)}: "
                               f"rounding of the exponent of modulus {abs(e):.3g} swamps the phase")
        return cmath.exp(e)
    except (OverflowError, ValueError):
        raise RefusalError(f"multiplier v(g) for g={g.entries()} overflows at "
                           f"r={complex(ms.weight)}") from None


# ---------------------------------------------------------------------------
# slash operators


def _check_halfplane(z: complex, halfplane: str) -> ArgInterval:
    if z.imag == 0:
        raise DomainError("slash is undefined on the real line")
    if halfplane == "upper":
        if z.imag < 0:
            raise DomainError("z is not in the upper half-plane")
        return ARG_UPPER
    if halfplane == "lower":
        if z.imag > 0:
            raise DomainError("z is not in the lower half-plane")
        return ARG_LOWER
    raise DomainError(f"unknown half-plane {halfplane!r}")


def slash(
    f: Evaluator,
    r: complex,
    g: GroupElement,
    z: complex,
    halfplane: Literal["upper", "lower"] = "upper",
) -> complex:
    """(f|_r g)(z) = (cz+d)^{-r} f(gz)."""
    interval = _check_halfplane(z, halfplane)
    den = g.cd(z)
    if den == 0:
        raise PoleError("cz + d = 0")
    return power_branch(den, -r, interval) * f(g.apply(z))


def slash_multiplier(
    f: Evaluator,
    ms: MultiplierSystem,
    p: complex,
    g: GroupElement,
    z: complex,
    halfplane: Literal["upper", "lower"] = "upper",
) -> complex:
    """(f|_{v,p} g)(z) = v(g)^{-1} (cz+d)^{-p} f(gz); p need not equal the weight of v."""
    return slash(f, p, g, z, halfplane) / multiplier_eval(ms, g)


# ---------------------------------------------------------------------------
# cusps


def scaling_matrix(x: Fraction) -> GroupElement:
    """An integral g with g(inf) = x.

    For x = a/c in lowest terms (c > 0) the second column is the minimal
    solution of a*y - b*c = 1, which pins the choice up to the stated
    T-normalization.
    """
    a, c = x.numerator, x.denominator  # Fraction guarantees c > 0, gcd 1
    # extended gcd: find y, b with a*y - c*b = 1 and |b| minimal
    y, b = _ext_gcd_pair(a, c)
    return GroupElement(a, b, c, y)


def _ext_gcd_pair(a: int, c: int) -> Tuple[int, int]:
    """(y, b) with a*y - c*b = 1, |y| <= |c| and |b| <= |a| where possible."""
    old_r, r = a, c
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    # old_s*a + old_t*c = gcd = 1 (inputs coprime)
    if old_r == -1:
        old_s, old_t = -old_s, -old_t
    return old_s, -old_t
