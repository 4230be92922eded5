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

Integral matrices are stored exactly; multiplier systems are evaluated by
walking a word in the generators T=(1,1;0,1), S=(0,-1;1,0) while tracking the
integer branch defect of the automorphy factor, so the value extends
consistently from the generators to the whole group.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Literal, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DomainError, PoleError, RefusalError, UnsupportedGroupError

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

Word = Tuple[Tuple[str, int], ...]  # (("T", n) | ("S", k)) factors, left to right

Scalar = Union[int, float]


@dataclass(frozen=True)
class GroupElement:
    """A unit-determinant 2x2 real matrix, exact when the entries are integers."""

    a: Scalar
    b: Scalar
    c: Scalar
    d: Scalar
    word: Optional[Word] = None

    def __post_init__(self) -> None:
        det = self.a * self.d - self.b * self.c
        if self.is_integral:
            if det != 1:
                raise DomainError(f"determinant {det} != 1")
        elif abs(det - 1.0) > 1e-12:
            raise DomainError(f"determinant {det} not within 1e-12 of 1")

    @property
    def is_integral(self) -> bool:
        return all(isinstance(x, int) for x in (self.a, self.b, self.c, self.d))

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        w = None
        if self.word is not None and other.word is not None:
            w = merge_word(self.word + other.word)
        return GroupElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            w,
        )

    def inv(self) -> "GroupElement":
        w = None
        if self.word is not None:
            # S has order 4, so S^k inverts to S^(4-k) without a sign ambiguity
            w = merge_word(
                tuple(
                    (g, -n) if g == "T" else ("S", (-n) % 4)
                    for g, n in reversed(self.word)
                )
            )
        return GroupElement(self.d, -self.b, -self.c, self.a, w)

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

    def entries(self) -> Tuple[Scalar, Scalar, Scalar, Scalar]:
        return (self.a, self.b, self.c, self.d)


def merge_word(word: Sequence[Tuple[str, int]]) -> Word:
    """Combine adjacent equal generators, reduce S mod 4, drop trivial factors."""
    out: list[Tuple[str, int]] = []
    for g, n in word:
        if out and out[-1][0] == g:
            n += out.pop()[1]
        if g == "S":
            n %= 4
        if n != 0:
            out.append((g, n))
    return tuple(out)


IDENTITY = GroupElement(1, 0, 0, 1, ())
T = GroupElement(1, 1, 0, 1, (("T", 1),))
S = GroupElement(0, -1, 1, 0, (("S", 1),))


def t_power(n: int) -> GroupElement:
    return GroupElement(1, n, 0, 1, ((("T", n),) if n else ()))


def from_word(word: Sequence[Tuple[str, int]]) -> GroupElement:
    """Multiply out a word in T, S (integer T-exponents, any S-exponents)."""
    m = IDENTITY
    for g, n in word:
        if g == "T":
            m = m @ t_power(n)
        elif g == "S":
            for _ in range((n % 4)):
                m = m @ S
        else:
            raise DomainError(f"unknown generator {g!r}")
    return m


def matrix_to_word(g: GroupElement) -> Word:
    """A word in T, S whose product is exactly g (Euclidean reduction).

    Deterministic: the bottom row is reduced by T-steps with round-half-up
    quotients (so |c|=|d| resolves to a T-step), then swapped by S; a final
    S^2 absorbs the sign.
    """
    if not g.is_integral:
        raise DomainError("matrix_to_word requires integer entries")
    a, b, c, d = g.entries()
    peeled: list[Tuple[str, int]] = []  # rightmost factor first
    while c != 0:
        n = math.floor(Fraction(d, c) + Fraction(1, 2))  # round half up: T-step wins ties
        if n != 0:
            d -= n * c
            b -= n * a
            peeled.append(("T", n))
        # right-multiply by S^-1 = (0,1;-1,0): columns (a,c),(b,d) -> (-b,-d),(a,c)
        a, b, c, d = -b, a, -d, c
        peeled.append(("S", 1))
    word: list[Tuple[str, int]] = []
    if a == 1:
        if b != 0:
            word.append(("T", b))
    else:  # a == d == -1: matrix is T^b * S^2 up to merging
        if b != 0:
            word.append(("T", -b))
        word.append(("S", 2))
    word.extend(reversed(peeled))
    return merge_word(word)


# ---------------------------------------------------------------------------
# multiplier systems


@dataclass(frozen=True)
class MultiplierSystem:
    """Weight-r multiplier system on the modular group, given on the generators."""

    weight: complex
    vT: complex
    vS: complex

    @classmethod
    def modular(cls, r: complex) -> "MultiplierSystem":
        """The analytic family with v(T) = e^{pi i r/6}, v(S) = e^{-pi i r/2}."""
        r = complex(r)
        try:
            return cls(r, cmath.exp(1j * math.pi * r / 6.0),
                       cmath.exp(-1j * math.pi * r / 2.0))
        except OverflowError:
            raise RefusalError(f"multiplier system overflows at r={r}") from None

    def __call__(self, g: GroupElement) -> complex:
        return multiplier_eval(self, g)


_Z0 = 2j  # fixed interior test point for branch-defect bookkeeping


def _branch_defect(m: GroupElement, x: GroupElement, mx: GroupElement) -> int:
    """Integer k with arg(j_m at x z0) + arg(j_x at z0) = arg(j_mx at z0) + 2 pi k."""
    phi = (
        ARG_UPPER.arg(m.cd(x.apply(_Z0)))
        + ARG_UPPER.arg(x.cd(_Z0))
        - ARG_UPPER.arg(mx.cd(_Z0))
    )
    return round(phi / TWO_PI)


def multiplier_eval(ms: MultiplierSystem, g: GroupElement) -> complex:
    """v(g) extended from the generators so that j(g,z) = v(g)(cz+d)^r is a cocycle."""
    word = g.word
    if word is None:
        if not g.is_integral:
            raise UnsupportedGroupError("multiplier systems are only evaluated on integral matrices")
        word = matrix_to_word(g)
    m = IDENTITY
    v = 1.0 + 0.0j
    steps: list[Tuple[GroupElement, complex]] = []
    for gen, n in word:
        if gen == "T":
            steps.append((t_power(n), ms.vT**n))
        else:
            steps.extend([(S, ms.vS)] * (n % 4))
    # the word may reproduce -g; S^2 = -I patches the sign exactly
    prod = from_word(word)
    if prod.entries() == tuple(-x for x in g.entries()):
        steps.extend([(S, ms.vS)] * 2)
    elif prod.entries() != g.entries():
        raise DomainError("word does not reproduce the matrix up to sign")
    for x, vx in steps:
        mx = m @ x
        k = _branch_defect(m, x, mx)
        v *= vx * cmath.exp(2j * math.pi * ms.weight * k)
        m = mx
    return v


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

CuspLike = Union[Fraction, int, float]


def as_cusp(x: CuspLike) -> Union[Fraction, float]:
    """Normalize a cusp to a Fraction, or +inf for the cusp at infinity."""
    if isinstance(x, float):
        if math.isinf(x):
            return math.inf
        return Fraction(x).limit_denominator(10**9)
    return Fraction(x)


def scaling_matrix(cusp: CuspLike) -> GroupElement:
    """An integral g with g(inf) = cusp; the identity for the cusp at infinity.

    For a/c in lowest terms (c > 0) the second column is the minimal solution
    of a*y - b*c = 1, which pins the choice up to the stated T-normalization.
    """
    x = as_cusp(cusp)
    if isinstance(x, float):
        return IDENTITY
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
