"""One-sided averages, their Hurwitz-Lerch continuation, and the parabolic
difference equation.

The plus/minus averages

    Av+_g(t) = sum_{n>=0} lambda^{-n} g(t+n),
    Av-_g(t) = -sum_{n<=-1} lambda^{-n} g(t+n),

both solve Av(t) - lambda^{-1} Av(t+1) = g(t).  Direct summation works in
the absolute-convergence cells (|lambda|>1 for plus, <1 for minus, or
|lambda|=1 with Re r<1); outside them the average of g(z) = (z-i)^{r-2} h(z)
continues through Hurwitz-Lerch zeta values, one per coefficient of h at
infinity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .algebra import ARG_CUT_UP, power_branch
from .errors import DomainError, PoleError, RefusalError
from .specfun import hurwitz_lerch, lerch_b_coeffs

__all__ = [
    "AverageSpec", "average_asymptotic_coeffs", "average_continued",
    "one_sided_average",
]

_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class AverageSpec:
    """Parameters of a one-sided average: multiplier, direction, weight, input.

    g represents an element of D^omega_{2-r}: holomorphic where the shifted
    points t+n land, with g(t) = O(|t|^{Re r - 2}) toward the relevant end.
    g is called with a 1-D complex ndarray of shifted points and returns
    their values elementwise (a scalar result stands for a constant g).
    """

    lam: complex
    sign: str
    r: complex
    g: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.lam == 0:
            raise DomainError("multiplier lambda must be nonzero")
        if self.sign not in ("plus", "minus"):
            raise DomainError("sign must be 'plus' or 'minus'")

    @property
    def admissible(self) -> bool:
        """Absolute convergence of the direct sum, cell by cell."""
        mod = abs(complex(self.lam))
        unit = abs(mod - 1.0) <= _UNIT_TOL
        if unit:
            return complex(self.r).real < 1.0
        return mod > 1.0 if self.sign == "plus" else mod < 1.0


_FIRST_BLOCK = 64      # the cells that stop at n = 50 evaluate one block
_MAX_BLOCK = 8192      # keeps the per-block temporaries near 1 MB
_HEAD = 50             # no sum stops before n = 50
_EB_ORDER = 24         # highest difference D^j the Euler-Boole tail uses
_RICH_ORDER = 6        # most tail terms d_k u^{e-k} the lambda = 1 extrapolation fits
_EPS = float(np.finfo(float).eps)


def _values(f: Callable, z: np.ndarray) -> np.ndarray:
    # f at every point of z; a scalar result is broadcast
    return np.broadcast_to(np.asarray(f(z), dtype=complex), z.shape)


def _euler_boole_sum(g: Callable, mult: complex, step: float, w: complex,
                     z: complex, tol: float, max_terms: int,
                     floor: float) -> complex:
    # sum_{n>=0} w mult^n g_n, g_n = g(z + n step), |mult| = 1, mult != 1:
    # a direct head of N terms plus the first k terms of the Euler-Boole
    # tail (c = mult/(1-mult), D the forward difference)
    #   sum_{n>=N} mult^n g_n = mult^N/(1-mult) sum_{j<k} c^j D^j g_N + R_k.
    # |R_k| is estimated by summation by parts, 2|c|^k |D^k g|/|1-mult|,
    # with the larger of D^k g at N and N+1 (so that an accidentally small
    # difference is not chosen), and at k = 0 (the head alone) with the
    # maximum of |g| over the difference window; to it add the rounding of
    # the differences (2^j eps max|g| each) and of the head (eps N
    # max|term|).  k <= _EB_ORDER + 1 minimises the total.  Each failed N
    # doubles and the head sum carries over, so no point is evaluated twice.
    osc = abs(1.0 - mult)
    c = mult / (1.0 - mult)
    log_mult = cmath.log(mult)
    width = _EB_ORDER + 3     # the window g_N .. g_{N+_EB_ORDER+2}
    powers = c ** np.arange(_EB_ORDER + 2)
    amp = 2.0 * np.abs(powers) / osc
    rounding = _EPS / osc * np.cumsum(
        np.concatenate(([0.0], (2.0 * abs(c)) ** np.arange(_EB_ORDER + 1))))
    head, head_max = 0j, 0.0
    vals = np.empty(0, dtype=complex)  # g at [lo, hi), not yet in the head
    lo = hi = 0
    prev = 0.0                         # max|g| over the window at N/2
    N = _HEAD // 2                     # a first stage that only carries
    while N + width <= max_terms:
        while hi < N + width:
            end = min(hi + _MAX_BLOCK, N + width)
            vals = np.concatenate((vals, _values(g, z + step * np.arange(hi, end))))
            used = min(N, end) - lo
            terms = w * np.exp(np.arange(lo, lo + used) * log_mult) * vals[:used]
            head += complex(terms.sum())
            head_max = max(head_max, float(np.abs(terms).max(initial=0.0)))
            vals, lo, hi = vals[used:], lo + used, end
        mag = float(np.abs(vals).max())
        if N >= _HEAD:
            lead = np.empty(_EB_ORDER + 1, dtype=complex)  # D^j g_N
            big = np.empty(_EB_ORDER + 2)                  # the |D^k g| above
            big[0] = mag
            d = vals
            for j in range(_EB_ORDER + 1):
                lead[j] = d[0]
                d = np.diff(d)
                big[j + 1] = max(abs(d[0]), abs(d[1]))
            err = amp * big + rounding * mag + _EPS * N * head_max
            # k >= 1 needs g_n -> 0 (else it is the Abel sum): max|g| over
            # the window must fall from N/2 to N at least like |z|^{-1/2}
            # (AverageSpec asks for O(|z|^{Re r-2}), Re r < 1).  The head
            # alone does not: it is accepted once the window is negligible,
            # as when g is rounding noise that no longer falls
            near, far = abs(z + step * (N // 2)), abs(z + step * N)
            if not (far > near and mag <= prev * math.sqrt(near / far)):
                err[1:] = math.inf
            k = int(np.argmin(err))
            series = (powers[:k] * lead[:k]).sum()
            total = head + w * cmath.exp(N * log_mult) / (1.0 - mult) * series
            if err[k] <= tol * max(abs(total), floor):
                return total
        prev = mag
        N *= 2
    raise RefusalError(f"average did not reach tol={tol:g} within {max_terms} terms")


def _richardson_sum(g: Callable, step: float, z: complex, e: complex,
                    tol: float, max_terms: int, floor: float) -> complex:
    # sum_{n>=0} g_n, g_n = g(z + n step), for g whose tail follows the
    # exponent ladder e, e-1, ...: with u_N = step z + N - 1/2 (arg u_N -> 0,
    # so principal powers; g's branch goes into the constants d_k)
    #   S_N = sum_{n<N} g_n = S - sum_{k<K} d_k u_N^{e-k} + ...
    # Partial sums at N = 25 2^j, each g_n evaluated once and the head
    # carried over.  Order K solves the K+1 equations of the window of
    # partial sums ending at N for S, through the first row of the inverse.
    # Its error estimate is the distance to the same order on the window
    # ending at N/2, plus the rounding eps sum|g_n| times the row's l1 norm;
    # the order K <= _RICH_ORDER with the smallest estimate is taken, and N
    # doubles until that estimate meets tol.  The ladder starts at the first
    # N with Re u_N > 0, from where arg u_N stays in (-pi/2, pi/2).
    sums, logs = [], []    # S_N and log u_N at N = 25 2^j
    prev = {}              # order -> extrapolant on the window ending at N/2
    head, mass = 0j, 0.0   # S_N and sum |g_n|
    lo, N = 0, _HEAD // 2
    while N <= max_terms:
        for start in range(lo, N, _MAX_BLOCK):
            vals = _values(g, z + step * np.arange(start, min(start + _MAX_BLOCK, N)))
            head += complex(vals.sum())
            mass += float(np.abs(vals).sum())
        lo, u = N, step * z + N - 0.5
        N *= 2
        if u.real <= 0:
            continue
        sums.append(head)
        logs.append(cmath.log(u))
        S = np.array(sums)
        # log(u/u_N): columns rescaled by u_N^{k-e}, which leaves row 0 of A^-1 alone
        dl = np.array(logs) - logs[-1]
        cur = {}
        best, best_err = 0j, math.inf
        for K in range(1, min(_RICH_ORDER, len(sums) - 1) + 1):
            A = np.ones((K + 1, K + 1), dtype=complex)
            A[:, 1:] = np.exp(np.outer(dl[-K - 1:], e - np.arange(K)))
            row = np.linalg.solve(A.T, np.eye(K + 1, 1)).ravel()
            cur[K] = complex(row @ S[-K - 1:])
            if K in prev:
                err = abs(cur[K] - prev[K]) + _EPS * mass * float(np.abs(row).sum())
                if err < best_err:
                    best, best_err = cur[K], err
        if best_err <= tol * max(abs(best), floor):
            return best
        prev = cur
    raise RefusalError(f"average did not reach tol={tol:g} within {max_terms} terms")


def _directed_sum(g: Callable, lam: complex, sign: str,
                  t: complex, tol: float, max_terms: int, e: complex,
                  scale_hint: float = 0.0) -> complex:
    # plus: sum_{n>=0} lam^{-n} g(t+n); minus: -sum_{m>=1} lam^m g(t-m).
    # On the unit circle the sum is a head plus the Euler-Boole tail
    # (_euler_boole_sum), or at lam = 1 Richardson extrapolation with the
    # tail exponents e, e-1, ... (_richardson_sum).  Off the unit circle the
    # stopping rule is geometric extrapolation from the observed term ratio;
    # g is evaluated on blocks of shifted points, the weights, points and
    # partial sums are accumulated sequentially from the carried state, and
    # the rule is tested at every n, so the sum returns the same partial sum
    # at the same n as a term-by-term loop.
    if sign == "plus":
        mult, step = 1.0 / lam, 1.0
        w, z, out_sign = 1.0 + 0j, complex(t), 1.0
    else:
        mult, step = complex(lam), -1.0
        w, z, out_sign = complex(lam), t - 1.0, -1.0
    floor = max(scale_hint, 1e-300)
    if abs(mult - 1.0) <= _UNIT_TOL:
        return out_sign * w * _richardson_sum(g, step, z, e, tol, max_terms, floor)
    if abs(abs(mult) - 1.0) <= _UNIT_TOL:
        return out_sign * _euler_boole_sum(g, mult, step, w, z, tol,
                                           max_terms, floor)

    acc = 0j
    recent = np.zeros(9)  # |term| at n-9 .. n-1
    flat_run = 0
    n0 = 0
    size = _FIRST_BLOCK
    while n0 < max_terms:
        size = min(size, max_terms - n0)
        n = np.arange(n0, n0 + size)
        # one extra element carries w and z into the next block
        ws = np.full(size + 1, mult, dtype=complex)
        ws[0] = w
        np.multiply.accumulate(ws, out=ws)
        zs = np.full(size + 1, step, dtype=complex)
        zs[0] = z
        np.add.accumulate(zs, out=zs)
        terms = ws[:size] * _values(g, zs[:size])
        sums = np.empty(size + 1, dtype=complex)
        sums[0] = acc
        sums[1:] = terms
        np.add.accumulate(sums, out=sums)
        accs = sums[1:]
        m = np.abs(terms)
        scale = np.maximum(np.abs(accs), floor)
        # length of the run of flat terms ending at each n
        k = np.arange(size)
        last_big = np.maximum.accumulate(np.where(m <= 1e-15 * scale, -1, k))
        run = np.where(last_big >= 0, k - last_big, flat_run + k + 1)
        window = np.concatenate((recent, m))
        m9 = window[:size]  # |term| at n-9
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            rho = (m / m9) ** (1.0 / 9.0)
            q = np.minimum(np.maximum(rho, abs(mult)), 0.999999)
            tail = m * q / (1.0 - q)
        ratio_ok = (m9 > 0) & (m > 0) & (tail <= tol * scale)
        stop = np.flatnonzero((n >= _HEAD) & ((run >= 8) | ratio_ok))
        if stop.size:
            return out_sign * complex(accs[stop[0]])
        acc, w, z = sums[-1], ws[-1], zs[-1]
        recent = window[-9:]
        flat_run = int(run[-1])
        n0 += size
        size = min(2 * size, _MAX_BLOCK)
    raise RefusalError(f"average did not reach tol={tol:g} within {max_terms} terms")


def one_sided_average(spec: AverageSpec, t: complex, tol: float = 1e-9,
                      max_terms: int = 2_000_000) -> complex:
    """Direct summation of the one-sided average in its convergence cell.

    spec.g is evaluated on blocks of shifted points t+n (1-D complex
    ndarrays of up to a few thousand points).  Off the unit circle the sum
    stops at the same term, and returns the same partial sum, as a
    term-by-term sum with the same stopping rule would.  On the unit circle
    away from lambda = 1 it is a direct head of N >= 50 terms plus the
    Euler-Boole expansion of the rest, N doubling until the estimated
    truncation and rounding error meets tol; there a g whose modulus does
    not fall like a power of |t+n| is never given its Abel sum: only the
    head alone is accepted, once the next values of g are negligible.  At
    lambda = 1 the partial sums at N = 25, 50, 100, ... are extrapolated
    (Richardson, with the tail exponents r-1, r-2, ... of spec.r) until an
    extrapolant agrees with the same order one doubling earlier to within
    tol; a g whose tail does not follow those exponents is refused or still
    meets tol.  RefusalError if tol is not reached within max_terms
    evaluations of g.
    """
    if not spec.admissible:
        raise DomainError(
            "outside the absolute-convergence cell "
            f"(sign={spec.sign}, |lambda|={abs(complex(spec.lam)):.6g}, "
            f"Re r={complex(spec.r).real:.6g}); use average_continued")
    return _directed_sum(spec.g, complex(spec.lam), spec.sign, complex(t),
                         tol, max_terms, complex(spec.r) - 1.0)


def _coeffs_at_infinity(h: Callable[[np.ndarray], np.ndarray], radius: float,
                        count: int, samples: int = 256) -> list:
    # Cauchy coefficients of h(z) = sum_k a_k (z-i)^{-k} from a circle about i
    th = 2.0 * math.pi * np.arange(samples) / samples
    zs = 1j + radius * np.exp(1j * th)
    c = np.fft.ifft(_values(h, zs))
    return [complex(c[k]) * radius ** k for k in range(count)]


def average_continued(h: Callable[[np.ndarray], np.ndarray], r: complex, lam: complex,
                      sign: str, t: complex, N: int = 8, tol: float = 1e-10,
                      radius: float = 8.0, max_terms: int = 2_000_000) -> complex:
    """Av^± of g(z) = (z-i)^{r-2} h(z) by Hurwitz-Lerch continuation.

    h must be holomorphic for |z-i| >= radius with a finite limit at
    infinity, and evaluable along the shifted points t+n.  Like
    AverageSpec.g, h is called with 1-D complex ndarrays (the circle
    samples, then blocks of shifted points); a scalar result is broadcast.
    The first N coefficients of h are pushed through H(k+2-r, ...) values;
    the remainder decays like |z|^{Re r-2-N} and is summed directly, as in
    one_sided_average: by Richardson extrapolation with the tail exponents
    r-1-N, r-2-N, ... at lambda = 1, by a head plus the Euler-Boole tail
    elsewhere on the unit circle.
    Re r >= 6 is refused: H(2-r, ...) would need hurwitz_lerch's
    continuation at Re s <= -4, outside its accuracy envelope.
    """
    r = complex(r)
    lam = complex(lam)
    t = complex(t)
    if sign not in ("plus", "minus"):
        raise DomainError("sign must be 'plus' or 'minus'")
    if abs(abs(lam) - 1.0) > 1e-9:
        raise DomainError("continuation is for |lambda| = 1")
    if N < 1 or N <= r.real - 1.0:
        raise DomainError("remainder order N must exceed Re r - 1")
    if r.real >= 6.0:
        raise RefusalError(f"r = {r}: Re r >= 6 puts H(2-r, ...) outside the "
                           "continuation's envelope Re s > -4")
    a = _coeffs_at_infinity(h, radius, N)
    scale_a = max(max(abs(x) for x in a), 1.0)
    kmin = 2 if abs(a[0]) <= 1e-9 * scale_a else 1
    if abs(r.imag) <= 1e-12 and abs(r.real - round(r.real)) <= 1e-12 \
            and round(r.real) >= kmin:
        raise PoleError(f"r = {round(r.real)} is an excluded integer weight")

    alpha = cmath.phase(lam) / (2.0 * math.pi)
    head = 0j
    for k in range(N):
        s = k + 2.0 - r
        if sign == "plus":
            head += a[k] * hurwitz_lerch(s, -alpha, t - 1j, tol=min(tol, 1e-11))
        else:
            head += -a[k] * lam * cmath.exp(1j * math.pi * (k - r)) \
                * hurwitz_lerch(s, alpha, 1.0 + 1j - t, tol=min(tol, 1e-11))

    def g_rem(z: np.ndarray) -> np.ndarray:
        wk = 1.0 / (z - 1j)
        poly = 0j
        p = 1.0 + 0j
        for k in range(N):
            poly += a[k] * p
            p *= wk
        return power_branch(z - 1j, r - 2.0, ARG_CUT_UP) * (h(z) - poly)

    return head + _directed_sum(g_rem, lam, sign, t, tol, max_terms, r - 1.0 - N,
                                scale_hint=max(abs(head), 1e-30))


def average_asymptotic_coeffs(a0: complex, a1: complex, a2: complex,
                              r: complex, lam: complex) -> Tuple[complex, complex, complex]:
    """(c_{-1}, c_0, c_1) of Av^± g as t -> infinity on the real line.

    For g(z) = (iz)^{r-2}(a0 + a1/z + a2/z^2 + ...) both one-sided averages
    expand as i^{r-2}(c_{-1} tau^{r-1} + c_0 tau^{r-2} + c_1 tau^{r-3} + ...)
    in the half-shifted variable tau = t - 1/2 (the shift makes the lambda=1
    column rational in r with no parasitic a0/2 term).
    """
    r = complex(r)
    lam = complex(lam)
    if abs(abs(lam) - 1.0) > 1e-9:
        raise DomainError("asymptotic table is for |lambda| = 1")
    at_one = abs(lam - 1.0) <= _UNIT_TOL
    if at_one:
        for bad in (1.0, 2.0, 3.0):
            if abs(r - bad) <= 1e-12:
                raise PoleError(f"table has a pole at r = {int(bad)} for lambda = 1")
    eps = 1.0 if at_one else 0.0
    mu = 1.0 / lam
    b0_2r, b1_2r = lerch_b_coeffs(mu, 2.0 - r, 1)
    b0_3r = lerch_b_coeffs(mu, 3.0 - r, 0)[0]
    cm1 = eps * a0 / (1.0 - r)
    c0 = eps * a1 / (2.0 - r) + a0 * b0_2r
    c1 = eps * a2 / (3.0 - r) + a1 * b0_3r + a0 * b1_2r
    return (cm1, c0, c1)
