"""Tests for eta powers, incomplete gamma, hypergeometrics, and Hurwitz-Lerch."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as scipy_gamma, rgamma as scipy_rgamma

from eichler import (
    BranchError,
    DomainError,
    PoleError,
    RefusalError,
    eta_power_coeffs,
    eta_power_eval,
    gauss_2f1,
    hurwitz_lerch,
    hurwitz_lerch_detailed,
    incomplete_gamma,
    kummer_1f1,
    lerch_asymptotic,
    lerch_b_coeffs,
)
from eichler.specfun import _abel_plana, _gamma, _rgamma

mp.mp.dps = 30
EPS = float(np.finfo(float).eps)

RNG_SEED = 20260814


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


# ---------------------------------------------------------------------------
# eta power coefficients


def test_eta_p0_is_one():
    for r in (0.0, 12.0, 2.5, 0.5 + 0.5j):
        assert eta_power_coeffs(r, 4).coeffs[0] == 1.0


def test_eta_p1_is_minus_two_r():
    for r in (12.0, 2.5, 0.5 + 0.5j):
        assert abs(eta_power_coeffs(r, 4).coeffs[1] - (-2.0 * r)) < 1e-12


def test_eta_weight_twelve_matches_q_product():
    # oracle: integer expansion of prod_{n<=2} (1 - q^n)^24 up to q^2
    poly = np.array([1.0])
    for n in (1, 2):
        f = np.zeros(n + 1)
        f[0], f[n] = 1.0, -1.0
        for _ in range(24):
            poly = np.polynomial.polynomial.polymul(poly, f)[:3]
    assert poly[1] == -24.0 and poly[2] == 252.0
    got = eta_power_coeffs(12.0, 2).coeffs
    assert abs(got[1] - (-24.0)) < 1e-9
    assert abs(got[2] - 252.0) < 1e-9


def test_eta_half_integer_weights_give_integer_coeffs():
    for r in (3.5, 12.0, -0.5):
        for pk in eta_power_coeffs(r, 48).coeffs:
            assert abs(pk.imag) < 1e-9
            assert abs(pk.real - round(pk.real)) < 1e-9


def _pentagonal_series(K):
    # prod_{n>=1} (1 - q^n) = sum_k (-1)^k q^{k(3k-1)/2} over all integers k
    out = [0] * (K + 1)
    k = 0
    while k * (3 * k - 1) // 2 <= K:
        for e in {k * (3 * k - 1) // 2, k * (3 * k + 1) // 2}:
            if e <= K:
                out[e] = (-1) ** k
        k += 1
    return out


def _partition_numbers(K):
    # Euler's recurrence p(n) = sum_{k>=1} (-1)^{k+1} [p(n - k(3k-1)/2) + p(n - k(3k+1)/2)]
    p = [1] + [0] * K
    for n in range(1, K + 1):
        k = 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if e <= n:
                    p[n] += sign * p[n - e]
            k += 1
    return p


def test_eta_coeffs_exact_against_integer_references():
    K = 200
    # r = -1/2: eta^{-1} = q^{-1/24} sum_n p(n) q^n
    parts = _partition_numbers(K)
    assert parts[100] == 190569292 and parts[200] == 3972999029388
    assert eta_power_coeffs(-0.5, K).coeffs == tuple(complex(x) for x in parts)
    # r = 12: eta^24 = q prod (1 - q^n)^24, the pentagonal series to the 24th power
    base = _pentagonal_series(K)
    power = [1] + [0] * K
    for _ in range(24):
        power = [sum(power[j] * base[k - j] for j in range(k + 1)) for k in range(K + 1)]
    assert power[1] == -24 and power[2] == 252
    assert eta_power_coeffs(12.0, K).coeffs == tuple(complex(x) for x in power)


# ---------------------------------------------------------------------------
# eta power evaluation


def test_eta_eval_weight_zero_is_one():
    assert eta_power_eval(0.0, 0.37 + 2.1j) == 1.0


def test_eta_eval_translation_covariance():
    for r in (3.0, 0.5 + 0.5j):
        for z in (0.3 + 1.2j, -1.8 + 0.7j):
            lhs = eta_power_eval(r, z + 1)
            rhs = cmath.exp(1j * math.pi * r / 6.0) * eta_power_eval(r, z)
            assert rel_err(lhs, rhs) < 1e-11


def test_eta_squared_at_i_matches_product_oracle():
    qi = math.exp(-2 * math.pi)
    prod = 1.0
    for n in range(1, 201):
        prod *= (1.0 - qi**n) ** 2
    oracle = prod * math.exp(-math.pi / 6.0)  # 0.590170299508048
    assert abs(eta_power_eval(1.0, 1j) - oracle) < 1e-10


def test_eta_eval_low_point_matches_raw_series():
    # pullback path vs direct Fourier sum at the unreduced point
    r = 3.0
    z = 0.37 + 0.3j
    q = cmath.exp(2j * math.pi * z)
    coeffs = eta_power_coeffs(r, 300).coeffs
    raw = sum(pk * q**k for k, pk in enumerate(coeffs))
    raw *= cmath.exp(1j * math.pi * r * z / 6.0)
    assert rel_err(eta_power_eval(r, z), raw) < 1e-8


def test_eta_eval_matches_mpmath_product_unreduced():
    # oracle: exp(2r (pi i z/12 + sum log(1 - q^n))) at the unreduced z, 30
    # digits; Im z in [0.05, 2] sends most points through the pullback, and
    # Im z = 1/2 puts the reduced point where |q| = e^{-pi}
    rng = np.random.default_rng(RNG_SEED)
    zs = [complex(rng.uniform(-3, 3), rng.uniform(0.05, 2.0)) for _ in range(40)]
    zs += [x + 0.5j for x in (-2.5, -1.3, -0.5, 0.25, 0.5, 2.5)]
    rs = [12.0, 2.5, 0.5, -0.5, 5.5] + [complex(rng.uniform(-4, 12.5), rng.uniform(-1, 1))
                                        for _ in range(5)]
    worst = 0.0
    for z in zs:
        q = mp.exp(2j * mp.pi * mp.mpc(z))
        log_eta = 1j * mp.pi * mp.mpc(z) / 12
        qn = q
        while abs(qn) > mp.mpf(10) ** -33:
            log_eta += mp.log(1 - qn)
            qn *= q
        for r in rs:
            want = mp.exp(2 * mp.mpc(r) * log_eta)
            worst = max(worst, float(abs(eta_power_eval(r, z) - want) / abs(want)))
    assert worst <= 1e-13


def test_eta_inversion_covariance_random():
    # eta^{2r}(-1/z) = (-iz)^r eta^{2r}(z), principal power
    rng = np.random.default_rng(RNG_SEED)
    for r in (3.0, 0.5 + 0.5j):
        for _ in range(10):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.2, 3.0))
            lhs = eta_power_eval(r, -1.0 / z)
            rhs = cmath.exp(r * cmath.log(-1j * z)) * eta_power_eval(r, z)
            assert rel_err(lhs, rhs) < 1e-8


def test_eta_eval_refuses_overflow():
    # the result overflows, or 2r itself does
    for r in (-1e300, -1e308, 1.7e308):
        with pytest.raises(RefusalError):
            eta_power_eval(r, 0.1 + 2j)


def test_eta_eval_refuses_when_rounding_swamps_the_phase():
    # exponents of modulus ~1e300 (the weight) or ~1e9 (a translation by
    # 1e9 at r = 2.5) carry rounding errors far above sqrt(eps) in the
    # phase; unrefused, (1e300 i, 3i) gives a unit-modulus number 1.01
    # relative off mpmath
    for r, z in ((1e300j, 3j), (2.5, 1e9 + 1j)):
        with pytest.raises(RefusalError):
            eta_power_eval(r, z)
    # far up the cusp the value underflows to 0, whatever its phase
    assert eta_power_eval(0.05, 1.28e19j) == 0


def test_eta_eval_rejects_lower_half_plane():
    with pytest.raises(DomainError):
        eta_power_eval(3.0, 1.0 - 0.5j)
    with pytest.raises(DomainError):
        eta_power_eval(3.0, 0.4)


# ---------------------------------------------------------------------------
# gamma function


def _gamma_grid():
    # Re z in [-12, 30], |Im z| <= 30, plus points within 1e-3 of the poles
    # 0, -1, ..., -12 and points on the reflection seam Re z = 1/2
    rng = np.random.default_rng(RNG_SEED)
    pts = [complex(rng.uniform(-12, 30), rng.uniform(-30, 30)) for _ in range(800)]
    pts += [-float(k) + complex(*rng.uniform(-1e-3, 1e-3, 2)) for k in rng.integers(0, 13, 100)]
    pts += [complex(0.5, y) for y in rng.uniform(-30, 30, 100)]
    return pts


def test_gamma_and_reciprocal_no_worse_than_scipy():
    # mpmath is the oracle; the gate is scipy's own worst error on the grid
    worst = {"gamma": 0.0, "rgamma": 0.0, "scipy gamma": 0.0, "scipy rgamma": 0.0}
    with mp.workdps(40):
        for z in _gamma_grid():
            want = mp.gamma(mp.mpc(z))
            for name, got, ref in (("gamma", _gamma(z), want), ("rgamma", _rgamma(z), 1 / want),
                                   ("scipy gamma", complex(scipy_gamma(z)), want),
                                   ("scipy rgamma", complex(scipy_rgamma(z)), 1 / want)):
                worst[name] = max(worst[name], float(abs(mp.mpc(got) - ref) / abs(ref)))
    assert worst["gamma"] <= worst["scipy gamma"] < 1e-13, worst
    assert worst["rgamma"] <= worst["scipy rgamma"] < 1e-13, worst


def test_rgamma_vanishes_exactly_at_the_poles():
    for z in (0, -1, -5):
        assert _rgamma(z) == 0
    assert _rgamma(-5 + 1e-300j) != 0


def test_e1_against_mpmath_at_criterion_13_points():
    # E_1(x) = Gamma(0, x), the smoothed-series oracle of `eichler goldfeld`
    worst = 0.0
    for n in range(1, 201):
        x = 2 * math.pi * n / math.sqrt(37)
        want = mp.e1(x)
        worst = max(worst, float(abs(incomplete_gamma(0, x) - want) / want))
    assert worst <= 1e-13


# ---------------------------------------------------------------------------
# incomplete gamma


def test_gamma_a_one_closed_form():
    for u in (0.3, 2 + 3j, -4 + 1j, 50.0, 0.01 - 0.2j):
        assert rel_err(incomplete_gamma(1.0, u), cmath.exp(-complex(u))) < 1e-11


def test_gamma_recurrence_grid():
    # Gamma(a+1, u) = a Gamma(a, u) + u^a e^{-u} on a 5x5 grid
    avals = (0.5, -1.3, 2 + 1j, -0.5 - 2j, 3.7)
    uvals = (0.3, 2.0, 5 + 1j, -3 + 4j, 20.0)
    for a in avals:
        for u in uvals:
            a, u = complex(a), complex(u)
            lhs = incomplete_gamma(a + 1, u)
            mono = cmath.exp(a * cmath.log(u) - u)
            rhs = a * incomplete_gamma(a, u) + mono
            scale = max(abs(lhs), abs(mono), 1e-300)
            assert abs(lhs - rhs) / scale < 1e-10


def test_gamma_half_one_against_quadrature_oracle():
    oracle, est = quad(lambda t: t**-0.5 * math.exp(-t), 1.0, np.inf,
                       epsabs=1e-14, epsrel=1e-13)
    assert est < 1e-12  # oracle itself is trustworthy
    assert abs(oracle - 0.27880558528066196) < 1e-13
    assert rel_err(incomplete_gamma(0.5, 1.0), oracle) < 1e-11


def test_gamma_against_mpmath_grid():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(40):
        a = complex(rng.uniform(-4, 4), rng.uniform(-2, 2))
        radius = math.exp(rng.uniform(math.log(0.2), math.log(80.0)))
        theta = rng.uniform(-0.98 * math.pi, 0.98 * math.pi)
        u = radius * cmath.exp(1j * theta)
        want = complex(mp.gammainc(mp.mpc(a), mp.mpc(u)))
        assert rel_err(incomplete_gamma(a, u), want) < 1e-10
    # large Re a against u in the right half plane, on both sides of
    # |u| = Re a + 1, where the lower series meets the continued fraction
    cells = [(complex(rng.uniform(4, 45), rng.uniform(-5, 5)),
              complex(rng.uniform(0, 40), rng.uniform(-10, 10))) for _ in range(40)]
    cells += [(20.0, 2 * math.pi), (30.0, 2 * math.pi), (20.0, 5.9),
              (21.5, 2 * math.pi), (10.0 + 2j, 10.99), (10.0 + 2j, 11.01)]
    for a, u in cells:
        want = complex(mp.gammainc(mp.mpc(a), mp.mpc(u)))
        assert rel_err(incomplete_gamma(a, u), want) < 1e-12, (a, u)


# rows 1e-9 either side of incomplete_gamma's three seams: |u| = 6 (on
# both sides of the imaginary axis), Re u = 1 (the alternating series'
# bound) and, in the left half plane, |u| = 35 + 2.2|a| between the arc
# path and the asymptotic series; a = -3 and 0 take the integer route
# inside the series disc
GAMMA_SEAM_ROWS = [
    pytest.param(a, u, id=f"{name}{d:+g}-a={a}")
    for d in (-1e-9, 1e-9)
    for a in (0.5, -2.3 + 0.7j, 2.5 + 0.5j, -3, 0, 4 - 1j, -6.5 + 0.2j)
    for name, u in (("abs-u-6-right", (6.0 + d) * cmath.exp(1.45j)),
                    ("abs-u-6-left", (6.0 + d) * cmath.exp(2.2j)),
                    ("series-cap", complex(1.0 + d, 2.0)),
                    ("asymptotic", (35.0 + 2.2 * abs(a) + d) * cmath.exp(2.5j)))
]


@pytest.mark.parametrize("a,u", GAMMA_SEAM_ROWS)
def test_gamma_seam_rows_against_mpmath(a, u):
    want = complex(mp.gammainc(mp.mpc(a), mp.mpc(u)))
    assert rel_err(incomplete_gamma(a, u), want) < 1e-10


def test_gamma_rejects_the_cut():
    with pytest.raises(BranchError):
        incomplete_gamma(0.5, -2.0)
    with pytest.raises(BranchError):
        incomplete_gamma(0.5, 0.0)


# ---------------------------------------------------------------------------
# Gauss 2F1


def test_2f1_at_zero_is_one():
    assert gauss_2f1(1.3, -0.4 + 2j, 0.9, 0.0) == 1.0


def test_2f1_log_closed_form():
    want = -math.log(0.5) / 0.5
    assert abs(gauss_2f1(1, 1, 2, 0.5) - want) <= 1e-12


def test_2f1_complex_parameters_against_compensated_oracle():
    # 200-term sum with Neumaier compensation on real and imaginary parts
    r, mu, x = 0.6 + 0.2j, 2, 0.3
    a, b, c = 1.0 + mu, 1 - r, 2 - r

    def comp_sum(vals):
        s = 0.0
        corr = 0.0
        for v in vals:
            t = s + v
            if abs(s) >= abs(v):
                corr += (s - t) + v
            else:
                corr += (v - t) + s
            s = t
        return s + corr

    term = 1.0 + 0j
    res, ims = [1.0], [0.0]
    for n in range(200):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * x
        res.append(term.real)
        ims.append(term.imag)
    oracle = complex(comp_sum(res), comp_sum(ims))
    assert abs(oracle - (1.4127440605808996 - 0.14886298006138576j)) < 1e-14
    assert rel_err(gauss_2f1(a, b, c, x), oracle) < 1e-13


def test_2f1_refusal_and_domain_errors():
    with pytest.raises(RefusalError):
        gauss_2f1(1, 1, 2, 0.96)
    with pytest.raises(DomainError):
        gauss_2f1(1, 1, 0, 0.5)
    with pytest.raises(DomainError):
        gauss_2f1(1, 1, -2.0, 0.5)
    with pytest.raises(DomainError):
        gauss_2f1(1, 1, 2, -0.1)


# ---------------------------------------------------------------------------
# Kummer 1F1


def test_1f1_at_zero_is_one():
    assert kummer_1f1(0.7 - 0.1j, 1.9, 0.0) == 1.0


def test_1f1_exponential_closed_form():
    want = (math.exp(2.0) - 1.0) / 2.0
    assert abs(kummer_1f1(1, 2, 2.0) - want) <= 1e-12


def test_1f1_negative_argument_is_stable():
    # Kummer transform route; naive series would lose ~e^{25} of accuracy
    want = complex(mp.hyp1f1(1.3, 2.6, -25.0))
    assert rel_err(kummer_1f1(1.3, 2.6, -25.0), want) < 1e-11


def test_1f1_against_mpmath_grid():
    # 300 complex rows with |t| <= 30 and 300 real rows with a in [-40, 6]:
    # every row is either refused or within 1e-11 of mpmath
    rng = np.random.default_rng(RNG_SEED)
    rows = []
    for _ in range(300):
        a = complex(rng.uniform(-10, 6), rng.uniform(-3, 3))
        b = complex(rng.uniform(-5, 6), rng.uniform(-3, 3))
        t = 30.0 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        rows.append((a, b, t))
    rows += [(rng.uniform(-40, 6), rng.uniform(0.1, 6), rng.uniform(-30, 30))
             for _ in range(300)]
    accepted = 0
    for a, b, t in rows:
        try:
            val = kummer_1f1(a, b, t)
        except RefusalError:
            continue
        accepted += 1
        assert rel_err(val, complex(mp.hyp1f1(a, b, t))) <= 1e-11, (a, b, t)
    assert accepted >= 400


def test_1f1_cancelling_series_refused():
    # mpmath: -3120.24...; the terms peak near 5e198 and cancel
    with pytest.raises(RefusalError):
        kummer_1f1(-2000.5, 1.5, 29.0)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_1f1_series_range_seam(sign):
    # accepted just inside |t| = 30, refused just outside
    a, b = 0.6, 1.6
    t = sign * (30.0 - 1e-9)
    assert rel_err(kummer_1f1(a, b, t), complex(mp.hyp1f1(a, b, t))) <= 1e-12
    with pytest.raises(RefusalError):
        kummer_1f1(a, b, sign * (30.0 + 1e-9))


def test_1f1_rejects_nonpositive_integer_b():
    with pytest.raises(DomainError):
        kummer_1f1(0.5, -1.0, 2.0)


# ---------------------------------------------------------------------------
# Hurwitz-Lerch zeta


def zeta3_oracle():
    # 1e6 direct terms plus integral tail and half term
    n = np.arange(1, 1_000_001, dtype=np.float64)
    head = float(np.sum(1.0 / n**3))
    N = 1_000_001.0
    return head + N**-2 / 2 + 0.5 * N**-3


def test_lerch_reduces_to_hurwitz_zeta():
    oracle = zeta3_oracle()
    assert abs(oracle - 1.202056903159595) < 1e-12
    assert abs(hurwitz_lerch(3.0, 0.0, 1.0) - oracle) < 1e-9


def test_lerch_continuation_equals_direct_sum():
    # Re s > 1 with a off the integers: the auto path takes the continuation,
    # checked against the defining series, whose tail oscillates, so 4e5
    # terms leave ~1e-13
    s, a, z = 2.5, 0.3, 1.7
    c = hurwitz_lerch_detailed(s, a, z)
    assert c.method == "shifted"
    n = np.arange(0, 400_000)
    direct = complex(np.sum(np.exp(2j * math.pi * a * n) * (z + n) ** (-s)))
    assert abs(c.value - direct) <= 1e-9


def test_lerch_shift_identity_m7():
    s, a, z, m = 1.3, 0.2, 2.5, 7
    head = sum(cmath.exp(2j * math.pi * a * n) * (z + n) ** -s for n in range(m))
    rhs = head + cmath.exp(2j * math.pi * a * m) * hurwitz_lerch(s, a, z + m)
    assert rel_err(hurwitz_lerch(s, a, z), rhs) < 5e-13
    # for integer a the phase factor drops out
    s, a, z = 2.2, 0.0, 0.7
    rhs = sum((z + n) ** -s for n in range(m)) + hurwitz_lerch(s, a, z + m)
    assert rel_err(hurwitz_lerch(s, a, z), rhs) < 5e-13


def test_lerch_pole_and_domain_errors():
    with pytest.raises(PoleError):
        hurwitz_lerch(1.0, 0.0, 2.5)
    with pytest.raises(PoleError):
        hurwitz_lerch(1.0, 3.0, 2.5)  # a = 3 is still integer after reduction
    with pytest.raises(DomainError):
        hurwitz_lerch(2.0, -0.2j, 2.5)
    with pytest.raises(BranchError):
        hurwitz_lerch(2.0, 0.0, -3.0)


@pytest.mark.parametrize("s,a,z", [(math.nan, 0.3, 1.7), (-1.5, 0.3, complex(math.nan, 1)),
                                   (1.5, 0.3, complex(math.nan, 1)), (2.5, math.inf, 1.7)])
def test_lerch_rejects_non_finite_input(s, a, z):
    with pytest.raises(DomainError):
        hurwitz_lerch(s, a, z)


# Im a where q = e^{-2 pi Im a} = 0.9: the geometric sum above, the
# continuation below
_Q_SEAM = math.log(1 / 0.9) / (2 * math.pi)

# rows either side of the points where hurwitz_lerch switches branches:
# q = 0.9, and Re s = 0.3 between shifted Euler-Maclaurin and Abel-Plana;
# the last two rows take the continuation at Re s >= 2.5; in the second the
# tail integral's factor e^{-2 pi i a w} grows with the shift w = z + M
LERCH_SEAM_ROWS = [
    pytest.param(s, complex(re_a, _Q_SEAM + d), z, id=f"q-seam{d:+g}-s={s}-z={z}")
    for d in (-1e-9, 1e-9)
    for s, re_a, z in ((2.5, 0.3, 1.7), (0.7, 0.25, 1.7), (1.6 + 0.4j, 0.0, 2.5 + 3j),
                       (-0.5, 0.45, 6.0))
] + [
    pytest.param(complex(0.3 + d, im_s), a, z, id=f"re-s-seam{d:+g}-im_s={im_s}-z={z}")
    for d in (-1e-9, 1e-9)
    for im_s, a, z in ((0.0, 0.3, 1.7), (2.0, 0.0, 2.5 + 3j), (-1.0, 0.25, 0.6))
] + [pytest.param(6.0, 0.3, 1.7, id="plain-sum-s=6"),
      pytest.param(4.0, 0.15 + 0.006j, 4.5 + 1.5j, id="long-head-s=4")]


def lerch_mp(s, a, z):
    lam = mp.e ** (2j * mp.pi * mp.mpc(a))
    return complex(mp.lerchphi(lam, mp.mpc(s), mp.mpc(z)))


def test_lerch_against_mpmath_grid():
    for s in (2.5, 0.7, 1.6 + 0.4j, -0.5):
        for a in (0.0, 0.25, 0.3 + 0.04j, 0.2j):
            for z in (1.7, 40.5, 0.3, 2.5 + 3j, -3.6 + 0.2j):
                assert rel_err(hurwitz_lerch(s, a, z), lerch_mp(s, a, z)) < 1e-9


def test_lerch_methods_agree_for_re_s_above_one():
    # Re s > 1, where the defining series converges on the unit circle:
    # the library's branches against mpmath's lerchphi
    for s in (1.4, 2.2, 3 + 0.4j):
        for a in (0.0, 0.3, 0.1 + 0.2j):
            for z in (1.7, 6 + 2j):
                assert rel_err(hurwitz_lerch(s, a, z), lerch_mp(s, a, z)) < 1e-9


@pytest.mark.parametrize("s,a,z", LERCH_SEAM_ROWS)
def test_lerch_seam_rows_against_mpmath(s, a, z):
    assert rel_err(hurwitz_lerch(s, a, z), lerch_mp(s, a, z)) < 1e-12


def abel_plana_loop(s, a, z, M):
    # _abel_plana's rule node by node: i int_0^inf [f(M+iy) - f(M-iy)] /
    # (e^{2 pi y} - 1) dy on 9 panels of 48 Gauss nodes.  Returns the value
    # and a rounding scale: each f = e^x is good to about (1+|x|) eps, so
    # the sum of |weight f| (1+|x|) over both f of every node
    Y = 42.0 / (2.0 * math.pi * (1.0 - abs(a.real)) - 1e-9)
    edges = np.concatenate(([0.0], np.geomspace(0.02, Y, 9)))
    nodes, weights = np.polynomial.legendre.leggauss(48)
    total, scale = 0j, 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        for x, w in zip(nodes, weights):
            y = mid + half * x
            xp = 2j * math.pi * a * (M + 1j * y) - s * cmath.log(z + M + 1j * y)
            xm = 2j * math.pi * a * (M - 1j * y) - s * cmath.log(z + M - 1j * y)
            fp, fm = cmath.exp(xp), cmath.exp(xm)
            wgt = w * half / math.expm1(2.0 * math.pi * y)
            total += wgt * (fp - fm)
            scale += wgt * (abs(fp) * (1 + abs(xp)) + abs(fm) * (1 + abs(xm)))
    return 1j * total, scale


def test_abel_plana_matches_node_loop():
    # the array evaluation sums in another order and takes numpy's exp and
    # log: within a few eps of the loop's rounding scale
    for i in range(50):
        rng = np.random.default_rng(9000 + i)
        s = complex(rng.uniform(-3.9, 0.3), rng.uniform(-3.0, 3.0))
        a = complex(rng.uniform(-0.5, 0.5))
        z = complex(rng.uniform(-3.0, 3.0), rng.uniform(0.05, 3.0))
        M = 0
        while (z + M).real < 1.5 or abs(z + M) < 2.5:
            M += 1
        want, scale = abel_plana_loop(s, a, z, M)
        assert abs(_abel_plana(s, a, z, M) - want) <= 4 * EPS * scale, (s, a, z)


def test_lerch_records_its_branch():
    assert hurwitz_lerch_detailed(6.0, 0.3, 1.7).method == "shifted"
    assert hurwitz_lerch_detailed(0.7, 0.25j, 1.7).method == "direct"
    assert hurwitz_lerch_detailed(0.7, 0.25, 1.7).method == "shifted"


@pytest.mark.parametrize("s,z", [(2 + 4e4j, 1.7), (-1.5, -2e5 + 1j)])
def test_lerch_refuses_a_long_shift(s, z):
    # the Euler-Maclaurin shift grows with |s|, the Abel-Plana one with
    # -Re z: past the budget they are refused, not summed
    with pytest.raises(RefusalError, match="shift of more than"):
        hurwitz_lerch(s, 0.3, z)


def test_lerch_negative_s_envelope():
    # the continuation stays usable down to Re s > -4, at reduced accuracy
    for s in (-2.5, -3.9):
        for a, z in ((0.45, 1.7), (0.25j, 40.5), (0.0, 6.0)):
            assert rel_err(hurwitz_lerch(s, a, z), lerch_mp(s, a, z)) < 1e-7


@pytest.mark.parametrize("s", [-4.0, -10.0, -20.0])
def test_lerch_refuses_continuation_below_envelope(s):
    # at Re s <= -4 the continuation drifts from mpmath's zeta(s, 0.6)
    # (6e-9 relative at s = -10, 6e-4 at s = -20): refused, not returned
    with pytest.raises(RefusalError):
        hurwitz_lerch(s, 0.0, 0.6)
    # the geometric direct sum for Im a > 0 is not limited
    want = complex(mp.lerchphi(mp.e ** (-0.5 * mp.pi), s, 0.6))
    assert rel_err(hurwitz_lerch(s, 0.25j, 0.6), want) < 1e-12


# ---------------------------------------------------------------------------
# Lerch asymptotics


def test_lerch_b1_at_lambda_one():
    for s in (2.5, 1.3 + 0.7j):
        b = lerch_b_coeffs(1.0, s, 3)
        assert abs(b[0]) < 1e-14
        assert abs(b[1] - (-s / 24.0)) < 1e-13
        assert abs(b[2]) < 1e-14


def test_lerch_b_closed_forms_generic_lambda():
    lam = cmath.exp(2j * math.pi * 0.3)
    s = 2.5 + 0.5j
    b = lerch_b_coeffs(lam, s, 2)
    assert abs(b[0] - 1.0 / (1.0 - lam)) < 1e-12
    assert abs(b[1] - (-(s / 2.0) * (1.0 + lam) / (1.0 - lam) ** 2)) < 1e-12


def test_lerch_b_reflection_identity():
    # lambda^{-1} b_k(lambda^{-1}, s) = (-1)^{k+1} b_k(lambda, s)
    lam = cmath.exp(2j * math.pi / 5.0)
    s = 2.5
    b_plus = lerch_b_coeffs(lam, s, 3)
    b_minus = lerch_b_coeffs(1.0 / lam, s, 3)
    for k in range(4):
        lhs = b_minus[k] / lam
        rhs = (-1) ** (k + 1) * b_plus[k]
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_lerch_asymptotic_matches_evaluator():
    s, a, z = 2.5, 0.2, 40.5
    val, bound = lerch_asymptotic(s, a, z, 3)
    want = hurwitz_lerch(s, a, z)
    diff = abs(val - want)
    assert diff <= 10.0 * abs(z) ** -5.5
    assert diff <= bound


def test_lerch_asymptotic_lambda_one_leading_term():
    # integer a switches on the t^{1-s}/(s-1) term; a sign slip there would
    # show up at the 1e-3 level against the 1e-9 scale seen here
    s, z = 2.5, 40.5
    val, bound = lerch_asymptotic(s, 0.0, z, 3)
    want = hurwitz_lerch(s, 0.0, z)
    assert abs(val - want) <= bound
    assert abs(val - want) <= 1e-8


def test_lerch_asymptotic_error_scaling():
    s, a, K = 2.5, 0.2, 3
    errs = []
    for z in (40.0, 80.0):
        val, _ = lerch_asymptotic(s, a, z, K)
        errs.append(abs(val - hurwitz_lerch(s, a, z)))
    ratio = errs[1] / errs[0]
    model = 2.0 ** -(s + K)
    assert model / 4.0 <= ratio <= model * 4.0


def test_lerch_asymptotic_sector_and_order_errors():
    with pytest.raises(DomainError):
        lerch_asymptotic(2.5, 0.2, 40.5, 4)
    with pytest.raises(DomainError):
        lerch_asymptotic(2.5, 0.2, -5 + 0.5j, 3)
