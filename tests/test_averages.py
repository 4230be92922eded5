"""Tests for eichler.averages: one-sided averages, continuation and
asymptotics."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from eichler import averages, specfun
from eichler.algebra import ARG_CUT_UP, ARG_UPPER, power_branch
from eichler.averages import (AverageSpec, average_asymptotic_coeffs,
                              average_continued, one_sided_average)
from eichler.cli import CRITERIA
from eichler.errors import DomainError, PoleError, RefusalError
from eichler.specfun import hurwitz_lerch

LAM7 = cmath.exp(2j * math.pi / 7)


def power_g(r):
    # g(z) = (iz)^{r-2}; the cut of this branch is the ray iR_{<=0}, so g is
    # analytic in a neighbourhood of both real half-lines the sums walk along
    return lambda z: power_branch(1j * z, r - 2.0, ARG_UPPER)


def rational_h(z):
    # projective representative, holomorphic near infinity: a_0 = 0.7,
    # a_1 = 2, a_2 = 1, a_3 = -0.5, ...  (poles at distance 1/2 from i)
    w = z - 1j
    return 0.7 + (2.0 * w + 1.0) / (w * w + 0.25)


def slashed_g(h, r):
    # undo the projective normalisation: g(z) = (z-i)^{r-2} h(z)
    return lambda z: power_branch(z - 1j, r - 2.0, ARG_CUT_UP) * h(z)


def term_by_term(g, lam, sign, t, tol):
    # the stopping rule of one_sided_average off the unit circle, one scalar
    # term at a time: returns (number of terms summed, sum)
    if sign == "plus":
        mult, step, w, z, out_sign = 1.0 / lam, 1.0, 1.0 + 0j, t, 1.0
    else:
        mult, step, w, z, out_sign = lam, -1.0, lam, t - 1.0, -1.0
    acc, window, flat_run = 0j, [], 0
    for n in range(10 ** 6):
        term = w * complex(g(z))
        acc += term
        m = abs(term)
        scale = max(abs(acc), 1e-300)
        flat_run = flat_run + 1 if m <= 1e-15 * scale else 0
        window = (window + [m])[-10:]
        if n >= 50:
            if flat_run >= 8:
                return n + 1, out_sign * acc
            if len(window) == 10 and window[0] > 0 and m > 0:
                rho = (m / window[0]) ** (1.0 / 9.0)
                q = min(max(rho, abs(mult)), 0.999999)
                tail = m * q / (1.0 - q)
                if tail <= tol * scale:
                    return n + 1, out_sign * acc
        w *= mult
        z += step
    raise AssertionError("reference sum did not stop")


def cut_g(r, cut):
    # power_g, but exactly zero from Re z = cut on: flat runs of a chosen start
    g = power_g(r)
    return lambda z: np.where(np.real(z) < cut, g(z), 0.0)


# (lam, sign, r, g, tolerances): stops spread over the first block seams
# (n = 64, 192, 448, 960), through each branch of the stopping rule
SEAM_CASES = [
    (1.02 + 0j, "plus", 4.0, power_g(4.0), np.geomspace(1e-2, 1e-9, 60)),
    (0.98 + 0j, "minus", 4.0, power_g(4.0), np.geomspace(1e-2, 1e-9, 60)),
] + [(1.05 + 0j, "plus", 0.7, cut_g(0.7, 2.5 + cut), [1e-300])
     for cut in (55, 57, 58, 60, 63, 64, 65, 183, 185, 190, 191, 192, 441, 445)]


def lerch_average(lam, sign, r, t):
    # the average of power_g(r) through mpmath's Lerch transcendent: for
    # Re t > 0, (i(t+n))^{r-2} = i^{r-2} (t+n)^{r-2}; for Re t < 0,
    # (i(t-m))^{r-2} = (-i)^{r-2} (m-t)^{r-2}
    with mp.workdps(20):
        lam, r, t = mp.mpc(lam), mp.mpc(r), mp.mpc(t)
        if sign == "plus":
            v = mp.exp(0.5j * mp.pi * (r - 2)) * mp.lerchphi(1 / lam, 2 - r, t)
        else:
            v = -mp.exp(-0.5j * mp.pi * (r - 2)) * lam * mp.lerchphi(lam, 2 - r, 1 - t)
        return complex(v)


def seeded_r_t(rng, sign):
    # an admissible weight, Re r in [-3, 0.95], and a start point t on the
    # side the sum walks away from
    r = complex(rng.uniform(-3.0, 0.95), rng.uniform(-1.0, 1.0))
    t = complex(rng.uniform(0.5, 4.0), rng.uniform(-1.0, 1.0))
    return r, (t if sign == "plus" else -t.conjugate())


# (lam, sign, r, t, tolerances) on the unit circle: two near lam = 1, where
# |c| = |mu/(1-mu)| is 20 and 100 and the head must grow to thousands of
# terms, one near lam = -1 on the minus side, and a tolerance sweep at e^{0.3i}
UNIT_CASES = [
    (cmath.exp(0.05j), "plus", 0.3, 2.5 - 0.3j, [1e-10]),
    (cmath.exp(0.01j), "plus", 0.3, 2.5 - 0.3j, [1e-10]),
    (cmath.exp(-2.9j), "minus", 0.5 + 0.4j, -1.5 - 0.7j, [1e-10]),
    (cmath.exp(0.3j), "plus", 0.3, 2.5 - 0.3j, np.geomspace(1e-2, 1e-13, 23)),
]


# ---------------------------------------------------------------------------
# one-sided averages: direct summation


# one admissible point per convergence cell: (lam, sign, r, t, tol)
CELLS = [
    (1.5 + 0j, "plus", 0.7 + 0j, 2.5 - 0.3j, 1e-10),
    (LAM7, "plus", 0.3 + 0j, 2.5 - 0.3j, 1e-10),
    (1.0 + 0j, "plus", -1.0 + 0j, 2.5 - 0.3j, 1e-10),
    (LAM7, "minus", 0.3 + 0j, -2.5 - 0.3j, 1e-10),
    (1.0 + 0j, "minus", -1.0 + 0j, -2.5 - 0.3j, 1e-10),
    (0.6 + 0j, "minus", 0.7 + 0j, -2.5 - 0.3j, 1e-10),
]


# points of g each cell's sum evaluates, at t and at t+1: the term-by-term
# stopping index off the unit circle; on it away from 1 (the LAM7 cells) the
# first head of 50 terms plus the 27-point Euler-Boole difference window; at
# lam = 1 every point up to N = 400, the first of the doublings 25, 50, ...
# at which an extrapolant moves by less than tol from its value at N/2
STOP_INDEX = [(51, 51), (77, 77), (400, 400),
              (77, 77), (400, 400), (51, 51)]


class TestOneSidedAverage:
    def test_zero_function(self):
        spec = AverageSpec(1.5 + 0j, "plus", 0.7 + 0j, lambda z: 0j)
        assert one_sided_average(spec, 2.0 - 0.5j) == 0

    @pytest.mark.parametrize("lam,sign,r,t,tol", CELLS)
    def test_difference_equation(self, lam, sign, r, t, tol):
        # Av(g)(t) - lam^{-1} Av(g)(t+1) = g(t) in every convergence cell
        g = power_g(r)
        spec = AverageSpec(lam, sign, r, g)
        res = (one_sided_average(spec, t, tol=tol)
               - one_sided_average(spec, t + 1, tol=tol) / lam - g(t))
        assert abs(res) <= 1e-8

    @pytest.mark.parametrize("cell,counts", list(zip(CELLS, STOP_INDEX)))
    def test_stopping_index(self, cell, counts):
        # the sum evaluates exactly N points: a budget of N suffices and one
        # point less is refused
        lam, sign, r, t, tol = cell
        spec = AverageSpec(lam, sign, r, power_g(r))
        for u, N in zip((t, t + 1), counts):
            one_sided_average(spec, u, tol=tol, max_terms=N)
            with pytest.raises(RefusalError):
                one_sided_average(spec, u, tol=tol, max_terms=N - 1)

    @pytest.mark.parametrize("lam,sign,r,g,tols", SEAM_CASES)
    def test_matches_term_by_term_sum(self, lam, sign, r, g, tols):
        # same stopping index (a budget of N suffices, N-1 is refused) and the
        # same sum as the scalar loop, wherever the stop falls in a block
        t = 2.5 - 0.3j if sign == "plus" else -2.5 - 0.3j
        spec = AverageSpec(lam, sign, r, g)
        for tol in tols:
            N, want = term_by_term(g, lam, sign, t, tol)
            got = one_sided_average(spec, t, tol=tol, max_terms=N)
            assert abs(got - want) <= 1e-13 * abs(want), (tol, N)
            with pytest.raises(RefusalError):
                one_sided_average(spec, t, tol=tol, max_terms=N - 1)

    @pytest.mark.parametrize("i", range(60))
    def test_unit_circle_matches_mpmath(self, i):
        # seeded cells on |lam| = 1 away from 1, at tol 1e-13
        rng = np.random.default_rng(7000 + i)
        sign = ("plus", "minus")[i % 2]
        lam = cmath.exp(1j * rng.uniform(0.3, 2.0 * math.pi - 0.3))
        r, t = seeded_r_t(rng, sign)
        got = one_sided_average(AverageSpec(lam, sign, r, power_g(r)), t, tol=1e-13)
        want = lerch_average(lam, sign, r, t)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("lam,sign,r,t,tols", UNIT_CASES)
    def test_unit_circle_cases_meet_tol(self, lam, sign, r, t, tols):
        spec = AverageSpec(lam, sign, r, power_g(r))
        want = lerch_average(lam, sign, r, t)
        for tol in tols:
            assert abs(one_sided_average(spec, t, tol=tol) - want) <= tol * abs(want)

    @pytest.mark.parametrize("i", range(40))
    def test_lambda_one_matches_mpmath(self, i):
        # seeded cells at lam = 1, where the averages are Hurwitz zeta values,
        # at tol 1e-12
        sign = ("plus", "minus")[i % 2]
        r, t = seeded_r_t(np.random.default_rng(8000 + i), sign)
        got = one_sided_average(AverageSpec(1.0, sign, r, power_g(r)), t, tol=1e-12)
        want = lerch_average(1.0, sign, r, t)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("r,t", [(0.5, 3.0 - 0.2j), (0.9 + 0.3j, 2.0 + 0.1j)])
    def test_lambda_one_near_re_r_one(self, r, t):
        # the tail falls only like N^{Re r-1}: a term-by-term sum needs
        # millions of terms here, the extrapolation a few thousand
        got = one_sided_average(AverageSpec(1.0, "plus", r, power_g(r)), t, tol=1e-10)
        want = lerch_average(1.0, "plus", r, t)
        assert abs(got - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize("sign,t", [("plus", -24.5 + 0j), ("plus", -60.3 + 0.2j),
                                        ("minus", 25.5 + 0j), ("minus", 60.3 + 0.2j)])
    def test_lambda_one_walks_past_the_origin(self, sign, t):
        # the shifted points pass 0, so the first u_N have Re u_N <= 0 (u_25 = 0
        # at t = -24.5 and 25.5); g = z^-3 has no branch: the reference is a
        # 30-digit head of 1000 terms plus a Hurwitz zeta tail
        with mp.workdps(30):
            T = mp.mpc(t)
            if sign == "plus":
                want = mp.fsum((T + n) ** -3 for n in range(1000)) + mp.zeta(3, T + 1000)
            else:
                want = mp.zeta(3, 1001 - T) - mp.fsum((T - m) ** -3 for m in range(1, 1001))
            want = complex(want)
        spec = AverageSpec(1.0, sign, -1.0, lambda z: z ** -3.0)
        assert abs(one_sided_average(spec, t, tol=1e-10) - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize("sign,true_r,r,tol", [
        ("plus", -0.5, -1.0, 1e-10),
        ("minus", -0.5, -1.0, 1e-10),
        ("plus", -0.5, 0.3, 1e-8),
        ("plus", -2.0, -0.7, 1e-12),
    ])
    def test_lambda_one_misdeclared_exponent(self, sign, true_r, r, tol):
        # g = (iz)^{true_r-2} under a spec declaring r: the tail does not
        # follow the exponents the extrapolation assumes, so the sum must be
        # refused or still meet tol
        t = 2.5 - 0.3j if sign == "plus" else -2.5 - 0.3j
        spec = AverageSpec(1.0, sign, r, power_g(true_r))
        try:
            got = one_sided_average(spec, t, tol=tol)
        except RefusalError:
            return
        want = lerch_average(1.0, sign, true_r, t)
        assert abs(got - want) <= tol * abs(want)

    @pytest.mark.parametrize("g", [lambda z: 1.0, lambda z: 1.0 + 1.0 / z])
    def test_unit_circle_refuses_non_decaying_g(self, g):
        # sum lam^{-n} g(t+n) diverges; its Abel sum must not be returned
        with pytest.raises(RefusalError):
            one_sided_average(AverageSpec(LAM7, "plus", 0.3, g), 2.5 - 0.3j)

    def test_translation(self):
        # Av(g)(t+1) = lam (Av(g)(t) - g(t))
        for lam, sign, r, t, tol in (CELLS[0], CELLS[5]):
            g = power_g(r)
            spec = AverageSpec(lam, sign, r, g)
            lhs = one_sided_average(spec, t + 1, tol=tol)
            rhs = lam * (one_sided_average(spec, t, tol=tol) - g(t))
            assert abs(lhs - rhs) <= 1e-8

    def test_linearity(self):
        r = 0.7 + 0j
        g1, g2 = power_g(r), power_g(r - 0.5)
        a, b = 2.0 - 1.0j, 0.3 + 0.2j
        combo = lambda z: a * g1(z) + b * g2(z)
        t = 3.0 - 0.4j
        val = one_sided_average(AverageSpec(1.5, "plus", r, combo), t, tol=1e-11)
        parts = (a * one_sided_average(AverageSpec(1.5, "plus", r, g1), t, tol=1e-11)
                 + b * one_sided_average(AverageSpec(1.5, "plus", r, g2), t, tol=1e-11))
        assert abs(val - parts) <= 1e-9

    @pytest.mark.parametrize("lam,sign,r", [
        (1.5 + 0j, "minus", 0.7 + 0j),   # |lam|>1 only converges on the plus side
        (0.6 + 0j, "plus", 0.7 + 0j),
        (LAM7, "plus", 1.4 + 0j),        # unit lam needs Re r < 1
        (1.0 + 0j, "minus", 2.0 + 0j),
    ])
    def test_outside_cell_raises(self, lam, sign, r):
        spec = AverageSpec(lam, sign, r, power_g(r))
        with pytest.raises(DomainError):
            one_sided_average(spec, 2.0 - 0.3j)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            AverageSpec(0j, "plus", 0.5 + 0j, power_g(0.5))
        with pytest.raises(DomainError):
            AverageSpec(1.5 + 0j, "both", 0.5 + 0j, power_g(0.5))


# ---------------------------------------------------------------------------
# analytic continuation through Hurwitz-Lerch sums


class TestAverageContinued:
    @pytest.mark.parametrize("sign,t", [("plus", 5.0 - 0.4j),
                                        ("minus", -5.0 - 0.4j)])
    def test_matches_direct_sum(self, sign, t):
        # overlap region: r = 0.3, |lam| = 1 converges directly as well
        r = 0.3
        g = slashed_g(rational_h, r)
        direct = one_sided_average(AverageSpec(LAM7, sign, r, g), t, tol=2e-9)
        cont = average_continued(rational_h, r, LAM7, sign, t, tol=1e-10)
        assert abs(cont - direct) <= 1e-8

    @pytest.mark.parametrize("lam", [LAM7, -1.0 + 0j, 1.0 + 0j])
    @pytest.mark.parametrize("sign,t", [("plus", 3.0 - 0.2j),
                                        ("minus", -3.0 - 0.2j)])
    def test_continued_difference_equation(self, lam, sign, t):
        # r = 1.6 is outside every direct-summation cell for |lam| = 1
        r = 1.6
        g = slashed_g(rational_h, r)
        av = lambda u: average_continued(rational_h, r, lam, sign, u, tol=1e-10)
        assert abs(av(t) - av(t + 1) / lam - g(t)) <= 1e-7

    def test_order_stability(self):
        v8 = average_continued(rational_h, 0.7, -1.0, "plus", 4.0 - 0.3j, N=8)
        v11 = average_continued(rational_h, 0.7, -1.0, "plus", 4.0 - 0.3j, N=11)
        assert abs(v8 - v11) <= 1e-8

    @pytest.mark.parametrize("h", [rational_h, lambda z: 0.7 + (z - 1j) ** -3],
                             ids=["rational", "terminating"])
    @pytest.mark.parametrize("r", [1.6, 2.5, 3.5, 5.5])
    @pytest.mark.parametrize("sign,t", [("plus", 3.0 - 0.2j),
                                        ("minus", -3.0 - 0.2j)])
    def test_remainder_at_rounding_level(self, h, r, sign, t):
        # at N = 16 (and for the terminating h at any N) h - poly is rounding
        # noise ~ eps |z|^{Re r-2}, which does not fall for Re r >= 2: the
        # sum must still stop once the noise is negligible, not be refused
        v8 = average_continued(h, r, LAM7, sign, t, N=8, tol=1e-10)
        v16 = average_continued(h, r, LAM7, sign, t, N=16, tol=1e-10)
        assert abs(v16 - v8) <= 1e-9 * abs(v8)

    def test_refuses_weight_outside_lerch_envelope(self):
        # Re r >= 6 would need H(2-r, ...) at Re s <= -4
        with pytest.raises(RefusalError, match="r = "):
            average_continued(rational_h, 6.5, LAM7, "plus", 3.0 - 0.2j)
        average_continued(rational_h, 5.9, LAM7, "plus", 3.0 - 0.2j)

    def test_vanishing_representative_at_integer_r(self):
        # h(oo) = 0 pushes the first pole to r = 2, so r = 1 is fine and the
        # average collapses to a single Lerch value
        h = lambda z: 1.0 / (z - 1j)
        t = -2.0j
        got = average_continued(h, 1.0, -1.0, "plus", t)
        assert abs(got - hurwitz_lerch(2.0, 0.5, t - 1j)) <= 1e-10
        with pytest.raises(PoleError):
            average_continued(h, 2.0, -1.0, "plus", t)

    def test_pole_and_domain_errors(self):
        with pytest.raises(PoleError):
            average_continued(rational_h, 1.0, -1.0, "plus", 4.0 - 0.3j)
        with pytest.raises(PoleError):
            average_continued(rational_h, 2.0, LAM7, "minus", -4.0 - 0.3j)
        with pytest.raises(DomainError):
            average_continued(rational_h, 0.7, 0.9, "plus", 4.0 - 0.3j)


def test_criterion_6_work_count(monkeypatch):
    # the full criterion 6 evaluates g and h at no more than 10,000 points
    # (its lam = 1 sums took ~970k under a term-by-term stopping rule)
    count = 0
    real = averages._values

    def counted(f, z):
        nonlocal count
        count += z.size
        return real(f, z)

    monkeypatch.setattr(averages, "_values", counted)
    crit = {num: fn for num, _, fn in CRITERIA}[6]
    crit(True)
    assert 0 < count <= 10_000


def test_criteria_5_6_lerch_head_terms(monkeypatch):
    # the full criteria 5 and 6 sum no more than 5,000 Hurwitz-Lerch head
    # terms (a plain head-plus-integral sum for Re s >= 2.5 took 100,386)
    terms = 0
    real = specfun._lerch_head

    def counted(s, a, z, M):
        nonlocal terms
        terms += max(M, 0)
        return real(s, a, z, M)

    monkeypatch.setattr(specfun, "_lerch_head", counted)
    criteria = {num: fn for num, _, fn in CRITERIA}
    criteria[5](True)
    criteria[6](True)
    assert 0 < terms <= 5_000


# ---------------------------------------------------------------------------
# asymptotic expansion coefficients


def fit_coeffs(lam, sign, r, ts, tol):
    # sample Av(g) for g(z) = (iz)^{r-2} (so a_0 = 1, a_1 = a_2 = 0) and fit
    # (it)^{2-r}-normalised values against [tau, 1, 1/tau], tau = t - 1/2
    g = power_g(r)
    rows, ys = [], []
    for t in ts:
        av = one_sided_average(AverageSpec(lam, sign, r, g), t, tol=tol)
        tau = t - 0.5
        y = (av * power_branch(1j * t, 2.0 - r, ARG_UPPER)
             * (1.0 - 0.5 / t) ** (2.0 - r))
        rows.append([tau, 1.0, 1.0 / tau])
        ys.append(y)
    return np.linalg.solve(np.array(rows, dtype=complex),
                           np.array(ys, dtype=complex))


class TestAsymptoticCoeffs:
    def test_table_unit_lambda(self):
        lam = cmath.exp(2j * math.pi / 5)
        r = 0.4 + 0.1j
        cm1, c0, c1 = average_asymptotic_coeffs(1.0, 0.0, 0.0, r, lam)
        assert cm1 == 0
        assert abs(c0 - lam / (lam - 1.0)) <= 1e-14
        assert abs(c1 - (r - 2.0) * lam * (lam + 1.0)
                   / (2.0 * (lam - 1.0) ** 2)) <= 1e-14
        _, c0b, c1b = average_asymptotic_coeffs(0.0, 1.0, 0.0, r, lam)
        assert abs(c0b) <= 1e-14 and abs(c1b - lam / (lam - 1.0)) <= 1e-14

    def test_table_lambda_one(self):
        r = 0.5
        cm1, c0, c1 = average_asymptotic_coeffs(1.0, 0.0, 0.0, r, 1.0)
        assert abs(cm1 - 1.0 / (1.0 - r)) <= 1e-14
        assert abs(c0) <= 1e-14
        assert abs(c1 - (r - 2.0) / 24.0) <= 1e-14
        _, c0b, _ = average_asymptotic_coeffs(0.0, 1.0, 0.0, r, 1.0)
        assert abs(c0b - 1.0 / (2.0 - r)) <= 1e-14

    def test_pole_and_domain_errors(self):
        for r in (1.0, 2.0, 3.0):
            with pytest.raises(PoleError):
                average_asymptotic_coeffs(1.0, 0.0, 0.0, r, 1.0)
        with pytest.raises(DomainError):
            average_asymptotic_coeffs(1.0, 0.0, 0.0, 0.5, 0.9)

    def test_empirical_fit_lambda_one(self):
        # c_{-1}, c_0 recovered from samples at t = 50, 100, 200
        r = -1.5
        want = average_asymptotic_coeffs(1.0, 0.0, 0.0, r, 1.0)
        got = fit_coeffs(1.0, "plus", r, [50.0, 100.0, 200.0], 1e-7)
        scale = abs(want[0])
        assert abs(got[0] - want[0]) / scale <= 1e-3
        assert abs(got[1] - want[1]) / scale <= 1e-3

    def test_empirical_fit_lambda_minus_one(self):
        r = -1.5
        want = average_asymptotic_coeffs(1.0, 0.0, 0.0, r, -1.0)
        got = fit_coeffs(-1.0, "plus", r, [50.0, 100.0, 200.0], 1e-9)
        scale = abs(want[1])
        assert abs(got[0] - want[0]) / scale <= 1e-3
        assert abs(got[1] - want[1]) / scale <= 1e-3

    def test_both_signs_same_coefficients(self):
        # the expansions on the two real half-lines carry identical c_k
        r = -1.5
        ts = [100.0, 200.0, 400.0]
        want = average_asymptotic_coeffs(1.0, 0.0, 0.0, r, LAM7)
        scale = max(abs(w) for w in want)
        plus = fit_coeffs(LAM7, "plus", r, ts, 1e-9)
        minus = fit_coeffs(LAM7, "minus", r, [-t for t in ts], 1e-9)
        for k in range(2):
            assert abs(plus[k] - minus[k]) / scale <= 1e-3
            assert abs(plus[k] - want[k]) / scale <= 1e-3
