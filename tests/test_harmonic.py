"""Tests for eichler.harmonic: polar families, shadows, kernel, Green's form."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from eichler.algebra import IDENTITY, S, T, GroupElement, slash, slash_multiplier
from eichler.cocycles import FormEvaluator, eichler_cocycle
from eichler.errors import DomainError, PoleError, RefusalError
from eichler import harmonic
from eichler.harmonic import (PolarIndex, bol_operator, cauchy_formula, dz_fd,
                              dzbar_fd, e2_star, f_rn, germ_factor, kernel_K,
                              kernel_restriction, laplacian_r, polar_eval,
                              polar_expansion_partial, polar_shadow, q_lift,
                              resolvent_Q, shadow)
from eichler.quadrature import ContourSpec, contour_integral
from eichler.specfun import gauss_2f1, pochhammer

RNG_SEED = 20260814

R_GEN = 0.6 + 0.2j
Z_GEN = 1.1 + 0.8j  # 4y/|z+i|^2 = 0.72: clear of both hypergeometric caps


def disk_point(w: complex) -> complex:
    # inverse Cayley map: z with (z-i)/(z+i) = w
    return 1j * (1 + w) / (1 - w)


# ---------------------------------------------------------------------------
# finite differences


class TestFiniteDifferences:
    def test_wirtinger_derivatives(self):
        z = Z_GEN
        assert abs(dz_fd(lambda u: u * u, z) - 2 * z) < 1e-8
        assert abs(dzbar_fd(lambda u: u * u, z)) < 1e-8
        # anti-holomorphic: d_zbar (zbar^2) = 2 zbar, d_z = 0
        g = lambda u: u.conjugate() ** 2
        assert abs(dzbar_fd(g, z) - 2 * z.conjugate()) < 1e-8
        assert abs(dz_fd(g, z)) < 1e-8

    def test_stencil_leaves_half_plane(self):
        with pytest.raises(DomainError):
            dz_fd(lambda u: u, 0.5 + 5e-5j)


# ---------------------------------------------------------------------------
# Laplacian and shadow


class TestLaplacian:
    def test_holomorphic_annihilated(self):
        assert abs(laplacian_r(lambda u: u * u, R_GEN, Z_GEN)) < 1e-6

    def test_power_of_y_annihilated(self):
        r = R_GEN
        F = lambda u: cmath.exp((1 - r) * math.log(u.imag))
        assert abs(laplacian_r(F, r, Z_GEN)) < 1e-5

    def test_imaginary_part(self):
        # Delta_r(y) = 2iry d_zbar(y) = 2iry (i/2) = -ry; FD roundoff floor
        # is eps/h^2 ~ 1e-8, amplified by y^2
        for z in (Z_GEN, -0.4 + 1.7j):
            got = laplacian_r(lambda u: u.imag, R_GEN, z)
            assert abs(got - (-R_GEN * z.imag)) < 1e-6

    def test_harmonic_families(self):
        # every implemented family is annihilated at 3 generic points
        r = R_GEN
        tau = 0.3 + 0.9j
        z2 = -0.5 + 4j  # far enough that the resolvent argument clears the cap
        fams = [
            (r, lambda u: cmath.exp((1 - r) * math.log(u.imag))),
            (r, lambda u: polar_eval(PolarIndex(r, 2), "P", u)),
            (r, lambda u: polar_eval(PolarIndex(r, -2), "M", u)),
            (r, lambda u: polar_eval(PolarIndex(r, -2), "H", u)),
            (r, lambda u: kernel_K(r, u, tau)),
            (r, lambda u: resolvent_Q(r, z2, u)),
            (2.0, e2_star),
        ]
        points = (1.1 + 0.8j, -0.9 + 1.3j, 0.25 + 2.2j)
        for rr, F in fams:
            for z in points:
                assert abs(laplacian_r(F, rr, z)) < 1e-4
        # F_{r,n} grows like e^{2 pi y}; keep its scale moderate so the
        # absolute FD bound stays meaningful
        F = lambda u: f_rn(0.4, 1, u)
        for z in (0.3 + 0.5j, -0.8 + 0.7j, 0.1 + 0.9j):
            assert abs(laplacian_r(F, 0.4, z)) < 1e-4


class TestShadow:
    def test_holomorphic_killed(self):
        assert abs(shadow(lambda u: u ** 3 - 2j, R_GEN, Z_GEN)) < 1e-7

    @pytest.mark.parametrize("mu", [-2, 0, 1])
    def test_shadow_M_closed_form(self, mu):
        idx = PolarIndex(R_GEN, mu)
        fd = shadow(lambda u: polar_eval(idx, "M", u), R_GEN, Z_GEN)
        cf = polar_shadow(idx, "M", Z_GEN)
        assert abs(fd - cf) < 1e-5 * abs(cf)

    @pytest.mark.parametrize("mu", [-1, -3])
    def test_shadow_H_closed_form(self, mu):
        idx = PolarIndex(R_GEN, mu)
        fd = shadow(lambda u: polar_eval(idx, "H", u), R_GEN, Z_GEN)
        cf = polar_shadow(idx, "H", Z_GEN)
        assert abs(fd - cf) < 1e-5 * abs(cf)

    def test_shadow_P_zero(self):
        idx = PolarIndex(R_GEN, 2)
        assert polar_shadow(idx, "P", Z_GEN) == 0
        assert abs(shadow(lambda u: polar_eval(idx, "P", u), R_GEN, Z_GEN)) < 1e-7

    def test_shadow_kernel(self):
        # xi_r K_r(.; tau) = (conj r - 1) ((z - conj tau)/(2i))^{conj r - 2},
        # principal branch: the base has positive real part
        tau = 0.3 + 0.9j
        fd = shadow(lambda u: kernel_K(R_GEN, u, tau), R_GEN, Z_GEN)
        rb = R_GEN.conjugate()
        cf = (rb - 1.0) * ((Z_GEN - tau.conjugate()) / 2j) ** (rb - 2.0)
        assert abs(fd - cf) < 1e-5 * abs(cf)

    def test_shadow_weight_conjugation(self):
        # xi_r lands in weight 2 - conj(r): its output must be holomorphic
        idx = PolarIndex(R_GEN, -2)
        G = lambda u: polar_shadow(idx, "M", u)
        assert abs(dzbar_fd(G, Z_GEN)) < 1e-6


# ---------------------------------------------------------------------------
# polar families


class TestPolarEval:
    def test_P_closed_form(self):
        z = Z_GEN
        got = polar_eval(PolarIndex(R_GEN, 0), "P", z)
        assert abs(got - (2j / (z + 1j)) ** R_GEN) < 1e-14

    def test_kummer_relation(self):
        # H = mu/(1-r) M + |mu|!/(1-r)_{|mu|} P, checked at mu=-3, r=2/3
        mu, r = -3, 2.0 / 3.0
        idx = PolarIndex(r, mu)
        for z in (Z_GEN, -0.8 + 1.4j):
            h = polar_eval(idx, "H", z)
            m = polar_eval(idx, "M", z)
            p = polar_eval(idx, "P", z)
            comb = mu / (1 - r) * m + math.factorial(-mu) / pochhammer(1 - r, -mu) * p
            assert abs(h - comb) < 1e-10

    def test_integer_weight_window(self):
        # M at integer r >= 2 exists only for 1-r <= mu <= -1
        polar_eval(PolarIndex(3.0, -1), "M", Z_GEN)
        polar_eval(PolarIndex(3.0, -2), "M", Z_GEN)
        with pytest.raises(PoleError):
            polar_eval(PolarIndex(3.0, 0), "M", Z_GEN)
        with pytest.raises(PoleError):
            polar_eval(PolarIndex(3.0, -3), "M", Z_GEN)

    def test_H_needs_negative_mu(self):
        with pytest.raises(DomainError):
            polar_eval(PolarIndex(R_GEN, 0), "H", Z_GEN)

    def test_argument_caps(self):
        # M refuses close to i, H refuses close to the real line
        with pytest.raises(RefusalError):
            polar_eval(PolarIndex(R_GEN, -1), "M", 0.05 + 1.1j)
        with pytest.raises(RefusalError):
            polar_eval(PolarIndex(R_GEN, -1), "H", 5.0 + 0.1j)

    def test_mu_must_be_integer(self):
        with pytest.raises(DomainError):
            PolarIndex(R_GEN, 0.5)

    def test_lower_half_plane_rejected(self):
        with pytest.raises(DomainError):
            polar_eval(PolarIndex(R_GEN, 0), "P", 0.3 - 1j)

    def test_quotient_regularity(self):
        # M/f_r is a Cauchy sequence down to the boundary, within 10*(Im z)
        idx = PolarIndex(R_GEN, -2)
        t = 0.7
        vals = [polar_eval(idx, "M", t + 1j * eps) / germ_factor(R_GEN, t + 1j * eps)
                for eps in (1e-2, 1e-3, 1e-4)]
        assert abs(vals[1] - vals[0]) < 10 * 1e-2
        assert abs(vals[2] - vals[1]) < 10 * 1e-3
        # the germ restriction rsp_r M_{r,mu}(t) = ((t-i)/(t+i))^{mu+1}
        want = ((t - 1j) / (t + 1j)) ** (idx.mu + 1)
        assert abs(vals[2] - want) < 1e-3 * abs(want)


class TestGermFactor:
    def test_equals_kernel_at_i(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(5):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.3, 3))
            assert abs(germ_factor(R_GEN, z) - kernel_K(R_GEN, z, 1j)) < 1e-13

    def test_pole_at_i(self):
        with pytest.raises(PoleError):
            germ_factor(R_GEN, 1j)


# ---------------------------------------------------------------------------
# kernel function


class TestKernel:
    def test_equivariance(self):
        # (cz+d)^{-r} (c tau + d)^{r-2} K_r(gz; g tau) = K_r(z; tau)
        r = R_GEN
        z, tau = Z_GEN, 0.3 + 0.9j
        for g in (S, T, GroupElement(2, 1, 1, 1)):
            lhs = slash(lambda u: kernel_K(r, u, g.apply(tau)), r, g, z) \
                * g.cd(tau) ** (complex(r) - 2.0)
            assert abs(lhs - kernel_K(r, z, tau)) < 1e-9

    def test_pole_on_diagonal(self):
        with pytest.raises(PoleError):
            kernel_K(R_GEN, Z_GEN, Z_GEN)

    def test_restriction_boundary_limit(self):
        r, tau, t = R_GEN, 0.3 + 0.9j, 0.7
        want = kernel_restriction(r, tau, t)
        z = t + 1e-4j
        got = kernel_K(r, z, tau) / germ_factor(r, z)
        assert abs(got - want) < 1e-4 * abs(want)

    def test_restriction_closed_form(self):
        tau, t = 0.3 + 0.9j, -1.2
        want = ((tau - t) / (1j - t)) ** (complex(R_GEN) - 2.0)
        assert abs(kernel_restriction(R_GEN, tau, t) - want) < 1e-14


# ---------------------------------------------------------------------------
# polar expansion of the kernel


class TestPolarExpansion:
    W_Z = 0.8 * cmath.exp(0.7j)
    W_T = 0.3 * cmath.exp(-1.1j)

    def test_regime_one_matches_kernel(self):
        r = 0.5 + 0.1j
        z, tau = disk_point(self.W_Z), disk_point(self.W_T)
        got = polar_expansion_partial(r, z, tau, terms=40)
        assert abs(got - kernel_K(r, z, tau)) < 1e-8

    def test_regime_two_matches_kernel(self):
        r = 0.5 + 0.1j
        z, tau = disk_point(self.W_T), disk_point(self.W_Z)  # swapped moduli
        got = polar_expansion_partial(r, z, tau, terms=40)
        assert abs(got - kernel_K(r, z, tau)) < 1e-8

    def test_geometric_decay(self):
        # truncation error decays like (|w(tau)|/|w(z)|)^M
        r = 0.5 + 0.1j
        z, tau = disk_point(self.W_Z), disk_point(self.W_T)
        K = kernel_K(r, z, tau)
        e10 = abs(polar_expansion_partial(r, z, tau, terms=10) - K)
        e15 = abs(polar_expansion_partial(r, z, tau, terms=15) - K)
        expect = (0.8 / 0.3) ** 5
        assert expect / 3 < e10 / e15 < expect * 3

    def test_integer_weight_finite_sum(self):
        z, tau = disk_point(self.W_Z), disk_point(self.W_T)
        got = polar_expansion_partial(3.0, z, tau, terms=40)
        assert abs(got - kernel_K(3.0, z, tau)) < 1e-10

    def test_equal_moduli_rejected(self):
        z = disk_point(0.5 * cmath.exp(0.4j))
        tau = disk_point(0.5 * cmath.exp(-0.9j))
        with pytest.raises(DomainError):
            polar_expansion_partial(R_GEN, z, tau)

    def test_power_of_y_identities(self):
        # both finite polar resolutions of y^{1-r} at r=3
        z = Z_GEN
        y = z.imag
        via_h = sum(pochhammer(-2.0, nu) / math.factorial(nu)
                    * polar_eval(PolarIndex(3.0, -nu), "H", z) for nu in (1, 2)) \
            + (2j / (z + 1j)) ** 2
        via_m = -sum(pochhammer(-1.0, nu) / math.factorial(nu)
                     * polar_eval(PolarIndex(3.0, -nu - 1), "M", z) for nu in (0, 1)) \
            + (2j / (z - 1j)) ** 2
        assert abs(via_h - y ** -2) < 1e-10
        assert abs(via_m - y ** -2) < 1e-10


# ---------------------------------------------------------------------------
# resolvent and Green's form


class TestResolvent:
    def test_translation_invariance(self):
        # point-pair invariant under g=T
        r = R_GEN
        z1, z2 = Z_GEN, -0.2 + 2.1j
        got = resolvent_Q(r, z1 + 1, z2 + 1)
        assert abs(got - resolvent_Q(r, z1, z2)) < 1e-9

    def test_general_equivariance(self):
        # (cz1+d)^r (cz2+d)^{-r} Q(g z1, g z2) = Q(z1, z2)
        r = R_GEN
        z1, z2 = Z_GEN, -0.2 + 2.1j
        for g in (S, GroupElement(2, 1, 1, 1)):
            lhs = g.cd(z1) ** complex(r) * g.cd(z2) ** (-complex(r)) \
                * resolvent_Q(r, g.apply(z1), g.apply(z2))
            assert abs(lhs - resolvent_Q(r, z1, z2)) < 1e-9

    def test_harmonic_in_second_slot(self):
        F = lambda u: resolvent_Q(R_GEN, Z_GEN, u)
        assert abs(laplacian_r(F, R_GEN, -0.2 + 2.1j)) < 1e-4

    def test_companion_equation_first_slot(self):
        # 4y^2 d_z d_zbar Q + 2iry d_zbar Q + r Q = 0 in z1
        r, z, z2 = R_GEN, Z_GEN, -0.2 + 2.1j
        F = lambda u: resolvent_Q(r, u, z2)
        h = harmonic._FD_STEP
        lap = (F(z + h) + F(z - h) + F(z + 1j * h) + F(z - 1j * h) - 4 * F(z)) / (h * h)
        val = z.imag ** 2 * lap + 2j * r * z.imag * dzbar_fd(F, z) + r * F(z)
        assert abs(val) < 1e-4

    def test_pole_and_integer_weight(self):
        with pytest.raises(PoleError):
            resolvent_Q(R_GEN, Z_GEN, Z_GEN)
        with pytest.raises(PoleError):
            resolvent_Q(2.0, Z_GEN, -0.2 + 2.1j)


def _q_mp(r, x1, y1, z2):
    # Q_r(x1 + i y1, z2) = M_{r,0}(u) from mpmath's 2F1
    u = (mp.mpc(z2) - x1) / y1
    ub = mp.conj(u)
    x = 1 - abs((u - 1j) / (u + 1j)) ** 2
    core = 2j / (u + 1j) * ((ub - 1j) / (ub - u)) ** (r - 1)
    return core * mp.hyp2f1(1, 1 - r, 2 - r, x)


class TestResolventDzbar:
    """d_zbar1 Q_r in closed form, from the one series that gives Q_r."""

    RS = (0.7 + 0.3j, 0.4 + 0.2j, -1.5, 0.5)

    @pytest.mark.parametrize("r", RS)
    def test_against_mpmath_derivative(self, r):
        rng = np.random.default_rng(RNG_SEED)
        seen = 0
        with mp.workdps(40):
            while seen < 6:
                z1 = complex(rng.uniform(-1, 1), rng.uniform(0.3, 2))
                z2 = complex(rng.uniform(-1, 1), rng.uniform(0.3, 2))
                u = (z2 - z1.real) / z1.imag
                if not 0.04 <= 1 - abs((u - 1j) / (u + 1j)) ** 2 <= 0.95:
                    continue
                seen += 1
                x1, y1, rr = mp.mpf(z1.real), mp.mpf(z1.imag), mp.mpc(r)
                fx = mp.diff(lambda t: _q_mp(rr, t, y1, z2), x1)
                fy = mp.diff(lambda t: _q_mp(rr, x1, t, z2), y1)
                want = complex((fx + 1j * fy) / 2)
                Q, got = harmonic._resolvent_dzbar(complex(r), z1, z2)
                assert Q == resolvent_Q(r, z1, z2)
                assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("r", RS)
    def test_slope_against_mpmath(self, r):
        # H' = (ab/c) 2F1(a+1, b+1; c+1; x) (DLMF 15.5.1); the relation's
        # rounding grows like eps/x, so the gate is 1e-12 down to x = 1e-3
        # and 1e-15/x below it (1e-9 at x = 1e-6)
        b = 1 - mp.mpc(r)
        for x in (1e-6, 1e-5, 1e-4, 3e-4, 1e-3, 1e-2, 0.04, 0.3, 0.7, 0.864, 0.95):
            H, dH = harmonic._m0_and_slope(complex(r), x)
            with mp.workdps(30):
                want = complex(b / (b + 1) * mp.hyp2f1(2, b + 1, b + 2, x))
                assert abs(H - complex(mp.hyp2f1(1, b, b + 1, x))) <= 1e-12 * abs(H)
            assert abs(dH - want) <= max(1e-12, 1e-15 / x) * abs(want), x


class TestCauchyFormula:
    R = 0.7
    CIRCLE = ContourSpec.circle(1j, 0.65)
    # hyperbolic center of the contour: equal clearance to every circle point
    ZP = 1j * math.sqrt(1 - 0.65 ** 2)

    def test_closed_form_residuals(self):
        # criterion 9's setup: with the resolvent's d_zbar in closed form
        # both sides meet 1e-10
        F = lambda u: u * u + 1
        want = 2j * math.pi * (1 - self.R) * F(self.ZP)
        inside = cauchy_formula(F, self.R, self.ZP, self.CIRCLE, tol=1e-10)
        outside = cauchy_formula(F, self.R, 3j, self.CIRCLE, tol=1e-10)
        assert abs(inside - want) <= 1e-10 * abs(want)
        assert abs(outside) <= 1e-10 * abs(want)

    def test_one_series_per_node(self, monkeypatch):
        series, nodes = [], []
        monkeypatch.setattr(harmonic, "gauss_2f1",
                            lambda *a: series.append(a) or gauss_2f1(*a))
        def counted(f, path, tol):
            return contour_integral(lambda u: nodes.append(u) or f(u), path, tol=tol)
        monkeypatch.setattr(harmonic, "contour_integral", counted)
        cauchy_formula(lambda u: u * u + 1, self.R, self.ZP, self.CIRCLE, tol=1e-10)
        assert nodes and len(series) == len(nodes)

    def test_inside(self):
        F = lambda u: u * u + 1
        got = cauchy_formula(F, self.R, self.ZP, self.CIRCLE, tol=1e-10)
        want = 2j * math.pi * (1 - self.R) * F(self.ZP)
        assert abs(got - want) < 1e-6 * abs(want)

    def test_outside(self):
        F = lambda u: u * u + 1
        got = cauchy_formula(F, self.R, 3j, self.CIRCLE, tol=1e-10)
        scale = 2 * math.pi * (1 - self.R) * abs(F(3j))
        assert abs(got) < 1e-6 * scale

    def test_power_of_y(self):
        F = lambda u: u.imag ** (1 - self.R)
        got = cauchy_formula(F, self.R, self.ZP, self.CIRCLE, tol=1e-10)
        want = 2j * math.pi * (1 - self.R) * F(self.ZP)
        assert abs(got - want) < 1e-5 * abs(want)

    def test_homotopy_invariance(self):
        # closedness: homotopic contours give the same integral
        F = lambda u: u * u + 1
        a = cauchy_formula(F, self.R, self.ZP, self.CIRCLE, tol=1e-9)
        b = cauchy_formula(F, self.R, self.ZP, ContourSpec.circle(1j, 0.75), tol=1e-9)
        assert abs(a - b) < 2e-9
        # neither circle encloses z'
        c = cauchy_formula(F, self.R, self.ZP, ContourSpec.circle(2.5j, 0.3), tol=1e-9)
        d = cauchy_formula(F, self.R, self.ZP, ContourSpec.circle(2.5j, 0.45), tol=1e-9)
        assert abs(c - d) < 2e-9

    def test_point_on_contour_refused(self):
        with pytest.raises(RefusalError):
            cauchy_formula(lambda u: u, self.R, 1j + 0.6502, self.CIRCLE)

    def test_integer_weight_rejected(self):
        with pytest.raises(PoleError):
            cauchy_formula(lambda u: u, 2.0, self.ZP, self.CIRCLE)

    def test_circle_contour_required(self):
        with pytest.raises(DomainError):
            cauchy_formula(lambda u: u, self.R, self.ZP,
                           ContourSpec.polyline(1j, 2j))


# ---------------------------------------------------------------------------
# holomorphic kernel lift


class TestQLift:
    def test_coboundary_gives_cocycle(self):
        # Q_F |_{v,2-r}(S - 1) = psi at the same base point
        F = FormEvaluator.eta_power(2.5)
        z0, t = 1j, 0.4 - 0.8j
        QF = lambda u: q_lift(F, z0, u, tol=1e-12)
        lhs = slash_multiplier(QF, F.multiplier, -0.5, S, t, halfplane="lower") - QF(t)
        rhs = complex(eichler_cocycle(F, S, z0, t))
        assert abs(lhs - rhs) < 1e-6

    def test_shadow_recovers_form(self):
        # xi_{2-conj r} of conj(Q_F(conj z)) = 2^{r-1} e^{i pi (r-1)/2} F(z)
        F = FormEvaluator.eta_power(2.5)
        r, z0, z = 2.5, 1j, 0.3 + 1.1j
        G = lambda u: q_lift(F, z0, u.conjugate(), tol=1e-13).conjugate()
        fd = shadow(G, 2.0 - r, z)
        want = 2 ** (r - 1) * cmath.exp(1j * math.pi * (r - 1) / 2) * F(z)
        assert abs(fd - want) < 1e-4 * abs(want)

    def test_weight_zero_closed_form(self):
        # F = 1, r = 0: integral of (z-t)^{-2} from z0 to conj(t)
        z0, t = 1j, 0.4 - 0.8j
        got = q_lift(FormEvaluator.constant_one(), z0, t, tol=1e-12)
        want = 1 / (z0 - t) - 1 / (t.conjugate() - t)
        assert abs(got - want) < 1e-12

    def test_upper_half_plane_rejected(self):
        with pytest.raises(DomainError):
            q_lift(FormEvaluator.constant_one(), 1j, 0.4 + 0.8j)


# ---------------------------------------------------------------------------
# concrete families


class TestE2Star:
    def test_weight_two_invariance(self):
        for z in (0.3 + 1.1j, -0.7 + 0.4j, 1.9j):
            res = slash(e2_star, 2.0, S, z) - e2_star(z)
            assert abs(res) < 1e-7

    def test_shadow_is_constant(self):
        want = 3.0 / math.pi
        for z in (0.3 + 1.1j, -0.7 + 0.4j, 1.9j, 0.45 + 0.85j, -1.6 + 2.3j):
            assert abs(shadow(e2_star, 2.0, z) - want) < 1e-5 * want

    def test_harmonic(self):
        assert abs(laplacian_r(e2_star, 2.0, 0.3 + 1.1j)) < 1e-4


class TestFrn:
    def test_weight_one_collapse(self):
        z = Z_GEN
        assert abs(f_rn(1.0, 2, z) - cmath.exp(4j * math.pi * z)) < 1e-14

    def test_n_zero(self):
        z = Z_GEN
        assert abs(f_rn(0.4, 0, z) - z.imag ** 0.6) < 1e-14

    def test_harmonic(self):
        F = lambda u: f_rn(0.4, 1, u)
        assert abs(laplacian_r(F, 0.4, Z_GEN)) < 1e-4

    def test_integer_weight_rejected(self):
        with pytest.raises(PoleError):
            f_rn(3.0, 1, Z_GEN)

    def test_large_argument_refused(self):
        with pytest.raises(RefusalError):
            f_rn(0.4, 1, 60j)


class TestBol:
    def test_identity_element(self):
        z = Z_GEN
        lhs, rhs = bol_operator([(1, 1.0)], 4, IDENTITY, z)
        want = (2j * math.pi) ** 3 * cmath.exp(2j * math.pi * z)
        assert abs(lhs - want) < 1e-12 * abs(want)
        assert abs(rhs - want) < 1e-12 * abs(want)

    def test_exponential_under_S(self):
        lhs, rhs = bol_operator([(1, 1.0)], 4, S, 0.3 + 1.1j)
        assert abs(lhs - rhs) < 1e-6 * abs(rhs)

    def test_general_element_and_series(self):
        terms = [(0, 0.5), (1, 1.0), (2, -0.25j)]
        F = FormEvaluator.fourier_series(3.0, terms)
        lhs, rhs = bol_operator(F, 3, GroupElement(2, 1, 1, 1), 0.2 + 1.4j)
        assert abs(lhs - rhs) < 1e-9 * abs(rhs)

    def test_weight_two_against_fd(self):
        # r=2: lhs is d/dz of F|_0 S, checked by finite differences
        sigma1 = lambda n: sum(d for d in range(1, n + 1) if n % d == 0)
        terms = [(0, 1.0)] + [(n, -24.0 * sigma1(n)) for n in range(1, 12)]
        z = 0.1 + 1.3j
        lhs, rhs = bol_operator(terms, 2, S, z)
        assert abs(lhs - rhs) < 1e-9 * abs(rhs)
        Fser = lambda u: sum(c * cmath.exp(2j * math.pi * n * u) for n, c in terms)
        h = 1e-6
        fd = (Fser(S.apply(z + h)) - Fser(S.apply(z - h))) / (2 * h)
        assert abs(lhs - fd) < 1e-6

    def test_non_integer_weight_rejected(self):
        with pytest.raises(DomainError):
            bol_operator([(1, 1.0)], 2.5, S, Z_GEN)
