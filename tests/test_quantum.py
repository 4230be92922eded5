"""Tests for eichler.quantum: quantum values at rationals and their defects."""

from fractions import Fraction

import numpy as np
import pytest

from eichler.algebra import (ARG_CUT_DOWN, IDENTITY, S, T, GroupElement,
                             multiplier_eval, power_branch)
from eichler.cocycles import FormEvaluator
from eichler.errors import DomainError, PoleError
from eichler.quadrature import ContourSpec, contour_integral
from eichler.quantum import eta_defect, quantum_value_eta, weight0_quantum

RNG_SEED = 20260814


def random_group_element(rng) -> GroupElement:
    g = IDENTITY
    for _ in range(int(rng.integers(1, 6))):
        g = g @ (T if rng.random() < 0.5 else S)
        g = g @ GroupElement(1, int(rng.integers(-2, 3)), 0, 1)
    return g


class TestWeightZero:
    def test_identity_element(self):
        assert weight0_quantum(2, IDENTITY, -2j) == 0.0

    def test_inversion_at_one(self):
        assert weight0_quantum(1, S, -1j) < 1e-14

    def test_random_pairs_exact(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(20):
            g = random_group_element(rng)
            a = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 9)))
            t = complex(rng.uniform(-2, 2), -rng.uniform(0.2, 2))
            if g.c * a + g.d == 0 or abs(g.c * t + g.d) < 1e-6:
                continue
            assert weight0_quantum(a, g, t) < 1e-12

    def test_pole_at_t(self):
        with pytest.raises(PoleError):
            weight0_quantum(1, S, 0j)

    def test_cusp_to_infinity_rejected(self):
        # S sends 0 to infinity
        with pytest.raises(DomainError):
            weight0_quantum(0, S, -1j)


class TestQuantumValue:
    def test_ladder_convergence(self):
        # h_a(a - i eps) is a Cauchy sequence converging to p(a)
        for r, a in ((3.0, 1), (1.5, 1), (2.5, Fraction(1, 2))):
            p = quantum_value_eta(r, a, 1j)
            prev = None
            for eps in (1e-2, 1e-3, 1e-4):
                h = quantum_value_eta(r, a, 1j, t=float(a) - 1j * eps)
                bound = 10 * eps ** min(1.0, r)
                assert abs(h - p) < bound
                if prev is not None:
                    assert abs(h - prev) < 10 * (10 * eps) ** min(1.0, r)
                prev = h

    def test_ladder_hoelder_regime(self):
        # Re r < 1: exponent drops to Re r
        r, a = 0.8, 1
        p = quantum_value_eta(r, a, 1j)
        for eps in (1e-2, 1e-3):
            h = quantum_value_eta(r, a, 1j, t=float(a) - 1j * eps)
            assert abs(h - p) < 10 * eps ** 0.8

    def test_path_independence(self):
        # direct path vs route through an interior waypoint: h^{z0}_a - h^{z1}_a
        # is the geodesic integral of eta^{2r}(z)(z-a)^{r-2} from z0 to z1
        tol = 1e-10
        F = FormEvaluator.eta_power(3.0)
        f = lambda z: F(z) * power_branch(z - 1.0, 1.0, ARG_CUT_DOWN)
        shift = contour_integral(f, ContourSpec.geodesic(1j, 0.5 + 2j), tol=tol).value
        direct = quantum_value_eta(3.0, 1, 1j, tol=tol)
        via = shift + quantum_value_eta(3.0, 1, 0.5 + 2j, tol=tol)
        assert abs(direct - via) < 2 * tol

    def test_multiplier_evaluated_once_per_call(self, monkeypatch):
        # v(sigma_a) does not depend on the quadrature node
        calls = []

        def counted(ms, g):
            calls.append(g)
            return multiplier_eval(ms, g)

        monkeypatch.setattr("eichler.algebra.multiplier_eval", counted)
        monkeypatch.setattr("eichler.quantum.multiplier_eval", counted)
        for r, a in ((3.0, 1), (2.5 + 0.5j, Fraction(-2, 3))):
            calls.clear()
            quantum_value_eta(r, a, 1j)
            assert len(calls) == 1

    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            quantum_value_eta(-0.5, 1, 1j)
        with pytest.raises(DomainError):
            quantum_value_eta(0.0, 1, 1j)

    def test_upper_half_plane_t_rejected(self):
        with pytest.raises(DomainError):
            quantum_value_eta(3.0, 1, 1j, t=1 + 1j)


class TestDefect:
    def test_inversion_at_one(self):
        lhs, rhs = eta_defect(3.0, 1, S, 1j)
        assert abs(lhs - rhs) < 1e-5

    def test_three_pairs(self):
        pairs = ((Fraction(1, 2), S),
                 (2, GroupElement(1, -1, 1, 0)),
                 (Fraction(-1, 3), GroupElement(2, 1, 1, 1)))
        for a, delta in pairs:
            lhs, rhs = eta_defect(3.0, a, delta, 1j)
            assert abs(lhs - rhs) < 1e-5

    def test_base_point_independence(self):
        # both sides shift by the same coboundary: the residual is unchanged
        r1 = abs(eta_defect(3.0, 1, S, 1j)[0] - eta_defect(3.0, 1, S, 1j)[1])
        lhs, rhs = eta_defect(3.0, 1, S, 0.3 + 1.7j)
        r2 = abs(lhs - rhs)
        assert abs(r1 - r2) < 2e-5

    def test_cusp_to_infinity_rejected(self):
        with pytest.raises(DomainError):
            eta_defect(3.0, 0, S, 1j)
