"""Contour integration: closed-form checks, path invariants, error honesty."""

import cmath
import math

import time

import mpmath as mp
import numpy as np
import pytest

from eichler.algebra import ARG_CUT_DOWN, power_branch
from eichler.errors import DomainError, RefusalError
from eichler.quadrature import INF, ContourSpec, _GeodesicPath, contour_integral

RNG_SEED = 20260814


def test_geodesic_segment_of_one():
    # i -> 2i is a vertical geodesic, the straight segment
    res = contour_integral(lambda z: 1.0 + 0j, ContourSpec.geodesic(1j, 2j), tol=1e-12)
    assert abs(res.value - 1j) <= 1e-13
    assert res.converged


def test_circle_residue():
    res = contour_integral(lambda z: 1.0 / (z - 1j), ContourSpec.circle(1j, 1.0), tol=1e-13)
    assert abs(res.value - 2j * math.pi) <= 1e-12
    assert res.converged


def test_mellin_gamma():
    # int_0^inf y^{s-1} e^{-2 pi y} dy pulled onto the imaginary axis;
    # oracle: Gamma(s) (2 pi)^{-s}
    s = 3.2

    def f(z):
        return (z / 1j) ** (s - 1) * cmath.exp(2j * math.pi * z)

    res = contour_integral(f, ContourSpec.geodesic(0.0, INF, decay=2 * math.pi), tol=1e-12)
    truth = math.gamma(s) * (2 * math.pi) ** (-s)
    assert abs(res.value / 1j - truth) <= 1e-10 * truth
    assert res.converged


def test_vertical_ray_exponential():
    # int_{2i}^{i inf} e^{2 pi i z} dz = i e^{-4 pi} / (2 pi)
    res = contour_integral(lambda z: cmath.exp(2j * math.pi * z),
                           ContourSpec.geodesic(2j, INF, decay=2 * math.pi), tol=1e-12)
    truth = 1j * math.exp(-4 * math.pi) / (2 * math.pi)
    assert abs(res.value - truth) <= 1e-12 * abs(truth)


def test_geodesic_param_examples():
    z, dz = _GeodesicPath(1j, INF)(1.0)
    assert abs(z - 1j * math.e) <= 1e-14
    assert abs(dz - 1j * math.e) <= 1e-14
    z, _ = _GeodesicPath(0.0, INF)(0.0)
    assert abs(z - 1j) <= 1e-14
    z, _ = _GeodesicPath(-1.0, 1.0)(0.0)
    assert abs(z - 1j) <= 1e-14


@pytest.mark.parametrize("z1,z2", [(-1.0, 1.0), (1j, INF), (0.3 + 0.7j, 2.1 + 0.4j),
                                   (2.0, 0.25 + 1.5j)])
def test_geodesic_unit_speed(z1, z2):
    h = 1e-6
    path = _GeodesicPath(z1, z2)
    for u in (-0.8, 0.0, 0.7, 1.4):
        z, dz = path(u)
        assert abs(abs(dz) / z.imag - 1.0) <= 1e-12
        fd = (path(u + h)[0] - path(u - h)[0]) / (2 * h)
        assert abs(fd - dz) <= 1e-7 * abs(dz)


def test_geodesic_anchor_and_distance():
    # u = 0 sits at the first interior endpoint; the second is reached at
    # u = hyperbolic distance
    z1, z2 = 0.3 + 0.7j, 2.1 + 0.4j
    z, _ = _GeodesicPath(z1, z2)(0.0)
    assert abs(z - z1) <= 1e-13
    d = math.acosh(1.0 + abs(z1 - z2) ** 2 / (2.0 * z1.imag * z2.imag))
    z, _ = _GeodesicPath(z1, z2)(d)
    assert abs(z - z2) <= 1e-11


def test_degenerate_geodesic():
    with pytest.raises(DomainError):
        _GeodesicPath(1j, 1j)


def test_cusp_without_decay_hint():
    with pytest.raises(DomainError):
        contour_integral(lambda z: cmath.exp(2j * math.pi * z),
                         ContourSpec.geodesic(0.0, INF))


def test_divergent_integrand_refused():
    with pytest.raises(DomainError):
        contour_integral(lambda z: cmath.exp(0.2 * z.imag),
                         ContourSpec.geodesic(1j, INF, decay=1.0))


def test_path_independence():
    # (z - t)^{r-2} with the cut hanging below t in the lower half plane:
    # homotopic upper-half-plane paths agree to 2 tol
    t = -0.7 - 0.4j
    r = 2.5 + 0.3j

    def f(z):
        return power_branch(z - t, r - 2, ARG_CUT_DOWN)

    tol = 1e-10
    direct = contour_integral(f, ContourSpec.geodesic(1j, 2 + 1j), tol=tol)
    hops = (1j, 0.5 + 2.5j, 1.8 + 3j, 2 + 1j)
    detour = sum(contour_integral(f, ContourSpec.geodesic(p, q), tol=tol).value
                 for p, q in zip(hops, hops[1:]))
    scale = max(1.0, abs(direct.value))
    assert abs(direct.value - detour) <= 2 * tol * scale


def test_concatenation_additivity():
    # b splits the geodesic from a to c at its hyperbolic midpoint
    a, c = 0.2 + 0.9j, 2.4 + 0.6j
    d = math.acosh(1.0 + abs(a - c) ** 2 / (2.0 * a.imag * c.imag))
    b, _ = _GeodesicPath(a, c)(0.5 * d)

    def f(z):
        return cmath.exp(0.7j * z) * (z * z + 1.0)

    whole = contour_integral(f, ContourSpec.geodesic(a, c), tol=1e-12)
    parts = (contour_integral(f, ContourSpec.geodesic(a, b), tol=1e-12).value
             + contour_integral(f, ContourSpec.geodesic(b, c), tol=1e-12).value)
    assert abs(whole.value - parts) <= 1e-14 * max(1.0, abs(whole.value))


def test_error_estimate_honesty():
    # estimate must dominate the true error (doubled-subdivision oracle)
    # for at least 95 of 100 random smooth integrands on the straight
    # segment from a to b, pulled back to the vertical geodesic i -> 2i by
    # w = a + (b - a)(z/i - 1)
    rng = np.random.default_rng(RNG_SEED)
    wins = 0
    for _ in range(100):
        coeff = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        alpha = complex(*(0.8 * rng.standard_normal(2)))
        a = complex(rng.uniform(-1, 1), rng.uniform(0.5, 1.5))
        b = complex(rng.uniform(1, 3), rng.uniform(0.5, 2.5))

        def f(z):
            return sum(c * z ** k for k, c in enumerate(coeff)) * cmath.exp(alpha * z)

        def pulled(z):
            return f(a + (b - a) * (z / 1j - 1.0)) * (b - a) / 1j

        res = contour_integral(pulled, ContourSpec.geodesic(1j, 2j), tol=1e-10)

        def ref(n):
            nodes = np.linspace(0, 1, n + 1)
            tot = 0j
            for lo, hi in zip(nodes, nodes[1:]):
                x, w = np.polynomial.legendre.leggauss(15)
                mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
                tot += half * sum(wi * f(a + (mid + half * xi) * (b - a)) * (b - a)
                                  for xi, wi in zip(x, w))
            return tot

        truth = ref(64)
        assert abs(ref(32) - truth) <= 1e-13 * max(1.0, abs(truth))
        if res.error >= abs(res.value - truth):
            wins += 1
    assert wins >= 95


def test_unconverged_flag():
    # branch point sitting on the path: bisection stalls and says so
    b = 1.0 + 0.5j

    def f(z):
        return cmath.sqrt(z - b)

    res = contour_integral(f, ContourSpec.geodesic(1.0 + 0.25j, 1.0 + 1j), tol=1e-15)
    assert not res.converged


# ---------------------------------------------------------------------------
# the trapezoid rule between two cusps


def test_cusp_to_cusp_error_honesty():
    # the returned error bounds the true error of int_0^{i inf} (z/i)^{s-1}
    # e^{2 pi i z} dz = i Gamma(s) (2 pi)^{-s} for at least 48 of 50 seeded s
    rng = np.random.default_rng(RNG_SEED + 2)
    wins = 0
    for _ in range(50):
        s = complex(rng.uniform(1, 8), rng.uniform(-3, 3))

        def f(z):
            return (z / 1j) ** (s - 1) * cmath.exp(2j * math.pi * z)

        res = contour_integral(f, ContourSpec.geodesic(0.0, INF, decay=2 * math.pi), tol=1e-12)
        assert res.converged
        truth = 1j * complex(mp.gamma(s) * (2 * mp.pi) ** (-s))
        assert abs(res.value - truth) <= 1e-10 * abs(truth)
        if res.error >= abs(res.value - truth):
            wins += 1
    assert wins >= 48


def test_cusp_to_cusp_vector_components():
    # one node table, one component per s, each meeting its own target
    ss = np.array([1.5, 3.2, 6.0 + 2j])

    def f(z):
        return np.exp((ss - 1) * math.log(z.imag)) * cmath.exp(2j * math.pi * z) / 1j

    res = contour_integral(f, ContourSpec.geodesic(0.0, INF, decay=2 * math.pi), tol=1e-12)
    assert res.value.shape == res.error.shape == (3,)
    for s, v, e in zip(ss, res.value, res.error):
        truth = complex(mp.gamma(s) * (2 * mp.pi) ** (-s))
        assert abs(v - truth) <= 1e-12 * abs(truth)
        assert e <= 1e-12 * abs(v)


@pytest.mark.parametrize("f", [lambda z: (z / 1j) ** 2,
                               lambda z: cmath.exp(-2j * math.pi * z)],
                         ids=["algebraic", "exponential"])
def test_cusp_to_cusp_growth_refused(f):
    start = time.perf_counter()
    with pytest.raises(DomainError):
        contour_integral(f, ContourSpec.geodesic(0.0, INF, decay=2 * math.pi))
    assert time.perf_counter() - start < 2.0


def test_cusp_to_cusp_budget_refused():
    # the second component has a branch point on the path at z = i, where the
    # trapezoid rule converges only algebraically: refused, and promptly
    def f(z):
        e = cmath.exp(2j * math.pi * z)
        return np.array([e, cmath.sqrt(z - 1j) * e])

    start = time.perf_counter()
    with pytest.raises(RefusalError):
        contour_integral(f, ContourSpec.geodesic(0.0, INF, decay=2 * math.pi), tol=1e-12)
    assert time.perf_counter() - start < 2.0
