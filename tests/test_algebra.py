"""Branched powers, group elements, multiplier systems, slash operators."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from eichler import (
    ARG_CUT_DOWN,
    ARG_CUT_UP,
    ARG_LOWER,
    ARG_UPPER,
    ArgInterval,
    DomainError,
    GroupElement,
    IDENTITY,
    MultiplierSystem,
    RefusalError,
    S,
    T,
    multiplier_eval,
    power_branch,
    scaling_matrix,
    slash,
)
from eichler.algebra import _dedekind_sum
from eichler.specfun import eta_power_eval

RNG_SEED = 20260814


def random_element(rng, max_len=5) -> GroupElement:
    g = IDENTITY
    for _ in range(rng.integers(1, max_len + 1)):
        if rng.random() < 0.5:
            g = g @ GroupElement(1, int(rng.integers(-3, 4)), 0, 1)
        else:
            g = g @ S
    return g


# ---------------------------------------------------------------------------
# power_branch


def test_power_branch_quarter():
    # arg(2i) = pi/2 inside (-pi/2, 3pi/2); (2i)^-2 = -1/4
    assert power_branch(2j, -2, ARG_CUT_DOWN) == pytest.approx(-0.25)


def test_power_branch_exponent_zero():
    t, r = -1j, 2
    assert power_branch(1j - t, 2 - r, ARG_CUT_DOWN) == pytest.approx(1.0)


def test_power_branch_generic_vs_explicit_log():
    # independent route: explicit argument in [-pi/2, 3pi/2) by hand
    z, t, r = 1 + 1j, -1 - 1j, 0.5 + 0.5j
    w = z - t  # 2+2i, argument pi/4 already in the window
    expected = cmath.exp((r - 2) * (math.log(abs(w)) + 1j * (math.pi / 4)))
    assert power_branch(w, r - 2, ARG_CUT_DOWN) == pytest.approx(expected, rel=1e-14)


def test_power_branch_zero_base():
    with pytest.raises(DomainError):
        power_branch(0j, 1.5, ARG_UPPER)


# signed-zero points on both axes, so every interval's cut ray is hit from
# both sides, plus points off the axes
AXIS_BASES = [complex(x, s) for x in (2.0, -2.0, 0.3, -0.3) for s in (0.0, -0.0)] \
    + [complex(s, y) for y in (1.5, -1.5, 0.4, -0.4) for s in (0.0, -0.0)]
GENERIC_BASES = [1.0 + 1.0j, -3.0 + 0.5j, -0.2 - 4.0j, 0.7 - 0.1j, -1.0 - 1e-12j]


# numpy's log and arctan2 may round the last bit differently from libm, and
# exp turns that into a relative error of about |p| ulp(log b); these
# exponents keep it under 1e-15, while a branch slip would be of order one
@pytest.mark.parametrize("interval", [ARG_UPPER, ARG_LOWER, ARG_CUT_DOWN, ARG_CUT_UP])
@pytest.mark.parametrize("p", [0.5 + 0.3j, -1.7 + 0j, -0.4 + 0.9j])
def test_power_branch_array_matches_scalar(interval, p):
    cut_ray = [cmath.rect(rad, interval.lo) for rad in (0.25, 1.0, 3.0)]
    bases = AXIS_BASES + GENERIC_BASES + cut_ray
    got = power_branch(np.array(bases), p, interval)
    assert isinstance(got, np.ndarray) and got.shape == (len(bases),)
    for b, x in zip(bases, got):
        want = power_branch(b, p, interval)
        assert abs(x - want) <= 1e-15 * abs(want), (b, x, want)
    args = interval.arg_array(np.array(bases))
    for b, a in zip(bases, args):
        assert abs(a - interval.arg(b)) <= 1e-15, (b, a)


@pytest.mark.parametrize("zero", [0j, complex(-0.0, 0.0), complex(0.0, -0.0)])
def test_power_branch_array_zero_base(zero):
    with pytest.raises(DomainError):
        power_branch(np.array([1.0 + 1.0j, zero, 2.0j]), 1.5, ARG_UPPER)


def test_power_branch_halfopen_sides():
    # -1 with a tiny negative imaginary part: upper convention keeps arg = +pi
    # on the closed side, lower convention flips to -pi
    minus_one = complex(-1.0, 0.0)
    assert ARG_UPPER.arg(minus_one) == pytest.approx(math.pi)
    assert ArgInterval(-math.pi, "left").arg(minus_one) == pytest.approx(-math.pi)


def test_branch_continuity_along_path():
    # circle arc from -pi/4 to 5pi/4 stays inside [-pi/2, 3pi/2)
    p = 0.7 - 0.3j
    thetas = np.linspace(-math.pi / 4, 5 * math.pi / 4, 101)
    vals = [power_branch(cmath.exp(1j * th), p, ARG_CUT_DOWN) for th in thetas]
    step = thetas[1] - thetas[0]
    bound = 3.0 * abs(p) * max(abs(v) for v in vals) * step
    for u, w in zip(vals, vals[1:]):
        assert abs(w - u) <= bound


# ---------------------------------------------------------------------------
# group elements


def test_word_rejects_nonunimodular():
    with pytest.raises(DomainError):
        GroupElement(2, 0, 0, 1)
    for ent in ((1.0, 0, 0, 1), (1, 0.5, 0, 1), (0, -1, 1.0, 0), (1, 0, 0, 1.0)):
        with pytest.raises(DomainError):
            GroupElement(*ent)


# ---------------------------------------------------------------------------
# multiplier systems


def test_multiplier_T():
    for r in (2.5, 12, 1.3 + 0.4j):
        ms = MultiplierSystem(r)
        assert multiplier_eval(ms, T) == pytest.approx(cmath.exp(1j * math.pi * r / 6))


def test_multiplier_S_weight_12():
    ms = MultiplierSystem(12)
    assert multiplier_eval(ms, S) == pytest.approx(1.0)  # e^{-6 pi i}


def _j_chain_oracle(ms, word_tokens, z):
    """Independent route: chain the generator j-factors along an explicit word."""
    r = ms.weight
    mats = {"T": T, "T-": T.inv(), "S": S}
    vals = {
        "T": cmath.exp(1j * math.pi * r / 6),
        "T-": cmath.exp(-1j * math.pi * r / 6),
        "S": cmath.exp(-1j * math.pi * r / 2),
    }
    j = 1.0 + 0j
    # j(g1...gm, z) = prod_i j(g_i, (g_{i+1}...g_m) z), each factor on its own branch
    for i, tok in enumerate(word_tokens):
        tail = IDENTITY
        for t2 in word_tokens[i + 1 :]:
            tail = tail @ mats[t2]
        gi = mats[tok]
        j *= vals[tok] * power_branch(gi.cd(tail.apply(z)), r, ARG_UPPER)
    return j


def j_factor(ms: MultiplierSystem, g: GroupElement, z: complex) -> complex:
    # the automorphy factor j(g, z) = v(g) (cz+d)^r on the upper half-plane
    return multiplier_eval(ms, g) * power_branch(g.cd(z), ms.weight, ARG_UPPER)


def test_multiplier_generic_element_vs_chain_oracle():
    # (2,1;1,1) = T^2 S T, checked against the BFS word's j-factor chain,
    # then seeded random words, long enough to reach every sign of c
    mats = {"T": T, "T-": T.inv(), "S": S}
    words = [("T", "T", "S", "T")]
    rng = np.random.default_rng(RNG_SEED + 3)
    for _ in range(40):
        words.append(tuple(rng.choice(["T", "T-", "S"], size=int(rng.integers(6, 15)))))
    signs = set()
    z = 0.3 + 1.7j
    for word in words:
        g = IDENTITY
        for tok in word:
            g = g @ mats[tok]
        signs.add((g.c > 0) - (g.c < 0))
        for r in (2.5, 0.5 + 0.5j, 12, -1.7 + 0.8j):
            ms = MultiplierSystem(r)
            lhs = j_factor(ms, g, z)
            rhs = _j_chain_oracle(ms, word, z)
            assert lhs == pytest.approx(rhs, rel=1e-10), (word, r)
    assert signs == {-1, 0, 1}


def _random_sl2z(rng, bound: int) -> GroupElement:
    # a random (c, d) pair, coprime, completed to a matrix by extended gcd
    while True:
        c, d = (int(x) for x in rng.integers(-bound, bound + 1, size=2))
        if math.gcd(c, d) == 1:
            break
    if c == 0:
        return GroupElement(d, int(rng.integers(-bound, bound + 1)), 0, d)
    # a*d - b*c = 1: a = d^{-1} mod |c|
    a = pow(d, -1, abs(c))
    return GroupElement(a, (a * d - 1) // c, c, d)


def test_eta_power_transformation_law():
    # eta^{2r}(gz) = v(g)(cz+d)^r eta^{2r}(z); eta_power_eval pulls both
    # sides back to the fundamental domain by its own T/S reduction
    rng = np.random.default_rng(RNG_SEED + 4)
    elements = [GroupElement(1, 5, 0, 1), GroupElement(-1, 7, 0, -1), GroupElement(-1, 0, 0, -1)]
    elements += [_random_sl2z(rng, 60) for _ in range(120)]
    assert any(g.c < 0 for g in elements) and any(g.c > 0 for g in elements)
    worst = 0.0
    for g in elements:
        r = complex(rng.uniform(-3, 12), rng.uniform(-1, 1))
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 1.6))
        lhs = eta_power_eval(r, g.apply(z))
        rhs = multiplier_eval(MultiplierSystem(r), g) \
            * power_branch(g.cd(z), r, ARG_UPPER) * eta_power_eval(r, z)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    assert worst <= 1e-10


def _sawtooth(x: Fraction) -> Fraction:
    return Fraction(0) if x.denominator == 1 else x - math.floor(x) - Fraction(1, 2)


def test_dedekind_sum_matches_definition():
    for c in range(1, 41):
        for d in range(-c, 2 * c + 1):
            if math.gcd(d, c) != 1:
                continue
            want = sum(_sawtooth(Fraction(k, c)) * _sawtooth(Fraction(d * k, c))
                       for k in range(c))
            assert _dedekind_sum(d, c) == want, (d, c)


@pytest.mark.parametrize("r,named", [(24.37 - 9.571j, "r=(24.37-9.571j)"),
                                     (1e300, "r=(1e+300+0j)")])
def test_multiplier_refuses_overflow_naming_r(r, named):
    # v(T^n) = e^{pi i r n/6}: for n = 1e9 its modulus overflows at the first
    # r, and its phase is not a finite number at the second
    with pytest.raises(RefusalError) as exc:
        multiplier_eval(MultiplierSystem(r), GroupElement(1, 10**9, 0, 1))
    assert named in str(exc.value)


def test_multiplier_refuses_meaningless_phase():
    # |pi r phi| ~ 5e305: the exponent is finite, but its rounding error dwarfs
    # 2 pi, so the phase is noise (eps |pi r phi| > sqrt(eps))
    with pytest.raises(RefusalError) as exc:
        multiplier_eval(MultiplierSystem(1e300), GroupElement(1, 0, 10**6, 1))
    assert "r=(1e+300+0j)" in str(exc.value)


def test_j_cocycle_property():
    rng = np.random.default_rng(RNG_SEED + 1)
    r = 1.3 + 0.4j
    ms = MultiplierSystem(r)
    for _ in range(50):
        gam, dlt = random_element(rng), random_element(rng)
        z = complex(rng.uniform(-2, 2), rng.uniform(0.2, 3))
        lhs = j_factor(ms, gam @ dlt, z)
        rhs = j_factor(ms, gam, dlt.apply(z)) * j_factor(ms, dlt, z)
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_j_minus_identity_invariance():
    # j(-g, z) = j(g, z)
    rng = np.random.default_rng(RNG_SEED + 2)
    ms = MultiplierSystem(0.5 + 0.5j)
    for _ in range(10):
        g = random_element(rng)
        z = complex(rng.uniform(-2, 2), rng.uniform(0.2, 3))
        assert j_factor(ms, g @ S @ S, z) == pytest.approx(j_factor(ms, g, z), rel=1e-10)


# ---------------------------------------------------------------------------
# slash operators


def test_slash_weight_zero():
    f = lambda z: z**2 + 1
    g = GroupElement(2, 1, 1, 1)
    z = 0.2 + 1.1j
    assert slash(f, 0, g, z) == pytest.approx(f(g.apply(z)))


def test_slash_explicit_S():
    r = 0.7 + 0.2j
    f = lambda z: cmath.exp(2j * math.pi * z)
    z = 2j
    # independent: (cz+d)^{-r} = (2i)^{-r} with principal arg pi/2
    expected = cmath.exp(-r * (math.log(2) + 1j * math.pi / 2)) * f(-1 / z)
    assert slash(f, r, S, z) == pytest.approx(expected, rel=1e-13)


def test_slash_rejects_real_axis():
    with pytest.raises(DomainError):
        slash(lambda z: z, 1, S, 1.0 + 0j)


def test_slash_pole_is_outside_halfplane():
    # cz+d = 0 needs z real, so the half-plane guard fires first; both are
    # DomainErrors, which is all callers can rely on
    with pytest.raises(DomainError):
        slash(lambda z: z, 1, S, 0j)


def test_iota_intertwines_slash():
    # iota(f|_r g) = (iota f)|_{conj r} g, lower half-plane on the right
    iota = lambda h, z: h(z.conjugate()).conjugate()
    rng = np.random.default_rng(RNG_SEED + 5)
    f = lambda z: cmath.exp(2j * math.pi * z)
    r = 1.3 + 0.4j
    for g in (S, T @ S @ T, GroupElement(2, 1, 1, 1), S @ GroupElement(1, -2, 0, 1) @ S):
        for _ in range(5):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2.5, -0.2))
            lhs = iota(lambda w: slash(f, r, g, w, "upper"), z)
            rhs = slash(lambda w: iota(f, w), r.conjugate(), g, z, "lower")
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# cusps


def test_scaling_matrix_basic():
    for cusp in (Fraction(0), Fraction(1), Fraction(-2, 3), Fraction(5, 7)):
        g = scaling_matrix(cusp)
        assert all(isinstance(x, int) for x in g.entries())
        assert g.apply_cusp(math.inf) == cusp
