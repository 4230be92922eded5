"""Branched powers, words, multiplier systems, slash operators."""

import cmath
import math

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
    S,
    T,
    from_word,
    matrix_to_word,
    multiplier_eval,
    power_branch,
    scaling_matrix,
    slash,
    t_power,
)

RNG_SEED = 20260814


def random_element(rng, max_len=5) -> GroupElement:
    g = IDENTITY
    for _ in range(rng.integers(1, max_len + 1)):
        if rng.random() < 0.5:
            g = g @ t_power(int(rng.integers(-3, 4)))
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
# words and matrices


def test_identity_word_empty():
    assert matrix_to_word(IDENTITY) == ()


def test_translation_word():
    assert matrix_to_word(GroupElement(1, 1, 0, 1)) == (("T", 1),)


def test_word_roundtrip_bfs_matrix():
    g = GroupElement(2, 1, 1, 1)
    word = matrix_to_word(g)
    assert from_word(word).entries() == g.entries()
    # BFS oracle: some word of single generators of length <= 6 hits g
    frontier = {IDENTITY.entries(): ()}
    found = None
    for _ in range(6):
        nxt = {}
        for ent, w in frontier.items():
            m = GroupElement(*ent, word=())
            for gen, step in (("T", T), ("T-", T.inv()), ("S", S)):
                me = (m @ step).entries()
                if me not in nxt:
                    nxt[me] = w + (gen,)
        frontier.update(nxt)
        if g.entries() in frontier:
            found = frontier[g.entries()]
            break
    assert found is not None and len(found) <= 6


def test_word_roundtrip_random():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(40):
        g = random_element(rng)
        w = matrix_to_word(GroupElement(*g.entries()))
        prod = from_word(w)
        assert prod.entries() == g.entries()  # exact, sign already patched by S^2


def test_word_rejects_nonunimodular():
    with pytest.raises(DomainError):
        GroupElement(2, 0, 0, 1)


# ---------------------------------------------------------------------------
# multiplier systems


def test_multiplier_T():
    for r in (2.5, 12, 1.3 + 0.4j):
        ms = MultiplierSystem.modular(r)
        assert multiplier_eval(ms, T) == pytest.approx(cmath.exp(1j * math.pi * r / 6))


def test_multiplier_S_weight_12():
    ms = MultiplierSystem.modular(12)
    assert multiplier_eval(ms, S) == pytest.approx(1.0)  # e^{-6 pi i}


def _j_chain_oracle(ms, word_tokens, z):
    """Independent route: chain the generator j-factors along an explicit word."""
    mats = {"T": T, "T-": T.inv(), "S": S}
    vals = {
        "T": ms.vT,
        "T-": 1 / ms.vT,
        "S": ms.vS,
    }
    j = 1.0 + 0j
    # j(g1...gm, z) = prod_i j(g_i, (g_{i+1}...g_m) z), each factor on its own branch
    for i, tok in enumerate(word_tokens):
        tail = IDENTITY
        for t2 in word_tokens[i + 1 :]:
            tail = tail @ mats[t2]
        gi = mats[tok]
        j *= vals[tok] * power_branch(gi.cd(tail.apply(z)), ms.weight, ARG_UPPER)
    return j


def j_factor(ms: MultiplierSystem, g: GroupElement, z: complex) -> complex:
    # the automorphy factor j(g, z) = v(g) (cz+d)^r on the upper half-plane
    return multiplier_eval(ms, g) * power_branch(g.cd(z), ms.weight, ARG_UPPER)


def test_multiplier_generic_element_vs_chain_oracle():
    # (2,1;1,1) = T^2 S T, checked against the BFS word's j-factor chain
    g = GroupElement(2, 1, 1, 1)
    z = 0.3 + 1.7j
    for r in (2.5, 0.5 + 0.5j, 12):
        ms = MultiplierSystem.modular(r)
        lhs = j_factor(ms, g, z)
        rhs = _j_chain_oracle(ms, ("T", "T", "S", "T"), z)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_j_cocycle_property():
    rng = np.random.default_rng(RNG_SEED + 1)
    r = 1.3 + 0.4j
    ms = MultiplierSystem.modular(r)
    for _ in range(50):
        gam, dlt = random_element(rng), random_element(rng)
        z = complex(rng.uniform(-2, 2), rng.uniform(0.2, 3))
        lhs = j_factor(ms, GroupElement(*(gam @ dlt).entries()), z)  # fresh word
        rhs = j_factor(ms, gam, dlt.apply(z)) * j_factor(ms, dlt, z)
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_j_minus_identity_invariance():
    # j(-g, z) = j(g, z)
    rng = np.random.default_rng(RNG_SEED + 2)
    ms = MultiplierSystem.modular(0.5 + 0.5j)
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
    for g in (S, T @ S @ T, GroupElement(2, 1, 1, 1), S @ t_power(-2) @ S):
        for _ in range(5):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2.5, -0.2))
            lhs = iota(lambda w: slash(f, r, g, w, "upper"), z)
            rhs = slash(lambda w: iota(f, w), r.conjugate(), g, z, "lower")
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# cusps


def test_scaling_matrix_basic():
    assert scaling_matrix(math.inf) is IDENTITY
    from fractions import Fraction

    for cusp in (Fraction(0), Fraction(1), Fraction(-2, 3), Fraction(5, 7)):
        g = scaling_matrix(cusp)
        assert g.is_integral
        assert g.apply_cusp(math.inf) == cusp
