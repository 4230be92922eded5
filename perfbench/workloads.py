"""Seeded inputs and checked operations of the three benchmark workloads.

Every operation calls the ``eichler`` library only through its public
functions and returns ``(values, residual, tolerance)``.  The residual is
the library's own independent check (period relations, cocycle relation,
quantum defect, Mellin/L identity, Cauchy formula) and the tolerance is the
one the library or the acceptance battery already uses for it.

Inputs depend only on the seed: ``random.Random(seed)`` drives every draw,
and the library receives the generated numbers, never the seed.  Draws are
stratified (one point per equal slice of each range, slices shuffled), so a
new seed moves the points but keeps each family's input distribution, and
with it the cost mix the percentiles are taken over.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

# tabulate: a few fixed weights, many seeded points; one integer and one
# non-real weight, so both the exact and the complex coefficient paths run
TABULATE_WEIGHTS = (12.0, 2.5 + 0.5j)
CAUCHY_WEIGHT = 0.7 + 0.3j  # the harmonic weight must avoid the integers >= 1
# operations per family in one tabulate pass: the cheap families stay under a
# third, so the median lands in the dense period/defect band and p90 among
# the Cauchy formulas, away from the seams between families
TABULATE_MIX = (("lvalue", 40), ("cocycle", 40), ("period", 80), ("defect", 80),
                ("cauchy", 60))

# sweep: every operation at a weight not seen before in the interpreter; a
# fifth are half-integers, so p90 lies inside their band, not on its edge
SWEEP_GENERIC = 80
SWEEP_HALF_INTEGERS = tuple(k / 2 for k in range(1, 21))  # 0.5, 1.0, ..., 10.0
SWEEP_WARMUP_WEIGHT = 1.3 + 0.2j  # never drawn, not in (1/2)Z

BATTERY_ARGV = ("verify-all", "--full")
BATTERY_MIN_CHECKS = 61  # checks in the full battery at the seed commit
BATTERY_WARMUP_ARGV = ("lerch", "--s", "2.5", "--a", "0.3", "--z", "1.7")
BATTERY_OPS = [("battery", ())]  # inputs fixed by the battery itself: the seed is unused


# ---------------------------------------------------------------------------
# operations


def op_period(E, r, t):
    rep = E.verify_period_relations(r, samples=(t,), tol=1e-7)
    return tuple(v for _, v in rep.checks), rep.max_residual, rep.tolerance


def _scaled(lhs: complex, rhs: complex) -> float:
    # the quadrature tolerance is relative to max(1, |value|), so is the check
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def op_cocycle(E, r, pair, z0, t):
    # psi_{gamma delta} = psi_delta + psi_gamma |_{v,2-r} delta
    g, d = pair
    F = E.FormEvaluator.eta_power(r)
    quad = 1e-9
    lhs = complex(E.eichler_cocycle(F, g @ d, z0, t, tol=quad))
    base = complex(E.eichler_cocycle(F, d, z0, t, tol=quad))
    psi_g = lambda u: complex(E.eichler_cocycle(F, g, z0, u, tol=quad))
    rhs = base + E.slash_multiplier(psi_g, F.multiplier, 2.0 - F.weight, d, t, "lower")
    return (lhs, rhs), _scaled(lhs, rhs), 1e-7


def op_defect(E, r, a, delta, z0):
    lhs, rhs = E.eta_defect(r, a, delta, z0)
    return (lhs, rhs), _scaled(lhs, rhs), 1e-5


def op_lvalue(E, r, s):
    from scipy.special import gamma as gamma_fn

    mellin = E.I_integral(r, s)
    other = (2 * math.pi) ** (-s) * complex(gamma_fn(s)) * E.L_eta(r, s)
    return (mellin, other), abs(mellin - other) / abs(other), 1e-8


def op_cauchy(E, r, coeffs, center, radius, zprime, inside):
    circle = E.ContourSpec.circle(center, radius)
    F = lambda u: coeffs[0] + u * (coeffs[1] + u * coeffs[2])
    got = E.cauchy_formula(F, r, zprime, circle, tol=1e-10)
    want = 2j * math.pi * (1 - r) * F(zprime)
    res = abs((got - want) if inside else got) / abs(want)
    return (got,), res, 1e-6


def op_battery(E):
    code, text = E.cli.run(list(BATTERY_ARGV))
    rec = json.loads(text) if text else {}
    ok = (code == 0 and rec.get("pass") is True
          and len(rec.get("results", ())) >= BATTERY_MIN_CHECKS)
    # the battery's residuals are already divided by their tolerances
    return text, max(rec.get("residuals") or [math.inf]) if ok else math.inf, 1.0


def op_sweep(E, r, s_direct, s_smooth, t):
    # the L identity on both sides of its threshold plus a one-point period
    # relation; residuals are normalised by their own tolerances
    vals = []
    worst = 0.0
    for s in (s_direct, s_smooth):
        v, res, tol = op_lvalue(E, r, s)
        vals.extend(v)
        worst = max(worst, res / tol)
    v, res, tol = op_period(E, r, t)
    vals.extend(v)
    return tuple(vals), max(worst, res / tol), 1.0


OPS = {"period": op_period, "cocycle": op_cocycle, "defect": op_defect,
       "lvalue": op_lvalue, "cauchy": op_cauchy, "sweep": op_sweep, "battery": op_battery}


# ---------------------------------------------------------------------------
# stratified draws


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list:
    width = (hi - lo) / n
    out = [lo + (k + rng.random()) * width for k in range(n)]
    rng.shuffle(out)
    return out


def _even(rng: random.Random, n: int, choices) -> list:
    out = [choices[k % len(choices)] for k in range(n)]
    rng.shuffle(out)
    return out


def _lower_points(rng: random.Random, n: int) -> list:
    # the box DEFAULT_SAMPLES spans: clear of the real line and the cuts
    return [complex(x, -y) for x, y in zip(_strata(rng, n, -3.0, 3.0),
                                           _strata(rng, n, 0.35, 3.0))]


def _upper_bases(rng: random.Random, n: int) -> list:
    # base points away from i and from the elliptic points of ST and TS
    return [complex(x, y) for x, y in zip(_strata(rng, n, -0.35, 0.35),
                                          _strata(rng, n, 1.15, 1.8))]


def _l_s_values(rng: random.Random, rs: list, direct: bool) -> list:
    # Re s = 1 + Re r/12 separates the direct sum from the gamma-smoothed route
    n = len(rs)
    im = _strata(rng, n, -1.0, 1.0)
    if direct:
        return [complex(1.0 + r.real / 12.0 + d, y)
                for r, d, y in zip(rs, _strata(rng, n, 1.5, 4.0), im)]
    return [complex(0.3 + f * (r.real / 12.0 + 0.4), y)
            for r, f, y in zip(rs, _strata(rng, n, 0.0, 1.0), im)]


def _tabulate_family(rng: random.Random, E, family: str, n: int) -> list:
    rs = _even(rng, n, TABULATE_WEIGHTS)
    if family == "period":
        return list(zip(rs, _lower_points(rng, n)))
    if family == "cocycle":
        S, T = E.S, E.T
        pairs = _even(rng, n, ((S, T), (T, S), (S @ T, T @ S)))
        return list(zip(rs, pairs, _upper_bases(rng, n), _lower_points(rng, n)))
    if family == "defect":
        S, T = E.S, E.T
        deltas = _even(rng, n, (S, T, T.inv(), S @ T, T @ S, S @ T @ T, T.inv() @ S))
        out = []
        for r, q, delta, z0 in zip(rs, _even(rng, n, (1, 2, 3, 4)), deltas,
                                   _upper_bases(rng, n)):
            a = Fraction(rng.randint(-2 * q, 2 * q), q)
            while delta.c * a + delta.d == 0:  # delta a must stay a finite rational
                a = Fraction(rng.randint(-2 * q, 2 * q), q)
            out.append((r, a, delta, z0))
        return out
    if family == "lvalue":
        sides = _even(rng, n, (True, False))
        direct = iter(_l_s_values(rng, rs, True))
        smooth = iter(_l_s_values(rng, rs, False))
        return [(r, next(direct) if side else next(smooth)) for r, side in zip(rs, sides)]
    if family == "cauchy":
        # a hyperbolic disc (centre p, pseudo-radius delta); z' sits near p or
        # well outside, so the resolvent stays clear of its refused M-series cap
        out = []
        for inside, px, py, delta, frac, ang in zip(
                _even(rng, n, (True, False)), _strata(rng, n, -0.5, 0.5),
                _strata(rng, n, 0.9, 1.3), _strata(rng, n, 0.55, 0.65),
                _strata(rng, n, 0.0, 1.0), _strata(rng, n, 0.0, 2 * math.pi)):
            p = complex(px, py)
            eps = 0.2 * frac if inside else 0.82 + 0.08 * frac
            w = eps * complex(math.cos(ang), math.sin(ang))
            zprime = (p - w * p.conjugate()) / (1 - w)
            center = complex(px, py * (1 + delta ** 2) / (1 - delta ** 2))
            radius = 2 * py * delta / (1 - delta ** 2)
            coeffs = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3))
            out.append((CAUCHY_WEIGHT, coeffs, center, radius, zprime, inside))
        return out
    raise ValueError(family)


# ---------------------------------------------------------------------------
# operation lists: (family, args) pairs


def tabulate_ops(E, seed: int) -> list:
    rng = random.Random(seed)
    ops = [(family, args) for family, n in TABULATE_MIX
           for args in _tabulate_family(rng, E, family, n)]
    rng.shuffle(ops)
    return ops


def tabulate_warmup() -> list:
    # one L identity per fixed weight fills the coefficient tables that the
    # measured operations then read warm
    return [("lvalue", (r, 6.0 + 0j)) for r in TABULATE_WEIGHTS]


def _sweep_ops(rng: random.Random, rs: list) -> list:
    return [("sweep", args) for args in zip(rs, _l_s_values(rng, rs, True),
                                            _l_s_values(rng, rs, False),
                                            _lower_points(rng, len(rs)))]


def sweep_ops(seed: int) -> list:
    rng = random.Random(seed)
    n = SWEEP_GENERIC
    rs = [complex(x, y) for x, y in zip(_strata(rng, n, 0.6, 11.5), _strata(rng, n, -0.6, 0.6))]
    rs += [complex(h) for h in SWEEP_HALF_INTEGERS]
    rng.shuffle(rs)
    return _sweep_ops(rng, rs)


def sweep_warmup() -> list:
    return _sweep_ops(random.Random(0), [SWEEP_WARMUP_WEIGHT])


def is_half_integer(r: complex) -> bool:
    return r.imag == 0 and (2 * r.real).is_integer()


def describe(ops) -> dict:
    """Operations per family, and the share of half-integer weights on sweep."""
    fams: dict = {}
    for family, _ in ops:
        fams[family] = fams.get(family, 0) + 1
    out = {"ops_per_family": fams}
    if "sweep" in fams:
        out["half_integer_share"] = sum(is_half_integer(a[0]) for _, a in ops) / len(ops)
    return out
