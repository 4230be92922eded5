"""Command-line front end: computations and verification suites.

Every subcommand emits one JSON object (or CSV rows with --format csv) of the
shape

    {command, params, results: [{inputs, value: [re, im]}],
     residuals: [...], tolerance, pass}

and exits 0 iff all residual checks passed, 2 on bad flags, 3 on a numerical
refusal (with a machine-readable reason on stdout, or the record itself when
a number in it is not finite; JSON prints such a number as null), 1 when
checks ran but failed.  Floats are printed with 17 significant digits in a
fixed order, so identical configurations produce byte-identical output.
`verify-all` runs the whole acceptance battery (reduced sample counts with
--quick, the default; full counts with --full); there each result row carries
its own tolerance in `inputs` and the top-level residuals are normalized by
them, with tolerance 1.
"""

import argparse
import cmath
import csv
import io
import json
import math
import sys
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import exp1

from .algebra import (ARG_CUT_UP, ARG_UPPER, IDENTITY, GroupElement, S, T,
                      power_branch, slash, slash_multiplier)
from .averages import (AverageSpec, average_asymptotic_coeffs,
                       average_continued, one_sided_average)
from .cocycles import (DEFAULT_SAMPLES, FormEvaluator, GoldfeldResult, I_integral,
                       L_eta_detailed, eichler_cocycle, goldfeld_lprime, newform37_coeffs,
                       period_function, period_series_coeffs, verify_period_relations)
from .errors import DomainError, EichlerError
from .harmonic import (PolarIndex, bol_operator, cauchy_formula, e2_star,
                       f_rn, germ_factor, kernel_K, kernel_restriction,
                       laplacian_r, polar_eval, polar_expansion_partial,
                       polar_shadow, q_lift, resolvent_Q, shadow)
from .quadrature import ContourSpec
from .quantum import eta_defect, quantum_value_eta, weight0_quantum
from .specfun import hurwitz_lerch, lerch_asymptotic, lerch_b_coeffs, pochhammer

__all__ = ["CRITERIA", "main", "run"]


# ---------------------------------------------------------------------------
# deterministic serialization


def _num(x: float) -> str:
    return format(float(x), ".17g")


def _dump(obj, indent: int = 0) -> str:
    # json with fixed float formatting (17 significant digits)
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [pad + "  " + json.dumps(str(k)) + ": " + _dump(v, indent + 1)
                for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [pad + "  " + _dump(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _num(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    return json.dumps(obj)


def _finite(obj) -> bool:
    # every float in a record is finite
    if isinstance(obj, dict):
        return all(_finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(_finite(v) for v in obj)
    return not isinstance(obj, float) or math.isfinite(obj)


def _cpx(z: complex) -> List[float]:
    z = complex(z)
    return [z.real, z.imag]


def _record(command: str, params: dict, results: list, residuals: Sequence[float],
            tolerance: float, passed: Optional[bool] = None) -> dict:
    residuals = [float(x) for x in residuals]
    if passed is None:
        passed = all(x <= tolerance for x in residuals)
    return {"command": command, "params": params, "results": results,
            "residuals": residuals, "tolerance": float(tolerance), "pass": bool(passed)}


def _emit(rec: dict, fmt: str) -> str:
    if fmt == "json":
        return _dump(rec)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["command", "inputs", "value_re", "value_im", "residual"])
    residuals = rec["residuals"]
    aligned = len(residuals) == len(rec["results"])
    for k, row in enumerate(rec["results"]):
        res = _num(residuals[k]) if aligned else ""
        val = row["value"]
        writer.writerow([rec["command"], json.dumps(row["inputs"], sort_keys=True),
                         _num(val[0]), _num(val[1]), res])
    if not aligned:
        for k, res in enumerate(residuals):
            writer.writerow([rec["command"], json.dumps({"residual": k}),
                             "", "", _num(res)])
    return buf.getvalue().rstrip("\n")


# ---------------------------------------------------------------------------
# flag parsing: argparse is the only place flags are checked, so every bad
# value stops here with exit 2


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise argparse.ArgumentTypeError(f"expected RE or RE,IM, got {text!r}")
    try:
        re = float(parts[0])
        im = float(parts[1]) if len(parts) == 2 else 0.0
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not (math.isfinite(re) and math.isfinite(im)):
        raise argparse.ArgumentTypeError(f"expected finite parts, got {text!r}")
    return complex(re, im)


def _parse_rational(text: str) -> Fraction:
    try:
        val = Fraction(text)
        float(val)  # the cusp is used as a float too, so it must fit one
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return val


def _tol(text: str) -> float:
    val = float(text)
    if not 1e-14 <= val <= 1e-2:
        raise argparse.ArgumentTypeError("tolerance must lie in [1e-14, 1e-2]")
    return val


def _count(high: float = math.inf) -> Callable[[str], int]:
    # argparse type of a count in 1..high
    def count(text: str) -> int:
        val = int(text)
        if not 1 <= val <= high:
            raise argparse.ArgumentTypeError(f"count must lie in 1..{high}, got {val}")
        return val
    return count


_DELTAS = {"S": S, "T": T, "ST": S @ T, "TS": T @ S, "TST": T @ S @ T}


# ---------------------------------------------------------------------------
# computations shared by a subcommand and its acceptance criterion; each
# caller brings its own weights, points and tolerances


# generator pairs (gamma, delta) of the cocycle relation
_PAIRS = (("S,T", S, T), ("T,S", T, S), ("ST,TS", S @ T, T @ S))


def _cocycle_relation_residual(F: FormEvaluator, gamma: GroupElement,
                               delta: GroupElement, z0: complex, t: complex,
                               quad_tol: float) -> float:
    # psi_{gamma delta} = psi_delta + psi_gamma |_{v,2-r} delta
    ms, p = F.multiplier, 2.0 - complex(F.weight)
    lhs = complex(eichler_cocycle(F, gamma @ delta, z0, t, tol=quad_tol))
    base = complex(eichler_cocycle(F, delta, z0, t, tol=quad_tol))
    psi_g = lambda u: complex(eichler_cocycle(F, gamma, z0, u, tol=quad_tol))
    return abs(lhs - base - slash_multiplier(psi_g, ms, p, delta, t, "lower"))


def _l_value_sides(r: complex, s: complex) -> Tuple[complex, complex]:
    # I(r,s) and (2 pi)^{-s} Gamma(s) L(eta^{2r}, s), equal by the Mellin transform
    return I_integral(r, s), L_eta_detailed(r, s).completed


def _average_step(lam: complex, sign: str, r: complex, t: complex,
                  quad_tol: float) -> Tuple[complex, float]:
    # Av(t) for g(z) = (iz)^{r-2} and the residual of Av(t) - Av(t+1)/lam = g(t)
    g = lambda z: power_branch(1j * z, complex(r) - 2.0, ARG_UPPER)
    spec = AverageSpec(lam, sign, r, g)
    av = one_sided_average(spec, t, tol=quad_tol)
    av1 = one_sided_average(spec, t + 1, tol=quad_tol)
    return av, abs(av - av1 / complex(lam) - g(t))


# r-harmonic families: name -> (weight r) -> (weight of Delta_r, function)
_FAMILIES = {
    "y^{1-r}": lambda r: (r, lambda u: cmath.exp((1 - complex(r)) * math.log(u.imag))),
    "P": lambda r: (r, lambda u: polar_eval(PolarIndex(r, 2), "P", u)),
    "M": lambda r: (r, lambda u: polar_eval(PolarIndex(r, -2), "M", u)),
    "H": lambda r: (r, lambda u: polar_eval(PolarIndex(r, -2), "H", u)),
    "K": lambda r: (r, lambda u: kernel_K(r, u, 0.3 + 0.9j)),
    "Q": lambda r: (r, lambda u: resolvent_Q(r, -0.5 + 4j, u)),
    "F_{r,n}": lambda r: (0.4, lambda u: f_rn(0.4, 1, u)),
    "E2*": lambda r: (2.0, e2_star),
}


def _laplacian_residual(name: str, r: complex, z: complex) -> float:
    weight, F = _FAMILIES[name](r)
    return abs(laplacian_r(F, weight, z))


# the kernel expansion's point pair (z, tau): the Cayley images i(1+w)/(1-w)
# of w = 0.8 e^{0.7i} and w = 0.3 e^{-1.1i} in the unit disc
_KERNEL_Z, _KERNEL_TAU = (1j * (1 + w) / (1 - w)
                          for w in (0.8 * cmath.exp(0.7j), 0.3 * cmath.exp(-1.1j)))

# Cauchy's formula on the circle |u - i| = 0.65, at a point inside and outside
_CIRCLE = ContourSpec.circle(1j, 0.65)
_Z_INSIDE, _Z_OUTSIDE = 1j * math.sqrt(1 - 0.65 ** 2), 3j


def _cauchy_sides(r: complex, quad_tol: float) -> Tuple[complex, complex, complex]:
    # Green's-form integrals of F(u) = u^2 + 1 at the inside and the outside
    # point, and the value 2 pi i (1-r) F(z') expected inside
    F = lambda u: u * u + 1
    inside = cauchy_formula(F, r, _Z_INSIDE, _CIRCLE, tol=quad_tol)
    outside = cauchy_formula(F, r, _Z_OUTSIDE, _CIRCLE, tol=quad_tol)
    return inside, outside, 2j * math.pi * (1 - complex(r)) * F(_Z_INSIDE)


def _goldfeld_sides(a: Sequence[float], N: int,
                    quad_tol: float) -> Tuple[GoldfeldResult, float, float]:
    # goldfeld_lprime; the independent route L'(1) = 2 sum a_n/n E_1(2 pi n /
    # sqrt N) for root number -1; the residual of slope = -i u-integral
    res = goldfeld_lprime(a, N, tol=quad_tol)
    ns = np.arange(1, len(a) + 1)
    oracle = 2.0 * float(np.sum(np.asarray(a) / ns * exp1(2 * math.pi * ns / math.sqrt(N))))
    slope_rel = abs(res.slope - (-1j) * res.u_integral) / abs(res.u_integral)
    return res, oracle, slope_rel


# ---------------------------------------------------------------------------
# subcommands


def cmd_period(args) -> dict:
    points = DEFAULT_SAMPLES[:args.points]
    results = [{"inputs": {"t": _cpx(t)},
                "value": _cpx(period_function(args.r, t, tol=args.quad_tol))}
               for t in points]
    residuals: List[float] = []
    passed = True
    if args.check_relations:
        rep = verify_period_relations(args.r, samples=points, tol=args.tol,
                                      quad_tol=args.quad_tol)
        residuals = [v for _, v in rep.checks]
        passed = rep.passed
    return _record("period", {"r": _cpx(args.r), "points": len(points),
                              "check_relations": bool(args.check_relations)},
                   results, residuals, args.tol, passed)


def cmd_cocycle_check(args) -> dict:
    F = FormEvaluator.eta_power(args.r)
    results = []
    residuals = []
    for name, g, d in _PAIRS:
        for t in DEFAULT_SAMPLES[:args.points]:
            res = _cocycle_relation_residual(F, g, d, args.z0, t, args.quad_tol)
            results.append({"inputs": {"pair": name, "t": _cpx(t)},
                            "value": [res, 0.0]})
            residuals.append(res)
    return _record("cocycle-check", {"r": _cpx(args.r), "z0": _cpx(args.z0)},
                   results, residuals, args.tol)


def cmd_l_value(args) -> dict:
    mellin, gamma_side = _l_value_sides(args.r, args.s)
    rel = abs(mellin - gamma_side) / abs(gamma_side)
    results = [
        {"inputs": {"quantity": "I(r,s)"}, "value": _cpx(mellin)},
        {"inputs": {"quantity": "(2pi)^-s Gamma(s) L(s)"}, "value": _cpx(gamma_side)},
    ]
    return _record("l-value", {"r": _cpx(args.r), "s": _cpx(args.s)},
                   results, [rel], args.tol)


def cmd_lerch(args) -> dict:
    s, a, z = args.s, args.a, args.z
    val = hurwitz_lerch(s, a, z, tol=args.tol)
    again = hurwitz_lerch(s, a, z, tol=args.tol * 1e-3)
    res = abs(val - again)
    return _record("lerch", {"s": _cpx(s), "a": _cpx(a), "z": _cpx(z)},
                   [{"inputs": {"quantity": "H(s,a,z)"}, "value": _cpx(val)}],
                   [res], args.tol)


def cmd_average(args) -> dict:
    r, lam, sign = args.r, args.lam, args.sign
    results = []
    residuals = []
    for k in range(args.points):
        t = complex(2.5, -0.4) + k if sign == "plus" else complex(-2.5, -0.4) - k
        av, res = _average_step(lam, sign, r, t, args.quad_tol)
        results.append({"inputs": {"t": _cpx(t)}, "value": _cpx(av)})
        residuals.append(res)
    return _record("average", {"r": _cpx(r), "lambda": _cpx(lam), "sign": sign},
                   results, residuals, args.tol)


def cmd_harmonic_check(args) -> dict:
    results = []
    residuals = []
    for name in ("y^{1-r}", "P", "M", "H", "K", "E2*"):
        for z in (1.1 + 0.8j, -0.9 + 1.3j):
            res = _laplacian_residual(name, args.r, z)
            results.append({"inputs": {"family": name, "z": _cpx(z)},
                            "value": [res, 0.0]})
            residuals.append(res)
    return _record("harmonic-check", {"r": _cpx(args.r)}, results, residuals, args.tol)


def cmd_kernel_expand(args) -> dict:
    r, z, tau = args.r, _KERNEL_Z, _KERNEL_TAU
    kern = kernel_K(r, z, tau)
    part = polar_expansion_partial(r, z, tau, terms=args.terms)
    results = [
        {"inputs": {"quantity": "K_r(z;tau)", "z": _cpx(z), "tau": _cpx(tau)},
         "value": _cpx(kern)},
        {"inputs": {"quantity": f"expansion({args.terms} terms)"}, "value": _cpx(part)},
    ]
    return _record("kernel-expand", {"r": _cpx(r), "terms": args.terms},
                   results, [abs(part - kern)], args.tol)


def cmd_cauchy(args) -> dict:
    inside, outside, want = _cauchy_sides(args.r, args.quad_tol)
    scale = abs(want)
    results = [
        {"inputs": {"where": "inside", "z'": _cpx(_Z_INSIDE)}, "value": _cpx(inside)},
        {"inputs": {"where": "outside", "z'": _cpx(_Z_OUTSIDE)}, "value": _cpx(outside)},
    ]
    return _record("cauchy", {"r": _cpx(args.r), "circle": [_cpx(1j), 0.65]},
                   results, [abs(inside - want) / scale, abs(outside) / scale],
                   args.tol)


def cmd_quantum(args) -> dict:
    r, a = args.r, args.a
    p = quantum_value_eta(r, a, args.z0)
    lhs, rhs = eta_defect(r, a, _DELTAS[args.delta], args.z0)
    results = [
        {"inputs": {"quantity": "p(a)", "a": str(a)}, "value": _cpx(p)},
        {"inputs": {"quantity": "defect"}, "value": _cpx(lhs)},
        {"inputs": {"quantity": "cocycle"}, "value": _cpx(rhs)},
    ]
    return _record("quantum", {"r": _cpx(r), "a": str(a), "delta": args.delta},
                   results, [abs(lhs - rhs)], args.tol)


def _load_fixture(path: str) -> List[float]:
    # rows (n, a_n) with n running over 1..(row count), each once
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or ()
            rows = list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DomainError(f"cannot read fixture {path}: {exc}") from None
    if "n" not in header or "a_n" not in header:
        raise DomainError(f"fixture {path} needs the columns n and a_n")
    try:
        coeffs = sorted((int(row["n"]), float(row["a_n"])) for row in rows)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"fixture {path} has a non-numeric value: {exc}") from None
    if not coeffs or [n for n, _ in coeffs] != list(range(1, len(coeffs) + 1)):
        raise DomainError(f"fixture {path} must list each n = 1..{len(coeffs)} "
                          "exactly once")
    return [an for _, an in coeffs]


def cmd_goldfeld(args) -> dict:
    if args.fixture:
        a = _load_fixture(args.fixture)
        N = args.level
    else:
        a = newform37_coeffs(args.n_max)
        N = 37
    res, oracle, slope_rel = _goldfeld_sides(a, N, args.quad_tol)
    results = [
        {"inputs": {"quantity": "L'(1)"}, "value": [res.lprime, 0.0]},
        {"inputs": {"quantity": "L'(1) smoothed-series oracle"}, "value": [oracle, 0.0]},
        {"inputs": {"quantity": "L(1)"}, "value": [res.l1, 0.0]},
        {"inputs": {"quantity": "cocycle slope"}, "value": _cpx(res.slope)},
    ]
    residuals = [abs(res.lprime - oracle), abs(res.l1), slope_rel]
    return _record("goldfeld", {"level": N, "coefficients": len(a)},
                   results, residuals, args.tol)


# ---------------------------------------------------------------------------
# verify-all: the acceptance battery


def _check(name: str, residual: float, tol: float) -> dict:
    return {"name": name, "residual": float(residual), "tolerance": float(tol)}


_LAM7 = cmath.exp(2j * math.pi / 7)


def _crit_cocycle_relation(full: bool) -> List[dict]:
    rs = (2.5, 1.3 + 0.4j) if full else (2.5,)
    # quick mode keeps the one pair where neither side degenerates at z0 = i
    # (S fixes i, so psi_S vanishes identically in the other two pairs)
    pairs = _PAIRS if full else _PAIRS[-1:]
    ts = DEFAULT_SAMPLES[:10] if full else DEFAULT_SAMPLES[:2]
    out = []
    for r in rs:
        F = FormEvaluator.eta_power(r)
        for name, g, d in pairs:
            worst = max(_cocycle_relation_residual(F, g, d, 1j, t, 1e-9) for t in ts)
            out.append(_check(f"cocycle r={r} ({name})", worst, 1e-7))
    return out


def _crit_period_relations(full: bool) -> List[dict]:
    rs = (2.5, 12.0, 2.5 + 0.5j) if full else (2.5,)
    ts = DEFAULT_SAMPLES[:5] if full else DEFAULT_SAMPLES[:2]
    out = []
    for r in rs:
        rep = verify_period_relations(r, samples=ts, tol=1e-7)
        for label, val in rep.checks:
            out.append(_check(f"period r={r} {label}", val, 1e-7))
        out.append(_check(f"eta^{{2r}} invariance r={r}",
                          FormEvaluator.eta_power(r).invariance_residual(), 1e-12))
    return out


def _crit_l_value_identity(full: bool) -> List[dict]:
    out = []
    # s = 20 and s = -9.5 reach Gamma(a, u) at Re a > |u| in the L-series
    for s in ((6.0, 8.0, 20.0, -9.5) if full else (6.0,)):
        mell, other = _l_value_sides(12.0, s)
        out.append(_check(f"I(12,{s}) vs Gamma-L", abs(mell - other) / abs(other), 1e-8))
    sym = abs(I_integral(12.0, 3.7) - I_integral(12.0, 8.3)) / abs(I_integral(12.0, 3.7))
    out.append(_check("I(12,3.7) = I(12,8.3)", sym, 1e-9))
    return out


def _crit_period_taylor(full: bool) -> List[dict]:
    # fit the period function near 0 by least squares and compare the two
    # leading Taylor coefficients with the Mellin-transform formula
    r = 2.5
    pts = [0.05 * cmath.exp(-1j * math.pi * (k + 0.5) / 8.0) for k in range(8)]
    vals = [period_function(r, t, tol=1e-12) for t in pts]
    V = np.vander(np.array(pts), 6, increasing=True)
    coef, *_ = np.linalg.lstsq(V, np.array(vals), rcond=None)
    want = period_series_coeffs(r, 2)
    return [_check(f"Taylor c_{n}", abs(coef[n] - want[n]) / abs(want[n]), 1e-5)
            for n in range(2)]


def _crit_hurwitz_lerch(full: bool) -> List[dict]:
    s, a, z = 2.5, 0.3, 1.7
    cont = hurwitz_lerch(s, a, z, tol=1e-11)
    # the defining series; its tail oscillates, so 4e5 terms leave ~1e-13
    n = np.arange(0, 400_000)
    direct = complex(np.sum(np.exp(2j * math.pi * a * n) * (z + n) ** (-s)))
    out = [_check("H(2.5,0.3,1.7) continuation vs direct",
                  abs(cont - direct), 1e-9)]
    for lam in (1.0, 0.3 + 0.4j) + ((_LAM7,) if full else ()):
        b = lerch_b_coeffs(lam, s, 4)
        binv = lerch_b_coeffs(1.0 / lam, s, 4)
        worst = max(abs(binv[k] / lam - (-1.0) ** (k + 1) * b[k]) for k in range(5))
        out.append(_check(f"b_k reflection lambda={lam}", worst, 1e-12))
    b1 = lerch_b_coeffs(1.0, s, 1)
    out.append(_check("b table lambda=1", abs(b1[0]) + abs(b1[1] + s / 24), 1e-12))
    cells = (("generic", 0.3 + 0.4j),) \
        + ((("unit", cmath.exp(0.6j * math.pi)),) if full else ())
    for kind, lam in cells:
        b2 = lerch_b_coeffs(lam, s, 1)
        want0 = 1 / (1 - lam)
        want1 = -(s / 2) * (1 + lam) / (1 - lam) ** 2
        out.append(_check(f"b table lambda {kind}",
                          abs(b2[0] - want0) + abs(b2[1] - want1), 1e-12))
    if full:
        # the K = 3 asymptotic expansion stays within its own error bound
        for aa in (0.3, 0.2, 0.0):
            asym, bound = lerch_asymptotic(s, aa, 40.5, 3)
            exact = hurwitz_lerch(s, aa, 40.5, tol=1e-13)
            out.append(_check(f"Katsurada K=3 bound a={aa}", abs(asym - exact), bound))
    return out


def _crit_one_sided_averages(full: bool) -> List[dict]:
    cells = [
        (1.5, "plus", 0.7, 2.5 - 0.3j),
        (1.0, "minus", -1.0, -2.5 - 0.3j),
    ]
    if full:
        cells += [
            (_LAM7, "plus", 0.3, 2.5 - 0.3j),
            (1.0, "plus", -1.0, 2.5 - 0.3j),
            (_LAM7, "minus", 0.3, -2.5 - 0.3j),
            (0.6, "minus", 0.7, -2.5 - 0.3j),
        ]
    out = []
    for lam, sign, r, t in cells:
        _, res = _average_step(lam, sign, r, t, 1e-10)
        out.append(_check(f"diff-eq lam={lam} {sign} r={r}", res, 1e-8))
    if full:
        # Lerch continuation at r = 1.6, outside every |lambda| = 1 cell
        h = lambda z: 0.7 + (2 * (z - 1j) + 1) / ((z - 1j) ** 2 + 0.25)
        gg = lambda z: power_branch(z - 1j, 1.6 - 2.0, ARG_CUT_UP) * h(z)
        for lam in (_LAM7, -1.0, 1.0):
            for sign, t in (("plus", 3.0 - 0.2j), ("minus", -3.0 - 0.2j)):
                got = average_continued(h, 1.6, lam, sign, t)
                got1 = average_continued(h, 1.6, lam, sign, t + 1)
                out.append(_check(f"continued r=1.6 lam={lam} {sign}",
                                  abs(got - got1 / lam - gg(t)), 1e-7))
    c = average_asymptotic_coeffs(1.0, 0.0, 0.0, 0.5, 1.0)
    out.append(_check("asymptotic table c_{-1} (lam=1)",
                      abs(c[0] - 1.0 / (1 - 0.5)), 1e-12))
    return out


def _crit_shadow_and_laplacian(full: bool) -> List[dict]:
    r = 0.6 + 0.2j
    z = 1.1 + 0.8j
    out = []
    for mu in (-2, 0, 1):
        idx = PolarIndex(r, mu)
        fd = shadow(lambda u: polar_eval(idx, "M", u), r, z)
        cf = polar_shadow(idx, "M", z)
        out.append(_check(f"shadow M mu={mu}", abs(fd - cf) / abs(cf), 1e-5))
    mu, rr = -3, 2.0 / 3.0
    idx = PolarIndex(rr, mu)
    comb = mu / (1 - rr) * polar_eval(idx, "M", z) \
        + math.factorial(-mu) / pochhammer(1 - rr, -mu) * polar_eval(idx, "P", z)
    out.append(_check("Kummer relation", abs(polar_eval(idx, "H", z) - comb), 1e-10))
    pts = (0.3 + 1.1j, -0.7 + 0.4j, 1.9j, 0.45 + 0.85j, -1.6 + 2.3j) if full \
        else (0.3 + 1.1j,)
    worst = max(abs(shadow(e2_star, 2.0, p) - 3 / math.pi) / (3 / math.pi) for p in pts)
    out.append(_check("xi E2* = 3/pi", worst, 1e-5))
    for name in ("P", "M", "H", "K", "Q", "F_{r,n}", "E2*", "y^{1-r}"):
        zz = 0.3 + 0.9j if name == "F_{r,n}" else z
        out.append(_check(f"Delta_r {name} = 0", _laplacian_residual(name, r, zz), 1e-4))
    return out


def _crit_kernel(full: bool) -> List[dict]:
    r, z, tau = 0.5 + 0.1j, _KERNEL_Z, _KERNEL_TAU
    out = []
    elements = (("S", S), ("T", T), ("(2,1,1,1)", GroupElement(2, 1, 1, 1))) if full \
        else (("S", S),)
    for name, g in elements:
        lhs = slash(lambda u: kernel_K(r, u, g.apply(tau)), r, g, z) \
            * g.cd(tau) ** (complex(r) - 2.0)
        out.append(_check(f"equivariance g={name}", abs(lhs - kernel_K(r, z, tau)), 1e-9))
    t0 = 0.7
    want = kernel_restriction(r, tau, t0)
    got = kernel_K(r, t0 + 1e-4j, tau) / germ_factor(r, t0 + 1e-4j)
    out.append(_check("restriction boundary limit", abs(got - want) / abs(want), 1e-4))
    part = polar_expansion_partial(r, z, tau, terms=40)
    out.append(_check("polar expansion M=40", abs(part - kernel_K(r, z, tau)), 1e-8))
    p3 = polar_expansion_partial(3.0, z, tau, terms=40)
    out.append(_check("integer-weight identity r=3", abs(p3 - kernel_K(3.0, z, tau)), 1e-10))
    return out


def _crit_cauchy_formula(full: bool) -> List[dict]:
    inside, outside, want = _cauchy_sides(0.7, 1e-10)
    return [_check("inside", abs(inside - want) / abs(want), 1e-6),
            _check("outside", abs(outside) / abs(want), 1e-6)]


def _crit_kernel_lift(full: bool) -> List[dict]:
    F = FormEvaluator.eta_power(2.5)
    z0, t = 1j, 0.4 - 0.8j
    QF = lambda u: q_lift(F, z0, u, tol=1e-12)
    lhs = slash_multiplier(QF, F.multiplier, -0.5, S, t, halfplane="lower") - QF(t)
    rhs = complex(eichler_cocycle(F, S, z0, t))
    out = [_check("coboundary = cocycle (g=S)", abs(lhs - rhs), 1e-6)]
    z = 0.3 + 1.1j
    G = lambda u: q_lift(F, z0, u.conjugate(), tol=1e-13).conjugate()
    fd = shadow(G, -0.5, z)
    want = 2 ** 1.5 * cmath.exp(1j * math.pi * 0.75) * F(z)
    out.append(_check("shadow recovers F", abs(fd - want) / abs(want), 1e-4))
    return out


def _crit_bol_identity(full: bool) -> List[dict]:
    lhs, rhs = bol_operator([(1, 1.0)], 4, S, 0.3 + 1.1j)
    return [_check("Bol r=4 g=S", abs(lhs - rhs) / abs(rhs), 1e-5)]


def _random_group_element(rng) -> GroupElement:
    g = IDENTITY
    for _ in range(rng.integers(1, 6)):
        g = g @ (S if rng.integers(2) else T)
        g = g @ GroupElement(1, int(rng.integers(-2, 3)), 0, 1)
    return g


def _crit_quantum_values(full: bool) -> List[dict]:
    out = [_check("weight-0 model", weight0_quantum(1, S, -1j), 1e-14)]
    if full:
        # the weight-0 defect relation is exact at random (g, a, t)
        rng = np.random.default_rng(20260814)
        done = 0
        while done < 20:
            g = _random_group_element(rng)
            a = int(rng.integers(-3, 4))
            t = complex(rng.uniform(-2, 2), -rng.uniform(0.2, 2.0))
            if g.c * a + g.d == 0 or abs(g.c * t + g.d) < 1e-6:
                continue
            done += 1
            out.append(_check(f"weight-0 random #{done}", weight0_quantum(a, g, t), 1e-12))
    lhs, rhs = eta_defect(3.0, 1, S, 1j)
    out.append(_check("eta defect (3,1,S)", abs(lhs - rhs), 1e-5))
    # Cauchy ladder: the boundary approach of the lift converges to the value
    p = quantum_value_eta(3.0, 1, 1j)
    prev = None
    for eps in ((1e-2, 1e-3, 1e-4) if full else (1e-2, 1e-3)):
        err = abs(quantum_value_eta(3.0, 1, 1j, t=1 - 1j * eps) - p)
        out.append(_check(f"ladder eps={eps}", err / (10 * eps), 1.0))
        if full and prev is not None:
            out.append(_check(f"ladder shrinks at eps={eps}", err / prev, 1.0))
        prev = err
    return out


def _crit_goldfeld(full: bool) -> List[dict]:
    a = newform37_coeffs(200 if full else 120)
    res, oracle, slope_rel = _goldfeld_sides(a, 37, 1e-7 if full else 1e-6)
    return [_check("L'(1) vs smoothed series", abs(res.lprime - oracle), 1e-4),
            _check("slope = -i u-integral", slope_rel, 1e-2)]


# The acceptance battery, defined once: (number, name, criterion), where
# criterion(full) returns the checks {name, residual, tolerance} it ran.
# `verify-all` runs it in quick or full mode; tests/test_acceptance.py runs
# each criterion in full mode as one test, named after its function
# (_crit_kernel -> test_criterion_08_kernel).
CRITERIA: Tuple[Tuple[int, str, Callable[[bool], List[dict]]], ...] = (
    (1, "cocycle relation", _crit_cocycle_relation),
    (2, "period relations", _crit_period_relations),
    (3, "L-value identity", _crit_l_value_identity),
    (4, "period Taylor coefficients", _crit_period_taylor),
    (5, "Hurwitz-Lerch continuation", _crit_hurwitz_lerch),
    (6, "one-sided averages", _crit_one_sided_averages),
    (7, "shadow and Laplacian", _crit_shadow_and_laplacian),
    (8, "kernel expansion", _crit_kernel),
    (9, "Cauchy formula", _crit_cauchy_formula),
    (10, "kernel lift Q_F", _crit_kernel_lift),
    (11, "Bol identity", _crit_bol_identity),
    (12, "quantum values", _crit_quantum_values),
    (13, "Goldfeld L'(1)", _crit_goldfeld),
)


def cmd_verify_all(args) -> dict:
    full = bool(args.full)
    results = []
    residuals = []
    for num, name, crit in CRITERIA:
        for chk in crit(full):
            results.append({"inputs": {"criterion": num, "name": name,
                                       "check": chk["name"],
                                       "tolerance": chk["tolerance"]},
                            "value": [chk["residual"], 0.0]})
            residuals.append(chk["residual"] / chk["tolerance"])
    return _record("verify-all", {"mode": "full" if full else "quick"},
                   results, residuals, 1.0)


# ---------------------------------------------------------------------------
# parser and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eichler",
        description="Analytic machinery for complex-weight automorphic forms: "
                    "period cocycles, L-values, one-sided averages, polar "
                    "r-harmonic functions, and quantum values.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, r_default="2.5", tol_default=1e-7):
        p.add_argument("--r", type=_parse_complex, default=_parse_complex(r_default),
                       help="weight, RE or RE,IM")
        p.add_argument("--tol", type=_tol, default=tol_default,
                       help="residual tolerance")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("period", help="period function values and relations")
    common(p)
    p.add_argument("--points", type=_count(len(DEFAULT_SAMPLES)), default=5)
    p.add_argument("--quad-tol", type=_tol, default=1e-9)
    p.add_argument("--check-relations", action="store_true")
    p.set_defaults(handler=cmd_period)

    p = sub.add_parser("cocycle-check", help="cocycle property on generator pairs")
    common(p)
    p.add_argument("--points", type=_count(len(DEFAULT_SAMPLES)), default=3)
    p.add_argument("--z0", type=_parse_complex, default=1j)
    p.add_argument("--quad-tol", type=_tol, default=1e-9)
    p.set_defaults(handler=cmd_cocycle_check)

    p = sub.add_parser("l-value", help="Mellin transform against the L-series")
    common(p, r_default="12", tol_default=1e-8)
    p.add_argument("--s", type=_parse_complex, required=True)
    p.set_defaults(handler=cmd_l_value)

    p = sub.add_parser("lerch", help="Hurwitz-Lerch zeta value")
    common(p, tol_default=1e-9)
    p.add_argument("--s", type=_parse_complex, required=True)
    p.add_argument("--a", type=_parse_complex, required=True)
    p.add_argument("--z", type=_parse_complex, required=True)
    p.set_defaults(handler=cmd_lerch)

    p = sub.add_parser("average", help="one-sided average difference equation")
    common(p, r_default="0.7", tol_default=1e-8)
    p.add_argument("--lam", type=_parse_complex, default=_parse_complex("1.5"))
    p.add_argument("--sign", choices=("plus", "minus"), default="plus")
    p.add_argument("--points", type=_count(), default=2)
    p.add_argument("--quad-tol", type=_tol, default=1e-10)
    p.set_defaults(handler=cmd_average)

    p = sub.add_parser("harmonic-check", help="Laplacian residuals of the families")
    common(p, r_default="0.6,0.2", tol_default=1e-4)
    p.set_defaults(handler=cmd_harmonic_check)

    p = sub.add_parser("kernel-expand", help="polar expansion of the kernel")
    common(p, r_default="0.5,0.1", tol_default=1e-8)
    p.add_argument("--terms", type=_count(), default=40)
    p.set_defaults(handler=cmd_kernel_expand)

    p = sub.add_parser("cauchy", help="Green's form Cauchy formula")
    common(p, r_default="0.7", tol_default=1e-6)
    p.add_argument("--quad-tol", type=_tol, default=1e-10)
    p.set_defaults(handler=cmd_cauchy)

    p = sub.add_parser("quantum", help="quantum value and its defect")
    common(p, r_default="3", tol_default=1e-5)
    p.add_argument("--a", type=_parse_rational, default=Fraction(1))
    p.add_argument("--delta", choices=sorted(_DELTAS), default="S")
    p.add_argument("--z0", type=_parse_complex, default=1j)
    p.set_defaults(handler=cmd_quantum)

    p = sub.add_parser("goldfeld", help="L'(1) of a weight-2 newform")
    p.add_argument("--tol", type=_tol, default=1e-2)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--fixture", help="CSV of Fourier coefficients (n,a_n)")
    p.add_argument("--level", type=_count(), default=37)
    p.add_argument("--n-max", type=_count(), default=120)
    p.add_argument("--quad-tol", type=_tol, default=1e-7)
    p.set_defaults(handler=cmd_goldfeld)

    p = sub.add_parser("verify-all", help="run the acceptance battery")
    p.add_argument("--quick", action="store_true", default=True,
                   help="reduced sample counts (default)")
    p.add_argument("--full", action="store_true",
                   help="full sample counts")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=cmd_verify_all)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> Tuple[int, str]:
    """Execute one CLI invocation; returns (exit code, output text)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0), ""
    try:
        rec = args.handler(args)
    except EichlerError as exc:
        err = {"command": args.command,
               "error": {"type": type(exc).__name__, "reason": str(exc)}}
        return 3, _dump(err)
    if not _finite(rec):
        # a value that could not be computed is a refusal
        return 3, _emit(rec, args.format)
    return (0 if rec["pass"] else 1), _emit(rec, args.format)


def main(argv: Optional[Sequence[str]] = None) -> int:
    code, text = run(argv)
    if text:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
