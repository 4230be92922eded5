"""Spot-checks of seeded library outputs against independent mpmath routes.

A residual such as the period relations would also pass if every value were
zero, so each workload also compares a few seeded values with mpmath,
outside the timed region:

* ``eta_power_eval`` against exp(2r (pi i z/12 + sum log(1 - q^n))), the
  analytic branch of eta^{2r} on the upper half-plane;
* ``period_function`` against ``mpmath.quad`` along 0 -> i infinity;
* ``hurwitz_lerch`` against ``mpmath.lerchphi``;
* ``one_sided_average`` against ``mpmath.nsum``.
"""

from __future__ import annotations

import random

import mpmath as mp

mp.mp.dps = 30


def _eta_power_mp(r, z):
    z = mp.mpc(z)
    q = mp.exp(2j * mp.pi * z)
    acc = mp.mpc(0)
    qn = q
    while abs(qn) > mp.mpf(10) ** -40:
        acc += mp.log(1 - qn)
        qn *= q
    return mp.exp(2 * mp.mpc(r) * (1j * mp.pi * z / 12 + acc))


def _period_mp(r, t):
    # psi(t) = i int_0^inf (iy - t)^{r-2} eta^{2r}(iy) dy, with
    # eta^{2r}(iy) = y^{-r} eta^{2r}(i/y) on the small-y half
    r, t = mp.mpc(r), mp.mpc(t)

    def eta_iy(y):
        if y < 1:
            return y ** (-r) * _eta_power_mp(r, 1j / y)
        return _eta_power_mp(r, 1j * y)

    f = lambda y: 1j * (1j * y - t) ** (r - 2) * eta_iy(y) if y > 0 else mp.mpc(0)
    return mp.quad(f, [0, 0.25, 1, 4, mp.inf])


def _compare(name, got, want, tol):
    want = complex(want)
    err = abs(complex(got) - want) / max(abs(want), 1e-300)
    return {"name": name, "got": [complex(got).real, complex(got).imag],
            "want": [want.real, want.imag], "rel_err": err, "tol": tol, "ok": err <= tol}


def _eta(E, r, z):
    return _compare(f"eta_power_eval r={r} z={z:.4g}", E.eta_power_eval(r, z),
                    _eta_power_mp(r, z), 1e-10)


def _period(E, r, t):
    return _compare(f"period_function r={r:.4g} t={t:.4g}", E.period_function(r, t),
                    _period_mp(r, t), 1e-8)


def _pullback_point(rng):
    # Im z < 1/2, so the library's modular pullback runs
    return complex(rng.uniform(-0.45, 0.45), rng.uniform(0.2, 0.45))


def _plain_point(rng):
    return complex(rng.uniform(-1.0, 1.0), rng.uniform(0.6, 1.5))


def run(E, W, workload: str, seed: int) -> list:
    """Compare a few seeded outputs of the workload's layers with mpmath."""
    rng = random.Random(seed ^ 0xC0FFEE)
    out = []
    if workload == "tabulate":
        for r in W.TABULATE_WEIGHTS:
            out.append(_eta(E, r, _pullback_point(rng)))
            out.append(_eta(E, r, _plain_point(rng)))
        t = complex(rng.uniform(-2.0, 2.0), -rng.uniform(0.4, 2.0))
        out.append(_period(E, W.TABULATE_WEIGHTS[1], t))
    elif workload == "sweep":
        r = complex(rng.uniform(0.6, 11.5), rng.uniform(-0.6, 0.6))
        h = rng.choice(W.SWEEP_HALF_INTEGERS)
        for w in (r, h):
            out.append(_eta(E, w, _pullback_point(rng)))
        t = complex(rng.uniform(-2.0, 2.0), -rng.uniform(0.4, 2.0))
        out.append(_period(E, r, t))
    elif workload == "battery":
        for _ in range(2):
            s = complex(rng.uniform(1.5, 3.5), rng.uniform(-1.0, 1.0))
            a, z = rng.uniform(0.1, 0.9), rng.uniform(0.5, 3.0)
            want = mp.lerchphi(mp.exp(2j * mp.pi * a), s, z)
            out.append(_compare(f"hurwitz_lerch s={s:.4g} a={a:.4g} z={z:.4g}",
                                E.hurwitz_lerch(s, a, z), want, 1e-9))
        out.append(_eta(E, 2.5, _pullback_point(rng)))
        lam = complex(rng.uniform(1.3, 2.0), rng.uniform(-0.3, 0.3))
        r = rng.uniform(0.3, 0.9)
        t = complex(rng.uniform(1.0, 3.0), -rng.uniform(0.1, 0.5))
        g = lambda z: E.power_branch(1j * z, r - 2.0, E.ARG_UPPER)
        got = E.one_sided_average(E.AverageSpec(lam, "plus", r, g), t)
        # i(t+n) has positive real part, so ARG_UPPER agrees with the principal branch
        want = mp.nsum(lambda n: mp.mpc(lam) ** (-n) * (1j * (mp.mpc(t) + n)) ** (r - 2.0),
                       [0, mp.inf])
        out.append(_compare(f"one_sided_average lam={lam:.4g} r={r:.4g} t={t:.4g}",
                            got, want, 1e-8))
    else:
        raise ValueError(workload)
    return out
