"""Tests of the benchmark's tracer: self-time arithmetic and result identity.

    python3 -m pytest perfbench/tests -q
"""

import os
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import tracer  # noqa: E402
import workloads as W  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


@pytest.fixture
def fakepkg():
    """fakepkg.algebra (hot leaves) and fakepkg.cocycles (spans), wired like the
    real package: cocycles holds copies of algebra's functions."""
    clock = FakeClock()
    alg = types.ModuleType("fakepkg.algebra")
    exec("def leaf():\n    tick(2)\n    return 1\n"
         "def mid():\n    tick(1)\n    leaf()\n    tick(1)\n    return 2\n"
         "def _private():\n    tick(100)\n", vars(alg))
    alg.tick = clock.tick
    coc = types.ModuleType("fakepkg.cocycles")
    coc.leaf, coc.mid, coc.tick = alg.leaf, alg.mid, clock.tick
    exec("def driver():\n    tick(5)\n    mid()\n    leaf()\n    tick(3)\n    return 7\n",
         vars(coc))
    pkg = types.ModuleType("fakepkg")
    pkg.driver, pkg.leaf = coc.driver, alg.leaf
    mods = {"fakepkg": pkg, "fakepkg.algebra": alg, "fakepkg.cocycles": coc}
    sys.modules.update(mods)
    yield clock, mods
    for name in mods:
        sys.modules.pop(name, None)


def test_self_time_of_nested_calls(fakepkg):
    clock, mods = fakepkg
    originals = {name: vars(m).copy() for name, m in mods.items()}
    rec = tracer.Recorder(clock=clock)
    with rec.install(package="fakepkg", layers=("algebra", "cocycles")):
        # every namespace holding the object was rebound, private names were not
        assert mods["fakepkg"].driver is mods["fakepkg.cocycles"].driver
        assert mods["fakepkg.cocycles"].leaf is mods["fakepkg.algebra"].leaf
        assert mods["fakepkg.algebra"].leaf is not originals["fakepkg.algebra"]["leaf"]
        assert mods["fakepkg.algebra"]._private is originals["fakepkg.algebra"]["_private"]
        with rec.span("op"):
            assert mods["fakepkg"].driver() == 7
    for name, m in mods.items():  # uninstall restores every binding
        for attr in ("driver", "leaf", "mid"):
            if attr in originals[name]:
                assert vars(m)[attr] is originals[name][attr]

    op, driver = rec.spans
    assert (op.name, driver.name, driver.parent) == ("op", "driver", op.id)
    # driver: 5 + mid(1 + leaf 2 + 1) + leaf 2 + 3 = 14, of which 6 in children
    assert driver.end - driver.start == 14
    assert driver.self_time == 8
    assert op.self_time == 0
    assert driver.agg[("algebra", "mid")] == [1, 4, 2]
    assert driver.agg[("algebra", "leaf")] == [2, 4, 4]
    totals = rec.layer_totals()
    assert totals["layers"]["algebra"]["calls"] == 3
    assert totals["layers"]["algebra"]["self_s"] == 6
    assert totals["layers"]["cocycles"] == {"calls": 1, "self_s": 8, "outer_s": 14}
    assert totals["functions"]["algebra.leaf"] == [2, 4]


def test_exception_unwinds_the_stacks(fakepkg):
    clock, mods = fakepkg
    rec = tracer.Recorder(clock=clock)

    def boom():
        clock.tick(1)
        raise ValueError("x")

    hot = rec.wrap_hot(boom, "boom", "algebra")
    with rec.span("op"):
        with pytest.raises(ValueError):
            hot()
        clock.tick(2)
    (op,) = rec.spans
    assert op.self_time == 2 and op.agg[("algebra", "boom")] == [1, 1, 1]
    assert len(rec._frames) == 1 and len(rec._span_stack) == 1


def test_node_count_is_per_array_element():
    rec = tracer.Recorder()
    f = rec._counted(lambda z: z, "nodes")
    f(1j)
    f(np.zeros(5, dtype=complex))
    assert rec.counts["nodes"] == 6


def _values(E, ops):
    return [W.OPS[family](E, *args) for family, args in ops]


def test_tracing_changes_no_result():
    import eichler as E

    ops = W.tabulate_ops(E, 7)[:8] + W.sweep_ops(7)[:1]
    plain = _values(E, ops)
    rec = tracer.Recorder()
    with rec.install():
        traced = _values(E, ops)
    again = tracer.Recorder()
    with again.install():
        _values(E, ops)
    assert repr(traced) == repr(plain)
    assert rec.counts["quadrature.nodes"] > 0
    assert rec.counts == again.counts  # work counts repeat exactly
    assert E.contour_integral is tracer.inspect.unwrap(E.contour_integral)  # uninstalled
