"""Unit tests of the ledger arithmetic; the program is never imported.

Run from the root of a checkout::

    python3 -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import os
import sys
import threading
import time
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

import layers  # noqa: E402
from ledger import (Ledger, Snapshot, Target, covered_within,  # noqa: E402
                    merge_intervals, union_length, unattributed)


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def fake_module():
    """A throwaway ``fakepkg.mod`` with functions, a class and
    references to them held the ways a real package holds them."""
    package = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    user = types.ModuleType("fakepkg.user")
    clock = FakeClock()

    def inner(seconds):
        clock.now += seconds
        return seconds

    def outer(a, b):
        clock.now += 1.0
        mod.inner(a)
        clock.now += 0.5
        mod.inner(b)
        return a + b

    class Thing:
        def method(self, seconds):
            clock.now += seconds
            return seconds

    def runner(fn=inner):
        return fn(0.25)

    mod.inner, mod.outer, mod.Thing = inner, outer, Thing
    user.inner = inner              # from fakepkg.mod import inner
    user.TABLE = {"inner": inner}   # registry dict
    user.runner = runner            # default argument holds inner
    sys.modules.update({"fakepkg": package, "fakepkg.mod": mod,
                        "fakepkg.user": user})
    try:
        yield types.SimpleNamespace(mod=mod, user=user, clock=clock)
    finally:
        for name in ("fakepkg", "fakepkg.mod", "fakepkg.user"):
            sys.modules.pop(name, None)


def test_merge_and_union():
    assert merge_intervals([(3, 4), (0, 1), (0.5, 2), (2, 2.5)]) == \
        [(0, 2.5), (3, 4)]
    assert union_length([(0, 1), (0.5, 2), (5, 6)]) == pytest.approx(3.0)
    assert union_length([]) == 0.0
    assert union_length([(1, 1), (2, 1)]) == 0.0


def test_covered_and_unattributed():
    region = [(0, 10), (20, 30)]
    spans = [(-5, 2), (4, 6), (5, 8), (9, 22), (29, 40)]
    # inside the region: [0,2] + [4,8] + [9,10] + [20,22] + [29,30]
    assert covered_within(region, spans) == pytest.approx(10.0)
    assert unattributed(region, spans) == pytest.approx(10.0)
    assert unattributed(region, []) == pytest.approx(20.0)


def test_self_time_subtracts_nested_calls(fake_module):
    clock = fake_module.clock
    ledger = Ledger(clock=clock)
    ledger.install([
        Target("fakepkg.mod", "outer", "outer", count="outer_n"),
        Target("fakepkg.mod", "inner", "inner", count="inner_n"),
    ], package="fakepkg")
    assert fake_module.mod.outer(2.0, 3.0) == 5.0
    assert ledger.self_s["outer"] == pytest.approx(1.5)
    assert ledger.self_s["inner"] == pytest.approx(5.0)
    assert ledger.counts == {"outer_n": 1, "inner_n": 2}
    # Only the outer call is top-level.
    assert ledger.top == [(0.0, 6.5)]
    assert unattributed([(-1.0, 7.0)], ledger.top) == pytest.approx(1.5)


def test_same_layer_nesting_counts_time_once(fake_module):
    ledger = Ledger(clock=fake_module.clock)
    ledger.install([Target("fakepkg.mod", "outer", "layer"),
                    Target("fakepkg.mod", "inner", "layer")])
    fake_module.mod.outer(1.0, 1.0)
    assert ledger.self_s["layer"] == pytest.approx(3.5)


def test_methods_hooks_and_snapshots(fake_module):
    seen = []

    def hook(ledger, args, kwargs, result, start, end):
        seen.append((args[1], result, end - start))
        ledger.add("work", result)

    ledger = Ledger(clock=fake_module.clock)
    ledger.install([Target("fakepkg.mod", "Thing.method", "thing",
                           hook=hook)])
    thing = fake_module.mod.Thing()
    thing.method(2.0)
    first = ledger.snapshot()
    thing.method(3.0)
    window = ledger.snapshot().minus(first)
    assert seen == [(2.0, 2.0, 2.0), (3.0, 3.0, 3.0)]
    assert window.self_s == {"thing": pytest.approx(3.0)}
    assert window.counts == {"work": 3.0}


def test_every_held_reference_is_replaced(fake_module):
    ledger = Ledger(clock=fake_module.clock)
    ledger.install([Target("fakepkg.mod", "inner", "inner",
                           count="inner_n")], package="fakepkg")
    user = fake_module.user
    user.inner(1.0)
    user.TABLE["inner"](1.0)
    user.runner()
    assert ledger.counts["inner_n"] == 3


def test_absent_targets_do_not_fail(fake_module):
    ledger = Ledger(clock=fake_module.clock)
    ledger.install([
        Target("fakepkg.mod", "inner", "inner"),
        Target("fakepkg.mod", "deleted_function", "gone"),
        Target("fakepkg.mod", "Thing.deleted_method", "gone"),
        Target("fakepkg.removed_module", "anything", "gone"),
    ], package="fakepkg")
    assert ledger.installed == ["fakepkg.mod.inner"]
    assert ledger.absent == ["fakepkg.mod.deleted_function",
                             "fakepkg.mod.Thing.deleted_method",
                             "fakepkg.removed_module.anything"]
    metrics = layers.per_layer(Snapshot())
    assert all(value == 0 for value in metrics.values())


def test_failing_hook_keeps_the_call(fake_module):
    def broken(ledger, *call):
        raise AttributeError("refactored away")

    ledger = Ledger(clock=fake_module.clock)
    ledger.install([Target("fakepkg.mod", "inner", "inner", hook=broken,
                           enter=broken)])
    assert fake_module.mod.inner(1.0) == 1.0
    assert ledger.counts["ledger.hook_errors"] == 2


def test_exceptions_still_close_the_frame(fake_module):
    def explode():
        raise ValueError("boom")

    fake_module.mod.explode = explode
    ledger = Ledger(clock=fake_module.clock)
    ledger.install([Target("fakepkg.mod", "explode", "explode")])
    with pytest.raises(ValueError):
        fake_module.mod.explode()
    assert ledger._stack() == []
    assert len(ledger.top) == 1


def test_threads_keep_their_own_stacks(fake_module):
    ledger = Ledger()
    ledger.install([Target("fakepkg.mod", "Thing.method", "sleep",
                           count="n")])

    def work():
        thing = fake_module.mod.Thing()
        for _ in range(50):
            thing.method(0.0)
            time.sleep(0.0005)

    threads = [threading.Thread(target=work) for _ in range(4)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(thread.is_alive() for thread in threads)
    assert ledger.counts["n"] == 200
    assert len(ledger.top) == 200   # never nested across threads


def test_per_layer_ratios_and_divisor():
    window = Snapshot(
        {"analysis.figure2": 4.0},
        {"outages.windows_n": 10, "outages.windows_useful": 4,
         "planecache.probe_n": 66, "planecache.hits": 57})
    metrics = layers.per_layer(window, divisor=2)
    assert metrics["analysis.figure2_s"] == 2.0
    assert metrics["outages.windows_n"] == 5
    assert metrics["outages.useful_ratio"] == pytest.approx(0.4)
    assert metrics["planecache.hit_ratio"] == pytest.approx(57 / 66)
    assert metrics["resultcache.hit_ratio"] == 0.0
    assert set(layers.metric_names()) >= set(metrics)
