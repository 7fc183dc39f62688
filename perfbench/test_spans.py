"""Tests for the span tracer.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

import time
import types

import pytest

import spans


def test_self_time_excludes_children():
    tracer = spans.Tracer()

    def child():
        time.sleep(0.02)

    traced_child = tracer.wrap(child, "child")

    def parent():
        time.sleep(0.01)
        traced_child()

    tracer.wrap(parent, "parent")()
    calls, total, own = tracer.stats["parent"]
    assert calls == 1
    assert total == pytest.approx(0.03, abs=0.015)
    assert own == pytest.approx(0.01, abs=0.008)
    assert tracer.stats["child"][2] == pytest.approx(0.02, abs=0.01)
    assert tracer.top_level_s == pytest.approx(total)


def test_samples_and_exceptions_are_recorded():
    tracer = spans.Tracer()

    def boom(n):
        raise ValueError(n)

    traced = tracer.wrap(boom, "boom", sample=lambda args, result: args[0])
    with pytest.raises(ValueError):
        traced(7)
    assert tracer.stats["boom"][0] == 1
    assert tracer.samples["boom"] == [7]


def test_missing_targets_are_reported_not_raised():
    tracer = spans.Tracer()
    assert not tracer.patch_method("repro.no_such_module:Thing", "run", "x")
    assert not tracer.patch_method("spans:Tracer", "no_such_method", "y")
    assert not tracer.patch_function("spans", "no_such_function", "z")
    assert len(tracer.missing) == 3
    assert all(":" in m for m in tracer.missing)


def test_patch_function_rebinds_from_imports(monkeypatch):
    origin = types.ModuleType("repro_fake_origin")
    user = types.ModuleType("repro_fake_user")

    def kernel():
        return 3

    origin.kernel = kernel
    user.kernel = kernel  # as after ``from repro_fake_origin import kernel``
    user.TABLE = {"k": kernel}
    monkeypatch.setitem(__import__("sys").modules, origin.__name__, origin)
    monkeypatch.setitem(__import__("sys").modules, user.__name__, user)
    tracer = spans.Tracer()
    assert tracer.patch_function(origin.__name__, "kernel", "k")
    assert user.kernel() == 3
    assert user.TABLE["k"]() == 3
    assert tracer.stats["k"][0] == 2


def test_window_takes_differences():
    tracer = spans.Tracer()
    f = tracer.wrap(lambda: None, "f")
    f()
    begin = tracer.snapshot()
    f()
    f()
    tracer.count("c", 2)
    win = spans.window(begin, tracer.snapshot())
    assert win["stats"]["f"][0] == 2
    assert win["counts"]["c"] == 2
