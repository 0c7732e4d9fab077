"""The traced run's wrappers and span arithmetic."""

import json
import os
import time
import tracemalloc

import numpy as np
import pytest

import focuslab as fl
import tracing
import workloads
from focuslab.windows import AnalyticWavelet, Window

SMALL = {"time-dense": 0.05, "time-warped": 0.05, "freq-long": 0.25}


def _traced_pass(name, rec):
    w = workloads.WORKLOADS[name]
    with tracing.Tracing(rec):
        inputs = rec.run("setup", w.setup, 0, SMALL[name])
        t0 = time.perf_counter()
        digest = rec.run(0, w.run, inputs)
        wall = time.perf_counter() - t0
    return digest, wall


@pytest.mark.parametrize("name", sorted(SMALL))
def test_wrappers_are_transparent(name):
    w = workloads.WORKLOADS[name]
    plain = w.run(w.setup(0, SMALL[name]))
    traced, _ = _traced_pass(name, tracing.Recorder())
    assert plain.keys() == traced.keys()
    for key in plain:
        assert np.array_equal(plain[key], traced[key]), key


def test_wrapped_transform_is_bit_identical():
    w = workloads.WORKLOADS["time-dense"]
    inp = w.setup(1, 0.05)
    f, cfg = inp["signal"], inp["cfg"]
    profile = fl.constant_profile(cfg, f, 2.0)
    plain = fl.transform_time_focused(f, profile, cfg).values
    with tracing.Tracing(tracing.Recorder()):
        traced = fl.transform_time_focused(f, profile, cfg).values
    assert np.array_equal(plain, traced)


def test_tracing_is_removed_on_exit():
    original = fl.transform_time_focused, fl.focus.transform_time_focused, np.fft.fft
    with tracing.Tracing(tracing.Recorder()):
        assert fl.focus.transform_time_focused is not original[1]
        assert "evaluate" in Window.__dict__
    assert (fl.transform_time_focused, fl.focus.transform_time_focused, np.fft.fft) == original
    assert "evaluate" not in Window.__dict__
    assert "fourier_profile" not in AnalyticWavelet.__dict__


@pytest.mark.parametrize("name", ["time-dense", "freq-long"])
def test_self_times_sum_to_pass_wall(name):
    rec = tracing.Recorder()
    _, wall = _traced_pass(name, rec)
    spans = [s for s in rec.spans if s[2] == 0]
    durations = {i: s[4] - s[3] for i, s in enumerate(rec.spans) if s[2] == 0}
    self_s = dict(durations)
    for i, s in enumerate(rec.spans):
        if s[2] == 0 and s[1] is not None:
            self_s[s[1]] -= durations[i]
    assert min(self_s.values()) >= -1e-9
    root = next(i for i, s in enumerate(rec.spans) if s[2] == 0 and s[0] == "pass")
    assert sum(self_s.values()) == pytest.approx(durations[root], abs=1e-9)
    # The root span is opened and closed inside the externally timed call.
    assert 0 <= wall - durations[root] < 0.01 + 0.05 * wall
    stats = tracing.group_stats(rec, 0)
    assert sum(st["self_s"] for st in stats.values()) == pytest.approx(durations[root], abs=1e-9)
    assert len(spans) > 2


def test_memory_peak_counts_allocation_inside_span():
    rec = tracing.Recorder()

    def outer():
        i = rec.open("inner")
        block = np.ones(2**20)  # 8 MiB
        del block
        rec.close(i)
        return np.ones(2**18)  # 2 MiB held by the caller

    tracemalloc.start()
    rec.memory = True
    try:
        rec.run("memory", outer)
    finally:
        rec.memory = False
        tracemalloc.stop()
    stats = tracing.group_stats(rec, "memory")
    assert stats["inner"]["peak"] >= 8 * 2**20
    assert stats["pass"]["peak"] >= stats["inner"]["peak"]


def test_layer_metrics_match_benchmark_json():
    rec = tracing.Recorder()
    _traced_pass("time-dense", rec)
    tracemalloc.start()
    rec.memory = True
    try:
        inputs = workloads.WORKLOADS["time-dense"].setup(0, SMALL["time-dense"])
        with tracing.Tracing(rec):
            rec.run("memory", workloads.WORKLOADS["time-dense"].run, inputs)
    finally:
        rec.memory = False
        tracemalloc.stop()
    metrics = tracing.layer_metrics(rec, [0], "memory")
    with open(os.path.join(os.path.dirname(tracing.__file__), "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"] for m in spec["per_layer"]}
    assert declared == set(metrics) | {"trace.untraced_wall_s", "trace.overhead_s"}
    assert metrics["timefocus.transform_time_focused.calls"] == 3
    assert metrics["timefocus.lower_bound_cf.peak_mb"] > 0
    assert metrics["focus.shannon_entropy_slice.calls"] > 0
    assert metrics["windows.evaluate.points"] > 0
    assert metrics["numpy.fft.fft.points"] > 0
