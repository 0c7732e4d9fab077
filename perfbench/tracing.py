"""Outside-in tracing of focuslab's layers for the benchmark's traced run.

Nothing here touches the library's source.  While ``Tracing`` is active:

- each function in ``TRACED`` is replaced by a timing wrapper at every
  attribute of every ``focuslab`` module that binds it (modules import by
  name, so ``focus`` binds ``transform_time_focused`` as well);
- ``numpy.fft.fft`` and ``numpy.fft.ifft`` get the same wrapper, counting
  the points they transform;
- ``Window.evaluate`` and ``AnalyticWavelet.fourier_profile`` are shadowed by
  a class-level descriptor that counts the points each instance's callable
  evaluates, including instances built before tracing began.

Spans live in memory with parent links and a group (``setup`` or one pass),
and are written out by ``write_spans``.  A span's self time is its duration
minus the durations of its direct children.  When ``Recorder.memory`` is set
(with tracemalloc running) each span also records the peak traced memory
above what was allocated when it opened.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
import tracemalloc

import numpy as np

# The layers are focuslab's modules.  These are the functions whose calls,
# inclusive and self time and memory peak the traced run reports.
TRACED = {
    "timefocus": (
        "transform_time_focused", "lower_bound_cf", "upper_bound_Cf",
        "inverse_kernel_profile", "l1_kernel_identity", "l2_kernel_identity",
        "check_time_bounds",
    ),
    "freqfocus": (
        "transform_freq_focused", "wavelet_transform", "cqt_transform",
        "focused_atom_spectrum", "kernel_freq", "upper_bound_C", "check_freq_bounds",
    ),
    "focus": ("time_focus_profile", "entropy_freq_focus", "shannon_entropy_slice"),
    "signal": ("dft_forward", "hardy_project", "weighted_energy"),
    "windows": ("make_fourier_bump_wavelet",),
    "verify": (
        "check_constant_parseval", "check_time_sandwich_and_kernel",
        "check_step_kernel_norms", "check_cqt_isometry", "check_wavelet_isometry",
        "check_squeezed_atom_laws", "check_freq_bound_suite", "check_spike_surrogate",
        "check_multisine_quartile", "check_fast_path_oracles",
    ),
}
# Work counts taken from a traced call: metric suffix and rule (args, result).
RESULT_COUNTS = {
    "timefocus.transform_time_focused": ("cells", lambda args, out: out.values.size),
    "freqfocus.kernel_freq": ("points", lambda args, out: np.size(out)),
}
FFT_FUNCTIONS = ("fft", "ifft")


class Recorder:
    """In-memory spans and counters, grouped by set-up and pass."""

    def __init__(self):
        # [name, parent index or None, group, start, end, peak bytes]
        self.spans = []
        self.counts = {}
        self.group = None
        self.memory = False
        self._stack = []
        self._mem = []  # per open span: [traced bytes at open, highest peak seen]

    def open(self, name: str) -> int:
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], peak)
            tracemalloc.reset_peak()
            self._mem.append([current, current])
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, parent, self.group, time.perf_counter(), None, None])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[4] = time.perf_counter()
        self._stack.pop()
        if self.memory:
            start, seen = self._mem.pop()
            top = max(tracemalloc.get_traced_memory()[1], seen)
            span[5] = top - start
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], top)

    def add(self, name: str, n) -> None:
        group = self.counts.setdefault(self.group, {})
        group[name] = group.get(name, 0) + int(n)

    def run(self, group, fn, *args):
        """Call fn(*args) inside a root span named after the group's kind."""
        self.group = group
        index = self.open("setup" if group == "setup" else "pass")
        try:
            return fn(*args)
        finally:
            self.close(index)


def _wrap(rec: Recorder, name: str, fn, count=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if count is not None:
            rec.add(count[0], count[1](args, out))
        return out

    return traced


class _CountedField:
    """Class-level data descriptor that counts calls to an instance's callable.

    Dataclass fields live in the instance ``__dict__``; a data descriptor on
    the class takes precedence over it, so every instance is counted while
    the descriptor is installed and none afterwards.
    """

    def __init__(self, rec: Recorder, field: str, prefix: str, nonzero: bool):
        self.rec, self.field, self.prefix, self.nonzero = rec, field, prefix, nonzero

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        fn = obj.__dict__[self.field]
        rec, prefix, nonzero = self.rec, self.prefix, self.nonzero

        def counted(x, *args, **kwargs):
            out = fn(x, *args, **kwargs)
            rec.add(prefix + ".points", np.size(x))
            if nonzero:
                rec.add(prefix + ".nonzero", np.count_nonzero(out))
            return out

        return counted

    def __set__(self, obj, value):
        obj.__dict__[self.field] = value


class Tracing:
    """Context manager that installs every wrapper and removes it on exit."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._undo = []

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def __enter__(self):
        from focuslab.windows import AnalyticWavelet, Window

        rec = self.rec
        wrappers = {}
        for layer, names in TRACED.items():
            module = sys.modules[f"focuslab.{layer}"]
            for name in names:
                key = f"{layer}.{name}"
                suffix, rule = RESULT_COUNTS.get(key, (None, None))
                count = None if rule is None else (f"{key}.{suffix}", rule)
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, _wrap(rec, key, fn, count))
        modules = [m for n, m in list(sys.modules.items())
                   if n == "focuslab" or n.startswith("focuslab.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])
        for name in FFT_FUNCTIONS:
            key = f"numpy.fft.{name}"
            count = (f"{key}.points", lambda args, out: np.size(args[0]))
            self._set(np.fft, name, _wrap(rec, key, getattr(np.fft, name), count))
        self._set(Window, "evaluate", _CountedField(rec, "evaluate", "windows.evaluate", False))
        self._set(AnalyticWavelet, "fourier_profile",
                  _CountedField(rec, "fourier_profile", "windows.fourier_profile", True))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        return False


_MISSING = object()


# -- statistics -------------------------------------------------------------------

def group_stats(rec: Recorder, group) -> dict:
    """Per-name calls, inclusive time, self time and peak bytes for one group."""
    index = [i for i, s in enumerate(rec.spans) if s[2] == group]
    self_s = {i: rec.spans[i][4] - rec.spans[i][3] for i in index}
    for i in index:
        parent = rec.spans[i][1]
        if parent is not None:
            self_s[parent] -= rec.spans[i][4] - rec.spans[i][3]
    out = {}
    for i in index:
        name, _, _, start, end, peak = rec.spans[i]
        st = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "peak": 0})
        st["calls"] += 1
        st["s"] += end - start
        st["self_s"] += self_s[i]
        st["peak"] = max(st["peak"], peak or 0)
    return out


def layer_metrics(rec: Recorder, passes: list, memory_group) -> dict:
    """The per-layer metrics: set-up plus one pass, median over the passes.

    Times and counts come from the traced passes; peaks from the memory pass.
    """
    setup = group_stats(rec, "setup")
    mem = group_stats(rec, memory_group)
    per_pass = []
    for group in passes:
        stats = group_stats(rec, group)
        counts = dict(rec.counts.get("setup", {}))
        for key, n in rec.counts.get(group, {}).items():
            counts[key] = counts.get(key, 0) + n
        per_pass.append(_metrics_of(stats, setup, counts))
    metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
    for layer, names in TRACED.items():
        for name in names:
            key = f"{layer}.{name}"
            if layer != "windows":
                metrics[f"{key}.peak_mb"] = mem.get(key, {}).get("peak", 0) / 2**20
    return metrics


def _metrics_of(stats: dict, setup: dict, counts: dict) -> dict:
    def stat(key, field):
        return stats.get(key, {}).get(field, 0) + setup.get(key, {}).get(field, 0)

    out = {}
    for layer, names in TRACED.items():
        for name in names:
            key = f"{layer}.{name}"
            fields = ("s",) if layer in ("windows", "verify") else ("calls", "s", "self_s")
            for field in fields:
                out[f"{key}.{field}"] = stat(key, field)
    for key, (suffix, _) in RESULT_COUNTS.items():
        out[f"{key}.{suffix}"] = counts.get(f"{key}.{suffix}", 0)
    for name in FFT_FUNCTIONS:
        key = f"numpy.fft.{name}"
        out[f"{key}.calls"] = stat(key, "calls")
        out[f"{key}.s"] = stat(key, "s")
        out[f"{key}.points"] = counts.get(f"{key}.points", 0)
    out["windows.evaluate.points"] = counts.get("windows.evaluate.points", 0)
    points = counts.get("windows.fourier_profile.points", 0)
    out["windows.fourier_profile.points"] = points
    out["windows.fourier_profile.nonzero_frac"] = (
        counts.get("windows.fourier_profile.nonzero", 0) / points if points else 0.0
    )
    root = stats["pass"]
    out["trace.wall_s"] = root["s"]
    out["trace.self_sum_s"] = root["s"] - root["self_s"]
    return out


def write_spans(rec: Recorder, path: str, header: dict) -> None:
    """One JSON header line, then one line per span:
    [name, parent, group, start_s, end_s, peak_bytes], times relative to the
    first span's start."""
    t0 = rec.spans[0][3] if rec.spans else 0.0
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for name, parent, group, start, end, peak in rec.spans:
            row = [name, parent, group, round(start - t0, 7), round(end - t0, 7), peak]
            fh.write(json.dumps(row) + "\n")
