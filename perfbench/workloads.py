"""The four benchmark workloads: seeded inputs, one pipeline pass, output digest.

Every workload calls focuslab through attribute access on the imported
package (``fl.name(...)``), never through names bound at import time, so the
traced run's wrappers see every call the benchmark makes.

Inputs come from a pool of ``INPUT_SEEDS`` seeds: ``--seed n`` selects input
seed ``n % INPUT_SEEDS``.  The pool exists because each pass is checked
against reference outputs recorded for every input seed (reference.json).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import focuslab as fl

INPUT_SEEDS = 32
SAMPLE_RATE = 16000.0
WINDOW = "gauss:10:3"
FFT_SIZE = 256

# The ten verify checks at the commit that defined this benchmark, called by
# name so that checks added later do not change the workload.
VERIFY_CHECKS = (
    "check_constant_parseval",
    "check_time_sandwich_and_kernel",
    "check_step_kernel_norms",
    "check_cqt_isometry",
    "check_wavelet_isometry",
    "check_squeezed_atom_laws",
    "check_freq_bound_suite",
    "check_spike_surrogate",
    "check_multisine_quartile",
    "check_fast_path_oracles",
)
_SEEDLESS_CHECKS = ("check_step_kernel_norms", "check_squeezed_atom_laws")


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable  # (input_seed, duration=None) -> inputs dict
    run: Callable  # (inputs) -> digest dict of numpy arrays


def _signal(seed: int, duration: float):
    spec = fl.SynthSpec(duration=duration, sample_rate=SAMPLE_RATE, seed=seed)
    return fl.synth_multisine_spikes_noise(spec)


def _cell_sample(values: np.ndarray) -> np.ndarray:
    """4 x 8 strided cells from the interior of a transform matrix."""
    rows, frames = values.shape
    r = np.arange(rows // 8, rows, max(rows // 4, 1))[:4]
    c = np.arange(frames // 16, frames, max(frames // 8, 1))[:8]
    return values[np.ix_(r, c)].copy()


def _digest(sigma, matrix) -> dict:
    """Profile, weighted energy and strided cells of one pass.

    Bound values are left out on purpose: they are allowed to change while
    the transform they bound stays the same.
    """
    sigma = np.asarray(sigma)
    return {
        "sigma": sigma[:: max(sigma.size // 16, 1)][:16].copy(),
        "sigma_sum": np.array([sigma.sum()]),
        "shape": np.array(matrix.values.shape, dtype=np.float64),
        "energy": np.array([fl.weighted_energy(matrix)]),
        "cells": _cell_sample(matrix.values),
    }


# -- time side ------------------------------------------------------------------

def _time_setup(gamma: str, hop: int, sigma_max: float, default_duration: float):
    def setup(seed: int, duration: float = None) -> dict:
        f = _signal(seed, default_duration if duration is None else duration)
        cfg = fl.TimeFocusConfig(
            window=fl.parse_window(WINDOW),
            gamma=fl.parse_scale_map(gamma),
            hop=hop,
            fft_size=FFT_SIZE,
        )
        spec = fl.FocusSpec(kind="shannon-entropy", sigma_max=sigma_max)
        return {"signal": f, "cfg": cfg, "spec": spec}

    return setup


def _time_dense_run(inp: dict) -> dict:
    f, cfg = inp["signal"], inp["cfg"]
    profile = fl.time_focus_profile(f, inp["spec"], cfg)
    digest = _digest(profile.sigma, fl.transform_time_focused(f, profile, cfg))
    digest["certified"] = np.array([fl.check_time_bounds(f, profile, cfg).passed])
    return digest


def _time_warped_run(inp: dict) -> dict:
    f, cfg = inp["signal"], inp["cfg"]
    profile = fl.time_focus_profile(f, inp["spec"], cfg)
    return _digest(profile.sigma, fl.transform_time_focused(f, profile, cfg))


# -- frequency side -------------------------------------------------------------

def _freq_long_setup(seed: int, duration: float = None) -> dict:
    f = _signal(seed, 10.0 if duration is None else duration)
    return {
        "signal": f,
        "wavelet": fl.make_fourier_bump_wavelet(1.0, 0.05, 0.2),
        "grid": fl.make_scale_grid(20.0, 800.0, 128, SAMPLE_RATE, f.n),
        "spec": fl.FocusSpec(kind="shannon-entropy", sigma_max=2.0),
    }


def _freq_long_run(inp: dict) -> dict:
    f, grid, w = inp["signal"], inp["grid"], inp["wavelet"]
    profile = fl.entropy_freq_focus(f, inp["spec"], grid, w)
    fa = fl.hardy_project(f)
    digest = _digest(profile.sigma, fl.transform_freq_focused(fa, profile, grid, w))
    digest["certified"] = np.array([fl.check_freq_bounds(fa, profile, grid, w).passed])
    return digest


# -- verify suite ---------------------------------------------------------------

def _verify_setup(seed: int, duration: float = None) -> dict:
    return {"seed": seed}


def _verify_run(inp: dict) -> dict:
    reports = []
    for name in VERIFY_CHECKS:
        check = getattr(fl.verify, name)
        out = check() if name in _SEEDLESS_CHECKS else check(inp["seed"])
        reports.extend(out if isinstance(out, list) else [out])
    return {
        "names": np.array([r.name for r in reports]),
        "passed": np.array([r.passed for r in reports]),
    }


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-suite", _verify_setup, _verify_run),
        Workload("time-dense", _time_setup("identity", 1, 5.0, 1.0), _time_dense_run),
        Workload("time-warped", _time_setup("sinh:16000", 16, 5.0, 1.0), _time_warped_run),
        Workload("freq-long", _freq_long_setup, _freq_long_run),
    )
}


def input_seed(seed: int) -> int:
    return seed % INPUT_SEEDS
