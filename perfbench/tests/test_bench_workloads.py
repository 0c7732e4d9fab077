"""Seeded inputs, the output check and the bare-directory failure."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import check
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


@pytest.mark.parametrize("name", ["time-dense", "time-warped", "freq-long"])
def test_seed_changes_inputs_not_shapes(name):
    w = workloads.WORKLOADS[name]
    a, b = w.setup(0)["signal"], w.setup(1)["signal"]
    assert a.samples.shape == b.samples.shape
    assert not np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.samples, w.setup(0)["signal"].samples)


def test_seed_pool():
    n = workloads.INPUT_SEEDS
    assert workloads.input_seed(3) == workloads.input_seed(3 + n) == 3
    assert workloads.WORKLOADS["verify-suite"].setup(0) != workloads.WORKLOADS["verify-suite"].setup(1)


def test_names_and_units_match_benchmark_json():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = tuple(w["name"] for w in spec["workloads"])
    assert names == run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    for m in spec["per_layer"]:
        assert run._layer_unit(m["name"]) == m["unit"], m["name"]


@pytest.fixture(scope="module")
def references():
    return check.load_references()


def test_references_cover_every_input_seed(references):
    assert set(references) == set(workloads.WORKLOADS)
    for per_seed in references.values():
        assert set(per_seed) == set(range(workloads.INPUT_SEEDS))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_check_rejects_perturbed_result(references, name):
    ref = references[name][5]
    assert check.mismatches(ref, ref) == []
    copies = check.perturbed(ref)
    assert copies
    for wrong in copies:
        assert check.mismatches(ref, wrong)


def test_check_tolerance_and_outcomes():
    ref = {"energy": np.array([2.0]), "certified": np.array([True, False])}
    close = {"energy": np.array([2.0 * (1 + 1e-12)]), "certified": np.array([True, True])}
    assert check.mismatches(ref, close) == []
    far = {"energy": np.array([2.0 * (1 + 1e-8)]), "certified": np.array([True, False])}
    assert check.mismatches(ref, far) == ["energy"]
    lost = {"energy": np.array([2.0]), "certified": np.array([False, False])}
    assert check.mismatches(ref, lost) == ["certified"]
    assert check.mismatches(ref, {"energy": np.array([2.0, 2.0])}) == ["certified", "energy"]


def test_encode_round_trip():
    digest = {"c": np.array([[1 + 2j, 3.5 - 1e-300j]]), "b": np.array([True, False]),
              "s": np.array(["a", "bc"]), "f": np.array([np.pi])}
    back = check.decode(check.encode(digest))
    for key, arr in digest.items():
        assert np.array_equal(back[key], arr) and back[key].shape == arr.shape


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "time-dense", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
