"""Output check: compare a pass's digest with the values recorded at the
commit that defined the benchmark.

A digest maps names to numpy arrays.  Shapes must match exactly.  Float and
complex arrays must agree within ``TOLERANCE`` relative to the largest
magnitude in the reference array.  Strings must be equal.  Booleans are
certificate and report outcomes: one that held in the reference must still
hold, and one that failed in the reference may now hold, so fixing a known
defect is not counted as a wrong output.

Record the references with ``python3 perfbench/check.py --record`` (about
six minutes on two cores); it runs every workload once per input seed.
"""

from __future__ import annotations

import json
import os

import numpy as np

TOLERANCE = 1e-9
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def encode(digest: dict) -> dict:
    out = {}
    for key, arr in digest.items():
        arr = np.asarray(arr)
        if arr.dtype.kind == "c":
            data = np.stack([arr.real, arr.imag], axis=-1).ravel().tolist()
        else:
            data = arr.ravel().tolist()
        out[key] = {"kind": arr.dtype.kind, "shape": list(arr.shape), "data": data}
    return out


def decode(encoded: dict) -> dict:
    out = {}
    for key, item in encoded.items():
        data, shape = item["data"], tuple(item["shape"])
        if item["kind"] == "c":
            pairs = np.asarray(data, dtype=np.float64).reshape(-1, 2)
            arr = pairs[:, 0] + 1j * pairs[:, 1]
        elif item["kind"] == "b":
            arr = np.asarray(data, dtype=bool)
        elif item["kind"] == "U":
            arr = np.asarray(data, dtype=str)
        else:
            arr = np.asarray(data, dtype=np.float64)
        out[key] = arr.reshape(shape)
    return out


def mismatches(reference: dict, got: dict) -> list:
    """Names of the digest entries that do not match; empty when correct."""
    bad = [key for key in reference if key not in got]
    for key, ref in reference.items():
        if key in bad:
            continue
        val = np.asarray(got[key])
        if val.shape != ref.shape:
            bad.append(key)
        elif ref.dtype.kind == "b":
            if np.any(ref & ~val.astype(bool)):
                bad.append(key)
        elif ref.dtype.kind in "fc":
            scale = max(float(np.max(np.abs(ref), initial=0.0)), 1e-300)
            if not np.all(np.abs(val - ref) <= TOLERANCE * scale):
                bad.append(key)
        elif not np.array_equal(val, ref):
            bad.append(key)
    return bad


def perturbed(digest: dict) -> list:
    """One copy of the digest per entry, with that entry's first value made wrong.

    The negative control: the check must reject every copy.
    """
    copies = []
    for key, arr in digest.items():
        arr = np.asarray(arr)
        if arr.size == 0:
            continue
        wrong = arr.copy().ravel()
        if arr.dtype.kind == "b":
            if not wrong.any():
                continue  # no outcome held, so none can be lost
            wrong[:] = False
        elif arr.dtype.kind in "fc":
            scale = float(np.max(np.abs(wrong)))
            wrong[0] = wrong[0] + 1e-6 * max(scale, 1.0)
        else:
            wrong[0] = str(wrong[0]) + "?"
        copies.append({**digest, key: wrong.reshape(arr.shape)})
    return copies


def load_references() -> dict:
    with open(REFERENCE_PATH) as fh:
        raw = json.load(fh)
    return {
        name: {int(seed): decode(enc) for seed, enc in per_seed.items()}
        for name, per_seed in raw["workloads"].items()
    }


def _record(names) -> None:
    import subprocess
    import sys

    raw = {"tolerance": TOLERANCE, "workloads": {}}
    for name in names:
        # One process per workload, one after the other: two of them peak
        # near 1.5 GB.
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--record-one", name],
            check=True, stdout=subprocess.PIPE, text=True,
        ).stdout
        raw["workloads"][name] = json.loads(out.splitlines()[-1])
        print(f"recorded {name}", file=sys.stderr)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(raw, fh, separators=(",", ":"))
        fh.write("\n")


def _record_one(name: str) -> None:
    import sys

    import workloads

    w = workloads.WORKLOADS[name]
    per_seed = {}
    for seed in range(workloads.INPUT_SEEDS):
        digest = w.run(w.setup(seed))
        per_seed[str(seed)] = encode(digest)
        failed = [k for k, v in digest.items() if v.dtype.kind == "b" and not v.all()]
        print(f"{name} seed {seed} false flags: {failed}", file=sys.stderr, flush=True)
    print(json.dumps(per_seed))


if __name__ == "__main__":
    import argparse
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(REFERENCE_PATH)), "src"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--record", action="store_true", help="record every workload")
    group.add_argument("--record-one", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.record:
        import workloads

        _record(list(workloads.WORKLOADS))
    else:
        _record_one(args.record_one)
