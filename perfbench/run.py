"""focuslab benchmark: seeded workloads through the public API, one process each.

    python3 perfbench/run.py                      # all four workloads, a table
    python3 perfbench/run.py --workload time-dense --seed 3 --seconds 12 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the end-to-end ones (wall_s, cold_s, setup_s, peak_rss_mb); with
``--trace 1`` they are the per-layer ones, and the spans are written to
``perfbench/traces/<workload>.jsonl``.  See perfbench/README.md.
"""

import time

START = time.perf_counter()

import argparse
import json
import os
import statistics
import subprocess
import sys
import traceback

# One BLAS thread, set before numpy loads BLAS.  On two CPUs a second thread
# made time-warped's per-frame matrix-vector products about 25% slower, and
# slower only in some processes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("verify-suite", "time-dense", "time-warped", "freq-long")
FRESH_PROCESSES = 2  # one-shot samples besides this process
SETUP_PROCESSES = 6  # further set-up samples; set-up is cheap and noisy
UNITS = {"wall_s": "s", "cold_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _parse_args(argv):
    p = argparse.ArgumentParser(description="focuslab benchmark")
    p.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=12.0,
                   help="how long the warm passes run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--one-shot", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    if stat.endswith("_s") or stat == "s":
        return "s"
    return {"peak_mb": "MB", "nonzero_frac": "fraction"}.get(stat, "count")


class _Passes:
    """Runs passes, checks each one's outputs and counts the failures."""

    def __init__(self, check, reference):
        self.check, self.reference = check, reference
        self.attempted = self.failed = 0
        self.first_digest = None

    def run(self, call, *args):
        """Time call(*args), check its digest; returns the seconds it took."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            digest = call(*args)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return time.perf_counter() - t0
        seconds = time.perf_counter() - t0
        bad = self.check.mismatches(self.reference, digest)
        if bad:
            print(f"pass {self.attempted}: output mismatch in {bad}", file=sys.stderr)
            self.failed += 1
        if self.first_digest is None:
            self.first_digest = digest
        return seconds

    def loop(self, seconds, minimum, call, *args):
        times, t0 = [], time.perf_counter()
        while len(times) < minimum or time.perf_counter() - t0 < seconds:
            times.append(self.run(call, *args))
        return times

    def control_caught(self) -> bool:
        """Negative control: every perturbed copy of a digest must be rejected."""
        if self.first_digest is None:
            return False
        return all(self.check.mismatches(self.reference, wrong)
                   for wrong in self.check.perturbed(self.first_digest))


def _rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fresh(args, flag: str) -> dict:
    """Run this script with ``--one-shot`` (set-up and one checked pass, as a
    one-shot user runs it) or ``--setup-only`` in a fresh process."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), flag,
         "--workload", args.workload, "--seed", str(args.seed)],
        check=True, capture_output=True, text=True, timeout=150,
    )
    sys.stderr.write(out.stderr)
    return json.loads(out.stdout.splitlines()[-1])


def _pair_median(times) -> float:
    """Median of the means of consecutive pass pairs.

    On time-dense, pass times alternate between two levels about 8% apart
    from one pass to the next, so a plain median lands on whichever level
    had one more pass.
    """
    return statistics.median((a + b) / 2.0 for a, b in zip(times, times[1:]))


def _run_one(args) -> int:
    import workloads

    w = workloads.WORKLOADS[args.workload]
    seed = workloads.input_seed(args.seed)
    inputs = w.setup(seed)
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import check

    passes = _Passes(check, check.load_references()[w.name][seed])
    cold_s = passes.run(w.run, inputs)
    one_shot = {"setup_s": setup_s, "cold_s": cold_s, "rss_mb": _rss_mb(),
                "failed": passes.failed}
    if args.one_shot:
        print(json.dumps(one_shot))
        return 0

    import machine

    print("machine " + json.dumps(machine.describe()))

    if args.trace:
        metrics = _traced(args, w, seed, inputs, passes, cold_s)
    else:
        warm = passes.loop(args.seconds, 2, w.run, inputs)
        shots = [one_shot] + [_fresh(args, "--one-shot") for _ in range(FRESH_PROCESSES)]
        setups = [s["setup_s"] for s in shots] + [
            _fresh(args, "--setup-only")["setup_s"] for _ in range(SETUP_PROCESSES)]
        for shot in shots[1:]:
            passes.attempted += 1
            passes.failed += shot["failed"]
        metrics = {
            "wall_s": _pair_median(warm),
            "cold_s": statistics.median(s["cold_s"] for s in shots),
            "setup_s": statistics.median(setups),
            # Allocation order, which varies from process to process, adds
            # up to 10% of allocator slack on verify-suite; the minimum is
            # the peak the pass needs.
            "peak_rss_mb": min(s["rss_mb"] for s in shots),
        }
        print(f"warm passes {[round(t, 4) for t in warm]}")
        for key in ("cold_s", "rss_mb"):
            print(f"one-shot {key} {[round(s[key], 4) for s in shots]}")
        print(f"setup_s samples {[round(t, 4) for t in setups]}")

    correct = passes.failed == 0 and passes.control_caught()
    print(f"workload {w.name} seed {args.seed} input_seed {seed} "
          f"attempted {passes.attempted} failed {passes.failed} "
          f"fail_frac {passes.failed / passes.attempted:g} correct {correct}")
    units = {k: UNITS.get(k) or _layer_unit(k) for k in metrics}
    for key, value in metrics.items():
        print(f"{key} {value:.6g} {units[key]}")
    print(json.dumps({
        "correct": correct,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _traced(args, w, seed, inputs, passes, cold_s) -> dict:
    """Untraced passes, then traced set-up and passes, then one memory pass."""
    import tracemalloc

    import tracing

    half = args.seconds / 2.0
    untraced = passes.loop(half, 2, w.run, inputs)
    rec = tracing.Recorder()
    with tracing.Tracing(rec):
        inputs = rec.run("setup", w.setup, seed)
        groups = []
        t0 = time.perf_counter()
        while len(groups) < 2 or time.perf_counter() - t0 < half:
            groups.append(len(groups))
            passes.run(rec.run, groups[-1], w.run, inputs)
        tracemalloc.start()
        rec.memory = True
        try:
            passes.run(rec.run, "memory", w.run, inputs)
        finally:
            rec.memory = False
            tracemalloc.stop()
    metrics = tracing.layer_metrics(rec, groups, "memory")
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
    path = os.path.join(HERE, "traces", f"{w.name}.jsonl")
    tracing.write_spans(rec, path, {"workload": w.name, "seed": args.seed,
                                  "cold_s": cold_s, "passes": groups})
    print(f"spans written to {os.path.relpath(path, ROOT)}")
    return metrics


def _run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        results[name] = result
        fail_frac = result["failed"] / result["attempted"]
        print(f"{name} fail_frac {fail_frac:g} (of {result['attempted']} passes) "
              f"correct {result['correct']}")
        for key, m in result["metrics"].items():
            print(f"{name} {key} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "focuslab", "__init__.py")):
        print(f"no focuslab sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, SRC)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
