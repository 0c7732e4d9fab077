"""Machine description recorded with every benchmark run."""

from __future__ import annotations

import ctypes
import glob
import os
import platform


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> list:
    out = []
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        fields = [_read(os.path.join(index, f)).strip() for f in ("level", "type", "size")]
        if all(fields):
            out.append("L{} {} {}".format(*fields))
    return out


def _ram_mb() -> float:
    for line in _read("/proc/meminfo").splitlines():
        if line.startswith("MemTotal:"):
            return round(int(line.split()[1]) / 1024.0, 1)
    return float("nan")


def _blas() -> dict:
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError, ValueError):
        name = "unknown"
    threads = None
    # Ask the loaded OpenBLAS itself how many threads it will use.
    libs = {line.split()[-1] for line in _read("/proc/self/maps").splitlines()
            if "openblas" in line and line.rstrip().endswith(".so")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        if threads is not None:
            break
    return {"library": name, "threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def describe() -> dict:
    import numpy
    import scipy

    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _caches(),
        "ram_mb": _ram_mb(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
    }
