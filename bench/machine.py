"""Record of the machine a result was measured on."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np
import scipy

MIB = 1024 * 1024


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS library numpy loaded, read through its C API."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _size_bytes(text: str) -> int:
    units = {"K": 1024, "M": MIB, "G": 1024 * MIB}
    text = text.strip()
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


def _caches() -> list[dict]:
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        caches.append({"level": int(level), "type": kind, "bytes": _size_bytes(size)})
    return caches


def _cpu_model() -> str:
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def machine_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = _caches()
    llc = max(caches, key=lambda c: (c["level"], c["bytes"])) if caches else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": caches,
        "llc_mib": llc["bytes"] / MIB if llc else None,
    }
