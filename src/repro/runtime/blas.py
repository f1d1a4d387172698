"""One OpenBLAS thread in every process repro starts.

Repro parallelises through its own pools and threads; OpenBLAS's
thread pool only adds wake-ups (a 16x16 @ 16x4096 gemm takes 8 ms with
two threads and 0.08 ms with one).  ``OPENBLAS_NUM_THREADS`` cannot do
this: it is read when NumPy loads the library, and pool workers fork
after that, so the cap is a call.  Where no OpenBLAS is found the
functions here do nothing and report ``None``; they never raise.
"""

from __future__ import annotations

import ctypes
import glob
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, Optional, Tuple

import numpy

__all__ = ["blas_info", "cap_blas_threads", "process_pool"]

_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def blas_library() -> Optional[str]:
    """Path of the OpenBLAS NumPy has loaded, or ``None``."""
    try:
        with open("/proc/self/maps") as maps:
            paths = [line.split()[-1] for line in maps if "openblas" in line]
        return paths[0] if paths else None
    except OSError:
        pass
    root = os.path.dirname(numpy.__file__)
    for libdir in (root + ".libs", os.path.join(root, ".dylibs")):
        found = sorted(glob.glob(os.path.join(libdir, "*openblas*")))
        if found:
            return found[0]
    return None


def _functions() -> Optional[Tuple[str, Any, Any]]:
    """``(library, setter, getter)`` for the loaded OpenBLAS, or ``None``."""
    path = blas_library()
    if path is None:
        return None
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for name in _SETTERS:
        try:
            setter = getattr(lib, name)
            getter = getattr(lib, name.replace("_set_", "_get_"))
        except AttributeError:
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        return os.path.basename(path), setter, getter
    return None


def cap_blas_threads() -> None:
    """Pin OpenBLAS to one thread in this process."""
    found = _functions()
    if found is not None:
        _, setter, _ = found
        setter(1)


def blas_info() -> Optional[Dict[str, Any]]:
    """``{library, threads}`` of the loaded OpenBLAS, or ``None``."""
    found = _functions()
    if found is None:
        return None
    library, _, getter = found
    return {"library": library, "threads": getter()}


def process_pool(max_workers: int) -> ProcessPoolExecutor:
    """A process pool whose workers each run one BLAS thread."""
    return ProcessPoolExecutor(
        max_workers=max_workers, initializer=cap_blas_threads
    )
