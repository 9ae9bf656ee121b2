"""Same-run baselines for the execution workload.

* a plain NumPy shifted-slice stencil (the oracle's own step);
* a naive C loop (``naive_stencil.c``) built with ``gcc -O3 -march=native``
  and called through ctypes, skipped with a recorded reason without gcc;
* a STREAM-style copy of an L3-resident array, the bandwidth ceiling of
  these working sets.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import time
from pathlib import Path
from statistics import median
from typing import Callable, Optional, Tuple

import numpy as np

import oracle

C_SOURCE = Path(__file__).with_name("naive_stencil.c")
#: Bytes per copy array: 16 MiB, 8x the 2 MiB L2 and well inside the L3.
COPY_BYTES = 16 * 1024 * 1024


class NaiveC:
    """The compiled C baseline, or the reason it is unavailable."""

    def __init__(self, build_dir: Path):
        self.reason: Optional[str] = None
        self._lib = None
        gcc = shutil.which("gcc")
        if gcc is None:
            self.reason = "gcc not found on PATH"
            return
        lib_path = build_dir / "naive_stencil.so"
        cmd = [gcc, "-O3", "-march=native", "-shared", "-fPIC", "-o", str(lib_path), str(C_SOURCE)]
        try:
            env = dict(os.environ, TMPDIR=str(build_dir))
            subprocess.run(cmd, check=True, capture_output=True, timeout=120, env=env)
        except (OSError, subprocess.SubprocessError) as exc:
            self.reason = f"gcc build failed: {exc}"
            return
        lib = ctypes.CDLL(str(lib_path))
        dp = ctypes.POINTER(ctypes.c_double)
        lib.stencil_run.argtypes = [dp, dp] + [ctypes.c_long] * 3 + [dp] + [ctypes.c_long] * 4
        lib.stencil_run.restype = ctypes.c_int
        self._lib = lib

    @property
    def available(self) -> bool:
        return self._lib is not None

    def run(self, stencil: str, x: np.ndarray, steps: int) -> np.ndarray:
        w = np.ascontiguousarray(oracle.weights(stencil), dtype=np.float64)
        if x.ndim != w.ndim or x.ndim not in (1, 2, 3):
            raise ValueError("grid and kernel dimensionality differ")
        a = np.array(x, dtype=np.float64, order="C", copy=True)
        b = np.empty_like(a)
        shape = (1,) * (3 - a.ndim) + a.shape
        kshape = (1,) * (3 - w.ndim) + w.shape
        dp = ctypes.POINTER(ctypes.c_double)
        which = self._lib.stencil_run(
            a.ctypes.data_as(dp), b.ctypes.data_as(dp), *shape,
            w.ctypes.data_as(dp), *kshape, int(steps),
        )
        return b if which else a


def time_call(fn: Callable[[], object], repeats: int) -> float:
    """Median seconds of ``repeats`` calls after one warm-up call."""
    fn()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return median(samples)


def copy_gbps(repeats: int = 15) -> float:
    """STREAM-copy bandwidth (bytes read + written per second, GB/s)."""
    src = np.random.default_rng(0).uniform(size=COPY_BYTES // 8)
    dst = np.empty_like(src)
    seconds = time_call(lambda: np.copyto(dst, src), repeats)
    return 2.0 * src.nbytes / seconds / 1e9


def numpy_slice_seconds(stencil: str, x: np.ndarray, steps: int, repeats: int) -> float:
    return time_call(lambda: oracle.run(stencil, x, steps), repeats)


def naive_c_seconds(
    lib: NaiveC, stencil: str, x: np.ndarray, steps: int, repeats: int
) -> Tuple[float, np.ndarray]:
    out = lib.run(stencil, x, steps)
    return time_call(lambda: lib.run(stencil, x, steps), repeats), out
