"""Independent NumPy oracle for the benchmark's output checks.

Nothing here imports ``repro``: the weights of the seven linear stencils are
written down from their definitions, a step is a periodic shifted-slice sum,
and the checker is itself checked against a closed form (k steps of the
(1/4, 1/2, 1/4) heat stencil on a delta are binomial(2k, j) / 4^k).

Tolerance.  Every stencil here is a convex combination (non-negative weights
summing to one) and every input lies in [0, 1], so every output lies in
[0, 1].  Executors differ from the oracle only in summation order and in the
rounding of composed (folded) weights; ``ATOL`` = 1e-11 is ~45 000 ulps of
1.0, far above that rounding and far below any real defect.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

import numpy as np

ATOL = 1e-11
#: Relative tolerance on the grid sum (sum-to-one kernels conserve it).
SUM_RTOL = 1e-10


def _heat_2d(alpha: float = 0.125) -> np.ndarray:
    k = np.zeros((3, 3))
    k[1, 1] = 1.0 - 4.0 * alpha
    k[0, 1] = k[2, 1] = k[1, 0] = k[1, 2] = alpha
    return k


def _heat_3d(alpha: float = 0.1) -> np.ndarray:
    k = np.zeros((3, 3, 3))
    k[1, 1, 1] = 1.0 - 6.0 * alpha
    for axis in range(3):
        for side in (0, 2):
            idx = [1, 1, 1]
            idx[axis] = side
            k[tuple(idx)] = alpha
    return k


def _general_box() -> np.ndarray:
    # The paper's GB stencil: nine distinct weights, normalised to sum to one
    # (drawn once from a fixed generator, as the library defines it).
    k = np.random.default_rng(7).uniform(0.2, 1.0, size=(3, 3))
    return k / k.sum()


#: The seven linear benchmark stencils, as correlation kernels
#: (``out[i] = sum_k w[k] * in[i + k - r]``).
WEIGHTS: Dict[str, np.ndarray] = {
    "1d-heat": np.array([0.25, 0.5, 0.25]),
    "1d5p": np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0,
    "2d-heat": _heat_2d(),
    "2d9p": np.full((3, 3), 1.0 / 9.0),
    "gb": _general_box(),
    "3d-heat": _heat_3d(),
    "3d27p": np.full((3, 3, 3), 1.0 / 27.0),
}


def weights(stencil: str) -> np.ndarray:
    return WEIGHTS[stencil]


def flops_per_point(stencil: str) -> int:
    """Useful flops of one update: one multiply per tap, one add per extra tap."""
    taps = int(np.count_nonzero(WEIGHTS[stencil]))
    return 2 * taps - 1


def initial_grid(shape: Sequence[int], seed: int) -> np.ndarray:
    """The input a request with ``seed`` denotes: uniform [0, 1) values from
    ``numpy.random.default_rng(seed)`` (the service's documented convention)."""
    return np.random.default_rng(seed).uniform(0.0, 1.0, size=tuple(shape))


def step(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One periodic update: a sum of shifted slices of a wrap-padded copy."""
    r = [(n - 1) // 2 for n in w.shape]
    padded = np.pad(x, [(ri, ri) for ri in r], mode="wrap")
    out = np.zeros_like(x)
    for offset in np.ndindex(*w.shape):
        weight = w[offset]
        if weight == 0.0:
            continue
        view = tuple(slice(o, o + n) for o, n in zip(offset, x.shape))
        out += weight * padded[view]
    return out


def run(stencil: str, x: np.ndarray, steps: int) -> np.ndarray:
    w = WEIGHTS[stencil]
    for _ in range(steps):
        x = step(w, x)
    return x


def matches(actual: np.ndarray, expected: np.ndarray) -> bool:
    actual = np.asarray(actual)
    return (
        actual.shape == expected.shape
        and bool(np.all(np.isfinite(actual)))
        and bool(np.max(np.abs(actual - expected)) <= ATOL)
    )


def conserves_sum(before: np.ndarray, after: np.ndarray) -> bool:
    """Grid-sum conservation of a sum-to-one kernel under periodic wrap."""
    a, b = float(np.sum(before)), float(np.sum(after))
    return abs(a - b) <= SUM_RTOL * max(1.0, abs(a))


def heat_delta_closed_form(n: int, k: int) -> np.ndarray:
    """k steps of (1/4, 1/2, 1/4) on a unit delta at index 0, periodic length n."""
    out = np.zeros(n)
    for j in range(-k, k + 1):
        out[j % n] += math.comb(2 * k, j + k) / 4.0**k
    return out


def delta(n: int) -> np.ndarray:
    x = np.zeros(n)
    x[0] = 1.0
    return x


def self_test() -> bool:
    """The oracle against its closed form and its own invariants."""
    ok = True
    for k in (1, 2, 5, 12):
        n = 64
        ok &= matches(run("1d-heat", delta(n), k), heat_delta_closed_form(n, k))
    rng = np.random.default_rng(12345)
    for name, w in WEIGHTS.items():
        ok &= abs(float(w.sum()) - 1.0) <= 1e-15 and bool(np.all(w >= 0.0))
        shape = {1: (40,), 2: (12, 10), 3: (6, 5, 4)}[w.ndim]
        x = rng.uniform(0.0, 1.0, size=shape)
        y = step(w, x)
        ok &= conserves_sum(x, y)
        # Shifting the input shifts the output (periodic translation invariance).
        shifted = step(w, np.roll(x, 1, axis=0))
        ok &= bool(np.allclose(shifted, np.roll(y, 1, axis=0), rtol=0.0, atol=1e-15))
    return bool(ok)
