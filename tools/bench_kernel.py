"""Microbenchmark of the kernel's two ascent loops.

Prints one JSON object: for each (K, M) shape, the microseconds per step of
kernel.psi_ascent (the (2, K) revision and current belief blocks) and of
kernel.theta_ascent (the K*M + K*K parameter vector).  Each figure is the
fastest of REPEATS timed calls of one STEPS-step loop, divided by the step
count: the minimum is the timing least disturbed by other load on a
shared host.  The inputs are seeded and the same for every checkout, so two
checkouts can be compared by running the script against each source tree:

    PYTHONPATH=src python tools/bench_kernel.py
    PYTHONPATH=/path/to/other/checkout/src python tools/bench_kernel.py

Needs only the standard library and numpy.
"""

from __future__ import annotations

import json
import time

import numpy as np

from vfe_stream import kernel

SHAPES = [(1, 2), (2, 2), (3, 3), (4, 4), (6, 6), (8, 8), (12, 12), (4, 2)]
STEPS = 200
REPEATS = 15


def _pinned(rng, *shape):
    x = rng.normal(size=shape)
    x[..., 0] = 0.0
    return x


def _us_per_step(run) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _, applied, stalled = run()
        times.append(time.perf_counter() - t0)
        if applied != STEPS or stalled:
            raise RuntimeError("the loop stalled; the timing would be short")
    return 1e6 * min(times) / STEPS


def bench_shape(K: int, M: int) -> dict:
    rng = np.random.default_rng(1000 * K + M)
    x = _pinned(rng, 2, K)
    W = rng.normal(size=K)
    G = np.log(rng.dirichlet(np.ones(K), size=K))
    theta = np.concatenate([_pinned(rng, K, M).ravel(),
                            _pinned(rng, K, K).ravel()])
    ubar = 0.1 * np.concatenate([_pinned(rng, K, M).ravel(),
                                 _pinned(rng, K, K).ravel()])
    pa, pb = rng.dirichlet(np.ones(K)), rng.dirichlet(np.ones(K))
    o_idx = M - 1
    psi = _us_per_step(lambda: kernel.psi_ascent(x, W, G, STEPS, 0.1))
    theta_us = _us_per_step(
        lambda: kernel.theta_ascent(theta, ubar, pa, pb, o_idx, STEPS, 1e-3))
    return {"K": K, "M": M, "psi_us_per_step": round(psi, 2),
            "theta_us_per_step": round(theta_us, 2)}


def main() -> None:
    rows = [bench_shape(K, M) for K, M in SHAPES]
    print(json.dumps({"steps": STEPS, "repeats": REPEATS,
                      "numpy": np.__version__, "shapes": rows}, indent=2))


if __name__ == "__main__":
    main()
