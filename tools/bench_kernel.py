"""Microbenchmark of the kernel's two ascent loops and the audit objective.

Prints one JSON object: for each (K, M) shape, the microseconds per step of
kernel.psi_ascent (the (2, K) revision and current belief blocks; null at
K = 1, where every belief coordinate is pinned and no step is taken) and of
kernel.theta_ascent (the K*M + K*K parameter vector); and for each (K, tau)
in AUDIT_SHAPES, the milliseconds per elbo.elbo_recursive call on a seeded
history with revisions.  The history group gives the milliseconds per
MfaHistory.to_dict and per elbo_recursive call at each tau in
HISTORY_TAUS, and the bytes a history keeps per observation (tracemalloc)
at K = 2 and 3.  The ingest group gives the microseconds per
learner.ingest on a seeded bench-k2 learner, warmed by INGEST_WARM
observations, at each (psi, theta) step budget in INGEST_BUDGETS: at
(0, 0) it is the fixed cost every observation pays before any ascent step.
The oracle group gives, for each (K, tau) in ORACLE_SHAPES, the
milliseconds per oracle.forward_filter call (the loop over tau) and per
oracle.tree_filter call (the log-depth reduction) on the same seeded model
and stream.
Each timing is the fastest of REPEATS timed runs (a STEPS-step loop,
AUDIT_CALLS or ORACLE_CALLS calls, or INGEST_CALLS ingests), divided by the
step or call count: the minimum is the timing least disturbed by other load
on a shared host.  The ingest group also gives the quartiles of its REPEATS
batches, so a reader can tell whether a difference between two checkouts
lies inside the spread of one, and the median CPU time per ingest
(time.process_time), which time spent waiting on other processes does not
inflate.
The inputs are seeded and the same for every checkout, so two checkouts
can be compared by running the script against each source tree; naming
groups (shapes, audit_objective, history, ingest, oracle) runs only those:

    PYTHONPATH=src python tools/bench_kernel.py
    PYTHONPATH=/path/to/other/checkout/src python tools/bench_kernel.py ingest

Needs only the standard library and numpy.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import sys
import time
import tracemalloc

import numpy as np

from vfe_stream import elbo, kernel, oracle
from vfe_stream.cli import load_config
from vfe_stream.learner import ingest, init_learner
from vfe_stream.mfa import MfaHistory, augment
from vfe_stream.model import (ModelParams, StateSpace, build_hmm,
                              sample_trajectory)

SHAPES = [(1, 2), (2, 2), (3, 3), (4, 4), (6, 6), (8, 8), (12, 12), (4, 2)]
STEPS = 200
REPEATS = 15
AUDIT_SHAPES = [(K, tau) for K in (2, 3) for tau in (50, 250, 1000)]
AUDIT_CALLS = 10
HISTORY_TAUS = (1000, 4000)
RETAINED_OBS = 4000
BENCH_K2 = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "configs", "bench-k2.json")
INGEST_BUDGETS = [(0, 0), (5, 0), (0, 1), (80, 50)]
INGEST_WARM = 200
INGEST_CALLS = 20
ORACLE_SHAPES = [(K, tau) for K in (2, 3) for tau in (250, 1000, 5000)]
ORACLE_CALLS = 2


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
    g = 0.1 * np.concatenate([_pinned(rng, K, M).ravel(),
                              _pinned(rng, K, K).ravel()])
    pa, pb = rng.dirichlet(np.ones(K)), rng.dirichlet(np.ones(K))
    o_idx = M - 1
    # at K = 1 every belief coordinate is pinned and psi_ascent takes no step
    psi = None if K == 1 else round(
        _us_per_step(lambda: kernel.psi_ascent(x, W, G, STEPS, 0.1)), 2)
    theta_us = _us_per_step(
        lambda: kernel.theta_ascent(theta, g, pa, pb, o_idx, STEPS, 1e-3))
    return {"K": K, "M": M, "psi_us_per_step": psi,
            "theta_us_per_step": round(theta_us, 2)}


def bench_audit(K: int, tau: int) -> dict:
    M = K
    rng = np.random.default_rng(1000 * K + tau)
    hmm = build_hmm(rng.dirichlet(np.ones(K)),
                    ModelParams.random(StateSpace(K, M), seed=K))
    obs = [int(o) for o in rng.integers(1, M + 1, size=tau)]
    history = _history(rng, K, tau)
    return {"K": K, "tau": tau,
            "ms_per_call": _ms_per_call(
                lambda: elbo.elbo_recursive(hmm, history, obs))}


def _history(rng, K: int, tau: int) -> MfaHistory:
    """A seeded history with revisions, built from its checkpoint rows."""
    return MfaHistory.from_dict({"horizon": tau,
                                 "rho": _pinned(rng, 2 * tau - 1, K).tolist(),
                                 "frozen_below": tau - 1})


def _ms_per_call(call, calls: int = AUDIT_CALLS) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(calls):
            call()
        times.append(time.perf_counter() - t0)
    return round(1e3 * min(times) / calls, 4)


def bench_history_calls(tau: int) -> dict:
    """ms per to_dict and per elbo_recursive call at horizon tau, K = M = 2."""
    rng = np.random.default_rng(tau)
    hmm = build_hmm(rng.dirichlet(np.ones(2)),
                    ModelParams.random(StateSpace(2, 2), seed=tau))
    obs = [int(o) for o in rng.integers(1, 3, size=tau)]
    history = _history(rng, 2, tau)
    return {"tau": tau, "to_dict_ms": _ms_per_call(history.to_dict),
            "elbo_recursive_ms": _ms_per_call(
                lambda: elbo.elbo_recursive(hmm, history, obs))}


def bench_history_bytes(K: int) -> dict:
    """Bytes a history keeps per observation, by tracemalloc, after
    RETAINED_OBS augmentations with a revision each."""
    rows = _pinned(np.random.default_rng(K), RETAINED_OBS, 2, K)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        history = MfaHistory(rows[0, 1])
        for rev, curr in rows[1:]:
            augment(history, "uniform")
            history.set_updatable(rev, curr)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return {"K": K, "obs": RETAINED_OBS,
            "retained_bytes_per_obs": round(kept / RETAINED_OBS, 1)}


def bench_ingest(psi: int, theta: int) -> dict:
    """us per ingest at a (psi, theta) step budget on a warmed bench-k2
    learner; every timed batch continues the same stream."""
    cfg = load_config(BENCH_K2)
    sched = dataclasses.replace(cfg.schedule, psi_updates_per_obs=psi,
                                theta_updates_per_obs=theta)
    obs = sample_trajectory(cfg.hmm, INGEST_WARM + REPEATS * INGEST_CALLS,
                            seed=cfg.seed).observations
    state = init_learner(ModelParams.random(StateSpace(cfg.hmm.K, cfg.hmm.M),
                                            seed=cfg.init_seed),
                         cfg.hmm.mu, sched)
    for o in obs[:INGEST_WARM]:
        ingest(state, o)
    times, cpu = [], []
    for r in range(REPEATS):
        batch = obs[INGEST_WARM + r * INGEST_CALLS:][:INGEST_CALLS]
        t0, c0 = time.perf_counter(), time.process_time()
        for o in batch:
            ingest(state, o)
        times.append(time.perf_counter() - t0)
        cpu.append(time.process_time() - c0)
    us = 1e6 * np.array(times) / INGEST_CALLS
    q1, median, q3 = (round(float(q), 1) for q in np.percentile(us, [25, 50, 75]))
    return {"psi_updates_per_obs": psi, "theta_updates_per_obs": theta,
            "us_per_ingest": round(float(us.min()), 1),
            "q1": q1, "median": median, "q3": q3,
            "cpu_us_median": round(1e6 * float(np.median(cpu)) / INGEST_CALLS,
                                   1)}


def bench_oracle(K: int, tau: int) -> dict:
    """ms per forward_filter and per tree_filter call at K = M."""
    rng = np.random.default_rng(1000 * K + tau)
    hmm = build_hmm(rng.dirichlet(np.ones(K)),
                    ModelParams.random(StateSpace(K, K), seed=K))
    obs = [int(o) for o in rng.integers(1, K + 1, size=tau)]
    return {"K": K, "tau": tau, **{
        f"{f.__name__}_ms": _ms_per_call(lambda: f(hmm, obs), ORACLE_CALLS)
        for f in (oracle.forward_filter, oracle.tree_filter)}}


GROUPS = {
    "shapes": lambda: [bench_shape(K, M) for K, M in SHAPES],
    "audit_objective": lambda: [bench_audit(K, tau) for K, tau in AUDIT_SHAPES],
    "history": lambda: {
        "calls": [bench_history_calls(tau) for tau in HISTORY_TAUS],
        "retained": [bench_history_bytes(K) for K in (2, 3)]},
    "ingest": lambda: [bench_ingest(*budget) for budget in INGEST_BUDGETS],
    "oracle": lambda: [bench_oracle(K, tau) for K, tau in ORACLE_SHAPES],
}


def main(names) -> None:
    unknown = set(names) - set(GROUPS)
    if unknown:
        raise SystemExit(f"unknown groups {sorted(unknown)}; "
                         f"choose from {list(GROUPS)}")
    out = {"steps": STEPS, "repeats": REPEATS, "audit_calls": AUDIT_CALLS,
           "ingest_calls": INGEST_CALLS, "oracle_calls": ORACLE_CALLS,
           "numpy": np.__version__}
    for name in names or GROUPS:
        out[name] = GROUPS[name]()
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main(sys.argv[1:])
