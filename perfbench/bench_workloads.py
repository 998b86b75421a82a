"""The workloads: inputs, one round of operations, and its checks.

stream-k2 is one workload; fit-long, audit-k3 and compare-mix are the parts
of the cli-mix workload.  A round of a part is one stream (one operation),
or for compare-mix one `compare` call (one operation per candidate).  Every
round returns the observations it consumed, the seconds its timed region
took and, per operation, the failed checks and whether the failure is the
known fault kept on purpose.
"""

from __future__ import annotations

import csv
import gc
import json
import os
import time
import tracemalloc
from typing import NamedTuple

import numpy as np

import bench_ref as ref

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "configs")

STREAM_WARMUP = 40       # ingests on a throwaway learner before timing
STREAM_TRACED = 1000     # traced prefix of the registered stream
FIT_LONG_LENGTH = 12000
FIT_LONG_RETAINED = 2000  # stream length of the tracemalloc pass
AUDIT_LENGTH = 250
COMPARE_LENGTH = 120
COMPARE_DATA_SEED = 1    # the registered bench-k2 seed
WARMUP_LENGTH = 10       # CLI warm-up stream length


# -- machine speed ------------------------------------------------------------

REFERENCE_LOOPS_PER_S = 100.0  # reference_loop on the reference machine
SPEED_SEGMENT_S = 0.5          # timed work between two samples of the meter
SPEED_SHARE = 0.08             # reference-loop time per second of timed work


def reference_loop() -> float:
    """A fixed piece of work of the program's kind (numpy on 2x2 arrays
    between Python scalar steps) that never touches the program."""
    a = np.array([[0.3, 0.7], [0.6, 0.4]])
    v = np.array([0.5, 0.5])
    s = 0.0
    for i in range(1000):
        w = np.exp(np.log(a) + v[:, None])
        w /= w.sum(axis=1, keepdims=True)
        v = w.T @ v
        s += float(v[0]) * 0.5 + i % 3
    return s


class SpeedMeter:
    """The machine's speed during the timed work, relative to the reference
    machine.

    A shared host's speed wanders by tens of percent over minutes, and no
    run length that fits the benchmark's budget averages that out.  Inside
    measure(), every tick() after SPEED_SEGMENT_S of work, and once at the
    end, the meter runs the reference loop for SPEED_SHARE of the work's
    seconds (at least once); that time is taken out of the measured
    seconds.  The work's rate times scale() is its rate at the reference
    machine's speed, so the host's drift cancels out of it.
    """

    def __init__(self):
        self.loops = 0
        self.seconds = 0.0  # spent in the reference loop
        self._mark = 0.0    # start of the work not yet sampled

    def tick(self) -> None:
        if time.perf_counter() - self._mark >= SPEED_SEGMENT_S:
            self._sample()

    def _sample(self) -> None:
        busy = time.perf_counter() - self._mark
        spent = 0.0
        while True:
            t0 = time.perf_counter()
            reference_loop()
            spent += time.perf_counter() - t0
            self.loops += 1
            if spent >= SPEED_SHARE * busy:
                break
        self.seconds += spent
        self._mark = time.perf_counter()

    def measure(self, fn, hook=None) -> tuple:
        """(fn(), seconds of fn's own work).  hook, a (module, name) pair,
        names a function that ticks the meter after each call while fn
        runs, where its callers look it up."""
        module, name = hook if hook else (None, None)
        inner = getattr(module, name, None) if module else None
        if inner is not None:
            def ticking(*args, **kwargs):
                try:
                    return inner(*args, **kwargs)
                finally:
                    self.tick()
            setattr(module, name, ticking)
        before = self.seconds
        start = self._mark = time.perf_counter()
        try:
            result = fn()
        finally:
            if inner is not None:
                setattr(module, name, inner)
        busy = time.perf_counter() - start - (self.seconds - before)
        self._sample()
        return result, busy

    def scale(self) -> float:
        return REFERENCE_LOOPS_PER_S * self.seconds / self.loops


class _NoMeter:
    def tick(self) -> None:
        pass

    def measure(self, fn, hook=None) -> tuple:
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start


class Round(NamedTuple):
    obs: int
    seconds: float
    outcomes: list  # (operation label, failure messages, known fault)


def _registered(name: str) -> dict:
    with open(os.path.join(CONFIGS, name)) as fh:
        return json.load(fh)


def _mu(model_doc: dict) -> np.ndarray:
    mu = np.asarray(model_doc["mu"], dtype=float)
    return mu / mu.sum()


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _write_data(path: str, obs) -> None:
    _write(path, "".join(json.dumps({"t": t, "o": int(o)}) + "\n"
                         for t, o in enumerate(obs, start=1)))


def _read_trace(path: str) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {k: [r[k] for r in rows] for k in (rows[0] if rows else {})}


def _cli_argv(command: str, config: str, data: str, out: str) -> list:
    return [command, "--config", config, "--data", data, "--out", out,
            "--quiet"]


# -- stream-k2 ----------------------------------------------------------------

class StreamK2:
    """The registered bench-k2 stream through init_learner + ingest.

    It always runs the registered stream: the recovery gate holds there and
    not on every seed, so --seed does not change its inputs.
    """

    def __init__(self, vfe, seed: int, work: str):
        self.vfe = vfe
        cfg = vfe.cli.load_config(os.path.join(CONFIGS, "bench-k2.json"))
        self.cfg = cfg
        self.obs = vfe.model.sample_trajectory(cfg.hmm, cfg.length,
                                               seed=cfg.seed).observations
        self.p0 = vfe.model.ModelParams.random(
            vfe.model.StateSpace(cfg.hmm.K, cfg.hmm.M), seed=cfg.init_seed)
        self.latency = []

    def _stream(self, obs, meter=_NoMeter()) -> tuple:
        cfg, learner = self.cfg, self.vfe.learner
        state = learner.init_learner(self.p0, cfg.hmm.mu, cfg.schedule,
                                     family=cfg.family, init_rule=cfg.init_rule)
        times = []

        def feed() -> int:
            stalls = 0
            for o in obs:
                t0 = time.perf_counter()
                rec = learner.ingest(state, o)
                times.append(time.perf_counter() - t0)
                stalls += rec.stalls
                meter.tick()
            return stalls

        stalls, wall = meter.measure(feed)
        return state, times, wall, stalls

    def warm(self) -> None:
        self._stream(self.obs[:STREAM_WARMUP])

    def round(self, meter=_NoMeter()) -> Round:
        state, times, wall, stalls = self._stream(self.obs, meter)
        self.latency = times
        truth = self.cfg.hmm
        failures = [f"{stalls} stalled ascent steps"] if stalls else []
        failures += ref.check_recovery(state.hmm.A, state.hmm.B, truth.A, truth.B)
        failures += ref.check_beliefs([state.history.belief(t)
                                       for t in range(1, state.tau + 1)])
        failures += ref.check_constant_cost(times)
        return Round(len(self.obs), wall, [("stream", failures, False)])

    def trace(self, tracer) -> tuple:
        """The checked round untraced for its latency record, then the first
        STREAM_TRACED observations untraced and traced, back to back."""
        r = self.round()
        prefix = self.obs[:STREAM_TRACED]
        untraced = self._stream(prefix)[2]
        tracer.install()
        try:
            traced = self._stream(prefix)[2]
        finally:
            tracer.uninstall()
        extra = {"learner.ingest.p50_ms": ref.percentile_ms(self.latency, 50),
                 "learner.ingest.p99_ms": ref.percentile_ms(self.latency, 99),
                 "trace.overhead": traced / untraced}
        return [r], extra


# -- cli-mix parts ------------------------------------------------------------

class _CliPart:
    """Runs one `vfe-stream` command per round on files its set-up wrote.

    Subclasses set argv, warm_argv and round_obs, and define check(code),
    which reads the command's outputs from self.out.
    """

    def __init__(self, vfe, work: str):
        self.vfe = vfe
        self.out = os.path.join(work, "out")

    def warm(self) -> None:
        code = self.vfe.cli.main(self.warm_argv)
        if code != 0:
            raise RuntimeError(f"warm-up run exited with {code}")

    def round(self, meter=_NoMeter()) -> Round:
        code, seconds = meter.measure(lambda: self.vfe.cli.main(self.argv),
                                      hook=(self.vfe.learner, "ingest"))
        return Round(self.round_obs, seconds, self.check(code))


class _FitPart(_CliPart):
    """`vfe-stream fit` on a data file generated from the config's model."""

    base_config = ""
    length = 0
    schedule = {}
    oracle = "off"

    def __init__(self, vfe, seed: int, work: str):
        super().__init__(vfe, work)
        model = _registered(self.base_config)["model"]
        self.mu = _mu(model)
        doc = {"model": model, "seed": seed, "init_seed": seed,
               "length": self.length, "schedule": self.schedule,
               "family": "reversed", "init_rule": "prediction",
               "oracle": self.oracle}
        hmm = vfe.cli.ExperimentConfig.parse(doc).hmm
        self.obs = vfe.model.sample_trajectory(hmm, self.length,
                                               seed=seed).observations
        self.round_obs = self.length
        self.config_path = os.path.join(work, "config.json")
        data = os.path.join(work, "data.jsonl")
        warm_data = os.path.join(work, "warm.jsonl")
        _write(self.config_path, json.dumps(doc))
        _write_data(data, self.obs)
        _write_data(warm_data, self.obs[:WARMUP_LENGTH])
        self.argv = _cli_argv("fit", self.config_path, data, self.out)
        self.warm_argv = _cli_argv("fit", self.config_path, warm_data,
                                   os.path.join(work, "warm"))

    def _load(self, code: int) -> tuple:
        if code != 0:
            return None, None, [f"fit exited with {code}"]
        trace = _read_trace(os.path.join(self.out, "trace.csv"))
        with open(os.path.join(self.out, "summary.json")) as fh:
            summary = json.load(fh)
        failures = ref.check_rows("trace.csv", [int(x) for x in trace.get("tau", [])],
                                  self.length)
        return trace, summary, failures

    def _objective_checks(self, summary: dict, elbo: float) -> list:
        """The final objective against the product-form objective of the
        final marginals, while summary.json carries the belief checkpoint."""
        if not summary.get("history"):
            return []
        P = ref.final_marginals(summary["history"]["rho"])
        failures = ref.check_beliefs(P)
        if not failures:
            failures = ref.check_equal(
                "final elbo", elbo,
                ref.product_elbo(self.mu, summary["final_A"],
                                 summary["final_B"], P, self.obs))
        return failures


class FitLong(_FitPart):
    """A long bench-k2 stream with an inference-only schedule."""

    base_config = "bench-k2.json"
    length = FIT_LONG_LENGTH
    schedule = {"psi_updates_per_obs": 5, "theta_updates_per_obs": 0,
                "psi_step": 0.5, "theta_step": 0.002}

    def check(self, code: int) -> list:
        trace, summary, failures = self._load(code)
        if trace is not None and not failures:
            elbo = float(trace["elbo"][-1])
            failures += ref.check_bound(
                "final elbo", elbo,
                ref.log_evidence(self.mu, summary["final_A"],
                                 summary["final_B"], self.obs))
            failures += self._objective_checks(summary, elbo)
        return [("fit", failures, False)]

    def retained_bytes_per_obs(self) -> float:
        """Bytes a run_stream result keeps alive per observation, by
        tracemalloc over a shorter stream of the same schedule."""
        vfe = self.vfe
        cfg = vfe.cli.load_config(self.config_path)
        p0 = vfe.model.ModelParams.random(
            vfe.model.StateSpace(cfg.hmm.K, cfg.hmm.M), seed=cfg.init_seed)
        obs = self.obs[:FIT_LONG_RETAINED]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = vfe.learner.run_stream(p0, cfg.hmm.mu, obs, cfg.schedule)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        del result
        return retained / len(obs)


class AuditK3(_FitPart):
    """The bench-k3 model with the self oracle and a light schedule."""

    base_config = "bench-k3.json"
    length = AUDIT_LENGTH
    schedule = {"psi_updates_per_obs": 5, "theta_updates_per_obs": 20,
                "psi_step": 0.5, "theta_step": 0.002}
    oracle = "self"

    def check(self, code: int) -> list:
        trace, summary, failures = self._load(code)
        if trace is not None and not failures:
            failures += ref.check_gaps([float(g) for g in trace["gap"]])
            failures += ref.check_equal(
                "final log_evidence", float(trace["log_evidence"][-1]),
                ref.log_evidence(self.mu, summary["final_A"],
                                 summary["final_B"], self.obs))
            failures += self._objective_checks(summary, float(trace["elbo"][-1]))
        return [("fit", failures, False)]


class CompareMix(_CliPart):
    """`vfe-stream compare` with four candidates on one bench-k2 data file.

    The data file and the fully_decoupled candidate do not depend on the
    seed: that candidate fails its bound check on every input, and its share
    of failed operations must not vary.  The seed sets the starting
    parameters of the three reversed candidates.

    compare runs with one worker thread: on a 2-core machine its default
    pool of one thread per core ran 1.5x slower and spread twice as wide
    from run to run.
    """

    def __init__(self, vfe, seed: int, work: str):
        super().__init__(vfe, work)
        os.environ["VFE_STREAM_THREADS"] = "1"
        base = _registered("bench-k2.json")
        hmm = vfe.cli.ExperimentConfig.parse(base).hmm
        obs = vfe.model.sample_trajectory(hmm, COMPARE_LENGTH,
                                          seed=COMPARE_DATA_SEED).observations
        self.round_obs = 4 * COMPARE_LENGTH
        data = os.path.join(work, "data.jsonl")
        warm_data = os.path.join(work, "warm.jsonl")
        _write_data(data, obs)
        _write_data(warm_data, obs[:WARMUP_LENGTH])
        k1 = {"K": 1, "M": 2, "mu": [1.0], "A": [[0.5, 0.5]], "B": [[1.0]]}
        k3 = {"K": 3, "M": 2, "mu": [1 / 3] * 3, "A": [[0.5, 0.5]] * 3,
              "B": [[1 / 3] * 3] * 3}

        def candidate(name, model, family, init_seed):
            return {"name": name, "config": {
                "model": model, "seed": init_seed, "init_seed": init_seed,
                "schedule": base["schedule"], "family": family}}

        doc = {"candidates": [
            candidate("k1", k1, "reversed", seed),
            candidate("k2", base["model"], "reversed", seed),
            candidate("k3", k3, "reversed", seed),
            candidate("k2-decoupled", base["model"], "fully_decoupled",
                      base["init_seed"]),
        ]}
        config = os.path.join(work, "compare.json")
        _write(config, json.dumps(doc))
        self.argv = _cli_argv("compare", config, data, self.out)
        self.warm_argv = _cli_argv("compare", config, warm_data,
                                   os.path.join(work, "warm"))

    def check(self, code: int) -> list:
        if code != 0:
            return [(f"candidate {i}", [f"compare exited with {code}"], False)
                    for i in range(4)]
        with open(os.path.join(self.out, "compare.json")) as fh:
            report = json.load(fh)
        outcomes = []
        for row in report["candidates"]:
            ev = row["exact_log_evidence"]
            failures = [f"{row['stalls']} stalled ascent steps"] if row["stalls"] else []
            if report["tau"] != COMPARE_LENGTH:
                failures.append(f"tau {report['tau']}, expected {COMPARE_LENGTH}")
            failures += ref.check_bound("objective", row["objective"], ev)
            failures += ref.check_bound("exact_elbo", row["exact_elbo"], ev)
            if row["K"] == 1:
                failures += ref.check_equal("K=1 objective", row["objective"], ev)
            outcomes.append((row["name"], failures,
                             row["family"] == "fully_decoupled"))
        return outcomes


# -- cli-mix ------------------------------------------------------------------

class CliMix:
    """One round each of fit-long, audit-k3 and compare-mix per round.

    The three run as one workload so that a run lasts long enough to be
    steady: each alone would get about 15 s of the run budget beside the
    one-minute stream-k2, and 15-s runs on a 2-core virtual machine spread
    by 15-25% of their median.  obs_per_s is all observations over all
    their timed seconds, so a change to one part shows in proportion to
    that part's share of the time.
    """

    PARTS = (("fit-long", FitLong), ("audit-k3", AuditK3),
             ("compare-mix", CompareMix))

    def __init__(self, vfe, seed: int, work: str):
        self.parts = []
        for name, cls in self.PARTS:
            part_work = os.path.join(work, name)
            os.makedirs(part_work)
            self.parts.append((name, cls(vfe, seed, part_work)))

    def warm(self) -> None:
        for _, part in self.parts:
            part.warm()

    def round(self, meter=_NoMeter()) -> Round:
        obs, seconds, outcomes = 0, 0.0, []
        for name, part in self.parts:
            r = part.round(meter)
            obs += r.obs
            seconds += r.seconds
            outcomes += [(f"{name} {label}", failures, known)
                         for label, failures, known in r.outcomes]
        return Round(obs, seconds, outcomes)

    def trace(self, tracer) -> tuple:
        """One round untraced, then the same round traced."""
        r0 = self.round()
        tracer.install()
        try:
            r1 = self.round()
        finally:
            tracer.uninstall()
        compares = [(t0, t1) for _, name, t0, t1, _, _ in tracer.spans
                    if name == "cli.cmd_compare"]
        in_compare = sum(t1 - t0 for _, name, t0, t1, _, _ in tracer.spans
                         if name == "learner.run_stream"
                         and any(a <= t0 <= b for a, b in compares))
        compare_s = sum(b - a for a, b in compares)
        fit = dict(self.parts)["fit-long"]
        return [r0, r1], {
            "trace.overhead": r1.seconds / r0.seconds,
            "mfa.retained_bytes_per_obs": fit.retained_bytes_per_obs(),
            "cli.compare.overlap": in_compare / compare_s if compare_s else 0.0,
        }


WORKLOADS = {"stream-k2": StreamK2, "cli-mix": CliMix}
