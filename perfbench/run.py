"""Benchmark of vfe-stream: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
src/ directory and nothing is installed.  With --trace 0 the run repeats
whole rounds of the workload until their timed regions add up to about
--seconds (at least one round), checks every operation's outputs, and
reports the end-to-end metrics, obs_per_s at the reference machine's speed
(see bench_workloads.SpeedMeter).  With --trace 1 it wraps the program's
modules (see bench_trace) and reports the per-layer metrics instead; spans
go to perfbench/_work/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

_T_SCRIPT = time.monotonic()

# one BLAS thread: the arrays are tiny, and extra threads only add noise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import bench_workloads  # noqa: E402  (numpy after the thread settings)
from bench_trace import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

# (metric name, kind, lookup sites, steps of a call); see bench_trace
SITES = [
    ("learner.ingest", "span", ["vfe_stream.learner:ingest"], None),
    ("learner.ascent_step", "agg", ["vfe_stream.learner:ascent_step"], None),
    ("model.build_hmm", "agg",
     ["vfe_stream.learner:build_hmm", "vfe_stream.cli:build_hmm"], None),
    ("model.log_softmax_row", "count",
     ["vfe_stream.model:log_softmax_row", "vfe_stream.elbo:log_softmax_row"],
     None),
    ("elbo.local_psi_gradient", "agg", ["vfe_stream.elbo:local_psi_gradient"],
     None),
    ("elbo.apply_theta_step", "agg", ["vfe_stream.elbo:apply_theta_step"], None),
    ("elbo.streaming_update_summaries", "agg",
     ["vfe_stream.elbo:streaming_update_summaries"], None),
    ("elbo.finish", "agg", ["vfe_stream.elbo:finish"], None),
    ("elbo.step_summaries", "agg", ["vfe_stream.elbo:step_summaries"], None),
    ("elbo.elbo_recursive", "span", ["vfe_stream.elbo:elbo_recursive"], None),
    ("oracle.forward_filter", "span",
     ["vfe_stream.learner:forward_filter", "vfe_stream.cli:forward_filter"],
     lambda args, kwargs: len(args[1])),
    ("mfa.augment", "agg", ["vfe_stream.learner:augment"], None),
    ("mfa.MfaHistory.to_dict", "span", ["vfe_stream.mfa:MfaHistory.to_dict"],
     None),
    ("mfa.hat_elbo", "span", ["vfe_stream.cli:hat_elbo"], None),
    ("cli.read_observations", "span", ["vfe_stream.cli:read_observations"],
     None),
    ("learner.StreamTrace.to_csv_text", "span",
     ["vfe_stream.learner:StreamTrace.to_csv_text"], None),
    ("learner.run_stream", "span", ["vfe_stream.cli:run_stream"], None),
    ("cli.cmd_fit", "span", ["vfe_stream.cli:cmd_fit"], None),
    ("cli.cmd_compare", "span", ["vfe_stream.cli:cmd_compare"], None),
]

# reported per-layer metrics: (metric, unit, site, stat), where stat indexes
# the tracer's [calls, total s, self s, steps]; site None marks a metric the
# workload computes itself, reported as 0 where it does not apply
PER_LAYER = [
    ("learner.ingest.calls", "count", "learner.ingest", 0),
    ("learner.ingest.s", "s", "learner.ingest", 2),
    ("learner.ingest.p50_ms", "ms", None, None),
    ("learner.ingest.p99_ms", "ms", None, None),
    ("learner.ascent_step.calls", "count", "learner.ascent_step", 0),
    ("learner.ascent_step.s", "s", "learner.ascent_step", 2),
    ("model.build_hmm.calls", "count", "model.build_hmm", 0),
    ("model.build_hmm.s", "s", "model.build_hmm", 2),
    ("model.log_softmax_row.calls", "count", "model.log_softmax_row", 0),
    ("elbo.local_psi_gradient.calls", "count", "elbo.local_psi_gradient", 0),
    ("elbo.local_psi_gradient.s", "s", "elbo.local_psi_gradient", 2),
    ("elbo.apply_theta_step.calls", "count", "elbo.apply_theta_step", 0),
    ("elbo.apply_theta_step.s", "s", "elbo.apply_theta_step", 2),
    ("elbo.streaming_update_summaries.calls", "count",
     "elbo.streaming_update_summaries", 0),
    ("elbo.streaming_update_summaries.s", "s",
     "elbo.streaming_update_summaries", 2),
    ("elbo.finish.calls", "count", "elbo.finish", 0),
    ("elbo.finish.s", "s", "elbo.finish", 2),
    ("elbo.step_summaries.calls", "count", "elbo.step_summaries", 0),
    ("elbo.step_summaries.s", "s", "elbo.step_summaries", 2),
    ("elbo.elbo_recursive.calls", "count", "elbo.elbo_recursive", 0),
    ("elbo.elbo_recursive.s", "s", "elbo.elbo_recursive", 2),
    ("oracle.forward_filter.calls", "count", "oracle.forward_filter", 0),
    ("oracle.forward_filter.steps", "count", "oracle.forward_filter", 3),
    ("oracle.forward_filter.s", "s", "oracle.forward_filter", 2),
    ("mfa.augment.calls", "count", "mfa.augment", 0),
    ("mfa.augment.s", "s", "mfa.augment", 2),
    ("mfa.MfaHistory.to_dict.s", "s", "mfa.MfaHistory.to_dict", 2),
    ("mfa.retained_bytes_per_obs", "B", None, None),
    ("mfa.hat_elbo.s", "s", "mfa.hat_elbo", 2),
    ("cli.read_observations.s", "s", "cli.read_observations", 2),
    ("learner.StreamTrace.to_csv_text.s", "s",
     "learner.StreamTrace.to_csv_text", 2),
    ("learner.run_stream.s", "s", "learner.run_stream", 2),
    ("cli.cmd_compare.s", "s", "cli.cmd_compare", 2),
    ("cli.compare.overlap", "ratio", None, None),
    ("trace.overhead", "ratio", None, None),
]


def _since_process_start() -> float:
    """Seconds since this process started, interpreter start-up included
    where /proc tells the start time; else since this script began."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.monotonic() - _T_SCRIPT


def _import_program():
    """Import vfe_stream from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import vfe_stream.cli
    import vfe_stream.learner
    import vfe_stream.model

    origin = os.path.realpath(vfe_stream.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"vfe_stream was imported from {origin}, not {SRC}")
    return vfe_stream


def _tally(rounds) -> tuple:
    """(attempted, failed, correct) over the operations of every round; a
    failure of the known fault leaves correct true."""
    attempted = failed = 0
    correct = True
    for r in rounds:
        for label, failures, known_fault in r.outcomes:
            attempted += 1
            if failures:
                failed += 1
                correct = correct and known_fault
                for msg in failures:
                    print(f"{label}: {msg}", file=sys.stderr)
    return attempted, failed, correct


def _layer_metrics(tracer, extra: dict) -> dict:
    stats = tracer.stats()
    out = {}
    for name, unit, site, stat in PER_LAYER:
        if site is None:
            value = extra.get(name, 0.0)
        else:
            value = stats.get(site, [0, 0.0, 0.0, 0])[stat]
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(bench_workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    try:
        vfe = _import_program()
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    try:
        wl = bench_workloads.WORKLOADS[args.workload](vfe, args.seed, work)
        wl.warm()
        bench_workloads.reference_loop()
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2
    setup_s = _since_process_start()

    if args.trace:
        tracer = Tracer(SITES)
        rounds, extra = wl.trace(tracer)
        for target in tracer.absent:
            print(f"absent: {target}")
        tracer.write_spans(os.path.join(work, f"spans-{args.seed}.jsonl"))
        metrics = _layer_metrics(tracer, extra)
    else:
        # whole rounds, as many as bring the timed total nearest --seconds
        meter = bench_workloads.SpeedMeter()
        rounds, obs, busy = [], 0, 0.0
        while not rounds or busy + rounds[-1].seconds / 2 < args.seconds:
            r = wl.round(meter)
            rounds.append(r)
            obs += r.obs
            busy += r.seconds
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(f"measured {obs / busy:.6g} obs/s over {busy:.4g} s; speed "
              f"scale {meter.scale():.4g} from {meter.loops} reference loops",
              file=sys.stderr)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "obs_per_s": {"value": obs / busy * meter.scale(),
                          "unit": "obs/s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    attempted, failed, correct = _tally(rounds)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
