"""Tests of the benchmark's own computations and output checks.

The reference computations are compared with the program's exact oracles on
small inputs, and every check is shown to reject a planted bad output.
"""

import csv
import json
import os
import sys
import time
import types

import numpy as np
import pytest

import vfe_stream
import vfe_stream.cli
from vfe_stream.mfa import MfaHistory, augment
from vfe_stream.model import ModelParams, StateSpace, build_hmm
from vfe_stream.oracle import brute_force_elbo, forward_filter

import bench_ref as ref
import bench_workloads
from bench_trace import Tracer


def _hmm(K, M, seed, mu=None):
    rng = np.random.default_rng(seed)
    mu = rng.dirichlet(np.ones(K)) if mu is None else np.asarray(mu, float)
    return build_hmm(mu, ModelParams.random(StateSpace(K, M), seed=seed, scale=2.0))


def _obs(M, tau, seed):
    rng = np.random.default_rng(100 + seed)
    return [int(x) for x in rng.integers(1, M + 1, size=tau)]


def _history(K, tau, seed):
    rng = np.random.default_rng(seed)

    def pinned():
        v = rng.normal(size=K)
        v[0] = 0.0
        return v

    h = MfaHistory(pinned())
    for _ in range(2, tau + 1):
        augment(h, "uniform")
        h.set_updatable(pinned(), pinned())
    return h


@pytest.mark.parametrize("K,M,tau,seed", [(1, 2, 5, 0), (2, 3, 40, 1),
                                          (3, 2, 200, 2), (4, 4, 7, 3)])
def test_log_evidence_matches_oracle_filter(K, M, tau, seed):
    hmm = _hmm(K, M, seed)
    obs = _obs(M, tau, seed)
    expected = forward_filter(hmm, obs).log_evidence
    got = ref.log_evidence(hmm.mu, hmm.A, hmm.B, obs)
    assert got == pytest.approx(expected, rel=1e-12)


def test_log_evidence_with_zero_initial_mass():
    hmm = _hmm(3, 2, 5, mu=[0.0, 0.6, 0.4])
    obs = _obs(2, 30, 5)
    got = ref.log_evidence(hmm.mu, hmm.A, hmm.B, obs)
    assert got == pytest.approx(forward_filter(hmm, obs).log_evidence, rel=1e-12)


@pytest.mark.parametrize("K,M,tau,seed", [(2, 2, 1, 0), (2, 3, 6, 1),
                                          (3, 2, 5, 2)])
def test_product_elbo_matches_brute_force(K, M, tau, seed):
    hmm = _hmm(K, M, seed)
    obs = _obs(M, tau, seed)
    P = ref.softmax_rows(np.random.default_rng(seed).normal(size=(tau, K)))
    table = P[0]
    for t in range(1, tau):
        table = np.outer(table, P[t]).ravel()
    expected = brute_force_elbo(hmm, table, obs)
    got = ref.product_elbo(hmm.mu, hmm.A, hmm.B, P, obs)
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_final_marginals_read_the_checkpoint_like_the_history():
    h = _history(3, 9, 4)
    P = ref.final_marginals(h.to_dict()["rho"])
    expected = np.array([h.belief(t) for t in range(1, 10)])
    np.testing.assert_allclose(P, expected, rtol=1e-14, atol=1e-15)


def test_product_elbo_agrees_with_recursive_objective():
    hmm = _hmm(3, 3, 6)
    obs = _obs(3, 60, 6)
    h = _history(3, 60, 6)
    P = ref.final_marginals(h.to_dict()["rho"])
    program, _ = vfe_stream.elbo_recursive(hmm, h, obs)
    assert ref.product_elbo(hmm.mu, hmm.A, hmm.B, P, obs) == pytest.approx(
        program, rel=1e-12)


def test_aligned_tv_is_zero_under_relabeling_and_sees_a_perturbation():
    hmm = _hmm(3, 2, 7)
    p = [2, 0, 1]
    A_hat, B_hat = hmm.A[p, :], hmm.B[np.ix_(p, p)]
    assert ref.aligned_max_row_tv(A_hat, B_hat, hmm.A, hmm.B) == pytest.approx(0.0, abs=1e-15)
    A = np.array([[0.9, 0.1], [0.1, 0.9]])
    B = np.array([[0.8, 0.2], [0.2, 0.8]])
    A_bad = np.array([[0.7, 0.3], [0.1, 0.9]])
    assert ref.aligned_max_row_tv(A_bad, B, A, B) == pytest.approx(0.2)


# -- every check rejects a planted bad output ----------------------------------

def test_check_bound_rejects_an_objective_above_the_evidence():
    assert ref.check_bound("elbo", -101.0, -100.0) == []
    assert ref.check_bound("elbo", -100.0 + 1e-10, -100.0) == []
    assert ref.check_bound("elbo", -100.0 + 1e-5, -100.0)
    assert ref.check_bound("elbo", float("nan"), -100.0)


def test_check_equal_rejects_a_shifted_value():
    assert ref.check_equal("elbo", -100.0 * (1 + 1e-12), -100.0) == []
    assert ref.check_equal("elbo", -100.0 * (1 + 1e-8), -100.0)


def test_check_gaps_rejects_a_negative_gap():
    assert ref.check_gaps([0.0, 1e-3, -1e-11]) == []
    assert ref.check_gaps([0.0, -1e-8, 2.0])
    assert ref.check_gaps([float("nan")])


def test_check_beliefs_rejects_rows_off_the_simplex():
    good = ref.softmax_rows(np.random.default_rng(0).normal(size=(5, 3)))
    assert ref.check_beliefs(good) == []
    bad = good.copy()
    bad[2] *= 1.01
    assert ref.check_beliefs(bad)
    neg = good.copy()
    neg[1] = [1.2, -0.1, -0.1]
    assert ref.check_beliefs(neg)


def test_check_recovery_rejects_a_model_beyond_the_gate():
    A = np.array([[0.9, 0.1], [0.1, 0.9]])
    B = np.array([[0.8, 0.2], [0.2, 0.8]])
    assert ref.check_recovery(A[::-1], B[::-1, ::-1], A, B) == []
    assert ref.check_recovery(np.full((2, 2), 0.5), B, A, B)


def test_check_constant_cost_rejects_growing_ingest_times():
    flat = np.full(100, 1e-3) + np.linspace(0, 1e-4, 100)
    assert ref.check_constant_cost(flat) == []
    assert ref.check_constant_cost(np.linspace(1e-3, 5e-3, 100))


def test_check_rows_rejects_a_missing_row():
    assert ref.check_rows("trace", [1, 2, 3], 3) == []
    assert ref.check_rows("trace", [1, 3], 3)


def test_percentile_needs_forty_samples_beyond_it():
    t = np.arange(1, 4001) * 1e-3
    assert ref.percentile_ms(t, 99) == pytest.approx(np.percentile(t, 99) * 1e3)
    assert ref.percentile_ms(t[:3999], 99) == 0.0
    assert ref.percentile_ms(t[:80], 50) > 0.0


# -- workload checks on real program output with planted faults ----------------

def _edit_trace(path, column, value):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
        fields = list(rows[0].keys())
    rows[-1][column] = value
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


def _short(cls, length):
    return type(cls.__name__, (cls,), {"length": length})


def test_fit_long_checks_pass_and_catch_a_raised_objective(tmp_path):
    wl = _short(bench_workloads.FitLong, 60)(vfe_stream, 3, str(tmp_path))
    r = wl.round()
    assert r.outcomes == [("fit", [], False)]
    trace = os.path.join(wl.out, "trace.csv")
    with open(trace) as fh:
        elbo = float(list(csv.DictReader(fh))[-1]["elbo"])
    _edit_trace(trace, "elbo", repr(elbo + 1e3))
    [(_, failures, _)] = wl.check(0)
    assert any("exceeds the log evidence" in f for f in failures)
    assert any("differs from the reference" in f for f in failures)


def test_fit_long_checks_catch_a_belief_checkpoint_off_the_objective(tmp_path):
    wl = _short(bench_workloads.FitLong, 40)(vfe_stream, 4, str(tmp_path))
    wl.round()
    path = os.path.join(wl.out, "summary.json")
    with open(path) as fh:
        summary = json.load(fh)
    summary["history"]["rho"][5] = [0.0, 3.0]
    with open(path, "w") as fh:
        json.dump(summary, fh)
    [(_, failures, _)] = wl.check(0)
    assert any("differs from the reference" in f for f in failures)
    assert wl.check(3)[0][1] == ["fit exited with 3"]


def test_audit_checks_pass_and_catch_a_negative_gap(tmp_path):
    wl = _short(bench_workloads.AuditK3, 25)(vfe_stream, 5, str(tmp_path))
    assert wl.round().outcomes == [("fit", [], False)]
    _edit_trace(os.path.join(wl.out, "trace.csv"), "gap", "-1e-6")
    [(_, failures, _)] = wl.check(0)
    assert any("gap <" in f for f in failures)


def test_compare_checks_flag_the_bound_and_the_tight_k1_case(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_workloads, "COMPARE_LENGTH", 20)
    monkeypatch.setenv("VFE_STREAM_THREADS", "1")  # undone after the test
    wl = bench_workloads.CompareMix(vfe_stream, 6, str(tmp_path))
    outcomes = wl.round().outcomes
    assert [(name, known) for name, _, known in outcomes] == [
        ("k1", False), ("k2", False), ("k3", False), ("k2-decoupled", True)]
    assert all(not failures for name, failures, _ in outcomes
               if name != "k2-decoupled")
    path = os.path.join(wl.out, "compare.json")
    with open(path) as fh:
        report = json.load(fh)
    k1, k2 = report["candidates"][0], report["candidates"][1]
    k1["objective"] -= 1.0
    k2["exact_elbo"] = k2["exact_log_evidence"] + 1.0
    with open(path, "w") as fh:
        json.dump(report, fh)
    failures = {name: f for name, f, _ in wl.check(0)}
    assert any("differs from the reference" in f for f in failures["k1"])
    assert any("exact_elbo" in f for f in failures["k2"])


# -- tracer --------------------------------------------------------------------

def test_tracer_self_time_parents_and_absent_sites(monkeypatch):
    mod = types.ModuleType("fake_layer")
    exec("import time\n"
         "def inner(xs):\n    time.sleep(0.02)\n    return len(xs)\n"
         "def outer(xs):\n    time.sleep(0.01)\n    return inner(xs) + inner(xs)\n",
         mod.__dict__)
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    original = mod.inner
    tracer = Tracer([
        ("fake.outer", "span", ["fake_layer:outer"], None),
        ("fake.inner", "agg", ["fake_layer:inner"],
         lambda args, kwargs: len(args[0])),
        ("fake.gone", "span", ["fake_layer:renamed"], None),
    ])
    tracer.install()
    try:
        assert mod.outer([1, 2, 3]) == 6
    finally:
        tracer.uninstall()
    assert mod.inner is original
    assert tracer.absent == ["fake_layer:renamed"]
    stats = tracer.stats()
    calls, total, own, _ = stats["fake.outer"]
    assert calls == 1 and 0.01 <= own < total - 0.035
    assert stats["fake.inner"][0] == 2 and stats["fake.inner"][3] == 6
    [(span_id, name, t0, t1, parent, _)] = tracer.spans
    assert name == "fake.outer" and parent is None and t1 - t0 >= 0.05


# -- speed meter ---------------------------------------------------------------

def test_speed_meter_takes_its_own_time_out_and_restores_the_hook(monkeypatch):
    monkeypatch.setattr(bench_workloads, "SPEED_SEGMENT_S", 0.0)
    mod = types.SimpleNamespace(step=lambda: time.sleep(0.01))
    original = mod.step

    def work():
        for _ in range(5):
            mod.step()
        return "done"

    meter = bench_workloads.SpeedMeter()
    start = time.perf_counter()
    result, busy = meter.measure(work, hook=(mod, "step"))
    total = time.perf_counter() - start
    assert result == "done" and mod.step is original
    assert meter.loops >= 6  # a sample after each call and one at the end
    assert 0.05 <= busy and abs(busy - (total - meter.seconds)) < 0.01
    assert meter.scale() == pytest.approx(
        bench_workloads.REFERENCE_LOOPS_PER_S * meter.seconds / meter.loops)


def test_speed_meter_skips_a_hook_that_no_longer_exists():
    meter = bench_workloads.SpeedMeter()
    mod = types.SimpleNamespace()
    result, busy = meter.measure(lambda: 7, hook=(mod, "renamed"))
    assert result == 7 and busy >= 0.0 and meter.loops == 1
    assert not hasattr(mod, "renamed")
