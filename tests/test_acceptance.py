"""End-to-end acceptance gate.

Every mathematical and operational contract of the package, checked at its
registered tolerance, one printed verdict line per check.  Run with -s to see
the verdicts; the two-state recovery benchmark, with the self oracle's exact
filter and objective at every step, takes about 15 s and is shared between
the recovery, self-audit and model-comparison checks.
"""

import json
import os
import time

import numpy as np
import pytest

from helpers import (free_theta, frozen_fingerprint, hat_elbo,
                     near_identity_params, pairwise_tables_from_history,
                     random_hmm, random_obs)

from vfe_stream import elbo as elbo_mod
from vfe_stream.cli import (
    _random_history as random_history,
    load_config,
    main as cli_main,
)
from vfe_stream.learner import (
    Schedule,
    align_states,
    ingest,
    init_learner,
    run_stream,
    self_audit,
)
from vfe_stream.mfa import (
    MfaFamily,
    MfaHistory,
    augment,
    full_q,
)
from vfe_stream.model import (
    ModelParams,
    StateSpace,
    build_hmm,
    hmm_from_config,
    sample_trajectory,
)
from vfe_stream.oracle import (
    brute_force_elbo,
    enumerate_posterior,
    finite_diff_grad,
    forward_filter,
    max_grad_error,
    vfe,
    vfe_forms,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG_DIR = os.path.join(ROOT, "configs")


def verdict(ok: bool, name: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def seeded_instance(i: int, max_tau: int = 6):
    K = 2 if i % 2 == 0 else 3
    M = 2 + (i % 2)
    tau = (i % max_tau) + 1
    rng = np.random.default_rng(10_000 + i)
    hmm = random_hmm(K=K, M=M, seed=20_000 + i)
    hist = random_history(K, tau, rng)
    obs = [int(rng.integers(1, M + 1)) for _ in range(tau)]
    return hmm, hist, obs


# -- 1: the recursion agrees with brute-force enumeration ---------------------

def test_recursion_matches_enumeration_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(50):
        hmm, hist, obs = seeded_instance(i)
        rec, _ = elbo_mod.elbo_recursive(hmm, hist, obs)
        bf = brute_force_elbo(hmm, full_q(hist).table, obs)
        worst = max(worst, abs(rec - bf))
    elapsed = time.perf_counter() - t0
    verdict(worst <= 1e-9 and elapsed < 10.0,
            "recursion equals enumerated objective",
            f"50 instances, max |diff| = {worst:.2e} (tol 1e-9), "
            f"{elapsed:.1f} s (< 10 s)")


# -- 2: both analytic gradients agree with finite differences -----------------

def test_gradients_match_finite_differences():
    t0 = time.perf_counter()
    worst_theta = worst_psi = 0.0
    for i in range(50):
        hmm, hist, obs = seeded_instance(i, max_tau=5)
        K = hmm.K
        free0, free, params_at = free_theta(
            ModelParams.from_matrices(hmm.A, hmm.B))

        def f_theta(v):
            h2 = build_hmm(hmm.mu, params_at(v))
            return elbo_mod.elbo_recursive(h2, hist, obs)[0]

        g = elbo_mod.grad_theta(hmm, hist, obs)[free]
        worst_theta = max(worst_theta,
                          max_grad_error(g, finite_diff_grad(f_theta, free0)))

        gp = elbo_mod.grad_psi(hmm, hist, obs)
        n = len(hist.updatable_logits())
        x0 = hist.updatable_logits()[:, 1:].ravel()

        def f_psi(v):
            h2 = MfaHistory.from_dict(hist.to_dict())
            h2.set_updatable(np.insert(v.reshape(n, K - 1), 0, 0.0, axis=1))
            return elbo_mod.elbo_recursive(hmm, h2, obs)[0]

        worst_psi = max(worst_psi,
                        max_grad_error(gp, finite_diff_grad(f_psi, x0)))
    elapsed = time.perf_counter() - t0
    ok = worst_theta <= 1.0 and worst_psi <= 1.0 and elapsed < 30.0
    verdict(ok, "gradients match central finite differences",
            f"50 instances, worst scaled error theta = {worst_theta:.3f}, "
            f"psi = {worst_psi:.3f} (tol 1.0 = rel 1e-5, floor 1e-8), "
            f"{elapsed:.1f} s (< 30 s)")


# -- 3: the objective never exceeds the log evidence --------------------------

def test_objective_bounded_by_log_evidence():
    worst = -np.inf
    for i in range(200):
        hmm, hist, obs = seeded_instance(i)
        rec, _ = elbo_mod.elbo_recursive(hmm, hist, obs)
        log_z = forward_filter(hmm, obs).log_evidence
        worst = max(worst, rec - log_z)
    tight_err = 0.0
    for K, seed in ((2, 1), (2, 2), (3, 3)):
        # near-deterministic emissions make the posterior factorize: the
        # observed symbol pins the state, so point-mass blocks realize it;
        # the transition matrix stays generic
        rng = np.random.default_rng(seed)
        params = ModelParams(
            near_identity_params(K).alpha_tilde,
            ModelParams.random(StateSpace(K, K), seed=seed).beta_tilde)
        mu = rng.dirichlet(np.ones(K))
        hmm = build_hmm(mu, params)
        tau = 5
        obs = [int(rng.integers(1, K + 1)) for _ in range(tau)]

        def point(symbol):
            row = np.full(K, -30.0)
            row[symbol - 1] = 30.0
            row -= row[0]
            return row

        hist = MfaHistory(point(obs[0]))
        for t in range(2, tau + 1):
            augment(hist, "uniform")
            hist.set_updatable(np.array([point(obs[t - 2]), point(obs[t - 1])]))
        rec, _ = elbo_mod.elbo_recursive(hmm, hist, obs)
        log_z = forward_filter(hmm, obs).log_evidence
        tight_err = max(tight_err, abs(rec - log_z))
    ok = worst <= 1e-10 and tight_err <= 1e-9
    verdict(ok, "objective is a true lower bound on log evidence",
            f"200 pairs, max L - ln p = {worst:.2e} (tol 1e-10); equality at "
            f"the factorized posterior within {tight_err:.2e} (tol 1e-9)")


# -- 4: both free-energy forms agree and touch the posterior ------------------

def test_vfe_forms_and_posterior_identity():
    worst_forms = worst_ident = 0.0
    for i in range(50):
        K, M = (2, 2) if i % 2 == 0 else (2, 3)
        tau = (i % 5) + 1
        rng = np.random.default_rng(40_000 + i)
        hmm = random_hmm(K=K, M=M, seed=41_000 + i)
        obs = [int(rng.integers(1, M + 1)) for _ in range(tau)]
        q = rng.dirichlet(np.ones(K ** tau))
        f1, f2 = vfe_forms(hmm, q, obs)
        worst_forms = max(worst_forms, abs(f1 - f2))
        post = enumerate_posterior(hmm, obs)
        log_z = forward_filter(hmm, obs).log_evidence
        worst_ident = max(worst_ident, abs(vfe(hmm, post, obs) + log_z))
    ok = worst_forms <= 1e-10 and worst_ident <= 1e-10
    verdict(ok, "free-energy forms agree and equal -ln p at the posterior",
            f"50 instances, forms diff = {worst_forms:.2e}, posterior "
            f"identity = {worst_ident:.2e} (tol 1e-10)")


# -- 5: the pairwise objective never exceeds the full one ---------------------

def test_pairwise_objective_is_lower_bound_on_matched_product():
    worst = -np.inf
    for i in range(100):
        K = 2 if i % 2 == 0 else 3
        M = 2 + (i % 2)
        tau = (i % 5) + 2
        rng = np.random.default_rng(50_000 + i)
        hmm = random_hmm(K=K, M=M, seed=51_000 + i)
        hist = random_history(K, tau, rng)
        obs = [int(rng.integers(1, M + 1)) for _ in range(tau)]
        hat = hat_elbo(hmm, pairwise_tables_from_history(hist), obs)
        L = brute_force_elbo(hmm, full_q(hist, MfaFamily.FULLY_DECOUPLED).table,
                             obs)
        worst = max(worst, hat - L)
    verdict(worst <= 1e-12,
            "pairwise objective lower-bounds the product-form objective",
            f"100 matched instances, max hat - L = {worst:.2e} (slack 1e-12)")


# -- 6: streaming summaries are exact and cost O(1) per observation -----------

def test_streaming_equals_scratch_and_costs_constant():
    hmm = random_hmm(K=3, M=2, seed=61)
    params = ModelParams.from_matrices(hmm.A, hmm.B)
    frozen = Schedule(psi_updates_per_obs=0, theta_updates_per_obs=0)
    state = init_learner(params, hmm.mu, frozen)
    worst = 0.0
    for o in random_obs(2, 50, seed=62):
        rec = ingest(state, o)
        scratch = elbo_mod.finish(
            elbo_mod.scratch_summaries(state.hmm, state.history,
                                       state.observations))
        worst = max(worst, abs(rec.elbo - scratch))

    def median_ingest_cost(horizon: int) -> float:
        p = ModelParams.random(StateSpace(3, 2), seed=63)
        s = init_learner(p, hmm.mu, frozen)
        grow = random_obs(2, horizon, seed=64)
        for o in grow:
            ingest(s, o)
        # same machinery, now with the real update budget; the horizon must
        # not leak into the per-observation cost
        s.schedule = Schedule(psi_updates_per_obs=5, theta_updates_per_obs=3)
        timed = random_obs(2, 200, seed=65)
        samples = []
        for o in timed:
            t0 = time.perf_counter()
            ingest(s, o)
            samples.append(time.perf_counter() - t0)
        return float(np.median(samples))

    cost_small = median_ingest_cost(10)
    cost_big = median_ingest_cost(10_000)
    ratio = cost_big / cost_small
    ok = worst <= 1e-10 and ratio < 2.0
    verdict(ok, "streaming fold is exact and horizon-independent",
            f"50-step scratch diff = {worst:.2e} (tol 1e-10); per-step cost "
            f"ratio at horizon 10^4 vs 10 = {ratio:.2f} (< 2)")


# -- 7 and 8 share one run of the two-state recovery benchmark ----------------

@pytest.fixture(scope="module")
def benchmark_run():
    cfg = load_config(os.path.join(CONFIG_DIR, "bench-k2.json"))
    truth = cfg.hmm
    obs = list(sample_trajectory(truth, cfg.length, seed=cfg.seed).observations)
    p0 = ModelParams.random(StateSpace(truth.K, truth.M), seed=cfg.init_seed)
    state = init_learner(p0, truth.mu, cfg.schedule, family=cfg.family,
                         init_rule=cfg.init_rule)
    tail_start = cfg.length - 1000
    ingest_secs = 0.0
    tail_l1, gaps = [], []
    for i, o in enumerate(obs, start=1):
        t0 = time.perf_counter()
        rec = ingest(state, o)
        ingest_secs += time.perf_counter() - t0
        # the audit `fit --oracle` runs, outside the timed ingest
        rec = self_audit(state, rec)
        gaps.append(rec.gap)
        if i > tail_start:
            tail_l1.append(rec.filter_l1)
    perm, tv = align_states(state.hmm.A, state.hmm.B, truth.A, truth.B)
    with open(os.path.join(CONFIG_DIR, "registered.json")) as fh:
        registered = json.load(fh)["bench-k2.json"]
    return {
        "truth": truth, "obs": obs, "state": state, "perm": perm,
        "max_row_tv": tv, "mean_tail_l1": float(np.mean(tail_l1)),
        "ingest_secs": ingest_secs, "registered": registered, "gaps": gaps,
    }


def test_online_recovery_benchmark(benchmark_run):
    b = benchmark_run
    reg = b["registered"]
    gates = (b["max_row_tv"] <= 0.1
             and b["mean_tail_l1"] <= 0.05
             and b["ingest_secs"] < 60.0)
    consistent = (abs(b["max_row_tv"] - reg["max_row_tv"]) <= 0.02
                  and abs(b["mean_tail_l1"] - reg["mean_filter_l1_tail"]) <= 0.01)
    verdict(gates and consistent, "online recovery benchmark",
            f"aligned max row TV = {b['max_row_tv']:.4f} (<= 0.1), mean exact-"
            f"filter L1 over final 1000 = {b['mean_tail_l1']:.4f} (<= 0.05), "
            f"run time {b['ingest_secs']:.1f} s (< 60); registered "
            f"{reg['max_row_tv']:.4f}/{reg['mean_filter_l1_tail']:.4f}")


def test_self_audit_gap_holds_on_the_whole_stream(benchmark_run):
    # log evidence minus the exact objective at every one of the stream's
    # steps, the column `fit --oracle` writes as gap
    gaps = benchmark_run["gaps"]
    ok = len(gaps) == len(benchmark_run["obs"]) and min(gaps) >= -1e-10
    verdict(ok, "self-audit gap on the whole recovery stream",
            f"min gap over {len(gaps)} steps = {min(gaps):.3e} (>= -1e-10)")


def test_model_comparison_prefers_two_states(benchmark_run):
    b = benchmark_run
    obs = b["obs"]
    tau = len(obs)
    # the two-state candidate is the shared benchmark run, scored by the
    # streaming objective it attained online (same rule as the compare tool)
    state2 = b["state"]
    avg_vfe_k2 = -elbo_mod.finish(state2.summaries) / tau
    # the single-state candidate: fit the i.i.d. model on the same data with
    # the same gentle parameter schedule
    iid = hmm_from_config({"K": 1, "M": 2, "mu": [1.0],
                           "A": [[0.5, 0.5]], "B": [[1.0]]})
    p0 = ModelParams.random(StateSpace(1, 2), seed=1)
    res = run_stream(p0, iid.mu, obs,
                     Schedule(psi_updates_per_obs=0, theta_updates_per_obs=50,
                              psi_step=0.5, theta_step=0.002))
    elbo_k1, _ = elbo_mod.elbo_recursive(res.state.hmm, res.state.history, obs)
    avg_vfe_k1 = -elbo_k1 / tau
    # for one state the bound is tight, so its free energy IS the i.i.d.
    # negative log likelihood at the fitted emission row
    closed_form = float(np.sum(np.log(
        res.state.hmm.A[0, np.asarray(obs) - 1])))
    # strongest version: the online two-state run also beats the best possible
    # i.i.d. account of the data, the empirical symbol entropy
    freq = np.bincount(np.asarray(obs) - 1, minlength=2) / tau
    iid_floor = float(-np.sum(freq * np.log(freq)))
    ok = (avg_vfe_k2 < avg_vfe_k1 and avg_vfe_k2 < iid_floor
          and abs(elbo_k1 - closed_form) <= 1e-9)
    verdict(ok, "two-state candidate beats the i.i.d. candidate",
            f"avg VFE K=2 {avg_vfe_k2:.4f} < K=1 {avg_vfe_k1:.4f} (and < "
            f"i.i.d. floor {iid_floor:.4f}); K=1 objective equals closed-form "
            f"NLL within {abs(elbo_k1 - closed_form):.2e}")


# -- 9: frozen beliefs are bit-for-bit immutable ------------------------------

def test_short_term_memory_fuzz():
    rng = np.random.default_rng(90_000)
    streams = 0
    for i in range(100):
        K = int(rng.integers(1, 4))
        M = int(rng.integers(2, 4))
        tau = int(rng.integers(3, 11))
        family = (MfaFamily.REVERSED if rng.random() < 0.7
                  else MfaFamily.FULLY_DECOUPLED)
        sched = Schedule(
            psi_updates_per_obs=int(rng.integers(0, 7)),
            theta_updates_per_obs=int(rng.integers(0, 5)),
            psi_step=float(rng.uniform(0.05, 0.5)),
            theta_step=float(rng.uniform(0.01, 0.3)))
        hmm = random_hmm(K=K, M=M, seed=91_000 + i)
        params = ModelParams.random(StateSpace(K, M), seed=92_000 + i)
        state = init_learner(params, hmm.mu, sched, family=family)
        fp = ()
        for _ in range(tau):
            o = int(rng.integers(1, M + 1))
            ingest(state, o)
            new_fp = frozen_fingerprint(state.history)
            assert new_fp[:len(fp)] == fp, "a frozen block changed bytes"
            fp = new_fp
        streams += 1
    verdict(streams == 100, "frozen beliefs are immutable",
            f"{streams} random streams, every pre-final block byte-stable "
            f"after every ingest")


# -- 10: the command line is deterministic and schema-faithful ----------------

def test_cli_determinism_and_schema(tmp_path):
    cfg_path = os.path.join(CONFIG_DIR, "bench-k1.json")
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    d1.mkdir(), d2.mkdir()
    for d in (d1, d2):
        assert cli_main(["generate", "--config", cfg_path, "--out", str(d),
                         "--quiet"]) == 0
        assert cli_main(["fit", "--config", cfg_path,
                         "--data", str(d / "data.jsonl"),
                         "--out", str(d), "--quiet"]) == 0
    identical = ((d1 / "data.jsonl").read_bytes() == (d2 / "data.jsonl").read_bytes()
                 and (d1 / "trace.csv").read_bytes() == (d2 / "trace.csv").read_bytes()
                 and (d1 / "summary.json").read_bytes() == (d2 / "summary.json").read_bytes())

    lines = (d1 / "trace.csv").read_text().splitlines()
    header_ok = lines[0] == ("tau,elbo,log_evidence,gap,filter_l1,"
                             "psi_updates,theta_updates,stalls,wall_ms")
    rows_ok = len(lines) == 301
    gaps_ok = all(float(l.split(",")[3]) >= -1e-10 for l in lines[1:])
    summary = json.loads((d1 / "summary.json").read_text())
    schema_ok = ({"tau", "family", "oracle_mode", "final_params", "final_A",
                  "final_B", "history", "metrics", "config_seed"}
                 <= set(summary))

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": {"K": 2, "M": 2, "mu": [0.5, 0.5]},
                               "seed": 1, "length": 5, "bogus": True}))
    config_err = cli_main(["fit", "--config", str(bad), "--data",
                           str(d1 / "data.jsonl"), "--out", str(tmp_path),
                           "--quiet"]) == 2

    good_gc = tmp_path / "gc.json"
    good_gc.write_text("{}")
    neg_gc = tmp_path / "gc_neg.json"
    neg_gc.write_text(json.dumps({"instances": 3, "negative_control": True}))
    gc_ok = cli_main(["gradcheck", "--config", str(good_gc),
                      "--out", str(tmp_path), "--quiet"]) == 0
    gc_neg = cli_main(["gradcheck", "--config", str(neg_gc),
                       "--out", str(tmp_path), "--quiet"]) == 3

    ok = (identical and header_ok and rows_ok and gaps_ok and schema_ok
          and config_err and gc_ok and gc_neg)
    verdict(ok, "command line determinism, schemas and exit codes",
            f"repeat runs byte-identical = {identical}, trace schema ok = "
            f"{header_ok and rows_ok and gaps_ok}, summary schema ok = "
            f"{schema_ok}, config error exits 2 = {config_err}, gradcheck "
            f"passes = {gc_ok}, negative control exits 3 = {gc_neg}")
