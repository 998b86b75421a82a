"""Streaming learner: schedules, ascent steps, trace records, the ingest
loop, oracle columns, determinism, and state alignment."""

import dataclasses
import inspect
import json
import warnings

import numpy as np
import pytest

from helpers import frozen_fingerprint, random_hmm, random_obs

from vfe_stream import elbo as elbo_mod
from vfe_stream.learner import (
    LearnerState,
    Schedule,
    StreamTrace,
    TRACE_HEADER,
    TraceRecord,
    align_states,
    ingest,
    init_learner,
    run_stream,
    summary_dict,
)
from vfe_stream.kernel import ascent_step
from vfe_stream.mfa import MfaHistory
from vfe_stream.model import (
    ConstraintError,
    ModelParams,
    StateSpace,
    build_hmm,
    hmm_from_config,
    sample_trajectory,
)
from vfe_stream.oracle import forward_filter


def two_state_hmm():
    return hmm_from_config({
        "K": 2, "M": 2, "mu": [0.5, 0.5],
        "A": [[0.9, 0.1], [0.1, 0.9]],
        "B": [[0.8, 0.2], [0.2, 0.8]],
    })


# -- schedule ---------------------------------------------------------------

def test_schedule_defaults():
    s = Schedule()
    assert s.psi_updates_per_obs == 80
    assert s.theta_updates_per_obs == 50
    assert s.psi_step == 0.1
    assert s.theta_step == 0.01


def test_schedule_allows_zero_update_counts():
    s = Schedule(psi_updates_per_obs=0, theta_updates_per_obs=0)
    assert s.psi_updates_per_obs == 0


@pytest.mark.parametrize("init_rule", ["prediction", "uniform"])
def test_init_learner_rejects_a_mu_with_a_zero_entry(init_rule):
    # no pinned-softmax belief can leave a state without mass, so the
    # objective would be -inf from the first observation on
    params = ModelParams.random(StateSpace(2, 2), seed=1)
    with pytest.raises(ConstraintError, match="mu"):
        init_learner(params, [1.0, 0.0], Schedule(), init_rule=init_rule)


def test_schedule_rejects_bad_values():
    with pytest.raises(ConstraintError):
        Schedule(psi_updates_per_obs=-1)
    with pytest.raises(ConstraintError):
        Schedule(theta_updates_per_obs=-3)
    with pytest.raises(ConstraintError):
        Schedule(psi_step=0.0)
    with pytest.raises(ConstraintError):
        Schedule(theta_step=-0.1)
    with pytest.raises(ConstraintError):
        Schedule(psi_step=float("nan"))
    with pytest.raises(ConstraintError):
        Schedule(psi_step=True)
    with pytest.raises(ConstraintError):
        Schedule(theta_step=False)


@pytest.mark.parametrize("count", [2.5, 3.0, True, "4"])
def test_schedule_rejects_non_integer_update_counts(count):
    with pytest.raises(ConstraintError, match="integers"):
        Schedule(psi_updates_per_obs=count)
    with pytest.raises(ConstraintError, match="integers"):
        Schedule(theta_updates_per_obs=count)


# -- ascent_step ------------------------------------------------------------

def test_ascent_step_plain_moves_along_gradient():
    x = np.array([1.0, -2.0])
    g = np.array([0.5, 1.0])
    y, stalled = ascent_step(x, g, 0.2)
    assert not stalled
    assert np.allclose(y, [1.1, -1.8])


def test_ascent_step_zero_gradient_is_identity():
    x = np.array([3.0, 4.0])
    y, stalled = ascent_step(x, np.zeros(2), 1.0)
    assert not stalled
    assert np.array_equal(y, x)


def test_ascent_step_nonfinite_gradient_stalls():
    x = np.array([1.0])
    y, stalled = ascent_step(x, np.array([np.nan]), 0.1)
    assert stalled
    assert np.array_equal(y, x)
    _, stalled = ascent_step(x, np.array([np.inf]), 0.1)
    assert stalled


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
def test_ascent_step_one_nonfinite_entry_stalls_the_whole_step(bad):
    x = np.array([1.0, 2.0, 3.0])
    y, stalled = ascent_step(x, np.array([0.5, bad, -1.0]), 0.1)
    assert stalled
    assert np.array_equal(y, x)
    # a 2-d gradient is checked entry by entry too, not column by column
    x2 = np.zeros((2, 3))
    y, stalled = ascent_step(x2, np.array([[0.5, 1.0, 2.0],
                                           [1.0, bad, -1.0]]), 0.1)
    assert stalled
    assert np.array_equal(y, x2)


def test_ascent_step_leaves_its_input_alone():
    x = np.array([1.0, -2.0])
    y, stalled = ascent_step(x, np.array([1.0, 1.0]), 0.5)
    assert not stalled
    assert np.array_equal(x, [1.0, -2.0])
    assert np.array_equal(y, [1.5, -1.5])


# -- trace ------------------------------------------------------------------

def _rec(tau, **kw):
    base = dict(elbo=-1.0, log_evidence=None, gap=None, filter_l1=None,
                psi_updates=1, theta_updates=0, stalls=0, wall_ms=2.5)
    base.update(kw)
    return TraceRecord(tau=tau, **base)


def test_trace_append_requires_consecutive_tau():
    tr = StreamTrace()
    tr.append(_rec(1))
    tr.append(_rec(2))
    with pytest.raises(ConstraintError):
        tr.append(_rec(4))


def test_trace_csv_shape():
    tr = StreamTrace()
    tr.append(_rec(1, elbo=-0.5, log_evidence=-0.4, gap=0.1, filter_l1=0.0))
    tr.append(_rec(2))
    lines = tr.to_csv_text().splitlines()
    assert lines[0] == TRACE_HEADER
    assert lines[1] == "1,-0.5,-0.4,0.1,0.0,1,0,0,0"
    # None cells serialize empty, wall_ms always as 0 for reproducibility
    assert lines[2] == "2,-1.0,,,,1,0,0,0"
    assert tr.to_csv_text().endswith("\n")


# -- learner construction ---------------------------------------------------

def test_init_learner_rejections():
    hmm = two_state_hmm()
    params = ModelParams.random(StateSpace(K=2, M=2), seed=0)
    sched = Schedule()
    with pytest.raises(ConstraintError):
        init_learner(params, hmm.mu, sched, init_rule="magic")
    with pytest.raises(ConstraintError):
        init_learner(params, hmm.mu, sched, init_rule="zeros")


def test_run_stream_oracle_rejections():
    hmm = two_state_hmm()
    params = ModelParams.random(StateSpace(K=2, M=2), seed=0)
    with pytest.raises(ConstraintError, match="off, self or reference"):
        run_stream(params, hmm.mu, [1], Schedule(), oracle_mode="sideways")
    with pytest.raises(ConstraintError, match="needs a reference model"):
        run_stream(params, hmm.mu, [1], Schedule(), oracle_mode="reference")


def test_learner_state_holds_only_settings_and_carried_values():
    # the oracles live in run_stream's audits, not on the learner
    assert [f.name for f in dataclasses.fields(LearnerState)] == [
        "hmm", "schedule", "family", "init_rule",
        "history", "summaries", "observations", "stalls_total"]
    assert list(inspect.signature(init_learner).parameters) == [
        "params", "mu", "schedule", "family", "init_rule"]


def test_first_belief_follows_init_rule():
    params = ModelParams.random(StateSpace(K=2, M=2), seed=3)
    mu = np.array([0.25, 0.75])
    sched = Schedule(psi_updates_per_obs=0, theta_updates_per_obs=0)
    state = init_learner(params, mu, sched, init_rule="prediction")
    ingest(state, 1)
    assert np.allclose(state.history.belief(1), mu, atol=1e-12)
    state = init_learner(params, mu, sched, init_rule="uniform")
    ingest(state, 1)
    assert np.allclose(state.history.belief(1), [0.5, 0.5], atol=1e-12)


def test_ingest_rejects_out_of_range_observation():
    params = ModelParams.random(StateSpace(K=2, M=2), seed=0)
    state = init_learner(params, [0.5, 0.5], Schedule())
    with pytest.raises(ConstraintError, match="out of range"):
        ingest(state, 0)
    with pytest.raises(ConstraintError, match="out of range"):
        ingest(state, 3)


@pytest.mark.parametrize("bad", [1.9, 2.7, 1.0, True, np.True_,
                                 np.float64(2.0), "1"])
def test_ingest_rejects_a_non_integer_observation(bad):
    # nothing is truncated: the state is as it was, and integers of any
    # kind, numpy's too, still go in
    params = ModelParams.random(StateSpace(K=2, M=2), seed=0)
    state = init_learner(params, [0.5, 0.5], Schedule(psi_updates_per_obs=3,
                                                     theta_updates_per_obs=2))
    ingest(state, 1)
    history = state.history.to_dict()
    with pytest.raises(ConstraintError, match="not an integer"):
        ingest(state, bad)
    assert (state.tau, state.observations) == (1, [1])
    assert state.history.to_dict() == history
    for o in (np.int64(2), np.uint8(1), 2):
        assert ingest(state, o).tau == state.tau
    assert state.observations == [1, 2, 1, 2]


def test_a_zero_in_the_prediction_names_b_and_theta_step():
    # theta_step = 200 drives a transition logit so far that B holds an
    # exact 0, and the prediction row for tau = 7 has a zero entry; this
    # was refused as "logit rows have non-finite entries", with numpy's
    # divide-by-zero warning on stderr
    sched = Schedule(psi_updates_per_obs=80, theta_updates_per_obs=50,
                     psi_step=0.5, theta_step=200.0)
    state = init_learner(ModelParams.random(StateSpace(2, 2), seed=5),
                         [0.5, 0.5], sched)
    obs = np.random.default_rng(5).integers(1, 3, 300)
    for o in obs[:6]:
        ingest(state, o)
    assert (state.hmm.B == 0.0).any()
    before = (state.hmm, state.summaries, state.history.to_dict(),
              list(state.observations), state.stalls_total)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConstraintError) as err:
            ingest(state, obs[6])
    assert str(err.value) == (
        "ingest failed at tau=7: the prediction row has a zero entry, from "
        "an exact 0 in the transition matrix B: theta_step = 200.0 drove "
        "its logits out of range")
    after = (state.hmm, state.summaries, state.history.to_dict(),
             list(state.observations), state.stalls_total)
    assert after[0] is before[0] and after[1] is before[1]
    assert after[2:] == before[2:]


# -- streaming against scratch ----------------------------------------------

def test_pure_augmentation_streaming_matches_scratch():
    # no updates at all: the carried summaries must reproduce the from-scratch
    # fold at every step, since the parameters never move
    hmm = random_hmm(K=3, M=2, seed=5)
    params = ModelParams.random(StateSpace(K=3, M=2), seed=6)
    state = init_learner(params, hmm.mu,
                         Schedule(psi_updates_per_obs=0, theta_updates_per_obs=0))
    obs = random_obs(2, 15, seed=7)
    for o in obs:
        rec = ingest(state, o)
        assert rec.psi_updates == 0 and rec.theta_updates == 0
        scratch, _ = elbo_mod.elbo_recursive(state.hmm, state.history,
                                             state.observations)
        assert abs(rec.elbo - scratch) < 1e-10


def test_params_untouched_without_theta_updates():
    params = ModelParams.random(StateSpace(K=2, M=3), seed=1)
    state = init_learner(params, [0.4, 0.6],
                         Schedule(psi_updates_per_obs=5, theta_updates_per_obs=0))
    for o in random_obs(3, 8, seed=2):
        ingest(state, o)
    assert state.params is params
    assert np.array_equal(state.hmm.A, build_hmm([0.4, 0.6], params).A)


# -- oracle columns ---------------------------------------------------------

def test_single_state_stream_is_exact():
    # K=1: the belief is the constant [1.0], the variational family contains
    # the posterior, so the bound is tight and the filter distance is zero
    hmm = hmm_from_config({"K": 1, "M": 2, "mu": [1.0],
                           "A": [[0.3, 0.7]], "B": [[1.0]]})
    params = ModelParams.from_matrices(hmm.A, hmm.B)
    obs = [1, 2, 2, 1, 2]
    res = run_stream(params, hmm.mu, obs,
                     Schedule(theta_updates_per_obs=0), oracle_mode="self")
    expected = 0.0
    for rec, o in zip(res.trace.records, obs):
        expected += np.log(hmm.A[0, o - 1])
        assert abs(rec.log_evidence - expected) < 1e-12
        assert abs(rec.gap) < 1e-12
        assert rec.filter_l1 == 0.0


def test_self_oracle_gap_nonnegative_and_exact_columns():
    hmm = random_hmm(K=2, M=2, seed=11)
    params = ModelParams.random(StateSpace(K=2, M=2), seed=12)
    obs = random_obs(2, 12, seed=13)
    res = run_stream(params, hmm.mu, obs, Schedule(), oracle_mode="self")
    for rec in res.trace.records:
        assert rec.gap is not None
        assert rec.gap >= -1e-10
        assert np.isfinite(rec.elbo) and np.isfinite(rec.log_evidence)
        assert 0.0 <= rec.filter_l1 <= 2.0
    # the logged evidence is the true filter evidence at the current model
    filt = forward_filter(res.state.hmm, obs)
    assert abs(res.trace.records[-1].log_evidence - filt.log_evidence) < 1e-9


def test_reference_oracle_tracks_fixed_truth_model():
    truth = two_state_hmm()
    traj = sample_trajectory(truth, 10, seed=21)
    obs = list(traj.observations)
    params = ModelParams.random(StateSpace(K=2, M=2), seed=22)
    res = run_stream(params, truth.mu, obs, Schedule(),
                     oracle_mode="reference", reference=truth)
    for i, rec in enumerate(res.trace.records, start=1):
        assert rec.gap is None
        filt = forward_filter(truth, obs[:i])
        assert abs(rec.log_evidence - filt.log_evidence) < 1e-9
    # final-step distance recomputable from the final belief
    filt = forward_filter(truth, obs)
    last = res.trace.records[-1]
    l1 = float(np.abs(res.state.history.belief(10) - filt.marginals[-1]).sum())
    assert abs(last.filter_l1 - l1) < 1e-12


def test_reference_oracle_refuses_an_observation_of_zero_probability():
    # A[:, 1] underflows to exactly 0 in the reference model, so the second
    # observation has zero probability under it: a refusal that names its
    # tau, not a -inf evidence, nan distances and numpy warnings
    ref = hmm_from_config({"K": 2, "M": 2, "mu": [0.5, 0.5],
                           "alpha_tilde": [[0, -1000], [0, -1000]],
                           "beta_tilde": [[0, 0], [0, 0]]})
    assert (ref.A[:, 1] == 0.0).all()
    params = ModelParams.random(StateSpace(K=2, M=2), seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConstraintError, match="^oracle failed at tau=2: "
                           "the observation has zero probability under the "
                           "reference model$"):
            run_stream(params, ref.mu, [1, 2, 1], Schedule(),
                       oracle_mode="reference", reference=ref)


def test_seeded_stream_tracks_evidence():
    # well-specified two-state model, default budgets and steps: the final
    # per-step gap between the bound and the exact evidence stays small
    truth = two_state_hmm()
    traj = sample_trajectory(truth, 200, seed=7)
    params = ModelParams.random(StateSpace(K=2, M=2), seed=3)
    res = run_stream(params, truth.mu, traj.observations, Schedule(),
                     oracle_mode="self")
    last = res.trace.records[-1]
    assert last.gap >= -1e-10
    assert last.gap / 200.0 < 0.02
    for rec in res.trace.records:
        assert rec.gap >= -1e-10


# -- short-term memory -------------------------------------------------------

def test_frozen_blocks_never_move():
    for seed in range(5):
        K = 2 + seed % 2
        hmm = random_hmm(K=K, M=2, seed=50 + seed)
        params = ModelParams.random(StateSpace(K=K, M=2), seed=60 + seed)
        state = init_learner(params, hmm.mu, Schedule(
            psi_updates_per_obs=6, theta_updates_per_obs=3))
        fp = ()
        for o in random_obs(2, 8, seed=70 + seed):
            ingest(state, o)
            new_fp = frozen_fingerprint(state.history)
            assert new_fp[:len(fp)] == fp
            fp = new_fp


# -- determinism -------------------------------------------------------------

def test_repeat_runs_identical():
    hmm = random_hmm(K=2, M=3, seed=81)
    params = ModelParams.random(StateSpace(K=2, M=3), seed=82)
    obs = random_obs(3, 25, seed=83)

    def once():
        res = run_stream(params, hmm.mu, obs, Schedule(), oracle_mode="self")
        return res.trace.to_csv_text(), json.dumps(summary_dict(res), sort_keys=True)

    csv1, sum1 = once()
    csv2, sum2 = once()
    assert csv1 == csv2
    assert sum1 == sum2


def test_empty_source_yields_empty_trace():
    params = ModelParams.random(StateSpace(K=2, M=2), seed=1)
    res = run_stream(params, [0.5, 0.5], [], Schedule())
    assert res.trace.records == []
    assert res.trace.to_csv_text() == TRACE_HEADER + "\n"
    s = summary_dict(res)
    assert s["tau"] == 0
    assert s["metrics"]["final_elbo"] is None
    assert s["history"] is None


# -- summaries and alignment -------------------------------------------------

def test_summary_dict_schema():
    hmm = random_hmm(K=2, M=2, seed=91)
    params = ModelParams.random(StateSpace(K=2, M=2), seed=92)
    obs = random_obs(2, 10, seed=93)
    res = run_stream(params, hmm.mu, obs, Schedule(), oracle_mode="self")
    s = summary_dict(res)
    assert s["tau"] == 10
    assert s["family"] == "reversed"
    assert s["oracle_mode"] == "self"
    A = np.array(s["final_A"])
    assert np.allclose(A.sum(axis=1), 1.0, atol=1e-12)
    hist = MfaHistory.from_dict(s["history"])
    assert hist.horizon == 10
    m = s["metrics"]
    assert m["stalls"] == res.state.stalls_total
    assert abs(m["final_avg_vfe"] + m["final_elbo"] / 10.0) < 1e-12
    assert "mean_filter_l1_tail" in m
    assert m["min_gap"] >= -1e-10


def test_align_states_identity_and_swap():
    A = np.array([[0.9, 0.1], [0.1, 0.9]])
    B = np.array([[0.8, 0.2], [0.2, 0.8]])
    perm, tv = align_states(A, B, A, B)
    assert tuple(perm) == (0, 1)
    assert tv < 1e-15
    swap = [1, 0]
    perm, tv = align_states(A[swap, :], B[np.ix_(swap, swap)], A, B)
    assert tuple(perm) == (1, 0)
    assert tv < 1e-15


def test_align_states_reports_worst_row_distance():
    A_true = np.array([[0.9, 0.1], [0.1, 0.9]])
    B_true = np.array([[0.8, 0.2], [0.2, 0.8]])
    A_hat = np.array([[0.8, 0.2], [0.1, 0.9]])  # first row off by TV 0.1
    perm, tv = align_states(A_hat, B_true, A_true, B_true)
    assert tuple(perm) == (0, 1)
    assert abs(tv - 0.1) < 1e-12


def test_align_states_recovers_three_state_relabeling():
    hmm = random_hmm(K=3, M=3, seed=5)
    p = [2, 0, 1]
    A_hat = hmm.A[p, :]
    B_hat = hmm.B[np.ix_(p, p)]
    perm, tv = align_states(A_hat, B_hat, hmm.A, hmm.B)
    assert tv < 1e-12
    assert [perm[i] for i in range(3)] == [1, 2, 0]
