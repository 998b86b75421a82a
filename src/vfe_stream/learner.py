"""Streaming coordinate-ascent learner.

Per observation: run a fixed budget of ascent steps on the new snapshot's
two belief rows and store them, normalise those rows once, carry the theta
gradient g one step on, run a fixed budget on the model parameters (using
the just-updated beliefs), then fold V and append a trace record.
Per-observation cost is constant in tau.

What one ingest carries to the next is (hmm, history, summaries,
observations, stalls_total), each held once, on LearnerState.  The
summaries are one record, elbo.ElboSummaries: V and g at tau with the
final marginals pi_{tau-1}, pi_tau and ln pi_tau, which the ingest's one
softmax-and-log pass over the rows the psi phase wrote gives.  The next
ingest's starting rows, psi phase, g carry and fold read them from that
record, so no stored row is normalised twice.  tau is the number of
observations and the parameters are the model's; neither is stored apart.
An ingest stores the model, summaries and stall count once, after its last
step that can fail, so a failed one has only its observation and its
history rows to drop.

The two ascent loops run in kernel on plain arrays.  Values are validated
where they enter, once: mu and the starting parameters in init_learner, the
prediction row before the psi phase, the ascended rows as
MfaHistory.append_snapshot stores them (one row check per ingest), and theta
as model.rebuild_hmm takes it over (once per rebuild, reusing the validated
mu).  What is read back (history rows, the model) is not checked.

Both mean-field families run this one path.  The reversed family's
extension factors telescope to the product of the final per-time marginals,
which is exactly the fully decoupled family's joint, and both are scored
and learned with the same valid objective; the family name is carried
through to the outputs but selects nothing.

The carried summaries absorb each time step's terms at the parameter values
in effect when the step was folded in, so g is stale by design; with
parameter updates disabled they are bit-identical to a refold from scratch.
ingest computes the learner's own record only.  The oracles are audits that
run_stream calls after each ingest, reading the learner: self_audit
recomputes the exact filter and objective at the current parameters, and
reference_filter carries the exact filter of a fixed model.
"""

from __future__ import annotations

import itertools
import numbers
import time
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

import numpy as np

from . import elbo as elbo_mod
from . import kernel
from .mfa import INIT_RULES, MfaFamily, MfaHistory, start_rows
from .model import (ConstraintError, GenerativeHMM, ModelParams, build_hmm,
                    rebuild_hmm, softmax_and_log)
from .oracle import tree_filter


@dataclass(frozen=True)
class Schedule:
    """Per-observation update budget and step sizes.

    theta_step is relative to the per-observation average of the objective:
    the applied step is theta_step / tau.  The cumulative gradient grows
    linearly with the horizon while its carried part is constant within one
    ingest, so an unscaled step would move the parameters by an amount
    proportional to tau on every observation and saturate them; dividing by
    tau keeps one config value stable across the whole stream without
    changing the maximizer.
    """

    psi_updates_per_obs: int = 80
    theta_updates_per_obs: int = 50
    psi_step: float = 0.1
    theta_step: float = 0.01

    def __post_init__(self):
        for n in (self.psi_updates_per_obs, self.theta_updates_per_obs):
            if isinstance(n, bool) or not isinstance(n, numbers.Integral) \
                    or n < 0:
                raise ConstraintError("update counts must be integers >= 0")
        for s in (self.psi_step, self.theta_step):
            if isinstance(s, (bool, np.bool_)) or not (np.isfinite(s)
                                                       and s > 0.0):
                raise ConstraintError("step sizes must be positive reals")


@dataclass
class TraceRecord:
    tau: int
    elbo: float
    log_evidence: Optional[float]
    gap: Optional[float]
    filter_l1: Optional[float]
    psi_updates: int
    theta_updates: int
    stalls: int
    wall_ms: float


TRACE_HEADER = "tau,elbo,log_evidence,gap,filter_l1,psi_updates,theta_updates,stalls,wall_ms"


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


@dataclass
class StreamTrace:
    """One record per observation, monotone in tau.

    The CSV form writes wall_ms as 0: repeat runs must be byte-identical,
    and wall time is the one column that cannot be.  Real timings stay on
    the in-memory records for benchmarking.
    """

    records: list = field(default_factory=list)

    def append(self, rec: TraceRecord) -> None:
        if self.records and rec.tau != self.records[-1].tau + 1:
            raise ConstraintError("trace tau must increase by 1")
        self.records.append(rec)

    def to_csv_text(self) -> str:
        lines = [TRACE_HEADER]
        for r in self.records:
            lines.append(",".join([
                str(r.tau), _cell(r.elbo), _cell(r.log_evidence), _cell(r.gap),
                _cell(r.filter_l1), str(r.psi_updates), str(r.theta_updates),
                str(r.stalls), "0",
            ]))
        return "\n".join(lines) + "\n"


@dataclass
class LearnerState:
    """Mutable stream state: the settings (schedule, family, init_rule) and
    what is carried from one ingest to the next, hmm (the current model, mu
    and parameters), history (the belief rows), summaries (the record of
    the newest time step, None before the first), observations and
    stalls_total.  With the settings, these values alone determine every
    later ingest; no oracle state lives here."""

    hmm: GenerativeHMM
    schedule: Schedule
    family: MfaFamily = MfaFamily.REVERSED
    init_rule: str = "prediction"
    history: Optional[MfaHistory] = None
    summaries: Optional[elbo_mod.ElboSummaries] = None
    observations: list = field(default_factory=list)
    stalls_total: int = 0

    @property
    def tau(self) -> int:
        return len(self.observations)

    @property
    def params(self) -> ModelParams:
        return self.hmm.params


def init_learner(params: ModelParams, mu, schedule: Schedule,
                 family: MfaFamily = MfaFamily.REVERSED,
                 init_rule: str = "prediction") -> LearnerState:
    if init_rule not in INIT_RULES:
        raise ConstraintError(f"unknown init_rule {init_rule!r}")
    hmm = build_hmm(mu, params)
    if not (hmm.mu > 0.0).all():
        # beliefs put mass on every state: the objective would be -inf
        raise ConstraintError("the learner needs every mu entry > 0")
    return LearnerState(hmm=hmm, schedule=schedule, family=family,
                        init_rule=init_rule)


def _psi_phase(state: LearnerState, o: int) -> tuple:
    """Ascent from the new snapshot's starting rows, given the record of
    tau - 1 (None at tau = 1): mfa.start_rows, or the first row alone.
    Stores the ascended rows with one check and one write, and returns
    (rows, applied, stalled)."""
    sched, prev, hmm = state.schedule, state.summaries, state.hmm
    if prev is not None:
        x = start_rows(state.history, state.init_rule, hmm, prev.pi)
        if not np.isfinite(x[1]).all():
            raise ConstraintError(
                "the prediction row has a zero entry, from an exact 0 in the "
                f"transition matrix B: theta_step = {sched.theta_step!r} "
                "drove its logits out of range")
    elif state.init_rule == "prediction":
        logits = np.log(hmm.mu)
        x = (logits - logits[0])[None, :]
    else:
        x = np.zeros((1, hmm.K))
    W, G = elbo_mod.step_inputs(hmm, prev, o)
    x, applied, stalled = kernel.psi_ascent(
        x, W, G, sched.psi_updates_per_obs, sched.psi_step)
    if prev is None:
        state.history = MfaHistory(x[0])
    else:
        state.history.append_snapshot(x)
    return x, applied, stalled


def _theta_phase(state: LearnerState, o: int, theta: np.ndarray,
                 g: np.ndarray, pa: Optional[np.ndarray],
                 pb: np.ndarray) -> tuple:
    """Ascent on the flat parameters theta using the just-updated beliefs
    pa (None at tau = 1) and pb; the carried gradient g is fixed, the fresh
    final-step part tracks the moving parameters.  Returns (hmm, applied,
    stalled): the parameters are checked and the model rebuilt once, when
    the loop exits, and only when a step was applied."""
    sched, hmm = state.schedule, state.hmm
    if sched.theta_updates_per_obs == 0:
        return hmm, 0, False
    theta, applied, stalled = kernel.theta_ascent(
        theta, g, pa, pb, o - 1, sched.theta_updates_per_obs,
        sched.theta_step / state.tau)
    if applied:
        hmm = rebuild_hmm(hmm, *kernel.theta_rows(theta, hmm.K, hmm.M))
    return hmm, applied, stalled


def ingest(state: LearnerState, observation: int) -> TraceRecord:
    """Consume one observation: update beliefs from the snapshot's starting
    rows and store them, normalise them once, update parameters, refresh
    summaries, record.

    The observation must be an integer (a Python or numpy one, not a bool)
    in 1..M; anything else raises ConstraintError before the state changes.
    All or nothing: the observation and the history's newest rows are
    written as the call goes; the model, summaries and stall count are
    stored once, after the last step that can fail; oracle columns are None.
    When a step fails, the observation and the rows are dropped and the
    error is raised again: a ConstraintError with the failing tau
    prepended to its message, any other error unchanged.
    """
    t_start = time.perf_counter()
    if isinstance(observation, bool) \
            or not isinstance(observation, numbers.Integral):
        raise ConstraintError(
            f"observation {observation!r} is not an integer at "
            f"tau={state.tau + 1}")
    o = int(observation)
    if not 1 <= o <= state.hmm.M:
        raise ConstraintError(
            f"observation {o} out of range 1..{state.hmm.M} at tau={state.tau + 1}")
    prev = state.summaries
    state.observations.append(o)
    try:
        x, psi_applied, psi_stalled = _psi_phase(state, o)
        # the one normalisation pass: the rows psi wrote, (revision of
        # tau - 1, current of tau) or the one row at tau = 1
        p, log_p = softmax_and_log(x)
        pa = None if prev is None else p[0]
        theta = elbo_mod.params_vector(state.hmm.params)
        if prev is None:
            g = np.zeros_like(theta)
        else:
            # at theta_{tau-1}, with the belief of tau - 1 now final
            g = elbo_mod.carried_gradient(prev, pa, theta,
                                          state.observations[-2])
        hmm, theta_applied, theta_stalled = _theta_phase(state, o, theta, g,
                                                         pa, p[-1])
        if prev is None:
            summaries = elbo_mod.base_summaries(hmm, p[0], log_p[0], o)
        else:
            summaries = elbo_mod.step_summaries(prev, hmm, o, p, log_p, g)
        elbo_value = elbo_mod.finish(summaries)
    except ConstraintError as exc:
        _roll_back(state)
        raise ConstraintError(f"ingest failed at tau={state.tau + 1}: {exc}") from exc
    except Exception:
        _roll_back(state)
        raise

    stalls = psi_stalled + theta_stalled
    state.hmm, state.summaries = hmm, summaries
    state.stalls_total += stalls
    wall_ms = (time.perf_counter() - t_start) * 1000.0
    return TraceRecord(tau=state.tau, elbo=elbo_value, log_evidence=None,
                       gap=None, filter_l1=None, psi_updates=psi_applied,
                       theta_updates=theta_applied, stalls=stalls,
                       wall_ms=wall_ms)


def _roll_back(state: LearnerState) -> None:
    """Undo a failed ingest: drop its observation and the snapshot it
    appended; nothing else was stored."""
    state.observations.pop()
    if not state.observations:
        state.history = None
    elif state.history.horizon > state.tau:
        state.history.drop_newest()


def self_audit(state: LearnerState, rec: TraceRecord) -> TraceRecord:
    """The self oracle: rec with the exact filter (O(log tau) vectorised
    steps) and objective (one pass) at the current model; gap >= 0."""
    marg, log_evidence = tree_filter(state.hmm, state.observations)
    exact, _ = elbo_mod.elbo_recursive(state.hmm, state.history,
                                       state.observations)
    return replace(rec, elbo=exact, log_evidence=log_evidence,
                   gap=log_evidence - exact,
                   filter_l1=float(np.abs(state.summaries.pi - marg).sum()))


def reference_filter(reference: GenerativeHMM):
    """The reference oracle: an audit carrying the exact filter of the fixed
    model reference, O(K^2) per step.  Its evidence does not bound the
    learner's objective, so gap stays None."""
    pred, log_z = reference.mu.copy(), 0.0

    def audit(state: LearnerState, rec: TraceRecord) -> TraceRecord:
        nonlocal pred, log_z
        w = pred * reference.A[:, state.observations[-1] - 1]
        c = float(w.sum())
        if not c > 0.0:
            raise ConstraintError("the observation has zero probability "
                                  "under the reference model")
        marg = w / c
        log_z += float(np.log(c))
        pred = reference.B.T @ marg
        return replace(rec, log_evidence=log_z,
                       filter_l1=float(np.abs(state.summaries.pi - marg).sum()))
    return audit


@dataclass
class RunResult:
    trace: StreamTrace
    state: LearnerState
    oracle_mode: str


def run_stream(initial_params: ModelParams, mu, source: Iterable[int],
               schedule: Schedule, oracle_mode: str = "off",
               family: MfaFamily = MfaFamily.REVERSED,
               init_rule: str = "prediction",
               reference: Optional[GenerativeHMM] = None) -> RunResult:
    """Fold a whole observation source; deterministic given the source and
    schedule.  oracle_mode "self" runs self_audit after each ingest and
    "reference" the reference_filter of reference; an audit's ConstraintError
    is raised as "oracle failed at tau=N: ...".  An empty source yields an
    empty trace."""
    if oracle_mode not in ("off", "self", "reference"):
        raise ConstraintError("oracle_mode must be off, self or reference")
    if oracle_mode == "reference" and reference is None:
        raise ConstraintError("reference oracle mode needs a reference model")
    audit = (reference_filter(reference) if oracle_mode == "reference"
             else self_audit if oracle_mode == "self" else None)
    state = init_learner(initial_params, mu, schedule, family=family,
                         init_rule=init_rule)
    trace = StreamTrace()
    for obs in source:
        rec = ingest(state, obs)
        if audit is not None:
            try:
                rec = audit(state, rec)
            except ConstraintError as exc:
                raise ConstraintError(
                    f"oracle failed at tau={rec.tau}: {exc}") from exc
        trace.append(rec)
    return RunResult(trace=trace, state=state, oracle_mode=oracle_mode)


def summary_dict(result: RunResult) -> dict:
    """Deterministic end-of-run summary: final parameters, final history
    snapshot and aggregate metrics."""
    state, trace = result.state, result.trace
    n = len(trace.records)
    out = {
        "tau": state.tau,
        "family": state.family.value,
        "oracle_mode": result.oracle_mode,
        "final_params": {
            "alpha_tilde": [[float(x) for x in r] for r in state.params.alpha_tilde],
            "beta_tilde": [[float(x) for x in r] for r in state.params.beta_tilde],
        },
        "final_A": [[float(x) for x in r] for r in state.hmm.A],
        "final_B": [[float(x) for x in r] for r in state.hmm.B],
        "history": state.history.to_dict() if state.history is not None else None,
        "metrics": {
            "stalls": state.stalls_total,
            "final_elbo": trace.records[-1].elbo if n else None,
            "final_avg_vfe": (-trace.records[-1].elbo / state.tau) if n else None,
        },
    }
    l1 = [r.filter_l1 for r in trace.records if r.filter_l1 is not None]
    if l1:
        tail = l1[-1000:]
        out["metrics"]["mean_filter_l1_tail"] = float(np.mean(tail))
    gaps = [r.gap for r in trace.records if r.gap is not None]
    if gaps:
        out["metrics"]["min_gap"] = float(min(gaps))
    return out


# 8! = 40320 relabelings take about a second (0.8 s on one x86_64 core);
# 9! would take nine times that
ALIGN_MAX_K = 8


def align_states(A_hat, B_hat, A_true, B_true) -> tuple:
    """Best state relabeling by total variation.

    Returns (permutation, max_row_tv) where permutation maps true index i to
    estimated index perm[i], and max_row_tv is the largest half-L1 row
    distance across both matrices after relabeling.  Every one of the K!
    relabelings is tried, so K above ALIGN_MAX_K raises ConstraintError
    before any is.
    """
    A_hat, B_hat = np.asarray(A_hat), np.asarray(B_hat)
    A_true, B_true = np.asarray(A_true), np.asarray(B_true)
    K = A_true.shape[0]
    if K > ALIGN_MAX_K:
        raise ConstraintError(
            f"align_states tries all K! state relabelings; K = {K} is above "
            f"{ALIGN_MAX_K}")
    best = None
    for perm in itertools.permutations(range(K)):
        p = list(perm)
        a_tv = 0.5 * np.abs(A_hat[p, :] - A_true).sum(axis=1)
        b_tv = 0.5 * np.abs(B_hat[np.ix_(p, p)] - B_true).sum(axis=1)
        total = float(a_tv.sum() + b_tv.sum())
        worst = float(max(a_tv.max(), b_tv.max()))
        if best is None or total < best[0]:
            best = (total, perm, worst)
    return best[1], best[2]
