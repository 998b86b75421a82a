"""Recursive evaluation of the streaming objective and its gradients.

For a history at horizon tau with final per-time marginals pi_1, ..., pi_tau
(the product the state encodes), the objective is

    L_tau = E_q[ln p(s_{1:tau}, o_{1:tau}) - ln q(s_{1:tau})].

It folds left to right through a carried K-vector V:

    V_1(l)  = ln mu(l) + ln A[l][o_1] - ln pi_1(l)
    V_t(l)  = sum_k w_t(k) [ V_{t-1}(k) + ln B[k][l] + ln A[l][o_t]
                             - ln m_t(l | k) ]
    L_tau   = sum_l pi_tau(l) V_tau(l)

where w_t is the snapshot-t revision marginal and m_t the extension factor.
The - ln pi_1 term in the base case is what makes the fold equal the exact
expectation above: every later - ln q factor is carried by - ln m_t, and the
first marginal's own log term has nowhere else to live (dropping it shifts
the total by exactly E_q[ln pi_1]).  This is verified against brute-force
summation in the tests.

The parameter gradient is carried as one vector g in the kernel's flat theta
layout: g_t is the theta gradient of every term before time t, each at the
parameters it was folded in with and at its final beliefs.  Time t's terms
depend on the beliefs of t - 1 and t only, so g_1 = 0 and

    g_{t+1} = kernel.theta_gradient(g_t, pi_{t-1}, pi_t, o_t)(theta).

g_{t+1} needs pi_t final, so the learner advances g in the ingest of t + 1,
after its psi phase and before its theta phase, which steps along
theta_gradient(g_tau, pi_{tau-1}, pi_tau, o_tau).

Cost per fold step is O(K^2 + dim(theta)), independent of tau, which is the
whole point: the learner carries (V, g) across observations instead of
recomputing the fold.  The fold step's arithmetic lives in kernel.fold_step;
the step functions here check the time step and the observation around it
and take the final marginals they need as arrays, not the history: the
learner passes the ones its one normalisation pass per ingest gave.  The
audit path recomputes everything from scratch.  It reads the history as
its array of rows (MfaHistory.rows, the checkpoint's layout):
scratch_summaries, grad_psi and grad_theta normalise every row in one call
and feed the same step functions, and grad_psi and grad_theta evaluate the
kernel's gradients, the ones the learner ascends, at inputs refolded
exactly from those rows.  elbo_recursive takes the snapshot rows and the
revision rows as two strided arrays and sums V's per-time terms in one
pass, with no g.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import (
    ConstraintError,
    GenerativeHMM,
    ModelParams,
    StateSpace,
    _check_values,
    log_softmax,
    softmax_and_log,
)
from . import kernel
from .kernel import fold_step
from .mfa import MfaHistory


# -- gradient containers ------------------------------------------------------

@dataclass(frozen=True)
class ThetaGrad:
    """Dense parameter gradient with pinned coordinates identically zero."""

    dalpha: np.ndarray  # (K, M)
    dbeta: np.ndarray   # (K, K)

    def free_vector(self) -> np.ndarray:
        return np.concatenate([self.dalpha[:, 1:].ravel(),
                               self.dbeta[:, 1:].ravel()])


def params_free_vector(params: ModelParams) -> np.ndarray:
    return np.concatenate([params.alpha_tilde[:, 1:].ravel(),
                           params.beta_tilde[:, 1:].ravel()])


def params_vector(params: ModelParams) -> np.ndarray:
    """The kernel's flat theta: [alpha_tilde.ravel(), beta_tilde.ravel()]."""
    return np.concatenate([params.alpha_tilde.ravel(),
                           params.beta_tilde.ravel()])


def params_from_free(space: StateSpace, vec: np.ndarray) -> ModelParams:
    K, M = space.K, space.M
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (K * (M - 1) + K * (K - 1),):
        raise ConstraintError("free vector has wrong length")
    at = np.zeros((K, M))
    bt = np.zeros((K, K))
    na = K * (M - 1)
    if M > 1:
        at[:, 1:] = vec[:na].reshape(K, M - 1)
    if K > 1:
        bt[:, 1:] = vec[na:].reshape(K, K - 1)
    return ModelParams(alpha_tilde=at, beta_tilde=bt)


# -- carried summaries --------------------------------------------------------

@dataclass(frozen=True)
class ElboSummaries:
    """The summaries at time t, carried between time steps by the streaming
    learner: the K-vector V and g, the flat theta gradient of every term
    before time t (zero at t = 1)."""

    v: np.ndarray
    g: np.ndarray  # (K*M + K*K,)
    t: int


def base_summaries(hmm: GenerativeHMM, log_pi1: np.ndarray,
                   o1: int) -> ElboSummaries:
    """Summaries at t = 1 for observation value o1 (1-based), given the log
    marginal ln pi_1."""
    o_idx = int(o1) - 1
    if not 0 <= o_idx < hmm.M:
        raise ConstraintError(f"observation values must lie in 1..{hmm.M}")
    v = hmm.log_mu() + hmm.log_A[:, o_idx] - log_pi1
    return ElboSummaries(v=v, g=np.zeros(hmm.K * hmm.M + hmm.K * hmm.K), t=1)


def carried_gradient(prev: ElboSummaries, pa: Optional[np.ndarray],
                     pb: np.ndarray, theta: np.ndarray,
                     o_prev: int) -> np.ndarray:
    """g at time prev.t + 1: prev.g plus the gradient of time prev.t's
    terms at the flat theta, given that time's observation value o_prev
    (1-based) and the final marginals pa of prev.t - 1 (None at
    prev.t = 1) and pb of prev.t."""
    return kernel.theta_gradient(prev.g, pa, pb, int(o_prev) - 1)(theta)


def step_summaries(prev: ElboSummaries, hmm: GenerativeHMM, t: int, o_t: int,
                   log_w: np.ndarray, log_curr: np.ndarray,
                   log_sup: np.ndarray, g: np.ndarray) -> ElboSummaries:
    """One fold step: advance V from time t-1 to time t, and take g, the
    carried gradient at time t.  log_w, log_curr and log_sup are the log
    marginals of the step: the revision of t - 1, the current row of t and
    the superseded row of t - 1."""
    if prev.t != t - 1:
        raise ConstraintError(f"summaries are at t = {prev.t}, expected {t - 1}")
    o_idx = int(o_t) - 1
    if not 0 <= o_idx < hmm.M:
        raise ConstraintError(f"observation values must lie in 1..{hmm.M}")
    v = fold_step(prev.v, log_w, log_curr, log_sup, hmm.log_A, hmm.log_B, o_idx)
    return ElboSummaries(v=v, g=g, t=t)


def streaming_update_summaries(prev: ElboSummaries, observation: int,
                               hmm: GenerativeHMM, log_w: np.ndarray,
                               log_curr: np.ndarray, log_sup: np.ndarray,
                               g: np.ndarray) -> ElboSummaries:
    """Advance carried summaries one time step, to prev.t + 1, given that
    step's final log marginals (as step_summaries takes them).

    The result is bit-identical to recomputing the whole fold as long as
    theta and the frozen blocks are unchanged, because it is the same step
    function applied once.
    """
    return step_summaries(prev, hmm, prev.t + 1, observation, log_w, log_curr,
                          log_sup, g)


def finish(summaries: ElboSummaries, pi: np.ndarray) -> float:
    """Contract a summary against the newest marginal: L = pi_tau . V_tau."""
    return float(pi @ summaries.v)


def _checked_observations(hmm: GenerativeHMM, history: MfaHistory,
                           observations: Sequence[int]) -> np.ndarray:
    """0-based observations, one per time step of the history."""
    o = _check_values(observations, hmm.M, "observation")
    if o.shape[0] != history.horizon:
        raise ConstraintError("need exactly one observation per time step")
    return o


def _fold(hmm: GenerativeHMM, p: np.ndarray, log_p: np.ndarray,
          o: np.ndarray) -> ElboSummaries:
    """The fold from t = 1 at the current parameters, over the marginals p
    and log marginals log_p of the stored rows (MfaHistory.rows' layout)
    for the 1-based observations o, one per time step."""
    theta = params_vector(hmm.params)
    s = base_summaries(hmm, log_p[0], int(o[0]))
    for t in range(2, o.shape[0] + 1):
        g = carried_gradient(s, p[2 * t - 5] if t > 2 else None, p[2 * t - 3],
                             theta, int(o[t - 2]))
        s = step_summaries(s, hmm, t, int(o[t - 1]), log_p[2 * t - 3],
                           log_p[2 * t - 2], log_p[2 * t - 4], g)
    return s


def scratch_summaries(hmm: GenerativeHMM, history: MfaHistory,
                      observations: Sequence[int]) -> ElboSummaries:
    """Recompute the whole fold from t = 1 at the current parameters, with
    every stored row normalised in one pass."""
    o = _checked_observations(hmm, history, observations) + 1
    return _fold(hmm, *softmax_and_log(history.rows), o)


# -- public objective and gradients -------------------------------------------

def elbo_recursive(hmm: GenerativeHMM, history: MfaHistory,
                   observations: Sequence[int]) -> tuple:
    """(objective at the current horizon, V_tau) in one vectorized pass.

    V_t = b_t + f_t with f_1 = ln mu + ln A[:, o_1] - ln pi_1 and
    f_t = w_t @ ln B + ln A[:, o_t] - ln curr_t; as w_t sums to one, the
    scalar b_tau = sum_{t>=2} w_t . (f_{t-1} + ln sup_t - ln w_t), and
    L = b_tau + pi_tau . f_tau.
    """
    o = _checked_observations(hmm, history, observations)
    # the snapshot rows: row t - 1 is ln curr_t, and ln sup_{t+1} too
    log_curr = log_softmax(history.rows[0::2])
    f = hmm.log_A[:, o].T - log_curr
    f[0] += hmm.log_mu()
    b = 0.0
    if history.horizon > 1:
        log_w = log_softmax(history.rows[1::2])
        w = np.exp(log_w)
        f[1:] += w @ hmm.log_B
        b = float(np.sum(w * (f[:-1] + log_curr[:-1] - log_w)))
    return b + float(history.belief(history.horizon) @ f[-1]), b + f[-1]


def step_inputs(hmm: GenerativeHMM, prev: Optional[ElboSummaries],
                log_sup: Optional[np.ndarray], o_t: int) -> tuple:
    """(W, G) for kernel.psi_gradient at the current horizon: W folds the V
    of prev, the summaries at tau - 1, with log_sup, the superseded log
    marginal of tau - 1; G is the fresh transition-plus-emission table.  At
    horizon 1 (prev and log_sup None) W is ln mu + ln A[:, o] and G is
    None."""
    o_idx = int(o_t) - 1
    if prev is None:
        return hmm.log_mu() + hmm.log_A[:, o_idx], None
    W = prev.v + log_sup
    G = hmm.log_B + hmm.log_A[:, o_idx][None, :]
    return W, G


def grad_theta(hmm: GenerativeHMM, history: MfaHistory,
               observations: Sequence[int]) -> ThetaGrad:
    """Exact parameter gradient of elbo_recursive at the current theta:
    kernel.theta_gradient at the g of scratch_summaries."""
    o = _checked_observations(hmm, history, observations) + 1
    p, log_p = softmax_and_log(history.rows)
    s = _fold(hmm, p, log_p, o)
    gradient = kernel.theta_gradient(s.g, p[-2] if history.horizon > 1
                                     else None, p[-1], int(o[-1]) - 1)
    dense = gradient(params_vector(hmm.params))
    return ThetaGrad(*kernel.theta_rows(dense, hmm.K, hmm.M))


def grad_psi(hmm: GenerativeHMM, history: MfaHistory,
             observations: Sequence[int]) -> np.ndarray:
    """Gradient over the free coordinates of the newest snapshot's rows:
    the revision row's then the current row's, each without its pinned
    first entry (2K - 2 of them, K - 1 at horizon 1).

    The carried V through time tau - 1 does not depend on those rows, so
    only the final fold step differentiates, through kernel.psi_gradient;
    frozen-row coordinates are not emitted at all.
    """
    o = _checked_observations(hmm, history, observations) + 1
    prev = log_sup = None
    if history.horizon > 1:
        # the rows below the newest snapshot's are the prefix at tau - 1
        p, log_p = softmax_and_log(history.rows)
        prev = _fold(hmm, p[:-2], log_p[:-2], o[:-1])
        log_sup = log_p[-3]
    x = history.updatable_logits()
    W, G = step_inputs(hmm, prev, log_sup, int(o[-1]))
    g = kernel.psi_gradient(W, G, *x.shape)(x.ravel())
    return g.reshape(x.shape)[:, 1:].ravel()
