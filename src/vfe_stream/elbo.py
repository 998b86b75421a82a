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
the functions here check the horizon and the observation around it, and
recompute everything from scratch as the audit path.  They read the
history as its array of rows (MfaHistory.rows, the checkpoint's layout):
elbo_recursive takes the snapshot rows and the revision rows as two
strided arrays and sums V's per-time terms in one pass, with no g.
grad_psi and grad_theta evaluate the kernel's gradients, the ones the
learner ascends, at inputs refolded exactly from the history.
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


def base_summaries(hmm: GenerativeHMM, history: MfaHistory, o1: int) -> ElboSummaries:
    """Summaries at t = 1 for observation value o1 (1-based)."""
    o_idx = int(o1) - 1
    if not 0 <= o_idx < hmm.M:
        raise ConstraintError(f"observation values must lie in 1..{hmm.M}")
    log_pi1 = log_softmax(history.superseded_logits(1))
    v = hmm.log_mu() + hmm.log_A[:, o_idx] - log_pi1
    return ElboSummaries(v=v, g=np.zeros(hmm.K * hmm.M + hmm.K * hmm.K), t=1)


def carried_gradient(prev: ElboSummaries, history: MfaHistory,
                     theta: np.ndarray, o_prev: int) -> np.ndarray:
    """g at time prev.t + 1: prev.g plus the gradient of time prev.t's
    terms at the flat theta, given that time's observation value o_prev
    (1-based).  The beliefs of prev.t - 1 and prev.t must be final."""
    return kernel.theta_gradient(*theta_inputs(history, prev.t, prev.g),
                                 int(o_prev) - 1)(theta)


def step_summaries(prev: ElboSummaries, hmm: GenerativeHMM, history: MfaHistory,
                   t: int, o_t: int, g: np.ndarray) -> ElboSummaries:
    """One fold step: advance V from time t-1 to time t, and take g, the
    carried gradient at time t."""
    if prev.t != t - 1:
        raise ConstraintError(f"summaries are at t = {prev.t}, expected {t - 1}")
    o_idx = int(o_t) - 1
    if not 0 <= o_idx < hmm.M:
        raise ConstraintError(f"observation values must lie in 1..{hmm.M}")
    # the log revision and current marginals and the superseded one of t-1;
    # history rows are validated when they are stored
    rows = log_softmax(history.rows[[2 * t - 3, 2 * t - 2, 2 * t - 4]])
    v = fold_step(prev.v, *rows, hmm.log_A, hmm.log_B, o_idx)
    return ElboSummaries(v=v, g=g, t=t)


def streaming_update_summaries(prev: ElboSummaries, observation: int,
                               hmm: GenerativeHMM, history: MfaHistory,
                               g: np.ndarray) -> ElboSummaries:
    """Advance carried summaries to the history's current horizon.

    The history must already hold the (final) snapshot for the new time
    step; the result is bit-identical to recomputing the whole fold as long
    as theta and the frozen blocks are unchanged, because it is the same
    step function applied once.
    """
    return step_summaries(prev, hmm, history, history.horizon, observation, g)


def finish(summaries: ElboSummaries, history: MfaHistory) -> float:
    """Contract a summary against the newest marginal: L = pi_tau . V_tau."""
    if summaries.t != history.horizon:
        raise ConstraintError("summaries are not at the current horizon")
    return float(history.belief(history.horizon) @ summaries.v)


def _checked_observations(hmm: GenerativeHMM, history: MfaHistory,
                           observations: Sequence[int]) -> np.ndarray:
    """0-based observations, one per time step of the history."""
    o = _check_values(observations, hmm.M, "observation")
    if o.shape[0] != history.horizon:
        raise ConstraintError("need exactly one observation per time step")
    return o


def scratch_summaries(hmm: GenerativeHMM, history: MfaHistory,
                      observations: Sequence[int]) -> ElboSummaries:
    """Recompute the whole fold from t = 1 at the current parameters."""
    o = _checked_observations(hmm, history, observations) + 1
    theta = params_vector(hmm.params)
    s = base_summaries(hmm, history, int(o[0]))
    for t in range(2, history.horizon + 1):
        g = carried_gradient(s, history, theta, int(o[t - 2]))
        s = step_summaries(s, hmm, history, t, int(o[t - 1]), g)
    return s


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
                history: MfaHistory, o_t: int) -> tuple:
    """(W, G) for kernel.psi_gradient at the current horizon: W folds the V
    of prev, the summaries at tau - 1, with the superseded log marginal; G
    is the fresh transition-plus-emission table.  At horizon 1 (prev None)
    W is ln mu + ln A[:, o] and G is None."""
    o_idx = int(o_t) - 1
    if history.horizon == 1:
        return hmm.log_mu() + hmm.log_A[:, o_idx], None
    log_sup = log_softmax(history.superseded_logits(history.horizon - 1))
    W = prev.v + log_sup
    G = hmm.log_B + hmm.log_A[:, o_idx][None, :]
    return W, G


def theta_inputs(history: MfaHistory, t: int, g: np.ndarray) -> tuple:
    """(g, pa, pb) for kernel.theta_gradient at time t: g carried to t and
    the beliefs of times t - 1 (None at t = 1) and t."""
    return g, history.belief(t - 1) if t > 1 else None, history.belief(t)


def grad_theta(hmm: GenerativeHMM, history: MfaHistory,
               observations: Sequence[int]) -> ThetaGrad:
    """Exact parameter gradient of elbo_recursive at the current theta:
    kernel.theta_gradient at the g of scratch_summaries."""
    s = scratch_summaries(hmm, history, observations)
    gradient = kernel.theta_gradient(*theta_inputs(history, s.t, s.g),
                                     int(observations[-1]) - 1)
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
    o = _checked_observations(hmm, history, observations)
    prev = None
    if history.horizon > 1:
        prev = scratch_summaries(hmm, history.prefix(), o[:-1] + 1)
    x = history.updatable_logits()
    W, G = step_inputs(hmm, prev, history, int(o[-1]) + 1)
    g = kernel.psi_gradient(W, G, *x.shape)(x.ravel())
    return g.reshape(x.shape)[:, 1:].ravel()
