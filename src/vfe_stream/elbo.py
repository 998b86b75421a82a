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
whole point: the learner carries the summaries across observations instead
of recomputing the fold.  What it carries is one record, ElboSummaries: V_t
and g_t with the final marginals of the rows written at t, pi_{t-1}, pi_t
and ln pi_t; t itself is the number of observations, held by the caller.
The next step reads everything it needs of time t from that record: the
augmentation predicts from pi_t, the psi phase and the fold read ln pi_t as
the superseded log marginal, and the g carry reads pi_{t-1}.  The fold step
(step_summaries) is the V recursion above, written once.  The parameter
layout, theta and its gradient, is the kernel's.  The step functions
(step_inputs, carried_gradient, base_summaries, step_summaries, finish) take
the record and the marginals of the newest rows as arrays, never the
history, and the live learner and the audit fold call the same ones.  The
audit path recomputes everything from scratch.  It reads the history as its
array of rows (MfaHistory.rows, the checkpoint's layout):
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
    _check_values,
    log_softmax,
    softmax_and_log,
)
from . import kernel
from .mfa import MfaHistory


# -- carried summaries --------------------------------------------------------

@dataclass(frozen=True)
class ElboSummaries:
    """The one record the streaming learner carries from time t to t + 1:
    the summaries at time t and the final marginals of the rows written at
    t.  v is V_t; g (K*M + K*K,) the flat theta gradient of every term
    before time t (zero at t = 1); pi_prev is pi_{t-1}, the marginal of the
    revision row (None at t = 1); pi and log_pi are pi_t and ln pi_t, the
    marginal of the row for time t, which step t + 1 reads as the
    superseded marginal of t."""

    v: np.ndarray
    g: np.ndarray
    pi_prev: Optional[np.ndarray]
    pi: np.ndarray
    log_pi: np.ndarray


def _observation_index(hmm: GenerativeHMM, o: int) -> int:
    o_idx = int(o) - 1
    if not 0 <= o_idx < hmm.M:
        raise ConstraintError(f"observation values must lie in 1..{hmm.M}")
    return o_idx


def base_summaries(hmm: GenerativeHMM, p: np.ndarray, log_p: np.ndarray,
                   o: int) -> ElboSummaries:
    """The record at t = 1 for observation value o (1-based), given the
    marginal p = pi_1 and its log."""
    v = hmm.log_mu() + hmm.log_A[:, _observation_index(hmm, o)] - log_p
    return ElboSummaries(v=v, g=np.zeros(hmm.K * hmm.M + hmm.K * hmm.K),
                         pi_prev=None, pi=p, log_pi=log_p)


def carried_gradient(prev: ElboSummaries, pb: np.ndarray, theta: np.ndarray,
                     o_prev: int) -> np.ndarray:
    """g at time t + 1, for prev the record at t: prev.g plus the gradient
    of time t's terms at the flat theta, given that time's observation
    value o_prev (1-based), its final marginal pb (the revision written at
    t + 1) and prev.pi_prev, the final marginal of t - 1."""
    return kernel.theta_gradient(prev.g, prev.pi_prev, pb,
                                 int(o_prev) - 1)(theta)


def step_summaries(prev: ElboSummaries, hmm: GenerativeHMM, o: int,
                   p: np.ndarray, log_p: np.ndarray,
                   g: np.ndarray) -> ElboSummaries:
    """One fold step: the record at t, for prev the record at t - 1,
    observation value o and g, the carried gradient at t.  p and log_p are
    the (2, K) marginals of the rows written at t, the revision w of t - 1
    and the row for t, and their logs; the superseded log marginal of
    t - 1 is prev.log_pi.  V_t = w . (V_{t-1} + ln sup - ln w)
    + w @ ln B + ln A[:, o] - ln curr, as sum_k w(k) = 1."""
    o_idx = _observation_index(hmm, o)
    w = np.exp(log_p[0])  # not p[0], which can differ in the last bit
    base = float(w @ (prev.v + prev.log_pi - log_p[0]))
    v = base + w @ hmm.log_B + hmm.log_A[:, o_idx] - log_p[1]
    return ElboSummaries(v=v, g=g, pi_prev=p[0], pi=p[1], log_pi=log_p[1])


def finish(s: ElboSummaries) -> float:
    """Contract a record against its newest marginal: L = pi_t . V_t."""
    return float(s.pi @ s.v)


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
    theta = kernel.params_vector(hmm.params)
    s = base_summaries(hmm, p[0], log_p[0], int(o[0]))
    for t in range(2, o.shape[0] + 1):
        rows = slice(2 * t - 3, 2 * t - 1)  # written at t
        g = carried_gradient(s, p[2 * t - 3], theta, int(o[t - 2]))
        s = step_summaries(s, hmm, int(o[t - 1]), p[rows], log_p[rows], g)
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
                o: int) -> tuple:
    """(W, G) for kernel.psi_gradient at the current horizon: W folds the V
    of prev, the record at tau - 1, with its ln pi, the superseded log
    marginal of tau - 1; G is the fresh transition-plus-emission table.  At
    horizon 1 (prev None) W is ln mu + ln A[:, o] and G is None."""
    o_idx = int(o) - 1
    if prev is None:
        return hmm.log_mu() + hmm.log_A[:, o_idx], None
    return prev.v + prev.log_pi, hmm.log_B + hmm.log_A[:, o_idx][None, :]


def grad_theta(hmm: GenerativeHMM, history: MfaHistory,
               observations: Sequence[int]) -> np.ndarray:
    """Exact parameter gradient of elbo_recursive at the current theta, in
    the kernel's flat layout with every pinned entry exactly 0:
    kernel.theta_gradient at the g of scratch_summaries."""
    o = _checked_observations(hmm, history, observations) + 1
    s = _fold(hmm, *softmax_and_log(history.rows), o)
    gradient = kernel.theta_gradient(s.g, s.pi_prev, s.pi, int(o[-1]) - 1)
    return gradient(kernel.params_vector(hmm.params))


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
    prev = None
    if history.horizon > 1:
        # the rows below the newest snapshot's are the prefix at tau - 1
        p, log_p = softmax_and_log(history.rows)
        prev = _fold(hmm, p[:-2], log_p[:-2], o[:-1])
    x = history.updatable_logits()
    W, G = step_inputs(hmm, prev, int(o[-1]))
    g = kernel.psi_gradient(W, G, *x.shape)(x.ravel())
    return g.reshape(x.shape)[:, 1:].ravel()
