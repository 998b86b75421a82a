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

The parameter gradient folds the same way through a K x dim(theta) matrix U
whose carried part is averaged at the summed-over previous state, mirroring
V.

Cost per fold step is O(K^2 * dim(theta)), independent of tau, which is the
whole point: the learner carries (V, U) across observations instead of
recomputing the fold.  The fold step's arithmetic lives in kernel.fold_step;
the functions here check the horizon and the observation around it, and
recompute everything from scratch as the audit path.  The audit objective
needs no U, so elbo_recursive sums V's per-time terms in one vectorized
pass; the step loop (scratch_summaries) remains for grad_theta's U rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (
    ConstraintError,
    GenerativeHMM,
    ModelParams,
    StateSpace,
    _check_values,
    log_softmax,
    log_softmax_row,
)
from .kernel import fold_step, u_fresh
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


def apply_theta_step(params: ModelParams, grad: ThetaGrad, step: float) -> ModelParams:
    # pinned columns are zero in the gradient, so pinning is preserved exactly
    return ModelParams(alpha_tilde=params.alpha_tilde + step * grad.dalpha,
                       beta_tilde=params.beta_tilde + step * grad.dbeta)


# -- carried summaries --------------------------------------------------------

@dataclass(frozen=True)
class ElboSummaries:
    """The (V, U) pair at time t, carried between time steps by the
    streaming learner: the K-vector V and K rows U of dense theta
    gradients."""

    v: np.ndarray
    u: np.ndarray  # (K, K*M + K*K)
    t: int


def base_summaries(hmm: GenerativeHMM, history: MfaHistory, o1: int) -> ElboSummaries:
    """Summaries at t = 1 for observation value o1 (1-based)."""
    o_idx = int(o1) - 1
    if not 0 <= o_idx < hmm.M:
        raise ConstraintError(f"observation values must lie in 1..{hmm.M}")
    log_pi1 = log_softmax_row(history.superseded_logits(1))
    v = hmm.log_mu() + hmm.log_A[:, o_idx] - log_pi1
    # no transition precedes time 1: zero weights leave the emission rows
    u = u_fresh(hmm.A, hmm.B, np.zeros(hmm.K), o_idx)
    return ElboSummaries(v=v, u=u, t=1)


def _step_blocks(history: MfaHistory, t: int) -> tuple:
    """(log revision marginal, log current marginal, log superseded
    marginal of t-1) for fold step t >= 2."""
    prev_rev, curr = history._snapshots[t - 1]
    # history blocks are validated when they are stored
    return tuple(log_softmax(np.array(
        [prev_rev, curr, history.superseded_logits(t - 1)])))


def step_summaries(prev: ElboSummaries, hmm: GenerativeHMM, history: MfaHistory,
                   t: int, o_t: int) -> ElboSummaries:
    """One fold step: advance (V, U) from time t-1 to time t."""
    if prev.t != t - 1:
        raise ConstraintError(f"summaries are at t = {prev.t}, expected {t - 1}")
    o_idx = int(o_t) - 1
    if not 0 <= o_idx < hmm.M:
        raise ConstraintError(f"observation values must lie in 1..{hmm.M}")
    v, u = fold_step(prev.v, prev.u, *_step_blocks(history, t),
                     hmm.A, hmm.B, hmm.log_A, hmm.log_B, o_idx)
    return ElboSummaries(v=v, u=u, t=t)


def streaming_update_summaries(prev: ElboSummaries, observation: int,
                               hmm: GenerativeHMM, history: MfaHistory) -> ElboSummaries:
    """Advance carried summaries to the history's current horizon.

    The history must already hold the (final) snapshot for the new time
    step; the result is bit-identical to recomputing the whole fold as long
    as theta and the frozen blocks are unchanged, because it is the same
    step function applied once.
    """
    return step_summaries(prev, hmm, history, history.horizon, observation)


def finish(summaries: ElboSummaries, history: MfaHistory) -> float:
    """Contract a summary against the newest marginal: L = pi_tau . V_tau."""
    if summaries.t != history.horizon:
        raise ConstraintError("summaries are not at the current horizon")
    return float(history.belief(history.horizon) @ summaries.v)


def scratch_summaries(hmm: GenerativeHMM, history: MfaHistory,
                      observations: Sequence[int]) -> ElboSummaries:
    """Recompute the whole fold from t = 1 at the current parameters."""
    o = _check_values(observations, hmm.M, "observation")
    if o.shape[0] != history.horizon:
        raise ConstraintError("need exactly one observation per time step")
    s = base_summaries(hmm, history, int(o[0]) + 1)
    for t in range(2, history.horizon + 1):
        s = step_summaries(s, hmm, history, t, int(o[t - 1]) + 1)
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
    o = _check_values(observations, hmm.M, "observation")
    if o.shape[0] != history.horizon:
        raise ConstraintError("need exactly one observation per time step")
    snapshots = history._snapshots
    # row t - 1 is ln curr_t, and ln sup_{t+1} too
    log_curr = log_softmax(np.array([curr for _, curr in snapshots]))
    f = hmm.log_A[:, o].T - log_curr
    f[0] += hmm.log_mu()
    b = 0.0
    if len(snapshots) > 1:
        log_w = log_softmax(np.array([rev for rev, _ in snapshots[1:]]))
        w = np.exp(log_w)
        f[1:] += w @ hmm.log_B
        b = float(np.sum(w * (f[:-1] + log_curr[:-1] - log_w)))
    return b + float(history.belief(history.horizon) @ f[-1]), b + f[-1]


def grad_theta(hmm: GenerativeHMM, history: MfaHistory,
               observations: Sequence[int]) -> ThetaGrad:
    """Exact parameter gradient of elbo_recursive at the current theta."""
    s = scratch_summaries(hmm, history, observations)
    dense = history.belief(history.horizon) @ s.u
    K, M = hmm.K, hmm.M
    return ThetaGrad(dalpha=dense[: K * M].reshape(K, M),
                     dbeta=dense[K * M:].reshape(K, K))


def local_psi_gradient(W: np.ndarray, G: np.ndarray, rho_prev: np.ndarray,
                       rho_curr: np.ndarray) -> tuple:
    """Gradient of pi_a . (W - ln pi_a) + pi_a G pi_b + H[pi_b] over the two
    pinned logit blocks, with everything older held fixed."""
    log_pa = log_softmax_row(rho_prev)
    log_pb = log_softmax_row(rho_curr)
    pa, pb = np.exp(log_pa), np.exp(log_pb)
    ca = W + G @ pb - log_pa
    ga = pa * (ca - float(pa @ ca))
    cb = G.T @ pa - log_pb
    gb = pb * (cb - float(pb @ cb))
    ga[0] = 0.0
    gb[0] = 0.0
    return ga, gb


def local_psi_gradient_first(base_log: np.ndarray, rho1: np.ndarray) -> np.ndarray:
    """Horizon-1 case: gradient of pi . (base_log - ln pi) over the single
    block."""
    log_p = log_softmax_row(rho1)
    p = np.exp(log_p)
    c = base_log - log_p
    g = p * (c - float(p @ c))
    g[0] = 0.0
    return g


def local_elbo(W: np.ndarray, G: np.ndarray, rho_prev: np.ndarray,
               rho_curr: np.ndarray) -> float:
    """The objective the local gradients ascend."""
    log_pa = log_softmax_row(rho_prev)
    log_pb = log_softmax_row(rho_curr)
    pa, pb = np.exp(log_pa), np.exp(log_pb)
    return float(pa @ (W - log_pa) + pa @ G @ pb - pb @ log_pb)


def local_elbo_first(base_log: np.ndarray, rho1: np.ndarray) -> float:
    """Horizon-1 counterpart of local_elbo: pi . (base_log - ln pi)."""
    log_p = log_softmax_row(rho1)
    p = np.exp(log_p)
    return float(p @ (base_log - log_p))


def step_inputs(hmm: GenerativeHMM, v_prev: np.ndarray, history: MfaHistory,
                o_t: int) -> tuple:
    """(W, G) for the final fold step at the current horizon.

    W folds the carried V with the superseded log marginal it is always
    paired with; G is the fresh transition-plus-emission table.
    """
    o_idx = int(o_t) - 1
    log_sup = log_softmax_row(history.superseded_logits(history.horizon - 1))
    W = v_prev + log_sup
    G = hmm.log_B + hmm.log_A[:, o_idx][None, :]
    return W, G


def grad_psi(hmm: GenerativeHMM, history: MfaHistory,
             observations: Sequence[int]) -> np.ndarray:
    """Gradient over the free coordinates of the newest snapshot's blocks:
    the revision block's then the current block's, each without its pinned
    first entry (2K - 2 of them, K - 1 at horizon 1).

    The carried V through time tau - 1 does not depend on those blocks, so
    only the final fold step differentiates; frozen-block coordinates are
    not emitted at all.
    """
    o = _check_values(observations, hmm.M, "observation")
    if o.shape[0] != history.horizon:
        raise ConstraintError("need exactly one observation per time step")
    if history.horizon == 1:
        base = hmm.log_mu() + hmm.log_A[:, o[0]]
        return local_psi_gradient_first(base, history.superseded_logits(1))[1:]
    prefix = history_prefix(history)
    _, v = elbo_recursive(hmm, prefix, o[:-1] + 1)
    W, G = step_inputs(hmm, v, history, int(o[-1]) + 1)
    rho_prev, rho_curr = history.updatable_logits()
    ga, gb = local_psi_gradient(W, G, rho_prev, rho_curr)
    return np.concatenate([ga[1:], gb[1:]])


def history_prefix(history: MfaHistory) -> MfaHistory:
    """A horizon tau - 1 view sharing the frozen snapshots.

    The newest snapshot is dropped; the time tau - 1 belief reverts to the
    snapshot tau - 1 block, which is exactly the state before augmentation.
    """
    if history.horizon < 2:
        raise ConstraintError("no prefix below horizon 1")
    prefix = MfaHistory.__new__(MfaHistory)
    prefix._snapshots = history._snapshots[:-1]
    return prefix
