"""Shared fixtures-by-hand for the test modules."""

import numpy as np

from vfe_stream import kernel
from vfe_stream.model import (ConstraintError, ModelParams, StateSpace,
                              _check_values, build_hmm, log_softmax)

BIG = 30.0  # +-30 logits realize near-deterministic rows within 1e-12


def near_identity_params(K: int) -> ModelParams:
    """Square logits whose softmax rows are near point masses on the
    diagonal (exact identity is outside the softmax image)."""
    at = np.full((K, K), -BIG)
    bt = np.full((K, K), -BIG)
    for i in range(K):
        at[i, i] = 0.0 if i == 0 else BIG
        bt[i, i] = 0.0 if i == 0 else BIG
        at[i, 0] = 0.0
        bt[i, 0] = 0.0
    return ModelParams(alpha_tilde=at, beta_tilde=bt)


def random_hmm(K: int, M: int, seed: int, scale: float = 2.0):
    rng = np.random.default_rng(seed)
    mu = rng.dirichlet(np.ones(K))
    return build_hmm(mu, ModelParams.random(StateSpace(K, M), seed=seed, scale=scale))


def random_obs(M: int, tau: int, seed: int) -> list:
    rng = np.random.default_rng(1000 + seed)
    return [int(rng.integers(1, M + 1)) for _ in range(tau)]


def free_theta(params: ModelParams) -> tuple:
    """(x0, free, params_at): the free coordinates of the flat theta of
    params, their indices in it, and params_at(x), the parameters with those
    coordinates set to x."""
    K, M = params.K, params.M
    theta = kernel.params_vector(params)
    free = list(kernel.theta_free(K, M))

    def params_at(x) -> ModelParams:
        t = theta.copy()
        t[free] = x
        return ModelParams(*kernel.theta_rows(t, K, M))

    return theta[free], free, params_at


def log_joint(hmm, trajectory) -> float:
    """ln p(s_{1:n}, o_{1:n}) = ln mu(s_1) + sum ln B + sum ln A, in log space.

    Returns -inf for trajectories that start in a zero-mass initial state.
    """
    s = _check_values(trajectory.states, hmm.K, "state")
    o = _check_values(trajectory.observations, hmm.M, "observation")
    if s.size == 0:
        return 0.0
    total = float(hmm.log_mu()[s[0]])
    total += float(hmm.log_B[s[:-1], s[1:]].sum())
    total += float(hmm.log_A[s, o].sum())
    return total


def frozen_fingerprint(history) -> tuple:
    """Raw bytes of each stored row below the newest snapshot's, to assert
    bit-level immutability."""
    return tuple(row.tobytes() for row in history.rows[:-2])


# -- block-form psi gradient --------------------------------------------------
# The final fold step's belief gradient written block by block, the form it
# is derived in; kernel.psi_gradient computes it in one flat pass.  Tests use
# this as an independent reference for the kernel.

def block_psi_gradient(W, G, rho_prev, rho_curr) -> tuple:
    """Gradient of pi_a . (W - ln pi_a) + pi_a G pi_b - pi_b . ln pi_b over
    the two pinned logit blocks, with everything older held fixed."""
    log_pa, log_pb = log_softmax(rho_prev), log_softmax(rho_curr)
    pa, pb = np.exp(log_pa), np.exp(log_pb)
    ca = W + G @ pb - log_pa
    ga = pa * (ca - float(pa @ ca))
    cb = G.T @ pa - log_pb
    gb = pb * (cb - float(pb @ cb))
    ga[0] = 0.0
    gb[0] = 0.0
    return ga, gb


def block_psi_gradient_first(W, rho1) -> np.ndarray:
    """Horizon-1 case: gradient of pi . (W - ln pi) over the single block."""
    log_p = log_softmax(rho1)
    p = np.exp(log_p)
    c = W - log_p
    g = p * (c - float(p @ c))
    g[0] = 0.0
    return g


# -- dense theta-gradient fold ------------------------------------------------
# The carried theta gradient as a K x (K*M + K*K) matrix U with one row per
# terminal state, folded as w @ U plus dense fresh rows.  The learner
# carries one vector instead, g_tau = pi_{tau-1} @ U_{tau-1}; tests use this
# fold as an independent reference for it.

def dense_u_fresh(A, B, w, o_idx: int) -> np.ndarray:
    """Fresh-step gradient rows, one per terminal state l.

    Emission part: row l of dalpha gets onehot(o) - A[l].  Transition part:
    row k of dbeta gets w(k) (onehot(l) - B[k]).  Pinned columns zeroed:
    that is the free-coordinate projection, by exclusion not subtraction.
    """
    K, M = A.shape
    fa = np.zeros((K, K, M))
    eo = np.zeros(M)
    eo[o_idx] = 1.0
    idx = np.arange(K)
    fa[idx, idx, :] = eo[None, :] - A
    fb = w[None, :, None] * (np.eye(K)[:, None, :] - B[None, :, :])
    fa[:, :, 0] = 0.0
    fb[:, :, 0] = 0.0
    return np.concatenate([fa.reshape(K, -1), fb.reshape(K, -1)], axis=1)


def dense_u_step(u, w, A, B, o_idx: int) -> np.ndarray:
    """U one time step on, given that step's revision marginal w: every row
    takes the w-average of the old rows, plus the fresh rows.  u None is
    time 1, where no transition precedes (zero weights)."""
    if u is None:
        return dense_u_fresh(A, B, np.zeros(A.shape[0]), o_idx)
    return (w @ u)[None, :] + dense_u_fresh(A, B, w, o_idx)


# -- pairwise approximate objective -------------------------------------------
# The sum of per-step pairwise expectations, written from its definition.  No
# learner path calls it; it is the reference the streaming objective is
# checked against (acceptance check 5).

def pairwise_tables_from_history(history) -> list:
    """The natural pairwise tables for a product-form state: a singleton for
    t = 1 and outer products of consecutive final marginals for t >= 2."""
    tables = [history.belief(1)]
    for t in range(2, history.horizon + 1):
        tables.append(np.outer(history.belief(t - 1), history.belief(t)))
    return tables


def _xlogy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # 0 * log 0 = 0 by limit
    out = np.zeros_like(x)
    mask = x > 0.0
    out[mask] = x[mask] * np.log(y[mask])
    return out


def hat_elbo(hmm, pairwise_q, observations) -> float:
    """Sum of per-step pairwise expectations.

    Term 1 is E_{q_1}[ln mu(s_1) A[s_1][o_1] - ln q_1(s_1)]; term t >= 2 is
    E_{q_t(s_{t-1}, s_t)}[ln B[s_{t-1}][s_t] A[s_t][o_t] - ln d_t] with the
    denominator d_t the forward conditional q_t(s_t | s_{t-1}) of the table.
    Dividing by the conditional charges each time step's uncertainty exactly once
    across the overlapping pairs, so on product-form tables the sum equals
    the exact objective of the corresponding product distribution and can
    never exceed it.
    """
    o = _check_values(observations, hmm.M, "observation")
    tau = o.shape[0]
    if len(pairwise_q) != tau:
        raise ConstraintError("need exactly one table per observation")
    q1 = np.asarray(pairwise_q[0], dtype=float)
    if q1.shape != (hmm.K,):
        raise ConstraintError("table 1 must be a singleton over s_1")
    _check_table(q1)
    total = float(np.sum(q1 * (hmm.log_mu() + hmm.log_A[:, o[0]]))
                  - np.sum(_xlogy(q1, q1)))
    for t in range(2, tau + 1):
        Q = np.asarray(pairwise_q[t - 1], dtype=float)
        if Q.shape != (hmm.K, hmm.K):
            raise ConstraintError(f"table {t} must be K x K")
        _check_table(Q)
        total += float(np.sum(Q * (hmm.log_B + hmm.log_A[:, o[t - 1]][None, :])))
        rows = Q.sum(axis=1, keepdims=True)
        cond = np.divide(Q, rows, out=np.zeros_like(Q), where=rows > 0.0)
        total -= float(np.sum(_xlogy(Q, np.where(cond > 0.0, cond, 1.0))))
    return total


def _check_table(Q: np.ndarray) -> None:
    if np.any(Q < -1e-12) or not np.all(np.isfinite(Q)):
        raise ConstraintError("pairwise table has negative or non-finite mass")
    if abs(Q.sum() - 1.0) > 1e-8:
        raise ConstraintError("pairwise table must sum to 1 within 1e-8")
