"""Shared fixtures-by-hand for the test modules."""

import numpy as np

from vfe_stream.model import ModelParams, StateSpace, build_hmm, log_softmax_row

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


# -- block-form psi gradient --------------------------------------------------
# The final fold step's belief gradient written block by block, the form it
# is derived in; kernel.psi_gradient computes it in one flat pass.  Tests use
# this as an independent reference for the kernel.

def block_psi_gradient(W, G, rho_prev, rho_curr) -> tuple:
    """Gradient of pi_a . (W - ln pi_a) + pi_a G pi_b - pi_b . ln pi_b over
    the two pinned logit blocks, with everything older held fixed."""
    log_pa, log_pb = log_softmax_row(rho_prev), log_softmax_row(rho_curr)
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
    log_p = log_softmax_row(rho1)
    p = np.exp(log_p)
    c = W - log_p
    g = p * (c - float(p @ c))
    g[0] = 0.0
    return g
