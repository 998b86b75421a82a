"""Raw-array inner loops of the streaming learner.

The belief (psi) ascent, the parameter (theta) ascent and the (V, U) fold
step run here on plain float arrays: logit rows with a row-wise
log-softmax in one vectorised call, and theta as one flat vector laid out
like the rows of U, [alpha_tilde.ravel(), beta_tilde.ravel()].  Nothing in
this module validates.  Callers take the inputs from values that are
already validated (the learner state, the belief history, the model) and
validate the results once on the way out, so a step that makes a logit
non-finite still ends in ConstraintError there.
"""

from __future__ import annotations

import numpy as np

from .model import log_softmax


def ascent_step(x: np.ndarray, gradient: np.ndarray, step: float) -> tuple:
    """(x + step * gradient, False), or (x, True) on a non-finite gradient:
    a stall.  Nothing is clipped."""
    x = np.asarray(x, dtype=float)
    g = np.asarray(gradient, dtype=float)
    if not np.isfinite(g).all():
        return x, True
    return x + step * g, False


def _ascend(x: np.ndarray, gradient, steps: int, step: float) -> tuple:
    """Up to `steps` ascent steps; returns (x, applied, stalled)."""
    for applied in range(steps):
        x, stalled = ascent_step(x, gradient(x), step)
        if stalled:
            return x, applied, True
    return x, steps, False


# -- beliefs ------------------------------------------------------------------

def psi_ascent(x: np.ndarray, W: np.ndarray, G, steps: int,
               step: float) -> tuple:
    """Ascent on the updatable belief logits, returning (x, applied,
    stalled).

    At horizon 1, x is the (1, K) starting block and the objective is
    pi . (W - ln pi); G is None.  Otherwise x stacks the (revision,
    current) blocks as (2, K) and the objective is

        pi_a . (W - ln pi_a) + pi_a G pi_b - pi_b . ln pi_b,

    the final fold step of the streaming objective with everything older
    held fixed (elbo.step_inputs gives W and G).  The pinned first logit of
    each row gets a zero gradient, so pinning is kept exactly.
    """
    def gradient(x):
        log_p = log_softmax(x)
        p = np.exp(log_p)
        if G is None:
            c = W - log_p
        else:
            c = np.empty_like(x)
            c[0] = W + G @ p[1] - log_p[0]
            c[1] = G.T @ p[0] - log_p[1]
        g = p * (c - (p * c).sum(axis=1, keepdims=True))
        g[:, 0] = 0.0
        return g

    with np.errstate(invalid="ignore", over="ignore"):
        return _ascend(x, gradient, steps, step)


# -- parameters ---------------------------------------------------------------

def theta_rows(theta: np.ndarray, K: int, M: int) -> tuple:
    """(alpha_tilde, beta_tilde) views of a flat theta vector."""
    return theta[: K * M].reshape(K, M), theta[K * M:].reshape(K, K)


def theta_ascent(theta: np.ndarray, ubar: np.ndarray, pa, pb: np.ndarray,
                 o_idx: int, steps: int, step: float) -> tuple:
    """Ascent on the flat parameter vector, returning (theta, applied,
    stalled).

    The gradient is the carried part ubar (the U rows contracted against
    the revision marginal pa, fixed within one observation) plus the fresh
    final-step part, which tracks the moving parameters: pb (onehot(o) - A)
    per emission row and pa (pb - B) per transition row.  pa is None at
    horizon 1, where no transition has been observed yet.
    """
    K = pb.shape[0]
    M = ubar.shape[0] // K - K
    eo = np.zeros(M)
    eo[o_idx] = 1.0
    fresh = np.zeros_like(ubar)
    fa, fb = theta_rows(fresh, K, M)

    def gradient(theta):
        alpha, beta = theta_rows(theta, K, M)
        fa[:] = pb[:, None] * (eo - np.exp(log_softmax(alpha)))
        if pa is not None:
            fb[:] = pa[:, None] * (pb - np.exp(log_softmax(beta)))
        fa[:, 0] = 0.0
        fb[:, 0] = 0.0
        return ubar + fresh

    with np.errstate(invalid="ignore", over="ignore"):
        return _ascend(theta, gradient, steps, step)


# -- the (V, U) fold ----------------------------------------------------------

def u_fresh(A: np.ndarray, B: np.ndarray, w: np.ndarray, o_idx: int) -> np.ndarray:
    """Dense fresh-step gradient rows, one per terminal state l.

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


def fold_step(v: np.ndarray, u: np.ndarray, log_w: np.ndarray,
              log_curr: np.ndarray, log_sup: np.ndarray, A: np.ndarray,
              B: np.ndarray, log_A: np.ndarray, log_B: np.ndarray,
              o_idx: int) -> tuple:
    """Advance (V, U) by one time step given the step's log revision,
    current and superseded marginals."""
    w = np.exp(log_w)
    base = float(w @ (v + log_sup - log_w))
    v = base + w @ log_B + log_A[:, o_idx] - log_curr
    u = (w @ u)[None, :] + u_fresh(A, B, w, o_idx)
    return v, u
