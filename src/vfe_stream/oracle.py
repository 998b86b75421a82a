"""Exact reference computations for the streaming stack.

Everything in this module is textbook-exact or brute force: scaled forward
filtering, forward-backward smoothing, posterior enumeration over all K^tau
sequences, free-energy evaluation on explicit sequence tables, and central
finite differences.  These are the ground truth that the recursive
implementations are audited against, so they deliberately avoid sharing code
with the fast paths.

Of the two exact filters, the loop forward_filter is the reference; the
log-depth tree_filter, checked against it, serves per-step self audits.

Sequence tables are flat arrays of length K^tau in C order: s_1 varies
slowest, s_tau fastest, matching itertools.product(range(K), repeat=tau).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import ConstraintError, GenerativeHMM, _check_values

ENUMERATION_GUARD = 10**6


class GuardError(ValueError):
    """K^tau exceeds the enumeration guard."""


@dataclass(frozen=True)
class FilterResult:
    """Filtering marginals p(s_t | o_{1:t}) and the exact log evidence."""

    marginals: np.ndarray  # (tau, K)
    log_evidence: float


@dataclass(frozen=True)
class SmoothingResult:
    marginals: np.ndarray  # (tau, K), p(s_t | o_{1:tau})
    pairwise: np.ndarray   # (tau-1, K, K), p(s_t, s_{t+1} | o_{1:tau})
    log_evidence: float


@dataclass(frozen=True)
class EnumeratedPosterior:
    """Exact posterior over whole sequences, as a flat probability table."""

    table: np.ndarray  # (K**tau,)
    K: int
    tau: int
    log_evidence: float


def forward_filter(hmm: GenerativeHMM, observations: Sequence[int]) -> FilterResult:
    """Scaled alpha recursion: marginal_t is proportional to
    A[:, o_t] * (B^T marginal_{t-1}), with mu in place of the prediction at
    t = 1.  Log normalizers accumulate into the log evidence.
    """
    o = _check_values(observations, hmm.M, "observation")
    tau = o.shape[0]
    if tau == 0:
        raise ConstraintError("observations must be non-empty")
    marginals = np.empty((tau, hmm.K))
    log_z = 0.0
    pred = hmm.mu.copy()
    for t in range(tau):
        w = pred * hmm.A[:, o[t]]
        c = w.sum()
        if c <= 0.0:
            raise ConstraintError("observation has zero probability under mu support")
        marginals[t] = w / c
        log_z += float(np.log(c))
        pred = hmm.B.T @ marginals[t]
    return FilterResult(marginals=marginals, log_evidence=log_z)


def tree_filter(hmm: GenerativeHMM, observations: Sequence[int]) -> tuple:
    """forward_filter's (marginals[-1], log_evidence) in log2 tau levels
    (Sarkka & Garcia-Fernandez 2021).  alpha_tau is row 0 of the product of
    M_1, whose rows all equal alpha_1, and M_t = B * A[:, o_t]; each level
    multiplies adjacent pairs and divides each product by its largest
    entry, whose logs add up to the log evidence."""
    o = _check_values(observations, hmm.M, "observation")
    if o.shape[0] == 0:
        raise ConstraintError("observations must be non-empty")
    m = hmm.B[None, :, :] * hmm.A[:, o].T[:, None, :]
    m[0] = hmm.mu * hmm.A[:, o[0]]
    log_z = 0.0
    while m.shape[0] > 1:
        n = m.shape[0] // 2 * 2
        prod = m[0:n:2] @ m[1:n:2]
        scale = prod.max(axis=(1, 2))
        if not np.all((scale > 0.0) & np.isfinite(scale)):
            raise ConstraintError("observation has zero probability under mu support")
        prod /= scale[:, None, None]
        log_z += float(np.log(scale).sum())
        m = np.concatenate([prod, m[n:]])
    alpha = m[0, 0]
    c = alpha.sum()
    if not (c > 0.0 and np.isfinite(c)):
        raise ConstraintError("observation has zero probability under mu support")
    return alpha / c, log_z + float(np.log(c))


def forward_backward(hmm: GenerativeHMM, observations: Sequence[int]) -> SmoothingResult:
    """Smoothing marginals and adjacent pairwise joints via the scaled
    beta recursion on top of forward filtering."""
    o = _check_values(observations, hmm.M, "observation")
    tau = o.shape[0]
    filt = forward_filter(hmm, observations)
    beta = np.ones(hmm.K)
    marginals = np.empty((tau, hmm.K))
    marginals[tau - 1] = filt.marginals[tau - 1]
    pairwise = np.empty((max(tau - 1, 0), hmm.K, hmm.K))
    for t in range(tau - 2, -1, -1):
        lik = hmm.A[:, o[t + 1]] * beta          # (K,) over s_{t+1}
        joint = filt.marginals[t][:, None] * hmm.B * lik[None, :]
        joint /= joint.sum()
        pairwise[t] = joint
        marginals[t] = joint.sum(axis=1)
        # unnormalized backward message, rescaled for stability
        beta = hmm.B @ lik
        beta /= beta.max()
    return SmoothingResult(marginals=marginals, pairwise=pairwise,
                           log_evidence=filt.log_evidence)


def check_enumeration(K: int, tau: int) -> None:
    """Raise GuardError when K^tau sequences exceed ENUMERATION_GUARD.  From
    tau = ENUMERATION_GUARD.bit_length() on, 2^tau alone exceeds the guard,
    so every K >= 2 is refused there without K^tau ever being formed."""
    if K > 1 and (tau >= ENUMERATION_GUARD.bit_length()
                  or K**tau > ENUMERATION_GUARD):
        raise GuardError(
            f"enumeration over K^tau = {K}^{tau} sequences exceeds the "
            f"{ENUMERATION_GUARD} guard"
        )


def enumerate_log_joint(hmm: GenerativeHMM, observations: Sequence[int]) -> np.ndarray:
    """Flat table of ln p(s_{1:tau}, o_{1:tau}) over all K^tau sequences."""
    o = _check_values(observations, hmm.M, "observation")
    tau = o.shape[0]
    if tau == 0:
        raise ConstraintError("observations must be non-empty")
    check_enumeration(hmm.K, tau)
    table = hmm.log_mu() + hmm.log_A[:, o[0]]
    for t in range(1, tau):
        step = hmm.log_B + hmm.log_A[:, o[t]][None, :]  # (prev, next)
        table = (table.reshape(-1, hmm.K)[:, :, None] + step[None, :, :]).reshape(-1)
    return table


def _logsumexp(v: np.ndarray) -> float:
    m = np.max(v)
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.exp(v - m).sum()))


def enumerate_posterior(hmm: GenerativeHMM, observations: Sequence[int]) -> EnumeratedPosterior:
    lj = enumerate_log_joint(hmm, observations)
    log_z = _logsumexp(lj)
    with np.errstate(under="ignore"):
        table = np.exp(lj - log_z)
    table = table / table.sum()
    return EnumeratedPosterior(table=table, K=hmm.K,
                               tau=len(observations), log_evidence=log_z)


def _as_table(q) -> np.ndarray:
    if isinstance(q, EnumeratedPosterior):
        return q.table
    table = getattr(q, "table", q)
    return np.asarray(table, dtype=float)


def _validate_q(q: np.ndarray, K: int, tau: int) -> None:
    if q.shape != (K**tau,):
        raise ConstraintError(f"q must be a flat table of length K^tau = {K**tau}")
    if np.any(q < -1e-12):
        raise ConstraintError("q has negative mass")
    if abs(q.sum() - 1.0) > 1e-8:
        raise ConstraintError("q must sum to 1 within 1e-8")


def vfe_forms(hmm: GenerativeHMM, q, observations: Sequence[int]) -> tuple:
    """Both free-energy forms for the same explicit q.

    Form 1 is KL[q(s) || p(s)] - E_q[ln p(o | s)] with p(s) the prior over
    sequences; form 2 is -E_q[ln p(s, o) / q(s)].  They agree up to rounding;
    both are returned so tests can check the identity directly.
    """
    o = _check_values(observations, hmm.M, "observation")
    tau = o.shape[0]
    table = _as_table(q)
    _validate_q(table, hmm.K, tau)
    table = np.clip(table, 0.0, None)

    lj = enumerate_log_joint(hmm, observations)

    # prior over sequences and per-sequence log likelihood, built separately
    lp_prior = hmm.log_mu().copy()
    for _ in range(1, tau):
        lp_prior = (lp_prior.reshape(-1, hmm.K)[:, :, None]
                    + hmm.log_B[None, :, :]).reshape(-1)
    support = table > 0.0
    qs = table[support]
    with np.errstate(divide="ignore", invalid="ignore"):
        # sum_t ln A[s_t][o_t]; nan where the prior is impossible, which the
        # support mask removes
        lp_lik = lj - lp_prior
        kl = float(np.sum(qs * (np.log(qs) - lp_prior[support])))
        form1 = kl - float(np.sum(qs * lp_lik[support]))
        form2 = -float(np.sum(qs * (lj[support] - np.log(qs))))
    return form1, form2


def vfe(hmm: GenerativeHMM, q, observations: Sequence[int]) -> float:
    """Variational free energy of an explicit sequence distribution.

    The two algebraic forms are evaluated independently; a disagreement
    beyond 1e-10 signals a broken invariant and raises.
    """
    form1, form2 = vfe_forms(hmm, q, observations)
    scale = max(1.0, abs(form1), abs(form2))
    if not (np.isfinite(form1) and np.isfinite(form2)):
        if form1 != form2:  # both +inf is a legitimate degenerate case
            raise ArithmeticError("free-energy forms disagree (non-finite)")
    elif abs(form1 - form2) > 1e-10 * scale:
        raise ArithmeticError(
            f"free-energy forms disagree: {form1!r} vs {form2!r}"
        )
    return form2


def brute_force_elbo(hmm: GenerativeHMM, mfa_distribution, observations: Sequence[int]) -> float:
    """E_q[ln p(s, o) - ln q(s)] summed over every sequence; equals -vfe."""
    return -vfe(hmm, mfa_distribution, observations)


def finite_diff_grad(f: Callable[[np.ndarray], float], x, h: float = 1e-6) -> np.ndarray:
    """Central finite differences, one coordinate at a time."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        g.flat[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def max_grad_error(analytic, numeric, rel: float = 1e-5, floor: float = 1e-8) -> float:
    """Largest scaled deviation |a - n| / (rel * max(|a|, |n|, floor / rel)),
    a relative error with an absolute floor: <= 1 passes, inf on a shape
    mismatch."""
    a = np.asarray(analytic, dtype=float).ravel()
    n = np.asarray(numeric, dtype=float).ravel()
    if a.shape != n.shape:
        return float("inf")
    if a.size == 0:
        return 0.0
    scale = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor / rel)
    return float(np.max(np.abs(a - n) / (rel * scale)))
