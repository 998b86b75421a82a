"""Reference computations and output checks of the benchmark.

Nothing here imports vfe_stream.  The exact evidence and the product-form
objective are computed by methods other than the program's own (a log-space
forward recursion instead of the scaled one, a closed-form sum over
marginals instead of the carried fold), so a fault in the program's filter
or objective cannot hide by being shared with the check.

Every check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import itertools

import numpy as np

REL_TOL = 1e-9     # equalities and bounds between two exact objectives
GAP_SLACK = 1e-10  # the program's own slack on its self-oracle gap column
TV_GATE = 0.1      # registered recovery gate of bench-k2
COST_GROWTH = 2.0  # last-tenth over first-tenth median ingest time


def _logsumexp_cols(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=0)
    return m + np.log(np.exp(x - m).sum(axis=0))


def log_evidence(mu, A, B, obs) -> float:
    """Exact ln p(o_1..o_T) by the forward recursion in log space.

    obs holds 1-based symbols.  States of zero initial mass stay at -inf.
    """
    mu, A, B = (np.asarray(x, dtype=float) for x in (mu, A, B))
    o = np.asarray(obs, dtype=int) - 1
    with np.errstate(divide="ignore"):
        log_a, log_b, la = np.log(A), np.log(B), np.log(mu) + np.log(A[:, o[0]])
    for t in range(1, o.shape[0]):
        la = _logsumexp_cols(la[:, None] + log_b) + log_a[:, o[t]]
    m = la.max()
    return float(m + np.log(np.exp(la - m).sum()))


def softmax_rows(logits) -> np.ndarray:
    z = np.asarray(logits, dtype=float)
    w = np.exp(z - z.max(axis=1, keepdims=True))
    return w / w.sum(axis=1, keepdims=True)


def final_marginals(rho_rows) -> np.ndarray:
    """Final per-time beliefs from an interleaved belief checkpoint
    [rho_1, rev_1, rho_2, rev_2, ..., rho_T]: the revision of time t where
    one exists (t < T), else the last block."""
    rows = np.asarray(rho_rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] % 2 != 1:
        raise ValueError("a checkpoint holds 2T - 1 logit rows")
    return softmax_rows(np.vstack([rows[1::2], rows[-1:]]))


def product_elbo(mu, A, B, marginals, obs) -> float:
    """E_q[ln p(s, o) - ln q(s)] for q the product of the given per-time
    marginals, summed in closed form."""
    mu, A, B = (np.asarray(x, dtype=float) for x in (mu, A, B))
    P = np.asarray(marginals, dtype=float)
    o = np.asarray(obs, dtype=int) - 1
    if P.shape != (o.shape[0], A.shape[0]):
        raise ValueError("need one marginal row per observation")
    with np.errstate(divide="ignore", invalid="ignore"):
        initial = np.where(P[0] > 0.0, P[0] * np.log(mu), 0.0).sum()
        entropy = -np.where(P > 0.0, P * np.log(P), 0.0).sum()
    emission = (P * np.log(A[:, o].T)).sum()
    transition = np.einsum("tk,kl,tl->", P[:-1], np.log(B), P[1:])
    return float(initial + emission + transition + entropy)


def aligned_max_row_tv(A_hat, B_hat, A, B) -> float:
    """Largest half-L1 row distance over both matrices under the state
    relabeling that makes it smallest."""
    A_hat, B_hat, A, B = (np.asarray(x, dtype=float) for x in (A_hat, B_hat, A, B))
    best = np.inf
    for perm in itertools.permutations(range(A.shape[0])):
        p = list(perm)
        a_tv = 0.5 * np.abs(A_hat[p, :] - A).sum(axis=1)
        b_tv = 0.5 * np.abs(B_hat[np.ix_(p, p)] - B).sum(axis=1)
        best = min(best, float(max(a_tv.max(), b_tv.max())))
    return best


# -- checks -------------------------------------------------------------------

def _slack(reference: float) -> float:
    return REL_TOL * max(1.0, abs(reference))


def check_bound(what: str, value: float, bound: float) -> list:
    """value must not exceed the exact log evidence bound."""
    if not np.isfinite(value) or value > bound + _slack(bound):
        return [f"{what} = {value!r} exceeds the log evidence {bound!r}"]
    return []


def check_equal(what: str, value: float, reference: float) -> list:
    if not np.isfinite(value) or abs(value - reference) > _slack(reference):
        return [f"{what} = {value!r} differs from the reference {reference!r}"]
    return []


def check_gaps(gaps) -> list:
    bad = [(i, g) for i, g in enumerate(gaps, start=1) if not g >= -GAP_SLACK]
    if bad:
        return [f"{len(bad)} trace rows have gap < {-GAP_SLACK}, first at "
                f"row {bad[0][0]}: {bad[0][1]!r}"]
    return []


def check_beliefs(marginals) -> list:
    P = np.asarray(marginals, dtype=float)
    if not np.all(np.isfinite(P)) or np.any(P < 0.0):
        return ["a belief row has negative or non-finite mass"]
    worst = float(np.abs(P.sum(axis=1) - 1.0).max())
    if worst > REL_TOL:
        return [f"a belief row sums to 1 {worst:+.3g} off"]
    return []


def check_recovery(A_hat, B_hat, A, B) -> list:
    tv = aligned_max_row_tv(A_hat, B_hat, A, B)
    if not tv <= TV_GATE:
        return [f"aligned max row TV {tv:.4f} exceeds the gate {TV_GATE}"]
    return []


def check_constant_cost(ingest_seconds) -> list:
    """The median ingest time over the last tenth of a stream must stay under
    COST_GROWTH times the median over the first tenth."""
    t = np.asarray(ingest_seconds, dtype=float)
    n = t.shape[0] // 10
    if n < 1:
        return ["too few ingests to compare the first and last tenth"]
    first, last = float(np.median(t[:n])), float(np.median(t[-n:]))
    if not last < COST_GROWTH * first:
        return [f"median ingest time grew from {first * 1e3:.3f} ms to "
                f"{last * 1e3:.3f} ms over the stream"]
    return []


def check_rows(what: str, taus, n: int) -> list:
    if list(taus) != list(range(1, n + 1)):
        return [f"{what} has {len(taus)} rows, expected tau = 1..{n}"]
    return []


def percentile_ms(seconds, q: float, min_beyond: int = 40) -> float:
    """The q-th percentile in ms, or 0.0 when fewer than min_beyond samples
    lie beyond it, which would make it no percentile at all."""
    t = np.asarray(seconds, dtype=float)
    if t.shape[0] * (100.0 - q) / 100.0 < min_beyond:
        return 0.0
    return float(np.percentile(t, q) * 1e3)
