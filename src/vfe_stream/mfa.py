"""Mean-field state over a growing horizon.

The variational state is a sequence of per-time softmax marginals with the
first logit of each block pinned to zero.  When the horizon grows from tau to
tau + 1, a snapshot is appended holding two updatable blocks: a revision of
the time-tau marginal and a fresh block for time tau + 1.  Older blocks are
frozen and shared by reference, which is what makes per-observation work
constant in tau: only the newest snapshot is ever written, by a single
writer, while readers may hold any earlier block.

The joint over s_{1:tau} is assembled from one-step extension factors

    m_{t}(s_t | s_{t-1}) = revised_{t-1}(s_{t-1}) * current_t(s_t)
                           / superseded_{t-1}(s_{t-1})

whose rows need not sum to one when a revision occurred (the row sums,
revised/superseded, are exposed as a diagnostic and never renormalized).
The product telescopes, so the assembled q is a product of the final
per-time marginals and carries total mass 1 up to rounding.  That product
is also the fully decoupled family's joint, so the two family names denote
one distribution at the final beliefs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .model import ConstraintError, GenerativeHMM, _check_values, _frozen, softmax_row
from .oracle import ENUMERATION_GUARD, GuardError


class MfaFamily(Enum):
    FULLY_DECOUPLED = "fully_decoupled"
    REVERSED = "reversed"


def _check_block(rho, K: Optional[int] = None) -> np.ndarray:
    rho = np.asarray(rho, dtype=float)
    if rho.ndim != 1 or rho.size == 0:
        raise ConstraintError("rho block must be a non-empty vector")
    if K is not None and rho.shape[0] != K:
        raise ConstraintError(f"rho block must have length K = {K}")
    if not np.all(np.isfinite(rho)):
        raise ConstraintError("rho block has non-finite entries")
    if rho[0] != 0.0:
        raise ConstraintError("rho block pinning violated: first entry must be 0")
    return _frozen(rho)


class MfaHistory:
    """Append-only sequence of snapshots.

    Snapshot 1 holds the single starting block; snapshot t >= 2 holds the
    pair (revision of time t-1, block for time t).  Only the newest
    snapshot's blocks may be replaced; everything older is frozen and
    bit-identical for the rest of the run.
    """

    def __init__(self, rho1) -> None:
        block = _check_block(rho1)
        self._snapshots = [(None, block)]

    # -- shape ---------------------------------------------------------------

    @property
    def horizon(self) -> int:
        return len(self._snapshots)

    @property
    def K(self) -> int:
        return self._snapshots[0][1].shape[0]

    @property
    def frozen_below(self) -> int:
        """Times strictly below this are frozen at the current horizon."""
        return max(self.horizon - 1, 0)

    # -- block access --------------------------------------------------------

    def belief_logits(self, t: int) -> np.ndarray:
        """Final belief block for time t: the revision stored at snapshot
        t + 1 once it exists, else the snapshot-t block itself."""
        if not 1 <= t <= self.horizon:
            raise ConstraintError(f"t must lie in 1..{self.horizon}")
        if t < self.horizon:
            return self._snapshots[t][0]
        return self._snapshots[t - 1][1]

    def belief(self, t: int) -> np.ndarray:
        return softmax_row(self.belief_logits(t))

    def superseded_logits(self, t: int) -> np.ndarray:
        """Snapshot-t block for time t, kept after a later revision replaces
        it as the belief: it is the denominator of extension factor t + 1."""
        if not 1 <= t <= self.horizon:
            raise ConstraintError(f"t must lie in 1..{self.horizon}")
        return self._snapshots[t - 1][1]

    def superseded(self, t: int) -> np.ndarray:
        return softmax_row(self.superseded_logits(t))

    def updatable_logits(self) -> tuple:
        """(revision block or None, current block) of the newest snapshot."""
        return self._snapshots[-1]

    # -- mutation ------------------------------------------------------------

    def append_snapshot(self, rho_curr) -> None:
        prev = self.belief_logits(self.horizon)  # copy-on-reference; frozen
        self._snapshots.append((prev, _check_block(rho_curr, self.K)))

    def set_updatable(self, rho_prev=None, rho_curr=None) -> None:
        """Replace blocks of the newest snapshot.  rho_prev is rejected at
        horizon 1, where no revision block exists."""
        old_prev, old_curr = self._snapshots[-1]
        if rho_prev is not None:
            if old_prev is None:
                raise ConstraintError("horizon 1 has no revision block")
            old_prev = _check_block(rho_prev, self.K)
        if rho_curr is not None:
            old_curr = _check_block(rho_curr, self.K)
        self._snapshots[-1] = (old_prev, old_curr)

    def drop_newest(self) -> None:
        """Remove the newest snapshot, undoing append_snapshot and every
        set_updatable since: neither touches the snapshots below, so the
        previous horizon comes back exactly."""
        if self.horizon < 2:
            raise ConstraintError("the starting snapshot cannot be dropped")
        self._snapshots.pop()

    def frozen_fingerprint(self) -> tuple:
        """Raw bytes of every block except the newest snapshot's; tests use
        this to assert bit-level immutability."""
        out = []
        for prev, curr in self._snapshots[:-1]:
            out.append(None if prev is None else prev.tobytes())
            out.append(curr.tobytes())
        return tuple(out)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """Checkpoint document.

        "rho" lists every stored block in interleaved order
        [rho_1, rev_1, rho_2, rev_2, rho_3, ...]: the snapshot-t block for
        time t followed, for t >= 2, by the revision of time t-1 stored in
        the same snapshot.  Both kinds are needed to resume exactly, because
        superseded blocks remain denominators of the extension factors.
        """
        rows = []
        for prev, curr in self._snapshots:
            if prev is not None:
                rows.append([float(x) for x in prev])
            rows.append([float(x) for x in curr])
        return {"horizon": self.horizon, "rho": rows,
                "frozen_below": self.frozen_below}

    @staticmethod
    def from_dict(doc: dict) -> "MfaHistory":
        if set(doc) != {"horizon", "rho", "frozen_below"}:
            raise ConstraintError(
                "history document must have exactly the keys horizon, rho, frozen_below"
            )
        horizon = int(doc["horizon"])
        rows = doc["rho"]
        if horizon < 1 or len(rows) != 2 * horizon - 1:
            raise ConstraintError("history document has wrong rho row count")
        if int(doc["frozen_below"]) != max(horizon - 1, 0):
            raise ConstraintError("frozen_below inconsistent with horizon")
        hist = MfaHistory(rows[0])
        for t in range(2, horizon + 1):
            prev = _check_block(rows[2 * t - 3], hist.K)
            curr = _check_block(rows[2 * t - 2], hist.K)
            hist._snapshots.append((prev, curr))
        return hist

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def load(path) -> "MfaHistory":
        with open(path, "r", encoding="utf-8") as fh:
            return MfaHistory.from_dict(json.load(fh))


# -- augmentation -------------------------------------------------------------

def prediction_logits(hmm: GenerativeHMM, history: MfaHistory) -> np.ndarray:
    """One-step-prediction initializer: push the newest marginal through the
    transition matrix and convert back to pinned logits."""
    pred = hmm.B.T @ history.belief(history.horizon)
    logits = np.log(pred)
    return logits - logits[0]


def augment(history: MfaHistory, init_rule: str = "uniform",
            hmm: Optional[GenerativeHMM] = None) -> MfaHistory:
    """Grow the horizon by one (in place; the history object is returned).

    The revision block starts as the outgoing belief (no revision yet) and
    the fresh block follows init_rule: "uniform"/"zeros" for zero logits,
    "prediction" for the one-step prediction under hmm.
    """
    if init_rule in ("uniform", "zeros"):
        rho = np.zeros(history.K)
    elif init_rule == "prediction":
        if hmm is None:
            raise ConstraintError("prediction init_rule needs the model")
        rho = prediction_logits(hmm, history)
    else:
        raise ConstraintError(f"unknown init_rule {init_rule!r}")
    history.append_snapshot(rho)
    return history


# -- extension factor ---------------------------------------------------------

def m_conditional(pi_prev_revised, pi_new, pi_prev_old) -> tuple:
    """Extension factor table and its row sums.

    table[k, l] = revised(k) * new(l) / superseded(k); row sum k equals
    revised(k) / superseded(k), which is 1 only when no revision occurred.
    The table is returned as is, never renormalized.
    """
    a = np.asarray(pi_prev_revised, dtype=float)
    b = np.asarray(pi_new, dtype=float)
    c = np.asarray(pi_prev_old, dtype=float)
    if a.shape != c.shape or a.ndim != 1 or b.ndim != 1:
        raise ConstraintError("marginal vectors disagree in shape")
    if np.any(c <= 0.0):
        raise ConstraintError("superseded marginal must be strictly positive")
    ratio = a / c
    return ratio[:, None] * b[None, :], ratio


def extension_factor(history: MfaHistory, t: int) -> tuple:
    """m_t table for 2 <= t <= horizon, built from the stored blocks."""
    if not 2 <= t <= history.horizon:
        raise ConstraintError("extension factors exist for t >= 2 only")
    prev_rev, curr = history._snapshots[t - 1]
    return m_conditional(softmax_row(prev_rev), softmax_row(curr),
                         history.superseded(t - 1))


# -- materialized joint -------------------------------------------------------

@dataclass(frozen=True)
class FullQ:
    """Explicit joint over all sequences with its total mass diagnostic."""

    table: np.ndarray  # (K**tau,), C order, s_1 slowest
    total_mass: float


def full_q(history: MfaHistory, family: MfaFamily = MfaFamily.REVERSED) -> FullQ:
    """Materialize the joint the state currently encodes.

    Reversed: start from the snapshot-1 marginal and multiply the extension
    factors in horizon order.  FullyDecoupled: product of the final per-time
    marginals.  The two agree up to rounding, because the factors telescope.
    """
    K, tau = history.K, history.horizon
    if K**tau > ENUMERATION_GUARD:
        raise GuardError(
            f"materializing K^tau = {K}^{tau} sequences exceeds the "
            f"{ENUMERATION_GUARD} guard"
        )
    if family is MfaFamily.REVERSED:
        table = history.superseded(1).copy()
        for t in range(2, tau + 1):
            m, _ = extension_factor(history, t)
            table = (table.reshape(-1, K)[:, :, None] * m[None, :, :]).reshape(-1)
    else:
        table = history.belief(1).copy()
        for t in range(2, tau + 1):
            table = (table[:, None] * history.belief(t)[None, :]).reshape(-1)
    return FullQ(table=table, total_mass=float(table.sum()))


# -- pairwise approximate objective -------------------------------------------

def pairwise_tables_from_history(history: MfaHistory) -> list:
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


def hat_elbo(hmm: GenerativeHMM, pairwise_q: Sequence[np.ndarray],
             observations: Sequence[int]) -> float:
    """Sum of per-step pairwise expectations.

    Term 1 is E_{q_1}[ln mu(s_1) A[s_1][o_1] - ln q_1(s_1)]; term t >= 2 is
    E_{q_t(s_{t-1}, s_t)}[ln B[s_{t-1}][s_t] A[s_t][o_t] - ln d_t] with the
    denominator d_t the forward conditional q_t(s_t | s_{t-1}) of the table.
    Dividing by the conditional charges each time step's uncertainty exactly once
    across the overlapping pairs, so on product-form tables the sum equals
    the exact objective of the corresponding product distribution and can
    never exceed it.  The learner does not call this; it is the reference
    the streaming objective is checked against.
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
