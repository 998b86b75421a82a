"""Mean-field state over a growing horizon.

The variational state is a sequence of per-time softmax marginals, each a
row of logits whose first entry is pinned to zero.  When the horizon grows
from tau to tau + 1, a snapshot is appended holding two updatable rows: a
revision of the time-tau marginal and a fresh row for time tau + 1.
MfaHistory stores the snapshots as one array of rows, in the order of the
checkpoint's "rho" field, [rho_1, rev_1, rho_2, rev_2, ..., rho_tau], so
the newest snapshot is its last two rows (one at horizon 1).  Only those
are ever written, by a single writer; a growth copies the older rows bit
for bit, so frozen rows stay bit-identical for the rest of the run.
Appending writes two rows into a buffer that doubles when full, which is
what keeps per-observation work constant in tau.  The learner ascends from
start_rows before it stores a snapshot, so each is checked and written once.

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

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .model import ConstraintError, GenerativeHMM, softmax
from .oracle import check_enumeration


class MfaFamily(Enum):
    FULLY_DECOUPLED = "fully_decoupled"
    REVERSED = "reversed"


INIT_RULES = ("uniform", "prediction")  # how augment starts a fresh row

_CAPACITY = 16  # rows a new history allocates; the buffer doubles when full


def _check_rows(rows, n: int, K: Optional[int] = None) -> np.ndarray:
    """rows as an (n, K) float array of finite logit rows pinned at 0."""
    try:
        x = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConstraintError("logit rows must be numeric, of one length") from exc
    if x.ndim != 2 or x.shape[0] != n or x.shape[1] == 0 \
            or K not in (None, x.shape[1]):
        raise ConstraintError(f"expected {n} logit rows of length K = {K}")
    if not np.isfinite(x).all():
        raise ConstraintError("logit rows have non-finite entries")
    if (x[:, 0] != 0.0).any():
        raise ConstraintError("pinning violated: each row's first entry must be 0")
    return x


class MfaHistory:
    """Append-only sequence of snapshots, stored as one array of logit rows.

    Snapshot 1 holds the starting row; snapshot t >= 2 holds the pair
    (revision of time t-1, row for time t).  Only the newest snapshot's
    rows may be replaced.  The buffer is read-only outside _write, so every
    row an accessor returns is a read-only view.  Rows are checked when
    stored, so belief and superseded take their softmax unchecked.
    """

    def __init__(self, rho1) -> None:
        first = _check_rows([rho1], 1)
        self._rows = np.empty((0, first.shape[1]))
        self._write(0, first)

    def _write(self, start: int, x: np.ndarray) -> None:
        """Store the checked rows x from row start on, dropping any rows
        after them; a full buffer doubles."""
        end = start + x.shape[0]
        if end > self._rows.shape[0]:
            grown = np.empty((max(2 * self._rows.shape[0], end, _CAPACITY), self.K))
            grown[:start] = self._rows[:start]
            self._rows = grown
        self._rows.flags.writeable = True
        self._rows[start:end] = x
        self._rows.flags.writeable = False
        self._n = end

    # -- shape and rows ------------------------------------------------------

    @property
    def horizon(self) -> int:
        return (self._n + 1) // 2

    @property
    def K(self) -> int:
        return self._rows.shape[1]

    @property
    def frozen_below(self) -> int:
        """Times strictly below this are frozen at the current horizon."""
        return self.horizon - 1

    @property
    def rows(self) -> np.ndarray:
        """The (2 tau - 1, K) stored rows: row 2t - 2 is the snapshot-t row
        for time t, row 2t - 1 (t < tau) the revision of time t."""
        return self._rows[:self._n]

    def belief_logits(self, t: int) -> np.ndarray:
        """Final belief row for time t: its revision once one exists, else
        the snapshot-t row itself."""
        if not 1 <= t <= self.horizon:
            raise ConstraintError(f"t must lie in 1..{self.horizon}")
        return self._rows[min(2 * t - 1, self._n - 1)]

    def belief(self, t: int) -> np.ndarray:
        return softmax(self.belief_logits(t))

    def superseded_logits(self, t: int) -> np.ndarray:
        """Snapshot-t row for time t, kept after a later revision replaces
        it as the belief: it is the denominator of extension factor t + 1."""
        if not 1 <= t <= self.horizon:
            raise ConstraintError(f"t must lie in 1..{self.horizon}")
        return self._rows[2 * t - 2]

    def superseded(self, t: int) -> np.ndarray:
        return softmax(self.superseded_logits(t))

    def updatable_logits(self) -> np.ndarray:
        """The newest snapshot's (n, K) rows: (revision, current), or the
        current row alone at horizon 1."""
        return self._rows[max(self._n - 2, 0):self._n]

    # -- mutation ------------------------------------------------------------

    def append_snapshot(self, rows) -> None:
        """Grow the horizon by one, storing the new snapshot's (2, K) rows:
        the revision of the outgoing time, then the row for the new one."""
        self._write(self._n, _check_rows(rows, 2, self.K))

    def set_updatable(self, *rows) -> None:
        """Replace the newest snapshot's rows, given as the (n, K) array
        updatable_logits returns or as n separate rows.  Two rows are
        rejected at horizon 1, which has no revision row."""
        start = max(self._n - 2, 0)
        self._write(start, _check_rows(rows[0] if len(rows) == 1 else rows,
                                       self._n - start, self.K))

    def drop_newest(self) -> None:
        """Undo append_snapshot and every set_updatable since: neither
        touches the rows below, so the previous horizon comes back exactly."""
        if self.horizon < 2:
            raise ConstraintError("the starting snapshot cannot be dropped")
        self._n -= 2

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """Checkpoint document: "rho" is the stored rows, both kinds, since a
        resume needs the superseded rows as extension-factor denominators."""
        return {"horizon": self.horizon, "rho": self.rows.tolist(),
                "frozen_below": self.frozen_below}

    @staticmethod
    def from_dict(doc: dict) -> "MfaHistory":
        """The history a checkpoint document describes.  Nothing is coerced:
        a non-integer horizon or frozen_below, or a rho entry that is not a
        JSON number, raises ConstraintError."""
        if set(doc) != {"horizon", "rho", "frozen_below"}:
            raise ConstraintError(
                "history document must have exactly the keys horizon, rho, frozen_below"
            )
        horizon, rho = doc["horizon"], doc["rho"]
        if type(horizon) is not int or horizon < 1:
            raise ConstraintError("horizon must be an integer >= 1")
        if type(doc["frozen_below"]) is not int or doc["frozen_below"] != horizon - 1:
            raise ConstraintError("frozen_below must be the integer horizon - 1")
        if not isinstance(rho, list) or len(rho) != 2 * horizon - 1 or not all(
                isinstance(row, list) and all(type(x) in (int, float) for x in row)
                for row in rho):
            raise ConstraintError("rho must hold 2 horizon - 1 rows of numbers")
        rows = _check_rows(rho, len(rho))
        hist = MfaHistory(rows[0])
        hist._write(1, rows[1:])
        return hist


# -- augmentation -------------------------------------------------------------

def prediction_logits(hmm: GenerativeHMM, belief: np.ndarray) -> np.ndarray:
    """One-step-prediction initializer: push the newest marginal through the
    transition matrix and convert back to pinned logits."""
    with np.errstate(divide="ignore"):  # a zero entry is -inf, not a warning
        logits = np.log(hmm.B.T @ belief)
    return logits - logits[0]


def start_rows(history: MfaHistory, init_rule: str = "uniform",
               hmm: Optional[GenerativeHMM] = None,
               belief: Optional[np.ndarray] = None) -> np.ndarray:
    """The (2, K) rows the next snapshot starts from, not yet stored: the
    outgoing belief row (no revision yet), then zero logits ("uniform") or
    the one-step prediction under hmm of belief, the newest marginal
    ("prediction"; the learner carries it, so no row is normalised here)."""
    x = np.empty((2, history.K))
    x[0] = history.rows[-1]
    if init_rule == "uniform":
        x[1] = 0.0
    elif init_rule != "prediction":
        raise ConstraintError(f"unknown init_rule {init_rule!r}")
    elif hmm is None or belief is None:
        raise ConstraintError(
            "prediction init_rule needs the model and the newest marginal")
    else:
        x[1] = prediction_logits(hmm, belief)
    return x


def augment(history: MfaHistory, init_rule: str = "uniform",
            hmm: Optional[GenerativeHMM] = None,
            belief: Optional[np.ndarray] = None) -> MfaHistory:
    """Grow the horizon by one with start_rows' rows (in place; the history
    object is returned)."""
    history.append_snapshot(start_rows(history, init_rule, hmm, belief))
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
    """m_t table for 2 <= t <= horizon, built from the stored rows."""
    if not 2 <= t <= history.horizon:
        raise ConstraintError("extension factors exist for t >= 2 only")
    return m_conditional(history.belief(t - 1), history.superseded(t),
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
    check_enumeration(K, tau)
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
