"""Discrete-state hidden Markov generative model with pinned softmax rows.

The model is a triple (mu, B, A): an initial distribution mu over K hidden
states, a K x K transition matrix B and a K x M emission matrix A.  Transition
and emission rows are softmax images of unconstrained logit rows whose first
entry is pinned to exactly zero, so each (A, B) pair corresponds to exactly
one logit setting and every row is strictly positive.  mu is plain simplex
data, is not part of the learnable parameters, and may contain zeros.

States and symbols are 1-based at the public interface and 0-based
internally.

ModelParams and build_hmm validate at the boundaries; the learner's per-step
rebuild_hmm checks only new parameter rows and reuses the validated mu.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


class ConstraintError(ValueError):
    """A structural invariant (pinning, simplex, shape, finiteness) is violated."""


def _numbers(a, what: str) -> np.ndarray:
    """a as a read-only float array, if it is a regular array of numbers:
    a string or a ragged list raises ConstraintError, and a string of
    digits is not taken for its number."""
    try:
        x = np.asarray(a)
    except ValueError as exc:  # ragged nesting
        raise ConstraintError(f"{what} must be a regular array of numbers") from exc
    if x.dtype.kind not in "iuf":
        raise ConstraintError(f"{what} must be a regular array of numbers")
    x = np.array(x, dtype=float)
    x.flags.writeable = False
    return x


def softmax_row(logits) -> np.ndarray:
    """Map a logit row to a strictly positive probability row.

    Max-subtraction keeps the exponentials in range, which also makes the
    result invariant under a common shift of the logits up to rounding.
    """
    z = np.asarray(logits, dtype=float)
    if z.ndim != 1 or z.size == 0:
        raise ConstraintError("logits must form a non-empty 1-d row")
    if not np.isfinite(z).all():
        raise ConstraintError("non-finite logits")
    return softmax(z)


def softmax(z: np.ndarray) -> np.ndarray:
    """softmax_row without validation, for a row known to be finite."""
    w = np.exp(z - z.max())
    return w / w.sum()


def log_softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax over the last axis, without validation: for
    rows that are already known to be finite."""
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def softmax_and_log(z: np.ndarray) -> tuple:
    """(softmax, log-softmax) of each row over the last axis in one pass
    that shares the max, exp and sum, without validation.  Row for row,
    the two are bit for bit what softmax and log_softmax give."""
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e.sum(axis=-1, keepdims=True)
    return e / s, z - np.log(s)


@dataclass(frozen=True)
class StateSpace:
    """Problem dimensions: K hidden-state values and M observation symbols."""

    K: int
    M: int

    def __post_init__(self):
        for name, n in (("K", self.K), ("M", self.M)):
            if isinstance(n, bool) or not isinstance(n, int) or n < 1:
                raise ConstraintError(f"{name} must be an integer >= 1")


def _check_pinned(rows: np.ndarray, name: str) -> None:
    if not np.isfinite(rows).all():
        raise ConstraintError(f"{name} contains non-finite entries")
    if rows.shape[1] < 1:
        raise ConstraintError(f"{name} rows must be non-empty")
    if (rows[:, 0] != 0.0).any():
        raise ConstraintError(
            f"{name} first-entry pinning violated: each row must have its "
            "first logit exactly 0 (rows are not re-pinned silently)"
        )


@dataclass(frozen=True)
class ModelParams:
    """Learnable logits: emission rows alpha_tilde (K x M) and transition rows
    beta_tilde (K x K), each row pinned at its first entry.
    """

    alpha_tilde: np.ndarray
    beta_tilde: np.ndarray

    def __post_init__(self):
        at = _numbers(self.alpha_tilde, "alpha_tilde")
        bt = _numbers(self.beta_tilde, "beta_tilde")
        if at.ndim != 2 or bt.ndim != 2:
            raise ConstraintError("alpha_tilde and beta_tilde must be 2-d")
        if bt.shape[0] != bt.shape[1]:
            raise ConstraintError("beta_tilde must be square (K x K)")
        if at.shape[0] != bt.shape[0]:
            raise ConstraintError("alpha_tilde and beta_tilde disagree on K")
        _check_pinned(at, "alpha_tilde")
        _check_pinned(bt, "beta_tilde")
        object.__setattr__(self, "alpha_tilde", at)
        object.__setattr__(self, "beta_tilde", bt)

    @property
    def K(self) -> int:
        return self.beta_tilde.shape[0]

    @property
    def M(self) -> int:
        return self.alpha_tilde.shape[1]

    @staticmethod
    def random(space: StateSpace, seed: int, scale: float = 0.5) -> "ModelParams":
        """Seeded uniform logits in [-scale, scale] with pinning applied by
        construction (first entry of each row left at 0)."""
        rng = np.random.Generator(np.random.Philox(key=seed))
        at = rng.uniform(-scale, scale, size=(space.K, space.M))
        bt = rng.uniform(-scale, scale, size=(space.K, space.K))
        at[:, 0] = 0.0
        bt[:, 0] = 0.0
        return ModelParams(alpha_tilde=at, beta_tilde=bt)

    @staticmethod
    def from_matrices(A, B) -> "ModelParams":
        """Convert stochastic matrices to pinned logits via row-wise log and
        first-entry subtraction.  Rows must be strictly positive and sum to 1
        within 1e-8."""
        A, B = _numbers(A, "A"), _numbers(B, "B")
        for name, mat in (("A", A), ("B", B)):
            if mat.ndim != 2:
                raise ConstraintError(f"{name} must be 2-d")
            if np.any(mat <= 0.0):
                raise ConstraintError(
                    f"{name} has non-positive entries; zero-probability rows "
                    "cannot be expressed as finite logits"
                )
            if np.max(np.abs(mat.sum(axis=1) - 1.0)) > 1e-8:
                raise ConstraintError(f"{name} rows must sum to 1 within 1e-8")
        la = np.log(A)
        lb = np.log(B)
        return ModelParams(alpha_tilde=la - la[:, :1], beta_tilde=lb - lb[:, :1])


@dataclass(frozen=True)
class GenerativeHMM:
    """Immutable bundle of mu plus the matrices derived from ModelParams.

    A and B are exactly the softmax images of the parameter rows; log_A and
    log_B are cached log-softmax values so downstream code never takes logs
    of already-exponentiated rows.  All arrays are read-only, so values can
    be shared freely across threads.
    """

    mu: np.ndarray
    params: ModelParams
    A: np.ndarray
    B: np.ndarray
    log_A: np.ndarray
    log_B: np.ndarray

    @property
    def K(self) -> int:
        return self.params.K

    @property
    def M(self) -> int:
        return self.params.M

    def log_mu(self) -> np.ndarray:
        # mu may contain exact zeros; log(0) = -inf is the correct limit
        with np.errstate(divide="ignore"):
            return np.log(self.mu)


def build_hmm(mu, params: ModelParams) -> GenerativeHMM:
    """Validate mu and derive (A, B) from the logits.

    Errors on violated pinning or a non-simplex mu; nothing is repaired
    silently.
    """
    mu = _numbers(mu, "mu")
    if mu.ndim != 1 or mu.shape[0] != params.K:
        raise ConstraintError("mu must be a length-K vector")
    if not np.isfinite(mu).all() or (mu < 0.0).any():
        raise ConstraintError("mu entries must be finite and >= 0")
    if abs(mu.sum() - 1.0) > 1e-12:
        raise ConstraintError("mu must sum to 1 within 1e-12")
    return _derive(mu, params)


def rebuild_hmm(hmm: GenerativeHMM, alpha_tilde: np.ndarray,
                beta_tilde: np.ndarray) -> GenerativeHMM:
    """build_hmm(hmm.mu, ModelParams(alpha_tilde, beta_tilde)) for a model
    whose mu is already validated: the new rows are checked finite and
    pinned once, and are taken over read-only rather than copied."""
    params = object.__new__(ModelParams)
    for name, rows in (("alpha_tilde", alpha_tilde), ("beta_tilde", beta_tilde)):
        _check_pinned(rows, name)
        rows.flags.writeable = False
        object.__setattr__(params, name, rows)
    return _derive(hmm.mu, params)


def _derive(mu: np.ndarray, params: ModelParams) -> GenerativeHMM:
    log_A = log_softmax(params.alpha_tilde)
    log_B = log_softmax(params.beta_tilde)
    arrays = (np.exp(log_A), np.exp(log_B), log_A, log_B)
    for a in arrays:
        a.flags.writeable = False
    return GenerativeHMM(mu, params, *arrays)


@dataclass(frozen=True)
class Trajectory:
    """A state/observation pair of equal length, both 1-based value tuples."""

    states: tuple
    observations: tuple

    def __post_init__(self):
        s = tuple(int(v) for v in self.states)
        o = tuple(int(v) for v in self.observations)
        if len(s) != len(o):
            raise ConstraintError("states and observations must have equal length")
        object.__setattr__(self, "states", s)
        object.__setattr__(self, "observations", o)


def _draw(rng, probs: np.ndarray) -> int:
    # inverse-CDF draw; stable across platforms for a counter-based generator
    u = rng.random()
    idx = int(np.searchsorted(np.cumsum(probs), u, side="right"))
    return min(idx, probs.shape[0] - 1)


def sample_trajectory(hmm: GenerativeHMM, length: int, seed: int) -> Trajectory:
    """Draw a length-n trajectory with a counter-based generator (Philox), so
    the same seed reproduces the same draw on any platform."""
    if length < 0:
        raise ConstraintError("length must be >= 0")
    rng = np.random.Generator(np.random.Philox(key=seed))
    states = []
    obs = []
    prev = None
    for _ in range(length):
        row = hmm.mu if prev is None else hmm.B[prev]
        s = _draw(rng, row)
        o = _draw(rng, hmm.A[s])
        states.append(s + 1)
        obs.append(o + 1)
        prev = s
    return Trajectory(states=tuple(states), observations=tuple(obs))


def _check_values(values: Sequence[int], upper: int, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=int)
    if arr.size and (arr.min() < 1 or arr.max() > upper):
        raise ConstraintError(f"{what} values must lie in 1..{upper}")
    return arr - 1


# --- config round trip -------------------------------------------------------

_MODEL_KEYS = {"K", "M", "mu", "alpha_tilde", "beta_tilde", "A", "B"}


def hmm_from_config(doc: dict) -> GenerativeHMM:
    """Build a model from a config mapping.

    Accepts {"K", "M", "mu", "alpha_tilde", "beta_tilde"} or, alternatively,
    stochastic {"A", "B"} which are converted to pinned logits.  mu defaults
    to uniform and is renormalized at this boundary only (construction then
    enforces the 1e-12 simplex invariant strictly).
    """
    if not isinstance(doc, dict):
        raise ConstraintError("model config must be a JSON object")
    unknown = set(doc) - _MODEL_KEYS
    if unknown:
        raise ConstraintError(f"unknown model config fields: {sorted(unknown)}")
    for key in ("K", "M"):
        if key not in doc:
            raise ConstraintError(f"model config missing required field '{key}'")
    space = StateSpace(doc["K"], doc["M"])
    has_logits = "alpha_tilde" in doc or "beta_tilde" in doc
    has_matrices = "A" in doc or "B" in doc
    if has_logits and has_matrices:
        raise ConstraintError("give either alpha_tilde/beta_tilde or A/B, not both")
    if has_logits:
        if "alpha_tilde" not in doc or "beta_tilde" not in doc:
            raise ConstraintError("alpha_tilde and beta_tilde must be given together")
        params = ModelParams(doc["alpha_tilde"], doc["beta_tilde"])
    elif has_matrices:
        if "A" not in doc or "B" not in doc:
            raise ConstraintError("A and B must be given together")
        params = ModelParams.from_matrices(doc["A"], doc["B"])
    else:
        raise ConstraintError("model config needs alpha_tilde/beta_tilde or A/B")
    if params.K != space.K or params.M != space.M:
        raise ConstraintError("parameter shapes disagree with K/M")
    if "mu" in doc:
        mu = _numbers(doc["mu"], "mu")
        if mu.ndim != 1 or mu.shape[0] != space.K:
            raise ConstraintError("mu must be a length-K vector")
        if not np.all(np.isfinite(mu)) or np.any(mu < 0.0) or mu.sum() <= 0.0:
            raise ConstraintError("mu entries must be finite, >= 0, with positive sum")
        mu = mu / mu.sum()
    else:
        mu = np.full(space.K, 1.0 / space.K)
    return build_hmm(mu, params)
