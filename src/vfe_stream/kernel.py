"""Raw-array inner loops of the streaming learner.

The belief (psi) ascent and the parameter (theta) ascent are one operation:
gradient steps on a flat vector of pinned softmax rows (each row's first
logit stays 0), with all rows' softmax taken in one segmented pass.  psi
stacks the updatable belief blocks; theta is laid out as
[alpha_tilde.ravel(), beta_tilde.ravel()] (params_vector, theta_rows), the
one parameter layout of the package, with its free coordinates at
theta_free.  The loops step along psi_gradient and theta_gradient, which
elbo's gradient audit evaluates too, and theta_gradient also carries the
learner's summed theta gradient from one time step to the next.

Path rule.  When every row in a loop is at most two wide (psi at K = 2
with its two blocks; theta at K <= 2 and M <= 2) and every pinned logit is
+0.0, each row has one free logit and the loop runs on Python floats: on so
few numbers a numpy call costs about as much as a step's whole arithmetic.
Wider rows, and psi's one block at horizon 1 (once per stream), keep the
numpy loop, which is also the reference the float loops are held to, bit
for bit.  They replay its operations in its order: the shift by
the row maximum, which makes that entry exp(0.0) = 1 and leaves one exp
per row; c as (W - x) + H p, with H p written G00*p0 + G01*p1 (the matrix
product's own sum when each entry has two nonzero products); the centring
p0*c0 + p1*c1; x + step * (p1 * (c1 - centring)).  The exp is numpy's, of
the scalar, as math.exp rounds differently.  Like the numpy loop they run
unchecked, and a non-finite end point (or, for theta, a non-finite weight
or target) hands over to the numpy loop, replayed from the start, which
finds any stall.  Beyond two wide, H p sums more than two products per
entry in an order of the matrix product's own, which no float loop
matches.

Nothing in this module validates.  Callers take the inputs from values that
are already validated (the learner state, the belief history, the model)
and validate the results once on the way out, so a step that makes a logit
non-finite still ends in ConstraintError there.
"""

from __future__ import annotations

import functools
import math

import numpy as np


def ascent_step(x: np.ndarray, gradient: np.ndarray, step: float) -> tuple:
    """(x + step * gradient, False), or (x, True) on a non-finite gradient:
    a stall.  Nothing is clipped."""
    x = np.asarray(x, dtype=float)
    g = np.asarray(gradient, dtype=float)
    if not np.logical_and.reduce(np.isfinite(g), axis=None):
        return x, True
    return x + step * g, False


def _ascend(x: np.ndarray, gradient, steps: int, step: float) -> tuple:
    """Up to `steps` ascent steps; returns (x, applied, stalled).

    A step on a non-finite gradient stalls: the loop stops with x as it
    was.  The steps run unchecked, and such a gradient would leave x
    non-finite for good (inf or nan plus anything stays non-finite), so
    only a non-finite end point can hide a stall.  It replays the steps
    through ascent_step to find it: the checked loop's result, bit for bit.
    """
    start = x
    with np.errstate(invalid="ignore", over="ignore"):
        for _ in range(steps):
            x = x + step * gradient(x)
        if np.isfinite(x).all():
            return x, steps, False
        x = start
        for applied in range(steps):
            x, stalled = ascent_step(x, gradient(x), step)
            if stalled:
                return x, applied, True
    return x, steps, False


# -- pinned softmax rows ------------------------------------------------------

@functools.lru_cache(maxsize=64)
class _Rows:
    """Layout of consecutive rows of the given widths in one flat vector:
    the start of each row, the row index of each coordinate, a 0/1 mask
    that is 0 at each row's pinned first coordinate and the indices of the
    free coordinates as a tuple of ints.  Built once per shape, as the
    cache hands every caller of that shape the same read-only one."""

    def __init__(self, widths: tuple):
        self.starts = np.cumsum((0,) + widths[:-1])
        self.row = np.repeat(np.arange(len(widths)), widths)
        self.free = np.ones(sum(widths))
        self.free[self.starts] = 0.0
        self.free_at = tuple(np.flatnonzero(self.free).tolist())
        for a in (self.starts, self.row, self.free):
            a.flags.writeable = False


def _softmax(x: np.ndarray, starts: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Row-wise softmax of x, shifted by each row's maximum."""
    e = np.exp(x - np.maximum.reduceat(x, starts)[row])
    return e / np.add.reduceat(e, starts)[row]


def _zero_bits(v: np.ndarray) -> bool:
    """Whether every entry of v is +0.0: every byte zero (a -0.0 is not)."""
    return not any(v.tobytes())


# numpy's exp, taken of one Python float at a time by the float loops: it
# rounds as the array exp does, and math.exp does not
_exp = np.exp


# -- beliefs ------------------------------------------------------------------

def psi_gradient(W: np.ndarray, G, n: int, K: int):
    """The gradient, over n flat (K,) belief logit blocks, of the final
    fold step of the streaming objective with everything older held fixed
    (elbo.step_inputs gives W and G).

    At horizon 1, n = 1, G is None and the objective is pi . (W - ln pi).
    Otherwise the blocks are (revision, current) and the objective is

        pi_a . (W - ln pi_a) + pi_a G pi_b - pi_b . ln pi_b.

    On p = [pi_a, pi_b] the gradient is free * p * (c - rowsum(p * c))
    with c = W' - ln p + H p, H = [[0, G], [G^T, 0]] and W' = [W, 0].  c
    takes -x for -ln p: they differ by a constant per row, which the
    centring removes.
    """
    rows = _Rows((K,) * n)
    starts, row, free = rows.starts, rows.row, rows.free
    H = np.zeros((n * K, n * K))
    if G is not None:
        H[:K, K:] = G
        H[K:, :K] = G.T
    w = np.zeros(n * K)
    w[:K] = W

    def gradient(x):
        p = _softmax(x, starts, row)
        c = w - x + H @ p
        return free * p * (c - np.add.reduceat(p * c, starts)[row])

    return gradient


def psi_ascent(x: np.ndarray, W: np.ndarray, G, steps: int,
               step: float) -> tuple:
    """Ascent along psi_gradient on the (n, K) updatable belief logits,
    returning (x, applied, stalled).  With no step to take, or at K = 1,
    where every coordinate is pinned and each step would add step * 0, x is
    returned with no gradient built or evaluated.  At K = 2 with two blocks
    the steps run on Python floats (the module's path rule)."""
    n, K = x.shape
    if K == 1 or steps == 0:
        return x, steps, False
    if K == 2 and n == 2 and _zero_bits(x[:, 0]):
        free = _psi_pairs(x[:, 1].tolist(), W.tolist(), G.tolist(), steps,
                          float(step))
        if all(map(math.isfinite, free)):
            return np.array([[0.0, y] for y in free]), steps, False
    x, applied, stalled = _ascend(x.ravel(), psi_gradient(W, G, n, K),
                                  steps, step)
    return x.reshape(n, K), applied, stalled


def _psi_pairs(free: list, W: list, G: list, steps: int,
               step: float) -> list:
    """psi_gradient's steps, unchecked, on the free logits of the two
    pinned rows [0.0, y] (W and G as lists).  Each row's shifted exps are
    (exp(-y), 1) when y > 0, else (1, exp(y)): one exp of -|y|.  In
    c = W' - x + H p the pinned logits are +0.0, so W0 - 0.0 = W0 and
    0.0 - 0.0 = 0.0."""
    W0, W1 = W
    (G00, G01), (G10, G11) = G
    a, b = free
    for _ in range(steps):
        ea, eb = float(_exp(-abs(a))), float(_exp(-abs(b)))
        ea0, ea1 = (ea, 1.0) if a > 0.0 else (1.0, ea)
        eb0, eb1 = (eb, 1.0) if b > 0.0 else (1.0, eb)
        sa, sb = ea0 + ea1, eb0 + eb1
        pa0, pa1, pb0, pb1 = ea0 / sa, ea1 / sa, eb0 / sb, eb1 / sb
        c0 = W0 + (G00 * pb0 + G01 * pb1)
        c1 = (W1 - a) + (G10 * pb0 + G11 * pb1)
        c2 = 0.0 + (G00 * pa0 + G10 * pa1)
        c3 = (0.0 - b) + (G01 * pa0 + G11 * pa1)
        a = a + step * (pa1 * (c1 - (pa0 * c0 + pa1 * c1)))
        b = b + step * (pb1 * (c3 - (pb0 * c2 + pb1 * c3)))
    return [a, b]


# -- parameters ---------------------------------------------------------------

def params_vector(params) -> np.ndarray:
    """The flat theta of a ModelParams: [alpha_tilde.ravel(),
    beta_tilde.ravel()]."""
    return np.concatenate([params.alpha_tilde.ravel(),
                           params.beta_tilde.ravel()])


def theta_rows(theta: np.ndarray, K: int, M: int) -> tuple:
    """(alpha_tilde, beta_tilde) views of a flat theta vector."""
    return theta[: K * M].reshape(K, M), theta[K * M:].reshape(K, K)


def theta_free(K: int, M: int) -> tuple:
    """The indices of theta's free coordinates, every row's pinned first
    logit left out."""
    return _theta_layout(K, M)[0].free_at


def theta_gradient(g: np.ndarray, pa, pb: np.ndarray, o_idx: int):
    """The gradient of the streaming objective over the flat parameter
    vector.

    It is the carried part g (the gradient of every earlier time step's
    terms, fixed within one observation) plus the fresh final-step part,
    which tracks the moving parameters: pb (onehot(o) - A) per emission row
    and pa (pb - B) per transition row.  pa is None at horizon 1, where no
    transition has been observed yet.  The fresh part is w (t - p), with
    weights w (0 when pinned) and targets t fixed here.
    """
    rows, w, t = _theta_fresh(g, pa, pb, o_idx)
    starts, row = rows.starts, rows.row

    def gradient(theta):
        return g + w * (t - _softmax(theta, starts, row))

    return gradient


def _theta_fresh(g: np.ndarray, pa, pb: np.ndarray, o_idx: int) -> tuple:
    """theta_gradient's row layout, weights w and targets t."""
    K = pb.shape[0]
    M = g.shape[0] // K - K
    rows, target = _theta_layout(K, M)
    w = rows.free * np.concatenate([pb, np.zeros(K) if pa is None else pa])[
        rows.row]
    t = np.concatenate([np.arange(M) == o_idx, pb])[target]
    return rows, w, t


@functools.lru_cache(maxsize=64)
def _theta_layout(K: int, M: int) -> tuple:
    """The theta row layout and each coordinate's target as an index into
    [onehot(o), pb]: emission rows read onehot(o), transition rows pb."""
    target = np.r_[np.tile(np.arange(M), K), M + np.tile(np.arange(K), K)]
    target.flags.writeable = False
    return _Rows((M,) * K + (K,) * K), target


def theta_ascent(theta: np.ndarray, g: np.ndarray, pa, pb: np.ndarray,
                 o_idx: int, steps: int, step: float) -> tuple:
    """Ascent along theta_gradient, returning (theta, applied, stalled).
    When every row is at most two wide, and one is two wide, the steps run
    on Python floats (the module's path rule)."""
    K = pb.shape[0]
    if steps and max(K, theta.shape[0] // K - K) == 2:
        rows, w, t = _theta_fresh(g, pa, pb, o_idx)
        if _zero_bits(theta[rows.starts]) and _zero_bits(g[rows.starts]):
            w, t = w.tolist(), t.tolist()
            x = _theta_pairs(theta.tolist(), g.tolist(), w, t, rows.free_at,
                             steps, float(step))
            if all(map(math.isfinite, x + w + t)):
                return np.array(x), steps, False
    return _ascend(theta, theta_gradient(g, pa, pb, o_idx), steps, step)


def _theta_pairs(x: list, g: list, w: list, t: list, free: tuple,
                 steps: int, step: float) -> list:
    """theta_gradient's steps, unchecked, on the listed free logits of
    pinned rows [0.0, y]; the rest of x is returned as it was.  g, w and t
    are fixed, so each free logit runs its steps alone; the pinned logits
    would each add step * (0.0 + 0.0 * (t - p)) = +0.0 and stay +0.0.  The
    row's p1 is 1 / (exp(-y) + 1) when y > 0, else exp(y) / (1 + exp(y)),
    and the two sums are equal bit for bit."""
    for i in free:
        y, gi, wi, ti = x[i], g[i], w[i], t[i]
        for _ in range(steps):
            e = float(_exp(-abs(y)))
            p1 = (1.0 if y > 0.0 else e) / (1.0 + e)
            y = y + step * (gi + wi * (ti - p1))
        x[i] = y
    return x
