"""The raw-array inner loops against a reference learner built from the
validated public pieces, plus the failure behaviour the loops keep: stalls
on non-finite gradients, ConstraintError on non-finite logits, and a
failed ingest that leaves the learner as it was."""

import collections
import dataclasses

import numpy as np
import pytest

from helpers import (
    block_psi_gradient,
    block_psi_gradient_first,
    dense_u_step,
    near_identity_params,
    random_hmm,
    random_obs,
)

from vfe_stream import elbo as elbo_mod
from vfe_stream import kernel
from vfe_stream import learner, mfa, model
from vfe_stream.kernel import ascent_step
from vfe_stream.learner import (Schedule, ingest, init_learner,
                                reference_filter, self_audit)
from vfe_stream.mfa import MfaFamily, MfaHistory, augment
from vfe_stream.model import (ConstraintError, ModelParams, StateSpace,
                              build_hmm, log_softmax, softmax)

TAU = 60


class Reference:
    """One stream through the per-iteration validated path: every belief
    gradient in the block form of tests/helpers.py, every ascent step
    through ascent_step, every parameter step through ModelParams and
    build_hmm, every fold step through step_summaries, and the theta
    gradient carried as the dense matrix U of tests/helpers.py: the theta
    phase at tau reads g = pi_{tau-1} @ U_{tau-1}.  Every marginal is
    normalised row by row from its history row, where it is used or, for
    the record the fold step builds, where the row is written."""

    def __init__(self, params, mu, schedule):
        self.params = params
        self.hmm = build_hmm(mu, params)
        self.mu = self.hmm.mu
        self.sched = schedule
        self.hist = None
        self.summaries = None
        self.u = None
        self.obs = []
        self.stalls = 0

    def ingest(self, o):
        self.obs.append(o)
        tau = len(self.obs)
        if tau == 1:
            logits = np.log(self.mu)
            self.hist = MfaHistory(logits - logits[0])
        else:
            augment(self.hist, "prediction", self.hmm,
                    self.hist.belief(tau - 1))
        psi = self.psi_phase(o, tau)
        K, M = self.hmm.K, self.hmm.M
        pa = self.hist.belief(tau - 1) if tau > 1 else None
        g = pa @ self.u if tau > 1 else np.zeros(K * M + K * K)
        theta = self.theta_phase(o, tau, g)
        self.u = dense_u_step(self.u, pa, self.hmm.A, self.hmm.B, o - 1)
        hist = self.hist
        if tau == 1:
            row = hist.superseded_logits(1)
            self.summaries = elbo_mod.base_summaries(
                self.hmm, softmax(row), log_softmax(row), o)
        else:
            rows = [hist.belief_logits(tau - 1), hist.superseded_logits(tau)]
            self.summaries = elbo_mod.step_summaries(
                self.summaries, self.hmm, o,
                np.array([softmax(r) for r in rows]),
                np.array([log_softmax(r) for r in rows]), g)
        elbo = elbo_mod.finish(self.summaries)
        return elbo, psi, theta

    def psi_phase(self, o, tau):
        sched, hmm, hist = self.sched, self.hmm, self.hist
        applied = 0
        if tau == 1:
            base = hmm.log_mu() + hmm.log_A[:, o - 1]
            b = hist.superseded_logits(1).copy()
            for _ in range(sched.psi_updates_per_obs):
                g = block_psi_gradient_first(base, b)
                b, stalled = ascent_step(b, g, sched.psi_step)
                if stalled:
                    self.stalls += 1
                    break
                applied += 1
            hist.set_updatable(b[None, :])
            return applied
        W, G = elbo_mod.step_inputs(hmm, self.summaries, o)
        K = hmm.K
        x = hist.updatable_logits().ravel()
        for _ in range(sched.psi_updates_per_obs):
            ga, gb = block_psi_gradient(W, G, x[:K], x[K:])
            x, stalled = ascent_step(x, np.concatenate([ga, gb]), sched.psi_step)
            if stalled:
                self.stalls += 1
                break
            applied += 1
        hist.set_updatable(x.reshape(2, K))
        return applied

    def theta_phase(self, o, tau, g):
        sched, hist = self.sched, self.hist
        K, M = self.hmm.K, self.hmm.M
        pb = hist.belief(tau)
        pa = hist.belief(tau - 1) if tau > 1 else None
        eo = np.eye(M)[o - 1]
        params, hmm = self.params, self.hmm
        step = sched.theta_step / tau
        applied = 0
        for _ in range(sched.theta_updates_per_obs):
            da = pb[:, None] * (eo[None, :] - hmm.A)
            db = np.zeros((K, K)) if pa is None else pa[:, None] * (pb[None, :] - hmm.B)
            da[:, 0] = 0.0
            db[:, 0] = 0.0
            dense = g + np.concatenate([da.ravel(), db.ravel()])
            if not np.all(np.isfinite(dense)):
                self.stalls += 1
                break
            # pinned columns are zero in dense, so pinning is kept exactly
            params = ModelParams(
                alpha_tilde=params.alpha_tilde + step * dense[: K * M].reshape(K, M),
                beta_tilde=params.beta_tilde + step * dense[K * M:].reshape(K, K))
            hmm = build_hmm(self.mu, params)
            applied += 1
        self.params, self.hmm = params, hmm
        return applied


@pytest.mark.parametrize("budgets", [(0, 0), (6, 0), (0, 3), (9, 3)])
@pytest.mark.parametrize("family", [MfaFamily.REVERSED, MfaFamily.FULLY_DECOUPLED])
# rows of unequal width (K != M) are where a segment off-by-one would show
@pytest.mark.parametrize("K,M", [(1, 3), (2, 3), (3, 3), (4, 2), (2, 5)],
                         ids=["1", "2", "3", "4-2", "2-5"])
def test_kernel_matches_validated_reference(K, M, family, budgets):
    # both family names denote the product of the final marginals, so both
    # must run the one reference path
    truth = random_hmm(K, M, seed=K)
    p0 = ModelParams.random(StateSpace(K, M), seed=20 + K)
    sched = Schedule(psi_updates_per_obs=budgets[0],
                     theta_updates_per_obs=budgets[1], psi_step=1.5,
                     theta_step=2.0)
    state = init_learner(p0, truth.mu, sched, family=family)
    ref = Reference(p0, truth.mu, sched)
    for o in random_obs(M, TAU, seed=K):
        rec = ingest(state, o)
        elbo, psi, theta = ref.ingest(o)
        assert (rec.psi_updates, rec.theta_updates) == (psi, theta)
        assert abs(rec.elbo - elbo) <= 1e-12 * max(1.0, abs(elbo))
        g = ref.summaries.g
        assert np.max(np.abs(state.summaries.g - g)) \
            <= 1e-12 * max(1.0, np.max(np.abs(g)))
    assert state.stalls_total == ref.stalls
    assert np.max(np.abs(state.hmm.A - ref.hmm.A)) <= 1e-12
    assert np.max(np.abs(state.hmm.B - ref.hmm.B)) <= 1e-12
    for t in range(1, TAU + 1):
        assert np.max(np.abs(state.history.belief(t)
                             - ref.hist.belief(t))) <= 1e-12
    if budgets[1] == 0:
        assert state.params is p0


BUDGETS = [(0, 0), (6, 0), (0, 3), (9, 3)]


@pytest.mark.parametrize("budgets", BUDGETS)
@pytest.mark.parametrize("K", [1, 2, 3])
def test_work_per_observation_does_not_grow_with_the_stream(monkeypatch, K,
                                                            budgets):
    _check_work_per_observation(monkeypatch, K, 3, budgets)


@pytest.mark.parametrize("budgets", BUDGETS)
def test_two_wide_work_per_observation_does_not_grow_with_the_stream(
        monkeypatch, budgets):
    # K = M = 2: both loops run on floats, every row two wide
    _check_work_per_observation(monkeypatch, 2, 2, budgets)


def _check_work_per_observation(monkeypatch, K, M, budgets):
    # each observation costs one row update per two-wide row and ascent step
    # on the float path, one gradient evaluation per ascent step on the numpy
    # path (none for psi at K = 1, where every belief coordinate is pinned;
    # psi's one block at tau = 1 takes the numpy path), one theta gradient
    # evaluation that carries g on from tau = 2, one fold step from tau = 2
    # and at most one model rebuild, which validates nothing already
    # validated, whatever tau is; nothing refolds the stream, and without a
    # stall no step is replayed
    truth = random_hmm(K, M, seed=K)
    sched = Schedule(psi_updates_per_obs=budgets[0],
                     theta_updates_per_obs=budgets[1], psi_step=1.5,
                     theta_step=2.0)
    state = init_learner(ModelParams.random(StateSpace(K, M), seed=20 + K),
                         truth.mu, sched)
    calls = collections.Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    def counted_gradient(name):
        make = getattr(kernel, name)

        def wrapper(*args):
            gradient = make(*args)

            def counting(x):
                calls[name] += 1
                return gradient(x)
            return counting
        monkeypatch.setattr(kernel, name, wrapper)

    def refused(*args, **kwargs):
        raise AssertionError("the stream was refolded")

    counted_gradient("psi_gradient")
    counted_gradient("theta_gradient")
    counted(kernel, "ascent_step")
    counted(kernel, "_exp")
    counted(elbo_mod, "step_summaries")
    counted(learner, "build_hmm")
    counted(learner, "rebuild_hmm")
    monkeypatch.setattr(elbo_mod, "scratch_summaries", refused)
    monkeypatch.setattr(elbo_mod, "elbo_recursive", refused)
    psi_floats, theta_floats = K == 2, max(K, M) == 2
    two_wide_theta_rows = K * (M == 2) + K * (K == 2)
    observations = state.observations
    for o in random_obs(M, TAU, seed=K):
        calls.clear()
        rec = ingest(state, o)
        # appended to, never copied: a copy would cost O(tau)
        assert state.observations is observations
        assert rec.stalls == 0
        assert (rec.psi_updates, rec.theta_updates) == budgets
        psi_on_floats = psi_floats and rec.tau > 1
        assert calls["psi_gradient"] == (budgets[0] if K > 1 and not
                                         psi_on_floats else 0)
        assert calls["theta_gradient"] == \
            (0 if theta_floats else budgets[1]) + (rec.tau > 1)
        assert calls["_exp"] == \
            psi_on_floats * budgets[0] * 2 \
            + theta_floats * budgets[1] * two_wide_theta_rows
        assert calls["ascent_step"] == 0
        assert calls["step_summaries"] == (rec.tau > 1)
        assert calls["build_hmm"] == 0
        assert calls["rebuild_hmm"] == (budgets[1] > 0)


@pytest.mark.parametrize("K", [1, 2, 3])
def test_audit_does_not_refold_the_stream(monkeypatch, K):
    # with the self audit after each ingest, the only fold step per
    # observation is the streaming update; the exact objective is one pass
    # with no fold steps
    M = 3
    truth = random_hmm(K, M, seed=K)
    state = init_learner(ModelParams.random(StateSpace(K, M), seed=20 + K),
                         truth.mu, Schedule(psi_updates_per_obs=2,
                                            theta_updates_per_obs=1))
    calls = collections.Counter()

    def counted(name):
        fn = getattr(elbo_mod, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(elbo_mod, name, wrapper)

    for name in ("step_summaries", "elbo_recursive"):
        counted(name)
    for o in random_obs(M, TAU, seed=K):
        calls.clear()
        rec = self_audit(state, ingest(state, o))
        assert rec.gap is not None
        assert calls["elbo_recursive"] == 1
        assert calls["step_summaries"] == (rec.tau > 1)
    calls.clear()
    elbo_mod.elbo_recursive(state.hmm, state.history, state.observations)
    assert calls["step_summaries"] == 0


@pytest.mark.parametrize("budgets", [(0, 0), (6, 0), (0, 3), (9, 3)])
@pytest.mark.parametrize("K", [1, 2, 3])
def test_carried_marginals_are_the_rows_normalised(K, budgets):
    # the marginals the carried record holds are, bit for bit, the softmax
    # and log-softmax of the final belief rows
    M = 3
    truth = random_hmm(K, M, seed=K)
    sched = Schedule(psi_updates_per_obs=budgets[0],
                     theta_updates_per_obs=budgets[1], psi_step=1.5,
                     theta_step=2.0)
    state = init_learner(ModelParams.random(StateSpace(K, M), seed=20 + K),
                         truth.mu, sched)
    for o in random_obs(M, TAU, seed=K):
        tau = ingest(state, o).tau
        s, hist = state.summaries, state.history
        prev, curr, log_curr = s.pi_prev, s.pi, s.log_pi
        if tau == 1:
            assert prev is None
        else:
            assert prev.tobytes() == \
                softmax(hist.belief_logits(tau - 1)).tobytes()
        assert curr.tobytes() == softmax(hist.belief_logits(tau)).tobytes()
        assert log_curr.tobytes() == \
            log_softmax(hist.belief_logits(tau)).tobytes()


@pytest.mark.parametrize("budgets", [(0, 0), (6, 0), (0, 3), (9, 3)])
@pytest.mark.parametrize("K", [1, 2, 3])
def test_each_ingest_normalises_the_rows_psi_wrote_once(monkeypatch, K,
                                                        budgets):
    # every softmax or log-softmax of stored history rows is recorded; per
    # ingest there is one, over exactly the rows the psi phase wrote.  The
    # model rebuild normalises parameter rows, which are not counted.
    M = 3
    truth = random_hmm(K, M, seed=K)
    sched = Schedule(psi_updates_per_obs=budgets[0],
                     theta_updates_per_obs=budgets[1], psi_step=1.5,
                     theta_step=2.0)
    state = init_learner(ModelParams.random(StateSpace(K, M), seed=20 + K),
                         truth.mu, sched)
    passes, building = [], []

    def recorded(fn):
        def wrapper(z):
            if not building:
                passes.append(np.array(z, ndmin=2))
            return fn(z)
        return wrapper

    def rebuild(*args):
        building.append(True)
        try:
            return model.rebuild_hmm(*args)
        finally:
            building.pop()

    for module in (model, mfa, elbo_mod, learner):
        for name in ("softmax", "log_softmax", "softmax_and_log"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    recorded(getattr(module, name)))
    monkeypatch.setattr(learner, "rebuild_hmm", rebuild)
    for o in random_obs(M, TAU, seed=K):
        passes.clear()
        ingest(state, o)
        stored = {row.tobytes() for row in state.history.rows}
        over_rows = [z for z in passes
                     if all(row.tobytes() in stored for row in z)]
        assert len(over_rows) == 1
        assert np.array_equal(over_rows[0], state.history.updatable_logits())


def _warm_state(schedule, n=5, params=None):
    truth = random_hmm(2, 2, seed=3)
    if params is None:
        params = ModelParams.random(StateSpace(2, 2), seed=4)
    state = init_learner(params, truth.mu, schedule)
    for o in random_obs(2, n, seed=3):
        ingest(state, o)
    return state


def test_nan_in_carried_gradient_stalls_and_keeps_parameters():
    state = _warm_state(Schedule(psi_updates_per_obs=5, theta_updates_per_obs=4))
    g = state.summaries.g.copy()
    g[1] = np.nan
    state.summaries = dataclasses.replace(state.summaries, g=g)
    params, hmm = state.params, state.hmm
    rec = ingest(state, 1)
    assert rec.stalls == 1
    assert rec.theta_updates == 0
    assert rec.psi_updates == 5
    assert state.params is params and state.hmm is hmm


def _checked_ascent(x, gradient, steps, step):
    """The loop with a check at every step: ascent_step on each gradient."""
    for applied in range(steps):
        x, stalled = ascent_step(x, gradient(x), step)
        if stalled:
            return x, applied, True
    return x, steps, False


def _poisoned(gradient, at, bad):
    """gradient with one entry set to bad at the point at, and nowhere else:
    a function of x alone, as the loops' gradients are."""
    def poisoned(x):
        g = gradient(x)
        if np.array_equal(x, at):
            g = g.copy()
            g[-1] = bad
        return g
    return poisoned


def _ascent_cases():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 3))
    x[:, 0] = 0.0
    W, G = rng.normal(size=3), np.log(rng.dirichlet(np.ones(3), size=3))
    theta = rng.normal(size=3 * 2 + 3 * 3)
    theta[::2][:3] = 0.0  # the emission rows' pinned entries (M = 2)
    theta[6::3] = 0.0     # the transition rows' pinned entries
    g = 0.1 * rng.normal(size=theta.shape)
    pa, pb = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))
    return {
        "psi": ("psi_gradient", (W, G, 2, 3), x.ravel(), 0.3,
                lambda steps, step: kernel.psi_ascent(x, W, G, steps, step)),
        "theta": ("theta_gradient", (g, pa, pb, 1), theta, 0.05,
                  lambda steps, step: kernel.theta_ascent(theta, g, pa, pb,
                                                          1, steps, step)),
    }


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("k", [0, 4, 8])
@pytest.mark.parametrize("loop", ["psi", "theta"])
def test_stall_at_step_k_matches_the_checked_loop(monkeypatch, loop, k, bad):
    # the loop checks only its end point; a stall must still stop it at the
    # point before step k, bit for bit as a check at every step would
    steps = 9
    name, args, x0, step, ascend = _ascent_cases()[loop]
    real = getattr(kernel, name)
    at, _, _ = _checked_ascent(x0, real(*args), k, step)
    gradient = _poisoned(real(*args), at, bad)
    want = _checked_ascent(x0, gradient, steps, step)
    assert want[1:] == (k, True)
    monkeypatch.setattr(kernel, name, lambda *a: _poisoned(real(*a), at, bad))
    got = ascend(steps, step)
    assert got[1:] == want[1:]
    assert got[0].tobytes() == want[0].tobytes()
    assert got[0].size == x0.size and np.isfinite(got[0]).all()


def _log_step(rng):
    """A step size, log-uniform over 1e-2..1e2 or over the top two decades
    of the floats, where a step can overflow a logit and the next gradient
    then stalls; half of them numpy floats, which must not turn the loop's
    arithmetic into numpy scalar arithmetic."""
    low, high = (-2.0, 2.0) if rng.random() < 0.5 else (306.5, 308.25)
    step = 10.0 ** rng.uniform(low, high)
    return np.float64(step) if rng.random() < 0.5 else step


def _steps(rng):
    """Mostly 1-4 steps, so that some runs end on an overflow (one step)
    rather than a stall; at times bench-k2's 80."""
    return int(rng.integers(1, 5)) if rng.random() < 0.8 else 80


def _pinned_zero(rng):
    """The pinned logits' value: +0.0, or at times -0.0, which equals it
    but keeps the numpy loop (it turns a pinned -0.0 into +0.0)."""
    return -0.0 if rng.random() < 0.1 else 0.0


def _spoilt(rng, a, bad=(np.nan, np.inf, -np.inf)):
    """a, or at times a copy with one entry drawn from bad."""
    if a is None or rng.random() >= 0.05:
        return a
    a = a.copy()
    a.flat[rng.integers(a.size)] = rng.choice(bad)
    return a


def _psi_draw(rng, n):
    x = rng.normal(scale=5.0, size=(n, 2))
    x[:, 0] = _pinned_zero(rng)
    W = _spoilt(rng, rng.normal(scale=200.0, size=2))
    G = _spoilt(rng, np.log(rng.dirichlet(np.ones(2), size=2))
                if n == 2 else None)
    steps = _steps(rng)
    step = _log_step(rng)
    return ((x, W, G, steps, step), x[:, 0],
            lambda: kernel.psi_ascent(x, W, G, steps, step),
            lambda: _numpy_psi_ascent(x, W, G, steps, step))


def _numpy_psi_ascent(x, W, G, steps, step):
    y, applied, stalled = kernel._ascend(
        x.ravel(), kernel.psi_gradient(W, G, *x.shape), steps, step)
    return y.reshape(x.shape), applied, stalled


def _theta_draw(rng, K, M):
    rows = kernel._theta_layout(K, M)[0]
    theta = rng.normal(scale=5.0, size=K * M + K * K)
    g = rng.normal(scale=10.0 ** rng.uniform(-2.0, 1.0), size=theta.size)
    theta[rows.starts] = _pinned_zero(rng)
    g[rows.starts] = _pinned_zero(rng)
    # nan only: an infinite belief makes theta_gradient's weights warn on
    # either path, as 0 * inf at a pinned coordinate
    pb = _spoilt(rng, rng.dirichlet(np.ones(K)), (np.nan,))
    pa = _spoilt(rng, None if rng.random() < 0.25
                 else rng.dirichlet(np.ones(K)), (np.nan,))
    o_idx = int(rng.integers(M))
    steps = _steps(rng)
    step = _log_step(rng)
    gradient = kernel.theta_gradient(g, pa, pb, o_idx)
    return ((theta, g, pa, pb, o_idx, steps, step),
            np.r_[theta[rows.starts], g[rows.starts]],
            lambda: kernel.theta_ascent(theta, g, pa, pb, o_idx, steps, step),
            lambda: kernel._ascend(theta, gradient, steps, step))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "loop, shape",
    [("psi", 1), ("psi", 2), ("theta", (1, 2)), ("theta", (2, 1)),
     ("theta", (2, 2))],
    ids=["psi-n1", "psi-n2", "theta-K1M2", "theta-K2M1", "theta-K2M2"])
def test_float_path_is_the_numpy_path_bit_for_bit(monkeypatch, loop, shape):
    # every row two wide: the float loop must return the numpy loop's
    # (x, applied, stalled) exactly, and hand over to it only when the
    # numpy loop's own unchecked end point is not finite (a pinned -0.0
    # goes to the numpy loop at once); psi's one block (n = 1) always
    # takes the numpy loop; numpy warnings are errors, so no scalar
    # arithmetic of numpy's may leak one
    rng = np.random.default_rng(23)
    ascend = kernel._ascend
    handovers = []
    monkeypatch.setattr(kernel, "_ascend",
                        lambda *a: handovers.append(1) or ascend(*a))
    seen = collections.Counter()
    for _ in range(600):
        if loop == "psi":
            args, pinned, run, reference = _psi_draw(rng, shape)
        else:
            args, pinned, run, reference = _theta_draw(rng, *shape)
        del handovers[:]
        got = run()
        handed_over = bool(handovers)
        want = reference()
        assert got[0].shape == want[0].shape and got[0].dtype == want[0].dtype
        assert got[0].tobytes() == want[0].tobytes(), args
        assert got[1:] == want[1:], args
        overflowed = want[2] or not np.isfinite(want[0]).all()
        negative_zero = np.signbit(pinned).any()
        one_block = loop == "psi" and shape == 1
        assert handed_over == (one_block or overflowed or negative_zero), args
        seen["stalled" if want[2] else "overflowed" if overflowed
             else "negative zero" if negative_zero else "float"] += 1
    # both sides of the hand-over, a stall behind it, and the -0.0 guard
    assert min(seen[k] for k in ("float", "overflowed", "stalled",
                                 "negative zero")) >= 10, seen


def test_cached_layouts_are_shared_and_read_only():
    rows = kernel._Rows((3, 3))
    assert kernel._Rows((3, 3)) is rows
    theta_rows, target = kernel._theta_layout(3, 2)
    assert kernel._theta_layout(3, 2)[0] is theta_rows
    for a in (rows.starts, rows.row, rows.free, theta_rows.free, target):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1


# near-deterministic rows give log-probability gaps of about 60, so the first
# gradient has entries above 1 and the largest float step overflows a logit
@pytest.mark.parametrize("steps", [1, 3])
def test_step_to_non_finite_belief_logit_raises(steps):
    sched = Schedule(psi_updates_per_obs=steps, theta_updates_per_obs=0,
                     psi_step=np.finfo(float).max)
    state = _warm_state(sched, n=0, params=near_identity_params(2))
    with pytest.raises(ConstraintError, match="non-finite"):
        ingest(state, 1)


@pytest.mark.parametrize("steps", [1, 3])
def test_step_to_non_finite_parameter_raises(steps):
    # a carried gradient far above the horizon makes theta_step / tau times
    # the gradient overflow
    state = _warm_state(Schedule(psi_updates_per_obs=2, theta_updates_per_obs=2))
    state.schedule = Schedule(psi_updates_per_obs=0, theta_updates_per_obs=steps,
                              theta_step=np.finfo(float).max)
    state.summaries = dataclasses.replace(state.summaries,
                                          g=1e6 * state.summaries.g)
    with pytest.raises(ConstraintError, match="non-finite"):
        ingest(state, 1)


def _assert_same_learner(a, b):
    assert (a.tau, a.observations, a.stalls_total) == \
        (b.tau, b.observations, b.stalls_total)
    assert a.history.to_dict() == b.history.to_dict()
    assert np.array_equal(a.params.alpha_tilde, b.params.alpha_tilde)
    assert np.array_equal(a.params.beta_tilde, b.params.beta_tilde)
    assert np.array_equal(a.summaries.v, b.summaries.v)
    assert np.array_equal(a.summaries.g, b.summaries.g)
    for name in ("pi_prev", "pi", "log_pi"):
        x, y = getattr(a.summaries, name), getattr(b.summaries, name)
        assert (x is None and y is None) or np.array_equal(x, y)


@pytest.mark.parametrize("budgets", [(0, 0), (6, 0), (0, 3), (9, 3)])
@pytest.mark.parametrize("K", [1, 2, 3])
def test_a_learner_rebuilt_from_its_carried_values_goes_on_alike(K, budgets):
    # what one ingest carries to the next is (hmm, history, summaries,
    # observations, stalls_total): a learner made from those values alone
    # must go on bit for bit as the one they came from
    M = 3
    truth = random_hmm(K, M, seed=K)
    sched = Schedule(psi_updates_per_obs=budgets[0],
                     theta_updates_per_obs=budgets[1], psi_step=1.5,
                     theta_step=2.0)
    state = init_learner(ModelParams.random(StateSpace(K, M), seed=20 + K),
                         truth.mu, sched)
    obs = random_obs(M, TAU + 20, seed=K)
    for o in obs[:TAU]:
        ingest(state, o)
    rebuilt = learner.LearnerState(
        hmm=state.hmm, schedule=sched,
        history=MfaHistory.from_dict(state.history.to_dict()),
        summaries=state.summaries, observations=list(state.observations),
        stalls_total=state.stalls_total)
    rest = [[dataclasses.replace(ingest(s, o), wall_ms=0.0) for o in obs[TAU:]]
            for s in (state, rebuilt)]
    assert rest[0] == rest[1]
    _assert_same_learner(state, rebuilt)


@pytest.mark.parametrize("oracle", ["self", "reference"])
@pytest.mark.parametrize("K", [1, 2, 3])
def test_an_audit_leaves_the_learner_and_its_record_alone(K, oracle):
    # the audits only read the learner: a twin that skips them goes on
    # bit for bit alike, with the same record outside the oracle columns
    # (and wall_ms); self_audit overwrites elbo with the exact objective
    M = 3
    truth = random_hmm(K, M, seed=K)
    sched = Schedule(psi_updates_per_obs=6, theta_updates_per_obs=3,
                     psi_step=1.5, theta_step=2.0)
    audit = self_audit if oracle == "self" else reference_filter(truth)
    p0 = ModelParams.random(StateSpace(K, M), seed=20 + K)
    state, twin = (init_learner(p0, truth.mu, sched) for _ in range(2))
    own = ["tau", "psi_updates", "theta_updates", "stalls"]
    if oracle == "reference":
        own.append("elbo")
    for o in random_obs(M, TAU, seed=K):
        audited, plain = audit(state, ingest(state, o)), ingest(twin, o)
        assert audited.log_evidence is not None
        assert plain.log_evidence is plain.gap is plain.filter_l1 is None
        assert [getattr(audited, n) for n in own] == \
            [getattr(plain, n) for n in own]
        _assert_same_learner(state, twin)


def test_failed_first_ingest_leaves_the_learner_fresh():
    sane = Schedule(psi_updates_per_obs=3, theta_updates_per_obs=2)
    state = _warm_state(Schedule(psi_updates_per_obs=1, theta_updates_per_obs=0,
                                 psi_step=np.finfo(float).max),
                        n=0, params=near_identity_params(2))
    with pytest.raises(ConstraintError,
                       match="ingest failed at tau=1: .*non-finite"):
        ingest(state, 1)
    assert (state.tau, state.observations, state.history) == (0, [], None)
    state.schedule = sane
    fresh = _warm_state(sane, n=0, params=near_identity_params(2))
    assert ingest(state, 1).elbo == ingest(fresh, 1).elbo
    _assert_same_learner(state, fresh)


@pytest.mark.parametrize("exc", [
    RuntimeError("injected"),
    # its constructor takes five arguments, not one message
    UnicodeDecodeError("utf-8", b"\xff", 0, 1, "injected"),
], ids=["RuntimeError", "UnicodeDecodeError"])
def test_failed_later_ingest_leaves_the_learner_as_it_was(monkeypatch, exc):
    # the fold step fails after both ascent phases have moved the beliefs
    # and the parameters; a foreign error arrives unchanged
    sched = Schedule(psi_updates_per_obs=2, theta_updates_per_obs=2)
    state, twin = _warm_state(sched), _warm_state(sched)

    def broken(*args):
        raise exc

    with monkeypatch.context() as m:
        m.setattr(elbo_mod, "step_summaries", broken)
        with pytest.raises(type(exc), match="injected") as info:
            ingest(state, 1)
    assert info.value is exc
    _assert_same_learner(state, twin)
    for o in (1, 2):
        assert ingest(state, o).elbo == ingest(twin, o).elbo
    _assert_same_learner(state, twin)


def test_failed_ingest_that_grows_the_row_buffer_rolls_back(monkeypatch):
    sched = Schedule(psi_updates_per_obs=2, theta_updates_per_obs=2)
    obs = random_obs(2, 60, seed=5)
    probe = _warm_state(sched, n=0)
    capacity = []
    for o in obs:
        ingest(probe, o)
        capacity.append(len(probe.history.rows.base))
    grow = next(i for i in range(1, len(obs)) if capacity[i] > capacity[i - 1])
    state, twin = _warm_state(sched, n=0), _warm_state(sched, n=0)
    for o in obs[:grow]:
        ingest(state, o)
        ingest(twin, o)
    doc = state.history.to_dict()

    def broken(*args):
        raise RuntimeError("injected")

    with monkeypatch.context() as m:
        m.setattr(elbo_mod, "finish", broken)
        with pytest.raises(RuntimeError, match="injected"):
            ingest(state, obs[grow])
    assert len(state.history.rows.base) == capacity[grow]  # it did grow
    assert state.history.to_dict() == doc
    _assert_same_learner(state, twin)
    rest = [[dataclasses.replace(ingest(s, o), wall_ms=0.0) for o in obs[grow:]]
            for s in (state, twin)]
    assert rest[0] == rest[1]
    _assert_same_learner(state, twin)
