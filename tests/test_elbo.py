import numpy as np
import pytest

from vfe_stream.elbo import (
    base_summaries,
    carried_gradient,
    elbo_recursive,
    finish,
    grad_psi,
    grad_theta,
    scratch_summaries,
    step_inputs,
    step_summaries,
)
from vfe_stream.kernel import params_vector, theta_free, theta_rows
from vfe_stream.mfa import MfaFamily, MfaHistory, augment, full_q
from vfe_stream.model import (
    ConstraintError,
    ModelParams,
    StateSpace,
    build_hmm,
    log_softmax,
    sample_trajectory,
    softmax,
)
from vfe_stream.oracle import (
    brute_force_elbo,
    finite_diff_grad,
    forward_backward,
    forward_filter,
    max_grad_error,
)

from helpers import (
    block_psi_gradient,
    block_psi_gradient_first,
    dense_u_step,
    free_theta,
    near_identity_params,
    random_hmm,
    random_obs,
)


def pin(v) -> np.ndarray:
    v = np.asarray(v, dtype=float).copy()
    v[0] = 0.0
    return v


def random_history(K: int, tau: int, seed: int) -> MfaHistory:
    rng = np.random.default_rng(seed)
    h = MfaHistory(pin(rng.normal(size=K)))
    for _ in range(2, tau + 1):
        augment(h, "uniform")
        h.set_updatable(np.array([pin(0.7 * rng.normal(size=K)),
                                  pin(rng.normal(size=K))]))
    return h


def copy_history(h: MfaHistory) -> MfaHistory:
    return MfaHistory.from_dict(h.to_dict())


def test_elbo_tau1_jensen_equality():
    hmm = random_hmm(3, 2, 0)
    o1 = 2
    base = hmm.log_mu() + hmm.log_A[:, o1 - 1]
    h = MfaHistory(pin(base - base[0]))  # the exact posterior as pinned logits
    val, v = elbo_recursive(hmm, h, [o1])
    m = base.max()
    assert abs(val - (m + np.log(np.exp(base - m).sum()))) < 1e-12
    # at the exact posterior every entry of V_1 is the log evidence
    assert np.allclose(v, val, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("revised", [False, True])
@pytest.mark.parametrize("tau", [1, 2, 3, 40, 400])
@pytest.mark.parametrize("K", [1, 2, 3, 5])
def test_elbo_recursive_matches_the_step_loop(K, tau, revised):
    # the one-pass objective against the V fold, step by step
    rng = np.random.default_rng(1000 * K + tau)
    hmm = random_hmm(K, 3, seed=K + tau)
    obs = random_obs(3, tau, seed=tau)
    h = MfaHistory(pin(rng.normal(size=K)))
    for _ in range(2, tau + 1):
        augment(h, "uniform")
        rev = pin(0.7 * rng.normal(size=K)) if revised else h.updatable_logits()[0]
        h.set_updatable(np.array([rev, pin(rng.normal(size=K))]))
    val, v = elbo_recursive(hmm, h, obs)
    loop = scratch_summaries(hmm, h, obs)
    ref = finish(loop)
    assert abs(val - ref) <= 1e-12 * max(1.0, abs(ref))
    assert v.shape == (K,)
    assert np.max(np.abs(v - loop.v)) <= 1e-12 * max(1.0, np.max(np.abs(loop.v)))


def test_elbo_uniform_symmetry():
    params = ModelParams(alpha_tilde=np.zeros((2, 2)), beta_tilde=np.zeros((2, 2)))
    hmm = build_hmm([0.5, 0.5], params)
    h = MfaHistory(np.zeros(2))
    for _ in range(2):
        augment(h, "uniform")
    val, _ = elbo_recursive(hmm, h, [1, 2, 2])
    assert abs(val - 3 * np.log(0.5)) < 1e-12


def test_elbo_matches_brute_force_seeded():
    hmm = random_hmm(2, 2, 4)
    obs = random_obs(2, 4, 4)
    h = random_history(2, 4, 4)
    val, _ = elbo_recursive(hmm, h, obs)
    brute = brute_force_elbo(hmm, full_q(h, MfaFamily.REVERSED), obs)
    assert abs(val - brute) < 1e-9


def test_elbo_matches_brute_force_grid():
    for seed in range(20):
        K = 2 + seed % 2
        tau = 2 + seed % 5
        hmm = random_hmm(K, 3, seed)
        obs = random_obs(3, tau, seed)
        h = random_history(K, tau, seed)
        val, _ = elbo_recursive(hmm, h, obs)
        brute = brute_force_elbo(hmm, full_q(h, MfaFamily.REVERSED), obs)
        assert abs(val - brute) < 1e-9


def test_elbo_horizon_mismatch():
    hmm = random_hmm(2, 2, 0)
    h = random_history(2, 3, 0)
    with pytest.raises(ConstraintError):
        elbo_recursive(hmm, h, [1, 2])


def test_elbo_bounded_by_evidence():
    for seed in range(30):
        hmm = random_hmm(2, 2, seed)
        obs = random_obs(2, 5, seed)
        h = random_history(2, 5, seed + 100)
        val, _ = elbo_recursive(hmm, h, obs)
        assert val <= forward_filter(hmm, obs).log_evidence + 1e-10


def test_params_free_round_trip():
    space = StateSpace(3, 2)
    p = ModelParams.random(space, seed=1)
    theta = params_vector(p)
    assert theta.shape == (3 * 2 + 3 * 3,)
    assert len(theta_free(3, 2)) == 3 * 1 + 3 * 2
    p2 = ModelParams(*theta_rows(theta, 3, 2))
    assert np.array_equal(p.alpha_tilde, p2.alpha_tilde)
    assert np.array_equal(p.beta_tilde, p2.beta_tilde)
    x0, free, params_at = free_theta(p)
    p3 = params_at(x0)
    assert np.array_equal(p.alpha_tilde, p3.alpha_tilde)
    assert np.array_equal(p.beta_tilde, p3.beta_tilde)


def test_grad_theta_k1_zero_dimensional():
    hmm = build_hmm([1.0], ModelParams(alpha_tilde=[[0.0]], beta_tilde=[[0.0]]))
    h = MfaHistory(np.zeros(1))
    augment(h, "uniform")
    g = grad_theta(hmm, h, [1, 1])
    assert g.shape == (2,) and theta_free(1, 1) == ()
    assert np.all(g == 0.0)


def test_grad_theta_hand_case():
    # uniform everything, single observation o=1: d/d alpha~1(2) of
    # sum_l pi(l) ln A[l][1] is pi(1) * (delta - A[1][2]) = -0.25
    params = ModelParams(alpha_tilde=np.zeros((2, 2)), beta_tilde=np.zeros((2, 2)))
    hmm = build_hmm([0.5, 0.5], params)
    h = MfaHistory(np.zeros(2))
    dalpha, dbeta = theta_rows(grad_theta(hmm, h, [1]), 2, 2)
    assert abs(dalpha[0, 1] - (-0.25)) < 1e-12
    assert np.all(dalpha[:, 0] == 0.0)
    assert np.all(dbeta == 0.0)


def test_grad_theta_matches_finite_differences():
    for seed in range(12):
        K = 2 + seed % 2
        hmm = random_hmm(K, 2, seed)
        obs = random_obs(2, 4, seed)
        h = random_history(K, 4, seed)
        free0, free, params_at = free_theta(hmm.params)

        def f(vec):
            return elbo_recursive(build_hmm(hmm.mu, params_at(vec)), h, obs)[0]

        analytic = grad_theta(hmm, h, obs)[free]
        assert max_grad_error(analytic, finite_diff_grad(f, free0)) <= 1.0


def test_grad_theta_pinned_coordinates_exactly_zero():
    hmm = random_hmm(3, 3, 2)
    h = random_history(3, 3, 2)
    g = grad_theta(hmm, h, random_obs(3, 3, 2))
    dalpha, dbeta = theta_rows(g, 3, 3)
    assert np.all(dalpha[:, 0] == 0.0)
    assert np.all(dbeta[:, 0] == 0.0)
    assert np.count_nonzero(g) == len(theta_free(3, 3))


def test_grad_psi_tau1_matches_finite_differences():
    hmm = random_hmm(2, 2, 7)
    h = MfaHistory(pin([0.0, 0.3]))
    g = grad_psi(hmm, h, [1])

    def f(v):
        return elbo_recursive(hmm, MfaHistory(pin([0.0, v[0]])), [1])[0]

    num = finite_diff_grad(f, np.array([0.3]))
    assert max_grad_error(g, num) <= 1.0
    assert g.shape == (1,)


def test_grad_psi_matches_finite_differences():
    for seed in range(12):
        K = 2 + seed % 2
        hmm = random_hmm(K, 2, seed)
        obs = random_obs(2, 4, seed)
        h = random_history(K, 4, seed + 50)
        x0 = h.updatable_logits()[:, 1:].ravel()

        def f(x):
            h2 = copy_history(h)
            h2.set_updatable(np.insert(x.reshape(2, K - 1), 0, 0.0, axis=1))
            return elbo_recursive(hmm, h2, obs)[0]

        analytic = grad_psi(hmm, h, obs)
        assert analytic.shape == (2 * K - 2,)
        assert max_grad_error(analytic, finite_diff_grad(f, x0)) <= 1.0


def test_grad_psi_stationary_at_factorized_posterior():
    # uniform transitions cancel, so the exact posterior is a product over
    # steps; setting the blocks to the smoothing marginals maximizes the
    # bound: the updatable gradient vanishes and the bound is tight
    hmm = build_hmm([0.5, 0.5],
                    ModelParams(alpha_tilde=near_identity_params(2).alpha_tilde,
                                beta_tilde=np.zeros((2, 2))))
    obs = [1, 2]
    sm = forward_backward(hmm, obs).marginals
    logits = [np.log(row) - np.log(row[0]) for row in sm]
    h = MfaHistory(pin(logits[0]))
    augment(h, "uniform")
    h.set_updatable(np.array([pin(logits[0]), pin(logits[1])]))
    g = grad_psi(hmm, h, obs)
    assert np.linalg.norm(g) <= 1e-8
    val, _ = elbo_recursive(hmm, h, obs)
    assert abs(val - forward_filter(hmm, obs).log_evidence) < 1e-9


@pytest.mark.parametrize("tau", [1, 2, 4])
@pytest.mark.parametrize("K", [2, 3])
def test_block_psi_gradient_matches_finite_differences(K, tau):
    # the block-form reference that test_kernel holds the flat kernel
    # gradient to, checked here against the objective itself
    hmm = random_hmm(K, 3, seed=K + tau)
    obs = random_obs(3, tau, seed=tau)
    h = random_history(K, tau, seed=20 + tau)
    prev = None
    if tau > 1:
        # the history before its newest snapshot: the rows but its last two
        prefix = MfaHistory.from_dict({"horizon": tau - 1,
                                       "rho": h.rows[:-2].tolist(),
                                       "frozen_below": tau - 2})
        prev = scratch_summaries(hmm, prefix, obs[:-1])
    W, G = step_inputs(hmm, prev, obs[-1])
    rows = h.updatable_logits()
    if tau == 1:
        blocks = [block_psi_gradient_first(W, rows[0])]
    else:
        blocks = list(block_psi_gradient(W, G, *rows))
    assert all(g[0] == 0.0 for g in blocks)
    x0 = rows[:, 1:].ravel()

    def f(x):
        h2 = copy_history(h)
        h2.set_updatable(np.insert(x.reshape(len(blocks), K - 1), 0, 0.0, axis=1))
        return elbo_recursive(hmm, h2, obs)[0]

    analytic = np.concatenate([g[1:] for g in blocks])
    assert max_grad_error(analytic, finite_diff_grad(f, x0)) <= 1.0
    # and the kernel's flat gradient, which grad_psi evaluates, is the same
    flat = grad_psi(hmm, h, obs)
    assert np.max(np.abs(flat - analytic)) <= 1e-12 * max(1.0, np.max(np.abs(analytic)))


def test_streaming_manual_two_step_bit_identical():
    hmm = random_hmm(2, 2, 13)
    obs = random_obs(2, 2, 13)
    h = random_history(2, 2, 13)
    p = np.array([softmax(r) for r in h.rows])
    log_p = np.array([log_softmax(r) for r in h.rows])
    s1 = base_summaries(hmm, p[0], log_p[0], obs[0])
    g = carried_gradient(s1, p[1], params_vector(hmm.params), obs[0])
    s2 = step_summaries(s1, hmm, obs[1], p[1:], log_p[1:], g)
    scratch = scratch_summaries(hmm, h, obs)
    for name in ("v", "g", "pi_prev", "pi", "log_pi"):
        assert np.array_equal(getattr(s2, name), getattr(scratch, name))
    assert finish(s2) == finish(scratch)


def test_streaming_matches_scratch_along_stream():
    # grow a history step by step; carried summaries equal the full fold at
    # every horizon as long as theta and frozen blocks are unchanged
    hmm = random_hmm(3, 2, 14)
    obs = random_obs(2, 12, 14)
    rng = np.random.default_rng(14)
    h = MfaHistory(pin(rng.normal(size=3)))
    theta = params_vector(hmm.params)
    row = h.superseded_logits(1)
    summaries = base_summaries(hmm, softmax(row), log_softmax(row), obs[0])
    for t in range(2, 13):
        augment(h, "uniform")
        h.set_updatable(np.array([pin(0.5 * rng.normal(size=3)),
                                  pin(rng.normal(size=3))]))
        rows = h.updatable_logits()
        p = np.array([softmax(r) for r in rows])
        g = carried_gradient(summaries, p[0], theta, obs[t - 2])
        summaries = step_summaries(summaries, hmm, obs[t - 1], p,
                                   log_softmax(rows), g)
        scratch = scratch_summaries(hmm, h, obs[:t])
        assert abs(finish(summaries) - finish(scratch)) < 1e-10
        assert np.allclose(summaries.v, scratch.v, atol=1e-10)
        assert np.allclose(summaries.g, scratch.g, atol=1e-10)


@pytest.mark.parametrize("tau", [1, 2, 12])
@pytest.mark.parametrize("K,M", [(1, 3), (2, 2), (3, 4)])
def test_carried_gradient_is_the_dense_fold_contracted(K, M, tau):
    # g_tau = pi_{tau-1} @ U_{tau-1}, with U folded one row per terminal
    # state as in tests/helpers.py; g_1 = 0
    hmm = random_hmm(K, M, seed=K + M)
    obs = random_obs(M, tau, seed=K)
    h = random_history(K, tau, seed=K + tau)
    g = scratch_summaries(hmm, h, obs).g
    want = np.zeros(K * M + K * K)
    u = None
    for t in range(1, tau):
        w = h.belief(t - 1) if t > 1 else None
        u = dense_u_step(u, w, hmm.A, hmm.B, obs[t - 1] - 1)
        want = h.belief(t) @ u
    assert g.shape == want.shape
    assert np.max(np.abs(g - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_contraction_matches_brute_theta_gradient():
    # the carried g plus the final step's part is the exact gradient of
    # the brute-force objective (same value the FD sweep checks, here
    # asserted against the enumerated expectation instead)
    hmm = random_hmm(2, 2, 15)
    obs = random_obs(2, 3, 15)
    h = random_history(2, 3, 15)
    free0, free, params_at = free_theta(hmm.params)

    def f(vec):
        h2 = build_hmm(hmm.mu, params_at(vec))
        return brute_force_elbo(h2, full_q(h, MfaFamily.REVERSED), obs)

    analytic = grad_theta(hmm, h, obs)[free]
    assert max_grad_error(analytic, finite_diff_grad(f, free0)) <= 1.0
