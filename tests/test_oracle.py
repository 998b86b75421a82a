import numpy as np
import pytest

from vfe_stream.model import ConstraintError, ModelParams, build_hmm
from vfe_stream.oracle import (
    ENUMERATION_GUARD,
    GuardError,
    brute_force_elbo,
    check_enumeration,
    enumerate_log_joint,
    enumerate_posterior,
    finite_diff_grad,
    forward_backward,
    forward_filter,
    max_grad_error,
    tree_filter,
    vfe,
    vfe_forms,
)

from helpers import near_identity_params, random_hmm, random_obs


def test_filter_degenerate():
    hmm = build_hmm([1.0], ModelParams(alpha_tilde=[[0.0]], beta_tilde=[[0.0]]))
    res = forward_filter(hmm, [1, 1, 1])
    assert np.allclose(res.marginals, 1.0, atol=1e-15)
    assert res.log_evidence == 0.0


def test_filter_uniform_symmetry():
    params = ModelParams(alpha_tilde=np.zeros((2, 2)), beta_tilde=np.zeros((2, 2)))
    hmm = build_hmm([0.5, 0.5], params)
    res = forward_filter(hmm, [1, 2, 2, 1])
    assert abs(res.log_evidence - 4 * np.log(0.5)) < 1e-12
    assert np.allclose(res.marginals, 0.5, atol=1e-12)


def test_filter_matches_enumeration_concrete():
    A = np.array([[0.9, 0.1], [0.2, 0.8]])
    B = np.array([[0.7, 0.3], [0.4, 0.6]])
    hmm = build_hmm([0.5, 0.5], ModelParams.from_matrices(A=A, B=B))
    obs = [1, 2, 1]
    logs = enumerate_log_joint(hmm, obs)
    m = logs.max()
    brute = m + np.log(np.exp(logs - m).sum())
    assert abs(forward_filter(hmm, obs).log_evidence - brute) < 1e-12


def test_filter_marginals_normalized():
    for seed in range(10):
        hmm = random_hmm(3, 2, seed)
        res = forward_filter(hmm, random_obs(2, 7, seed))
        assert np.allclose(res.marginals.sum(axis=1), 1.0, atol=1e-10)


def test_evidence_consistency_sweep():
    # filter log-evidence == log-sum-exp of the enumerated joints
    for seed in range(12):
        K = 2 + seed % 2
        hmm = random_hmm(K, 3, seed)
        obs = random_obs(3, 5, seed)
        logs = enumerate_log_joint(hmm, obs)
        m = logs.max()
        lse = m + np.log(np.exp(logs - m).sum())
        assert abs(forward_filter(hmm, obs).log_evidence - lse) < 1e-10


@pytest.mark.parametrize("tau", [1, 2, 3, 7, 8, 9, 250, 5000])
@pytest.mark.parametrize("K", [1, 2, 3])
def test_tree_filter_matches_the_loop(K, tau):
    # odd levels carry their last matrix over (7 and 9), and a zero mu entry
    # puts a zero in alpha_1
    hmm = random_hmm(K, 3, seed=K + tau)
    models = [hmm]
    if K > 1:
        mu = np.full(K, 1.0 / (K - 1))
        mu[0] = 0.0
        models.append(build_hmm(mu, hmm.params))
    obs = random_obs(3, tau, seed=tau)
    for model in models:
        ref = forward_filter(model, obs)
        marginal, log_z = tree_filter(model, obs)
        assert abs(log_z - ref.log_evidence) <= 1e-12 * abs(ref.log_evidence)
        assert np.max(np.abs(marginal - ref.marginals[-1])) <= 1e-14


@pytest.mark.parametrize("obs", [[2], [1, 1, 2], [1, 2, 1, 1, 1, 1, 1]])
def test_tree_filter_refuses_a_zero_probability_observation(obs):
    # exp(-1000) is 0.0: no state emits symbol 2
    hmm = build_hmm([0.5, 0.5], ModelParams(alpha_tilde=[[0.0, -1000.0]] * 2,
                                            beta_tilde=np.zeros((2, 2))))
    assert (hmm.A[:, 1] == 0.0).all()
    for fn in (forward_filter, tree_filter):
        with pytest.raises(ConstraintError, match="zero probability"):
            fn(hmm, obs)


def test_smoothing_degenerate():
    hmm = build_hmm([1.0], ModelParams(alpha_tilde=[[0.0]], beta_tilde=[[0.0]]))
    res = forward_backward(hmm, [1, 1])
    assert np.allclose(res.marginals, 1.0, atol=1e-15)


def test_smoothing_near_deterministic_emissions():
    # near-identity A with uniform transitions: the chain factor cancels and
    # each smoothing marginal pins on the observed symbol
    hmm = build_hmm([0.5, 0.5],
                    ModelParams(alpha_tilde=near_identity_params(2).alpha_tilde,
                                beta_tilde=np.zeros((2, 2))))
    obs = [1, 2, 2, 1]
    res = forward_backward(hmm, obs)
    for t, o in enumerate(obs):
        assert res.marginals[t, o - 1] > 1.0 - 1e-9


def test_smoothing_matches_enumeration():
    for seed in range(8):
        hmm = random_hmm(2, 2, seed)
        obs = random_obs(2, 4, seed)
        res = forward_backward(hmm, obs)
        post = enumerate_posterior(hmm, obs)
        table = post.table.reshape((2,) * 4)
        for t in range(4):
            axes = tuple(i for i in range(4) if i != t)
            assert np.allclose(res.marginals[t], table.sum(axis=axes), atol=1e-10)
        for t in range(3):
            axes = tuple(i for i in range(4) if i not in (t, t + 1))
            pair = table.sum(axis=axes)
            assert np.allclose(res.pairwise[t], pair, atol=1e-10)


def test_smoothing_pairwise_marginalizes():
    for seed in range(8):
        hmm = random_hmm(3, 3, seed)
        res = forward_backward(hmm, random_obs(3, 6, seed))
        for t in range(5):
            assert np.allclose(res.pairwise[t].sum(axis=1), res.marginals[t], atol=1e-10)
            assert np.allclose(res.pairwise[t].sum(axis=0), res.marginals[t + 1], atol=1e-10)


def test_enumerate_posterior_degenerate():
    hmm = build_hmm([1.0], ModelParams(alpha_tilde=[[0.0]], beta_tilde=[[0.0]]))
    post = enumerate_posterior(hmm, [1, 1, 1])
    assert post.table.shape == (1,)
    assert abs(post.table[0] - 1.0) < 1e-15


def test_enumerate_posterior_point_mass():
    hmm = build_hmm([1.0, 0.0], near_identity_params(2))
    post = enumerate_posterior(hmm, [1, 1, 1])
    # C order, s_1 slowest: sequence (1,1,1) is entry 0
    assert post.table[0] > 1.0 - 1e-9


def test_enumerate_posterior_sums_to_one():
    for seed in range(10):
        hmm = random_hmm(2, 3, seed)
        post = enumerate_posterior(hmm, random_obs(3, 5, seed))
        assert abs(post.table.sum() - 1.0) < 1e-10


def test_enumeration_guard():
    hmm = random_hmm(2, 2, 0)
    with pytest.raises(GuardError):
        enumerate_posterior(hmm, [1] * 21)  # 2^21 > 10^6
    assert ENUMERATION_GUARD == 10**6
    # the boundaries: 10^6 and 2^19 pass, 10^7 and 2^20 refuse, and K = 1
    # passes at any tau without 1^tau being formed
    for K, tau in ((10, 6), (2, 19), (1, 10**8)):
        check_enumeration(K, tau)
    for K, tau in ((10, 7), (2, 20)):
        with pytest.raises(GuardError):
            check_enumeration(K, tau)


def test_vfe_at_posterior_is_neg_evidence():
    for seed in range(10):
        hmm = random_hmm(2, 2, seed)
        obs = random_obs(2, 4, seed)
        post = enumerate_posterior(hmm, obs)
        assert abs(vfe(hmm, post, obs) + post.log_evidence) < 1e-10


def test_vfe_degenerate_closed_form():
    h = build_hmm([1.0], ModelParams(alpha_tilde=[[0.0, np.log(4.0)]],
                                     beta_tilde=[[0.0]]))
    obs = [2, 1, 2]
    q = np.ones(1)
    expect = -sum(np.log(h.A[0, o - 1]) for o in obs)
    assert abs(vfe(h, q, obs) - expect) < 1e-12


def test_vfe_uniform_everything():
    params = ModelParams(alpha_tilde=np.zeros((2, 2)), beta_tilde=np.zeros((2, 2)))
    hmm = build_hmm([0.5, 0.5], params)
    tau = 3
    q = np.full(2**tau, 1.0 / 2**tau)
    assert abs(vfe(hmm, q, [1, 2, 1]) - (-tau * np.log(0.5))) < 1e-10


def test_vfe_rejects_invalid_q():
    hmm = random_hmm(2, 2, 1)
    obs = [1, 2]
    with pytest.raises(ConstraintError):
        vfe(hmm, np.array([0.5, 0.5, 0.5, 0.6]), obs)
    with pytest.raises(ConstraintError):
        vfe(hmm, np.array([1.2, -0.2, 0.0, 0.0]), obs)


def test_vfe_two_forms_agree():
    for seed in range(15):
        hmm = random_hmm(2, 2, seed)
        obs = random_obs(2, 4, seed)
        rng = np.random.default_rng(seed)
        q = rng.dirichlet(np.ones(2**4))
        kl_form, joint_form = vfe_forms(hmm, q, obs)
        assert abs(kl_form - joint_form) < 1e-10
        assert joint_form >= -forward_filter(hmm, obs).log_evidence - 1e-12


def test_brute_force_elbo_at_posterior():
    for seed in range(5):
        hmm = random_hmm(2, 3, seed)
        obs = random_obs(3, 4, seed)
        post = enumerate_posterior(hmm, obs)
        assert abs(brute_force_elbo(hmm, post, obs) - post.log_evidence) < 1e-10


def test_brute_force_elbo_jensen_bound():
    for seed in range(200):
        hmm = random_hmm(2, 2, seed)
        obs = random_obs(2, 3, seed)
        rng = np.random.default_rng(seed)
        q = rng.dirichlet(np.ones(8))
        val = brute_force_elbo(hmm, q, obs)
        assert val <= forward_filter(hmm, obs).log_evidence + 1e-12
        assert abs(val + vfe(hmm, q, obs)) < 1e-10


def test_brute_force_elbo_deterministic():
    hmm = random_hmm(2, 2, 77)
    obs = [1, 2, 1]
    rng = np.random.default_rng(77)
    q = rng.dirichlet(np.ones(8))
    assert brute_force_elbo(hmm, q, obs) == brute_force_elbo(hmm, q.copy(), obs)


def test_finite_diff_quadratic():
    g = finite_diff_grad(lambda x: float(x[0] ** 2), np.array([3.0]))
    assert abs(g[0] - 6.0) < 1e-6


def test_finite_diff_constant():
    g = finite_diff_grad(lambda x: 4.2, np.zeros(3))
    assert np.all(np.abs(g) < 1e-10)


def test_finite_diff_matches_analytic_softmax():
    # d/dv_i ln softmax_j(v) = delta_ij - softmax_i(v)
    from vfe_stream.model import log_softmax, softmax_row
    v = np.array([0.3, -1.0, 0.7])
    j = 1
    g = finite_diff_grad(lambda x: float(log_softmax(x)[j]), v)
    p = softmax_row(v)
    expect = -p
    expect[j] += 1.0
    assert max_grad_error(expect, g) <= 1.0


def test_grad_tolerance_policy():
    # scaled error: |a - n| <= rel * max(|a|, |n|, floor/rel) passes
    assert max_grad_error(np.array([1.0]), np.array([1.0 + 9e-6])) <= 1.0
    assert max_grad_error(np.array([1.0]), np.array([1.0 + 2e-5])) > 1.0
    # tiny values fall under the absolute floor
    assert max_grad_error(np.array([0.0]), np.array([9e-9])) <= 1.0
    assert max_grad_error(np.array([0.0]), np.array([2e-8])) > 1.0
    assert max_grad_error(np.array([1.0]), np.array([1.0])) == 0.0
    assert max_grad_error(np.array([1.0]), np.array([1.0 + 1e-5])) <= 1.0 + 1e-9


@pytest.mark.parametrize("analytic,numeric", [
    ([1.0], [1.0, 1.0, 1.0]),
    ([1.0, 1.0], []),
    ([], [0.0]),
], ids=["broadcast", "empty-numeric", "empty-analytic"])
def test_grad_error_on_mismatched_shapes_is_infinite(analytic, numeric):
    # broadcasting once scored [1.0] against [1.0, 1.0, 1.0] as 0.0, a pass
    assert max_grad_error(analytic, numeric) == float("inf")


def test_vfe_trajectory_independence_of_impossible_mass():
    # adding the zero row of mu never produces NaN: log space is guarded
    hmm = build_hmm([1.0, 0.0], near_identity_params(2))
    obs = [1, 1]
    post = enumerate_posterior(hmm, obs)
    v = vfe(hmm, post, obs)
    assert np.isfinite(v)
    assert abs(v + post.log_evidence) < 1e-10
