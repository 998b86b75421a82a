import json

import numpy as np
import pytest

from vfe_stream.model import (
    ConstraintError,
    ModelParams,
    StateSpace,
    Trajectory,
    build_hmm,
    hmm_from_config,
    log_softmax,
    sample_trajectory,
    softmax_row,
)

from helpers import log_joint, near_identity_params


def test_softmax_row_symmetry():
    assert np.allclose(softmax_row([0.0, 0.0, 0.0]), [1 / 3] * 3, atol=1e-15)
    assert softmax_row([0.0]).tolist() == [1.0]


def test_softmax_row_closed_form():
    p = softmax_row([0.0, np.log(3.0)])
    assert np.allclose(p, [0.25, 0.75], atol=1e-12)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.normal(size=5)
        c = rng.normal()
        assert np.allclose(softmax_row(v), softmax_row(v + c), atol=1e-12)


def test_softmax_rejects_non_finite():
    with pytest.raises(ConstraintError):
        softmax_row([0.0, np.inf])
    with pytest.raises(ConstraintError):
        softmax_row([np.nan])


def test_log_softmax_consistent():
    rng = np.random.default_rng(1)
    for _ in range(10):
        v = rng.normal(size=4) * 10
        assert np.allclose(np.exp(log_softmax(v)), softmax_row(v), atol=1e-12)


def test_model_params_pinning_enforced():
    with pytest.raises(ConstraintError):
        ModelParams(alpha_tilde=[[0.1, 0.0]], beta_tilde=[[0.0]])
    with pytest.raises(ConstraintError):
        ModelParams(alpha_tilde=[[0.0, 1.0]], beta_tilde=[[0.0, 0.0], [0.5, 0.0]])
    with pytest.raises(ConstraintError):
        ModelParams(alpha_tilde=[[0.0, np.inf]], beta_tilde=[[0.0]])


def test_random_params_seeded_and_pinned():
    space = StateSpace(2, 3)
    a = ModelParams.random(space, seed=7)
    b = ModelParams.random(space, seed=7)
    assert np.array_equal(a.alpha_tilde, b.alpha_tilde)
    assert np.array_equal(a.beta_tilde, b.beta_tilde)
    assert np.all(a.alpha_tilde[:, 0] == 0.0)
    assert np.all(a.beta_tilde[:, 0] == 0.0)
    assert np.all(np.abs(a.alpha_tilde) <= 0.5)


def test_build_hmm_uniform():
    params = ModelParams(alpha_tilde=np.zeros((2, 2)), beta_tilde=np.zeros((2, 2)))
    hmm = build_hmm([0.5, 0.5], params)
    assert np.allclose(hmm.A, 0.5, atol=1e-15)
    assert np.allclose(hmm.B, 0.5, atol=1e-15)


def test_build_hmm_degenerate_and_closed_form():
    one = build_hmm([1.0], ModelParams(alpha_tilde=[[0.0]], beta_tilde=[[0.0]]))
    assert one.A.tolist() == [[1.0]] and one.B.tolist() == [[1.0]]
    h = build_hmm([1.0], ModelParams(alpha_tilde=[[0.0, np.log(9.0)]],
                                     beta_tilde=[[0.0]]))
    assert np.allclose(h.A, [[0.1, 0.9]], atol=1e-12)


def test_build_hmm_rejects_bad_mu():
    params = ModelParams(alpha_tilde=np.zeros((2, 2)), beta_tilde=np.zeros((2, 2)))
    with pytest.raises(ConstraintError):
        build_hmm([0.6, 0.6], params)
    with pytest.raises(ConstraintError):
        build_hmm([1.2, -0.2], params)


def test_rows_stochastic_and_positive():
    rng = np.random.default_rng(3)
    for seed in range(20):
        space = StateSpace(int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        hmm = build_hmm(np.full(space.K, 1.0 / space.K),
                        ModelParams.random(space, seed=seed, scale=3.0))
        for mat in (hmm.A, hmm.B):
            assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(mat > 0.0)


def test_from_matrices_round_trip():
    A = np.array([[0.9, 0.1], [0.2, 0.8]])
    B = np.array([[0.7, 0.3], [0.4, 0.6]])
    hmm = build_hmm([0.5, 0.5], ModelParams.from_matrices(A=A, B=B))
    assert np.allclose(hmm.A, A, atol=1e-12)
    assert np.allclose(hmm.B, B, atol=1e-12)
    assert np.all(hmm.params.alpha_tilde[:, 0] == 0.0)


def test_sample_single_state():
    hmm = build_hmm([1.0], ModelParams(alpha_tilde=[[0.0]], beta_tilde=[[0.0]]))
    traj = sample_trajectory(hmm, 5, seed=0)
    assert traj.states == (1, 1, 1, 1, 1)
    assert traj.observations == (1, 1, 1, 1, 1)


def test_sample_absorbing_chain():
    # mu = [1, 0] with a (near) identity transition keeps the chain in state 1
    hmm = build_hmm([1.0, 0.0], near_identity_params(2))
    traj = sample_trajectory(hmm, 3, seed=11)
    assert traj.states == (1, 1, 1)


def test_sample_empirical_transitions():
    A = np.array([[0.9, 0.1], [0.1, 0.9]])
    B = np.array([[0.7, 0.3], [0.4, 0.6]])
    hmm = build_hmm([0.5, 0.5], ModelParams.from_matrices(A=A, B=B))
    traj = sample_trajectory(hmm, 10_000, seed=42)
    s = np.array(traj.states) - 1
    counts = np.zeros((2, 2))
    for a, b in zip(s[:-1], s[1:]):
        counts[a, b] += 1
    freq = counts / counts.sum(axis=1, keepdims=True)
    assert np.max(np.abs(freq - B)) < 0.02


def test_sample_emission_frequencies():
    A = np.array([[0.9, 0.1], [0.1, 0.9]])
    B = np.array([[0.7, 0.3], [0.4, 0.6]])
    hmm = build_hmm([0.5, 0.5], ModelParams.from_matrices(A=A, B=B))
    traj = sample_trajectory(hmm, 10_000, seed=42)
    s = np.array(traj.states) - 1
    o = np.array(traj.observations) - 1
    for i in range(2):
        rows = o[s == i]
        freq = np.bincount(rows, minlength=2) / len(rows)
        assert np.max(np.abs(freq - A[i])) < 0.02


def test_sample_deterministic_and_validates():
    hmm = build_hmm([0.5, 0.5], ModelParams.random(StateSpace(2, 2), seed=5))
    a = sample_trajectory(hmm, 50, seed=9)
    b = sample_trajectory(hmm, 50, seed=9)
    assert a.states == b.states and a.observations == b.observations
    assert sample_trajectory(hmm, 0, seed=1).observations == ()
    with pytest.raises(ConstraintError):
        sample_trajectory(hmm, -1, seed=1)


def test_log_joint_degenerate():
    hmm = build_hmm([1.0], ModelParams(alpha_tilde=[[0.0]], beta_tilde=[[0.0]]))
    traj = Trajectory(states=(1, 1, 1), observations=(1, 1, 1))
    assert log_joint(hmm, traj) == 0.0


def test_log_joint_concrete():
    A = np.array([[0.9, 0.1], [0.2, 0.8]])
    B = np.array([[0.7, 0.3], [0.4, 0.6]])
    hmm = build_hmm([0.5, 0.5], ModelParams.from_matrices(A=A, B=B))
    traj = Trajectory(states=(1, 2), observations=(1, 2))
    # 0.5 * 0.9 * 0.3 * 0.8
    assert abs(log_joint(hmm, traj) - np.log(0.108)) < 1e-12


def test_log_joint_uniform_counts_factors():
    params = ModelParams(alpha_tilde=np.zeros((2, 2)), beta_tilde=np.zeros((2, 2)))
    hmm = build_hmm([0.5, 0.5], params)
    traj = Trajectory(states=(1, 2), observations=(2, 1))
    # 1 initial + 1 transition + 2 emissions
    assert abs(log_joint(hmm, traj) - 4 * np.log(0.5)) < 1e-12


def test_log_joint_additivity():
    hmm = build_hmm([0.3, 0.7], ModelParams.random(StateSpace(2, 3), seed=2))
    traj = sample_trajectory(hmm, 8, seed=3)
    prefix = Trajectory(states=traj.states[:5], observations=traj.observations[:5])
    inc = 0.0
    for t in range(5, 8):
        s_prev, s, o = traj.states[t - 1] - 1, traj.states[t] - 1, traj.observations[t] - 1
        inc += np.log(hmm.B[s_prev, s]) + np.log(hmm.A[s, o])
    assert abs(log_joint(hmm, traj) - (log_joint(hmm, prefix) + inc)) < 1e-12


def test_trajectory_validation():
    with pytest.raises(ConstraintError):
        Trajectory(states=(1, 2), observations=(1,))
    hmm = build_hmm([0.5, 0.5], ModelParams.random(StateSpace(2, 2), seed=0))
    with pytest.raises(ConstraintError):
        log_joint(hmm, Trajectory(states=(0, 1), observations=(1, 1)))
    with pytest.raises(ConstraintError):
        log_joint(hmm, Trajectory(states=(1, 1), observations=(1, 3)))


def test_hmm_from_config_both_forms():
    doc = {"K": 2, "M": 2, "mu": [0.5, 0.5],
           "A": [[0.9, 0.1], [0.2, 0.8]], "B": [[0.7, 0.3], [0.4, 0.6]]}
    h1 = hmm_from_config(doc)
    assert np.allclose(h1.A, doc["A"], atol=1e-12)
    # the same model in logit form
    doc2 = {"K": 2, "M": 2, "mu": [0.5, 0.5],
            "alpha_tilde": h1.params.alpha_tilde.tolist(),
            "beta_tilde": h1.params.beta_tilde.tolist()}
    h2 = hmm_from_config(json.loads(json.dumps(doc2)))
    assert np.allclose(h2.A, h1.A, atol=1e-15)
    assert np.allclose(h2.B, h1.B, atol=1e-15)


def test_hmm_from_config_rejects_bad_docs():
    with pytest.raises(ConstraintError):
        hmm_from_config({"K": 2, "M": 2, "mu": [0.5, 0.5]})
    with pytest.raises(ConstraintError):
        hmm_from_config({"K": 2, "M": 2, "mu": [0.5, 0.5],
                         "A": [[0.9, 0.1], [0.2, 0.8]],
                         "B": [[0.7, 0.3], [0.4, 0.6]], "extra": 1})
