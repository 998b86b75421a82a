import gc
import tracemalloc

import numpy as np
import pytest

from vfe_stream.mfa import (
    MfaFamily,
    MfaHistory,
    augment,
    extension_factor,
    full_q,
    m_conditional,
    prediction_logits,
)
from vfe_stream.model import ConstraintError, ModelParams, build_hmm
from vfe_stream.oracle import (
    GuardError,
    brute_force_elbo,
    forward_backward,
    forward_filter,
)

from helpers import (frozen_fingerprint, hat_elbo,
                     pairwise_tables_from_history, random_hmm, random_obs)


def pin(v) -> np.ndarray:
    v = np.asarray(v, dtype=float).copy()
    v[0] = 0.0
    return v


def random_history(K: int, tau: int, seed: int) -> MfaHistory:
    rng = np.random.default_rng(seed)
    h = MfaHistory(pin(rng.normal(size=K)))
    for _ in range(2, tau + 1):
        augment(h, "uniform")
        h.set_updatable(np.array([pin(rng.normal(size=K)),
                                  pin(rng.normal(size=K))]))
    return h


def test_m_conditional_no_revision():
    pi = np.array([0.3, 0.7])
    m, row_sums = m_conditional(pi, np.array([0.6, 0.4]), pi)
    assert np.allclose(row_sums, 1.0, atol=1e-12)
    assert np.allclose(m, [[0.6, 0.4], [0.6, 0.4]], atol=1e-12)


def test_m_conditional_degenerate():
    m, row_sums = m_conditional(np.array([1.0]), np.array([1.0]), np.array([1.0]))
    assert m.tolist() == [[1.0]]
    assert row_sums.tolist() == [1.0]


def test_m_conditional_concrete_table():
    m, row_sums = m_conditional(np.array([0.6, 0.4]), np.array([0.3, 0.7]),
                                np.array([0.5, 0.5]))
    assert np.allclose(m, [[0.36, 0.84], [0.24, 0.56]], atol=1e-12)
    assert np.allclose(row_sums, [1.2, 0.8], atol=1e-12)


def test_augment_zeros_gives_uniform():
    h = MfaHistory(pin([0.0, 1.0]))
    augment(h, "uniform")
    assert np.allclose(h.belief(2), 0.5, atol=1e-15)
    assert h.horizon == 2


def test_augment_prediction_warm_start():
    B = np.array([[0.7, 0.3], [0.4, 0.6]])
    hmm = build_hmm([0.5, 0.5], ModelParams.from_matrices(
        A=np.array([[0.9, 0.1], [0.2, 0.8]]), B=B))
    h = MfaHistory(pin([0.0, np.log(3.0)]))  # pi = [0.25, 0.75]
    pred = prediction_logits(hmm, h.belief(1))
    augment(h, "prediction", hmm=hmm, belief=h.belief(1))
    # hand computation: B^T . [0.25, 0.75] = [0.475, 0.525]
    expect = np.array([0.475, 0.525])
    assert np.allclose(h.belief(2), expect / expect.sum(), atol=1e-12)
    assert pred[0] == 0.0


def test_augment_rejects_unknown_rules_and_missing_prediction_inputs():
    hmm = random_hmm(2, 2, seed=0)
    h = MfaHistory(pin([0.0, 0.4]))
    for rule, kwargs in [("zeros", {}), ("prediction", {"hmm": hmm}),
                         ("prediction", {"belief": h.belief(1)})]:
        with pytest.raises(ConstraintError):
            augment(h, rule, **kwargs)
    assert h.horizon == 1


def test_augment_freezing_bit_identical():
    h = MfaHistory(pin([0.0, 0.4]))
    augment(h, "uniform")
    h.set_updatable(np.array([pin([0.0, -0.3]), pin([0.0, 0.9])]))
    frozen = h.belief_logits(1).copy()
    augment(h, "uniform")
    h.set_updatable(np.array([pin([0.0, 2.0]), pin([0.0, -1.0])]))
    assert np.array_equal(h.belief_logits(1), frozen)
    assert h.frozen_below == 2


def test_set_updatable_rejected_at_horizon_one():
    h = MfaHistory(pin([0.0, 0.4]))
    with pytest.raises(ConstraintError):
        h.set_updatable(np.array([pin([0.0, 1.0]), pin([0.0, 0.0])]))


def test_set_updatable_requires_pinning():
    h = random_history(2, 3, 0)
    rows = h.updatable_logits().copy()
    rows[1] = [0.5, 0.0]
    with pytest.raises(ConstraintError):
        h.set_updatable(rows)


def test_frozen_fingerprint_tracks_only_frozen_blocks():
    h = random_history(3, 4, 1)
    fp = frozen_fingerprint(h)
    h.set_updatable(np.array([pin([0.0, 1.0, -1.0]), pin([0.0, 0.5, 0.5])]))
    assert frozen_fingerprint(h) == fp


def test_full_q_single_step():
    h = MfaHistory(pin([0.0, np.log(3.0)]))
    q = full_q(h, MfaFamily.REVERSED)
    assert np.allclose(q.table, [0.25, 0.75], atol=1e-12)
    assert abs(q.total_mass - 1.0) < 1e-12


def test_full_q_no_revision_is_product():
    # leaving the previous block unrevised makes every m row normalized
    h = MfaHistory(pin([0.0, 0.5]))
    for logits in ([0.0, -0.7], [0.0, 1.2]):
        prev = h.belief_logits(h.horizon).copy()
        augment(h, "uniform")
        h.set_updatable(np.array([prev, pin(logits)]))
    q = full_q(h, MfaFamily.REVERSED)
    assert abs(q.total_mass - 1.0) < 1e-10
    prod = full_q(h, MfaFamily.FULLY_DECOUPLED)
    assert np.allclose(q.table, prod.table, atol=1e-12)


def test_full_q_total_mass_near_one_with_revision():
    # the telescoping product normalizes algebraically even when m rows do
    # not, and it is the product of the final marginals: both families
    # denote one joint
    for seed in range(10):
        h = random_history(2, 4, seed)
        q = full_q(h, MfaFamily.REVERSED)
        assert abs(q.total_mass - 1.0) < 1e-10
        prod = full_q(h, MfaFamily.FULLY_DECOUPLED)
        assert np.allclose(q.table, prod.table, atol=1e-12)


def test_full_q_deterministic_and_feeds_oracle():
    hmm = random_hmm(2, 2, 5)
    obs = random_obs(2, 3, 5)
    h = random_history(2, 3, 5)
    q1 = full_q(h, MfaFamily.REVERSED)
    q2 = full_q(h, MfaFamily.REVERSED)
    assert np.array_equal(q1.table, q2.table)
    val = brute_force_elbo(hmm, q1, obs)
    assert np.isfinite(val)


def test_full_q_guard():
    h = random_history(2, 21, 0)
    with pytest.raises(GuardError):
        full_q(h, MfaFamily.REVERSED)


def test_extension_factor_matches_m_conditional():
    h = random_history(2, 3, 9)
    m, row_sums = extension_factor(h, 3)
    m2, rs2 = m_conditional(h.belief(2), h.belief(3), h.superseded(2))
    assert np.allclose(m, m2, atol=1e-15)
    assert np.allclose(row_sums, rs2, atol=1e-15)


def test_hat_elbo_degenerate():
    h = build_hmm([1.0], ModelParams(alpha_tilde=[[0.0, np.log(4.0)]],
                                     beta_tilde=[[0.0]]))
    obs = [2, 1, 2]
    tables = [np.ones(1)] + [np.ones((1, 1))] * 2
    expect = sum(np.log(h.A[0, o - 1]) for o in obs)
    assert abs(hat_elbo(h, tables, obs) - expect) < 1e-12


def test_hat_elbo_uniform_cancels_to_evidence():
    params = ModelParams(alpha_tilde=np.zeros((2, 2)), beta_tilde=np.zeros((2, 2)))
    hmm = build_hmm([0.5, 0.5], params)
    obs = [1, 2, 1]
    tables = [np.full(2, 0.5)] + [np.full((2, 2), 0.25)] * 2
    # uniform model: exact evidence is tau * ln(1/2); the uniform-table
    # transition and entropy terms cancel against it exactly
    assert abs(hat_elbo(hmm, tables, obs) - 3 * np.log(0.5)) < 1e-12
    assert abs(hat_elbo(hmm, tables, obs)
               - forward_filter(hmm, obs).log_evidence) < 1e-12


def test_hat_elbo_smoothing_product_bounded_by_exact():
    # pairwise tables built as products of exact smoothing singletons
    for seed in range(10):
        hmm = random_hmm(2, 2, seed)
        obs = random_obs(2, 3, seed)
        sm = forward_backward(hmm, obs).marginals
        tables = [sm[0]] + [np.outer(sm[t - 1], sm[t]) for t in (1, 2)]
        q = sm[0]
        for t in (1, 2):
            q = (q[:, None] * sm[t][None, :]).reshape(-1)
        exact = brute_force_elbo(hmm, q, obs)
        assert hat_elbo(hmm, tables, obs) <= exact + 1e-12


def test_hat_elbo_matches_exact_on_product_form():
    # with the per-pair forward conditional in the denominator, the sum
    # telescopes to the exact objective of the product distribution
    for seed in range(100):
        K = 2 + seed % 2
        hmm = random_hmm(K, 2, seed)
        tau = 2 + seed % 3
        obs = random_obs(2, tau, seed)
        rng = np.random.default_rng(seed)
        margs = [rng.dirichlet(np.ones(K)) for _ in range(tau)]
        tables = [margs[0]] + [np.outer(margs[t - 1], margs[t])
                               for t in range(1, tau)]
        q = margs[0]
        for t in range(1, tau):
            q = (q[:, None] * margs[t][None, :]).reshape(-1)
        exact = brute_force_elbo(hmm, q, obs)
        approx = hat_elbo(hmm, tables, obs)
        assert approx <= exact + 1e-12
        assert abs(approx - exact) < 1e-10


def test_pairwise_tables_from_history_shapes():
    h = random_history(2, 4, 2)
    tables = pairwise_tables_from_history(h)
    assert tables[0].shape == (2,)
    assert all(t.shape == (2, 2) for t in tables[1:])
    assert np.allclose(tables[1].sum(), 1.0, atol=1e-12)
    assert np.allclose(tables[2].sum(axis=0), h.belief(3), atol=1e-12)


def test_checkpoint_round_trip():
    h = random_history(3, 4, 8)
    doc = h.to_dict()
    assert set(doc) == {"horizon", "rho", "frozen_below"}
    assert doc["horizon"] == 4
    assert doc["frozen_below"] == 3
    assert len(doc["rho"]) == 2 * 4 - 1
    h2 = MfaHistory.from_dict(doc)
    for t in range(1, 5):
        assert np.array_equal(h.belief_logits(t), h2.belief_logits(t))
        assert np.array_equal(h.superseded_logits(t), h2.superseded_logits(t))
    assert h2.to_dict() == doc


@pytest.mark.parametrize("K", [1, 2, 3])
def test_checkpoint_rows_are_the_stored_rows_across_growths(K):
    rng = np.random.default_rng(K)
    h = MfaHistory(pin(rng.normal(size=K)))
    capacities = set()
    for tau in range(1, 41):
        if tau > 1:
            augment(h, "uniform")
            h.set_updatable(np.array([pin(rng.normal(size=K)),
                                      pin(rng.normal(size=K))]))
        capacities.add(len(h.rows.base))
        expected = [h.superseded_logits(1)]
        for t in range(1, tau):
            expected += [h.belief_logits(t), h.superseded_logits(t + 1)]
        doc = h.to_dict()
        assert doc["rho"] == np.array(expected).tolist()
        back = MfaHistory.from_dict(doc)
        assert back.to_dict() == doc
        assert frozen_fingerprint(back) == frozen_fingerprint(h)
    assert len(capacities) >= 3  # the row buffer grew at least twice


def _horizon_two_doc(**changes):
    doc = random_history(2, 2, 5).to_dict()
    doc.update(changes)
    return doc


def _with_entry(row, col, value):
    doc = _horizon_two_doc()
    doc["rho"][row][col] = value
    return doc


@pytest.mark.parametrize("doc", [
    _horizon_two_doc(horizon=2.9),
    _horizon_two_doc(horizon="2"),
    _horizon_two_doc(frozen_below=1.5),
    _horizon_two_doc(frozen_below=True),
    _with_entry(1, 1, "0.5"),
    _with_entry(2, 0, False),
    _with_entry(1, 1, True),
], ids=["horizon-float", "horizon-string", "frozen_below-float",
        "frozen_below-bool", "rho-string", "rho-false", "rho-true"])
def test_from_dict_refuses_what_it_would_have_to_coerce(doc):
    with pytest.raises(ConstraintError):
        MfaHistory.from_dict(doc)


def test_history_keeps_few_bytes_per_observation():
    # a (revision, current) pair of rows is 32 B at K = 2; a doubling
    # buffer keeps at most twice that
    n = 2000
    rows = np.random.default_rng(0).normal(size=(n, 2, 2))
    rows[:, :, 0] = 0.0
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        h = MfaHistory(rows[0, 1])
        for r in rows[1:]:
            augment(h, "uniform")
            h.set_updatable(r)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert h.horizon == n
    assert kept / n <= 80


def test_checkpoint_resume_continues_stream():
    h = random_history(2, 3, 4)
    h2 = MfaHistory.from_dict(h.to_dict())
    for hist in (h, h2):
        augment(hist, "uniform")
        hist.set_updatable(np.array([pin([0.0, 0.8]), pin([0.0, -0.2])]))
    assert np.array_equal(full_q(h, MfaFamily.REVERSED).table,
                          full_q(h2, MfaFamily.REVERSED).table)
