"""Unit tests for the MDP core: planning, statistics and gaps.

The gap tables and the minimum gap live on ``ptum.ApproxModelSet``, the one
place that plans a family; their tests sit here beside the statistics they
are built from.
"""
import math

import numpy as np
import pytest

from seqtransfer.mdp import (
    VALUE_TOL,
    ShapeMismatchError,
    TabularMdp,
    discounted_occupancy,
    policy_evaluation,
    simulation_gap_bound,
    transition_value_std,
    transition_value_std_table,
    value_iteration,
)
from seqtransfer.ptum import ApproxModelSet


def single_state_mdp(reward=1.0, gamma=0.9):
    return TabularMdp(
        p=np.ones((1, 1, 1)),
        reward_support=np.array([reward]),
        q=np.ones((1, 1, 1)),
        gamma=gamma,
    )


def two_state_chain(gamma=0.5):
    """s0 -> s1 with reward 0; s1 absorbing with reward 1."""
    p = np.zeros((2, 1, 2))
    p[0, 0, 1] = 1.0
    p[1, 0, 1] = 1.0
    q = np.zeros((2, 1, 2))
    q[0, 0, 0] = 1.0
    q[1, 0, 1] = 1.0
    return TabularMdp(p=p, reward_support=np.array([0.0, 1.0]), q=q, gamma=gamma)


def random_mdp(rng, S=4, A=2, U=3, gamma=0.9):
    return TabularMdp(
        p=rng.dirichlet(np.ones(S), size=(S, A)),
        reward_support=np.linspace(0.0, 1.0, U),
        q=rng.dirichlet(np.ones(U), size=(S, A)),
        gamma=gamma,
    )


class TestTabularMdp:
    def test_rejects_non_stochastic_rows(self):
        p = np.ones((1, 1, 1)) * 0.5
        with pytest.raises(ValueError):
            TabularMdp(p=p, reward_support=np.array([0.0]), q=np.ones((1, 1, 1)), gamma=0.9)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            single_state_mdp(gamma=1.0)

    def test_rejects_reward_outside_unit_interval(self):
        with pytest.raises(ValueError):
            single_state_mdp(reward=1.5)

    def test_arrays_immutable(self):
        m = single_state_mdp()
        with pytest.raises(ValueError):
            m.p[0, 0, 0] = 0.5


class TestPlanning:
    def test_geometric_series(self):
        v, pi = value_iteration(single_state_mdp())
        assert v[0] == pytest.approx(10.0, abs=1e-8)

    def test_zero_rewards(self):
        m = TabularMdp(
            p=np.ones((2, 2, 2)) * 0.5,
            reward_support=np.array([0.0]),
            q=np.ones((2, 2, 1)),
            gamma=0.95,
        )
        v, _ = value_iteration(m)
        assert np.allclose(v, 0.0)

    def test_two_state_chain_hand_solution(self):
        v, _ = value_iteration(two_state_chain())
        assert v[1] == pytest.approx(2.0, abs=1e-8)
        assert v[0] == pytest.approx(1.0, abs=1e-8)

    def test_policy_evaluation_two_state(self):
        m = two_state_chain()
        v = policy_evaluation(m, np.zeros(2, dtype=int))
        assert v[0] == pytest.approx(1.0, abs=1e-10)
        assert v[1] == pytest.approx(2.0, abs=1e-10)

    def test_policy_evaluation_matches_value_iteration(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            m = random_mdp(rng)
            v, pi = value_iteration(m)
            v_pi = policy_evaluation(m, pi)
            assert np.max(np.abs(v - v_pi)) < 2e-8

    def test_bellman_residual_invariant(self):
        rng = np.random.default_rng(1)
        tol = VALUE_TOL
        for _ in range(5):
            m = random_mdp(rng)
            v, _ = value_iteration(m)
            q = m.reward_means() + m.gamma * (m.p @ v)
            residual = np.max(np.abs(q.max(axis=1) - v))
            assert residual <= tol * (1 - m.gamma) / (2 * m.gamma) * m.gamma + tol

    def test_value_bounds(self):
        rng = np.random.default_rng(2)
        m = random_mdp(rng)
        v, _ = value_iteration(m)
        assert np.all(v >= -1e-9)
        assert np.all(v <= 1.0 / (1.0 - m.gamma) + 1e-9)


class TestStatistics:
    def test_reward_point_mass(self):
        m = TabularMdp(
            p=np.ones((1, 1, 1)),
            reward_support=np.array([0.5]),
            q=np.ones((1, 1, 1)),
            gamma=0.9,
        )
        assert (m.reward_means()[0, 0], m.reward_stds()[0, 0]) == (0.5, 0.0)

    def test_reward_fair_coin(self):
        m = two_state_chain()
        q = np.array([[[0.5, 0.5]], [[0.5, 0.5]]])
        m = TabularMdp(p=m.p, reward_support=m.reward_support, q=q, gamma=0.5)
        mean, std = m.reward_means()[0, 0], m.reward_stds()[0, 0]
        assert mean == pytest.approx(0.5)
        assert std == pytest.approx(0.5)

    def test_reward_bernoulli_03(self):
        m = two_state_chain()
        q = np.array([[[0.7, 0.3]], [[0.7, 0.3]]])
        m = TabularMdp(p=m.p, reward_support=m.reward_support, q=q, gamma=0.5)
        mean, std = m.reward_means()[0, 0], m.reward_stds()[0, 0]
        assert mean == pytest.approx(0.3)
        assert std == pytest.approx(math.sqrt(0.21))

    def test_transition_std_deterministic(self):
        m = two_state_chain()
        assert transition_value_std(m, 0, 0, np.array([3.0, 7.0])) == 0.0

    def test_transition_std_uniform(self):
        p = np.full((2, 1, 2), 0.5)
        m = TabularMdp(p=p, reward_support=np.array([0.0]), q=np.ones((2, 1, 1)), gamma=0.9)
        assert transition_value_std(m, 0, 0, np.array([0.0, 1.0])) == pytest.approx(0.5)

    def test_transition_std_hand_case(self):
        p = np.zeros((2, 1, 2))
        p[:, 0] = [0.25, 0.75]
        m = TabularMdp(p=p, reward_support=np.array([0.0]), q=np.ones((2, 1, 1)), gamma=0.9)
        got = transition_value_std(m, 0, 0, np.array([0.0, 2.0]))
        assert got == pytest.approx(math.sqrt(0.75))

    def test_transition_std_table_matches_scalar(self):
        rng = np.random.default_rng(4)
        m = random_mdp(rng)
        v = rng.uniform(0, 5, m.num_states)
        table = transition_value_std_table(m, v)
        for s in range(m.num_states):
            for a in range(m.num_actions):
                assert table[s, a] == pytest.approx(transition_value_std(m, s, a, v), abs=1e-12)

    def test_popoviciu_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = random_mdp(rng)
            v = rng.uniform(-3, 3, m.num_states)
            table = transition_value_std_table(m, v)
            assert np.all(table <= (v.max() - v.min()) / 2 + 1e-12)


class TestGaps:
    def test_identity_gaps(self):
        m = single_state_mdp()
        approx = ApproxModelSet([m, m])
        assert np.all(approx.reward_gap == 0)
        assert np.all(approx.trans_gap == 0)
        with pytest.warns(UserWarning):
            assert approx.min_gap(0) == 0.0

    def test_constant_reward_shift(self):
        rng = np.random.default_rng(6)
        a = random_mdp(rng, U=2)
        # Same transitions, rewards shifted by exactly 0.1 everywhere.
        support = np.array([0.2, 0.3])
        q = np.zeros_like(a.q[:, :, :2])
        q[:, :, 0] = 1.0
        m1 = TabularMdp(p=a.p, reward_support=support, q=q, gamma=a.gamma)
        q2 = np.zeros_like(q)
        q2[:, :, 1] = 1.0
        m2 = TabularMdp(p=a.p, reward_support=support, q=q2, gamma=a.gamma)
        approx = ApproxModelSet([m1, m2])
        assert np.allclose(approx.reward_gap[0, 1], 0.1)
        assert np.all(approx.trans_gap[0, 1] == 0.0)

    def test_opposite_point_mass_transitions(self):
        # base moves 0 -> 1 (V* = [1, 2]); other stays at 0 (V* = [0, 2]).
        base = two_state_chain()
        p2 = np.zeros((2, 1, 2))
        p2[0, 0, 0] = 1.0
        p2[1, 0, 1] = 1.0
        other = TabularMdp(p=p2, reward_support=base.reward_support, q=base.q, gamma=0.5)
        approx = ApproxModelSet([base, other])
        # The gap of (i, j) is referenced to V*_i.
        assert approx.trans_gap[0, 1, 0, 0] == pytest.approx(1.0)
        assert approx.trans_gap[1, 0, 0, 0] == pytest.approx(2.0)

    def test_reward_gap_symmetry(self):
        rng = np.random.default_rng(7)
        a = random_mdp(rng)
        b = TabularMdp(p=a.p, reward_support=a.reward_support,
                       q=np.ascontiguousarray(a.q[:, ::-1]), gamma=a.gamma)
        approx = ApproxModelSet([a, b])
        assert np.array_equal(approx.reward_gap[0, 1], approx.reward_gap[1, 0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            ApproxModelSet([single_state_mdp(), two_state_chain()])


class TestMinGap:
    def test_duplicate_model_warns_and_returns_zero(self):
        m = two_state_chain()
        with pytest.warns(UserWarning):
            assert ApproxModelSet([m, m]).min_gap(0) == 0.0

    def test_single_reward_difference(self):
        base = two_state_chain()
        q2 = base.q.copy()
        q2[1, 0] = [0.2, 0.8]  # reward mean 0.8 instead of 1.0
        other = TabularMdp(p=base.p, reward_support=base.reward_support, q=q2, gamma=0.5)
        got = ApproxModelSet([base, other]).min_gap(0)
        # Reward gap 0.2 at (s1, a0); the transition gap referenced to V*_base
        # is 0 since transitions are identical.
        assert got == pytest.approx(0.2)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        models = [random_mdp(rng, S=3, A=2) for _ in range(3)]
        values = [value_iteration(m)[0] for m in models]
        approx = ApproxModelSet(models)
        for star in range(3):
            expected = min(
                max(
                    np.max(np.abs(models[j].reward_means() - models[star].reward_means())),
                    np.max(np.abs((models[j].p - models[star].p) @ values[star])),
                )
                for j in range(3) if j != star
            )
            assert approx.min_gap(star) == pytest.approx(expected)

    def test_needs_two_models(self):
        m = single_state_mdp()
        with pytest.raises(ValueError):
            ApproxModelSet([m]).min_gap(0)


class TestSimulationLemma:
    def test_identical_models_zero(self):
        m = two_state_chain()
        assert simulation_gap_bound(m, m, np.zeros(2, dtype=int), 0) == pytest.approx(0.0)

    def test_occupancy_mass(self):
        rng = np.random.default_rng(9)
        m = random_mdp(rng)
        nu = discounted_occupancy(m, np.zeros(m.num_states, dtype=int), 0)
        assert nu.sum() == pytest.approx(1.0 / (1.0 - m.gamma))

    def test_bounds_value_difference(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            a = random_mdp(rng)
            b = random_mdp(rng)
            pi = rng.integers(a.num_actions, size=a.num_states)
            s0 = int(rng.integers(a.num_states))
            diff = abs(policy_evaluation(a, pi)[s0] - policy_evaluation(b, pi)[s0])
            assert diff <= simulation_gap_bound(a, b, pi, s0) + 1e-6

    def test_uniform_gap_cap(self):
        # With every componentwise gap at most g, the bound cannot exceed
        # g * (1 + gamma) / (1 - gamma) because nu sums to 1/(1-gamma).
        rng = np.random.default_rng(11)
        a = random_mdp(rng)
        b = random_mdp(rng)
        pi = rng.integers(a.num_actions, size=a.num_states)
        v_pi = policy_evaluation(a, pi)
        idx = np.arange(a.num_states)
        g = max(
            np.max(np.abs(a.reward_means() - b.reward_means())[idx, pi]),
            np.max(np.abs((a.p - b.p) @ v_pi)[idx, pi]),
        )
        bound = simulation_gap_bound(a, b, pi, 0)
        assert bound <= g * (1 + a.gamma) / (1 - a.gamma) + 1e-9
