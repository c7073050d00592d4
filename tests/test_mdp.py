"""Unit tests for the MDP core: planning, statistics and gaps.

The gap tables and the minimum gap live on ``ptum.ApproxModelSet``, the one
place that plans a family; their tests sit here beside the statistics they
are built from, with the per-model build that the stacked one must match
bit for bit.
"""
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from seqtransfer.envs import (
    GenerativeModel,
    ObjectworldSpec,
    build_objectworld_family,
    multi_goal_family,
    paper_objectworld_duplicates,
    sample_task_path,
    successor_chain,
    two_rooms_family,
)
from seqtransfer.harness import run_rng
from seqtransfer.mdp import (
    VALUE_TOL,
    ShapeMismatchError,
    TabularMdp,
    plan,
    policy_evaluation,
    policy_values,
    value_iteration,
)
from seqtransfer.ptum import ApproxModelSet, EmpiricalModel, info_index_table
from seqtransfer.spectral import ObservationLayout, spectral_estimate, unpack_models


def transition_value_std(mdp: TabularMdp, s: int, a: int, v: np.ndarray) -> float:
    """Standard deviation of v(S') under the transition at (s, a)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (mdp.num_states,):
        raise ValueError("value function length must equal the state count")
    row = mdp.p[s, a]
    mean = float(row @ v)
    var = float(row @ (v - mean) ** 2)
    return float(np.sqrt(max(var, 0.0)))


def transition_value_std_table(mdp: TabularMdp, v: np.ndarray) -> np.ndarray:
    """Vectorized ``transition_value_std`` over all (s, a), shape (S, A)."""
    v = np.asarray(v, dtype=float)
    mean = mdp.p @ v
    second = mdp.p @ (v ** 2)
    return np.sqrt(np.maximum(second - mean ** 2, 0.0))


def discounted_occupancy(mdp: TabularMdp, pi: np.ndarray, start_state: int) -> np.ndarray:
    """Discounted state visitation frequencies of pi from a start state.

    Solves the occupancy linear system exactly; the result sums to
    1/(1 - gamma).
    """
    pi = np.asarray(pi, dtype=int)
    S = mdp.num_states
    p_pi = mdp.p[np.arange(S), pi]
    e = np.zeros(S)
    e[start_state] = 1.0
    return np.linalg.solve(np.eye(S) - mdp.gamma * p_pi.T, e)


def simulation_gap_bound(
    theta: TabularMdp, theta2: TabularMdp, pi: np.ndarray, start_state: int
) -> float:
    """Occupancy-weighted upper bound on |V^pi_theta(s) - V^pi_theta2(s)|:
    the occupancy is taken under theta2 and the value function under
    theta, matching the first simulation inequality.
    """
    pi = np.asarray(pi, dtype=int)
    nu = discounted_occupancy(theta2, pi, start_state)
    v_pi = policy_evaluation(theta, pi)
    idx = np.arange(theta.num_states)
    r_gap = np.abs(theta.reward_means() - theta2.reward_means())[idx, pi]
    p_gap = np.abs((theta.p - theta2.p) @ v_pi)[idx, pi]
    return float(nu @ (r_gap + theta.gamma * p_gap))


def reference_value_iteration(mdp: TabularMdp):
    """Policy iteration on one model, one step at a time: the loop that
    ``plan`` runs on a stack.  Returns (v, pi, steps, rule): the greedy
    steps taken and the stop rule that ended them, "residual", or
    "revisit-j" when the greedy policy is the one evaluated j evaluations
    ago (j = 1 repeats the last)."""
    gamma = mdp.gamma
    target = VALUE_TOL * (1.0 - gamma) / max(2.0 * gamma, 1.0)
    r = mdp.reward_means()
    S = mdp.num_states
    v = np.zeros(S)
    evaluated = []
    for step in itertools.count():
        q = r + gamma * (mdp.p @ v)
        qmax = q.max(axis=1)
        residual = np.max(np.abs(qmax - v))
        tie_tol = 64.0 * np.finfo(float).eps * max(1.0, float(np.abs(qmax).max()))
        pi = np.argmax(q >= qmax[:, None] - tie_tol, axis=1)
        if residual <= target:
            return v, pi, step, "residual"
        for back, old in enumerate(reversed(evaluated), 1):
            if np.array_equal(pi, old):
                return v, evaluated[-1], step, f"revisit-{back}"
        idx = np.arange(S)
        v = np.linalg.solve(np.eye(S) - gamma * mdp.p[idx, pi, :], r[idx, pi])
        evaluated.append(pi)


def reference_tables(models) -> dict:
    """The tables of ``ApproxModelSet(models)`` built one model and one pair
    at a time: ``value_iteration`` per model, p_i @ V*_j plus
    ``transition_value_std_table`` per pair, and per pair the one-step
    advantage min_s Q*_j(s, pi_i(s)) - V*_j(s)."""
    k = len(models)
    values, policies = (np.array(t) for t in zip(*map(value_iteration, models)))
    states = np.arange(values.shape[1])
    adv = np.array([[np.min((m.reward_means() + m.gamma * (m.p @ v))[states, pi] - v)
                     for m, v in zip(models, values)] for pi in policies])
    pv = np.array([[m.p @ v for v in values] for m in models])
    sigma_p = np.array([[transition_value_std_table(m, v) for v in values]
                        for m in models])
    rewards = np.array([m.reward_means() for m in models])
    own = pv[np.arange(k), np.arange(k)]
    return dict(
        values=values, policies=policies, adv=adv, pv=pv, sigma_p=sigma_p,
        rewards=rewards, sigma_r=np.array([m.reward_stds() for m in models]),
        reward_gap=np.abs(rewards[:, None] - rewards[None, :]),
        trans_gap=np.abs(own[:, None] - pv.transpose(1, 0, 2, 3)),
    )


def learned_objectworld_models(seed=3, tasks=30, per_pair=20):
    """The 8 models ``unpack_models`` makes of a short seeded spectral
    estimate on the paper's objectworld chain."""
    spec = ObjectworldSpec(duplicate_of=paper_objectworld_duplicates())
    family = build_objectworld_family(spec, 8, run_rng(seed, 0))
    rng = run_rng(seed, 1)
    base = family[0]
    layout = ObservationLayout(base.num_states, base.num_actions, base.num_rewards)
    need = np.full((base.num_states, base.num_actions), per_pair)
    observations = []
    for task in sample_task_path(successor_chain(8), tasks, rng):
        g = GenerativeModel(family[task])
        emp = EmpiricalModel(g.num_states, g.num_actions, g.reward_support)
        emp.add_counts(*g.query_table(need, rng))
        observations.append(layout.vectorize(*emp.frequencies()))
    est = spectral_estimate(observations, 8, layout, restarts=5, iters=30, rng=rng)
    return unpack_models(est, base.reward_support, base.gamma)


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
        # A NaN entry is no probability, though every comparison with it is
        # False.
        nan_row = np.array([[[np.nan, 1.0]]])
        with pytest.raises(ValueError):
            TabularMdp(p=np.ones((1, 1, 1)), reward_support=np.array([0.0, 1.0]),
                       q=nan_row, gamma=0.9)
        with pytest.raises(ValueError):
            TabularMdp(p=np.concatenate([nan_row, [[[0.5, 0.5]]]]),
                       reward_support=np.array([0.0]), q=np.ones((2, 1, 1)), gamma=0.9)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            single_state_mdp(gamma=1.0)

    def test_rejects_reward_outside_unit_interval(self):
        with pytest.raises(ValueError):
            single_state_mdp(reward=1.5)
        with pytest.raises(ValueError):
            single_state_mdp(reward=float("nan"))

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


class TestStackedPlanner:
    """``plan`` runs the one-model loop on a stack of models: each model gets
    bit for bit what ``reference_value_iteration`` gets for it alone."""

    @staticmethod
    def assert_matches_reference(models):
        values, policies = plan(models)
        for m, v, pi in zip(models, values, policies):
            ref_v, ref_pi, _, _ = reference_value_iteration(m)
            assert np.array_equal(v, ref_v) and np.array_equal(pi, ref_pi)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 0.9, 0.99, 0.9999])
    def test_value_iteration_is_the_reference_loop(self, gamma):
        rng = np.random.default_rng(12)
        for _ in range(5):
            m = random_mdp(rng, S=6, A=3, gamma=gamma)
            v, pi = value_iteration(m)
            ref_v, ref_pi, _, _ = reference_value_iteration(m)
            assert np.array_equal(v, ref_v) and np.array_equal(pi, ref_pi)

    def test_models_stop_at_their_own_step_and_rule(self):
        rng = np.random.default_rng(13)
        models = [random_mdp(rng, S=6, A=3, gamma=0.9999) for _ in range(6)]
        # Zero rewards: the first residual is 0, so it stops at step 0.
        q = np.zeros((6, 3, 3))
        q[:, :, 0] = 1.0
        models.insert(2, TabularMdp(p=models[0].p, reward_support=models[0].reward_support,
                                    q=q, gamma=0.9999))
        stops = [reference_value_iteration(m)[2:] for m in models]
        assert len({step for step, _ in stops}) >= 3
        assert {rule for _, rule in stops} == {"residual", "revisit-1"}
        self.assert_matches_reference(models)
        self.assert_matches_reference(models[::-1])

    def test_a_stopped_model_keeps_its_last_evaluation(self):
        # In state 0, staying pays 0.5 + 1e-12 and moving to state 1 leads
        # to 0.5 + 2.1e-11 forever.  Policy iteration first stays, then
        # finds moving better by less than the residual target: it stops on
        # the residual rule with a greedy policy it never evaluated, while
        # another model of the stack runs one more step.
        support = np.array([0.0, 0.5, 0.5 + 1e-12, 0.5 + 2.1e-11, 1.0])
        p = np.zeros((2, 2, 2))
        p[0, 0, 0] = p[0, 1, 1] = p[1, :, 1] = 1.0
        q = np.zeros((2, 2, 5))
        q[0, 0, 2] = q[0, 1, 1] = q[1, :, 3] = 1.0
        slow = TabularMdp(p=p, reward_support=support, q=q, gamma=0.9)
        rng = np.random.default_rng(17)
        others = [TabularMdp(p=rng.dirichlet(np.ones(2), size=(2, 2)), reward_support=support,
                             q=rng.dirichlet(np.ones(5), size=(2, 2)), gamma=0.9)
                  for _ in range(4)]
        v, pi, step, rule = reference_value_iteration(slow)
        assert (step, rule, pi.tolist()) == (1, "residual", [1, 0])
        assert not np.array_equal(v, policy_evaluation(slow, pi))
        assert max(reference_value_iteration(m)[2] for m in others) > step
        self.assert_matches_reference([slow] + others)
        # The model set's tables read the planner's V*, not V^pi: its own
        # one-step advantage is that of v.
        approx = ApproxModelSet([slow] + others)
        assert np.array_equal(approx.values[0], v)
        q = slow.reward_means() + slow.gamma * (slow.p @ v)
        assert approx.adv[0, 0] == np.min(q[[0, 1], pi] - v)

    def test_a_round_off_alternation_stops(self):
        # Every state pays 1 at gamma = 0.9999, so every policy is worth
        # 1e4 and the Q gaps are the solve's round-off, about 1e-9: more than
        # the tie tolerance.  Policy iteration goes [0, 0, 0], [2, 0, 0] and
        # back, and stops there with the last policy it evaluated.
        p = np.array([
            [[1.0, 0.0, 0.0], [0.5975596539157535, 0.06728960912083902, 0.3351507369634075],
             [1.820525225090911e-13, 0.15456878905929267, 0.8454312109405252]],
            [[4.694739098294663e-13, 0.999999999999, 5.305260901705337e-13],
             [0.46710970200644314, 0.2554098990353344, 0.2774803989582224],
             [0.0, 0.09942065074853099, 0.9005793492514689]],
            [[0.14112368290013494, 0.05559504380817209, 0.8032812732916931],
             [0.999999999999, 1e-12, 0.0],
             [0.999999999999, 7.4073070651005e-13, 2.592692934899499e-13]]])
        support = np.array([0.0, 1.0])
        m = TabularMdp(p=p, reward_support=support, q=np.eye(2)[np.ones((3, 3), int)],
                       gamma=0.9999)
        v, pi, step, rule = reference_value_iteration(m)
        assert (step, rule, pi.tolist()) == (2, "revisit-2", [2, 0, 0])
        assert np.array_equal(v, policy_evaluation(m, pi))
        assert np.max(np.abs(v - 1e4)) <= 1e-6
        rng = np.random.default_rng(18)
        other = TabularMdp(p=rng.dirichlet(np.ones(3), size=(3, 3)), reward_support=support,
                           q=rng.dirichlet(np.ones(2), size=(3, 3)), gamma=0.9999)
        assert reference_value_iteration(other)[3] != "revisit-2"
        self.assert_matches_reference([m])
        self.assert_matches_reference([other, m])
        self.assert_matches_reference([m, other])

    @pytest.mark.parametrize("width, task", [(12, 1), (5, 3)])
    def test_a_longer_round_off_cycle_stops(self, width, task):
        # At gamma = 0.9999 the values are about 8100, and the Bellman
        # residual of an evaluated policy is the solve's round-off, about
        # 1e-9, against a target of 5e-13.  Policy iteration on the task
        # goes through three policies and back to the first; it stopped
        # only at an iteration cap, with an error.  It now stops at the
        # return and keeps the last policy it evaluated.
        family = multi_goal_family(num_tasks=6, width=width, height=2)
        rules = [reference_value_iteration(m)[3] for m in family]
        assert rules[task] == "revisit-3"
        self.assert_matches_reference(family)
        self.assert_matches_reference(family[::-1])
        values, policies = plan(family)
        for m, v, pi, rule in zip(family, values, policies, rules):
            alone = plan([m])
            assert np.array_equal(alone[0][0], v) and np.array_equal(alone[1][0], pi)
            if rule != "residual":
                assert np.array_equal(policy_values([m], pi)[0], v)
            q = m.reward_means() + m.gamma * (m.p @ v)
            # Round-off of a solve whose condition number is 1/(1 - gamma).
            bound = np.finfo(float).eps * np.max(np.abs(v)) / (1.0 - m.gamma)
            assert np.max(np.abs(q.max(axis=1) - v)) <= bound

    def test_small_discount_stops_within_value_tol(self):
        # At gamma = 0.1 staying in state 0 pays 0.5, and moving to the
        # absorbing state 1, which pays 1, is better by 3e-8.  After the
        # first evaluation (stay) the residual is 3e-8: a target of
        # VALUE_TOL (1 - gamma) / (2 gamma) = 4.5e-8 would stop there with
        # V(0) 3e-8 below V*(0); the target 9e-9 runs one more step.
        move = 0.4 / 0.9 + 3e-8
        support = np.array([0.0, move, 0.5, 1.0])
        p = np.zeros((2, 2, 2))
        p[0, 0, 0] = p[0, 1, 1] = p[1, :, 1] = 1.0
        q = np.zeros((2, 2, 4))
        q[0, 0, 2] = q[0, 1, 1] = q[1, :, 3] = 1.0
        m = TabularMdp(p=p, reward_support=support, q=q, gamma=0.1)
        v_star = np.array([move + 0.1 / 0.9, 1.0 / 0.9])
        v, pi = value_iteration(m)
        assert pi.tolist() == [1, 0]
        assert np.max(np.abs(v - v_star)) <= VALUE_TOL
        self.assert_matches_reference([m])

    def test_zero_discount(self):
        rng = np.random.default_rng(14)
        models = [random_mdp(rng, S=5, A=3, gamma=0.0) for _ in range(4)]
        values, _ = plan(models)
        assert np.array_equal(values, [m.reward_means().max(axis=1) for m in models])
        self.assert_matches_reference(models)

    def test_models_must_share_states_actions_and_discount(self):
        with pytest.raises(ShapeMismatchError):
            plan([single_state_mdp(), two_state_chain()])
        with pytest.raises(ShapeMismatchError):
            plan([two_state_chain(gamma=0.5), two_state_chain(gamma=0.9)])

    def test_policy_values_stack_the_direct_solve(self):
        rng = np.random.default_rng(15)
        models = [random_mdp(rng, S=5, A=3) for _ in range(4)]
        pi = rng.integers(3, size=5)
        idx = np.arange(5)
        for m, got in zip(models, policy_values(models, pi)):
            direct = np.linalg.solve(np.eye(5) - m.gamma * m.p[idx, pi],
                                     m.reward_means()[idx, pi])
            assert np.array_equal(got, direct)
            assert np.array_equal(policy_evaluation(m, pi), direct)

    @pytest.mark.parametrize("pi", [[0, 2], [0, -1], [0]])
    def test_policy_outside_the_actions_rejected(self, pi):
        m = random_mdp(np.random.default_rng(16), S=2, A=2)
        with pytest.raises(ValueError):
            policy_evaluation(m, np.array(pi))


MODEL_SETS = {
    "two-rooms": two_rooms_family,
    "multi-goal": multi_goal_family,
    "objectworld": lambda: build_objectworld_family(
        ObjectworldSpec(duplicate_of=paper_objectworld_duplicates()), 8,
        np.random.default_rng(0)),
    "learned": learned_objectworld_models,
}


class TestModelSetTables:
    @pytest.mark.parametrize("name", sorted(MODEL_SETS))
    def test_tables_match_the_per_model_build(self, name):
        models = MODEL_SETS[name]()
        approx = ApproxModelSet(models, 0.001)
        expected = reference_tables(models)
        for table, want in expected.items():
            assert np.array_equal(getattr(approx, table), want), table
        inputs = SimpleNamespace(**expected, delta=approx.delta, gamma=approx.gamma,
                                 num_models=len(models))
        assert np.array_equal(approx.info_table, info_index_table(inputs))
        for m, v, pi in zip(models, approx.values, approx.policies):
            ref_v, ref_pi, _, _ = reference_value_iteration(m)
            assert np.array_equal(v, ref_v) and np.array_equal(pi, ref_pi)


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
        # Same S, A and gamma, another reward support.
        with pytest.raises(ShapeMismatchError):
            ApproxModelSet([single_state_mdp(reward=1.0), single_state_mdp(reward=0.5)])


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
