"""Unit tests for the identification loop and its pieces."""
import functools
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_mdp import learned_objectworld_models

from seqtransfer import ptum
from seqtransfer.envs import (
    GenerativeModel,
    GridSpec,
    build_multi_goal_grid,
    multi_goal_family,
    two_rooms_family,
)
from seqtransfer.harness import run_rng
from seqtransfer.mdp import (
    PROB_TOL,
    TabularMdp,
    policy_evaluation,
    policy_values,
    value_iteration,
)
from seqtransfer.ptum import (
    INF,
    ApproxModelSet,
    EmpiricalModel,
    PtumResult,
    _log_terms,
    _may_fail,
    _opening,
    check_stop,
    compatibility_failures,
    confidence_radii,
    default_fallback_per_pair,
    info_index_table,
    prune_confidence_set,
    reward_stats,
    run_ptum,
    select_query,
    stop_margin,
    theta_eps_and_bound,
    transfer_gate,
    transition_value_stats,
    uniform_pac_fallback,
)


def four_radii(n, sr, sp, approx, logs):
    """The four radii (reward, transition, reward-std, transition-std) of
    ``confidence_radii``, the reward half at gamma = 0."""
    (c_r, c_sr), (c_p, c_sp) = (confidence_radii(n, sr, 0.0, approx, logs),
                                confidence_radii(n, sp, approx.gamma, approx, logs))
    return c_r, c_p, c_sr, c_sp


def branch_pair(pays, next_a, next_b):
    """Two models that differ only in where (0, 0) leads.

    State s pays ``pays[s]`` surely in both models, so their reward
    distributions agree everywhere; states 1.. are absorbing, and
    ``next_a`` / ``next_b`` are the next-state distributions from (0, 0).
    """
    support = np.unique(pays)
    S = len(pays)
    q = np.zeros((S, 1, support.size))
    q[np.arange(S), 0, np.searchsorted(support, pays)] = 1.0
    models = []
    for row in (next_a, next_b):
        p = np.zeros((S, 1, S))
        p[0, 0] = row
        p[np.arange(1, S), 0, np.arange(1, S)] = 1.0
        models.append(TabularMdp(p=p, reward_support=support, q=q, gamma=0.5))
    return ApproxModelSet(models)


def small_family(num_tasks=3, width=4, height=3, gamma=0.9):
    """Tiny two-goal grids differing only in goal rewards."""
    cells = {0: 0.5, width * height - 1: 0.5}
    spec = GridSpec(width=width, height=height, goal_cells=cells, gamma=gamma)
    per_task = []
    for i in range(num_tasks):
        rewards = dict(cells)
        rewards[0] = 0.5 + 0.1 * i
        per_task.append(rewards)
    return build_multi_goal_grid(spec, per_task)


class TestTransferGate:
    def test_zero_uncertainty_passes(self):
        assert transfer_gate(0.0, 0.1, 0.99)

    def test_threshold_value(self):
        # eps=0.1, gamma=0.99: threshold 0.1 * 0.01 / (4 * 1.99).
        threshold = 0.1 * (1.0 - 0.99) / (4 * (1.0 + 0.99))
        assert threshold == pytest.approx(1.2563e-4, rel=1e-4)
        assert not transfer_gate(2e-4, 0.1, 0.99)
        assert transfer_gate(threshold * 0.999, 0.1, 0.99)
        assert not transfer_gate(threshold, 0.1, 0.99)  # strict inequality

    def test_exact_models_allow_eps_zero(self):
        assert transfer_gate(0.0, 0.0, 0.99)

    def test_eps_zero_with_uncertainty_rejected(self):
        assert not transfer_gate(0.01, 0.0, 0.99)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            transfer_gate(-0.1, 0.1, 0.9)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 0.9, 0.9999])
    @pytest.mark.parametrize("eps", [0.05, 0.5, 4.0])
    def test_gate_and_its_readers_agree(self, eps, gamma):
        # The gate is open exactly below the paper's threshold.  There
        # run_ptum runs elimination, and the stop test and the diagnostic
        # accept the set; elsewhere run_ptum falls back at the gate and the
        # diagnostic refuses the set.
        fam = small_family(gamma=gamma)
        threshold = eps * (1.0 - gamma) / (4.0 * (1.0 + gamma))
        for factor in (0.5, 1.0 - 1e-9, 1.0 + 1e-9, 2.0):
            approx = ApproxModelSet(fam, threshold * factor)
            is_open = transfer_gate(approx.delta, eps, gamma)
            assert is_open == (factor < 1.0)
            res = run_ptum(approx, GenerativeModel(fam[0]), eps, 0.1, 50,
                           np.random.default_rng(0))
            assert (res.mode == "fallback-gate") == (not is_open)
            if is_open:
                assert stop_margin(eps, approx.delta, gamma) > 0
                check_stop(set(range(len(fam))), approx, eps)
                theta_eps_and_bound(approx, 0, eps, 0.1, 50)
            else:
                with pytest.raises(ValueError):
                    theta_eps_and_bound(approx, 0, eps, 0.1, 50)
        assert not transfer_gate(threshold, 0.0, gamma)


def uniform_set(S, A, k=3, gamma=0.9, delta=0.0):
    """k copies of one S-state, A-action model: what the radii read of a
    model set (its sizes, discount and uncertainty level) and nothing
    else."""
    m = TabularMdp(p=np.full((S, A, S), 1.0 / S), reward_support=np.array([0.0, 1.0]),
                   q=np.full((S, A, 2), 0.5), gamma=gamma)
    return ApproxModelSet([m] * k, delta)


class TestUncertaintyLevel:
    def test_level_is_stored(self):
        assert ApproxModelSet(small_family(), 0.01).delta == 0.01
        assert ApproxModelSet(small_family()).delta == 0.0

    @pytest.mark.parametrize("level", [-0.01, math.nan])
    def test_negative_or_nan_level_rejected(self, level):
        with pytest.raises(ValueError):
            ApproxModelSet(small_family(), level)


class TestReadOnlyModelSet:
    # One set serves every task that reads its estimate, so a write by any
    # caller would leak into the later tasks.
    @pytest.mark.parametrize("table", ["values", "policies", "adv", "rewards",
                                       "sigma_r", "sigma_p", "pv", "reward_gap",
                                       "trans_gap", "info_table"])
    def test_writing_a_table_raises(self, table):
        approx = ApproxModelSet(small_family(), 0.01)
        with pytest.raises(ValueError, match="read-only"):
            getattr(approx, table)[0] = 0

    def test_stop_returns_a_writable_copy_of_the_policy(self):
        # Also from the memo: a written copy changes no later result.
        approx = ApproxModelSet(small_family())
        theta, policy = check_stop({1}, approx, 0.1)
        policy[:] = 1 - policy
        assert not np.array_equal(approx.policies[theta], policy)
        again, copy = check_stop({1}, approx, 0.1)
        assert again == theta and copy is not policy and copy.flags.writeable
        assert np.array_equal(copy, approx.policies[theta])


class TestConfidenceRadii:
    @staticmethod
    def radii(emp, v_ref, approx, n=100, delta=0.1):
        """The radii at (0, 0) against one value function (S,), with one
        transition radius, or a stack (k, S), with one per row."""
        _, sr = reward_stats(emp.reward_counts[0, 0], emp.counts[0, 0], emp.reward_support)
        _, sp = transition_value_stats(emp.next_counts[0, 0], emp.counts[0, 0],
                                       np.atleast_2d(v_ref))
        if v_ref.ndim == 1:
            sp = sp[0]
        return four_radii(emp.counts[0, 0], sr, sp, approx,
                                _log_terms(approx, n, delta))

    def test_no_samples_gives_infinite_radii(self):
        emp = EmpiricalModel(2, 2, [0.0, 1.0])
        assert self.radii(emp, np.zeros(2), uniform_set(2, 2)) == (INF,) * 4

    def test_one_sample_still_infinite(self):
        emp = EmpiricalModel(2, 2, [0.0, 1.0])
        add_sample(emp, 0, 0, 1, 1.0)
        assert self.radii(emp, np.zeros(2), uniform_set(2, 2))[0] == INF

    def test_reward_radius_formula(self):
        # S=2, A=2, n=100, |Theta|=3, delta=0.1, N=10 with 5 ones:
        # L = log(8*2*2*100*4/0.1) = log(128000), sigma_hat = sqrt(2.5/9).
        emp = EmpiricalModel(2, 2, [0.0, 1.0])
        for i in range(10):
            add_sample(emp, 0, 0, i % 2, float(i % 2))
        L = math.log(8 * 2 * 2 * 100 * 4 / 0.1)
        sigma = math.sqrt(2.5 / 9)
        expected = math.sqrt(2 * sigma * sigma * L / 10) + 7 * L / (3 * 9)
        c_r, _, c_sr, _ = self.radii(emp, np.zeros(2), uniform_set(2, 2))
        assert c_r == pytest.approx(expected, rel=1e-12)
        L2 = math.log(4 * 2 * 2 * 100 * 4 / 0.1)
        assert c_sr == pytest.approx(math.sqrt(2 * L2 / 9), rel=1e-12)

    def test_large_n_limit_is_model_uncertainty(self):
        emp = EmpiricalModel(1, 1, [0.5])
        emp.counts[0, 0] = 2_000_000
        emp.reward_counts[0, 0, 0] = 2_000_000
        emp.next_counts[0, 0, 0] = 2_000_000
        c_r, c_p, _, _ = self.radii(emp, np.zeros(1), uniform_set(1, 1, delta=0.03))
        assert c_r == pytest.approx(0.03, abs=1e-4)
        assert c_p == pytest.approx(0.03, abs=1e-3)

    def test_value_stack_gives_one_transition_radius_per_row(self):
        emp = EmpiricalModel(3, 1, [0.0, 1.0])
        add_pair_counts(emp, 0, 0, [2, 5, 3], [10, 0])
        stack = np.array([[0.0, 1.0, 2.0], [4.0, 0.0, 1.0], [3.0, 3.0, 3.0]])
        approx = uniform_set(3, 1)
        c_r, c_p, c_sr, c_sp = self.radii(emp, stack, approx)
        assert c_p.shape == (3,)
        for row, radius in zip(stack, c_p):
            single = self.radii(emp, row, approx)
            assert single[1] == radius
            assert single[::2] == (c_r, c_sr) and single[3] == c_sp
        _, stds = transition_value_stats(emp.next_counts[0, 0], emp.counts[0, 0], stack)
        assert stds[2] == 0.0
        assert stds[0] == pytest.approx(math.sqrt(np.var([0, 0, 1, 1, 1, 1, 1, 2, 2, 2],
                                                         ddof=1)), rel=1e-12)


class TestStackedStatistics:
    """A stack of count snapshots gets, row by row and bit for bit, what
    each snapshot gets alone."""

    @staticmethod
    def snapshots(rng, B, S, U, most=40):
        n = rng.integers(0, most, size=B)
        n[:3] = [0, 1, 2]
        next_counts = np.stack([rng.multinomial(x, rng.dirichlet(np.ones(S))) for x in n])
        reward_counts = np.stack([rng.multinomial(x, rng.dirichlet(np.ones(U))) for x in n])
        return n, reward_counts, next_counts

    def test_one_row_equals_its_row_of_a_stack(self):
        rng = np.random.default_rng(3)
        S, U, B, k = 9, 4, 30, 5
        support = np.sort(rng.random(U))
        values = rng.normal(size=(k, S))
        n, reward_counts, next_counts = self.snapshots(rng, B, S, U)
        approx = uniform_set(S, 2, k=k, delta=0.02)
        logs = _log_terms(approx, 500, 0.05)
        r_mean, sr = reward_stats(reward_counts, n, support)
        pv, sp = transition_value_stats(next_counts, n, values)
        radii = four_radii(n, sr, sp, approx, logs)
        _, sp_first = transition_value_stats(next_counts, n, values[:1])
        assert sp_first[:, 0] == pytest.approx(sp[:, 0], rel=1e-12)
        for i in range(B):
            rows = (reward_stats(reward_counts[i], n[i], support),
                    transition_value_stats(next_counts[i], n[i], values))
            assert np.array_equal(rows[0], (r_mean[i], sr[i]))
            assert all(np.array_equal(x, y[i]) for x, y in zip(rows[1], (pv, sp)))
            one = four_radii(n[i], sr[i], sp[i], approx, logs)
            assert all(np.array_equal(x, y[i]) for x, y in zip(one, radii))
            single = four_radii(n[i:i + 1], sr[i:i + 1], sp[i, 0:1][None], approx, logs)
            assert single[1][0, 0] == radii[1][i, 0]
        assert all(np.all(np.isinf(r[n <= 1])) for r in radii)
        assert np.all(np.isfinite(radii[0][n > 1]))
        assert np.all(sr[n <= 1] == 0.0) and np.all(sp[n <= 1] == 0.0)

    @settings(max_examples=200, deadline=None)
    @given(S=st.integers(1, 8), U=st.integers(1, 4), before=st.integers(0, 50),
           B=st.integers(0, 70), start=st.integers(0, 70), seed=st.integers(0, 2 ** 32 - 1))
    def test_snapshots_from_a_start_are_the_full_stacks_rows(self, S, U, before, B, start,
                                                             seed):
        rng = np.random.default_rng(seed)
        emp = EmpiricalModel(S, 2, np.linspace(0.0, 1.0, U))
        add_pair_counts(emp, S - 1, 1, rng.multinomial(before, np.full(S, 1.0 / S)),
                        rng.multinomial(before, np.full(U, 1.0 / U)))
        next_states, reward_indices = rng.integers(S, size=B), rng.integers(U, size=B)
        start = min(start, B)
        full = emp.snapshots(S - 1, 1, next_states, reward_indices)
        rows = emp.snapshots(S - 1, 1, next_states, reward_indices, start)
        for x, y in zip(rows, full):
            assert x.dtype == y.dtype and x.tobytes() == y[start:].tobytes()
        assert full[0].tolist() == list(range(before + 1, before + B + 1))

    @pytest.mark.parametrize("before, B", [(0, 1), (37, 1), (37, 6)])
    def test_a_pass_at_the_last_draw_is_the_counts_after_it(self, before, B):
        # start = B - 1: one row, the counts after the run's last draw, on
        # top of ``before`` earlier draws; the one-query step is the reference.
        rng = np.random.default_rng(before + B)
        S, U = 6, 3
        emp = EmpiricalModel(S, 2, np.linspace(0.0, 1.0, U))
        for s2, u in zip(rng.integers(S, size=before), rng.integers(U, size=before)):
            add_sample(emp, 4, 1, s2, emp.reward_support[u])
        next_states, reward_indices = rng.integers(S, size=B), rng.integers(U, size=B)
        got = emp.snapshots(4, 1, next_states, reward_indices, B - 1)
        for s2, u in zip(next_states, reward_indices):
            add_sample(emp, 4, 1, s2, emp.reward_support[u])
        want = (emp.counts[4, 1], emp.reward_counts[4, 1], emp.next_counts[4, 1])
        for x, y in zip(got, want):
            assert x.dtype == np.int64 and x.shape == (1, *y.shape)
            assert np.array_equal(x[0], y)

    def test_failures_of_a_stack_equal_those_of_each_snapshot(self):
        fam = small_family()
        approx = ApproxModelSet(fam, 0.01)
        S, U = approx.num_states, fam[0].num_rewards
        rng = np.random.default_rng(5)
        n, reward_counts, next_counts = self.snapshots(rng, 25, S, U, most=5000)
        logs = _log_terms(approx, 1000, 0.1)
        idx = np.array([0, 2])
        stacked = compatibility_failures(idx, 0, 1, n, reward_counts, next_counts,
                                         fam[0].reward_support, approx, logs, 0)
        assert stacked.shape == (25, 2) and stacked.any()
        assert not stacked[n <= 1].any()
        for i in range(25):
            one = compatibility_failures(idx, 0, 1, n[i:i + 1], reward_counts[i:i + 1],
                                         next_counts[i:i + 1], fam[0].reward_support,
                                         approx, logs, 0)
            assert np.array_equal(one[0], stacked[i])


class TestPruning:
    def test_no_samples_no_elimination(self):
        fam = small_family()
        approx = ApproxModelSet(fam)
        emp = EmpiricalModel(approx.num_states, approx.num_actions, fam[0].reward_support)
        logs = _log_terms(approx, 100, 0.1)
        assert prune_confidence_set({0, 1, 2}, emp, approx, logs) == {0, 1, 2}

    def test_gross_reward_deviation_eliminates(self):
        fam = small_family()
        approx = ApproxModelSet(fam)
        emp = EmpiricalModel(approx.num_states, approx.num_actions, fam[0].reward_support)
        # Cell 0 distinguishes the tasks: rewards 0.5 / 0.6 / 0.7. Feed a
        # large sample exactly matching task 0.
        for _ in range(5000):
            add_sample(emp, 0, 0, 0, 0.5)
        survivors = prune_confidence_set({0, 1, 2}, emp, approx,
                                         _log_terms(approx, 10_000, 0.1))
        assert 0 in survivors
        assert 2 not in survivors

    @staticmethod
    def prune_pair(approx, next_counts):
        """Survivors of {0, 1} after ``next_counts`` draws at (0, 0)."""
        emp = EmpiricalModel(approx.num_states, 1, approx.models[0].reward_support)
        reward_counts = np.zeros(approx.models[0].num_rewards, dtype=int)
        reward_counts[0] = sum(next_counts)
        add_pair_counts(emp, 0, 0, next_counts, reward_counts)
        return emp, prune_confidence_set({0, 1}, emp, approx,
                                         _log_terms(approx, 1000, 0.1))

    def test_transition_mean_alone_eliminates(self):
        # A sure move to the paying state 1 (truth) against one to state 2.
        # Every std is 0 and the rewards agree, so only p . V_j separates.
        approx = branch_pair([0.0, 1.0, 0.0], [0, 1, 0], [0, 0, 1])
        emp, survivors = self.prune_pair(approx, [0, 1000, 0])
        assert np.array_equal(approx.rewards[0], approx.rewards[1])
        assert np.all(approx.sigma_p[:, :, 0, 0] == 0.0)
        _, sp = transition_value_stats(emp.next_counts[0, 0], emp.counts[0, 0], approx.values)
        assert np.all(sp == 0.0)
        assert survivors == {0}

    def test_transition_std_alone_eliminates(self):
        # A fair branch to states 1 / 2 (truth) against a sure move to state
        # 3, which pays 0.5: under both models V_j(S') after (0, 0) has the
        # same mean, but only the truth spreads it.
        approx = branch_pair([0.0, 1.0, 0.0, 0.5], [0, 0.5, 0.5, 0], [0, 0, 0, 1])
        emp, survivors = self.prune_pair(approx, [0, 500, 500, 0])
        assert np.array_equal(approx.rewards[0], approx.rewards[1])
        p_hat = emp.next_counts[0, 0] / 1000
        for theta in (0, 1):
            assert approx.pv[theta, :, 0, 0] == pytest.approx(
                approx.values @ p_hat, abs=1e-9)
        assert np.all(approx.sigma_p[1, :, 0, 0] == 0.0)
        assert survivors == {0}

    def test_empty_active_rejected(self):
        fam = small_family()
        approx = ApproxModelSet(fam)
        emp = EmpiricalModel(approx.num_states, approx.num_actions, fam[0].reward_support)
        with pytest.raises(ValueError):
            prune_confidence_set(set(), emp, approx, _log_terms(approx, 10, 0.1))


class TestStopping:
    def test_singleton_stops(self):
        fam = small_family()
        approx = ApproxModelSet(fam)
        got = check_stop({1}, approx, eps=0.1)
        assert got is not None
        theta, policy = got
        assert theta == 1
        assert np.array_equal(policy, approx.policies[1])

    def test_identical_models_stop_immediately(self):
        fam = small_family()
        approx = ApproxModelSet([fam[0], fam[0]])
        got = check_stop({0, 1}, approx, eps=0.01)
        assert got is not None and got[0] == 0

    def test_multi_goal_family_no_stop_at_start(self):
        # Distinct best goals: no task's policy is eps-good for all others
        # even at eps=1, so the full set cannot stop at t=0.
        fam = multi_goal_family()
        approx = ApproxModelSet(fam)
        assert check_stop(set(range(7)), approx, eps=1.0) is None

    def test_negative_margin_rejected(self):
        approx = ApproxModelSet(small_family(), 0.1)
        assert stop_margin(0.1, approx.delta, approx.gamma) < 0
        with pytest.raises(ValueError):
            check_stop({0, 1}, approx, eps=0.1)


@functools.lru_cache(maxsize=4)
def cross_values(approx):
    """xval[i, j]: model i's optimal policy evaluated in model j, one stacked
    solve per policy; the diagonal is the planner's own V*_i."""
    k = approx.num_models
    xval = np.repeat(approx.values[:, None], k, axis=1)
    for i in range(k):
        others = [j for j in range(k) if j != i]
        if others:
            xval[i, others] = policy_values([approx.models[j] for j in others],
                                            approx.policies[i])
    xval.setflags(write=False)
    return xval


def reference_check_stop(active, approx, eps):
    """``check_stop`` by the exhaustive test over the whole k x k table of
    policy evaluations: the lowest active theta with xval[theta, theta'] >=
    V*_theta' - margin at every state, for every active theta'."""
    margin = stop_margin(eps, approx.delta, approx.gamma)
    idx = sorted(active)
    good = np.all(cross_values(approx)[np.ix_(idx, idx)] >= approx.values[idx] - margin,
                  axis=(1, 2))
    if not good.any():
        return None
    theta = idx[int(np.argmax(good))]
    return theta, approx.policies[theta].copy()


def assert_stop_is_the_exhaustive_test(approx, subsets, margins):
    """Every pair the screen rules out fails the exact test, and
    ``check_stop`` equals ``reference_check_stop`` on every subset; the set
    has delta 0, so eps is the margin.  Returns the pairs ruled out."""
    assert approx.delta == 0.0
    k = approx.num_models
    xval = cross_values(approx)
    ruled_out = 0
    for margin in margins:
        out = ptum._screened_out(list(range(k)), approx, margin)
        for i, j in zip(*np.nonzero(out)):
            assert np.any(xval[i, j] < approx.values[j] - margin), (i, j, margin)
        ruled_out += int(out.sum())
        for active in subsets:
            got = check_stop(active, approx, margin)
            want = reference_check_stop(active, approx, margin)
            assert (got is None) == (want is None), (active, margin)
            if got is not None:
                assert got[0] == want[0] and np.array_equal(got[1], want[1])
    return ruled_out


def all_subsets(k):
    return [set(c) for r in range(1, k + 1) for c in itertools.combinations(range(k), r)]


@st.composite
def stop_cases(draw):
    """Random model sets over stochastic rows, some models near-duplicates
    (an earlier model's rows moved by up to 1e-12 to 1e-2, or not at all),
    and stop margins in [0, 1]."""
    S, A = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    U, k = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    gamma = draw(st.sampled_from([0.0, 0.5, 0.9, 0.99, 0.9999]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    support = np.sort(rng.choice(np.linspace(0.0, 1.0, 11), U, replace=False))
    rows = []
    for _ in range(k):
        source = draw(st.integers(-1, len(rows) - 1))
        if source < 0:
            rows.append((random_rows(rng, (S, A), S), random_rows(rng, (S, A), U)))
            continue
        shift = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-4, 1e-2]))
        rows.append(tuple((1.0 - shift) * r + shift * random_rows(rng, (S, A), r.shape[-1])
                          for r in rows[source]))
    models = [TabularMdp(p=p, reward_support=support, q=q, gamma=gamma) for p, q in rows]
    margins = draw(st.lists(st.just(0.0) | st.floats(0.0, 1.0), min_size=1, max_size=3))
    return ApproxModelSet(models), margins


class TestStopScreen:
    # check_stop rules candidates out by the one-step advantage before it
    # evaluates any policy; its result must be that of the exhaustive test.

    @settings(max_examples=150, deadline=None)
    @given(stop_cases())
    def test_random_sets_stop_as_the_exhaustive_test(self, case):
        approx, margins = case
        assert_stop_is_the_exhaustive_test(approx, all_subsets(approx.num_models), margins)

    def test_every_subset_of_a_learned_set(self):
        approx = ApproxModelSet(learned_objectworld_models())
        ruled_out = assert_stop_is_the_exhaustive_test(approx, all_subsets(8),
                                                       [0.0, 0.05, 0.5, 1.0])
        assert ruled_out > 0

    # Margins up to 1 rule out every pair of these families; the wider ones
    # reach the spread of adv and leave pairs to the exact test.
    @pytest.mark.parametrize("family, margins", [
        (two_rooms_family, [0.0, 1.0, 2.05, 97.5]),
        (multi_goal_family, [0.0, 1.0, 980.0, 2000.0]),
    ])
    def test_random_subsets_of_the_grid_families(self, family, margins):
        approx = ApproxModelSet(family())
        k = approx.num_models
        rng = np.random.default_rng(k)
        subsets = [set(np.flatnonzero(rng.random(k) < 0.4).tolist()) or {0}
                   for _ in range(30)] + [set(range(k))]
        ruled_out = assert_stop_is_the_exhaustive_test(approx, subsets, margins)
        assert 0 < ruled_out < len(margins) * k * (k - 1)

    def test_two_rooms_identification_evaluates_no_policy(self):
        # The screen settles every stop check of a two-rooms run, and the
        # set's build evaluates no policy either.
        fam = two_rooms_family()
        with mock.patch.object(ptum, "policy_values", wraps=ptum.policy_values) as spy:
            approx = ApproxModelSet(fam)
            res = run_ptum(approx, GenerativeModel(fam[0]), 0.1, 0.01, 100_000,
                           run_rng(101, 0))
        assert res.mode == "transfer-stopped" and res.chosen_model == 0
        assert spy.call_count == 0


def info_index(theta, theta2, s, a, approx):
    """Information for discriminating theta from theta2 at (s, a), one
    entry at a time: the scalar reference for ``info_index_table``.

    Clipped gaps [gap - 8*delta]_+ over the first model's standard
    deviations; zero-variance components with a positive gap fall back to
    the linear term.
    """
    gamma = approx.gamma
    dr = max(approx.reward_gap[theta, theta2, s, a] - 8.0 * approx.delta, 0.0)
    dp = max(approx.trans_gap[theta, theta2, s, a] - 8.0 * approx.delta, 0.0)
    psi_r = 0.0
    if dr > 0.0:
        sr = approx.sigma_r[theta, s, a]
        psi_r = min((dr / sr) ** 2 if sr > 0 else INF, dr)
    psi_p = 0.0
    if dp > 0.0:
        sp = approx.sigma_p[theta, theta, s, a]
        psi_p = min((dp / sp) ** 2 if sp > 0 else INF, (1.0 - gamma) * dp)
    return max(psi_r, psi_p)


class TestInfoIndex:
    def test_same_model_zero(self):
        fam = small_family()
        approx = ApproxModelSet(fam)
        assert info_index(1, 1, 0, 0, approx) == 0.0

    def test_unit_gap_unit_sigma(self):
        # Reward gap 1 with sigma 1 and no uncertainty: min(1, 1) = 1.
        p = np.ones((1, 1, 1))
        support = np.array([0.0, 1.0])
        qa = np.zeros((1, 1, 2)); qa[0, 0, 0] = 1.0
        qb = np.zeros((1, 1, 2)); qb[0, 0, 1] = 1.0
        a = TabularMdp(p=p, reward_support=support, q=qa, gamma=0.5)
        b = TabularMdp(p=p, reward_support=support, q=qb, gamma=0.5)
        approx = ApproxModelSet([a, b])
        # sigma_r of a point mass is 0, so the ratio term is infinite and the
        # min picks the linear term: Psi = gap = 1.
        assert info_index(0, 1, 0, 0, approx) == pytest.approx(1.0)

    def test_clipped_gap_vanishes(self):
        fam = small_family()
        approx = ApproxModelSet(fam, 0.02)
        # Tasks 0 and 1 differ by 0.1 < 8 * 0.02 at the distinguishing cell,
        # so the clipped gap [0.1 - 0.16]+ vanishes.
        assert info_index(0, 1, 0, 0, approx) == 0.0

    def test_monotone_in_delta(self):
        fam = small_family()
        deltas = [0.0, 0.002, 0.005, 0.01, 0.02]
        vals = [info_index(0, 2, 0, 0, ApproxModelSet(fam, d)) for d in deltas]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_table_matches_scalar(self):
        fam = small_family()
        approx = ApproxModelSet(fam, 0.001)
        table = info_index_table(approx)
        rng = np.random.default_rng(0)
        for _ in range(40):
            i, j = rng.integers(3, size=2)
            s = int(rng.integers(approx.num_states))
            a = int(rng.integers(approx.num_actions))
            assert table[i, j, s, a] == pytest.approx(
                info_index(int(i), int(j), s, a, approx), abs=1e-12)


class TestSelectQuery:
    def test_singleton_ties_break_low(self):
        fam = small_family()
        approx = ApproxModelSet(fam)
        assert select_query({1}, approx) == (0, 0)

    def test_unique_discriminating_pair(self):
        fam = small_family()
        approx = ApproxModelSet(fam)
        # All reward differences live at cell 0 (every action).
        s, a = select_query({0, 2}, approx)
        assert s == 0 and a == 0


class TestRunPtum:
    def test_singleton_stops_at_zero(self):
        fam = small_family(num_tasks=1)
        approx = ApproxModelSet(fam)
        g = GenerativeModel(fam[0])
        res = run_ptum(approx, g, eps=0.1, delta=0.05, n=100, rng=np.random.default_rng(0))
        assert res.mode == "transfer-stopped"
        assert res.tau == 0
        assert res.chosen_model == 0
        assert g.queries_used == 0

    def test_gate_failure_falls_back(self):
        fam = small_family()
        approx = ApproxModelSet(fam, 0.5)
        g = GenerativeModel(fam[0])
        # The theory count is far past n, so each pair gets n // (S*A) = 2.
        pairs = approx.num_states * approx.num_actions
        res = run_ptum(approx, g, eps=0.1, delta=0.05, n=2 * pairs + 1,
                       rng=np.random.default_rng(1))
        assert res.mode == "fallback-gate"
        assert (res.tau, res.queried, res.survived_trace) == (0, [], [[0, 1, 2]])
        assert g.queries_used == pairs * 2

    def test_trace_monotone_and_deterministic(self):
        fam = small_family()
        approx = ApproxModelSet(fam)

        def run():
            g = GenerativeModel(fam[0])
            return run_ptum(approx, g, eps=0.3, delta=0.05, n=5000,
                            rng=np.random.default_rng(7))

        a, b = run(), run()
        assert a.mode == "transfer-stopped"
        assert a.queried == b.queried
        assert a.survived_trace == b.survived_trace
        sets = [set(step) for step in a.survived_trace]
        assert all(t1 > t2 for t1, t2 in zip(sets, sets[1:]))
        assert all(0 in step for step in sets)

    def test_loop_follows_stop_and_select(self):
        fam = two_rooms_family()
        approx = ApproxModelSet(fam)
        res = run_ptum(approx, GenerativeModel(fam[0]), eps=0.1, delta=0.01,
                       n=100_000, rng=np.random.default_rng(11))
        assert res.mode == "transfer-stopped"
        assert len(res.queried) == len(res.survived_trace) - 1 > 0
        assert res.chosen_model == check_stop(res.survived, approx, 0.1)[0]
        assert all(check_stop(set(step), approx, 0.1) is None
                   for step in res.survived_trace[:-1])
        assert_segment_record(res, approx)

    @pytest.mark.parametrize("change", ["states", "actions", "reward_support", "gamma"])
    def test_oracle_must_match_the_model_set(self, change):
        fam = small_family()
        approx = ApproxModelSet(fam)
        m = fam[0]
        spec = dict(p=m.p, reward_support=m.reward_support, q=m.q, gamma=m.gamma)
        spec.update({
            "states": dict(p=np.ones((1, m.num_actions, 1)), q=m.q[:1]),
            "actions": dict(p=m.p[:, :1], q=m.q[:, :1]),
            "reward_support": dict(reward_support=m.reward_support / 2),
            "gamma": dict(gamma=0.5),
        }[change])
        g = GenerativeModel(TabularMdp(**spec))
        with pytest.raises(ValueError, match="oracle"):
            run_ptum(approx, g, eps=0.1, delta=0.05, n=100, rng=np.random.default_rng(0))
        assert g.queries_used == 0

    @pytest.mark.parametrize("active", [{-1}, {-12, 3}, {12}])
    def test_active_index_outside_the_set_rejected(self, active):
        # Negative indices would alias the last models, and one past the end
        # would fail deep inside the loop.
        fam = two_rooms_family()
        with pytest.raises(ValueError, match="subset"):
            run_ptum(ApproxModelSet(fam), GenerativeModel(fam[0]), 0.1, 0.01, 1000,
                     run_rng(101, 0), active=active)

    def test_budget_exhaustion_falls_back(self):
        fam = small_family()
        approx = ApproxModelSet(fam)
        g = GenerativeModel(fam[0])
        res = run_ptum(approx, g, eps=0.3, delta=0.05, n=3,
                       rng=np.random.default_rng(2))
        assert res.mode == "fallback-budget"
        # n // (S*A) is 0, so the fallback queries every pair once.
        assert g.queries_used == 3 + approx.num_states * approx.num_actions
        assert res.policy.shape == (approx.num_states,)


class TestFallback:
    def test_deterministic_model_single_sample(self):
        p = np.zeros((2, 2, 2))
        p[:, 0, 0] = 1.0
        p[:, 1, 1] = 1.0
        support = np.array([0.0, 1.0])
        q = np.zeros((2, 2, 2))
        q[:, :, 0] = 1.0
        q[1, 1] = [0.0, 1.0]
        truth = TabularMdp(p=p, reward_support=support, q=q, gamma=0.9)
        g = GenerativeModel(truth)
        policy, emp = uniform_pac_fallback(g, 1, np.random.default_rng(3))
        v_star, pi_star = value_iteration(truth)
        assert np.allclose(policy_evaluation(truth, policy), v_star)

    def test_large_budget_near_optimal(self):
        rng = np.random.default_rng(4)
        truth = TabularMdp(
            p=rng.dirichlet(np.ones(4), size=(4, 2)),
            reward_support=np.linspace(0, 1, 3),
            q=rng.dirichlet(np.ones(3), size=(4, 2)),
            gamma=0.9,
        )
        g = GenerativeModel(truth)
        policy, _ = uniform_pac_fallback(g, 10_000, rng)
        v_star, _ = value_iteration(truth)
        assert np.max(v_star - policy_evaluation(truth, policy)) < 0.01

    def test_default_per_pair_formula(self):
        got = default_fallback_per_pair(0.5, 0.1, 4, 2, 0.9)
        expected = math.ceil(2 * math.log(4 * 8 / 0.1) / (0.25 * 0.1 ** 3))
        assert got == expected

    def test_per_pair_count_is_unbounded_at_eps_zero(self):
        # So run_ptum's cap, max(n // (S*A), 1), decides; eps < 0 stays an error.
        assert default_fallback_per_pair(0.0, 0.1, 4, 2, 0.9) == INF
        assert default_fallback_per_pair(1e-170, 0.1, 4, 2, 0.9) == INF
        for eps in (-0.1, math.nan):
            with pytest.raises(ValueError):
                default_fallback_per_pair(eps, 0.1, 4, 2, 0.9)


class TestDiagnostics:
    def test_all_models_close_gives_empty_set(self):
        fam = small_family()
        approx = ApproxModelSet([fam[0], fam[0]])
        theta_eps, bound = theta_eps_and_bound(approx, 0, eps=0.5, delta=0.1, n=100)
        assert theta_eps == set()
        assert bound == 0.0

    def test_separated_models_flagged(self):
        fam = small_family()
        approx = ApproxModelSet(fam)
        theta_eps, bound = theta_eps_and_bound(approx, 0, eps=0.1, delta=0.1, n=1000)
        assert theta_eps == {1, 2}
        assert bound > 0.0 and math.isfinite(bound)

    def test_gate_failure_raises(self):
        fam = small_family()
        # transfer_gate's threshold at eps = 0.1 and gamma = 0.9.  Below
        # twice it the stop margin, and so kappa, is still positive, yet
        # run_ptum falls back at the gate, so the diagnostic refuses the set.
        gate = 0.1 * (1.0 - 0.9) / (4.0 * (1.0 + 0.9))
        for level in (0.5, gate, 1.5 * gate, 1.99 * gate):
            approx = ApproxModelSet(fam, level)
            with pytest.raises(ValueError):
                theta_eps_and_bound(approx, 0, eps=0.1, delta=0.1, n=100)
            res = run_ptum(approx, GenerativeModel(fam[0]), 0.1, 0.1, 100,
                           np.random.default_rng(0))
            assert res.mode == "fallback-gate"
        # eps = 0 is exact identification, which needs exact models.
        with pytest.raises(ValueError):
            theta_eps_and_bound(ApproxModelSet(fam, 1e-6), 0, eps=0.0, delta=0.1, n=100)
        assert theta_eps_and_bound(ApproxModelSet(fam), 0, eps=0.0, delta=0.1,
                                   n=100)[0] == {1, 2}


def add_pair_counts(emp, s, a, next_counts, reward_counts):
    """Add one pair's next-state (S,) and reward (U,) count rows at (s, a)
    of ``emp``, as whole tables through ``add_counts``."""
    tables = [np.zeros_like(x) for x in (emp.next_counts, emp.reward_counts)]
    tables[0][s, a], tables[1][s, a] = next_counts, reward_counts
    emp.add_counts(*tables)


def add_sample(emp, s, a, next_state, reward_value):
    """Add one query's outcome at (s, a) to ``emp``: the one-sample step of
    ``reference_run_ptum``."""
    emp.counts[s, a] += 1
    emp.reward_counts[s, a, list(emp.reward_support).index(reward_value)] += 1
    emp.next_counts[s, a, next_state] += 1


def reference_run_ptum(approx, g, eps, delta, n, rng, active=None):
    """The identification loop one query at a time, kept as the reference
    for ``run_ptum``, which draws and prunes whole runs of queries at once:
    after every query it prunes with ``prune_confidence_set`` at that
    query's pair.  Its per-query log is compressed into ``run_ptum``'s
    segments only for the result (``segment_record``)."""
    k = approx.num_models
    S, A = approx.num_states, approx.num_actions
    gamma = approx.gamma
    initial = set(range(k)) if active is None else set(active)

    def result(mode, emp, log, trace, policy=None, theta=None):
        if policy is None:
            per_pair = min(default_fallback_per_pair(eps, delta, S, A, gamma),
                           max(n // (S * A), 1))
            policy, emp = uniform_pac_fallback(g, per_pair, rng, emp)
        survived_trace, queried = segment_record(log, trace)
        return PtumResult(policy=policy, tau=len(log), mode=mode,
                          chosen_model=theta, survived_trace=survived_trace,
                          queried=queried, queries_total=g.queries_used,
                          empirical=emp)

    emp = EmpiricalModel(S, A, g.reward_support)
    if not transfer_gate(approx.delta, eps, gamma):
        return result("fallback-gate", emp, [], [sorted(initial)])
    logs = _log_terms(approx, n, delta)
    active_set = set(initial)
    trace = [sorted(active_set)]
    log = []
    changed = True
    for t in range(n + 1):
        if log:
            _, s, a = log[-1]
            new_active = prune_confidence_set(active_set, emp, approx, logs,
                                              pairs=[(s, a)])
            if not new_active:
                return result("fallback-eliminated", emp, log, trace)
            changed = new_active != active_set
            active_set = new_active
            trace.append(sorted(active_set))
        if changed:
            stopped = check_stop(active_set, approx, eps)
            if stopped is not None:
                theta, policy = stopped
                return result("transfer-stopped", emp, log, trace, policy, theta)
            query = select_query(active_set, approx)
            changed = False
        if t == n:
            break
        s, a = query
        s2, u = g.query(s, a, rng)
        add_sample(emp, s, a, s2, u)
        log.append((t, s, a))
    return result("fallback-budget", emp, log, trace)


def segment_record(log, trace):
    """A per-query log of (t, s, a) and a per-prune trace of active sets,
    whose entry t is the set query t was chosen from, as ``PtumResult``'s
    record: the distinct sets of the trace in order, and one (s, a, count)
    per segment of queries made from one of them."""
    segment = np.cumsum([0] + [now != before for before, now in zip(trace, trace[1:])])
    sets = [trace[0]] + [now for before, now in zip(trace, trace[1:]) if now != before]
    queried = [(s, a, len(list(run))) for (_, s, a), run in
               itertools.groupby(log, key=lambda q: (segment[q[0]], q[1], q[2]))]
    return sets, queried


def assert_segment_record(res, approx):
    """The invariants of ``PtumResult``'s segment record."""
    assert all(later < earlier for earlier, later in
               zip(map(set, res.survived_trace), map(set, res.survived_trace[1:])))
    for theta in range(approx.num_models):
        assert all(theta in step for step in res.survived_trace) == (theta in res.survived)
    assert sum(c for *_, c in res.queried) == res.tau
    assert all(c > 0 for *_, c in res.queried)
    assert len(res.survived_trace) - 1 <= len(res.queried) <= len(res.survived_trace)
    for (s, a, _), step in zip(res.queried, res.survived_trace):
        assert (s, a) == select_query(set(step), approx)


def same_state(rng1, rng2) -> bool:
    """Whether two generators' bit-generator states are equal."""
    def equal(x, y):
        if isinstance(x, dict):
            return x.keys() == y.keys() and all(equal(x[k], y[k]) for k in x)
        return np.array_equal(x, y)
    return equal(rng1.bit_generator.state, rng2.bit_generator.state)


class SamplesOnly:
    """An oracle that lets through nothing but its public interface."""

    def __init__(self, oracle):
        self._oracle = oracle

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._oracle, name)


class CountingDraws(SamplesOnly):
    """A public-surface oracle that logs (count, kept) per ``query_many``
    call in ``draws``; kept < count is a hand-back."""

    def __init__(self, oracle, draws):
        super().__init__(oracle)
        self._draws = draws

    def query_many(self, s, a, count, rng, keep=None):
        drawn = self._oracle.query_many(s, a, count, rng, keep=keep)
        self._draws.append((count, len(drawn[0])))
        return drawn


def random_rows(rng, shape, width):
    """Distributions over ``width`` outcomes, many sparse or one-point."""
    rows = rng.dirichlet(np.full(width, 0.5), size=shape)
    rows[rng.random(rows.shape) < 0.3] = 0.0
    empty = rows.sum(axis=-1) == 0.0
    rows[empty, rng.integers(width, size=int(empty.sum()))] = 1.0
    return rows / rows.sum(axis=-1, keepdims=True)


# Budgets of at most 12 queries end before any count where a model can
# fail: up to there 7L/(3(N-1)) alone is past the unit reward range and
# past V's range times (1 - gamma), and sqrt(2L'/(N-1)) past half of either
# range times sqrt(N/(N-1)).
SHORT_BUDGETS = st.integers(2, 12)


@st.composite
def identification_cases(draw, budgets=st.integers(0, 600) | SHORT_BUDGETS):
    """Small random families, uncertainty levels, query budgets n and
    active sets."""
    S, A = draw(st.integers(1, 6)), draw(st.integers(2, 3))
    U, k = draw(st.integers(2, 4)), draw(st.integers(2, 5))
    gamma = draw(st.sampled_from([0.0, 0.5, 0.9]))
    eps = draw(st.sampled_from([0.01, 0.05, 0.2])) / (1.0 - gamma)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    support = np.concatenate([[0.0], np.sort(rng.choice(np.linspace(0.1, 0.9, 9), U - 2,
                                                        replace=False)), [1.0]])

    sure_rewards = draw(st.booleans())

    def model():
        q = random_rows(rng, (S, A), U)
        if sure_rewards:
            # Every pair pays one value, so the optimal policies differ.
            q = np.eye(U)[rng.integers(U, size=(S, A))]
        return TabularMdp(p=random_rows(rng, (S, A), S), reward_support=support,
                          q=q, gamma=gamma)

    models = [model() for _ in range(k)]
    if draw(st.booleans()):
        models[-1] = models[0]
    truth = models[draw(st.integers(0, k - 1))] if draw(st.booleans()) else model()
    gate = eps * (1.0 - gamma) / (4.0 * (1.0 + gamma))
    level = draw(st.sampled_from([0.0, 0.2, 0.6, 1.2])) * gate
    n = draw(budgets)
    active = draw(st.none() | st.sets(st.integers(0, k - 1), min_size=1))
    return dict(approx=ApproxModelSet(models, level), truth=truth, eps=eps,
                delta=draw(st.sampled_from([0.05, 0.3])), n=n,
                active=active, seed=draw(st.integers(0, 1000)))


def identify(loop, case, wrap=lambda g: g):
    """``loop``'s result, the oracle and rng."""
    g = GenerativeModel(case["truth"])
    rng = run_rng(case["seed"], 0)
    result = loop(case["approx"], wrap(g), case["eps"], case["delta"], case["n"],
                  rng, active=case["active"])
    return result, g, rng


def assert_same_identification(case, wrap=SamplesOnly):
    """``run_ptum`` and the reference loop agree in every result field, in
    the oracle's charge and in the generator state; returns the result."""
    got, g, rng = identify(run_ptum, case, wrap)
    ref, g_ref, rng_ref = identify(reference_run_ptum, case)
    assert g.queries_used == g_ref.queries_used
    assert same_state(rng, rng_ref)
    assert np.array_equal(got.policy, ref.policy)
    assert (got.tau, got.mode, got.chosen_model, got.survived_trace, got.queried,
            got.queries_total) == (ref.tau, ref.mode, ref.chosen_model,
                                   ref.survived_trace, ref.queried, ref.queries_total)
    for name in ("counts", "reward_counts", "next_counts"):
        assert np.array_equal(getattr(got.empirical, name), getattr(ref.empirical, name))
    return got


def split_branch(row):
    """From state 0, action 0 leads by ``row``; action 1 leads surely to
    state 3, which pays 0.5.  State 1 pays 1; every other state pays 0."""
    q = np.zeros((4, 2, 3))
    q[[0, 1, 2, 3], :, [0, 2, 0, 1]] = 1.0
    p = np.zeros((4, 2, 4))
    p[0, 0] = row
    p[0, 1, 3] = 1.0
    p[np.arange(1, 4), :, np.arange(1, 4)] = 1.0
    return TabularMdp(p=p, reward_support=np.array([0.0, 0.5, 1.0]), q=q, gamma=0.5)


# Action 0 leads surely to the paying state 1 in one model and surely to
# state 2 in the other, which therefore prefers action 1: neither policy
# serves both, and the truth, branching evenly, matches neither.
ELIMINATED_CASE = dict(
    approx=ApproxModelSet([split_branch([0, 1, 0, 0]), split_branch([0, 0, 1, 0])]),
    truth=split_branch([0, 0.5, 0.5, 0]), eps=0.1, delta=0.05, n=2000, active=None,
    seed=3)


def two_rooms_case(n, level=0.0, seed=101):
    fam = two_rooms_family()
    return dict(approx=ApproxModelSet(fam, level), truth=fam[0], eps=0.1, delta=0.01,
                n=n, active=None, seed=seed)


class TestSegmentRecord:
    # With a budget of 98 or 100 each two-rooms segment eliminates at its
    # 49th query, so 98 ends with a third set that is never queried.  The
    # eliminated case's one segment empties the initial set.
    CASES = {  # case, mode, queried, sets in survived_trace
        "stopped": (two_rooms_case(100_000), "transfer-stopped",
                    [(8, 0, 65), (20, 0, 65), (31, 0, 65)], 4),
        "gate": (two_rooms_case(100_000, 0.5), "fallback-gate", [], 1),
        "budget": (two_rooms_case(100), "fallback-budget",
                   [(8, 0, 49), (20, 0, 49), (31, 0, 2)], 3),
        "budget-spent-at-an-elimination": (two_rooms_case(98), "fallback-budget",
                                           [(8, 0, 49), (20, 0, 49)], 3),
        "eliminated": (ELIMINATED_CASE, "fallback-eliminated", [(0, 0, 123)], 1),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_one_record_per_segment(self, name):
        case, mode, queried, sets = self.CASES[name]
        got = assert_same_identification(case)
        assert (got.mode, got.queried, len(got.survived_trace)) == (mode, queried, sets)
        assert_segment_record(got, case["approx"])
        if mode == "fallback-eliminated":
            assert got.survived == {0, 1}


class TestRunsOfQueries:
    @pytest.mark.parametrize("seed", [101, 102])
    def test_two_rooms_runs_equal_the_one_query_loop(self, seed):
        got = assert_same_identification(two_rooms_case(100_000, seed=seed))
        assert got.mode == "transfer-stopped" and got.tau == 195

    def test_all_eliminated_equals_the_one_query_loop(self):
        got = assert_same_identification(ELIMINATED_CASE)
        assert got.mode == "fallback-eliminated" and got.tau < 2000
        assert got.survived_trace[-1] == [0, 1]

    @settings(max_examples=300, deadline=None)
    @given(identification_cases())
    def test_runs_equal_the_one_query_loop(self, case):
        got = assert_same_identification(case)
        assert got.tau <= case["n"]
        assert_segment_record(got, case["approx"])
        if got.mode == "transfer-stopped":
            approx = case["approx"]
            margin = stop_margin(case["eps"], approx.delta, approx.gamma)
            for theta in got.survived:
                value = policy_evaluation(approx.models[theta], got.policy)
                assert np.all(value >= approx.values[theta] - margin - 1e-6)


class TestCountsFromThePass:
    """A pair's counts are the last kept snapshot of its run's pass, not a
    second count of the draws: runs that end below the opening count, and
    a run that hands draws back, give the one-query loop's counts."""

    @staticmethod
    def passes(case, draws):
        """``run_ptum``'s result on ``case`` and the counts of each pass."""
        calls = []

        def spy(idx, s, a, n, *rest):
            calls.append(n.tolist())
            return compatibility_failures(idx, s, a, n, *rest)

        with mock.patch.object(ptum, "compatibility_failures", spy):
            got, _, _ = identify(run_ptum, case, lambda g: CountingDraws(g, draws))
        return got, calls

    @pytest.mark.parametrize("n, queried", [(10, [(8, 0, 10)]),
                                            (64, [(8, 0, 48), (20, 0, 16)])])
    def test_a_budget_that_ends_below_the_opening_count(self, n, queried):
        # At n = 10 the pairs open at N = 11, past the budget.  At n = 64
        # they open at 48, where the first segment eliminates; the second
        # segment's 16 draws end below it.  Each run's pass is its last
        # draw's snapshot alone.
        draws = []
        got, calls = self.passes(two_rooms_case(n), draws)
        assert got.mode == "fallback-budget" and got.queried == queried
        assert calls == [[count] for *_, count in queried]
        assert draws == [(count, count) for *_, count in queried]
        assert_same_identification(two_rooms_case(n))

    def test_a_run_that_hands_draws_back(self):
        # Multi-goal, true task 1, blocks of 64: each segment's last run
        # draws 64 and keeps 40, up to the elimination at N = 566.  The
        # stopped run's table is the elimination's alone: 566 at each pair.
        fam = multi_goal_family()
        case = dict(approx=ApproxModelSet(fam), truth=fam[1], eps=0.1, delta=0.01,
                    n=100_000, active=None, seed=101)
        draws = []
        with mock.patch.object(ptum, "_RUN_BLOCK", 64):
            got, calls = self.passes(case, draws)
            assert_same_identification(case)
        assert got.mode == "transfer-stopped" and got.queried == [(6, 0, 566), (11, 0, 566)]
        assert draws[8] == draws[17] == (64, 40) and calls[8][39] == 566
        emp = got.empirical
        assert emp.counts[6, 0] == emp.counts[11, 0] == 566 == emp.counts.sum() / 2
        assert np.array_equal(emp.reward_counts.sum(axis=2), emp.counts)
        assert np.array_equal(emp.next_counts.sum(axis=2), emp.counts)


class TestExactIdentificationFallback:
    """At eps = 0 the theory count of the uniform fallback is unbounded, so
    a run that falls back queries every pair max(n // (S*A), 1) times."""

    @pytest.mark.parametrize("case, mode", [
        (dict(two_rooms_case(50), eps=0.0), "fallback-budget"),
        (dict(ELIMINATED_CASE, eps=0.0), "fallback-eliminated"),
    ])
    def test_fallback_takes_the_cap(self, case, mode):
        got = assert_same_identification(case)
        approx = case["approx"]
        cells = approx.num_states * approx.num_actions
        assert got.mode == mode
        assert got.queries_total == got.tau + cells * max(case["n"] // cells, 1)


class TestRunSizes:
    """The size of each run of draws sets only the work thrown away: with
    any ``_RUN_BLOCK`` and ``_RUN_LOOKAHEAD`` the loop gives what the one
    query loop gives."""

    @settings(max_examples=150, deadline=None)
    @given(identification_cases(), st.sampled_from([1, 7, 64, 10_000]),
           st.sampled_from([3, 4096]))
    def test_results_do_not_depend_on_the_run_sizes(self, case, block, lookahead):
        with mock.patch.object(ptum, "_RUN_BLOCK", block), \
                mock.patch.object(ptum, "_RUN_LOOKAHEAD", lookahead):
            assert_same_identification(case)

    @pytest.mark.parametrize("block", [1, 7, 64, 10_000])
    def test_two_rooms_and_multi_goal_do_not_depend_on_the_block(self, block):
        fam = multi_goal_family()
        multi_goal = dict(approx=ApproxModelSet(fam), truth=fam[1], eps=0.1,
                          delta=0.01, n=2000, active=None, seed=101)
        with mock.patch.object(ptum, "_RUN_BLOCK", block):
            for case in (two_rooms_case(100_000), multi_goal):
                assert_same_identification(case)

    def test_a_draw_looks_no_further_than_the_lookahead(self):
        # Two-rooms pairs open at N = 65.  With blocks of one query and a
        # look-ahead of 20, each segment draws 20 three times, then the 5
        # that reach 65, where its one-snapshot pass eliminates.
        draws = []
        with mock.patch.object(ptum, "_RUN_BLOCK", 1), \
                mock.patch.object(ptum, "_RUN_LOOKAHEAD", 20):
            got, _, _ = identify(run_ptum, two_rooms_case(100_000),
                                 lambda g: CountingDraws(g, draws))
        assert got.mode == "transfer-stopped" and got.tau == 195
        assert draws == ([(20, 20)] * 3 + [(5, 5)]) * 3

    @pytest.mark.parametrize("block", [1, 64, 100, 10_000])
    def test_a_fresh_pairs_first_draw_ends_at_the_opening_count(self, block):
        # Each two-rooms segment queries a fresh pair, which opens and
        # eliminates at N = 65: whatever the block, its one draw ends there.
        draws = []
        with mock.patch.object(ptum, "_RUN_BLOCK", block):
            got, _, _ = identify(run_ptum, two_rooms_case(100_000),
                                 lambda g: CountingDraws(g, draws))
            assert_same_identification(two_rooms_case(100_000))
        assert got.mode == "transfer-stopped" and got.tau == 195
        assert draws == [(65, 65)] * 3


def assert_same_result(got, want):
    """Two ``PtumResult``s agree in every field."""
    assert np.array_equal(got.policy, want.policy)
    assert (got.tau, got.mode, got.chosen_model, got.survived_trace, got.queried,
            got.queries_total) == (want.tau, want.mode, want.chosen_model,
                                   want.survived_trace, want.queried, want.queries_total)
    for name in ("counts", "reward_counts", "next_counts"):
        assert np.array_equal(getattr(got.empirical, name), getattr(want.empirical, name))


class TestSetMemos:
    """``select_query``, ``check_stop`` and ``_opening`` memoize on the
    model set, so a set that served earlier runs gives a later run what a
    fresh set would."""

    @settings(max_examples=100, deadline=None)
    @given(identification_cases(), st.integers(0, 1000),
           st.sampled_from([0.5, 1.0, 2.0]), st.integers(0, 600),
           st.sampled_from([0.01, 0.05, 0.3]))
    def test_a_shared_set_gives_what_a_fresh_set_gives(self, case, seed, scale, n,
                                                       delta):
        # Runs with another budget or confidence read another opening
        # count (its key, the log terms and budget, changes); the set
        # serves them all.
        shared = case["approx"]
        runs = [case, dict(case, seed=seed), dict(case, eps=case["eps"] * scale,
                                                  active=None),
                dict(case, n=n), dict(case, delta=delta), dict(case, n=n, seed=seed),
                case]
        for run in runs:
            fresh = dict(run, approx=ApproxModelSet(shared.models, shared.delta))
            got, g, rng = identify(run_ptum, run)
            want, g_fresh, rng_fresh = identify(run_ptum, fresh)
            assert_same_result(got, want)
            assert same_state(rng, rng_fresh)

    def test_a_repeated_run_reads_the_memos(self):
        case = two_rooms_case(100_000)
        first, _, _ = identify(run_ptum, case)
        with mock.patch.object(ptum, "policy_values", side_effect=AssertionError), \
                mock.patch.object(ptum, "_screened_out", side_effect=AssertionError), \
                mock.patch.object(ptum, "_may_fail", side_effect=AssertionError), \
                mock.patch.object(case["approx"], "info_table", new=None):
            again, _, _ = identify(run_ptum, case)
        assert_same_result(again, first)

    def test_each_eps_gets_its_own_stop(self):
        fam = two_rooms_family()
        every = set(range(len(fam)))
        approx = ApproxModelSet(fam)
        assert check_stop(every, approx, 0.1) is None
        assert check_stop(every, approx, 1e3)[0] == 0
        assert check_stop(every, approx, 0.1) is None
        fresh = ApproxModelSet(fam)
        assert check_stop(every, fresh, 1e3)[0] == 0
        assert check_stop(every, fresh, 0.1) is None


@st.composite
def certificate_cases(draw):
    """Random model sets, some with rows off by up to PROB_TOL, an
    uncertainty level up to and past the gate, and stacks of count snapshots
    at one pair over the models' reward support or one ten times wider:
    counts near the first one ``_may_fail`` allows, near the first one its
    transition half allows, and at random, piled on
    the extremes of the reward support and of a V*_j, split evenly between
    them, or spread at random."""
    S, A = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    U, k = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    gamma = draw(st.sampled_from([0.0, 0.5, 0.9]))
    eps = draw(st.sampled_from([0.05, 0.2, 1.0])) / (1.0 - gamma)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    support = np.sort(rng.choice(np.linspace(0.0, 1.0, 11), U, replace=False))
    # The samples' support may be wider than the models', so that the
    # reward-std condition can open first.
    samples = support * draw(st.sampled_from([1.0, 10.0]))

    def rows(shape, width, off):
        r = random_rows(rng, shape, width)
        if off:
            # Entries down to -PROB_TOL and sums off by up to PROB_TOL / 2.
            r = r + rng.uniform(-1.0, 1.0, r.shape) * PROB_TOL / (2 * width)
        return r

    models = []
    for _ in range(k):
        off = draw(st.booleans())
        q = rows((S, A), U, off)
        if draw(st.booleans()):
            q = np.eye(U)[rng.integers(U, size=(S, A))]
        models.append(TabularMdp(p=rows((S, A), S, off), reward_support=support,
                                 q=q, gamma=gamma))
    gate = eps * (1.0 - gamma) / (4.0 * (1.0 + gamma))
    approx = ApproxModelSet(models, draw(st.sampled_from([0.0, gate * rng.uniform(0.0, 1.5)])))
    logs = _log_terms(approx, draw(st.integers(1, 5000)),
                      draw(st.sampled_from([0.01, 0.05, 0.3])))
    s, a = int(rng.integers(S)), int(rng.integers(A))

    reward, transition = _may_fail(np.arange(20_000), samples, approx, logs)
    first, first_p = (int(np.argmax(may)) if may.any() else 20_000
                      for may in (reward | transition, transition))
    n = np.concatenate([np.arange(max(first - 4, 0), first + 6),
                        np.arange(max(first_p - 4, 0), first_p + 6),
                        rng.integers(0, 4 * first + 10, 30)])
    B = n.size
    widest = np.argmax(np.ptp(approx.values, axis=1))
    v = approx.values[widest if draw(st.booleans()) else rng.integers(k)]
    lo, hi = np.argmin(v), np.argmax(v)
    next_counts = np.zeros((B, S), dtype=np.int64)
    reward_counts = np.zeros((B, U), dtype=np.int64)
    for b, count in enumerate(n):
        half = count // 2
        next_counts[b] = [rng.multinomial(count, np.full(S, 1.0 / S)),
                          np.bincount([lo], [count], minlength=S),
                          np.bincount([hi], [count], minlength=S),
                          np.bincount([lo, hi], [half, count - half], minlength=S)
                          ][rng.integers(4)]
        reward_counts[b] = [rng.multinomial(count, np.full(U, 1.0 / U)),
                            np.bincount([0], [count], minlength=U),
                            np.bincount([U - 1], [count], minlength=U),
                            np.bincount([0, U - 1], [half, count - half], minlength=U)
                            ][rng.integers(4)]
    return dict(approx=approx, logs=logs, pair=(s, a), n=n,
                reward_counts=reward_counts, next_counts=next_counts, support=samples)


def dense_conditions(idx, s, a, n, reward_counts, next_counts, support, approx, logs):
    """The failures of the reward conditions and of the transition
    conditions, each (B, len(idx)), all four tested on every snapshot: the
    pass without skipping, kept as the reference."""
    r_mean, sr = reward_stats(reward_counts, n, support)
    pv_hat, sp = transition_value_stats(next_counts, n, approx.values)
    c_r, c_p, c_sr, c_sp = four_radii(n, sr, sp, approx, logs)
    reward = ((np.abs(r_mean[:, None] - approx.rewards[idx, s, a]) > c_r[:, None])
              | (np.abs(sr[:, None] - approx.sigma_r[idx, s, a]) > c_sr[:, None]))
    transition = (
        np.any(np.abs(pv_hat[:, None] - approx.pv[idx, :, s, a]) > c_p[:, None], axis=2)
        | np.any(np.abs(sp[:, None] - approx.sigma_p[idx, :, s, a])
                 > c_sp[:, None, None], axis=2))
    return reward, transition


class TestPassOnlyWhereAModelCanFail:
    """``run_ptum`` runs the stacked pass only from the opening count, the
    first count where ``_may_fail`` lets some model fail; the rows before it
    are the all-False rows the pass would give.  The pass tests the
    transition conditions only from the transition opening count, the
    first count where the transition half of ``_may_fail`` holds."""

    @settings(max_examples=300, deadline=None)
    @given(certificate_cases())
    def test_every_failure_is_allowed(self, case):
        # Each half of the certificate is sound alone: where it is False,
        # its two conditions hold for every model.
        approx = case["approx"]
        fails = dense_conditions(
            np.arange(approx.num_models), *case["pair"], case["n"], case["reward_counts"],
            case["next_counts"], case["support"], approx, case["logs"])
        halves = _may_fail(case["n"], case["support"], approx, case["logs"])
        for may, failed in zip(halves, fails):
            assert may.shape == case["n"].shape
            assert not may[case["n"] <= 1].any()
            assert np.all(may[failed.any(axis=1)])

    @settings(max_examples=300, deadline=None)
    @given(certificate_cases(), st.integers(0, 20_000))
    def test_the_skipping_pass_equals_the_dense_pass(self, case, budget):
        # The stacks straddle both opening counts, in no order.
        approx = case["approx"]
        idx = np.arange(approx.num_models)
        args = (*case["pair"], case["n"], case["reward_counts"], case["next_counts"],
                case["support"], approx, case["logs"])
        reward, transition = dense_conditions(idx, *args)
        _, transition_opening = _opening(approx, case["logs"], budget)
        for start in (0, transition_opening):
            got = compatibility_failures(idx, *args, start)
            assert got.shape == reward.shape and np.array_equal(got, reward | transition)

    @settings(max_examples=100, deadline=None)
    @given(certificate_cases(), st.lists(st.integers(0, 5000), min_size=1, max_size=3))
    def test_the_opening_is_the_first_count_that_may_fail(self, case, budgets):
        approx = case["approx"]
        for n in budgets:
            reward, transition = _may_fail(np.arange(n + 1),
                                           approx.models[0].reward_support, approx,
                                           case["logs"])
            want = tuple(int(np.argmax(may)) if may.any() else n + 1
                         for may in (reward | transition, transition))
            assert _opening(approx, case["logs"], n) == want
            # A set that answered other keys answers this one as a fresh set.
            fresh = ApproxModelSet(approx.models, approx.delta)
            assert _opening(fresh, case["logs"], n) == want

    def test_no_opening_within_the_budget_gives_one_past_it(self):
        approx = ApproxModelSet(two_rooms_family())
        # At n = 100 the reward conditions open at 49, the transition ones
        # not within the budget.
        assert _opening(approx, _log_terms(approx, 10, 0.01), 10) == (11, 11)
        assert _opening(approx, _log_terms(approx, 100, 0.01), 100) == (49, 101)
        assert _opening(approx, _log_terms(approx, 100_000, 0.01), 100_000) == (65, 255)

    # One uncertainty level widens all four radii alike, so a case where one
    # condition fails before any other can must come from the tables.  The
    # models pay surely and never leave a state.  The N samples at (0, 0)
    # move to ``next_state`` and split their rewards evenly between the two
    # ``rewards`` indices of ``support`` (one index: all on it).
    #   reward: the model pays 0, every sample 1.
    #   transition: states pay 0 and 1; the model stays in state 0, every
    #     sample moves to state 1.  Only with delta > 0 does the transition
    #     mean open first: its radius carries delta, not delta (1 - gamma).
    #   reward-std: the model pays 0.5, the samples half 0 and half 5, on a
    #     support five times the models'.
    # With the models' own support in [0, 1] the std conditions cannot fail
    # before a mean condition can, so the transition std has no case.
    LONE_CASES = {  # pays, the models' support, delta, support, rewards, next_state
        "reward": ([0.0], [0.0, 1.0], 0.0, [0.0, 1.0], (1, 1), 0),
        "transition": ([0.0, 1.0], [0.0, 1.0], 0.3, [0.0, 1.0], (0, 0), 1),
        "reward-std": ([0.5], [0.0, 0.5, 1.0], 0.0, [0.0, 2.5, 5.0], (0, 2), 0),
    }

    @pytest.mark.parametrize("condition", sorted(LONE_CASES))
    def test_a_lone_condition_opens_the_pass_where_it_fails(self, condition):
        pays, model_support, level, support, (lo, hi), next_state = \
            self.LONE_CASES[condition]
        S = len(pays)
        q = np.zeros((S, 1, len(model_support)))
        q[np.arange(S), 0, np.searchsorted(model_support, pays)] = 1.0
        p = np.zeros((S, 1, S))
        p[np.arange(S), 0, np.arange(S)] = 1.0
        approx = ApproxModelSet([TabularMdp(p=p, reward_support=np.array(model_support),
                                            q=q, gamma=0.5)], level)
        n = np.arange(300)
        reward_counts = np.zeros((n.size, len(support)), dtype=np.int64)
        reward_counts[:, lo] += n - n // 2
        reward_counts[:, hi] += n // 2
        next_counts = np.zeros((n.size, S), dtype=np.int64)
        next_counts[:, next_state] = n
        logs = _log_terms(approx, 1000, 0.1)
        fails = compatibility_failures(np.arange(1), 0, 0, n, reward_counts, next_counts,
                                       np.array(support), approx, logs, 0).any(axis=1)
        reward, transition = _may_fail(n, np.array(support), approx, logs)
        may = transition if condition == "transition" else reward
        assert fails.any() and np.all(may[fails])
        assert np.argmax(fails) == np.argmax(may) == np.argmax(reward | transition)

    @pytest.mark.parametrize("seed", [101, 102])
    def test_two_rooms_pass_starts_where_the_elimination_falls(self, seed):
        # Each of the three queried pairs eliminates at N = 65, the opening
        # count: a pass over that one snapshot is the pair's only pass, and
        # nothing drawn is handed back.  The transition conditions open at
        # N = 255, so no pass computes a transition statistic.
        case = two_rooms_case(100_000, seed=seed)
        starts, sizes, transition_rows = [], [], []

        def spy(idx, s, a, n, *rest):
            starts.append(int(n[0]))
            sizes.append(len(n))
            return compatibility_failures(idx, s, a, n, *rest)

        def stats_spy(next_counts, n, values):
            transition_rows.extend(np.atleast_1d(n).tolist())
            return transition_value_stats(next_counts, n, values)

        draws = []
        with mock.patch.object(ptum, "compatibility_failures", spy), \
                mock.patch.object(ptum, "transition_value_stats", stats_spy):
            got, _, _ = identify(run_ptum, case, lambda g: CountingDraws(g, draws))
        assert starts == [65, 65, 65] and sizes == [1, 1, 1]
        assert transition_rows == []
        # One draw per segment, sized to reach N = 65, all of it kept.
        assert draws == [(65, 65)] * 3
        assert got.mode == "transfer-stopped" and got.tau == 195
        ref = assert_same_identification(case)
        assert ref.queried == got.queried and ref.survived_trace == got.survived_trace

    def test_an_opening_pass_that_keeps_the_set(self):
        # On multi-goal, true task 1, every pair opens at N = 78, where
        # nothing fails yet.  Each segment's first run draws up to 78 and
        # ends with a pass over that one snapshot, which keeps the set.
        # Every later run is one block of 64, up to the one that holds the
        # elimination at 566.  The transition conditions open at 566 too:
        # only the last pass of a segment computes transition statistics,
        # on its snapshots from 566 on.
        fam = multi_goal_family()
        case = dict(approx=ApproxModelSet(fam), truth=fam[1], eps=0.1, delta=0.01,
                    n=100_000, active=None, seed=101)
        calls, draws, transition_rows = [], [], []

        def spy(idx, s, a, n, *rest):
            calls.append((int(n[0]), len(n)))
            return compatibility_failures(idx, s, a, n, *rest)

        def stats_spy(next_counts, n, values):
            transition_rows.append(np.atleast_1d(n).tolist())
            return transition_value_stats(next_counts, n, values)

        with mock.patch.object(ptum, "compatibility_failures", spy), \
                mock.patch.object(ptum, "transition_value_stats", stats_spy):
            got, _, _ = identify(run_ptum, case, lambda g: CountingDraws(g, draws))
        assert got.queried == [(6, 0, 566), (11, 0, 566)]
        assert calls == ([(78, 1)] + [(79 + 64 * i, 64) for i in range(8)]) * 2
        assert transition_rows == [list(range(566, 591))] * 2
        assert draws == ([(78, 78)] + [(64, 64)] * 7 + [(64, 40)]) * 2
        assert_same_identification(case)

    @settings(max_examples=100, deadline=None)
    @given(identification_cases(budgets=SHORT_BUDGETS))
    def test_short_budgets_pass_only_their_last_draw(self, case):
        # A short budget ends below the opening count: one run, whose pass
        # is its last draw's snapshot, which fails nothing.
        calls = []

        def spy(idx, s, a, n, *rest):
            fails = compatibility_failures(idx, s, a, n, *rest)
            calls.append((n.tolist(), bool(fails.any())))
            return fails

        with mock.patch.object(ptum, "compatibility_failures", spy):
            got, _, _ = identify(run_ptum, case, SamplesOnly)
        assert got.mode in ("fallback-gate", "fallback-budget") or got.tau == 0
        assert calls == ([([got.tau], False)] if got.tau else [])
        assert_same_identification(case)
