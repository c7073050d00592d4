"""Unit tests for the benchmark environments and the query interface."""
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from seqtransfer.envs import (
    ACTION_DELTAS,
    NUM_ACTIONS,
    GenerativeModel,
    GridSpec,
    ObjectworldSpec,
    TaskChain,
    _grid_transitions,
    _objectworld_mdp,
    build_grid,
    build_multi_goal_grid,
    build_objectworld_family,
    multi_goal_family,
    paper_objectworld_duplicates,
    sample_initial_task,
    sample_next_task,
    sample_task_path,
    successor_chain,
    two_rooms_family,
)
from seqtransfer.harness import random_hmm_family, run_rng
from seqtransfer.mdp import TabularMdp, _multinomial_pvals, value_iteration
from seqtransfer.ptum import ApproxModelSet, EmpiricalModel


def reference_grid_transitions(spec: GridSpec) -> np.ndarray:
    """The movement kernel built one cell, action and redraw at a time."""
    w, h = spec.width, spec.height
    f = spec.action_failure_prob
    p = np.zeros((spec.num_cells, NUM_ACTIONS, spec.num_cells))
    for row in range(h):
        for col in range(w):
            s = row * w + col
            targets = []
            for dr, dc in ACTION_DELTAS:
                r2, c2 = row + dr, col + dc
                wall = (spec.wall_column is not None and c2 == spec.wall_column
                        and r2 != spec.door_row)
                blocked = not (0 <= r2 < h and 0 <= c2 < w) or wall
                targets.append(s if blocked else r2 * w + c2)
            for a in range(NUM_ACTIONS):
                # Intended action w.p. 1-f, else a uniform redraw over all four.
                for a2, t in enumerate(targets):
                    p[s, a, t] += f / NUM_ACTIONS + (1.0 - f) * (a2 == a)
    return p


GRID_LAYOUTS = {
    **{f"two-rooms-door-{door}": GridSpec(width=12, height=12, goal_cells={},
                                          wall_column=6, door_row=door)
       for door in range(12)},
    "multi-goal": GridSpec(width=12, height=12, goal_cells={}),
    "objectworld": GridSpec(width=5, height=5, goal_cells={}),
    "width-3-door-first-row": GridSpec(width=3, height=4, goal_cells={},
                                       wall_column=1, door_row=0),
    "width-3-door-last-row": GridSpec(width=3, height=4, goal_cells={},
                                      wall_column=1, door_row=3),
    "one-row": GridSpec(width=5, height=1, goal_cells={}, action_failure_prob=0.3),
    "no-failure": GridSpec(width=4, height=4, goal_cells={}, action_failure_prob=0.0,
                           wall_column=2, door_row=1),
}


class TestGrids:
    @pytest.mark.parametrize("layout", GRID_LAYOUTS)
    def test_kernel_matches_the_cell_loop(self, layout):
        spec = GRID_LAYOUTS[layout]
        assert np.array_equal(_grid_transitions(spec), reference_grid_transitions(spec))

    def test_success_mass_two_cell_strip(self):
        spec = GridSpec(width=2, height=1, goal_cells={}, action_failure_prob=0.1)
        m = build_grid(spec)
        # Action 2 is "right"; moving right from cell 0 succeeds with
        # probability 1 - f + f/4.
        assert m.p[0, 2, 1] == pytest.approx(0.925)
        assert m.p[0, 2, 0] == pytest.approx(0.075)

    def test_zero_failure_is_deterministic(self):
        spec = GridSpec(width=3, height=3, goal_cells={}, action_failure_prob=0.0)
        m = build_grid(spec)
        assert np.all(np.isin(m.p, (0.0, 1.0)))

    def test_door_outside_wall_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(width=4, height=4, goal_cells={}, wall_column=2, door_row=7)

    def test_wall_blocks_and_door_passes(self):
        spec = GridSpec(width=4, height=2, goal_cells={}, action_failure_prob=0.0,
                        wall_column=2, door_row=1)
        m = build_grid(spec)
        # Row 0 is walled: moving right from cell 1 stays in place.
        assert m.p[1, 2, 1] == 1.0
        # Row 1 has the door: moving right from cell 5 enters cell 6.
        assert m.p[5, 2, 6] == 1.0

    def test_absorbing_goal_repeats_reward(self):
        spec = GridSpec(width=2, height=1, goal_cells={1: 1.0}, gamma=0.5)
        m = build_grid(spec)
        v, _ = value_iteration(m)
        assert v[1] == pytest.approx(2.0, abs=1e-8)

    def test_two_rooms_family_shapes(self):
        fam = two_rooms_family()
        assert len(fam) == 12
        assert all(m.num_states == 144 and m.num_actions == 4 for m in fam)
        assert all(np.array_equal(m.reward_support, fam[0].reward_support) for m in fam)


class TestMultiGoal:
    def test_equal_rewards_give_zero_gaps(self):
        spec = GridSpec(width=3, height=3, goal_cells={0: 0.5, 8: 0.5})
        fam = build_multi_goal_grid(spec, [{0: 0.5, 8: 0.5}] * 2)
        with pytest.warns(UserWarning):
            assert ApproxModelSet(fam).min_gap(0) == 0.0

    def test_reward_gap_at_goal(self):
        spec = GridSpec(width=3, height=1, goal_cells={2: 0.3})
        fam = build_multi_goal_grid(spec, [{2: 0.3}, {2: 0.7}])
        assert ApproxModelSet(fam).reward_gap[0, 1, 2, 0] == pytest.approx(0.4)

    def test_mismatched_goal_positions_rejected(self):
        spec = GridSpec(width=3, height=1, goal_cells={2: 0.3})
        with pytest.raises(ValueError):
            build_multi_goal_grid(spec, [{2: 0.3}, {1: 0.3}])

    def test_family_layout(self):
        fam = multi_goal_family()
        assert len(fam) == 7
        # Goal values: the shared baseline, the true task's best and the
        # slightly better alternative appear in the shared support.
        assert set(np.round(fam[0].reward_support, 4)) == {0.0, 0.7, 0.8, 0.81}

    @pytest.mark.parametrize("size, num_tasks", [
        ((2, 12), 7), ((2, 12), 5), ((1, 1), 2), ((5, 2), 7), ((12, 2), 7), ((3, 1), 3),
    ])
    def test_tasks_sharing_a_best_goal_rejected(self, size, num_tasks):
        # Width 2 built task 4 equal to task 1 and task 5 equal to task 3,
        # and a 1 x 1 grid made tasks 1-6 equal, with no error.
        width, height = size
        with pytest.raises(ValueError, match="best goals in one cell"):
            multi_goal_family(num_tasks=num_tasks, width=width, height=height)

    @pytest.mark.parametrize("size, num_tasks", [((2, 12), 4), ((12, 2), 6), ((5, 2), 6)])
    def test_tasks_with_distinct_best_goals_differ(self, size, num_tasks):
        width, height = size
        fam = multi_goal_family(num_tasks=num_tasks, width=width, height=height)
        means = [m.reward_means() for m in fam]
        assert all(not np.array_equal(means[i], means[j])
                   for i in range(num_tasks) for j in range(i))


class TestObjectworld:
    def test_paper_family_builds(self):
        spec = ObjectworldSpec(duplicate_of=paper_objectworld_duplicates())
        fam = build_objectworld_family(spec, 8, np.random.default_rng(0))
        assert len(fam) == 8
        assert all(m.num_states == 25 and m.num_actions == 4 for m in fam)
        assert all(m.num_rewards == 12 for m in fam)

    def test_single_cell_pick_cycle(self):
        # One cell holding a value-1 item with no failures: picking forever
        # yields the full geometric series.
        spec = ObjectworldSpec(side=1, reward_failure_prob=0.0,
                               transition_failure_prob=0.0, gamma=0.9)
        v, _ = value_iteration(_objectworld_mdp(spec, {0: 1.0}, {0: 0}))
        assert v[0] == pytest.approx(10.0, abs=1e-8)

    def test_duplicates_stay_close(self):
        spec = ObjectworldSpec(duplicate_of={1: 0})
        fam = build_objectworld_family(spec, 2, np.random.default_rng(3))
        # A near-duplicate moves items one support step, so reward means
        # never differ by more than the largest ladder step (0.16 here).
        gap = np.max(np.abs(fam[0].reward_means() - fam[1].reward_means()))
        assert gap <= 0.16 + 1e-12

    def test_duplicate_of_duplicate_rejected(self):
        spec = ObjectworldSpec(duplicate_of={1: 0, 2: 1})
        with pytest.raises(ValueError):
            build_objectworld_family(spec, 3, np.random.default_rng(4))

    @pytest.mark.parametrize("duplicates", [{-1: 0}, {3: 0}])
    def test_duplicate_task_out_of_range_rejected(self, duplicates):
        # -1 would silently make the last task a duplicate.
        with pytest.raises(ValueError):
            build_objectworld_family(ObjectworldSpec(duplicate_of=duplicates), 3,
                                     np.random.default_rng(4))


class TestTaskChain:
    def test_identity_chain(self):
        chain = TaskChain(transition=np.eye(3), initial=np.array([1.0, 0, 0]))
        rng = np.random.default_rng(5)
        assert all(sample_next_task(chain, 1, rng) == 1 for _ in range(20))

    def test_column_stochastic_enforced(self):
        with pytest.raises(ValueError):
            TaskChain(transition=np.ones((2, 2)), initial=np.array([0.5, 0.5]))
        # A NaN entry is no probability, though every comparison with it is
        # False.
        with pytest.raises(ValueError):
            TaskChain(transition=np.array([[np.nan, 0.0], [1.0, 1.0]]),
                      initial=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            TaskChain(transition=np.eye(2), initial=np.array([np.nan, 1.0]))
        for knob in ({"p_succ": np.nan}, {"p_skip": np.nan}):
            with pytest.raises(ValueError):
                successor_chain(4, **knob)

    def test_successor_chain_frequencies(self):
        chain = successor_chain(8)
        rng = np.random.default_rng(6)
        draws = rng.choice(8, size=100_000, p=chain.transition[:, 2])
        freq = np.bincount(draws, minlength=8) / draws.size
        assert freq[3] == pytest.approx(0.97, abs=0.01)
        assert freq[4] == pytest.approx(0.015, abs=0.01)
        assert freq[2] == pytest.approx(0.015, abs=0.01)

    def test_uniform_column_chi_square(self):
        k = 5
        chain = TaskChain(transition=np.full((k, k), 1.0 / k), initial=np.full(k, 1.0 / k))
        rng = np.random.default_rng(7)
        draws = np.array([sample_next_task(chain, 0, rng) for _ in range(10_000)])
        counts = np.bincount(draws, minlength=k)
        assert stats.chisquare(counts).pvalue > 0.01

    def test_long_run_matches_stationary(self):
        chain = successor_chain(6)
        rng = np.random.default_rng(8)
        task = sample_initial_task(chain, rng)
        counts = np.zeros(6)
        for _ in range(100_000):
            task = sample_next_task(chain, task, rng)
            counts[task] += 1
        freq = counts / counts.sum()
        vals, vecs = np.linalg.eig(chain.transition)
        stationary = np.abs(np.real(vecs[:, np.argmin(np.abs(vals - 1.0))]))
        assert np.max(np.abs(freq - stationary / stationary.sum())) < 0.02

    def test_entries_just_below_zero_are_sampled(self):
        # Entries down to -PROB_TOL are accepted, so they must be sampleable.
        chain = TaskChain(transition=np.array([[1 + 1e-10, 0.5], [-1e-10, 0.5]]),
                          initial=np.array([1 + 1e-10, -1e-10]))
        rng = np.random.default_rng(9)
        assert sample_initial_task(chain, rng) == 0
        assert all(sample_next_task(chain, 0, rng) == 0 for _ in range(50))
        assert np.array_equal(sample_task_path(chain, 50, rng), np.zeros(50))


def reference_task_path(chain, steps, rng):
    """The rollout as one ``rng.choice`` per step, which the chain's
    samplers must reproduce bit for bit."""
    path, task = [], None
    for _ in range(steps):
        p = chain.initial if task is None else chain.transition[:, task]
        task = int(rng.choice(chain.num_tasks, p=p))
        path.append(task)
    return np.array(path, dtype=int)


@st.composite
def task_chains(draw):
    """Random chains with zero entries and absorbing columns."""
    k = draw(st.integers(1, 6))
    weights = st.sampled_from([0.0, 0.0, 1e-3, 0.3, 1.0, 7.0])

    def distribution():
        p = np.array(draw(st.lists(weights, min_size=k, max_size=k)))
        p[draw(st.integers(0, k - 1))] += 1.0
        return p / p.sum()

    t = np.stack([np.eye(k)[j] if draw(st.booleans()) else distribution()
                  for j in range(k)], axis=1)
    return TaskChain(transition=t, initial=distribution())


class TestChainSamplers:
    @settings(max_examples=200, deadline=None)
    @given(task_chains(), st.integers(0, 400), st.integers(0, 2 ** 32 - 1))
    def test_path_equals_one_choice_per_step(self, chain, steps, seed):
        rng, rng_ref = run_rng(seed, 0), run_rng(seed, 0)
        path = sample_task_path(chain, steps, rng)
        assert path.shape == (steps,)
        assert path.tolist() == reference_task_path(chain, steps, rng_ref).tolist()
        assert same_state(rng, rng_ref)

    @pytest.mark.parametrize("chain", [successor_chain(8), TaskChain(
        transition=np.array([[0.2, 0.0, 1.0], [0.0, 1.0, 0.0], [0.8, 0.0, 0.0]]),
        initial=np.array([0.0, 0.3, 0.7]))])
    def test_single_draws_equal_choice(self, chain):
        rng, rng_ref = run_rng(11, 0), run_rng(11, 0)
        k = chain.num_tasks
        assert all(sample_initial_task(chain, rng)
                   == rng_ref.choice(k, p=chain.initial) for _ in range(200))
        for current in range(k):
            for _ in range(200):
                assert (sample_next_task(chain, current, rng)
                        == rng_ref.choice(k, p=chain.transition[:, current]))
        assert same_state(rng, rng_ref)


class TestGenerativeModel:
    @staticmethod
    def deterministic_model():
        p = np.zeros((2, 1, 2))
        p[:, 0, 1] = 1.0
        q = np.zeros((2, 1, 2))
        q[:, 0, 1] = 1.0
        return TabularMdp(p=p, reward_support=np.array([0.0, 1.0]), q=q, gamma=0.9)

    def test_deterministic_queries(self):
        g = GenerativeModel(self.deterministic_model())
        rng = np.random.default_rng(9)
        assert all(g.query(0, 0, rng) == (1, 1.0) for _ in range(10))
        assert g.queries_used == 10

    def test_empirical_frequencies(self):
        fam = two_rooms_family(num_tasks=1)
        g = GenerativeModel(fam[0])
        rng = np.random.default_rng(11)
        next_counts, _ = g.query_batch(13, 2, 100_000, rng)
        freq = next_counts / next_counts.sum()
        hidden_row = fam[0].p[13, 2]
        assert np.max(np.abs(freq - hidden_row)) < 0.01
        assert g.queries_used == 100_000

    @staticmethod
    def tolerance_model():
        """Rows that TabularMdp accepts within PROB_TOL but rng.multinomial
        rejects: a negative entry and entries just above 1.  The reward row
        of state 1 is valid."""
        p = np.array([[[1 + 1e-10, -1e-10]], [[1 + 5e-10, 0.0]]])
        q = np.array([[[0.0, 1 + 5e-10]], [[0.5, 0.5]]])
        return TabularMdp(p=p, reward_support=np.array([0.0, 1.0]), q=q, gamma=0.9)

    def test_batch_samples_rows_within_tolerance(self):
        g = GenerativeModel(self.tolerance_model())
        rng = np.random.default_rng(5)
        for s in range(2):
            next_counts, reward_counts = g.query_batch(s, 0, 50, rng)
            assert next_counts.tolist() == [50, 0]
            assert reward_counts.sum() == 50
        assert g.queries_used == 100

    def test_pvals_fix_only_rejected_rows(self):
        m = self.tolerance_model()
        p, q = _multinomial_pvals(m.p), _multinomial_pvals(m.q)
        assert p[:, 0].tolist() == [[1.0, 0.0], [1.0, 0.0]]
        assert q[0, 0].tolist() == [0.0, 1.0]
        assert q[1, 0].tobytes() == m.q[1, 0].tobytes()
        # All entries in [0, 1], but the first n-1 sum past 1 + 1e-12.
        rows = np.array([[0.6, 0.4 + 5e-10, 0.0], [0.2, 0.3, 0.5]])
        fixed = _multinomial_pvals(rows)
        assert fixed[0].sum() == pytest.approx(1.0, abs=1e-15)
        assert fixed[0, :2].sum() <= 1.0 + 1e-12
        assert fixed[1].tobytes() == rows[1].tobytes()
        np.random.default_rng(0).multinomial(10, fixed)

    def test_valid_rows_keep_their_draws(self):
        mdp = two_rooms_family(num_tasks=1)[0]
        assert _multinomial_pvals(mdp.p) is mdp.p
        assert _multinomial_pvals(mdp.q) is mdp.q
        g = GenerativeModel(mdp)
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        for s, a in ((0, 0), (13, 2), (143, 3)):
            next_counts, reward_counts = g.query_batch(s, a, 40, rng)
            assert next_counts.tolist() == ref.multinomial(40, mdp.p[s, a]).tolist()
            assert reward_counts.tolist() == ref.multinomial(40, mdp.q[s, a]).tolist()
        assert same_state(rng, ref)

    @classmethod
    def table_models(cls):
        """One model per padding case of the sampling table: objectworld
        (U < S, the reward row padded), a random HMM task with S=2, U=3
        (U > S, the next-state row padded), and the tolerance model (S = U,
        with rows that _multinomial_pvals repairs)."""
        objectworld = _objectworld_mdp(
            ObjectworldSpec(side=5), {0: 0.2, 7: 0.96, 24: 0.5}, [1] * 25)
        hmm_family, _ = random_hmm_family(2, 2, 3, 3, 0.9, np.random.default_rng(2))
        return objectworld, hmm_family[0], cls.tolerance_model()

    def test_table_equals_the_per_pair_loop(self):
        # query_table plus add_counts against one rng.multinomial on each
        # repaired row per pair with need > 0, the next-state row first, in
        # row order: the same counts, charges and generator state, bit for
        # bit, drawn twice on top of counts already held.
        for mdp, seed in itertools.product(self.table_models(), range(3)):
            S, A = mdp.num_states, mdp.num_actions
            p, q = _multinomial_pvals(mdp.p), _multinomial_pvals(mdp.q)
            need = np.random.default_rng(seed).integers(-2, 6, size=(S, A))
            need[0, 0], need[-1, -1] = 0, -1
            g = GenerativeModel(mdp)
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            emp = EmpiricalModel(S, A, mdp.reward_support)
            emp.add_counts(*GenerativeModel(mdp).query_table(
                np.full((S, A), 3), np.random.default_rng(99)))
            counts = [emp.next_counts.copy(), emp.reward_counts.copy()]
            for _ in range(2):
                emp.add_counts(*g.query_table(need, rng))
                for s in range(S):
                    for a in range(A):
                        if need[s, a] > 0:
                            counts[0][s, a] += ref.multinomial(need[s, a], p[s, a])
                            counts[1][s, a] += ref.multinomial(need[s, a], q[s, a])
            assert np.array_equal(emp.next_counts, counts[0])
            assert np.array_equal(emp.reward_counts, counts[1])
            assert np.array_equal(emp.counts, 3 + 2 * need.clip(0))
            assert g.queries_used == 2 * need.clip(0).sum()
            assert same_state(rng, ref)
        with pytest.raises(ValueError):
            emp.add_counts(np.ones((S, A, S)), np.ones((S, A, mdp.num_rewards + 1)))
        with pytest.raises(ValueError):
            g.query_table(np.ones((S + 1, A), dtype=int), rng)

    def test_a_second_oracle_of_a_model_builds_no_table(self):
        # The sampling tables are the model's, built once: a second oracle
        # of the same model, drawing through every method, builds nothing.
        from seqtransfer import mdp as mdp_module
        for model in self.table_models():
            S, A = model.num_states, model.num_actions
            first = GenerativeModel(model)
            first.query_many(0, 0, 3, np.random.default_rng(0))
            first.query_table(np.ones((S, A), dtype=int), np.random.default_rng(0))
            tables = model.cumulative_rows, model.padded_pvals
            with mock.patch.object(mdp_module, "normalized_cumsum",
                                   side_effect=AssertionError), \
                    mock.patch.object(mdp_module, "_multinomial_pvals",
                                      side_effect=AssertionError):
                second = GenerativeModel(model)
                rng = np.random.default_rng(1)
                second.query(S - 1, A - 1, rng)
                second.query_many(0, A - 1, 5, rng, keep=lambda n, r: 2)
                second.query_batch(S - 1, 0, 4, rng)
                second.query_table(np.full((S, A), 2), rng)
            assert (model.cumulative_rows, model.padded_pvals) == tables
            assert model.cumulative_rows is tables[0]
            assert model.padded_pvals is tables[1]

    def test_writing_a_table_raises(self):
        model = self.table_models()[0]
        for table in (*model.cumulative_rows, model.padded_pvals):
            with pytest.raises(ValueError):
                table[0, 0, 0] = 0.5

    def test_tables_hold_each_rows_own_sums(self):
        # Row by row, what rng.choice searches for that row alone and what
        # rng.multinomial takes for it, left-padded with zeros.
        for model in (*self.table_models(), TestQueryMany.sampler_model()):
            cdf_p, cdf_q = model.cumulative_rows
            pvals = model.padded_pvals
            p, q = _multinomial_pvals(model.p), _multinomial_pvals(model.q)
            for s, a in itertools.product(range(model.num_states),
                                          range(model.num_actions)):
                for cdf, row in ((cdf_p, model.p[s, a]), (cdf_q, model.q[s, a])):
                    want = np.cumsum(np.maximum(row, 0.0))
                    want /= want[-1]
                    assert cdf[s, a].tobytes() == want.tobytes()
                for kind, row in enumerate((p[s, a], q[s, a])):
                    pad = pvals.shape[-1] - row.size
                    assert not pvals[s, a, kind, :pad].any()
                    assert pvals[s, a, kind, pad:].tobytes() == row.tobytes()

    class CountingGenerator:
        """A generator that counts its multinomial calls."""

        def __init__(self, rng):
            self.rng, self.calls = rng, 0

        def multinomial(self, *args, **kwargs):
            self.calls += 1
            return self.rng.multinomial(*args, **kwargs)

    def test_table_is_one_multinomial_call(self):
        mdp = self.table_models()[0]
        g = GenerativeModel(mdp)
        rng = self.CountingGenerator(np.random.default_rng(1))
        next_counts, reward_counts = g.query_table(
            np.full((mdp.num_states, mdp.num_actions), 50), rng)
        assert rng.calls == 1
        assert next_counts.shape == (25, 4, 25) and reward_counts.shape == (25, 4, 12)
        assert np.all(next_counts.sum(axis=2) == 50)
        assert np.all(reward_counts.sum(axis=2) == 50)
        assert g.queries_used == 25 * 4 * 50

    def test_a_table_with_no_draw_due_calls_nothing(self):
        # need clipped to 0 everywhere: no multinomial call, the generator
        # untouched, and the zero tables the draw itself returns, on every
        # padding case.
        for mdp in self.table_models():
            S, A = mdp.num_states, mdp.num_actions
            need = -np.random.default_rng(S).integers(0, 3, size=(S, A))
            g = GenerativeModel(mdp)
            rng = self.CountingGenerator(np.random.default_rng(5))
            ref = np.random.default_rng(5)
            drawn = g._unpad(ref.multinomial(np.zeros((S, A, 2), dtype=int), mdp.padded_pvals))
            assert same_state(ref, np.random.default_rng(5))
            got = g.query_table(need, rng)
            assert rng.calls == 0 and same_state(rng.rng, ref)
            for table, want in zip(got, drawn):
                assert table.dtype == want.dtype and table.shape == want.shape
                assert np.array_equal(table, want)
            assert g.queries_used == 0


def same_state(rng1, rng2) -> bool:
    """Whether two generators' bit-generator states are equal."""
    def equal(x, y):
        if isinstance(x, dict):
            return x.keys() == y.keys() and all(equal(x[k], y[k]) for k in x)
        return np.array_equal(x, y)
    return equal(rng1.bit_generator.state, rng2.bit_generator.state)


class TestQueryMany:
    S, A, U = 7, 4, 3

    @classmethod
    def sampler_model(cls):
        """Rows of every kind the sampler meets: random, zero mass at both
        ends, and one-point rows on the first, a middle and the last entry."""
        rng = np.random.default_rng(21)
        p = rng.dirichlet(np.full(cls.S, 0.7), size=(cls.S, cls.A))
        q = rng.dirichlet(np.ones(cls.U), size=(cls.S, cls.A))
        p[1, :, [0, -1]] = 0.0
        q[1, :, [0, -1]] = 0.0
        q[1, :, 1] = 1.0
        p /= p.sum(axis=2, keepdims=True)
        for s, point in ((2, 0), (3, cls.S // 2), (4, cls.S - 1)):
            p[s] = 0.0
            p[s, :, point] = 1.0
            q[s] = 0.0
            q[s, :, min(point, cls.U - 1)] = 1.0
        return TabularMdp(p=p, reward_support=np.array([0.0, 0.4, 1.0]), q=q, gamma=0.9)

    def test_draws_match_choice(self):
        m = self.sampler_model()
        for s in range(self.S):
            for a in range(self.A):
                rng1, rng2 = run_rng(5, s * self.A + a), run_rng(5, s * self.A + a)
                next_states, rewards = GenerativeModel(m).query_many(s, a, 60, rng1)
                expected = [(rng2.choice(self.S, p=m.p[s, a]),
                             rng2.choice(self.U, p=m.q[s, a])) for _ in range(60)]
                assert list(zip(next_states.tolist(), rewards.tolist())) == expected
                assert same_state(rng1, rng2)

    def test_run_equals_single_queries(self):
        m = self.sampler_model()
        g1, g2 = GenerativeModel(m), GenerativeModel(m)
        rng1, rng2 = run_rng(6, 0), run_rng(6, 0)
        for s, a, count in ((0, 1, 25), (1, 3, 1), (4, 0, 9), (0, 1, 40)):
            next_states, rewards = g1.query_many(s, a, count, rng1)
            singles = [g2.query(s, a, rng2) for _ in range(count)]
            assert list(zip(next_states.tolist(),
                            m.reward_support[rewards].tolist())) == singles
            assert g1.queries_used == g2.queries_used
            assert same_state(rng1, rng2)
        assert g1.queries_used == 75

    def test_keep_charges_and_rewinds_to_the_kept_draws(self):
        m = self.sampler_model()
        for used in (0, 1, 13, 20):
            g1, g2 = GenerativeModel(m), GenerativeModel(m)
            rng1, rng2 = run_rng(7, used), run_rng(7, used)
            seen = []

            def keep(next_states, rewards):
                seen.append(next_states.size)
                return used

            kept = g1.query_many(0, 2, 20, rng1, keep=keep)
            expected = g2.query_many(0, 2, used, rng2)
            assert seen == [20]
            assert all(np.array_equal(x, y) for x, y in zip(kept, expected))
            assert g1.queries_used == g2.queries_used == used
            assert same_state(rng1, rng2)
        with pytest.raises(ValueError):
            GenerativeModel(m).query_many(0, 0, 5, run_rng(7, 0), keep=lambda n, r: 6)
