"""Benchmark task families: two-rooms grids, multi-goal grids, objectworld,
the Markov chain over tasks, and the generative-model query interface."""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .mdp import PROB_TOL, TabularMdp, normalized_cumsum

# Action order: up, down, right, left.
ACTION_DELTAS = ((-1, 0), (1, 0), (0, 1), (0, -1))
NUM_ACTIONS = 4


@dataclass(frozen=True)
class GridSpec:
    """Layout of a rectangular gridworld task.

    goal_cells maps flat cell index -> reward value.  A goal cell is
    absorbing: it self-loops and emits its reward every step.
    """

    width: int
    height: int
    goal_cells: dict
    action_failure_prob: float = 0.1
    wall_column: int | None = None
    door_row: int | None = None
    gamma: float = 0.99

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("grid dimensions must be positive")
        if not 0.0 <= self.action_failure_prob < 1.0:
            raise ValueError("action failure probability must be in [0, 1)")
        if self.wall_column is not None:
            if not 0 <= self.wall_column < self.width:
                raise ValueError("wall column outside the grid")
            if self.door_row is None or not 0 <= self.door_row < self.height:
                raise ValueError("door row must lie within the wall")
        for cell, value in self.goal_cells.items():
            if not 0 <= cell < self.width * self.height:
                raise ValueError(f"goal cell {cell} outside the grid")
            if not 0.0 <= value <= 1.0:
                raise ValueError("goal rewards must lie in [0, 1]")

    @property
    def num_cells(self) -> int:
        return self.width * self.height


def _grid_transitions(spec: GridSpec) -> np.ndarray:
    """Movement kernel with uniform action-failure redraw and blocked moves.

    The intended action moves w.p. 1-f, else a uniform redraw over all four
    actions does.  A move off the grid or into the wall (its column, off the
    door row) stays put.  The (S, 4) table of move targets is computed once;
    each redraw action a2 then adds its mass, f/4 + (1-f)[a2 == a], at its
    target with one scatter over all (s, a), in the order a2 = 0..3, so
    every entry sums its masses in the order of a per-cell loop.
    """
    w, h = spec.width, spec.height
    f = spec.action_failure_prob
    S = spec.num_cells
    row, col = np.divmod(np.arange(S), w)
    dr, dc = np.array(ACTION_DELTAS).T
    r2, c2 = row[:, None] + dr, col[:, None] + dc                 # (S, 4)
    blocked = (r2 < 0) | (r2 >= h) | (c2 < 0) | (c2 >= w)
    if spec.wall_column is not None:
        blocked |= (c2 == spec.wall_column) & (r2 != spec.door_row)
    targets = np.where(blocked, np.arange(S)[:, None], r2 * w + c2)
    mass = f / NUM_ACTIONS + (1.0 - f) * np.eye(NUM_ACTIONS)      # [a2, a]
    p = np.zeros((S, NUM_ACTIONS, S))
    cells, actions = np.arange(S)[:, None], np.arange(NUM_ACTIONS)
    for a2 in range(NUM_ACTIONS):
        p[cells, actions, targets[:, a2:a2 + 1]] += mass[a2]
    return p


def build_grid(spec: GridSpec, support=None) -> TabularMdp:
    """Gridworld over the spec's cells, with an optional wall with a single
    door, and absorbing goal cells.  The reward support is ``support``,
    which must hold 0 and every goal reward; by default it is exactly
    those values."""
    p = _grid_transitions(spec)
    if support is None:
        support = sorted({0.0} | set(spec.goal_cells.values()))
    support = np.asarray(support, dtype=float)
    u_index = {v: i for i, v in enumerate(support)}
    q = np.zeros((spec.num_cells, NUM_ACTIONS, support.shape[0]))
    q[:, :, u_index[0.0]] = 1.0

    for cell, value in spec.goal_cells.items():
        p[cell, :, :] = 0.0
        p[cell, :, cell] = 1.0
        q[cell, :, :] = 0.0
        q[cell, :, u_index[value]] = 1.0
    return TabularMdp(p=p, reward_support=support, q=q, gamma=spec.gamma)


def build_multi_goal_grid(spec: GridSpec, per_task_goal_rewards) -> list:
    """One MDP per task over shared goal positions, differing only in rewards.

    per_task_goal_rewards: list (one entry per task) of dicts
    cell -> reward value; all tasks must use the same goal cells.  Every
    task is built over the family's reward support: 0 and every task's
    goal rewards.
    """
    cells = set(spec.goal_cells)
    if any(set(rewards) != cells for rewards in per_task_goal_rewards):
        raise ValueError("all tasks must share the goal positions")
    support = sorted({0.0} | {v for r in per_task_goal_rewards for v in r.values()})
    return [build_grid(replace(spec, goal_cells=dict(rewards)), support)
            for rewards in per_task_goal_rewards]


def two_rooms_family(
    num_tasks: int = 12,
    width: int = 12,
    height: int = 12,
    action_failure_prob: float = 0.1,
    gamma: float = 0.99,
) -> list:
    """Family of two-rooms tasks with per-task door and goal positions.

    The wall sits in the middle column; task i has the door at row
    i mod height and an absorbing goal of reward 1 in the right room,
    spread over distinct cells.  Every task has the reward support {0, 1}.
    The right room needs a column, so the width must be at least 3.
    """
    if width < 3 or height < 1:
        raise ValueError("two-rooms grids need width >= 3 and height >= 1")
    wall = width // 2
    mdps = []
    for i in range(num_tasks):
        door_row = i % height
        goal_row = (i * 5 + 2) % height
        goal_col = wall + 1 + (i * 3) % (width - wall - 1)
        spec = GridSpec(
            width=width,
            height=height,
            goal_cells={goal_row * width + goal_col: 1.0},
            action_failure_prob=action_failure_prob,
            wall_column=wall,
            door_row=door_row,
            gamma=gamma,
        )
        mdps.append(build_grid(spec))
    return mdps


def multi_goal_family(
    num_tasks: int = 7,
    width: int = 12,
    height: int = 12,
    gamma: float = 0.9999,
) -> list:
    """Multi-goal family: shared goal cells in/near the corners, each task's
    best goal slightly better than the shared baseline value 0.7.

    Task 0 (the designated true task) has its best goal at 0.8; every other
    task has a different best goal at 0.81.  Actions fail with probability
    0.1.  A grid so small that two tasks' best goals share a cell is a
    ValueError.
    """
    corners = [
        (0, 0), (0, width - 1), (height - 1, 0), (height - 1, width - 1),
        (0, width // 2), (height - 1, width // 2), (height // 2, width - 1),
    ]
    if not 1 <= num_tasks <= len(corners):
        raise ValueError(f"the multi-goal family has 1 to {len(corners)} tasks")
    goal_cells = [r * width + c for r, c in corners[:num_tasks]]
    if len(set(goal_cells)) < num_tasks:
        raise ValueError(f"a {width} x {height} grid puts two of the {num_tasks} "
                         f"tasks' best goals in one cell")
    per_task = []
    for i in range(num_tasks):
        rewards = {g: 0.7 for g in goal_cells}
        rewards[goal_cells[i]] = 0.8 if i == 0 else 0.81
        per_task.append(rewards)
    spec = GridSpec(width=width, height=height, goal_cells=per_task[0], gamma=gamma)
    return build_multi_goal_grid(spec, per_task)


# The objectworld reward support, sorted; 0 is the empty reward.
ITEM_VALUES = (0.0, 0.02, 0.04, 0.2, 0.22, 0.24, 0.5, 0.52, 0.54, 0.96, 0.98, 1.0)
# The values an independently sampled task places, and the probability
# that a cell holds no item.
BASE_VALUES = (0.0, 0.2, 0.5, 0.96)
EMPTY_PROB = 0.5


@dataclass(frozen=True)
class ObjectworldSpec:
    """Parameters of the objectworld task family."""

    side: int = 5
    reward_failure_prob: float = 0.012
    transition_failure_prob: float = 0.1
    gamma: float = 0.9
    duplicate_of: dict | None = None

    def __post_init__(self):
        for prob in (self.reward_failure_prob, self.transition_failure_prob):
            if not 0.0 <= prob < 1.0:
                raise ValueError("probabilities must lie in [0, 1)")


def _objectworld_mdp(spec: ObjectworldSpec, placement, pick_actions) -> TabularMdp:
    grid = GridSpec(
        width=spec.side,
        height=spec.side,
        goal_cells={},
        action_failure_prob=spec.transition_failure_prob,
        gamma=spec.gamma,
    )
    S = grid.num_cells
    p = _grid_transitions(grid)
    support = np.array(ITEM_VALUES)
    u_index = {v: i for i, v in enumerate(ITEM_VALUES)}
    q = np.zeros((S, NUM_ACTIONS, support.shape[0]))
    q[:, :, 0] = 1.0
    for cell, value in placement.items():
        a = pick_actions[cell]
        q[cell, a, :] = 0.0
        q[cell, a, u_index[value]] = 1.0 - spec.reward_failure_prob
        q[cell, a, 0] += spec.reward_failure_prob
    return TabularMdp(p=p, reward_support=support, q=q, gamma=spec.gamma)


def _sample_placement(spec: ObjectworldSpec, rng) -> dict:
    # Items placed with probability inversely proportional to their value,
    # smoothed so that a value of 0 stays finite.
    weights = np.array([1.0 / (v + 0.05) for v in BASE_VALUES])
    weights /= weights.sum()
    placement = {}
    for cell in range(spec.side * spec.side):
        if rng.random() >= EMPTY_PROB:
            placement[cell] = BASE_VALUES[rng.choice(len(BASE_VALUES), p=weights)]
    return placement


def _near_duplicate(placement, rng) -> dict:
    """Perturb a base placement to a nearby, mostly slightly-better task:
    each item moves one rung up the value ladder with probability 0.9, else
    one rung down (``ITEM_VALUES`` is the ladder)."""
    out = {}
    for cell, value in placement.items():
        i = ITEM_VALUES.index(value)
        if rng.random() < 0.9:
            j = min(i + 1, len(ITEM_VALUES) - 1)
        else:
            j = max(i - 1, 0)
        out[cell] = ITEM_VALUES[j]
    return out


def build_objectworld_family(spec: ObjectworldSpec, k: int, rng) -> list:
    """k objectworld tasks over a shared grid and reward support.

    Tasks listed in ``spec.duplicate_of`` (task index -> base task index) are
    near-duplicates of another task; the rest are sampled independently
    from ``BASE_VALUES``.
    """
    if k < 2:
        raise ValueError("need at least 2 tasks")
    S = spec.side * spec.side
    duplicates = spec.duplicate_of or {}
    if any(not (0 <= i < k and 0 <= b < k) or b == i for i, b in duplicates.items()):
        raise ValueError("invalid duplicate mapping")

    pick_actions = {cell: int(rng.integers(NUM_ACTIONS)) for cell in range(S)}
    placements: list = [None] * k
    for i in range(k):
        if i not in duplicates:
            placements[i] = _sample_placement(spec, rng)
    for i, b in sorted(duplicates.items()):
        if b in duplicates:
            raise ValueError("duplicate base task must not itself be a duplicate")
        placements[i] = _near_duplicate(placements[b], rng)
    return [_objectworld_mdp(spec, placement, pick_actions) for placement in placements]


def paper_objectworld_duplicates() -> dict:
    """Near-duplicate layout used by the 8-task sequential experiments."""
    return {1: 0, 7: 0, 4: 5, 6: 5}


@dataclass(frozen=True)
class TaskChain:
    """Markov chain over task indices; column j holds P(next | current=j)."""

    transition: np.ndarray
    initial: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.transition, dtype=float)
        init = np.asarray(self.initial, dtype=float)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError("transition matrix must be square")
        if init.shape != (t.shape[0],):
            raise ValueError("initial distribution has wrong length")
        # Each check passes only on a True comparison, so a NaN fails it.
        if not (np.all(t >= -PROB_TOL) and np.all(init >= -PROB_TOL)):
            raise ValueError("negative or NaN probability entry")
        if not np.max(np.abs(t.sum(axis=0) - 1.0)) <= PROB_TOL:
            raise ValueError("columns must sum to 1")
        if not abs(init.sum() - 1.0) <= PROB_TOL:
            raise ValueError("initial distribution must sum to 1")
        t.setflags(write=False)
        init.setflags(write=False)
        object.__setattr__(self, "transition", t)
        object.__setattr__(self, "initial", init)

    @property
    def num_tasks(self) -> int:
        return self.transition.shape[0]

    @cached_property
    def _cumulative_rows(self):
        """The initial row and each column as normalized cumulative sums in
        Python lists, built on first use: ``bisect_right`` on one with a
        uniform double gives what ``rng.choice`` gives for that double."""
        return (normalized_cumsum(self.initial).tolist(),
                normalized_cumsum(self.transition.T).tolist())


def successor_chain(k: int, p_succ: float = 0.97, p_skip: float = 0.015) -> TaskChain:
    """Sparse chain: advance one w.p. p_succ, else skip two ahead or stay."""
    p_stay = 1.0 - p_succ - p_skip
    t = np.zeros((k, k))
    for j in range(k):
        t[(j + 1) % k, j] += p_succ
        t[(j + 2) % k, j] += p_skip
        t[j, j] += p_stay
    init = np.zeros(k)
    init[0] = 1.0
    return TaskChain(transition=t, initial=init)


def sample_next_task(chain: TaskChain, current: int, rng) -> int:
    """Draw the next task index from the chain column of the current task."""
    if not 0 <= current < chain.num_tasks:
        raise IndexError("task index out of range")
    return bisect_right(chain._cumulative_rows[1][current], rng.random())


def sample_initial_task(chain: TaskChain, rng) -> int:
    return bisect_right(chain._cumulative_rows[0], rng.random())


def sample_task_path(chain: TaskChain, steps: int, rng) -> np.ndarray:
    """The first ``steps`` tasks of a chain rollout, the initial task first.

    One double per step, all drawn at once: the path and the state ``rng``
    is left in are those of ``sample_initial_task`` followed by
    ``steps - 1`` calls of ``sample_next_task``.
    """
    row, columns = chain._cumulative_rows
    path = []
    for u in rng.random(steps).tolist():
        task = bisect_right(row, u)
        path.append(task)
        row = columns[task]
    return np.array(path, dtype=int)


class GenerativeModel:
    """Sampling oracle over a hidden ground-truth MDP.

    Exposes only structural information (sizes, support, discount); the
    hidden transition and reward tables never leave this object.  It draws
    from the sampling tables the model builds once (``cumulative_rows``,
    ``padded_pvals``), so its only mutable state is the charge
    ``queries_used``.
    """

    def __init__(self, mdp: TabularMdp):
        self._mdp = mdp
        self.queries_used = 0

    @property
    def num_states(self) -> int:
        return self._mdp.num_states

    @property
    def num_actions(self) -> int:
        return self._mdp.num_actions

    @property
    def reward_support(self) -> np.ndarray:
        return self._mdp.reward_support

    @property
    def gamma(self) -> float:
        return self._mdp.gamma

    def _unpad(self, counts):
        """The next-state and reward counts of draws from ``padded_pvals``
        rows: the last S and the last U counts of each."""
        return (counts[..., 0, -self.num_states:],
                counts[..., 1, -self.reward_support.size:])

    def query(self, s: int, a: int, rng):
        """One independent draw of (next_state, reward_value) at (s, a)."""
        next_states, reward_indices = self.query_many(s, a, 1, rng)
        return int(next_states[0]), float(self._mdp.reward_support[reward_indices[0]])

    def query_many(self, s: int, a: int, count: int, rng, keep=None):
        """``count`` independent draws at (s, a), of which the caller keeps a
        leading run.

        Returns (next_states, reward_indices), indices into the states and
        into ``reward_support``; draw j is the j-th of as many ``query``
        calls.  ``keep(next_states, reward_indices)`` returns how many m of
        the drawn queries, from the first, the caller uses (all when
        ``keep`` is None): only those m are charged and returned, and
        ``rng`` is left as m ``query`` calls would leave it.
        """
        cdf_p, cdf_q = (rows[s, a] for rows in self._mdp.cumulative_rows)
        saved = None if keep is None else rng.bit_generator.state
        # Two doubles per query, the next state's first, as rng.choice uses.
        u = rng.random((count, 2))
        next_states = cdf_p.searchsorted(u[:, 0], side="right")
        reward_indices = cdf_q.searchsorted(u[:, 1], side="right")
        used = count if keep is None else keep(next_states, reward_indices)
        if not 0 <= used <= count:
            raise ValueError(f"kept {used} of {count} draws")
        if used < count:
            rng.bit_generator.state = saved
            rng.random(2 * used)
        self.queries_used += used
        return next_states[:used], reward_indices[:used]

    def query_batch(self, s: int, a: int, count: int, rng):
        """count i.i.d. draws at (s, a), returned as count vectors.

        Returns (next_state_counts, reward_index_counts); equivalent in law
        to count repeated single queries.  One ``rng.multinomial`` call
        draws the pair's two ``padded_pvals`` rows, the next-state row
        first, so the counts and the state ``rng`` is left in are those of
        ``rng.multinomial(count, row)`` on each unpadded row in turn.
        """
        self.queries_used += count
        return self._unpad(rng.multinomial(count, self._mdp.padded_pvals[s, a]))

    def query_table(self, need, rng):
        """``need[s, a]`` i.i.d. draws at every (s, a), as count tables.

        Returns (next_counts (S, A, S), reward_counts (S, A, U)).  One
        ``rng.multinomial`` call draws every pair's two ``padded_pvals``
        rows, in row-major order with n = ``need[s, a]`` clipped at 0.  A
        row with n = 0 draws nothing, so the counts and the state ``rng`` is
        left in are those of one ``query_batch`` call per pair with
        ``need > 0``, in row-major order; with no such pair, no call.
        """
        need = np.asarray(need)
        S, A = self.num_states, self.num_actions
        if need.shape != (S, A):
            raise ValueError(f"need must have shape {(S, A)}")
        n = np.maximum(need, 0)
        self.queries_used += int(n.sum())
        pvals = self._mdp.padded_pvals
        counts = (rng.multinomial(np.broadcast_to(n[:, :, None], (S, A, 2)), pvals)
                  if n.any() else np.zeros(pvals.shape, dtype=np.int64))
        return self._unpad(counts)
