"""Tabular MDP representation, exact planning of model stacks and reward
statistics.

All operations are pure functions over immutable arrays; a ``TabularMdp``
is never mutated after construction, and the sampling tables it builds on
first use are read-only.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

PROB_TOL = 1e-9
# Sup-norm error of the values ``value_iteration`` returns.
VALUE_TOL = 1e-8
# Greedy actions within this many times max(1, max |Q|) of the best tie.
_TIE_SCALE = 64.0 * np.finfo(float).eps


class ShapeMismatchError(ValueError):
    """Models that must share (S, A, U, gamma) do not."""


def normalized_cumsum(p) -> np.ndarray:
    """Cumulative sums of each row (last axis) of ``p`` scaled to end at 1,
    the array that ``rng.choice(len(row), p=row)`` searches its one uniform
    double in (``side="right"``).

    Entries are clipped at 0 first, which changes no bit for a non-negative
    ``p`` and lets the entries down to ``-PROB_TOL`` that the models and
    the task chain accept be sampled, where ``rng.choice`` would raise.
    """
    cdf = np.cumsum(np.maximum(p, 0.0), axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def _multinomial_pvals(p) -> np.ndarray:
    """``p`` with each row (last axis) that ``rng.multinomial`` rejects
    clipped at 0 and renormalised.

    ``rng.multinomial`` rejects an entry outside [0, 1] and a row whose
    first n-1 entries sum past 1 + 1e-12, both of which a model's rows may
    hold within ``PROB_TOL``.  Every other row is passed through as it is,
    so a valid model keeps its draws bit for bit.
    """
    p = np.asarray(p, dtype=float)
    bad = (np.any((p < 0.0) | (p > 1.0), axis=-1)
           | (p[..., :-1].sum(axis=-1) > 1.0 + 1e-12))
    if not bad.any():
        return p
    clipped = np.maximum(p[bad], 0.0)
    fixed = p.copy()
    fixed[bad] = clipped / clipped.sum(axis=-1, keepdims=True)
    return fixed


@dataclass(frozen=True)
class TabularMdp:
    """Finite discounted MDP with finite-support reward distributions.

    Attributes
    ----------
    p : ndarray, shape (S, A, S)
        Transition probabilities, each (s, a) row a distribution.
    reward_support : ndarray, shape (U,)
        Ordered reward values, all in [0, 1].
    q : ndarray, shape (S, A, U)
        Reward distribution over the support per (s, a).
    gamma : float
        Discount factor in [0, 1).
    """

    p: np.ndarray
    reward_support: np.ndarray
    q: np.ndarray
    gamma: float

    def __post_init__(self):
        p = np.ascontiguousarray(np.asarray(self.p, dtype=float))
        u = np.ascontiguousarray(np.asarray(self.reward_support, dtype=float))
        q = np.ascontiguousarray(np.asarray(self.q, dtype=float))
        if p.ndim != 3 or p.shape[0] != p.shape[2]:
            raise ValueError(f"transition tensor must be (S, A, S), got {p.shape}")
        S, A, _ = p.shape
        if q.shape != (S, A, u.shape[0]):
            raise ValueError(f"reward tensor must be (S, A, U), got {q.shape}")
        # Each check passes only on a True comparison, so a NaN fails it.
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        if not (np.all(u >= 0.0) and np.all(u <= 1.0)):
            raise ValueError("reward support values must lie in [0, 1]")
        if not (np.all(p >= -PROB_TOL) and np.all(q >= -PROB_TOL)):
            raise ValueError("negative or NaN probability entry")
        if not np.max(np.abs(p.sum(axis=2) - 1.0)) <= PROB_TOL:
            raise ValueError("transition rows must sum to 1")
        if not np.max(np.abs(q.sum(axis=2) - 1.0)) <= PROB_TOL:
            raise ValueError("reward rows must sum to 1")
        for arr in (p, u, q):
            arr.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "reward_support", u)
        object.__setattr__(self, "q", q)

    @property
    def num_states(self) -> int:
        return self.p.shape[0]

    @property
    def num_actions(self) -> int:
        return self.p.shape[1]

    @property
    def num_rewards(self) -> int:
        return self.reward_support.shape[0]

    def reward_means(self) -> np.ndarray:
        """Expected reward per (s, a), shape (S, A)."""
        return self.q @ self.reward_support

    def reward_stds(self) -> np.ndarray:
        """Reward standard deviation per (s, a), shape (S, A)."""
        mean = self.reward_means()
        second = self.q @ (self.reward_support ** 2)
        var = np.maximum(second - mean ** 2, 0.0)
        return np.sqrt(var)

    @cached_property
    def cumulative_rows(self):
        """The next-state and reward rows of every pair as normalized
        cumulative sums (``normalized_cumsum``), (S, A, S) and (S, A, U),
        read-only and built once per model: searching row (s, a) with a
        uniform double gives what ``rng.choice(n, p=row)`` gives for it."""
        rows = normalized_cumsum(self.p), normalized_cumsum(self.q)
        for row in rows:
            row.setflags(write=False)
        return rows

    @cached_property
    def padded_pvals(self) -> np.ndarray:
        """Each pair's next-state row and then its reward row as
        ``rng.multinomial`` takes them (``_multinomial_pvals``), each
        left-padded with zeros to K = max(S, U): a read-only (S, A, 2, K)
        table, built once per model.  A leading zero entry draws no
        binomial and leaves numpy's remaining mass at exactly 1.0, so a
        padded row draws what its unpadded row draws, and the last S or U
        counts are the row's."""
        rows = _multinomial_pvals(self.p), _multinomial_pvals(self.q)
        K = max(row.shape[-1] for row in rows)
        table = np.zeros((self.num_states, self.num_actions, 2, K))
        for kind, row in enumerate(rows):
            table[:, :, kind, K - row.shape[-1]:] = row
        table.setflags(write=False)
        return table

    def to_json_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "reward_support": self.reward_support.tolist(),
            "p": self.p.tolist(),
            "q": self.q.tolist(),
        }


def _shared_shape(models):
    """The (S, A, gamma) that ``models`` must share, with their reward
    support; raises ShapeMismatchError when they do not."""
    first = models[0]
    for m in models[1:]:
        if not (m.p.shape == first.p.shape and m.gamma == first.gamma
                and np.array_equal(m.reward_support, first.reward_support)):
            raise ShapeMismatchError("models must share (S, A, U, gamma)")
    return first.num_states, first.num_actions, first.gamma


def _solve_policies(ps, rs, rows, gamma, identity):
    """V^pi in the model with transitions ``ps[m]`` (S, A, S) and reward
    means ``rs[m]`` (S, A) of the policy whose rows of ``p.reshape(S*A, S)``
    are ``rows[m]`` (s*A + pi(s)), for each m: one stacked solve of
    (I - gamma P_pi) V = r_pi, with ``identity`` the (S, S) I.

    Each P_pi is gathered straight into the stacked system, and
    I - gamma P_pi is formed there in place, so each model gets bit for bit
    what a solve of ``np.eye(S) - gamma * p[arange(S), pi]`` alone gets.
    """
    n, S = rows.shape
    system = np.empty((n, S, S))
    r_pi = np.empty((n, S))
    for p, r, row, p_out, r_out in zip(ps, rs, rows, system, r_pi):
        # The rows are in range; mode "clip" writes to out without a buffer.
        np.take(p.reshape(-1, S), row, axis=0, out=p_out, mode="clip")
        np.take(r.reshape(-1), row, out=r_out, mode="clip")
    np.multiply(system, gamma, out=system)
    np.subtract(identity, system, out=system)
    return np.linalg.solve(system, r_pi[..., None])[..., 0]


def policy_values(models, pi: np.ndarray) -> np.ndarray:
    """Value function of one deterministic policy in each of k models that
    share (S, A, U, gamma), shape (k, S): one stacked linear solve, exact up to
    floating point, each row bit for bit the model's ``policy_evaluation``."""
    S, A, gamma = _shared_shape(models)
    pi = np.asarray(pi, dtype=int)
    if pi.shape != (S,) or pi.min() < 0 or pi.max() >= A:
        raise ValueError(f"a policy needs one action in [0, {A}) per state")
    rs = [m.reward_means() for m in models]
    rows = np.broadcast_to(np.arange(S) * A + pi, (len(models), S))
    return _solve_policies([m.p for m in models], rs, rows, gamma, np.eye(S))


def policy_evaluation(mdp: TabularMdp, pi: np.ndarray) -> np.ndarray:
    """Value function of a deterministic policy: ``policy_values`` with one
    model."""
    return policy_values([mdp], pi)[0]


def is_eps_optimal(mdp: TabularMdp, v_star: np.ndarray, pi: np.ndarray,
                   eps: float) -> bool:
    """True iff policy ``pi`` is within eps (plus 1e-6 for round-off) of
    ``v_star`` at every state of ``mdp``."""
    return bool(np.max(v_star - policy_evaluation(mdp, pi)) <= eps + 1e-6)


def plan(models):
    """Optimal value functions and greedy policies of k models that share
    (S, A, U, gamma): (values (k, S), policies (k, S)).

    Policy iteration (greedy step + exact evaluation), which converges in
    finitely many steps and is robust to discounts close to 1.  A model
    stops on one of two rules:

    - its Bellman residual is at most VALUE_TOL*(1-gamma)/max(2*gamma, 1).
      A residual of at most e puts V within e/(1-gamma) of V*, and the
      greedy policy's value within 2*gamma*e/(1-gamma) of V*, so both are
      within ``VALUE_TOL`` in sup norm; the model keeps V and the greedy
      policy.
    - its greedy policy is one it has already evaluated.  A greedy policy
      equal to the last one evaluated means V solves the optimality
      equation, so V = V* up to the solve's round-off.  Exact policy
      iteration never returns to an earlier policy, but near gamma = 1 the
      solve's round-off can make policies whose values differ by round-off
      cycle.  Either way the model keeps the last policy it evaluated, with
      that policy's exact values.  There are finitely many policies, so
      every model stops.

    Greedy ties break toward the lowest action index.

    The models are planned as one stack: each step backs up every model
    still running, and one stacked solve evaluates their new policies.
    Each model is frozen at its own stop, so its values and policy are bit
    for bit what it gets planned alone.
    """
    S, A, gamma = _shared_shape(models)
    k = len(models)
    target = VALUE_TOL * (1.0 - gamma) / max(2.0 * gamma, 1.0)
    offsets, identity = np.arange(S) * A, np.eye(S)
    values = np.empty((k, S))
    policies = np.empty((k, S), dtype=int)
    # The models still running: their indices, transitions, reward means,
    # values, last evaluated policies and the bytes of every policy each
    # has evaluated.
    ids = np.arange(k)
    ps = [m.p for m in models]
    r = np.array([m.reward_means() for m in models])
    v = np.zeros((k, S))
    pi = None
    evaluated = [set() for _ in range(k)]
    # The backup r + gamma p.v of v = 0 is r, bit for bit.
    q = r
    backup = np.empty((k, S, A))
    # At k = 1 this loop plans every uniform-fallback solve, so it calls
    # ufunc reductions and in-place operators, which skip numpy's method
    # wrappers.
    while True:
        qmax = np.maximum.reduce(q, axis=2)
        residual = np.maximum.reduce(np.abs(qmax - v), axis=1)
        # Treat actions within round-off of the best as exact ties; without
        # this, discounts near 1 make the greedy policy cycle on noise.
        tie_tol = _TIE_SCALE * np.maximum(1.0, np.maximum.reduce(np.abs(qmax), axis=1))
        greedy = (q >= (qmax - tie_tol[:, None])[..., None]).argmax(axis=2)
        stopped = (residual <= target).tolist()
        for slot, (row, seen) in enumerate(zip(greedy, evaluated)):
            if not stopped[slot] and row.tobytes() in seen:
                greedy[slot] = pi[slot]
                stopped[slot] = True
        if any(stopped):
            for slot, done in enumerate(stopped):
                if done:
                    values[ids[slot]], policies[ids[slot]] = v[slot], greedy[slot]
            if all(stopped):
                return values, policies
            run = [slot for slot, done in enumerate(stopped) if not done]
            ids, r, greedy = ids[run], r[run], greedy[run]
            ps = [ps[slot] for slot in run]
            evaluated = [evaluated[slot] for slot in run]
        for row, seen in zip(greedy, evaluated):
            seen.add(row.tobytes())
        pi = greedy
        v = _solve_policies(ps, r, offsets + pi, gamma, identity)
        q = backup[:ids.size]
        for p, v_m, out in zip(ps, v, q):
            np.matmul(p, v_m, out=out)
        q *= gamma
        q += r


def value_iteration(mdp: TabularMdp):
    """Optimal value function and greedy policy of one model: ``plan``
    with one model (policy iteration; the values within ``VALUE_TOL``)."""
    values, policies = plan([mdp])
    return values[0], policies[0]
