"""Tabular MDP representation, exact planning, variance statistics and the
simulation-lemma bound.

All operations are pure functions over immutable arrays; a ``TabularMdp``
is never mutated after construction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PROB_TOL = 1e-9
# Sup-norm error of the values ``value_iteration`` returns.
VALUE_TOL = 1e-8


class ShapeMismatchError(ValueError):
    """Two models that must share (S, A, U, gamma) do not."""


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
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        if np.any(u < 0.0) or np.any(u > 1.0):
            raise ValueError("reward support values must lie in [0, 1]")
        if np.any(p < -PROB_TOL) or np.any(q < -PROB_TOL):
            raise ValueError("negative probability entry")
        if np.max(np.abs(p.sum(axis=2) - 1.0)) > PROB_TOL:
            raise ValueError("transition rows must sum to 1")
        if np.max(np.abs(q.sum(axis=2) - 1.0)) > PROB_TOL:
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

    def to_json_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "reward_support": self.reward_support.tolist(),
            "p": self.p.tolist(),
            "q": self.q.tolist(),
        }


def require_same_shape(a: TabularMdp, b: TabularMdp) -> None:
    if not (
        a.p.shape == b.p.shape
        and a.q.shape == b.q.shape
        and np.array_equal(a.reward_support, b.reward_support)
        and a.gamma == b.gamma
    ):
        raise ShapeMismatchError("models must share (S, A, U, gamma)")


def _policy_matrices(mdp: TabularMdp, pi: np.ndarray):
    """Transition matrix and reward vector induced by a deterministic policy."""
    S = mdp.num_states
    idx = np.arange(S)
    p_pi = mdp.p[idx, pi, :]
    r_pi = mdp.reward_means()[idx, pi]
    return p_pi, r_pi


def policy_evaluation(mdp: TabularMdp, pi: np.ndarray) -> np.ndarray:
    """Value function of a deterministic policy, via direct linear solve
    (exact up to floating point)."""
    p_pi, r_pi = _policy_matrices(mdp, np.asarray(pi, dtype=int))
    S = mdp.num_states
    return np.linalg.solve(np.eye(S) - mdp.gamma * p_pi, r_pi)


def is_eps_optimal(mdp: TabularMdp, v_star: np.ndarray, pi: np.ndarray,
                   eps: float) -> bool:
    """True iff policy ``pi`` is within eps (plus 1e-6 for round-off) of
    ``v_star`` at every state of ``mdp``."""
    return bool(np.max(v_star - policy_evaluation(mdp, pi)) <= eps + 1e-6)


def value_iteration(mdp: TabularMdp):
    """Optimal value function and greedy policy.

    Uses policy iteration (greedy step + exact evaluation), which converges
    in finitely many steps and is robust to discounts close to 1.  Stops once
    the Bellman residual of V is at most VALUE_TOL*(1-gamma)/(2*gamma), which
    guarantees sup-norm error at most ``VALUE_TOL``.  Greedy ties break
    toward the lowest action index.
    """
    gamma = mdp.gamma
    target = VALUE_TOL * (1.0 - gamma) / (2.0 * gamma) if gamma > 0 else VALUE_TOL
    r = mdp.reward_means()
    S = mdp.num_states
    v = np.zeros(S)
    prev_pi = None
    for _ in range(10_000):
        q = r + gamma * (mdp.p @ v)
        qmax = q.max(axis=1)
        residual = np.max(np.abs(qmax - v))
        # Treat actions within round-off of the best as exact ties; without
        # this, discounts near 1 make the greedy policy cycle on noise.
        tie_tol = 64.0 * np.finfo(float).eps * max(1.0, float(np.abs(qmax).max()))
        pi = np.argmax(q >= qmax[:, None] - tie_tol, axis=1)
        # A repeated greedy policy means v is its exact value and satisfies
        # the optimality equation, so v = V* up to the solve's round-off.
        if residual <= target or (prev_pi is not None and np.array_equal(pi, prev_pi)):
            return v, pi
        v = policy_evaluation(mdp, pi)
        prev_pi = pi
    raise RuntimeError("policy iteration failed to converge")  # pragma: no cover


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
    p_pi, _ = _policy_matrices(mdp, pi)
    S = mdp.num_states
    e = np.zeros(S)
    e[start_state] = 1.0
    return np.linalg.solve(np.eye(S) - mdp.gamma * p_pi.T, e)


def simulation_gap_bound(
    theta: TabularMdp, theta2: TabularMdp, pi: np.ndarray, start_state: int
) -> float:
    """Occupancy-weighted upper bound on |V^pi_theta(s) - V^pi_theta2(s)|.

    Diagnostic only: the occupancy is taken under theta2 and the value
    function under theta, matching the first simulation inequality.
    """
    require_same_shape(theta, theta2)
    pi = np.asarray(pi, dtype=int)
    nu = discounted_occupancy(theta2, pi, start_state)
    v_pi = policy_evaluation(theta, pi)
    idx = np.arange(theta.num_states)
    r_gap = np.abs(theta.reward_means() - theta2.reward_means())[idx, pi]
    p_gap = np.abs((theta.p - theta2.p) @ v_pi)[idx, pi]
    return float(nu @ (r_gap + theta.gamma * p_gap))
