"""Independent planning reference for the benchmark's correctness checks.

V* comes from plain value iteration and V^pi from a direct linear solve,
both written here against the raw model arrays, so a fault in the
package's own planner cannot hide a wrong policy.  Nothing from
``seqtransfer.mdp`` is imported.
"""
import numpy as np

TOL = 1e-8
EPS_SLACK = 1e-6


def optimal_values(p, q, support, gamma, tol=TOL):
    """V* by value iteration, stopped once ||V - V*||_inf <= tol."""
    p = np.asarray(p, dtype=float)
    r = np.asarray(q, dtype=float) @ np.asarray(support, dtype=float)
    # A step of at most tol (1 - gamma) / (2 gamma) bounds the error by tol.
    stop = tol * (1.0 - gamma) / (2.0 * gamma) if gamma > 0 else np.inf
    v = np.zeros(p.shape[0])
    while True:
        nxt = (r + gamma * (p @ v)).max(axis=1)
        if np.max(np.abs(nxt - v)) <= stop:
            return nxt
        v = nxt


def policy_values(p, q, support, gamma, policy):
    """V^pi of a deterministic policy: solves (I - gamma P_pi) V = r_pi."""
    p = np.asarray(p, dtype=float)
    states = np.arange(p.shape[0])
    policy = np.asarray(policy, dtype=int)
    r = np.asarray(q, dtype=float) @ np.asarray(support, dtype=float)
    p_pi, r_pi = p[states, policy], r[states, policy]
    return np.linalg.solve(np.eye(p.shape[0]) - gamma * p_pi, r_pi)


def mdp_optimal_values(mdp):
    """optimal_values of a model with p, q, reward_support and gamma."""
    return optimal_values(mdp.p, mdp.q, mdp.reward_support, mdp.gamma)


def is_eps_optimal(mdp, v_star, policy, eps):
    """True iff V*(s) - V^pi(s) <= eps at every state of ``mdp``."""
    v_pi = policy_values(mdp.p, mdp.q, mdp.reward_support, mdp.gamma, policy)
    return bool(np.max(v_star - v_pi) <= eps + EPS_SLACK)
