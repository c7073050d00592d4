"""The planning reference on a two-state MDP solved by hand.

State 1 is absorbing and pays 1 per step, so V*(1) = 1/(1 - gamma) = 10 at
gamma = 0.9.  In state 0, action 0 stays for reward 0 and action 1 moves
to state 1 with probability 1/2 for reward 0.  Moving is optimal:
V*(0) = 0.9 (V*(0)/2 + 10/2), so V*(0) = 4.5 / 0.55 = 90/11.  Staying
forever is worth 0.
"""
import numpy as np

from reference import is_eps_optimal, optimal_values, policy_values

GAMMA = 0.9
SUPPORT = np.array([0.0, 1.0])
P = np.array([
    [[1.0, 0.0], [0.5, 0.5]],
    [[0.0, 1.0], [0.0, 1.0]],
])
Q = np.array([
    [[1.0, 0.0], [1.0, 0.0]],
    [[0.0, 1.0], [0.0, 1.0]],
])


class Hand:
    p, q, reward_support, gamma = P, Q, SUPPORT, GAMMA


def test_optimal_values_match_hand_solution():
    v = optimal_values(P, Q, SUPPORT, GAMMA)
    assert np.allclose(v, [90.0 / 11.0, 10.0], atol=1e-7)


def test_policy_values_match_hand_solution():
    assert np.allclose(policy_values(P, Q, SUPPORT, GAMMA, [1, 0]),
                       [90.0 / 11.0, 10.0], atol=1e-12)
    assert np.allclose(policy_values(P, Q, SUPPORT, GAMMA, [0, 0]),
                       [0.0, 10.0], atol=1e-12)


def test_eps_optimality_threshold():
    v_star = optimal_values(P, Q, SUPPORT, GAMMA)
    assert is_eps_optimal(Hand, v_star, [1, 1], eps=0.0)
    # Staying loses 90/11 ~ 8.18 at state 0.
    assert not is_eps_optimal(Hand, v_star, [0, 0], eps=8.0)
    assert is_eps_optimal(Hand, v_star, [0, 0], eps=8.2)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
    print("reference: all hand-solved checks pass")
