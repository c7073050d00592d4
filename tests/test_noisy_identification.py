"""Identification criteria on a family with noisy rewards and transitions.

On two-rooms every reward is a point mass, so one sample refutes a wrong
goal and only the data-free part of the radii decides.  Here the rewards
and transitions are Dirichlet draws (``harness.random_hmm_family``) and the
models are exact, so eliminations rest on the empirical-Bernstein terms,
and the passes stack many snapshots.  Each true task runs on 100 streams.
"""
import numpy as np
import pytest
from scipy.stats import beta

from seqtransfer.envs import GenerativeModel
from seqtransfer.harness import random_hmm_family, run_rng
from seqtransfer.mdp import policy_evaluation, value_iteration
from seqtransfer.ptum import ApproxModelSet, run_ptum, theta_eps_and_bound

SEED = 1313
EPS, DELTA, BUDGET, STREAMS = 0.5, 0.1, 100_000, 100
# One-sided level of the Clopper-Pearson bound on true-task survival.
ALPHA = 0.05


@pytest.fixture(scope="module")
def noisy_runs():
    """Per true task: its theta_eps_and_bound bound, and (tau, eps-optimal,
    true task never eliminated) per stream."""
    family, _ = random_hmm_family(4, 5, 2, 3, 0.9, run_rng(SEED, 2 ** 31))
    approx = ApproxModelSet(family)
    out = {}
    for star, truth in enumerate(family):
        values, _ = value_iteration(truth)
        _, bound = theta_eps_and_bound(approx, star, EPS, DELTA, BUDGET)
        rows = []
        for i in range(STREAMS):
            res = run_ptum(approx, GenerativeModel(truth), EPS, DELTA, BUDGET,
                           run_rng(SEED, i))
            rows.append((res.tau,
                         bool(np.max(values - policy_evaluation(truth, res.policy))
                              <= EPS + 1e-6),
                         all(star in step for step in res.survived_trace)))
        out[star] = bound, rows
    return out


def test_every_run_is_eps_optimal(noisy_runs):
    for star, (_, rows) in noisy_runs.items():
        assert all(opt for _, opt, _ in rows), f"true task {star}"


def test_true_task_survival_is_at_least_one_minus_delta(noisy_runs):
    # The Clopper-Pearson lower bound on the survival probability, at one
    # -sided level ALPHA, from all runs together.
    survived = sum(kept for _, rows in noisy_runs.values() for *_, kept in rows)
    runs = sum(len(rows) for _, rows in noisy_runs.values())
    lower = beta.ppf(ALPHA, survived, runs - survived + 1) if survived else 0.0
    assert lower >= 1.0 - DELTA, f"{survived}/{runs} survived, lower bound {lower:.4f}"


def test_tau_is_within_the_bound(noisy_runs):
    for star, (bound, rows) in noisy_runs.items():
        assert np.isfinite(bound) and max(tau for tau, *_ in rows) <= bound, \
            f"true task {star}"
