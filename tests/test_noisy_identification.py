"""Identification criteria on a family with noisy rewards and transitions.

On two-rooms every reward is a point mass, so one sample refutes a wrong
goal and only the data-free part of the radii decides.  Here the rewards
and transitions are Dirichlet draws (``harness.random_hmm_family``) and the
models are exact, so eliminations rest on the empirical-Bernstein terms,
and the passes stack many snapshots.  Each true task runs on 100 streams.
The same draws at other shapes show how tau scales with S*A and with k.
"""
import numpy as np
import pytest
from scipy.stats import beta

from seqtransfer.envs import GenerativeModel
from seqtransfer.harness import random_hmm_family, run_rng
from seqtransfer.mdp import policy_evaluation, value_iteration
from seqtransfer.ptum import (
    ApproxModelSet,
    default_fallback_per_pair,
    run_ptum,
    theta_eps_and_bound,
)

SEED = 1313
EPS, DELTA, BUDGET, STREAMS = 0.5, 0.1, 100_000, 100
# One-sided level of the Clopper-Pearson bound on true-task survival.
ALPHA = 0.05


def noisy_family(k=4, S=5):
    """The exact model set of a family with A = 2, U = 3 and gamma = 0.9."""
    family, _ = random_hmm_family(k, S, 2, 3, 0.9, run_rng(SEED, 2 ** 31))
    return family, ApproxModelSet(family)


@pytest.fixture(scope="module")
def noisy_runs():
    """Per true task: its theta_eps_and_bound bound, and (tau, eps-optimal,
    true task never eliminated) per stream."""
    family, approx = noisy_family()
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


def test_mean_tau_does_not_grow_with_eps():
    # The same 100 streams at each eps.  At eps = 4 every true task stops
    # at once (tau = 0); tasks 0, 2 and 3 also step down before that.
    family, approx = noisy_family()
    for star, truth in enumerate(family):
        means = [np.mean([run_ptum(approx, GenerativeModel(truth), eps, DELTA, BUDGET,
                                   run_rng(SEED, i)).tau for i in range(STREAMS)])
                 for eps in (0.5, 1.0, 2.0, 4.0)]
        steps = np.diff(means)
        assert np.all(steps <= 0) and np.any(steps < 0), f"true task {star}: {means}"


def scaling_runs(k, S):
    """tau and the theta_eps_and_bound bound of 30 streams, true task i mod k."""
    family, approx = noisy_family(k, S)
    runs = []
    for i in range(30):
        star = i % k
        res = run_ptum(approx, GenerativeModel(family[star]), EPS, DELTA, BUDGET,
                       run_rng(SEED, i))
        runs.append((res.tau, theta_eps_and_bound(approx, star, EPS, DELTA, BUDGET)[1]))
    return runs


def test_tau_does_not_pay_for_the_state_action_count():
    # The uniform fallback queries every pair, so its count grows with
    # S*A at slope about 1 on a log-log scale; tau should stay flat.
    pairs, medians = [10, 20, 40, 80, 160], []
    for SA in pairs:
        runs = scaling_runs(4, SA // 2)
        assert all(tau <= bound for tau, bound in runs), f"S*A = {SA}"
        medians.append(np.median([tau for tau, _ in runs]))
    for k in (2, 4, 8, 16):
        assert all(tau <= bound for tau, bound in scaling_runs(k, 10)), f"k = {k}"
    slope = np.polyfit(np.log(pairs), np.log(medians), 1)[0]
    uniform = [SA * default_fallback_per_pair(EPS, DELTA, SA // 2, 2, 0.9) for SA in pairs]
    uniform_slope = np.polyfit(np.log(pairs), np.log(uniform), 1)[0]
    assert slope < 0.5 <= uniform_slope, \
        f"median tau {medians}: slope {slope:.2f}, uniform count's {uniform_slope:.2f}"
