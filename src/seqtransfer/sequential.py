"""Sequential transfer across tasks drawn from a hidden Markov chain.

The run has two parts.  The ``Learner`` is the paper's agent: it sees one
generative model per task and its own past.  It solves each task (by the
elimination algorithm when the uncertainty gate allows, by uniform
sampling otherwise), makes the empirical frequencies of its samples an
observation for the spectral learner, re-estimates the task models and the
chain, refreshes the uncertainty level from the error-bound schedule, and
pre-eliminates unlikely next tasks from the candidate set of the following
round.  ``run_sequential`` is the evaluator: it holds the hidden family and
chain, draws each task, hands the learner an oracle of it, and grades the
policy and the estimate against the truth.  One channel from the truth into
the learner remains: each estimate is aligned to the true observation
columns (the learner's ``reference``), and those labels are the ones
``active`` and pre-elimination carry across rounds.

The moments read whole triples of consecutive observations, so an
estimate is attempted, from the observation count n alone, at n =
max(3k, startup_tasks) and then at each later multiple of 3.  With fewer
than k triples the second moment has rank below k, and the start-up tasks
read no estimate.  Every count from 3k on that makes no estimate draws
the normals its RTP starts would have drawn, so the stream is the one
that estimating at every count would leave, as long as none raises.
Start-up rows before the first estimate carry NaN error columns, an
infinite ``delta_h`` and the full candidate set.

An estimate's error bound and pre-elimination slack are computed when it
is made, from the 3*floor(n/3) observations it read and ``rho_at`` of the
task that made it.  A task is ``degraded`` when its attempted estimate
raised.  The tasks after an attempt read its outcome; an attempt by the
last task (when ``num_tasks`` is a count that makes an estimate, such as
a multiple of 3 from max(3k, startup_tasks) on) sets only that task's
error columns and ``degraded``.  A failed triple is not retried: the last
good estimate, if any, stays in use with its bound and slack until the
next triple; with none, the tasks fall back with an infinite ``delta_h``.
One candidate model set is built per estimate, at the first task that
runs the elimination algorithm on it, and serves every later such task
until the next estimate is made; a failed triple keeps it with the
estimate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .envs import GenerativeModel, TaskChain, sample_initial_task, sample_next_task
from .mdp import is_eps_optimal, plan
from .ptum import (ApproxModelSet, EmpiricalModel, run_ptum, transfer_gate,
                   uniform_pac_fallback)
from .spectral import (DecompositionFailureError, DegenerateMomentsError, HmmEstimate,
                       ObservationLayout, estimate_errors, model_error_bound,
                       spectral_estimate, unpack_models)


@dataclass(frozen=True)
class SequentialConfig:
    """Knobs of one sequential-transfer run.

    The defaults are ``run-sequential``'s, and their ``delta`` is within
    the pre-elimination cap ``delta_prime`` / (3 ``num_tasks``^2).
    Every value a run would reject at some task is rejected here, before
    the start-up phase.  A task whose gate is closed, in the start-up
    phase or after it, queries every pair ``startup_per_pair`` times.
    """

    num_tasks: int = 150
    startup_tasks: int = 100
    startup_per_pair: int = 50
    post_sample_per_pair: int = 30
    eps: float = 0.5
    delta: float = 1e-6
    delta_prime: float = 0.1
    rho: float = 0.135
    eta: float = 0.087
    rho_t: float = 0.001
    top_keep: int = 3
    pre_elimination: bool = True
    budget: int = 100_000
    rho_final: float | None = None
    rho_decay_tasks: int = 0
    rtp_restarts: int = 20
    rtp_iters: int = 50

    def __post_init__(self):
        if self.num_tasks < 1 or self.startup_tasks < 0:
            raise ValueError("task counts must be positive")
        if min(self.startup_per_pair, self.post_sample_per_pair) < 1:
            raise ValueError("per-pair sample counts must be at least 1")
        if not 0.0 < self.delta < 1.0 or not 0.0 < self.delta_prime < 1.0:
            raise ValueError("delta and delta_prime must be in (0, 1)")
        if self.pre_elimination and self.eta > 0:
            cap = self.delta_prime / (3.0 * self.num_tasks ** 2)
            if self.delta > cap:
                raise ValueError(
                    f"pre-elimination needs delta <= delta_prime/(3 m^2) = {cap:g}"
                )
        # ``x >= 0`` is False for a NaN, so a NaN is rejected too.
        if not (self.rho >= 0 and self.eta >= 0 and self.rho_t >= 0) or (
                self.rho_final is not None and not self.rho_final >= 0):
            raise ValueError("rho, eta, rho_t and rho_final must be non-negative")
        if self.rtp_restarts < 1 or self.rtp_iters < 1:
            raise ValueError("rtp_restarts and rtp_iters must be at least 1")
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.budget < 0:
            raise ValueError("budget must be non-negative")
        if self.top_keep < 1:
            raise ValueError("top_keep must be at least 1")

    def rho_at(self, h: int) -> float:
        """Linear decay of rho over the first ``rho_decay_tasks`` tasks."""
        if self.rho_final is None or self.rho_decay_tasks <= 0:
            return self.rho
        frac = min(max(h, 0) / self.rho_decay_tasks, 1.0)
        return self.rho + frac * (self.rho_final - self.rho)


@dataclass
class TaskRecord:
    """Everything logged about one task of the sequence."""

    h: int
    true_task: int
    mode: str
    queries: int
    eps_optimal: bool
    active_set_size: int
    delta_h: float
    o_col_err_max: float
    t_err_max: float
    degraded: bool = False
    tau: int | None = None
    true_in_active: bool = True
    post_queries: int = 0


@dataclass
class SequenceTrace:
    """Per-task history of one sequence plus end-of-run summaries."""

    records: list = field(default_factory=list)

    COLUMNS = tuple(f.name for f in fields(TaskRecord))

    def rows(self):
        """One tuple of ``COLUMNS`` values per task."""
        return [tuple(getattr(r, c) for c in self.COLUMNS) for r in self.records]

    def eps_optimal_fraction(self) -> float:
        if not self.records:
            return float("nan")
        return sum(r.eps_optimal for r in self.records) / len(self.records)

    def degraded_fraction(self) -> float:
        """Share of tasks whose attempted estimate raised, the last task's
        attempt included (module docstring)."""
        if not self.records:
            return 0.0
        return sum(r.degraded for r in self.records) / len(self.records)


def collect_post_samples(g: GenerativeModel, emp: EmpiricalModel, per_pair: int, rng):
    """Top every (s, a) count up to per_pair with extra uniform queries."""
    if per_pair < 1:
        raise ValueError("per_pair must be at least 1")
    emp.add_counts(*g.query_table(np.maximum(per_pair - emp.counts, 0), rng))
    return emp


def pre_eliminate(t_hat: np.ndarray, survived, estimate_obs: int,
                  cfg: SequentialConfig, obs_dim: int):
    """Candidate tasks for the next round, per the transition-probability rule.

    A task theta is eliminated when its predicted probability mass plus the
    estimation slack falls at or below eta; the top cfg.top_keep tasks by
    predicted mass are always retained.  Never returns an empty set.
    ``estimate_obs`` is the count n of observations the estimate of
    ``t_hat`` read, 3*floor(n/3); the slack is delta*k, plus
    rho_t*k*sqrt(log(9 k d m^2 / delta_prime) / n) when rho_t and n are
    positive, with d = ``obs_dim`` and m = ``cfg.num_tasks``.
    """
    t_hat = np.asarray(t_hat, dtype=float)
    k = t_hat.shape[0]
    survivors = sorted(set(survived))
    if not survivors:
        raise ValueError("the survived set must be non-empty")
    score = t_hat[:, survivors].sum(axis=1)
    slack = cfg.delta * k
    if cfg.rho_t > 0 and estimate_obs > 0:
        log_arg = 9.0 * k * obs_dim * cfg.num_tasks ** 2 / cfg.delta_prime
        slack += cfg.rho_t * k * math.sqrt(math.log(log_arg) / estimate_obs)
    keep = {theta for theta in range(k) if score[theta] + slack > cfg.eta}
    top = np.argsort(-score, kind="stable")[: cfg.top_keep]
    keep.update(int(t) for t in top)
    return keep


class Learner:
    """The agent of one sequence: it sees one oracle per task and its past.

    ``reference`` is the (d, k) matrix each spectral estimate is aligned
    to, so that its columns keep their task labels across rounds.
    ``run_sequential`` passes the true observation columns, the one channel
    from the hidden family into the learner.
    """

    def __init__(self, cfg: SequentialConfig, layout: ObservationLayout,
                 reward_support, gamma: float, reference: np.ndarray):
        self.cfg, self.layout, self.reference = cfg, layout, reference
        self.reward_support, self.gamma = reward_support, gamma
        self.observations: list = []
        self.estimate: HmmEstimate | None = None
        # The observation count the current estimate read and its error
        # bound; a stale estimate keeps both.
        self.estimate_obs, self.estimate_bound = 0, math.inf
        # The current estimate's model set, built at its first gated task.
        self.approx: ApproxModelSet | None = None
        self.active: set = set(range(reference.shape[1]))

    def solve(self, g: GenerativeModel, rng):
        """Solve the next task through its oracle ``g`` and learn from it.

        Returns the policy and the learner's columns of the task's
        ``TaskRecord``.  An estimate and its bound change together, so the
        model set built at the first gated task that reads an estimate
        carries the ``delta_h`` of every task that reuses it.
        """
        cfg, layout = self.cfg, self.layout
        k, h = self.reference.shape[1], len(self.observations)
        # Infinite until an estimate succeeds, which keeps the gate closed.
        delta_h = self.estimate_bound
        in_startup = h < cfg.startup_tasks
        tau = None
        if not in_startup and transfer_gate(delta_h, cfg.eps, self.gamma):
            if self.approx is None:
                self.approx = ApproxModelSet(unpack_models(
                    self.estimate, self.reward_support, self.gamma), delta_h)
            result = run_ptum(self.approx, g, cfg.eps, cfg.delta, cfg.budget, rng,
                              active=self.active)
            policy, emp, mode = result.policy, result.empirical, result.mode
            tau, survived = result.tau, result.survived
        else:
            policy, emp = uniform_pac_fallback(g, cfg.startup_per_pair, rng)
            mode = "startup" if in_startup else "fallback-gate"
            survived = set(range(k))
        solve_queries = g.queries_used

        collect_post_samples(g, emp, cfg.post_sample_per_pair, rng)
        self.observations.append(layout.vectorize(*emp.frequencies()))

        degraded = False
        # With fewer than k triples M2 has rank below k and whitening fails,
        # no solve reads an estimate made before the last start-up task, and
        # the moments read whole triples only.
        n, first = h + 1, max(3 * k, cfg.startup_tasks)
        if n == first or (n > first and n % 3 == 0):
            try:
                self.estimate = spectral_estimate(
                    self.observations, k, layout, restarts=cfg.rtp_restarts,
                    iters=cfg.rtp_iters, rng=rng, reference=self.reference)
            except (DegenerateMomentsError, DecompositionFailureError):
                degraded = True
            else:
                self.estimate_obs, self.approx = 3 * (n // 3), None
                self.estimate_bound = model_error_bound(
                    self.estimate_obs, cfg.rho_at(h), cfg.delta_prime,
                    layout.num_states, layout.num_actions, layout.num_rewards)
        elif n >= 3 * k:
            # Spend the skipped estimate's RTP draws, to keep the stream.
            rng.standard_normal((k, cfg.rtp_restarts, k))

        columns = dict(mode=mode, queries=solve_queries, degraded=degraded,
                       active_set_size=len(self.active), delta_h=delta_h,
                       tau=tau, post_queries=g.queries_used - solve_queries)
        if cfg.pre_elimination and self.estimate is not None:
            self.active = pre_eliminate(self.estimate.transition, survived,
                                        self.estimate_obs, cfg, layout.dim)
        else:
            self.active = set(range(k))
        return policy, columns


def run_sequential(cfg: SequentialConfig, family, chain: TaskChain, rng) -> SequenceTrace:
    """The evaluator of one sequence of ``cfg.num_tasks`` tasks.

    The hidden ``family`` and ``chain`` draw each task and grade the
    ``Learner``'s policy for it; the error columns are measured when the
    learner's estimate changes, so a stale estimate keeps its errors.  The
    true observation columns are the learner's alignment ``reference``.
    """
    family = list(family)
    k = len(family)
    if chain.num_tasks != k:
        raise ValueError("chain size must match the family size")
    base = family[0]
    layout = ObservationLayout(base.num_states, base.num_actions, base.num_rewards)
    true_values, _ = plan(family)
    o_true = np.stack([layout.vectorize(m.q, m.p) for m in family], axis=1)
    learner = Learner(cfg, layout, base.reward_support, base.gamma, o_true)

    trace = SequenceTrace()
    measured, errors = None, (math.nan, math.nan)
    for h in range(cfg.num_tasks):
        current_task = (sample_initial_task(chain, rng) if h == 0
                        else sample_next_task(chain, current_task, rng))
        truth = family[current_task]
        true_in_active = current_task in learner.active
        policy, columns = learner.solve(GenerativeModel(truth), rng)
        if learner.estimate is not measured:
            measured = learner.estimate
            errors = estimate_errors(measured, o_true, chain.transition)
        trace.records.append(TaskRecord(
            h=h, true_task=current_task, true_in_active=true_in_active,
            eps_optimal=is_eps_optimal(truth, true_values[current_task],
                                       policy, cfg.eps),
            o_col_err_max=errors[0], t_err_max=errors[1], **columns,
        ))
    return trace
