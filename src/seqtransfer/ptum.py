"""Active model identification with a generative model.

Implements the elimination loop (empirical model, Bernstein confidence
pruning, stopping check, information-index query selection), the uniform
sampling fallback, and the sample-complexity diagnostics.

The candidate models form a Delta-approximate set: one uncertainty level
``ApproxModelSet.delta`` bounds how far the true task's reward and
transition statistics may lie from those of the model that approximates
it.  That level decides the transfer gate, widens every confidence radius,
narrows the stop margin and clips the gaps of the information index.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .envs import GenerativeModel
from .mdp import VALUE_TOL, TabularMdp, plan, policy_values, value_iteration

INF = math.inf


def transfer_gate(delta_max: float, eps: float, gamma: float) -> bool:
    """True iff model uncertainty is small enough to enter transfer mode.

    The threshold is eps*(1-gamma)/(4*(1+gamma)); the comparison is strict,
    except that delta_max = 0 always passes so that exact models admit
    eps = 0 (exact identification).
    """
    if delta_max < 0 or eps < 0 or not 0.0 <= gamma < 1.0:
        raise ValueError("negative uncertainty/accuracy or invalid discount")
    if delta_max == 0.0:
        return True
    if eps == 0.0:
        raise ValueError("eps = 0 requires exact models (delta_max = 0)")
    return delta_max < eps * (1.0 - gamma) / (4.0 * (1.0 + gamma))


class ApproxModelSet:
    """Candidate models with their planning byproducts, all precomputed.

    Holds, for k models over shared (S, A, U, gamma), which ``mdp.plan``
    checks: optimal values and policies (one ``plan`` call for the set),
    the one-step advantage adv[i, j] = min_s Q*_j(s, pi_i(s)) - V*_j(s) of
    model i's optimal policy in model j (``check_stop``'s screen),
    reward/transition-value standard deviations, pairwise gap tables, and
    the uncertainty level ``delta``: the largest error, in any reward or
    transition mean or standard deviation, of the model that approximates
    the true task (0 for exact models).  It is the one source of these
    tables for the loop, the diagnostics and the CLI.  Its arrays are
    read-only, so one set can serve many runs; the information-index table
    and the tables' extremes are computed on first use.  Its only mutable
    state is three memos, of results fixed by the set and the key:
    ``select_query``'s pair per sorted active tuple, ``check_stop``'s
    stopping model (or None) per (sorted active tuple, eps) and
    ``_opening``'s two counts (where any compatibility condition, and
    where a transition condition, may first fail) per (log terms,
    budget).  Every run on the set, and every caller of those functions,
    reads them; an entry is what any call would compute, so concurrent
    runs at worst compute one twice.
    """

    def __init__(self, models, delta: float = 0.0):
        if len(models) < 1:
            raise ValueError("need at least one model")
        if not delta >= 0.0:
            raise ValueError("the uncertainty level must be non-negative")
        self.models = list(models)
        self.delta = float(delta)
        k = len(models)
        S, A = models[0].num_states, models[0].num_actions
        self.gamma = models[0].gamma

        self.values, self.policies = plan(self.models)
        self.rewards = np.stack([m.reward_means() for m in models])      # (k, S, A)
        self.sigma_r = np.stack([m.reward_stds() for m in models])       # (k, S, A)
        # pv[i, j] = p_i(s, a) . V*_j, used by the pruning conditions, and
        # sigma_p[i, j] = std of V*_j(S') under model i's transitions.
        self.pv = np.empty((k, k, S, A))
        self.sigma_p = np.empty((k, k, S, A))
        values = self.values[:, None, :, None]
        squares = values ** 2
        for i, m in enumerate(models):
            self.pv[i] = (m.p @ values)[..., 0]
            second = (m.p @ squares)[..., 0]
            self.sigma_p[i] = np.sqrt(np.maximum(second - self.pv[i] ** 2, 0.0))

        # Gap tables; the transition gap of (i, j) is referenced to V*_i:
        # trans_gap[i, j] = |p_i . V*_i - p_j . V*_i|.
        self.reward_gap = np.abs(self.rewards[:, None] - self.rewards[None, :])
        own = self.pv[np.arange(k), np.arange(k)]                       # (k, S, A)
        self.trans_gap = np.abs(own[:, None] - self.pv.transpose(1, 0, 2, 3))
        q_own = self.rewards + self.gamma * own                         # Q*_j, (k, S, A)
        self.adv = (q_own[:, np.arange(S), self.policies] - self.values[:, None]).min(axis=2).T
        for table in (self.values, self.policies, self.adv, self.rewards, self.sigma_r,
                      self.sigma_p, self.pv, self.reward_gap, self.trans_gap):
            table.setflags(write=False)
        self._queries: dict = {}
        self._stops: dict = {}
        self._openings: dict = {}

    @property
    def num_models(self) -> int:
        return len(self.models)

    @property
    def num_states(self) -> int:
        return self.models[0].num_states

    @property
    def num_actions(self) -> int:
        return self.models[0].num_actions

    @cached_property
    def info_table(self) -> np.ndarray:
        """``info_index_table(self)``, shape (k, k, S, A), read-only."""
        table = info_index_table(self)
        table.setflags(write=False)
        return table

    @cached_property
    def extremes(self) -> dict:
        """What bounds how far samples can stray from the model tables
        (read by ``_may_fail``): the (low, high) of ``rewards``, ``sigma_r``
        and ``sigma_p``; ``pv_dev``, the widest gap between an entry of
        ``pv[:, j]`` and one of V*_j; ``v_range``, the widest range of a
        V*_j; and ``v_scale``, the largest magnitude in ``values``, ``pv``
        and ``sigma_p`` (also the value scale of the stop screen's tol)."""
        v_lo, v_hi = self.values.min(axis=1), self.values.max(axis=1)
        pv_lo, pv_hi = self.pv.min(axis=(0, 2, 3)), self.pv.max(axis=(0, 2, 3))
        return dict(
            rewards=(float(self.rewards.min()), float(self.rewards.max())),
            sigma_r=(float(self.sigma_r.min()), float(self.sigma_r.max())),
            sigma_p=(float(self.sigma_p.min()), float(self.sigma_p.max())),
            pv_dev=float(max((v_hi - pv_lo).max(), (pv_hi - v_lo).max())),
            v_range=float((v_hi - v_lo).max()),
            v_scale=float(max(np.abs(self.values).max(), np.abs(self.pv).max(),
                              self.sigma_p.max())),
        )

    def sup_gaps(self, star: int):
        """Per model j, the sup-norm reward and transition gaps to model
        ``star``, the transition gap referenced to V*_star: two (k,) arrays."""
        return (self.reward_gap[star].max(axis=(1, 2)),
                self.trans_gap[star].max(axis=(1, 2)))

    def min_gap(self, star: int) -> float:
        """Minimum over the models other than ``star`` of the larger of
        their two sup-norm gaps to it."""
        if self.num_models < 2:
            raise ValueError("need at least 2 models")
        r_dev, p_dev = self.sup_gaps(star)
        gap = float(np.delete(np.maximum(r_dev, p_dev), star).min())
        if gap == 0.0:
            warnings.warn("two identical models in the set; minimum gap is 0", stacklevel=2)
        return gap


def reward_stats(reward_counts, n, support):
    """Empirical reward mean and std (N-1 denominator; 0 when N <= 1).

    ``reward_counts`` (..., U) counts the draws of each ``support`` value
    and ``n`` (...) is their total.  Leading axes stack count snapshots,
    and each snapshot gets, bit for bit, what it alone would get.  The sum
    of squares is a sum of non-negative terms, exactly 0 when N <= 1 (every
    draw, if any, is the mean), so the std needs no clip and no mask.
    """
    n = np.asarray(n)
    counts = np.asarray(reward_counts)[..., None, :]
    mean = (counts @ support[:, None])[..., 0, 0] / np.maximum(n, 1)
    ss = (counts @ ((support - mean[..., None]) ** 2)[..., None])[..., 0, 0]
    return mean, np.sqrt(ss / np.maximum(n - 1, 1))


def transition_value_stats(next_counts, n, values):
    """Empirical means p_hat . v and stds (N-1 denominator; 0 when N <= 1)
    of v(S'), for each row v of the (k, S) stack ``values``.

    ``next_counts`` (..., S) counts the draws of each next state and ``n``
    (...) is their total.  Leading axes stack count snapshots, and each
    snapshot gets, bit for bit, what it alone would get.  Both results
    have shape (..., k).  As in ``reward_stats``, the variance is a sum of
    non-negative terms, exactly 0 when N <= 1.
    """
    n = np.asarray(n)
    p_hat = (next_counts / np.maximum(n, 1)[..., None])[..., :, None]   # (..., S, 1)
    mean = values @ p_hat                                             # (..., k, 1)
    var = ((values - mean) ** 2 @ p_hat)[..., 0] * n[..., None] \
        / np.maximum(n - 1, 1)[..., None]
    return mean[..., 0], np.sqrt(var)


class EmpiricalModel:
    """Per-(s, a) sufficient statistics collected from generative queries:
    count tables, or one pair's rows, added by ``add_counts``."""

    def __init__(self, num_states: int, num_actions: int, reward_support):
        S, A = num_states, num_actions
        self.reward_support = np.asarray(reward_support, dtype=float)
        U = self.reward_support.shape[0]
        self.counts = np.zeros((S, A), dtype=np.int64)
        self.reward_counts = np.zeros((S, A, U), dtype=np.int64)
        self.next_counts = np.zeros((S, A, S), dtype=np.int64)

    def add_counts(self, next_counts, reward_counts, at=()) -> None:
        """Add next-state and reward counts at the pairs ``at`` indexes: the
        whole (S, A, S) and (S, A, U) tables by default, or one pair's (S,)
        and (U,) rows with ``at=(s, a)``."""
        next_counts, reward_counts = np.asarray(next_counts), np.asarray(reward_counts)
        total = next_counts.sum(axis=-1)
        if not np.array_equal(total, reward_counts.sum(axis=-1)):
            raise ValueError("inconsistent batch counts")
        self.counts[at] += total
        self.next_counts[at] += next_counts
        self.reward_counts[at] += reward_counts

    def snapshots(self, s: int, a: int, next_states, reward_indices, start: int = 0):
        """The counts at (s, a) after each draw of a run of draws there, from
        draw ``start`` on, stacked: (n (B,), reward_counts (B, U),
        next_counts (B, S)) with B = len(next_states) - start.  The draws
        before ``start`` are summed once, not row by row; one row (``start``
        at the last draw) is the stored counts plus one bincount of the
        run, with no per-draw table."""
        S, U = self.next_counts.shape[2], self.reward_support.size
        n = self.counts[s, a] + np.arange(start, len(next_states)) + 1
        if n.size == 1:
            return (n, (self.reward_counts[s, a] + np.bincount(reward_indices, minlength=U))[None],
                    (self.next_counts[s, a] + np.bincount(next_states, minlength=S))[None])
        return (n,
                self.reward_counts[s, a] + np.bincount(reward_indices[:start], minlength=U)
                + (reward_indices[start:, None] == np.arange(U)).cumsum(axis=0),
                self.next_counts[s, a] + np.bincount(next_states[:start], minlength=S)
                + (next_states[start:, None] == np.arange(S)).cumsum(axis=0))

    def frequencies(self):
        """The empirical reward and transition distributions, (q_hat
        (S, A, U), p_hat (S, A, S)): each count over N; every (s, a) needs
        N >= 1."""
        if self.counts.min() < 1:
            raise ValueError("every state-action pair needs at least one sample")
        n = self.counts[:, :, None]
        return self.reward_counts / n, self.next_counts / n

    def to_mdp(self, gamma: float) -> TabularMdp:
        """The empirical MDP of ``frequencies``."""
        q, p = self.frequencies()
        return TabularMdp(p=p, reward_support=self.reward_support, q=q, gamma=gamma)


def _log_terms(approx: ApproxModelSet, budget: int, delta: float):
    """The log terms (L for the means, L' for the standard deviations) of
    every confidence radius of a run with ``budget`` queries and
    confidence ``delta``."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    base = (approx.num_states * approx.num_actions * max(budget, 1)
            * (approx.num_models + 1))
    l_mean = math.log(8.0 * base / delta)
    l_std = math.log(4.0 * base / delta)
    return l_mean, l_std


def _data_free_parts(n1, gamma: float, logs):
    """The parts of a mean and a std radius that read no sample statistic,
    for N - 1 = ``n1``: 7L/(3(N-1)(1-gamma)) and sqrt(2L'/(N-1))/(1-gamma).
    The transition radii take the model set's gamma; the reward radii take
    gamma = 0, where the factor 1 - gamma = 1 leaves each float as it is.
    ``reward_radii`` and ``transition_radii`` add them to the data terms
    and ``_may_fail`` compares them with the widest deviations, so all
    three see the same floats."""
    l_mean, l_std = logs
    return (7.0 * l_mean / (3.0 * n1 * (1.0 - gamma)),
            np.sqrt(2.0 * l_std / n1) / (1.0 - gamma))


def _radii(n, std, gamma: float, approx: ApproxModelSet, logs):
    """A mean radius, sqrt(2 std^2 L / N) + its data-free part + delta, and
    a std radius, its data-free part + delta (``_data_free_parts`` at
    ``gamma``); both infinite where N <= 1, where INF stands in for delta
    (every other term is finite).  ``std`` has the shape of ``n`` or one
    more, trailing axis, which the mean radius keeps."""
    l_mean, _ = logs
    part_mean, part_std = _data_free_parts(np.maximum(n - 1, 1), gamma, logs)
    level = np.where(n > 1, approx.delta, INF)
    row = (..., *(None,) * (np.ndim(std) - n.ndim))   # lines n up with std
    return (np.sqrt(2.0 * std * std * l_mean / np.maximum(n, 1)[row]) + part_mean[row]
            + level[row], part_std + level)


def reward_radii(n, sr, approx: ApproxModelSet, logs):
    """The reward and reward-std Bernstein radii after N = ``n`` samples at
    a pair, (c_r, c_sr); both infinite where N <= 1.

    ``n`` may be a stack of counts, and ``sr`` is the empirical reward std
    (shape of ``n``).  ``logs`` is ``_log_terms(approx, budget, delta)``.
    Each radius is a data term (none for the std), plus its data-free part
    (``_data_free_parts`` at gamma = 0), plus the uncertainty level.
    """
    return _radii(np.asarray(n), sr, 0.0, approx, logs)


def transition_radii(n, sp, approx: ApproxModelSet, logs):
    """The transition and transition-std Bernstein radii after N = ``n``
    samples at a pair, (c_p, c_sp); both infinite where N <= 1.

    ``sp`` is the empirical std of V(S') for the optimal value function of
    the comparison model (shape of ``n``), or for a stack of k of them (one
    more, trailing axis: one transition radius per row; the std radius
    keeps the shape of ``n``).  Otherwise as ``reward_radii``, with the
    model set's gamma in ``_data_free_parts``.
    """
    return _radii(np.asarray(n), sp, approx.gamma, approx, logs)


def _may_fail(n, support, approx: ApproxModelSet, logs):
    """Where, for a stack of counts ``n`` at one pair, some samples could
    make some model break a compatibility condition; False where none can.
    Two boolean arrays of the shape of ``n``: the reward half (the reward
    mean and std conditions) and the transition half (the mean and std of
    V*_j(S')).  Each half is a certificate alone: where it is False, no
    samples make its two conditions fail.

    Each radius of ``reward_radii`` and ``transition_radii`` is at least
    its data-free part (``_data_free_parts``) plus the uncertainty level:
    the dropped sqrt term is >= 0 and rounding is monotone.  A condition
    cannot fail while that sum is at least the widest deviation the
    samples could show against the model tables' extremes
    (``approx.extremes``): for the reward mean, the range of ``support``
    and ``rewards`` together; for the transition means, ``pv_dev``; for an
    N-1 sample std, half the range of ``support`` or of a V*_j times
    sqrt(N/(N-1)) (Popoviciu), against ``sigma_r`` or ``sigma_p``.  Each
    deviation is widened by 1e-9 of the largest magnitude involved, for
    round-off.  The transition half does not read ``support``.  With
    rewards and ``support`` in [0, 1], a std condition cannot open before
    the mean condition of its half does; the std conditions stay so that
    soundness does not rest on that.
    """
    n = np.asarray(n)
    delta = approx.delta
    ext = approx.extremes
    (r_lo, r_hi), (sr_lo, sr_hi) = ext["rewards"], ext["sigma_r"]
    sp_lo, sp_hi = ext["sigma_p"]
    s_lo, s_hi = float(support.min()), float(support.max())
    tol_r = 1e-9 * max(abs(s_lo), abs(s_hi), abs(r_lo), abs(r_hi), sr_hi)
    tol_p = 1e-9 * ext["v_scale"]
    n1 = np.maximum(n - 1, 1)
    half_spread = np.sqrt(n / n1) / 2.0
    (part_r, part_sr), (part_p, part_sp) = (_data_free_parts(n1, 0.0, logs),
                                            _data_free_parts(n1, approx.gamma, logs))
    valid = n > 1
    reward = valid & (
        (part_r + delta < max(s_hi - r_lo, r_hi - s_lo) + tol_r)
        | (part_sr + delta
           < np.maximum((s_hi - s_lo) * half_spread - sr_lo, sr_hi) + tol_r))
    transition = valid & (
        (part_p + delta < ext["pv_dev"] + tol_p)
        | (part_sp + delta
           < np.maximum(ext["v_range"] * half_spread - sp_lo, sp_hi) + tol_p))
    return reward, transition


def _opening(approx: ApproxModelSet, logs, n: int):
    """The two opening counts of a run with log terms ``logs`` and budget
    ``n``: the first count N <= ``n`` at which either half of
    ``_may_fail`` holds at a pair, and the first at which its transition
    half does; n + 1 where none does.  Below the second, no transition
    condition can fail.  ``_may_fail`` depends on the count alone, so it
    is searched once, over chunks of counts that double from
    ``_RUN_BLOCK`` until the transition half holds, and the pair is
    memoized on ``approx`` per (``logs``, ``n``)."""
    key = (logs, n)
    if key not in approx._openings:
        reward = transition = n + 1
        start, size = 0, _RUN_BLOCK
        while start <= n and transition > n:
            counts = np.arange(start, min(start + size, n + 1))
            may_r, may_p = _may_fail(counts, approx.models[0].reward_support, approx, logs)
            if reward > n and may_r.any():
                reward = start + int(np.argmax(may_r))
            if may_p.any():
                transition = start + int(np.argmax(may_p))
            start, size = start + size, 2 * size
        approx._openings[key] = (min(reward, transition), transition)
    return approx._openings[key]


def compatibility_failures(idx, s, a, n, reward_counts, next_counts, support,
                           approx: ApproxModelSet, logs, transition_opening: int):
    """Which of the models ``idx`` break a compatibility condition at
    (s, a), for each of a stack of count snapshots there.

    The snapshots are ``n`` (B,), ``reward_counts`` (B, U) over
    ``support`` and ``next_counts`` (B, S); the result is a (B, len(idx))
    boolean array, False wherever N <= 1.  The transition conditions
    quantify over every reference model j of the full set, not just
    ``idx``.  The reward conditions are tested on every snapshot, from the
    reward statistics and the reward radii alone; the transition
    statistics, radii and conditions only on the snapshots with N >=
    ``transition_opening``: a count below which the transition half of
    ``_may_fail`` is False (``_opening``'s second count), or 0 to test
    every snapshot.  So the result is that of all four conditions on every
    snapshot.
    """
    r_mean, sr = reward_stats(reward_counts, n, support)                  # (B,)
    c_r, c_sr = reward_radii(n, sr, approx, logs)
    fails = ((np.abs(r_mean[:, None] - approx.rewards[idx, s, a]) > c_r[:, None])
             | (np.abs(sr[:, None] - approx.sigma_r[idx, s, a]) > c_sr[:, None]))
    rows = n >= transition_opening
    if rows.any():
        n, next_counts = n[rows], next_counts[rows]
        pv_hat, sp = transition_value_stats(next_counts, n, approx.values)  # (B', k)
        c_p, c_sp = transition_radii(n, sp, approx, logs)
        fails[rows] |= (
            np.any(np.abs(pv_hat[:, None] - approx.pv[idx, :, s, a]) > c_p[:, None],
                   axis=2)
            | np.any(np.abs(sp[:, None] - approx.sigma_p[idx, :, s, a])
                     > c_sp[:, None, None], axis=2))
    return fails


def prune_confidence_set(active, emp: EmpiricalModel, approx: ApproxModelSet,
                         logs, pairs=None):
    """Models from ``active`` still compatible with the empirical MDP.

    At each pair, every active model is tested at once against all four
    compatibility conditions (``compatibility_failures`` from count 0),
    with the log terms ``logs`` of ``_log_terms``.  ``pairs``
    optionally restricts the (s, a) pairs re-checked; conditions at
    unvisited pairs hold vacuously, and eliminations are permanent, so
    callers updating one pair per step may pass just that pair.
    """
    if not active:
        raise ValueError("active set must be non-empty")
    if pairs is None:
        pairs = [tuple(x) for x in np.argwhere(emp.counts > 1)]
    idx = np.array(sorted(active))
    keep = np.ones(idx.size, dtype=bool)
    for s, a in pairs:
        keep &= ~compatibility_failures(
            idx, s, a, emp.counts[s, a][None], emp.reward_counts[s, a][None],
            emp.next_counts[s, a][None], emp.reward_support, approx, logs, 0)[0]
    return set(idx[keep].tolist())


def stop_margin(eps: float, delta_max: float, gamma: float) -> float:
    """Slack of the stopping condition: eps - 2*delta*(1+gamma)/(1-gamma)."""
    margin = eps - 2.0 * delta_max * (1.0 + gamma) / (1.0 - gamma)
    if margin < 0:
        raise ValueError("stopping margin negative; the transfer gate should have failed")
    return margin


def _screened_out(idx, approx: ApproxModelSet, margin: float):
    """The pairs (theta, theta' != theta) of ``idx`` that ``check_stop`` rules out."""
    rel = 64.0 * (approx.num_states + 2) * np.finfo(float).eps * (1.0 + approx.gamma)
    tol = VALUE_TOL + rel / (1.0 - approx.gamma) * (1.0 + approx.extremes["v_scale"] + margin)
    return (approx.adv[idx][:, idx] < -margin - tol) & ~np.eye(len(idx), dtype=bool)


def check_stop(active, approx: ApproxModelSet, eps: float):
    """Lowest-index active model whose optimal policy is good enough for
    every active model, or None.

    Returns (theta, policy) for the lowest theta whose policy is worth at
    least V*_theta' - margin at every state of every other active theta'
    (one ``policy_values`` call), unless a screen rules theta out first: an
    active theta' with adv[theta, theta'] < -margin - tol.  As V^pi(s) <=
    Q*(s, pi(s)), the computed V^pi_theta in theta' exceeds adv + V*_theta'
    by at most gamma |V* - V| (``VALUE_TOL``; round-off of the tie rule and
    solve at a repeated policy), LU round-off c*S*u*(1+gamma)/(1-gamma)
    max|V| (u machine epsilon) and less for Q and the comparisons: in all at
    most tol = VALUE_TOL + 64(S+2)u(1+gamma)/(1-gamma)(1 + v_scale + margin)
    (``extremes``; v_scale >= max|V*|).  So the result is the exhaustive test's.

    The stopping model is memoized on ``approx`` per (sorted active tuple,
    eps); each call hands back a fresh, writable copy of its policy.
    """
    if not active:
        raise ValueError("active set must be non-empty")
    idx = sorted(active)
    key = (tuple(idx), eps)
    if key not in approx._stops:
        approx._stops[key] = _stopping_model(idx, approx, eps)
    theta = approx._stops[key]
    return None if theta is None else (theta, approx.policies[theta].copy())


def _stopping_model(idx, approx: ApproxModelSet, eps: float):
    """``check_stop``'s model for the sorted active list ``idx``, or None."""
    margin = stop_margin(eps, approx.delta, approx.gamma)
    for theta, out in zip(idx, _screened_out(idx, approx, margin).any(axis=1)):
        others = [j for j in idx if j != theta]
        if not out and (not others or np.all(policy_values(
                [approx.models[j] for j in others], approx.policies[theta])
                >= approx.values[others] - margin)):
            return theta
    return None


def info_index_table(approx: ApproxModelSet) -> np.ndarray:
    """Information for discriminating model i from model j at (s, a), for
    every ordered pair of models and every (s, a): shape (k, k, S, A).

    The gaps clipped by 8 delta, [gap - 8*delta]_+, over model i's
    standard deviations: the larger of min((dr/sigma_r)^2, dr) and
    min((dp/sigma_p)^2, (1-gamma) dp), each 0 where its clipped gap is 0;
    a zero standard deviation with a positive gap gives the linear term.
    """
    gamma = approx.gamma
    dr = np.maximum(approx.reward_gap - 8.0 * approx.delta, 0.0)
    dp = np.maximum(approx.trans_gap - 8.0 * approx.delta, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio_r = np.where(approx.sigma_r[:, None] > 0, dr / approx.sigma_r[:, None], INF) ** 2
        sp_own = approx.sigma_p[np.arange(approx.num_models), np.arange(approx.num_models)]
        ratio_p = np.where(sp_own[:, None] > 0, dp / sp_own[:, None], INF) ** 2
    psi_r = np.where(dr > 0, np.minimum(ratio_r, dr), 0.0)
    psi_p = np.where(dp > 0, np.minimum(ratio_p, (1.0 - gamma) * dp), 0.0)
    return np.maximum(psi_r, psi_p)


def select_query(active, approx: ApproxModelSet):
    """The (s, a) maximizing the pairwise information over active models.

    Ties break toward the lowest flat index s * A + a.  The pair is
    memoized on ``approx`` per sorted active tuple.
    """
    if not active:
        raise ValueError("active set must be non-empty")
    key = tuple(sorted(active))
    if key not in approx._queries:
        psi = approx.info_table[np.ix_(key, key)].max(axis=(0, 1))
        approx._queries[key] = divmod(int(np.argmax(psi)), approx.num_actions)
    return approx._queries[key]


@dataclass
class PtumResult:
    """Outcome of one identification run.

    ``survived_trace`` is the initial candidate set, then the set left by
    each elimination that left one, each sorted.  A segment is the queries
    made from one of these sets up to the next elimination, all at the
    pair ``select_query`` picks from it; ``queried`` has one (s, a, count)
    per segment that queried, and the counts sum to ``tau``.  ``survived``
    is the last set, after ``fallback-eliminated`` the one it emptied.
    """

    policy: np.ndarray
    tau: int
    mode: str  # transfer-stopped | fallback-gate | fallback-budget | fallback-eliminated
    chosen_model: int | None
    survived_trace: list
    queried: list
    queries_total: int
    empirical: EmpiricalModel

    @property
    def survived(self) -> set:
        return set(self.survived_trace[-1])


def default_fallback_per_pair(eps: float, delta: float, S: int, A: int, gamma: float):
    """Theory-flavored per-pair budget for the uniform fallback: an int, or
    ``INF`` where it is unbounded (eps = 0, or so small the count
    overflows), so that ``run_ptum``'s cap decides."""
    if not eps >= 0:
        raise ValueError("the uniform fallback needs eps >= 0")
    scale = eps ** 2 * (1.0 - gamma) ** 3
    count = 2.0 * math.log(4.0 * S * A / delta) / scale if scale > 0 else INF
    return count if count == INF else math.ceil(count)


def uniform_pac_fallback(g: GenerativeModel, per_pair_budget: int, rng,
                         emp: EmpiricalModel | None = None):
    """Query every (s, a) a fixed number of times and plan on the empirical
    MDP.  Returns (policy, empirical_model)."""
    if per_pair_budget < 1:
        raise ValueError("per-pair budget must be at least 1")
    if emp is None:
        emp = EmpiricalModel(g.num_states, g.num_actions, g.reward_support)
    need = np.full((g.num_states, g.num_actions), per_pair_budget)
    emp.add_counts(*g.query_table(need, rng))
    _, policy = value_iteration(emp.to_mdp(g.gamma))
    return policy, emp


# A run of queries at a pair below the opening count draws up to it, and
# any other run draws _RUN_BLOCK; no run draws more than _RUN_LOOKAHEAD, so
# that one draw does not grow with the budget.  The draws after an
# elimination are handed back, so the two set only the work thrown away,
# not the results.
_RUN_BLOCK = 64
_RUN_LOOKAHEAD = 4096


def run_ptum(approx: ApproxModelSet, g: GenerativeModel, eps: float, delta: float,
             n: int, rng, active: set | None = None) -> PtumResult:
    """Full identification loop: gate, elimination, stop, query selection.

    ``n`` bounds the queries of the elimination phase.  ``active`` restricts
    the initial candidate set (indices into the model set); pruning still
    quantifies over the full set.  The result's ``mode`` is
    ``transfer-stopped`` when a candidate's policy serves every survivor;
    otherwise the uniform fallback provides the policy, after a failed
    gate (``fallback-gate``), once the n queries are spent
    (``fallback-budget``), or once every candidate is eliminated
    (``fallback-eliminated``).  The fallback queries every pair
    min(theory count, max(n // (S*A), 1)) times, on top of what
    elimination spent, so a run may charge about 2n queries in all.  The
    oracle ``g`` must share the model set's states, actions, reward
    support and discount.

    Each run of queries at the chosen pair is drawn at once: up to the
    opening count (``_opening``'s first count, where ``_may_fail`` first
    lets some model fail) while the pair is below it, else ``_RUN_BLOCK``
    of them, at most ``_RUN_LOOKAHEAD`` and within the budget.  A run is
    pruned after every draw in one stacked pass (``compatibility_failures``
    on ``EmpiricalModel.snapshots``) from the opening count on, or at its
    last draw alone if it ends below; the prunes before it keep the whole
    set, as the pass would.  The pass tests the transition conditions only
    from ``_opening``'s second count on, where their half of ``_may_fail``
    first holds.  The snapshot of the last draw kept becomes the pair's
    counts, so each draw is counted once.  A segment that eliminates at the
    opening count makes one draw and a one-snapshot pass, one bincount of
    the draw, and hands nothing back; on two-rooms that pass tests the
    reward conditions alone.  ``check_stop``, ``select_query`` and
    ``_opening`` read the memos on ``approx``.
    """
    if n < 0:
        raise ValueError("budget must be non-negative")
    if (g.num_states, g.num_actions, g.gamma) != (
            approx.num_states, approx.num_actions, approx.gamma) \
            or not np.array_equal(g.reward_support, approx.models[0].reward_support):
        raise ValueError("the oracle's states, actions, reward support or discount "
                         "differ from the model set's")
    k = approx.num_models
    S, A = approx.num_states, approx.num_actions
    active_set = set(range(k)) if active is None else set(active)
    if not active_set or not active_set <= set(range(k)):
        raise ValueError(f"the initial active set must be a non-empty subset of [0, {k})")

    logs = _log_terms(approx, n, delta)
    emp = EmpiricalModel(S, A, g.reward_support)
    trace, queried, tau = [sorted(active_set)], [], 0
    theta = None
    mode = None if transfer_gate(approx.delta, eps, approx.gamma) else "fallback-gate"
    opening, transition_opening = (None, None) if mode else _opening(approx, logs, n)

    while mode is None:
        # The stop test and the query choice depend only on the active set.
        stopped = check_stop(active_set, approx, eps)
        if stopped is not None:
            mode, (theta, policy) = "transfer-stopped", stopped
            break
        s, a = select_query(active_set, approx)
        idx = np.array(sorted(active_set))

        def first_elimination(next_states, reward_indices):
            """How many of the drawn queries to keep: up to the first prune
            that eliminates, else all.  The pass starts at the opening
            count, or at the last draw if the run ends before it; every
            prune before it keeps the whole set.  It tests the transition
            conditions from the transition opening count on.  The kept
            draws' last snapshot and its prune go to ``kept``."""
            nonlocal kept
            f = min(max(opening - int(emp.counts[s, a]) - 1, 0), len(next_states) - 1)
            snaps = emp.snapshots(s, a, next_states, reward_indices, f)
            fails = compatibility_failures(idx, s, a, *snaps, emp.reward_support, approx,
                                           logs, transition_opening)
            hit = fails.any(axis=1)
            row = int(hit.argmax()) if hit.any() else hit.size - 1
            kept = [x[row] for x in (*snaps, fails, hit)]
            return f + row + 1

        # Query (s, a) until a prune changes the active set.
        eliminated, start, kept = False, tau, None
        while not eliminated and tau < n:
            count = int(emp.counts[s, a])
            run = opening - count if count < opening else _RUN_BLOCK
            next_states, _ = g.query_many(
                s, a, min(run, _RUN_LOOKAHEAD, n - tau), rng, keep=first_elimination)
            emp.counts[s, a], emp.reward_counts[s, a], emp.next_counts[s, a], fails, \
                eliminated = kept
            tau += len(next_states)
        if tau > start:
            queried.append((s, a, tau - start))
        if not eliminated:
            mode = "fallback-budget"
            break
        active_set = set(idx[~fails].tolist())
        if not active_set:
            mode = "fallback-eliminated"
            break
        trace.append(sorted(active_set))

    if theta is None:
        # The theory count is often far past any practical budget, and
        # unbounded at eps = 0; cap it at n spread over the pairs,
        # whatever elimination spent.
        per_pair = min(default_fallback_per_pair(eps, delta, S, A, approx.gamma),
                       max(n // (S * A), 1))
        policy, emp = uniform_pac_fallback(g, per_pair, rng, emp)
    return PtumResult(policy=policy, tau=tau, mode=mode, chosen_model=theta,
                      survived_trace=trace, queried=queried,
                      queries_total=g.queries_used, empirical=emp)


def theta_eps_and_bound(approx: ApproxModelSet, star: int, eps: float, delta: float,
                        n: int):
    """The set of models that must be eliminated before stopping, and the
    worst-case query bound for doing so.  Diagnostic only.  Rejects a
    ``star``, ``eps``, ``delta`` or ``n`` that ``run_ptum`` cannot use, and
    a model set whose uncertainty level closes ``transfer_gate`` at ``eps``,
    where ``run_ptum`` falls back without eliminating."""
    k = approx.num_models
    if not 0 <= star < k:
        raise ValueError(f"the true task must be in [0, {k}), got {star}")
    if not eps >= 0:
        raise ValueError(f"eps must be non-negative, got {eps}")
    if n < 0:
        raise ValueError("budget must be non-negative")
    log_term, _ = _log_terms(approx, n, delta)
    gamma = approx.gamma
    if not transfer_gate(approx.delta, eps, gamma):
        raise ValueError("transfer gate fails for these parameters")
    kappa = (1.0 - gamma) * eps / 4.0 - approx.delta * (1.0 + gamma) / 2.0
    S, A = approx.num_states, approx.num_actions
    r_dev, p_dev = approx.sup_gaps(star)
    p_thresh = kappa / gamma if gamma > 0 else INF
    theta_eps = {j for j in range(k)
                 if j != star and (r_dev[j] > kappa or p_dev[j] > p_thresh)}
    if not theta_eps:
        return theta_eps, 0.0
    worst = approx.info_table[star, sorted(theta_eps)].min(axis=0)  # (S, A) min over theta
    denom = float(worst.max())
    if denom <= 0:
        return theta_eps, INF
    bound = 128.0 * min(S * A, k) * log_term / denom
    return theta_eps, bound
