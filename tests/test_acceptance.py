"""Acceptance suite: twelve end-to-end criteria at their stated tolerances.

Each criterion prints a single "CRITERION n: PASS/FAIL" line (visible with
pytest -s or in failure reports).  Sweeps draw their random streams from
counter-based generators keyed by (base_seed, run_index), so criterion 12
can rerun any slice of any sweep and compare the CSV bytes.
"""
import math
import time

import numpy as np
import pytest
from test_mdp import simulation_gap_bound

from seqtransfer.envs import (
    GenerativeModel,
    ObjectworldSpec,
    build_objectworld_family,
    multi_goal_family,
    paper_objectworld_duplicates,
    sample_initial_task,
    sample_next_task,
    successor_chain,
    two_rooms_family,
)
from seqtransfer.harness import (
    aggregate,
    format_csv,
    random_hmm_family,
    run_rng,
    simulate_hmm_observations,
)
from seqtransfer.mdp import TabularMdp, policy_evaluation, value_iteration
from seqtransfer.ptum import (
    ApproxModelSet,
    default_fallback_per_pair,
    run_ptum,
    theta_eps_and_bound,
)
from seqtransfer.sequential import SequentialConfig, pre_eliminate, run_sequential
from seqtransfer.spectral import ObservationLayout, rtp_decompose, spectral_estimate

SEED_TWO_ROOMS = 101
SEED_MULTI_GOAL = 505
SEED_EPS_SWEEP = 606
SEED_SPECTRAL = 707
SEED_RTP = 808
SEED_PRE_ELIM = 909
SEED_SEQ_STATIC = 1010
SEED_SIM_LEMMA = 1111


def report(criterion: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"CRITERION {criterion}: {status}{suffix}")
    assert ok, f"criterion {criterion} failed: {detail}"


# ---------------------------------------------------------------------------
# Criteria 1-4: two-rooms identification sweep (12 tasks, exact models).
# ---------------------------------------------------------------------------

TWO_ROOMS_EPS = 0.1
TWO_ROOMS_DELTA = 0.01
TWO_ROOMS_BUDGET = 100_000


@pytest.fixture(scope="module")
def two_rooms_setup():
    family = two_rooms_family()
    values = [value_iteration(m)[0] for m in family]
    approx = ApproxModelSet(family)
    _, bound = theta_eps_and_bound(
        approx, 0, TWO_ROOMS_EPS, TWO_ROOMS_DELTA, TWO_ROOMS_BUDGET
    )
    return family, values, approx, bound


def two_rooms_run(i, setup):
    family, values, approx, _ = setup
    rng = run_rng(SEED_TWO_ROOMS, i)
    g = GenerativeModel(family[0])
    start = time.perf_counter()
    res = run_ptum(approx, g, TWO_ROOMS_EPS, TWO_ROOMS_DELTA, TWO_ROOMS_BUDGET, rng)
    elapsed = time.perf_counter() - start
    v_pi = policy_evaluation(family[0], res.policy)
    eps_opt = bool(np.max(values[0] - v_pi) <= TWO_ROOMS_EPS + 1e-6)
    star_survived = all(0 in step for step in res.survived_trace)
    return (i, res.tau, res.mode, int(eps_opt), int(star_survived),
            res.queries_total), elapsed


TWO_ROOMS_HEADER = ["run", "tau", "mode", "eps_optimal", "star_survived",
                    "queries_total"]


@pytest.fixture(scope="module")
def two_rooms_sweep(two_rooms_setup):
    rows, times = [], []
    for i in range(100):
        row, elapsed = two_rooms_run(i, two_rooms_setup)
        rows.append(row)
        times.append(elapsed)
    return format_csv(TWO_ROOMS_HEADER, rows), rows, times


def test_criterion_01_ptum_correctness(two_rooms_sweep):
    _, rows, times = two_rooms_sweep
    good = sum(r[3] for r in rows)
    slow = max(times)
    report(1, good >= 99 and slow < 5.0,
           f"eps-optimal {good}/100, slowest run {slow:.2f}s")


def test_criterion_02_coverage(two_rooms_sweep):
    _, rows, _ = two_rooms_sweep
    survived = sum(r[4] for r in rows)
    report(2, survived >= 99, f"true task survived in {survived}/100 runs")


def test_criterion_03_bound_consistency(two_rooms_sweep, two_rooms_setup):
    _, rows, _ = two_rooms_sweep
    bound = two_rooms_setup[3]
    checked = [r for r in rows if r[4]]
    worst = max(r[1] for r in checked)
    report(3, math.isfinite(bound) and worst <= bound,
           f"max tau {worst} vs bound {bound:.0f} over {len(checked)} runs")


def test_criterion_04_transfer_benefit(two_rooms_sweep, two_rooms_setup):
    _, rows, _ = two_rooms_sweep
    family = two_rooms_setup[0]
    S, A = family[0].num_states, family[0].num_actions
    # The uniform fallback at equal (eps, delta) spends per_pair queries on
    # every pair; the implementation caps the theory count at the budget.
    per_pair = min(
        default_fallback_per_pair(TWO_ROOMS_EPS, TWO_ROOMS_DELTA, S, A,
                                  family[0].gamma),
        max(TWO_ROOMS_BUDGET // (S * A), 1),
    )
    uniform_total = per_pair * S * A
    mean_tau = float(np.mean([r[1] for r in rows]))
    report(4, mean_tau < 0.1 * uniform_total,
           f"mean tau {mean_tau:.0f} vs uniform total {uniform_total}")


# ---------------------------------------------------------------------------
# Criterion 5: informative queries on the multi-goal family.
# ---------------------------------------------------------------------------

MULTI_GOAL_EPS = 1.0
MULTI_GOAL_DELTA = 0.01
MULTI_GOAL_BUDGET = 100_000
MULTI_GOAL_HEADER = ["run", "tau", "informative", "eps_optimal"]


@pytest.fixture(scope="module")
def multi_goal_setup():
    family = multi_goal_family()
    values = [value_iteration(m)[0] for m in family]
    approx = ApproxModelSet(family)
    rewards = np.stack([m.reward_means() for m in family])  # (k, S, A)
    return family, values, approx, rewards


def multi_goal_run(i, setup):
    family, values, approx, rewards = setup
    rng = run_rng(SEED_MULTI_GOAL, i)
    g = GenerativeModel(family[0])
    res = run_ptum(approx, g, MULTI_GOAL_EPS, MULTI_GOAL_DELTA,
                   MULTI_GOAL_BUDGET, rng)
    # A segment's queries are informative when some action's reward at
    # their state splits the set they were chosen from.
    informative = 0
    for (s, _, count), alive in zip(res.queried, res.survived_trace):
        spread = rewards[alive, s, :].max(axis=0) - rewards[alive, s, :].min(axis=0)
        if spread.max() > 1e-9:
            informative += count
    frac = informative / max(res.tau, 1)
    v_pi = policy_evaluation(family[0], res.policy)
    eps_opt = bool(np.max(values[0] - v_pi) <= MULTI_GOAL_EPS + 1e-6)
    return (i, res.tau, frac, int(eps_opt))


@pytest.fixture(scope="module")
def multi_goal_sweep(multi_goal_setup):
    rows = [multi_goal_run(i, multi_goal_setup) for i in range(20)]
    return format_csv(MULTI_GOAL_HEADER, rows), rows


def test_criterion_05_informative_queries(multi_goal_sweep, multi_goal_setup):
    _, rows = multi_goal_sweep
    family = multi_goal_setup[0]
    S, A = family[0].num_states, family[0].num_actions
    per_pair = min(
        default_fallback_per_pair(MULTI_GOAL_EPS, MULTI_GOAL_DELTA, S, A,
                                  family[0].gamma),
        max(MULTI_GOAL_BUDGET // (S * A), 1),
    )
    uniform_total = per_pair * S * A
    total_queries = sum(r[1] for r in rows)
    informative = sum(r[1] * r[2] for r in rows)
    frac = informative / total_queries
    mean_tau = total_queries / len(rows)
    ok = frac >= 0.9 and mean_tau < 0.1 * uniform_total
    report(5, ok, f"informative fraction {frac:.3f}, mean tau {mean_tau:.0f} "
                  f"vs uniform total {uniform_total}")


# ---------------------------------------------------------------------------
# Criterion 6: eps-monotone query counts, exact identification at eps = 0.
# ---------------------------------------------------------------------------

EPS_GRID = (0.0, 0.05, 0.1, 0.2, 0.5)
EPS_SWEEP_HEADER = ["eps_index", "run", "tau", "exact_optimal"]


def eps_sweep_run(eps_index, i, family, values, approx):
    eps = EPS_GRID[eps_index]
    rng = run_rng(SEED_EPS_SWEEP, eps_index * 1000 + i)
    g = GenerativeModel(family[0])
    res = run_ptum(approx, g, eps, TWO_ROOMS_DELTA, TWO_ROOMS_BUDGET, rng)
    v_pi = policy_evaluation(family[0], res.policy)
    exact = bool(np.max(values[0] - v_pi) <= 1e-8)
    return (eps_index, i, res.tau, int(exact))


@pytest.fixture(scope="module")
def eps_sweep(two_rooms_setup):
    family, values, approx, _ = two_rooms_setup
    rows = [
        eps_sweep_run(e, i, family, values, approx)
        for e in range(len(EPS_GRID))
        for i in range(10)
    ]
    return format_csv(EPS_SWEEP_HEADER, rows), rows


def test_criterion_06_eps_monotonicity(eps_sweep):
    _, rows = eps_sweep
    means = [
        float(np.mean([r[2] for r in rows if r[0] == e]))
        for e in range(len(EPS_GRID))
    ]
    monotone = all(means[j + 1] <= means[j] for j in range(len(means) - 1))
    zero_rows = [r for r in rows if r[0] == 0]
    zero_finite = all(r[2] < TWO_ROOMS_BUDGET for r in zero_rows)
    zero_exact = all(r[3] for r in zero_rows)
    report(6, monotone and zero_finite and zero_exact,
           f"mean tau by eps {[round(m, 1) for m in means]}, "
           f"eps=0 exact in {sum(r[3] for r in zero_rows)}/10 runs")


# ---------------------------------------------------------------------------
# Criterion 7: spectral error halves from m=500 to m=5000 triples.
# ---------------------------------------------------------------------------

SPECTRAL_HEADER = ["run", "err_m500", "err_m5000"]


def spectral_run(i):
    rng = run_rng(SEED_SPECTRAL, i)
    family, chain = random_hmm_family(3, 2, 3, 3, 0.9, rng)
    layout = ObservationLayout(2, 3, 3)
    o_true = np.stack([layout.vectorize(m.q, m.p) for m in family], axis=1)
    errs = []
    for m in (500, 5000):
        obs, _ = simulate_hmm_observations(family, chain, 3 * m, 20, rng)
        est = spectral_estimate(obs, 3, layout, restarts=50, iters=50,
                                rng=rng, reference=o_true)
        errs.append(float(np.max(np.linalg.norm(est.observation - o_true, axis=0))))
    return (i, errs[0], errs[1])


@pytest.fixture(scope="module")
def spectral_sweep():
    start = time.perf_counter()
    rows = [spectral_run(i) for i in range(20)]
    elapsed = time.perf_counter() - start
    return format_csv(SPECTRAL_HEADER, rows), rows, elapsed


def test_criterion_07_spectral_rate(spectral_sweep):
    _, rows, elapsed = spectral_sweep
    med_small = float(np.median([r[1] for r in rows]))
    med_large = float(np.median([r[2] for r in rows]))
    ok = med_large <= 0.5 * med_small and elapsed < 60.0
    report(7, ok, f"median error {med_small:.4f} @ m=500 vs {med_large:.4f} "
                  f"@ m=5000, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 8: exact tensor decomposition on orthogonal instances.
# ---------------------------------------------------------------------------

RTP_HEADER = ["run", "k", "dim", "max_eig_err", "min_cosine"]


def rtp_run(i):
    rng = run_rng(SEED_RTP, i)
    k = 1 + i % 4
    dim = k + i % 3
    basis, _ = np.linalg.qr(rng.normal(size=(dim, k)))
    lams = 0.5 + np.arange(k) + rng.uniform(0.0, 0.5, size=k)
    t3 = np.einsum("j,ij,kj,lj->ikl", lams, basis, basis, basis)
    pairs = rtp_decompose(t3, k, restarts=30, iters=100, rng=rng)
    pairs = sorted(pairs, key=lambda p: p[0])
    eig_err = max(abs(lam - true) for (lam, _), true in zip(pairs, lams))
    cosine = min(abs(v @ basis[:, j]) for j, (_, v) in enumerate(pairs))
    return (i, k, dim, float(eig_err), float(cosine))


@pytest.fixture(scope="module")
def rtp_sweep():
    rows = [rtp_run(i) for i in range(100)]
    return format_csv(RTP_HEADER, rows), rows


def test_criterion_08_rtp_exactness(rtp_sweep):
    _, rows = rtp_sweep
    eig_err = max(r[3] for r in rows)
    cosine = min(r[4] for r in rows)
    report(8, eig_err <= 1e-8 and cosine >= 1 - 1e-8,
           f"max eigenvalue error {eig_err:.2e}, min |cosine| {cosine:.12f} "
           f"over 100 instances")


# ---------------------------------------------------------------------------
# Criterion 9: pre-elimination keeps the true next task.
# ---------------------------------------------------------------------------

PRE_ELIM_HEADER = ["run", "all_kept", "min_keep_size"]
PRE_ELIM_TASKS = 8
PRE_ELIM_DIM = 3700  # objectworld observation dimension: 4*25*(12+25)


@pytest.fixture(scope="module")
def pre_elim_cfg():
    return SequentialConfig(
        num_tasks=100, startup_tasks=0, startup_per_pair=1,
        post_sample_per_pair=1, eps=0.5, delta=1e-7, delta_prime=0.1,
        rho=0.1, eta=0.087, rho_t=0.001, top_keep=3, pre_elimination=True,
    )


def pre_elim_run(i, cfg):
    chain = successor_chain(PRE_ELIM_TASKS)
    rng = run_rng(SEED_PRE_ELIM, i)
    current = sample_initial_task(chain, rng)
    all_kept = True
    min_size = PRE_ELIM_TASKS
    log_arg = 9.0 * PRE_ELIM_TASKS * PRE_ELIM_DIM * cfg.num_tasks ** 2 / cfg.delta_prime
    for h in range(1, cfg.num_tasks + 1):
        # Estimation noise at the level the elimination rule assumes.
        amp = cfg.rho_t * math.sqrt(math.log(log_arg) / h)
        t_hat = chain.transition + rng.uniform(-amp, amp,
                                               size=(PRE_ELIM_TASKS,) * 2)
        keep = pre_eliminate(t_hat, {current}, h, cfg, PRE_ELIM_DIM)
        nxt = sample_next_task(chain, current, rng)
        all_kept = all_kept and (nxt in keep)
        min_size = min(min_size, len(keep))
        current = nxt
    return (i, int(all_kept), min_size)


@pytest.fixture(scope="module")
def pre_elim_sweep(pre_elim_cfg):
    rows = [pre_elim_run(i, pre_elim_cfg) for i in range(100)]
    return format_csv(PRE_ELIM_HEADER, rows), rows


def test_criterion_09_pre_elimination_safety(pre_elim_sweep):
    _, rows = pre_elim_sweep
    safe = sum(r[1] for r in rows)
    pruned = min(r[2] for r in rows)
    report(9, safe >= 99,
           f"true task kept every step in {safe}/100 sequences, "
           f"smallest candidate set {pruned}/{PRE_ELIM_TASKS}")


# ---------------------------------------------------------------------------
# Criterion 10: sequential beats static on the objectworld chain.
# ---------------------------------------------------------------------------

SEQ_HEADER = ["run", "seq_queries_per_task", "static_queries_per_task"]
SEQ_STARTUP = 100


def sequential_configs():
    shared = dict(
        num_tasks=150, startup_tasks=SEQ_STARTUP, startup_per_pair=50,
        post_sample_per_pair=30, eps=0.5, delta=1e-8, delta_prime=0.1,
        rho=0.135, rho_final=0.006, rho_decay_tasks=100, rho_t=0.001,
        top_keep=3, rtp_restarts=20, rtp_iters=50,
    )
    seq = SequentialConfig(eta=0.087, pre_elimination=True, **shared)
    static = SequentialConfig(eta=0.0, pre_elimination=False, **shared)
    return seq, static


@pytest.fixture(scope="module")
def objectworld_setup():
    spec = ObjectworldSpec(duplicate_of=paper_objectworld_duplicates())
    family = build_objectworld_family(spec, PRE_ELIM_TASKS,
                                      run_rng(SEED_SEQ_STATIC, 2 ** 31))
    return family, successor_chain(PRE_ELIM_TASKS)


def seq_static_run(i, setup):
    """The CSV row of one pair, and the pre-elimination run's transfer
    tasks that are not eps-optimal and those whose true task is missing
    from the candidate set, as (h, true task) lists."""
    family, chain = setup
    seq_cfg, static_cfg = sequential_configs()
    per_task = []
    for cfg in (seq_cfg, static_cfg):
        trace = run_sequential(cfg, family, chain, run_rng(SEED_SEQ_STATIC, i))
        transfer = [r for r in trace.records if r.h >= SEQ_STARTUP]
        per_task.append(float(np.mean([r.queries for r in transfer])))
        if cfg.pre_elimination:
            failures = [(r.h, r.true_task) for r in transfer if not r.eps_optimal]
            misses = [(r.h, r.true_task) for r in transfer if not r.true_in_active]
    return (i, per_task[0], per_task[1]), (failures, misses)


@pytest.fixture(scope="module")
def seq_static_sweep(objectworld_setup):
    start = time.perf_counter()
    rows, faults = zip(*(seq_static_run(i, objectworld_setup) for i in range(5)))
    elapsed = time.perf_counter() - start
    return format_csv(SEQ_HEADER, rows), rows, elapsed, faults


def test_criterion_10_sequential_vs_static(seq_static_sweep):
    _, rows, elapsed, _ = seq_static_sweep
    diffs = [r[1] - r[2] for r in rows]
    agg = aggregate(diffs, level=0.95)
    ok = agg.mean + agg.half_width <= 0.0 and elapsed < 1800.0
    report(10, ok,
           f"paired diff {agg.mean:.1f} +/- {agg.half_width:.1f} "
           f"queries/task (95% CI), wall clock {elapsed:.0f}s")


# The pre-elimination runs of criterion 10 return wrong policies in silence
# (ROADMAP item 2): 4 of the 250 transfer tasks are not eps-optimal, and in
# 11 the true task is missing from the candidate set.  Criterion 10 does
# not see either; this count must not grow.
KNOWN_SEQ_FAILURES, KNOWN_SEQ_MISSES = 4, 11


def test_criterion_10_known_fault_does_not_grow(seq_static_sweep):
    faults = seq_static_sweep[3]
    for run, (failures, misses) in enumerate(faults):
        print(f"criterion 10 run {run}: not eps-optimal at (h, task) {failures}, "
              f"true task missing at {misses}")
    failures = sum(len(f) for f, _ in faults)
    misses = sum(len(m) for _, m in faults)
    transfer = len(faults) * (sequential_configs()[0].num_tasks - SEQ_STARTUP)
    print(f"criterion 10 pre-elimination: {failures} not eps-optimal, "
          f"{misses} true-task misses over {transfer} transfer tasks")
    assert failures <= KNOWN_SEQ_FAILURES and misses <= KNOWN_SEQ_MISSES


# ---------------------------------------------------------------------------
# Criterion 11: simulation-lemma bound never violated.
# ---------------------------------------------------------------------------

SIM_HEADER = ["run", "max_excess"]


def sim_lemma_run(i):
    rng = run_rng(SEED_SIM_LEMMA, i)
    support = np.linspace(0.0, 1.0, 3)
    models = []
    for _ in range(2):
        p = rng.dirichlet(np.ones(4), size=(4, 2))
        q = rng.dirichlet(np.ones(3), size=(4, 2))
        models.append(TabularMdp(p=p, reward_support=support, q=q, gamma=0.9))
    pi = rng.integers(0, 2, size=4)
    v1 = policy_evaluation(models[0], pi)
    v2 = policy_evaluation(models[1], pi)
    excess = max(
        abs(v1[s] - v2[s]) - simulation_gap_bound(models[0], models[1], pi, s)
        for s in range(4)
    )
    return (i, float(excess))


@pytest.fixture(scope="module")
def sim_lemma_sweep():
    rows = [sim_lemma_run(i) for i in range(200)]
    return format_csv(SIM_HEADER, rows), rows


def test_criterion_11_simulation_lemma(sim_lemma_sweep):
    _, rows = sim_lemma_sweep
    worst = max(r[1] for r in rows)
    violations = sum(r[1] > 1e-6 for r in rows)
    report(11, violations == 0,
           f"{violations} violations over 200 pairs, worst excess {worst:.2e}")


# ---------------------------------------------------------------------------
# Criterion 12: byte-identical CSV on rerun with identical seeds.
# ---------------------------------------------------------------------------

def test_criterion_12_determinism(two_rooms_setup, two_rooms_sweep,
                                  multi_goal_setup, multi_goal_sweep,
                                  eps_sweep, spectral_sweep, rtp_sweep,
                                  pre_elim_cfg, pre_elim_sweep,
                                  objectworld_setup, seq_static_sweep,
                                  sim_lemma_sweep):
    """Rerun every sweep with the same seeds and compare CSV bytes.

    Cheap sweeps are rerun in full; the expensive ones rerun their first
    run index, which the counter-based per-run streams make representative
    of the whole sweep.
    """
    mismatches = []

    def check(name, fresh_rows, stored_csv, header, count=None):
        stored_lines = stored_csv.strip().split("\n")
        fresh_csv = format_csv(header, fresh_rows).strip().split("\n")
        expected = [stored_lines[0]] + stored_lines[1:1 + len(fresh_rows)]
        if fresh_csv != expected:
            mismatches.append(name)

    family, values, approx, _ = two_rooms_setup
    check("two-rooms", [two_rooms_run(0, two_rooms_setup)[0]],
          two_rooms_sweep[0], TWO_ROOMS_HEADER)
    check("multi-goal", [multi_goal_run(0, multi_goal_setup)],
          multi_goal_sweep[0], MULTI_GOAL_HEADER)
    check("eps-sweep", [eps_sweep_run(0, 0, family, values, approx)],
          eps_sweep[0], EPS_SWEEP_HEADER)
    check("spectral", [spectral_run(0)], spectral_sweep[0], SPECTRAL_HEADER)
    check("rtp", [rtp_run(i) for i in range(100)], rtp_sweep[0], RTP_HEADER)
    check("pre-elim", [pre_elim_run(i, pre_elim_cfg) for i in range(100)],
          pre_elim_sweep[0], PRE_ELIM_HEADER)
    check("seq-static", [seq_static_run(0, objectworld_setup)[0]],
          seq_static_sweep[0], SEQ_HEADER)
    check("sim-lemma", [sim_lemma_run(i) for i in range(200)],
          sim_lemma_sweep[0], SIM_HEADER)

    report(12, not mismatches, f"mismatched sweeps: {mismatches or 'none'}")
