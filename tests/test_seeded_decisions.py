"""Seeded decisions, pinned.

A change that claims to keep every seeded output bit for bit (a faster
planner, a batched sampler) runs these.  They pin what each run decided,
not how fast: the task path, each transfer task's mode, elimination queries
tau, charged queries, candidate-set size, eps-optimality and whether the
true task was a candidate, which estimates degraded, and for
two-rooms identification the stop step, queries, mode and survivors; and a
sha256 over every task record of the benchmark's sequential pair.  The
pinned values were recorded from the per-model planner (one
``value_iteration`` per model, one ``policy_evaluation`` per pair).
"""
import functools
import hashlib
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np

from seqtransfer.envs import (
    GenerativeModel,
    ObjectworldSpec,
    build_objectworld_family,
    multi_goal_family,
    paper_objectworld_duplicates,
    successor_chain,
    two_rooms_family,
)
from seqtransfer.harness import run_rng
from seqtransfer.ptum import ApproxModelSet, run_ptum
from seqtransfer.sequential import SequentialConfig, run_sequential

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402

SEED = 19
STARTUP = 24


# What the per-model planner decided on these runs.
SEQUENTIAL_PATHS = (
    [0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 6, 7, 0, 1, 2,
     3, 4, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 0],
    [0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 6, 7, 0, 1, 2,
     3, 4, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7],
)
PRE_ELIMINATION_TRANSFER = [
    ('transfer-stopped', 94, 94, 8, True, True),
    ('transfer-stopped', 97, 97, 6, True, False),
    ('transfer-stopped', 422, 422, 6, True, True),
    ('transfer-stopped', 592, 592, 5, False, False),
    ('transfer-stopped', 0, 0, 3, False, False),
    ('transfer-stopped', 274, 274, 5, True, True),
    ('transfer-stopped', 85, 85, 5, True, True),
    ('transfer-stopped', 92, 92, 4, True, True),
    ('transfer-stopped', 87, 87, 4, True, False),
    ('transfer-stopped', 83, 83, 3, True, False),
    ('transfer-stopped', 247, 247, 3, True, True),
    ('transfer-stopped', 413, 413, 4, False, False),
    ('transfer-stopped', 0, 0, 3, False, False),
    ('transfer-stopped', 260, 260, 4, True, True),
    ('transfer-stopped', 84, 84, 3, True, True),
    ('transfer-stopped', 94, 94, 5, True, True),
]
PRE_ELIMINATION_DEGRADED = []
STATIC_TRANSFER = [
    ('transfer-stopped', 94, 94, 8, True, True),
    ('transfer-stopped', 97, 97, 8, True, True),
    ('transfer-stopped', 433, 433, 8, True, True),
    ('transfer-stopped', 574, 574, 8, False, True),
    ('transfer-stopped', 290, 290, 8, True, True),
    ('transfer-stopped', 310, 310, 8, True, True),
    ('transfer-stopped', 594, 594, 8, True, True),
    ('transfer-stopped', 94, 94, 8, True, True),
    ('transfer-stopped', 86, 86, 8, True, True),
    ('transfer-stopped', 103, 103, 8, True, True),
    ('transfer-stopped', 436, 436, 8, True, True),
    ('transfer-stopped', 424, 424, 8, False, True),
    ('transfer-stopped', 285, 285, 8, True, True),
    ('transfer-stopped', 302, 302, 8, True, True),
    ('transfer-stopped', 652, 652, 8, True, True),
    ('transfer-stopped', 108, 108, 8, True, True),
]
STATIC_DEGRADED = []
TWO_ROOMS_STREAMS = [
    (195, 195, 'transfer-stopped', [0]),
    (195, 195, 'transfer-stopped', [0]),
    (195, 195, 'transfer-stopped', [0]),
    (195, 195, 'transfer-stopped', [0]),
]

# The benchmark's sequential-objectworld pair: per run, the solve queries
# of its transfer tasks and (h, true task a candidate) of each task whose
# policy is not eps-optimal.  The workload's queries_per_solve is
# (4022 + 10879) / 44 = 338.659.
BENCHMARK_PAIR = [
    (4022, [(117, False), (120, False), (121, False)]),
    (10879, []),
]


def sequential_pair():
    """A 40-task pre-elimination run and its static twin on the paper's
    objectworld chain, from one stream: for each, (task path, one decision
    row per transfer task, the h of each degraded estimate)."""
    family = build_objectworld_family(
        ObjectworldSpec(duplicate_of=paper_objectworld_duplicates()), 8,
        run_rng(SEED, 2 ** 31))
    shared = dict(num_tasks=40, startup_tasks=STARTUP, startup_per_pair=20,
                  post_sample_per_pair=10, eps=0.5, delta=1e-6, delta_prime=0.1,
                  rho=0.002, rho_t=0.001, top_keep=3, rtp_restarts=5, rtp_iters=30)
    runs = []
    for pre_elimination, eta in ((True, 0.087), (False, 0.0)):
        cfg = SequentialConfig(eta=eta, pre_elimination=pre_elimination, **shared)
        records = run_sequential(cfg, family, successor_chain(8),
                                 run_rng(SEED, 0)).records
        runs.append((
            [r.true_task for r in records],
            [(r.mode, r.tau, r.queries, r.active_set_size, r.eps_optimal,
              r.true_in_active) for r in records if r.h >= STARTUP],
            [r.h for r in records if r.degraded],
        ))
    return runs


def two_rooms_streams():
    """(tau, queries, mode, survivors) of ``run_ptum`` on the two-rooms
    family with exact models, task 0 true, for streams 0..3."""
    family = two_rooms_family()
    approx = ApproxModelSet(family)
    out = []
    for i in range(4):
        res = run_ptum(approx, GenerativeModel(family[0]), 0.1, 0.01, 100_000,
                       run_rng(SEED, i))
        out.append((res.tau, res.queries_total, res.mode, sorted(res.survived)))
    return out


def test_sequential_pair_decisions():
    (seq_path, seq_rows, seq_degraded), (static_path, static_rows, static_degraded) = (
        sequential_pair())
    assert (seq_path, static_path) == SEQUENTIAL_PATHS
    assert seq_rows == PRE_ELIMINATION_TRANSFER
    assert static_rows == STATIC_TRANSFER
    assert (seq_degraded, static_degraded) == (PRE_ELIMINATION_DEGRADED,
                                               STATIC_DEGRADED)


def test_two_rooms_stream_decisions():
    assert two_rooms_streams() == TWO_ROOMS_STREAMS


@functools.cache
def benchmark_pair_records():
    """The ``TaskRecord`` lists of the pre-elimination and static runs of
    ``bench/workloads.py``'s ``SequentialObjectworld`` on its fixed stream."""
    workload = workloads.SequentialObjectworld
    family, chain, configs = workload(0).setup()
    return [run_sequential(cfg, family, chain, run_rng(*workload.STREAM)).records
            for cfg in configs]


def benchmark_pair():
    """``benchmark_pair_records`` summarised as ``BENCHMARK_PAIR`` is."""
    startup = workloads.SequentialObjectworld.STARTUP
    return [(sum(r.queries for r in records if r.h >= startup),
             [(r.h, r.true_in_active) for r in records if not r.eps_optimal])
            for records in benchmark_pair_records()]


def test_benchmark_pair_decisions():
    assert benchmark_pair() == BENCHMARK_PAIR


# sha256 of every TaskRecord field of both benchmark-pair runs, floats as
# eight significant digits: the last bits of LAPACK's results may differ
# between CPUs, while the decisions and counts do not.
BENCHMARK_PAIR_FINGERPRINT = "bb0e0d156c0ac4c974442085a2cf5e306737447b28215d65b56bd57b9d4a63ab"


def benchmark_pair_fingerprint():
    h = hashlib.sha256()
    for records in benchmark_pair_records():
        for r in records:
            h.update(repr([f"{x:.8g}" if isinstance(x, float) else x
                           for x in astuple(r)]).encode())
    return h.hexdigest()


def test_benchmark_pair_fingerprint():
    assert benchmark_pair_fingerprint() == BENCHMARK_PAIR_FINGERPRINT


# sha256 fingerprints of identification runs (``identification_fingerprints``),
# recorded from the loop that counted each run of draws a second time after
# its pass.  They cover every result field, the empirical tables among them,
# and the generator state, so a change that keeps the loop bit-identical
# keeps them.
IDENTIFICATION_FINGERPRINTS = {
    "two-rooms seed 101": "4ca895726f1d5ee2f349b93fcb70ecb95eb844cb73b66dd99ae37b73e2b460aa",
    "two-rooms seed 102": "2c009890bf23c325a040b72779b667f8d40cc8b5b1a2177bf5fe11672d8365c1",
    "two-rooms seed 103": "20f84859ad77bb5cff5d65435355dc250036767b241e50fdd5c712089fa6d44a",
    "two-rooms seed 104": "73665de5564dc774677d5034bf66fe454d8c6b1271fdc6f6866e2ba9d0625542",
    "two-rooms seed 105": "4f990694fc3691ba937e412acb962f40b972d205331788c4487398844d104a27",
    "two-rooms seed 106": "236065f8b1dc0c2084df24448176126d257ec7217caa2ead1c8b55e4fb9a2b59",
    "two-rooms seed 107": "b5c6d2aa8f788043ea12bc043eec8b1a203475924f0db0ed7710377fb6f94e94",
    "two-rooms seed 108": "e3c1b36c8ac4f57922c48b51003f0fd834a26c43241a3d66c444d48ece0a5673",
    "two-rooms seed 109": "de52edf0acaf2041102f5348773d75eaf6fe76f792f47742688432c06ad5e5c4",
    "two-rooms seed 110": "fdd257c7989951b845ab868286a66418e22b3f0b7286de0ecc6fac3f14330a8c",
    "multi-goal task 0": "8d673b785723963ff3bdd40c635788468a19061bed3ed10f3b647a4d51555eb8",
    "multi-goal task 1": "6a207d462d6570faf6100398b51975cb598d3ca870f3aa2b48b8d2d9f154953b",
}


def identification_digest(result, rng) -> bytes:
    """sha256 of every ``PtumResult`` field, its three empirical count
    tables among them, and of ``rng``'s state after the run."""
    h = hashlib.sha256()
    emp = result.empirical
    for table in (result.policy, emp.counts, emp.reward_counts, emp.next_counts):
        h.update(f"{table.dtype.str}{table.shape}".encode())
        h.update(np.ascontiguousarray(table).tobytes())
    h.update(repr((result.tau, result.mode, result.chosen_model, result.survived_trace,
                   result.queried, result.queries_total)).encode())
    h.update(repr(rng.bit_generator.state).encode())
    return h.digest()


def identification_fingerprints():
    """One sha256 per two-rooms seed 101..110 over ``run_ptum``'s runs on
    streams run_rng(seed, 0..3), task 0 true, at n = 100 000; and one per
    multi-goal true task 0 and 1 over its runs on run_rng(101..110, 0) at
    n = 2000.  Both at eps = 0.1 and delta = 0.01 with exact models."""
    groups = {}
    for name, family, budget, runs in (
            ("two-rooms", two_rooms_family(), 100_000,
             [(f"seed {seed}", 0, seed, i) for seed in range(101, 111) for i in range(4)]),
            ("multi-goal", multi_goal_family(), 2000,
             [(f"task {task}", task, seed, 0) for task in (0, 1)
              for seed in range(101, 111)])):
        approx = ApproxModelSet(family)
        for label, task, seed, i in runs:
            rng = run_rng(seed, i)
            result = run_ptum(approx, GenerativeModel(family[task]), 0.1, 0.01, budget, rng)
            groups.setdefault(f"{name} {label}", hashlib.sha256()).update(
                identification_digest(result, rng))
    return {key: h.hexdigest() for key, h in groups.items()}


def test_identification_fingerprints():
    assert identification_fingerprints() == IDENTIFICATION_FINGERPRINTS
