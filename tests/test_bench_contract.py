"""The benchmark's contract with the package.

``bench/`` reaches into the package by name: ``tracing.TRACED`` wraps the
layer boundaries it reports, and each workload's ``setup`` builds its
inputs through the public API; the sequential workload captures each
task's policy through the two solvers ``sequential`` looks up by name.
These tests fail when a change to the package breaks any of this, before
a benchmark run would.  The workloads also
claim the settings of the acceptance criteria they time; the last tests
hold them to that.
"""
import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

from seqtransfer import harness, sequential, spectral
from seqtransfer.envs import successor_chain

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import speed  # noqa: E402
import test_acceptance  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from test_sequential import make_cfg, tiny_family  # noqa: E402


def test_session_installs_and_removes_every_traced_wrapper():
    originals = [getattr(owner, attr) for _, owner, attr in tracing.TRACED]
    with tracing.session():
        for (name, owner, attr), original in zip(tracing.TRACED, originals):
            wrapper = getattr(owner, attr)
            assert wrapper is not original, name
            assert wrapper.__wrapped__ is original, name
    for (name, owner, attr), original in zip(tracing.TRACED, originals):
        assert getattr(owner, attr) is original, name


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_setup_runs_against_the_package(name):
    assert workloads.WORKLOADS[name](101).setup()


def test_identification_round_reads_the_result_fields():
    # A round reads PtumResult.survived_trace, tau, queries_total and policy
    # by name.
    workload = workloads.WORKLOADS["identify-two-rooms"](101)
    state = workload.prepare(workload.setup())
    ops = workload.run_round(state, trace=False, probe=speed.SpeedProbe())
    assert len(ops) == workload.ROUND
    assert not [op for op in ops if op.failed or op.problems]


def test_every_sequential_task_is_solved_through_a_captured_name():
    # The sequential workload checks each task's policy, which it captures
    # by wrapping run_ptum and uniform_pac_fallback as sequential looks
    # them up; a task solved any other way would show up in the benchmark
    # only as a policy count that does not match the records.
    originals = sequential.run_ptum, sequential.uniform_pac_fallback
    cfg = make_cfg(num_tasks=16, startup_tasks=12, startup_per_pair=200,
                   post_sample_per_pair=200, rho=1e-3)
    with workloads.captured_policies() as policies:
        trace = sequential.run_sequential(cfg, tiny_family(3, seed=7),
                                          successor_chain(3),
                                          np.random.default_rng(6))
    assert (sequential.run_ptum, sequential.uniform_pac_fallback) == originals
    assert len(policies) == len(trace.records)
    assert any(r.tau is not None for r in trace.records)
    assert any(r.mode == "startup" for r in trace.records)


def test_one_traced_model_set_per_estimate_a_gated_task_read():
    # The benchmark's estimates_used_ratio counts the estimates run_ptum
    # read by the first model of the set it got.  One set serves every
    # gated task of its triple, so the traced builds, the estimates used and
    # the successful estimates some gated task read must all agree.
    cfg = make_cfg(num_tasks=16, startup_tasks=12, startup_per_pair=200,
                   post_sample_per_pair=200, rho=1e-3)
    with tracing.session() as tracer:
        trace = sequential.run_sequential(cfg, tiny_family(3, seed=7),
                                          successor_chain(3),
                                          np.random.default_rng(6))
        taken = tracer.take()
    assert not any(r.degraded for r in trace.records)
    gated = [r for r in trace.records if r.tau is not None]
    # One estimate per triple count: task h reads the one made from the
    # first 3 * (h // 3) observations.
    read = len({r.h // 3 for r in gated})
    builds = taken["spans"]["ptum.ApproxModelSet"][0]
    assert builds == taken["counts"]["estimates_used"] == read < len(gated)


def test_one_estimate_reaches_every_spectral_layer():
    # Each spectral layer the benchmark reports is reached by the name
    # it wraps: a layer no call reaches would read 0, not fail.
    rng = np.random.default_rng(35)
    family, chain = harness.random_hmm_family(3, 5, 2, 3, 0.9, rng)
    layout = spectral.ObservationLayout(5, 2, 3)
    o_true = np.stack([layout.vectorize(m.q, m.p) for m in family], axis=1)
    obs, _ = harness.simulate_hmm_observations(family, chain, 90, 20, rng)
    with tracing.session() as tracer:
        spectral.spectral_estimate(obs, 3, layout, restarts=10, iters=30,
                                   rng=rng, reference=o_true)
        spans = tracer.take()["spans"]
    layers = [name for name in tracing.LAYER_NAMES if name.startswith("spectral.")]
    assert len(layers) == 7
    assert [name for name in layers if spans.get(name, [0])[0] < 1] == []


def test_sequential_workload_runs_criterion_10s_configs():
    # Every field but the sequence length.
    bench = workloads.SequentialObjectworld
    configs = bench(101).setup()[2]
    criterion = test_acceptance.sequential_configs()
    assert configs == tuple(dataclasses.replace(cfg, num_tasks=bench.NUM_TASKS)
                            for cfg in criterion)


def test_identification_workload_runs_criteria_1_to_4s_settings():
    bench = workloads.IdentifyTwoRooms
    assert (bench.EPS, bench.DELTA, bench.BUDGET) == (
        test_acceptance.TWO_ROOMS_EPS, test_acceptance.TWO_ROOMS_DELTA,
        test_acceptance.TWO_ROOMS_BUDGET)
