"""The benchmark's contract with the package.

``bench/`` reaches into the package by name: ``tracing.TRACED`` wraps the
layer boundaries it reports, and each workload's ``setup`` builds its
inputs through the public API.  These tests fail when a change to the
package breaks either, before a benchmark run would.  The workloads also
claim the settings of the acceptance criteria they time; the last tests
hold them to that.
"""
import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import speed  # noqa: E402
import test_acceptance  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


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
