"""Unit tests for the sequential-transfer loop and its helpers."""
import math

import numpy as np
import pytest
from test_ptum import add_pair_counts

from seqtransfer import sequential, spectral
from seqtransfer.envs import GenerativeModel, TaskChain, successor_chain
from seqtransfer.harness import format_csv
from seqtransfer.mdp import TabularMdp
from seqtransfer.ptum import EmpiricalModel
from seqtransfer.sequential import (
    SequenceTrace,
    SequentialConfig,
    TaskRecord,
    collect_post_samples,
    pre_eliminate,
    run_sequential,
)


def make_cfg(**overrides):
    base = dict(
        num_tasks=4,
        startup_tasks=2,
        startup_per_pair=5,
        post_sample_per_pair=5,
        eps=0.5,
        delta=1e-3,
        delta_prime=0.1,
        rho=0.1,
        eta=0.0,
        rho_t=0.0,
        pre_elimination=False,
        rtp_restarts=100,
        rtp_iters=100,
    )
    base.update(overrides)
    return SequentialConfig(**base)


def tiny_family(k=3, gamma=0.9, seed=0):
    """k random 2-state, 2-action models on a shared 3-point reward ladder."""
    rng = np.random.default_rng(seed)
    support = np.linspace(0.0, 1.0, 3)
    fam = []
    for _ in range(k):
        p = rng.dirichlet(np.ones(2), size=(2, 2))
        q = rng.dirichlet(np.ones(3), size=(2, 2))
        fam.append(TabularMdp(p=p, reward_support=support, q=q, gamma=gamma))
    return fam


class TestConfig:
    def test_pre_elimination_delta_cap(self):
        # With eta > 0 the failure-probability split requires
        # delta <= delta_prime / (3 m^2).
        with pytest.raises(ValueError):
            make_cfg(pre_elimination=True, eta=0.05, num_tasks=10,
                     delta=0.01, delta_prime=0.1)

    def test_pre_elimination_delta_ok(self):
        cfg = make_cfg(pre_elimination=True, eta=0.05, num_tasks=10,
                       delta=1e-4, delta_prime=0.1)
        assert cfg.eta == 0.05

    def test_bad_per_pair(self):
        with pytest.raises(ValueError):
            make_cfg(startup_per_pair=0)

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            make_cfg(delta=0.0)

    @pytest.mark.parametrize("field", ["rtp_restarts", "rtp_iters"])
    def test_rtp_counts_below_one_rejected(self, field):
        # Checked up front: a skipped estimate draws (k, 0, k) normals
        # without complaint, so a zero would otherwise surface only at the
        # first real estimate, after the whole start-up phase.
        with pytest.raises(ValueError):
            make_cfg(**{field: 0})
        assert getattr(make_cfg(**{field: 1}), field) == 1

    @pytest.mark.parametrize("field, bad", [
        ("eps", 0.0), ("budget", -1), ("top_keep", 0),
        ("eta", -0.01), ("rho_t", -0.01), ("rho", float("nan")),
        ("eta", float("nan")), ("rho_t", float("nan")), ("rho_final", float("nan")),
    ])
    def test_values_a_run_cannot_use_rejected(self, field, bad):
        # A run would raise on each of these only at its first transfer or
        # gated task, after the start-up phase, or silently replace it (a
        # zero top_keep), or never check it.  A NaN
        # rate makes delta_h NaN, which the gate reads as closed: the run
        # would never transfer.
        with pytest.raises(ValueError):
            make_cfg(**{field: bad})

    def test_rho_at_endpoints(self):
        cfg = make_cfg(rho=0.135, rho_final=0.006, rho_decay_tasks=100,
                       num_tasks=150)
        assert cfg.rho_at(0) == pytest.approx(0.135)
        assert cfg.rho_at(100) == pytest.approx(0.006)
        assert cfg.rho_at(140) == pytest.approx(0.006)
        assert cfg.rho_at(50) == pytest.approx((0.135 + 0.006) / 2)

    def test_rho_at_without_decay(self):
        cfg = make_cfg(rho=0.2)
        assert cfg.rho_at(0) == cfg.rho_at(99) == 0.2


class TestPostSamples:
    def test_no_queries_when_satisfied(self):
        fam = tiny_family(1)
        g = GenerativeModel(fam[0])
        emp = EmpiricalModel(2, 2, fam[0].reward_support)
        rng = np.random.default_rng(0)
        for s in range(2):
            for a in range(2):
                nc, rc = g.query_batch(s, a, 7, rng)
                add_pair_counts(emp, s, a, nc, rc)
        used = g.queries_used
        collect_post_samples(g, emp, 5, rng)
        assert g.queries_used == used

    def test_tops_up_fresh_model(self):
        fam = tiny_family(1)
        g = GenerativeModel(fam[0])
        emp = EmpiricalModel(2, 2, fam[0].reward_support)
        collect_post_samples(g, emp, 3, np.random.default_rng(1))
        assert g.queries_used == 2 * 2 * 3
        assert np.all(emp.counts == 3)

    def test_partial_top_up(self):
        fam = tiny_family(1)
        g = GenerativeModel(fam[0])
        emp = EmpiricalModel(2, 2, fam[0].reward_support)
        rng = np.random.default_rng(2)
        nc, rc = g.query_batch(0, 0, 10, rng)
        add_pair_counts(emp, 0, 0, nc, rc)
        collect_post_samples(g, emp, 4, rng)
        # Pair (0, 0) already exceeds the target; the other three pairs
        # each need 4 queries.
        assert g.queries_used == 10 + 3 * 4
        assert emp.counts[0, 0] == 10

    def test_rejects_zero_per_pair(self):
        fam = tiny_family(1)
        emp = EmpiricalModel(2, 2, fam[0].reward_support)
        with pytest.raises(ValueError):
            collect_post_samples(GenerativeModel(fam[0]), emp, 0,
                                 np.random.default_rng(3))


class TestPreEliminate:
    def test_zero_eta_keeps_everything(self):
        cfg = make_cfg(pre_elimination=True, eta=0.0, top_keep=1)
        t_hat = np.eye(5)
        keep = pre_eliminate(t_hat, {0}, estimate_obs=10, cfg=cfg, obs_dim=30)
        assert keep == set(range(5))

    def test_identity_chain_keeps_successor(self):
        cfg = make_cfg(pre_elimination=True, eta=0.5, top_keep=1,
                       delta=1e-6, delta_prime=0.1, num_tasks=4)
        t_hat = np.eye(5)
        keep = pre_eliminate(t_hat, {2}, estimate_obs=10, cfg=cfg, obs_dim=30)
        # Only task 2 carries mass from the survivor; slack is negligible.
        assert keep == {2}

    def test_top_keep_retains_leaders(self):
        cfg = make_cfg(pre_elimination=True, eta=2.0, top_keep=3,
                       delta=1e-6, delta_prime=0.1, num_tasks=4)
        chain = successor_chain(6)
        keep = pre_eliminate(chain.transition, {1}, estimate_obs=50, cfg=cfg, obs_dim=30)
        # eta above any attainable score: only the forced top 3 survive,
        # led by the 0.97-probability successor.
        assert len(keep) == 3
        assert 2 in keep

    def test_slack_grows_with_rho_t(self):
        base = make_cfg(pre_elimination=True, eta=0.05, top_keep=1,
                        delta=1e-6, delta_prime=0.1, num_tasks=4)
        noisy = make_cfg(pre_elimination=True, eta=0.05, top_keep=1,
                         delta=1e-6, delta_prime=0.1, num_tasks=4, rho_t=0.5)
        t_hat = np.full((4, 4), 0.04)
        t_hat += np.diag(1.0 - t_hat.sum(axis=0))
        strict = pre_eliminate(t_hat, {0}, estimate_obs=4, cfg=base, obs_dim=30)
        loose = pre_eliminate(t_hat, {0}, estimate_obs=4, cfg=noisy, obs_dim=30)
        assert strict <= loose
        assert loose == {0, 1, 2, 3}

    def test_empty_survivors_rejected(self):
        cfg = make_cfg(pre_elimination=True)
        with pytest.raises(ValueError):
            pre_eliminate(np.eye(3), set(), estimate_obs=1, cfg=cfg, obs_dim=10)


class TestTrace:
    @staticmethod
    def record(h, mode="transfer-stopped", eps_optimal=True, queries=10):
        return TaskRecord(h=h, true_task=0, mode=mode, queries=queries,
                          eps_optimal=eps_optimal,
                          active_set_size=3, delta_h=0.25,
                          o_col_err_max=0.1, t_err_max=0.05)

    def test_csv_shape(self):
        trace = SequenceTrace([self.record(0), self.record(1, eps_optimal=False)])
        trace.records[1].degraded = True
        trace.records[1].tau = 7
        trace.records[1].true_in_active = False
        text = format_csv(SequenceTrace.COLUMNS, trace.rows())
        lines = text.strip().split("\n")
        # The header is the TaskRecord fields, in their order.
        assert lines[0] == ("h,true_task,mode,queries,eps_optimal,active_set_size,"
                            "delta_h,o_col_err_max,t_err_max,degraded,tau,"
                            "true_in_active,post_queries")
        assert len(lines) == 3
        assert lines[1] == "0,0,transfer-stopped,10,1,3,0.25,0.1,0.05,0,,1,0"
        assert lines[2].endswith(",1,7,0,0")

    def test_fractions(self):
        trace = SequenceTrace([self.record(0), self.record(1, eps_optimal=False)])
        assert trace.eps_optimal_fraction() == pytest.approx(0.5)
        assert trace.degraded_fraction() == 0.0

    def test_empty_fraction_is_nan(self):
        assert math.isnan(SequenceTrace().eps_optimal_fraction())


class TestRunSequential:
    def test_chain_family_size_mismatch(self):
        fam = tiny_family(3)
        chain = TaskChain(transition=np.eye(2), initial=np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            run_sequential(make_cfg(), fam, chain, np.random.default_rng(0))

    def test_startup_only_run(self):
        fam = tiny_family(3)
        chain = successor_chain(3)
        cfg = make_cfg(num_tasks=2, startup_tasks=5)
        trace = run_sequential(cfg, fam, chain, np.random.default_rng(1))
        assert len(trace.records) == 2
        assert all(r.mode == "startup" for r in trace.records)
        # Each startup task pays uniform sampling plus the post-sample top-up.
        assert all(r.queries == 2 * 2 * 5 for r in trace.records)

    def test_deterministic_replay(self):
        fam = tiny_family(3, seed=7)
        chain = successor_chain(3)
        cfg = make_cfg(num_tasks=6, startup_tasks=3, startup_per_pair=40,
                       post_sample_per_pair=40, rho=2.0)
        a = run_sequential(cfg, fam, chain, np.random.default_rng(42))
        b = run_sequential(cfg, fam, chain, np.random.default_rng(42))
        # CSV text, not rows: a NaN cell is never equal to itself.
        assert (format_csv(SequenceTrace.COLUMNS, a.rows())
                == format_csv(SequenceTrace.COLUMNS, b.rows()))

    def test_single_task_family_transfers_free(self):
        # With one candidate model the elimination loop stops immediately,
        # so every post-startup task costs only the post samples.
        fam = tiny_family(1, gamma=0.5)
        chain = TaskChain(transition=np.eye(1), initial=np.array([1.0]))
        cfg = make_cfg(num_tasks=8, startup_tasks=3, startup_per_pair=200,
                       post_sample_per_pair=20, rho=1e-4, eps=0.5)
        trace = run_sequential(cfg, fam, chain, np.random.default_rng(3))
        post = trace.records[3:]
        assert all(r.mode == "transfer-stopped" for r in post)
        assert all(r.tau == 0 and r.queries == 0 for r in post)
        assert all(r.eps_optimal for r in post)

    def test_gate_closed_falls_back(self):
        # A huge rho keeps the uncertainty above the gate forever, so the
        # post-startup tasks use the uniform fallback at the start-up count.
        fam = tiny_family(2, seed=9)
        chain = successor_chain(2)
        cfg = make_cfg(num_tasks=5, startup_tasks=3, rho=50.0, startup_per_pair=4)
        trace = run_sequential(cfg, fam, chain, np.random.default_rng(4))
        assert all(r.mode == "fallback-gate" for r in trace.records[3:])
        assert all(r.queries == 2 * 2 * 4 for r in trace.records[3:])

    def test_trace_columns_populated(self):
        fam = tiny_family(3, seed=11)
        chain = successor_chain(3)
        cfg = make_cfg(num_tasks=15, startup_tasks=15, startup_per_pair=200,
                       post_sample_per_pair=200, rho=2.0)
        trace = run_sequential(cfg, fam, chain, np.random.default_rng(5))
        for r in trace.records:
            assert 0 <= r.true_task < 3
        # Spectral estimation kicks in once enough observation triples exist
        # to support the rank-3 decomposition.
        late = trace.records[-1]
        assert not late.degraded
        assert math.isfinite(late.o_col_err_max)
        assert math.isfinite(late.t_err_max)

    def test_estimates_start_at_3k_and_one_model_set_per_estimate(self, monkeypatch):
        # Fewer than k triples cannot give a rank-k whitening, and no solve
        # reads an estimate made before the last start-up task, so no
        # estimate is attempted before max(3k, startup_tasks) observations
        # and the start-up rows before it carry no error columns.  After it
        # one estimate is made per triple count, so the tasks within one
        # triple report the same error columns.  One candidate model set is
        # built per estimate that a run_ptum call reads, and every gated
        # task of its triple gets that set, with the task's delta_h.
        k = 3
        fam = tiny_family(k, seed=7)
        calls = {"estimate": [], "approx": 0}
        reads = []  # (estimates made so far, model set) per run_ptum call
        estimate, approx_cls, ptum = (sequential.spectral_estimate,
                                      sequential.ApproxModelSet,
                                      sequential.run_ptum)

        def counting_estimate(observations, *args, **kwargs):
            calls["estimate"].append(len(observations))
            return estimate(observations, *args, **kwargs)

        def counting_approx(*args, **kwargs):
            calls["approx"] += 1
            return approx_cls(*args, **kwargs)

        def recording_ptum(approx, *args, **kwargs):
            reads.append((len(calls["estimate"]), approx))
            return ptum(approx, *args, **kwargs)

        monkeypatch.setattr(sequential, "spectral_estimate", counting_estimate)
        monkeypatch.setattr(sequential, "ApproxModelSet", counting_approx)
        monkeypatch.setattr(sequential, "run_ptum", recording_ptum)
        cfg = make_cfg(num_tasks=16, startup_tasks=12, startup_per_pair=200,
                       post_sample_per_pair=200, rho=1e-3)
        trace = run_sequential(cfg, fam, successor_chain(k),
                               np.random.default_rng(6))
        assert calls["estimate"] == [12, 15]
        assert not any(r.degraded for r in trace.records)
        gated = [r for r in trace.records if r.tau is not None]
        assert len(reads) == len(gated)
        assert calls["approx"] == len({made for made, _ in reads}) < len(gated)
        for (made, approx), rec in zip(reads, gated):
            assert approx.delta == rec.delta_h
            for (other_made, other), other_rec in zip(reads, gated):
                assert (other is approx) == (other_made == made) \
                    == (other_rec.h // 3 == rec.h // 3)
        first = cfg.startup_tasks - 1
        assert all(math.isnan(r.o_col_err_max) and math.isnan(r.t_err_max)
                   and r.delta_h == math.inf and r.active_set_size == k
                   for r in trace.records[:first])
        assert all(math.isfinite(r.o_col_err_max) and math.isfinite(r.t_err_max)
                   for r in trace.records[first:])
        errors = [(r.o_col_err_max, r.t_err_max) for r in trace.records]
        assert errors[first:14] == [errors[first]] * 3
        assert errors[14:] == [errors[14]] * 2

    def test_whitened_moments_once_per_triple_count(self, monkeypatch):
        # The deterministic stage reads only whole triples, and one
        # estimate is made per triple count, so it is computed once for
        # each triple count.
        k = 3
        triples = []
        moments = spectral.estimate_moments

        def counting_moments(observations, *args, **kwargs):
            triples.append(len(observations) // 3)
            return moments(observations, *args, **kwargs)

        monkeypatch.setattr(spectral, "estimate_moments", counting_moments)
        cfg = make_cfg(num_tasks=16, startup_tasks=12, startup_per_pair=200,
                       post_sample_per_pair=200, rho=1e-3)
        trace = run_sequential(cfg, tiny_family(k, seed=7), successor_chain(k),
                               np.random.default_rng(6))
        assert not any(r.degraded for r in trace.records)
        assert triples == sorted({n // 3 for n in range(cfg.startup_tasks, 17)})

    def test_every_count_from_3k_draws_one_normal_block(self, monkeypatch):
        # Estimated or skipped (during start-up or within a triple), each
        # observation count from 3k on draws one (k, restarts, k) block of
        # normals between its post samples and the next task's chain step,
        # so which counts estimate does not move the stream.
        k = 3
        after_post, before_next = [], []
        post, next_task = sequential.collect_post_samples, sequential.sample_next_task

        def recording_post(g, emp, per_pair, rng):
            out = post(g, emp, per_pair, rng)
            after_post.append(rng.bit_generator.state)
            return out

        def recording_next(chain, current, rng):
            before_next.append(rng.bit_generator.state)
            return next_task(chain, current, rng)

        monkeypatch.setattr(sequential, "collect_post_samples", recording_post)
        monkeypatch.setattr(sequential, "sample_next_task", recording_next)
        cfg = make_cfg(num_tasks=16, startup_tasks=10, startup_per_pair=200,
                       post_sample_per_pair=200, rho=1e-3, rtp_restarts=7)
        trace = run_sequential(cfg, tiny_family(k, seed=7), successor_chain(k),
                               np.random.default_rng(6))
        assert not any(r.degraded for r in trace.records)
        assert any(r.tau is not None for r in trace.records)
        for n, (state, want) in enumerate(zip(after_post, before_next), start=1):
            replay = np.random.default_rng()
            replay.bit_generator.state = state
            if n >= 3 * k:
                replay.standard_normal((k, cfg.rtp_restarts, k))
            assert replay.bit_generator.state == want, n

    def test_degraded_estimate_keeps_its_bound(self, monkeypatch):
        # A stale estimate keeps the error bound and the pre-elimination
        # observation count it was computed with, so delta_h does not fall
        # across a degraded task, though rho decays.  The estimate of the
        # triple completed at task fail_at raises; a failed triple is not
        # retried, so the next attempt is at the next triple, three tasks
        # later.  The count is that of the whole triples the moments read,
        # 3 * (n // 3).  The loop's gate is held open, so every task that
        # has an estimate takes a model set (run_ptum's own gate still falls
        # back at this delta_h); the failed triple builds no new set.
        k, fail_at = 3, 11
        estimate, eliminate = sequential.spectral_estimate, sequential.pre_eliminate
        ptum = sequential.run_ptum
        attempts, counts, sets = [], [], []

        def flaky_estimate(observations, *args, **kwargs):
            attempts.append(len(observations))
            if len(observations) == fail_at + 1:
                raise spectral.DegenerateMomentsError("forced")
            return estimate(observations, *args, **kwargs)

        def recording_eliminate(t_hat, survived, h, *args):
            counts.append(h)
            return eliminate(t_hat, survived, h, *args)

        def recording_ptum(approx, *args, **kwargs):
            sets.append(approx)
            return ptum(approx, *args, **kwargs)

        monkeypatch.setattr(sequential, "spectral_estimate", flaky_estimate)
        monkeypatch.setattr(sequential, "pre_eliminate", recording_eliminate)
        monkeypatch.setattr(sequential, "run_ptum", recording_ptum)
        monkeypatch.setattr(sequential, "transfer_gate", lambda *args: True)
        cfg = make_cfg(num_tasks=17, startup_tasks=3 * k, startup_per_pair=200,
                       post_sample_per_pair=200, rho=2.0, rho_final=1.0,
                       rho_decay_tasks=17, rho_t=0.01, pre_elimination=True)
        trace = run_sequential(cfg, tiny_family(k, seed=11), successor_chain(k),
                               np.random.default_rng(5))
        records = trace.records
        assert attempts == [9, 12, 15]
        assert [r.h for r in records if r.degraded] == [fail_at]
        assert all(r.mode == "fallback-gate" for r in records[3 * k:])
        # The degraded task reports the stale estimate's errors.
        assert records[fail_at].o_col_err_max == records[fail_at - 1].o_col_err_max
        assert records[fail_at].t_err_max == records[fail_at - 1].t_err_max
        deltas = [r.delta_h for r in records]
        assert math.isfinite(deltas[3 * k])
        assert deltas[3 * k:fail_at + 4] == [deltas[3 * k]] * 6
        assert deltas[fail_at + 4] < deltas[fail_at + 3]
        assert counts == [9] * 6 + [15] * 3
        # Tasks 9-14 read the estimate made at 9 observations, 15-16 the one
        # made at 15.
        assert len(sets) == cfg.num_tasks - 3 * k
        assert all(approx is sets[0] for approx in sets[:6]) and sets[6] is not sets[0]
        assert all(approx is sets[6] for approx in sets[6:])
        assert [approx.delta for approx in sets] == deltas[3 * k:]

    def test_failed_first_read_estimate_closes_the_gate(self, monkeypatch):
        # No estimate is made during start-up, so when the one made after
        # the last start-up task raises there is no stale estimate to keep.
        # A failed triple is not retried, so the tasks up to the next triple
        # fall back with an infinite delta_h and the full candidate set.
        k, startup = 3, 12
        estimate = sequential.spectral_estimate
        attempts = []

        def flaky_estimate(observations, *args, **kwargs):
            attempts.append(len(observations))
            if len(observations) == startup:
                raise spectral.DecompositionFailureError("forced")
            return estimate(observations, *args, **kwargs)

        monkeypatch.setattr(sequential, "spectral_estimate", flaky_estimate)
        cfg = make_cfg(num_tasks=16, startup_tasks=startup, startup_per_pair=200,
                       post_sample_per_pair=200, rho=1e-3, rho_t=0.01,
                       pre_elimination=True)
        trace = run_sequential(cfg, tiny_family(k, seed=7), successor_chain(k),
                               np.random.default_rng(6))
        records = trace.records
        assert attempts == [startup, startup + 3]
        assert [r.h for r in records if r.degraded] == [startup - 1]
        assert all(math.isnan(r.o_col_err_max) for r in records[:startup + 2])
        for r in records[startup:startup + 3]:
            assert r.mode == "fallback-gate"
            assert r.delta_h == math.inf
            assert r.active_set_size == k
        assert math.isfinite(records[startup + 3].delta_h)
        assert records[startup + 3].tau is not None
        assert trace.degraded_fraction() == pytest.approx(1 / 16)
