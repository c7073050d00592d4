"""The benchmark's three workloads.

Each workload builds its fixed inputs through the package (``setup``, the
timed set-up), computes what its checks need with the independent
reference (``prepare``, untimed), and then runs whole rounds of the same
operations (``run_round``).  A round returns one ``Op`` per operation with
its wall time, whether it failed, what it charged in generative queries,
and any check its output broke.  ``finish`` adds the checks that look at
a whole run.  The package is called through module attributes so that a
traced run sees every call.
"""
import contextlib
import functools
import statistics
import time
from dataclasses import dataclass

import numpy as np
from seqtransfer import envs, harness, ptum, sequential, spectral

import reference
import tracing


@dataclass
class Op:
    """One finished operation."""

    wall: float
    scale: float = 1.0               # speed.SpeedProbe.scale over this op
    failed: bool = False
    queries: float | None = None
    cpu: float | None = None         # thread CPU time, for sweep ops
    problems: tuple = ()
    errors: tuple = ()               # learn-hmm column errors, one per m
    spans: dict | None = None        # this op's spans, when it took them


# ---------------------------------------------------------------------------
# identify-two-rooms: criteria 1-4's identification, serially.
# ---------------------------------------------------------------------------


class IdentifyTwoRooms:
    """Serial ``run_ptum`` identifications on the 12-task two-rooms family
    with exact models; one operation is one identification."""

    name = "identify-two-rooms"
    sweep_threads = 1
    EPS, DELTA, BUDGET, TRUE_TASK = 0.1, 0.01, 100_000, 0
    ROUND = 4   # streams run_rng(seed, 0..3), the same in every round

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        family = envs.two_rooms_family()
        approx = ptum.ApproxModelSet(family)
        _, bound = ptum.theta_eps_and_bound(approx, self.TRUE_TASK, self.EPS,
                                            self.DELTA, self.BUDGET)
        return family, approx, bound

    def prepare(self, inputs):
        family, approx, bound = inputs
        return family, approx, bound, reference.mdp_optimal_values(
            family[self.TRUE_TASK])

    def run_round(self, state, trace: bool, probe):
        family, approx, bound, v_star = state
        truth = family[self.TRUE_TASK]
        ops = []
        for i in range(self.ROUND):
            rng = harness.run_rng(self.seed, i)
            g = envs.GenerativeModel(truth)
            since = len(probe.times)
            start = time.perf_counter()
            res = ptum.run_ptum(approx, g, self.EPS, self.DELTA, self.BUDGET, rng)
            wall = time.perf_counter() - start
            problems = []
            if not all(self.TRUE_TASK in step for step in res.survived_trace):
                problems.append(f"stream {i}: true task eliminated")
            if res.tau > bound:
                problems.append(f"stream {i}: tau {res.tau} above bound {bound:.0f}")
            ok = reference.is_eps_optimal(truth, v_star, res.policy, self.EPS)
            probe.tick()
            ops.append(Op(wall=wall, scale=probe.scale(since), failed=not ok,
                          queries=res.queries_total, problems=tuple(problems)))
        return ops

    def finish(self, ops):
        return []


# ---------------------------------------------------------------------------
# sequential-objectworld: criterion 10's pre-elimination / static pair.
# ---------------------------------------------------------------------------


class SequentialObjectworld:
    """One pre-elimination and one static ``run_sequential`` from the same
    stream on the 8-task objectworld chain; one operation is one task.

    The stream and the length are fixed, not drawn from the seed: on this
    stream the pre-elimination sequence loses the true task from its
    candidate set at h = 117, 120 and 121 and returns a policy that is not
    eps-optimal.  Those tasks are the kept, named failures; a stream drawn
    from the seed would fail on some seeds only.
    """

    name = "sequential-objectworld"
    sweep_threads = 1
    FAMILY_SEED, STREAM = 1010, (1010, 2)
    NUM_TASKS, STARTUP = 122, 100
    SHARED = dict(
        num_tasks=NUM_TASKS, startup_tasks=STARTUP, startup_per_pair=50,
        post_sample_per_pair=30, eps=0.5, delta=1e-8, delta_prime=0.1,
        rho=0.135, rho_final=0.006, rho_decay_tasks=100, rho_t=0.001,
        top_keep=3, rtp_restarts=20, rtp_iters=50,
    )

    def __init__(self, seed: int):
        self.seed = seed   # unused: see the class docstring

    def setup(self):
        spec = envs.ObjectworldSpec(duplicate_of=envs.paper_objectworld_duplicates())
        family = envs.build_objectworld_family(spec, 8, harness.run_rng(
            self.FAMILY_SEED, 2 ** 31))
        chain = envs.successor_chain(8)
        configs = (
            sequential.SequentialConfig(eta=0.087, pre_elimination=True,
                                        **self.SHARED),
            sequential.SequentialConfig(eta=0.0, pre_elimination=False,
                                        **self.SHARED),
        )
        return family, chain, configs

    def prepare(self, inputs):
        family, chain, configs = inputs
        return family, chain, configs, [reference.mdp_optimal_values(m)
                                        for m in family]

    def run_round(self, state, trace: bool, probe):
        family, chain, configs, v_stars = state
        base = family[0]
        startup_queries = (self.SHARED["startup_per_pair"]
                           * base.num_states * base.num_actions)
        ops = []
        for cfg in configs:
            kind = "pre-elimination" if cfg.pre_elimination else "static"
            # Traced, the probes would land inside the run_sequential span;
            # they are taken after the sequence instead.
            since, probed = len(probe.times), probe.total
            with captured_policies(None if trace else probe) as policies:
                start = time.perf_counter()
                seq_trace = sequential.run_sequential(cfg, family, chain,
                                                      harness.run_rng(*self.STREAM))
                wall = time.perf_counter() - start - (probe.total - probed)
            probe.tick()
            scale = probe.scale(since)
            if len(policies) != len(seq_trace.records):
                return [Op(wall=wall, problems=(
                    f"{kind}: {len(policies)} policies for "
                    f"{len(seq_trace.records)} tasks",))]
            per_task = wall / len(seq_trace.records)
            for rec, policy in zip(seq_trace.records, policies):
                ok = reference.is_eps_optimal(family[rec.true_task],
                                              v_stars[rec.true_task], policy,
                                              cfg.eps)
                problems = []
                if ok != rec.eps_optimal:
                    problems.append(f"{kind} h={rec.h}: trace says eps_optimal="
                                    f"{rec.eps_optimal}, reference says {ok}")
                if not ok and (not cfg.pre_elimination or rec.true_in_active):
                    problems.append(f"{kind} h={rec.h}: not eps-optimal, and "
                                    "not by a pre-eliminated true task")
                if rec.h < self.STARTUP and rec.queries != startup_queries:
                    problems.append(f"{kind} h={rec.h}: start-up solve spent "
                                    f"{rec.queries} queries, not {startup_queries}")
                transfer = rec.h >= self.STARTUP
                ops.append(Op(wall=per_task, scale=scale, failed=not ok,
                              queries=rec.queries if transfer else None,
                              problems=tuple(problems)))
        return ops

    def finish(self, ops):
        return []


@contextlib.contextmanager
def captured_policies(probe=None):
    """Collect the policy ``run_sequential`` gets for each task, and take a
    speed probe after each task's solve when given one.

    Every task is solved by exactly one call of ``run_ptum`` or
    ``uniform_pac_fallback`` as ``sequential`` looks them up, so the list
    lines up with the trace records.
    """
    policies = []
    run_ptum, fallback = sequential.run_ptum, sequential.uniform_pac_fallback

    def solved(policy):
        policies.append(policy)
        if probe is not None:
            probe.tick()

    def capture_run_ptum(*args, **kwargs):
        result = run_ptum(*args, **kwargs)
        solved(result.policy)
        return result

    def capture_fallback(*args, **kwargs):
        policy, emp = fallback(*args, **kwargs)
        solved(policy)
        return policy, emp

    sequential.run_ptum = capture_run_ptum
    sequential.uniform_pac_fallback = capture_fallback
    try:
        yield policies
    finally:
        sequential.run_ptum, sequential.uniform_pac_fallback = run_ptum, fallback


# ---------------------------------------------------------------------------
# learn-hmm-sweep: criterion 7's spectral runs through harness.sweep.
# ---------------------------------------------------------------------------

HMM_K, HMM_S, HMM_A, HMM_U, HMM_GAMMA = 3, 2, 3, 3, 0.9
HMM_PER_PAIR = 20
HMM_TRIPLES = (500, 5000)
HMM_RESTARTS = HMM_ITERS = 50
HMM_LAYOUT = spectral.ObservationLayout(HMM_S, HMM_A, HMM_U)
# Squared-norm variance of one observation around its column: each (s, a)
# block is an empirical distribution of HMM_PER_PAIR draws, so it is at
# most S A ((1 - 1/U) + (1 - 1/S)) / HMM_PER_PAIR.
HMM_OBS_VAR = HMM_S * HMM_A * ((1 - 1 / HMM_U) + (1 - 1 / HMM_S)) / HMM_PER_PAIR
# A column estimated from m triples rests on about m/k third views; the
# tolerance allows four times the error of their plain mean.
HMM_TOL_FACTOR = 4.0
PROB_TOL = 1e-9


def hmm_tolerance(m: int) -> float:
    """Allowed worst-column error of an estimate from m triples."""
    return HMM_TOL_FACTOR * (HMM_K * HMM_OBS_VAR / m) ** 0.5


def _is_distribution(table, axis) -> bool:
    return bool(table.min() >= -PROB_TOL
                and np.allclose(table.sum(axis=axis), 1.0, atol=PROB_TOL))


def _on_simplices(est) -> bool:
    """Every (s, a) block of every column is a distribution, and T-hat is
    column-stochastic."""
    blocks = [b for j in range(HMM_K)
              for b in HMM_LAYOUT.unpack(est.observation[:, j])]
    return (all(_is_distribution(b, axis=-1) for b in blocks)
            and _is_distribution(est.transition, axis=0))


def _observations_use_per_pair_draws(obs) -> bool:
    counts = obs * HMM_PER_PAIR
    return bool(np.allclose(counts, np.round(counts), atol=1e-6))


def hmm_run(index: int, inputs, seed: int, trace: bool) -> Op:
    """One seeded learn-hmm run: simulate observations at each m, estimate,
    and measure the worst aligned column error against the truth.

    Module-level and picklable, and it times itself and takes its own spans
    in whatever thread or process runs it, so ``harness.sweep`` may use
    either.
    """
    tracer = tracing.process_tracer() if trace else None
    family, chain, o_true = inputs[index]
    rng = harness.run_rng(seed, 2 * index + 1)
    start, cpu_start = time.perf_counter(), time.thread_time()
    runs, failed = [], False
    try:
        for m in HMM_TRIPLES:
            obs, _ = harness.simulate_hmm_observations(family, chain, 3 * m,
                                                       HMM_PER_PAIR, rng)
            est = spectral.spectral_estimate(obs, HMM_K, HMM_LAYOUT,
                                             restarts=HMM_RESTARTS,
                                             iters=HMM_ITERS, rng=rng,
                                             reference=o_true)
            runs.append((m, obs, est))
    except tracing.SPECTRAL_FAILURES:
        failed = True
    wall, cpu = time.perf_counter() - start, time.thread_time() - cpu_start

    problems, errors = [], []
    for m, obs, est in runs:
        err = float(np.max(np.linalg.norm(est.observation - o_true, axis=0)))
        errors.append(err)
        if not _on_simplices(est):
            problems.append(f"run {index} m={m}: estimate off the simplices")
        if not _observations_use_per_pair_draws(obs):
            problems.append(f"run {index} m={m}: observation is not "
                            f"{HMM_PER_PAIR} draws per pair")
    if len(errors) == len(HMM_TRIPLES):
        failed = errors[-1] > hmm_tolerance(HMM_TRIPLES[-1])
    return Op(wall=wall, failed=failed, cpu=cpu,
              queries=HMM_PER_PAIR * HMM_S * HMM_A, problems=tuple(problems),
              errors=tuple(errors), spans=tracer.take() if tracer else None)


class LearnHmmSweep:
    """``harness.sweep`` over seeded learn-hmm runs with two workers; one
    operation is one run."""

    name = "learn-hmm-sweep"
    sweep_threads = 2
    ROUND = 6   # runs 0..5 of the seed, the same in every round

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        inputs = []
        for i in range(self.ROUND):
            family, chain = harness.random_hmm_family(
                HMM_K, HMM_S, HMM_A, HMM_U, HMM_GAMMA,
                harness.run_rng(self.seed, 2 * i))
            o_true = np.stack([HMM_LAYOUT.vectorize(m.q, m.p) for m in family],
                              axis=1)
            inputs.append((family, chain, o_true))
        return inputs

    def prepare(self, inputs):
        return inputs

    def run_round(self, state, trace: bool, probe):
        fn = functools.partial(hmm_run, inputs=state, seed=self.seed, trace=trace)
        # No speed probes: inside a sweep they would compete with the workers
        # for the interpreter lock, and taken between sweeps they miss the
        # speed the two workers see (scaled times spread more than raw ones).
        return harness.sweep(fn, self.ROUND)

    def finish(self, ops):
        errors = [op.errors for op in ops if len(op.errors) == len(HMM_TRIPLES)]
        if not errors:
            return ["no learn-hmm run finished both estimates"]
        small = statistics.median(e[0] for e in errors)
        large = statistics.median(e[1] for e in errors)
        if large > 0.5 * small:
            return [f"median error {large:.4f} at m={HMM_TRIPLES[1]} is more "
                    f"than half of {small:.4f} at m={HMM_TRIPLES[0]}"]
        return []


WORKLOADS = {w.name: w for w in (IdentifyTwoRooms, SequentialObjectworld,
                                 LearnHmmSweep)}
