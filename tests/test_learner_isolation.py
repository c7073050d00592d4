"""The learner sees only what the paper allows.

``sequential.Learner`` is driven alone through a seeded 40-task pair on the
paper's objectworld chain, with oracles that expose only the public surface
of ``GenerativeModel``: any other attribute raises, and the model behind an
oracle is out of the learner's reach.  The test draws the tasks itself, from
the stream the learner uses, so the learner's policies and its columns of
the trace must equal ``run_sequential``'s bit for bit.  The only truth it
is handed is its documented alignment ``reference``.  ``tests/test_surface.py``
checks the learner's code for the paths one stream does not reach.
"""
import numpy as np
import pytest

from seqtransfer.envs import (
    GenerativeModel,
    ObjectworldSpec,
    build_objectworld_family,
    paper_objectworld_duplicates,
    sample_initial_task,
    sample_next_task,
    successor_chain,
)
from seqtransfer.harness import run_rng
from seqtransfer.sequential import Learner, SequentialConfig, run_sequential
from seqtransfer.spectral import ObservationLayout

SEED = 19
PUBLIC = frozenset({"num_states", "num_actions", "reward_support", "gamma",
                    "queries_used", "query_many", "query_table"})
LEARNER_COLUMNS = ("mode", "queries", "post_queries", "active_set_size", "delta_h",
                   "degraded", "tau")


def sealed_oracle(model):
    """A generative model of ``model`` that exposes only ``PUBLIC``.  The
    sampler is held in this closure, not in an attribute."""
    oracle = GenerativeModel(model)

    class SealedOracle:
        __slots__ = ()

        def __getattribute__(self, name):
            if name not in PUBLIC:
                raise AttributeError(f"the learner read the oracle's {name!r}")
            return getattr(oracle, name)

    return SealedOracle()


@pytest.fixture(scope="module")
def setup():
    family = build_objectworld_family(
        ObjectworldSpec(duplicate_of=paper_objectworld_duplicates()), 8,
        run_rng(SEED, 2 ** 31))
    shared = dict(num_tasks=40, startup_tasks=24, startup_per_pair=20,
                  post_sample_per_pair=10, eps=0.5, delta=1e-6, delta_prime=0.1,
                  rho=0.002, rho_t=0.001, top_keep=3, rtp_restarts=5, rtp_iters=30)
    configs = [SequentialConfig(eta=eta, pre_elimination=pre, **shared)
               for pre, eta in ((True, 0.087), (False, 0.0))]
    return family, successor_chain(8), configs


def learner_alone(cfg, family, chain, rng):
    """(task, policy, columns) per task of a ``Learner`` on sealed oracles."""
    base = family[0]
    layout = ObservationLayout(base.num_states, base.num_actions, base.num_rewards)
    reference = np.stack([layout.vectorize(m.q, m.p) for m in family], axis=1)
    learner = Learner(cfg, layout, base.reward_support, base.gamma, reference)
    out = []
    for h in range(cfg.num_tasks):
        task = (sample_initial_task(chain, rng) if h == 0
                else sample_next_task(chain, task, rng))
        out.append((task, *learner.solve(sealed_oracle(family[task]), rng)))
    return out


def test_sealed_oracle_exposes_only_the_public_surface(setup):
    family = setup[0]
    oracle = sealed_oracle(family[0])
    assert oracle.num_states == family[0].num_states
    for name in ("_mdp", "_pvals", "query", "query_batch", "__dict__", "p"):
        with pytest.raises(AttributeError):
            getattr(oracle, name)


@pytest.mark.parametrize("variant", [0, 1], ids=["pre-elimination", "static"])
def test_learner_alone_matches_run_sequential(setup, variant, monkeypatch):
    family, chain, configs = setup
    cfg = configs[variant]
    policies, solve = [], Learner.solve

    def recording(self, g, rng):
        policy, columns = solve(self, g, rng)
        policies.append(policy)
        return policy, columns

    with monkeypatch.context() as patch:
        patch.setattr(Learner, "solve", recording)
        records = run_sequential(cfg, family, chain, run_rng(SEED, 0)).records
    alone = learner_alone(cfg, family, chain, run_rng(SEED, 0))
    assert len(alone) == len(records) == len(policies) == cfg.num_tasks
    assert any(r.tau is not None for r in records)
    for (task, policy, columns), rec, want in zip(alone, records, policies):
        assert task == rec.true_task
        assert np.array_equal(policy, want)
        assert columns.keys() == set(LEARNER_COLUMNS)
        assert [repr(columns[c]) for c in LEARNER_COLUMNS] == \
            [repr(getattr(rec, c)) for c in LEARNER_COLUMNS], rec.h
