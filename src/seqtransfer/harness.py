"""Experiment orchestration: config files, seed sweeps, aggregation, CSV.

Every run of a sweep gets an independent counter-based random stream
derived from (base_seed, run_index), so results are bit-reproducible and
order-independent regardless of how the sweep is scheduled.
"""
from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import stats

from .envs import (
    ObjectworldSpec,
    TaskChain,
    build_objectworld_family,
    multi_goal_family,
    paper_objectworld_duplicates,
    sample_task_path,
    successor_chain,
    two_rooms_family,
)
from .mdp import TabularMdp
from .spectral import ObservationLayout

SCENARIOS = ("two-rooms", "multi-goal", "objectworld", "synthetic-hmm")


class ConfigError(ValueError):
    """The experiment configuration is missing or malformed."""


@contextmanager
def config_values():
    """Re-raise a ValueError raised while building from config values as
    the ConfigError it stands for."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _typed(doc: dict, key, kind, default):
    """``doc[key]`` converted by ``kind`` (int or float), or ``default`` when
    the key is absent or null; a value ``kind`` rejects, a boolean, or a
    non-integral float for an int, is a ConfigError."""
    value = doc.get(key)
    if value is None:
        return default
    if isinstance(value, bool):
        raise ConfigError(
            f"{key!r} must be a number ({kind.__name__}), got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{key!r} must be an integer, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(
            f"{key!r} must be a number ({kind.__name__}), got {value!r}") from None


@dataclass
class ExperimentConfig:
    """Validated experiment description loaded from a JSON document."""

    scenario: str
    num_runs: int
    base_seed: int
    params: dict = field(default_factory=dict)
    output_dir: Path | None = None
    # The params keys ``typed``, ``given`` and ``value`` have been asked for.
    keys_read: set = field(default_factory=set, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(
                f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}"
            )
        if self.num_runs < 1:
            raise ConfigError("num_runs must be at least 1")
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be non-negative, got {self.base_seed}")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a JSON object")
        try:
            scenario = doc["scenario"]
        except KeyError:
            raise ConfigError("config must set 'scenario'") from None
        params = {
            key: value for key, value in doc.items()
            if key not in ("scenario", "num_runs", "base_seed", "output_dir")
        }
        out_dir = doc.get("output_dir")
        if out_dir is not None and not isinstance(out_dir, str):
            raise ConfigError(f"'output_dir' must be a path string, got {out_dir!r}")
        return cls(
            scenario=scenario,
            num_runs=_typed(doc, "num_runs", int, 1),
            base_seed=_typed(doc, "base_seed", int, 0),
            params=params,
            output_dir=Path(out_dir) if out_dir else None,
        )

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    def typed(self, key, kind, default):
        """Parameter ``key`` converted by ``kind`` (int or float), or
        ``default`` when it is absent or null; raises ConfigError when
        ``kind`` rejects it."""
        self.keys_read.add(key)
        return _typed(self.params, key, kind, default)

    def given(self, **kinds) -> dict:
        """``typed`` of each ``key=kind`` that the config sets to a non-null
        value; a key left out or set to null is left out of the result too,
        so the callee's own default applies."""
        self.keys_read.update(kinds)
        return {key: _typed(self.params, key, kind, None)
                for key, kind in kinds.items() if self.params.get(key) is not None}

    def value(self, key):
        """Parameter ``key`` as the config holds it, or None."""
        self.keys_read.add(key)
        return self.params.get(key)

    def check_keys(self) -> None:
        """Raise ConfigError naming every parameter no ``typed``, ``given``
        or ``value`` call has asked for: a subcommand calls this once it
        has read its knobs, so a misspelt or stale key does not run with
        the default."""
        unknown = sorted(set(self.params) - self.keys_read)
        if unknown:
            raise ConfigError(f"unknown config keys for this command and scenario: "
                              f"{', '.join(map(repr, unknown))}")


def run_rng(base_seed: int, run_index: int) -> np.random.Generator:
    """Independent counter-based stream for one run of a sweep."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence([base_seed, run_index]))
    )


def sweep(fn, num_runs: int):
    """Run fn(run_index) for each run; results ordered by run index."""
    return [fn(i) for i in range(num_runs)]


@dataclass(frozen=True)
class AggregateResult:
    """Mean with a Student-t confidence half-width."""

    mean: float
    sd: float
    half_width: float
    count: int
    level: float


def aggregate(values, level: float = 0.99) -> AggregateResult:
    """Mean, sample sd and t_{level, n-1} * sd / sqrt(n) half-width.

    A single value yields an infinite half-width; an empty list is an error.
    """
    vals = np.asarray(list(values), dtype=float)
    if vals.size == 0:
        raise ValueError("cannot aggregate an empty list")
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must be in (0, 1)")
    n = vals.size
    mean = float(vals.mean())
    if n == 1:
        return AggregateResult(mean=mean, sd=0.0, half_width=math.inf, count=1, level=level)
    sd = float(vals.std(ddof=1))
    quantile = float(stats.t.ppf(0.5 + level / 2.0, n - 1))
    return AggregateResult(
        mean=mean, sd=sd, half_width=quantile * sd / math.sqrt(n),
        count=n, level=level,
    )


def format_cell(value) -> str:
    """CSV cell with full round-trip float formatting; None is empty."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_csv(header, rows) -> str:
    """Comma-separated text with a header row and LF line endings."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(c) for c in row))
    return "\n".join(lines) + "\n"


def _write_text(path, text: str) -> None:
    """``text`` written to ``path`` (LF line endings) in a directory made
    only now, so a run that fails before it writes leaves none."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, newline="\n")


def write_csv(path, header, rows) -> None:
    """``format_csv(header, rows)`` written to ``path``."""
    _write_text(path, format_csv(header, rows))


def _finite_or_null(doc):
    """``doc`` with every non-finite float, at any depth of its dicts,
    lists and tuples, replaced by None."""
    if isinstance(doc, float):
        return doc if math.isfinite(doc) else None
    if isinstance(doc, dict):
        return {key: _finite_or_null(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_finite_or_null(value) for value in doc]
    return doc


def write_json(path, doc) -> None:
    """``doc`` as indented, key-sorted, strictly valid JSON written to
    ``path``: a non-finite float (an infinite half-width or bound) is
    written as null."""
    text = json.dumps(_finite_or_null(doc), indent=2, sort_keys=True, allow_nan=False)
    _write_text(path, text + "\n")


def build_family(cfg: ExperimentConfig):
    """The task family (and chain, when one applies) for a scenario, from
    the knobs the config sets (``given``) over the constructors' defaults;
    objectworld has 8 tasks unless ``num_tasks`` says otherwise.  A value
    the constructors reject, or a family of fewer than 2 tasks, is a
    ConfigError."""
    chain = None
    with config_values():
        if cfg.scenario == "two-rooms":
            family = two_rooms_family(**cfg.given(
                num_tasks=int, width=int, height=int, action_failure_prob=float,
                gamma=float))
        elif cfg.scenario == "multi-goal":
            family = multi_goal_family(**cfg.given(
                num_tasks=int, width=int, height=int, gamma=float))
        elif cfg.scenario == "objectworld":
            duplicates = cfg.value("duplicate_of")
            if duplicates == "paper":
                duplicates = paper_objectworld_duplicates()
            elif duplicates is not None:
                try:
                    duplicates = {int(a): int(b) for a, b in dict(duplicates).items()}
                except (TypeError, ValueError):
                    raise ValueError("'duplicate_of' must be \"paper\" or map tasks "
                                     f"to tasks, got {duplicates!r}") from None
            spec = ObjectworldSpec(duplicate_of=duplicates, **cfg.given(
                side=int, gamma=float, transition_failure_prob=float,
                reward_failure_prob=float))
            k = cfg.typed("num_tasks", int, 8)
            family = build_objectworld_family(spec, k, run_rng(cfg.base_seed, 2 ** 31))
            chain = successor_chain(k, **cfg.given(p_succ=float, p_skip=float))
        else:
            raise ConfigError(f"scenario {cfg.scenario!r} has no task family")
        if len(family) < 2:
            raise ValueError(f"a task family needs at least 2 tasks, got {len(family)}")
    return family, chain


def random_hmm_family(k: int, S: int, A: int, U: int, gamma: float, rng):
    """Random task family and chain for the synthetic spectral benchmark.

    Dirichlet-distributed rows keep the observation columns well separated
    with probability 1.  The chain is a random permutation blended with a
    little random noise: the permutation keeps consecutive observations
    strongly correlated (the multi-view moments need that conditioning),
    the noise keeps the chain ergodic and the problem non-trivial.
    """
    family = []
    support = np.linspace(0.0, 1.0, U)
    for _ in range(k):
        p = rng.dirichlet(np.ones(S), size=(S, A))
        q = rng.dirichlet(np.ones(U), size=(S, A))
        family.append(TabularMdp(p=p, reward_support=support, q=q, gamma=gamma))
    perm = np.eye(k)[:, rng.permutation(k)]
    raw = rng.dirichlet(np.ones(k), size=k).T  # columns sum to 1
    trans = 0.85 * perm + 0.1 * raw + 0.05 / k
    init = np.full(k, 1.0 / k)
    return family, TaskChain(transition=trans, initial=init)


def simulate_hmm_observations(family, chain: TaskChain, steps: int, per_pair: int, rng):
    """Hidden chain rollout with one empirical-model observation per step.

    The path takes one double per step, all drawn at once by
    ``sample_task_path``, bit-identical to one ``rng.choice`` per step.
    Each observation holds the empirical reward and transition frequencies
    from per_pair independent draws at every (s, a); draws are batched per
    task for speed (equivalent in law to querying one sample at a time),
    from the model's ``padded_pvals`` rows that ``GenerativeModel`` draws
    from, the reward row first at each (s, a); a padded row draws what its
    unpadded row draws, and its last S or U counts are the row's.
    Returns (observations array of shape (steps, d), hidden path).
    """
    base = family[0]
    S, A, U = base.num_states, base.num_actions, base.num_rewards
    layout = ObservationLayout(S, A, U)
    path = sample_task_path(chain, steps, rng)
    obs = np.empty((steps, layout.dim))
    for j, mdp in enumerate(family):
        rows = np.flatnonzero(path == j)
        if rows.size == 0:
            continue
        pvals = mdp.padded_pvals
        q_hat = np.empty((rows.size, S, A, U))
        p_hat = np.empty((rows.size, S, A, S))
        for s in range(S):
            for a in range(A):
                q_hat[:, s, a] = rng.multinomial(per_pair, pvals[s, a, 1],
                                                 size=rows.size)[:, -U:] / per_pair
                p_hat[:, s, a] = rng.multinomial(per_pair, pvals[s, a, 0],
                                                 size=rows.size)[:, -S:] / per_pair
        obs[rows] = layout.vectorize(q_hat, p_hat)
    return obs, path
