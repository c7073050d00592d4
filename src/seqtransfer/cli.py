"""Command-line entry point.

Subcommands: run-ptum, run-sequential (with --static ablation), learn-hmm,
diagnose, export-env.  ``main`` reads the config and resolves the output
directory once, for every subcommand.  Each subcommand accepts only the
keys it reads (``ExperimentConfig.check_keys``).  Exit codes: 0 success,
2 configuration error, 3 runtime failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
import traceback
from pathlib import Path

import numpy as np

from .envs import GenerativeModel
from .harness import (
    ConfigError,
    ExperimentConfig,
    aggregate,
    build_family,
    config_values,
    random_hmm_family,
    run_rng,
    simulate_hmm_observations,
    sweep,
    write_csv,
    write_json,
)
from .mdp import is_eps_optimal
from .ptum import ApproxModelSet, run_ptum, theta_eps_and_bound
from .sequential import SequenceTrace, SequentialConfig, run_sequential
from .spectral import ObservationLayout, estimate_errors, spectral_estimate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _identification(cfg: ExperimentConfig):
    """What ``run-ptum`` and ``diagnose`` share: the family, eps, delta,
    budget and true task of the config, the family's exact model set, and
    ``theta_eps_and_bound`` for the true task."""
    family, _ = build_family(cfg)
    eps = cfg.typed("eps", float, 0.1)
    delta = cfg.typed("delta", float, 0.01)
    budget = cfg.typed("budget", int, 100_000)
    star = cfg.typed("true_task", int, 0)
    cfg.check_keys()
    approx = ApproxModelSet(family)
    with config_values():
        theta_eps, bound = theta_eps_and_bound(approx, star, eps, delta, budget)
    return family, eps, delta, budget, star, approx, theta_eps, bound


def cmd_run_ptum(cfg: ExperimentConfig, out: Path, args) -> int:
    family, eps, delta, budget, star, approx, theta_eps, bound = _identification(cfg)

    def one_run(i):
        rng = run_rng(cfg.base_seed, i)
        g = GenerativeModel(family[star])
        res = run_ptum(approx, g, eps, delta, budget, rng)
        opt = is_eps_optimal(family[star], approx.values[star], res.policy, eps)
        return (i, res.tau, res.mode, int(opt), int(star in res.survived), res.queries_total)

    rows = sweep(one_run, cfg.num_runs)
    write_csv(out / "ptum_results.csv",
              ["run", "tau", "mode", "eps_optimal", "star_survived", "queries_total"],
              rows)
    taus = [r[1] for r in rows]
    summary = {
        "scenario": cfg.scenario,
        "eps": eps,
        "delta": delta,
        "num_runs": cfg.num_runs,
        "tau": dataclasses.asdict(aggregate(taus)),
        "eps_optimal_fraction": sum(r[3] for r in rows) / len(rows),
        "star_survived_fraction": sum(r[4] for r in rows) / len(rows),
        "theta_eps": sorted(theta_eps),
        "query_bound": bound,
    }
    write_json(out / "ptum_summary.json", summary)
    print(f"run-ptum: {cfg.num_runs} runs, mean tau {summary['tau']['mean']:.1f}, "
          f"eps-optimal fraction {summary['eps_optimal_fraction']:.3f}")
    return EXIT_OK


def _sequential_config(cfg: ExperimentConfig, static: bool) -> SequentialConfig:
    """``SequentialConfig`` over the keys the config sets; ``static`` turns
    pre-elimination off."""
    values = cfg.given(
        num_tasks_sequence=int, startup_tasks=int, startup_per_pair=int,
        post_sample_per_pair=int, eps=float, delta=float, delta_prime=float,
        rho=float, eta=float, rho_t=float, top_keep=int, budget=int,
        rho_final=float, rho_decay_tasks=int, rtp_restarts=int, rtp_iters=int,
    )
    if "num_tasks_sequence" in values:
        values["num_tasks"] = values.pop("num_tasks_sequence")
    if static:
        values.update(eta=0.0, pre_elimination=False)
    return SequentialConfig(**values)


def cmd_run_sequential(cfg: ExperimentConfig, out: Path, args) -> int:
    family, chain = build_family(cfg)
    if chain is None:
        raise ConfigError("run-sequential needs a scenario with a task chain")
    with config_values():
        seq_cfg = _sequential_config(cfg, args.static)
    cfg.check_keys()

    def one_run(i):
        rng = run_rng(cfg.base_seed, i)
        return i, run_sequential(seq_cfg, family, chain, rng)

    results = sweep(one_run, cfg.num_runs)
    rows = [(i, *row) for i, trace in results for row in trace.rows()]
    variant = "static" if args.static else "sequential"
    write_csv(out / f"{variant}_trace.csv", ["run", *SequenceTrace.COLUMNS], rows)
    transfer = [r for _, t in results for r in t.records if r.mode != "startup"]
    summary = {
        "variant": variant,
        "num_runs": cfg.num_runs,
        "eps_optimal_fraction": float(np.mean([
            t.eps_optimal_fraction() for _, t in results
        ])),
        "degraded_fraction": float(np.mean([
            t.degraded_fraction() for _, t in results
        ])),
        # The transfer tasks' solve queries, then their post-sample queries.
        "transfer_queries": [r.queries for r in transfer],
        "transfer_post_queries": [r.post_queries for r in transfer],
    }
    for key in ("transfer_queries", "transfer_post_queries"):
        summary[key] = dataclasses.asdict(aggregate(summary[key])) if transfer else None
    write_json(out / f"{variant}_summary.json", summary)
    print(f"run-sequential ({variant}): {cfg.num_runs} runs, "
          f"eps-optimal fraction {summary['eps_optimal_fraction']:.3f}")
    return EXIT_OK


def cmd_learn_hmm(cfg: ExperimentConfig, out: Path, args) -> int:
    if cfg.scenario != "synthetic-hmm":
        raise ConfigError("learn-hmm needs the synthetic-hmm scenario")
    k = cfg.typed("num_tasks", int, 3)
    S = cfg.typed("num_states", int, 2)
    A = cfg.typed("num_actions", int, 3)
    U = cfg.typed("num_rewards", int, 3)
    steps = cfg.typed("steps", int, 300)
    per_pair = cfg.typed("samples_per_pair", int, 20)
    gamma = cfg.typed("gamma", float, 0.9)
    cfg.check_keys()
    with config_values():
        if min(k, S, A, U, per_pair) < 1:
            raise ValueError("num_tasks, num_states, num_actions, num_rewards and "
                             "samples_per_pair must be at least 1")
        # With fewer than k triples the second moment has rank below k.
        if steps < 3 * k:
            raise ValueError(f"steps must be at least 3 * num_tasks = {3 * k}, "
                             f"got {steps}")
        if not 0.0 <= gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {gamma}")

    def one_run(i):
        rng = run_rng(cfg.base_seed, i)
        family, chain = random_hmm_family(k, S, A, U, gamma, rng)
        layout = ObservationLayout(S, A, U)
        o_true = np.stack([layout.vectorize(m.q, m.p) for m in family], axis=1)
        obs, _ = simulate_hmm_observations(family, chain, steps, per_pair, rng)
        est = spectral_estimate(obs, k, layout, restarts=50, iters=50, rng=rng,
                                reference=o_true)
        return (i, *estimate_errors(est, o_true, chain.transition))

    rows = sweep(one_run, cfg.num_runs)
    write_csv(out / "hmm_results.csv", ["run", "o_col_err_max", "t_err_max"], rows)
    summary = {
        "num_runs": cfg.num_runs,
        "steps": steps,
        "o_col_err_max": dataclasses.asdict(aggregate([r[1] for r in rows])),
        "t_err_max": dataclasses.asdict(aggregate([r[2] for r in rows])),
    }
    write_json(out / "hmm_summary.json", summary)
    print(f"learn-hmm: mean max column error {summary['o_col_err_max']['mean']:.4f}")
    return EXIT_OK


def cmd_diagnose(cfg: ExperimentConfig, out: Path, args) -> int:
    _, eps, delta, _, star, approx, theta_eps, bound = _identification(cfg)
    gap = approx.min_gap(star)
    report = {
        "scenario": cfg.scenario,
        "true_task": star,
        "eps": eps,
        "delta": delta,
        "theta_eps": sorted(theta_eps),
        "query_bound": bound,
        "min_gap": gap,
    }
    write_json(out / "diagnose.json", report)
    print(f"diagnose: |Theta_eps| = {len(theta_eps)}, min gap {gap:.6g}, "
          f"bound {bound:.6g}")
    return EXIT_OK


def cmd_export_env(cfg: ExperimentConfig, out: Path, args) -> int:
    family, chain = build_family(cfg)
    cfg.check_keys()
    doc = {"models": [m.to_json_dict() for m in family]}
    if chain is not None:
        doc["chain"] = {
            "transition": chain.transition.tolist(),
            "initial": chain.initial.tolist(),
        }
    write_json(out / "models.json", doc)
    print(f"export-env: wrote {len(family)} models to {out / 'models.json'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqtransfer",
        description="Active model identification and sequential transfer experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("config", help="path to a JSON experiment config")
        p.add_argument("--output-dir", default=None, help="where to write results")
        p.set_defaults(fn=fn)
        return p

    add("run-ptum", cmd_run_ptum, help="single-task identification sweep")
    seq = add("run-sequential", cmd_run_sequential, help="sequential transfer run")
    seq.add_argument("--static", action="store_true",
                     help="disable pre-elimination (static-transfer ablation)")
    add("learn-hmm", cmd_learn_hmm, help="synthetic spectral-recovery benchmark")
    add("diagnose", cmd_diagnose, help="identifiability and bound report")
    add("export-env", cmd_export_env, help="emit the task family as JSON")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = ExperimentConfig.from_file(args.config)
        return args.fn(cfg, Path(args.output_dir or cfg.output_dir or "."), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception:
        traceback.print_exc()
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
