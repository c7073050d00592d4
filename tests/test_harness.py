"""Unit tests for the experiment harness and the command-line interface."""
import inspect
import json
import math
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
from test_envs import reference_task_path

from seqtransfer import harness
from seqtransfer.cli import EXIT_CONFIG, EXIT_OK, _sequential_config, main
from seqtransfer.envs import (
    ObjectworldSpec,
    build_objectworld_family,
    multi_goal_family,
    successor_chain,
    two_rooms_family,
)
from seqtransfer.harness import (
    AggregateResult,
    ConfigError,
    ExperimentConfig,
    aggregate,
    build_family,
    format_cell,
    random_hmm_family,
    run_rng,
    simulate_hmm_observations,
    sweep,
    write_csv,
    write_json,
)
from seqtransfer.mdp import TabularMdp
from seqtransfer.ptum import ApproxModelSet
from seqtransfer.sequential import SequentialConfig
from seqtransfer.spectral import ObservationLayout


class TestConfig:
    def test_missing_scenario(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"num_runs": 3})

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"scenario": "frozen-lake"})

    def test_non_object_root(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(["scenario", "two-rooms"])

    def test_zero_runs(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"scenario": "two-rooms", "num_runs": 0})

    def test_extra_keys_land_in_params(self):
        cfg = ExperimentConfig.from_dict(
            {"scenario": "two-rooms", "num_runs": 2, "eps": 0.1}
        )
        assert cfg.params == {"eps": 0.1}
        assert cfg.typed("eps", float, 0.5) == 0.1
        assert cfg.typed("missing", int, 7) == 7

    def test_given_holds_only_the_keys_set(self):
        cfg = ExperimentConfig.from_dict(
            {"scenario": "two-rooms", "eps": 1, "width": 4.0, "gamma": None})
        got = cfg.given(eps=float, width=int, gamma=float, height=int)
        assert got == {"eps": 1.0, "width": 4}
        assert type(got["eps"]) is float and type(got["width"]) is int
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                {"scenario": "two-rooms", "width": 2.5}).given(width=int)

    def test_from_file_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(path)

    def test_from_file_missing(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(tmp_path / "absent.json")


class TestRngAndSweep:
    def test_run_rng_reproducible(self):
        a = run_rng(17, 3).random(5)
        b = run_rng(17, 3).random(5)
        assert np.array_equal(a, b)

    def test_run_rng_streams_differ(self):
        a = run_rng(17, 3).random(5)
        b = run_rng(17, 4).random(5)
        assert not np.array_equal(a, b)

    def test_sweep_ordering(self):
        assert sweep(lambda i: i * i, 6) == [0, 1, 4, 9, 16, 25]

    def test_sweep_serial(self):
        assert sweep(lambda i: -i, 3) == [0, -1, -2]


class TestAggregate:
    def test_constant_values(self):
        res = aggregate([2.0, 2.0, 2.0], level=0.95)
        assert res.mean == 2.0
        assert res.sd == 0.0
        assert res.half_width == 0.0

    def test_two_points_t_quantile(self):
        # Sample {0, 2}: mean 1, sd sqrt(2), so the 95% half-width is
        # t_{0.975, 1} * sqrt(2) / sqrt(2) = 12.7062...
        res = aggregate([0.0, 2.0], level=0.95)
        assert res.mean == pytest.approx(1.0)
        assert res.half_width == pytest.approx(12.706204736, abs=1e-6)

    def test_large_sample_approaches_z(self):
        vals = np.concatenate([np.zeros(5000), np.ones(5000)])
        res = aggregate(vals, level=0.95)
        z_width = 1.959964 * res.sd / math.sqrt(10_000)
        assert res.half_width == pytest.approx(z_width, rel=1e-3)

    def test_single_value(self):
        res = aggregate([3.5])
        assert res.mean == 3.5
        assert math.isinf(res.half_width)
        assert res.count == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            aggregate([1.0, 2.0], level=1.0)

    def test_as_dict_round_trip(self):
        # The summaries write ``asdict`` of a result.
        res = AggregateResult(mean=1.0, sd=0.5, half_width=0.2, count=9, level=0.99)
        doc = asdict(res)
        assert list(doc) == ["mean", "sd", "half_width", "count", "level"]
        assert AggregateResult(**doc) == res


def strict_json(path):
    """The JSON document at ``path``, refusing Infinity, -Infinity and NaN,
    which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not valid JSON")
    return json.loads(Path(path).read_text(), parse_constant=refuse)


class TestCsv:
    def test_format_cell(self):
        assert format_cell(True) == "1"
        assert format_cell(False) == "0"
        assert format_cell(0.1) == "0.1"
        assert format_cell(1 / 3) == repr(1 / 3)
        assert format_cell("abc") == "abc"
        assert format_cell(7) == "7"

    def test_write_csv_lf_and_repr(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ["a", "b"], [(1, 0.1), (2, True)])
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw == b"a,b\n1,0.1\n2,1\n"

    def test_write_json_writes_non_finite_floats_as_null(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(path, {"a": math.inf, "b": [1.5, -math.inf, (math.nan, 2)],
                          "c": {"d": float(np.float64("inf")), "e": 7}})
        assert strict_json(path) == {"a": None, "b": [1.5, None, [None, 2]],
                                     "c": {"d": None, "e": 7}}


class TestFamilies:
    def test_build_two_rooms_family(self):
        cfg = ExperimentConfig.from_dict({"scenario": "two-rooms", "num_tasks": 3})
        family, chain = build_family(cfg)
        assert len(family) == 3 and chain is None

    def test_build_objectworld_reproducible(self):
        doc = {"scenario": "objectworld", "num_tasks": 4, "base_seed": 5}
        fam1, chain1 = build_family(ExperimentConfig.from_dict(doc))
        fam2, chain2 = build_family(ExperimentConfig.from_dict(doc))
        assert all(np.array_equal(a.q, b.q) for a, b in zip(fam1, fam2))
        assert np.array_equal(chain1.transition, chain2.transition)

    def test_synthetic_family_shapes(self):
        family, chain = random_hmm_family(3, 2, 3, 3, 0.9, np.random.default_rng(0))
        assert len(family) == 3
        assert chain.transition.shape == (3, 3)
        assert np.allclose(chain.transition.sum(axis=0), 1.0)

    def test_simulated_observations_match_models(self):
        rng = np.random.default_rng(1)
        family, chain = random_hmm_family(2, 2, 2, 3, 0.9, rng)
        obs, path = simulate_hmm_observations(family, chain, 400, 500, rng)
        layout = ObservationLayout(2, 2, 3)
        assert obs.shape == (400, layout.dim)
        assert np.all((0 <= path) & (path < 2))
        for j in range(2):
            rows = path == j
            true_vec = layout.vectorize(family[j].q, family[j].p)
            err = np.abs(obs[rows].mean(axis=0) - true_vec).max()
            assert err < 0.02

    def test_simulation_draws_each_unpadded_row(self):
        # Per task, then per (s, a), one rng.multinomial call of size= on
        # the reward row and one on the next-state row, as the model's
        # repaired rows: the padded table changes no draw.
        for S, U in ((2, 3), (3, 2)):
            rng, ref = np.random.default_rng(4), np.random.default_rng(4)
            family, chain = random_hmm_family(2, S, 2, U, 0.9, np.random.default_rng(S))
            obs, path = simulate_hmm_observations(family, chain, 30, 7, rng)
            want = np.empty_like(obs)
            layout = ObservationLayout(S, 2, U)
            ref.random(30)   # the path's doubles
            for j, mdp in enumerate(family):
                rows = np.flatnonzero(path == j)
                q_hat = np.empty((rows.size, S, 2, U))
                p_hat = np.empty((rows.size, S, 2, S))
                for s in range(S):
                    for a in range(2):
                        q_hat[:, s, a] = ref.multinomial(7, mdp.q[s, a], size=rows.size) / 7
                        p_hat[:, s, a] = ref.multinomial(7, mdp.p[s, a], size=rows.size) / 7
                want[rows] = layout.vectorize(q_hat, p_hat)
            assert obs.tobytes() == want.tobytes()
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_simulates_rows_within_tolerance(self):
        # Rows that TabularMdp accepts within PROB_TOL (a negative entry, an
        # entry above 1) are drawn from as clipped, renormalised rows.
        p = np.array([[[1 + 1e-10, -1e-10]], [[1 + 5e-10, 0.0]]])
        q = np.array([[[0.0, 1 + 5e-10]], [[0.5, 0.5]]])
        family = [TabularMdp(p=p, reward_support=np.array([0.0, 1.0]), q=q,
                             gamma=0.9)] * 2
        obs, path = simulate_hmm_observations(family, successor_chain(2), 6, 5,
                                              np.random.default_rng(2))
        layout = ObservationLayout(2, 1, 2)
        for row in obs:
            q_hat, p_hat = layout.unpack(row)
            assert p_hat[:, 0].tolist() == [[1.0, 0.0], [1.0, 0.0]]
            assert q_hat[0, 0].tolist() == [0.0, 1.0]


def same_objects(a, b):
    """Dataclass instances (or Nones, or lists or tuples of them) equal
    field by field, arrays by value."""
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same_objects, a, b))
    if a is None or b is None:
        return a is b
    return type(a) is type(b) and all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))


def constructor_defaults(*constructors):
    """Parameter name to default, over the fields of dataclasses and the
    keyword defaults of functions."""
    table = {}
    for c in constructors:
        if is_dataclass(c):
            table.update({f.name: f.default for f in fields(c)})
        else:
            table.update({name: p.default
                          for name, p in inspect.signature(c).parameters.items()
                          if p.default is not p.empty})
    return table


def forwarded_keys(monkeypatch, build):
    """The keys ``build()`` asks ``ExperimentConfig.given`` for."""
    keys = []
    given = ExperimentConfig.given

    def spy(self, **kinds):
        keys.extend(kinds)
        return given(self, **kinds)

    with monkeypatch.context() as m:
        m.setattr(ExperimentConfig, "given", spy)
        build()
    return keys


SCENARIO_CONSTRUCTORS = [
    ("two-rooms", (two_rooms_family,)),
    ("multi-goal", (multi_goal_family,)),
    ("objectworld", (ObjectworldSpec, successor_chain)),
]


class TestSingleSource:
    """The constructors own every default the config layer forwards."""

    def test_scenario_only_builds_the_default_families(self):
        def built(doc):
            return build_family(ExperimentConfig.from_dict(doc))

        family, chain = built({"scenario": "two-rooms"})
        assert chain is None and same_objects(family, two_rooms_family())
        family, chain = built({"scenario": "multi-goal"})
        assert chain is None and same_objects(family, multi_goal_family())
        family, chain = built({"scenario": "objectworld"})
        assert same_objects(family, build_objectworld_family(
            ObjectworldSpec(), 8, run_rng(0, 2 ** 31)))
        assert same_objects(chain, successor_chain(8))

    def test_scenario_only_gives_the_default_run_config(self):
        cfg = ExperimentConfig.from_dict({"scenario": "objectworld"})
        assert _sequential_config(cfg, static=False) == SequentialConfig()
        assert _sequential_config(cfg, static=True) == SequentialConfig(
            eta=0.0, pre_elimination=False)

    def test_null_equals_absent(self):
        nulls = ExperimentConfig.from_dict({
            "scenario": "objectworld", "side": None, "gamma": None,
            "p_succ": None, "num_tasks": None, "duplicate_of": None,
            "num_tasks_sequence": None, "eta": None, "rtp_iters": None,
        })
        absent = ExperimentConfig.from_dict({"scenario": "objectworld"})
        assert same_objects(build_family(nulls), build_family(absent))
        assert _sequential_config(nulls, False) == _sequential_config(absent, False)

    @pytest.mark.parametrize("scenario, constructors", SCENARIO_CONSTRUCTORS)
    def test_every_forwarded_family_key_names_a_default(self, monkeypatch, scenario,
                                                        constructors):
        # A misspelt key would otherwise surface only as a TypeError (exit
        # 3) once some config sets it.
        absent = ExperimentConfig.from_dict({"scenario": scenario})
        keys = forwarded_keys(monkeypatch, lambda: build_family(absent))
        table = constructor_defaults(*constructors)
        assert keys and set(keys) <= set(table)
        every = ExperimentConfig.from_dict(
            {"scenario": scenario, **{key: table[key] for key in keys}})
        assert same_objects(build_family(every), build_family(absent))

    @pytest.mark.parametrize("static", [False, True])
    def test_every_forwarded_run_key_names_a_default(self, monkeypatch, static):
        absent = ExperimentConfig.from_dict({"scenario": "objectworld"})
        keys = forwarded_keys(monkeypatch, lambda: _sequential_config(absent, static))
        table = constructor_defaults(SequentialConfig)
        field_of = {key: "num_tasks" if key == "num_tasks_sequence" else key
                    for key in keys}
        # Every field but pre_elimination, which --static sets, is a key, so
        # a field added or removed cannot leave a missing or stale key.
        assert keys and set(field_of.values()) == set(table) - {"pre_elimination"}
        every = ExperimentConfig.from_dict(
            {"scenario": "objectworld", **{key: table[field_of[key]] for key in keys}})
        assert _sequential_config(every, static) == _sequential_config(absent, static)


class TestSimulationStream:
    @pytest.mark.parametrize("steps", [0, 1, 2, 1500])
    def test_equals_one_choice_per_step(self, steps, monkeypatch):
        def criterion_7_run():
            # Criterion 7's first run: its family, then its stream.
            rng = run_rng(707, 0)
            family, chain = random_hmm_family(3, 2, 3, 3, 0.9, rng)
            obs, path = simulate_hmm_observations(family, chain, steps, 20, rng)
            return obs, path, repr(rng.bit_generator.state)

        obs, path, state = criterion_7_run()
        monkeypatch.setattr(harness, "sample_task_path", reference_task_path)
        obs_ref, path_ref, state_ref = criterion_7_run()
        assert path.shape == (steps,)
        assert np.array_equal(path, path_ref) and path.dtype == path_ref.dtype
        assert obs.tobytes() == obs_ref.tobytes()
        assert state == state_ref


class TestCli:
    @staticmethod
    def write_cfg(tmp_path, doc, name="cfg.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_missing_config_file(self, tmp_path):
        code = main(["diagnose", str(tmp_path / "none.json")])
        assert code == EXIT_CONFIG

    def test_config_file_not_utf8(self, tmp_path, capsys):
        # This exited 3 with a UnicodeDecodeError traceback.
        path = tmp_path / "cfg.json"
        path.write_bytes(b'\xff\xfe{"scenario": "two-rooms"}')
        assert main(["diagnose", str(path), "--output-dir", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err

    def test_unknown_subcommand(self, capsys):
        assert main(["not-a-command", "x.json"]) == EXIT_CONFIG
        capsys.readouterr()

    def test_bad_scenario_config(self, tmp_path):
        cfg = self.write_cfg(tmp_path, {"scenario": "nope"})
        assert main(["diagnose", cfg]) == EXIT_CONFIG

    @pytest.mark.parametrize("command, doc", [
        ("diagnose", {"scenario": "two-rooms", "eps": "abc"}),
        ("export-env", {"scenario": "objectworld",
                        "transition_failure_prob": [0.1, 0.2]}),
        # A JSON boolean would otherwise convert to 1 or 0.
        ("export-env", {"scenario": "objectworld", "num_runs": True,
                        "num_tasks": 3, "side": 2}),
        ("diagnose", {"scenario": "two-rooms", "eps": False}),
        # Each of these two exited 3 with a TypeError from ``Path``.
        ("export-env", {"scenario": "two-rooms", "output_dir": 5}),
        ("export-env", {"scenario": "two-rooms", "output_dir": True}),
    ])
    def test_malformed_value_is_a_config_error(self, tmp_path, capsys, command, doc):
        cfg = self.write_cfg(tmp_path, doc)
        assert main([command, cfg, "--output-dir", str(tmp_path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, doc", [
        ("export-env", {"scenario": "objectworld", "duplicate_of": [1, 0]}),
        ("export-env", {"scenario": "objectworld", "duplicate_of": {"x": 0}}),
        ("export-env", {"scenario": "objectworld", "duplicate_of": {"1": 9}}),
        ("export-env", {"scenario": "objectworld", "p_succ": 0.99, "p_skip": 0.05}),
        ("export-env", {"scenario": "objectworld", "reward_failure_prob": 1.5}),
        ("export-env", {"scenario": "two-rooms", "width": 1}),
        ("export-env", {"scenario": "multi-goal", "num_tasks": 9}),
        ("run-sequential", {"scenario": "objectworld", "eps": -1}),
        ("run-sequential", {"scenario": "objectworld", "rho": float("nan")}),
        *[(command, {"scenario": "two-rooms", **knob})
          for command in ("diagnose", "run-ptum")
          for knob in ({"true_task": -1}, {"true_task": 12}, {"eps": float("nan")},
                       {"eps": -0.1}, {"budget": -5}, {"delta": 2},
                       {"delta": float("nan")})],
        # These exited 3: a negative seed at the first run's stream, and a
        # NaN chain probability at the first draw of the task path.
        ("run-ptum", {"scenario": "two-rooms", "base_seed": -1}),
        ("run-sequential", {"scenario": "objectworld", "p_succ": float("nan")}),
        # A duplicate_of task key out of range, like {"1": 9}'s base: -1 made
        # task 7 a duplicate and exited 0, 8 exited 3 with an IndexError.
        ("export-env", {"scenario": "objectworld", "duplicate_of": {"-1": 0}, "base_seed": 3}),
        ("export-env", {"scenario": "objectworld", "duplicate_of": {"8": 0}}),
        # Two tasks with one best goal cell: width 2 exited 0 with equal
        # tasks, and height 2 (tasks 3 and 6) exited 3 from the planner.
        ("export-env", {"scenario": "multi-goal", "width": 2}),
        ("diagnose", {"scenario": "multi-goal", "height": 2}),
    ])
    def test_value_a_constructor_rejects_is_a_config_error(self, tmp_path, capsys,
                                                           command, doc):
        # Each of these exited 3 with a traceback from the family, chain,
        # run-config or identification bound, or (a true task of -1, and on
        # diagnose a NaN or negative eps or budget) exited 0.
        cfg = self.write_cfg(tmp_path, doc)
        assert main([command, cfg, "--output-dir", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err

    @pytest.mark.parametrize("command, doc", [
        # A misspelt knob ran with the default width and exited 0.
        ("export-env", {"scenario": "two-rooms", "widht": 3}),
        # A knob removed from the run config was ignored like any other.
        ("run-sequential", {"scenario": "objectworld", "fallback_per_pair": 2}),
        # Knobs of another subcommand or scenario.
        ("export-env", {"scenario": "two-rooms", "p_succ": 0.9}),
        ("export-env", {"scenario": "objectworld", "eps": 0.1}),
        ("diagnose", {"scenario": "two-rooms", "steps": 300}),
        ("run-ptum", {"scenario": "two-rooms", "rho": 0.1}),
        ("learn-hmm", {"scenario": "synthetic-hmm", "eps": None}),
    ])
    def test_unknown_key_is_a_config_error(self, tmp_path, capsys, command, doc):
        cfg = self.write_cfg(tmp_path, doc)
        out = tmp_path / "out"
        assert main([command, cfg, "--output-dir", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        unknown = [key for key in doc if key != "scenario"]
        assert "config error: unknown config keys" in err and repr(unknown[0]) in err
        assert "Traceback" not in err and not out.exists()

    def test_a_key_read_but_left_out_is_not_unknown(self):
        cfg = ExperimentConfig.from_dict({"scenario": "two-rooms", "eps": 0.2,
                                          "num_runs": 2, "base_seed": 1,
                                          "output_dir": "x"})
        with pytest.raises(ConfigError, match="'eps'"):
            cfg.check_keys()
        assert cfg.given(width=int, eps=float) == {"eps": 0.2}
        cfg.check_keys()

    @pytest.mark.parametrize("command, doc", [
        ("export-env", {"scenario": "objectworld", "num_tasks": 2.7}),
        ("export-env", {"scenario": "two-rooms", "num_tasks": 0}),
        ("diagnose", {"scenario": "two-rooms", "num_tasks": 0}),
        ("diagnose", {"scenario": "multi-goal", "num_tasks": 1}),
    ])
    def test_truncated_or_undersized_family_is_a_config_error(self, tmp_path, capsys,
                                                              command, doc):
        # The first wrote a 2-model family, the second an empty one, both
        # exiting 0; the last two exited 3 from the model set.
        cfg = self.write_cfg(tmp_path, doc)
        assert main([command, cfg, "--output-dir", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert not (tmp_path / "models.json").exists()

    @pytest.mark.parametrize("num_tasks", [3, 3.0])
    def test_integral_int_knob_is_accepted(self, tmp_path, num_tasks):
        cfg = self.write_cfg(tmp_path, {
            "scenario": "objectworld", "num_tasks": num_tasks, "side": 2,
        })
        assert main(["export-env", cfg, "--output-dir", str(tmp_path)]) == EXIT_OK
        doc = json.loads((tmp_path / "models.json").read_text())
        assert len(doc["models"]) == 3

    def test_export_env(self, tmp_path):
        cfg = self.write_cfg(tmp_path, {
            "scenario": "objectworld", "num_tasks": 2, "side": 2,
        })
        assert main(["export-env", cfg, "--output-dir", str(tmp_path)]) == EXIT_OK
        doc = json.loads((tmp_path / "models.json").read_text())
        assert len(doc["models"]) == 2
        assert "chain" in doc

    def test_diagnose(self, tmp_path):
        cfg = self.write_cfg(tmp_path, {
            "scenario": "two-rooms", "num_tasks": 3, "width": 4, "height": 4,
            "eps": 0.5, "gamma": 0.9,
        })
        assert main(["diagnose", cfg, "--output-dir", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / "diagnose.json").read_text())
        assert report["true_task"] == 0
        # theta_eps lists the candidates whose policies are not eps-optimal
        # in the true task, so the true task itself never appears.
        assert 0 not in report["theta_eps"]
        assert report["min_gap"] > 0

    def test_diagnose_reports_the_gap_to_the_true_task(self, tmp_path):
        cfg = self.write_cfg(tmp_path, {"scenario": "two-rooms", "true_task": 3})
        assert main(["diagnose", cfg, "--output-dir", str(tmp_path)]) == EXIT_OK
        report = json.loads((tmp_path / "diagnose.json").read_text())
        assert report["true_task"] == 3 and 3 not in report["theta_eps"]
        approx = ApproxModelSet(two_rooms_family())
        assert report["min_gap"] == approx.min_gap(3)
        # Referenced to task 3 the gap is about 1.14; to task 0, about 2.98.
        assert report["min_gap"] == pytest.approx(1.1375, abs=1e-4)
        assert approx.min_gap(0) == pytest.approx(2.9779, abs=1e-4)

    def test_diagnose_plans_a_model_that_cycles_on_round_off(self, tmp_path, capsys):
        # Task 1 of this family cycles through three policies at
        # gamma = 0.9999; diagnose exited 3 when the planner gave up.
        cfg = self.write_cfg(tmp_path, {"scenario": "multi-goal", "num_tasks": 6,
                                        "width": 12, "height": 2})
        assert main(["diagnose", cfg, "--output-dir", str(tmp_path)]) == EXIT_OK
        assert "Traceback" not in capsys.readouterr().err
        report = strict_json(tmp_path / "diagnose.json")
        assert report["min_gap"] > 0 and 0 not in report["theta_eps"]

    @pytest.mark.parametrize("command, doc, name, keys", [
        ("run-ptum", {"scenario": "two-rooms", "budget": 2000}, "ptum_summary.json",
         ["tau"]),
        ("learn-hmm", {"scenario": "synthetic-hmm", "steps": 30}, "hmm_summary.json",
         ["o_col_err_max", "t_err_max"]),
        # One startup task, then exactly one transfer task.
        ("run-sequential", {"scenario": "objectworld", "num_tasks_sequence": 2,
                            "startup_tasks": 1, "side": 2, "num_tasks": 3},
         "sequential_summary.json", ["transfer_queries", "transfer_post_queries"]),
    ])
    def test_one_value_summary_is_strict_json(self, tmp_path, command, doc, name, keys):
        # One value has no confidence interval: its infinite half-width was
        # written as Infinity, which is not JSON.
        cfg = self.write_cfg(tmp_path, doc)
        assert main([command, cfg, "--output-dir", str(tmp_path)]) == EXIT_OK
        summary = strict_json(tmp_path / name)
        for key in keys:
            assert summary[key]["count"] == 1 and summary[key]["half_width"] is None

    def test_run_ptum_and_rerun_identical(self, tmp_path):
        cfg = self.write_cfg(tmp_path, {
            "scenario": "two-rooms", "num_tasks": 3, "width": 4, "height": 4,
            "num_runs": 2, "base_seed": 3, "eps": 0.5, "gamma": 0.9,
            "delta": 0.1, "budget": 50_000,
        })
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run-ptum", cfg, "--output-dir", str(out1)]) == EXIT_OK
        assert main(["run-ptum", cfg, "--output-dir", str(out2)]) == EXIT_OK
        assert (out1 / "ptum_results.csv").read_bytes() == \
            (out2 / "ptum_results.csv").read_bytes()
        summary = json.loads((out1 / "ptum_summary.json").read_text())
        assert summary["num_runs"] == 2

    def test_run_ptum_at_eps_zero_falls_back(self, tmp_path, capsys):
        # It exited 3 with a traceback: the fallback's theory count refused
        # eps = 0 once the budget ran out.
        cfg = self.write_cfg(tmp_path, {"scenario": "two-rooms", "eps": 0.0, "budget": 50})
        assert main(["run-ptum", cfg, "--output-dir", str(tmp_path)]) == EXIT_OK
        assert "Traceback" not in capsys.readouterr().err
        rows = (tmp_path / "ptum_results.csv").read_text().splitlines()
        assert rows[1].split(",")[1:3] == ["50", "fallback-budget"]

    @pytest.mark.parametrize("knob", [
        {"steps": 2}, {"steps": 8}, {"samples_per_pair": 0}, {"num_tasks": 0},
        {"num_states": 0}, {"num_actions": -1}, {"num_rewards": 0}, {"gamma": 1.5},
        {"gamma": float("nan")},
    ])
    def test_learn_hmm_knob_no_run_can_use_is_a_config_error(self, tmp_path, capsys,
                                                            knob):
        # Each exited 3 with a traceback from the sweep; 8 steps hold 2 of
        # the 3 triples the default 3 tasks need.
        cfg = self.write_cfg(tmp_path, {"scenario": "synthetic-hmm", **knob})
        out = tmp_path / "out"
        assert main(["learn-hmm", cfg, "--output-dir", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert not out.exists()

    def test_learn_hmm(self, tmp_path):
        cfg = self.write_cfg(tmp_path, {
            "scenario": "synthetic-hmm", "num_tasks": 2, "num_states": 2,
            "num_actions": 2, "num_rewards": 3, "steps": 150,
            "samples_per_pair": 30, "num_runs": 1, "base_seed": 0,
        })
        assert main(["learn-hmm", cfg, "--output-dir", str(tmp_path)]) == EXIT_OK
        summary = json.loads((tmp_path / "hmm_summary.json").read_text())
        assert summary["o_col_err_max"]["mean"] < 1.0

    def test_run_sequential_requires_chain(self, tmp_path):
        cfg = self.write_cfg(tmp_path, {"scenario": "two-rooms"})
        assert main(["run-sequential", cfg]) == EXIT_CONFIG

    def test_run_sequential_objectworld(self, tmp_path):
        cfg = self.write_cfg(tmp_path, {
            "scenario": "objectworld", "num_tasks": 3, "side": 2,
            "num_runs": 1, "base_seed": 1, "num_tasks_sequence": 4,
            "startup_tasks": 4, "startup_per_pair": 10,
            "post_sample_per_pair": 10, "eps": 0.5, "delta": 1e-6,
            "rho": 1.0, "eta": 0.0,
        })
        assert main(["run-sequential", cfg, "--output-dir", str(tmp_path)]) == EXIT_OK
        trace = (tmp_path / "sequential_trace.csv").read_text()
        assert trace.startswith("run,h,true_task,mode,")
        assert len(trace.strip().split("\n")) == 5
        assert main(["run-sequential", cfg, "--static",
                     "--output-dir", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "static_summary.json").exists()
