"""Config ingestion, subcommand behavior and artifact files."""
import importlib.metadata
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: tomli, if present, in the test
    tomllib = None

import pushmdp
from pushmdp import cli, sim
from pushmdp.cli import (
    DEFAULTS,
    ConfigError,
    _reduction,
    build_scenario,
    load_settings,
    main,
    parse_config_file,
    parse_pu_grid,
)
from pushmdp.model import Action, stage_cost_table
from pushmdp.transition import ArrivalPmf, build_kernel, validate_kernel

TINY = ["--set", "e_max=2", "--set", "n_contents=2", "--set", "m_rings=1"]
# link-budget keys that reached no output and were removed
REMOVED_KEYS = ["beta_db", "r0_over_w", "pt_edge_w", "t_p_s"]


class TestConfigParsing:
    def test_file_round_trip(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# scenario tweaks\n"
            "p_u = 0.5\n"
            "e_max = 7   # smaller battery\n"
            "\n"
            "pu_grid = 0.25,0.75\n"
        )
        settings = load_settings(str(cfg), [])
        assert settings["p_u"] == 0.5
        assert settings["e_max"] == 7
        assert settings["pu_grid"] == "0.25,0.75"
        assert settings["n_contents"] == DEFAULTS["n_contents"]

    def test_unknown_key_in_file(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("battery = 9\n")
        with pytest.raises(ConfigError, match="battery"):
            parse_config_file(str(cfg))

    def test_unparsable_value(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("e_max = lots\n")
        with pytest.raises(ConfigError, match="e_max"):
            parse_config_file(str(cfg))

    def test_missing_equals(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just words\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(str(cfg))

    def test_set_overrides_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p_u = 0.5\n")
        settings = load_settings(str(cfg), ["p_u=0.9"])
        assert settings["p_u"] == 0.9

    def test_bad_set_items(self):
        with pytest.raises(ConfigError):
            load_settings(None, ["p_u"])
        with pytest.raises(ConfigError, match="bogus"):
            load_settings(None, ["bogus=1"])

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_removed_keys_rejected(self, key, tmp_path, capsys):
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            load_settings(None, [f"{key}=1"])
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"{key} = 1\n")
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            load_settings(str(cfg), [])
        assert main(["solve", "--out", str(tmp_path), "--set", f"{key}=1"]) == 2
        assert f"unknown config key '{key}'" in capsys.readouterr().err

    def test_build_scenario_returns_arrival_pmf(self):
        settings = load_settings(None, ["e_max=7", "a_bar=1.3"])
        params, arrival, grid, popularity = build_scenario(settings)
        assert arrival == ArrivalPmf.poisson(1.3, 7)
        assert grid.num_rings == params.num_rings == DEFAULTS["m_rings"]
        assert len(popularity) == params.num_contents

    def test_pu_grid_parser(self):
        assert parse_pu_grid("0.1, 0.5 ,1.0") == (0.1, 0.5, 1.0)
        with pytest.raises(ConfigError):
            parse_pu_grid("a,b")
        with pytest.raises(ConfigError):
            parse_pu_grid(" , ")


class TestSolveCommand:
    def test_tiny_instance_artifacts(self, tmp_path):
        out = tmp_path / "art"
        code = main(["solve", "--out", str(out)] + TINY)
        assert code == 0
        solution = (out / "solution.txt").read_text()
        assert "lambda " in solution
        assert "# e_max = 2" in solution
        assert re.search(
            r"^# iter 1 lambda \S+ changed \d+ post_decision_states \d+$",
            solution,
            re.MULTILINE,
        )
        grids = sorted(out.glob("threshold_C*.txt"))
        assert len(grids) == 3
        assert "E\\Q" in grids[0].read_text()

    def test_default_grid_count(self, tmp_path):
        out = tmp_path / "art"
        code = main(["solve", "--out", str(out)])
        assert code == 0
        assert len(list(out.glob("threshold_C*.txt"))) == 21
        body = (out / "solution.txt").read_text().splitlines()
        data = [l for l in body if l and not l.startswith("#")]
        # header + one row per state + the gain line
        assert len(data) == 1 + 1680 + 1

    def test_config_file_used(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("e_max = 2\nn_contents = 1\nm_rings = 1\n")
        out = tmp_path / "art"
        code = main(["solve", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert len(list(out.glob("threshold_C*.txt"))) == 2

    def test_unknown_key_exits_named(self, tmp_path, capsys):
        code = main(["solve", "--out", str(tmp_path), "--set", "bogus=1"])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_bad_value_exits(self, tmp_path, capsys):
        code = main(["solve", "--out", str(tmp_path), "--set", "e_max=abc"])
        assert code == 2
        assert "e_max" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "item, message",
        [
            ("radius_m=1e-300", "squares to 0"),
            ("alpha=1e17", "no width"),
            ("alpha=1.5", "pathloss_exp must be >= 2"),
            ("radius_m=0", "cell_radius must be > 0"),
            ("e_max=-1", "battery_levels must be >= 0"),
        ],
    )
    def test_bad_geometry_exits_two(self, item, message, tmp_path, capsys):
        code = main(["solve", "--out", str(tmp_path), "--set", item])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err
        # the key the user set is named, not only the model's field
        assert f"'{item.split('=')[0]}'" in err

    def test_multichain_start_exits_one(self, tmp_path, capsys):
        sets = ["e_max=3", "n_contents=3", "m_rings=1", "p_c=0", "p_u=0.379"]
        argv = ["solve", "--out", str(tmp_path)]
        code = main(argv + [arg for item in sets for arg in ("--set", item)])
        assert code == 1
        assert "4 closed classes" in capsys.readouterr().err

    def test_prints_step_times(self, tmp_path, capsys):
        assert main(["solve", "--out", str(tmp_path)] + TINY) == 0
        out = capsys.readouterr().out
        assert re.search(r"^evaluation \d+\.\d{3} s, improvement \d+\.\d{3} s$", out,
                         re.MULTILINE)
        assert "route" not in out

    def test_equal_gain_classes_solve(self, tmp_path):
        # nothing is requested and the cache never turns over, so the
        # all-sleep start has three closed classes, each of gain 0
        sets = ["e_max=3", "n_contents=2", "m_rings=2", "p_c=0", "p_u=0"]
        argv = ["solve", "--out", str(tmp_path)]
        assert main(argv + [arg for s in sets for arg in ("--set", s)]) == 0
        lines = (tmp_path / "solution.txt").read_text().splitlines()
        assert "lambda 0" in lines
        iters = [line for line in lines if line.startswith("# iter ")]
        pattern = r"# iter \d+ lambda \S+ changed \d+ post_decision_states \d+"
        assert iters and all(re.fullmatch(pattern, line) for line in iters)

    def test_missing_config_exits(self, tmp_path, capsys):
        code = main(["solve", "--config", str(tmp_path / "nope.cfg")])
        assert code == 2
        assert "nope.cfg" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "item, key", [("a_bar=nan", "a_bar"), ("a_bar=inf", "a_bar"),
                      ("zipf_skew=nan", "zipf_skew")],
    )
    def test_non_finite_input_exits_two(self, item, key, tmp_path, capsys):
        # a non-finite a_bar that reached the kernel build corrupted memory
        sets = ["e_max=3", "n_contents=2", item]
        argv = ["solve", "--out", str(tmp_path)]
        code = main(argv + [arg for s in sets for arg in ("--set", s)])
        assert code == 2
        assert f"config key '{key}'" in capsys.readouterr().err

    def test_singular_evaluation_names_route(self, tmp_path, capsys):
        sets = ["e_max=0", "n_contents=1", "m_rings=1", "p_c=1e-260", "p_u=0"]
        argv = ["solve", "--out", str(tmp_path)]
        code = main(argv + [arg for s in sets for arg in ("--set", s)])
        assert code == 1
        err = capsys.readouterr().err
        assert "levels route, 2-state chain: " in err
        assert "Singular matrix" in err


class TestSimulateCommand:
    def test_metrics_file(self, tmp_path, capsys):
        out = tmp_path / "art"
        code = main(
            ["simulate", "--policy", "unicast-priority", "--out", str(out),
             "--seed", "5", "--set", "horizon=20000", "--set", "warmup=1000"]
            + TINY
        )
        assert code == 0
        # the throughput varies between identical runs, so it goes to stdout
        stdout = capsys.readouterr().out
        rate = re.search(r"simulated 20000 periods, (\S+) periods/s", stdout)
        assert float(rate.group(1)) > 0
        text = (out / "metrics.txt").read_text()
        assert "policy p_u p_c a_bar ratio se K seed" in text
        assert "periods_per_s" not in text
        row = text.strip().splitlines()[-1].split()
        assert row[0] == "unicast-priority"
        assert row[-1] == "5"
        assert 0.0 <= float(row[4]) <= 1.0

    def test_named_policy_matches_table(self, tmp_path, monkeypatch):
        # metrics.txt of each name is that of a run of the table sim.baseline
        # gives for it
        sets = ["horizon=20000", "warmup=1000", "e_max=2", "n_contents=2", "m_rings=1"]
        argv = ["--seed", "5"] + [arg for s in sets for arg in ("--set", s)]
        params, arrival, grid, pop = build_scenario(load_settings(None, sets))

        def kernel():
            return build_kernel(params, grid, pop, arrival)

        def metrics(name, out):
            assert main(["simulate", "--policy", name, "--out", str(out)] + argv) == 0
            return (out / "metrics.txt").read_bytes()

        for name in sim.BASELINE_NAMES:
            by_name = metrics(name, tmp_path / name)
            table, _ = sim.baseline(name, params, grid, kernel, gain=False)
            with monkeypatch.context() as patch:
                patch.setattr(cli, "baseline", lambda *args, **kwargs: (table, None))
                by_table = metrics(name, tmp_path / f"{name}-table")
            assert by_name == by_table

    def test_identical_runs_write_identical_files(self, tmp_path):
        argv = ["simulate", "--seed", "5", "--set", "horizon=20000",
                "--set", "warmup=1000"] + TINY
        files = []
        for out in (tmp_path / "a", tmp_path / "b"):
            assert main(argv + ["--out", str(out)]) == 0
            files.append((out / "metrics.txt").read_bytes())
        assert files[0] == files[1]

    def test_greedy_by_name_needs_no_kernel(self, tmp_path, monkeypatch):
        # a push costs M=4 > e_max, so the greedy chain has one closed class
        # per pushed count and the solver cannot give it a single gain; the
        # simulator never asks for that gain
        def no_kernel(*args, **kwargs):
            raise AssertionError("kernel built for unicast-priority")

        monkeypatch.setattr(cli, "build_kernel", no_kernel)
        sets = ["e_max=3", "p_c=0", "horizon=5000", "warmup=100"]
        argv = ["simulate", "--policy", "unicast-priority", "--out", str(tmp_path)]
        assert main(argv + [arg for s in sets for arg in ("--set", s)]) == 0
        assert "# measured_periods = 4900" in (tmp_path / "metrics.txt").read_text()


@pytest.mark.parametrize("command", ["simulate", "validate", "solve"])
def test_undrawable_arrival_mean_exits_two(command, tmp_path, capsys, monkeypatch):
    # numpy draws no Poisson variate with a mean above about 9.22e18, so every
    # command refuses one, naming the key, before it builds anything
    def no_kernel(*args, **kwargs):
        raise AssertionError("kernel built for an undrawable arrival mean")

    monkeypatch.setattr(cli, "build_kernel", no_kernel)
    sets = ["a_bar=1e20", "e_max=3", "n_contents=2"]
    argv = [command, "--out", str(tmp_path)]
    assert main(argv + [arg for s in sets for arg in ("--set", s)]) == 2
    assert "config key 'a_bar': mean_arrival must be > 0 and at most" in (
        capsys.readouterr().err
    )
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["simulate", "validate", "sweep"])
@pytest.mark.parametrize(
    "bad, named",
    [
        (["--set", "warmup=-1"], "error: warmup must be >= 0, got -1"),
        (["--set", "horizon=500", "--set", "warmup=500"],
         "error: horizon must be > warmup = 500, got 500"),
        (["--seed", "-1"], "error: seed must fit in 64 bits, got -1"),
        (["--seed", str(2**64)], "error: seed must fit in 64 bits"),
    ],
    ids=["warmup", "horizon", "negative-seed", "wide-seed"],
)
def test_bad_run_settings_exit_two_first(
    command, bad, named, tmp_path, capsys, monkeypatch
):
    # the run lengths and the seed are checked before any kernel is built
    def no_kernel(*args, **kwargs):
        raise AssertionError("kernel built before the run settings were checked")

    monkeypatch.setattr(cli, "build_kernel", no_kernel)
    monkeypatch.setattr(sim, "build_kernel", no_kernel)
    assert main([command, "--out", str(tmp_path)] + bad + TINY) == 2
    assert named in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


class TestSweepCommand:
    def test_single_point_rows(self, tmp_path):
        out = tmp_path / "art"
        code = main(
            ["sweep", "--out", str(out), "--set", "pu_grid=0.6",
             "--set", "horizon=30000", "--set", "warmup=1000"] + TINY
        )
        assert code == 0
        lines = [
            l for l in (out / "sweep.txt").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        assert lines[0].startswith("policy ")
        assert len(lines) == 1 + 3
        summary = (out / "summary.txt").read_text()
        assert "reduction_solver" in summary

    def test_rows_carry_the_scenario(self, tmp_path):
        # p_c, a_bar and horizon are the sweep's own, written into every row
        out = tmp_path / "art"
        code = main(
            ["sweep", "--out", str(out), "--set", "p_c=0.2", "--set", "a_bar=1.1",
             "--set", "pu_grid=0.4", "--set", "horizon=20000", "--set", "warmup=100"]
        )
        assert code == 0
        lines = [
            l.split() for l in (out / "sweep.txt").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        header, rows = lines[0], lines[1:]
        assert len(rows) == len(sim.BASELINE_NAMES)
        for row in rows:
            named = dict(zip(header, row))
            scenario = [float(named[key]) for key in ("p_u", "p_c", "a_bar")]
            assert scenario == [0.4, 0.2, 1.1]
            assert named["horizon"] == "20000"

    @pytest.mark.parametrize(
        "item, message",
        [("pu_grid=1.5", "error: p_u grid point 1.5 outside (0, 1]"),
         ("replications=0", "error: replications must be >= 1")],
        ids=["pu-grid", "replications"],
    )
    def test_bad_inputs_exit_two_before_the_worker_line(
        self, item, message, tmp_path, capsys, monkeypatch
    ):
        def no_kernel(*args, **kwargs):
            raise AssertionError("kernel built before the sweep inputs were checked")

        monkeypatch.setattr(sim, "build_kernel", no_kernel)
        assert main(["sweep", "--out", str(tmp_path), "--set", item] + TINY) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "simulating" not in captured.out
        assert not list(tmp_path.iterdir())

    def test_repeated_point_keeps_its_own_rows(self, tmp_path):
        out = tmp_path / "art"
        code = main(
            ["sweep", "--out", str(out), "--set", "pu_grid=0.5,0.5",
             "--set", "e_max=5", "--set", "n_contents=4",
             "--set", "horizon=20000", "--set", "warmup=1000"]
        )
        assert code == 0
        rows = [
            l.split() for l in (out / "sweep.txt").read_text().splitlines()
            if l and not l.startswith("#")
        ][1:]
        summary = [
            l.split() for l in (out / "summary.txt").read_text().splitlines()
            if l and not l.startswith("#")
        ][1:]
        assert len(rows) == 2 * 3 and len(summary) == 2
        # the two points run on different seeds, so their simulated ratios differ
        assert summary[0][2] != summary[1][2]
        for j, (p_u, red_solver, red_sim) in enumerate(summary):
            point = {r[0]: r for r in rows[3 * j : 3 * j + 3]}
            push, nopush = point["optimal-push"], point["non-push"]
            assert p_u == push[1] == nopush[1] == "0.5"
            for got, column in ((red_solver, 6), (red_sim, 4)):
                expect = _reduction(float(nopush[column]), float(push[column]))
                assert got == f"{expect:.17g}"


class TestValidateCommand:
    ARGS = [
        "--set", "e_max=4", "--set", "n_contents=2", "--set", "m_rings=2",
        "--set", "horizon=40000", "--set", "warmup=2000",
    ]

    def test_small_instance_passes(self, tmp_path, capsys):
        out = tmp_path / "art"
        code = main(["validate", "--out", str(out)] + self.ARGS)
        captured = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in captured
        report = (out / "validate.txt").read_text()
        assert "PASS kernel-rows" in report
        assert "PASS solver-vs-sim[optimal-push]" in report

    def test_kernel_rows_reads_the_checked_figures(self, tmp_path, monkeypatch):
        # the default scenario's kernel, on a shorter run
        argv = ["validate", "--set", "horizon=20000", "--set", "warmup=1000", "--out"]
        assert main(argv + [str(tmp_path / "ok")]) == 0
        report = (tmp_path / "ok" / "validate.txt").read_text()
        line = re.search(r"^PASS kernel-rows: .*$", report, re.M).group()
        assert re.fullmatch(
            r"PASS kernel-rows: max row-sum deviation \S+, 0 negative entries", line
        )
        assert "component" not in report

        def one_negative(kernel):
            return replace(validate_kernel(kernel), negative_entries=1)

        monkeypatch.setattr(cli, "validate_kernel", one_negative)
        assert main(argv + [str(tmp_path / "bad")]) == 1
        report = (tmp_path / "bad" / "validate.txt").read_text()
        assert re.search(r"^FAIL kernel-rows: .*, 1 negative entries$", report, re.M)

    def test_run_without_macro_events_passes(self, tmp_path):
        # every request is for the one popular content, which stays pushed, so
        # no run sees a macro event: every batch mean is 0
        out = tmp_path / "art"
        argv = ["validate", "--out", str(out), "--set", "zipf_skew=inf",
                "--set", "horizon=50000", "--set", "warmup=1000"]
        assert main(argv) == 0
        report = (out / "validate.txt").read_text()
        assert "PASS solver-vs-sim[optimal-push]: |0.000000 - 0.000000|" in report

    @pytest.mark.parametrize(
        "horizon, warmup", [(150, 100), (20_000, 19_901)], ids=["50", "99"]
    )
    def test_too_few_measured_periods_exits_two(
        self, horizon, warmup, tmp_path, capsys, monkeypatch
    ):
        # below 100 measured periods the batch-means s.e. is nan, so every
        # solver-vs-sim check would fail a correct solver
        def no_kernel(*args, **kwargs):
            raise AssertionError("kernel built for a run too short to check")

        monkeypatch.setattr(cli, "build_kernel", no_kernel)
        argv = ["validate", "--out", str(tmp_path),
                "--set", f"horizon={horizon}", "--set", f"warmup={warmup}"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "'horizon', 'warmup'" in err and "horizon - warmup >= 100" in err
        assert not list(tmp_path.iterdir())

    NO_EVENTS = sim.SimMetrics(
        total_periods=1_000_000, measured_periods=990_000, requests_generated=0,
        macro_handled=0, cache_hits=0, energy_overflow_units=0, macro_ratio_se=0.0,
        periods_per_s=1.0,
    )

    @pytest.mark.parametrize(
        "sets",
        [
            {"e_max": 3, "n_contents": 2, "m_rings": 2},
            {"e_max": 4, "n_contents": 3, "m_rings": 2, "zipf_skew": float("inf"),
             "p_u": 1.0},
        ],
        ids=["36-states", "60-states"],
    )
    @pytest.mark.parametrize("name", ["optimal-push", "unicast-priority"])
    def test_zero_batch_se_is_the_asymptotic_se(self, name, sets):
        # sigma^2 = 2 pi f Z f - pi f^2 for the centred cost f and the
        # fundamental matrix Z = (I - P + 1 pi)^-1, formed densely
        params, arrival, grid, pop = build_scenario(dict(DEFAULTS, **sets))
        kernel = build_kernel(params, grid, pop, arrival)
        costs = stage_cost_table(params)
        table, values = sim.baseline(name, params, grid, lambda: kernel)
        n = kernel.num_states
        states = np.arange(n)
        p = np.zeros((n, n))
        for a in np.unique(table.actions):
            rows = states[table.actions == a]
            p[rows] = kernel.action_matrix(Action(a)).toarray()[rows]
        balance = np.vstack([(np.eye(n) - p).T, np.ones(n)])
        pi = np.linalg.lstsq(balance, np.append(np.zeros(n), 1.0), rcond=None)[0]
        f = costs[table.actions, states] - values.gain
        z = np.linalg.inv(np.eye(n) - p + np.outer(np.ones(n), pi))
        expect = 2.0 * pi @ (f * (z @ f)) - pi @ f**2
        se = cli._sim_se(self.NO_EVENTS, table, values, kernel, costs)
        assert se**2 * self.NO_EVENTS.measured_periods == pytest.approx(expect, rel=1e-9)

    def test_zero_events_refute_a_gain_too_high(self):
        # at p_u = 0.1 a run of 990,000 periods without a macro event is
        # too unlikely for non-push (gain 2.01e-5) and unicast-priority (0.0102)
        params, arrival, grid, pop = build_scenario(dict(DEFAULTS, p_u=0.1))
        kernel = build_kernel(params, grid, pop, arrival)
        costs = stage_cost_table(params)
        for name, three_se in (("non-push", 1.55e-5), ("unicast-priority", 3.44e-4)):
            table, values = sim.baseline(name, params, grid, lambda: kernel)
            limit = 3.0 * cli._sim_se(self.NO_EVENTS, table, values, kernel, costs)
            assert limit == pytest.approx(three_se, rel=1e-2)
            assert limit < values.gain

    def test_positive_batch_se_is_kept(self):
        # nothing is solved: a table, values, kernel or costs of None would raise
        varied = replace(self.NO_EVENTS, macro_ratio_se=0.01)
        assert cli._sim_se(varied, None, None, None, None) == 0.01

    def test_validate_and_sweep_share_roster_and_seeds(self, tmp_path):
        # each solver-vs-sim line carries the gain, simulated ratio and s.e.
        # of sweep's row for the same name at one point and the same seed
        sets = TINY[1::2] + ["horizon=20000", "warmup=1000"]
        argv = ["validate", "--seed", "7", "--out", str(tmp_path)]
        assert main(argv + [arg for s in sets for arg in ("--set", s)]) == 0
        report = (tmp_path / "validate.txt").read_text()
        settings = load_settings(None, sets)
        params, _, grid, _ = build_scenario(settings)
        rows = sim.sweep(
            params, grid, (params.request_prob,), replications=1,
            horizon=20_000, warmup=1_000, seed=7,
        )
        assert [r.policy for r in rows] == list(sim.BASELINE_NAMES)
        for r in rows:
            assert r.se > 0
            line = (
                f"PASS solver-vs-sim[{r.policy}]: |{r.ratio_solver:.6f} - "
                f"{r.ratio_sim:.6f}| = {abs(r.ratio_solver - r.ratio_sim):.3g} "
                f"vs 3 s.e. = {3.0 * r.se:.3g}"
            )
            assert line in report.splitlines()

    def test_kernel_dump(self, tmp_path):
        out = tmp_path / "art"
        code = main(["validate", "--dump-kernel", "--out", str(out)] + self.ARGS)
        assert code == 0
        dump = (out / "kernel.txt").read_text()
        assert dump.splitlines()[0].startswith("0 SLEEP ")


@pytest.mark.skipif(sys.platform != "linux", reason="workers are forked on Linux only")
class TestSimulationWorkers:
    """validate and sweep write the same bytes from worker processes and in-process.

    Both print the runs' throughput, which differs between identical runs, to
    stdout only.
    """

    THROUGHPUT = re.compile(
        r"^simulating (\d+) runs .*\nsimulated (\d+) periods, "
        r"(\S+) periods/s median, (\S+) slowest$",
        re.M,
    )

    SHORT = ["--set", "horizon=50000", "--set", "warmup=1000"]

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["validate"], ["validate.txt"]),
            (["sweep"] + SHORT, ["sweep.txt", "summary.txt"]),
            (
                ["sweep", "--set", "replications=2", "--set", "pu_grid=0.3,0.9"] + SHORT,
                ["sweep.txt", "summary.txt"],
            ),
        ],
        ids=["validate", "sweep", "sweep-replications"],
    )
    def test_workers_match_in_process(self, argv, names, tmp_path, capsys, monkeypatch):
        written = {}
        for cpus in (2, 1):
            monkeypatch.setattr(sim, "_available_cpus", lambda: cpus)
            out = tmp_path / str(cpus)
            assert main(argv[:1] + ["--out", str(out)] + argv[1:]) == 0
            printed = capsys.readouterr().out
            assert f" on {cpus} worker(s)" in printed
            runs, periods, median, slowest = self.THROUGHPUT.search(printed).groups()
            horizon = DEFAULTS["horizon"] if argv == ["validate"] else 50_000
            assert int(periods) == int(runs) * horizon
            assert float(median) >= float(slowest) > 0
            assert multiprocessing.active_children() == []
            written[cpus] = {name: (out / name).read_bytes() for name in names}
            assert not any(b"periods/s" in text for text in written[cpus].values())
        assert written[2] == written[1]


class TestOracleCommand:
    def test_tiny_instance_match(self, tmp_path):
        out = tmp_path / "art"
        code = main(
            ["oracle", "--out", str(out), "--set", "e_max=1",
             "--set", "n_contents=1", "--set", "m_rings=1"]
        )
        assert code == 0
        text = (out / "oracle.txt").read_text()
        assert "difference" in text
        diff = float(
            [l for l in text.splitlines() if l.startswith("difference")][0].split()[1]
        )
        assert diff <= 1e-9

    def test_large_instance_guarded(self, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the oracle guard was checked")

        monkeypatch.setattr(cli, "policy_iteration", no_solve)
        # too many states; 64 states but too many policies
        for sets in ([], ["e_max=3", "n_contents=3", "m_rings=3"]):
            argv = ["oracle", "--out", str(tmp_path)]
            code = main(argv + [arg for item in sets for arg in ("--set", item)])
            assert code == 2
            assert "oracle guard" in capsys.readouterr().err


def test_main_runs_the_handler_bound_at_call_time(tmp_path, monkeypatch):
    # main builds its command table per call, so a cmd_* rebound in
    # pushmdp.cli, as a tracer rebinds it, is the one that runs
    calls = []

    def spy(settings, args):
        calls.append((settings["e_max"], args.command))
        return 7

    monkeypatch.setattr(cli, "cmd_oracle", spy)
    assert main(["oracle", "--out", str(tmp_path)] + TINY) == 7
    assert calls == [(2, "oracle")]


@pytest.mark.parametrize(
    "command, own",
    [("solve", []), ("simulate", ["--policy"]), ("sweep", []),
     ("validate", ["--dump-kernel"]), ("oracle", [])],
)
def test_help_lists_own_then_shared_options(command, own, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    # first seen in the usage line, then --help from the option list
    found = dict.fromkeys(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert list(found) == [*own, "--config", "--out", "--seed", "--set", "--help"]


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _fresh_python(*args):
    """Run this interpreter in a new process on this checkout's package."""
    package_root = str(Path(pushmdp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=60, env=env
    )


def _assert_help(proc):
    assert proc.returncode == 0, proc.stderr
    assert "solve" in proc.stdout and "sweep" in proc.stdout


def test_console_entry_point():
    """`pushmdp --help` runs the declared `pushmdp.cli:main` and lists commands.

    The console script exists only after an install, so the declared entry
    point is always run the way the generated wrapper runs it, in a fresh
    interpreter that imports this checkout's package; an installed script on
    PATH is run as well.
    """
    toml = tomllib or pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        scripts = toml.load(fh)["project"].get("scripts", {})
    assert "pushmdp" in scripts, "[project.scripts] declares no pushmdp"
    entry = importlib.metadata.EntryPoint(
        name="pushmdp", value=scripts["pushmdp"], group="console_scripts"
    )
    assert entry.value == "pushmdp.cli:main"
    assert callable(entry.load())

    wrapper = (
        f"import sys; from {entry.module} import {entry.attr}; "
        f"sys.exit({entry.attr}())"
    )
    _assert_help(_fresh_python("-c", wrapper, "--help"))

    script = shutil.which("pushmdp")
    if script is not None:
        _assert_help(
            subprocess.run(
                [script, "--help"], capture_output=True, text=True, timeout=60
            )
        )


def test_import_loads_no_root_finder():
    """Calibration is closed-form, so importing the CLI skips scipy.optimize."""
    proc = _fresh_python(
        "-c", "import sys, pushmdp.cli; print('scipy.optimize' in sys.modules)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
