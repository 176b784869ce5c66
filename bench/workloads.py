"""The benchmark's workloads: what each one runs and how its output is checked.

A workload object is built once per process (that is its set-up: settings and
scenario), then ``prepare`` / ``run`` / ``check`` repeat for every measured
execution.  Only ``run`` is timed.  ``check`` returns a list of
``(name, ok, detail)`` tuples; every workload returns the same names on every
execution, so the failed share of checks is comparable across runs.
"""
from __future__ import annotations

import contextlib
import glob
import hashlib
import io
import json
import os
import shutil
from pathlib import Path

import numpy as np

from pushmdp import (
    Action,
    ArrivalPmf,
    PolicyTable,
    ValueSolution,
    bellman_residual,
    build_kernel,
    policy_improvement,
    unicast_priority_table,
    validate_kernel,
)
from pushmdp import cli
from pushmdp.model import stage_cost_table

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

ROW_SUM_TOL = 1e-12
GAIN_TOL = 1e-9
RESIDUAL_TOL = 1e-9


def _set_args(overrides) -> list[str]:
    return [arg for item in overrides for arg in ("--set", item)]


def _kernel_and_costs(params, grid, popularity):
    arrival = ArrivalPmf.poisson(params.mean_arrival, params.battery_levels)
    return build_kernel(params, grid, popularity, arrival), stage_cost_table(params)


def _actions_sha256(actions) -> str:
    return hashlib.sha256(np.asarray(actions, dtype=np.int64).tobytes()).hexdigest()


class _CliWorkload:
    """One ``pushmdp`` subcommand run in-process through ``cli.main``."""

    command = ""

    def __init__(self, overrides, seed, out_dir, reference):
        settings = cli.load_settings(None, list(overrides))
        self.params, _, self.grid, self.popularity = cli.build_scenario(settings)
        self.out_dir = out_dir
        self.reference = reference
        self.argv = [self.command, "--out", out_dir, "--seed", str(seed)]
        self.argv += _set_args(overrides)

    def prepare(self) -> None:
        # A stale artifact from an earlier execution must not pass a check.
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def run(self) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv)

    def artifact(self, name: str) -> list[str]:
        """Non-comment lines of one artifact; [] if it was not written."""
        try:
            text = Path(self.out_dir, name).read_text()
        except FileNotFoundError:
            return []
        return [line for line in text.splitlines() if not line.startswith("#")]

    def bytes_written(self) -> int:
        return sum(p.stat().st_size for p in Path(self.out_dir).glob("*") if p.is_file())


class Solve(_CliWorkload):
    """``pushmdp solve``: policy iteration plus the solution and grid artifacts."""

    command = "solve"

    def check(self, code) -> list[tuple[str, bool, str]]:
        checks = [("exit-code", code == 0, f"exit code {code}")]
        body = self.artifact("solution.txt")
        rows = body[1:-1]
        try:
            gain = float(body[-1].split()[1]) if body[-1].startswith("lambda ") else None
            h = np.array([float(r.split()[4]) for r in rows])
            actions = [int(Action[r.split()[3]]) for r in rows]
        except (IndexError, KeyError, ValueError):
            gain, h, actions = None, np.zeros(0), []
        n = self.reference["num_states"]
        checks.append(("state-rows", len(rows) == n, f"{len(rows)} rows for {n} states"))
        ref_gain = self.reference["lambda"]
        checks.append(
            (
                "lambda-reference",
                gain is not None and abs(gain - ref_gain) <= GAIN_TOL,
                f"lambda {gain!r} vs reference {ref_gain!r}",
            )
        )
        if gain is not None and len(h) == n and h[0] == 0.0:
            kernel, costs = _kernel_and_costs(self.params, self.grid, self.popularity)
            values = ValueSolution(gain=gain, h=h, ref_state=0)
            optimal = bellman_residual(values, kernel, costs)
            attained = bellman_residual(values, kernel, costs, PolicyTable(actions))
        else:
            optimal = attained = float("inf")
        checks.append(
            ("bellman-residual", optimal <= RESIDUAL_TOL, f"residual {optimal:.3g}")
        )
        checks.append(
            ("policy-attains-min", attained <= RESIDUAL_TOL, f"residual {attained:.3g}")
        )
        grids = len(glob.glob(os.path.join(self.out_dir, "threshold_C*.txt")))
        expected = self.params.num_contents + 1
        checks.append(("threshold-grids", grids == expected, f"{grids} of {expected}"))
        return checks


class Validate(_CliWorkload):
    """``pushmdp validate``: structural checks, three solves, three simulations."""

    command = "validate"

    def check(self, code) -> list[tuple[str, bool, str]]:
        checks = [("exit-code", code == 0, f"exit code {code}")]
        lines = self.artifact("validate.txt")
        found = [line.split(" ", 2)[1].rstrip(":") for line in lines if " " in line]
        expected = self.reference["checks"]
        checks.append(("check-names", found == expected, f"{found}"))
        by_name = {line.split(" ", 2)[1].rstrip(":"): line for line in lines if " " in line}
        for name in expected:
            line = by_name.get(name, "missing")
            checks.append((name, line.startswith("PASS "), line))
        return checks


class KernelXL:
    """Library calls that load the transition layer at a large state space."""

    def __init__(self, overrides, reference):
        settings = cli.load_settings(None, list(overrides))
        self.params, _, self.grid, self.popularity = cli.build_scenario(settings)
        self.reference = reference

    def prepare(self) -> None:
        pass

    def run(self) -> dict:
        params, grid = self.params, self.grid
        arrival = ArrivalPmf.poisson(params.mean_arrival, params.battery_levels)
        kernel = build_kernel(params, grid, self.popularity, arrival)
        matrices = [kernel.action_matrix(a) for a in Action]
        report = validate_kernel(kernel)
        restricted = kernel.restrict({Action.SLEEP, Action.UNICAST})
        restricted_matrices = [
            restricted.action_matrix(a) for a in (Action.SLEEP, Action.UNICAST)
        ]
        greedy = unicast_priority_table(params, grid)
        costs = stage_cost_table(params)
        zero = ValueSolution(gain=0.0, h=np.zeros(params.num_states), ref_state=0)
        improved = policy_improvement(zero, kernel, costs)
        return {
            "matrices": matrices,
            "report": report,
            "restricted_matrices": restricted_matrices,
            "greedy": greedy,
            "improved": improved,
        }

    def check(self, out: dict) -> list[tuple[str, bool, str]]:
        ref = self.reference
        report = out["report"]
        matrices = out["matrices"]
        checks = [
            (
                "report-row-sums",
                report.max_row_sum_deviation < ROW_SUM_TOL,
                f"max deviation {report.max_row_sum_deviation:.3g}",
            ),
            (
                "report-negatives",
                report.negative_entries == 0,
                f"{report.negative_entries} negative entries",
            ),
            ("report-rows", report.num_rows == ref["rows"], f"{report.num_rows} rows"),
            (
                "report-states",
                report.num_states == ref["num_states"],
                f"{report.num_states} states",
            ),
        ]
        deviation = 0.0
        negatives = 0
        rows = 0
        for m in matrices:
            nonempty = np.diff(m.indptr) > 0
            sums = np.asarray(m.sum(axis=1)).ravel()[nonempty]
            deviation = max(deviation, float(np.max(np.abs(sums - 1.0), initial=0.0)))
            negatives += int(np.count_nonzero(m.data < 0))
            rows += int(np.count_nonzero(nonempty))
        nnz = sum(int(m.nnz) for m in matrices)
        restricted_nnz = sum(int(m.nnz) for m in out["restricted_matrices"])
        kept_nnz = int(matrices[Action.SLEEP].nnz + matrices[Action.UNICAST].nnz)
        checks += [
            ("csr-row-sums", deviation < ROW_SUM_TOL, f"max deviation {deviation:.3g}"),
            ("csr-negatives", negatives == 0, f"{negatives} negative entries"),
            ("csr-rows", rows == ref["rows"], f"{rows} rows vs {ref['rows']}"),
            ("csr-nnz", nnz == ref["nnz"], f"{nnz} nonzeros vs {ref['nnz']}"),
            (
                "restricted-nnz",
                restricted_nnz == kept_nnz,
                f"{restricted_nnz} vs {kept_nnz} sleep+unicast nonzeros",
            ),
            (
                "greedy-table",
                _actions_sha256(out["greedy"].actions) == ref["greedy_sha256"],
                "sha256 of the unicast-priority actions",
            ),
            (
                "improvement-from-zero",
                _actions_sha256(out["improved"].actions) == ref["improved_sha256"],
                "sha256 of the policy improved from h = 0",
            ),
        ]
        return checks


def make(name: str, seed: int, out_dir: str):
    """Build (set up) one named workload."""
    if name not in REFERENCE:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(REFERENCE)}")
    ref = REFERENCE[name]
    if name == "solve-large":
        return Solve(ref["overrides"], seed, out_dir, ref)
    if name == "validate-default":
        # The CLI's default seed, not the benchmark seed: see README.md.
        return Validate(ref["overrides"], ref["program_seed"], out_dir, ref)
    return KernelXL(ref["overrides"], ref)
