"""Command line front end: configuration, experiment runs, artifact files.

All outputs are plain delimited text with the generating configuration and
seed embedded as comment headers, so any run is reproducible from its own
artifacts.  Config files are flat ``key = value`` lines with ``#`` comments;
the same keys can be overridden per run with ``--set KEY=VALUE``.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .model import (
    Action,
    SystemParams,
    calibrate_radio,
    stage_cost_table,
    state_table,
    zipf_pmf,
)
from .policies import format_threshold_grid, threshold_profile
from .sim import (
    _BATCHES,
    BASELINE_NAMES,
    SimConfig,
    baseline,
    check_run,
    check_sweep,
    child_seeds,
    simulate,
    simulate_many,
    simulation_workers,
    sweep,
)
from .solver import (
    ConvergenceError,
    SingularPolicyError,
    bellman_residual,
    brute_force_oracle,
    policy_evaluation,
    policy_iteration,
)
from .transition import ArrivalPmf, build_kernel, validate_kernel

__all__ = ["main", "load_settings", "build_scenario", "ConfigError", "DEFAULTS"]


class ConfigError(ValueError):
    """Bad configuration input (unknown key, unparsable value)."""


DEFAULTS = {
    "n_contents": 20,
    "zipf_skew": 0.5,
    "p_c": 0.3,
    "p_u": 0.7,
    "e_max": 15,
    "m_rings": 4,
    "a_bar": 0.8,
    "alpha": 2.0,
    "radius_m": 50.0,
    "horizon": 1_000_000,
    "warmup": 10_000,
    "replications": 1,
    "pu_grid": "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0",
}


def _coerce(key: str, raw: str):
    """Parse raw with the type of the key's default."""
    try:
        return type(DEFAULTS[key])(raw)
    except ValueError:
        raise ConfigError(f"config key '{key}' got unparsable value {raw!r}") from None


def parse_config_file(path: str) -> dict:
    """Read flat key = value lines; '#' starts a comment."""
    settings = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in text.split("=", 1))
            if key not in DEFAULTS:
                raise ConfigError(f"{path}:{lineno}: unknown config key '{key}'")
            settings[key] = _coerce(key, raw)
    return settings


def load_settings(config_path: str | None, overrides: list[str]) -> dict:
    """Defaults, then the config file, then --set overrides."""
    settings = dict(DEFAULTS)
    if config_path is not None:
        settings.update(parse_config_file(config_path))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = (part.strip() for part in item.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key '{key}'")
        settings[key] = _coerce(key, raw)
    return settings


def parse_pu_grid(raw: str) -> tuple[float, ...]:
    try:
        grid = tuple(float(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"config key 'pu_grid' got unparsable value {raw!r}") from None
    if not grid:
        raise ConfigError("config key 'pu_grid' is empty")
    return grid


# config key of each SystemParams field
_PARAM_KEYS = {
    "num_contents": "n_contents",
    "zipf_skew": "zipf_skew",
    "content_replace_prob": "p_c",
    "request_prob": "p_u",
    "battery_levels": "e_max",
    "num_rings": "m_rings",
    "mean_arrival": "a_bar",
}
# config key of each calibrate_radio argument
_RADIO_KEYS = {"num_rings": "m_rings", "pathloss_exp": "alpha", "cell_radius": "radius_m"}


def _input_error(exc: ValueError, keys: dict) -> ConfigError:
    """exc prefixed with the config key of the field its message starts with.

    A message that names no field (a calibration that fails on the values
    together) gets every key of the call.
    """
    field = str(exc).split(" ", 1)[0]
    named = [keys[field]] if field in keys else list(keys.values())
    label = "config key" if len(named) == 1 else "config keys"
    return ConfigError(f"{label} {', '.join(repr(k) for k in named)}: {exc}")


def build_scenario(settings: dict):
    """(params, arrival pmf, distance grid, popularity) from a settings mapping."""
    try:
        params = SystemParams(**{f: settings[k] for f, k in _PARAM_KEYS.items()})
    except ValueError as exc:
        raise _input_error(exc, _PARAM_KEYS) from None
    arrival = ArrivalPmf.poisson(params.mean_arrival, params.battery_levels)
    try:
        grid = calibrate_radio(**{f: settings[k] for f, k in _RADIO_KEYS.items()})
    except ValueError as exc:
        raise _input_error(exc, _RADIO_KEYS) from None
    return params, arrival, grid, zipf_pmf(params)


def _build_all(settings: dict):
    params, arrival, grid, popularity = build_scenario(settings)
    kernel = build_kernel(params, grid, popularity, arrival)
    costs = stage_cost_table(params)
    return params, grid, kernel, costs


def _header(command: str, settings: dict, seed: int) -> list[str]:
    lines = [f"# pushmdp {command}"]
    lines += [f"# {key} = {settings[key]}" for key in sorted(settings)]
    lines.append(f"# seed = {seed}")
    return lines


def _write(out_dir: str, name: str, lines: list[str]) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def cmd_solve(settings: dict, args) -> int:
    out_dir, seed = args.out, args.seed
    params, grid, kernel, costs = _build_all(settings)
    result = policy_iteration(kernel, costs)
    lines = _header("solve", settings, seed)
    lines.append("E Q C action h")
    names = np.array([a.name for a in Action])[result.policy.actions]
    columns = (*state_table(params), names, result.values.h)
    lines += [
        f"{e} {q} {c} {name} {h:.17g}"
        for e, q, c, name, h in zip(*(col.tolist() for col in columns))
    ]
    lines.append(f"lambda {result.values.gain:.17g}")
    # Wall times go to stdout, not into the artifacts: a run's files are a
    # function of its settings and seed.
    lines += [
        f"# iter {j} lambda {r.gain:.17g} changed {r.changed} "
        f"post_decision_states {r.post_decision_states}"
        for j, r in enumerate(result.iterations, start=1)
    ]
    _write(out_dir, "solution.txt", lines)

    width = max(2, len(str(params.num_contents)))
    for c in range(params.num_contents + 1):
        grid_lines = _header("solve", settings, seed)
        grid_lines.append(f"# pushed count C = {c}")
        grid_lines.append(format_threshold_grid(result.policy, params, c).rstrip("\n"))
        _write(out_dir, f"threshold_C{c:0{width}d}.txt", grid_lines)

    print(f"lambda {result.values.gain:.12g} after {len(result.trace)} iterations")
    evaluation_s = sum(r.evaluation_s for r in result.iterations)
    improvement_s = sum(r.improvement_s for r in result.iterations)
    print(f"evaluation {evaluation_s:.3f} s, improvement {improvement_s:.3f} s")
    print(f"wrote solution.txt and {params.num_contents + 1} threshold grids to {out_dir}")
    return 0


def cmd_simulate(settings: dict, args) -> int:
    seed, policy_name = args.seed, args.policy
    # before any kernel is built or worker line printed; the messages name the keys
    check_run(settings["horizon"], settings["warmup"], seed)
    params, arrival, grid, popularity = build_scenario(settings)
    # the values go unread: unicast-priority is neither evaluated nor given a kernel
    table, _ = baseline(
        policy_name,
        params,
        grid,
        lambda: build_kernel(params, grid, popularity, arrival),
        gain=False,
    )
    config = SimConfig(
        policy=table,
        horizon=settings["horizon"],
        seed=seed,
        warmup=settings["warmup"],
    )
    metrics = simulate(config, params, grid)
    lines = _header("simulate", settings, seed)
    for field in (
        "total_periods",
        "measured_periods",
        "requests_generated",
        "macro_handled",
        "cache_hits",
        "energy_overflow_units",
    ):
        lines.append(f"# {field} = {getattr(metrics, field)}")
    lines.append("policy p_u p_c a_bar ratio se K seed")
    lines.append(
        f"{policy_name} {params.request_prob:.17g} {params.content_replace_prob:.17g} "
        f"{params.mean_arrival:.17g} {metrics.macro_ratio:.17g} "
        f"{metrics.macro_ratio_se:.17g} {metrics.measured_periods} {seed}"
    )
    _write(args.out, "metrics.txt", lines)
    _print_throughput([metrics])
    print(
        f"{policy_name}: macro ratio {metrics.macro_ratio:.6f} "
        f"(s.e. {metrics.macro_ratio_se:.2g}) over {metrics.measured_periods} periods"
    )
    return 0


def _reduction(nopush: float, push: float) -> float:
    """Relative drop of the macro ratio from pushing; nan when non-push has none."""
    return (nopush - push) / nopush if nopush > 0 else float("nan")


def _print_workers(num_runs: int) -> None:
    # stdout only: the artifacts must not depend on the machine
    print(f"simulating {num_runs} runs on {simulation_workers(num_runs)} worker(s)")


def _print_throughput(runs) -> None:
    # stdout only, like the worker count: throughput varies between identical runs
    rates = [m.periods_per_s for m in runs]
    print(f"simulated {sum(m.total_periods for m in runs)} periods, "
          f"{np.median(rates):.4g} periods/s median, {min(rates):.4g} slowest")


def cmd_sweep(settings: dict, args) -> int:
    check_run(settings["horizon"], settings["warmup"], args.seed)
    pu_grid = parse_pu_grid(settings["pu_grid"])
    check_sweep(pu_grid, settings["replications"])
    params, _, grid, _ = build_scenario(settings)
    _print_workers(len(pu_grid) * len(BASELINE_NAMES) * settings["replications"])
    rows = sweep(
        params,
        grid,
        pu_grid,
        replications=settings["replications"],
        horizon=settings["horizon"],
        warmup=settings["warmup"],
        seed=args.seed,
    )
    _print_throughput([m for r in rows for m in r.runs])
    lines = _header("sweep", settings, args.seed)
    lines.append("policy p_u p_c a_bar ratio_sim se ratio_solver horizon seed")
    scenario = f"{params.content_replace_prob:.17g} {params.mean_arrival:.17g}"
    for r in rows:
        lines.append(
            f"{r.policy} {r.p_u:.17g} {scenario} "
            f"{r.ratio_sim:.17g} {r.se:.17g} {r.ratio_solver:.17g} "
            f"{settings['horizon']} {r.seed}"
        )
    _write(args.out, "sweep.txt", lines)

    summary = _header("sweep", settings, args.seed)
    summary.append("p_u reduction_solver reduction_sim")
    # one row per policy, point by point: a repeated p_u keeps its own rows
    width = len(BASELINE_NAMES)
    for j, p_u in enumerate(pu_grid):
        point = {r.policy: r for r in rows[j * width : (j + 1) * width]}
        push, nopush = point["optimal-push"], point["non-push"]
        red_solver = _reduction(nopush.ratio_solver, push.ratio_solver)
        red_sim = _reduction(nopush.ratio_sim, push.ratio_sim)
        summary.append(f"{p_u:.17g} {red_solver:.17g} {red_sim:.17g}")
        print(
            f"p_u {p_u:.2f}: push reduces macro ratio by "
            f"{100 * red_solver:.1f}% (solver) / {100 * red_sim:.1f}% (sim)"
        )
    _write(args.out, "summary.txt", summary)
    return 0


def _sim_se(metrics, table, values, kernel, costs) -> float:
    """The run's batch-means s.e., or the exact asymptotic s.e. where it is 0.

    A run with no macro event has equal batch means and s.e. 0.  The time
    average of the policy's stage cost f over n periods then has s.e.
    sqrt(sigma^2 / n), where sigma^2 = pi (2 (f - g) h - (f - g)^2) with the
    gain g and values h of ``values`` (Asmussen & Glynn 2007, ch. IV): the
    policy's gain under that cost table.
    """
    if metrics.macro_ratio_se != 0:
        return metrics.macro_ratio_se
    excess = costs - values.gain
    var = policy_evaluation(table, kernel, 2.0 * excess * values.h - excess**2).gain
    return math.sqrt(max(var, 0.0) / metrics.measured_periods)


def cmd_validate(settings: dict, args) -> int:
    horizon, warmup, seed = settings["horizon"], settings["warmup"], args.seed
    check_run(horizon, warmup, seed)
    if horizon - warmup < _BATCHES:  # no batch-means s.e., so no check could pass
        raise ConfigError(f"config keys 'horizon', 'warmup': validate needs horizon - "
                          f"warmup >= {_BATCHES} measured periods, got {horizon - warmup}")
    params, grid, kernel, costs = _build_all(settings)
    checks: list[tuple[str, bool, str]] = []

    report = validate_kernel(kernel)
    checks.append(
        (
            "kernel-rows",
            report.max_row_sum_deviation < 1e-12 and report.negative_entries == 0,
            f"max row-sum deviation {report.max_row_sum_deviation:.3g}, "
            f"{report.negative_entries} negative entries",
        )
    )

    result = policy_iteration(kernel, costs)
    trace = result.trace
    monotone = all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
    checks.append(
        ("gain-trace", monotone, f"{len(trace)} iterations, final {trace[-1]:.9g}")
    )
    residual = bellman_residual(result.values, kernel, costs)
    checks.append(("bellman-residual", residual <= 1e-9, f"residual {residual:.3g}"))
    checks.append(
        (
            "reference-value",
            result.values.h[result.values.ref_state] == 0.0,
            f"h[{result.values.ref_state}] = {result.values.h[result.values.ref_state]}",
        )
    )

    profile = threshold_profile(result.policy, params)
    checks.append(
        (
            "threshold-structure",
            profile.all_clean,
            f"{len(profile.violations)} non-threshold slices {profile.violations[:5]}",
        )
    )

    # optimal-push is BASELINE_NAMES[0], solved above
    named = [("optimal-push", result.policy, result.values)] + [
        (name, *baseline(name, params, grid, lambda: kernel)) for name in BASELINE_NAMES[1:]
    ]
    seeds = child_seeds(np.random.SeedSequence(seed), len(named))
    jobs = [
        (SimConfig(policy=table, horizon=horizon, seed=child, warmup=warmup), params, grid)
        for (_, table, _), child in zip(named, seeds)
    ]
    _print_workers(len(jobs))
    runs = simulate_many(jobs)
    _print_throughput(runs)
    for (name, table, values), metrics in zip(named, runs):
        gain = values.gain
        gap = abs(gain - metrics.macro_ratio)
        limit = 3.0 * _sim_se(metrics, table, values, kernel, costs)
        checks.append(
            (
                f"solver-vs-sim[{name}]",
                bool(gap <= limit),
                f"|{gain:.6f} - {metrics.macro_ratio:.6f}| = {gap:.3g} "
                f"vs 3 s.e. = {limit:.3g}",
            )
        )

    lines = _header("validate", settings, seed)
    all_ok = True
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        all_ok &= ok
        lines.append(f"{status} {name}: {detail}")
        print(f"{status} {name}: {detail}")
    _write(args.out, "validate.txt", lines)
    if args.dump_kernel:
        _write(args.out, "kernel.txt", [kernel.to_text().rstrip("\n")])
    return 0 if all_ok else 1


def cmd_oracle(settings: dict, args) -> int:
    _, _, kernel, costs = _build_all(settings)
    # an instance too large to enumerate is refused (exit 2) before any solve
    oracle = brute_force_oracle(kernel, costs)
    result = policy_iteration(kernel, costs)
    diff = abs(result.values.gain - oracle.gain)
    lines = _header("oracle", settings, args.seed)
    lines.append(f"lambda_policy_iteration {result.values.gain:.17g}")
    lines.append(f"lambda_oracle {oracle.gain:.17g}")
    lines.append(f"difference {diff:.17g}")
    lines.append(f"num_policies {oracle.num_policies}")
    _write(args.out, "oracle.txt", lines)
    print(
        f"policy iteration {result.values.gain:.12g} vs oracle {oracle.gain:.12g} "
        f"over {oracle.num_policies} policies (diff {diff:.3g})"
    )
    return 0 if diff <= 1e-9 else 1


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="flat key = value file")
    parser.add_argument("--out", metavar="DIR", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=0, metavar="U64")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        dest="overrides",
        help="override one config key (repeatable)",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pushmdp",
        description="Average-cost planning and simulation for an "
        "energy-harvesting small cell that proactively pushes content.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # (name, handler, help, own options); built per call, so a rebound cmd_* runs
    for name, handler, text, options in (
        ("solve", cmd_solve, "solve the decision process, dump policy", {}),
        ("simulate", cmd_simulate, "simulate one policy",
         {"--policy": dict(choices=BASELINE_NAMES, default="optimal-push")}),
        ("sweep", cmd_sweep, "ratio curves over a p_u grid", {}),
        ("validate", cmd_validate, "run structural and agreement checks",
         {"--dump-kernel": dict(action="store_true")}),
        ("oracle", cmd_oracle, "brute-force check on a tiny instance", {}),
    ):
        p = sub.add_parser(name, help=text)
        for flag, spec in options.items():
            p.add_argument(flag, **spec)
        _add_common(p)
        p.set_defaults(handler=handler)

    args = parser.parse_args(argv)
    try:
        return args.handler(load_settings(args.config, args.overrides), args)
    except (ConvergenceError, SingularPolicyError) as exc:
        # SingularPolicyError is a ValueError too, so it is caught first
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        # ConfigError, CalibrationError and the model's own input checks are
        # ValueErrors: bad input exits 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
