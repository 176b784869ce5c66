"""Acceptance gate: eight end-to-end checks, one printed PASS/FAIL line each.

Each test prints its verdict with the measured numbers even when the suite is
run with output capture on, so a plain ``pytest -v`` shows the full scoreboard.
Criteria 1-4 compare solved policies at the standard scenario and its load
variants, 5 cross-checks the solver against long simulations, 6 against brute
force on tiny instances, 7 checks numerical exactness, 8 radio calibration.
"""
import time

import numpy as np
import pytest

from conftest import make_instance
from pushmdp.model import Action, state_table
from pushmdp.policies import (
    non_push_optimal,
    threshold_profile,
    unicast_priority_table,
)
from pushmdp.sim import SimConfig, simulate
from pushmdp.solver import (
    bellman_residual,
    brute_force_oracle,
    policy_evaluation,
    policy_iteration,
)
from pushmdp.transition import validate_kernel


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def high_load():
    return make_instance(p_u=1.0)


@pytest.fixture(scope="module")
def low_load():
    return make_instance(p_u=0.1)


def test_criterion_1_reduction_at_default_load(capsys):
    start = time.perf_counter()
    _, _, _, _, kernel, costs = make_instance()
    opt = policy_iteration(kernel, costs).values.gain
    base = non_push_optimal(kernel, costs).values.gain
    elapsed = time.perf_counter() - start
    reduction = (base - opt) / base
    ok = reduction > 0.45 and elapsed < 120.0
    _report(
        capsys,
        1,
        ok,
        f"macro-ratio reduction at p_u=0.7: {100 * reduction:.1f}% "
        f"(required > 45%), optimal {opt:.6f} vs non-push {base:.6f}, "
        f"solved in {elapsed:.1f}s (limit 120s)",
    )


def test_criterion_2_reduction_at_full_load(capsys, high_load):
    _, _, _, _, kernel, costs = high_load
    opt = policy_iteration(kernel, costs).values.gain
    base = non_push_optimal(kernel, costs).values.gain
    reduction = (base - opt) / base
    ok = 0.50 <= reduction <= 0.70
    _report(
        capsys,
        2,
        ok,
        f"macro-ratio reduction at p_u=1.0: {100 * reduction:.1f}% "
        f"(required 60% +- 10pp), optimal {opt:.6f} vs non-push {base:.6f}",
    )


def test_criterion_3_greedy_baseline_ordering(capsys, low_load, high_load):
    params_lo, _, grid_lo, _, kernel_lo, costs_lo = low_load
    opt_lo = policy_iteration(kernel_lo, costs_lo).values.gain
    greedy_lo = policy_evaluation(
        unicast_priority_table(params_lo, grid_lo), kernel_lo, costs_lo
    ).gain
    params_hi, _, grid_hi, _, kernel_hi, costs_hi = high_load
    greedy_hi = policy_evaluation(
        unicast_priority_table(params_hi, grid_hi), kernel_hi, costs_hi
    ).gain
    nonpush_hi = non_push_optimal(kernel_hi, costs_hi).values.gain
    near_optimal = greedy_lo <= 1.10 * opt_lo
    worse_than_nonpush = greedy_hi > nonpush_hi
    ok = near_optimal and worse_than_nonpush
    _report(
        capsys,
        3,
        ok,
        f"greedy {greedy_lo:.6f} vs optimal {opt_lo:.2g} at p_u=0.1 "
        f"(required within 10% relative: {near_optimal}); "
        f"greedy {greedy_hi:.6f} > non-push {nonpush_hi:.6f} at p_u=1.0: "
        f"{worse_than_nonpush}",
    )


def test_criterion_4_threshold_structure(capsys, default_instance, default_solution):
    params = default_instance[0]
    policy = default_solution.policy
    profile = threshold_profile(policy, params)
    ring1_bad = 0
    _, q_tab, _ = state_table(params)
    for s in range(params.num_states):
        act = policy.actions[s]
        if q_tab[s] == 1 and act != Action.SLEEP and act != Action.UNICAST:
            ring1_bad += 1
    ok = profile.all_clean and ring1_bad == 0
    _report(
        capsys,
        4,
        ok,
        f"{len(profile.violations)} non-threshold (Q,C) slices "
        f"(required 0); {ring1_bad} ring-1 request states acting but not "
        f"unicasting (required 0)",
    )


def test_criterion_5_solver_simulator_agreement(
    capsys, default_instance, default_solution, default_nonpush, default_greedy
):
    params, _, grid, _, kernel, costs = default_instance
    named = [
        ("optimal-push", default_solution.policy, default_solution.values.gain),
        ("non-push", default_nonpush.policy, default_nonpush.values.gain),
        (
            "unicast-priority",
            default_greedy,
            policy_evaluation(default_greedy, kernel, costs).gain,
        ),
    ]
    parts = []
    ok = True
    for name, table, gain in named:
        config = SimConfig(policy=table, horizon=1_000_000, seed=42, warmup=10_000)
        metrics = simulate(config, params, grid)
        gap = abs(gain - metrics.macro_ratio)
        se = metrics.macro_ratio_se
        z = gap / se if se > 0 else float("inf") if gap > 0 else 0.0
        ok &= gap <= 3.0 * se
        parts.append(f"{name} z={z:.2f}")
    _report(
        capsys,
        5,
        ok,
        "solver vs 1e6-period simulation: " + ", ".join(parts) + " (required <= 3)",
    )


def test_criterion_6_oracle_equivalence(capsys):
    rng = np.random.default_rng(2024)
    matched = 0
    attempts = 0
    worst = 0.0
    while matched < 100 and attempts < 400:
        attempts += 1
        overrides = dict(
            e_max=int(rng.integers(1, 4)),
            n_contents=int(rng.integers(1, 3)),
            m_rings=1,
            p_c=float(rng.uniform(0.2, 0.9)),
            p_u=float(rng.uniform(0.05, 0.95)),
            zipf_skew=float(rng.uniform(0.0, 2.0)),
            a_bar=float(rng.uniform(0.3, 2.0)),
        )
        _, _, _, _, kernel, costs = make_instance(**overrides)
        try:
            oracle = brute_force_oracle(kernel, costs, max_policies=20_000)
        except ValueError:
            # joint corner with too many policies to enumerate; redraw
            continue
        gain = policy_iteration(kernel, costs).values.gain
        worst = max(worst, abs(gain - oracle.gain))
        matched += 1
    ok = matched >= 100 and worst <= 1e-9
    _report(
        capsys,
        6,
        ok,
        f"policy iteration vs enumeration on {matched} tiny instances: "
        f"worst gain difference {worst:.3g} (required <= 1e-9)",
    )


def test_criterion_7_exactness_suite(
    capsys, default_instance, default_solution, default_nonpush
):
    _, _, _, _, kernel, costs = default_instance
    report = validate_kernel(kernel)
    row_dev = report.max_row_sum_deviation
    residuals = [
        bellman_residual(default_solution.values, kernel, costs),
        bellman_residual(
            default_nonpush.values,
            kernel.restrict({Action.SLEEP, Action.UNICAST}),
            costs,
        ),
    ]
    traces = [default_solution.trace, default_nonpush.trace]
    monotone = all(
        b <= a + 1e-12 for tr in traces for a, b in zip(tr, tr[1:])
    )
    refs_zero = (
        default_solution.values.h[default_solution.values.ref_state] == 0.0
        and default_nonpush.values.h[default_nonpush.values.ref_state] == 0.0
    )
    ok = (
        row_dev <= 1e-12
        and max(residuals) <= 1e-9
        and monotone
        and refs_zero
    )
    _report(
        capsys,
        7,
        ok,
        f"row-sum deviation {row_dev:.3g} (<= 1e-12), worst Bellman residual "
        f"{max(residuals):.3g} (<= 1e-9), gain traces non-increasing: "
        f"{monotone}, h[ref] == 0 exactly: {refs_zero}",
    )


def test_criterion_8_radio_calibration(capsys, default_scenario):
    params, _, grid, _ = default_scenario
    expected_d = [25.0, 35.355339059327378, 43.30127018922193, 50.0]
    d_err = max(
        abs(d - e) for d, e in zip(grid.distances, expected_d)
    )
    prob_err = max(abs(p - 0.25) for p in grid.ring_probs)
    m = params.num_rings
    integer_costs = grid.unicast_costs == tuple(range(m + 1)) and grid.push_cost == m
    ok = d_err <= 1e-3 and prob_err <= 1e-12 and integer_costs
    _report(
        capsys,
        8,
        ok,
        f"ring distances within {d_err:.2g} m of [25, 35.355, 43.301, 50] "
        f"(<= 1e-3), ring probabilities within {prob_err:.2g} of 0.25 "
        f"(<= 1e-12), unicast costs 0..{m} and push cost {m}: {integer_costs}",
    )
