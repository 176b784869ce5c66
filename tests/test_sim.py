"""Trajectory simulation: determinism, agreement with the kernel, sweeps."""
import bisect
import multiprocessing
import sys
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from pushmdp import sim
from pushmdp.model import (
    Action,
    cumulative_popularity_table,
    feasible_table,
    stage_cost_table,
    state_table,
    zipf_pmf,
)
from pushmdp.policies import unicast_priority_table
from pushmdp.sim import (
    _BATCHES,
    SimConfig,
    SimMetrics,
    simulate,
    simulate_many,
    simulation_workers,
    sweep,
)
from pushmdp.solver import PolicyTable, policy_evaluation

from conftest import (
    PROBABILITY,
    kernel_row,
    make_instance,
    make_scenario,
    reference_energy_spend,
    state_at,
)

REFERENCE_BLOCK = 1 << 18


def reference_batch_se(series: np.ndarray, batches: int) -> float:
    """Batch-means s.e. of a per-period series, its leftover periods dropped."""
    size = len(series) // batches
    if size < 1 or batches < 2:
        return float("nan")
    means = series[: batches * size].reshape(batches, size).mean(axis=1)
    return float(means.std(ddof=1) / np.sqrt(batches))


def reference_simulate(config, params, grid, record=False):
    """The per-period loop that the table-driven simulator replaced.

    Reference for cross-checks only: it draws the same blocks in the same
    order and steps one period at a time with scalar reads, ``bisect`` and
    inline feasibility checks of its own, which raise ValueError naming the
    period.  It counts overflowed energy in Python ints, exact at any size.
    With ``record=True`` it also returns the visited states and the actions
    taken.
    """
    actions = config.policy.actions
    horizon, warmup = config.horizon, config.warmup
    n_meas = horizon - warmup

    m1 = params.num_rings + 1
    n1 = params.num_contents + 1
    cap = params.battery_levels
    n_cont = params.num_contents
    p_c = params.content_replace_prob
    p_u = params.request_prob
    l_cost = grid.unicast_costs
    l_push = grid.push_cost
    pop_cum = cumulative_popularity_table(zipf_pmf(params))
    ring_cum = np.cumsum(grid.ring_probs).tolist()
    m_rings = grid.num_rings
    evict_thresh = [c / n_cont if n_cont else 0.0 for c in range(n_cont + 1)]

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(config.seed)))

    macro_ind = np.zeros(n_meas, dtype=np.uint8)
    req_ind = np.zeros(n_meas, dtype=np.uint8)
    hit_ind = np.zeros(n_meas, dtype=np.uint8)
    rec_states = np.zeros(horizon, dtype=np.int32)
    rec_actions = np.zeros(horizon, dtype=np.int8)

    e = q = c = overflow = 0
    req_flag = hit_flag = False
    unicast, push = int(Action.UNICAST), int(Action.PUSH)

    k = 0
    while k < horizon:
        blk = min(REFERENCE_BLOCK, horizon - k)
        arr_blk = rng.poisson(params.mean_arrival, blk)
        repl_blk = rng.random(blk)
        evict_blk = rng.random(blk)
        requ_blk = rng.random(blk)
        hitu_blk = rng.random(blk)
        ringu_blk = rng.random(blk)
        for i in range(blk):
            kk = k + i
            j = kk - warmup
            if j >= 0:
                if req_flag:
                    req_ind[j] = 1
                    if hit_flag:
                        hit_ind[j] = 1
            a = actions[(e * m1 + q) * n1 + c]
            if a == unicast:
                if q < 1 or l_cost[q] > e:
                    raise ValueError(
                        f"period {kk}: unicast infeasible in state ({e},{q},{c})"
                    )
                spent = l_cost[q]
            elif a == push:
                if l_push > e or c >= n_cont:
                    raise ValueError(
                        f"period {kk}: push infeasible in state ({e},{q},{c})"
                    )
                spent = l_push
            else:
                spent = 0
            rec_states[kk] = (e * m1 + q) * n1 + c
            rec_actions[kk] = a
            if q > 0 and a != unicast and j >= 0:
                macro_ind[j] = 1

            dropped = repl_blk[i] < p_c and evict_blk[i] < evict_thresh[c]
            c_next = c + (1 if a == push else 0) - (1 if dropped else 0)
            raw = e - spent + int(arr_blk[i])
            e_next = raw if raw < cap else cap
            if j >= 0:
                overflow += raw - e_next
            if requ_blk[i] < p_u:
                req_flag = True
                if hitu_blk[i] < pop_cum[c_next]:
                    hit_flag = True
                    q_next = 0
                else:
                    hit_flag = False
                    ring = bisect.bisect_right(ring_cum, ringu_blk[i])
                    q_next = (ring if ring < m_rings else m_rings - 1) + 1
            else:
                req_flag = hit_flag = False
                q_next = 0
            e, q, c = e_next, q_next, c_next
        k += blk

    metrics = SimMetrics(
        total_periods=horizon,
        measured_periods=n_meas,
        requests_generated=int(req_ind.sum()),
        macro_handled=int(macro_ind.sum()),
        cache_hits=int(hit_ind.sum()),
        energy_overflow_units=overflow,
        macro_ratio_se=reference_batch_se(macro_ind, _BATCHES),
        periods_per_s=float("nan"),
    )
    if record:
        return metrics, (rec_states, rec_actions)
    return metrics


def reference_sample_transitions(state, action, count, params, grid, popularity,
                                 seed=0):
    """Sampled next-state indices of one (E, Q, C) state under one action.

    Takes the simulator's draws in its order but compares them inline, where
    the simulator reduces them to thresholds first; reference only.
    """
    battery, request, pushed = state
    spent = reference_energy_spend(action, request, grid)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    cap = params.battery_levels
    n_cont = params.num_contents
    pop_cum = cumulative_popularity_table(popularity)
    ring_cum = np.cumsum(grid.ring_probs)

    arr = rng.poisson(params.mean_arrival, count)
    repl = rng.random(count)
    evict = rng.random(count)
    requ = rng.random(count)
    hitu = rng.random(count)
    ringu = rng.random(count)

    thresh = pushed / n_cont if n_cont else 0.0
    dropped = (repl < params.content_replace_prob) & (evict < thresh)
    c_next = pushed + (1 if action == Action.PUSH else 0) - dropped.astype(int)
    e_next = np.minimum(cap, battery - spent + arr)
    hit = hitu < pop_cum[c_next]
    req = requ < params.request_prob
    ring = np.minimum(
        np.searchsorted(ring_cum, ringu, side="right"), grid.num_rings - 1
    ) + 1
    q_next = np.where(req & ~hit, ring, 0)
    m1 = params.num_rings + 1
    n1 = params.num_contents + 1
    return ((e_next * m1 + q_next) * n1 + c_next).astype(np.int64)


def random_feasible_policy(params, grid, seed) -> PolicyTable:
    mask = feasible_table(params, grid)
    rng = np.random.default_rng(seed)
    return PolicyTable(
        [rng.choice(np.flatnonzero(mask[:, s])) for s in range(params.num_states)]
    )


def assert_matches_reference(config, params, grid):
    metrics, states = simulate(config, params, grid, record=True)
    actions = config.policy.actions[states]
    ref, (ref_states, ref_actions) = reference_simulate(
        config, params, grid, record=True
    )
    # repr tells apart 0.0 and -0.0, and Python from numpy scalars
    for f in fields(SimMetrics):
        if f.compare:
            assert repr(getattr(metrics, f.name)) == repr(getattr(ref, f.name)), f.name
    np.testing.assert_array_equal(states, ref_states)
    np.testing.assert_array_equal(actions, ref_actions)
    assert states.dtype == ref_states.dtype


class TestSimConfigValidation:
    def test_warmup_bounds(self):
        table = PolicyTable.all_sleep(4)
        with pytest.raises(ValueError):
            SimConfig(policy=table, horizon=100, seed=0, warmup=100)
        with pytest.raises(ValueError):
            SimConfig(policy=table, horizon=100, seed=0, warmup=-1)

    def test_seed_bounds(self):
        with pytest.raises(ValueError):
            SimConfig(policy=PolicyTable.all_sleep(4), horizon=100, seed=2**64, warmup=0)

    def test_policy_name_rejected(self):
        # names are resolved to tables by sim.baseline, not by the simulator
        with pytest.raises(TypeError, match="PolicyTable"):
            SimConfig(policy="optimal-push", horizon=100, seed=0, warmup=0)

    def test_run_settings_required(self):
        # the default run is declared once, in cli.DEFAULTS and --seed
        table = PolicyTable.all_sleep(4)
        with pytest.raises(TypeError, match="horizon"):
            SimConfig(policy=table, seed=0, warmup=0)
        with pytest.raises(TypeError, match="positional"):
            SimConfig(table, 100, 0, 0)


class TestSimulate:
    def test_deterministic(self, default_scenario, default_greedy):
        params, _, grid, _ = default_scenario
        cfg = SimConfig(policy=default_greedy, horizon=30_000, seed=9, warmup=1_000)
        m1 = simulate(cfg, params, grid)
        m2 = simulate(cfg, params, grid)
        assert m1 == m2

    def test_seed_matters(self, default_scenario, default_greedy):
        params, _, grid, _ = default_scenario
        a = simulate(
            SimConfig(policy=default_greedy, horizon=30_000, seed=1, warmup=1_000),
            params, grid,
        )
        b = simulate(
            SimConfig(policy=default_greedy, horizon=30_000, seed=2, warmup=1_000),
            params, grid,
        )
        assert a.macro_ratio != b.macro_ratio

    def test_no_traffic_no_requests(self):
        params, _, grid, _ = make_scenario(p_u=0.0)
        table = unicast_priority_table(params, grid)
        m = simulate(
            SimConfig(policy=table, horizon=20_000, seed=4, warmup=500),
            params, grid,
        )
        assert m.requests_generated == 0
        assert m.macro_handled == 0
        assert m.macro_ratio == 0.0

    def test_all_sleep_misses_every_request(self, default_scenario):
        params, _, grid, _ = default_scenario
        table = PolicyTable.all_sleep(params.num_states)
        m = simulate(
            SimConfig(policy=table, horizon=300_000, seed=11, warmup=5_000),
            params, grid,
        )
        # the cache stays empty, so the miss ratio approaches p_u
        assert m.cache_hits == 0
        assert abs(m.macro_ratio - params.request_prob) <= 3 * m.macro_ratio_se
        # one request is drawn per period, iid Bernoulli(p_u)
        p_u, n = params.request_prob, m.measured_periods
        binomial_se = np.sqrt(p_u * (1 - p_u) / n)
        assert abs(m.requests_generated / n - p_u) <= 3 * binomial_se

    def test_counter_identities(self, default_scenario, default_greedy):
        params, _, grid, _ = default_scenario
        m, states = simulate(
            SimConfig(policy=default_greedy, horizon=50_000, seed=21, warmup=2_000),
            params, grid, record=True,
        )
        assert m.macro_handled + m.cache_hits <= m.requests_generated
        assert m.requests_generated <= m.measured_periods
        # counted again from the measured periods' states: a period is
        # macro-handled where its state has macro cost under the policy, and
        # holds a request the cache missed where its ring Q is above 0
        measured = states[2_000:]
        macro = stage_cost_table(params)[default_greedy.actions[measured], measured]
        assert m.macro_handled == np.count_nonzero(macro)
        misses = np.count_nonzero(state_table(params)[1][measured])
        assert m.cache_hits == m.requests_generated - misses

    def test_large_overflow_counted(self):
        # about 40,000 units spill per period, beyond a 16-bit counter
        params, _, grid, _ = make_scenario(a_bar=40_000.0)
        table = unicast_priority_table(params, grid)
        m = simulate(
            SimConfig(policy=table, horizon=2_000, seed=0, warmup=10),
            params, grid,
        )
        assert m.energy_overflow_units / m.measured_periods > 39_000

    def test_step_tables_stay_small(self):
        # tables over states x draw codes would hold about 1.5G entries here
        params, _, grid, _ = make_scenario(e_max=60, n_contents=100)
        assert params.num_states == 30_805
        config = SimConfig(
            policy=unicast_priority_table(params, grid), horizon=20_000, seed=0,
            warmup=1_000,
        )
        simulate(config, params, grid)  # the first run pays lazy set-up
        tracemalloc.start()
        try:
            simulate(config, params, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_memory_does_not_grow_with_measured_periods(
        self, default_scenario, default_greedy
    ):
        # one byte per measured period would add 272 KiB at warmup 0; the
        # first draw block, full in both runs, sets the peak
        params, _, grid, _ = default_scenario
        horizon = (1 << 18) + (1 << 14)
        warm = SimConfig(policy=default_greedy, horizon=1_000, seed=0, warmup=0)
        simulate(warm, params, grid)
        peaks = []
        for warmup in (0, horizon - 100):
            config = SimConfig(policy=default_greedy, horizon=horizon, seed=0, warmup=warmup)
            tracemalloc.start()
            try:
                simulate(config, params, grid)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[0] - peaks[1]) < 16 * 2**10

    def test_reports_throughput(self, default_scenario, default_greedy):
        params, _, grid, _ = default_scenario
        m = simulate(
            SimConfig(policy=default_greedy, horizon=20_000, seed=0, warmup=500),
            params, grid,
        )
        assert np.isfinite(m.periods_per_s) and m.periods_per_s > 0

    def test_unknown_name_rejected(self, default_scenario):
        params, _, grid, _ = default_scenario

        def no_kernel():
            raise AssertionError("kernel built for an unknown name")

        with pytest.raises(ValueError, match="round-robin"):
            sim.baseline("round-robin", params, grid, no_kernel)

    def test_record_shapes(self, default_scenario, default_greedy):
        params, _, grid, _ = default_scenario
        m, states = simulate(
            SimConfig(policy=default_greedy, horizon=2_000, seed=0, warmup=100),
            params, grid, record=True,
        )
        assert len(states) == 2_000
        assert states.min() >= 0 and states.max() < params.num_states


# Edge scenarios: boundary probabilities, no catalog, an empty battery, one
# ring, a scenario large enough for several pushed-count thresholds, a Zipf
# catalog whose cumulative shares round above 1 before the last content, and a
# harvest whose scaled arrivals would pass int64 before the battery cap.
EDGE_SCENARIOS = [
    dict(p_c=0.0),
    dict(p_c=1.0),
    dict(p_u=0.0),
    dict(p_u=1.0),
    dict(n_contents=0),
    dict(e_max=0),
    dict(m_rings=1),
    dict(e_max=3, n_contents=2, m_rings=1),
    dict(e_max=30, n_contents=40),
    dict(n_contents=86, zipf_skew=7.95),
    dict(a_bar=4.4e17, e_max=5, n_contents=4),
]


class TestMatchesReferenceLoop:
    def test_default_policies(self, default_scenario, default_solution,
                              default_nonpush, default_greedy):
        params, _, grid, _ = default_scenario
        for table in (default_solution.policy, default_nonpush.policy,
                      default_greedy):
            config = SimConfig(policy=table, horizon=70_000, seed=3, warmup=0)
            assert_matches_reference(config, params, grid)

    # horizons and warm-ups on and next to the draw-block boundary (2^18); a
    # leftover of 12 periods after 100 batches of 11, longer than a batch; and
    # fewer measured periods than batches (nan s.e.)
    @pytest.mark.parametrize(
        "horizon, warmup",
        [
            (1_000_000, 10_000),
            (600_000, 1),
            (300_000, 262_144),
            (524_289, 262_145),
            (1_112, 0),
            (150, 100),
        ],
    )
    def test_block_boundaries(self, default_scenario, default_solution,
                              horizon, warmup):
        params, _, grid, _ = default_scenario
        config = SimConfig(
            policy=default_solution.policy, horizon=horizon, seed=8, warmup=warmup
        )
        assert_matches_reference(config, params, grid)

    @pytest.mark.parametrize("overrides", EDGE_SCENARIOS)
    def test_edge_scenarios(self, overrides):
        params, _, grid, _ = make_scenario(**overrides)
        for table in (unicast_priority_table(params, grid),
                      random_feasible_policy(params, grid, seed=1)):
            config = SimConfig(policy=table, horizon=20_000, seed=6, warmup=300)
            assert_matches_reference(config, params, grid)

    def test_overflow_sum_beyond_int64(self):
        # about 1e18 units spill per period, so the count passes 2**64
        params, _, grid, _ = make_scenario(a_bar=1e18, e_max=5, n_contents=4)
        config = SimConfig(
            policy=unicast_priority_table(params, grid), horizon=20_000, seed=0,
            warmup=1_000,
        )
        assert_matches_reference(config, params, grid)
        assert simulate(config, params, grid).energy_overflow_units > 2**64

    @given(
        e_max=st.integers(0, 6),
        n=st.integers(0, 5),
        m=st.integers(1, 3),
        p_c=PROBABILITY,
        p_u=PROBABILITY,
        seed=st.integers(0, 2**32 - 1),
        horizon=st.integers(1_000, 20_000),
        warmup=st.integers(0, 999),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_instances(self, e_max, n, m, p_c, p_u, seed, horizon, warmup):
        params, _, grid, _ = make_scenario(
            e_max=e_max, n_contents=n, m_rings=m, p_c=p_c, p_u=p_u
        )
        config = SimConfig(
            policy=random_feasible_policy(params, grid, seed),
            horizon=horizon,
            seed=seed,
            warmup=warmup,
        )
        assert_matches_reference(config, params, grid)

    def test_late_infeasible_state_rejected_before_first_draw(
        self, default_instance, default_greedy, monkeypatch
    ):
        params, _, grid, _, kernel, costs = default_instance
        _, states = simulate(
            SimConfig(policy=default_greedy, horizon=100_000, seed=4, warmup=0),
            params, grid, record=True,
        )
        # the first state first visited after period 50,000 that has an
        # infeasible action gets that action
        mask = feasible_table(params, grid)
        visited, first = np.unique(states, return_index=True)
        late = [(k, s) for s, k in zip(visited, first)
                if k > 50_000 and not mask[:, s].all()]
        period, state = min(late)
        actions = default_greedy.actions.copy()
        actions[state] = np.flatnonzero(~mask[:, state])[0]
        config = SimConfig(
            policy=PolicyTable(actions), horizon=100_000, seed=4, warmup=0
        )
        # the per-period reference meets the state only at that period
        with pytest.raises(ValueError, match=f"^period {period}: "):
            reference_simulate(config, params, grid)
        with pytest.raises(ValueError) as solved:
            policy_evaluation(config.policy, kernel, costs)

        def no_draw(*args):
            raise AssertionError("simulate drew before rejecting the table")

        monkeypatch.setattr(sim, "_draw", no_draw)
        with pytest.raises(ValueError) as simulated:
            simulate(config, params, grid)
        assert str(simulated.value) == str(solved.value)
        assert str(simulated.value) == (
            f"policy assigns infeasible action {Action(config.policy.actions[state]).name} "
            f"to state {state}"
        )


class TestBucketSearch:
    @pytest.mark.parametrize(
        "overrides",
        [{}, dict(n_contents=1, m_rings=1),
         dict(n_contents=3, m_rings=3, zipf_skew=2.5), dict(n_contents=40)],
        ids=["default", "one-content", "steep", "large"],
    )
    def test_matches_searchsorted_at_every_threshold(self, overrides):
        # each draw table of _draw, probed at its entries, their floating-point
        # neighbours, the bucket edges and 0 and the largest draw below 1
        params, _, grid, pop = make_scenario(**overrides)
        n = params.num_contents
        edges = np.arange(sim._BUCKETS + 1) / sim._BUCKETS
        for table in (np.arange(n + 1) / n, cumulative_popularity_table(pop),
                      np.cumsum(grid.ring_probs)):
            points = np.concatenate((table, edges, [np.nextafter(1.0, 0.0)]))
            points = np.concatenate(
                (points, np.nextafter(points, -np.inf), np.nextafter(points, np.inf))
            )
            u = points[(points >= 0.0) & (points < 1.0)]
            u = np.concatenate((u, np.random.default_rng(0).random(100_000)))
            got = sim._BucketSearch(table)(u)
            expect = np.searchsorted(table, u, side="right")
            assert got.dtype == expect.dtype
            assert np.array_equal(got, expect)


class TestAgreementWithKernel:
    def test_sampled_transitions_match_rows(self, default_instance):
        params, _, grid, pop, kernel, _ = default_instance
        cases = [
            ((0, 0, 0), Action.SLEEP),
            ((9, 2, 5), Action.UNICAST),
            ((12, 0, 3), Action.PUSH),
        ]
        n = 1_000_000
        for state, action in cases:
            samples = reference_sample_transitions(
                state, action, n, params, grid, pop, seed=77
            )
            counts = np.bincount(samples, minlength=params.num_states)
            idx, prob = kernel_row(kernel, state_at(params, *state), action)
            outside = np.ones(params.num_states, dtype=bool)
            outside[idx] = False
            assert counts[outside].sum() == 0
            freq = counts[idx] / n
            band = 4.0 * np.sqrt(prob * (1.0 - prob) / n)
            assert np.all(np.abs(freq - prob) <= band + 1e-9)

    def test_trajectory_frequencies_chi_square(self, default_instance, default_solution):
        params, _, grid, _, kernel, _ = default_instance
        _, states = simulate(
            SimConfig(policy=default_solution.policy, horizon=300_000, seed=13,
                      warmup=0),
            params, grid, record=True,
        )
        actions = default_solution.policy.actions[states]
        pair_codes = states[:-1] * 3 + actions[:-1]
        visited, counts = np.unique(pair_codes, return_counts=True)
        code = visited[np.argmax(counts)]
        s, a = int(code) // 3, int(code) % 3
        mask = pair_codes == code
        nxt = states[1:][mask]
        n = len(nxt)
        idx, prob = kernel_row(kernel, s, a)
        observed = np.bincount(nxt, minlength=params.num_states)[idx].astype(float)
        expected = prob * n
        # merge thin bins so every expected count is at least 5
        order = np.argsort(expected)
        merged_obs, merged_exp = [], []
        acc_o = acc_e = 0.0
        for j in order:
            acc_o += observed[j]
            acc_e += expected[j]
            if acc_e >= 5.0:
                merged_obs.append(acc_o)
                merged_exp.append(acc_e)
                acc_o = acc_e = 0.0
        if acc_e > 0:
            merged_obs[-1] += acc_o
            merged_exp[-1] += acc_e
        stat, pvalue = stats.chisquare(merged_obs, merged_exp)
        assert pvalue >= 1e-4


class TestSweep:
    def test_shape_and_ordering(self, default_scenario):
        params, _, grid, _ = default_scenario
        rows = sweep(
            params, grid,
            pu_grid=(0.3, 0.7),
            replications=1,
            horizon=120_000,
            warmup=5_000,
            seed=17,
        )
        assert len(rows) == 6
        assert {r.policy for r in rows} == {
            "optimal-push", "non-push", "unicast-priority",
        }
        by_point = {(r.policy, r.p_u): r for r in rows}
        for p_u in (0.3, 0.7):
            push = by_point[("optimal-push", p_u)]
            nopush = by_point[("non-push", p_u)]
            assert push.ratio_solver <= nopush.ratio_solver + 1e-12
            for r in (push, nopush):
                assert abs(r.ratio_sim - r.ratio_solver) <= 5 * r.se

    def test_single_point_single_policy(self, default_scenario):
        # one grid point gives one row per baseline, each policy once
        params, _, grid, _ = default_scenario
        rows = sweep(
            params, grid,
            pu_grid=(0.7,),
            replications=1,
            horizon=60_000,
            warmup=2_000,
            seed=23,
        )
        assert [r.policy for r in rows] == list(sim.BASELINE_NAMES)
        assert all(r.p_u == 0.7 for r in rows)

    def test_replications_aggregate_into_one_row(self, default_scenario):
        params, _, grid, _ = default_scenario
        rows = sweep(
            params, grid,
            pu_grid=(0.7,),
            replications=3,
            horizon=40_000,
            warmup=2_000,
            seed=29,
        )
        assert len(rows) == len(sim.BASELINE_NAMES)
        assert all(r.se > 0.0 for r in rows)

    def test_child_seeds_follow_the_spawn_order(self):
        # successive calls on one master continue where the last one stopped
        master = np.random.SeedSequence(7)
        seeds = sim.child_seeds(master, 2) + sim.child_seeds(master, 1)
        children = np.random.SeedSequence(7).spawn(3)
        assert seeds == [int(c.generate_state(1, np.uint64)[0]) for c in children]

    def test_bad_inputs_rejected(self, default_scenario):
        params, _, grid, _ = default_scenario
        run = dict(horizon=2_000, warmup=100, seed=0)
        with pytest.raises(ValueError, match="p_u grid point 0.0 outside"):
            sweep(params, grid, pu_grid=(0.0,), replications=1, **run)
        with pytest.raises(ValueError, match="replications must be >= 1"):
            sweep(params, grid, pu_grid=(0.5,), replications=0, **run)
        with pytest.raises(ValueError, match="p_u grid point 1.5 outside"):
            sim.check_sweep((0.5, 1.5), 1)
        sim.check_sweep((1e-9, 1.0), 1)

    def test_run_settings_required(self, default_scenario):
        params, _, grid, _ = default_scenario
        with pytest.raises(TypeError, match="replications"):
            sweep(params, grid, (0.5,), horizon=2_000, warmup=100, seed=0)


class TestSimulateMany:
    def test_serial_fallback(self, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(sim.sys, "platform", "darwin")
            assert simulation_workers(9) == 1
        monkeypatch.setattr(sim, "_available_cpus", lambda: 4)
        assert [simulation_workers(n) for n in (0, 1, 3, 9)] == [1, 1, 3, 4]

    @pytest.mark.skipif(sys.platform != "linux", reason="workers are forked on Linux only")
    def test_workers_match_in_process(self, default_scenario, default_greedy, monkeypatch):
        params, _, grid, _ = default_scenario
        jobs = [
            (SimConfig(policy=policy, horizon=30_000, seed=seed, warmup=1_000), params, grid)
            for policy, seed in (
                (default_greedy, 3),
                (PolicyTable.all_sleep(params.num_states), 4),
                (default_greedy, 5),
            )
        ]
        monkeypatch.setattr(sim, "_available_cpus", lambda: 2)
        assert simulate_many(jobs) == [simulate(*job) for job in jobs]
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(sys.platform != "linux", reason="workers are forked on Linux only")
    def test_worker_error_reaches_caller(self, default_instance, monkeypatch):
        params, _, grid, _, kernel, costs = default_instance
        bad = PolicyTable(np.ones(params.num_states, dtype=np.int64))
        jobs = [
            (SimConfig(policy=policy, horizon=20_000, seed=0, warmup=0), params, grid)
            for policy in (PolicyTable.all_sleep(params.num_states), bad)
        ]
        with pytest.raises(ValueError) as solved:
            policy_evaluation(bad, kernel, costs)
        messages = []
        for cpus in (2, 1):
            monkeypatch.setattr(sim, "_available_cpus", lambda: cpus)
            with pytest.raises(ValueError) as raised:
                simulate_many(jobs)
            messages.append(str(raised.value))
            assert multiprocessing.active_children() == []
        assert messages == [str(solved.value)] * 2
