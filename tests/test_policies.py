"""Baseline policies and threshold structure analysis."""
import numpy as np
import pytest

from pushmdp.model import Action, state_table
from pushmdp.policies import (
    format_threshold_grid,
    non_push_optimal,
    threshold_profile,
    unicast_priority_table,
)
from pushmdp.solver import PolicyTable, policy_evaluation

from conftest import kernel_row, make_instance, make_scenario, state_at


def reference_unicast_priority(e, q, c, grid, params):
    """Per-state greedy rule that the table replaced; reference only."""
    if q >= 1 and grid.unicast_costs[q] <= e:
        return Action.UNICAST
    if q == 0 and grid.push_cost <= e and c < params.num_contents:
        return Action.PUSH
    return Action.SLEEP


def reference_threshold_profile(policy, params):
    """Per-slice loop over (q, c) that the profile arrays replaced; reference only.

    (threshold, clean): the first acting battery level or -1, and whether the
    slice acts at every level from there up.
    """
    shape = (params.num_rings + 1, params.num_contents + 1)
    threshold = np.full(shape, -1)
    clean = np.ones(shape, dtype=bool)
    for q, c in np.ndindex(shape):
        acts = [
            policy.actions[state_at(params, e, q, c)] != Action.SLEEP
            for e in range(params.battery_levels + 1)
        ]
        if any(acts):
            threshold[q, c] = acts.index(True)
            clean[q, c] = all(acts[threshold[q, c] :])
    return threshold, clean


def greedy_at(table, params):
    """Look up a policy table by (battery, request, pushed)."""
    return lambda e, q, c: table.actions[state_at(params, e, q, c)]


class TestUnicastPriority:
    def test_affordable_request_served(self, default_scenario, default_greedy):
        greedy = greedy_at(default_greedy, default_scenario[0])
        assert greedy(1, 1, 0) == Action.UNICAST
        assert greedy(4, 4, 3) == Action.UNICAST

    def test_push_only_when_idle(self, default_scenario, default_greedy):
        greedy = greedy_at(default_greedy, default_scenario[0])
        assert greedy(15, 0, 0) == Action.PUSH
        assert greedy(4, 0, 19) == Action.PUSH
        # a pending request never triggers a push, even if unaffordable
        assert greedy(2, 3, 0) == Action.SLEEP

    def test_sleep_when_nothing_affordable(self, default_scenario, default_greedy):
        greedy = greedy_at(default_greedy, default_scenario[0])
        assert greedy(3, 0, 0) == Action.SLEEP
        assert greedy(15, 0, 20) == Action.SLEEP

    def test_table_matches_rule(self, default_scenario, default_greedy):
        params, _, grid, _ = default_scenario
        for s, (e, q, c) in enumerate(zip(*state_table(params))):
            expect = reference_unicast_priority(e, q, c, grid, params)
            assert default_greedy.actions[s] == expect
        params, _, grid, _ = make_scenario(e_max=30, n_contents=40)
        table = unicast_priority_table(params, grid)
        for s, (e, q, c) in enumerate(zip(*state_table(params))):
            assert table.actions[s] == reference_unicast_priority(e, q, c, grid, params)

    def test_never_infeasible(self, default_instance, default_greedy):
        _, _, _, _, kernel, _ = default_instance
        default_greedy.validate(kernel.feasible_mask())


class TestNonPushOptimal:
    def test_never_pushes(self, default_nonpush):
        assert int(Action.PUSH) not in default_nonpush.policy.actions

    def test_gain_at_least_full_optimum(self, default_solution, default_nonpush):
        assert default_nonpush.values.gain >= default_solution.values.gain

    def test_gain_valid_in_full_system(self, default_instance, default_nonpush):
        _, _, _, _, kernel, costs = default_instance
        sol = policy_evaluation(default_nonpush.policy, kernel, costs)
        assert sol.gain == pytest.approx(default_nonpush.values.gain, abs=1e-10)

    def test_no_traffic_no_cost(self):
        _, _, _, _, kernel, costs = make_instance(
            e_max=2, n_contents=1, m_rings=1, p_u=0.0
        )
        result = non_push_optimal(kernel, costs)
        assert result.values.gain == pytest.approx(0.0, abs=1e-12)

    def test_cache_only_decays(self, default_instance, default_nonpush):
        params, _, _, _, kernel, _ = default_instance
        for s in range(params.num_states):
            idx, _ = kernel_row(kernel, s, default_nonpush.policy.actions[s])
            c_here = s % (params.num_contents + 1)
            assert all(i % (params.num_contents + 1) <= c_here for i in idx)


class TestThresholdProfile:
    def params(self):
        params, *_ = make_scenario(e_max=5, n_contents=1, m_rings=1)
        return params

    def table(self, params, fn):
        actions = np.zeros(params.num_states, dtype=np.int64)
        for s, (e, q, _) in enumerate(zip(*state_table(params))):
            actions[s] = int(fn(e, q))
        return PolicyTable(actions)

    def test_all_sleep_never_acts(self):
        params = self.params()
        profile = threshold_profile(PolicyTable.all_sleep(params.num_states), params)
        assert profile.all_clean and profile.violations == ()
        assert np.array_equal(profile.threshold, np.full((2, 2), -1))

    def test_clean_threshold_detected(self):
        params = self.params()
        table = self.table(
            params,
            lambda e, q: Action.UNICAST if e >= 3 and q == 1 else Action.SLEEP,
        )
        profile = threshold_profile(table, params)
        assert profile.all_clean
        # the q = 0 slices never act
        assert np.array_equal(profile.threshold, [[-1, -1], [3, 3]])

    def test_violation_flagged(self):
        params = self.params()
        # acts at battery 2, sleeps again at 3: not a threshold shape
        table = self.table(
            params,
            lambda e, q: Action.UNICAST if q == 1 and e in (2, 4, 5) else Action.SLEEP,
        )
        profile = threshold_profile(table, params)
        assert not profile.all_clean
        assert np.array_equal(profile.clean, [[True, True], [False, False]])
        assert np.array_equal(profile.threshold, [[-1, -1], [2, 2]])
        # Python ints, so validate.txt prints (1, 0) and not np.int64(1)
        assert profile.violations == ((1, 0), (1, 1))
        assert all(type(i) is int for v in profile.violations for i in v)
        assert str(profile.violations[:1]) == "((1, 0),)"

    def test_acts_everywhere(self):
        params = self.params()
        table = self.table(
            params,
            lambda e, q: Action.UNICAST if q == 1 else Action.SLEEP,
        )
        profile = threshold_profile(table, params)
        assert profile.threshold[1, 0] == 0
        assert profile.clean[1, 0]

    @pytest.mark.parametrize("p_u", [0.7, 0.3])
    def test_matches_reference_on_solved_policy(self, p_u):
        params, _, _, _, kernel, costs = make_instance(p_u=p_u)
        policy = non_push_optimal(kernel, costs).policy
        threshold, clean = reference_threshold_profile(policy, params)
        profile = threshold_profile(policy, params)
        assert np.array_equal(profile.threshold, threshold)
        assert np.array_equal(profile.clean, clean)
        assert (profile.threshold == -1).any()

    def test_profile_is_deterministic(self, default_solution, default_scenario):
        params, *_ = default_scenario
        p1 = threshold_profile(default_solution.policy, params)
        p2 = threshold_profile(default_solution.policy, params)
        assert np.array_equal(p1.threshold, p2.threshold)
        assert np.array_equal(p1.clean, p2.clean)


class TestThresholdGrid:
    def test_layout(self, default_solution, default_scenario):
        params, *_ = default_scenario
        text = format_threshold_grid(default_solution.policy, params, 0)
        lines = text.strip().splitlines()
        assert lines[0].split() == ["E\\Q", "0", "1", "2", "3", "4"]
        assert len(lines) == params.battery_levels + 2
        body = {cell for line in lines[1:] for cell in line.split()[1:]}
        assert body <= {"S", "U", "P"}

    def test_pushed_count_out_of_range(self, default_solution, default_scenario):
        params, *_ = default_scenario
        for pushed in (-1, params.num_contents + 1):
            with pytest.raises(ValueError):
                format_threshold_grid(default_solution.policy, params, pushed)

    def test_matches_policy(self, default_solution, default_scenario):
        params, *_ = default_scenario
        text = format_threshold_grid(default_solution.policy, params, 5)
        lines = text.strip().splitlines()[1:]
        for e, line in enumerate(lines):
            cells = line.split()[1:]
            for q, cell in enumerate(cells):
                act = Action(default_solution.policy.actions[state_at(params, e, q, 5)])
                assert cell == act.name[0]
