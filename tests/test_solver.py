"""Policy iteration, value iteration and the enumeration oracle."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import bmat, csr_matrix, diags, identity
from scipy.sparse.linalg import splu

from pushmdp.model import NUM_ACTIONS, Action
from pushmdp.policies import non_push_optimal
from pushmdp.solver import (
    ConvergenceError,
    MultichainError,
    PolicyTable,
    SingularPolicyError,
    ValueSolution,
    bellman_residual,
    brute_force_oracle,
    evaluate_with_fallback,
    policy_evaluation,
    policy_improvement,
    policy_iteration,
    relative_value_iteration,
    _class_labels,
    _q_values,
)
from pushmdp.transition import TransitionKernel, validate_kernel

from conftest import make_instance


def dense_kernel(mats: dict[int, np.ndarray]) -> TransitionKernel:
    """Hand-built kernel from dense per-action matrices (zero rows absent)."""
    n = next(iter(mats.values())).shape[0]
    return TransitionKernel(
        tuple(csr_matrix(mats.get(a, np.zeros((n, n)))) for a in range(NUM_ACTIONS))
    )


def costs_for(n: int, per_action: dict[int, np.ndarray]) -> np.ndarray:
    c = np.zeros((NUM_ACTIONS, n))
    for a, g in per_action.items():
        c[a] = g
    return c


def dense_policy_evaluation(policy, kernel, costs, ref_state=0):
    """(gain, h) from the dense bordered solve that sparse evaluation replaced.

    Reference for cross-checks only: it builds the (n+1)^2 system
    [[1, I - P_u], [0, e_ref]] and solves it with LAPACK.
    """
    n = kernel.num_states
    p_pi = np.zeros((n, n))
    for a in range(NUM_ACTIONS):
        states = np.flatnonzero(policy.actions == a)
        if states.size:
            p_pi[states] = kernel.action_matrix(Action(a))[states].toarray()
    a = np.zeros((n + 1, n + 1))
    a[:n, 0] = 1.0
    a[:n, 1:] = np.eye(n) - p_pi
    a[n, 1 + ref_state] = 1.0
    b = np.concatenate([costs[policy.actions, np.arange(n)], [0.0]])
    x = np.linalg.solve(a, b)
    return float(x[0]), x[1:] - x[1 + ref_state]


def full_chain_policy_matrix(policy, kernel):
    """P_u over all states, one row per state."""
    return sum(
        diags((policy.actions == a).astype(float)) @ kernel.action_matrix(Action(a))
        for a in np.unique(policy.actions)
    )


def full_chain_policy_evaluation(policy, kernel, costs, ref_state=0):
    """(gain, h) from the sparse bordered solve over every state.

    Reference for cross-checks only: evaluation now solves the policy's
    post-decision chain.  This is the full (n+1)-unknown system
    [[1, I - P_u], [0, e_ref]], factored by SuperLU and refined once.
    """
    n = kernel.num_states
    ones = csr_matrix(np.ones((n, 1)))
    border = csr_matrix(([1.0], ([0], [ref_state])), shape=(1, n))
    a = bmat(
        [[ones, identity(n) - full_chain_policy_matrix(policy, kernel)],
         [None, border]],
        format="csc",
    )
    b = np.append(costs[policy.actions, np.arange(n)], 0.0)
    lu = splu(a)
    x = lu.solve(b)
    x += lu.solve(b - a @ x)
    return float(x[0]), x[1:] - x[1 + ref_state]


def reduced_chain(policy, kernel):
    """T S, the chain policy_evaluation checks and solves, over post-decision states."""
    n = kernel.num_states
    rows, post = kernel.post_decision_rows(policy.actions, np.arange(n))
    return rows @ csr_matrix((np.ones(n), (np.arange(n), post)), shape=(n, rows.shape[0]))


def reference_q_values(kernel, costs, h):
    """Action-value table g + P h from each full action matrix.

    Reference for cross-checks only: _q_values now reads P h from one product
    of the post-decision template rows with h.
    """
    n = kernel.num_states
    q = np.full((NUM_ACTIONS, n), np.inf)
    mask = kernel.feasible_mask()
    for a in range(NUM_ACTIONS):
        rows = mask[a]
        if rows.any():
            vals = costs[a] + kernel.action_matrix(Action(a)) @ h
            q[a, rows] = vals[rows]
    return q


def assert_q_values_match_reference(kernel, costs, h):
    got = _q_values(kernel, costs, h)
    assert np.array_equal(got, reference_q_values(kernel, costs, h))


def policy_iterates(kernel, costs):
    """Policies policy iteration visits from all-sleep, at most 50, in order."""
    policy = PolicyTable.all_sleep(kernel.num_states)
    visited = [policy]
    while len(visited) < 50:
        improved = policy_improvement(
            policy_evaluation(policy, kernel, costs), kernel, costs
        )
        if improved == policy:
            break
        policy = improved
        visited.append(policy)
    return visited


def assert_matches(reference, policy, kernel, costs):
    sol = policy_evaluation(policy, kernel, costs)
    gain, h = reference(policy, kernel, costs)
    assert abs(sol.gain - gain) <= 1e-12
    assert np.max(np.abs(sol.h - h)) <= 1e-10


def assert_matches_dense(policy, kernel, costs):
    assert_matches(dense_policy_evaluation, policy, kernel, costs)
    assert_matches(full_chain_policy_evaluation, policy, kernel, costs)


@st.composite
def random_chains(draw, max_actions=2):
    """Dense random chains on 2-5 states: every policy is unichain."""
    n = draw(st.integers(2, 5))
    n_actions = draw(st.integers(1, max_actions))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    mats = {
        a: rng.dirichlet(np.ones(n), size=n) for a in range(n_actions)
    }
    kernel = dense_kernel(mats)
    costs = costs_for(n, {a: rng.uniform(0.0, 1.0, n) for a in range(n_actions)})
    return kernel, costs


# two-state single-action chain: stationary (0.25, 0.75), so the average
# cost of g = (0, 1) is 0.75 and the relative value of state 1 is 2.5
TWO_STATE_P = np.array([[0.7, 0.3], [0.1, 0.9]])
TWO_STATE_G = np.array([0.0, 1.0])

# faster-return variant: stationary (0.76, 0.24), gain 0.24, h = (0, 0.8)
RETURN_P = np.array([[0.7, 0.3], [0.95, 0.05]])


class TestPolicyEvaluation:
    def test_two_state_closed_form(self):
        kernel = dense_kernel({0: TWO_STATE_P})
        costs = costs_for(2, {0: TWO_STATE_G})
        sol = policy_evaluation(PolicyTable([0, 0]), kernel, costs)
        assert sol.gain == pytest.approx(0.75, abs=1e-12)
        assert sol.h[0] == 0.0
        assert sol.h[1] == pytest.approx(2.5, abs=1e-12)

    def test_alternate_reference_state(self):
        kernel = dense_kernel({0: TWO_STATE_P})
        costs = costs_for(2, {0: TWO_STATE_G})
        sol = policy_evaluation(PolicyTable([0, 0]), kernel, costs, ref_state=1)
        assert sol.gain == pytest.approx(0.75, abs=1e-12)
        assert sol.h[1] == 0.0
        assert sol.h[0] == pytest.approx(-2.5, abs=1e-12)

    def test_infeasible_policy_rejected(self):
        kernel = dense_kernel({0: TWO_STATE_P})
        costs = costs_for(2, {0: TWO_STATE_G})
        with pytest.raises(ValueError):
            policy_evaluation(PolicyTable([0, 1]), kernel, costs)

    def test_reducible_chain_detected(self):
        kernel = dense_kernel({0: np.eye(2)})
        costs = costs_for(2, {0: np.array([0.0, 1.0])})
        with pytest.raises(SingularPolicyError):
            policy_evaluation(PolicyTable([0, 0]), kernel, costs)

    def test_multichain_detected(self):
        # two absorbing states with different costs and one transient state
        # feeding both: two recurrent classes, so the gain is not unique
        p = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]])
        kernel = dense_kernel({0: p})
        costs = costs_for(3, {0: np.array([0.0, 1.0, 0.5])})
        with pytest.raises(SingularPolicyError):
            policy_evaluation(PolicyTable([0, 0, 0]), kernel, costs)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(e_max=2, n_contents=3, m_rings=1, p_c=0.0, p_u=0.7),
            dict(e_max=3, n_contents=2, m_rings=2, p_c=0.0, p_u=0.0),
        ],
    )
    def test_random_policies_solved_or_rejected(self, overrides, capfd):
        # a cache that never turns over (p_c = 0) makes many policies
        # multichain; without the closed-class check some were accepted with
        # a huge h, and SuperLU's BLAS printed "illegal value" errors
        _, _, _, _, kernel, costs = make_instance(**overrides)
        mask = kernel.feasible_mask()
        choices = [np.flatnonzero(mask[:, s]) for s in range(kernel.num_states)]
        rng = np.random.default_rng(0)
        for _ in range(100):
            policy = PolicyTable([rng.choice(c) for c in choices])
            try:
                sol = policy_evaluation(policy, kernel, costs)
            except SingularPolicyError:
                continue
            assert bellman_residual(sol, kernel, costs, policy=policy) <= 1e-9
        captured = capfd.readouterr()
        assert "illegal value" not in captured.out + captured.err

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(e_max=2, n_contents=3, m_rings=1, p_c=0.0, p_u=0.7),
            dict(e_max=3, n_contents=2, m_rings=2, p_c=0.0, p_u=0.0),
        ],
    )
    def test_closed_classes_match_full_chain(self, overrides):
        # T S and S T share their nonzero eigenvalues, so the post-decision
        # chain has as many closed classes as the full chain: the same
        # policies of test_random_policies_solved_or_rejected are rejected
        _, _, _, _, kernel, costs = make_instance(**overrides)
        mask = kernel.feasible_mask()
        choices = [np.flatnonzero(mask[:, s]) for s in range(kernel.num_states)]
        rng = np.random.default_rng(0)
        multichain = 0
        for _ in range(100):
            policy = PolicyTable([rng.choice(c) for c in choices])
            full = _class_labels(full_chain_policy_matrix(policy, kernel))[1].size
            assert _class_labels(reduced_chain(policy, kernel))[1].size == full
            try:
                policy_evaluation(policy, kernel, costs)
                rejected = False
            except SingularPolicyError:
                rejected = True
            assert rejected == (full > 1)
            multichain += full > 1
        assert multichain > 0

    def test_matches_dense_on_default_iterates(self, default_instance):
        _, _, _, _, kernel, costs = default_instance
        iterates = policy_iterates(kernel, costs)
        assert len(iterates) == 8
        for policy in iterates:
            assert_matches_dense(policy, kernel, costs)

    def test_matches_full_chain_at_scale(self):
        _, _, _, _, kernel, costs = make_instance(e_max=30, n_contents=40)
        iterates = policy_iterates(kernel, costs)
        assert len(iterates) == 11
        for policy in iterates:
            assert_matches(full_chain_policy_evaluation, policy, kernel, costs)
            # the post-decision chain is a fraction of the state space
            assert reduced_chain(policy, kernel).shape[0] < kernel.num_states / 2

    def test_matches_dense_on_restricted_kernel(self, default_instance):
        _, _, _, _, kernel, costs = default_instance
        restricted = kernel.restrict({Action.SLEEP, Action.UNICAST})
        iterates = policy_iterates(restricted, costs)
        assert iterates[-1] == non_push_optimal(kernel, costs).policy
        for policy in iterates:
            assert_matches_dense(policy, restricted, costs)

    def test_refined_to_double_precision_at_scale(self):
        # without the refinement step the fixed-policy residual here is 1.8e-2
        _, _, _, _, kernel, costs = make_instance(e_max=30, n_contents=40)
        result = policy_iteration(kernel, costs)
        sol = policy_evaluation(result.policy, kernel, costs)
        assert bellman_residual(sol, kernel, costs, policy=result.policy) <= 1e-10

    def test_matches_simulated_average(self, default_instance, default_nonpush):
        # evaluation gain equals the long-run ratio the simulator measures
        from pushmdp.sim import SimConfig, simulate

        params, _, grid, pop, kernel, costs = default_instance
        sol = policy_evaluation(default_nonpush.policy, kernel, costs)
        metrics = simulate(
            SimConfig(policy=default_nonpush.policy, horizon=200_000, seed=3,
                      warmup=5_000),
            params, grid, pop,
        )
        assert abs(sol.gain - metrics.macro_ratio) <= 3 * metrics.macro_ratio_se


class TestRelativeValueIteration:
    def test_two_state_closed_form(self):
        kernel = dense_kernel({0: TWO_STATE_P})
        costs = costs_for(2, {0: TWO_STATE_G})
        sol = relative_value_iteration(kernel, costs, tol=1e-10)
        assert sol.gain == pytest.approx(0.75, abs=1e-8)
        assert sol.h[1] == pytest.approx(2.5, abs=1e-6)

    def test_span_decreases(self):
        kernel = dense_kernel({0: TWO_STATE_P})
        costs = costs_for(2, {0: TWO_STATE_G})
        spans = []
        relative_value_iteration(kernel, costs, tol=1e-10, span_trace=spans)
        assert len(spans) > 3
        assert all(b <= a + 1e-12 for a, b in zip(spans, spans[1:]))

    def test_agrees_with_linear_solve(self):
        params, _, _, _, kernel, costs = make_instance(
            e_max=6, n_contents=4, m_rings=2
        )
        result = policy_iteration(kernel, costs)
        sol = relative_value_iteration(
            kernel, costs, tol=1e-10, policy=result.policy
        )
        assert sol.gain == pytest.approx(result.values.gain, abs=1e-8)

    def test_optimality_mode_matches_policy_iteration(self):
        _, _, _, _, kernel, costs = make_instance(
            e_max=4, n_contents=3, m_rings=2
        )
        result = policy_iteration(kernel, costs)
        sol = relative_value_iteration(kernel, costs, tol=1e-10)
        assert sol.gain == pytest.approx(result.values.gain, abs=1e-8)

    def test_equal_gain_reducible_chain_converges(self):
        kernel = dense_kernel({0: np.eye(2)})
        costs = costs_for(2, {0: np.zeros(2)})
        sol = relative_value_iteration(kernel, costs, policy=PolicyTable([0, 0]))
        assert sol.gain == 0.0

    def test_unequal_gain_reducible_chain_fails(self):
        kernel = dense_kernel({0: np.eye(2)})
        costs = costs_for(2, {0: np.array([0.0, 1.0])})
        with pytest.raises(ConvergenceError):
            relative_value_iteration(
                kernel, costs, policy=PolicyTable([0, 0]), max_iter=100
            )


class TestBellmanResidual:
    def test_exact_solution_zero_cost(self):
        kernel = dense_kernel({0: TWO_STATE_P})
        costs = costs_for(2, {0: np.zeros(2)})
        sol = ValueSolution(gain=0.0, h=np.zeros(2), ref_state=0)
        assert bellman_residual(sol, kernel, costs) == 0.0

    def test_converged_solution_small(self):
        kernel = dense_kernel({0: RETURN_P})
        costs = costs_for(2, {0: TWO_STATE_G})
        sol = policy_evaluation(PolicyTable([0, 0]), kernel, costs)
        assert sol.gain == pytest.approx(0.24, abs=1e-12)
        assert sol.h[1] == pytest.approx(0.8, abs=1e-12)
        assert bellman_residual(sol, kernel, costs) <= 1e-12

    def test_perturbation_detected(self):
        kernel = dense_kernel({0: RETURN_P})
        costs = costs_for(2, {0: TWO_STATE_G})
        perturbed = ValueSolution(gain=0.24, h=np.array([0.0, 0.9]), ref_state=0)
        assert bellman_residual(perturbed, kernel, costs) >= 0.09


class TestPolicyImprovement:
    def test_singleton_choice(self):
        kernel = dense_kernel({0: np.array([[1.0]])})
        costs = costs_for(1, {0: np.array([5.0])})
        sol = ValueSolution(gain=0.0, h=np.zeros(1), ref_state=0)
        assert policy_improvement(sol, kernel, costs)[0] == Action.SLEEP

    def test_exact_tie_takes_lowest_action(self):
        p = np.array([[1.0]])
        kernel = dense_kernel({1: p, 2: p})
        costs = costs_for(1, {1: np.array([0.5]), 2: np.array([0.5])})
        sol = ValueSolution(gain=0.0, h=np.zeros(1), ref_state=0)
        assert policy_improvement(sol, kernel, costs)[0] == Action.UNICAST

    def test_cheaper_action_wins(self):
        p = np.array([[1.0]])
        kernel = dense_kernel({0: p, 2: p})
        costs = costs_for(1, {0: np.array([0.5]), 2: np.array([0.1])})
        sol = ValueSolution(gain=0.0, h=np.zeros(1), ref_state=0)
        assert policy_improvement(sol, kernel, costs)[0] == Action.PUSH

    def test_converged_policy_is_fixed_point(self, default_instance, default_solution):
        _, _, _, _, kernel, costs = default_instance
        again = policy_improvement(default_solution.values, kernel, costs)
        assert again == default_solution.policy


class TestPolicyIteration:
    def test_default_instance_properties(self, default_instance, default_solution):
        params, _, _, _, kernel, costs = default_instance
        trace = default_solution.trace
        assert len(trace) <= 50
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
        assert 0.0 <= default_solution.values.gain <= params.request_prob
        assert default_solution.values.h[default_solution.values.ref_state] == 0.0
        assert bellman_residual(default_solution.values, kernel, costs) <= 1e-9

    def test_starts_from_all_sleep(self, default_instance, default_solution):
        params, *_ = default_instance
        # with everything asleep every request is missed, so the first
        # evaluated gain is the request probability itself
        assert default_solution.trace[0] == pytest.approx(
            params.request_prob, abs=1e-10
        )

    def test_fixed_policy_falls_back_to_value_iteration(self):
        # two closed classes with equal costs: singular system, gain 1
        kernel = dense_kernel({0: np.eye(2)})
        costs = costs_for(2, {0: np.ones(2)})
        policy = PolicyTable([0, 0])
        with pytest.raises(SingularPolicyError):
            policy_evaluation(policy, kernel, costs)
        sol = evaluate_with_fallback(policy, kernel, costs)
        assert sol.gain == pytest.approx(1.0, abs=1e-10)
        kernel = dense_kernel({0: TWO_STATE_P})
        costs = costs_for(2, {0: TWO_STATE_G})
        assert evaluate_with_fallback(PolicyTable([0, 0]), kernel, costs).gain == (
            policy_evaluation(PolicyTable([0, 0]), kernel, costs).gain
        )

    def test_default_records(self, default_instance, default_solution):
        _, _, _, _, kernel, _ = default_instance
        records = default_solution.iterations
        assert len(records) == 8
        assert tuple(r.gain for r in records) == default_solution.trace
        assert {r.route for r in records} == {"direct"}
        assert records[0].changed > 0 and records[-1].changed == 0
        assert all(0 < r.post_decision_states < kernel.num_states for r in records)

    def test_reducible_start_records_fallback(self):
        kernel = dense_kernel({0: np.eye(2), 1: np.array([[0.0, 1.0], [1.0, 0.0]])})
        costs = costs_for(2, {0: np.ones(2), 1: np.zeros(2)})
        records = policy_iteration(kernel, costs).iterations
        assert [r.route for r in records] == ["value-iteration", "direct"]
        assert [r.changed for r in records] == [2, 0]
        assert [r.post_decision_states for r in records] == [2, 2]

    def test_reducible_start_falls_back(self):
        kernel = dense_kernel({0: np.eye(2), 1: np.array([[0.0, 1.0], [1.0, 0.0]])})
        costs = costs_for(2, {0: np.ones(2), 1: np.zeros(2)})
        result = policy_iteration(kernel, costs)
        assert result.values.gain == pytest.approx(0.0, abs=1e-9)
        assert np.all(result.policy.actions == 1)

    def test_default_needs_no_fallback(self, monkeypatch, default_instance,
                                       default_solution):
        def no_fallback(*args, **kwargs):
            raise AssertionError("value-iteration fallback ran")

        monkeypatch.setattr("pushmdp.solver.relative_value_iteration", no_fallback)
        _, _, _, _, kernel, costs = default_instance
        result = policy_iteration(kernel, costs)
        assert result.policy == default_solution.policy

    def test_records_timing_and_fallback_telemetry(self, default_solution):
        for r in default_solution.iterations:
            assert r.evaluation_s > 0.0 and r.improvement_s > 0.0
            assert r.vi_sweeps is None and r.vi_span is None
        kernel = dense_kernel({0: np.eye(2), 1: np.array([[0.0, 1.0], [1.0, 0.0]])})
        costs = costs_for(2, {0: np.ones(2), 1: np.zeros(2)})
        fallback, direct = policy_iteration(kernel, costs).iterations
        assert fallback.vi_sweeps >= 1 and 0.0 <= fallback.vi_span < 1e-10
        assert direct.vi_sweeps is None and direct.vi_span is None

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(e_max=3, n_contents=3, m_rings=1, p_c=0.0, p_u=0.379),
            dict(e_max=3, n_contents=2, m_rings=1, p_c=0.0, p_u=0.89),
        ],
    )
    def test_multichain_start_fails_fast(self, monkeypatch, overrides):
        # with no cache turnover the all-sleep start never changes its pushed
        # count: one closed class per count, each with its own gain, where
        # value iteration used to run its 500,000 sweeps before giving up
        def no_fallback(*args, **kwargs):
            raise AssertionError("value-iteration fallback ran")

        monkeypatch.setattr("pushmdp.solver.relative_value_iteration", no_fallback)
        _, _, _, _, kernel, costs = make_instance(**overrides)
        with pytest.raises(MultichainError, match="closed classes"):
            policy_iteration(kernel, costs)
        with pytest.raises(SingularPolicyError) as exc:
            policy_evaluation(PolicyTable.all_sleep(kernel.num_states), kernel, costs)
        gains = exc.value.class_gains
        assert len(gains) == overrides["n_contents"] + 1
        assert min(gains) == pytest.approx(0.0, abs=1e-12)
        assert max(gains) == pytest.approx(overrides["p_u"], abs=1e-12)

    def test_iteration_cap(self):
        p = np.array([[1.0]])
        kernel = dense_kernel({0: p, 1: p})
        costs = costs_for(1, {0: np.array([1.0]), 1: np.array([0.0])})
        with pytest.raises(ConvergenceError):
            policy_iteration(kernel, costs, max_iter=1)
        result = policy_iteration(kernel, costs, max_iter=3)
        assert result.policy[0] == Action.UNICAST
        assert result.values.gain == pytest.approx(0.0, abs=1e-12)

    def test_unpacks_as_tuple(self, default_solution):
        policy, values, trace = default_solution
        assert policy is default_solution.policy
        assert values is default_solution.values
        assert trace is default_solution.trace


class TestTemplateQValues:
    @pytest.mark.parametrize(
        "overrides", [{}, dict(e_max=30, n_contents=40)], ids=["default", "large"]
    )
    def test_match_reference(self, overrides):
        _, _, _, _, kernel, costs = make_instance(**overrides)
        h = np.random.default_rng(1).standard_normal(kernel.num_states)
        optimal = policy_iteration(kernel, costs).values.h
        restricted = kernel.restrict({Action.SLEEP, Action.UNICAST})
        for k in (kernel, restricted):
            for values in (h, optimal, np.zeros(kernel.num_states)):
                assert_q_values_match_reference(k, costs, values)

    @given(instance=random_chains(max_actions=NUM_ACTIONS))
    @settings(max_examples=20, deadline=None)
    def test_match_reference_on_hand_built_kernels(self, instance):
        kernel, costs = instance
        h = np.random.default_rng(2).standard_normal(kernel.num_states)
        assert_q_values_match_reference(kernel, costs, h)
        assert_q_values_match_reference(kernel.restrict({Action.SLEEP}), costs, h)

    def test_solvers_gather_no_action_matrix(self, monkeypatch, default_instance,
                                             default_solution):
        def no_gather(self, action):
            raise AssertionError("action matrix gathered")

        _, _, _, _, kernel, costs = default_instance
        _, _, _, _, small, small_costs = make_instance(e_max=4, n_contents=3, m_rings=2)
        monkeypatch.setattr(TransitionKernel, "action_matrix", no_gather)
        result = policy_iteration(kernel, costs)
        assert result.policy == default_solution.policy
        assert bellman_residual(result.values, kernel, costs) <= 1e-9
        restricted = kernel.restrict({Action.SLEEP, Action.UNICAST})
        assert policy_iteration(restricted, costs).values.gain > result.values.gain
        relative_value_iteration(small, small_costs, tol=1e-10)
        validate_kernel(kernel)
        validate_kernel(restricted)


# The ranges of test_kernel_matches_reference_on_random_instances in
# test_transition.py, boundary probabilities included.
PROBABILITY = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@given(
    e_max=st.integers(0, 3),
    n=st.integers(0, 3),
    m=st.integers(1, 3),
    p_c=PROBABILITY,
    p_u=PROBABILITY,
)
@settings(max_examples=60, deadline=None)
def test_template_q_values_match_reference_on_random_instances(e_max, n, m, p_c, p_u):
    _, _, _, _, kernel, costs = make_instance(
        e_max=e_max, n_contents=n, m_rings=m, p_c=p_c, p_u=p_u
    )
    h = np.random.default_rng(3).standard_normal(kernel.num_states)
    assert_q_values_match_reference(kernel, costs, h)


class TestPolicyTable:
    def test_equality_and_hash(self):
        a = PolicyTable([0, 1, 2])
        b = PolicyTable(np.array([0, 1, 2]))
        c = PolicyTable([0, 1, 1])
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_immutable(self):
        table = PolicyTable([0, 1])
        with pytest.raises(AttributeError):
            table.actions = np.zeros(2)
        with pytest.raises(ValueError):
            table.actions[0] = 2

    def test_bad_codes_rejected(self):
        with pytest.raises(ValueError):
            PolicyTable([0, 3])
        with pytest.raises(ValueError):
            PolicyTable([[0, 1]])

    def test_validate_against_kernel(self):
        kernel = dense_kernel({0: TWO_STATE_P})
        PolicyTable([0, 0]).validate(kernel)
        with pytest.raises(ValueError):
            PolicyTable([1, 0]).validate(kernel)
        with pytest.raises(ValueError, match="PUSH to state 1"):
            PolicyTable([0, 2, 1]).validate(dense_kernel({0: np.eye(3)}))
        with pytest.raises(ValueError, match="entries"):
            PolicyTable([0]).validate(kernel)

    def test_all_sleep(self):
        table = PolicyTable.all_sleep(4)
        assert np.all(table.actions == int(Action.SLEEP))


class TestBruteForceOracle:
    def test_equals_policy_iteration_on_tiny_instance(self):
        _, _, _, _, kernel, costs = make_instance(
            e_max=2, n_contents=2, m_rings=1
        )
        oracle = brute_force_oracle(kernel, costs)
        result = policy_iteration(kernel, costs)
        assert abs(oracle.gain - result.values.gain) <= 1e-9

    def test_guards(self, default_instance):
        _, _, _, _, kernel, costs = default_instance
        with pytest.raises(ValueError):
            brute_force_oracle(kernel, costs)
        _, _, _, _, tiny, tc = make_instance(e_max=3, n_contents=2, m_rings=1)
        with pytest.raises(ValueError):
            brute_force_oracle(tiny, tc, max_policies=20_000)

    def test_single_policy_instance(self):
        _, _, _, _, kernel, costs = make_instance(
            e_max=1, n_contents=1, m_rings=1
        )
        only_sleep = kernel.restrict({Action.SLEEP})
        oracle = brute_force_oracle(only_sleep, costs)
        assert oracle.num_policies == 1
        assert np.all(oracle.policy.actions == int(Action.SLEEP))

    def test_no_traffic_all_policies_free(self):
        _, _, _, _, kernel, costs = make_instance(
            e_max=1, n_contents=1, m_rings=1, p_u=0.0
        )
        oracle = brute_force_oracle(kernel, costs)
        assert oracle.gain == pytest.approx(0.0, abs=1e-12)
        result = policy_iteration(kernel, costs)
        assert result.values.gain == pytest.approx(0.0, abs=1e-12)


@given(instance=random_chains())
@settings(max_examples=20, deadline=None)
def test_policy_iteration_equals_oracle_on_random_chains(instance):
    """Dense random chains with 1-2 actions: exhaustive minimum matches."""
    kernel, costs = instance
    oracle = brute_force_oracle(kernel, costs)
    result = policy_iteration(kernel, costs)
    assert abs(oracle.gain - result.values.gain) <= 1e-9


@given(instance=random_chains(max_actions=NUM_ACTIONS))
@settings(max_examples=30, deadline=None)
def test_sparse_evaluation_matches_dense_on_random_chains(instance):
    kernel, costs = instance
    for policy in policy_iterates(kernel, costs):
        assert_matches_dense(policy, kernel, costs)


# The ranges of test_kernel_rows_stochastic_on_random_instances, with p_c kept
# off zero: a cache that never turns over makes some policies multichain, and
# a singular system has no unique solution to compare.
@given(
    e_max=st.integers(0, 3),
    n=st.integers(0, 3),
    m=st.integers(1, 3),
    p_c=st.floats(0.05, 1.0),
    p_u=st.floats(0.0, 1.0),
)
@settings(max_examples=40, deadline=None)
def test_sparse_evaluation_matches_dense_on_random_instances(e_max, n, m, p_c, p_u):
    _, _, _, _, kernel, costs = make_instance(
        e_max=e_max, n_contents=n, m_rings=m, p_c=p_c, p_u=p_u
    )
    for policy in policy_iterates(kernel, costs):
        assert_matches_dense(policy, kernel, costs)
