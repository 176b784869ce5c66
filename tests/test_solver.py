"""Policy iteration, value iteration and the enumeration oracle."""
import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import bmat, csr_matrix, diags, identity
from scipy.sparse.linalg import splu

from pushmdp import solver
from pushmdp.cli import DEFAULTS, main, parse_pu_grid
from pushmdp.model import NUM_ACTIONS, Action
from pushmdp.policies import non_push_optimal, unicast_priority_table
from pushmdp.solver import (
    ConvergenceError,
    MultichainError,
    PolicyTable,
    SingularPolicyError,
    ValueSolution,
    bellman_residual,
    brute_force_oracle,
    policy_evaluation,
    policy_improvement,
    policy_iteration,
    relative_value_iteration,
    _check_residual,
    _class_labels,
    _q_values,
)
from pushmdp.transition import TransitionKernel, validate_kernel

from conftest import (
    PROBABILITY,
    hand_built_kernel,
    make_instance,
    request_factor,
    template_rows,
)


def dense_kernel(mats: dict[int, np.ndarray], levels: int = 1) -> TransitionKernel:
    """Hand-built kernel from dense per-action matrices (zero rows absent)."""
    n = next(iter(mats.values())).shape[0]
    return hand_built_kernel(
        [csr_matrix(mats.get(a, np.zeros((n, n)))) for a in range(NUM_ACTIONS)], levels
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


def post_decision_chain(policy, kernel):
    """(T S, the template row of each state) over the post-decision states."""
    n = kernel.num_states
    labels, post = np.unique(
        kernel.labels[policy.actions, np.arange(n)], return_inverse=True
    )
    rows = template_rows(kernel)[labels]
    to_post = csr_matrix((np.ones(n), (np.arange(n), post)), shape=(n, rows.shape[0]))
    return rows @ to_post, rows, post


def pre_request_chain(policy, kernel):
    """D (S U), the chain policy_evaluation checks and solves, over (E, C)."""
    n = kernel.num_states
    labels = kernel.labels[policy.actions, np.arange(n)]
    to_rows = csr_matrix(
        (np.ones(n), (np.arange(n), labels)), shape=(n, kernel.rows.shape[0])
    )
    return (request_factor(kernel) @ (to_rows @ kernel.rows)).tocsr()


def reference_bordered(chain: csr_matrix, cost: np.ndarray, refs: list) -> np.ndarray:
    """(gain, y) solving gain*1 + (I - chain) y = cost with y = 0 at refs.

    The border row pins refs[0]; each further reference's pin replaces its
    own equation.  The residual is checked on the full, unmodified system.

    Reference for cross-checks only: evaluation solved chains with several
    closed classes this way, factored by SuperLU, before it pinned them in
    the level layout.
    """
    k = chain.shape[0]
    route = f"superlu route, {k}-state chain"
    ones = csr_matrix(np.ones((k, 1)))
    border = csr_matrix(([1.0], ([0], [refs[0]])), shape=(1, k))
    a = bmat([[ones, identity(k) - chain], [None, border]], format="csc")
    b = np.append(cost, 0.0)
    m, rhs = a, b
    if len(refs) > 1:
        others = np.asarray(refs[1:])
        keep = np.ones(k + 1)
        keep[others] = 0.0
        pins = csr_matrix((np.ones(others.size), (others, others + 1)), shape=a.shape)
        m, rhs = (diags(keep) @ a + pins).tocsc(), keep * b
    try:
        lu = splu(m)
    except RuntimeError as exc:
        raise SingularPolicyError(f"{route}: {exc}") from exc
    x = lu.solve(rhs)
    x += lu.solve(rhs - m @ x)
    _check_residual(x, a @ x - b, route)
    return x


def reference_pins(chain, cost, ref):
    """One reference state per closed class of chain, ref's class first.

    A class's reference is ref when ref belongs to it and its first state
    otherwise; when ref is transient the first class leads.  Raises
    MultichainError when the class gains, each from reference_bordered on
    the class alone, differ by more than 1e-10.
    """
    label, closed = _class_labels(chain)
    if closed.size == 1:
        return [ref]
    gains, refs = [], []
    for c in closed:
        members = np.flatnonzero(label == c)
        sub = chain[members][:, members]
        gains.append(reference_bordered(sub, cost[members], [0])[0])
        refs.append(ref if label[ref] == c else members[0])
    if max(gains) - min(gains) > 1e-10:
        raise MultichainError("closed classes differ in gain", tuple(gains))
    refs.sort(key=lambda r: r != ref)
    return refs


def superlu_policy_evaluation(policy, kernel, costs, ref_state=0):
    """(gain, h) from the SuperLU route, whatever the policy's closed classes.

    Reference for cross-checks only: evaluation solved every policy this way
    before it solved the pre-request chain R level by level.  This is the
    bordered system [[1, I - R], [0, e_ref]], pinned at ref_state's
    pre-request state, with one further reference pinned per other closed
    class (reference_pins), factored by SuperLU and refined once.
    """
    states = np.arange(kernel.num_states)
    labels = kernel.labels[policy.actions, states]
    g_pi = costs[policy.actions, states]
    chain = pre_request_chain(policy, kernel)
    cost = request_factor(kernel) @ g_pi
    refs = reference_pins(chain, cost, kernel.pre[ref_state])
    x = reference_bordered(chain, cost, refs)
    h = g_pi - x[0] + (kernel.rows @ x[1:])[labels]
    return float(x[0]), h - h[ref_state]


def closed_levels(policy, kernel):
    """Pushed-count levels that hold a state of a closed class of R."""
    label, closed = _class_labels(pre_request_chain(policy, kernel))
    return set((np.flatnonzero(np.isin(label, closed)) % kernel.levels).tolist())


def post_decision_policy_evaluation(policy, kernel, costs, ref_state=0):
    """(gain, h) from the bordered solve on the post-decision chain T S.

    Reference for cross-checks only: evaluation used to solve y = T h on
    the distinct template rows the policy uses, with one reference pinned per
    closed class, and now solves w = D h on the pre-request chain.  Raises
    MultichainError, as evaluation does, when the class gains differ.
    """
    chain, rows, post = post_decision_chain(policy, kernel)
    g_pi = costs[policy.actions, np.arange(kernel.num_states)]
    cost = rows @ g_pi
    x = reference_bordered(chain, cost, reference_pins(chain, cost, post[ref_state]))
    h = g_pi - x[0] + x[1:][post]
    return float(x[0]), h - h[ref_state]


def reference_q_values(kernel, costs, h):
    """Action-value table g + P h from each full action matrix.

    Reference for cross-checks only: _q_values now reads P h as U (D h) from
    the kernel's factors.
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


def reference_fixed_policy_rvi(policy, kernel, costs, tol=1e-10, max_iter=500_000):
    """(gain, h) of a fixed policy by damped relative value iteration.

    Reference for cross-checks only: policy evaluation fell back to this loop
    on chains with several closed classes before it pinned one reference per
    class.  Stops when the span of the one-step differences w - h drops below
    tol, so the gain is within tol/2; on classes that differ in gain it cannot
    converge and raises ConvergenceError.
    """
    n = kernel.num_states
    p_pi = full_chain_policy_matrix(policy, kernel)
    g_pi = costs[policy.actions, np.arange(n)]
    h = np.zeros(n)
    for _ in range(max_iter):
        w = g_pi + p_pi @ h
        delta = w - h
        lo, hi = float(delta.min()), float(delta.max())
        if hi - lo < tol:
            return 0.5 * (lo + hi), w - w[0]
        h = 0.5 * h + 0.5 * w
        h = h - h[0]
    raise ConvergenceError(f"span above {tol} after {max_iter} iterations")


def reference_class_gains(policy, kernel, costs):
    """Gain of each closed class of the full chain P_u, from a dense solve.

    Reference for cross-checks only: a class's gain is pi g_u for its
    stationary distribution pi, the solution of pi (P - I) = 0, sum pi = 1.
    """
    p_pi = full_chain_policy_matrix(policy, kernel)
    g_pi = costs[policy.actions, np.arange(kernel.num_states)]
    label, closed = _class_labels(csr_matrix(p_pi))
    gains = []
    for c in closed:
        members = np.flatnonzero(label == c)
        a = p_pi[members][:, members].toarray().T - np.eye(members.size)
        a[-1] = 1.0
        rhs = np.zeros(members.size)
        rhs[-1] = 1.0
        gains.append(float(np.linalg.solve(a, rhs) @ g_pi[members]))
    return gains


def random_policies(kernel, count=100):
    """count policies drawn uniformly from each state's feasible actions, seed 0."""
    mask = kernel.feasible_mask()
    choices = [np.flatnonzero(mask[:, s]) for s in range(kernel.num_states)]
    rng = np.random.default_rng(0)
    return [PolicyTable([rng.choice(c) for c in choices]) for _ in range(count)]


def assert_q_values_match_reference(kernel, costs, h):
    got = _q_values(kernel, costs, h)
    assert np.array_equal(got, reference_q_values(kernel, costs, h))


def assert_q_values_near_reference(kernel, costs, h, m_rings):
    """Factored Q-values within the summation bound of the reference's.

    U (D h) and the per-action products add the same terms in another order.
    Each side's error is at most its number of terms times eps times the sum
    of |p h| (Higham 2002, section 3.1), so a pair may differ by
    (nnz of its template row + nnz of its U row + M + 3) eps max(1, max|h|),
    the 3 covering the cost addition on each side.  Where the reference's
    best and second Q-values are more than twice that apart, the argmin is
    the same.
    """
    got = _q_values(kernel, costs, h)
    ref = reference_q_values(kernel, costs, h)
    feasible = kernel.feasible_mask()
    assert np.array_equal(np.isfinite(got), feasible)
    terms = np.diff(template_rows(kernel).indptr) + np.diff(kernel.rows.indptr)
    scale = np.finfo(float).eps * max(1.0, float(np.max(np.abs(h), initial=0.0)))
    bound = np.where(feasible, (terms[kernel.labels] + m_rings + 3) * scale, 0.0)
    assert np.all(np.abs(got[feasible] - ref[feasible]) <= bound[feasible])
    ordered = np.sort(ref, axis=0)
    clear = ordered[1] - ordered[0] > 2 * bound.max(axis=0)
    assert np.array_equal(got.argmin(axis=0)[clear], ref.argmin(axis=0)[clear])


def policy_iterates(kernel, costs):
    """Policies policy iteration visits from all-sleep, at most 50, in order."""
    policy = PolicyTable.all_sleep(kernel.num_states)
    visited = [policy]
    while len(visited) < 50:
        improved = policy_improvement(
            policy_evaluation(policy, kernel, costs), kernel, costs, incumbent=policy
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


def dense_bordered(chain, refs):
    """reference_bordered's matrix, dense: the border pins refs[0] and each
    further reference's pin replaces its own equation."""
    k = chain.shape[0]
    m = np.zeros((k + 1, k + 1))
    m[:k, 0] = 1.0
    m[:k, 1:] = np.eye(k) - chain.toarray()
    m[k, 1 + refs[0]] = 1.0
    for r in refs[1:]:
        m[r] = 0.0
        m[r, 1 + r] = 1.0
    return m


def assert_levels_match_superlu(policy, kernel, costs, scaled=False):
    """Evaluation matches SuperLU: gain within 1e-14, h within 1e-10.

    A chain with several closed classes may be rejected; when it is solved,
    SuperLU pins one reference per class as evaluation does.  A positive
    probability below eps, where 1 - p rounds to 1, splits a class in
    floating point; on such a chain either solver may find the system
    singular, so evaluation must only reject it or solve it to a
    fixed-policy residual of 1e-9.  Returns the solution, or None on a
    rejection.

    ``scaled``, for tiny chains whose rare moves make the system
    ill-conditioned, widens each bound to (k+1) cond eps when that is larger,
    the forward-error bound of two backward-stable solves of the
    (k+1)-unknown bordered system (Higham 2002, section 7.1), and scales the
    h and residual bounds by max(1, max|h|).
    """
    chain = pre_request_chain(policy, kernel)
    tiny = chain.data[chain.data > 0].min() < np.finfo(float).eps
    try:
        sol = policy_evaluation(policy, kernel, costs)
    except (MultichainError, SingularPolicyError):
        if tiny or _class_labels(chain)[1].size > 1:
            return None
        raise
    if tiny:
        scale = max(1.0, np.max(np.abs(sol.h))) if scaled else 1.0
        assert bellman_residual(sol, kernel, costs, policy=policy) <= 1e-9 * scale
        return sol
    gain, h = superlu_policy_evaluation(policy, kernel, costs)
    slack, scale = 0.0, 1.0
    if scaled:
        g_pi = costs[policy.actions, np.arange(kernel.num_states)]
        cost = request_factor(kernel) @ g_pi
        refs = reference_pins(chain, cost, kernel.pre[0])
        slack = (chain.shape[0] + 1) * np.linalg.cond(dense_bordered(chain, refs))
        slack *= np.finfo(float).eps
        scale = max(1.0, np.max(np.abs(h)))
    assert abs(sol.gain - gain) <= max(1e-14, slack)
    assert np.max(np.abs(sol.h - h)) <= max(1e-10, slack) * scale
    return sol


def assert_matches_dense(policy, kernel, costs):
    assert_matches(dense_policy_evaluation, policy, kernel, costs)
    assert_matches(full_chain_policy_evaluation, policy, kernel, costs)


def assert_matches_post_decision(policy, kernel, costs, ref_state=0):
    """Evaluation agrees with the post-decision reference, or both reject."""
    try:
        gain, h = post_decision_policy_evaluation(policy, kernel, costs, ref_state)
    except MultichainError as exc:
        with pytest.raises(MultichainError) as got:
            policy_evaluation(policy, kernel, costs, ref_state)
        assert sorted(got.value.class_gains) == pytest.approx(
            sorted(exc.class_gains), abs=1e-14
        )
        return None
    sol = policy_evaluation(policy, kernel, costs, ref_state)
    assert abs(sol.gain - gain) <= 1e-14
    assert np.max(np.abs(sol.h - h)) <= 1e-10
    return sol, h


def assert_iterates_match_post_decision(kernel, costs):
    """Policy iteration visits the same policies with either evaluation.

    Every iterate's evaluation agrees with the post-decision reference, and
    the reference's h improves it to the next iterate, so the final actions
    from policy_iteration have the reference's sha256.
    """
    iterates = policy_iterates(kernel, costs)
    for policy, nxt in zip(iterates, iterates[1:] + iterates[-1:]):
        _, h = assert_matches_post_decision(policy, kernel, costs)
        reference = ValueSolution(gain=0.0, h=h, ref_state=0)
        assert policy_improvement(reference, kernel, costs, incumbent=policy) == nxt
    finals = (iterates[-1], policy_iteration(kernel, costs).policy)
    assert len({hashlib.sha256(p.actions.tobytes()).digest() for p in finals}) == 1
    return iterates


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

# reducible single-action chains whose closed classes share the gain 1:
# (transition matrix, stage costs, levels)
EQUAL_GAIN_CHAINS = {
    # two absorbing states
    "identity": (np.eye(2), np.ones(2), 1),
    # two absorbing states fed by a transient one; pinning both absorbing
    # states while the border sits on the transient state gives gain 2
    "transient-feeds-two": (
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.25, 0.25, 0.5]]),
        np.array([1.0, 1.0, 3.0]),
        1,
    ),
    # an aperiodic and a periodic two-state class, each with gain 1, and a
    # transient state that feeds both
    "two-pairs-and-transient": (
        np.array([
            [0.5, 0.5, 0.0, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0],
            [0.3, 0.0, 0.0, 0.3, 0.4],
        ]),
        np.array([0.0, 2.0, 1.5, 0.5, 5.0]),
        1,
    ),
    # x = e*3 + c over 3 levels c: the class {(0, 0), (0, 1)} has stationary
    # (1/3, 2/3) and the periodic class {(1, 1), (1, 2)} (1/2, 1/2), each
    # spanning two levels, and the transient states (0, 2) and (1, 0) feed
    # both
    "two-levels-each": (
        np.array([
            [0.5, 0.5, 0.0, 0.0, 0.0, 0.0],
            [0.25, 0.75, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.5, 0.25, 0.0, 0.0, 0.25],
            [0.3, 0.2, 0.0, 0.2, 0.3, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
        ]),
        np.array([2.0, 0.5, 3.0, 4.0, 0.5, 1.5]),
        3,
    ),
}

# random-policy instances with no cache turnover, where many policies have
# several closed classes: at p_u = 0 every class has gain 0
RANDOM_POLICY_INSTANCES = [
    dict(e_max=2, n_contents=3, m_rings=1, p_c=0.0, p_u=0.7),
    dict(e_max=3, n_contents=2, m_rings=2, p_c=0.0, p_u=0.0),
    dict(e_max=3, n_contents=2, m_rings=2, p_c=0.0, p_u=0.3),
]


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
        with pytest.raises(MultichainError, match="2 closed classes") as exc:
            policy_evaluation(PolicyTable([0, 0]), kernel, costs)
        assert sorted(exc.value.class_gains) == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_multichain_detected(self):
        # two absorbing states with different costs and one transient state
        # feeding both: two recurrent classes, so the gain is not unique
        p = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]])
        kernel = dense_kernel({0: p})
        costs = costs_for(3, {0: np.array([0.0, 1.0, 0.5])})
        with pytest.raises(MultichainError):
            policy_evaluation(PolicyTable([0, 0, 0]), kernel, costs)

    def test_nearly_equal_gain_classes_rejected_as_multichain(self):
        # three closed classes whose gains differ, but by less than the
        # 1e-10 early check; the pinned system is then inconsistent
        params, _, grid, _, kernel, costs = make_instance(
            e_max=1, n_contents=2, m_rings=2, p_c=0, p_u=1e-10
        )
        policy = unicast_priority_table(params, grid)
        with pytest.raises(MultichainError, match="3 closed classes") as exc:
            policy_evaluation(policy, kernel, costs)
        gains = sorted(exc.value.class_gains)
        assert gains == pytest.approx([0.0, 2.0710678e-11, 5e-11], abs=1e-17)
        assert isinstance(exc.value.__cause__, SingularPolicyError)

    @pytest.mark.parametrize("name", list(EQUAL_GAIN_CHAINS))
    def test_equal_gain_classes_solved_directly(self, name):
        # h is not unique up to one constant here: it must vanish at each
        # closed class's reference, which is ref_state for its own class and
        # the class's first state for the others, or for every class when
        # ref_state is transient
        p, g, levels = EQUAL_GAIN_CHAINS[name]
        n = len(g)
        kernel = dense_kernel({0: p}, levels)
        costs = costs_for(n, {0: g})
        policy = PolicyTable.all_sleep(n)
        assert _class_labels(csr_matrix(p))[1].size == 2
        reference_gain, _ = reference_fixed_policy_rvi(policy, kernel, costs)
        for ref_state in range(n):
            sol = policy_evaluation(policy, kernel, costs, ref_state=ref_state)
            assert sol.gain == pytest.approx(1.0, abs=1e-12)
            assert abs(sol.gain - reference_gain) <= 1e-10
            assert sol.h[ref_state] == 0.0
            assert bellman_residual(sol, kernel, costs, policy=policy) <= 1e-12
            _, h = superlu_policy_evaluation(policy, kernel, costs, ref_state)
            assert np.max(np.abs(sol.h - h)) <= 1e-10

    @pytest.mark.parametrize("overrides", RANDOM_POLICY_INSTANCES)
    def test_random_policies_solved_or_rejected(self, overrides, capfd):
        # a cache that never turns over (p_c = 0) makes many policies
        # multichain; without the closed-class check some were accepted with
        # a huge h, and SuperLU's BLAS printed "illegal value" errors.  Those
        # whose classes differ in gain are rejected, the rest solved
        _, _, _, _, kernel, costs = make_instance(**overrides)
        for policy in random_policies(kernel):
            gains = reference_class_gains(policy, kernel, costs)
            assert_matches_post_decision(policy, kernel, costs)
            try:
                sol = policy_evaluation(policy, kernel, costs)
            except MultichainError as exc:
                assert max(gains) - min(gains) > 1e-10
                assert sorted(exc.class_gains) == pytest.approx(
                    sorted(gains), abs=1e-12
                )
                continue
            assert max(gains) - min(gains) <= 1e-10
            assert bellman_residual(sol, kernel, costs, policy=policy) <= 1e-9
        captured = capfd.readouterr()
        assert "illegal value" not in captured.out + captured.err

    @pytest.mark.parametrize("overrides", RANDOM_POLICY_INSTANCES)
    def test_closed_classes_match_full_chain(self, overrides):
        # P = S U D, T S = (U D) S and R = D (S U) share their nonzero
        # eigenvalues, so the post-decision and pre-request chains have as
        # many closed classes as the full chain; a policy is rejected exactly
        # when the full chain's classes differ in gain
        _, _, _, _, kernel, costs = make_instance(**overrides)
        multichain = 0
        for policy in random_policies(kernel):
            full = _class_labels(full_chain_policy_matrix(policy, kernel))[1].size
            assert _class_labels(post_decision_chain(policy, kernel)[0])[1].size == full
            assert _class_labels(pre_request_chain(policy, kernel))[1].size == full
            gains = reference_class_gains(policy, kernel, costs)
            assert len(gains) == full
            try:
                sol = policy_evaluation(policy, kernel, costs)
                rejected = False
            except MultichainError:
                rejected = True
            assert rejected == (max(gains) - min(gains) > 1e-10)
            if not rejected:
                assert bellman_residual(sol, kernel, costs, policy=policy) <= 1e-9
            multichain += full > 1
        assert multichain > 0

    @pytest.mark.parametrize("name", ["unicast-else-sleep", "unicast-priority"])
    def test_underflowing_products_are_no_edges(self, name, monkeypatch):
        # p_u = 1e-323 leaves request weights near the least subnormal, so
        # some products w(s) U[t(s), x'] of the policy's chain R = D (S U)
        # underflow to 0; R stores none of them, and the closed classes
        # evaluation finds are those of the nonzero pattern of R formed densely
        params, _, grid, _, kernel, costs = make_instance(
            e_max=3, n_contents=3, m_rings=1, p_c=0.5, p_u=1e-323
        )
        n = kernel.num_states
        if name == "unicast-else-sleep":
            unicast = kernel.feasible_mask()[Action.UNICAST]
            policy = PolicyTable(np.where(unicast, Action.UNICAST, Action.SLEEP))
        else:
            policy = unicast_priority_table(params, grid)
        su = kernel.rows.toarray()[kernel.labels[policy.actions, np.arange(n)]]
        products = kernel.weight[:, None] * su
        # some entry of R has all of its products underflow, so a chain that
        # kept such an entry as a stored 0 fails the check below
        pairs = (kernel.weight[:, None] != 0) & (su != 0)
        d = (request_factor(kernel) != 0).astype(int)
        per_entry = d @ pairs.astype(int)
        assert np.any((per_entry > 0) & (d @ (pairs & (products == 0)) == per_entry))
        found = []

        def spy(chain):
            found.append((np.count_nonzero(chain.data == 0), _class_labels(chain)))
            return found[-1][1]

        monkeypatch.setattr(solver, "_class_labels", spy)
        policy_evaluation(policy, kernel, costs)
        stored_zeros, (label, closed) = found[0]
        assert stored_zeros == 0
        got = {frozenset(np.flatnonzero(label == c).tolist()) for c in closed}
        # reachability of R's pattern by repeated squaring; a closed class is
        # the set a state reaches when every state it reaches leads back
        m = label.size
        reach = (request_factor(kernel).toarray() @ su != 0) | np.eye(m, dtype=bool)
        for _ in range(m.bit_length()):
            reach = reach.astype(int) @ reach > 0
        expect = {
            frozenset(np.flatnonzero(row).tolist())
            for row, back in zip(reach, reach.T)
            if np.array_equal(row, row & back)
        }
        assert got == expect

    def test_matches_dense_on_default_iterates(self, default_instance):
        _, _, _, _, kernel, costs = default_instance
        iterates = assert_iterates_match_post_decision(kernel, costs)
        assert len(iterates) == 8
        for policy in iterates:
            assert_matches_dense(policy, kernel, costs)

    def test_matches_full_chain_at_scale(self):
        _, _, _, _, kernel, costs = make_instance(e_max=30, n_contents=40)
        iterates = assert_iterates_match_post_decision(kernel, costs)
        assert len(iterates) == 11
        for policy in iterates:
            assert_matches(full_chain_policy_evaluation, policy, kernel, costs)
            # the pre-request chain has (E+1)(N+1) = n/(M+1) states
            assert pre_request_chain(policy, kernel).shape == (31 * 41, 31 * 41)

    @pytest.mark.parametrize("p_u", parse_pu_grid(DEFAULTS["pu_grid"]))
    def test_matches_post_decision_on_load_grid(self, p_u):
        # the default sweep grid, for the full and the non-push kernel
        _, _, _, _, kernel, costs = make_instance(p_u=p_u)
        assert_iterates_match_post_decision(kernel, costs)
        restricted = kernel.restrict({Action.SLEEP, Action.UNICAST})
        final = assert_iterates_match_post_decision(restricted, costs)[-1]
        assert final == non_push_optimal(kernel, costs).policy

    def test_reference_state_without_request_weight(self):
        # at p_u = 1 a request always comes while nothing is pushed, so state
        # 0 = (0, 0, 0) has weight 0 in D; it still maps to pre-request row 0
        _, _, _, _, kernel, costs = make_instance(p_u=1.0)
        assert kernel.pre[0] == 0 and kernel.weight[0] == 0.0
        for policy in policy_iterates(kernel, costs):
            sol, _ = assert_matches_post_decision(policy, kernel, costs)
            assert sol.h[0] == 0.0

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

        params, _, grid, _, kernel, costs = default_instance
        sol = policy_evaluation(default_nonpush.policy, kernel, costs)
        metrics = simulate(
            SimConfig(policy=default_nonpush.policy, horizon=200_000, seed=3,
                      warmup=5_000),
            params, grid,
        )
        assert abs(sol.gain - metrics.macro_ratio) <= 3 * metrics.macro_ratio_se


class TestLevelRoute:
    @pytest.mark.parametrize(
        "overrides", [{}, dict(e_max=30, n_contents=40)], ids=["default", "large"]
    )
    def test_matches_superlu_on_iterates(self, overrides):
        _, _, _, _, kernel, costs = make_instance(**overrides)
        for policy in policy_iterates(kernel, costs):
            assert assert_levels_match_superlu(policy, kernel, costs) is not None

    def test_class_at_level_zero_only(self, default_instance):
        # the all-sleep start pushes nothing, so its class sits at C = 0, the
        # end level, where reduction onto any other level would be singular
        _, _, _, _, kernel, costs = default_instance
        policy = PolicyTable.all_sleep(kernel.num_states)
        assert closed_levels(policy, kernel) == {0}
        assert assert_levels_match_superlu(policy, kernel, costs) is not None

    def test_class_at_top_level_only(self):
        # with no cache turnover, pushing whenever the battery allows fills
        # the cache and then sleeps: one closed class, at C = N only
        params, _, _, _, kernel, costs = make_instance(p_c=0.0)
        push = kernel.feasible_mask()[Action.PUSH]
        policy = PolicyTable(np.where(push, Action.PUSH, Action.SLEEP))
        assert closed_levels(policy, kernel) == {params.num_contents}
        assert assert_levels_match_superlu(policy, kernel, costs) is not None

    @pytest.mark.parametrize(
        "overrides", [dict(n_contents=0), dict(e_max=0)], ids=["one-level", "1x1-blocks"]
    )
    def test_degenerate_blocks(self, overrides):
        _, _, _, _, kernel, costs = make_instance(**overrides)
        for policy in policy_iterates(kernel, costs):
            assert assert_levels_match_superlu(policy, kernel, costs) is not None

    @given(instance=random_chains(max_actions=NUM_ACTIONS))
    @settings(max_examples=20, deadline=None)
    def test_hand_built_kernel_is_one_dense_level(self, instance):
        kernel, costs = instance
        assert kernel.levels == 1
        for policy in random_policies(kernel, count=5):
            assert assert_levels_match_superlu(policy, kernel, costs) is not None

    @pytest.mark.parametrize(
        "overrides", [{}, dict(e_max=30, n_contents=40)], ids=["default", "large"]
    )
    def test_unichain_solves_factor_nothing(self, overrides):
        _, _, _, _, kernel, costs = make_instance(**overrides)
        restricted = kernel.restrict({Action.SLEEP, Action.UNICAST})
        for k in (kernel, restricted):
            result = policy_iteration(k, costs)
            assert bellman_residual(result.values, k, costs) <= 1e-9
        assert non_push_optimal(kernel, costs).policy == result.policy

    def test_equal_gain_classes_match_superlu(self):
        # at p_u = 0 nothing is requested and, with no cache turnover, the
        # all-sleep start keeps every pushed count: three closed classes of
        # gain 0
        _, _, _, _, kernel, costs = make_instance(
            e_max=3, n_contents=2, m_rings=2, p_c=0.0, p_u=0.0
        )
        policy = PolicyTable.all_sleep(kernel.num_states)
        assert closed_levels(policy, kernel) == {0, 1, 2}
        assert assert_levels_match_superlu(policy, kernel, costs) is not None
        assert policy_iteration(kernel, costs).iterations[0].gain == 0.0

    def test_pinned_rows_leave_the_callers_chain_unchanged(self):
        # policy_evaluation checks the full equations with the chain it
        # passed in, so the pinned rows are zeroed in a copy
        p, g, levels = EQUAL_GAIN_CHAINS["two-levels-each"]
        chain = csr_matrix(p)
        data = chain.data.copy()
        # the class {0, 1} is solved, the other class is pinned at state 4
        x = solver._solve_levels(chain, g, levels, np.array([0, 1]), [4])
        assert np.array_equal(chain.data, data)
        assert x[0] == pytest.approx(1.0, abs=1e-12)
        assert x[1 + 0] == pytest.approx(0.0, abs=1e-12)
        assert x[1 + 4] == pytest.approx(0.0, abs=1e-12)


# The ranges of test_kernel_matches_reference_on_random_instances in
# test_transition.py, boundary probabilities included.
@given(
    e_max=st.integers(0, 3),
    n=st.integers(0, 3),
    m=st.integers(1, 3),
    p_c=PROBABILITY,
    p_u=PROBABILITY,
)
# level 0 left with probability 1e-16, a level left toward the rest with
# probability 1e-9, and class gains 1e-10 apart
@example(e_max=2, n=2, m=1, p_c=1.0, p_u=0.9999999999999999)
@example(e_max=3, n=2, m=2, p_c=1.0, p_u=1e-9)
@example(e_max=1, n=2, m=2, p_c=0.0, p_u=1e-10)
@settings(max_examples=60, deadline=None)
def test_level_route_on_random_instances(e_max, n, m, p_c, p_u):
    params, _, grid, _, kernel, costs = make_instance(
        e_max=e_max, n_contents=n, m_rings=m, p_c=p_c, p_u=p_u
    )
    policies = [
        PolicyTable.all_sleep(kernel.num_states),
        unicast_priority_table(params, grid),
        *random_policies(kernel, count=5),
    ]
    for policy in policies:
        assert_levels_match_superlu(policy, kernel, costs, scaled=True)


class TestRelativeValueIteration:
    def test_two_state_closed_form(self):
        kernel = dense_kernel({0: TWO_STATE_P})
        costs = costs_for(2, {0: TWO_STATE_G})
        sol = relative_value_iteration(kernel, costs, tol=1e-10)
        assert sol.gain == pytest.approx(0.75, abs=1e-8)
        assert sol.h[1] == pytest.approx(2.5, abs=1e-6)

    def test_agrees_with_linear_solve(self):
        params, _, _, _, kernel, costs = make_instance(
            e_max=6, n_contents=4, m_rings=2
        )
        result = policy_iteration(kernel, costs)
        gain, _ = reference_fixed_policy_rvi(result.policy, kernel, costs)
        assert gain == pytest.approx(result.values.gain, abs=1e-8)

    def test_optimality_mode_matches_policy_iteration(self):
        _, _, _, _, kernel, costs = make_instance(
            e_max=4, n_contents=3, m_rings=2
        )
        result = policy_iteration(kernel, costs)
        sol = relative_value_iteration(kernel, costs, tol=1e-10)
        assert sol.gain == pytest.approx(result.values.gain, abs=1e-8)

    def test_iteration_cap(self):
        _, _, _, _, kernel, costs = make_instance(e_max=3, n_contents=2, m_rings=1)
        message = "^span above 1e-09 after 1 iterations$"
        with pytest.raises(ConvergenceError, match=message):
            relative_value_iteration(kernel, costs, max_iter=1)

    def test_equal_gain_reducible_chain_converges(self):
        kernel = dense_kernel({0: np.eye(2)})
        costs = costs_for(2, {0: np.zeros(2)})
        policy = PolicyTable([0, 0])
        assert reference_fixed_policy_rvi(policy, kernel, costs)[0] == 0.0
        assert policy_evaluation(policy, kernel, costs).gain == 0.0

    def test_unequal_gain_reducible_chain_fails(self):
        kernel = dense_kernel({0: np.eye(2)})
        costs = costs_for(2, {0: np.array([0.0, 1.0])})
        policy = PolicyTable([0, 0])
        with pytest.raises(ConvergenceError):
            reference_fixed_policy_rvi(policy, kernel, costs, max_iter=100)
        with pytest.raises(MultichainError):
            policy_evaluation(policy, kernel, costs)


class TestValueSolution:
    @pytest.mark.parametrize(
        "h, ref_state, match",
        [(np.zeros(2), 2, "outside the state space"),
         (np.zeros(2), -1, "outside the state space"),
         (np.array([0.0, 1.0]), 1, "vanish at the reference state")],
    )
    def test_rejects_bad_reference(self, h, ref_state, match):
        with pytest.raises(ValueError, match=match):
            ValueSolution(gain=0.0, h=h, ref_state=ref_state)


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
        assert policy_improvement(sol, kernel, costs).actions[0] == Action.SLEEP

    def test_exact_tie_takes_lowest_action(self):
        p = np.array([[1.0]])
        kernel = dense_kernel({1: p, 2: p})
        costs = costs_for(1, {1: np.array([0.5]), 2: np.array([0.5])})
        sol = ValueSolution(gain=0.0, h=np.zeros(1), ref_state=0)
        assert policy_improvement(sol, kernel, costs).actions[0] == Action.UNICAST

    def test_cheaper_action_wins(self):
        p = np.array([[1.0]])
        kernel = dense_kernel({0: p, 2: p})
        costs = costs_for(1, {0: np.array([0.5]), 2: np.array([0.1])})
        sol = ValueSolution(gain=0.0, h=np.zeros(1), ref_state=0)
        assert policy_improvement(sol, kernel, costs).actions[0] == Action.PUSH

    @pytest.mark.parametrize("gap, kept", [(0.0, True), (1e-15, True), (1e-12, False)])
    def test_incumbent_kept_on_near_tie(self, gap, kept):
        # 64 eps max(1, max|h|) is 1.4e-14 here: a closer rival leaves the
        # incumbent in place, a clearly cheaper one replaces it
        p = np.array([[1.0]])
        kernel = dense_kernel({1: p, 2: p})
        costs = costs_for(1, {1: np.array([0.5]), 2: np.array([0.5 + gap])})
        sol = ValueSolution(gain=0.0, h=np.zeros(1), ref_state=0)
        improved = policy_improvement(sol, kernel, costs, incumbent=PolicyTable([2]))
        assert improved.actions[0] == (Action.PUSH if kept else Action.UNICAST)
        # without an incumbent the argmin takes the lowest code, as before
        assert policy_improvement(sol, kernel, costs).actions[0] == Action.UNICAST

    def test_tolerance_scales_with_h(self):
        # the same gap of 1e-12 is a tie once |h| reaches 1e3
        p = np.array([[1.0, 0.0], [0.0, 1.0]])
        kernel = dense_kernel({1: p, 2: p})
        costs = costs_for(2, {1: np.full(2, 0.5), 2: np.full(2, 0.5 + 1e-12)})
        sol = ValueSolution(gain=0.0, h=np.array([0.0, 1e3]), ref_state=0)
        improved = policy_improvement(sol, kernel, costs, incumbent=PolicyTable([2, 2]))
        assert improved == PolicyTable([2, 2])

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

    def test_default_records(self, default_instance, default_solution):
        _, _, _, _, kernel, _ = default_instance
        records = default_solution.iterations
        assert len(records) == 8
        assert tuple(r.gain for r in records) == default_solution.trace
        assert records[0].changed > 0 and records[-1].changed == 0
        assert all(0 < r.post_decision_states < kernel.num_states for r in records)

    def test_reducible_start_records_direct_solve(self):
        # the all-sleep start has two closed classes of gain 1, which the
        # direct solve evaluates; one step reaches the gain-0 swap policy
        kernel = dense_kernel({0: np.eye(2), 1: np.array([[0.0, 1.0], [1.0, 0.0]])})
        costs = costs_for(2, {0: np.ones(2), 1: np.zeros(2)})
        records = policy_iteration(kernel, costs).iterations
        assert [r.gain for r in records] == pytest.approx([1.0, 0.0], abs=1e-12)
        assert [r.changed for r in records] == [2, 0]
        assert [r.post_decision_states for r in records] == [2, 2]

    def test_reducible_start_solved_directly(self):
        kernel = dense_kernel({0: np.eye(2), 1: np.array([[0.0, 1.0], [1.0, 0.0]])})
        costs = costs_for(2, {0: np.ones(2), 1: np.zeros(2)})
        result = policy_iteration(kernel, costs)
        assert result.values.gain == pytest.approx(0.0, abs=1e-9)
        assert np.all(result.policy.actions == 1)

    def test_default_evaluates_once_per_iteration(self, monkeypatch, default_instance,
                                                  default_solution):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[0])
            return policy_evaluation(*args, **kwargs)

        monkeypatch.setattr(solver, "policy_evaluation", spy)
        _, _, _, _, kernel, costs = default_instance
        result = policy_iteration(kernel, costs)
        assert result.policy == default_solution.policy
        assert len(calls) == len(result.trace) == 8

    def test_records_timing(self, default_solution):
        for r in default_solution.iterations:
            assert r.evaluation_s > 0.0 and r.improvement_s > 0.0

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(e_max=3, n_contents=3, m_rings=1, p_c=0.0, p_u=0.379),
            dict(e_max=3, n_contents=2, m_rings=1, p_c=0.0, p_u=0.89),
            dict(p_c=0.0),
        ],
    )
    def test_multichain_start_fails_fast(self, overrides):
        # with no cache turnover the all-sleep start never changes its pushed
        # count: one closed class per count, each with its own gain, where
        # value iteration used to run its 500,000 sweeps before giving up
        params, _, _, _, kernel, costs = make_instance(**overrides)
        with pytest.raises(MultichainError, match="closed classes"):
            policy_iteration(kernel, costs)
        policy = PolicyTable.all_sleep(kernel.num_states)
        with pytest.raises(MultichainError) as exc:
            policy_evaluation(policy, kernel, costs)
        gains = exc.value.class_gains
        assert len(gains) == params.num_contents + 1
        assert min(gains) == pytest.approx(0.0, abs=1e-12)
        assert max(gains) == pytest.approx(params.request_prob, abs=1e-12)
        assert sorted(gains) == pytest.approx(
            sorted(reference_class_gains(policy, kernel, costs)), abs=1e-12
        )
        # the post-decision reference rejects it with the same class gains
        assert assert_matches_post_decision(policy, kernel, costs) is None

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(p_c=0.0),
            dict(e_max=3, n_contents=2, m_rings=1, p_c=0.0, p_u=0.89),
        ],
        ids=["default", "tiny"],
    )
    def test_greedy_start_reaches_optimum_without_turnover(self, overrides):
        # a stop on a stalled gain used to return here after 2 iterations,
        # with states still changing and optimality residuals 0.42 and 0.082
        params, _, grid, _, kernel, costs = make_instance(**overrides)
        greedy = unicast_priority_table(params, grid)
        result = policy_iteration(kernel, costs, init_policy=greedy)
        assert result.iterations[-1].changed == 0
        assert bellman_residual(result.values, kernel, costs) <= 1e-9
        with pytest.raises(MultichainError):
            policy_iteration(kernel, costs)

    def test_round_off_ties_keep_the_incumbent(self):
        # the optimal gain here is round-off (about 1e-16), so hundreds of
        # states have actions whose Q-values tie to the last bits; a fresh
        # argmin on every step flipped them and cycled past 60 iterations
        _, _, _, _, kernel, costs = make_instance(e_max=40, n_contents=60, p_u=0.1)
        result = policy_iteration(kernel, costs, max_iter=60)
        assert result.iterations[-1].changed == 0
        assert bellman_residual(result.values, kernel, costs) <= 1e-9
        assert policy_improvement(result.values, kernel, costs) != result.policy

    def test_iteration_cap(self):
        p = np.array([[1.0]])
        kernel = dense_kernel({0: p, 1: p})
        costs = costs_for(1, {0: np.array([1.0]), 1: np.array([0.0])})
        with pytest.raises(ConvergenceError):
            policy_iteration(kernel, costs, max_iter=1)
        result = policy_iteration(kernel, costs, max_iter=3)
        assert result.policy.actions[0] == Action.UNICAST
        assert result.values.gain == pytest.approx(0.0, abs=1e-12)


class TestTemplateQValues:
    @pytest.mark.parametrize(
        "overrides", [{}, dict(e_max=30, n_contents=40)], ids=["default", "large"]
    )
    def test_match_reference(self, overrides):
        _, _, grid, _, kernel, costs = make_instance(**overrides)
        h = np.random.default_rng(1).standard_normal(kernel.num_states)
        optimal = policy_iteration(kernel, costs).values.h
        restricted = kernel.restrict({Action.SLEEP, Action.UNICAST})
        for k in (kernel, restricted):
            for values in (h, optimal, np.zeros(kernel.num_states)):
                assert_q_values_near_reference(k, costs, values, grid.num_rings)

    @given(instance=random_chains(max_actions=NUM_ACTIONS))
    @settings(max_examples=20, deadline=None)
    def test_match_reference_on_hand_built_kernels(self, instance):
        kernel, costs = instance
        h = np.random.default_rng(2).standard_normal(kernel.num_states)
        assert_q_values_match_reference(kernel, costs, h)
        assert_q_values_match_reference(kernel.restrict({Action.SLEEP}), costs, h)

    def test_solvers_gather_no_action_matrix(self, monkeypatch, tmp_path,
                                             default_instance, default_solution):
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
        # the commands end to end: the kernel check and the oracle read the factors
        validate = ["e_max=4", "n_contents=2", "m_rings=2", "horizon=40000",
                    "warmup=2000"]
        oracle = ["e_max=1", "n_contents=1", "m_rings=1"]
        for command, sets in (("validate", validate), ("oracle", oracle)):
            argv = [command, "--out", str(tmp_path / command)]
            assert main(argv + [arg for item in sets for arg in ("--set", item)]) == 0

    def test_solvers_derive_no_template_rows(self):
        _, _, _, _, kernel, costs = make_instance(e_max=4, n_contents=3, m_rings=2)
        result = policy_iteration(kernel, costs)
        non_push_optimal(kernel, costs)
        policy_evaluation(result.policy, kernel, costs)
        bellman_residual(result.values, kernel, costs)
        relative_value_iteration(kernel, costs, tol=1e-10)
        # no product U D formed, no action matrix gathered
        assert not hasattr(kernel, "templates") and kernel._matrices == {}


# The ranges of test_kernel_matches_reference_on_random_instances in
# test_transition.py, boundary probabilities included.
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
    assert_q_values_near_reference(kernel, costs, h, m)


class TestPolicyTable:
    def test_equality_and_hash(self):
        a = PolicyTable([0, 1, 2])
        b = PolicyTable(np.array([0, 1, 2]))
        c = PolicyTable([0, 1, 1])
        assert a == b and hash(a) == hash(b)
        assert a != c
        # a non-table is left to the other operand's comparison
        assert a.__eq__([0, 1, 2]) is NotImplemented
        assert a != [0, 1, 2] and a != "PolicyTable([0, 1, 2])"

    def test_repr(self):
        assert repr(PolicyTable([0, 1, 2])) == "PolicyTable([0, 1, 2])"

    def test_immutable(self):
        table = PolicyTable([0, 1])
        with pytest.raises(AttributeError):
            table.actions = np.zeros(2)
        with pytest.raises(ValueError):
            table.actions[0] = 2

    def test_pickle_round_trip(self):
        table = PolicyTable([0, 1, 2])
        copy = pickle.loads(pickle.dumps(table))
        assert copy == table and hash(copy) == hash(table)
        with pytest.raises(ValueError):
            copy.actions[0] = 2

    def test_bad_codes_rejected(self):
        with pytest.raises(ValueError):
            PolicyTable([0, 3])
        with pytest.raises(ValueError):
            PolicyTable([[0, 1]])

    def test_validate_against_kernel(self):
        feasible = dense_kernel({0: TWO_STATE_P}).feasible_mask()
        PolicyTable([0, 0]).validate(feasible)
        with pytest.raises(ValueError):
            PolicyTable([1, 0]).validate(feasible)
        with pytest.raises(ValueError, match="PUSH to state 1"):
            PolicyTable([0, 2, 1]).validate(dense_kernel({0: np.eye(3)}).feasible_mask())
        with pytest.raises(ValueError, match="entries"):
            PolicyTable([0]).validate(feasible)

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

    @pytest.mark.parametrize(
        "keep", [set(Action), {Action.SLEEP, Action.UNICAST}], ids=["full", "no-push"]
    )
    def test_dense_rows_are_action_matrix_rows(self, monkeypatch, keep):
        # the oracle forms its rows from the factors; every policy's row of a
        # state is bit for bit the action matrix row of one feasible action
        _, _, _, _, kernel, costs = make_instance(e_max=1, n_contents=1, m_rings=1)
        kernel = kernel.restrict(keep)
        seen = []
        stationary = solver._stationary_batch

        def spy(p_sel):
            seen.append(p_sel.copy())
            return stationary(p_sel)

        monkeypatch.setattr(solver, "_stationary_batch", spy)
        brute_force_oracle(kernel, costs)
        dense = [kernel.action_matrix(a).toarray() for a in Action]
        mask = kernel.feasible_mask()
        for s in range(kernel.num_states):
            got = {row.tobytes() for p_sel in seen for row in p_sel[:, s]}
            expect = {dense[a][s].tobytes() for a in np.flatnonzero(mask[:, s])}
            assert got == expect

    def test_guards(self, default_instance):
        _, _, _, _, kernel, costs = default_instance
        with pytest.raises(ValueError):
            brute_force_oracle(kernel, costs)
        _, _, _, _, tiny, tc = make_instance(e_max=3, n_contents=2, m_rings=1)
        with pytest.raises(ValueError):
            brute_force_oracle(tiny, tc, max_policies=20_000)

    def test_singular_policy_fails_fast(self):
        # without cache turnover the all-sleep policy, the first enumerated,
        # keeps every pushed count: one closed class per count
        _, _, _, _, kernel, costs = make_instance(
            e_max=2, n_contents=2, m_rings=1, p_c=0
        )
        with pytest.raises(SingularPolicyError, match="policy 0 of"):
            brute_force_oracle(kernel, costs)

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
        assert_matches_post_decision(policy, kernel, costs)


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
@example(e_max=2, n=2, m=1, p_c=1.0, p_u=0.9999999999999999)
@settings(max_examples=40, deadline=None)
def test_sparse_evaluation_matches_dense_on_random_instances(e_max, n, m, p_c, p_u):
    _, _, _, _, kernel, costs = make_instance(
        e_max=e_max, n_contents=n, m_rings=m, p_c=p_c, p_u=p_u
    )
    for policy in policy_iterates(kernel, costs):
        assert_matches_dense(policy, kernel, costs)
        assert_matches_post_decision(policy, kernel, costs)
