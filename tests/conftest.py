"""Shared fixtures: the default scenario is solved once per session."""
import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.sparse import csc_matrix, vstack

from pushmdp.cli import DEFAULTS, build_scenario
from pushmdp.model import Action, stage_cost_table
from pushmdp.policies import non_push_optimal, unicast_priority_table
from pushmdp.solver import policy_iteration
from pushmdp.transition import TransitionKernel, build_kernel

# A probability for hypothesis draws, the boundaries 0 and 1 drawn on purpose:
# they empty or fill a content or request factor, which changes a template
# row's support.
PROBABILITY = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


def make_scenario(**overrides):
    """(params, arrival, grid, popularity) for defaults plus overrides."""
    settings = dict(DEFAULTS)
    for key, value in overrides.items():
        if key not in settings:
            raise KeyError(key)
        settings[key] = value
    return build_scenario(settings)


def reference_energy_spend(action, request, grid):
    """Per-pair spend rule that ``spend_table`` replaced; reference only."""
    if action == Action.SLEEP:
        return 0
    if action == Action.UNICAST:
        return grid.unicast_costs[request]
    return grid.push_cost


def state_at(params, e, q, c):
    """Flat index of state (E, Q, C) in ``state_table``'s E-major layout."""
    shape = (params.battery_levels + 1, params.num_rings + 1, params.num_contents + 1)
    return int(np.ravel_multi_index((e, q, c), shape))


def kernel_row(kernel, state, action):
    """(next-state indices, probabilities) of one pair, read from its action matrix."""
    m = kernel.action_matrix(action)
    span = slice(m.indptr[state], m.indptr[state + 1])
    return m.indices[span], m.data[span]


def make_instance(**overrides):
    """Scenario plus built kernel and stage costs."""
    params, arrival, grid, popularity = make_scenario(**overrides)
    kernel = build_kernel(params, grid, popularity, arrival)
    costs = stage_cost_table(params)
    return params, arrival, grid, popularity, kernel, costs


def hand_built_kernel(matrices, levels=1):
    """Kernel from one n-by-n matrix per action; an all-zero row is infeasible.

    U stacks the matrices without stored zeros, D is the identity, and every
    pair gets its own row.  The pre-request chain has ``levels`` levels, so
    the matrices must move x = e*levels + c to levels c-1..c+1 only.
    """
    n = matrices[0].shape[0]
    rows = vstack(matrices, format="csr")
    rows.eliminate_zeros()
    labels = np.arange(len(matrices) * n).reshape(-1, n)
    return TransitionKernel(rows, labels, np.arange(n), np.ones(n), levels=levels)


def request_factor(kernel):
    """D as a CSC matrix: weight[s] stored in row pre[s] of column s, zeros kept.

    Reference for cross-checks only: the kernel stored D this way before it
    kept the two per-state arrays.
    """
    n = kernel.num_states
    return csc_matrix(
        (kernel.weight, kernel.pre, np.arange(n + 1)), shape=(kernel.rows.shape[1], n)
    )


def template_rows(kernel):
    """U D in CSR with sorted indices: one next-state pmf per post-decision row.

    Reference for cross-checks only: the kernel cached these rows before it
    kept its factors alone.  A product that is exactly 0 is not stored.
    """
    rows = (kernel.rows @ request_factor(kernel)).tocsr()
    rows.sort_indices()
    return rows


@pytest.fixture(scope="session")
def default_scenario():
    return make_scenario()


@pytest.fixture(scope="session")
def default_instance():
    return make_instance()


@pytest.fixture(scope="session")
def default_solution(default_instance):
    _, _, _, _, kernel, costs = default_instance
    return policy_iteration(kernel, costs)


@pytest.fixture(scope="session")
def default_nonpush(default_instance):
    _, _, _, _, kernel, costs = default_instance
    return non_push_optimal(kernel, costs)


@pytest.fixture(scope="session")
def default_greedy(default_instance):
    params, _, grid, _, _, _ = default_instance
    return unicast_priority_table(params, grid)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
