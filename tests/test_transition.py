"""Per-factor pmfs, kernel assembly, and kernel diagnostics."""
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from pushmdp.model import (
    NUM_ACTIONS,
    Action,
    cumulative_popularity_table,
    feasible_table,
    spend_table,
    state_table,
    zipf_pmf,
)
from pushmdp.transition import (
    ArrivalPmf,
    KernelReport,
    TransitionKernel,
    build_kernel,
    content_table,
    energy_table,
    poisson_pmf,
    request_table,
    validate_kernel,
)

from conftest import (
    PROBABILITY,
    hand_built_kernel,
    kernel_row,
    make_instance,
    make_scenario,
    reference_energy_spend,
    request_factor,
    state_at,
    template_rows,
)

# e^{-0.8} and 0.8 e^{-0.8}, evaluated independently
P0_08 = 0.44932896411722156
P1_08 = 0.35946317129377725


def reference_energy_row(base, arrival, capacity):
    """Next-battery pmf over 0..capacity from post-spend level base, by loop.

    Reference for cross-checks only: energy_table must equal its row base bit
    for bit.  Harvested units add to base; the mass from capacity - base
    units on fills the battery.
    """
    row = np.zeros(capacity + 1)
    for nxt in range(base, capacity):
        row[nxt] = arrival.probs[nxt - base]
    gap = capacity - base
    row[capacity] = 1.0 if gap == 0 else max(0.0, 1.0 - math.fsum(arrival.probs[:gap]))
    return row


def reference_content_row(pushed, action, params):
    """Next pushed-count pmf as {count: prob}, positive probabilities only.

    Reference for cross-checks only: content_table must list the same
    outcomes bit for bit.  A replacement (p_c) evicts a pushed content with
    chance C/N; a push then adds one.
    """
    n = params.num_contents
    drop = params.content_replace_prob * (pushed / n) if n else 0.0
    kept = pushed + 1 if action == Action.PUSH else pushed
    row = {kept: 1.0 - drop, kept - 1: drop}
    return {nxt: prob for nxt, prob in row.items() if prob}


def reference_request_row(pushed_next, popularity_cum, grid, request_prob):
    """Next request-ring pmf over 0..M given the next pushed count, by loop.

    Reference for cross-checks only: request_table must equal its row
    pushed_next bit for bit.
    """
    miss = request_prob * (1.0 - popularity_cum[pushed_next])
    return np.array([1.0 - miss] + [miss * q for q in grid.ring_probs])


def table_outcomes(c_next, p_content, push, pushed):
    """{count: prob} of the content table's positive slots at (push, pushed)."""
    pairs = zip(c_next[push, pushed].tolist(), p_content[push, pushed].tolist())
    return {nxt: prob for nxt, prob in pairs if prob}


def reference_rows(params, grid, popularity, arrival):
    """{(s, a): (indices, probs)} from the per-(state, action) loop.

    Reference for cross-checks only: the kernel builder replaced this loop
    with shared template rows and must reproduce it bit for bit.  A product
    that is exactly 0, by a zero factor or by underflow, is no transition.
    """
    capacity = params.battery_levels
    m1 = params.num_rings + 1
    n1 = params.num_contents + 1
    pop_cum = cumulative_popularity_table(popularity)
    feasible = feasible_table(params, grid)
    e_all, q_all, c_all = state_table(params)
    request_rows = np.stack(
        [reference_request_row(c, pop_cum, grid, params.request_prob) for c in range(n1)]
    )
    energy_by_base = [
        reference_energy_row(base, arrival, capacity) for base in range(capacity + 1)
    ]

    rows = {}
    for s in range(params.num_states):
        e, q, c = int(e_all[s]), int(q_all[s]), int(c_all[s])
        for a in range(NUM_ACTIONS):
            if not feasible[a, s]:
                continue
            action = Action(a)
            e_row = energy_by_base[e - reference_energy_spend(action, q, grid)]
            c_row = reference_content_row(c, action, params)
            e_nz = np.flatnonzero(e_row)
            idx_parts = []
            prob_parts = []
            for c_next, pc in c_row.items():
                q_row = request_rows[c_next]
                q_nz = np.flatnonzero(q_row)
                base_idx = (e_nz[:, None] * m1 + q_nz[None, :]) * n1 + c_next
                probs = pc * e_row[e_nz][:, None] * q_row[q_nz][None, :]
                idx_parts.append(base_idx.ravel())
                prob_parts.append(probs.ravel())
            idx = np.concatenate(idx_parts)
            prob = np.concatenate(prob_parts)
            order = np.argsort(idx, kind="stable")
            order = order[prob[order] != 0]
            rows[(s, a)] = (idx[order], prob[order])
    return rows


def reference_matrices(rows, num_states):
    """Per-action CSR matrices assembled row by row from reference rows."""
    matrices = []
    for a in range(NUM_ACTIONS):
        indptr = [0]
        indices = [np.zeros(0, dtype=np.int64)]
        data = [np.zeros(0)]
        for s in range(num_states):
            row = rows.get((s, a))
            if row is not None:
                indices.append(row[0])
                data.append(row[1])
            indptr.append(indptr[-1] + (0 if row is None else len(row[0])))
        matrices.append(
            csr_matrix(
                (np.concatenate(data), np.concatenate(indices), np.asarray(indptr)),
                shape=(num_states, num_states),
            )
        )
    return matrices


def reference_text(rows):
    """The kernel text dump written from reference rows."""
    lines = []
    for s, a in sorted(rows):
        idx, p = rows[(s, a)]
        entries = " ".join(f"{j}:{pj:.12g}" for j, pj in zip(idx, p))
        lines.append(f"{s} {Action(a).name} {entries}")
    return "\n".join(lines) + "\n"


def assert_matches_reference(**overrides):
    params, _, grid, popularity = make_scenario(**overrides)
    arrival = ArrivalPmf.poisson(params.mean_arrival, params.battery_levels)
    kernel = build_kernel(params, grid, popularity, arrival)
    rows = reference_rows(params, grid, popularity, arrival)
    for a, expect in enumerate(reference_matrices(rows, params.num_states)):
        got = kernel.action_matrix(Action(a))
        for name in ("indptr", "indices", "data"):
            x, y = getattr(got, name), getattr(expect, name)
            assert x.dtype == y.dtype, (Action(a).name, name)
            assert np.array_equal(x, y), (Action(a).name, name)
    return kernel, rows


def reference_validate_kernel(kernel):
    """KernelReport read from the per-action matrices.

    Reference for cross-checks only: validate_kernel used to sum rows and
    count negatives over every action matrix, and now reads both from the
    factors U and D.
    """
    mask = kernel.feasible_mask()
    mats = [kernel.action_matrix(a) for a in Action]
    sums = np.concatenate(
        [np.add.reduceat(m.data, m.indptr[:-1][rows]) for m, rows in zip(mats, mask)]
    )
    return KernelReport(
        num_states=kernel.num_states,
        num_rows=int(mask.sum()),
        max_row_sum_deviation=float(np.max(np.abs(sums - 1.0), initial=0.0)),
        negative_entries=sum(int(np.count_nonzero(m.data < 0)) for m in mats),
    )


def assert_report_matches_reference(kernel):
    """validate_kernel's report is the reference's in every field but the deviation.

    The deviation is read from the sums of the factors' rows, not of the
    action matrices' rows, so it rounds differently.
    """
    report = validate_kernel(kernel)
    expect = reference_validate_kernel(kernel)
    assert replace(report, max_row_sum_deviation=expect.max_row_sum_deviation) == expect
    return report


def assert_labels_share_rows(kernel):
    """Feasible pairs with one post-decision label have bit-identical rows."""
    actions, states = np.nonzero(kernel.feasible_mask())
    labels = kernel.labels[actions, states]
    first = {}
    for a, s, label in zip(actions.tolist(), states.tolist(), labels.tolist()):
        idx, prob = kernel_row(kernel, s, a)
        if label not in first:
            first[label] = (idx, prob)
            continue
        ref_idx, ref_prob = first[label]
        assert np.array_equal(idx, ref_idx) and np.array_equal(prob, ref_prob)
    return len(first)


def assert_matrices_are_product_rows(kernel):
    """Each action matrix is rows @ D at the action's labels, bit for bit.

    D, built as a CSC matrix from the kernel's per-state arrays, stores one
    entry per state, zeros kept; the product drops entries that are exactly
    0 or that underflow, so no matrix stores a zero.
    """
    templates = template_rows(kernel)
    for action in Action:
        matrix = kernel.action_matrix(action)
        assert matrix.has_sorted_indices and matrix.data.all()
        expect = templates[kernel.labels[action]]
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(matrix, name), getattr(expect, name)), name


def assert_request_factor_exact(kernel, pre_request_rows):
    """D sits in the given rows, and the solvers' bincount D h is its CSC product."""
    assert np.array_equal(kernel.pre, pre_request_rows)
    request = request_factor(kernel)
    rng = np.random.default_rng(7)
    m = kernel.rows.shape[1]
    for h in rng.standard_normal((3, kernel.num_states)) * [[1.0], [1e-3], [1e6]]:
        got = np.bincount(kernel.pre, kernel.weight * h, minlength=m)
        assert np.array_equal(got, request @ h)


def pre_request_rows(params):
    """E(N+1) + C for every state (E, Q, C)."""
    e_all, _, c_all = state_table(params)
    return e_all * (params.num_contents + 1) + c_all


def kernel_rows(kernel):
    """(indices, probs) of every feasible (state, action) pair of a kernel."""
    states, actions = np.nonzero(kernel.feasible_mask().T)
    return [kernel_row(kernel, s, a) for s, a in zip(states, actions)]


def tampered(kernel, action, edit):
    """Copy of kernel whose action matrix has edit applied to row 0's data."""
    matrices = [kernel.action_matrix(a) for a in Action]
    m = matrices[action].copy()
    edit(m.data[m.indptr[0] : m.indptr[1]])
    matrices[action] = m
    return hand_built_kernel(matrices)


class TestPoissonPmf:
    def test_oracle_values(self):
        assert poisson_pmf(0.8, 0) == pytest.approx(P0_08, abs=1e-15)
        assert poisson_pmf(0.8, 1) == pytest.approx(P1_08, abs=1e-15)

    def test_normalization(self):
        for mean in (0.3, 0.8, 2.0, 17.5):
            total = math.fsum(poisson_pmf(mean, i) for i in range(61))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_large_count_stable(self):
        # log-domain evaluation keeps huge factorials finite
        val = poisson_pmf(5.0, 400)
        assert 0.0 < val < 1e-300 or val == 0.0
        assert np.isfinite(val)

    def test_negative_count_zero(self):
        assert poisson_pmf(0.8, -1) == 0.0


class TestArrivalPmf:
    def test_poisson_truncation(self):
        arr = ArrivalPmf.poisson(0.8, 15)
        assert len(arr.probs) == 15
        assert arr.probs[0] == pytest.approx(P0_08, abs=1e-15)
        assert math.fsum(arr.probs) < 1.0
        # no harvest: every period brings nothing
        assert ArrivalPmf.poisson(0.0, 3).probs == (1.0, 0.0, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ArrivalPmf(probs=(0.5, -0.1))
        with pytest.raises(ValueError):
            ArrivalPmf(probs=(0.9, 0.2))
        with pytest.raises(ValueError):
            ArrivalPmf(probs=())
        with pytest.raises(ValueError):
            ArrivalPmf((float("nan"),))


class TestEnergyRow:
    def setup_method(self):
        _, _, self.grid, _ = make_scenario()
        self.arr = ArrivalPmf.poisson(0.8, 15)
        self.table = energy_table(self.arr, 15)

    def test_full_battery_sleep_stays_full(self):
        row = self.table[15]
        assert row[15] == 1.0
        assert np.all(row[:15] == 0.0)

    def test_empty_battery_sleep(self):
        row = self.table[0]
        assert row[0] == pytest.approx(P0_08, abs=1e-15)
        assert row[1] == pytest.approx(P1_08, abs=1e-15)
        tail = 1.0 - math.fsum(self.arr.probs[:15])
        assert row[15] == pytest.approx(tail, abs=1e-15)
        assert math.fsum(row) == pytest.approx(1.0, abs=1e-12)

    def test_unicast_shifts_support(self):
        # a unicast to ring 2 from battery 5 leaves 3 units
        row = self.table[5 - spend_table(self.grid)[Action.UNICAST, 2]]
        assert np.all(row[:3] == 0.0)
        assert row[3] == pytest.approx(P0_08, abs=1e-15)

    @given(battery=st.integers(0, 15), ring=st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_row_stochastic(self, battery, ring):
        spend = spend_table(self.grid)
        for action in Action:
            if action == Action.UNICAST and (ring == 0 or self.grid.unicast_costs[ring] > battery):
                continue
            if action == Action.PUSH and self.grid.push_cost > battery:
                continue
            row = self.table[battery - spend[action, ring]]
            assert math.fsum(row) == pytest.approx(1.0, abs=1e-12)
            assert np.all(row >= 0.0)


class TestContentRow:
    def outcomes(self, push, pushed, **overrides):
        params, *_ = make_scenario(**overrides)
        return table_outcomes(*content_table(params), push, pushed)

    def test_nothing_cached_nothing_lost(self):
        assert self.outcomes(0, 0) == {0: 1.0}

    def test_push_from_empty_always_lands(self):
        assert self.outcomes(1, 0) == {1: 1.0}

    def test_decay_rate(self):
        row = self.outcomes(0, 4)
        assert row[3] == pytest.approx(0.06, abs=1e-15)
        assert row[4] == pytest.approx(0.94, abs=1e-15)

    def test_push_with_replacement(self):
        row = self.outcomes(1, 4)
        assert row[5] == pytest.approx(0.94, abs=1e-15)
        assert row[4] == pytest.approx(0.06, abs=1e-15)

    def test_push_on_full_cache_rejected(self):
        # no outcome, so the kernel's U rows of (push, b, N) are empty
        assert self.outcomes(1, 20) == {}
        _, _, _, _, kernel, _ = make_instance()
        full = np.arange(16) * 21 + 16 * 21 + 20
        assert not np.diff(kernel.rows.indptr)[full].any()

    def test_no_zero_outcome(self):
        # at p_c = 1 a full cache always loses a pushed content
        assert self.outcomes(0, 20, p_c=1.0) == {19: 1.0}

    def test_rows_normalized(self):
        for push in (0, 1):
            for c in range(21 - push):
                row = self.outcomes(push, c)
                assert math.fsum(row.values()) == pytest.approx(1.0, abs=1e-15)
                assert all(abs(cn - c) <= 1 for cn in row)


class TestRequestRow:
    def setup_method(self):
        params, _, self.grid, pop = make_scenario()
        self.pop_cum = cumulative_popularity_table(pop)

    def test_everything_cached_no_requests(self):
        row = request_table(self.pop_cum, self.grid, 0.7)[20]
        assert row[0] == 1.0
        assert np.all(row[1:] == 0.0)

    def test_empty_cache_equal_rings(self):
        row = request_table(self.pop_cum, self.grid, 0.7)[0]
        assert row[0] == pytest.approx(0.3, abs=1e-15)
        assert row[1:] == pytest.approx([0.175] * 4, abs=1e-15)

    def test_no_traffic(self):
        assert np.all(request_table(self.pop_cum, self.grid, 0.0)[:, 0] == 1.0)

    def test_rows_normalized(self):
        table = request_table(self.pop_cum, self.grid, 0.7)
        assert table.shape == (21, 5)
        for row in table:
            assert math.fsum(row) == pytest.approx(1.0, abs=1e-12)
            assert np.all(row >= 0.0)


# Battery and catalog sizes, 0 drawn on purpose: an empty battery or catalog
# leaves a table a single row.
SIZE = st.one_of(st.just(0), st.integers(0, 20))


@given(e_max=SIZE, n=SIZE, m=st.integers(1, 4), p_c=PROBABILITY, p_u=PROBABILITY)
@settings(max_examples=60, deadline=None)
@example(e_max=0, n=0, m=1, p_c=1.0, p_u=1.0)
def test_tables_match_reference_rows(e_max, n, m, p_c, p_u):
    params, arrival, grid, popularity = make_scenario(
        e_max=e_max, n_contents=n, m_rings=m, p_c=p_c, p_u=p_u
    )
    energy = energy_table(arrival, e_max)
    assert energy.shape == (e_max + 1, e_max + 1)
    for b in range(e_max + 1):
        assert np.array_equal(energy[b], reference_energy_row(b, arrival, e_max))
    c_next, p_content = content_table(params)
    assert table_outcomes(c_next, p_content, 1, n) == {}
    for c in range(n + 1):
        for action in Action:
            if action == Action.PUSH and c == n:
                continue
            got = table_outcomes(c_next, p_content, int(action == Action.PUSH), c)
            assert got == reference_content_row(c, action, params)
    pop_cum = cumulative_popularity_table(popularity)
    request = request_table(pop_cum, grid, p_u)
    assert request.shape == (n + 1, m + 1)
    for c in range(n + 1):
        assert np.array_equal(request[c], reference_request_row(c, pop_cum, grid, p_u))


class TestBuildKernel:
    def test_default_rows_stochastic(self, default_instance):
        _, _, _, _, kernel, _ = default_instance
        assert kernel.num_states == 1680
        for idx, prob in kernel_rows(kernel):
            assert math.fsum(prob) == pytest.approx(1.0, abs=1e-12)
            assert np.all(prob > 0.0)
            assert np.all(np.diff(idx) > 0)

    def test_successor_support(self, default_instance):
        params, _, grid, _, kernel, _ = default_instance
        # full battery, no request, full cache, sleep: battery stays full,
        # cache keeps or loses one
        idx, prob = kernel_row(kernel, state_at(params, 15, 0, 20), Action.SLEEP)
        succ = [(i // 105, (i // 21) % 5, i % 21) for i in idx]
        assert all(e == 15 for e, _, _ in succ)
        assert {c for _, _, c in succ} == {19, 20}

    def test_marginal_recovers_energy_row(self, default_instance):
        params, _, grid, _, kernel, _ = default_instance
        arr = ArrivalPmf.poisson(params.mean_arrival, params.battery_levels)
        for (e, q, c), action in (
            ((0, 0, 0), Action.SLEEP),
            ((9, 2, 5), Action.UNICAST),
            ((12, 0, 3), Action.PUSH),
        ):
            idx, prob = kernel_row(kernel, state_at(params, e, q, c), action)
            marginal = np.zeros(16)
            for i, p in zip(idx, prob):
                marginal[i // 105] += p
            spent = reference_energy_spend(action, q, grid)
            expect = reference_energy_row(e - spent, arr, 15)
            assert marginal == pytest.approx(expect, abs=1e-12)

    def test_short_arrival_pmf_rejected(self):
        # the battery rows read harvest probabilities 0..E-1
        params, _, grid, popularity = make_scenario()
        with pytest.raises(ValueError, match="has 2 entries.* capacity 15 needs"):
            build_kernel(params, grid, popularity, ArrivalPmf((0.5, 0.3)))

    def test_feasible_actions_exposed(self, default_instance):
        params, _, _, _, kernel, _ = default_instance
        mask = kernel.feasible_mask()
        assert mask[:, 0].tolist() == [True, False, False]
        s = state_at(params, 15, 2, 5)
        assert mask[:, s].tolist() == [True, True, True]

    def test_single_state_degenerate(self):
        # no battery, no contents: only sleep is ever possible
        params, _, _, _, kernel, costs = make_instance(
            e_max=0, n_contents=0, m_rings=1
        )
        assert kernel.num_states == 2
        assert kernel.feasible_mask()[:, 0].tolist() == [True, False, False]
        idx, prob = kernel_row(kernel, 0, Action.SLEEP)
        assert math.fsum(prob) == pytest.approx(1.0, abs=1e-12)

    def test_restrict_drops_push(self, default_instance):
        _, _, _, _, kernel, _ = default_instance
        sub = kernel.restrict({Action.SLEEP, Action.UNICAST})
        assert sub.action_matrix(Action.PUSH).nnz == 0
        assert not sub.feasible_mask()[int(Action.PUSH)].any()
        assert sub.num_states == kernel.num_states
        with pytest.raises(ValueError):
            kernel.restrict({Action.PUSH})

    def test_restrict_shares_kept_matrices(self, default_instance):
        _, _, _, _, kernel, _ = default_instance
        sub = kernel.restrict({Action.SLEEP, Action.UNICAST})
        for action in (Action.SLEEP, Action.UNICAST):
            assert sub.action_matrix(action) is kernel.action_matrix(action)
        assert sub.action_matrix(Action.PUSH).shape == (1680, 1680)
        assert sub.labels is kernel.labels

    def test_replace_starts_an_empty_cache(self):
        # a copy with other factors must not hand out this kernel's matrices
        *_, kernel, _ = make_instance(e_max=3, n_contents=2, m_rings=1)
        assert kernel.action_matrix(Action.SLEEP)[0].sum() == pytest.approx(1.0)
        weight = kernel.weight.copy()
        weight[0] *= 2
        doubled = replace(kernel, weight=weight)
        assert doubled._matrices == {}
        row = doubled.action_matrix(Action.SLEEP)[0]
        assert row.sum() == pytest.approx(1.1348, abs=1e-4)
        assert kernel.action_matrix(Action.SLEEP)[0].sum() == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "overrides", [{}, dict(e_max=30, n_contents=40)], ids=["default", "large"]
    )
    def test_labels_share_rows(self, overrides):
        params, _, _, _, kernel, _ = make_instance(**overrides)
        assert kernel.labels.shape == (NUM_ACTIONS, params.num_states)
        with pytest.raises(ValueError):
            kernel.labels[0, 0] = 0
        # at most one template per (push, post-spend battery, pushed count)
        distinct = assert_labels_share_rows(kernel)
        assert distinct <= 2 * (params.battery_levels + 1) * (params.num_contents + 1)
        assert distinct < int(kernel.feasible_mask().sum())

    def test_hand_built_labels_are_distinct(self):
        zero = csr_matrix((2, 2))
        kernel = hand_built_kernel([csr_matrix(np.eye(2)), zero, zero])
        assert np.unique(kernel.labels).size == kernel.labels.size

    @pytest.mark.parametrize(
        "overrides",
        [{}, dict(e_max=30, n_contents=40), dict(e_max=60, n_contents=100)],
        ids=["default", "large", "xl"],
    )
    def test_factored_form(self, overrides):
        params, _, _, _, kernel, _ = make_instance(**overrides)
        pre_request = (params.battery_levels + 1) * (params.num_contents + 1)
        assert kernel.rows.shape == (2 * pre_request + 1, pre_request)
        assert_request_factor_exact(kernel, pre_request_rows(params))
        restricted = kernel.restrict({Action.SLEEP, Action.UNICAST})
        assert restricted.rows is kernel.rows
        assert restricted.pre is kernel.pre and restricted.weight is kernel.weight
        assert restricted._matrices is kernel._matrices
        # U row (push, b, c) moves the pushed count to c - 1, c or c + 1 only:
        # the policy chains over (E, C) are block tridiagonal in N + 1 levels
        assert kernel.levels == restricted.levels == params.num_contents + 1
        u = kernel.rows
        source = np.repeat(np.arange(u.shape[0]), np.diff(u.indptr)) % kernel.levels
        assert np.all(np.abs(u.indices % kernel.levels - source) <= 1)

    def test_hand_built_factored_form(self):
        zero = csr_matrix((2, 2))
        kernel = hand_built_kernel([csr_matrix([[0.5, 0.5], [0.0, 1.0]]), zero, zero])
        rows = template_rows(kernel)
        for name in ("indptr", "indices", "data"):
            got, expect = getattr(rows, name), getattr(kernel.rows, name)
            assert np.array_equal(got, expect), name
        assert np.array_equal(request_factor(kernel).toarray(), np.eye(2))
        assert_request_factor_exact(kernel, np.arange(2))
        assert_matrices_are_product_rows(kernel)
        assert kernel.levels == 1
        for table in (kernel.pre, kernel.weight):
            with pytest.raises(ValueError):
                table[0] = 0

    def test_matches_reference_on_default(self):
        kernel, rows = assert_matches_reference()
        # validate --dump-kernel writes this text
        assert kernel.to_text() == reference_text(rows)

    def test_matches_reference_at_scale(self):
        assert_matches_reference(e_max=30, n_contents=40)

    def test_feasible_mask(self, default_instance):
        params, _, grid, _, kernel, _ = default_instance
        mask = kernel.feasible_mask()
        assert np.array_equal(mask, feasible_table(params, grid))
        with pytest.raises(ValueError):
            mask[0, 0] = False
        # a restricted kernel derives its own mask, not the parent's
        sub = kernel.restrict({Action.SLEEP, Action.UNICAST})
        expect = mask.copy()
        expect[int(Action.PUSH)] = False
        assert np.array_equal(sub.feasible_mask(), expect)

    def test_action_matrix_rows(self, default_instance):
        _, _, _, _, kernel, _ = default_instance
        mat = kernel.action_matrix(Action.SLEEP)
        sums = np.asarray(mat.sum(axis=1)).ravel()
        assert np.allclose(sums, 1.0, atol=1e-12)


class TestValidateKernel:
    def test_default_kernel_clean(self, default_instance):
        params, _, _, _, kernel, _ = default_instance
        report = validate_kernel(kernel)
        assert report.max_row_sum_deviation < 1e-12
        assert report.negative_entries == 0
        # D never draws a pending request onto a full cache: a fresh request
        # requires an uncached content
        _, q, c = state_table(params)
        unreached = (q > 0) & (c == params.num_contents)
        assert np.count_nonzero(unreached) == 64
        assert np.array_equal(kernel.weight == 0, unreached)

    def test_corrupted_row_flagged(self, default_instance):
        _, _, _, _, kernel, _ = default_instance

        def scale(prob):
            prob *= 1.01

        report = validate_kernel(tampered(kernel, Action.SLEEP, scale))
        assert report.max_row_sum_deviation > 1e-3

    def test_negative_entry_flagged(self, default_instance):
        _, _, _, _, kernel, _ = default_instance

        def negate_first(prob):
            prob[0] *= -1.0

        bad = tampered(kernel, Action.SLEEP, negate_first)
        assert validate_kernel(bad).negative_entries == 1

    def test_tampered_weight_flagged(self, default_instance):
        # state 0 = (0, 0, 0) has request weight 1 - p_u = 0.3
        _, _, _, _, kernel, _ = default_instance
        for scale, deviation, negatives in ((1.01, 1e-3, 0), (-1.0, 0.5, 1)):
            weight = kernel.weight.copy()
            weight[0] *= scale
            bad = TransitionKernel(
                kernel.rows, kernel.labels, kernel.pre, weight, kernel.levels
            )
            report = validate_kernel(bad)
            assert report.max_row_sum_deviation > deviation
            assert report.negative_entries == negatives

    def test_self_loop_does_not_count_as_entry(self):
        # state 2 keeps itself by a self-loop but no other state leads to it;
        # its pair is one row like any other
        p = np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.5, 0.0, 0.5]])
        zero = csr_matrix((3, 3))
        kernel = hand_built_kernel([csr_matrix(p), zero, zero])
        report = assert_report_matches_reference(kernel)
        assert report.num_rows == 3

    @pytest.mark.parametrize(
        "overrides", [{}, dict(e_max=30, n_contents=40)], ids=["default", "large"]
    )
    def test_report_matches_reference(self, overrides):
        params, _, _, _, kernel, _ = make_instance(**overrides)
        restricted = kernel.restrict({Action.SLEEP, Action.UNICAST})
        for k in (kernel, restricted, kernel.restrict({Action.SLEEP})):
            report = assert_report_matches_reference(k)
            assert report.max_row_sum_deviation < 1e-12
            assert report.num_states == params.num_states

    def test_report_matches_reference_on_tampered_kernels(self, default_instance):
        _, _, _, _, kernel, _ = default_instance

        def negate_and_zero(prob):
            prob[0] *= -1.0
            prob[1] = 0.0

        # an explicit zero is no transition and no negative entry
        bad = tampered(kernel, Action.SLEEP, negate_and_zero)
        report = validate_kernel(bad)
        assert report == reference_validate_kernel(bad)
        assert report.negative_entries == 1

    def test_underflowing_products_are_no_edges(self):
        # p_u = 1e-323 leaves weights near the least subnormal, so some U
        # entries have products that underflow for some states of their x
        # only; the row sums, read from the factors, still hold
        _, _, _, _, kernel, _ = make_instance(
            e_max=3, n_contents=3, m_rings=1, p_c=0.5, p_u=1e-323
        )
        u, pre, weight = kernel.rows, kernel.pre, kernel.weight
        weights = [weight[(pre == x) & (weight != 0)] for x in range(u.shape[1])]
        partial = 0
        for j, x in enumerate(u.indices):
            zero = u.data[j] * weights[x] == 0
            partial += bool(zero.any() and not zero.all())
        assert partial > 0
        report = assert_report_matches_reference(kernel)
        assert report.max_row_sum_deviation < 1e-12

    def test_transient_memory_below_template_size(self):
        _, _, _, _, kernel, _ = make_instance(e_max=30, n_contents=40)
        t = template_rows(kernel)
        size = t.data.nbytes + t.indices.nbytes + t.indptr.nbytes
        del t
        # on a fresh kernel: the check allocates only its own working arrays
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            validate_kernel(kernel)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 0.6 * size


@given(
    e_max=st.integers(0, 3),
    n=st.integers(0, 3),
    m=st.integers(1, 3),
    p_c=st.floats(0.0, 1.0),
    p_u=st.floats(0.0, 1.0),
)
@settings(max_examples=40, deadline=None)
def test_kernel_rows_stochastic_on_random_instances(e_max, n, m, p_c, p_u):
    _, _, _, _, kernel, _ = make_instance(
        e_max=e_max, n_contents=n, m_rings=m, p_c=p_c, p_u=p_u
    )
    for idx, prob in kernel_rows(kernel):
        assert math.fsum(prob) == pytest.approx(1.0, abs=1e-12)
        assert np.all(prob >= 0.0)
        assert np.all(idx >= 0) and np.all(idx < kernel.num_states)


# The ranges of test_kernel_rows_stochastic_on_random_instances, with the
# boundary probabilities drawn on purpose.  The examples pin a zero content
# outcome (p_c = 1 at C = N) and request weights that underflow in the product
# (p_u = 1e-323), which a kernel row must not list.
@given(
    e_max=st.integers(0, 3),
    n=st.integers(0, 3),
    m=st.integers(1, 3),
    p_c=PROBABILITY,
    p_u=PROBABILITY,
)
@settings(max_examples=60, deadline=None)
@example(e_max=3, n=3, m=3, p_c=1.0, p_u=0.5)
@example(e_max=3, n=3, m=1, p_c=0.5, p_u=1e-323)
def test_kernel_matches_reference_on_random_instances(e_max, n, m, p_c, p_u):
    kernel, _ = assert_matches_reference(
        e_max=e_max, n_contents=n, m_rings=m, p_c=p_c, p_u=p_u
    )
    assert all(kernel.action_matrix(a).data.all() for a in Action)
    assert_labels_share_rows(kernel)
    assert assert_report_matches_reference(kernel).max_row_sum_deviation < 1e-12


@given(
    e_max=st.integers(0, 3),
    n=st.integers(0, 3),
    m=st.integers(1, 3),
    p_c=PROBABILITY,
    p_u=PROBABILITY,
)
@settings(max_examples=60, deadline=None)
@example(e_max=3, n=3, m=3, p_c=1.0, p_u=0.5)
@example(e_max=3, n=3, m=1, p_c=0.5, p_u=1e-323)
def test_factored_form_on_random_instances(e_max, n, m, p_c, p_u):
    params, _, _, _, kernel, _ = make_instance(
        e_max=e_max, n_contents=n, m_rings=m, p_c=p_c, p_u=p_u
    )
    assert_request_factor_exact(kernel, pre_request_rows(params))
    assert_matrices_are_product_rows(kernel)
    # an absent content slot stores no entry: its next count -1 is no column
    assert kernel.rows.indices.min() >= 0
