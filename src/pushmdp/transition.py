"""Transition kernel of the sleep/unicast/push decision process.

Given the state (E, Q, C) and the chosen action, the next state factors into
three independent pieces:

* battery: post-spend level plus capped harvest arrivals,
* pushed count: one-step birth/death driven by content replacement and push,
* request ring: fresh each period, thinned by cache hits on pushed contents.

Each factor is one table, built whole.  A kernel row depends on its
(state, action) only through the post-decision state: the post-spend battery
level, the pushed count and whether the action pushes.  The request ring is
drawn last, from the next pushed count alone, so every such row is U D: U
holds the battery and content moves to the pre-request state (E', C'), and D
draws the ring.  The kernel keeps U, D as two per-state arrays and each
pair's post-decision label, and nothing else; the solvers and the kernel
check read only these.  The per-action matrices, and the text dump read
from them, are gathered from the product U D on first use.  A kernel row
lists only next states of positive probability.
"""
from __future__ import annotations

import math
from copy import copy
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix

from .model import (
    Action,
    DistanceGrid,
    SystemParams,
    cumulative_popularity_table,
    feasible_table,
    spend_table,
    state_table,
)

__all__ = [
    "poisson_pmf",
    "ArrivalPmf",
    "energy_table",
    "content_table",
    "request_table",
    "TransitionKernel",
    "build_kernel",
    "KernelReport",
    "validate_kernel",
]


def poisson_pmf(mean: float, count: int) -> float:
    """Poisson probability of exactly ``count`` arrivals, in log domain."""
    if count < 0:
        return 0.0
    if mean == 0.0:
        return 1.0 if count == 0 else 0.0
    return math.exp(count * math.log(mean) - mean - math.lgamma(count + 1))


@dataclass(frozen=True)
class ArrivalPmf:
    """Per-period harvested-unit distribution truncated at the battery size.

    ``probs[i]`` is the probability of exactly i units for i < capacity; mass
    at or above ``capacity`` is *not* folded in here (the energy table does the
    capping), so the entries may sum to less than one.
    """

    probs: tuple[float, ...]

    def __post_init__(self):
        if not self.probs:
            raise ValueError("arrival pmf needs at least one entry")
        # written so that NaN fails it
        if not all(p >= 0 for p in self.probs):
            raise ValueError("arrival probabilities must be >= 0")
        if math.fsum(self.probs) > 1.0 + 1e-12:
            raise ValueError("arrival probabilities must sum to <= 1")

    @classmethod
    def poisson(cls, mean: float, capacity: int) -> "ArrivalPmf":
        # the entries energy_table reads, 0..capacity-1, and at least one
        return cls(tuple(poisson_pmf(mean, i) for i in range(max(capacity, 1))))


def energy_table(arrival: ArrivalPmf, capacity: int) -> np.ndarray:
    """Next-battery pmf over 0..capacity, one row per post-spend level b.

    Harvested units are added to b and the sum is capped at capacity.
    """
    if len(arrival.probs) < capacity:
        raise ValueError(
            f"arrival pmf has {len(arrival.probs)} entries; "
            f"a battery of capacity {capacity} needs at least {capacity}"
        )
    table = np.zeros((capacity + 1, capacity + 1))
    for b in range(capacity + 1):
        below_cap = arrival.probs[: capacity - b]
        table[b, b:capacity] = below_cap
        # max() guards against the sum rounding a hair above 1
        table[b, capacity] = max(0.0, 1.0 - math.fsum(below_cap))
    return table


def content_table(params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """Next pushed count and its probability, both indexed [push, C, slot].

    Each period one cached content is replaced in the catalog with probability
    p_c; a replacement evicts a *pushed* content with chance C/N (slot 0),
    else the count is kept (slot 1).  A push then adds one content.  Push on
    a full cache is infeasible, so both its slots have probability 0.  A slot
    of probability 0 may hold a count outside 0..N; the kernel drops it.
    """
    n = params.num_contents
    c = np.arange(n + 1)
    drop = params.content_replace_prob * (c / max(n, 1))
    prob = np.array([np.column_stack((drop, 1.0 - drop))] * 2)
    prob[1, n] = 0.0
    nxt = np.arange(2)[:, None, None] + c[:, None] + np.arange(-1, 1)
    return nxt, prob


def request_table(
    popularity_cum: np.ndarray, grid: DistanceGrid, request_prob: float
) -> np.ndarray:
    """Next request-ring pmf over 0..M, one row per next pushed count C'.

    A request arrives with probability p_u and survives (is not already
    cached) with probability 1 - F(C'); a surviving request lands in ring m
    with the ring-area probability.
    """
    miss = request_prob * (1.0 - popularity_cum)
    return np.column_stack((1.0 - miss, np.outer(miss, grid.ring_probs)))


@dataclass
class TransitionKernel:
    """Sparse transition kernel, stored as its factors U, D and the labels.

    ``rows`` (U) is a CSR matrix with one row per post-decision state over
    the pre-request states x = E'(N+1) + C', holding the battery and content
    moves.  D holds one entry per state s = (E, Q, C), the request weight
    ``weight[s]`` = p(Q | C) in row ``pre[s]`` = E(N+1) + C, zeros kept, so
    D h is ``np.bincount(pre, weight * h)``.
    ``labels[a, s]`` is the post-decision row of the pair (s, a); pairs with
    equal labels share one row, in any action, and an infeasible pair's
    label points at an empty row.

    A U row is empty exactly when its row of U D is, so feasibility is read
    from U.  ``allowed`` holds the actions a restriction kept.

    ``levels`` counts the pushed-count levels N+1 of the pre-request states,
    which run x = E'*levels + C'.  Every row of U moves the pushed count by
    at most one, so the policy chains over x are block tridiagonal in C'.
    """

    rows: csr_matrix
    labels: np.ndarray
    pre: np.ndarray
    weight: np.ndarray
    levels: int
    allowed: frozenset[Action] = frozenset(Action)
    _matrices: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for table in (self.labels, self.pre, self.weight):
            table.setflags(write=False)

    @property
    def num_states(self) -> int:
        return self.pre.size

    def feasible_mask(self) -> np.ndarray:
        """Read-only (action, state) table, True where the pair has a row."""
        kept = [Action(a) in self.allowed for a in range(len(self.labels))]
        mask = (np.diff(self.rows.indptr) > 0)[self.labels]
        mask &= np.array(kept)[:, None]
        mask.setflags(write=False)
        return mask

    def action_matrix(self, action: Action) -> csr_matrix:
        """CSR matrix of the action's rows; infeasible rows are all-zero.

        The first call forms U D in CSR with sorted indices (one next-state
        pmf per post-decision state, positive probabilities only), gathers
        every action's matrix from it into a cache that restrictions share,
        and drops the product.  A dropped action's matrix is empty.
        """
        action = Action(action)
        if action not in self.allowed:
            return csr_matrix((self.num_states, self.num_states))
        if not self._matrices:
            n = self.num_states
            request = csc_matrix(
                (self.weight, self.pre, np.arange(n + 1)), (self.rows.shape[1], n)
            )
            # a product that is exactly 0 is not stored
            product = (self.rows @ request).tocsr()
            product.sort_indices()
            self._matrices.update((a, product[self.labels[a]]) for a in Action)
        return self._matrices[action]

    def restrict(self, allowed: set[Action] | frozenset[Action]) -> "TransitionKernel":
        """Kernel with only the given actions kept (sleep must stay allowed).

        It shares this kernel's factors, labels and gathered matrices.
        """
        keep = frozenset(Action(a) for a in allowed)
        if Action.SLEEP not in keep:
            raise ValueError("restriction must keep SLEEP to stay well-defined")
        restricted = copy(self)
        restricted.allowed = self.allowed & keep
        return restricted

    def union_matrix(self) -> csr_matrix:
        """Sum of the action matrices; its support is every feasible transition."""
        matrices = [self.action_matrix(a) for a in Action]
        return sum(matrices[1:], matrices[0])

    def to_text(self) -> str:
        """Readable dump of the sparse rows, for debugging and CLI export."""
        lines = []
        matrices = [self.action_matrix(a) for a in Action]
        states, actions = np.nonzero(self.feasible_mask().T)
        for s, a in zip(states.tolist(), actions.tolist()):
            m = matrices[a]
            span = slice(m.indptr[s], m.indptr[s + 1])
            idx, p = m.indices[span].tolist(), m.data[span].tolist()
            entries = " ".join(f"{j}:{pj:.12g}" for j, pj in zip(idx, p))
            lines.append(f"{s} {Action(a).name} {entries}")
        return "\n".join(lines) + "\n"


def build_kernel(
    params: SystemParams,
    grid: DistanceGrid,
    popularity: np.ndarray,
    arrival: ArrivalPmf,
) -> TransitionKernel:
    """Assemble the kernel's factors U and D and the post-decision labels.

    A row depends on its (state, action) only through the post-spend battery
    level b, the pushed count c and whether the action pushes; each such case
    is one row of U, the outer product of its rows of the energy and content
    tables over the pre-request states.  D weights each state by the request
    table's row of its pushed count.  ``popularity`` and ``arrival`` must be
    ``zipf_pmf(params)`` and ``ArrivalPmf.poisson(params.mean_arrival,
    params.battery_levels)``: the simulator derives both from ``params``, so
    any other pair gives the solver and the simulator different models.
    """
    feasible = feasible_table(params, grid)
    e1 = params.battery_levels + 1
    n1 = params.num_contents + 1
    energy = energy_table(arrival, params.battery_levels)
    c_next, p_content = content_table(params)
    request = request_table(
        cumulative_popularity_table(popularity), grid, params.request_prob
    )

    # Row t = (push*(E+1) + b)*(N+1) + c of U spans axes (push, b, c, E',
    # slot), which in C order run by pre-request index E'*(N+1) + C'.  Its
    # entries are content*energy, the positive ones kept, which drops the
    # content table's zero slots; the extra last row is empty and serves
    # infeasible pairs.
    num_templates = 2 * e1 * n1
    pe = p_content[:, None, :, None, :] * energy[None, :, None, :, None]
    pre = np.arange(e1)[:, None] * n1 + c_next[:, None, :, None, :]
    keep = pe != 0
    counts = keep.reshape(num_templates, -1).sum(axis=1)
    indptr = np.concatenate(([0], np.cumsum(counts), [counts.sum()]))
    rows = csr_matrix(
        (pe[keep], np.broadcast_to(pre, keep.shape)[keep], indptr),
        shape=(num_templates + 1, e1 * n1),
    )

    e_all, q_all, c_all = state_table(params)
    spend = spend_table(grid)
    labels = np.empty((len(Action), params.num_states), dtype=np.int64)
    for action in Action:
        t = ((action == Action.PUSH) * e1 + e_all - spend[action, q_all]) * n1 + c_all
        labels[action] = np.where(feasible[action], t, num_templates)
    pre = e_all * n1 + c_all
    return TransitionKernel(rows, labels, pre, request[c_all, q_all], levels=n1)


@dataclass(frozen=True)
class KernelReport:
    """Row-sum and sign health check of a built kernel."""

    num_states: int
    num_rows: int
    max_row_sum_deviation: float
    negative_entries: int


def validate_kernel(kernel: TransitionKernel) -> KernelReport:
    """Row-sum and sign diagnostics, read from the factors.

    Each state s' has one weight w(s') in the row of its pre-request state
    x(s'), so a pair with row r moves to s' with the single product
    U[r, x(s')] w(s').  So each U row that a feasible pair uses, and each
    pre-request state's weights, must sum to 1; the deviation is the larger
    of the two.  A negative U entry counts once per feasible pair that uses
    its row, and a negative weight once.
    """
    u, pre, weight = kernel.rows, kernel.pre, kernel.weight
    pair_row = kernel.labels[kernel.feasible_mask()]
    users = np.bincount(pair_row, minlength=u.shape[0])
    # reduceat sums from each start to the next, so every nonempty row starts one
    nonempty = np.diff(u.indptr) > 0
    sums = np.add.reduceat(u.data, u.indptr[:-1][nonempty])[users[nonempty] > 0]
    sums = np.concatenate((sums, np.bincount(pre, weight, minlength=u.shape[1])))
    negative_rows = np.searchsorted(u.indptr, np.flatnonzero(u.data < 0), "right") - 1
    return KernelReport(
        num_states=kernel.num_states,
        num_rows=int(pair_row.size),
        max_row_sum_deviation=float(np.max(np.abs(sums - 1.0), initial=0.0)),
        negative_entries=int(users[negative_rows].sum() + np.sum(weight < 0)),
    )
