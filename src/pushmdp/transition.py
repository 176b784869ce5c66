"""Transition kernel of the sleep/unicast/push decision process.

Given the state (E, Q, C) and the chosen action, the next state factors into
three independent pieces:

* battery: post-spend level plus capped harvest arrivals,
* pushed count: one-step birth/death driven by content replacement and push,
* request ring: fresh each period, thinned by cache hits on pushed contents.

Each factor has a small dense row builder; the kernel builder takes their
outer product per (state, action) pair and stores the sparse result.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .model import (
    NUM_ACTIONS,
    Action,
    DistanceGrid,
    SystemParams,
    cumulative_popularity_table,
    energy_spend,
    feasible_table,
    state_table,
)

__all__ = [
    "poisson_pmf",
    "ArrivalPmf",
    "energy_row",
    "content_row",
    "request_row",
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
    at or above ``capacity`` is *not* folded in here (the energy row does the
    capping), so the entries may sum to less than one.
    """

    probs: tuple[float, ...]
    mean: float

    def __post_init__(self):
        if not self.probs:
            raise ValueError("arrival pmf needs at least one entry")
        if any(p < 0 for p in self.probs):
            raise ValueError("arrival probabilities must be >= 0")
        if math.fsum(self.probs) > 1.0 + 1e-12:
            raise ValueError("arrival probabilities must sum to <= 1")

    @classmethod
    def poisson(cls, mean: float, capacity: int) -> "ArrivalPmf":
        probs = tuple(poisson_pmf(mean, i) for i in range(capacity + 1))
        return cls(probs=probs, mean=mean)

    def prefix(self, count: int) -> float:
        """Pr(arrivals <= count); -1 gives 0."""
        return math.fsum(self.probs[: count + 1])


def energy_row(
    battery: int,
    request: int,
    action: Action,
    grid: DistanceGrid,
    arrival: ArrivalPmf,
    capacity: int,
) -> np.ndarray:
    """Next-battery pmf over 0..capacity after acting and harvesting."""
    spent = energy_spend(action, request, grid)
    if spent > battery:
        raise ValueError(
            f"action {action.name} spends {spent} units but battery holds {battery}"
        )
    base = battery - spent
    row = np.zeros(capacity + 1)
    for nxt in range(base, capacity):
        row[nxt] = arrival.probs[nxt - base]
    gap = capacity - base
    # max() guards against the prefix sum rounding a hair above 1
    row[capacity] = 1.0 if gap == 0 else max(0.0, 1.0 - arrival.prefix(gap - 1))
    return row


def content_row(pushed: int, action: Action, params: SystemParams) -> dict[int, float]:
    """Next pushed-count pmf as a sparse {count: prob} map.

    Each period one cached content is replaced in the catalog with probability
    p_c; a replacement evicts a *pushed* content with chance C/N.  A push then
    adds one content.  Push on a full cache only backfills the eviction.
    """
    n = params.num_contents
    if not 0 <= pushed <= n:
        raise ValueError(f"pushed count {pushed} outside [0, {n}]")
    drop = params.content_replace_prob * (pushed / n) if n else 0.0
    if action == Action.PUSH:
        if pushed >= n:
            raise ValueError("push infeasible with every content already pushed")
        row = {pushed + 1: 1.0 - drop}
        if drop:
            row[pushed] = drop
    else:
        row = {pushed: 1.0 - drop}
        if drop:
            row[pushed - 1] = drop
    return row


def request_row(
    pushed_next: int,
    popularity_cum: np.ndarray,
    grid: DistanceGrid,
    request_prob: float,
) -> np.ndarray:
    """Next request-ring pmf over 0..M given next period's pushed count.

    A request arrives with probability p_u and survives (is not already
    cached) with probability 1 - F(C'); a surviving request lands in ring m
    with the ring-area probability.
    """
    miss = request_prob * (1.0 - popularity_cum[pushed_next])
    row = np.empty(grid.num_rings + 1)
    row[0] = 1.0 - miss
    row[1:] = miss * np.asarray(grid.ring_probs)
    return row


@dataclass
class TransitionKernel:
    """Sparse per-(state, action) transition rows.

    ``rows[(s, a)]`` holds (next-state indices, probabilities) for every
    feasible action a in state s; infeasible pairs are absent.
    """

    num_states: int
    rows: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]
    _matrices: dict[int, csr_matrix] = field(default_factory=dict, repr=False)
    _mask: np.ndarray | None = field(default=None, repr=False)

    def feasible_mask(self) -> np.ndarray:
        """Read-only (action, state) table, True where the pair has a row."""
        if self._mask is None:
            mask = np.zeros((NUM_ACTIONS, self.num_states), dtype=bool)
            for s, a in self.rows:
                mask[a, s] = True
            mask.setflags(write=False)
            self._mask = mask
        return self._mask

    def feasible_actions(self, state: int) -> tuple[Action, ...]:
        return tuple(
            Action(a) for a in range(NUM_ACTIONS) if (state, a) in self.rows
        )

    def row(self, state: int, action: Action) -> tuple[np.ndarray, np.ndarray]:
        try:
            return self.rows[(state, int(action))]
        except KeyError:
            raise KeyError(
                f"action {Action(action).name} infeasible in state {state}"
            ) from None

    def action_matrix(self, action: Action) -> csr_matrix:
        """CSR matrix of the action's rows; infeasible rows are all-zero."""
        a = int(action)
        if a not in self._matrices:
            indptr = [0]
            indices = []
            data = []
            for s in range(self.num_states):
                row = self.rows.get((s, a))
                if row is not None:
                    indices.append(row[0])
                    data.append(row[1])
                    indptr.append(indptr[-1] + len(row[0]))
                else:
                    indptr.append(indptr[-1])
            if data:
                indices_arr = np.concatenate(indices)
                data_arr = np.concatenate(data)
            else:
                indices_arr = np.zeros(0, dtype=np.int64)
                data_arr = np.zeros(0)
            self._matrices[a] = csr_matrix(
                (data_arr, indices_arr, np.asarray(indptr)),
                shape=(self.num_states, self.num_states),
            )
        return self._matrices[a]

    def restrict(self, allowed: set[Action] | frozenset[Action]) -> "TransitionKernel":
        """Kernel with only the given actions kept (sleep must stay allowed)."""
        keep = {int(a) for a in allowed}
        if int(Action.SLEEP) not in keep:
            raise ValueError("restriction must keep SLEEP to stay well-defined")
        rows = {sa: r for sa, r in self.rows.items() if sa[1] in keep}
        return TransitionKernel(num_states=self.num_states, rows=rows)

    def union_matrix(self) -> csr_matrix:
        """Support of all feasible transitions, as a 0/1-weighted CSR matrix."""
        total = None
        for a in range(NUM_ACTIONS):
            m = self.action_matrix(Action(a))
            total = m if total is None else total + m
        return total

    def to_text(self, limit: int | None = None) -> str:
        """Readable dump of the sparse rows, for debugging and CLI export."""
        lines = []
        for (s, a) in sorted(self.rows):
            idx, p = self.rows[(s, a)]
            entries = " ".join(f"{j}:{pj:.12g}" for j, pj in zip(idx, p))
            lines.append(f"{s} {Action(a).name} {entries}")
            if limit is not None and len(lines) >= limit:
                lines.append("...")
                break
        return "\n".join(lines) + "\n"


def build_kernel(
    params: SystemParams,
    grid: DistanceGrid,
    popularity: np.ndarray,
    arrival: ArrivalPmf,
) -> TransitionKernel:
    """Assemble the sparse kernel from the three per-factor row builders."""
    capacity = params.battery_levels
    m1 = params.num_rings + 1
    n1 = params.num_contents + 1
    pop_cum = cumulative_popularity_table(popularity)
    feasible = feasible_table(params, grid)
    e_all, q_all, c_all = state_table(params)

    # Request rows depend only on next period's pushed count.
    request_rows = np.stack(
        [
            request_row(c_next, pop_cum, grid, params.request_prob)
            for c_next in range(n1)
        ]
    )
    # Energy rows depend on the post-spend level only.
    energy_by_base = {}
    for base in range(capacity + 1):
        row = np.zeros(capacity + 1)
        for nxt in range(base, capacity):
            row[nxt] = arrival.probs[nxt - base]
        gap = capacity - base
        row[capacity] = 1.0 if gap == 0 else max(0.0, 1.0 - arrival.prefix(gap - 1))
        energy_by_base[base] = row

    rows: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    for s in range(params.num_states):
        e, q, c = int(e_all[s]), int(q_all[s]), int(c_all[s])
        for a in range(NUM_ACTIONS):
            if not feasible[a, s]:
                continue
            action = Action(a)
            e_row = energy_by_base[e - energy_spend(action, q, grid)]
            c_row = content_row(c, action, params)
            e_nz = np.flatnonzero(e_row)
            idx_parts = []
            prob_parts = []
            for c_next, pc in c_row.items():
                q_row = request_rows[c_next]
                q_nz = np.flatnonzero(q_row)
                # idx = (E'*(M+1) + Q')*(N+1) + C'
                base_idx = (e_nz[:, None] * m1 + q_nz[None, :]) * n1 + c_next
                probs = pc * e_row[e_nz][:, None] * q_row[q_nz][None, :]
                idx_parts.append(base_idx.ravel())
                prob_parts.append(probs.ravel())
            idx = np.concatenate(idx_parts)
            prob = np.concatenate(prob_parts)
            order = np.argsort(idx, kind="stable")
            rows[(s, a)] = (idx[order], prob[order])
    return TransitionKernel(num_states=params.num_states, rows=rows)


@dataclass(frozen=True)
class KernelReport:
    """Structural health check of a built kernel."""

    num_states: int
    num_rows: int
    max_row_sum_deviation: float
    negative_entries: int
    strong_components: int
    never_entered: tuple[int, ...]

    @property
    def strongly_connected(self) -> bool:
        return self.strong_components == 1


def validate_kernel(kernel: TransitionKernel) -> KernelReport:
    """Row-sum, sign and connectivity diagnostics.

    ``never_entered`` lists states no other state can reach in one step under
    any feasible action; they are transient decorations of the chain and a
    strong-component count above one is expected whenever they exist.
    """
    max_dev = 0.0
    negatives = 0
    for idx, prob in kernel.rows.values():
        max_dev = max(max_dev, abs(math.fsum(prob) - 1.0))
        negatives += int(np.sum(prob < 0))
    union = kernel.union_matrix()
    n_comp, _ = connected_components(union, directed=True, connection="strong")
    entered = union.copy()
    entered.setdiag(0)
    col_mass = np.asarray(entered.sum(axis=0)).ravel()
    never = tuple(int(s) for s in np.flatnonzero(col_mass == 0))
    return KernelReport(
        num_states=kernel.num_states,
        num_rows=len(kernel.rows),
        max_row_sum_deviation=max_dev,
        negative_entries=negatives,
        strong_components=n_comp,
        never_entered=never,
    )
