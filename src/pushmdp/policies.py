"""Baseline policies and structural analysis of solved policies.

Two baselines frame the optimal push policy: the optimal non-push policy
(same solver, push removed from every action set) and the greedy
unicast-priority rule (serve any affordable request now, push only on idle
periods).  The threshold analyzer checks the sleep/act structure of a policy
along the battery axis.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    Action,
    DistanceGrid,
    SystemParams,
    feasible_table,
    state_table,
)
from .solver import PolicyIterationResult, PolicyTable, policy_iteration
from .transition import TransitionKernel

__all__ = [
    "non_push_optimal",
    "unicast_priority_table",
    "ThresholdProfile",
    "threshold_profile",
    "format_threshold_grid",
]


def non_push_optimal(kernel: TransitionKernel, costs) -> PolicyIterationResult:
    """Optimal policy over {Sleep, Unicast} only, with its gain and values.

    Runs the same policy iteration on the kernel with push rows dropped; the
    result is feasible in the unrestricted system as well.
    """
    restricted = kernel.restrict({Action.SLEEP, Action.UNICAST})
    return policy_iteration(restricted, costs)


def unicast_priority_table(params: SystemParams, grid: DistanceGrid) -> PolicyTable:
    """Greedy rule: serve an affordable request, else push on idle, else sleep.

    A pending request the battery cannot cover yields Sleep (the macro cell
    takes it); push never preempts a pending request.
    """
    feasible = feasible_table(params, grid)
    _, q, _ = state_table(params)
    idle = np.where(feasible[Action.PUSH] & (q == 0), Action.PUSH, Action.SLEEP)
    return PolicyTable(np.where(feasible[Action.UNICAST], Action.UNICAST, idle))


@dataclass(frozen=True, eq=False)
class ThresholdProfile:
    """Sleep/act structure of every (request, pushed) slice along the battery.

    Both arrays are indexed [q, c].  ``threshold`` is the smallest battery
    level at which the slice acts, or -1 when it sleeps at every level;
    ``clean`` says whether the slice acts at *every* level at or above the
    threshold.  ``violations`` lists the unclean slices in row-major order.
    """

    threshold: np.ndarray
    clean: np.ndarray

    @property
    def all_clean(self) -> bool:
        return bool(self.clean.all())

    @property
    def violations(self) -> tuple[tuple[int, int], ...]:
        return tuple((q, c) for q, c in np.argwhere(~self.clean).tolist())


def _battery_slices(policy: PolicyTable, params: SystemParams) -> np.ndarray:
    """Action codes as an (E+1, M+1, N+1) array over (battery, request, pushed)."""
    shape = (params.battery_levels + 1, params.num_rings + 1, params.num_contents + 1)
    return policy.actions.reshape(shape)


def threshold_profile(policy: PolicyTable, params: SystemParams) -> ThresholdProfile:
    """Classify every (request, pushed) slice of a policy.

    A slice is clean when it sleeps strictly below some battery level and
    acts at that level and above (the all-sleep slice is clean, with
    threshold -1).
    """
    awake = _battery_slices(policy, params) != Action.SLEEP
    first = np.where(awake.any(axis=0), awake.argmax(axis=0), -1)
    clean = (first < 0) | (awake.sum(axis=0) == awake.shape[0] - first)
    return ThresholdProfile(first, clean)


def format_threshold_grid(
    policy: PolicyTable, params: SystemParams, pushed: int
) -> str:
    """One slice of a policy as a text grid: rows battery, columns request."""
    if not 0 <= pushed <= params.num_contents:
        raise ValueError(f"pushed {pushed} outside [0, {params.num_contents}]")
    letters = np.array([a.name[0] for a in Action])
    cells = letters[_battery_slices(policy, params)[:, :, pushed]]
    header = "E\\Q " + " ".join(str(q) for q in range(params.num_rings + 1))
    lines = [header]
    lines += [f"{e:3d} " + " ".join(row) for e, row in enumerate(cells.tolist())]
    return "\n".join(lines) + "\n"
