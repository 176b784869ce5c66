"""System model for an energy-harvesting small cell with proactive content push.

The cell is slotted: each period the base station observes its state, then
sleeps, unicasts a requested content to one user, or pushes (multicasts) the
most popular content users do not hold yet.  Battery charge, transmit energies
and harvest arrivals are counted in integer energy units.  User positions are
discretized to M distance rings: serving ring i costs exactly i units and a
push costs M, the edge-ring cost.  Under a pure path-loss law the transmit
energy grows as d^alpha, so ring i ends where it reaches i/M of the edge
energy, at d_i = R (i/M)^(1/alpha), and no other link-budget constant enters.
The state is the triple

    (battery level E, request ring Q, pushed-content count C)

with E in 0..E_max, Q in 0..M (0 means no serviceable request) and C in 0..N.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

__all__ = [
    "Action",
    "SystemParams",
    "DistanceGrid",
    "CalibrationError",
    "zipf_pmf",
    "cumulative_popularity_table",
    "calibrate_radio",
    "state_table",
    "spend_table",
    "stage_cost_table",
    "feasible_table",
]


class Action(IntEnum):
    """Per-period base station decision."""

    SLEEP = 0
    UNICAST = 1
    PUSH = 2


NUM_ACTIONS = len(Action)

# The largest mean numpy's Generator.poisson draws (its POISSON_LAM_MAX), with
# which the simulator draws arrivals.
POISSON_MEAN_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


class CalibrationError(ValueError):
    """Ring geometry admits no distance grid with one width per ring."""


@dataclass(frozen=True)
class SystemParams:
    """Content, traffic and battery parameters.

    ``battery_levels`` is the battery capacity in energy units and
    ``mean_arrival`` the mean harvested units per period (Poisson arrivals in
    the default setup).
    """

    num_contents: int
    zipf_skew: float
    content_replace_prob: float
    request_prob: float
    battery_levels: int
    num_rings: int
    mean_arrival: float

    def __post_init__(self):
        # num_contents == 0 / battery_levels == 0 are degenerate but legal:
        # they exercise boundary handling in the kernel builder.
        if self.num_contents < 0:
            raise ValueError("num_contents must be >= 0")
        # NaN fails this check and mean_arrival's; zipf_skew = inf sends every
        # request to the top content and stays valid
        if not self.zipf_skew >= 0:
            raise ValueError("zipf_skew must be >= 0")
        for name in ("content_replace_prob", "request_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.battery_levels < 0:
            raise ValueError("battery_levels must be >= 0")
        if self.num_rings < 1:
            raise ValueError("num_rings must be >= 1")
        if not 0 < self.mean_arrival <= POISSON_MEAN_MAX:
            raise ValueError(
                f"mean_arrival must be > 0 and at most {POISSON_MEAN_MAX:.17g}, "
                "the largest Poisson mean numpy draws"
            )

    @property
    def num_states(self) -> int:
        return (self.battery_levels + 1) * (self.num_rings + 1) * (self.num_contents + 1)


@dataclass(frozen=True)
class DistanceGrid:
    """Calibrated ring boundaries and ring probabilities.

    ``distances[m-1]`` is the outer radius of ring m (1-based, the last one
    equals the cell radius); ``ring_probs[m-1]`` is the probability that a
    uniformly placed user falls in ring m (ring area over cell area).  The
    costs follow from the ring count: serving ring i takes i units.
    """

    distances: tuple[float, ...]
    ring_probs: tuple[float, ...]

    def __post_init__(self):
        m = len(self.distances)
        if m < 1:
            raise ValueError("at least one ring required")
        if len(self.ring_probs) != m:
            raise ValueError("inconsistent grid lengths")
        if any(b <= a for a, b in zip(self.distances, self.distances[1:])):
            raise ValueError("distances must be strictly increasing")
        if any(q < 0 for q in self.ring_probs):
            raise ValueError("ring_probs must be non-negative")
        if abs(math.fsum(self.ring_probs) - 1.0) > 1e-12:
            raise ValueError("ring_probs must sum to 1")

    @property
    def num_rings(self) -> int:
        return len(self.distances)

    @property
    def unicast_costs(self) -> tuple[int, ...]:
        """Units spent serving ring i, 0..M, with 0 for no request."""
        return tuple(range(self.num_rings + 1))

    @property
    def push_cost(self) -> int:
        """Units spent by a push, i.e. the edge-ring unicast cost M."""
        return self.num_rings


def zipf_pmf(params: SystemParams) -> np.ndarray:
    """Rank-based popularity f_i = i^-v / sum_j j^-v over the content catalog."""
    n = params.num_contents
    if n == 0:
        return np.zeros(0)
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks ** (-params.zipf_skew)
    return weights / weights.sum()


def cumulative_popularity_table(popularity: np.ndarray) -> np.ndarray:
    """Probability that a requested content ranks within the top c, c = 0..N.

    Exactly 0.0 for an empty pushed set and exactly 1.0 when everything is
    pushed (the popularity vector is normalized by construction).
    """
    n = len(popularity)
    table = np.empty(n + 1)
    table[0] = 0.0
    if n:
        table[1:] = np.cumsum(popularity)
    table[n] = 1.0
    return table


def calibrate_radio(
    num_rings: int, pathloss_exp: float, cell_radius: float
) -> DistanceGrid:
    """Distance grid on which ring i costs exactly i energy units.

    The energy to reach distance d grows as d^alpha, so ring i ends where it
    reaches i/M of the edge energy: d_i = R * (i/M)^(1/alpha), and a user
    placed uniformly in the cell falls in ring i with probability
    (d_i^2 - d_{i-1}^2) / R^2.  ``CalibrationError`` is raised when rounding
    leaves a ring no width or R^2 is not a positive finite number.
    """
    if not pathloss_exp >= 2:
        raise ValueError("pathloss_exp must be >= 2")
    if not cell_radius > 0:
        raise ValueError("cell_radius must be > 0")
    m = num_rings
    radius = cell_radius
    distances = [radius * (i / m) ** (1.0 / pathloss_exp) for i in range(1, m)]
    distances.append(radius)
    for i, (inner, outer) in enumerate(zip([0.0, *distances], distances), start=1):
        if not inner < outer:
            raise CalibrationError(
                f"ring {i} of {m} has no width in (0, {radius}]; "
                "radio parameters are inconsistent"
            )
    area = radius * radius
    if not 0.0 < area < math.inf:
        raise CalibrationError(f"cell radius {radius} squares to {area}")

    ring_probs = []
    prev = 0.0
    for d in distances:
        ring_probs.append((d * d - prev * prev) / area)
        prev = d
    return DistanceGrid(distances=tuple(distances), ring_probs=tuple(ring_probs))


def state_table(params: SystemParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Battery, request and pushed components for every state index.

    States are numbered E-major, index (E (M+1) + Q) (N+1) + C, so (0, 0, 0) is 0.
    """
    shape = (params.battery_levels + 1, params.num_rings + 1, params.num_contents + 1)
    e, q, c = np.indices(shape)
    return e.ravel(), q.ravel(), c.ravel()


def spend_table(grid: DistanceGrid) -> np.ndarray:
    """(num_actions, num_rings + 1) energy units an action spends per request ring.

    Sleep spends nothing, unicast the request ring's cost and push the
    edge-ring cost whatever the request.
    """
    spend = np.zeros((NUM_ACTIONS, grid.num_rings + 1), dtype=np.int64)
    spend[Action.UNICAST] = grid.unicast_costs
    spend[Action.PUSH] = grid.push_cost
    return spend


def stage_cost_table(params: SystemParams) -> np.ndarray:
    """(num_actions, num_states) stage costs.

    The cost is 1 when a pending request is handed to the macro cell, that is
    under any action but unicast, else 0.
    """
    _, q, _ = state_table(params)
    costs = np.zeros((NUM_ACTIONS, params.num_states))
    pending = (q > 0).astype(float)
    costs[Action.SLEEP] = pending
    costs[Action.PUSH] = pending
    return costs


def feasible_table(params: SystemParams, grid: DistanceGrid) -> np.ndarray:
    """(num_actions, num_states) boolean feasibility mask.

    An action is feasible when the battery covers its spend; unicast also
    needs a pending request and push an un-pushed content.
    """
    if grid.num_rings != params.num_rings:
        raise ValueError(
            f"num_rings is {params.num_rings} but the grid has {grid.num_rings} rings"
        )
    e, q, c = state_table(params)
    mask = spend_table(grid)[:, q] <= e
    mask[Action.UNICAST] &= q >= 1
    mask[Action.PUSH] &= c < params.num_contents
    return mask
