"""Seeded Monte Carlo simulation of the slotted push system.

The simulator realizes the same period timeline the kernel encodes, but by
direct sampling (numpy Poisson and uniform draws) rather than through the
analytic pmfs, so solver and simulator stay independent routes to the same
averages.  Per period: observe the state, apply the policy, accrue the
macro-handling cost, then sample harvest arrivals, content replacement and
the next request.

Draws come in blocks of ``_BLOCK`` periods, six arrays per block in a fixed
order (arrivals, replacement, eviction, request, hit, ring), so a seed fixes
every trajectory.  Each block is first reduced, vectorized, to per-period
integers: evict iff c >= drop_min, and a step code hit_min*(M+1) + miss_q,
where a request is a hit iff c' >= hit_min and otherwise leaves ring miss_q
(0 when nothing is requested).  The state index E*(M+1)*(N+1) + Q*(N+1) + C
is then a battery term plus a pushed-count-and-ring term, read from three
small tables built once per run: battery[b][a] = min(b + a, E)*(M+1)*(N+1)
for post-spend level b and harvest a capped at E, kept[2C + push][drop_min]
= the next pushed count C', and ring[C'][code] = C' plus the ring part
(none on a hit).  A step takes 0.15-0.2 µs on a 2-vCPU Xeon VM.

Requests are counted once per draw block and the other counts once per
``_CHUNK`` periods, so no state grows with the horizon.  A request drawn in
period j is observed (maybe by the macro cell) in period j+1, so the measured
periods warmup..horizon-1 count the request draws of warmup-1..horizon-2,
and macro_handled <= requests_generated holds in any window.  A miss always
leaves a ring and Q > 0 only follows a request, so the cache hits are the
requests less the measured periods with Q > 0.  The macro events are summed
per batch of the s.e., and the energy spills as Python ints, which no total
overflows.  ``simulate`` checks a table with ``PolicyTable.validate`` before
the first draw; ``baseline`` maps ``BASELINE_NAMES`` to tables and values.
"""
from __future__ import annotations

import os
import sys
import time
from collections.abc import Callable
from dataclasses import KW_ONLY, dataclass, field, replace

import numpy as np

from .model import (
    Action,
    DistanceGrid,
    SystemParams,
    cumulative_popularity_table,
    feasible_table,
    spend_table,
    stage_cost_table,
    state_table,
    zipf_pmf,
)
from .policies import non_push_optimal, unicast_priority_table
from .solver import PolicyTable, ValueSolution, policy_evaluation, policy_iteration
from .transition import ArrivalPmf, TransitionKernel, build_kernel

__all__ = [
    "SimConfig",
    "SimMetrics",
    "check_run",
    "check_sweep",
    "simulate",
    "simulate_many",
    "simulation_workers",
    "SweepRow",
    "sweep",
    "BASELINE_NAMES",
    "baseline",
    "child_seeds",
]

_BLOCK = 1 << 18
# batch means per standard error
_BATCHES = 100
# equal buckets of [0, 1) that reduce a uniform draw to a table position
_BUCKETS = 1 << 12
# periods per list conversion: bounds the Python ints alive at once
_CHUNK = 1 << 13

BASELINE_NAMES = ("optimal-push", "non-push", "unicast-priority")


@dataclass(frozen=True)
class SimConfig:
    """Policy table, horizon, seeding and measurement settings for one run.

    ``policy`` is a PolicyTable; ``baseline`` gives the table of a name.  The
    run settings are keyword-only and have no defaults here: the default run
    is ``cli.DEFAULTS`` with the CLI's ``--seed``.
    """

    policy: PolicyTable
    _: KW_ONLY
    horizon: int
    seed: int
    warmup: int

    def __post_init__(self):
        if not isinstance(self.policy, PolicyTable):
            raise TypeError(f"policy must be a PolicyTable, not {self.policy!r}")
        check_run(self.horizon, self.warmup, self.seed)


def check_run(horizon: int, warmup: int, seed: int) -> None:
    """Refuse bad run lengths or seed; a message starts with the key at fault."""
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    if horizon <= warmup:
        raise ValueError(f"horizon must be > warmup = {warmup}, got {horizon}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")


def check_sweep(pu_grid: tuple[float, ...], replications: int) -> None:
    """Refuse a request probability outside (0, 1] or fewer than one replication."""
    if replications < 1:
        raise ValueError("replications must be >= 1")
    for p_u in pu_grid:
        if not 0.0 < p_u <= 1.0:
            raise ValueError(f"p_u grid point {p_u} outside (0, 1]")


@dataclass(frozen=True)
class SimMetrics:
    """Counts over the post-warmup measurement window, and the macro ratio's s.e.

    The s.e. of ``macro_ratio`` comes from batch means, which absorb the
    chain's serial correlation, and is nan below ``_BATCHES`` measured periods.
    ``periods_per_s`` is the run's simulated periods per wall-clock second;
    it varies between identical runs, so equality ignores it.
    """

    total_periods: int
    measured_periods: int
    requests_generated: int
    macro_handled: int
    cache_hits: int
    energy_overflow_units: int
    macro_ratio_se: float
    periods_per_s: float = field(compare=False)

    @property
    def macro_ratio(self) -> float:
        """macro_handled per measured period, the figure the solver's gain predicts."""
        return self.macro_handled / self.measured_periods


def baseline(
    name: str,
    params: SystemParams,
    grid: DistanceGrid,
    kernel: Callable[[], TransitionKernel],
    gain: bool = True,
) -> tuple[PolicyTable, ValueSolution | None]:
    """Policy table and solver values (gain and h) of one named baseline.

    ``kernel()`` returns the scenario's kernel; it is called only when the
    policy is solved or evaluated on it.  unicast-priority's table needs no
    kernel, and with ``gain=False`` it is not evaluated and its values are
    None: where its chain has closed classes of different gains (e_max=3,
    p_c=0) the evaluation would raise.
    """
    costs = stage_cost_table(params)
    if name == "optimal-push":
        res = policy_iteration(kernel(), costs)
    elif name == "non-push":
        res = non_push_optimal(kernel(), costs)
    elif name == "unicast-priority":
        table = unicast_priority_table(params, grid)
        return table, policy_evaluation(table, kernel(), costs) if gain else None
    else:
        raise ValueError(f"unknown policy name {name!r}; known: {BASELINE_NAMES}")
    return res.policy, res.values


def child_seeds(master: np.random.SeedSequence, count: int) -> list[int]:
    """64-bit seeds of the next ``count`` children spawned from ``master``."""
    return [int(child.generate_state(1, np.uint64)[0]) for child in master.spawn(count)]


class _BucketSearch:
    """``np.searchsorted(table, u, side="right")`` for uniform draws u in [0, 1).

    [0, 1) is cut into ``_BUCKETS`` equal buckets, and the search is run once
    at each bucket's two ends.  Where they agree, that count is the answer
    for every draw in the bucket, since the search is monotone in u; the few
    draws in buckets that hold a table entry are searched one by one.  The
    result is the search's, bit for bit.
    """

    def __init__(self, table: np.ndarray):
        self.table = table
        edges = np.arange(_BUCKETS + 1) / _BUCKETS
        self.count = np.searchsorted(table, edges[:-1], side="right")
        last = np.searchsorted(table, np.nextafter(edges[1:], 0.0), side="right")
        self.split = self.count != last

    def __call__(self, u: np.ndarray) -> np.ndarray:
        bucket = (u * _BUCKETS).astype(np.intp)  # exact: _BUCKETS is a power of 2
        out = self.count[bucket]
        odd = np.flatnonzero(self.split[bucket])
        out[odd] = np.searchsorted(self.table, u[odd], side="right")
        return out


def _draw(rng, count: int, params: SystemParams, grid: DistanceGrid, pop_cum):
    """(arrivals, requested, drop_min, code) of ``count`` periods, in the fixed order.

    The eviction table c/N is nondecreasing.  The popularity table is too up
    to its first share that rounds to 1 or above, and every later entry is at
    least 1, above any uniform draw in [0, 1).  So for every draw the test is
    monotone in the count: ``c >= drop_min`` is exactly ``evict < c/N`` and
    ``c' >= hit_min`` exactly ``hitu < pop_cum[c']``.
    """
    n = params.num_contents
    evict_thresh = np.arange(n + 1) / n if n else np.zeros(1)
    # each draw is reduced in place as soon as it is taken; the order is fixed
    arr = rng.poisson(params.mean_arrival, count)
    replaced = rng.random(count) < params.content_replace_prob
    drop_min = _BucketSearch(evict_thresh)(rng.random(count))
    drop_min[~replaced] = n + 1
    requested = rng.random(count) < params.request_prob
    hit_min = _BucketSearch(pop_cum)(rng.random(count))
    miss_q = _BucketSearch(np.cumsum(grid.ring_probs))(rng.random(count))
    np.minimum(miss_q, grid.num_rings - 1, out=miss_q)
    miss_q += 1
    miss_q[~requested] = 0
    hit_min *= params.num_rings + 1
    hit_min += miss_q
    return arr, requested, drop_min, hit_min


def simulate(
    config: SimConfig,
    params: SystemParams,
    grid: DistanceGrid,
    record: bool = False,
):
    """Run ``config.policy`` on one seeded trajectory from state (0, 0, 0).

    Deterministic given (config, params, grid); the popularity is
    ``zipf_pmf(params)``.  Builds no kernel and solves nothing.  With
    ``record=True`` also returns the visited state indices over the full
    horizon, for distribution checks; the actions are
    ``config.policy.actions[states]``.  A table that does not fit the state
    space, or is infeasible in any state, raises ValueError before any draw.
    """
    config.policy.validate(feasible_table(params, grid))
    actions = config.policy.actions
    start = time.perf_counter()
    horizon, warmup = config.horizon, config.warmup
    n_meas = horizon - warmup

    m1 = params.num_rings + 1
    n1 = params.num_contents + 1
    cap = params.battery_levels
    pop_cum = cumulative_popularity_table(zipf_pmf(params))

    e_tab, q_tab, c_tab = state_table(params)
    states = np.arange(params.num_states)
    post_spend = e_tab - spend_table(grid)[actions, q_tab]
    macro_tab = stage_cost_table(params)[actions, states].astype(bool)
    # the module docstring's step tables; thresholds run over 0..N+1
    level, thresh = np.arange(cap + 1), np.arange(n1 + 1)
    count = np.arange(n1)[:, None, None]
    battery = (np.minimum(level[:, None] + level, cap) * m1 * n1).tolist()
    kept = count + np.arange(2)[:, None] - (count >= thresh)
    ring = count + (count < thresh[:, None]) * np.arange(m1) * n1
    kept, ring = kept.reshape(2 * n1, -1).tolist(), ring.reshape(n1, -1).tolist()
    battery_of = [battery[b] for b in post_spend.tolist()]
    kept_of = [kept[i] for i in (2 * c_tab + (actions == Action.PUSH)).tolist()]

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(config.seed)))

    # macro events per batch, the n_meas % _BATCHES leftover periods in the last
    size = max(n_meas // _BATCHES, 1)
    macro_bins = np.zeros(_BATCHES + 1, dtype=np.int64)
    requests = misses = overflow = 0
    if record:
        rec_states = np.zeros(horizon, dtype=np.int32)

    s = 0
    for k in range(0, horizon, _BLOCK):
        blk = min(_BLOCK, horizon - k)
        arrivals, requested, drop_mins, codes = _draw(rng, blk, params, grid, pop_cum)
        # the request draws of periods warmup - 1 .. horizon - 2
        requests += int(requested[max(warmup - 1 - k, 0) : horizon - 1 - k].sum())
        for lo in range(0, blk, _CHUNK):
            hi = min(lo + _CHUNK, blk)
            visited = []
            visit = visited.append
            for a, drop_min, code in zip(
                np.minimum(arrivals[lo:hi], cap).tolist(),
                drop_mins[lo:hi].tolist(),
                codes[lo:hi].tolist(),
            ):
                visit(s)
                s = battery_of[s][a] + ring[kept_of[s][drop_min]][code]
            st = np.fromiter(visited, np.int64, len(visited))
            k0 = k + lo
            if record:
                rec_states[k0 : k0 + len(st)] = st
            skip = max(warmup - k0, 0)
            if skip < len(st):
                st_m = st[skip:]
                j = np.flatnonzero(macro_tab[st_m]) + (k0 + skip - warmup)
                batch = np.minimum(j // size, _BATCHES)  # the leftover may exceed a batch
                macro_bins += np.bincount(batch, minlength=_BATCHES + 1)
                misses += int(np.count_nonzero(q_tab[st_m]))
                # post_spend - cap <= 0 keeps each spill in int64
                spill = post_spend[st_m] - cap + arrivals[lo + skip : hi]
                overflow += sum(spill[spill > 0].tolist())
        del arrivals, requested, drop_mins, codes  # free them before the next block

    handled = int(macro_bins.sum())
    se = float("nan")
    if n_meas >= _BATCHES:
        se = float((macro_bins[:-1] / size).std(ddof=1) / np.sqrt(_BATCHES))
    metrics = SimMetrics(
        total_periods=horizon,
        measured_periods=n_meas,
        requests_generated=requests,
        macro_handled=handled,
        cache_hits=requests - misses,
        energy_overflow_units=overflow,
        macro_ratio_se=se,
        periods_per_s=horizon / (time.perf_counter() - start),
    )
    if record:
        return metrics, rec_states
    return metrics


def _available_cpus() -> int:
    """CPUs this process may run on; 1 off Linux, where no worker is forked."""
    if sys.platform != "linux":
        # fork is unsafe on macOS with the system BLAS loaded
        return 1
    return len(os.sched_getaffinity(0))


def simulation_workers(num_jobs: int) -> int:
    """Worker processes ``simulate_many`` uses for ``num_jobs`` jobs; 1 is in-process."""
    return max(1, min(num_jobs, _available_cpus()))


def simulate_many(jobs) -> list[SimMetrics]:
    """``simulate(*job)`` for each (config, params, grid) job, in order.

    Each job is fixed by its own seed, so the runs are independent and are
    spread over ``simulation_workers(len(jobs))`` forked worker processes;
    the metrics are those of the in-process runs, bit for bit.  With one
    worker the jobs run in this process.  Fork is named explicitly because
    forkserver and spawn re-import numpy and scipy in every worker, which
    costs more than a default run.
    """
    jobs = list(jobs)
    workers = simulation_workers(len(jobs))
    if workers == 1:
        return [simulate(*job) for job in jobs]
    # imported here so that a command that simulates nothing does not pay for it
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        return list(pool.map(simulate, *zip(*jobs)))


@dataclass(frozen=True)
class SweepRow:
    """One (policy, request-probability) point of the performance curve, and its runs.

    ``seed`` is the first run's.  p_c, a_bar and the horizon are the sweep's
    own, so a row does not repeat them.
    """

    policy: str
    p_u: float
    ratio_sim: float
    se: float
    ratio_solver: float
    seed: int
    runs: tuple[SimMetrics, ...] = field(compare=False)


def sweep(
    params: SystemParams,
    grid: DistanceGrid,
    pu_grid,
    *,
    replications: int,
    horizon: int,
    warmup: int,
    seed: int,
) -> list[SweepRow]:
    """Solve and simulate each of ``BASELINE_NAMES`` at each request probability.

    The request pmf depends on p_u, so the kernel is rebuilt and the
    optimizing policies re-solved at every grid point.  Each
    (p_u, policy, replication) triple gets an independent seed from
    ``child_seeds`` of the master seed, in row order; rows report both the
    solver gain and the simulated ratio so their agreement can be checked
    downstream.  Every point is solved first, then all the runs go through
    ``simulate_many`` at once.  The run settings are required keywords,
    like ``SimConfig``'s.
    """
    pu_grid = tuple(pu_grid)
    check_sweep(pu_grid, replications)
    master = np.random.SeedSequence(seed)
    points = []  # (params, policy name, solver gain, child seeds), in row order
    jobs = []
    for p_u in pu_grid:
        pp = replace(params, request_prob=float(p_u))
        arrival = ArrivalPmf.poisson(pp.mean_arrival, pp.battery_levels)
        kernel = build_kernel(pp, grid, zipf_pmf(pp), arrival)
        for name in BASELINE_NAMES:
            table, values = baseline(name, pp, grid, lambda: kernel)
            seeds = child_seeds(master, replications)
            points.append((pp, name, values.gain, seeds))
            jobs += [
                (SimConfig(policy=table, horizon=horizon, warmup=warmup, seed=s), pp, grid)
                for s in seeds
            ]
    runs = iter(simulate_many(jobs))
    rows: list[SweepRow] = []
    for pp, name, gain, seeds in points:
        metrics = [next(runs) for _ in seeds]
        if replications == 1:
            ratio, se = metrics[0].macro_ratio, metrics[0].macro_ratio_se
        else:
            ratios = [m.macro_ratio for m in metrics]
            ratio = float(np.mean(ratios))
            se = float(np.std(ratios, ddof=1) / np.sqrt(replications))
        rows.append(
            SweepRow(name, pp.request_prob, ratio, se, gain, seeds[0], tuple(metrics))
        )
    return rows
