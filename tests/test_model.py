"""Popularity, calibration, state layout and feasibility checks."""
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushmdp.model import (
    Action,
    CalibrationError,
    DistanceGrid,
    SystemParams,
    calibrate_radio,
    cumulative_popularity_table,
    feasible_table,
    spend_table,
    stage_cost_table,
    state_table,
    zipf_pmf,
)
from pushmdp.policies import unicast_priority_table
from pushmdp.sim import SimConfig, simulate
from pushmdp.solver import PolicyTable
from pushmdp.transition import ArrivalPmf, build_kernel, energy_table

from conftest import make_scenario, state_at

# sum of i^-0.5 for i = 1..20, evaluated independently with math.fsum
ZIPF_NORM_20 = 7.595255025289832


def default_params(**over):
    base = dict(
        num_contents=20,
        zipf_skew=0.5,
        content_replace_prob=0.3,
        request_prob=0.7,
        battery_levels=15,
        num_rings=4,
        mean_arrival=0.8,
    )
    base.update(over)
    return SystemParams(**base)


class TestSystemParams:
    def test_arrival_mean_within_numpy_poisson_range(self):
        # numpy draws no Poisson variate with a larger mean ("lam value too
        # large"), so such a mean is refused before anything is built
        largest = 9.223372006484771e18
        assert default_params(mean_arrival=largest).mean_arrival == largest
        np.random.default_rng(0).poisson(largest)
        with pytest.raises(ValueError, match="^mean_arrival must be > 0 and at most"):
            default_params(mean_arrival=9.23e18)
        with pytest.raises(ValueError, match="lam value too large"):
            np.random.default_rng(0).poisson(9.23e18)


class TestZipf:
    def test_top_rank_weight(self):
        f = zipf_pmf(default_params())
        assert f[0] == pytest.approx(1.0 / ZIPF_NORM_20, abs=1e-12)
        assert f[0] == pytest.approx(0.13166, abs=5e-6)

    def test_uniform_when_skew_zero(self):
        f = zipf_pmf(default_params(zipf_skew=0.0, num_contents=8))
        assert np.allclose(f, 0.125)

    def test_normalized_and_decreasing(self):
        f = zipf_pmf(default_params())
        assert math.fsum(f) == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(f) < 0)

    @given(
        n=st.integers(1, 200),
        v=st.floats(0.0, 4.0, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_pmf_properties(self, n, v):
        f = zipf_pmf(default_params(num_contents=n, zipf_skew=v))
        assert len(f) == n
        assert np.all(f > 0)
        assert math.fsum(f) == pytest.approx(1.0, abs=1e-12)


def reference_cumulative_popularity(popularity, pushed):
    """Per-count popularity sum that the table replaced, with exact ends.

    Reference for cross-checks only.
    """
    n = len(popularity)
    if pushed == n:
        return 1.0
    if pushed == 0:
        return 0.0
    return float(np.sum(popularity[:pushed]))


class TestCumulativePopularity:
    def test_two_most_popular(self):
        table = cumulative_popularity_table(zipf_pmf(default_params()))
        expect = (1.0 + 2 ** -0.5) / ZIPF_NORM_20
        assert table[2] == pytest.approx(expect, abs=1e-12)
        assert table[2] == pytest.approx(0.22476, abs=5e-6)

    def test_boundaries_exact(self):
        table = cumulative_popularity_table(zipf_pmf(default_params()))
        assert table.shape == (21,)
        assert table[0] == 0.0
        assert table[20] == 1.0

    def test_empty_catalog_full_coverage(self):
        table = cumulative_popularity_table(zipf_pmf(default_params(num_contents=0)))
        assert table[0] == 1.0

    def test_table_matches_scalar(self):
        f = zipf_pmf(default_params())
        table = cumulative_popularity_table(f)
        for c in range(21):
            expect = reference_cumulative_popularity(f, c)
            assert table[c] == pytest.approx(expect, abs=1e-15)
        assert table[20] == 1.0


class TestCalibration:
    def test_default_scenario(self):
        _, _, grid, _ = make_scenario()
        # closed form d_i = R * (i/M)^(1/alpha) for the quadratic pathloss
        expect = [50.0 * math.sqrt(i / 4.0) for i in (1, 2, 3, 4)]
        assert grid.distances == pytest.approx(expect, abs=1e-9)
        assert grid.unicast_costs == (0, 1, 2, 3, 4)
        assert grid.ring_probs == pytest.approx([0.25] * 4, abs=1e-12)

    def test_default_distances_exact(self):
        _, _, grid, _ = make_scenario()
        assert grid.distances == (25.0, 35.35533905932738, 43.30127018922193, 50.0)

    def test_costs_match_distances(self):
        # the transmit energy grows as d^alpha, so at the outer edge of ring i
        # it is i/M of the edge energy, which costs M units
        _, _, grid, _ = make_scenario(alpha=3.0, m_rings=5)
        edge = grid.distances[-1]
        for i, d in enumerate(grid.distances, start=1):
            energy = (d / edge) ** 3.0 * grid.push_cost
            assert energy == pytest.approx(grid.unicast_costs[i], rel=1e-10)

    def test_ring_without_width_rejected(self):
        # (i/M)^(1/alpha) rounds to 1 for every ring: no ring but the last
        # has a distance of its own
        with pytest.raises(CalibrationError, match="no width"):
            calibrate_radio(4, 1e17, 1.0)

    @pytest.mark.parametrize("radius", [1e-300, 1e300])
    def test_radius_squared_out_of_range_rejected(self, radius):
        # every ring has a width, but R^2 underflows to 0 or overflows to inf
        with pytest.raises(CalibrationError, match="squares to"):
            calibrate_radio(4, 2.0, radius)

    @pytest.mark.parametrize(
        "alpha, radius", [(1.5, 50.0), (math.nan, 50.0), (2.0, 0.0), (2.0, math.nan)]
    )
    def test_bad_geometry_rejected(self, alpha, radius):
        with pytest.raises(ValueError, match="must be"):
            calibrate_radio(4, alpha, radius)

    @given(
        alpha=st.floats(2.0, 5.0),
        m=st.integers(1, 8),
        radius=st.floats(10.0, 500.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_grid_well_formed(self, alpha, m, radius):
        grid = calibrate_radio(m, alpha, radius)
        assert grid.num_rings == m
        assert grid.distances[-1] == radius
        assert grid.unicast_costs == tuple(range(m + 1))
        assert math.fsum(grid.ring_probs) == pytest.approx(1.0, abs=1e-12)
        # ring areas follow the closed form (i/M)^(2/alpha) differences
        for i, d in enumerate(grid.distances, start=1):
            assert d == pytest.approx(radius * (i / m) ** (1.0 / alpha), rel=1e-9)


class TestDistanceGrid:
    def test_rejects_unsorted_distances(self):
        with pytest.raises(ValueError):
            DistanceGrid(distances=(30.0, 20.0), ring_probs=(0.5, 0.5))

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            DistanceGrid(distances=(30.0, 50.0), ring_probs=(0.7, 0.7))

    @pytest.mark.parametrize(
        "distances, ring_probs, match",
        [((), (), "at least one ring"),
         ((30.0, 50.0), (1.0,), "inconsistent grid lengths"),
         ((30.0, 50.0), (-0.5, 1.5), "must be non-negative")],
        ids=["no-rings", "probs-length", "negative-prob"],
    )
    def test_rejects_bad_grid(self, distances, ring_probs, match):
        with pytest.raises(ValueError, match=match):
            DistanceGrid(distances, ring_probs)

    def test_push_cost_is_edge_cost(self):
        _, _, grid, _ = make_scenario()
        assert grid.push_cost == 4

    def test_costs_follow_the_ring_count(self):
        # the costs are derived, not stored: a grid holds only its geometry
        grid = DistanceGrid(distances=(30.0, 40.0, 50.0), ring_probs=(0.36, 0.28, 0.36))
        assert grid.unicast_costs == (0, 1, 2, 3)
        assert grid.push_cost == 3
        assert [f.name for f in fields(DistanceGrid)] == ["distances", "ring_probs"]


class TestStateCodec:
    """``state_table`` is the codec: entry i holds the components of state i."""

    def test_origin_maps_to_zero(self):
        params = default_params()
        assert [int(x[0]) for x in state_table(params)] == [0, 0, 0]

    def test_round_trip_all_states(self):
        params = default_params(battery_levels=3, num_rings=2, num_contents=2)
        e, q, c = state_table(params)
        seen = set()
        for idx in range(params.num_states):
            assert state_at(params, e[idx], q[idx], c[idx]) == idx
            seen.add((int(e[idx]), int(q[idx]), int(c[idx])))
        assert len(seen) == params.num_states

    def test_tables_match_codec(self):
        params = default_params(battery_levels=4, num_rings=3, num_contents=2)
        shape = (5, 4, 3)  # E_max + 1, M + 1, N + 1
        expect = np.unravel_index(np.arange(params.num_states), shape)
        for got, want in zip(state_table(params), expect):
            assert np.array_equal(got, want)

    @given(e=st.integers(0, 15), q=st.integers(0, 4), c=st.integers(0, 20))
    @settings(max_examples=60, deadline=None)
    def test_bijection(self, e, q, c):
        params = default_params()
        idx = state_at(params, e, q, c)
        assert 0 <= idx < params.num_states
        assert tuple(int(x[idx]) for x in state_table(params)) == (e, q, c)


def reference_feasible_actions(e, q, c, grid, params):
    """Per-state feasibility rule that the table replaced.

    Reference for cross-checks only.
    """
    actions = [Action.SLEEP]
    if q >= 1 and grid.unicast_costs[q] <= e:
        actions.append(Action.UNICAST)
    if grid.push_cost <= e and c < params.num_contents:
        actions.append(Action.PUSH)
    return tuple(actions)


def reference_stage_cost(q, action):
    """Per-pair stage cost that the table replaced; reference only."""
    return 1 if q > 0 and action != Action.UNICAST else 0


class TestFeasibilityAndCost:
    def feasible(self, e, q, c):
        params, _, grid, _ = make_scenario()
        return feasible_table(params, grid)[:, state_at(params, e, q, c)]

    def test_sleep_always_feasible(self):
        for s in ((0, 0, 0), (15, 4, 20)):
            assert self.feasible(*s)[Action.SLEEP]

    def test_unicast_needs_request_and_energy(self):
        assert not self.feasible(15, 0, 0)[Action.UNICAST]
        assert not self.feasible(2, 3, 0)[Action.UNICAST]
        assert self.feasible(3, 3, 0)[Action.UNICAST]

    def test_push_needs_energy_and_room(self):
        assert not self.feasible(3, 0, 0)[Action.PUSH]
        assert self.feasible(4, 0, 0)[Action.PUSH]
        assert not self.feasible(15, 0, 20)[Action.PUSH]

    def test_energy_spend(self):
        _, _, grid, _ = make_scenario()
        spend = spend_table(grid)
        assert spend[Action.SLEEP, 3] == 0
        assert spend[Action.UNICAST, 3] == 3
        assert spend[Action.PUSH, 3] == 4

    def test_stage_cost_indicator(self):
        params = default_params()
        costs = stage_cost_table(params)
        pending = state_at(params, 5, 2, 0)
        idle = state_at(params, 5, 0, 0)
        assert costs[Action.SLEEP, pending] == 1
        assert costs[Action.PUSH, pending] == 1
        assert costs[Action.UNICAST, pending] == 0
        assert costs[Action.SLEEP, idle] == 0

    def test_tables_match_pointwise(self):
        params, _, grid, _ = make_scenario(e_max=5, n_contents=3, m_rings=2)
        fmask = feasible_table(params, grid)
        ctable = stage_cost_table(params)
        for idx, (e, q, c) in enumerate(zip(*state_table(params))):
            acts = reference_feasible_actions(e, q, c, grid, params)
            for a in Action:
                assert fmask[a, idx] == (a in acts)
                assert ctable[a, idx] == reference_stage_cost(q, a)

    @pytest.mark.parametrize("grid_rings", [3, 1], ids=["wider", "narrower"])
    def test_ring_count_mismatch_raises(self, grid_rings):
        # num_rings and the grid's ring count come from one config key in the
        # CLI, but a library caller passes them apart
        params, arrival, _, popularity = make_scenario(e_max=4, n_contents=3, m_rings=2)
        grid = calibrate_radio(grid_rings, 2.0, 50.0)
        policy = PolicyTable.all_sleep(params.num_states)
        config = SimConfig(policy, horizon=10, seed=0, warmup=0)
        message = f"num_rings is 2 but the grid has {grid_rings} rings"
        for call in (
            lambda: feasible_table(params, grid),
            lambda: build_kernel(params, grid, popularity, arrival),
            lambda: simulate(config, params, grid),
            lambda: unicast_priority_table(params, grid),
        ):
            with pytest.raises(ValueError, match=message):
                call()


class TestBatteryUpdate:
    # row level - spent of the energy table puts the mass of a arrivals at
    # min(capacity, level - spent + a)
    arr = ArrivalPmf.poisson(0.8, 15)

    def test_cap_and_floor(self):
        table = energy_table(self.arr, 15)
        row = table[10 - 4]
        assert row[6] == self.arr.probs[0]
        assert np.all(row[:6] == 0.0)
        # 5 or more arrivals, 100 among them, fill the battery
        assert table[10 - 0][15] == 1.0 - math.fsum(self.arr.probs[:5])
        assert table[0 - 0][3] == self.arr.probs[3]


class TestParamsValidation:
    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            default_params(content_replace_prob=1.5)
        with pytest.raises(ValueError):
            default_params(request_prob=-0.1)

    def test_degenerate_sizes_allowed(self):
        p = default_params(num_contents=0, battery_levels=0, num_rings=1)
        assert p.num_states == 2

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            default_params(num_contents=-1)
        with pytest.raises(ValueError):
            default_params(num_rings=0)
