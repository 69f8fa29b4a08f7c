"""Differential properties: the router's indexed fast paths against the
full scans they replace.

* ``FleetPlacement``'s per-chip store and per-model index against a flat
  list of assignments scanned on every read;
* ``ClusterRouter.live_candidates``'s cached tuples against the list
  comprehension over the placement, including queries back in time;
* ``LeastLoadedBalancer.choose``'s single loop against
  ``min(candidates, key=lambda c: (tracker.load_ms(c, t), c))``;
* the router's precomputed degradation schedules against a re-sorted
  step scan.
"""

from typing import List

import pytest

from repro.errors import SimulationError
from repro.fleet.balancing import FluidLoadTracker, make_balancer
from repro.fleet.failures import ChipDegradation, FailureScenario, factor_at
from repro.fleet.placement import FleetPlacement, ReplicaAssignment
from repro.fleet.profiles import fixed_profile
from repro.fleet.router import ClusterRouter, RoutingResult

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

ARRAY = 210
CHIPS = 6
MODELS = ("a", "b", "c", "d")


class FlatPlacement:
    """The pre-index placement: one list, every read a full scan."""

    def __init__(self) -> None:
        self.assignments: List[ReplicaAssignment] = []

    def chips_of(self, model):
        return sorted(a.chip for a in self.assignments if a.model == model)

    def on_chip(self, chip):
        return [a for a in self.assignments if a.chip == chip]

    def used_cores(self, chip):
        return sum(a.cores for a in self.on_chip(chip))

    def free_cores(self, chip):
        return ARRAY - self.used_cores(chip)

    def lowest_fit(self, chip, cores):
        cursor = 0
        for a in sorted(self.on_chip(chip), key=lambda a: a.region_start):
            if a.region_start - cursor >= cores:
                return cursor
            cursor = a.region_start + a.cores
        return cursor if ARRAY - cursor >= cores else None


placement_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.sampled_from(MODELS),
            st.integers(0, CHIPS - 1),
            st.sampled_from((30, 64, 96, 128)),
        ),
        st.tuples(
            st.just("remove"),
            st.sampled_from(MODELS),
            st.integers(0, CHIPS - 1),
        ),
        st.tuples(st.just("evict"), st.integers(0, CHIPS - 1)),
    ),
    max_size=60,
)


class TestPlacementIndex:
    @settings(max_examples=150, deadline=None)
    @given(placement_ops)
    def test_index_matches_flat_scan(self, ops):
        placement = FleetPlacement(array_size=ARRAY, n_chips=CHIPS)
        flat = FlatPlacement()
        for op in ops:
            if op[0] == "add":
                _, model, chip, cores = op
                start = flat.lowest_fit(chip, cores)
                if chip in flat.chips_of(model) or start is None:
                    with pytest.raises(SimulationError):
                        placement.add(model, chip, cores)
                    continue
                got = placement.add(model, chip, cores)
                assert got == ReplicaAssignment(model, chip, cores, start)
                flat.assignments.append(got)
            elif op[0] == "remove":
                _, model, chip = op
                if chip not in flat.chips_of(model):
                    with pytest.raises(SimulationError):
                        placement.remove(model, chip)
                    continue
                placement.remove(model, chip)
                flat.assignments = [
                    a for a in flat.assignments
                    if not (a.model == model and a.chip == chip)
                ]
            else:
                chip = op[1]
                assert placement.evict_chip(chip) == flat.on_chip(chip)
                flat.assignments = [
                    a for a in flat.assignments if a.chip != chip
                ]
            for model in MODELS:
                assert placement.chips_of(model) == flat.chips_of(model)
                assert placement.replica_count(model) == len(
                    flat.chips_of(model)
                )
            for chip in range(CHIPS):
                assert placement.on_chip(chip) == flat.on_chip(chip)
                assert placement.used_cores(chip) == flat.used_cores(chip)
                assert placement.free_cores(chip) == flat.free_cores(chip)
                # Core ranges stay disjoint and inside the array.
                cursor = 0
                for a in sorted(flat.on_chip(chip), key=lambda a: a.region_start):
                    assert a.region_start >= cursor
                    cursor = a.region_start + a.cores
                assert cursor <= ARRAY


def old_live(router, model, now_ms):
    return [
        chip
        for chip in router.placement.chips_of(model)
        if chip not in router._crashed
        and router._ready_ms.get((model, chip), 0.0) <= now_ms
    ]


#: Few chips, so crashes also exhaust re-placement targets.
ROUTER_CHIPS = 3

router_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.sampled_from(MODELS[:2]),
            st.integers(0, ROUTER_CHIPS - 1),
            st.floats(0.0, 50.0),
        ),
        st.tuples(
            st.just("remove"),
            st.sampled_from(MODELS[:2]),
            st.integers(0, ROUTER_CHIPS - 1),
            st.floats(0.0, 50.0),
        ),
        st.tuples(
            st.just("crash"),
            st.integers(0, ROUTER_CHIPS - 1),
            st.floats(0.0, 50.0),
        ),
        st.tuples(
            st.just("query"),
            st.sampled_from(MODELS[:2]),
            st.floats(-5.0, 80.0),
        ),
    ),
    max_size=80,
)


class TestLiveCandidatesCache:
    @settings(max_examples=150, deadline=None)
    @given(router_ops, st.sampled_from((0.0, 2.0, 7.5)))
    def test_cache_matches_list_comprehension(self, ops, restage_ms):
        profiles = {
            m: fixed_profile(m, 1.0, cores=64, restage_ms=restage_ms + i)
            for i, m in enumerate(MODELS[:2])
        }
        placement = FleetPlacement(array_size=ARRAY, n_chips=ROUTER_CHIPS)
        placement.add("a", 0, 64)
        placement.add("b", 1, 64)
        tracker = FluidLoadTracker()
        router = ClusterRouter(
            placement, profiles, make_balancer("least-loaded", tracker), tracker
        )
        result = RoutingResult()
        for op in ops:
            kind = op[0]
            try:
                if kind == "add":
                    router.add_replica(op[1], op[2], op[3])
                elif kind == "remove":
                    router.remove_replica(op[1], op[2], op[3])
                elif kind == "crash":
                    router.crash_chip(op[1], op[2], result)
            except SimulationError:
                pass
            if kind == "query":
                model, t = op[1], op[2]
                # Ask twice so the second answer comes from the cache.
                for _ in range(2):
                    got = router.live_candidates(model, t)
                    assert isinstance(got, tuple)
                    assert list(got) == old_live(router, model, t)
            # Forward and back in time; ending where the next op's check
            # starts, so a write that fails to clear the cache is caught.
            for model in MODELS[:2]:
                for t in (3.0, 60.0, 10.0, 0.0, -1.0, 3.0):
                    assert list(router.live_candidates(model, t)) == old_live(
                        router, model, t
                    )


class TestLeastLoadedScan:
    @settings(max_examples=300, deadline=None)
    @given(
        adds=st.lists(
            st.tuples(
                st.integers(0, 7),
                st.sampled_from((0.0, 1.0, 2.5, 4.0)),
                st.sampled_from((0.0, 0.0, 0.5, 1.0, 3.0)),
            ),
            max_size=20,
        ),
        speeds=st.dictionaries(
            st.integers(0, 7), st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.0))
        ),
        candidates=st.lists(
            st.integers(0, 7), min_size=1, max_size=8, unique=True
        ),
        now=st.sampled_from((0.0, 1.0, 2.5, 3.0, 4.0, 9.0)),
    )
    def test_choice_matches_min_over_load_then_chip(
        self, adds, speeds, candidates, now
    ):
        tracker = FluidLoadTracker()
        tracker.speed.update(speeds)
        for chip, at, est in adds:
            tracker.add(chip, at, est)
        candidates = sorted(candidates)
        balancer = make_balancer("least-loaded", tracker)
        expected = min(candidates, key=lambda c: (tracker.load_ms(c, now), c))
        assert balancer.choose("m", tuple(candidates), now) == expected

    def test_zero_load_ties_go_to_the_lowest_chip(self):
        tracker = FluidLoadTracker()
        balancer = make_balancer("least-loaded", tracker)
        assert balancer.choose("m", (2, 5, 7), 0.0) == 2

    def test_no_candidates_raises(self):
        balancer = make_balancer("least-loaded", FluidLoadTracker())
        with pytest.raises(SimulationError, match="no candidate"):
            balancer.choose("m", (), 0.0)


def old_factor(failures, chip, now_ms):
    factor = 1.0
    steps = sorted(
        (d.from_ms, d.factor) for d in failures.degradations if d.chip == chip
    )
    for from_ms, step in steps:
        if from_ms <= now_ms:
            factor = step
        else:
            break
    return factor


class TestDegradationSchedules:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.sampled_from((0.0, 5.0, 10.0, 20.0)),
                st.sampled_from((0.5, 1.5, 2.0, 4.0)),
            ),
            max_size=8,
        )
    )
    def test_precomputed_schedule_matches_resorted_scan(self, steps):
        failures = FailureScenario(
            degradations=[
                ChipDegradation(chip=c, from_ms=f, factor=x) for c, f, x in steps
            ]
        )
        placement = FleetPlacement(array_size=ARRAY, n_chips=4)
        tracker = FluidLoadTracker()
        router = ClusterRouter(
            placement,
            {},
            make_balancer("least-loaded", tracker),
            tracker,
            failures=failures,
        )
        for chip in range(4):
            for t in (0.0, 4.9, 5.0, 12.0, 20.0, 99.0):
                assert factor_at(router._schedules[chip], t) == old_factor(
                    failures, chip, t
                )
