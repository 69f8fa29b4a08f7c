"""Replica placement: bin-packing model replicas onto fleet chips.

Each chip is one MAICC array of ``array_size`` cores; a replica of a
model owns a fixed partition share (its profile's ``cores``, floored at
the scheduler's ``minimum_cores`` — the capacity floor below which the
mapping pipeline cannot place the network at all).  Placement is
first-fit decreasing over replica core sizes with two hard rules:

* at most one replica of a model per chip (a second co-located replica
  would share the partition, not add capacity);
* every replica owns a contiguous core range of its chip; the ranges
  never overlap and never run past ``array_size`` (a new replica takes
  the lowest free range that fits, so holes left by removals refill).

When the models carry real networks, :func:`preflight_placement` re-runs
the co-residency PLAN-rule analysis (:func:`repro.analysis.analyze_plan`)
per chip over the actual segment plans — the same admission gate the
single-chip serving policies apply — so a fleet layout that would be
rejected on one chip is rejected before any sim-time is spent.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import PlanVerificationError, SimulationError
from repro.fleet.profiles import ModelProfile
from repro.nn.workloads import NetworkSpec


@dataclass(frozen=True)
class ReplicaAssignment:
    """One model replica living on one chip."""

    model: str
    chip: int
    cores: int
    region_start: int


@dataclass
class FleetPlacement:
    """The replica map of a fleet: who lives where, with what share.

    One store — each chip's replicas by model, in placement order — plus
    a derived index from each model to its ascending host chips.  Every
    write (:meth:`add`, :meth:`remove`, :meth:`evict_chip`) updates both,
    so reads cost O(replicas of the model or chip), never O(fleet).
    """

    array_size: int
    n_chips: int
    _by_chip: Dict[int, Dict[str, ReplicaAssignment]] = field(
        default_factory=dict, init=False, repr=False
    )
    _hosts: Dict[str, List[int]] = field(
        default_factory=dict, init=False, repr=False
    )

    def chips_of(self, model: str) -> List[int]:
        """Chips hosting a replica of ``model``, ascending."""
        return list(self._hosts.get(model, ()))

    def on_chip(self, chip: int) -> List[ReplicaAssignment]:
        """The replicas on ``chip``, in placement order."""
        return list(self._by_chip.get(chip, {}).values())

    def used_cores(self, chip: int) -> int:
        return sum(a.cores for a in self._by_chip.get(chip, {}).values())

    def free_cores(self, chip: int) -> int:
        return self.array_size - self.used_cores(chip)

    def replica_count(self, model: str) -> int:
        return len(self._hosts.get(model, ()))

    def _gaps(self, chip: int) -> List[Tuple[int, int]]:
        """Free core ranges of ``chip`` as ``(start, size)``, ascending."""
        gaps: List[Tuple[int, int]] = []
        cursor = 0
        for a in sorted(
            self._by_chip.get(chip, {}).values(), key=lambda a: a.region_start
        ):
            if a.region_start > cursor:
                gaps.append((cursor, a.region_start - cursor))
            cursor = a.region_start + a.cores
        if cursor < self.array_size:
            gaps.append((cursor, self.array_size - cursor))
        return gaps

    def largest_gap(self, chip: int) -> int:
        """The biggest contiguous free range of ``chip`` (its fit limit).

        Equals :meth:`free_cores` unless a removal left a hole.
        """
        return max((size for _, size in self._gaps(chip)), default=0)

    def add(self, model: str, chip: int, cores: int) -> ReplicaAssignment:
        """Place one more replica (validates the two hard rules).

        The replica takes the lowest free core range that fits, so a
        remove followed by an add never overlaps a live replica.
        """
        if not 0 <= chip < self.n_chips:
            raise SimulationError(f"chip {chip} outside fleet of {self.n_chips}")
        if model in self._by_chip.get(chip, {}):
            raise SimulationError(
                f"chip {chip} already hosts a replica of {model!r}"
            )
        start = next(
            (start for start, size in self._gaps(chip) if size >= cores), None
        )
        if start is None:
            raise SimulationError(
                f"replica of {model!r} needs {cores} cores; chip {chip} "
                f"has {self.free_cores(chip)} free (largest contiguous "
                f"range {self.largest_gap(chip)})"
            )
        assignment = ReplicaAssignment(
            model=model, chip=chip, cores=cores, region_start=start
        )
        self._by_chip.setdefault(chip, {})[model] = assignment
        bisect.insort(self._hosts.setdefault(model, []), chip)
        return assignment

    def remove(self, model: str, chip: int) -> None:
        residents = self._by_chip.get(chip, {})
        if model not in residents:
            raise SimulationError(
                f"no replica of {model!r} on chip {chip} to remove"
            )
        del residents[model]
        self._hosts[model].remove(chip)

    def evict_chip(self, chip: int) -> List[ReplicaAssignment]:
        """Drop every replica of a crashed chip; returns what was lost."""
        lost = list(self._by_chip.pop(chip, {}).values())
        for a in lost:
            self._hosts[a.model].remove(chip)
        return lost

    def as_dict(self) -> Dict[str, object]:
        return {
            "array_size": self.array_size,
            "chips": self.n_chips,
            "replicas": [
                {
                    "model": a.model,
                    "chip": a.chip,
                    "cores": a.cores,
                    "region_start": a.region_start,
                }
                for chip in sorted(self._by_chip)
                for a in sorted(
                    self._by_chip[chip].values(), key=lambda a: a.region_start
                )
            ],
        }


def place_replicas(
    profiles: Mapping[str, ModelProfile],
    replicas: Mapping[str, int],
    n_chips: int,
    array_size: int,
) -> FleetPlacement:
    """First-fit-decreasing bin-pack of the requested replica counts.

    Replica units sort by core share descending (big partitions first —
    the classic FFD heuristic), then by model name for determinism; each
    unit lands on the first chip with room that does not already host
    the model.  Raises when the fleet cannot hold the layout.
    """
    if n_chips < 1:
        raise SimulationError(f"fleet needs >= 1 chip, got {n_chips}")
    placement = FleetPlacement(array_size=array_size, n_chips=n_chips)
    units: List[Tuple[int, str]] = []
    for model in sorted(replicas):
        count = replicas[model]
        profile = profiles.get(model)
        if profile is None:
            raise SimulationError(f"no profile for model {model!r}")
        if count < 1:
            raise SimulationError(
                f"model {model!r} needs >= 1 replica, got {count}"
            )
        if count > n_chips:
            raise SimulationError(
                f"model {model!r} wants {count} replicas on {n_chips} chips "
                "(max one replica per chip)"
            )
        if profile.cores < profile.min_cores:
            raise SimulationError(
                f"model {model!r} share {profile.cores} is below its "
                f"capacity floor of {profile.min_cores} cores"
            )
        if profile.cores > array_size:
            raise SimulationError(
                f"model {model!r} share {profile.cores} exceeds the "
                f"{array_size}-core array"
            )
        units.extend((profile.cores, model) for _ in range(count))
    units.sort(key=lambda u: (-u[0], u[1]))
    for cores, model in units:
        hosts = set(placement.chips_of(model))
        target = next(
            (
                chip
                for chip in range(n_chips)
                if chip not in hosts and placement.largest_gap(chip) >= cores
            ),
            None,
        )
        if target is None:
            raise SimulationError(
                f"cannot place replica of {model!r} ({cores} cores): no "
                f"chip has room (fleet of {n_chips} x {array_size} cores)"
            )
        placement.add(model, target, cores)
    return placement


def best_chip_for(
    placement: FleetPlacement,
    model: str,
    cores: int,
    *,
    exclude: Sequence[int] = (),
) -> Optional[int]:
    """The most-free chip that can host one more replica of ``model``.

    Ties break to the lowest chip id; ``None`` when no chip fits.  Used
    by the autoscaler (scale-up) and by crash re-placement.
    """
    hosts = set(placement.chips_of(model))
    banned = hosts | set(exclude)
    candidates = [
        chip
        for chip in range(placement.n_chips)
        if chip not in banned and placement.largest_gap(chip) >= cores
    ]
    if not candidates:
        return None
    return max(candidates, key=lambda chip: (placement.free_cores(chip), -chip))


def preflight_placement(
    placement: FleetPlacement,
    networks: Mapping[str, NetworkSpec],
    service: "object",
) -> None:
    """Per-chip PLAN-rule co-residency admission of the placed layout.

    ``service`` is a :class:`~repro.serving.service.ServiceModel`; every
    plan lookup hits its memo (profiling already simulated each
    (network, cores) point).  Raises
    :class:`~repro.errors.PlanVerificationError` naming the first chip
    whose layout fails.
    """
    from repro.analysis.plan import ResidentPlan
    from repro.analysis.system import analyze_plan
    from repro.sim.config import SimConfig

    for chip in range(placement.n_chips):
        assignments = sorted(
            placement.on_chip(chip), key=lambda a: a.region_start
        )
        if not assignments:
            continue
        residents = [
            ResidentPlan(
                name=a.model,
                plan=service.partition_run(  # type: ignore[attr-defined]
                    networks[a.model], a.cores
                ).plan,
                region_start=a.region_start,
            )
            for a in assignments
        ]
        report = analyze_plan(
            co_resident=residents,
            config=SimConfig(array_size=placement.array_size),
            families=("plan",),
        )
        if not report.ok:
            raise PlanVerificationError(
                f"fleet placement rejected on chip {chip}:\n"
                + report.render(),
                report,
            )


__all__ = [
    "FleetPlacement",
    "ReplicaAssignment",
    "best_chip_for",
    "place_replicas",
    "preflight_placement",
]
