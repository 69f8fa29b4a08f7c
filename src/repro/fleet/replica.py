"""The per-chip serving policy of a fleet run: profile-driven replicas.

One chip hosts at most one replica per model; each replica is its own
spatial partition (server), sized by its
:class:`~repro.fleet.profiles.ModelProfile`.  The policy is pure plain
data — every service time, batch interpolation, and phase split was
pre-computed on the coordinator — so worker processes deserialize it
cheaply and the chip's event loop never touches the chip model.

Chip-level degradation (a slow chip, a partial-mesh fault) is a step
function of sim time threaded through
:meth:`~repro.serving.policies.ServingPolicy.service_scale`: every
service window dispatched at ``t`` is multiplied by the factor of the
last step at or before ``t``.  An empty schedule is bit-identical to the
healthy chip (the dispatch path skips the multiply at exactly 1.0).
"""

from __future__ import annotations

from typing import List, Mapping, Sequence, Tuple

from repro.errors import SimulationError
from repro.fleet.failures import factor_at
from repro.fleet.profiles import ModelProfile
from repro.obs.timeline import PhaseSpec
from repro.serving.policies import ServingPolicy
from repro.serving.tenancy import TenantSpec

#: ``(from_ms, factor)`` — service times multiply by ``factor`` from
#: ``from_ms`` until the next step.  Sorted ascending by ``from_ms``.
DegradationStep = Tuple[float, float]


class ReplicaPolicy(ServingPolicy):
    """Scripted-by-profile serving of one chip's model replicas."""

    name = "replica"

    def __init__(
        self,
        profiles: Mapping[str, ModelProfile],
        *,
        degradation: Sequence[DegradationStep] = (),
    ) -> None:
        super().__init__()
        self.profiles = dict(profiles)
        steps = sorted(degradation)
        for _, factor in steps:
            if factor <= 0:
                raise SimulationError(
                    f"degradation factor must be positive, got {factor}"
                )
        self._steps = tuple(steps)

    def prepare(self, tenants: Sequence[TenantSpec]) -> None:
        for tenant in tenants:
            profile = self.profiles.get(tenant.name)
            if profile is None:
                raise SimulationError(
                    f"no replica profile for tenant {tenant.name!r}"
                )
            self._servers[tenant.name] = tenant.name
            self._service_ms[tenant.name] = profile.service_ms
            self._shares[tenant.name] = profile.cores

    def batched_service_ms(self, tenant: str, count: int) -> float:
        return self.profiles[tenant].batched_service_ms(count)

    def service_scale(self, now_ms: float) -> float:
        return factor_at(self._steps, now_ms)

    def service_phases(self, tenant: str, count: int = 1) -> List[PhaseSpec]:
        # Staging-category phases are paid once per dispatch; everything
        # else scales with the batch (ratios only — the serving loop
        # normalizes onto the billed window).
        profile = self.profiles[tenant]
        return [
            PhaseSpec(
                name,
                category,
                weight if (category == "staging" or count == 1) else weight * count,
            )
            for name, category, weight in profile.phases
        ]
