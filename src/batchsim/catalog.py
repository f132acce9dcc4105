"""Static catalog of instance types, hourly prices, and per-region quotas.

Rates are stored as exact 4-decimal values (decimal.Decimal) so that billing
stays bit-exact. The catalog is immutable after construction; quota state
lives in a separate mutable table owned by the service.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from decimal import Decimal

from .errors import ValidationError


class PricingPlan(enum.Enum):
    PAYGO_DEDICATED = "paygo_dedicated"
    PAYGO_LOW_PRIORITY = "paygo_low_priority"
    RESERVED_1YR = "reserved_1yr"
    RESERVED_3YR = "reserved_3yr"


@dataclass(frozen=True)
class SkuSpec:
    name: str
    vcores: int
    ram_gib: int
    ssd_gib: int
    gpu_count: int
    gpu_model: str
    rdma_capable: bool
    region_availability: frozenset[str]
    prices: dict[PricingPlan, Decimal] = field(hash=False)  # each rate positive


@dataclass
class RegionQuota:
    """A region's cores; what `available_quota` leaves is below 0 where a quota was lowered
    under the cores its pools use. Every table of them is keyed by region."""
    dedicated_cores: int
    low_priority_cores: int


DEFAULT_DEDICATED_QUOTA = 24
DEFAULT_LOW_PRIORITY_QUOTA = 24


class Catalog:
    """Immutable SKU and price lookup with default per-region quotas."""

    def __init__(self, skus: list[SkuSpec], default_quotas: dict[str, RegionQuota]):
        self._skus = {s.name: s for s in skus}
        self._quotas = dict(default_quotas)

    def lookup(self, name: str) -> SkuSpec:
        try:
            return self._skus[name]
        except KeyError:
            raise ValidationError(f"SKU not in catalog: {name!r}") from None

    @property
    def skus(self) -> tuple[SkuSpec, ...]:
        return tuple(self._skus.values())

    @property
    def regions(self) -> tuple[str, ...]:
        return tuple(self._quotas)

    def default_quotas(self) -> dict[str, RegionQuota]:
        """A copy of each region's default quota, which its caller may change."""
        return {r: RegionQuota(q.dedicated_cores, q.low_priority_cores)
                for r, q in self._quotas.items()}


def _sku(name, vcores, ram, ssd, gpus, gpu_model, rdma, regions, ded, low, r1, r3):
    return SkuSpec(
        name=name,
        vcores=vcores,
        ram_gib=ram,
        ssd_gib=ssd,
        gpu_count=gpus,
        gpu_model=gpu_model,
        rdma_capable=rdma,
        region_availability=frozenset(regions),
        prices={
            PricingPlan.PAYGO_DEDICATED: Decimal(ded),
            PricingPlan.PAYGO_LOW_PRIORITY: Decimal(low),
            PricingPlan.RESERVED_1YR: Decimal(r1),
            PricingPlan.RESERVED_3YR: Decimal(r3),
        },
    )


def default_catalog() -> Catalog:
    """Catalog of the NC series plus the CPU nodes used for benchmarking.

    NC-series rates are the March 2019 East US list prices. The on-premises
    node types (Ivygpu, Short) carry nominal amortized rates so that every
    cataloged SKU/plan pair has a positive price; they exist for benchmark
    scenarios, not for cost reproduction.
    """
    azure = ["eastus"]
    onprem = ["colonial"]
    skus = [
        _sku("NC6", 6, 56, 340, 1, "K80", False, azure, "0.90", "0.18", "0.5733", "0.3996"),
        _sku("NC12", 12, 112, 680, 2, "K80", False, azure, "1.80", "0.36", "1.1466", "0.7991"),
        _sku("NC24", 24, 224, 1440, 4, "K80", False, azure, "3.60", "0.72", "2.2932", "1.5981"),
        # gpu_count 4: one K80 board carries two GPU devices, two boards per node.
        _sku("NC24r", 24, 224, 1440, 4, "K80", True, azure, "3.96", "0.792", "2.5224", "1.7578"),
        _sku("H16r", 16, 112, 2000, 0, "", True, azure, "1.80", "0.36", "1.1500", "0.7900"),
        _sku("Ivygpu", 12, 120, 93, 2, "K20", False, onprem, "1.20", "0.24", "0.8000", "0.6000"),
        _sku("Short", 16, 120, 93, 0, "", False, onprem, "0.90", "0.18", "0.6000", "0.4500"),
    ]
    quotas = {
        region: RegionQuota(DEFAULT_DEDICATED_QUOTA, DEFAULT_LOW_PRIORITY_QUOTA)
        for region in ("eastus", "colonial")
    }
    return Catalog(skus, quotas)
