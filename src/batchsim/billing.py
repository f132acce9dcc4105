"""Meter accumulation and cost reporting by service category.

Money is carried as exact rationals (fractions.Fraction built from the
catalog's Decimal rates), which makes per-second pro-rata metering exactly
linear: meter_vm(s, p, a + b) == meter_vm(s, p, a) + meter_vm(s, p, b).
Rounding happens only when a report or export is rendered.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction
from typing import Optional, Union

from .catalog import Catalog, PricingPlan

Seconds = Union[int, float, Fraction]

# The one egress rate, an invented plumbing value: the source table reports a
# Bandwidth line item without unit prices.
EGRESS_USD_PER_GIB = Decimal("0.087")
GIB = 2**30


class ServiceCategory(enum.Enum):
    BANDWIDTH = "Bandwidth"
    DATA_MANAGEMENT = "Data Management"
    NETWORKING = "Networking"
    STORAGE = "Storage"
    VIRTUAL_MACHINES = "Virtual Machines"


@dataclass(frozen=True)
class MeterEvent:
    category: ServiceCategory
    usd: Fraction
    description: str
    interval: tuple[float, float]
    sku: Optional[str] = None
    node_seconds: Optional[Fraction] = None

    def __post_init__(self):
        if self.usd < 0:
            raise ValueError("meter events are non-negative")


def meter_vm(catalog: Catalog, sku: str, plan: PricingPlan, node_seconds: Seconds) -> Fraction:
    """Pro-rata per-second charge: rate * node_seconds / 3600, exact."""
    seconds = Fraction(node_seconds)
    if seconds < 0:
        raise ValueError("seconds must be non-negative")
    return Fraction(catalog.lookup(sku).prices[plan]) * seconds / 3600


def meter_egress(transfer_bytes: int) -> Fraction:
    return Fraction(EGRESS_USD_PER_GIB) * Fraction(transfer_bytes, GIB)


class Ledger:
    """Append-only list of meter events, priced from one catalog."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._items: list[MeterEvent] = []

    @property
    def items(self) -> tuple[MeterEvent, ...]:
        return tuple(self._items)

    def add(self, item: MeterEvent):
        self._items.append(item)

    def add_vm(self, sku: str, plan: PricingPlan, node_seconds: Seconds,
               description: str, interval: tuple[float, float]) -> MeterEvent:
        item = MeterEvent(
            category=ServiceCategory.VIRTUAL_MACHINES,
            usd=meter_vm(self.catalog, sku, plan, node_seconds),
            description=description,
            interval=interval,
            sku=sku,
            node_seconds=Fraction(node_seconds),
        )
        self.add(item)
        return item

    def add_egress(self, transfer_bytes: int, description: str,
                   interval: tuple[float, float]) -> MeterEvent:
        item = MeterEvent(
            category=ServiceCategory.BANDWIDTH,
            usd=meter_egress(transfer_bytes),
            description=description,
            interval=interval,
        )
        self.add(item)
        return item

    def total(self) -> Fraction:
        return sum((i.usd for i in self._items), Fraction(0))

    def vm_total(self) -> Fraction:
        vm = ServiceCategory.VIRTUAL_MACHINES
        return sum((i.usd for i in self._items if i.category is vm), Fraction(0))


def counterfactual(ledger: Ledger, plan: PricingPlan) -> Fraction:
    """Re-price recorded VM usage under `plan` without mutating the ledger.

    Non-VM items are plan-independent and carried at their recorded cost, so
    re-pricing under the original plan reproduces the ledger total exactly.
    """
    total = Fraction(0)
    for item in ledger.items:
        if item.category is ServiceCategory.VIRTUAL_MACHINES:
            total += meter_vm(ledger.catalog, item.sku, plan, item.node_seconds)
        else:
            total += item.usd
    return total


@dataclass(frozen=True)
class ReportRow:
    category: ServiceCategory
    usd: Fraction
    percent: float


def report(items) -> list[ReportRow]:
    """Line items summed per category with each category's share of the total.

    The percentage denominator is the item sum itself, not a separately
    stored grand total. Accepts a Ledger or an iterable of MeterEvents.
    """
    if isinstance(items, Ledger):
        items = items.items
    totals: dict[ServiceCategory, Fraction] = {}
    for item in items:
        totals[item.category] = totals.get(item.category, Fraction(0)) + item.usd
    denom = sum(totals.values(), Fraction(0))
    rows = []
    for category in ServiceCategory:
        if category not in totals:
            continue
        usd = totals[category]
        pct = float(usd / denom * 100) if denom else 0.0
        rows.append(ReportRow(category, usd, pct))
    return rows


def _context_for(value: Fraction, places: int):
    """A decimal context for `value` to `places` decimals: the default one of 28 digits, or
    one of as many as its integer part needs beside them."""
    ctx = getcontext().copy()
    ctx.prec = max(ctx.prec, len(str(value.numerator // value.denominator)) + places)
    return localcontext(ctx)


def usd_str(value: Fraction, places: int = 10) -> str:
    """Deterministic decimal rendering used by exports and reports."""
    with _context_for(value, places):
        quant = Decimal(value.numerator) / Decimal(value.denominator)
        return str(quant.quantize(Decimal(1).scaleb(-places)).normalize())


def render_report(rows: list[ReportRow]) -> str:
    lines = ["service\tusd\tpercent"]
    for row in rows:
        with _context_for(row.usd, 2):
            usd = Decimal(row.usd.numerator) / Decimal(row.usd.denominator)
            usd = usd.quantize(Decimal("0.01"))
        lines.append(f"{row.category.value}\t{usd:,}\t{row.percent:.3g}")
    return "\n".join(lines) + "\n"


def export_tsv(ledger: Ledger) -> str:
    """Machine-readable ledger: category, usd, description, interval."""
    lines = ["category\tusd\tdescription\tstart\tend"]
    for i in ledger.items:
        lines.append(
            f"{i.category.value}\t{usd_str(i.usd)}\t{i.description}"
            f"\t{i.interval[0]:.6f}\t{i.interval[1]:.6f}"
        )
    return "\n".join(lines) + "\n"
