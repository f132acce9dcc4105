from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from batchsim.billing import (
    Ledger,
    MeterEvent,
    ServiceCategory,
    counterfactual,
    export_tsv,
    meter_egress,
    meter_vm,
    render_report,
    report,
    usd_str,
)
from batchsim.catalog import PricingPlan, default_catalog
from batchsim.errors import ValidationError

CATALOG = default_catalog()

# Table of recorded service charges used by the reporting tests
CHARGE_ITEMS = (
    (ServiceCategory.BANDWIDTH, "46.85"),
    (ServiceCategory.DATA_MANAGEMENT, "0.56"),
    (ServiceCategory.NETWORKING, "1.38"),
    (ServiceCategory.STORAGE, "25.93"),
    (ServiceCategory.VIRTUAL_MACHINES, "20582.64"),
)


def _charge_ledger():
    ledger = Ledger(CATALOG)
    for category, usd in CHARGE_ITEMS:
        ledger.add(MeterEvent(category, Fraction(Decimal(usd)), usd, (0.0, 0.0)))
    return ledger


def test_meter_vm_two_nodes_seven_hours():
    usd = meter_vm(CATALOG, "NC24r", PricingPlan.PAYGO_DEDICATED, 2 * 7 * 3600)
    assert usd == Fraction(Decimal("55.44"))


def test_meter_vm_two_nodes_136_hours():
    usd = meter_vm(CATALOG, "NC24r", PricingPlan.PAYGO_DEDICATED, 2 * 136 * 3600)
    assert usd == Fraction(Decimal("1077.12"))


def test_meter_vm_zero_seconds():
    assert meter_vm(CATALOG, "NC24r", PricingPlan.PAYGO_DEDICATED, 0) == 0


def test_meter_vm_unknown_sku():
    with pytest.raises(ValidationError, match="^SKU not in catalog: 'XYZ'$"):
        meter_vm(CATALOG, "XYZ", PricingPlan.PAYGO_DEDICATED, 10)


def test_meter_vm_rejects_negative():
    with pytest.raises(ValueError):
        meter_vm(CATALOG, "NC6", PricingPlan.PAYGO_DEDICATED, -1)


@given(a=st.integers(min_value=0, max_value=10**9), b=st.integers(min_value=0, max_value=10**9))
def test_pro_rata_linearity_exact(a, b):
    plan = PricingPlan.RESERVED_3YR  # non-terminating decimal rate / 3600
    total = meter_vm(CATALOG, "NC24r", plan, a + b)
    parts = meter_vm(CATALOG, "NC24r", plan, a) + meter_vm(CATALOG, "NC24r", plan, b)
    assert total == parts


@given(seconds=st.integers(min_value=1, max_value=10**7),
       sku=st.sampled_from([s.name for s in CATALOG.skus]))
def test_plan_monotonicity(seconds, sku):
    r3 = meter_vm(CATALOG, sku, PricingPlan.RESERVED_3YR, seconds)
    r1 = meter_vm(CATALOG, sku, PricingPlan.RESERVED_1YR, seconds)
    paygo = meter_vm(CATALOG, sku, PricingPlan.PAYGO_DEDICATED, seconds)
    assert r3 <= r1 <= paygo


def _vm_ledger(node_seconds):
    ledger = Ledger(CATALOG)
    ledger.add_vm("NC24r", PricingPlan.PAYGO_DEDICATED, node_seconds, "run", (0.0, 0.0))
    return ledger


def test_counterfactual_snake2d():
    ledger = _vm_ledger(2 * 7 * 3600)
    usd = counterfactual(ledger, PricingPlan.RESERVED_3YR)
    assert usd == Fraction(Decimal("24.6092"))


def test_counterfactual_snake3d():
    ledger = _vm_ledger(2 * 136 * 3600)
    usd = counterfactual(ledger, PricingPlan.RESERVED_3YR)
    assert usd == Fraction(Decimal("478.1216"))


def test_counterfactual_same_plan_is_identity():
    ledger = _vm_ledger(2 * 7 * 3600)
    ledger.add_egress(5 * 2**30, "download", (1.0, 1.0))
    assert counterfactual(ledger, PricingPlan.PAYGO_DEDICATED) == ledger.total()


def test_counterfactual_does_not_mutate():
    ledger = _vm_ledger(3600)
    before = ledger.total()
    counterfactual(ledger, PricingPlan.RESERVED_3YR)
    assert ledger.total() == before
    assert len(ledger.items) == 1


def test_report_percentages_match_item_sum_denominator():
    rows = {r.category: r for r in report(_charge_ledger())}
    total = sum(Fraction(Decimal(v)) for _, v in CHARGE_ITEMS)
    expected_vm = float(Fraction(Decimal("20582.64")) / total * 100)
    assert rows[ServiceCategory.VIRTUAL_MACHINES].percent == pytest.approx(expected_vm)
    assert rows[ServiceCategory.VIRTUAL_MACHINES].percent == pytest.approx(99.64, abs=0.005)
    assert rows[ServiceCategory.BANDWIDTH].percent == pytest.approx(0.227, abs=0.001)
    # the recorded Storage share disagrees with the printed 0.16; we report the computed value
    assert rows[ServiceCategory.STORAGE].percent == pytest.approx(0.1255, abs=0.001)


def test_report_single_item_is_100_percent():
    ledger = _vm_ledger(3600)
    rows = report(ledger)
    assert len(rows) == 1
    assert rows[0].percent == pytest.approx(100.0)


def test_report_empty_ledger():
    assert report(Ledger(CATALOG)) == []


def test_meter_event_rejects_negative():
    with pytest.raises(ValueError):
        MeterEvent(ServiceCategory.STORAGE, Fraction(-1), "bad", (0.0, 0.0))


def test_meter_egress_default_rate():
    assert meter_egress(2**30) == Fraction(Decimal("0.087"))
    assert meter_egress(0) == 0


def test_ledger_append_only_view():
    ledger = _vm_ledger(3600)
    items = ledger.items
    assert isinstance(items, tuple)


def test_usd_str_and_tsv_stable():
    ledger = _vm_ledger(2 * 7 * 3600)
    assert usd_str(ledger.total(), 2) == "55.44"
    first = export_tsv(ledger)
    assert first == export_tsv(ledger)
    assert first.startswith("category\tusd\tdescription\tstart\tend\n")
    assert "Virtual Machines\t55.44\t" in first


def test_render_report_layout():
    text = render_report(report(_charge_ledger()))
    assert text.startswith("service\tusd\tpercent\n")
    assert "Virtual Machines\t20,582.64\t99.6" in text
