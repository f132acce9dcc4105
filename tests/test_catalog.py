from decimal import Decimal

import pytest

from batchsim.catalog import PricingPlan, default_catalog
from batchsim.errors import ValidationError
from batchsim.state import catalog_from_doc, catalog_to_doc

NC_SERIES = ("NC6", "NC12", "NC24", "NC24r")


@pytest.fixture(scope="module")
def catalog():
    return default_catalog()


def test_default_entries_present(catalog):
    names = {s.name for s in catalog.skus}
    assert {"NC6", "NC12", "NC24", "NC24r", "H16r", "Short", "Ivygpu"} <= names


def test_nc24r_hardware(catalog):
    sku = catalog.lookup("NC24r")
    assert sku.vcores == 24
    assert sku.gpu_count == 4
    assert sku.ram_gib == 224
    assert sku.ssd_gib == 1440


def test_nc24r_prices_exact(catalog):
    assert catalog.price_rate("NC24r", PricingPlan.PAYGO_DEDICATED) == Decimal("3.96")
    assert catalog.price_rate("NC24r", PricingPlan.PAYGO_LOW_PRIORITY) == Decimal("0.792")
    assert catalog.price_rate("NC24r", PricingPlan.RESERVED_1YR) == Decimal("2.5224")
    assert catalog.price_rate("NC24r", PricingPlan.RESERVED_3YR) == Decimal("1.7578")


def test_nc6_reserved_3yr(catalog):
    assert catalog.lookup("NC6").price(PricingPlan.RESERVED_3YR) == Decimal("0.3996")


def test_rdma_flags(catalog):
    # only the SKUs with a documented RDMA interface
    assert catalog.lookup("NC24r").rdma_capable
    assert catalog.lookup("H16r").rdma_capable
    for name in ("NC6", "NC12", "NC24", "Short", "Ivygpu"):
        assert not catalog.lookup(name).rdma_capable


def test_unknown_sku(catalog):
    with pytest.raises(ValidationError, match="^SKU not in catalog: 'XYZ'$"):
        catalog.lookup("XYZ")
    with pytest.raises(ValidationError, match="^SKU not in catalog: 'XYZ'$"):
        catalog.price_rate("XYZ", PricingPlan.PAYGO_DEDICATED)


def test_low_priority_is_fifth_of_dedicated(catalog):
    for name in NC_SERIES:
        sku = catalog.lookup(name)
        dedicated = sku.price(PricingPlan.PAYGO_DEDICATED)
        low = sku.price(PricingPlan.PAYGO_LOW_PRIORITY)
        assert abs(low - dedicated / 5) <= Decimal("0.0001")


def test_plan_ordering_every_sku(catalog):
    for sku in catalog.skus:
        assert (sku.price(PricingPlan.RESERVED_3YR)
                < sku.price(PricingPlan.RESERVED_1YR)
                < sku.price(PricingPlan.PAYGO_DEDICATED))
        assert sku.price(PricingPlan.PAYGO_LOW_PRIORITY) > 0


def test_default_quota_is_24(catalog):
    for region in catalog.regions:
        quota = catalog.default_quota(region)
        assert quota.dedicated_cores == 24


def test_document_round_trip(catalog):
    doc = catalog_to_doc(catalog)
    rebuilt = catalog_from_doc(doc)
    assert catalog_to_doc(rebuilt) == doc
    assert rebuilt.price_rate("NC24r", PricingPlan.PAYGO_DEDICATED) == Decimal("3.96")
    assert rebuilt.lookup("NC24r").region_availability == frozenset({"eastus"})


def test_quota_snapshot_is_copy(catalog):
    quota = catalog.default_quota("eastus")
    quota.dedicated_cores = 999
    assert catalog.default_quota("eastus").dedicated_cores == 24
