"""Correctness gate run before any metric is reported as a success.

Checks the paper's published numbers, and each workload's events.log and
ledger.tsv digests for the golden seed against perfbench/golden.json.
"""

from __future__ import annotations

import json
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

SCENARIO_VM_USD = {"snake2d": "55.44", "snake3d": "1077.12", "snake3d_fine": "7965.06"}
RESERVED_3YR_USD = {"snake2d": "24.61", "snake3d": "478.12"}
LATENCY_ENDPOINTS_S = {"azure": 1.95e-6, "colonial-one": 1.25e-6}


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def paper_numbers() -> tuple[int, list[str]]:
    """Scenario ledgers, 3-year-reserved repricings and latency endpoints."""
    from batchsim.billing import counterfactual, usd_str
    from batchsim.catalog import PricingPlan
    from batchsim.fabric import INTERCONNECTS
    from batchsim.scenarios import run_scenario, scenario_by_name
    from batchsim.workloads import LATENCY_SIZES, osu_latency

    attempted, problems = 0, []
    for name, usd in SCENARIO_VM_USD.items():
        run = run_scenario(scenario_by_name(name), seed=0)
        attempted += 1
        got = usd_str(run.vm_cost, 2)
        if got != usd or (name != "snake3d_fine" and run.vm_cost != Fraction(Decimal(usd))):
            problems.append(f"{name} VM cost {usd_str(run.vm_cost, 4)} USD, expected {usd}")
        if name in RESERVED_3YR_USD:
            attempted += 1
            reserved = usd_str(counterfactual(run.service.ledger, PricingPlan.RESERVED_3YR), 2)
            if reserved != RESERVED_3YR_USD[name]:
                problems.append(f"{name} 3-year reserved {reserved} USD, "
                                f"expected {RESERVED_3YR_USD[name]}")
    for model, latency in LATENCY_ENDPOINTS_S.items():
        attempted += 1
        got = osu_latency(INTERCONNECTS[model], LATENCY_SIZES)[0][1]
        if got != latency:
            problems.append(f"{model} zero-byte latency {got!r} s, expected {latency!r}")
    return attempted, problems


def golden_digests(workload: str, digests: dict[str, str]) -> list[str]:
    expected = load_golden()["digests"][workload]
    return [f"{workload} {name} sha256 {digests.get(name)} differs from golden {want}"
            for name, want in expected.items() if digests.get(name) != want]
