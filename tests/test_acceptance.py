"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
print; tolerances are pinned in the assertions.
"""

import io
import math
import time
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from batchsim.billing import Ledger, MeterEvent, ServiceCategory, counterfactual, export_tsv, report
from batchsim.catalog import PricingPlan, default_catalog
from batchsim.cli import run_command
from batchsim.fabric import AZURE_INTERCONNECT, COLONIAL_INTERCONNECT
from batchsim.scenarios import builtin_scenarios, run_scenario, scenario_by_name
from batchsim.workloads import (
    BANDWIDTH_SIZES,
    LATENCY_SIZES,
    PoissonScalingModeled,
    ScalingMode,
    manufactured_solution,
    modeled_poisson_runtime,
    osu_bandwidth,
    osu_latency,
    scaling_table,
    solve_cg,
    unit_cube_grid,
)

from randomized import (
    check_all_invariants,
    check_quota_rejection,
    check_shared_fs_rejection,
    run_random_schedule,
)

RANDOMIZED_SEEDS = 1000


@contextmanager
def criterion(number, text):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL: {text}")
        raise
    print(f"[criterion {number}] PASS: {text}")


def test_criterion_1_cost_reproduction_2d():
    with criterion(1, "snake2d VM cost 55.44 USD, within 0.5% of 55.4, in under 1 s"):
        start = time.perf_counter()
        run = run_scenario(scenario_by_name("snake2d"), seed=0)
        elapsed = time.perf_counter() - start
        assert run.vm_cost == Fraction(Decimal("55.44"))
        assert abs(float(run.vm_cost) - 55.4) / 55.4 <= 0.005
        assert elapsed < 1.0


def test_criterion_2_cost_reproduction_3d():
    with criterion(2, "snake3d 1077.12 USD within 0.5%; fine grid 7965 USD within 1%"):
        coarse = run_scenario(scenario_by_name("snake3d"), seed=0)
        assert coarse.vm_cost == Fraction(Decimal("1077.12"))
        assert abs(float(coarse.vm_cost) - 1077.1) / 1077.1 <= 0.005
        fine = run_scenario(scenario_by_name("snake3d_fine"), seed=0)
        assert abs(float(fine.vm_cost) - 7965) / 7965 <= 0.01
        assert float(fine.vm_cost / coarse.vm_cost) > 7


def test_criterion_3_counterfactual_pricing():
    with criterion(3, "3-year-reserved repricing: 24.61 and 478.12 USD within 0.5%"):
        two_d = run_scenario(scenario_by_name("snake2d"), seed=0)
        reserved_2d = float(counterfactual(two_d.service.ledger, PricingPlan.RESERVED_3YR))
        assert abs(reserved_2d - 24.61) / 24.61 <= 0.005
        assert abs(reserved_2d - 24.6) / 24.6 <= 0.005
        three_d = run_scenario(scenario_by_name("snake3d"), seed=0)
        reserved_3d = float(counterfactual(three_d.service.ledger, PricingPlan.RESERVED_3YR))
        assert abs(reserved_3d - 478.12) / 478.12 <= 0.005
        assert abs(reserved_3d - 478.1) / 478.1 <= 0.005


def test_criterion_4_ledger_percentages():
    with criterion(4, "recorded charges give VM 99.64% (+-0.1) and Bandwidth 0.23% (+-0.01)"):
        ledger = Ledger(default_catalog())
        items = (
            (ServiceCategory.BANDWIDTH, "46.85"),
            (ServiceCategory.DATA_MANAGEMENT, "0.56"),
            (ServiceCategory.NETWORKING, "1.38"),
            (ServiceCategory.STORAGE, "25.93"),
            (ServiceCategory.VIRTUAL_MACHINES, "20582.64"),
        )
        for category, usd in items:
            ledger.add(MeterEvent(category, Fraction(Decimal(usd)), usd, (0.0, 0.0)))
        rows = {r.category: r.percent for r in report(ledger)}
        assert abs(rows[ServiceCategory.VIRTUAL_MACHINES] - 99.64) <= 0.1
        assert abs(rows[ServiceCategory.BANDWIDTH] - 0.23) <= 0.01
        # Storage is excluded: the recorded items imply 0.126%, not the
        # printed 0.16% (documented inconsistency in the source table)
        assert rows[ServiceCategory.STORAGE] == pytest.approx(0.1255, abs=0.001)


def test_criterion_5_alpha_beta_endpoints():
    with criterion(5, "latency endpoints exactly 1.95/1.25 us; plateaus within 1% of 5.2/6.2 GB/s"):
        azure_lat = osu_latency(AZURE_INTERCONNECT, LATENCY_SIZES)
        colonial_lat = osu_latency(COLONIAL_INTERCONNECT, LATENCY_SIZES)
        assert azure_lat[0][1] == 1.95e-6
        assert colonial_lat[0][1] == 1.25e-6
        azure_bw = osu_bandwidth(AZURE_INTERCONNECT, BANDWIDTH_SIZES)
        colonial_bw = osu_bandwidth(COLONIAL_INTERCONNECT, BANDWIDTH_SIZES)
        assert abs(azure_bw[-1][1] - 5.2e9) / 5.2e9 <= 0.01
        assert abs(colonial_bw[-1][1] - 6.2e9) / 6.2e9 <= 0.01


def test_criterion_6_poisson_solver():
    with criterion(6, "CG residual <= 1e-12 on 16^3/32^3, order ~2, iterations "
                      "nondecreasing, scaling model checks, under 30 s"):
        start = time.perf_counter()
        errors, iterations = {}, {}
        for n in (16, 32):
            grid = unit_cube_grid(n)
            exact, rhs = manufactured_solution(grid)
            result = solve_cg(grid, rhs, tol_abs=1e-12)
            assert result.final_residual <= 1e-12
            errors[n] = float(np.max(np.abs(result.solution - exact)))
            iterations[n] = result.iterations
        order = math.log(errors[16] / errors[32]) / math.log(33 / 17)
        assert 1.8 <= order <= 2.2
        assert iterations[16] <= iterations[32]
        # the 50M-cell runtimes are covered by the modeled path
        one = modeled_poisson_runtime(50_000_000, 1, 16, AZURE_INTERCONNECT)
        two = modeled_poisson_runtime(50_000_000, 2, 16, AZURE_INTERCONNECT)
        assert two < one
        weak = scaling_table(PoissonScalingModeled(6_250_000, ScalingMode.WEAK),
                             [1, 2, 3, 4], 12, AZURE_INTERCONNECT)
        times = [t for _, t in weak]
        assert max(times) <= 2 * min(times)
        assert time.perf_counter() - start < 30.0


def test_criterion_7_scheduler_properties():
    with criterion(7, f"gang/oversubscription/quota/shared-fs/preemption invariants "
                      f"over {RANDOMIZED_SEEDS} randomized schedules"):
        preempted_gangs = 0
        for seed in range(RANDOMIZED_SEEDS):
            svc, pool = run_random_schedule(seed)
            check_all_invariants(svc, pool)
            check_quota_rejection(seed)
            check_shared_fs_rejection(seed)
            preempted_gangs += sum(
                1 for t in svc.all_tasks()
                if t.failure_reason is not None and t.failure_reason.value == "NodePreempted"
            )
        assert preempted_gangs > 50  # the preemption path is genuinely exercised


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "byte-identical reruns for every scenario; repro verify passes"):
        for scenario in builtin_scenarios():
            a = run_scenario(scenario, seed=11)
            b = run_scenario(scenario, seed=11)
            assert a.events == b.events
            assert export_tsv(a.service.ledger) == export_tsv(b.service.ledger)
        workdir = tmp_path / "cliwork"
        workdir.mkdir()
        for argv in (
            ["scenario", "run", "snake2d", "--seed", "11"],
            ["repro", "pack"],
        ):
            code = run_command(["-C", str(workdir), *argv],
                               out=io.StringIO(), err=io.StringIO())
            assert code == 0
        out = io.StringIO()
        code = run_command(["-C", str(workdir), "repro", "verify",
                            str(workdir / "repro-package.tar.gz")], out=out,
                           err=io.StringIO())
        assert code == 0
        assert out.getvalue().startswith("PASS")
