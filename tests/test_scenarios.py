from decimal import Decimal
from fractions import Fraction

import pytest

from batchsim.billing import counterfactual, export_tsv
from batchsim.catalog import PricingPlan, default_catalog
from batchsim.config import parse_config_dir, serialize_config_dir
from batchsim.scenarios import builtin_scenarios, run_scenario, scenario_by_name
from batchsim.state import status_doc


def test_builtin_wall_hours():
    by_name = {s.name: s for s in builtin_scenarios()}
    assert by_name["snake2d"].expected_wall_hours == Decimal("7.0")
    assert by_name["snake3d"].expected_wall_hours == Decimal("136.0")
    assert by_name["snake3d_fine"].expected_wall_hours == Decimal("335.23")
    assert by_name["snake3d_fine"].pool.dedicated_count == 6
    assert by_name["snake2d"].job.tasks[0].procs_per_node == 12
    assert by_name["snake2d"].job.tasks[0].gpus_per_node == 2
    assert by_name["snake3d"].job.tasks[0].procs_per_node == 24


def test_fine_grid_hours_derive_from_cost():
    # 7965 USD at 6 nodes x 3.96 USD/h backs out the wall-clock time
    hours = float(scenario_by_name("snake3d_fine").expected_wall_hours)
    assert hours == pytest.approx(7965 / (6 * 3.96), abs=0.005)


def test_unknown_scenario():
    with pytest.raises(KeyError):
        scenario_by_name("snake4d")


def test_snake2d_vm_cost_exact():
    run = run_scenario(scenario_by_name("snake2d"), seed=0)
    assert run.vm_cost == Fraction(Decimal("55.44"))
    assert run.task_states() == {"task0": "Completed"}


def test_snake3d_vm_cost_exact():
    run = run_scenario(scenario_by_name("snake3d"), seed=0)
    assert run.vm_cost == Fraction(Decimal("1077.12"))


def test_snake3d_fine_vm_cost():
    run = run_scenario(scenario_by_name("snake3d_fine"), seed=0)
    assert run.vm_cost == Fraction(Decimal("7965.0648"))
    assert abs(float(run.vm_cost) - 7965) / 7965 < 0.01


def test_cost_ratio_fine_over_coarse_exceeds_seven():
    fine = run_scenario(scenario_by_name("snake3d_fine"), seed=0)
    coarse = run_scenario(scenario_by_name("snake3d"), seed=0)
    assert float(fine.vm_cost / coarse.vm_cost) > 7


def test_counterfactual_reserved_pricing():
    run = run_scenario(scenario_by_name("snake2d"), seed=0)
    reserved = counterfactual(run.service.ledger, PricingPlan.RESERVED_3YR)
    assert float(reserved) == pytest.approx(24.6092, abs=0.001)
    identity = counterfactual(run.service.ledger, PricingPlan.PAYGO_DEDICATED)
    assert identity == run.total_cost


def test_deterministic_replay_same_seed():
    a = run_scenario(scenario_by_name("snake2d"), seed=42)
    b = run_scenario(scenario_by_name("snake2d"), seed=42)
    assert a.events == b.events
    assert export_tsv(a.service.ledger) == export_tsv(b.service.ledger)


def test_different_seed_changes_boot_schedule():
    a = run_scenario(scenario_by_name("snake2d"), seed=1)
    b = run_scenario(scenario_by_name("snake2d"), seed=2)
    assert a.events != b.events
    assert a.vm_cost == b.vm_cost  # cost is seed-independent


def test_pipeline_artifacts(tmp_path):
    run = run_scenario(scenario_by_name("snake2d"), seed=0, root=tmp_path)
    transfers = [line.split("\t")[2].split(":") for line in run.events.splitlines()
                 if "\tingress:" in line or "\tegress:" in line]
    assert [kind for kind, _ in transfers] == ["ingress", "egress"]
    ingress, egress = (int(nbytes) for _, nbytes in transfers)
    assert ingress == 131_072 + 4_096
    assert egress > ingress  # outputs included
    downloaded = tmp_path / "output" / "fileshare" / "snake2d2k35"
    assert sum(p.stat().st_size for p in downloaded.rglob("*") if p.is_file()) == egress
    assert run.service.data_download("fileshare", "snake2d2k35", tmp_path / "again") == egress
    assert run.service.data_ingress("fileshare", "snake2d2k35", []) == 0
    log = tmp_path / "output" / "fileshare" / "snake2d2k35" / "output" / "run.log"
    assert log.is_file()
    body = tmp_path / "output" / "fileshare" / "snake2d2k35" / "snake2d.body"
    assert body.stat().st_size == 131_072
    assert run.events == (tmp_path / ".batchsim" / "events.log").read_text()


def test_pool_torn_down_and_job_kept():
    run = run_scenario(scenario_by_name("snake2d"), seed=0)
    status = status_doc(run.service)
    assert status["pools"][0]["state"] == "Deleted"
    assert status["jobs"][0]["state"] == "Deleted"
    assert status["jobs"][0]["tasks"][0]["state"] == "Completed"


@pytest.mark.parametrize("name", [s.name for s in builtin_scenarios()])
def test_scenario_bundle_round_trips(name, tmp_path):
    # snake3d_fine's 1,206,828 s task is one that the short %g form cannot write exactly
    bundle = scenario_by_name(name).bundle()
    serialize_config_dir(bundle, tmp_path)
    assert parse_config_dir(tmp_path, default_catalog()) == bundle
