"""Canned end-to-end scenarios for the cost-reproduction studies.

Each scenario replays one production run as a fixed-duration gang task:
pool creation, data ingress, job submission, completion, teardown, and
download, with every meter landing in the ledger. Wall-clock durations are
fixed inputs taken from the runs being reproduced, not simulated physics.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from typing import Optional

from .batch import BatchService
from .catalog import Catalog, PricingPlan, default_catalog
from .config import ConfigBundle, CredentialsConfig, JobsConfig, PoolConfig, TaskSpec, WorkspaceConfig
from .storage import TransferRecord
from .workloads import FixedDuration

SHARE_NAME = "fileshare"
SHARE_QUOTA_GIB = 100
QUOTA_RAISE_FLOOR = 100  # cores; mirrors the quota-increase support workflow


@dataclass(frozen=True)
class Scenario:
    name: str
    pool: PoolConfig
    job: JobsConfig
    expected_wall_hours: Decimal
    plan: PricingPlan
    data_dir: str
    ingress_manifest: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if self.expected_wall_hours <= 0:
            raise ValueError("expected_wall_hours must be positive")

    @property
    def duration_seconds(self) -> float:
        return float(self.expected_wall_hours * 3600)

    def bundle(self) -> ConfigBundle:
        """Full document set for this scenario, for packing and replay."""
        return ConfigBundle(
            workspace=WorkspaceConfig(
                subscription="sim-subscription",
                resource_group="sim-rg",
                region=self.pool.region,
                storage_account="simstorage",
                batch_account="simbatch",
            ),
            credentials=CredentialsConfig(storage_key="sim-storage-key",
                                          batch_key="sim-batch-key"),
            pool=self.pool,
            jobs=self.job,
        )


def _scenario(name: str, nodes: int, wall_hours: str, procs: int, gpus: int,
              data_dir: str, manifest: tuple[tuple[str, int], ...]) -> Scenario:
    hours = Decimal(wall_hours)
    seconds = hours * 3600
    pool = PoolConfig(
        pool_id=name,
        sku="NC24r",
        region="eastus",
        dedicated_count=nodes,
        low_priority_count=0,
        inter_node_comm=True,
        shared_filesystem=True,
        image="cfdlab/flowsolver:0.4",
    )
    task = TaskSpec(
        task_id="task0",
        workload=FixedDuration(float(seconds)),
        instances=nodes,
        procs_per_node=procs,
        gpus_per_node=gpus,
        input_dir=f"{SHARE_NAME}/{data_dir}",
        output_dir=f"{SHARE_NAME}/{data_dir}/output",
    )
    job = JobsConfig(job_id=f"{name}-job", pool_id=name, tasks=(task,))
    return Scenario(name, pool, job, hours, PricingPlan.PAYGO_DEDICATED, data_dir, manifest)


def builtin_scenarios() -> list[Scenario]:
    # the solver builds its grid at runtime, so run inputs are just the body
    # geometry and the case configuration
    return [
        _scenario("snake2d", nodes=2, wall_hours="7.0", procs=12, gpus=2,
                  data_dir="snake2d2k35",
                  manifest=(("snake2d.body", 131_072), ("case.yaml", 4_096))),
        _scenario("snake3d", nodes=2, wall_hours="136.0", procs=24, gpus=4,
                  data_dir="snake3d2k35",
                  manifest=(("snake3d.body", 262_144), ("case.yaml", 4_096))),
        _scenario("snake3d_fine", nodes=6, wall_hours="335.23", procs=24, gpus=4,
                  data_dir="snake3d2k35fine",
                  manifest=(("snake3d.body", 262_144), ("case.yaml", 4_096))),
    ]


def scenario_by_name(name: str) -> Scenario:
    for sc in builtin_scenarios():
        if sc.name == name:
            return sc
    known = ", ".join(s.name for s in builtin_scenarios())
    raise KeyError(f"unknown scenario {name!r} (known: {known})")


@dataclass
class ScenarioRun:
    scenario: Scenario
    service: BatchService
    ingress: Optional[TransferRecord]
    download: Optional[TransferRecord]

    @property
    def event_lines(self) -> list[str]:
        return self.service.event_log.lines()

    @property
    def vm_cost(self):
        return self.service.ledger.vm_total()

    @property
    def total_cost(self):
        return self.service.ledger.total()

    def task_states(self) -> dict[str, str]:
        return {t.spec.task_id: t.state.value for t in self.service.all_tasks()}


def run_scenario(scenario: Scenario, seed: int, *, catalog: Optional[Catalog] = None,
                 raise_quota: bool = True, download_to=None,
                 service: Optional[BatchService] = None) -> ScenarioRun:
    """Execute the full pipeline on a fresh (or provided) service."""
    svc = service or BatchService(catalog or default_catalog(), seed=seed)
    sku = svc.catalog.lookup(scenario.pool.sku)
    if raise_quota:
        needed = scenario.pool.dedicated_count * sku.vcores
        svc.quota_set(scenario.pool.region, max(QUOTA_RAISE_FLOOR, needed))
    svc.storage.share_create(SHARE_NAME, SHARE_QUOTA_GIB)
    svc.storage.directory_create(SHARE_NAME, scenario.data_dir)
    svc.event_log.append(svc.clock.now, f"share/{SHARE_NAME}", f"mkdir:{scenario.data_dir}")
    pool = svc.pool_add(scenario.pool, scenario.plan)
    svc.advance_until_pool_settled(pool.pool_id)
    ingress = svc.data_ingress(SHARE_NAME, scenario.data_dir, scenario.ingress_manifest)
    job = svc.jobs_add(scenario.job)
    svc.advance_until_job_terminal(job.job_id)
    svc.pool_del(pool.pool_id)
    svc.jobs_del(job.job_id)
    with tempfile.TemporaryDirectory() as tmp:
        download = svc.data_download(SHARE_NAME, scenario.data_dir, Path(download_to or tmp))
    return ScenarioRun(scenario, svc, ingress, download)
