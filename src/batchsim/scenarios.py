"""Canned end-to-end scenarios for the cost-reproduction studies.

Each scenario replays one production run, a fixed-duration gang task, as the
CLI commands a user would type (`transcript`), with every meter landing in
the ledger. Wall-clock durations are fixed inputs taken from the runs being
reproduced, not simulated physics.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from dataclasses import dataclass
from decimal import Decimal

from .batch import BatchService
from .catalog import default_catalog
from .config import (ConfigBundle, CredentialsConfig, JobsConfig, PoolConfig, TaskSpec,
                     WorkspaceConfig, serialize_config_dir)
from .errors import ValidationError
from .state import (STATE_DIR, ServiceOptions, WorkspaceStore, config_snapshot,
                    service_from_doc)
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
    data_dir: str
    ingress_manifest: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if self.expected_wall_hours <= 0:
            raise ValueError("expected_wall_hours must be positive")

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
    return Scenario(name, pool, job, hours, data_dir, manifest)


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


def transcript(scenario: Scenario, seed: int) -> list[list[str]]:
    """The run's CLI commands, as `repro pack` records them: each command that loads the
    scenario's configs names their snapshot, `--configdir .batchsim/configs/<id>`."""
    catalog = default_catalog()
    cores = scenario.pool.dedicated_count * catalog.lookup(scenario.pool.sku).vcores
    low = catalog.default_quota(scenario.pool.region).low_priority_cores
    cfg = ["--configdir", config_snapshot(scenario.bundle())]
    return [
        [*ServiceOptions(seed=seed).init_argv(), *cfg],
        ["storage", "account", "create"],
        ["share", "create", "--name", SHARE_NAME, "--quota", str(SHARE_QUOTA_GIB)],
        ["quota", "set", "--region", scenario.pool.region,
         "--dedicated", str(max(QUOTA_RAISE_FLOOR, cores)), "--low-priority", str(low)],
        ["pool", "add", *cfg],
        ["data", "ingress", "--manifest", f"{STATE_DIR}/ingress/0001.json", *cfg],
        ["jobs", "add", *cfg],
        ["pool", "del", *cfg],
        ["jobs", "del", *cfg],
        ["data", "download", "--source", f"{SHARE_NAME}/{scenario.data_dir}", "--dest", "output"],
    ]


@dataclass
class ScenarioRun:
    service: BatchService  # rehydrated from the final state.json
    events: str  # events.log

    @property
    def vm_cost(self):
        return self.service.ledger.vm_total()

    @property
    def total_cost(self):
        return self.service.ledger.total()

    def task_states(self) -> dict[str, str]:
        return {t.spec.task_id: t.state.value for t in self.service.all_tasks()}


def run_scenario(scenario: Scenario, seed: int, *, root=None) -> ScenarioRun:
    """Replay `transcript(scenario, seed)` in `root` (default: a temporary dir).

    The files the transcript names are written first, in place: the config snapshot
    under `.batchsim/configs/<id>/` and `.batchsim/ingress/0001.json`. `root` must hold
    no workspace; a failed run removes the `.batchsim/` it made.
    """
    from . import cli  # cli imports this module

    with tempfile.TemporaryDirectory(prefix="batchsim-scenario-") as tmp:
        store = WorkspaceStore(root if root is not None else tmp)
        if store.dir.exists():
            raise ValidationError(f"workspace already initialized in {store.root}")
        bundle = scenario.bundle()
        try:
            serialize_config_dir(bundle, store.root / config_snapshot(bundle))
            store.ingress_dir.mkdir(parents=True)
            (store.ingress_dir / "0001.json").write_text(json.dumps(scenario.ingress_manifest))
            cli.replay(transcript(scenario, seed), store.root)
        except BaseException:
            shutil.rmtree(store.dir, ignore_errors=True)
            raise
        state = store.load()
        svc = service_from_doc(state["service"], ServiceOptions.from_doc(state["options"]))
        return ScenarioRun(svc, store.events_path.read_text())
