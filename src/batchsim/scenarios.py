"""Canned end-to-end scenarios for the cost-reproduction studies.

Each scenario replays one production run, a fixed-duration gang task, as the
CLI commands a user would type (`transcript`), with every meter landing in
the ledger. Wall-clock durations are fixed inputs taken from the runs being
reproduced, not simulated physics.
"""

from __future__ import annotations

import io
import json
import shutil
import tempfile
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

from .batch import BatchService
from .catalog import default_catalog
from .config import (ConfigBundle, CredentialsConfig, JobsConfig, PoolConfig, TaskSpec,
                     WorkspaceConfig, serialize_config_dir)
from .errors import ValidationError
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

    def bundle(self) -> ConfigBundle:
        """The scenario's config documents, as `run_scenario` writes them for its commands."""
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


def transcript(scenario: Scenario, seed: int, configdir: str, manifest: str) -> list[list[str]]:
    """The CLI commands a user types to run `scenario`, with its configs in `configdir`
    and its ingress manifest at `manifest`."""
    cores = scenario.pool.dedicated_count * default_catalog().lookup(scenario.pool.sku).vcores
    cfg = ["--configdir", configdir]
    return [
        ["workspace", "init", *cfg, "--seed", str(seed)],
        ["storage", "account", "create"],
        ["share", "create", "--name", SHARE_NAME, "--quota", str(SHARE_QUOTA_GIB)],
        ["quota", "set", "--region", scenario.pool.region,
         "--dedicated", str(max(QUOTA_RAISE_FLOOR, cores))],
        ["pool", "add", *cfg],
        ["data", "ingress", *cfg, "--manifest", manifest],
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
    """Type the scenario's `transcript` in `root` (default: a temporary dir), with its
    configs and ingress manifest in a temporary dir outside the workspace. `root` must
    hold no workspace. A `.batchsim/` without one (what a killed `workspace init` leaves)
    is moved aside; a failed run removes the `.batchsim/` it made and moves it back."""
    from . import cli  # cli imports this module

    with tempfile.TemporaryDirectory(prefix="batchsim-scenario-") as tmp:
        session = cli.Cli(Path(root if root is not None else tmp), io.StringIO())
        if session.store.exists():
            raise ValidationError(f"workspace already initialized in {session.root}")
        aside = Path(tmp) / "aside"
        if session.store.dir.exists():
            shutil.move(session.store.dir, aside)
        configdir, manifest = Path(tmp) / "config", Path(tmp) / "ingress.json"
        serialize_config_dir(scenario.bundle(), configdir)
        manifest.write_text(json.dumps(scenario.ingress_manifest))
        try:
            for argv in transcript(scenario, seed, str(configdir), str(manifest)):
                cli.run_command(["-C", str(session.root), *argv], session.out, raising=True)
        except BaseException:
            shutil.rmtree(session.store.dir, ignore_errors=True)
            if aside.exists():
                shutil.move(aside, session.store.dir)
            raise
        _, svc = session.load()
        return ScenarioRun(svc, session.store.events_path.read_text())
