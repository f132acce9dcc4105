"""Schema, parser, and cross-validator for the four configuration documents.

A run is driven by workspace.yaml, credentials.yaml, pool.yaml, and
jobs.yaml in one directory. Parsing is pure and the resulting configs are
immutable; every cross-reference (sku, region, pool id, task geometry) is
resolved against the catalog at parse time. The same writers and readers
carry the pool and task documents embedded in state.json.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import yaml

from .catalog import Catalog, RegionQuota
from .errors import (CrossRefError, MissingDocument, QuotaExceeded, RdmaRequired, SchemaError,
                     SharedFsLowPriority)
from .workloads import WorkloadSpec, parse_workload, workload_ref

STATE_DOCUMENT = "state.json"  # where the readers report errors in embedded documents


@dataclass(frozen=True)
class WorkspaceConfig:
    subscription: str
    resource_group: str
    region: str
    storage_account: str
    batch_account: str


@dataclass(frozen=True, repr=False)
class CredentialsConfig:
    storage_key: str
    batch_key: str

    def __repr__(self):  # secrets never echoed in logs or reports
        return "CredentialsConfig(storage_key='***', batch_key='***')"


@dataclass(frozen=True)
class PoolConfig:
    pool_id: str
    sku: str
    region: str
    dedicated_count: int
    low_priority_count: int
    inter_node_comm: bool
    shared_filesystem: bool
    image: str

    def __post_init__(self):
        if self.dedicated_count < 0 or self.low_priority_count < 0:
            raise ValueError("node counts must be non-negative")
        if self.dedicated_count + self.low_priority_count < 1:
            raise ValueError("pool must request at least one node")

    @property
    def node_count(self) -> int:
        return self.dedicated_count + self.low_priority_count


@dataclass(frozen=True)
class TaskSpec:
    task_id: str
    workload: WorkloadSpec
    instances: int
    procs_per_node: int
    gpus_per_node: int
    input_dir: str
    output_dir: str

    def __post_init__(self):
        if self.instances < 1:
            raise ValueError("instances must be at least 1")


@dataclass(frozen=True)
class JobsConfig:
    job_id: str
    pool_id: str
    tasks: tuple[TaskSpec, ...]


@dataclass(frozen=True)
class ConfigBundle:
    workspace: WorkspaceConfig
    credentials: CredentialsConfig
    pool: PoolConfig
    jobs: JobsConfig


# ---------------------------------------------------------------------------
# parsing


def load_yaml(stream):
    """One YAML document, parsed by libyaml's safe loader (PyYAML must be built with it)."""
    return yaml.load(stream, Loader=yaml.CSafeLoader)


def dump_yaml(doc, stream):
    """`doc` as YAML, keys in their order, by libyaml's safe dumper."""
    yaml.dump(doc, stream, Dumper=yaml.CSafeDumper, sort_keys=False)


def _load_doc(directory: Path, name: str) -> dict:
    path = directory / name
    if not path.is_file():
        raise MissingDocument(str(path))
    with open(path) as fh:
        try:
            doc = load_yaml(fh)
        except yaml.YAMLError as exc:
            raise SchemaError(str(path), "<document>", f"not parseable: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError(str(path), "<document>", "top level must be a mapping")
    return doc


_ABSENT = object()  # a key the document does not have


def _checked(value, kind, path: str, key: str):
    """`value` of document key `key` if it is of `kind`; strings come back stripped."""
    if value is _ABSENT:
        raise SchemaError(path, key, "required key absent")
    if kind is bool and not isinstance(value, bool):
        raise SchemaError(path, key, "expected a boolean")
    if kind is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise SchemaError(path, key, "expected an integer")
    if kind is str:
        if not isinstance(value, str) or not value.strip():
            raise SchemaError(path, key, "expected a non-empty string")
        return value.strip()
    if kind is dict and not isinstance(value, dict):
        raise SchemaError(path, key, "expected a mapping")
    if kind is list and not isinstance(value, list):
        raise SchemaError(path, key, "expected a list")
    return value


class _Reader:
    def __init__(self, path: str, mapping: dict, prefix: str = ""):
        self.path, self.mapping, self.prefix = path, mapping, prefix

    def child(self, key: str) -> "_Reader":
        return _Reader(self.path, self.require(key, dict), f"{self.prefix}{key}.")

    def require(self, key: str, kind):
        return _checked(self.mapping.get(key, _ABSENT), kind, self.path, f"{self.prefix}{key}")


def _parse_workspace(directory: Path) -> WorkspaceConfig:
    path = str(directory / "workspace.yaml")
    doc = _Reader(path, _load_doc(directory, "workspace.yaml")).require("workspace", dict)
    return workspace_from_doc(doc, path, "workspace.")


def _parse_credentials(directory: Path) -> CredentialsConfig:
    doc = _load_doc(directory, "credentials.yaml")
    r = _Reader(str(directory / "credentials.yaml"), doc).child("credentials")
    return CredentialsConfig(
        storage_key=r.require("storage_key", str),
        batch_key=r.require("batch_key", str),
    )


def _parse_pool(directory: Path) -> PoolConfig:
    path = str(directory / "pool.yaml")
    doc = _Reader(path, _load_doc(directory, "pool.yaml")).require("pool", dict)
    return pool_from_doc(doc, path, "pool.")


def _parse_jobs(directory: Path) -> JobsConfig:
    path = str(directory / "jobs.yaml")
    r = _Reader(path, _load_doc(directory, "jobs.yaml")).child("job")
    entries = r.require("tasks", list)
    if not entries:
        raise SchemaError(path, "job.tasks", "at least one task required")
    tasks = []
    for idx, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise SchemaError(path, f"job.tasks[{idx}]", "expected a mapping")
        tasks.append(task_spec_from_doc(entry, path, f"job.tasks[{idx}]."))
    ids = [t.task_id for t in tasks]
    if len(set(ids)) != len(ids):
        raise SchemaError(path, "job.tasks", "task ids must be unique within the job")
    return JobsConfig(job_id=r.require("id", str), pool_id=r.require("pool", str),
                      tasks=tuple(tasks))


def _cross_validate(bundle: ConfigBundle, catalog: Catalog):
    pool, jobs, workspace = bundle.pool, bundle.jobs, bundle.workspace
    if not catalog.has_region(workspace.region):
        raise CrossRefError(f"workspace region {workspace.region!r} not in catalog")
    if not catalog.has_region(pool.region):
        raise CrossRefError(f"pool region {pool.region!r} not in catalog")
    sku = catalog.lookup(pool.sku)  # raises UnknownSku
    if pool.region not in sku.region_availability:
        raise CrossRefError(f"SKU {sku.name} is not available in region {pool.region!r}")
    if pool.inter_node_comm and not sku.rdma_capable:
        raise CrossRefError(
            f"inter_node_comm requires an RDMA-capable SKU; {sku.name} has no RDMA interface"
        )
    if jobs.pool_id != pool.pool_id:
        raise CrossRefError(
            f"jobs document targets pool {jobs.pool_id!r} but pool document defines "
            f"{pool.pool_id!r}"
        )
    for task in jobs.tasks:
        if task.gpus_per_node > sku.gpu_count:
            raise CrossRefError(
                f"task {task.task_id!r} wants {task.gpus_per_node} GPUs per node; "
                f"{sku.name} has {sku.gpu_count}"
            )
        if task.procs_per_node > sku.vcores:
            raise CrossRefError(
                f"task {task.task_id!r} wants {task.procs_per_node} processes per node; "
                f"{sku.name} has {sku.vcores} vcores"
            )


def parse_config_dir(path, catalog: Catalog) -> ConfigBundle:
    """Load and cross-validate the four documents from one directory."""
    directory = Path(path)
    if not directory.is_dir():
        raise MissingDocument(str(directory))
    bundle = ConfigBundle(
        workspace=_parse_workspace(directory),
        credentials=_parse_credentials(directory),
        pool=_parse_pool(directory),
        jobs=_parse_jobs(directory),
    )
    _cross_validate(bundle, catalog)
    return bundle


# ---------------------------------------------------------------------------
# document codec: one writer and one reader per config type, shared by the
# YAML bundle and the embedded copies in state.json (parse . write == identity)


def workspace_to_doc(ws: WorkspaceConfig) -> dict:
    return {
        "subscription": ws.subscription,
        "resource_group": ws.resource_group,
        "region": ws.region,
        "storage_account": ws.storage_account,
        "batch_account": ws.batch_account,
    }


def workspace_from_doc(doc: dict, path: str, prefix: str) -> WorkspaceConfig:
    r = _Reader(path, doc, prefix)
    return WorkspaceConfig(
        subscription=r.require("subscription", str),
        resource_group=r.require("resource_group", str),
        region=r.require("region", str),
        storage_account=r.require("storage_account", str),
        batch_account=r.require("batch_account", str),
    )


def pool_to_doc(cfg: PoolConfig) -> dict:
    return {
        "id": cfg.pool_id,
        "sku": cfg.sku,
        "region": cfg.region,
        "vm_count": {"dedicated": cfg.dedicated_count, "low_priority": cfg.low_priority_count},
        "inter_node_comm": cfg.inter_node_comm,
        "shared_filesystem": cfg.shared_filesystem,
        "image": cfg.image,
    }


def pool_from_doc(doc: dict, path: str = STATE_DOCUMENT, prefix: str = "") -> PoolConfig:
    r = _Reader(path, doc, prefix)
    counts = r.child("vm_count")
    dedicated = counts.require("dedicated", int)
    low_priority = counts.require("low_priority", int)
    if dedicated < 0 or low_priority < 0:
        raise SchemaError(path, f"{prefix}vm_count", "counts must be non-negative")
    if dedicated + low_priority < 1:
        raise SchemaError(path, f"{prefix}vm_count", "pool must request at least one node")
    return PoolConfig(
        pool_id=r.require("id", str),
        sku=r.require("sku", str),
        region=r.require("region", str),
        dedicated_count=dedicated,
        low_priority_count=low_priority,
        inter_node_comm=r.require("inter_node_comm", bool),
        shared_filesystem=r.require("shared_filesystem", bool),
        image=r.require("image", str),
    )


# the order of a task spec's values in a state.json task row
TASK_SPEC_KEYS = ("id", "workload", "instances", "procs_per_node", "gpus_per_node", "input_dir",
                  "output_dir")


def task_spec_values(spec: TaskSpec) -> tuple:
    return (spec.task_id, workload_ref(spec.workload), spec.instances, spec.procs_per_node,
            spec.gpus_per_node, spec.input_dir, spec.output_dir)


def task_spec(values, path: str = STATE_DOCUMENT, prefix: str = "") -> TaskSpec:
    """The one reader of task specs, for jobs.yaml entries and state.json task rows. Exact
    types pass at once; else the first bad value is raised in jobs.yaml's order of checks."""
    task_id, workload, instances, procs_per_node, gpus_per_node, input_dir, output_dir = values
    if not (type(task_id) is type(workload) is type(input_dir) is type(output_dir) is str
            and type(instances) is type(procs_per_node) is type(gpus_per_node) is int
            and instances >= 1 and task_id.strip() and workload.strip() and input_dir.strip()
            and output_dir.strip()):
        _first_task_error(values, path, prefix)  # returns only for str and int subclasses
    return TaskSpec(task_id.strip(), _workload(workload, path, prefix), instances, procs_per_node,
                    gpus_per_node, input_dir.strip(), output_dir.strip())


def _first_task_error(values, path: str, prefix: str):
    doc = dict(zip(TASK_SPEC_KEYS, values))
    _workload(_checked(doc["workload"], str, path, f"{prefix}workload"), path, prefix)
    if _checked(doc["instances"], int, path, f"{prefix}instances") < 1:
        raise SchemaError(path, f"{prefix}instances", "must be at least 1")
    for key, kind in (("id", str), ("procs_per_node", int), ("gpus_per_node", int),
                      ("input_dir", str), ("output_dir", str)):
        _checked(doc[key], kind, path, prefix + key)


def _workload(text: str, path: str, prefix: str):
    try:
        return parse_workload(text)
    except ValueError as exc:
        raise SchemaError(path, f"{prefix}workload", str(exc)) from None


def task_spec_from_doc(doc: dict, path: str = STATE_DOCUMENT, prefix: str = "") -> TaskSpec:
    return task_spec([doc.get(key, _ABSENT) for key in TASK_SPEC_KEYS], path, prefix)


def bundle_documents(bundle: ConfigBundle) -> dict[str, dict]:
    jobs = bundle.jobs
    return {
        "workspace.yaml": {"workspace": workspace_to_doc(bundle.workspace)},
        "credentials.yaml": {
            "credentials": {
                "storage_key": bundle.credentials.storage_key,
                "batch_key": bundle.credentials.batch_key,
            }
        },
        "pool.yaml": {"pool": pool_to_doc(bundle.pool)},
        "jobs.yaml": {"job": {"id": jobs.job_id, "pool": jobs.pool_id,
                              "tasks": [dict(zip(TASK_SPEC_KEYS, task_spec_values(t)))
                                        for t in jobs.tasks]}},
    }


def serialize_config_dir(bundle: ConfigBundle, path):
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    for name, doc in bundle_documents(bundle).items():
        with open(directory / name, "w") as fh:
            dump_yaml(doc, fh)


# ---------------------------------------------------------------------------
# pool admission


@dataclass(frozen=True)
class Violation:
    rule: str
    severity: str  # always "warning": a broken rule is raised, not returned
    message: str


def validate_pool(cfg: PoolConfig, catalog: Catalog, available: RegionQuota) -> list[Violation]:
    """Raise the first broken pool rule in the order dedicated quota, low-priority
    quota, RDMA, shared filesystem; else return the warnings, which do not block creation."""
    sku = catalog.lookup(cfg.sku)
    for needed, cores in ((cfg.dedicated_count * sku.vcores, available.dedicated_cores),
                          (cfg.low_priority_count * sku.vcores, available.low_priority_cores)):
        if needed > cores:
            raise QuotaExceeded(needed, cores, cfg.region)
    if cfg.inter_node_comm and not sku.rdma_capable:
        raise RdmaRequired(f"inter-node communication requires an RDMA-capable SKU; "
                           f"{sku.name} has none")
    if cfg.shared_filesystem and cfg.low_priority_count > 0:
        raise SharedFsLowPriority("a shared filesystem pool cannot include low-priority nodes")
    if cfg.low_priority_count > 0 and cfg.inter_node_comm:
        return [Violation("LowPriorityInterNodeComm", "warning",
                          "low-priority nodes are preemptible and best avoided for "
                          "long-running jobs with inter-node communication")]
    return []
