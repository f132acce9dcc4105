"""Schema, parser, and cross-validator for the four configuration documents.

A run is driven by workspace.yaml, credentials.yaml, pool.yaml, and
jobs.yaml in one directory. Parsing is pure and the resulting configs are
immutable; every cross-reference (sku, region, pool id, task geometry) is
resolved against the catalog at parse time. Each record is read and written through
a field table of its keys, as state.json's and a catalog's are; the same tables carry
the workspace, pool and task documents embedded in state.json.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import yaml

from .catalog import Catalog, RegionQuota
from .errors import ValidationError
from .workloads import WorkloadSpec, parse_workload, workload_ref


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

    @property
    def node_count(self) -> int:
        return self.dedicated_count + self.low_priority_count


class TaskSpec(NamedTuple):  # a tuple: a frozen dataclass sets each field by object.__setattr__
    task_id: str
    workload: WorkloadSpec
    instances: int
    procs_per_node: int
    gpus_per_node: int
    input_dir: str
    output_dir: str


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
# field tables: each record kind of a document as key -> kind. One checker reads every
# record against its table, the YAML documents, state.json and catalog documents alike,
# and the writers build each record from the same table


_FLOAT_MAX = sys.float_info.max


class Kind(NamedTuple):
    """A kind of leaf: `ok(value, at)` says whether `value` may stand there, `load` makes
    the attribute it stands for and `dump` the leaf again (None: the value itself); `attr`
    names that attribute where it is not the key, and `why(value)` says what is wrong with
    a value that is not ok, as a configuration document's message does."""
    ok: Callable
    load: Optional[Callable] = None
    dump: Optional[Callable] = None
    attr: Optional[str] = None
    why: Optional[Callable] = None


class At(NamedTuple):
    """What the leaves of a record are checked against."""
    now: float = _FLOAT_MAX  # the latest instant it may hold: the service time
    names: frozenset = frozenset()  # what a reference may name: pool ids or catalog regions


class _Absent:  # the value of a key that a record does not have
    def __repr__(self):
        return "<absent>"


_ABSENT = _Absent()


def of_owner(label: str) -> Callable:
    """The message form `<label>: <key> <value!r> of <owner>`."""
    return lambda owner, key, value, kind: f"{label}: {key} {value!r} of {owner}"


CORRUPT_STATE = of_owner("corrupt state")


def at_key(where: tuple, key: str, value, kind: Kind) -> str:
    """A configuration document's message form, `where` being (path, prefix):
    `<path>: key '<prefix><key>': <why>`."""
    path, prefix = where
    return (f"{path}: key {prefix + key!r}: "
            f"{'required key absent' if value is _ABSENT else kind.why(value)}")


def _read(doc: dict, table: dict, owner, at: At = At(), form: Callable = CORRUPT_STATE) -> dict:
    """The attributes that `doc`, a record of `table`, stands for, by name; the first value,
    in the table's order, that is not of its key's kind is a ValidationError whose message
    is `form(owner, key, value, kind)`."""
    values = {}
    for key, (ok, load, _, attr, _) in table.items():
        value = doc.get(key, _ABSENT)
        if not ok(value, at):
            raise ValidationError(form(owner, key, value, table[key]))
        values[attr or key] = load(value) if load else value
    return values


def _written(obj, table: dict, **given) -> dict:
    """The record of `obj` by `table`: each key's attribute as its kind writes it, or the
    value `given` for the key."""
    record = {}
    for key, (_, _, dump, attr, _) in table.items():
        value = given[key] if key in given else getattr(obj, attr or key)
        record[key] = dump(value) if dump and key not in given else value
    return record


def _least(n: int) -> Kind:
    """An integer of at least `n`."""
    return Kind(lambda v, at: type(v) is int and v >= n,
                why=lambda v: f"must be at least {n}" if type(v) is int else "expected an integer")


def _workload_error(text) -> Optional[str]:
    """What is wrong with `text` as a task's workload reference, or None."""
    if type(text) is not str or not text.strip():
        return "expected a non-empty string"
    try:
        parse_workload(text)
    except ValueError as exc:
        return str(exc)
    return None


TEXT = Kind(lambda v, at: type(v) is str)
STRIPPED = Kind(lambda v, at: type(v) is str and v.strip() != "", str.strip,  # read stripped
                why=lambda v: "expected a non-empty string")
BOOL = Kind(lambda v, at: type(v) is bool, why=lambda v: "expected a boolean")
INTEGER = Kind(lambda v, at: type(v) is int, why=lambda v: "expected an integer")
COUNT = _least(0)
POSITIVE = _least(1)
RECORD = Kind(lambda v, at: type(v) is dict, why=lambda v: "expected a mapping")

WORKSPACE = dict.fromkeys(("subscription", "resource_group", "region", "storage_account",
                           "batch_account"), STRIPPED)
CREDENTIALS = dict.fromkeys(("storage_key", "batch_key"), STRIPPED)
POOL_CONFIG = {"id": STRIPPED._replace(attr="pool_id"), "sku": STRIPPED, "region": STRIPPED,
               "vm_count": RECORD, "inter_node_comm": BOOL, "shared_filesystem": BOOL,
               "image": STRIPPED}
VM_COUNT = {"dedicated": INTEGER._replace(attr="dedicated_count"),
            "low_priority": INTEGER._replace(attr="low_priority_count")}
TASK = {  # in the order of checks, which a jobs.yaml message names the first failure of
    "workload": Kind(lambda v, at: _workload_error(v) is None, parse_workload, workload_ref,
                     why=_workload_error),
    "instances": POSITIVE, "id": STRIPPED._replace(attr="task_id"), "procs_per_node": POSITIVE,
    "gpus_per_node": COUNT, "input_dir": STRIPPED, "output_dir": STRIPPED}
JOB = {"id": STRIPPED._replace(attr="job_id"), "pool": STRIPPED._replace(attr="pool_id"),
       "tasks": Kind(lambda v, at: type(v) is list and v != [], why=lambda v: (
           "at least one task required" if type(v) is list else "expected a list"))}


# ---------------------------------------------------------------------------
# parsing


def load_yaml(stream):
    """One YAML document, parsed by libyaml's safe loader (PyYAML must be built with it)."""
    return yaml.load(stream, Loader=yaml.CSafeLoader)


def dump_yaml(doc, stream):
    """`doc` as YAML, keys in their order, by libyaml's safe dumper."""
    yaml.dump(doc, stream, Dumper=yaml.CSafeDumper, sort_keys=False)


def _document(directory: Path, name: str, key: str) -> tuple[dict, tuple]:
    """The `key` mapping of document `name`, and where its keys are reported."""
    path = directory / name
    if not path.is_file():
        raise ValidationError(f"missing configuration document: {path}")
    with open(path) as fh:
        try:
            doc = load_yaml(fh)
        except yaml.YAMLError as exc:
            raise ValidationError(f"{path}: key '<document>': not parseable: {exc}") from None
    if type(doc) is not dict:
        raise ValidationError(f"{path}: key '<document>': top level must be a mapping")
    return _read(doc, {key: RECORD}, (str(path), ""), form=at_key)[key], (str(path), f"{key}.")


def _cross_validate(bundle: ConfigBundle, catalog: Catalog):
    pool, jobs, workspace = bundle.pool, bundle.jobs, bundle.workspace
    if workspace.region not in catalog.regions:
        raise ValidationError(f"workspace region {workspace.region!r} not in catalog")
    if pool.region not in catalog.regions:
        raise ValidationError(f"pool region {pool.region!r} not in catalog")
    sku = catalog.lookup(pool.sku)  # an unknown SKU is a ValidationError there
    if pool.region not in sku.region_availability:
        raise ValidationError(f"SKU {sku.name} is not available in region {pool.region!r}")
    if jobs.pool_id != pool.pool_id:
        raise ValidationError(
            f"jobs document targets pool {jobs.pool_id!r} but pool document defines "
            f"{pool.pool_id!r}"
        )
    for task in jobs.tasks:
        if task.gpus_per_node > sku.gpu_count:
            raise ValidationError(
                f"task {task.task_id!r} wants {task.gpus_per_node} GPUs per node; "
                f"{sku.name} has {sku.gpu_count}"
            )
        if task.procs_per_node > sku.vcores:
            raise ValidationError(
                f"task {task.task_id!r} wants {task.procs_per_node} processes per node; "
                f"{sku.name} has {sku.vcores} vcores"
            )


def parse_config_dir(path, catalog: Catalog) -> ConfigBundle:
    """Load and cross-validate the four documents from one directory, each read whole
    before the next is loaded."""
    directory = Path(path)
    if not directory.is_dir():
        raise ValidationError(f"missing configuration document: {directory}")
    doc, where = _document(directory, "workspace.yaml", "workspace")
    workspace = WorkspaceConfig(**_read(doc, WORKSPACE, where, form=at_key))
    doc, where = _document(directory, "credentials.yaml", "credentials")
    credentials = CredentialsConfig(**_read(doc, CREDENTIALS, where, form=at_key))
    pool = pool_from_doc(*_document(directory, "pool.yaml", "pool"))
    jobs = _jobs_from_doc(*_document(directory, "jobs.yaml", "job"))
    bundle = ConfigBundle(workspace, credentials, pool, jobs)
    _cross_validate(bundle, catalog)
    return bundle


# ---------------------------------------------------------------------------
# document codec: one writer and one reader per config type, shared by the
# YAML bundle and the embedded copies in state.json (parse . write == identity)


def pool_to_doc(cfg: PoolConfig) -> dict:
    return _written(cfg, POOL_CONFIG, vm_count=_written(cfg, VM_COUNT))


def pool_from_doc(doc: dict, where: tuple) -> PoolConfig:
    values = _read(doc, POOL_CONFIG, where, form=at_key)
    path, prefix = where
    counts = _read(values.pop("vm_count"), VM_COUNT, (path, f"{prefix}vm_count."), form=at_key)
    if min(counts.values()) < 0:
        raise ValidationError(f"{path}: key '{prefix}vm_count': counts must be non-negative")
    if sum(counts.values()) < 1:
        raise ValidationError(f"{path}: key '{prefix}vm_count': pool must request at least "
                              f"one node")
    return PoolConfig(**values, **counts)


def _jobs_from_doc(doc: dict, where: tuple) -> JobsConfig:
    """jobs.yaml's job, its tasks read first."""
    path, prefix = where
    tasks = []
    for idx, entry in enumerate(_read(doc, {"tasks": JOB["tasks"]}, where, form=at_key)["tasks"]):
        if type(entry) is not dict:
            raise ValidationError(f"{path}: key '{prefix}tasks[{idx}]': expected a mapping")
        tasks.append(TaskSpec(**_read(entry, TASK, (path, f"{prefix}tasks[{idx}]."), form=at_key)))
    if len({t.task_id for t in tasks}) != len(tasks):
        raise ValidationError(f"{path}: key '{prefix}tasks': task ids must be unique within "
                              f"the job")
    return JobsConfig(**{**_read(doc, JOB, where, form=at_key), "tasks": tuple(tasks)})


# the order of a task spec's values in a state.json task row and in jobs.yaml
TASK_SPEC_KEYS = ("id", "workload", "instances", "procs_per_node", "gpus_per_node", "input_dir",
                  "output_dir")


def bundle_documents(bundle: ConfigBundle) -> dict[str, dict]:
    tasks = [dict(zip(TASK_SPEC_KEYS, (t.task_id, workload_ref(t.workload), *t[2:])))
             for t in bundle.jobs.tasks]
    return {"workspace.yaml": {"workspace": _written(bundle.workspace, WORKSPACE)},
            "credentials.yaml": {"credentials": _written(bundle.credentials, CREDENTIALS)},
            "pool.yaml": {"pool": pool_to_doc(bundle.pool)},
            "jobs.yaml": {"job": _written(bundle.jobs, JOB, tasks=tasks)}}


def serialize_config_dir(bundle: ConfigBundle, path):
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    for name, doc in bundle_documents(bundle).items():
        with open(directory / name, "w") as fh:
            dump_yaml(doc, fh)


# ---------------------------------------------------------------------------
# pool admission


@dataclass(frozen=True)
class Violation:  # a pool rule broken as a warning; a rule that blocks creation raises
    rule: str
    message: str


def validate_pool(cfg: PoolConfig, catalog: Catalog, available: RegionQuota) -> list[Violation]:
    """Raise the first broken pool rule in the order dedicated quota, low-priority
    quota, RDMA, shared filesystem; else return the warnings, which do not block creation."""
    sku = catalog.lookup(cfg.sku)
    for needed, cores in ((cfg.dedicated_count * sku.vcores, available.dedicated_cores),
                          (cfg.low_priority_count * sku.vcores, available.low_priority_cores)):
        if needed > cores:
            raise ValidationError(f"quota exceeded in region {cfg.region}: needed {needed} cores, "
                                  f"available {cores}")
    if cfg.inter_node_comm and not sku.rdma_capable:
        raise ValidationError(f"inter-node communication requires an RDMA-capable SKU; "
                              f"{sku.name} has none")
    if cfg.shared_filesystem and cfg.low_priority_count > 0:
        raise ValidationError("a shared filesystem pool cannot include low-priority nodes")
    if cfg.low_priority_count > 0 and cfg.inter_node_comm:
        return [Violation("LowPriorityInterNodeComm",
                          "low-priority nodes are preemptible and best avoided for "
                          "long-running jobs with inter-node communication")]
    return []
