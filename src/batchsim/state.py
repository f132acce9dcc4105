"""Workspace persistence for the CLI.

One command per process invocation: service state is rehydrated from
structured JSON under .batchsim/ before a command and written back after.
Because every RNG stream is derived by hashing (seed, purpose), nothing
about generator state needs saving; pending events are reconstructed from
entity timestamps, and a node's busy intervals that a task row records are
rebuilt from the rows, so only the others (attempts that were retried, or
whose job was re-added) are stored.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import posixpath
import re
import shutil
from bisect import bisect_left
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import partial
from itertools import chain, islice, repeat
from operator import attrgetter, is_not, ne
from pathlib import Path
from typing import Optional

from .batch import (IMAGE_PULL_SECONDS, BatchService, FailureReason, Job, JobState, Pool,
                    PoolState, Task, TaskState, pool_node)
from .billing import MeterEvent, ServiceCategory
from .catalog import Catalog, PricingPlan, RegionQuota, SkuSpec, default_catalog
from .config import (_FLOAT_MAX, BOOL, COUNT, INTEGER, POSITIVE, RECORD, TASK, TASK_SPEC_KEYS,
                     TEXT, VM_COUNT, WORKSPACE, At, ConfigBundle, Kind, TaskSpec, _read, _written,
                     at_key, of_owner, pool_from_doc, pool_to_doc)
from .errors import ValidationError
from .fabric import DEFAULT_PREEMPTION_RATE, INTERCONNECTS, NodeState, Priority
from .storage import FileShare, ShareEntry, is_share_name
from .workloads import workload_ref

STATE_VERSION = 3
STATE_DIR = ".batchsim"
STATE_DOCUMENT = "state.json"  # where the readers report errors in embedded documents
# the documents of a config snapshot; catalog.yaml only in that of an init with --catalog
SNAPSHOT = ("catalog.yaml", "credentials.yaml", "jobs.yaml", "pool.yaml", "workspace.yaml")


@contextlib.contextmanager
def _gc_paused():
    """Pause cyclic GC: a state document is acyclic, so a pass would only re-walk the heap."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# field tables: each record kind of state.json, and of a catalog document, as key -> kind


def _finite(value) -> bool:
    """A JSON number that is a finite float, or an int within a float's range (no bool)."""
    return type(value) in (int, float) and -_FLOAT_MAX <= value <= _FLOAT_MAX


def _optional(kind: Kind) -> Kind:
    return kind._replace(ok=lambda v, at: v is None or kind.ok(v, at),
                         load=kind.load and (lambda v: None if v is None else kind.load(v)),
                         dump=kind.dump and (lambda v: None if v is None else kind.dump(v)))


def _enum(members) -> Kind:  # one of `members`, an Enum or some of its members, by its value
    members = {m.value: m for m in members}
    return Kind(lambda v, at: type(v) is str and v in members, members.__getitem__,
                attrgetter("_value_"))  # not the `value` property: a C-level read


def _span(row, at: At) -> bool:
    """Whether row[0] <= row[1] <= at.now, both finite."""
    return _finite(row[0]) and _finite(row[1]) and row[0] <= row[1] <= at.now


_PLANS = {p.value: p for p in PricingPlan}

AMOUNT = Kind(lambda v, at: _finite(v) and v >= 0)  # a rate or a duration
INSTANT = Kind(lambda v, at: type(v) in (int, float) and -_FLOAT_MAX <= v <= at.now)
REFERENCE = Kind(lambda v, at: type(v) is str and v in at.names)
RECORDS = Kind(lambda v, at: type(v) is list and {*map(type, v)} <= {dict})
TEXTS = Kind(lambda v, at: type(v) is list and {*map(type, v)} <= {str}, dump=list)
FRACTION = Kind(lambda v, at: type(v) is str and re.fullmatch(r"[0-9]+/[1-9][0-9]*", v), Fraction,
                lambda f: f"{f.numerator}/{f.denominator}")

STATE = {  # the top level, as new_workspace_state writes it
    "version": Kind(lambda v, at: type(v) is int and v == STATE_VERSION),
    "options": RECORD, "catalog_doc": _optional(RECORD), "workspace": RECORD, "service": RECORD,
    "transcript": Kind(lambda v, at: type(v) is list and all(  # as Cli.commit records them
        type(argv) is list and {*map(type, argv)} <= {str} for argv in v),
        why=lambda v: "expected a list of argument lists"),
    "events_bytes": COUNT}
OPTIONS = {
    "seed": INTEGER,
    "interconnect": Kind(lambda v, at: type(v) is str and v in INTERCONNECTS),
    "preemption_rate": AMOUNT, "image_pull_seconds": AMOUNT, "task_retries": COUNT,
    "scarcity_windows": Kind(lambda v, at: type(v) is list and all(
        type(w) is list and len(w) == 2 and _span(w, At()) and w[0] < w[1] for w in v),
        lambda v: tuple(map(tuple, v)), lambda v: [list(w) for w in v])}
SERVICE = {"time": INSTANT, "quotas": RECORD, "pools": RECORDS, "jobs": RECORDS,
           "shares": RECORDS, "ledger": RECORDS}
QUOTA = {"region": REFERENCE, "quota": Kind(lambda v, at: type(v) is list and len(v) == 2 and all(
    type(c) is int and c >= 0 for c in v))}
POOL = {"config": RECORD, "state": _enum(PoolState), "created_at": INSTANT,
        "steady_at": _optional(INSTANT), "deleted_at": _optional(INSTANT), "nodes": RECORDS}
NODE = {"state": _enum(NodeState), "ready_time": _optional(INSTANT),  # id and priority: by
        "released_time": _optional(INSTANT),  # the node's position (batch.pool_node)
        "preempt_at": _optional(Kind(lambda v, at: _finite(v))),  # a pending preemption
        "busy_log": Kind(lambda v, at: type(v) is list and all(
            type(r) is list and len(r) == 3 and _span(r, at) and type(r[2]) is str for r in v),
            lambda v: [tuple(r) for r in v])}
JOB = {"id": TEXT._replace(attr="job_id"), "pool": REFERENCE._replace(attr="pool_id"),
       "state": _enum(JobState), "submitted_at": INSTANT,
       "tasks": Kind(lambda v, at: type(v) is list and {*map(type, v)} <= {list})}  # rows
# a task row of a job's tasks: the TASK_SPEC_KEYS values, then these six
TASK_ROW_KEYS = (*TASK_SPEC_KEYS, "state", "nodes", "start", "end", "reason", "attempts")
_PERSISTED_TASK_STATES = {s.value: s for s in TaskState if s is not TaskState.RUNNING}
_FAILURE_REASONS = {None: None, **{r.value: r for r in FailureReason}}
TASK_ROW = {  # in the order of checks, the spec's last: any other bad value names the row
    "state": _enum(_PERSISTED_TASK_STATES.values()),
    "nodes": Kind(lambda v, at: type(v) is list and {*map(type, v)} <= {str}
                  and len({*v}) == len(v), tuple, list, "assigned_nodes"),  # distinct node ids
    "start": _optional(INSTANT)._replace(attr="start_time"),
    "end": _optional(INSTANT)._replace(attr="end_time"),
    "reason": Kind(lambda v, at: (v is None or type(v) is str) and v in _FAILURE_REASONS,
                   _FAILURE_REASONS.__getitem__, lambda r: r and r._value_, "failure_reason"),
    "attempts": COUNT, **TASK}
SHARE = {"name": Kind(lambda v, at: is_share_name(v)), "quota_gib": COUNT, "entries": RECORDS}
ENTRY = {"path": Kind(lambda v, at: type(v) is str and v == posixpath.normpath(v) != "."
                      and not v.startswith(("/", ".."))),  # a path that stays in its share
         "size": COUNT._replace(attr="size_bytes"), "digest": TEXT,
         "content_hex": _optional(Kind(lambda v, at: type(v) is str and len(v) % 2 == 0
                                       and not v.strip("0123456789abcdef"),  # lower-case hex
                                       bytes.fromhex, bytes.hex, "content"))}
LEDGER_ITEM = {"category": _enum(ServiceCategory), "usd": FRACTION, "description": TEXT,
               "interval": Kind(lambda v, at: type(v) is list and len(v) == 2 and _span(v, at),
                                tuple, list),
               "sku": _optional(TEXT), "node_seconds": _optional(FRACTION)}
CATALOG = {"skus": RECORDS, "quotas": Kind(lambda v, at: type(v) is dict and all(
    type(region) is str and type(q) is dict for region, q in v.items()))}
SKU = {"name": TEXT, "vcores": POSITIVE, "ram_gib": POSITIVE, "ssd_gib": COUNT,
       "gpu_count": COUNT, "gpu_model": TEXT, "rdma_capable": BOOL,
       "regions": Kind(lambda v, at: type(v) is list and all(type(r) is str for r in v),
                       frozenset, sorted, "region_availability"),
       "prices": Kind(  # each plan's rate: positive decimal text, as written, or a number
           lambda v, at: type(v) is dict and v.keys() == _PLANS.keys() and all(
               (_finite(p) or type(p) is str and re.fullmatch(r"[0-9]+(\.[0-9]+)?", p))
               and Decimal(str(p)) > 0 for p in v.values()),
           lambda v: {_PLANS[plan]: Decimal(str(rate)) for plan, rate in v.items()},
           lambda v: {plan.value: str(rate) for plan, rate in v.items()})}
REGION_QUOTA = {"dedicated_cores": COUNT, "low_priority_cores": COUNT}

# the document `batchsim status` prints, in the kinds of state.json's records
STATUS_POOL = {"id": TEXT._replace(attr="pool_id"), "sku": TEXT, "region": TEXT,
               "dedicated": COUNT, "low_priority": COUNT, "shared_fs_mounted": BOOL,
               "warnings": TEXTS, "nodes": RECORDS,
               **{key: POOL[key] for key in ("state", "created_at", "steady_at", "deleted_at")}}
STATUS_NODE = {"id": TEXT._replace(attr="node_id"), "state": NODE["state"],
               "priority": _enum(Priority),
               "ready_at": NODE["ready_time"]._replace(attr="ready_time"),
               "released_at": NODE["released_time"]._replace(attr="released_time")}
STATUS_JOB = {**{key: JOB[key] for key in ("id", "pool", "state", "submitted_at")},
              "tasks": RECORDS}
STATUS_TASK = {"id": TEXT, "state": _enum(TaskState), "instances": POSITIVE,
               "nodes": TEXTS._replace(attr="assigned_nodes"),
               "start_time": TASK_ROW["start"], "end_time": TASK_ROW["end"],
               "failure": TASK_ROW["reason"]}
STATUS_SHARE = {"name": SHARE["name"], "quota_gib": COUNT, "used_bytes": COUNT,
                "entries": COUNT}


@dataclass
class ServiceOptions:
    seed: int = 0
    interconnect: str = "azure"
    preemption_rate: float = DEFAULT_PREEMPTION_RATE
    image_pull_seconds: float = IMAGE_PULL_SECONDS
    task_retries: int = 0
    scarcity_windows: tuple[tuple[float, float], ...] = ()

    def to_doc(self) -> dict:
        return _written(self, OPTIONS)

    @classmethod
    def from_doc(cls, doc: dict) -> "ServiceOptions":
        """The stored options as `workspace init` writes them; none is converted."""
        return cls(**_read(doc, OPTIONS, "options"))


def build_service(options: ServiceOptions, catalog: Optional[Catalog] = None) -> BatchService:
    """The service of `options`, each passed as the BatchService keyword of its name."""
    return BatchService(catalog or default_catalog(), **{
        **vars(options), "interconnect": INTERCONNECTS[options.interconnect]})


def catalog_to_doc(catalog: Catalog) -> dict:
    return {"skus": [_written(sku, SKU) for sku in catalog.skus],
            "quotas": {region: _written(quota, REGION_QUOTA)
                       for region, quota in catalog.default_quotas().items()}}


def catalog_from_doc(doc: dict, label="corrupt state") -> Catalog:
    """The catalog of a `--catalog` document or of a state's `catalog_doc`, read through
    the tables; a bad leaf is a ValidationError that starts with `label`."""
    form = of_owner(label)
    _read(doc, CATALOG, "catalog", form=form)
    skus = [SkuSpec(**_read({"gpu_model": "", **s}, SKU, f"sku {s.get('name')}", form=form))
            for s in doc["skus"]]
    quotas = {r: RegionQuota(**_read(q, REGION_QUOTA, f"region {r}", form=form))
              for r, q in doc["quotas"].items()}
    return Catalog(skus, quotas)


# ---------------------------------------------------------------------------
# service <-> state document


def _task(row: list, job_id: str, prefix: str, at: At) -> Task:
    """The task of a row of job `job_id` read through TASK_ROW; `prefix` places its keys."""
    if len(row) != len(TASK_ROW_KEYS):
        raise ValidationError(f"corrupt state: task row of {len(row)} values")
    values = _read(dict(zip(TASK_ROW_KEYS, row)), TASK_ROW, (STATE_DOCUMENT, prefix), at,
                   lambda where, key, value, kind: at_key(where, key, value, kind) if key in TASK
                   else f"corrupt state: task row {row!r} of job {job_id}")
    return Task(TaskSpec(*map(values.pop, TaskSpec._fields)), job_id, **values)


def _column_tasks(rows: list, job_ids, now: float) -> list[Task]:
    """The tasks of `rows`, checked at once, a column at a time, by C-level builtins; a
    ValueError unless there are rows and TASK_ROW takes each."""
    (ids, workloads, instances, procs, gpus, inputs, outputs, states, nodes, starts, ends,
     reasons, attempts) = columns = [*zip(*rows, strict=True)]  # 13 values in each row
    times = [*filter(partial(is_not, None), starts + ends)]
    if not ({*map(type, chain(ids, inputs, outputs, workloads, states))} == {str}
            and all(map(str.strip, chain(ids, inputs, outputs)))
            and {*map(type, instances + procs + gpus + attempts)} == {int}  # a bool is no int
            and min(instances + procs) >= 1 and min(gpus + attempts) >= 0
            and {*states} <= _PERSISTED_TASK_STATES.keys()
            and {*map(type, reasons)} <= {str, type(None)} and {*reasons} <= _FAILURE_REASONS.keys()
            and {*map(type, nodes)} == {list} and {*map(type, chain(*nodes))} <= {str}
            and [*map(len, nodes)] == [*map(len, map(set, nodes))]  # distinct node ids
            and {*map(type, times)} <= {int, float} and (not times or -_FLOAT_MAX <= min(times)
                 and max(times) <= now and not any(map(ne, times, times)))):  # NaN != NaN
        raise ValueError("a task row that TASK_ROW does not take")
    values = [map(kind.load, column) if kind.load else column
              for kind, column in zip(map(TASK_ROW.get, TASK_ROW_KEYS), columns)]
    return [*map(Task, map(TaskSpec, *values[:7]), job_ids, *values[7:])]


def _jobs_from_doc(docs: list, at: At) -> list[Job]:
    """The jobs of `docs`. The task rows of all jobs are checked at once; only if that fails
    are they read again a row at a time, which raises the first bad value's message."""
    with contextlib.suppress(ValidationError, ValueError):
        jobs = [_read(jdoc, JOB, f"job {jdoc.get('id')}", at) for jdoc in docs]
        ids, sizes = [job["job_id"] for job in jobs], [len(job["tasks"]) for job in jobs]
        tasks = iter(_column_tasks([*chain.from_iterable(job["tasks"] for job in jobs)],
                                   chain.from_iterable(map(repeat, ids, sizes)), at.now))
        if len({*ids}) == len(ids):
            return [Job(**{**job, "tasks": [*islice(tasks, size)]})
                    for job, size in zip(jobs, sizes)]
    jobs = {}
    for j, jdoc in enumerate(docs):
        values = _read(jdoc, JOB, f"job {jdoc.get('id')}", at)
        job_id = values["job_id"]
        if job_id in jobs:
            raise ValidationError(f"corrupt state: job {job_id!r} twice")
        values["tasks"] = [_task(row, job_id, f"service.jobs[{j}].tasks[{k}].", at)
                           for k, row in enumerate(values["tasks"])]
        jobs[job_id] = Job(**values)
    return [*jobs.values()]


def _recording_tasks(svc: BatchService, pool: Pool) -> list[Task]:
    """The tasks whose row records a busy interval (start_time, end_time, run_tag) on each
    of its assigned_nodes in `pool`: every row that shows an attempt that ran.

    Only a start after the pool's creation counts: a pool deleted and re-added under its
    id reuses its node ids, and a new node boots for at least BOOT_LATENCY_RANGE[0] s.
    """
    pool_id, created = pool.pool_id, pool.created_at
    return [task for job in svc.jobs.values() if job.pool_id == pool_id for task in job.tasks
            if task.start_time is not None and task.start_time > created]


@_gc_paused()
def service_to_doc(svc: BatchService) -> dict:
    pools = []
    for pool in svc.pools.values():
        # a row's interval is one tuple shared by its nodes' busy_logs (Task.interval)
        recorded = {id(t.interval) for t in _recording_tasks(svc, pool) if t.interval}
        pools.append(_written(pool, POOL, config=pool_to_doc(pool.config), nodes=[
            _written(n, NODE, busy_log=[list(b) for b in n.busy_log if id(b) not in recorded])
            for n in pool.nodes]))
    jobs = [_written(job, JOB, tasks=[  # each row as TASK_ROW's kinds write it
        [t.spec.task_id, workload_ref(t.spec.workload), *t.spec[2:], t.state._value_,
         list(t.assigned_nodes), t.start_time, t.end_time,
         t.failure_reason and t.failure_reason._value_, t.attempts]
        for t in job.tasks]) for job in svc.jobs.values()]
    shares = [_written(share, SHARE, entries=[_written(e, ENTRY) for _, e in
                                              sorted(share.entries.items())])
              for share in svc.storage.shares.values()]
    return {
        "time": svc.clock.now,
        "quotas": {r: [q.dedicated_cores, q.low_priority_cores] for r, q in svc.quotas.items()},
        "pools": pools,
        "jobs": jobs,
        "shares": shares,
        "ledger": [_written(item, LEDGER_ITEM) for item in svc.ledger.items],
    }


def status_doc(svc: BatchService) -> dict:
    """What `batchsim status` prints: each record by its STATUS_* table, and each region's
    quota with the cores of its pools that are not deleted."""
    return {
        "time": svc.clock.now,
        "quotas": {r: {**_written(q, REGION_QUOTA), **dict(zip(
            ("dedicated_used", "low_priority_used"), svc.quota_used(r)))}
            for r, q in svc.quotas.items()},
        "pools": [_written(pool, STATUS_POOL, **_written(pool.config, VM_COUNT),
                           sku=pool.config.sku, region=pool.config.region,
                           warnings=[*pool.config.warnings],
                           nodes=[_written(n, STATUS_NODE) for n in pool.nodes])
                  for pool in svc.pools.values()],
        "jobs": [_written(job, STATUS_JOB, tasks=[
            _written(t, STATUS_TASK, id=t.spec.task_id, instances=t.spec.instances)
            for t in job.tasks]) for job in svc.jobs.values()],
        "shares": [_written(share, STATUS_SHARE, entries=len(share.entries))
                   for share in svc.storage.shares.values()],
    }


@_gc_paused()
def service_from_doc(doc: dict, options: ServiceOptions,
                     catalog: Optional[Catalog] = None) -> BatchService:
    svc = build_service(options, catalog)
    # every stored instant but a preempt_at is at most the service time
    svc.clock.now = now = _read(doc, SERVICE, "service")["time"]
    at, regions = At(now), At(names=frozenset(svc.catalog.regions))
    svc.quotas = {}
    for region, cores in doc["quotas"].items():
        quota = _read({"region": region, "quota": cores}, QUOTA, f"region {region}", regions)
        svc.quotas[region] = RegionQuota(*quota["quota"])
    for sdoc in doc["shares"]:
        values = _read(sdoc, SHARE, f"share {sdoc.get('name')}")
        share = FileShare(values["name"], values["quota_gib"])
        for e in values["entries"]:
            owner = f"{share.name}/{e.get('path')}"
            entry = _read(e, ENTRY, owner)
            digest = entry.pop("digest")
            entry = ShareEntry(**entry)
            if entry.digest != digest:
                raise ValidationError(f"corrupt state: digest {digest!r} of {owner}")
            if entry.content is not None and entry.size_bytes != len(entry.content):
                raise ValidationError(f"corrupt state: size {entry.size_bytes} of {owner}")
            share.put(entry)
        if share.name in svc.storage.shares:
            raise ValidationError(f"corrupt state: share {share.name!r} twice")
        svc.storage.shares[share.name] = share
    skus = {sku.name for sku in svc.catalog.skus}
    for i, pdoc in enumerate(doc["pools"]):
        config = pdoc.get("config")
        owner = f"pool {config.get('id') if type(config) is dict else config}"
        values = _read(pdoc, POOL, owner, at)
        cfg = pool_from_doc(values["config"], (STATE_DOCUMENT, f"service.pools[{i}].config."))
        if cfg.sku not in skus or cfg.region not in regions.names:  # as pool add found them
            raise ValidationError(f"corrupt state: config sku {cfg.sku!r}, region "
                                  f"{cfg.region!r} of {owner}")
        plan = pdoc.get("plan", PricingPlan.PAYGO_DEDICATED.value)
        if plan != PricingPlan.PAYGO_DEDICATED.value:  # a pool bills by node priority alone
            raise ValidationError(f"corrupt state: pricing plan {plan!r} of pool {cfg.pool_id}")
        if len(values["nodes"]) != cfg.node_count:  # each is node i of cfg, as pool add made it
            raise ValidationError(f"corrupt state: node count {len(values['nodes'])} of {owner}")
        pool = Pool(**{**values, "config": cfg, "nodes": []})
        for position, ndoc in enumerate(pdoc["nodes"]):
            node = pool_node(cfg, position)
            owner = f"node {node.node_id}"
            for attr, value in _read(ndoc, NODE, owner, at).items():
                setattr(node, attr, value)
            if node.state is NodeState.STARTING and node.released_time is None:
                # every command that creates nodes runs until they are ready
                raise ValidationError("corrupt state: persisted node still starting")
            # a preemption pends on a low-priority node alone, never earlier than the clock
            pending = pool.alive and node.state in (NodeState.IDLE, NodeState.RUNNING)
            if node.preempt_at is not None and (node.priority is Priority.DEDICATED
                                                or pending and node.preempt_at < now):
                raise ValidationError(f"corrupt state: preempt_at {node.preempt_at!r} of {owner}")
            pool.nodes.append(node)
        if cfg.pool_id in svc.pools:
            raise ValidationError(f"corrupt state: pool {cfg.pool_id!r} twice")
        pool.idle = [n for n in pool.nodes if n.state is NodeState.IDLE]
        svc.pools[cfg.pool_id] = pool
    for job in _jobs_from_doc(doc["jobs"], At(now, frozenset(svc.pools))):
        svc.enqueue(job)
    for number, item in enumerate(doc["ledger"]):
        svc.ledger.add(MeterEvent(**_read(item, LEDGER_ITEM, f"ledger item {number}", at)))
    for pool in svc.pools.values():
        # each node's busy_log: the intervals that rows record, one tuple a row kept as its
        # Task.interval, and the stored ones not among them, in the service's order
        logs = {n.node_id: [] for n in pool.nodes}  # in node order: the ids are distinct
        for task in _recording_tasks(svc, pool):
            start, end, tag = task.start_time, task.end_time, task.run_tag
            if end is None or start > end:  # each is an instant or None, as its row was read
                raise ValidationError(f"corrupt state: task times {start!r}, {end!r} of {tag}")
            task.interval = interval = (start, end, tag)
            try:
                for node_id in task.assigned_nodes:
                    logs[node_id].append(interval)
            except KeyError:
                raise ValidationError(f"corrupt state: task node {node_id!r} of {tag} is not "
                                      f"in pool {pool.pool_id}") from None
        for node, log in zip(pool.nodes, logs.values()):
            log.sort()
            for interval in node.busy_log:
                i = bisect_left(log, interval)
                if i == len(log) or log[i] != interval:
                    log.insert(i, interval)
            node.busy_log = log
        for node in pool.nodes if pool.alive else ():  # the pending low-priority preemptions
            if node.preempt_at is not None and node.state in (NodeState.IDLE, NodeState.RUNNING):
                svc.schedule_preemption(pool, node)
    return svc


# ---------------------------------------------------------------------------
# workspace documents


def new_workspace_state(options: ServiceOptions, bundle: ConfigBundle,
                        catalog_doc: Optional[dict] = None) -> dict:
    """A new workspace's state; the creating command fills `service` and `transcript`."""
    return {
        "version": STATE_VERSION,
        "options": options.to_doc(),
        "catalog_doc": catalog_doc,
        "workspace": _written(bundle.workspace, WORKSPACE),
        "service": None,
        "transcript": [],
        "events_bytes": 0,  # size of events.log after the last committed command
    }


def read_state(doc) -> tuple[dict, BatchService]:
    """A workspace state document read through the tables, and the service it holds. Only
    the table's keys are kept, and `options` as they were read, so a key that nothing
    reads is not written back."""
    if not isinstance(doc, dict):
        raise ValidationError("corrupt state: not a workspace state document")
    if doc.get("version") != STATE_VERSION:
        raise ValidationError(f"corrupt state: unsupported state version {doc.get('version')}")
    state = _read(doc, STATE, "state")
    _read(state["workspace"], WORKSPACE, (STATE_DOCUMENT, "workspace."), form=at_key)
    catalog_doc = state["catalog_doc"]
    catalog = default_catalog() if catalog_doc is None else catalog_from_doc(catalog_doc)
    options = ServiceOptions.from_doc(state["options"])
    state["options"] = options.to_doc()
    return state, service_from_doc(state["service"], options, catalog)


class WorkspaceStore:
    """On-disk layout: state.json, events.log, ledger.tsv, configs/<id>/, ingress/."""

    def __init__(self, root):
        self.root = Path(root)
        self.dir = self.root / STATE_DIR
        self.state_path = self.dir / "state.json"
        self.events_path = self.dir / "events.log"
        self.ledger_path = self.dir / "ledger.tsv"
        self.configs_dir = self.dir / "configs"
        self.ingress_dir = self.dir / "ingress"

    def load(self) -> dict:
        with open(self.state_path) as fh, _gc_paused():
            return json.load(fh)

    def save(self, state: dict):
        """Write `state` compact and key-sorted (one C-encoder pass), then rename it in."""
        with _gc_paused():  # a non-finite float, which JSON cannot hold, raises ValueError
            text = json.dumps(state, separators=(",", ":"), sort_keys=True,
                              allow_nan=False) + "\n"
        self.dir.mkdir(exist_ok=True)
        with replacing(self.state_path) as fh:
            fh.write(text)

    def append_events(self, lines: list[str]) -> int:
        """Append `lines` to events.log; returns its size in bytes afterwards."""
        with open(self.events_path, "a") as fh:
            fh.write("\n".join(lines) + "\n")
        return self.events_path.stat().st_size

    def named(self, transcript: list) -> list[Path]:
        """The snapshots and ingress manifests that the --configdir and --manifest values of
        `transcript` name, each snapshot followed by its documents (with catalog.yaml if an
        init that records --catalog names it), in path order: what configs/ and ingress/ hold."""
        paths = {self.root / value for argv in transcript for flag, value in zip(argv, argv[1:])
                 if flag in ("--configdir", "--manifest")}
        paths = {p for p in paths if p.parent in (self.configs_dir, self.ingress_dir)}
        catalogued = {self.root / argv[-1] for argv in transcript if "--catalog" in argv}
        return sorted([*paths, *(p / d for p in paths if p.parent == self.configs_dir
                                 for d in SNAPSHOT if d != "catalog.yaml" or p in catalogued)])

    def restore(self, events_bytes: int, tsv: str, transcript: list):
        """Make .batchsim/ what a committed state names: events.log of `events_bytes` bytes,
        absent at 0; in configs/ and ingress/ only what `named(transcript)` gives, and neither
        dir if empty; no .state.json.tmp or .ledger.tsv.tmp; ledger.tsv of `tsv`, written last.
        A shorter log lost lines that the state records: a ValidationError before any write."""
        logged = self.events_path.stat().st_size if self.events_path.is_file() else 0
        if logged < events_bytes:  # a package made from it would not verify
            raise ValidationError(f"corrupt state: events.log of {logged} bytes is shorter "
                                  f"than events_bytes {events_bytes}")
        if not events_bytes:
            self.events_path.unlink(missing_ok=True)
        elif logged > events_bytes:
            os.truncate(self.events_path, events_bytes)
        named = self.named(transcript)
        for directory in (self.configs_dir, self.ingress_dir):
            for path in {*directory.glob("*")}.difference(named):  # what a killed command left
                (shutil.rmtree if path.is_dir() else os.remove)(path)
            if directory.is_dir() and not any(directory.iterdir()):
                directory.rmdir()
        for path in (self.state_path, self.ledger_path):
            path.with_name(f".{path.name}.tmp").unlink(missing_ok=True)
        if not self.ledger_path.is_file() or self.ledger_path.read_bytes() != tsv.encode():
            self.write_ledger(tsv)

    def write_ledger(self, tsv: str):
        with replacing(self.ledger_path) as fh:
            fh.write(tsv)

    def write_manifest(self, path: Path, rows: list):
        """Write an ingress manifest of (path, bytes) rows, as `--manifest` reads it."""
        path.parent.mkdir(exist_ok=True)
        with replacing(path) as fh:
            json.dump({"entries": [list(row) for row in rows]}, fh, indent=1)
            fh.write("\n")


@contextlib.contextmanager
def replacing(path: Path, mode: str = "w"):
    """Write a temporary file beside `path`, opened in `mode`, then move it over `path`.

    A reader sees the old file or the new one, never a partial write; on
    failure the temporary file is removed and `path` is untouched. No directory
    is made: one missing for `path` is an OSError before anything is written.
    """
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
