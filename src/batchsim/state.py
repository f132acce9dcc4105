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
import sys
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .batch import (IMAGE_PULL_SECONDS, BatchService, FailureReason, Job, JobState, Pool,
                    PoolState, Task, TaskState)
from .billing import MeterEvent, ServiceCategory
from .catalog import Catalog, PricingPlan, RegionQuota, default_catalog
from .config import (TASK_SPEC_KEYS, ConfigBundle, Violation, pool_from_doc,
                     pool_to_doc, task_spec, task_spec_values, workspace_to_doc)
from .errors import ValidationError
from .fabric import DEFAULT_PREEMPTION_RATE, INTERCONNECTS, Node, NodeState, Priority
from .storage import FileShare, ShareEntry

STATE_VERSION = 3
STATE_DIR = ".batchsim"


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


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class ServiceOptions:
    seed: int = 0
    interconnect: str = "azure"
    preemption_rate: float = DEFAULT_PREEMPTION_RATE
    image_pull_seconds: float = IMAGE_PULL_SECONDS
    task_retries: int = 0
    scarcity_windows: tuple[tuple[float, float], ...] = ()

    def to_doc(self) -> dict:
        return {
            "seed": self.seed,
            "interconnect": self.interconnect,
            "preemption_rate": self.preemption_rate,
            "image_pull_seconds": self.image_pull_seconds,
            "task_retries": self.task_retries,
            "scarcity_windows": [list(w) for w in self.scarcity_windows],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "ServiceOptions":
        """The stored options as `workspace init` writes them; none is converted."""
        seed, rate, pull, retries = (doc[key] for key in (
            "seed", "preemption_rate", "image_pull_seconds", "task_retries"))
        windows = tuple(tuple(w) for w in doc["scarcity_windows"])
        for key, ok in (("seed", type(seed) is int), ("preemption_rate", _is_finite(rate)),
                        ("image_pull_seconds", _is_finite(pull) and pull >= 0),
                        ("task_retries", type(retries) is int and retries >= 0),
                        ("scarcity_windows", all(len(w) == 2 and all(map(_is_finite, w))
                                                 and w[0] < w[1] for w in windows))):
            if not ok:
                raise ValidationError(f"corrupt state: {key} {doc[key]!r} of options")
        if rate < 0:
            raise ValueError("rate must be non-negative")
        return cls(seed, doc["interconnect"], rate, pull, retries, windows)


def build_service(options: ServiceOptions, catalog: Optional[Catalog] = None) -> BatchService:
    model = INTERCONNECTS[options.interconnect]
    return BatchService(
        catalog or default_catalog(),
        seed=options.seed,
        interconnect=model,
        preemption_rate=options.preemption_rate,
        scarcity_windows=options.scarcity_windows,
        image_pull_seconds=options.image_pull_seconds,
        task_retries=options.task_retries,
    )


# ---------------------------------------------------------------------------
# service <-> state document


# task row: TASK_SPEC_KEYS values, state, assigned_nodes, start/end_time, failure_reason, attempts
TASK_ROW_LEN = len(TASK_SPEC_KEYS) + 6
_PERSISTED_TASK_STATES = {s.value: s for s in TaskState if s is not TaskState.RUNNING}
_FAILURE_REASONS = {None: None, **{r.value: r for r in FailureReason}}


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _recording_tasks(svc: BatchService, pool: Pool):
    """The tasks whose row records a busy interval (start_time, end_time, run_tag) on each
    of its assigned_nodes in `pool`: every row that shows an attempt that ran.

    Only a start after the pool's creation counts: a pool deleted and re-added under its
    id reuses its node ids, and a new node boots for at least BOOT_LATENCY_RANGE[0] s.
    """
    pool_id, created = pool.pool_id, pool.created_at
    for job in svc.jobs.values():
        if job.pool_id == pool_id:
            for task in job.tasks:
                if task.start_time is not None and task.start_time > created:
                    yield task


@_gc_paused()
def service_to_doc(svc: BatchService) -> dict:
    pools = []
    for pool in svc.pools.values():
        # a row's interval is one tuple shared by its nodes' busy_logs (Task.interval)
        recorded = {id(t.interval) for t in _recording_tasks(svc, pool) if t.interval}
        pools.append(
            {
                "config": pool_to_doc(pool.config),
                "state": pool.state.value,
                "created_at": pool.created_at,
                "steady_at": pool.steady_at,
                "deleted_at": pool.deleted_at,
                "warnings": [{"rule": v.rule, "message": v.message} for v in pool.warnings],
                "nodes": [
                    {
                        "id": n.node_id,
                        "priority": n.priority.value,
                        "state": n.state.value,
                        "ready_time": n.ready_time,
                        "released_time": n.released_time,
                        "preempt_at": n.preempt_at,
                        "busy_log": [list(b) for b in n.busy_log if id(b) not in recorded],
                    }
                    for n in pool.nodes
                ],
            }
        )
    jobs = []
    for job in svc.jobs.values():
        jobs.append(
            {
                "id": job.job_id,
                "pool": job.pool_id,
                "state": job.state.value,
                "submitted_at": job.submitted_at,
                "tasks": [
                    [*task_spec_values(t.spec), t.state.value, list(t.assigned_nodes),
                     t.start_time, t.end_time,
                     t.failure_reason.value if t.failure_reason else None, t.attempts]
                    for t in job.tasks
                ],
            }
        )
    shares = []
    for share in svc.storage.shares.values():
        shares.append(
            {
                "name": share.name,
                "quota_gib": share.quota_gib,
                "entries": [
                    {
                        "path": e.path,
                        "size": e.size_bytes,
                        "digest": e.digest,
                        "content_hex": e.content.hex() if e.content is not None else None,
                    }
                    for _, e in sorted(share.entries.items())
                ],
            }
        )
    ledger_items = []
    for item in svc.ledger.items:
        ledger_items.append(
            {
                "category": item.category.value,
                "usd": _frac(item.usd),
                "description": item.description,
                "interval": list(item.interval),
                "sku": item.sku,
                "node_seconds": _frac(item.node_seconds) if item.node_seconds is not None else None,
            }
        )
    return {
        "time": svc.clock.now,
        "quotas": {r: [q.dedicated_cores, q.low_priority_cores] for r, q in svc.quotas.items()},
        "pools": pools,
        "jobs": jobs,
        "shares": shares,
        "ledger": ledger_items,
    }


@_gc_paused()
def service_from_doc(doc: dict, options: ServiceOptions,
                     catalog: Optional[Catalog] = None) -> BatchService:
    svc = build_service(options, catalog)
    # every stored instant but a preempt_at is at most the service time
    svc.clock.now = now = _instant(doc, "time", "service", optional=False)
    svc.quotas = {}
    for region, cores in doc["quotas"].items():
        if not (type(cores) is list and len(cores) == 2
                and all(type(c) is int and c >= 0 for c in cores)):
            raise ValidationError(f"corrupt state: quota {cores!r} of region {region}")
        svc.quotas[region] = RegionQuota(region, *cores)
    for sdoc in doc["shares"]:
        share = FileShare(name=sdoc["name"], quota_gib=int(sdoc["quota_gib"]))
        for e in sdoc["entries"]:
            content = bytes.fromhex(e["content_hex"]) if e["content_hex"] is not None else None
            entry = ShareEntry(e["path"], int(e["size"]), content)
            if entry.digest != e["digest"]:
                raise ValidationError(f"corrupt state: digest of {share.name}/{entry.path}")
            if content is not None and entry.size_bytes != len(content):
                raise ValidationError(f"corrupt state: size of {share.name}/{entry.path}")
            share.put(entry)
        svc.storage.shares[share.name] = share
    for pdoc in doc["pools"]:
        cfg = pool_from_doc(pdoc["config"])
        plan = pdoc.get("plan", PricingPlan.PAYGO_DEDICATED.value)
        if plan != PricingPlan.PAYGO_DEDICATED.value:  # a pool bills by node priority alone
            raise ValidationError(f"corrupt state: pricing plan {plan!r} of pool {cfg.pool_id}")
        owner = f"pool {cfg.pool_id}"
        pool = Pool(config=cfg, state=PoolState(pdoc["state"]),
                    created_at=_instant(pdoc, "created_at", owner, now, optional=False),
                    steady_at=_instant(pdoc, "steady_at", owner, now),
                    deleted_at=_instant(pdoc, "deleted_at", owner, now))
        pool.warnings = [Violation(w["rule"], w["message"]) for w in pdoc["warnings"]]
        for position, ndoc in enumerate(pdoc["nodes"]):
            node = Node(ndoc["id"], Priority(ndoc["priority"]), position)
            owner = f"node {node.node_id}"
            node.state = NodeState(ndoc["state"])
            node.ready_time = _instant(ndoc, "ready_time", owner, now)
            node.released_time = _instant(ndoc, "released_time", owner, now)
            if node.state is NodeState.STARTING and node.released_time is None:
                # every command that creates nodes runs until they are ready
                raise ValidationError("corrupt state: persisted node still starting")
            node.preempt_at = _instant(ndoc, "preempt_at", owner)
            node.busy_log = [_interval(b, owner, now) for b in ndoc["busy_log"]]
            pool.nodes.append(node)
        pool.idle = [n for n in pool.nodes if n.state is NodeState.IDLE]
        svc.pools[cfg.pool_id] = pool
    for jdoc in doc["jobs"]:
        job_id, tasks = jdoc["id"], []
        for row in jdoc["tasks"]:
            if len(row) != TASK_ROW_LEN:
                raise ValidationError(f"corrupt state: task row of {len(row)} values")
            *spec, state, nodes, start_time, end_time, reason, attempts = row
            if state not in _PERSISTED_TASK_STATES or reason not in _FAILURE_REASONS:
                raise ValidationError(f"corrupt state: task state {state!r}, reason {reason!r}")
            if not (type(attempts) is int and attempts >= 0):
                raise ValidationError(f"corrupt state: task attempts {attempts!r}")
            tasks.append(Task(task_spec(spec), job_id, _PERSISTED_TASK_STATES[state],
                              tuple(nodes), start_time, end_time, _FAILURE_REASONS[reason],
                              attempts))
        svc.enqueue(Job(job_id, jdoc["pool"], tasks, JobState(jdoc["state"]),
                        _instant(jdoc, "submitted_at", f"job {job_id}", now, optional=False)))
    for number, item in enumerate(doc["ledger"]):
        start, end = interval = tuple(item["interval"])
        if not (_is_finite(start) and _is_finite(end) and start <= end <= now):
            raise ValidationError(f"corrupt state: interval {item['interval']!r} "
                                  f"of ledger item {number}")
        svc.ledger.add(
            MeterEvent(
                category=ServiceCategory(item["category"]),
                usd=Fraction(item["usd"]),
                description=item["description"],
                interval=interval,
                sku=item["sku"],
                node_seconds=(Fraction(item["node_seconds"])
                              if item["node_seconds"] is not None else None),
            )
        )
    _rebuild_busy_logs(svc)
    _reschedule_events(svc)
    return svc


_FLOAT_MAX = sys.float_info.max


def _is_finite(value) -> bool:
    """A JSON number that is a finite float, or an int within a float's range (no bool)."""
    return type(value) in (int, float) and -_FLOAT_MAX <= value <= _FLOAT_MAX


def _instant(doc: dict, key: str, owner: str, latest: float = _FLOAT_MAX, optional: bool = True):
    """`doc[key]` if it is a finite number no later than `latest`, or None where `optional`."""
    value = doc[key]
    if not (_is_finite(value) and value <= latest or optional and value is None):
        raise ValidationError(f"corrupt state: {key} {value!r} of {owner}")
    return value


def _interval(row, owner: str, latest: float) -> tuple:
    """A busy_log row as the interval tuple: [start, end, tag], start <= end <= latest."""
    if not (type(row) is list and len(row) == 3 and _is_finite(row[0]) and _is_finite(row[1])
            and row[0] <= row[1] <= latest and type(row[2]) is str):
        raise ValidationError(f"corrupt state: busy_log row {row!r} of {owner}")
    return tuple(row)


def _rebuild_busy_logs(svc: BatchService):
    """Give each node back the intervals that task rows record, one tuple a row kept as its
    Task.interval, and sort its busy_log into the order the service appends it in. A stored
    interval is added to them unless it is there already, as in a state with full logs."""
    for pool in svc.pools.values():
        stored = [n.busy_log for n in pool.nodes]
        for node in pool.nodes:
            node.busy_log = []
        logs = {n.node_id: n.busy_log for n in pool.nodes}
        for task in _recording_tasks(svc, pool):
            start, end, tag = task.start_time, task.end_time, task.run_tag
            # _is_finite of both, inlined for states of 10,000 rows; start > created_at holds
            if not (type(start) in (int, float) and type(end) in (int, float)
                    and start <= end <= svc.clock.now):
                raise ValidationError(f"corrupt state: task times {start!r}, {end!r} of {tag}")
            task.interval = interval = (start, end, tag)
            for node_id in task.assigned_nodes:
                log = logs.get(node_id)
                if log is None:
                    raise ValidationError(f"corrupt state: task node {node_id!r} of {tag} "
                                          f"is not in pool {pool.pool_id}")
                log.append(interval)
        for node, kept in zip(pool.nodes, stored):
            log = node.busy_log
            log.sort()
            for interval in kept:
                i = bisect_left(log, interval)
                if i == len(log) or log[i] != interval:
                    log.insert(i, interval)


def _reschedule_events(svc: BatchService):
    """Rebuild the pending event queue from persisted entity timestamps."""
    for pool in svc.pools.values():
        if not pool.alive:
            continue
        for node in pool.nodes:  # only low-priority nodes get a preempt_at
            if node.preempt_at is not None and node.state in (NodeState.IDLE, NodeState.RUNNING):
                svc.schedule_preemption(pool, node)


# ---------------------------------------------------------------------------
# workspace documents


# top-level keys of every workspace state, as new_workspace_state writes them
STATE_KEYS = frozenset({"version", "options", "catalog_doc", "workspace", "service", "transcript",
                        "has_completed_run", "events_bytes"})


def new_workspace_state(options: ServiceOptions, bundle: ConfigBundle,
                        catalog_doc: Optional[dict] = None) -> dict:
    """A new workspace's state; the creating command fills `service` and `transcript`."""
    return {
        "version": STATE_VERSION,
        "options": options.to_doc(),
        "catalog_doc": catalog_doc,
        "workspace": workspace_to_doc(bundle.workspace),
        "service": None,
        "transcript": [],
        "has_completed_run": False,
        "events_bytes": 0,  # size of events.log after the last committed command
    }


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

    def exists(self) -> bool:
        return self.state_path.is_file()

    def load(self) -> dict:
        with open(self.state_path) as fh, _gc_paused():
            return json.load(fh)

    def save(self, state: dict):
        """Write `state` compact and key-sorted (one C-encoder pass), then rename it in."""
        with _gc_paused():  # a non-finite float, which JSON cannot hold, raises ValueError
            text = json.dumps(state, separators=(",", ":"), sort_keys=True,
                              allow_nan=False) + "\n"
        with self._replacing(self.state_path) as fh:
            fh.write(text)

    def append_events(self, lines: list[str]) -> int:
        """Append `lines` to events.log; returns its size in bytes afterwards."""
        with open(self.events_path, "a") as fh:
            fh.write("\n".join(lines) + "\n")
        return self.events_path.stat().st_size

    def truncate_events(self, size: int):
        """Cut events.log back to `size` bytes, dropping lines of an uncommitted command."""
        with contextlib.suppress(FileNotFoundError):
            if self.events_path.stat().st_size > size:
                os.truncate(self.events_path, size)

    def write_ledger(self, tsv: str):
        with self._replacing(self.ledger_path) as fh:
            fh.write(tsv)

    def write_manifest(self, path: Path, rows: list):
        """Write an ingress manifest of (path, bytes) rows, as `--manifest` reads it."""
        self.ingress_dir.mkdir(parents=True, exist_ok=True)
        with self._replacing(path) as fh:
            json.dump({"entries": [list(row) for row in rows]}, fh, indent=1)
            fh.write("\n")

    @contextlib.contextmanager
    def _replacing(self, path: Path):
        """Write a temporary file beside `path`, then move it over `path`.

        A reader sees the old file or the new one, never a partial write; on
        failure the temporary file is removed and `path` is untouched.
        """
        self.dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.tmp")
        try:
            with open(tmp, "w") as fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
