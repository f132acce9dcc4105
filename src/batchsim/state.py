"""Workspace persistence for the CLI.

One command per process invocation: service state is rehydrated from
structured JSON under .batchsim/ before a command and written back after.
Because every RNG stream is derived by hashing (seed, purpose), nothing
about generator state needs saving; pending events are reconstructed from
entity timestamps.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .batch import BatchService, FailureReason, Job, JobState, Pool, PoolState, Task, TaskState
from .billing import MeterEvent, ServiceCategory
from .catalog import Catalog, PricingPlan, RegionQuota, default_catalog
from .config import (TASK_SPEC_KEYS, ConfigBundle, Violation, pool_from_doc,
                     pool_to_doc, task_spec, task_spec_values, workspace_to_doc)
from .errors import ValidationError
from .fabric import INTERCONNECTS, Node, NodeState, Priority, ScarcityWindow
from .storage import FileShare, ShareEntry, TransferRecord, Direction

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
    preemption_rate: float = 0.05
    image_pull_seconds: float = 120.0
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
        return cls(
            seed=int(doc["seed"]),
            interconnect=doc["interconnect"],
            preemption_rate=float(doc["preemption_rate"]),
            image_pull_seconds=float(doc["image_pull_seconds"]),
            task_retries=int(doc["task_retries"]),
            scarcity_windows=tuple((float(a), float(b)) for a, b in doc["scarcity_windows"]),
        )


def build_service(options: ServiceOptions, catalog: Optional[Catalog] = None) -> BatchService:
    model = INTERCONNECTS[options.interconnect]
    return BatchService(
        catalog or default_catalog(),
        seed=options.seed,
        interconnect=model,
        preemption_rate=options.preemption_rate,
        scarcity_windows=tuple(ScarcityWindow(a, b) for a, b in options.scarcity_windows),
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


@_gc_paused()
def service_to_doc(svc: BatchService) -> dict:
    pools = []
    for pool in svc.pools.values():
        pools.append(
            {
                "config": pool_to_doc(pool.config),
                "plan": pool.plan.value,
                "state": pool.state.value,
                "created_at": pool.created_at,
                "steady_at": pool.steady_at,
                "deleted_at": pool.deleted_at,
                "warnings": [
                    {"rule": v.rule, "severity": v.severity, "message": v.message}
                    for v in pool.warnings
                ],
                "nodes": [
                    {
                        "id": n.node_id,
                        "sku": n.sku,
                        "priority": n.priority.value,
                        "state": n.state.value,
                        "boot_latency": n.boot_latency,
                        "ready_time": n.ready_time,
                        "released_time": n.released_time,
                        "preempt_at": n.preempt_at,
                        "busy_log": [list(b) for b in n.busy_log],
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
                "directories": sorted(share.directories),
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
                "plan": item.plan.value if item.plan else None,
                "node_seconds": _frac(item.node_seconds) if item.node_seconds is not None else None,
            }
        )
    return {
        "time": svc.clock.now,
        "quotas": {r: [q.dedicated_cores, q.low_priority_cores] for r, q in svc.quotas.items()},
        "quota_used": {r: list(u) for r, u in svc._used.items()},
        "pools": pools,
        "jobs": jobs,
        "shares": shares,
        "transfers": [
            {"direction": t.direction.value, "bytes": t.bytes, "timestamp": t.timestamp}
            for t in svc.storage.transfers
        ],
        "ledger": ledger_items,
        "pool_plans": {k: v.value for k, v in svc.ledger.pool_plans.items()},
    }


@_gc_paused()
def service_from_doc(doc: dict, options: ServiceOptions,
                     catalog: Optional[Catalog] = None) -> BatchService:
    svc = build_service(options, catalog)
    svc.clock.now = float(doc["time"])
    svc.quotas = {
        r: RegionQuota(r, int(v[0]), int(v[1])) for r, v in doc["quotas"].items()
    }
    svc._used = {r: [int(v[0]), int(v[1])] for r, v in doc["quota_used"].items()}
    for sdoc in doc["shares"]:
        share = FileShare(name=sdoc["name"], quota_gib=int(sdoc["quota_gib"]))
        share.directories = set(sdoc["directories"])
        for e in sdoc["entries"]:
            content = bytes.fromhex(e["content_hex"]) if e["content_hex"] is not None else None
            entry = ShareEntry(e["path"], int(e["size"]), content)
            if entry.digest != e["digest"]:
                raise ValidationError(f"corrupt state: digest of {share.name}/{entry.path}")
            if content is not None and entry.size_bytes != len(content):
                raise ValidationError(f"corrupt state: size of {share.name}/{entry.path}")
            share.put(entry)
        svc.storage.shares[share.name] = share
    svc.storage.transfers = [
        TransferRecord(Direction(t["direction"]), int(t["bytes"]), float(t["timestamp"]))
        for t in doc["transfers"]
    ]
    for pdoc in doc["pools"]:
        cfg = pool_from_doc(pdoc["config"])
        pool = Pool(config=cfg, plan=PricingPlan(pdoc["plan"]),
                    state=PoolState(pdoc["state"]), created_at=pdoc["created_at"],
                    steady_at=pdoc["steady_at"], deleted_at=pdoc["deleted_at"])
        pool.warnings = [Violation(w["rule"], w["severity"], w["message"]) for w in
                         pdoc["warnings"]]
        for position, ndoc in enumerate(pdoc["nodes"]):
            node = Node(ndoc["id"], ndoc["sku"], Priority(ndoc["priority"]),
                        int(ndoc["boot_latency"]), position)
            node.state = NodeState(ndoc["state"])
            node.ready_time = ndoc["ready_time"]
            node.released_time = ndoc["released_time"]
            if node.state is NodeState.STARTING and node.released_time is None:
                # every command that creates nodes runs until they are ready
                raise ValidationError("corrupt state: persisted node still starting")
            node.preempt_at = ndoc["preempt_at"]
            node.busy_log = [tuple(b) for b in ndoc["busy_log"]]
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
            tasks.append(Task(task_spec(spec), job_id, _PERSISTED_TASK_STATES[state],
                              tuple(nodes), start_time, end_time, _FAILURE_REASONS[reason],
                              int(attempts)))
        svc.enqueue(Job(jdoc["id"], jdoc["pool"], tasks, JobState(jdoc["state"]),
                        jdoc["submitted_at"]))
    for item in doc["ledger"]:
        svc.ledger.add(
            MeterEvent(
                category=ServiceCategory(item["category"]),
                usd=Fraction(item["usd"]),
                description=item["description"],
                interval=tuple(item["interval"]),
                sku=item["sku"],
                plan=PricingPlan(item["plan"]) if item["plan"] else None,
                node_seconds=(Fraction(item["node_seconds"])
                              if item["node_seconds"] is not None else None),
            )
        )
    svc.ledger.pool_plans = {k: PricingPlan(v) for k, v in doc["pool_plans"].items()}
    _reschedule_events(svc)
    return svc


def _reschedule_events(svc: BatchService):
    """Rebuild the pending event queue from persisted entity timestamps."""
    for pool in svc.pools.values():
        if not pool.alive:
            continue
        for node in pool.nodes:  # only low-priority nodes get a preempt_at
            if node.preempt_at is not None and node.state in (NodeState.IDLE, NodeState.RUNNING):
                svc.clock.schedule(max(node.preempt_at, svc.clock.now),
                                   lambda p=pool, n=node: svc._on_preempt(p, n))


# ---------------------------------------------------------------------------
# workspace documents


# top-level keys of every workspace state, as new_workspace_state writes them
STATE_KEYS = frozenset({"version", "options", "catalog_doc", "workspace", "credentials_digest",
                        "storage_account_created", "service", "transcript", "ingress_seq",
                        "has_completed_run", "events_bytes"})


def new_workspace_state(options: ServiceOptions, bundle: ConfigBundle,
                        catalog_doc: Optional[dict] = None) -> dict:
    """A new workspace's state; the creating command fills `service` and `transcript`."""
    return {
        "version": STATE_VERSION,
        "options": options.to_doc(),
        "catalog_doc": catalog_doc,
        "workspace": workspace_to_doc(bundle.workspace),
        "credentials_digest": {
            "storage_key": sha256_text(bundle.credentials.storage_key),
            "batch_key": sha256_text(bundle.credentials.batch_key),
        },
        "storage_account_created": False,
        "service": None,
        "transcript": [],
        "ingress_seq": 0,
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
