"""The batch service proper.

Pool lifecycle, job and task queues, gang scheduling of multi-instance
tasks, preemption and deletion semantics, and the wiring into storage and
the billing ledger. All mutations happen inside the fabric event loop;
queries hand out plain-data snapshots.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import Optional

from . import billing, workloads
from .catalog import Catalog, PricingPlan, RegionQuota
from .config import JobsConfig, PoolConfig, TaskSpec, Violation, validate_pool
from .errors import (
    QuotaExceeded,
    RdmaRequired,
    SharedFsLowPriority,
    TaskTooWide,
    UnknownJob,
    UnknownPool,
    UnknownRegion,
    ValidationError,
)
from .fabric import (
    AZURE_INTERCONNECT,
    DEFAULT_PREEMPTION_RATE,
    EventLog,
    InterconnectModel,
    Node,
    NodeState,
    PreemptionProcess,
    Priority,
    Provisioner,
    ScarcityWindow,
    SimClock,
)
from .storage import StorageAccount, TransferRecord

IMAGE_PULL_SECONDS = 120.0  # deterministic pull stage at pool creation


class PoolState(enum.Enum):
    ALLOCATING = "Allocating"
    STEADY = "Steady"
    DELETING = "Deleting"
    DELETED = "Deleted"


class JobState(enum.Enum):
    ACTIVE = "Active"
    COMPLETED = "Completed"
    DELETED = "Deleted"


class TaskState(enum.Enum):
    PENDING = "Pending"
    STAGING = "Staging"
    RUNNING = "Running"
    COMPLETED = "Completed"
    FAILED = "Failed"


class FailureReason(enum.Enum):
    NODE_PREEMPTED = "NodePreempted"
    POOL_DELETED = "PoolDeleted"
    JOB_DELETED = "JobDeleted"


TERMINAL_TASK_STATES = (TaskState.COMPLETED, TaskState.FAILED)


@dataclass
class Task:
    spec: TaskSpec
    job_id: str
    state: TaskState = TaskState.PENDING
    assigned_nodes: tuple[str, ...] = ()
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    failure_reason: Optional[FailureReason] = None
    attempts: int = 0
    completion_event: Optional[object] = field(default=None, repr=False, compare=False)
    seq: int = field(default=0, repr=False, compare=False)  # FIFO key in the pool queue

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_TASK_STATES

    @property
    def entity(self) -> str:
        return f"task/{self.job_id}/{self.spec.task_id}"

    @property
    def run_tag(self) -> str:
        # distinguishes busy intervals of retried attempts
        return f"{self.entity}#{self.attempts}"


@dataclass
class Job:
    job_id: str
    pool_id: str
    tasks: list[Task]
    state: JobState = JobState.ACTIVE
    submitted_at: float = 0.0
    unfinished: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.unfinished = sum(not t.terminal for t in self.tasks)

    @property
    def terminal(self) -> bool:
        return self.state in (JobState.COMPLETED, JobState.DELETED)


@dataclass
class Pool:
    config: PoolConfig
    plan: PricingPlan
    state: PoolState = PoolState.ALLOCATING
    nodes: list[Node] = field(default_factory=list)
    warnings: list[Violation] = field(default_factory=list)
    created_at: float = 0.0
    steady_at: Optional[float] = None
    deleted_at: Optional[float] = None
    queue: list[tuple[int, Task]] = field(default_factory=list, repr=False, compare=False)

    @property
    def pool_id(self) -> str:
        return self.config.pool_id

    @property
    def shared_fs_mounted(self) -> bool:
        return self.config.shared_filesystem and self.state is PoolState.STEADY

    @property
    def alive(self) -> bool:
        return self.state not in (PoolState.DELETING, PoolState.DELETED)

    def idle_nodes(self) -> list[Node]:
        return [n for n in self.nodes if n.state is NodeState.IDLE]


_VIOLATION_EXC = {
    "QuotaExceeded": QuotaExceeded,
    "RdmaRequired": RdmaRequired,
    "SharedFsLowPriority": SharedFsLowPriority,
}


class BatchService:
    """Single-tenant batch account: pools, jobs, storage, ledger, event log."""

    def __init__(self, catalog: Catalog, *, seed: int = 0,
                 interconnect: InterconnectModel = AZURE_INTERCONNECT,
                 preemption_rate: float = DEFAULT_PREEMPTION_RATE,
                 scarcity_windows: tuple[ScarcityWindow, ...] = (),
                 egress_usd_per_gib: Decimal = billing.EGRESS_USD_PER_GIB,
                 runtime_constants: workloads.RuntimeModelConstants =
                 workloads.DEFAULT_RUNTIME_CONSTANTS,
                 image_pull_seconds: float = IMAGE_PULL_SECONDS,
                 task_retries: int = 0):
        self.catalog = catalog
        self.seed = seed
        self.interconnect = interconnect
        self.runtime_constants = runtime_constants
        self.image_pull_seconds = image_pull_seconds
        self.task_retries = task_retries
        self.clock = SimClock()
        self.event_log = EventLog()
        self.provisioner = Provisioner(self.clock, self.event_log, seed, scarcity_windows)
        self.preemption = PreemptionProcess(preemption_rate, seed)
        self.storage = StorageAccount()
        self.ledger = billing.Ledger(catalog, egress_usd_per_gib)
        self.quotas: dict[str, RegionQuota] = catalog.default_quotas()
        self._used: dict[str, list[int]] = {r: [0, 0] for r in self.quotas}
        self.pools: dict[str, Pool] = {}
        self.jobs: dict[str, Job] = {}  # in submission order
        self._running: dict[str, Task] = {}  # node id -> the task running on it
        self._submitted = 0  # tasks ever queued; the next task's FIFO key

    # -- quotas ------------------------------------------------------------

    def quota_set(self, region: str, dedicated_cores: int,
                  low_priority_cores: Optional[int] = None):
        """Raise or lower a catalog region's quotas; low-priority defaults to unchanged."""
        if region not in self.quotas:
            raise UnknownRegion(f"no quota table for region {region!r}")
        if low_priority_cores is None:
            low_priority_cores = self.quotas[region].low_priority_cores
        self.quotas[region] = RegionQuota(region, dedicated_cores, low_priority_cores)
        self.event_log.append(self.clock.now, f"quota/{region}",
                              f"dedicated={dedicated_cores},low_priority={low_priority_cores}")

    def available_quota(self, region: str) -> RegionQuota:
        quota = self.quotas[region]
        used = self._used[region]
        return RegionQuota(region, quota.dedicated_cores - used[0],
                           quota.low_priority_cores - used[1])

    # -- pool lifecycle ----------------------------------------------------

    def pool_add(self, cfg: PoolConfig, plan: PricingPlan = PricingPlan.PAYGO_DEDICATED) -> Pool:
        existing = self.pools.get(cfg.pool_id)
        if existing is not None and existing.alive:
            raise ValidationError(f"pool already exists: {cfg.pool_id!r}")
        if cfg.region not in self.quotas:
            raise ValidationError(f"no quota table for region {cfg.region!r}")
        violations = validate_pool(cfg, self.catalog, {cfg.region: self.available_quota(cfg.region)})
        for v in violations:
            if v.severity == "error":
                exc = _VIOLATION_EXC.get(v.rule)
                if exc is QuotaExceeded:
                    raise QuotaExceeded(v.details["needed"], v.details["available"], cfg.region)
                raise (exc or ValidationError)(v.message)
        warnings = [v for v in violations if v.severity == "warning"]
        pool = Pool(config=cfg, plan=plan, created_at=self.clock.now, warnings=warnings)
        # provision first: an AllocationUnavailable leaves the service untouched
        nodes = self.provisioner.provision(
            cfg.pool_id, cfg.sku, cfg.dedicated_count, cfg.low_priority_count,
            on_ready=lambda node, p=pool: self._on_node_ready(p, node),
            staging_seconds=self.image_pull_seconds,
            staging_label=f"image_pull:{cfg.image}",
        )
        pool.nodes = nodes
        self.pools[cfg.pool_id] = pool
        sku = self.catalog.lookup(cfg.sku)
        used = self._used[cfg.region]
        used[0] += cfg.dedicated_count * sku.vcores
        used[1] += cfg.low_priority_count * sku.vcores
        self.event_log.append(self.clock.now, f"pool/{cfg.pool_id}",
                              f"->{PoolState.ALLOCATING.value}")
        for v in warnings:
            self.event_log.append(self.clock.now, f"pool/{cfg.pool_id}", f"warning:{v.rule}")
        self.ledger.pool_plans[cfg.pool_id] = plan
        return pool

    def _on_node_ready(self, pool: Pool, node: Node):
        if not pool.alive:
            return
        if node.priority is Priority.LOW_PRIORITY:
            delay = self.preemption.preempt_after(node.node_id)
            if delay != float("inf"):
                node.preempt_at = self.clock.now + delay
                self.clock.schedule(node.preempt_at,
                                    lambda p=pool, n=node: self._on_preempt(p, n))
        if pool.state is PoolState.ALLOCATING:
            dedicated_ready = sum(
                1 for n in pool.nodes
                if n.priority is Priority.DEDICATED and n.state is not NodeState.STARTING
            )
            if dedicated_ready == pool.config.dedicated_count:
                pool.state = PoolState.STEADY
                pool.steady_at = self.clock.now
                self.event_log.append(self.clock.now, f"pool/{pool.pool_id}",
                                      f"{PoolState.ALLOCATING.value}->{PoolState.STEADY.value}")
        self.schedule_step()

    def pool_del(self, pool_id: str):
        pool = self.pools.get(pool_id)
        if pool is None or not pool.alive:
            raise UnknownPool(f"no such pool: {pool_id!r}")
        now = self.clock.now
        self.event_log.append(now, f"pool/{pool_id}",
                              f"{pool.state.value}->{PoolState.DELETING.value}")
        pool.state = PoolState.DELETING
        for job in [j for j in self.jobs.values() if j.pool_id == pool_id]:
            for task in job.tasks:
                if not task.terminal:
                    self._fail_task(pool, job, task, FailureReason.POOL_DELETED)
            self._refresh_job_state(job)
        for node in pool.nodes:
            if node.state is NodeState.RUNNING:  # defensive; tasks already failed
                node.transition(NodeState.IDLE, now, self.event_log)
            self._close_meter(pool, node, now)
            if node.released_time is None:
                node.released_time = now
                self.event_log.append(now, f"node/{node.node_id}", "released")
        sku = self.catalog.lookup(pool.config.sku)
        used = self._used[pool.config.region]
        used[0] -= pool.config.dedicated_count * sku.vcores
        used[1] -= pool.config.low_priority_count * sku.vcores
        pool.state = PoolState.DELETED
        pool.deleted_at = now
        self.event_log.append(now, f"pool/{pool_id}",
                              f"{PoolState.DELETING.value}->{PoolState.DELETED.value}")

    # -- jobs and tasks ------------------------------------------------------

    def jobs_add(self, cfg: JobsConfig) -> Job:
        pool = self.pools.get(cfg.pool_id)
        if pool is None or not pool.alive:
            raise UnknownPool(f"no such pool: {cfg.pool_id!r}")
        if cfg.job_id in self.jobs and not self.jobs[cfg.job_id].terminal:
            raise ValidationError(f"job already exists: {cfg.job_id!r}")
        for spec in cfg.tasks:
            if spec.instances > pool.config.node_count:
                raise TaskTooWide(
                    f"task {spec.task_id!r} wants {spec.instances} instances; pool "
                    f"{pool.pool_id!r} has {pool.config.node_count} nodes"
                )
        job = Job(cfg.job_id, cfg.pool_id,
                  [Task(spec=s, job_id=cfg.job_id) for s in cfg.tasks],
                  submitted_at=self.clock.now)
        self.enqueue(job)
        self.event_log.append(self.clock.now, f"job/{cfg.job_id}", f"->{JobState.ACTIVE.value}")
        for task in job.tasks:
            self.event_log.append(self.clock.now, task.entity, f"->{TaskState.PENDING.value}")
        self.schedule_step()
        return job

    def enqueue(self, job: Job):
        """Queue `job` and its pending tasks last, replacing a finished job of its id."""
        self.jobs.pop(job.job_id, None)
        self.jobs[job.job_id] = job
        for task in job.tasks:
            self._submitted += 1
            task.seq = self._submitted
            if task.state is TaskState.PENDING:
                heapq.heappush(self.pools[job.pool_id].queue, (task.seq, task))

    def jobs_del(self, job_id: str):
        job = self.jobs.get(job_id)
        if job is None or job.state is JobState.DELETED:
            raise UnknownJob(f"no such job: {job_id!r}")
        pool = self.pools.get(job.pool_id)
        for task in job.tasks:
            if not task.terminal:
                self._fail_task(pool, job, task, FailureReason.JOB_DELETED)
        job.state = JobState.DELETED
        self.event_log.append(self.clock.now, f"job/{job_id}", f"->{JobState.DELETED.value}")
        self.schedule_step()

    def schedule_step(self):
        """Gang-scheduling pass: strict FIFO per pool, no backfilling.

        Each pool's pending tasks wait in a heap keyed by submission order; a
        task retried after preemption keeps its key, so it regains its place.
        A multi-instance task starts only when its full node complement is idle
        at once; the first pending task that does not fit blocks the rest.
        """
        for pool in self.pools.values():
            if pool.state is PoolState.STEADY:
                self._schedule_pool(pool)

    def _schedule_pool(self, pool: Pool):
        queue, idle = pool.queue, pool.idle_nodes()
        while queue:
            task = queue[0][1]
            if task.state is TaskState.PENDING:  # others are stale entries
                width = task.spec.instances
                if len(idle) < width:
                    return
                self._start_task(pool, self.jobs[task.job_id], task, idle[:width])
                idle = idle[width:]
            heapq.heappop(queue)

    def _start_task(self, pool: Pool, job: Job, task: Task, nodes: list[Node]):
        now = self.clock.now
        ctx = workloads.TaskContext(task.spec.instances, task.spec.procs_per_node,
                                    self.interconnect, self.runtime_constants)
        result = workloads.execute(task.spec.workload, ctx)
        task.assigned_nodes = tuple(n.node_id for n in nodes)
        task.state = TaskState.STAGING
        self.event_log.append(now, task.entity, f"{TaskState.PENDING.value}->"
                                                f"{TaskState.STAGING.value}")
        task.state = TaskState.RUNNING
        task.start_time = now
        task.end_time = now + result.duration_seconds
        self.event_log.append(now, task.entity, f"{TaskState.STAGING.value}->"
                                                f"{TaskState.RUNNING.value}")
        for node in nodes:
            node.transition(NodeState.RUNNING, now, self.event_log)
            self._running[node.node_id] = task
        tag = task.run_tag
        task.completion_event = self.clock.schedule(
            task.end_time,
            lambda p=pool, j=job, t=task, r=result, g=tag: self._finish_task(p, j, t, r, g))

    def _finish_task(self, pool: Pool, job: Job, task: Task,
                     result: workloads.WorkloadResult, tag: str):
        if task.state is not TaskState.RUNNING or task.run_tag != tag:
            return
        now = self.clock.now
        for node_id in task.assigned_nodes:
            del self._running[node_id]
            node = self._node(pool, node_id)
            if node.state is NodeState.RUNNING:
                node.busy_log.append((task.start_time, now, task.run_tag))
                node.transition(NodeState.IDLE, now, self.event_log)
        task.state = TaskState.COMPLETED
        task.completion_event = None  # the event holds the task and its result alive
        job.unfinished -= 1
        self.event_log.append(now, task.entity, f"{TaskState.RUNNING.value}->"
                                                f"{TaskState.COMPLETED.value}")
        self._store_outputs(task, result)
        self._refresh_job_state(job)
        self.schedule_step()

    def _store_outputs(self, task: Task, result: workloads.WorkloadResult):
        share, _, directory = task.spec.output_dir.partition("/")
        if share not in self.storage.shares:
            return  # outputs are dropped when no share is mounted
        for name, content in result.outputs:
            path = f"{directory}/{name}" if directory else name
            self.storage.write_entry(share, path, content, self.clock.now)
            self.event_log.append(self.clock.now, f"share/{share}",
                                  f"write:{path}:{len(content)}")

    def _on_preempt(self, pool: Pool, node: Node):
        if not pool.alive or node.state not in (NodeState.IDLE, NodeState.RUNNING):
            return
        now = self.clock.now
        task = self._running.get(node.node_id)
        if task is not None:
            node.busy_log.append((task.start_time, now, task.run_tag))
        node.transition(NodeState.PREEMPTED, now, self.event_log)
        self._close_meter(pool, node, now)
        node.released_time = now
        if task is not None:
            job = self.jobs[task.job_id]
            self._fail_task(pool, job, task, FailureReason.NODE_PREEMPTED)
            self._refresh_job_state(job)
        self.schedule_step()

    def _fail_task(self, pool: Optional[Pool], job: Job, task: Task, reason: FailureReason):
        now = self.clock.now
        if task.completion_event is not None:
            task.completion_event.cancel()
            task.completion_event = None
        if task.state is TaskState.RUNNING and pool is not None:
            for node_id in task.assigned_nodes:
                del self._running[node_id]
                node = self._node(pool, node_id)
                if node.state is NodeState.RUNNING:
                    node.busy_log.append((task.start_time, now, task.run_tag))
                    node.transition(NodeState.IDLE, now, self.event_log)
        previous = task.state
        if (reason is FailureReason.NODE_PREEMPTED and task.attempts < self.task_retries):
            task.attempts += 1
            task.state = TaskState.PENDING
            task.assigned_nodes = ()
            task.start_time = task.end_time = None
            self.event_log.append(now, task.entity,
                                  f"{previous.value}->{TaskState.PENDING.value} "
                                  f"(retry {task.attempts})")
            heapq.heappush(pool.queue, (task.seq, task))
            return
        task.state = TaskState.FAILED
        job.unfinished -= 1
        task.failure_reason = reason
        task.end_time = now
        self.event_log.append(now, task.entity,
                              f"{previous.value}->{TaskState.FAILED.value}({reason.value})")

    def _refresh_job_state(self, job: Job):
        if job.state is JobState.ACTIVE and not job.unfinished:
            job.state = JobState.COMPLETED
            self.event_log.append(self.clock.now, f"job/{job.job_id}",
                                  f"{JobState.ACTIVE.value}->{JobState.COMPLETED.value}")

    # -- data transfers --------------------------------------------------------

    def data_ingress(self, share: str, directory: str,
                     manifest: list[tuple[str, int]]) -> Optional[TransferRecord]:
        """Upload a size manifest into a share directory, logging the metered bytes."""
        record = self.storage.ingress(share, directory, manifest, self.clock.now)
        if record is not None:
            self.event_log.append(self.clock.now, f"share/{share}", f"ingress:{record.bytes}")
        return record

    def data_download(self, share: str, directory: str, dest) -> Optional[TransferRecord]:
        """Download a share directory to `dest`, billing and logging the egress."""
        now = self.clock.now
        record = self.storage.download_batch(share, directory, dest, now)
        if record is not None:
            self.ledger.add_egress(record.bytes, f"download {share}/{directory}", (now, now))
            self.event_log.append(now, f"share/{share}", f"egress:{record.bytes}")
        return record

    # -- metering ------------------------------------------------------------

    def _close_meter(self, pool: Pool, node: Node, at: float):
        if node.ready_time is None or node.released_time is not None:
            return
        plan = (pool.plan if node.priority is Priority.DEDICATED
                else PricingPlan.PAYGO_LOW_PRIORITY)
        seconds = Fraction(at) - Fraction(node.ready_time)
        self.ledger.add_vm(node.sku, plan, seconds,
                           f"{node.sku} {node.node_id} ({node.priority.value})",
                           (node.ready_time, at))

    # -- helpers -------------------------------------------------------------

    def _node(self, pool: Pool, node_id: str) -> Node:
        for node in pool.nodes:
            if node.node_id == node_id:
                return node
        raise KeyError(node_id)

    # -- simulation drivers ----------------------------------------------------

    def advance_until_pool_settled(self, pool_id: str):
        """Advance past pool readiness including any low-priority stragglers."""
        pool = self.pools[pool_id]

        def settled():
            return all(n.state is not NodeState.STARTING or n.released_time is not None
                       for n in pool.nodes)

        self.clock.run(until=settled)

    def advance_until_job_terminal(self, job_id: str):
        job = self.jobs[job_id]
        self.clock.run(until=lambda: job.terminal)

    def run_to_quiescence(self):
        self.clock.run()

    # -- queries ---------------------------------------------------------------

    def all_tasks(self) -> list[Task]:
        return [t for j in self.jobs.values() for t in j.tasks]

    def status(self) -> dict:
        pools = []
        for pool in self.pools.values():
            pools.append(
                {
                    "id": pool.pool_id,
                    "state": pool.state.value,
                    "sku": pool.config.sku,
                    "region": pool.config.region,
                    "dedicated": pool.config.dedicated_count,
                    "low_priority": pool.config.low_priority_count,
                    "shared_fs_mounted": pool.shared_fs_mounted,
                    "warnings": [v.rule for v in pool.warnings],
                    "created_at": pool.created_at,
                    "steady_at": pool.steady_at,
                    "deleted_at": pool.deleted_at,
                    "nodes": [
                        {
                            "id": n.node_id,
                            "state": n.state.value,
                            "priority": n.priority.value,
                            "ready_at": n.ready_time,
                            "released_at": n.released_time,
                        }
                        for n in pool.nodes
                    ],
                }
            )
        jobs = []
        for job in self.jobs.values():
            jobs.append(
                {
                    "id": job.job_id,
                    "pool": job.pool_id,
                    "state": job.state.value,
                    "submitted_at": job.submitted_at,
                    "tasks": [
                        {
                            "id": t.spec.task_id,
                            "state": t.state.value,
                            "instances": t.spec.instances,
                            "nodes": list(t.assigned_nodes),
                            "start_time": t.start_time,
                            "end_time": t.end_time,
                            "failure": t.failure_reason.value if t.failure_reason else None,
                        }
                        for t in job.tasks
                    ],
                }
            )
        quotas = {
            r: {
                "dedicated_cores": q.dedicated_cores,
                "low_priority_cores": q.low_priority_cores,
                "dedicated_used": self._used[r][0],
                "low_priority_used": self._used[r][1],
            }
            for r, q in self.quotas.items()
        }
        return {"time": self.clock.now, "quotas": quotas, "pools": pools, "jobs": jobs}
