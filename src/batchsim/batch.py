"""The batch service proper.

Pool lifecycle, job and task queues, gang scheduling of multi-instance
tasks, preemption and deletion semantics, and the wiring into storage and
the billing ledger. All mutations happen inside the fabric event loop;
queries hand out the live objects, and `state.status_doc` writes the status
document from them.
"""

from __future__ import annotations

import enum
import functools
import math
from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter
from typing import Optional, Sequence

from . import billing, workloads
from .catalog import Catalog, PricingPlan, RegionQuota
from .config import JobsConfig, PoolConfig, TaskSpec, validate_pool
from .errors import SimulationError, ValidationError
from .fabric import (
    AZURE_INTERCONNECT,
    BOOT_LATENCY_RANGE,
    DEFAULT_PREEMPTION_RATE,
    EventLog,
    InterconnectModel,
    Node,
    NodeState,
    Priority,
    SimClock,
    derived_rng,
)
from .storage import StorageAccount

IMAGE_PULL_SECONDS = 120.0  # deterministic pull stage at pool creation


class PoolState(enum.Enum):
    ALLOCATING = "Allocating"
    STEADY = "Steady"
    DELETED = "Deleted"


class JobState(enum.Enum):
    ACTIVE = "Active"
    COMPLETED = "Completed"
    DELETED = "Deleted"


class TaskState(enum.Enum):
    PENDING = "Pending"
    RUNNING = "Running"
    COMPLETED = "Completed"
    FAILED = "Failed"


class FailureReason(enum.Enum):
    NODE_PREEMPTED = "NodePreempted"
    POOL_DELETED = "PoolDeleted"
    JOB_DELETED = "JobDeleted"


TERMINAL_TASK_STATES = (TaskState.COMPLETED, TaskState.FAILED)

# event-log texts of the task and node moves; a task goes from Pending to Running at one
# instant, logged as two hops through Staging, and a node is preempted from Idle or Running
_TO_PENDING = f"->{TaskState.PENDING.value}"
_PENDING_TO_STAGING = "Pending->Staging"
_STAGING_TO_RUNNING = "Staging->Running"
_RUNNING_TO_COMPLETED = f"{TaskState.RUNNING.value}->{TaskState.COMPLETED.value}"
_STARTING_TO_IDLE = "Starting->Idle"
_IDLE_TO_RUNNING = "Idle->Running"
_RUNNING_TO_IDLE = "Running->Idle"
_TO_PREEMPTED = "->Preempted"
_POSITION = attrgetter("position")
_NODE_ID = attrgetter("node_id")


@dataclass(slots=True)
class Task:
    spec: TaskSpec
    job_id: str
    state: TaskState = TaskState.PENDING
    assigned_nodes: tuple[str, ...] = ()
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    failure_reason: Optional[FailureReason] = None
    attempts: int = 0
    completion_event: Optional[list] = field(default=None, repr=False, compare=False)
    seq: int = field(default=0, repr=False, compare=False)  # FIFO key in the pool queue
    nodes: Sequence[Node] = field(default=(), repr=False, compare=False)  # of a running attempt
    # (start_time, end_time, run_tag) of the attempt this row shows, once it has ended: the one
    # tuple in each of its nodes' busy_logs; None while it runs and after a retry
    interval: Optional[tuple] = field(default=None, repr=False, compare=False)
    entity: str = field(init=False, repr=False, compare=False)  # the event-log entity

    def __post_init__(self):
        self.entity = f"task/{self.job_id}/{self.spec.task_id}"

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_TASK_STATES

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
        self.unfinished = len([t for t in self.tasks if t.state not in TERMINAL_TASK_STATES])

    @property
    def terminal(self) -> bool:
        return self.state in (JobState.COMPLETED, JobState.DELETED)


def pool_node(cfg: PoolConfig, i: int) -> Node:
    """Node `i` of a pool of `cfg`: `<pool>/<i>`, dedicated if among the first
    `dedicated_count`, else low-priority."""
    return Node(f"{cfg.pool_id}/{i}",
                Priority.DEDICATED if i < cfg.dedicated_count else Priority.LOW_PRIORITY, i)


@dataclass
class Pool:
    config: PoolConfig
    state: PoolState = PoolState.ALLOCATING
    nodes: list[Node] = field(default_factory=list)
    created_at: float = 0.0
    steady_at: Optional[float] = None
    deleted_at: Optional[float] = None
    # the pending tasks in `seq` order; a task that left the pending state is a stale entry
    queue: deque[Task] = field(default_factory=deque, repr=False, compare=False)
    # the nodes in state Idle, in `nodes` order; kept current where a node changes state
    idle: list[Node] = field(default_factory=list, repr=False, compare=False)

    @property
    def pool_id(self) -> str:
        return self.config.pool_id

    @property
    def shared_fs_mounted(self) -> bool:
        return self.config.shared_filesystem and self.state is PoolState.STEADY

    @property
    def alive(self) -> bool:
        return self.state is not PoolState.DELETED


class BatchService:
    """Single-tenant batch account: pools, jobs, storage, ledger, event log."""

    def __init__(self, catalog: Catalog, *, seed: int = 0,
                 interconnect: InterconnectModel = AZURE_INTERCONNECT,
                 preemption_rate: float = DEFAULT_PREEMPTION_RATE,
                 scarcity_windows: tuple[tuple[float, float], ...] = (),
                 image_pull_seconds: float = IMAGE_PULL_SECONDS,
                 task_retries: int = 0):
        self.catalog = catalog
        self.seed = seed
        self.interconnect = interconnect
        self.preemption_rate = preemption_rate
        self.scarcity_windows = scarcity_windows  # (start, end): no low-priority allocation
        self.image_pull_seconds = image_pull_seconds
        self.task_retries = task_retries
        self.clock = SimClock()
        self.event_log = EventLog()
        self.storage = StorageAccount()
        self.ledger = billing.Ledger(catalog)
        self.quotas: dict[str, RegionQuota] = catalog.default_quotas()
        self.pools: dict[str, Pool] = {}
        self.jobs: dict[str, Job] = {}  # in submission order
        self._submitted = 0  # tasks ever queued; the next task's FIFO key

    # -- quotas ------------------------------------------------------------

    def quota_set(self, region: str, dedicated_cores: int,
                  low_priority_cores: Optional[int] = None):
        """Raise or lower a catalog region's quotas; low-priority defaults to unchanged."""
        if region not in self.quotas:
            raise ValidationError(f"no quota table for region {region!r}")
        if low_priority_cores is None:
            low_priority_cores = self.quotas[region].low_priority_cores
        self.quotas[region] = RegionQuota(dedicated_cores, low_priority_cores)
        self.event_log.append((self.clock.now, f"quota/{region}",
                               f"dedicated={dedicated_cores},low_priority={low_priority_cores}"))

    def quota_used(self, region: str) -> tuple[int, int]:
        """Dedicated and low-priority cores of the region's pools that are not deleted."""
        dedicated = low_priority = 0
        for pool in self.pools.values():
            cfg = pool.config
            if cfg.region == region and pool.alive:
                vcores = self.catalog.lookup(cfg.sku).vcores
                dedicated += cfg.dedicated_count * vcores
                low_priority += cfg.low_priority_count * vcores
        return dedicated, low_priority

    def available_quota(self, region: str) -> RegionQuota:
        quota = self.quotas[region]
        dedicated, low_priority = self.quota_used(region)
        return RegionQuota(quota.dedicated_cores - dedicated,
                           quota.low_priority_cores - low_priority)

    # -- pool lifecycle ----------------------------------------------------

    def pool_add(self, cfg: PoolConfig) -> Pool:
        existing = self.pools.get(cfg.pool_id)
        if existing is not None and existing.alive:
            raise ValidationError(f"pool already exists: {cfg.pool_id!r}")
        if cfg.region not in self.quotas:
            raise ValidationError(f"no quota table for region {cfg.region!r}")
        validate_pool(cfg, self.catalog, self.available_quota(cfg.region))
        now = self.clock.now
        if cfg.low_priority_count > 0 and any(a <= now < b for a, b in self.scarcity_windows):
            raise SimulationError(f"low-priority capacity unavailable at t={now:.0f}s")
        pool = Pool(config=cfg, created_at=now)
        # one boot latency per pool, so that all its nodes become usable at one instant:
        # billed node time then equals the pool's usable life
        boot = derived_rng(self.seed, f"boot/{cfg.pool_id}").randint(*BOOT_LATENCY_RANGE)
        pull, log = self.image_pull_seconds, self.event_log.append
        for i in range(cfg.node_count):
            node = pool_node(cfg, i)
            log((now, node.entity, f"->{node.state.value}"))
            if pull > 0:
                self.clock.schedule(now + boot, functools.partial(
                    self._on_node_staging, node, f"image_pull:{cfg.image}"))
            self.clock.schedule(now + (boot + pull),
                                functools.partial(self._on_node_ready, pool, node))
            pool.nodes.append(node)
        self.pools[cfg.pool_id] = pool
        log((now, f"pool/{cfg.pool_id}", f"->{PoolState.ALLOCATING.value}"))
        for rule in cfg.warnings:
            log((now, f"pool/{cfg.pool_id}", f"warning:{rule}"))
        return pool

    def _on_node_staging(self, node: Node, label: str):
        if node.released_time is None:  # else pool_del released it while it booted
            self.event_log.append((self.clock.now, node.entity, label))

    def _on_node_ready(self, pool: Pool, node: Node):
        if node.released_time is not None:  # pool_del released it while it booted
            return
        node.state = NodeState.IDLE
        node.ready_time = now = self.clock.now
        self.event_log.append((now, node.entity, _STARTING_TO_IDLE))
        insort(pool.idle, node, key=_POSITION)
        if node.priority is Priority.LOW_PRIORITY:
            self.schedule_preemption(pool, node)
        if pool.state is PoolState.ALLOCATING:
            dedicated_ready = sum(
                1 for n in pool.nodes
                if n.priority is Priority.DEDICATED and n.state is not NodeState.STARTING
            )
            if dedicated_ready == pool.config.dedicated_count:
                pool.state = PoolState.STEADY
                pool.steady_at = now
                self.event_log.append((now, f"pool/{pool.pool_id}",
                                       f"{PoolState.ALLOCATING.value}->{PoolState.STEADY.value}"))
        self.schedule_step()

    def schedule_preemption(self, pool: Pool, node: Node):
        """Schedule a low-priority node's preemption at its `preempt_at`; a node that has
        none draws it from its own stream as it becomes ready."""
        if node.preempt_at is None:
            rate = self.preemption_rate  # events per node-hour
            delay = (derived_rng(self.seed, f"preempt/{node.node_id}").expovariate(rate) * 3600.0
                     if rate else math.inf)
            if delay == math.inf:  # a rate of 0 never preempts
                return
            node.preempt_at = self.clock.now + delay
        self.clock.schedule(node.preempt_at, functools.partial(self._on_preempt, pool, node))

    def pool_del(self, pool_id: str):
        pool = self.pools.get(pool_id)
        if pool is None or not pool.alive:
            raise ValidationError(f"no such pool: {pool_id!r}")
        now = self.clock.now
        # Deleting lasts only this call: no reader sees it, and no state.json holds it
        self.event_log.append((now, f"pool/{pool_id}", f"{pool.state.value}->Deleting"))
        for job in [j for j in self.jobs.values() if j.pool_id == pool_id]:
            for task in job.tasks:
                if not task.terminal:
                    self._fail_task(pool, job, task, FailureReason.POOL_DELETED)
            self._refresh_job_state(job)
        for node in pool.nodes:  # failing the tasks has freed every node
            self._close_meter(pool, node, now)
            if node.released_time is None:
                node.released_time = now
                self.event_log.append((now, f"node/{node.node_id}", "released"))
        pool.state = PoolState.DELETED
        pool.deleted_at = now
        self.event_log.append((now, f"pool/{pool_id}", "Deleting->Deleted"))

    # -- jobs and tasks ------------------------------------------------------

    def jobs_add(self, cfg: JobsConfig) -> Job:
        pool = self.pools.get(cfg.pool_id)
        if pool is None or not pool.alive:
            raise ValidationError(f"no such pool: {cfg.pool_id!r}")
        if cfg.job_id in self.jobs and not self.jobs[cfg.job_id].terminal:
            raise ValidationError(f"job already exists: {cfg.job_id!r}")
        node_count = pool.config.node_count
        for spec in cfg.tasks:
            if spec.instances > node_count:
                raise ValidationError(
                    f"task {spec.task_id!r} wants {spec.instances} instances; pool "
                    f"{pool.pool_id!r} has {pool.config.node_count} nodes"
                )
        job = Job(cfg.job_id, cfg.pool_id,
                  [Task(spec=s, job_id=cfg.job_id) for s in cfg.tasks],
                  submitted_at=self.clock.now)
        self.enqueue(job)
        now, log = self.clock.now, self.event_log.append
        log((now, f"job/{cfg.job_id}", f"->{JobState.ACTIVE.value}"))
        for task in job.tasks:
            log((now, task.entity, _TO_PENDING))
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
                self.pools[job.pool_id].queue.append(task)

    def jobs_del(self, job_id: str):
        job = self.jobs.get(job_id)
        if job is None or job.state is JobState.DELETED:
            raise ValidationError(f"no such job: {job_id!r}")
        pool = self.pools.get(job.pool_id)
        for task in job.tasks:
            if not task.terminal:
                self._fail_task(pool, job, task, FailureReason.JOB_DELETED)
        job.state = JobState.DELETED
        self.event_log.append((self.clock.now, f"job/{job_id}", f"->{JobState.DELETED.value}"))
        self.schedule_step()

    def schedule_step(self):
        """Gang-scheduling pass: strict FIFO per pool, no backfilling.

        Each pool's pending tasks wait in submission order; a task retried
        after preemption keeps its key, so it regains its place.
        A multi-instance task starts only when its full node complement is idle
        at once; the first pending task that does not fit blocks the rest.
        """
        for pool in self.pools.values():
            if pool.state is PoolState.STEADY:
                self._schedule_pool(pool)

    def _schedule_pool(self, pool: Pool):
        queue, idle = pool.queue, pool.idle
        while queue:
            task = queue[0]
            if task.state is TaskState.PENDING:  # others are stale entries
                width = task.spec.instances
                if len(idle) < width:
                    return
                self._start_task(pool, self.jobs[task.job_id], task, idle[:width])
            queue.popleft()

    def _start_task(self, pool: Pool, job: Job, task: Task, nodes: list[Node]):
        now, log = self.clock.now, self.event_log.append
        spec = task.spec
        result = workloads.execute(spec.workload, spec.instances, spec.procs_per_node,
                                   self.interconnect)
        task.nodes = nodes
        task.assigned_nodes = tuple(map(_NODE_ID, nodes))
        log((now, task.entity, _PENDING_TO_STAGING))
        task.state = TaskState.RUNNING
        task.start_time = now
        task.end_time = end = now + result.duration_seconds
        log((now, task.entity, _STAGING_TO_RUNNING))
        del pool.idle[:len(nodes)]  # a gang takes the first idle nodes
        for node in nodes:
            node.state = NodeState.RUNNING
            node.task = task
            log((now, node.entity, _IDLE_TO_RUNNING))
        task.completion_event = self.clock.schedule(
            end, functools.partial(self._finish_task, job, task, result))

    def _finish_task(self, job: Job, task: Task, result: workloads.WorkloadResult):
        # _fail_task cancels this event on every path that stops the attempt
        now, log = self.clock.now, self.event_log.append
        self._free_nodes(self.pools[job.pool_id], task)
        task.state = TaskState.COMPLETED
        task.completion_event = None  # the event holds the task and its result alive
        job.unfinished -= 1
        log((now, task.entity, _RUNNING_TO_COMPLETED))
        share, _, directory = task.spec.output_dir.partition("/")
        if share in self.storage.shares:  # else no share is mounted and outputs are dropped
            for name, content in result.outputs:
                path = f"{directory}/{name}" if directory else name
                self.storage.write_entry(share, path, content)
                log((now, f"share/{share}", f"write:{path}:{len(content)}"))
        if not job.unfinished:
            self._refresh_job_state(job)
        self.schedule_step()

    def _on_preempt(self, pool: Pool, node: Node):
        if not pool.alive or node.state not in (NodeState.IDLE, NodeState.RUNNING):
            return
        now = self.clock.now
        task = node.task
        if node.state is NodeState.IDLE:
            pool.idle.remove(node)
        self.event_log.append((now, node.entity, node.state.value + _TO_PREEMPTED))
        node.state = NodeState.PREEMPTED
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
            self.clock.cancel(task.completion_event)
            task.completion_event = None
        if task.state is TaskState.RUNNING:
            self._free_nodes(pool, task)
        previous = task.state
        if (reason is FailureReason.NODE_PREEMPTED and task.attempts < self.task_retries):
            task.attempts += 1
            task.state = TaskState.PENDING
            task.assigned_nodes = ()
            task.start_time = task.end_time = task.interval = None
            self.event_log.append((now, task.entity,
                                   f"{previous.value}->{TaskState.PENDING.value} "
                                   f"(retry {task.attempts})"))
            insort(pool.queue, task, key=attrgetter("seq"))
            return
        task.state = TaskState.FAILED
        job.unfinished -= 1
        task.failure_reason = reason
        task.end_time = now
        self.event_log.append((now, task.entity,
                               f"{previous.value}->{TaskState.FAILED.value}({reason.value})"))

    def _free_nodes(self, pool: Pool, task: Task):
        """End a running attempt: log its busy interval on each of its nodes, a preempted
        one included, and return the others to the pool. Their Running->Idle moves are
        legal: `_start_task` took them from the idle index, Idle, for this attempt alone, and
        only this call returns them there."""
        now = self.clock.now
        task.interval = interval = (task.start_time, now, task.run_tag)
        idle, log = pool.idle, self.event_log.append
        for node in task.nodes:
            node.busy_log.append(interval)
            node.task = None
            if node.state is NodeState.RUNNING:
                node.state = NodeState.IDLE
                log((now, node.entity, _RUNNING_TO_IDLE))
                insort(idle, node, key=_POSITION)
        task.nodes = ()

    def _refresh_job_state(self, job: Job):
        if job.state is JobState.ACTIVE and not job.unfinished:
            job.state = JobState.COMPLETED
            self.event_log.append((self.clock.now, f"job/{job.job_id}",
                                   f"{JobState.ACTIVE.value}->{JobState.COMPLETED.value}"))

    # -- data transfers --------------------------------------------------------

    def data_ingress(self, share: str, directory: str, manifest: list[tuple[str, int]]) -> int:
        """Upload a size manifest into a share directory; returns and logs the metered bytes."""
        nbytes = self.storage.ingress(share, directory, manifest)
        if nbytes:
            self.event_log.append((self.clock.now, f"share/{share}", f"ingress:{nbytes}"))
        return nbytes

    def data_download(self, share: str, directory: str, dest) -> int:
        """Download a share directory to `dest`; returns, bills and logs the egress bytes."""
        now = self.clock.now
        nbytes = self.storage.download_batch(share, directory, dest)
        if nbytes:
            self.ledger.add_egress(nbytes, f"download {share}/{directory}", (now, now))
            self.event_log.append((now, f"share/{share}", f"egress:{nbytes}"))
        return nbytes

    # -- metering ------------------------------------------------------------

    def _close_meter(self, pool: Pool, node: Node, at: float):
        if node.ready_time is None or node.released_time is not None:
            return
        plan = (PricingPlan.PAYGO_DEDICATED if node.priority is Priority.DEDICATED
                else PricingPlan.PAYGO_LOW_PRIORITY)
        seconds = Fraction(at) - Fraction(node.ready_time)
        sku = pool.config.sku
        self.ledger.add_vm(sku, plan, seconds, f"{sku} {node.node_id} ({node.priority.value})",
                           (node.ready_time, at))

    # -- simulation drivers ----------------------------------------------------

    def advance_until_pool_settled(self, pool_id: str):
        """Advance past pool readiness including any low-priority stragglers."""
        nodes = self.pools[pool_id].nodes
        self.clock.run(until=lambda: all(n.state is not NodeState.STARTING
                                         or n.released_time is not None for n in nodes))

    def advance_until_job_terminal(self, job_id: str):
        job = self.jobs[job_id]
        self.clock.run(until=lambda: job.terminal)

    def run_to_quiescence(self):
        self.clock.run()

    # -- queries ---------------------------------------------------------------

    def all_tasks(self) -> list[Task]:
        return [t for j in self.jobs.values() for t in j.tasks]
