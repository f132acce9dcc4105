"""Randomized schedule generator, the preemption retry mix, and invariant checks shared
by the batch property tests, the golden digests and the acceptance suite."""

import random
from fractions import Fraction

from batchsim.batch import BatchService, FailureReason, TaskState
from batchsim.catalog import default_catalog
from batchsim.config import JobsConfig, PoolConfig, TaskSpec
from batchsim.errors import ValidationError
from batchsim.fabric import NodeState, Priority
from batchsim.workloads import FixedDuration

CATALOG = default_catalog()


def _task(idx, job, instances, seconds):
    return TaskSpec(
        task_id=f"t{idx}",
        workload=FixedDuration(float(seconds)),
        instances=instances,
        procs_per_node=1,
        gpus_per_node=0,
        input_dir="fileshare/in",
        output_dir="fileshare/out",
    )


def run_random_schedule(seed, share=False):
    """One randomized pool/job mix driven to quiescence, then torn down. With `share`,
    a 1 GiB share `fileshare` is created first, so that the tasks' outputs are stored."""
    rng = random.Random(seed)
    rate = rng.choice([0.0, 1.0, 5.0, 20.0])
    svc = BatchService(CATALOG, seed=seed, preemption_rate=rate,
                      task_retries=rng.choice([0, 0, 0, 1]))
    svc.quota_set("eastus", 1000, 1000)
    if share:
        svc.storage.share_create("fileshare", 1)
    dedicated = rng.randint(0, 3)
    low_priority = rng.randint(0, 3)
    if dedicated + low_priority == 0:
        dedicated = 1
    pool_cfg = PoolConfig(
        pool_id=f"pool{seed}", sku=rng.choice(["NC6", "NC12"]), region="eastus",
        dedicated_count=dedicated, low_priority_count=low_priority,
        inter_node_comm=False, shared_filesystem=False, image="img:1",
    )
    pool = svc.pool_add(pool_cfg)
    svc.advance_until_pool_settled(pool.pool_id)
    node_count = dedicated + low_priority
    for j in range(rng.randint(1, 2)):
        tasks = tuple(
            _task(i, j, rng.randint(1, node_count), rng.randint(60, 7200))
            for i in range(rng.randint(1, 3))
        )
        svc.jobs_add(JobsConfig(job_id=f"job{seed}-{j}", pool_id=pool_cfg.pool_id,
                                tasks=tasks))
    svc.run_to_quiescence()
    svc.pool_del(pool.pool_id)
    return svc, pool


def run_retry_mix(seed: int) -> BatchService:
    """Gang tasks on a pool whose low-priority nodes are preempted, one retry per
    task, and the job of a running task deleted mid-run; outputs go to per-job
    directories of a share."""
    rng = random.Random(seed)
    svc = BatchService(default_catalog(), seed=seed, preemption_rate=1.0, task_retries=1)
    svc.quota_set("eastus", 1000, 1000)
    svc.storage.share_create("fileshare", 1)
    svc.pool_add(PoolConfig(pool_id="mix", sku="NC6", region="eastus", dedicated_count=2,
                            low_priority_count=4, inter_node_comm=False,
                            shared_filesystem=False, image="img:1"))
    svc.advance_until_pool_settled("mix")
    for j in range(8):
        tasks = tuple(TaskSpec(task_id=f"t{i}",
                               workload=FixedDuration(float(rng.randint(60, 7200))),
                               instances=rng.randint(1, 3), procs_per_node=1, gpus_per_node=0,
                               input_dir="fileshare/in", output_dir=f"fileshare/out/job{j}")
                      for i in range(rng.randint(1, 6)))
        svc.jobs_add(JobsConfig(job_id=f"job{j}", pool_id="mix", tasks=tasks))
    svc.clock.run(until=lambda: svc.clock.now >= 3 * 3600)
    svc.jobs_del(next(t.job_id for t in svc.all_tasks() if t.state is TaskState.RUNNING))
    svc.run_to_quiescence()
    svc.pool_del("mix")
    return svc


def check_gang_atomicity(svc, pool):
    """Every started task held its whole node complement for one interval
    (per attempt, for retried tasks)."""
    for task in svc.all_tasks():
        if task.start_time is None:
            continue
        assert len(task.assigned_nodes) == task.spec.instances
        for node_id in task.assigned_nodes:
            node = next(n for n in pool.nodes if n.node_id == node_id)
            intervals = [(s, e) for s, e, t in node.busy_log if t == task.run_tag]
            assert intervals == [(task.start_time, task.end_time)], (
                f"gang mismatch: {task.run_tag} on {node_id}: {intervals} "
                f"vs {(task.start_time, task.end_time)}"
            )


def check_no_oversubscription(pool):
    for node in pool.nodes:
        intervals = sorted(node.busy_log)
        for (s1, e1, t1), (s2, e2, t2) in zip(intervals, intervals[1:]):
            assert e1 <= s2, f"{node.node_id} oversubscribed: {t1} overlaps {t2}"


def check_dedicated_never_preempted(svc, pool):
    dedicated = {n.node_id for n in pool.nodes if n.priority is Priority.DEDICATED}
    for n in pool.nodes:
        if n.node_id in dedicated:
            assert n.state is not NodeState.PREEMPTED
    for _, entity, transition in svc.event_log.records:
        if transition.endswith("->Preempted"):
            assert entity.removeprefix("node/") not in dedicated


def check_preemption_fails_whole_task(svc, pool):
    preempt_times = {n.node_id: n.released_time for n in pool.nodes
                     if n.state is NodeState.PREEMPTED}
    for task in svc.all_tasks():
        if task.failure_reason is not FailureReason.NODE_PREEMPTED:
            continue
        if task.state is not TaskState.FAILED:
            continue
        assert any(preempt_times.get(nid) == task.end_time
                   for nid in task.assigned_nodes), (
            f"{task.entity} failed by preemption but no assigned node was "
            f"preempted at {task.end_time}"
        )


def check_conservation(svc):
    for task in svc.all_tasks():
        assert task.terminal, f"{task.entity} not terminal after pool deletion"
        assert (task.state is TaskState.COMPLETED) != (task.failure_reason is not None)


def check_billing_consistency(svc, pool):
    metered = sum((item.node_seconds for item in svc.ledger.items
                   if item.node_seconds is not None), Fraction(0))
    uptime = Fraction(0)
    for node in pool.nodes:
        if node.ready_time is not None:
            assert node.released_time is not None
            uptime += Fraction(node.released_time) - Fraction(node.ready_time)
    assert metered == uptime


def check_all_invariants(svc, pool):
    check_gang_atomicity(svc, pool)
    check_no_oversubscription(pool)
    check_dedicated_never_preempted(svc, pool)
    check_preemption_fails_whole_task(svc, pool)
    check_conservation(svc)
    check_billing_consistency(svc, pool)


def check_quota_rejection(seed):
    svc = BatchService(CATALOG, seed=seed)
    cfg = PoolConfig(pool_id="big", sku="NC24r", region="eastus",
                     dedicated_count=2, low_priority_count=0,
                     inter_node_comm=True, shared_filesystem=True, image="img:1")
    try:
        svc.pool_add(cfg)
    except ValidationError as exc:
        assert str(exc) == "quota exceeded in region eastus: needed 48 cores, available 24"
        assert svc.pools == {}
        return
    raise AssertionError("48-core pool admitted under a 24-core quota")


def check_shared_fs_rejection(seed):
    svc = BatchService(CATALOG, seed=seed)
    cfg = PoolConfig(pool_id="glusterfs", sku="NC6", region="eastus",
                     dedicated_count=1, low_priority_count=1,
                     inter_node_comm=False, shared_filesystem=True, image="img:1")
    try:
        svc.pool_add(cfg)
    except ValidationError as exc:
        assert str(exc) == "a shared filesystem pool cannot include low-priority nodes"
        assert svc.pools == {}
        return
    raise AssertionError("shared-filesystem pool with low-priority nodes admitted")
