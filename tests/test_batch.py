import heapq
from fractions import Fraction

import pytest

from batchsim.batch import BatchService, FailureReason, JobState, PoolState, TaskState
from batchsim.catalog import RegionQuota, default_catalog
from batchsim.config import JobsConfig, PoolConfig, TaskSpec
from batchsim.errors import SimulationError, ValidationError
from batchsim.fabric import BOOT_LATENCY_RANGE, NodeState, Priority
from batchsim.state import status_doc
from batchsim.workloads import FixedDuration

from randomized import (
    check_all_invariants,
    check_quota_rejection,
    check_shared_fs_rejection,
    run_random_schedule,
    run_retry_mix,
)

CATALOG = default_catalog()


def make_service(**kwargs):
    svc = BatchService(CATALOG, **kwargs)
    svc.quota_set("eastus", 200, 200)
    return svc


def pool_cfg(pool_id="p", sku="NC6", ded=2, low=0, **flags):
    return PoolConfig(
        pool_id=pool_id, sku=sku, region="eastus", dedicated_count=ded,
        low_priority_count=low,
        inter_node_comm=flags.get("inter_node_comm", False),
        shared_filesystem=flags.get("shared_filesystem", False),
        image="img:1",
    )


def task(task_id, instances, seconds):
    return TaskSpec(task_id=task_id, workload=FixedDuration(float(seconds)),
                    instances=instances, procs_per_node=1, gpus_per_node=0,
                    input_dir="fileshare/in", output_dir="fileshare/out")


def jobs_cfg(pool_id, *tasks, job_id="job"):
    return JobsConfig(job_id=job_id, pool_id=pool_id, tasks=tuple(tasks))


def steady_pool(svc, cfg):
    pool = svc.pool_add(cfg)
    svc.advance_until_pool_settled(pool.pool_id)
    assert pool.state is PoolState.STEADY
    return pool


# ---------------------------------------------------------------------------
# pool lifecycle


def test_pool_add_reaches_steady_after_quota_raise():
    svc = BatchService(CATALOG, seed=1)
    svc.quota_set("eastus", 100, 24)
    pool = steady_pool(svc, pool_cfg(sku="NC24r", ded=2, inter_node_comm=True,
                                     shared_filesystem=True))
    assert pool.shared_fs_mounted
    assert all(n.state is NodeState.IDLE for n in pool.nodes)


# pool admission: the exception pool_add raises for each broken rule, and the
# rule that wins when several break (dedicated quota, low-priority quota, RDMA,
# shared filesystem); a rejected pool leaves the service untouched

RDMA_TEXT = "inter-node communication requires an RDMA-capable SKU; NC24 has none"
SHARED_FS_TEXT = "a shared filesystem pool cannot include low-priority nodes"
WARNING_TEXT = ("low-priority nodes are preemptible and best avoided for long-running jobs "
                "with inter-node communication")


def _rejected(svc, cfg):
    def snapshot():
        return svc.event_log.lines(), dict(svc.pools), status_doc(svc)["quotas"], svc.ledger.items

    before = snapshot()
    with pytest.raises(ValidationError) as err:
        svc.pool_add(cfg)
    assert snapshot() == before
    return err.value


def _quota_text(needed, available):
    return f"quota exceeded in region eastus: needed {needed} cores, available {available}"


def test_pool_add_quota_exceeded_under_default():
    svc = BatchService(CATALOG, seed=1)  # default 24 dedicated cores
    assert str(_rejected(svc, pool_cfg(sku="NC24r", ded=2))) == _quota_text(48, 24)
    svc.pool_add(pool_cfg(pool_id="small", sku="NC6", ded=2))  # uses 12 dedicated cores
    assert str(_rejected(svc, pool_cfg(sku="NC24r", ded=1))) == _quota_text(24, 12)


def test_pool_add_low_priority_quota_exceeded_under_default():
    svc = BatchService(CATALOG, seed=1)  # default 24 low-priority cores
    assert str(_rejected(svc, pool_cfg(sku="NC24r", ded=0, low=2))) == _quota_text(48, 24)
    svc.pool_add(pool_cfg(pool_id="lp", sku="NC6", ded=0, low=3))  # uses 18 low-priority cores
    assert str(_rejected(svc, pool_cfg(sku="NC12", ded=1, low=1))) == _quota_text(12, 6)


def test_pool_add_shared_fs_low_priority():
    svc = make_service(seed=1)
    assert str(_rejected(svc, pool_cfg(ded=1, low=1, shared_filesystem=True))) == SHARED_FS_TEXT


def test_pool_add_rdma_required():
    svc = make_service(seed=1)
    assert str(_rejected(svc, pool_cfg(sku="NC24", ded=1, inter_node_comm=True))) == RDMA_TEXT


# (pool, expected text) under the default 24 + 24 core quota
ADMISSION_ORDER = {
    "dedicated-before-low-priority": (pool_cfg(sku="NC24", ded=2, low=3), _quota_text(48, 24)),
    "dedicated-before-rdma": (pool_cfg(sku="NC24", ded=2, inter_node_comm=True),
                              _quota_text(48, 24)),
    "low-priority-before-rdma": (pool_cfg(sku="NC24", ded=0, low=2, inter_node_comm=True),
                                 _quota_text(48, 24)),
    "low-priority-before-shared-fs": (pool_cfg(sku="NC6", ded=0, low=5,
                                               shared_filesystem=True), _quota_text(30, 24)),
    "rdma-before-shared-fs": (pool_cfg(sku="NC24", ded=0, low=1, inter_node_comm=True,
                                       shared_filesystem=True), RDMA_TEXT),
    "all-four": (pool_cfg(sku="NC24", ded=2, low=3, inter_node_comm=True,
                          shared_filesystem=True), _quota_text(48, 24)),
    "shared-fs-with-warning": (pool_cfg(sku="NC24r", ded=0, low=1, inter_node_comm=True,
                                        shared_filesystem=True), SHARED_FS_TEXT),
}


@pytest.mark.parametrize("cfg, text", list(ADMISSION_ORDER.values()), ids=list(ADMISSION_ORDER))
def test_pool_add_raises_the_first_broken_rule(cfg, text):
    svc = BatchService(CATALOG, seed=1)
    assert str(_rejected(svc, cfg)) == text


def test_pool_add_unknown_region_is_checked_before_the_rules():
    svc = BatchService(CATALOG, seed=1)
    cfg = PoolConfig(pool_id="p", sku="NC24", region="westeurope", dedicated_count=2,
                     low_priority_count=3, inter_node_comm=True, shared_filesystem=True,
                     image="img:1")
    assert str(_rejected(svc, cfg)) == "no quota table for region 'westeurope'"


def test_pool_add_low_priority_comm_warning_not_rejection():
    svc = make_service(seed=1)
    pool = svc.pool_add(pool_cfg(sku="NC24r", ded=1, low=1, inter_node_comm=True))
    assert pool.config.warnings == {"LowPriorityInterNodeComm": WARNING_TEXT}
    assert [tr for _, entity, tr in svc.event_log.records if entity == "pool/p"] == [
        "->Allocating", "warning:LowPriorityInterNodeComm"]
    for cfg in (pool_cfg(pool_id="d", sku="NC24r", ded=1, inter_node_comm=True),
                pool_cfg(pool_id="l", sku="NC24r", ded=0, low=1)):
        assert svc.pool_add(cfg).config.warnings == {}


def test_image_pull_precedes_steady():
    svc = make_service(seed=4, image_pull_seconds=120.0)
    pool = steady_pool(svc, pool_cfg(ded=1))
    pulls = [r for r in svc.event_log.records if r[2].startswith("image_pull:")]
    assert len(pulls) == 1
    boot = pulls[0][0]  # the pull starts once the node has booted
    lo, hi = BOOT_LATENCY_RANGE
    assert lo <= boot <= hi
    assert pool.steady_at == pool.nodes[0].ready_time == pytest.approx(boot + 120.0)


def test_quota_returned_after_delete():
    svc = make_service(seed=1)
    pool = steady_pool(svc, pool_cfg(ded=2))
    assert svc.available_quota("eastus").dedicated_cores == 200 - 12
    svc.pool_del(pool.pool_id)
    assert svc.available_quota("eastus").dedicated_cores == 200


def test_pool_delete_twice_unknown():
    svc = make_service(seed=1)
    pool = steady_pool(svc, pool_cfg(ded=1))
    svc.pool_del(pool.pool_id)
    with pytest.raises(ValidationError, match="^no such pool: 'p'$"):
        svc.pool_del(pool.pool_id)


def test_delete_steady_pool_closes_meters():
    svc = make_service(seed=2)
    pool = steady_pool(svc, pool_cfg(ded=2))
    svc.pool_del(pool.pool_id)
    vm_items = [i for i in svc.ledger.items if i.node_seconds is not None]
    assert len(vm_items) == 2
    for node, item in zip(pool.nodes, vm_items):
        assert item.node_seconds == Fraction(node.released_time) - Fraction(node.ready_time)


def test_pool_del_while_booting_drops_its_boot_events():
    """pool_del releases the nodes that are still starting: their image pull and readiness
    events then do nothing, and no meter runs for them."""
    svc = make_service(seed=2, preemption_rate=50.0)
    pool = svc.pool_add(pool_cfg(ded=1, low=1))
    svc.pool_del(pool.pool_id)
    logged = svc.event_log.lines()
    svc.run_to_quiescence()
    assert svc.event_log.lines() == logged
    assert [(n.state, n.ready_time, n.released_time) for n in pool.nodes] == [
        (NodeState.STARTING, None, 0.0)] * 2
    assert not svc.ledger.items and svc.clock.now > 0


# ---------------------------------------------------------------------------
# jobs and gang scheduling


def test_multi_instance_task_uses_all_nodes():
    svc = make_service(seed=3)
    pool = steady_pool(svc, pool_cfg(ded=2))
    job = svc.jobs_add(jobs_cfg("p", task("t0", 2, 600)))
    tk = job.tasks[0]
    svc.clock.run(until=lambda: tk.state is TaskState.RUNNING)
    assert set(tk.assigned_nodes) == {n.node_id for n in pool.nodes}
    assert all(n.state is NodeState.RUNNING for n in pool.nodes)
    svc.advance_until_job_terminal(job.job_id)
    assert tk.state is TaskState.COMPLETED
    assert tk.end_time - tk.start_time == pytest.approx(600.0)
    for node in pool.nodes:
        assert node.busy_log == [(tk.start_time, tk.end_time, tk.run_tag)]


def test_task_too_wide():
    svc = make_service(seed=3)
    steady_pool(svc, pool_cfg(ded=2))
    with pytest.raises(ValidationError,
                       match="^task 't0' wants 3 instances; pool 'p' has 2 nodes$"):
        svc.jobs_add(jobs_cfg("p", task("t0", 3, 60)))


def test_unknown_pool_for_jobs():
    svc = make_service(seed=3)
    with pytest.raises(ValidationError, match="^no such pool: 'nope'$"):
        svc.jobs_add(jobs_cfg("nope", task("t0", 1, 60)))


def test_sequential_gang_tasks_serialize():
    svc = make_service(seed=5)
    steady_pool(svc, pool_cfg(ded=2))
    job = svc.jobs_add(jobs_cfg("p", task("a", 2, 300), task("b", 2, 400)))
    first, second = job.tasks
    svc.clock.run(until=lambda: first.state is TaskState.RUNNING)
    assert second.state is TaskState.PENDING
    svc.advance_until_job_terminal(job.job_id)
    assert second.start_time == first.end_time
    assert job.state is JobState.COMPLETED


def test_fifo_makespan_matches_list_schedule_oracle():
    durations = [100.0, 200.0, 50.0, 75.0, 125.0]
    svc = make_service(seed=6)
    pool = steady_pool(svc, pool_cfg(ded=2))
    job = svc.jobs_add(jobs_cfg("p", *(task(f"t{i}", 1, d)
                                       for i, d in enumerate(durations))))
    svc.advance_until_job_terminal(job.job_id)
    # independent oracle: FIFO list scheduling onto the earliest-free node
    free = [0.0] * 2
    ends = []
    for d in durations:
        start = heapq.heappop(free)
        ends.append(start + d)
        heapq.heappush(free, ends[-1])
    expected_makespan = max(ends)
    t0 = pool.steady_at
    makespan = max(t.end_time for t in job.tasks) - t0
    assert makespan == pytest.approx(expected_makespan)
    assert [t.start_time for t in job.tasks] == sorted(t.start_time for t in job.tasks)


def test_preemption_fails_whole_gang_task():
    # all-low-priority pool with an aggressive preemption clock: the first
    # preemption lands mid-task and must take the whole gang down
    svc = BatchService(CATALOG, seed=8, preemption_rate=5.0)
    svc.quota_set("eastus", 200, 200)
    pool = steady_pool(svc, pool_cfg(ded=0, low=2))
    job = svc.jobs_add(jobs_cfg("p", task("t0", 2, 200_000)))
    tk = job.tasks[0]
    svc.advance_until_job_terminal(job.job_id)
    assert tk.state is TaskState.FAILED
    assert tk.failure_reason is FailureReason.NODE_PREEMPTED
    preempted = [n for n in pool.nodes if n.state is NodeState.PREEMPTED]
    assert preempted
    assert min(n.released_time for n in preempted) == tk.end_time
    assert tk.start_time < tk.end_time < tk.start_time + 200_000
    survivors = [n for n in pool.nodes if n.state is NodeState.IDLE]
    for node in survivors:
        assert node.busy_log[-1][1] == tk.end_time


def test_dedicated_nodes_never_preempted():
    svc = BatchService(CATALOG, seed=9, preemption_rate=50.0)
    svc.quota_set("eastus", 200, 200)
    pool = steady_pool(svc, pool_cfg(ded=1, low=1))
    svc.run_to_quiescence()
    dedicated = [n for n in pool.nodes if n.priority is Priority.DEDICATED]
    low = [n for n in pool.nodes if n.priority is Priority.LOW_PRIORITY]
    assert all(n.state is NodeState.IDLE for n in dedicated)
    assert all(n.state is NodeState.PREEMPTED for n in low)


def test_task_retry_after_preemption():
    svc = BatchService(CATALOG, seed=8, preemption_rate=5.0, task_retries=5)
    svc.quota_set("eastus", 200, 200)
    steady_pool(svc, pool_cfg(ded=1, low=1))
    job = svc.jobs_add(jobs_cfg("p", task("t0", 1, 3600)))
    svc.run_to_quiescence()
    tk = job.tasks[0]
    assert tk.state is TaskState.COMPLETED  # retried onto the dedicated node


def test_retried_attempts_keep_their_run_tags():
    svc = BatchService(CATALOG, seed=3, preemption_rate=0.0, task_retries=1)
    svc.quota_set("eastus", 200, 200)
    pool = steady_pool(svc, pool_cfg(ded=0, low=2))
    first, second = pool.nodes
    job = svc.jobs_add(jobs_cfg("p", task("t0", 1, 3600)))
    tk = job.tasks[0]
    started = tk.start_time
    svc.clock.schedule(started + 1000, lambda: svc._on_preempt(pool, first))
    svc.run_to_quiescence()
    assert tk.state is TaskState.COMPLETED and tk.attempts == 1
    assert first.busy_log == [(started, started + 1000, "task/job/t0#0")]
    assert second.busy_log == [(started + 1000, started + 4600, "task/job/t0#1")]
    lines = [line.split("\t") for line in svc.event_log.lines()]
    assert [(float(t), tr) for t, e, tr in lines if e == "task/job/t0"] == [
        (started, "->Pending"), (started, "Pending->Staging"), (started, "Staging->Running"),
        (started + 1000, "Running->Pending (retry 1)"),
        (started + 1000, "Pending->Staging"), (started + 1000, "Staging->Running"),
        (started + 4600, "Running->Completed"),
    ]
    assert not any(float(t) == started + 3600 for t, _, _ in lines)  # attempt 0's end


def test_preempting_an_idle_node_leaves_the_task_it_finished_completed():
    svc = BatchService(CATALOG, seed=3, preemption_rate=0.0)
    svc.quota_set("eastus", 200, 200)
    pool = steady_pool(svc, pool_cfg(ded=0, low=1))
    job = svc.jobs_add(jobs_cfg("p", task("t0", 1, 100)))
    tk, node = job.tasks[0], pool.nodes[0]
    svc.clock.schedule(tk.end_time + 1000, lambda: svc._on_preempt(pool, node))
    svc.run_to_quiescence()
    assert node.state is NodeState.PREEMPTED and node.released_time == tk.end_time + 1000
    assert (tk.state, job.state, job.unfinished) == (TaskState.COMPLETED, JobState.COMPLETED, 0)
    assert [tr for _, e, tr in svc.event_log.records if e == tk.entity][-1] == "Running->Completed"


# each legal node move: its event-log text, and its source and target states
NODE_MOVES = {f"{a.value}->{b.value}": (a, b) for a, b in (
    (NodeState.STARTING, NodeState.IDLE), (NodeState.IDLE, NodeState.RUNNING),
    (NodeState.RUNNING, NodeState.IDLE), (NodeState.IDLE, NodeState.PREEMPTED),
    (NodeState.RUNNING, NodeState.PREEMPTED))}


@pytest.mark.parametrize("seed", [*range(20), "retry-mix"])
def test_each_attempt_logs_one_move_to_running_and_back_per_node(seed):
    """A node's logged moves, replayed from Starting, are legal and end in its state, it
    logs one Idle->Running per busy interval, at the interval's start, and no dedicated
    node logs a move to Preempted."""
    if seed == "retry-mix":
        svc = run_retry_mix(16)
        pool = svc.pools["mix"]
        assert any(n.state is NodeState.PREEMPTED for n in pool.nodes)
    else:
        svc, pool = run_random_schedule(seed)
    for node in pool.nodes:
        texts = [(t, text) for t, entity, text in svc.event_log.records if entity == node.entity]
        if node.priority is Priority.DEDICATED:
            assert not [text for _, text in texts if text.endswith("->Preempted")]
        state, starts = NodeState.STARTING, []
        for t, text in texts:
            if text in NODE_MOVES:  # not ->Starting, image_pull, released
                source, target = NODE_MOVES[text]
                assert source is state, (node.entity, t, text)
                state = target
                if text == "Idle->Running":
                    starts.append(t)
        assert state is node.state
        assert starts == [start for start, _, _ in node.busy_log]


def test_pool_delete_fails_running_task():
    svc = make_service(seed=10)
    pool = steady_pool(svc, pool_cfg(ded=2))
    job = svc.jobs_add(jobs_cfg("p", task("t0", 2, 5000)))
    tk = job.tasks[0]
    svc.clock.run(until=lambda: tk.state is TaskState.RUNNING)
    svc.pool_del(pool.pool_id)
    assert tk.state is TaskState.FAILED
    assert tk.failure_reason is FailureReason.POOL_DELETED
    assert job.state is JobState.COMPLETED  # every task terminal
    assert all(n.released_time == svc.clock.now for n in pool.nodes)


def test_jobs_del_fails_pending_and_running():
    svc = make_service(seed=11)
    steady_pool(svc, pool_cfg(ded=1))
    job = svc.jobs_add(jobs_cfg("p", task("a", 1, 1000), task("b", 1, 1000)))
    svc.clock.run(until=lambda: job.tasks[0].state is TaskState.RUNNING)
    svc.jobs_del(job.job_id)
    assert job.state is JobState.DELETED
    assert job.tasks[0].failure_reason is FailureReason.JOB_DELETED
    assert job.tasks[1].failure_reason is FailureReason.JOB_DELETED
    with pytest.raises(ValidationError, match=f"^no such job: '{job.job_id}'$"):
        svc.jobs_del(job.job_id)


def test_jobs_add_on_deleted_pool():
    svc = make_service(seed=12)
    pool = steady_pool(svc, pool_cfg(ded=1))
    svc.pool_del(pool.pool_id)
    with pytest.raises(ValidationError, match="^no such pool: 'p'$"):
        svc.jobs_add(jobs_cfg("p", task("t0", 1, 60)))


def test_task_outputs_land_in_share():
    svc = make_service(seed=13)
    svc.storage.share_create("fileshare", 1)
    steady_pool(svc, pool_cfg(ded=1))
    job = svc.jobs_add(jobs_cfg("p", task("t0", 1, 60)))
    svc.advance_until_job_terminal(job.job_id)
    assert "out/run.log" in svc.storage.shares["fileshare"].entries


def test_status_snapshot():
    svc = make_service(seed=14)
    pool = steady_pool(svc, pool_cfg(ded=1))
    job = svc.jobs_add(jobs_cfg("p", task("t0", 1, 60)))
    svc.advance_until_job_terminal(job.job_id)
    doc = status_doc(svc)
    assert doc["pools"][0]["state"] == "Steady"
    assert doc["jobs"][0]["tasks"][0]["state"] == "Completed"
    assert doc["quotas"]["eastus"]["dedicated_used"] == 6
    svc.pool_del(pool.pool_id)
    assert status_doc(svc)["pools"][0]["state"] == "Deleted"


# ---------------------------------------------------------------------------
# randomized schedules (small sample here; the acceptance suite runs 1000)


@pytest.mark.parametrize("seed", range(0, 60))
def test_randomized_schedule_invariants(seed):
    svc, pool = run_random_schedule(seed)
    check_all_invariants(svc, pool)


def test_quota_and_shared_fs_rejections():
    check_quota_rejection(0)
    check_shared_fs_rejection(0)


def test_event_log_deterministic_for_same_seed():
    a, _ = run_random_schedule(17)
    b, _ = run_random_schedule(17)
    assert a.event_log.lines() == b.event_log.lines()


def test_allocation_unavailable_is_atomic():
    svc = BatchService(CATALOG, seed=1, scarcity_windows=((0.0, 1e6),))
    svc.quota_set("eastus", 200, 200)
    with pytest.raises(SimulationError, match="^low-priority capacity unavailable at t=0s$"):
        svc.pool_add(pool_cfg(ded=1, low=1))
    assert svc.pools == {}
    assert svc.available_quota("eastus").dedicated_cores == 200
    assert svc.clock.pending() == 0


def test_quota_use_is_derived_from_the_pools_not_deleted():
    """Cores in use, in two regions, after pool adds, a quota rejection, an allocation
    denied in a scarcity window, a delete and the re-add of the deleted id; the same
    after a state round trip."""
    from batchsim import state

    svc = BatchService(CATALOG, seed=2, preemption_rate=0.0,
                       scarcity_windows=((2000.0, 1e6),))
    svc.quota_set("eastus", 48, 24)
    svc.quota_set("colonial", 64, 32)

    def cfg(pool_id, sku, region, ded, low):
        return PoolConfig(pool_id, sku, region, ded, low, inter_node_comm=False,
                          shared_filesystem=False, image="img:1")

    def check(eastus, colonial):
        used = {"eastus": eastus, "colonial": colonial}
        quotas = status_doc(svc)["quotas"]
        assert {r: (q["dedicated_used"], q["low_priority_used"]) for r, q in quotas.items()} == used
        for region, (dedicated, low_priority) in used.items():
            quota = svc.quotas[region]
            assert svc.available_quota(region) == RegionQuota(
                quota.dedicated_cores - dedicated, quota.low_priority_cores - low_priority)

    check((0, 0), (0, 0))
    steady_pool(svc, cfg("a", "NC6", "eastus", 2, 1))  # 6 vcores a node
    check((12, 6), (0, 0))
    steady_pool(svc, cfg("b", "Short", "colonial", 2, 2))  # 16 vcores a node
    check((12, 6), (32, 32))
    assert str(_rejected(svc, cfg("c", "NC24r", "eastus", 2, 0))) == _quota_text(48, 36)
    check((12, 6), (32, 32))
    svc.clock.schedule(2100.0, lambda: None)  # into the scarcity window
    svc.clock.run(until=lambda: svc.clock.now >= 2100.0)
    with pytest.raises(SimulationError, match="^low-priority capacity unavailable at t=2100s$"):
        svc.pool_add(cfg("c", "NC6", "eastus", 1, 1))
    assert "c" not in svc.pools
    check((12, 6), (32, 32))
    svc.pool_del("a")
    check((0, 0), (32, 32))
    steady_pool(svc, cfg("a", "NC12", "eastus", 3, 0))  # 12 vcores a node
    check((36, 0), (32, 32))
    svc.pool_del("b")
    check((36, 0), (0, 0))
    back = state.service_from_doc(state.service_to_doc(svc), state.ServiceOptions(seed=2))
    assert status_doc(back)["quotas"] == status_doc(svc)["quotas"]
