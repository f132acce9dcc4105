"""Differential tests: the indexed scheduler against the full-walk one it replaced.

`full_walk_schedule_pool` is the old scheduler body: on every pass it walks
every job and task of the pool in submission order and reads the idle nodes
from the node states. Patched in for `BatchService._schedule_pool`, it must
give the same `events.log` and `ledger.tsv` as the per-pool queue and idle
index on every mix. The idle index is also checked after every event.
"""

import random

import pytest

from batchsim import billing, state
from batchsim.batch import BatchService, JobState, TaskState
from batchsim.config import JobsConfig, PoolConfig
from batchsim.fabric import NodeState, SimClock

from randomized import CATALOG, _task, run_random_schedule


def full_walk_schedule_pool(svc, pool):
    for job in svc.jobs.values():
        if job.pool_id != pool.pool_id or job.state is not JobState.ACTIVE:
            continue
        for task in job.tasks:
            if task.state is not TaskState.PENDING:
                continue
            idle = [n for n in pool.nodes if n.state is NodeState.IDLE]
            if len(idle) < task.spec.instances:
                return
            svc._start_task(pool, job, task, idle[: task.spec.instances])


def artifacts(svc):
    return svc.event_log.dump(), billing.export_tsv(svc.ledger)


def both_schedulers(monkeypatch, run):
    """(indexed, full-walk) artifacts of the same run."""
    indexed = artifacts(run())
    with monkeypatch.context() as m:
        m.setattr(BatchService, "_schedule_pool", full_walk_schedule_pool)
        full_walk = artifacts(run())
    return indexed, full_walk


def run_large_mix(seed):
    """Gang tasks on a pool that loses its low-priority nodes, with retries,
    a job deleted mid-run and then submitted again under the same id."""
    rng = random.Random(seed)
    svc = BatchService(CATALOG, seed=seed, preemption_rate=2.0, task_retries=1)
    svc.quota_set("eastus", 1000, 1000)
    svc.storage.share_create("fileshare", 1)
    svc.pool_add(PoolConfig(pool_id="mix", sku="NC6", region="eastus", dedicated_count=4,
                            low_priority_count=4, inter_node_comm=False,
                            shared_filesystem=False, image="img:1"))
    svc.advance_until_pool_settled("mix")

    def job(j):
        tasks = tuple(_task(i, j, rng.randint(1, 4), rng.randint(60, 7200))
                      for i in range(rng.randint(1, 12)))
        return JobsConfig(job_id=f"job{j}", pool_id="mix", tasks=tasks)

    for j in range(16):
        svc.jobs_add(job(j))
    svc.clock.run(until=lambda: svc.clock.now >= 6 * 3600)
    svc.jobs_del("job9")
    svc.jobs_add(job(9))
    svc.run_to_quiescence()
    svc.pool_del("mix")
    return svc


@pytest.mark.parametrize("seed", range(40))
def test_random_schedules_match_full_walk(monkeypatch, seed):
    indexed, full_walk = both_schedulers(monkeypatch, lambda: run_random_schedule(seed)[0])
    assert indexed == full_walk


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_large_mix_with_preemption_and_deletion_matches_full_walk(monkeypatch, seed):
    indexed, full_walk = both_schedulers(monkeypatch, lambda: run_large_mix(seed))
    assert indexed == full_walk
    events = indexed[0]
    assert "->Preempted" in events and "(retry 1)" in events
    assert "job/job9\t->Deleted" in events


def test_retried_task_starts_ahead_of_task_queued_behind_it(monkeypatch):
    def run():
        # node 0 is dedicated, node 1 low-priority: t1 runs on node 1, is
        # preempted and retried while t2 waits behind it
        svc = BatchService(CATALOG, seed=8, preemption_rate=5.0, task_retries=1)
        svc.quota_set("eastus", 200, 200)
        svc.pool_add(PoolConfig(pool_id="p", sku="NC6", region="eastus", dedicated_count=1,
                                low_priority_count=1, inter_node_comm=False,
                                shared_filesystem=False, image="img:1"))
        svc.advance_until_pool_settled("p")
        svc.jobs_add(JobsConfig("job", "p", (_task(0, 0, 1, 10_000), _task(1, 0, 1, 100_000),
                                             _task(2, 0, 1, 60))))
        svc.run_to_quiescence()
        return svc

    svc = run()
    t0, t1, t2 = svc.jobs["job"].tasks
    assert t1.attempts == 1 and svc.pools["p"].nodes[1].released_time < t0.end_time
    assert [t.state for t in (t0, t1, t2)] == [TaskState.COMPLETED] * 3
    assert t1.start_time == t0.end_time and t2.start_time == t1.end_time
    indexed, full_walk = both_schedulers(monkeypatch, run)
    assert indexed == full_walk


def check_idle_index(svc):
    for pool in svc.pools.values():
        assert pool.idle == [n for n in pool.nodes if n.state is NodeState.IDLE], pool.pool_id


@pytest.fixture
def checked_index(monkeypatch):
    """Check the idle index of every service built in the test after each event."""
    services = []
    init, step = BatchService.__init__, SimClock.step

    def init_and_track(self, *args, **kwargs):
        init(self, *args, **kwargs)
        services.append(self)

    def step_and_check(clock):
        stepped = step(clock)
        for svc in services:
            if svc.clock is clock:
                check_idle_index(svc)
        return stepped

    monkeypatch.setattr(BatchService, "__init__", init_and_track)
    monkeypatch.setattr(SimClock, "step", step_and_check)
    return services


@pytest.mark.parametrize("seed", range(40))
def test_idle_index_matches_node_states_on_random_schedules(checked_index, seed):
    svc, _ = run_random_schedule(seed)
    assert checked_index == [svc]
    check_idle_index(svc)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_idle_index_matches_node_states_on_large_mix(checked_index, seed):
    svc = run_large_mix(seed)
    check_idle_index(svc)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_idle_index_survives_a_state_round_trip(checked_index, seed):
    """A service rehydrated mid-run, between two jobs, schedules like the original."""
    options = state.ServiceOptions(seed=seed, preemption_rate=0.5, task_retries=1)
    rng = random.Random(seed)
    svc = state.build_service(options, CATALOG)
    svc.quota_set("eastus", 1000, 1000)
    svc.pool_add(PoolConfig(pool_id="mix", sku="NC6", region="eastus", dedicated_count=3,
                            low_priority_count=5, inter_node_comm=False,
                            shared_filesystem=False, image="img:1"))
    svc.advance_until_pool_settled("mix")
    jobs = [JobsConfig(f"job{j}", "mix",
                       tuple(_task(i, j, rng.randint(1, 3), rng.randint(60, 7200))
                             for i in range(rng.randint(2, 8))))
            for j in range(6)]
    svc.jobs_add(jobs[0])
    svc.advance_until_job_terminal("job0")
    back = state.service_from_doc(state.service_to_doc(svc), options, CATALOG)
    check_idle_index(back)
    assert back.pools["mix"].idle  # the rest of the run starts from a partly idle pool
    settled = len(svc.event_log.records)
    for service in (svc, back):
        for cfg in jobs[1:]:
            service.jobs_add(cfg)
        service.run_to_quiescence()
        service.pool_del("mix")
        check_idle_index(service)
    assert back.event_log.records == svc.event_log.records[settled:]
    assert any("->Preempted" in tr for _, _, tr in back.event_log.records)
