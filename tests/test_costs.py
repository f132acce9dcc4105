"""Deterministic cost counters of the scheduler and of a CG solve, as exact pins and stated
bounds.

A fixed 1,000-task mix shaped like the benchmark's `sched_mix` (one 32-node NC6 pool,
8 of its nodes low-priority and preempted at 0.5 per node-hour, one retry, jobs of
mostly 1-16 tasks plus a few sweeps) runs at seed 1. Its work is counted in units that
do not depend on the host's speed: events dispatched, scheduler passes, event-log
records and state bytes are pinned exactly; Python calls per completed task and per task
row of a state load, the cyclic garbage collections of the run and the traced allocation
peaks of the run and of a state load are bounded. A change that moves a pinned count
updates it here and names the reason; a perf change shows its mechanism in these counts.

A small `poisson:cg:24` task runs in a child interpreter with BLAS on one thread, as the
golden digests do, because the dot products' summation order, and so the iteration count,
depends on the BLAS thread count: its stencil calls and iterations are pinned exactly and
the traced allocation peak of the solve is bounded.
"""

import gc
import json
import random
import sys
import tracemalloc

import pytest

from batchsim import state
from batchsim.batch import TaskState
from batchsim.config import JobsConfig, PoolConfig, TaskSpec
from batchsim.workloads import FixedDuration, parse_workload
from test_golden import _run_python

TASKS = 1_000
SWEEPS = (50, 100) * 4  # 600 of the tasks
SEED = 1


def mix_jobs(seed: int) -> list[JobsConfig]:
    rng = random.Random(seed)
    sizes, left = [], TASKS - sum(SWEEPS)
    while left > 0:
        sizes.append(min(int(2 ** rng.uniform(0.0, 4.0)), left))
        left -= sizes[-1]
    step = (len(sizes) + len(SWEEPS)) / len(SWEEPS)
    for i, sweep in enumerate(SWEEPS):
        sizes.insert(int((i + 0.5) * step), sweep)
    return [JobsConfig(job_id=f"job{j:04d}", pool_id="mix", tasks=tuple(
        TaskSpec(task_id=f"t{i}", workload=FixedDuration(float(rng.randint(60, 3600))),
                 instances=rng.randint(1, 4), procs_per_node=1, gpus_per_node=0,
                 input_dir="fileshare/inputs", output_dir=f"fileshare/out/job{j:04d}")
        for i in range(size))) for j, size in enumerate(sizes)]


OPTIONS = state.ServiceOptions(seed=SEED, preemption_rate=0.5, task_retries=1)


def mix_service():
    """The service with its pool added and booting, and the jobs to submit."""
    svc = state.build_service(OPTIONS)
    svc.quota_set("eastus", 32 * 6, 32 * 6)
    svc.storage.share_create("fileshare", 100)
    svc.pool_add(PoolConfig(pool_id="mix", sku="NC6", region="eastus", dedicated_count=24,
                            low_priority_count=8, inter_node_comm=False,
                            shared_filesystem=False, image="img:1"))
    return svc, mix_jobs(SEED)


def run_mix(svc, jobs):
    """The run phase: submit every job, then drain the event queue."""
    for cfg in jobs:
        svc.jobs_add(cfg)
    svc.run_to_quiescence()


def ended(svc) -> int:
    """Tasks that completed or failed: the work a run does, as the benchmark counts it."""
    return sum(t.terminal for t in svc.all_tasks())


@pytest.fixture(scope="module")
def counted():
    """Events, passes and starts of one run, counted by wrappers on the service; the
    service is returned after its pool is deleted, as the benchmark saves it."""
    svc, jobs = mix_service()
    counts = {"events": 0, "passes": 0, "idle_passes": 0, "starts": 0}
    step, schedule_step, start_task = svc.clock.step, svc.schedule_step, svc._start_task

    def counting_step():
        stepped = step()
        counts["events"] += stepped
        return stepped

    def counting_schedule_step():
        before = counts["starts"]
        schedule_step()
        counts["passes"] += 1
        counts["idle_passes"] += counts["starts"] == before

    def counting_start_task(*args):
        counts["starts"] += 1
        start_task(*args)

    svc.clock.step, svc.schedule_step = counting_step, counting_schedule_step
    svc._start_task = counting_start_task
    run_mix(svc, jobs)
    svc.pool_del("mix")
    return svc, counts


def test_the_mix_ends_every_task(counted):
    svc, _ = counted
    assert ended(svc) == len(svc.all_tasks()) == TASKS
    # one task was preempted on its retry too
    assert [(t.entity, t.state, t.attempts) for t in svc.all_tasks()
            if t.state is not TaskState.COMPLETED] == [("task/job0001/t9", TaskState.FAILED, 1)]


def test_event_and_pass_counts_are_pinned(counted):
    _, counts = counted
    # 1,007 starts for 1,000 tasks: seven attempts were preempted and retried
    assert counts == {"events": 1071, "passes": 1130, "idle_passes": 388, "starts": 1007}


def test_log_records_and_state_bytes_per_task_are_pinned(counted, tmp_path):
    svc, _ = counted
    store = state.WorkspaceStore(tmp_path)
    store.save({"options": OPTIONS.to_doc(), "service": state.service_to_doc(svc)})
    assert len(svc.event_log.records) / TASKS == 10.349
    assert store.state_path.stat().st_size / TASKS == 190.218


def test_python_calls_per_ended_task_are_bounded():
    """Python function calls, from sys.setprofile, over the whole run phase."""
    svc, jobs = mix_service()
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        run_mix(svc, jobs)
    finally:
        sys.setprofile(None)
    # 31.5 before the scheduler logged its own node moves and stored outputs in one call;
    # 16.7 since
    assert calls / ended(svc) <= 18


def test_traced_allocation_peak_of_the_run_is_bounded():
    svc, jobs = mix_service()
    tracemalloc.start()
    try:
        run_mix(svc, jobs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 1.42 MB both before and after that change, most of it the event-log records; 0.96 MB
    # since the log keeps its records flat, not as one tuple each
    assert peak <= 1_100_000


def test_the_run_makes_few_young_collections_and_no_full_one():
    """Collections per generation over the run phase, from gc.get_stats()."""
    svc, jobs = mix_service()
    gc.collect()
    before = gc.get_stats()
    run_mix(svc, jobs)
    made = [a["collections"] - b["collections"] for a, b in zip(gc.get_stats(), before)]
    # 18/1/0 while each event-log record was a tuple that stayed alive; 4/0/0 since the
    # log keeps its records flat
    assert made[0] <= 6 and made[1] <= 1 and made[2] == 0


def reloaded(svc, tmp_path) -> tuple[dict, state.ServiceOptions]:
    """The service document of `svc`, saved and loaded again, and its options; the
    workload-reference cache is emptied, so a rebuild from it is cold as in a CLI command."""
    store = state.WorkspaceStore(tmp_path)
    store.save({"options": OPTIONS.to_doc(), "service": state.service_to_doc(svc)})
    loaded = store.load()
    parse_workload.cache_clear()
    return loaded["service"], state.ServiceOptions.from_doc(loaded["options"])


def test_traced_allocation_peak_of_the_load_is_bounded(counted, tmp_path):
    """The peak of rebuilding the service from its saved and reloaded state document."""
    doc, options = reloaded(counted[0], tmp_path)
    gc.collect()
    tracemalloc.start()
    try:
        state.service_from_doc(doc, options)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 0.84 MB both before and after the event log kept its records flat (838,245 B); 0.82 MB
    # (820,117 B) since a task spec is a tuple and the task rows are read a column at a time
    assert peak <= 830_000


def test_python_calls_per_row_of_the_load_are_bounded(counted, tmp_path):
    """Python function calls, from sys.setprofile, of rebuilding the service from its saved
    and reloaded state document, per task row."""
    doc, options = reloaded(counted[0], tmp_path)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        state.service_from_doc(doc, options)
    finally:
        sys.setprofile(None)
    # 12.07 while each row was checked and its spec built by a Python function of its
    # own; 10.17 since the rows are checked a column at a time and built by map
    assert calls / sum(len(job["tasks"]) for job in doc["jobs"]) <= 11


CG_EDGE = 24
_CG_CHILD = f"""
import json, tracemalloc
from batchsim import workloads
from batchsim.fabric import INTERCONNECTS
spec, model = workloads.parse_workload("poisson:cg:{CG_EDGE}"), INTERCONNECTS["azure"]
workloads.execute(spec, 1, 1, model)  # the imports and caches of a first solve, untraced
stencil, calls = workloads.apply_poisson, [0]

def counting(*args, **kwargs):
    calls[0] += 1
    return stencil(*args, **kwargs)

workloads.apply_poisson = counting
tracemalloc.start()
report = workloads.execute(spec, 1, 1, model).outputs[0][1].decode()
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(json.dumps([calls[0], report, peak]))
"""


@pytest.fixture(scope="module")
def cg_solve(tmp_path_factory) -> tuple[int, int, int]:
    """Stencil calls, iterations and traced allocation peak of the second of two solves."""
    calls, report, peak = json.loads(_run_python(tmp_path_factory.mktemp("cg"), "-c", _CG_CHILD))
    rows = dict(line.split("\t") for line in report.splitlines())
    return calls, int(rows["iterations"]), peak


def test_a_small_cg_solve_makes_one_stencil_call_per_iteration(cg_solve):
    calls, iterations, _ = cg_solve
    # 13 with BLAS on one thread; 14 on two
    assert (calls, iterations) == (13, 13)


def test_traced_allocation_peak_of_a_small_cg_solve_is_bounded(cg_solve):
    grid_array = 8 * CG_EDGE ** 3
    # 6.78 grid arrays (749,600 B): rhs (the residual), x, p, A*p and one slab of
    # update scratch, which is the whole grid at this size, plus the stencil's iterator
    # buffers, 1.74 arrays at their peak
    assert cg_solve[2] <= 7 * grid_array
