"""The state.json codec: service documents round-trip, and corrupt ones are rejected."""

import functools
import gc
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batchsim import state
from batchsim.batch import FailureReason, TaskState
from batchsim.catalog import default_catalog
from batchsim.config import TASK_SPEC_KEYS, JobsConfig, PoolConfig, parse_config_dir
from batchsim.errors import ValidationError
from batchsim.scenarios import run_scenario, scenario_by_name

from randomized import _task, run_random_schedule

REPO_ROOT = Path(__file__).resolve().parent.parent


def _low_priority_service():
    """A settled pool whose low-priority nodes have preemptions pending."""
    options = state.ServiceOptions(seed=3, preemption_rate=0.5)
    svc = state.build_service(options)
    svc.quota_set("eastus", 100, 100)
    svc.pool_add(PoolConfig("lp", "NC6", "eastus", dedicated_count=1, low_priority_count=2,
                            inter_node_comm=False, shared_filesystem=False, image="img:1"))
    svc.advance_until_pool_settled("lp")
    return options, svc


def test_service_document_round_trips():
    options, svc = _low_priority_service()
    doc = state.service_to_doc(svc)
    assert state.service_to_doc(state.service_from_doc(doc, options)) == doc
    run = run_scenario(scenario_by_name("snake3d_fine"), seed=0)
    doc = state.service_to_doc(run.service)
    assert state.service_to_doc(state.service_from_doc(doc, state.ServiceOptions())) == doc


def test_rehydrated_service_replays_pending_preemptions():
    options, svc = _low_priority_service()
    back = state.service_from_doc(state.service_to_doc(svc), options)
    settled = len(svc.event_log.records)
    svc.run_to_quiescence()
    back.run_to_quiescence()
    assert back.event_log.records == svc.event_log.records[settled:]
    assert any("->Preempted" in tr for _, _, tr in back.event_log.records)


def test_persisted_starting_node_is_rejected():
    options, svc = _low_priority_service()
    doc = state.service_to_doc(svc)
    doc["pools"][0]["nodes"][1]["state"] = "Starting"
    with pytest.raises(ValidationError, match="still starting"):
        state.service_from_doc(doc, options)


def _pool_doc(doc):
    return doc["pools"][0]


def _node_doc(doc):
    return doc["pools"][0]["nodes"][1]


# (document part, key, value); each time must be a finite number, or null where optional,
# and none but a preempt_at later than the service time
TIME_CORRUPTIONS = {
    "created-at-null": (_pool_doc, "created_at", None),
    "created-at-text": (_pool_doc, "created_at", "0"),
    "created-at-bool": (_pool_doc, "created_at", False),
    "steady-at-inf": (_pool_doc, "steady_at", float("inf")),
    "deleted-at-list": (_pool_doc, "deleted_at", [1.0]),
    "ready-time-text": (_node_doc, "ready_time", "soon"),
    "ready-time-huge-int": (_node_doc, "ready_time", 10**400),
    "released-time-nan": (_node_doc, "released_time", float("nan")),
    "preempt-at-minus-inf": (_node_doc, "preempt_at", float("-inf")),
    "busy-log-text": (_node_doc, "busy_log", [["a", "b"]]),
    "busy-log-short-row": (_node_doc, "busy_log", [[1.0, 2.0]]),
    "busy-log-ends-first": (_node_doc, "busy_log", [[2.0, 1.0, "task/j/t0#0"]]),
    "busy-log-number-tag": (_node_doc, "busy_log", [[1.0, 2.0, 3]]),
    "busy-log-inf": (_node_doc, "busy_log", [[1.0, float("inf"), "task/j/t0#0"]]),
    "busy-log-text-row": (_node_doc, "busy_log", ["ab"]),
    "released-time-late": (_node_doc, "released_time", 1e6),
    "busy-log-ends-late": (_node_doc, "busy_log", [[1.0, 1e6, "task/j/t0#0"]]),
}


@pytest.mark.parametrize("part, key, value", list(TIME_CORRUPTIONS.values()),
                         ids=list(TIME_CORRUPTIONS))
def test_pool_and_node_times_must_be_finite_numbers(part, key, value):
    options, svc = _low_priority_service()
    doc = state.service_to_doc(svc)
    part(doc)[key] = value
    with pytest.raises(ValidationError, match=f"^corrupt state: (busy_log row .*|{key} .*) of "):
        state.service_from_doc(doc, options)


def test_pool_and_node_times_may_be_integers_and_optional_ones_null():
    options, svc = _low_priority_service()
    doc = state.service_to_doc(svc)
    doc["time"] = 401  # no stored time but a preempt_at may be later
    _pool_doc(doc).update(created_at=0, steady_at=None, deleted_at=None)
    _node_doc(doc).update(ready_time=400, released_time=None, preempt_at=None,
                          busy_log=[[400, 400.5, "task/j/t0#0"]])
    node = state.service_from_doc(doc, options).pools["lp"].nodes[1]
    assert (node.ready_time, node.busy_log) == (400, [(400, 400.5, "task/j/t0#0")])


@pytest.mark.parametrize("interval", [[0.0, 1e300], ["a", "b"], [2.0, 1.0]],
                         ids=["late", "text", "ends-first"])
def test_ledger_interval_must_end_by_the_service_time(interval):
    doc = state.service_to_doc(run_scenario(scenario_by_name("snake2d"), seed=0).service)
    doc["ledger"][0]["interval"] = interval
    with pytest.raises(ValidationError) as err:
        state.service_from_doc(doc, state.ServiceOptions())
    assert str(err.value) == f"corrupt state: interval {interval!r} of ledger item 0"


def test_embedded_task_spec_is_validated():
    run = run_scenario(scenario_by_name("snake2d"), seed=0)
    doc = state.service_to_doc(run.service)
    doc["jobs"][0]["tasks"][0][2] = 0  # the row's instances
    with pytest.raises(ValidationError, match="instances"):
        state.service_from_doc(doc, state.ServiceOptions())


@pytest.fixture(scope="module")
def snake2d_doc_text():
    return json.dumps(state.service_to_doc(run_scenario(scenario_by_name("snake2d"), seed=0).service))


# wrong values for each spec position of a task row: wrong types (a bool is not
# an integer) and, for strings, empty or blank ones
BAD_SPEC_VALUES = {
    "id": [7, None, ["t0"], "", "   "],
    "workload": [25200, None, "", " \t", "nosuch:1", "fixed:soon"],
    "instances": ["2", 2.0, True, None, 0, -1],
    "procs_per_node": ["12", 12.5, False, None, 0, -1],
    "gpus_per_node": ["2", True, None, [2], -1],
    "input_dir": [0, None, {}, "", "  "],
    "output_dir": [1.5, None, "", "\n"],
}


@pytest.mark.parametrize("key, value", [(k, v) for k, vs in BAD_SPEC_VALUES.items() for v in vs],
                         ids=[f"{k}={v!r}" for k, vs in BAD_SPEC_VALUES.items() for v in vs])
def test_corrupt_task_row_spec_names_its_field(snake2d_doc_text, key, value):
    doc = json.loads(snake2d_doc_text)
    doc["jobs"][0]["tasks"][0][TASK_SPEC_KEYS.index(key)] = value
    with pytest.raises(ValidationError) as err:
        state.service_from_doc(doc, state.ServiceOptions())
    assert str(err.value).startswith(f"state.json: key 'service.jobs[0].tasks[0].{key}': ")


def _set(index, value):
    def corrupt(row):
        row[index] = value
        return row
    return corrupt


SPEC = ("'task0', 'fixed:25200', 2, 12, 2, 'fileshare/snake2d2k35', "
        "'fileshare/snake2d2k35/output'")
NODES = "['snake2d/0', 'snake2d/1']"


def _bad_row(rest: str, job: str = "snake2d-job") -> str:
    """The message of a row of `job` whose values after the spec print as `rest`."""
    return f"corrupt state: task row [{SPEC}, {rest}] of job {job}"


# (corruption of snake2d's one task row, the full message); recorded before the rows were
# checked a column at a time
ROW_CORRUPTIONS = {
    "too-short": (lambda row: row[:-1], "corrupt state: task row of 12 values"),
    "spec-only": (lambda row: row[:len(TASK_SPEC_KEYS)], "corrupt state: task row of 7 values"),
    "too-long": (lambda row: row + [0], "corrupt state: task row of 14 values"),
    "empty": (lambda row: [], "corrupt state: task row of 0 values"),
    "unknown-state": (_set(7, "Done"), _bad_row(f"'Done', {NODES}, 294.0, 25494.0, None, 0")),
    "lower-case-state": (_set(7, "completed"),
                         _bad_row(f"'completed', {NODES}, 294.0, 25494.0, None, 0")),
    "running-state": (_set(7, "Running"),
                      _bad_row(f"'Running', {NODES}, 294.0, 25494.0, None, 0")),
    "staging-state": (_set(7, "Staging"),
                      _bad_row(f"'Staging', {NODES}, 294.0, 25494.0, None, 0")),
    "unknown-failure-reason": (_set(11, "Crashed"),
                               _bad_row(f"'Completed', {NODES}, 294.0, 25494.0, 'Crashed', 0")),
    "empty-failure-reason": (_set(11, ""),
                             _bad_row(f"'Completed', {NODES}, 294.0, 25494.0, '', 0")),
    # a bool is an int subclass, and json.load reads NaN
    "bool-attempts": (_set(12, True),
                      _bad_row(f"'Completed', {NODES}, 294.0, 25494.0, None, True")),
    "bool-instances": (_set(2, True), "state.json: key 'service.jobs[0].tasks[0].instances': "
                                      "expected an integer"),
    "nan-start-time": (_set(9, float("nan")),
                       _bad_row(f"'Completed', {NODES}, nan, 25494.0, None, 0")),
    "nan-end-time": (_set(10, float("nan")),
                     _bad_row(f"'Completed', {NODES}, 294.0, nan, None, 0")),
    "node-list-in-nodes": (_set(8, [["snake2d/0"]]),
                           _bad_row("'Completed', [['snake2d/0']], 294.0, 25494.0, None, 0")),
    "node-twice": (_set(8, ["snake2d/0", "snake2d/0"]),
                   _bad_row("'Completed', ['snake2d/0', 'snake2d/0'], 294.0, 25494.0, None, 0")),
    "mapping-row": (lambda row: {"id": row[0]},
                    "corrupt state: tasks [{'id': 'task0'}] of job snake2d-job"),
}


@pytest.mark.parametrize("corrupt, message", list(ROW_CORRUPTIONS.values()),
                         ids=list(ROW_CORRUPTIONS))
def test_corrupt_task_row_is_rejected(snake2d_doc_text, corrupt, message):
    doc = json.loads(snake2d_doc_text)
    tasks = doc["jobs"][0]["tasks"]
    assert len(tasks[0]) == len(state.TASK_ROW_KEYS)
    tasks[0] = corrupt(tasks[0])
    with pytest.raises(ValidationError) as err:
        state.service_from_doc(doc, state.ServiceOptions())
    assert str(err.value) == message


def _later_jobs(second_row, third_job):
    """Two copies of the first job after it: `second_row` corrupts the row of the copy
    named `second`, and `third_job` edits the third."""
    def corrupt(jobs):
        second = json.loads(json.dumps(jobs[0]))
        second["id"] = "second"
        third = json.loads(json.dumps(second))
        second["tasks"][0] = second_row(second["tasks"][0])
        third_job(third)
        jobs += [second, third]
    return corrupt


# a bad row of one job is named before a job-level error of a later one, as when the jobs
# were read one after the other
LATER_JOB_CORRUPTIONS = {
    "bad-row-then-job-twice": (
        _later_jobs(_set(7, "Done"), lambda job: None),
        _bad_row(f"'Done', {NODES}, 294.0, 25494.0, None, 0", "second")),
    "bad-spec-then-number-id": (
        _later_jobs(_set(2, True), lambda job: job.update(id=5)),
        "state.json: key 'service.jobs[1].tasks[0].instances': expected an integer"),
    "bad-row-then-mapping-row": (
        _later_jobs(_set(12, -1), lambda job: job["tasks"].append({})),
        _bad_row(f"'Completed', {NODES}, 294.0, 25494.0, None, -1", "second")),
}


@pytest.mark.parametrize("corrupt, message", list(LATER_JOB_CORRUPTIONS.values()),
                         ids=list(LATER_JOB_CORRUPTIONS))
def test_a_bad_row_is_named_before_a_later_jobs_error(snake2d_doc_text, corrupt, message):
    doc = json.loads(snake2d_doc_text)
    corrupt(doc["jobs"])
    with pytest.raises(ValidationError) as err:
        state.service_from_doc(doc, state.ServiceOptions())
    assert str(err.value) == message


def _deleted_job_mix(seed):
    """Gang tasks with one retry on preempted low-priority nodes; a job is deleted
    while one of its tasks runs, and the pool while tasks still wait."""
    rng = random.Random(seed)
    options = state.ServiceOptions(seed=seed, preemption_rate=2.0, task_retries=1)
    svc = state.build_service(options)
    svc.quota_set("eastus", 1000, 1000)
    svc.pool_add(PoolConfig("mix", "NC6", "eastus", dedicated_count=1, low_priority_count=3,
                            inter_node_comm=False, shared_filesystem=False, image="img:1"))
    svc.advance_until_pool_settled("mix")
    for j in range(3):
        svc.jobs_add(JobsConfig(f"job{j}", "mix", tuple(
            _task(i, j, rng.randint(1, 2), rng.randint(600, 5400)) for i in range(4))))
    svc.clock.run(until=lambda: svc.clock.now >= 3600)
    running = [t for t in svc.all_tasks() if t.state is TaskState.RUNNING]
    if running:
        svc.jobs_del(running[0].job_id)
    svc.clock.run(until=lambda: svc.clock.now >= 3 * 3600)
    svc.pool_del("mix")
    svc.run_to_quiescence()
    return svc, options


@functools.lru_cache(maxsize=None)
def _row_documents() -> tuple:
    """Service documents of three jobs each, as JSON text, whose rows hold every task
    state and failure reason, retries and a job deleted while a task ran."""
    return tuple(json.dumps(state.service_to_doc(_deleted_job_mix(seed)[0])) for seed in (0, 1))


def _tasks_by_row(doc: dict, at: state.At):
    """The tasks of `doc`'s jobs read one row at a time through TASK_ROW, or the message
    of the first bad value."""
    try:
        return [state._task(row, job["id"], f"service.jobs[{j}].tasks[{k}].", at)
                for j, job in enumerate(doc["jobs"]) for k, row in enumerate(job["tasks"])]
    except ValidationError as exc:
        return str(exc)


# values of every JSON kind
JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-2, 3),
                        st.sampled_from([10**400, -10**400]), st.floats(), st.text(max_size=3),
                        st.lists(st.integers(), max_size=1), st.dictionaries(st.text(max_size=1),
                                                                             st.integers()))
TIMES = st.one_of(st.just(float("nan")),
                  st.sampled_from([float("inf"), -float("inf"), None, 1e308]),
                  st.floats(-1.0, 5e4), st.integers(-1, 5 * 10**4))


def _near_bounds(position: int):
    """Values near the bounds of the column of a task row position."""
    return {1: st.sampled_from(["fixed:60", " fixed:60", "fixed:0", "nosuch:1", " ", ""]),
            2: st.integers(-1, 2), 3: st.integers(-1, 2), 4: st.integers(-1, 2),
            7: st.sampled_from(["Completed", "Failed", "Pending", "Running", "completed"]),
            8: st.sampled_from([["mix/0", "mix/0"], ["mix/1", "mix/0", "mix/1"], ["mix/0"], []])
            | st.lists(st.sampled_from(["mix/0", "mix/1"]), max_size=3),
            9: TIMES, 10: TIMES,
            11: st.sampled_from([None, "NodePreempted", "JobDeleted", "PoolDeleted", "Crashed"]),
            12: st.integers(-1, 2)}.get(position, st.sampled_from(["t0", " t0 ", " ", "", "x"]))


@settings(max_examples=1000, deadline=None)
@given(st.data())
def test_the_column_check_takes_exactly_the_rows_that_the_row_reader_takes(data):
    """One leaf of one task row of a document of several jobs, set to any value: the
    column check takes the rows exactly when every row reads through TASK_ROW, to the same
    tasks, and the jobs' reader then gives those tasks or the row reader's message."""
    doc = json.loads(data.draw(st.sampled_from(_row_documents())))
    row = data.draw(st.sampled_from([row for job in doc["jobs"] for row in job["tasks"]]))
    position = data.draw(st.sampled_from(range(len(row))))
    row[position] = data.draw(st.one_of(_near_bounds(position), JSON_VALUES))
    at = state.At(doc["time"], frozenset({"mix"}))
    expected = _tasks_by_row(doc, at)
    rows = [row for job in doc["jobs"] for row in job["tasks"]]
    try:
        by_column = state._column_tasks(
            rows, [job["id"] for job in doc["jobs"] for _ in job["tasks"]], doc["time"])
    except ValueError:
        by_column = None
    if isinstance(expected, str):
        assert by_column is None
        with pytest.raises(ValidationError) as err:
            state._jobs_from_doc(doc["jobs"], at)
        assert str(err.value) == expected
    else:
        assert by_column == expected
        assert [t for job in state._jobs_from_doc(doc["jobs"], at) for t in job.tasks] == expected


def _round_trip_services(seed):
    svc, _ = run_random_schedule(seed)
    return [(svc, state.ServiceOptions(seed=seed)), _deleted_job_mix(seed)]


ROUND_TRIP_SEEDS = range(24)


@pytest.mark.parametrize("seed", ROUND_TRIP_SEEDS)
def test_random_services_round_trip_through_the_store(seed, tmp_path):
    store = state.WorkspaceStore(tmp_path)
    for svc, options in _round_trip_services(seed):
        store.save({"service": state.service_to_doc(svc)})
        text = store.state_path.read_bytes()
        back = state.service_from_doc(store.load()["service"], options)
        assert back.all_tasks() == svc.all_tasks()
        store.save({"service": state.service_to_doc(back)})
        assert store.state_path.read_bytes() == text


def _readded_pool_and_job(seed):
    """A pool deleted at the instant its first tasks start (they fail PoolDeleted, holding
    their nodes for no time) and re-added under its id at that instant, so that the new
    nodes reuse the ids; then a job that finishes and is re-added under its id, with its
    retries on preempted low-priority nodes."""
    rng = random.Random(seed)
    options = state.ServiceOptions(seed=seed, preemption_rate=2.0, task_retries=1)
    svc = state.build_service(options)
    svc.quota_set("eastus", 1000, 1000)
    cfg = PoolConfig("re", "NC6", "eastus", dedicated_count=2, low_priority_count=2,
                     inter_node_comm=False, shared_filesystem=False, image="img:1")
    svc.pool_add(cfg)
    svc.advance_until_pool_settled("re")
    svc.jobs_add(JobsConfig("first", "re", (_task(0, 0, 2, 600),)))
    assert svc.all_tasks()[0].start_time == svc.clock.now
    svc.pool_del("re")
    svc.pool_add(cfg)
    svc.advance_until_pool_settled("re")
    again = JobsConfig("again", "re", tuple(
        _task(i, 1, rng.randint(1, 2), rng.randint(600, 5400)) for i in range(3)))
    svc.jobs_add(again)
    svc.advance_until_job_terminal("again")
    svc.jobs_add(again)
    svc.run_to_quiescence()
    svc.pool_del("re")
    return svc, options


def _busy_services(seed):
    return [*_round_trip_services(seed), _readded_pool_and_job(seed)]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_a_reloaded_service_prints_the_status_of_the_in_process_one(seed):
    """`status` in a per-command session, which reads the service back from its state
    document, prints what the service that wrote the document would."""
    shared = run_random_schedule(seed, share=True)[0], state.ServiceOptions(seed=seed)
    for svc, options in [*_busy_services(seed), shared]:
        back = state.service_from_doc(json.loads(json.dumps(state.service_to_doc(svc))), options)
        assert (json.dumps(state.status_doc(back), sort_keys=True)
                == json.dumps(state.status_doc(svc), sort_keys=True))


def _recorded_by_rows(doc) -> set:
    """(node, start, end, tag) of each busy interval that a task row of the service document
    records: on each assigned node of a row whose attempt started after its pool was made."""
    created = {p["config"]["id"]: p["created_at"] for p in doc["pools"]}
    return {(node_id, start, end, f"task/{job['id']}/{task_id}#{attempts}")
            for job in doc["jobs"]
            for task_id, *_, nodes, start, end, _, attempts in job["tasks"]
            if start is not None and start > created[job["pool"]] for node_id in nodes}


def _node_ids(pool_doc) -> list[str]:
    """The id of each node of a pool document: `<pool>/<position>`, which is not stored."""
    return [f"{pool_doc['config']['id']}/{i}" for i in range(len(pool_doc["nodes"]))]


def _busy_logs(svc) -> dict:
    return {n.node_id: n.busy_log for p in svc.pools.values() for n in p.nodes}


@pytest.mark.parametrize("seed", ROUND_TRIP_SEEDS)
def test_busy_logs_store_only_what_no_row_records_and_load_whole(seed):
    for svc, options in _busy_services(seed):
        doc = json.loads(json.dumps(state.service_to_doc(svc)))
        stored = {(node_id, *b) for p in doc["pools"]
                  for node_id, n in zip(_node_ids(p), p["nodes"]) for b in n["busy_log"]}
        assert not stored & _recorded_by_rows(doc)
        assert _busy_logs(state.service_from_doc(doc, options)) == _busy_logs(svc)


def test_busy_log_seeds_cover_retries_readded_jobs_and_a_pool_readded_as_tasks_start():
    """The services above store intervals of attempts that were retried and of a job's run
    before it was re-added under its id (whose tags are the new rows' too), and the pool
    re-added at the instant its tasks started keeps no interval of the old one."""
    readded = retried = 0
    first = []
    for seed in ROUND_TRIP_SEEDS:
        for svc, _ in _busy_services(seed):
            doc = state.service_to_doc(svc)
            tags = {t.run_tag for t in svc.all_tasks()}
            stored = [tag for p in doc["pools"] for n in p["nodes"] for _, _, tag in n["busy_log"]]
            readded += sum(tag in tags for tag in stored)
            retried += sum(tag not in tags for tag in stored)
            first += [t for t in svc.all_tasks() if t.job_id == "first"]
    assert readded and retried
    assert first and {t.failure_reason for t in first} == {FailureReason.POOL_DELETED}
    assert all(t.start_time == t.end_time for t in first)


def test_row_interval_stored_on_a_node_the_row_does_not_name_is_kept():
    """A row gives its interval back only to its assigned nodes, so the same interval
    stored on another node belongs to that node and is written again."""
    svc, options = _readded_pool_and_job(0)
    doc = json.loads(json.dumps(state.service_to_doc(svc)))
    job = next(j for j in doc["jobs"] if j["id"] == "again")
    task_id, *_, nodes, start, end, _, attempts = job["tasks"][0]
    other = next(i for i, node_id in enumerate(_node_ids(_pool_doc(doc))) if node_id not in nodes)
    interval = [start, end, f"task/again/{task_id}#{attempts}"]
    _pool_doc(doc)["nodes"][other]["busy_log"].append(interval)
    back = state.service_to_doc(state.service_from_doc(doc, options))
    assert interval in _pool_doc(back)["nodes"][other]["busy_log"]


def test_the_preempted_attempt_of_a_running_retry_is_stored():
    """Mid-run, a retried task's row shows the attempt that runs, so the intervals of the
    attempt that was preempted are written."""
    options = state.ServiceOptions(seed=1, preemption_rate=4.0, task_retries=1)
    svc = state.build_service(options)
    svc.quota_set("eastus", 1000, 1000)
    svc.pool_add(PoolConfig("r", "NC6", "eastus", dedicated_count=1, low_priority_count=3,
                            inter_node_comm=False, shared_filesystem=False, image="img:1"))
    svc.advance_until_pool_settled("r")
    svc.jobs_add(JobsConfig("j", "r", tuple(_task(i, 0, 1, 3600) for i in range(4))))
    svc.clock.run(until=lambda: any(t.state is TaskState.RUNNING and t.attempts
                                    for t in svc.all_tasks()))
    task = next(t for t in svc.all_tasks() if t.state is TaskState.RUNNING and t.attempts)
    doc = state.service_to_doc(svc)
    stored = [b for n in _pool_doc(doc)["nodes"] for b in n["busy_log"]]
    assert f"{task.entity}#0" in [tag for _, _, tag in stored]


def test_round_trip_seeds_cover_every_task_outcome():
    outcomes = {(t.state, t.failure_reason, t.attempts > 0)
                for seed in ROUND_TRIP_SEEDS for svc, _ in _round_trip_services(seed)
                for t in svc.all_tasks()}
    assert {reason for _, reason, _ in outcomes} == {None, *FailureReason}
    assert (TaskState.COMPLETED, None, True) in outcomes  # completed on a retry
    assert (TaskState.FAILED, FailureReason.NODE_PREEMPTED, True) in outcomes


def test_resubmitted_job_is_listed_once_and_queues_last():
    options, svc = _low_priority_service()
    for job_id in ("a", "b"):
        svc.jobs_add(JobsConfig(job_id, "lp", (_task(0, 0, 1, 60),)))
    svc.advance_until_job_terminal("b")
    svc.jobs_del("a")
    svc.jobs_add(JobsConfig("a", "lp", (_task(0, 0, 1, 60),)))
    assert [j["id"] for j in state.status_doc(svc)["jobs"]] == ["b", "a"]
    assert len(svc.all_tasks()) == 2
    svc.advance_until_job_terminal("a")
    doc = state.service_to_doc(svc)
    assert [j["id"] for j in doc["jobs"]] == ["b", "a"]
    back = state.service_from_doc(doc, options)
    assert list(back.jobs) == ["b", "a"] and len(back.all_tasks()) == 2


def test_failed_save_keeps_the_old_state(tmp_path):
    store = state.WorkspaceStore(tmp_path)
    store.save({"a": 1})
    store.write_ledger("old\n")
    before = {p.name: p.read_bytes() for p in store.dir.iterdir()}
    # the encoder fails before the temporary file is opened; the ledger write fails after
    with pytest.raises(TypeError):
        store.save({"a": 1, "b": object()})
    for value in (float("inf"), float("-inf"), float("nan")):  # not JSON; never written
        with pytest.raises(ValueError, match="not JSON compliant"):
            store.save({"a": 1, "b": [value]})
    with pytest.raises(TypeError):
        store.write_ledger(None)
    assert {p.name: p.read_bytes() for p in store.dir.iterdir()} == before
    store.save({"a": 2})
    assert store.load() == {"a": 2}
    assert sorted(p.name for p in store.dir.iterdir()) == ["ledger.tsv", "state.json"]


def test_replacing_into_a_missing_directory_raises_and_makes_nothing(tmp_path):
    """`replacing` makes no directory: a write into one that is missing fails before it
    creates anything, so a failed `repro pack --out` leaves no directory behind."""
    with pytest.raises(FileNotFoundError):
        with state.replacing(tmp_path / "missing" / "package.tar.gz", "wb") as fh:
            fh.write(b"never written")
    assert not [*tmp_path.iterdir()]


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_gc_paused_restores_the_previous_gc_state(enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with state._gc_paused():
            with state._gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled() is enabled
        options, svc = _low_priority_service()
        doc = state.service_to_doc(svc)
        assert gc.isenabled() is enabled
        doc["pools"][0]["nodes"][1]["state"] = "Starting"
        with pytest.raises(ValidationError):
            state.service_from_doc(doc, options)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_save_writes_compact_sorted_json(tmp_path):
    store = state.WorkspaceStore(tmp_path)
    run = run_scenario(scenario_by_name("snake2d"), seed=0)
    doc = {"version": state.STATE_VERSION, "service": state.service_to_doc(run.service),
           "b": [1.5, None, "é"], "a": {"z": 1, "y": True}}
    store.save(doc)
    text = store.state_path.read_text()
    assert text == json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"
    assert text.startswith('{"a":{"y":true,"z":1},"b":[1.5,null,')
    assert store.load() == doc


@pytest.mark.parametrize("seed", range(12))
def test_finished_tasks_hold_no_completion_event(seed):
    svc, _ = run_random_schedule(seed)
    svc.run_to_quiescence()
    finished = [t for t in svc.all_tasks() if t.terminal]
    assert finished
    assert [t.run_tag for t in finished if t.completion_event is not None] == []


def test_state_documents_hold_exactly_these_keys(tmp_path):
    """The keys written at each level of state.json. A field added or dropped later
    shows up here as a test change."""
    bundle = parse_config_dir(REPO_ROOT / "configs" / "snake2d2k35", default_catalog())
    workspace = state.new_workspace_state(state.ServiceOptions(), bundle)
    assert workspace.keys() == state.STATE.keys() == {
        "version", "options", "catalog_doc", "workspace", "service", "transcript",
        "events_bytes"}
    options = state.ServiceOptions(seed=5, preemption_rate=0.0)
    svc = state.build_service(options)
    svc.quota_set("eastus", 100, 100)
    svc.storage.share_create("fileshare", 1)
    svc.pool_add(PoolConfig("p", "NC24r", "eastus", dedicated_count=1, low_priority_count=1,
                            inter_node_comm=True, shared_filesystem=False, image="img:1"))
    svc.advance_until_pool_settled("p")
    svc.data_ingress("fileshare", "in", [("a.bin", 4)])
    svc.jobs_add(JobsConfig("j", "p", (_task(0, 0, 2, 60),)))
    svc.run_to_quiescence()
    svc.pool_del("p")
    assert svc.data_download("fileshare", "in", tmp_path) == 4
    doc = state.service_to_doc(svc)
    assert set(doc) == {"time", "quotas", "pools", "jobs", "shares", "ledger"}
    [pool] = doc["pools"]
    assert svc.pools["p"].config.warnings  # a warning pool: its config gives the warnings
    assert set(pool) == {"config", "state", "created_at", "steady_at", "deleted_at", "nodes"}
    assert {frozenset(n) for n in pool["nodes"]} == {frozenset(  # id, priority: by position
        {"state", "ready_time", "released_time", "preempt_at", "busy_log"})}
    assert {frozenset(j) for j in doc["jobs"]} == {frozenset(
        {"id", "pool", "state", "submitted_at", "tasks"})}
    [share] = doc["shares"]
    assert set(share) == {"name", "quota_gib", "entries"}
    assert {e["content_hex"] is None for e in share["entries"]} == {True, False}
    assert {frozenset(e) for e in share["entries"]} == {frozenset(
        {"path", "size", "digest", "content_hex"})}
    assert {i["category"] for i in doc["ledger"]} == {"Virtual Machines", "Bandwidth"}
    assert {frozenset(i) for i in doc["ledger"]} == {frozenset(
        {"category", "usd", "description", "interval", "sku", "node_seconds"})}
