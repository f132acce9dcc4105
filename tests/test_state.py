"""The state.json codec: service documents round-trip, and corrupt ones are rejected."""

import gc
import json
import random

import pytest

from batchsim import state
from batchsim.batch import FailureReason, TaskState
from batchsim.config import TASK_SPEC_KEYS, JobsConfig, PoolConfig
from batchsim.errors import SchemaError, ValidationError
from batchsim.scenarios import run_scenario, scenario_by_name

from randomized import _task, run_random_schedule


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


def test_embedded_task_spec_is_validated():
    run = run_scenario(scenario_by_name("snake2d"), seed=0)
    doc = state.service_to_doc(run.service)
    doc["jobs"][0]["tasks"][0][2] = 0  # the row's instances
    with pytest.raises(SchemaError, match="instances"):
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
    "procs_per_node": ["12", 12.5, False, None],
    "gpus_per_node": ["2", True, None, [2]],
    "input_dir": [0, None, {}, "", "  "],
    "output_dir": [1.5, None, "", "\n"],
}


@pytest.mark.parametrize("key, value", [(k, v) for k, vs in BAD_SPEC_VALUES.items() for v in vs],
                         ids=[f"{k}={v!r}" for k, vs in BAD_SPEC_VALUES.items() for v in vs])
def test_corrupt_task_row_spec_names_its_field(snake2d_doc_text, key, value):
    doc = json.loads(snake2d_doc_text)
    doc["jobs"][0]["tasks"][0][TASK_SPEC_KEYS.index(key)] = value
    with pytest.raises(SchemaError) as err:
        state.service_from_doc(doc, state.ServiceOptions())
    assert (err.value.path, err.value.key) == ("state.json", key)


def _set(index, value):
    def corrupt(row):
        row[index] = value
        return row
    return corrupt


ROW_CORRUPTIONS = {
    "too-short": lambda row: row[:-1],
    "spec-only": lambda row: row[:len(TASK_SPEC_KEYS)],
    "too-long": lambda row: row + [0],
    "empty": lambda row: [],
    "unknown-state": _set(7, "Done"),
    "lower-case-state": _set(7, "completed"),
    "running-state": _set(7, "Running"),
    "unknown-failure-reason": _set(11, "Crashed"),
    "empty-failure-reason": _set(11, ""),
}


@pytest.mark.parametrize("corrupt", list(ROW_CORRUPTIONS.values()), ids=list(ROW_CORRUPTIONS))
def test_corrupt_task_row_is_rejected(snake2d_doc_text, corrupt):
    doc = json.loads(snake2d_doc_text)
    tasks = doc["jobs"][0]["tasks"]
    assert len(tasks[0]) == state.TASK_ROW_LEN
    tasks[0] = corrupt(tasks[0])
    with pytest.raises(ValidationError, match="^corrupt state: task "):
        state.service_from_doc(doc, state.ServiceOptions())


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
    assert [j["id"] for j in svc.status()["jobs"]] == ["b", "a"]
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
    with pytest.raises(TypeError):
        store.write_ledger(None)
    assert {p.name: p.read_bytes() for p in store.dir.iterdir()} == before
    store.save({"a": 2})
    assert store.load() == {"a": 2}
    assert sorted(p.name for p in store.dir.iterdir()) == ["ledger.tsv", "state.json"]


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
