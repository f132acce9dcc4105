import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batchsim.batch import BatchService, PoolState
from batchsim.catalog import default_catalog
from batchsim.config import PoolConfig
from batchsim.errors import SimulationError
from batchsim.fabric import (
    AZURE_INTERCONNECT,
    BOOT_LATENCY_RANGE,
    COLONIAL_INTERCONNECT,
    EventLog,
    InterconnectModel,
    NodeState,
    SimClock,
    allreduce_time,
    comm_time,
    derived_rng,
)

message_sizes = st.integers(min_value=0, max_value=2**40)


def test_zero_byte_latency_endpoints():
    assert comm_time(AZURE_INTERCONNECT, 0) == 1.95e-6
    assert comm_time(COLONIAL_INTERCONNECT, 0) == 1.25e-6


def test_comm_time_formula():
    # frozen from alpha + m/beta at 4 MiB
    expected = 1.95e-6 + 4194304 / 5.2e9
    assert comm_time(AZURE_INTERCONNECT, 4194304) == pytest.approx(expected, rel=1e-15)
    assert expected == pytest.approx(8.08547e-4, rel=1e-5)


@given(m1=message_sizes, m2=message_sizes)
def test_comm_time_strictly_increasing(m1, m2):
    if m1 == m2:
        return
    lo, hi = sorted((m1, m2))
    assert comm_time(AZURE_INTERCONNECT, lo) < comm_time(AZURE_INTERCONNECT, hi)


@given(m=st.integers(min_value=1, max_value=2**40))
def test_effective_bandwidth_below_beta_and_monotone(m):
    eff = m / comm_time(AZURE_INTERCONNECT, m)
    assert eff < AZURE_INTERCONNECT.beta
    assert eff < (2 * m) / comm_time(AZURE_INTERCONNECT, 2 * m)


def test_effective_bandwidth_approaches_beta():
    sizes = [2**k for k in range(8, 33, 4)]
    effs = [m / comm_time(AZURE_INTERCONNECT, m) for m in sizes]
    assert all(a < b for a, b in zip(effs, effs[1:]))
    assert effs[-1] == pytest.approx(AZURE_INTERCONNECT.beta, rel=1e-3)


def test_allreduce_time():
    assert allreduce_time(AZURE_INTERCONNECT, 1, 8) == 0.0
    one_round = comm_time(AZURE_INTERCONNECT, 8)
    assert allreduce_time(AZURE_INTERCONNECT, 2, 8) == pytest.approx(one_round)
    assert allreduce_time(AZURE_INTERCONNECT, 8, 8) == pytest.approx(3 * one_round)
    assert allreduce_time(AZURE_INTERCONNECT, 5, 8) == pytest.approx(3 * one_round)


def test_interconnect_validation():
    with pytest.raises(ValueError):
        InterconnectModel("bad", alpha=0.0, beta=1.0)
    with pytest.raises(ValueError):
        comm_time(AZURE_INTERCONNECT, -1)
    with pytest.raises(ValueError):
        allreduce_time(AZURE_INTERCONNECT, 0, 8)


def test_clock_fifo_tiebreak():
    clock = SimClock()
    seen = []
    for tag in "abc":
        clock.schedule(5.0, lambda t=tag: seen.append(t))
    clock.schedule(1.0, lambda: seen.append("first"))
    clock.run()
    assert seen == ["first", "a", "b", "c"]
    assert clock.now == 5.0


def test_clock_rejects_past():
    clock = SimClock()
    clock.schedule(10.0, lambda: None)
    clock.run()
    with pytest.raises(ValueError):
        clock.schedule(5.0, lambda: None)


def test_clock_runs_an_event_scheduled_at_its_own_instant_after_those_queued_before():
    clock = SimClock()
    seen = []

    def at_five():
        seen.append(("first", clock.now))
        clock.schedule(5.0, lambda: seen.append(("scheduled at 5", clock.now)))

    clock.schedule(5.0, at_five)
    clock.schedule(5.0, lambda: seen.append(("queued before", clock.now)))
    clock.schedule(6.0, lambda: seen.append(("later", clock.now)))
    clock.run()
    assert seen == [("first", 5.0), ("queued before", 5.0), ("scheduled at 5", 5.0),
                    ("later", 6.0)]


def test_clock_cancel():
    clock = SimClock()
    seen = []
    ev = clock.schedule(1.0, lambda: seen.append("cancelled"))
    clock.schedule(2.0, lambda: seen.append("kept"))
    clock.cancel(ev)
    clock.run()
    assert seen == ["kept"]


# node provisioning and preemption, which BatchService.pool_add does on this substrate


def _cfg(pool_id, dedicated, low_priority):
    return PoolConfig(pool_id, "NC6", "eastus", dedicated, low_priority, inter_node_comm=False,
                      shared_filesystem=False, image="img:1")


def _pool_add(seed=42, dedicated=2, low_priority=0, pool_id="pool", **options):
    svc = BatchService(default_catalog(), seed=seed, **options)
    svc.quota_set("eastus", 200, 200)
    return svc, svc.pool_add(_cfg(pool_id, dedicated, low_priority))


def test_provision_deterministic_replay():
    (svc1, pool1), (svc2, pool2) = _pool_add(low_priority=1), _pool_add(low_priority=1)
    assert [n.state for n in pool1.nodes] == [NodeState.STARTING] * 3
    svc1.run_to_quiescence()  # until the low-priority node is preempted
    svc2.run_to_quiescence()
    assert svc1.event_log.lines() == svc2.event_log.lines()
    assert [n.ready_time for n in pool1.nodes] == [n.ready_time for n in pool2.nodes]
    assert pool1.nodes[2].state is NodeState.PREEMPTED


def test_provision_scarcity_window():
    svc, _ = _pool_add(scarcity_windows=((0.0, 3600.0),))  # dedicated nodes are unaffected
    with pytest.raises(SimulationError, match="^low-priority capacity unavailable at t=0s$"):
        svc.pool_add(_cfg("lp", 0, 1))
    svc.clock.schedule(3600.0, lambda: None)  # the window ends at 3600 s
    svc.run_to_quiescence()
    assert svc.pool_add(_cfg("lp", 0, 1)).state is PoolState.ALLOCATING


def test_preemption_schedule_reproducible():
    def preempt_times(seed):
        svc, pool = _pool_add(seed, dedicated=0, low_priority=4, preemption_rate=0.5)
        svc.advance_until_pool_settled(pool.pool_id)
        return [n.preempt_at - n.ready_time for n in pool.nodes]

    delays = preempt_times(9)  # each node's own stream, drawn as it becomes ready
    assert delays == [derived_rng(9, f"preempt/pool/{i}").expovariate(0.5) * 3600.0
                      for i in range(4)]
    assert preempt_times(9) == delays
    assert preempt_times(10) != delays


def test_preemption_zero_rate_never_fires():
    svc, pool = _pool_add(dedicated=0, low_priority=2, preemption_rate=0.0)
    svc.run_to_quiescence()
    assert [(n.state, n.preempt_at) for n in pool.nodes] == [(NodeState.IDLE, None)] * 2


def test_derived_rng_is_stable():
    a = derived_rng(7, "boot/pool").random()
    b = derived_rng(7, "boot/pool").random()
    c = derived_rng(7, "boot/other").random()
    assert a == b
    assert a != c


def test_event_log_format():
    log = EventLog()
    log.append((1.5, "node/p/0", "Starting->Idle"))
    assert log.lines() == ["1.500000\tnode/p/0\tStarting->Idle"]
    assert log.dump().endswith("\n")


def test_event_log_records_come_back_in_write_order_from_each_writer():
    """The service's writers, boot and preemption among them, and a direct `append` write
    one flat log; `records` reads it back as (time, entity, text) tuples and cannot be
    appended to."""
    svc, pool = _pool_add(dedicated=0, low_priority=1, image_pull_seconds=0)
    log, node = svc.event_log, pool.nodes[0]
    log.append((1e-7, "task/j/t", "Pending->Staging"))
    svc.run_to_quiescence()  # the node boots, then is preempted
    log.append((1975015.2358226948, "pool/pool", "->Steady"))
    ready, preempted = node.ready_time, node.released_time
    assert 0 < ready < preempted and node.state is NodeState.PREEMPTED
    written = ((0.0, "quota/eastus", "dedicated=200,low_priority=200"),
               (0.0, "node/pool/0", "->Starting"), (0.0, "pool/pool", "->Allocating"),
               (1e-7, "task/j/t", "Pending->Staging"), (ready, "node/pool/0", "Starting->Idle"),
               (ready, "pool/pool", "Allocating->Steady"),
               (preempted, "node/pool/0", "Idle->Preempted"),
               (1975015.2358226948, "pool/pool", "->Steady"))
    assert log.records == written and len(log.records) == 8
    assert log.lines() == [f"{t:.6f}\t{e}\t{text}" for t, e, text in written]
    assert log.lines()[3] == "0.000000\ttask/j/t\tPending->Staging"
    assert log.lines()[7] == "1975015.235823\tpool/pool\t->Steady"
    assert log.dump() == "\n".join(log.lines()) + "\n"
    with pytest.raises(AttributeError):
        log.records.append((5.0, "pool/p", "->Deleted"))
    assert len(log.records) == 8


@settings(max_examples=50)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_boot_latency_in_range(seed):
    """One boot latency per pool, from the pool's own stream, shared by all its nodes."""
    svc, pool = _pool_add(seed, 1, 1, f"pool{seed}", preemption_rate=0.0, image_pull_seconds=0)
    other = svc.pool_add(_cfg("other", 2, 0))
    svc.run_to_quiescence()
    lo, hi = BOOT_LATENCY_RANGE
    for p in (pool, other):
        boot = derived_rng(seed, f"boot/{p.pool_id}").randint(lo, hi)
        assert [n.ready_time for n in p.nodes] == [boot] * 2
        assert lo <= boot <= hi
