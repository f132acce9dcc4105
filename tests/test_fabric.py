import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batchsim.errors import AllocationUnavailable
from batchsim.fabric import (
    AZURE_INTERCONNECT,
    BOOT_LATENCY_RANGE,
    COLONIAL_INTERCONNECT,
    EventLog,
    InterconnectModel,
    Node,
    NodeState,
    PreemptionProcess,
    Priority,
    Provisioner,
    ScarcityWindow,
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


def test_clock_cancel():
    clock = SimClock()
    seen = []
    ev = clock.schedule(1.0, lambda: seen.append("cancelled"))
    clock.schedule(2.0, lambda: seen.append("kept"))
    ev.cancel()
    clock.run()
    assert seen == ["kept"]


def _provision(seed=42, dedicated=2, low_priority=0, windows=()):
    clock = SimClock()
    log = EventLog()
    prov = Provisioner(clock, log, seed=seed, scarcity_windows=windows)
    ready = []
    nodes = prov.provision("pool", "NC24r", dedicated, low_priority, ready.append)
    return clock, log, nodes, ready


def test_provision_deterministic_replay():
    clock1, log1, nodes1, _ = _provision(seed=42)
    clock2, log2, nodes2, _ = _provision(seed=42)
    assert [n.boot_latency for n in nodes1] == [n.boot_latency for n in nodes2]
    assert all(n.state is NodeState.STARTING for n in nodes1)
    assert len(nodes1) == 2
    clock1.run()
    clock2.run()
    assert log1.lines() == log2.lines()
    lo, hi = BOOT_LATENCY_RANGE
    assert all(lo <= n.boot_latency <= hi for n in nodes1)


def test_provision_zero_nodes():
    clock, log, nodes, ready = _provision(dedicated=0, low_priority=0)
    assert nodes == []
    assert clock.pending() == 0
    assert log.lines() == []


def test_provision_scarcity_window():
    with pytest.raises(AllocationUnavailable):
        _provision(low_priority=1, windows=(ScarcityWindow(0.0, 3600.0),))
    # dedicated requests are unaffected
    clock, _, nodes, _ = _provision(dedicated=1, windows=(ScarcityWindow(0.0, 3600.0),))
    assert len(nodes) == 1


def test_preemption_schedule_reproducible():
    proc_a = PreemptionProcess(rate=0.5, seed=9)
    proc_b = PreemptionProcess(rate=0.5, seed=9)
    ids = [f"pool/{i}" for i in range(4)]
    delays = [proc_a.preempt_after(i) for i in ids]
    assert delays == [proc_b.preempt_after(i) for i in ids]
    other_seed = PreemptionProcess(rate=0.5, seed=10)
    assert [other_seed.preempt_after(i) for i in ids] != delays


def test_preemption_zero_rate_never_fires():
    proc = PreemptionProcess(rate=0.0, seed=1)
    assert proc.preempt_after("pool/0") == math.inf


def test_derived_rng_is_stable():
    a = derived_rng(7, "boot/pool").random()
    b = derived_rng(7, "boot/pool").random()
    c = derived_rng(7, "boot/other").random()
    assert a == b
    assert a != c


def test_node_transitions_enforced():
    log = EventLog()
    node = Node("p/0", "NC6", Priority.DEDICATED, 60)
    with pytest.raises(ValueError):
        node.transition(NodeState.RUNNING, 0.0, log)  # Starting -> Running illegal
    node.transition(NodeState.IDLE, 1.0, log)
    with pytest.raises(ValueError):
        node.transition(NodeState.PREEMPTED, 2.0, log)  # dedicated never preempted
    lp = Node("p/1", "NC6", Priority.LOW_PRIORITY, 60)
    lp.transition(NodeState.IDLE, 1.0, log)
    lp.transition(NodeState.PREEMPTED, 2.0, log)
    assert lp.state is NodeState.PREEMPTED


def test_event_log_format():
    log = EventLog()
    log.append(1.5, "node/p/0", "Starting->Idle")
    assert log.lines() == ["1.500000\tnode/p/0\tStarting->Idle"]
    assert log.dump().endswith("\n")


@settings(max_examples=50)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_boot_latency_in_range(seed):
    clock = SimClock()
    prov = Provisioner(clock, EventLog(), seed=seed)
    nodes = prov.provision(f"pool{seed}", "NC6", 1, 0, lambda n: None)
    lo, hi = BOOT_LATENCY_RANGE
    assert lo <= nodes[0].boot_latency <= hi
