"""Deterministic discrete-event substrate.

Simulation clock with FIFO tie-break at equal timestamps, the event log,
the node record (the batch service makes and logs every move of a node), and
the latency/bandwidth interconnect timing model. Everything observable is
a pure function of (initial state, seed): per-entity RNG streams are
derived by hashing the master seed with a stable purpose string, so draw
order never depends on scheduling order.
"""

from __future__ import annotations

import enum
import hashlib
import heapq
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

BOOT_LATENCY_RANGE = (60, 300)  # uniform integer seconds, one draw per pool
DEFAULT_PREEMPTION_RATE = 0.05  # events per node-hour


def derived_rng(seed: int, purpose: str) -> random.Random:
    """Stable child RNG; independent of PYTHONHASHSEED and call order."""
    digest = hashlib.sha256(f"{seed}/{purpose}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# ---------------------------------------------------------------------------
# interconnect timing


@dataclass(frozen=True)
class InterconnectModel:
    """Per-message latency (seconds) and sustained bandwidth (bytes/second)."""

    name: str
    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")


AZURE_INTERCONNECT = InterconnectModel("azure", alpha=1.95e-6, beta=5.2e9)
COLONIAL_INTERCONNECT = InterconnectModel("colonial-one", alpha=1.25e-6, beta=6.2e9)

INTERCONNECTS = {m.name: m for m in (AZURE_INTERCONNECT, COLONIAL_INTERCONNECT)}


def comm_time(model: InterconnectModel, message_bytes: int) -> float:
    if message_bytes < 0:
        raise ValueError("message_bytes must be non-negative")
    return model.alpha + message_bytes / model.beta


def allreduce_time(model: InterconnectModel, participants: int, message_bytes: int) -> float:
    """Binomial-tree closure: ceil(log2(p)) latency-bound rounds; p < 1 is a ValueError."""
    rounds = math.ceil(math.log2(participants))
    return rounds * comm_time(model, message_bytes)


# ---------------------------------------------------------------------------
# event loop


class EventLog:
    """Append-only transition log, serialized as time<TAB>entity<TAB>transition. Every writer
    calls `append` with one (time, entity, text) record, which extends `flat` by its values, so
    no object stays alive per record for the GC to count; `records` is a read-only copy."""

    def __init__(self):
        self.flat: list = []
        self.append = self.flat.extend  # takes one (time, entity, text) record

    @property
    def records(self) -> tuple[tuple[float, str, str], ...]:
        items = iter(self.flat)
        return tuple(zip(items, items, items))

    def lines(self) -> list[str]:
        items = iter(self.flat)
        return [f"{t:.6f}\t{e}\t{tr}" for t, e, tr in zip(items, items, items)]

    def dump(self) -> str:
        out = "\n".join(self.lines())
        return out + "\n" if out else ""


class SimClock:
    """Time-ordered event queue with stable FIFO tie-break by insertion."""

    def __init__(self):
        self.now = 0.0
        self._heap: list[list] = []  # [time, seq, action]; a cancelled entry has no action
        self._seq = 0

    def schedule(self, at: float, action: Callable[[], None]) -> list:
        if at < self.now:
            raise ValueError(f"cannot schedule into the past ({at} < {self.now})")
        entry = [at, self._seq, action]
        heapq.heappush(self._heap, entry)
        self._seq += 1
        return entry

    @staticmethod
    def cancel(entry: list):
        entry[2] = None

    def pending(self) -> int:
        return sum(1 for _, _, action in self._heap if action is not None)

    def step(self) -> bool:
        """Run the next event; returns False when the queue is drained."""
        while self._heap:
            at, _, action = heapq.heappop(self._heap)
            if action is None:
                continue
            self.now = at
            action()
            return True
        return False

    def run(self, until: Optional[Callable[[], bool]] = None):
        """Drain the queue, stopping early once `until()` becomes true."""
        while (until is None or not until()) and self.step():
            pass


# ---------------------------------------------------------------------------
# nodes


class Priority(enum.Enum):
    DEDICATED = "dedicated"
    LOW_PRIORITY = "low_priority"


class NodeState(enum.Enum):
    STARTING = "Starting"
    IDLE = "Idle"
    RUNNING = "Running"
    PREEMPTED = "Preempted"


class Node:
    """A VM of a pool; its SKU is the pool's `config.sku`. Node `i` of a pool is
    `<pool>/<i>`, dedicated if among its first `dedicated_count`: state.json stores neither
    id nor priority, and a load derives both from the node's position (`batch.pool_node`)."""

    __slots__ = ("node_id", "position", "entity", "priority", "state", "ready_time",
                 "released_time", "preempt_at", "busy_log", "task")

    def __init__(self, node_id: str, priority: Priority, position: int = 0):
        self.node_id = node_id
        self.position = position  # index in its pool's nodes
        self.entity = f"node/{node_id}"  # the event-log entity
        self.priority = priority
        self.state = NodeState.STARTING
        self.ready_time: Optional[float] = None
        self.released_time: Optional[float] = None
        self.preempt_at: Optional[float] = None
        # busy intervals (start, end, "task/<job>/<task>#<attempt>") in the order they end;
        # state.json stores only those that no task row records, and a load rebuilds the rest
        self.busy_log: list[tuple[float, float, str]] = []
        self.task = None  # the batch task attempt running on it
