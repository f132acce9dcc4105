"""In-memory span tracer for the traced benchmark run.

Spans are recorded around calls into batchsim's public functions by
substituting wrappers on the module or class attribute that the caller
looks up; no file under src/ changes. Every span keeps its name, start,
end and the index of the span that was open when it started, so a layer's
self time is its span minus the spans nested inside it.
"""

from __future__ import annotations

import time
from collections import Counter

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        # [name, start, end, parent index]; parent -1 for a root span
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, after=None):
        """Return fn wrapped in a span; after(result, args, kwargs) runs on return."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus the spans nested in it."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def inclusive_times(self, root_only: bool = False) -> dict[str, float]:
        """Seconds per span name, nested spans of the same name counted once."""
        out: dict[str, float] = {}
        for name, start, end, parent in self.spans:
            if root_only and parent >= 0:
                continue
            if parent >= 0 and self._has_ancestor(parent, name):
                continue
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def _has_ancestor(self, idx: int, name: str) -> bool:
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False

    def nested_under(self, name: str, ancestor: str) -> float:
        """Seconds in spans called `name` that run inside a span called `ancestor`."""
        total = 0.0
        for span_name, start, end, parent in self.spans:
            if span_name == name and parent >= 0 and self._has_ancestor(parent, ancestor):
                total += end - start
        return total

    def to_doc(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}

    @classmethod
    def merge(cls, docs: list[dict]) -> "Tracer":
        """One tracer holding the spans and counts of several processes."""
        tr = cls()
        for doc in docs:
            offset = len(tr.spans)
            tr.spans += [[name, start, end, parent + offset if parent >= 0 else -1]
                         for name, start, end, parent in doc["spans"]]
            tr.counts.update(doc["counts"])
        return tr


class Patches:
    """Attribute substitutions that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def set_item(self, mapping: dict, key, value):
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = value

    def undo(self):
        while self._undo:
            owner, key, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)


def install(tr: Tracer) -> Patches:
    """Wrap the layer boundaries of every batchsim module in spans and counters."""
    from batchsim import batch, billing, cli, fabric, state, storage, workloads

    p = Patches()
    counts = tr.counts

    def wrap_method(owner, attr, name, after=None):
        p.set(owner, attr, tr.wrap(name, getattr(owner, attr), after))

    # fabric: one span per dispatched event
    def on_step(result, args, kwargs):
        if result:
            counts["fabric.events_dispatched"] += 1

    wrap_method(fabric.SimClock, "step", "fabric.step", on_step)

    # batch: scheduling passes, and whether each one started a task
    raw_schedule = batch.BatchService.schedule_step

    def schedule_step(self):
        before = counts["workloads.execute_calls"]
        raw_schedule(self)
        counts["batch.schedule_passes"] += 1
        if counts["workloads.execute_calls"] > before:
            counts["batch.useful_passes"] += 1

    p.set(batch.BatchService, "schedule_step", tr.wrap("batch.schedule_step", schedule_step))
    wrap_method(batch.BatchService, "jobs_add", "batch.jobs_add")
    wrap_method(batch.BatchService, "pool_add", "batch.pool_add")
    wrap_method(batch.BatchService, "pool_del", "batch.pool_del")

    # workloads: task execution, CG solves and the stencil, keyed by grid edge
    def on_execute(result, args, kwargs):
        counts["workloads.execute_calls"] += 1

    wrap_method(workloads, "execute", "workloads.execute", on_execute)
    raw_solve, raw_stencil = workloads.solve_cg, workloads.apply_poisson
    sized: dict[str, object] = {}

    def by_size(name, fn, grid):
        key = f"{name}.n{grid.nx}"
        if key not in sized:
            sized[key] = tr.wrap(key, fn)
        return sized[key]

    def solve_cg(grid, *args, **kwargs):
        result = by_size("workloads.solve_cg", raw_solve, grid)(grid, *args, **kwargs)
        counts[f"workloads.cg_iterations.n{grid.nx}"] += result.iterations
        return result

    def apply_poisson(grid, *args, **kwargs):
        counts[f"workloads.stencil_calls.n{grid.nx}"] += 1
        return by_size("workloads.apply_poisson", raw_stencil, grid)(grid, *args, **kwargs)

    p.set(workloads, "solve_cg", solve_cg)
    p.set(workloads, "apply_poisson", apply_poisson)

    # storage: artifact writes and metered transfers
    def on_write(result, args, kwargs):
        counts["storage.write_entry_calls"] += 1

    wrap_method(storage.StorageAccount, "write_entry", "storage.write_entry", on_write)
    wrap_method(storage.StorageAccount, "ingress", "storage.ingress")
    wrap_method(storage.StorageAccount, "download_batch", "storage.download_batch")

    # billing: metering and the ledger export
    def on_meter(result, args, kwargs):
        counts["billing.meter_calls"] += 1

    wrap_method(billing.Ledger, "add_vm", "billing.meter", on_meter)
    wrap_method(billing.Ledger, "add_egress", "billing.meter", on_meter)
    wrap_method(billing, "export_tsv", "billing.export_tsv")

    # state: document conversion and the on-disk store
    def on_save(result, args, kwargs):
        counts["state.json_bytes"] += args[0].state_path.stat().st_size

    wrap_method(state, "service_to_doc", "state.to_doc")
    wrap_method(state, "service_from_doc", "state.rehydrate")
    wrap_method(state.WorkspaceStore, "load", "state.load")
    wrap_method(state.WorkspaceStore, "save", "state.save", on_save)

    # config: cli holds its own references to the parser and serializer
    def on_parse(result, args, kwargs):
        counts["config.parse_calls"] += 1

    wrap_method(cli, "parse_config_dir", "config.parse", on_parse)
    wrap_method(cli, "serialize_config_dir", "config.serialize")

    # cli: whole commands (the replay in repro verify calls run_command again)
    wrap_method(cli, "run_command", "cli.command")
    handlers = cli._HANDLERS
    p.set_item(handlers, ("repro", "pack", None),
               tr.wrap("cli.repro_pack", handlers[("repro", "pack", None)]))
    p.set_item(handlers, ("repro", "verify", None),
               tr.wrap("cli.repro_verify", handlers[("repro", "verify", None)]))
    return p
