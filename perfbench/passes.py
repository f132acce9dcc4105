"""The three benchmark workloads, each as a pass that can be repeated.

A pass sets up its inputs from the seed (untimed for wall_s, timed for
setup_s), runs the timed part as a closed loop with one client, then
checks its outputs. Passes return the digests of the events.log and
ledger.tsv the run produced, so the caller can compare them with the
golden values, between passes, and between traced and untraced runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import calibrate
import tracer

perf_counter = tracer.perf_counter

SNAKE_CONFIG = "configs/snake2d2k35"
SHARE = "fileshare"

# sched_mix: one 32-node NC6 pool and N fixed-duration gang tasks
SCHED_TASKS = 10_000
SCHED_DEDICATED, SCHED_LOW_PRIORITY = 24, 8
SCHED_PREEMPTION_RATE = 0.5  # per node-hour
SCHED_TASK_RETRIES = 1
SCHED_SWEEPS = (500, 1000) * 4  # 6,000 of the tasks, about 1% of the jobs
SLICE_S = 0.25  # host seconds between calibrations while running to quiescence

# cg_solve: the two grid edges, solved one job after the other
CG_SIZES = (64, 96)


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


@dataclass
class Env:
    """Paths and the environment shared by every pass of one benchmark run."""

    root: Path  # the checkout
    work: Path  # scratch space inside the checkout
    child_env: dict

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        if path.exists():
            shutil.rmtree(path)
        path.mkdir(parents=True)
        return path


@dataclass
class PassResult:
    """One pass, timed in seconds and in reference seconds (`*_ref`, see calibrate.py)."""

    setup_s: float = 0.0
    setup_ref: float = 0.0
    wall_s: float = 0.0
    wall_ref: float = 0.0
    parts: dict[str, float] = field(default_factory=dict)
    parts_ref: dict[str, float] = field(default_factory=dict)
    op_times: list[float] = field(default_factory=list)
    op_ref: list[float] = field(default_factory=list)
    work_done: int = 0  # commands, terminal tasks or CG iterations
    digests: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    tracer: tracer.Tracer | None = None
    layer: dict[str, float] = field(default_factory=dict)  # exact facts for the trace


def _digests(svc) -> dict[str, str]:
    from batchsim import billing

    return {"events.log": sha256(svc.event_log.dump()),
            "ledger.tsv": sha256(billing.export_tsv(svc.ledger))}


# ---------------------------------------------------------------------------
# cli_walkthrough: the README session, one fresh interpreter per command


def walkthrough(root: Path, seed: int) -> list[list[str]]:
    inputs = str(root / SNAKE_CONFIG / "inputs")
    return [
        ["workspace", "init", "--seed", str(seed)],
        ["storage", "account", "create"],
        ["share", "create", "--name", SHARE, "--quota", "100"],
        ["quota", "set", "--region", "eastus", "--dedicated", "100"],
        ["pool", "add"],
        ["data", "ingress", "--source", inputs],
        ["jobs", "add"],
        ["status"],
        ["pool", "del"],
        ["jobs", "del"],
        ["data", "download", "--source", f"{SHARE}/snake2d2k35", "--dest", "output"],
        ["ledger", "report"],
        ["repro", "pack"],
        ["repro", "verify", "repro-package.tar.gz"],
    ]


# commands whose whole stdout must match the in-process session
_COMPARED_OUTPUT = {"jobs", "status", "ledger"}


def cli_reference(env: Env, seed: int) -> dict:
    """The same session in process: digests and stdout per command."""
    import io

    from batchsim import cli

    ws = env.fresh_dir("cli-reference")
    outputs = []
    for argv in walkthrough(env.root, seed):
        out = io.StringIO()
        code = cli.run_command(["-C", str(ws), *argv], out=out, err=io.StringIO())
        outputs.append((code, out.getvalue()))
    store = ws / ".batchsim"
    return {"outputs": outputs,
            "digests": {name: sha256((store / name).read_bytes())
                        for name in ("events.log", "ledger.tsv")}}


def cli_pass(env: Env, seed: int, speed: calibrate.Speed, reference: dict,
             traced: bool = False) -> PassResult:
    start = perf_counter()
    ws = env.fresh_dir("cli")
    commands = walkthrough(env.root, seed)
    spans_dir = env.fresh_dir("cli-spans") if traced else None
    res = PassResult(setup_s=perf_counter() - start)
    res.setup_ref = speed.lap(res.setup_s)
    docs = []
    for i, argv in enumerate(commands):
        if traced:
            spans = spans_dir / f"{i:02d}.json"
            cmd = [sys.executable, str(env.root / "perfbench" / "cli_child.py"), str(spans), *argv]
        else:
            cmd = [sys.executable, "-m", "batchsim.cli", *argv]
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ws, env=env.child_env, capture_output=True,
                              text=True, timeout=120)
        dt = perf_counter() - t0
        res.op_times.append(dt)
        res.op_ref.append(speed.lap(dt))
        res.attempted += 1
        name = " ".join(argv[:2])
        if argv[:2] == ["repro", "verify"]:
            res.parts["repro_verify_s"], res.parts_ref["repro_verify_s"] = dt, res.op_ref[-1]
        ref_code, ref_out = reference["outputs"][i]
        if proc.returncode != 0 or ref_code != 0:
            res.problems.append(f"`{name}` exited {proc.returncode} "
                                f"(in process {ref_code}): {proc.stderr.strip()[-200:]}")
        elif argv[0] in _COMPARED_OUTPUT and proc.stdout != ref_out:
            res.problems.append(f"`{name}` output differs from the in-process session")
        elif argv[:2] == ["repro", "verify"] and not proc.stdout.startswith("PASS"):
            res.problems.append(f"repro verify did not pass: {proc.stdout.strip()}")
        if traced:
            with open(spans) as fh:
                docs.append(json.load(fh))
    res.wall_s, res.wall_ref = sum(res.op_times), sum(res.op_ref)
    res.work_done = len(commands)
    store = ws / ".batchsim"
    res.digests = {name: sha256((store / name).read_bytes())
                   for name in ("events.log", "ledger.tsv")}
    if res.digests != reference["digests"]:
        res.problems.append("events.log/ledger.tsv differ from the in-process session")
    downloaded = ws / "output" / SHARE / "snake2d2k35"
    if not (downloaded / "output" / "run.log").is_file():
        res.problems.append("data download left no run.log")
    if traced:
        res.tracer = tracer.Tracer.merge(docs)
    return res


def peak_child_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def peak_self_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# sched_mix: a heavy-tailed queue of gang tasks on one pool, in process


def sched_jobs(seed: int):
    """N fixed-duration tasks in jobs of mostly 1-16 tasks plus a few big sweeps.

    The sweeps sit at evenly spaced places in the queue and their sizes are
    fixed, so the seed changes the tasks but hardly the scheduler's work,
    which grows with where the big jobs are and how many jobs there are.
    """
    from batchsim.config import JobsConfig, TaskSpec
    from batchsim.workloads import FixedDuration

    rng = random.Random(seed)
    sizes, left = [], SCHED_TASKS - sum(SCHED_SWEEPS)
    while left > 0:
        sizes.append(min(int(2 ** rng.uniform(0.0, 4.0)), left))
        left -= sizes[-1]
    step = (len(sizes) + len(SCHED_SWEEPS)) / len(SCHED_SWEEPS)
    for i, sweep in enumerate(SCHED_SWEEPS):
        sizes.insert(int((i + 0.5) * step), sweep)
    jobs = []
    for size in sizes:
        job_id = f"job{len(jobs):04d}"
        tasks = tuple(
            TaskSpec(task_id=f"t{i}",
                     workload=FixedDuration(float(rng.randint(60, 3600))),
                     instances=rng.randint(1, 4), procs_per_node=1, gpus_per_node=0,
                     input_dir=f"{SHARE}/inputs", output_dir=f"{SHARE}/out/{job_id}")
            for i in range(size)
        )
        jobs.append(JobsConfig(job_id=job_id, pool_id="mix", tasks=tasks))
    return jobs


def sched_options(seed: int):
    from batchsim.state import ServiceOptions

    return ServiceOptions(seed=seed, preemption_rate=SCHED_PREEMPTION_RATE,
                          task_retries=SCHED_TASK_RETRIES)


def sched_setup(seed: int):
    from batchsim.config import PoolConfig
    from batchsim.state import build_service

    jobs = sched_jobs(seed)
    svc = build_service(sched_options(seed))
    cores = (SCHED_DEDICATED + SCHED_LOW_PRIORITY) * svc.catalog.lookup("NC6").vcores
    svc.quota_set("eastus", cores, cores)
    svc.storage.share_create(SHARE, 100)
    svc.pool_add(PoolConfig(pool_id="mix", sku="NC6", region="eastus",
                            dedicated_count=SCHED_DEDICATED,
                            low_priority_count=SCHED_LOW_PRIORITY,
                            inter_node_comm=False, shared_filesystem=False, image="img:1"))
    return svc, jobs


def sched_pass(env: Env, seed: int, speed: calibrate.Speed, traced: bool = False) -> PassResult:
    from batchsim import state

    start = perf_counter()
    svc, jobs = sched_setup(seed)
    store = state.WorkspaceStore(env.fresh_dir("sched-state"))
    res = PassResult(setup_s=perf_counter() - start)
    res.setup_ref = speed.lap(res.setup_s)
    laps: dict[str, list[tuple[float, float]]] = {"run": [], "pool_del": [], "roundtrip": []}

    def timed(phase, fn, *args):
        t0 = perf_counter()
        result = fn(*args)
        raw = perf_counter() - t0
        laps[phase].append((raw, speed.lap(raw)))
        return result

    def submit():
        for cfg in jobs:
            svc.jobs_add(cfg)

    tr = tracer.Tracer() if traced else None
    patches = tracer.install(tr) if traced else None
    try:
        timed("run", submit)
        while svc.clock.pending():
            # quiescence in slices of host time, calibrated one by one; the
            # events and their order are those of svc.run_to_quiescence()
            until = perf_counter() + SLICE_S
            timed("run", svc.clock.run, lambda: perf_counter() >= until)
        timed("pool_del", svc.pool_del, "mix")
        doc = timed("roundtrip", state.service_to_doc, svc)
        timed("roundtrip", store.save, {"options": sched_options(seed).to_doc(), "service": doc})
        loaded = timed("roundtrip", store.load)
        options = state.ServiceOptions.from_doc(loaded["options"])
        back = timed("roundtrip", state.service_from_doc, loaded["service"], options)
    finally:
        if patches is not None:
            patches.undo()
    for phase, key in (("run", "run_s"), ("roundtrip", "state_roundtrip_s")):
        res.parts[key] = sum(raw for raw, _ in laps[phase])
        res.parts_ref[key] = sum(ref for _, ref in laps[phase])
    res.wall_s = sum(raw for phase in laps.values() for raw, _ in phase)
    res.wall_ref = sum(ref for phase in laps.values() for _, ref in phase)
    tasks = svc.all_tasks()
    res.work_done = sum(1 for t in tasks if t.terminal)
    res.attempted = len(jobs) + 2
    res.digests = _digests(svc)
    res.tracer = tr
    res.problems += sched_invariants(svc, svc.pools["mix"])
    if json.dumps(state.service_to_doc(back), sort_keys=True) != json.dumps(doc, sort_keys=True):
        res.problems.append("state round trip changed the service document")
    waits = [t.start_time - svc.jobs[t.job_id].submitted_at for t in tasks
             if t.start_time is not None]
    res.layer = {"fabric.log_records": len(svc.event_log.records),
                 "storage.share_entries": len(svc.storage.shares[SHARE].entries),
                 "batch.task_wait_sim_p50_s": statistics.median(waits)}
    return res


def sched_invariants(svc, pool) -> list[str]:
    """Gang, oversubscription and billing-consistency invariants, plus conservation."""
    problems = []
    busy: dict[str, list[tuple[str, float, float]]] = {}
    for node in pool.nodes:
        for s, e, tag in node.busy_log:
            busy.setdefault(tag, []).append((node.node_id, s, e))
        intervals = sorted(node.busy_log)
        for (s1, e1, t1), (s2, e2, t2) in zip(intervals, intervals[1:]):
            if e1 > s2:
                problems.append(f"{node.node_id} oversubscribed: {t1} overlaps {t2}")
    for task in svc.all_tasks():
        if not task.terminal:
            problems.append(f"{task.entity} not terminal after pool deletion")
        if task.start_time is None:
            continue
        held = busy.get(task.run_tag, [])
        if (len(task.assigned_nodes) != task.spec.instances
                or sorted(n for n, _, _ in held) != sorted(task.assigned_nodes)
                or any((s, e) != (task.start_time, task.end_time) for _, s, e in held)):
            problems.append(f"gang broken for {task.run_tag}")
    metered = sum((i.node_seconds for i in svc.ledger.items if i.node_seconds is not None),
                  Fraction(0))
    uptime = sum((Fraction(n.released_time) - Fraction(n.ready_time)
                  for n in pool.nodes if n.ready_time is not None), Fraction(0))
    if metered != uptime:
        problems.append(f"billed node-seconds {metered} != node uptime {uptime}")
    return problems[:20]


# ---------------------------------------------------------------------------
# cg_solve: two real CG solves on a 2-node H16r pool, in process


def cg_setup(seed: int):
    from batchsim.config import JobsConfig, PoolConfig, TaskSpec
    from batchsim.state import ServiceOptions, build_service
    from batchsim.workloads import PoissonCGReal

    svc = build_service(ServiceOptions(seed=seed))
    svc.quota_set("eastus", 100, 0)
    svc.storage.share_create(SHARE, 100)
    pool = svc.pool_add(PoolConfig(pool_id="poisson-h16r", sku="H16r", region="eastus",
                                   dedicated_count=2, low_priority_count=0,
                                   inter_node_comm=True, shared_filesystem=True,
                                   image="cfdlab/flowsolver:0.4"))
    svc.advance_until_pool_settled(pool.pool_id)
    jobs = [JobsConfig(job_id=f"poisson-cg{n}", pool_id=pool.pool_id, tasks=(
        TaskSpec(task_id=f"solve{n}", workload=PoissonCGReal(n), instances=2,
                 procs_per_node=16, gpus_per_node=0, input_dir=f"{SHARE}/poisson",
                 output_dir=f"{SHARE}/poisson/solve{n}"),)) for n in CG_SIZES]
    return svc, jobs


def cg_pass(env: Env, seed: int, speed: calibrate.Speed, traced: bool = False) -> PassResult:
    start = perf_counter()
    svc, jobs = cg_setup(seed)
    res = PassResult(setup_s=perf_counter() - start)
    res.setup_ref = speed.lap(res.setup_s)
    array_speed = calibrate.Speed("numpy")  # the solves are array arithmetic
    tr = tracer.Tracer() if traced else None
    patches = tracer.install(tr) if traced else None
    try:
        for n, cfg in zip(CG_SIZES, jobs):
            t0 = perf_counter()
            job = svc.jobs_add(cfg)
            svc.advance_until_job_terminal(job.job_id)
            dt = perf_counter() - t0
            res.parts[f"cg_solve_s.n{n}"], res.parts_ref[f"cg_solve_s.n{n}"] = \
                dt, array_speed.lap(dt)
    finally:
        if patches is not None:
            patches.undo()
    res.wall_s, res.wall_ref = sum(res.parts.values()), sum(res.parts_ref.values())
    res.attempted = len(jobs)
    res.tracer = tr
    svc.pool_del("poisson-h16r")
    res.digests = _digests(svc)
    share = svc.storage.shares[SHARE]
    for n, cfg in zip(CG_SIZES, jobs):
        task = svc.jobs[cfg.job_id].tasks[0]
        entry = share.entries.get(f"poisson/solve{n}/solve.tsv")
        if task.state.value != "Completed" or entry is None:
            res.problems.append(f"n={n}: task {task.state.value}, no solve.tsv")
            continue
        report = dict(line.split("\t") for line in entry.content.decode().splitlines())
        iterations, residual = int(report["iterations"]), float(report["final_residual"])
        res.work_done += iterations
        res.layer[f"workloads.cg_iterations.n{n}"] = iterations
        if residual > 1e-12:
            res.problems.append(f"n={n}: residual {residual!r} above 1e-12")
    return res


# ---------------------------------------------------------------------------
# interpreter start and import probes, each in a fresh child


def time_child(env: Env, args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=env.work, env=env.child_env,
                          capture_output=True, text=True, timeout=60)
    dt = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args} exited {proc.returncode}: {proc.stderr[-300:]}")
    return dt, proc


def import_split(env: Env) -> dict[str, float]:
    """Cumulative import seconds of numpy, yaml and the rest of batchsim.cli."""
    _, proc = time_child(env, ["-X", "importtime", "-c", "import batchsim.cli"])
    cumulative = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = (part.strip() for part in line[len("import time:"):].split("|"))
        if cum.isdigit():
            cumulative.setdefault(name, int(cum) / 1e6)
    numpy_s, yaml_s = cumulative["numpy"], cumulative["yaml"]
    return {"import.numpy_s": numpy_s, "import.yaml_s": yaml_s,
            "import.batchsim_s": cumulative["batchsim.cli"] - numpy_s - yaml_s}


def child_environment(root: Path, work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(work / "tmp")
    env["BATCHSIM_CONFIGDIR"] = str(root / SNAKE_CONFIG)
    return env
