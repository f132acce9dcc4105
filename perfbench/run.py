"""batchsim benchmark: three workloads, end-to-end metrics, and a traced run.

    python3 perfbench/run.py --workload cli_walkthrough --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 10

Run it from anywhere inside a checkout; it measures the checkout's own src/.
With --trace 0 it runs the named workload untraced for --seconds seconds
(at least three passes) and reports the end-to-end metrics. With --trace 1
it runs an untraced and a traced pass of every workload and reports the
per-layer metrics, because each layer is measured on the workload that
exercises it. `--workload all` does all of that in one command. The last
line of standard output is one JSON object; the lines before it are the
full report. The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path

import calibrate
import gate
import passes
import tracer

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli_walkthrough", "sched_mix", "cg_solve")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_PASSES = 3
IMPORT_PROBES = 5
# what the workload's process imports before its first pass
PROBE_IMPORT = {"cli_walkthrough": "import batchsim.cli",
                "sched_mix": "import batchsim", "cg_solve": "import batchsim"}

END_TO_END = {"setup_s": "s", "wall_s": "s", "throughput_per_s": "1/s", "peak_rss_mib": "MiB"}

# Per-layer metrics: each is taken from the traced pass of the workload that
# exercises the layer (see perfbench/README.md). Times are seconds per pass.
PER_LAYER = {
    "import.python_start_s": "s", "import.numpy_s": "s", "import.yaml_s": "s",
    "import.batchsim_s": "s",
    "cli.inproc_command_s": "s", "cli.repro_pack_s": "s", "cli.repro_replay_s": "s",
    "config.parse_calls": "count", "config.parse_s": "s", "config.serialize_s": "s",
    "state.load_s": "s", "state.rehydrate_s": "s", "state.to_doc_s": "s",
    "state.save_s": "s", "state.json_bytes": "B",
    "fabric.events_dispatched": "count", "fabric.dispatch_self_s": "s",
    "fabric.log_records": "count",
    "batch.schedule_passes": "count", "batch.schedule_s": "s", "batch.tasks_started": "count",
    "batch.pass_useful_ratio": "ratio", "batch.submit_s": "s",
    "batch.task_wait_sim_p50_s": "sim_s",
    "billing.meter_calls": "count", "billing.meter_s": "s", "billing.export_s": "s",
    "storage.write_entry_calls": "count", "storage.write_entry_s": "s",
    "storage.share_entries": "count", "storage.ingress_s": "s", "storage.download_s": "s",
    "workloads.execute_calls": "count", "workloads.execute_s": "s",
    **{f"workloads.{m}.n{n}": unit for n in passes.CG_SIZES for m, unit in (
        ("stencil_calls", "count"), ("stencil_s", "s"), ("cg_rest_s", "s"),
        ("cg_iterations", "count"), ("stencil_flops_per_iter", "flop"),
        ("cg_bytes_per_iter", "B"))},
    **{f"trace.overhead_s.{w}": "s" for w in WORKLOADS},
}


def median(values):
    return statistics.median(values)


def tail(values) -> tuple[str, float] | None:
    """Highest percentile with at least ten samples beyond it, as (label, value)."""
    n = len(values)
    if n < 11:
        return None
    k = n - 11
    return f"p{100 * (k + 1) // n}", sorted(values)[k]


class Outcome:
    """Operations attempted and the problems found, over one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    def add(self, attempted: int, problems: list[str]):
        self.attempted += attempted
        self.problems += problems

    def add_pass(self, p: passes.PassResult):
        self.add(p.attempted, p.problems)


# ---------------------------------------------------------------------------
# one workload, untraced


def run_pass(env, workload, seed, reference=None, traced=False, probe=False) -> passes.PassResult:
    """One pass; with probe=True its set-up includes interpreter start and import."""
    gc.collect()  # every pass starts from a heap without the last pass's garbage
    speed = calibrate.Speed("python")
    probe_s = probe_ref = 0.0
    if probe:
        probe_s, _ = passes.time_child(env, ["-c", PROBE_IMPORT[workload]])
        probe_ref = speed.lap(probe_s)
    if workload == "cli_walkthrough":
        p = passes.cli_pass(env, seed, speed, reference, traced)
    elif workload == "sched_mix":
        p = passes.sched_pass(env, seed, speed, traced)
    else:
        p = passes.cg_pass(env, seed, speed, traced)
    p.setup_s += probe_s
    p.setup_ref += probe_ref
    return p


def check_golden(env, workload, seed, out: Outcome):
    """Golden digests on the golden seed; for the CLI, the in-process session for `seed`.

    For the in-process workloads the golden pass also warms caches and
    lazy set-up before anything is timed.
    """
    golden = gate.load_golden()
    if workload == "cli_walkthrough":
        ref = passes.cli_reference(env, golden["seed"])
        out.add(1, gate.golden_digests(workload, ref["digests"]))
        return ref if seed == golden["seed"] else passes.cli_reference(env, seed)
    warm = run_pass(env, workload, golden["seed"])
    out.add_pass(warm)
    out.add(1, gate.golden_digests(workload, warm.digests))
    check_pass(workload, warm, out)
    return None


def check_pass(workload, p: passes.PassResult, out: Outcome):
    if workload == "cg_solve":
        want = gate.load_golden()["cg_iterations"]
        got = {f"n{n}": p.layer.get(f"workloads.cg_iterations.n{n}") for n in passes.CG_SIZES}
        out.add(1, [] if got == want else [f"CG iterations {got}, expected {want}"])


def measure(env, workload, seed, seconds, out: Outcome) -> list[passes.PassResult]:
    reference = check_golden(env, workload, seed, out)
    runs = []
    if out.problems:  # no metric is reported for a program that fails the gate
        return runs
    start = tracer.perf_counter()
    while len(runs) < MIN_PASSES or tracer.perf_counter() - start < seconds:
        # one set-up sample per pass spreads the samples over the run
        p = run_pass(env, workload, seed, reference, probe=True)
        out.add_pass(p)
        check_pass(workload, p, out)
        runs.append(p)
        if p.problems:
            break
    out.add(1, [] if all(p.digests == runs[0].digests for p in runs) else
            ["passes with the same seed gave different events.log/ledger.tsv"])
    return runs


def end_to_end(workload, runs) -> tuple[dict, dict]:
    """Contract metrics (the same on every workload) and the workload's own report.

    Times are reference seconds (calibrate.py); the report prints raw seconds too.
    """
    def rate(p, ref=True):
        if workload == "sched_mix":  # from the first jobs_add to quiescence
            return p.work_done / (p.parts_ref["run_s"] if ref else p.parts["run_s"])
        return p.work_done / (p.wall_ref if ref else p.wall_s)

    rss = (passes.peak_child_rss_mib() if workload == "cli_walkthrough"
           else passes.peak_self_rss_mib())
    metrics = {
        "setup_s": median([p.setup_ref for p in runs]),
        "wall_s": median([p.wall_ref for p in runs]),
        "throughput_per_s": median([rate(p) for p in runs]),
        "peak_rss_mib": rss,
    }
    raw = {"setup_s": median([p.setup_s for p in runs]),
           "wall_s": median([p.wall_s for p in runs]),
           "throughput_per_s": median([rate(p, ref=False) for p in runs])}
    n = f"median of {len(runs)}"
    report = {}
    if workload == "cli_walkthrough":
        ops, ops_ref = [t for p in runs for t in p.op_times], [t for p in runs for t in p.op_ref]
        report["cmd_p50_s"] = (median(ops_ref), median(ops), f"median of {len(ops)} commands")
        t, t_ref = tail(ops), tail(ops_ref)
        if t:
            report["cmd_tail_s"] = (t_ref[1], t[1], f"{t[0]} of {len(ops)} commands")
        report["repro_verify_s"] = (median([p.parts_ref["repro_verify_s"] for p in runs]),
                                    median([p.parts["repro_verify_s"] for p in runs]), n)
    elif workload == "sched_mix":
        report["tasks_per_s"] = (metrics["throughput_per_s"], raw["throughput_per_s"],
                                 f"{n}, N = {passes.SCHED_TASKS}")
        report["state_roundtrip_s"] = (median([p.parts_ref["state_roundtrip_s"] for p in runs]),
                                       median([p.parts["state_roundtrip_s"] for p in runs]), n)
    else:
        for size in passes.CG_SIZES:
            key = f"cg_solve_s.n{size}"
            report[key] = (median([p.parts_ref[key] for p in runs]),
                           median([p.parts[key] for p in runs]), f"{n}, tol 1e-12")
    for name, value in raw.items():
        report[name] = (metrics[name], value, n)
    return metrics, report


def run_workload(env, workload, seed, seconds, out: Outcome) -> dict:
    out.add(*gate.paper_numbers())
    runs = measure(env, workload, seed, seconds, out)
    if not runs:
        return {}
    metrics, report = end_to_end(workload, runs)
    walls = [p.wall_ref for p in runs]
    print(f"# {workload}: {len(runs)} passes, wall_s (reference seconds) min {min(walls):.4f} "
          f"median {median(walls):.4f} max {max(walls):.4f}")
    print(f"  peak_rss_mib = {metrics['peak_rss_mib']:.6g} MiB")
    for name, (ref, raw, note) in report.items():
        unit = "1/s" if name.endswith("per_s") else "s"
        print(f"  {name} = {ref:.6g} {unit} (raw {raw:.6g} {unit}; {note})")
    return metrics


# ---------------------------------------------------------------------------
# the traced run


def stencil_flops(n: int) -> int:
    """Computed: 6u and the 1/h^2 scaling per cell, one subtraction per neighbour."""
    return 2 * n**3 + 6 * n * n * (n - 1)


def cg_bytes(n: int) -> int:
    """Computed operand bytes per CG iteration of the reference kernel, no reuse.

    stencil 22 arrays (6u: 2, six shifted updates: 18, scaling: 2), three dots
    6, two axpy-style updates 10, z = r copy 2, search direction update 5.
    """
    return 45 * n**3 * 8


def layer_metrics(workload, p: passes.PassResult) -> dict[str, float]:
    tr = p.tracer
    inc, c = tr.inclusive_times(), tr.counts
    if workload == "cli_walkthrough":
        return {
            "cli.inproc_command_s": tr.inclusive_times(root_only=True)["cli.command"],
            "cli.repro_pack_s": inc["cli.repro_pack"],
            "cli.repro_replay_s": tr.nested_under("cli.command", "cli.repro_verify"),
            "config.parse_calls": c["config.parse_calls"],
            "config.parse_s": inc["config.parse"],
            "config.serialize_s": inc["config.serialize"],
            "billing.export_s": inc["billing.export_tsv"],
            "storage.ingress_s": inc["storage.ingress"],
            "storage.download_s": inc["storage.download_batch"],
        }
    if workload == "sched_mix":
        return {
            "state.load_s": inc["state.load"], "state.rehydrate_s": inc["state.rehydrate"],
            "state.to_doc_s": inc["state.to_doc"], "state.save_s": inc["state.save"],
            "state.json_bytes": c["state.json_bytes"],
            "fabric.events_dispatched": c["fabric.events_dispatched"],
            "fabric.dispatch_self_s": tr.self_times()["fabric.step"],
            "fabric.log_records": p.layer["fabric.log_records"],
            "batch.schedule_passes": c["batch.schedule_passes"],
            "batch.schedule_s": inc["batch.schedule_step"],
            "batch.tasks_started": c["workloads.execute_calls"],
            "batch.pass_useful_ratio": c["batch.useful_passes"] / c["batch.schedule_passes"],
            "batch.submit_s": inc["batch.jobs_add"],
            "batch.task_wait_sim_p50_s": p.layer["batch.task_wait_sim_p50_s"],
            "billing.meter_calls": c["billing.meter_calls"], "billing.meter_s": inc["billing.meter"],
            "storage.write_entry_calls": c["storage.write_entry_calls"],
            "storage.write_entry_s": inc["storage.write_entry"],
            "storage.share_entries": p.layer["storage.share_entries"],
        }
    out = {"workloads.execute_calls": c["workloads.execute_calls"],
           "workloads.execute_s": inc["workloads.execute"]}
    for n in passes.CG_SIZES:
        stencil = inc[f"workloads.apply_poisson.n{n}"]
        out |= {
            f"workloads.stencil_calls.n{n}": c[f"workloads.stencil_calls.n{n}"],
            f"workloads.stencil_s.n{n}": stencil,
            f"workloads.cg_rest_s.n{n}": inc[f"workloads.solve_cg.n{n}"] - stencil,
            f"workloads.cg_iterations.n{n}": c[f"workloads.cg_iterations.n{n}"],
            f"workloads.stencil_flops_per_iter.n{n}": stencil_flops(n),
            f"workloads.cg_bytes_per_iter.n{n}": cg_bytes(n),
        }
    return out


def layer_self_times(tr: tracer.Tracer) -> dict[str, float]:
    per_layer: dict[str, float] = {}
    for name, seconds in tr.self_times().items():
        layer = name.split(".")[0]
        per_layer[layer] = per_layer.get(layer, 0.0) + seconds
    return per_layer


def import_probes(env) -> dict[str, float]:
    starts = [passes.time_child(env, ["-c", "pass"])[0] for _ in range(IMPORT_PROBES)]
    splits = [passes.import_split(env) for _ in range(IMPORT_PROBES)]
    out = {"import.python_start_s": median(starts)}
    for name in splits[0]:
        out[name] = median([s[name] for s in splits])
    return out


def trace_cycle(env, seed, references, out: Outcome) -> dict[str, float]:
    metrics = {}
    for workload in WORKLOADS:
        plain = run_pass(env, workload, seed, references[workload])
        traced = run_pass(env, workload, seed, references[workload], traced=True)
        for p in (plain, traced):
            out.add_pass(p)
            check_pass(workload, p, out)
        out.add(1, [] if traced.digests == plain.digests else
                [f"{workload}: traced run changed events.log/ledger.tsv"])
        selfs = layer_self_times(traced.tracer)
        out.add(1, [] if sum(selfs.values()) <= traced.wall_s else
                [f"{workload}: layer self times {sum(selfs.values()):.4f} s exceed "
                 f"traced wall {traced.wall_s:.4f} s"])
        overhead = traced.wall_ref - plain.wall_ref
        print(f"# traced {workload}: wall_s {traced.wall_s:.4f} s raw, {traced.wall_ref:.4f} "
              f"reference (untraced {plain.wall_s:.4f} raw, {plain.wall_ref:.4f} reference; "
              f"overhead {overhead:+.4f} reference s); self time by layer (raw s): "
              + ", ".join(f"{k} {v:.4f}" for k, v in sorted(selfs.items())))
        metrics |= layer_metrics(workload, traced)
        metrics[f"trace.overhead_s.{workload}"] = overhead
    return metrics


def run_trace(env, seed, seconds, out: Outcome) -> dict:
    out.add(*gate.paper_numbers())
    references = {w: check_golden(env, w, seed, out) for w in WORKLOADS}
    if out.problems:
        return {}
    cycles = [import_probes(env)]
    start = tracer.perf_counter()
    cycles[0] |= trace_cycle(env, seed, references, out)
    while tracer.perf_counter() - start < seconds and not out.problems:
        cycles.append(import_probes(env) | trace_cycle(env, seed, references, out))
    metrics = {name: median([c[name] for c in cycles]) for name in PER_LAYER}
    print(f"# per-layer metrics, median of {len(cycles)} traced cycle(s)")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {PER_LAYER[name]}")
    return metrics


# ---------------------------------------------------------------------------
# entry point


def machine() -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), platform.machine())
        caches = {}
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = \
                (index / "size").read_text().strip()
        info["caches_per_core"] = caches
    except OSError:
        info.setdefault("cpu", platform.machine())
    import numpy

    info["numpy"] = numpy.__version__
    info |= source_identity()
    return info


def source_identity() -> dict:
    """The git commit when the checkout has one, and always a digest of src/."""
    out = {}
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        out["git_commit"] = ref
    digest = passes.sha256(b"".join(
        p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes()
        for p in sorted((ROOT / "src").rglob("*.py"))))
    out["src_sha256"] = digest
    return out


def result_line(out: Outcome, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": not out.problems,
        "attempted": max(out.attempted, 1),
        "failed": len(out.problems),
        "metrics": {name: {"value": value, "unit": units[name.split(":")[-1]]}
                    for name, value in metrics.items()},
    })


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    needed = ["src/batchsim/__init__.py", f"{passes.SNAKE_CONFIG}/pool.yaml"]
    missing = [p for p in needed if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a batchsim checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy loads, here and in every child
        os.environ[var] = "1"
    work = ROOT / ".perfbench-work" / str(os.getpid())
    (work / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = str(work / "tmp")
    env = passes.Env(ROOT, work, passes.child_environment(ROOT, work))
    os.environ["BATCHSIM_CONFIGDIR"] = env.child_env["BATCHSIM_CONFIGDIR"]
    sys.path.insert(0, str(ROOT / "src"))
    out = Outcome()
    metrics: dict[str, float] = {}
    units: dict[str, str] = {}
    try:
        import batchsim

        if Path(batchsim.__file__).resolve().parent != ROOT / "src" / "batchsim":
            raise RuntimeError(f"imported batchsim from {batchsim.__file__}, not this checkout")
        print(f"# perfbench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print(f"# machine {json.dumps(machine(), sort_keys=True)}")
        if args.workload == "all":
            for w in WORKLOADS:
                metrics |= {f"{w}:{k}": v for k, v in
                            run_workload(env, w, args.seed, args.seconds, out).items()}
            metrics |= run_trace(env, args.seed, args.seconds, out)
            units = END_TO_END | PER_LAYER
        elif args.trace:
            metrics, units = run_trace(env, args.seed, args.seconds, out), PER_LAYER
        else:
            metrics = run_workload(env, args.workload, args.seed, args.seconds, out)
            units = END_TO_END
    except Exception:  # report the failure as a failed operation, then exit non-zero
        traceback.print_exc()
        out.add(1, ["benchmark raised an exception"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for problem in out.problems:
        print(f"# FAILED: {problem}")
    ratio = len(out.problems) / max(out.attempted, 1)
    print(f"# ops_failed_ratio = {ratio:.6g} ({len(out.problems)} of {out.attempted} "
          f"operations and checks failed)")
    print(result_line(out, metrics, units))
    return 0 if not out.problems else 1


if __name__ == "__main__":
    sys.exit(main())
