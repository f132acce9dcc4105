"""Command-line surface of the simulator.

One command per process invocation; persistent state lives under
.batchsim/ in the working directory (or the directory given with -C).
Exit codes: 0 success, 2 validation error (state unchanged), 3 simulation
error, 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import shutil
import sys
import tarfile
import tempfile
from pathlib import Path

import yaml

from . import billing, scenarios, state as statemod
from .catalog import Catalog, PricingPlan, default_catalog
from .config import ConfigBundle, parse_config_dir, serialize_config_dir
from .errors import (
    CorruptArchive,
    NoCompletedRun,
    SimulationError,
    ValidationError,
)
from .fabric import INTERCONNECTS
from .state import STATE_DIR, ServiceOptions, WorkspaceStore, sha256_file

CONFIGDIR_ENV = "BATCHSIM_CONFIGDIR"
DIGEST_ALGORITHM = "sha256"
OUTPUT_ARTIFACTS = ("events.log", "ledger.tsv")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _non_negative(kind):
    """argparse type for `kind` values that must be >= 0 (a usage error, exit 64)."""
    def convert(text):
        value = kind(text)
        if not value >= 0:
            raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
        return value

    convert.__name__ = kind.__name__  # argparse names the type in "invalid ... value"
    return convert


@functools.cache  # a replay parses many commands with one parser
def build_parser() -> _Parser:
    parser = _Parser(prog="batchsim", description=__doc__)
    parser.add_argument("-C", dest="root", default=".", metavar="DIR",
                        help="workspace directory (default: current directory)")
    top = parser.add_subparsers(dest="group", required=True)

    ws = top.add_parser("workspace").add_subparsers(dest="cmd", required=True)
    init = ws.add_parser("init", help="create a workspace from a config directory")
    init.add_argument("--configdir")
    init.add_argument("--seed", type=int, default=0)
    init.add_argument("--catalog", help="catalog override document (YAML)")
    init.add_argument("--interconnect", choices=sorted(INTERCONNECTS), default="azure")
    init.add_argument("--preemption-rate", type=_non_negative(float), default=0.05,
                      help="low-priority preemptions per node-hour")
    init.add_argument("--image-pull-seconds", type=_non_negative(float), default=120.0)
    init.add_argument("--task-retries", type=_non_negative(int), default=0,
                      help="automatic retries after preemption (default 0)")
    init.add_argument("--scarcity", nargs=2, type=float, action="append", default=[],
                      metavar=("START", "END"),
                      help="window of low-priority allocation failure (seconds)")

    storage = top.add_parser("storage").add_subparsers(dest="cmd", required=True)
    account = storage.add_parser("account").add_subparsers(dest="sub", required=True)
    account.add_parser("create", help="create the storage account recorded at init")

    share = top.add_parser("share").add_subparsers(dest="cmd", required=True)
    sc = share.add_parser("create", help="create a fileshare")
    sc.add_argument("--name", required=True)
    sc.add_argument("--quota", required=True, type=_non_negative(int), metavar="GIB")

    quota = top.add_parser("quota").add_subparsers(dest="cmd", required=True)
    qs = quota.add_parser("set", help="set per-region core quotas")
    qs.add_argument("--region", required=True)
    qs.add_argument("--dedicated", required=True, type=_non_negative(int))
    qs.add_argument("--low-priority", type=_non_negative(int), default=None)

    pool = top.add_parser("pool").add_subparsers(dest="cmd", required=True)
    pa = pool.add_parser("add", help="create the pool defined in pool.yaml")
    pa.add_argument("--configdir")
    pa.add_argument("--plan", choices=[p.value for p in PricingPlan],
                    default=PricingPlan.PAYGO_DEDICATED.value)
    pd = pool.add_parser("del", help="delete a pool")
    pd.add_argument("--configdir")
    pd.add_argument("--pool", help="explicit pool id (default: pool.yaml)")

    data = top.add_parser("data").add_subparsers(dest="cmd", required=True)
    di = data.add_parser("ingress", help="upload task input files to the share")
    di.add_argument("--configdir")
    group = di.add_mutually_exclusive_group(required=True)
    group.add_argument("--source", help="local directory to upload")
    group.add_argument("--manifest", help="size manifest (JSON or YAML)")
    dd = data.add_parser("download", help="download a share directory")
    dd.add_argument("--source", required=True, metavar="SHARE/DIR")
    dd.add_argument("--dest", required=True)

    jobs = top.add_parser("jobs").add_subparsers(dest="cmd", required=True)
    ja = jobs.add_parser("add", help="submit the job defined in jobs.yaml and run it")
    ja.add_argument("--configdir")
    jd = jobs.add_parser("del", help="delete a job")
    jd.add_argument("--configdir")
    jd.add_argument("--job", help="explicit job id (default: jobs.yaml)")

    top.add_parser("status", help="print service state as JSON")

    ledger = top.add_parser("ledger").add_subparsers(dest="cmd", required=True)
    lr = ledger.add_parser("report", help="cost by service category")
    lr.add_argument("--export", help="write the full ledger as TSV")

    scen = top.add_parser("scenario").add_subparsers(dest="cmd", required=True)
    scen.add_parser("list", help="list built-in scenarios")
    sr = scen.add_parser("run", help="run a built-in scenario end to end")
    sr.add_argument("name")
    sr.add_argument("--seed", type=int, default=0)

    repro = top.add_parser("repro").add_subparsers(dest="cmd", required=True)
    rp = repro.add_parser("pack", help="pack configs, seed, transcript, output digests")
    rp.add_argument("--out", default=None)
    rv = repro.add_parser("verify", help="re-run a package and compare digests")
    rv.add_argument("archive")

    return parser


# ---------------------------------------------------------------------------
# shared helpers


class Cli:
    def __init__(self, root: Path, out):
        self.root = root
        self.store = WorkspaceStore(root)
        self.out = out

    def say(self, text: str):
        print(text, file=self.out)

    # -- state plumbing ---------------------------------------------------

    def require_state(self) -> dict:
        if not self.store.exists():
            raise ValidationError(
                f"no workspace in {self.root}: run `batchsim workspace init` first"
            )
        try:
            state = self.store.load()
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValidationError(f"corrupt state: {exc}") from None
        if not isinstance(state, dict):
            raise ValidationError("corrupt state: not a workspace state document")
        version = state.get("version")
        if version != statemod.STATE_VERSION:
            raise ValidationError(f"corrupt state: unsupported state version {version}")
        size = state.get("events_bytes")
        if not statemod.STATE_KEYS <= state.keys() or type(size) is not int or size < 0:
            raise ValidationError("corrupt state: not a workspace state document")
        # commit appends to events.log before it renames state.json in: drop
        # the lines of a command that failed in between
        self.store.truncate_events(size)
        return state

    def catalog_from_state(self, state: dict) -> Catalog:
        doc = state.get("catalog_doc")
        return Catalog.from_document(doc) if doc else default_catalog()

    def service_from_state(self, state: dict):
        try:
            options = ServiceOptions.from_doc(state["options"])
            return statemod.service_from_doc(state["service"], options,
                                             self.catalog_from_state(state))
        except (LookupError, TypeError, ValueError, AttributeError) as exc:
            raise ValidationError(f"corrupt state: {type(exc).__name__}: {exc}") from None

    def commit(self, state: dict, svc, recorded_argv=None, bundle: ConfigBundle | None = None):
        """Write a command's results and configs to .batchsim/. Renaming state.json in commits
        them; only the events.log append, which the next command cuts back, comes before it."""
        state["service"] = statemod.service_to_doc(svc)
        if recorded_argv is not None:
            state["transcript"].append(list(recorded_argv))
        if any(t.terminal for t in svc.all_tasks()):
            state["has_completed_run"] = True
        state["events_bytes"] = self.store.append_events(svc.event_log.lines())
        self.store.save(state)
        self.store.write_ledger(billing.export_tsv(svc.ledger))
        if bundle is not None:
            serialize_config_dir(bundle, self.store.configs_dir)

    # -- config plumbing ----------------------------------------------------

    def resolve_configdir(self, arg) -> Path:
        value = arg or os.environ.get(CONFIGDIR_ENV)
        if not value:
            raise ValidationError(
                f"no configuration directory: pass --configdir or set {CONFIGDIR_ENV}"
            )
        path = Path(value)
        return path if path.is_absolute() else self.root / path

    def load_bundle(self, configdir_arg, catalog: Catalog) -> ConfigBundle:
        return parse_config_dir(self.resolve_configdir(configdir_arg), catalog)


def _relpath(path: Path, root: Path) -> Path:
    return path if path.is_absolute() else root / path


# ---------------------------------------------------------------------------
# command handlers


def cmd_workspace_init(cli: Cli, args) -> int:
    if cli.store.exists():
        raise ValidationError(f"workspace already initialized in {cli.root}")
    catalog, catalog_doc = default_catalog(), None
    recorded = ["workspace", "init", "--seed", str(args.seed)]
    if args.catalog:
        try:
            with open(_relpath(Path(args.catalog), cli.resolve_configdir(args.configdir))) as fh:
                catalog_doc = yaml.safe_load(fh)
            catalog = Catalog.from_document(catalog_doc)
        except (OSError, yaml.YAMLError, LookupError, TypeError, ValueError, ArithmeticError,
                AttributeError) as exc:
            raise ValidationError(f"unreadable catalog {args.catalog}: {exc}") from None
        recorded += ["--catalog", "catalog.yaml"]
    bundle = parse_config_dir(cli.resolve_configdir(args.configdir), catalog)
    options = ServiceOptions(
        seed=args.seed,
        interconnect=args.interconnect,
        preemption_rate=args.preemption_rate,
        image_pull_seconds=args.image_pull_seconds,
        task_retries=args.task_retries,
        scarcity_windows=tuple((a, b) for a, b in args.scarcity),
    )
    for flag, value, default in (
        ("--interconnect", args.interconnect, "azure"),
        ("--preemption-rate", args.preemption_rate, 0.05),
        ("--image-pull-seconds", args.image_pull_seconds, 120.0),
        ("--task-retries", args.task_retries, 0),
    ):
        if value != default:
            recorded += [flag, str(value)]
    for a, b in args.scarcity:
        recorded += ["--scarcity", str(a), str(b)]
    svc = statemod.build_service(options, catalog)
    serialize_config_dir(bundle, cli.store.configs_dir)
    if catalog_doc:
        with open(cli.store.configs_dir / "catalog.yaml", "w") as fh:
            yaml.safe_dump(catalog_doc, fh, sort_keys=False)
    state = statemod.new_workspace_state(options, bundle, catalog_doc)
    state["service"] = statemod.service_to_doc(svc)
    state["transcript"].append(recorded)
    cli.store.save(state)
    ws = bundle.workspace
    cli.say(f"workspace initialized: subscription={ws.subscription} "
            f"resource_group={ws.resource_group} region={ws.region} seed={args.seed}")
    return 0


def cmd_storage_account_create(cli: Cli, args) -> int:
    state = cli.require_state()
    svc = cli.service_from_state(state)
    account = state["workspace"]["storage_account"]
    if state["storage_account_created"]:
        raise ValidationError(f"storage account already created: {account}")
    state["storage_account_created"] = True
    svc.event_log.append(svc.clock.now, f"storage/{account}", "created")
    cli.commit(state, svc, ["storage", "account", "create"])
    cli.say(f"storage account created: {account}")
    return 0


def cmd_share_create(cli: Cli, args) -> int:
    state = cli.require_state()
    if not state["storage_account_created"]:
        raise ValidationError("no storage account: run `batchsim storage account create`")
    svc = cli.service_from_state(state)
    svc.storage.share_create(args.name, args.quota)
    svc.event_log.append(svc.clock.now, f"share/{args.name}", f"create:quota={args.quota}GiB")
    cli.commit(state, svc, ["share", "create", "--name", args.name,
                            "--quota", str(args.quota)])
    cli.say(f"share created: {args.name} ({args.quota} GiB)")
    return 0


def cmd_quota_set(cli: Cli, args) -> int:
    state = cli.require_state()
    svc = cli.service_from_state(state)
    svc.quota_set(args.region, args.dedicated, args.low_priority)
    low = svc.quotas[args.region].low_priority_cores
    recorded = ["quota", "set", "--region", args.region, "--dedicated", str(args.dedicated),
                "--low-priority", str(low)]
    cli.commit(state, svc, recorded)
    cli.say(f"quota set: {args.region} dedicated={args.dedicated} low_priority={low}")
    return 0


def cmd_pool_add(cli: Cli, args) -> int:
    state = cli.require_state()
    svc = cli.service_from_state(state)
    bundle = cli.load_bundle(args.configdir, svc.catalog)
    plan = PricingPlan(args.plan)
    pool = svc.pool_add(bundle.pool, plan)
    svc.advance_until_pool_settled(pool.pool_id)
    recorded = ["pool", "add"]
    if args.plan != PricingPlan.PAYGO_DEDICATED.value:
        recorded += ["--plan", args.plan]
    cli.commit(state, svc, recorded, bundle)
    for warning in pool.warnings:
        cli.say(f"warning: {warning.rule}: {warning.message}")
    cli.say(f"pool {pool.pool_id}: {pool.state.value} "
            f"({bundle.pool.dedicated_count} dedicated, "
            f"{bundle.pool.low_priority_count} low-priority {bundle.pool.sku})")
    return 0


def cmd_pool_del(cli: Cli, args) -> int:
    state = cli.require_state()
    svc = cli.service_from_state(state)
    bundle = None
    if args.pool:
        pool_id = args.pool
        recorded = ["pool", "del", "--pool", pool_id]
    else:
        bundle = cli.load_bundle(args.configdir, svc.catalog)
        pool_id = bundle.pool.pool_id
        recorded = ["pool", "del"]
    svc.pool_del(pool_id)
    cli.commit(state, svc, recorded, bundle)
    cli.say(f"pool deleted: {pool_id}")
    return 0


def _load_manifest(path: Path) -> list[tuple[str, int]]:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
        manifest = []
        for item in doc["entries"] if isinstance(doc, dict) else doc:
            path_, size = (item["path"], item["bytes"]) if isinstance(item, dict) else item
            if int(size) < 0:
                raise ValueError(f"negative size for {path_}")
            manifest.append((str(path_), int(size)))
    except (OSError, yaml.YAMLError, LookupError, TypeError, ValueError) as exc:
        raise ValidationError(f"unreadable manifest {path}: {exc}") from None
    return manifest


def _scan_source(source: Path) -> list[tuple[str, int]]:
    if not source.is_dir():
        raise ValidationError(f"ingress source is not a directory: {source}")
    rows = []
    for file in sorted(p for p in source.rglob("*") if p.is_file()):
        rows.append((file.relative_to(source).as_posix(), file.stat().st_size))
    return rows


def cmd_data_ingress(cli: Cli, args) -> int:
    state = cli.require_state()
    svc = cli.service_from_state(state)
    bundle = cli.load_bundle(args.configdir, svc.catalog)
    if args.source:
        manifest = _scan_source(_relpath(Path(args.source), cli.root))
    else:
        manifest = _load_manifest(_relpath(Path(args.manifest), cli.root))
    targets = []
    for task in bundle.jobs.tasks:
        share, _, directory = task.input_dir.partition("/")
        if not directory:
            raise ValidationError(
                f"task {task.task_id!r} input_dir must look like <share>/<directory>"
            )
        if (share, directory) not in targets:
            targets.append((share, directory))
    total = 0
    for share, directory in targets:
        record = svc.data_ingress(share, directory, manifest)
        if record is not None:
            total += record.bytes
    seq = state["ingress_seq"] + 1
    state["ingress_seq"] = seq
    manifest_rel = f"{STATE_DIR}/ingress/{seq:04d}.json"
    cli.commit(state, svc, ["data", "ingress", "--manifest", manifest_rel], bundle)
    cli.store.ingress_dir.mkdir(exist_ok=True)
    with open(cli.root / manifest_rel, "w") as fh:
        json.dump({"entries": [list(row) for row in manifest]}, fh, indent=1)
        fh.write("\n")
    cli.say(f"ingress complete: {len(manifest)} files, {total} bytes into "
            + ", ".join(f"{s}/{d}" for s, d in targets))
    return 0


def cmd_data_download(cli: Cli, args) -> int:
    state = cli.require_state()
    svc = cli.service_from_state(state)
    share, _, directory = args.source.partition("/")
    if not directory:
        raise ValidationError("--source must look like <share>/<directory>")
    dest = _relpath(Path(args.dest), cli.root)
    try:
        record = svc.data_download(share, directory, dest)
    except OSError as exc:
        raise ValidationError(f"cannot write to --dest {args.dest}: {exc}") from None
    count = len(svc.storage.entries_under(share, directory)) if record is not None else 0
    cli.commit(state, svc, ["data", "download", "--source", args.source,
                            "--dest", args.dest])
    cli.say(f"downloaded {count} files "
            f"({record.bytes if record else 0} bytes) to {dest}")
    return 0


def cmd_jobs_add(cli: Cli, args) -> int:
    state = cli.require_state()
    svc = cli.service_from_state(state)
    bundle = cli.load_bundle(args.configdir, svc.catalog)
    job = svc.jobs_add(bundle.jobs)
    svc.advance_until_job_terminal(job.job_id)
    cli.commit(state, svc, ["jobs", "add"], bundle)
    for task in job.tasks:
        suffix = f" ({task.failure_reason.value})" if task.failure_reason else ""
        cli.say(f"task {task.spec.task_id}: {task.state.value}{suffix}")
    cli.say(f"job {job.job_id}: {job.state.value}")
    return 0


def cmd_jobs_del(cli: Cli, args) -> int:
    state = cli.require_state()
    svc = cli.service_from_state(state)
    bundle = None
    if args.job:
        job_id = args.job
        recorded = ["jobs", "del", "--job", job_id]
    else:
        bundle = cli.load_bundle(args.configdir, svc.catalog)
        job_id = bundle.jobs.job_id
        recorded = ["jobs", "del"]
    svc.jobs_del(job_id)
    cli.commit(state, svc, recorded, bundle)
    cli.say(f"job deleted: {job_id}")
    return 0


def cmd_status(cli: Cli, args) -> int:
    state = cli.require_state()
    svc = cli.service_from_state(state)
    doc = svc.status()
    doc["shares"] = [
        {"name": s.name, "quota_gib": s.quota_gib, "used_bytes": s.used_bytes,
         "entries": len(s.entries)}
        for s in svc.storage.shares.values()
    ]
    cli.say(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def cmd_ledger_report(cli: Cli, args) -> int:
    state = cli.require_state()
    svc = cli.service_from_state(state)
    rows = billing.report(svc.ledger)
    cli.say(billing.render_report(rows).rstrip("\n"))
    total = svc.ledger.total()
    cli.say(f"total\t{billing.usd_str(total, 2)}")
    if args.export:
        out = _relpath(Path(args.export), cli.root)
        try:
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(billing.export_tsv(svc.ledger))
        except OSError as exc:
            raise ValidationError(f"cannot write to --export {args.export}: {exc}") from None
        cli.say(f"ledger exported to {out}")
    return 0


def cmd_scenario_list(cli: Cli, args) -> int:
    for sc in scenarios.builtin_scenarios():
        cli.say(f"{sc.name}\t{sc.pool.dedicated_count} x {sc.pool.sku}\t"
                f"{sc.expected_wall_hours} h\t{PricingPlan.PAYGO_DEDICATED.value}")
    return 0


def cmd_scenario_run(cli: Cli, args) -> int:
    try:
        scenario = scenarios.scenario_by_name(args.name)
    except KeyError as exc:
        raise ValidationError(str(exc)) from None
    run = scenarios.run_scenario(scenario, args.seed, root=cli.root)
    for task_id, task_state in run.task_states().items():
        cli.say(f"task {task_id}: {task_state}")
    cli.say(f"vm cost: {billing.usd_str(run.vm_cost, 4)} USD")
    cli.say(f"total cost: {billing.usd_str(run.total_cost, 4)} USD")
    cli.say(f"event log: {cli.store.events_path}")
    return 0


# ---------------------------------------------------------------------------
# reproducibility packages


def cmd_repro_pack(cli: Cli, args) -> int:
    state = cli.require_state()
    if not state.get("has_completed_run"):
        raise NoCompletedRun("no completed run to pack: run a job or scenario first")
    out = _relpath(Path(args.out or "repro-package.tar.gz"), cli.root)
    config_digests = {
        p.name: sha256_file(p) for p in sorted(cli.store.configs_dir.glob("*.yaml"))
    }
    output_digests = {}
    for name in OUTPUT_ARTIFACTS:
        path = cli.store.dir / name
        if path.exists():
            output_digests[name] = sha256_file(path)
    manifest = {
        "digest_algorithm": DIGEST_ALGORITHM,
        "seed": state["options"]["seed"],
        "transcript": state["transcript"],
        "config_digests": config_digests,
        "output_digests": output_digests,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    with tarfile.open(out, "w:gz") as tar:
        info = tarfile.TarInfo("manifest.json")
        payload = json.dumps(manifest, indent=1, sort_keys=True).encode() + b"\n"
        info.size = len(payload)
        tar.addfile(info, io.BytesIO(payload))
        for p in sorted(cli.store.configs_dir.glob("*.yaml")):
            tar.add(p, arcname=f"configs/{p.name}")
        if cli.store.ingress_dir.is_dir():
            for p in sorted(cli.store.ingress_dir.glob("*.json")):
                tar.add(p, arcname=f"ingress/{p.name}")
        for name in output_digests:
            tar.add(cli.store.dir / name, arcname=f"outputs/{name}")
    cli.say(f"packed {out} ({len(config_digests)} config digests, "
            f"{len(output_digests)} output digests, seed {manifest['seed']})")
    return 0


def _safe_extract(tar: tarfile.TarFile, dest: Path):
    root = dest.resolve()
    for member in tar.getmembers():
        if not (dest / member.name).resolve().is_relative_to(root):
            raise CorruptArchive(f"archive member escapes extraction root: {member.name}")
    try:
        tar.extractall(dest, filter="data")
    except TypeError:  # Python without the filter argument
        tar.extractall(dest)


def cmd_repro_verify(cli: Cli, args) -> int:
    archive = _relpath(Path(args.archive), cli.root)
    if not archive.is_file():
        raise CorruptArchive(f"no such archive: {archive}")
    with tempfile.TemporaryDirectory(prefix="batchsim-verify-") as tmp:
        tmpdir = Path(tmp)
        extracted = tmpdir / "archive"
        extracted.mkdir()
        try:
            with tarfile.open(archive, "r:gz") as tar:
                _safe_extract(tar, extracted)
            with open(extracted / "manifest.json") as fh:
                manifest = json.load(fh)
            transcript = manifest["transcript"]
            expected = manifest["output_digests"]
        except (tarfile.TarError, OSError, json.JSONDecodeError, KeyError, EOFError) as exc:
            raise CorruptArchive(f"not a readable package: {exc}") from None
        workdir = tmpdir / "replay"
        workdir.mkdir()
        ingress_src = extracted / "ingress"
        if ingress_src.is_dir():
            shutil.copytree(ingress_src, workdir / STATE_DIR / "ingress")
        try:
            replay(transcript, workdir, extracted / "configs")
        except (UsageError, ValidationError, SimulationError) as exc:
            cli.say(f"FAIL: replayed command failed: {exc}")
            return 3
        replay_store = WorkspaceStore(workdir)
        for name in OUTPUT_ARTIFACTS:
            if name not in expected:
                continue
            path = replay_store.dir / name
            actual = sha256_file(path) if path.exists() else "<missing>"
            if actual != expected[name]:
                cli.say(f"FAIL: first divergence at {name}: expected {expected[name]}, "
                        f"got {actual}")
                return 3
        cli.say(f"PASS: {len(expected)} artifacts reproduced "
                f"({DIGEST_ALGORITHM}, seed {manifest['seed']})")
    return 0


def replay(transcript, workdir: Path, configdir: Path):
    """Run recorded commands in `workdir` with configs from `configdir`; raise the first error."""
    for argv in transcript:
        run_command(_rewrite_for_replay(list(argv), workdir, configdir), io.StringIO(),
                    raising=True)


_CONFIGDIR_COMMANDS = {("workspace", "init"), ("pool", "add"), ("pool", "del"),
                       ("data", "ingress"), ("jobs", "add"), ("jobs", "del")}


def _rewrite_for_replay(argv: list[str], workdir: Path, configdir: Path) -> list[str]:
    out = ["-C", str(workdir)] + argv
    if tuple(argv[:2]) in _CONFIGDIR_COMMANDS:
        out += ["--configdir", str(configdir)]
    if "--dest" in out:
        i = out.index("--dest")
        if i + 1 < len(out) and os.path.isabs(out[i + 1]):
            out[i + 1] = "replay-download"
    return out


# ---------------------------------------------------------------------------
# dispatch


_HANDLERS = {
    ("workspace", "init", None): cmd_workspace_init,
    ("storage", "account", "create"): cmd_storage_account_create,
    ("share", "create", None): cmd_share_create,
    ("quota", "set", None): cmd_quota_set,
    ("pool", "add", None): cmd_pool_add,
    ("pool", "del", None): cmd_pool_del,
    ("data", "ingress", None): cmd_data_ingress,
    ("data", "download", None): cmd_data_download,
    ("jobs", "add", None): cmd_jobs_add,
    ("jobs", "del", None): cmd_jobs_del,
    ("status", None, None): cmd_status,
    ("ledger", "report", None): cmd_ledger_report,
    ("scenario", "list", None): cmd_scenario_list,
    ("scenario", "run", None): cmd_scenario_run,
    ("repro", "pack", None): cmd_repro_pack,
    ("repro", "verify", None): cmd_repro_verify,
}


def execute(argv, out) -> int:
    """Run one command; raises UsageError, ValidationError or SimulationError."""
    args = build_parser().parse_args(argv)
    handler = _HANDLERS[(args.group, getattr(args, "cmd", None), getattr(args, "sub", None))]
    return handler(Cli(Path(args.root), out), args)


def run_command(argv, out=None, err=None, *, raising=False) -> int:
    """Execute one CLI command; returns its exit code, or with `raising` lets the error out."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        return execute(argv, out)
    except SystemExit as exc:  # --help
        if raising:
            raise UsageError(f"command exited without running: {' '.join(argv)}") from None
        return int(exc.code or 0)
    except (UsageError, ValidationError, SimulationError) as exc:
        if raising:
            raise
        code, label = ((64, "usage error") if isinstance(exc, UsageError)
                       else (2, "error") if isinstance(exc, ValidationError)
                       else (3, "simulation error"))
        print(f"{label}: {exc}", file=err)
        return code


def main(argv=None) -> int:
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
