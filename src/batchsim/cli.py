"""Command-line surface of the simulator.

One command per process invocation; persistent state lives under
.batchsim/ in the working directory (or the directory given with -C).
Exit codes: 0 success, 2 validation error or failed I/O, 3 simulation error,
64 usage error; a non-zero exit leaves .batchsim/ as it was.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import shutil
import sys
import tarfile
import tempfile
from pathlib import Path

import yaml

from . import billing, scenarios, state as statemod
from .catalog import Catalog, PricingPlan, default_catalog
from .config import ConfigBundle, dump_yaml, load_yaml, parse_config_dir, serialize_config_dir
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


def _number(kind, least=-math.inf):
    """argparse type for finite `kind` values of at least `least` (a usage error, exit 64)."""
    def convert(text):
        value = kind(text)
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {text}")
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
    opt = ServiceOptions()  # the defaults
    init.add_argument("--configdir")
    init.add_argument("--seed", type=int, default=opt.seed)
    init.add_argument("--catalog", help="catalog override document (YAML)")
    init.add_argument("--interconnect", choices=sorted(INTERCONNECTS), default=opt.interconnect)
    init.add_argument("--preemption-rate", type=_number(float, 0), default=opt.preemption_rate,
                      help="low-priority preemptions per node-hour")
    init.add_argument("--image-pull-seconds", type=_number(float, 0), default=opt.image_pull_seconds)
    init.add_argument("--task-retries", type=_number(int, 0), default=opt.task_retries,
                      help="automatic retries after preemption (default 0)")
    init.add_argument("--scarcity", nargs=2, type=_number(float), action="append", default=[],
                      metavar=("START", "END"),
                      help="window of low-priority allocation failure (seconds)")

    storage = top.add_parser("storage").add_subparsers(dest="cmd", required=True)
    account = storage.add_parser("account").add_subparsers(dest="sub", required=True)
    account.add_parser("create", help="create the storage account recorded at init")

    share = top.add_parser("share").add_subparsers(dest="cmd", required=True)
    sc = share.add_parser("create", help="create a fileshare")
    sc.add_argument("--name", required=True)
    sc.add_argument("--quota", required=True, type=_number(int, 0), metavar="GIB")

    quota = top.add_parser("quota").add_subparsers(dest="cmd", required=True)
    qs = quota.add_parser("set", help="set per-region core quotas")
    qs.add_argument("--region", required=True)
    qs.add_argument("--dedicated", required=True, type=_number(int, 0))
    qs.add_argument("--low-priority", type=_number(int, 0), default=None)

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
        # commit appends to events.log before it renames state.json in, and cuts it back
        # if a write fails: drop the lines of a command killed in between
        self.store.truncate_events(size)
        return state

    def load(self):
        """The workspace's state document and the service rehydrated from it."""
        state = self.require_state()
        try:
            doc = state["catalog_doc"]
            catalog = Catalog.from_document(doc) if doc else default_catalog()
            options = ServiceOptions.from_doc(state["options"])
            return state, statemod.service_from_doc(state["service"], options, catalog)
        except (LookupError, TypeError, ValueError, AttributeError) as exc:
            raise ValidationError(f"corrupt state: {type(exc).__name__}: {exc}") from None

    def commit(self, state: dict, svc, recorded_argv: list, bundle: ConfigBundle | None = None,
               manifest: tuple[str, list] | None = None, catalog_doc: dict | None = None):
        """Write a command's results to .batchsim/, all or nothing.

        Renaming state.json in commits them, and every other write comes before it: the
        events.log append, ledger.tsv, the snapshot of a loaded `bundle` (with init's
        `catalog_doc`), which its recorded `--configdir` names, and an ingress `manifest`
        (path, rows). If a write or the rename fails, each is taken back: events.log is
        cut back to its size at the start, ledger.tsv and the manifest get their old bytes
        or are removed if new, and each directory this call created is removed.
        """
        state["service"] = statemod.service_to_doc(svc)
        snapshot = None
        if bundle is not None:
            recorded_argv = [*recorded_argv, "--configdir",
                             statemod.config_snapshot(bundle, catalog_doc)]
            snapshot = self.root / recorded_argv[-1]
        state["transcript"].append(recorded_argv)
        if any(t.terminal for t in svc.all_tasks()):
            state["has_completed_run"] = True
        store, events = self.store, self.store.events_path
        created = [d for d in (store.dir, store.configs_dir, store.ingress_dir) if not d.is_dir()]
        events_size = events.stat().st_size if events.is_file() else None
        manifest_path = self.root / manifest[0] if manifest else None
        kept = {path: path.read_bytes() if path.is_file() else None
                for path in (store.ledger_path, manifest_path) if path is not None}
        try:
            lines = svc.event_log.lines()
            if lines:  # init logs none: it records events_bytes 0 beside a stray events.log
                state["events_bytes"] = store.append_events(lines)
            if snapshot is not None and not snapshot.is_dir():  # stored once per bundle
                # in a temporary dir renamed into place, so a stored snapshot is whole
                tmp = snapshot.with_name(f".{snapshot.name}.tmp")
                created += [tmp, snapshot]
                serialize_config_dir(bundle, tmp)
                if catalog_doc is not None:
                    with open(tmp / "catalog.yaml", "w") as fh:
                        dump_yaml(catalog_doc, fh)
                os.replace(tmp, snapshot)
            if manifest is not None:
                store.write_manifest(manifest_path, manifest[1])
            store.write_ledger(billing.export_tsv(svc.ledger))
            store.save(state)
        except BaseException:
            if events_size is None:
                events.unlink(missing_ok=True)
            else:
                store.truncate_events(events_size)
            for path, data in kept.items():
                if data is None:
                    path.unlink(missing_ok=True)
                else:
                    path.write_bytes(data)
            for path in reversed(created):
                shutil.rmtree(path, ignore_errors=True)
            raise

    # -- config plumbing ----------------------------------------------------

    def resolve_configdir(self, arg) -> Path:
        value = arg or os.environ.get(CONFIGDIR_ENV)
        if not value:
            raise ValidationError(
                f"no configuration directory: pass --configdir or set {CONFIGDIR_ENV}"
            )
        return _relpath(Path(value), self.root)

    def load_bundle(self, configdir_arg, catalog: Catalog) -> ConfigBundle:
        return parse_config_dir(self.resolve_configdir(configdir_arg), catalog)


def _relpath(path: Path, root: Path) -> Path:
    return path if path.is_absolute() else root / path


# ---------------------------------------------------------------------------
# command handlers


def cmd_workspace_init(cli: Cli, args) -> int:
    if any(end <= start for start, end in args.scarcity):
        raise UsageError("--scarcity: END must be greater than START")
    if cli.store.exists():
        raise ValidationError(f"workspace already initialized in {cli.root}")
    catalog, catalog_doc = default_catalog(), None
    if args.catalog:
        try:
            with open(_relpath(Path(args.catalog), cli.resolve_configdir(args.configdir))) as fh:
                catalog_doc = load_yaml(fh)
            json.dumps(catalog_doc, allow_nan=False)  # state.json stores it: no dates, no inf
            catalog = Catalog.from_document(catalog_doc)
        except (OSError, yaml.YAMLError, LookupError, TypeError, ValueError, ArithmeticError,
                AttributeError) as exc:
            raise ValidationError(f"unreadable catalog {args.catalog}: {exc}") from None
    bundle = cli.load_bundle(args.configdir, catalog)
    options = ServiceOptions(seed=args.seed, interconnect=args.interconnect,
                             preemption_rate=args.preemption_rate,
                             image_pull_seconds=args.image_pull_seconds,
                             task_retries=args.task_retries,
                             scarcity_windows=tuple((a, b) for a, b in args.scarcity))
    cli.commit(statemod.new_workspace_state(options, bundle, catalog_doc),
               statemod.build_service(options, catalog),
               options.init_argv(catalog=catalog_doc is not None), bundle, catalog_doc=catalog_doc)
    ws = bundle.workspace
    cli.say(f"workspace initialized: subscription={ws.subscription} "
            f"resource_group={ws.resource_group} region={ws.region} seed={args.seed}")
    return 0


def cmd_storage_account_create(cli: Cli, args) -> int:
    state, svc = cli.load()
    account = state["workspace"]["storage_account"]
    if state["storage_account_created"]:
        raise ValidationError(f"storage account already created: {account}")
    state["storage_account_created"] = True
    svc.event_log.append(svc.clock.now, f"storage/{account}", "created")
    cli.commit(state, svc, ["storage", "account", "create"])
    cli.say(f"storage account created: {account}")
    return 0


def cmd_share_create(cli: Cli, args) -> int:
    state, svc = cli.load()
    if not state["storage_account_created"]:
        raise ValidationError("no storage account: run `batchsim storage account create`")
    svc.storage.share_create(args.name, args.quota)
    svc.event_log.append(svc.clock.now, f"share/{args.name}", f"create:quota={args.quota}GiB")
    cli.commit(state, svc, ["share", "create", "--name", args.name,
                            "--quota", str(args.quota)])
    cli.say(f"share created: {args.name} ({args.quota} GiB)")
    return 0


def cmd_quota_set(cli: Cli, args) -> int:
    state, svc = cli.load()
    svc.quota_set(args.region, args.dedicated, args.low_priority)
    low = svc.quotas[args.region].low_priority_cores
    recorded = ["quota", "set", "--region", args.region, "--dedicated", str(args.dedicated),
                "--low-priority", str(low)]
    cli.commit(state, svc, recorded)
    cli.say(f"quota set: {args.region} dedicated={args.dedicated} low_priority={low}")
    return 0


def cmd_pool_add(cli: Cli, args) -> int:
    state, svc = cli.load()
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
    state, svc = cli.load()
    bundle = None if args.pool else cli.load_bundle(args.configdir, svc.catalog)
    pool_id = args.pool or bundle.pool.pool_id
    svc.pool_del(pool_id)
    recorded = ["pool", "del", "--pool", pool_id] if args.pool else ["pool", "del"]
    cli.commit(state, svc, recorded, bundle)
    cli.say(f"pool deleted: {pool_id}")
    return 0


def _load_manifest(path: Path) -> list[tuple[str, int]]:
    try:
        with open(path) as fh:
            doc = load_yaml(fh)
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
    state, svc = cli.load()
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
    cli.commit(state, svc, ["data", "ingress", "--manifest", manifest_rel], bundle,
               (manifest_rel, manifest))
    cli.say(f"ingress complete: {len(manifest)} files, {total} bytes into "
            + ", ".join(f"{s}/{d}" for s, d in targets))
    return 0


def cmd_data_download(cli: Cli, args) -> int:
    state, svc = cli.load()
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
    state, svc = cli.load()
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
    state, svc = cli.load()
    bundle = None if args.job else cli.load_bundle(args.configdir, svc.catalog)
    job_id = args.job or bundle.jobs.job_id
    svc.jobs_del(job_id)
    recorded = ["jobs", "del", "--job", job_id] if args.job else ["jobs", "del"]
    cli.commit(state, svc, recorded, bundle)
    cli.say(f"job deleted: {job_id}")
    return 0


def cmd_status(cli: Cli, args) -> int:
    _, svc = cli.load()
    doc = svc.status()
    doc["shares"] = [
        {"name": s.name, "quota_gib": s.quota_gib, "used_bytes": s.used_bytes,
         "entries": len(s.entries)}
        for s in svc.storage.shares.values()
    ]
    cli.say(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def cmd_ledger_report(cli: Cli, args) -> int:
    _, svc = cli.load()
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
    config_digests = {p.relative_to(cli.store.configs_dir).as_posix(): sha256_file(p)
                      for p in sorted(cli.store.configs_dir.glob("*/*.yaml"))}
    output_digests = {name: sha256_file(cli.store.dir / name) for name in OUTPUT_ARTIFACTS}
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
        for key in config_digests:
            tar.add(cli.store.configs_dir / key, arcname=f"configs/{key}")
        if cli.store.ingress_dir.is_dir():
            for p in sorted(cli.store.ingress_dir.glob("*.json")):
                tar.add(p, arcname=f"ingress/{p.name}")
        for name in output_digests:
            tar.add(cli.store.dir / name, arcname=f"outputs/{name}")
    cli.say(f"packed {out} ({len(config_digests)} config digests, "
            f"{len(output_digests)} output digests, seed {manifest['seed']})")
    return 0


def _safe_extract(tar: tarfile.TarFile, dest: Path):
    """Write the regular files and directories of `tar` under `dest`. A member of any other
    kind (a link, a device) or one whose path leaves `dest` is CorruptArchive."""
    root = dest.resolve()
    for member in tar.getmembers():
        path = (dest / member.name).resolve()
        if not path.is_relative_to(root):
            raise CorruptArchive(f"archive member escapes extraction root: {member.name}")
        if member.isdir():
            path.mkdir(parents=True, exist_ok=True)
        elif member.isfile():
            path.parent.mkdir(parents=True, exist_ok=True)
            with tar.extractfile(member) as src, open(path, "wb") as dst:
                shutil.copyfileobj(src, dst)
        else:
            raise CorruptArchive(f"archive member is not a file or directory: {member.name}")


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
        if not isinstance(expected, dict) or not expected.keys() >= set(OUTPUT_ARTIFACTS):
            raise CorruptArchive("not a package of a completed run: it must digest "
                                 + " and ".join(OUTPUT_ARTIFACTS))
        workdir = tmpdir / "replay"
        workdir.mkdir()
        for name in ("configs", "ingress"):  # the files that recorded commands name
            if (extracted / name).is_dir():
                shutil.copytree(extracted / name, workdir / STATE_DIR / name)
        try:
            replay(transcript, workdir)
        except (UsageError, ValidationError, SimulationError) as exc:
            cli.say(f"FAIL: replayed command failed: {exc}")
            return 3
        replay_store = WorkspaceStore(workdir)
        for name in OUTPUT_ARTIFACTS:
            path = replay_store.dir / name
            actual = sha256_file(path) if path.exists() else "<missing>"
            if actual != expected[name]:
                cli.say(f"FAIL: first divergence at {name}: expected {expected[name]}, "
                        f"got {actual}")
                return 3
        cli.say(f"PASS: {len(OUTPUT_ARTIFACTS)} artifacts reproduced "
                f"({DIGEST_ALGORITHM}, seed {manifest['seed']})")
    return 0


def replay(transcript, workdir: Path):
    """Run recorded commands in `workdir` and raise the first error; an absolute --dest
    becomes replay-download."""
    for recorded in transcript:
        argv = ["-C", str(workdir), *recorded]
        if "--dest" in argv:
            i = argv.index("--dest")
            if i + 1 < len(argv) and os.path.isabs(argv[i + 1]):
                argv[i + 1] = "replay-download"
        run_command(argv, io.StringIO(), raising=True)


# ---------------------------------------------------------------------------
# dispatch


# `storage account create` runs cmd_storage_account_create, and so on
_HANDLERS = {(*name[4:].split("_"), None, None)[:3]: handler
             for name, handler in list(globals().items()) if name.startswith("cmd_")}


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
    except (UsageError, ValidationError, SimulationError,
            OSError) as exc:  # OSError: failed I/O, which commits nothing
        if raising:
            raise
        code, label = ((64, "usage error") if isinstance(exc, UsageError)
                       else (3, "simulation error") if isinstance(exc, SimulationError)
                       else (2, "error"))
        print(f"{label}: {exc}", file=err)
        return code


def main(argv=None) -> int:
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
