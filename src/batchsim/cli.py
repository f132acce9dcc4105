"""Command-line surface of the simulator.

One command per process invocation; persistent state lives under
.batchsim/ in the working directory (or the directory given with -C).
Exit codes: 0 success, 2 validation error or failed I/O, 3 simulation error,
64 usage error; a non-zero exit leaves .batchsim/ as it was: each load, and a failed
commit after it, make .batchsim/ what the committed state.json names.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import json
import math
import os
import re
import shutil
import sys
import tarfile
import tempfile
from pathlib import Path

import yaml

from . import billing, scenarios, state as statemod
from .catalog import Catalog, PricingPlan, default_catalog
from .config import (COUNT, TEXT, ConfigBundle, CredentialsConfig, Kind, _read, at_key,
                     bundle_documents, dump_yaml, load_yaml, of_owner, parse_config_dir,
                     serialize_config_dir)
from .errors import SimulationError, ValidationError
from .fabric import INTERCONNECTS
from .state import STATE_DIR, ServiceOptions, WorkspaceStore, sha256_text

CONFIGDIR_ENV = "BATCHSIM_CONFIGDIR"
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
    pool.add_parser("del", help="delete a pool").add_argument("--configdir")

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
    jobs.add_parser("del", help="delete a job").add_argument("--configdir")

    top.add_parser("status", help="print service state as JSON")

    ledger = top.add_parser("ledger").add_subparsers(dest="cmd", required=True)
    ledger.add_parser("report", help="cost by service category")

    scen = top.add_parser("scenario").add_subparsers(dest="cmd", required=True)
    scen.add_parser("list", help="list built-in scenarios")
    sr = scen.add_parser("run", help="run a built-in scenario end to end")
    sr.add_argument("name")
    sr.add_argument("--seed", type=int, default=0)

    repro = top.add_parser("repro").add_subparsers(dest="cmd", required=True)
    rp = repro.add_parser("pack", help="pack configs, transcript and outputs")
    rp.add_argument("--out", default=None)
    rv = repro.add_parser("verify", help="re-run a package and compare its outputs")
    rv.add_argument("archive")

    return parser


# ---------------------------------------------------------------------------
# shared helpers


class Cli:
    def __init__(self, root: Path, out):
        self.root = root
        self.store = WorkspaceStore(root)
        self.out = out
        self.kept = None  # what load kept: the arguments of store.restore

    def say(self, text: str):
        print(text, file=self.out)

    # -- state plumbing ---------------------------------------------------

    def load(self):
        """The committed workspace: its state document and the service rehydrated from it.
        Once every record is checked, `store.restore` makes .batchsim/ what the state names:
        whatever a command killed before its state.json rename wrote is taken back."""
        if not self.store.state_path.is_file():
            raise ValidationError(
                f"no workspace in {self.root}: run `batchsim workspace init` first"
            )
        try:
            doc = self.store.load()
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValidationError(f"corrupt state: {exc}") from None
        state, svc = statemod.read_state(doc)
        self.kept = (state["events_bytes"], billing.export_tsv(svc.ledger), [*state["transcript"]])
        self.store.restore(*self.kept)  # the last check, then the repairs
        return state, svc

    def commit(self, state: dict, svc, args, bundle: ConfigBundle | None = None,
               manifest: list | None = None, catalog_doc: dict | None = None):
        """Write a command's results to .batchsim/, all or nothing, and its `args` to the
        transcript as `recorded_argv` writes them; an entry that a replay rejects is a
        ValidationError before any write. Renaming state.json in commits them, and every
        other write comes before it: the events.log append, ledger.tsv, the snapshot of a
        loaded `bundle` (its keys as sha256 digests, with init's `catalog_doc`), which
        `args.configdir` names, and an ingress `manifest`'s rows at `args.manifest`. If a
        write or the rename fails, a loaded command's .batchsim/ is restored to what `load`
        kept; `workspace init`, which loads nothing, takes back only its own writes: ledger.tsv
        gets its old bytes or is removed if new, and each directory it created is removed.
        """
        state["service"] = statemod.service_to_doc(svc)
        snapshot = args.configdir = None
        if bundle is not None:  # named by the first 12 hex digits of its documents' sha256
            keys = bundle.credentials
            bundle = dataclasses.replace(bundle, credentials=CredentialsConfig(
                _key_digest(keys.storage_key), _key_digest(keys.batch_key)))
            documents = {**bundle_documents(bundle), "catalog.yaml": catalog_doc}
            name = sha256_text(json.dumps(documents, sort_keys=True))[:12]
            args.configdir = f"{STATE_DIR}/configs/{name}"
            snapshot = self.root / args.configdir
        entry = recorded_argv(vars(args))
        recorded_command(entry)  # a replay runs every entry that a commit writes
        state["transcript"].append(entry)
        store, init = self.store, self.kept is None
        created = [d for d in (store.dir, store.configs_dir) if init and not d.is_dir()]
        ledger = store.ledger_path.read_bytes() if init and store.ledger_path.is_file() else None
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
                store.write_manifest(self.root / args.manifest, manifest)
            store.write_ledger(billing.export_tsv(svc.ledger))
            store.save(state)
        except BaseException:
            if not init:
                store.restore(*self.kept)
                raise
            if ledger is None:  # init logs no line, so a stray events.log stays as it was
                store.ledger_path.unlink(missing_ok=True)
            else:
                store.ledger_path.write_bytes(ledger)
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


def _key_digest(key: str) -> str:
    """A credential as a snapshot keeps it: `sha256:<hex>`, which a snapshot's key already is."""
    return key if re.fullmatch(r"sha256:[0-9a-f]{64}", key) else f"sha256:{sha256_text(key)}"


# ---------------------------------------------------------------------------
# command handlers


def cmd_workspace_init(cli: Cli, args) -> int:
    if any(end <= start for start, end in args.scarcity):
        raise UsageError("--scarcity: END must be greater than START")
    if cli.store.state_path.is_file():
        raise ValidationError(f"workspace already initialized in {cli.root}")
    catalog, catalog_doc = default_catalog(), None
    if args.catalog:
        try:
            with open(_relpath(Path(args.catalog), cli.resolve_configdir(args.configdir))) as fh:
                catalog_doc = load_yaml(fh)
            json.dumps(catalog_doc, allow_nan=False)  # state.json stores it: no dates, no inf
            catalog = statemod.catalog_from_doc(catalog_doc, f"unreadable catalog {args.catalog}")
        except (OSError, yaml.YAMLError, TypeError, ValueError, AttributeError) as exc:
            raise ValidationError(f"unreadable catalog {args.catalog}: {exc}") from None
    bundle = cli.load_bundle(args.configdir, catalog)
    options = ServiceOptions(seed=args.seed, interconnect=args.interconnect,
                             preemption_rate=args.preemption_rate,
                             image_pull_seconds=args.image_pull_seconds,
                             task_retries=args.task_retries,
                             scarcity_windows=tuple((a, b) for a, b in args.scarcity))
    args.catalog = "catalog.yaml" if catalog_doc is not None else None  # as the snapshot names it
    cli.commit(statemod.new_workspace_state(options, bundle, catalog_doc),
               statemod.build_service(options, catalog), args, bundle, catalog_doc=catalog_doc)
    ws = bundle.workspace
    cli.say(f"workspace initialized: subscription={ws.subscription} "
            f"resource_group={ws.resource_group} region={ws.region} seed={args.seed}")
    return 0


def cmd_storage_account_create(cli: Cli, args) -> int:
    state, svc = cli.load()
    account = state["workspace"]["storage_account"]
    if ["storage", "account", "create"] in state["transcript"]:
        raise ValidationError(f"storage account already created: {account}")
    svc.event_log.append((svc.clock.now, f"storage/{account}", "created"))
    cli.commit(state, svc, args)
    cli.say(f"storage account created: {account}")
    return 0


def cmd_share_create(cli: Cli, args) -> int:
    state, svc = cli.load()
    if ["storage", "account", "create"] not in state["transcript"]:
        raise ValidationError("no storage account: run `batchsim storage account create`")
    svc.storage.share_create(args.name, args.quota)
    svc.event_log.append((svc.clock.now, f"share/{args.name}", f"create:quota={args.quota}GiB"))
    cli.commit(state, svc, args)
    cli.say(f"share created: {args.name} ({args.quota} GiB)")
    return 0


def cmd_quota_set(cli: Cli, args) -> int:
    state, svc = cli.load()
    svc.quota_set(args.region, args.dedicated, args.low_priority)
    low = args.low_priority = svc.quotas[args.region].low_priority_cores
    cli.commit(state, svc, args)
    cli.say(f"quota set: {args.region} dedicated={args.dedicated} low_priority={low}")
    return 0


def cmd_pool_add(cli: Cli, args) -> int:
    state, svc = cli.load()
    bundle = cli.load_bundle(args.configdir, svc.catalog)
    pool = svc.pool_add(bundle.pool)
    svc.advance_until_pool_settled(pool.pool_id)
    cli.commit(state, svc, args, bundle)
    for rule, message in bundle.pool.warnings.items():
        cli.say(f"warning: {rule}: {message}")
    cli.say(f"pool {pool.pool_id}: {pool.state.value} "
            f"({bundle.pool.dedicated_count} dedicated, "
            f"{bundle.pool.low_priority_count} low-priority {bundle.pool.sku})")
    return 0


def cmd_pool_del(cli: Cli, args) -> int:
    state, svc = cli.load()
    bundle = cli.load_bundle(args.configdir, svc.catalog)
    svc.pool_del(bundle.pool.pool_id)
    cli.commit(state, svc, args, bundle)
    cli.say(f"pool deleted: {bundle.pool.pool_id}")
    return 0


# an ingress manifest: a list, or a mapping's `entries`, of {path, bytes} mappings or
# [path, bytes] pairs
MANIFEST = {"entries": Kind(lambda v, at: type(v) is list and all(
    type(e) is dict or type(e) is list and len(e) == 2 for e in v))}
MANIFEST_ENTRY = {"path": TEXT, "bytes": COUNT}


def _load_manifest(path: Path) -> list[tuple[str, int]]:
    label = f"unreadable manifest {path}"
    try:
        with open(path) as fh:
            doc = load_yaml(fh)
    except (OSError, yaml.YAMLError) as exc:
        raise ValidationError(f"{label}: {exc}") from None
    form = of_owner(label)
    entries = _read(doc if type(doc) is dict else {"entries": doc}, MANIFEST, "manifest",
                    form=form)["entries"]
    return [tuple(_read(e if type(e) is dict else dict(zip(MANIFEST_ENTRY, e)), MANIFEST_ENTRY,
                        f"entry {i}", form=form).values()) for i, e in enumerate(entries)]


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
    total = sum(svc.data_ingress(share, directory, manifest) for share, directory in targets)
    seq = 1 + sum(argv[:2] == ["data", "ingress"] for argv in state["transcript"])
    args.manifest = f"{STATE_DIR}/ingress/{seq:04d}.json"
    cli.commit(state, svc, args, bundle, manifest)
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
        nbytes = svc.data_download(share, directory, dest)
    except OSError as exc:
        raise ValidationError(f"cannot write to --dest {args.dest}: {exc}") from None
    count = len(svc.storage.entries_under(share, directory))
    cli.commit(state, svc, args)
    cli.say(f"downloaded {count} files ({nbytes} bytes) to {dest}")
    return 0


def cmd_jobs_add(cli: Cli, args) -> int:
    state, svc = cli.load()
    bundle = cli.load_bundle(args.configdir, svc.catalog)
    job = svc.jobs_add(bundle.jobs)
    svc.advance_until_job_terminal(job.job_id)
    cli.commit(state, svc, args, bundle)
    for task in job.tasks:
        suffix = f" ({task.failure_reason.value})" if task.failure_reason else ""
        cli.say(f"task {task.spec.task_id}: {task.state.value}{suffix}")
    cli.say(f"job {job.job_id}: {job.state.value}")
    return 0


def cmd_jobs_del(cli: Cli, args) -> int:
    state, svc = cli.load()
    bundle = cli.load_bundle(args.configdir, svc.catalog)
    svc.jobs_del(bundle.jobs.job_id)
    cli.commit(state, svc, args, bundle)
    cli.say(f"job deleted: {bundle.jobs.job_id}")
    return 0


def cmd_status(cli: Cli, args) -> int:
    _, svc = cli.load()
    cli.say(json.dumps(statemod.status_doc(svc), indent=2, sort_keys=True))
    return 0


def cmd_ledger_report(cli: Cli, args) -> int:
    _, svc = cli.load()
    cli.say(billing.render_report(billing.report(svc.ledger)).rstrip("\n"))
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
    state, svc = cli.load()
    if not any(t.terminal for t in svc.all_tasks()):
        raise ValidationError("no completed run to pack: run a job or scenario first")
    named = cli.store.named(state["transcript"])
    for path in named:
        if not path.exists():
            raise ValidationError(f"cannot pack: {path.relative_to(cli.root)} is missing")
    out = _relpath(Path(args.out or "repro-package.tar.gz"), cli.root)
    if not out.parent.is_dir():
        raise ValidationError(f"cannot pack: no directory {Path(args.out).parent}")
    with statemod.replacing(out, "wb") as fh, tarfile.open(out, "w:gz", fh) as tar:
        info = tarfile.TarInfo("manifest.json")
        payload = json.dumps({"transcript": state["transcript"]}, indent=1).encode() + b"\n"
        info.size = len(payload)
        tar.addfile(info, io.BytesIO(payload))
        for path in filter(Path.is_file, named):  # a snapshot's documents, not its directory
            tar.add(path, arcname=path.relative_to(cli.store.dir).as_posix())
        for name in OUTPUT_ARTIFACTS:
            tar.add(cli.store.dir / name, arcname=f"outputs/{name}")
    cli.say(f"packed {out} ({len(state['transcript'])} commands, {len(OUTPUT_ARTIFACTS)} "
            f"outputs, seed {state['options']['seed']})")
    return 0


def _safe_extract(tar: tarfile.TarFile, dest: Path):
    """Write the regular files and directories of `tar` under `dest`. A member of any other
    kind (a link, a device) or one whose path leaves `dest` is a ValidationError."""
    root = dest.resolve()
    for member in tar.getmembers():
        path = (dest / member.name).resolve()
        if not path.is_relative_to(root):
            raise ValidationError(f"archive member escapes extraction root: {member.name}")
        if member.isdir():
            path.mkdir(parents=True, exist_ok=True)
        elif member.isfile():
            path.parent.mkdir(parents=True, exist_ok=True)
            with tar.extractfile(member) as src, open(path, "wb") as dst:
                shutil.copyfileobj(src, dst)
        else:
            raise ValidationError(f"archive member is not a file or directory: {member.name}")


# a package's manifest.json, as `repro pack` writes it
PACKAGE = {"transcript": statemod.STATE["transcript"]}


def read_manifest(path: Path) -> list:
    """The transcript of a package's manifest.json; a manifest that `repro pack` cannot
    have written is a ValidationError."""
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ValidationError(f"not a readable package: {exc}") from None
    if type(manifest) is not dict:
        raise ValidationError("manifest.json: key '<document>': top level must be a mapping")
    return _read(manifest, PACKAGE, ("manifest.json", ""), form=at_key)["transcript"]


def _lines(path: Path) -> list[bytes]:
    """The lines of a file, each with its newline; none if there is no file."""
    return io.BytesIO(path.read_bytes()).readlines() if path.is_file() else []


def cmd_repro_verify(cli: Cli, args) -> int:
    archive = _relpath(Path(args.archive), cli.root)
    if not archive.is_file():
        raise ValidationError(f"no such archive: {archive}")
    with tempfile.TemporaryDirectory(prefix="batchsim-verify-") as tmp:
        extracted = Path(tmp)
        try:
            with tarfile.open(archive, "r:gz") as tar:
                _safe_extract(tar, extracted)
        except (tarfile.TarError, OSError, EOFError) as exc:
            raise ValidationError(f"not a readable package: {exc}") from None
        transcript = read_manifest(extracted / "manifest.json")
        commands = [recorded_command(argv) for argv in transcript]
        if not commands or commands[0][:2] != ["workspace", "init"]:
            raise ValidationError(
                "manifest.json: key 'transcript': must begin with workspace init")
        for name in OUTPUT_ARTIFACTS:
            if not (extracted / "outputs" / name).is_file():
                raise ValidationError(f"not a readable package: outputs/{name} is not a file")
        counts = []  # each replayed output's line count after each command
        try:  # in the package, whose configs/ and ingress/ the commands read
            for argv in commands:
                run_command(["-C", str(extracted), *argv], io.StringIO(), raising=True)
                counts.append([len(_lines(extracted / STATE_DIR / n)) for n in OUTPUT_ARTIFACTS])
        except (UsageError, ValidationError, SimulationError) as exc:
            cli.say(f"FAIL: replayed command failed: {exc}")
            return 3
        for k, name in enumerate(OUTPUT_ARTIFACTS):
            sides = [_lines(extracted / where / name) for where in ("outputs", STATE_DIR)]
            if sides[0] != sides[1]:  # each line with its newline, so byte for byte
                n = [*map(bytes.__eq__, *sides), False].index(False)  # or the first one side lacks
                packed, replayed = (repr(lines[n].decode(errors="replace")) if n < len(lines)
                                    else "<missing>" for lines in sides)
                # the first commit that held line n + 1, if the replay has it
                writer = next((argv for argv, held in zip(transcript, counts) if held[k] > n), None)
                cli.say(f"FAIL: first divergence at {name} line {n + 1}: expected {packed}, "
                        f"got {replayed}" + (f" (written by {' '.join(writer)})" if writer else ""))
                return 3
        cli.say(f"PASS: {len(OUTPUT_ARTIFACTS)} artifacts reproduced "
                f"(seed {build_parser().parse_args(commands[0]).seed})")
    return 0


# the commands that Cli.commit records, each with the options (argparse dests) that its
# transcript entry lists, in order; and the only value each of these options takes there
COMMITTING = {
    ("workspace", "init"): ("seed", "interconnect", "preemption_rate", "image_pull_seconds",
                            "task_retries", "catalog", "scarcity", "configdir"),
    ("storage", "account", "create"): (), ("share", "create"): ("name", "quota"),
    ("quota", "set"): ("region", "dedicated", "low_priority"), ("pool", "add"): ("configdir",),
    ("pool", "del"): ("configdir",), ("data", "ingress"): ("manifest", "configdir"),
    ("data", "download"): ("source", "dest"), ("jobs", "add"): ("configdir",),
    ("jobs", "del"): ("configdir",)}
RECORDED_VALUES = {"configdir": re.compile(r"\.batchsim/configs/[0-9a-f]{12}"),
                   "manifest": re.compile(r"\.batchsim/ingress/[0-9]{4}\.json"),
                   "catalog": re.compile(r"catalog\.yaml")}
NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")  # what argparse reads as a value, not a flag


def recorded_argv(values: dict) -> list:
    """The transcript entry of a committing command's parsed `values` (`vars(args)`): its
    words, then `--flag value` for each of its COMMITTING options that is not None (one
    `--scarcity START END` per window). A value that RECORDED_VALUES does not take, or a
    command that lists `configdir` but records none, is a ValidationError."""
    words = tuple(w for w in (values["group"], values.get("cmd"), values.get("sub")) if w)
    argv = [*words]
    for dest in COMMITTING[words]:
        value = values[dest]
        for window in value if dest == "scarcity" else [] if value is None else [[value]]:
            argv += ["--" + dest.replace("_", "-"), *map(str, window)]
    if ("configdir" in COMMITTING[words] and not values["configdir"]) or any(
            values.get(k) is not None and not pattern.fullmatch(values[k])
            for k, pattern in RECORDED_VALUES.items()):
        raise ValidationError(f"not a recorded command: {argv}")
    return argv


def recorded_command(argv: list) -> list:
    """`argv` as a replay runs it, if it is an entry as `recorded_argv` writes it; anything
    else is a ValidationError, raised before it can print help or touch a file. Every
    --dest becomes replay-download, and each --configdir and --manifest the package's own
    copy (`.batchsim/configs/<id>` its `configs/<id>`), all inside the replay workspace."""
    words = next((w for w in (tuple(argv[:3]), tuple(argv[:2])) if w in COMMITTING), None)
    flags = {"--" + dest.replace("_", "-") for dest in COMMITTING.get(words, ())}
    try:  # whole recorded flags only: no -C, no --help, no abbreviation, no --flag=value
        recorded = words is not None and all(
            t in flags or not t.startswith("-") or NEGATIVE_NUMBER.fullmatch(t) for t in argv
        ) and recorded_argv(vars(build_parser().parse_args(argv))) == argv
    except (UsageError, ValidationError):
        recorded = False
    if not recorded:
        raise ValidationError(f"not a recorded command: {argv}")
    return ["replay-download" if i and argv[i - 1] == "--dest" else
            t.removeprefix(f"{STATE_DIR}/") if i and argv[i - 1] in ("--configdir", "--manifest")
            else t for i, t in enumerate(argv)]


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
