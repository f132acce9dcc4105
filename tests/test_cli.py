import io
import json
import shutil
import tarfile
from pathlib import Path

import pytest
import yaml

from batchsim.batch import BatchService
from batchsim.cli import _safe_extract, run_command
from batchsim.config import serialize_config_dir
from batchsim.errors import CorruptArchive, TaskTooWide
from batchsim.scenarios import builtin_scenarios, scenario_by_name, transcript
from batchsim.state import WorkspaceStore

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLE_DIR = REPO_ROOT / "configs" / "snake2d2k35"


def cli(workdir, *argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(["-C", str(workdir), *argv], out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def ok(workdir, *argv):
    code, out, err = cli(workdir, *argv)
    assert code == 0, f"{argv} failed ({code}): {err or out}"
    return out


@pytest.fixture
def workdir(tmp_path):
    shutil.copytree(EXAMPLE_DIR, tmp_path / "config_shipyard")
    return tmp_path


def sequence(seed=7) -> list[list[str]]:
    """The create-ingest-submit-teardown sequence from the documented workflow."""
    cfg = ["--configdir", "config_shipyard"]
    return [
        ["workspace", "init", *cfg, "--seed", str(seed)],
        ["storage", "account", "create"],
        ["share", "create", "--name", "fileshare", "--quota", "100"],
        ["quota", "set", "--region", "eastus", "--dedicated", "100"],
        ["pool", "add", *cfg],
        ["data", "ingress", *cfg, "--source", "config_shipyard/inputs"],
        ["jobs", "add", *cfg],
        ["status"],
        ["pool", "del", *cfg],
        ["jobs", "del", *cfg],
        ["data", "download", "--source", "fileshare/snake2d2k35", "--dest", "output"],
    ]


def full_sequence(workdir, seed=7):
    for argv in sequence(seed):
        ok(workdir, *argv)


def test_full_sequence_exits_zero_and_bills(workdir):
    full_sequence(workdir)
    report = ok(workdir, "ledger", "report")
    assert "Virtual Machines\t55.44" in report
    assert (workdir / "output" / "fileshare" / "snake2d2k35").is_dir()
    events = (workdir / ".batchsim" / "events.log").read_text()
    assert "pool/snake2d2k35\tAllocating->Steady" in events


def test_pool_add_without_workspace(tmp_path):
    code, _, err = cli(tmp_path, "pool", "add", "--configdir", str(EXAMPLE_DIR))
    assert code == 2
    assert "workspace" in err


def test_env_var_matches_flag(workdir, monkeypatch):
    ok(workdir, "workspace", "init", "--configdir", "config_shipyard")
    ok(workdir, "storage", "account", "create")
    ok(workdir, "share", "create", "--name", "fileshare", "--quota", "100")
    ok(workdir, "quota", "set", "--region", "eastus", "--dedicated", "100")
    monkeypatch.setenv("BATCHSIM_CONFIGDIR", "config_shipyard")
    ok(workdir, "pool", "add")  # no --configdir
    state = json.loads((workdir / ".batchsim" / "state.json").read_text())
    assert state["service"]["pools"][0]["config"]["id"] == "snake2d2k35"


def test_usage_error_exit_64(tmp_path):
    code, _, err = cli(tmp_path, "quota", "set")  # missing required flags
    assert code == 64
    code, _, _ = cli(tmp_path, "no-such-command")
    assert code == 64


def tree(workdir) -> dict:
    """Every file under .batchsim/ with its bytes."""
    store = Path(workdir) / ".batchsim"
    return {p.relative_to(store).as_posix(): p.read_bytes()
            for p in sorted(store.rglob("*")) if p.is_file()}


def test_validation_failure_leaves_state_unchanged(workdir):
    ok(workdir, "workspace", "init", "--configdir", "config_shipyard")
    ok(workdir, "storage", "account", "create")
    ok(workdir, "share", "create", "--name", "fileshare", "--quota", "100")
    before = tree(workdir)
    code, _, err = cli(workdir, "share", "create", "--name", "fileshare", "--quota", "1")
    assert code == 2 and "exists" in err
    # pool add under the default 24-core quota is rejected without mutation
    code, _, err = cli(workdir, "pool", "add", "--configdir", "config_shipyard")
    assert code == 2 and "quota" in err.lower()
    assert tree(workdir) == before
    # a rejected pool from another config dir must not replace the recorded configs
    shutil.copytree(REPO_ROOT / "configs" / "poisson_h16r", workdir / "poisson")
    ok(workdir, "quota", "set", "--region", "eastus", "--dedicated", "48")
    ok(workdir, "pool", "add", "--configdir", "config_shipyard")
    before = tree(workdir)
    code, _, err = cli(workdir, "pool", "add", "--configdir", "poisson")
    assert code == 2 and "quota" in err.lower()
    assert tree(workdir) == before


INIT = ["workspace", "init", "--configdir", "config_shipyard"]


@pytest.mark.parametrize("argv,expected", [
    (["quota", "set", "--region", "eastus", "--dedicated", "-5"], 64),
    (["quota", "set", "--region", "mars", "--dedicated", "10"], 2),
    (["share", "create", "--name", "other", "--quota", "-1"], 64),
    ([*INIT, "--preemption-rate", "-1"], 64),
    ([*INIT, "--image-pull-seconds", "inf"], 64),
    ([*INIT, "--preemption-rate", "inf"], 64),
    ([*INIT, "--preemption-rate", "nan"], 64),
    ([*INIT, "--scarcity", "nan", "5"], 64),
    ([*INIT, "--scarcity", "0", "inf"], 64),
], ids=["negative-quota", "unknown-region", "negative-share-quota", "negative-rate",
        "infinite-image-pull", "infinite-rate", "nan-rate", "nan-scarcity-start",
        "infinite-scarcity-end"])
def test_out_of_range_input_is_rejected_without_mutation(workdir, argv, expected):
    if argv[0] != "workspace":
        ok(workdir, *INIT)
        ok(workdir, "storage", "account", "create")
    before = tree(workdir)
    code, _, err = cli(workdir, *argv)
    assert code == expected
    assert tree(workdir) == before
    if argv[0] == "workspace":
        assert not (workdir / ".batchsim").exists()
        assert "usage error" in err


def _drop_time(state):
    del state["service"]["time"]


def _text_time(state):
    state["service"]["time"] = "soon"


def _number_pools(state):
    state["service"]["pools"] = 7


def _drop_transcript(state):
    del state["transcript"]


def _list_document(state):
    return []


def _format_1(state):
    state["version"] = 1
    del state["events_bytes"]


def _text_events_bytes(state):
    state["events_bytes"] = "0"


CORRUPTIONS = {
    "missing-key": _drop_time,
    "wrong-type-value": _text_time,
    "wrong-type-container": _number_pools,
    "missing-top-level-key": _drop_transcript,
    "not-an-object": _list_document,
    "state-format-1": _format_1,
    "wrong-type-events-bytes": _text_events_bytes,
    "truncated-file": None,
}


@pytest.mark.parametrize("argv", [["status"], ["share", "create", "--name", "s", "--quota", "1"],
                                  ["jobs", "add", "--configdir", "config_shipyard"]],
                         ids=["status", "share-create", "jobs-add"])
@pytest.mark.parametrize("corrupt", list(CORRUPTIONS.values()), ids=list(CORRUPTIONS))
def test_corrupt_state_exits_2_without_mutation(workdir, corrupt, argv):
    ok(workdir, "workspace", "init", "--configdir", "config_shipyard")
    ok(workdir, "storage", "account", "create")
    path = workdir / ".batchsim" / "state.json"
    if corrupt is None:
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
    else:
        state = json.loads(path.read_text())
        replaced = corrupt(state)
        path.write_text(json.dumps(state if replaced is None else replaced))
    before = tree(workdir)
    code, _, err = cli(workdir, *argv)
    assert code == 2, err
    assert err.startswith("error: corrupt state")
    assert tree(workdir) == before


def test_other_state_version_is_named(workdir):
    ok(workdir, "workspace", "init", "--configdir", "config_shipyard")
    path = workdir / ".batchsim" / "state.json"
    state = json.loads(path.read_text())
    _format_1(state)
    path.write_text(json.dumps(state))
    code, _, err = cli(workdir, "status")
    assert code == 2
    assert err == "error: corrupt state: unsupported state version 1\n"


def test_state_carrying_the_old_egress_rate_runs_on_like_a_fresh_one(tmp_path):
    """A format-3 state.json written while the egress rate was a service option holds
    options.egress_usd_per_gib; the session must go on as one started fresh."""
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    for root in (fresh, old):
        shutil.copytree(EXAMPLE_DIR, root / "config_shipyard")
        for argv in sequence()[:6]:  # through `data ingress`
            ok(root, *argv)
    path = old / ".batchsim" / "state.json"
    state = json.loads(path.read_text())
    assert state["version"] == 3
    state["options"]["egress_usd_per_gib"] = "0.087"
    path.write_text(json.dumps(state))
    for root in (fresh, old):
        for argv in sequence()[6:]:  # `jobs add` through `data download`
            ok(root, *argv)
    for name in ("events.log", "ledger.tsv"):
        assert (old / ".batchsim" / name).read_text() == (fresh / ".batchsim" / name).read_text()
    assert "\nBandwidth\t" in (old / ".batchsim" / "ledger.tsv").read_text()


@pytest.mark.parametrize("version", [1, 2])
def test_older_state_versions_exit_2_without_mutation(workdir, version):
    ok(workdir, "workspace", "init", "--configdir", "config_shipyard")
    path = workdir / ".batchsim" / "state.json"
    state = json.loads(path.read_text())
    state["version"] = version
    path.write_text(json.dumps(state))
    before = tree(workdir)
    code, _, err = cli(workdir, "status")
    assert code == 2
    assert err == f"error: corrupt state: unsupported state version {version}\n"
    assert tree(workdir) == before


# (position in the task row, value written there); positions 0-6 are the spec
ROW_CORRUPTIONS = {
    "blank-id": (0, " "),
    "unknown-workload": (1, "nosuch:1"),
    "string-instances": (2, "2"),
    "bool-gpus": (4, True),
    "running-state": (7, "Running"),
    "staging-state": (7, "Staging"),
    "unknown-failure-reason": (11, "Crashed"),
    "short-row": (None, None),
}


@pytest.mark.parametrize("index, value", list(ROW_CORRUPTIONS.values()), ids=list(ROW_CORRUPTIONS))
def test_corrupt_task_row_exits_2_without_mutation(workdir, index, value):
    for argv in sequence()[:7]:  # through `jobs add`
        ok(workdir, *argv)
    path = workdir / ".batchsim" / "state.json"
    state = json.loads(path.read_text())
    row = state["service"]["jobs"][0]["tasks"][0]
    if index is None:
        row.pop()
    else:
        row[index] = value
    path.write_text(json.dumps(state))
    before = tree(workdir)
    code, _, err = cli(workdir, "status")
    assert code == 2, err
    assert err.startswith(("error: corrupt state: task ", "error: state.json: key "))
    assert tree(workdir) == before


def test_rerun_after_interrupted_commit_matches_uninterrupted_session(tmp_path, monkeypatch):
    """`jobs add` appends to events.log, then its state save fails; the rerun must
    not log the job twice."""
    plain, interrupted = tmp_path / "plain", tmp_path / "interrupted"
    for root in (plain, interrupted):
        shutil.copytree(EXAMPLE_DIR, root / "config_shipyard")
    full_sequence(plain)
    real_save = WorkspaceStore.save

    def save_failing_once(store, state):
        monkeypatch.setattr(WorkspaceStore, "save", real_save)
        raise OSError("no space left on device")

    events = interrupted / ".batchsim" / "events.log"
    for argv in sequence():
        if argv[:2] == ["jobs", "add"]:
            before = events.stat().st_size
            monkeypatch.setattr(WorkspaceStore, "save", save_failing_once)
            with pytest.raises(OSError):
                cli(interrupted, *argv)
            assert events.stat().st_size > before  # the job's events were appended
        ok(interrupted, *argv)
    assert tree(interrupted) == tree(plain)
    state = json.loads((plain / ".batchsim" / "state.json").read_text())
    assert state["events_bytes"] == (plain / ".batchsim" / "events.log").stat().st_size


def test_status_is_json(workdir):
    full_sequence(workdir)
    out = ok(workdir, "status")
    doc = json.loads(out)
    assert doc["pools"][0]["state"] == "Deleted"
    assert doc["jobs"][0]["tasks"][0]["state"] == "Completed"
    assert doc["shares"][0]["name"] == "fileshare"


def test_ledger_export(workdir):
    full_sequence(workdir)
    ok(workdir, "ledger", "report", "--export", "ledger-out.tsv")
    text = (workdir / "ledger-out.tsv").read_text()
    assert text.startswith("category\tusd\t")
    assert "Virtual Machines" in text


def test_scenario_run_and_list(tmp_path):
    out = ok(tmp_path, "scenario", "list")
    assert "snake2d" in out and "snake3d_fine" in out
    out = ok(tmp_path, "scenario", "run", "snake2d", "--seed", "1")
    assert "vm cost: 55.44 USD" in out
    assert (tmp_path / "output" / "fileshare" / "snake2d2k35").is_dir()
    code, _, err = cli(tmp_path, "scenario", "run", "snake9d")
    assert code == 2 and "unknown scenario" in err


@pytest.mark.parametrize("name", [s.name for s in builtin_scenarios()])
def test_scenario_run_matches_its_transcript_typed_by_hand(name, tmp_path, monkeypatch):
    scenario = scenario_by_name(name)
    ran, typed = tmp_path / "ran", tmp_path / "typed"
    ok(ran, "scenario", "run", name, "--seed", "3")
    serialize_config_dir(scenario.bundle(), tmp_path / "cfg")
    monkeypatch.setenv("BATCHSIM_CONFIGDIR", str(tmp_path / "cfg"))
    store = WorkspaceStore(typed)
    store.ingress_dir.mkdir(parents=True)
    (store.ingress_dir / "0001.json").write_text(json.dumps(scenario.ingress_manifest))
    for argv in transcript(scenario, 3):
        ok(typed, *argv)
    assert tree(ran) == tree(typed)
    state = json.loads((ran / ".batchsim" / "state.json").read_text())
    assert state["transcript"] == transcript(scenario, 3)
    ok(ran, "repro", "pack")
    assert ok(ran, "repro", "verify", "repro-package.tar.gz").startswith("PASS")


def test_scenario_run_in_a_workspace_is_rejected(workdir):
    ok(workdir, "workspace", "init", "--configdir", "config_shipyard")
    before = tree(workdir)
    code, _, err = cli(workdir, "scenario", "run", "snake2d")
    assert code == 2 and "workspace already initialized" in err
    assert tree(workdir) == before


def test_failed_scenario_leaves_no_workspace(tmp_path, monkeypatch):
    def too_wide(svc, jobs):
        raise TaskTooWide("task0 needs more nodes than the pool has")

    monkeypatch.setattr(BatchService, "jobs_add", too_wide)
    code, _, err = cli(tmp_path, "scenario", "run", "snake2d")
    assert code == 2 and "more nodes" in err
    assert not (tmp_path / ".batchsim").exists()


def _failing_save(store, state):
    raise OSError("no space left on device")


@pytest.mark.parametrize("argv", [["pool", "del", "--configdir", "config_shipyard"],
                                  ["pool", "add", "--configdir", "poisson"]],
                         ids=["pool-del", "pool-add-other-configdir"])
def test_failed_save_keeps_ledger_and_configs(workdir, monkeypatch, argv):
    """state.json commits a command; ledger.tsv and configs/ are written after it."""
    for step in sequence()[:7]:  # through jobs add; the pool is still up
        ok(workdir, *step)
    shutil.copytree(REPO_ROOT / "configs" / "poisson_h16r", workdir / "poisson")
    ok(workdir, "quota", "set", "--region", "eastus", "--dedicated", "200")
    kept = {k: v for k, v in tree(workdir).items()
            if k == "ledger.tsv" or k.startswith("configs/")}
    monkeypatch.setattr(WorkspaceStore, "save", _failing_save)
    with pytest.raises(OSError):
        cli(workdir, *argv)
    monkeypatch.undo()
    assert {k: v for k, v in tree(workdir).items()
            if k == "ledger.tsv" or k.startswith("configs/")} == kept
    ok(workdir, "repro", "pack")
    assert ok(workdir, "repro", "verify", "repro-package.tar.gz").startswith("PASS")


@pytest.mark.parametrize("existing", [False, True], ids=["no-batchsim-dir", "stray-file"])
def test_failed_workspace_init_save_leaves_tree_as_it_was(workdir, monkeypatch, existing):
    """A failed state save writes no configs/, and removes a .batchsim/ it created."""
    if existing:
        (workdir / ".batchsim").mkdir()
        (workdir / ".batchsim" / "notes.txt").write_text("kept\n")
    before = tree(workdir)
    monkeypatch.setattr(WorkspaceStore, "save", _failing_save)
    with pytest.raises(OSError):
        cli(workdir, "workspace", "init", "--configdir", "config_shipyard")
    monkeypatch.undo()
    assert (workdir / ".batchsim").exists() is existing
    assert tree(workdir) == before
    ok(workdir, "workspace", "init", "--configdir", "config_shipyard")
    ok(workdir, "status")


MANIFESTS = {
    "missing-manifest": None,
    "unparseable-manifest": "entries: [unclosed\n",
    "entry-without-bytes": "entries:\n- {path: case.yaml}\n",
    "scalar-manifest": "5\n",
    "negative-size": "entries:\n- {path: case.yaml, bytes: -1}\n",
}
CATALOGS = {
    "missing-catalog": None,
    "unparseable-catalog": "skus: [unclosed\n",
    "scalar-skus": "skus: 5\n",
}
USER_FILE_ERRORS = [
    *[(["data", "ingress", "--configdir", "config_shipyard", "--manifest", "user.yaml"], text)
      for text in MANIFESTS.values()],
    *[(["workspace", "init", "--configdir", "config_shipyard", "--catalog", "../user.yaml"], text)
      for text in CATALOGS.values()],
    (["data", "download", "--source", "fileshare/snake2d2k35", "--dest", "user.yaml/out"], ""),
    (["ledger", "report", "--export", "user.yaml/ledger.tsv"], ""),
]


@pytest.mark.parametrize("argv,text", USER_FILE_ERRORS,
                         ids=[*MANIFESTS, *CATALOGS, "download-under-file", "export-under-file"])
def test_bad_user_file_exits_2_without_mutation(workdir, argv, text):
    if argv[0] != "workspace":
        for step in sequence()[:7]:
            ok(workdir, *step)
    if text is not None:
        (workdir / "user.yaml").write_text(text)
    before = tree(workdir)
    code, _, err = cli(workdir, *argv)
    assert code == 2, err
    assert err.startswith("error: ") and "user.yaml" in err
    assert tree(workdir) == before


def test_safe_extract_rejects_a_sibling_directory(tmp_path):
    archive = tmp_path / "evil.tar"
    with tarfile.open(archive, "w") as tar:
        info = tarfile.TarInfo("../archive2/x")
        info.size = 1
        tar.addfile(info, io.BytesIO(b"x"))
    (tmp_path / "archive").mkdir()
    with tarfile.open(archive) as tar, pytest.raises(CorruptArchive, match="escapes"):
        _safe_extract(tar, tmp_path / "archive")
    assert not (tmp_path / "archive2").exists()


def test_repro_pack_requires_completed_run(workdir):
    ok(workdir, "workspace", "init", "--configdir", "config_shipyard")
    code, _, err = cli(workdir, "repro", "pack")
    assert code == 2
    assert "completed run" in err


def test_repro_pack_and_verify_manual_flow(workdir):
    full_sequence(workdir)
    out = ok(workdir, "repro", "pack")
    assert "4 config digests" in out
    assert ok(workdir, "repro", "verify", "repro-package.tar.gz").startswith("PASS")


def test_repro_pack_and_verify_scenario(tmp_path):
    ok(tmp_path, "scenario", "run", "snake3d", "--seed", "5")
    ok(tmp_path, "repro", "pack", "--out", "snake3d.tar.gz")
    assert ok(tmp_path, "repro", "verify", "snake3d.tar.gz").startswith("PASS")


def test_repro_verify_detects_edited_sku(workdir, tmp_path_factory):
    full_sequence(workdir)
    ok(workdir, "repro", "pack")
    archive = workdir / "repro-package.tar.gz"
    tampered_dir = tmp_path_factory.mktemp("tampered")
    with tarfile.open(archive) as tar:
        tar.extractall(tampered_dir, filter="data")
    pool_doc = yaml.safe_load((tampered_dir / "configs" / "pool.yaml").read_text())
    pool_doc["pool"]["sku"] = "H16r"  # RDMA-capable, different hourly rate
    (tampered_dir / "configs" / "pool.yaml").write_text(yaml.safe_dump(pool_doc))
    jobs_doc = yaml.safe_load((tampered_dir / "configs" / "jobs.yaml").read_text())
    jobs_doc["job"]["tasks"][0]["gpus_per_node"] = 0  # H16r carries no GPUs
    (tampered_dir / "configs" / "jobs.yaml").write_text(yaml.safe_dump(jobs_doc))
    tampered = workdir / "tampered.tar.gz"
    with tarfile.open(tampered, "w:gz") as tar:
        for path in sorted(tampered_dir.rglob("*")):
            tar.add(path, arcname=str(path.relative_to(tampered_dir)))
    code, out, _ = cli(workdir, "repro", "verify", str(tampered))
    assert code == 3
    assert "FAIL" in out and "ledger.tsv" in out


def _edited_scenario_package(tmp_path, edit) -> str:
    """Pack a snake2d scenario, let `edit` change the unpacked files, and pack them again."""
    ok(tmp_path, "scenario", "run", "snake2d")
    ok(tmp_path, "repro", "pack")
    unpacked = tmp_path / "unpacked"
    with tarfile.open(tmp_path / "repro-package.tar.gz") as tar:
        tar.extractall(unpacked, filter="data")
    edit(unpacked)
    with tarfile.open(tmp_path / "edited.tar.gz", "w:gz") as tar:
        for path in sorted(unpacked.rglob("*")):
            tar.add(path, arcname=str(path.relative_to(unpacked)))
    return "edited.tar.gz"


def test_repro_verify_reports_a_failing_replayed_command(tmp_path):
    def over_quota(unpacked):
        pool_doc = yaml.safe_load((unpacked / "configs" / "pool.yaml").read_text())
        pool_doc["pool"]["vm_count"]["dedicated"] = 5  # 120 cores, over the recorded 100
        (unpacked / "configs" / "pool.yaml").write_text(yaml.safe_dump(pool_doc))

    code, out, _ = cli(tmp_path, "repro", "verify", _edited_scenario_package(tmp_path, over_quota))
    assert code == 3
    assert out.startswith("FAIL: replayed command failed: quota exceeded")


def test_repro_verify_fails_on_a_replayed_help_request(tmp_path):
    """--help exits argparse; in a replay that is a failed command, not a passing verify."""
    def add_help(unpacked):
        manifest = json.loads((unpacked / "manifest.json").read_text())
        manifest["transcript"].append(["status", "--help"])
        manifest["output_digests"]["ledger.tsv"] = "0" * 64  # must never be skipped
        (unpacked / "manifest.json").write_text(json.dumps(manifest))

    code, out, _ = cli(tmp_path, "repro", "verify", _edited_scenario_package(tmp_path, add_help))
    assert code == 3
    assert out.startswith("FAIL: replayed command failed: command exited without running")


def test_repro_verify_truncated_archive(workdir):
    full_sequence(workdir)
    ok(workdir, "repro", "pack")
    blob = (workdir / "repro-package.tar.gz").read_bytes()
    (workdir / "broken.tar.gz").write_bytes(blob[: len(blob) // 3])
    code, _, err = cli(workdir, "repro", "verify", "broken.tar.gz")
    assert code == 2
    assert "readable" in err or "archive" in err


def test_workspace_reinit_rejected(workdir):
    ok(workdir, "workspace", "init", "--configdir", "config_shipyard")
    code, _, err = cli(workdir, "workspace", "init", "--configdir", "config_shipyard")
    assert code == 2
    assert "already" in err


def _low_priority_flow(tmp_path, name):
    """Pool with a low-priority node and an aggressive preemption clock; the
    pending preemption event must survive the save/load between commands."""
    workdir = tmp_path / name
    workdir.mkdir()
    cfgdir = workdir / "cfg"
    shutil.copytree(EXAMPLE_DIR, cfgdir)
    pool_doc = yaml.safe_load((cfgdir / "pool.yaml").read_text())
    pool_doc["pool"]["vm_count"] = {"dedicated": 1, "low_priority": 1}
    pool_doc["pool"]["shared_filesystem"] = False
    (cfgdir / "pool.yaml").write_text(yaml.safe_dump(pool_doc, sort_keys=False))
    jobs_doc = yaml.safe_load((cfgdir / "jobs.yaml").read_text())
    jobs_doc["job"]["tasks"][0]["workload"] = "fixed:200000"
    (cfgdir / "jobs.yaml").write_text(yaml.safe_dump(jobs_doc, sort_keys=False))
    cfg = ["--configdir", "cfg"]
    ok(workdir, "workspace", "init", *cfg, "--seed", "21", "--preemption-rate", "20.0")
    ok(workdir, "quota", "set", "--region", "eastus", "--dedicated", "100")
    ok(workdir, "pool", "add", *cfg)
    out = ok(workdir, "jobs", "add", *cfg)
    return workdir, out


def test_preemption_events_survive_cli_persistence(tmp_path):
    workdir, out = _low_priority_flow(tmp_path, "a")
    assert "NodePreempted" in out  # the gang task was taken down mid-run
    events = (workdir / ".batchsim" / "events.log").read_text()
    assert "->Preempted" in events
    # byte-identical replay of the same flow in a fresh workspace
    other, _ = _low_priority_flow(tmp_path, "b")
    assert events == (other / ".batchsim" / "events.log").read_text()


def test_benchmark_job_produces_osu_tables(tmp_path):
    shutil.copytree(REPO_ROOT / "configs" / "osu_nc24r", tmp_path / "cfg")
    cfg = ["--configdir", "cfg"]
    ok(tmp_path, "workspace", "init", *cfg)
    ok(tmp_path, "storage", "account", "create")
    ok(tmp_path, "share", "create", "--name", "fileshare", "--quota", "100")
    ok(tmp_path, "quota", "set", "--region", "eastus", "--dedicated", "100")
    ok(tmp_path, "pool", "add", *cfg)
    out = ok(tmp_path, "jobs", "add", *cfg)
    assert out.count("Completed") == 3  # two tasks plus the job line
    ok(tmp_path, "pool", "del", *cfg)
    ok(tmp_path, "data", "download", "--source", "fileshare/osu", "--dest", "bench")
    latency = (tmp_path / "bench" / "fileshare" / "osu" / "latency" / "latency.tsv")
    assert "0\t1.95e-06" in latency.read_text()
    bandwidth = (tmp_path / "bench" / "fileshare" / "osu" / "bandwidth" / "bandwidth.tsv")
    assert bandwidth.read_text().startswith("# streaming bandwidth")
