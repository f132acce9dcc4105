import io
import json
import shutil
import tarfile
from pathlib import Path

import pytest
import yaml

from batchsim.cli import run_command
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


@pytest.mark.parametrize("argv,expected", [
    (["quota", "set", "--region", "eastus", "--dedicated", "-5"], 64),
    (["quota", "set", "--region", "mars", "--dedicated", "10"], 2),
    (["share", "create", "--name", "other", "--quota", "-1"], 64),
    (["workspace", "init", "--configdir", "config_shipyard", "--preemption-rate", "-1"], 64),
], ids=["negative-quota", "unknown-region", "negative-share-quota", "negative-rate"])
def test_out_of_range_input_is_rejected_without_mutation(workdir, argv, expected):
    if argv[0] != "workspace":
        ok(workdir, "workspace", "init", "--configdir", "config_shipyard")
        ok(workdir, "storage", "account", "create")
    before = tree(workdir)
    code, _, _ = cli(workdir, *argv)
    assert code == expected
    assert tree(workdir) == before


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


def test_scenario_run_drops_manifests_of_an_earlier_session(workdir):
    cfg = ["--configdir", "config_shipyard"]
    ok(workdir, "workspace", "init", *cfg)
    ok(workdir, "storage", "account", "create")
    ok(workdir, "share", "create", "--name", "fileshare", "--quota", "100")
    ok(workdir, "data", "ingress", *cfg, "--source", "config_shipyard/inputs")
    ok(workdir, "scenario", "run", "snake2d")
    ok(workdir, "repro", "pack")
    with tarfile.open(workdir / "repro-package.tar.gz") as tar:
        assert not [n for n in tar.getnames() if n.startswith("ingress/")]
    ok(workdir, "data", "ingress", *cfg, "--source", "config_shipyard/inputs")
    assert sorted(p.name for p in (workdir / ".batchsim" / "ingress").iterdir()) == ["0001.json"]


def test_scenario_quota_failure_means_no_billing(tmp_path):
    code, _, err = cli(tmp_path, "scenario", "run", "snake2d", "--no-quota-raise")
    assert code == 2
    assert "quota" in err.lower()
    assert not (tmp_path / ".batchsim" / "ledger.tsv").exists()


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
