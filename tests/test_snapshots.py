"""Config snapshots: each command that loads a config bundle records
`--configdir .batchsim/configs/<id>`, and each distinct bundle is stored once."""

import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from batchsim import cli
from batchsim.catalog import default_catalog
from batchsim.scenarios import run_scenario, scenario_by_name
from batchsim.state import catalog_to_doc

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIRS = sorted(p.name for p in (REPO_ROOT / "configs").iterdir() if p.is_dir())
BUNDLE_VERBS = (["pool", "add"], ["jobs", "add"], ["pool", "del"], ["jobs", "del"])


def ok(root, *argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    code = cli.run_command(["-C", str(root), *argv], out=out, err=err)
    assert code == 0, f"{argv} failed ({code}): {err.getvalue() or out.getvalue()}"
    return out.getvalue()


def snapshots(root) -> list[str]:
    return sorted(p.name for p in (Path(root) / ".batchsim" / "configs").iterdir())


def pack_and_verify(root) -> str:
    ok(root, "repro", "pack")
    return ok(root, "repro", "verify", "repro-package.tar.gz")


def count_serializations(monkeypatch, *modules) -> list:
    """Count calls of serialize_config_dir made through each module's globals."""
    calls = []
    for module in modules:
        real = module.serialize_config_dir
        monkeypatch.setattr(module, "serialize_config_dir",
                            lambda *args, real=real: calls.append(args) or real(*args))
    return calls


def test_a_session_over_two_config_dirs_verifies_from_its_own_package(tmp_path):
    for name in ("osu_nc24r", "poisson_h16r"):
        shutil.copytree(REPO_ROOT / "configs" / name, tmp_path / name)
    ok(tmp_path, "workspace", "init", "--configdir", "osu_nc24r", "--seed", "5")
    ok(tmp_path, "quota", "set", "--region", "eastus", "--dedicated", "400")
    for name in ("osu_nc24r", "poisson_h16r"):
        for verb in BUNDLE_VERBS[:3]:
            ok(tmp_path, *verb, "--configdir", name)
    assert pack_and_verify(tmp_path).startswith("PASS")
    assert len(snapshots(tmp_path)) == 2


def test_one_config_dir_loaded_five_times_is_stored_once(tmp_path, monkeypatch):
    shutil.copytree(REPO_ROOT / "configs" / "snake2d2k35", tmp_path / "cfg")
    calls = count_serializations(monkeypatch, cli)
    ok(tmp_path, "workspace", "init", "--configdir", "cfg")
    ok(tmp_path, "quota", "set", "--region", "eastus", "--dedicated", "100")
    for verb in BUNDLE_VERBS:
        ok(tmp_path, *verb, "--configdir", "cfg")
    assert len(calls) == 1
    [snapshot] = snapshots(tmp_path)
    assert sorted(p.name for p in (tmp_path / ".batchsim" / "configs" / snapshot).iterdir()) \
        == ["credentials.yaml", "jobs.yaml", "pool.yaml", "workspace.yaml"]
    assert pack_and_verify(tmp_path).startswith("PASS")


def test_run_scenario_writes_its_snapshot_once(tmp_path, monkeypatch):
    calls = count_serializations(monkeypatch, cli)
    run_scenario(scenario_by_name("snake2d"), seed=0, root=tmp_path)
    assert len(calls) == 1
    assert len(snapshots(tmp_path)) == 1


def transcript(root) -> list:
    return json.loads((Path(root) / ".batchsim" / "state.json").read_text())["transcript"]


def test_a_snapshot_write_cut_short_stores_nothing(tmp_path, monkeypatch):
    """A snapshot write that fails leaves no configs/<id>/ and commits nothing (exit 2), so
    the command can be run again, and it writes the snapshot instead of trusting a partial
    one."""
    shutil.copytree(REPO_ROOT / "configs" / "snake2d2k35", tmp_path / "cfg")
    shutil.copytree(REPO_ROOT / "configs" / "poisson_h16r", tmp_path / "other")
    ok(tmp_path, "workspace", "init", "--configdir", "cfg")
    ok(tmp_path, "quota", "set", "--region", "eastus", "--dedicated", "400")
    real = cli.serialize_config_dir

    def cut_short(bundle, path):
        real(bundle, path)
        (Path(path) / "pool.yaml").unlink()
        raise OSError("no space left on device")

    monkeypatch.setattr(cli, "serialize_config_dir", cut_short)
    err = io.StringIO()
    assert cli.run_command(["-C", str(tmp_path), "pool", "add", "--configdir", "other"],
                           out=io.StringIO(), err=err) == 2
    assert err.getvalue() == "error: no space left on device\n"
    monkeypatch.undo()
    assert len(snapshots(tmp_path)) == 1
    assert [argv[:2] for argv in transcript(tmp_path)] == [["workspace", "init"],
                                                          ["quota", "set"]]
    ok(tmp_path, "pool", "add", "--configdir", "other")
    ok(tmp_path, "jobs", "add", "--configdir", "other")
    assert len(snapshots(tmp_path)) == 2
    assert pack_and_verify(tmp_path).startswith("PASS")


def test_a_catalog_is_stored_in_the_init_snapshot_only(tmp_path):
    shutil.copytree(REPO_ROOT / "configs" / "snake2d2k35", tmp_path / "cfg")
    (tmp_path / "cfg" / "catalog.yaml").write_text(
        yaml.safe_dump(catalog_to_doc(default_catalog())))
    ok(tmp_path, "workspace", "init", "--configdir", "cfg", "--catalog", "catalog.yaml")
    ok(tmp_path, "quota", "set", "--region", "eastus", "--dedicated", "100")
    for verb in BUNDLE_VERBS[:2]:
        ok(tmp_path, *verb, "--configdir", "cfg")
    configs = tmp_path / ".batchsim" / "configs"
    assert sorted((configs / name / "catalog.yaml").exists() for name in snapshots(tmp_path)) \
        == [False, True]
    assert pack_and_verify(tmp_path).startswith("PASS")


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.sampled_from(CONFIG_DIRS), min_size=1, max_size=3))
def test_each_distinct_config_dir_is_stored_once_and_the_session_verifies(dirs):
    with tempfile.TemporaryDirectory(prefix="batchsim-snapshots-") as tmp:
        root = Path(tmp)
        for name in set(dirs):
            shutil.copytree(REPO_ROOT / "configs" / name, root / name)
        ok(root, "workspace", "init", "--configdir", dirs[0])
        ok(root, "quota", "set", "--region", "eastus", "--dedicated", "400")
        for name in dirs:
            for verb in BUNDLE_VERBS:
                ok(root, *verb, "--configdir", name)
        assert pack_and_verify(root).startswith("PASS")
        assert len(snapshots(root)) == len(set(dirs))
