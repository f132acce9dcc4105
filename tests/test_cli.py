import contextlib
import hashlib
import io
import json
import os
import posixpath
import re
import shutil
import tarfile
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from batchsim import cli as climod
from batchsim import config as configmod
from batchsim import state as statemod
from batchsim.batch import BatchService
from batchsim.catalog import default_catalog
from batchsim.cli import _safe_extract, run_command
from batchsim.config import serialize_config_dir
from batchsim.errors import ValidationError
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


# the sha256 of each parser's --help stdout at 80 columns, as argparse of Python 3.11
# formats it
HELP_DIGESTS = {
    "": "f8e7c66bb83642cf8195bf2728b58c9ce9a3c8565e9248742224126a7888fc56",
    "workspace": "7f5f7fea2a4c04ba7dbf5b9e00215795699f86afde2b806574801149b2b8a464",
    "workspace init": "c850e1509c94932183a7585212c950cb0bca3f32c5cdc4a8d369f7a5ef407e7c",
    "storage": "4f455c60162c3c91b7bdef7b58223288697cac718ade9d47620bd4b0f4b5c8b1",
    "storage account": "455f1b77017a3f3dc63deb7c000693e2ddbf7bc94c72b3df7271dd744be7ad5a",
    "storage account create": "b0eed96f073b3650df76094ac9284bae6a71a91aec239d24c1e2285a8a3b5843",
    "share": "10b9fde8987ee3d7cb92a6e1806a1fb357cf38ed43768a4f93f4c5f335c1e5ed",
    "share create": "9b4f25cb0fc1205f00ed5fff718a49058d8737138cd1ad509256ade3903c4c3a",
    "quota": "109bbe743ef19877a13a2c820354293a8f095f2a59625a778e1d952b457827bc",
    "quota set": "13fb0ae937e3237cf7eca936581b1eebc88ee033ff02a0cb63e9b1beb1ad8843",
    "pool": "cb064b8dfd3a8f6f0c448be3ee84396cd58363e06997a3b749c2f9c70dbd3c87",
    "pool add": "a7bfcdbc78131149a5c822626a546ed136ed9f1cabba6d33cefaf446fc4047ad",
    "pool del": "1f98f587772c22c0e981ace5fac7ff0a121186793cf747db6bcc17b8164852d1",
    "data": "2b681d0f8b9e52c958a3d471e7f4b32e8ec4b5e7d30fd300c6b7a31f8d0dbe75",
    "data ingress": "7841322b3997e8a96682b0399f6830bc305e38854bdbddbdf91af58f244901a5",
    "data download": "200f2c4f74d8e58943ae8a74cf67aca2e25eaf76dc24d99f4c940cf5aef4d9d8",
    "jobs": "0a3d327251980df9ce55376d877d55edbd14b0ec73bb89318bc65652bc64908f",
    "jobs add": "ac69d123ec503a73a68e1b22677b73b72737a4d71792e004d0063494e378f193",
    "jobs del": "5ed296baa6da196a0bf47f6acb09afbef1b3c1ab6d568b37c181bdee1c11686b",
    "status": "29484a524cc33967b263e8fe25b2736e330372683b31dba5f2e1d8161c960672",
    "ledger": "751eb8e035d0779ddf37f24926f54ed5ffbfc8736cfdc21de3dfc8191eccbc3d",
    "ledger report": "a3e9a22b04be6c9066ded0c7325fe7d294995dbd0a6e3a1f7c365dc78af0e7fa",
    "scenario": "4df465ca08739128c308e7a5fa8fbaf6327eadd97610b6e26b6251e528da1bc3",
    "scenario list": "f8260dbde658a49d04ab8c5f2d66fedc578855cba3d83521588150878877907b",
    "scenario run": "379b898f44cf8cc0dcc3431486beb0be19f827e945cbf8706b7f9c457133a386",
    "repro": "40bd4d611e93f973a0c234197bd9f7ba06c6b1a80dbec9285538b7bfe35bd147",
    "repro pack": "1c4eacc4442a57bd92004fc9a2b7369ea1b013648709a878b221a5e45750d702",
    "repro verify": "3006999c6756cdf81ca88b8e227c8508f2594d688b9218ae8cefb6c2cc9ea997",
}


@pytest.mark.parametrize("words", list(HELP_DIGESTS), ids=lambda w: w or "batchsim")
def test_help_text_is_pinned(tmp_path, monkeypatch, words):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal's width
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code, _, err = cli(tmp_path, *words.split(), "--help")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == HELP_DIGESTS[words]


USAGE_ERRORS = {
    "bad-seed": (["workspace", "init", "--seed", "x"],
                 "argument --seed: invalid int value: 'x'"),
    "inf-rate": (["workspace", "init", "--preemption-rate", "inf"],
                 "argument --preemption-rate: must be finite, got inf"),
    "inf-image-pull": (["workspace", "init", "--image-pull-seconds", "inf"],
                       "argument --image-pull-seconds: must be finite, got inf"),
    "one-value-scarcity": (["workspace", "init", "--scarcity", "5"],
                           "argument --scarcity: expected 2 arguments"),
    "unknown-interconnect": (["workspace", "init", "--interconnect", "myrinet"],
                             "argument --interconnect: invalid choice: 'myrinet' (choose from "
                             "'azure', 'colonial-one')"),
    "missing-quota": (["share", "create", "--name", "x"],
                      "the following arguments are required: --quota"),
    "source-and-manifest": (["data", "ingress", "--source", "a", "--manifest", "b"],
                            "argument --manifest: not allowed with argument --source"),
    "bare-pool": (["pool"], "the following arguments are required: cmd"),
    "unknown-group": (["no-such-command"],
                      "argument group: invalid choice: 'no-such-command' (choose from "
                      "'workspace', 'storage', 'share', 'quota', 'pool', 'data', 'jobs', "
                      "'status', 'ledger', 'scenario', 'repro')"),
    "pool-add-plan": (["pool", "add", "--plan", "reserved_3yr"],
                      "unrecognized arguments: --plan reserved_3yr"),
    # options that repeated another path: pool.yaml's and jobs.yaml's ids, and ledger.tsv
    "pool-del-pool": (["pool", "del", "--pool", "snake2d2k35"],
                      "unrecognized arguments: --pool snake2d2k35"),
    "jobs-del-job": (["jobs", "del", "--job", "snake2d2k35-job"],
                     "unrecognized arguments: --job snake2d2k35-job"),
    "ledger-report-export": (["ledger", "report", "--export", "ledger-out.tsv"],
                             "unrecognized arguments: --export ledger-out.tsv"),
    "bare-C": (["-C"], "argument -C: expected one argument"),
}


@pytest.mark.parametrize("argv, message", list(USAGE_ERRORS.values()), ids=list(USAGE_ERRORS))
def test_usage_error_text_is_pinned(argv, message):
    err = io.StringIO()
    assert run_command(argv, io.StringIO(), err) == 64
    assert err.getvalue() == f"usage error: {message}\n"


def tree(workdir) -> dict:
    """.batchsim/ and every directory (None) and file (its bytes) under it."""
    store = Path(workdir) / ".batchsim"
    paths = [store, *sorted(store.rglob("*"))] if store.exists() else []
    return {p.relative_to(store).as_posix(): p.read_bytes() if p.is_file() else None
            for p in paths}


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
ACCOUNT = ["storage", "account", "create"]
CFG = ["--configdir", "config_shipyard"]


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
    ([*INIT, "--scarcity", "100", "50"], 64),
    ([*INIT, "--scarcity", "50", "50"], 64),
    (["pool", "add", "--configdir", "config_shipyard", "--plan", "reserved_3yr"], 64),
], ids=["negative-quota", "unknown-region", "negative-share-quota", "negative-rate",
        "infinite-image-pull", "infinite-rate", "nan-rate", "nan-scarcity-start",
        "infinite-scarcity-end", "reversed-scarcity", "empty-scarcity", "removed-plan-option"])
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


@pytest.fixture(scope="module")
def session_workspace(tmp_path_factory):
    """The README session's workspace, through its `data download`."""
    root = tmp_path_factory.mktemp("session")
    shutil.copytree(EXAMPLE_DIR, root / "config_shipyard")
    full_sequence(root)
    return root


@pytest.mark.parametrize("name", ["pool-del-pool", "jobs-del-job", "ledger-report-export"])
def test_a_removed_option_exits_64_and_leaves_the_workspace_as_it_was(session_workspace,
                                                                       name):
    argv, message = USAGE_ERRORS[name]
    before = tree(session_workspace)
    assert cli(session_workspace, *argv) == (64, "", f"usage error: {message}\n")
    assert tree(session_workspace) == before
    assert not (session_workspace / "ledger-out.tsv").exists()


def test_pool_and_jobs_del_of_the_recorded_snapshot_give_the_session_of_the_config_dir(
        session_workspace, tmp_path):
    """What `pool del --pool` and `jobs del --job` did: `--configdir` of the snapshot that
    `pool add` recorded deletes the same pool and job and records that same snapshot, so
    the whole .batchsim/ tree is that of the session run with config_shipyard."""
    shutil.copytree(EXAMPLE_DIR, tmp_path / "config_shipyard")
    steps = sequence()
    for argv in steps[:8]:
        ok(tmp_path, *argv)
    state = json.loads((tmp_path / ".batchsim" / "state.json").read_text())
    snapshot = state["transcript"][4][-1]  # pool add's --configdir
    assert snapshot.startswith(".batchsim/configs/")
    assert ok(tmp_path, "pool", "del", "--configdir", snapshot) == "pool deleted: snake2d2k35\n"
    assert ok(tmp_path, "jobs", "del", "--configdir", snapshot) == \
        "job deleted: snake2d2k35-job\n"
    ok(tmp_path, *steps[10])
    assert tree(tmp_path) == tree(session_workspace)


@pytest.fixture(scope="module")
def quota_workspace(tmp_path_factory):
    """The README session's workspace through `quota set`, ready for `pool add`."""
    root = tmp_path_factory.mktemp("quota")
    shutil.copytree(EXAMPLE_DIR, root / "config_shipyard")
    for argv in sequence()[:4]:
        ok(root, *argv)
    return root


# (document, keys to the record, message prefix, table): each record a config table reads
CONFIG_RECORDS = [("workspace.yaml", ("workspace",), "workspace.", configmod.WORKSPACE),
                  ("credentials.yaml", ("credentials",), "credentials.", configmod.CREDENTIALS),
                  ("pool.yaml", ("pool",), "pool.", configmod.POOL_CONFIG),
                  ("pool.yaml", ("pool", "vm_count"), "pool.vm_count.", configmod.VM_COUNT),
                  ("jobs.yaml", ("job", "tasks", 0), "job.tasks[0].", configmod.TASK),
                  ("jobs.yaml", ("job",), "job.", configmod.JOB)]
CONFIG_LEAVES = [(name, keys, prefix + key, kind) for name, keys, prefix, table in CONFIG_RECORDS
                 for key, kind in table.items()]


@pytest.mark.parametrize("value", [configmod._ABSENT, None, "x", -1, 1e308, [1], True],
                         ids=["absent", "null", "text", "negative", "huge", "list", "true"])
@pytest.mark.parametrize("name, keys, key, kind", CONFIG_LEAVES,
                         ids=[leaf[2] for leaf in CONFIG_LEAVES])
def test_a_config_leaf_of_another_kind_exits_2_naming_its_key(quota_workspace, tmp_path, name,
                                                              keys, key, kind, value):
    """A config leaf that its table's kind does not take is exit 2 naming its key, in the
    `<path>: key '<key>': ` form; one it takes runs, or is exit 2 on a later check."""
    root = tmp_path / "w"
    shutil.copytree(quota_workspace, root)
    path = root / "config_shipyard" / name
    doc = yaml.safe_load(path.read_text())
    record = doc
    for k in keys:
        record = record[k]
    leaf = key.rpartition(".")[2]
    if value is configmod._ABSENT:
        del record[leaf]
    else:
        record[leaf] = value
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    before = tree(root)
    code, _, err = cli(root, "pool", "add", *CFG)
    if kind.ok(value, configmod.At()):
        assert code in (0, 2), err
    else:
        assert code == 2 and err.startswith(f"error: {path}: key {key!r}: "), err
    if code:
        assert tree(root) == before


def _edited_configdir(workdir, name, pool=None, task=None) -> list[str]:
    """--configdir of a copy of the example configs with `pool` merged into pool.yaml's
    pool and `task` into jobs.yaml's first task."""
    shutil.copytree(EXAMPLE_DIR, workdir / name)
    for file, key, edit in (("pool.yaml", "pool", pool), ("jobs.yaml", "job", task)):
        doc = yaml.safe_load((workdir / name / file).read_text())
        (doc[key] if key == "pool" else doc[key]["tasks"][0]).update(edit or {})
        (workdir / name / file).write_text(yaml.safe_dump(doc, sort_keys=False))
    return ["--configdir", name]


def _other_pool_configdir(workdir) -> list[str]:
    """--configdir of a copy of the example configs whose pool, and job, name pool `other`."""
    argv = _edited_configdir(workdir, "other", pool={"id": "other"})
    jobs = workdir / "other" / "jobs.yaml"
    jobs.write_text(jobs.read_text().replace("pool: snake2d2k35", "pool: other"))
    return argv


def _unjson_package(workdir) -> str:
    data = b"not json"
    with tarfile.open(workdir / "unjson.tar.gz", "w:gz") as tar:
        info = tarfile.TarInfo("manifest.json")
        info.size = len(data)
        tar.addfile(info, io.BytesIO(data))
    return "unjson.tar.gz"


# one dedicated and one low-priority node; the gang task outlives the low-priority one
LOW_PRIORITY = {"vm_count": {"dedicated": 1, "low_priority": 1}, "shared_filesystem": False}
LONG_TASK = {"workload": "fixed:200000"}
QUOTAS = ["quota", "set", "--region", "eastus", "--dedicated", "100"]

# id: (setup, failing argv, exit code, stderr); each setup step and argv runs in `workdir`
# and may make a config dir there first; {root} is the workdir
CLI_ERRORS = {
    "no-configdir": (lambda w: [INIT], lambda w: ["pool", "add"], 2,
                     "error: no configuration directory: pass --configdir or set "
                     "BATCHSIM_CONFIGDIR"),
    "ingress-source-not-a-directory": (
        lambda w: sequence()[:5], lambda w: ["data", "ingress", *CFG, "--source", "nowhere"],
        2, "error: ingress source is not a directory: {root}/nowhere"),
    "input-dir-without-directory": (
        lambda w: sequence()[:5],
        lambda w: ["data", "ingress", *_edited_configdir(w, "flat", task={"input_dir": "share"}),
                   "--source", "config_shipyard/inputs"],
        2, "error: task 'task0' input_dir must look like <share>/<directory>"),
    "download-source-without-directory": (
        lambda w: [INIT], lambda w: ["data", "download", "--source", "fileshare", "--dest", "o"],
        2, "error: --source must look like <share>/<directory>"),
    "verify-missing-archive": (
        lambda w: [INIT], lambda w: ["repro", "verify", "missing.tar.gz"],
        2, "error: no such archive: {root}/missing.tar.gz"),
    "verify-manifest-not-json": (
        lambda w: [INIT], lambda w: ["repro", "verify", _unjson_package(w)],
        2, "error: not a readable package: Expecting value: line 1 column 1 (char 0)"),
    "duplicate-pool-add": (lambda w: sequence()[:5], lambda w: ["pool", "add", *CFG], 2,
                           "error: pool already exists: 'snake2d2k35'"),
    "duplicate-jobs-add": (
        lambda w: [[*INIT, "--preemption-rate", "20", "--task-retries", "1"], QUOTAS,
                   ["pool", "add", *_edited_configdir(w, "lp", LOW_PRIORITY, LONG_TASK)],
                   ["jobs", "add", "--configdir", "lp"]],
        lambda w: ["jobs", "add", "--configdir", "lp"],
        2, "error: job already exists: 'snake2d2k35-job'"),
    "pack-without-completed-run": (lambda w: [INIT], lambda w: ["repro", "pack"], 2,
                                   "error: no completed run to pack: run a job or scenario "
                                   "first"),
    "help": (lambda w: [INIT], lambda w: ["--help"], 0, None),
    # the quota set below the cores of the live pool: unchecked, a RegionQuota of what is
    # left raised ValueError (exit 1)
    "pool-add-over-a-lowered-quota": (
        lambda w: [*sequence()[:5], ["quota", "set", "--region", "eastus", "--dedicated", "0"]],
        lambda w: ["pool", "add", *_other_pool_configdir(w)],
        2, "error: quota exceeded in region eastus: needed 48 cores, available -48"),
    # pool add checks quota before RDMA: unchecked at pool add, the config parse raised its
    # own RDMA text for this pool of two NC24 nodes first
    "rdma-pool-over-the-quota": (
        lambda w: [INIT], lambda w: ["pool", "add", *_edited_configdir(w, "nc24", {"sku": "NC24"})],
        2, "error: quota exceeded in region eastus: needed 48 cores, available 24"),
    # a download writes a share's files under <dest>/<share>: unchecked, a share `..` put
    # them beside <dest>
    **{f"share-name-{label}": (lambda w: [INIT, ACCOUNT],
                               lambda w, name=name: ["share", "create", "--name", name,
                                                     "--quota", "100"],
                               2, f"error: invalid share name: {name!r}")
       for label, name in (("dot-dot", ".."), ("dot", "."), ("slash", "a/b"), ("empty", ""))},
    "low-priority-in-scarcity-window": (
        lambda w: [[*INIT, "--scarcity", "0", "3600"], QUOTAS],
        lambda w: ["pool", "add", *_edited_configdir(w, "lp", LOW_PRIORITY)],
        3, "simulation error: low-priority capacity unavailable at t=0s"),
    # a commit writes only an entry that a replay accepts: unchecked, each exited 0 and
    # wrote an entry that made `repro verify` of its package exit 2
    "init-records-an-exponent-scarcity": (
        lambda w: [], lambda w: [*INIT, "--scarcity", "-0.00001", "5"],
        2, "error: not a recorded command: ['workspace', 'init', '--seed', '0', "
           "'--interconnect', 'azure', '--preemption-rate', '0.05', '--image-pull-seconds', "
           "'120.0', '--task-retries', '0', '--scarcity', '-1e-05', '5.0', '--configdir', "
           "'.batchsim/configs/95ad2d9e1a47']"),
    "share-name-like-a-flag": (
        lambda w: [INIT, ACCOUNT], lambda w: ["share", "create", "--name=-x", "--quota", "100"],
        2, "error: not a recorded command: ['share', 'create', '--name', '-x', '--quota', "
           "'100']"),
    "download-dest-like-a-flag": (
        lambda w: sequence()[:6],
        lambda w: ["data", "download", "--source", "fileshare/snake2d2k35", "--dest=-o"],
        2, "error: not a recorded command: ['data', 'download', '--source', "
           "'fileshare/snake2d2k35', '--dest', '-o']"),
}


@pytest.mark.parametrize("setup, argv, code, message", list(CLI_ERRORS.values()),
                         ids=list(CLI_ERRORS))
def test_cli_error_exits_with_its_code_and_line_without_mutation(workdir, monkeypatch, setup,
                                                                 argv, code, message):
    monkeypatch.delenv("BATCHSIM_CONFIGDIR", raising=False)
    for step in setup(workdir):
        ok(workdir, *step)
    argv = argv(workdir)
    before = tree(workdir)
    got, _, err = cli(workdir, *argv)
    assert (got, err) == (code, "" if message is None else message.format(root=workdir) + "\n")
    assert tree(workdir) == before


def _drop_time(state):
    del state["service"]["time"]


def _text_time(state):
    state["service"]["time"] = "soon"


def _number_pools(state):
    state["service"]["pools"] = 7


def _drop_transcript(state):
    del state["transcript"]


def _number_transcript(state):
    state["transcript"] = 5


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
    "number-transcript": _number_transcript,
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


def _with_derived_keys(state: dict) -> dict:
    """`state` with each node's id and priority and each pool's warnings, as state.json held
    them before they were derived from the pool's config and the node's position."""
    for pool in state["service"]["pools"]:
        config = pool["config"]
        warnings = configmod.pool_from_doc(config, ("state.json", "")).warnings
        pool["warnings"] = [{"rule": rule, "message": text} for rule, text in warnings.items()]
        for i, node in enumerate(pool["nodes"]):
            node["id"] = f"{config['id']}/{i}"
            node["priority"] = ("dedicated" if i < config["vm_count"]["dedicated"]
                                else "low_priority")
    return state


def _with_dropped_keys(state: dict, events: str) -> dict:
    """`state` with the keys that state.json held before they were dropped, valued as they
    were written: derived from the rest of the state, from events.log and from the keys."""
    svc = _with_derived_keys(state)["service"]
    state["storage_account_created"] = ["storage", "account", "create"] in state["transcript"]
    state["has_completed_run"] = any(  # a finished task: what `repro pack` asks the service
        row[7] in ("Completed", "Failed") for job in svc["jobs"] for row in job["tasks"])
    state["ingress_seq"] = sum(argv[:2] == ["data", "ingress"] for argv in state["transcript"])
    state["credentials_digest"] = {"storage_key": hashlib.sha256(b"storagekey").hexdigest(),
                                   "batch_key": hashlib.sha256(b"batchkey").hexdigest()}
    svc["quota_used"] = {"eastus": [48, 24], "colonial": [0, 0]}  # the live NC24r pool
    svc["transfers"] = [
        {"direction": text.split(":")[0].capitalize(), "bytes": int(text.split(":")[1]),
         "timestamp": float(time)}
        for time, _, text in (line.split("\t") for line in events.splitlines())
        if text.startswith(("ingress:", "egress:"))]
    svc["pool_plans"] = {p["config"]["id"]: "paygo_dedicated" for p in svc["pools"]}
    for pool in svc["pools"]:
        pool["plan"] = "paygo_dedicated"
        for node in pool["nodes"]:  # one boot latency a pool, then the image pull
            node["boot_latency"] = round(node["ready_time"] - pool["created_at"] - 120.0)
            node["sku"] = pool["config"]["sku"]
        for warning in pool["warnings"]:
            warning["severity"] = "warning"
    for share in svc["shares"]:
        share["directories"] = sorted({posixpath.dirname(e["path"]) for e in share["entries"]})
    for item in svc["ledger"]:
        item["plan"] = (None if item["sku"] is None else "paygo_low_priority"
                        if "(low_priority)" in item["description"] else "paygo_dedicated")
    return state


DROPPED_KEYS = ("credentials_digest", "quota_used", "transfers", "pool_plans", "boot_latency",
                "severity", "directories", '"plan":', "storage_account_created", "ingress_seq",
                "has_completed_run", "warnings", '"priority":')  # and a node's "id" and "sku"


def test_state_carrying_the_dropped_keys_runs_on_and_drops_them(tmp_path):
    """A format-3 state.json written before its write-only and derived fields were dropped
    still holds them: `status` prints what it prints without them, and the next command
    that commits writes none of them."""
    shutil.copytree(EXAMPLE_DIR, tmp_path / "config_shipyard")
    pool_yaml = tmp_path / "config_shipyard" / "pool.yaml"
    pool_doc = yaml.safe_load(pool_yaml.read_text())
    pool_doc["pool"]["vm_count"] = {"dedicated": 2, "low_priority": 1}  # warns: inter-node comm
    pool_doc["pool"]["shared_filesystem"] = False
    pool_yaml.write_text(yaml.safe_dump(pool_doc, sort_keys=False))
    for argv in [*sequence(), ["pool", "add", *CFG]]:  # a billed pool, then a live one
        ok(tmp_path, *argv)
    path = tmp_path / ".batchsim" / "state.json"
    text = path.read_text()
    status = ok(tmp_path, "status")
    old = _with_dropped_keys(json.loads(text), (path.parent / "events.log").read_text())
    svc = old["service"]
    assert [len(svc["transfers"]), len(svc["pools"][0]["warnings"])] == [2, 1]
    assert [old["storage_account_created"], old["ingress_seq"], old["has_completed_run"]] == [
        True, 1, True]
    assert {i["plan"] for i in svc["ledger"]} == {None, "paygo_dedicated", "paygo_low_priority"}
    assert svc["shares"][0]["directories"] == ["snake2d2k35", "snake2d2k35/output"]
    path.write_text(json.dumps(old, separators=(",", ":"), sort_keys=True))
    assert ok(tmp_path, "status") == status
    assert path.read_text() != text
    ok(tmp_path, "pool", "del", *CFG)
    written = path.read_text()
    assert [key for key in DROPPED_KEYS if key in written] == []
    assert json.loads(written).keys() == statemod.STATE.keys()
    nodes = [n for p in json.loads(written)["service"]["pools"] for n in p["nodes"]]
    assert nodes and [n for n in nodes if {"sku", "id"} & n.keys()] == []  # pool config keys


def test_pool_add_prints_the_warnings_of_its_config_before_the_pool(workdir):
    """`pool add` of a pool with low-priority nodes and inter-node communication prints the
    rule and message of its one warning, then the pool line."""
    pool_yaml = workdir / "config_shipyard" / "pool.yaml"
    pool_doc = yaml.safe_load(pool_yaml.read_text())
    pool_doc["pool"].update(vm_count={"dedicated": 1, "low_priority": 1}, shared_filesystem=False)
    pool_yaml.write_text(yaml.safe_dump(pool_doc, sort_keys=False))
    ok(workdir, *INIT)
    ok(workdir, "quota", "set", "--region", "eastus", "--dedicated", "100", "--low-priority", "100")
    assert ok(workdir, "pool", "add", *CFG) == (
        "warning: LowPriorityInterNodeComm: low-priority nodes are preemptible and best avoided "
        "for long-running jobs with inter-node communication\n"
        "pool snake2d2k35: Steady (1 dedicated, 1 low-priority NC24r)\n")


def _with_full_busy_logs(state: dict) -> dict:
    """`state` with each node's busy_log as state.json held it before the intervals that a
    task row records were left out: every interval, in the order they ended; and with each
    node's sku, id and priority, each pool's warnings and the has_completed_run flag, which
    state.json held then too."""
    svc = _with_derived_keys(state)["service"]
    state["has_completed_run"] = True
    for pool in svc["pools"]:
        for node in pool["nodes"]:
            node["sku"] = pool["config"]["sku"]
    created = {p["config"]["id"]: p["created_at"] for p in svc["pools"]}
    logs = {(p["config"]["id"], n["id"]): n["busy_log"] for p in svc["pools"] for n in p["nodes"]}
    for job in svc["jobs"]:
        for task_id, *_, nodes, start, end, _, attempts in job["tasks"]:
            if start is not None and start > created[job["pool"]]:
                for node_id in nodes:
                    logs[job["pool"], node_id].append(
                        [start, end, f"task/{job['id']}/{task_id}#{attempts}"])
    for log in logs.values():
        log.sort(key=lambda b: (b[1], b[0]))
    return state


def _busy_logs(root) -> dict:
    """Each node's busy_log after the workspace's state.json is loaded."""
    state = json.loads((root / ".batchsim" / "state.json").read_text())
    svc = statemod.service_from_doc(state["service"],
                                    statemod.ServiceOptions.from_doc(state["options"]))
    return {n.node_id: n.busy_log for p in svc.pools.values() for n in p.nodes}


# the state.json that BUSY_SESSION left while every busy interval was stored
FULL_BUSY_LOG_STATE_SHA256 = "542ddb642c961ffb83229b20922f9636f7dbcc3162dec07b46ab41cbfcc501c6"
BUSY_SESSION = [
    [*INIT, "--seed", "1", "--preemption-rate", "0.2", "--task-retries", "1"],
    ACCOUNT,
    ["share", "create", "--name", "fileshare", "--quota", "100"],
    ["quota", "set", "--region", "eastus", "--dedicated", "100", "--low-priority", "100"],
    ["pool", "add", *CFG],
    ["jobs", "add", *CFG],  # preempted on a low-priority node, then run again
    ["jobs", "add", *CFG],  # the same job id again: these tags are the task row's now
    ["pool", "del", *CFG],
]


def test_state_with_full_busy_logs_loads_them_once_and_is_written_short(tmp_path):
    """A format-3 state.json written before the intervals that task rows record were left
    out holds every interval: it loads the same busy logs, and the next command that
    commits writes the short form."""
    roots = tmp_path / "short", tmp_path / "full"
    for root in roots:
        shutil.copytree(EXAMPLE_DIR, root / "config_shipyard")
        pool_yaml = root / "config_shipyard" / "pool.yaml"
        pool_doc = yaml.safe_load(pool_yaml.read_text())
        pool_doc["pool"]["vm_count"] = {"dedicated": 1, "low_priority": 2}
        pool_doc["pool"]["shared_filesystem"] = False
        pool_yaml.write_text(yaml.safe_dump(pool_doc, sort_keys=False))
        for argv in BUSY_SESSION:
            ok(root, *argv)
    short, full = roots
    path = full / ".batchsim" / "state.json"
    state = json.loads(path.read_text())
    stored = [b for p in state["service"]["pools"] for n in p["nodes"] for b in n["busy_log"]]
    assert sorted(tag for _, _, tag in stored) == [  # the first run of the job, twice retried
        "task/snake2d2k35-job/task0#0", "task/snake2d2k35-job/task0#0",
        "task/snake2d2k35-job/task0#1", "task/snake2d2k35-job/task0#1"]
    text = json.dumps(_with_full_busy_logs(state), separators=(",", ":"), sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == FULL_BUSY_LOG_STATE_SHA256
    path.write_text(text)
    assert _busy_logs(full) == _busy_logs(short)
    assert sum(map(len, _busy_logs(full).values())) == len(stored) + 2
    assert ok(full, "status") == ok(short, "status")
    for root in roots:
        ok(root, "quota", "set", "--region", "eastus", "--dedicated", "50")
    assert tree(full) == tree(short)


def test_state_with_an_unread_option_drops_it_on_the_next_commit(workdir):
    """`options` is written back from the options that were read, so a key inside it that
    nothing reads is gone after the next committing command."""
    ok(workdir, *INIT)
    path = workdir / ".batchsim" / "state.json"
    state = json.loads(path.read_text())
    options = dict(state["options"])
    state["options"]["egress_usd_per_gib"] = "0.087"
    path.write_text(json.dumps(state))
    ok(workdir, "quota", "set", "--region", "eastus", "--dedicated", "100")
    assert json.loads(path.read_text())["options"] == options


def test_pool_with_another_pricing_plan_in_state_exits_2_without_mutation(workdir):
    """Only `pool add --plan`, which is gone, wrote a pool plan other than paygo_dedicated;
    such a workspace is not re-priced by node priority, it is refused."""
    for argv in sequence()[:5]:  # through `pool add`
        ok(workdir, *argv)
    path = workdir / ".batchsim" / "state.json"
    state = json.loads(path.read_text())
    state["service"]["pools"][0]["plan"] = "reserved_3yr"
    path.write_text(json.dumps(state))
    before = tree(workdir)
    code, _, err = cli(workdir, "pool", "del", *CFG)
    assert (code, err) == (
        2, "error: corrupt state: pricing plan 'reserved_3yr' of pool snake2d2k35\n")
    assert tree(workdir) == before


@pytest.mark.parametrize("done, argv, message", [
    ([INIT, ACCOUNT], ACCOUNT, "storage account already created: reprostorage"),
    ([INIT], ["share", "create", "--name", "fileshare", "--quota", "100"],
     "no storage account: run `batchsim storage account create`"),
], ids=["second-account", "share-before-account"])
def test_storage_account_order_is_read_from_the_transcript(workdir, done, argv, message):
    for step in done:
        ok(workdir, *step)
    before = tree(workdir)
    assert cli(workdir, *argv) == (2, "", f"error: {message}\n")
    assert tree(workdir) == before


def test_each_ingress_records_the_next_manifest(workdir):
    for argv in sequence()[:6]:  # through the first `data ingress`
        ok(workdir, *argv)
    (workdir / "user.yaml").write_text("entries:\n- {path: extra.bin, bytes: 7}\n")
    ok(workdir, "data", "ingress", *CFG, "--manifest", "user.yaml")
    ingress = workdir / ".batchsim" / "ingress"
    assert sorted(p.name for p in ingress.iterdir()) == ["0001.json", "0002.json"]
    assert json.loads((ingress / "0002.json").read_text()) == {"entries": [["extra.bin", 7]]}
    transcript = json.loads((workdir / ".batchsim" / "state.json").read_text())["transcript"]
    assert [argv[3] for argv in transcript if argv[:3] == ["data", "ingress", "--manifest"]] == [
        ".batchsim/ingress/0001.json", ".batchsim/ingress/0002.json"]


def test_download_counts_zero_byte_entries(workdir):
    for argv in sequence()[:5]:  # through `pool add`
        ok(workdir, *argv)
    (workdir / "user.yaml").write_text("entries:\n- {path: z.bin, bytes: 0}\n")
    ok(workdir, "data", "ingress", *CFG, "--manifest", "user.yaml")
    out = ok(workdir, "data", "download", "--source", "fileshare/snake2d2k35", "--dest", "out")
    assert out == f"downloaded 1 files (0 bytes) to {workdir / 'out'}\n"
    assert (workdir / "out" / "fileshare" / "snake2d2k35" / "z.bin").read_bytes() == b""


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


def _entry(state, content: bool) -> dict:
    """The first share entry that holds content (a task output) or only a size (ingress)."""
    entries = state["service"]["shares"][0]["entries"]
    return next(e for e in entries if (e["content_hex"] is not None) is content)


@pytest.mark.parametrize("content", [False, True], ids=["size-only", "artifact"])
def test_tampered_share_digest_exits_2_without_mutation(workdir, content):
    """state.json records each entry's digest; one that its content or size does not give
    is corrupt state."""
    for argv in sequence()[:7]:  # through `jobs add`, which stores run.log
        ok(workdir, *argv)
    path = workdir / ".batchsim" / "state.json"
    state = json.loads(path.read_text())
    entry = _entry(state, content)
    entry["digest"] = entry["digest"][::-1]
    path.write_text(json.dumps(state))
    before = tree(workdir)
    code, _, err = cli(workdir, "status")
    assert (code, err) == (
        2, f"error: corrupt state: digest {entry['digest']!r} of fileshare/{entry['path']}\n")
    assert tree(workdir) == before


def test_tampered_content_size_exits_2_without_mutation(workdir):
    """An artifact's digest covers only its content; a size it does not have would be
    billed as egress on download."""
    for argv in sequence()[:7]:  # through `jobs add`, which stores run.log
        ok(workdir, *argv)
    path = workdir / ".batchsim" / "state.json"
    state = json.loads(path.read_text())
    entry = _entry(state, True)
    entry["size"] = 10**12
    path.write_text(json.dumps(state))
    before = tree(workdir)
    code, _, err = cli(workdir, "status")
    assert (code, err) == (
        2, f"error: corrupt state: size 1000000000000 of fileshare/{entry['path']}\n")
    assert tree(workdir) == before


def test_negative_preemption_rate_in_state_exits_2_without_mutation(workdir):
    ok(workdir, *INIT)
    path = workdir / ".batchsim" / "state.json"
    state = json.loads(path.read_text())
    state["options"]["preemption_rate"] = -1.0
    path.write_text(json.dumps(state))
    before = tree(workdir)
    code, _, err = cli(workdir, "status")
    assert (code, err) == (2, "error: corrupt state: preemption_rate -1.0 of options\n")
    assert tree(workdir) == before


def _node(state) -> dict:
    return state["service"]["pools"][0]["nodes"][0]


def _share(state) -> dict:
    return state["service"]["shares"][0]


def _pool(state) -> dict:
    return state["service"]["pools"][0]


def _job(state) -> dict:
    return state["service"]["jobs"][0]


def _second_pool(state, **config):
    """Add a copy of the first pool as pool `other`, `config` merged into its config."""
    pool = json.loads(json.dumps(_pool(state)))
    pool["config"].update(id="other", **config)
    state["service"]["pools"].append(pool)


def _twice(state, records: str):
    """Append a copy of the first of the service's `records`: pools, jobs or shares."""
    state["service"][records].append(json.loads(json.dumps(state["service"][records][0])))


def _add_ledger_item(state, **edit):
    """Add a Bandwidth item of 0 USD, with `edit` merged in, to a ledger with none yet."""
    state["service"]["ledger"].append({"category": "Bandwidth", "usd": "0/1", "sku": None,
                                       "description": "egress:0", "interval": [0.0, 0.0],
                                       "node_seconds": None, **edit})


# (change to the state, error text): pool, node, job and share fields that no command writes;
# unchecked, `pool del` fails on the text time (exit 1), and the others load and are written
# back (a share quota of "100" as 100)
POOL_NODE_CORRUPTIONS = {
    "ready-time-text": (lambda state: _node(state).update(ready_time="soon"),
                        "ready_time 'soon' of node snake2d2k35/0"),
    "busy-log-text": (lambda state: _node(state).update(busy_log=[["a", "b"]]),
                      "busy_log [['a', 'b']] of node snake2d2k35/0"),
    "created-at-null": (lambda state: state["service"]["pools"][0].update(created_at=None),
                        "created_at None of pool snake2d2k35"),
    "submitted-at-text": (lambda state: state["service"]["jobs"][0].update(submitted_at="soon"),
                          "submitted_at 'soon' of job snake2d2k35-job"),
    # no stored instant but a preempt_at is later than the service time
    "ready-time-future": (lambda state: _node(state).update(ready_time=1e300),
                          "ready_time 1e+300 of node snake2d2k35/0"),
    "steady-at-future": (lambda state: state["service"]["pools"][0].update(steady_at=1e300),
                         "steady_at 1e+300 of pool snake2d2k35"),
    "share-quota-text": (lambda state: _share(state).update(quota_gib="100"),
                         "quota_gib '100' of share fileshare"),
    "share-quota-float": (lambda state: _share(state).update(quota_gib=100.0),
                          "quota_gib 100.0 of share fileshare"),
    "share-quota-bool": (lambda state: _share(state).update(quota_gib=True),
                         "quota_gib True of share fileshare"),
    "share-quota-negative": (lambda state: _share(state).update(quota_gib=-1),
                             "quota_gib -1 of share fileshare"),
    # run.log of 67 B, whose digest covers only its content
    "entry-size-text": (lambda state: _entry(state, True).update(size="67"),
                        "size '67' of fileshare/snake2d2k35/output/run.log"),
    "entry-size-float": (lambda state: _entry(state, True).update(size=67.0),
                         "size 67.0 of fileshare/snake2d2k35/output/run.log"),
    "entry-size-bool": (lambda state: _entry(state, True).update(size=True),
                        "size True of fileshare/snake2d2k35/output/run.log"),
    # leaves that no check reached: unchecked, each loaded (exit 0), or exited 2 with a
    # Python message (entry path, pool state, content_hex)
    "job-pool-number": (lambda state: _job(state).update(pool=5),
                        "pool 5 of job snake2d2k35-job"),
    "job-pool-unknown": (lambda state: _job(state).update(pool="nope"),
                         "pool 'nope' of job snake2d2k35-job"),
    "job-id-number": (lambda state: _job(state).update(id=5), "id 5 of job 5"),
    "share-name-number": (lambda state: _share(state).update(name=5), "name 5 of share 5"),
    "share-name-dot-dot": (lambda state: _share(state).update(name=".."),
                           "name '..' of share .."),
    # a pool config of a SKU or region not in the catalog: unchecked, an unknown SKU was
    # `SKU not in catalog` at its first lookup, and an unknown region loaded
    "pool-sku-unknown": (lambda state: _pool(state)["config"].update(sku="x"),
                         "config sku 'x', region 'eastus' of pool snake2d2k35"),
    "pool-region-unknown": (lambda state: _pool(state)["config"].update(region="x"),
                            "config sku 'NC24r', region 'x' of pool snake2d2k35"),
    "workspace-region-number": (lambda state: state["workspace"].update(region=5),
                                "state.json: key 'workspace.region': expected a non-empty "
                                "string"),
    "ledger-sku-number": (lambda state: _add_ledger_item(state, sku=5),
                          "sku 5 of ledger item 0"),
    "ledger-description-number": (lambda state: _add_ledger_item(state, description=5),
                                  "description 5 of ledger item 0"),
    "entry-path-number": (lambda state: _entry(state, True).update(path=5),
                          "path 5 of fileshare/5"),
    "entry-path-leaves-share": (lambda state: _entry(state, True).update(path="../../x"),
                                "path '../../x' of fileshare/../../x"),
    "pool-state-unknown": (lambda state: _pool(state).update(state="Bogus"),
                           "state 'Bogus' of pool snake2d2k35"),
    "content-hex-not-hex": (lambda state: _entry(state, True).update(content_hex="zz"),
                            "content_hex 'zz' of fileshare/snake2d2k35/output/run.log"),
    # a dedicated node is never preempted: unchecked, `jobs add` ran into the preemption
    # (exit 1), and `pool del` wrote it back
    "dedicated-preempt-at": (lambda state: _node(state).update(preempt_at=1e9),
                             "preempt_at 1000000000.0 of node snake2d2k35/0"),
    # a pending preemption is never earlier than the clock: unchecked, each command exited 0
    # with the preemption moved to the service time (node 0 is low-priority by vm_count)
    "preempt-at-past": (lambda state: (_pool(state)["config"]["vm_count"].update(
        dedicated=0, low_priority=2), _node(state).update(preempt_at=1.0)),
                        "preempt_at 1.0 of node snake2d2k35/0"),
    "node-number": (lambda state: _pool(state).update(nodes=[5]),
                    "nodes [5] of pool snake2d2k35"),
    # a pool holds the nodes of its vm_count: unchecked, a record too few before any task ran
    # left a task that needs both nodes Pending after `jobs add`, and a record too many was a
    # low-priority node that `pool del` billed
    "node-dropped": (lambda state: _pool(state)["nodes"].pop(),
                     "node count 1 of pool snake2d2k35"),
    "node-added": (lambda state: _pool(state)["nodes"].append(dict(_node(state))),
                   "node count 3 of pool snake2d2k35"),
    "task-row-number": (lambda state: _job(state).update(tasks=[5]),
                        "tasks [5] of job snake2d2k35-job"),
    # an error in a document embedded in state.json names its record; each was
    # `state.json: key '<key>': `, naming no pool or job
    "second-pool-config": (lambda state: _second_pool(state, image=None),
                           "state.json: key 'service.pools[1].config.image': expected a "
                           "non-empty string"),
    "task-row-workload": (lambda state: _job(state)["tasks"][0].__setitem__(1, "bogus"),
                          "state.json: key 'service.jobs[0].tasks[0].workload': unknown "
                          "workload reference 'bogus'"),
    # a task row is read on its own path, which no table reaches; an error there kept the
    # name of the exception
    "task-nodes-number": (lambda state: _job(state)["tasks"][0].__setitem__(8, 5),
                          "task row ['task0', 'fixed:25200', 2, 12, 2, 'fileshare/snake2d2k35', "
                          "'fileshare/snake2d2k35/output', 'Completed', 5, 400.0, 25600.0, None, "
                          "0] of job snake2d2k35-job"),
    # ids are unique: unchecked, a pool, job or share twice loaded keeping one of the two
    "pool-twice": (lambda state: _twice(state, "pools"), "pool 'snake2d2k35' twice"),
    "job-twice": (lambda state: _twice(state, "jobs"), "job 'snake2d2k35-job' twice"),
    "share-twice": (lambda state: _twice(state, "shares"), "share 'fileshare' twice"),
}


@pytest.mark.parametrize("argv", [["jobs", "add", *CFG], ["pool", "del", *CFG]],
                         ids=["jobs-add", "pool-del"])
@pytest.mark.parametrize("corrupt, message", list(POOL_NODE_CORRUPTIONS.values()),
                         ids=list(POOL_NODE_CORRUPTIONS))
def test_corrupt_pool_or_node_field_exits_2_without_mutation(workdir, corrupt, message, argv):
    for step in sequence()[:7]:  # through `jobs add`
        ok(workdir, *step)
    path = workdir / ".batchsim" / "state.json"
    state = json.loads(path.read_text())
    corrupt(state)
    path.write_text(json.dumps(state))
    before = tree(workdir)
    # the embedded documents are read by config.py, in its `state.json: key ...` form
    text = message if message.startswith("state.json: ") else f"corrupt state: {message}"
    assert cli(workdir, *argv) == (2, "", f"error: {text}\n")
    assert tree(workdir) == before


# (change to the state, error text): a value of another type than the one a command
# writes; unchecked, each loaded and the next commit wrote it back converted
CONVERTED_VALUES = {
    "seed-text": (lambda state: state["options"].update(seed="7"), "seed '7' of options"),
    "rate-text": (lambda state: state["options"].update(preemption_rate="0.05"),
                  "preemption_rate '0.05' of options"),
    "pull-seconds-bool": (lambda state: state["options"].update(image_pull_seconds=True),
                          "image_pull_seconds True of options"),
    "retries-fraction": (lambda state: state["options"].update(task_retries=0.5),
                         "task_retries 0.5 of options"),
    "scarcity-text": (lambda state: state["options"].update(scarcity_windows=[["1", "2"]]),
                      "scarcity_windows [['1', '2']] of options"),
    "time-text": (lambda state: state["service"].update(time="322.0"),
                  "time '322.0' of service"),
    "quota-text": (lambda state: state["service"]["quotas"].update(eastus=["100", 24]),
                   "quota ['100', 24] of region eastus"),
    "quota-bool": (lambda state: state["service"]["quotas"].update(eastus=[100, True]),
                   "quota [100, True] of region eastus"),
    # unchecked, these loaded too: an unknown region was written back, and an unknown
    # interconnect was a KeyError
    "quota-unknown-region": (lambda state: state["service"]["quotas"].update(mars=[24, 24]),
                             "region 'mars' of region mars"),
    "interconnect-unknown": (lambda state: state["options"].update(interconnect="bogus"),
                             "interconnect 'bogus' of options"),
}


@pytest.mark.parametrize("corrupt, message", list(CONVERTED_VALUES.values()),
                         ids=list(CONVERTED_VALUES))
def test_wrong_typed_option_time_or_quota_exits_2_without_mutation(workdir, corrupt, message):
    for step in sequence()[:5]:  # through `pool add`
        ok(workdir, *step)
    path = workdir / ".batchsim" / "state.json"
    state = json.loads(path.read_text())
    corrupt(state)
    path.write_text(json.dumps(state))
    before = tree(workdir)
    argv = ["quota", "set", "--region", "eastus", "--dedicated", "90"]
    assert cli(workdir, *argv) == (2, "", f"error: corrupt state: {message}\n")
    assert tree(workdir) == before


@pytest.fixture(scope="module")
def readme_workspace(tmp_path_factory):
    """The README session's workspace through `data download`, with its pool added again:
    it holds a job, share entries, VM and Bandwidth ledger items and a live pool."""
    root = tmp_path_factory.mktemp("readme")
    shutil.copytree(EXAMPLE_DIR, root / "config_shipyard")
    for argv in [*sequence()[:7], *sequence()[8:9], *sequence()[10:], ["pool", "add", *CFG]]:
        ok(root, *argv)
    return root


@pytest.fixture(scope="module")
def retry_workspace(tmp_path_factory):
    """BUSY_SESSION's workspace before its `pool del`: gang tasks retried after their
    low-priority nodes were preempted, a job added again under its id, intervals stored in
    busy logs, and a live pool whose low-priority nodes have preemptions pending."""
    root = tmp_path_factory.mktemp("retry")
    shutil.copytree(EXAMPLE_DIR, root / "config_shipyard")
    pool_yaml = root / "config_shipyard" / "pool.yaml"
    pool_doc = yaml.safe_load(pool_yaml.read_text())
    pool_doc["pool"].update(vm_count={"dedicated": 1, "low_priority": 2},
                            shared_filesystem=False)
    pool_yaml.write_text(yaml.safe_dump(pool_doc, sort_keys=False))
    for argv in BUSY_SESSION[:-1]:
        ok(root, *argv)
    return root


# the table of each record that nests in another, by the key it is found under
NESTED = {"workspace": configmod.WORKSPACE, "config": configmod.POOL_CONFIG,
          "vm_count": configmod.VM_COUNT, "options": statemod.OPTIONS,
          "service": statemod.SERVICE, "pools": statemod.POOL, "nodes": statemod.NODE,
          "jobs": statemod.JOB, "shares": statemod.SHARE,
          "entries": statemod.ENTRY, "ledger": statemod.LEDGER_ITEM}


def _table_leaves(doc, table=statemod.STATE, path=()):
    """The path of each value in `doc`, a record of `table`, that a field table checks:
    every key of every record, each region's quota, each busy_log row, and each value of
    each task row."""
    for key in table:
        yield (*path, key)
        value, nested = doc[key], NESTED.get(key)
        if isinstance(value, dict) and nested is not None:
            yield from _table_leaves(value, nested, (*path, key))
        elif nested is not None:
            for i, record in enumerate(value):
                yield from _table_leaves(record, nested, (*path, key, i))
        elif key == "quotas" and value is not None:
            yield from ((*path, key, region) for region in value)
        elif key == "busy_log":
            yield from ((*path, key, i) for i in range(len(value)))
        elif key == "tasks":
            yield from ((*path, key, i, k) for i, row in enumerate(value) for k in range(len(row)))


# the commands that the property below runs on an edited state, each on its own copy
LEAF_COMMANDS = (["status"], ["pool", "del", *CFG], ["jobs", "add", *CFG], ["ledger", "report"],
                 ["repro", "pack"])
# what a field-table error and the readers of embedded documents print
CORRUPT_STATE_ERROR = re.compile(r"error: (corrupt state: (\w+ .+ of .+|unsupported state "
                                 r"version .+)|state\.json: key '[\w.\[\]]+': .+)\n")


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(st.data())
def test_a_table_leaf_of_another_kind_exits_2_without_mutation(readme_workspace,
                                                               retry_workspace, data):
    """Any leaf that a field table checks, in the README session's state or in one with
    retried tasks and preempted low-priority nodes, set to a value of another JSON kind,
    either loads or is exit 2 with the table's message, `.batchsim/` byte-identical, in each
    of LEAF_COMMANDS run on its own copy of the edited workspace."""
    workspace = data.draw(st.sampled_from([readme_workspace, retry_workspace]))
    state = json.loads((workspace / ".batchsim" / "state.json").read_text())
    leaf = data.draw(st.sampled_from(list(_table_leaves(state))))
    value = data.draw(st.sampled_from([None, "x", -1, 1e308, [1], True]))
    record = state
    for key in leaf[:-1]:
        record = record[key]
    record[leaf[-1]] = value
    for argv in LEAF_COMMANDS:
        with tempfile.TemporaryDirectory(prefix="batchsim-leaf-") as tmp:
            root = Path(tmp)
            shutil.copytree(workspace, root, dirs_exist_ok=True)
            (root / ".batchsim" / "state.json").write_text(json.dumps(state))
            before = tree(root)
            code, _, err = cli(root, *argv)
            assert code in (0, 2, 3, 64), (argv, err)
            if code:
                assert code == 2 and CORRUPT_STATE_ERROR.fullmatch(err), (argv, err)
                assert tree(root) == before, argv


def _is_not_read_and_is_dropped(tmp_path, edit):
    """The README session through `jobs add` with `edit` made to its state.json leaves, after
    `pool del`, the tree of the session without the edit."""
    roots = tmp_path / "plain", tmp_path / "edited"
    for root in roots:
        shutil.copytree(EXAMPLE_DIR, root / "config_shipyard")
        for step in sequence()[:7]:  # through `jobs add`
            ok(root, *step)
    path = roots[1] / ".batchsim" / "state.json"
    state = json.loads(path.read_text())
    edit(state)
    path.write_text(json.dumps(state))
    for root in roots:
        ok(root, "pool", "del", *CFG)
    assert tree(roots[1]) == tree(roots[0])


def test_node_sku_in_state_is_not_read_and_is_dropped(tmp_path):
    """A node is its pool's SKU: a node `sku` in state.json, as older states hold it, is
    not read, and the next commit leaves the tree of a session without it."""
    _is_not_read_and_is_dropped(tmp_path, lambda state: _node(state).update(sku=5))


# state.json edits of what a pool's config and a node's position give, each of a value
# that was once exit 2 or that contradicts the pool's vm_count
DERIVED_FIELDS = {
    "warning-rule-number": lambda state: _pool(state).update(warnings=[{"rule": 5}]),
    "warnings-text": lambda state: _pool(state).update(warnings="x"),
    "node-priority-unknown": lambda state: _node(state).update(priority="Bogus"),
    "node-priority-against-vm-count": lambda state: _node(state).update(priority="low_priority"),
    "node-id-twice": lambda state: _pool(state)["nodes"][1].update(id="snake2d2k35/0"),
}


@pytest.mark.parametrize("edit", list(DERIVED_FIELDS.values()), ids=list(DERIVED_FIELDS))
def test_stored_warnings_node_id_or_priority_is_not_read_and_is_dropped(tmp_path, edit):
    """A pool's warnings follow from its config, and node `i` of a pool is `<pool>/<i>`,
    dedicated if among the first `vm_count.dedicated`: those fields in state.json, as older
    states hold them, are not read, whatever their values, and the next commit leaves the
    tree of a session without them."""
    _is_not_read_and_is_dropped(tmp_path, edit)


def _row(index, value):
    """Sets position `index` of the first job's first task row to `value`; positions 0-6
    are the spec."""
    def corrupt(jobs):
        jobs[0]["tasks"][0][index] = value
    return corrupt


ROW_SPEC = ("'task0', 'fixed:25200', 2, 12, 2, 'fileshare/snake2d2k35', "
            "'fileshare/snake2d2k35/output'")
ROW_NODES = "['snake2d2k35/0', 'snake2d2k35/1']"


def _bad_row(rest: str, job: str = "snake2d2k35-job") -> str:
    """The stderr of a row of `job` whose values after the spec print as `rest`."""
    return f"error: corrupt state: task row [{ROW_SPEC}, {rest}] of job {job}\n"


def _bad_key(key: str, why: str, job: int = 0) -> str:
    return f"error: state.json: key 'service.jobs[{job}].tasks[0].{key}': {why}\n"


def _later_jobs(index, value, third_job):
    """Two copies of the job after it: the row of the one named `second` gets `value` at
    `index`, and `third_job` edits the other."""
    def corrupt(jobs):
        second = json.loads(json.dumps(jobs[0]))
        second["id"] = "second"
        third = json.loads(json.dumps(second))
        second["tasks"][0][index] = value
        third_job(third)
        jobs += [second, third]
    return corrupt


# (corruption of the service's jobs, stderr); recorded before the rows were checked a
# column at a time
ROW_CORRUPTIONS = {
    "blank-id": (_row(0, " "), _bad_key("id", "expected a non-empty string")),
    "unknown-workload": (_row(1, "nosuch:1"),
                         _bad_key("workload", "unknown workload reference 'nosuch:1'")),
    "string-instances": (_row(2, "2"), _bad_key("instances", "expected an integer")),
    "zero-procs": (_row(3, 0), _bad_key("procs_per_node", "must be at least 1")),
    "bool-gpus": (_row(4, True), _bad_key("gpus_per_node", "expected an integer")),
    "running-state": (_row(7, "Running"),
                      _bad_row(f"'Running', {ROW_NODES}, 400.0, 25600.0, None, 0")),
    "staging-state": (_row(7, "Staging"),
                      _bad_row(f"'Staging', {ROW_NODES}, 400.0, 25600.0, None, 0")),
    "unknown-failure-reason": (
        _row(11, "Crashed"), _bad_row(f"'Completed', {ROW_NODES}, 400.0, 25600.0, 'Crashed', 0")),
    "unknown-node": (_row(8, ["snake2d2k35/9"]),
                     "error: corrupt state: task node 'snake2d2k35/9' of "
                     "task/snake2d2k35-job/task0#0 is not in pool snake2d2k35\n"),
    "text-end-time": (_row(10, "soon"),
                      _bad_row(f"'Completed', {ROW_NODES}, 400.0, 'soon', None, 0")),
    "infinite-end-time": (_row(10, float("inf")),
                          _bad_row(f"'Completed', {ROW_NODES}, 400.0, inf, None, 0")),
    "late-end-time": (_row(10, 1e300),
                      _bad_row(f"'Completed', {ROW_NODES}, 400.0, 1e+300, None, 0")),
    "end-before-start": (_row(10, 0.0), "error: corrupt state: task times 400.0, 0.0 of "
                                        "task/snake2d2k35-job/task0#0\n"),
    "fractional-attempts": (_row(12, 0.5),
                            _bad_row(f"'Completed', {ROW_NODES}, 400.0, 25600.0, None, 0.5")),
    "negative-attempts": (_row(12, -1),
                          _bad_row(f"'Completed', {ROW_NODES}, 400.0, 25600.0, None, -1")),
    "short-row": (lambda jobs: jobs[0]["tasks"][0].pop(),
                  "error: corrupt state: task row of 12 values\n"),
    # each exited 2 with a Python message, or (the node listed twice) loaded
    "number-nodes": (_row(8, 5), _bad_row("'Completed', 5, 400.0, 25600.0, None, 0")),
    "nested-node": (_row(8, [["x"]]), _bad_row("'Completed', [['x']], 400.0, 25600.0, None, 0")),
    "list-state": (_row(7, ["Completed"]),
                   _bad_row(f"['Completed'], {ROW_NODES}, 400.0, 25600.0, None, 0")),
    "mapping-failure-reason": (
        _row(11, {"a": 1}), _bad_row(f"'Completed', {ROW_NODES}, 400.0, 25600.0, {{'a': 1}}, 0")),
    "text-start-time": (_row(9, "x"),
                        _bad_row(f"'Completed', {ROW_NODES}, 'x', 25600.0, None, 0")),
    "node-twice": (_row(8, ["snake2d2k35/0", "snake2d2k35/0"]), _bad_row(
        "'Completed', ['snake2d2k35/0', 'snake2d2k35/0'], 400.0, 25600.0, None, 0")),
    # what a check of all rows at once gets wrong easily: a bool is an int subclass,
    # json.load reads NaN, a row may be a mapping, and a later job's error comes after a
    # bad row of an earlier one
    "bool-attempts": (_row(12, True),
                      _bad_row(f"'Completed', {ROW_NODES}, 400.0, 25600.0, None, True")),
    "nan-start-time": (_row(9, float("nan")),
                       _bad_row(f"'Completed', {ROW_NODES}, nan, 25600.0, None, 0")),
    "nan-end-time": (_row(10, float("nan")),
                     _bad_row(f"'Completed', {ROW_NODES}, 400.0, nan, None, 0")),
    "mapping-row": (lambda jobs: jobs[0]["tasks"].__setitem__(0, {"id": "task0"}),
                    "error: corrupt state: tasks [{'id': 'task0'}] of job snake2d2k35-job\n"),
    "bad-row-then-job-twice": (
        _later_jobs(7, "Done", lambda job: None),
        _bad_row(f"'Done', {ROW_NODES}, 400.0, 25600.0, None, 0", "second")),
    "bad-spec-then-number-id": (_later_jobs(2, True, lambda job: job.update(id=5)),
                                _bad_key("instances", "expected an integer", 1)),
}


@pytest.mark.parametrize("corrupt, expected", list(ROW_CORRUPTIONS.values()),
                         ids=list(ROW_CORRUPTIONS))
def test_corrupt_task_row_exits_2_without_mutation(workdir, corrupt, expected):
    for argv in sequence()[:7]:  # through `jobs add`
        ok(workdir, *argv)
    path = workdir / ".batchsim" / "state.json"
    state = json.loads(path.read_text())
    corrupt(state["service"]["jobs"])
    path.write_text(json.dumps(state))
    before = tree(workdir)
    assert cli(workdir, "status") == (2, "", expected)
    assert tree(workdir) == before


def test_rerun_after_interrupted_commit_matches_uninterrupted_session(tmp_path, monkeypatch):
    """`jobs add` appends to events.log, then its state save fails: the commit cuts the
    job's lines back, and the rerun logs them once."""
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
            code, _, err = cli(interrupted, *argv)
            assert (code, err) == (2, "error: no space left on device\n")
            assert events.stat().st_size == before  # the job's lines were cut back
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


def test_scenario_run_and_list(tmp_path):
    out = ok(tmp_path, "scenario", "list")
    assert "snake2d" in out and "snake3d_fine" in out
    out = ok(tmp_path, "scenario", "run", "snake2d", "--seed", "1")
    assert "vm cost: 55.44 USD" in out
    assert (tmp_path / "output" / "fileshare" / "snake2d2k35").is_dir()
    code, _, err = cli(tmp_path, "scenario", "run", "snake9d")
    assert code == 2 and "unknown scenario" in err


@pytest.mark.parametrize("name", [s.name for s in builtin_scenarios()])
def test_scenario_run_matches_its_transcript_typed_by_hand(name, tmp_path):
    """`scenario run` is the user's session: the same commands typed by hand, with the
    configs and manifest in a dir of one's own, leave the same .batchsim/ tree."""
    scenario = scenario_by_name(name)
    ran, typed = tmp_path / "ran", tmp_path / "typed"
    ok(ran, "scenario", "run", name, "--seed", "3")
    serialize_config_dir(scenario.bundle(), typed / "cfg")
    (typed / "manifest.json").write_text(json.dumps(scenario.ingress_manifest))
    for argv in transcript(scenario, 3, "cfg", "manifest.json"):
        ok(typed, *argv)
    assert tree(ran) == tree(typed)
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
        raise ValidationError("task0 needs more nodes than the pool has")

    monkeypatch.setattr(BatchService, "jobs_add", too_wide)
    code, _, err = cli(tmp_path, "scenario", "run", "snake2d")
    assert code == 2 and "more nodes" in err
    assert not (tmp_path / ".batchsim").exists()


def _killed_init(root: Path, name: str):
    """Leave in `root` what the `workspace init` of scenario `name` leaves when it is killed
    before its state.json rename: .batchsim/ with the snapshot and a header-only ledger.tsv."""
    scenario = scenario_by_name(name)
    serialize_config_dir(scenario.bundle(), root / "cfg")
    init = transcript(scenario, 0, "cfg", "manifest.json")[0]
    assert _run_killed(root, init, "save", "before") == 9
    left = tree(root)
    assert "state.json" not in left and left["ledger.tsv"].count(b"\n") == 1
    assert [p for p in left if p.startswith("configs/") and p.count("/") == 1]


def test_scenario_run_after_a_killed_init_leaves_the_tree_of_a_fresh_run(tmp_path):
    fresh, killed = tmp_path / "fresh", tmp_path / "killed"
    _killed_init(killed, "snake2d")
    assert cli(killed, "status")[2].startswith("error: no workspace in ")
    ok(fresh, "scenario", "run", "snake2d")
    ok(killed, "scenario", "run", "snake2d")
    assert tree(killed) == tree(fresh)


def test_failed_scenario_run_after_a_killed_init_leaves_its_files(tmp_path, monkeypatch):
    _killed_init(tmp_path, "snake2d")
    before = tree(tmp_path)
    monkeypatch.setattr(WorkspaceStore, "write_ledger", _no_space)
    code, _, err = cli(tmp_path, "scenario", "run", "snake2d")
    assert (code, err) == (2, "error: no space left on device\n")
    assert tree(tmp_path) == before


def _no_space(*args):
    raise OSError("no space left on device")


@pytest.mark.parametrize("argv", [["pool", "del", "--configdir", "config_shipyard"],
                                  ["pool", "add", "--configdir", "poisson"],
                                  ["data", "ingress", "--configdir", "config_shipyard",
                                   "--source", "config_shipyard/inputs"]],
                         ids=["pool-del", "pool-add-other-configdir", "data-ingress"])
def test_failed_save_keeps_ledger_and_configs(workdir, monkeypatch, argv):
    """state.json commits a command: a failed save restores the tree that the loaded state
    names, so the snapshot and ingress manifest written before it are removed, and
    events.log and ledger.tsv, written before it too, get their committed bytes back."""
    for step in sequence()[:7]:  # through jobs add; the pool is still up
        ok(workdir, *step)
    shutil.copytree(REPO_ROOT / "configs" / "poisson_h16r", workdir / "poisson")
    ok(workdir, "quota", "set", "--region", "eastus", "--dedicated", "200")
    kept = tree(workdir)
    monkeypatch.setattr(WorkspaceStore, "save", _no_space)
    code, _, err = cli(workdir, *argv)
    assert (code, err) == (2, "error: no space left on device\n")
    monkeypatch.undo()
    assert tree(workdir) == kept
    ok(workdir, *argv)
    ok(workdir, "repro", "pack")
    assert ok(workdir, "repro", "verify", "repro-package.tar.gz").startswith("PASS")


def test_failed_ledger_write_exits_2_and_records_nothing(workdir, monkeypatch):
    """ledger.tsv is written before state.json is renamed in: its failure takes the command
    back (exit 2), and the rerun gives the uninterrupted session."""
    for step in sequence()[:4]:
        ok(workdir, *step)
    before = tree(workdir)

    def failing_ledger(store, tsv):
        raise OSError("no space left on device")

    monkeypatch.setattr(WorkspaceStore, "write_ledger", failing_ledger)
    code, _, err = cli(workdir, *sequence()[4])  # pool add
    assert (code, err) == (2, "error: no space left on device\n")
    monkeypatch.undo()
    assert tree(workdir) == before
    for step in sequence()[4:]:
        ok(workdir, *step)
    plain = workdir / "plain"
    shutil.copytree(EXAMPLE_DIR, plain / "config_shipyard")
    full_sequence(plain)
    assert tree(workdir) == tree(plain)


# a session that makes every kind of commit: (id, argv, the writes it makes); a snapshot and
# a manifest are also written after `jobs add`, when the session has a run to pack
COMMITS = [
    ("workspace-init", [*INIT, "--seed", "7"], ("snapshot", "ledger", "save")),
    ("storage-account-create", ["storage", "account", "create"], ("events", "ledger", "save")),
    ("share-create", ["share", "create", "--name", "fileshare", "--quota", "100"],
     ("events", "ledger", "save")),
    ("quota-set", ["quota", "set", "--region", "eastus", "--dedicated", "200"],
     ("ledger", "save")),
    ("pool-add", ["pool", "add", *CFG], ("events", "ledger", "save")),
    ("data-ingress", ["data", "ingress", *CFG, "--source", "config_shipyard/inputs"],
     ("events", "manifest", "ledger", "save")),
    ("jobs-add", ["jobs", "add", *CFG], ("events", "ledger", "save")),
    ("pool-add-other-configdir", ["pool", "add", "--configdir", "poisson"],
     ("events", "snapshot", "ledger", "save")),
    ("data-ingress-manifest", ["data", "ingress", *CFG, "--manifest", "m.json"],
     ("events", "manifest", "ledger", "save")),
    ("pool-del", ["pool", "del", *CFG], ("events", "ledger", "save")),
    ("jobs-del", ["jobs", "del", *CFG], ("events", "ledger", "save")),
    ("data-download", ["data", "download", "--source", "fileshare/snake2d2k35",
                       "--dest", "output"], ("events", "ledger", "save")),
]
# write -> (owner, attribute, whether the write takes effect before the error)
WRITES = {
    "events": (WorkspaceStore, "append_events", True),
    "snapshot": (climod, "serialize_config_dir", True),
    "manifest": (WorkspaceStore, "write_manifest", True),
    "ledger": (WorkspaceStore, "write_ledger", True),
    "save": (WorkspaceStore, "save", False),  # fails before the rename, which commits
}


def _commit_workdir(root: Path) -> Path:
    shutil.copytree(EXAMPLE_DIR, root / "config_shipyard")
    shutil.copytree(REPO_ROOT / "configs" / "poisson_h16r", root / "poisson")
    (root / "m.json").write_text('[["mesh.bin", 4096]]\n')
    return root


@pytest.fixture(scope="module")
def commit_trees(tmp_path_factory) -> list:
    """The tree after each command of COMMITS, run without a fault."""
    root = _commit_workdir(tmp_path_factory.mktemp("uninterrupted"))
    trees = []
    for _, argv, _ in COMMITS:
        ok(root, *argv)
        trees.append(tree(root))
    return trees


@pytest.mark.parametrize("step, write", [(i, w) for i, c in enumerate(COMMITS) for w in c[2]],
                         ids=[f"{c[0]}-{w}" for c in COMMITS for w in c[2]])
def test_a_failed_write_takes_the_whole_command_back(tmp_path, monkeypatch, commit_trees,
                                                     step, write):
    root = _commit_workdir(tmp_path)
    for _, argv, _ in COMMITS[:step]:
        ok(root, *argv)
    before = tree(root)
    owner, name, takes_effect = WRITES[write]
    real, fired = getattr(owner, name), []

    def failing(*args):
        fired.append(name)
        if takes_effect:
            real(*args)
        raise OSError("no space left on device")

    monkeypatch.setattr(owner, name, failing)
    code, _, err = cli(root, *COMMITS[step][1])
    monkeypatch.undo()
    assert fired
    assert (code, err) == (2, "error: no space left on device\n")
    assert tree(root) == before
    ok(root, *COMMITS[step][1])
    assert tree(root) == commit_trees[step]


# each write a kill can interrupt; a snapshot is written to a temporary dir, and ledger.tsv
# and state.json to temporary files, each then renamed: write -> (its rename's point, which
# os.replace calls that point takes). A kill after either file's rename is one after its write.
RENAMES = {"snapshot": ("snapshot-rename", lambda src, dst: Path(src).is_dir()),
           "ledger": ("ledger-rename", lambda src, dst: Path(dst).name == "ledger.tsv"),
           "save": ("state-rename", lambda src, dst: Path(dst).name == "state.json")}
KILL_POINTS = {**{write: (owner, name) for write, (owner, name, _) in WRITES.items()},
               **{point: (os, "replace") for point, _ in RENAMES.values()}}
KILLS = [(i, point, when) for i, (_, _, writes) in enumerate(COMMITS)
         for write in writes
         for point in ([write, RENAMES[write][0]] if write in RENAMES else [write])
         for when in ("before", "after")
         if when == "before" or point not in ("ledger-rename", "state-rename")]


def _views(root) -> list:
    """What `status` and `ledger report` print, what `repro pack` exits with, and the
    members of its package ../view.tar.gz, if any: exactly the snapshots and manifests
    that the package's transcript names, besides manifest.json and the two outputs."""
    views = [cli(root, *argv)[:2] for argv in (["status"], ["ledger", "report"])]
    code = cli(root, "repro", "pack", "--out", "../view.tar.gz")[0]
    if code:
        return [*views, code, None]
    with tarfile.open(Path(root).parent / "view.tar.gz") as tar:
        members = tar.getnames()
        transcript = json.load(tar.extractfile("manifest.json"))["transcript"]
    named = {value.removeprefix(".batchsim/") for argv in transcript
             for flag, value in zip(argv, argv[1:]) if flag in ("--configdir", "--manifest")}
    assert {posixpath.dirname(m) if m.startswith("configs/") else m for m in members} == {
        "manifest.json", *named, "outputs/events.log", "outputs/ledger.tsv"}
    return [*views, code, members]


@pytest.fixture(scope="module")
def commit_steps(tmp_path_factory) -> list:
    """For each command of COMMITS, run without a fault: a copy of the workdir before it,
    the views before it, and the views and tree after it."""
    root = _commit_workdir(tmp_path_factory.mktemp("steps") / "root")
    steps = []
    for i, (_, argv, _) in enumerate(COMMITS):
        before = shutil.copytree(root, root.parent / f"before-{i}")
        views = _views(root)
        ok(root, *argv)
        steps.append((before, views, _views(root), tree(root)))
    return steps


def _run_killed(root, argv, point, when) -> int:
    """Run `argv` in a forked child that calls os._exit(9) just before or just after the
    write `point`; returns the child's exit code."""
    pid = os.fork()
    if pid == 0:  # the child: patch, run, and never return into the test
        try:
            owner, name = KILL_POINTS[point]
            real = getattr(owner, name)
            takes = dict(RENAMES.values()).get(point)

            def kill(*args):
                if takes is not None and not takes(*args):
                    return real(*args)  # the rename of another file
                if when == "after":
                    real(*args)
                os._exit(9)

            setattr(owner, name, kill)
            os._exit(100 + run_command(["-C", str(root), *argv], out=io.StringIO(),
                                       err=io.StringIO()))
        finally:
            os._exit(99)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


@pytest.mark.parametrize("step, point, when", KILLS,
                         ids=[f"{COMMITS[i][0]}-{when}-{w}" for i, w, when in KILLS])
def test_a_killed_command_leaves_the_session_without_it(tmp_path, commit_steps, step, point,
                                                        when):
    """A command killed at any write leaves the committed session: the next command,
    whatever it is, shows and restores the tree of the session without it (a snapshot or
    manifest that no transcript entry names is removed, and so is a temporary state.json
    or ledger.tsv), a package of that session holds only what its transcript names and
    verifies, and the rerun gives the uninterrupted tree. Killed after its state.json
    rename, the command is committed whole."""
    before, views, views_after, tree_after = commit_steps[step]
    root = shutil.copytree(before, tmp_path / "root")
    argv = COMMITS[step][1]
    assert _run_killed(root, argv, point, when) == 9
    committed = (point, when) == ("save", "after")
    expected, kept = (views_after, tree_after) if committed else (views, tree(before))
    assert _views(root) == expected
    if step > 0 or committed:  # a killed init leaves no workspace to restore files in
        assert tree(root) == kept
    if expected[2] == 0:  # the session has a completed run to pack
        assert ok(root, "repro", "verify", "../view.tar.gz").startswith("PASS")
    if not committed:
        ok(root, *argv)
    assert tree(root) == tree_after


def test_repro_pack_leaves_out_a_snapshot_cut_short_by_a_kill(workdir):
    """A kill between a snapshot's write and its rename leaves configs/.<id>.tmp/, which
    no command names: the package holds only the named snapshots."""
    full_sequence(workdir)
    shutil.copytree(REPO_ROOT / "configs" / "poisson_h16r", workdir / "poisson")
    ok(workdir, "quota", "set", "--region", "eastus", "--dedicated", "200")
    assert _run_killed(workdir, ["pool", "add", "--configdir", "poisson"], "snapshot",
                       "after") == 9
    assert [p.name for p in (workdir / ".batchsim" / "configs").iterdir()
            if p.name.endswith(".tmp")]
    ok(workdir, "repro", "pack")
    with tarfile.open(workdir / "repro-package.tar.gz") as tar:
        configs = [n for n in tar.getnames() if n.startswith("configs/")]
    assert configs and not [n for n in configs if ".tmp/" in n]
    assert ok(workdir, "repro", "verify", "repro-package.tar.gz").startswith("PASS")


@pytest.mark.parametrize("write", ["snapshot", "ledger", "save"])
def test_init_beside_a_stray_events_log_leaves_it_as_it_was(workdir, monkeypatch, write):
    """A .batchsim/ without state.json may hold an events.log: a failed init leaves it
    byte-identical, and init records events_bytes 0 beside it, so the next command drops it."""
    (workdir / ".batchsim").mkdir()
    events = workdir / ".batchsim" / "events.log"
    events.write_text("0.000000\tpool/stray\t->Allocating\n")
    before = tree(workdir)
    owner, name, _ = WRITES[write]
    monkeypatch.setattr(owner, name, _no_space)
    code, _, err = cli(workdir, *INIT)
    assert (code, err) == (2, "error: no space left on device\n")
    monkeypatch.undo()
    assert tree(workdir) == before
    ok(workdir, *INIT)
    assert json.loads((workdir / ".batchsim" / "state.json").read_text())["events_bytes"] == 0
    ledger = (workdir / ".batchsim" / "ledger.tsv").read_text()
    assert ledger.startswith("category\tusd\t") and ledger.count("\n") == 1  # the header
    ok(workdir, "storage", "account", "create")
    assert "stray" not in events.read_text()


@pytest.mark.parametrize("write", ["ledger", "save"])
def test_failed_init_beside_the_files_of_a_killed_one_leaves_them(tmp_path, monkeypatch, write):
    """A killed init leaves a snapshot and ledger.tsv without state.json, so no committed
    state names what .batchsim/ holds: a failed init there takes back only its own writes,
    and a ledger.tsv of any bytes gets them back."""
    _killed_init(tmp_path, "snake2d")
    (tmp_path / ".batchsim" / "ledger.tsv").write_text("category\tusd\nstray\t1\n")
    before = tree(tmp_path)
    owner, name, _ = WRITES[write]
    monkeypatch.setattr(owner, name, _no_space)
    init = transcript(scenario_by_name("snake2d"), 0, "cfg", "manifest.json")[0]
    assert cli(tmp_path, *init) == (2, "", "error: no space left on device\n")
    monkeypatch.undo()
    assert tree(tmp_path) == before


def test_lines_of_a_killed_command_are_cut_back_by_the_next(workdir):
    """A command killed between its events.log append and the state.json rename leaves
    lines that no state records: the next command, even a read-only one, drops them."""
    plain = workdir / "plain"
    shutil.copytree(EXAMPLE_DIR, plain / "config_shipyard")
    full_sequence(plain)
    for argv in sequence()[:7]:  # through jobs add
        ok(workdir, *argv)
    events = workdir / ".batchsim" / "events.log"
    committed = events.read_bytes()
    with open(events, "a") as fh:
        fh.write("900000.000000\tpool/snake2d2k35\tSteady->Deleting\n")
    for argv in sequence()[7:]:  # status first
        ok(workdir, *argv)
        if argv == ["status"]:
            assert events.read_bytes() == committed
    assert tree(workdir) == tree(plain)


def test_corrupt_state_is_found_before_the_lines_of_a_killed_command_are_cut_back(workdir):
    """The next command puts back events.log and ledger.tsv only once every record of the
    state has been checked: a corrupt state leaves the killed command's line in place."""
    for argv in sequence()[:7]:  # through jobs add
        ok(workdir, *argv)
    path = workdir / ".batchsim" / "state.json"
    state = json.loads(path.read_text())
    state["service"]["time"] = "x"
    path.write_text(json.dumps(state))
    with open(workdir / ".batchsim" / "events.log", "a") as fh:
        fh.write("900000.000000\tpool/snake2d2k35\tSteady->Deleting\n")
    (workdir / ".batchsim" / "ledger.tsv").write_text("category\tusd\n")
    before = tree(workdir)
    assert cli(workdir, "status") == (2, "", "error: corrupt state: time 'x' of service\n")
    assert tree(workdir) == before


@pytest.mark.parametrize("argv", [["status"], ["pool", "del", *CFG]], ids=["status", "pool-del"])
def test_events_log_shorter_than_events_bytes_exits_2_without_mutation(workdir, argv):
    """A log that lost its tail, as a crash can leave it, is corrupt state: a package made
    from it would not verify."""
    for step in sequence()[:7]:  # through jobs add
        ok(workdir, *step)
    size = json.loads((workdir / ".batchsim" / "state.json").read_text())["events_bytes"]
    os.truncate(workdir / ".batchsim" / "events.log", size - 100)
    before = tree(workdir)
    assert cli(workdir, *argv) == (2, "", f"error: corrupt state: events.log of {size - 100} "
                                          f"bytes is shorter than events_bytes {size}\n")
    assert tree(workdir) == before


@pytest.mark.parametrize("existing", [False, True], ids=["no-batchsim-dir", "stray-file"])
def test_failed_workspace_init_save_leaves_tree_as_it_was(workdir, monkeypatch, existing):
    """A failed state save writes no configs/, and removes a .batchsim/ it created."""
    if existing:
        (workdir / ".batchsim").mkdir()
        (workdir / ".batchsim" / "notes.txt").write_text("kept\n")
    before = tree(workdir)
    monkeypatch.setattr(WorkspaceStore, "save", _no_space)
    code, _, err = cli(workdir, "workspace", "init", "--configdir", "config_shipyard")
    assert (code, err) == (2, "error: no space left on device\n")
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
    # each was converted: read as 12 bytes, as 1 byte, as 40 bytes and as the path "5"
    "fractional-size": "entries:\n- {path: case.yaml, bytes: 12.7}\n",
    "bool-size": "entries:\n- [case.yaml, true]\n",
    "text-size": "entries:\n- {path: case.yaml, bytes: \"40\"}\n",
    "number-path": "- [5, 1]\n",
}


def _catalog_text(edit) -> str:
    doc = statemod.catalog_to_doc(default_catalog())
    edit(doc)
    return yaml.safe_dump(doc)


CATALOGS = {
    "missing-catalog": None,
    "unparseable-catalog": "skus: [unclosed\n",
    "scalar-skus": "skus: 5\n",
    "dated-catalog": _catalog_text(lambda doc: None) + "updated: 2020-01-01\n",
    "zero-vcores": _catalog_text(lambda doc: doc["skus"][0].update(vcores=0)),
    "zero-rate": _catalog_text(lambda doc: doc["skus"][0]["prices"].update(reserved_3yr="0")),
    "negative-quota": _catalog_text(lambda doc: doc["quotas"]["eastus"].update(
        low_priority_cores=-1)),
    # each was converted: read as True, as 6 vcores, and as the letters of the word
    "rdma-text": _catalog_text(lambda doc: doc["skus"][0].update(rdma_capable="false")),
    "fractional-vcores": _catalog_text(lambda doc: doc["skus"][0].update(vcores=6.9)),
    "regions-text": _catalog_text(lambda doc: doc["skus"][0].update(regions="eastus")),
}
USER_FILE_ERRORS = [
    *[(["data", "ingress", "--configdir", "config_shipyard", "--manifest", "user.yaml"], text)
      for text in MANIFESTS.values()],
    *[(["workspace", "init", "--configdir", "config_shipyard", "--catalog", "../user.yaml"], text)
      for text in CATALOGS.values()],
    (["data", "download", "--source", "fileshare/snake2d2k35", "--dest", "user.yaml/out"], ""),
]


@pytest.mark.parametrize("argv,text", USER_FILE_ERRORS,
                         ids=[*MANIFESTS, *CATALOGS, "download-under-file"])
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
    if argv[0] == "workspace":
        assert err.startswith("error: unreadable catalog ../user.yaml: ")
    assert tree(workdir) == before


def test_a_manifest_entry_is_read_through_its_table(workdir):
    for step in sequence()[:5]:  # through `pool add`
        ok(workdir, *step)
    (workdir / "user.yaml").write_text(MANIFESTS["fractional-size"])
    assert cli(workdir, "data", "ingress", *CFG, "--manifest", "user.yaml") == (
        2, "", f"error: unreadable manifest {workdir / 'user.yaml'}: bytes 12.7 of entry 0\n")


def test_ingress_manifest_path_that_leaves_its_directory_exits_2_without_mutation(workdir):
    for step in sequence()[:5]:  # through `pool add`
        ok(workdir, *step)
    (workdir / "user.yaml").write_text(
        "entries:\n- {path: case.yaml, bytes: 4}\n- {path: ../other/x.bin, bytes: 5}\n")
    before = tree(workdir)
    code, out, err = cli(workdir, "data", "ingress", *CFG, "--manifest", "user.yaml")
    assert (code, out, err) == (
        2, "", "error: manifest path leaves fileshare/snake2d2k35: '../other/x.bin'\n")
    assert tree(workdir) == before


def test_safe_extract_rejects_a_sibling_directory(tmp_path):
    archive = tmp_path / "evil.tar"
    with tarfile.open(archive, "w") as tar:
        info = tarfile.TarInfo("../archive2/x")
        info.size = 1
        tar.addfile(info, io.BytesIO(b"x"))
    (tmp_path / "archive").mkdir()
    with tarfile.open(archive) as tar, pytest.raises(
            ValidationError, match="^archive member escapes extraction root: ../archive2/x$"):
        _safe_extract(tar, tmp_path / "archive")
    assert not (tmp_path / "archive2").exists()


def _extractall_without_filters(monkeypatch):
    """Make TarFile.extractall refuse `filter`, as before CPython 3.10.12 and 3.11.4."""
    real = tarfile.TarFile.extractall

    def extractall(self, path=".", members=None, *, numeric_owner=False, **kwargs):
        if kwargs:
            raise TypeError(f"unexpected keyword arguments {sorted(kwargs)}")
        return real(self, path, members, numeric_owner=numeric_owner, filter="fully_trusted")

    monkeypatch.setattr(tarfile.TarFile, "extractall", extractall)


@pytest.mark.parametrize("kind", [tarfile.SYMTYPE, tarfile.LNKTYPE], ids=["symlink", "hardlink"])
def test_repro_verify_rejects_a_link_member_without_writing_outside(tmp_path, monkeypatch, kind):
    """A link member, followed by a file written through it, would reach outside the
    extraction root; it is a corrupt archive whatever this Python's tarfile filters."""
    _extractall_without_filters(monkeypatch)
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "kept.txt").write_text("kept\n")
    # through a symlinked directory, or through a hardlink to a file
    name, target = (("configs", outside) if kind == tarfile.SYMTYPE
                    else ("kept.txt", outside / "kept.txt"))
    with tarfile.open(tmp_path / "evil.tar.gz", "w:gz") as tar:
        link = tarfile.TarInfo(name)
        link.type, link.linkname = kind, str(target)
        tar.addfile(link)
        payload = tarfile.TarInfo("configs/x.txt" if kind == tarfile.SYMTYPE else name)
        payload.size = 2
        tar.addfile(payload, io.BytesIO(b"x\n"))
    code, _, err = cli(tmp_path, "repro", "verify", "evil.tar.gz")
    assert code == 2
    assert err == f"error: archive member is not a file or directory: {name}\n"
    assert sorted(p.name for p in outside.iterdir()) == ["kept.txt"]
    assert (outside / "kept.txt").read_text() == "kept\n"


def test_repro_pack_requires_completed_run(workdir):
    """Pack asks the service whether a task finished: a workspace with a pool, an ingress,
    events and a ledger but no job has nothing to pack, and nothing is written."""
    for step in sequence()[:6]:  # through `data ingress`
        ok(workdir, *step)
    before = _listing(workdir)
    assert cli(workdir, "repro", "pack") == (
        2, "", "error: no completed run to pack: run a job or scenario first\n")
    assert _listing(workdir) == before


def test_repro_pack_and_verify_manual_flow(workdir):
    full_sequence(workdir)
    ok(workdir, "repro", "pack")
    assert ok(workdir, "repro", "verify", "repro-package.tar.gz").startswith("PASS")


@pytest.mark.parametrize("removed", ["ingress/0001.json", "configs/*", "configs/*/jobs.yaml"],
                         ids=["manifest", "snapshot", "snapshot-document"])
def test_repro_pack_of_a_removed_named_file_exits_2_and_creates_nothing(workdir, removed):
    """A snapshot, one of its documents or a manifest that the transcript names but that was
    removed by hand is named in the message, before anything is created at --out."""
    full_sequence(workdir)
    path, = (workdir / ".batchsim").glob(removed)
    (shutil.rmtree if path.is_dir() else os.remove)(path)
    assert cli(workdir, "repro", "pack", "--out", "packages/p.tar.gz") == (
        2, "", f"error: cannot pack: {path.relative_to(workdir).as_posix()} is missing\n")
    assert not (workdir / "packages").exists()


LONG_NAME = "x" * 300  # longer than a file name may be


@pytest.mark.parametrize("out, message", [
    ("packages/p.tar.gz", "error: cannot pack: no directory packages\n"),
    (f"packdir/{LONG_NAME}", "error: cannot pack: no directory packdir\n"),
    (LONG_NAME, None),
], ids=["missing-dir", "long-name-in-missing-dir", "long-name"])
def test_repro_pack_that_cannot_write_at_out_exits_2_and_creates_nothing(workdir, out,
                                                                        message):
    """The directory of --out must exist: nothing is made there, not even the directory,
    whether the pack stops at that check or at a name the file system refuses."""
    full_sequence(workdir)
    before = _listing(workdir)
    code, stdout, err = cli(workdir, "repro", "pack", "--out", out)
    assert (code, stdout) == (2, "")
    assert err == message if message else err.startswith("error: ")
    assert _listing(workdir) == before


def test_repro_pack_that_fails_mid_write_leaves_the_package_at_out_as_it_was(workdir,
                                                                             monkeypatch):
    """The archive is written to a temporary file beside --out and renamed in whole: a
    write that fails leaves the package that was there, and no temporary file."""
    full_sequence(workdir)
    ok(workdir, "repro", "pack")
    packed = (workdir / "repro-package.tar.gz").read_bytes()
    monkeypatch.setattr(tarfile.TarFile, "add", lambda *args, **kwargs: _no_space())
    assert cli(workdir, "repro", "pack") == (2, "", "error: no space left on device\n")
    assert (workdir / "repro-package.tar.gz").read_bytes() == packed
    assert not [p for p in workdir.iterdir() if p.name.endswith(".tmp")]


def test_keys_are_kept_only_as_digests(tmp_path):
    """A config snapshot keeps each key as `sha256:<hex>`: no file under .batchsim/ and no
    package member holds a key's text, the package verifies, and a session that loads the
    snapshot records the snapshot's own id."""
    shutil.copytree(EXAMPLE_DIR, tmp_path / "config_shipyard")
    keys = {"storage_key": "storage-key-7f3a91c2", "batch_key": "batch-key-0d5e88b4"}
    (tmp_path / "config_shipyard" / "credentials.yaml").write_text(
        yaml.safe_dump({"credentials": keys}))
    full_sequence(tmp_path)
    ok(tmp_path, "repro", "pack")
    with tarfile.open(tmp_path / "repro-package.tar.gz") as tar:
        members = {m.name: tar.extractfile(m).read() for m in tar.getmembers() if m.isfile()}
    files = [data for data in tree(tmp_path).values() if data is not None]
    assert files and members
    for key in keys.values():
        assert not any(key.encode() in data for data in [*files, *members.values()])
    [snapshot] = (tmp_path / ".batchsim" / "configs").iterdir()
    assert yaml.safe_load((snapshot / "credentials.yaml").read_text()) == {"credentials": {
        name: f"sha256:{hashlib.sha256(key.encode()).hexdigest()}" for name, key in keys.items()}}
    assert set(json.loads(members["manifest.json"])) == {"transcript"}
    assert ok(tmp_path, "repro", "verify", "repro-package.tar.gz").startswith("PASS")
    other = tmp_path / "other"
    ok(other, "workspace", "init", "--configdir", str(snapshot))
    assert [p.name for p in (other / ".batchsim" / "configs").iterdir()] == [snapshot.name]


def test_package_with_keys_in_clear_and_a_digest_algorithm_verifies(tmp_path):
    """Packages made before keys were digested hold credentials.yaml in clear and a
    manifest.json `digest_algorithm`; they replay as before."""
    def as_packed_before(unpacked):
        [credentials] = _packed_config(unpacked, "credentials.yaml")
        credentials.write_text("credentials:\n  storage_key: storagekey\n  batch_key: batchkey\n")
        manifest = json.loads((unpacked / "manifest.json").read_text())
        manifest["digest_algorithm"] = "sha256"
        (unpacked / "manifest.json").write_text(json.dumps(manifest))

    out = ok(tmp_path, "repro", "verify", _edited_scenario_package(tmp_path, as_packed_before))
    assert out.startswith("PASS: 2 artifacts reproduced (seed 0)")


@pytest.mark.parametrize("seed", [0, 7], ids=["its-seed", "another-seed"])
def test_an_old_form_manifest_verifies(tmp_path, seed):
    """Packages made while manifest.json also held `seed`, `output_digests` and
    `digest_algorithm` verify: only `transcript` is read, so the seed that PASS names is
    the one the transcript's workspace init sets, whatever `seed` says."""
    def as_packed_before(unpacked):
        manifest = json.loads((unpacked / "manifest.json").read_text())
        manifest.update(seed=seed, digest_algorithm="sha256", output_digests={
            name: hashlib.sha256((unpacked / "outputs" / name).read_bytes()).hexdigest()
            for name in climod.OUTPUT_ARTIFACTS})
        (unpacked / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))

    archive = _edited_scenario_package(tmp_path, as_packed_before)
    assert ok(tmp_path, "repro", "verify", archive) == "PASS: 2 artifacts reproduced (seed 0)\n"


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_a_package_without_a_packed_output_file_exits_2_before_any_replay(tmp_path,
                                                                          monkeypatch, kind):
    """The packed outputs are what a replay is compared with, so a package whose
    outputs/ledger.tsv is not a file is corrupt, and nothing is replayed."""
    def drop_ledger(unpacked):
        path = unpacked / "outputs" / "ledger.tsv"
        path.unlink()
        if kind == "directory":
            path.mkdir()

    archive = _edited_scenario_package(tmp_path, drop_ledger)
    replayed = _replayed(monkeypatch)
    assert cli(tmp_path, "repro", "verify", archive) == (
        2, "", "error: not a readable package: outputs/ledger.tsv is not a file\n")
    assert replayed == []


def test_repro_verify_names_the_edited_ledger_line_and_the_command_that_billed_it(tmp_path):
    """A FAIL names the first line where the packed and the replayed output differ, both
    texts, and the transcript entry whose commit first held that line."""
    def overcharge(unpacked):
        ledger = unpacked / "outputs" / "ledger.tsv"
        lines = ledger.read_text().splitlines(keepends=True)
        assert lines[2].startswith("Virtual Machines\t27.72\tNC24r snake2d/1 ")
        ledger.write_text("".join([*lines[:2], lines[2].replace("27.72", "27.73"), *lines[3:]]))

    archive = _edited_scenario_package(tmp_path, overcharge)
    unpacked = tmp_path / "unpacked"
    edited = (unpacked / "outputs" / "ledger.tsv").read_text().splitlines(keepends=True)[2]
    transcript = json.loads((unpacked / "manifest.json").read_text())["transcript"]
    pool_del = next(argv for argv in transcript if argv[:2] == ["pool", "del"])  # it bills
    assert cli(tmp_path, "repro", "verify", archive) == (
        3, f"FAIL: first divergence at ledger.tsv line 3: expected {edited!r}, got "
           f"{edited.replace('27.73', '27.72')!r} (written by {' '.join(pool_del)})\n", "")


def test_repro_pack_and_verify_scenario(tmp_path):
    """Each scenario's package verifies, and pack and verify name the seed of its init."""
    for scenario in builtin_scenarios():
        root = tmp_path / scenario.name
        ok(root, "scenario", "run", scenario.name, "--seed", "5")
        assert ok(root, "repro", "pack", "--out", "package.tar.gz") == (
            f"packed {root / 'package.tar.gz'} (10 commands, 2 outputs, seed 5)\n")
        assert ok(root, "repro", "verify", "package.tar.gz") == (
            "PASS: 2 artifacts reproduced (seed 5)\n")


def _packed_config(unpacked: Path, *names: str) -> list[Path]:
    """The files `names` of the one config snapshot in an unpacked package."""
    [snapshot] = (unpacked / "configs").iterdir()
    return [snapshot / name for name in names]


def test_repro_verify_detects_edited_sku(workdir, tmp_path_factory):
    full_sequence(workdir)
    ok(workdir, "repro", "pack")
    archive = workdir / "repro-package.tar.gz"
    tampered_dir = tmp_path_factory.mktemp("tampered")
    with tarfile.open(archive) as tar:
        tar.extractall(tampered_dir, filter="data")
    pool_yaml, jobs_yaml = _packed_config(tampered_dir, "pool.yaml", "jobs.yaml")
    pool_doc = yaml.safe_load(pool_yaml.read_text())
    pool_doc["pool"]["sku"] = "H16r"  # RDMA-capable, different hourly rate
    pool_yaml.write_text(yaml.safe_dump(pool_doc))
    jobs_doc = yaml.safe_load(jobs_yaml.read_text())
    jobs_doc["job"]["tasks"][0]["gpus_per_node"] = 0  # H16r carries no GPUs
    jobs_yaml.write_text(yaml.safe_dump(jobs_doc))
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
        [pool_yaml] = _packed_config(unpacked, "pool.yaml")
        pool_doc = yaml.safe_load(pool_yaml.read_text())
        pool_doc["pool"]["vm_count"]["dedicated"] = 5  # 120 cores, over the recorded 100
        pool_yaml.write_text(yaml.safe_dump(pool_doc))

    code, out, _ = cli(tmp_path, "repro", "verify", _edited_scenario_package(tmp_path, over_quota))
    assert code == 3
    assert out.startswith("FAIL: replayed command failed: quota exceeded")


def test_repro_verify_fails_when_a_named_snapshot_is_missing(tmp_path):
    def no_configs(unpacked):
        shutil.rmtree(unpacked / "configs")

    code, out, _ = cli(tmp_path, "repro", "verify", _edited_scenario_package(tmp_path, no_configs))
    assert code == 3
    assert out.startswith("FAIL: replayed command failed: missing configuration document")


def test_repro_verify_fails_on_a_package_with_flat_configs(tmp_path, monkeypatch):
    """Packages made before config snapshots hold configs/*.yaml and a transcript that
    names no --configdir. A commit records the snapshot of every config it loads, so such a
    package is corrupt (exit 2) and its replay does not fall back on BATCHSIM_CONFIGDIR."""
    def flatten(unpacked):
        [snapshot] = (unpacked / "configs").iterdir()
        for path in snapshot.iterdir():
            path.rename(unpacked / "configs" / path.name)
        snapshot.rmdir()
        manifest = json.loads((unpacked / "manifest.json").read_text())
        for argv in manifest["transcript"]:
            if "--configdir" in argv:
                i = argv.index("--configdir")
                del argv[i:i + 2]
        (unpacked / "manifest.json").write_text(json.dumps(manifest))

    monkeypatch.setenv("BATCHSIM_CONFIGDIR", str(EXAMPLE_DIR))
    code, out, err = cli(tmp_path, "repro", "verify", _edited_scenario_package(tmp_path, flatten))
    assert (code, out) == (2, "")
    assert err.startswith("error: not a recorded command: ['workspace', 'init', ")


def test_repro_verify_fails_on_a_replayed_help_request(tmp_path):
    """--help is no command that a commit records: the package is corrupt (exit 2), and
    verify prints no help."""
    def add_help(unpacked):
        manifest = json.loads((unpacked / "manifest.json").read_text())
        manifest["transcript"].append(["status", "--help"])
        (unpacked / "manifest.json").write_text(json.dumps(manifest))

    code, out, err = cli(tmp_path, "repro", "verify",
                         _edited_scenario_package(tmp_path, add_help))
    assert (code, out) == (2, "")
    assert err.startswith("error: not a recorded command: ['status', '--help']")


# transcript entries that no commit records: {out} is a directory outside the verify's temp
# dir and {cfg} the package's config snapshot
CRAFTED = {
    "root-option": ["-C", "{out}", "workspace", "init", "--configdir", "{out}/cfg"],
    "root-option-here": ["-C", ".", "workspace", "init", "--configdir", "{out}/cfg"],
    "root-option-joined": ["-C{out}", "workspace", "init", "--configdir", "{out}/cfg"],
    "root-option-last": ["storage", "account", "create", "-C", "{out}"],
    "ledger-export": ["ledger", "report", "--export", "{out}/ledger.tsv"],
    "abbreviated-dest": ["data", "download", "--source", "fileshare/snake2d2k35",
                         "--de", "{out}/download"],
    "abbreviated-configdir": ["pool", "add", "--conf", "{cfg}"],
    "joined-configdir": ["pool", "add", "--configdir={cfg}"],
    "outside-configdir": ["pool", "add", "--configdir", "{out}/cfg"],
    "outside-manifest": ["data", "ingress", "--configdir", "{cfg}", "--manifest", "{out}/m.json"],
    "ingress-source": ["data", "ingress", "--configdir", "{cfg}", "--source", "{out}"],
    "other-catalog": ["workspace", "init", "--configdir", "{cfg}", "--catalog", "../x.yaml"],
    "help": ["pool", "add", "-h"],
    "abbreviated-help": ["pool", "add", "--he"],
    "read-only-command": ["status"],
    "scenario-run": ["scenario", "run", "snake2d"],
    "unknown-command": ["pool", "resize"],
    "no-configdir": ["jobs", "add"],
    "no-configdir-or-pool": ["pool", "del"],
    "pool-add-plan": ["pool", "add", "--configdir", "{cfg}", "--plan", "reserved_3yr"],
    "missing-required-option": ["quota", "set", "--region", "eastus"],
    # only the form and order that a commit writes
    "reordered-options": ["share", "create", "--quota", "100", "--name", "other"],
    "non-canonical-number": ["share", "create", "--name", "other", "--quota", "0100"],
}


def _crafted(entry, outside: Path, cfg: str) -> list:
    return [token.format(out=outside, cfg=cfg) for token in entry]


def _listing(*dirs) -> dict:
    return {p: p.read_bytes() if p.is_file() else None
            for d in dirs for p in sorted(Path(d).rglob("*"))}


@pytest.mark.parametrize("entry", list(CRAFTED.values()), ids=list(CRAFTED))
def test_repro_verify_rejects_a_command_no_commit_records(tmp_path, monkeypatch, entry):
    """A package is untrusted input. An entry that is not a command as a commit records it
    makes the package corrupt (exit 2) before any command runs, so nothing is written
    outside the verify's temp dir, the -C and --export targets included."""
    outside = tmp_path / "outside"

    def append_crafted(unpacked):
        manifest = json.loads((unpacked / "manifest.json").read_text())
        cfg = manifest["transcript"][0][-1]  # workspace init records its snapshot last
        shutil.copytree(unpacked / cfg.replace(".batchsim/", ""), outside / "cfg")
        manifest["transcript"].append(_crafted(entry, outside, cfg))
        (unpacked / "manifest.json").write_text(json.dumps(manifest))

    archive = _edited_scenario_package(tmp_path, append_crafted)
    before = _listing(tmp_path)
    replayed = _replayed(monkeypatch)
    monkeypatch.chdir(outside)  # where "-C ." points
    code, out, err = cli(tmp_path, "repro", "verify", archive)
    assert (code, out, replayed) == (2, "", [])
    assert err.startswith("error: not a recorded command: ")
    assert _listing(tmp_path) == before


BAD_MANIFESTS = {
    "no-transcript": lambda m: {k: v for k, v in m.items() if k != "transcript"},
    "number-transcript": lambda m: {**m, "transcript": 5},
    "number-in-argv": lambda m: {**m, "transcript": [*m["transcript"], [5]]},
    "text-argv": lambda m: {**m, "transcript": [*m["transcript"], "status"]},
    "list-manifest": lambda m: [m],
    # replayed its first command, which found no workspace, and exited 3
    "no-init": lambda m: {**m, "transcript": m["transcript"][1:]},
    "init-second": lambda m: {**m, "transcript": [m["transcript"][1], m["transcript"][0],
                                                  *m["transcript"][2:]]},
    "empty-transcript": lambda m: {**m, "transcript": []},
}


def _replayed(monkeypatch) -> list:
    """The argument lists of each command that `repro verify` replays from now on."""
    replayed, real = [], climod.run_command
    monkeypatch.setattr(climod, "run_command", lambda *a, **k: replayed.append(a) or real(*a, **k))
    return replayed


@pytest.mark.parametrize("edit", list(BAD_MANIFESTS.values()), ids=list(BAD_MANIFESTS))
def test_repro_verify_rejects_a_malformed_manifest(tmp_path, monkeypatch, edit):
    """A manifest that `repro pack` cannot have written is a corrupt package (exit 2), and
    no command is replayed."""
    def rewrite(unpacked):
        manifest = json.loads((unpacked / "manifest.json").read_text())
        (unpacked / "manifest.json").write_text(json.dumps(edit(manifest)))

    archive = _edited_scenario_package(tmp_path, rewrite)
    replayed = _replayed(monkeypatch)
    code, out, err = cli(tmp_path, "repro", "verify", archive)
    assert (code, out, replayed) == (2, "", [])
    assert err.startswith("error: manifest.json: ")


@pytest.fixture(scope="module")
def scenario_package(tmp_path_factory) -> dict:
    """The members of a snake2d scenario's package: name -> bytes."""
    root = tmp_path_factory.mktemp("package")
    ok(root, "scenario", "run", "snake2d")
    ok(root, "repro", "pack")
    with tarfile.open(root / "repro-package.tar.gz") as tar:
        return {m.name: tar.extractfile(m).read() for m in tar.getmembers() if m.isfile()}


def _write_package(path: Path, members: dict, links=()):
    """A package at `path` of `links` (TarInfos), then of `members`: name -> bytes."""
    with tarfile.open(path, "w:gz") as tar:
        for link in links:
            tar.addfile(link)
        for name, data in members.items():
            info = tarfile.TarInfo(name)
            info.size = len(data)
            tar.addfile(info, io.BytesIO(data))


@pytest.mark.parametrize("value", [configmod._ABSENT, None, "x", -1, 1e308, [1], True],
                         ids=["absent", "null", "text", "negative", "huge", "list", "true"])
@pytest.mark.parametrize("key", [*climod.PACKAGE, "seed", "output_digests"])
def test_a_package_leaf_of_another_kind_exits_2_before_any_replay(scenario_package, tmp_path,
                                                                  monkeypatch, key, value):
    """A manifest.json leaf that its PACKAGE kind does not take is exit 2 in the
    `manifest.json: key '<key>': ` form, before any command is replayed; one it takes
    verifies. A key outside PACKAGE, as `seed` and `output_digests` of older packages, is
    not read: any leaf of it verifies, for the seed that the transcript's init sets.
    Nothing beside the package is written."""
    manifest = json.loads(scenario_package["manifest.json"])
    if value is configmod._ABSENT:
        manifest.pop(key, None)
    else:
        manifest[key] = value
    _write_package(tmp_path / "package.tar.gz",
                   {**scenario_package, "manifest.json": json.dumps(manifest).encode()})
    before = _listing(tmp_path)
    replayed = _replayed(monkeypatch)
    code, out, err = cli(tmp_path, "repro", "verify", "package.tar.gz")
    if key not in climod.PACKAGE:
        assert (code, out, err) == (0, "PASS: 2 artifacts reproduced (seed 0)\n", "")
        assert replayed
    elif climod.PACKAGE[key].ok(value, configmod.At()):
        assert (code, err) == (0, "") and out.startswith("PASS") and replayed
    else:
        assert (code, out, replayed) == (2, "", [])
        assert err.startswith(f"error: manifest.json: key {key!r}: "), err
    assert _listing(tmp_path) == before


def test_repro_verify_names_the_command_that_wrote_each_edited_line(scenario_package,
                                                                     tmp_path):
    """For each transcript entry that adds lines to a packed output, an edit of the first
    line it added gives a FAIL that names that entry: the line counts are those of each
    command's commit, run one by one in the unpacked package as a replay runs it."""
    transcript = json.loads(scenario_package["manifest.json"])["transcript"]
    steps = tmp_path / "steps"
    _write_package(tmp_path / "package.tar.gz", scenario_package)
    with tarfile.open(tmp_path / "package.tar.gz") as tar:
        tar.extractall(steps, filter="data")
    firsts = []  # (output, index of the first line that an entry added, the entry)
    held = dict.fromkeys(climod.OUTPUT_ARTIFACTS, 0)
    for argv in transcript:
        ok(steps, *climod.recorded_command(argv))
        for name in climod.OUTPUT_ARTIFACTS:
            path = steps / ".batchsim" / name
            count = len(path.read_bytes().splitlines()) if path.exists() else 0
            if count > held[name]:
                firsts.append((name, held[name], argv))
            held[name] = count
    assert {name for name, _, _ in firsts} == set(climod.OUTPUT_ARTIFACTS)
    assert len({" ".join(argv) for _, _, argv in firsts}) >= 5
    for name, n, argv in firsts:
        lines = io.BytesIO(scenario_package[f"outputs/{name}"]).readlines()
        original = lines[n].decode()
        lines[n] = lines[n][:-2] + (b"%" if lines[n][-2:-1] == b"#" else b"#") + b"\n"
        _write_package(tmp_path / "edited.tar.gz",
                       {**scenario_package, f"outputs/{name}": b"".join(lines)})
        assert cli(tmp_path, "repro", "verify", "edited.tar.gz") == (
            3, f"FAIL: first divergence at {name} line {n + 1}: expected "
               f"{lines[n].decode()!r}, got {original!r} (written by {' '.join(argv)})\n", "")


OUTPUT_EDITS = st.tuples(st.sampled_from(climod.OUTPUT_ARTIFACTS),
                         st.sampled_from(["none", "byte", "crlf", "drop", "append",
                                          "no-final-newline"]),
                         st.integers(0, 10**4), st.integers(0, 10**4))


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(OUTPUT_EDITS)
def test_repro_verify_names_the_edited_line_of_a_packed_output(scenario_package, edit):
    """One edit of a packed output: a byte of line k changed, a carriage return put before
    its newline, line k dropped, a line appended, or the last newline removed. Verify exits
    3 and names exactly that line, and the command that wrote it unless the replay lacks
    it; an unedited package passes."""
    name, kind, k, j = edit
    lines = io.BytesIO(scenario_package[f"outputs/{name}"]).readlines()
    # no empty line, and no line twice in a row: a dropped line is the first to differ
    assert min(map(len, lines)) > 1 and all(map(bytes.__ne__, lines, lines[1:]))
    k %= len(lines)
    if kind == "byte":
        j %= len(lines[k]) - 1  # not its newline
        lines[k] = lines[k][:j] + (b"%" if lines[k][j] == ord("#") else b"#") + lines[k][j + 1:]
    elif kind == "crlf":
        lines[k] = lines[k][:-1] + b"\r\n"
    elif kind == "drop":
        del lines[k]
    elif kind == "append":
        k = len(lines)
        lines.append(b"0.000000\tpool/extra\tcreated\n")
    elif kind == "no-final-newline":
        k = len(lines) - 1
        lines[k] = lines[k][:-1]
    with tempfile.TemporaryDirectory(prefix="batchsim-edited-") as tmp:
        _write_package(Path(tmp) / "package.tar.gz",
                       {**scenario_package, f"outputs/{name}": b"".join(lines)})
        code, out, err = cli(tmp, "repro", "verify", "package.tar.gz")
    if kind == "none":
        assert (code, out, err) == (0, "PASS: 2 artifacts reproduced (seed 0)\n", "")
    else:
        assert (code, err) == (3, "")
        assert out.startswith(f"FAIL: first divergence at {name} line {k + 1}: "), out
        assert (" (written by " in out) == (kind != "append"), out


TOKENS = ["-C", ".", "-C{out}", "{out}", "{out}/x", "--export", "--dest", "--de", "--configdir",
          "--conf", "{cfg}", "--manifest", ".batchsim/ingress/0001.json", "--source", "-h",
          "--help", "--", "-5", "1", "workspace", "init", "pool", "add", "del", "data",
          "ingress", "download", "ledger", "report", "status", "fileshare/snake2d2k35"]
ENTRIES = st.one_of(
    st.sampled_from(list(CRAFTED.values())),
    st.just(["data", "download", "--source", "fileshare/snake2d2k35", "--dest", "{out}/dl"]),
    st.lists(st.sampled_from(TOKENS), max_size=7))
MANIFEST_EDITS = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 10), ENTRIES),
    st.tuples(st.just("token"), st.integers(0, 9), st.integers(0, 12), st.sampled_from(TOKENS)),
    st.tuples(st.just("set"), st.sampled_from(["seed", "transcript", "output_digests",
                                                "digest_algorithm"]),
              st.sampled_from([None, 5, "x", [], {}, [[5]], True, [["status"]]])))
MEMBER_EDITS = st.tuples(st.sampled_from(["drop", "truncate", "symlink", "hardlink", "escape"]),
                         st.integers(0, 10))


def _link(name, kind, target) -> tarfile.TarInfo:
    info = tarfile.TarInfo(name)
    info.type, info.linkname = kind, str(target)
    return info


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(st.lists(MANIFEST_EDITS, max_size=3), st.lists(MEMBER_EDITS, max_size=2))
def test_repro_verify_of_a_mutated_package_writes_only_its_temp_dir(scenario_package,
                                                                     manifest_edits,
                                                                     member_edits):
    """Whatever a package's manifest and members hold, `repro verify` exits with a
    documented code and writes nothing outside its temp dir: not in a sentinel dir that
    the edits aim -C, --export, --dest and link members at, nor beside the package."""
    with tempfile.TemporaryDirectory(prefix="batchsim-mutated-") as tmp:
        outside, work = Path(tmp) / "outside", Path(tmp) / "work"
        for d in (outside, work):
            d.mkdir()
        (outside / "kept.txt").write_text("kept\n")
        members = dict(scenario_package)
        manifest = json.loads(members["manifest.json"])
        cfg = manifest["transcript"][0][-1]
        for kind, *edit in manifest_edits:
            transcript = manifest.get("transcript")
            if kind == "set":
                manifest[edit[0]] = edit[1]
            elif isinstance(transcript, list) and kind == "insert":
                transcript.insert(edit[0], _crafted(edit[1], outside, cfg))
            elif isinstance(transcript, list) and transcript and kind == "token":
                argv = transcript[edit[0] % len(transcript)]
                if isinstance(argv, list) and argv:
                    argv[edit[1] % len(argv)] = edit[2].format(out=outside, cfg=cfg)
        members["manifest.json"] = json.dumps(manifest).encode()
        links = []
        for kind, index in member_edits:
            name = sorted(members)[index % len(members)]
            if kind == "drop":
                del members[name]
            elif kind == "truncate":
                members[name] = members[name][:len(members[name]) // 2]
            elif kind == "escape":
                members[str(outside / "escape.txt")] = b"x\n"
            else:  # a link into outside/, then a file written through it
                links.append(_link("configs/evil", tarfile.SYMTYPE, outside) if kind == "symlink"
                             else _link("configs/evil", tarfile.LNKTYPE, outside / "kept.txt"))
                members["configs/evil" + ("/x.yaml" if kind == "symlink" else "")] = b"x\n"
        _write_package(work / "package.tar.gz", members, links)
        before = _listing(outside, work)
        cwd = os.getcwd()
        os.chdir(outside)  # where "-C ." points
        try:
            code, _, _ = cli(work, "repro", "verify", "package.tar.gz")
        finally:
            os.chdir(cwd)
        assert code in (0, 2, 3, 64)
        assert _listing(outside, work) == before


# values that a handler may leave on `args` for its entry: numbers whose str() is not what
# was typed (negative, exponent, non-finite), text that starts like a flag, and the values
# that a commit records
_FLOATS = st.one_of(st.floats(allow_nan=False), st.sampled_from([1e-05, 1e20, -5.0, -1e-05]))
_TEXTS = st.one_of(st.text(max_size=6), st.text(max_size=4).map("-".__add__),
                   st.sampled_from(["-5", "--dest", "--configdir"]))
_RECORDED = {"configdir": ".batchsim/configs/0123456789ab", "catalog": "catalog.yaml",
             "manifest": ".batchsim/ingress/0001.json", "interconnect": "azure"}


def _recorded_values(words) -> st.SearchStrategy:
    def value(dest):
        if dest == "scarcity":
            return st.lists(st.lists(_FLOATS, min_size=2, max_size=2), max_size=2)
        if dest in ("seed", "task_retries", "quota", "dedicated", "low_priority"):
            return st.integers(-10**20, 10**20)
        if dest in ("preemption_rate", "image_pull_seconds"):
            return _FLOATS
        return st.one_of(st.none(), st.just(_RECORDED.get(dest, "x")), _TEXTS)
    return st.fixed_dictionaries({**{k: st.just(w) for k, w in zip(("group", "cmd", "sub"), words)},
                                  **{dest: value(dest) for dest in climod.COMMITTING[words]}})


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(climod.COMMITTING)).flatmap(_recorded_values))
@example({"group": "workspace", "cmd": "init", "seed": -5, "interconnect": "azure",
          "preemption_rate": 1e20, "image_pull_seconds": 1e-05, "task_retries": 0,
          "catalog": "catalog.yaml", "scarcity": [[-5.0, 1e20]],
          "configdir": ".batchsim/configs/0123456789ab"})
@example({"group": "data", "cmd": "download", "source": "s/d", "dest": "output"})
@example({"group": "share", "cmd": "create", "name": "other", "quota": 100})
def test_an_entry_that_a_replay_accepts_parses_to_the_values_it_records(values):
    """recorded_command(recorded_argv(values)) is a ValidationError, or an entry whose parse
    gives back each recorded value (--dest as replay-download, and --configdir and
    --manifest as the package's configs/<id> and ingress/<n>.json)."""
    try:
        entry = climod.recorded_command(climod.recorded_argv(values))
    except ValidationError:
        return
    dests = climod.COMMITTING[tuple(values[k] for k in ("group", "cmd", "sub") if k in values)]
    parsed = vars(climod.build_parser().parse_args(entry))
    replayed = {"dest": lambda v: "replay-download",
                "configdir": lambda v: v and v.removeprefix(".batchsim/"),
                "manifest": lambda v: v and v.removeprefix(".batchsim/")}
    assert {d: parsed[d] for d in dests} == {
        d: replayed.get(d, lambda v: v)(values[d]) for d in dests}


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
