"""Golden digests of the digested artifacts, and of what `status` prints.

A change that moves a digest on purpose re-records it this way: run this
file at the parent commit and check that it passes there; apply the change
and re-record only the digests that moved, after checking that each moved
file still means the same (for state.json: the decoded documents differ
only where the change says they should); then list each changed digest
and its reason in CHANGES.md. On a mismatch each test prints the whole
actual digest dict as a Python literal, to copy over the recorded one.
Each CLI session runs in a child interpreter with BLAS pinned to one
thread, because the CG task's iteration count (and so its solve.tsv and
the event log) depends on the BLAS thread count. tests/test_scripts.py pins
the experiment scripts' tables the same way. The environment cells run a
session and a scenario, each packed and verified, under other hash seeds, a
far time zone, the C locale, umask 077, a deep working directory and -C DIR,
and check them against the same digests.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

import pytest

from batchsim import billing
from batchsim.scenarios import run_scenario, scenario_by_name
from batchsim.state import service_to_doc

from randomized import run_retry_mix

REPO_ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

_CHILD = """
import io, json, sys
from batchsim.cli import run_command
codes = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    codes.append([run_command(argv, out=out, err=err), err.getvalue(), out.getvalue()])
print(json.dumps(codes))
"""

# the same, but each command runs in the directory that it is paired with
_CHILD_IN_DIRS = """
import io, json, os, sys
from batchsim.cli import run_command
codes = []
for cwd, argv in json.loads(sys.argv[1]):
    os.chdir(cwd)
    out, err = io.StringIO(), io.StringIO()
    codes.append([run_command(argv, out=out, err=err), err.getvalue(), out.getvalue()])
print(json.dumps(codes))
"""


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _check(actual: dict, expected: dict):
    assert actual == expected, "actual digests:\n" + json.dumps(actual, indent=4, sort_keys=True)


SCENARIO_DIGESTS = {
    "snake2d": {
        "events.log":
            "a54763ca38e6956028a07d69cb12c451c85644a2ba674000c359277f8afe3563",
        "ledger.tsv":
            "12376c8de9941ab6d9cba4539ba39d11fb17085099a44307c91d76b6e6817b98",
    },
    "snake3d": {
        "events.log":
            "62a38b7e83d435a2101b62830d6e9a4104f342097ee101d35b306e86d7792946",
        "ledger.tsv":
            "92a5cc9ee9cf97d68520e9d9ebcc2fd26f8297121fab119f823c89ab2fec157e",
    },
    "snake3d_fine": {
        "events.log":
            "d840a552c38a238d237079d1e042a78cb557d4a208e014b7876cebfc3deb6c45",
        "ledger.tsv":
            "39412d6cf1c59b02ec58907065179df8c5fa5b6c8b258eb50207eb167d8b8695",
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIO_DIGESTS))
def test_run_scenario_digests(name):
    run = run_scenario(scenario_by_name(name), seed=0)
    _check({"events.log": _sha(run.events.encode()),
            "ledger.tsv": _sha(billing.export_tsv(run.service.ledger).encode())},
           SCENARIO_DIGESTS[name])


RETRY_MIX_DIGESTS = {
    "events.log": "657cad5422294288e0313bc8254397b1f1358a4075cf0355c990af89d3092b08",
    "ledger.tsv": "b9ce110b54541bd52b492ba2196b47ea1931e2c7b18ab49112056f45d8dd914e",
    "service_to_doc": "b77f776d39781f6f75966b5a6fd6fb2474d01928b0742177f82e6acc79f8b504",
}


def test_preemption_retry_mix_digests():
    svc = run_retry_mix(16)
    events = svc.event_log.dump()
    for text in ("->Preempted", "Running->Pending (retry 1)", "Failed(NodePreempted)",
                 "Running->Failed(JobDeleted)", "Pending->Failed(JobDeleted)"):
        assert text in events
    doc = json.dumps(service_to_doc(svc), sort_keys=True)
    _check({"events.log": _sha(events.encode()),
            "ledger.tsv": _sha(billing.export_tsv(svc.ledger).encode()),
            "service_to_doc": _sha(doc.encode())}, RETRY_MIX_DIGESTS)


def _session(share_dir: str, ingress: list[str]) -> list[list[str]]:
    cfg = ["--configdir", "cfg"]
    return [
        ["workspace", "init", *cfg, "--seed", "0"],
        ["storage", "account", "create"],
        ["share", "create", "--name", "fileshare", "--quota", "100"],
        ["quota", "set", "--region", "eastus", "--dedicated", "100"],
        ["pool", "add", *cfg],
        ["data", "ingress", *cfg, *ingress],
        ["jobs", "add", *cfg],
        ["pool", "del", *cfg],
        ["jobs", "del", *cfg],
        ["data", "download", "--source", f"fileshare/{share_dir}", "--dest", "output"],
    ]


SESSIONS = {
    "snake2d2k35": _session("snake2d2k35", ["--source", "cfg/inputs"]),
    "osu_nc24r": _session("osu", ["--manifest", "manifest.yaml"]),
    "poisson_h16r": _session("poisson", ["--manifest", "manifest.yaml"]),
}

SESSION_DIGESTS = {
    "osu_nc24r": {
        "configs/0959c49d3a13/credentials.yaml":
            "a5c6b51c6330e3aad8a9e14cd3c527d63e87d05e8b21849e9c811fc23b663543",
        "configs/0959c49d3a13/jobs.yaml":
            "ccece2f987197cf8485fa1dd5186cd7709bde2a9542cb82eef356d33e5ee280a",
        "configs/0959c49d3a13/pool.yaml":
            "365036fee06b8fae9b70bd23252bd140787250af1f5503b62fcf6acc3294f5b6",
        "configs/0959c49d3a13/workspace.yaml":
            "9c83675984da2face1a6f9943e95d2588dbf869433b4bcd2fe609e70ecf3d2c7",
        "events.log":
            "c7d13a78d77499ca05ae6de6805dc7d2b52dfbd1960834fec81bcdc73ec68f41",
        "ingress/0001.json":
            "c1af57c82e90d2bdfb1f96c2b64c06d4c98ca6311fba4235b9e4f688e986e584",
        "ledger.tsv":
            "b6716a4afec8cb5f84d9c360c113f946f94ff5e66d512f4d502541e9ed1cd4c3",
        "state.json":
            "1aea5a8e7617a1e587c768b010151fd6aaf2b4d373fc9ce05d9156670478254b",
    },
    "poisson_h16r": {
        "configs/c04bd6145343/credentials.yaml":
            "a5c6b51c6330e3aad8a9e14cd3c527d63e87d05e8b21849e9c811fc23b663543",
        "configs/c04bd6145343/jobs.yaml":
            "353fc87496df875b7c698ced629145d3bece6aac1bfc44519876aa00b72ab0ad",
        "configs/c04bd6145343/pool.yaml":
            "b5ee9ac9ce3a2c23be53e7b3a49abe23ca7a977c16b85244a7dd7a8d22845ba9",
        "configs/c04bd6145343/workspace.yaml":
            "9c83675984da2face1a6f9943e95d2588dbf869433b4bcd2fe609e70ecf3d2c7",
        "events.log":
            "a8478f6fd4063b701c8d411b6c21fdf93b093f111a788ea2a6e01699da21f34e",
        "ingress/0001.json":
            "c1af57c82e90d2bdfb1f96c2b64c06d4c98ca6311fba4235b9e4f688e986e584",
        "ledger.tsv":
            "113d850bf51d1a36f07e673369389d2bf33cb4b3281f9b79d9bdc3425e6636c3",
        "state.json":
            "c59f395bdaa3ef85483d6d290ebdbba36612359758c4e205ea71668546c34c8e",
    },
    "snake2d2k35": {
        "configs/95ad2d9e1a47/credentials.yaml":
            "a5c6b51c6330e3aad8a9e14cd3c527d63e87d05e8b21849e9c811fc23b663543",
        "configs/95ad2d9e1a47/jobs.yaml":
            "399e6c2eb805e82b216ca9a0fd5f22aa4d1d348105de6579a45e79eb4d72e510",
        "configs/95ad2d9e1a47/pool.yaml":
            "b8983c5e9c2ed4e8ae9dae99be11aeb9c748a1ef4b3c4c2a2cd859700d168205",
        "configs/95ad2d9e1a47/workspace.yaml":
            "9c83675984da2face1a6f9943e95d2588dbf869433b4bcd2fe609e70ecf3d2c7",
        "events.log":
            "e588c5a54260c19f82791dc1b16823c03d8d94daa229fa0b3a2d9da2f20c1466",
        "ingress/0001.json":
            "da10dc2190f2ab679079d8a6fcee47611aca832fae90da45e29231654d9e7edf",
        "ledger.tsv":
            "e2611985688cd8ac9a50b79ebfe7988c1dc6723ccf790327a8514d8a63297093",
        "state.json":
            "a1e2f9f04a5008477400e0ef866c1df93807f4be004642b59b77b9a29f594d47",
    },
}

SCENARIO_RUN_DIGESTS = {
    "snake2d": {
        "configs/c2d5cc3b5820/credentials.yaml":
            "528fd90f929ae79117c071331a3ca96ec4aaed554f051e53d81249264bb0457a",
        "configs/c2d5cc3b5820/jobs.yaml":
            "a64c46078b6cc2b4ef2f557b35a4bd6a0206c0a6a1428f773c4298e680afbf48",
        "configs/c2d5cc3b5820/pool.yaml":
            "c7f001c756ef5a39ca31438fb16c39d8aff87cc266698da0b4da75716c057e83",
        "configs/c2d5cc3b5820/workspace.yaml":
            "e605f31e947557abe0ba188c0a39177fb625a8ebc76f6c07995e28528f46fdf1",
        "events.log":
            "a54763ca38e6956028a07d69cb12c451c85644a2ba674000c359277f8afe3563",
        "ingress/0001.json":
            "89214ad09ce369a52d2dbf2531d33801d83728bbe79b850c5905bc633f84946c",
        "ledger.tsv":
            "12376c8de9941ab6d9cba4539ba39d11fb17085099a44307c91d76b6e6817b98",
        "state.json":
            "db78c2cdde72af0039001f6716de19c0185ca6be984d9956ea05dd8954826256",
    },
    "snake3d": {
        "configs/558f439409ba/credentials.yaml":
            "528fd90f929ae79117c071331a3ca96ec4aaed554f051e53d81249264bb0457a",
        "configs/558f439409ba/jobs.yaml":
            "059f8d26d804dde252d7cfeff33324e725033a437b29a098fe03b218a3816a1b",
        "configs/558f439409ba/pool.yaml":
            "b7cfb5f1cd33eeb2bf7f0c826f29dc931c533e134feb6f160ffc88584be13961",
        "configs/558f439409ba/workspace.yaml":
            "e605f31e947557abe0ba188c0a39177fb625a8ebc76f6c07995e28528f46fdf1",
        "events.log":
            "62a38b7e83d435a2101b62830d6e9a4104f342097ee101d35b306e86d7792946",
        "ingress/0001.json":
            "2c85442182ed2bdd0e7132fe842deba9eec918bd8bb38aaa8a9094eef81a0899",
        "ledger.tsv":
            "92a5cc9ee9cf97d68520e9d9ebcc2fd26f8297121fab119f823c89ab2fec157e",
        "state.json":
            "3a4cb1f8f5561701a2c08280f11d205e77a38945a2c2e9816c34ba0b12e44ab1",
    },
    "snake3d_fine": {
        "configs/61e3fe057bed/credentials.yaml":
            "528fd90f929ae79117c071331a3ca96ec4aaed554f051e53d81249264bb0457a",
        # holds the task's 1,206,828 s as "fixed:1206828.0"; %g would write the
        # lossy "fixed:1.20683e+06", which reads back as 1,206,830 s
        "configs/61e3fe057bed/jobs.yaml":
            "2063004441ca5ad8eb4a725cc270662bc60a56c9f087851f523b384bbeded170",
        "configs/61e3fe057bed/pool.yaml":
            "26a7eb43d671004d5ef873f13f83a8a98f524dec4d98bab799410c8fd79509ab",
        "configs/61e3fe057bed/workspace.yaml":
            "e605f31e947557abe0ba188c0a39177fb625a8ebc76f6c07995e28528f46fdf1",
        "events.log":
            "d840a552c38a238d237079d1e042a78cb557d4a208e014b7876cebfc3deb6c45",
        "ingress/0001.json":
            "2c85442182ed2bdd0e7132fe842deba9eec918bd8bb38aaa8a9094eef81a0899",
        "ledger.tsv":
            "39412d6cf1c59b02ec58907065179df8c5fa5b6c8b258eb50207eb167d8b8695",
        "state.json":
            "dac897d2e70febbde345af023ae71850b3c7bf843fa329f00e10515078e88c58",
    },
}


def _run_python(workdir: Path, *args: str, env: dict | None = None, umask: int = -1) -> str:
    """stdout of a child interpreter run on this checkout's sources, BLAS on one thread,
    with `env` added to this process's environment and, unless it is -1, `umask`."""
    env = {**os.environ, **{var: "1" for var in THREAD_VARS}, **(env or {})}
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, *args], cwd=workdir, env=env, umask=umask,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _run_child(workdir: Path, commands: list[list[str]]) -> list:
    return json.loads(_run_python(workdir, "-c", _CHILD, json.dumps(commands)))


def _tree_digests(workdir: Path) -> dict:
    """Digest of every file under .batchsim/: outputs, state, configs and manifests."""
    store = workdir / ".batchsim"
    return {p.relative_to(store).as_posix(): _sha(p.read_bytes())
            for p in sorted(store.rglob("*")) if p.is_file()}


def _status_digests(commands: list[list[str]], results: list) -> dict:
    """Digest of the stdout of each `status` in `commands`, named by the command before it."""
    return {f"status after {' '.join(before[:2])}": _sha(out.encode())
            for before, argv, (_, _, out) in zip(commands, commands[1:], results[1:])
            if argv == ["status"]}


def _with_status(session: list[list[str]]) -> list[list[str]]:
    """`session` with a `status` after its `jobs add`, `pool del` and `jobs del`."""
    return [step for argv in session for step in (
        [argv, ["status"]] if argv[:2] in (["jobs", "add"], ["pool", "del"], ["jobs", "del"])
        else [argv])]


# the `status` stdout of each SESSIONS config, and of LOW_PRIORITY_SESSION
STATUS_DIGESTS = {
    "osu_nc24r": {
        "status after jobs add":
            "2745d06a9e8f9cf6217eab1893d1601e5659af94193a56d1eb6e3df5c5e63e63",
        "status after jobs del":
            "1853302ff305afe1ca4d9d2f94b5a136581bef2e0427b5112c0ba9b4ad5931bd",
        "status after pool del":
            "baeed8e733fb9413a8dd629c439c49da5943d883dd5782d0e0727d61b6e5f0ae",
    },
    "poisson_h16r": {
        "status after jobs add":
            "fc55f8138d02496bf31e9e7e6e6c58ab9659a099dc62a464ca0660d7c250742d",
        "status after jobs del":
            "79310aa1b56a83feb2fd5794e3206974849a2a835585dc9157671593cbd881c7",
        "status after pool del":
            "b0ce202287491a5db6e4216fac35dba76cb19d576ea566255d03e4ac35fc10be",
    },
    "snake2d2k35": {
        "status after jobs add":
            "0a91d1d0b8776e64da11d707966d02a13c03ead63a4fe406006ea294a10f9086",
        "status after jobs del":
            "13250a4aa352b5aa4de945ab916d1e7ff207c1bb751de945d726645a3df79682",
        "status after pool del":
            "e2e62ce77f6d217d0adc30b5695aa6a1cb90335420b212ebad6c6b6f71c79a5c",
    },
    "snake2d2k35-low-priority": {
        "status after jobs add":
            "31400f07d1f53e8842f6f7ca0d19b49bc2e40d95934390d35a70953f0383dc77",
        "status after jobs del":
            "f1237bcc64abfe763dc0fc20cb63da54976a2a1521b044e34c586d377f31eb20",
        "status after pool del":
            "442ec034bf040ad0b6d3c999b3ee1e8680f30697d82c0b10983d7eb86f25b31c",
    },
}


@pytest.mark.parametrize("config", sorted(SESSION_DIGESTS))
def test_cli_session_digests(config, tmp_path):
    shutil.copytree(REPO_ROOT / "configs" / config, tmp_path / "cfg")
    (tmp_path / "manifest.yaml").write_text(
        "entries:\n- {path: case.yaml, bytes: 4096}\n- {path: mesh.bin, bytes: 65536}\n")
    commands = _with_status(SESSIONS[config])
    results = _run_child(tmp_path, commands)
    assert all(code == 0 for code, *_ in results), results
    _check(_tree_digests(tmp_path), SESSION_DIGESTS[config])
    _check(_status_digests(commands, results), STATUS_DIGESTS[config])


# the snake2d2k35 session on one dedicated and three low-priority nodes, preempted at one
# per node-hour with one retry, so that status shows Preempted nodes and a failed task
LOW_PRIORITY_SESSION = [
    ["workspace", "init", "--configdir", "cfg", "--seed", "0", "--preemption-rate", "1.0",
     "--task-retries", "1"],
    *SESSIONS["snake2d2k35"][1:3],
    ["quota", "set", "--region", "eastus", "--dedicated", "100", "--low-priority", "100"],
    *SESSIONS["snake2d2k35"][4:],
]


def test_cli_low_priority_status_digests(tmp_path):
    shutil.copytree(REPO_ROOT / "configs" / "snake2d2k35", tmp_path / "cfg")
    pool = tmp_path / "cfg" / "pool.yaml"
    pool.write_text(pool.read_text().replace("dedicated: 2\n    low_priority: 0", "dedicated: 1\n"
                                             "    low_priority: 3").replace(
        "shared_filesystem: true", "shared_filesystem: false"))
    commands = _with_status(LOW_PRIORITY_SESSION)
    results = _run_child(tmp_path, commands)
    assert all(code == 0 for code, *_ in results), results
    status = results[commands.index(["status"])][2]
    for text in ('"Preempted"', '"failure": "NodePreempted"', '"LowPriorityInterNodeComm"'):
        assert text in status
    _check(_status_digests(commands, results), STATUS_DIGESTS["snake2d2k35-low-priority"])


@pytest.mark.parametrize("name", sorted(SCENARIO_RUN_DIGESTS))
def test_cli_scenario_run_digests(name, tmp_path):
    codes = _run_child(tmp_path, [["scenario", "run", name, "--seed", "0"]])
    assert codes[0][0] == 0, codes
    _check(_tree_digests(tmp_path), SCENARIO_RUN_DIGESTS[name])


# the sha256 of the manifest.json that `repro pack` writes after the snake2d2k35 session
# of SESSIONS and after the snake2d scenario; every other package member is a file of
# .batchsim/, which SESSION_DIGESTS and SCENARIO_RUN_DIGESTS pin
MANIFEST_DIGESTS = {
    "snake2d2k35": "3178c6d6136b22b81e2712142dc194286550c020d8e5b8db1992a6abb8ce717e",
    "snake2d": "3d3ee8710a80be79779f3d42619bcfd36cfe9092f0052a18a660f8c31ed6c6d4",
}
REPRO = [["repro", "pack"], ["repro", "verify", "repro-package.tar.gz"]]

# each cell changes two things from the default run: the environment, the umask, the
# working directory (about 200 characters deep), or -C DIR from elsewhere for cd DIR
ENVIRONMENT_CELLS = {  # name: (environment, umask or -1, cd or -C, deep)
    "hash-seed-0-kiritimati": ({"PYTHONHASHSEED": "0", "TZ": "Pacific/Kiritimati"}, -1, "cd",
                               False),
    "hash-seed-12345-c-utf8": ({"PYTHONHASHSEED": "12345", "LC_ALL": "C.UTF-8"}, -1, "cd",
                               False),
    "umask-077-deep-cwd": ({}, 0o077, "cd", True),
    "dash-c-deep-dir": ({}, -1, "-C", True),
}


def _package_digests(workspace: Path) -> dict:
    """Digest of every file member of the package that `repro pack` wrote in `workspace`."""
    with tarfile.open(workspace / "repro-package.tar.gz") as tar:
        return {m.name: _sha(tar.extractfile(m).read()) for m in tar.getmembers() if m.isfile()}


def _packed(tree: dict, manifest: str) -> dict:
    """The package member digests of a workspace of `tree` digests."""
    return {"manifest.json": manifest, **{
        f"outputs/{name}" if name in ("events.log", "ledger.tsv") else name: digest
        for name, digest in tree.items() if name != "state.json"}}


@pytest.mark.parametrize("cell", sorted(ENVIRONMENT_CELLS))
def test_outputs_state_and_package_do_not_depend_on_the_environment(cell, tmp_path):
    """The snake2d2k35 session and the snake2d scenario, each packed and verified, leave
    the default run's events.log, ledger.tsv, state.json and package members whatever the
    hash seed, time zone, locale, umask, depth of the working directory, or way of naming
    the workspace (-C DIR or cd DIR)."""
    env, umask, naming, deep = ENVIRONMENT_CELLS[cell]
    depth = 200 - len(str(tmp_path)) if deep else 0  # in directories of 40 characters
    base = tmp_path.joinpath(*[("d" * depth)[i:i + 40] for i in range(0, depth, 40)])
    session, scenario = base / "session", base / "scenario"
    shutil.copytree(REPO_ROOT / "configs" / "snake2d2k35", session / "cfg")
    scenario.mkdir()
    commands = [(session, argv) for argv in [*SESSIONS["snake2d2k35"], *REPRO]] + [
        (scenario, argv) for argv in [["scenario", "run", "snake2d", "--seed", "0"], *REPRO]]
    steps = [[str(where), argv] if naming == "cd" else [str(tmp_path), ["-C", str(where), *argv]]
             for where, argv in commands]
    assert len(str(base)) >= 200 if deep else base == tmp_path
    results = json.loads(_run_python(tmp_path, "-c", _CHILD_IN_DIRS, json.dumps(steps),
                                     env=env, umask=umask))
    assert all(code == 0 for code, *_ in results), results
    assert [out for _, _, out in results if out.startswith(("PASS", "FAIL"))] == [
        "PASS: 2 artifacts reproduced (seed 0)\n"] * 2
    _check(_tree_digests(session), SESSION_DIGESTS["snake2d2k35"])
    _check(_tree_digests(scenario), SCENARIO_RUN_DIGESTS["snake2d"])
    _check(_package_digests(session), _packed(SESSION_DIGESTS["snake2d2k35"],
                                              MANIFEST_DIGESTS["snake2d2k35"]))
    _check(_package_digests(scenario), _packed(SCENARIO_RUN_DIGESTS["snake2d"],
                                               MANIFEST_DIGESTS["snake2d"]))
