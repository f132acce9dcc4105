"""Golden digests of the digested artifacts.

A change that moves a digest on purpose re-records it this way: run this
file at the parent commit and check that it passes there; apply the change
and re-record only the digests that moved, after checking that each moved
file still means the same (for state.json: the decoded documents differ
only where the change says they should); then list each changed digest
and its reason in CHANGES.md. On a mismatch each test prints the whole
actual digest dict as a Python literal, to copy over the recorded one.
Each CLI session and experiment script runs in a child interpreter with
BLAS pinned to one thread, because the CG task's iteration count (and so
its solve.tsv and the event log) depends on the BLAS thread count.
"""

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from batchsim import billing
from batchsim.batch import BatchService, TaskState
from batchsim.catalog import default_catalog
from batchsim.config import JobsConfig, PoolConfig, TaskSpec
from batchsim.scenarios import run_scenario, scenario_by_name
from batchsim.state import service_to_doc
from batchsim.workloads import FixedDuration

REPO_ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

_CHILD = """
import io, json, sys
from batchsim.cli import run_command
codes = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    codes.append([run_command(argv, out=out, err=err), err.getvalue()])
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


def _retry_mix(seed: int) -> BatchService:
    """Gang tasks on a pool whose low-priority nodes are preempted, one retry per
    task, and the job of a running task deleted mid-run; outputs go to per-job
    directories of a share."""
    rng = random.Random(seed)
    svc = BatchService(default_catalog(), seed=seed, preemption_rate=1.0, task_retries=1)
    svc.quota_set("eastus", 1000, 1000)
    svc.storage.share_create("fileshare", 1)
    svc.pool_add(PoolConfig(pool_id="mix", sku="NC6", region="eastus", dedicated_count=2,
                            low_priority_count=4, inter_node_comm=False,
                            shared_filesystem=False, image="img:1"))
    svc.advance_until_pool_settled("mix")
    for j in range(8):
        tasks = tuple(TaskSpec(task_id=f"t{i}",
                               workload=FixedDuration(float(rng.randint(60, 7200))),
                               instances=rng.randint(1, 3), procs_per_node=1, gpus_per_node=0,
                               input_dir="fileshare/in", output_dir=f"fileshare/out/job{j}")
                      for i in range(rng.randint(1, 6)))
        svc.jobs_add(JobsConfig(job_id=f"job{j}", pool_id="mix", tasks=tasks))
    svc.clock.run(until=lambda: svc.clock.now >= 3 * 3600)
    svc.jobs_del(next(t.job_id for t in svc.all_tasks() if t.state is TaskState.RUNNING))
    svc.run_to_quiescence()
    svc.pool_del("mix")
    return svc


RETRY_MIX_DIGESTS = {
    "events.log": "657cad5422294288e0313bc8254397b1f1358a4075cf0355c990af89d3092b08",
    "ledger.tsv": "b9ce110b54541bd52b492ba2196b47ea1931e2c7b18ab49112056f45d8dd914e",
    "service_to_doc": "01abaf9c54947a0ac2f38b61b79c787fac9b8dd73108b766174f2c552e242ce6",
}


def test_preemption_retry_mix_digests():
    svc = _retry_mix(16)
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
        "configs/90a834b855b2/credentials.yaml":
            "e91ed72935a11889bd43f414e066bab6306006bfb7958c48a7d956d7c6b28231",
        "configs/90a834b855b2/jobs.yaml":
            "ccece2f987197cf8485fa1dd5186cd7709bde2a9542cb82eef356d33e5ee280a",
        "configs/90a834b855b2/pool.yaml":
            "365036fee06b8fae9b70bd23252bd140787250af1f5503b62fcf6acc3294f5b6",
        "configs/90a834b855b2/workspace.yaml":
            "9c83675984da2face1a6f9943e95d2588dbf869433b4bcd2fe609e70ecf3d2c7",
        "events.log":
            "c7d13a78d77499ca05ae6de6805dc7d2b52dfbd1960834fec81bcdc73ec68f41",
        "ingress/0001.json":
            "c1af57c82e90d2bdfb1f96c2b64c06d4c98ca6311fba4235b9e4f688e986e584",
        "ledger.tsv":
            "b6716a4afec8cb5f84d9c360c113f946f94ff5e66d512f4d502541e9ed1cd4c3",
        "state.json":
            "9b7970a415af45399aad00e7d5c83ca4393abc5777d93b2bd84c3482222fa3a4",
    },
    "poisson_h16r": {
        "configs/ea8157981390/credentials.yaml":
            "e91ed72935a11889bd43f414e066bab6306006bfb7958c48a7d956d7c6b28231",
        "configs/ea8157981390/jobs.yaml":
            "353fc87496df875b7c698ced629145d3bece6aac1bfc44519876aa00b72ab0ad",
        "configs/ea8157981390/pool.yaml":
            "b5ee9ac9ce3a2c23be53e7b3a49abe23ca7a977c16b85244a7dd7a8d22845ba9",
        "configs/ea8157981390/workspace.yaml":
            "9c83675984da2face1a6f9943e95d2588dbf869433b4bcd2fe609e70ecf3d2c7",
        "events.log":
            "a8478f6fd4063b701c8d411b6c21fdf93b093f111a788ea2a6e01699da21f34e",
        "ingress/0001.json":
            "c1af57c82e90d2bdfb1f96c2b64c06d4c98ca6311fba4235b9e4f688e986e584",
        "ledger.tsv":
            "113d850bf51d1a36f07e673369389d2bf33cb4b3281f9b79d9bdc3425e6636c3",
        "state.json":
            "4781347468441357a9e7b920ff0b772438a8a5bf417e959dae91212d1ecedcef",
    },
    "snake2d2k35": {
        "configs/6ff466814509/credentials.yaml":
            "e91ed72935a11889bd43f414e066bab6306006bfb7958c48a7d956d7c6b28231",
        "configs/6ff466814509/jobs.yaml":
            "399e6c2eb805e82b216ca9a0fd5f22aa4d1d348105de6579a45e79eb4d72e510",
        "configs/6ff466814509/pool.yaml":
            "b8983c5e9c2ed4e8ae9dae99be11aeb9c748a1ef4b3c4c2a2cd859700d168205",
        "configs/6ff466814509/workspace.yaml":
            "9c83675984da2face1a6f9943e95d2588dbf869433b4bcd2fe609e70ecf3d2c7",
        "events.log":
            "e588c5a54260c19f82791dc1b16823c03d8d94daa229fa0b3a2d9da2f20c1466",
        "ingress/0001.json":
            "da10dc2190f2ab679079d8a6fcee47611aca832fae90da45e29231654d9e7edf",
        "ledger.tsv":
            "e2611985688cd8ac9a50b79ebfe7988c1dc6723ccf790327a8514d8a63297093",
        "state.json":
            "fa42bca51182cad5cb58a14245e82f4fa378feb82fd18fe3ef2d41a57d19b337",
    },
}

SCENARIO_RUN_DIGESTS = {
    "snake2d": {
        "configs/2f3a59c58d88/credentials.yaml":
            "4267d5266544f4d83ba3c9ebbeb865417809e4ccf8629daa7c65e324921ad5ed",
        "configs/2f3a59c58d88/jobs.yaml":
            "a64c46078b6cc2b4ef2f557b35a4bd6a0206c0a6a1428f773c4298e680afbf48",
        "configs/2f3a59c58d88/pool.yaml":
            "c7f001c756ef5a39ca31438fb16c39d8aff87cc266698da0b4da75716c057e83",
        "configs/2f3a59c58d88/workspace.yaml":
            "e605f31e947557abe0ba188c0a39177fb625a8ebc76f6c07995e28528f46fdf1",
        "events.log":
            "a54763ca38e6956028a07d69cb12c451c85644a2ba674000c359277f8afe3563",
        "ingress/0001.json":
            "89214ad09ce369a52d2dbf2531d33801d83728bbe79b850c5905bc633f84946c",
        "ledger.tsv":
            "12376c8de9941ab6d9cba4539ba39d11fb17085099a44307c91d76b6e6817b98",
        "state.json":
            "cc9a67562fec8095a69bb65578fb58c3b3e60dddd3917a08ced2416cdc39ee3d",
    },
    "snake3d": {
        "configs/867e3d77a1ca/credentials.yaml":
            "4267d5266544f4d83ba3c9ebbeb865417809e4ccf8629daa7c65e324921ad5ed",
        "configs/867e3d77a1ca/jobs.yaml":
            "059f8d26d804dde252d7cfeff33324e725033a437b29a098fe03b218a3816a1b",
        "configs/867e3d77a1ca/pool.yaml":
            "b7cfb5f1cd33eeb2bf7f0c826f29dc931c533e134feb6f160ffc88584be13961",
        "configs/867e3d77a1ca/workspace.yaml":
            "e605f31e947557abe0ba188c0a39177fb625a8ebc76f6c07995e28528f46fdf1",
        "events.log":
            "62a38b7e83d435a2101b62830d6e9a4104f342097ee101d35b306e86d7792946",
        "ingress/0001.json":
            "2c85442182ed2bdd0e7132fe842deba9eec918bd8bb38aaa8a9094eef81a0899",
        "ledger.tsv":
            "92a5cc9ee9cf97d68520e9d9ebcc2fd26f8297121fab119f823c89ab2fec157e",
        "state.json":
            "a283cdfee1163b70c4acd78873c6d09732791415904cb2f5ea55680527a5834b",
    },
    "snake3d_fine": {
        "configs/c43c8d0feda5/credentials.yaml":
            "4267d5266544f4d83ba3c9ebbeb865417809e4ccf8629daa7c65e324921ad5ed",
        # holds the task's 1,206,828 s as "fixed:1206828.0"; %g would write the
        # lossy "fixed:1.20683e+06", which reads back as 1,206,830 s
        "configs/c43c8d0feda5/jobs.yaml":
            "2063004441ca5ad8eb4a725cc270662bc60a56c9f087851f523b384bbeded170",
        "configs/c43c8d0feda5/pool.yaml":
            "26a7eb43d671004d5ef873f13f83a8a98f524dec4d98bab799410c8fd79509ab",
        "configs/c43c8d0feda5/workspace.yaml":
            "e605f31e947557abe0ba188c0a39177fb625a8ebc76f6c07995e28528f46fdf1",
        "events.log":
            "d840a552c38a238d237079d1e042a78cb557d4a208e014b7876cebfc3deb6c45",
        "ingress/0001.json":
            "2c85442182ed2bdd0e7132fe842deba9eec918bd8bb38aaa8a9094eef81a0899",
        "ledger.tsv":
            "39412d6cf1c59b02ec58907065179df8c5fa5b6c8b258eb50207eb167d8b8695",
        "state.json":
            "75c200f55be85b945786733aa4b2f94aa4e4b011a4826a09e883f2f1956f4a84",
    },
}


def _run_python(workdir: Path, *args: str) -> str:
    """stdout of a child interpreter run on this checkout's sources, BLAS on one thread."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, *args], cwd=workdir, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _run_child(workdir: Path, commands: list[list[str]]) -> list:
    return json.loads(_run_python(workdir, "-c", _CHILD, json.dumps(commands)))


def _tree_digests(workdir: Path) -> dict:
    """Digest of every file under .batchsim/: outputs, state, configs and manifests."""
    store = workdir / ".batchsim"
    return {p.relative_to(store).as_posix(): _sha(p.read_bytes())
            for p in sorted(store.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("config", sorted(SESSION_DIGESTS))
def test_cli_session_digests(config, tmp_path):
    shutil.copytree(REPO_ROOT / "configs" / config, tmp_path / "cfg")
    (tmp_path / "manifest.yaml").write_text(
        "entries:\n- {path: case.yaml, bytes: 4096}\n- {path: mesh.bin, bytes: 65536}\n")
    codes = _run_child(tmp_path, SESSIONS[config])
    assert all(code == 0 for code, _ in codes), codes
    _check(_tree_digests(tmp_path), SESSION_DIGESTS[config])


@pytest.mark.parametrize("name", sorted(SCENARIO_RUN_DIGESTS))
def test_cli_scenario_run_digests(name, tmp_path):
    codes = _run_child(tmp_path, [["scenario", "run", name, "--seed", "0"]])
    assert codes[0][0] == 0, codes
    _check(_tree_digests(tmp_path), SCENARIO_RUN_DIGESTS[name])


SCRIPT_DIGESTS = {
    "run_cost_analysis.py stdout":
        "e063349d0f85ee9c0c1e1805c3a7092d378a290c3afbf9c7eeb5e0904b2ac177",
    "run_osu_tables.py bandwidth_azure.tsv":
        "ce90f14466eefd287b97e43425c38e2423af54eaaa941c414f2a7820d3f23cee",
    "run_osu_tables.py bandwidth_colonial-one.tsv":
        "7ea8ca3b4f7bb90e76fa3b0c1cd8237d3ae3b9981078525c12e92b84333f4cee",
    "run_osu_tables.py latency_azure.tsv":
        "0b5df09f126eabb3464cba2733bacaf71084599577f2cf135a943982ed00ed95",
    "run_osu_tables.py latency_colonial-one.tsv":
        "cb107ce9ec9ae844631a9ea4bf069c3c0bb512640f4452e2b41180cc93ce061b",
    "run_osu_tables.py stdout":
        "a1a30fd9c1159713c6eeb3728907b76619f08d7651c69e6c3170b7d2a646ada4",
    "run_poisson_benchmarks.py modeled scaling":
        "bfbc12c06bb1ff68a49c72181fbf437d851ac5abf4b811e530002d653b71221d",
}


def test_experiment_script_digests(tmp_path):
    """The tables the three experiment scripts print or write. Of the Poisson script
    only the modeled scaling section is pinned: the real solves print host wall times."""
    scripts = REPO_ROOT / "scripts"
    osu = _run_python(tmp_path, str(scripts / "run_osu_tables.py"), "--outdir", "tables")
    actual = {"run_osu_tables.py stdout": _sha(osu.encode())}
    for path in sorted((tmp_path / "tables").iterdir()):
        actual[f"run_osu_tables.py {path.name}"] = _sha(path.read_bytes())
    cost = _run_python(tmp_path, str(scripts / "run_cost_analysis.py"))
    actual["run_cost_analysis.py stdout"] = _sha(cost.encode())
    poisson = _run_python(tmp_path, str(scripts / "run_poisson_benchmarks.py"),
                          "--edges", "8", "12")
    head, sep, modeled = poisson.partition("\n# modeled strong scaling")
    assert sep and "# real CG solves" in head
    actual["run_poisson_benchmarks.py modeled scaling"] = _sha((sep + modeled).encode())
    _check(actual, SCRIPT_DIGESTS)
