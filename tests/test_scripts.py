"""Each script under scripts/ runs to completion and prints, and writes, the paper's
tables byte for byte: the sha256 of its stdout and of every file it writes is pinned.

Each script runs in a child interpreter with BLAS on one thread, as the sessions of
tests/test_golden.py do, because the CG iteration counts that run_poisson_benchmarks.py
prints depend on the BLAS thread count; its wall times go to stderr, which is not pinned.
A moved digest is re-recorded as tests/test_golden.py says.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import THREAD_VARS, _check, _sha

REPO_ROOT = Path(__file__).resolve().parent.parent

# id: (argv, first line of stdout, {"stdout" or a written file's path: sha256})
SCRIPTS = {
    "poisson-benchmarks": (
        ["run_poisson_benchmarks.py", "--edges", "8", "16"],
        "# real CG solves, manufactured problem, absolute tolerance 1e-12",
        {"stdout": "07431ac7d48aedcc43bf798c4eb0fe41b23bc10dbff7fe5ece341bb287b0ab92"}),
    "osu-tables": (
        ["run_osu_tables.py", "--outdir", "tables"],
        "azure: smallest-message latency 1.95 us, plateau bandwidth 5.20 GB/s",
        {"stdout": "a1a30fd9c1159713c6eeb3728907b76619f08d7651c69e6c3170b7d2a646ada4",
         "tables/bandwidth_azure.tsv":
             "ce90f14466eefd287b97e43425c38e2423af54eaaa941c414f2a7820d3f23cee",
         "tables/bandwidth_colonial-one.tsv":
             "7ea8ca3b4f7bb90e76fa3b0c1cd8237d3ae3b9981078525c12e92b84333f4cee",
         "tables/latency_azure.tsv":
             "0b5df09f126eabb3464cba2733bacaf71084599577f2cf135a943982ed00ed95",
         "tables/latency_colonial-one.tsv":
             "cb107ce9ec9ae844631a9ea4bf069c3c0bb512640f4452e2b41180cc93ce061b"}),
    "cost-analysis": (
        ["run_cost_analysis.py"],
        "scenario\tnodes\thours\tvm_usd\ttotal_usd\treserved_3yr_usd",
        {"stdout": "3d83e2a1ceec8ecec3ff4f457e18705e99d93285fe22b387a5c58fae36d5b944"}),
}


@pytest.mark.parametrize("argv, header, digests", list(SCRIPTS.values()), ids=list(SCRIPTS))
def test_script_prints_and_writes_its_pinned_tables(tmp_path, argv, header, digests):
    done = _run(tmp_path, argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == header
    written = {p.relative_to(tmp_path).as_posix(): _sha(p.read_bytes())
               for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    _check({"stdout": _sha(done.stdout.encode()), **written}, digests)


def _run(tmp_path, argv) -> subprocess.CompletedProcess:
    script, *args = argv
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    env.update({var: "1" for var in THREAD_VARS})
    return subprocess.run([sys.executable, str(REPO_ROOT / "scripts" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
