"""Smoke tests: each script under scripts/ runs to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv, header", [
    (["run_poisson_benchmarks.py", "--edges", "8", "16"],
     "# real CG solves, manufactured problem, absolute tolerance 1e-12"),
    (["run_osu_tables.py", "--outdir", "{tmp}"],
     "azure: smallest-message latency 1.95 us, plateau bandwidth 5.20 GB/s"),
    (["run_cost_analysis.py"], "scenario\tnodes\thours\tvm_usd\ttotal_usd\treserved_3yr_usd"),
], ids=["poisson-benchmarks", "osu-tables", "cost-analysis"])
def test_script_exits_0_and_prints_its_header(tmp_path, argv, header):
    script, *args = argv
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run([sys.executable, str(REPO_ROOT / "scripts" / script),
                           *(a.format(tmp=tmp_path) for a in args)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == header
