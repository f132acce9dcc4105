"""perfbench/tracer.py wraps batchsim functions by attribute name, so a rename
or a call that bypasses the module attribute would silently drop its spans."""

import io
import shutil
from pathlib import Path

from batchsim import cli

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_tracer_sees_config_io_and_undo_restores_every_attribute(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    import tracer

    shutil.copytree(REPO_ROOT / "configs" / "snake2d2k35", tmp_path / "cfg")
    tr = tracer.Tracer()
    patches = tracer.install(tr)
    patched = list(patches._undo)  # (owner, attribute or key, original value)
    try:
        code = cli.run_command(["-C", str(tmp_path), "workspace", "init", "--configdir", "cfg"],
                               out=io.StringIO(), err=io.StringIO())
    finally:
        patches.undo()
    assert code == 0
    # cli calls the parser and the serializer through its module globals
    assert tr.counts["config.parse_calls"] == 1
    assert [span[0] for span in tr.spans].count("config.serialize") == 1
    assert {key for owner, key, _ in patched if owner is cli} \
        == {"parse_config_dir", "serialize_config_dir", "run_command"}
    for owner, key, original in patched:
        now = owner[key] if isinstance(owner, dict) else getattr(owner, key)
        assert now is original, f"{key} still patched"


def test_import_split_reads_numpy_yaml_and_batchsim_from_a_child(tmp_path, monkeypatch):
    """The traced cli_walkthrough pass splits `import batchsim.cli` into numpy, yaml and the
    rest; it needs the child's -X importtime lines for all three modules."""
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    import passes

    (tmp_path / "tmp").mkdir()
    env = passes.Env(REPO_ROOT, tmp_path, passes.child_environment(REPO_ROOT, tmp_path))
    split = passes.import_split(env)
    assert set(split) == {"import.numpy_s", "import.yaml_s", "import.batchsim_s"}
    assert all(seconds > 0 for seconds in split.values())


def test_traced_sched_pass_reports_every_state_layer(tmp_path, monkeypatch):
    """The traced sched_mix pass times the state round trip through the wrapped
    service_to_doc, service_from_doc, WorkspaceStore.save and WorkspaceStore.load, and
    reads state_path after a save; layer_metrics needs each of them."""
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    import calibrate
    import passes
    import run

    env = passes.Env(REPO_ROOT, tmp_path, passes.child_environment(REPO_ROOT, tmp_path))
    p = passes.sched_pass(env, 1, calibrate.Speed("python"), traced=True)
    assert p.problems == []
    metrics = run.layer_metrics("sched_mix", p)
    assert {k for k in metrics if k.startswith("state.")} == {
        "state.load_s", "state.rehydrate_s", "state.to_doc_s", "state.save_s",
        "state.json_bytes"}
    assert all(metrics[k] > 0 for k in metrics if k.startswith("state."))


def test_traced_cg_pass_counts_one_stencil_per_iteration(tmp_path, monkeypatch):
    """The traced cg_solve pass counts each solve_cg and apply_poisson call through the
    workloads module attributes: execute must call solve_cg, and solve_cg apply_poisson,
    through them. With x = 0 the first residual is the rhs, so no stencil runs before the
    first iteration."""
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    import calibrate
    import passes
    import run

    env = passes.Env(REPO_ROOT, tmp_path, passes.child_environment(REPO_ROOT, tmp_path))
    p = passes.cg_pass(env, 1, calibrate.Speed("python"), traced=True)
    assert p.problems == []
    metrics = run.layer_metrics("cg_solve", p)
    assert metrics["workloads.execute_calls"] == len(passes.CG_SIZES)
    for n in passes.CG_SIZES:
        iterations = metrics[f"workloads.cg_iterations.n{n}"]
        assert iterations == p.layer[f"workloads.cg_iterations.n{n}"] > 0
        assert metrics[f"workloads.stencil_calls.n{n}"] == iterations
