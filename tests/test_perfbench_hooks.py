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
