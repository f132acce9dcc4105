"""tests/unreached_lines.py, run on one small test module: its report names each
executable line of src/batchsim that the module does not run, then their count."""

import re
import subprocess
import sys
from pathlib import Path

from unreached_lines import PACKAGE, REPO_ROOT, executable_lines


def test_report_lists_the_lines_a_module_does_not_run_then_their_count():
    done = subprocess.run([sys.executable, str(REPO_ROOT / "tests" / "unreached_lines.py"),
                           "-q", "-p", "no:cacheprovider", "tests/test_catalog.py"],
                          cwd=REPO_ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    *head, last = done.stdout.splitlines()
    listed = {}
    for line in head:
        if match := re.fullmatch(r"src/batchsim/(\w+\.py):(\d+): (.*)", line):
            name, number, text = match.groups()
            source = (PACKAGE / name).read_text().splitlines()
            assert text == source[int(number) - 1].strip()
            listed.setdefault(name, set()).add(int(number))
    count = re.fullmatch(r"(\d+) of (\d+) executable lines not run", last)
    assert count, last
    total = sum(len(executable_lines(path)) for path in PACKAGE.glob("*.py"))
    assert (int(count[1]), int(count[2])) == (sum(map(len, listed.values())), total)
    # test_catalog.py never imports the CLI, and it looks up a SKU
    assert listed["cli.py"] == executable_lines(PACKAGE / "cli.py")
    lookup = (PACKAGE / "catalog.py").read_text().splitlines().index(
        "            return self._skus[name]") + 1
    assert lookup in executable_lines(PACKAGE / "catalog.py") - listed.get("catalog.py", set())
