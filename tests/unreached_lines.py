"""List the executable lines of src/batchsim that no test runs.

    python tests/unreached_lines.py [pytest arguments]

Runs pytest in this process (the whole suite when no arguments are given) under
`sys.settrace` and `threading.settrace`, records each line of src/batchsim that runs,
and prints every executable line that did not, as `src/batchsim/<file>:<line>: <text>`,
then `<n> of <total> executable lines not run`. A line counts as executable when the
compiled module has an instruction on it. Only this process is traced: a line that
runs only in a child interpreter (the CLI sessions of tests/test_golden.py, the
scripts of tests/test_scripts.py) counts as not run. The exit status is pytest's.
The name does not match pytest's `test_*.py`, so the suite does not collect it.
"""

import sys
import threading
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "batchsim"


def executable_lines(path: Path) -> set[int]:
    """The lines that hold an instruction of the module at `path` or of any code in it."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_pytest(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status and, per file of the package, the lines that ran."""
    import pytest  # before tracing starts: its import is not what is measured

    prefix = f"{PACKAGE}/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def main(args: list[str]) -> int:
    status, ran = traced_pytest(args)
    unreached = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        text = path.read_text().splitlines()
        missed = sorted(lines - ran.get(str(path), set()))
        for line in missed:
            print(f"{path.relative_to(REPO_ROOT)}:{line}: {text[line - 1].strip()}")
        unreached += len(missed)
        total += len(lines)
    print(f"{unreached} of {total} executable lines not run")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
