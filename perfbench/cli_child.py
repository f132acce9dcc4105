"""One traced CLI command: python cli_child.py SPANS_JSON ARGV...

Imports batchsim.cli, installs the span wrappers, runs the command through
cli.run_command exactly as `python -m batchsim.cli ARGV...` would, writes
the spans to SPANS_JSON and exits with the command's exit code.
"""

import json
import sys

import tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from batchsim import cli

    tr = tracer.Tracer()
    tracer.install(tr)
    code = cli.run_command(argv)
    with open(spans_path, "w") as fh:
        json.dump(tr.to_doc(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
