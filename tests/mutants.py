"""Named mutants: small faults in src/batchsim, each with the tests that must catch it.

    python tests/mutants.py [NAME ...]

For each mutant of MUTANTS (all of them, or those named), copies src/, tests/ and
configs/ into a temporary directory, replaces the mutant's old text with its new text
in its file there, and runs pytest on only its test ids. It prints `killed` when they
fail, `SURVIVED` when they pass, `STALE` when the old text does not occur exactly once
in the file, and `ERROR` when pytest could not run them (its exit status is neither 0
nor 1: an id that names no test, or a mutant that does not import). The exit status is
1 if any mutant is not killed, else 0. tests/test_mutants.py checks only that each old
text occurs once, so the table cannot rot; the full run is not part of the suite.
The name does not match pytest's `test_*.py`, so the suite does not collect it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "batchsim"
COPIED = ("src", "tests", "configs")


class Mutant(NamedTuple):
    name: str
    file: str  # under src/batchsim
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple  # pytest ids, relative to the repository root


_CORRUPT = "tests/test_cli.py::test_corrupt_pool_or_node_field_exits_2_without_mutation"
_CLI_ERROR = "tests/test_cli.py::test_cli_error_exits_with_its_code_and_line_without_mutation"
_CRAFTED = "tests/test_cli.py::test_repro_verify_rejects_a_command_no_commit_records"
_ENTRIES_UNDER = ("tests/test_storage.py::test_download_missing_directory",
                  "tests/test_storage.py::"
                  "test_entries_under_lists_exactly_the_entries_below_a_parent_of_one")

MUTANTS = [
    # a share's directories are the proper parents of its entries' paths
    Mutant("entries-under-never-raises", "storage.py", "        if not entries:\n",
           "        if entries is None:\n", _ENTRIES_UNDER),
    Mutant("entries-under-prefix-without-slash", "storage.py", 'prefix = directory + "/"',
           "prefix = directory", _ENTRIES_UNDER[1:]),
    # ids are unique in state.json
    Mutant("node-id-twice-taken", "state.py", "if len({*ids}) < len(ids):", "if False:",
           (f"{_CORRUPT}[node-id-twice-jobs-add]", f"{_CORRUPT}[node-id-twice-pool-del]")),
    Mutant("pool-twice-taken", "state.py", "if cfg.pool_id in svc.pools:", "if False:",
           (f"{_CORRUPT}[pool-twice-jobs-add]", f"{_CORRUPT}[pool-twice-pool-del]")),
    Mutant("job-twice-taken", "state.py", "if job_id in svc.jobs:", "if False:",
           (f"{_CORRUPT}[job-twice-jobs-add]", f"{_CORRUPT}[job-twice-pool-del]")),
    Mutant("share-twice-taken", "state.py", "if share.name in svc.storage.shares:", "if False:",
           (f"{_CORRUPT}[share-twice-jobs-add]", f"{_CORRUPT}[share-twice-pool-del]")),
    # a package's manifest seed is the one its transcript's workspace init sets
    Mutant("manifest-seed-unchecked", "cli.py",
           "if init is None or build_parser().parse_args(init).seed != seed:", "if init is None:",
           ("tests/test_cli.py::test_repro_verify_rejects_a_malformed_manifest[other-seed]",
            "tests/test_cli.py::"
            "test_a_package_leaf_of_another_kind_exits_2_before_any_replay[seed-negative]")),
    Mutant("manifest-without-init-taken", "cli.py",
           "if init is None or build_parser().parse_args(init).seed != seed:",
           "if init is not None and build_parser().parse_args(init).seed != seed:",
           ("tests/test_cli.py::test_repro_verify_rejects_a_malformed_manifest[no-init]",)),
    # a manifest that fills a share exactly is admitted
    Mutant("ingress-rejects-a-full-share", "storage.py",
           "if sh.used_bytes + growth > sh.quota_bytes:",
           "if sh.used_bytes + growth >= sh.quota_bytes:",
           ("tests/test_storage.py::"
            "test_ingress_of_exactly_the_quota_is_admitted_and_one_byte_more_is_not",)),
    # a commit writes only an entry that a replay accepts, and a replay accepts only an
    # entry in the form and order that a commit writes
    Mutant("commit-entry-unchecked", "cli.py", "        recorded_command(entry)  # ", "        # ",
           tuple(f"{_CLI_ERROR}[{case}]" for case in (
               "init-records-an-exponent-scarcity", "share-name-like-a-flag",
               "download-dest-like-a-flag"))),
    Mutant("replay-round-trip-unchecked", "cli.py",
           "recorded_argv(vars(build_parser().parse_args(argv))) == argv",
           "bool(recorded_argv(vars(build_parser().parse_args(argv))))",
           (f"{_CRAFTED}[reordered-options]", f"{_CRAFTED}[non-canonical-number]")),
    Mutant("replay-takes-any-flag", "cli.py",
           't in flags or not t.startswith("-") or NEGATIVE_NUMBER.fullmatch(t) for t in argv',
           "True for t in argv", (f"{_CRAFTED}[help]", f"{_CRAFTED}[abbreviated-help]")),
    # the clock runs an event scheduled at its own instant, after those queued before it
    Mutant("clock-rejects-the-current-instant", "fabric.py", "if at < self.now:",
           "if at <= self.now:", ("tests/test_fabric.py::test_clock_runs_an_event_scheduled_"
                                  "at_its_own_instant_after_those_queued_before",)),
    # the scheduler's own node moves: the idle index stays in node order, each move is
    # logged, and a node is linked to the task it runs only while it runs it
    Mutant("freed-node-appended-to-idle", "batch.py", "insort(idle, node, key=_POSITION)",
           "idle.append(node)",
           ("tests/test_scheduler_oracle.py::test_idle_index_matches_node_states_on_large_mix",)),
    Mutant("node-start-unlogged", "batch.py",
           "            log((now, node.entity, _IDLE_TO_RUNNING))\n", "",
           ("tests/test_batch.py::"
            "test_each_attempt_logs_one_move_to_running_and_back_per_node",)),
    Mutant("finished-task-linked-to-its-nodes", "batch.py", "            node.task = None\n", "",
           ("tests/test_batch.py::"
            "test_preempting_an_idle_node_leaves_the_task_it_finished_completed",)),
    # the event log keeps its records flat: each writer extends the one list, and no
    # object stays alive per record
    Mutant("transition-log-dropped", "fabric.py", "log.flat.extend((at, self.entity, text))",
           "log.flat.copy().extend((at, self.entity, text))",
           ("tests/test_golden.py::test_preemption_retry_mix_digests",
            "tests/test_fabric.py::"
            "test_event_log_records_come_back_in_write_order_from_each_writer")),
    Mutant("log-keeps-a-tuple-per-record", "batch.py", "self._log = self.event_log.flat.extend",
           "self._log = lambda record, kept=[]: kept.append(record) or "
           "self.event_log.flat.extend(record)",
           ("tests/test_costs.py::test_the_run_makes_few_young_collections_and_no_full_one",)),
    # the pass-throughs' callers
    Mutant("negative-seconds-metered", "billing.py", "    if seconds < 0:\n",
           "    if False:\n", ("tests/test_billing.py::test_meter_vm_rejects_negative",)),
    Mutant("default-quotas-shared", "catalog.py",
           "return {r: RegionQuota(r, q.dedicated_cores, q.low_priority_cores)\n"
           "                for r, q in self._quotas.items()}",
           "return dict(self._quotas)", ("tests/test_catalog.py::test_quota_snapshot_is_copy",)),
]


def occurrences(mutant: Mutant) -> int:
    """How often the mutant's old text occurs in its file."""
    return (PACKAGE / mutant.file).read_text().count(mutant.old)


def run(mutant: Mutant) -> str:
    """`killed`, `SURVIVED`, `STALE` or `ERROR`, as the module docstring says."""
    if occurrences(mutant) != 1:
        return "STALE"
    with tempfile.TemporaryDirectory(prefix="batchsim-mutant-") as tmp:
        root = Path(tmp)
        for name in COPIED:
            shutil.copytree(REPO_ROOT / name, root / name, ignore=shutil.ignore_patterns(
                "__pycache__", ".hypothesis", ".pytest_cache"))
        path = root / "src" / "batchsim" / mutant.file
        path.write_text(path.read_text().replace(mutant.old, mutant.new))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *mutant.tests], cwd=root, capture_output=True, text=True, timeout=600,
            env={**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"})
    return {0: "SURVIVED", 1: "killed"}.get(done.returncode, "ERROR")


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no such mutant: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    failed = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        outcome = run(mutant)
        failed += outcome != "killed"
        print(f"{mutant.name}\t{outcome}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
