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
_ROWS = "tests/test_state.py::test_corrupt_task_row_is_rejected"
_CORRUPT_ROW = "tests/test_cli.py::test_corrupt_task_row_exits_2_without_mutation"
_COLUMN_CHECK = ("tests/test_state.py::"
                 "test_the_column_check_takes_exactly_the_rows_that_the_row_reader_takes")
_KILLED = "tests/test_cli.py::test_a_killed_command_leaves_the_session_without_it"
_FAILED_WRITE = "tests/test_cli.py::test_a_failed_write_takes_the_whole_command_back"
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
    Mutant("pool-twice-taken", "state.py", "if cfg.pool_id in svc.pools:", "if False:",
           (f"{_CORRUPT}[pool-twice-jobs-add]", f"{_CORRUPT}[pool-twice-pool-del]")),
    Mutant("job-twice-taken", "state.py", "if job_id in jobs:", "if False:",
           (f"{_CORRUPT}[job-twice-jobs-add]", f"{_CORRUPT}[job-twice-pool-del]")),
    Mutant("share-twice-taken", "state.py", "if share.name in svc.storage.shares:", "if False:",
           (f"{_CORRUPT}[share-twice-jobs-add]", f"{_CORRUPT}[share-twice-pool-del]")),
    # node i of a pool is dedicated if i < vm_count.dedicated, as pool add and a load build it
    Mutant("node-priority-off-by-one", "batch.py", "i < cfg.dedicated_count",
           "i <= cfg.dedicated_count",
           ("tests/test_golden.py::test_cli_low_priority_status_digests",
            "tests/test_batch.py::test_preemption_fails_whole_gang_task")),
    # a pool holds the nodes of its vm_count, so a load builds each from its position alone
    Mutant("node-count-unchecked", "state.py", 'if len(values["nodes"]) != cfg.node_count:',
           "if False:", (f"{_CORRUPT}[node-dropped-jobs-add]", f"{_CORRUPT}[node-added-pool-del]")),
    # a pool's warnings follow from its config: pool add logs and prints them, status shows them
    Mutant("pool-warning-dropped", "config.py",
           "        if self.low_priority_count > 0 and self.inter_node_comm:\n",
           "        if False:\n",
           ("tests/test_config.py::test_validate_pool_low_priority_comm_is_warning",
            "tests/test_batch.py::test_pool_add_low_priority_comm_warning_not_rejection",
            "tests/test_cli.py::test_pool_add_prints_the_warnings_of_its_config_before_the_pool",
            "tests/test_golden.py::test_cli_low_priority_status_digests")),
    # a package replays a transcript that begins with workspace init, against packed
    # outputs that are files; PASS names the seed of that init, and a FAIL the first line
    # that differs
    Mutant("manifest-without-init-first-taken", "cli.py",
           'if not commands or commands[0][:2] != ["workspace", "init"]:', "if not commands:",
           tuple(f"tests/test_cli.py::test_repro_verify_rejects_a_malformed_manifest[{case}]"
                 for case in ("no-init", "init-second"))),
    Mutant("manifest-init-unchecked", "cli.py",
           'if not commands or commands[0][:2] != ["workspace", "init"]:', "if False:",
           ("tests/test_cli.py::test_repro_verify_rejects_a_malformed_manifest[no-init]",
            "tests/test_cli.py::test_repro_verify_rejects_a_malformed_manifest"
            "[empty-transcript]")),
    Mutant("packed-outputs-unchecked", "cli.py",
           'if not (extracted / "outputs" / name).is_file():', "if False:",
           tuple(f"tests/test_cli.py::test_a_package_without_a_packed_output_file_exits_2_"
                 f"before_any_replay[{case}]" for case in ("missing", "directory"))),
    Mutant("pass-names-the-default-seed", "cli.py",
           "(seed {build_parser().parse_args(commands[0]).seed})", "(seed {ServiceOptions().seed})",
           ("tests/test_cli.py::test_repro_pack_and_verify_scenario",)),
    Mutant("divergence-line-off-by-one", "cli.py", "line {n + 1}: expected", "line {n}: expected",
           ("tests/test_cli.py::test_repro_verify_names_the_edited_ledger_line_and_the_command_"
            "that_billed_it",
            "tests/test_cli.py::test_repro_verify_names_the_edited_line_of_a_packed_output")),
    # the FAIL names the entry before the one whose commit first held the line
    Mutant("divergence-writer-one-early", "cli.py", "if held[k] > n), None)",
           "if held[k] >= n), None)",
           ("tests/test_cli.py::test_repro_verify_names_the_command_that_wrote_each_edited_line",)),
    Mutant("pack-without-a-finished-task", "cli.py",
           "    if not any(t.terminal for t in svc.all_tasks()):\n", "    if False:\n",
           ("tests/test_cli.py::test_repro_pack_requires_completed_run",)),
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
    Mutant("transition-log-dropped", "batch.py",
           "self.event_log.append((now, node.entity, _STARTING_TO_IDLE))",
           "self.event_log.flat.copy().extend((now, node.entity, _STARTING_TO_IDLE))",
           ("tests/test_golden.py::test_preemption_retry_mix_digests",
            "tests/test_fabric.py::"
            "test_event_log_records_come_back_in_write_order_from_each_writer")),
    Mutant("log-keeps-a-tuple-per-record", "fabric.py", "self.append = self.flat.extend",
           "self.append = lambda record, kept=[]: kept.append(record) or "
           "self.flat.extend(record)",
           ("tests/test_costs.py::test_the_run_makes_few_young_collections_and_no_full_one",)),
    # only a low-priority node is preempted, and never before the clock
    Mutant("dedicated-node-preempted", "batch.py",
           "        if node.priority is Priority.LOW_PRIORITY:\n"
           "            self.schedule_preemption(pool, node)\n",
           "        self.schedule_preemption(pool, node)\n",
           ("tests/test_golden.py::test_run_scenario_digests[snake2d]",
            "tests/test_batch.py::"
            "test_each_attempt_logs_one_move_to_running_and_back_per_node[retry-mix]")),
    Mutant("past-preempt-at-taken", "state.py", "or pending and node.preempt_at < now", "or False",
           (f"{_CORRUPT}[preempt-at-past-jobs-add]", f"{_CORRUPT}[preempt-at-past-pool-del]")),
    # the task rows of a state document are checked at once, a column at a time, and the
    # check takes exactly the rows that the row reader takes
    Mutant("row-check-takes-a-bool", "state.py",
           "{*map(type, instances + procs + gpus + attempts)} == {int}",
           "{*map(type, instances + procs + gpus + attempts)} <= {int, bool}",
           (f"{_ROWS}[bool-attempts]", f"{_CORRUPT_ROW}[bool-attempts]", _COLUMN_CHECK)),
    Mutant("row-check-takes-nan", "state.py", " and not any(map(ne, times, times))", "",
           (f"{_ROWS}[nan-end-time]", f"{_CORRUPT_ROW}[nan-end-time]", _COLUMN_CHECK)),
    Mutant("row-check-takes-a-node-twice", "state.py",
           "\n            and [*map(len, nodes)] == [*map(len, map(set, nodes))]", "",
           (f"{_ROWS}[node-twice]", f"{_CORRUPT_ROW}[node-twice]", _COLUMN_CHECK)),
    # one restore makes .batchsim/ what a committed state names: a snapshot or manifest
    # that a killed or failed command left is removed, and so is an ingress/ left empty and
    # an events.log of no committed line; a package then holds only what its transcript names
    Mutant("restore-keeps-an-unnamed-snapshot", "state.py",
           "for directory in (self.configs_dir, self.ingress_dir):",
           "for directory in (self.ingress_dir,):",
           (f"{_KILLED}[pool-add-other-configdir-before-save]",
            f"{_FAILED_WRITE}[pool-add-other-configdir-save]")),
    Mutant("restore-keeps-an-unnamed-manifest", "state.py",
           "for directory in (self.configs_dir, self.ingress_dir):",
           "for directory in (self.configs_dir,):",
           (f"{_KILLED}[data-ingress-manifest-before-save]",
            f"{_FAILED_WRITE}[data-ingress-manifest-save]")),
    Mutant("restore-keeps-an-empty-ingress-dir", "state.py",
           "            if directory.is_dir() and not any(directory.iterdir()):\n"
           "                directory.rmdir()\n", "",
           (f"{_KILLED}[data-ingress-before-save]", f"{_FAILED_WRITE}[data-ingress-save]")),
    Mutant("restore-leaves-an-empty-events-log", "state.py",
           "        if not events_bytes:\n            self.events_path.unlink(missing_ok=True)\n"
           "        elif logged > events_bytes:", "        if logged > events_bytes:",
           (f"{_KILLED}[storage-account-create-after-events]",
            f"{_FAILED_WRITE}[storage-account-create-events]")),
    Mutant("restore-keeps-a-temporary-state", "state.py",
           "        for path in (self.state_path, self.ledger_path):\n"
           "            path.with_name(f\".{path.name}.tmp\").unlink(missing_ok=True)\n", "",
           (f"{_KILLED}[pool-add-before-state-rename]",
            f"{_KILLED}[pool-add-before-ledger-rename]")),
    # a package is renamed in at --out whole, once every file it names is found
    Mutant("pack-of-a-removed-file-written", "cli.py", "        if not path.exists():\n",
           "        if False:\n", tuple(f"tests/test_cli.py::test_repro_pack_of_a_removed_"
                                    f"named_file_exits_2_and_creates_nothing[{case}]"
                                    for case in ("manifest", "snapshot"))),
    Mutant("pack-written-in-place", "cli.py", 'statemod.replacing(out, "wb") as fh',
           'open(out, "wb") as fh', ("tests/test_cli.py::test_repro_pack_that_fails_mid_write_"
                                     "leaves_the_package_at_out_as_it_was",)),
    # a package is written only into a directory that exists, and only once every document
    # of each named snapshot is found; `replacing` makes no directory
    Mutant("pack-into-a-missing-directory", "cli.py", "    if not out.parent.is_dir():\n",
           "    if False:\n", ("tests/test_cli.py::test_repro_pack_that_cannot_write_at_out_"
                             "exits_2_and_creates_nothing[missing-dir]",)),
    Mutant("replacing-makes-its-directory", "state.py",
           '    tmp = path.with_name(f".{path.name}.tmp")\n',
           '    path.parent.mkdir(parents=True, exist_ok=True)\n'
           '    tmp = path.with_name(f".{path.name}.tmp")\n',
           ("tests/test_state.py::"
            "test_replacing_into_a_missing_directory_raises_and_makes_nothing",)),
    Mutant("snapshot-documents-unnamed", "state.py",
           'for d in SNAPSHOT if d != "catalog.yaml" or p in catalogued', "for d in ()",
           ("tests/test_cli.py::test_repro_pack_of_a_removed_named_file_exits_2_and_creates_"
            "nothing[snapshot-document]",)),
    # pool add checks its rules once, quota before RDMA
    Mutant("rdma-checked-at-parse", "config.py", "    if jobs.pool_id != pool.pool_id:\n",
           "    if pool.inter_node_comm and not sku.rdma_capable:\n"
           "        raise ValidationError(f\"{sku.name} has no RDMA interface\")\n"
           "    if jobs.pool_id != pool.pool_id:\n", (f"{_CLI_ERROR}[rdma-pool-over-the-quota]",)),
    # the report's total is printed to the cent, as its rows are
    Mutant("report-total-normalized", "billing.py",
           "{_cents(sum((row.usd for row in rows), Fraction(0)))}",
           "{usd_str(sum((row.usd for row in rows), Fraction(0)), 2)}",
           tuple(f"tests/test_billing.py::test_render_report_ends_with_the_total_to_the_cent"
                 f"[{case}]" for case in ("nothing-billed", "whole-dollars"))),
    # a failed workspace init, which loads no state, puts back the ledger.tsv it found
    Mutant("failed-init-keeps-its-own-ledger", "cli.py",
           "                store.ledger_path.write_bytes(ledger)\n", "                pass\n",
           ("tests/test_cli.py::"
            "test_failed_init_beside_the_files_of_a_killed_one_leaves_them[save]",)),
    # a CG solve allocates no grid array per iteration
    Mutant("cg-stencil-allocates-per-iteration", "workloads.py",
           "apply_poisson(grid, p, out=ap, pool=pool, ranks=workers)",
           "ap = apply_poisson(grid, p, pool=pool, ranks=workers)",
           ("tests/test_costs.py::test_traced_allocation_peak_of_a_small_cg_solve_is_bounded",)),
    # the pass-throughs' callers
    Mutant("negative-seconds-metered", "billing.py", "    if seconds < 0:\n",
           "    if False:\n", ("tests/test_billing.py::test_meter_vm_rejects_negative",)),
    Mutant("default-quotas-shared", "catalog.py",
           "return {r: RegionQuota(q.dedicated_cores, q.low_priority_cores)\n"
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
