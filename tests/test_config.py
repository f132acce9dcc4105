from pathlib import Path

import pytest
import yaml

from batchsim.catalog import Catalog, RegionQuota, default_catalog
from batchsim.config import (
    PoolConfig,
    bundle_documents,
    parse_config_dir,
    serialize_config_dir,
    validate_pool,
)
from batchsim.errors import ValidationError
from batchsim.state import catalog_from_doc, catalog_to_doc
from batchsim.workloads import FixedDuration

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLE_DIR = REPO_ROOT / "configs" / "snake2d2k35"

CATALOG = default_catalog()


def _write_example(tmp_path, mutate=None):
    """Copy the shipped example, optionally mutating one document."""
    docs = {}
    for name in ("workspace.yaml", "credentials.yaml", "pool.yaml", "jobs.yaml"):
        with open(EXAMPLE_DIR / name) as fh:
            docs[name] = yaml.safe_load(fh)
    if mutate:
        mutate(docs)
    for name, doc in docs.items():
        with open(tmp_path / name, "w") as fh:
            yaml.safe_dump(doc, fh, sort_keys=False)
    return tmp_path


def test_shipped_example_parses():
    bundle = parse_config_dir(EXAMPLE_DIR, CATALOG)
    assert bundle.pool.sku == "NC24r"
    assert bundle.pool.dedicated_count == 2
    assert bundle.pool.inter_node_comm and bundle.pool.shared_filesystem
    assert bundle.jobs.tasks[0].instances == 2
    assert bundle.jobs.tasks[0].workload == FixedDuration(25200.0)
    assert bundle.workspace.region == "eastus"


def test_every_shipped_config_dir_parses():
    dirs = [p for p in (REPO_ROOT / "configs").iterdir() if p.is_dir()]
    assert dirs
    for directory in dirs:
        parse_config_dir(directory, CATALOG)


def test_malformed_yaml_diagnostic(tmp_path):
    """The parser's own message, with its line and column, follows the document's path."""
    _write_example(tmp_path)
    path = tmp_path / "jobs.yaml"
    path.write_text("job:\n  id: x\n   pool: y\n")
    with pytest.raises(ValidationError) as err:
        parse_config_dir(tmp_path, CATALOG)
    assert str(err.value) == (f"{path}: key '<document>': not parseable: mapping values are "
                              f"not allowed in this context\n  in \"{path}\", line 3, column 8")


def test_missing_document(tmp_path):
    _write_example(tmp_path)
    (tmp_path / "pool.yaml").unlink()
    with pytest.raises(ValidationError) as err:
        parse_config_dir(tmp_path, CATALOG)
    assert str(err.value) == f"missing configuration document: {tmp_path / 'pool.yaml'}"


def test_missing_sku_key(tmp_path):
    def drop_sku(docs):
        del docs["pool.yaml"]["pool"]["sku"]

    _write_example(tmp_path, drop_sku)
    with pytest.raises(ValidationError) as err:
        parse_config_dir(tmp_path, CATALOG)
    assert "sku" in str(err.value)


def test_unknown_region(tmp_path):
    def bad_region(docs):
        docs["pool.yaml"]["pool"]["region"] = "nowhere"

    _write_example(tmp_path, bad_region)
    with pytest.raises(ValidationError, match="^pool region 'nowhere' not in catalog$"):
        parse_config_dir(tmp_path, CATALOG)


def test_task_geometry_cross_refs(tmp_path):
    def too_many_gpus(docs):
        docs["jobs.yaml"]["job"]["tasks"][0]["gpus_per_node"] = 5

    _write_example(tmp_path, too_many_gpus)
    with pytest.raises(ValidationError,
                       match="^task 'task0' wants 5 GPUs per node; NC24r has 4$"):
        parse_config_dir(tmp_path, CATALOG)


def test_too_many_procs(tmp_path):
    def too_many(docs):
        docs["jobs.yaml"]["job"]["tasks"][0]["procs_per_node"] = 25

    _write_example(tmp_path, too_many)
    with pytest.raises(ValidationError,
                       match="^task 'task0' wants 25 processes per node; NC24r has 24 vcores$"):
        parse_config_dir(tmp_path, CATALOG)


def test_job_pool_mismatch(tmp_path):
    def rename(docs):
        docs["jobs.yaml"]["job"]["pool"] = "other-pool"

    _write_example(tmp_path, rename)
    with pytest.raises(ValidationError, match="^jobs document targets pool 'other-pool' but pool "
                                              "document defines 'snake2d2k35'$"):
        parse_config_dir(tmp_path, CATALOG)


def test_duplicate_task_ids(tmp_path):
    def duplicate(docs):
        tasks = docs["jobs.yaml"]["job"]["tasks"]
        tasks.append(dict(tasks[0]))

    _write_example(tmp_path, duplicate)
    with pytest.raises(ValidationError):
        parse_config_dir(tmp_path, CATALOG)


def test_zero_nodes_rejected(tmp_path):
    def zero(docs):
        docs["pool.yaml"]["pool"]["vm_count"] = {"dedicated": 0, "low_priority": 0}

    _write_example(tmp_path, zero)
    with pytest.raises(ValidationError):
        parse_config_dir(tmp_path, CATALOG)


def test_round_trip_identity(tmp_path):
    bundle = parse_config_dir(EXAMPLE_DIR, CATALOG)
    out = tmp_path / "copy"
    serialize_config_dir(bundle, out)
    again = parse_config_dir(out, CATALOG)
    assert again == bundle
    assert bundle_documents(again) == bundle_documents(bundle)


def test_credentials_never_echoed():
    bundle = parse_config_dir(EXAMPLE_DIR, CATALOG)
    text = repr(bundle.credentials)
    assert "storagekey" not in text
    assert "batchkey" not in text
    assert "***" in text


def _pool(ded=1, low=0, sku="NC6", inter_node=False, shared_fs=False):
    return PoolConfig(
        pool_id="p", sku=sku, region="eastus", dedicated_count=ded,
        low_priority_count=low, inter_node_comm=inter_node,
        shared_filesystem=shared_fs, image="img:1",
    )


def _available():
    return CATALOG.default_quotas()["eastus"]  # 24 dedicated and 24 low-priority cores


def test_validate_pool_quota_exceeded():
    with pytest.raises(ValidationError, match="^quota exceeded in region eastus: needed 48 "
                                              "cores, available 24$"):
        validate_pool(_pool(ded=2, sku="NC24r", inter_node=True), CATALOG, _available())
    with pytest.raises(ValidationError, match="^quota exceeded in region eastus: needed 48 "
                                              "cores, available 30$"):
        validate_pool(_pool(ded=0, low=2, sku="NC24r"), CATALOG, RegionQuota(0, 30))


def test_validate_pool_shared_fs_low_priority():
    with pytest.raises(ValidationError, match="^a shared filesystem pool cannot include "
                                              "low-priority nodes$"):
        validate_pool(_pool(ded=1, low=1, shared_fs=True), CATALOG, _available())


def test_validate_pool_ok():
    for cfg, available in ((_pool(), _available()), (_pool(ded=4), RegionQuota(24, 0))):
        assert validate_pool(cfg, CATALOG, available) is None
        assert cfg.warnings == {}


def test_validate_pool_low_priority_comm_is_warning():
    cfg = _pool(low=1, sku="NC24r", inter_node=True)
    assert validate_pool(cfg, CATALOG, _available()) is None
    assert cfg.warnings == {"LowPriorityInterNodeComm": "low-priority nodes are preemptible and "
                            "best avoided for long-running jobs with inter-node communication"}


def test_validate_pool_rdma_rule():
    with pytest.raises(ValidationError, match="^inter-node communication requires an "
                                              "RDMA-capable SKU; NC6 has none$"):
        validate_pool(_pool(sku="NC6", inter_node=True), CATALOG, _available())


def _set(name, value, *keys):
    """A mutation that sets document `name` at `keys` to `value`; no keys replaces it whole."""
    def mutate(docs):
        if not keys:
            docs[name] = value
            return
        doc = docs[name]
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value
    return mutate


# (mutation, document, key reported, message): the readers' checks of each document's shape
SCHEMA_ERRORS = {
    "top-level-list": (_set("pool.yaml", [1]), "pool.yaml", "<document>",
                       "top level must be a mapping"),
    "text-inter-node-comm": (_set("pool.yaml", "yes", "pool", "inter_node_comm"), "pool.yaml",
                             "pool.inter_node_comm", "expected a boolean"),
    "list-vm-count": (_set("pool.yaml", [2, 0], "pool", "vm_count"), "pool.yaml",
                      "pool.vm_count", "expected a mapping"),
    "negative-vm-count": (_set("pool.yaml", -1, "pool", "vm_count", "dedicated"), "pool.yaml",
                          "pool.vm_count", "counts must be non-negative"),
    "mapping-tasks": (_set("jobs.yaml", {"task0": {}}, "job", "tasks"), "jobs.yaml",
                      "job.tasks", "expected a list"),
    "empty-tasks": (_set("jobs.yaml", [], "job", "tasks"), "jobs.yaml", "job.tasks",
                    "at least one task required"),
    "text-task": (_set("jobs.yaml", ["task0"], "job", "tasks"), "jobs.yaml", "job.tasks[0]",
                  "expected a mapping"),
}


@pytest.mark.parametrize("mutate, name, key, message", list(SCHEMA_ERRORS.values()),
                         ids=list(SCHEMA_ERRORS))
def test_config_schema_errors(tmp_path, mutate, name, key, message):
    _write_example(tmp_path, mutate)
    with pytest.raises(ValidationError) as err:
        parse_config_dir(tmp_path, CATALOG)
    assert str(err.value) == f"{tmp_path / name}: key {key!r}: {message}"


def _catalog_without(sku: str, region: str) -> Catalog:
    """The default catalog as a `--catalog` override in which `sku` is not sold in `region`."""
    doc = catalog_to_doc(CATALOG)
    for entry in doc["skus"]:
        if entry["name"] == sku:
            entry["regions"].remove(region)
    return catalog_from_doc(doc)


CROSS_REF_ERRORS = {
    "workspace-region": (_set("workspace.yaml", "nowhere", "workspace", "region"), CATALOG,
                         "workspace region 'nowhere' not in catalog"),
    "sku-not-in-pool-region": (None, _catalog_without("NC24r", "eastus"),
                               "SKU NC24r is not available in region 'eastus'"),
}


@pytest.mark.parametrize("mutate, catalog, message", list(CROSS_REF_ERRORS.values()),
                         ids=list(CROSS_REF_ERRORS))
def test_config_cross_ref_errors(tmp_path, mutate, catalog, message):
    _write_example(tmp_path, mutate)
    with pytest.raises(ValidationError) as err:
        parse_config_dir(tmp_path, catalog)
    assert str(err.value) == message


def _task_entry(**changes):
    """The example's first task entry with `changes` applied; a value of ... drops the key."""
    def mutate(docs):
        entry = docs["jobs.yaml"]["job"]["tasks"][0]
        for key, value in changes.items():
            if value is ...:
                del entry[key]
            else:
                entry[key] = value
    return mutate


ABSENT = "required key absent"
NOT_STRING = "expected a non-empty string"
NOT_INT = "expected an integer"

# (entry changes, key reported, message): pinned from the per-key reader, so
# that the shared task spec validator changes no jobs.yaml diagnostic
JOBS_DIAGNOSTICS = {
    "workload-absent": ({"workload": ...}, "workload", ABSENT),
    "workload-int": ({"workload": 7}, "workload", NOT_STRING),
    "workload-empty": ({"workload": ""}, "workload", NOT_STRING),
    "workload-blank": ({"workload": "   "}, "workload", NOT_STRING),
    "workload-unknown": ({"workload": "nosuch:1"}, "workload",
                         "unknown workload reference 'nosuch:1'"),
    "workload-bad-number": ({"workload": "fixed:abc"}, "workload",
                            "bad workload reference 'fixed:abc': "
                            "could not convert string to float: 'abc'"),
    "workload-grid-edge-1": ({"workload": "poisson:cg:1"}, "workload",
                             "bad workload reference 'poisson:cg:1': "
                             "grid edge must be at least 2"),
    "workload-zero-cells": ({"workload": "poisson:strong:0"}, "workload",
                            "bad workload reference 'poisson:strong:0': "
                            "base_cells must be positive"),
    "instances-absent": ({"instances": ...}, "instances", ABSENT),
    "instances-string": ({"instances": "2"}, "instances", NOT_INT),
    "instances-bool": ({"instances": True}, "instances", NOT_INT),
    "instances-zero": ({"instances": 0}, "instances", "must be at least 1"),
    "id-absent": ({"id": ...}, "id", ABSENT),
    "id-int": ({"id": 3}, "id", NOT_STRING),
    "id-empty": ({"id": ""}, "id", NOT_STRING),
    "id-blank": ({"id": " \t"}, "id", NOT_STRING),
    "procs_per_node-absent": ({"procs_per_node": ...}, "procs_per_node", ABSENT),
    "procs_per_node-string": ({"procs_per_node": "12"}, "procs_per_node", NOT_INT),
    "procs_per_node-bool": ({"procs_per_node": False}, "procs_per_node", NOT_INT),
    "procs_per_node-zero": ({"procs_per_node": 0}, "procs_per_node", "must be at least 1"),
    "gpus_per_node-absent": ({"gpus_per_node": ...}, "gpus_per_node", ABSENT),
    "gpus_per_node-float": ({"gpus_per_node": 2.0}, "gpus_per_node", NOT_INT),
    "gpus_per_node-bool": ({"gpus_per_node": True}, "gpus_per_node", NOT_INT),
    "gpus_per_node-negative": ({"gpus_per_node": -1}, "gpus_per_node", "must be at least 0"),
    "input_dir-absent": ({"input_dir": ...}, "input_dir", ABSENT),
    "input_dir-list": ({"input_dir": ["a"]}, "input_dir", NOT_STRING),
    "input_dir-empty": ({"input_dir": ""}, "input_dir", NOT_STRING),
    "output_dir-absent": ({"output_dir": ...}, "output_dir", ABSENT),
    "output_dir-null": ({"output_dir": None}, "output_dir", NOT_STRING),
    "output_dir-blank": ({"output_dir": "  "}, "output_dir", NOT_STRING),
    # several bad values: the first in workload, instances, id, procs_per_node,
    # gpus_per_node, input_dir, output_dir order is the one reported
    "order-workload-first": ({"workload": "nosuch:1", "instances": 0, "id": ""}, "workload",
                             "unknown workload reference 'nosuch:1'"),
    "order-instances-before-id": ({"instances": ..., "id": ""}, "instances", ABSENT),
    "order-id-before-procs": ({"id": 1, "procs_per_node": ...}, "id", NOT_STRING),
    "order-procs-before-gpus": ({"procs_per_node": "x", "gpus_per_node": "y"},
                                "procs_per_node", NOT_INT),
    "order-gpus-before-dirs": ({"gpus_per_node": ..., "input_dir": ""}, "gpus_per_node",
                               ABSENT),
    "order-input-before-output": ({"input_dir": ..., "output_dir": ...}, "input_dir", ABSENT),
}


@pytest.mark.parametrize("changes, key, message", list(JOBS_DIAGNOSTICS.values()),
                         ids=list(JOBS_DIAGNOSTICS))
def test_jobs_yaml_task_diagnostics(tmp_path, changes, key, message):
    _write_example(tmp_path, _task_entry(**changes))
    with pytest.raises(ValidationError) as err:
        parse_config_dir(tmp_path, CATALOG)
    path = str(tmp_path / "jobs.yaml")
    assert str(err.value) == f"{path}: key 'job.tasks[0].{key}': {message}"


def test_jobs_yaml_task_values_are_stripped(tmp_path):
    _write_example(tmp_path, _task_entry(id=" task0 ", workload=" fixed:60 ",
                                         input_dir=" fileshare/in ", output_dir="out\n"))
    task = parse_config_dir(tmp_path, CATALOG).jobs.tasks[0]
    assert (task.task_id, task.workload, task.input_dir, task.output_dir) == (
        "task0", FixedDuration(60.0), "fileshare/in", "out")
