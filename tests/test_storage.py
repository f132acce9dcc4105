import hashlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from batchsim import state
from batchsim.errors import ValidationError
from batchsim.storage import GIB, StorageAccount

from randomized import run_random_schedule


@pytest.fixture
def account():
    acc = StorageAccount()
    acc.share_create("fileshare", 100)
    return acc


def test_share_create(account):
    share = account.shares["fileshare"]
    assert share.quota_gib == 100
    assert share.used_bytes == 0


def test_duplicate_share(account):
    with pytest.raises(ValidationError, match="^share already exists: 'fileshare'$"):
        account.share_create("fileshare", 100)


def test_zero_quota_share_rejects_writes():
    acc = StorageAccount()
    acc.share_create("s", 0)
    with pytest.raises(ValidationError,
                       match=r"^s: manifest of 1 bytes exceeds quota \(0 of 0 used\)$"):
        acc.ingress("s", "d", [("f", 1)])
    with pytest.raises(ValidationError, match="^s: artifact 'f' exceeds quota$"):
        acc.write_entry("s", "f", b"x")


def test_ingress_one_gib(account):
    assert account.ingress("fileshare", "run", [("data.bin", GIB)]) == GIB
    assert account.shares["fileshare"].used_bytes == GIB


def test_reingress_replaces_entries_within_quota():
    acc = StorageAccount()
    acc.share_create("s", 1)
    size = 6 * GIB // 10
    acc.ingress("s", "run", [("data.bin", size)])
    nbytes = acc.ingress("s", "run", [("data.bin", size)])  # replaces, does not add
    assert nbytes == size  # the transfer is still metered in full
    assert acc.shares["s"].used_bytes == size
    with pytest.raises(ValidationError, match=rf"^s: manifest of {size} bytes exceeds quota "
                                              rf"\({size} of {GIB} used\)$"):
        acc.ingress("s", "run", [("other.bin", size)])
    assert acc.shares["s"].used_bytes == size


def test_ingress_over_quota(account):
    with pytest.raises(ValidationError, match=rf"^fileshare: manifest of {101 * GIB} bytes "
                                              rf"exceeds quota \(0 of {100 * GIB} used\)$"):
        account.ingress("fileshare", "run", [("data.bin", 101 * GIB)])
    # atomic: nothing admitted
    assert account.shares["fileshare"].used_bytes == 0
    assert account.shares["fileshare"].entries == {}


def test_ingress_of_exactly_the_quota_is_admitted_and_one_byte_more_is_not():
    acc = StorageAccount()
    acc.share_create("s", 1)
    with pytest.raises(ValidationError, match=rf"^s: manifest of {GIB + 1} bytes exceeds quota "
                                              rf"\(0 of {GIB} used\)$"):
        acc.ingress("s", "run", [("a.bin", GIB // 2), ("b.bin", GIB // 2 + 1)])
    assert acc.ingress("s", "run", [("a.bin", GIB // 2), ("b.bin", GIB // 2)]) == GIB
    assert acc.shares["s"].used_bytes == GIB
    with pytest.raises(ValidationError, match=rf"^s: manifest of 1 bytes exceeds quota "
                                              rf"\({GIB} of {GIB} used\)$"):
        acc.ingress("s", "run", [("c.bin", 1)])


def test_ingress_empty_manifest(account):
    assert account.ingress("fileshare", "run", []) == 0
    with pytest.raises(ValidationError, match="^no such directory: fileshare/run$"):
        account.entries_under("fileshare", "run")


def test_download_batch(account, tmp_path):
    account.ingress("fileshare", "run", [("a.bin", 10), ("b.bin", 20), ("sub/c.bin", 30)])
    assert account.download_batch("fileshare", "run", tmp_path) == 60
    files = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
                   if p.is_file())
    assert files == ["fileshare/run/a.bin", "fileshare/run/b.bin", "fileshare/run/sub/c.bin"]
    assert (tmp_path / "fileshare/run/a.bin").stat().st_size == 10


def test_download_empty_directory(account, tmp_path):
    assert account.ingress("fileshare", "empty", [("zero.bin", 0)]) == 0
    assert account.download_batch("fileshare", "empty", tmp_path) == 0
    assert (tmp_path / "fileshare/empty/zero.bin").stat().st_size == 0


def test_download_missing_directory(account, tmp_path):
    with pytest.raises(ValidationError, match="^no such directory: fileshare/nope$"):
        account.download_batch("fileshare", "nope", tmp_path)


def test_write_entry_content_round_trips(account, tmp_path):
    payload = b"latency table\n0\t1.95e-06\n"
    account.write_entry("fileshare", "run/latency.tsv", payload)
    entry = account.shares["fileshare"].entries["run/latency.tsv"]
    assert entry.digest == hashlib.sha256(payload).hexdigest()
    account.download_batch("fileshare", "run", tmp_path)
    assert (tmp_path / "fileshare/run/latency.tsv").read_bytes() == payload


def test_write_entry_overwrite_same_path(account):
    account.write_entry("fileshare", "run/log", b"a" * 10)
    account.write_entry("fileshare", "run/log", b"b" * 4)
    assert account.shares["fileshare"].used_bytes == 4


@pytest.fixture
def full_share():
    """A 1 GiB share filled to its quota, the last 10 bytes by the artifact out/f."""
    acc = StorageAccount()
    acc.share_create("s", 1)
    acc.ingress("s", "in", [("big.bin", GIB - 10)])
    acc.write_entry("s", "out/f", b"x" * 10)
    assert acc.shares["s"].used_bytes == acc.shares["s"].quota_bytes
    return acc


def test_overwrite_at_full_quota_is_admitted_up_to_the_old_size(full_share):
    share = full_share.shares["s"]
    full_share.write_entry("s", "out/f", b"y" * 10)
    assert share.used_bytes == GIB
    full_share.write_entry("s", "out/f", b"z" * 4)
    assert share.used_bytes == GIB - 6
    assert share.entries["out/f"].content == b"z" * 4


def test_larger_overwrite_at_full_quota_is_rejected_and_changes_nothing(full_share):
    share = full_share.shares["s"]
    with pytest.raises(ValidationError, match="^s: artifact 'out/f' exceeds quota$"):
        full_share.write_entry("s", "out/f", b"y" * 11)
    assert share.used_bytes == GIB
    assert share.entries["out/f"].content == b"x" * 10
    assert [e.path for e in full_share.entries_under("s", "out")] == ["out/f"]


def test_ingress_registers_the_directories_of_nested_paths(account, tmp_path):
    account.ingress("fileshare", "run", [("a.bin", 1), ("sub/deep/c.bin", 3)])
    assert [e.path for e in account.entries_under("fileshare", "run")] == [
        "run/a.bin", "run/sub/deep/c.bin"]
    for directory in ("run/sub", "run/sub/deep"):
        assert [e.path for e in account.entries_under("fileshare", directory)] == [
            "run/sub/deep/c.bin"]
    assert account.download_batch("fileshare", "run/sub", tmp_path) == 3


def test_path_normalization(account):
    account.ingress("fileshare", "run", [("./x//y.bin", 5)])
    share = account.shares["fileshare"]
    assert "run/x/y.bin" in share.entries
    with pytest.raises(ValidationError, match="^invalid share path: '../escape'$"):
        account.ingress("fileshare", "../escape", [("x.bin", 1)])
    before = (dict(share.entries), share.used_bytes)
    for path in ("../other/x.bin", "/other/x.bin", ".", "sub/../../x.bin"):
        with pytest.raises(ValidationError,
                           match=f"^manifest path leaves fileshare/run: {path!r}$"):
            account.ingress("fileshare", "run", [("ok.bin", 1), (path, 5)])
    assert (share.entries, share.used_bytes) == before
    with pytest.raises(ValidationError, match="^no such share: 'nope'$"):
        account.ingress("nope", "d", [("x.bin", 1)])


def test_directory_index_survives_a_state_round_trip():
    options = state.ServiceOptions()
    svc = state.build_service(options)
    svc.storage.share_create("fileshare", 1)
    for path in ("a/b/c/x", "a/b/d/y", "a/e"):
        svc.storage.write_entry("fileshare", path, path.encode())
    under_b = ["a/b/c/x", "a/b/d/y"]
    assert [e.path for e in svc.storage.entries_under("fileshare", "a/b")] == under_b
    back = state.service_from_doc(state.service_to_doc(svc), options).storage
    assert [e.path for e in back.entries_under("fileshare", "a/b")] == under_b
    back.write_entry("fileshare", "a/f/g/z", b"z")
    assert [e.path for e in back.entries_under("fileshare", "a/f")] == ["a/f/g/z"]


PATHS = st.lists(st.sampled_from(["a", "b", "ab"]), min_size=1, max_size=4).map("/".join)


def check_entries_under(account, probes):
    """`entries_under("s", d)` lists the entries whose path is below `d`, in path order, and
    raises for a `d` that is a parent of none, for each probe and each parent of an entry."""
    paths = sorted(account.shares["s"].entries)
    parents = {p[:i] for p in paths for i, c in enumerate(p) if c == "/"}
    for d in parents | set(probes):
        under = [p for p in paths if p.startswith(d + "/")]
        if under:
            assert [e.path for e in account.entries_under("s", d)] == under
        else:
            with pytest.raises(ValidationError, match=f"^no such directory: s/{d}$"):
                account.entries_under("s", d)


@given(writes=st.lists(st.tuples(st.booleans(), PATHS, PATHS), max_size=8),
       probes=st.lists(PATHS, max_size=4))
def test_entries_under_lists_exactly_the_entries_below_a_parent_of_one(writes, probes):
    """Artifacts written at `name`, top-level paths included, and size-only entries
    ingressed as `name` into `directory`; checked in process and after a state round trip."""
    options = state.ServiceOptions()
    svc = state.build_service(options)
    svc.storage.share_create("s", 1)
    for artifact, directory, name in writes:
        if artifact:
            svc.storage.write_entry("s", name, directory.encode())
        else:
            svc.storage.ingress("s", directory, [(name, len(name))])
    check_entries_under(svc.storage, probes)
    back = state.service_from_doc(state.service_to_doc(svc), options).storage
    check_entries_under(back, probes)


names = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=8), min_size=1, max_size=8,
    unique=True,
)


@given(names=names, data=st.data())
def test_ingress_download_round_trips_sizes(names, data, tmp_path_factory):
    sizes = [data.draw(st.integers(min_value=0, max_value=10_000)) for _ in names]
    acc = StorageAccount()
    acc.share_create("s", 1)
    manifest = list(zip(names, sizes))
    total = sum(sizes)
    assert acc.ingress("s", "d", manifest) == total
    dest = tmp_path_factory.mktemp("dl")
    assert acc.download_batch("s", "d", dest) == total
    got = {p.name: p.stat().st_size for p in dest.rglob("*") if p.is_file()}
    assert got == {n: s for n, s in manifest}


def _expected_digest(content, size) -> str:
    return hashlib.sha256(f"size-only:{size}".encode() if content is None
                          else content).hexdigest()


def check_share_bookkeeping(svc):
    """Each share's used bytes and entry digests agree with its entries, in the service and
    in the state document written from it."""
    for share in svc.storage.shares.values():
        assert share.used_bytes == sum(e.size_bytes for e in share.entries.values())
        for path, entry in share.entries.items():
            assert entry.path == path
            assert entry.digest == _expected_digest(entry.content, entry.size_bytes)
    for sdoc in state.service_to_doc(svc)["shares"]:
        for e in sdoc["entries"]:
            content = bytes.fromhex(e["content_hex"]) if e["content_hex"] is not None else None
            assert e["digest"] == _expected_digest(content, e["size"])


@pytest.mark.parametrize("seed", range(24))
def test_share_bookkeeping_holds_after_random_schedules_and_a_round_trip(seed):
    """Task outputs, then overwrites that switch paths between artifacts and size-only
    entries, at nested paths."""
    svc, _ = run_random_schedule(seed, share=True)
    completed = any(t.state.value == "Completed" for t in svc.all_tasks())
    assert ("out/run.log" in svc.storage.shares["fileshare"].entries) is completed
    rng = random.Random(seed)
    for _ in range(8):
        name = rng.choice(["run.log", "a/x.bin", "a/b/y.bin", "c/z.bin"])
        if rng.random() < 0.5:
            svc.storage.ingress("fileshare", "out", [(name, rng.randint(0, 4096))])
        else:
            svc.storage.write_entry("fileshare", f"out/{name}", rng.randbytes(rng.randint(0, 64)))
    check_share_bookkeeping(svc)
    doc = state.service_to_doc(svc)
    back = state.service_from_doc(doc, state.ServiceOptions(seed=seed))
    check_share_bookkeeping(back)
    assert state.service_to_doc(back) == doc
