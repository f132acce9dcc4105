import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from batchsim.errors import DuplicateShare, QuotaExceededOnShare, UnknownPath, UnknownShare
from batchsim.storage import GIB, Direction, StorageAccount


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
    with pytest.raises(DuplicateShare):
        account.share_create("fileshare", 100)


def test_zero_quota_share_rejects_writes():
    acc = StorageAccount()
    acc.share_create("s", 0)
    with pytest.raises(QuotaExceededOnShare):
        acc.ingress("s", "d", [("f", 1)])
    with pytest.raises(QuotaExceededOnShare):
        acc.write_entry("s", "f", b"x")


def test_ingress_one_gib(account):
    record = account.ingress("fileshare", "run", [("data.bin", GIB)])
    assert record.direction is Direction.INGRESS
    assert record.bytes == GIB
    assert account.shares["fileshare"].used_bytes == GIB


def test_reingress_replaces_entries_within_quota():
    acc = StorageAccount()
    acc.share_create("s", 1)
    size = 6 * GIB // 10
    acc.ingress("s", "run", [("data.bin", size)])
    record = acc.ingress("s", "run", [("data.bin", size)])  # replaces, does not add
    assert record.bytes == size  # the transfer is still metered in full
    assert acc.shares["s"].used_bytes == size
    with pytest.raises(QuotaExceededOnShare):
        acc.ingress("s", "run", [("other.bin", size)])
    assert acc.shares["s"].used_bytes == size


def test_ingress_over_quota(account):
    with pytest.raises(QuotaExceededOnShare):
        account.ingress("fileshare", "run", [("data.bin", 101 * GIB)])
    # atomic: nothing admitted
    assert account.shares["fileshare"].used_bytes == 0
    assert account.transfers == []


def test_ingress_empty_manifest(account):
    assert account.ingress("fileshare", "run", []) is None
    assert account.transfers == []


def test_download_batch(account, tmp_path):
    account.ingress("fileshare", "run", [("a.bin", 10), ("b.bin", 20), ("sub/c.bin", 30)])
    record = account.download_batch("fileshare", "run", tmp_path)
    assert record.direction is Direction.EGRESS
    assert record.bytes == 60
    files = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
                   if p.is_file())
    assert files == ["fileshare/run/a.bin", "fileshare/run/b.bin", "fileshare/run/sub/c.bin"]
    assert (tmp_path / "fileshare/run/a.bin").stat().st_size == 10


def test_download_empty_directory(account, tmp_path):
    assert account.ingress("fileshare", "empty", [("zero.bin", 0)]) is None
    assert account.download_batch("fileshare", "empty", tmp_path) is None
    assert account.transfers == []


def test_download_missing_directory(account, tmp_path):
    with pytest.raises(UnknownPath):
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


def test_path_normalization(account):
    account.ingress("fileshare", "run", [("./x//y.bin", 5)])
    assert "run/x/y.bin" in account.shares["fileshare"].entries
    with pytest.raises(UnknownPath):
        account.ingress("fileshare", "../escape", [("x.bin", 1)])
    with pytest.raises(UnknownShare):
        account.ingress("nope", "d", [("x.bin", 1)])


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
    record = acc.ingress("s", "d", manifest)
    total = sum(sizes)
    if total == 0:
        assert record is None
    else:
        assert record.bytes == total
    dest = tmp_path_factory.mktemp("dl")
    egress = acc.download_batch("s", "d", dest)
    if total:
        assert egress.bytes == total
    got = {p.name: p.stat().st_size for p in dest.rglob("*") if p.is_file()}
    assert got == {n: s for n, s in manifest}
