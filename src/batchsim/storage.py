"""Fileshare abstraction with transfer metering.

Shares track entry sizes and content digests, not payloads; the simulator
bills and verifies transfers, it does not host data. Small contents (task
artifacts, benchmark tables) are kept so downloads materialize real files;
size-only manifest entries download as sparse zero-filled files.
"""

from __future__ import annotations

import enum
import hashlib
import posixpath
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from .errors import DuplicateShare, QuotaExceededOnShare, UnknownPath, UnknownShare

GIB = 2**30


class Direction(enum.Enum):
    INGRESS = "Ingress"
    EGRESS = "Egress"


@dataclass(frozen=True)
class TransferRecord:
    direction: Direction
    bytes: int
    timestamp: float

    def __post_init__(self):
        if self.bytes <= 0:
            raise ValueError("transfer records require positive byte counts")


@dataclass
class ShareEntry:
    path: str
    size_bytes: int
    digest: str
    content: Optional[bytes] = None


def _digest(content: bytes) -> str:
    return hashlib.sha256(content).hexdigest()


def _size_only_digest(size: int) -> str:
    return hashlib.sha256(f"size-only:{size}".encode()).hexdigest()


def _normalize(path: str) -> str:
    norm = posixpath.normpath(path.strip("/"))
    if norm in (".", "") or norm.startswith(".."):
        raise UnknownPath(f"invalid share path: {path!r}")
    return norm


def _register_dirs(share: "FileShare", directory: str):
    while directory:
        share.directories.add(directory)
        directory = posixpath.dirname(directory)


@dataclass
class FileShare:
    name: str
    quota_gib: int
    entries: dict[str, ShareEntry] = field(default_factory=dict)
    directories: set[str] = field(default_factory=set)
    used_bytes: int = field(default=0, init=False)

    def put(self, entry: ShareEntry):
        """Add or replace the entry at its path, keeping `used_bytes` current."""
        self.used_bytes += entry.size_bytes - _entry_size(self, entry.path)
        self.entries[entry.path] = entry

    @property
    def quota_bytes(self) -> int:
        return self.quota_gib * GIB


class StorageAccount:
    """Named shares plus the ingress/egress accounting trail."""

    def __init__(self, name: str = "storage"):
        self.name = name
        self.shares: dict[str, FileShare] = {}
        self.transfers: list[TransferRecord] = []

    def _share(self, name: str) -> FileShare:
        try:
            return self.shares[name]
        except KeyError:
            raise UnknownShare(f"no such share: {name!r}") from None

    def share_create(self, name: str, quota_gib: int) -> FileShare:
        if name in self.shares:
            raise DuplicateShare(f"share already exists: {name!r}")
        if quota_gib < 0:
            raise ValueError("quota must be non-negative")
        share = FileShare(name=name, quota_gib=quota_gib)
        self.shares[name] = share
        return share

    def ingress(self, share: str, directory: str, manifest: Iterable[tuple[str, int]],
                timestamp: float = 0.0) -> Optional[TransferRecord]:
        """Add size-only entries under `directory`; returns the metered record.

        The whole manifest is admitted or rejected atomically against the
        share quota. An empty manifest is a no-op and meters nothing.
        """
        sh = self._share(share)
        directory = _normalize(directory)
        items = [( _normalize(posixpath.join(directory, p)), int(size)) for p, size in manifest]
        if not items:
            return None
        total = sum(size for _, size in items)
        # replaced entries free their bytes; a path listed twice counts once
        growth = sum(size - _entry_size(sh, path) for path, size in dict(items).items())
        if sh.used_bytes + growth > sh.quota_bytes:
            raise QuotaExceededOnShare(
                f"{share}: manifest of {total} bytes exceeds quota "
                f"({sh.used_bytes} of {sh.quota_bytes} used)"
            )
        _register_dirs(sh, directory)
        for path, size in items:
            sh.put(ShareEntry(path, size, _size_only_digest(size)))
        if total == 0:
            return None
        record = TransferRecord(Direction.INGRESS, total, timestamp)
        self.transfers.append(record)
        return record

    def write_entry(self, share: str, path: str, content: bytes, timestamp: float = 0.0):
        """Store an artifact produced inside the service (not metered as ingress)."""
        sh = self._share(share)
        path = _normalize(path)
        if sh.used_bytes - _entry_size(sh, path) + len(content) > sh.quota_bytes:
            raise QuotaExceededOnShare(f"{share}: artifact {path!r} exceeds quota")
        _register_dirs(sh, posixpath.dirname(path))
        sh.put(ShareEntry(path, len(content), _digest(content), content))

    def entries_under(self, share: str, directory: str) -> list[ShareEntry]:
        sh = self._share(share)
        directory = _normalize(directory)
        if directory not in sh.directories:
            raise UnknownPath(f"no such directory: {share}/{directory}")
        prefix = directory + "/"
        return [e for p, e in sorted(sh.entries.items()) if p.startswith(prefix)]

    def download_batch(self, share: str, directory: str, destination: Path,
                       timestamp: float = 0.0) -> Optional[TransferRecord]:
        """Copy every entry under `directory` to `destination`, metering egress.

        The local layout mirrors <share>/<dir>/<file>. Size-only entries are
        written as sparse zero files of the recorded size.
        """
        entries = self.entries_under(share, directory)
        if not entries:
            return None
        destination = Path(destination)
        total = 0
        for entry in entries:
            target = destination / share / entry.path
            target.parent.mkdir(parents=True, exist_ok=True)
            if entry.content is not None:
                target.write_bytes(entry.content)
            else:
                with open(target, "wb") as fh:
                    fh.truncate(entry.size_bytes)
            total += entry.size_bytes
        if total == 0:
            return None
        record = TransferRecord(Direction.EGRESS, total, timestamp)
        self.transfers.append(record)
        return record


def _entry_size(share: FileShare, path: str) -> int:
    entry = share.entries.get(path)
    return entry.size_bytes if entry else 0
