"""Fileshare abstraction with transfer metering.

Shares track entry sizes, not payloads; the simulator bills and verifies
transfers, it does not host data. Small contents (task artifacts, benchmark
tables) are kept so downloads materialize real files; size-only manifest
entries download as sparse zero-filled files. An entry's digest is derived
from its content or size only where a state document records it.
"""

from __future__ import annotations

import functools
import hashlib
import posixpath
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from .errors import ValidationError

GIB = 2**30


@dataclass(slots=True)
class ShareEntry:
    path: str
    size_bytes: int
    content: Optional[bytes] = None

    @property
    def digest(self) -> str:
        """sha256 of the content, or of `size-only:<N>` for a size-only entry."""
        data = self.content
        return hashlib.sha256(f"size-only:{self.size_bytes}".encode() if data is None
                              else data).hexdigest()


@functools.lru_cache(maxsize=4096)  # outputs reuse a few paths
def _normalize(path: str) -> str:
    norm = posixpath.normpath(path.strip("/"))
    if norm in (".", "") or norm.startswith(".."):
        raise ValidationError(f"invalid share path: {path!r}")
    return norm


def is_share_name(name) -> bool:
    """Whether `name` may name a share: one path component, as a download joins it."""
    return type(name) is str and name not in ("", ".", "..") and "/" not in name


@dataclass
class FileShare:
    name: str
    quota_gib: int
    entries: dict[str, ShareEntry] = field(default_factory=dict)
    used_bytes: int = field(default=0, init=False)

    def put(self, entry: ShareEntry):
        """Add or replace the entry at its path, keeping `used_bytes` current."""
        old = self.entries.get(entry.path)
        self.used_bytes += entry.size_bytes - (old.size_bytes if old else 0)
        self.entries[entry.path] = entry

    @property
    def quota_bytes(self) -> int:
        return self.quota_gib * GIB


class StorageAccount:
    """Named shares; ingress and download return the bytes they meter."""

    def __init__(self):
        self.shares: dict[str, FileShare] = {}

    def _share(self, name: str) -> FileShare:
        try:
            return self.shares[name]
        except KeyError:
            raise ValidationError(f"no such share: {name!r}") from None

    def share_create(self, name: str, quota_gib: int) -> FileShare:
        if not is_share_name(name):
            raise ValidationError(f"invalid share name: {name!r}")
        if name in self.shares:
            raise ValidationError(f"share already exists: {name!r}")
        share = FileShare(name=name, quota_gib=quota_gib)
        self.shares[name] = share
        return share

    def ingress(self, share: str, directory: str, manifest: Iterable[tuple[str, int]]) -> int:
        """Add size-only entries under `directory`; returns the metered bytes.

        The whole manifest is admitted or rejected atomically: against the
        share quota, and against a path that leaves `directory`. An
        empty manifest is a no-op and meters nothing.
        """
        sh = self._share(share)
        directory = _normalize(directory)
        items = []
        for p, size in manifest:
            path = _normalize(posixpath.join(directory, p))
            if not path.startswith(directory + "/"):
                raise ValidationError(f"manifest path leaves {share}/{directory}: {p!r}")
            items.append((path, int(size)))
        total = sum(size for _, size in items)
        # replaced entries free their bytes; a path listed twice counts once
        growth = sum(size - (sh.entries[p].size_bytes if p in sh.entries else 0)
                     for p, size in dict(items).items())
        if sh.used_bytes + growth > sh.quota_bytes:
            raise ValidationError(
                f"{share}: manifest of {total} bytes exceeds quota "
                f"({sh.used_bytes} of {sh.quota_bytes} used)"
            )
        for path, size in items:
            sh.put(ShareEntry(path, size))
        return total

    def write_entry(self, share: str, path: str, content: bytes):
        """Store an artifact produced inside the service (not metered as ingress)."""
        sh = self.shares.get(share) or self._share(share)  # _share raises for a missing one
        path, size = _normalize(path), len(content)
        old = sh.entries.get(path)
        used = sh.used_bytes + size - (old.size_bytes if old else 0)
        if used > sh.quota_gib * GIB:
            raise ValidationError(f"{share}: artifact {path!r} exceeds quota")
        sh.used_bytes = used
        sh.entries[path] = ShareEntry(path, size, content)

    def entries_under(self, share: str, directory: str) -> list[ShareEntry]:
        """The entries below `directory` in path order; a ValidationError if none lies there."""
        sh = self._share(share)
        directory = _normalize(directory)
        prefix = directory + "/"
        entries = [e for p, e in sorted(sh.entries.items()) if p.startswith(prefix)]
        if not entries:
            raise ValidationError(f"no such directory: {share}/{directory}")
        return entries

    def download_batch(self, share: str, directory: str, destination: Path) -> int:
        """Copy every entry under `directory` to `destination`; returns the metered bytes.

        The local layout mirrors <share>/<dir>/<file>. Size-only entries are
        written as sparse zero files of the recorded size.
        """
        entries = self.entries_under(share, directory)
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
        return total
