"""One record spool: JSON records shared by uncoordinated processes.

The trace, session and job spools and the worker stats board all need
the same thing: one JSON file per record in a directory that every
process of a fleet can read, published write-then-rename
(:func:`~repro.util.fsio.atomic_write`) so a reader never sees a torn
file. Files are named by a hash of the record's key — keys echo
client-supplied ids (trace and session ids), which must not become
path components — and only names of that shape count as records, so
an in-flight ``.tmp-*`` publication is never listed, pruned or
counted.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
import threading
from pathlib import Path
from typing import Any, Mapping

from .fsio import TMP_PREFIX, atomic_write, reap_temp_debris

__all__ = ["Spool", "pid_alive"]

#: Record file names: the first 32 hex digits of the key's SHA-256.
_RECORD_GLOB = "[0-9a-f]" * 32 + ".json"


def pid_alive(pid: int) -> bool:
    """Does a process with ``pid`` exist (ours or another user's)?"""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True                           # exists but not ours
    return True


class Spool:
    """A directory of JSON records, one file per string key.

    ``max_files`` bounds the directory: every :attr:`_PRUNE_EVERY`
    writes, the records beyond the newest ``max_files`` (by mtime) are
    unlinked. ``None`` never prunes (the worker board, whose size is
    the fleet's). Construction reaps only temp files old enough to be
    crash debris, so a peer's in-flight publication survives.
    """

    MAX_FILES = 256
    _PRUNE_EVERY = 32

    def __init__(self, root: str | Path,
                 max_files: int | None = MAX_FILES) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_files = max_files
        self._lock = threading.Lock()
        self._writes = 0
        reap_temp_debris(self.root)

    def path_for(self, key: str) -> Path:
        digest = hashlib.sha256(key.encode()).hexdigest()[:32]
        return self.root / f"{digest}.json"

    def create(self, key: str, record: Mapping[str, Any]) -> bool:
        """Publish ``record`` only if no record exists for ``key``.

        ``os.link`` of a fully written temp file is atomic and fails
        when another process linked first, so two processes creating
        the same key agree on one winner. ``False`` also where the
        filesystem refuses the link; the caller then reads the key and
        falls back to :meth:`write`.
        """
        descriptor, temp_name = tempfile.mkstemp(
            dir=self.root, prefix=TMP_PREFIX, suffix=".json")
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(json.dumps(record).encode())
            os.link(temp_name, self.path_for(key))
        except OSError:
            return False
        finally:
            with contextlib.suppress(OSError):
                os.unlink(temp_name)
        self._count_write()
        return True

    def write(self, key: str, record: Mapping[str, Any]) -> bool:
        """Atomically replace ``key``'s record; ``False`` if the OS
        refused the write."""
        written = atomic_write(self.path_for(key),
                               json.dumps(record).encode(),
                               tmp_dir=self.root)
        self._count_write()
        return written

    def read(self, key: str) -> dict | None:
        try:
            return json.loads(self.path_for(key).read_text())
        except (OSError, json.JSONDecodeError):
            return None                       # absent, mid-replace, torn

    def read_all(self, limit: int | None = None) -> list[dict]:
        """Records newest first (by file mtime), at most ``limit``."""
        paths = self._newest_first()
        if limit is not None:
            paths = paths[:max(0, limit)]
        records = []
        for path in paths:
            try:
                records.append(json.loads(path.read_text()))
            except (OSError, json.JSONDecodeError):
                continue                      # deleted or mid-replace
        return records

    def delete(self, key: str) -> bool:
        try:
            self.path_for(key).unlink()
            return True
        except OSError:
            return False

    def prune(self, keep: int) -> None:
        """Unlink every record but the newest ``keep``."""
        for path in self._newest_first()[keep:]:
            with contextlib.suppress(OSError):
                path.unlink()

    def _newest_first(self) -> list[Path]:
        entries = []
        for path in self.root.glob(_RECORD_GLOB):
            try:
                entries.append((path.stat().st_mtime, path))
            except OSError:
                continue
        entries.sort(reverse=True)
        return [path for _, path in entries]

    def _count_write(self) -> None:
        if self.max_files is None:
            return
        with self._lock:
            self._writes += 1
            prune = self._writes % self._PRUNE_EVERY == 0
        if prune:
            self.prune(self.max_files)
