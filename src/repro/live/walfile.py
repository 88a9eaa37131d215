"""The on-disk write-ahead log: :class:`~repro.log.wal.LogTail` over a file.

:class:`FileStore` is the file backend of the one WAL contract.  It
owns what only a real file has: the crc framing, the torn-tail scan at
open and ``os.fsync``.  :class:`FileWal` is ``LogTail(FileStore(path))``,
so LSNs, the volatile tail, prefix forces and durability watches are
exactly the simulator's, and durability is a real ``fsync`` that the
:mod:`repro.servers.recovery` discriminators can read back after
``kill -9``.

File layout: a 5-byte header (magic ``RWAL`` + version) followed by
records, each ``length(4) | crc32(4) | canonical-JSON(LogRecord.to_dict)``.
Records carry LSNs 1..n in file order.  Opening tolerates a torn tail
— a crash mid-write leaves a partial or CRC-failing final record, which
is exactly the not-yet-durable suffix the simulator's crash model also
discards — and truncates the file back to the valid prefix so new
appends never follow garbage; ``truncated_bytes`` counts what that cut.
Creating the file also fsyncs its directory, so a forced log cannot
vanish with an unsynced directory entry after power loss.

A failed write or fsync cuts the file back to its last durable byte and
raises; the :class:`LogTail` above then refuses every later force, so
nothing is ever built on a record whose force did not return.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import zlib
from typing import List, Tuple

from repro.log.records import LogRecord
from repro.log.wal import LogTail

WAL_MAGIC = b"RWAL"
WAL_VERSION = 1
_HEADER = WAL_MAGIC + bytes([WAL_VERSION])
_REC = struct.Struct(">II")


def _scan(data: bytes) -> Tuple[List[LogRecord], int]:
    """Parse the durable prefix; returns (records, valid byte length)."""
    records: List[LogRecord] = []
    if len(data) < len(_HEADER) or data[:4] != WAL_MAGIC:
        return records, 0
    pos = len(_HEADER)
    while True:
        if pos + _REC.size > len(data):
            break
        length, crc = _REC.unpack_from(data, pos)
        end = pos + _REC.size + length
        if end > len(data):
            break  # torn tail: record cut short by the crash
        body = data[pos + _REC.size:end]
        if zlib.crc32(body) != crc:
            break  # torn tail: partially written payload
        try:
            records.append(LogRecord.from_dict(json.loads(body)))
        except (ValueError, KeyError):
            break
        pos = end
    return records, pos


def read_records(path: str) -> List[LogRecord]:
    """Durable records at ``path`` (recovery's view after a crash)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return []
    records, _ = _scan(data)
    return records


def _frame(record: LogRecord) -> bytes:
    body = json.dumps(record.to_dict(), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return _REC.pack(len(body), zlib.crc32(body)) + body


def _fsync_directory(path: str) -> None:
    fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class FileStore:
    """The WAL file: a :class:`~repro.log.wal.LogStore` that fsyncs.

    All methods are synchronous; the live substrate calls them from the
    event loop (record payloads are tiny, and force latency *is* the
    durability cost the paper measures).
    """

    def __init__(self, path: str):
        self.path = path
        try:
            with open(path, "rb") as fh:
                existing = fh.read()
            created = False
        except FileNotFoundError:
            existing, created = b"", True
        records, valid = _scan(existing)
        self._count = len(records)
        self.truncated_bytes = len(existing) - valid
        # Unbuffered: a failed write leaves nothing queued to land later.
        self._file = open(path, "w+b" if created else "r+b", buffering=0)
        if valid < len(_HEADER):
            # Fresh file, or a header so mangled nothing was readable:
            # start over with a clean header.
            self._file.truncate(0)
            self._write(_HEADER)
            valid = len(_HEADER)
        self._file.truncate(valid)
        self._file.seek(valid)
        if created:
            _fsync_directory(path)

    def last_lsn(self) -> int:
        return self._count

    def records(self) -> List[LogRecord]:
        """The durable records, read back from the file."""
        return read_records(self.path)

    def append_many(self, records: List[LogRecord]) -> None:
        """Write ``records`` and fsync them; on any error cut the file
        back to where it was and re-raise."""
        end = self._file.tell()
        try:
            self._write(b"".join(_frame(record) for record in records))
            os.fsync(self._file.fileno())
        except BaseException:
            with contextlib.suppress(OSError, ValueError):
                self._file.truncate(end)
                self._file.seek(end)
            raise
        self._count += len(records)

    def _write(self, data: bytes) -> None:
        view = memoryview(data)
        while view:
            view = view[self._file.write(view):]

    def close(self) -> None:
        self._file.close()


class FileWal(LogTail):
    """One site's on-disk WAL: a :class:`LogTail` over a :class:`FileStore`."""

    store: FileStore

    def __init__(self, path: str):
        super().__init__(FileStore(path))
        self.path = path

    def close(self) -> None:
        self.store.close()
