"""The write-ahead log: one contract, two storage backends.

Append is cheap and lazy: records go to a volatile tail ("this record
is logged as late as possible").  A *force* makes everything up to a
target LSN durable and is the expensive primitive (15 ms) that the
paper's protocol analysis counts.

:class:`LogTail` is that contract, and the only implementation of it.
It is synchronous and knows nothing of kernels, event loops or files.
It owns dense LSN assignment, the volatile tail, the durable prefix and
durability watches; ``force(lsn)`` hands the prefix to its store's
``append_many`` and returns the watches the force satisfied, for the
caller to fire when its substrate says the force completed.

It fails closed by construction: ``durable_lsn`` moves, the batch
leaves the tail and watches are released only after ``append_many``
returns.  A store error poisons the log: that force and every later one
re-raise it, because a retry cannot know what the failed write left on
the device (PostgreSQL's rule after an fsync failure).

Two stores sit under it, both with ``last_lsn()``, ``records()`` and
``append_many(batch)``:

- :class:`~repro.log.storage.StableStore` — the simulator's stable
  storage, which also carries checkpoint truncation;
- :class:`~repro.live.walfile.FileStore` — a crc-framed, fsynced file.

:class:`WriteAheadLog` is the simulator's log: a :class:`LogTail` plus
simulated disk time.  Its force semantics under concurrency:

- If the target LSN is already durable, force returns immediately — a
  transaction whose records were swept out by someone else's force pays
  nothing.
- Without group commit, each force writes exactly the buffered records
  up to its target, serialising on the disk: N concurrent committers
  pay N disk writes.
- With group commit (see :mod:`repro.log.batcher`), concurrent forces
  are folded into one batched write.

Crash model: the tail is volatile.  Only records that completed a
store write are what recovery later reads.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, List, Optional, \
    Protocol, Tuple

from repro.config import CostModel
from repro.log.disk import DiskModel
from repro.log.records import LogRecord
from repro.log.storage import StableStore
from repro.sim.kernel import Kernel
from repro.sim.resources import SimLock
from repro.sim.tracing import Tracer


class LogStore(Protocol):
    """Where a :class:`LogTail`'s durable prefix lives."""

    def last_lsn(self) -> int: ...

    def records(self) -> Iterable[LogRecord]: ...

    def append_many(self, records: List[LogRecord]) -> None: ...


class LogTail:
    """One site's log: dense LSNs, volatile tail, durable prefix, watches."""

    def __init__(self, store: LogStore):
        self.store = store
        self.durable_lsn = self.last_lsn = store.last_lsn()
        self._tail: List[LogRecord] = []
        # (lsn, callback) pairs released once durable_lsn reaches lsn —
        # how delayed commit-acks learn their lazy record became durable.
        self._watches: List[Tuple[int, Callable[[], None]]] = []
        self._failure: Optional[BaseException] = None

    def append(self, record: LogRecord) -> LogRecord:
        """Assign the next LSN and buffer the record (volatile)."""
        self.last_lsn += 1
        record.lsn = self.last_lsn
        self._tail.append(record)
        return record

    def is_durable(self, lsn: int) -> bool:
        return lsn <= self.durable_lsn

    def buffered_records(self) -> List[LogRecord]:
        """Volatile tail (testing/diagnostics)."""
        return list(self._tail)

    def force(self, lsn: Optional[int] = None) -> List[Callable[[], None]]:
        """Make the prefix up to ``lsn`` (default: the whole tail)
        durable; return the watches it satisfied, unfired."""
        if self._failure is not None:
            raise self._failure
        target = self.last_lsn if lsn is None else min(lsn, self.last_lsn)
        if target <= self.durable_lsn:
            return []
        count = target - self.durable_lsn
        try:
            self.store.append_many(self._tail[:count])
        except BaseException as exc:
            self._failure = exc
            raise
        del self._tail[:count]
        self.durable_lsn = target
        ready = [fn for at, fn in self._watches if at <= target]
        if ready:
            self._watches = [(at, fn) for at, fn in self._watches
                             if at > target]
        return ready

    def watch_durable(self, lsn: int, fn: Callable[[], None]) -> None:
        """Call ``fn()`` now if ``lsn`` is durable; otherwise the force
        that makes it durable returns ``fn`` among its ready watches."""
        if lsn <= self.durable_lsn:
            fn()
        else:
            self._watches.append((lsn, fn))


class WriteAheadLog(LogTail):
    """The simulator's log: :class:`LogTail` plus simulated disk time."""

    def __init__(self, kernel: Kernel, cost: CostModel, disk: DiskModel,
                 store: StableStore, site: str, tracer: Tracer):
        super().__init__(store)
        self.kernel = kernel
        self.disk = disk
        self.site = site
        self.tracer = tracer
        self._flush_lock = SimLock(kernel, name=f"{site}.wal.flush")
        self.appends = 0
        self.forces = 0
        self.last_append_at = 0.0

    def append(self, record: LogRecord) -> LogRecord:
        super().append(record)
        self.appends += 1
        self.last_append_at = self.kernel.now
        self.tracer.record(self.kernel.now, "log.append", site=self.site,
                           kind_of=record.kind.value, tid=record.tid)
        return record

    def force(self, lsn: Optional[int] = None  # type: ignore[override]
              ) -> Generator[Any, Any, None]:
        """Make records up to ``lsn`` (default: the whole tail) durable,
        after one disk write under the flush lock.

        This is the *unbatched* force path; the disk manager routes
        through the batcher instead when group commit is on.
        """
        target = self.last_lsn if lsn is None else min(lsn, self.last_lsn)
        if target <= self.durable_lsn:
            return
        self.forces += 1
        self.tracer.record(self.kernel.now, "log.force", site=self.site,
                           lsn=target)
        yield from self._flush_lock.acquire()
        try:
            if target > self.durable_lsn:
                batch = self._tail[:target - self.durable_lsn]
                yield from self.disk.write(sum(r.size_bytes for r in batch))
                for fn in super().force(target):
                    fn()
        finally:
            self._flush_lock.release()
