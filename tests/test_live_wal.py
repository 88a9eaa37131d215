"""repro.live.walfile: the on-disk WAL is the simulator's log contract
(:class:`repro.log.wal.LogTail`) over a file store — LSN-ordered
appends, prefix forces, durability watches — while surviving what real
files suffer: torn tails, truncated headers, kill -9 between append and
force, fsync errors.  Recovery reads it with the same
:func:`repro.servers.recovery.analyze` discriminators the simulator
uses, which is the property the live kill-9 demos stand on."""

import asyncio
import errno
import os
import stat

import pytest

from repro.core.outcomes import Outcome
from repro.live import walfile
from repro.live.ports import read_port_file
from repro.live.site import LiveSite
from repro.live.walfile import FileWal, read_records
from repro.log.records import (
    RecordKind,
    commit_record,
    end_record,
    prepare_record,
)
from repro.log.storage import StableStore
from repro.log.wal import LogTail
from repro.servers.recovery import analyze


def _wal(tmp_path, name="site.wal"):
    return FileWal(str(tmp_path / name))


def _eio(fd):
    raise OSError(errno.EIO, "injected fsync failure")


def _reopened(path):
    wal = FileWal(str(path))
    wal.close()
    return wal


class TestAppendForce:
    """The one WAL contract, over the file backend.  The subclass below
    runs the same cases over the simulator's in-memory store."""

    @pytest.fixture
    def wal(self, tmp_path):
        wal = _wal(tmp_path)
        yield wal
        wal.close()

    def test_append_assigns_dense_lsns(self, wal):
        r1 = wal.append(prepare_record("T1@a", "b", coordinator="a"))
        r2 = wal.append(commit_record("T1@a", "a"))
        assert (r1.lsn, r2.lsn) == (1, 2)
        assert (wal.last_lsn, wal.durable_lsn) == (2, 0)

    def test_force_is_prefix_durable(self, wal):
        wal.append(prepare_record("T1@a", "b", coordinator="a"))
        wal.append(commit_record("T1@a", "a"))
        wal.force(1)
        assert wal.durable_lsn == 1
        # The store (recovery's view) holds exactly the durable prefix.
        assert [r.kind for r in wal.store.records()] == [RecordKind.PREPARE]
        assert [r.kind for r in wal.buffered_records()] == [RecordKind.COMMIT]
        wal.force(None)
        assert wal.durable_lsn == 2
        assert len(list(wal.store.records())) == 2
        assert wal.buffered_records() == []

    def test_watch_fires_on_covering_force_only(self, wal):
        wal.append(prepare_record("T1@a", "b", coordinator="a"))
        wal.append(commit_record("T1@a", "a"))
        fired = []
        wal.watch_durable(2, lambda: fired.append("2"))
        ready = wal.force(1)
        assert ready == [] and fired == []
        ready = wal.force(2)
        assert len(ready) == 1
        ready[0]()
        assert fired == ["2"]

    def test_watch_on_already_durable_fires_immediately(self, wal):
        wal.append(commit_record("T1@a", "a"))
        wal.force(None)
        fired = []
        wal.watch_durable(1, lambda: fired.append("now"))
        assert fired == ["now"]


class TestAppendForceOverStableStore(TestAppendForce):
    @pytest.fixture
    def wal(self):
        return LogTail(StableStore("a"))


class TestReopenAndTornTails:
    def test_reopen_renumbers_densely_and_appends_after(self, tmp_path):
        wal = _wal(tmp_path)
        wal.append(prepare_record("T1@a", "b", coordinator="a"))
        wal.append(commit_record("T1@a", "a"))
        wal.force(None)
        wal.close()
        wal2 = _wal(tmp_path)
        assert [r.lsn for r in wal2.store.records()] == [1, 2]
        r3 = wal2.append(end_record("T1@a", "a"))
        assert r3.lsn == 3
        wal2.force(None)
        assert len(read_records(wal2.path)) == 3
        wal2.close()

    def test_unforced_suffix_is_lost_on_crash(self, tmp_path):
        wal = _wal(tmp_path)
        wal.append(prepare_record("T1@a", "b", coordinator="a"))
        wal.force(None)
        wal.append(commit_record("T1@a", "a"))  # never forced
        wal.close()  # "kill -9": volatile tail discarded
        wal2 = _wal(tmp_path)
        assert [r.kind for r in wal2.store.records()] == \
            [RecordKind.PREPARE]
        wal2.close()

    def test_torn_tail_truncated_at_reopen(self, tmp_path):
        wal = _wal(tmp_path)
        wal.append(prepare_record("T1@a", "b", coordinator="a"))
        wal.force(None)
        first_end = os.path.getsize(wal.path)
        wal.append(commit_record("T1@a", "a"))
        wal.force(None)
        wal.close()
        # Crash mid-write of the *last* record: chop bytes off the tail.
        path = tmp_path / "site.wal"
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        wal2 = _wal(tmp_path)
        assert [r.kind for r in wal2.store.records()] == \
            [RecordKind.PREPARE]
        assert wal2.store.truncated_bytes == len(data) - 7 - first_end
        # New appends land cleanly after the valid prefix.
        wal2.append(commit_record("T1@a", "a"))
        wal2.force(None)
        assert [r.kind for r in read_records(str(path))] == \
            [RecordKind.PREPARE, RecordKind.COMMIT]
        wal2.close()

    def test_corrupt_payload_stops_the_scan(self, tmp_path):
        wal = _wal(tmp_path)
        wal.append(prepare_record("T1@a", "b", coordinator="a"))
        wal.append(commit_record("T1@a", "a"))
        wal.force(None)
        wal.close()
        path = tmp_path / "site.wal"
        data = bytearray(path.read_bytes())
        data[-3] ^= 0xFF  # flip a bit inside the last record's payload
        path.write_bytes(bytes(data))
        assert [r.kind for r in read_records(str(path))] == \
            [RecordKind.PREPARE]

    def test_mangled_header_means_empty_wal(self, tmp_path):
        path = str(tmp_path / "site.wal")
        (tmp_path / "site.wal").write_bytes(b"not a wal at all")
        wal = _wal(tmp_path)
        assert wal.store.records() == []
        assert wal.store.truncated_bytes == len(b"not a wal at all")
        wal.append(commit_record("T1@a", "a"))
        wal.force(None)
        assert [r.tid for r in read_records(path)] == ["T1@a"]
        wal.close()

    def test_missing_file_starts_fresh(self, tmp_path):
        wal = _wal(tmp_path, name="new.wal")
        assert wal.store.records() == []
        assert wal.store.truncated_bytes == 0
        assert os.path.getsize(wal.path) > 0  # header written eagerly
        wal.close()

    def test_crash_at_every_byte_leaves_a_growing_prefix(self, tmp_path):
        """Cut the file at every length: reopening yields a prefix of
        what was forced, never shorter for a longer file, and the log
        appends cleanly after it."""
        wal = _wal(tmp_path)
        written = []
        for i in range(3):
            written.append(wal.append(commit_record(f"T{i}@a", "a")))
            wal.force(None)
        wal.close()
        written = [r.to_dict() for r in written]
        data = (tmp_path / "site.wal").read_bytes()
        cut_path = tmp_path / "cut.wal"
        longest = 0
        for length in range(len(data) + 1):
            cut_path.write_bytes(data[:length])
            wal = FileWal(str(cut_path))
            got = [r.to_dict() for r in wal.store.records()]
            assert got == written[:len(got)], length
            assert len(got) >= longest, length
            longest = len(got)
            extra = wal.append(end_record("T9@a", "a")).to_dict()
            wal.force(None)
            wal.close()
            assert [r.to_dict() for r in read_records(str(cut_path))] == \
                got + [extra], length
        assert longest == len(written)

    def test_mid_file_bit_flip_counts_the_discarded_bytes(self, tmp_path):
        wal = _wal(tmp_path)
        ends = []
        for i in range(3):
            wal.append(commit_record(f"T{i}@a", "a"))
            wal.force(None)
            ends.append(os.path.getsize(wal.path))
        wal.close()
        data = bytearray((tmp_path / "site.wal").read_bytes())
        data[ends[1] - 3] ^= 0xFF  # inside the middle record's payload
        (tmp_path / "site.wal").write_bytes(bytes(data))
        # The truncation policy stays: the scan stops at the first bad
        # record, and what it discards is counted, not hidden.
        site = LiveSite("site", str(tmp_path))
        try:
            assert site._status()["wal_truncated_bytes"] == ends[2] - ends[0]
            assert [r.tid for r in site.wal.store.records()] == ["T0@a"]
        finally:
            site.wal.close()


class TestFileStore:
    def test_force_fsyncs_the_file(self, tmp_path, monkeypatch):
        wal = _wal(tmp_path)
        synced = []
        monkeypatch.setattr(walfile.os, "fsync", synced.append)
        wal.append(commit_record("T9@a", "a"))
        wal.force(None)
        assert synced == [wal.store._file.fileno()]
        assert [r.tid for r in read_records(wal.path)] == ["T9@a"]
        wal.close()

    def test_creation_fsyncs_the_directory_once(self, tmp_path,
                                                monkeypatch):
        real_fsync = os.fsync
        synced = []

        def record(fd):
            synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            real_fsync(fd)

        monkeypatch.setattr(walfile.os, "fsync", record)
        _wal(tmp_path).close()
        assert synced == [True]
        del synced[:]
        _wal(tmp_path).close()
        assert synced == []

    def test_failed_fsync_poisons_the_wal(self, tmp_path, monkeypatch):
        wal = _wal(tmp_path)
        wal.append(commit_record("T1@a", "a"))
        fired = []
        wal.watch_durable(1, lambda: fired.append(1))
        monkeypatch.setattr(walfile.os, "fsync", _eio)
        with pytest.raises(OSError):
            wal.force(None)
        assert wal.durable_lsn == 0
        assert [r.tid for r in wal.buffered_records()] == ["T1@a"]
        assert fired == []
        # fsync works again, but a retry cannot know what the failed
        # write left behind: the log stays failed.
        monkeypatch.undo()
        with pytest.raises(OSError):
            wal.force(None)
        assert (wal.durable_lsn, fired) == (0, [])
        wal.close()
        assert read_records(wal.path) == []


class TestLiveSiteFailStop:
    def test_wal_error_stops_the_site(self, tmp_path, monkeypatch):
        """An fsync error stops the site (server closed, port file
        cleared, WAL closed) and serve_until_stopped raises it; the file
        holds only records whose force returned."""

        async def scenario():
            site = LiveSite("alpha", str(tmp_path))
            await site.start()
            committed = asyncio.Event()
            site.host.on_complete = lambda tid, outcome: committed.set()
            site.host.begin_commit("2pc", [])
            await asyncio.wait_for(committed.wait(), 5.0)
            durable = site.wal.durable_lsn
            monkeypatch.setattr(walfile.os, "fsync", _eio)
            failing = site.host.begin_commit("2pc", [])
            with pytest.raises(OSError):
                await asyncio.wait_for(site.serve_until_stopped(), 5.0)
            return site, durable, str(failing)

        site, durable, failing = asyncio.run(scenario())
        monkeypatch.undo()
        assert durable > 0
        assert site.wal.durable_lsn == durable
        assert site._server is None
        assert read_port_file(str(tmp_path), "alpha") is None
        assert site.wal.store._file.closed
        reopened = _reopened(tmp_path / "alpha.wal")
        assert reopened.durable_lsn == durable
        assert failing not in {r.tid for r in reopened.store.records()}

    def test_force_after_a_clean_stop_is_not_a_failure(self, tmp_path):
        """A late protocol timer can force after stop closed the WAL;
        that must not turn a clean shutdown into an error exit."""

        async def scenario():
            site = LiveSite("alpha", str(tmp_path))
            await site.start()
            await site.stop()
            lsn = site.substrate.append(commit_record("T1@alpha", "alpha"))
            site.substrate.force(lsn, lambda: None)
            await asyncio.wait_for(site.serve_until_stopped(), 5.0)
            return site

        assert asyncio.run(scenario()).error is None


class TestRecoveryIntegration:
    def test_analyze_reads_a_real_wal(self, tmp_path):
        """The same discriminators that drive simulator recovery classify
        a real on-disk WAL: forced prepare with no outcome -> in doubt."""
        wal = _wal(tmp_path)
        wal.append(prepare_record("T1@coord", "me", coordinator="coord"))
        wal.force(None)
        wal.append(commit_record("T2@coord", "me"))
        wal.force(None)
        wal.close()
        plan = analyze("me", read_records(str(tmp_path / "site.wal")))
        assert [str(e.tid) for e in plan.in_doubt] == ["T1@coord"]
        assert plan.in_doubt[0].protocol == "two_phase"
        assert plan.tombstones["T2@coord"] is Outcome.COMMITTED
