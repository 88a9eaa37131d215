"""The four workloads and their output checks.

Each workload drives only public entry points of the program:

- ``paper``: ``repro.__main__.main(["all", "--no-cache", "--jobs", "1"])``;
- ``openloop``: ``repro.bench.openloop.run_open_loop`` at the CI shape;
- ``live``: ``LiveSite`` clusters driven through ``SiteHost.begin_commit``
  and ``SiteHost.on_complete``;
- ``lint``: ``repro.lint.run_lint`` plus the race scan.

A workload has ``setup`` (everything before the first timed operation),
``run`` (measure for a given number of seconds, optionally with a
:class:`~ledger.Ledger` installed part-way) and ``close``.  The checks
are module-level functions over plain data so the tests can feed them
seeded negatives.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import io
import os
import random
import shutil
import socket
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import stats

PAPER_ARGV = ["all", "--no-cache", "--jobs", "1"]

OPENLOOP_SHAPE = dict(sites=24, rate_tps=300.0, txns=2_000, op="write",
                      zipf_s=1.1, remote_fraction=0.15)

LIVE_SITES = ("s0", "s1", "s2")
LIVE_FAMILIES = ("2pc", "nb", "paxos")
LIVE_OUTSTANDING = 4      # closed loop: commits in flight at once
LIVE_BATCH = 120          # closed loop: commits per timed batch
LIVE_RATE_TPS = 100.0     # open loop: fixed Poisson rate, well under capacity
LIVE_RESOLVE_S = 15.0     # a commit not resolved by then is a failure
LIVE_BATCHES_PER_S = 0.8  # closed-loop batches per second of the run
LIVE_OPEN_SHARE = 0.6     # share of the run spent in the open loop

MIN_JOBS = 3
REF_CHUNK_ITERS = 20_000  # sizes one reference chunk (~20 ms)
REF_SHARE = 0.1           # reference reading length, share of the job
REF_MIN_S = 0.05          # shortest reference reading
# The reference chunk's time on an idle core of the 2.1 GHz Xeon the
# benchmark was written on.  Gated times are given in seconds at that
# speed: measured seconds * REF_NOMINAL_S / the reference reading.
REF_NOMINAL_S = 0.020
UNTRACED_SHARE = 0.4      # traced runs: share of time spent untraced


def _reference_chunk() -> int:
    """A fixed piece of interpreter work of both kinds the workloads do:
    integer arithmetic, and small allocations with dict stores and
    loads.  Contention from other tenants slows the two differently."""
    acc = 0
    for i in range(REF_CHUNK_ITERS * 5):
        acc += i * i % 7
    table: Dict[int, Tuple[int, str]] = {}
    for i in range(REF_CHUNK_ITERS):
        table[i & 1023] = (i, str(i & 63))
        acc += len(table[i & 511][1])
    return acc


def reference_s(duration_s: float) -> float:
    """One reading of the reference clock: the mean time of a fixed
    chunk of work, run back to back for about ``duration_s``.

    The machines this runs on change speed by 20-30% from one minute to
    the next (other tenants), far more than a change worth gating.  A
    time divided by the reference read next to it cancels that drift:
    it is the cost in units of a fixed piece of work, which
    :func:`nominal_s` turns back into seconds at a fixed speed."""
    chunks = 0
    t0 = time.perf_counter()
    while True:
        _reference_chunk()
        chunks += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= duration_s:
            return elapsed / chunks


def nominal_s(seconds: float, reference: float) -> float:
    """``seconds`` measured while the reference read ``reference``, as
    seconds at the nominal reference speed."""
    return seconds * REF_NOMINAL_S / reference


class Jobs:
    """Wall times of one kind of timed job, each also in nominal seconds
    against the mean of the reference readings taken just before and
    just after it."""

    def __init__(self) -> None:
        self.wall_s: List[float] = []
        self.nominal_s: List[float] = []
        self.ref_time_s = 0.0     # spent reading the reference clock
        self._before: Optional[float] = None

    def _read(self) -> float:
        last = self.wall_s[-1] if self.wall_s else 0.0
        t0 = time.perf_counter()
        value = reference_s(max(REF_MIN_S, REF_SHARE * last))
        self.ref_time_s += time.perf_counter() - t0
        return value

    def start(self) -> None:
        if self._before is None:
            self._before = self._read()

    def add(self, wall_s: float) -> None:
        assert self._before is not None, "start() before add()"
        self.wall_s.append(wall_s)
        after = self._read()
        self.nominal_s.append(
            nominal_s(wall_s, (self._before + after) / 2.0))
        self._before = after

    def __len__(self) -> int:
        return len(self.wall_s)


class RunResult:
    """What one measuring run produced, before aggregation."""

    def __init__(self) -> None:
        self.jobs = Jobs()                    # untraced fixed jobs
        self.traced_jobs = Jobs()             # the same jobs, traced
        self.ops_per_job = 0.0
        self.traced_wall_s = 0.0              # wall of the traced phase
        self.latency_ms: List[float] = []     # per-operation latencies
        self.late_ms: List[float] = []        # open-loop generator lateness
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.txns_traced = 0                  # per-txn denominator
        self.extra: Dict[str, float] = {}     # workload per-layer metrics

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)


def repeat(job: Callable[[], float], seconds: float, jobs: Jobs,
           min_jobs: int = MIN_JOBS) -> None:
    """Run ``job`` (which returns its wall time) back to back for
    ``seconds``, at least ``min_jobs`` times."""
    deadline = time.monotonic() + seconds
    jobs.start()
    while len(jobs) < min_jobs or time.monotonic() < deadline:
        jobs.add(job())


def timed(fn: Callable[[], Any]) -> Tuple[float, Any]:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


# ================================================================ checks

def check_paper(stdout: str, expected_sha256: str) -> List[str]:
    digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
    if digest != expected_sha256:
        return [f"paper stdout sha256 {digest} != expected {expected_sha256}"]
    return []


def openloop_fingerprint(result: Any) -> Dict[str, Any]:
    """The simulated-time results of one open-loop run."""
    return {"txns": result.txns, "committed": result.committed,
            "aborted": result.aborted, "unfinished": result.unfinished,
            "measured_tps": result.measured_tps, "mean_ms": result.mean_ms,
            "p50_ms": result.p50_ms, "p95_ms": result.p95_ms,
            "p99_ms": result.p99_ms, "max_ms": result.max_ms,
            "peak_in_flight": result.peak_in_flight,
            "counters": dict(sorted(result.counters.items()))}


def check_openloop(prints: Sequence[Dict[str, Any]]) -> Tuple[int, List[str]]:
    """Failed transactions and messages over the runs of one seed: every
    transaction commits, none is left unfinished, and every run's
    simulated-time results equal the first run's."""
    failed = 0
    errors: List[str] = []
    for i, fp in enumerate(prints):
        bad = fp["txns"] - fp["committed"]
        if bad or fp["unfinished"]:
            failed += bad
            errors.append(f"openloop run {i}: {fp['aborted']} aborted, "
                          f"{fp['unfinished']} unfinished of {fp['txns']}")
        elif fp != prints[0]:
            failed += fp["txns"]
            diff = sorted(k for k in fp if fp[k] != prints[0][k])
            errors.append(f"openloop run {i}: simulated results differ "
                          f"from run 0 for the same seed in {diff}")
    return failed, errors


def check_live(reported: Dict[str, Optional[str]],
               site_views: Dict[str, Dict[str, str]],
               wal_views: Dict[str, Dict[str, str]]) -> Tuple[int, List[str]]:
    """Failed transactions and messages: every attempted transaction
    resolved and committed, no site's tombstone disagrees with the
    coordinator's reported outcome, and no site's WAL (read back after a
    clean stop and run through recovery analysis) contradicts it."""
    failed = 0
    errors: List[str] = []
    for tid, outcome in sorted(reported.items()):
        if outcome is None:
            failed += 1
            errors.append(f"live {tid}: never resolved")
            continue
        if outcome != "committed":
            failed += 1
            errors.append(f"live {tid}: {outcome}")
            continue
        for source, views in (("site", site_views), ("wal", wal_views)):
            for site, view in sorted(views.items()):
                seen = view.get(tid)
                if seen is not None and seen != outcome:
                    failed += 1
                    errors.append(f"live {tid}: {source} {site} says {seen}, "
                                  f"coordinator reported {outcome}")
                    break
            else:
                continue
            break
    return failed, errors


def check_lint(findings: Sequence[Any]) -> List[str]:
    return [f"lint finding: {getattr(f, 'rule', '?')} "
            f"{getattr(f, 'file', '?')}:{getattr(f, 'line', '?')}"
            for f in findings]


# ============================================================ workloads

class FixedJob:
    """A workload timed as one fixed job repeated back to back.

    Traced runs spend :data:`UNTRACED_SHARE` of the time on untraced
    jobs (the base of ``trace_overhead``) and the rest with the ledger
    installed."""

    def setup(self, seed: int, work_dir: str) -> None:
        raise NotImplementedError

    def _job(self, result: RunResult) -> float:
        raise NotImplementedError

    def check(self, result: RunResult) -> None:
        """Checks over the whole run, after the last job."""

    def run(self, seconds: float, result: RunResult,
            ledger: Any = None) -> None:
        share = seconds if ledger is None else seconds * UNTRACED_SHARE
        repeat(lambda: self._job(result), share, result.jobs,
               min_jobs=MIN_JOBS if ledger is None else 1)
        if ledger is not None:
            ledger.install()
            t0 = time.perf_counter()
            repeat(lambda: self._job(result), seconds - share,
                   result.traced_jobs, min_jobs=1)
            result.traced_wall_s = (time.perf_counter() - t0
                                    - result.traced_jobs.ref_time_s)
            ledger.uninstall()
            ledger.collect_tracers()
            result.txns_traced = ledger.tracer_counts.get(
                "tranman.complete", 0)
        self.check(result)
        result.latency_ms = [s * 1000.0 for s in result.jobs.wall_s]

    def close(self) -> None:
        pass


class Paper(FixedJob):
    """``python -m repro all --no-cache --jobs 1``, in process.  The
    reproduction is seeded by the paper's own configuration, so the
    workload seed changes nothing here."""

    def __init__(self, expected: Dict[str, Any]):
        self.expected_sha256 = expected["paper_stdout_sha256"]
        self.expected_txns = expected["paper_txns_per_job"]

    def setup(self, seed: int, work_dir: str) -> None:
        import repro.__main__
        self.cli = repro.__main__

    def _job(self, result: RunResult) -> float:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            wall, code = timed(lambda: self.cli.main(list(PAPER_ARGV)))
        result.attempted += 1
        result.ops_per_job = self.expected_txns
        errors = check_paper(out.getvalue(), self.expected_sha256)
        if code != 0:
            errors.append(f"paper: exit code {code}")
        if errors:
            result.fail(1, errors[0])
        return wall

    def check(self, result: RunResult) -> None:
        # The untraced run cannot count transactions without tracing;
        # the traced run proves the recorded count still holds.
        expected = self.expected_txns * len(result.traced_jobs)
        if result.txns_traced != expected:
            result.fail(1, f"paper: {result.txns_traced} transactions "
                           f"completed in traced jobs, expected {expected}")


class OpenLoop(FixedJob):
    """``run_open_loop`` at the CI shape, the run's seed every job."""

    def setup(self, seed: int, work_dir: str) -> None:
        import repro.bench.openloop
        self.module = repro.bench.openloop
        self.seed = seed
        self.prints: List[Dict[str, Any]] = []

    def _job(self, result: RunResult) -> float:
        wall, out = timed(lambda: self.module.run_open_loop(
            seed=self.seed, **OPENLOOP_SHAPE))
        result.attempted += out.txns
        result.ops_per_job = out.txns
        self.prints.append(openloop_fingerprint(out))
        return wall

    def check(self, result: RunResult) -> None:
        failed, errors = check_openloop(self.prints)
        for message in errors:
            result.fail(0, message)
        result.failed += failed


class Lint(FixedJob):
    """Whole-tree ``run_lint`` with the race scan, empty baseline.  The
    tree is the input, so the workload seed changes nothing here."""

    def setup(self, seed: int, work_dir: str) -> None:
        import repro.lint.engine
        import repro.lint.races
        self.engine = repro.lint.engine
        self.races = repro.lint.races

    def _job(self, result: RunResult) -> float:
        def lint() -> Any:
            extra = self.races.scan_for_races()
            return self.engine.run_lint(baseline_path=None,
                                        extra_findings=extra)
        wall, report = timed(lint)
        result.attempted += 1
        result.ops_per_job = report.checked_files
        errors = check_lint(report.findings)
        if errors:
            result.fail(1, errors[0])
        return wall


class Live:
    """Three ``LiveSite``s on one event loop over loopback TCP and
    fsync'd WAL files: a closed loop for throughput, then an open loop
    at a fixed rate for latency."""

    def setup(self, seed: int, work_dir: str) -> None:
        from repro.live import site as site_mod
        self.site_mod = site_mod
        self.seed = seed
        self.run_dir = os.path.join(work_dir, f"live-{os.getpid()}")
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.loop = asyncio.new_event_loop()
        self.sites: Dict[str, Any] = {}
        self.waiting: Dict[Tuple[str, str], asyncio.Future] = {}
        self.reported: Dict[str, Optional[str]] = {}
        self.issued = 0
        self.loop.run_until_complete(self._start())

    async def _start(self) -> None:
        for name in LIVE_SITES:
            live = self.site_mod.LiveSite(name, self.run_dir, fsync=True)
            live.host.on_complete = self._completer(name)
            self.sites[name] = live
        for live in self.sites.values():
            await live.start()

    def _completer(self, site: str) -> Callable[[Any, Any], None]:
        def on_complete(tid: Any, outcome: Any) -> None:
            # Subordinates complete too; only the coordinator's counts.
            fut = self.waiting.pop((site, str(tid)), None)
            if fut is not None:
                fut.set_result(outcome.value)
        return on_complete

    def _begin(self) -> asyncio.Future:
        """Issue the next commit in the rotation; the future resolves
        with the coordinator's outcome."""
        k = self.issued
        self.issued += 1
        coord = LIVE_SITES[k % len(LIVE_SITES)]
        family = LIVE_FAMILIES[(k // len(LIVE_SITES)) % len(LIVE_FAMILIES)]
        subs = [s for s in LIVE_SITES if s != coord]
        tid = str(self.sites[coord].host.begin_commit(family, subs))
        fut = self.loop.create_future()
        self.waiting[(coord, tid)] = fut
        self.reported[tid] = None
        fut.add_done_callback(
            lambda f: self.reported.__setitem__(tid, f.result()))
        fut.tid = tid  # type: ignore[attr-defined]
        return fut

    async def _commit(self) -> None:
        fut = self._begin()
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(asyncio.shield(fut), LIVE_RESOLVE_S)

    async def _batch(self) -> float:
        per_worker = LIVE_BATCH // LIVE_OUTSTANDING

        async def worker() -> None:
            for _ in range(per_worker):
                await self._commit()

        t0 = time.perf_counter()
        await asyncio.gather(*(worker() for _ in range(LIVE_OUTSTANDING)))
        return time.perf_counter() - t0

    async def _closed_loop(self, batches: int, jobs: Jobs) -> None:
        jobs.start()
        for _ in range(batches):
            jobs.add(await self._batch())

    async def _open_loop(self, seconds: float, log: stats.DueTimeLog
                         ) -> None:
        """Poisson arrivals at :data:`LIVE_RATE_TPS`, each commit timed
        from its due time."""
        rng = random.Random(self.seed)
        loop = self.loop
        start = due = loop.time()
        pending: List[asyncio.Future] = []
        while True:
            due += rng.expovariate(LIVE_RATE_TPS)
            if due - start > seconds:
                break
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            fut = self._begin()
            log.sent(fut.tid, due, loop.time())  # type: ignore[attr-defined]
            fut.add_done_callback(lambda f: log.done(f.tid, loop.time()))
            pending.append(fut)
        if pending:
            await asyncio.wait(pending, timeout=LIVE_RESOLVE_S)

    def run(self, seconds: float, result: RunResult,
            ledger: Any = None) -> None:
        # A fixed number of commits, not a fixed time, so the state the
        # sites retain per commit (and with it peak RSS) does not depend
        # on how fast this run happened to go.
        result.ops_per_job = LIVE_BATCH
        batches = max(2 * MIN_JOBS, round(seconds * LIVE_BATCHES_PER_S))
        open_s = seconds * LIVE_OPEN_SHARE
        run = self.loop.run_until_complete
        if ledger is None:
            run(self._closed_loop(batches, result.jobs))
            log = stats.DueTimeLog()
            run(self._open_loop(open_s, log))
        else:
            run(self._closed_loop(batches // 2, result.jobs))
            ledger.install()
            self._trace_hooks(ledger)
            issued = self.issued
            t0 = time.perf_counter()
            run(self._closed_loop(batches - batches // 2,
                                  result.traced_jobs))
            log = stats.DueTimeLog()
            lag = self.loop.create_task(self._loop_lag())
            run(self._open_loop(open_s, log))
            lag.cancel()
            result.traced_wall_s = (time.perf_counter() - t0
                                    - result.traced_jobs.ref_time_s)
            ledger.uninstall()
            result.txns_traced = self.issued - issued
        result.latency_ms = log.latency_ms
        result.late_ms = log.late_ms
        self._settle()
        if ledger is not None:
            result.extra.update(self.trace_metrics())
        self._check(result)

    # ------------------------------------------------ traced-run hooks

    def _trace_hooks(self, ledger: Any) -> None:
        """Time each inbound frame's wait in its site's delivery line,
        charge socket system calls to ``live.socket``, the event loop's
        wait for IO to ``idle``, and the benchmark's own load generator to
        ``bench``."""
        self.inbound_wait_ms: List[float] = []
        self.loop_lag_ms: List[float] = []
        inbound = {id(s.substrate.inbound) for s in self.sites.values()}
        put = self.site_mod._DelayLine.put
        loop = self.loop
        waits = self.inbound_wait_ms

        def timed_put(line: Any, fn: Callable[[], None]) -> None:
            if id(line) not in inbound:
                return put(line, fn)
            queued = loop.time()

            def deliver() -> None:
                waits.append((loop.time() - queued) * 1000.0)
                fn()
            return put(line, deliver)

        ledger.patch(self.site_mod._DelayLine, "put", timed_put)
        for attr in ("recv", "send"):
            ledger.patch(socket.socket, attr, ledger.wrap(
                getattr(socket.socket, attr), "live.socket", f"socket.{attr}"))
        selector = type(self.loop._selector)  # type: ignore[attr-defined]
        ledger.patch(selector, "select", ledger.wrap(
            selector.select, "idle", "selector.select"))
        ledger.patch(self, "_begin",
                     ledger.wrap(self._begin, "bench", "Live._begin"))
        for live in self.sites.values():
            ledger.patch(live.host, "on_complete", ledger.wrap(
                live.host.on_complete, "bench", "Live.on_complete"))

    async def _loop_lag(self) -> None:
        period = 0.005
        while True:
            t0 = self.loop.time()
            await asyncio.sleep(period)
            self.loop_lag_ms.append(
                max(0.0, self.loop.time() - t0 - period) * 1000.0)

    def trace_metrics(self) -> Dict[str, float]:
        out = {"live.site.inbound_wait_ms.p99":
               stats.tail(self.inbound_wait_ms)[0]
               if self.inbound_wait_ms else 0.0,
               "live.site.loop_lag_ms.p99":
               stats.tail(self.loop_lag_ms)[0] if self.loop_lag_ms else 0.0}
        retained = 0
        for live in self.sites.values():
            host, sub = live.host, live.substrate
            retained += (len(host.tombstones) + len(host.completions)
                         + len(sub.traces) + len(sub.transcript.entries))
        out["live.host.retained_per_txn"] = retained / max(1, self.issued)
        return out

    # ----------------------------------------------------- the checks

    def _settle(self) -> None:
        """Wait until no site has protocol work in flight."""
        async def settle() -> None:
            deadline = self.loop.time() + LIVE_RESOLVE_S
            while self.loop.time() < deadline:
                if all(s.settled for s in self.sites.values()):
                    await asyncio.sleep(0.2)
                    if all(s.settled for s in self.sites.values()):
                        return
                await asyncio.sleep(0.05)

        self.loop.run_until_complete(settle())

    def _check(self, result: RunResult) -> None:
        """Stop the sites cleanly, then check every reported outcome
        against each site's tombstones and its WAL read back from disk."""
        from repro.live.walfile import read_records
        from repro.servers.recovery import analyze
        site_views = {name: {t: o.value for t, o in s.host.tombstones.items()}
                      for name, s in self.sites.items()}
        self._stop()
        wal_views = {}
        for name in LIVE_SITES:
            records = read_records(os.path.join(self.run_dir, f"{name}.wal"))
            plan = analyze(name, records)
            wal_views[name] = {t: o.value for t, o in plan.tombstones.items()}
        result.attempted += len(self.reported)
        failed, errors = check_live(self.reported, site_views, wal_views)
        result.failed += failed
        for message in errors:
            result.fail(0, message)

    def _stop(self) -> None:
        async def stop() -> None:
            for live in self.sites.values():
                await live.stop()
        if self.sites:
            self.loop.run_until_complete(stop())
            self.sites = {}

    def close(self) -> None:
        self._stop()
        pending = asyncio.all_tasks(self.loop)
        for task in pending:
            task.cancel()
        if pending:
            self.loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True))
        self.loop.close()
        shutil.rmtree(self.run_dir, ignore_errors=True)


def make(name: str, expected: Dict[str, Any]) -> Any:
    if name == "paper":
        return Paper(expected)
    return {"openloop": OpenLoop, "live": Live, "lint": Lint}[name]()


NAMES = ("paper", "openloop", "live", "lint")
