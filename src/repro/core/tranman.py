"""The transaction manager process (TranMan).

"The transaction manager is essentially a protocol processor; most calls
from applications or servers invoke one protocol or another" (paper §3).
The processor's decisions — routing, the stateless protocol edge,
takeovers, tombstones, completion bookkeeping — live in
:class:`repro.core.host.ProtocolHost`, shared with the live site host.
This module is the executor the paper puts costs on, over the simulated
substrate:

- a request port drained by a **C-Threads-style pool** (size is the
  experimental parameter of Figures 4-5); every thread waits for any
  type of input — application calls, server joins, inbound datagrams —
  processes it, and resumes waiting (paper §3.4);
- the **family descriptor hash table**, each family protected by its own
  lock so only same-family operations contend;
- an **effect executor** that blocks its thread on every log force
  through the disk manager and on the local servers' prepare round
  trip, so a coordinator's prepare fan-out leaves only after its own
  vote (``LocalPrepare`` blocks the rest of its effect batch);
- local server IPC for prepare/commit/abort, and lazily queued
  (piggybacked) datagrams flushed by a periodic sweep.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Set,
)

from repro.config import CostModel
from repro.core.abortproto import AbortInitiator, AbortParticipant
from repro.core.effects import (
    Effect,
    ForceLog,
    LocalPrepare,
    StartTakeover,
)
from repro.core.family import FamilyTable
from repro.core.host import ProtocolHost, Step
from repro.core.messages import NestedCommit
from repro.core.outcomes import Outcome, ProtocolKind, TwoPhaseVariant, Vote
from repro.core.tid import TID, TidGenerator
from repro.core.twophase import TwoPhaseSubordinate
from repro.log.records import LogRecord
from repro.mach.ipc import IpcFabric
from repro.mach.message import Message
from repro.mach.site import Site
from repro.mach.threads import CThreadsPool
from repro.net.datagram import Datagram, DatagramService
from repro.servers.diskman import DiskManager
from repro.sim.events import SimEvent, all_of
from repro.sim.kernel import Kernel
from repro.sim.process import Sleep, Wait
from repro.sim.resources import SimLock
from repro.sim.tracing import Tracer

PIGGYBACK_SWEEP_MS = 50.0


class TransactionManager(ProtocolHost):
    """One site's TranMan."""

    def __init__(self, kernel: Kernel, site: Site, fabric: IpcFabric,
                 dgram: DatagramService, diskman: DiskManager,
                 cost: CostModel, tracer: Tracer,
                 threads: int = 20, use_multicast: bool = False):
        # Completed-transaction bookkeeping outlives the protocol's
        # retry horizon: orphan timeout + protocol timeout is ~15x the
        # datagram retry window.
        super().__init__(site.name, cost.protocol_timeout,
                         cost.orphan_timeout + cost.protocol_timeout,
                         use_multicast=use_multicast)
        self.kernel = kernel
        self.site = site
        self.fabric = fabric
        self.dgram = dgram
        self.diskman = diskman
        self.cost = cost
        self.tracer = tracer

        self.families = FamilyTable()
        self.family_locks: Dict[str, SimLock] = {}
        self.tid_gen = TidGenerator(site.name)
        self._pending_calls: Dict[TID, Message] = {}
        self._abort_participant = AbortParticipant(site.name)
        # Local data servers by name; filled in by system assembly.
        self.servers: Dict[str, Any] = {}

        self.stats = {
            "begun": 0, "committed": 0, "aborted": 0,
            "nested_begun": 0, "nested_committed": 0, "nested_aborted": 0,
        }

        self.port = site.create_port("tranman")
        self.pool = CThreadsPool(
            kernel, self.port, self._handle, size=threads,
            name=f"{site.name}/tranman",
            spawn=lambda body, name: site.spawn(body, name))
        self._pump = site.spawn(self._datagram_pump(), "tranman.dgram_pump")
        self._sweeper = site.spawn(self._piggyback_sweep(), "tranman.piggyback")
        self._orphan_reaper = site.spawn(self._orphan_sweep(),
                                         "tranman.orphans")
        site.on_crash.append(self._on_site_crash)

    # ------------------------------------------------ substrate primitives

    def _now(self) -> float:
        return self.kernel.now

    def _send(self, dst: str, message: Any) -> None:
        self.dgram.send(dst, message)

    def _trace(self, kind: str, **detail: Any) -> None:
        self.tracer.record(self.kernel.now, kind, site=self.site.name,
                           **detail)

    _count = _trace

    def _multicast(self, dsts: List[str], message: Any) -> None:
        self.dgram.multicast(dsts, message)

    def _append(self, record: LogRecord) -> int:
        lsn = self.diskman.append(record).lsn
        assert lsn is not None
        return lsn

    def _watch_durable(self, lsn: int, fn: Callable[[], None]) -> None:
        self.diskman.watch_durable(lsn, fn)

    def _schedule(self, delay_ms: float, fn: Callable[[], None]) -> Any:
        return self.kernel.schedule(delay_ms, fn)

    def _cancel(self, handle: Any) -> None:
        handle.cancel()

    def _soon(self, fn: Callable[[], None]) -> None:
        self.kernel.post_soon(fn)

    def _input(self, machine: Any, name: str,
               step: Callable[[], Sequence[Effect]]) -> None:
        more = step()
        if more:
            self.site.spawn(self._execute(machine, more), f"tranman.{name}")

    # ------------------------------------------------------------ wiring

    def register_server(self, server: Any) -> None:
        self.servers[server.name] = server  # lint: bounded(bounded by the site's server count)

    def _family_lock(self, family: str) -> SimLock:
        lock = self.family_locks.get(family)
        if lock is None:
            lock = SimLock(self.kernel, name=f"{self.site.name}.fam.{family}")
            self.family_locks[family] = lock
        return lock

    def _datagram_pump(self) -> Generator[Any, Any, None]:
        """Move inbound datagrams onto the request port, so the one
        thread pool serves 'any type of input' as the paper describes."""
        while True:
            dgram = yield from self.dgram.inbox.get()
            self.port.enqueue(Message(kind="_datagram",
                                      body={"payload": dgram}))

    def _piggyback_sweep(self) -> Generator[Any, Any, None]:
        """Flush lazily queued (piggybacked) messages periodically."""
        while True:
            yield Sleep(PIGGYBACK_SWEEP_MS)
            for dst in list(self._lazy):
                self._flush_lazy(dst)

    def _orphan_sweep(self) -> Generator[Any, Any, None]:
        """Abort transactions whose coordinator evidently died.

        A family with no live protocol machine and no TranMan activity
        for ``orphan_timeout`` will never commit: its coordinator never
        started commitment (had it, a machine or tombstone would exist
        here).  Aborting locally is always safe before a YES vote —
        presumed abort lets a participant abort unilaterally at any time
        until it has voted.  Without this sweep, a coordinator crash
        before prepare strands its locks at every participant forever.
        """
        interval = max(self.cost.orphan_timeout / 4.0, 500.0)
        while True:
            yield Sleep(interval)
            now = self.kernel.now
            for family_name in self.families.active_families():
                fam = self.families.family(family_name)
                if fam is None or fam.empty:
                    continue
                if any(tid.family == family_name
                       for tid in self.machines):
                    continue
                if any(tid.family == family_name
                       for tid in self.takeovers):
                    continue
                last = max(d.last_activity for d in fam.transactions.values())
                if now - last < self.cost.orphan_timeout:
                    continue
                top = TID(family_name)
                self.tracer.record(now, "tranman.orphan_abort",
                                   site=self.site.name, tid=family_name)
                self.tombstones[family_name] = Outcome.ABORTED
                self.note_retirable(family_name)
                self._local_abort(top)
                self.families.forget_family(family_name)
                self.family_locks.pop(family_name, None)
                self.tid_gen.forget_family(family_name)

    # --------------------------------------------------------- dispatch

    def _handle(self, msg: Message) -> Generator[Any, Any, None]:
        obs = self.tracer.obs
        if obs is not None and obs.keep:
            obs.gauge(self.kernel.now, f"cpu.queue_depth.{self.site.name}",
                      self.site.cpu.queue_depth)
            sid = obs.begin_cpu(self.kernel.now, "tranman", self.site.name,
                                msg)
            yield from self.site.consume_cpu(self.cost.tranman_service_cpu)
            obs.end(sid, self.kernel.now)
        else:
            if obs is not None:
                obs.count_cpu()
            yield from self.site.consume_cpu(self.cost.tranman_service_cpu)
        kind = msg.kind
        if kind == "_datagram":
            yield from self._on_datagram(msg.body["payload"])
        elif kind == "begin_transaction":
            yield from self._begin(msg)
        elif kind == "join":
            yield from self._join(msg)
        elif kind == "commit_transaction":
            yield from self._commit(msg)
        elif kind == "abort_transaction":
            yield from self._abort(msg)
        elif kind == "note_sites":
            self._note_sites_msg(msg)
        else:
            raise ValueError(f"tranman: unknown message kind {kind!r}")

    # ----------------------------------------------- application calls

    def _begin(self, msg: Message) -> Generator[Any, Any, None]:
        parent_raw = msg.body.get("parent")
        if parent_raw is None:
            tid = self.tid_gen.new_top_level()
            self.stats["begun"] += 1
        else:
            parent = TID.parse(parent_raw)
            parent_desc = self.families.descriptor(parent)
            if parent_desc is None or not parent_desc.active:
                self.fabric.reply(msg, msg.reply("begin_failed",
                                                 reason="unknown parent"))
                return
            tid = self.tid_gen.new_child(parent)
            self.stats["nested_begun"] += 1
        lock = self._family_lock(tid.family)
        yield from lock.acquire()
        try:
            desc = self.families.begin(tid)
            desc.last_activity = self.kernel.now
            raw_protocol = msg.body.get("protocol",
                                        ProtocolKind.TWO_PHASE.value)
            desc.protocol = ProtocolKind(raw_protocol)
        finally:
            lock.release()
        self.tracer.record(self.kernel.now, "tranman.begin",
                           site=self.site.name, tid=str(tid))
        self.fabric.reply(msg, msg.reply("begin_ok", tid=str(tid)),
                          flavour="immediate")

    def _join(self, msg: Message) -> Generator[Any, Any, None]:
        tid = TID.parse(msg.body["tid"])
        server = msg.body["server"]
        lock = self._family_lock(tid.family)
        yield from lock.acquire()
        try:
            desc = self.families.descriptor(tid)
            if desc is None:
                # A remote transaction doing its first operation here:
                # the descriptor materialises on join.
                desc = self.families.begin(tid)
            desc.note_server_joined(server)
            desc.last_activity = self.kernel.now
        finally:
            lock.release()
        self.tracer.record(self.kernel.now, "tranman.join",
                           site=self.site.name, tid=str(tid), server=server)
        if msg.reply_to is not None:
            self.fabric.reply(msg, msg.reply("join_ok"))

    def note_remote_site(self, tid: TID, remote: str) -> None:
        """ComMan spying, request direction."""
        desc = self.families.descriptor(tid)
        if desc is None:
            desc = self.families.begin(tid)
        desc.note_sites([remote])
        desc.last_activity = self.kernel.now

    def note_remote_sites(self, tid: TID, remotes: Sequence[str]) -> None:
        """ComMan spying, response direction (merged site lists)."""
        desc = self.families.descriptor(tid)
        if desc is None:
            desc = self.families.begin(tid)
        desc.note_sites(list(remotes))
        desc.last_activity = self.kernel.now

    def known_sites(self, tid: TID) -> Set[str]:
        fam = self.families.family_of(tid)
        if fam is None:
            return set()
        return fam.all_sites()

    def _note_sites_msg(self, msg: Message) -> None:
        self.note_remote_sites(TID.parse(msg.body["tid"]),
                               msg.body["sites"])

    # ------------------------------------------------------- commitment

    def _commit(self, msg: Message) -> Generator[Any, Any, None]:
        tid = TID.parse(msg.body["tid"])
        desc = self.families.descriptor(tid)
        if desc is None or not desc.active:
            self.fabric.reply(msg, msg.reply("commit_failed",
                                             reason="unknown transaction"))
            return
        if not tid.is_top_level:
            self._commit_nested(tid, msg)
            return
        protocol = ProtocolKind(msg.body.get("protocol", desc.protocol.value))
        variant = TwoPhaseVariant(msg.body.get(
            "variant", TwoPhaseVariant.OPTIMIZED.value))
        sites = self.families.family_of(tid).all_sites()
        self._pending_calls[tid] = msg
        machine = self._coordinate(
            tid, protocol, sites, variant,
            quorum_policy=msg.body.get("quorum_policy", "majority"))
        self.tracer.record(self.kernel.now, "tranman.commit_call",
                           site=self.site.name, tid=str(tid),
                           protocol=protocol.value,
                           subs=len(sites - {self.site.name}))
        yield from self._execute(machine, machine.start())

    def _commit_nested(self, tid: TID, msg: Message) -> None:
        """Moss subtransaction commit: volatile, relative to the parent."""
        desc = self.families.descriptor(tid)
        desc.outcome = Outcome.COMMITTED
        self.stats["nested_committed"] += 1
        # Local lock inheritance at every server the family touched.
        self._tell_servers(tid, "commit_child")
        # Remote inheritance: one (lazy) datagram per involved site.
        for remote in sorted(desc.sites_used):
            self._queue_lazy(remote, NestedCommit(tid=tid, sender=self.site.name))
        self.fabric.reply(msg, msg.reply("commit_ok",
                                         outcome=Outcome.COMMITTED.value))

    def _abort(self, msg: Message) -> Generator[Any, Any, None]:
        tid = TID.parse(msg.body["tid"])
        desc = self.families.descriptor(tid)
        if desc is None or not desc.active:
            self.fabric.reply(msg, msg.reply("abort_failed",
                                             reason="unknown transaction"))
            return
        machine = self.machines.get(tid)
        if machine is not None and hasattr(machine, "abort_now"):
            if getattr(machine, "outcome", None) is not None:
                # Commitment already decided: the abort loses the race.
                self.fabric.reply(msg, msg.reply(
                    "abort_failed", reason="already decided"))
                return
            from repro.core.nonblocking import NbProtocolViolation

            try:
                effects = machine.abort_now()
            except NbProtocolViolation:
                # Non-blocking commit past the replication phase: only
                # the quorum machinery may exclude commit now.
                self.fabric.reply(msg, msg.reply(
                    "abort_failed", reason="replication phase begun"))
                return
            self._pending_calls.setdefault(tid, msg)
            yield from self._execute(machine, effects)
            return
        if not tid.is_top_level:
            self.stats["nested_aborted"] += 1
            desc.outcome = Outcome.ABORTED
        fam = self.families.family_of(tid)
        known = sorted(fam.all_sites() - {self.site.name}) if fam else []
        initiator = AbortInitiator(tid, self.site.name, known,
                                   ack_timeout_ms=self.cost.protocol_timeout)
        self.machines[tid] = initiator
        self._pending_calls[tid] = msg
        yield from self._execute(initiator, initiator.start())

    # ----------------------------------------------- datagram dispatch

    def _on_datagram(self, dgram: Datagram) -> Generator[Any, Any, None]:
        pmsg = dgram.payload
        self.tracer.record(self.kernel.now, "tranman.dgram_in",
                           site=self.site.name, kind_of=type(pmsg).__name__)
        yield from self._run(self._route(pmsg))

    def _holds_family(self, tid: TID) -> bool:
        return self.families.family_of(tid) is not None

    def _running(self, tid: TID) -> bool:
        desc = self.families.descriptor(tid)
        return desc is not None and desc.active

    def _family_message(self, pmsg: Any) -> List[Step]:
        if isinstance(pmsg, NestedCommit):
            self._tell_servers(pmsg.tid, "commit_child")
            return []
        known = sorted(self.known_sites(pmsg.tid) - {self.site.name})
        effects = self._abort_participant.on_abort(pmsg, known)
        desc = self.families.descriptor(pmsg.tid)
        if desc is not None:
            desc.outcome = Outcome.ABORTED
        return [(None, lambda: effects)]

    # ----------------------------------------------- effect execution

    def _run(self, steps: List[Step]) -> Generator[Any, Any, None]:
        for machine, step in steps:
            yield from self._execute(machine, step())

    def _execute(self, machine: Optional[Any],
                 effects: Sequence[Effect]) -> Generator[Any, Any, None]:
        """Run an effect batch; continuations recurse through here."""
        for effect in effects:
            if isinstance(effect, ForceLog):
                record = self.diskman.append(effect.record)
                self._note_membership(machine, effect.record)
                obs = self.tracer.obs
                if obs is not None:
                    sid = obs.begin(self.kernel.now, "log.force",
                                    site=self.site.name,
                                    tid=effect.record.tid or None,
                                    record_kind=effect.record.kind.value)
                    yield from self.diskman.force(record.lsn)
                    obs.end(sid, self.kernel.now)
                else:
                    yield from self.diskman.force(record.lsn)
                yield from self._continue(machine, "on_log_forced",
                                          effect.token)
            elif isinstance(effect, LocalPrepare):
                yield from self._local_prepare(machine, effect)
            elif isinstance(effect, StartTakeover):
                yield from self._run(self._start_takeover(effect.tid))
            else:
                self._perform(machine, effect)

    def _continue(self, machine: Optional[Any], method: str,
                  *args: Any) -> Generator[Any, Any, None]:
        if machine is None:
            return
        more = getattr(machine, method)(*args)
        if more:
            yield from self._execute(machine, more)

    # ------------------------------------------------- local participant

    def _local_prepare(self, machine: Any, effect: LocalPrepare
                       ) -> Generator[Any, Any, None]:
        tid = effect.tid
        fam = self.families.family_of(tid)
        servers = sorted(fam.all_servers()) if fam is not None else []
        votes: List[Vote] = []
        if not servers:
            combined = Vote.READ_ONLY
        else:
            events = []
            for name in servers:
                server = self.servers.get(name)
                if server is None:
                    votes.append(Vote.NO)
                    continue
                done = SimEvent(self.kernel, name=f"prep.{name}")
                events.append(done)
                self.site.spawn(self._ask_server_vote(server, tid, done),
                                f"tranman.prep.{name}")
            if events:
                results = yield from _wait_all(self.kernel, events)
                votes.extend(results)
            combined = _combine_votes(votes)
        self._prepared(tid, combined)
        yield from self._continue(machine, "on_local_prepared", combined)

    def _ask_server_vote(self, server: Any, tid: TID,
                         done: SimEvent) -> Generator[Any, Any, None]:
        msg = Message(kind="prepare", body={"tid": str(tid)})
        try:
            reply = yield from self.fabric.call(server.port, msg,
                                                sender_site=self.site.name)
        except Exception:
            done.trigger(Vote.NO)
            return
        done.trigger(Vote(reply.body["vote"]))

    def _local_commit(self, tid: TID) -> None:
        """Event 11: tell joined servers to drop the family's locks."""
        self._tell_servers(tid, "drop_locks")

    def _local_abort(self, tid: TID) -> None:
        self._tell_servers(tid, "abort")

    def _tell_servers(self, tid: TID, kind: str) -> None:
        """One-way ``kind`` message to every server the family joined."""
        fam = self.families.family_of(tid)
        if fam is None:
            return
        for name in sorted(fam.all_servers()):
            server = self.servers.get(name)
            if server is None:
                continue
            msg = Message(kind=kind, body={"tid": str(tid)})
            self.fabric.send(server.port, msg, flavour="oneway",
                             sender_site=self.site.name)

    # ------------------------------------------------------ completions

    def _completed(self, tid: TID, outcome: Outcome) -> None:
        if tid.is_top_level:
            if outcome is Outcome.COMMITTED:
                self.stats["committed"] += 1
            else:
                self.stats["aborted"] += 1
        call = self._pending_calls.pop(tid, None)
        obs = self.tracer.obs
        if obs is not None:
            obs.instant(self.kernel.now, "tranman.complete",
                        site=self.site.name, tid=tid,
                        outcome=outcome.value)
        if call is not None:
            self.fabric.reply(call, call.reply(
                "commit_ok" if outcome is Outcome.COMMITTED
                else "commit_aborted",
                outcome=outcome.value))

    def _release_family(self, tid: TID) -> None:
        # Family state goes when the top-level transaction resolves (and
        # no takeover for it is still notifying peers).
        if tid.is_top_level and tid not in self.takeovers:
            self.families.forget_family(tid.family)
            self.family_locks.pop(tid.family, None)
            self.tid_gen.forget_family(tid.family)

    def _on_site_crash(self) -> None:
        """Volatile state dies with the site: timers, queues, machines."""
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        self._lazy.clear()
        self.machines.clear()
        self.takeovers.clear()
        self._pending_calls.clear()

    def heuristic_resolve(self, tid: TID, outcome: Outcome) -> None:
        """Operator/program resolution of a blocked transaction (the LU
        6.2-style "heuristic commit" of the paper's related work): drop
        the locks now by guessing the outcome.  If the coordinator later
        decides the other way, the machine reports *heuristic damage*
        (``2pc.heuristic_damage`` in the trace) — correctness is
        explicitly not guaranteed, which is the feature's whole trade.
        """
        machine = self.machines.get(tid)
        if not isinstance(machine, TwoPhaseSubordinate):
            raise ValueError(
                f"{tid}: no blocked two-phase subordinate at {self.site.name}")
        effects = machine.heuristic_resolve(outcome)
        self.site.spawn(self._execute(machine, effects), "tranman.heuristic")


def _combine_votes(votes: List[Vote]) -> Vote:
    if any(v is Vote.NO for v in votes):
        return Vote.NO
    if any(v is Vote.YES for v in votes):
        return Vote.YES
    return Vote.READ_ONLY


def _wait_all(kernel: Kernel, events: List[SimEvent]
              ) -> Generator[Any, Any, List[Any]]:
    combined = all_of(kernel, events, name="tranman.votes")
    results = yield Wait(combined)
    return results
