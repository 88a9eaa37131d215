"""The protocol host: everything a site decides about its machines.

"The transaction manager is essentially a protocol processor" (paper
§3).  :class:`ProtocolHost` is that processor's decisions, written once
and substrate-blind:

- the machine and takeover registry, coordinator construction and
  takeover spawning;
- datagram routing and the **stateless protocol edge**: presumed-abort
  answers for forgotten transactions, tombstones (change 4: never
  report "no state" for a transaction that decided), durable abort
  pledges, quorum helpers, rebuilt Paxos acceptors;
- ``Complete``/``Forget`` bookkeeping, membership notes, timers, the
  lazy (piggyback) queue, and the retire log that bounds them;
- adoption of the machines crash recovery rebuilt.

It decides; it never waits.  Routing returns *steps*, ``(machine,
thunk)`` pairs whose thunk returns the machine's next effect batch, and
the executor runs them in order, calling each thunk only once the
previous step's effects have run.  Two executors subclass it:

- :class:`repro.core.tranman.TransactionManager` blocks a C-Thread on
  each log force and data-server round trip (the waiting Figures 4-5
  measure);
- :class:`repro.live.host.SiteHost` runs one input at a time over a
  simulated or real-IO substrate.

A subclass supplies the substrate primitives (send, append, timers,
clock) and answers two questions about application state: does this
site hold family state for a transaction, and is it still running here.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.effects import (
    CancelTimer,
    Complete,
    Effect,
    ForceLog,
    Forget,
    LazySendDatagram,
    LocalAbort,
    LocalCommit,
    MulticastDatagram,
    SendDatagram,
    StartTimer,
    Trace,
    WriteLog,
)
from repro.core.messages import (
    AbortNotice,
    CommitAck,
    CommitNotice,
    FamilyAbort,
    FamilyAbortAck,
    InquiryResponse,
    NbAbortJoin,
    NbAbortJoinAck,
    NbOutcome,
    NbOutcomeAck,
    NbPrepare,
    NbReplicate,
    NbReplicateAck,
    NbStateReport,
    NbStateRequest,
    NbVote,
    NestedCommit,
    PcOutcome,
    PcOutcomeAck,
    PcP1a,
    PcP1b,
    PcP2a,
    PcPhase2b,
    PcPrepare,
    PcVote,
    PrepareRequest,
    TxnInquiry,
    VoteResponse,
)
from repro.core.nonblocking import NbCoordinator, NbSubordinate, NbTakeover
from repro.core.outcomes import Outcome, ProtocolKind, TwoPhaseVariant, Vote
from repro.core.paxoscommit import PcCandidate, PcLeader, PcParticipant
from repro.core.quorum import QuorumSpec
from repro.core.tid import TID
from repro.core.twophase import TwoPhaseCoordinator, TwoPhaseSubordinate
from repro.log.records import LogRecord, RecordKind, abort_pledge_record

# A machine and the thunk that returns its next effect batch.
Step = Tuple[Any, Callable[[], Sequence[Effect]]]

# Replies a takeover coordinates: they reach it before any machine.
_TAKEOVER_ROUTED = (NbStateReport, NbReplicateAck, NbAbortJoinAck,
                    NbOutcomeAck, PcP1b, PcOutcomeAck)

# Responses that outlived the machine that asked for them.
_STALE_RESPONSES = (VoteResponse, NbVote, CommitAck, NbReplicateAck,
                    NbAbortJoinAck, NbOutcomeAck, NbStateReport,
                    FamilyAbortAck, InquiryResponse, PcPhase2b, PcP1b,
                    PcOutcomeAck)


def _deliver(machine: Any, pmsg: Any) -> Step:
    return machine, lambda: machine.on_message(pmsg)


class ProtocolHost:
    """One site's protocol processor, minus the substrate."""

    def __init__(self, site: str, protocol_timeout_ms: float,
                 retention_ms: float, use_multicast: bool = False) -> None:
        self.site_name = site
        self.protocol_timeout = protocol_timeout_ms
        self.use_multicast = use_multicast
        self.machines: Dict[TID, Any] = {}
        # Termination-protocol machines: NbTakeover or PcCandidate.
        self.takeovers: Dict[TID, Any] = {}
        self.tombstones: Dict[str, Outcome] = {}
        self.completions: Dict[str, Outcome] = {}
        self.pledges: Set[str] = set()
        # TIDs this site answered READ_ONLY for: a retried prepare must
        # re-vote read-only, not NO (the machine is long forgotten).
        self.read_only_votes: Set[str] = set()
        # Completed-transaction bookkeeping (tombstones, completions,
        # pledges, read-only votes) answers late inquiries, so entries
        # must outlive the protocol's retry horizon — but not the run:
        # kept forever, a million-transaction run leaks one entry per
        # transaction.  The retire log expires them once no straggler
        # can still ask.
        self.tombstone_retention_ms = retention_ms
        self._retire_log: Deque[Tuple[float, str]] = deque()
        self._timers: Dict[Tuple[Any, str], Any] = {}
        self._lazy: Dict[str, List[Any]] = {}

    # ------------------------------------------------ substrate primitives

    def _now(self) -> float:
        raise NotImplementedError

    def _send(self, dst: str, message: Any) -> None:
        """One datagram, straight onto the wire."""
        raise NotImplementedError

    def _trace(self, kind: str, **detail: Any) -> None:
        raise NotImplementedError

    def _count(self, kind: str, **detail: Any) -> None:
        """Per-datagram observation (the §3.2 counts); off by default."""

    def _multicast(self, dsts: List[str], message: Any) -> None:
        for dst in dsts:
            self._send(dst, message)

    def _append(self, record: LogRecord) -> int:
        """Buffer ``record`` in the log; returns its LSN."""
        raise NotImplementedError

    def _watch_durable(self, lsn: int, fn: Callable[[], None]) -> None:
        raise NotImplementedError

    def _schedule(self, delay_ms: float, fn: Callable[[], None]) -> Any:
        raise NotImplementedError

    def _cancel(self, handle: Any) -> None:
        raise NotImplementedError

    def _soon(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` outside the current effect batch."""
        raise NotImplementedError

    def _input(self, machine: Any, name: str,
               step: Callable[[], Sequence[Effect]]) -> None:
        """Run ``step`` as a fresh input to ``machine`` (a timer, a
        durability notice, a recovery resumption)."""
        raise NotImplementedError

    # ------------------------------------------------ application layer

    def _holds_family(self, tid: TID) -> bool:
        """Does this site hold family state (the transaction's work) for
        ``tid``?  Without it a prepare must be refused."""
        raise NotImplementedError

    def _running(self, tid: TID) -> bool:
        """Is ``tid`` still running here, with no commitment begun?"""
        raise NotImplementedError

    def _family_message(self, pmsg: Any) -> List[Step]:
        """A nested commit or family abort with no machine here."""
        raise NotImplementedError

    def _completed(self, tid: TID, outcome: Outcome) -> None:
        """``tid`` completed here (after its tombstone is written)."""

    def _release_family(self, tid: TID) -> None:
        """``tid``'s machine was forgotten."""

    def _local_commit(self, tid: TID) -> None:
        """Drop the family's locks at the local servers."""

    def _local_abort(self, tid: TID) -> None:
        """Undo the family's work at the local servers."""

    # ------------------------------------------------------ coordinators

    def _coordinate(self, tid: TID, protocol: ProtocolKind,
                    sites: Iterable[str],
                    variant: TwoPhaseVariant = TwoPhaseVariant.OPTIMIZED,
                    quorum_policy: str = "majority") -> Any:
        """Build and register ``tid``'s coordinator over ``sites``."""
        subs = sorted(s for s in sites if s != self.site_name)
        timeout = self.protocol_timeout
        machine: Any
        if protocol is ProtocolKind.NON_BLOCKING:
            n_sites = len(subs) + 1
            if quorum_policy == "commit_weighted":
                quorum = QuorumSpec.commit_weighted(n_sites)
            elif quorum_policy == "majority":
                quorum = QuorumSpec.majority(n_sites)
            else:
                raise ValueError(f"unknown quorum policy {quorum_policy!r}")
            machine = NbCoordinator(
                tid, self.site_name, subs, quorum=quorum,
                use_multicast=self.use_multicast,
                vote_timeout_ms=timeout, repl_timeout_ms=timeout,
                notify_timeout_ms=timeout,
                # A takeover may have extracted our abort pledge while
                # the family sat idle here; the coordinator must then
                # refuse to drive a commit (see on_local_prepared).
                already_pledged=str(tid) in self.pledges)
        elif protocol is ProtocolKind.PAXOS_COMMIT:
            # Acceptors are the leader-first odd prefix of the site list
            # (N = 2F+1): two sites degenerate to F=0 (leader is the
            # sole acceptor, 2PC's exact cost profile), three sites give
            # F=1, and so on.
            all_sites = [self.site_name] + subs
            n_acceptors = (len(all_sites) if len(all_sites) % 2
                           else len(all_sites) - 1)
            machine = PcLeader(
                tid, self.site_name, subs,
                acceptors=all_sites[:n_acceptors],
                quorum=QuorumSpec.paxos(n_acceptors),
                vote_timeout_ms=timeout, notify_timeout_ms=timeout)
        else:
            machine = TwoPhaseCoordinator(
                tid, self.site_name, subs, variant=variant,
                use_multicast=self.use_multicast,
                vote_timeout_ms=timeout, ack_timeout_ms=timeout)
        self.machines[tid] = machine
        return machine

    def _spawn(self, machine: Any) -> List[Step]:
        self.machines[machine.tid] = machine
        return [(machine, machine.start)]

    def _start_takeover(self, tid: TID) -> List[Step]:
        if tid in self.takeovers:
            return []
        sub = self.machines.get(tid)
        takeover: Any
        if isinstance(sub, (PcParticipant, PcLeader)):
            # Paxos Commit termination: run the leader election.  The
            # leader itself lands here too, when votes never arrive and
            # unilateral abort would be unsafe (F >= 1).
            status = "paxos_election"
            takeover = PcCandidate(
                tid, self.site_name, sub.sites, sub.acceptors, sub.quorum,
                poll_timeout_ms=self.protocol_timeout / 2,
                notify_timeout_ms=self.protocol_timeout)
        elif isinstance(sub, NbSubordinate):
            status, data = sub.status_report()
            takeover = NbTakeover(
                tid, self.site_name, sub.sites, sub.quorum,
                own_status=status, own_decision_data=data,
                poll_timeout_ms=self.protocol_timeout / 2,
                notify_timeout_ms=self.protocol_timeout)
        else:
            return []
        self.takeovers[tid] = takeover
        self._trace("tranman.takeover", tid=str(tid), status=status)
        return [(takeover, takeover.start)]

    def adopt_recovery(self, tombstones: Mapping[str, Outcome],
                       pledges: Iterable[str],
                       machines: Sequence[Tuple[Any, Sequence[Effect]]]
                       ) -> None:
        """Adopt what crash recovery rebuilt from the durable log: the
        tombstones and pledges (on the same retire horizon as live
        state), then each machine with its resumption effects."""
        pledged = set(pledges)
        self.tombstones.update(tombstones)
        self.pledges.update(pledged)
        for tid_str in set(tombstones) | pledged:
            self.note_retirable(tid_str)
        for machine, _ in machines:
            if isinstance(machine, (NbTakeover, PcCandidate)):
                self.takeovers[machine.tid] = machine
            else:
                self.machines[machine.tid] = machine
        for machine, effects in machines:
            self._input(machine, "recovered", partial(list, effects))

    # ----------------------------------------------------------- routing

    def _route(self, pmsg: Any) -> List[Step]:
        """Where an inbound protocol message goes: its takeover, its
        machine, both (outcomes), or the stateless edge."""
        tid: TID = pmsg.tid
        takeover = self.takeovers.get(tid)
        if takeover is not None and (
                isinstance(pmsg, _TAKEOVER_ROUTED)
                # Election-ballot 2bs belong to the candidate; ballot-0
                # 2bs are the leader machine's prepare-round tally.
                or (isinstance(pmsg, PcPhase2b) and pmsg.ballot != 0)):
            return [_deliver(takeover, pmsg)]
        machine = self.machines.get(tid)
        if isinstance(pmsg, (NbOutcome, PcOutcome)):
            # Outcomes concern everyone at this site: participant
            # machine first, then takeover, or neither (tombstone ack).
            steps = [_deliver(m, pmsg) for m in (machine, takeover)
                     if m is not None]
            return steps or self._stateless(pmsg)
        if machine is not None:
            return [_deliver(machine, pmsg)]
        return self._stateless(pmsg)

    def _stateless(self, pmsg: Any) -> List[Step]:
        """Protocol edge for transactions with no live machine here.

        Replies go straight onto the wire: they neither flush the lazy
        queue nor count as protocol datagrams.
        """
        tid: TID = pmsg.tid
        tomb = self.tombstones.get(str(tid))
        if isinstance(pmsg, PrepareRequest):
            return self._stateless_prepare_2pc(pmsg, tomb)
        if isinstance(pmsg, NbPrepare):
            return self._stateless_prepare_nb(pmsg, tomb)
        if isinstance(pmsg, NbReplicate):
            return self._stateless_replicate(pmsg, tomb)
        if isinstance(pmsg, NbAbortJoin):
            return self._stateless_abort_join(pmsg, tomb)
        if isinstance(pmsg, PcPrepare):
            return self._stateless_prepare_pc(pmsg, tomb)
        if isinstance(pmsg, (PcVote, PcP1a, PcP2a)):
            return self._stateless_pc_acceptor(pmsg, tomb)
        if isinstance(pmsg, (NestedCommit, FamilyAbort)):
            return self._family_message(pmsg)
        me = self.site_name
        if isinstance(pmsg, CommitNotice):
            if tomb is Outcome.COMMITTED:
                self._send(pmsg.sender, CommitAck(tid=tid, sender=me))
        elif isinstance(pmsg, AbortNotice):
            pass  # nothing known, nothing to do (presumed abort)
        elif isinstance(pmsg, TxnInquiry):
            if tomb is None and self._running(tid):
                return []  # still running; the inquirer should not exist yet
            self._send(pmsg.sender, InquiryResponse(
                tid=tid, sender=me,
                outcome=tomb if tomb is not None else Outcome.ABORTED))
        elif isinstance(pmsg, NbStateRequest):
            if tomb is Outcome.COMMITTED:
                status = "committed"
            elif tomb is Outcome.ABORTED:
                status = "aborted"
            elif str(tid) in self.pledges:
                status = "abort_pledged"
            else:
                status = "no_state"
            self._send(pmsg.sender, NbStateReport(
                tid=tid, sender=me, status=status, round=pmsg.round))
        elif isinstance(pmsg, NbOutcome):
            self._check_tombstone(tid, tomb, (
                Outcome.COMMITTED if pmsg.outcome is Outcome.COMMITTED
                else Outcome.ABORTED))
            self._send(pmsg.sender, NbOutcomeAck(tid=tid, sender=me))
        elif isinstance(pmsg, PcOutcome):
            self._check_tombstone(tid, tomb, pmsg.outcome)
            self._send(pmsg.sender, PcOutcomeAck(tid=tid, sender=me))
        elif not isinstance(pmsg, _STALE_RESPONSES):
            raise ValueError(f"unhandled datagram payload {pmsg!r}")
        return []

    def _check_tombstone(self, tid: TID, tomb: Optional[Outcome],
                         outcome: Outcome) -> None:
        if tomb is not None and tomb is not outcome:
            raise AssertionError(
                f"{tid}: outcome {outcome} conflicts with tombstone "
                f"{tomb} at {self.site_name}")

    def _stateless_prepare_2pc(self, pmsg: PrepareRequest,
                               tomb: Optional[Outcome]) -> List[Step]:
        tid, me = pmsg.tid, self.site_name
        if tomb is Outcome.COMMITTED:
            # We finished and the coordinator retried: it wants the ack.
            self._send(pmsg.sender, CommitAck(tid=tid, sender=me))
        elif str(tid) in self.read_only_votes:
            self._send(pmsg.sender, VoteResponse(
                tid=tid, sender=me, vote=Vote.READ_ONLY))
        elif tomb is Outcome.ABORTED or not self._holds_family(tid):
            # Presumed abort: no family state means any pre-crash work is
            # gone; we must refuse, never claim read-only.  (The family,
            # not the top-level descriptor: a remote site often knows the
            # transaction only through nested children that ran here.)
            self._send(pmsg.sender, VoteResponse(
                tid=tid, sender=me, vote=Vote.NO))
        else:
            return self._spawn(TwoPhaseSubordinate(
                tid, me, pmsg.sender, variant=pmsg.variant,
                outcome_timeout_ms=self.protocol_timeout))
        return []

    def _stateless_prepare_nb(self, pmsg: NbPrepare,
                              tomb: Optional[Outcome]) -> List[Step]:
        tid, me = pmsg.tid, self.site_name
        pledged = str(tid) in self.pledges
        if tomb is Outcome.COMMITTED:
            self._send(pmsg.sender, NbOutcomeAck(tid=tid, sender=me))
        elif str(tid) in self.read_only_votes:
            self._send(pmsg.sender, NbVote(
                tid=tid, sender=me, vote=Vote.READ_ONLY))
        elif tomb is Outcome.ABORTED or (
                not self._holds_family(tid) and not pledged):
            self._send(pmsg.sender, NbVote(tid=tid, sender=me, vote=Vote.NO))
        else:
            return self._spawn(NbSubordinate(
                tid, me, pmsg.sender, list(pmsg.sites), pmsg.quorum,
                outcome_timeout_ms=self.protocol_timeout,
                already_pledged=pledged))
        return []

    def _stateless_replicate(self, pmsg: NbReplicate,
                             tomb: Optional[Outcome]) -> List[Step]:
        tid, me = pmsg.tid, self.site_name
        if str(tid) in self.pledges or tomb is Outcome.ABORTED:
            self._send(pmsg.sender, NbReplicateAck(tid=tid, sender=me,
                                                   ok=False))
            return []
        if tomb is Outcome.COMMITTED:
            self._send(pmsg.sender, NbReplicateAck(tid=tid, sender=me,
                                                   ok=True))
            return []
        # Quorum helper: a read-only (or forgotten) site drafted into the
        # commit quorum; the replicate message is self-contained.
        helper = NbSubordinate.helper(
            tid, me, pmsg, outcome_timeout_ms=self.protocol_timeout)
        self.machines[tid] = helper
        return [_deliver(helper, pmsg)]

    def _stateless_abort_join(self, pmsg: NbAbortJoin,
                              tomb: Optional[Outcome]) -> List[Step]:
        tid, me = pmsg.tid, self.site_name
        if tomb is Outcome.COMMITTED:
            self._send(pmsg.sender, NbAbortJoinAck(tid=tid, sender=me,
                                                   ok=False))
        elif str(tid) in self.pledges or tomb is Outcome.ABORTED:
            self._send(pmsg.sender, NbAbortJoinAck(tid=tid, sender=me,
                                                   ok=True))
        else:
            # Durable pledge: force it, then record and acknowledge it.
            force = [ForceLog(abort_pledge_record(str(tid), me),
                              _PledgeAck.TOKEN)]
            return [(_PledgeAck(self, pmsg), lambda: force)]
        return []

    def _pledged(self, request: NbAbortJoin) -> None:
        tid = str(request.tid)
        self.pledges.add(tid)
        self.note_retirable(tid)
        self._trace("nb.stateless_pledge", tid=tid)
        self._send(request.sender, NbAbortJoinAck(
            tid=request.tid, sender=self.site_name, ok=True))

    def _stateless_prepare_pc(self, pmsg: PcPrepare,
                              tomb: Optional[Outcome]) -> List[Step]:
        tid, me = pmsg.tid, self.site_name
        if tomb is Outcome.COMMITTED:
            # Already resolved here; the leader only wants the ack.
            self._send(pmsg.sender, PcOutcomeAck(tid=tid, sender=me))
        elif str(tid) in self.read_only_votes:
            # Re-vote read-only to the same targets the live machine
            # would use: every acceptor (the instance still needs an
            # acceptor quorum) plus the leader.
            targets = [a for a in pmsg.acceptors if a != me]
            if pmsg.sender not in targets:
                targets.append(pmsg.sender)
            for dst in targets:
                self._send(dst, PcVote(
                    tid=tid, sender=me, vote=Vote.READ_ONLY,
                    leader=pmsg.sender, sites=pmsg.sites,
                    acceptors=pmsg.acceptors))
        elif tomb is Outcome.ABORTED:
            # Already decided abort here: tell the leader outright.
            self._send(pmsg.sender, PcOutcome(tid=tid, sender=me,
                                              outcome=Outcome.ABORTED))
        elif self._holds_family(tid):
            return self._spawn(PcParticipant(
                tid, me, pmsg.sender, list(pmsg.sites), list(pmsg.acceptors),
                QuorumSpec.paxos(len(pmsg.acceptors)),
                protocol_timeout_ms=self.protocol_timeout))
        # Otherwise no state: we may have voted READ_ONLY (volatile)
        # before a crash, and an RM must never propose two different
        # ballot-0 values — a NO here could diverge from an instance
        # that already chose read-only.  Stay silent; the leader's
        # timeout (F=0) or an election (F>=1) resolves the un-proposed
        # instance to abort safely.
        return []

    def _stateless_pc_acceptor(self, pmsg: Any,
                               tomb: Optional[Outcome]) -> List[Step]:
        """A Paxos message reached an acceptor site with no machine: a
        crash-restarted (or long-forgotten read-only) acceptor.  Rebuild
        an acceptor-only participant from the message's configuration —
        every Pc message carries it — and deliver."""
        tid, me = pmsg.tid, self.site_name
        if tomb is not None:
            # The outcome is known here: short-circuit the election.
            self._send(pmsg.sender, PcOutcome(tid=tid, sender=me,
                                              outcome=tomb))
            return []
        if me not in pmsg.acceptors:
            return []  # stale / misrouted: we owe no acceptor duties
        leader = pmsg.leader or pmsg.sender
        if self._holds_family(tid):
            # Family state means this site never crashed — the acceptor
            # traffic merely overtook the leader's PcPrepare (votes come
            # from third-party RMs, so no FIFO orders them).  Spawn the
            # full participant (it prepares and votes like the PcPrepare
            # path would) and let it answer the early acceptor duty.
            sub = PcParticipant(tid, me, leader, list(pmsg.sites),
                                list(pmsg.acceptors),
                                QuorumSpec.paxos(len(pmsg.acceptors)),
                                protocol_timeout_ms=self.protocol_timeout)
            return self._spawn(sub) + [_deliver(sub, pmsg)]
        sub = PcParticipant.recovered(
            tid, me, leader=leader, sites=list(pmsg.sites),
            acceptors=list(pmsg.acceptors), prepared=False,
            protocol_timeout_ms=self.protocol_timeout)
        self.machines[tid] = sub
        self._trace("pc.acceptor_rebuilt", tid=str(tid),
                    kind_of=type(pmsg).__name__)
        return [_deliver(sub, pmsg)]

    # ----------------------------------------------------------- effects

    def _perform(self, machine: Any, effect: Effect) -> None:
        """Apply one effect that never waits.  Executors handle
        ``ForceLog``, ``LocalPrepare`` and ``StartTakeover`` themselves."""
        if isinstance(effect, SendDatagram):
            self._flush_lazy(effect.dst)  # piggyback opportunity
            self._count("tranman.datagram", dst=effect.dst,
                        kind_of=type(effect.message).__name__)
            self._send(effect.dst, effect.message)
        elif isinstance(effect, MulticastDatagram):
            self._count("tranman.multicast", fanout=len(effect.dsts),
                        kind_of=type(effect.message).__name__)
            self._multicast(list(effect.dsts), effect.message)
        elif isinstance(effect, LazySendDatagram):
            self._queue_lazy(effect.dst, effect.message)
        elif isinstance(effect, WriteLog):
            lsn = self._append(effect.record)
            self._note_membership(machine, effect.record)
            if effect.token is not None:
                token = effect.token
                self._watch_durable(lsn, lambda: self._input(
                    machine, "cont.on_log_durable",
                    lambda: machine.on_log_durable(token)))
        elif isinstance(effect, LocalCommit):
            self._local_commit(effect.tid)
        elif isinstance(effect, LocalAbort):
            self._local_abort(effect.tid)
        elif isinstance(effect, Complete):
            self._complete(effect)
        elif isinstance(effect, Forget):
            self._forget(machine, effect.tid)
        elif isinstance(effect, StartTimer):
            self._start_timer(machine, effect)
        elif isinstance(effect, CancelTimer):
            handle = self._timers.pop((machine, effect.token), None)
            if handle is not None:
                self._cancel(handle)
        elif isinstance(effect, Trace):
            self._trace(effect.kind, **{k: v for k, v in effect.detail.items()
                                        if k != "site"})
        else:
            raise ValueError(f"unknown effect {effect!r}")

    def _queue_lazy(self, dst: str, message: Any) -> None:
        if dst == self.site_name:
            self._send(dst, message)
            return
        self._lazy.setdefault(dst, []).append(message)

    def _flush_lazy(self, dst: str) -> None:
        queued = self._lazy.pop(dst, None)
        if not queued:
            return
        for message in queued:
            self._count("tranman.piggyback", dst=dst)
            self._send(dst, message)

    def _note_membership(self, machine: Any, record: LogRecord) -> None:
        """Track quorum membership facts as their records are written."""
        if isinstance(machine, _PledgeAck):
            return  # a stateless pledge is noted once it is durable
        if record.kind is RecordKind.ABORT_PLEDGE:
            self.pledges.add(record.tid)
            self.note_retirable(record.tid)
            sub = self.machines.get(TID.parse(record.tid))
            if isinstance(sub, NbSubordinate):
                # A takeover's self-pledge must also bind the co-resident
                # participant machine, or it could later accept a
                # replicate and put this site in both quorums.
                self._soon(sub.note_local_pledge)
        elif record.kind is RecordKind.REPLICATION:
            sub = self.machines.get(TID.parse(record.tid))
            if isinstance(sub, NbSubordinate):
                # Keep a concurrently-running participant machine's view
                # of our membership coherent with the takeover's action.
                self._soon(sub.note_local_replication)

    def _prepared(self, tid: TID, vote: Vote) -> None:
        """Note this site's local vote before the machine hears it."""
        if vote is Vote.READ_ONLY:
            self.read_only_votes.add(str(tid))
            self.note_retirable(str(tid))
        self._trace("tranman.local_prepared", tid=str(tid), vote=vote.value)

    # ------------------------------------------------------- completions

    def note_retirable(self, tid_str: str) -> None:
        """Schedule completed-transaction bookkeeping for expiry.

        Called whenever a tombstone, abort pledge, or read-only vote is
        recorded; prunes entries past the retention horizon as it goes
        (amortized O(1) per completion), so these maps stay bounded by
        the retention window's transaction count, not the run's.
        """
        self._retire_log.append((self._now(), tid_str))
        self._expire()

    def _expire(self) -> None:
        horizon = self._now() - self.tombstone_retention_ms
        while self._retire_log and self._retire_log[0][0] < horizon:
            __, old = self._retire_log.popleft()
            self.tombstones.pop(old, None)
            self.completions.pop(old, None)
            self.pledges.discard(old)
            self.read_only_votes.discard(old)

    def _complete(self, effect: Complete) -> None:
        tid = effect.tid
        self.tombstones[str(tid)] = effect.outcome
        self.completions[str(tid)] = effect.outcome
        self.note_retirable(str(tid))
        self._trace("tranman.complete", tid=str(tid),
                    outcome=effect.outcome.value)
        self._completed(tid, effect.outcome)

    def _forget(self, machine: Any, tid: TID) -> None:
        outcome = getattr(machine, "outcome", None)
        if outcome is not None:
            self.tombstones[str(tid)] = outcome
            self.note_retirable(str(tid))
        if self.machines.get(tid) is machine:
            del self.machines[tid]
        if self.takeovers.get(tid) is machine:
            del self.takeovers[tid]
        for key in [k for k in self._timers if k[0] is machine]:
            self._cancel(self._timers.pop(key))
        self._release_family(tid)

    # ------------------------------------------------------------ timers

    def _start_timer(self, machine: Any, effect: StartTimer) -> None:
        key = (machine, effect.token)
        existing = self._timers.pop(key, None)
        if existing is not None:
            self._cancel(existing)
        token = effect.token
        self._timers[key] = self._schedule(
            effect.delay_ms, lambda: self._fire_timer(machine, token))

    def _fire_timer(self, machine: Any, token: str) -> None:
        self._timers.pop((machine, token), None)
        self._input(machine, f"timer.{token}",
                    lambda: machine.on_timer(token)
                    if self._machine_live(machine) else [])

    def _machine_live(self, machine: Any) -> bool:
        tid = getattr(machine, "tid", None)
        if tid is None:
            return False
        return (self.machines.get(tid) is machine
                or self.takeovers.get(tid) is machine)


class _PledgeAck:
    """One-shot pseudo-machine: once the stateless abort pledge is
    durable, record it and acknowledge the abort-join."""

    TOKEN = "stateless.pledge_force"

    def __init__(self, host: ProtocolHost, request: NbAbortJoin) -> None:
        self.tid = request.tid
        self._host = host
        self._request = request

    def on_log_forced(self, token: str) -> List[Effect]:
        self._host._pledged(self._request)
        return []
