"""The shared protocol host (``repro.core.host``) through its site-host
executor: the stateless protocol edge as a table, outcome routing order,
retries after a lost ack, and the retire log's bound on bookkeeping."""

from dataclasses import replace
from itertools import product

import pytest

from repro.core.effects import Trace
from repro.core.messages import (
    AbortNotice,
    CommitAck,
    CommitNotice,
    NbAbortJoin,
    NbOutcome,
    NbPrepare,
    NbReplicate,
    NbStateRequest,
    PcOutcome,
    PcP1a,
    PcP2a,
    PcPrepare,
    PcVote,
    PrepareRequest,
    TxnInquiry,
    VoteResponse,
)
from repro.core.outcomes import Outcome, Vote
from repro.core.quorum import QuorumSpec
from repro.core.tid import TID
from repro.live.host import SiteHost, Substrate
from repro.live.scenario import conformance_cost
from repro.live.simhost import build_sim_cluster

TID1 = TID("T1@a")
SITES = ("a", "b", "c")
C, A = Outcome.COMMITTED, Outcome.ABORTED


class FakeSubstrate(Substrate):
    """Records sends and appends; forces complete at once; timers never
    fire; ``held`` answers the family-state question."""

    def __init__(self, held=True):
        self.held = held
        self.sent = []
        self.appended = []
        self.traces = []
        self.clock = 0.0

    def send(self, dst, message):
        self.sent.append((dst, message))

    def append(self, record):
        self.appended.append(record)
        return len(self.appended)

    def force(self, lsn, done):
        done()

    def force_tail(self):
        pass

    def watch_durable(self, lsn, fn):
        pass

    def start_timer(self, delay_ms, fn):
        return fn

    def cancel_timer(self, handle):
        pass

    def now(self):
        return self.clock

    def trace(self, kind, detail):
        self.traces.append((kind, detail))

    def holds_family(self, tid):
        return self.held


def _pc(cls, **kw):
    return cls(tid=TID1, sender="a", leader="a", sites=SITES,
               acceptors=SITES, **kw)


MESSAGES = {
    "PrepareRequest": PrepareRequest(tid=TID1, sender="a"),
    "NbPrepare": NbPrepare(tid=TID1, sender="a", sites=SITES,
                           quorum=QuorumSpec.majority(3)),
    "NbReplicate": NbReplicate(tid=TID1, sender="a", decision_data={
        "coordinator": "a", "sites": list(SITES),
        "quorum": QuorumSpec.majority(3).to_dict()}),
    "NbAbortJoin": NbAbortJoin(tid=TID1, sender="c"),
    "NbStateRequest": NbStateRequest(tid=TID1, sender="c", round=2),
    "CommitNotice": CommitNotice(tid=TID1, sender="a"),
    "AbortNotice": AbortNotice(tid=TID1, sender="a"),
    "TxnInquiry": TxnInquiry(tid=TID1, sender="c"),
    "NbOutcome": NbOutcome(tid=TID1, sender="a", outcome=C),
    "PcPrepare": PcPrepare(tid=TID1, sender="a", sites=SITES,
                           acceptors=SITES),
    "PcVote": _pc(PcVote),
    "PcP1a": _pc(PcP1a, ballot=4),
    "PcP2a": _pc(PcP2a, ballot=4, values=(("a", "yes"),)),
    "PcOutcome": PcOutcome(tid=TID1, sender="a", outcome=C),
    "VoteResponse": VoteResponse(tid=TID1, sender="c", vote=Vote.YES),
}

ANY = object()  # matches every value of a column
TOMBS = (None, C, A)
HELD = (True, False)
PLEDGED = (False, True)

# (message, tombstone, family held, pledged) -> what the edge does:
# "Type(field)" replies sent, "spawn:Class" a machine started, "force:"
# a record forced first, "conflict" an outcome that contradicts the
# tombstone, "-" silence.  ``ANY`` matches every value of a column; the
# first matching row wins.
TABLE = [
    ("PrepareRequest", C, ANY, ANY, "CommitAck"),
    ("PrepareRequest", A, ANY, ANY, "VoteResponse(no)"),
    ("PrepareRequest", None, True, ANY, "spawn:TwoPhaseSubordinate"),
    ("PrepareRequest", None, False, ANY, "VoteResponse(no)"),
    ("NbPrepare", C, ANY, ANY, "NbOutcomeAck"),
    ("NbPrepare", A, ANY, ANY, "NbVote(no)"),
    ("NbPrepare", None, False, False, "NbVote(no)"),
    ("NbPrepare", None, ANY, ANY, "spawn:NbSubordinate"),
    ("NbReplicate", ANY, ANY, True, "NbReplicateAck(False)"),
    ("NbReplicate", A, ANY, ANY, "NbReplicateAck(False)"),
    ("NbReplicate", C, ANY, ANY, "NbReplicateAck(True)"),
    ("NbReplicate", None, ANY, ANY, "spawn:NbSubordinate"),
    ("NbAbortJoin", C, ANY, ANY, "NbAbortJoinAck(False)"),
    ("NbAbortJoin", ANY, ANY, True, "NbAbortJoinAck(True)"),
    ("NbAbortJoin", A, ANY, ANY, "NbAbortJoinAck(True)"),
    ("NbAbortJoin", None, ANY, ANY, "force:abort_pledge NbAbortJoinAck(True)"),
    ("NbStateRequest", C, ANY, ANY, "NbStateReport(committed)"),
    ("NbStateRequest", A, ANY, ANY, "NbStateReport(aborted)"),
    ("NbStateRequest", None, ANY, True, "NbStateReport(abort_pledged)"),
    ("NbStateRequest", None, ANY, False, "NbStateReport(no_state)"),
    ("CommitNotice", C, ANY, ANY, "CommitAck"),
    ("CommitNotice", ANY, ANY, ANY, "-"),
    ("AbortNotice", ANY, ANY, ANY, "-"),
    ("TxnInquiry", C, ANY, ANY, "InquiryResponse(committed)"),
    ("TxnInquiry", ANY, ANY, ANY, "InquiryResponse(aborted)"),
    ("NbOutcome", A, ANY, ANY, "conflict"),
    ("NbOutcome", ANY, ANY, ANY, "NbOutcomeAck"),
    ("PcOutcome", A, ANY, ANY, "conflict"),
    ("PcOutcome", ANY, ANY, ANY, "PcOutcomeAck"),
    ("PcPrepare", C, ANY, ANY, "PcOutcomeAck"),
    ("PcPrepare", A, ANY, ANY, "PcOutcome(aborted)"),
    ("PcPrepare", None, True, ANY, "spawn:PcParticipant"),
    ("PcPrepare", None, False, ANY, "-"),
    ("VoteResponse", ANY, ANY, ANY, "-"),
]
for _kind in ("PcVote", "PcP1a", "PcP2a"):
    TABLE += [
        (_kind, C, ANY, ANY, "PcOutcome(committed)"),
        (_kind, A, ANY, ANY, "PcOutcome(aborted)"),
        (_kind, None, True, ANY, "spawn:PcParticipant"),
        (_kind, None, False, ANY, "spawn:PcParticipant(rebuilt)"),
    ]


def _expected(kind, tomb, held, pledged):
    for row in TABLE:
        if row[0] == kind and all(
                want is ANY or want == got
                for want, got in zip(row[1:4], (tomb, held, pledged))):
            return row[4]
    raise AssertionError(f"no table row for {kind} {tomb} {held} {pledged}")


def _describe(message):
    for field in ("vote", "ok", "status", "outcome"):
        if hasattr(message, field):
            value = getattr(message, field)
            return f"{type(message).__name__}({getattr(value, 'value', value)})"
    return type(message).__name__


def _edge(kind, tomb, held, pledged):
    """Deliver one message to a host with no machine for it at site b."""
    sub = FakeSubstrate(held=held)
    host = SiteHost("b", sub, conformance_cost())
    if tomb is not None:
        host.tombstones[str(TID1)] = tomb
    if pledged:
        host.pledges.add(str(TID1))
    try:
        host.deliver("a", MESSAGES[kind])
    except AssertionError:
        return "conflict"
    machine = host.machines.get(TID1)
    if machine is not None:
        rebuilt = any(k == "pc.acceptor_rebuilt" for k, _d in sub.traces)
        return (f"spawn:{type(machine).__name__}"
                + ("(rebuilt)" if rebuilt else ""))
    out = " ".join(_describe(m) for _dst, m in sub.sent) or "-"
    if sub.appended:
        out = " ".join(f"force:{r.kind.value}" for r in sub.appended) \
            + " " + out
    return out


@pytest.mark.parametrize("kind,tomb,held,pledged", [
    (kind, tomb, held, pledged)
    for kind, tomb, held, pledged in product(MESSAGES, TOMBS, HELD, PLEDGED)])
def test_stateless_edge_table(kind, tomb, held, pledged):
    assert _edge(kind, tomb, held, pledged) == \
        _expected(kind, tomb, held, pledged)


def test_stateless_pledge_is_recorded_once_durable():
    sub = FakeSubstrate()
    host = SiteHost("b", sub, conformance_cost())
    forced = []
    sub.force = lambda lsn, done: forced.append(done)
    host.deliver("c", MESSAGES["NbAbortJoin"])
    assert [r.kind.value for r in sub.appended] == ["abort_pledge"]
    assert str(TID1) not in host.pledges and sub.sent == []
    forced.pop()()
    assert str(TID1) in host.pledges
    assert [type(m).__name__ for _d, m in sub.sent] == ["NbAbortJoinAck"]


class _Recorder:
    def __init__(self, name, log):
        self.tid = TID1
        self.outcome = None
        self._name = name
        self._log = log

    def on_message(self, pmsg):
        self._log.append(("called", self._name))
        return [Trace("order", {"who": self._name})]


def test_outcome_reaches_machine_before_takeover():
    sub = FakeSubstrate()
    host = SiteHost("b", sub, conformance_cost())
    log = []
    host.machines[TID1] = _Recorder("machine", log)
    host.takeovers[TID1] = _Recorder("takeover", log)
    host.deliver("a", MESSAGES["NbOutcome"])
    # Each step's effects run before the next step's machine is called.
    assert [d["who"] for k, d in sub.traces if k == "order"] == \
        ["machine", "takeover"]
    assert log == [("called", "machine"), ("called", "takeover")]


def test_lost_commit_ack_still_resolves_and_forgets():
    """One dropped CommitAck: the coordinator's CommitNotice retries must
    reach the forgotten subordinate, whose tombstone answers them."""
    kernel, hosts, _transcript = build_sim_cluster(
        ["alpha", "beta"], conformance_cost())
    beta = hosts["beta"].substrate
    real_send = beta.send
    dropped = []

    def lossy_send(dst, message):
        if isinstance(message, CommitAck) and not dropped:
            dropped.append(message)
            return
        real_send(dst, message)

    beta.send = lossy_send
    for host in hosts.values():
        host.start_sweeps()
    tid = hosts["alpha"].begin_commit("2pc", ["beta"])
    kernel.run(until=10_000.0)
    assert dropped
    assert hosts["alpha"].completions[str(tid)] is C
    assert hosts["beta"].tombstones[str(tid)] is C
    assert tid not in hosts["alpha"].machines
    assert hosts["alpha"].idle and hosts["beta"].idle


def test_bookkeeping_expires_on_the_retire_horizon():
    cost = replace(conformance_cost(), orphan_timeout=100.0)
    kernel, hosts, _transcript = build_sim_cluster(
        ["alpha", "beta", "gamma"], cost, votes={"gamma": Vote.READ_ONLY})
    for host in hosts.values():
        host.start_sweeps()
    hosts["beta"].adopt_recovery({"T9@x": A}, ["T9@x"], [])
    hosts["alpha"].begin_commit("2pc", ["beta", "gamma"])
    kernel.run(until=1_000.0)
    assert hosts["alpha"].tombstones and hosts["alpha"].completions
    assert hosts["gamma"].read_only_votes and hosts["beta"].pledges
    horizon = cost.orphan_timeout + cost.protocol_timeout
    kernel.run(until=1_000.0 + horizon + 200.0)
    for host in hosts.values():
        assert host.idle
        for name in ("tombstones", "completions", "pledges",
                     "read_only_votes"):
            assert not getattr(host, name), (host.site_name, name)
