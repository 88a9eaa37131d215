"""The site host the simulated and live harnesses share.

:class:`SiteHost` is the second executor of :class:`repro.core.host.ProtocolHost`:
every protocol decision — routing, the stateless edge, takeovers,
tombstones, completion bookkeeping — is the TranMan's own, and this
class keeps only how it waits.  Substrate IO goes through a small
:class:`Substrate` interface (send a datagram, complete a WAL force,
arm a timer) over one :class:`~repro.log.wal.LogTail`.  The simulator
harness (:mod:`repro.live.simhost`) plugs the deterministic kernel +
token-ring LAN and an in-memory store into it; the live harness
(:mod:`repro.live.site`) plugs asyncio TCP + an fsync-backed WAL file.

Execution discipline (what makes transcripts comparable): each site
processes one input at a time.  An input (message, timer, durability
notice, local vote) runs its machine to quiescence — including inline
waits for log forces — before the next queued input is dispatched.
Within one effect batch, a ForceLog's continuation effects run before
the batch's remaining effects (depth-first), like the TranMan's
generator ``_execute``.

Scope vs the full simulator: there are no data servers behind a site
host, so ``LocalPrepare`` resolves to a scripted vote (YES unless
configured) that re-enters as a fresh input after ``prepare_delay_ms``
instead of blocking its batch; and ``--hold`` windows let a driver park
a force's continuation to kill the process in that exact state.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.config import CostModel
from repro.core.effects import (
    Effect,
    ForceLog,
    LocalPrepare,
    StartTakeover,
)
from repro.core.host import ProtocolHost, Step
from repro.core.messages import FamilyAbort, FamilyAbortAck
from repro.core.outcomes import Outcome, ProtocolKind, TwoPhaseVariant, Vote
from repro.core.tid import TID, TidGenerator
from repro.log.records import LogRecord
from repro.log.wal import LogTail

# Mirrors tranman.PIGGYBACK_SWEEP_MS: the cadence at which lazily queued
# (piggybacked) datagrams and the lazy WAL tail get flushed.
SWEEP_MS = 50.0

_PROTOCOLS = {"2pc": ProtocolKind.TWO_PHASE,
              "nb": ProtocolKind.NON_BLOCKING,
              "paxos": ProtocolKind.PAXOS_COMMIT}


class Substrate:
    """What a harness must provide; see module docstring.

    ``wal`` is the site's :class:`~repro.log.wal.LogTail`: appends,
    durability watches and the lazy-tail force go straight to it, so a
    substrate decides only *when* a force completes.  Timer handles are
    opaque; ``start_timer``/``schedule`` delays are in protocol
    milliseconds (virtual for the simulator, real for live).
    """

    wal: LogTail

    def send(self, dst: str, message: Any) -> None:
        raise NotImplementedError

    def append(self, record: LogRecord) -> int:
        self.wal.append(record)
        return self.wal.last_lsn

    def force(self, lsn: int, done: Callable[[], None]) -> None:
        """Make ``lsn`` durable, then :meth:`complete_force` with the
        watches it satisfied and ``done``."""
        raise NotImplementedError

    @staticmethod
    def complete_force(ready: List[Callable[[], None]],
                       done: Callable[[], None]) -> None:
        for fn in ready:
            fn()
        done()

    def force_tail(self) -> None:
        if self.wal.last_lsn > self.wal.durable_lsn:
            self.force(self.wal.last_lsn, lambda: None)

    def watch_durable(self, lsn: int, fn: Callable[[], None]) -> None:
        self.wal.watch_durable(lsn, fn)

    def start_timer(self, delay_ms: float, fn: Callable[[], None]) -> Any:
        raise NotImplementedError

    def cancel_timer(self, handle: Any) -> None:
        raise NotImplementedError

    def now(self) -> float:
        """Protocol milliseconds since an arbitrary origin."""
        raise NotImplementedError

    def trace(self, kind: str, detail: Dict[str, Any]) -> None:
        raise NotImplementedError

    def holds_family(self, tid: TID) -> bool:
        """Does this site hold the family state of ``tid``?

        No application layer begins transactions here, so a fresh site
        holds the work of any transaction it is asked to prepare; a site
        that recovered from a non-empty WAL lost it in the crash.
        """
        return True


def _effects_of(step: Callable[[], Sequence[Effect]]) -> Iterator[Effect]:
    yield from step() or ()


class SiteHost(ProtocolHost):
    """One site's protocol host, one input at a time over a substrate."""

    def __init__(self, site: str, substrate: Substrate, cost: CostModel,
                 votes: Optional[Dict[str, Vote]] = None,
                 hold_force_tokens: Sequence[str] = (),
                 prepare_delay_ms: float = 0.0):
        super().__init__(site, cost.protocol_timeout,
                         cost.orphan_timeout + cost.protocol_timeout)
        self.substrate = substrate
        self.scripted_votes = dict(votes or {})
        self.hold_force_tokens = set(hold_force_tokens)
        self.prepare_delay_ms = prepare_delay_ms

        self.tid_gen = TidGenerator(site)
        self.held: List[str] = []
        self.on_complete: Optional[Callable[[TID, Outcome], None]] = None

        # Input queue + effect-frame stack (see module docstring).
        self._inbox: Deque[Callable[[], List[Step]]] = deque()
        self._frames: List[Tuple[Any, Iterator[Effect]]] = []
        self._waiting = False
        self._active = False
        self._sweep_handle: Any = None

    # ------------------------------------------------ substrate primitives

    def _now(self) -> float:
        return self.substrate.now()

    def _send(self, dst: str, message: Any) -> None:
        self.substrate.send(dst, message)

    def _trace(self, kind: str, **detail: Any) -> None:
        self.substrate.trace(kind, detail)

    def _append(self, record: LogRecord) -> int:
        return self.substrate.append(record)

    def _watch_durable(self, lsn: int, fn: Callable[[], None]) -> None:
        self.substrate.watch_durable(lsn, fn)

    def _schedule(self, delay_ms: float, fn: Callable[[], None]) -> Any:
        return self.substrate.start_timer(delay_ms, fn)

    def _cancel(self, handle: Any) -> None:
        self.substrate.cancel_timer(handle)

    def _soon(self, fn: Callable[[], None]) -> None:
        fn()

    def _input(self, machine: Any, name: str,
               step: Callable[[], Sequence[Effect]]) -> None:
        self._inbox.append(lambda: [(machine, step)])
        self._pump()

    def _holds_family(self, tid: TID) -> bool:
        return self.substrate.holds_family(tid)

    def _running(self, tid: TID) -> bool:
        return False  # transactions are born committing (begin_commit)

    def _family_message(self, pmsg: Any) -> List[Step]:
        # Nested transactions and the family abort protocol need the
        # application/server layer a site host does not carry.
        if isinstance(pmsg, FamilyAbort):
            self._send(pmsg.sender, FamilyAbortAck(tid=pmsg.tid,
                                                   sender=self.site_name))
        return []

    def _completed(self, tid: TID, outcome: Outcome) -> None:
        if self.on_complete is not None:
            self.on_complete(tid, outcome)

    # ------------------------------------------------------- lifecycle

    def start_sweeps(self) -> None:
        """Arm the periodic piggyback/WAL-tail flush and bookkeeping
        expiry (re-arms itself)."""
        self._sweep_handle = self.substrate.start_timer(SWEEP_MS, self._sweep)

    def stop_sweeps(self) -> None:
        if self._sweep_handle is not None:
            self.substrate.cancel_timer(self._sweep_handle)
            self._sweep_handle = None

    def _sweep(self) -> None:
        self.substrate.force_tail()
        for dst in list(self._lazy):
            self._flush_lazy(dst)
        self._expire()
        self._sweep_handle = self.substrate.start_timer(SWEEP_MS, self._sweep)

    @property
    def idle(self) -> bool:
        return (not self.machines and not self.takeovers and not self._lazy
                and not self._frames and not self._inbox
                and not self._waiting)

    # ----------------------------------------------------- driver API

    def begin_commit(self, protocol: str, subordinates: Sequence[str],
                     tid: Optional[TID] = None,
                     variant: TwoPhaseVariant = TwoPhaseVariant.OPTIMIZED
                     ) -> TID:
        """Start commitment as coordinator; returns the transaction id.
        ``protocol`` is ``2pc``/``nb``/``paxos`` or a ProtocolKind value."""
        if tid is None:
            tid = self.tid_gen.new_top_level()
        kind = _PROTOCOLS.get(protocol) or ProtocolKind(protocol)
        machine = self._coordinate(tid, kind, subordinates, variant)
        self._input(machine, "commit", machine.start)
        return tid

    def deliver(self, src: str, message: Any) -> None:
        """One datagram from the substrate."""
        self._inbox.append(lambda: self._route(message))
        self._pump()

    # --------------------------------------------------------- engine

    def _pump(self) -> None:
        if self._active or self._waiting:
            return
        self._active = True
        try:
            while True:
                if self._frames:
                    machine, frame = self._frames[-1]
                    effect = next(frame, None)
                    if effect is None:
                        self._frames.pop()
                        continue
                    self._apply(machine, effect)
                    if self._waiting:
                        return
                    continue
                if self._inbox:
                    self._run(self._inbox.popleft()())
                    continue
                return
        finally:
            self._active = False

    def _run(self, steps: List[Step]) -> None:
        """Stack ``steps`` so the first runs next, each thunk called
        only once the step before it has drained."""
        for machine, step in reversed(steps):
            self._frames.append((machine, _effects_of(step)))

    def _apply(self, machine: Any, effect: Effect) -> None:
        if isinstance(effect, ForceLog):
            lsn = self.substrate.append(effect.record)
            self._note_membership(machine, effect.record)
            self._waiting = True
            self.substrate.force(
                lsn, lambda: self._force_done(machine, effect.token))
        elif isinstance(effect, LocalPrepare):
            tid = effect.tid
            self.substrate.start_timer(
                self.prepare_delay_ms,
                lambda: self._local_prepared(machine, tid))
        elif isinstance(effect, StartTakeover):
            self._run(self._start_takeover(effect.tid))
        else:
            self._perform(machine, effect)

    def _force_done(self, machine: Any, token: str) -> None:
        self._waiting = False
        if token in self.hold_force_tokens:
            # Deterministic kill window: the record is durable but the
            # machine never re-enters — exactly the state a crash
            # between fsync and continuation would leave behind.
            self.held.append(token)
            self.substrate.trace("live.force_held", {"token": token})
        else:
            self._run([(machine, lambda: machine.on_log_forced(token))])
        self._pump()

    def _local_prepared(self, machine: Any, tid: TID) -> None:
        vote = self.scripted_votes.get(self.site_name, Vote.YES)
        self._prepared(tid, vote)
        self._input(machine, "prepared",
                    lambda: machine.on_local_prepared(vote))
