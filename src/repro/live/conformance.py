"""Conformance: the simulator and the live wire must tell one story.

:func:`run_conformance` executes the same scripted scenario (one commit
per protocol family, see :func:`repro.live.scenario.conformance_scenario`)
twice —

1. on the **simulated** substrate: discrete-event kernel, jitter-free
   LAN model, modelled force latency;
2. on the **live** substrate: several :class:`~repro.live.site.LiveSite`
   instances on one event loop, talking real loopback TCP through the
   frame codec, forcing a real fsync-backed WAL file each —

and asserts the two canonicalized transcripts (per site-pair FIFO
message sequences) are **byte-identical**.  Because both harnesses share
the :class:`~repro.live.host.SiteHost` effect interpreter, a mismatch
can only mean the live substrate delivered, ordered, or serialised
something differently than the model — exactly the class of bug this
harness exists to catch.  DESIGN.md §11 discusses what this does and
does not prove.
"""

from __future__ import annotations

import asyncio
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.outcomes import Outcome
from repro.live.scenario import (
    Scenario,
    Transcript,
    conformance_scenario,
    merge_pair_sequences,
    run_scenario_steps,
)
from repro.live.simhost import run_sim_scenario
from repro.live.site import LiveSite

# Grace periods for the live run: how long past the last step we keep
# polling for quiescence, and how long a site must *stay* quiescent
# (catches frames still in flight between two idle-looking sites).
SETTLE_DEADLINE_EXTRA_S = 20.0
SETTLE_GRACE_S = 0.4
SETTLE_POLL_S = 0.05


@dataclass
class ConformanceReport:
    match: bool
    sim_bytes: bytes
    live_bytes: bytes
    sim_pairs: Dict[str, List[Dict[str, Any]]]
    live_pairs: Dict[str, List[Dict[str, Any]]]
    live_completions: Dict[str, Dict[str, str]]  # site -> tid -> outcome
    mismatches: List[str] = field(default_factory=list)

    def summary(self) -> str:
        if self.match:
            pairs = len(self.sim_pairs)
            msgs = sum(len(v) for v in self.sim_pairs.values())
            return (f"conformance OK: {msgs} messages over {pairs} "
                    f"site-pairs, transcripts byte-identical "
                    f"({len(self.sim_bytes)} bytes)")
        return "conformance FAILED:\n  " + "\n  ".join(self.mismatches)


def _diff_pairs(sim: Dict[str, List[Dict[str, Any]]],
                live: Dict[str, List[Dict[str, Any]]]) -> List[str]:
    out: List[str] = []
    for pair in sorted(set(sim) | set(live)):
        a, b = sim.get(pair, []), live.get(pair, [])
        if a == b:
            continue
        if len(a) != len(b):
            out.append(f"{pair}: sim sent {len(a)} messages, live {len(b)}")
        for i, (ma, mb) in enumerate(zip(a, b)):
            if ma != mb:
                out.append(f"{pair}[{i}]: sim {ma.get('type')}({ma}) != "
                           f"live {mb.get('type')}({mb})")
                break
    return out


async def run_live_scenario(scenario: Scenario,
                            run_dir: str) -> ConformanceReport:
    """The live half: returns a report with ``sim_*`` fields empty."""
    os.makedirs(run_dir, exist_ok=True)
    sites: Dict[str, LiveSite] = {}
    for name in scenario.sites:
        sites[name] = LiveSite(
            name, run_dir, cost=scenario.cost,
            wire_ms=scenario.live_wire_ms,
            force_floor_ms=scenario.live_force_floor_ms,
            prepare_ms=scenario.live_prepare_ms,
            votes=dict(scenario.votes))
    for site in sites.values():
        await site.start()
    loop = asyncio.get_running_loop()
    start = loop.time()
    run_scenario_steps(
        scenario, {n: s.host for n, s in sites.items()},
        at=lambda ms, fn: loop.call_later(ms / 1000.0, fn))
    last_step_at = max((s.at_ms for s in scenario.steps), default=0.0)
    deadline = start + (scenario.horizon_ms / 1000.0) + SETTLE_DEADLINE_EXTRA_S
    # Quiesce: all steps fired, then every site stays settled for a grace
    # period (in-flight loopback frames land within it).
    while loop.time() < deadline:
        if loop.time() - start < last_step_at / 1000.0 + SETTLE_POLL_S:
            await asyncio.sleep(SETTLE_POLL_S)
            continue
        if all(s.settled for s in sites.values()):
            await asyncio.sleep(SETTLE_GRACE_S)
            if all(s.settled for s in sites.values()):
                break
        await asyncio.sleep(SETTLE_POLL_S)
    live_pairs = merge_pair_sequences(
        [s.substrate.transcript.pair_sequences() for s in sites.values()])
    completions = {name: {t: o.value for t, o in s.host.completions.items()}
                   for name, s in sites.items()}
    for site in sites.values():
        await site.stop()
    merged = Transcript()
    merged.from_dicts(live_pairs)
    return ConformanceReport(
        match=False, sim_bytes=b"", live_bytes=merged.canonical_bytes(),
        sim_pairs={}, live_pairs=live_pairs, live_completions=completions)


def run_conformance(run_dir: str, scenario: Optional[Scenario] = None
                    ) -> ConformanceReport:
    """Run both substrates over ``scenario`` and compare transcripts."""
    if scenario is None:
        scenario = conformance_scenario()
    sim_transcript = run_sim_scenario(scenario)
    sim_pairs = sim_transcript.pair_sequences()
    sim_bytes = sim_transcript.canonical_bytes()
    live = asyncio.run(run_live_scenario(scenario, run_dir))
    report = ConformanceReport(
        match=sim_bytes == live.live_bytes,
        sim_bytes=sim_bytes, live_bytes=live.live_bytes,
        sim_pairs=sim_pairs, live_pairs=live.live_pairs,
        live_completions=live.live_completions)
    if not report.match:
        report.mismatches = _diff_pairs(sim_pairs, live.live_pairs)
        if not report.mismatches:
            report.mismatches = ["transcripts differ but per-pair diff "
                                 "found nothing (ordering of pairs?)"]
    _check_outcomes(report, scenario)
    return report


def _check_outcomes(report: ConformanceReport, scenario: Scenario) -> None:
    """All scripted transactions must commit everywhere they ran."""
    for step in scenario.steps:
        for site, completions in report.live_completions.items():
            if site != step.site and site not in step.subordinates:
                continue
            outcomes = set(completions.values())
            if Outcome.ABORTED.value in outcomes:
                report.match = False
                report.mismatches.append(
                    f"live: site {site} aborted a scripted transaction")
                return
