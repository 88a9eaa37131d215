"""One benchmark process: set up a workload, then probe or measure.

Started by ``run.py`` with ``--t0`` set to the monotonic clock just
before the process was spawned, so ``setup_s`` covers interpreter start,
imports and the workload's own set-up.  Prints one JSON object as its
last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from typing import Any, Dict

import stats
import workloads
from ledger import Ledger


def layer_metrics(ledger: Ledger, result: workloads.RunResult
                  ) -> Dict[str, float]:
    """The per-layer metrics of a traced run."""
    txns = result.txns_traced
    per = 1.0 / txns if txns else 0.0
    jobs = max(1, len(result.traced_jobs))
    counts = ledger.tracer_counts
    self_s = ledger.self_s

    def us(layer: str) -> float:
        return self_s.get(layer, 0.0) * 1e6 * per

    sweeps = sum(ledger.sweeps.values())
    rounds = ledger.calls_of("GroupCommitBatcher._flush_round")
    force_s = [s for s, _ in ledger.wal_forces]
    force_records = sum(n for _, n in ledger.wal_forces)
    wall = result.traced_wall_s
    unattributed = wall - sum(self_s.values())
    untraced = stats.median(result.jobs.nominal_s)
    traced = stats.median(result.traced_jobs.nominal_s)
    out = {
        "sim.events_per_txn": ledger.kernel_events * per,
        "sim.self_us_per_txn": us("sim"),
        "mach.ipc_per_txn": sum(n for k, n in counts.items()
                                if k.startswith("ipc.")
                                and k != "ipc.dropped") * per,
        "mach.self_us_per_txn": us("mach"),
        "net.datagrams_per_txn": (counts.get("net.datagram", 0)
                                  + counts.get("net.multicast", 0)) * per,
        "net.self_us_per_txn": us("net"),
        "log.appends_per_txn": counts.get("log.append", 0) * per,
        "log.forces_per_txn": counts.get("log.force", 0) * per,
        "log.mean_batch": (ledger.calls_of("GroupCommitBatcher._join_round")
                           / rounds if rounds else 0.0),
        "log.self_us_per_txn": us("log"),
        "servers.self_us_per_txn": us("servers"),
        "servers.lock_waits_per_txn": counts.get("server.lock_wait", 0) * per,
        "servers.lazy_sweeps_per_txn": sweeps * per,
        "servers.lazy_sweep_useful_frac": (
            counts.get("diskman.lazy_sweep", 0) / sweeps if sweeps else 0.0),
        "core.tranman.self_us_per_txn": us("core.tranman"),
        "core.machines.self_us_per_txn": us("core.machines"),
        "core.machines.steps_per_txn": ledger.steps * per,
        "obs.self_us_per_txn": us("obs"),
        "system.self_us_per_txn": us("system"),
        "bench.self_us_per_txn": us("bench"),
        "bench.late_ms": stats.tail(result.late_ms)[0]
        if result.late_ms else 0.0,
        "live.codec.frames_per_txn":
            ledger.calls_of("encode_message_frame") * per,
        "live.codec.bytes_per_txn": ledger.frame_bytes * per,
        "live.codec.self_us_per_txn": us("live.codec"),
        "live.walfile.fsyncs_per_txn": len(ledger.wal_forces) * per,
        "live.walfile.records_per_fsync": (
            force_records / len(ledger.wal_forces)
            if ledger.wal_forces else 0.0),
        "live.walfile.force_ms.p50": stats.median(force_s) * 1000.0
        if force_s else 0.0,
        "live.walfile.force_ms.p99": stats.tail(force_s)[0] * 1000.0
        if force_s else 0.0,
        "live.host.self_us_per_txn": us("live.host"),
        "live.host.effects_per_txn": ledger.calls_of("SiteHost._apply") * per,
        "live.host.retained_per_txn": 0.0,
        "live.site.self_us_per_txn": us("live.site"),
        "live.socket.self_us_per_txn": us("live.socket"),
        "live.site.inbound_wait_ms.p99": 0.0,
        "live.site.loop_lag_ms.p99": 0.0,
        "lint.engine.self_s": self_s.get("lint.engine", 0.0) / jobs,
        "lint.perfile.self_s": self_s.get("lint.perfile", 0.0) / jobs,
        "lint.flow.self_s": self_s.get("lint.flow", 0.0) / jobs,
        "lint.races.self_s": self_s.get("lint.races", 0.0) / jobs,
        "unattributed.self_us_per_txn": unattributed * 1e6 * per,
        "trace.wall_s": wall,
        "trace.unattributed_frac": unattributed / wall if wall else 0.0,
        "trace.idle_frac": self_s.get("idle", 0.0) / wall if wall else 0.0,
        "trace.txns": float(txns),
        "trace_overhead": traced / untraced,
    }
    out.update(result.extra)
    return out


def ledger_table(ledger: Ledger, result: workloads.RunResult
                 ) -> Dict[str, Any]:
    """Self seconds per layer plus the remainder, summing to the wall."""
    wall = result.traced_wall_s
    rows = {layer: s for layer, s in sorted(ledger.self_s.items())}
    rows["unattributed"] = wall - sum(ledger.self_s.values())
    return {"wall_s": wall, "self_s": rows,
            "sum_s": sum(rows.values()),
            "spans_kept": len(ledger.spans),
            "spans_opened": sum(ledger.entries.values())}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--expected", required=True)
    parser.add_argument("--probe", action="store_true",
                        help="set up, report setup_s, tear down")
    args = parser.parse_args()
    with open(args.expected) as fh:
        expected = json.load(fh)

    workload = workloads.make(args.workload, expected)
    workload.setup(args.seed, args.work_dir)
    setup_s = time.monotonic() - args.t0
    reference = workloads.reference_s(workloads.REF_MIN_S)
    out: Dict[str, Any] = {
        "setup_s": setup_s,
        "setup_nominal_s": workloads.nominal_s(setup_s, reference)}
    if args.probe:
        workload.close()
        print(json.dumps(out))
        return 0

    result = workloads.RunResult()
    ledger = Ledger() if args.trace else None
    try:
        workload.run(args.seconds, result, ledger)
    finally:
        workload.close()
    out.update({
        "job_s": result.jobs.wall_s,
        "job_nominal_s": result.jobs.nominal_s,
        "traced_job_s": result.traced_jobs.wall_s,
        "ops_per_job": result.ops_per_job,
        "latency_ms": result.latency_ms,
        "late_ms": result.late_ms,
        "attempted": result.attempted,
        "failed": result.failed,
        "errors": result.errors,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if ledger is not None:
        table = ledger_table(ledger, result)
        if table["self_s"]["unattributed"] < -1e-6 or any(
                s < -1e-6 for s in table["self_s"].values()):
            result.errors.append("ledger does not reconcile: "
                                 f"{table['self_s']}")
            out["failed"] = result.failed + 1
        out["layers"] = layer_metrics(ledger, result)
        out["ledger"] = table
        path = os.path.join(args.work_dir, f"trace-{args.workload}.json")
        ledger.write(path)
        out["trace_file"] = path
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
