"""The repository's benchmark: host cost of the reproduction and live commits.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1                       # every workload

Workloads (why each gated one was chosen is recorded in
``BENCHMARK.json``):

- ``paper``: ``python -m repro all --no-cache --jobs 1``, stdout checked
  against a recorded digest.  Serial, because a worker pool on a small
  machine would measure the scheduler.
- ``openloop``: ``run_open_loop`` at the CI shape (24 sites, 300 offered
  TPS, Zipf 1.1, 15% distributed, writes) with the given seed.
- ``live``: three ``LiveSite``s on one event loop, loopback TCP and
  fsync'd WAL files; coordinators rotate over the sites and families
  rotate 2PC, NB, Paxos Commit (F=1).  A closed loop with 4 commits
  outstanding gives throughput; an open loop at a fixed 100 TPS gives
  latency, timed from each commit's due time.  Not in ``BENCHMARK.json``:
  its figures follow the shared disk's fsync latency, and ten runs
  spread by 20-70%, so it is run by hand (``--workload live``) and
  reported, not gated.
- ``lint``: whole-tree ``run_lint`` with the race scan, which must find
  nothing against an empty baseline.

End-to-end metrics (``--trace 0``), the same names on every workload:

- ``setup_s``: process start to the first timed operation, the median
  of several fresh processes;
- ``wall_s``: the median time of one fixed job (``paper``: one
  reproduction; ``openloop``: 2,000 transactions; ``live``: a
  closed-loop batch of 120 commits; ``lint``: one whole-tree run);
- ``peak_rss_mb``: peak resident memory of the measuring process.

Both times are in nominal seconds: the measured seconds scaled by how
long a fixed reference loop took next to them (``workloads.reference_s``)
against its nominal time.  The machines this runs on change speed by
20-30% within minutes, and the scaling cancels that drift; raw seconds
vary that much from run to run of unchanged code.

Seconds as measured, operations per second and latency (``live``: open-loop
commits timed from their due time; the tail is the highest percentile,
up to p99, with at least ten samples beyond it) are printed with their
sample counts but not gated: they do not repeat run to run here.

``--trace 1`` is a separate run: it measures untraced jobs first, then
installs the layer ledger (``ledger.py``) and reports the per-layer
metrics, the reconciliation of layer self times to the traced wall
time, and ``trace_overhead``.

Every run checks the program's outputs; a failed check, abort or
unresolved transaction counts in ``failed`` and makes ``correct`` false
and the exit status nonzero.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Provenance (command, commit, source digest, seed, sample counts, CPU,
Python) is printed before it and written under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 4          # extra fresh processes that only set up
CHILD_GRACE_S = 90.0      # beyond --seconds, before a child is killed
OUT_DIR = ".perfbench-out"


def _run_child(root: str, argv: List[str], timeout: float
               ) -> Dict[str, Any]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), "--t0", repr(t0)]
        + argv, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker timed out after {timeout:.0f}s: {argv}")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {argv}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"worker printed nothing: {argv}")
    return json.loads(lines[-1])


def _provenance(root: str, args: argparse.Namespace) -> Dict[str, Any]:
    try:
        commit: Optional[str] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"command": [os.path.basename(sys.executable)] + sys.argv,
            "git_commit": commit, "source_sha256": digest.hexdigest(),
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "cpu_model": cpu or platform.processor(),
            "python": platform.python_version(),
            "platform": platform.platform()}


def measure(root: str, name: str, args: argparse.Namespace,
            spec: Dict[str, Any]) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run one workload; returns (result object, provenance)."""
    work_dir = os.path.join(root, OUT_DIR)
    os.makedirs(work_dir, exist_ok=True)
    common = ["--workload", name, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--work-dir", work_dir,
              "--expected", os.path.join(HERE, "expected.json")]
    probes = [_run_child(root, common + ["--probe"], CHILD_GRACE_S)
              for _ in range(SETUP_PROBES)]
    run = _run_child(root, common, args.seconds + CHILD_GRACE_S)
    probes.append(run)

    samples = {"setup_s": [p["setup_nominal_s"] for p in probes],
               "wall_s": run["job_nominal_s"],
               "raw_setup_s": [p["setup_s"] for p in probes],
               "raw_wall_s": run["job_s"], "latency_ms": run["latency_ms"],
               "traced_jobs": run["traced_job_s"]}
    wall = stats.median(run["job_s"])
    latency = run["latency_ms"]
    tail_value, tail_pct = stats.tail(latency)
    if args.trace:
        values = run["layers"]
    else:
        values = {"setup_s": stats.median(samples["setup_s"]),
                  "wall_s": stats.median(samples["wall_s"]),
                  "peak_rss_mb": run["peak_rss_mb"]}
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    prov = _provenance(root, args)
    prov.update({
        "workload": name,
        "samples": {k: len(v) for k, v in samples.items()},
        "quartiles": {k: stats.quartiles(v) for k, v in samples.items()
                      if v},
        "samples_s": {k: samples[k] for k in
                      ("setup_s", "wall_s", "raw_setup_s", "raw_wall_s")},
        # As measured, printed, not gated: see the module docstring.
        "unnormalized": {
            "setup_s": stats.median(samples["raw_setup_s"]),
            "wall_s": wall, "ops_per_s": run["ops_per_job"] / wall,
            "p50_ms": stats.median(latency),
            "tail_ms": {"value": tail_value, "n": len(latency),
                        "percentile": tail_pct
                        if tail_pct is not None else 50.0}},
        "late_ms": (stats.summary(run["late_ms"])
                    if run["late_ms"] else None),
        "errors": run["errors"],
    })
    if args.trace:
        prov["ledger"] = run["ledger"]
        prov["trace_file"] = os.path.relpath(run["trace_file"], root)
    out = {"correct": run["failed"] == 0 and not run["errors"],
           "attempted": max(1, int(run["attempted"])),
           "failed": int(run["failed"]), "metrics": metrics}
    with open(os.path.join(work_dir, f"{name}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"result": out, "provenance": prov}, fh, indent=1)
    return out, prov


def _report(name: str, out: Dict[str, Any], prov: Dict[str, Any]) -> None:
    print(f"== {name}: correct={out['correct']} attempted={out['attempted']} "
          f"failed={out['failed']}")
    n = prov["samples"]
    for metric, m in out["metrics"].items():
        count = n.get(metric, n["traced_jobs"] if prov["trace"]
                      else n["wall_s"])
        print(f"   {metric:<34} {m['value']:>14.6g} {m['unit']:<6} n={count}")
    raw = prov["unnormalized"]
    tail = raw["tail_ms"]
    print(f"   not gated, as measured: setup {raw['setup_s']:.6g} s, wall "
          f"{raw['wall_s']:.6g} s, {raw['ops_per_s']:.6g} ops/s "
          f"(n={n['raw_wall_s']}); latency p50 "
          f"{raw['p50_ms']:.6g} ms, p{tail['percentile']:g} "
          f"{tail['value']:.6g} ms (n={tail['n']})")
    if prov["late_ms"]:
        late = prov["late_ms"]
        print(f"   generator lateness                 {late['tail']:>14.6g} ms"
              f"     n={late['n']} p{late['tail_pct']:g}")
    for message in prov["errors"]:
        print(f"   CHECK FAILED: {message}")
    if "ledger" in prov:
        ledger = prov["ledger"]
        print(f"   ledger: wall {ledger['wall_s']:.4f}s = "
              + " + ".join(f"{k} {v:.4f}" for k, v in
                           ledger["self_s"].items()))
    print("   provenance: " + json.dumps(
        {k: prov[k] for k in ("command", "git_commit", "source_sha256",
                              "seed", "nproc", "cpu_model", "python")}))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Benchmark the reproduction: paper, openloop, live "
                    "and lint workloads.")
    parser.add_argument("--workload", default="all",
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: no program source at ./src/repro; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        out, prov = measure(root, name, args, spec)
        _report(name, out, prov)
        results.append((name, out))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {"correct": all(o["correct"] for _, o in results),
                 "attempted": sum(o["attempted"] for _, o in results),
                 "failed": sum(o["failed"] for _, o in results),
                 "metrics": {f"{n}.{k}": v for n, o in results
                             for k, v in o["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
