#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload conformance-grid --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` times the workload with tracing, profiling and
``repro.obs`` off and reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer table.
The last line of standard output is one JSON object; the full record
(quartiles, sample counts, exact-repeat counts, host metadata) goes to
``.perfbench/results/``.  Every time is reported in reference seconds,
scaled by the host's speed as a calibration kernel measures it between
requests (``perfbench/hostspeed.py``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

from hostspeed import HostSpeed
from layers import Recorder, in_order, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

#: Set-up is measured this many times per run (fresh processes); the
#: median is reported.
SETUP_SAMPLES = 5
SETUP_TIMEOUT = 120.0
#: Calibration kernel calls before and after each set-up probe.
SETUP_KERNEL_CALLS = 5

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="internal: set the workload up, print 'ready', tear down",
    )
    return parser.parse_args(argv)


def quartiles(values: List[float]) -> Dict[str, float]:
    ordered = sorted(values)
    if len(ordered) == 1:
        q1 = med = q3 = ordered[0]
    else:
        q1, med, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(ordered)}


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile (the sample at or above ``share``)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]


def tree_digest(path: str) -> str:
    """A content hash of every ``.py`` file under ``path``."""
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(path)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                full = os.path.join(folder, name)
                digest.update(os.path.relpath(full, path).encode())
                with open(full, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def host_metadata() -> dict:
    cpu_model = ""
    mem_total_kb = 0
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
        with open("/proc/meminfo") as handle:
            for line in handle:
                if line.startswith("MemTotal:"):
                    mem_total_kb = int(line.split()[1])
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_model": cpu_model,
        "cpu_count": os.cpu_count(),
        "mem_total_mb": round(mem_total_kb / 1024),
        "loadavg_start": list(os.getloadavg()),
        "src_digest": tree_digest(os.path.join(SRC, "repro")),
        "bench_digest": tree_digest(HERE),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def measure_setup(args) -> Tuple[float, float]:
    """Seconds from spawning a fresh process until it reports ready.

    Returns the time in reference seconds and the speed factor that
    scaled it, sampled right before and after the probe.
    """
    speed = HostSpeed()
    for _ in range(SETUP_KERNEL_CALLS):
        speed.sample()
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--setup-probe",
    ]
    start = time.perf_counter()
    probe = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - start
        code = probe.wait(timeout=SETUP_TIMEOUT)
    finally:
        if probe.poll() is None:
            probe.kill()
            probe.wait()
        probe.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
    for _ in range(SETUP_KERNEL_CALLS):
        speed.sample()
    return elapsed * speed.factor(), speed.factor()


def run_setup_probe(args, suite) -> int:
    state = os.path.join(OUT, "tmp", f"probe-{os.getpid()}")
    workload = suite.WORKLOADS[args.workload](args.seed, state, False)
    try:
        workload.start()
        print("ready", flush=True)
    finally:
        workload.close()
        shutil.rmtree(state, ignore_errors=True)
    return 0


def timed_pass(workload, index: int, recorder=None):
    """Run one pass, traced into ``recorder`` when one is given.

    Returns the pass's time and its request latencies, both in reference
    seconds, its output, and the speed factor that scaled them.
    """
    traced = recorder is not None
    workload.speed = HostSpeed()
    with workload.tracing(recorder) if traced else contextlib.nullcontext():
        latencies, output = workload.run_pass(index, traced)
    factor = workload.speed.factor()
    return (factor * sum(latencies), [factor * x for x in latencies],
            output, factor)


def run_workload(args, suite) -> dict:
    """Set up, warm up, measure; return the raw record of the run."""
    state = os.path.join(OUT, "tmp", f"run-{os.getpid()}")
    traced_run = bool(args.trace)
    setup = [] if traced_run else [
        measure_setup(args) for _ in range(SETUP_SAMPLES)
    ]
    workload = suite.WORKLOADS[args.workload](args.seed, state, traced_run)
    recorder = Recorder()
    passes = []  # (index, traced, wall, latencies, output, factor)
    try:
        workload.start()
        # Untimed warm-up so no measured leg runs cold.
        passes.append((0, False) + timed_pass(workload, 0))
        window = time.perf_counter()
        index = 1
        while True:
            # Traced runs alternate which leg of a round goes first.
            if not traced_run:
                order = (False,)
            elif index % 2:
                order = (False, True)
            else:
                order = (True, False)
            round_start = time.perf_counter()
            for traced in order:
                passes.append((index, traced) + timed_pass(
                    workload, index, recorder if traced else None
                ))
            now = time.perf_counter()
            index += 1
            if now - window + (now - round_start) > args.seconds:
                break
        rss_extra = workload.peak_rss_extra_kb()
    finally:
        workload.close()
        shutil.rmtree(state, ignore_errors=True)
    checks = [workload.check(p[4]) for p in passes]
    return {
        "in_process": workload.in_process,
        "setup": setup,
        "passes": passes,
        "checks": checks,
        "recorder": recorder,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + rss_extra,
    }


def summarize(args, raw) -> dict:
    passes, checks = raw["passes"], raw["checks"]
    measured = [(p, c) for p, c in zip(passes, checks) if p[0] > 0]
    plain = [(p, c) for p, c in measured if not p[1]]
    traced = [(p, c) for p, c in measured if p[1]]

    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    problems = [msg for c in checks for msg in c.problems]

    # Exact-repeat counts: every pass of one index must agree, and for
    # in-process workloads every index runs the same inputs.
    by_index: Dict[int, List[dict]] = {}
    for p, c in zip(passes, checks):
        by_index.setdefault(p[0], []).append(c.counts)
    comparable = all(
        all(counts == group[0] for counts in group)
        for group in by_index.values()
    )
    if raw["in_process"]:
        comparable = comparable and all(
            c.counts == checks[0].counts for c in checks
        )
    counts = dict(by_index.get(1, [checks[0].counts])[0])

    walls = [p[2] for p, _ in plain]
    latencies = [x for p, _ in plain for x in p[3]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": raw["host"],
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "counts": counts,
        "comparable": comparable,
        "passes": {
            "plain_wall_s": walls,
            "plain_latencies_s": [p[3] for p, _ in plain],
            "traced_wall_s": [p[2] for p, _ in traced],
            "plain_speed_factor": [p[5] for p, _ in plain],
            "traced_speed_factor": [p[5] for p, _ in traced],
            "setup_speed_factor": [f for _, f in raw["setup"]],
        },
    }
    if args.trace == 0:
        e2e = {
            "setup_s": quartiles([s for s, _ in raw["setup"]]),
            "wall_s": quartiles(walls),
            "ok_ratio": {"value": 1.0 - failed / attempted},
            "peak_rss_mb": {"value": raw["rss_kb"] / 1024.0},
            "sim_cycles": {"value": counts["sim_cycles"]},
        }
        # A percentile per pass, then the mean over passes.  Every pass
        # sends the same kinds of request, so a pass's percentile falls
        # on the same kind or two each time, while a percentile pooled
        # over a varying number of passes can sit at the edge between two
        # kinds and move with the pass count.  The mean, not the median:
        # where two kinds take turns at the percentile, the median of a
        # few passes flips between them.
        for name, share in (("latency_p50_s", 0.5), ("latency_p90_s", 0.9)):
            per_pass = [percentile(p[3], share) for p, _ in plain]
            stats = e2e[name] = quartiles(per_pass)
            stats["value"] = statistics.fmean(per_pass)
            stats["samples"] = len(latencies)
            stats["beyond"] = sum(1 for x in latencies if x > stats["value"])
        for stats in e2e.values():
            stats.setdefault("value", stats.get("median"))
        record["end_to_end"] = in_order(e2e, "end_to_end")
        # Where requests take different paths, the pooled percentiles
        # depend on the mix; each path's own figures do not.
        by_path: Dict[str, List[float]] = {}
        for p, c in plain:
            for path, samples in c.paths.items():
                by_path.setdefault(path, []).extend(
                    p[5] * x for x in samples
                )
        record["latency_by_path"] = {
            path: dict(
                quartiles(samples),
                p90=percentile(samples, 0.90),
                share=len(samples) / len(latencies),
            )
            for path, samples in sorted(by_path.items())
        }
    else:
        ratios = []
        rounds: Dict[int, Dict[bool, float]] = {}
        for p, _ in measured:
            rounds.setdefault(p[0], {})[p[1]] = p[2]
        for pair in rounds.values():
            if True in pair and False in pair:
                ratios.append(pair[True] / pair[False] - 1.0)
        layer = {}
        for _, c in traced:
            for key, value in c.layer.items():
                layer[key] = layer.get(key, 0) + value
        record["per_layer"] = layer_metrics(
            raw["recorder"], layer, len(traced),
            100.0 * statistics.median(ratios) if ratios else 0.0,
            statistics.fmean(p[5] for p, _ in traced),
        )
        record["overhead_ratios"] = ratios
        if raw["in_process"]:
            # Every traced pass ran the same inputs, so these repeat too.
            for key in ("sim.events", "axiomatic.candidates", "sc.states"):
                record["counts"][key] = record["per_layer"][key]["value"]
    return record


def write_record(record: dict) -> str:
    folder = os.path.join(OUT, "results")
    os.makedirs(folder, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    path = os.path.join(
        folder,
        f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
        f"-{stamp}-{os.getpid()}.json",
    )
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    return path


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            "perfbench: src/repro not found under the current directory; "
            "run from the repository root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH")))
    )
    import suite

    if args.workload not in suite.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(suite.WORKLOADS)}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    if args.setup_probe:
        return run_setup_probe(args, suite)

    host = host_metadata()
    raw = run_workload(args, suite)
    raw["host"] = host
    record = summarize(args, raw)
    record["host"]["loadavg_end"] = list(os.getloadavg())
    path = write_record(record)

    section = record["end_to_end" if args.trace == 0 else "per_layer"]
    for name, stats in section.items():
        extra = ""
        if "q1" in stats:
            extra = (f"  [q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, "
                     f"n={stats['n']}]")
        print(f"{name:28s} {stats['value']:>14.6g} {stats['unit']}{extra}")
    if not record["comparable"]:
        print("WARNING: exact-repeat counts differ between passes; "
              "this run is not comparable", file=sys.stderr)
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": stats["value"], "unit": stats["unit"]}
            for name, stats in section.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
