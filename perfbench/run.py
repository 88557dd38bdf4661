"""Benchmark of the `equilines` switching-class pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads: class-analysis, generic-graphs, cli-pipes and paley-scale (see
workloads.py for what each runs and why).  One client runs jobs in a closed
loop in one worker process, which uses at most one child process at a time.

With --trace 0 the run reports the end-to-end metrics: set-up time (median
over several fresh worker launches), jobs per second, median and tail job
latency, failed share and peak memory.  With --trace 1 it reports per-layer
metrics from a traced run instead and writes the spans to `.bench_out/`.
The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it are for people.
The exit code is non-zero, and no result is printed, when the run cannot be
made (for instance when `src/equilines` is missing).
"""

from __future__ import annotations

import argparse
import json
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_LAUNCHES = 9
WORKER_TIMEOUT_S = 170
TAIL_BEYOND = 10



class RunError(Exception):
    pass


def launch(args, setup_only):
    """Start a worker; return (seconds to READY, its result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], WORKER_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - t0
        if line.strip() != "READY":
            raise RunError(f"worker did not finish set-up (exit {proc.poll()})")
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except (RunError, subprocess.TimeoutExpired):
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}")
    if setup_only:
        return setup_s, None
    lines = rest.strip().splitlines()
    if not lines:
        raise RunError("worker printed no result")
    return setup_s, json.loads(lines[-1])


def tail(latencies):
    """The highest percentile with at least TAIL_BEYOND samples beyond it:
    the (TAIL_BEYOND+1)-th largest sample.  Returns (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(args, out):
    # Half the set-up-only launches go before the measured run and half
    # after, so the median spans the run rather than one spell of load.
    setups = [launch(args, True)[0] for _ in range(SETUP_LAUNCHES // 2)]
    setup_s, result = launch(args, False)
    setups.append(setup_s)
    setups += [launch(args, True)[0] for _ in range(SETUP_LAUNCHES // 2)]
    lat = result["latencies_ms"]
    attempted, failed = result["attempted"], result["failed"]
    tail_ms, tail_pct = tail(lat)
    runs = ", ".join(f"{kind} {n}" for kind, n in result["passes"].items())
    values = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": (attempted - failed) / result["timed_s"],
        "job_p50_ms": statistics.median(lat),
        "job_tail_ms": tail_ms,
        "jobs_failed_frac": failed / attempted,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh launches: "
                   + ", ".join(f"{s:.3f}" for s in setups),
        "jobs_per_s": f"{attempted - failed} completed in {result['timed_s']:.3f} s of "
                      f"job time, each job's best of its runs ({runs})",
        "job_p50_ms": f"{len(lat)} samples",
        "job_tail_ms": f"p{tail_pct:.2f}: {min(TAIL_BEYOND, len(lat) - 1)} of "
                       f"{len(lat)} samples beyond it",
        "jobs_failed_frac": f"{failed} failed of {attempted} attempted; "
                            f"causes {result['causes']}",
        "peak_rss_mb": "of the cli stages (children)" if args.workload == "cli-pipes"
                       else "of the worker process",
    }
    unit = {**units("end_to_end"), "jobs_failed_frac": "ratio"}
    for name, note in notes.items():
        print(f"{name:<18} {values[name]:>14.6g} {unit[name]:<7} {note}", file=out)
    return result, values


def per_layer(args, out):
    _, result = launch(args, False)
    layers = result["layers"]
    unit = units("per_layer")
    for name, value in layers.items():
        print(f"{name:<48} {value:>14.6g} {unit[name]}", file=out)
    self_sum = sum(v for k, v in layers.items()
                   if k.endswith(".self_ms") and k.count(".") == 1)
    print(f"check: layer self times {self_sum:.3f} ms + unattributed "
          f"{layers['trace.unattributed_ms']:.3f} ms = traced job "
          f"{layers['trace.job_ms']:.3f} ms per job over {result['traced_jobs']} jobs",
          file=out)
    print(f"spans: {result['spans_file']}", file=out)
    return result, layers


def units(table):
    """Metric name -> unit for one table of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[table]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "equilines" / "__init__.py").is_file():
        print(f"error: no equilines package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out = sys.stdout
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}", file=out)
    try:
        result, values = (per_layer if args.trace else end_to_end)(args, out)
        unit = units("per_layer" if args.trace else "end_to_end")
        metrics = {name: {"value": values[name], "unit": unit[name]} for name in unit}
    except (RunError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("record: " + json.dumps(result["record"]), file=out)
    print("machine: reference loop quartiles (ms) between jobs: "
          + json.dumps(result["reference_ms"]), file=out)
    for example in result["examples"]:
        print("failed job: " + json.dumps(example), file=out)
    causes = result["causes"]
    final = {
        "correct": not (causes.get("wrong") or causes.get("error")),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(final), file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
