"""One benchmark loop in one process.

Launched by run.py as `python3 perfbench/worker.py --workload W --seed N
--seconds S --trace 0|1 [--setup-only]`.  It imports `equilines` from the
checkout's `src/`, builds the workload's inputs, prints READY (the end of
set-up), then runs whole rounds of jobs with one client in a closed loop
until the timed jobs add up to `--seconds` (see `untraced` for the passes).
The last line of stdout is a JSON object with the raw results, which run.py
turns into metrics.

The clock runs only while a job runs: making a job's input and checking its
answer happen outside it.  In-process jobs get their deadline from an
interval timer on this process; cli-pipes stages get it as a subprocess
timeout.  A job past its deadline is recorded as a failure with cause
`timeout` and its latency is kept.

With --trace 1 every job runs twice on cold caches, once plain and once with
the tracer installed (alternating which goes first), which gives the
tracing overhead; the per-layer metrics come from the traced copies.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
LIMITS = ("cores are shared with other tenants; the page cache cannot be "
          "dropped; no machine-wide tracing; timers and getrusage cover only "
          "this benchmark's own processes")
STARTUP_SAMPLES = 3


def _import_package():
    if not (SRC / "equilines" / "__init__.py").is_file():
        raise SystemExit(f"no equilines package under {SRC}")
    sys.path.insert(0, str(SRC))
    import equilines
    if Path(equilines.__file__).resolve().parent != (SRC / "equilines").resolve():
        raise SystemExit(f"imported equilines from {equilines.__file__}, not {SRC}")
    return equilines


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def run_record(workloads, wl, args):
    return {
        "git_sha": git_sha(),
        **workloads.versions(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "deadline_s": wl.deadline_s,
        "clients": 1,
        "loop": "closed",
        "limits": LIMITS,
    }


def reference_ms():
    """Time of a fixed pure-Python loop, the machine's speed at that moment.
    Recorded beside the results so runs can be compared; metrics are never
    scaled by it."""
    t0 = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    return 1000 * (time.perf_counter() - t0)


class Runner:
    """Executes and checks jobs; records latencies and failure causes."""

    def __init__(self, workloads, wl):
        self.workloads = workloads
        self.wl = wl
        self.latencies_ms = []
        self.causes = Counter()
        self.examples = []
        self.reference = []
        signal.signal(signal.SIGALRM, self._alarm)

    def _alarm(self, signum, frame):
        raise self.workloads.JobTimeout()

    def execute(self, job):
        """Run one job under its deadline; (seconds, output, cause)."""
        armed = self.wl.in_process
        t0 = time.perf_counter()
        try:
            if armed:
                signal.setitimer(signal.ITIMER_REAL, self.wl.deadline_s)
            try:
                out = self.wl.run(job)
            finally:
                if armed:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except self.workloads.JobTimeout:
            return time.perf_counter() - t0, None, ("timeout", f"past {self.wl.deadline_s} s")
        except Exception as exc:   # a crashing job is a failed job
            return time.perf_counter() - t0, None, ("error", f"{type(exc).__name__}: {exc}")
        return time.perf_counter() - t0, out, None

    def check(self, job, out):
        try:
            err = self.wl.check(job, out)
        except Exception as exc:   # an answer the oracle cannot read is wrong
            err = f"oracle raised {type(exc).__name__}: {exc}"
        return None if err is None else ("wrong", err)

    def record(self, job, seconds, failure):
        self.latencies_ms.append(1000 * seconds)
        if failure:
            cause, detail = failure
            self.causes[cause] += 1
            if len(self.examples) < 10:
                self.examples.append({"job": job.id, "kind": job.kind,
                                      "cause": cause, "detail": detail[:300]})

    def attempt(self, job):
        """Execute and check one job; (seconds, output, failure or None)."""
        seconds, out, failure = self.execute(job)
        if failure is None:
            failure = self.check(job, out)
        self.reference.append(reference_ms())
        return seconds, out, failure

    def run_checked(self, job):
        seconds, out, failure = self.attempt(job)
        self.record(job, seconds, failure)
        return seconds, out, failure

    def summary(self):
        return {"latencies_ms": self.latencies_ms,
                "attempted": len(self.latencies_ms),
                "failed": sum(self.causes.values()),
                "causes": dict(self.causes),
                "examples": self.examples,
                "reference_ms": statistics.quantiles(self.reference, n=4)
                if len(self.reference) > 1 else self.reference}


def untraced(runner, seconds):
    """Passes over one job list, each on emptied caches.  The first pass
    takes whole rounds until it has at least `wl.min_rounds` rounds and its
    times, each counted as often as its job will run, add up to `seconds`.
    The later passes rerun the same inputs: a job of kind k runs
    `wl.passes_of(k)` times in all, and a kind that runs fewer times than
    the most spreads its reruns over the later passes in turn, so the
    passes take about as long as each other and a job's runs lie far apart
    in time.  A job's time is its fastest run, which filters out spells
    when other tenants slow the shared cores; it fails if any run fails,
    and one that timed out is not run again."""
    wl, clear = runner.wl, runner.workloads.clear_caches
    plan, best, failures = [], {}, {}
    clear()
    for done, jobs in enumerate(wl.rounds()):
        if done >= wl.min_rounds and sum(
                best[job.id] * wl.passes_of(job.kind) for job in plan) >= seconds:
            break
        for job in jobs:
            best[job.id], _, failures[job.id] = runner.attempt(job)
            plan.append(job)
    runs = {job.kind: wl.passes_of(job.kind) for job in plan}
    reruns = max(runs.values()) - 1
    turns, seen = {}, Counter()
    for job in plan:
        k, i = runs[job.kind], seen[job.kind]
        seen[job.kind] += 1
        turns[job.id] = {1 + (i + r * reruns // (k - 1)) % reruns for r in range(k - 1)}
    for p in range(1, reruns + 1):
        clear()
        for job in plan:
            if p not in turns[job.id] or (
                    failures[job.id] and failures[job.id][0] == "timeout"):
                continue
            spent, _, failure = runner.attempt(job)
            best[job.id] = min(best[job.id], spent)
            failures[job.id] = failures[job.id] or failure
    for job in plan:
        runner.record(job, best[job.id], failures[job.id])
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    return {**runner.summary(), "timed_s": sum(best.values()), "passes": runs,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024}


# ---------------------------------------------------------------------------
# traced run

def startup_split(env):
    """Import times from `-X importtime` children and the start-up part of a
    fresh CLI stage (its wall time minus the report's own elapsed_ms)."""
    imports = {"equilines": [], "numpy": []}
    stage = []
    for _ in range(STARTUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import equilines"],
                              capture_output=True, text=True, env=env, cwd=ROOT, timeout=60)
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
            if m and m.group(2) in imports:
                imports[m.group(2)].append(int(m.group(1)) / 1000)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "equilines", "construct", "pentagon"],
                              capture_output=True, text=True, env=env, cwd=ROOT, timeout=60)
        wall_ms = 1000 * (time.perf_counter() - t0)
        stage.append(wall_ms - json.loads(proc.stdout)["elapsed_ms"])
    return {"startup.import_equilines_ms": statistics.median(imports["equilines"]),
            "startup.import_numpy_ms": statistics.median(imports["numpy"]),
            "startup.stage_ms": statistics.median(stage)}


def traced(runner, seconds, equilines):
    wl, workloads = runner.wl, runner.workloads
    tr = tracer.Tracer(equilines, probes=(
        "spectra.spectrum", "spectra.char_poly",
        "groups.two_graph_group", "groups.automorphism_group"))
    wl.in_process = True
    counts = Counter()
    stage_ms = {argv[0]: [] for stages in workloads.PIPELINES.values() for argv in stages}
    spent = Counter()

    def run_twin(job, with_trace):
        workloads.clear_caches()
        if not with_trace:
            return runner.run_checked(job)
        tr.install()
        tr.begin_job(job.id)
        try:
            result = runner.run_checked(job)
        finally:
            tr.end_job()
            tr.uninstall()
        collect(result[1])
        return result

    def collect(out):
        """Counts read from the traced job's results, before the next job."""
        hits, misses = workloads.clear_caches()
        if out and "cache" in out:      # cli stages empty the caches themselves
            hits, misses = hits + out["cache"][0], misses + out["cache"][1]
        counts["cache_hits"] += hits
        counts["cache_misses"] += misses
        for spec in tr.results["spectra.spectrum"].values():
            for ev in spec.eigenvalues:
                kind = ("rational" if ev.rational is not None
                        else "quad" if ev.quad is not None else "interval")
                counts[f"eigen_{kind}"] += 1
        for poly in tr.results["spectra.char_poly"].values():
            counts["max_bits"] = max([counts["max_bits"]]
                                     + [abs(c).bit_length() for c in poly])
        for key in ("groups.two_graph_group", "groups.automorphism_group"):
            counts["generators"] += sum(len(g.generators) for g in tr.results[key].values())
        if out and "stages" in out:
            for command, ms, _, _ in out["stages"]:
                stage_ms[command].append(ms)
            counts["bytes_piped"] += sum(s[2] for s in out["stages"][:-1])

    for jobs in wl.rounds():
        if spent["plain"] + spent["traced"] >= seconds:
            break
        for job in jobs:
            order = (True, False) if job.id % 2 else (False, True)
            results = {with_trace: run_twin(job, with_trace) for with_trace in order}
            (plain, _, plain_fail), (traced_, _, traced_fail) = results[False], results[True]
            spent["plain"] += plain
            spent["traced"] += traced_
            spent["jobs"] += 1
            if plain_fail is None and traced_fail is None:
                spent["paired_plain"] += plain
                spent["paired_traced"] += traced_

    layer_metrics = per_layer(tr, spent["jobs"], spent["traced"], counts, stage_ms)
    layer_metrics["trace.overhead_frac"] = (
        spent["paired_traced"] / spent["paired_plain"] - 1 if spent["paired_plain"] else 0.0)
    layer_metrics.update(startup_split(dict(os.environ, PYTHONPATH=str(SRC))))
    return {**runner.summary(), "traced_jobs": spent["jobs"], "layers": layer_metrics}, tr


def per_layer(tr, n, traced_s, counts, stage_ms):
    """Per-job means of the traced jobs' calls and self times by layer."""
    n = max(n, 1)
    st = tr.self_times()
    m = {}
    total_self = 0.0
    for layer in tracer.LAYERS:
        rows = [row for key, row in st.items() if key.split(".")[0] == layer]
        calls = sum(r[0] for r in rows)
        self_s = sum(r[1] for r in rows)
        total_self += self_s
        m[f"{layer}.calls"] = calls / n
        m[f"{layer}.self_ms"] = 1000 * self_s / n
        m[f"{layer}.share"] = self_s / traced_s if traced_s else 0.0

    def self_ms(key):
        return 1000 * st[key][1] / n if key in st else 0.0

    def calls(key):
        return st[key][0] / n if key in st else 0.0

    # Self time of these entry points excludes the public helpers they call
    # (bareiss_det does the determinant work), so their inclusive time is
    # reported too; it survives a change of helpers.
    for fn in ("char_poly", "chi_polynomial", "spectrum", "embed_lines",
               "two_eigenvalue_check"):
        m[f"spectra.{fn}.self_ms"] = self_ms(f"spectra.{fn}")
        m[f"spectra.{fn}.total_ms"] = 1000 * st[f"spectra.{fn}"][3] / n \
            if f"spectra.{fn}" in st else 0.0
    m["spectra.bareiss_det.self_ms"] = self_ms("spectra.bareiss_det")
    m["spectra.failed"] = sum(r[2] for k, r in st.items() if k.startswith("spectra.")) / n
    m["spectra.cache_hits"] = counts["cache_hits"] / n
    m["spectra.cache_misses"] = counts["cache_misses"] / n
    for kind in ("rational", "quad", "interval"):
        m[f"spectra.eigen_{kind}"] = counts[f"eigen_{kind}"] / n
    m["spectra.char_poly.max_coeff_bits"] = counts["max_bits"]
    for fn in ("two_graph_group", "automorphism_group", "find_isomorphism",
               "PermGroup.is_doubly_transitive", "PermGroup.contains"):
        m[f"groups.{fn}.self_ms"] = self_ms(f"groups.{fn}")
    m["groups.generators"] = counts["generators"] / n
    for fn in ("from_graph6", "to_graph6", "localize", "conjugate",
               "is_switching_equivalent"):
        m[f"graphs.{fn}.self_ms"] = self_ms(f"graphs.{fn}")
    m["fields.FieldCtx.mul.calls"] = calls("fields.FieldCtx.mul")
    m["constructions.paley_verify.self_ms"] = self_ms("constructions.paley_verify")
    m["constructions.paley_projective.calls"] = calls("constructions.paley_projective")
    m["constructions.sl2_point_permutations.self_ms"] = \
        self_ms("constructions.sl2_point_permutations")
    m["extensibility.extensible_params.self_ms"] = self_ms("extensibility.extensible_params")
    for command, values in stage_ms.items():
        m[f"cli.stage_ms.{command}"] = statistics.mean(values) if values else 0.0
    m["cli.bytes_piped"] = counts["bytes_piped"] / n
    m["trace.job_ms"] = 1000 * traced_s / n
    m["trace.unattributed_ms"] = 1000 * (traced_s - total_self) / n
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    equilines = _import_package()
    import workloads
    wl = workloads.make(args.workload, args.seed, str(ROOT))
    print("READY", flush=True)
    if args.setup_only:
        return 0

    runner = Runner(workloads, wl)
    record = run_record(workloads, wl, args)
    if args.trace:
        result, tr = traced(runner, args.seconds, equilines)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json"
        with open(path, "w") as fh:
            json.dump({"record": record, "layers": result["layers"], **tr.dump()}, fh)
        result["spans_file"] = str(path.relative_to(ROOT))
    else:
        result = untraced(runner, args.seconds)
    result["record"] = record
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
