"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

1. Oracles are live: for every workload, one job whose expected answer has
   been replaced by a wrong value is reported as a failed job with cause
   `wrong` (paley-scale on q = 13, where spectrum() finishes today).
2. Tiny runs of every workload, traced and untraced, print every metric
   BENCHMARK.json names, with its unit, plus `jobs_failed_frac`; per-layer
   self times add up to the traced job time.
3. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.

Takes about six minutes; paley-scale jobs run to their deadline.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_out" / "selftest"
KNOWN_TIMEOUTS = {"paley-scale"}    # spectrum() does not finish on these graphs


class WrongValue:
    """Equal to nothing, so every comparison with it fails."""

    def __eq__(self, other):
        return False

    __hash__ = None

    def __repr__(self):
        return "<deliberately wrong>"


def check_oracles():
    sys.path.insert(0, str(ROOT / "src"))
    import worker
    import workloads

    class SmallPaley(workloads.PaleyScale):
        QS = (13,)

    built = [workloads.ClassAnalysis(1), workloads.GenericGraphs(1), SmallPaley(1),
             workloads.CliPipes(1, str(ROOT))]
    for wl in built:
        runner = worker.Runner(workloads, wl)
        job = next(wl.rounds())[0]
        _, _, failure = runner.run_checked(job)
        assert failure is None, f"{wl.name}: a correct job failed: {failure}"
        job.expected = {key: WrongValue() for key in job.expected}
        _, _, failure = runner.run_checked(job)
        assert failure is not None and failure[0] == "wrong", \
            f"{wl.name}: wrong expected value not caught: {failure}"
        assert runner.summary()["failed"] == 1
        print(f"ok  oracle live: {wl.name} ({job.kind}): {failure[1][:80]}")


def run(cwd, workload, trace):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                          capture_output=True, text=True, cwd=cwd, timeout=180)


def check_tiny_runs():
    import workloads
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in workloads.WORKLOADS:
        for trace, table in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            final = json.loads(lines[-1])
            assert set(final) == {"correct", "attempted", "failed", "metrics"}
            assert final["attempted"] >= 1 and final["correct"], final
            if workload not in KNOWN_TIMEOUTS:
                assert final["failed"] == 0, proc.stdout
            want = {m["name"]: m["unit"] for m in spec[table]}
            got = {name: m["unit"] for name, m in final["metrics"].items()}
            assert got == want, f"{workload}: metrics {sorted(set(got) ^ set(want))}"
            assert all(isinstance(m["value"], (int, float))
                       for m in final["metrics"].values())
            text = "\n".join(lines[:-1])
            if trace == 0:
                for name, unit in [*want.items(), ("jobs_failed_frac", "ratio")]:
                    assert any(line.split()[:1] == [name] and f" {unit} " in line
                               for line in text.splitlines()), f"{name} not printed"
            else:
                values = {name: m["value"] for name, m in final["metrics"].items()}
                layers = sum(v for k, v in values.items()
                             if k.endswith(".self_ms") and k.count(".") == 1)
                total = layers + values["trace.unattributed_ms"]
                assert abs(total - values["trace.job_ms"]) <= 1e-6 * values["trace.job_ms"]
            print(f"ok  tiny run: {workload} trace={trace}: {final['attempted']} jobs, "
                  f"{final['failed']} failed")


def check_bare_directory():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
    shutil.copytree(HERE, SCRATCH / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(SCRATCH, "class-analysis", 0)
    shutil.rmtree(SCRATCH)
    assert proc.returncode != 0, proc.stdout
    assert '"metrics"' not in proc.stdout, proc.stdout
    print(f"ok  bare directory: exit {proc.returncode}, no result")


def main():
    sys.path.insert(0, str(HERE))
    check_oracles()
    check_bare_directory()
    check_tiny_runs()
    print("selftest passed")


if __name__ == "__main__":
    main()
