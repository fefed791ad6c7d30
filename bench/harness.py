"""Benchmark driver: runs a workload through `holoqsim.cli.main` and reports.

Untraced runs (`--trace 0`) give the end-to-end metrics:

    setup_s      median wall time of fresh interpreters that import holoqsim
                 and finish the workload's first op cold
    op_s         median wall time of one op, timed in-process
    op_tail_s    op time with 10 timed ops beyond it (the median when
                 fewer than 20 ops were timed); the count is printed
    peak_rss_mb  median peak resident memory of those fresh interpreters

Traced runs (`--trace 1`) alternate an untraced and a traced pass over the
workload's whole op cycle until the time is up, and report the per-layer
metrics of `spans.layer_metrics` together with per-command wall times from
the untraced passes and the tracing overhead.

Every op is checked; a failed check counts the op as failed.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import holoqsim.cli
import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_run"

SETUP_REPS = 3
SETUP_TIMEOUT_S = 150
TAIL_BEYOND = 10

COMMAND_METRICS = {
    "simulate": "cli.simulate_s",
    "diff": "cli.diff_s",
    "entanglement": "cli.entanglement_s",
    "holonomy": "cli.holonomy_s",
    "portrait": "cli.portrait_s",
    "classical-evolve": "cli.classical_s",
}

# A fresh interpreter imports holoqsim, runs the op's argv lists in order,
# notes the time and its own peak RSS, and only then times the calibration
# kernel, so neither the kernel's time nor its memory counts.  perf_counter
# is the system-wide monotonic clock, so the parent can compare its own
# timestamps with `done`.
COLD_OP = """\
import contextlib, io, json, resource, sys, time
from holoqsim.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    results.append([code, buf.getvalue()])
done = time.perf_counter()
rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
import speed
print(json.dumps({"done": done, "rss_kb": rss_kb, "kernel": speed.kernel_seconds(),
                  "results": results}))
"""


class Runner:
    """Runs ops in-process, times each CLI call, checks every output.

    Determinism is checked against the first stdout and output bytes this
    process saw for the same step.
    """

    def __init__(self):
        self.first: dict[str, tuple] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_op(self, op, gauge: speed.Gauge | None = None,
               traced: bool = False) -> list[tuple[workloads.Step, float, float]]:
        """Run and check one op; return (step, raw seconds, scaled seconds) per call.

        With a gauge, the calibration kernel runs after every call, outside
        the timer, and scales that call; without one, scaled equals raw.
        """
        wrapped = spans.installed_wrappers()
        if bool(wrapped) != traced:
            raise RuntimeError(f"traced={traced} but span wrappers are {wrapped}")
        gc.collect()
        timed, issues = [], []
        for step in op:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = perf_counter()
                try:
                    code = holoqsim.cli.main(list(step.argv))
                except Exception as exc:  # an uncaught error fails the op, not the run
                    code = f"{type(exc).__name__}: {exc}"
                elapsed = perf_counter() - start
            timed.append((step, elapsed, elapsed * (gauge.factor() if gauge else 1.0)))
            issues += self._check(step, code, out.getvalue(), err.getvalue(), True)
        self._record(op, issues)
        return timed

    def record_cold(self, op, results, error) -> None:
        issues = [error] if error else []
        for step, (code, stdout) in zip(op, results):
            issues += self._check(step, code, stdout, "", False)
        self._record(op, issues)

    def _record(self, op, issues) -> None:
        self.attempted += 1
        if issues:
            self.failed += 1
            self.problems.append(f"{'+'.join(s.key for s in op)}: {'; '.join(issues)}")

    def _check(self, step, code, stdout, stderr, same_process) -> list[str]:
        if code != 0:
            return [f"{step.key} exited {code}: {stderr.strip()[-200:]}"]
        try:
            problem = step.check(stdout)
            snapshot = (stdout, tuple(p.read_bytes() for p in step.outputs))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"{step.key} output unreadable: {exc}"]
        issues = [f"{step.key}: {problem}"] if problem else []
        if same_process and self.first.setdefault(step.key, snapshot) != snapshot:
            issues.append(f"{step.key}: output differs from this process's first run")
        return issues


def time_cold_op(op, env) -> tuple[float, float, float, list, str | None]:
    """Time a fresh interpreter that imports holoqsim and runs one op.

    Returns the raw wall time from spawn to the op's end, that time scaled
    to reference speed by the child's kernel, the child's peak RSS in MB,
    each call's [exit code, stdout], and an error message when the
    interpreter itself failed.
    """
    argvs = json.dumps([list(step.argv) for step in op])
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", COLD_OP, argvs], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        return 0.0, 0.0, 0.0, [], f"interpreter exited {proc.returncode}: {proc.stderr[-200:]}"
    child = json.loads(proc.stdout.splitlines()[-1])
    raw = child["done"] - start
    return (raw, raw * speed.REFERENCE_S / child["kernel"], child["rss_kb"] / 1024.0,
            child["results"], None)


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with 10 samples beyond it.

    Below 20 samples that statistic falls under the median, so the median
    is reported instead.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def measure_untraced(ops, seconds: float, runner: Runner, env) -> dict[str, float]:
    first = ops[0]
    setup, raw_setup, rss = [], [], []
    for _ in range(SETUP_REPS):
        raw, scaled, rss_mb, results, error = time_cold_op(first, env)
        runner.record_cold(first, results, error)
        raw_setup.append(raw)
        setup.append(scaled)
        rss.append(rss_mb)
    runner.run_op(first)  # warm-up: fills lazy state, sets the determinism baseline
    op_times, raw_times = [], []
    gauge = speed.Gauge()
    start = perf_counter()
    while perf_counter() - start < seconds:
        timed = runner.run_op(ops[len(op_times) % len(ops)], gauge)
        raw_times.append(sum(raw for _, raw, _ in timed))
        op_times.append(sum(scaled for _, _, scaled in timed))
    tail_s, pct = tail(op_times)
    print(f"timed ops: {len(op_times)}; op_tail_s at p{pct:.1f}; "
          f"raw wall medians: op {statistics.median(raw_times):.4f} s, "
          f"setup {statistics.median(raw_setup):.4f} s")
    return {
        "setup_s": statistics.median(setup),
        "op_s": statistics.median(op_times),
        "op_tail_s": tail_s,
        "peak_rss_mb": statistics.median(rss),
    }


def _scaled_pass(ops, runner, traced=False) -> tuple[list, float]:
    """Run each op once; return (step, scaled seconds) pairs and the median scale."""
    gauge = speed.Gauge()
    timed = [st for op in ops for st in runner.run_op(op, gauge, traced)]
    return ([(step, scaled) for step, _, scaled in timed],
            statistics.median(scaled / raw for _, raw, scaled in timed))


def measure_traced(ops, seconds: float, runner: Runner,
                   tracer: spans.Tracer) -> tuple[dict[str, float], list]:
    runner.run_op(ops[0])  # warm-up, as in the untraced run
    cycles, untraced_steps, recorded = [], [], []
    start = last = perf_counter()
    # Start another pair of passes only if it is likely to end in time.
    while not cycles or 2 * perf_counter() - start - last < seconds:
        last = perf_counter()
        untraced, _ = _scaled_pass(ops, runner)
        tracer.reset()
        tracer.install()
        try:
            traced, scale = _scaled_pass(ops, runner, traced=True)
        finally:
            tracer.uninstall()
        metrics = spans.layer_metrics(tracer.spans, tracer.counts, len(ops), scale)
        metrics["trace.overhead_s"] = (sum(t for _, t in traced)
                                       - sum(t for _, t in untraced)) / len(ops)
        cycles.append(metrics)
        untraced_steps += untraced
        recorded.append(tracer.spans)
    for name in spans.COUNT_METRICS:
        values = {c[name] for c in cycles}
        if len(values) > 1:
            runner.problems.append(f"count {name} changed between cycles: {sorted(values)}")
    result = {name: statistics.median(c[name] for c in cycles) for name in cycles[0]}
    for command, name in COMMAND_METRICS.items():
        times = [t for step, t in untraced_steps if step.command == command]
        result[name] = statistics.median(times) if times else 0.0
    sim = [(step.gates, t) for step, t in untraced_steps if step.command == "simulate"]
    result["cli.gates_per_s"] = (sum(g for g, _ in sim) / sum(t for _, t in sim)
                                 if sim else 0.0)
    print(f"traced cycles: {len(cycles)} of {len(ops)} op(s) each")
    return result, recorded


def write_spans(path: Path, recorded: list) -> None:
    """One JSON line per span: [cycle, name, start, end, parent index]."""
    with open(path, "w") as fh:
        for cycle, cycle_spans in enumerate(recorded):
            for name, start, end, parent in cycle_spans:
                fh.write(json.dumps([cycle, name, start, end, parent]) + "\n")


def machine() -> dict:
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "bench"),
                                                      env.get("PYTHONPATH")]))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    runner = Runner()
    try:
        ops = workloads.BUILDERS[args.workload](args.seed, workdir)
        if args.trace:
            tracer = spans.Tracer()
            values, recorded = measure_traced(ops, args.seconds, runner, tracer)
            write_spans(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl", recorded)
        else:
            values = measure_untraced(ops, args.seconds, runner, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} are not "
                         "both computed and declared in BENCHMARK.json")
    for problem in runner.problems:
        print(f"FAILED {problem}")
    print(f"machine: {json.dumps(machine())}")
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0
