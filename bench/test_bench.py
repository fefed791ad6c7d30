"""Self-tests of the benchmark harness.  Run: python -m pytest bench -q"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import holoqsim.cli  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Same code paths as the real workloads at a fraction of their cost.
SMALL = {
    "dense-mixed": dict(nqubits=4, depth=8, circuits=2),
    "sparse-wide": dict(nqubits=6, depth=24, hadamards=2, circuits=2),
    "studies": dict(nqubits=3, states=2, restarts=2, samples=4000,
                    portrait_t=0.2, classical_t=0.5),
}


def small(name, workdir):
    workdir.mkdir(exist_ok=True)
    return workloads.BUILDERS[name](7, workdir, **SMALL[name])


def traced_pass(ops, runner):
    tracer = spans.Tracer()
    tracer.install()
    try:
        for op in ops:
            runner.run_op(op, traced=True)
    finally:
        tracer.uninstall()
    return spans.layer_metrics(tracer.spans, tracer.counts, len(ops))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_outputs_match_untraced_byte_for_byte(name, tmp_path):
    ops = small(name, tmp_path)
    runner = harness.Runner()
    for op in ops:
        runner.run_op(op)
    untraced = dict(runner.first)
    traced_pass(ops, runner)
    assert runner.failed == 0, runner.problems
    assert runner.attempted == 2 * len(ops)
    for op in ops:
        for step in op:
            assert tuple(p.read_bytes() for p in step.outputs) == untraced[step.key][1]


def test_wrappers_are_removed_before_untraced_timing(tmp_path):
    modules = [m for n, m in sys.modules.items() if n.startswith("holoqsim")]
    before = {m.__name__: dict(vars(m)) for m in modules}
    ops = small("dense-mixed", tmp_path)
    runner = harness.Runner()
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = spans.installed_wrappers()
        for name in ("holoqsim.cli.main", "holoqsim.cli.run_circuit_holo",
                     "holoqsim.cli.to_poly", "holoqsim.diffop.to_poly",
                     "holoqsim.geometry.maximize_product_overlap"):
            assert (name in wrapped) == (name != "holoqsim.cli.run_circuit_holo")
        with pytest.raises(RuntimeError):
            runner.run_op(ops[0])
    finally:
        tracer.uninstall()
    assert spans.installed_wrappers() == []
    for m in modules:
        assert all(vars(m)[k] is v for k, v in before[m.__name__].items())
    harness.measure_traced(ops, 0.0, runner, tracer)
    assert spans.installed_wrappers() == []
    assert runner.failed == 0, runner.problems


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counts_repeat_exactly(name, tmp_path):
    first, second = (traced_pass(small(name, tmp_path / run), harness.Runner())
                     for run in ("a", "b"))
    assert {k: first[k] for k in spans.COUNT_METRICS} == \
        {k: second[k] for k in spans.COUNT_METRICS}
    busy = {"dense-mixed": "diffop.term_pairs", "sparse-wide": "diffop.term_pairs",
            "studies": "geometry.sweeps"}[name]
    assert first[busy] > 0


def test_failed_ops_are_counted(tmp_path, monkeypatch):
    ops = small("dense-mixed", tmp_path)
    monkeypatch.setattr(holoqsim.cli, "run_circuit_holo", lambda circuit, state: state)
    runner = harness.Runner()
    for op in ops:
        runner.run_op(op)
    assert (runner.attempted, runner.failed) == (2, 2)
    assert all("deviates from the oracle" in p for p in runner.problems)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "studies",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
