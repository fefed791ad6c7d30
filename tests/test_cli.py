"""Command-line behavior: outputs, exit codes, determinism."""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import holoqsim.cli
import holoqsim.geometry
from holoqsim import MAX_DENSE_QUBITS
from holoqsim.cli import main
from holoqsim.geometry import overlap_distance
from holoqsim.semiclassical import pauli_hamiltonian

SQ2 = math.sqrt(2.0)
PI = math.pi

BELL_CIRCUIT = ('{"n": 2, "gates": [{"kind": "H", "qubits": [1]}, '
                '{"kind": "CNOT", "qubits": [1, 2]}]}')
ZERO2 = '{"n": 2, "amplitudes": {"00": [1.0, 0.0]}}'


@pytest.fixture
def bell_files(tmp_path):
    circ = tmp_path / "bell.json"
    circ.write_text(BELL_CIRCUIT)
    state = tmp_path / "zero.json"
    state.write_text(ZERO2)
    return str(circ), str(state)


@pytest.fixture
def wide_state(tmp_path):
    """One-amplitude state one qubit above the dense-vector limit."""
    n = MAX_DENSE_QUBITS + 1
    state = tmp_path / "wide_state.json"
    state.write_text(f'{{"n": {n}, "amplitudes": {{"{"0" * n}": [1.0, 0.0]}}}}')
    return n, str(state)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- simulate ---------------------------------------------------------


def test_simulate_bell(bell_files, tmp_path, capsys):
    circ, state = bell_files
    out = str(tmp_path / "out.json")
    code, stdout, _ = run_cli(capsys, "simulate", "--circuit", circ,
                              "--state", state, "--out", out)
    assert code == 0
    assert "norm:" in stdout and "homogeneity: ok" in stdout
    doc = json.loads(Path(out).read_text())
    assert doc["n"] == 2
    assert abs(doc["amplitudes"]["00"][0] - 1 / SQ2) < 1e-12
    assert abs(doc["amplitudes"]["11"][0] - 1 / SQ2) < 1e-12
    assert set(doc["amplitudes"]) == {"00", "11"}


def test_simulate_empty_circuit_copies_state(tmp_path, capsys):
    circ = tmp_path / "empty.json"
    circ.write_text('{"n": 1, "gates": []}')
    state = tmp_path / "s.json"
    state.write_text('{"n": 1, "amplitudes": {"1": [1.0, 0.0]}}')
    out = str(tmp_path / "out.json")
    code, _, _ = run_cli(capsys, "simulate", "--circuit", str(circ),
                         "--state", str(state), "--out", out)
    assert code == 0
    assert json.loads(Path(out).read_text())["amplitudes"] == {"1": [1.0, 0.0]}


def test_simulate_unknown_gate_kind_exits_2(tmp_path, capsys):
    circ = tmp_path / "bad.json"
    circ.write_text('{"n": 1, "gates": [{"kind": "WARP", "qubits": [1]}]}')
    state = tmp_path / "s.json"
    state.write_text('{"n": 1, "amplitudes": {"0": [1.0, 0.0]}}')
    code, _, stderr = run_cli(capsys, "simulate", "--circuit", str(circ),
                              "--state", str(state),
                              "--out", str(tmp_path / "o.json"))
    assert code == 2
    assert "WARP" in stderr
    assert not os.path.exists(tmp_path / "o.json")


def test_simulate_register_mismatch_exits_2(bell_files, tmp_path, capsys):
    circ, _ = bell_files
    state = tmp_path / "one.json"
    state.write_text('{"n": 1, "amplitudes": {"0": [1.0, 0.0]}}')
    code, _, stderr = run_cli(capsys, "simulate", "--circuit", circ,
                              "--state", str(state),
                              "--out", str(tmp_path / "o.json"))
    assert code == 2
    assert "qubit" in stderr


def test_simulate_huge_integer_amplitude_exits_2(tmp_path, capsys):
    circ = tmp_path / "h.json"
    circ.write_text('{"n": 1, "gates": [{"kind": "H", "qubits": [1]}]}')
    state = tmp_path / "huge.json"
    state.write_text('{"n": 1, "amplitudes": {"0": [1%s, 0]}}' % ("0" * 400))
    code, _, stderr = run_cli(capsys, "simulate", "--circuit", str(circ),
                              "--state", str(state),
                              "--out", str(tmp_path / "o.json"))
    assert code == 2
    assert "too large" in stderr


# -- diff -------------------------------------------------------------


def test_diff_register_mismatch_exits_2(bell_files, tmp_path, capsys):
    circ, _ = bell_files
    state = tmp_path / "one.json"
    state.write_text('{"n": 1, "amplitudes": {"0": [1.0, 0.0]}}')
    code, stdout, stderr = run_cli(capsys, "diff", "--circuit", circ,
                                   "--state", str(state))
    assert code == 2
    assert stdout == ""
    assert "qubit" in stderr


def test_diff_huge_integer_cu_entry_exits_2(bell_files, tmp_path, capsys):
    _, state = bell_files
    circ = tmp_path / "huge_cu.json"
    circ.write_text('{"n": 2, "gates": [{"kind": "CU", "qubits": [1, 2], '
                    '"u": [[[1%s, 0], [0, 0]], [[0, 0], [1, 0]]]}]}' % ("0" * 400))
    code, stdout, stderr = run_cli(capsys, "diff", "--circuit", str(circ),
                                   "--state", state)
    assert code == 2
    assert stdout == ""
    assert "too large" in stderr


def test_diff_engines_agree(bell_files, capsys):
    circ, state = bell_files
    code, stdout, _ = run_cli(capsys, "diff", "--circuit", circ, "--state", state)
    assert code == 0
    assert "result: PASS" in stdout


def test_diff_deterministic_bytes(bell_files, tmp_path, capsys):
    circ, state = bell_files
    r1 = str(tmp_path / "r1.txt")
    r2 = str(tmp_path / "r2.txt")
    assert run_cli(capsys, "diff", "--circuit", circ, "--state", state,
                   "--out", r1)[0] == 0
    assert run_cli(capsys, "diff", "--circuit", circ, "--state", state,
                   "--out", r2)[0] == 0
    assert Path(r1).read_bytes() == Path(r2).read_bytes()


def test_diff_impossible_tolerance_exits_1(bell_files, capsys, monkeypatch):
    circ, state = bell_files
    code, stdout, _ = run_cli(capsys, "diff", "--circuit", circ, "--state", state,
                              "--tol", "0")
    # engines agree to rounding error; tolerance zero still trips on it
    assert code in (0, 1)  # exactly zero deviation would pass
    # a negative --tol is refused (exit 2), so force a deviation above a valid one
    monkeypatch.setattr(holoqsim.cli, "compare_states", lambda a, b: 1e-3)
    code, stdout, _ = run_cli(capsys, "diff", "--circuit", circ, "--state", state,
                              "--tol", "1e-9")
    assert code == 1
    assert "result: FAIL" in stdout


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "abc"])
def test_diff_bad_tolerance_exits_2(bell_files, capsys, tol):
    circ, state = bell_files
    code, stdout, stderr = run_cli(capsys, "diff", "--circuit", circ,
                                   "--state", state, "--tol", tol)
    assert code == 2
    assert stdout == ""
    assert "--tol" in stderr and "finite number >= 0" in stderr


def test_diff_register_above_dense_limit_exits_2(wide_state, tmp_path, capsys):
    n, state = wide_state
    circ = tmp_path / "wide.json"
    circ.write_text(f'{{"n": {n}, "gates": [{{"kind": "X", "qubits": [{n}]}}]}}')
    code, stdout, stderr = run_cli(capsys, "diff", "--circuit", str(circ),
                                   "--state", state)
    assert code == 2
    assert stdout == ""
    assert f"{MAX_DENSE_QUBITS}-qubit limit" in stderr


def test_diff_malformed_state_exits_2(bell_files, tmp_path, capsys):
    circ, _ = bell_files
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "amplitudes" broken')
    code, _, stderr = run_cli(capsys, "diff", "--circuit", circ,
                              "--state", str(bad))
    assert code == 2
    assert "line" in stderr


def test_diff_nan_cu_block_exits_2(bell_files, tmp_path, capsys):
    _, state = bell_files
    circ = tmp_path / "nan_cu.json"
    circ.write_text('{"n": 2, "gates": [{"kind": "CU", "qubits": [1, 2], '
                    '"u": [[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]]}]}')
    code, stdout, stderr = run_cli(capsys, "diff", "--circuit", str(circ),
                                   "--state", state)
    assert code == 2
    assert stdout == ""
    assert "finite unitary" in stderr


def test_simulate_nan_amplitude_exits_2(tmp_path, capsys):
    circ = tmp_path / "h.json"
    circ.write_text('{"n": 1, "gates": [{"kind": "H", "qubits": [1]}]}')
    state = tmp_path / "nan.json"
    state.write_text('{"n": 1, "amplitudes": {"0": [1, 0], "1": [NaN, 0]}}')
    out = tmp_path / "out.json"
    code, _, stderr = run_cli(capsys, "simulate", "--circuit", str(circ),
                              "--state", str(state), "--out", str(out))
    assert code == 2
    assert "not finite" in stderr
    assert not out.exists()


def test_diff_unnormalized_state_exits_2(bell_files, tmp_path, capsys):
    circ, _ = bell_files
    bad = tmp_path / "un.json"
    bad.write_text('{"n": 2, "amplitudes": {"00": [0.5, 0.0]}}')
    code, _, stderr = run_cli(capsys, "diff", "--circuit", circ,
                              "--state", str(bad))
    assert code == 2
    assert "normalized" in stderr


# -- portrait ---------------------------------------------------------


def test_portrait_writes_grid(tmp_path, capsys):
    outdir = str(tmp_path / "plots")
    code, stdout, _ = run_cli(capsys, "portrait", "--generator", "Z",
                              "--out-dir", outdir, "--dt", "0.1",
                              "--t-final", "1.0")
    assert code == 0
    index = json.loads(Path(os.path.join(outdir, "portrait_z_index.json")).read_text())
    assert index["generator"] == "Z"
    assert len(index["trajectories"]) == 20  # 5 offsets x 4 deltas
    for entry in index["trajectories"]:
        assert os.path.exists(os.path.join(outdir, entry["file"]))
        assert entry["sum_drift"] <= 1e-8


def test_portrait_z_slopes(tmp_path, capsys):
    outdir = str(tmp_path / "plots")
    run_cli(capsys, "portrait", "--generator", "Z", "--out-dir", outdir,
            "--dt", "0.05", "--t-final", "0.4", "--offsets", "0",
            "--deltas", "1.0")
    lines = Path(os.path.join(outdir, "portrait_z_00.csv")).read_text().splitlines()
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    # phi_a falls at unit rate, phi_b rises
    assert rows[1][1] - rows[0][1] == pytest.approx(-0.05, abs=1e-12)
    assert rows[1][2] - rows[0][2] == pytest.approx(0.05, abs=1e-12)


def test_portrait_x_stationary_rows(tmp_path, capsys):
    outdir = str(tmp_path / "plots")
    run_cli(capsys, "portrait", "--generator", "X", "--out-dir", outdir,
            "--dt", "0.1", "--t-final", "2.0")
    index = json.loads(Path(os.path.join(outdir, "portrait_x_index.json")).read_text())
    for entry in index["trajectories"]:
        rows = [[float(x) for x in ln.split(",")] for ln in
                Path(os.path.join(outdir, entry["file"])).read_text().splitlines()[1:]]
        moved = max(abs(r[1] - rows[0][1]) for r in rows)
        if abs(abs(entry["delta0"]) - PI / 2) < 1e-12:
            assert moved < 1e-9  # delta = +-pi/2 rows are fixed lines
        else:
            assert moved > 1e-3


def test_portrait_y_stationary_rows(tmp_path, capsys):
    outdir = str(tmp_path / "plots")
    run_cli(capsys, "portrait", "--generator", "Y", "--out-dir", outdir,
            "--dt", "0.1", "--t-final", "2.0", "--offsets", "0.6",
            "--deltas", "0,3.141592653589793,1.0")
    index = json.loads(Path(os.path.join(outdir, "portrait_y_index.json")).read_text())
    for entry in index["trajectories"]:
        rows = [[float(x) for x in ln.split(",")] for ln in
                Path(os.path.join(outdir, entry["file"])).read_text().splitlines()[1:]]
        moved = max(abs(r[1] - rows[0][1]) for r in rows)
        if entry["delta0"] in (0.0, PI):
            assert moved < 1e-9
        else:
            assert moved > 1e-3


def test_portrait_bad_generator_exits_2(tmp_path, capsys):
    code, _, stderr = run_cli(capsys, "portrait", "--generator", "Q",
                              "--out-dir", str(tmp_path / "p"))
    assert code == 2


@pytest.mark.parametrize("command, flag", [
    ("portrait", "--t-final"), ("classical-evolve", "--t-final"),
    ("portrait", "--dt"), ("classical-evolve", "--dt"),
])
def test_infinite_time_grid_exits_2(tmp_path, capsys, command, flag):
    out = tmp_path / "out"
    target = ["--out-dir", str(out)] if command == "portrait" else ["--out", str(out)]
    code, stdout, stderr = run_cli(capsys, command, "--generator", "X",
                                   flag, "inf", *target)
    assert code == 2
    assert stdout == ""
    assert "finite" in stderr
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["classical-evolve", "--generator", "X", "--z0", "nan,0,0,0"], "--z0"),
    (["classical-evolve", "--generator", "X", "--z0", "1,0,inf,0"], "--z0"),
    (["portrait", "--generator", "X", "--offsets", "nan"], "--offsets"),
    (["portrait", "--generator", "Y", "--deltas", "0,-inf"], "--deltas"),
])
def test_non_finite_number_list_exits_2(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    target = ["--out-dir", str(out)] if argv[0] == "portrait" else ["--out", str(out)]
    code, stdout, stderr = run_cli(capsys, *argv, *target)
    assert code == 2
    assert stdout == ""
    assert flag in stderr and "finite" in stderr
    assert not out.exists()


# -- entanglement -----------------------------------------------------


def test_entanglement_bell_report(tmp_path, capsys):
    state = tmp_path / "bell.json"
    r = 1 / SQ2
    state.write_text(json.dumps(
        {"n": 2, "amplitudes": {"00": [r, 0.0], "11": [r, 0.0]}}))
    out = str(tmp_path / "report.json")
    code, stdout, _ = run_cli(capsys, "entanglement", "--state", str(state),
                              "--out", out)
    assert code == 0
    doc = json.loads(Path(out).read_text())
    assert abs(doc["entanglement_measure"] - PI / 4) < 1e-5
    assert doc["separable"] is False
    assert len(doc["witness"]) == 2
    assert len(doc["restarts"]) == 16
    assert all(rec["overlap"] <= 1 / SQ2 + 1e-9 for rec in doc["restarts"])


def test_entanglement_product_state(tmp_path, capsys):
    state = tmp_path / "prod.json"
    state.write_text('{"n": 2, "amplitudes": {"01": [1.0, 0.0]}}')
    out = str(tmp_path / "report.json")
    code, _, _ = run_cli(capsys, "entanglement", "--state", str(state),
                         "--out", out)
    assert code == 0
    doc = json.loads(Path(out).read_text())
    assert doc["entanglement_measure"] <= 1e-6
    assert doc["separable"] is True


def test_entanglement_ghz(tmp_path, capsys):
    state = tmp_path / "ghz.json"
    r = 1 / SQ2
    state.write_text(json.dumps(
        {"n": 3, "amplitudes": {"000": [r, 0.0], "111": [r, 0.0]}}))
    out = str(tmp_path / "report.json")
    code, _, _ = run_cli(capsys, "entanglement", "--state", str(state), "--out", out)
    assert code == 0
    doc = json.loads(Path(out).read_text())
    assert abs(doc["entanglement_measure"] - PI / 4) < 1e-4


def test_entanglement_deterministic_bytes(tmp_path, capsys):
    state = tmp_path / "bell.json"
    r = 1 / SQ2
    state.write_text(json.dumps(
        {"n": 2, "amplitudes": {"00": [r, 0.0], "11": [r, 0.0]}}))
    o1, o2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    run_cli(capsys, "entanglement", "--state", str(state), "--out", o1,
            "--seed", "7")
    run_cli(capsys, "entanglement", "--state", str(state), "--out", o2,
            "--seed", "7")
    assert Path(o1).read_bytes() == Path(o2).read_bytes()


def test_entanglement_unnormalized_exits_2(tmp_path, capsys):
    state = tmp_path / "un.json"
    state.write_text('{"n": 1, "amplitudes": {"0": [0.3, 0.0]}}')
    code, _, stderr = run_cli(capsys, "entanglement", "--state", str(state))
    assert code == 2
    assert "normalized" in stderr


def test_entanglement_runs_optimizer_once(tmp_path, capsys, monkeypatch):
    real = holoqsim.geometry.maximize_product_overlap
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(holoqsim.cli, "maximize_product_overlap", counting)
    monkeypatch.setattr(holoqsim.geometry, "maximize_product_overlap", counting)
    state = tmp_path / "w.json"
    r = 1 / math.sqrt(3.0)
    state.write_text(json.dumps(
        {"n": 3, "amplitudes": {"001": [r, 0.0], "010": [r, 0.0], "100": [r, 0.0]}}))
    out = str(tmp_path / "report.json")
    code, _, _ = run_cli(capsys, "entanglement", "--state", str(state),
                         "--out", out, "--restarts", "3")
    assert code == 0
    assert len(calls) == 1
    doc = json.loads(Path(out).read_text())
    assert doc["entanglement_measure"] > 0.0
    assert doc["entanglement_measure"] == overlap_distance(doc["max_product_overlap"])


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_entanglement_bad_tolerance_exits_2(tmp_path, capsys, tol):
    state = tmp_path / "prod.json"
    state.write_text(ZERO2)
    code, stdout, stderr = run_cli(capsys, "entanglement", "--state", str(state),
                                   "--tol", tol)
    assert code == 2
    assert stdout == ""
    assert "--tol" in stderr and "finite number >= 0" in stderr


def test_entanglement_register_above_dense_limit_exits_2(wide_state, capsys):
    code, stdout, stderr = run_cli(capsys, "entanglement", "--state", wide_state[1])
    assert code == 2
    assert stdout == ""
    assert f"{MAX_DENSE_QUBITS}-qubit limit" in stderr


@pytest.mark.parametrize("restarts", ["0", "-3"])
def test_entanglement_nonpositive_restarts_exits_2(tmp_path, capsys, restarts):
    state = tmp_path / "bell.json"
    state.write_text(ZERO2)
    code, stdout, stderr = run_cli(capsys, "entanglement", "--state", str(state),
                                   "--restarts", restarts)
    assert code == 2
    assert stdout == ""
    assert "restarts" in stderr


# -- holonomy ---------------------------------------------------------


def test_holonomy_parametrized_circle(capsys):
    code, stdout, _ = run_cli(capsys, "holonomy", "--theta", str(PI / 3),
                              "--samples", "2000")
    assert code == 0
    lines = dict(ln.split(": ") for ln in stdout.strip().splitlines())
    assert abs(float(lines["holonomy"]) - (-PI / 2)) < 2e-3
    assert abs(float(lines["smooth-loop reference"]) - (-PI / 2)) < 1e-12
    assert float(lines["circular difference"]) < 2e-3


def test_holonomy_loop_file(tmp_path, capsys):
    m = 64
    states = []
    for k in range(m + 1):
        phi = 2 * PI * (k % m) / m
        states.append({"0": [1 / SQ2, 0.0],
                       "1": [math.cos(phi) / SQ2, math.sin(phi) / SQ2]})
    loop = tmp_path / "loop.json"
    loop.write_text(json.dumps({"n": 1, "states": states}))
    code, stdout, _ = run_cli(capsys, "holonomy", "--loop", str(loop))
    assert code == 0
    gamma = float(stdout.split("holonomy: ")[1].split()[0])
    # equator loop: expect magnitude pi
    assert abs(abs(gamma) - PI) < 2e-3


def test_holonomy_too_coarse_exits_2(capsys):
    code, _, stderr = run_cli(capsys, "holonomy", "--theta", "1.0",
                              "--samples", "4")
    assert code == 2


def test_holonomy_rejected_loops_exit_2_with_message(tmp_path, capsys):
    states = [{"0": [1.0, 0.0]}] * 17
    states[1] = {"1": [1.0, 0.0]}  # orthogonal to its neighbours
    loop = tmp_path / "coarse.json"
    loop.write_text(json.dumps({"n": 1, "states": states}))
    n = MAX_DENSE_QUBITS + 1  # one amplitude per state, but a dense loop is 2^N wide
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"n": n, "states": [{"0" * n: [1.0, 0.0]}] * 17}))
    unnormalized = tmp_path / "unnormalized.json"
    states[1] = {"0": [0.5, 0.0]}
    unnormalized.write_text(json.dumps({"n": 1, "states": states}))
    cases = [
        (("--loop", str(loop)), "error: consecutive overlap at segment 0 has magnitude 0; "
                                "loop too coarse for a well-defined holonomy\n"),
        (("--theta", "1.0", "--samples", "10"), "error: need at least 16 segments\n"),
        (("--theta", "nan"), "error: amplitude of '0' is not finite: (nan+0j)\n"),
        (("--loop", str(wide)), f"error: {wide}: {n} qubits exceed the "
                                f"{MAX_DENSE_QUBITS}-qubit limit for dense 2^N amplitude "
                                "vectors\n"),
        (("--loop", str(unnormalized)), f"error: {unnormalized}: loop state is not "
                                        "normalized: |norm - 1| = 0.5 exceeds 1e-10\n"),
    ]
    for args, message in cases:
        assert run_cli(capsys, "holonomy", *args) == (2, "", message)


def test_holonomy_requires_exactly_one_source(capsys):
    code, _, _ = run_cli(capsys, "holonomy")
    assert code == 2
    code, _, _ = run_cli(capsys, "holonomy", "--theta", "1.0", "--loop", "x.json")
    assert code == 2


# -- classical-evolve -------------------------------------------------


def test_classical_evolve_output(tmp_path, capsys):
    out = str(tmp_path / "evo.csv")
    code, _, _ = run_cli(capsys, "classical-evolve", "--generator", "X",
                         "--t-final", str(PI / 2), "--dt", "0.01",
                         "--z0", "1,0,0,0", "--out", out)
    assert code == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "t, re_a_1, im_a_1, re_b_1, im_b_1, energy, norm"
    last = [float(x) for x in lines[-1].split(",")]
    # exp(-i X pi/2) (1,0) = (0, -i)
    assert abs(last[1]) < 1e-12 and abs(last[2]) < 1e-12
    assert abs(last[3]) < 1e-12 and abs(last[4] + 1.0) < 1e-12
    # norm conserved
    assert abs(last[6] - 1.0) < 1e-12


def test_classical_evolve_energy_column_constant(tmp_path, capsys):
    out = str(tmp_path / "evo.csv")
    run_cli(capsys, "classical-evolve", "--generator", "Y", "--t-final", "3.0",
            "--dt", "0.05", "--z0", "0.6,0,0.8,0", "--out", out)
    rows = [[float(x) for x in ln.split(",")] for ln in
            Path(out).read_text().splitlines()[1:]]
    energies = [r[5] for r in rows]
    assert max(energies) - min(energies) < 1e-12


@pytest.mark.parametrize("qubit, z0", [(1, "0.3,0.4,-0.5,0.1"),
                                       (2, "0.6,0,0,0.8,0.1,0.2,0.3,-0.9")])
@pytest.mark.parametrize("generator", ["X", "Y", "Z"])
def test_classical_evolve_rows_equal_per_row_propagators(tmp_path, capsys, generator,
                                                         qubit, z0):
    out = str(tmp_path / "evo.csv")
    code, _, _ = run_cli(capsys, "classical-evolve", "--generator", generator,
                         "--t-final", "1.005", "--dt", "0.01", "--z0", z0,
                         "--qubit", str(qubit), "--out", out)
    assert code == 0
    raw = [float(x) for x in z0.split(",")]
    z = np.array([complex(raw[k], raw[k + 1]) for k in range(0, len(raw), 2)])
    h = pauli_hamiltonian(generator, qubit, z.size // 2).hmatrix
    evals, evecs = np.linalg.eigh(h)
    rows = []
    for t in [k * 0.01 for k in range(101)] + [1.005]:
        zt = ((evecs * np.exp(-1j * evals * t)) @ evecs.conj().T) @ z
        row = [t] + [x for val in zt for x in (val.real, val.imag)]
        row += [float(np.real(np.vdot(zt, h @ zt))), float(np.linalg.norm(zt))]
        rows.append(", ".join(f"{float(x):.17g}" for x in row))
    assert Path(out).read_text().splitlines()[1:] == rows


def test_classical_evolve_deterministic(tmp_path, capsys):
    o1, o2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for o in (o1, o2):
        run_cli(capsys, "classical-evolve", "--generator", "Z",
                "--t-final", "1.0", "--dt", "0.1", "--out", o)
    assert Path(o1).read_bytes() == Path(o2).read_bytes()


def test_classical_evolve_bad_z0_exits_2(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "classical-evolve", "--generator", "X",
                         "--z0", "1,0,0", "--out", str(tmp_path / "o.csv"))
    assert code == 2


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


# -- unusable paths and overflowing states ----------------------------


@pytest.mark.parametrize("argv, bad", [
    (["portrait", "--generator", "X", "--out-dir", "{file}"], "{file}"),
    (["simulate", "--circuit", "{circuit}", "--state", "{state}",
      "--out", "{missing}/x"], "{missing}/x"),
    (["classical-evolve", "--generator", "X", "--out", "{missing}/x"], "{missing}/x"),
    (["entanglement", "--state", "{state}", "--out", "{missing}/x"], "{missing}/x"),
    (["simulate", "--circuit", "{circuit}", "--state", "{dir}",
      "--out", "{file}.out"], "{dir}"),
    (["diff", "--circuit", "{dir}", "--state", "{state}"], "{dir}"),
    (["holonomy", "--loop", "{dir}"], "{dir}"),
    (["diff", "--circuit", "{circuit}", "--state", "{state}", "--out", "{dir}"], "{dir}"),
])
def test_unusable_path_exits_2_naming_it(bell_files, tmp_path, capsys, argv, bad):
    circ, state = bell_files
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    names = {"file": str(tmp_path / "file"), "dir": str(tmp_path / "dir"),
             "missing": str(tmp_path / "missing"), "circuit": circ, "state": state}
    code, _, stderr = run_cli(capsys, *(a.format(**names) for a in argv))
    assert code == 2
    assert stderr.startswith("error:")
    assert bad.format(**names) in stderr
    assert ".tmp-" not in stderr
    assert not [p for p in tmp_path.rglob(".tmp-*")]


@pytest.mark.parametrize("command", ["simulate", "diff", "entanglement"])
def test_overflowing_norm_exits_2(tmp_path, capsys, command):
    circ = tmp_path / "x.json"
    circ.write_text('{"n": 1, "gates": [{"kind": "X", "qubits": [1]}]}')
    state = tmp_path / "big.json"
    state.write_text('{"n": 1, "amplitudes": {"0": [1e200, 0.0]}}')
    argv = {"simulate": ["--circuit", str(circ), "--out", str(tmp_path / "o.json")],
            "diff": ["--circuit", str(circ)], "entanglement": []}[command]
    code, stdout, stderr = run_cli(capsys, command, "--state", str(state), *argv)
    assert code == 2
    assert stdout == ""
    assert "not normalized (norm inf)" in stderr
