"""Command-line behavior: outputs, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holoqsim.cli
import holoqsim.geometry
import holoqsim.torus
from holoqsim import MAX_DENSE_QUBITS, HoloState, load_state, save_state
from holoqsim.cli import COMMANDS, build_parser, main
from holoqsim.fileio import format_float, state_text
from holoqsim.geometry import overlap_distance
from holoqsim.semiclassical import pauli_hamiltonian

from _support import random_state_vector

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


@pytest.mark.parametrize("state_text, circuit_text", [
    ('{"n": 2, "amplitudes": {"00": [true, false]}}', BELL_CIRCUIT),
    (ZERO2, '{"n": 2, "gates": [{"kind": "CU", "qubits": [1, 2], '
            '"u": [[[1, 0], [0, 0]], [[0, 0], "10"]]}]}'),
    (ZERO2, '{"n": 2, "gates": [{"kind": "CU", "qubits": [1, 2], '
            '"u": [[[1, 0], [0, 0]], [[0, 0], [1, 0, 5]]]}]}'),
])
@pytest.mark.parametrize("command", ["simulate", "diff"])
def test_non_number_pair_exits_2(tmp_path, capsys, command, state_text, circuit_text):
    state = tmp_path / "state.json"
    state.write_text(state_text)
    circ = tmp_path / "circ.json"
    circ.write_text(circuit_text)
    out = tmp_path / "out.json"
    code, stdout, stderr = run_cli(capsys, command, "--circuit", str(circ),
                                   "--state", str(state), "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: ") and "must be a [real, imag] pair" in stderr
    assert not out.exists()


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
    """Above the dense limit, a run whose term bound passes the sparse cap is refused."""
    n, state = wide_state
    circ = tmp_path / "wide.json"
    gates = [{"kind": "H", "qubits": [q]} for q in range(1, 18)]  # bound 2^17
    circ.write_text(json.dumps({"n": n, "gates": gates}))
    code, stdout, stderr = run_cli(capsys, "diff", "--circuit", str(circ),
                                   "--state", state)
    assert code == 2
    assert stdout == ""
    assert f"{MAX_DENSE_QUBITS}-qubit limit" in stderr
    assert f"term bound {2 ** 17} passes its cap of {2 ** MAX_DENSE_QUBITS // 256} terms" in stderr


def test_diff_above_dense_limit_runs_the_sparse_oracle(wide_state, tmp_path, capsys):
    n, state = wide_state
    circ = tmp_path / "wide.json"
    gates = [{"kind": "H", "qubits": [q]} for q in range(1, 5)]
    circ.write_text(json.dumps({"n": n, "gates": gates + [{"kind": "X", "qubits": [n]}]}))
    code, stdout, stderr = run_cli(capsys, "diff", "--circuit", str(circ),
                                   "--state", state)
    assert (code, stderr) == (0, "")
    assert f"nqubits: {n}\n" in stdout and "result: PASS" in stdout


@pytest.mark.parametrize("command, form", [("simulate", "the map form"),
                                           ("diff", "the sparse oracle")])
def test_term_bound_past_cap_above_dense_limit_exits_2_before_any_run(
        wide_state, tmp_path, capsys, monkeypatch, command, form):
    """simulate and diff refuse by one rule, before the engine runs."""
    n, state = wide_state
    circ = tmp_path / "wide.json"
    circ.write_text(json.dumps({"n": n, "gates": [{"kind": "H", "qubits": [q]}
                                                  for q in range(1, 18)]}))  # bound 2^17

    def no_run(*args):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(holoqsim.cli, "run_circuit_holo", no_run)
    out = tmp_path / "out.json"
    code, stdout, stderr = run_cli(capsys, command, "--circuit", str(circ), "--state", state,
                                   "--out", str(out))
    assert (code, stdout, out.exists()) == (2, "", False)
    assert stderr == (f"error: {n} qubits exceed the {MAX_DENSE_QUBITS}-qubit limit for dense "
                      f"2^N amplitude vectors, and {form}'s term bound {2 ** 17} passes its "
                      f"cap of {2 ** MAX_DENSE_QUBITS // 256} terms\n")


def test_simulate_above_dense_limit_within_the_cap_runs(wide_state, tmp_path, capsys):
    n, state = wide_state
    circ = tmp_path / "wide.json"
    gates = [{"kind": "H", "qubits": [q]} for q in range(1, 5)]
    circ.write_text(json.dumps({"n": n, "gates": gates + [{"kind": "X", "qubits": [n]}]}))
    out = tmp_path / "out.json"
    code, stdout, stderr = run_cli(capsys, "simulate", "--circuit", str(circ), "--state", state,
                                   "--out", str(out))
    assert (code, stderr) == (0, "")
    assert len(json.loads(out.read_text())["amplitudes"]) == 16


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


@pytest.mark.parametrize("amps, message", [
    ('{"0x": [1, 0]}', "bad basis label '0x' for 2 qubit(s)"),
    ('{"00": [NaN, 0]}', "amplitude of '00' is not finite: (nan+0j)"),
], ids=["bad-label", "nan"])
def test_bad_label_and_nan_amplitude_exit_2_with_message(tmp_path, capsys, amps, message):
    circ = tmp_path / "h.json"
    circ.write_text('{"n": 2, "gates": [{"kind": "H", "qubits": [1]}]}')
    state = tmp_path / "state.json"
    state.write_text('{"n": 2, "amplitudes": %s}' % amps)
    out = tmp_path / "out.json"
    for command in ("simulate", "diff"):
        assert run_cli(capsys, command, "--circuit", str(circ), "--state", str(state),
                       "--out", str(out)) == (2, "", f"error: {state}: {message}\n")
    assert not out.exists()


def dense_file_text(edits):
    """Sixteen ascending 4-qubit entries of [0.25, 0], past the crossover of 8 entries,
    with {position: (label or None, pair text or None)} edits."""
    entries = [[format(k, "04b"), "[0.25, 0]"] for k in range(16)]
    for k, (label, pair) in edits.items():
        entries[k] = [label or entries[k][0], pair or entries[k][1]]
    return '{"n": 4, "amplitudes": {%s}}' % ", ".join(f'"{b}": {p}' for b, p in entries)


# A bad pair anywhere is named before any label; labels and values are then
# checked entry by entry in file order.
DENSE_FILE_REFUSALS = {
    "short-pair": ({5: (None, "[1]")}, "amplitude of '0101' must be a [real, imag] pair"),
    "bool-pair": ({5: (None, "[true, 0]")}, "amplitude of '0101' must be a [real, imag] pair"),
    "huge-integer": ({5: (None, "[1%s, 0]" % ("0" * 400))},
                     "amplitude of '0101' is too large for a float"),
    "bad-label": ({5: ("01x1", None)}, "bad basis label '01x1' for 4 qubit(s)"),
    "short-label": ({5: ("010", None)}, "bad basis label '010' for 4 qubit(s)"),
    # Bad last labels that still ascend; int(bits, 2) reads the second as 7.
    "ascending-bad-label": ({15: ("1x11", None)}, "bad basis label '1x11' for 4 qubit(s)"),
    "ascending-underscore": ({15: ("1_11", None)}, "bad basis label '1_11' for 4 qubit(s)"),
    "ascending-long-label": ({15: ("11111", None)}, "bad basis label '11111' for 4 qubit(s)"),
    "nan": ({5: (None, "[NaN, 0]"), 9: (None, "[Infinity, 0]")},
            "amplitude of '0101' is not finite: (nan+0j)"),
    "1e999": ({9: (None, "[0, 1e999]")}, "amplitude of '1001' is not finite: infj"),
    "duplicate-key": ({6: ("0101", None)}, "duplicate key '0101' in JSON object"),
    "bad-label-then-bad-pair": ({3: ("0x11", None), 9: (None, "[1]")},
                                "amplitude of '1001' must be a [real, imag] pair"),
    "nan-then-bad-label": ({3: (None, "[NaN, 0]"), 9: ("10x1", None)},
                           "amplitude of '0011' is not finite: (nan+0j)"),
    "bad-label-then-nan": ({3: ("0x11", None), 9: (None, "[NaN, 0]")},
                           "bad basis label '0x11' for 4 qubit(s)"),
    # Files the bulk pass must hand to the per-entry path: bad pairs at either
    # end and of other types, and labels int(bits, 2) reads as 5, in order.
    "first-pair": ({0: (None, "[1]")}, "amplitude of '0000' must be a [real, imag] pair"),
    "last-pair": ({15: (None, "[1, 0, 0]")},
                  "amplitude of '1111' must be a [real, imag] pair"),
    "string-pair": ({7: (None, '["1", 0]')}, "amplitude of '0111' must be a [real, imag] pair"),
    "null-pair": ({7: (None, "[null, 0]")}, "amplitude of '0111' must be a [real, imag] pair"),
    "nested-pair": ({7: (None, "[[1], 0]")}, "amplitude of '0111' must be a [real, imag] pair"),
    "arabic-indic-label": ({5: (r"\u0660\u0661\u0660\u0661", None)},  # JSON escapes
                           "bad basis label '\u0660\u0661\u0660\u0661' for 4 qubit(s)"),
    "space-label": ({5: (" 101", None)}, "bad basis label ' 101' for 4 qubit(s)"),
    "plus-label": ({5: ("+101", None)}, "bad basis label '+101' for 4 qubit(s)"),
}


@pytest.mark.parametrize("edits, message", DENSE_FILE_REFUSALS.values(),
                         ids=DENSE_FILE_REFUSALS.keys())
def test_dense_state_file_refusals_name_the_first_bad_entry(tmp_path, capsys, edits, message):
    circ = tmp_path / "h.json"
    circ.write_text('{"n": 4, "gates": [{"kind": "H", "qubits": [1]}]}')
    state = tmp_path / "state.json"
    state.write_text(dense_file_text(edits))
    out = tmp_path / "out.json"
    for argv in (("simulate", "--circuit", str(circ), "--out", str(out)),
                 ("diff", "--circuit", str(circ)), ("entanglement",)):
        assert run_cli(capsys, *argv, "--state", str(state)) == (
            2, "", f"error: {state}: {message}\n")
    assert not out.exists()


def shuffled_state_file(path, rng, n, scale):
    """A random state times scale, its labels shuffled; returns its norm summed in file order."""
    v = scale * random_state_vector(rng, n)
    order = rng.permutation(2 ** n).tolist()
    amps = ", ".join(f'"{k:0{n}b}": [{format_float(v[k].real)}, {format_float(v[k].imag)}]'
                     for k in order)
    path.write_text('{"n": %d, "amplitudes": {%s}}' % (n, amps))
    file_order = math.sqrt(sum(abs(v[k]) ** 2 for k in order))
    return file_order, file_order != math.sqrt(sum(abs(c) ** 2 for c in v.tolist()))


def test_unsorted_unnormalized_dense_file_names_its_norm_summed_in_file_order(tmp_path, capsys):
    circ = tmp_path / "h.json"
    circ.write_text('{"n": 6, "gates": [{"kind": "H", "qubits": [1]}]}')
    state = tmp_path / "state.json"
    moved = 0
    for seed in range(21):
        norm, order_matters = shuffled_state_file(state, np.random.default_rng(seed), 6, 1.000001)
        moved += order_matters
        assert run_cli(capsys, "simulate", "--circuit", str(circ), "--state", str(state),
                       "--out", str(tmp_path / "out.json")) == (
            2, "", f"error: state in {state} is not normalized (norm {format_float(norm)})\n")
    assert moved >= 3  # index order would print another norm for these files


def test_empty_circuit_on_unsorted_dense_file_prints_its_norm_in_file_order(tmp_path, capsys):
    circ = tmp_path / "empty.json"
    circ.write_text('{"n": 6, "gates": []}')
    state, out = tmp_path / "state.json", tmp_path / "out.json"
    moved = 0
    for seed in range(21):
        norm, order_matters = shuffled_state_file(state, np.random.default_rng(seed), 6, 1.0)
        moved += order_matters
        code, stdout, _ = run_cli(capsys, "simulate", "--circuit", str(circ),
                                  "--state", str(state), "--out", str(out))
        assert code == 0 and f"\nnorm: {format_float(norm)}\n" in stdout
        assert state_text(load_state(str(state))) == out.read_text()  # written in label order
    assert moved >= 3


def test_empty_circuit_returns_a_dense_file_byte_for_byte(tmp_path, capsys):
    circ = tmp_path / "empty.json"
    circ.write_text('{"n": 10, "gates": []}')
    state, out = tmp_path / "state.json", tmp_path / "out.json"
    save_state(str(state), HoloState(10, random_state_vector(np.random.default_rng(10), 10)))
    assert load_state(str(state)).vector is not None
    assert run_cli(capsys, "simulate", "--circuit", str(circ), "--state", str(state),
                   "--out", str(out))[0] == 0
    assert out.read_bytes() == state.read_bytes()


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


@pytest.mark.parametrize("t_final", ["0", "-1"])
def test_portrait_nonpositive_t_final_exits_2(tmp_path, capsys, t_final):
    out = tmp_path / "p"
    code, stdout, stderr = run_cli(capsys, "portrait", "--generator", "X",
                                   "--t-final", t_final, "--out-dir", str(out))
    assert (code, stdout, stderr) == (2, "", "error: --t-final must be > 0\n")
    assert not out.exists()


def test_portrait_bad_generator_exits_2(tmp_path, capsys):
    code, _, stderr = run_cli(capsys, "portrait", "--generator", "Q",
                              "--out-dir", str(tmp_path / "p"))
    assert code == 2


@pytest.mark.parametrize("offsets", ["1e308", "0,1e308"])
def test_portrait_start_with_an_infinite_phase_exits_2(tmp_path, capsys, offsets):
    out = tmp_path / "p"
    code, stdout, stderr = run_cli(capsys, "portrait", "--generator", "X", "--out-dir", str(out),
                                   "--offsets", offsets, "--deltas", "1e308")
    assert code == 2
    assert stdout == ""
    assert stderr == "error: torus phase phi_a of qubit 1 is not finite: inf\n"
    assert not out.exists()  # no start's file is written before every start is checked


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


@pytest.mark.parametrize("command", ["portrait", "classical-evolve"])
def test_time_grid_ratio_overflow_exits_2(tmp_path, capsys, command):
    out = tmp_path / "out"
    target = ["--out-dir", str(out)] if command == "portrait" else ["--out", str(out)]
    code, stdout, stderr = run_cli(capsys, command, "--generator", "X",
                                   "--t-final", "1e300", "--dt", "1e-300", *target)
    assert code == 2
    assert stdout == ""
    assert stderr == "error: t_final / dt = 1e+300 / 1e-300 overflows a float\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["portrait", "classical-evolve"])
def test_time_grid_above_step_cap_exits_2(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(holoqsim.torus, "MAX_FLOW_STEPS", 99)
    out = tmp_path / "out"
    target = ["--out-dir", str(out)] if command == "portrait" else ["--out", str(out)]
    code, stdout, stderr = run_cli(capsys, command, "--generator", "X",
                                   "--t-final", "1", "--dt", "0.01", *target)
    assert code == 2
    assert stdout == ""
    assert "asks for 100 steps, more than MAX_FLOW_STEPS = 99" in stderr
    assert not out.exists()


def test_time_grid_of_astronomical_step_count_exits_2_with_a_short_message(tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, stderr = run_cli(capsys, "portrait", "--generator", "X",
                                   "--out-dir", str(out), "--dt", "1e-300")
    assert (code, stdout) == (2, "")
    assert stderr == ("error: t_final / dt = 10.0 / 1e-300 asks for 1e+301 steps, "
                      "more than MAX_FLOW_STEPS = 10000000\n")
    assert len(stderr) < 200
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


def test_entanglement_refuses_too_many_restarts_before_allocating(tmp_path, monkeypatch, capsys):
    def empty(*_, **__):
        raise AssertionError("maximize_product_overlap started allocating its restarts")

    state = tmp_path / "zero.json"
    state.write_text(ZERO2)
    monkeypatch.setattr(holoqsim.geometry.np, "empty", empty)
    restarts = 10 ** 12
    assert restarts > holoqsim.geometry.MAX_RESTARTS
    assert run_cli(capsys, "entanglement", "--state", str(state), "--restarts",
                   str(restarts)) == (2, "", f"error: {restarts} restarts exceed "
                                             f"MAX_RESTARTS = {holoqsim.geometry.MAX_RESTARTS}\n")


def test_entanglement_takes_up_to_max_restarts(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(holoqsim.geometry, "MAX_RESTARTS", 3)
    state = tmp_path / "zero.json"
    state.write_text(ZERO2)
    out = tmp_path / "ent.json"
    code, _, _ = run_cli(capsys, "entanglement", "--state", str(state), "--restarts", "3",
                         "--out", str(out))
    assert code == 0 and len(json.loads(out.read_text())["restarts"]) == 3
    assert run_cli(capsys, "entanglement", "--state", str(state), "--restarts", "4") == (
        2, "", "error: 4 restarts exceed MAX_RESTARTS = 3\n")


@pytest.mark.parametrize("seed", ["-1", "-123456789012345678901"])
def test_entanglement_negative_seed_exits_2(tmp_path, capsys, seed):
    state = tmp_path / "bell.json"
    state.write_text(ZERO2)
    code, stdout, stderr = run_cli(capsys, "entanglement", "--state", str(state),
                                   "--seed", seed)
    assert code == 2
    assert stdout == ""
    assert f"--seed must be >= 0, got {seed}" in stderr


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
        (("--loop", str(loop)), f"error: {loop}: consecutive overlap at segment 0 has "
                                "magnitude 0; loop too coarse for a well-defined holonomy\n"),
        (("--theta", "1.0", "--samples", "10"), "error: need at least 16 segments\n"),
        (("--theta", "nan"), "error: theta must be a finite angle, got nan\n"),
        (("--theta", "inf", "--samples", "20"), "error: theta must be a finite angle, got inf\n"),
        (("--loop", str(wide)), f"error: {wide}: {n} qubits exceed the "
                                f"{MAX_DENSE_QUBITS}-qubit limit for dense 2^N amplitude "
                                "vectors\n"),
        (("--loop", str(unnormalized)), f"error: {unnormalized}: loop state is not "
                                        "normalized: |norm - 1| = 0.5 exceeds 1e-10\n"),
    ]
    for args, message in cases:
        assert run_cli(capsys, "holonomy", *args) == (2, "", message)


def test_holonomy_theta_refuses_too_many_segments_before_building_them(monkeypatch, capsys):
    def empty(*_, **__):
        raise AssertionError("bloch_circle_loop started building its rows")

    monkeypatch.setattr(holoqsim.geometry.np, "empty", empty)
    samples = holoqsim.geometry.MAX_LOOP_SEGMENTS + 1
    tracemalloc.start()
    try:
        result = run_cli(capsys, "holonomy", "--theta", "1", "--samples", str(samples))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (2, "", f"error: {samples} segments exceed "
                             f"MAX_LOOP_SEGMENTS = {samples - 1}\n")
    assert peak < 2 ** 20


def test_holonomy_theta_takes_up_to_max_loop_segments(monkeypatch, capsys):
    monkeypatch.setattr(holoqsim.geometry, "MAX_LOOP_SEGMENTS", 20)
    code, stdout, _ = run_cli(capsys, "holonomy", "--theta", "1", "--samples", "20")
    assert code == 0 and "segments: 20\n" in stdout
    assert run_cli(capsys, "holonomy", "--theta", "1", "--samples", "21")[0] == 2


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


def test_classical_evolve_first_row_is_the_start_point(tmp_path, capsys):
    out = tmp_path / "evo.csv"
    code, stdout, _ = run_cli(capsys, "classical-evolve", "--generator", "X", "--out", str(out))
    assert code == 0
    first = out.read_text().splitlines()[1].split(", ")
    assert first == ["0", "1", "0", "0", "0", "0", "1"]
    assert stdout.splitlines()[-1] == f"initial energy: {first[5]}"


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
        # Row t = 0 is z0 itself: propagator(ham, 0.0) is the identity only to rounding.
        zt = z if t == 0 else ((evecs * np.exp(-1j * evals * t)) @ evecs.conj().T) @ z
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
    (["simulate", "--circuit", "{circuit}", "--state", "{utf16}",
      "--out", "{file}.out"], "{utf16}"),
    (["holonomy", "--loop", "{utf16}"], "{utf16}"),
])
def test_unusable_path_exits_2_naming_it(bell_files, tmp_path, capsys, argv, bad):
    circ, state = bell_files
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    (tmp_path / "utf16").write_bytes(b'\xff\xfe{"n": 1}')  # a UTF-16 byte-order mark
    names = {"file": str(tmp_path / "file"), "dir": str(tmp_path / "dir"),
             "missing": str(tmp_path / "missing"), "circuit": circ, "state": state,
             "utf16": str(tmp_path / "utf16")}
    code, _, stderr = run_cli(capsys, *(a.format(**names) for a in argv))
    assert code == 2
    assert stderr.startswith("error:")
    assert bad.format(**names) in stderr
    assert ".tmp-" not in stderr
    assert not [p for p in tmp_path.rglob(".tmp-*")]


def _tree(root: Path) -> dict[str, bytes | None]:
    """Every path under root, with its bytes, or None for a directory."""
    return {str(p.relative_to(root)): None if p.is_dir() else p.read_bytes()
            for p in root.rglob("*")}


_OUT_ARGV = {
    "simulate": ["simulate", "--circuit", "{circuit}", "--state", "{state}", "--out"],
    "diff": ["diff", "--circuit", "{circuit}", "--state", "{state}", "--out"],
    "entanglement": ["entanglement", "--state", "{state}", "--restarts", "1", "--out"],
    "classical-evolve": ["classical-evolve", "--generator", "X", "--t-final", "0.1", "--out"],
    "portrait": ["portrait", "--generator", "X", "--t-final", "0.1", "--out-dir"],
}


# An existing directory and a path under a missing one, for each --out; an
# existing file for portrait's --out-dir, the one output that must be a directory.
@pytest.mark.parametrize("command, target, message", [
    *[(command, target, message)
      for command in ("simulate", "diff", "entanglement", "classical-evolve")
      for target, message in (("dir", "[Errno 21] Is a directory"),
                              ("missing/x", "[Errno 2] No such file or directory"))],
    ("portrait", "file", "[Errno 17] File exists"),
])
def test_unusable_output_path_exits_2_and_leaves_the_tree_as_it_was(
        bell_files, tmp_path, capsys, command, target, message):
    circ, state = bell_files
    (tmp_path / "file").write_bytes(b"kept\n")
    (tmp_path / "dir").mkdir()
    path = str(tmp_path / target)
    before = _tree(tmp_path)
    code, stdout, stderr = run_cli(
        capsys, *(a.format(circuit=circ, state=state) for a in _OUT_ARGV[command]), path)
    assert (code, stdout, stderr) == (2, "", f"error: {message}: {path!r}\n")
    assert _tree(tmp_path) == before  # no temp file, no new directory, same bytes


@pytest.mark.parametrize("text, argv, message", [
    ('{"n": 2, "gates": {}}',
     ["simulate", "--circuit", "{bad}", "--state", "{state}", "--out", "{out}"],
     '"gates" must be a list'),
    ('{"n": 2, "amplitudes": [[1, 0]]}',
     ["simulate", "--circuit", "{circuit}", "--state", "{bad}", "--out", "{out}"],
     "amplitudes must be an object"),
    ('{"n": 1, "states": {}}', ["holonomy", "--loop", "{bad}"], '"states" must be a list'),
])
def test_file_with_a_container_of_the_wrong_type_exits_2(bell_files, tmp_path, capsys,
                                                          text, argv, message):
    circ, state = bell_files
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    out = tmp_path / "out.json"
    argv = [a.format(bad=bad, circuit=circ, state=state, out=out) for a in argv]
    assert run_cli(capsys, *argv) == (2, "", f"error: {bad}: {message}\n")
    assert not out.exists()


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


# -- the parser -------------------------------------------------------

# Argv tails that each command's parser accepts: every option given, and
# the required options alone, so that every default is taken.
VALID_TAILS = {
    "simulate": ["--circuit", "c.json", "--state", "s.json", "--out", "o.json"],
    "diff": ["--circuit", "c.json", "--state", "s.json", "--tol", "1e-6", "--out", "r.txt"],
    "portrait": ["--generator", "y", "--out-dir", "d", "--dt", "0.1", "--t-final", "1",
                 "--offsets", "0,1", "--deltas", "0"],
    "entanglement": ["--state", "s.json", "--out", "e.json", "--seed", "3", "--restarts", "2",
                     "--tol", "0"],
    "holonomy": ["--loop", "l.json", "--theta", "1", "--samples", "20"],
    "classical-evolve": ["--generator", "Z", "--t-final", "1", "--dt", "0.1",
                         "--z0", "1,0,0,0", "--qubit", "1", "--out", "o.csv"],
}
REQUIRED_TAILS = {
    "simulate": VALID_TAILS["simulate"],
    "diff": ["--circuit", "c.json", "--state", "s.json"],
    "portrait": ["--generator", "X", "--out-dir", "d"],
    "entanglement": ["--state", "s.json"],
    "holonomy": [],
    "classical-evolve": ["--generator", "X", "--out", "o.csv"],
}
# Usage errors and help, per command.
BAD_TAILS = [
    ("simulate", ["--circuit", "c.json", "--state", "s.json"]),  # a missing required option
    ("diff", ["--state", "s.json"]),
    ("portrait", ["--generator", "X"]),
    ("entanglement", []),
    ("classical-evolve", ["--out", "o.csv"]),
    *((name, [*tail, "--bogus"]) for name, tail in VALID_TAILS.items()),  # an unknown option
    ("diff", ["--circuit", "c", "--state", "s", "--tol", "nan"]),  # a bad type= value
    ("entanglement", ["--state", "s", "--restarts", "x"]),
    ("portrait", ["--generator", "X", "--out-dir", "d", "--dt", "x"]),
    ("holonomy", ["--samples", "1.5"]),
    ("classical-evolve", ["--generator", "X", "--out", "o", "--qubit", "x"]),
    ("portrait", ["--generator", "Q", "--out-dir", "d"]),  # a bad choices value
    ("classical-evolve", ["--generator", "xy", "--out", "o"]),
    ("diff", ["--circuit", "c", "--state", "s", "--tol"]),  # an option with no value
    *((name, ["-h"]) for name in VALID_TAILS),
]


def parsed(parser, argv):
    """(exit code, stdout, stderr, namespace) of parsing argv; code None on success."""
    stdout, stderr = io.StringIO(), io.StringIO()
    args = code = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue(), args


def test_the_full_parser_has_every_command():
    assert list(COMMANDS) == list(VALID_TAILS)
    for name, tail in VALID_TAILS.items():
        assert parsed(build_parser(), [name, *tail])[3].func is getattr(
            holoqsim.cli, "cmd_" + name.replace("-", "_"))


@pytest.mark.parametrize("argv", [[name, *tails[name]] for tails in (VALID_TAILS, REQUIRED_TAILS)
                                  for name in VALID_TAILS], ids=" ".join)
def test_one_command_parser_gives_the_full_parsers_namespace(argv):
    one = parsed(build_parser(argv[0]), argv)
    assert one[:3] == (None, "", "")
    assert one == parsed(build_parser(), argv)


@pytest.mark.parametrize("argv", [[name, *tail] for name, tail in BAD_TAILS], ids=" ".join)
def test_one_command_parser_refuses_and_helps_as_the_full_one(argv):
    one = parsed(build_parser(argv[0]), argv)
    assert one[0] in (0, 2) and one[1] + one[2]
    assert one == parsed(build_parser(), argv)


# Argv heads: every command, and the heads that only the full parser sees.
HEADS = (*COMMANDS, "nosuch", "Simulate", "sim", "--bogus", "-h", "--", "")
TOKENS = (*sorted({t for tail in VALID_TAILS.values() for t in tail if t.startswith("--")}),
          "1", "0.5", "-1", "nan", "x", "X", "Q", "a.json", "--bogus", "-h", "--")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(HEADS), st.lists(st.sampled_from(TOKENS), max_size=8))
def test_parsers_agree_on_drawn_argv(head, tail):
    argv = [head, *tail]
    full = parsed(build_parser(), argv)
    if head in COMMANDS:
        assert parsed(build_parser(head), argv) == full
    else:  # the full parser's errors name the command argument "command"
        assert "argument {" not in full[2] and "required: {" not in full[2]


def test_main_reads_sys_argv_when_given_none(monkeypatch, capsys):
    argv = ["holonomy", "--theta", "1", "--samples", "20"]
    expected = run_cli(capsys, *argv)
    monkeypatch.setattr(sys, "argv", ["holoqsim", *argv])
    assert main() == expected[0]
    assert capsys.readouterr()[:] == expected[1:]


def test_python_dash_m_runs_the_cli_module():
    # `python -m holoqsim.cli`, as the README offers, reaches main() through the
    # module's __main__ line.  COLUMNS keeps argparse's help on one line per command.
    src = str(Path(holoqsim.cli.__file__).parents[1])
    env = {**os.environ, "COLUMNS": "200",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "holoqsim.cli", *argv],
                              capture_output=True, text=True, env=env)

    helped = run("--help")
    assert helped.returncode == 0, helped.stderr
    for name in ("simulate", "diff", "portrait", "entanglement", "holonomy", "classical-evolve"):
        assert re.search(rf"^    {name} +[a-z]", helped.stdout, re.MULTILINE), name
    refused = run("nosuch")
    assert refused.returncode == 2
    assert "argument command: invalid choice: 'nosuch'" in refused.stderr


@pytest.mark.parametrize("name", VALID_TAILS)
def test_main_calls_the_command_function_bound_on_the_module_at_call_time(monkeypatch, name):
    monkeypatch.setattr(holoqsim.cli, "cmd_" + name.replace("-", "_"), lambda args: 7)
    assert main([name, *VALID_TAILS[name]]) == 7
