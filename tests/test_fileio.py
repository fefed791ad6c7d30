"""File formats: states, circuits, loops, trajectories."""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from holoqsim import (
    Circuit,
    FlowSpec,
    GateSpec,
    TorusPoint,
    encode_state,
    integrate_flow,
    load_circuit,
    load_loop,
    load_state,
    save_circuit,
    save_state,
    save_trajectory,
)
from holoqsim.fileio import FormatError, dump_json_text, format_float, trajectory_csv_text

SQ2 = math.sqrt(2.0)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# -- states -----------------------------------------------------------


def test_state_round_trip(tmp_path):
    psi = encode_state(np.array([1, 0, 0, 1j], dtype=complex) / SQ2)
    path = str(tmp_path / "state.json")
    save_state(path, psi)
    back = load_state(path)
    assert back == psi


def test_state_file_shape(tmp_path):
    psi = encode_state(np.array([1.0, 0.0]))
    path = str(tmp_path / "state.json")
    save_state(path, psi)
    doc = json.loads(Path(path).read_text())
    assert doc["n"] == 1
    assert doc["amplitudes"] == {"0": [1.0, 0.0]}


def test_state_rejects_duplicate_keys(tmp_path):
    path = write(tmp_path, "dup.json",
                 '{"n": 1, "amplitudes": {"0": [1.0, 0.0], "0": [0.0, 0.0]}}')
    with pytest.raises(FormatError, match="duplicate"):
        load_state(path)


def test_state_rejects_bad_bitstring(tmp_path):
    path = write(tmp_path, "bad.json",
                 '{"n": 2, "amplitudes": {"012": [1.0, 0.0]}}')
    with pytest.raises(FormatError):
        load_state(path)
    path = write(tmp_path, "bad2.json",
                 '{"n": 2, "amplitudes": {"0x": [1.0, 0.0]}}')
    with pytest.raises(FormatError):
        load_state(path)


def test_state_rejects_malformed_amplitude(tmp_path):
    path = write(tmp_path, "bad3.json",
                 '{"n": 1, "amplitudes": {"0": [1.0]}}')
    with pytest.raises(FormatError):
        load_state(path)
    path = write(tmp_path, "bad4.json",
                 '{"n": 1, "amplitudes": {"0": "one"}}')
    with pytest.raises(FormatError):
        load_state(path)


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_state_rejects_non_finite_amplitude(tmp_path, value):
    path = write(tmp_path, "nan.json",
                 '{"n": 1, "amplitudes": {"0": [1, 0], "1": [%s, 0]}}' % value)
    with pytest.raises(FormatError, match="not finite"):
        load_state(path)


def test_state_rejects_missing_keys(tmp_path):
    path = write(tmp_path, "bad5.json", '{"amplitudes": {}}')
    with pytest.raises(FormatError):
        load_state(path)


def test_state_rejects_invalid_json_with_location(tmp_path):
    path = write(tmp_path, "broken.json", '{"n": 1, "amplitudes": {]}')
    with pytest.raises(FormatError, match="line"):
        load_state(path)


def test_state_missing_file():
    with pytest.raises(FormatError):
        load_state("/nonexistent/state.json")


# -- circuits ---------------------------------------------------------


def test_circuit_round_trip(tmp_path):
    circ = Circuit(2, (GateSpec("H", (1,)),
                       GateSpec("CU", (1, 2), np.array([[0, 1j], [1j, 0]]))))
    path = str(tmp_path / "circ.json")
    save_circuit(path, circ)
    back = load_circuit(path)
    assert back.nqubits == 2
    assert back.gates[0].kind == "H"
    assert np.max(np.abs(back.gates[1].u - circ.gates[1].u)) < 1e-16


def test_circuit_rejects_unknown_kind(tmp_path):
    path = write(tmp_path, "bad.json",
                 '{"n": 1, "gates": [{"kind": "FROB", "qubits": [1]}]}')
    with pytest.raises(FormatError, match="FROB"):
        load_circuit(path)


def test_circuit_rejects_out_of_range_qubit(tmp_path):
    path = write(tmp_path, "bad2.json",
                 '{"n": 1, "gates": [{"kind": "X", "qubits": [2]}]}')
    with pytest.raises(FormatError):
        load_circuit(path)


def test_circuit_rejects_nonunitary_block(tmp_path):
    path = write(tmp_path, "bad3.json",
                 '{"n": 2, "gates": [{"kind": "CU", "qubits": [1, 2], '
                 '"u": [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}]}')
    with pytest.raises(FormatError, match="unitary"):
        load_circuit(path)


def test_circuit_rejects_stray_block(tmp_path):
    path = write(tmp_path, "bad4.json",
                 '{"n": 1, "gates": [{"kind": "X", "qubits": [1], '
                 '"u": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}]}')
    with pytest.raises(FormatError):
        load_circuit(path)


def test_circuit_rejects_bad_qubits_field(tmp_path):
    path = write(tmp_path, "bad5.json",
                 '{"n": 1, "gates": [{"kind": "X", "qubits": "1"}]}')
    with pytest.raises(FormatError):
        load_circuit(path)


# -- loops ------------------------------------------------------------


def test_loop_round_trip(tmp_path):
    states = []
    m = 24
    for k in range(m + 1):
        phi = 2 * math.pi * (k % m) / m
        states.append({"0": [1 / SQ2, 0.0],
                       "1": [math.cos(phi) / SQ2, math.sin(phi) / SQ2]})
    doc = {"n": 1, "states": states}
    path = write(tmp_path, "loop.json", json.dumps(doc))
    loop = load_loop(path)
    assert loop.segments == m


def test_loop_rejects_open(tmp_path):
    states = [{"0": [1.0, 0.0]}] * 20 + [{"1": [1.0, 0.0]}]
    path = write(tmp_path, "open.json", json.dumps({"n": 1, "states": states}))
    with pytest.raises(FormatError):
        load_loop(path)


@pytest.mark.parametrize("load, key", [(load_state, "amplitudes"),
                                       (load_circuit, "gates"), (load_loop, "states")])
def test_loaders_share_register_header_checks(tmp_path, load, key):
    cases = [
        ("[1]", "document must be a JSON object"),
        ('{"n": 1}', f'required keys are "n" and "{key}"'),
        ('{"n": true, "%s": []}' % key, '"n" must be a positive integer'),
        ('{"n": 0, "%s": []}' % key, '"n" must be a positive integer'),
    ]
    for text, message in cases:
        path = write(tmp_path, "doc.json", text)
        with pytest.raises(FormatError) as err:
            load(path)
        assert str(err.value) == f"{path}: {message}"


# -- trajectories -----------------------------------------------------


def test_trajectory_csv_layout(tmp_path):
    traj = integrate_flow(FlowSpec("Z", 1, 0.2, 0.1), TorusPoint((1.0, 2.0)))
    path = str(tmp_path / "traj.csv")
    save_trajectory(path, traj)
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "t, phi_a_1, phi_b_1, sum_phase_1"
    assert len(lines) == 1 + traj.nsamples
    first = [float(x) for x in lines[1].split(",")]
    assert first == [0.0, 1.0, 2.0, 3.0]


def test_trajectory_floats_round_trip(tmp_path):
    traj = integrate_flow(FlowSpec("X", 1, 0.3, 0.07), TorusPoint((0.4, 5.1)))
    path = str(tmp_path / "traj.csv")
    save_trajectory(path, traj)
    lines = Path(path).read_text().splitlines()[1:]
    for i, line in enumerate(lines):
        vals = [float(x) for x in line.split(",")]
        assert vals[1] == traj.phases[i, 0]  # 17 sig digits round-trip exactly
        assert vals[3] == traj.sum_phases[i, 0]


def test_trajectory_csv_equals_per_element_format():
    traj = integrate_flow(FlowSpec("Y", 2, 1.005, 0.01), TorusPoint((0.4, 5.1, 2.2, 0.7)))
    rows = [", ".join([format_float(traj.times[i])]
                      + [format_float(x) for x in traj.phases[i]]
                      + [format_float(x) for x in traj.sum_phases[i]])
            for i in range(traj.nsamples)]
    assert trajectory_csv_text(traj).splitlines()[1:] == rows


# -- writers ----------------------------------------------------------


def test_format_float_17_digits():
    assert format_float(math.pi) == "3.1415926535897931"
    assert float(format_float(1.0 / 3.0)) == 1.0 / 3.0


def test_dump_json_parses_and_preserves_floats():
    obj = {"x": 1.0 / 3.0, "list": [1, 2.5, "s"], "flag": True, "none": None}
    text = dump_json_text(obj)
    back = json.loads(text)
    assert back["x"] == 1.0 / 3.0
    assert back["list"] == [1, 2.5, "s"]
    assert back["flag"] is True and back["none"] is None


def test_atomic_write_leaves_no_temp_files(tmp_path):
    psi = encode_state(np.array([1.0, 0.0]))
    path = str(tmp_path / "out.json")
    save_state(path, psi)
    save_state(path, psi)  # overwrite through rename
    assert [f for f in os.listdir(tmp_path) if f != "out.json"] == []
