"""File formats: states, circuits, loops, trajectories."""

import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from holoqsim.cli import DEFAULT_DELTAS, DEFAULT_OFFSETS, main
from holoqsim.diffop import GATE_ARITY, dense_crossover, haar_random_unitary
from holoqsim.fileio import (
    FormatError,
    _complex_pair,
    _load_json,
    column_texts,
    csv_text,
    dump_json_text,
    format_float,
    state_text,
    trajectory_csv_text,
)
from holoqsim.holostate import HoloState
from holoqsim.torus import Trajectory

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
    with pytest.raises(FormatError) as refusal:
        load_state(path)
    assert str(refusal.value) == f"{path}: duplicate key '0' in JSON object"


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


# Values a [re, im] pair may not hold: bools, strings, a bare string, a
# wrong length, and anything that is not a list.
NON_NUMBER_PAIRS = ["[true, false]", "[1, true]", '["1", "0"]', '"10"', "[1, 0, 5]",
                    "[1]", "{}", "null", "[[1], 0]"]


@pytest.mark.parametrize("pair", NON_NUMBER_PAIRS)
def test_state_and_loop_refuse_non_number_pair(tmp_path, pair):
    path = write(tmp_path, "state.json", '{"n": 1, "amplitudes": {"0": %s}}' % pair)
    with pytest.raises(FormatError) as err:
        load_state(path)
    assert str(err.value) == f"{path}: amplitude of '0' must be a [real, imag] pair"
    path = write(tmp_path, "loop.json", '{"n": 1, "states": [{"1": %s}]}' % pair)
    with pytest.raises(FormatError) as err:
        load_loop(path)
    assert str(err.value) == f"{path}: state 0: amplitude of '1' must be a [real, imag] pair"


# Two-qubit amplitude maps that HoloState refuses: labels too short, too
# long or not 0/1, and values that are not finite (1e999 parses as inf).
BAD_AMPLITUDE_MAPS = [
    ('{"0": [1, 0]}', "bad basis label '0' for 2 qubit(s)"),
    ('{"000": [1, 0]}', "bad basis label '000' for 2 qubit(s)"),
    ('{"02": [1, 0]}', "bad basis label '02' for 2 qubit(s)"),
    ('{"01": [NaN, 0]}', "amplitude of '01' is not finite: (nan+0j)"),
    ('{"01": [0, Infinity]}', "amplitude of '01' is not finite: infj"),
    ('{"01": [1e999, 0]}', "amplitude of '01' is not finite: (inf+0j)"),
]


@pytest.mark.parametrize("amps, message", BAD_AMPLITUDE_MAPS,
                         ids=["short", "long", "digit-2", "nan", "infinity", "1e999"])
def test_state_loop_and_holostate_refuse_bad_map_alike(tmp_path, amps, message):
    with pytest.raises(ValueError) as err:
        HoloState(2, {bits: complex(*pair) for bits, pair in json.loads(amps).items()})
    assert str(err.value) == message
    path = write(tmp_path, "state.json", '{"n": 2, "amplitudes": %s}' % amps)
    with pytest.raises(FormatError) as err:
        load_state(path)
    assert str(err.value) == f"{path}: {message}"
    path = write(tmp_path, "loop.json", '{"n": 2, "states": [%s]}' % amps)
    with pytest.raises(FormatError) as err:
        load_loop(path)
    assert str(err.value) == f"{path}: state 0: {message}"


@pytest.mark.parametrize("cell", NON_NUMBER_PAIRS)
def test_cu_refuses_non_number_cell(tmp_path, cell):
    path = write(tmp_path, "circ.json",
                 '{"n": 2, "gates": [{"kind": "X", "qubits": [1]}, '
                 '{"kind": "CU", "qubits": [1, 2], '
                 '"u": [[[1, 0], [0, 0]], [[0, 0], %s]]}]}' % cell)
    with pytest.raises(FormatError) as err:
        load_circuit(path)
    assert str(err.value) == f'{path}: gate 1: a "u" entry must be a [real, imag] pair'


def test_integer_pairs_load_as_numbers(tmp_path):
    path = write(tmp_path, "state.json",
                 '{"n": 2, "amplitudes": {"01": [0, 1], "10": [-0.0, 0]}}')
    assert load_state(path).amplitudes == {"01": 1j}
    path = write(tmp_path, "circ.json",
                 '{"n": 2, "gates": [{"kind": "CU", "qubits": [2, 1], '
                 '"u": [[[0, 0], [1, 0]], [[1, 0], [0.0, 0]]]}]}')
    assert np.array_equal(load_circuit(path).gates[0].u, [[0, 1], [1, 0]])


# -- dense state files ------------------------------------------------


def state_file_text(n, entries):
    """A state file holding (label, (re, im)) entries in the order given, floats as "%.17g"."""
    amps = ", ".join(f'"{bits}": [{format_float(re)}, {format_float(im)}]'
                     for bits, (re, im) in entries)
    return '{"n": %d, "amplitudes": {%s}}' % (n, amps)


def map_form(text):
    """The state as the map path reads a file: complex(re, im) of each pair, in file order."""
    doc = json.loads(text, parse_int=lambda token: -0.0 if token == "-0" else int(token))
    return HoloState(doc["n"], {bits: complex(*pair) for bits, pair in doc["amplitudes"].items()})


def exact_state_items(state):
    return [(bits, c.real.hex(), c.imag.hex()) for bits, c in state.amplitudes.items()]


# Parts that a file may hold: signed zeros, integer tokens, an entry at ZERO_TOL's
# scale on each side, and an all-zero entry.  The small and zero ones are pruned.
EDGE_PAIRS = [(-0.0, 0.6), (0.8, -0.0), (1.0, 0.0), (-0.0, -0.0), (1e-15, -0.0),
              (3e-15, 1e-14), (2.0, -1.0)]


@pytest.mark.parametrize("n", [3, 6, 9])
def test_ascending_dense_file_loads_as_a_vector_equal_to_its_map(tmp_path, n):
    rng = np.random.default_rng(n)
    pairs = [tuple(p) for p in rng.standard_normal((2 ** n, 2)).tolist()]
    for k, pair in zip(rng.choice(2 ** n, len(EDGE_PAIRS), replace=False), EDGE_PAIRS):
        pairs[k] = pair
    text = state_file_text(n, [(format(k, f"0{n}b"), pair) for k, pair in enumerate(pairs)])
    got, ref = load_state(write(tmp_path, "dense.json", text)), map_form(text)
    assert got.vector is not None and ref.vector is None
    assert exact_state_items(got) == exact_state_items(ref)
    assert got.norm().hex() == ref.norm().hex()
    assert state_text(got) == state_text(ref)


def test_short_or_unsorted_dense_files_load_as_maps(tmp_path):
    n = 9  # the crossover is 8 + 512 // 256 = 10 entries
    rng = np.random.default_rng(90)
    labels = [format(k, f"0{n}b") for k in sorted(rng.choice(2 ** n, 10, replace=False))]
    pairs = [tuple(p) for p in rng.standard_normal((10, 2)).tolist()]
    for entries, dense in ((zip(labels, pairs), True), (zip(labels[1:], pairs[1:]), False),
                           (zip(labels[::-1], pairs), False)):
        text = state_file_text(n, entries)
        got = load_state(write(tmp_path, "state.json", text))
        assert (got.vector is not None) == dense
        assert exact_state_items(got) == exact_state_items(map_form(text))


def assert_same_state(got, ref):
    """Items in order and norm by float.hex, and the written text."""
    assert exact_state_items(got) == exact_state_items(ref)
    assert got.norm().hex() == ref.norm().hex()
    assert state_text(got) == state_text(ref)


def test_integer_tokens_in_an_ascending_dense_file_read_as_the_map_path_reads_them(tmp_path):
    # 2^53 + 1 rounds to 2^53 as a float; "-0" is the writers' -0.0.
    tokens = ["9007199254740993", "-0", "-9007199254740993", "1", "0", "3" * 300]
    amps = ", ".join(f'"{k:04b}": [{tokens[k % 6]}, {tokens[(k + 1) % 6]}]' for k in range(16))
    text = '{"n": 4, "amplitudes": {%s}}' % amps
    got = load_state(write(tmp_path, "ints.json", text))
    assert got.vector is not None
    assert_same_state(got, map_form(text))


def test_dense_file_unsorted_only_at_a_pruned_entry_loads_as_its_map(tmp_path):
    entries = [(f"{k:04b}", (0.25, 0.0)) for k in range(16) if k != 9]
    entries.insert(3, ("1001", (1e-15, 0.0)))
    text = state_file_text(4, entries)
    got = load_state(write(tmp_path, "state.json", text))
    assert got.vector is None  # the labels do not ascend, though the kept ones do
    assert_same_state(got, map_form(text))


def per_entry_load(path):
    """load_state as the per-entry path reads any file: every pair, then a map."""
    doc = _load_json(path)
    amps = {bits: _complex_pair(pair, path, "amplitude of %r", bits)
            for bits, pair in doc["amplitudes"].items()}
    try:
        return HoloState(doc["n"], amps)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


# Values and labels a corrupted entry may take, as JSON text.
CORRUPT_PAIRS = ["[true, 0]", "[1]", "[1, 0, 0]", '["1", 0]', "[null, 0]", "[[1], 0]", "{}",
                 "[NaN, 0]", "[0, Infinity]", "[-Infinity, 0]", "[1e999, 0]",
                 "[1%s, 0]" % ("0" * 400), "[9007199254740993, -0]", "[1e-15, -0.0]", "[0, 0]"]
CORRUPT_LABELS = ["x", "_", " ", "+", "2", "\\u0660", "\\u0661"]


def corrupted_dense_file(rng, n):
    """An ascending n-qubit file with one to three corruptions, and its entries."""
    entries = [[f"{k:0{n}b}", json.dumps(p)] for k, p in enumerate(
        rng.standard_normal((2 ** n, 2)).tolist())]
    for _ in range(rng.integers(1, 4)):
        k, kind = int(rng.integers(len(entries))), rng.integers(5)
        if kind == 0:
            entries[k][1] = CORRUPT_PAIRS[rng.integers(len(CORRUPT_PAIRS))]
        elif kind == 1:  # a bad character
            pos, label = rng.integers(n), entries[k][0]
            bad = CORRUPT_LABELS[rng.integers(len(CORRUPT_LABELS))]
            entries[k][0] = label[:pos] + bad + label[pos + 1:]
        elif kind == 2:  # a label one character short or long
            entries[k][0] = entries[k][0][1:] if rng.integers(2) else entries[k][0] + "0"
        elif kind == 3:  # two entries swapped
            j = int(rng.integers(len(entries)))
            entries[k], entries[j] = entries[j], entries[k]
        else:  # entries dropped, below the crossover or not
            del entries[k:k + int(rng.integers(1, len(entries)))]
    text = '{"n": %d, "amplitudes": {%s}}' % (n, ", ".join(f'"{b}": {p}' for b, p in entries))
    return text, entries


@pytest.mark.parametrize("n", [4, 8])
def test_corrupted_dense_files_load_as_the_per_entry_path_loads_them(tmp_path, n):
    rng = np.random.default_rng(n)
    outcomes = set()
    for _ in range(100):
        text, entries = corrupted_dense_file(rng, n)
        path = write(tmp_path, "state.json", text)
        try:
            ref = per_entry_load(path)
        except FormatError as exc:
            with pytest.raises(FormatError) as err:
                load_state(path)
            assert str(err.value) == str(exc)
            outcomes.add("refused")
            continue
        got = load_state(path)
        labels = [int(bits, 2) for bits, _ in entries]
        dense = len(entries) >= dense_crossover(n) and labels == sorted(labels)
        assert (got.vector is not None) == dense
        assert_same_state(got, ref)
        outcomes.add("vector" if dense else "map")
    assert outcomes == {"refused", "vector", "map"}


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


# Gate entries of the right JSON shape whose values GateSpec refuses.
IDENTITY_U = '"u": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]'
BAD_GATE_ENTRIES = [
    ('{"kind": "FROB", "qubits": [1]}', "unknown gate kind 'FROB'"),
    ('{"kind": ["X"], "qubits": [1]}', "unknown gate kind ['X']"),
    ('{"qubits": [1]}', "unknown gate kind None"),
    ('{"kind": "X", "qubits": [1.5]}', "qubit indices must be integers, got (1.5,)"),
    ('{"kind": "CNOT", "qubits": [true, 2]}',
     "qubit indices must be integers, got (True, 2)"),
    ('{"kind": "X", "qubits": [1], %s}' % IDENTITY_U, "X does not take a unitary block"),
    ('{"kind": "CU", "qubits": [1, 2]}', "CU requires a 2x2 unitary block"),
    ('{"kind": 7, "qubits": [1]}', "unknown gate kind 7"),
    ('{"kind": null, "qubits": [1]}', "unknown gate kind None"),
    ('{"kind": "CZ", "qubits": [1, false]}',
     "qubit indices must be integers, got (1, False)"),
    ('{"kind": "X", "qubits": [0]}', "qubit indices are 1-based, got (0,)"),
    ('{"kind": "CNOT", "qubits": [2, -1]}', "qubit indices are 1-based, got (2, -1)"),
    ('{"kind": "SWAP", "qubits": [2, 2]}', "repeated qubit in (2, 2)"),
    ('{"kind": "X", "qubits": [1, 2]}', "X takes 1 qubit(s), got (1, 2)"),
    ('{"kind": "CNOT", "qubits": [1]}', "CNOT takes 2 qubit(s), got (1,)"),
    ('{"kind": "H", "qubits": []}', "H takes 1 qubit(s), got ()"),
    ('{"kind": "CU", "qubits": [1, 2], "u": [[[2, 0], [0, 0]], [[0, 0], [1, 0]]]}',
     "CU block is not a finite unitary within 1e-10"),
    ('{"kind": "H", "qubits": [1, 1]}', "H takes 1 qubit(s), got (1, 1)"),
    ('{"kind": "CZ", "qubits": [1, 2, 2]}', "CZ takes 2 qubit(s), got (1, 2, 2)"),
]
BAD_GATE_IDS = ["unknown", "list-kind", "no-kind", "float-qubit", "bool-qubit", "stray-u",
                "cu-without-u", "int-kind", "null-kind", "bool-second-qubit", "zero-qubit",
                "negative-qubit", "repeated-qubit", "arity-1", "arity-2", "no-qubits",
                "non-unitary-u", "arity-1-repeated", "arity-2-repeated"]


@pytest.mark.parametrize("entry, message", BAD_GATE_ENTRIES, ids=BAD_GATE_IDS)
def test_circuit_and_gatespec_refuse_bad_gate_alike(tmp_path, entry, message):
    doc = json.loads(entry)
    u = np.array([[complex(*c) for c in row] for row in doc["u"]]) if "u" in doc else None
    with pytest.raises(ValueError) as err:
        GateSpec(doc.get("kind"), tuple(doc["qubits"]), u)
    assert str(err.value) == message
    path = write(tmp_path, "circ.json", '{"n": 2, "gates": [%s]}' % entry)
    with pytest.raises(FormatError) as err:
        load_circuit(path)
    assert str(err.value) == f"{path}: gate 0: {message}"


# Gate entries that the loader refuses before GateSpec sees them, each with
# its message after "gate <index>".
LOADER_GATE_REFUSALS = [
    ('[1]', " must be an object"),
    ('{"kind": "X"}', ': "qubits" must be a list'),
    ('{"kind": "X", "qubits": 1}', ': "qubits" must be a list'),
    ('{"kind": "CU", "qubits": [1, 2], "u": [1, 0]}',
     ': "u" must be a 2x2 matrix of [re, im] pairs'),
    ('{"kind": "CU", "qubits": [1, 2], "u": [[[1, 0], [0, 0]], [[0, 0], [1]]]}',
     ': a "u" entry must be a [real, imag] pair'),
    ('{"kind": "CU", "qubits": [1, 2], "u": [[[1, 0], [0, 0]], [[0, 0], [1%s, 0]]]}' % ("0" * 400),
     ': a "u" entry is too large for a float'),
]
LOADER_GATE_REFUSAL_IDS = ["not-object", "no-qubits", "int-qubits", "flat-u", "short-u-cell",
                           "huge-u-cell"]


@pytest.mark.parametrize("entry, tail", LOADER_GATE_REFUSALS, ids=LOADER_GATE_REFUSAL_IDS)
def test_circuit_loader_refusals_name_file_and_gate(tmp_path, entry, tail):
    path = write(tmp_path, "circ.json",
                 '{"n": 2, "gates": [{"kind": "H", "qubits": [1]}, %s]}' % entry)
    with pytest.raises(FormatError) as err:
        load_circuit(path)
    assert str(err.value) == f"{path}: gate 1{tail}"


def test_circuit_loader_takes_each_gate_field_as_given(tmp_path):
    doc = {"n": 3, "gates": [{"kind": "CNOT", "qubits": [3, 1]}, {"kind": "H", "qubits": [2]},
                             {"kind": "CU", "qubits": [2, 3],
                              "u": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}]}
    circuit = load_circuit(write(tmp_path, "circ.json", json.dumps(doc)))
    assert [(g.kind, g.qubits) for g in circuit.gates] == [
        ("CNOT", (3, 1)), ("H", (2,)), ("CU", (2, 3))]
    assert all(type(q) is int for g in circuit.gates for q in g.qubits)
    assert circuit.gates[2].u.tolist() == [[0j, 1 + 0j], [1 + 0j, 0j]]


# 200 valid gates without a block, every kind but CU on a 2-qubit register.
PLAIN_GATES = [{"kind": kind, "qubits": qubits} for kind, qubits in (
    ("X", [1]), ("Y", [2]), ("Z", [1]), ("H", [2]), ("SWAP", [1, 2]), ("CNOT", [2, 1]),
    ("CZ", [1, 2]), ("H", [1]))] * 25


@pytest.mark.parametrize("entry, message", [
    *((entry, f"gate 200: {message}") for entry, message in BAD_GATE_ENTRIES),
    *((entry, f"gate 200{tail}") for entry, tail in LOADER_GATE_REFUSALS),
    ('{"kind": "CNOT", "qubits": [1, 3]}', "gate CNOT on qubit 3 exceeds register size 2"),
], ids=[*BAD_GATE_IDS, *(f"loader-{i}" for i in LOADER_GATE_REFUSAL_IDS), "above-n"])
def test_circuit_refusal_after_200_valid_gates_is_the_same(tmp_path, entry, message):
    """A bad last entry after 200 valid ones gets the text it gets as the only bad entry."""
    gates = ", ".join([*map(json.dumps, PLAIN_GATES), entry])
    path = write(tmp_path, "circ.json", '{"n": 2, "gates": [%s]}' % gates)
    with pytest.raises(FormatError) as err:
        load_circuit(path)
    assert str(err.value) == f"{path}: {message}"


def per_entry_circuit(path):
    """load_circuit as it checks one entry at a time: the Circuit, or its FormatError's text.

    Built from GateSpec(...) and Circuit(...), with the loader's own JSON hooks.
    """
    doc = _load_json(path)
    gates = []
    for idx, entry in enumerate(doc["gates"]):
        where = f"{path}: gate {idx}"
        if not isinstance(entry, dict):
            return f"{where} must be an object"
        if not isinstance(entry.get("qubits"), list):
            return f'{where}: "qubits" must be a list'
        u = None
        if "u" in entry:
            raw = entry["u"]
            if not (isinstance(raw, list) and len(raw) == 2
                    and all(isinstance(row, list) and len(row) == 2 for row in raw)):
                return f'{where}: "u" must be a 2x2 matrix of [re, im] pairs'
            cells = []
            for cell in (cell for row in raw for cell in row):
                if not (type(cell) is list and len(cell) == 2
                        and all(type(x) in (int, float) for x in cell)):
                    return f'{where}: a "u" entry must be a [real, imag] pair'
                try:
                    cells.append(complex(*cell))
                except OverflowError:
                    return f'{where}: a "u" entry is too large for a float'
            u = np.array(cells).reshape(2, 2)
        try:
            gates.append(GateSpec(entry.get("kind"), tuple(entry["qubits"]), u))
        except ValueError as exc:
            return f"{where}: {exc}"
    try:
        return Circuit(doc["n"], tuple(gates))
    except ValueError as exc:
        return f"{path}: {exc}"


def gate_fields(circuit):
    """Each gate's kind, qubits with their types, and block bits as float.hex."""
    return [(g.kind, g.qubits, tuple(map(type, g.qubits)),
             None if g.u is None else [x.hex() for z in g.u.ravel().tolist()
                                       for x in (z.real, z.imag)])
            for g in circuit.gates]


@st.composite
def valid_gate_entry(draw, n):
    """A gate entry that loads, perhaps with keys the loader ignores."""
    kind = draw(st.sampled_from(sorted(GATE_ARITY)))
    entry = {"kind": kind, "qubits": draw(st.lists(st.integers(1, n), min_size=GATE_ARITY[kind],
                                                   max_size=GATE_ARITY[kind], unique=True))}
    if kind == "CU":
        u = haar_random_unitary(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))))
        entry["u"] = [[[z.real, z.imag] for z in row] for row in u.tolist()]
    if draw(st.booleans()):
        entry[draw(st.sampled_from(["note", "label", "U", "Kind"]))] = draw(st.integers(0, 3))
    return json.dumps(entry)


def bad_gate_entry(n):
    """An entry that a per-entry check refuses, or a qubit above N, which Circuit refuses."""
    return st.one_of(
        st.sampled_from([entry for entry, _ in BAD_GATE_ENTRIES + LOADER_GATE_REFUSALS]),
        st.sampled_from(['{"kind": "X", "qubits": [-0]}', '{"kind": "H", "qubits": [1.0]}',
                         '{"kind": "CZ", "qubits": [2, 1.0]}', '{"kind": "SWAP", "qubits": [1, -0]}',
                         '{"kind": "CU", "qubits": [2, 1]}', '{"kind": "CU", "qubits": [1, 2], '
                         '"u": null}', '{"kind": "Z", "qubits": [1], "u": null}']),
        st.builds(lambda q, kind: json.dumps({"kind": kind, "qubits": [q] if kind == "X"
                                              else [1, q]}),
                  st.integers(n + 1, n + 3), st.sampled_from(["X", "CNOT", "SWAP"])))


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_circuit_load_matches_per_entry_reference_property(data):
    n = data.draw(st.integers(2, 20))
    entries = data.draw(st.lists(valid_gate_entry(n), max_size=12))
    for bad in data.draw(st.lists(bad_gate_entry(n), max_size=2)):
        entries.insert(data.draw(st.integers(0, len(entries))), bad)
    with tempfile.TemporaryDirectory() as tmp:
        path = write(Path(tmp), "circ.json", '{"n": %d, "gates": [%s]}' % (n, ", ".join(entries)))
        expected = per_entry_circuit(path)
        if isinstance(expected, str):
            with pytest.raises(FormatError) as err:
                load_circuit(path)
            assert str(err.value) == expected
        else:
            got = load_circuit(path)
            assert got.nqubits == n and gate_fields(got) == gate_fields(expected)


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
    save_trajectory(path, traj, column_texts(traj.times))
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "t, phi_a_1, phi_b_1, sum_phase_1"
    assert len(lines) == 1 + traj.nsamples
    first = [float(x) for x in lines[1].split(",")]
    assert first == [0.0, 1.0, 2.0, 3.0]


def test_trajectory_floats_round_trip(tmp_path):
    traj = integrate_flow(FlowSpec("X", 1, 0.3, 0.07), TorusPoint((0.4, 5.1)))
    path = str(tmp_path / "traj.csv")
    save_trajectory(path, traj, column_texts(traj.times))
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
    assert trajectory_csv_text(traj, column_texts(traj.times)).splitlines()[1:] == rows


def reference_trajectory_csv_text(traj):
    """The per-row writer that trajectory_csv_text replaced: csv_text over rows of floats."""
    n = traj.nqubits
    cols = ["t"]
    for j in range(1, n + 1):
        cols += [f"phi_a_{j}", f"phi_b_{j}"]
    cols += [f"sum_phase_{j}" for j in range(1, n + 1)]
    return csv_text(cols, np.column_stack((traj.times, traj.phases, traj.sum_phases)).tolist())


def test_trajectory_columns_are_formatted_by_their_bits(tmp_path):
    """Signed zeros in either order, extremes, 1/3, a constant and an all-distinct column."""
    third = 1.0 / 3.0
    zeros = [0.0, -0.0, 0.0, -0.0, 5e-324, 1e308, third, -0.0]
    traj = Trajectory(
        [0.1 * k for k in range(8)],
        np.column_stack((zeros, [third] * 8, [-0.0] * 8,
                         np.random.default_rng(8).uniform(0.0, 6.3, 8))),
        np.column_stack((zeros[::-1],
                         [-1e308, 1e308, -5e-324, 5e-324, third, -third, math.inf, math.nan])))
    rows = [", ".join(["%.17g" % x for x in row])
            for row in np.column_stack((traj.times, traj.phases, traj.sum_phases)).tolist()]
    text = trajectory_csv_text(traj, column_texts(traj.times))
    assert text.splitlines() == [
        "t, phi_a_1, phi_b_1, phi_a_2, phi_b_2, sum_phase_1, sum_phase_2", *rows]
    assert text == reference_trajectory_csv_text(traj)
    assert text.splitlines()[2].split(", ")[1] == "-0"
    path = tmp_path / "traj.csv"
    save_trajectory(str(path), traj, column_texts(traj.times))
    assert path.read_text() == text
    with pytest.raises(ValueError, match="7 time texts for 8 samples"):
        trajectory_csv_text(traj, column_texts(traj.times[1:]))


@pytest.mark.parametrize("generator", ["X", "Y", "Z"])
@pytest.mark.parametrize("grid", ["default", "signed-zero offsets", "remainder step"])
def test_portrait_files_equal_the_per_row_reference(tmp_path, capsys, generator, grid):
    out = tmp_path / "plots"
    options = {"default": [], "signed-zero offsets": ["--offsets=-0.0,0,3.14159"],
               "remainder step": ["--t-final", "2.005"]}[grid]
    assert main(["portrait", "--generator", generator, "--out-dir", str(out), *options]) == 0
    capsys.readouterr()
    offsets = (-0.0, 0.0, 3.14159) if grid == "signed-zero offsets" else DEFAULT_OFFSETS
    spec = FlowSpec(generator, 1, 2.005 if grid == "remainder step" else 10.0, 0.01)
    starts = [(sigma0, delta0) for sigma0 in offsets for delta0 in DEFAULT_DELTAS]
    assert len(list(out.glob("*.csv"))) == len(starts)
    moving = set()
    for idx, (sigma0, delta0) in enumerate(starts):
        traj = integrate_flow(spec, TorusPoint((0.5 * (sigma0 + delta0), 0.5 * (sigma0 - delta0))))
        moving.add(bool(np.ptp(traj.phases, axis=0).any()))
        path = out / f"portrait_{generator.lower()}_{idx:02d}.csv"
        assert path.read_bytes() == reference_trajectory_csv_text(traj).encode()
    if generator == "X":  # the X grid holds stationary and moving curves
        assert moving == {False, True}


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


# Signed zero, the smallest subnormal, a huge value, 1/3 and 1, with
# labels given out of order.  The literals pin the writers' exact bytes.
PINNED_STATE = HoloState(3, {"110": complex(1.0, 5e-324), "001": complex(-0.0, 1 / 3),
                             "100": complex(1e308, -0.0), "000": complex(1 / 3, 1.0)})
PINNED_STATE_TEXT = (
    '{\n  "n": 3,\n  "amplitudes": {\n'
    '    "000": [0.33333333333333331, 1],\n'
    '    "001": [-0, 0.33333333333333331],\n'
    '    "100": [1e+308, -0],\n'
    '    "110": [1, 4.9406564584124654e-324]\n'
    '  }\n}\n')
PINNED_CSV_TEXT = ("t, x, y\n-0, 4.9406564584124654e-324, 1e+308\n"
                   "0.33333333333333331, 1, -0.33333333333333331\n")


def test_save_state_pinned_bytes(tmp_path):
    path = tmp_path / "state.json"
    save_state(str(path), PINNED_STATE)
    assert path.read_text() == PINNED_STATE_TEXT
    save_state(str(path), HoloState(2, {}))
    assert path.read_text() == '{\n  "n": 2,\n  "amplitudes": {}\n}\n'


def test_pinned_state_reloads_with_signed_zeros(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(PINNED_STATE_TEXT)
    back = load_state(str(path))
    assert math.copysign(1.0, back.amplitudes["001"].real) == -1.0
    assert math.copysign(1.0, back.amplitudes["100"].imag) == -1.0
    save_state(str(path), back)
    assert path.read_text() == PINNED_STATE_TEXT


def test_csv_text_pinned_bytes():
    rows = [[-0.0, 5e-324, 1e308], (1 / 3, 1.0, -1 / 3)]
    assert csv_text(["t", "x", "y"], iter(rows)) == PINNED_CSV_TEXT


finite_parts = st.floats(-1e300, 1e300)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 6), st.data())
def test_state_file_is_dump_json_layout_and_round_trips_property(n, data):
    labels = data.draw(st.lists(st.integers(0, 2 ** n - 1), max_size=2 ** n, unique=True))
    parts = data.draw(st.lists(st.tuples(finite_parts, finite_parts),
                               min_size=len(labels), max_size=len(labels)))
    state = HoloState(n, {format(k, f"0{n}b"): complex(re, im)
                          for k, (re, im) in zip(labels, parts)})
    doc = {"n": n, "amplitudes": {bits: [amp.real, amp.imag]
                                  for bits, amp in sorted(state.amplitudes.items())}}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.json")
        save_state(path, state)
        text = Path(path).read_text()
        assert text == dump_json_text(doc)
        assert load_state(path) == state


def test_atomic_write_leaves_no_temp_files(tmp_path):
    psi = encode_state(np.array([1.0, 0.0]))
    path = str(tmp_path / "out.json")
    save_state(path, psi)
    save_state(path, psi)  # overwrite through rename
    assert [f for f in os.listdir(tmp_path) if f != "out.json"] == []
