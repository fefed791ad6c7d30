"""On-disk formats and deterministic writers.

State file (JSON):

    {"n": 2, "amplitudes": {"00": [0.7071067811865476, 0.0],
                            "11": [0.7071067811865476, 0.0]}}

Keys are big-endian bit strings, values are [real, imag] pairs.  Duplicate
keys anywhere in the document are rejected rather than silently collapsed.

Circuit file (JSON):

    {"n": 2, "gates": [{"kind": "H", "qubits": [1]},
                       {"kind": "CNOT", "qubits": [1, 2]},
                       {"kind": "CU", "qubits": [1, 2],
                        "u": [[[re, im], [re, im]], [[re, im], [re, im]]]}]}

Unknown kinds are an error naming the kind, never skipped.

Loop file (JSON): {"n": 1, "states": [<amplitudes object>, ...]} with the
closing state repeating the first.  It loads into one dense (M+1, 2^N)
array, so "n" above MAX_DENSE_QUBITS is refused before allocation.

Trajectory file (CSV): header "t, phi_a_1, phi_b_1, ..., sum_phase_1, ..."
then one row per sample.  It is formatted by column: each distinct float
of a column once, and the time grid that `portrait`'s trajectories share
once per call, to the bytes of one "%.17g" per entry.

The loaders apply HoloState's rules for labels and values and GateSpec's
for kinds, qubits and blocks, and a refusal becomes a FormatError that
names the file.  HoloState parses labels to indices, which the state
writer formats back.  A state of at least diffop.dense_crossover(N)
amplitudes is first checked as arrays (its pairs here, its labels by
holostate.basis_indices); if all pass and the labels ascend, as in every
file holoqsim writes, it is read straight into the vector form.  Any other
state is checked entry by entry, which names the first bad entry, and
loads as a map.  Unsorted files stay maps: a vector's norm sums in index
order, a map's in file order, and so do the last digits.  A gate list is
likewise first checked over all entries at once (types, kinds, arities and
repeated qubits as lists and sets, each CU's "u" in file order); if all
pass, its gates are built without checking each again, and any other list
is checked entry by entry, which names the first bad entry.
Every float writer (states, circuits, reports, CSV rows) prints a float as
"%.17g", so values round-trip exactly: -0.0 prints as "-0", which the
loaders read back as -0.0.  Every writer goes through an atomic
temp-file + rename so a crash cannot leave a half-written output.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from .diffop import GATE_ARITY, Circuit, GateSpec, _prechecked_gate, dense_crossover
from .holostate import HoloState, basis_indices, require_dense

if TYPE_CHECKING:
    from .geometry import StateLoop
    from .torus import Trajectory


class FormatError(ValueError):
    """Malformed input file: bad JSON, bad schema, or bad field values."""


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a same-directory temp file and rename.

    On failure the temp file is removed, and an OSError names path.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _reject_duplicate_keys(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise FormatError(f"duplicate key {key!r} in JSON object")
        seen[key] = value
    return seen


def _parse_int(token: str):
    """int of a JSON integer token, except -0, which the writers print for -0.0."""
    return -0.0 if token == "-0" else int(token)


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_reject_duplicate_keys,
                             parse_int=_parse_int)
    except FormatError as exc:  # a duplicate key, from the hook inside json.load
        raise FormatError(f"{path}: {exc}")
    except FileNotFoundError:
        raise FormatError(f"no such file: {path}")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text (byte {exc.start}): {exc.reason}")
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"{path} is not valid JSON (line {exc.lineno}, column {exc.colno}): "
            f"{exc.msg}")


def _dump_json(obj, indent: int = 0) -> str:
    """Serializer that prints floats with 17 significant digits.

    Only the shapes this package writes are supported: dicts with string
    keys, lists, strings, bools, ints, floats, None.
    """
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  {json.dumps(str(k))}: {_dump_json(v, indent + 2)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = [_dump_json(v, indent) for v in obj]
        flat = "[" + ", ".join(inner) + "]"
        if len(flat) <= 100 and "\n" not in flat:
            return flat
        items = [f"{pad}  {_dump_json(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_json_text(obj) -> str:
    return _dump_json(obj) + "\n"


# -- states -----------------------------------------------------------


# What json makes of a JSON number.  Pairs test the exact type, so a bool,
# which is an int subclass, is refused.
_JSON_NUMBERS = frozenset((int, float))


def _complex_pair(pair, where: str, what: str, *args) -> complex:
    """complex(re, im) of a JSON [re, im] pair of exactly two numbers.

    Anything else, and an integer too large for a float, is a FormatError
    that starts "<where>: <what % args>".  The message is formatted only
    when it is raised, so a valid pair costs no string work.
    """
    if (type(pair) is not list or len(pair) != 2
            or type(pair[0]) not in _JSON_NUMBERS or type(pair[1]) not in _JSON_NUMBERS):
        raise FormatError(f"{where}: {what % args} must be a [real, imag] pair")
    try:
        return complex(pair[0], pair[1])
    except OverflowError:
        raise FormatError(f"{where}: {what % args} is too large for a float") from None


def _ascending_vector(obj: dict, nqubits: int) -> np.ndarray | None:
    """The 2^N vector of an amplitudes object, checked as arrays, or None.

    None unless every value is a pair that _complex_pair takes, every key is
    a basis label and the labels ascend; the per-entry path then names the
    first bad entry, or keeps an unsorted file a map.
    """
    pairs = list(obj.values())
    if set(map(type, pairs)) != {list} or set(map(len, pairs)) != {2}:
        return None
    numbers = list(chain.from_iterable(pairs))
    if not set(map(type, numbers)) <= _JSON_NUMBERS:
        return None
    index = basis_indices(obj, nqubits)
    if index is None or (index[1:] <= index[:-1]).any():
        return None
    try:
        values = np.array(numbers, dtype=float).view(complex)
    except OverflowError:  # an integer too large for a float
        return None
    vector = np.zeros(2 ** nqubits, dtype=complex)
    vector[index] = values
    return vector


def _state_from_amplitudes(obj, nqubits: int, where: str) -> HoloState:
    """The HoloState of an amplitudes object; HoloState checks labels and values.

    An object of at least dense_crossover(N) entries whose pairs and labels
    pass as arrays and whose labels ascend is read straight into the vector
    form, and its first non-finite entry in index order, which is file order,
    is named.  Any other object takes the per-entry path: every pair is
    checked, in file order, before any label; then labels and values, entry
    by entry in file order, as a map.
    """
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: amplitudes must be an object")
    amps = _ascending_vector(obj, nqubits) if len(obj) >= dense_crossover(nqubits) else None
    if amps is None:
        amps = {bits: _complex_pair(pair, where, "amplitude of %r", bits)
                for bits, pair in obj.items()}
    try:
        return HoloState(nqubits, amps)
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}")


def _register_size(doc, key: str, where: str) -> int:
    """The positive integer "n" of a document that must also hold `key`."""
    if not isinstance(doc, dict):
        raise FormatError(f"{where}: document must be a JSON object")
    if "n" not in doc or key not in doc:
        raise FormatError(f'{where}: required keys are "n" and "{key}"')
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise FormatError(f'{where}: "n" must be a positive integer')
    return n


def load_state(path: str) -> HoloState:
    doc = _load_json(path)
    n = _register_size(doc, "amplitudes", path)
    return _state_from_amplitudes(doc["amplitudes"], n, path)


def state_text(state: HoloState) -> str:
    """The state file, amplitudes in label order, in dump_json_text's layout.

    A map form is sorted by index; a vector form is read in index order.
    """
    items, label = state.indexed.items(), f"0{state.nqubits}b"
    if state.vector is None:
        items = sorted(items)
    amps = ",\n".join(['    "%s": [%.17g, %.17g]' % (format(k, label), amp.real, amp.imag)
                       for k, amp in items])
    amps = "{\n" + amps + "\n  }" if amps else "{}"
    return '{\n  "n": %d,\n  "amplitudes": %s\n}\n' % (state.nqubits, amps)


def save_state(path: str, state: HoloState) -> None:
    atomic_write_text(path, state_text(state))


# -- circuits ---------------------------------------------------------


def _block_cells(raw, where: str) -> np.ndarray:
    """The complex 2x2 array of a gate's "u", a 2x2 matrix of [re, im] pairs."""
    if (not isinstance(raw, list) or len(raw) != 2
            or any(not isinstance(row, list) or len(row) != 2 for row in raw)):
        raise FormatError(f'{where}: "u" must be a 2x2 matrix of [re, im] pairs')
    return np.array([[_complex_pair(cell, where, 'a "u" entry') for cell in row]
                     for row in raw])


def _gates_at_once(entries: list, path: str) -> list[GateSpec] | None:
    """The gates of a "gates" list, checked over all entries at once, or None.

    None unless every entry is an object with a known kind, a "qubits" list
    of the kind's arity of distinct ints from 1, and a "u" exactly when it
    is a CU: what GateSpec checks one entry at a time.  The per-entry path
    then names the first bad entry.  Each CU's "u" is read and checked here,
    in file order, with the per-entry path's messages.  Circuit checks the
    qubits against N on both paths, after every entry has passed.
    """
    if set(map(type, entries)) != {dict}:
        return None
    kinds = [entry.get("kind") for entry in entries]
    if set(map(type, kinds)) != {str} or not GATE_ARITY.keys() >= set(kinds):
        return None
    qubits = [entry.get("qubits") for entry in entries]
    arities = [GATE_ARITY[kind] for kind in kinds]
    if set(map(type, qubits)) != {list} or list(map(len, qubits)) != arities:
        return None
    flat = list(chain.from_iterable(qubits))  # exact ints, so no bool, -0 or 1.0
    if (set(map(type, flat)) != {int} or min(flat) < 1
            or list(map(len, map(set, qubits))) != arities):  # a repeated qubit
        return None
    cu = [idx for idx, kind in enumerate(kinds) if kind == "CU"]
    if [idx for idx, entry in enumerate(entries) if "u" in entry] != cu:
        return None
    gates = [None if kind == "CU" else _prechecked_gate(kind, tuple(qs))
             for kind, qs in zip(kinds, qubits)]
    for idx in cu:
        where = f"{path}: gate {idx}"
        u = _block_cells(entries[idx]["u"], where)
        try:
            gates[idx] = _prechecked_gate("CU", tuple(qubits[idx]), u)
        except ValueError as exc:
            raise FormatError(f"{where}: {exc}")
    return gates


def _gate_of_entry(entry, idx: int, path: str) -> GateSpec:
    """The GateSpec of one "gates" entry, checked alone; messages are formatted only when raised."""
    if not isinstance(entry, dict):
        raise FormatError(f"{path}: gate {idx} must be an object")
    qubits = entry.get("qubits")
    if not isinstance(qubits, list):
        raise FormatError(f'{path}: gate {idx}: "qubits" must be a list')
    u = _block_cells(entry["u"], f"{path}: gate {idx}") if "u" in entry else None
    try:
        return GateSpec(entry.get("kind"), tuple(qubits), u)
    except ValueError as exc:
        raise FormatError(f"{path}: gate {idx}: {exc}")


def load_circuit(path: str) -> Circuit:
    """The circuit of a file; its first bad entry, or a qubit above "n", is a FormatError.

    A gate list that passes as a whole (`_gates_at_once`) is built without
    checking each gate again; any other runs the per-entry path, which
    checks each entry in file order and names the first bad one.
    """
    doc = _load_json(path)
    n = _register_size(doc, "gates", path)
    entries = doc["gates"]
    if not isinstance(entries, list):
        raise FormatError(f'{path}: "gates" must be a list')
    gates = _gates_at_once(entries, path)
    if gates is None:
        gates = [_gate_of_entry(entry, idx, path) for idx, entry in enumerate(entries)]
    try:
        return Circuit(n, tuple(gates))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}")


def circuit_to_obj(circuit: Circuit) -> dict:
    gates = []
    for g in circuit.gates:
        entry: dict = {"kind": g.kind, "qubits": list(g.qubits)}
        if g.u is not None:
            entry["u"] = [[[g.u[r, c].real, g.u[r, c].imag] for c in range(2)]
                          for r in range(2)]
        gates.append(entry)
    return {"n": circuit.nqubits, "gates": gates}


def save_circuit(path: str, circuit: Circuit) -> None:
    atomic_write_text(path, dump_json_text(circuit_to_obj(circuit)))


# -- state loops ------------------------------------------------------


def load_loop(path: str) -> StateLoop:
    from .geometry import StateLoop

    doc = _load_json(path)
    n = _register_size(doc, "states", path)
    if not isinstance(doc["states"], list):
        raise FormatError(f'{path}: "states" must be a list')
    states = [_state_from_amplitudes(obj, n, f"{path}: state {idx}")
              for idx, obj in enumerate(doc["states"])]
    try:
        require_dense(n)
        vectors = np.zeros((len(states), 2 ** n), dtype=complex)
        for row, state in zip(vectors, states):
            row[:] = state.to_vector()
        return StateLoop(vectors)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}")


# -- trajectories -----------------------------------------------------


def csv_text(columns: list[str], rows) -> str:
    """CSV text: the ", "-joined column names, then one such line of
    "%.17g" values per row, each row taken as it is produced.  A row holds
    one number per column."""
    row_format = ", ".join(["%.17g"] * len(columns))
    lines = [", ".join(columns)]
    lines += [row_format % tuple(row) for row in rows]
    lines.append("")  # the final newline, without copying the joined text again
    return "\n".join(lines)


def column_texts(values) -> list[str]:
    """The "%.17g" text of each entry of a float column, each distinct bit pattern formatted once.

    Entries are keyed by their bits, not their value: -0.0 == 0.0, but they
    print as "-0" and "0".
    """
    bits, inverse = np.unique(np.asarray(values, dtype=float).view(np.uint64),
                              return_inverse=True)
    texts = ["%.17g" % x for x in bits.view(float).tolist()]
    return [texts[k] for k in inverse.tolist()]


def trajectory_csv_text(traj: Trajectory, time_texts: list[str]) -> str:
    """The trajectory's CSV text, as csv_text would print its rows, column by column.

    time_texts is column_texts(traj.times), formatted once per time grid.
    """
    n = traj.nqubits
    if len(time_texts) != traj.nsamples:  # zip would drop the rows past a short list
        raise ValueError(f"{len(time_texts)} time texts for {traj.nsamples} samples")
    cols = ["t"]
    for j in range(1, n + 1):
        cols += [f"phi_a_{j}", f"phi_b_{j}"]
    cols += [f"sum_phase_{j}" for j in range(1, n + 1)]
    columns = [time_texts, *map(column_texts, traj.phases.T),
               *map(column_texts, traj.sum_phases.T)]
    return "\n".join([", ".join(cols), *map(", ".join, zip(*columns)), ""])


def save_trajectory(path: str, traj: Trajectory, time_texts: list[str]) -> None:
    atomic_write_text(path, trajectory_csv_text(traj, time_texts))
