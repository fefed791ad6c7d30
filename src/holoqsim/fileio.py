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
then one row per sample.

All floats are printed with 17 significant digits so values round-trip
exactly, and every writer goes through an atomic temp-file + rename so a
crash cannot leave a half-written output.
"""

from __future__ import annotations

import cmath
import contextlib
import json
import os
import tempfile

import numpy as np

from .diffop import GATE_ARITY, Circuit, GateSpec
from .geometry import StateLoop
from .holostate import HoloState, require_dense
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
        with os.fdopen(fd, "w") as fh:
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


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh, object_pairs_hook=_reject_duplicate_keys)
    except FileNotFoundError:
        raise FormatError(f"no such file: {path}")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror}")
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


def _amplitudes_from_obj(obj, nqubits: int, where: str) -> dict[str, complex]:
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: amplitudes must be an object")
    amps: dict[str, complex] = {}
    for bits, pair in obj.items():
        if len(bits) != nqubits or any(ch not in "01" for ch in bits):
            raise FormatError(
                f"{where}: key {bits!r} is not a {nqubits}-bit string of 0/1")
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(isinstance(x, (int, float)) for x in pair)):
            raise FormatError(
                f"{where}: amplitude of {bits!r} must be a [real, imag] pair")
        try:
            amps[bits] = complex(float(pair[0]), float(pair[1]))
        except OverflowError:
            raise FormatError(f"{where}: amplitude of {bits!r} is too large for a float")
        if not cmath.isfinite(amps[bits]):
            raise FormatError(f"{where}: amplitude of {bits!r} is not finite")
    return amps


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


def state_from_obj(doc, where: str = "state") -> HoloState:
    n = _register_size(doc, "amplitudes", where)
    amps = _amplitudes_from_obj(doc["amplitudes"], n, where)
    return HoloState(n, amps)


def load_state(path: str) -> HoloState:
    return state_from_obj(_load_json(path), where=path)


def state_to_obj(state: HoloState) -> dict:
    amps = {bits: [state.amplitudes[bits].real, state.amplitudes[bits].imag]
            for bits in sorted(state.amplitudes)}
    return {"n": state.nqubits, "amplitudes": amps}


def save_state(path: str, state: HoloState) -> None:
    atomic_write_text(path, dump_json_text(state_to_obj(state)))


# -- circuits ---------------------------------------------------------


def circuit_from_obj(doc, where: str = "circuit") -> Circuit:
    n = _register_size(doc, "gates", where)
    if not isinstance(doc["gates"], list):
        raise FormatError(f'{where}: "gates" must be a list')
    gates = []
    for idx, entry in enumerate(doc["gates"]):
        whereg = f"{where}: gate {idx}"
        if not isinstance(entry, dict):
            raise FormatError(f"{whereg} must be an object")
        kind = entry.get("kind")
        if not isinstance(kind, str) or kind not in GATE_ARITY:
            raise FormatError(f"{whereg}: unknown gate kind {kind!r}")
        qubits = entry.get("qubits")
        if (not isinstance(qubits, list)
                or not all(isinstance(q, int) and not isinstance(q, bool) for q in qubits)):
            raise FormatError(f'{whereg}: "qubits" must be a list of integers')
        u = None
        if kind == "CU":
            raw = entry.get("u")
            if (not isinstance(raw, list) or len(raw) != 2
                    or any(not isinstance(row, list) or len(row) != 2 for row in raw)):
                raise FormatError(f'{whereg}: "u" must be a 2x2 matrix of [re, im] pairs')
            try:
                u = np.array([[complex(float(cell[0]), float(cell[1])) for cell in row]
                              for row in raw])
            except (LookupError, TypeError, ValueError):
                raise FormatError(f'{whereg}: "u" entries must be [re, im] pairs')
            except OverflowError:
                raise FormatError(f'{whereg}: a "u" entry is too large for a float')
        elif "u" in entry:
            raise FormatError(f'{whereg}: only CU takes a "u" block')
        try:
            gates.append(GateSpec(kind, tuple(qubits), u))
        except ValueError as exc:
            raise FormatError(f"{whereg}: {exc}")
    try:
        return Circuit(n, tuple(gates))
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}")


def load_circuit(path: str) -> Circuit:
    return circuit_from_obj(_load_json(path), where=path)


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
    doc = _load_json(path)
    n = _register_size(doc, "states", path)
    if not isinstance(doc["states"], list):
        raise FormatError(f'{path}: "states" must be a list')
    states = [_amplitudes_from_obj(obj, n, f"{path}: state {idx}")
              for idx, obj in enumerate(doc["states"])]
    try:
        require_dense(n)
        vectors = np.zeros((len(states), 2 ** n), dtype=complex)
        for row, amps in zip(vectors, states):
            for bits, amp in amps.items():
                row[int(bits, 2)] = amp
        return StateLoop(vectors)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}")


# -- trajectories -----------------------------------------------------


def csv_text(columns: list[str], rows) -> str:
    """CSV text: the ", "-joined column names, then one such line of
    format_float values per row, each row taken as it is produced."""
    lines = [", ".join(columns)]
    lines += [", ".join(map(format_float, row)) for row in rows]
    return "\n".join(lines) + "\n"


def trajectory_csv_text(traj: Trajectory) -> str:
    n = traj.nqubits
    cols = ["t"]
    for j in range(1, n + 1):
        cols += [f"phi_a_{j}", f"phi_b_{j}"]
    cols += [f"sum_phase_{j}" for j in range(1, n + 1)]
    rows = ([t, *phases, *sums] for t, phases, sums in zip(
        traj.times.tolist(), traj.phases.tolist(), traj.sum_phases.tolist()))
    return csv_text(cols, rows)


def save_trajectory(path: str, traj: Trajectory) -> None:
    atomic_write_text(path, trajectory_csv_text(traj))
