"""Seeded inputs, CLI calls and output checks for the benchmark workloads.

A workload is a fixed cycle of ops built from a seed: a tuple of ops.  An op is one or
more `holoqsim` CLI calls (steps), and the program sees only the files
written here.  Each step carries the check that decides whether its
output is correct; the oracle references those checks use are computed
here, before any timing starts.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from holoqsim.diffop import Circuit, GateSpec
from holoqsim.oracle import StateVector, run_circuit_matrix
from spans import GATE_KINDS

SPARSE_KINDS = ("X", "Y", "Z", "SWAP", "CNOT", "CZ")
TWO_QUBIT = {"SWAP", "CNOT", "CZ", "CU"}

SIMULATE_TOL = 1e-9
HOLONOMY_TOL = 1e-6
PORTRAIT_DRIFT_TOL = 1e-9
CLASSICAL_TOL = 1e-12

_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class Step:
    """One CLI call and how to judge it.

    `key` names the step within the cycle; the same key must give the same
    stdout and output bytes every time the process runs it.  `check` takes
    the captured stdout and returns a problem description, or None.
    """

    key: str
    argv: tuple[str, ...]
    outputs: tuple[Path, ...]
    check: Callable[[str], str | None]
    gates: int = 0

    @property
    def command(self) -> str:
        return self.argv[0]


Cycle = tuple[tuple[Step, ...], ...]


# -- input generation -------------------------------------------------


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj))


def _random_state(rng: np.random.Generator, nqubits: int) -> np.ndarray:
    v = rng.standard_normal(2 ** nqubits) + 1j * rng.standard_normal(2 ** nqubits)
    return v / np.linalg.norm(v)


def _state_doc(vec: np.ndarray, nqubits: int) -> dict:
    return {"n": nqubits,
            "amplitudes": {format(k, f"0{nqubits}b"): [float(a.real), float(a.imag)]
                           for k, a in enumerate(vec) if a != 0}}


def _haar_unitary(rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _draw_gate(rng: np.random.Generator, kind: str, nqubits: int) -> dict:
    if kind in TWO_QUBIT:
        qubits = [int(q) + 1 for q in rng.choice(nqubits, 2, replace=False)]
    else:
        qubits = [int(rng.integers(1, nqubits + 1))]
    gate = {"kind": kind, "qubits": qubits}
    if kind == "CU":
        u = _haar_unitary(rng)
        gate["u"] = [[[float(u[r, c].real), float(u[r, c].imag)] for c in range(2)]
                     for r in range(2)]
    return gate


def _oracle_output(gates: list[dict], nqubits: int, vec: np.ndarray) -> np.ndarray:
    specs = []
    for g in gates:
        u = None
        if "u" in g:
            u = np.array([[complex(*cell) for cell in row] for row in g["u"]])
        specs.append(GateSpec(g["kind"], tuple(g["qubits"]), u))
    return run_circuit_matrix(Circuit(nqubits, tuple(specs)), StateVector(vec)).amplitudes


# -- checks -----------------------------------------------------------


def _phase_aligned_deviation(ref: np.ndarray, vec: np.ndarray) -> float:
    prod = ref * vec.conj()
    k = int(np.argmax(np.abs(prod)))
    if abs(prod[k]) > 0:
        vec = vec * (prod[k] / abs(prod[k]))
    return float(np.max(np.abs(ref - vec)))


def _check_simulate(out: Path, reference: np.ndarray, nqubits: int):
    def check(stdout: str) -> str | None:
        if "homogeneity: ok" not in stdout:
            return "simulate did not report homogeneity ok"
        doc = json.loads(out.read_text())
        vec = np.zeros(2 ** nqubits, dtype=complex)
        for bits, (re_, im) in doc["amplitudes"].items():
            vec[int(bits, 2)] = complex(re_, im)
        dev = _phase_aligned_deviation(reference, vec)
        if not dev <= SIMULATE_TOL:
            return f"simulate output deviates from the oracle by {dev:.3g}"
        return None
    return check


def _check_diff(stdout: str) -> str | None:
    return None if "result: PASS" in stdout else "diff did not report PASS"


def _check_entanglement(report: Path, restarts: int):
    def check(stdout: str) -> str | None:
        doc = json.loads(report.read_text())
        measure = doc["entanglement_measure"]
        if not 0.0 < measure <= math.pi / 2 or len(doc["restarts"]) != restarts:
            return f"entanglement report is implausible (measure {measure})"
        return None
    return check


def _check_holonomy(theta: float):
    def check(stdout: str) -> str | None:
        m = re.search(r"^holonomy: (\S+)$", stdout, re.MULTILINE)
        if m is None:
            return "holonomy printed no value"
        reference = -math.pi * (1.0 - math.cos(theta))
        diff = abs(math.remainder(float(m.group(1)) - reference, 2.0 * math.pi))
        if not diff <= HOLONOMY_TOL:
            return f"holonomy is {diff:.3g} from -pi(1 - cos theta)"
        return None
    return check


def _check_portrait(index: Path, count: int):
    def check(stdout: str) -> str | None:
        drifts = [e["sum_drift"] for e in json.loads(index.read_text())["trajectories"]]
        if len(drifts) != count:
            return f"portrait wrote {len(drifts)} trajectories, expected {count}"
        worst = max(drifts)
        if not worst <= PORTRAIT_DRIFT_TOL:
            return f"portrait sum drift {worst:.3g} exceeds {PORTRAIT_DRIFT_TOL:g}"
        return None
    return check


def _check_classical(csv: Path, generator: str, t_final: float, samples: int):
    z0 = np.array([1.0, 0.0], dtype=complex)

    def check(stdout: str) -> str | None:
        rows = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
        if rows.shape != (samples, 7):
            return f"classical-evolve wrote {rows.shape} values, expected ({samples}, 7)"
        energy, norm = rows[:, 5], rows[:, 6]
        drift = max(np.max(np.abs(energy - energy[0])), np.max(np.abs(norm - norm[0])))
        if not drift <= CLASSICAL_TOL:
            return f"classical-evolve energy/norm drift {drift:.3g}"
        t = rows[-1, 0]
        expect = math.cos(t) * z0 - 1j * math.sin(t) * (_PAULI[generator] @ z0)
        last = rows[-1, 1:5:2] + 1j * rows[-1, 2:5:2]
        err = float(np.max(np.abs(last - expect)))
        if abs(t - t_final) > 1e-9 or not err <= CLASSICAL_TOL:
            return f"classical-evolve final row is {err:.3g} from cos(t) I - i sin(t) sigma"
        return None
    return check


# -- workloads --------------------------------------------------------


def dense_mixed(seed: int, workdir: Path, nqubits: int = 8, depth: int = 24,
                circuits: int = 6) -> Cycle:
    """Random dense state; circuits draw each of the eight kinds equally often.

    Every kind appears depth/8 times in a seeded order, so circuits in the
    set cost about the same and the median does not hinge on one draw.
    """
    rng = np.random.default_rng([seed, 1])
    vec = _random_state(rng, nqubits)
    state = workdir / "state.json"
    _write_json(state, _state_doc(vec, nqubits))
    kinds = np.repeat(GATE_KINDS, depth // len(GATE_KINDS))
    ops = []
    for i in range(circuits):
        gates = [_draw_gate(rng, str(k), nqubits) for k in rng.permutation(kinds)]
        circ = workdir / f"circuit_{i}.json"
        _write_json(circ, {"n": nqubits, "gates": gates})
        out = workdir / f"out_{i}.json"
        ref = _oracle_output(gates, nqubits, vec)
        ops.append((Step(f"simulate/{i}",
                         ("simulate", "--circuit", str(circ), "--state", str(state),
                          "--out", str(out)),
                         (out,), _check_simulate(out, ref, nqubits), gates=len(gates)),))
    return tuple(ops)


def sparse_wide(seed: int, workdir: Path, nqubits: int = 18, depth: int = 200,
                hadamards: int = 4, circuits: int = 4) -> Cycle:
    """|0...0> through permutation and phase gates plus a few H.

    Only H creates superposition, so the support stays at 2**hadamards
    terms or fewer.  One H sits in each of `hadamards` equal windows of the
    circuit, which keeps the term count, and so the cost, alike across
    the set.
    """
    rng = np.random.default_rng([seed, 2])
    vec = np.zeros(2 ** nqubits, dtype=complex)
    vec[0] = 1.0
    state = workdir / "state.json"
    _write_json(state, _state_doc(vec, nqubits))
    window = depth // hadamards
    ops = []
    for i in range(circuits):
        h_slots = {w * window + int(rng.integers(window)) for w in range(hadamards)}
        others = iter(rng.permutation(np.resize(SPARSE_KINDS, depth - hadamards)))
        kinds = ["H" if s in h_slots else str(next(others)) for s in range(depth)]
        gates = [_draw_gate(rng, k, nqubits) for k in kinds]
        circ = workdir / f"circuit_{i}.json"
        _write_json(circ, {"n": nqubits, "gates": gates})
        out = workdir / f"out_{i}.json"
        report = workdir / f"diff_{i}.txt"
        ref = _oracle_output(gates, nqubits, vec)
        ops.append((
            Step(f"simulate/{i}",
                 ("simulate", "--circuit", str(circ), "--state", str(state),
                  "--out", str(out)),
                 (out,), _check_simulate(out, ref, nqubits), gates=len(gates)),
            Step(f"diff/{i}",
                 ("diff", "--circuit", str(circ), "--state", str(state),
                  "--out", str(report)),
                 (report,), _check_diff),
        ))
    return tuple(ops)


def studies(seed: int, workdir: Path, nqubits: int = 8, states: int = 8,
            restarts: int = 16, theta: float = 1.0, samples: int = 20000,
            portrait_t: float = 10.0, classical_t: float = 100.0) -> Cycle:
    """The four side studies, once each per op; none of them runs diffop.

    Optimizer sweeps, and so `entanglement` cost, depend on the state, so
    the cycle has one random state per op rather than a single draw.
    """
    rng = np.random.default_rng([seed, 3])
    plots = workdir / "portrait"
    curves = 20  # the CLI's default 5 offsets x 4 deltas
    portrait_files = tuple(plots / f"portrait_x_{k:02d}.csv" for k in range(curves))
    index = plots / "portrait_x_index.json"
    evo = workdir / "evolve.csv"
    dt = 0.01
    common = (
        Step("holonomy",
             ("holonomy", "--theta", repr(theta), "--samples", str(samples)),
             (), _check_holonomy(theta)),
        Step("portrait",
             ("portrait", "--generator", "X", "--out-dir", str(plots),
              "--t-final", repr(portrait_t), "--dt", repr(dt)),
             portrait_files + (index,), _check_portrait(index, curves)),
        Step("classical-evolve",
             ("classical-evolve", "--generator", "Y", "--t-final", repr(classical_t),
              "--dt", repr(dt), "--out", str(evo)),
             (evo,), _check_classical(evo, "Y", classical_t,
                                      int(math.floor(classical_t / dt + 1e-9)) + 1)),
    )
    ops = []
    for i in range(states):
        state = workdir / f"ent_state_{i}.json"
        _write_json(state, _state_doc(_random_state(rng, nqubits), nqubits))
        report = workdir / f"entanglement_{i}.json"
        ops.append((Step(f"entanglement/{i}",
                         ("entanglement", "--state", str(state), "--out", str(report),
                          "--restarts", str(restarts)),
                         (report,), _check_entanglement(report, restarts)),) + common)
    return tuple(ops)


BUILDERS = {
    "dense-mixed": dense_mixed,
    "sparse-wide": sparse_wide,
    "studies": studies,
}
