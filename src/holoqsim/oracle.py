"""Plain state-vector reference engine.

Completely independent route used to cross-check the polynomial engine:
amplitudes live in a flat complex vector of length 2^N, reshaped to
[2]*N so qubit j (1-based, big-endian) is axis j-1, and gates act by
index arithmetic on those axes.  A circuit copies its input once and then
applies every gate in place on that one buffer: permutation and phase
gates swap or scale slices of it, H and CU contract with their hard-coded
or given 2x2 matrix.  Nothing here touches polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffop import Circuit, GateSpec

_SQRT2 = math.sqrt(2.0)

_ONE_QUBIT = {
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1j], [1j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    "H": np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / _SQRT2,
}


@dataclass(frozen=True)
class StateVector:
    """Flat big-endian amplitude vector; index = bit string read as binary."""

    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=complex).ravel()
        n = int(round(math.log2(v.size))) if v.size else 0
        if v.size < 2 or 2 ** n != v.size:
            raise ValueError(
                f"amplitude vector length {v.size} is not a power of two >= 2")
        object.__setattr__(self, "amplitudes", v)

    @property
    def nqubits(self) -> int:
        return int(round(math.log2(self.amplitudes.size)))

    @classmethod
    def basis(cls, bits: str) -> "StateVector":
        v = np.zeros(2 ** len(bits), dtype=complex)
        v[int(bits, 2)] = 1.0
        return cls(v)


def _exchange(a: np.ndarray, b: np.ndarray, to_a: complex = 1.0,
              to_b: complex = 1.0) -> None:
    """Set a <- to_a * b and b <- to_b * a for two disjoint slices of one buffer.

    Written with ufuncs and out=, which see that the slices are disjoint; a
    plain `a[...] = b` between two views of one buffer copies b first.
    """
    tmp = a.copy()
    np.multiply(b, to_a, out=a)
    np.multiply(tmp, to_b, out=b)


def _apply_in_place(gate: GateSpec, t: np.ndarray) -> None:
    """Apply one gate to the [2]*N amplitude tensor t, overwriting it.

    The gate's qubits are moved to the leading axes of a view, so every
    branch below works on slices of t itself.  Permutations exchange half or
    quarter slices through one temporary, scaled by the hard-coded off-diagonal
    entries for X and Y; Z and CZ scale the |1> or |11> slice by Z's -1.  H
    and CU contract with their matrix by tensordot.  Index with [1, ...],
    never [1]: on a one-qubit register (two-qubit for two-qubit kinds) [1] is
    a scalar, not a view into t.
    """
    axes = [q - 1 for q in gate.qubits]
    v = np.moveaxis(t, axes, list(range(len(axes))))
    kind = gate.kind
    if kind in ("X", "Y"):
        m = _ONE_QUBIT[kind]
        _exchange(v[0, ...], v[1, ...], m[0, 1], m[1, 0])
    elif kind == "Z":
        np.multiply(v[1, ...], _ONE_QUBIT["Z"][1, 1], out=v[1, ...])
    elif kind == "H":
        v[...] = np.tensordot(_ONE_QUBIT["H"], v, axes=(1, 0))
    elif kind == "SWAP":
        _exchange(v[0, 1, ...], v[1, 0, ...])
    elif kind == "CNOT":
        _exchange(v[1, 0, ...], v[1, 1, ...])
    elif kind == "CZ":
        np.multiply(v[1, 1, ...], _ONE_QUBIT["Z"][1, 1], out=v[1, 1, ...])
    elif kind == "CU":
        v[1, ...] = np.tensordot(gate.u, v[1, ...], axes=(1, 0))
    else:
        raise ValueError(f"unknown gate kind {kind!r}")


def apply_gate_matrix(gate: GateSpec, state: StateVector) -> StateVector:
    """Apply one gate to a copy of the state (Circuit checks its qubit range)."""
    return run_circuit_matrix(Circuit(state.nqubits, (gate,)), state)


def run_circuit_matrix(circuit: Circuit, state: StateVector) -> StateVector:
    """Run the circuit on one copy of the input; the input is left unchanged."""
    if 2 ** circuit.nqubits != state.amplitudes.size:
        raise ValueError("circuit and state register sizes differ")
    t = state.amplitudes.reshape([2] * state.nqubits).copy()
    for gate in circuit.gates:
        _apply_in_place(gate, t)
    return StateVector(t.reshape(-1))


def align_global_phase(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rotate b by the unit phase that best matches it to a.

    The phase is read off the component pair with the largest |a_k * b_k|;
    when every such product is negligible (orthogonal supports) b is
    returned unchanged, which leaves an order-one deviation to report.
    """
    prod = a * b.conj()
    k = int(np.argmax(np.abs(prod)))
    if abs(prod[k]) < 1e-300:
        return b
    u = prod[k] / abs(prod[k])
    return u * b


def compare_states(a: np.ndarray | StateVector, b: np.ndarray | StateVector) -> float:
    """Max absolute amplitude deviation after global-phase alignment."""
    va = a.amplitudes if isinstance(a, StateVector) else np.asarray(a, dtype=complex).ravel()
    vb = b.amplitudes if isinstance(b, StateVector) else np.asarray(b, dtype=complex).ravel()
    if va.size != vb.size:
        raise ValueError("amplitude vectors differ in length")
    return float(np.max(np.abs(va - align_global_phase(va, vb))))
