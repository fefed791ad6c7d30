"""Plain state-vector reference engine, in a dense and a sparse form.

Completely independent route used to cross-check the polynomial engine.
Nothing here touches polynomials, gate blocks or bit-string labels.

Dense form: amplitudes live in a flat complex vector of length 2^N,
reshaped to [2]*N so qubit j (1-based, big-endian) is axis j-1, and gates
act by index arithmetic on those axes.  A circuit copies its input once
into a working buffer, and the gates see a view of it that may be
re-strided.  X and SWAP are relabelings: X flips its qubit's axis and SWAP
transposes two axes, views that move no data.  Y is X's flip and a scaling
of each half.  Z, CZ, CNOT and CU scale, exchange or contract slices of
the view in place.  H contracts with its matrix and writes the result back
in the buffer's own C order, which resolves every relabeling made so far.
What is left after the last gate is undone in place, so the result owns
the buffer and no second 2^N copy is made.

Sparse form: a map from index (the bit string read big-endian, as in
StateVector) to amplitude, where qubit j is bit N-j of the index.  X, SWAP
and CNOT move keys, Z and CZ flip signs, Y moves keys and scales them, and
H and CU contract each index pair that differs in the target bit with
their matrix.  Only exact zeros are dropped, and a gate costs O(terms)
whatever N is.  Only H and CU split a term in two, so a circuit leaves at
most `sparse_term_bound` terms; `holoqsim diff` runs this form when that
bound is at most `sparse_cap(N)`, and the dense form otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import holostate
from .diffop import Circuit, GateSpec

# diff runs the sparse form when its term bound is at most 2^min(N, MAX_DENSE_QUBITS)
# / DENSE_AMPLITUDES_PER_SPARSE_TERM.  Set from the measured crossover, see sparse_cap.
DENSE_AMPLITUDES_PER_SPARSE_TERM = 256

_SQRT2 = math.sqrt(2.0)

_ONE_QUBIT = {
    "Y": np.array([[0.0, -1j], [1j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    "H": np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / _SQRT2,
}

# The entries of _ONE_QUBIT that the sparse form scales by, read once as Python complex numbers.
_Y01, _Y10 = complex(_ONE_QUBIT["Y"][0, 1]), complex(_ONE_QUBIT["Y"][1, 0])
_Z11 = complex(_ONE_QUBIT["Z"][1, 1])


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


def _exchange(a: np.ndarray, b: np.ndarray) -> None:
    """Exchange two disjoint, alike-shaped slices of one buffer through one temporary.

    The copies back are ufuncs with out=, a multiply by one: where numpy
    cannot rule out that the slices overlap, these can buffer less of the
    source than `np.copyto`, which copies it whole first (a permutation
    circuit at N = 16 peaks at 1.76 working buffers, against 2.0).  The
    temporary keeps a's memory order, so a re-strided view is read in order.
    """
    tmp = a.copy(order="K")
    np.multiply(b, 1.0, out=a)
    np.multiply(tmp, 1.0, out=b)


def _apply_in_place(gate: GateSpec, t: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Apply one gate to the [2]*N tensor t, a view of buf; return the new view.

    X and SWAP move no data: they return t flipped on the qubit's axis, or
    with the two axes transposed.  Y flips too, then scales each half by Y's
    off-diagonal entries.  The other kinds move the gate's qubits to the
    leading axes of a view of t and work on its slices in place: Z and CZ
    scale the |1> or |11> slice by Z's -1, CNOT exchanges the two target
    halves of the |1> slice through one temporary, and CU contracts that
    slice with u by tensordot.  H contracts the whole view with its matrix
    and writes the result into buf in buf's own order, so it returns buf
    itself.  Index with [1, ...], never [1]: on a one-qubit register
    (two-qubit for two-qubit kinds) [1] is a scalar, not a view into t.
    """
    axes = [q - 1 for q in gate.qubits]
    kind = gate.kind
    if kind == "SWAP":
        return np.swapaxes(t, *axes)
    if kind in ("X", "Y"):
        t = np.flip(t, axes[0])
        if kind == "Y":
            v, m = np.moveaxis(t, axes[0], 0), _ONE_QUBIT["Y"]
            np.multiply(v[0, ...], m[0, 1], out=v[0, ...])
            np.multiply(v[1, ...], m[1, 0], out=v[1, ...])
        return t
    v = np.moveaxis(t, axes, list(range(len(axes))))
    if kind == "Z":
        np.multiply(v[1, ...], _ONE_QUBIT["Z"][1, 1], out=v[1, ...])
    elif kind == "H":
        np.moveaxis(buf, axes[0], 0)[...] = np.tensordot(_ONE_QUBIT["H"], v, axes=(1, 0))
        return buf
    elif kind == "CNOT":
        _exchange(v[1, 0, ...], v[1, 1, ...])
    elif kind == "CZ":
        np.multiply(v[1, 1, ...], _ONE_QUBIT["Z"][1, 1], out=v[1, 1, ...])
    elif kind == "CU":
        v[1, ...] = np.tensordot(gate.u, v[1, ...], axes=(1, 0))
    else:
        raise ValueError(f"unknown gate kind {kind!r}")
    return t


def _undo_relabeling(t: np.ndarray) -> None:
    """Move the data of t's buffer until it reads as t in its own C order.

    Every flipped axis is undone by one exchange of halves together: the
    |0> half of the first flipped axis against the |1> half flipped on the
    others pairs each index with its image under all the flips.  Then each
    transposed pair of axes is undone by one exchange of quarters.  Each
    exchange changes t's content by the relabeling that the new view of t
    takes back, so t reads the same throughout.
    """
    flipped = [axis for axis, stride in enumerate(t.strides) if stride < 0]
    if flipped:
        first = flipped[0]
        _exchange(np.moveaxis(t, first, 0)[0, ...],
                  np.moveaxis(np.flip(t, flipped[1:]), first, 0)[1, ...])
        t = np.flip(t, flipped)
    for i in range(t.ndim - 1):
        j = i + int(np.argmax(t.strides[i:]))
        if j != i:
            v = np.moveaxis(t, [i, j], [0, 1])
            _exchange(v[0, 1, ...], v[1, 0, ...])
            t = np.swapaxes(t, i, j)


def run_circuit_matrix(circuit: Circuit, state: StateVector) -> StateVector:
    """Run the circuit on one copy of the input; the input is left unchanged."""
    if 2 ** circuit.nqubits != state.amplitudes.size:
        raise ValueError("circuit and state register sizes differ")
    buf = state.amplitudes.reshape([2] * state.nqubits).copy()
    t = buf
    for gate in circuit.gates:
        t = _apply_in_place(gate, t, buf)
    _undo_relabeling(t)
    return StateVector(buf.reshape(-1))


def sparse_term_bound(circuit: Circuit, terms: int) -> int:
    """Most terms the circuit can leave from `terms`: min(2^N, terms * 2^(H and CU gates))."""
    n = circuit.nqubits
    branching = sum(gate.kind in ("H", "CU") for gate in circuit.gates)
    return min(2 ** n, terms << min(branching, n))


def sparse_cap(nqubits: int) -> int:
    """Largest term bound for which diff runs the sparse form: 2^min(N, 24) / 256.

    Measured at N = 12..20 (depth-200 circuits on random sparse starts, both
    forms with their input and compare, unscaled, one BLAS thread, shared
    2-vCPU x86-64 host), the two forms cost the same at a bound near 2^N / 20
    on circuits of X, Y, Z, SWAP, CNOT, CZ and 4 H, and near 2^N / 400 on
    X/SWAP-only circuits, which the dense form runs as free relabelings.  At
    2^N / 256 the sparse form takes 0.06-0.17 and 0.8-1.7 of the dense time
    on the two.  Below the cap the engine's result is a map, never a vector.
    """
    return 2 ** min(nqubits, holostate.MAX_DENSE_QUBITS) // DENSE_AMPLITUDES_PER_SPARSE_TERM


def _mix_pairs(amps: dict[int, complex], target: int, control: int,
               m: np.ndarray) -> dict[int, complex]:
    """Contract m with each index pair that differs in the target bit and has the control bits.

    The pairs are gathered as the columns of a 2 x P array, padded with zero
    columns to a multiple of four: BLAS then rounds every column as it rounds
    the dense form's 2^(N-1) columns, where a remainder of 1-3 would not, so
    both forms give bitwise the same amplitudes.
    """
    out: dict[int, complex] = {}
    pairs: dict[int, list[complex]] = {}
    for k, a in amps.items():
        if k & control == control:
            pairs.setdefault(k & ~target, [0j, 0j])[1 if k & target else 0] = a
        else:
            out[k] = a
    if pairs:
        columns = np.zeros((2, -(-len(pairs) // 4) * 4), dtype=complex)
        columns[:, :len(pairs)] = np.array(list(pairs.values())).T
        low, high = np.tensordot(m, columns, axes=(1, 0)).tolist()
        for k, b0, b1 in zip(pairs, low, high):
            if b0:
                out[k] = b0
            if b1:
                out[k | target] = b1
    return out


def _apply_sparse(gate: GateSpec, amps: dict[int, complex], n: int) -> dict[int, complex]:
    """Apply one gate to an index -> amplitude map by bit operations on the indices.

    Y's and Z's entries are read once per process, as _Y01, _Y10 and _Z11, so
    a gate's fixed cost is its one or two masks; the rest is one pass per term.
    """
    kind, qubits = gate.kind, gate.qubits
    first, last = 1 << (n - qubits[0]), 1 << (n - qubits[-1])
    mask = first | last  # all of the gate's qubits
    if kind == "X":
        return {k ^ mask: a for k, a in amps.items()}
    if kind == "Y":
        return {k ^ mask: a * (_Y01 if k & mask else _Y10) for k, a in amps.items()}
    if kind == "SWAP":
        differ = (first, last)  # k & mask where the two bits differ
        return {k ^ mask if k & mask in differ else k: a for k, a in amps.items()}
    if kind == "CNOT":
        return {k ^ last if k & first else k: a for k, a in amps.items()}
    if kind in ("Z", "CZ"):
        return {k: a * _Z11 if k & mask == mask else a for k, a in amps.items()}
    if kind == "H":
        return _mix_pairs(amps, mask, 0, _ONE_QUBIT["H"])
    if kind == "CU":
        return _mix_pairs(amps, last, first, gate.u)
    raise ValueError(f"unknown gate kind {kind!r}")


def run_circuit_sparse(circuit: Circuit, amplitudes: dict[int, complex]) -> dict[int, complex]:
    """Run the circuit on an index -> amplitude map; the input is left unchanged."""
    amps = dict(amplitudes)
    for gate in circuit.gates:
        amps = _apply_sparse(gate, amps, circuit.nqubits)
    return amps


def align_global_phase(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rotate b by the unit phase that best matches it to a.

    The phase is read off the component pair with the largest |a_k * b_k|;
    when every such product is negligible (orthogonal supports) b is
    returned unchanged, which leaves an order-one deviation to report.
    The product is one np.multiply call.  Written `a * b.conj()`, numpy
    reuses the temporary of a vector of 256 KiB or more (N >= 14) and
    multiplies in the other operand order, which rounds differently under
    FMA; the sparse compare's short gathers would then not match the bits.
    """
    prod = np.multiply(a, b.conj())
    k = int(np.argmax(np.abs(prod)))
    if abs(prod[k]) < 1e-300:
        return b
    u = prod[k] / abs(prod[k])
    return u * b


def compare_states(a: np.ndarray | StateVector | dict[int, complex],
                   b: np.ndarray | StateVector | dict[int, complex]) -> float:
    """Max absolute amplitude deviation after global-phase alignment.

    a and b are both dense or both sparse maps.  Two maps are gathered over
    the union of their indices in ascending order.  Every other index is
    0 - 0, so the result is bitwise the dense compare's on the same amplitudes.
    """
    if isinstance(a, dict):
        keys = sorted(a.keys() | b.keys())
        a, b = (np.array([side.get(k, 0j) for k in keys], dtype=complex) for side in (a, b))
    va = a.amplitudes if isinstance(a, StateVector) else np.asarray(a, dtype=complex).ravel()
    vb = b.amplitudes if isinstance(b, StateVector) else np.asarray(b, dtype=complex).ravel()
    if va.size != vb.size:
        raise ValueError("amplitude vectors differ in length")
    return float(np.max(np.abs(va - align_global_phase(va, vb))))
