"""The index-arithmetic state-vector engine used as the cross-check route."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holoqsim import (
    Circuit,
    GateSpec,
    HoloState,
    StateVector,
    compare_states,
    encode_state,
    haar_random_unitary,
    run_circuit_holo,
    run_circuit_matrix,
)
from holoqsim.cli import main
from holoqsim.oracle import run_circuit_sparse, sparse_cap, sparse_term_bound

from _support import ALL_KINDS, random_circuit, random_gate, random_state_vector

SQ2 = math.sqrt(2.0)


def test_basis_construction():
    sv = StateVector.basis("10")
    assert sv.nqubits == 2
    assert sv.amplitudes[2] == 1.0
    assert np.count_nonzero(sv.amplitudes) == 1


def test_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        StateVector(np.zeros(3, dtype=complex))


@pytest.mark.parametrize("bits", ["1_0", " 10", "+10", "\u0661\u0660"],
                         ids=["underscore", "space", "plus", "arabic-indic"])
def test_basis_refuses_labels_that_int_would_read(bits):
    # int(bits, 2) reads each of these as 2; a label is N ASCII 0s and 1s, as HoloState reads it
    with pytest.raises(ValueError) as err:
        StateVector.basis(bits)
    assert str(err.value) == f"bad basis label {bits!r} for {len(bits)} qubit(s)"


@pytest.mark.parametrize("size", [0, 1, 3, 6, 12])
def test_state_vector_and_encode_state_refuse_a_length_alike(size):
    message = f"amplitude vector length {size} is not a power of two >= 2"
    for build in (StateVector, encode_state):
        with pytest.raises(ValueError) as err:
            build(np.zeros(size, dtype=complex))
        assert str(err.value) == message


def test_run_circuit_matrix_refuses_a_state_of_another_size():
    with pytest.raises(ValueError) as err:
        run_circuit_matrix(Circuit(2), StateVector.basis("0"))
    assert str(err.value) == "circuit and state register sizes differ"


def test_x_on_each_qubit():
    sv = run_circuit_matrix(Circuit(2, (GateSpec("X", (1,)),)), StateVector.basis("00"))
    assert sv.amplitudes[int("10", 2)] == 1.0
    sv = run_circuit_matrix(Circuit(2, (GateSpec("X", (2,)),)), StateVector.basis("00"))
    assert sv.amplitudes[int("01", 2)] == 1.0


def test_h_makes_plus():
    sv = run_circuit_matrix(Circuit(1, (GateSpec("H", (1,)),)), StateVector.basis("0"))
    assert np.max(np.abs(sv.amplitudes - np.array([1, 1]) / SQ2)) < 1e-15


def test_cnot_truth_table():
    for src, dst in (("00", "00"), ("01", "01"), ("10", "11"), ("11", "10")):
        sv = run_circuit_matrix(Circuit(2, (GateSpec("CNOT", (1, 2)),)), StateVector.basis(src))
        assert sv.amplitudes[int(dst, 2)] == 1.0, (src, dst)


def test_cnot_reversed_control():
    sv = run_circuit_matrix(Circuit(2, (GateSpec("CNOT", (2, 1)),)), StateVector.basis("01"))
    assert sv.amplitudes[int("11", 2)] == 1.0


def test_cz_phase():
    sv = run_circuit_matrix(Circuit(2, (GateSpec("CZ", (1, 2)),)), StateVector.basis("11"))
    assert sv.amplitudes[int("11", 2)] == -1.0
    sv = run_circuit_matrix(Circuit(2, (GateSpec("CZ", (1, 2)),)), StateVector.basis("10"))
    assert sv.amplitudes[int("10", 2)] == 1.0


def test_swap_on_three_qubits():
    sv = run_circuit_matrix(Circuit(3, (GateSpec("SWAP", (1, 3)),)), StateVector.basis("100"))
    assert sv.amplitudes[int("001", 2)] == 1.0


def test_cu_block_on_control_one():
    u = np.array([[0, 1], [1, 0]], dtype=complex)
    sv = run_circuit_matrix(Circuit(2, (GateSpec("CU", (1, 2), u),)), StateVector.basis("10"))
    assert sv.amplitudes[int("11", 2)] == 1.0
    sv = run_circuit_matrix(Circuit(2, (GateSpec("CU", (1, 2), u),)), StateVector.basis("00"))
    assert sv.amplitudes[int("00", 2)] == 1.0


def test_bell_circuit_amplitudes():
    circ = Circuit(2, (GateSpec("H", (1,)), GateSpec("CNOT", (1, 2))))
    sv = run_circuit_matrix(circ, StateVector.basis("00"))
    expected = np.array([1, 0, 0, 1], dtype=complex) / SQ2
    assert np.max(np.abs(sv.amplitudes - expected)) < 1e-15


def test_empty_circuit():
    sv = StateVector(np.array([0.6, 0.8j]))
    out = run_circuit_matrix(Circuit(1, ()), sv)
    assert np.array_equal(out.amplitudes, sv.amplitudes)


def test_double_x_identity():
    circ = Circuit(1, (GateSpec("X", (1,)), GateSpec("X", (1,))))
    rng = np.random.default_rng(2)
    v = random_state_vector(rng, 1)
    out = run_circuit_matrix(circ, StateVector(v))
    assert np.max(np.abs(out.amplitudes - v)) < 1e-15


def test_standard_identities():
    # H^2 = I, CNOT^2 = I, SWAP = CNOT12 CNOT21 CNOT12, CZ = (I x H) CNOT (I x H)
    rng = np.random.default_rng(4)
    v = random_state_vector(rng, 2)

    def run(*gates):
        return run_circuit_matrix(Circuit(2, gates), StateVector(v)).amplitudes

    assert np.max(np.abs(run(GateSpec("H", (1,)), GateSpec("H", (1,))) - v)) < 1e-12
    assert np.max(np.abs(run(GateSpec("CNOT", (1, 2)), GateSpec("CNOT", (1, 2))) - v)) < 1e-12
    swap_chain = run(GateSpec("CNOT", (1, 2)), GateSpec("CNOT", (2, 1)),
                     GateSpec("CNOT", (1, 2)))
    direct = run(GateSpec("SWAP", (1, 2)))
    assert np.max(np.abs(swap_chain - direct)) < 1e-12
    cz_chain = run(GateSpec("H", (2,)), GateSpec("CNOT", (1, 2)), GateSpec("H", (2,)))
    cz_direct = run(GateSpec("CZ", (1, 2)))
    assert np.max(np.abs(cz_chain - cz_direct)) < 1e-12


def test_unitarity_on_random_circuits():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        circ = random_circuit(rng, n, 15)
        v = random_state_vector(rng, n)
        out = run_circuit_matrix(circ, StateVector(v))
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


def test_cu_equals_dense_matrix_on_random_blocks():
    rng = np.random.default_rng(8)
    for _ in range(10):
        u = haar_random_unitary(rng)
        dense = np.eye(4, dtype=complex)
        dense[2:, 2:] = u
        v = random_state_vector(rng, 2)
        out = run_circuit_matrix(Circuit(2, (GateSpec("CU", (1, 2), u),)), StateVector(v))
        assert np.max(np.abs(out.amplitudes - dense @ v)) < 1e-12


def test_compare_states_identical_and_phase():
    rng = np.random.default_rng(10)
    v = random_state_vector(rng, 2)
    assert compare_states(v, v) <= 1e-15
    assert compare_states(v, np.exp(1.3j) * v) < 1e-12


def test_compare_states_orthogonal_reports_large():
    a = np.array([1.0, 0.0], dtype=complex)
    b = np.array([0.0, 1.0], dtype=complex)
    dev = compare_states(a, b)
    assert 0.9 < dev < 1.5  # no alignment possible, order-one deviation


def test_compare_states_size_mismatch():
    with pytest.raises(ValueError):
        compare_states(np.zeros(2, dtype=complex), np.zeros(4, dtype=complex))


# -- every kind on every qubit against a full 2^N x 2^N matrix ---------

_LOCAL = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1, -1]).astype(complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / SQ2,
    "SWAP": np.eye(4, dtype=complex)[[0, 2, 1, 3]],
    "CNOT": np.eye(4, dtype=complex)[[0, 1, 3, 2]],
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
}


def _full_matrix(local: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """kron(local, I) acts with the gate's qubits leading, in the gate's order;
    relabel its rows and columns back to the register's own bit order."""
    order = [q - 1 for q in qubits] + [j for j in range(n) if j + 1 not in qubits]
    big = np.kron(local, np.eye(2 ** (n - len(qubits)), dtype=complex))
    perm = [int("".join(format(i, f"0{n}b")[j] for j in order), 2)
            for i in range(2 ** n)]
    return big[np.ix_(perm, perm)]


def _gate_matrix(gate: GateSpec, n: int) -> np.ndarray:
    if gate.kind == "CU":
        local = np.eye(4, dtype=complex)
        local[2:, 2:] = gate.u
    else:
        local = _LOCAL[gate.kind]
    return _full_matrix(local, gate.qubits, n)


def _every_placement(n: int, rng: np.random.Generator):
    for kind in ("X", "Y", "Z", "H"):
        for q in range(1, n + 1):
            yield GateSpec(kind, (q,))
    for c in range(1, n + 1):
        for t in range(1, n + 1):
            if c == t:
                continue
            for kind in ("SWAP", "CNOT", "CZ"):
                yield GateSpec(kind, (c, t))
            yield GateSpec("CU", (c, t), haar_random_unitary(rng))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_every_kind_and_placement_matches_full_matrix(n):
    rng = np.random.default_rng(40 + n)
    v = random_state_vector(rng, n)
    v_before = v.copy()
    gates, expected = [], v.copy()
    for gate in _every_placement(n, rng):
        full = _gate_matrix(gate, n)
        out = run_circuit_matrix(Circuit(n, (gate,)), StateVector(v)).amplitudes
        if gate.kind in ("H", "CU"):
            assert np.max(np.abs(out - full @ v)) < 1e-14, gate
        else:
            # permutations and +-1, +-i phases are exact
            assert np.array_equal(out, full @ v), gate
        assert v.tobytes() == v_before.tobytes(), gate
        gates.append(gate)
        expected = full @ expected
    out = run_circuit_matrix(Circuit(n, tuple(gates)), StateVector(v)).amplitudes
    assert np.max(np.abs(out - expected)) < 1e-12
    assert v.tobytes() == v_before.tobytes()


# -- X and SWAP relabel the working tensor; H and the end resolve it ---

_RELABEL = ("X", "Y", "SWAP")
_PERMUTATION_AND_PHASE = ("X", "Y", "Z", "SWAP", "CNOT", "CZ")


def _relabeled_circuit(rng: np.random.Generator, n: int, pivots: tuple[str, ...]) -> Circuit:
    """Runs of relabelings (and the other permutation and phase kinds) around
    each pivot gate, ending in a run of relabelings alone."""
    gates = []
    for pivot in pivots:
        gates += [random_gate(rng, n, _PERMUTATION_AND_PHASE) for _ in range(6)]
        gates += [random_gate(rng, n, _RELABEL) for _ in range(4)]
        gates.append(random_gate(rng, n, (pivot,)))
    gates += [random_gate(rng, n, _RELABEL) for _ in range(8)]
    return Circuit(n, tuple(gates))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("pivots", [(), ("H",), ("CU", "H", "CU"), ("H", "H", "CU")])
def test_relabel_runs_around_h_and_cu_match_full_matrix(n, pivots):
    rng = np.random.default_rng(n)
    if n == 1:
        pivots = tuple(p for p in pivots if p != "CU")
    for _ in range(5):
        circuit = _relabeled_circuit(rng, n, pivots)
        v = random_state_vector(rng, n)
        expected = v.copy()
        for gate in circuit.gates:
            expected = _gate_matrix(gate, n) @ expected
        out = run_circuit_matrix(circuit, StateVector(v)).amplitudes
        if pivots:
            assert np.max(np.abs(out - expected)) < 1e-12
        else:  # permutations and +-1, +-i phases are exact
            assert np.array_equal(out, expected)


@pytest.mark.parametrize("gates", [
    (GateSpec("X", (1,)),),
    (GateSpec("SWAP", (1, 3)), GateSpec("X", (2,)), GateSpec("Y", (3,))),
    (GateSpec("X", (2,)), GateSpec("H", (1,)), GateSpec("SWAP", (2, 3)), GateSpec("X", (1,))),
    (GateSpec("SWAP", (1, 2)), GateSpec("CU", (2, 3), np.eye(2, dtype=complex)[::-1])),
])
def test_result_is_c_contiguous_and_leaves_the_input_alone(gates):
    rng = np.random.default_rng(5)
    v = random_state_vector(rng, 3)
    before = v.tobytes()
    out = run_circuit_matrix(Circuit(3, gates), StateVector(v)).amplitudes
    assert out.flags.c_contiguous
    assert not np.shares_memory(out, v)
    assert v.tobytes() == before


def test_permutation_and_phase_circuit_makes_no_full_copy():
    # One working copy plus the exchange temporaries: ~1.76 buffers.  A final
    # copy of a relabeled view, instead of undoing it in place, reads >= 2.
    n = 16
    rng = np.random.default_rng(16)
    circuit = _relabeled_circuit(rng, n, ("Z", "CNOT", "CZ"))
    state = StateVector(random_state_vector(rng, n))
    tracemalloc.start()
    try:
        run_circuit_matrix(circuit, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.8 * 16 * 2 ** n


# -- the sparse form: an index -> amplitude map, changed by bit operations --


def _sparse_start(rng: np.random.Generator, n: int, terms: int) -> dict[int, complex]:
    """`terms` random amplitudes at random indices of an n-qubit register, normalized."""
    index = rng.choice(2 ** n, terms, replace=False) if n < 60 else \
        {int(rng.integers(2 ** 30)) << (n - 30) | int(rng.integers(2 ** 30)) for _ in range(terms)}
    v = rng.standard_normal(len(index)) + 1j * rng.standard_normal(len(index))
    return dict(zip((int(k) for k in index), (v / np.linalg.norm(v)).tolist()))


def _dense(amps: dict[int, complex], n: int) -> np.ndarray:
    v = np.zeros(2 ** n, dtype=complex)
    v[list(amps)] = list(amps.values())
    return v


@settings(deadline=None, max_examples=60)
@given(n=st.integers(1, 10), seed=st.integers(0, 2 ** 32 - 1), depth=st.integers(0, 30),
       exact=st.booleans(), fill=st.floats(0.0, 1.0))
def test_sparse_form_matches_the_dense_form(n, seed, depth, exact, fill):
    rng = np.random.default_rng(seed)
    kinds = _PERMUTATION_AND_PHASE if exact else ALL_KINDS
    circuit = random_circuit(rng, n, depth, kinds)
    start = _sparse_start(rng, n, max(1, round(fill * 2 ** n)))
    before = dict(start)
    out = run_circuit_sparse(circuit, start)
    dense = run_circuit_matrix(circuit, StateVector(_dense(start, n))).amplitudes
    assert start == before
    assert 0j not in out.values() and all(0 <= k < 2 ** n for k in out)
    if all(g.kind in _PERMUTATION_AND_PHASE for g in circuit.gates):
        assert np.array_equal(_dense(out, n), dense)
    else:
        assert np.max(np.abs(_dense(out, n) - dense)) <= 1e-12


@pytest.mark.parametrize("n", range(4, 13))
def test_sparse_form_equals_the_dense_form_bit_for_bit_from_four_qubits(n):
    """Every amplitude equal, not only within 1e-12, under all eight kinds.

    H and CU contract padded pairs in the sparse form, which BLAS rounds as
    the dense form's columns from N = 4; below that the two can differ.
    """
    rng = np.random.default_rng(400 + n)
    for _ in range(12):
        circuit = random_circuit(rng, n, int(rng.integers(1, 41)))
        start = _sparse_start(rng, n, int(rng.integers(1, 2 ** n // 4 + 1)))
        out = run_circuit_sparse(circuit, start)
        dense = run_circuit_matrix(circuit, StateVector(_dense(start, n))).amplitudes
        assert np.array_equal(_dense(out, n), dense), circuit


@settings(deadline=None, max_examples=40)
@given(n=st.integers(25, 64), seed=st.integers(0, 2 ** 32 - 1), depth=st.integers(0, 40),
       hadamards=st.integers(0, 4), terms=st.integers(1, 3))
def test_sparse_form_matches_the_holo_engine_above_the_dense_limit(n, seed, depth, hadamards,
                                                                   terms):
    rng = np.random.default_rng(seed)
    gates = list(random_circuit(rng, n, depth, _PERMUTATION_AND_PHASE + ("CU",)).gates)
    for _ in range(hadamards):
        gates.insert(int(rng.integers(len(gates) + 1)), random_gate(rng, n, ("H",)))
    circuit = Circuit(n, tuple(gates))
    start = _sparse_start(rng, n, terms)
    out = run_circuit_sparse(circuit, start)
    holo = run_circuit_holo(circuit, HoloState(n, {format(k, f"0{n}b"): a
                                                   for k, a in start.items()}))
    holo_out = {int(bits, 2): amp for bits, amp in holo.amplitudes.items()}
    assert max(abs(out.get(k, 0j) - holo_out.get(k, 0j)) for k in out.keys() | holo_out.keys()) \
        <= 1e-12
    assert compare_states(out, holo_out) <= 1e-12


@pytest.mark.parametrize("n", [8, 13, 14, 16])
def test_sparse_compare_is_bitwise_the_dense_compare(n):
    # From N = 14 a 2^N vector passes numpy's 256 KiB temporary-reuse size,
    # which must not change the product the phase is read from.
    rng = np.random.default_rng(n)
    for terms in (1, 3, 5, 17, 64):
        a = _sparse_start(rng, n, terms)
        b = {k: c * np.exp(0.3j) + 1e-16 * complex(*rng.standard_normal(2))
             for k, c in a.items() if rng.random() < 0.9}
        b.update(_sparse_start(rng, n, 2))
        assert compare_states(a, b) == compare_states(_dense(a, n), _dense(b, n))


def test_term_bound_doubles_per_h_and_cu_up_to_the_register():
    u = haar_random_unitary(np.random.default_rng(0))
    gates = (GateSpec("H", (1,)), GateSpec("X", (2,)), GateSpec("CU", (2, 3), u),
             GateSpec("SWAP", (1, 3)))
    assert sparse_term_bound(Circuit(3, gates), 1) == 4
    assert sparse_term_bound(Circuit(3, gates), 3) == 8
    assert sparse_term_bound(Circuit(40, gates * 5), 5) == 5 * 2 ** 10
    assert sparse_term_bound(Circuit(40, gates * 30), 5) == 2 ** 40
    assert [sparse_cap(n) for n in (1, 7, 8, 18, 24, 25, 64)] == \
        [0, 0, 1, 1024, 65536, 65536, 65536]


def test_sparse_diff_builds_no_register_sized_array(tmp_path, capsys):
    n = 22
    rng = np.random.default_rng(22)
    gates = list(random_circuit(rng, n, 196, _PERMUTATION_AND_PHASE).gates)
    for q in (3, 9, 14, 20):
        gates.insert(int(rng.integers(len(gates) + 1)), GateSpec("H", (q,)))
    circuit, state = tmp_path / "circuit.json", tmp_path / "state.json"
    circuit.write_text(json.dumps({"n": n, "gates": [{"kind": g.kind, "qubits": list(g.qubits)}
                                                     for g in gates]}))
    state.write_text(json.dumps({"n": n, "amplitudes": {"0" * n: [1.0, 0.0]}}))
    tracemalloc.start()
    try:
        code = main(["diff", "--circuit", str(circuit), "--state", str(state)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and "result: PASS" in capsys.readouterr().out
    assert peak < 16 * 2 ** n / 64  # one dense vector is 64 MiB
