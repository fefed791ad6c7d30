"""Differential operators, substitutions, gate specs, and circuit runs."""

import math
import tracemalloc

import numpy as np
import pytest

from holoqsim import (
    Circuit,
    DiffOperator,
    GateSpec,
    HoloState,
    SparsePoly,
    StateVector,
    Substitution,
    apply_diffop,
    apply_gate,
    apply_substitution,
    check_all_homogeneity,
    compare_states,
    compose,
    controlled_u,
    encode_basis,
    encode_state,
    from_poly,
    gate_operator,
    haar_random_unitary,
    run_circuit_holo,
    run_circuit_matrix,
    sb_inner_product,
    to_poly,
)
from holoqsim import holostate
from holoqsim.diffop import (
    DENSE_AMPLITUDES_PER_TERM,
    DENSE_MIN_TERMS,
    GATE_ARITY,
    _apply_dense,
    _apply_sparse,
    _fixed_table,
    _local_operator,
    cnot_op,
    cz_op,
    dense_crossover,
    derive_block,
    gate_block,
    gate_table,
    hadamard_op,
    pauli_x,
    pauli_y,
    pauli_z,
    swap_op,
)
from hypothesis import given, settings, strategies as st

from _support import ALL_KINDS, random_circuit, random_state_vector

SQ2 = math.sqrt(2.0)

X_MAT = np.array([[0, 1], [1, 0]], dtype=complex)
Y_MAT = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z_MAT = np.array([[1, 0], [0, -1]], dtype=complex)
H_MAT = np.array([[1, 1], [1, -1]], dtype=complex) / SQ2


def simple_action_matrix(op, nqubits):
    """Matrix of an operator restricted to the physical basis monomials."""
    dim = 2 ** nqubits
    m = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        poly = encode_basis(format(col, f"0{nqubits}b"))
        out = (apply_substitution(op, poly) if isinstance(op, Substitution)
               else apply_diffop(op, poly))
        for row in range(dim):
            key = next(iter(encode_basis(format(row, f"0{nqubits}b")).terms))
            m[row, col] = out.terms.get(key, 0j)
    return m


# -- basic operator action --------------------------------------------


def test_pauli_x_action():
    x = pauli_x(1, 1)
    assert apply_diffop(x, encode_basis("0")) == encode_basis("1")
    assert apply_diffop(x, encode_basis("1")) == encode_basis("0")


def test_pauli_z_action():
    z = pauli_z(1, 1)
    assert apply_diffop(z, encode_basis("0")) == encode_basis("0")
    assert apply_diffop(z, encode_basis("1")) == -1.0 * encode_basis("1")


def test_pauli_y_action():
    y = pauli_y(1, 1)
    assert apply_diffop(y, encode_basis("0")).terms == {(0, 1): 1j}
    assert apply_diffop(y, encode_basis("1")).terms == {(1, 0): -1j}


def test_derivative_falling_factorial():
    # d/dz_a applied to z_a^3 gives 3 z_a^2
    d = DiffOperator.term(1, 1.0, (0, 0), (1, 0))
    out = apply_diffop(d, SparsePoly(1, {(3, 0): 1.0}))
    assert out.terms == {(2, 0): 3.0 + 0j}


def test_diffop_beyond_physical_degree():
    # second derivative sees the full falling factorial 4*3
    d2 = DiffOperator.term(1, 1.0, (0, 0), (2, 0))
    out = apply_diffop(d2, SparsePoly(1, {(4, 0): 1.0}))
    assert out.terms == {(2, 0): 12.0 + 0j}


# -- compose and normal ordering --------------------------------------


def test_compose_canonical_commutator():
    # d_a after z_a: normal ordering gives z_a d_a + 1
    za = DiffOperator.term(1, 1.0, (1, 0), (0, 0))
    da = DiffOperator.term(1, 1.0, (0, 0), (1, 0))
    prod = compose(da, za)
    assert prod.terms == {((1, 0), (1, 0)): 1.0 + 0j, ((0, 0), (0, 0)): 1.0 + 0j}
    # reversed order has no contraction
    assert compose(za, da).terms == {((1, 0), (1, 0)): 1.0 + 0j}


def test_compose_matches_sequential_application():
    rng = np.random.default_rng(3)
    ops = [pauli_x(2, 1), pauli_y(2, 2), pauli_z(2, 1), hadamard_op(2, 2),
           cnot_op(1, 2, 2), cz_op(2, 1, 2)]
    polys = [encode_basis(format(k, "02b")) for k in range(4)]
    # also a non-physical polynomial: compose must agree on any input
    polys.append(SparsePoly(2, {(2, 1, 0, 3): 1.5 - 0.5j, (0, 0, 1, 1): 1j}))
    for _ in range(30):
        op1 = ops[int(rng.integers(len(ops)))]
        op2 = ops[int(rng.integers(len(ops)))]
        fused = compose(op1, op2)
        for p in polys:
            direct = apply_diffop(op1, apply_diffop(op2, p))
            assert fused and direct.max_coeff_diff(apply_diffop(fused, p)) < 1e-12


def test_pauli_products_on_physical_subspace():
    # X Y = i Z and cyclic permutations, as actions on basis monomials
    x, y, z = pauli_x(1, 1), pauli_y(1, 1), pauli_z(1, 1)
    cases = [(x, y, z), (y, z, x), (z, x, y)]
    for a, b, c in cases:
        ab = compose(a, b)
        for bits in ("0", "1"):
            lhs = apply_diffop(ab, encode_basis(bits))
            rhs = 1j * apply_diffop(c, encode_basis(bits))
            assert lhs.max_coeff_diff(rhs) < 1e-12


def test_pauli_squares_are_identity_on_physical_subspace():
    for op in (pauli_x(1, 1), pauli_y(1, 1), pauli_z(1, 1)):
        sq = compose(op, op)
        for bits in ("0", "1"):
            assert apply_diffop(sq, encode_basis(bits)) == encode_basis(bits)


def test_commutator_xy():
    # [X, Y] = 2iZ on the physical subspace
    x, y, z = pauli_x(1, 1), pauli_y(1, 1), pauli_z(1, 1)
    comm = compose(x, y) - compose(y, x)
    for bits in ("0", "1"):
        lhs = apply_diffop(comm, encode_basis(bits))
        rhs = 2j * apply_diffop(z, encode_basis(bits))
        assert lhs.max_coeff_diff(rhs) < 1e-12


# -- substitutions ----------------------------------------------------


def test_hadamard_substitution_action():
    sub = Substitution.hadamard(1, 1)
    out0 = apply_substitution(sub, encode_basis("0"))
    assert out0.max_coeff_diff(
        (1 / SQ2) * (encode_basis("0") + encode_basis("1"))) < 1e-15
    out1 = apply_substitution(sub, encode_basis("1"))
    assert out1.max_coeff_diff(
        (1 / SQ2) * (encode_basis("0") - encode_basis("1"))) < 1e-15


def test_hadamard_dual_representations_agree():
    sub = Substitution.hadamard(2, 2)
    op = hadamard_op(2, 2)
    for k in range(4):
        poly = encode_basis(format(k, "02b"))
        assert apply_substitution(sub, poly).max_coeff_diff(
            apply_diffop(op, poly)) < 1e-12


def test_swap_substitution_and_operator_agree():
    sub = Substitution.swap(2, 1, 2)
    op = swap_op(1, 2, 2)
    for k in range(4):
        poly = encode_basis(format(k, "02b"))
        assert apply_substitution(sub, poly).max_coeff_diff(
            apply_diffop(op, poly)) < 1e-12


def test_swap_exchanges_labels():
    sub = Substitution.swap(2, 1, 2)
    assert apply_substitution(sub, encode_basis("01")) == encode_basis("10")


def test_substitution_rejects_singular_matrix():
    with pytest.raises(ValueError):
        Substitution(1, np.zeros((2, 2)))


# -- controlled gates -------------------------------------------------


def test_cnot_action_on_basis():
    op = cnot_op(1, 2, 2)
    assert apply_diffop(op, encode_basis("00")) == encode_basis("00")
    assert apply_diffop(op, encode_basis("01")) == encode_basis("01")
    assert apply_diffop(op, encode_basis("10")) == encode_basis("11")
    assert apply_diffop(op, encode_basis("11")) == encode_basis("10")


def test_cz_symmetric_in_its_qubits():
    a = simple_action_matrix(cz_op(1, 2, 2), 2)
    b = simple_action_matrix(cz_op(2, 1, 2), 2)
    assert np.max(np.abs(a - b)) < 1e-12
    assert np.max(np.abs(a - np.diag([1, 1, 1, -1]))) < 1e-12


def test_controlled_u_identity_block():
    op = controlled_u(1, 2, np.eye(2), 2)
    for k in range(4):
        poly = encode_basis(format(k, "02b"))
        assert apply_diffop(op, poly) == poly


def test_controlled_u_reproduces_cnot_and_cz():
    cu_x = simple_action_matrix(controlled_u(1, 2, X_MAT, 2), 2)
    assert np.max(np.abs(cu_x - simple_action_matrix(cnot_op(1, 2, 2), 2))) < 1e-12
    cu_z = simple_action_matrix(controlled_u(1, 2, Z_MAT, 2), 2)
    assert np.max(np.abs(cu_z - simple_action_matrix(cz_op(1, 2, 2), 2))) < 1e-12


def test_controlled_u_haar_block_matches_dense_matrix():
    rng = np.random.default_rng(5)
    for _ in range(10):
        u = haar_random_unitary(rng)
        act = simple_action_matrix(controlled_u(1, 2, u, 2), 2)
        dense = np.eye(4, dtype=complex)
        dense[2:, 2:] = u
        assert np.max(np.abs(act - dense)) < 1e-10


def test_controlled_u_rejects_nonunitary():
    with pytest.raises(ValueError):
        controlled_u(1, 2, np.array([[1.0, 0.0], [0.0, 2.0]]), 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_unitarity_checks_reject_non_finite_blocks(bad):
    u = np.array([[1.0, 0.0], [0.0, bad]])
    with pytest.raises(ValueError, match="finite unitary"):
        controlled_u(1, 2, u, 2)
    with pytest.raises(ValueError, match="finite unitary"):
        GateSpec("CU", (1, 2), u)


# -- gate specs and circuits ------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_diffop_rejects_non_finite_coefficients(bad):
    z = (0, 0)
    with pytest.raises(ValueError, match=r"coefficient of \(\(0, 0\), \(0, 0\)\) is not finite"):
        DiffOperator(1, {((1, 0), (0, 1)): 1.0, (z, z): bad})
    with pytest.raises(ValueError, match="not finite"):
        pauli_x(1, 1) * bad


def test_diffop_rejects_fractional_exponents():
    with pytest.raises(ValueError, match=r"non-integral exponent in \(\(0\.5, 0\), \(1, 0\)\)"):
        apply_diffop(DiffOperator(1, {((0.5, 0), (1, 0)): 1}), encode_basis("0"))


def test_apply_diffop_refuses_non_finite_images():
    op = pauli_x(1, 1)
    for key in op.terms:
        op.terms[key] = complex(np.nan)  # a NaN that got past the constructor
    with pytest.raises(ValueError, match="not finite"):
        apply_diffop(op, encode_basis("0"))
    with pytest.raises(ValueError, match="not finite"):  # 1e200 * 1e200 overflows
        apply_diffop(1e200 * pauli_x(1, 1), 1e200 * encode_basis("0"))


def test_register_mismatch_names_both_sizes():
    one, two = pauli_x(1, 1), pauli_x(2, 1)
    calls = [
        lambda: one + two,
        lambda: compose(one, two),
        lambda: apply_diffop(one, encode_basis("01")),
        lambda: apply_substitution(Substitution.hadamard(2, 1), encode_basis("0")),
        lambda: encode_basis("0") * encode_basis("01"),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="register mismatch: 1 vs 2 qubits"):
            call()


def test_gatespec_validation():
    with pytest.raises(ValueError):
        GateSpec("Q", (1,))
    with pytest.raises(ValueError):
        GateSpec("X", (1, 2))
    with pytest.raises(ValueError):
        GateSpec("CNOT", (2, 2))
    with pytest.raises(ValueError):
        GateSpec("CU", (1, 2))  # missing block
    with pytest.raises(ValueError):
        GateSpec("X", (1,), np.eye(2))  # stray block


@pytest.mark.parametrize("kind, qubits, message", [
    ("X", (1.9,), "qubit indices must be integers, got (1.9,)"),
    ("H", (1.5,), "qubit indices must be integers, got (1.5,)"),
    ("CNOT", (True, 2), "qubit indices must be integers, got (True, 2)"),
    ("X", (np.True_,), "qubit indices must be integers, got (np.True_,)"),
    ("CZ", (1, np.False_), "qubit indices must be integers, got (1, np.False_)"),
    ("X", 1, "qubit indices must be integers, got 1"),
    ("X", (0,), "qubit indices are 1-based, got (0,)"),
    ("CNOT", (2, -1), "qubit indices are 1-based, got (2, -1)"),
    ("SWAP", (np.int64(3), np.int64(3)), "repeated qubit in (3, 3)"),
    ("X", (1, 2), "X takes 1 qubit(s), got (1, 2)"),
    ("CU", (), "CU takes 2 qubit(s), got ()"),
    ("CU", (0, 0), "qubit indices are 1-based, got (0, 0)"),
    (["X"], (1,), "unknown gate kind ['X']"),
    (7, (1,), "unknown gate kind 7"),
    (None, (1,), "unknown gate kind None"),
    ("x", (1,), "unknown gate kind 'x'"),
], ids=["float", "float-h", "bool", "numpy-bool", "numpy-bool-second", "not-a-sequence",
        "zero", "negative", "repeated", "arity-1", "arity-2", "zero-before-repeat",
        "list-kind", "int-kind", "no-kind", "lower-case-kind"])
def test_gatespec_refuses_non_integer_qubits_and_non_string_kind(kind, qubits, message):
    with pytest.raises(ValueError) as err:
        GateSpec(kind, qubits)
    assert str(err.value) == message


def test_gatespec_takes_numpy_integer_qubits():
    for qubits in ((np.int64(2), np.int32(1)), (np.uint8(2), 1), [np.int16(2), 1]):
        gate = GateSpec("CNOT", qubits)
        assert gate.qubits == (2, 1)
        assert all(type(q) is int for q in gate.qubits)


def test_circuit_rejects_out_of_range_qubits():
    with pytest.raises(ValueError):
        Circuit(1, (GateSpec("X", (2,)),))


@pytest.mark.parametrize("qubit", [0, -1, 3])
def test_builders_refuse_qubits_outside_the_register(qubit):
    n, message = 2, f"qubit index {qubit} out of range 1..2"
    builders = [lambda: pauli_x(n, qubit), lambda: pauli_y(n, qubit), lambda: pauli_z(n, qubit),
                lambda: hadamard_op(n, qubit), lambda: Substitution.hadamard(n, qubit),
                lambda: Substitution.swap(n, 1, qubit), lambda: Substitution.swap(n, qubit, 2),
                lambda: cnot_op(qubit, 2, n), lambda: cz_op(2, qubit, n),
                lambda: swap_op(qubit, 1, n), lambda: controlled_u(1, qubit, X_MAT, n)]
    if qubit > 0:  # GateSpec itself refuses qubits below 1
        builders += [lambda: gate_operator(GateSpec("X", (qubit,)), n),
                     lambda: gate_operator(GateSpec("SWAP", (1, qubit)), n)]
    for build in builders:
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message


def test_gate_operator_default_forms():
    assert isinstance(gate_operator(GateSpec("H", (1,)), 1), Substitution)
    assert isinstance(gate_operator(GateSpec("SWAP", (1, 2)), 2), Substitution)
    assert isinstance(gate_operator(GateSpec("X", (1,)), 1), DiffOperator)


# -- full gate application --------------------------------------------


def test_apply_gate_bit_flip():
    psi = encode_state(np.array([1.0, 0.0]))
    out = apply_gate(GateSpec("X", (1,)), psi)
    assert out.amplitudes == {"1": 1.0 + 0j}


def test_apply_gate_hadamard_then_measure_coeffs():
    psi = encode_state(np.array([1.0, 0.0]))
    out = apply_gate(GateSpec("H", (1,)), psi)
    assert abs(out.amplitudes["0"] - 1 / SQ2) < 1e-15
    assert abs(out.amplitudes["1"] - 1 / SQ2) < 1e-15


def test_bell_circuit():
    circ = Circuit(2, (GateSpec("H", (1,)), GateSpec("CNOT", (1, 2))))
    out = run_circuit_holo(circ, encode_state(np.array([1, 0, 0, 0], dtype=complex)))
    r = 1 / SQ2
    assert abs(out.amplitudes["00"] - r) < 1e-15
    assert abs(out.amplitudes["11"] - r) < 1e-15
    assert set(out.amplitudes) == {"00", "11"}


def test_empty_circuit_is_identity():
    rng = np.random.default_rng(9)
    psi = encode_state(random_state_vector(rng, 3))
    assert run_circuit_holo(Circuit(3, ()), psi) == psi


@pytest.mark.parametrize("form", ["map", "vector"])
def test_empty_circuit_returns_its_start_in_its_form(form):
    """No gates: the start comes back in its form, with its items in their order, bit for bit."""
    n, rng = 5, np.random.default_rng(5)
    v = random_state_vector(rng, n)
    v[[3, 17]] = [complex(-0.0, 0.25), 0.0]
    if form == "map":  # labels out of index order, as an unsorted file loads
        labels = [format(k, f"0{n}b") for k in rng.permutation(2 ** n).tolist()]
        start = HoloState(n, {bits: v[int(bits, 2)] for bits in labels})
    else:
        start = HoloState(n, v)
    out = run_circuit_holo(Circuit(n, ()), start)
    assert (out.vector is None) == (form == "map")
    assert exact_items(out) == exact_items(start)
    if form == "vector":
        assert np.array_equal(out.vector.view(np.uint64), start.vector.view(np.uint64))


def test_double_x_restores_state():
    rng = np.random.default_rng(13)
    psi = encode_state(random_state_vector(rng, 2))
    circ = Circuit(2, (GateSpec("X", (1,)), GateSpec("X", (1,))))
    out = run_circuit_holo(circ, psi)
    assert max(abs(out.amplitudes[b] - psi.amplitudes[b])
               for b in psi.amplitudes) < 1e-12


def test_gate_identities_square_to_identity():
    rng = np.random.default_rng(17)
    psi = encode_state(random_state_vector(rng, 2))
    doubles = [
        (GateSpec("X", (1,)),) * 2,
        (GateSpec("Y", (2,)),) * 2,
        (GateSpec("Z", (1,)),) * 2,
        (GateSpec("H", (2,)),) * 2,
        (GateSpec("CNOT", (1, 2)),) * 2,
        (GateSpec("CZ", (1, 2)),) * 2,
        (GateSpec("SWAP", (1, 2)),) * 2,
    ]
    for gates in doubles:
        out = run_circuit_holo(Circuit(2, gates), psi)
        dev = compare_states(psi.to_vector(), out.to_vector())
        assert dev < 1e-10, gates[0].kind


def test_unitarity_preserves_inner_products():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        u = encode_state(random_state_vector(rng, n))
        v = encode_state(random_state_vector(rng, n))
        circ = random_circuit(rng, n, 8)
        ip_before = sb_inner_product(to_poly(u), to_poly(v))
        ip_after = sb_inner_product(to_poly(run_circuit_holo(circ, u)),
                                    to_poly(run_circuit_holo(circ, v)))
        assert abs(ip_before - ip_after) < 1e-10


def test_homogeneity_preserved_through_random_circuits():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        psi = encode_state(random_state_vector(rng, n))
        state = psi
        for gate in random_circuit(rng, n, 10).gates:
            state = apply_gate(gate, state)
            assert check_all_homogeneity(to_poly(state))


def test_matches_oracle_on_random_circuits():
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        depth = int(rng.integers(1, 20))
        circ = random_circuit(rng, n, depth)
        v0 = random_state_vector(rng, n)
        holo = run_circuit_holo(circ, encode_state(v0))
        ref = run_circuit_matrix(circ, StateVector(v0))
        assert compare_states(ref, holo.to_vector()) < 1e-9


def test_diffop_form_matches_substitution_form():
    for op, sub in ((hadamard_op(1, 1), Substitution.hadamard(1, 1)),
                    (swap_op(1, 2, 2), Substitution.swap(2, 1, 2))):
        a, b = derive_block(op), derive_block(sub)
        assert np.array_equal(a != 0, b != 0)
        assert np.max(np.abs(a - b)) < 1e-15


def test_haar_random_unitary_is_unitary():
    rng = np.random.default_rng(37)
    for _ in range(50):
        u = haar_random_unitary(rng)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12


# -- compiled blocks against the full-register algebra ----------------


def operator_twin(gate, nqubits):
    """The gate as a DiffOperator, with H and SWAP in their operator forms."""
    if gate.kind == "H":
        return hadamard_op(nqubits, gate.qubits[0])
    if gate.kind == "SWAP":
        return swap_op(gate.qubits[0], gate.qubits[1], nqubits)
    return gate_operator(gate, nqubits)


def run_circuit_symbolic(circuit, state, operator=gate_operator):
    """Each gate as an operator on the whole register, applied to the polynomial."""
    for gate in circuit.gates:
        op = operator(gate, circuit.nqubits)
        poly = to_poly(state)
        out = (apply_substitution(op, poly) if isinstance(op, Substitution)
               else apply_diffop(op, poly))
        state = from_poly(out)
    return state


def every_kind_gates(draw, n, gates):
    """Append each gate kind once, then up to 4 more; the first pair gate reversed."""
    kinds = draw(st.permutations(ALL_KINDS)) + draw(
        st.lists(st.sampled_from(ALL_KINDS), max_size=4))
    for kind in kinds:
        if GATE_ARITY[kind] == 1:
            gates.append(GateSpec(kind, (draw(st.integers(1, n)),)))
            continue
        pair = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
        if all(len(g.qubits) == 1 for g in gates):
            pair.sort(reverse=True)  # the first pair gate: control > target
        u = None
        if kind == "CU":
            u = haar_random_unitary(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
        gates.append(GateSpec(kind, tuple(pair), u))
    return Circuit(n, tuple(gates))


@st.composite
def circuits_with_every_kind(draw):
    """A circuit holding every gate kind, on a start state either side of the crossover.

    A start state with fewer than DENSE_MIN_TERMS terms begins on the sparse
    path; a full one at N >= 4 begins on the dense path.  Full states stop at
    N = 6, where the symbolic reference still takes milliseconds per gate.
    """
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v0 = random_state_vector(rng, n)
    if n > 6 or draw(st.booleans()):
        terms = draw(st.integers(1, min(DENSE_MIN_TERMS - 1, 2 ** n)))
        v0[rng.choice(2 ** n, 2 ** n - terms, replace=False)] = 0
        v0 /= np.linalg.norm(v0)
    return every_kind_gates(draw, n, []), v0


@st.composite
def hadamards_from_zero(draw):
    """|0...0> at N = 6 through H on every qubit, past the crossover, then every kind."""
    hadamards = [GateSpec("H", (q,)) for q in range(1, 7)]
    return every_kind_gates(draw, 6, hadamards), np.eye(64)[0].astype(complex)


def fold_gates(circuit, state):
    for gate in circuit.gates:
        state = apply_gate(gate, state)
    return state


@settings(deadline=None, max_examples=50)
@given(circuits_with_every_kind() | hadamards_from_zero())
def test_compiled_blocks_match_symbolic_oracle_and_diffop_form(case):
    circ, v0 = case
    psi = encode_state(v0)
    sparse = fold_gates(circ, HoloState(circ.nqubits, psi.amplitudes))
    dense = fold_gates(circ, HoloState(circ.nqubits, v0.copy()))
    assert sparse.vector is None and dense.vector is not None
    compiled = [run_circuit_holo(circ, psi).to_vector(), sparse.to_vector(), dense.vector]
    references = [
        run_circuit_symbolic(circ, psi).to_vector(),
        run_circuit_matrix(circ, StateVector(v0)).amplitudes,
        run_circuit_symbolic(circ, psi, operator_twin).to_vector(),
    ]
    for got in compiled:
        for ref in references:
            assert np.max(np.abs(got - ref)) < 1e-10


def test_dense_path_stays_off_above_max_dense_qubits(monkeypatch):
    rng = np.random.default_rng(41)
    circ = random_circuit(rng, 4, 24)
    psi = encode_state(random_state_vector(rng, 4))
    assert len(psi.amplitudes) >= DENSE_MIN_TERMS + 16 // DENSE_AMPLITUDES_PER_TERM
    expected = run_circuit_holo(circ, psi)
    monkeypatch.setattr(holostate, "MAX_DENSE_QUBITS", 3)
    with pytest.raises(ValueError, match="3-qubit limit"):
        psi.to_vector()  # what the dense path would call to go dense
    got = run_circuit_holo(circ, psi)
    assert got.amplitudes.keys() == expected.amplitudes.keys()
    assert max(abs(got.amplitudes[b] - expected.amplitudes[b]) for b in got.amplitudes) < 1e-12


def test_run_returns_the_form_it_ends_in():
    rng = np.random.default_rng(44)
    circ = random_circuit(rng, 6, 24)
    dense_start = HoloState(6, encode_state(random_state_vector(rng, 6)).amplitudes)
    out = run_circuit_holo(circ, dense_start)
    assert out.vector is not None  # never decoded to a map by the run
    assert np.max(np.abs(out.to_vector() - run_circuit_matrix(
        circ, StateVector(dense_start.to_vector())).amplitudes)) < 1e-12
    permutation = Circuit(6, tuple(GateSpec(k, (1, 2)) for k in ("SWAP", "CNOT", "CZ")))
    assert run_circuit_holo(permutation, encode_state({"000000": 1.0})).vector is None


def test_sixteen_term_wide_circuit_allocates_no_dense_tensor():
    n = 18
    gates = [GateSpec("H", (q,)) for q in (3, 9, 14, 18)]
    gates += [GateSpec(kind, (q, q % n + 1)) for kind in ("CNOT", "SWAP", "CZ")
              for q in range(1, n + 1)]
    circ = Circuit(n, tuple(gates))
    # A one-term start in either form: below the crossover a vector start uses its map.
    for psi in (encode_state({"0" * n: 1.0}), encode_state(np.eye(1, 2 ** n, dtype=complex))):
        tracemalloc.start()
        try:
            out = run_circuit_holo(circ, psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.vector is None and len(out.amplitudes) == 16
        assert peak < 16 * 2 ** n // 8  # a dense vector alone would be 16 * 2^N bytes


def test_cu_blocks_from_cached_components_match_derivation():
    rng = np.random.default_rng(43)
    for _ in range(20):
        u = haar_random_unitary(rng)
        block = gate_block(GateSpec("CU", (1, 2), u))
        assert np.max(np.abs(block - derive_block(_local_operator("CU", u)))) <= 1e-15


# -- the dense kernel, bit for bit -------------------------------------


def reference_apply_dense(block, positions, tensor):
    """The np.tensordot form of the dense kernel: block axes contracted with the gate's axes."""
    k = len(positions)
    out = np.tensordot(block.reshape((2,) * (2 * k)), tensor, axes=(range(k, 2 * k), positions))
    return np.moveaxis(out, range(k), positions)


def exact_entries(tensor):
    """Every entry of an array in index order, each part as float.hex, so -0.0 differs from 0.0."""
    return [(c.real.hex(), c.imag.hex()) for c in np.asarray(tensor).reshape(-1).tolist()]


def signed_zero_tensor(rng, n):
    """A random [2]*N tensor in which a quarter of the real and of the imaginary parts are ±0.0."""
    v = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    for part in (v.real, v.imag):
        where = rng.choice(2 ** n, max(1, 2 ** n // 4), replace=False)
        part[where] = np.where(rng.integers(2, size=where.size), 0.0, -0.0)
    return v.reshape((2,) * n)


@pytest.mark.parametrize("n", range(1, 11))
def test_dense_kernel_matches_tensordot_bit_for_bit(n):
    """Every kind on every qubit, and on every ordered pair, from starts with signed zeros."""
    rng = np.random.default_rng(200 + n)
    gates = [GateSpec(kind, (q,)) for kind in ("X", "Y", "Z", "H") for q in range(1, n + 1)]
    gates += [GateSpec(kind, (a, b), haar_random_unitary(rng) if kind == "CU" else None)
              for kind in ("SWAP", "CNOT", "CZ", "CU")
              for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    basis = np.zeros((2,) * n, dtype=complex)
    basis.flat[-1] = 1.0
    for tensor in (signed_zero_tensor(rng, n), basis):
        for gate in gates:
            block, positions = gate_block(gate), [q - 1 for q in gate.qubits]
            got = _apply_dense(block, positions, tensor)
            ref = reference_apply_dense(block, positions, tensor)
            assert got.shape == ref.shape == tensor.shape, gate
            assert exact_entries(got) == exact_entries(ref), gate


@pytest.mark.parametrize("n", [8, 12])
def test_dense_circuit_run_matches_tensordot_fold_bit_for_bit(n):
    rng = np.random.default_rng(300 + n)
    circ = random_circuit(rng, n, 96)
    start = HoloState(n, signed_zero_tensor(rng, n).reshape(-1))
    ref = start.vector.reshape((2,) * n)
    for gate in circ.gates:
        ref = reference_apply_dense(gate_block(gate), [q - 1 for q in gate.qubits], ref)
    got = run_circuit_holo(circ, start)
    assert got.vector is not None
    assert exact_entries(got.vector) == exact_entries(HoloState(n, ref.reshape(-1)).vector)


# -- the map-form kernel, bit for bit ----------------------------------


def reference_apply_sparse(block, positions, amplitudes):
    """The per-character map-form kernel: each output label rebuilt from its characters.

    The result is pruned at ZERO_TOL as HoloState prunes, in the same order,
    and not checked: a non-finite entry stays, as the kernel keeps it.
    """
    labels = [format(i, f"0{len(positions)}b") for i in range(len(block))]
    columns = {col: [(row, c) for row, c in zip(labels, coeffs) if c]
               for col, coeffs in zip(labels, block.T.tolist())}
    out = {}
    for bits, amp in amplitudes.items():
        chars = list(bits)
        for row, coeff in columns["".join([bits[p] for p in positions])]:
            for p, ch in zip(positions, row):
                chars[p] = ch
            key = "".join(chars)
            out[key] = out.get(key, 0j) + coeff * amp
    return {k: c for k, c in out.items() if not abs(c) <= holostate.ZERO_TOL}


def exact_items(amplitudes):
    """A state's or a kernel's map in its order, each part as float.hex, so -0.0 differs from 0.0."""
    if isinstance(amplitudes, HoloState):
        amplitudes = amplitudes.amplitudes
    return [(bits, amp.real.hex(), amp.imag.hex()) for bits, amp in amplitudes.items()]


def kernel_gates(n, rng):
    """Every kind on qubit 1, N and a middle one; pair gates both ways, adjacent and far apart."""
    singles = sorted({1, (n + 1) // 2, n})
    pairs = sorted({pair for a, b in ((1, 2), (1, n), (n - 1, n), (n // 3 + 1, n - 2))
                    if 1 <= a < b <= n for pair in ((a, b), (b, a))})
    for kind in ALL_KINDS:
        for qubits in (singles if GATE_ARITY[kind] == 1 else pairs):
            yield GateSpec(kind, (qubits,) if GATE_ARITY[kind] == 1 else qubits,
                           haar_random_unitary(rng) if kind == "CU" else None)


def kernel_states(n, rng):
    """A random sparse state, one with signed zeros, and H|0...0>, which H on qubit 1 cancels."""
    where = (rng.choice(2 ** n, min(2 ** n, 7), replace=False).tolist() if n < 63
             else [int.from_bytes(rng.bytes(9), "big") >> (72 - n) for _ in range(7)])
    v = rng.standard_normal(len(where)) + 1j * rng.standard_normal(len(where))
    v /= np.linalg.norm(v)
    yield HoloState(n, {format(k, f"0{n}b"): c for k, c in zip(where, v.tolist())})
    yield HoloState(n, {"0" * n: complex(-0.0, 0.6), "1" * n: complex(0.8, -0.0)})
    yield apply_gate(GateSpec("H", (1,)), encode_state({"0" * n: 1.0}))


def keyed(state):
    """A state's map on the integer keys the map-form kernel reads: the labels as binary."""
    return {int(bits, 2): c for bits, c in state.amplitudes.items()}


def apply_keyed(gate, n, amplitudes):
    """The map-form kernel on one gate, its result labelled again."""
    out = _apply_sparse(gate_table(gate), n, gate.qubits, amplitudes)
    assert type(out) is dict
    return {format(k, f"0{n}b"): c for k, c in out.items()}


@pytest.mark.parametrize("n", [1, 2, 3, 20, 65, 70])
def test_map_kernel_matches_per_character_reference_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for state in kernel_states(n, rng):
        for gate in kernel_gates(n, rng):
            ref = reference_apply_sparse(gate_block(gate), [q - 1 for q in gate.qubits],
                                         state.amplitudes)
            assert exact_items(apply_keyed(gate, n, keyed(state))) == exact_items(ref), gate
            assert exact_items(apply_gate(gate, state)) == exact_items(ref), gate
            one = run_circuit_holo(Circuit(n, (gate,)), state)
            assert one.vector is None and exact_items(one) == exact_items(ref), gate


def test_map_kernel_prunes_cancelled_terms():
    for n in (1, 20, 70):
        h = GateSpec("H", (n,))
        plus = apply_gate(h, encode_state({"0" * n: 1.0}))
        assert len(plus.amplitudes) == 2
        back = apply_keyed(h, n, keyed(plus))
        assert exact_items(back) == exact_items(reference_apply_sparse(
            gate_block(h), [n - 1], plus.amplitudes))
        assert list(back) == ["0" * n]
        assert exact_items(apply_gate(h, plus)) == exact_items(back)


def test_map_kernel_keeps_non_finite_entries_for_the_check():
    h = GateSpec("H", (1,))
    overflow = apply_keyed(h, 1, {0: 1.5e308 + 0j, 1: 1.5e308 + 0j})
    assert list(overflow) == ["0"] and overflow["0"].real == math.inf  # "1" cancels to 0
    nan = apply_keyed(h, 1, {0: overflow["0"]})  # inf * (1/sqrt2 + 0j) has a NaN imaginary part
    assert list(nan) == ["0", "1"]
    assert all(math.isnan(c.imag) for c in nan.values())
    assert list(apply_keyed(GateSpec("X", (1,)), 1, {0: nan["0"], 1: nan["1"]})) == ["1", "0"]
    with pytest.raises(ValueError, match="not finite"):
        HoloState(1, nan)


def test_only_unit_permutation_tables_skip_the_prune():
    """X, Y, Z, SWAP, CNOT and CZ move each term to a key of its own times 1, -1, 1j or -1j."""
    permuting = {"X", "Y", "Z", "SWAP", "CNOT", "CZ"}
    for kind in ALL_KINDS:
        if kind != "CU":
            assert _fixed_table(kind)[1] == (kind in permuting), kind
    rng = np.random.default_rng(49)
    haar = GateSpec("CU", (1, 2), haar_random_unitary(rng))
    assert not gate_table(haar)[1]
    flip = GateSpec("CU", (1, 2), X_MAT)  # a CNOT as its table holds it
    cnot = (((0, 1),), ((1, 1),), ((3, 1),), ((2, 1),))  # column 2 goes to row 3 and back
    assert gate_table(flip) == _fixed_table("CNOT") == (cnot, True)
    # |0.8+0.6j| is 1.0 in floating point, but c * amp rounds, here to ZERO_TOL: pruned.
    phase = GateSpec("CU", (1, 2), np.diag([1, 0.8 + 0.6j]))
    amp = complex(-7.341273014107228e-15, 6.790118594865704e-15)
    assert abs(amp) > holostate.ZERO_TOL >= abs((0.8 + 0.6j) * amp)
    assert not gate_table(phase)[1]
    state = HoloState(2, {"11": amp, "00": 1.0})
    ref = reference_apply_sparse(gate_block(phase), [0, 1], state.amplitudes)
    assert list(ref) == ["00"] and exact_items(apply_gate(phase, state)) == exact_items(ref)


@pytest.mark.parametrize("n", [3, 70])
def test_permutation_fold_skips_the_prune_bit_for_bit(n):
    """From signed zeros, inf and NaN, every output sits alone at its key, as the prune keeps it."""
    rng = np.random.default_rng(n)
    start = {"0" * n: complex(-0.0, 0.6), "1" * n: complex(math.inf, -0.0),
             "01" * (n // 2) + "0" * (n % 2): complex(math.nan, 2e-14),
             "1" + "0" * (n - 1): complex(1e-14, 1e-14)}
    gates = [g for g in kernel_gates(n, rng) if g.kind in ("X", "Y", "Z", "SWAP", "CNOT", "CZ")]
    gates += random_circuit(rng, n, 40, ("X", "Y", "Z", "SWAP", "CNOT", "CZ")).gates
    ref = start
    for gate in gates:
        got = apply_keyed(gate, n, {int(bits, 2): c for bits, c in ref.items()})
        ref = reference_apply_sparse(gate_block(gate), [q - 1 for q in gate.qubits], ref)
        assert exact_items(got) == exact_items(ref), gate
    assert len(ref) == len(start)


def test_circuit_run_matches_per_character_fold_bit_for_bit():
    rng = np.random.default_rng(47)
    n = 20  # past the crossover only from 4 104 terms: the run stays in the map form
    circ = random_circuit(rng, n, 120)
    state = encode_state({"0" * n: 1.0})
    ref = state.amplitudes
    for gate in circ.gates:
        ref = reference_apply_sparse(gate_block(gate), [q - 1 for q in gate.qubits], ref)
    got = run_circuit_holo(circ, state)
    assert got.vector is None and exact_items(got) == exact_items(ref)


def per_gate_fold(circuit, state):
    """run_circuit_holo's fold through the public per-gate API: a checked HoloState per gate.

    An empty circuit returns its start, in its form.
    """
    if not circuit.gates:
        return state
    n = state.nqubits
    dense_from = dense_crossover(n)
    state = HoloState(n, state.amplitudes)
    for gate in circuit.gates:
        if state.vector is None and len(state.amplitudes) >= dense_from:
            state = HoloState(n, state.to_vector())
        state = apply_gate(gate, state)
    return state


def fold_cases():
    """Runs in the map form, and runs that cross the dense switch mid-circuit."""
    rng = np.random.default_rng(48)
    signed = {"000": complex(-0.0, 0.6), "111": complex(0.8, -0.0)}
    yield Circuit(1, (GateSpec("H", (1,)),) * 3), encode_state({"0": 1.0})
    for n, start in ((1, {"1": 1.0}), (2, {"01": 1.0}), (3, {"000": 1.0}), (3, signed),
                     (20, {"0" * 20: 1.0})):
        for _ in range(3):
            yield random_circuit(rng, n, 40), encode_state(start)
    # N = 8 from one term: three H keep 8 terms in the map form, the fourth makes 16,
    # so the next gate goes dense; the CU gates run on both sides of the switch.
    for switch_at in (3, 4):
        hs = tuple(GateSpec("H", (q,)) for q in range(1, switch_at + 1))
        cus = tuple(GateSpec("CU", (q, 9 - q), haar_random_unitary(rng)) for q in (1, 2))
        yield (Circuit(8, cus + hs + cus + random_circuit(rng, 8, 30).gates),
               encode_state({"0" * 8: 1.0}))
    # Vector-form starts below the crossover (8 terms at N = 3, 9 at N = 8), at it, above
    # it, and before an empty circuit: each with a signed zero, and an entry to prune
    # where one fits, so that the start holds one more nonzero entry than stored terms.
    for n, terms, depth in ((3, 5, 30), (3, 8, 30), (8, 8, 30), (8, 9, 30), (8, 256, 30),
                            (8, 256, 0)):
        v = np.zeros(2 ** n, dtype=complex)
        v[rng.choice(2 ** n, terms, replace=False)] = [1, 1j] @ rng.standard_normal((2, terms))
        v[np.flatnonzero(v)[0]] = complex(-0.0, 0.6)
        v[np.flatnonzero(v == 0)[:1]] = complex(1e-15, -0.0)
        yield random_circuit(rng, n, depth), HoloState(n, v)
        if (n, terms) == (8, 8):  # kinds that keep 8 stored terms: the run stays a map
            keep = ("X", "Y", "Z", "SWAP", "CNOT", "CZ")
            yield random_circuit(rng, n, 12, keep), HoloState(n, v)


def test_circuit_run_equals_per_gate_fold_bit_for_bit():
    for circ, state in fold_cases():
        got, ref = run_circuit_holo(circ, state), per_gate_fold(circ, state)
        assert (got.vector is None) == (ref.vector is None)
        assert exact_items(got) == exact_items(ref), circ
    crossed = [run_circuit_holo(c, s).vector is not None for c, s in fold_cases()]
    assert crossed.count(True) >= 5 and crossed.count(False) >= 10


def test_vector_start_above_the_crossover_is_not_decoded_to_its_map():
    n = 16
    psi = HoloState(n, random_state_vector(np.random.default_rng(16), n))
    circ = Circuit(n, (GateSpec("H", (8,)),))
    tracemalloc.start()
    try:
        out = run_circuit_holo(circ, psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.vector is not None
    assert peak < 4 * 2 ** 20  # the start's label map alone holds ~7.9 MiB


def test_circuit_run_refuses_a_non_finite_result_in_either_form():
    """An unnormalized start whose sums overflow: refused at the end or at the dense switch."""
    n = 3
    start = HoloState(n, {"000": 1.5e308, "100": 1.5e308})
    h1 = GateSpec("H", (1,))
    spread = tuple(GateSpec("H", (q,)) for q in (2, 3, 1))  # 8 terms at N = 3: the switch
    for gates in [(h1,), (h1, h1), (h1,) + spread, (h1,) + spread + (GateSpec("X", (2,)),)]:
        with pytest.raises(ValueError, match="not finite"):
            run_circuit_holo(Circuit(n, gates), start)
    # The X after the switch runs dense and makes no new sum, so the check at the switch
    # refuses that run before the end's check could.  Sums below the overflow stay finite.
    large = Circuit(n, (h1,) * 2)
    finite = HoloState(n, {"000": 1e308, "100": 1e308})
    assert exact_items(run_circuit_holo(large, finite)) == exact_items(per_gate_fold(large, finite))


def test_dense_switch_names_the_first_non_finite_entry_in_map_order():
    """The switch refuses as HoloState refuses the map; the tensor's index order names '000'."""
    start = HoloState(3, {"101": 1.5e308, "010": 1.5e308, "100": 1.5e308})
    gates = tuple(GateSpec(kind, qubits) for kind, qubits in (
        ("H", (3,)), ("X", (2,)), ("H", (2,)), ("X", (3,)), ("H", (1,)), ("CNOT", (2, 3))))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match=r"amplitude of '001' is not finite: \(nan\+nanj\)"):
        run_circuit_holo(Circuit(3, gates), start)


def test_circuit_run_refuses_a_result_that_overflows_after_the_dense_switch():
    """The run checks its dense result itself, not only when its amplitudes are read."""
    start = HoloState(3, {"000": 1.5e308, "001": 1.5e308})
    gates = tuple(GateSpec("H", (q,)) for q in (1, 2, 1, 2, 3))  # the switch, then H3 overflows
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match=r"amplitude of '000' is not finite: \(inf\+nanj\)"):
        run_circuit_holo(Circuit(3, gates), start)


def test_cached_column_tables_are_read_only():
    table = gate_table(GateSpec("CNOT", (3, 1)))
    assert table is gate_table(GateSpec("CNOT", (7, 2))) is gate_table(GateSpec("CNOT", (1, 3)))
    columns, permutes = table
    assert isinstance(table, tuple) and isinstance(columns, tuple) and permutes is True
    with pytest.raises(TypeError):
        columns[0] = ()
    for column in columns:
        assert isinstance(column, tuple) and all(isinstance(entry, tuple) for entry in column)


@pytest.mark.parametrize("make", [
    lambda: encode_basis("01"),
    lambda: encode_state(np.array([1.0, 0.0])),
    lambda: DiffOperator.identity(1),
], ids=["SparsePoly", "HoloState", "DiffOperator"])
def test_value_classes_are_unhashable(make):
    with pytest.raises(TypeError):
        hash(make())
