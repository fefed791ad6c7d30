"""Gates as polynomial differential operators and variable substitutions.

Single-qubit gates act on the pair (z_a, z_b) of the target qubit through
first-order operators built from multiplication and d/dz:

    X = z_a d_b + z_b d_a        (swaps the two variables' roles)
    Y = -i (z_a d_b - z_b d_a)
    Z = z_a d_a - z_b d_b        (degree difference between the modes)
    H = (X + Z) / sqrt(2)

H and the two-qubit SWAP also have an exact substitution form: H pulls
variables back through the linear map (z_a, z_b) -> ((z_a + z_b)/sqrt(2),
(z_a - z_b)/sqrt(2)) and SWAP permutes the two qubit pairs.  Controlled
gates decompose over the control pair's projectors:

    CNOT = (1 + Z_c)/2 + (1 - Z_c)/2 * X_t
    CZ   = (1 + Z_c + Z_t - Z_c Z_t)/2
    CU   = u00 + u01 X_t + u10 Y_t + u11 Z_t  conjugated by the control
           projectors, with u00..u11 the Pauli components tr(u)/2, tr(Xu)/2,
           tr(Yu)/2, tr(Zu)/2 of the 2x2 block.

Products of operators are normal ordered (all multiplications left of all
derivatives) with the per-variable commutation rule

    d^d z^m = sum_i C(d, i) * m!/(m-i)! * z^(m-i) d^(d-i),

which is how compose() keeps the term dictionary canonical.  Operator
identities such as X Y = i Z hold on the physical (degree-one) subspace:
as raw normally ordered expressions the two sides can differ by terms like
z_a^2 d_b^2 that kill every physical polynomial, so identity checks are
made by applying both sides to basis monomials rather than comparing term
dictionaries.

A gate touches only its own one or two pairs, so a circuit never expands
the whole state.  The gate is built on a k-qubit register (its qubits
relabelled 1..k in the gate's order), and `derive_block` applies that
operator or substitution to each of the 2^k basis monomials and decodes
each image with `from_poly`, which raises on any output that is not
homogeneous of degree one in every pair: the homogeneity claim is checked
each time a block is derived.  The result is a 2^k x 2^k matrix.  A kind
without parameters is derived once and cached with its table.  A CU block
is linear in the Pauli components of its u, so the five blocks of P0_c and
of P1_c times 1, X, Y, Z on the target are derived once and each CU block
is their weighted sum.  `run_circuit_holo` folds a circuit, and
`apply_gate` runs one step of that fold in the state's own form.  A map
form is folded on its keys, `HoloState.indexed`, each a label read as a
big-endian integer (qubit q is bit N - q), so a run parses and formats no
label.  A key's gate bits select a block column, whose nonzero entries are
read into a table once per kind and once per CU gate; each output key is
the input key with the row's bits put in, so a gate costs a few integer
operations per stored term and row, whatever N is.  X, Y, Z, SWAP, CNOT
and CZ move each term alone to a new key times 1, -1, 1j or -1j, so no
prune at ZERO_TOL follows them.  A vector form's 2^N array is contracted
with the block as a [2]*N tensor, which `run_circuit_holo` moves to at a
measured crossover.  The dict is checked by `HoloState.from_indexed` once
per run (per gate in `apply_gate`).  That is safe because every key is a
checked key with block rows put in, and every block was checked by
`from_poly` when it was derived; a non-finite value, from an unnormalized
start that overflows, stays non-finite under these blocks, so the one
check still refuses it.
The full-register path (`gate_operator` on N qubits, `apply_diffop`,
`apply_substitution`, `to_poly`, `from_poly`) stays as the derivation and
as the cross-check the tests compare against.  H and SWAP always run
through their substitutions; their operator forms `hadamard_op` and
`swap_op` are the tests' cross-check of those.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from itertools import product as iter_product

import numpy as np

from .holostate import (
    ZERO_TOL,
    HoloState,
    SparsePoly,
    TermMap,
    _check_distinct,
    _check_qubit,
    a_index,
    b_index,
    basis_exponents,
    fits_dense,
    format_powers,
    from_poly,
    integral_exponents,
)

_SQRT2 = math.sqrt(2.0)

GATE_ARITY = {
    "X": 1, "Y": 1, "Z": 1, "H": 1,
    "SWAP": 2, "CNOT": 2, "CZ": 2, "CU": 2,
}

UNITARY_TOL = 1e-10


class DiffOperator(TermMap):
    """Normally ordered operator: dict (mult_exponents, deriv_exponents) -> coeff.

    Each key is a pair of length-2N tuples; the term acts on a monomial by
    differentiating first (falling factorials) and multiplying after.
    """

    __slots__ = ()

    @staticmethod
    def _check_key(key, nvars: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        mult, deriv = key
        mult, deriv = integral_exponents(mult, key), integral_exponents(deriv, key)
        if len(mult) != nvars or len(deriv) != nvars:
            raise ValueError("exponent tuples must have length 2N")
        if any(e < 0 for e in mult) or any(e < 0 for e in deriv):
            raise ValueError("negative exponent in operator term")
        return mult, deriv

    @staticmethod
    def _monomial(key: tuple[tuple[int, ...], tuple[int, ...]]) -> str:
        mult, deriv = key
        return "*".join(x for x in (format_powers("z", mult), format_powers("d", deriv)) if x)

    @classmethod
    def identity(cls, nqubits: int) -> "DiffOperator":
        z = (0,) * (2 * nqubits)
        return cls(nqubits, {(z, z): 1.0 + 0j})

    @classmethod
    def term(cls, nqubits: int, coeff: complex,
             mult: tuple[int, ...], deriv: tuple[int, ...]) -> "DiffOperator":
        return cls(nqubits, {(tuple(mult), tuple(deriv)): coeff})

    @classmethod
    def z_times_d(cls, nqubits: int, zvar: int, dvar: int,
                  coeff: complex = 1.0 + 0j) -> "DiffOperator":
        """Single term coeff * z_zvar * d/dz_dvar (flat variable indices)."""
        nvars = 2 * nqubits
        mult = [0] * nvars
        deriv = [0] * nvars
        mult[zvar] = 1
        deriv[dvar] = 1
        return cls.term(nqubits, coeff, tuple(mult), tuple(deriv))


def apply_diffop(op: DiffOperator, poly: SparsePoly) -> SparsePoly:
    """Apply an operator term by term via falling factorials on monomials."""
    op._require_same_register(poly)
    out: dict[tuple[int, ...], complex] = {}
    for (mult, deriv), oc in op.terms.items():
        for expo, pc in poly.terms.items():
            factor = 1
            for e, d in zip(expo, deriv):
                if d > e:
                    factor = 0
                    break
                factor *= math.perm(e, d)
            if factor == 0:
                continue
            key = tuple(e - d + m for e, d, m in zip(expo, deriv, mult))
            out[key] = out.get(key, 0j) + oc * pc * factor
    return SparsePoly(poly.nqubits, out)


def compose(op1: DiffOperator, op2: DiffOperator) -> DiffOperator:
    """Normally ordered product op1 after op2 ((op1 . op2) f = op1(op2 f)).

    For each pair of terms the inner derivative block d^d1 is pushed right
    through the outer multiplication block z^m2 one variable at a time:
    d^d z^m = sum_i C(d, i) (m falling i) z^(m-i) d^(d-i).
    """
    op1._require_same_register(op2)
    nvars = 2 * op1.nqubits
    out: dict[tuple[tuple[int, ...], tuple[int, ...]], complex] = {}
    for (m1, d1), c1 in op1.terms.items():
        for (m2, d2), c2 in op2.terms.items():
            ranges = [range(min(d1[k], m2[k]) + 1) for k in range(nvars)]
            for contraction in iter_product(*ranges):
                weight = 1
                for k, i in enumerate(contraction):
                    if i:
                        weight *= math.comb(d1[k], i) * math.perm(m2[k], i)
                mult = tuple(m1[k] + m2[k] - contraction[k] for k in range(nvars))
                deriv = tuple(d1[k] + d2[k] - contraction[k] for k in range(nvars))
                key = (mult, deriv)
                out[key] = out.get(key, 0j) + c1 * c2 * weight
    return DiffOperator(op1.nqubits, out)


# -- substitutions ----------------------------------------------------


class Substitution:
    """Pullback f -> f(M z) through an invertible linear map on the variables."""

    __slots__ = ("nqubits", "matrix")

    def __init__(self, nqubits: int, matrix: np.ndarray):
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (2 * nqubits, 2 * nqubits):
            raise ValueError(f"matrix shape {m.shape}, expected {(2*nqubits, 2*nqubits)}")
        if abs(np.linalg.det(m)) < 1e-12:
            raise ValueError("substitution matrix is singular")
        self.nqubits = nqubits
        self.matrix = m

    @classmethod
    def hadamard(cls, nqubits: int, qubit: int) -> "Substitution":
        """z_a -> (z_a + z_b)/sqrt(2), z_b -> (z_a - z_b)/sqrt(2) on one pair."""
        _check_qubit(qubit, nqubits)
        m = np.eye(2 * nqubits, dtype=complex)
        ia, ib = a_index(qubit), b_index(qubit)
        m[ia, ia] = m[ia, ib] = m[ib, ia] = 1.0 / _SQRT2
        m[ib, ib] = -1.0 / _SQRT2
        return cls(nqubits, m)

    @classmethod
    def swap(cls, nqubits: int, qubit1: int, qubit2: int) -> "Substitution":
        """Exchange the (z_a, z_b) pairs of two qubits."""
        _check_qubit(qubit1, nqubits)
        _check_qubit(qubit2, nqubits)
        _check_distinct(qubit1, qubit2)
        m = np.eye(2 * nqubits, dtype=complex)
        for off in (0, 1):
            i, j = a_index(qubit1) + off, a_index(qubit2) + off
            m[[i, j]] = m[[j, i]]
        return cls(nqubits, m)


def apply_substitution(sub: Substitution, poly: SparsePoly) -> SparsePoly:
    """Expand f(M z) by raising each substituted linear form to its exponent."""
    poly._require_same_register(sub)
    nvars = 2 * poly.nqubits
    linear_forms = []
    for k in range(nvars):
        lf = SparsePoly.zero(poly.nqubits)
        for l in range(nvars):
            if abs(sub.matrix[k, l]) > ZERO_TOL:
                lf = lf + sub.matrix[k, l] * SparsePoly.variable(poly.nqubits, l)
        linear_forms.append(lf)
    out = SparsePoly.zero(poly.nqubits)
    for expo, coeff in poly.terms.items():
        term = SparsePoly.one(poly.nqubits) * coeff
        for k, e in enumerate(expo):
            for _ in range(e):
                term = term * linear_forms[k]
        out = out + term
    return out


# -- gate specs and circuits ------------------------------------------


def _require_unitary(u: np.ndarray, what: str) -> None:
    if not (np.all(np.isfinite(u))
            and np.max(np.abs(u.conj().T @ u - np.eye(2))) <= UNITARY_TOL):
        raise ValueError(f"{what} is not a finite unitary within {UNITARY_TOL:g}")


@dataclass(frozen=True)
class GateSpec:
    """One gate application: kind, 1-based qubit indices, optional 2x2 block."""

    kind: str
    qubits: tuple[int, ...]
    u: np.ndarray | None = None

    def __post_init__(self):
        arity = GATE_ARITY.get(self.kind) if isinstance(self.kind, str) else None
        if arity is None:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        try:  # operator.index takes numpy integers and refuses floats; bools are refused here
            if bool in map(type, self.qubits):
                raise TypeError
            qs = tuple(map(operator.index, self.qubits))
        except TypeError:
            raise ValueError(f"qubit indices must be integers, got {self.qubits!r}") from None
        object.__setattr__(self, "qubits", qs)
        if len(qs) != arity:
            raise ValueError(f"{self.kind} takes {arity} qubit(s), got {qs}")
        if min(qs) < 1:
            raise ValueError(f"qubit indices are 1-based, got {qs}")
        _check_distinct(*qs)
        if self.kind == "CU":
            if self.u is None:
                raise ValueError("CU requires a 2x2 unitary block")
            u = np.asarray(self.u, dtype=complex)
            if u.shape != (2, 2):
                raise ValueError(f"CU block has shape {u.shape}, expected (2, 2)")
            _require_unitary(u, "CU block")
            object.__setattr__(self, "u", u)
        elif self.u is not None:
            raise ValueError(f"{self.kind} does not take a unitary block")


def _prechecked_gate(kind: str, qubits: tuple[int, ...], u: np.ndarray | None = None) -> GateSpec:
    """The GateSpec of fields that the caller has checked as __post_init__ would.

    The caller vouches for a kind of GATE_ARITY, a tuple of that many
    distinct ints from 1, and a complex 2x2 u exactly for a CU.  Only u is
    checked here, with __post_init__'s message, so the gate rules stay in
    this module.  `fileio.load_circuit` builds a file's gates with this once
    they have passed its check over all entries at once.
    """
    if u is not None:
        _require_unitary(u, "CU block")
    gate = object.__new__(GateSpec)
    fields = gate.__dict__  # what __init__ would write, without its per-field frozen setattr
    fields["kind"], fields["qubits"], fields["u"] = kind, qubits, u
    return gate


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over a fixed register size."""

    nqubits: int
    gates: tuple[GateSpec, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.nqubits < 1:
            raise ValueError("circuit needs at least one qubit")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            for q in g.qubits:
                if q > self.nqubits:
                    raise ValueError(
                        f"gate {g.kind} on qubit {q} exceeds register size {self.nqubits}")

    def __len__(self) -> int:
        return len(self.gates)


# -- single-qubit operator builders -----------------------------------


def pauli_x(nqubits: int, qubit: int) -> DiffOperator:
    _check_qubit(qubit, nqubits)
    ia, ib = a_index(qubit), b_index(qubit)
    return (DiffOperator.z_times_d(nqubits, ia, ib)
            + DiffOperator.z_times_d(nqubits, ib, ia))


def pauli_y(nqubits: int, qubit: int) -> DiffOperator:
    _check_qubit(qubit, nqubits)
    ia, ib = a_index(qubit), b_index(qubit)
    return (DiffOperator.z_times_d(nqubits, ia, ib, -1j)
            + DiffOperator.z_times_d(nqubits, ib, ia, 1j))


def pauli_z(nqubits: int, qubit: int) -> DiffOperator:
    _check_qubit(qubit, nqubits)
    ia, ib = a_index(qubit), b_index(qubit)
    return (DiffOperator.z_times_d(nqubits, ia, ia)
            + DiffOperator.z_times_d(nqubits, ib, ib, -1.0))


def hadamard_op(nqubits: int, qubit: int) -> DiffOperator:
    return (1.0 / _SQRT2) * (pauli_x(nqubits, qubit) + pauli_z(nqubits, qubit))


def _projector_terms(nqubits: int, qubit: int):
    """(P0, P1) with P0 = (1 + Z)/2 picking bit 0 and P1 = (1 - Z)/2 bit 1."""
    one = DiffOperator.identity(nqubits)
    z = pauli_z(nqubits, qubit)
    return 0.5 * (one + z), 0.5 * (one - z)


def _pauli_components(u: np.ndarray) -> tuple[complex, complex, complex, complex]:
    """(u0, ux, uy, uz) with u = u0 I + ux X + uy Y + uz Z.

    u0 = tr(u)/2, ux = tr(X u)/2, uy = tr(Y u)/2, uz = tr(Z u)/2.
    """
    u0 = (u[0, 0] + u[1, 1]) / 2.0
    ux = (u[0, 1] + u[1, 0]) / 2.0
    uy = (1j * u[0, 1] - 1j * u[1, 0]) / 2.0  # tr(Y u)/2 with Y = [[0,-i],[i,0]]
    uz = (u[0, 0] - u[1, 1]) / 2.0
    return u0, ux, uy, uz


def _cu_terms(control: int, target: int, nqubits: int) -> tuple[DiffOperator, ...]:
    """P0_c and P1_c times 1, X, Y, Z on the target: the terms of a controlled block."""
    p0, p1 = _projector_terms(nqubits, control)
    return (p0, p1, *(compose(p1, pauli(nqubits, target))
                      for pauli in (pauli_x, pauli_y, pauli_z)))


def controlled_u(control: int, target: int, u: np.ndarray,
                 nqubits: int) -> DiffOperator:
    """Controlled 2x2 block via its Pauli components on the target pair.

    The operator is P0_c + P1_c * (u0 + ux X + uy Y + uz Z on the target),
    with the components of `_pauli_components`.
    """
    _check_distinct(control, target)
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError("controlled block must be 2x2")
    _require_unitary(u, "controlled block")
    p0, *p1_paulis = _cu_terms(control, target, nqubits)
    return sum((c * t for c, t in zip(_pauli_components(u), p1_paulis)), p0)


def cnot_op(control: int, target: int, nqubits: int) -> DiffOperator:
    _check_distinct(control, target)
    p0, p1 = _projector_terms(nqubits, control)
    return p0 + compose(p1, pauli_x(nqubits, target))


def cz_op(control: int, target: int, nqubits: int) -> DiffOperator:
    _check_distinct(control, target)
    one = DiffOperator.identity(nqubits)
    zc = pauli_z(nqubits, control)
    zt = pauli_z(nqubits, target)
    return 0.5 * (one + zc + zt - compose(zc, zt))


def swap_op(qubit1: int, qubit2: int, nqubits: int) -> DiffOperator:
    """SWAP as (1 + XX + YY + ZZ)/2, the operator twin of the pair exchange."""
    _check_distinct(qubit1, qubit2)
    one = DiffOperator.identity(nqubits)
    xx = compose(pauli_x(nqubits, qubit1), pauli_x(nqubits, qubit2))
    yy = compose(pauli_y(nqubits, qubit1), pauli_y(nqubits, qubit2))
    zz = compose(pauli_z(nqubits, qubit1), pauli_z(nqubits, qubit2))
    return 0.5 * (one + xx + yy + zz)


def gate_operator(gate: GateSpec, nqubits: int) -> DiffOperator | Substitution:
    """Representation of a gate on an N-qubit register.

    H and SWAP are their exact Substitution forms (`hadamard_op` and
    `swap_op` are the operator twins the tests check them against);
    everything else is a DiffOperator.
    """
    k, qs = gate.kind, gate.qubits
    if k == "X":
        return pauli_x(nqubits, qs[0])
    if k == "Y":
        return pauli_y(nqubits, qs[0])
    if k == "Z":
        return pauli_z(nqubits, qs[0])
    if k == "H":
        return Substitution.hadamard(nqubits, qs[0])
    if k == "SWAP":
        return Substitution.swap(nqubits, qs[0], qs[1])
    if k == "CNOT":
        return cnot_op(qs[0], qs[1], nqubits)
    if k == "CZ":
        return cz_op(qs[0], qs[1], nqubits)
    if k == "CU":
        return controlled_u(qs[0], qs[1], gate.u, nqubits)
    raise ValueError(f"unknown gate kind {k!r}")


# Local block of a gate: the 2^k x 2^k matrix whose column c holds the image
# of the basis state with input bits c on the gate's qubits, in the gate's
# order (first qubit most significant), and whose rows are the output bits.
GateBlock = np.ndarray

# The stored term count from which run_circuit_holo moves a state to the
# dense path: DENSE_MIN_TERMS + 2^N / DENSE_AMPLITUDES_PER_TERM.  One map-form
# gate as the fold runs it (gate_table and _apply_sparse on integer keys, no
# per-gate check; unscaled, one thread, 2-vCPU x86-64 host, N = 8, 12 and 18,
# 40 random non-CU gates, median over gates of the best of 7, two runs) costs
# 0.28-0.36 us per stored term at 16 terms, 0.26-0.30 us at 256, 0.80-0.89 us
# at one term, and 12.5-13.4 us for a one-term CU, whose block and table are
# built per call.  A dense gate, one np.dot, costs 8-15 us at N = 8, 20-52 us
# at N = 12 and 6.2-8.1 ms at N = 18 (all kinds, best of 7 per gate, range
# over gates and two runs; not re-measured since): ~8 us plus ~25 ns per
# amplitude.  The constants date from ~4 us per sparse term, where dense paid
# from ~8 + 2^N / 280 terms (N = 8 goes dense from 9 terms, N = 18 from
# 1 032, and a 16-term state at N = 18 stays sparse).  Today's figures put the
# break-even near 25 + 2^N / 12 terms; the constants stay until a scaling
# curve of both paths measures it with its own benchmark pairs.
DENSE_MIN_TERMS = 8
DENSE_AMPLITUDES_PER_TERM = 256


def dense_crossover(nqubits: int) -> float:
    """The stored term count from which a run holds an N-qubit state as a [2]*N tensor.

    DENSE_MIN_TERMS + 2^N // DENSE_AMPLITUDES_PER_TERM, or inf above
    MAX_DENSE_QUBITS.  `fileio` reads a state file of that many amplitudes
    straight into the vector form.
    """
    if not fits_dense(nqubits):
        return math.inf
    return DENSE_MIN_TERMS + 2 ** nqubits // DENSE_AMPLITUDES_PER_TERM


def _local_operator(kind: str, u: np.ndarray | None = None) -> DiffOperator | Substitution:
    """A gate's operator on a register of its own k qubits, relabelled 1..k in its order."""
    k = GATE_ARITY[kind]
    return gate_operator(GateSpec(kind, tuple(range(1, k + 1)), u), k)


def derive_block(op: DiffOperator | Substitution) -> GateBlock:
    """Block of a k-qubit operator: its images of the 2^k basis monomials.

    Each image is decoded with `from_poly`, which raises on any
    non-physical output.  The block is read-only, because the caches share it.
    """
    k = op.nqubits
    apply = apply_substitution if isinstance(op, Substitution) else apply_diffop
    block = np.zeros((2 ** k, 2 ** k), dtype=complex)
    for col in range(2 ** k):
        image = from_poly(apply(op, SparsePoly.monomial(k, basis_exponents(col, k))))
        for row, amp in image.indexed.items():
            block[row, col] = amp
    block.flags.writeable = False
    return block


@functools.cache
def _cu_component_blocks() -> tuple[GateBlock, ...]:
    """Blocks of P0_c and of P1_c times 1, X, Y, Z on the target (control 1, target 2).

    A CU block is linear in the Pauli components of its u, so these five
    derivations serve every CU.
    """
    return tuple(derive_block(t) for t in _cu_terms(1, 2, 2))


def gate_block(gate: GateSpec) -> GateBlock:
    """The local block of a gate, read from the algebra-derived caches."""
    if gate.kind != "CU":
        return _fixed_gate(gate.kind)[0]
    p0, *p1_paulis = _cu_component_blocks()
    return p0 + sum(c * b for c, b in zip(_pauli_components(gate.u), p1_paulis))


# Local table of a gate, read-only, in its block's bit order: (columns, permutes).
# columns[c] holds the nonzero (row, coeff) of block column c in row order.
# permutes: each column holds one entry, 1, -1, 1j or -1j, in a row of its own,
# so no outputs share a key, coeff * amp is exact, and a prune changes nothing.
LocalTable = tuple[tuple[tuple[tuple[int, complex], ...], ...], bool]


def _local_table(block: GateBlock) -> LocalTable:
    columns = tuple(tuple((r, c) for r, c in enumerate(coeffs) if c) for coeffs in block.T.tolist())
    units = {col[0][0] for col in columns if len(col) == 1 and col[0][1] in (1, -1, 1j, -1j)}
    return columns, len(units) == len(columns)


@functools.cache
def _fixed_gate(kind: str) -> tuple[GateBlock, LocalTable]:
    """Block and local table of a gate without parameters; one pair per kind, at most 7."""
    block = derive_block(_local_operator(kind))
    return block, _local_table(block)


def gate_table(gate: GateSpec) -> LocalTable:
    """The local table of a gate: cached per kind, built from its block for a CU."""
    return _fixed_gate(gate.kind)[1] if gate.kind != "CU" else _local_table(gate_block(gate))


def _apply_sparse(table: LocalTable, n: int, qubits: tuple[int, ...],
                  amplitudes: dict[int, complex]) -> dict[int, complex]:
    """Send every stored amplitude of an N-qubit map through the column that its gate bits select.

    Qubit q is bit N - q of a key, shifted here, so the fold's fixed cost per
    gate is one table lookup and this call (figures above DENSE_MIN_TERMS).
    Unless the table permutes, the result is pruned as HoloState prunes, but
    it is never checked: a non-finite entry stays for the caller to refuse.
    """
    out: dict[int, complex] = {}
    columns, permutes = table
    if len(qubits) == 1:
        s = n - qubits[0]
        spread, keep = (0, 1 << s), ~(1 << s)
        for key, amp in amplitudes.items():
            base = key & keep
            for r, coeff in columns[key >> s & 1]:
                k = base | spread[r]
                out[k] = out.get(k, 0j) + coeff * amp
    else:
        s0, s1 = n - qubits[0], n - qubits[1]
        spread = (0, 1 << s1, 1 << s0, 1 << s0 | 1 << s1)
        keep = ~spread[3]
        for key, amp in amplitudes.items():
            base = key & keep
            for r, coeff in columns[(key >> s0 & 1) << 1 | key >> s1 & 1]:
                k = base | spread[r]
                out[k] = out.get(k, 0j) + coeff * amp
    return out if permutes else {k: c for k, c in out.items() if not abs(c) <= ZERO_TOL}


def _apply_dense(block: GateBlock, positions: list[int], tensor: np.ndarray) -> np.ndarray:
    """Contract the block with the gate's axes of a [2]*N tensor; returns a view, unflattened.

    The gate's axes are moved to the front and flattened into 2^k rows, one
    np.dot multiplies the block into them, and the inverse transpose puts the
    axes back.  These are the operands np.tensordot builds for the same
    contraction, so the BLAS call and every bit are its, without its wrapper.
    """
    order = positions + [axis for axis in range(tensor.ndim) if axis not in positions]
    out = np.dot(block, tensor.transpose(order).reshape(len(block), -1))
    return out.reshape(tensor.shape).transpose(sorted(range(tensor.ndim), key=order.__getitem__))


def apply_gate(gate: GateSpec, state: HoloState) -> HoloState:
    """Apply a gate's local block to a state; the result has the state's form.

    One step of `run_circuit_holo`'s fold: a map form goes through the gate's
    local table and is checked as a new HoloState, a vector form is
    contracted with the block as a [2]*N tensor.
    """
    n = state.nqubits
    Circuit(n, (gate,))  # refuses a qubit beyond the register
    if state.vector is None:
        return HoloState.from_indexed(n, _apply_sparse(gate_table(gate), n, gate.qubits,
                                                       state.indexed))
    tensor = _apply_dense(gate_block(gate), [q - 1 for q in gate.qubits],
                          state.vector.reshape((2,) * n))
    return HoloState(n, tensor.reshape(-1))


def run_circuit_holo(circuit: Circuit, state: HoloState) -> HoloState:
    """Fold a circuit over a state, gate by gate, in the polynomial picture.

    The run holds one working value: a keyed dict until the term count
    reaches `dense_crossover(N)`, then one [2]*N tensor (never above
    MAX_DENSE_QUBITS), wrapped at the end.  A vector start at that count is
    contracted as it is when a gate follows; other starts run from their
    map; an empty circuit returns the checked start, in its own form.  The
    working value is checked once, at the dense switch or the end, not at
    the gate that made it, and each gate runs as `apply_gate` runs it.
    """
    n = state.nqubits
    if circuit.nqubits != n:
        raise ValueError(f"circuit is for {circuit.nqubits} qubit(s), state has {n}")
    if not circuit.gates:
        return state
    dense_from = dense_crossover(n)
    if state.vector is not None and np.count_nonzero(state.vector) >= dense_from:
        amps, tensor = None, state.vector.reshape((2,) * n)
    else:  # the checked start; the gates replace it
        amps, tensor = state.indexed, None
    for gate in circuit.gates:  # Circuit has checked every qubit against n
        if tensor is None:
            if len(amps) < dense_from:
                amps = _apply_sparse(gate_table(gate), n, gate.qubits, amps)
                continue
            tensor = HoloState.from_indexed(n, amps).to_vector().reshape((2,) * n)
        tensor = _apply_dense(gate_block(gate), [q - 1 for q in gate.qubits], tensor)
    return HoloState.from_indexed(n, amps) if tensor is None else HoloState(n, tensor.reshape(-1))


def haar_random_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed 2x2 unitary: QR of a complex Gaussian, phases fixed."""
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))
