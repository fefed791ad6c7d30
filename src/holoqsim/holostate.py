"""Qubit states as holomorphic polynomials.

An N-qubit state is stored as a polynomial in 2N complex variables, one
(z_a, z_b) pair per qubit.  The computational basis string s maps to the
monomial

    prod_j z_{a_j}^(1 - s_j) * z_{b_j}^(s_j)

so bit 0 of qubit j is carried by z_{a_j} and bit 1 by z_{b_j}.  A general
state is a complex combination of these monomials and is therefore
homogeneous of degree one in every pair: applying the Euler operator
z_a d/dz_a + z_b d/dz_b of any qubit returns the polynomial unchanged.
That degree-one condition is what makes a polynomial "physical" here, and
`from_poly` refuses anything outside it.

Variables are indexed 0..2N-1 with a_j at 2*(j-1) and b_j at 2*(j-1)+1
for qubits j = 1..N.  Bit strings are big-endian: qubit 1 is the leftmost
character, so "01" means qubit 1 in 0 and qubit 2 in 1, and the string
read as a binary integer is the index into a flat amplitude vector.

The inner product is the Gaussian (Bargmann) one, under which monomials
are orthogonal with ||z^e||^2 = prod_k e_k!.  On physical polynomials all
factorials are 0! or 1!, so it reduces to the usual amplitude dot product.
"""

from __future__ import annotations

import cmath
import math
import operator

import numpy as np

# Coefficients at or below this magnitude are dropped from stored maps.
ZERO_TOL = 1e-14
# |<psi|psi> - 1| bound used when flagging a state as normalized.
NORM_TOL = 1e-10
# Largest register HoloState.to_vector builds a dense vector for.
MAX_DENSE_QUBITS = 24


class NonPhysicalPolynomialError(ValueError):
    """Raised when a polynomial is not a valid one-hot qubit encoding."""


def a_index(qubit: int) -> int:
    """Flat variable index of z_a for 1-based qubit j."""
    return 2 * (qubit - 1)


def b_index(qubit: int) -> int:
    """Flat variable index of z_b for 1-based qubit j."""
    return 2 * (qubit - 1) + 1


def _check_qubit(qubit: int, nqubits: int) -> None:
    if not 1 <= qubit <= nqubits:
        raise ValueError(f"qubit index {qubit} out of range 1..{nqubits}")


def require_dense(nqubits: int) -> None:
    """Raise ValueError when a register is above MAX_DENSE_QUBITS.

    Call it before allocating any 2^N amplitude array.
    """
    if nqubits > MAX_DENSE_QUBITS:
        raise ValueError(
            f"{nqubits} qubits exceed the {MAX_DENSE_QUBITS}-qubit limit "
            f"for dense 2^N amplitude vectors")


def vdot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.vdot of matching rows (last axis) of two stacks, bitwise equal to it.

    The stacked matmul reduces each row in np.vdot's order; np.einsum and
    (conj(a) * b).sum() do not, and move the last digits.
    """
    return (a.conj()[..., None, :] @ b[..., :, None])[..., 0, 0]


def norm_rows(v: np.ndarray) -> np.ndarray:
    """2-norm of each row (last axis) of a complex stack, bitwise equal to np.linalg.norm."""
    return np.sqrt(vdot_rows(v.real, v.real) + vdot_rows(v.imag, v.imag))


def integral_exponents(expo, key) -> tuple[int, ...]:
    """expo as a tuple of ints; a non-integral entry raises ValueError naming key."""
    try:
        return tuple(operator.index(e) for e in expo)
    except TypeError:
        raise ValueError(f"non-integral exponent in {key}") from None


def format_powers(prefix: str, expo: tuple[int, ...]) -> str:
    """Power product such as "z0^2*z1" of an exponent tuple; "" when all are 0."""
    return "*".join(f"{prefix}{k}^{e}" if e > 1 else f"{prefix}{k}"
                    for k, e in enumerate(expo) if e)


class TermMap:
    """Sparse map from exponent keys to complex coefficients on N qubits.

    The shared core of `SparsePoly` and `diffop.DiffOperator`.  A subclass
    fixes the key shape with `_check_key(key, nvars)`, which returns the key
    in canonical form or raises ValueError, and names a key in `__repr__`
    with `_monomial(key)`.  Repeated keys are summed, coefficients with
    magnitude <= ZERO_TOL are pruned on construction and after every
    arithmetic operation (so a map that cancels to zero compares equal to
    `zero`), and a non-finite coefficient raises ValueError naming its key.
    """

    __slots__ = ("nqubits", "terms")

    def __init__(self, nqubits: int, terms: dict | None = None):
        if nqubits < 1:
            raise ValueError(f"nqubits must be >= 1, got {nqubits}")
        self.nqubits = nqubits
        nvars = 2 * nqubits
        check_key = self._check_key
        clean: dict = {}
        for key, coeff in (terms or {}).items():
            key = check_key(key, nvars)
            c = complex(coeff)
            if not cmath.isfinite(c):
                raise ValueError(f"coefficient of {key} is not finite: {c}")
            if abs(c) > ZERO_TOL:
                clean[key] = clean.get(key, 0j) + c
                if abs(clean[key]) <= ZERO_TOL:
                    del clean[key]
        self.terms = clean

    @classmethod
    def zero(cls, nqubits: int):
        return cls(nqubits, {})

    def _require_same_register(self, other) -> None:
        if self.nqubits != other.nqubits:
            raise ValueError(
                f"register mismatch: {self.nqubits} vs {other.nqubits} qubits")

    def __add__(self, other):
        self._require_same_register(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0j) + c
        return type(self)(self.nqubits, out)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, scalar):
        return type(self)(self.nqubits,
                          {key: complex(scalar) * c for key, c in self.terms.items()})

    def __rmul__(self, scalar):
        return self * scalar

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.nqubits == other.nqubits and self.terms == other.terms

    def __repr__(self) -> str:
        name = type(self).__name__
        if not self.terms:
            return f"{name}(n={self.nqubits}, 0)"
        parts = [f"({self.terms[key]:.6g})*{self._monomial(key) or '1'}"
                 for key in sorted(self.terms)]
        return f"{name}(n={self.nqubits}, " + " + ".join(parts) + ")"


class SparsePoly(TermMap):
    """Sparse polynomial in the 2N pair variables of an N-qubit register.

    Terms map exponent tuples (length 2N, entries >= 0) to complex
    coefficients.
    """

    __slots__ = ()

    @staticmethod
    def _check_key(expo, nvars: int) -> tuple[int, ...]:
        expo = integral_exponents(expo, expo)
        if len(expo) != nvars:
            raise ValueError(
                f"exponent tuple {expo} has length {len(expo)}, expected {nvars}")
        if any(e < 0 for e in expo):
            raise ValueError(f"negative exponent in {expo}")
        return expo

    @staticmethod
    def _monomial(expo: tuple[int, ...]) -> str:
        return format_powers("z", expo)

    # -- constructors -------------------------------------------------

    @classmethod
    def one(cls, nqubits: int) -> "SparsePoly":
        return cls(nqubits, {(0,) * (2 * nqubits): 1.0 + 0j})

    @classmethod
    def monomial(cls, nqubits: int, exponents: tuple[int, ...],
                 coeff: complex = 1.0 + 0j) -> "SparsePoly":
        return cls(nqubits, {tuple(exponents): coeff})

    @classmethod
    def variable(cls, nqubits: int, index: int) -> "SparsePoly":
        """The polynomial z_index (flat variable index 0..2N-1)."""
        if not 0 <= index < 2 * nqubits:
            raise ValueError(f"variable index {index} out of range 0..{2*nqubits - 1}")
        expo = [0] * (2 * nqubits)
        expo[index] = 1
        return cls(nqubits, {tuple(expo): 1.0 + 0j})

    # -- algebra ------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            return super().__mul__(other)
        self._require_same_register(other)
        out: dict[tuple[int, ...], complex] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                out[key] = out.get(key, 0j) + c1 * c2
        return SparsePoly(self.nqubits, out)

    # -- queries ------------------------------------------------------

    def coeff(self, exponents: tuple[int, ...]) -> complex:
        return self.terms.get(tuple(exponents), 0j)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def max_coeff_diff(self, other: "SparsePoly") -> float:
        self._require_same_register(other)
        keys = self.terms.keys() | other.terms.keys()
        if not keys:
            return 0.0
        return max(abs(self.terms.get(e, 0j) - other.terms.get(e, 0j)) for e in keys)


class HoloState:
    """An N-qubit state held as its basis-amplitude map.

    This is the decoded form of a physical polynomial: bit string -> complex
    amplitude, with near-zero amplitudes pruned.  `is_normalized` records
    whether the 2-norm is within NORM_TOL of one at construction.
    """

    __slots__ = ("nqubits", "amplitudes", "is_normalized")

    def __init__(self, nqubits: int, amplitudes: dict[str, complex]):
        if nqubits < 1:
            raise ValueError(f"nqubits must be >= 1, got {nqubits}")
        self.nqubits = nqubits
        clean: dict[str, complex] = {}
        for bits, amp in amplitudes.items():
            if len(bits) != nqubits or any(ch not in "01" for ch in bits):
                raise ValueError(
                    f"bad basis label {bits!r} for {nqubits} qubit(s)")
            c = complex(amp)
            if not cmath.isfinite(c):
                raise ValueError(f"amplitude of {bits!r} is not finite: {c}")
            if abs(c) > ZERO_TOL:
                clean[bits] = c
        self.amplitudes = clean
        self.is_normalized = abs(self.norm() - 1.0) <= NORM_TOL

    def norm(self) -> float:
        """2-norm of the amplitudes; inf when a square overflows a float."""
        try:
            return math.sqrt(sum(abs(c) ** 2 for c in self.amplitudes.values()))
        except OverflowError:
            return math.inf

    def to_vector(self) -> np.ndarray:
        """Flat amplitude vector of length 2^N, index = bit string as binary.

        Raises ValueError above MAX_DENSE_QUBITS.  This is where `diff` and
        `entanglement` allocate 2^N amplitudes, and `diff` holds at most four
        such vectors of 16 * 2^N bytes at once (measured with tracemalloc at
        N = 18: in the oracle's H and CU contractions and in compare_states),
        so 24 qubits peak at 1 GiB and each qubit more doubles it.
        """
        require_dense(self.nqubits)
        v = np.zeros(2 ** self.nqubits, dtype=complex)
        for bits, amp in self.amplitudes.items():
            v[int(bits, 2)] = amp
        return v

    def __eq__(self, other) -> bool:
        if not isinstance(other, HoloState):
            return NotImplemented
        return self.nqubits == other.nqubits and self.amplitudes == other.amplitudes

    def __repr__(self) -> str:
        amps = ", ".join(f"|{b}>: {c:.6g}" for b, c in sorted(self.amplitudes.items()))
        return f"HoloState(n={self.nqubits}, {{{amps}}})"


# -- encoding and decoding -------------------------------------------


def basis_exponents(bits: str) -> tuple[int, ...]:
    """Exponent tuple of the monomial encoding a basis bit string."""
    expo = [0] * (2 * len(bits))
    for j, ch in enumerate(bits, start=1):
        if ch not in "01":
            raise ValueError(f"bad basis label {bits!r}")
        expo[a_index(j) + int(ch)] = 1
    return tuple(expo)


def encode_basis(bits: str) -> SparsePoly:
    """Monomial for one computational basis state, e.g. "01" -> z_a1 * z_b2."""
    if not bits:
        raise ValueError("empty basis label")
    return SparsePoly.monomial(len(bits), basis_exponents(bits))


def encode_state(amplitudes: np.ndarray | list | dict[str, complex],
                 nqubits: int | None = None) -> HoloState:
    """Build a HoloState from a flat big-endian amplitude vector or a dict."""
    if isinstance(amplitudes, dict):
        if nqubits is None:
            if not amplitudes:
                raise ValueError("cannot infer qubit count from an empty dict")
            nqubits = len(next(iter(amplitudes)))
        return HoloState(nqubits, amplitudes)
    v = np.asarray(amplitudes, dtype=complex).ravel()
    n = int(round(math.log2(v.size))) if v.size else 0
    if v.size < 2 or 2 ** n != v.size:
        raise ValueError(f"amplitude vector length {v.size} is not a power of two >= 2")
    # Written as not (|v| <= tol) so that a non-finite entry reaches HoloState,
    # which rejects it.
    amps = {format(k, f"0{n}b"): v[k] for k in range(v.size)
            if not abs(v[k]) <= ZERO_TOL}
    return HoloState(n, amps)


def to_poly(state: HoloState) -> SparsePoly:
    """Encode a state as its physical polynomial."""
    terms = {basis_exponents(bits): amp for bits, amp in state.amplitudes.items()}
    return SparsePoly(state.nqubits, terms)


def _exponents_to_bits(expo: tuple[int, ...], nqubits: int) -> str:
    bits = []
    for j in range(1, nqubits + 1):
        ea, eb = expo[a_index(j)], expo[b_index(j)]
        if (ea, eb) == (1, 0):
            bits.append("0")
        elif (ea, eb) == (0, 1):
            bits.append("1")
        else:
            raise NonPhysicalPolynomialError(
                f"monomial with exponents {expo} is not one-hot on qubit {j}: "
                f"pair degrees ({ea}, {eb})")
    return "".join(bits)


def from_poly(poly: SparsePoly) -> HoloState:
    """Decode a physical polynomial back to amplitudes.

    Every stored monomial must put exactly degree one on each qubit pair,
    split as z_a^1 z_b^0 or z_a^0 z_b^1; anything else (a constant term,
    z_a^2, a mixed z_a z_b factor) names the offending exponent tuple in a
    NonPhysicalPolynomialError.
    """
    amps: dict[str, complex] = {}
    for expo, coeff in poly.terms.items():
        amps[_exponents_to_bits(expo, poly.nqubits)] = coeff
    return HoloState(poly.nqubits, amps)


def check_homogeneity(poly: SparsePoly, qubit: int) -> bool:
    """True when the Euler operator of a qubit pair fixes the polynomial.

    Equivalent statement: every stored monomial has total degree one in
    (z_a, z_b) of that qubit.  The zero polynomial fails (it carries no
    degree-one content to be an eigenvector of eigenvalue one).
    """
    _check_qubit(qubit, poly.nqubits)
    if poly.is_zero:
        return False
    ia, ib = a_index(qubit), b_index(qubit)
    return all(expo[ia] + expo[ib] == 1 for expo in poly.terms)


def check_all_homogeneity(poly: SparsePoly) -> bool:
    """Degree-one check across every qubit pair at once."""
    return all(check_homogeneity(poly, j) for j in range(1, poly.nqubits + 1))


def sb_inner_product(f: SparsePoly, g: SparsePoly) -> complex:
    """Gaussian-measure inner product, antilinear in the first argument.

    Monomials are orthogonal with squared norm prod_k e_k!, so the sum runs
    over shared exponent tuples only.  On physical polynomials every
    factorial is 1 and this is the plain amplitude inner product.
    """
    f._require_same_register(g)
    total = 0j
    small, big = (f.terms, g.terms) if len(f.terms) <= len(g.terms) else (g.terms, f.terms)
    for expo in small:
        if expo in big:
            weight = 1
            for e in expo:
                weight *= math.factorial(e)
            total += f.terms[expo].conjugate() * g.terms[expo] * weight
    return total
