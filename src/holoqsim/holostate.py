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
read as a binary integer is the index into a flat amplitude vector and
the key of a HoloState's map.  A label is parsed once, where a state is
built from labels, and formatted only where text is made.

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
# Largest register for which any 2^N amplitude array is built: HoloState.to_vector,
# the dense gate path of diffop.run_circuit_holo and loop files.  It also sets
# the cap of the sparse oracle form (oracle.sparse_cap).
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


def fits_dense(nqubits: int) -> bool:
    """True when a register is at most MAX_DENSE_QUBITS, read at call time."""
    return nqubits <= MAX_DENSE_QUBITS


def require_dense(nqubits: int) -> None:
    """Raise ValueError when a register is above MAX_DENSE_QUBITS.

    Call it before allocating any 2^N amplitude array.
    """
    if not fits_dense(nqubits):
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

    def __init__(self, nqubits: int, terms: dict):
        if nqubits < 1:
            raise ValueError(f"nqubits must be >= 1, got {nqubits}")
        self.nqubits = nqubits
        nvars = 2 * nqubits
        check_key = self._check_key
        clean: dict = {}
        for key, coeff in terms.items():
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
    def monomial(cls, nqubits: int, exponents: tuple[int, ...]) -> "SparsePoly":
        return cls(nqubits, {tuple(exponents): 1.0 + 0j})

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

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def max_coeff_diff(self, other: "SparsePoly") -> float:
        self._require_same_register(other)
        keys = self.terms.keys() | other.terms.keys()
        if not keys:
            return 0.0
        return max(abs(self.terms.get(e, 0j) - other.terms.get(e, 0j)) for e in keys)


def prune_amplitudes(v: np.ndarray) -> np.ndarray:
    """A copy of a complex 2^N vector, or a stack of them, with entries <= ZERO_TOL set to 0j.

    The dense form of HoloState's rule for its map: a non-finite entry raises
    ValueError naming the label of the first one in row order.
    """
    finite = np.isfinite(v)
    if not finite.all():
        k = int(np.argmin(finite))  # flat index of the first non-finite entry
        bits = format(k % v.shape[-1], f"0{v.shape[-1].bit_length() - 1}b")
        raise ValueError(f"amplitude of {bits!r} is not finite: {complex(v.flat[k])}")
    return np.where(np.abs(v) > ZERO_TOL, v, 0j)


def basis_indices(labels, nqubits: int) -> np.ndarray | None:
    """The indices of basis labels, in their order; None when any is not an N-bit label.

    The bulk form of HoloState's label check and parse, for a register that
    fits dense arrays: a label is an nqubits-character string of ASCII 0s and
    1s.  The characters are counted, not handed to int(bits, 2), which would
    also read "1_11", " 011", "+011" and non-ASCII digits.
    """
    require_dense(nqubits)
    labels = list(labels)
    if set(map(type, labels)) != {str} or set(map(len, labels)) != {nqubits}:
        return None
    joined = "".join(labels)
    if joined.count("0") + joined.count("1") != len(joined):
        return None
    bits = np.frombuffer(joined.encode("ascii"), dtype=np.uint8).reshape(-1, nqubits) & 1
    return bits @ (1 << np.arange(nqubits - 1, -1, -1))


class HoloState:
    """An N-qubit state, the decoded form of a physical polynomial: a map or a vector.

    The map is basis index -> amplitude, index = bit string as binary, checked
    and pruned at ZERO_TOL on construction.  A vector form keeps
    `prune_amplitudes` of a complex 2^N array as its own read-only copy in
    `vector` (None for a map); the caller's array is left as it was.  Both
    forms read the same, through `indexed`, and by label through `amplitudes`,
    which is cached on first use, as `is_normalized` is.
    """

    __slots__ = ("nqubits", "vector", "_indexed", "_amplitudes", "_is_normalized")

    def __init__(self, nqubits: int, amplitudes: dict[str, complex] | np.ndarray):
        if nqubits < 1:
            raise ValueError(f"nqubits must be >= 1, got {nqubits}")
        self.nqubits, self._amplitudes, self._is_normalized = nqubits, None, None
        if isinstance(amplitudes, np.ndarray):
            if amplitudes.shape != (2 ** nqubits,) or amplitudes.dtype != complex:
                raise ValueError(f"{nqubits}-qubit vector must be complex of length {2 ** nqubits}")
            self.vector, self._indexed = prune_amplitudes(amplitudes), None
            self.vector.flags.writeable = False
            return
        self.vector, self._indexed = None, {}
        # Checked inline: state files below the dense crossover, unsorted or failing the bulk pass
        clean = self._indexed
        for bits, amp in amplitudes.items():
            if not isinstance(bits, str) or len(bits) != nqubits or bits.strip("01"):
                raise ValueError(f"bad basis label {bits!r} for {nqubits} qubit(s)")
            c = complex(amp)
            if not cmath.isfinite(c):
                raise ValueError(f"amplitude of {bits!r} is not finite: {c}")
            if abs(c) > ZERO_TOL:
                clean[int(bits, 2)] = c

    @classmethod
    def from_indexed(cls, nqubits: int, amplitudes: dict[int, complex]) -> "HoloState":
        """Map form of int keys (not bools) in 0..2^N - 1, checked in map order as labels are."""
        state = cls(nqubits, {})
        for k, amp in amplitudes.items():
            if type(k) is not int or not 0 <= k < 1 << nqubits:
                raise ValueError(f"bad basis index {k!r} for {nqubits} qubit(s)")
            c = complex(amp)
            if not cmath.isfinite(c):
                raise ValueError(f"amplitude of {format(k, f'0{nqubits}b')!r} is not finite: {c}")
            if abs(c) > ZERO_TOL:
                state._indexed[k] = c
        return state

    @property
    def indexed(self) -> dict[int, complex]:
        """Index -> amplitude, read-only: the map, or a vector's nonzeros, built on each read."""
        if self.vector is None:
            return self._indexed
        index = np.flatnonzero(self.vector)
        return dict(zip(index.tolist(), self.vector[index].tolist()))

    @property
    def amplitudes(self) -> dict[str, complex]:
        """Bit string -> amplitude, in the order of `indexed`, not to be mutated."""
        if self._amplitudes is None:
            label = f"0{self.nqubits}b"
            self._amplitudes = {format(k, label): c for k, c in self.indexed.items()}
        return self._amplitudes

    @property
    def is_normalized(self) -> bool:
        """True when the 2-norm is within NORM_TOL of one."""
        if self._is_normalized is None:
            self._is_normalized = abs(self.norm() - 1.0) <= NORM_TOL
        return self._is_normalized

    def norm(self) -> float:
        """2-norm of the amplitudes, summed in map order; inf when a square overflows a float.

        A vector form sums its nonzero entries in index order, without building a map.
        """
        v = self.vector
        values = self._indexed.values() if v is None else v[np.flatnonzero(v)].tolist()
        try:
            return math.sqrt(sum(abs(c) ** 2 for c in values))
        except OverflowError:
            return math.inf

    def to_vector(self) -> np.ndarray:
        """Flat amplitude vector of length 2^N, index = bit string as binary; a writable copy.

        Raises ValueError above MAX_DENSE_QUBITS.  This is where a dense
        `diff` and `entanglement` allocate 2^N amplitudes (a sparse `diff`
        never calls it).  A dense `diff` holds about five such vectors of
        16 * 2^N bytes at once (tracemalloc at N = 16: the engine's result,
        and the oracle's input, buffer and H contraction), so 24 qubits peak
        near 1.25 GiB and each qubit more doubles it.
        """
        require_dense(self.nqubits)
        if self.vector is not None:
            return self.vector.copy()
        v = np.zeros(2 ** self.nqubits, dtype=complex)
        v[list(self._indexed)] = list(self._indexed.values())
        return v

    def __eq__(self, other) -> bool:
        if not isinstance(other, HoloState):
            return NotImplemented
        return self.nqubits == other.nqubits and self.indexed == other.indexed

    def __repr__(self) -> str:
        amps = ", ".join(f"|{b}>: {c:.6g}" for b, c in sorted(self.amplitudes.items()))
        return f"HoloState(n={self.nqubits}, {{{amps}}})"


# -- encoding and decoding -------------------------------------------


def basis_exponents(index: int, nqubits: int) -> tuple[int, ...]:
    """Exponent tuple of the monomial encoding a basis index; qubit j reads bit N - j."""
    expo = [0] * (2 * nqubits)
    for j in range(1, nqubits + 1):
        expo[a_index(j) + (index >> (nqubits - j) & 1)] = 1
    return tuple(expo)


def encode_basis(bits: str) -> SparsePoly:
    """Monomial for one computational basis state, e.g. "01" -> z_a1 * z_b2."""
    if not bits:
        raise ValueError("empty basis label")
    if bits.strip("01"):
        raise ValueError(f"bad basis label {bits!r}")
    return SparsePoly.monomial(len(bits), basis_exponents(int(bits, 2), len(bits)))


def encode_state(amplitudes: np.ndarray | list | dict[str, complex]) -> HoloState:
    """Build a HoloState from a flat big-endian amplitude vector or a dict."""
    if isinstance(amplitudes, dict):
        if not amplitudes:
            raise ValueError("cannot infer qubit count from an empty dict")
        return HoloState(len(next(iter(amplitudes))), amplitudes)
    v = np.asarray(amplitudes, dtype=complex).ravel()
    n = int(round(math.log2(v.size))) if v.size else 0
    if v.size < 2 or 2 ** n != v.size:
        raise ValueError(f"amplitude vector length {v.size} is not a power of two >= 2")
    return HoloState(n, v)


def to_poly(state: HoloState) -> SparsePoly:
    """Encode a state as its physical polynomial."""
    n = state.nqubits
    return SparsePoly(n, {basis_exponents(k, n): amp for k, amp in state.indexed.items()})


def _exponents_to_index(expo: tuple[int, ...], nqubits: int) -> int:
    k = 0
    for j in range(1, nqubits + 1):
        ea, eb = expo[a_index(j)], expo[b_index(j)]
        if (ea, eb) not in ((1, 0), (0, 1)):
            raise NonPhysicalPolynomialError(
                f"monomial with exponents {expo} is not one-hot on qubit {j}: "
                f"pair degrees ({ea}, {eb})")
        k = k << 1 | eb
    return k


def from_poly(poly: SparsePoly) -> HoloState:
    """Decode a physical polynomial back to amplitudes.

    Every stored monomial must put exactly degree one on each qubit pair,
    split as z_a^1 z_b^0 or z_a^0 z_b^1; anything else (a constant term,
    z_a^2, a mixed z_a z_b factor) names the offending exponent tuple in a
    NonPhysicalPolynomialError.
    """
    n = poly.nqubits
    return HoloState.from_indexed(n, {_exponents_to_index(expo, n): coeff
                                      for expo, coeff in poly.terms.items()})


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
