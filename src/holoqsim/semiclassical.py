"""Classical evolution of the pair amplitudes under quadratic Hamiltonians.

Treating the 2N pair variables as classical complex coordinates z with
Poisson structure {z_j, conj(z_k)} = -i delta_jk, a quadratic Hamiltonian
H = conj(z)^T h z (h Hermitian) generates the linear flow

    i dz/dt = h z        =>        z(t) = exp(-i h t) z(0),

the classical mirror of Schrodinger evolution on the amplitude vector.
For a Pauli generator embedded in one qubit pair the propagator is

    exp(-i sigma t) = cos(t) I - i sin(t) sigma,

so at t = pi/2 the flow reproduces the gate up to the global phase -i.
Energy conj(z)^T h z and the norm of z are exact invariants of the flow
and stay conserved to rounding error under the eigenbasis propagator.
`propagator` takes one time or an array of times: a whole time grid
costs one eigendecomposition of h and gives the stack of propagators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .holostate import vdot_rows
from .torus import fixed_steps

HERMITIAN_TOL = 1e-12

_PAULI_BLOCKS = {
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1j], [1j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


@dataclass(frozen=True)
class CoherentPoint:
    """Classical phase-space point: one complex amplitude per pair variable."""

    z: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.z, dtype=complex).ravel()
        if v.size < 2 or v.size % 2:
            raise ValueError("z must hold an (a, b) amplitude pair per qubit")
        object.__setattr__(self, "z", v)

    @property
    def nqubits(self) -> int:
        return self.z.size // 2

    def norm(self) -> float:
        return float(np.linalg.norm(self.z))


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """H(z) = conj(z)^T h z with h Hermitian within HERMITIAN_TOL."""

    hmatrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.hmatrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
            raise ValueError(f"h must be square of even size, got shape {m.shape}")
        defect = float(np.max(np.abs(m - m.conj().T)))
        if not (defect <= HERMITIAN_TOL):
            raise ValueError(
                f"h is not Hermitian: max |h - h^dag| = {defect:.3g} exceeds "
                f"{HERMITIAN_TOL:g}")
        object.__setattr__(self, "hmatrix", m)

    @property
    def nqubits(self) -> int:
        return self.hmatrix.shape[0] // 2

    def energy(self, z: np.ndarray) -> float | np.ndarray:
        """conj(z)^T h z of one point, or an array of energies of a (..., 2N) stack.

        Each energy is bitwise equal to np.real(np.vdot(z, h @ z)) of its point.
        """
        v = np.asarray(z, dtype=complex)
        e = np.real(vdot_rows(v, (self.hmatrix @ v[..., None])[..., 0]))
        return float(e) if v.ndim == 1 else e


def pauli_hamiltonian(kind: str, qubit: int, nqubits: int = 1) -> QuadraticHamiltonian:
    """Pauli block on one qubit pair, zero elsewhere."""
    if kind not in _PAULI_BLOCKS:
        raise ValueError(f"kind must be one of X, Y, Z, got {kind!r}")
    if not 1 <= qubit <= nqubits:
        raise ValueError(f"qubit index {qubit} out of range 1..{nqubits}")
    h = np.zeros((2 * nqubits, 2 * nqubits), dtype=complex)
    i = 2 * (qubit - 1)
    h[i:i + 2, i:i + 2] = _PAULI_BLOCKS[kind]
    return QuadraticHamiltonian(h)


def propagator(ham: QuadraticHamiltonian, t: float | np.ndarray) -> np.ndarray:
    """exp(-i h t) through one eigendecomposition of the Hermitian h.

    A scalar t gives one (2N, 2N) matrix; an array of times gives the stack
    of shape t.shape + (2N, 2N), whose entry k is bitwise equal to the
    propagator of t[k] alone.
    """
    evals, evecs = np.linalg.eigh(ham.hmatrix)
    t = np.asarray(t, dtype=float)
    return (evecs * np.exp(-1j * evals * t[..., None, None])) @ evecs.conj().T


def evolve_classical(ham: QuadraticHamiltonian, z0: CoherentPoint | np.ndarray,
                     t: float, method: str = "exact",
                     dt: float = 1e-3) -> CoherentPoint:
    """Flow a phase-space point for time t.

    method="exact" applies the eigenbasis propagator in one shot;
    method="rk4" takes fixed steps of i dz/dt = h z, useful only as an
    integration cross-check of the exact route.
    """
    v = z0.z if isinstance(z0, CoherentPoint) else np.asarray(z0, dtype=complex).ravel()
    if v.size != ham.hmatrix.shape[0]:
        raise ValueError(
            f"point has {v.size} components, Hamiltonian expects {ham.hmatrix.shape[0]}")
    if method == "exact":
        return CoherentPoint(propagator(ham, t) @ v)
    if method != "rk4":
        raise ValueError(f"unknown method {method!r}")
    nfull, rem = fixed_steps(abs(t), dt)
    h = ham.hmatrix

    def rhs(w):
        return -1j * (h @ w)

    sign = 1.0 if t >= 0 else -1.0
    w = v.astype(complex)
    for step_dt in [dt] * nfull + ([rem] if rem else []):
        sdt = sign * step_dt
        k1 = rhs(w)
        k2 = rhs(w + 0.5 * sdt * k1)
        k3 = rhs(w + 0.5 * sdt * k2)
        k4 = rhs(w + sdt * k3)
        w = w + sdt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return CoherentPoint(w)


def pauli_propagator_reference(kind: str, t: float) -> np.ndarray:
    """Independent closed form cos(t) I - i sin(t) sigma for one pair."""
    if kind not in _PAULI_BLOCKS:
        raise ValueError(f"kind must be one of X, Y, Z, got {kind!r}")
    return math.cos(t) * np.eye(2) - 1j * math.sin(t) * _PAULI_BLOCKS[kind]


def compare_with_gate(kind: str, t: float, samples: int = 100,
                      qubit: int = 1, nqubits: int = 1,
                      seed: int = 0) -> float:
    """Max deviation between the flow and the closed-form pair propagator.

    Draws random complex points, evolves them with the eigenbasis
    propagator of the embedded Pauli Hamiltonian (built once for all
    points), and compares against cos(t) I - i sin(t) sigma acting on the
    qubit's pair (identity on the rest).  Returns the largest 2-norm
    difference.
    """
    ham = pauli_hamiltonian(kind, qubit, nqubits)
    u_pair = pauli_propagator_reference(kind, t)
    u_full = np.eye(2 * nqubits, dtype=complex)
    i = 2 * (qubit - 1)
    u_full[i:i + 2, i:i + 2] = u_pair

    u_flow = propagator(ham, t)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        z0 = rng.standard_normal(2 * nqubits) + 1j * rng.standard_normal(2 * nqubits)
        evolved = u_flow @ z0
        worst = max(worst, float(np.linalg.norm(evolved - u_full @ z0)))
    return worst
