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
A point z is a plain complex array of 2N amplitudes, and the exact flow
is `propagator(ham, t) @ z`.  `propagator` takes one time or an array of
times: a whole time grid costs one eigendecomposition of h and gives the
stack of propagators.  `rk4_flow` integrates the same equation by fixed
steps and serves only as an independent cross-check of that route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .holostate import _check_qubit, vdot_rows
from .torus import fixed_steps

HERMITIAN_TOL = 1e-12

_PAULI_BLOCKS = {
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1j], [1j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


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
    _check_qubit(qubit, nqubits)
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


def rk4_flow(ham: QuadraticHamiltonian, z0: np.ndarray, t: float,
             dt: float = 1e-3) -> np.ndarray:
    """z(t) by RK4 steps of i dz/dt = h z on the `fixed_steps` grid of |t|,
    run backwards for t < 0: an independent cross-check of `propagator`."""
    w = np.asarray(z0, dtype=complex).ravel()
    h = ham.hmatrix
    if w.size != h.shape[0]:
        raise ValueError(
            f"point has {w.size} components, Hamiltonian expects {h.shape[0]}")

    def rhs(v):
        return -1j * (h @ v)

    sign = 1.0 if t >= 0 else -1.0
    for step in fixed_steps(abs(t), dt)[1]:
        sdt = sign * step
        k1 = rhs(w)
        k2 = rhs(w + 0.5 * sdt * k1)
        k3 = rhs(w + 0.5 * sdt * k2)
        k4 = rhs(w + sdt * k3)
        w = w + sdt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return w


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
