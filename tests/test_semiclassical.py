"""Quadratic-Hamiltonian flows of the pair amplitudes."""

import math

import numpy as np
import pytest

from holoqsim import (
    QuadraticHamiltonian,
    compare_with_gate,
    pauli_hamiltonian,
    rk4_flow,
)
from holoqsim.semiclassical import pauli_propagator_reference, propagator

PI = math.pi


def test_pauli_hamiltonian_blocks():
    hx = pauli_hamiltonian("X", 1).hmatrix
    assert np.array_equal(hx, np.array([[0, 1], [1, 0]], dtype=complex))
    hy = pauli_hamiltonian("Y", 1).hmatrix
    assert np.array_equal(hy, np.array([[0, -1j], [1j, 0]]))
    hz = pauli_hamiltonian("Z", 1).hmatrix
    assert np.array_equal(hz, np.diag([1.0 + 0j, -1.0 + 0j]))


def test_pauli_hamiltonian_embedding():
    h = pauli_hamiltonian("X", 2, nqubits=3).hmatrix
    assert h.shape == (6, 6)
    assert np.count_nonzero(h) == 2
    assert h[2, 3] == 1.0 and h[3, 2] == 1.0


@pytest.mark.parametrize("qubit", [0, -1, 4])
def test_pauli_hamiltonian_rejects_a_qubit_outside_the_register(qubit):
    with pytest.raises(ValueError, match=rf"^qubit index {qubit} out of range 1\.\.3$"):
        pauli_hamiltonian("Z", qubit, nqubits=3)


@pytest.mark.parametrize("kind", ["W", "x", "H"])
def test_pauli_hamiltonian_and_reference_refuse_an_unknown_kind(kind):
    for build in (lambda: pauli_hamiltonian(kind, 1), lambda: pauli_propagator_reference(kind, 0.1)):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == f"kind must be one of X, Y, Z, got {kind!r}"


def test_hamiltonian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        QuadraticHamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("i, j", [(0, 0), (0, 1)])
def test_hamiltonian_rejects_nan(i, j):
    h = np.zeros((2, 2), dtype=complex)
    h[i, j] = math.nan
    with pytest.raises(ValueError, match="Hermitian"):
        QuadraticHamiltonian(h)


def test_hamiltonian_rejects_odd_size():
    with pytest.raises(ValueError):
        QuadraticHamiltonian(np.eye(3))


def test_evolve_t_zero_is_identity():
    z0 = np.array([0.3 + 0.1j, 0.7 - 0.2j])
    out = propagator(pauli_hamiltonian("Y", 1), 0.0) @ z0
    assert np.max(np.abs(out - z0)) < 1e-15


def test_evolve_x_quarter_period():
    # exp(-i X pi/2) = -i X: (1, 0) -> (0, -i)
    out = propagator(pauli_hamiltonian("X", 1), PI / 2) @ np.array([1.0, 0.0])
    assert np.max(np.abs(out - np.array([0.0, -1j]))) < 1e-12


def test_evolve_z_half_period():
    # exp(-i Z pi) = -I on both components
    out = propagator(pauli_hamiltonian("Z", 1), PI) @ np.array([1.0 + 0j, 1.0 + 0j])
    assert np.max(np.abs(out - np.array([-1.0, -1.0]))) < 1e-12


def test_propagator_matches_closed_form():
    rng = np.random.default_rng(1)
    for kind in ("X", "Y", "Z"):
        for t in rng.uniform(-8.0, 8.0, 10):
            u = propagator(pauli_hamiltonian(kind, 1), float(t))
            ref = pauli_propagator_reference(kind, float(t))
            assert np.max(np.abs(u - ref)) < 1e-12, kind


def test_propagator_stack_equals_single_time_propagators():
    rng = np.random.default_rng(9)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    ham = QuadraticHamiltonian(g + g.conj().T)
    times = np.array([k * 0.01 for k in range(301)] + [3.005])
    stack = propagator(ham, times)
    assert stack.shape == (times.size, 6, 6)
    for k, t in enumerate(times.tolist()):
        assert np.array_equal(stack[k], propagator(ham, t))


def test_compare_with_gate_small_deviation():
    for kind in ("X", "Y", "Z"):
        assert compare_with_gate(kind, PI / 2, samples=100) < 1e-10
        assert compare_with_gate(kind, 0.0, samples=10) < 1e-15


def test_compare_with_gate_multiqubit_embedding():
    assert compare_with_gate("Y", 1.3, samples=50, qubit=2, nqubits=3) < 1e-10


def test_energy_and_norm_conserved():
    rng = np.random.default_rng(3)
    ham = pauli_hamiltonian("X", 1)
    z0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    e0 = ham.energy(z0)
    n0 = float(np.linalg.norm(z0))
    for t in np.linspace(0.0, 10.0, 101):
        zt = propagator(ham, float(t)) @ z0
        assert abs(ham.energy(zt) - e0) < 1e-10
        assert abs(np.linalg.norm(zt) - n0) < 1e-10


def test_rk4_route_matches_exact_route():
    rng = np.random.default_rng(5)
    ham = pauli_hamiltonian("Y", 1)
    z0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    exact = propagator(ham, 1.0) @ z0
    stepped = rk4_flow(ham, z0, 1.0, dt=1e-4)
    assert np.max(np.abs(exact - stepped)) < 1e-8


def test_quarter_period_reproduces_gate_up_to_phase():
    # exp(-i sigma pi/2) = -i sigma: the gate appears with global phase -i
    for kind, mat in (("X", np.array([[0, 1], [1, 0]], dtype=complex)),
                      ("Z", np.diag([1.0 + 0j, -1.0]))):
        u = propagator(pauli_hamiltonian(kind, 1), PI / 2)
        assert np.max(np.abs(u - (-1j) * mat)) < 1e-12


def test_evolve_rejects_size_mismatch():
    with pytest.raises(ValueError):
        rk4_flow(pauli_hamiltonian("X", 1), np.zeros(4, dtype=complex), 1.0)
