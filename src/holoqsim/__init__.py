"""holoqsim: qubit circuits as holomorphic polynomials.

States are degree-one-homogeneous polynomials in one (z_a, z_b) variable
pair per qubit, gates act as differential operators or variable
substitutions, and an independent state-vector engine cross-checks every
circuit.  On top of the simulator sit the classical faces of the same
algebra: Hamiltonian flows of the pair phases on a torus, Fubini-Study
entanglement geometry with a product-manifold distance, discrete Berry
holonomy, and quadratic-Hamiltonian evolution of the pair amplitudes.

Importing the package loads none of its modules.  Each name below is read
from its module on first use (PEP 562), so `holoqsim.HoloState` loads
`holostate` alone, and a process that never touches the torus, geometry or
semiclassical names never compiles those modules.  A name is looked up on
every access, never stored here, so the package always hands out what its
module holds at that moment.
"""

import importlib

# Each module and the names the package re-exports from it.
_MODULE_NAMES = {
    "holostate": (
        "MAX_DENSE_QUBITS", "NORM_TOL", "ZERO_TOL", "HoloState",
        "NonPhysicalPolynomialError", "SparsePoly", "a_index", "b_index",
        "check_all_homogeneity", "check_homogeneity", "encode_basis", "encode_state",
        "from_poly", "sb_inner_product", "to_poly"),
    "diffop": (
        "Circuit", "DiffOperator", "GateSpec", "Substitution", "apply_diffop",
        "apply_gate", "apply_substitution", "compose", "controlled_u", "gate_operator",
        "haar_random_unitary", "run_circuit_holo"),
    "torus": (
        "FlowSpec", "SingularityError", "TorusPoint", "Trajectory",
        "hadamard_jacobian_det", "hadamard_torus_map", "integrate_flow", "jacobian_det",
        "poisson_bracket", "swap_torus", "vector_field"),
    "geometry": (
        "ProductState", "StateLoop", "berry_holonomy", "bloch_circle_loop",
        "entanglement_measure", "fidelity", "fubini_study_distance", "is_separable",
        "maximize_product_overlap", "schmidt_oracle"),
    "semiclassical": (
        "QuadraticHamiltonian", "compare_with_gate", "pauli_hamiltonian", "rk4_flow"),
    "oracle": ("StateVector", "compare_states", "run_circuit_matrix"),
    "fileio": (
        "load_circuit", "load_loop", "load_state", "save_circuit", "save_state",
        "save_trajectory"),
}
_EXPORTS = {name: module for module, names in _MODULE_NAMES.items() for name in names}

__all__ = [*_EXPORTS, *_MODULE_NAMES]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    if name in _MODULE_NAMES:  # importing binds the submodule here, as at any import
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
