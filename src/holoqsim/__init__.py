"""holoqsim: qubit circuits as holomorphic polynomials.

States are degree-one-homogeneous polynomials in one (z_a, z_b) variable
pair per qubit, gates act as differential operators or variable
substitutions, and an independent state-vector engine cross-checks every
circuit.  On top of the simulator sit the classical faces of the same
algebra: Hamiltonian flows of the pair phases on a torus, Fubini-Study
entanglement geometry with a product-manifold distance, discrete Berry
holonomy, and quadratic-Hamiltonian evolution of the pair amplitudes.
"""

from .holostate import (
    MAX_DENSE_QUBITS,
    NORM_TOL,
    ZERO_TOL,
    HoloState,
    NonPhysicalPolynomialError,
    SparsePoly,
    a_index,
    b_index,
    check_all_homogeneity,
    check_homogeneity,
    encode_basis,
    encode_state,
    from_poly,
    sb_inner_product,
    to_poly,
)
from .diffop import (
    Circuit,
    DiffOperator,
    GateSpec,
    Substitution,
    apply_diffop,
    apply_gate,
    apply_substitution,
    compose,
    controlled_u,
    gate_operator,
    haar_random_unitary,
    run_circuit_holo,
)
from .torus import (
    FlowSpec,
    SingularityError,
    TorusPoint,
    Trajectory,
    hadamard_jacobian_det,
    hadamard_torus_map,
    integrate_flow,
    jacobian_det,
    poisson_bracket,
    swap_torus,
    vector_field,
)
from .geometry import (
    ProductState,
    StateLoop,
    berry_holonomy,
    bloch_circle_loop,
    entanglement_measure,
    fidelity,
    fubini_study_distance,
    is_separable,
    maximize_product_overlap,
    schmidt_oracle,
)
from .semiclassical import (
    QuadraticHamiltonian,
    compare_with_gate,
    pauli_hamiltonian,
    rk4_flow,
)
from .oracle import (
    StateVector,
    apply_gate_matrix,
    compare_states,
    run_circuit_matrix,
)
from .fileio import (
    load_circuit,
    load_loop,
    load_state,
    save_circuit,
    save_state,
    save_trajectory,
)

__version__ = "0.1.0"
