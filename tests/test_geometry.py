"""Fubini-Study distances, entanglement measure, and Berry holonomy."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoqsim import (
    Circuit,
    GateSpec,
    HoloState,
    ProductState,
    StateLoop,
    berry_holonomy,
    bloch_circle_loop,
    encode_state,
    entanglement_measure,
    fidelity,
    fubini_study_distance,
    is_separable,
    maximize_product_overlap,
    run_circuit_holo,
    schmidt_oracle,
)

from holoqsim import geometry
from holoqsim.geometry import GAIN_TOL, MAX_SWEEPS, RestartRecord, overlap_distance

from _support import random_state_vector

PI = math.pi
SQ2 = math.sqrt(2.0)


def bell_state():
    return encode_state(np.array([1, 0, 0, 1], dtype=complex) / SQ2)


def ghz_state(n=3):
    v = np.zeros(2 ** n, dtype=complex)
    v[0] = v[-1] = 1 / SQ2
    return encode_state(v)


# -- distances --------------------------------------------------------


def test_fidelity_self_and_orthogonal():
    psi = encode_state(np.array([1.0, 0.0]))
    phi = encode_state(np.array([0.0, 1.0]))
    assert fidelity(psi, psi) == pytest.approx(1.0, abs=1e-15)
    assert fidelity(psi, phi) == 0.0


def test_fidelity_rejects_unnormalized():
    bad = HoloState(1, {"0": 0.5})
    good = encode_state(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        fidelity(bad, good)


def test_fidelity_refuses_states_of_different_registers():
    one = encode_state(np.array([1.0, 0.0]))
    two = encode_state(np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError) as err:
        fidelity(one, two)
    assert str(err.value) == "register mismatch"


def test_fs_distance_range_and_examples():
    psi = encode_state(np.array([1.0, 0.0]))
    phi = encode_state(np.array([0.0, 1.0]))
    plus = encode_state(np.array([1.0, 1.0]) / SQ2)
    assert fubini_study_distance(psi, psi) == 0.0
    assert fubini_study_distance(psi, phi) == pytest.approx(PI / 2, abs=1e-12)
    assert fubini_study_distance(psi, plus) == pytest.approx(PI / 4, abs=1e-12)


def test_fs_distance_global_phase_invariant():
    rng = np.random.default_rng(1)
    v = random_state_vector(rng, 2)
    psi = encode_state(v)
    phi = encode_state(np.exp(0.73j) * v)
    assert fubini_study_distance(psi, phi) == 0.0  # snapped exact zero


def test_fs_distance_triangle_inequality():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = encode_state(random_state_vector(rng, 2))
        b = encode_state(random_state_vector(rng, 2))
        c = encode_state(random_state_vector(rng, 2))
        dab = fubini_study_distance(a, b)
        dbc = fubini_study_distance(b, c)
        dac = fubini_study_distance(a, c)
        assert dac <= dab + dbc + 1e-9


# -- product states ---------------------------------------------------


def test_product_state_amplitudes():
    p = ProductState((np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    assert encode_state(p.amplitude_vector()).amplitudes == {"01": 1.0 + 0j}


def test_product_state_rejects_unnormalized_factor():
    with pytest.raises(ValueError):
        ProductState((np.array([1.0, 1.0]),))


@pytest.mark.parametrize("bad, shown", [(math.nan, "nan"), (math.inf, "inf")])
def test_product_state_rejects_a_non_finite_factor(bad, shown):
    with pytest.raises(ValueError, match=rf"^factor 2 is not normalized \(norm {shown}\)$"):
        ProductState((np.array([1.0, 0.0]), np.array([bad, 0.0])))


@pytest.mark.parametrize("factor", [np.ones(3) / math.sqrt(3), np.array([1.0]), np.eye(2)])
def test_product_state_refuses_a_factor_that_is_not_a_2_vector(factor):
    with pytest.raises(ValueError) as err:
        ProductState((np.array([1.0, 0.0]), factor))
    assert str(err.value) == "factor 2 is not a 2-vector"


# -- entanglement measure ---------------------------------------------


def test_measure_zero_on_basis_product():
    assert entanglement_measure(encode_state(np.array([0, 1, 0, 0], dtype=complex))) \
        <= 1e-8


def test_measure_zero_on_random_products():
    rng = np.random.default_rng(5)
    for _ in range(10):
        f1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        f2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = np.kron(f1 / np.linalg.norm(f1), f2 / np.linalg.norm(f2))
        assert entanglement_measure(encode_state(v)) <= 1e-8


def test_measure_bell_is_quarter_pi():
    assert entanglement_measure(bell_state()) == pytest.approx(PI / 4, abs=1e-5)


def test_measure_matches_schmidt_on_bell():
    lam, dist = schmidt_oracle(bell_state())
    assert lam == pytest.approx(1 / SQ2, abs=1e-12)
    assert entanglement_measure(bell_state()) == pytest.approx(dist, abs=1e-5)


def test_measure_matches_schmidt_on_random_two_qubit_states():
    rng = np.random.default_rng(7)
    for _ in range(100):
        psi = encode_state(random_state_vector(rng, 2))
        _, expected = schmidt_oracle(psi)
        assert entanglement_measure(psi) == pytest.approx(expected, abs=1e-5)


def brute_force_product_distance(psi, coarse=6, refine=True):
    """Independent reference: angle-grid search over product states plus
    local simplex refinement.  Global phases are fixed by parametrizing
    each factor as (cos(t/2), sin(t/2) e^(i p))."""
    from scipy.optimize import minimize

    n = psi.nqubits
    tensor = psi.to_vector().conj().reshape([2] * n)

    def overlap(params):
        val = tensor
        for k in range(n):
            t, p = params[2 * k], params[2 * k + 1]
            c = np.array([math.cos(t / 2), math.sin(t / 2) * cmath.exp(1j * p)])
            val = np.tensordot(val, c, axes=([0], [0]))
        return abs(complex(val))

    thetas = np.linspace(0, PI, coarse)
    phis = np.linspace(0, 2 * PI, coarse, endpoint=False)
    # Row g of `angles` is one (t, p) grid pair and row g of `factors` its factor;
    # a single contraction scores every choice of one row per qubit.
    angles = np.stack([m.ravel() for m in np.meshgrid(thetas, phis, indexing="ij")], axis=1)
    factors = np.stack([np.cos(angles[:, 0] / 2),
                        np.sin(angles[:, 0] / 2) * np.exp(1j * angles[:, 1])], axis=1)
    operands = [tensor, list(range(n))]
    for k in range(n):
        operands += [factors, [n + k, k]]
    scores = np.abs(np.einsum(*operands, list(range(n, 2 * n)), optimize=True))
    rows = np.unravel_index(np.argmax(scores), scores.shape)
    best, best_params = scores[rows], angles[list(rows)].ravel()
    if refine:
        res = minimize(lambda p: -overlap(p), best_params, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000})
        best = max(best, -res.fun)
    return math.acos(min(best, 1.0))


def test_measure_ghz_matches_brute_force_and_closed_form():
    ghz = ghz_state(3)
    measured = entanglement_measure(ghz)
    reference = brute_force_product_distance(ghz)
    assert measured == pytest.approx(reference, abs=1e-4)
    assert measured == pytest.approx(PI / 4, abs=1e-5)  # max overlap 1/sqrt(2)


def test_measure_invariant_under_local_gates():
    rng = np.random.default_rng(9)
    for _ in range(10):
        psi = encode_state(random_state_vector(rng, 2))
        before = entanglement_measure(psi)
        kind = ("X", "Y", "Z", "H")[int(rng.integers(4))]
        qubit = int(rng.integers(1, 3))
        after = entanglement_measure(
            run_circuit_holo(Circuit(2, (GateSpec(kind, (qubit,)),)), psi))
        assert after == pytest.approx(before, abs=1e-6)


def test_cnot_lifts_plus_zero_to_bell_measure():
    plus_zero = encode_state(np.array([1, 0, 1, 0], dtype=complex) / SQ2)
    assert entanglement_measure(plus_zero) <= 1e-8
    bell = run_circuit_holo(Circuit(2, (GateSpec("CNOT", (1, 2)),)), plus_zero)
    assert entanglement_measure(bell) == pytest.approx(PI / 4, abs=1e-4)


@pytest.mark.parametrize("n", [1, 12])
def test_optimizer_finds_product_state_at_any_register_size(n):
    rng = np.random.default_rng(n)
    factors = [random_state_vector(rng, 1) for _ in range(n)]
    v = factors[0]
    for f in factors[1:]:
        v = np.kron(v, f)
    result = maximize_product_overlap(encode_state(v), restarts=2)
    assert result.overlap == pytest.approx(1.0, abs=1e-12)


def test_optimizer_monotone_convergence():
    rng = np.random.default_rng(11)
    for _ in range(5):
        psi = encode_state(random_state_vector(rng, 3))
        result = maximize_product_overlap(psi, restarts=4)
        for record in result.restarts:
            hist = record.history
            assert all(b >= a - 1e-14 for a, b in zip(hist, hist[1:]))


def reference_restarts(psi, restarts, seed=0):
    """Independent reference for the optimizer: the same seeded ascent, but
    each w_j contracts the whole state tensor with every other factor in one
    einsum, O(N 2^N) per sweep.  Returns (sweeps, overlap, history) per restart."""
    n = psi.nqubits
    conj_tensor = psi.to_vector().conj().reshape([2] * n)
    records = []
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        factors = []
        for _ in range(n):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            factors.append(v / np.linalg.norm(v))
        overlap, history = 0.0, []
        for _ in range(MAX_SWEEPS):
            prev = overlap
            for j in range(n):
                operands = [conj_tensor, list(range(n))]
                for k in range(n):
                    if k != j:
                        operands += [factors[k], [k]]
                w = np.einsum(*operands, [j])
                nw = np.linalg.norm(w)
                if nw >= 1e-15:
                    factors[j] = w.conj() / nw
                    overlap = nw
            history.append(overlap)
            if overlap - prev < GAIN_TOL:
                break
        records.append((len(history), overlap, history))
    return records


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 10), st.integers(0, 2 ** 32 - 1))
def test_optimizer_matches_full_contraction_reference(n, seed):
    psi = encode_state(random_state_vector(np.random.default_rng(seed), n))
    result = maximize_product_overlap(psi, restarts=2, seed=seed)
    expected = reference_restarts(psi, restarts=2, seed=seed)
    for record, (sweeps, overlap, history) in zip(result.restarts, expected):
        assert record.iterations == sweeps
        assert record.overlap == pytest.approx(overlap, abs=1e-12)
        assert np.allclose(record.history, history, rtol=0, atol=1e-12)
    # Restarts that tie within rounding may yield different witnesses, so the
    # witness is checked through the overlap it attains, not factor by factor.
    attained = abs(np.vdot(psi.to_vector(), result.witness.amplitude_vector()))
    assert attained == pytest.approx(result.overlap, abs=1e-12)
    assert result.overlap == pytest.approx(max(e[1] for e in expected), abs=1e-12)


def scalar_restarts(psi, restarts, seed, max_sweeps, gain_tol):
    """The optimizer one restart at a time, on 2-D arrays: the same sweep and
    the same arithmetic as the stacked ascent, which must match it bit for bit.
    Returns the RestartRecords and the factors of the first restart with the
    highest overlap."""
    n = psi.nqubits
    conj_vector = psi.to_vector().conj()
    best, best_factors, records = None, [], []
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        factors = []
        for _ in range(n):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            factors.append(v / np.linalg.norm(v))
        overlap = 0.0
        history = []
        for sweeps in range(1, max_sweeps + 1):
            prev = overlap
            suffixes = [np.ones(1, dtype=complex)]
            for f in factors[:0:-1]:
                suffixes.append((f[:, None] * suffixes[-1]).ravel())
            left = conj_vector
            for j, right in enumerate(reversed(suffixes)):
                left = left.reshape(2, -1)
                w = left @ right
                nw = math.sqrt(np.vdot(w, w).real)
                if nw >= 1e-15:
                    factors[j] = w.conj() / nw
                    overlap = nw
                left = factors[j] @ left
            history.append(overlap)
            if overlap - prev < gain_tol:
                break
        records.append(RestartRecord(r, sweeps, overlap, tuple(history)))
        if best is None or overlap > best:
            best, best_factors = overlap, [f.copy() for f in factors]
    return records, best_factors


def assert_matches_scalar_restarts(psi, restarts, seed):
    """Every record, compared by float.hex, and the witness factors, bytewise.

    The reference runs with the optimizer's limits as they are set now."""
    result = maximize_product_overlap(psi, restarts=restarts, seed=seed)
    records, factors = scalar_restarts(psi, restarts, seed, geometry.MAX_SWEEPS, geometry.GAIN_TOL)

    def bits(record):
        return (record.restart, record.iterations, record.overlap.hex(),
                [h.hex() for h in record.history])

    assert [bits(r) for r in result.restarts] == [bits(r) for r in records]
    assert result.overlap.hex() == min(max(r.overlap for r in records), 1.0).hex()
    assert [f.tobytes() for f in result.witness.factors] == [f.tobytes() for f in factors]
    return result


@pytest.mark.parametrize("restarts", [1, 2, 16])
@pytest.mark.parametrize("n", [*range(1, 11), 12])
def test_stacked_ascent_is_bitwise_the_scalar_one(n, restarts):
    for seed in (0, 7 * n + restarts):
        psi = encode_state(random_state_vector(np.random.default_rng([n, seed]), n))
        assert_matches_scalar_restarts(psi, restarts, seed)


def test_stacked_ascent_restarts_that_stop_at_different_sweeps():
    psi = encode_state(random_state_vector(np.random.default_rng(8), 8))
    result = assert_matches_scalar_restarts(psi, 16, 0)
    assert len({r.iterations for r in result.restarts}) > 1


@pytest.mark.parametrize("max_sweeps", [1, 2])
@pytest.mark.parametrize("n", [1, 3, 8])
def test_stacked_ascent_ended_by_max_sweeps(n, max_sweeps, monkeypatch):
    monkeypatch.setattr(geometry, "MAX_SWEEPS", max_sweeps)
    psi = encode_state(random_state_vector(np.random.default_rng(n), n))
    result = assert_matches_scalar_restarts(psi, 16, 3)
    assert {r.iterations for r in result.restarts} == {max_sweeps}


def test_stacked_ascent_on_a_product_state(monkeypatch):
    rng = np.random.default_rng(21)
    v = np.ones(1, dtype=complex)
    for _ in range(8):
        v = np.kron(v, random_state_vector(rng, 1))
    result = assert_matches_scalar_restarts(encode_state(v), 16, 0)
    assert max(r.iterations for r in result.restarts) <= 2
    # With GAIN_TOL 0 a restart stops only on a sweep that gains nothing or
    # loses a rounding error, which comes after 2 to 12 sweeps here.
    monkeypatch.setattr(geometry, "GAIN_TOL", 0.0)
    result = assert_matches_scalar_restarts(encode_state(v), 16, 0)
    assert len({r.iterations for r in result.restarts}) > 1


def test_stacked_ascent_keeps_a_factor_at_an_orthogonal_trap(monkeypatch):
    # Restart 0 starts with qubit 2 at |1>, orthogonal to |00>: its first w_1
    # is zero, so qubit 1 keeps its start while restart 1 ascends as usual.
    draws = {0: [[1.0, 1.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
             1: [[0.3, -1.2], [0.5, 0.1], [0.9, 0.4], [-0.7, 0.2]]}

    class Scripted:
        def __init__(self, key):
            self.draws = iter(draws[key[1]])

        def standard_normal(self, size):
            return np.array(next(self.draws))

    monkeypatch.setattr(np.random, "default_rng", Scripted)
    zero = encode_state(np.array([1, 0, 0, 0], dtype=complex))
    result = assert_matches_scalar_restarts(zero, 2, 0)
    assert result.restarts[0].history[0] == pytest.approx(1 / SQ2, abs=1e-15)


@pytest.mark.parametrize("n, restarts", [(13, 11), (14, 6), (15, 3)])
def test_stacked_ascent_split_into_stacks_is_bitwise_the_scalar_one(n, restarts):
    # STACK_AMPLITUDES >> n restarts share a stack: 8, 4 and 2 here, so the
    # last stack is a partial one.
    assert restarts % (geometry.STACK_AMPLITUDES >> n) != 0
    psi = encode_state(random_state_vector(np.random.default_rng([n, 5]), n))
    result = assert_matches_scalar_restarts(psi, restarts, 2)
    assert len({r.iterations for r in result.restarts}) > 1


def test_stacked_ascent_on_16_qubits_keeps_the_memory_of_one_restart(monkeypatch):
    # From N = 16 up the restarts run one at a time.  A lone ascent holds the
    # conjugated state (2^N amplitudes), the suffixes (2^N) and two left
    # environments (3/4 2^N): 2.75 MiB at N = 16, where stacking all 16
    # restarts holds ~29 MiB.
    monkeypatch.setattr(geometry, "MAX_SWEEPS", 2)
    psi = encode_state(random_state_vector(np.random.default_rng(16), 16))
    # The optimizer checks the norm inside the window too: HoloState.norm's list of
    # 2^16 Python amplitudes peaks near 3.5 MiB there, above the ascent itself.
    assert psi.is_normalized
    tracemalloc.start()
    try:
        maximize_product_overlap(psi, restarts=16, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert_matches_scalar_restarts(psi, 16, 1)


def test_optimizer_deterministic_for_fixed_seed():
    rng = np.random.default_rng(13)
    psi = encode_state(random_state_vector(rng, 3))
    r1 = maximize_product_overlap(psi, seed=42)
    r2 = maximize_product_overlap(psi, seed=42)
    assert r1.overlap == r2.overlap
    for f1, f2 in zip(r1.witness.factors, r2.witness.factors):
        assert np.array_equal(f1, f2)


def test_is_separable_examples():
    sep, witness = is_separable(encode_state(np.array([0, 1, 0, 0], dtype=complex)))
    assert sep
    rebuilt = witness.amplitude_vector()
    target = np.array([0, 1, 0, 0], dtype=complex)
    # witness reconstructs the state up to global phase
    overlap = abs(np.vdot(rebuilt, target))
    assert overlap == pytest.approx(1.0, abs=1e-8)

    sep, witness = is_separable(bell_state())
    assert not sep and witness is None

    plus_zero = encode_state(np.array([1, 0, 1, 0], dtype=complex) / SQ2)
    sep, _ = is_separable(plus_zero)
    assert sep


def test_schmidt_oracle_examples():
    zero = encode_state(np.array([1, 0, 0, 0], dtype=complex))
    lam, dist = schmidt_oracle(zero)
    assert lam == pytest.approx(1.0, abs=1e-12) and dist == pytest.approx(0.0, abs=1e-7)

    skew = encode_state(np.array([0.6, 0, 0, 0.8], dtype=complex))
    lam, dist = schmidt_oracle(skew)
    assert lam == pytest.approx(0.8, abs=1e-12)
    assert dist == pytest.approx(math.acos(0.8), abs=1e-12)


def test_schmidt_oracle_rejects_wrong_register():
    with pytest.raises(ValueError):
        schmidt_oracle(encode_state(np.array([1.0, 0.0])))


# -- berry holonomy ---------------------------------------------------


def test_holonomy_constant_loop_is_zero():
    psi = encode_state(np.array([1.0, 0.0]))
    loop = StateLoop(np.array([psi.to_vector()] * 33))
    assert berry_holonomy(loop) == 0.0


def test_holonomy_bloch_circles_match_smooth_reference():
    for theta in (PI / 6, PI / 3, PI / 2):
        gamma = berry_holonomy(bloch_circle_loop(theta, 2000))
        reference = -PI * (1.0 - math.cos(theta))
        circ_diff = abs(math.remainder(gamma - reference, 2 * PI))
        assert circ_diff < 2e-3, theta


def test_holonomy_dense_reference_converges():
    # the discrete holonomy at M = 1e5 serves as the converged reference
    theta = PI / 3
    dense = berry_holonomy(bloch_circle_loop(theta, 100000))
    coarse = berry_holonomy(bloch_circle_loop(theta, 2000))
    assert abs(math.remainder(dense - coarse, 2 * PI)) < 2e-3
    assert abs(math.remainder(dense - (-PI / 2), 2 * PI)) < 1e-8


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_bloch_circle_loop_refuses_a_non_finite_theta_naming_it(theta):
    with pytest.raises(ValueError, match=f"^theta must be a finite angle, got {theta!r}$"):
        bloch_circle_loop(theta, 16)


def test_holonomy_equator_hits_branch_point():
    gamma = berry_holonomy(bloch_circle_loop(PI / 2, 2000))
    assert abs(abs(gamma) - PI) < 2e-3  # -pi and +pi are the same angle


def test_holonomy_gauge_invariance():
    rng = np.random.default_rng(15)
    loop = bloch_circle_loop(PI / 3, 64)
    gamma = berry_holonomy(loop)
    phases = rng.uniform(0, 2 * PI, len(loop.vectors))
    phases[-1] = phases[0]  # the closing duplicate keeps the first state's gauge
    regauged = np.exp(1j * phases)[:, None] * loop.vectors
    gamma2 = berry_holonomy(StateLoop(regauged))
    assert abs(math.remainder(gamma - gamma2, 2 * PI)) < 1e-12


@pytest.mark.parametrize("segments", [16, 2000])
@pytest.mark.parametrize("theta", [1.0, PI / 2, 2.9, -1.3])
def test_holonomy_equals_per_state_vdot_product(theta, segments):
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    vecs = [encode_state(np.array([c, s * cmath.exp(1j * (2.0 * PI * k / segments))]))
            .to_vector() for k in range(segments)]
    phase = 1.0 + 0j
    for k in range(segments):
        olap = complex(np.vdot(vecs[k], vecs[(k + 1) % segments]))
        phase *= olap / abs(olap)
    assert berry_holonomy(bloch_circle_loop(theta, segments)) == -cmath.phase(phase)


@pytest.mark.parametrize("segments", [16, 17, 2000, 20000])
@pytest.mark.parametrize("theta", [1.0, 0.3, 2.5, PI / 2, 0.0, PI, -1.0])
def test_bloch_circle_loop_is_bitwise_the_per_row_formula(theta, segments):
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    rows = [(c, s * cmath.exp(1j * (2.0 * PI * k / segments))) for k in range(segments)]
    expected = StateLoop(np.array(rows + [(c, s)], dtype=complex)).vectors
    assert bloch_circle_loop(theta, segments).vectors.tobytes() == expected.tobytes()


def _closed_vdot_holonomy(rows: np.ndarray) -> float:
    """-arg of the product of np.vdot overlaps in loop order, closed on row 0."""
    m = len(rows) - 1
    phase = 1.0 + 0j
    for k in range(m):
        olap = complex(np.vdot(rows[k], rows[(k + 1) % m]))
        phase *= olap / abs(olap)
    return -cmath.phase(phase)


def test_holonomy_closes_on_the_first_row_not_its_stored_duplicate():
    loop = bloch_circle_loop(1.0, 10 ** 5)
    assert berry_holonomy(loop).hex() == _closed_vdot_holonomy(loop.vectors).hex()
    rng = np.random.default_rng(19)
    for n in (1, 3):
        v = random_state_vector(rng, n)
        rows = [v]
        for _ in range(40):
            w = rows[-1] + 0.2 * random_state_vector(rng, n)
            rows.append(w / np.linalg.norm(w))
        rows.append(v * cmath.exp(0.7j))  # the duplicate differs from row 0 by a phase
        loop = StateLoop(np.array(rows))
        assert berry_holonomy(loop).hex() == _closed_vdot_holonomy(loop.vectors).hex()


def test_holonomy_small_theta_small_phase():
    gamma = berry_holonomy(bloch_circle_loop(0.05, 500))
    assert abs(gamma) < 0.005


def test_loop_rejects_too_few_segments():
    psi = encode_state(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        StateLoop(np.array([psi.to_vector()] * 10))
    with pytest.raises(ValueError):
        bloch_circle_loop(PI / 3, 8)


def test_loop_rejects_open_path():
    states = [encode_state(np.array([1.0, 0.0]))] * 20
    states.append(encode_state(np.array([0.0, 1.0])))
    with pytest.raises(ValueError):
        StateLoop(np.array([s.to_vector() for s in states]))


@pytest.mark.parametrize("shape", [(17,), (17, 1), (17, 3), (17, 6), (2, 17, 2)])
def test_loop_refuses_an_array_that_is_not_one_vector_per_row(shape):
    with pytest.raises(ValueError) as err:
        StateLoop(np.ones(shape, dtype=complex))
    assert str(err.value) == f"loop vectors must form an (M+1, 2^N) array, got shape {shape}"


def test_holonomy_rejects_orthogonal_consecutive_states():
    zero = encode_state(np.array([1.0, 0.0]))
    one = encode_state(np.array([0.0, 1.0]))
    states = [zero, one] * 10 + [zero]
    loop = StateLoop(np.array([s.to_vector() for s in states]))
    with pytest.raises(ValueError):
        berry_holonomy(loop)


def test_overlap_distance_snaps_near_one():
    assert overlap_distance(1.0 - 1e-14) == 0.0
    assert overlap_distance(1.0 + 1e-15) == 0.0
    assert overlap_distance(0.0) == PI / 2
    assert overlap_distance(1.0 - 1e-12) > 0.0


@pytest.mark.parametrize("restarts", [0, -3])
def test_optimizer_rejects_nonpositive_restarts(restarts):
    psi = encode_state(np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="restarts"):
        maximize_product_overlap(psi, restarts=restarts)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
def test_optimizer_rejects_seed_that_is_not_a_nonnegative_integer(seed):
    with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed!r}"):
        maximize_product_overlap(bell_state(), seed=seed)


def test_optimizer_takes_a_numpy_integer_seed():
    a, b = (maximize_product_overlap(bell_state(), seed=s) for s in (np.int64(5), 5))
    assert a.restarts == b.restarts
