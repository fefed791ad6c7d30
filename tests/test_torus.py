"""Torus flows, fixed points, the angle-form Hadamard map, and brackets."""

import math

import numpy as np
import pytest

from holoqsim import (
    FlowSpec,
    GateSpec,
    SingularityError,
    TorusPoint,
    apply_gate,
    encode_state,
    hadamard_jacobian_det,
    hadamard_torus_map,
    integrate_flow,
    jacobian_det,
    poisson_bracket,
    swap_torus,
    vector_field,
)
from holoqsim.torus import (
    PAIR_HAMILTONIANS,
    circle_distance,
    fixed_steps,
    hadamard_pair_map,
    pair_field,
    reduced_cos,
    reduced_sin,
    signed_angle_diff,
    wrap_angle,
)

PI = math.pi


# -- angle helpers ----------------------------------------------------


def test_wrap_angle_range():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(2 * PI) == 0.0
    assert abs(wrap_angle(-0.1) - (2 * PI - 0.1)) < 1e-15
    assert wrap_angle(7.0) == 7.0 - 2 * PI or abs(wrap_angle(7.0) - (7.0 - 2 * PI)) < 1e-15


def test_signed_angle_diff_branch():
    assert signed_angle_diff(0.1, 0.0) == pytest.approx(0.1)
    assert signed_angle_diff(0.0, 0.1) == pytest.approx(-0.1)
    assert signed_angle_diff(PI / 4, 7 * PI / 4) == pytest.approx(PI / 2)
    assert signed_angle_diff(0.0, PI) == pytest.approx(PI)  # half-turn maps to +pi


def test_reduced_trig_exact_zeros():
    # the whole point of the reduction: exact 0.0 at the special angles
    assert reduced_sin(0.0) == 0.0
    assert reduced_sin(PI) == 0.0
    assert reduced_sin(-PI) == 0.0
    assert reduced_sin(2 * PI) == 0.0
    assert reduced_cos(PI / 2) == 0.0
    assert reduced_cos(-PI / 2) == 0.0


def test_reduced_trig_matches_library_elsewhere():
    for x in np.linspace(-7.0, 7.0, 113):
        assert abs(reduced_sin(x) - math.sin(x)) < 5e-16
        assert abs(reduced_cos(x) - math.cos(x)) < 5e-16


# -- vector fields ----------------------------------------------------


def test_z_field_constant():
    pt = TorusPoint((1.0, 2.0))
    assert vector_field("Z", pt, 1) == (-1.0, 1.0)
    assert vector_field("Z", TorusPoint((5.0, 0.3)), 1) == (-1.0, 1.0)


def test_x_field_fixed_points_exact():
    assert vector_field("X", TorusPoint((PI / 2, 0.0)), 1) == (0.0, -0.0)
    assert vector_field("X", TorusPoint((0.0, PI / 2)), 1) == (-0.0, 0.0)
    va, vb = vector_field("X", TorusPoint((PI / 2, 0.0)), 1)
    assert va == 0.0 and vb == 0.0  # -0.0 compares equal to 0.0


def test_y_field_fixed_points_exact():
    va, vb = vector_field("Y", TorusPoint((0.0, 0.0)), 1)
    assert va == 0.0 and vb == 0.0
    va, vb = vector_field("Y", TorusPoint((PI, 0.0)), 1)
    assert va == 0.0 and vb == 0.0


def test_fields_are_antisymmetric_pairs():
    rng = np.random.default_rng(2)
    for _ in range(50):
        pt = TorusPoint(tuple(rng.uniform(0, 2 * PI, 2)))
        for gen in ("X", "Y", "Z"):
            va, vb = vector_field(gen, pt, 1)
            assert va == -vb  # exact structural negation


def test_x_field_value():
    pa, pb = 1.3, 0.4
    va, vb = vector_field("X", TorusPoint((pa, pb)), 1)
    assert va == pytest.approx(math.cos(pa - pb), abs=1e-15)


def test_vector_field_rejects_bad_inputs():
    with pytest.raises(ValueError):
        vector_field("Q", TorusPoint((0.0, 0.0)), 1)
    with pytest.raises(ValueError):
        vector_field("X", TorusPoint((0.0, 0.0)), 2)


# -- integration ------------------------------------------------------


def test_z_flow_linear_motion():
    traj = integrate_flow(FlowSpec("Z", 1, 0.5, 1e-3), TorusPoint((1.0, 2.0)))
    end = traj.point(traj.nsamples - 1)
    assert end.phases[0] == pytest.approx(0.5, abs=1e-9)
    assert end.phases[1] == pytest.approx(2.5, abs=1e-9)


def test_x_flow_fixed_point_stays_exactly():
    start = TorusPoint((PI / 2, 0.0))
    traj = integrate_flow(FlowSpec("X", 1, 5.0, 1e-2), start)
    assert np.all(traj.phases[:, 0] == start.phases[0])
    assert np.all(traj.phases[:, 1] == start.phases[1])


def test_x_flow_against_reference_integrator():
    from scipy.integrate import solve_ivp

    start = TorusPoint((0.3, 5.9))

    def rhs(_t, y):
        return list(pair_field("X", y[0] - y[1]))

    sol = solve_ivp(rhs, (0.0, 2.0), list(start.phases), rtol=1e-12, atol=1e-12)
    traj = integrate_flow(FlowSpec("X", 1, 2.0, 1e-3), start)
    end = traj.phases[-1]
    assert end[0] == pytest.approx(wrap_angle(sol.y[0, -1]), abs=1e-8)
    assert end[1] == pytest.approx(wrap_angle(sol.y[1, -1]), abs=1e-8)


def test_delta_closed_form_for_x_flow():
    # d(delta)/dt = 2 cos(delta) integrates to
    # delta(t) = 2 arctan(tanh(t + artanh(tan(delta0/2)))) for |delta0| < pi/2
    delta0 = 0.4
    start = TorusPoint((delta0, 0.0))
    traj = integrate_flow(FlowSpec("X", 1, 1.5, 1e-3), start)
    end = traj.point(traj.nsamples - 1)
    expected = 2.0 * math.atan(math.tanh(1.5 + math.atanh(math.tan(delta0 / 2.0))))
    assert end.delta(1) == pytest.approx(expected, abs=1e-8)


def test_sum_phase_conserved_all_generators():
    rng = np.random.default_rng(4)
    for gen in ("X", "Y", "Z"):
        for _ in range(5):
            start = TorusPoint(tuple(rng.uniform(0, 2 * PI, 2)))
            traj = integrate_flow(FlowSpec(gen, 1, 10.0, 1e-3), start)
            assert traj.sum_drift(1) <= 1e-8, (gen, start.phases)


def test_rk4_fourth_order_convergence():
    start = TorusPoint((0.7, 0.1))
    ref = integrate_flow(FlowSpec("Y", 1, 1.0, 1e-5), start).phases[-1]

    def err(dt):
        end = integrate_flow(FlowSpec("Y", 1, 1.0, dt), start).phases[-1]
        return max(circle_distance(end[0], ref[0]), circle_distance(end[1], ref[1]))

    e1, e2 = err(2e-2), err(1e-2)
    assert 8.0 < e1 / e2 < 40.0  # halving dt cuts error ~16x


def test_flow_only_touches_requested_qubit():
    start = TorusPoint((0.3, 0.4, 1.0, 2.0))
    traj = integrate_flow(FlowSpec("Z", 2, 1.0, 1e-2), start)
    assert np.all(traj.phases[:, 0] == 0.3)
    assert np.all(traj.phases[:, 1] == 0.4)
    assert traj.phases[-1, 2] != 1.0


def test_partial_final_step_lands_on_t_final():
    traj = integrate_flow(FlowSpec("Z", 1, 0.25, 0.1), TorusPoint((1.0, 2.0)))
    assert traj.times[-1] == pytest.approx(0.25, abs=1e-15)
    assert traj.phases[-1, 0] == pytest.approx(0.75, abs=1e-12)


# -- phasor derivation cross-check ------------------------------------


def _phasor_value(state_bits_coeffs, pa, pb):
    """Evaluate the polynomial at z_a = e^(i phi_a), z_b = e^(i phi_b)."""
    total = 0j
    for (ea, eb), c in state_bits_coeffs.items():
        total += c * np.exp(1j * (ea * pa + eb * pb))
    return total


def test_phasor_operators_match_gate_action():
    # On the phasor section F(phi) = f(e^(i phi_a), e^(i phi_b)) the gates
    # become first-order angle operators; check them against the algebraic
    # action by numeric differentiation at sample points.
    h = 1e-6
    rng = np.random.default_rng(6)
    for _ in range(20):
        c0 = complex(*rng.standard_normal(2))
        c1 = complex(*rng.standard_normal(2))
        terms = {(1, 0): c0, (0, 1): c1}

        def f(pa, pb):
            return _phasor_value(terms, pa, pb)

        pa, pb = rng.uniform(0, 2 * PI, 2)
        dfa = (f(pa + h, pb) - f(pa - h, pb)) / (2 * h)
        dfb = (f(pa, pb + h) - f(pa, pb - h)) / (2 * h)

        # Z = -i (d/dphi_a - d/dphi_b) on the section
        z_val = -1j * (dfa - dfb)
        assert abs(z_val - (c0 * np.exp(1j * pa) - c1 * np.exp(1j * pb))) < 1e-6

        # X = -i (e^(i(pa-pb)) d/dphi_b + e^(i(pb-pa)) d/dphi_a)
        x_val = -1j * (np.exp(1j * (pa - pb)) * dfb + np.exp(1j * (pb - pa)) * dfa)
        assert abs(x_val - (c1 * np.exp(1j * pa) + c0 * np.exp(1j * pb))) < 1e-6


# -- poisson brackets -------------------------------------------------


def test_canonical_bracket():
    val = poisson_bracket(lambda a, b: a, lambda a, b: b, (0.7, 1.9))
    assert val == pytest.approx(1.0, abs=1e-9)


def test_bracket_antisymmetry_and_self():
    f = PAIR_HAMILTONIANS["X"]
    g = PAIR_HAMILTONIANS["Y"]
    pt = (1.1, 0.3)
    assert poisson_bracket(f, f, pt) == pytest.approx(0.0, abs=1e-9)
    assert poisson_bracket(f, g, pt) == pytest.approx(-poisson_bracket(g, f, pt),
                                                      abs=1e-9)


def test_bracket_of_x_and_y_hamiltonians_vanishes():
    # Both depend only on delta = phi_a - phi_b, so the bracket is
    # identically zero: it does NOT reproduce the Z Hamiltonian.
    rng = np.random.default_rng(8)
    f = PAIR_HAMILTONIANS["X"]
    g = PAIR_HAMILTONIANS["Y"]
    for _ in range(25):
        pt = tuple(rng.uniform(0, 2 * PI, 2))
        numeric = poisson_bracket(f, g, pt)
        assert abs(numeric - 0.0) < 1e-6
        # and the Z Hamiltonian is nonzero almost everywhere on (-pi, pi]
    assert PAIR_HAMILTONIANS["Z"](1.0, 0.2) != 0.0


def test_bracket_matches_analytic_derivatives():
    # {f, g} for f = sin(delta), g = phi_a + phi_b: df/da g/db - df/db g/da
    # = cos(delta) * 1 - (-cos(delta)) * 1 = 2 cos(delta)
    f = PAIR_HAMILTONIANS["X"]
    g = lambda a, b: a + b
    for pt in [(0.5, 0.1), (2.0, 1.0), (4.4, 0.6)]:
        expected = 2.0 * math.cos(pt[0] - pt[1])
        assert poisson_bracket(f, g, pt) == pytest.approx(expected, abs=1e-6)


# -- the angle-form Hadamard map --------------------------------------


def test_hadamard_map_worked_example():
    # delta = pi/2 with representatives summing to zero
    out = hadamard_torus_map(TorusPoint((PI / 4, 7 * PI / 4)), 1)
    assert out.phases[0] == pytest.approx(PI / 4, abs=1e-12)
    assert out.phases[1] == pytest.approx(7 * PI / 4, abs=1e-12)


def test_hadamard_map_singularities_raise():
    for delta in (0.0, 1e-10, -1e-10, PI, PI + 1e-10, PI - 1e-10):
        with pytest.raises(SingularityError):
            hadamard_torus_map(TorusPoint((wrap_angle(delta), 0.0)), 1)


def test_hadamard_map_just_outside_guard_evaluates():
    hadamard_torus_map(TorusPoint((2e-9, 0.0)), 1)
    hadamard_torus_map(TorusPoint((PI - 2e-9, 0.0)), 1)


def test_hadamard_map_fixes_the_half_pi_locus():
    # points with delta = +-pi/2 are fixed by the map
    rng = np.random.default_rng(10)
    for _ in range(20):
        pa = rng.uniform(0, 2 * PI)
        for sign in (1.0, -1.0):
            pt = TorusPoint((pa, wrap_angle(pa - sign * PI / 2)))
            out = hadamard_torus_map(pt, 1)
            assert out.distance(pt) < 1e-9


def test_hadamard_map_collapses_delta():
    # away from the fixed locus the map projects: phi_a stays, the output
    # relative phase is +-pi/2 regardless of the input delta
    for delta in (0.3, 1.0, 2.0, 3.0):
        out = hadamard_torus_map(TorusPoint((1.0, wrap_angle(1.0 - delta))), 1)
        assert out.phases[0] == pytest.approx(1.0, abs=1e-12)
        assert abs(out.delta(1)) == pytest.approx(PI / 2, abs=1e-12)


@pytest.mark.xfail(strict=True,
                   reason="the angle-form map is a rank-one projection onto the "
                          "delta = +-pi/2 locus: applying it twice is idempotent, "
                          "not an involution, so generic points do not return")
def test_hadamard_map_double_application_returns_start():
    pt = TorusPoint((0.8, 6.083185307179586))
    back = hadamard_torus_map(hadamard_torus_map(pt, 1), 1)
    assert back.distance(pt) < 1e-8


@pytest.mark.xfail(strict=True,
                   reason="the same rank-one structure makes the pair Jacobian "
                          "singular: its determinant is 0, not unit")
def test_hadamard_map_jacobian_is_unit():
    det = hadamard_jacobian_det(TorusPoint((1.0, 0.0)), 1)
    assert abs(abs(det) - 1.0) < 1e-6


def test_hadamard_map_jacobian_measured_value():
    # what the determinant actually is, everywhere away from singularities
    for delta in (0.3, 1.0, 2.5):
        det = hadamard_jacobian_det(TorusPoint((wrap_angle(delta), 0.0)), 1)
        assert det == pytest.approx(0.0, abs=1e-6)


@pytest.mark.xfail(strict=True,
                   reason="the angle-form map disagrees with the amplitude-level "
                          "Hadamard: transformed phasor arguments differ from the "
                          "mapped angles by delta-dependent offsets")
def test_hadamard_map_consistent_with_gate():
    pa, pb = 0.8, 5.5
    psi = encode_state(np.array([np.exp(1j * pa), np.exp(1j * pb)]) / math.sqrt(2))
    out_state = apply_gate(GateSpec("H", (1,)), psi)
    mapped = hadamard_torus_map(TorusPoint((pa, pb)), 1)
    pa_state = math.atan2(out_state.amplitudes["0"].imag, out_state.amplitudes["0"].real)
    pb_state = math.atan2(out_state.amplitudes["1"].imag, out_state.amplitudes["1"].real)
    assert circle_distance(mapped.phases[0], wrap_angle(pa_state)) < 1e-6
    assert circle_distance(mapped.phases[1], wrap_angle(pb_state)) < 1e-6


def test_hadamard_jacobian_refuses_near_singular_points():
    with pytest.raises(SingularityError):
        hadamard_jacobian_det(TorusPoint((5e-4, 0.0)), 1)


# -- other maps -------------------------------------------------------


def test_swap_torus_exchanges_pairs():
    out = swap_torus(TorusPoint((1.0, 2.0, 3.0, 4.0)), 1, 2)
    assert out.phases == (3.0, 4.0, 1.0, 2.0)
    assert swap_torus(out, 1, 2).phases == (1.0, 2.0, 3.0, 4.0)


def test_swap_torus_rejects_same_qubit():
    with pytest.raises(ValueError):
        swap_torus(TorusPoint((1.0, 2.0)), 1, 1)


def test_jacobian_identity_map():
    det = jacobian_det(lambda a, b: (a, b), (1.0, 2.0))
    assert det == pytest.approx(1.0, abs=1e-9)


def test_jacobian_pair_swap_map():
    det = jacobian_det(lambda a, b: (b, a), (1.0, 2.0))
    assert det == pytest.approx(-1.0, abs=1e-9)


def test_jacobian_handles_wrap_seam():
    # rotation map crossing 2*pi: determinant still 1
    det = jacobian_det(lambda a, b: (wrap_angle(a + 0.1), wrap_angle(b + 0.2)),
                       (2 * PI - 0.05, 0.05))
    assert det == pytest.approx(1.0, abs=1e-9)


def test_flow_map_jacobians_follow_delta_contraction():
    # These flows conserve the pair sum but contract the relative phase
    # toward the fixed loci, so the time-t map is not area preserving:
    # in (delta, sigma) coordinates d(delta)/dt = g(delta) with g = -2,
    # 2 cos, 2 sin for Z, X, Y, and the determinant of the time-t map is
    # g(delta_t)/g(delta_0).  Z is a rigid translation with det exactly 1.
    def flow(gen, t):
        def map2(a, b):
            traj = integrate_flow(FlowSpec(gen, 1, t, 1e-3), TorusPoint((a, b)))
            return traj.phases[-1, 0], traj.phases[-1, 1]
        return map2

    rng = np.random.default_rng(12)
    for _ in range(3):
        pa0, pb0 = rng.uniform(0, 2 * PI, 2)
        assert jacobian_det(flow("Z", 1.0), (pa0, pb0)) == pytest.approx(1.0, abs=1e-6)

    for gen, g in (("X", math.cos), ("Y", math.sin)):
        pa0, pb0 = 1.9, 0.8
        d0 = signed_angle_diff(pa0, pb0)
        end = flow(gen, 1.0)(pa0, pb0)
        d1 = signed_angle_diff(end[0], end[1])
        expected = g(d1) / g(d0)
        det = jacobian_det(flow(gen, 1.0), (pa0, pb0))
        assert det == pytest.approx(expected, abs=1e-5), gen


def test_trajectory_accessors():
    traj = integrate_flow(FlowSpec("Z", 1, 0.1, 0.05), TorusPoint((1.0, 2.0)))
    assert traj.nsamples == 3
    assert traj.nqubits == 1
    assert isinstance(traj.point(0), TorusPoint)


def test_flowspec_validation():
    with pytest.raises(ValueError):
        FlowSpec("Q", 1, 1.0, 0.1)
    with pytest.raises(ValueError):
        FlowSpec("X", 1, -1.0, 0.1)
    with pytest.raises(ValueError):
        FlowSpec("X", 1, 1.0, 0.0)


@pytest.mark.parametrize("t_final, dt", [
    (1.0, 0.1), (0.35, 0.1), (0.0, 0.1), (10.0, 0.01), (0.3, 0.07),
    (PI / 2, 0.01), (2.5, 0.3),
])
def test_fixed_steps_matches_floor_grid(t_final, dt):
    nfull = int(math.floor(t_final / dt + 1e-9))
    rem = t_final - nfull * dt
    times = [k * dt for k in range(nfull + 1)]
    steps = [dt] * nfull
    if rem > 1e-12:
        times.append(t_final)
        steps.append(rem)
    assert fixed_steps(t_final, dt) == (times, steps)


def test_fixed_steps_dividing_and_partial_grids():
    assert fixed_steps(1.0, 0.1) == ([k * 0.1 for k in range(11)], [0.1] * 10)
    assert fixed_steps(0.0, 0.1) == ([0.0], [])
    times, steps = fixed_steps(0.35, 0.1)
    assert times == [0.0, 0.1, 0.2, 0.1 * 3, 0.35]
    assert steps[:3] == [0.1] * 3 and steps[3] == pytest.approx(0.05, abs=1e-15)


@pytest.mark.parametrize("t_final, dt", [
    (math.inf, 0.1), (math.nan, 0.1), (-1.0, 0.1), (1.0, 0.0), (1.0, -0.1),
    (1.0, math.nan), (1.0, math.inf),
])
def test_fixed_steps_rejects_bad_grid(t_final, dt):
    with pytest.raises(ValueError):
        fixed_steps(t_final, dt)
