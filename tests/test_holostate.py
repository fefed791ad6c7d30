"""Encoding, decoding, homogeneity, and the Gaussian inner product."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holoqsim import (
    HoloState,
    NonPhysicalPolynomialError,
    SparsePoly,
    check_all_homogeneity,
    check_homogeneity,
    encode_basis,
    encode_state,
    from_poly,
    sb_inner_product,
    to_poly,
)


def test_encode_basis_single_bits():
    assert encode_basis("0").terms == {(1, 0): 1.0 + 0j}
    assert encode_basis("1").terms == {(0, 1): 1.0 + 0j}


def test_encode_basis_two_qubits():
    # "01": qubit 1 in 0 -> z_a1, qubit 2 in 1 -> z_b2
    assert encode_basis("01").terms == {(1, 0, 0, 1): 1.0 + 0j}
    assert encode_basis("10").terms == {(0, 1, 1, 0): 1.0 + 0j}


def test_encode_basis_rejects_bad_labels():
    with pytest.raises(ValueError):
        encode_basis("")
    with pytest.raises(ValueError):
        encode_basis("0x1")


def test_encode_state_bell():
    r = 1.0 / math.sqrt(2.0)
    psi = encode_state(np.array([r, 0.0, 0.0, r]))
    assert psi.nqubits == 2
    assert psi.amplitudes == {"00": r + 0j, "11": r + 0j}
    assert psi.is_normalized


def test_encode_state_drops_zero_amplitudes():
    psi = encode_state(np.array([1.0, 0.0]))
    assert psi.amplitudes == {"0": 1.0 + 0j}


def test_encode_state_rejects_bad_lengths():
    with pytest.raises(ValueError):
        encode_state(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        encode_state(np.array([1.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_non_finite_amplitudes_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        HoloState(1, {"0": 1.0, "1": bad})
    with pytest.raises(ValueError, match="finite"):
        encode_state(np.array([1.0, bad]))


def test_to_poly_bell():
    r = 1.0 / math.sqrt(2.0)
    poly = to_poly(encode_state(np.array([r, 0.0, 0.0, r])))
    assert poly.terms == {(1, 0, 1, 0): r + 0j, (0, 1, 0, 1): r + 0j}


def test_from_poly_round_trip_exact():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 4):
        v = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
        psi = encode_state(v / np.linalg.norm(v))
        assert from_poly(to_poly(psi)) == psi  # coefficient maps equal exactly


def test_from_poly_rejects_constant_term():
    p = SparsePoly(1, {(1, 0): 1.0, (0, 0): 0.5})
    with pytest.raises(NonPhysicalPolynomialError, match=r"\(0, 0\)"):
        from_poly(p)


def test_from_poly_rejects_quadratic():
    with pytest.raises(NonPhysicalPolynomialError, match=r"\(2, 0\)"):
        from_poly(SparsePoly(1, {(2, 0): 1.0}))


def test_from_poly_rejects_mixed_pair():
    with pytest.raises(NonPhysicalPolynomialError):
        from_poly(SparsePoly(1, {(1, 1): 1.0}))


def test_check_homogeneity_examples():
    assert check_homogeneity(SparsePoly(1, {(1, 0): 1.0}), 1)
    assert not check_homogeneity(SparsePoly(1, {(1, 1): 1.0}), 1)  # degree 2
    assert not check_homogeneity(SparsePoly.one(1), 1)  # degree 0
    assert not check_homogeneity(SparsePoly.zero(1), 1)


def test_check_homogeneity_per_qubit():
    # z_a1 * z_a2^2: degree 1 on qubit 1, degree 2 on qubit 2
    p = SparsePoly(2, {(1, 0, 2, 0): 1.0})
    assert check_homogeneity(p, 1)
    assert not check_homogeneity(p, 2)
    assert not check_all_homogeneity(p)


def test_sb_inner_product_orthonormal_variables():
    za = SparsePoly.variable(1, 0)
    zb = SparsePoly.variable(1, 1)
    assert sb_inner_product(za, za) == 1.0 + 0j
    assert sb_inner_product(za, zb) == 0j


def test_sb_inner_product_factorial_weight_against_quadrature():
    # ||z^2||^2 = 2! under the Gaussian measure; check the weight against
    # direct radial integration: 2*Int_0^inf r^(2m+1) e^(-r^2) dr = m!
    from scipy.integrate import quad
    m = 2
    val, err = quad(lambda r: 2.0 * r ** (2 * m + 1) * math.exp(-r * r), 0.0, 50.0)
    assert err < 1e-9
    za_sq = SparsePoly(1, {(2, 0): 1.0})
    assert abs(sb_inner_product(za_sq, za_sq) - val) < 1e-10
    assert abs(val - math.factorial(m)) < 1e-10


def test_sb_inner_product_antilinear_first_slot():
    za = SparsePoly.variable(1, 0)
    assert sb_inner_product(2j * za, za) == -2j
    assert sb_inner_product(za, 2j * za) == 2j


def test_sb_inner_product_matches_amplitude_dot():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        u = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
        v = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        f = to_poly(encode_state(u))
        g = to_poly(encode_state(v))
        assert abs(sb_inner_product(f, g) - np.vdot(u, v)) < 1e-12


def test_sparsepoly_prunes_cancellations():
    za = SparsePoly.variable(1, 0)
    assert (za - za).is_zero
    assert (za - za) == SparsePoly.zero(1)


def test_sparsepoly_product_collects_terms():
    za = SparsePoly.variable(1, 0)
    zb = SparsePoly.variable(1, 1)
    sq = (za + zb) * (za - zb)
    assert sq.terms == {(2, 0): 1.0 + 0j, (0, 2): -1.0 + 0j}


def test_sparsepoly_rejects_bad_exponents():
    with pytest.raises(ValueError):
        SparsePoly(1, {(1,): 1.0})
    with pytest.raises(ValueError):
        SparsePoly(1, {(-1, 0): 1.0})
    with pytest.raises(ValueError, match=r"non-integral exponent in \(1\.5, 0\)"):
        SparsePoly(1, {(1.5, 0): 1.0})


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_sparsepoly_rejects_non_finite_coefficients(bad):
    with pytest.raises(ValueError, match=r"coefficient of \(0, 1\) is not finite"):
        SparsePoly(1, {(1, 0): 1.0, (0, 1): bad})
    with pytest.raises(ValueError, match="not finite"):
        SparsePoly.one(1) * bad
    with pytest.raises(ValueError, match="not finite"):
        bad * SparsePoly.variable(1, 0)


def test_holostate_norm_flag():
    assert HoloState(1, {"0": 1.0}).is_normalized
    assert not HoloState(1, {"0": 0.5}).is_normalized


def test_holostate_norm_overflow_is_inf():
    psi = HoloState(1, {"0": 1e200})
    assert psi.norm() == math.inf
    assert not psi.is_normalized


def test_to_vector_big_endian():
    psi = HoloState(2, {"10": 1.0})
    v = psi.to_vector()
    assert v[int("10", 2)] == 1.0 + 0j
    assert np.count_nonzero(v) == 1


amplitude = st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                               allow_infinity=False)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 3), st.data())
def test_round_trip_and_homogeneity_property(n, data):
    amps = data.draw(st.lists(amplitude, min_size=2 ** n, max_size=2 ** n))
    v = np.array(amps)
    if np.linalg.norm(v) < 1e-6:
        v[0] += 1.0
    psi = encode_state(v / np.linalg.norm(v))
    poly = to_poly(psi)
    assert check_all_homogeneity(poly)
    assert from_poly(poly) == psi


@settings(deadline=None, max_examples=40)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=5),
       st.lists(amplitude, min_size=5, max_size=5))
def test_inner_product_positive_definite_property(expos, coeffs):
    terms = {}
    for (ea, eb), c in zip(expos, coeffs):
        terms[(ea, eb)] = terms.get((ea, eb), 0j) + c
    p = SparsePoly(1, terms)
    ip = sb_inner_product(p, p)
    assert abs(ip.imag) < 1e-9 * max(1.0, abs(ip))
    assert ip.real >= -1e-12
    if not p.is_zero:
        assert ip.real > 0.0
