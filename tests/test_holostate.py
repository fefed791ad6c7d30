"""Encoding, decoding, homogeneity, and the Gaussian inner product."""

import math
import tracemalloc

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
from holoqsim.diffop import DiffOperator
from holoqsim.fileio import state_text
from holoqsim.holostate import _exponents_to_index, basis_exponents, basis_indices

from _support import random_state_vector


def test_encode_basis_single_bits():
    assert encode_basis("0").terms == {(1, 0): 1.0 + 0j}
    assert encode_basis("1").terms == {(0, 1): 1.0 + 0j}


def test_encode_basis_two_qubits():
    # "01": qubit 1 in 0 -> z_a1, qubit 2 in 1 -> z_b2
    assert encode_basis("01").terms == {(1, 0, 0, 1): 1.0 + 0j}
    assert encode_basis("10").terms == {(0, 1, 1, 0): 1.0 + 0j}


def test_encode_basis_rejects_bad_labels():
    with pytest.raises(ValueError, match="^empty basis label$"):
        encode_basis("")
    for bad in ("0x1", "0x"):
        with pytest.raises(ValueError) as refused:
            encode_basis(bad)
        assert str(refused.value) == f"bad basis label {bad!r}"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_basis_exponents_is_the_inverse_of_the_decoding_index(n):
    for k in range(2 ** n):
        expo = basis_exponents(k, n)
        assert _exponents_to_index(expo, n) == k
        assert SparsePoly.monomial(n, expo) == encode_basis(format(k, f"0{n}b"))


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


def test_encode_state_rejects_an_empty_dict():
    with pytest.raises(ValueError, match="^cannot infer qubit count from an empty dict$"):
        encode_state({})


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


def test_to_poly_reads_indices_without_building_the_label_map():
    v = random_state_vector(np.random.default_rng(3), 3)
    map_form = HoloState(3, {format(k, "03b"): c for k, c in enumerate(v.tolist())})
    for state in (map_form, HoloState(3, v)):
        poly = to_poly(state)
        assert state._amplitudes is None
        assert from_poly(poly) == state


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


def test_map_and_vector_forms_of_one_state_read_the_same():
    v = random_state_vector(np.random.default_rng(12), 6)
    v[[3, 9, 17]] = [1e-15, complex(-0.0, -1e-16), 0.0]  # pruned
    v[[20, 40]] = [complex(0.5, -0.0), complex(-0.0, 0.25)]  # signed zeros kept
    vector_form = HoloState(6, v.copy())
    map_form = HoloState(6, {format(k, "06b"): c for k, c in enumerate(v.tolist())})
    assert vector_form.vector is not None and map_form.vector is None
    assert vector_form == map_form and map_form == vector_form
    assert state_text(vector_form) == state_text(map_form)
    assert vector_form.norm() == map_form.norm()
    assert vector_form.to_vector().tobytes() == map_form.to_vector().tobytes()
    assert repr(vector_form) == repr(map_form)
    hexed = [[(k, c.real.hex(), c.imag.hex()) for k, c in state.indexed.items()]
             for state in (vector_form, map_form)]
    assert hexed[0] == hexed[1]
    assert [k for k, _, _ in hexed[0]] == [k for k in range(64) if k not in (3, 9, 17)]
    signed = {k: (re, im) for k, re, im in hexed[0]}
    assert signed[20][1] == signed[40][0] == (-0.0).hex()


def test_label_view_is_built_on_first_read_in_map_order():
    state = HoloState(3, {"110": 0.5j, "001": 1e-15, "000": -0.5, "101": complex(-0.0, 0.5)})
    assert list(state.indexed.items()) == [(6, 0.5j), (0, -0.5), (5, complex(-0.0, 0.5))]
    assert state.norm() == 0.8660254037844386 and state == HoloState.from_indexed(3, state.indexed)
    assert state._amplitudes is None
    assert list(state.amplitudes.items()) == [("110", 0.5j), ("000", -0.5),
                                              ("101", complex(-0.0, 0.5))]
    assert state.amplitudes is state._amplitudes


def test_from_indexed_checks_keys_and_values_as_labels_are_checked():
    state = HoloState.from_indexed(2, {3: 1.0, 1: 1e-15, 0: -0.0, 2: 0.5j})
    assert state == HoloState(2, {"11": 1.0, "01": 1e-15, "00": -0.0, "10": 0.5j})
    assert list(state.indexed) == [3, 2] and state._amplitudes is None
    with pytest.raises(ValueError) as by_label:
        HoloState(4, {"0000": 1.0, "0101": complex(math.inf, 0.0)})
    with pytest.raises(ValueError) as by_index:
        HoloState.from_indexed(4, {0: 1.0, 5: complex(math.inf, 0.0)})
    assert str(by_index.value) == str(by_label.value)
    assert str(by_index.value) == "amplitude of '0101' is not finite: (inf+0j)"
    for key in (True, False, -1, 16, 1 << 70, 2.0, "0001", np.int64(1)):
        with pytest.raises(ValueError, match=r"^bad basis index .* for 4 qubit\(s\)$"):
            HoloState.from_indexed(4, {key: 1.0})
    with pytest.raises(ValueError, match="^bad basis index 16 for 4"):  # map order: key first
        HoloState.from_indexed(4, {16: math.nan})


def test_basis_indices_read_labels_as_the_label_constructor_does():
    labels = ["1011", "0000", "1111", "0110"]
    index = basis_indices(labels, 4)
    assert index.tolist() == [11, 0, 15, 6]
    assert list(HoloState(4, dict.fromkeys(labels, 0.5)).indexed) == index.tolist()
    assert basis_indices(iter(labels), 4).tolist() == index.tolist()
    # int(bits, 2) reads "1_11" as 7 and the three labels after it as 5.
    for bad in ("010", "01010", "01x1", "1_11", " 101", "+101", "\u0660\u0661\u0660\u0661", 5):
        with pytest.raises(ValueError, match="bad basis label"):
            HoloState(4, {bad: 1.0})
        assert basis_indices(["0000", bad, "1111"], 4) is None


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 16])
def test_vector_norm_equals_map_norm_bitwise_without_building_the_map(n):
    v = random_state_vector(np.random.default_rng(100 + n), n) * 3.0
    v[[0, -1]] = [1e-15, complex(-0.0, 0.5)]  # one pruned entry, one signed zero kept
    vector_form = HoloState(n, v.copy())
    map_form = HoloState(n, {format(k, f"0{n}b"): c for k, c in enumerate(v.tolist())})
    assert vector_form.norm().hex() == map_form.norm().hex()
    assert vector_form._amplitudes is None


def test_vector_norm_holds_no_label_map():
    n = 16
    state = HoloState(n, random_state_vector(np.random.default_rng(16), n))
    tracemalloc.start()
    try:
        assert state.is_normalized
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state._amplitudes is None
    assert peak < 6 * 2 ** 20  # the 2^16-label map alone holds ~7.9 MiB


def test_vector_norm_lists_its_amplitudes_block_by_block_to_the_same_bits():
    n = 18
    v = random_state_vector(np.random.default_rng(18), n)
    v[::3] = 0  # zeros in every block: only the nonzero entries are summed
    state = HoloState(n, v)
    tracemalloc.start()
    try:
        norm = state.norm()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    whole = math.sqrt(sum(abs(c) ** 2 for c in v[np.flatnonzero(v)].tolist()))
    assert norm.hex() == whole.hex()
    assert peak < 6 * 2 ** 20  # one list of all 2^18 * 2/3 amplitudes peaks at ~9.3 MiB


def test_vector_form_with_nan_is_refused_naming_its_label():
    v = np.zeros(4, dtype=complex)
    v[[0, 2, 3]] = [1.0, complex(math.nan, 0.0), math.inf]
    with pytest.raises(ValueError) as by_map:
        HoloState(2, {format(k, "02b"): c for k, c in enumerate(v.tolist())})
    assert str(by_map.value) == r"amplitude of '10' is not finite: (nan+0j)"
    for build in (lambda: HoloState(2, v), lambda: encode_state(v)):  # refused when built
        with pytest.raises(ValueError) as by_vector:
            build()
        assert str(by_vector.value) == str(by_map.value)


def test_to_vector_of_a_vector_form_prunes_it_without_building_the_map():
    v = random_state_vector(np.random.default_rng(13), 5)
    v[[1, 2, 3, 4]] = [1e-15, complex(-0.0, -1e-16), -0.0, complex(-1e-14, 0.0)]  # pruned
    v[[6, 7]] = [complex(0.5, -0.0), complex(-0.0, -0.25)]  # signed zeros kept
    entries = {format(k, "05b"): c for k, c in enumerate(v.tolist())}
    given = v.tobytes()
    state = HoloState(5, v)
    out = state.to_vector()
    assert out.tobytes() == HoloState(5, entries).to_vector().tobytes()
    assert state._amplitudes is None and out.flags.writeable
    assert v.tobytes() == given and v.flags.writeable  # the caller's array is left alone
    out[0] = 7.0
    assert state.to_vector().tobytes() == HoloState(5, entries).to_vector().tobytes()
    v[[9, 12]] = [complex(0.0, math.nan), math.inf]
    with pytest.raises(ValueError) as by_map:
        HoloState(5, {format(k, "05b"): c for k, c in enumerate(v.tolist())})
    with pytest.raises(ValueError, match=r"amplitude of '01001' is not finite") as by_vector:
        HoloState(5, v)
    assert str(by_vector.value) == str(by_map.value)


def test_vector_form_keeps_a_read_only_vector_of_its_register():
    v = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    state = HoloState(2, v)
    assert state.vector is not v and not state.vector.flags.writeable and v.flags.writeable
    v[:] = [0.0, 1.0, 0.0, 0.0]  # the state keeps its own copy
    assert state.amplitudes == {"00": 1.0 + 0j}
    for bad in (np.zeros(8, dtype=complex), np.zeros(4)):
        with pytest.raises(ValueError, match="2-qubit vector must be complex of length 4"):
            HoloState(2, bad)
    w = np.array([0.0, 1.0])
    psi = encode_state(w)  # the caller's array stays writable and apart
    w[0] = 1.0
    assert psi.amplitudes == {"1": 1.0 + 0j} and w.flags.writeable


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


@pytest.mark.parametrize("build", [
    lambda: SparsePoly(0, {}), lambda: SparsePoly.zero(-1), lambda: HoloState(0, {}),
], ids=["sparse-poly", "sparse-poly-negative", "holo-state"])
def test_term_maps_and_states_refuse_an_empty_register(build):
    with pytest.raises(ValueError, match=r"^nqubits must be >= 1, got -?\d+$"):
        build()


@pytest.mark.parametrize("index", [-1, 2])
def test_variable_refuses_an_index_outside_the_register(index):
    with pytest.raises(ValueError) as err:
        SparsePoly.variable(1, index)
    assert str(err.value) == f"variable index {index} out of range 0..1"


@pytest.mark.parametrize("poly, text", [
    (SparsePoly(1, {(1, 0): 1.0, (0, 1): 2j}), "SparsePoly(n=1, (0+2j)*z1 + (1+0j)*z0)"),
    (SparsePoly(2, {(2, 0, 1, 0): -0.5}), "SparsePoly(n=2, (-0.5+0j)*z0^2*z2)"),
    (SparsePoly.one(1), "SparsePoly(n=1, (1+0j)*1)"),
    (SparsePoly.zero(2), "SparsePoly(n=2, 0)"),
    (DiffOperator(1, {((0, 1), (1, 0)): 1.0, ((0, 0), (0, 0)): -1}),
     "DiffOperator(n=1, (-1+0j)*1 + (1+0j)*z1*d0)"),
], ids=["two-terms", "power", "constant", "zero", "operator"])
def test_term_map_repr(poly, text):
    assert repr(poly) == text
