import math
import warnings

import numpy as np
import pytest

from chiralwalk import (
    AsymptoticData,
    EndpointSpectrumData,
    ModelParamsUm,
    classify_case,
    essential_spectrum,
    g_map,
    sigma_star,
    symbol_eigenvalues,
    symbol_matrix,
)
from chiralwalk.profiles import MINUS_INF, PLUS_INF, ParameterProfile
from chiralwalk.spectrum import SpectralSet

from conftest import random_fredholm_params, real_profile, reference_params

# Frozen with independent scalar arithmetic from p0 = 0.2, a0 = 0.1, g0 = 0.4:
#   gamma_-+ = acosh((1 -+ sqrt(0.96 * 0.99)) / 0.02) / 2
#   Lambda_-+ = 0.02 cosh(0.8) -+ sqrt(0.96 * 0.99)
GAMMA_MINUS_REF = 0.3503955882826028
GAMMA_PLUS_REF = 2.6428272578437793
LAMBDA_MINUS_REF = -0.9481359096302183
LAMBDA_PLUS_REF = 1.0016333074824122
G_LAMBDA_PLUS_REF = 1.05881094872579


# ---------------------------------------------------------------------------
# endpoint data and classification
# ---------------------------------------------------------------------------

def test_reference_endpoint_scalars():
    params = reference_params()
    for star in (MINUS_INF, PLUS_INF):
        data = EndpointSpectrumData.from_asymptotics(AsymptoticData.from_params(params, star))
        assert data.s == 1
        assert abs(data.gamma_minus - GAMMA_MINUS_REF) < 1e-14
        assert abs(data.gamma_plus - GAMMA_PLUS_REF) < 1e-14
        assert abs(data.gamma_minus - 0.350396) < 1e-6
        assert abs(data.gamma_plus - 2.64283) < 1e-5
        assert abs(data.lam_minus - LAMBDA_MINUS_REF) < 1e-14
        assert abs(data.lam_plus - LAMBDA_PLUS_REF) < 1e-14


def test_vanishing_diagonal_weight_gives_infinite_gamma_range():
    params = ModelParamsUm(m=1, gamma=real_profile(0.9, 0.9),
                           p=real_profile(0, 0), a=real_profile(0.7, 0.7),
                           q=ParameterProfile.constant(1.0),
                           b=ParameterProfile.constant(math.sqrt(0.51)))
    data = EndpointSpectrumData.from_asymptotics(AsymptoticData.from_params(params, PLUS_INF))
    assert math.isinf(data.gamma_minus) and math.isinf(data.gamma_plus)
    assert classify_case(data, 123.0) == "I"


def test_reference_classification_cases():
    asym = AsymptoticData.from_params(reference_params(), PLUS_INF)
    data = EndpointSpectrumData.from_asymptotics(asym)
    assert classify_case(data, 0.4) == "II"
    assert classify_case(data, 0.0) == "I"
    assert classify_case(data, data.gamma_minus) == "I"       # boundary closes Case I
    assert classify_case(data, data.gamma_plus) == "III"      # boundary closes Case III
    assert classify_case(data, 5.0) == "III"


def test_zero_gain_is_always_case_one():
    rng = np.random.default_rng(40)
    for _ in range(10):
        params = random_fredholm_params(rng, gamma_zero=True)
        for star in (MINUS_INF, PLUS_INF):
            asym = AsymptoticData.from_params(params, star)
            data = EndpointSpectrumData.from_asymptotics(asym)
            assert classify_case(data, asym.gamma) == "I"
            assert data.lam_plus <= 1.0 + 1e-12


def test_degenerate_boundary_is_flagged():
    # vanishing coupling makes both closed-case conditions meet at one point
    params = ModelParamsUm(m=1, gamma=real_profile(0.5, 0.5),
                           p=real_profile(0.6, 0.6), a=real_profile(1.0, 1.0),
                           q=ParameterProfile.constant(0.8),
                           b=ParameterProfile.constant(0.0))
    data = EndpointSpectrumData.from_asymptotics(AsymptoticData.from_params(params, PLUS_INF))
    assert data.gamma_minus == data.gamma_plus
    with pytest.warns(UserWarning):
        assert classify_case(data, data.gamma_plus) == "I"


def test_degenerate_boundary_warns_once_per_endpoint():
    # b = 0 and gamma = acosh(1 / |p a|) / 2 put both endpoints on both closed boundaries
    gamma = 0.5 * math.acosh(2.0)
    params = ModelParamsUm(m=1, gamma=real_profile(gamma, gamma),
                           p=real_profile(0.5, 0.5), a=real_profile(1.0, 1.0),
                           q=ParameterProfile.constant(math.sqrt(0.75)),
                           b=ParameterProfile.constant(0.0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = essential_spectrum(params, 256)
    assert len(caught) == 2
    assert result.minus.case_tag == result.plus.case_tag == "I"


# ---------------------------------------------------------------------------
# the doubling map
# ---------------------------------------------------------------------------

def test_gamma_bounds_invert_the_gain_threshold():
    # |p a| cosh(2 gamma_-+) recovers 1 -+ |q b| whenever p a does not vanish
    rng = np.random.default_rng(48)
    for _ in range(15):
        params = random_fredholm_params(rng)
        for star in (MINUS_INF, PLUS_INF):
            asym = AsymptoticData.from_params(params, star)
            pa = abs(asym.p * asym.a)
            if pa == 0.0:
                continue
            qb = abs(asym.q * asym.b)
            data = EndpointSpectrumData.from_asymptotics(asym)
            assert abs(pa * math.cosh(2 * data.gamma_minus) - (1 - qb)) < 1e-10
            assert abs(pa * math.cosh(2 * data.gamma_plus) - (1 + qb)) < 1e-10


def test_g_map_fixed_points_and_reference_value():
    assert g_map(1.0) == 1.0
    assert g_map(-1.0) == -1.0
    assert abs(g_map(LAMBDA_PLUS_REF) - G_LAMBDA_PLUS_REF) < 1e-14


def test_g_map_reciprocal_mirror_identity():
    rng = np.random.default_rng(41)
    for x in 1.0 + np.abs(rng.standard_normal(25)) * 3:
        assert abs(g_map(x) * g_map(-x) + 1.0) < 1e-12
        assert abs(g_map(x) * (1.0 / g_map(x)) - 1.0) < 1e-12


def test_g_map_rejects_the_gap():
    with pytest.raises(ValueError):
        g_map(0.5)


# ---------------------------------------------------------------------------
# closed-form spectral sets
# ---------------------------------------------------------------------------

def test_reference_spectral_set_case_two():
    sset = sigma_star(AsymptoticData.from_params(reference_params(), PLUS_INF))
    assert sset.case_tag == "II" and sset.sign_tag == 1
    (arc,) = sset.arcs
    (segment,) = sset.segments
    assert abs(arc[0] - LAMBDA_MINUS_REF) < 1e-14 and arc[1] == 1.0
    assert abs(segment[0] - 1.0 / G_LAMBDA_PLUS_REF) < 1e-14
    assert abs(segment[1] - G_LAMBDA_PLUS_REF) < 1e-14
    assert sset.contains(1.0)


def test_mirrored_sign_gives_the_mirrored_set():
    base = reference_params()
    flipped = ModelParamsUm(m=1, gamma=base.gamma, p=base.p,
                            a=real_profile(0.1, -0.1), q=base.q, b=base.b)
    plus = sigma_star(AsymptoticData.from_params(base, PLUS_INF))
    minus = sigma_star(AsymptoticData.from_params(flipped, PLUS_INF))
    assert minus.sign_tag == -1 and minus.case_tag == "II"
    (arc_p,), (arc_m,) = plus.arcs, minus.arcs
    (seg_p,), (seg_m,) = plus.segments, minus.segments
    assert arc_m == (-arc_p[1], -arc_p[0])
    assert seg_m == (-seg_p[1], -seg_p[0])
    assert minus.contains(-1.0)


def test_plain_coin_walk_set_is_a_symmetric_arc_pair():
    bv = 0.8
    params = ModelParamsUm(m=1, gamma=real_profile(0, 0),
                           p=real_profile(0, 0), a=real_profile(0.6, 0.6),
                           q=ParameterProfile.constant(1.0),
                           b=ParameterProfile.constant(bv))
    sset = sigma_star(AsymptoticData.from_params(params, PLUS_INF))
    assert sset.case_tag == "I"
    assert sset.arcs == ((-bv, bv),)
    assert not sset.contains(1.0, tol=1e-6) and not sset.contains(-1.0, tol=1e-6)


@pytest.mark.parametrize("gamma", [50.0, 200.0, 354.0])
def test_large_gain_sets_are_finite_case_three(gamma):
    # lambda_+ ~ 0.02 cosh(2 gamma) reaches 3e305: g_map's x^2 overflows from gamma ~ 180
    params = reference_params(gamma=gamma)
    for star in (MINUS_INF, PLUS_INF):
        sset = sigma_star(AsymptoticData.from_params(params, star))
        assert sset.case_tag == "III" and sset.sign_tag == 1 and not sset.arcs
        inner, outer = sset.segments
        assert 0.0 < inner[0] and math.isfinite(outer[1])
        assert math.isclose(inner[0] * outer[1], 1.0, rel_tol=1e-15)
        assert math.isclose(inner[1] * outer[0], 1.0, rel_tol=1e-15)


def test_spectral_set_shape_validation():
    with pytest.raises(ValueError):
        SpectralSet(((-1.5, 0.0),), (), "I", 1)
    with pytest.raises(ValueError):
        SpectralSet((), ((-0.5, 0.5),), "III", 1)      # segment through 0
    with pytest.raises(ValueError):
        SpectralSet(((0.0, 1.0),), ((0.9, 1.1),), "I", 1)
    with pytest.raises(ValueError):
        SpectralSet(((0.0, 1.0),), (), "III", 1)


def test_distance_against_hand_points():
    sset = SpectralSet(((0.0, 1.0),), ((0.9, 1.2),), "II", 1)
    # on the arc, at the arc edge, on the segment, plainly outside
    pts = np.array([np.exp(0.3j), 1.3j, 1.1, -1.0])
    d = sset.distance(pts)
    assert d[0] < 1e-12
    assert abs(d[1] - abs(1.3j - 1j)) < 1e-12
    assert d[2] < 1e-12
    assert abs(d[3] - abs(-1.0 - 1j)) < 1e-12   # nearest arc end is +-i


# ---------------------------------------------------------------------------
# the 2x2 symbol
# ---------------------------------------------------------------------------

def test_symbol_determinant_is_one_on_the_circle():
    rng = np.random.default_rng(42)
    for _ in range(10):
        params = random_fredholm_params(rng)
        z = np.exp(1j * rng.uniform(0, 2 * np.pi, size=16))
        for star in (MINUS_INF, PLUS_INF):
            mats = symbol_matrix(AsymptoticData.from_params(params, star), z, params.m)
            assert np.max(np.abs(np.linalg.det(mats) - 1.0)) < 1e-12


def test_symbol_trace_formula():
    rng = np.random.default_rng(43)
    for _ in range(10):
        params = random_fredholm_params(rng)
        t = rng.uniform(0, 2 * np.pi, size=8)
        for star in (MINUS_INF, PLUS_INF):
            asym = AsymptoticData.from_params(params, star)
            mats = symbol_matrix(asym, np.exp(1j * t), params.m)
            trace = mats[..., 0, 0] + mats[..., 1, 1]
            expected = 2 * (asym.p * asym.a * math.cosh(2 * asym.gamma)
                            + abs(asym.q * asym.b)
                            * np.cos(asym.theta + asym.theta_prime + params.m * t))
            assert np.max(np.abs(trace - expected)) < 1e-12


def test_symbol_is_unitary_without_gain():
    rng = np.random.default_rng(44)
    params = random_fredholm_params(rng, gamma_zero=True)
    z = np.exp(1j * np.linspace(0, 2 * np.pi, 9))
    mats = symbol_matrix(AsymptoticData.from_params(params, PLUS_INF), z, params.m)
    gram = np.einsum("...ji,...jk->...ik", mats.conj(), mats)
    assert np.max(np.abs(gram - np.eye(2))) < 1e-12


def test_symbol_eigenvalue_pairs():
    # identity symbol: double root at 1
    flat = ModelParamsUm(m=1, gamma=real_profile(0, 0),
                         p=real_profile(1, 1), a=real_profile(1, 1),
                         q=ParameterProfile.constant(0.0),
                         b=ParameterProfile.constant(0.0))
    eigs = symbol_eigenvalues(AsymptoticData.from_params(flat, PLUS_INF), 1.0, 1)
    assert np.max(np.abs(eigs - 1.0)) < 1e-12

    # oscillatory instance: conjugate pairs on the circle
    circle = ModelParamsUm(m=1, gamma=real_profile(0.4, 0.4),
                           p=real_profile(0.3, 0.3), a=real_profile(0.8, 0.8),
                           q=ParameterProfile.constant(math.sqrt(0.91)),
                           b=ParameterProfile.constant(0.6))
    z = np.exp(1j * np.linspace(0, 2 * np.pi, 41))
    eigs = symbol_eigenvalues(AsymptoticData.from_params(circle, PLUS_INF), z, 1)
    assert np.max(np.abs(np.abs(eigs) - 1.0)) < 1e-9
    assert np.max(np.abs(eigs[:, 0] - eigs[:, 1].conj())) < 1e-9

    # strongly gained instance: positive reciprocal real pairs
    real = ModelParamsUm(m=1, gamma=real_profile(1.5, 1.5),
                         p=real_profile(0.8, 0.8), a=real_profile(0.8, 0.8),
                         q=ParameterProfile.constant(0.6),
                         b=ParameterProfile.constant(0.6))
    eigs = symbol_eigenvalues(AsymptoticData.from_params(real, PLUS_INF), z, 1)
    assert np.max(np.abs(eigs.imag)) < 1e-9
    assert np.max(np.abs(eigs[:, 0] * eigs[:, 1] - 1.0)) < 1e-9


def test_symbol_eigenvalue_product_is_always_one():
    rng = np.random.default_rng(45)
    for _ in range(10):
        params = random_fredholm_params(rng)
        z = np.exp(1j * rng.uniform(0, 2 * np.pi, size=12))
        eigs = symbol_eigenvalues(AsymptoticData.from_params(params, MINUS_INF), z, params.m)
        assert np.max(np.abs(eigs[:, 0] * eigs[:, 1] - 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# the combined essential spectrum
# ---------------------------------------------------------------------------

def test_reference_essential_spectrum_oracle_agreement():
    result = essential_spectrum(reference_params(), 2048)
    for ep in (result.minus, result.plus):
        assert ep.case_tag == "II"
        assert ep.cloud_to_set < 1e-9
        assert ep.hausdorff <= ep.tolerance
    assert result.contains(1.0)
    assert not result.essentially_gapped()


def test_unitary_cloud_lies_on_the_circle():
    rng = np.random.default_rng(46)
    params = random_fredholm_params(rng, gamma_zero=True)
    result = essential_spectrum(params, 512)
    for ep in (result.minus, result.plus):
        assert np.max(np.abs(np.abs(ep.cloud) - 1.0)) < 1e-12


def test_opposite_signs_touch_opposite_poles():
    params = ModelParamsUm(m=1, gamma=real_profile(0.8, 0.8),
                           p=real_profile(0.3, 0.3), a=real_profile(0.5, -0.5),
                           q=ParameterProfile.constant(math.sqrt(0.91)),
                           b=ParameterProfile.constant(math.sqrt(0.75)))
    result = essential_spectrum(params, 512)
    assert result.minus.case_tag == "II" and result.minus.data.s == 1
    assert result.plus.case_tag == "II" and result.plus.data.s == -1
    assert result.minus.spectral_set.contains(1.0)
    assert result.plus.spectral_set.contains(-1.0)
    assert result.contains(1.0) and result.contains(-1.0)


def test_case_tags_describe_the_cloud():
    rng = np.random.default_rng(47)
    for _ in range(25):
        params = random_fredholm_params(rng, gamma_range=2.2)
        result = essential_spectrum(params, 512)
        for ep in (result.minus, result.plus):
            on_circle = np.abs(np.abs(ep.cloud) - 1.0) < 1e-7
            on_axis = np.abs(ep.cloud.imag) < 1e-7
            if ep.case_tag == "I":
                assert on_circle.all()
            elif ep.case_tag == "III":
                assert on_axis.all()
            else:
                assert on_circle.any() and (~on_circle & on_axis).any()
                pole = float(ep.data.s)
                # the pole belongs to the set; the cloud approaches it no
                # slower than the calibrated square-root branch gap
                assert np.min(np.abs(ep.cloud - pole)) <= ep.tolerance
                assert ep.spectral_set.contains(pole)


def test_resolution_floor():
    with pytest.raises(ValueError):
        essential_spectrum(reference_params(), 128)
