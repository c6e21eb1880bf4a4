import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from chiralwalk import (
    AsymptoticData,
    EndpointSpectrumData,
    ModelParamsUm,
    classify_case,
    essential_spectrum,
    g_map,
    reduce_to_um,
    sigma_star,
    symbol_eigenvalues,
    walk,
    walk_operator,
)
from chiralwalk import models as models_module
from chiralwalk.config import load_model_config
from chiralwalk.models import MAX_SAMPLES
from chiralwalk.profiles import MINUS_INF, PLUS_INF, ParameterProfile
from chiralwalk.spectrum import SpectralSet

from conftest import (
    contains,
    random_fredholm_params,
    random_mko_params,
    random_um_params,
    real_profile,
    reference_params,
)

# Frozen with independent scalar arithmetic from p0 = 0.2, a0 = 0.1, g0 = 0.4:
#   gamma_-+ = acosh((1 -+ sqrt(0.96 * 0.99)) / 0.02) / 2
#   Lambda_-+ = 0.02 cosh(0.8) -+ sqrt(0.96 * 0.99)
GAMMA_MINUS_REF = 0.3503955882826028
GAMMA_PLUS_REF = 2.6428272578437793
LAMBDA_MINUS_REF = -0.9481359096302183
LAMBDA_PLUS_REF = 1.0016333074824122
G_LAMBDA_PLUS_REF = 1.05881094872579
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
EPS = np.finfo(float).eps


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
    assert result.minus.spectral_set.case_tag == result.plus.spectral_set.case_tag == "I"


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
    assert contains(sset, 1.0, 1e-9)


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
    assert contains(minus, -1.0, 1e-9)


def _hex_pieces(pieces):
    return [(u.hex(), v.hex()) for u, v in pieces]


def test_flipping_the_sign_of_a_reflects_the_set_exactly():
    # with pa != 0, a -> -a flips s = sgn(pa) and keeps |pa|, qb and gamma, so
    # the set must be the exact reflection through 0: (u, v) -> (-v, -u), the
    # piece order reversed, signed zeros included
    rng = np.random.default_rng(61)
    seen = set()
    for k in range(3000):
        p, a = rng.uniform(-1.0, 1.0, size=2)
        if k % 4 == 1:
            p = float(rng.choice([-1.0, 1.0]))
        elif k % 4 == 2:
            a = float(rng.choice([-1.0, 1.0]))
        if p * a == 0.0:
            continue
        gamma = rng.uniform(-3.0, 3.0)
        q = math.sqrt(1.0 - p * p) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        b = math.sqrt(1.0 - a * a) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        base, flipped = (sigma_star(AsymptoticData(PLUS_INF, p, sa, gamma, q, b, 0.0))
                         for sa in (a, -a))
        assert (flipped.case_tag, flipped.sign_tag) == (base.case_tag, -base.sign_tag)
        for mine, theirs in ((flipped.arcs, base.arcs), (flipped.segments, base.segments)):
            assert _hex_pieces(mine) == _hex_pieces((-v, -u) for u, v in reversed(theirs))
        seen.add((base.case_tag, base.sign_tag))
    assert seen == {(case, sign) for case in ("I", "II", "III") for sign in (1, -1)}


def test_plain_coin_walk_set_is_a_symmetric_arc_pair():
    bv = 0.8
    params = ModelParamsUm(m=1, gamma=real_profile(0, 0),
                           p=real_profile(0, 0), a=real_profile(0.6, 0.6),
                           q=ParameterProfile.constant(1.0),
                           b=ParameterProfile.constant(bv))
    sset = sigma_star(AsymptoticData.from_params(params, PLUS_INF))
    assert sset.case_tag == "I"
    assert sset.arcs == ((-bv, bv),)
    assert not contains(sset, 1.0, 1e-6) and not contains(sset, -1.0, 1e-6)


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

def symbol_matrices(params, star, z):
    """The walk's endpoint symbol sum_y C_y z^y at each z, shape z.shape + (2, 2)."""
    z = np.asarray(z, dtype=complex)
    return sum(c * (z ** y)[..., None, None]
               for y, c in walk(params).endpoint_symbol(star).items())


def test_symbol_determinant_is_one_on_the_circle():
    rng = np.random.default_rng(42)
    for _ in range(10):
        params = random_fredholm_params(rng)
        z = np.exp(1j * rng.uniform(0, 2 * np.pi, size=16))
        for star in (MINUS_INF, PLUS_INF):
            mats = symbol_matrices(params, star, z)
            assert np.max(np.abs(np.linalg.det(mats) - 1.0)) < 1e-12


def test_symbol_trace_formula():
    rng = np.random.default_rng(43)
    for _ in range(10):
        params = random_fredholm_params(rng)
        t = rng.uniform(0, 2 * np.pi, size=8)
        for star in (MINUS_INF, PLUS_INF):
            asym = AsymptoticData.from_params(params, star)
            mats = symbol_matrices(params, star, np.exp(1j * t))
            trace = mats[..., 0, 0] + mats[..., 1, 1]
            expected = 2 * (asym.p * asym.a * math.cosh(2 * asym.gamma)
                            + abs(asym.q * asym.b)
                            * np.cos(asym.theta + np.angle(asym.b) % (2 * np.pi) + params.m * t))
            assert np.max(np.abs(trace - expected)) < 1e-12


def test_symbol_is_unitary_without_gain():
    rng = np.random.default_rng(44)
    params = random_fredholm_params(rng, gamma_zero=True)
    z = np.exp(1j * np.linspace(0, 2 * np.pi, 9))
    mats = symbol_matrices(params, PLUS_INF, z)
    gram = np.einsum("...ji,...jk->...ik", mats.conj(), mats)
    assert np.max(np.abs(gram - np.eye(2))) < 1e-12


def test_symbol_eigenvalue_pairs():
    # identity symbol: double root at 1
    flat = ModelParamsUm(m=1, gamma=real_profile(0, 0),
                         p=real_profile(1, 1), a=real_profile(1, 1),
                         q=ParameterProfile.constant(0.0),
                         b=ParameterProfile.constant(0.0))
    eigs = symbol_eigenvalues(walk(flat).endpoint_symbol(PLUS_INF), 1.0)
    assert np.max(np.abs(eigs - 1.0)) < 1e-12

    # oscillatory instance: conjugate pairs on the circle
    circle = ModelParamsUm(m=1, gamma=real_profile(0.4, 0.4),
                           p=real_profile(0.3, 0.3), a=real_profile(0.8, 0.8),
                           q=ParameterProfile.constant(math.sqrt(0.91)),
                           b=ParameterProfile.constant(0.6))
    z = np.exp(1j * np.linspace(0, 2 * np.pi, 41))
    eigs = symbol_eigenvalues(walk(circle).endpoint_symbol(PLUS_INF), z)
    assert np.max(np.abs(np.abs(eigs) - 1.0)) < 1e-9
    assert np.max(np.abs(eigs[:, 0] - eigs[:, 1].conj())) < 1e-9

    # strongly gained instance: positive reciprocal real pairs
    real = ModelParamsUm(m=1, gamma=real_profile(1.5, 1.5),
                         p=real_profile(0.8, 0.8), a=real_profile(0.8, 0.8),
                         q=ParameterProfile.constant(0.6),
                         b=ParameterProfile.constant(0.6))
    eigs = symbol_eigenvalues(walk(real).endpoint_symbol(PLUS_INF), z)
    assert np.max(np.abs(eigs.imag)) < 1e-9
    assert np.max(np.abs(eigs[:, 0] * eigs[:, 1] - 1.0)) < 1e-9


def test_symbol_eigenvalue_product_is_always_one():
    rng = np.random.default_rng(45)
    for _ in range(10):
        params = random_fredholm_params(rng)
        z = np.exp(1j * rng.uniform(0, 2 * np.pi, size=12))
        # symbol_eigenvalues takes the small root as 1 / big, so check the
        # determinant it relies on directly
        assert np.max(np.abs(np.linalg.det(symbol_matrices(params, MINUS_INF, z)) - 1.0)) < 1e-12
        eigs = symbol_eigenvalues(walk(params).endpoint_symbol(MINUS_INF), z)
        assert np.max(np.abs(eigs[:, 0] * eigs[:, 1] - 1.0)) < 1e-12


def test_symbol_eigenvalues_match_a_general_eigensolve():
    # np.linalg.eigvals is the reference where the entries stay moderate
    rng = np.random.default_rng(46)
    for _ in range(20):
        params = random_fredholm_params(rng)
        z = np.exp(1j * rng.uniform(0, 2 * np.pi, size=32))
        for star in (MINUS_INF, PLUS_INF):
            ours = symbol_eigenvalues(walk(params).endpoint_symbol(star), z)
            reference = np.linalg.eigvals(symbol_matrices(params, star, z))
            # compare as unordered pairs: conjugate roots tie on the real part
            straight = np.abs(ours - reference).max(axis=1)
            swapped = np.abs(ours - reference[:, ::-1]).max(axis=1)
            scale = np.maximum(1.0, np.abs(reference).max(axis=1))
            assert np.max(np.minimum(straight, swapped) / scale) < 1e-9


@pytest.mark.parametrize("gamma", [50.0, 200.0, 354.0])
def test_large_gain_symbol_eigenvalues_stay_reciprocal_on_the_sets(gamma):
    # a general 2x2 eigensolve returned a small root of modulus ~0.975 at gamma = 50
    params = reference_params(gamma=gamma)
    z = np.exp(1j * np.linspace(0, 2 * np.pi, 64))
    for star in (MINUS_INF, PLUS_INF):
        eigs = symbol_eigenvalues(walk(params).endpoint_symbol(star), z)
        sset = sigma_star(AsymptoticData.from_params(params, star))
        assert np.all(np.isfinite(eigs))
        assert np.max(np.abs(eigs[:, 0] * eigs[:, 1] - 1.0)) < 1e-15
        assert np.max(sset.distance(eigs[:, 1]) / eigs[:, 1].real) < 1e-15
        assert np.max(sset.distance(eigs[:, 0]) / eigs[:, 0].real) < 1e-15


# ---------------------------------------------------------------------------
# the combined essential spectrum
# ---------------------------------------------------------------------------

def test_reference_essential_spectrum_oracle_agreement():
    result = essential_spectrum(reference_params(), 2048)
    for ep in (result.minus, result.plus):
        assert ep.spectral_set.case_tag == "II"
        assert ep.cloud_to_set < 1e-9
        assert ep.hausdorff <= ep.tolerance
    assert any(contains(ep.spectral_set, 1.0, 1e-9) for ep in (result.minus, result.plus))


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
    assert result.minus.spectral_set.case_tag == "II" and result.minus.data.s == 1
    assert result.plus.spectral_set.case_tag == "II" and result.plus.data.s == -1
    assert contains(result.minus.spectral_set, 1.0, 1e-9)
    assert contains(result.plus.spectral_set, -1.0, 1e-9)


def test_case_tags_describe_the_cloud():
    rng = np.random.default_rng(47)
    for _ in range(25):
        params = random_fredholm_params(rng, gamma_range=2.2)
        result = essential_spectrum(params, 512)
        for ep in (result.minus, result.plus):
            on_circle = np.abs(np.abs(ep.cloud) - 1.0) < 1e-7
            on_axis = np.abs(ep.cloud.imag) < 1e-7
            if ep.spectral_set.case_tag == "I":
                assert on_circle.all()
            elif ep.spectral_set.case_tag == "III":
                assert on_axis.all()
            else:
                assert on_circle.any() and (~on_circle & on_axis).any()
                pole = float(ep.data.s)
                # the pole belongs to the set; the cloud approaches it no
                # slower than the calibrated square-root branch gap
                assert np.min(np.abs(ep.cloud - pole)) <= ep.tolerance
                assert contains(ep.spectral_set, pole, 1e-9)


def config_params_and_unitary_twins():
    """The shipped configs, then each with its gain set to 0."""
    params = [load_model_config(CONFIG_DIR / f"{name}.json").build()
              for name in ("reference_um_m1", "reference_um_m2", "reference_mko")]
    return params + [dataclasses.replace(p, gamma=ParameterProfile.constant(0.0)) for p in params]


def test_the_cloud_lies_on_the_closed_form_set_to_16_eps_of_its_scale():
    # the cloud is read off the walk operator, the set off the endpoint data,
    # so membership tests the closed form against an independent computation
    rng = np.random.default_rng(23)
    cases = config_params_and_unitary_twins()
    cases += [random_fredholm_params(rng, gamma_range=2.5) for _ in range(100)]
    cases += [random_mko_params(rng) for _ in range(100)]
    for params in cases:
        result = essential_spectrum(params, 256)
        for ep in (result.minus, result.plus):
            assert ep.cloud_to_set <= 16.0 * EPS * max(1.0, ep.data.lam_plus)


def same_pairs(cloud, other, tol):
    """Whether two clouds agree pair by pair to ``tol`` relative, either order within a pair."""
    cloud, other = cloud.reshape(-1, 2), other.reshape(-1, 2)
    scale = np.maximum(1.0, np.abs(other).max(axis=1))
    straight = np.abs(cloud - other).max(axis=1)
    swapped = np.abs(cloud - other[:, ::-1]).max(axis=1)
    return bool(np.all(np.minimum(straight, swapped) <= tol * scale))


def test_the_two_step_oracle_samples_the_two_step_walk(monkeypatch):
    built = []

    def spy(params):
        built.append(params)
        return mko_walk(params)

    mko_walk = models_module.mko_walk
    monkeypatch.setattr(models_module, "mko_walk", spy)
    rng = np.random.default_rng(24)
    cases = [p for p in config_params_and_unitary_twins() if not isinstance(p, ModelParamsUm)]
    cases += [random_mko_params(rng) for _ in range(10)]
    for params in cases:
        built.clear()
        result = essential_spectrum(params, 512)
        assert built == [params]
        reduced = essential_spectrum(reduce_to_um(params), 512)
        assert len(built) == 1
        for ep, ref in ((result.minus, reduced.minus), (result.plus, reduced.plus)):
            assert ep.spectral_set == ref.spectral_set
            assert same_pairs(ep.cloud, ref.cloud, 1e-13)


def test_the_walk_symbol_trace_is_real_on_the_circle():
    # symbol_eigenvalues keeps only the real part of the trace: chiral
    # symmetry leaves rounding in its imaginary part, for both model families
    rng = np.random.default_rng(25)
    z = np.exp(1j * rng.uniform(0, 2 * np.pi, size=64))
    cases = [random_fredholm_params(rng, gamma_range=2.5) for _ in range(20)]
    cases += [random_mko_params(rng) for _ in range(20)]
    for params in cases:
        for star in (MINUS_INF, PLUS_INF):
            symbol = walk_operator(params).endpoint_symbol(star)
            trace = sum(np.trace(c) * z ** y for y, c in symbol.items())
            scale = sum(np.abs(c).sum() for c in symbol.values())
            assert np.max(np.abs(trace.imag)) <= 16.0 * EPS * scale


def test_resolution_floor():
    with pytest.raises(ValueError):
        essential_spectrum(reference_params(), 128)


def test_resolution_ceiling_is_the_sample_cap():
    with pytest.raises(ValueError, match=f"at most {MAX_SAMPLES}"):
        essential_spectrum(reference_params(), MAX_SAMPLES + 1)


# ---------------------------------------------------------------------------
# the oracle's set -> cloud search
# ---------------------------------------------------------------------------

SEARCH_RESOLUTION = 512


def _brute_nearest(points, cloud, chunk=256):
    """min |x - c| over the whole cloud for each point, a chunk of points at a time."""
    return np.concatenate([np.min(np.abs(points[i:i + chunk, None] - cloud[None, :]), axis=1)
                           for i in range(0, len(points), chunk)])


def _shortened(sset, frac):
    """``sset`` with each piece cut by ``frac`` of its length.

    Arcs keep the end nearer the pole s and segments the end nearer 0, so a
    Case II arc still ends at the pole and its segment still passes it.  A
    segment of zero length (at gamma = 200 and 354 both ends of each segment
    round to one float) is moved toward 0 by ``frac`` of its distance
    instead, so that it is wrong too.
    """
    def cut(pieces, keep_upper):
        return tuple((u + frac * (v - u), v) if keep_upper else (u, v - frac * (v - u))
                     for u, v in pieces)
    up = sset.sign_tag == 1
    segments = tuple((u * (1.0 - frac),) * 2 if u == v else (u, v)
                     for u, v in cut(sset.segments, not up))
    return SpectralSet(cut(sset.arcs, up), segments, sset.case_tag, sset.sign_tag)


@pytest.fixture(scope="module")
def oracle_endpoints():
    """Endpoints of seeded draws (gain up to 2.5, m in +-{1, 2, 3}) and of two large-gain sets."""
    rng = np.random.default_rng(71)
    params = [random_um_params(rng, gamma_range=2.5) for _ in range(36)]
    params += [reference_params(gamma=gamma) for gamma in (200.0, 354.0)]
    out = []
    for p in params:
        result = essential_spectrum(p, SEARCH_RESOLUTION)
        out += [(p.m, ep) for ep in (result.minus, result.plus)]
    return out


def test_set_to_cloud_search_equals_brute_force_per_point(oracle_endpoints):
    seen, steps, wraps = set(), set(), 0
    for m, ep in oracle_endpoints:
        sset = ep.spectral_set
        points = sset.sample(2 * SEARCH_RESOLUTION)
        to_set, to_cloud = sset._hausdorff_sides(ep.cloud, points)
        assert np.array_equal(to_set, sset.distance(ep.cloud))
        assert np.array_equal(to_cloud, _brute_nearest(points, ep.cloud))
        assert ep.set_to_cloud == np.max(to_cloud)
        seen.add(sset.case_tag)
        steps.add(m)
        wraps += any(u == -1.0 for u, _ in sset.arcs)       # arc angles cross +-pi
    assert seen == {"I", "II", "III"} and steps == {-3, -2, -1, 1, 2, 3} and wraps > 0
    assert max(ep.data.lam_plus for _, ep in oracle_endpoints) > 1e305


@pytest.mark.parametrize("frac", [0.3, 1e-2, 1e-3])
def test_set_to_cloud_search_against_a_wrong_set_errs_only_upwards(oracle_endpoints, frac):
    # a wrong set leaves cloud points off its pieces; the search may then
    # miss the nearest one, but by at most twice the cloud -> set distance
    for _, ep in oracle_endpoints:
        wrong = _shortened(ep.spectral_set, frac)
        points = wrong.sample(2 * SEARCH_RESOLUTION)
        to_set, to_cloud = wrong._hausdorff_sides(ep.cloud, points)
        brute = _brute_nearest(points, ep.cloud)
        assert np.max(to_set) > 0.0
        assert np.all(brute <= to_cloud)
        assert np.all(to_cloud <= brute + 2.0 * np.max(to_set))
