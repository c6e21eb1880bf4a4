import math

import numpy as np
import pytest

from chiralwalk.profiles import ParameterProfile


def test_regime_convention_and_overrides():
    prof = ParameterProfile(-1.0, 2.0, {0: 5.0, -3: 7.0})
    assert prof.value(-1) == -1.0
    assert prof.value(0) == 5.0
    assert prof.value(-3) == 7.0
    assert prof.value(4) == 2.0
    assert prof.limit("-inf") == -1.0
    assert prof.limit("+inf") == 2.0


def test_overrides_equal_to_default_are_pruned():
    prof = ParameterProfile(1.0, 2.0, {-1: 1.0, 0: 2.0, 3: 9.0})
    assert prof.overrides == {3: 9.0}
    assert prof.support_radius == 4


def test_a_profile_holds_values_and_no_kind():
    with pytest.raises(TypeError):
        ParameterProfile(1, 2, {}, "real")
    prof = ParameterProfile(1.0, 2.0, {0: 3.0})
    assert ParameterProfile.coerce(prof) is prof
    assert ParameterProfile.coerce(2.0) == ParameterProfile.constant(2.0) == ParameterProfile(2, 2, {})
    assert ParameterProfile.coerce(0.5j).left_limit == 0.5j


def test_non_finite_values_are_rejected():
    for bad in (math.nan, math.inf, complex(0.0, -math.inf)):
        with pytest.raises(ValueError, match="non-finite"):
            ParameterProfile(bad, 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            ParameterProfile(1.0, 1.0, {2: bad})


def test_shift_matches_brute_force_window():
    rng = np.random.default_rng(5)
    for _ in range(40):
        overrides = {int(s): complex(rng.standard_normal(), rng.standard_normal())
                     for s in rng.integers(-5, 6, size=3)}
        prof = ParameterProfile(
            complex(rng.standard_normal(), rng.standard_normal()),
            complex(rng.standard_normal(), rng.standard_normal()),
            overrides,
        )
        s = int(rng.integers(-7, 8))
        shifted = prof.shifted(s)
        for x in range(-15, 16):
            assert shifted.value(x) == prof.value(x + s), (s, x)


def test_shift_keeps_limits_and_stays_eventually_constant():
    prof = ParameterProfile(2.0, 3.0, {1: 4.0})
    shifted = prof.shifted(5)
    assert shifted.left_limit == 2.0 and shifted.right_limit == 3.0
    assert shifted.support_radius <= prof.support_radius + 5
    # regime boundary sites materialise as overrides with the other limit
    assert shifted.value(-1) == 3.0


def test_pointwise_algebra_matches_values():
    rng = np.random.default_rng(6)
    u = ParameterProfile(1.5, -0.5, {0: 2.0})
    v = ParameterProfile(0.5j, 2.0, {2: 1.0 + 1j})
    for x in range(-4, 5):
        assert (u + v).value(x) == u.value(x) + v.value(x)
        assert (u - v).value(x) == u.value(x) - v.value(x)
        assert (u * v).value(x) == u.value(x) * v.value(x)
        assert (2.0 * u).value(x) == 2.0 * u.value(x)
        assert (-u).value(x) == -u.value(x)
        assert v.conj().value(x) == v.value(x).conjugate()
        assert v.abs().value(x) == abs(v.value(x))


def test_real_map_and_cis():
    theta = ParameterProfile(0.3, -1.2, {0: 0.7})
    sin = theta.real_map(math.sin)
    assert sin.value(0) == complex(math.sin(0.7))
    twist = theta.cis(-1)
    for x in (-2, 0, 3):
        assert abs(twist.value(x) - np.exp(-1j * theta.value(x).real)) < 1e-15


def test_allclose_and_max_abs_diff():
    u = ParameterProfile(1.0, 2.0, {0: 3.0})
    v = ParameterProfile(1.0, 2.0, {0: 3.0 + 5e-13})
    assert u.allclose(v)
    assert not u.allclose(v, tol=1e-14)
    assert abs(u.max_abs_diff(v) - 5e-13) < 1e-15


def test_values_matches_value_sitewise():
    prof = ParameterProfile(0.3 + 1j, -2.0, {-2: 5.0, 0: 1j, 7: 0.25})
    xs = np.arange(-9, 10)
    assert np.array_equal(prof.values(xs), [prof.value(int(x)) for x in xs])
