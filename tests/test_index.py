import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chiralwalk import (
    AsymptoticData,
    ModelParamsUm,
    NotFredholmError,
    SymbolFunction,
    SymbolNearZeroError,
    compute_index,
    is_fredholm,
    p_gamma,
    sgn,
    winding_analytic,
    winding_numeric,
    witten_index_analytic,
)
import chiralwalk.index
from chiralwalk.cli import main
from chiralwalk.index import symbols_from_block
from chiralwalk.models import default_phase
from chiralwalk.profiles import MINUS_INF, PLUS_INF, ParameterProfile

from conftest import (
    closed_p_gamma,
    random_fredholm_params,
    random_um_params,
    real_profile,
    reference_params,
)

# Frozen with independent scalar arithmetic:
#   0.2 / sqrt(0.04 + 0.96 * cosh(0.8)^2)
P_GAMMA_REF = 0.1508764669875666


def endpoints(params):
    return tuple(AsymptoticData.from_params(params, star) for star in (MINUS_INF, PLUS_INF))


# ---------------------------------------------------------------------------
# scalar pieces
# ---------------------------------------------------------------------------

def test_sign_convention_at_zero():
    assert sgn(0.0) == 1
    assert sgn(2.5) == 1
    assert sgn(-1e-300) == -1


def test_p_gamma_reference_value():
    minus, plus = endpoints(reference_params())
    assert abs(abs(p_gamma(minus)) - P_GAMMA_REF) < 1e-15
    assert abs(p_gamma(plus) - P_GAMMA_REF) < 1e-15
    assert abs(abs(p_gamma(minus)) - 0.150876) < 1e-6


def test_p_gamma_degenerate_values():
    rng = np.random.default_rng(30)
    params = random_um_params(rng, gamma_zero=True)
    minus, plus = endpoints(params)
    assert abs(p_gamma(minus) - minus.p) < 1e-14
    assert abs(p_gamma(plus) - plus.p) < 1e-14
    flat = ModelParamsUm(m=1, gamma=real_profile(0.7, 0.7),
                         p=real_profile(0, 0), a=real_profile(0.4, 0.4),
                         q=ParameterProfile.constant(1.0),
                         b=ParameterProfile.constant(math.sqrt(0.84)))
    assert p_gamma(AsymptoticData.from_params(flat, PLUS_INF)) == 0.0


# ---------------------------------------------------------------------------
# Fredholm test
# ---------------------------------------------------------------------------

def test_reference_instance_is_fredholm_with_positive_margin():
    ok, (dm, dp) = is_fredholm(*endpoints(reference_params()))
    assert ok
    assert dm.margin > 0.05 and dp.margin > 0.05


def tie_params(m=1):
    """a chosen so that |p_gamma| equals |a| in double precision."""
    pg = 0.2 / math.sqrt(0.04 + 0.96 * math.cosh(0.8) ** 2)
    return ModelParamsUm(m=m, gamma=real_profile(0.4, 0.4),
                         p=real_profile(0.2, 0.2), a=real_profile(pg, pg),
                         q=ParameterProfile.constant(math.sqrt(0.96)),
                         b=ParameterProfile.constant(math.sqrt(1 - pg * pg)))


def test_constructed_tie_is_reported_not_fredholm():
    ok, (dm, dp) = is_fredholm(*endpoints(tie_params()))
    assert not ok
    assert dm.tie and dp.tie


def test_small_p_large_a_is_fredholm_index_zero():
    params = ModelParamsUm(m=2, gamma=real_profile(0.3, 0.3),
                           p=real_profile(0.1, 0.1), a=real_profile(0.8, 0.8),
                           q=ParameterProfile.constant(math.sqrt(0.99)),
                           b=ParameterProfile.constant(0.6))
    minus, plus = endpoints(params)
    ok, _ = is_fredholm(minus, plus)
    assert ok
    assert witten_index_analytic(minus, plus, params.m) == 0


# ---------------------------------------------------------------------------
# the closed-form index
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 3, -1, -3])
def test_reference_index_is_twice_the_step(m):
    minus, plus = endpoints(reference_params(m=m))
    assert witten_index_analytic(minus, plus, m) == 2 * m


def test_index_raises_on_tie():
    minus, plus = endpoints(tie_params())
    with pytest.raises(NotFredholmError):
        witten_index_analytic(minus, plus, 1)


# ---------------------------------------------------------------------------
# windings
# ---------------------------------------------------------------------------

def test_analytic_winding_of_the_reference_symbol():
    for m in (1, 2, -2):
        params = reference_params(m=m)
        plus = AsymptoticData.from_params(params, PLUS_INF)
        sym = SymbolFunction.from_asymptotics(plus, m)
        assert winding_analytic(sym) == m
        minus = AsymptoticData.from_params(params, MINUS_INF)
        assert winding_analytic(SymbolFunction.from_asymptotics(minus, m)) == -m
        # p -> -1 at -inf (leading = 0) and p -> +1 at +inf (trailing = 0), both
        # with q = 0 and so c = 0; and a = 0 (c = 0) with the reference p
        tails = ModelParamsUm(m=m, gamma=params.gamma, p=real_profile(-1.0, 1.0), a=params.a,
                              q=ParameterProfile.constant(0.0), b=params.b)
        no_a = ModelParamsUm(m=m, gamma=params.gamma, p=params.p, a=real_profile(0.0, 0.0),
                             q=params.q, b=ParameterProfile.constant(1.0))
        for other in (tails, no_a):
            syms = symbols_from_block(other)
            assert syms[MINUS_INF].c == syms[PLUS_INF].c == 0.0
            assert winding_analytic(syms[MINUS_INF]) == -m
            assert winding_analytic(syms[PLUS_INF]) == m
        assert symbols_from_block(tails)[MINUS_INF].leading == 0
        assert symbols_from_block(tails)[PLUS_INF].trailing == 0


def test_analytic_winding_degenerate_segment_case():
    # p = 0 makes the symbol a vertical segment; non-zero centre => winding 0
    params = ModelParamsUm(m=1, gamma=real_profile(0, 0),
                           p=real_profile(0, 0), a=real_profile(0.6, 0.6),
                           q=ParameterProfile.constant(1.0),
                           b=ParameterProfile.constant(0.8))
    plus = AsymptoticData.from_params(params, PLUS_INF)
    sym = SymbolFunction.from_asymptotics(plus, 1)
    assert abs(sym.c) > 0
    assert winding_analytic(sym) == 0


def test_analytic_winding_outside_the_ellipse():
    minus, plus = endpoints(ModelParamsUm(
        m=1, gamma=real_profile(0.1, 0.1),
        p=real_profile(0.1, 0.1), a=real_profile(0.9, 0.9),
        q=ParameterProfile.constant(math.sqrt(0.99)),
        b=ParameterProfile.constant(math.sqrt(0.19))))
    sym = SymbolFunction.from_asymptotics(plus, 1)
    assert abs(plus.p * plus.b) < abs(sym.c)
    assert winding_analytic(sym) == 0


def test_analytic_winding_rejects_a_vanishing_symbol():
    plus = AsymptoticData.from_params(tie_params(), PLUS_INF)
    sym = SymbolFunction.from_asymptotics(plus, 1)
    values = sym.evaluate(np.exp(1j * np.linspace(0, 2 * np.pi, 4096)))
    assert np.min(np.abs(values)) < 1e-8        # it really does vanish
    with pytest.raises(NotFredholmError):
        winding_analytic(sym)
    # every coefficient 0: the symbol vanishes identically
    with pytest.raises(NotFredholmError, match="vanishes identically"):
        winding_analytic(SymbolFunction(star=PLUS_INF, m=1, c=0.0, leading=0j, trailing=0j))


def test_numeric_winding_constant_symbol():
    # b = 0: leading = trailing = 0, and the symbol is the constant 2c / 2i
    sym = SymbolFunction(star=PLUS_INF, m=1, c=0.7, leading=0.0, trailing=0.0)
    assert winding_numeric(sym) == 0
    assert winding_analytic(sym) == 0


@pytest.mark.parametrize("m", [1, 2, 3, -1, -2, -3])
def test_numeric_winding_of_a_monomial(m):
    # leading = -2i turns the symbol into exactly z^m, trailing = -2i into z^-m
    sym = SymbolFunction(star=PLUS_INF, m=m, c=0.0, leading=-2.0j, trailing=0.0)
    z = np.exp(1j * np.linspace(0.1, 0.7, 5))
    assert np.max(np.abs(sym.evaluate(z) - z ** m)) < 1e-15
    assert winding_numeric(sym) == winding_analytic(sym) == m
    inverse = SymbolFunction(star=PLUS_INF, m=m, c=0.0, leading=0.0, trailing=-2.0j)
    assert np.max(np.abs(inverse.evaluate(z) - z ** -m)) < 1e-15
    assert winding_numeric(inverse) == winding_analytic(inverse) == -m


def test_numeric_winding_refuses_near_zero_symbols():
    plus = AsymptoticData.from_params(tie_params(), PLUS_INF)
    sym = SymbolFunction.from_asymptotics(plus, 1)
    with pytest.raises(SymbolNearZeroError):
        winding_numeric(sym)


def test_numeric_winding_agrees_with_the_analytic_route():
    rng = np.random.default_rng(31)
    draws = [random_fredholm_params(rng) for _ in range(60)]
    # near ties: margins down to 1e-10 at one end, a p = +-1 tail at the other
    for _ in range(30):
        margin = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-10.0, -2.0)
        other = (rng.choice([-1.0, 1.0]), rng.uniform(-0.8, 0.8), rng.uniform(-0.9, 0.9))
        draws.append(near_boundary_params(
            int(rng.choice([-3, -2, -1, 1, 2, 3])), margin,
            rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 0.85), rng.uniform(-0.6, 0.6),
            rng.choice([-1.0, 1.0]), bool(rng.integers(2)), other, tuple(rng.uniform(0, 6.28, 4))))
    for params in draws:
        syms = symbols_from_block(params)
        for star in (MINUS_INF, PLUS_INF):
            assert winding_numeric(syms[star]) == winding_analytic(syms[star])


# ---------------------------------------------------------------------------
# the combined report
# ---------------------------------------------------------------------------

def test_reference_report_all_routes():
    report = compute_index(reference_params(m=2))
    assert report.fredholm
    assert report.analytic_index == 4
    assert (report.wn_minus, report.wn_plus) == (-2, 2)
    assert (report.wn_minus_num, report.wn_plus_num) == (-2, 2)


def test_plain_coin_walk_has_index_zero():
    # p = 0 with a bounded away from zero: both windings vanish
    params = ModelParamsUm(m=1, gamma=real_profile(0, 0),
                           p=real_profile(0, 0), a=real_profile(0.6, 0.6),
                           q=ParameterProfile.constant(1.0),
                           b=ParameterProfile(0.8 * np.exp(0.3j), 0.8 * np.exp(1.1j)))
    report = compute_index(params)
    assert report.fredholm
    assert report.analytic_index == 0
    assert report.wn_minus == report.wn_plus == 0


def test_non_fredholm_report_is_flagged_with_absent_index():
    report = compute_index(tie_params())
    assert not report.fredholm
    assert report.analytic_index is None
    assert report.wn_minus is None and report.wn_plus_num is None


def test_symbols_from_block_match_the_closed_form():
    rng = np.random.default_rng(32)
    for _ in range(20):
        params = random_um_params(rng)
        syms = symbols_from_block(params)
        z = np.exp(1j * np.linspace(0.0, 2 * np.pi, 37))
        for star in (MINUS_INF, PLUS_INF):
            asym = AsymptoticData.from_params(params, star)
            closed = SymbolFunction.from_asymptotics(asym, params.m)
            assert np.max(np.abs(syms[star].evaluate(z) - closed.evaluate(z))) < 1e-12


def test_index_ignores_finite_overrides():
    rng = np.random.default_rng(33)
    base = reference_params(m=2)
    report = compute_index(base)
    for _ in range(5):
        gamma = ParameterProfile(0.4, 0.4, {int(s): rng.uniform(-1, 1)
                                            for s in rng.integers(-6, 7, size=3)})
        p_sites = {int(s): rng.uniform(-0.9, 0.9) for s in rng.integers(-6, 7, size=3)}
        p = ParameterProfile(-0.2, 0.2, p_sites)
        q = ParameterProfile(math.sqrt(0.96), math.sqrt(0.96),
                             {x: math.sqrt(1 - v * v) * np.exp(1j * rng.uniform(0, 6))
                              for x, v in p_sites.items()})
        perturbed = ModelParamsUm(m=2, gamma=gamma, p=p, a=base.a, q=q, b=base.b)
        other = compute_index(perturbed)
        assert other.analytic_index == report.analytic_index
        assert (other.wn_minus, other.wn_plus) == (report.wn_minus, report.wn_plus)


def test_index_is_invariant_under_phase_reassignment():
    rng = np.random.default_rng(34)
    # q vanishes at two sites and on the right tail: those phases are free
    p = ParameterProfile(0.3, 1.0, {0: 1.0, 2: -1.0})
    q = ParameterProfile(math.sqrt(0.91) * np.exp(0.5j), 0.0, {0: 0.0, 2: 0.0})
    params = ModelParamsUm(m=1, gamma=real_profile(0.25, 0.25), p=p,
                           a=real_profile(0.5, 0.5),
                           q=q, b=ParameterProfile.constant(math.sqrt(0.75)))
    base = compute_index(params)
    assert base.fredholm
    theta = default_phase(params.q)
    for _ in range(6):
        overrides = dict(theta.overrides)
        for x, v in params.q.overrides.items():
            if v == 0:
                overrides[x] = rng.uniform(0, 2 * np.pi)
        alt = ParameterProfile(theta.left_limit, rng.uniform(0, 2 * np.pi),
                               overrides)
        other = compute_index(params, phase=alt)
        assert other.analytic_index == base.analytic_index
        assert (other.wn_minus_num, other.wn_plus_num) == (base.wn_minus_num, base.wn_plus_num)


# ---------------------------------------------------------------------------
# the numeric winding near the Fredholm boundary
# ---------------------------------------------------------------------------

def near_boundary_params(m, margin, p, gamma, a_sign=1.0, at_plus=True,
                         other=(-0.2, 0.4, 0.1), phases=(0.0, 0.0, 0.0, 0.0)):
    """um params whose endpoint margin |p_gamma| - |a| is ``margin`` at one end.

    ``a`` is solved from p and gamma; ``other`` is (p, gamma, a) at the
    opposite endpoint and ``phases`` are the phases of q and b at -inf and
    +inf.
    """
    near = (p, gamma, a_sign * (closed_p_gamma(p, gamma) - margin))
    (p0, g0, a0), (p1, g1, a1) = (other, near) if at_plus else (near, other)

    def partner(u0, u1, phase0, phase1):
        return ParameterProfile(math.sqrt(1.0 - u0 * u0) * np.exp(1j * phase0),
                                math.sqrt(1.0 - u1 * u1) * np.exp(1j * phase1))

    return ModelParamsUm(m=m, gamma=real_profile(g0, g1), p=real_profile(p0, p1),
                         a=real_profile(a0, a1),
                         q=partner(p0, p1, phases[0], phases[2]),
                         b=partner(a0, a1, phases[1], phases[3]))


def branch_index(m, minus, plus):
    """Closed-form index from ``(margin, p)`` at each endpoint."""
    (margin_minus, p_minus), (margin_plus, p_plus) = minus, plus
    above_minus, above_plus = margin_minus > 0, margin_plus > 0
    if above_minus and above_plus:
        return m * (sgn(p_plus) - sgn(p_minus))
    if above_plus:
        return m * sgn(p_plus)
    if above_minus:
        return -m * sgn(p_minus)
    return 0


unit = st.sampled_from([-1.0, 1.0])


# |p| in [0.2, 0.85] and |gamma| <= 0.6 keep |a| = |p_gamma| - margin inside
# (0, 0.95] for |margin| <= 0.1, and there min |f| > 1.01 |margin| (1.02 near
# the tie), so a margin just above the tie tolerance clears the roundoff guard
# (1e3 eps times the symbol's scale) by orders of magnitude.
@settings(derandomize=True, deadline=None, max_examples=200)
@given(m=st.sampled_from([-3, -2, -1, 1, 2, 3]), decade=st.floats(-9.9, -1.0),
       margin_sign=unit, p=st.floats(0.2, 0.85), p_sign=unit, gamma=st.floats(-0.6, 0.6),
       a_sign=unit, at_plus=st.booleans(),
       other_p=st.floats(-0.95, 0.95), other_gamma=st.floats(-0.8, 0.8),
       other_width=st.floats(0.05, 0.45), other_sign=unit, other_a_sign=unit,
       phases=st.tuples(*[st.floats(0.0, 2.0 * math.pi)] * 4))
def test_numeric_winding_is_certified_near_the_fredholm_boundary(
        m, decade, margin_sign, p, p_sign, gamma, a_sign, at_plus,
        other_p, other_gamma, other_width, other_sign, other_a_sign, phases):
    margin = margin_sign * 10.0 ** decade
    other_pg = closed_p_gamma(other_p, other_gamma)
    other_margin = other_sign * other_width
    if not 0.0 <= other_pg - other_margin <= 0.95:
        other_margin = -other_margin
    other = (other_p, other_gamma, other_a_sign * (other_pg - other_margin))
    params = near_boundary_params(m, margin, p_sign * p, gamma, a_sign, at_plus, other, phases)
    near, far = (margin, p_sign * p), (other_margin, other_p)
    expected = branch_index(m, *((far, near) if at_plus else (near, far)))
    report = compute_index(params)
    assert report.fredholm
    assert report.analytic_index == expected
    assert report.wn_plus_num - report.wn_minus_num == expected


def test_numeric_winding_near_the_boundary_evaluates_few_points(monkeypatch):
    evaluated = []
    evaluate = SymbolFunction.evaluate

    def counting(self, z):
        evaluated.append(np.size(z))
        return evaluate(self, z)

    monkeypatch.setattr(SymbolFunction, "evaluate", counting)
    for m in (1, 2, 3, -1, -2, -3):
        report = compute_index(near_boundary_params(m, 1e-6, 0.5, 0.3))
        assert report.analytic_index == m * 2
    assert sum(evaluated) < 20_000


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("gamma", [0.0, 0.4, 3.0])
def test_every_margin_above_the_tie_gets_the_closed_form_index(m, gamma):
    # min |f| is 1.15 to 1.37 times these margins at gamma 0 and 0.4; an
    # absolute guard at |f| <= 1e-8 refused them all there
    for margin in (1.1e-10, 2e-10, 3e-10, 5e-10, 1e-9, 2e-9, 3e-9):
        params = near_boundary_params(m, margin, 0.5, gamma)
        assert compute_index(params).analytic_index == 2 * m


def test_numeric_winding_refuses_within_the_guard():
    # f = z - i c traces the unit circle about -i c, so min |f| = c - 1 at z = i
    # (t = pi / 2, a grid point), and the symbol's scale is 2 + 2c
    def circle(distance):
        return SymbolFunction(star=PLUS_INF, m=1, c=1.0 + distance, leading=-2.0j, trailing=0.0)

    guard = chiralwalk.index.ROUNDOFF_GUARD * np.finfo(float).eps * 4.0
    with pytest.raises(SymbolNearZeroError, match=r"min \|f\| = .* is roundoff"):
        winding_numeric(circle(0.5 * guard))
    assert winding_numeric(circle(2.0 * guard)) == 0
    assert winding_numeric(circle(-2.0 * guard)) == 1


def um_config(params):
    """JSON config of an um instance without overrides."""
    def node(profile):
        return {side: [value.real, value.imag]
                for side, value in (("left", complex(profile.left_limit)),
                                    ("right", complex(profile.right_limit)))}

    names = ("gamma", "p", "a", "q", "b")
    return {"model": "um", "m": params.m,
            "profiles": {name: node(getattr(params, name)) for name in names}}


def test_index_command_refusal_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    # margin 1e-9 needs bisection beyond the first grid of 64 (|m| + 1) = 128 samples
    monkeypatch.setattr(chiralwalk.index, "MAX_SAMPLES", 128)
    path = tmp_path / "near.json"
    document = um_config(near_boundary_params(1, 1e-9, 0.5, 0.3))
    path.write_text(json.dumps(document), encoding="utf-8")
    assert main(["index", str(path)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0] == "error: certifying the winding needs more than 128 samples"


def test_index_command_route_disagreement_exits_3_with_one_line(monkeypatch, capsys):
    config = str(Path(__file__).resolve().parent.parent / "configs" / "reference_um_m1.json")
    monkeypatch.setattr(chiralwalk.index, "winding_numeric", lambda sym: 7)
    assert main(["index", config]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: index routes disagree")
