import math

import numpy as np
import pytest

from chiralwalk import (
    BandedOperator,
    InvalidParameters,
    ModelParamsMko,
    ModelParamsUm,
    coin,
    default_phase,
    grading,
    grading_eigenbasis,
    mko_grading,
    mko_to_um,
    mko_walk,
    offdiag_block,
    walk,
)
from chiralwalk.models import (M_LIMIT, MAX_SAMPLES, NORMALIZATION_TOL, check_phase,
                               coin_profiles)
from chiralwalk.index import symbols_from_block
from chiralwalk.profiles import STARS, ParameterProfile

from conftest import (random_fredholm_params, random_mko_params, random_um_params, real_profile,
                      rows_within)

DIAG_PM1 = BandedOperator.multiplication([[1.0, None], [None, -1.0]])
ZERO2 = BandedOperator(2, {})


def interior_unitarity_residual(op, window):
    sec = op.finite_section(window)
    diff = sec.matrix.conj().T @ sec.matrix - np.eye(len(sec.matrix))
    rows = rows_within(sec, 2 * op.bandwidth)
    return np.max(np.abs(diff[np.ix_(rows, rows)]))


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_rejects_zero_step():
    with pytest.raises(InvalidParameters):
        ModelParamsUm(m=0, gamma=real_profile(0, 0), p=real_profile(0, 0),
                      a=real_profile(0, 0), q=ParameterProfile.constant(1.0),
                      b=ParameterProfile.constant(1.0))


@pytest.mark.parametrize("m", [M_LIMIT + 1, -(M_LIMIT + 1), 10 ** 12, 10 ** 30])
def test_rejects_a_step_beyond_the_winding_sample_cap(m):
    # a range error like an overflowing gain, not a model constraint that
    # verify would report as a normalization FAIL
    with pytest.raises(ValueError, match=f"m = {m} out of range") as info:
        ModelParamsUm(m=m, gamma=real_profile(0.4, 0.4), p=real_profile(-0.2, 0.2),
                      a=real_profile(-0.1, 0.1), q=ParameterProfile.constant(math.sqrt(0.96)),
                      b=ParameterProfile.constant(math.sqrt(0.99)))
    assert not isinstance(info.value, InvalidParameters)


def test_the_step_limit_fits_the_winding_grid():
    # winding_numeric starts from 64 (|m| + 1) samples
    assert M_LIMIT == 16383 and 64 * (M_LIMIT + 1) == MAX_SAMPLES == 1 << 20
    assert ModelParamsUm(m=-M_LIMIT, gamma=real_profile(0, 0), p=real_profile(0, 0),
                         a=real_profile(0, 0), q=ParameterProfile.constant(1.0),
                         b=ParameterProfile.constant(1.0)).m == -M_LIMIT


def test_rejects_broken_normalization():
    with pytest.raises(InvalidParameters):
        ModelParamsUm(m=1, gamma=real_profile(0, 0),
                      p=real_profile(0.6, 0.6), a=real_profile(0, 0),
                      q=ParameterProfile.constant(0.9),     # 0.36 + 0.81 != 1
                      b=ParameterProfile.constant(1.0))


def test_rejects_complex_gain():
    with pytest.raises(InvalidParameters):
        ModelParamsUm(m=1, gamma=ParameterProfile.constant(0.1j),
                      p=real_profile(0, 0), a=real_profile(0, 0),
                      q=ParameterProfile.constant(1.0),
                      b=ParameterProfile.constant(1.0))


@pytest.mark.parametrize("name", ["gamma", "p", "a"])
def test_rejects_an_imaginary_part_only_in_an_override(name):
    fields = dict(gamma=real_profile(0.2, 0.2), p=real_profile(0.6, 0.6),
                  a=real_profile(0.6, 0.6), q=ParameterProfile.constant(0.8),
                  b=ParameterProfile.constant(0.8))
    limit = fields[name].left_limit
    fields[name] = ParameterProfile(limit, limit, {3: limit + 1e-9j})
    with pytest.raises(InvalidParameters, match=f"profile {name} must be real-valued"):
        ModelParamsUm(m=1, **fields)


def test_rejects_a_complex_phi_override():
    with pytest.raises(InvalidParameters, match="profile phi must be real-valued"):
        ModelParamsMko(gamma=real_profile(0.4, 0.4),
                       phi=ParameterProfile(0.15, 0.15, {0: 0.15 + 0.1j}),
                       theta1=real_profile(0.2, -0.2), theta2=real_profile(-0.1, 0.1))


def test_rejects_a_complex_phase_assignment():
    params = random_um_params(np.random.default_rng(3))
    phase = default_phase(params.q) + 1e-3j
    for build in (grading_eigenbasis, offdiag_block, symbols_from_block):
        with pytest.raises(InvalidParameters, match="profile phase must be real-valued"):
            build(params, phase)


# ---------------------------------------------------------------------------
# grading and coin
# ---------------------------------------------------------------------------

def test_grading_collapses_when_q_vanishes():
    params = ModelParamsUm(m=3, gamma=real_profile(0.2, 0.2),
                           p=real_profile(1.0, 1.0), a=real_profile(0.5, 0.5),
                           q=ParameterProfile.constant(0.0),
                           b=ParameterProfile.constant(math.sqrt(0.75)))
    assert grading(params).allclose(DIAG_PM1)


def test_grading_is_a_unitary_involution_at_coefficient_level():
    rng = np.random.default_rng(10)
    for _ in range(10):
        params = random_um_params(rng)
        g = grading(params)
        assert (g @ g).allclose(BandedOperator.identity(2))
        assert g.adjoint().allclose(g)


def test_grading_square_dense_oracle():
    rng = np.random.default_rng(11)
    params = random_um_params(rng)
    g = grading(params)
    sec = g.finite_section(20)
    rows = rows_within(sec, 2 * g.bandwidth)
    diff = sec.matrix @ sec.matrix - np.eye(len(sec.matrix))
    assert np.max(np.abs(diff[rows])) < 1e-12
    assert np.max(np.abs(sec.matrix - sec.matrix.conj().T)) < 1e-12


def test_coin_without_gain_is_the_plain_unitary_coin():
    rng = np.random.default_rng(12)
    params = random_um_params(rng, gamma_zero=True)
    c = coin(params)
    expected = BandedOperator.multiplication([
        [params.a, params.b.conj()], [params.b, -params.a],
    ])
    assert c.allclose(expected)
    assert interior_unitarity_residual(c, 12) < 1e-12


def test_coin_gain_entry_value():
    # constant gain 0.4 and a = 0.1: lower-right entry is -0.1 * e^{0.8}
    params = ModelParamsUm(m=1, gamma=real_profile(0.4, 0.4),
                           p=real_profile(0.3, 0.3), a=real_profile(0.1, 0.1),
                           q=ParameterProfile.constant(math.sqrt(0.91)),
                           b=ParameterProfile.constant(math.sqrt(0.99)))
    entry = coin(params).coefficient(1, 1, 0)
    assert abs(entry.value(5) - (-0.2225540928492468)) < 1e-15
    assert abs(entry.value(5) - (-0.1 * math.exp(0.8))) < 1e-15


def test_coin_is_self_adjoint():
    rng = np.random.default_rng(13)
    params = random_um_params(rng)
    c = coin(params)
    assert c.adjoint().allclose(c)
    sec = c.finite_section(8).matrix
    assert np.max(np.abs(sec - sec.conj().T)) < 1e-12


# ---------------------------------------------------------------------------
# the walk operator
# ---------------------------------------------------------------------------

def expanded_walk(params):
    """Hand-built expanded block form of the walk, as an independent oracle."""
    m = params.m
    p, q = params.p, params.q
    alpha1, beta, alpha2 = coin_profiles(params.gamma, params.a, params.b)
    qc = q.conj().shifted(-m)
    pm = params.p.shifted(-m)
    return BandedOperator(2, {
        (0, 0, 0): p * alpha1,
        (0, 0, m): q * beta.shifted(m),
        (0, 1, 0): p * beta.conj(),
        (0, 1, m): q * alpha2.shifted(m),
        (1, 0, -m): qc * alpha1.shifted(-m),
        (1, 0, 0): -(pm * beta),
        (1, 1, -m): qc * beta.conj().shifted(-m),
        (1, 1, 0): -(pm * alpha2),
    })


def test_walk_matches_expanded_block_form():
    rng = np.random.default_rng(14)
    for _ in range(6):
        params = random_um_params(rng)
        assert walk(params).allclose(expanded_walk(params), tol=1e-13)


def test_chiral_relation_at_coefficient_level():
    rng = np.random.default_rng(15)
    for _ in range(10):
        params = random_um_params(rng)
        u = walk(params)
        g = grading(params)
        assert u.adjoint().allclose(g @ u @ g)


def test_real_part_commutes_imaginary_part_anticommutes():
    rng = np.random.default_rng(16)
    params = random_um_params(rng)
    u = walk(params)
    g = grading(params)
    r = (u + u.adjoint()).scaled(0.5)
    q = (u - u.adjoint()).scaled(1.0 / 2.0j)
    assert (g @ r - r @ g).allclose(ZERO2)
    assert (g @ q + q @ g).allclose(ZERO2)


def test_walk_unitary_exactly_when_gain_vanishes():
    rng = np.random.default_rng(17)
    unitary = random_um_params(rng, gamma_zero=True)
    assert interior_unitarity_residual(walk(unitary), 4 * abs(unitary.m) + 8) < 1e-12
    gained = ModelParamsUm(m=unitary.m, gamma=real_profile(0.3, 0.3),
                           p=unitary.p, a=unitary.a, q=unitary.q, b=unitary.b)
    assert interior_unitarity_residual(walk(gained), 4 * abs(gained.m) + 8) > 1e-3


# ---------------------------------------------------------------------------
# grading eigenbasis and the off-diagonal block
# ---------------------------------------------------------------------------

def test_eigenbasis_hadamard_case():
    params = ModelParamsUm(m=1, gamma=real_profile(0, 0),
                           p=real_profile(0, 0), a=real_profile(0.5, 0.5),
                           q=ParameterProfile.constant(1.0),
                           b=ParameterProfile.constant(math.sqrt(0.75)))
    eps = grading_eigenbasis(params)
    s = 1.0 / math.sqrt(2.0)
    # block rotation is the constant matrix [[s, -s], [s, s]]; the lower row
    # sits at offset -m because of the shift twist
    assert abs(eps.coefficient(0, 0, 0).value(0) - s) < 1e-15
    assert abs(eps.coefficient(0, 1, 0).value(0) + s) < 1e-15
    assert abs(eps.coefficient(1, 0, -1).value(0) - s) < 1e-15
    assert abs(eps.coefficient(1, 1, -1).value(0) - s) < 1e-15


def test_eigenbasis_diagonalises_the_grading_exactly():
    rng = np.random.default_rng(18)
    for _ in range(8):
        params = random_um_params(rng)
        eps = grading_eigenbasis(params)
        assert (eps.adjoint() @ grading(params) @ eps).allclose(DIAG_PM1)


def test_eigenbasis_is_unitary_on_interiors():
    rng = np.random.default_rng(19)
    params = random_um_params(rng)
    assert interior_unitarity_residual(grading_eigenbasis(params),
                                       4 * abs(params.m) + 10) < 1e-12


def test_offdiag_block_reproduces_the_conjugated_imaginary_part():
    rng = np.random.default_rng(20)
    for _ in range(6):
        params = random_um_params(rng)
        u = walk(params)
        q_part = (u - u.adjoint()).scaled(1.0 / 2.0j)
        eps = grading_eigenbasis(params)
        conjugated = eps.adjoint() @ q_part @ eps
        block = offdiag_block(params)
        expected = {(0, 0): BandedOperator(1, {}), (1, 1): BandedOperator(1, {}),
                    (1, 0): block, (0, 1): block.adjoint()}
        for (i, j), part in expected.items():
            scalar = BandedOperator(1, {(0, 0, y): prof for (bi, bj, y), prof
                                        in conjugated.coeff.items() if (bi, bj) == (i, j)})
            assert scalar.allclose(part)


def test_offdiag_block_no_gain_substitution():
    # gain 0, p = 0, q = 1, m = 1: -2i Q = L b - b* L^{-1} - (a - (-a)(.+1))
    av = 0.3
    bv = math.sqrt(1 - av * av)
    params = ModelParamsUm(m=1, gamma=real_profile(0, 0),
                           p=real_profile(0, 0), a=real_profile(av, av),
                           q=ParameterProfile.constant(1.0),
                           b=ParameterProfile.constant(bv))
    block = offdiag_block(params).scaled(-2.0j)
    assert abs(block.coefficient(0, 0, 1).value(0) - bv) < 1e-15
    assert abs(block.coefficient(0, 0, -1).value(0) + bv) < 1e-15
    assert abs(block.coefficient(0, 0, 0).value(0) + 2 * av) < 1e-15


def test_offdiag_block_is_diagonal_when_coupling_vanishes():
    params = ModelParamsUm(m=2, gamma=real_profile(0.1, 0.1),
                           p=real_profile(0.6, 0.8), a=real_profile(1.0, 1.0),
                           q=ParameterProfile(0.8, 0.6),
                           b=ParameterProfile.constant(0.0))
    block = offdiag_block(params)
    assert set(y for (_, _, y) in block.coeff) == {0}


def test_phase_assignment_validation():
    rng = np.random.default_rng(21)
    params = random_um_params(rng)
    check_phase(params.q, default_phase(params.q))
    with pytest.raises(InvalidParameters):
        grading_eigenbasis(params, phase=real_profile(1.234, 1.234))


# ---------------------------------------------------------------------------
# endpoint symbols of the block
# ---------------------------------------------------------------------------

def _symbol_values(syms):
    """(c, leading, trailing) of every endpoint symbol as a complex array."""
    return np.array([[s.c, s.leading, s.trailing] for s in syms.values()], dtype=complex)


def test_symbols_are_the_block_limits_for_interior_p_limits():
    rng = np.random.default_rng(22)
    params = random_um_params(rng)          # |p| < 0.95 < 1 at both ends
    block = offdiag_block(params)
    m = params.m
    for star, sym in symbols_from_block(params).items():
        assert sym.leading == -2j * block.coefficient(0, 0, m).limit(star)
        assert sym.trailing == -2j * block.coefficient(0, 0, -m).limit(star)
        assert -2.0 * sym.c == (-2j * block.coefficient(0, 0, 0).limit(star)).real


def _extreme_p_params(sign_right):
    # p -> 0.6 on the left, +-1 on the right (so q -> 0 on the right)
    p = real_profile(0.6, sign_right * 1.0)
    q = ParameterProfile(0.8 * np.exp(0.4j), 0.0)
    return ModelParamsUm(m=1, gamma=real_profile(0.2, 0.2), p=p,
                         a=real_profile(0.5, 0.5),
                         q=q, b=ParameterProfile.constant(math.sqrt(0.75)))


def test_endpoint_angles_default_to_zero_where_the_value_vanishes():
    params = _extreme_p_params(+1)
    from chiralwalk import AsymptoticData
    plus = AsymptoticData.from_params(params, "+inf")
    assert plus.q == 0 and plus.theta == 0.0
    minus = AsymptoticData.from_params(params, "-inf")
    assert abs(minus.theta - 0.4) < 1e-15      # arg of 0.8 e^{0.4i}


@pytest.mark.parametrize("sign_right", [+1, -1])
def test_symbols_ignore_the_phase_on_a_q_zero_side(sign_right):
    params = _extreme_p_params(sign_right)
    theta = default_phase(params.q)
    expected = _symbol_values(symbols_from_block(params))
    for angle in (0.3, 2.0, 5.9):
        redrawn = ParameterProfile(theta.left_limit, angle, {0: 1.1, 4: angle + 1.0})
        values = _symbol_values(symbols_from_block(params, redrawn))
        # e^{-i angle} (x e^{i angle}) rounds in the last bit; the vanishing
        # coefficients stay exactly zero
        assert np.array_equal(values == 0, expected == 0)
        assert np.max(np.abs(values - expected)) <= 4 * np.finfo(float).eps


def test_block_symbols_match_the_closed_forms():
    rng = np.random.default_rng(23)
    cases = [random_um_params(rng), _extreme_p_params(+1), _extreme_p_params(-1)]
    for params in cases:
        syms = symbols_from_block(params)
        for star in STARS:
            p = params.p.limit(star).real
            a = params.a.limit(star).real
            g = params.gamma.limit(star).real
            q = params.q.limit(star)
            b = params.b.limit(star)
            theta = np.angle(q) % (2 * np.pi) if q != 0 else 0.0
            lead = (1 + p) * b * np.exp(1j * theta)
            trail = (1 - p) * np.conj(b) * np.exp(-1j * theta)
            const = abs(q) * a * math.cosh(2 * g)
            assert abs(syms[star].leading - lead) < 1e-12
            assert abs(syms[star].trailing + trail) < 1e-12
            assert abs(syms[star].c - const) < 1e-12


def _rephased_block_reference(params, theta):
    """-2i times the block between multiplications by repair phases, composed with ``@``.

    The left phase copies ``theta`` on each half line whose p-limit is +1 and
    vanishes elsewhere; the right phase does the same where the p-limit is -1.
    """
    def repair(want):
        take = {star: abs(params.p.limit(star).real - want) <= NORMALIZATION_TOL for star in STARS}
        return ParameterProfile(
            theta.left_limit if take["-inf"] else 0.0,
            theta.right_limit if take["+inf"] else 0.0,
            {x: v if take["-inf" if x < 0 else "+inf"] else 0.0 for x, v in theta.overrides.items()},
        )

    left = BandedOperator.multiplication([[repair(+1.0).cis(-1)]])
    right = BandedOperator.multiplication([[repair(-1.0).cis(+1)]])
    return left @ offdiag_block(params, theta).scaled(-2.0j) @ right


def _tail_params(rng, p_left, p_right):
    """Random m-step params with the given p-limits; q = 0 on a side where |p| = 1."""
    m = int(rng.choice([-3, -2, -1, 1, 2, 3]))
    sites = {int(x): rng.uniform(-0.9, 0.9) for x in rng.integers(-4, 5, size=2)}
    p = ParameterProfile(p_left, p_right, sites)
    q = ParameterProfile(
        *(math.sqrt(1 - v * v) * np.exp(1j * rng.uniform(0, 2 * np.pi)) for v in (p_left, p_right)),
        {x: math.sqrt(1 - v * v) * np.exp(1j * rng.uniform(0, 2 * np.pi)) for x, v in sites.items()},
    )
    a = real_profile(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
    b = ParameterProfile(*(math.sqrt(1 - v * v) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                           for v in (a.left_limit.real, a.right_limit.real)))
    gamma = real_profile(rng.uniform(-1, 1), rng.uniform(-1, 1), {1: rng.uniform(-1, 1)})
    return ModelParamsUm(m=m, gamma=gamma, p=p, a=a, q=q, b=b)


def test_block_symbols_equal_the_rephased_block_limits_bit_for_bit():
    rng = np.random.default_rng(29)
    cases = [(random_fredholm_params(rng), None) for _ in range(10)]
    for p_left, p_right in [(1.0, 0.3), (-1.0, -0.5), (0.2, 1.0), (0.7, -1.0), (1.0, -1.0),
                            (-1.0, 1.0), (1.0, 1.0), (-1.0, -1.0)]:
        for _ in range(2):
            params = _tail_params(rng, p_left, p_right)
            theta = default_phase(params.q)
            redrawn = ParameterProfile(
                rng.uniform(0, 2 * np.pi) if params.q.left_limit == 0 else theta.left_limit,
                rng.uniform(0, 2 * np.pi) if params.q.right_limit == 0 else theta.right_limit,
                {x: theta.value(x) for x in params.q.overrides},
            )
            cases += [(params, None), (params, redrawn)]
    for params, phase in cases:
        op = _rephased_block_reference(params, default_phase(params.q) if phase is None else phase)
        m = params.m
        expected = np.array([
            [(-op.coefficient(0, 0, 0).limit(star) / 2.0).real,
             op.coefficient(0, 0, m).limit(star), op.coefficient(0, 0, -m).limit(star)]
            for star in STARS
        ], dtype=complex).tobytes()
        assert _symbol_values(symbols_from_block(params, phase)).tobytes() == expected


# ---------------------------------------------------------------------------
# the two-step gain/loss model
# ---------------------------------------------------------------------------

def test_trivial_two_step_model_is_a_double_shift():
    zero = real_profile(0, 0)
    params = ModelParamsMko(gamma=zero, phi=zero, theta1=zero, theta2=zero)
    expected = BandedOperator(2, {(0, 0, 2): 1.0, (1, 1, -2): 1.0})
    assert mko_walk(params).allclose(expected)


def test_two_step_walk_is_unitary_without_gain():
    rng = np.random.default_rng(24)
    params = random_mko_params(rng)
    zeroed = ModelParamsMko(gamma=real_profile(0, 0), phi=params.phi,
                            theta1=params.theta1, theta2=params.theta2)
    assert interior_unitarity_residual(mko_walk(zeroed), 20) < 1e-12


def test_reduction_profiles_satisfy_the_normalizations():
    rng = np.random.default_rng(25)
    params = random_mko_params(rng)
    um, _ = mko_to_um(params)           # construction validates both constraints
    assert um.m == 2
    for x in range(-6, 7):
        assert abs(um.p.value(x).real ** 2 + abs(um.q.value(x)) ** 2 - 1) < 1e-14
        assert abs(um.a.value(x).real ** 2 + abs(um.b.value(x)) ** 2 - 1) < 1e-14


def test_conjugator_is_unitary():
    rng = np.random.default_rng(26)
    _, eta = mko_to_um(random_mko_params(rng))
    assert interior_unitarity_residual(eta, 12) < 1e-12


def test_two_step_reduction_dense_oracle():
    rng = np.random.default_rng(27)
    for _ in range(5):
        params = random_mko_params(rng)
        um, eta = mko_to_um(params)
        window = 30
        walk_sec = mko_walk(params).finite_section(window)
        s_eta = eta.finite_section(window).matrix
        s_eta_adj = eta.adjoint().finite_section(window).matrix
        reduced = walk(um).finite_section(window).matrix
        diff = s_eta_adj @ walk_sec.matrix @ s_eta - reduced
        rows = rows_within(walk_sec, 2 * eta.bandwidth + mko_walk(params).bandwidth)
        assert np.max(np.abs(diff[rows])) < 1e-12


def test_transported_grading_forms_a_chiral_pair():
    rng = np.random.default_rng(28)
    params = random_mko_params(rng)
    g = mko_grading(params)
    u = mko_walk(params)
    assert (g @ g).allclose(BandedOperator.identity(2))
    assert g.adjoint().allclose(g)
    assert u.adjoint().allclose(g @ u @ g)
