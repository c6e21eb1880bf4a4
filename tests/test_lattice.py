import numpy as np
import pytest

from chiralwalk.lattice import BandedOperator, compose, finite_section, section_triplets
from chiralwalk.models import grading, mko_grading, mko_to_um, mko_walk, walk
from chiralwalk.profiles import ParameterProfile

from conftest import random_operator, reference_mko_params, reference_params, rows_within


def test_scalar_coefficients_coerce_to_constant_profiles():
    assert BandedOperator(1, {(0, 0, 0): 2.0}).coefficient(0, 0, 0) == ParameterProfile.constant(2.0)
    assert BandedOperator(1, {}).coefficient(0, 0, 1) == ParameterProfile.constant(0.0)
    op = BandedOperator.multiplication([[0.5j]])
    assert op.coefficient(0, 0, 0) == ParameterProfile.constant(0.5j)


def test_shift_zero_is_identity():
    assert BandedOperator.shift(0).allclose(BandedOperator.identity(1))


def test_shift_moves_delta_to_the_left():
    # (shift^1 psi)(x) = psi(x + 1): a delta at site 0 lands at site -1
    sec = BandedOperator.shift(1).finite_section(2)
    delta = np.zeros(5)
    delta[2] = 1.0            # site 0 in the window [-2, 2]
    moved = sec.matrix @ delta
    assert moved[1] == 1.0 and np.count_nonzero(moved) == 1


def test_shift_superdiagonal_section():
    sec = BandedOperator.shift(1).finite_section(2)
    assert np.array_equal(sec.matrix.real, np.eye(5, k=1))
    assert sec.matrix.shape == (5, 5)


def test_shift_inverse_pair():
    shift, identity = BandedOperator.shift, BandedOperator.identity(1)
    assert compose(shift(1), shift(-1)).allclose(identity)
    assert compose(shift(-3), shift(3)).allclose(identity)


def test_compose_identity_is_neutral():
    rng = np.random.default_rng(1)
    op = random_operator(rng)
    assert compose(BandedOperator.identity(2), op).allclose(op)
    assert compose(op, BandedOperator.identity(2)).allclose(op)


def test_compose_shift_with_multiplication_shifts_the_profile():
    gamma = ParameterProfile(0.3, 0.7, {0: 0.5})
    op = compose(BandedOperator.shift(1), BandedOperator.multiplication([[gamma]]))
    prof = op.coefficient(0, 0, 1)
    for x in range(-4, 4):
        assert prof.value(x) == gamma.value(x + 1)


def test_compose_interior_matches_dense_product():
    rng = np.random.default_rng(2)
    for block_size, bandwidth in ((1, 2), (2, 1), (3, 1)):
        a = random_operator(rng, block_size, bandwidth)
        b = random_operator(rng, block_size, bandwidth)
        ab = compose(a, b)
        n = 8
        sec = finite_section(ab, n)
        dense = finite_section(a, n).matrix @ finite_section(b, n).matrix
        rows = rows_within(sec, a.bandwidth + b.bandwidth)
        assert np.max(np.abs((sec.matrix - dense)[rows])) < 1e-13


def test_compose_bandwidth_bound():
    rng = np.random.default_rng(3)
    a = random_operator(rng, 2, 2)
    b = random_operator(rng, 2, 1)
    assert compose(a, b).bandwidth <= 3


def test_compose_block_size_mismatch():
    with pytest.raises(ValueError):
        compose(BandedOperator.identity(2), BandedOperator.identity(3))


def test_adjoint_of_shift():
    assert BandedOperator.shift(1).adjoint().allclose(BandedOperator.shift(-1))


def test_adjoint_is_an_involution():
    rng = np.random.default_rng(4)
    op = random_operator(rng)
    assert op.adjoint().adjoint().allclose(op, tol=1e-14)


def test_adjoint_section_is_the_conjugate_transpose():
    rng = np.random.default_rng(5)
    op = random_operator(rng, block_size=2, bandwidth=2)
    sec = finite_section(op, 7).matrix
    sec_adj = finite_section(op.adjoint(), 7).matrix
    assert np.max(np.abs(sec_adj - sec.conj().T)) == 0.0


def test_adjoint_antihomomorphism():
    rng = np.random.default_rng(6)
    a = random_operator(rng)
    b = random_operator(rng)
    assert compose(a, b).adjoint().allclose(compose(b.adjoint(), a.adjoint()), tol=1e-12)


def test_eventual_constancy_closed_under_algebra():
    rng = np.random.default_rng(7)
    a = random_operator(rng)
    b = random_operator(rng)
    for op in (compose(a, b), a.adjoint(), a + b, a.scaled(2.0j)):
        assert all(prof.support_radius < 20 for prof in op.coeff.values())


def test_finite_section_identity_and_window_error():
    sec = finite_section(BandedOperator.identity(3), 4)
    assert np.array_equal(sec.matrix, np.eye(27))
    with pytest.raises(ValueError):
        finite_section(BandedOperator.shift(3), 2)


def test_boundary_rows_are_flagged():
    op = BandedOperator.shift(2)
    sec = finite_section(op, 5)
    sites = sec.block_sites()
    assert op.bandwidth == 2
    assert np.array_equal(rows_within(sec, op.bandwidth), np.nonzero(np.abs(sites) <= 3)[0])


def test_sections_vanish_beyond_the_band():
    rng = np.random.default_rng(8)
    op = random_operator(rng, block_size=2, bandwidth=1)
    sec = finite_section(op, 6)
    sites = sec.block_sites()
    beyond = np.abs(sites[:, None] - sites[None, :]) > op.bandwidth
    assert np.all(sec.matrix[beyond] == 0.0)


def loop_section(op, window):
    """Reference assembly: one Python step per coefficient and site."""
    n = op.block_size
    mat = np.zeros((n * (2 * window + 1),) * 2, dtype=complex)
    for (i, j, y), prof in op.coeff.items():
        for x in range(-window, window + 1):
            if -window <= x + y <= window:
                mat[(x + window) * n + i, (x + y + window) * n + j] += prof.value(x)
    return mat


def model_operators():
    um = reference_params(m=2)
    mko = reference_mko_params()
    return {
        "walk": walk(um),
        "grading": grading(um),
        "adjoint": walk(um).adjoint(),
        "mko walk": mko_walk(mko),
        "mko grading": mko_grading(mko),
        "conjugator": mko_to_um(mko)[1],
        "random": random_operator(np.random.default_rng(9), block_size=3, bandwidth=2),
    }


@pytest.mark.parametrize("name", sorted(model_operators()))
def test_sparse_and_dense_sections_match_the_site_loop_bit_for_bit(name):
    # "sparse" is the per-coefficient diagonal layout and its flat triplet view;
    # both are added onto zeros, as the loop adds each value, so -0 reads +0
    op = model_operators()[name]
    n = op.block_size
    for window in (op.bandwidth, 50):
        reference = loop_section(op, window)
        assert finite_section(op, window).matrix.tobytes() == reference.tobytes()
        diagonals = op.section_diagonals(window)
        assert set(diagonals) == set(op.coeff)
        rows = np.arange(2 * window + 1)
        for (i, j, y), diag in diagonals.items():
            inside = (rows + y >= 0) & (rows + y <= 2 * window)
            expected = np.zeros(2 * window + 1, dtype=complex)
            expected[inside] = reference[rows[inside] * n + i, (rows[inside] + y) * n + j]
            assert (0.0 + diag).tobytes() == expected.tobytes()
        r, c, vals = section_triplets(diagonals, n)
        assert len(set(zip(r.tolist(), c.tolist()))) == len(r)
        scattered = np.zeros_like(reference)
        scattered[r, c] += vals
        assert scattered.tobytes() == reference.tobytes()


def test_bandwidth_is_derived_from_the_nonzero_coefficients():
    op = BandedOperator(2, {(0, 1, 3): 1.0, (1, 0, -2): 0.5, (1, 1, 5): 0.0})
    assert op.bandwidth == 3
    assert (op @ BandedOperator.shift(-2, 2)).bandwidth == 4
    assert BandedOperator(1, {(0, 0, 4): 0.0}).bandwidth == 0
    with pytest.raises(TypeError):
        BandedOperator(2, 1, {})


def test_the_zero_operator_has_no_section_diagonals():
    zero = BandedOperator(2, {})
    assert zero.section_diagonals(3) == {}
    assert all(len(part) == 0 for part in section_triplets(zero.section_diagonals(3), 2))
    assert not finite_section(zero, 3).matrix.any()
    for assemble in (BandedOperator.section_diagonals, finite_section):
        with pytest.raises(ValueError, match="^window 2 smaller than bandwidth 3$"):
            assemble(BandedOperator.shift(3), 2)
