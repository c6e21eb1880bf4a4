import math

import numpy as np
import pytest

from chiralwalk import (
    InvalidParameters,
    ModelParamsUm,
    VerificationError,
    bound_state_check,
    compute_index,
    essential_spectrum,
    kernel_witness,
    run_verification,
    truncated_spectrum,
)
from chiralwalk.models import (
    coin_from_profiles,
    grading_from_profiles,
    mko_to_um,
    mko_walk,
    offdiag_block,
    walk,
)
from chiralwalk.profiles import ParameterProfile
from chiralwalk.verify import (
    DENSE_BUDGET,
    KERNEL_THRESHOLD,
    build_pair,
    chiral_residual_operators,
    equivalence_residual,
    involution_residual_operators,
    normalization_residuals,
    unitary_mapping_check,
)

from conftest import (
    random_fredholm_params,
    random_mko_params,
    random_um_params,
    real_profile,
    reference_mko_params,
    reference_params,
)


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def test_residual_suite_on_random_draws():
    rng = np.random.default_rng(50)
    for _ in range(25):
        assert chiral_residual_operators(*build_pair(random_um_params(rng)), 100) < 1e-10
    for _ in range(25):
        assert chiral_residual_operators(*build_pair(random_mko_params(rng)), 100) < 1e-10


def test_equivalence_residual_on_random_draws():
    rng = np.random.default_rng(51)
    for _ in range(10):
        assert equivalence_residual(random_mko_params(rng), 100) < 1e-10


def dense_interior_max(section, margin, diff):
    return float(np.max(np.abs(diff[section.rows_within(margin)])))


def test_sparse_residuals_match_dense_products():
    rng = np.random.default_rng(52)
    window = 40
    for _ in range(20):
        grading_op, walk_op = build_pair(random_fredholm_params(rng))
        sec_u = walk_op.finite_section(window)
        g = grading_op.finite_section(window).matrix
        u_adj = walk_op.adjoint().finite_section(window).matrix
        dense = dense_interior_max(sec_u, 2 * grading_op.bandwidth + walk_op.bandwidth,
                                   u_adj - g @ sec_u.matrix @ g)
        assert abs(chiral_residual_operators(grading_op, walk_op, window) - dense) <= 1e-15
        sec_g = grading_op.finite_section(window)
        dense = dense_interior_max(sec_g, 2 * grading_op.bandwidth,
                                   g @ g - np.eye(sec_g.size))
        assert abs(involution_residual_operators(grading_op, window) - dense) <= 1e-15
    for _ in range(10):
        params = random_mko_params(rng)
        um, eta = mko_to_um(params)
        sec = mko_walk(params).finite_section(window)
        e = eta.finite_section(window).matrix
        e_adj = eta.adjoint().finite_section(window).matrix
        reduced = walk(um).finite_section(window).matrix
        dense = dense_interior_max(sec, 2 * eta.bandwidth + sec.source_bandwidth,
                                   e_adj @ sec.matrix @ e - reduced)
        assert abs(equivalence_residual(params, window) - dense) <= 1e-15


def test_residuals_beyond_the_dense_budget():
    window = 5000
    assert window > DENSE_BUDGET
    assert chiral_residual_operators(*build_pair(reference_params(m=2)), window) < 1e-10
    assert equivalence_residual(reference_mko_params(), window) < 1e-10


def test_residual_window_must_leave_an_interior():
    grading_op, walk_op = build_pair(reference_params(m=2))
    with pytest.raises(ValueError, match="no interior"):
        chiral_residual_operators(grading_op, walk_op, 5)


def test_corrupted_grading_normalization_breaks_chirality():
    # p^2 + |q|^2 = 1.01 destroys the involution, hence the chiral relation
    p = real_profile(0.6, 0.6)
    q_bad = ParameterProfile.constant(math.sqrt(1.01 - 0.36))
    grading_bad = grading_from_profiles(1, p, q_bad)
    coin_ok = coin_from_profiles(real_profile(0.1, 0.1), real_profile(0.5, 0.5),
                                 ParameterProfile.constant(math.sqrt(0.75)))
    walk_bad = grading_bad @ coin_ok
    assert chiral_residual_operators(grading_bad, walk_bad, 30) > 1e-3
    assert involution_residual_operators(grading_bad, 30) > 1e-3


def test_coin_normalization_violation_is_caught_by_the_named_check():
    # a^2 + |b|^2 = 1.01 leaves chirality intact but fails validation
    a = real_profile(0.5, 0.5)
    b_bad = ParameterProfile.constant(math.sqrt(1.01 - 0.25))
    grading_ok = grading_from_profiles(1, real_profile(0.6, 0.6),
                                       ParameterProfile.constant(0.8))
    walk_almost = grading_ok @ coin_from_profiles(real_profile(0.1, 0.1), a, b_bad)
    assert chiral_residual_operators(grading_ok, walk_almost, 30) < 1e-12
    with pytest.raises(InvalidParameters, match="normalization"):
        ModelParamsUm(m=1, gamma=real_profile(0.1, 0.1),
                      p=real_profile(0.6, 0.6), a=a,
                      q=ParameterProfile.constant(0.8), b=b_bad)


def test_chiral_check_fails_above_tolerance():
    rng = np.random.default_rng(52)
    report = run_verification(random_um_params(rng), 100, tol=1e-20)
    assert ("chiral symmetry", False) in [(name, ok) for name, ok, _ in report.checks]


def test_chiral_residual_window_floor():
    # m = 3: grading bandwidth 3, walk bandwidth 3, so the interior margin is 9
    with pytest.raises(ValueError):
        chiral_residual_operators(*build_pair(reference_params(m=3)), 8)


def test_normalization_residuals_are_tiny_for_valid_parameters():
    values = normalization_residuals(reference_params())
    assert all(v < 1e-14 for v in values.values())


# ---------------------------------------------------------------------------
# truncated spectra
# ---------------------------------------------------------------------------

def constant_unitary_params():
    return ModelParamsUm(m=1, gamma=real_profile(0, 0),
                         p=real_profile(0.35, 0.35), a=real_profile(0.6, 0.6),
                         q=ParameterProfile.constant(math.sqrt(1 - 0.35 ** 2) * np.exp(0.7j)),
                         b=ParameterProfile.constant(0.8j))


def test_unitary_truncation_spectrum_stays_in_the_disk():
    params = constant_unitary_params()
    ts = truncated_spectrum(params, 200)
    assert np.max(np.abs(ts.eigenvalues)) <= 1.0 + 1e-8
    result = essential_spectrum(params, 1024)
    interior = ts.interior_eigenvalues()
    assert np.max(result.union_distance(interior)) < 0.02


def test_reference_truncation_clusters_on_the_essential_spectrum():
    params = reference_params()
    nu = abs(compute_index(params).analytic_index)
    result = essential_spectrum(params, 2048)
    ts = truncated_spectrum(params, 300)
    dist = np.sort(result.union_distance(ts.interior_eigenvalues()))
    # all but the stable interface modes cluster on the closed-form set
    assert dist[-(nu + 1)] < 0.05
    separated = int((dist > 0.05).sum())
    print(f"interface candidates separated from the essential spectrum: {separated}")


def test_truncation_budget():
    with pytest.raises(ValueError):
        truncated_spectrum(reference_params(), 2400)


# ---------------------------------------------------------------------------
# kernel witnesses
# ---------------------------------------------------------------------------

def test_witness_counts_grow_to_the_index_and_stay_monotone():
    params = reference_params()           # index 2
    counts = [kernel_witness(params, n).count for n in (100, 200, 300)]
    assert counts == sorted(counts)
    assert counts[-1] >= 2


def test_witness_smallest_value_bounded_for_a_gapped_instance():
    gapped = ModelParamsUm(m=1, gamma=real_profile(0.3, 0.3),
                           p=real_profile(0.1, 0.1), a=real_profile(0.8, 0.8),
                           q=ParameterProfile.constant(math.sqrt(0.99)),
                           b=ParameterProfile.constant(0.6))
    report = compute_index(gapped)
    assert report.analytic_index == 0 and report.wn_minus == report.wn_plus == 0
    smallest = [kernel_witness(gapped, n).smallest for n in (100, 200, 300)]
    assert min(smallest) > 0.5


def test_witness_diagonal_closed_form():
    # vanishing coupling, unit diagonal coin, no gain: the block is the
    # multiplication operator -i |q|, so singular values are the |q a| values
    p = ParameterProfile.two_phase(0.6, 0.8, {0: 0.0}, kind="real")
    q = ParameterProfile.two_phase(0.8, 0.6, {0: 1.0}, kind="real")
    params = ModelParamsUm(m=1, gamma=real_profile(0, 0), p=p,
                           a=real_profile(1.0, 1.0), q=q,
                           b=ParameterProfile.constant(0.0))
    witness = kernel_witness(params, 12)
    # the coupling-free block is diagonal, so its stored bandwidth collapses
    # to zero and the interior restriction shaves nothing
    expected = np.sort([abs(q.value(x)) for x in range(-12, 13)])
    assert np.allclose(witness.singular_values, expected, atol=1e-12)


def test_witness_matches_dense_svd():
    rng = np.random.default_rng(53)
    for _ in range(20):
        params = random_fredholm_params(rng)
        block = offdiag_block(params)
        for window in (100, 300):
            witness = kernel_witness(params, window)
            section = block.finite_section(window)
            inner = section.rows_within(block.bandwidth)
            svals = np.sort(np.linalg.svd(section.matrix[np.ix_(inner, inner)],
                                          compute_uv=False))
            assert len(witness.singular_values) == len(svals)
            assert np.max(np.abs(witness.singular_values - svals)) < 1e-12
            assert witness.count == int(np.sum(svals < KERNEL_THRESHOLD))


def test_witness_window_floor():
    with pytest.raises(ValueError):
        kernel_witness(reference_params(m=3), 20)


# ---------------------------------------------------------------------------
# bound states (unitary instances)
# ---------------------------------------------------------------------------

def unitary_wall_params():
    return ModelParamsUm(m=1, gamma=real_profile(0, 0),
                         p=real_profile(-0.8, 0.8), a=real_profile(0.3, 0.3),
                         q=ParameterProfile.constant(0.6),
                         b=ParameterProfile.constant(math.sqrt(0.91)))


def test_bound_states_cover_the_index():
    check = bound_state_check(unitary_wall_params(), 120)
    assert check.abs_index == 2
    assert check.count >= 2


def test_gapped_plain_walk_has_no_spurious_interior_poles():
    params = ModelParamsUm(m=1, gamma=real_profile(0, 0),
                           p=real_profile(0, 0), a=real_profile(0.6, 0.6),
                           q=ParameterProfile.constant(1.0),
                           b=ParameterProfile.constant(0.8))
    assert compute_index(params).analytic_index == 0
    check = bound_state_check(params, 120)
    assert check.count == 0
    ts = truncated_spectrum(params, 120)
    interior = ts.interior_eigenvalues()
    assert np.min(np.abs(interior - 1.0)) > 1e-3
    assert np.min(np.abs(interior + 1.0)) > 1e-3


def test_bound_state_check_requires_a_unitary_instance():
    with pytest.raises(InvalidParameters):
        bound_state_check(reference_params(), 60)


def test_bound_state_check_requires_fredholmness():
    tie = ModelParamsUm(m=1, gamma=real_profile(0, 0),
                        p=real_profile(0.3, 0.3), a=real_profile(0.3, 0.3),
                        q=ParameterProfile.constant(math.sqrt(0.91)),
                        b=ParameterProfile.constant(math.sqrt(0.91)))
    with pytest.raises(VerificationError):
        bound_state_check(tie, 60)


def test_unitary_mapping_consistency():
    assert unitary_mapping_check(constant_unitary_params(), 100) < 0.02
    with pytest.raises(InvalidParameters):
        unitary_mapping_check(reference_params(), 100)


# ---------------------------------------------------------------------------
# the combined report
# ---------------------------------------------------------------------------

def test_full_report_passes_for_the_reference_instances():
    for params in (reference_params(), reference_mko_params()):
        report = run_verification(params, 60)
        assert report.passed, report.checks
        names = [name for name, _, _ in report.checks]
        assert "chiral symmetry" in names and "kernel witness" in names
    mko_report = run_verification(reference_mko_params(), 60)
    assert mko_report.equivalence_residual < 1e-12


def test_full_report_includes_bound_states_for_unitary_instances():
    report = run_verification(unitary_wall_params(), 80)
    assert report.passed
    assert report.bound_states is not None and report.bound_states.count >= 2
