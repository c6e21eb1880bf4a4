import functools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

import chiralwalk.plotting
from chiralwalk import verify as verify_module
from chiralwalk import (
    AsymptoticData,
    InvalidParameters,
    ModelParamsMko,
    ModelParamsUm,
    SymbolFunction,
    VerificationError,
    bound_state_check,
    compute_index,
    essential_spectrum,
    kernel_witness,
    run_verification,
    truncated_spectrum,
)
from chiralwalk.cli import main
from chiralwalk.config import DEFAULT_OPTIONS, load_model_config
from chiralwalk.lattice import BandedOperator, section_triplets
from chiralwalk.models import (
    coin_from_profiles,
    grading_from_profiles,
    mko_to_um,
    mko_walk,
    normalization_residual,
    offdiag_block,
    reduce_to_um,
    walk,
)
from chiralwalk.profiles import MINUS_INF, PLUS_INF, ParameterProfile
from chiralwalk.verify import (
    DENSE_BUDGET,
    EIGENVALUE_TOL,
    KERNEL_THRESHOLD,
    build_pair,
    chiral_residual_operators,
    equivalence_residual,
    involution_residual_operators,
)

from conftest import (
    closed_p_gamma,
    random_fredholm_params,
    random_operator,
    random_mko_params,
    random_real_profile,
    random_um_params,
    real_profile,
    reference_mko_params,
    reference_params,
    rows_within,
    unitary_mapping_check,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
TOL = DEFAULT_OPTIONS["tol"]


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
    return float(np.max(np.abs(diff[rows_within(section, margin)])))


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
                                   g @ g - np.eye(len(g)))
        assert abs(involution_residual_operators(grading_op, window) - dense) <= 1e-15
    for _ in range(10):
        params = random_mko_params(rng)
        um, eta = mko_to_um(params)
        mko_op = mko_walk(params)
        sec = mko_op.finite_section(window)
        e = eta.finite_section(window).matrix
        e_adj = eta.adjoint().finite_section(window).matrix
        reduced = walk(um).finite_section(window).matrix
        dense = dense_interior_max(sec, 2 * eta.bandwidth + mko_op.bandwidth,
                                   e_adj @ sec.matrix @ e - reduced)
        assert abs(equivalence_residual(params, window) - dense) <= 1e-15


def diagonals_matrix(diagonals, window, block_size):
    """Dense matrix of a section in the ``section_diagonals`` layout; asserts 0 outside the window."""
    rows = np.arange(2 * window + 1)
    mat = np.zeros((block_size * len(rows),) * 2, dtype=complex)
    for (i, j, y), diag in diagonals.items():
        inside = (rows + y >= 0) & (rows + y <= 2 * window)
        assert not diag[~inside].any()
        mat[rows[inside] * block_size + i, (rows[inside] + y) * block_size + j] = diag[inside]
    return mat


def test_section_products_and_adjoints_match_the_dense_sections_on_every_row():
    # boundary rows included: the residuals read only the interior ones.  The
    # reference adds the terms of each entry in ascending inner index, that is
    # inner site, then component, the order the product promises
    rng = np.random.default_rng(54)
    mko = random_mko_params(rng)
    pairs = [build_pair(random_fredholm_params(rng)) for _ in range(3)]
    pairs += [(mko_to_um(mko)[1], mko_walk(mko)), (walk(reduce_to_um(mko)), mko_walk(mko)),
              (random_operator(rng, 3, 2), random_operator(rng, 3, 1))]
    for left, right in pairs:
        n = left.block_size
        for window in (max(left.bandwidth, right.bandwidth), 20):
            a, b = left.finite_section(window).matrix, right.finite_section(window).matrix
            product = verify_module._section_product(left.section_diagonals(window),
                                                     right.section_diagonals(window))
            ordered = np.zeros_like(a)
            for k in range(len(a)):
                ordered += np.multiply.outer(a[:, k], b[k])
            assert np.array_equal(diagonals_matrix(product, window, n), ordered)
            adjoint = verify_module._section_adjoint(right.section_diagonals(window))
            assert np.array_equal(diagonals_matrix(adjoint, window, n), b.conj().T)


def test_interior_max_reads_the_rows_at_distance_margin_or_more():
    window, margin = 5, 2
    for row in range(2 * window + 1):
        spike = np.zeros(2 * window + 1, dtype=complex)
        spike[row] = -3.0
        inside = 3.0 * (margin <= row <= 2 * window - margin)
        assert verify_module._interior_max({(0, 0, 0): spike}, {}, window, margin) == inside
        assert verify_module._interior_max({}, {(1, 0, -2): spike}, window, margin) == inside
    with pytest.raises(ValueError, match="^window 5 leaves no interior at margin 6$"):
        verify_module._interior_max({}, {}, window, 6)


def test_residuals_take_no_coefficient_level_adjoint(monkeypatch):
    rng = np.random.default_rng(53)
    window = 30
    mko = random_mko_params(rng)
    cases = []
    for params in [random_fredholm_params(rng) for _ in range(3)] + [mko]:
        grading_op, walk_op = build_pair(params)
        sec_u = walk_op.finite_section(window)
        g = grading_op.finite_section(window).matrix
        u_adj = walk_op.adjoint().finite_section(window).matrix
        chiral = dense_interior_max(sec_u, 2 * grading_op.bandwidth + walk_op.bandwidth,
                                    u_adj - g @ sec_u.matrix @ g)
        cases.append((grading_op, walk_op, chiral))
    um, eta = mko_to_um(mko)
    mko_op = mko_walk(mko)
    sec = mko_op.finite_section(window)
    e = eta.finite_section(window).matrix
    e_adj = eta.adjoint().finite_section(window).matrix
    equivalence = dense_interior_max(sec, 2 * eta.bandwidth + mko_op.bandwidth,
                                     e_adj @ sec.matrix @ e - walk(um).finite_section(window).matrix)

    def refuse(self):
        raise AssertionError("a residual took a coefficient-level adjoint")

    monkeypatch.setattr(BandedOperator, "adjoint", refuse)
    for grading_op, walk_op, chiral in cases:
        assert abs(chiral_residual_operators(grading_op, walk_op, window) - chiral) <= 1e-15
    assert abs(equivalence_residual(mko, window) - equivalence) <= 1e-15


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


def test_two_step_residuals_are_compared_on_the_walk_entry_scale():
    # at gamma = 12 the absolute chiral and equivalence residuals are ~1e-7,
    # pure roundoff on walk entries of size ~exp(24)
    params = reference_mko_params(gamma=12.0)
    report = run_verification(params, 60, TOL)
    checks = {name: ok for name, ok, _ in report.checks}
    assert checks["chiral symmetry"] and checks["two-step reduction"]
    assert report.equivalence_residual > 1e-10


def test_chiral_residual_window_floor():
    # m = 3: grading bandwidth 3, walk bandwidth 3, so the interior margin is 9
    with pytest.raises(ValueError):
        chiral_residual_operators(*build_pair(reference_params(m=3)), 8)


def test_normalization_residuals_are_tiny_for_valid_parameters():
    params = reference_params()
    values = (normalization_residual(params.p, params.q), normalization_residual(params.a, params.b))
    assert all(v < 1e-14 for v in values)


# ---------------------------------------------------------------------------
# truncated spectra
# ---------------------------------------------------------------------------

def constant_unitary_params():
    return ModelParamsUm(m=1, gamma=real_profile(0, 0),
                         p=real_profile(0.35, 0.35), a=real_profile(0.6, 0.6),
                         q=ParameterProfile.constant(math.sqrt(1 - 0.35 ** 2) * np.exp(0.7j)),
                         b=ParameterProfile.constant(0.8j))


def union_distance(result, points):
    """Distance from each point to the union of the two endpoint sets."""
    return np.minimum(result.minus.spectral_set.distance(points),
                      result.plus.spectral_set.distance(points))


def test_unitary_truncation_spectrum_stays_in_the_disk():
    params = constant_unitary_params()
    ts = truncated_spectrum(params, 200)
    assert np.max(np.abs(ts.eigenvalues)) <= 1.0 + 1e-8
    result = essential_spectrum(params, 1024)
    interior = ts.interior_eigenvalues()
    assert np.max(union_distance(result, interior)) < 0.02


def test_reference_truncation_clusters_on_the_essential_spectrum():
    params = reference_params()
    nu = abs(compute_index(params).analytic_index)
    result = essential_spectrum(params, 2048)
    ts = truncated_spectrum(params, 300)
    dist = np.sort(union_distance(result, ts.interior_eigenvalues()))
    # all but the stable interface modes cluster on the closed-form set
    assert dist[-(nu + 1)] < 0.05
    separated = int((dist > 0.05).sum())
    print(f"interface candidates separated from the essential spectrum: {separated}")


def test_truncation_budget():
    with pytest.raises(ValueError):
        truncated_spectrum(reference_params(), 2400)


def operator_spectrum(monkeypatch, op, window):
    """:func:`truncated_spectrum` with ``op`` standing in for the walk."""
    monkeypatch.setattr(verify_module, "walk_operator", lambda params: op)
    return truncated_spectrum(None, window)


def assert_eigensolve_matches_the_complex_solve(op, window, values, tags):
    """``values``/``tags`` against complex eig of the ungauged section, optimally matched."""
    section = op.finite_section(window)
    reference, vectors = np.linalg.eig(section.matrix)
    rows, cols = linear_sum_assignment(np.abs(values[:, None] - reference[None, :]))
    assert np.max(np.abs(values[rows] - reference[cols])) < 1e-10
    reference_tags = verify_module._localisation_tags(section.block_sites(), section.window,
                                                      vectors, 2 * max(1, op.bandwidth))
    assert np.array_equal(tags[rows], reference_tags[cols])


def block_dtypes(op, window):
    """The dtypes of the class blocks the walk section ``op`` is solved in."""
    return {block.dtype.type for _, block in verify_module._class_blocks(op, window)}


@st.composite
def walk_sections(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        params = random_um_params(rng, m=draw(st.sampled_from([-3, -2, -1, 1, 2, 3])),
                                  gamma_range=2.0)
    else:
        params = ModelParamsMko(gamma=random_real_profile(rng, -2.0, 2.0),
                                phi=random_real_profile(rng, -3.0, 3.0),
                                theta1=random_real_profile(rng, -3.0, 3.0),
                                theta2=random_real_profile(rng, -3.0, 3.0))
    return params, draw(st.integers(20, 80))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(walk_sections())
def test_walk_sections_are_solved_in_real_arithmetic(section):
    params, window = section
    walk_op = build_pair(params)[1]
    rows, cols, vals = section_triplets(walk_op.section_diagonals(window), walk_op.block_size)
    d = verify_module._phase_gauge(rows, cols, vals, walk_op.block_size * (2 * window + 1))
    assert np.allclose(np.abs(d), 1.0, rtol=0.0, atol=1e-12)
    gauged = vals * d[cols] / d[rows]
    assert np.max(np.abs(gauged.imag)) <= 8 * np.finfo(float).eps * np.max(np.abs(vals))
    assert block_dtypes(walk_op, window) == {np.float64}
    ts = truncated_spectrum(params, window)
    assert_eigensolve_matches_the_complex_solve(walk_op, window, ts.eigenvalues,
                                                ts.boundary_affected)


@pytest.mark.parametrize("m", [-3, -2, -1, 1, 2, 3, "mko"])
def test_a_walk_section_is_solved_once_per_residue_class(monkeypatch, m):
    # an m-step walk couples only sites |m| apart, the two-step walk sites 2
    # apart, so a section of 2 (2 window + 1) rows splits into one block per class
    params = reference_mko_params() if m == "mko" else reference_params(m=m)
    step = 2 if m == "mko" else abs(m)
    shapes = []
    original = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: shapes.append(a.shape) or original(a))
    window = 40
    ts = truncated_spectrum(params, window)
    sites = 2 * window + 1
    assert sorted(shapes) == sorted((2 * len(range(r, sites, step)),) * 2 for r in range(step))
    assert len(ts.eigenvalues) == len(ts.boundary_affected) == 2 * sites


@pytest.mark.parametrize("name, step", [("walk m=3", 3), ("two-step walk", 2), ("block m=-3", 3)])
def test_the_class_ordered_section_is_a_permutation_of_the_section(name, step):
    op = {"walk m=3": walk(reference_params(m=3)),
          "two-step walk": mko_walk(reference_mko_params()),
          "block m=-3": offdiag_block(reference_params(m=-3))}[name]
    window, n = 20, op.block_size
    dense = op.finite_section(window).matrix
    classes = list(verify_module._class_sections(op, window))
    assert len(classes) == step
    # class r holds the sites = r mod step in ascending order, n rows per site,
    # and the classes cover every row of the section once
    site_range = np.arange(-window, window + 1)
    covered = []
    for r, (sites, section) in enumerate(classes):
        assert np.array_equal(sites, np.repeat(site_range[site_range % step == r], n))
        flat = (sites + window) * n + np.arange(len(sites)) % n
        covered.append(flat)
        # scattered back through its sites, a class section is the dense
        # section on those rows and columns bit for bit
        rows, cols, vals = section_triplets(section, n)
        block = np.zeros((len(sites), len(sites)), dtype=complex)
        block[rows, cols] += vals
        assert block.tobytes() == dense[np.ix_(flat, flat)].tobytes()
    assert np.array_equal(np.sort(np.concatenate(covered)), np.arange(len(dense)))
    # so no entry couples two classes
    outside = dense.copy()
    for flat in covered:
        outside[np.ix_(flat, flat)] = 0.0
    assert not outside.any()


def test_an_operator_without_coefficients_is_one_class(monkeypatch):
    # the gcd of no offsets is 0, which reads as step 1
    [(sites, section)] = verify_module._class_sections(BandedOperator(2), 3)
    assert len(sites) == 14 and section == {}
    values = operator_spectrum(monkeypatch, BandedOperator(2), 3).eigenvalues
    assert len(values) == 14 and not values.any()


def test_the_phase_gauge_stays_real_to_8_eps_at_the_dense_budget():
    # a breadth-first sweep closes cycles through the root, so its roundoff
    # grows with the window: 12-27 eps on these draws at window 2000
    rng = np.random.default_rng(0)
    for _ in range(10):
        walk_op = build_pair(random_um_params(rng, gamma_range=2.0))[1]
        rows, cols, vals = section_triplets(walk_op.section_diagonals(DENSE_BUDGET), 2)
        d = verify_module._phase_gauge(rows, cols, vals, 2 * (2 * DENSE_BUDGET + 1))
        gauged = vals * d[cols] / d[rows]
        assert np.max(np.abs(gauged.imag)) <= 8 * np.finfo(float).eps * np.max(np.abs(vals))


def test_a_section_no_gauge_makes_real_takes_the_complex_solve(monkeypatch):
    # a diagonal entry is gauge-invariant, so 0.3j stays imaginary
    op = BandedOperator(2, {(0, 0, 0): 0.3j, (0, 1, 0): 0.8, (1, 0, 0): 0.5,
                            (0, 1, 1): 0.6 * np.exp(0.4j), (1, 0, -1): -0.2, (1, 1, 0): 0.1})
    assert block_dtypes(op, 30) == {np.complex128}
    ts = operator_spectrum(monkeypatch, op, 30)
    assert_eigensolve_matches_the_complex_solve(op, 30, ts.eigenvalues, ts.boundary_affected)


@pytest.mark.parametrize("name", ["reference_um_m1", "reference_um_m2", "reference_mko", "twin"])
def test_truncated_spectrum_eigenvalues_are_complex(name):
    params = (reference_params(gamma=0.0) if name == "twin"      # reference_um_m1 at gamma 0
              else load_model_config(CONFIG_DIR / f"{name}.json").build())
    assert truncated_spectrum(params, 40).eigenvalues.dtype == np.complex128


def test_an_all_real_spectrum_still_comes_back_complex(monkeypatch):
    # a real symmetric tridiagonal section: LAPACK's real solver returns floats
    op = BandedOperator.shift(1) + BandedOperator.shift(-1)
    assert block_dtypes(op, 20) == {np.float64}
    values = operator_spectrum(monkeypatch, op, 20).eigenvalues
    assert values.dtype == np.complex128 and not values.imag.any()
    exact = 2 * np.cos(np.pi * np.arange(1, 42) / 42)
    assert np.max(np.abs(np.sort(values.real) - np.sort(exact))) < 1e-12


@pytest.mark.parametrize("name", ["reference_um_m1", "reference_um_m2", "reference_mko", "twin"])
def test_the_plot_overlay_is_the_truncated_spectrum_from_eigenvalue_only_solves(
        tmp_path, capsys, monkeypatch, name):
    if name == "twin":                                  # reference_um_m1 at gamma 0
        doc = json.loads((CONFIG_DIR / "reference_um_m1.json").read_text(encoding="utf-8"))
        doc["profiles"]["gamma"] = {"left": 0.0, "right": 0.0}
        path = tmp_path / "twin.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
    else:
        path = CONFIG_DIR / f"{name}.json"
    window = 40
    expected = truncated_spectrum(load_model_config(path).build(), window).eigenvalues
    overlays = []
    monkeypatch.setattr(chiralwalk.plotting, "write_spectral_svg",
                        lambda out, sets, overlay, title: overlays.append(overlay))
    eig = count_calls(monkeypatch, np.linalg, "eig")
    assert main(["plot", str(path), "--overlay-window", str(window),
                 "--out", str(tmp_path / "figure.svg")]) == 0
    capsys.readouterr()
    assert eig == []
    (overlay,) = overlays
    rows, cols = linear_sum_assignment(np.abs(overlay[:, None] - expected[None, :]))
    assert len(overlay) == len(expected) == len(rows)
    assert np.max(np.abs(overlay[rows] - expected[cols])) < 1e-12


@pytest.mark.xfail(strict=True, reason="the fixed edge width of 2 sites misses an edge state "
                                       "at mean site W - 5 (ROADMAP item 5)")
@pytest.mark.parametrize("window", [100, 150, 200])
def test_the_edge_state_near_0_8987_is_tagged_edge_localised(window):
    # on reference_um_m1 the eigenvector at 0.898658 sits at the right edge and
    # holds 0.84 of its mass within 10 sites of it, but 0.31 within 2
    params = load_model_config(CONFIG_DIR / "reference_um_m1.json").build()
    ts = truncated_spectrum(params, window)
    k = int(np.argmin(np.abs(ts.eigenvalues - 0.898658)))
    assert abs(ts.eigenvalues[k] - 0.898658) < 1e-6
    assert ts.boundary_affected[k]


@pytest.mark.parametrize("name", ["reference_um_m1", "reference_mko"])
def test_the_phase_gauge_does_not_overflow_at_the_gain_limit(tmp_path, capsys, name):
    # walk entries reach ~exp(708) at gamma 354: |entry| of the largest
    # overflows unless each entry is first scaled to magnitude ~1
    doc = json.loads((CONFIG_DIR / f"{name}.json").read_text(encoding="utf-8"))
    doc["profiles"]["gamma"] = {"left": 354.0, "right": 354.0}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        walk_op = build_pair(load_model_config(path).build())[1]
        assert block_dtypes(walk_op, 60) == {np.float64}
        assert main(["plot", str(path), "--overlay-window", "60",
                     "--out", str(tmp_path / "figure.svg")]) == 0
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# kernel witnesses
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["reference_um_m1", "reference_um_m2", "reference_mko",
                                  "m=3", "m=-3"])
def test_the_interior_of_a_block_section_is_the_section_at_the_inner_window(name):
    # the kernel witness assembles the window - k section for the interior
    # rows and columns [k, 2 window + 1 - k) of the window section
    if name.startswith("m="):
        um = reference_params(m=int(name[2:]))
    else:
        um = reduce_to_um(load_model_config(CONFIG_DIR / f"{name}.json").build())
    block = offdiag_block(um)
    k, window = block.bandwidth, 50
    interior = block.finite_section(window).matrix[k:2 * window + 1 - k, k:2 * window + 1 - k]
    assert interior.tobytes() == block.finite_section(window - k).matrix.tobytes()


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
    smallest = [kernel_witness(gapped, n).singular_values[0] for n in (100, 200, 300)]
    assert min(smallest) > 0.5


def diagonal_params(q_overrides):
    # vanishing coupling, unit diagonal coin, no gain: the block is the
    # multiplication operator -i |q|, so singular values are the |q a| values
    p_overrides = {x: math.sqrt(1.0 - v * v) for x, v in q_overrides.items()}
    p = ParameterProfile(0.6, 0.8, p_overrides)
    q = ParameterProfile(0.8, 0.6, q_overrides)
    return ModelParamsUm(m=1, gamma=real_profile(0, 0), p=p,
                         a=real_profile(1.0, 1.0), q=q,
                         b=ParameterProfile.constant(0.0))


def test_witness_diagonal_closed_form():
    witness = kernel_witness(diagonal_params({0: 1.0}), 12)
    # |q| is 0.8, 1 or 0.6 on the 25 sites, so there is no near-kernel and the
    # one value is an upper bound on the smallest singular value 0.6.  The
    # stop rule converges only the near-kernel, so the bound is pinned from
    # below (Courant-Fischer) and from above only by the norm |q| <= 1.
    assert witness.count == 0 and len(witness.singular_values) == 1
    assert 0.6 - 1e-12 <= witness.singular_values[0] <= 1.0


def test_witness_diagonal_near_kernel_closed_form():
    # |q| = 0 at site -3 and 1e-9 at site 4: a two-dimensional near-kernel
    # whose values the witness must return to 1e-12, then the bound on 0.6
    witness = kernel_witness(diagonal_params({0: 1.0, -3: 0.0, 4: 1e-9}), 12)
    values = witness.singular_values
    assert witness.count == 2 and len(values) == 3
    assert np.max(np.abs(values[:2] - [0.0, 1e-9])) < 1e-12
    assert 0.6 - 1e-12 <= values[2] <= 1.0


def test_witness_block_doubles_past_a_near_kernel_wider_than_the_start_block():
    # |q| = 0 on ten sites: ten exact zeros, more than the 8 start columns,
    # so every Ritz value sits below the threshold until the block doubles
    witness = kernel_witness(diagonal_params({x: 0.0 for x in range(-5, 5)}), 12)
    values = witness.singular_values
    assert witness.count == 10 and len(values) == 11
    assert np.max(values[:10]) < 1e-12
    assert 0.6 - 1e-12 <= values[10] <= 1.0


def assert_values_match_dense_svd(values, matrix):
    svals = np.sort(np.linalg.svd(matrix, compute_uv=False))
    count = int(np.sum(svals < KERNEL_THRESHOLD))
    assert int(np.sum(values < KERNEL_THRESHOLD)) == count
    assert np.max(np.abs(values[:count] - svals[:count]), initial=0.0) < 1e-12
    # the last value bounds the next singular value from above
    assert values[-1] >= svals[count] - 1e-12


def assert_witness_matches_dense_svd(params, window):
    block = offdiag_block(params)
    section = block.finite_section(window)
    inner = rows_within(section, block.bandwidth)
    assert_values_match_dense_svd(kernel_witness(params, window).singular_values,
                                  section.matrix[np.ix_(inner, inner)])


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_witness_matches_dense_svd(seed):
    params = random_fredholm_params(np.random.default_rng(seed))
    for window in (100, 300):
        assert_witness_matches_dense_svd(params, window)


@functools.cache
def seed_53_stream():
    rng = np.random.default_rng(53)
    return [random_fredholm_params(rng) for _ in range(20)]


@pytest.mark.parametrize("draw", range(20))
def test_witness_matches_dense_svd_on_the_seed_53_stream(draw):
    # the 20 draws the banded-eigensolve witness was first compared on; they
    # include sections (draw 9 at window 100, m = -2) where plain
    # Rayleigh-Ritz on the raw block stalled
    for window in (100, 300):
        assert_witness_matches_dense_svd(seed_53_stream()[draw], window)


def test_witness_finds_a_near_kernel_behind_values_nearer_the_shift():
    # margin 0.011: at window 1000 the section has 2 near-kernel values and 8
    # in (0.0149, 0.02), a cluster that a shift of 0.01 would amplify more
    # than the near-kernel; below the threshold every near-kernel value
    # outranks it, so the 8 start columns must find both near-kernel values
    params = ModelParamsUm(m=1, gamma=real_profile(0.4, 0.4), p=real_profile(-0.2, 0.2),
                           a=real_profile(-0.14, 0.14),
                           q=ParameterProfile.constant(math.sqrt(0.96)),
                           b=ParameterProfile.constant(math.sqrt(1 - 0.14 ** 2)))
    assert compute_index(params).analytic_index == 2
    assert_witness_matches_dense_svd(params, 1000)


@pytest.mark.parametrize("name", ["reference_um_m1", "reference_um_m2", "reference_mko"])
def test_witness_matches_dense_svd_at_opposite_half_line_gains(tmp_path, name):
    # gain 3 on the left, -3 on the right: sigma_min of the window-300 section
    # is 19.57 for m = 1; for m = 2 and the two-step reduction one value of
    # ~1e-18 sits below it
    doc = json.loads((CONFIG_DIR / f"{name}.json").read_text(encoding="utf-8"))
    doc["profiles"]["gamma"] = {"left": 3.0, "right": -3.0}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert_witness_matches_dense_svd(reduce_to_um(load_model_config(path).build()), 300)


@functools.cache
def unequal_gain_stream():
    # gains in [-2.5, 2.5] on each half-line; draw 1 (m = 1) is a section
    # where block inverse iteration at the shift 0.01 never settles
    rng = np.random.default_rng(12)
    return ([random_fredholm_params(rng, gamma_range=2.5) for _ in range(10)]
            + [reduce_to_um(random_mko_params(rng)) for _ in range(10)])


@pytest.mark.parametrize("draw", range(20))
def test_witness_matches_dense_svd_at_unequal_half_line_gains(draw):
    for window in (100, 300):
        assert_witness_matches_dense_svd(unequal_gain_stream()[draw], window)


def test_witness_falls_back_to_complex_arithmetic_when_no_gauge_makes_the_block_real():
    # diagonal 0.5, superdiagonal 1, subdiagonal 0.3i: every 4-cycle of the
    # pattern has the product 0.5 * 0.5 / (1 * 0.3i), which no diagonal gauge
    # makes real; the symbol 0.5 + z + 0.3i / z winds once around 0, so the
    # section has one near-kernel value
    size = 400
    # a[i, j] at [1 + i - j, j]: superdiagonal, diagonal, subdiagonal
    band = np.array([np.r_[0, np.ones(size - 1)], np.full(size, 0.5), np.r_[np.full(size - 1, 0.3j), 0]])
    dense = np.diag(band[1]) + np.diag(band[0, 1:], 1) + np.diag(band[2, :-1], -1)
    band = verify_module._real_band(band)
    assert band.dtype == np.complex128
    values = verify_module._near_kernel_singular_values(band, 8)
    assert int(np.sum(values < KERNEL_THRESHOLD)) == 1
    assert_values_match_dense_svd(values, dense)


def test_witness_runs_the_two_step_reference_in_real_arithmetic(monkeypatch):
    # the block's diagonal is real up to its global factor i/2 and
    # up(x) down(x + m) ~ |beta|^2, so the gauge makes the permuted block real
    dtypes = []
    original = verify_module._near_kernel_singular_values

    def spy(band, start_columns):
        dtypes.append(band.dtype)
        return original(band, start_columns)

    monkeypatch.setattr(verify_module, "_near_kernel_singular_values", spy)
    um = reduce_to_um(load_model_config(CONFIG_DIR / "reference_mko.json").build())
    assert kernel_witness(um, 300).count == 2
    assert dtypes == [np.float64]


def config_params(name):
    return reduce_to_um(load_model_config(CONFIG_DIR / f"{name}.json").build())


def refuse_the_loop_gauge(monkeypatch):
    def refuse(*args):
        raise AssertionError("the per-node loop gauge ran")

    monkeypatch.setattr(verify_module, "_phase_gauge", refuse)


@pytest.mark.parametrize("m", [1, -1, 2, -2, 3, -3, "mko"])
def test_the_class_ordered_block_is_tridiagonal(m):
    # kernel_witness concatenates the block's class sections at window - |m|
    # into a (3, size) band; windows 40 .. 40 + |m| - 1 hit every residue
    # of (window - |m|) mod |m|, so every split into class sizes
    um = reduce_to_um(reference_mko_params()) if m == "mko" else reference_params(m=m)
    block = offdiag_block(um)
    step = abs(um.m)
    assert block.bandwidth == step
    for window in range(40, 40 + step):
        classes = list(verify_module._class_sections(block, window - step))
        assert len(classes) == step
        assert all(set(section) <= {(0, 0, -1), (0, 0, 0), (0, 0, 1)} for _, section in classes)
        assert kernel_witness(um, window).window == window


@functools.cache
def wide_gauge_stream():
    rng = np.random.default_rng(21)
    return ([config_params(name) for name in ("reference_um_m1", "reference_um_m2", "reference_mko")]
            + [random_fredholm_params(rng, gamma_range=2.5) for _ in range(20)])


def test_the_chain_gauge_stays_real_to_8_eps_at_wide_windows(monkeypatch):
    # the witness analogue of the walk sections' 8 eps test: one cumprod of
    # unit phases along the chain r0, c0, r1, c1, ... gauges the band, and
    # the per-node loop never runs
    refuse_the_loop_gauge(monkeypatch)
    original = verify_module._real_gauge
    ratios = []

    def measured(rows, cols, vals, size, d=None):
        assert d is not None and np.allclose(np.abs(d), 1.0, rtol=0.0, atol=1e-12)
        ratios.append(np.max(np.abs((vals * d[cols] / d[rows]).imag)) / np.max(np.abs(vals)))
        return original(rows, cols, vals, size, d)

    class Band(Exception):
        pass

    def capture(band, start_columns):
        raise Band(band)

    monkeypatch.setattr(verify_module, "_real_gauge", measured)
    monkeypatch.setattr(verify_module, "_near_kernel_singular_values", capture)
    for um in wide_gauge_stream():
        for window in (10000, 50000):
            with pytest.raises(Band) as caught:
                kernel_witness(um, window)
            assert caught.value.args[0].dtype == np.float64
    assert len(ratios) == 2 * len(wide_gauge_stream())
    assert max(ratios) <= 8 * np.finfo(float).eps


def test_the_chain_gauge_matches_the_loop_gauge_up_to_signs(monkeypatch):
    # the per-node loop is the reference: two real unitary gauges of one
    # band differ only in the sign of each entry, and each moves a modulus
    # by a few eps (up to 4.4 eps apart on these draws)
    bands = []
    original = verify_module._real_band
    monkeypatch.setattr(verify_module, "_real_band", lambda band: bands.append(band) or original(band))
    for um in wide_gauge_stream():
        kernel_witness(um, 300)
    assert len(bands) == len(wide_gauge_stream())
    for band in bands:
        k, j = np.nonzero(band)
        loop = verify_module._real_gauge(2 * (j + k - 1), 2 * j + 1, band[k, j], 2 * band.shape[1])
        chain = original(band)
        assert chain.dtype == loop.dtype == np.float64
        assert np.allclose(np.abs(chain[k, j]), np.abs(loop), rtol=8 * np.finfo(float).eps, atol=0.0)


@pytest.mark.parametrize("name", ["reference_um_m1", "reference_um_m2", "reference_mko"])
def test_the_witness_runs_the_configs_in_real_arithmetic_without_the_loop_gauge(monkeypatch, name):
    refuse_the_loop_gauge(monkeypatch)
    dtypes = []
    original = verify_module._near_kernel_singular_values

    def spy(band, start_columns):
        dtypes.append(band.dtype)
        return original(band, start_columns)

    monkeypatch.setattr(verify_module, "_near_kernel_singular_values", spy)
    for window in (300, 1000, 2000):
        kernel_witness(config_params(name), window)
    assert dtypes == [np.float64] * 3


def pinned(profile, sites, value):
    return ParameterProfile(profile.left_limit, profile.right_limit,
                            {**profile.overrides, **{x: value for x in sites}})


@pytest.mark.parametrize("m, p", [(1, 1.0), (1, -1.0), (-1, -1.0), (2, 1.0), (-2, -1.0),
                                  (3, 1.0), ("mko", 1.0), ("mko", -1.0)])
def test_the_witness_falls_back_to_the_loop_gauge_when_a_link_vanishes(monkeypatch, m, p):
    # p = sgn(m) at three sites (q = 0 there, ~1e-17 in the two-step model)
    # zeroes the chain's subdiagonal links at those sites, inside a class;
    # the superdiagonal entries that span each break keep phases the chain
    # does not fix, and the loop gauge takes over.  p = -sgn(m) zeroes the
    # superdiagonal entries beside the sites instead, and the chain gauges
    # what is left.  The complex b gives the phases something to do.
    sites = (-3, 0, 2)
    if m == "mko":                                       # p(x) = -sin theta1(x + 1)
        base = reference_mko_params()
        um = reduce_to_um(ModelParamsMko(gamma=base.gamma, phi=base.phi,
                                         theta1=pinned(base.theta1, sites, -p * math.pi / 2),
                                         theta2=base.theta2))
    else:
        base = reference_params(m=m)
        um = ModelParamsUm(m=m, gamma=base.gamma, p=pinned(base.p, sites, p), a=base.a,
                           q=pinned(base.q, sites, 0.0),
                           b=ParameterProfile.constant(math.sqrt(0.99) * np.exp(0.7j)))
    loop = count_calls(monkeypatch, verify_module, "_phase_gauge")
    for window in (100, 300):
        assert_witness_matches_dense_svd(um, window)
    assert bool(loop) == (p * np.sign(um.m) > 0)


def test_witness_keeps_the_fields_the_benchmark_reads():
    # perfbench/spans.py and perfbench/workloads.py read window,
    # singular_values and count
    witness = kernel_witness(reference_params(m=2), 300)
    values = witness.singular_values
    assert witness.window == 300
    assert isinstance(values, np.ndarray) and np.all(np.diff(values) >= 0.0)
    assert isinstance(witness.count, int)
    assert witness.count == int(np.sum(values < KERNEL_THRESHOLD)) == 2


@pytest.mark.parametrize("name, count", [
    ("reference_um_m1", 2), ("reference_um_m2", 4), ("reference_mko", 4),
    ("m=3", 6), ("m=-3", 6)])
def test_witness_counts_and_iterations_at_wide_windows(monkeypatch, name, count):
    # the near-kernel settles in 2 block steps at these windows; a cap of 4
    # turns any slide in the convergence rate into a failure.  At |m| = 3
    # the permuted block splits into three tridiagonal blocks.
    monkeypatch.setattr(verify_module, "MAX_WITNESS_ITERATIONS", 4)
    if name.startswith("m="):
        um, windows = reference_params(m=int(name[2:])), (600, 2000)
    else:
        um = reduce_to_um(load_model_config(CONFIG_DIR / f"{name}.json").build())
        windows = (600, 2000, 10000)
    assert [kernel_witness(um, n).count for n in windows] == [count] * len(windows)


@pytest.mark.parametrize("gamma", [3.0, 5.0, 8.0])
def test_witness_certifies_an_empty_near_kernel_at_large_gain(monkeypatch, gamma):
    # the diagonal dominates: Johnson's bound certifies count 0 without
    # iterating, and the smallest column sum bounds sigma_min from above
    monkeypatch.setattr(verify_module, "MAX_WITNESS_ITERATIONS", 0)
    params = reference_params(gamma=gamma)
    witness = kernel_witness(params, 100)
    assert witness.count == 0 and len(witness.singular_values) == 1
    inner = offdiag_block(params).finite_section(100).matrix[1:-1, 1:-1]
    assert KERNEL_THRESHOLD < np.linalg.svd(inner, compute_uv=False)[-1] <= witness.singular_values[0]


def test_witness_iteration_cap_is_a_verification_error(monkeypatch):
    monkeypatch.setattr(verify_module, "MAX_WITNESS_ITERATIONS", 1)
    with pytest.raises(VerificationError, match="no convergence in 1 block iterations"):
        kernel_witness(reference_params(m=2), 300)
    report = run_verification(reference_params(m=2), 60, TOL)
    checks = {name: (ok, detail) for name, ok, detail in report.checks}
    assert checks.pop("kernel witness") == (
        False, "kernel witness: no convergence in 1 block iterations at window 507")
    assert all(ok for ok, _ in checks.values()) and "chiral symmetry" in checks


def test_witness_block_reaching_the_section_size_is_a_verification_error():
    # p = a = 1, q = b = 0: the off-diagonal block vanishes, so every Ritz
    # value is 0 and the block doubles 4 -> 8 -> 16 -> 32 past the 25 sites
    params = ModelParamsUm(m=1, gamma=real_profile(0, 0), p=real_profile(1, 1),
                           a=real_profile(1, 1), q=ParameterProfile.constant(0.0),
                           b=ParameterProfile.constant(0.0))
    with pytest.raises(VerificationError, match="block of 32 reached the section size 25"):
        kernel_witness(params, 12)


def test_witness_window_floor():
    with pytest.raises(ValueError):
        kernel_witness(reference_params(m=3), 20)


def rule_window(params, window):
    """The witness window rule, from numpy's roots of the closed-form symbols."""
    m = abs(params.m)
    roots = [w for star in (MINUS_INF, PLUS_INF)
             for sym in [SymbolFunction.from_asymptotics(AsymptoticData.from_params(params, star),
                                                         params.m)]
             for w in np.roots([sym.leading, -2.0 * sym.c, sym.trailing]) if w != 0]
    length = max((m / abs(math.log(abs(w))) for w in roots), default=0.0)
    wanted = max(window, 8 * m, 2 * m + math.ceil(-1.25 * math.log(KERNEL_THRESHOLD) * length))
    return min(wanted, verify_module.MAX_WITNESS_WINDOW)


# gamma in [-3, 3], p -> +-1 at a tenth of the endpoints, |margin| in [1e-2, 0.5]
witness_endpoint = st.tuples(
    st.floats(-3.0, 3.0), st.integers(0, 19), st.floats(-0.95, 0.95), st.floats(-2.0, -0.3),
    st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0]), st.floats(0.0, 6.28),
    st.floats(0.0, 6.28))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(m=st.sampled_from([-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6]),
       ends=st.tuples(witness_endpoint, witness_endpoint),
       sites=st.lists(st.tuples(st.integers(-5, 5), st.floats(-3.0, 3.0), st.floats(-0.95, 0.95),
                                st.floats(-0.95, 0.95)), max_size=3, unique_by=lambda t: t[0]))
def test_the_witness_window_follows_from_the_decay_length(m, ends, sites):
    limits = []
    for gamma, tail, p, decade, margin_sign, a_sign, q_phase, b_phase in ends:
        p = {0: -1.0, 1: 1.0}.get(tail, p)
        margin = 10.0 ** decade * (1.0 if abs(p) == 1.0 else margin_sign)
        a = closed_p_gamma(p, gamma) - margin
        assume(0.0 <= a <= 0.99)
        limits.append((gamma, p, a_sign * a, math.sqrt(1.0 - p * p) * np.exp(1j * q_phase),
                       math.sqrt(1.0 - a * a) * np.exp(1j * b_phase)))

    def profile(k, override):
        return ParameterProfile(limits[0][k], limits[1][k], {x: override(v) for x, *v in sites})

    params = ModelParamsUm(
        m=m, gamma=profile(0, lambda v: v[0]), p=profile(1, lambda v: v[1]),
        a=profile(2, lambda v: v[2]), q=profile(3, lambda v: math.sqrt(1.0 - v[1] ** 2)),
        b=profile(4, lambda v: math.sqrt(1.0 - v[2] ** 2)))
    assume(compute_index(params).analytic_index != 0)
    windows = []
    witness = verify_module.kernel_witness

    def counting(params, window):
        windows.append(window)
        return witness(params, window)

    window = 8 * abs(m)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify_module, "kernel_witness", counting)
        checks = {name: ok for name, ok, _ in run_verification(params, window, TOL).checks}
    assert windows == [rule_window(params, window)]
    assert checks["kernel witness"]


# ---------------------------------------------------------------------------
# bound states (unitary instances)
# ---------------------------------------------------------------------------

def unitary_wall_params():
    return ModelParamsUm(m=1, gamma=real_profile(0, 0),
                         p=real_profile(-0.8, 0.8), a=real_profile(0.3, 0.3),
                         q=ParameterProfile.constant(0.6),
                         b=ParameterProfile.constant(math.sqrt(0.91)))


def test_bound_states_cover_the_index():
    params = unitary_wall_params()
    check = bound_state_check(params, 120, compute_index(params), truncated_spectrum(params, 120))
    assert check.abs_index == 2
    assert check.count >= 2


def test_gapped_plain_walk_has_no_spurious_interior_poles():
    params = ModelParamsUm(m=1, gamma=real_profile(0, 0),
                           p=real_profile(0, 0), a=real_profile(0.6, 0.6),
                           q=ParameterProfile.constant(1.0),
                           b=ParameterProfile.constant(0.8))
    index_report = compute_index(params)
    assert index_report.analytic_index == 0
    ts = truncated_spectrum(params, 120)
    check = bound_state_check(params, 120, index_report, ts)
    assert check.count == 0
    interior = ts.interior_eigenvalues()
    assert np.min(np.abs(interior - 1.0)) > 1e-3
    assert np.min(np.abs(interior + 1.0)) > 1e-3


def test_bound_state_check_requires_a_unitary_instance():
    params = reference_params()
    with pytest.raises(InvalidParameters):
        bound_state_check(params, 60, compute_index(params), truncated_spectrum(params, 60))


def test_bound_state_check_requires_fredholmness():
    tie = ModelParamsUm(m=1, gamma=real_profile(0, 0),
                        p=real_profile(0.3, 0.3), a=real_profile(0.3, 0.3),
                        q=ParameterProfile.constant(math.sqrt(0.91)),
                        b=ParameterProfile.constant(math.sqrt(0.91)))
    with pytest.raises(VerificationError):
        bound_state_check(tie, 60, compute_index(tie), truncated_spectrum(tie, 60))


def test_bound_state_check_refuses_a_spectrum_at_another_window():
    params = unitary_wall_params()
    with pytest.raises(ValueError, match="window 60, not 80"):
        bound_state_check(params, 80, compute_index(params), truncated_spectrum(params, 60))


def test_unitary_mapping_consistency():
    assert unitary_mapping_check(constant_unitary_params(), 100) < 0.02


# ---------------------------------------------------------------------------
# the combined report
# ---------------------------------------------------------------------------

def test_full_report_passes_for_the_reference_instances():
    for params in (reference_params(), reference_mko_params()):
        report = run_verification(params, 60, TOL)
        assert report.passed, report.checks
        names = [name for name, _, _ in report.checks]
        assert "chiral symmetry" in names and "kernel witness" in names
    mko_report = run_verification(reference_mko_params(), 60, TOL)
    assert mko_report.equivalence_residual < 1e-12


def test_full_report_includes_bound_states_for_unitary_instances():
    report = run_verification(unitary_wall_params(), 80, TOL)
    assert report.passed
    assert report.bound_states is not None and report.bound_states.count >= 2


def count_calls(monkeypatch, owner, name):
    """Record each call of ``owner.name`` while still running it."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_verification_solves_an_m_step_walk_section_once(monkeypatch):
    eig = count_calls(monkeypatch, np.linalg, "eig")
    index = count_calls(monkeypatch, verify_module, "compute_index")
    report = run_verification(unitary_wall_params(), 80, TOL)
    assert report.bound_states is not None and report.bound_states.window == 80
    assert (len(eig), len(index)) == (1, 1)


def test_a_unitary_two_step_walk_counts_bound_states_on_its_reduction(monkeypatch):
    # the 34th seed-3 draw at zero gain: index 2, and at window 80 the two-step
    # walk's own section has 1 interior state near +-1, its reduction's 2
    rng = np.random.default_rng(3)
    for _ in range(34):
        drawn = random_mko_params(rng)
    params = ModelParamsMko(gamma=ParameterProfile.constant(0.0), phi=drawn.phi,
                            theta1=drawn.theta1, theta2=drawn.theta2)
    interior = truncated_spectrum(reduce_to_um(params), 80).interior_eigenvalues()
    eig = count_calls(monkeypatch, np.linalg, "eig")
    index = count_calls(monkeypatch, verify_module, "compute_index")
    report = run_verification(params, 80, TOL)
    # two sections (the two-step walk's own and its reduction's), each a
    # direct sum of two residue classes mod 2 solved one by one
    assert (len(eig), len(index)) == (4, 1)
    assert report.passed, report.checks
    assert report.bound_states.near_plus == int(np.sum(np.abs(interior - 1.0) < EIGENVALUE_TOL))
    assert report.bound_states.near_minus == int(np.sum(np.abs(interior + 1.0) < EIGENVALUE_TOL))
    assert report.bound_states.count >= report.bound_states.abs_index == 2
