"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import math
import time

import numpy as np

from chiralwalk import (
    AsymptoticData,
    BandedOperator,
    EndpointSpectrumData,
    ModelParamsUm,
    bound_state_check,
    compute_index,
    essential_spectrum,
    grading,
    grading_eigenbasis,
    kernel_witness,
    p_gamma,
    walk,
)
from chiralwalk.models import coin
from chiralwalk.profiles import STARS, ParameterProfile
from chiralwalk.verify import equivalence_residual, truncated_spectrum

from conftest import (
    contains,
    random_um_params,
    real_profile,
    reference_mko_params,
    reference_params,
    unitary_mapping_check,
)

DIAG_PM1 = BandedOperator.multiplication([[1.0, None], [None, -1.0]])


def report(number, name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({elapsed:.2f} s) {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_reference_reproduction():
    start = time.perf_counter()
    params = reference_params(m=1)
    ok = True
    detail = []
    result = essential_spectrum(params, 256)
    for star, ep in zip(STARS, (result.minus, result.plus)):
        asym = AsymptoticData.from_params(params, star)
        data = EndpointSpectrumData.from_asymptotics(asym)
        ok &= abs(data.gamma_minus - 0.350396) < 1e-5
        ok &= abs(data.gamma_plus - 2.64283) < 1e-5
        ok &= abs(abs(p_gamma(asym)) - 0.150876) < 1e-5
        ok &= ep.star == star and ep.spectral_set.case_tag == "II"
    for m in (1, 2, 3):
        index = compute_index(reference_params(m=m)).analytic_index
        ok &= index == 2 * m
        detail.append(f"m={m}: {index}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report(1, "reference reproduction", ok, elapsed, " ".join(detail))


def test_criterion_2_two_step_reproduction():
    start = time.perf_counter()
    mko = reference_mko_params()
    from chiralwalk import mko_to_um
    um, _ = mko_to_um(mko)
    index = compute_index(um).analytic_index
    residual = equivalence_residual(mko, 100)
    elapsed = time.perf_counter() - start
    ok = index == 4 and residual < 1e-10 and elapsed < 10.0
    report(2, "two-step reproduction", ok, elapsed,
           f"index={index}, equivalence residual={residual:.2e}")


def test_criterion_3_index_unanimity_corpus(fredholm_corpus):
    start = time.perf_counter()
    failures = 0
    for params in fredholm_corpus:
        rep = compute_index(params)
        agree = (rep.fredholm
                 and rep.analytic_index == rep.wn_plus - rep.wn_minus
                 and rep.analytic_index == rep.wn_plus_num - rep.wn_minus_num)
        failures += 0 if agree else 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and len(fredholm_corpus) >= 200 and elapsed < 60.0
    report(3, "index unanimity corpus", ok, elapsed,
           f"{len(fredholm_corpus)} cases, {failures} disagreements")


def _independent_case_tag(params, star, m):
    """Case tag recomputed from raw profile limits with plain arithmetic."""
    p = params.p.limit(star).real
    a = params.a.limit(star).real
    g = params.gamma.limit(star).real
    pa = abs(p * a)
    qb = abs(params.q.limit(star) * params.b.limit(star))
    if pa == 0.0:
        return "I"
    g_minus = 0.5 * math.acosh(max(1.0, (1.0 - qb) / pa))
    g_plus = 0.5 * math.acosh(max(1.0, (1.0 + qb) / pa))
    if abs(g) <= g_minus:
        return "I"
    if g_plus <= abs(g):
        return "III"
    return "II"


def test_criterion_4_spectrum_oracle(fredholm_corpus):
    start = time.perf_counter()
    bad_hausdorff = 0
    bad_case = 0
    for params in fredholm_corpus:
        result = essential_spectrum(params, 2048)
        for ep in (result.minus, result.plus):
            if ep.hausdorff > ep.tolerance:
                bad_hausdorff += 1
            if ep.spectral_set.case_tag != _independent_case_tag(params, ep.star, params.m):
                bad_case += 1
    elapsed = time.perf_counter() - start
    ok = bad_hausdorff == 0 and bad_case == 0 and elapsed < 120.0
    report(4, "spectrum oracle", ok, elapsed,
           f"{2 * len(fredholm_corpus)} endpoints, "
           f"{bad_hausdorff} beyond tolerance, {bad_case} mis-tagged")


def test_criterion_5_structural_residuals():
    start = time.perf_counter()
    rng = np.random.default_rng(20250805)
    worst = 0.0
    for _ in range(50):
        params = random_um_params(rng)
        g = grading(params)
        u = walk(params)
        c = coin(params)
        eps = grading_eigenbasis(params)
        worst = max(
            worst,
            u.adjoint().max_coeff_diff(g @ u @ g),
            (g @ g).max_coeff_diff(BandedOperator.identity(2)),
            c.adjoint().max_coeff_diff(c),
            (eps.adjoint() @ g @ eps).max_coeff_diff(DIAG_PM1),
        )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12
    report(5, "structural residuals", ok, elapsed, f"worst residual {worst:.2e}")


def test_criterion_6_gapless_yet_fredholm():
    start = time.perf_counter()
    params = reference_params(m=1)
    result = essential_spectrum(params, 512)
    contains_one = any(contains(ep.spectral_set, 1.0, 1e-9) for ep in (result.minus, result.plus))
    rep = compute_index(params)
    fredholm_nonzero = rep.fredholm and rep.analytic_index != 0
    elapsed = time.perf_counter() - start
    ok = contains_one and fredholm_nonzero
    report(6, "gapless yet Fredholm", ok, elapsed,
           f"+1 in essential spectrum: {contains_one}, index {rep.analytic_index}")


def test_criterion_7_unitary_cross_checks():
    start = time.perf_counter()
    unitary_ref = reference_params(m=1, gamma=0.0)
    result = essential_spectrum(unitary_ref, 2048)
    circle_dist = max(
        float(np.max(np.abs(np.abs(ep.cloud) - 1.0))) for ep in (result.minus, result.plus)
    )
    constant = ModelParamsUm(
        m=1, gamma=real_profile(0.0, 0.0), p=real_profile(0.35, 0.35),
        a=real_profile(0.6, 0.6),
        q=ParameterProfile.constant(math.sqrt(1 - 0.35 ** 2) * np.exp(0.7j)),
        b=ParameterProfile.constant(0.8j),
    )
    mapping_dist = unitary_mapping_check(constant, 100)
    bs = bound_state_check(unitary_ref, 300, compute_index(unitary_ref),
                           truncated_spectrum(unitary_ref, 300))
    elapsed = time.perf_counter() - start
    ok = circle_dist < 1e-12 and mapping_dist < 0.02 and bs.count >= bs.abs_index
    report(7, "unitary cross-checks", ok, elapsed,
           f"circle dist {circle_dist:.1e}, mapping dist {mapping_dist:.1e}, "
           f"{bs.count} bound states >= |index| = {bs.abs_index}")


def test_criterion_8_kernel_witness_monotone():
    start = time.perf_counter()
    golden = [
        (reference_params(m=1), 2),
        (reference_params(m=1, gamma=0.0), 2),
    ]
    ok = True
    details = []
    for params, nu in golden:
        counts = [kernel_witness(params, n).count for n in (100, 200, 300)]
        ok &= counts == sorted(counts) and counts[-1] >= nu
        details.append(f"counts {counts} (index {nu})")
    elapsed = time.perf_counter() - start
    report(8, "kernel witness monotone", ok, elapsed, "; ".join(details))
