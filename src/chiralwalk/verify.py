"""Finite-section numerical verification.

Everything here works on finite sections, deliberately independent of the
exact coefficient-level algebra.  Residuals and the kernel witness use only
banded (sparse) algebra, so their cost grows linearly in the window: residuals
compare sparse matrix products of finite sections on interior rows, and the
witness takes singular values from a banded Hermitian eigensolve.  Dense
matrices appear only where a full spectrum is needed (truncated spectra,
bound states, the unitary mapping check), and :data:`DENSE_BUDGET` bounds
their window.

Finite sections cannot compute a signed Fredholm index (square matrices have
index zero), so this module provides witnesses: counts of near-kernel
directions that must be at least |index| for large windows.  Signed index
computation lives in :mod:`chiralwalk.index`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigvals_banded

from .index import compute_index
from .lattice import BandedOperator
from .models import (
    InvalidParameters,
    ModelParamsMko,
    ModelParamsUm,
    grading,
    mko_grading,
    mko_to_um,
    mko_walk,
    normalization_residual,
    offdiag_block,
    reduce_to_um,
    walk,
)
from .profiles import ParameterProfile

DENSE_BUDGET = 2000
RESIDUAL_TOL = 1e-10
KERNEL_THRESHOLD = 1e-6
EIGENVALUE_TOL = 1e-6


class VerificationError(RuntimeError):
    def __init__(self, check: str, message: str):
        super().__init__(f"{check}: {message}")
        self.check = check


def build_pair(params):
    """(grading, walk) operators for either model family."""
    if isinstance(params, ModelParamsMko):
        return mko_grading(params), mko_walk(params)
    return grading(params), walk(params)


def _interior_max(diff, window: int, block_size: int, margin: int) -> float:
    """Max |entry| of the sparse ``diff`` over block rows at distance >= margin from the edge."""
    if margin > window:
        raise ValueError(f"window {window} leaves no interior at margin {margin}")
    rows = diff[block_size * margin:block_size * (2 * window + 1 - margin)]
    return float(np.max(np.abs(rows.data), initial=0.0))


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def chiral_residual_operators(grading_op: BandedOperator, walk_op: BandedOperator, window: int) -> float:
    """Max interior entry of section(walk*) - section(grading walk grading)."""
    margin = 2 * grading_op.bandwidth + walk_op.bandwidth
    sec_u = walk_op.sparse_section(window)
    sec_g = grading_op.sparse_section(window)
    sec_adj = walk_op.adjoint().sparse_section(window)
    diff = sec_adj - sec_g @ sec_u @ sec_g
    return _interior_max(diff, window, walk_op.block_size, margin)


def involution_residual_operators(grading_op: BandedOperator, window: int) -> float:
    """Max interior entry of section(grading)^2 - identity."""
    n = grading_op.block_size
    sec = grading_op.sparse_section(window)
    diff = sec @ sec - BandedOperator.identity(n).sparse_section(window)
    return _interior_max(diff, window, n, 2 * grading_op.bandwidth)


def verify_chiral(params, window: int, tol: float = RESIDUAL_TOL) -> float:
    """Chiral-relation residual; raises when it exceeds ``tol``."""
    grading_op, walk_op = build_pair(params)
    if isinstance(params, ModelParamsUm) and window < 4 * abs(params.m):
        raise ValueError(f"window {window} below 4|m| = {4 * abs(params.m)}")
    residual = chiral_residual_operators(grading_op, walk_op, window)
    if residual >= tol:
        raise VerificationError(
            "chiral symmetry", f"residual {residual:.3e} >= tolerance {tol:.1e}"
        )
    return residual


def equivalence_residual(params: ModelParamsMko, window: int) -> float:
    """Interior residual of conjugator* @ mko walk @ conjugator - reduced walk."""
    um, eta = mko_to_um(params)
    walk_mko = mko_walk(params)
    margin = 2 * eta.bandwidth + walk_mko.bandwidth
    sec = walk_mko.sparse_section(window)
    s_eta = eta.sparse_section(window)
    s_eta_adj = eta.adjoint().sparse_section(window)
    conjugated = s_eta_adj @ sec @ s_eta
    reduced = walk(um).sparse_section(window)
    return _interior_max(conjugated - reduced, window, walk_mko.block_size, margin)


def normalization_residuals(params: ModelParamsUm) -> dict:
    """Worst deviation of the two coin/grading normalization constraints."""
    return {
        "p^2+|q|^2": normalization_residual(params.p, params.q),
        "a^2+|b|^2": normalization_residual(params.a, params.b),
    }


# ---------------------------------------------------------------------------
# dense spectra and the banded kernel witness
# ---------------------------------------------------------------------------

@dataclass
class TruncatedSpectrum:
    window: int
    eigenvalues: np.ndarray
    boundary_affected: np.ndarray      # bool per eigenvalue
    edge_distance: np.ndarray          # sites between localisation peak and edge

    def interior_eigenvalues(self) -> np.ndarray:
        return self.eigenvalues[~self.boundary_affected]


def _localisation_tags(section, vectors: np.ndarray, edge_width: int):
    """Boundary tags per eigenvector: >= half the mass within edge_width of the edge."""
    sites = section.block_sites()
    near_edge = np.abs(sites) > section.window - edge_width
    mass = np.abs(vectors) ** 2
    total = mass.sum(axis=0)
    edge_fraction = mass[near_edge].sum(axis=0) / np.where(total == 0, 1.0, total)
    peak_sites = np.abs(sites[np.argmax(mass, axis=0)])
    return edge_fraction >= 0.5, section.window - peak_sites


def _check_dense_budget(window: int):
    if window > DENSE_BUDGET:
        raise ValueError(f"window {window} beyond dense solver budget {DENSE_BUDGET}")


def _section_eigensolve(op: BandedOperator, window: int, hermitian: bool = False):
    """Eigenvalues of the dense section of ``op`` with their edge-localisation tags.

    Returns ``(values, boundary_affected, edge_distance)``.
    """
    _check_dense_budget(window)
    section = op.finite_section(window)
    values, vectors = (np.linalg.eigh if hermitian else np.linalg.eig)(section.matrix)
    boundary, distance = _localisation_tags(section, vectors, 2 * max(1, op.bandwidth))
    return values, boundary, distance


def truncated_spectrum(params, window: int) -> TruncatedSpectrum:
    """All eigenvalues of the dense walk section, tagged by edge localisation."""
    _, walk_op = build_pair(params)
    return TruncatedSpectrum(window, *_section_eigensolve(walk_op, window))


@dataclass
class KernelWitness:
    window: int
    threshold: float
    singular_values: np.ndarray        # ascending
    small: list = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.small)

    @property
    def smallest(self) -> float:
        return float(self.singular_values[0])


def _singular_values_banded(a, bandwidth: int) -> np.ndarray:
    """All singular values, ascending, of a square sparse ``a`` of the given bandwidth.

    They are the non-negative eigenvalues of the Hermitian dilation
    [[0, a], [a*, 0]] (Golub & Kahan).  Interleaving its rows and columns as
    (row 0, col 0, row 1, col 1, ...) puts a[i, j] at (2i, 2j + 1), so the
    dilation has bandwidth 2 * bandwidth + 1 and one banded eigensolve
    yields every singular value.  Squaring into a* a instead would lose
    every singular value below about 1e-8.
    """
    size = a.shape[0]
    u = 2 * bandwidth + 1
    entries = a.tocoo()
    i, j, v = entries.row, entries.col, entries.data
    band = np.zeros((u + 1, 2 * size), dtype=complex)   # upper storage: H[r, c] at [u + r - c, c]
    upper = i <= j                                      # (2i, 2j + 1) lies above the diagonal
    band[u + 2 * i[upper] - 2 * j[upper] - 1, 2 * j[upper] + 1] = v[upper]
    lower = ~upper                                      # mirror image (2j + 1, 2i)
    band[u + 2 * j[lower] + 1 - 2 * i[lower], 2 * i[lower]] = v[lower].conj()
    eigenvalues = eigvals_banded(band, lower=False)     # ascending, +-sigma pairs
    return np.sort(np.abs(eigenvalues[size:]))


def kernel_witness(params: ModelParamsUm, window: int,
                   threshold: float = KERNEL_THRESHOLD,
                   phase: ParameterProfile | None = None) -> KernelWitness:
    """Near-kernel evidence from the off-diagonal block's finite section.

    Counts singular values below ``threshold`` of the interior-restricted
    square section.  For a Fredholm instance of index nu the count is at
    least |nu| once the window dominates the localisation length; it is a
    witness, not a signed index.
    """
    if window < 8 * abs(params.m):
        raise ValueError(f"window {window} below 8|m| = {8 * abs(params.m)}")
    block = offdiag_block(params, phase)
    k = block.bandwidth
    inner = block.sparse_section(window)[k:2 * window + 1 - k, k:2 * window + 1 - k]
    svals = _singular_values_banded(inner, k)
    small = [(float(s), rank) for rank, s in enumerate(svals) if s < threshold]
    return KernelWitness(window, threshold, svals, small)


@dataclass
class BoundStateCheck:
    window: int
    abs_index: int
    near_plus: int
    near_minus: int

    @property
    def count(self) -> int:
        return self.near_plus + self.near_minus


def bound_state_check(params: ModelParamsUm, window: int,
                      eig_tol: float = EIGENVALUE_TOL) -> BoundStateCheck:
    """Protected-state count for unitary instances.

    Counts interior (non edge-localised) eigenvalues of the truncated walk
    within ``eig_tol`` of +1 or -1 and checks the count against |index|.
    Only defined for unitary instances (vanishing gain); the non-unitary
    analogue is an open problem and deliberately not asserted.
    """
    if not params.is_unitary_instance():
        raise InvalidParameters("bound-state inequality applies to unitary instances only")
    report = compute_index(params)
    if not report.fredholm:
        raise VerificationError("bound states", "instance is not Fredholm")
    nu = abs(report.analytic_index)
    interior = truncated_spectrum(params, window).interior_eigenvalues()
    near_plus = int(np.sum(np.abs(interior - 1.0) < eig_tol))
    near_minus = int(np.sum(np.abs(interior + 1.0) < eig_tol))
    result = BoundStateCheck(window, nu, near_plus, near_minus)
    if result.count < nu:
        raise VerificationError(
            "bound states",
            f"found {result.count} interior states near +-1, index demands {nu}",
        )
    return result


def unitary_mapping_check(params: ModelParamsUm, window: int,
                          resolution: int = 2048) -> float:
    """Consistency of the imaginary-part spectra for unitary instances.

    The essential spectrum of the imaginary part is the image of the walk's
    essential spectrum under z -> (z - conj(z)) / 2i = Im z.  Returns the
    largest distance from an interior eigenvalue of the imaginary part's
    finite section to the mapped sampled cloud.  Discrete eigenvalues of the
    imaginary part (e.g. kernel modes of instances with non-zero index) are
    genuine outliers; run this on instances without them.
    """
    from .spectrum import essential_spectrum

    if not params.is_unitary_instance():
        raise InvalidParameters("mapping check applies to unitary instances only")
    result = essential_spectrum(params, resolution)
    mapped = np.concatenate([result.minus.cloud.imag, result.plus.cloud.imag])
    _, walk_op = build_pair(params)
    q_op = (walk_op - walk_op.adjoint()).scaled(1.0 / 2.0j)
    values, boundary, _ = _section_eigensolve(q_op, window, hermitian=True)
    interior_values = values[~boundary]
    if len(interior_values) == 0:
        return 0.0
    dist = np.abs(interior_values[:, None] - mapped[None, :]).min(axis=1)
    return float(dist.max())


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    window: int
    tolerance: float
    checks: list                       # (name, passed, detail) triples
    chiral_residual: float | None = None
    involution_residual: float | None = None
    equivalence_residual: float | None = None
    normalization: dict | None = None
    truncated: TruncatedSpectrum | None = None
    witness: KernelWitness | None = None
    bound_states: BoundStateCheck | None = None

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def run_verification(params, window: int, tol: float = RESIDUAL_TOL,
                     kernel_threshold: float = KERNEL_THRESHOLD) -> VerificationReport:
    """Full residual/witness suite for one parameter set."""
    report = VerificationReport(window=window, tolerance=tol, checks=[])

    def record(name, passed, detail):
        report.checks.append((name, bool(passed), detail))

    _check_dense_budget(window)
    um = reduce_to_um(params)

    report.normalization = normalization_residuals(um)
    for label, value in report.normalization.items():
        record(f"normalization {label}", value < 1e-10, f"residual {value:.3e}")

    grading_op, walk_op = build_pair(params)
    report.chiral_residual = chiral_residual_operators(grading_op, walk_op, window)
    record("chiral symmetry", report.chiral_residual < tol,
           f"residual {report.chiral_residual:.3e}")
    report.involution_residual = involution_residual_operators(grading_op, window)
    record("grading involution", report.involution_residual < tol,
           f"residual {report.involution_residual:.3e}")

    if um is not params:
        report.equivalence_residual = equivalence_residual(params, window)
        record("two-step reduction", report.equivalence_residual < tol,
               f"residual {report.equivalence_residual:.3e}")

    report.truncated = truncated_spectrum(params, window)
    record("dense eigensolve", True,
           f"{len(report.truncated.eigenvalues)} eigenvalues, "
           f"{int(report.truncated.boundary_affected.sum())} edge-localised")

    index_report = compute_index(um)
    if index_report.fredholm:
        nu = abs(index_report.analytic_index)
        # Witness windows must dominate the interface localisation length,
        # which grows with |m|; enlarge within the dense budget if short.
        witness_window = max(window, 8 * abs(um.m), 300)
        while True:
            report.witness = kernel_witness(um, witness_window, kernel_threshold)
            if report.witness.count >= nu or witness_window >= 600:
                break
            witness_window = min(2 * witness_window, 600)
        record("kernel witness", report.witness.count >= nu,
               f"{report.witness.count} singular values below "
               f"{kernel_threshold:.1e} at window {witness_window}, "
               f"index demands {nu}")
    else:
        record("kernel witness", True, "skipped: not Fredholm")

    if um.is_unitary_instance():
        try:
            report.bound_states = bound_state_check(um, window)
            record("bound states", True,
                   f"{report.bound_states.count} interior states near +-1 "
                   f">= |index| = {report.bound_states.abs_index}")
        except VerificationError as err:
            record("bound states", False, str(err))
    return report
