"""Finite-section numerical verification.

Everything here works on finite sections, deliberately independent of the
exact coefficient-level algebra: residuals are built from sections and their
conjugate transposes only (the section of an adjoint is the conjugate
transpose of the section).  Residuals and the kernel witness cost time
linear in the window: residuals compare sparse matrix products of finite
sections on interior rows; the witness holds the off-diagonal block as three
diagonals, factors their banded Hermitian dilation H once, shifted by half
the kernel threshold, and runs a block inverse iteration on (H^2 - s^2)^-1
(two solves on that one factorisation per step) that returns the near-kernel
singular values plus an upper bound on the next one, unless a
diagonal-dominance bound already shows that there is no near-kernel.  Dense
matrices appear only where a full spectrum is needed (truncated spectra,
which also give the bound states), and :data:`DENSE_BUDGET` bounds their window.

Both the walk and the off-diagonal block couple only sites ``step`` apart,
``step`` the gcd of their coefficient offsets (m for an m-step walk and its
block, 2 for the two-step walk).  One assembly, :func:`_class_ordered`,
orders a section's rows and columns by residue class of the sites mod
``step``, which makes the section a direct sum of one block per class.  The
walk's section is then solved by ``step`` dense eigensolves of size N/step,
and its dense memory scales with (N/step)^2.  The block's classes are
tridiagonal, and a unitary diagonal gauge on each side makes them real
without changing the singular values: the witness runs LAPACK's real band
solver (``dgbtrf``) on a dilation of bandwidth 3.

Walk sections are solved in real arithmetic.  The grading and the coin are
Hermitian and couple the sites along disjoint paths, so a diagonal phase
gauge D makes both factors real, and with them D* walk D; the two-step walk
gauges real the same way.  LAPACK's real eigensolver (``dgeev``) took 2.2-2.7
times less time than the complex one (``zgeev``) on a 402 x 402 walk section
(2-CPU x86_64 host, numpy's OpenBLAS), and D* A D has the eigenvalues of A
and eigenvectors of the same modulus, so the spectra and the edge tags are
those of the complex solve up to roundoff.  :func:`_phase_gauge` finds D
from the sparsity pattern alone; a section that no gauge makes real (the
check is 8 eps max|entry|) is solved complex.  The truncated spectrum of a
non-unitary walk is ill-conditioned at large gain: from gamma ~ 8 on, which
eigenvectors count as edge-localised depends on roundoff, so the real and
the complex solver can report different counts.

The chiral and two-step residuals are compared with the tolerance after
division by max(1, max|walk entry|): their roundoff is about eps times that
entry scale, which grows like exp(2|gamma|).  Their detail lines name the
scale whenever it exceeds 1.

Finite sections cannot compute a signed Fredholm index (square matrices have
index zero), so this module provides witnesses: counts of near-kernel
directions that must be at least |index| for large windows.  Signed index
computation lives in :mod:`chiralwalk.index`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .index import IndexReport, compute_index
from .lattice import BandedOperator
from .models import (
    InvalidParameters,
    ModelParamsMko,
    ModelParamsUm,
    build_pair,
    mko_to_um,
    mko_walk,
    normalization_residual,
    offdiag_block,
    reduce_to_um,
    walk,
    walk_operator,
)

DENSE_BUDGET = 2000
KERNEL_THRESHOLD = 1e-6
EIGENVALUE_TOL = 1e-6
WITNESS_SHIFT = KERNEL_THRESHOLD / 2
WITNESS_RESIDUAL_TOL = 1e-12
MAX_WITNESS_ITERATIONS = 500
# bandwidth of the interleaved dilation of a tridiagonal block (see _dilation_band)
_DILATION_BANDWIDTH = 3


class VerificationError(RuntimeError):
    """A finite-section check failed; the message starts with the check's name."""


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
    diff = sec_u.conj().T.tocsr() - sec_g @ sec_u @ sec_g
    return _interior_max(diff, window, walk_op.block_size, margin)


def involution_residual_operators(grading_op: BandedOperator, window: int) -> float:
    """Max interior entry of section(grading)^2 - identity."""
    n = grading_op.block_size
    sec = grading_op.sparse_section(window)
    diff = sec @ sec - BandedOperator.identity(n).sparse_section(window)
    return _interior_max(diff, window, n, 2 * grading_op.bandwidth)


def equivalence_residual(params: ModelParamsMko, window: int) -> float:
    """Interior residual of conjugator* @ mko walk @ conjugator - reduced walk."""
    um, eta = mko_to_um(params)
    walk_mko = mko_walk(params)
    margin = 2 * eta.bandwidth + walk_mko.bandwidth
    sec = walk_mko.sparse_section(window)
    s_eta = eta.sparse_section(window)
    conjugated = s_eta.conj().T.tocsr() @ sec @ s_eta
    reduced = walk(um).sparse_section(window)
    return _interior_max(conjugated - reduced, window, walk_mko.block_size, margin)


# ---------------------------------------------------------------------------
# dense spectra and the near-kernel witness
# ---------------------------------------------------------------------------

@dataclass
class TruncatedSpectrum:
    window: int
    eigenvalues: np.ndarray
    boundary_affected: np.ndarray      # bool per eigenvalue

    def interior_eigenvalues(self) -> np.ndarray:
        return self.eigenvalues[~self.boundary_affected]


def _localisation_tags(sites: np.ndarray, window: int, vectors: np.ndarray,
                       edge_width: int) -> np.ndarray:
    """Boundary tags per eigenvector: >= half the mass within edge_width of the edge.

    Row i of ``vectors`` sits at lattice site ``sites[i]`` of [-window, window].
    """
    near_edge = np.abs(sites) > window - edge_width
    mass = np.abs(vectors) ** 2
    total = mass.sum(axis=0)
    edge_fraction = mass[near_edge].sum(axis=0) / np.where(total == 0, 1.0, total)
    return edge_fraction >= 0.5


def _check_dense_budget(window: int):
    if window > DENSE_BUDGET:
        raise ValueError(f"window {window} beyond dense solver budget {DENSE_BUDGET}")


def _unit_phases(vals: np.ndarray) -> np.ndarray:
    """``vals / |vals|`` (1 at a 0), each first scaled by 2^-k to ~1 so |entry| cannot overflow."""
    _, exponent = np.frexp(np.maximum(np.abs(vals.real), np.abs(vals.imag)))
    scaled = np.ldexp(vals.real, -exponent) + 1j * np.ldexp(vals.imag, -exponent)
    return np.divide(scaled, np.abs(scaled), out=np.ones_like(scaled), where=scaled != 0)


def _phase_gauge(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, size: int) -> np.ndarray:
    """Unit-modulus ``d`` that makes ``vals * d[cols] / d[rows]`` real where a diagonal gauge can.

    One sweep over the pattern of a and a^T (the entries ``vals`` at
    ``(rows, cols)``) in O(nnz): a visited site u claims every unclaimed
    neighbour v with d[v] = d[u] conj(e) / |e|, where e = a[u, v], or
    conj(a[v, u]) when a[u, v] is 0, so every tree edge gauges to |e|.  The
    last claimed site is visited next (a stack, not a queue): tree paths
    between neighbouring sites then stay short, and the roundoff the phases
    pick up along a path does not grow with the window.  Every other entry
    is real exactly when the phases around its cycles cancel.
    """
    nz = vals != 0
    r, c, unit = rows[nz], cols[nz], _unit_phases(vals[nz])
    src, dst = np.concatenate([r, c]), np.concatenate([c, r])
    order = np.lexsort((dst, src))                   # stable: a[u, v] before conj(a[v, u])
    start = np.searchsorted(src[order], np.arange(size + 1)).tolist()
    targets = dst[order].tolist()
    phases = np.concatenate([unit.conj(), unit])[order].tolist()
    d = [0j] * size
    seen = bytearray(size)
    for root in range(size):
        if seen[root]:
            continue
        seen[root] = 1
        d[root] = 1 + 0j
        stack = [root]
        while stack:
            u = stack.pop()
            for k in range(start[u], start[u + 1]):
                v = targets[k]
                if not seen[v]:
                    seen[v] = 1
                    d[v] = d[u] * phases[k]
                    stack.append(v)
    return np.array(d)


def _real_gauge(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, size: int,
                d: np.ndarray | None = None) -> np.ndarray:
    """``vals`` gauged by ``d`` or :func:`_phase_gauge` and made real, or unchanged when that fails.

    The gauge counts as real when every gauged imaginary part is at most
    8 eps max|entry|; otherwise the ungauged complex ``vals`` come back.
    """
    d = _phase_gauge(rows, cols, vals, size) if d is None else d
    gauged = vals * d[cols] / d[rows]
    if np.all(np.abs(gauged.imag) <= 8 * np.finfo(float).eps * np.max(np.abs(vals), initial=0.0)):
        return gauged.real
    return vals


def _real_band(band: np.ndarray) -> np.ndarray:
    """D1* a D2 for the tridiagonal ``band``, real where unitary diagonals D1, D2 can make it so.

    ``band`` holds a[i, j] at [1 + i - j, j] (``solve_banded``'s (1, 1)
    layout).  One cumprod of unit phases along the chain r0, c0, r1, c1, ...,
    linked by a[i, i] (conjugated) and a[i + 1, i], gauges every link to its
    modulus (a zero link reads 1).  If the 8 eps rule of :func:`_real_gauge`
    then fails, its loop gauge runs on the same entries.
    """
    # links a[i, i - 1], conj a[i, i] per i; band[2, -1] is outside a (0), so r0 gets 1
    links = np.column_stack([_unit_phases(np.roll(band[2], 1)), _unit_phases(band[1]).conj()])
    k, j = np.nonzero(band)
    entries = (2 * (j + k - 1), 2 * j + 1, band[k, j], 2 * band.shape[1])   # r_i = 2i, c_j = 2j + 1
    chain = np.cumprod(links)            # a constant tail repeats one rounding of |link|
    vals = _real_gauge(*entries, chain / np.abs(chain))
    if np.iscomplexobj(vals):
        vals = _real_gauge(*entries)
    real = np.zeros(band.shape, dtype=vals.dtype)
    real[k, j] = vals
    return real


def _class_ordered(op: BandedOperator, window: int):
    """Entries of ``op``'s section with rows and columns ordered by residue class mod ``step``.

    ``op`` couples only sites ``step`` apart, ``step`` the gcd of its
    coefficient offsets (1 when it has none or only on-site ones), so this
    permutation makes its section the direct sum of one block per class.
    Returns ``(sites, starts, rows, cols, vals)``: the lattice site of each
    relabelled row, the ``step + 1`` class boundaries, and the
    :meth:`~BandedOperator.section_triplets` entries relabelled.  The sort
    is stable, so within a class the sites stay in ascending order.
    """
    offsets = np.array([y for _, _, y in op.coeff], dtype=int)
    step = int(np.gcd.reduce(offsets)) or 1
    rows, cols, vals = op.section_triplets(window)
    sites = np.repeat(np.arange(-window, window + 1), op.block_size)
    order = np.argsort(sites % step, kind="stable")
    position = np.argsort(order)                     # new index of each old row
    sites = sites[order]
    starts = np.searchsorted(sites % step, np.arange(step + 1))
    return sites, starts, position[rows], position[cols], vals


def _class_blocks(walk_op: BandedOperator, window: int):
    """Yield ``(sites, block)`` for each residue class of :func:`_class_ordered`.

    Each dense block of size N/step is scattered straight from the entries
    gauged by :func:`_real_gauge` (so walk sections reach LAPACK's real
    solver; the gauged D* A D is similar to A, with eigenvectors D* v of
    the same modulus), and only one block is built at a time: memory scales
    with (N/step)^2.
    """
    _check_dense_budget(window)
    sites, starts, rows, cols, vals = _class_ordered(walk_op, window)
    vals = _real_gauge(rows, cols, vals, len(sites))
    for lo, hi in zip(starts[:-1], starts[1:]):
        pick = (rows >= lo) & (rows < hi)
        block = np.zeros((hi - lo, hi - lo), dtype=vals.dtype)
        block[rows[pick] - lo, cols[pick] - lo] = vals[pick]
        yield sites[lo:hi], block


def truncated_spectrum(params, window: int) -> TruncatedSpectrum:
    """All eigenvalues of the dense walk section, tagged by edge localisation.

    One eigensolve per residue class (:func:`_class_blocks`), for
    N^3/step^2 work in all.  Each eigenvector is tagged on its own class's
    sites; values and tags come class by class, and the eigenvalues are
    always complex.
    """
    walk_op = walk_operator(params)
    values, tags = [], []
    for sites, block in _class_blocks(walk_op, window):
        class_values, vectors = np.linalg.eig(block)
        values.append(class_values)
        tags.append(_localisation_tags(sites, window, vectors, 2 * max(1, walk_op.bandwidth)))
    return TruncatedSpectrum(window, np.concatenate(values).astype(complex, copy=False),
                             np.concatenate(tags))


def section_eigenvalues(params, window: int) -> np.ndarray:
    """The eigenvalues of :func:`truncated_spectrum`, from eigenvalue-only solves.

    No eigenvectors means no edge tags; the values agree with
    :func:`truncated_spectrum`'s as a multiset up to roundoff, but not
    necessarily in order.
    """
    values = [np.linalg.eigvals(block) for _, block in _class_blocks(walk_operator(params), window)]
    return np.concatenate(values).astype(complex, copy=False)


@dataclass
class KernelWitness:
    """Near-kernel singular values of a section, then an upper bound on the next one.

    That last value is a Courant-Fischer bound that moves with the real gauge
    (by up to 99% between sign-equivalent gauges); it is no singular-value gap.
    """

    window: int
    singular_values: np.ndarray        # ascending; only the last is >= KERNEL_THRESHOLD

    @property
    def count(self) -> int:
        """Number of singular values below ``KERNEL_THRESHOLD``."""
        return int(np.sum(self.singular_values < KERNEL_THRESHOLD))


def _band_dot(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for the tridiagonal a in :func:`_real_band`'s layout and a block ``x``."""
    y = band[1, :, None] * x
    y[:-1] += band[0, 1:, None] * x[1:]
    y[1:] += band[2, :-1, None] * x[:-1]
    return y


def _dilation_band(a: np.ndarray) -> np.ndarray:
    """LAPACK general band storage (for ``?gbtrf``) of H - ``WITNESS_SHIFT`` I.

    H = [[0, a], [a*, 0]] is the Hermitian dilation of the square tridiagonal
    band ``a`` (Golub & Kahan): its eigenvalues are +-sigma for every singular
    value sigma of ``a``, with eigenvectors (x, +-y) for the singular vector
    pair (x, y).  Interleaving rows and columns as (row 0, col 0, row 1, col 1,
    ...) puts a[i, j] at (2i, 2j + 1), so H has bandwidth u = 3.  Entry (r, c)
    sits at [2u + r - c, c]; the top u rows hold the LU fill-in.  The band has
    the dtype of ``a``.
    """
    u = _DILATION_BANDWIDTH
    band = np.zeros((3 * u + 1, 2 * a.shape[1]), dtype=a.dtype, order="F")
    band[u, 1::2] = a[0]                             # a[i - 1, i] at (2i - 2, 2i + 1)
    band[2 * u - 1, 1::2] = a[1]                     # a[i, i] at (2i, 2i + 1)
    band[2 * u - 1, 2::2] = a[2, :-1].conj()         # conj a[i + 1, i] at (2i + 1, 2i + 2)
    for d in (1, 3):                                 # H is Hermitian: (c, r) mirrors (r, c)
        band[2 * u + d, :-d] = band[2 * u - d, d:].conj()
    band[2 * u] = -WITNESS_SHIFT
    return band


def _near_kernel_singular_values(a: np.ndarray, start_columns: int) -> np.ndarray:
    """Singular values of the tridiagonal band ``a`` below ``KERNEL_THRESHOLD``, then one bound.

    Block inverse iteration on (H^2 - s^2)^-1, H the dilation of
    :func:`_dilation_band` and s = ``WITNESS_SHIFT``, factored once as H - s
    (at 0, H is numerically singular).  J = diag(1, -1, 1, ...) in the
    interleaved order anticommutes with H, so (H + s)^-1 = -J (H - s)^-1 J, and
    each step is two banded solves on the one LU, a QR of the block's left
    (even) rows and one of its right (odd) rows, and Rayleigh-Ritz of H on the
    span of both: the Ritz values are the singular values of left* a right.
    The factorisation, the solves and the block all take the dtype of ``a``, so
    a real ``a`` runs in real arithmetic (``dgbtrf``/``dgbtrs``).

    H^2 = diag(a a*, a* a), so the two halves never mix: the left half
    iterates on (a a* - s^2)^-1 and the right on (a* a - s^2)^-1.  With
    s <= t / sqrt 2, t = ``KERNEL_THRESHOLD``, every singular value below t
    is amplified at least as much as every value above it, and the
    near-kernel gains about sigma_next^2 / s^2 per step over the rest, so
    it settles in one or two steps.  Values come from the compressed ``a``,
    not from a* a, so none below ~1e-8 is lost to squaring.

    The start block (``start_columns`` columns) comes from a fixed seed and
    doubles while every Ritz value is below t.  The halves converge
    separately, so the Ritz pairs above the near-kernel need not align
    across them.  The iteration stops once (i) every near-kernel pair has
    residual <= ``WITNESS_RESIDUAL_TOL``, (ii) every other pair is
    certified above t, by its two-sided residual r (s - r > t) or by the
    residual r2 = ||a* a y - rho y||, rho = ||a y||^2, of a* a at its right
    vector y (rho - r2 > t^2), and (iii) some right vector has rho - 2 r2 >
    t^2: its weight below t is at most (r2 / (rho - t^2))^2 < 1/4, so the
    block is not saturated by values that outrank the near-kernel.  Both
    certificates are kept: the one-sided test squares, so its roundoff is
    about eps ||a||^2, which exceeds t^2 once ||a|| is above ~70.  It
    raises :class:`VerificationError` when the block reaches the section
    size or after ``MAX_WITNESS_ITERATIONS`` steps.

    Returns the near-kernel values ascending, then sigma_min(a W), W the
    other right Ritz vectors (orthogonal to the near-kernel ones): by
    Courant-Fischer an upper bound on the next singular value, not that
    value converged: through the start block it depends on the real gauge of
    ``a`` (sign-equivalent gauges moved it by up to 99%), so it is no
    singular-value gap.  Every step costs time linear in the size of ``a``.

    Before iterating it computes Johnson's lower bound on sigma_min (C. R.
    Johnson, Linear Algebra Appl. 112, 1989), min_i (|a_ii| - (r_i + c_i) / 2)
    with r_i, c_i the off-diagonal absolute row and column sums.  When that
    exceeds ``KERNEL_THRESHOLD`` there is no near-kernel, and the smallest
    absolute column sum, which is >= ||a e_j|| >= sigma_min, is the bound.
    """
    size = a.shape[1]
    a_adj = np.conj([np.roll(a[2], 1), a[1], np.roll(a[0], -1)])    # a* in the same layout
    magnitudes = np.abs(a)
    diag = magnitudes[1]
    columns = magnitudes.sum(axis=0)
    off_diagonal = np.abs(a_adj).sum(axis=0) + columns - 2.0 * diag    # |a*|'s columns: |a|'s rows
    if np.min(diag - 0.5 * off_diagonal) > KERNEL_THRESHOLD:
        return np.array([np.min(columns)])
    # imported here, as in every section builder: index and spectrum load numpy only
    from scipy.linalg import get_lapack_funcs

    u = _DILATION_BANDWIDTH
    band = _dilation_band(a)
    gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (band,))
    lu, pivots, info = gbtrf(band, u, u, overwrite_ab=1)
    if info != 0:
        raise VerificationError(f"kernel witness: dilation singular at shift {WITNESS_SHIFT}")
    rng = np.random.default_rng(0)
    block = rng.standard_normal((2 * size, start_columns))
    for _ in range(MAX_WITNESS_ITERATIONS):
        if block.shape[1] >= size:
            raise VerificationError(
                f"kernel witness: block of {block.shape[1]} reached the section size {size}")
        # (H^2 - s^2)^-1 = -J (H - s)^-1 J (H - s)^-1; the outer -J only
        # flips the right half's sign, which its QR absorbs
        block = gbtrs(lu, u, u, np.asfortranarray(block, dtype=a.dtype), pivots, overwrite_b=1)[0]
        block[1::2] *= -1
        block = gbtrs(lu, u, u, block, pivots, overwrite_b=1)[0]
        left = np.linalg.qr(block[0::2])[0]
        right = np.linalg.qr(block[1::2])[0]
        image = _band_dot(a, right)
        p, values, qh = np.linalg.svd(left.conj().T @ image)
        left = left @ p
        right = right @ qh.conj().T
        image = image @ qh.conj().T                      # a @ right
        # ||H e - s e|| for the unit eigenvector estimate e = (x, y) / sqrt 2
        residuals = np.sqrt((np.linalg.norm(image - left * values, axis=0) ** 2
                             + np.linalg.norm(_band_dot(a_adj, left) - right * values,
                                              axis=0) ** 2) / 2)
        # Rayleigh quotient and residual of a* a at each right Ritz vector
        rho = np.linalg.norm(image, axis=0) ** 2
        right_residuals = np.linalg.norm(_band_dot(a_adj, image) - right * rho, axis=0)
        near = values < KERNEL_THRESHOLD
        certified = ((values - residuals > KERNEL_THRESHOLD)
                     | (rho - right_residuals > KERNEL_THRESHOLD ** 2))
        room = rho - 2.0 * right_residuals > KERNEL_THRESHOLD ** 2
        block = np.empty((2 * size, len(values)), dtype=a.dtype, order="F")
        block[0::2] = left
        block[1::2] = right
        if np.all(near):
            block = np.hstack([block, rng.standard_normal(block.shape)])
        elif (room.any() and np.all(residuals[near] <= WITNESS_RESIDUAL_TOL)
              and np.all(certified[~near])):
            bound = np.linalg.svd(image[:, ~near], compute_uv=False)[-1]
            return np.append(values[near][::-1], bound)
    raise VerificationError(
        f"kernel witness: no convergence in {MAX_WITNESS_ITERATIONS} block iterations")


def kernel_witness(params: ModelParamsUm, window: int) -> KernelWitness:
    """Near-kernel evidence from the off-diagonal block's finite section.

    Counts singular values below ``KERNEL_THRESHOLD`` of the interior-restricted
    square section.  For a Fredholm instance of index nu the count is at
    least |nu| once the window dominates the localisation length; it is a
    witness, not a signed index.  Computes only the near-kernel values and an
    upper bound on the next one, in time linear in the window; raises
    :class:`VerificationError` if the block iteration does not settle.

    The block has entries only at offsets +m, 0 and -m, so ordering its rows
    and columns by residue class mod |m| (:func:`_class_ordered`, a
    permutation, which keeps the singular values) splits it into |m|
    tridiagonal blocks, filled straight into a (3, size) band.  The interior
    rows and columns [k, 2 window + 1 - k) of the section, k the bandwidth, are
    the section at window - k.  :func:`_real_band` gauges it: D1* A D2 with
    unitary diagonal D1, D2 has the singular values of A, and it is real when
    every 4-cycle of the pattern has a real product.  The block's does: its
    diagonal is real up to the global factor i/2, and up(x) down(x + m) ~
    |beta|^2.
    """
    if window < 8 * abs(params.m):
        raise ValueError(f"window {window} below 8|m| = {8 * abs(params.m)}")
    block = offdiag_block(params)
    k = block.bandwidth
    _, _, rows, cols, vals = _class_ordered(block, window - k)
    if np.any(np.abs(rows - cols) > 1):
        raise ValueError("kernel witness: the class-ordered block is not tridiagonal")
    band = np.zeros((3, block.block_size * (2 * (window - k) + 1)), dtype=vals.dtype)
    band[1 + rows - cols, cols] = vals
    return KernelWitness(window, _near_kernel_singular_values(_real_band(band), 4 * k + 4))


@dataclass
class BoundStateCheck:
    window: int
    abs_index: int
    near_plus: int
    near_minus: int

    @property
    def count(self) -> int:
        return self.near_plus + self.near_minus


def bound_state_check(params: ModelParamsUm, window: int, index_report: IndexReport,
                      truncated: TruncatedSpectrum) -> BoundStateCheck:
    """Protected-state count for unitary instances.

    ``index_report`` is ``compute_index(params)`` and ``truncated`` is
    ``truncated_spectrum(params, window)``, both computed by the caller.
    Counts interior (non edge-localised) eigenvalues of ``truncated`` within
    ``EIGENVALUE_TOL`` of +1 or -1 and checks the count against |index|.
    Only defined for unitary instances (vanishing gain) that are Fredholm;
    the non-unitary analogue is an open problem and deliberately not asserted.
    """
    if not params.is_unitary_instance():
        raise InvalidParameters("bound-state inequality applies to unitary instances only")
    if not index_report.fredholm:
        raise VerificationError("bound states: instance is not Fredholm")
    if truncated.window != window:
        raise ValueError(f"truncated spectrum at window {truncated.window}, not {window}")
    nu = abs(index_report.analytic_index)
    interior = truncated.interior_eigenvalues()
    near_plus = int(np.sum(np.abs(interior - 1.0) < EIGENVALUE_TOL))
    near_minus = int(np.sum(np.abs(interior + 1.0) < EIGENVALUE_TOL))
    result = BoundStateCheck(window, nu, near_plus, near_minus)
    if result.count < nu:
        raise VerificationError(
            f"bound states: found {result.count} interior states near +-1, index demands {nu}")
    return result


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


def run_verification(params, window: int, tol: float) -> VerificationReport:
    """Full residual/witness suite for one parameter set."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tolerance {tol} must be finite and > 0")
    report = VerificationReport(window=window, tolerance=tol, checks=[])

    def record(name, passed, detail):
        report.checks.append((name, bool(passed), detail))

    _check_dense_budget(window)
    um = reduce_to_um(params)

    report.normalization = {
        "p^2+|q|^2": normalization_residual(um.p, um.q),
        "a^2+|b|^2": normalization_residual(um.a, um.b),
    }
    for label, value in report.normalization.items():
        record(f"normalization {label}", value < 1e-10, f"residual {value:.3e}")

    grading_op, walk_op = build_pair(params)
    # The roundoff of grading @ walk @ grading (and of the two-step
    # conjugation) is about eps * max|walk entry|, and walk entries grow like
    # exp(2|gamma|), so those two residuals are compared on that scale.
    scale = max(1.0, float(np.max(np.abs(walk_op.section_triplets(window)[2]), initial=0.0)))
    scale_note = f", entry scale {scale:.3e}" if scale > 1.0 else ""
    report.chiral_residual = chiral_residual_operators(grading_op, walk_op, window)
    record("chiral symmetry", report.chiral_residual / scale < tol,
           f"residual {report.chiral_residual:.3e}{scale_note}")
    report.involution_residual = involution_residual_operators(grading_op, window)
    record("grading involution", report.involution_residual < tol,
           f"residual {report.involution_residual:.3e}")

    if um is not params:
        report.equivalence_residual = equivalence_residual(params, window)
        record("two-step reduction", report.equivalence_residual / scale < tol,
               f"residual {report.equivalence_residual:.3e}{scale_note}")

    report.truncated = truncated_spectrum(params, window)
    record("dense eigensolve", True,
           f"{len(report.truncated.eigenvalues)} eigenvalues, "
           f"{int(report.truncated.boundary_affected.sum())} edge-localised")

    index_report = compute_index(um)
    if index_report.fredholm:
        nu = abs(index_report.analytic_index)
        # Witness windows must dominate the interface localisation length,
        # which grows with |m|; if the count is short the window doubles
        # once, up to 600.
        witness_window = max(window, 8 * abs(um.m), 300)
        try:
            while True:
                report.witness = kernel_witness(um, witness_window)
                if report.witness.count >= nu or witness_window >= 600:
                    break
                witness_window = min(2 * witness_window, 600)
        except VerificationError as err:
            record("kernel witness", False, f"{err} at window {witness_window}")
        else:
            record("kernel witness", report.witness.count >= nu,
                   f"{report.witness.count} singular values below "
                   f"{KERNEL_THRESHOLD:.1e} at window {witness_window}, "
                   f"index demands {nu}")
    else:
        record("kernel witness", True, "skipped: not Fredholm")

    if um.is_unitary_instance() and not index_report.fredholm:
        record("bound states", True, "skipped: not Fredholm")
    elif um.is_unitary_instance():
        # a two-step walk's own section can count other bound states than the
        # section of its reduction, so only an m-step walk reuses its spectrum.
        # The protected states split from +-1 like exp(-kappa window), with
        # kappa ~ 0.2 / |m| per site on the reference twins, so a count short
        # of |index| doubles the window once, up to DENSE_BUDGET.
        bound_window = window
        truncated = report.truncated if um is params else truncated_spectrum(um, window)
        while True:
            try:
                report.bound_states = bound_state_check(um, bound_window, index_report, truncated)
            except VerificationError as err:
                if bound_window < min(2 * window, DENSE_BUDGET):
                    bound_window = min(2 * window, DENSE_BUDGET)
                    truncated = truncated_spectrum(um, bound_window)
                    continue
                record("bound states", False, f"{err} at window {bound_window}")
            else:
                record("bound states", True,
                       f"{report.bound_states.count} interior states near +-1 at window "
                       f"{bound_window} >= |index| = {report.bound_states.abs_index}")
            break
    return report
