"""Strictly local (banded block-Laurent) operators on l2(Z, C^n).

An operator is stored as a finite family of coefficient profiles
``a[i, j, y]`` with ``|y| <= k``: the (i, j) block acts as
``sum_y  a[i,j,y](x) * (shift^y)``, where ``(shift^y psi)(x) = psi(x + y)``.
All coefficients are eventually constant (:class:`ParameterProfile`), so
composition, adjoints and endpoint limits are computed exactly at the
coefficient level.  Matrices enter only through finite sections, assembled
from the same vectorised entries either as a sparse CSR array
(:meth:`BandedOperator.sparse_section`, for banded products and eigensolves) or
as a dense array (:meth:`BandedOperator.finite_section`, for full spectra).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .profiles import ParameterProfile


def _profile(v) -> ParameterProfile:
    if isinstance(v, ParameterProfile):
        return v
    kind = "real" if complex(v).imag == 0.0 else "complex"
    return ParameterProfile.constant(v, kind)


@dataclass(frozen=True)
class BandedOperator:
    """Banded block-Laurent operator with eventually constant coefficients.

    ``bandwidth`` is derived: the largest |y| among the non-zero coefficients.
    """

    block_size: int
    coeff: dict = field(default_factory=dict)
    bandwidth: int = field(init=False)

    def __post_init__(self):
        n = self.block_size
        if n < 1:
            raise ValueError("block_size must be positive")
        cleaned = {}
        width = 0
        for (i, j, y), prof in self.coeff.items():
            prof = _profile(prof)
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"block index ({i}, {j}) outside {n}x{n}")
            if prof.is_zero():
                continue
            cleaned[(i, j, int(y))] = prof
            width = max(width, abs(int(y)))
        object.__setattr__(self, "coeff", cleaned)
        object.__setattr__(self, "bandwidth", width)

    # -- construction -----------------------------------------------------

    @classmethod
    def identity(cls, block_size: int = 1) -> "BandedOperator":
        return cls(block_size, {(i, i, 0): 1.0 for i in range(block_size)})

    @classmethod
    def shift(cls, power: int, block_size: int = 1) -> "BandedOperator":
        """shift^power on each component: (psi_i)(x) -> psi_i(x + power)."""
        return cls(block_size, {(i, i, power): 1.0 for i in range(block_size)})

    @classmethod
    def multiplication(cls, entries) -> "BandedOperator":
        """Bandwidth-0 operator from an n x n array of profiles/scalars."""
        n = len(entries)
        coeff = {}
        for i, row in enumerate(entries):
            if len(row) != n:
                raise ValueError("entries must be square")
            for j, v in enumerate(row):
                if v is None:
                    continue
                coeff[(i, j, 0)] = _profile(v)
        return cls(n, coeff)

    # -- access -------------------------------------------------------------

    def coefficient(self, i: int, j: int, y: int) -> ParameterProfile:
        prof = self.coeff.get((i, j, y))
        if prof is None:
            return ParameterProfile.constant(0.0, "real")
        return prof

    def sub_block(self, i: int, j: int) -> "BandedOperator":
        """The (i, j) block as a scalar (block-size 1) operator."""
        coeff = {
            (0, 0, y): prof for (bi, bj, y), prof in self.coeff.items() if bi == i and bj == j
        }
        return BandedOperator(1, coeff)

    # -- algebra ------------------------------------------------------------

    def compose(self, other: "BandedOperator") -> "BandedOperator":
        """Exact coefficient-level product self @ other."""
        if self.block_size != other.block_size:
            raise ValueError(
                f"block size mismatch: {self.block_size} vs {other.block_size}"
            )
        acc: dict[tuple, ParameterProfile] = {}
        for (i, l, y1), a in self.coeff.items():
            for (l2, j, y2), b in other.coeff.items():
                if l2 != l:
                    continue
                term = a * b.shifted(y1)
                key = (i, j, y1 + y2)
                prev = acc.get(key)
                acc[key] = term if prev is None else prev + term
        return BandedOperator(self.block_size, acc)

    def __matmul__(self, other):
        return self.compose(other)

    def adjoint(self) -> "BandedOperator":
        coeff = {
            (j, i, -y): prof.conj().shifted(-y) for (i, j, y), prof in self.coeff.items()
        }
        return BandedOperator(self.block_size, coeff)

    def scaled(self, c) -> "BandedOperator":
        return BandedOperator(self.block_size, {k: prof * c for k, prof in self.coeff.items()})

    def __add__(self, other: "BandedOperator") -> "BandedOperator":
        if self.block_size != other.block_size:
            raise ValueError("block size mismatch")
        acc = dict(self.coeff)
        for key, prof in other.coeff.items():
            prev = acc.get(key)
            acc[key] = prof if prev is None else prev + prof
        return BandedOperator(self.block_size, acc)

    def __sub__(self, other: "BandedOperator") -> "BandedOperator":
        return self + other.scaled(-1.0)

    def __neg__(self):
        return self.scaled(-1.0)

    # -- comparison ----------------------------------------------------------

    def max_coeff_diff(self, other: "BandedOperator") -> float:
        keys = set(self.coeff) | set(other.coeff)
        worst = 0.0
        for i, j, y in keys:
            worst = max(worst, self.coefficient(i, j, y).max_abs_diff(other.coefficient(i, j, y)))
        return worst

    def allclose(self, other: "BandedOperator", tol: float = 1e-12) -> bool:
        return self.block_size == other.block_size and self.max_coeff_diff(other) <= tol

    @property
    def support_radius(self) -> int:
        return max((prof.support_radius for prof in self.coeff.values()), default=0)

    # -- finite sections -------------------------------------------------------

    def _section_triplets(self, window: int):
        """``(rows, cols, vals)`` of every entry of the section on [-N, N].

        Each coefficient ``(i, j, y)`` contributes one entry per site ``x``
        with ``x`` and ``x + y`` inside the window; no two coefficients share
        an entry.
        """
        N = int(window)
        k = self.bandwidth
        if N < k:
            raise ValueError(f"window {N} smaller than bandwidth {k}")
        n = self.block_size
        rows, cols, vals = [np.zeros(0, int)], [np.zeros(0, int)], [np.zeros(0, complex)]
        for (i, j, y), prof in self.coeff.items():
            xs = np.arange(max(-N, -N - y), min(N, N - y) + 1)
            rows.append((xs + N) * n + i)
            cols.append((xs + y + N) * n + j)
            vals.append(prof.values(xs))
        return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)

    def sparse_section(self, window: int) -> sparse.csr_array:
        """Compression to sites [-N, N] as a CSR array (same entries as :meth:`finite_section`)."""
        size = self.block_size * (2 * int(window) + 1)
        rows, cols, vals = self._section_triplets(window)
        return sparse.csr_array((vals, (rows, cols)), shape=(size, size))

    def finite_section(self, window: int) -> "FiniteSection":
        """Dense compression to sites [-N, N] with zero padding outside."""
        N = int(window)
        n = self.block_size
        size = n * (2 * N + 1)
        rows, cols, vals = self._section_triplets(N)
        # Scatter into zeros rather than densify the CSR array: only the band
        # is written, so untouched pages of a large section are never mapped.
        mat = np.zeros((size, size), dtype=complex)
        mat[rows, cols] += vals
        return FiniteSection(N, n, self.bandwidth, mat)


@dataclass
class FiniteSection:
    """Dense compression of a banded operator to the window [-N, N].

    Rows (and columns) within ``source_bandwidth`` of the window edge are
    boundary-affected: they differ from the rows of the infinite operator
    because the truncation drops matrix entries.  Comparisons should restrict
    to interior rows via :meth:`rows_within`.
    """

    window: int
    block_size: int
    source_bandwidth: int
    matrix: np.ndarray

    @property
    def size(self) -> int:
        return self.block_size * (2 * self.window + 1)

    def block_sites(self) -> np.ndarray:
        """Lattice site of each flat row index."""
        return np.repeat(np.arange(-self.window, self.window + 1), self.block_size)

    def rows_within(self, margin: int) -> np.ndarray:
        """Flat indices of block rows at distance >= margin from the edge."""
        sites = self.block_sites()
        return np.nonzero(np.abs(sites) <= self.window - margin)[0]

    def boundary_row_mask(self) -> np.ndarray:
        """True for rows flagged boundary-affected (within k of the edge)."""
        sites = self.block_sites()
        return np.abs(sites) > self.window - self.source_bandwidth


# Function forms of the two operations the benchmark's span tracer times by name
# (``perfbench/spans.py``); everything else calls the methods directly.

def compose(a: BandedOperator, b: BandedOperator) -> BandedOperator:
    return a.compose(b)


def finite_section(a: BandedOperator, window: int) -> FiniteSection:
    return a.finite_section(window)
