"""Strictly local (banded block-Laurent) operators on l2(Z, C^n).

An operator is stored as a finite family of coefficient profiles
``a[i, j, y]`` with ``|y| <= k``: the (i, j) block acts as
``sum_y  a[i,j,y](x) * (shift^y)``, where ``(shift^y psi)(x) = psi(x + y)``.
All coefficients are eventually constant (:class:`ParameterProfile`), so
composition, adjoints and endpoint limits (:meth:`BandedOperator.endpoint_symbol`,
the one source of every endpoint symbol) are computed exactly at the
coefficient level.  Matrices enter only through finite sections, all built
from one assembly, :meth:`BandedOperator.section_diagonals`: one array per
coefficient over the window's row sites.  :mod:`chiralwalk.verify`
multiplies those diagonals for its residuals and strides them into one
section per residue class for its dense eigensolves and kernel witness.
:func:`section_triplets` is the flat ``(rows, cols, vals)`` view of any
section in that layout; :meth:`BandedOperator.finite_section` scatters it
into a dense array (the dense reference the tests compare against).  No
sparse matrix is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .profiles import ParameterProfile


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
            prof = ParameterProfile.coerce(prof)
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
    def identity(cls, block_size: int) -> "BandedOperator":
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
                coeff[(i, j, 0)] = ParameterProfile.coerce(v)
        return cls(n, coeff)

    # -- access -------------------------------------------------------------

    def coefficient(self, i: int, j: int, y: int) -> ParameterProfile:
        prof = self.coeff.get((i, j, y))
        if prof is None:
            return ParameterProfile.constant(0.0)
        return prof

    def endpoint_symbol(self, star: str) -> dict:
        """Limits at ``star`` as ``{y: C_y}``, the symbol sum_y C_y z^y (+0 where no coefficient)."""
        out = {}
        for (i, j, y), prof in self.coeff.items():
            out.setdefault(y, np.zeros((self.block_size,) * 2, complex))[i, j] = prof.limit(star)
        return out

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

    # -- comparison ----------------------------------------------------------

    def max_coeff_diff(self, other: "BandedOperator") -> float:
        keys = set(self.coeff) | set(other.coeff)
        worst = 0.0
        for i, j, y in keys:
            worst = max(worst, self.coefficient(i, j, y).max_abs_diff(other.coefficient(i, j, y)))
        return worst

    def allclose(self, other: "BandedOperator", tol: float = 1e-12) -> bool:
        return self.block_size == other.block_size and self.max_coeff_diff(other) <= tol

    # -- finite sections -------------------------------------------------------

    def section_diagonals(self, window: int) -> dict:
        """The section on sites [-N, N] as ``{(i, j, y): values}``, one diagonal per coefficient.

        ``values[x + N]`` is the entry at row (x, i), column (x + y, j) for
        every row site x of the window, and 0 where x + y leaves the window.
        This is the only code that evaluates coefficient profiles on a window.
        """
        N = int(window)
        k = self.bandwidth
        if N < k:
            raise ValueError(f"window {N} smaller than bandwidth {k}")
        xs = np.arange(-N, N + 1)
        out = {}
        for (i, j, y), prof in self.coeff.items():
            vals = prof.values(xs)
            vals[:max(0, -y)] = 0.0
            vals[len(xs) - max(0, y):] = 0.0
            out[(i, j, y)] = vals
        return out

    def finite_section(self, window: int) -> "FiniteSection":
        """Dense compression to sites [-N, N] with zero padding outside."""
        N = int(window)
        n = self.block_size
        size = n * (2 * N + 1)
        rows, cols, vals = section_triplets(self.section_diagonals(N), n)
        # Only the band is written, so untouched pages of a large section are never mapped.
        mat = np.zeros((size, size), dtype=complex)
        mat[rows, cols] += vals
        return FiniteSection(N, n, mat)


@dataclass
class FiniteSection:
    """Dense compression of a banded operator to the window [-N, N].

    Rows (and columns) within the source operator's ``bandwidth`` of the
    window edge are boundary-affected: they differ from the rows of the
    infinite operator because the truncation drops matrix entries.
    """

    window: int
    block_size: int
    matrix: np.ndarray

    def block_sites(self) -> np.ndarray:
        """Lattice site of each flat row index."""
        return np.repeat(np.arange(-self.window, self.window + 1), self.block_size)


def section_triplets(diagonals: dict, block_size: int):
    """``(rows, cols, vals)`` of every entry of a section in the :meth:`~BandedOperator.section_diagonals` layout.

    Diagonal ``(i, j, y)`` puts the entry of each row site x (counted from
    0) whose column x + y is in the section at (x n + i, (x + y) n + j), n
    the block size; no two diagonals share an entry.
    """
    n = block_size
    rows, cols, vals = [np.zeros(0, int)], [np.zeros(0, int)], [np.zeros(0, complex)]
    for (i, j, y), diag in diagonals.items():
        lo, hi = max(0, -y), min(len(diag), len(diag) - y)
        rows.append(np.arange(lo, hi) * n + i)
        cols.append(np.arange(lo + y, hi + y) * n + j)
        vals.append(diag[lo:hi])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


# Function forms of the two operations the benchmark's span tracer times by name
# (``perfbench/spans.py``); everything else calls the methods directly.

def compose(a: BandedOperator, b: BandedOperator) -> BandedOperator:
    return a.compose(b)


def finite_section(a: BandedOperator, window: int) -> FiniteSection:
    return a.finite_section(window)
