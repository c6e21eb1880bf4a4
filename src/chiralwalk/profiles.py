"""Eventually constant scalar sequences over the integer lattice.

A :class:`ParameterProfile` assigns a scalar to every site ``x`` of the
two-sided integer lattice.  Away from a finite set of override sites the value
is ``left_limit`` for ``x < 0`` and ``right_limit`` for ``x >= 0``, so the
two-sided limits exist by construction and every pointwise operation (sums,
products, shifts, elementwise functions) can be carried out exactly on the
three pieces of data.  A genuinely convergent sequence differs from such a
model only by a compact perturbation, which is invisible to the quantities
this package computes.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

MINUS_INF = "-inf"
PLUS_INF = "+inf"
STARS = (MINUS_INF, PLUS_INF)

REAL = "real"
COMPLEX = "complex"


def _as_scalar(v) -> complex:
    return complex(v)


@dataclass(frozen=True)
class ParameterProfile:
    """Two-phase lattice sequence with finitely many overrides.

    ``value_kind`` is ``"real"`` or ``"complex"``; real profiles must carry
    exactly zero imaginary part everywhere.
    """

    left_limit: complex
    right_limit: complex
    overrides: dict = field(default_factory=dict)
    value_kind: str = COMPLEX

    def __post_init__(self):
        left = _as_scalar(self.left_limit)
        right = _as_scalar(self.right_limit)
        cleaned = {}
        for site, v in self.overrides.items():
            site = int(site)
            v = _as_scalar(v)
            default = left if site < 0 else right
            if v != default:
                cleaned[site] = v
        values = (left, right, *cleaned.values())
        if not all(map(cmath.isfinite, values)):
            raise ValueError(f"profile holds non-finite value in {values}")
        if self.value_kind == REAL:
            bad = [v for v in values if v.imag != 0.0]
            if bad:
                raise ValueError(f"real profile holds non-real value {bad[0]}")
        elif self.value_kind != COMPLEX:
            raise ValueError(f"unknown value_kind {self.value_kind!r}")
        object.__setattr__(self, "left_limit", left)
        object.__setattr__(self, "right_limit", right)
        object.__setattr__(self, "overrides", cleaned)

    # -- construction -----------------------------------------------------

    @classmethod
    def constant(cls, v, kind: str = COMPLEX) -> "ParameterProfile":
        return cls(v, v, {}, kind)

    @classmethod
    def two_phase(cls, left, right, overrides=None, kind: str = COMPLEX) -> "ParameterProfile":
        return cls(left, right, dict(overrides or {}), kind)

    # -- evaluation -------------------------------------------------------

    def value(self, x: int) -> complex:
        v = self.overrides.get(x)
        if v is not None:
            return v
        return self.left_limit if x < 0 else self.right_limit

    def values(self, xs: np.ndarray) -> np.ndarray:
        """:meth:`value` at every site of the integer array ``xs``."""
        out = np.where(xs < 0, self.left_limit, self.right_limit)
        for site, v in self.overrides.items():
            out[xs == site] = v
        return out

    def limit(self, star: str) -> complex:
        if star == MINUS_INF:
            return self.left_limit
        if star == PLUS_INF:
            return self.right_limit
        raise ValueError(f"unknown endpoint tag {star!r}")

    @property
    def support_radius(self) -> int:
        """Smallest R such that the profile is constant on each side beyond |x| < R."""
        if not self.overrides:
            return 0
        return max(abs(s) for s in self.overrides) + 1

    # -- pointwise algebra -------------------------------------------------

    def _zip(self, other: "ParameterProfile", fn, kind: str) -> "ParameterProfile":
        sites = set(self.overrides) | set(other.overrides)
        return ParameterProfile(
            fn(self.left_limit, other.left_limit),
            fn(self.right_limit, other.right_limit),
            {x: fn(self.value(x), other.value(x)) for x in sites},
            kind,
        )

    def _combine_kind(self, other: "ParameterProfile") -> str:
        if self.value_kind == REAL and other.value_kind == REAL:
            return REAL
        return COMPLEX

    @staticmethod
    def _coerce(other) -> "ParameterProfile":
        if isinstance(other, ParameterProfile):
            return other
        kind = REAL if complex(other).imag == 0.0 else COMPLEX
        return ParameterProfile.constant(other, kind)

    def __add__(self, other):
        other = self._coerce(other)
        return self._zip(other, lambda u, v: u + v, self._combine_kind(other))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return self._zip(other, lambda u, v: u - v, self._combine_kind(other))

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        other = self._coerce(other)
        return self._zip(other, lambda u, v: u * v, self._combine_kind(other))

    __rmul__ = __mul__

    def __neg__(self):
        return self.apply(lambda v: -v, self.value_kind)

    def conj(self) -> "ParameterProfile":
        return self.apply(lambda v: v.conjugate(), self.value_kind)

    def abs(self) -> "ParameterProfile":
        return self.apply(lambda v: complex(abs(v)), REAL)

    def apply(self, fn, kind: str = COMPLEX) -> "ParameterProfile":
        """Elementwise map; exact because only three kinds of value exist."""
        return ParameterProfile(
            fn(self.left_limit),
            fn(self.right_limit),
            {x: fn(v) for x, v in self.overrides.items()},
            kind,
        )

    def real_map(self, fn) -> "ParameterProfile":
        """Apply a real function to the (real) values, keeping real kind."""
        return self.apply(lambda v: complex(fn(v.real)), REAL)

    def cis(self, sign: int = 1) -> "ParameterProfile":
        """exp(i * sign * value) for a real-valued profile."""
        return self.apply(lambda v: cmath.exp(1j * sign * v.real), COMPLEX)

    # -- lattice shift ------------------------------------------------------

    def shifted(self, s: int) -> "ParameterProfile":
        """Profile of x -> value(x + s).

        The regime boundary at x = 0 moves with the shift, so sites that
        change side are materialised as overrides.
        """
        s = int(s)
        sites = {x - s for x in self.overrides}
        sites.update(range(-s, 0) if s > 0 else range(0, -s))
        return ParameterProfile(
            self.left_limit,
            self.right_limit,
            {x: self.value(x + s) for x in sites},
            self.value_kind,
        )

    # -- comparison ---------------------------------------------------------

    def max_abs_diff(self, other: "ParameterProfile") -> float:
        sites = set(self.overrides) | set(other.overrides)
        worst = max(
            abs(self.left_limit - other.left_limit),
            abs(self.right_limit - other.right_limit),
        )
        for x in sites:
            worst = max(worst, abs(self.value(x) - other.value(x)))
        return worst

    def allclose(self, other: "ParameterProfile", tol: float = 1e-12) -> bool:
        return self.max_abs_diff(other) <= tol

    def max_abs(self) -> float:
        vals = [self.left_limit, self.right_limit, *self.overrides.values()]
        return max(abs(v) for v in vals)

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.max_abs() <= tol
