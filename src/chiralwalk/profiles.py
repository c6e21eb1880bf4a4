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


@dataclass(frozen=True)
class ParameterProfile:
    """Two-phase lattice sequence with finitely many overrides.

    Every value is stored as a finite ``complex``; override sites whose value
    equals the limit on their side are dropped.  Whether a parameter must be
    real is a property of the model, checked there (:mod:`chiralwalk.models`).
    """

    left_limit: complex
    right_limit: complex
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        left = complex(self.left_limit)
        right = complex(self.right_limit)
        cleaned = {}
        for site, v in self.overrides.items():
            site = int(site)
            v = complex(v)
            default = left if site < 0 else right
            if v != default:
                cleaned[site] = v
        values = (left, right, *cleaned.values())
        if not all(map(cmath.isfinite, values)):
            raise ValueError(f"profile holds non-finite value in {values}")
        object.__setattr__(self, "left_limit", left)
        object.__setattr__(self, "right_limit", right)
        object.__setattr__(self, "overrides", cleaned)

    # -- construction -----------------------------------------------------

    @classmethod
    def constant(cls, v) -> "ParameterProfile":
        return cls(v, v, {})

    @classmethod
    def coerce(cls, v) -> "ParameterProfile":
        """``v`` itself if it is a profile, else the constant profile of the scalar ``v``."""
        return v if isinstance(v, ParameterProfile) else cls.constant(v)

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

    def _zip(self, other, fn) -> "ParameterProfile":
        other = ParameterProfile.coerce(other)
        sites = set(self.overrides) | set(other.overrides)
        return ParameterProfile(
            fn(self.left_limit, other.left_limit),
            fn(self.right_limit, other.right_limit),
            {x: fn(self.value(x), other.value(x)) for x in sites},
        )

    def __add__(self, other):
        return self._zip(other, lambda u, v: u + v)

    __radd__ = __add__

    def __sub__(self, other):
        return self._zip(other, lambda u, v: u - v)

    def __rsub__(self, other):
        return ParameterProfile.coerce(other).__sub__(self)

    def __mul__(self, other):
        return self._zip(other, lambda u, v: u * v)

    __rmul__ = __mul__

    def __neg__(self):
        return self.apply(lambda v: -v)

    def conj(self) -> "ParameterProfile":
        return self.apply(lambda v: v.conjugate())

    def abs(self) -> "ParameterProfile":
        return self.apply(abs)

    def apply(self, fn) -> "ParameterProfile":
        """Elementwise map; exact because a profile holds only its limits and overrides."""
        return ParameterProfile(
            fn(self.left_limit),
            fn(self.right_limit),
            {x: fn(v) for x, v in self.overrides.items()},
        )

    def real_map(self, fn) -> "ParameterProfile":
        """Apply a real function to the real parts of the values."""
        return self.apply(lambda v: fn(v.real))

    def cis(self, sign: int) -> "ParameterProfile":
        """exp(i * sign * value) for a real-valued profile."""
        return self.apply(lambda v: cmath.exp(1j * sign * v.real))

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

    def is_zero(self) -> bool:
        return self.max_abs() == 0.0
