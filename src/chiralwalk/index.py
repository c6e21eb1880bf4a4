"""Fredholm property and Witten index of the m-step walk.

The index is computed along three independent routes and must be unanimous:

1. the closed-form four-branch formula in the endpoint data,
2. winding numbers of the two endpoint symbols read off an exact geometric
   argument (the symbol traces an ellipse, possibly degenerate),
3. winding numbers accumulated numerically from circle samples of the same
   symbols.

The endpoint symbols are trigonometric polynomials obtained as the
coefficient limits of the phase-repaired off-diagonal block; route 3 consumes
only those sampled values, so it is independent of the geometry used in
route 2 and of the branch logic used in route 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import BandedOperator
from .models import (
    AsymptoticData,
    ModelParamsUm,
    offdiag_block,
    phase_repair,
    _resolve_phase,
)
from .profiles import MINUS_INF, PLUS_INF, STARS, ParameterProfile

FREDHOLM_TIE_TOL = 1e-10


class NotFredholmError(RuntimeError):
    """The chiral pair is not Fredholm (or is a tie within tolerance)."""


class SymbolNearZeroError(RuntimeError):
    """The sampled symbol comes too close to the origin to trust a winding."""


class IndexDisagreementError(RuntimeError):
    """The three index routes disagree; this signals a bug, never swallowed."""


def sgn(x: float) -> int:
    """Sign with the convention sgn(0) = +1."""
    return 1 if x >= 0.0 else -1


def p_gamma(asym: AsymptoticData) -> float:
    """Gain-dressed endpoint weight of p; lies in [-1, 1]."""
    ch = math.cosh(2.0 * asym.gamma)
    return asym.p / math.sqrt(asym.p ** 2 + abs(asym.q) ** 2 * ch * ch)


# ---------------------------------------------------------------------------
# endpoint symbols
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolFunction:
    """Endpoint symbol of the off-diagonal block.

    Evaluates to ``(leading z^m + trailing z^-m - 2 c) / (-2i)`` on the unit
    circle.  ``c`` is real; the coefficients come either from the closed-form
    endpoint data or from the coefficient limits of the rephased block.
    """

    star: str
    m: int
    c: float
    leading: complex
    trailing: complex

    @classmethod
    def from_asymptotics(cls, asym: AsymptoticData, m: int) -> "SymbolFunction":
        c = abs(asym.q) * asym.a * math.cosh(2.0 * asym.gamma)
        phase = np.exp(1j * asym.theta)
        return cls(
            star=asym.star,
            m=m,
            c=c,
            leading=(asym.p + 1.0) * asym.b * phase,
            trailing=(asym.p - 1.0) * np.conj(asym.b) / phase,
        )

    def evaluate(self, z):
        z = np.asarray(z, dtype=complex)
        poly = self.leading * z ** self.m + self.trailing * z ** (-self.m) - 2.0 * self.c
        return poly / (-2.0j)

    def slope_bound(self) -> float:
        """Upper bound for |d/dt evaluate(e^{it})|."""
        return 0.5 * abs(self.m) * (abs(self.leading) + abs(self.trailing))


def rephased_block(params: ModelParamsUm, phase: ParameterProfile | None = None) -> BandedOperator:
    """-2i times the off-diagonal block, conjugated by the repair phases.

    The result is a scalar banded operator whose three coefficient profiles
    converge at both endpoints to the symbol coefficients.
    """
    theta = _resolve_phase(params, phase)
    theta_plus, theta_minus = phase_repair(params, theta)
    block = offdiag_block(params, theta).scaled(-2.0j)
    left = BandedOperator.multiplication([[theta_plus.cis(-1)]])
    right = BandedOperator.multiplication([[theta_minus.cis(+1)]])
    return left @ block @ right


def symbols_from_block(params: ModelParamsUm, phase: ParameterProfile | None = None) -> dict:
    """Endpoint symbols read off the rephased block's coefficient limits."""
    op = rephased_block(params, phase)
    m = params.m
    out = {}
    for star in STARS:
        leading = op.coefficient(0, 0, m).limit(star)
        trailing = op.coefficient(0, 0, -m).limit(star)
        c = -op.coefficient(0, 0, 0).limit(star) / 2.0
        out[star] = SymbolFunction(star=star, m=m, c=c.real, leading=leading, trailing=trailing)
    return out


# ---------------------------------------------------------------------------
# Fredholm test and the analytic index
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EndpointDiagnostics:
    star: str
    p_gamma: float
    abs_a: float
    margin: float
    fredholm: bool
    tie: bool


def fredholm_margin(asym: AsymptoticData, tie_tol: float = FREDHOLM_TIE_TOL) -> EndpointDiagnostics:
    pg = p_gamma(asym)
    margin = abs(pg) - abs(asym.a)
    tie = abs(margin) < tie_tol
    return EndpointDiagnostics(
        star=asym.star,
        p_gamma=pg,
        abs_a=abs(asym.a),
        margin=margin,
        fredholm=not tie,
        tie=tie,
    )


def is_fredholm(minus: AsymptoticData, plus: AsymptoticData, tie_tol: float = FREDHOLM_TIE_TOL):
    """Fredholm flag plus the per-endpoint diagnostics.

    Ties within tolerance are reported as not Fredholm rather than guessing
    a side; the dichotomy in the index formula is a strict inequality.
    """
    dm = fredholm_margin(minus, tie_tol)
    dp = fredholm_margin(plus, tie_tol)
    return dm.fredholm and dp.fredholm, (dm, dp)


def witten_index_analytic(minus: AsymptoticData, plus: AsymptoticData, m: int) -> int:
    """Closed-form index; raises :class:`NotFredholmError` on a tie."""
    ok, (dm, dp) = is_fredholm(minus, plus)
    if not ok:
        raise NotFredholmError(
            f"not Fredholm: margins {dm.margin:.3e} at -inf, {dp.margin:.3e} at +inf"
        )
    above_minus = dm.margin > 0
    above_plus = dp.margin > 0
    if not above_minus and not above_plus:
        branch = 0
    elif not above_minus and above_plus:
        branch = sgn(plus.p)
    elif above_minus and not above_plus:
        branch = -sgn(minus.p)
    else:
        branch = sgn(plus.p) - sgn(minus.p)
    return m * branch


# ---------------------------------------------------------------------------
# winding numbers
# ---------------------------------------------------------------------------

def winding_analytic(sym: SymbolFunction, asym: AsymptoticData) -> int:
    """Winding of the endpoint symbol from the ellipse geometry.

    The curve traced by the symbol is an ellipse centred on the real axis at
    distance |c| from the origin with horizontal semi-axis |p b| (a vertical
    segment when p b = 0).  The origin is encircled m*sgn(p) times when
    |p b| > |c|, never when |p b| < |c|, and the symbol vanishes somewhere on
    the circle when the two are equal.
    """
    pb = abs(asym.p * asym.b)
    c = abs(sym.c)
    if math.isclose(pb, c, rel_tol=1e-12, abs_tol=1e-14):
        raise NotFredholmError("symbol vanishes on the unit circle (|p b| = |c|)")
    if pb > c:
        return sym.m * sgn(asym.p)
    return 0


def winding_numeric(sym: SymbolFunction, samples: int | None = None,
                    guard: float = 1e-8, max_samples: int = 1 << 20) -> int:
    """Accumulated-argument winding of the symbol over the unit circle.

    Doubles the uniform sample count until two successive estimates agree and
    the sampled minimum of |f| exceeds ten times the per-step increment bound,
    which rules out phase aliasing.  Refuses with a diagnostic when the symbol
    comes within ``guard`` of the origin.
    """
    k = max(int(samples) if samples else 0, 64 * (abs(sym.m) + 1))
    slope = sym.slope_bound()
    prev = None
    while k <= max_samples:
        step = 2.0 * np.pi / k
        values = sym.evaluate(np.exp(1j * step * np.arange(k)))
        fmin = float(np.min(np.abs(values)))
        if fmin <= guard:
            raise SymbolNearZeroError(
                f"min |f| = {fmin:.3e} at {k} samples; winding unreliable"
            )
        total = float(np.sum(np.angle(np.roll(values, -1) / values)))
        estimate = total / (2.0 * np.pi)
        wn = round(estimate)
        quantized = abs(estimate - wn) < 1e-6
        safe = fmin > 10.0 * slope * step
        if quantized and safe and prev == wn:
            return int(wn)
        prev = wn if quantized else None
        k *= 2
    raise SymbolNearZeroError("winding estimates failed to stabilise")


# ---------------------------------------------------------------------------
# the full report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IndexReport:
    """Fredholm flag, the index by all routes, and endpoint diagnostics."""

    fredholm: bool
    m: int
    analytic_index: int | None
    wn_minus: int | None
    wn_plus: int | None
    wn_minus_num: int | None
    wn_plus_num: int | None
    endpoints: tuple


def compute_index(params: ModelParamsUm, phase: ParameterProfile | None = None,
                  samples: int | None = None) -> IndexReport:
    """Compute the index by all three routes and require unanimity.

    A non-Fredholm parameter set yields a report with ``fredholm=False`` and
    absent index fields.  A disagreement between routes raises
    :class:`IndexDisagreementError`.
    """
    minus = AsymptoticData.from_params(params, MINUS_INF)
    plus = AsymptoticData.from_params(params, PLUS_INF)
    ok, diagnostics = is_fredholm(minus, plus)
    if not ok:
        return IndexReport(
            fredholm=False, m=params.m, analytic_index=None,
            wn_minus=None, wn_plus=None, wn_minus_num=None, wn_plus_num=None,
            endpoints=diagnostics,
        )
    analytic = witten_index_analytic(minus, plus, params.m)
    syms = symbols_from_block(params, phase)
    wn_minus = winding_analytic(syms[MINUS_INF], minus)
    wn_plus = winding_analytic(syms[PLUS_INF], plus)
    wn_minus_num = winding_numeric(syms[MINUS_INF], samples)
    wn_plus_num = winding_numeric(syms[PLUS_INF], samples)
    routes = {
        "formula": analytic,
        "winding": wn_plus - wn_minus,
        "winding numeric": wn_plus_num - wn_minus_num,
    }
    if len(set(routes.values())) != 1:
        raise IndexDisagreementError(f"index routes disagree: {routes}")
    return IndexReport(
        fredholm=True, m=params.m, analytic_index=analytic,
        wn_minus=wn_minus, wn_plus=wn_plus,
        wn_minus_num=wn_minus_num, wn_plus_num=wn_plus_num,
        endpoints=diagnostics,
    )
