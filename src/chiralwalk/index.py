"""Fredholm property and Witten index of the m-step walk.

The index is computed along three independent routes and must be unanimous:

1. the closed-form four-branch formula in the endpoint data,
2. winding numbers of the two endpoint symbols, m times (roots of the
   quadratic w f in w = z^m inside the unit circle - 1),
3. winding numbers accumulated numerically from circle samples of the same
   symbols, on a grid bisected only where the symbol nears zero until each
   interval's argument increment is certified by the symbol's slope bound.

The endpoint symbols are trigonometric polynomials read off the coefficient
limits of the off-diagonal block, times a unit phase at an endpoint where p
tends to +-1; route 3 consumes only those sampled values and the slope bound,
so it is independent of the root count used in route 2 and of the branch
logic used in route 1.  The roots' moduli also set the kernel witness's window.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .models import (
    MAX_SAMPLES,
    NORMALIZATION_TOL,
    AsymptoticData,
    ModelParamsUm,
    offdiag_block,
    _resolve_phase,
)
from .profiles import MINUS_INF, PLUS_INF, STARS, ParameterProfile

FREDHOLM_TIE_TOL = 1e-10
# A symbol sample is refused when |f| <= ROUNDOFF_GUARD * eps * (|leading|
# + |trailing| + 2|c|), the roundoff scale of evaluating f: its argument is
# noise there.  Near the tie min |f| stayed above 0.4 |margin| times that
# scale on seeded near-tie draws (|p| in [0.01, 0.999], |gamma| <= 3), so
# every input the tie rule calls Fredholm clears the guard with room to spare.
ROUNDOFF_GUARD = 1e3


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
    endpoint data or from the coefficient limits of the block
    (:func:`symbols_from_block`).
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


def symbols_from_block(params: ModelParamsUm, phase: ParameterProfile | None = None) -> dict:
    """Endpoint symbols read off the block's :meth:`~BandedOperator.endpoint_symbol`, times -2i.

    Where p tends to +1 (resp. -1), q vanishes, so its phase theta there is
    free, yet the block's leading (resp. trailing) limit carries e^{+i theta}
    (resp. e^{-i theta}).  The symbol is the limit of the block between
    multiplications by e^{-i theta} on the left (resp. e^{+i theta} on the
    right), and since every profile is eventually constant, each limit of
    that product is the product of the limits.
    """
    theta = _resolve_phase(params, phase)
    block = offdiag_block(params, theta)
    m = params.m
    out = {}
    for star in STARS:
        p = params.p.limit(star).real
        angle = theta.limit(star).real
        # a repair phase of 0 where p does not tend to +-1; exp(-+i 0) = 1 -+ 0i
        # (not 1) fixes the signed zeros of the products
        left = cmath.exp(-1j * (angle if abs(p - 1.0) <= NORMALIZATION_TOL else 0.0))
        right = cmath.exp(1j * (angle if abs(p + 1.0) <= NORMALIZATION_TOL else 0.0))
        limits = {y: (left * (complex(c[0, 0]) * -2j)) * right
                  for y, c in block.endpoint_symbol(star).items()}
        # a coefficient that vanishes identically is absent from the block and reads +0
        leading, trailing, diagonal = (limits.get(y, 0j) for y in (m, -m, 0))
        out[star] = SymbolFunction(star=star, m=m, c=(-diagonal / 2.0).real,
                                   leading=leading, trailing=trailing)
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
    tie: bool


def fredholm_margin(asym: AsymptoticData) -> EndpointDiagnostics:
    pg = p_gamma(asym)
    margin = abs(pg) - abs(asym.a)
    return EndpointDiagnostics(star=asym.star, p_gamma=pg, abs_a=abs(asym.a), margin=margin,
                               tie=abs(margin) < FREDHOLM_TIE_TOL)


def is_fredholm(minus: AsymptoticData, plus: AsymptoticData):
    """Fredholm flag plus the per-endpoint diagnostics.

    Ties within ``FREDHOLM_TIE_TOL`` are reported as not Fredholm rather than
    guessing a side; the dichotomy in the index formula is a strict inequality.
    """
    dm = fredholm_margin(minus)
    dp = fredholm_margin(plus)
    return not (dm.tie or dp.tie), (dm, dp)


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

def pencil_roots(sym: SymbolFunction) -> tuple:
    """Roots w of the pencil ``leading w^2 - 2 c w + trailing`` = -2i w f, w = z^m.

    Stable formula (roots c / q and q / a, |q| >= |b| / 2; none at a = 0) on
    the coefficients over their largest modulus, safe up to |gamma| = ``GAMMA_LIMIT``.
    """
    scale = max(abs(sym.leading), 2.0 * abs(sym.c), abs(sym.trailing))
    if scale == 0.0:
        raise NotFredholmError("symbol vanishes identically")
    a, b, c = sym.leading / scale, -2.0 * sym.c / scale, sym.trailing / scale
    q = -(b + math.copysign(1.0, b) * cmath.sqrt(b * b - 4.0 * a * c)) / 2.0
    if q == 0:                                   # b = a c = 0: a w^2, or the constant c
        return (0j, 0j) if a != 0 else ()
    return (c / q,) + ((q / a,) if a != 0 else ())


def winding_analytic(sym: SymbolFunction) -> int:
    """Winding of the endpoint symbol: m (pencil roots in |w| < 1, less 1).

    That is the argument principle for w = z^m; a root within 1e-12 of the
    circle raises :class:`NotFredholmError`.
    """
    roots = pencil_roots(sym)
    if any(abs(abs(w) - 1.0) < 1e-12 for w in roots):
        raise NotFredholmError("symbol vanishes on the unit circle (a pencil root has |w| = 1)")
    return sym.m * (sum(abs(w) < 1.0 for w in roots) - 1)


def winding_numeric(sym: SymbolFunction) -> int:
    """Winding of the symbol over the unit circle, accumulated from samples.

    Starts from the closed uniform grid of ``64 (|m| + 1)`` intervals (the
    sample at t = 0 is reused for t = 2 pi).  An interval [t0, t1] is
    certified when max(|f(t0)|, |f(t1)|) > 10 * slope_bound * (t1 - t0): f
    then stays in a disk of radius |f| / 10 around an endpoint value, so the
    principal argument of f(t1) / f(t0) is the true increment.  Every
    uncertified interval is bisected in one vectorised round (its midpoint is
    evaluated and merged into the grid) until all are certified, so samples
    concentrate only where the symbol nears zero.  The winding is the sum of
    the increments over 2 pi; it must be an integer to 1e-6 and equal the sum
    on the final grid bisected once more uniformly.

    Refuses with :class:`SymbolNearZeroError` when a sample has |f| within
    ``ROUNDOFF_GUARD`` eps of the symbol's scale |leading| + |trailing| +
    2|c| (the slope certificate proves each increment, so the guard covers
    only roundoff in f), or when a grid would need more than
    ``MAX_SAMPLES`` samples.
    """
    slope = sym.slope_bound()
    k = 64 * (abs(sym.m) + 1)
    t = 2.0 * np.pi * np.arange(k + 1) / k
    f = sym.evaluate(np.exp(1j * t[:-1]))
    _guard_samples(sym, f, k)
    f = np.append(f, f[0])
    while True:
        absf = np.abs(f)
        open_ = np.maximum(absf[:-1], absf[1:]) <= 10.0 * slope * np.diff(t)
        if not open_.any():
            break
        mid, values = _midpoint_values(sym, t, np.flatnonzero(open_))
        t = np.concatenate((t, mid))
        order = np.argsort(t, kind="stable")
        t, f = t[order], np.concatenate((f, values))[order]
    estimate = _winding_estimate(f)
    wn = round(estimate)
    if abs(estimate - wn) >= 1e-6:
        raise SymbolNearZeroError(
            f"winding estimate {estimate:.9f} is not an integer at {len(f) - 1} samples"
        )
    _, values = _midpoint_values(sym, t, np.arange(len(t) - 1))
    finer = np.empty(2 * len(f) - 1, dtype=complex)
    finer[0::2], finer[1::2] = f, values
    check = _winding_estimate(finer)
    if abs(check - wn) >= 1e-6:
        raise SymbolNearZeroError(
            f"winding estimates disagree: {estimate:.9f} at {len(f) - 1} samples, "
            f"{check:.9f} at {len(finer) - 1}"
        )
    return int(wn)


def _guard_samples(sym: SymbolFunction, values: np.ndarray, samples: int) -> None:
    fmin = float(np.min(np.abs(values)))
    scale = abs(sym.leading) + abs(sym.trailing) + 2.0 * abs(sym.c)
    if fmin <= ROUNDOFF_GUARD * np.finfo(float).eps * scale:
        raise SymbolNearZeroError(
            f"min |f| = {fmin:.3e} at {samples} samples is roundoff of the symbol's "
            f"scale {scale:.3e}; winding unreliable"
        )


def _midpoint_values(sym: SymbolFunction, t: np.ndarray, idx: np.ndarray):
    """Midpoints of the grid intervals ``idx`` and the symbol's values there."""
    samples = len(t) - 1 + len(idx)
    if samples > MAX_SAMPLES:
        raise SymbolNearZeroError(f"certifying the winding needs more than {MAX_SAMPLES} samples")
    mid = 0.5 * (t[idx] + t[idx + 1])
    values = sym.evaluate(np.exp(1j * mid))
    _guard_samples(sym, values, samples)
    return mid, values


def _winding_estimate(f: np.ndarray) -> float:
    """Sum of the principal argument increments of a closed sample loop, / 2 pi."""
    return float(np.sum(np.angle(f[1:] / f[:-1]))) / (2.0 * np.pi)


# ---------------------------------------------------------------------------
# the full report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IndexReport:
    """Fredholm flag, the index by all routes, and endpoint diagnostics."""

    fredholm: bool
    analytic_index: int | None
    wn_minus: int | None
    wn_plus: int | None
    wn_minus_num: int | None
    wn_plus_num: int | None
    endpoints: tuple


def compute_index(params: ModelParamsUm, phase: ParameterProfile | None = None) -> IndexReport:
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
            fredholm=False, analytic_index=None,
            wn_minus=None, wn_plus=None, wn_minus_num=None, wn_plus_num=None,
            endpoints=diagnostics,
        )
    analytic = witten_index_analytic(minus, plus, params.m)
    syms = symbols_from_block(params, phase)
    wn_minus = winding_analytic(syms[MINUS_INF])
    wn_plus = winding_analytic(syms[PLUS_INF])
    wn_minus_num = winding_numeric(syms[MINUS_INF])
    wn_plus_num = winding_numeric(syms[PLUS_INF])
    routes = {
        "formula": analytic,
        "winding": wn_plus - wn_minus,
        "winding numeric": wn_plus_num - wn_minus_num,
    }
    if len(set(routes.values())) != 1:
        raise IndexDisagreementError(f"index routes disagree: {routes}")
    return IndexReport(
        fredholm=True, analytic_index=analytic,
        wn_minus=wn_minus, wn_plus=wn_plus,
        wn_minus_num=wn_minus_num, wn_plus_num=wn_plus_num,
        endpoints=diagnostics,
    )
