"""Construction of the lattice walk models and their gradings.

Two model families are provided.

* The m-step family ("um"): a unitary self-adjoint grading built from the
  profiles ``p``, ``q`` and a gain-dressed coin built from ``gamma``, ``a``,
  ``b``; the walk operator is grading times coin and satisfies the chiral
  relation ``walk* == grading @ walk @ grading`` exactly at coefficient level.
  The walk is unitary precisely when ``gamma`` vanishes identically.

* The two-step gain/loss family ("mko"): an eight-factor product of shifts,
  gain, phase and coin factors driven by the profiles ``gamma``, ``phi``,
  ``theta1``, ``theta2``.  :func:`mko_to_um` reduces it to an equivalent
  m=2 instance of the first family by an explicit unitary conjugation.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from .lattice import BandedOperator
from .profiles import STARS, ParameterProfile

NORMALIZATION_TOL = 1e-12
# Largest |gamma| for which the coin's gains exp(+-2 gamma) (and the cosh(2 gamma)
# of the endpoint formulas) are finite floats.
GAMMA_LIMIT = 0.5 * math.log(sys.float_info.max)
# Most circle samples of the numeric winding's grids and of the spectrum oracle;
# the winding starts from 64 (|m| + 1) samples, so no larger step is certified.
MAX_SAMPLES = 1 << 20
M_LIMIT = MAX_SAMPLES // 64 - 1
_TWO_PI = 2.0 * math.pi


class InvalidParameters(ValueError):
    """Model parameters violate a structural constraint."""


# ---------------------------------------------------------------------------
# parameter records
# ---------------------------------------------------------------------------

def _probe_sites(*profiles: ParameterProfile):
    """Sites that, together with the two limits, determine every profile."""
    sites = set()
    for prof in profiles:
        sites.update(prof.overrides)
    radius = max((p.support_radius for p in profiles), default=0) + 1
    sites.update((-radius, radius))
    return sorted(sites)


def normalization_residual(u: ParameterProfile, v: ParameterProfile) -> float:
    """Worst deviation of u(x)^2 + |v(x)|^2 from 1 over every determining site."""
    return max(
        abs(u.value(x).real ** 2 + abs(v.value(x)) ** 2 - 1.0) for x in _probe_sites(u, v)
    )


def _check_normalized(u: ParameterProfile, v: ParameterProfile, label: str):
    worst = normalization_residual(u, v)
    if worst > NORMALIZATION_TOL:
        raise InvalidParameters(f"{label} normalization violated by {worst:.3e}")


def _check_gain(gamma: ParameterProfile):
    """Reject a gain whose exp(2|gamma|) overflows (a range error, not a model constraint)."""
    worst = gamma.max_abs()
    if worst > GAMMA_LIMIT:
        raise ValueError(
            f"gamma = {worst:g} out of range: exp(2|gamma|) overflows beyond |gamma| = {GAMMA_LIMIT:.4f}"
        )


def _require_real(prof: ParameterProfile, name: str):
    vals = [prof.left_limit, prof.right_limit, *prof.overrides.values()]
    if any(v.imag != 0.0 for v in vals):
        raise InvalidParameters(f"profile {name} must be real-valued")


@dataclass(frozen=True)
class ModelParamsUm:
    """Parameters of the m-step model; validated on construction."""

    m: int
    gamma: ParameterProfile
    p: ParameterProfile
    a: ParameterProfile
    q: ParameterProfile
    b: ParameterProfile

    def __post_init__(self):
        if int(self.m) == 0:
            raise InvalidParameters("step size m must be a non-zero integer")
        object.__setattr__(self, "m", int(self.m))
        if abs(self.m) > M_LIMIT:
            raise ValueError(
                f"m = {self.m} out of range: the numeric winding certifies |m| <= {M_LIMIT}")
        for name in ("gamma", "p", "a"):
            _require_real(getattr(self, name), name)
        _check_gain(self.gamma)
        _check_normalized(self.p, self.q, "p^2 + |q|^2 = 1")
        _check_normalized(self.a, self.b, "a^2 + |b|^2 = 1")

    def is_unitary_instance(self) -> bool:
        return self.gamma.max_abs() <= NORMALIZATION_TOL


@dataclass(frozen=True)
class ModelParamsMko:
    """Parameters of the two-step gain/loss model."""

    gamma: ParameterProfile
    phi: ParameterProfile
    theta1: ParameterProfile
    theta2: ParameterProfile

    def __post_init__(self):
        for name in ("gamma", "phi", "theta1", "theta2"):
            _require_real(getattr(self, name), name)
        _check_gain(self.gamma)


def _principal_angle(w: complex) -> float:
    """arg(w) in [0, 2*pi), with the convention arg(0) = 0."""
    if w == 0:
        return 0.0
    return cmath.phase(w) % _TWO_PI


@dataclass(frozen=True)
class AsymptoticData:
    """Limit record of a parameter set at one endpoint of the lattice."""

    star: str
    p: float
    a: float
    gamma: float
    q: complex
    b: complex
    theta: float

    @classmethod
    def from_params(cls, params: ModelParamsUm, star: str) -> "AsymptoticData":
        if star not in STARS:
            raise ValueError(f"unknown endpoint tag {star!r}")
        q = params.q.limit(star)
        b = params.b.limit(star)
        return cls(
            star=star,
            p=params.p.limit(star).real,
            a=params.a.limit(star).real,
            gamma=params.gamma.limit(star).real,
            q=q,
            b=b,
            theta=_principal_angle(q),
        )


# ---------------------------------------------------------------------------
# phase assignments
# ---------------------------------------------------------------------------

def default_phase(q: ParameterProfile) -> ParameterProfile:
    """Sitewise argument of q in [0, 2*pi), zero where q vanishes."""
    return q.apply(_principal_angle)


def check_phase(q: ParameterProfile, theta: ParameterProfile):
    """Require q(x) = |q(x)| e^{i theta(x)} to 1e-10 on every determining site."""
    worst = 0.0
    for x in _probe_sites(q, theta):
        qv = q.value(x)
        worst = max(worst, abs(qv - abs(qv) * cmath.exp(1j * theta.value(x).real)))
    if worst > 1e-10:
        raise InvalidParameters(f"phase assignment inconsistent with q by {worst:.3e}")


def _resolve_phase(params: ModelParamsUm, phase: ParameterProfile | None) -> ParameterProfile:
    if phase is None:
        return default_phase(params.q)
    _require_real(phase, "phase")
    check_phase(params.q, phase)
    return phase


# ---------------------------------------------------------------------------
# m-step model operators
# ---------------------------------------------------------------------------

def grading_from_profiles(m: int, p: ParameterProfile, q: ParameterProfile) -> BandedOperator:
    """Unvalidated grading; use :func:`grading` for checked parameters."""
    return BandedOperator(2, {
        (0, 0, 0): p,
        (0, 1, m): q,
        (1, 0, -m): q.conj().shifted(-m),
        (1, 1, 0): -p.shifted(-m),
    })


def coin_profiles(gamma: ParameterProfile, a: ParameterProfile, b: ParameterProfile):
    """The three coin entries: diagonal gains alpha1, alpha2 and coupling beta."""
    alpha1 = gamma.shifted(1).real_map(lambda t: math.exp(-2.0 * t)) * a
    beta = (gamma - gamma.shifted(1)).real_map(math.exp) * b
    alpha2 = -(gamma.real_map(lambda t: math.exp(2.0 * t)) * a)
    return alpha1, beta, alpha2


def coin_from_profiles(gamma: ParameterProfile, a: ParameterProfile, b: ParameterProfile) -> BandedOperator:
    alpha1, beta, alpha2 = coin_profiles(gamma, a, b)
    return BandedOperator.multiplication([[alpha1, beta.conj()], [beta, alpha2]])


def grading(params: ModelParamsUm) -> BandedOperator:
    """The unitary self-adjoint grading of the two-component lattice space."""
    return grading_from_profiles(params.m, params.p, params.q)


def coin(params: ModelParamsUm) -> BandedOperator:
    """Self-adjoint gain-dressed coin (bandwidth 0)."""
    return coin_from_profiles(params.gamma, params.a, params.b)


def walk(params: ModelParamsUm) -> BandedOperator:
    """The m-step walk operator: grading composed with the coin."""
    return grading(params) @ coin(params)


# ---------------------------------------------------------------------------
# two-step gain/loss model
# ---------------------------------------------------------------------------

def _mko_factors(params: ModelParamsMko):
    g, phi = params.gamma, params.phi
    exp_p = g.real_map(math.exp)
    exp_m = g.real_map(lambda t: math.exp(-t))
    exp_p1 = g.shifted(1).real_map(math.exp)
    exp_m1 = g.shifted(1).real_map(lambda t: math.exp(-t))

    def coin_factor(theta):
        c = theta.real_map(math.cos)
        s = theta.real_map(math.sin) * 1j
        return BandedOperator.multiplication([[c, s], [s, c]])

    split_shift = BandedOperator(2, {(0, 0, 1): 1.0, (1, 1, -1): 1.0})
    gain = BandedOperator.multiplication([[exp_p, None], [None, exp_m1]])
    gain_inv = BandedOperator.multiplication([[exp_m, None], [None, exp_p1]])
    phase = BandedOperator.multiplication(
        [[phi.cis(+1), None], [None, phi.shifted(1).cis(-1)]]
    )
    return split_shift, gain, gain_inv, phase, coin_factor(params.theta1), coin_factor(params.theta2)


def mko_walk(params: ModelParamsMko) -> BandedOperator:
    """Literal factor-by-factor product of the two-step gain/loss evolution."""
    split, gain, gain_inv, phase, coin_one, coin_two = _mko_factors(params)
    out = split
    for factor in (gain, phase, coin_two, split, gain_inv, phase, coin_one):
        out = out @ factor
    return out


def mko_to_um(params: ModelParamsMko):
    """Reduce the two-step model to an m=2 instance plus its conjugator.

    Returns ``(params_um, eta)`` where ``eta`` is the unitary with
    ``eta* @ mko_walk @ eta == walk(params_um)`` at coefficient level.
    """
    th1s = params.theta1.shifted(1)
    p = -(th1s.real_map(math.sin))
    q = th1s.real_map(math.cos) * (-1j)
    a = params.theta2.real_map(math.sin)
    b = params.theta2.real_map(math.cos) * 1j * (params.phi + params.phi.shifted(1)).cis(+1)
    um = ModelParamsUm(m=2, gamma=params.gamma, p=p, a=a, q=q, b=b)

    sin1 = params.theta1.real_map(math.sin)
    cos1 = params.theta1.real_map(math.cos)
    coin_flip = BandedOperator.multiplication(
        [[sin1, cos1 * (-1j)], [cos1 * 1j, -sin1]]
    )
    shift_flip = BandedOperator(2, {(0, 1, 1): -1j, (1, 0, -1): 1j})
    eta = coin_flip @ shift_flip
    return um, eta


def reduce_to_um(params) -> ModelParamsUm:
    """The m-step parameters of either model family; m-step parameters pass through."""
    if isinstance(params, ModelParamsMko):
        return mko_to_um(params)[0]
    return params


def mko_grading(params: ModelParamsMko) -> BandedOperator:
    """Grading for the two-step model, transported through the conjugator."""
    um, eta = mko_to_um(params)
    return eta @ grading(um) @ eta.adjoint()


def walk_operator(params) -> BandedOperator:
    """The walk operator of either model family."""
    return mko_walk(params) if isinstance(params, ModelParamsMko) else walk(params)


def build_pair(params):
    """(grading, walk) operators of either model family."""
    grading_op = mko_grading(params) if isinstance(params, ModelParamsMko) else grading(params)
    return grading_op, walk_operator(params)


# ---------------------------------------------------------------------------
# grading eigenbasis and the off-diagonal block
# ---------------------------------------------------------------------------

def _half_weights(p: ParameterProfile):
    """sqrt(1 +- p), clamped against roundoff just past the endpoints."""
    root = lambda t: math.sqrt(max(0.0, t))
    return (1.0 + p).real_map(root), (1.0 - p).real_map(root)


def grading_eigenbasis(params: ModelParamsUm, phase: ParameterProfile | None = None) -> BandedOperator:
    """Unitary conjugation taking the grading to diag(1, -1) exactly."""
    theta = _resolve_phase(params, phase)
    m = params.m
    p_plus, p_minus = _half_weights(params.p)
    twist = BandedOperator(2, {
        (0, 0, 0): 1.0,
        (1, 1, -m): theta.cis(-1).shifted(-m),
    })
    rotation = BandedOperator.multiplication(
        [[p_plus, -p_minus], [p_minus, p_plus]]
    )
    return (twist @ rotation).scaled(1.0 / math.sqrt(2.0))


def offdiag_block(params: ModelParamsUm, phase: ParameterProfile | None = None) -> BandedOperator:
    """Off-diagonal block of the imaginary part in the grading eigenbasis.

    A scalar banded operator of bandwidth |m|; the index of the chiral pair
    equals its Fredholm index.
    """
    theta = _resolve_phase(params, phase)
    m = params.m
    p_plus, p_minus = _half_weights(params.p)
    alpha1, beta, alpha2 = coin_profiles(params.gamma, params.a, params.b)

    up = p_plus * theta.cis(+1) * beta.shifted(m) * p_plus.shifted(m)
    down = -(p_minus * beta.conj() * (theta.cis(-1) * p_minus).shifted(-m))
    diag = -(params.q.abs() * (alpha1 - alpha2.shifted(m)))
    minus_2i_block = BandedOperator(1, {
        (0, 0, m): up,
        (0, 0, -m): down,
        (0, 0, 0): diag,
    })
    return minus_2i_block.scaled(0.5j)
