"""Essential spectrum of the m-step walk: closed form and sampling oracle.

The essential spectrum is the union over both lattice endpoints of a set that
is a finite union of unit-circle arcs and real segments.  Each endpoint set is
classified by how the gain magnitude compares with a closed interval
``[gamma_minus, gamma_plus]``:

* Case I   -- arcs only (the set lies on the unit circle),
* Case II  -- one arc joined to one real segment through +1 or -1,
* Case III -- real segments only.

The closed-form sets are exact symbolic objects (interval endpoints).  An
independent oracle samples eigenvalues of the 2x2 endpoint symbol over the
unit circle; agreement is measured by a two-sided Hausdorff distance with a
derivative-calibrated tolerance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .index import sgn
from .models import AsymptoticData, ModelParamsUm
from .profiles import MINUS_INF, PLUS_INF, STARS

CASE_I = "I"
CASE_II = "II"
CASE_III = "III"

_CLAMP = 1e-12


def g_map(x: float) -> float:
    """x + sqrt(x^2 - 1) on |x| >= 1; satisfies g(x) * g(-x) = -1.

    Once x^2 - 1 rounds to x^2 (x beyond about 1e8) the value is 2x: the
    same float there, and still finite where x^2 overflows (x up to half the
    largest float, e.g. every lambda_+ with |gamma| <= GAMMA_LIMIT).
    """
    ax = abs(x)
    if ax < 1.0 - _CLAMP:
        raise ValueError(f"g_map requires |x| >= 1, got {x}")
    if ax < 1.0:
        x = math.copysign(1.0, x)
    if x > 0.0 and x * x - 1.0 == x * x:
        return 2.0 * x
    return x + math.sqrt(x * x - 1.0)


@dataclass(frozen=True)
class EndpointSpectrumData:
    """Scalar data controlling the endpoint spectrum classification."""

    star: str
    s: int
    lam_minus: float
    lam_plus: float
    gamma_minus: float
    gamma_plus: float

    @classmethod
    def from_asymptotics(cls, asym: AsymptoticData) -> "EndpointSpectrumData":
        pa = abs(asym.p * asym.a)
        qb = abs(asym.q * asym.b)
        lam_plus = pa * math.cosh(2.0 * asym.gamma) + qb
        lam_minus = pa * math.cosh(2.0 * asym.gamma) - qb
        if pa == 0.0:
            g_minus = g_plus = math.inf
        else:
            # (1 -+ qb)/pa >= 1 whenever the model constraints hold; clamp
            # roundoff below the branch point of acosh.
            g_minus = 0.5 * math.acosh(max(1.0, (1.0 - qb) / pa))
            g_plus = 0.5 * math.acosh(max(1.0, (1.0 + qb) / pa))
        return cls(
            star=asym.star,
            s=sgn(asym.p * asym.a),
            lam_minus=max(lam_minus, -1.0),
            lam_plus=lam_plus,
            gamma_minus=g_minus,
            gamma_plus=g_plus,
        )


def classify_case(data: EndpointSpectrumData, gamma_star: float) -> str:
    """Case tag by the non-strict boundary conventions.

    Boundary values belong to the closed side (Case I at the lower boundary,
    Case III at the upper one).  When the interval degenerates so that both
    closed conditions hold, Case I is returned and the overlap is flagged.
    """
    g = abs(gamma_star)
    in_case_i = g <= data.gamma_minus
    in_case_iii = data.gamma_plus <= g
    if in_case_i and in_case_iii:
        warnings.warn(
            "degenerate boundary: both Case I and Case III conditions hold; "
            "classifying as Case I",
            stacklevel=2,
        )
    if in_case_i:
        return CASE_I
    if in_case_iii:
        return CASE_III
    return CASE_II


# ---------------------------------------------------------------------------
# spectral sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralSet:
    """Finite union of unit-circle arcs and real segments.

    Arcs are stored as real-part ranges: the pair ``(u, v)`` denotes
    ``{z on the unit circle with u <= Re z <= v}`` (symmetric about the real
    axis).  Segments are closed real intervals; reciprocal pairs of points
    appear together, so a segment may reach from inside the unit disk to
    outside it, crossing the circle at +1 or -1.
    """

    arcs: tuple
    segments: tuple
    case_tag: str
    sign_tag: int

    def __post_init__(self):
        for u, v in self.arcs:
            if not (-1.0 - _CLAMP <= u <= v <= 1.0 + _CLAMP):
                raise ValueError(f"arc bounds ({u}, {v}) outside [-1, 1]")
        for u, v in self.segments:
            if not (u <= v and (u > 0.0 if self.sign_tag == 1 else v < 0.0)):
                raise ValueError(
                    f"segment ({u}, {v}) must sit on the sign-{self.sign_tag:+d} "
                    "side of the real axis"
                )
        if self.case_tag == CASE_I and self.segments:
            raise ValueError("Case I carries no segments")
        if self.case_tag == CASE_III and self.arcs:
            raise ValueError("Case III carries no arcs")
        if self.case_tag == CASE_II:
            if not (len(self.arcs) == 1 and len(self.segments) == 1):
                raise ValueError("Case II carries exactly one arc and one segment")
            pole = float(self.sign_tag)
            (arc,) = self.arcs
            (seg,) = self.segments
            arc_touches = abs((arc[1] if self.sign_tag == 1 else arc[0]) - pole) <= _CLAMP
            seg_through = seg[0] - _CLAMP <= pole <= seg[1] + _CLAMP
            if not (arc_touches and seg_through):
                raise ValueError(f"Case II pieces must join at {pole:+.0f}")

    # -- geometry ---------------------------------------------------------

    def _arc_angle_ranges(self):
        """Angular intervals [alpha, beta] in [0, pi] for |angle| membership."""
        out = []
        for u, v in self.arcs:
            alpha = math.acos(min(1.0, max(-1.0, v)))
            beta = math.acos(min(1.0, max(-1.0, u)))
            out.append((alpha, beta))
        return out

    def distance(self, points) -> np.ndarray:
        """Euclidean distance from each point to the set (inf when empty)."""
        w = np.asarray(points, dtype=complex)
        r = np.abs(w)
        psi = np.abs(np.angle(w))
        best = np.full(w.shape, np.inf)
        for alpha, beta in self._arc_angle_ranges():
            inside = (psi >= alpha) & (psi <= beta)
            tau = np.clip(psi, alpha, beta)
            d_edge = np.sqrt(np.maximum(r * r + 1.0 - 2.0 * r * np.cos(psi - tau), 0.0))
            d = np.where(inside, np.abs(r - 1.0), d_edge)
            best = np.minimum(best, d)
        for u, v in self.segments:
            nearest = np.clip(w.real, u, v)
            d = np.hypot(w.real - nearest, w.imag)
            best = np.minimum(best, d)
        return best

    def contains(self, z, tol: float = 1e-9) -> bool:
        return bool(np.all(self.distance(np.atleast_1d(z)) <= tol))

    def sample(self, count: int) -> np.ndarray:
        """Deterministic discretisation, density proportional to length."""
        pieces = []
        lengths = []
        for alpha, beta in self._arc_angle_ranges():
            lengths.append(2.0 * max(beta - alpha, 1e-12))
        for u, v in self.segments:
            lengths.append(max(v - u, 1e-12))
        total = sum(lengths)
        if total == 0.0:
            return np.empty(0, dtype=complex)
        quota = [max(4, int(round(count * ln / total))) for ln in lengths]
        i = 0
        for alpha, beta in self._arc_angle_ranges():
            t = np.linspace(alpha, beta, quota[i])
            pieces.append(np.exp(1j * t))
            pieces.append(np.exp(-1j * t))
            i += 1
        for u, v in self.segments:
            pieces.append(np.linspace(u, v, quota[i]).astype(complex))
            i += 1
        return np.concatenate(pieces)


def sigma_star(asym: AsymptoticData) -> SpectralSet:
    """Closed-form endpoint set per the Case I/II/III, sign = +-1 table."""
    data = EndpointSpectrumData.from_asymptotics(asym)
    case = classify_case(data, asym.gamma)
    s = data.s
    lm, lp = data.lam_minus, data.lam_plus
    if case == CASE_I:
        lo, hi = max(-1.0, lm), min(1.0, lp)
        arcs = ((lo, hi),) if s == 1 else ((-hi, -lo),)
        return SpectralSet(arcs, (), CASE_I, s)
    if case == CASE_II:
        gp = g_map(max(1.0, lp))
        if s == 1:
            return SpectralSet(((max(-1.0, lm), 1.0),), ((1.0 / gp, gp),), CASE_II, s)
        return SpectralSet(((-1.0, -max(-1.0, lm)),), ((-gp, -1.0 / gp),), CASE_II, s)
    gm = g_map(max(1.0, lm))
    gp = g_map(max(1.0, lp))
    if s == 1:
        return SpectralSet((), ((1.0 / gp, 1.0 / gm), (gm, gp)), CASE_III, s)
    return SpectralSet((), ((-gp, -gm), (-1.0 / gm, -1.0 / gp)), CASE_III, s)


# ---------------------------------------------------------------------------
# symbol sampling oracle
# ---------------------------------------------------------------------------

def symbol_matrix(asym: AsymptoticData, z, m: int) -> np.ndarray:
    """The 2x2 endpoint symbol of the walk; z may be an array (unit circle)."""
    z = np.asarray(z, dtype=complex)
    zm = z ** m
    zmi = z ** (-m)
    e_plus = math.exp(2.0 * asym.gamma)
    e_minus = math.exp(-2.0 * asym.gamma)
    out = np.empty(z.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = asym.q * asym.b * zm + asym.p * asym.a * e_minus
    out[..., 0, 1] = -(asym.q * asym.a * e_plus * zm - asym.p * np.conj(asym.b))
    out[..., 1, 0] = np.conj(asym.q) * asym.a * e_minus * zmi - asym.p * asym.b
    out[..., 1, 1] = np.conj(asym.q) * np.conj(asym.b) * zmi + asym.p * asym.a * e_plus
    return out


def symbol_eigenvalues(asym: AsymptoticData, z, m: int) -> np.ndarray:
    """Eigenvalue pairs of the endpoint symbol, deterministically ordered."""
    mats = symbol_matrix(asym, z, m)
    eigs = np.linalg.eigvals(mats)
    return np.sort_complex(eigs)


def _sample_cloud(asym: AsymptoticData, m: int, resolution: int) -> np.ndarray:
    t = 2.0 * np.pi * np.arange(resolution) / resolution
    eigs = symbol_eigenvalues(asym, np.exp(1j * t), m)
    return eigs.ravel()


def hausdorff_tolerance(data: EndpointSpectrumData, m: int, resolution: int) -> float:
    """Sampling tolerance from the derivative bound of the symbol trace.

    The trace parameter moves at most ``|m| * |q b|`` per unit angle; eigenvalues
    respond with a square-root branch at the band edges, so consecutive cloud
    points can be separated by about sqrt(2 * dLambda) there and by O(dLambda)
    elsewhere.  A tenfold safety factor covers both regimes.
    """
    qb = (data.lam_plus - data.lam_minus) / 2.0
    d_lam = abs(m) * qb * (2.0 * np.pi / resolution)
    scale = max(1.0, data.lam_plus)
    return 10.0 * (math.sqrt(2.0 * scale * d_lam) + d_lam) + 1e-9


@dataclass(frozen=True)
class EndpointEssentialSpectrum:
    star: str
    data: EndpointSpectrumData
    case_tag: str
    spectral_set: SpectralSet
    cloud: np.ndarray
    cloud_to_set: float
    set_to_cloud: float
    tolerance: float

    @property
    def hausdorff(self) -> float:
        return max(self.cloud_to_set, self.set_to_cloud)

    @property
    def within_tolerance(self) -> bool:
        return self.hausdorff <= self.tolerance


@dataclass(frozen=True)
class EssentialSpectrumResult:
    minus: EndpointEssentialSpectrum
    plus: EndpointEssentialSpectrum

    def endpoint(self, star: str) -> EndpointEssentialSpectrum:
        return self.minus if star == MINUS_INF else self.plus

    def union_distance(self, points) -> np.ndarray:
        return np.minimum(
            self.minus.spectral_set.distance(points),
            self.plus.spectral_set.distance(points),
        )

    def contains(self, z) -> bool:
        """Every point of ``z`` lies within 1e-9 of the essential spectrum."""
        return bool(np.all(self.union_distance(np.atleast_1d(z)) <= 1e-9))

    def essentially_gapped(self) -> bool:
        """Neither -1 nor +1 lies in the essential spectrum."""
        return not (self.contains(1.0) or self.contains(-1.0))


def essential_spectrum(params: ModelParamsUm, resolution: int = 2048) -> EssentialSpectrumResult:
    """Closed-form endpoint sets plus the sampled symbol-eigenvalue oracle."""
    if resolution < 256:
        raise ValueError("resolution must be at least 256")
    reports = {}
    for star in STARS:
        asym = AsymptoticData.from_params(params, star)
        data = EndpointSpectrumData.from_asymptotics(asym)
        sset = sigma_star(asym)
        cloud = _sample_cloud(asym, params.m, resolution)
        cloud_to_set = float(np.max(sset.distance(cloud)))
        set_pts = sset.sample(2 * resolution)
        tree = cKDTree(np.column_stack([cloud.real, cloud.imag]))
        dists, _ = tree.query(np.column_stack([set_pts.real, set_pts.imag]))
        reports[star] = EndpointEssentialSpectrum(
            star=star,
            data=data,
            case_tag=sset.case_tag,
            spectral_set=sset,
            cloud=cloud,
            cloud_to_set=cloud_to_set,
            set_to_cloud=float(np.max(dists)) if len(dists) else 0.0,
            tolerance=hausdorff_tolerance(data, params.m, resolution),
        )
    return EssentialSpectrumResult(minus=reports[MINUS_INF], plus=reports[PLUS_INF])
