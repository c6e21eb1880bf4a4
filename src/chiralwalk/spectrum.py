"""Essential spectrum of the m-step walk: closed form and sampling oracle.

The essential spectrum is the union over both lattice endpoints of a set that
is a finite union of unit-circle arcs and real segments.  Each endpoint set is
classified by how the gain magnitude compares with a closed interval
``[gamma_minus, gamma_plus]``:

* Case I   -- arcs only (the set lies on the unit circle),
* Case II  -- one arc joined to one real segment through +1 or -1,
* Case III -- real segments only.

The closed-form sets are exact symbolic objects (interval endpoints).  An
independent oracle samples eigenvalues of the walk operator's own 2x2
endpoint symbol (the two-step walk's, not its reduction's) over the unit
circle; agreement is measured by a two-sided Hausdorff distance with a
derivative-calibrated tolerance above a roundoff floor.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .index import sgn
from .models import MAX_SAMPLES, AsymptoticData, reduce_to_um, walk_operator
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

    def _piece_distances(self, points) -> np.ndarray:
        """Distance from each point to each piece: one row per arc, then one per segment."""
        w = np.asarray(points, dtype=complex)
        r = np.abs(w)
        psi = np.abs(np.angle(w))
        rows = []
        for alpha, beta in self._arc_angle_ranges():
            inside = (psi >= alpha) & (psi <= beta)
            tau = np.clip(psi, alpha, beta)
            d_edge = np.sqrt(np.maximum(r * r + 1.0 - 2.0 * r * np.cos(psi - tau), 0.0))
            rows.append(np.where(inside, np.abs(r - 1.0), d_edge))
        for u, v in self.segments:
            rows.append(np.hypot(w.real - np.clip(w.real, u, v), w.imag))
        return np.array(rows).reshape((len(rows),) + w.shape)

    def distance(self, points) -> np.ndarray:
        """Euclidean distance from each point to the set (inf when empty)."""
        return np.min(self._piece_distances(points), axis=0, initial=np.inf)

    def _hausdorff_sides(self, cloud: np.ndarray, points: np.ndarray):
        """Per-point distances cloud -> set and ``points`` -> nearest cloud point.

        Each cloud point goes to its nearest piece, and each piece's points
        are sorted by a key: the angle for an arc, the real part for a
        segment.  Distance to a point on the unit circle grows with the
        angular gap, and distance to a real number with the gap in real
        part, so each of ``points`` takes the 2 sorted neighbours on either
        side of its own key in every piece (across +-pi on an arc) and keeps
        the nearest.  Per point that result is never below the true
        nearest-cloud distance; it equals it whenever the cloud lies on the
        set to roundoff, as every symbol cloud does, and otherwise exceeds
        it by at most twice the largest cloud -> set distance, so a wrong
        set only reads further from the cloud.
        """
        pieces = self._piece_distances(cloud)
        owner = np.argmin(pieces, axis=0)
        keys = [np.angle] * len(self.arcs) + [np.real] * len(self.segments)
        gaps = np.full(points.shape, np.inf)
        for k, key in enumerate(keys):
            owned = cloud[owner == k]
            if owned.size == 0:
                continue
            owned = owned[np.argsort(key(owned))]
            at = np.searchsorted(key(owned), key(points))
            for shift in range(-2, 2):
                i = at + shift
                i = i % owned.size if key is np.angle else np.clip(i, 0, owned.size - 1)
                np.minimum(gaps, np.abs(points - owned[i]), out=gaps)
        return pieces.min(axis=0), gaps

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
    """Closed-form endpoint set per the Case I/II/III table of the sign s = +1 sets."""
    data = EndpointSpectrumData.from_asymptotics(asym)
    case = classify_case(data, asym.gamma)
    lm, lp = data.lam_minus, data.lam_plus
    if case == CASE_I:
        arcs, segments = ((max(-1.0, lm), min(1.0, lp)),), ()
    elif case == CASE_II:
        gp = g_map(max(1.0, lp))
        arcs, segments = ((max(-1.0, lm), 1.0),), ((1.0 / gp, gp),)
    else:
        gm = g_map(max(1.0, lm))
        gp = g_map(max(1.0, lp))
        arcs, segments = (), ((1.0 / gp, 1.0 / gm), (gm, gp))
    if data.s == -1:            # the s = +1 set reflected through 0
        arcs = tuple((-v, -u) for u, v in reversed(arcs))
        segments = tuple((-v, -u) for u, v in reversed(segments))
    return SpectralSet(arcs, segments, case, data.s)


# ---------------------------------------------------------------------------
# symbol sampling oracle
# ---------------------------------------------------------------------------

def symbol_eigenvalues(symbol: dict, z) -> np.ndarray:
    """Eigenvalue pairs of a walk's endpoint symbol ``{y: C_y}``, the root of modulus >= 1 first.

    The symbol sum_y C_y z^y has determinant 1, so its eigenvalues are the
    reciprocal roots h +- sqrt(h^2 - 1) of x^2 - 2 h x + 1 with h = trace / 2
    = 1/2 sum_y tr(C_y) z^y.  The root h + sqrt(h - 1) sqrt(h + 1) =
    exp(arccosh h) has modulus >= 1 and neither overflows nor cancels; a
    general 2x2 eigensolve loses the small root from gamma around 50.  Only
    the real part of h is kept, so ``z`` must lie on the unit circle and the
    symbol be chirally symmetric, as every walk symbol is: there h is real,
    and its imaginary rounding would move the roots off the set by its square
    root where they meet.  Elsewhere the imaginary part is not rounding and
    the result is wrong.  The first root of a pair on the unit circle is the
    one with Im >= 0, so the pair order cannot flip with the last bit of h.
    """
    z = np.asarray(z, dtype=complex)
    h = sum(0.5 * np.trace(c) * z ** y for y, c in sorted(symbol.items())).real + 0j
    big = h + np.sqrt(h - 1.0) * np.sqrt(h + 1.0)
    return np.stack([big, 1.0 / big], axis=-1)


def hausdorff_tolerance(data: EndpointSpectrumData, m: int, resolution: int) -> float:
    """Sampling tolerance from the derivative bound of the symbol trace.

    The trace parameter moves at most ``|m| * |q b|`` per unit angle; eigenvalues
    respond with a square-root branch at the band edges, so consecutive cloud
    points can be separated by about sqrt(2 * dLambda) there and by O(dLambda)
    elsewhere.  A tenfold safety factor covers both regimes.  The floor, 16
    eps max(1, Lambda_+), covers the rounding of two independent routes.
    """
    qb = (data.lam_plus - data.lam_minus) / 2.0
    d_lam = abs(m) * qb * (2.0 * np.pi / resolution)
    scale = max(1.0, data.lam_plus)
    return 10.0 * (math.sqrt(2.0 * scale * d_lam) + d_lam) + 16.0 * np.finfo(float).eps * scale


@dataclass(frozen=True)
class EndpointEssentialSpectrum:
    star: str
    data: EndpointSpectrumData
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


def essential_spectrum(params, resolution: int) -> EssentialSpectrumResult:
    """Closed-form sets of the m-step reduction plus eigenvalues sampled off the walk itself."""
    if resolution < 256:
        raise ValueError("resolution must be at least 256")
    if resolution > MAX_SAMPLES:
        raise ValueError(f"resolution must be at most {MAX_SAMPLES}")
    um = reduce_to_um(params)
    walk_op = walk_operator(params)
    z = np.exp(1j * (2.0 * np.pi * np.arange(resolution) / resolution))
    reports = {}
    for star in STARS:
        asym = AsymptoticData.from_params(um, star)
        data = EndpointSpectrumData.from_asymptotics(asym)
        sset = sigma_star(asym)
        cloud = symbol_eigenvalues(walk_op.endpoint_symbol(star), z).ravel()
        to_set, to_cloud = sset._hausdorff_sides(cloud, sset.sample(2 * resolution))
        reports[star] = EndpointEssentialSpectrum(
            star=star,
            data=data,
            spectral_set=sset,
            cloud=cloud,
            cloud_to_set=float(np.max(to_set)),
            set_to_cloud=float(np.max(to_cloud)),
            tolerance=hausdorff_tolerance(data, um.m, resolution),
        )
    return EssentialSpectrumResult(minus=reports[MINUS_INF], plus=reports[PLUS_INF])
