"""Seeded inputs for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` and returns a list of
:class:`Case` records: a JSON config document (the only thing the program
sees), plus the answer the benchmark expects, derived here from the closed
forms of the model rather than from the program.

Closed forms used (m-step model, endpoint limits p, a, gamma, |q|):

* ``p_gamma = p / sqrt(p^2 + |q|^2 cosh(2 gamma)^2)``;
* Fredholm margin ``|p_gamma| - |a|``, zero meaning "not Fredholm";
* the four-branch index ``m * branch`` with ``branch`` from the signs of the
  two margins and of the two p limits (``sgn(0) = +1``).

The two-step model reduces to ``m = 2`` with ``p = -sin(theta1)``,
``|q| = |cos(theta1)|`` and ``a = sin(theta2)`` at each endpoint.
"""

from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import dataclass

import numpy as np

STEPS = (-3, -2, -1, 1, 2, 3)
GENERIC_MARGIN = 0.05
NEAR_TIE_DECADES = (-6.0, -2.0)
GOLDEN_NAMES = ("reference_um_m1", "reference_um_m2", "reference_mko")
OPTIONS = {"resolution": 2048, "window": 100, "tol": 1e-10, "seed": 0}


@dataclass
class Case:
    name: str
    document: dict
    fredholm: bool
    index: int | None


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def sgn(x: float) -> int:
    return 1 if x >= 0.0 else -1


def p_gamma(p: float, abs_q: float, gamma: float) -> float:
    ch = math.cosh(2.0 * gamma)
    return p / math.sqrt(p * p + abs_q * abs_q * ch * ch)


def margin(p: float, abs_q: float, a: float, gamma: float) -> float:
    return abs(p_gamma(p, abs_q, gamma)) - abs(a)


def expected_index(m: int, minus: tuple, plus: tuple):
    """(fredholm, index) from ``(margin, p)`` at each endpoint."""
    (m_minus, p_minus), (m_plus, p_plus) = minus, plus
    if abs(m_minus) < 1e-10 or abs(m_plus) < 1e-10:
        return False, None
    above_minus, above_plus = m_minus > 0, m_plus > 0
    if not above_minus and not above_plus:
        branch = 0
    elif above_plus and not above_minus:
        branch = sgn(p_plus)
    elif above_minus and not above_plus:
        branch = -sgn(p_minus)
    else:
        branch = sgn(p_plus) - sgn(p_minus)
    return True, m * branch


# ---------------------------------------------------------------------------
# config documents
# ---------------------------------------------------------------------------

def _value(v):
    v = complex(v)
    return v.real if v.imag == 0.0 else [v.real, v.imag]


def _profile(left, right, overrides=None) -> dict:
    node = {"left": _value(left), "right": _value(right)}
    if overrides:
        node["overrides"] = [{"site": s, "value": _value(v)} for s, v in sorted(overrides.items())]
    return node


def _partner(rng, u: float) -> complex:
    """Complex value v with u^2 + |v|^2 = 1 and a random phase."""
    return math.sqrt(max(0.0, 1.0 - u * u)) * complex(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))


def _um_document(m, gamma, p, a, q, b, overrides=None) -> dict:
    """``gamma``, ``p``, ``a``, ``q``, ``b`` are (left, right) pairs."""
    overrides = overrides or {}
    profiles = {
        name: _profile(*pair, overrides.get(name))
        for name, pair in (("gamma", gamma), ("p", p), ("a", a), ("q", q), ("b", b))
    }
    return {"model": "um", "m": int(m), "profiles": profiles, "options": dict(OPTIONS)}


def _um_overrides(rng) -> dict:
    """Overrides at a few sites near the interface, normalisation kept."""
    out = {"gamma": {}, "p": {}, "a": {}, "q": {}, "b": {}}
    for site in rng.choice(np.arange(-4, 5), size=2, replace=False):
        site = int(site)
        p, a = rng.uniform(-0.95, 0.95, size=2)
        out["p"][site], out["q"][site] = p, _partner(rng, p)
        out["a"][site], out["b"][site] = a, _partner(rng, a)
        out["gamma"][site] = rng.uniform(-0.8, 0.8)
    return out


def strip_overrides(document: dict) -> dict:
    """Same config with every override dropped (a compact perturbation)."""
    out = copy.deepcopy(document)
    for node in out["profiles"].values():
        node.pop("overrides", None)
    return out


# ---------------------------------------------------------------------------
# corpus: random m-step and two-step configs
# ---------------------------------------------------------------------------

def _um_endpoint(rng):
    p, a = rng.uniform(-0.95, 0.95, size=2)
    gamma = rng.uniform(-0.8, 0.8)
    return p, a, gamma


def random_um(rng, m: int, tie: bool = False) -> Case:
    """Generic-margin um config; with ``tie`` the +inf margin is exactly 0."""
    while True:
        (p0, a0, g0), (p1, a1, g1) = _um_endpoint(rng), _um_endpoint(rng)
        if tie:
            a1 = math.copysign(abs(p_gamma(p1, math.sqrt(1 - p1 * p1), g1)), a1)
        m0 = margin(p0, math.sqrt(1 - p0 * p0), a0, g0)
        m1 = margin(p1, math.sqrt(1 - p1 * p1), a1, g1)
        if abs(m0) >= GENERIC_MARGIN and (tie or abs(m1) >= GENERIC_MARGIN):
            break
    document = _um_document(
        m, (g0, g1), (p0, p1), (a0, a1),
        (_partner(rng, p0), _partner(rng, p1)), (_partner(rng, a0), _partner(rng, a1)),
        _um_overrides(rng),
    )
    fredholm, index = expected_index(m, (m0, p0), (0.0 if tie else m1, p1))
    return Case("", document, fredholm, index)


def random_mko(rng) -> Case:
    """Generic-margin two-step config with overrides on every profile."""
    while True:
        t1, t2, phi = (rng.uniform(-3.0, 3.0, size=2) for _ in range(3))
        gamma = rng.uniform(-0.6, 0.6, size=2)
        ends = [(-math.sin(t1[i]), abs(math.cos(t1[i])), math.sin(t2[i]), gamma[i]) for i in (0, 1)]
        margins = [margin(*e) for e in ends]
        if min(abs(x) for x in margins) >= GENERIC_MARGIN:
            break
    profiles = {}
    for name, pair, lo, hi in (("gamma", gamma, -0.6, 0.6), ("phi", phi, -3.0, 3.0),
                               ("theta1", t1, -3.0, 3.0), ("theta2", t2, -3.0, 3.0)):
        sites = rng.choice(np.arange(-4, 5), size=2, replace=False)
        profiles[name] = _profile(pair[0], pair[1], {int(s): rng.uniform(lo, hi) for s in sites})
    document = {"model": "mko", "profiles": profiles, "options": dict(OPTIONS)}
    fredholm, index = expected_index(2, (margins[0], ends[0][0]), (margins[1], ends[1][0]))
    return Case("", document, fredholm, index)


CORPUS_PER_STEP, CORPUS_MKO, CORPUS_TIES = 15, 20, 10


def corpus(rng) -> list:
    """um configs per m in +-{1,2,3}, two-step configs, and exact ties.

    The composition is fixed; the seed draws the parameters and the order.
    """
    cases = [random_um(rng, m) for m in STEPS for _ in range(CORPUS_PER_STEP)]
    cases += [random_mko(rng) for _ in range(CORPUS_MKO)]
    cases += [random_um(rng, STEPS[i % len(STEPS)], tie=True) for i in range(CORPUS_TIES)]
    order = rng.permutation(len(cases))
    cases = [cases[i] for i in order]
    for i, case in enumerate(cases):
        case.name = f"corpus-{i:03d}"
    return cases


# ---------------------------------------------------------------------------
# near-tie: one endpoint margin log-spaced over [1e-6, 1e-2]
# ---------------------------------------------------------------------------

NEAR_TIE_PER_STEP = 8
NEAR_TIE_P = (0.35, 0.5, 0.65, 0.8)
NEAR_TIE_GAMMA = (0.2, 0.45)


def near_tie(rng) -> list:
    """um configs whose margin at one endpoint is tiny, solved for ``a``.

    Each step size m gets 8 margins |p_gamma| - |a|, the midpoints of 8
    equal strata of log10|margin| over [-6, -2], with |p| and |gamma| from
    fixed cycles.  These set how hard the winding is, so they do not vary
    with the seed; the seed draws every sign, the endpoint that nearly ties,
    the other endpoint and all phases.
    """
    lo, hi = NEAR_TIE_DECADES
    cases = []
    for m in STEPS:
        for k in range(NEAR_TIE_PER_STEP):
            tiny = 10.0 ** (lo + (hi - lo) * (k + 0.5) / NEAR_TIE_PER_STEP) * rng.choice([-1.0, 1.0])
            p = NEAR_TIE_P[k % len(NEAR_TIE_P)] * rng.choice([-1.0, 1.0])
            gamma = NEAR_TIE_GAMMA[k % len(NEAR_TIE_GAMMA)] * rng.choice([-1.0, 1.0])
            pg = p_gamma(p, math.sqrt(1 - p * p), gamma)
            a = (abs(pg) - tiny) * rng.choice([-1.0, 1.0])
            while True:
                p2, a2, g2 = _um_endpoint(rng)
                m2 = margin(p2, math.sqrt(1 - p2 * p2), a2, g2)
                if abs(m2) >= GENERIC_MARGIN:
                    break
            tie_end, other = (p, a, gamma), (p2, a2, g2)
            tie_at_plus = bool(rng.integers(2))
            left, right = (other, tie_end) if tie_at_plus else (tie_end, other)
            document = _um_document(
                m, (left[2], right[2]), (left[0], right[0]), (left[1], right[1]),
                (_partner(rng, left[0]), _partner(rng, right[0])),
                (_partner(rng, left[1]), _partner(rng, right[1])),
            )
            ends = ((tiny, p), (m2, p2))
            fredholm, index = expected_index(m, *(ends[::-1] if tie_at_plus else ends))
            cases.append(Case("", document, fredholm, index))
    order = rng.permutation(len(cases))
    cases = [cases[i] for i in order]
    for i, case in enumerate(cases):
        case.name = f"near-tie-{i:03d}"
    return cases


# ---------------------------------------------------------------------------
# golden: the shipped configs plus a unitary twin
# ---------------------------------------------------------------------------

GOLDEN_INDEX = {"reference_um_m1": 2, "reference_um_m2": 4, "reference_mko": 4,
                "reference_um_m1_unitary": 2}


def golden(config_dir: str) -> list:
    cases = []
    for name in GOLDEN_NAMES:
        with open(os.path.join(config_dir, f"{name}.json"), encoding="utf-8") as handle:
            cases.append(Case(name, json.load(handle), True, GOLDEN_INDEX[name]))
    twin = copy.deepcopy(cases[0].document)
    twin["profiles"]["gamma"] = _profile(0.0, 0.0)
    cases.append(Case("reference_um_m1_unitary", twin, True, GOLDEN_INDEX["reference_um_m1_unitary"]))
    return cases


def write_configs(cases, directory: str) -> dict:
    """Write each case as ``<name>.json``; returns name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for case in cases:
        path = os.path.join(directory, f"{case.name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(case.document, handle, indent=1)
        paths[case.name] = path
    return paths
