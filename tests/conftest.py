"""Shared fixtures: the reference instances and randomized parameter corpora."""

from __future__ import annotations

import math

import numpy as np
import pytest

from chiralwalk import ModelParamsMko, ModelParamsUm
from chiralwalk.lattice import BandedOperator
from chiralwalk.profiles import ParameterProfile


def real_profile(left, right, overrides=None):
    return ParameterProfile(left, right, overrides or {})


def random_operator(rng, block_size=2, bandwidth=1, sites=3):
    def prof():
        overrides = {int(s): complex(rng.standard_normal(), rng.standard_normal())
                     for s in rng.integers(-3, 4, size=sites)}
        return ParameterProfile(
            complex(rng.standard_normal(), rng.standard_normal()),
            complex(rng.standard_normal(), rng.standard_normal()),
            overrides,
        )

    coeff = {(i, j, y): prof()
             for i in range(block_size) for j in range(block_size)
             for y in range(-bandwidth, bandwidth + 1)}
    return BandedOperator(block_size, coeff)


def reference_params(m: int = 1, gamma: float = 0.4) -> ModelParamsUm:
    """Two-phase instance with p(-+inf) = -+0.2, a(-+inf) = -+0.1, real q, b."""
    return ModelParamsUm(
        m=m,
        gamma=real_profile(gamma, gamma),
        p=real_profile(-0.2, 0.2),
        a=real_profile(-0.1, 0.1),
        q=ParameterProfile.constant(math.sqrt(0.96)),
        b=ParameterProfile.constant(math.sqrt(0.99)),
    )


def reference_mko_params(gamma: float = 0.4, phi: float = 0.15) -> ModelParamsMko:
    """Two-step instance whose reduction matches reference_params with m = 2."""
    t1 = math.asin(0.2)
    t2 = math.asin(0.1)
    return ModelParamsMko(
        gamma=real_profile(gamma, gamma),
        phi=real_profile(phi, phi),
        theta1=real_profile(t1, -t1),
        theta2=real_profile(-t2, t2),
    )


def rows_within(section, margin: int) -> np.ndarray:
    """Flat indices of a finite section's block rows at distance >= margin from the edge."""
    return np.nonzero(np.abs(section.block_sites()) <= section.window - margin)[0]


def unitary_mapping_check(params, window: int) -> float:
    """Consistency of the imaginary-part spectra for unitary instances.

    The essential spectrum of the imaginary part is the image of the walk's
    essential spectrum under z -> (z - conj(z)) / 2i = Im z.  Returns the
    largest distance from an interior eigenvalue of the imaginary part's
    finite section (Hermitian, so solved by ``eigh``) to the mapped sampled
    cloud.  Discrete eigenvalues of the imaginary part (e.g. kernel modes of
    instances with non-zero index) are genuine outliers; run this on
    instances without them.
    """
    from chiralwalk import essential_spectrum
    from chiralwalk.verify import _localisation_tags, build_pair

    result = essential_spectrum(params, 2048)
    mapped = np.concatenate([result.minus.cloud.imag, result.plus.cloud.imag])
    _, walk_op = build_pair(params)
    q_op = (walk_op - walk_op.adjoint()).scaled(1.0 / 2.0j)
    section = q_op.finite_section(window)
    values, vectors = np.linalg.eigh(section.matrix)
    tags = _localisation_tags(section.block_sites(), section.window, vectors,
                              2 * max(1, q_op.bandwidth))
    interior = values[~tags]
    if len(interior) == 0:
        return 0.0
    return float(np.abs(interior[:, None] - mapped[None, :]).min(axis=1).max())


def contains(sset, z, tol: float) -> bool:
    """Whether every point of ``z`` lies within ``tol`` of the spectral set."""
    return bool(np.all(sset.distance(np.atleast_1d(z)) <= tol))


def random_real_profile(rng, lo, hi, sites=2):
    overrides = {int(s): rng.uniform(lo, hi) for s in rng.integers(-4, 5, size=sites)}
    return ParameterProfile(rng.uniform(lo, hi), rng.uniform(lo, hi), overrides)


def _unimodular_partner(rng, u: ParameterProfile) -> ParameterProfile:
    """Complex profile v with u(x)^2 + |v(x)|^2 = 1 sitewise."""
    def draw(x):
        mag = math.sqrt(max(0.0, 1.0 - u.value(x).real ** 2))
        return mag * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))

    far = u.support_radius + 3
    overrides = {x: draw(x) for x in u.overrides}
    return ParameterProfile(draw(-far), draw(far), overrides)


def random_um_params(rng, m=None, gamma_zero=False, gamma_range=1.0, sites=2) -> ModelParamsUm:
    m = int(m if m is not None else rng.choice([-3, -2, -1, 1, 2, 3]))
    p = random_real_profile(rng, -0.95, 0.95, sites)
    a = random_real_profile(rng, -0.95, 0.95, sites)
    gamma = (ParameterProfile.constant(0.0) if gamma_zero
             else random_real_profile(rng, -gamma_range, gamma_range, sites))
    return ModelParamsUm(m=m, gamma=gamma, p=p, a=a,
                         q=_unimodular_partner(rng, p),
                         b=_unimodular_partner(rng, a))


def random_mko_params(rng, sites=2) -> ModelParamsMko:
    return ModelParamsMko(
        gamma=random_real_profile(rng, -0.6, 0.6, sites),
        phi=random_real_profile(rng, -3.0, 3.0, sites),
        theta1=random_real_profile(rng, -3.0, 3.0, sites),
        theta2=random_real_profile(rng, -3.0, 3.0, sites),
    )


def closed_p_gamma(p, gamma):
    """|p_gamma| for real p and |q| = sqrt(1 - p^2)."""
    ch = math.cosh(2.0 * gamma)
    return abs(p) / math.sqrt(p * p + (1.0 - p * p) * ch * ch)


def random_fredholm_params(rng, min_margin=1e-6, **kwargs) -> ModelParamsUm:
    """Rejection-sample until both endpoint margins clear ``min_margin``."""
    from chiralwalk import AsymptoticData, p_gamma
    from chiralwalk.profiles import STARS

    while True:
        params = random_um_params(rng, **kwargs)
        asyms = [AsymptoticData.from_params(params, star) for star in STARS]
        margins = [abs(abs(p_gamma(asym)) - abs(asym.a)) for asym in asyms]
        if min(margins) > min_margin:
            return params


@pytest.fixture(scope="session")
def fredholm_corpus():
    """200 random Fredholm parameter sets plus all 16 endpoint sign patterns."""
    rng = np.random.default_rng(20250808)
    corpus = [random_fredholm_params(rng) for _ in range(200)]
    for sp_minus in (-1, 1):
        for sp_plus in (-1, 1):
            for sa_minus in (-1, 1):
                for sa_plus in (-1, 1):
                    corpus.append(ModelParamsUm(
                        m=int(rng.choice([-3, -2, -1, 1, 2, 3])),
                        gamma=real_profile(0.4, 0.4),
                        p=real_profile(0.2 * sp_minus, 0.2 * sp_plus),
                        a=real_profile(0.1 * sa_minus, 0.1 * sa_plus),
                        q=ParameterProfile.constant(math.sqrt(0.96)),
                        b=ParameterProfile.constant(math.sqrt(0.99)),
                    ))
    return corpus
