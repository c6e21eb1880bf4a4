"""Chirally symmetric one-dimensional quantum walks: index and spectrum.

Library layout:

* :mod:`chiralwalk.profiles` -- eventually constant lattice sequences
* :mod:`chiralwalk.lattice` -- banded block-Laurent operators, finite sections
* :mod:`chiralwalk.models` -- the m-step and two-step gain/loss walk models
* :mod:`chiralwalk.index` -- Fredholm test and the Witten index (three routes)
* :mod:`chiralwalk.spectrum` -- closed-form essential spectrum plus oracle
* :mod:`chiralwalk.verify` -- finite-section residuals and kernel witnesses
* :mod:`chiralwalk.cli` -- the ``chiralwalk`` command
"""

from .profiles import MINUS_INF, PLUS_INF, STARS, ParameterProfile
from .lattice import BandedOperator, FiniteSection
from .models import (
    AsymptoticData,
    InvalidParameters,
    ModelParamsMko,
    ModelParamsUm,
    coin,
    default_phase,
    grading,
    grading_eigenbasis,
    mko_grading,
    mko_to_um,
    mko_walk,
    offdiag_block,
    reduce_to_um,
    walk,
)
from .index import (
    IndexDisagreementError,
    IndexReport,
    NotFredholmError,
    SymbolFunction,
    SymbolNearZeroError,
    compute_index,
    is_fredholm,
    p_gamma,
    sgn,
    winding_analytic,
    winding_numeric,
    witten_index_analytic,
)
from .spectrum import (
    EndpointSpectrumData,
    EssentialSpectrumResult,
    SpectralSet,
    classify_case,
    essential_spectrum,
    g_map,
    sigma_star,
    symbol_eigenvalues,
    symbol_matrix,
)
from .verify import (
    VerificationError,
    VerificationReport,
    bound_state_check,
    kernel_witness,
    run_verification,
    truncated_spectrum,
)

__version__ = "0.1.0"
