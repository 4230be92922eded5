"""Numerical Eichler cocycles, one-sided averages, and polar harmonic functions.

The package is organized bottom-up:

* :mod:`eichler.algebra`    -- branched powers, SL2 matrices, slash operators
* :mod:`eichler.specfun`    -- eta powers, incomplete gamma, 2F1/1F1, Hurwitz-Lerch
* :mod:`eichler.quadrature` -- adaptive contour integration on hyperbolic paths
* :mod:`eichler.cocycles`   -- Eichler cocycles, period functions, L-values
* :mod:`eichler.averages`   -- one-sided averages and their continuation
* :mod:`eichler.harmonic`   -- shadows, kernels, polar eigenfunctions, Green's form
* :mod:`eichler.quantum`    -- quantum modular values at cusps
* :mod:`eichler.cli`        -- JSON verification harness
"""

from .algebra import (
    ARG_CUT_DOWN,
    ARG_CUT_UP,
    ARG_LOWER,
    ARG_UPPER,
    ArgInterval,
    GroupElement,
    IDENTITY,
    MultiplierSystem,
    S,
    T,
    multiplier_eval,
    power_branch,
    scaling_matrix,
    slash,
    slash_multiplier,
)
from .errors import (
    BranchError,
    DomainError,
    EichlerError,
    PoleError,
    RefusalError,
)
from .specfun import (
    EtaPowerSeries,
    LerchEval,
    binom_complex,
    eta_power_coeffs,
    eta_power_eval,
    gauss_2f1,
    hurwitz_lerch,
    hurwitz_lerch_detailed,
    incomplete_gamma,
    kummer_1f1,
    lerch_asymptotic,
    lerch_b_coeffs,
    pochhammer,
)
from .quadrature import INF, ContourSpec, QuadResult, contour_integral
from .cocycles import (
    DEFAULT_SAMPLES,
    CocycleSample,
    FormEvaluator,
    GoldfeldResult,
    I_integral,
    L_eta,
    L_eta_detailed,
    LSeriesValue,
    ResidualReport,
    cusp_cocycle,
    eichler_cocycle,
    goldfeld_lprime,
    newform37_coeffs,
    period_function,
    period_series_coeffs,
    verify_period_relations,
)
from .averages import (
    AverageSpec,
    average_asymptotic_coeffs,
    average_continued,
    one_sided_average,
)
from .harmonic import (
    ARG_CAP,
    PolarIndex,
    bol_operator,
    cauchy_formula,
    dz_fd,
    dzbar_fd,
    e2_star,
    f_rn,
    germ_factor,
    kernel_K,
    kernel_restriction,
    laplacian_r,
    polar_eval,
    polar_expansion_partial,
    polar_shadow,
    q_lift,
    resolvent_Q,
    shadow,
)
from .quantum import (
    eta_defect,
    quantum_value_eta,
    weight0_quantum,
)

__version__ = "0.1.0"
