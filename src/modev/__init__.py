"""Moderate-deviation limit theorems, made checkable.

Parametric families with root-density score calculus, numerical
certification of the regularity conditions those theorems assume, the
quadratic log-likelihood expansion and its residual, maximum-likelihood
and gridded-posterior Bayes estimators, and rare-event Monte Carlo that
measures the deviation probabilities the theory predicts.
"""

__version__ = "0.1.0"

from .errors import (
    BoundaryWarning,
    BudgetError,
    ConfigError,
    DegenerateWeightsWarning,
    DimensionError,
    DivergenceError,
    DomainError,
    EmptyDirError,
    GridError,
    ModevError,
    MonotoneError,
    NonDifferentiableWarning,
    QuadratureError,
    RankError,
    ResolutionWarning,
    SupportError,
    TiltDomainError,
    UnderflowError_,
)
from .families import (
    Box,
    FisherInfo,
    ParametricFamily,
    SampleBatch,
    ScoreModel,
    Support,
    draw_sample,
    expect,
    family_names,
    fisher_by_quadrature,
    fisher_information,
    get_family,
    hellinger_affinity,
    hellinger_g,
    integrate_support,
    log_density,
    phi_matrix,
    score,
)
from .regions import RegionSpec, rate_functional, rate_functional_grid_oracle
from .lan import (
    LanDecomposition,
    TruncationPolicy,
    lan_residual,
    loglr_sum,
    lr_process,
    psi_n,
    sup_lan_residual,
    truncated_score,
    zeta_n,
)
from .conditions import (
    ConditionReport,
    Witness,
    check_a0,
    check_c,
    check_d,
    check_dqm,
    check_e,
    check_exp_moment,
    check_loss,
    check_moment_b,
)
from .estimators import (
    LossSpec,
    PosteriorGrid,
    PriorSpec,
    StatTriple,
    bayes_estimate,
    default_posterior_box,
    mle,
    posterior_grid,
    posterior_mass,
    test_statistics,
)
from .rarevent import (
    BayesEvent,
    Budget,
    DeviationSchedule,
    DiscrepancyEvent,
    MleEvent,
    PosteriorMassEvent,
    ProbEstimate,
    PsiEvent,
    RateCurve,
    RatePoint,
    bahadur_sweep,
    equivalence_tail,
    estimate_prob,
    ldp_curve,
)
from .sampling import chunk_bounds, chunk_size, rep_rng

__all__ = [name for name in dir() if not name.startswith("_")]
