"""Common and distinctive pattern decomposition for paired datasets.

Decomposes two variables-by-samples matrices observed on the same
samples into a shared common-pattern matrix and per-dataset distinctive
patterns, on top of a canonical common/distinctive source split of the
denoised signals.
"""

from .align import (
    MatchProblem,
    PermutationPlan,
    SignChoice,
    build_match_problem,
    choose_sign,
    dspfp_match,
    exhaustive_match,
    match_objective,
)
from .dcca import (
    CanonicalSystem,
    SourceDecomposition,
    canonical_system,
    common_factor_coefficients,
    common_factor_scores,
    mixing_channel,
    source_decomposition,
)
from .denoise import (
    Diagnostics,
    ObservedMatrix,
    RankProfile,
    SignalEstimate,
    center_rows,
    compute_diagnostics,
    correlation_screen,
    ed_select_rank,
    mdl_select_r12,
    noise_trace,
    select_ranks,
    soft_threshold_denoise,
)
from .errors import (
    BadConfig,
    CdpaError,
    ChannelRankDeficient,
    DegenerateThreshold,
    InputError,
    NumericalError,
    RankDeficiency,
    RankTooLarge,
    TooFewSamples,
    TooLarge,
    ZeroSignal,
)
from .matrixio import read_matrix, read_matrix_binary, write_matrix_binary
from .patterns import (
    BootstrapInterval,
    CdpaConfig,
    DecompositionResult,
    PatternDecomposition,
    PopulationPatterns,
    assemble_patterns,
    bootstrap_ci,
    estimate_cdpa,
    pattern_decomposition,
    population_cdpa,
)
from .simulate import (
    ErrorReport,
    GroundTruth,
    SimulationConfig,
    closed_form_explained_variance,
    error_metrics,
    generate_setup,
    oracle_explained_variance,
    planted_correlations,
    run_replications,
)
from .subspace import (
    ChannelSubspacePair,
    common_loadings,
    orthonormal_basis,
    principal_angles,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
