"""Mining and survival evaluation of high-risk temporal patterns in wave data."""

import os

# The Cox fits solve systems of a few hundred columns at most, where a second
# OpenBLAS thread only spins between calls.  Mining runs in the calling process
# too: its branches are too small to pay for a worker pool's start-up.
# This must run before numpy is first imported, and a thread count set in the
# environment is kept.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if not any(v in os.environ for v in _BLAS_THREAD_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"

from .abstraction import (
    AbstractionRule,
    FeatureSpec,
    Level,
    StateInterval,
    abstract_value,
    build_intervals,
    fit_percentiles,
)
from .encoding import (
    Endpoint,
    EndpointGroup,
    EndpointSequence,
    canonical_form,
    encode,
    pattern_key,
)
from .ingest import (
    PatientRecord,
    RawCohort,
    SurvivalOutcome,
    carry_forward,
    parse_cohort,
    parse_outcomes,
)
from .matrix import BinaryDesignMatrix, build_matrix, read_matrix_csv, write_matrix_csv
from .miner import (
    MinerConfig,
    PatternResult,
    RiskStats,
    TemporalPattern,
    brute_force_mine,
    mine,
    odds_ratio,
    relative_risk,
)
from .survival import (
    CoxModel,
    concordance_index,
    cross_validate,
    fit_ridge_cox,
    rank_patterns,
    rr_score,
)
from .synth import PlantedPattern, SynthConfig, generate
from .viz import RenderSpec, render_svg

__all__ = [
    "__version__",
    "AbstractionRule",
    "BinaryDesignMatrix",
    "CoxModel",
    "Endpoint",
    "EndpointGroup",
    "EndpointSequence",
    "FeatureSpec",
    "Level",
    "MinerConfig",
    "PatientRecord",
    "PatternResult",
    "PlantedPattern",
    "RawCohort",
    "RenderSpec",
    "RiskStats",
    "StateInterval",
    "SurvivalOutcome",
    "SynthConfig",
    "TemporalPattern",
    "abstract_value",
    "brute_force_mine",
    "build_intervals",
    "build_matrix",
    "canonical_form",
    "carry_forward",
    "concordance_index",
    "cross_validate",
    "encode",
    "fit_percentiles",
    "fit_ridge_cox",
    "generate",
    "mine",
    "odds_ratio",
    "parse_cohort",
    "parse_outcomes",
    "pattern_key",
    "rank_patterns",
    "read_matrix_csv",
    "relative_risk",
    "render_svg",
    "rr_score",
    "write_matrix_csv",
]
