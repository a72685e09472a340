"""Tools for multi-cookie excited random walks on the integers.

The package decides recurrence versus transience of walks in
identically piled cookie environments through exact closed forms, and
cross-checks those decisions with Monte Carlo simulation of the walk
itself, of its edge-crossing chain, and of an exact step-distribution
oracle.
"""

from __future__ import annotations

from .bpm import (
    BpmModel,
    BpmOutcome,
    MigrationSpec,
    OffspringSpec,
    ZEnsembleResult,
    classify_bpm,
    parse_migration,
    parse_offspring,
    simulate_bpm,
)
from .criterion import (
    CriterionInput,
    Verdict,
    VerdictValue,
    band_bounds,
    classify_chain,
    lyapunov_drift,
)
from .environments import (
    CookieEnvironment,
    EnvKind,
    format_env,
    make_bounded,
    make_custom_tail,
    make_periodic,
    parse_env,
)
from .kks import (
    LadderStats,
    OracleHorizonError,
    UDistribution,
    asymptotic_mu,
    empirical_ladder,
    exact_U_distribution,
    exact_moments,
    sample_U,
    sample_U_many,
    simulate_Z_ensemble,
    step_sampler,
)
from .periodic import (
    Classification,
    PeriodicDiagnostics,
    classify_bounded,
    classify_periodic,
    classify_positive,
    diagnostics,
    failure_chain,
    half_half_threshold,
    mu_periodic,
)
from .seeding import DEFAULT_SEED, default_seed, substream
from .walk import (
    WalkTrace,
    edge_crossings,
    ensemble_summary,
    ensemble_walks,
    run_walk,
)

__version__ = "0.1.0"

__all__ = [
    "BpmModel",
    "BpmOutcome",
    "Classification",
    "CookieEnvironment",
    "CriterionInput",
    "DEFAULT_SEED",
    "EnvKind",
    "LadderStats",
    "MigrationSpec",
    "OffspringSpec",
    "OracleHorizonError",
    "PeriodicDiagnostics",
    "UDistribution",
    "Verdict",
    "VerdictValue",
    "WalkTrace",
    "ZEnsembleResult",
    "asymptotic_mu",
    "band_bounds",
    "classify_bounded",
    "classify_bpm",
    "classify_chain",
    "classify_periodic",
    "classify_positive",
    "default_seed",
    "diagnostics",
    "edge_crossings",
    "empirical_ladder",
    "ensemble_summary",
    "ensemble_walks",
    "exact_U_distribution",
    "exact_moments",
    "failure_chain",
    "format_env",
    "half_half_threshold",
    "lyapunov_drift",
    "make_bounded",
    "make_custom_tail",
    "make_periodic",
    "mu_periodic",
    "parse_env",
    "parse_migration",
    "parse_offspring",
    "run_walk",
    "sample_U",
    "sample_U_many",
    "simulate_Z_ensemble",
    "simulate_bpm",
    "step_sampler",
    "substream",
    "__version__",
]
