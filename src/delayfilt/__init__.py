"""Particle filtering for randomly delayed measurements.

The package covers the full pipeline: a Bernoulli delay/drop channel
simulator with its closed-form outcome distribution, a particle filter
whose importance weights marginalize over every admissible delay
hypothesis, maximum-likelihood identification of the unknown latency
probability (offline grid search and online per-step argmax), and a
reproducible Monte Carlo experiment harness with a CLI.
"""

from .core import Probability, RngStream, derive_seed
from .delay_channel import (
    DelayChannel,
    DelayOutcome,
    LatencyParams,
    delay_pmf,
    empirical_delay_histogram,
)
from .errors import (
    ConfigError,
    ContractError,
    DelayFiltError,
    DomainError,
    IdentificationError,
    NumericError,
)
from .experiments import (
    DEFAULT_VARIANTS,
    FilterVariant,
    RunMetrics,
    ScenarioConfig,
    TruthData,
    generate_truth,
    load_config,
    rmse,
    run_identification_study,
    run_monte_carlo,
    run_sweep,
    write_outputs,
)
from .filtering import (
    FilterEstimate,
    ParticleSet,
    StepDiagnostics,
    delayed_likelihood,
    filter_step,
    init_filter,
    run_filter,
    systematic_resample,
)
from .identification import (
    CandidateFilterState,
    GridSpec,
    IdentificationResult,
    OnlineIdentState,
    content_age_weights,
    init_candidate_filters,
    init_online_identification,
    ll_step,
    offline_identify,
    online_identify_step,
    repeat_probability,
)
from .models import (
    BotModel,
    BotParams,
    GrowthModel,
    GrowthModelParams,
    PlatformTrack,
    SystemModel,
    wrap_angle,
)

__version__ = "0.1.0"
