import types

import delayfilt
from delayfilt import models

# The package's top-level surface. A name added here is a public promise;
# model kernels stay importable from `delayfilt.models` only.
TOP_LEVEL_NAMES = {
    # channel and primitives
    "DelayChannel", "DelayOutcome", "LatencyParams", "Probability", "RngStream",
    "delay_pmf", "derive_seed", "empirical_delay_histogram",
    # errors
    "ConfigError", "ContractError", "DelayFiltError", "DomainError",
    "IdentificationError", "NumericError",
    # filtering
    "FilterEstimate", "ParticleSet", "StepDiagnostics", "delayed_likelihood",
    "filter_step", "init_filter", "run_filter", "systematic_resample",
    # identification
    "CandidateFilterState", "GridSpec", "IdentificationResult", "OnlineIdentState",
    "content_age_weights", "init_candidate_filters", "init_online_identification",
    "ll_step", "offline_identify", "online_identify_step", "repeat_probability",
    # models
    "BotModel", "BotParams", "GrowthModel", "GrowthModelParams", "PlatformTrack",
    "SystemModel", "wrap_angle",
    # experiments
    "DEFAULT_VARIANTS", "FilterVariant", "RunMetrics", "ScenarioConfig", "TruthData",
    "generate_truth", "load_config", "rmse", "run_identification_study",
    "run_monte_carlo", "run_sweep", "write_outputs",
}

MODEL_KERNELS = (
    "growth_mean", "growth_propagate", "growth_measure", "bot_transition_matrix",
    "bot_mean", "bot_propagate", "bot_measure", "generate_platform_track",
)


def test_top_level_names_are_pinned():
    names = {
        name for name, value in vars(delayfilt).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == TOP_LEVEL_NAMES


def test_model_kernels_live_in_models_only():
    for name in MODEL_KERNELS:
        assert name in models.__all__
        assert not hasattr(delayfilt, name)
