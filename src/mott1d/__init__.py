"""1D cloud-chamber toy model: two-packet superposition exciting two oscillators."""

from .core import (
    ComplexField,
    GridError,
    ModelParams,
    NormDriftError,
    OscillatorBasis,
    QuadratureError,
    SpatialGrid,
    TruncationError,
    free_spread,
    make_spherical_wave_1d,
    suggest_grid,
)
from .channels import (
    ChannelState,
    FormFactorTable,
    PropagatorConfig,
    build_form_factors,
    channel_probabilities,
    evolve,
    evolve_with_escalation,
    form_factor_pair,
    initialize_channels,
)
from .experiments import (
    ExcitationReport,
    RegimeReport,
    ScalingFit,
    ScenarioSpec,
    NumericSettings,
    check_regime,
    default_params,
    run_scenario,
    sweep_lambda,
)

__version__ = "0.1.0"
