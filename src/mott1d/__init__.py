"""1D cloud-chamber toy model: two-packet superposition exciting two oscillators."""

from .core import (
    ComplexField,
    DimensionlessGroup,
    GridError,
    ModelParams,
    OscillatorBasis,
    QuadratureError,
    SpatialGrid,
    born_probability,
    free_spread,
    interference_decomposition,
    make_gaussian_packet,
    make_spherical_wave_1d,
    oscillator_eigenfunction,
    suggest_grid,
    uncertainty_product,
)
from .channels import (
    ChannelState,
    FormFactorTable,
    NormDriftError,
    PropagatorConfig,
    TruncationError,
    build_form_factors,
    channel_probabilities,
    evolve,
    evolve_with_escalation,
    form_factor_pair,
    initialize_channels,
    potential_profile,
)
from .perturbation import free_propagate
from .experiments import (
    ExcitationReport,
    RegimeReport,
    ScalingFit,
    ScenarioSpec,
    NumericSettings,
    check_regime,
    default_params,
    load_thresholds,
    localization_report,
    run_scenario,
    sweep_lambda,
)

__version__ = "0.1.0"
