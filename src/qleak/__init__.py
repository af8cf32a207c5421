"""qleak: maximal information leakage of classical data from its quantum
encoding, computed by subgradient ascent over measurements."""

__version__ = "0.1.0"

from .linalg import inv_sqrt_psd, trace_distance
from .states import (
    DensityOperator,
    Ensemble,
    KrausChannel,
    Povm,
    born_distribution,
    depolarizing,
    depolarizing_global,
    depolarizing_local,
    encode_amplitude_3bit,
    encode_index,
    random_kraus_channel,
    random_povm,
)
from .leakage import (
    AscentConfig,
    ConvergenceTrace,
    LeakageReport,
    PropertyCheck,
    PropertyReport,
    ascent_step,
    brute_force_leakage,
    compute_leakage,
    leakage_objective,
    mutual_information,
    noise_curve,
    noisy_leakage_global,
    noisy_leakage_local_bound,
    two_state_leakage,
    verify_properties,
)
from .ensemble_io import (
    builtin_names,
    ensemble_to_config,
    parse_channel_config,
    parse_ensemble_config,
    resolve_ensemble,
)
from . import exceptions

__all__ = [
    "AscentConfig",
    "ConvergenceTrace",
    "DensityOperator",
    "Ensemble",
    "KrausChannel",
    "LeakageReport",
    "Povm",
    "PropertyCheck",
    "PropertyReport",
    "ascent_step",
    "born_distribution",
    "brute_force_leakage",
    "builtin_names",
    "compute_leakage",
    "depolarizing",
    "depolarizing_global",
    "depolarizing_local",
    "encode_amplitude_3bit",
    "encode_index",
    "ensemble_to_config",
    "exceptions",
    "inv_sqrt_psd",
    "leakage_objective",
    "mutual_information",
    "noise_curve",
    "noisy_leakage_global",
    "noisy_leakage_local_bound",
    "parse_channel_config",
    "parse_ensemble_config",
    "random_kraus_channel",
    "random_povm",
    "resolve_ensemble",
    "trace_distance",
    "two_state_leakage",
    "verify_properties",
]
