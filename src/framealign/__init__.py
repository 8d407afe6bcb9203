"""Numerics for reference-frame alignment under U(1) and Z_M superselection."""

from .core import (
    FrameAlignError,
    GroupSpec,
    StandardState,
    CopyDistribution,
    DeviationVector,
    SpectralProfile,
    validate_state,
    shannon_entropy,
    entropy_deficit,
    relative_entropy_diag,
    dft_profile,
    load_state,
    save_state,
    state_from_json,
    state_to_json,
)
from .cyclic import (
    INFINITE_RATE,
    alignment_rate_zm,
    asymptotic_deficits,
    copy_distribution_zm,
    covariant_mutual_info_zm,
    multinomial_oracle_zm,
    search_superadditive,
    superadditivity_gap,
    tensor_compose,
    zm_asymmetry,
    zm_rate_series,
)
from .u1 import (
    QuadratureSpec,
    copy_distribution_u1,
    covariant_mutual_info_u1,
    number_variance,
    regularized_asymmetry_u1,
    u1_asymmetry,
    u1_rate_series,
)
from .povm import (
    OptimizerConfig,
    PovmSpec,
    covariant_povm,
    ensemble_states,
    mutual_info_of_povm,
    optimize_povm,
)
from .sampling import SampleRecord, mutual_info_of_counts, plugin_mi, simulate_protocol

__version__ = "0.1.0"
