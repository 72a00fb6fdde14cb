"""Robust lattice-aligned transceiver design for MIMO interference networks.

Decoders recover an integer combination of the interfering codewords first,
subtract it, then decode the desired stream; precoders, receive filters and
the Gaussian-integer combination coefficients are optimized jointly against
worst-case channel-estimate errors inside a known ball.
"""

from .channel import (
    ChannelSet,
    SystemConfig,
    channelset_from_json,
    channelset_to_json,
    generate_channels,
    perturb_csi,
    rank_one_worst_delta,
    sample_delta_in_ball,
    snr_db_to_power,
    worst_case_crossterm_bound,
)
from .closedform import (
    SymmetricInstance,
    gain_condition,
    gain_condition_sq,
    ia_equivalent_state,
    symmetric_channelset,
    symmetric_design,
    symmetric_rmin_lattice,
    symmetric_rmin_ml,
)
from .errors import ConfigurationError, NonConvergenceError, PowerBudgetError
from .gaussint import (
    CoeffVector,
    GaussianInt,
    common_divisor,
    divides,
    exact_div,
    ggcd,
    is_divisor_free,
    nearest_gaussian,
)
from .harness import (
    ExperimentSpec,
    ResultRow,
    child_seed,
    experiment_from_json,
    run_experiment,
    summarize,
    write_csv,
)
from .lattice import Lattice, NestedPair, mod_lattice, nested_rate, quantize
from .rates import DesignState, RateReport, goodput, per_stream_rates, rate_report
from .solver import (
    SolveTrace,
    SolverConfig,
    multi_start,
    optimize_precoders,
    optimize_receivers,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelSet",
    "CoeffVector",
    "ConfigurationError",
    "DesignState",
    "ExperimentSpec",
    "GaussianInt",
    "Lattice",
    "NestedPair",
    "NonConvergenceError",
    "PowerBudgetError",
    "RateReport",
    "ResultRow",
    "SolveTrace",
    "SolverConfig",
    "SymmetricInstance",
    "SystemConfig",
    "channelset_from_json",
    "channelset_to_json",
    "child_seed",
    "common_divisor",
    "experiment_from_json",
    "gain_condition",
    "gain_condition_sq",
    "generate_channels",
    "divides",
    "exact_div",
    "ggcd",
    "goodput",
    "ia_equivalent_state",
    "is_divisor_free",
    "multi_start",
    "nearest_gaussian",
    "mod_lattice",
    "nested_rate",
    "optimize_precoders",
    "optimize_receivers",
    "per_stream_rates",
    "perturb_csi",
    "quantize",
    "rank_one_worst_delta",
    "rate_report",
    "run_experiment",
    "sample_delta_in_ball",
    "snr_db_to_power",
    "solve",
    "summarize",
    "symmetric_channelset",
    "symmetric_design",
    "symmetric_rmin_lattice",
    "symmetric_rmin_ml",
    "worst_case_crossterm_bound",
    "write_csv",
]
