"""obflab: simulation and exact statistical analysis of greedy orthogonal
transmit beamforming with user selection in a multi-antenna broadcast
downlink.

The package pairs a seeded Monte-Carlo simulator for several
beamforming/scheduling schemes with exact closed-form (or quadrature)
per-user SINR distributions and mean sum rates, so the two can be
cross-validated to tight tolerances.
"""

__version__ = "0.1.0"

from .channel import (
    BeamformerMatrix,
    ChannelSet,
    SystemParams,
    draw_channel_batch,
    null_space_basis,
    substream,
)
from .schedulers import (
    ScheduleOutcome,
    adaptive_obf,
    greedy_zfdp_schedule,
    olbf,
    sum_rate,
    zfs_schedule,
)
from .analytic_obf import (
    ObfParams,
    obf_joint_pdf_scheduled,
    obf_marginal_pdf_grid,
    obf_mean_sum_rate,
    obf_selection_cdf,
    obf_sinr_grid,
    obf_unordered_pdf,
)
from .analytic_olbf import (
    OlbfParams,
    olbf_cdf_z,
    olbf_joint_pdf_t,
    olbf_marginal_pdf_sinr_grid,
    olbf_mean_sum_rate,
    olbf_sinr_grid,
    olbf_unordered_pdf_z,
)
from .grids import DistributionGrid
from .montecarlo import (
    SCHEMES,
    ExperimentConfig,
    ExperimentReport,
    attach_analysis,
    ks_distance,
    run_experiment,
)

__all__ = [
    "__version__",
    "BeamformerMatrix",
    "ChannelSet",
    "SystemParams",
    "draw_channel_batch",
    "null_space_basis",
    "substream",
    "ScheduleOutcome",
    "adaptive_obf",
    "greedy_zfdp_schedule",
    "olbf",
    "sum_rate",
    "zfs_schedule",
    "ObfParams",
    "obf_joint_pdf_scheduled",
    "obf_marginal_pdf_grid",
    "obf_mean_sum_rate",
    "obf_selection_cdf",
    "obf_unordered_pdf",
    "OlbfParams",
    "olbf_cdf_z",
    "olbf_joint_pdf_t",
    "olbf_marginal_pdf_sinr_grid",
    "olbf_mean_sum_rate",
    "olbf_unordered_pdf_z",
    "DistributionGrid",
    "obf_sinr_grid",
    "olbf_sinr_grid",
    "SCHEMES",
    "ExperimentConfig",
    "ExperimentReport",
    "attach_analysis",
    "ks_distance",
    "run_experiment",
]
