"""Uplink scheduling under a sum decoding-complexity budget.

The package models the decoding cost of rate-adapted turbo-coded uplinks,
allocates per-user rates so the total cost stays within a server budget
(water-level-guided and cost-greedy schedulers, plus a continuous
water-filling reference), and evaluates everything in a Monte-Carlo system
simulation with budget calibration to a target computational-outage rate.
"""

from .complexity import (
    GAP_GUARD,
    DomainError,
    LinearizationCoeffs,
    ModelParams,
    decode_complexity,
    gap,
    iteration_count,
    linearize,
    quadratic_complexity,
)
from .harness import (
    CampaignConfig,
    CampaignResult,
    SchedulerSeries,
    SweepPoint,
    budget_from_samples,
    calibrate_budget,
    empirical_cdf,
    run_campaign,
    sweep_lambda,
    sweep_nc,
    write_cdf_csvs,
    write_manifest,
    write_per_trial_csv,
    write_summary_csv,
    write_sweep_csv,
)
from .mcs import (
    DEFAULT_RATES,
    McsTable,
    build_table,
    db_to_linear,
    default_table,
    load_rates,
    max_feasible_index,
)
from .netsim import (
    MIN_DISTANCE_KM,
    Arena,
    CellArrays,
    CellGeometry,
    LayoutError,
    NetworkLayout,
    PhyParams,
    assemble_cells,
    estimate_cell_areas,
    generate_layout,
    load_layout,
    most_central_ids,
    occupancy_probability,
    save_layout,
)
from .sched import (
    ContinuousSolution,
    RateAllocation,
    RateEntry,
    UserChannel,
    continuous_waterfill,
    mrs,
    required_water_level,
    scc,
    swf_discrete,
)

__version__ = "0.1.0"
