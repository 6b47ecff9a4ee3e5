"""Simulator and throughput-region toolkit for two-hop cooperative relay
networks with encoding-based virtual queues and a back-pressure controller."""

from .controller import (
    FIRST_HOP,
    IDLE,
    SECOND_HOP,
    Decision,
    decide,
    lyapunov,
)
from .model import (
    ConfigError,
    CountOverflowError,
    EncodingScheme,
    FadingModel,
    NetworkConfig,
    NetworkShape,
    SupportRelation,
    load_config,
    queue_count_encoding_based,
    queue_count_state_based,
    validate_config,
)
from .queueing import QueueState, apply_first_hop, apply_idle, apply_second_hop
from .region import (
    DegeneracyError,
    LinearProgram,
    RegionWitness,
    SolverError,
    boundary_scale,
    build_scale_lp,
    build_slack_lp,
    interior_slack,
    scale_witness,
    slack_witness,
    solve_lp,
    witness_max_violation,
)
from .sim import (
    ArrivalConfig,
    DriftEstimate,
    Metrics,
    StabilityVerdict,
    drift_check,
    run,
    stability_verdict,
)

__version__ = "0.1.0"
