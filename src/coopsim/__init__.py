"""Simulator and throughput-region toolkit for two-hop cooperative relay
networks with encoding-based virtual queues and a back-pressure controller."""

from .controller import FIRST_HOP, IDLE, SECOND_HOP
from .model import (
    ConfigError,
    CountOverflowError,
    NetworkConfig,
    NetworkShape,
    load_config,
    queue_count_encoding_based,
    queue_count_state_based,
    validate_config,
)
from .queueing import QueueState
from .region import (
    DegeneracyError,
    LinearProgram,
    RegionWitness,
    SolverError,
    build_scale_lp,
    build_slack_lp,
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
