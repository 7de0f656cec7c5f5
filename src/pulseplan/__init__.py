"""Pulse interleaving scheduler for multi-target tracking radars.

Given target tracks, a PRF set and (for subarray beamforming) a scan-plane
grid, the package computes interleaving availabilities, runs the greedy
heuristic schedulers over pluggable selection structures, validates every
schedule against the underlying integer program, solves small instances
exactly, and measures runtime scaling.
"""

from .errors import (
    InfeasibleError,
    InternalInvariantError,
    PulseplanError,
    ResourceLimitError,
    ScenarioError,
)
from .radar import (
    AvailabilityTable,
    PrfConfig,
    RadarConfig,
    TaskColumns,
    TrackTask,
    ambiguous_frequency,
    ambiguous_range,
    blind_widths,
    build_availability_table,
    default_prf_set,
    is_trackable,
    leftward_availability,
    rightward_availability,
    unambiguous_range,
    validate_prf,
)
from .geometry import (
    DiskCatalog,
    GridSpec,
    dedup_disks,
    enumerate_disks,
    project_to_scan_plane,
)
from .ip import (
    IpInstance,
    Schedule,
    ScheduledLook,
    Violation,
    build_instance,
    check_feasible,
    exact_objective,
    export_lp,
    solve_exact,
)
from .structures import BucketList, OpCounters, build_backend
from .edbf import HeuristicConfig, hied
from .sdbf import DiskHeuristicConfig, hisd
from .scenario import ScenarioSpec, ScalingReport, fit_complexity, gen_scenario, run_scaling

__version__ = "0.1.0"

__all__ = [
    "AvailabilityTable",
    "BucketList",
    "DiskCatalog",
    "DiskHeuristicConfig",
    "GridSpec",
    "HeuristicConfig",
    "InfeasibleError",
    "InternalInvariantError",
    "IpInstance",
    "OpCounters",
    "PrfConfig",
    "PulseplanError",
    "RadarConfig",
    "ResourceLimitError",
    "ScalingReport",
    "ScenarioError",
    "ScenarioSpec",
    "Schedule",
    "ScheduledLook",
    "TaskColumns",
    "TrackTask",
    "Violation",
    "ambiguous_frequency",
    "ambiguous_range",
    "blind_widths",
    "build_availability_table",
    "build_backend",
    "build_instance",
    "check_feasible",
    "dedup_disks",
    "default_prf_set",
    "enumerate_disks",
    "exact_objective",
    "export_lp",
    "fit_complexity",
    "gen_scenario",
    "hied",
    "hisd",
    "is_trackable",
    "leftward_availability",
    "project_to_scan_plane",
    "rightward_availability",
    "run_scaling",
    "solve_exact",
    "unambiguous_range",
    "validate_prf",
]
