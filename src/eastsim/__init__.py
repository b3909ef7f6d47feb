"""Deterministic simulator of temperature-aware transmission power control
in wireless sensor networks."""

__version__ = "0.1.0"

from .config import SimConfig, fingerprint, parse_config, validate
from .engine import RoundRecord, SimResult, run_simulation
from .errors import ConfigError, DataError, EastSimError, UsageError
from .protocol import (
    CadenceParams,
    ControlTraffic,
    Region,
    RegionConfig,
    classical_assign,
    east_assign,
    init_desired_neighbors,
    needs_closed_loop,
    partition_regions,
)
from .radio import (
    EnergyModelParams,
    LinkBudgetParams,
    PrrParams,
    dbm_to_watts,
    free_space_base_requirement,
    power_level_for_rssi_loss,
    prr_from_margin,
    rssi_loss_from_temperature,
    rx_energy,
    tx_energy,
)
from .report import (
    ComparisonReport,
    FigureSeries,
    RegionSummary,
    compare_runs,
    emit_figure_data,
    summarize,
)
from .topology import (
    Deployment,
    TemperatureProcess,
    deploy_random,
    load_temperature_trace,
    substream,
)
