"""Propagation, temperature compensation, packet reception and energy models.

All functions are pure. Powers are in dBm unless a name says watts,
temperatures in degrees Celsius, distances in meters. Inputs outside a
function's domain raise ValueError.

``loss_row`` and ``level_row`` are the whole-round forms of
``rssi_loss_from_temperature`` and ``power_level_for_rssi_loss``: the same
arithmetic over a list, without the checks. Their precondition is that every
temperature is finite and within ``[t_min_c, t_max_c]`` of a config that
``config.validate`` accepts: it proves the loss at ``t_min_c`` inside the
compensation curve's domain and the level at ``t_max_c`` finite, and both
curves increase.

The engine's member pass evaluates ``prr_from_margin`` inline, once per
node (a separate PRR loop measured slower), so a change to that formula
must change both places.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

# Unit-carrying aliases: plain floats whose names document the unit.
TemperatureC = float
RssiLossDbm = float
PowerDbm = float
PowerWatts = float
Joules = float

BOLTZMANN_J_PER_K = 1.380649e-23
SPEED_OF_LIGHT_M_PER_S = 299792458.0

# Empirical temperature/loss relation: slope in dB per degree Celsius around
# the 25 C reference point.
TEMP_LOSS_SLOPE_DB_PER_C = 0.1996
TEMP_REFERENCE_C = 25.0

# Compensation curve mapping a loss to the transmit power level that offsets
# it: level = ((loss + 40) / 12) ** 2.91. Only defined for loss > -40 dB.
LEVEL_CURVE_OFFSET_DB = 40.0
LEVEL_CURVE_SCALE_DB = 12.0
LEVEL_CURVE_EXPONENT = 2.91


class LinkBudgetParams(NamedTuple):
    """Physical constants of the free-space link budget.

    Defaults describe a 2.4 GHz ISM-band receiver. ``margin_m`` is a
    dimensionless margin multiplying thermal noise. ``boltzmann_k`` is the
    physical constant, not a field, so no config sets it.
    """

    eta: float = 0.0029
    eb_n0_db: float = 8.3
    bandwidth_hz: float = 83.5e6
    frequency_hz: float = 2.45e9
    rnf_db: float = 5.0
    temperature_kelvin: float = 300.0
    margin_m: float = 1.0

    @property
    def boltzmann_k(self) -> float:
        return BOLTZMANN_J_PER_K

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT_M_PER_S / self.frequency_hz


class PrrParams(NamedTuple):
    """Logistic packet-reception model: slope per dB and margin offset."""

    alpha_per_db: float = 0.5
    beta_db: float = -4.0


class EnergyModelParams(NamedTuple):
    """First-order radio energy model and packet sizes."""

    e_elec_j_per_bit: float = 50e-9
    bitrate_bps: float = 250_000.0
    beacon_bits: int = 256
    ack_bits: int = 256
    data_bits: int = 1024
    initial_battery_j: float = 2.0


def rssi_loss_from_temperature(temp_c: TemperatureC) -> RssiLossDbm:
    """Transmit power loss attributed to temperature.

    loss [dB] = 0.1996 * (T - 25), zero at the 25 C reference.
    """
    if not math.isfinite(temp_c):
        raise ValueError(f"temperature must be finite, got {temp_c}")
    return TEMP_LOSS_SLOPE_DB_PER_C * (temp_c - TEMP_REFERENCE_C)


def power_level_for_rssi_loss(loss_dbm: RssiLossDbm) -> PowerDbm:
    """Transmit power level that compensates a given loss.

    level [dBm] = ((loss + 40) / 12) ** 2.91, defined for loss > -40 dB
    (the base of the fractional power must stay positive).
    """
    if not math.isfinite(loss_dbm):
        raise ValueError(f"rssi loss must be finite, got {loss_dbm}")
    if loss_dbm <= -LEVEL_CURVE_OFFSET_DB:
        raise ValueError(f"rssi loss must exceed {-LEVEL_CURVE_OFFSET_DB} dB, got {loss_dbm}")
    return ((loss_dbm + LEVEL_CURVE_OFFSET_DB) / LEVEL_CURVE_SCALE_DB) ** LEVEL_CURVE_EXPONENT


def loss_row(temps: Sequence[TemperatureC]) -> list[RssiLossDbm]:
    """``rssi_loss_from_temperature`` of each temperature, unchecked."""
    return [TEMP_LOSS_SLOPE_DB_PER_C * (t - TEMP_REFERENCE_C) for t in temps]


def level_row(losses: Sequence[RssiLossDbm]) -> list[PowerDbm]:
    """``power_level_for_rssi_loss`` of each loss, unchecked."""
    return [((loss + LEVEL_CURVE_OFFSET_DB) / LEVEL_CURVE_SCALE_DB) ** LEVEL_CURVE_EXPONENT
            for loss in losses]


def free_space_base_requirement(distance_m: float, params: LinkBudgetParams) -> PowerDbm:
    """Distance-dependent part of the required transmit power, in dBm.

    dB-domain link budget:
        10 log10(eta) + Eb/N0 + 10 log10(m k T B / 1 mW)
        + 20 log10(4 pi d / lambda) + RNF
    Strictly increasing in distance, independent of ambient temperature.
    """
    if not (distance_m > 0.0):
        raise ValueError(f"distance must be positive, got {distance_m}")
    noise_mw = (
        params.margin_m
        * params.boltzmann_k
        * params.temperature_kelvin
        * params.bandwidth_hz
        / 1e-3
    )
    return (
        10.0 * math.log10(params.eta)
        + params.eb_n0_db
        + 10.0 * math.log10(noise_mw)
        + 20.0 * math.log10(4.0 * math.pi * distance_m / params.wavelength_m)
        + params.rnf_db
    )


def dbm_to_watts(power_dbm: PowerDbm) -> PowerWatts:
    """Convert dBm to watts: 10 ** ((dBm - 30) / 10)."""
    if not math.isfinite(power_dbm):
        raise ValueError(f"power must be finite, got {power_dbm}")
    return 10.0 ** ((power_dbm - 30.0) / 10.0)


def prr_from_margin(margin_db: float, params: PrrParams) -> float:
    """Packet reception ratio for a link margin, logistic in the margin.

    prr = 1 / (1 + exp(-alpha * (margin - beta))); strictly increasing,
    bounded in (0, 1), equal to 0.5 at margin = beta. Where ``exp``
    overflows the result is 0.0, the IEEE limit of the formula.
    """
    if not math.isfinite(margin_db):
        raise ValueError(f"margin must be finite, got {margin_db}")
    try:
        return 1.0 / (1.0 + math.exp(-params.alpha_per_db * (margin_db - params.beta_db)))
    except OverflowError:
        return 0.0


def tx_energy(power_dbm: PowerDbm, bits: int, params: EnergyModelParams) -> Joules:
    """Energy to transmit ``bits`` at ``power_dbm``.

    Electronics cost per bit plus radiated power times airtime.
    """
    if bits <= 0:
        raise ValueError(f"bits must be positive, got {bits}")
    airtime_s = bits / params.bitrate_bps
    return params.e_elec_j_per_bit * bits + dbm_to_watts(power_dbm) * airtime_s


def rx_energy(bits: int, params: EnergyModelParams) -> Joules:
    """Energy to receive ``bits``: electronics cost only."""
    if bits <= 0:
        raise ValueError(f"bits must be positive, got {bits}")
    return params.e_elec_j_per_bit * bits
