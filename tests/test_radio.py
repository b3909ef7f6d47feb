"""Tests for the propagation, compensation, reception and energy models."""

import math
import random

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from eastsim.config import SimConfig, validate
from eastsim.engine import run_simulation
from eastsim.errors import ConfigError
from eastsim.radio import (
    EnergyModelParams,
    LinkBudgetParams,
    PrrParams,
    dbm_to_watts,
    free_space_base_requirement,
    level_row,
    loss_row,
    power_level_for_rssi_loss,
    prr_from_margin,
    rssi_loss_from_temperature,
    rx_energy,
    tx_energy,
)

LB = LinkBudgetParams()


class TestLossFromTemperature:
    def test_reference_point(self):
        assert rssi_loss_from_temperature(25.0) == 0.0

    def test_hot_end(self):
        # 0.1996 * 28 by hand
        assert rssi_loss_from_temperature(53.0) == pytest.approx(5.5888, abs=1e-9)

    def test_cold_end(self):
        # 0.1996 * -35 by hand
        assert rssi_loss_from_temperature(-10.0) == pytest.approx(-6.986, abs=1e-9)

    def test_linearity(self):
        rng = random.Random(7)
        for _ in range(200):
            a = rng.uniform(-60.0, 90.0)
            b = rng.uniform(-60.0, 90.0)
            diff = rssi_loss_from_temperature(a) - rssi_loss_from_temperature(b)
            assert diff == pytest.approx(0.1996 * (a - b), rel=1e-12, abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            rssi_loss_from_temperature(math.nan)
        with pytest.raises(ValueError):
            rssi_loss_from_temperature(math.inf)


class TestPowerLevelForLoss:
    def test_unit_base(self):
        # (loss + 40) / 12 == 1 at loss = -28
        assert power_level_for_rssi_loss(-28.0) == pytest.approx(1.0)

    def test_region_thresholds(self):
        # reference threshold levels for losses 3.78 / -0.61 / -5.17 dBm
        assert power_level_for_rssi_loss(3.78) == pytest.approx(43.24, abs=0.05)
        assert power_level_for_rssi_loss(-0.61) == pytest.approx(31.77, abs=0.05)
        assert power_level_for_rssi_loss(-5.17) == pytest.approx(22.21, abs=0.05)

    def test_frozen_values(self):
        # hand evaluation of ((loss + 40) / 12) ** 2.91
        assert power_level_for_rssi_loss(3.78) == pytest.approx(43.22102156145386, rel=1e-12)
        assert power_level_for_rssi_loss(0.0) == pytest.approx(33.23358166332529, rel=1e-12)
        assert power_level_for_rssi_loss(0.5) == pytest.approx(34.4569388020839, rel=1e-12)

    def test_strictly_increasing(self):
        rng = random.Random(11)
        for _ in range(500):
            lo = rng.uniform(-39.9, 20.0)
            hi = lo + rng.uniform(1e-6, 5.0)
            assert power_level_for_rssi_loss(lo) < power_level_for_rssi_loss(hi)

    def test_domain_guard(self):
        with pytest.raises(ValueError) as excinfo:
            power_level_for_rssi_loss(-40.0)
        assert str(excinfo.value) == "rssi loss must exceed -40.0 dB, got -40.0"
        with pytest.raises(ValueError):
            power_level_for_rssi_loss(-41.0)
        for loss in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="rssi loss must be finite"):
                power_level_for_rssi_loss(loss)

    def test_composition_over_temperature_range(self):
        # composed endpoints, frozen from hand evaluation
        low = power_level_for_rssi_loss(rssi_loss_from_temperature(-10.0))
        high = power_level_for_rssi_loss(rssi_loss_from_temperature(53.0))
        assert low == pytest.approx(19.010528107784424, rel=1e-12)
        assert high == pytest.approx(48.625023224342186, rel=1e-12)
        for t in [x * 0.5 for x in range(-20, 107)]:
            level = power_level_for_rssi_loss(rssi_loss_from_temperature(t))
            assert 19.0 <= level <= 48.7


@st.composite
def valid_temperature_rows(draw):
    """A row of temperatures within the range of a config ``validate``
    accepts: both ends of the range, -0.0 where the range holds it, and
    values drawn between."""
    t_min, t_max = sorted([draw(st.floats(-200.0, 1e4)), draw(st.floats(-200.0, 1e4))])
    config = SimConfig()
    config = config._replace(temperature=config.temperature._replace(t_min_c=t_min, t_max_c=t_max))
    try:
        validate(config)
    except ConfigError:
        reject()
    zero = [-0.0] if t_min <= 0.0 <= t_max else []
    return [t_min, t_max, *zero, *draw(st.lists(st.floats(t_min, t_max), max_size=30))]


class TestWholeRoundRows:
    """loss_row and level_row are the engine's shared step: the checked
    scalar functions over a round, without the checks."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(valid_temperature_rows())
    @example([-10.0, 53.0, -0.0, 0.0, 25.0])  # the default range's ends, both zeros, the reference
    def test_rows_equal_scalar_functions_bit_for_bit(self, temps):
        losses = loss_row(temps)
        expected = [rssi_loss_from_temperature(t) for t in temps]
        assert [x.hex() for x in losses] == [x.hex() for x in expected]
        levels = level_row(losses)
        expected = [power_level_for_rssi_loss(loss) for loss in losses]
        assert [x.hex() for x in levels] == [x.hex() for x in expected]


class TestFreeSpaceBaseRequirement:
    def test_spot_value_100m(self):
        # independent dB-domain sum: 10log10(0.0029) + 8.3
        #   + 10log10(kTB/1mW) + 20log10(4*pi*100/lambda) + 5
        assert free_space_base_requirement(100.0, LB) == pytest.approx(-26.45600498302143, rel=1e-12)
        assert free_space_base_requirement(100.0, LB) == pytest.approx(-26.45, abs=0.1)

    def test_zero_path_loss_distance(self):
        # at d = lambda / (4 pi) the distance term vanishes; remainder is the
        # sum of the non-distance terms, computed independently here
        d = LB.wavelength_m / (4.0 * math.pi)
        expected = (
            10.0 * math.log10(0.0029)
            + 8.3
            + 10.0 * math.log10(1.380649e-23 * 300.0 * 83.5e6 / 1e-3)
            + 5.0
        )
        assert expected == pytest.approx(-106.68710989219545, rel=1e-12)
        assert free_space_base_requirement(d, LB) == pytest.approx(expected, rel=1e-12)

    def test_doubling_law(self):
        rng = random.Random(3)
        for _ in range(100):
            d = rng.uniform(0.5, 500.0)
            delta = free_space_base_requirement(2.0 * d, LB) - free_space_base_requirement(d, LB)
            assert delta == pytest.approx(20.0 * math.log10(2.0), abs=1e-9)

    def test_monotone_in_distance_and_temperature_free(self):
        assert free_space_base_requirement(10.0, LB) < free_space_base_requirement(11.0, LB)
        # no temperature input exists; changing kelvin noise temp is a config matter
        hot = LinkBudgetParams(temperature_kelvin=330.0)
        assert free_space_base_requirement(10.0, hot) > free_space_base_requirement(10.0, LB)

    def test_rejects_non_positive_distance(self):
        with pytest.raises(ValueError):
            free_space_base_requirement(0.0, LB)
        with pytest.raises(ValueError):
            free_space_base_requirement(-1.0, LB)


class TestRequiredTransmitPower:
    """Required transmit power: the distance term plus the compensation level."""

    def test_spot_values(self):
        # sums of the 100 m base value with the two threshold levels
        assert free_space_base_requirement(100.0, LB) + 43.24 == pytest.approx(16.79, abs=0.15)
        assert free_space_base_requirement(100.0, LB) + 22.21 == pytest.approx(-4.24, abs=0.15)

    def test_additive(self):
        # every alive node in every round of both controllers' runs
        for controller in ("east", "classical"):
            cfg = SimConfig(node_count=12, rounds=30, seed=5, controller=controller)
            result = run_simulation(cfg)
            ref_x, ref_y = result.deployment.reference_m
            base = [
                free_space_base_requirement(math.hypot(x - ref_x, y - ref_y), LB)
                for x, y in zip(result.deployment.x_m, result.deployment.y_m)
            ]
            for rec in result.records:
                for i, alive in enumerate(rec.alive):
                    if alive:
                        assert rec.pt_dbm[i] == base[i] + rec.levels_dbm[i]


class TestDbmWattsConversion:
    def test_definition(self):
        assert dbm_to_watts(0.0) == pytest.approx(0.001, rel=1e-12)
        assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)

    def test_round_trip(self):
        # against the inverse 30 + 10 log10(W)
        rng = random.Random(13)
        for _ in range(300):
            dbm = rng.uniform(-120.0, 50.0)
            back = 30.0 + 10.0 * math.log10(dbm_to_watts(dbm))
            assert back == pytest.approx(dbm, rel=1e-9, abs=1e-9)
            watts = rng.uniform(1e-12, 10.0)
            assert dbm_to_watts(30.0 + 10.0 * math.log10(watts)) == pytest.approx(watts, rel=1e-9)

    def test_rejects_non_finite(self):
        for power in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="power must be finite"):
                dbm_to_watts(power)


class TestPrrFromMargin:
    def test_midpoint(self):
        q = PrrParams(alpha_per_db=0.5, beta_db=-4.0)
        assert prr_from_margin(-4.0, q) == pytest.approx(0.5)

    def test_zero_margin(self):
        # 1 / (1 + exp(-2)) by hand
        q = PrrParams(alpha_per_db=0.5, beta_db=-4.0)
        assert prr_from_margin(0.0, q) == pytest.approx(0.8807970779778823, rel=1e-12)

    def test_monotone_and_bounded(self):
        q = PrrParams()
        prev = 0.0
        for margin in [x * 0.25 for x in range(-200, 201)]:
            val = prr_from_margin(margin, q)
            assert 0.0 < val < 1.0
            assert val > prev
            prev = val
        assert prr_from_margin(600.0, q) == pytest.approx(1.0)

    def test_exp_overflow_gives_zero(self):
        # exp(1000 * 996) overflows; 1 / (1 + inf) is 0
        q = PrrParams(alpha_per_db=1000.0, beta_db=-4.0)
        assert prr_from_margin(-1000.0, q) == 0.0
        assert prr_from_margin(1000.0, q) == 1.0

    def test_rejects_non_finite(self):
        for margin in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="margin must be finite"):
                prr_from_margin(margin, PrrParams())


class TestEnergy:
    E = EnergyModelParams()

    def test_tx_hand_value(self):
        # 50 nJ/bit * 1000 + 1 mW * 4 ms
        assert tx_energy(0.0, 1000, self.E) == pytest.approx(5.4e-5, rel=1e-12)

    def test_rx_hand_value(self):
        assert rx_energy(1000, self.E) == pytest.approx(5.0e-5, rel=1e-12)

    def test_tx_monotone_in_power(self):
        prev = 0.0
        for dbm in range(-30, 50, 2):
            val = tx_energy(float(dbm), 512, self.E)
            assert val > prev
            prev = val

    def test_positive_and_bit_guard(self):
        assert tx_energy(-100.0, 1, self.E) > 0.0
        assert rx_energy(1, self.E) > 0.0
        with pytest.raises(ValueError):
            tx_energy(0.0, 0, self.E)
        with pytest.raises(ValueError):
            rx_energy(0, self.E)
