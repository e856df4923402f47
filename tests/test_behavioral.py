import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fluxon.behavioral import (
    SYNAPSE_KINDS,
    SomaParams,
    SynapseConfig,
    bq_quantize,
    calibrate_threshold,
    soma_fire_times,
    soma_for_threshold,
    synapse_contribution,
)
from fluxon.core import SpikeTrain


def fire_count(params, times):
    return len(soma_fire_times(params, SpikeTrain("t", tuple(times))))


class TestCalibration:
    def test_single_pulse_threshold(self):
        assert calibrate_threshold(1, 65.0, 25.0) == 1.0

    def test_two_pulse_example(self):
        # 1 + e^(-65/25), evaluated by hand
        assert calibrate_threshold(2, 65.0, 25.0) == pytest.approx(1.0742735782143339, abs=1e-12)

    def test_three_pulse_example(self):
        # 1 + e^(-0.8) + e^(-1.6)
        assert calibrate_threshold(3, 20.0, 25.0) == pytest.approx(1.651225482111877, rel=1e-12)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            calibrate_threshold(0, 20.0, 25.0)
        with pytest.raises(ValueError):
            calibrate_threshold(2, -1.0, 25.0)


class TestSomaTiming:
    def test_fires_at_window_edge(self):
        soma = soma_for_threshold(2)  # t_max = 65 ps
        assert fire_count(soma, (0.0, 65.0)) == 1

    def test_misses_past_window(self):
        soma = soma_for_threshold(2)
        assert fire_count(soma, (0.0, 66.0)) == 0
        assert fire_count(soma, (0.0, 80.0)) == 0

    def test_three_threshold_window(self):
        soma = soma_for_threshold(3)  # t_max = 20 ps
        assert fire_count(soma, (0.0, 20.0, 40.0)) == 1
        assert fire_count(soma, (0.0, 30.0, 60.0)) == 0

    def test_six_pulse_burst_fires_every_40ps(self):
        soma = soma_for_threshold(2)
        out = soma_fire_times(soma, SpikeTrain("t", tuple(20.0 * k for k in range(6))))
        assert out.times == (20.0, 60.0, 100.0)

    def test_empty_train(self):
        assert fire_count(soma_for_threshold(3), ()) == 0

    def test_pinned_fire_times(self):
        # pinned fire times; the train is sorted first, so its order does not matter
        soma = soma_for_threshold(3, tau=30.0)
        times = tuple(float(t) for t in (0, 15, 31, 44, 70, 81, 95, 120))
        assert soma_fire_times(soma, SpikeTrain("t", times)).times == (31.0, 81.0)
        assert soma_fire_times(soma, SpikeTrain("t", times[::-1])).times == (31.0, 81.0)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("tau", [10.0, 25.0, 50.0, 100.0])
@pytest.mark.parametrize("t_max", [20.0, 65.0])
def test_threshold_boundary_sweep(n, tau, t_max):
    soma = SomaParams(n_threshold=n, tau=tau, t_max=t_max)
    exact = tuple(k * t_max for k in range(n))
    assert fire_count(soma, exact) == 1
    if n >= 2:  # a single pulse has no spacing to widen
        wide = tuple(k * t_max * 1.01 for k in range(n))
        assert fire_count(soma, wide) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("k", [1, 2, 5, 6, 12])
def test_burst_arithmetic_at_window_spacing(n, k):
    soma = soma_for_threshold(n)
    times = tuple(i * soma.t_max for i in range(k))
    assert fire_count(soma, times) == k // n


@pytest.mark.parametrize("spacing", [5.0, 20.0, 40.0, 65.0])
def test_burst_arithmetic_two_threshold_any_spacing(spacing):
    soma = soma_for_threshold(2)
    for k in (1, 2, 3, 6, 9):
        times = tuple(i * spacing for i in range(k))
        assert fire_count(soma, times) == k // 2


def test_count_monotonicity():
    soma = soma_for_threshold(3)
    spacing = 20.0
    counts = [fire_count(soma, tuple(i * spacing for i in range(k))) for k in range(1, 13)]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


class TestSynapse:
    def test_product(self):
        assert synapse_contribution(SynapseConfig("SM4", 2), 2) == 4

    def test_inhibitory(self):
        assert synapse_contribution(SynapseConfig("SM4", -1), 2) == -2

    def test_zero_weight(self):
        for x in (0, 1):
            assert synapse_contribution(SynapseConfig("SM1", 0), x) == 0

    def test_input_range_enforced(self):
        with pytest.raises(ValueError):
            synapse_contribution(SynapseConfig("SM2", 1), 2)
        with pytest.raises(ValueError):
            synapse_contribution(SynapseConfig("SM4", 1), -1)

    def test_weight_ranges(self):
        with pytest.raises(ValueError):
            SynapseConfig("SM1", -1)
        with pytest.raises(ValueError):
            SynapseConfig("SM2", 3)
        with pytest.raises(ValueError):
            SynapseConfig("SM3", 1)
        assert synapse_contribution(SynapseConfig("SM4", -2), 2) == -4
        assert synapse_contribution(SynapseConfig("SM1", 1), 1) == 1
        with pytest.raises(ValueError, match="input level 2 outside 0..1 for SM2"):
            synapse_contribution(SynapseConfig("SM2", 2), 2)

    def test_config_bound_equals_the_table_lookup(self):
        def table_contribution(cfg, x):
            """synapse_contribution as it was when it read the kind's row on every call."""
            xi = int(x)
            hi = SYNAPSE_KINDS[cfg.kind][2]
            if xi != x or not 0 <= xi <= hi:
                raise ValueError(f"input level {x} outside 0..{hi} for {cfg.kind}")
            return xi * cfg.weight

        def outcome(fn, cfg, x):
            try:
                got = fn(cfg, x)
            except ValueError as exc:
                return ValueError, str(exc)
            return type(got), got

        levels = (-1, 0, 1, 2, 3, 1.0, 1.5, math.nan, True, np.int64(2))
        for kind, (lo, hi, _) in SYNAPSE_KINDS.items():
            for w in range(lo, hi + 1):
                cfg = SynapseConfig(kind, w)
                for x in levels:
                    assert outcome(synapse_contribution, cfg, x) == outcome(table_contribution, cfg, x), (kind, w, x)


class TestBufferQuantizer:
    def test_six_pulses_20ps_apart(self):
        out = bq_quantize(6, 1000.0, 0.0)
        assert out.times == (0.0, 20.0, 40.0, 60.0, 80.0, 100.0)

    def test_inhibitory_total_clamps_to_silence(self):
        assert len(bq_quantize(-2, 1000.0, 0.0)) == 0

    def test_figure_style_total_of_four(self):
        weights = (1, 1, 1, -1)
        inputs = (1, 1, 2, 2)
        u = sum(synapse_contribution(SynapseConfig("SM4", w), x) for w, x in zip(weights, inputs))
        assert u == 2  # 1+1+2-2
        out = bq_quantize(4, 1000.0, 1000.0)
        assert len(out) == 4 and out.times[0] == 1000.0

    def test_cap_at_clock_budget(self):
        assert len(bq_quantize(5, 100.0, 0.0)) == 5
        assert len(bq_quantize(9, 100.0, 0.0)) == 5
        assert len(bq_quantize(9, 119.9, 0.0)) == 5

    @pytest.mark.parametrize("clock", [0.0, -1000.0])
    def test_non_positive_clock_rejected(self, clock):
        with pytest.raises(ValueError, match="clock_period must be positive"):
            bq_quantize(1, clock, 0.0)

    def test_sane_bound(self):
        with pytest.raises(ValueError):
            bq_quantize(65, 1000.0, 0.0)

    @given(st.integers(min_value=-64, max_value=64))
    def test_count_is_clamped_total(self, u):
        assert len(bq_quantize(u, 1000.0, 0.0)) == max(0, min(u, 50))  # 50 pulses 20 ps apart fit in 1000 ps


def test_soma_params_validation():
    for n in (0, 7):
        with pytest.raises(ValueError, match=f"no soma cell has threshold {n}; the cells cover 1..6"):
            soma_for_threshold(n)
        with pytest.raises(ValueError):
            SomaParams(n_threshold=n, t_max=20.0)
    with pytest.raises(ValueError):
        SomaParams(n_threshold=2, t_max=65.0, tau=-1.0)
    with pytest.raises(ValueError):
        soma_for_threshold(2, t_max=0.0)
    p = soma_for_threshold(2)
    assert p.t_max == 65.0 and 1.0 < p.v_th < 2.0
    assert soma_for_threshold(2, t_max=30.0, tau=10.0) == SomaParams(2, 30.0, 10.0)
