import pytest
from hypothesis import given, strategies as st

from fluxon.behavioral import (
    BqConfig,
    SomaParams,
    SomaState,
    SynapseConfig,
    bq_quantize,
    calibrate_threshold,
    soma_fire_times,
    soma_for_threshold,
    soma_step,
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

    def test_out_of_order_pulse_rejected(self):
        soma = soma_for_threshold(2)
        state, _ = soma_step(soma, SomaState(), 10.0)
        with pytest.raises(ValueError):
            soma_step(soma, state, 5.0)

    def test_fold_matches_step_iteration(self):
        soma = soma_for_threshold(3, tau=30.0)
        times = tuple(float(t) for t in (0, 15, 31, 44, 70, 81, 95, 120))
        state = SomaState()
        fires = []
        for t in times:
            state, fired = soma_step(soma, state, t)
            if fired:
                fires.append(t)
        assert soma_fire_times(soma, SpikeTrain("t", times)).times == tuple(fires)


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
        assert SynapseConfig("SM4", -2).max_input == 2
        assert SynapseConfig("SM2", 2).max_input == 1


class TestBufferQuantizer:
    def test_six_pulses_20ps_apart(self):
        out = bq_quantize(6, BqConfig(), 0.0)
        assert out.times == (0.0, 20.0, 40.0, 60.0, 80.0, 100.0)

    def test_inhibitory_total_clamps_to_silence(self):
        assert len(bq_quantize(-2, BqConfig(), 0.0)) == 0

    def test_figure_style_total_of_four(self):
        weights = (1, 1, 1, -1)
        inputs = (1, 1, 2, 2)
        u = sum(synapse_contribution(SynapseConfig("SM4", w), x) for w, x in zip(weights, inputs))
        assert u == 2  # 1+1+2-2
        out = bq_quantize(4, BqConfig(), 1000.0)
        assert len(out) == 4 and out.times[0] == 1000.0

    def test_cap_at_clock_budget(self):
        cfg = BqConfig(clock_period=100.0)
        assert cfg.max_pulses_per_clock == 5
        assert len(bq_quantize(9, cfg, 0.0)) == 5

    def test_sane_bound(self):
        with pytest.raises(ValueError):
            bq_quantize(65, BqConfig(), 0.0)

    @given(st.integers(min_value=-64, max_value=64))
    def test_count_is_clamped_total(self, u):
        cfg = BqConfig()
        assert len(bq_quantize(u, cfg, 0.0)) == max(0, min(u, cfg.max_pulses_per_clock))


def test_soma_params_validation():
    with pytest.raises(ValueError):
        SomaParams(n_threshold=7)
    with pytest.raises(ValueError):
        SomaParams(n_threshold=2, tau=-1.0)
    p = soma_for_threshold(2)
    assert p.t_max == 65.0 and 1.0 < p.v_th < 2.0
