import json

import numpy as np
import pytest

from conftest import all_ternary_inputs, random_spec
from fluxon.behavioral import (
    BqConfig,
    SynapseConfig,
    bq_quantize,
    soma_fire_times,
    soma_for_threshold,
    synapse_contribution,
)
from fluxon.core import PulseEvent, sorted_events
from fluxon.snn import (
    AMBIGUOUS,
    LayerSpec,
    NetworkSpec,
    SimReport,
    accuracy_metrics,
    classify_outputs,
    evaluate_discrete,
    simulate_spiking,
)


def small_spec(w1, th1, w2, th2):
    return NetworkSpec(
        input_dim=np.asarray(w1).shape[1],
        layers=(LayerSpec(np.asarray(w1), th1, "SM4"), LayerSpec(np.asarray(w2), th2, "SM2")),
    )


class TestDiscrete:
    def test_all_excitatory_reaches_six(self):
        spec = small_spec([[1, 1, 1, 1]], (5,), [[1]], (1,))
        hidden = evaluate_discrete(spec, (1, 1, 2, 2))[0]
        assert hidden.tolist() == [1]  # u = 6 >= 5

    def test_zero_weights_never_fire(self):
        spec = small_spec(np.zeros((4, 4), dtype=int), (1, 1, 1, 1), np.zeros((3, 4), dtype=int), (1, 1, 1))
        for x in ((0, 0, 0, 0), (2, 2, 2, 2)):
            assert evaluate_discrete(spec, x)[-1].tolist() == [0, 0, 0]

    def test_inhibitory_threshold_cases(self):
        # u = 1+1+2-2 = 2: fires for thresholds 1 and 2, not 5
        for th, want in ((1, 1), (2, 1), (5, 0)):
            spec = small_spec([[1, 1, 1, -1]], (th,), [[1]], (1,))
            assert evaluate_discrete(spec, (1, 1, 2, 2))[0].tolist() == [want]

    def test_dimension_mismatch(self):
        spec = small_spec([[1, 1, 1, 1]], (1,), [[1]], (1,))
        with pytest.raises(ValueError):
            evaluate_discrete(spec, (1, 1))

    def test_input_alphabet(self):
        spec = small_spec([[1, 1, 1, 1]], (1,), [[1]], (1,))
        with pytest.raises(ValueError):
            evaluate_discrete(spec, (3, 0, 0, 0))


class TestClassify:
    def test_single(self):
        assert classify_outputs([0, 1, 0]) == 1

    def test_none(self):
        assert classify_outputs([0, 0, 0]) is None

    def test_ambiguous(self):
        assert classify_outputs([1, 1, 0]) == AMBIGUOUS


class TestSpiking:
    def test_zero_input_silent(self):
        spec = small_spec(np.ones((4, 4), dtype=int), (1, 1, 1, 1), np.ones((3, 4), dtype=int), (1, 1, 1))
        report = simulate_spiking(spec, (0, 0, 0, 0))
        assert report.fired_class is None
        assert report.event_log == []

    def test_matches_discrete_on_random_specs(self):
        rng = np.random.default_rng(123)
        inputs = all_ternary_inputs()
        for _ in range(50):
            spec = random_spec(rng)
            for x in inputs:
                want = evaluate_discrete(spec, x)[-1]
                got = simulate_spiking(spec, x).final_outputs
                assert np.array_equal(want, got)

    def test_determinism(self):
        rng = np.random.default_rng(7)
        spec = random_spec(rng)
        a = simulate_spiking(spec, (1, 0, 2, 1))
        b = simulate_spiking(spec, (1, 0, 2, 1))
        assert [(e.time, e.node) for e in a.event_log] == [(e.time, e.node) for e in b.event_log]

    def test_latch_one_pulse_per_clock(self):
        # all-excitatory net with unit thresholds: every soma bursts,
        # the latch must still forward exactly one pulse per clock
        spec = small_spec(np.ones((4, 4), dtype=int), (1, 1, 1, 1), np.ones((3, 4), dtype=int), (1, 1, 1))
        report = simulate_spiking(spec, (2, 2, 2, 2))
        per_node_clock: dict[tuple, int] = {}
        for ev in report.event_log:
            if ev.node.endswith("/out"):
                key = (ev.node, int(ev.time // spec.clock_ps))
                per_node_clock[key] = per_node_clock.get(key, 0) + 1
        assert per_node_clock and all(v == 1 for v in per_node_clock.values())

    def test_monotone_excitation(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            spec = random_spec(rng)
            x = rng.integers(0, 3, size=4)
            li = int(rng.integers(0, 2))
            layer = spec.layers[li]
            j = int(rng.integers(0, layer.n_neurons))
            k = int(rng.integers(0, layer.fan_in))
            if layer.weights[j, k] == 2:
                continue
            before = evaluate_discrete(spec, x)[li][j]
            w_new = layer.weights.copy()
            w_new[j, k] += 1
            bumped = NetworkSpec(
                input_dim=spec.input_dim,
                layers=tuple(
                    LayerSpec(w_new, l.thresholds, l.synapse) if i == li else l
                    for i, l in enumerate(spec.layers)
                ),
            )
            # bumping an upstream weight keeps this neuron's input fixed
            after = evaluate_discrete(bumped, x)[li][j]
            if before == 1:
                assert after == 1


def reference_simulate_spiking(spec: NetworkSpec, x) -> SimReport:
    """The engine before neuron responses were memoized: a validated
    SynapseConfig per synapse, and a fresh BQ burst, soma and fold per
    neuron, on every input. The oracle for simulate_spiking."""
    xv = np.asarray(x, dtype=int)
    if xv.shape != (spec.input_dim,):
        raise ValueError(f"input shape {xv.shape} != ({spec.input_dim},)")
    if np.any(xv < 0) or np.any(xv > 2):
        raise ValueError("first-layer inputs must lie in {0, 1, 2}")
    bq = BqConfig(clock_period=spec.clock_ps)
    events = []
    for k, level in enumerate(xv):
        events.extend(bq_quantize(int(level), bq, 0.0, node=f"input/{k}").events())
    acts = xv
    per_clock = [np.zeros(spec.output_dim, dtype=int) for _ in spec.layers]
    for li, layer in enumerate(spec.layers):
        t0 = li * spec.clock_ps
        fired = np.zeros(layer.n_neurons, dtype=int)
        for j in range(layer.n_neurons):
            u = 0
            for k in range(layer.fan_in):
                cfg = SynapseConfig(layer.synapse, int(layer.weights[j, k]))
                u += synapse_contribution(cfg, int(acts[k]))
            prefix = f"layer{li}/neuron{j}"
            burst = bq_quantize(u, bq, t0, node=f"{prefix}/bq")
            events.extend(burst.events())
            soma = soma_for_threshold(layer.thresholds[j])
            fires = soma_fire_times(soma, burst.renamed(f"{prefix}/soma"))
            events.extend(fires.events())
            if len(fires):
                fired[j] = 1
                events.append(PulseEvent(t0 + spec.clock_ps, f"{prefix}/out"))
        acts = fired
        if li == len(spec.layers) - 1:
            per_clock[li] = fired
    return SimReport(per_clock, sorted_events(events), classify_outputs(per_clock[-1]))


def assert_same_report(got: SimReport, want: SimReport):
    assert [(e.time, e.node) for e in got.event_log] == [(e.time, e.node) for e in want.event_log]
    assert len(got.outputs) == len(want.outputs)
    for a, b in zip(got.outputs, want.outputs):
        assert a.dtype == b.dtype and a.tolist() == b.tolist()
    assert got.fired_class == want.fired_class


def negative_spec():
    # every first-layer weight -2: totals run down to -16 and clamp to zero
    return small_spec(np.full((4, 4), -2), (1, 2, 5, 1), np.full((3, 4), -1), (1, 1, 2))


def short_clock_spec():
    # clock_ps=200 clamps BQ bursts at 200 // 20 = 10 pulses; totals reach 16
    return NetworkSpec(
        input_dim=4,
        layers=(
            LayerSpec(np.full((2, 4), 2), (1, 5), "SM4"),
            LayerSpec(np.ones((3, 2), dtype=int), (1, 2, 5), "SM2"),
        ),
        clock_ps=200.0,
    )


class TestAgainstReference:
    @pytest.mark.parametrize("shape", [(4, 4, 3), (4, 16, 3)])
    def test_random_specs_all_inputs(self, shape):
        rng = np.random.default_rng(sum(shape))
        inputs = all_ternary_inputs()
        for _ in range(6):
            spec = random_spec(rng, shape)
            for x in inputs:
                assert_same_report(simulate_spiking(spec, x), reference_simulate_spiking(spec, x))

    @pytest.mark.parametrize("make_spec", [short_clock_spec, negative_spec])
    def test_clamped_totals(self, make_spec):
        spec = make_spec()
        for x in all_ternary_inputs():
            assert_same_report(simulate_spiking(spec, x), reference_simulate_spiking(spec, x))

    def test_short_clock_clamps_burst(self):
        report = simulate_spiking(short_clock_spec(), (2, 2, 2, 2))
        burst = [e.time for e in report.event_log if e.node == "layer0/neuron0/bq"]
        assert burst == [20.0 * k for k in range(10)]

    def test_negative_totals_emit_nothing(self):
        report = simulate_spiking(negative_spec(), (2, 2, 2, 2))
        assert {e.node.split("/")[0] for e in report.event_log} == {"input"}
        assert report.fired_class is None

    def test_total_beyond_bq_bound_raises_every_call(self):
        # 17 synapses of weight 2 at level 2: total 68 > 64
        spec = NetworkSpec(17, (LayerSpec(np.full((1, 17), 2), (1,), "SM4"),))
        with pytest.raises(ValueError, match="outside sane bound") as want:
            reference_simulate_spiking(spec, [2] * 17)
        for _ in range(2):
            with pytest.raises(ValueError) as got:
                simulate_spiking(spec, [2] * 17)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("x", [(3, 0, 0, 0), (0, -1, 0, 0), (1, 1)])
    def test_bad_input_raises_every_call(self, x):
        spec = small_spec([[1, 1, 1, 1]], (1,), [[1]], (1,))
        with pytest.raises(ValueError) as want:
            reference_simulate_spiking(spec, x)
        for _ in range(2):
            with pytest.raises(ValueError) as got:
                simulate_spiking(spec, x)
            assert str(got.value) == str(want.value)

    def test_weights_are_read_only(self):
        spec = small_spec([[1, 1, 1, 1]], (1,), [[1]], (1,))
        with pytest.raises(ValueError):
            spec.layers[0].weights[0, 0] = 2


class TestSpecValidation:
    def test_weight_range(self):
        with pytest.raises(ValueError):
            small_spec([[3, 0, 0, 0]], (1,), [[1]], (1,))

    def test_threshold_set(self):
        with pytest.raises(ValueError):
            small_spec([[1, 0, 0, 0]], (4,), [[1]], (1,))

    def test_layer0_needs_sm4(self):
        with pytest.raises(ValueError):
            NetworkSpec(4, (LayerSpec(np.ones((2, 4), dtype=int), (1, 1), "SM2"),))

    def test_fan_in_chain(self):
        with pytest.raises(ValueError):
            NetworkSpec(
                4,
                (
                    LayerSpec(np.ones((4, 4), dtype=int), (1,) * 4, "SM4"),
                    LayerSpec(np.ones((3, 5), dtype=int), (1,) * 3, "SM2"),
                ),
            )

    def test_json_roundtrip(self):
        rng = np.random.default_rng(3)
        spec = random_spec(rng)
        back = NetworkSpec.from_json(spec.to_json())
        assert back.input_dim == spec.input_dim
        assert back.clock_ps == spec.clock_ps
        for a, b in zip(back.layers, spec.layers):
            assert np.array_equal(a.weights, b.weights)
            assert a.thresholds == b.thresholds
            assert a.synapse == b.synapse
        doc = json.loads(spec.to_json())
        assert set(doc) == {"input_dim", "clock_ps", "layers"}


def test_accuracy_metrics_counts_misses():
    spec = small_spec(np.zeros((4, 4), dtype=int), (1,) * 4, np.zeros((3, 4), dtype=int), (1,) * 3)
    m = accuracy_metrics(spec, np.zeros((5, 4), dtype=int), [0] * 5)
    assert m == {"accuracy": 0.0, "n_none": 5, "n_ambiguous": 0}
