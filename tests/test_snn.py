import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import all_ternary_inputs, random_spec
from fluxon.behavioral import (
    BQ_PULSE_SPACING_PS,
    DEFAULT_T_MAX,
    SynapseConfig,
    bq_quantize,
    soma_fire_times,
    soma_for_threshold,
    synapse_contribution,
)
from fluxon.core import PulseEvent, SpikeTrain, sorted_events
from fluxon.snn import (
    AMBIGUOUS,
    LayerSpec,
    NetworkSpec,
    SimReport,
    _neuron_response,
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
        for x in ((1, 1), np.zeros((2, 3), dtype=int), np.zeros((1, 2, 4), dtype=int), 1):
            with pytest.raises(ValueError, match=r"input shape \(.*\) != \(4,\)"):
                evaluate_discrete(spec, x)

    def test_input_alphabet(self):
        spec = small_spec([[1, 1, 1, 1]], (1,), [[1]], (1,))
        with pytest.raises(ValueError):
            evaluate_discrete(spec, (3, 0, 0, 0))
        # a bad level in any row of a batch is the single input's error
        for bad, match in ((3, "must lie in"), (1.5, "input level 1.5 is not an integer")):
            with pytest.raises(ValueError, match=match):
                evaluate_discrete(spec, np.array([[0, 1, 2, 0], [0, 0, bad, 0]]))

    @pytest.mark.parametrize("shape", [(4, 4, 3), (4, 16, 3)])
    def test_batch_equals_per_row(self, shape):
        rng = np.random.default_rng(sum(shape) + 1)
        inputs = all_ternary_inputs()
        for _ in range(6):
            spec = random_spec(rng, shape)
            batch = evaluate_discrete(spec, inputs)
            assert [b.shape for b in batch] == [(len(inputs), layer.n_neurons) for layer in spec.layers]
            for x, *rows in zip(inputs, *batch):
                for got, want in zip(rows, evaluate_discrete(spec, x)):
                    assert got.dtype == want.dtype and got.tolist() == want.tolist()


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

    @pytest.mark.parametrize("shape", [(4, 4, 3), (4, 16, 3)])
    def test_matches_discrete_over_every_soma_cell(self, shape):
        rng = np.random.default_rng(61)
        inputs = all_ternary_inputs()
        seen = set()
        for _ in range(60):
            spec = random_spec(rng, shape, thresholds=tuple(DEFAULT_T_MAX))
            seen.update(t for layer in spec.layers for t in layer.thresholds)
            for x in inputs:
                assert np.array_equal(evaluate_discrete(spec, x)[-1], simulate_spiking(spec, x).final_outputs)
        assert seen == set(range(1, 7))

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
    clock = spec.clock_ps
    events = []
    for k, level in enumerate(xv):
        events.extend(bq_quantize(int(level), clock, 0.0, node=f"input/{k}").events())
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
            burst = bq_quantize(u, clock, t0, node=f"{prefix}/bq")
            events.extend(burst.events())
            soma = soma_for_threshold(layer.thresholds[j])
            fires = soma_fire_times(soma, SpikeTrain(f"{prefix}/soma", burst.times))
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
        # 17 synapses of weight 2 at level 2 total 68 > 64; NetworkSpec rejects such a
        # network, so the cached response is asked for the total directly
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^synaptic total 68 outside sane bound \+-64$"):
                _neuron_response(68, 1, 0, 0, 1000.0)

    @pytest.mark.parametrize("x", [(3, 0, 0, 0), (0, -1, 0, 0), (1, 1), [(1, 0, 2, 0), (0, 1, 0, 2)]])
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

    def test_thresholds_are_read_only(self):
        spec = small_spec([[1, 1, 1, 1]], (5,), [[1]], (1,))
        assert spec.layers[0].theta.tolist() == [5]
        with pytest.raises(ValueError):
            spec.layers[0].theta[0] = 1

    @pytest.mark.parametrize("bad", [1.9, 0.5, math.nan, math.inf])
    @pytest.mark.parametrize("engine", [simulate_spiking, evaluate_discrete])
    def test_non_integral_input_rejected(self, engine, bad):
        # a cast to int would run 1.9 as level 1 and fail bare on NaN
        spec = small_spec([[1, 1, 1, 1]], (1,), [[1]], (1,))
        for x in ((bad, 0, 0, 0), np.array([0, 0, 0, bad])):
            with pytest.raises(ValueError, match=f"input level {bad!r} is not an integer"):
                engine(spec, x)

    def test_integral_float_input_runs_as_its_level(self):
        spec = small_spec(np.ones((4, 4), dtype=int), (1, 2, 5, 1), np.ones((3, 4), dtype=int), (1, 2, 5))
        x = (2, 0, 1, 2)
        assert_same_report(simulate_spiking(spec, np.asarray(x, dtype=float)),
                           reference_simulate_spiking(spec, x))

    def test_event_log_is_fresh_per_call(self):
        spec = small_spec(np.ones((4, 4), dtype=int), (1, 2, 5, 1), np.ones((3, 4), dtype=int), (1, 2, 5))
        x = (1, 2, 0, 1)
        first = simulate_spiking(spec, x)
        first.event_log.clear()
        assert_same_report(simulate_spiking(spec, x), reference_simulate_spiking(spec, x))

    def test_cached_events_are_immutable(self):
        spec = small_spec(np.ones((4, 4), dtype=int), (1, 2, 5, 1), np.ones((3, 4), dtype=int), (1, 2, 5))
        log = simulate_spiking(spec, (1, 2, 0, 1)).event_log
        assert log
        with pytest.raises(dataclasses.FrozenInstanceError):
            log[0].time = 0.5
        assert simulate_spiking(spec, (1, 2, 0, 1)).event_log == log

    @pytest.mark.parametrize("shape", [(4, 4, 3), (4, 16, 3)])
    def test_event_log_is_sorted_on_first_read(self, shape):
        rng = np.random.default_rng(sum(shape) + 7)
        for _ in range(3):
            spec = random_spec(rng, shape)
            for x in all_ternary_inputs():
                unread = simulate_spiking(spec, x)
                report = simulate_spiking(spec, x)
                log = report.event_log
                assert log == sorted(log, key=lambda e: (e.time, e.node))
                assert report.event_log is log
                assert "event_log" not in vars(unread)  # never read, never sorted
                assert np.array_equal(unread.final_outputs, report.final_outputs)
                assert unread.fired_class == report.fired_class
                assert_same_report(unread, reference_simulate_spiking(spec, x))  # read after a later run


class TestSpecValidation:
    def test_weight_range(self):
        for w in (3, -3, 1.7, 1.9, -0.5, math.nan, math.inf):  # 1.7 is rejected, not run as 1
            with pytest.raises(ValueError, match=r"layer weights must be integers in \[-2, 2\]"):
                small_spec([[1, w, 0, 0]], (1,), [[1]], (1,))

    def test_threshold_set(self):
        for t in (0, 7, 1.7, math.nan):
            with pytest.raises(ValueError, match="have no soma cell; the cells cover 1..6"):
                small_spec([[1, 0, 0, 0]], (t,), [[1]], (1,))
        for t in range(1, 7):  # every soma cell, whatever set the GA searches
            assert small_spec([[1, 0, 0, 0]], (t,), [[1]], (1,)).layers[0].thresholds == (t,)

    @pytest.mark.parametrize("clock", [0.0, -5.0, math.inf, math.nan])
    def test_clock_must_be_positive_and_finite(self, clock):
        layer = LayerSpec(np.ones((1, 4), dtype=int), (1,), "SM4")
        with pytest.raises(ValueError, match="clock_ps must be positive and finite"):
            NetworkSpec(4, (layer,), clock_ps=clock)

    @pytest.mark.parametrize("clock", [119.0, 100.0, 60.0])
    def test_clock_must_carry_the_largest_threshold_in_bq_pulses(self, clock):
        # bq_quantize emits at most clock // 20 pulses: at 119 ps a threshold of 6 could never fire
        layer = LayerSpec(np.full((1, 4), 2), (6,), "SM4")
        with pytest.raises(ValueError, match=f"^layer 0 has threshold 6, which needs clock_ps >= 120, got {clock}$"):
            NetworkSpec(4, (layer,), clock_ps=clock)
        hidden = LayerSpec(np.full((2, 4), 2), (1, 2), "SM4")
        with pytest.raises(ValueError, match="^layer 1 has threshold 6, "):
            NetworkSpec(4, (hidden, LayerSpec(np.ones((1, 2), dtype=int), (6,), "SM2")), clock_ps=clock)

    def test_shortest_clock_keeps_spiking_equal_to_discrete(self):
        # one neuron of weights [2, 2, 2, 2] over every input and threshold, at the shortest clock each allows
        for theta in DEFAULT_T_MAX:
            spec = NetworkSpec(4, (LayerSpec(np.full((1, 4), 2), (theta,), "SM4"),),
                               clock_ps=BQ_PULSE_SPACING_PS * theta)
            for x in all_ternary_inputs():
                assert np.array_equal(simulate_spiking(spec, x).final_outputs, evaluate_discrete(spec, x)[-1])

    def test_soma_windows_span_the_bq_spacing(self):
        # a soma cell must see two BQ pulses one spacing apart inside its window
        assert min(DEFAULT_T_MAX.values()) >= BQ_PULSE_SPACING_PS

    @pytest.mark.parametrize("layers,message", [
        # layer 0 reads levels up to 2: 17 weights of 2 reach 68, of -2 reach -68
        ([np.full((1, 17), 2)], "layer 0 neuron 0 can reach synaptic total 68, "),
        ([np.vstack([np.full(17, 1), np.full(17, -2)])], "layer 0 neuron 1 can reach synaptic total -68, "),
        # later layers read bits: 33 weights of 2 reach 66
        ([np.ones((33, 17), dtype=int), np.full((1, 33), 2)], "layer 1 neuron 0 can reach synaptic total 66, "),
    ])
    def test_total_beyond_bq_bound_rejected(self, layers, message):
        specs = tuple(LayerSpec(w, (1,) * len(w), "SM4" if i == 0 else "SM2") for i, w in enumerate(layers))
        with pytest.raises(ValueError, match=f"^{message}beyond the BQ's bound \\+-64$"):
            NetworkSpec(17, specs)

    def test_totals_at_the_bq_bound_keep_spiking_equal_to_discrete(self):
        # 16 weights of 2 at level 2, then 32 of 2 on bits: both reach exactly 64
        spec = NetworkSpec(16, (LayerSpec(np.full((32, 16), 2), (1,) * 32, "SM4"),
                                LayerSpec(np.full((1, 32), 2), (1,), "SM2")))
        for x in ([2] * 16, [0] * 16):
            assert np.array_equal(simulate_spiking(spec, x).final_outputs, evaluate_discrete(spec, x)[-1])

    def test_needs_a_layer(self):
        with pytest.raises(ValueError, match="layers must hold at least one layer"):
            NetworkSpec(4, ())

    def test_layer_synapse_realizes_the_weight_range(self):
        for kind in ("SM1", "SM3"):
            with pytest.raises(ValueError, match="layer synapse must be SM2 or SM4"):
                LayerSpec(np.ones((1, 4), dtype=int), (1,), kind)

    def test_layer_weights_are_a_matrix(self):
        for weights in (np.ones(4, dtype=int), np.ones((1, 1, 4), dtype=int)):
            with pytest.raises(ValueError, match="layer weights must be a 2-D matrix"):
                LayerSpec(weights, (1,), "SM4")

    def test_one_threshold_per_neuron(self):
        for thresholds in ((1,), (1, 2, 5)):
            with pytest.raises(ValueError, match="one threshold per neuron required"):
                LayerSpec(np.ones((2, 4), dtype=int), thresholds, "SM4")

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


def reference_accuracy_metrics(spec: NetworkSpec, inputs, labels) -> dict:
    """accuracy_metrics as a loop over the samples, one classified input
    at a time. The oracle for the batched accuracy_metrics."""
    n_none = n_amb = n_correct = 0
    for xv, label in zip(np.asarray(inputs, dtype=int), labels):
        got = classify_outputs(evaluate_discrete(spec, xv)[-1])
        if got is None:
            n_none += 1
        elif got == AMBIGUOUS:
            n_amb += 1
        elif got == int(label):
            n_correct += 1
    n = len(labels)
    return {"accuracy": n_correct / n if n else 0.0, "n_none": n_none, "n_ambiguous": n_amb}


def test_accuracy_metrics_counts_misses():
    spec = small_spec(np.zeros((4, 4), dtype=int), (1,) * 4, np.zeros((3, 4), dtype=int), (1,) * 3)
    m = accuracy_metrics(spec, np.zeros((5, 4), dtype=int), [0] * 5)
    assert m == {"accuracy": 0.0, "n_none": 5, "n_ambiguous": 0}
    with pytest.raises(ValueError, match="input level 1.9 is not an integer"):  # not run as level 1
        accuracy_metrics(spec, [[0, 0, 0, 0], [1.9, 0, 0, 0]], [0, 0])


@pytest.mark.parametrize("shape", [(4, 4, 3), (4, 16, 3)])
def test_accuracy_metrics_matches_the_per_sample_loop(shape):
    rng = np.random.default_rng(sum(shape) + 2)
    inputs = all_ternary_inputs()
    outcomes, accuracies = set(), []
    for _ in range(8):
        spec = random_spec(rng, shape)
        bits = evaluate_discrete(spec, inputs)[-1]
        # half the labels name the lowest fired bit, so single-bit outputs score
        labels = np.where(rng.random(len(inputs)) < 0.5, bits.argmax(axis=1), rng.integers(0, 3, len(inputs)))
        got = accuracy_metrics(spec, inputs, labels)
        assert got == reference_accuracy_metrics(spec, inputs, labels)
        assert [type(v) for v in got.values()] == [float, int, int]  # as JSON writes them
        assert accuracy_metrics(spec, inputs[:0], labels[:0]) == reference_accuracy_metrics(spec, inputs[:0], [])
        outcomes.update(map(classify_outputs, bits))
        accuracies.append(got["accuracy"])
    assert {None, AMBIGUOUS} < outcomes and max(accuracies) > 0  # silent, ambiguous and correct outputs
