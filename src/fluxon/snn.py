"""Layered spiking network assembly and the discrete reference evaluator.

A NetworkSpec is a feed-forward stack of integer-weight layers with
per-neuron pulse-count thresholds. Two engines evaluate it:

* evaluate_discrete -- per neuron u = sum(x_k * w_k), output 1 iff
  u >= theta. This is the offline reference.
* simulate_spiking -- encodes inputs as pulse counts, runs the
  buffer/quantizer and soma models per neuron on a layer-synchronous
  clock, and latches at most one pulse per neuron per clock period.
  Its binary outputs must equal the discrete evaluator's, input for
  input; the test suite enforces this as a hard contract.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .behavioral import (
    BqConfig,
    SynapseConfig,
    bq_quantize,
    soma_fire_times,
    soma_for_threshold,
    synapse_contribution,
)
from .core import PulseEvent, sorted_events

AMBIGUOUS = "ambiguous"

DEFAULT_THRESHOLD_SET = (1, 2, 5)
DEFAULT_CLOCK_PS = 1000.0
WEIGHT_RANGE = (-2, 2)  # the integer weights an SM2/SM4 synapse realizes


@dataclass(frozen=True)
class LayerSpec:
    """One fully connected layer: weights [n_neurons x fan_in], thresholds, synapse kind."""

    weights: np.ndarray
    thresholds: tuple[int, ...]
    synapse: str = "SM4"

    def __post_init__(self):
        w = np.array(self.weights, dtype=int)
        w.flags.writeable = False  # `synapses` is derived from it once
        if w.ndim != 2:
            raise ValueError("layer weights must be a 2-D matrix")
        lo, hi = WEIGHT_RANGE
        if np.any(w < lo) or np.any(w > hi):
            raise ValueError(f"layer weights must lie in [{lo}, {hi}]")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "thresholds", tuple(int(t) for t in self.thresholds))
        if len(self.thresholds) != w.shape[0]:
            raise ValueError("one threshold per neuron required")
        if self.synapse not in ("SM2", "SM4"):
            raise ValueError(f"layer synapse must be SM2 or SM4, got {self.synapse!r}")

    @functools.cached_property
    def synapses(self) -> tuple[tuple[SynapseConfig, ...], ...]:
        """The synapse model of every weight, row by row, built on first use."""
        cells = {w: SynapseConfig(self.synapse, w) for w in range(-2, 3)}
        return tuple(tuple(cells[w] for w in row) for row in self.weights.tolist())

    @property
    def n_neurons(self) -> int:
        return self.weights.shape[0]

    @property
    def fan_in(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class NetworkSpec:
    input_dim: int
    layers: tuple[LayerSpec, ...]
    clock_ps: float = DEFAULT_CLOCK_PS
    threshold_set: tuple[int, ...] = DEFAULT_THRESHOLD_SET

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        fan_in = self.input_dim
        for i, layer in enumerate(self.layers):
            if layer.fan_in != fan_in:
                raise ValueError(
                    f"layer {i} fan-in {layer.fan_in} != upstream width {fan_in}"
                )
            bad = [t for t in layer.thresholds if t not in self.threshold_set]
            if bad:
                raise ValueError(f"thresholds {bad} outside the soma set {self.threshold_set}")
            # Hidden inputs reach level 2, so the first layer needs the
            # 2-input synapse; downstream layers see latched binaries.
            if i == 0 and layer.synapse != "SM4":
                raise ValueError("layer 0 consumes inputs 0..2 and requires SM4 synapses")
            fan_in = layer.n_neurons

    @property
    def output_dim(self) -> int:
        return self.layers[-1].n_neurons

    def to_json(self) -> str:
        doc = {
            "input_dim": self.input_dim,
            "clock_ps": self.clock_ps,
            "layers": [
                {
                    "weights": layer.weights.tolist(),
                    "thresholds": list(layer.thresholds),
                    "synapse": layer.synapse,
                }
                for layer in self.layers
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str, threshold_set: tuple[int, ...] = DEFAULT_THRESHOLD_SET) -> "NetworkSpec":
        doc = json.loads(text)
        layers = tuple(
            LayerSpec(
                weights=np.asarray(l["weights"], dtype=int),
                thresholds=tuple(l["thresholds"]),
                synapse=l.get("synapse", "SM4"),
            )
            for l in doc["layers"]
        )
        return NetworkSpec(
            input_dim=int(doc["input_dim"]),
            layers=layers,
            clock_ps=float(doc.get("clock_ps", DEFAULT_CLOCK_PS)),
            threshold_set=threshold_set,
        )


def _check_input(spec: NetworkSpec, x: Sequence[int]) -> np.ndarray:
    xv = np.asarray(x, dtype=int)
    if xv.shape != (spec.input_dim,):
        raise ValueError(f"input shape {xv.shape} != ({spec.input_dim},)")
    if np.any(xv < 0) or np.any(xv > 2):
        raise ValueError("first-layer inputs must lie in {0, 1, 2}")
    return xv


def evaluate_discrete(spec: NetworkSpec, x: Sequence[int]) -> list[np.ndarray]:
    """Binary output vector of every layer under the threshold rule u >= theta."""
    acts = _check_input(spec, x)
    outputs = []
    for layer in spec.layers:
        u = layer.weights @ acts
        acts = (u >= np.asarray(layer.thresholds)).astype(int)
        outputs.append(acts)
    return outputs


@dataclass
class SimReport:
    """Outcome of one spiking run: latched binaries per clock plus the event log."""

    outputs: list[np.ndarray]
    event_log: list[PulseEvent]
    fired_class: int | str | None

    @property
    def final_outputs(self) -> np.ndarray:
        return self.outputs[-1]


def classify_outputs(bits: Sequence[int]) -> int | str | None:
    """Exactly one set bit -> its index; none -> None; several -> AMBIGUOUS."""
    on = [i for i, b in enumerate(bits) if b]
    if len(on) == 1:
        return on[0]
    return None if not on else AMBIGUOUS


# Bound of the neuron response cache. A response depends only on its
# four arguments, and networks share few of them: totals lie in -64..64
# and thresholds in a small set, so this holds the keys of many
# networks at once.
RESPONSE_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=RESPONSE_CACHE_SIZE)
def _neuron_response(
    total: int, threshold: int | None, clock_start: float, clock_ps: float
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """BQ burst times for a synaptic total, and the fire times of a soma of
    `threshold` fed by that burst (none for threshold None, the input encoder).

    The behavioral models are the only definition of both; an error they
    raise propagates on every call, since lru_cache stores only returns.
    """
    bq = BqConfig(clock_period=clock_ps)
    burst = bq_quantize(total, bq, clock_start)
    if threshold is None:
        return burst.times, ()
    return burst.times, soma_fire_times(soma_for_threshold(threshold), burst).times


def simulate_spiking(spec: NetworkSpec, x: Sequence[int]) -> SimReport:
    """Clocked event-level simulation of the network.

    Layer l consumes its inputs at clock l and presents its latched
    binary outputs at clock l+1 (systolic pipeline). Every neuron's
    synaptic total is quantized to a pulse burst, integrated by its
    soma, and squeezed to at most one latched pulse per clock.
    """
    xv = _check_input(spec, x)
    clock = spec.clock_ps
    events: list[PulseEvent] = []

    for k, level in enumerate(xv.tolist()):
        node = f"input/{k}"
        events += [PulseEvent(t, node) for t in _neuron_response(level, None, 0.0, clock)[0]]

    acts = xv.tolist()
    for li, layer in enumerate(spec.layers):
        t0 = li * clock
        latch_t = t0 + clock
        fired: list[int] = []
        for j, (synapses, threshold) in enumerate(zip(layer.synapses, layer.thresholds)):
            u = sum(map(synapse_contribution, synapses, acts))
            burst, fires = _neuron_response(u, threshold, t0, clock)
            prefix = f"layer{li}/neuron{j}"
            bq_node, soma_node = f"{prefix}/bq", f"{prefix}/soma"
            events += [PulseEvent(t, bq_node) for t in burst]
            events += [PulseEvent(t, soma_node) for t in fires]
            if fires:
                events.append(PulseEvent(latch_t, f"{prefix}/out"))
            fired.append(1 if fires else 0)
        acts = fired

    per_clock = [np.zeros(spec.output_dim, dtype=int) for _ in spec.layers[:-1]]
    per_clock.append(np.asarray(acts, dtype=int))
    return SimReport(
        outputs=per_clock,
        event_log=sorted_events(events),
        fired_class=classify_outputs(acts),
    )


def accuracy_metrics(spec: NetworkSpec, inputs: np.ndarray, labels: Sequence[int]) -> dict:
    """Accuracy with ambiguous / silent outputs counted as errors."""
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
    return {
        "accuracy": n_correct / n if n else 0.0,
        "n_none": n_none,
        "n_ambiguous": n_amb,
    }
