"""Layered spiking network assembly and the discrete reference evaluator.

A NetworkSpec is a feed-forward stack of at least one integer-weight
layer with per-neuron pulse-count thresholds, and it is valid when its
cells exist: every threshold has a soma cell (a key of
behavioral.DEFAULT_T_MAX, 1..6), every weight lies in WEIGHT_RANGE, the
range the SM2 and SM4 synapses realize, no neuron can reach a synaptic
total beyond the BQ's +-BQ_SANE_BOUND, and the clock period is finite
and long enough for the BQ to emit every layer's largest threshold in
pulses BQ_PULSE_SPACING_PS apart. A value that is not an integer, such
as a threshold of 1.7, is rejected, not truncated. Two engines
evaluate it:

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
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .behavioral import (
    BQ_PULSE_SPACING_PS,
    BQ_SANE_BOUND,
    DEFAULT_T_MAX,
    SYNAPSE_KINDS,
    SynapseConfig,
    bq_quantize,
    soma_fire_times,
    soma_for_threshold,
    synapse_contribution,
)
from .core import PulseEvent, json_text, sorted_events

AMBIGUOUS = "ambiguous"

DEFAULT_CLOCK_PS = 1000.0
WEIGHT_RANGE = SYNAPSE_KINDS["SM4"][:2]  # the integer weights an SM2/SM4 synapse realizes


@dataclass(frozen=True)
class LayerSpec:
    """One fully connected layer: weights [n_neurons x fan_in], thresholds, synapse kind."""

    weights: np.ndarray
    thresholds: tuple[int, ...]
    synapse: str = "SM4"
    theta: np.ndarray = field(init=False, repr=False, compare=False)  # thresholds, read-only

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2:
            raise ValueError("layer weights must be a 2-D matrix")
        lo, hi = WEIGHT_RANGE
        bad = w[(w != np.round(w)) | (w < lo) | (w > hi)]  # NaN != NaN, so NaN is caught too
        if bad.size:
            raise ValueError(f"layer weights must be integers in [{lo}, {hi}], got {bad[0]:g}")
        w = w.astype(int)
        w.flags.writeable = False  # `synapses` is derived from it once
        object.__setattr__(self, "weights", w)
        bad = [t for t in self.thresholds if t not in DEFAULT_T_MAX]  # 1.7 and NaN are no key
        if bad:
            raise ValueError(f"thresholds {bad} have no soma cell; "
                             f"the cells cover {min(DEFAULT_T_MAX)}..{max(DEFAULT_T_MAX)}")
        object.__setattr__(self, "thresholds", tuple(int(t) for t in self.thresholds))
        theta = np.array(self.thresholds, dtype=int)
        theta.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        if len(self.thresholds) != w.shape[0]:
            raise ValueError("one threshold per neuron required")
        if SYNAPSE_KINDS.get(self.synapse, ())[:2] != WEIGHT_RANGE:
            raise ValueError(f"layer synapse must be SM2 or SM4, got {self.synapse!r}")

    @functools.cached_property
    def synapses(self) -> tuple[tuple[SynapseConfig, ...], ...]:
        """The synapse model of every weight, row by row, built on first use."""
        lo, hi = WEIGHT_RANGE
        cells = {w: SynapseConfig(self.synapse, w) for w in range(lo, hi + 1)}
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

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise ValueError("layers must hold at least one layer")
        if not 0.0 < self.clock_ps < math.inf:
            raise ValueError(f"clock_ps must be positive and finite, got {self.clock_ps}")
        fan_in = self.input_dim
        for i, layer in enumerate(self.layers):
            if layer.fan_in != fan_in:
                raise ValueError(
                    f"layer {i} fan-in {layer.fan_in} != upstream width {fan_in}"
                )
            # Hidden inputs reach level 2, so the first layer needs the
            # 2-input synapse; downstream layers see latched binaries.
            if i == 0 and layer.synapse != "SM4":
                raise ValueError("layer 0 consumes inputs 0..2 and requires SM4 synapses")
            # bq_quantize emits at most clock_ps // BQ_PULSE_SPACING_PS pulses a clock
            need = BQ_PULSE_SPACING_PS * max(layer.thresholds, default=0)
            if self.clock_ps < need:
                raise ValueError(f"layer {i} has threshold {max(layer.thresholds)}, which needs clock_ps "
                                 f">= {need:g}, got {self.clock_ps}")
            level = 2 if i == 0 else 1  # the largest input level of the layer
            for j, row in enumerate(layer.weights.tolist()):
                total = level * max(sum(w for w in row if w > 0), sum(w for w in row if w < 0), key=abs)
                if abs(total) > BQ_SANE_BOUND:
                    raise ValueError(f"layer {i} neuron {j} can reach synaptic total {total}, "
                                     f"beyond the BQ's bound +-{BQ_SANE_BOUND}")
            fan_in = layer.n_neurons

    @property
    def output_dim(self) -> int:
        return self.layers[-1].n_neurons

    def to_json(self) -> str:
        layers = [{"weights": layer.weights.tolist(), "thresholds": list(layer.thresholds),
                   "synapse": layer.synapse} for layer in self.layers]
        return json_text({"input_dim": self.input_dim, "clock_ps": self.clock_ps, "layers": layers})

    @staticmethod
    def from_json(text: str) -> "NetworkSpec":
        doc = json.loads(text)
        layers = tuple(
            LayerSpec(
                weights=l["weights"],
                thresholds=tuple(l["thresholds"]),
                synapse=l.get("synapse", "SM4"),
            )
            for l in doc["layers"]
        )
        return NetworkSpec(
            input_dim=doc["input_dim"],
            layers=layers,
            clock_ps=float(doc.get("clock_ps", DEFAULT_CLOCK_PS)),
        )


def _check_input(spec: NetworkSpec, x, batch: bool) -> np.ndarray:
    """`x` as an array of one input, or of one input per row when `batch`,
    every level checked in row order."""
    xv = np.asarray(x)
    if xv.shape[-1:] != (spec.input_dim,) or xv.ndim > 1 + batch:
        raise ValueError(f"input shape {xv.shape} != ({spec.input_dim},)")
    levels = xv.ravel().tolist()
    if not {0, 1, 2}.issuperset(levels):
        bad = next(v for v in levels if v not in (0, 1, 2))
        if isinstance(bad, float) and not bad.is_integer():
            raise ValueError(f"input level {bad!r} is not an integer")
        raise ValueError("first-layer inputs must lie in {0, 1, 2}")
    return xv


def evaluate_discrete(spec: NetworkSpec, x: np.ndarray | Sequence[int]) -> list[np.ndarray]:
    """Binary output vector of every layer under the threshold rule u >= theta.

    `x` is one input of shape (input_dim,) or one input per row of an
    (N, input_dim) array; each layer's outputs then have one row per input.
    """
    acts = _check_input(spec, x, batch=True)
    outputs = []
    for layer in spec.layers:
        acts = (acts @ layer.weights.T >= layer.theta).astype(int)
        outputs.append(acts)
    return outputs


@dataclass
class SimReport:
    """Outcome of one spiking run: the output port per clock plus its pulse events.

    outputs[c] is the network's output port after clock c, one entry per
    layer. It has the width of the final layer and holds zeros until the
    last layer latches, so only outputs[-1] carries bits; the hidden
    layers' latched bits appear in the event log alone. `events` holds
    the pulses in the order the run made them; `event_log` sorts them
    by (time, node) on first read, so a reader of the outputs alone
    never pays for the sort.
    """

    outputs: list[np.ndarray]
    events: list[PulseEvent]
    fired_class: int | str | None

    @functools.cached_property
    def event_log(self) -> list[PulseEvent]:
        return sorted_events(self.events)

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
# five arguments, and networks share many of them: totals lie in
# -64..64, thresholds in a small set and positions below the layer
# widths, so this holds the keys of many networks at once.
RESPONSE_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=RESPONSE_CACHE_SIZE)
def _neuron_response(
    total: int, threshold: int | None, layer: int, index: int, clock_ps: float
) -> tuple[tuple[PulseEvent, ...], int]:
    """Frozen pulse events of neuron `index` of `layer` for a synaptic
    total (BQ burst, soma fire times, latch pulse at the next clock),
    and its fired bit. Threshold None is the input encoder: a burst alone.

    The behavioral models are the only definition of burst and fire
    times; an error they raise propagates on every call, since
    lru_cache stores only returns.
    """
    t0 = layer * clock_ps
    burst = bq_quantize(total, clock_ps, t0)
    if threshold is None:
        return tuple(PulseEvent(t, f"input/{index}") for t in burst.times), 0
    fires = soma_fire_times(soma_for_threshold(threshold), burst).times
    prefix = f"layer{layer}/neuron{index}"
    events = [PulseEvent(t, f"{prefix}/bq") for t in burst.times]
    events += [PulseEvent(t, f"{prefix}/soma") for t in fires]
    if fires:
        events.append(PulseEvent(t0 + clock_ps, f"{prefix}/out"))
    return tuple(events), 1 if fires else 0


def simulate_spiking(spec: NetworkSpec, x: Sequence[int]) -> SimReport:
    """Clocked event-level simulation of the network.

    Layer l consumes its inputs at clock l and presents its latched
    binary outputs at clock l+1 (systolic pipeline). Every neuron's
    synaptic total is quantized to a pulse burst, integrated by its
    soma, and squeezed to at most one latched pulse per clock.
    """
    acts = _check_input(spec, x, batch=False).tolist()
    clock = spec.clock_ps
    events: list[PulseEvent] = []
    for k, level in enumerate(acts):
        events += _neuron_response(level, None, 0, k, clock)[0]

    for li, layer in enumerate(spec.layers):
        fired: list[int] = []
        for j, (synapses, threshold) in enumerate(zip(layer.synapses, layer.thresholds)):
            u = sum(map(synapse_contribution, synapses, acts))
            neuron_events, bit = _neuron_response(u, threshold, li, j, clock)
            events += neuron_events
            fired.append(bit)
        acts = fired

    per_clock = [np.zeros(spec.output_dim, dtype=int) for _ in spec.layers[:-1]]
    per_clock.append(np.asarray(acts, dtype=int))
    return SimReport(
        outputs=per_clock,
        events=events,
        fired_class=classify_outputs(acts),
    )


def accuracy_metrics(spec: NetworkSpec, inputs: np.ndarray, labels: Sequence[int]) -> dict:
    """Accuracy with ambiguous / silent outputs counted as errors; `inputs` holds one input per row."""
    bits = evaluate_discrete(spec, inputs)[-1]
    on = bits.sum(axis=1)
    n = len(labels)
    n_correct = int(np.count_nonzero((on == 1) & (bits.argmax(axis=1) == np.asarray(labels, dtype=int))))
    return {
        "accuracy": n_correct / n if n else 0.0,
        "n_none": int(np.count_nonzero(on == 0)),
        "n_ambiguous": int(np.count_nonzero(on > 1)),
    }
