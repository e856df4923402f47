"""Per-layer tracing from outside the program.

`Tracer.install` wraps every public function, and every public method
of the public classes, defined in the traced modules, then rebinds each
name in every loaded fluxon module that refers to the same object, so
calls through names another module imported (snn's behavioral imports,
margins' run_transient, cli's circuit imports) are seen too. Nothing
under src/ is edited; `uninstall` puts every original back.

Spans are folded into per-name totals as they close: calls, inclusive
time, self time (inclusive minus the time of wrapped callees) and
direct parent -> child call counts. A few results also feed counters:
simulated steps per cell, spiking events, GA generations, MLP epochs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

TRACED_MODULES = (
    "fluxon.cli",
    "fluxon.train",
    "fluxon.snn",
    "fluxon.behavioral",
    "fluxon.circuit.netlist",
    "fluxon.circuit.transient",
    "fluxon.circuit.pulses",
    "fluxon.circuit.margins",
)
CELLS = ("soma2", "soma3", "jtl", "sm1")


class Tracer:
    def __init__(self):
        self.enabled = False
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.children: Counter = Counter()  # (parent span, child span) -> calls
        self.counters: defaultdict = defaultdict(float)
        self._stack: list[list] = []  # [span name, time in wrapped callees]
        self._restore: list[tuple[object, str, object]] = []

    # --- installation -------------------------------------------------------

    def install(self) -> None:
        replaced = {}  # id(original) -> wrapper
        for modname in TRACED_MODULES:
            mod = importlib.import_module(modname)
            layer = modname.rsplit(".", 1)[-1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(f"{layer}.{name}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] != "fluxon" or mod is None:
                continue
            for name, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrapper)

    def _wrap_methods(self, prefix: str, cls: type) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if inspect.isfunction(attr):
                wrapped = self._wrap(f"{prefix}.{name}", attr)
            elif isinstance(attr, staticmethod):
                wrapped = staticmethod(self._wrap(f"{prefix}.{name}", attr.__func__))
            else:
                continue
            self._restore.append((cls, name, attr))
            setattr(cls, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _wrap(self, span: str, fn):
        hook = _HOOKS.get(span)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self.calls[span] += 1
                self.inclusive[span] += dt
                self.self_time[span] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                    self.children[stack[-1][0], span] += 1
            if hook is not None:
                hook(self.counters, args, out, dt)
            return out

        return wrapper

    # --- per-layer metrics --------------------------------------------------

    def per_call(self, span: str, scale: float) -> float:
        n = self.calls[span]
        return scale * self.inclusive[span] / n if n else 0.0

    def rate(self, count: float, span: str) -> float:
        t = self.inclusive[span]
        return count / t if t else 0.0

    def layer_metrics(self, n_ops: int, overhead_pct: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit); 0 where the workload
        never reached the layer."""
        flows = self.calls["cli.cmd_reproduce"]
        c = self.counters
        m = {}
        for stage in ("train", "discretize", "simulate", "power"):
            span = f"cli.cmd_{stage}"
            m[f"cli.{stage}_s"] = (self.inclusive[span] / flows if flows else 0.0, "s")
        m["train.ga_generations_per_s"] = (self.rate(c["ga_generations"], "train.ga_discretize"), "1/s")
        m["train.mlp_epochs_per_s"] = (self.rate(c["mlp_epochs"], "train.train_mlp"), "1/s")
        m["snn.spiking_us_per_input"] = (self.per_call("snn.simulate_spiking", 1e6), "us")
        m["snn.discrete_us_per_input"] = (self.per_call("snn.evaluate_discrete", 1e6), "us")
        n_sim = self.calls["snn.simulate_spiking"]
        m["snn.events_per_input"] = (c["spiking_events"] / n_sim if n_sim else 0.0, "count")
        m["behavioral.synapse_us_per_call"] = (self.per_call("behavioral.synapse_contribution", 1e6), "us")
        m["behavioral.bq_us_per_call"] = (self.per_call("behavioral.bq_quantize", 1e6), "us")
        m["behavioral.soma_us_per_call"] = (self.per_call("behavioral.soma_fire_times", 1e6), "us")
        m["netlist.parse_ms"] = (self.per_call("netlist.parse_netlist", 1e3), "ms")
        m["netlist.with_param_us"] = (self.per_call("netlist.Netlist.with_param", 1e6), "us")
        for cell in CELLS:
            steps = c[f"steps.{cell}"]
            m[f"transient.us_per_step.{cell}"] = (1e6 * c[f"seconds.{cell}"] / steps if steps else 0.0, "us")
        steps = sum(c[f"steps.{cell}"] for cell in CELLS)
        m["transient.steps_per_op"] = (steps / n_ops if n_ops else 0.0, "count")
        m["pulses.detect_ms"] = (self.per_call("pulses.detect_pulses_in", 1e3), "ms")
        m["waveform.write_ms"] = (self.per_call("transient.write_waveform_csv", 1e3), "ms")
        scans = self.calls["margins.margin_scan"]
        per_scan = self.children["margins.margin_scan", "transient.run_transient"]
        m["margins.transients_per_scan"] = (per_scan / scans if scans else 0.0, "count")
        m["margins.self_ms_per_scan"] = (1e3 * self.self_time["margins.margin_scan"] / scans if scans else 0.0, "ms")
        m["trace.overhead_pct"] = (overhead_pct, "%")
        return m


def _transient_hook(counters, args, out, dt):
    title = getattr(args[0], "title", "") if args else ""
    cell = title.split()[0] if title else "other"
    counters[f"steps.{cell}"] += len(out.time_ps) - 1
    counters[f"seconds.{cell}"] += dt


def _spiking_hook(counters, args, out, dt):
    counters["spiking_events"] += len(out.event_log)


def _ga_hook(counters, args, out, dt):
    counters["ga_generations"] += len(out[1]) - 1


def _mlp_hook(counters, args, out, dt):
    counters["mlp_epochs"] += len(out[1]) - 1


_HOOKS = {
    "transient.run_transient": _transient_hook,
    "snn.simulate_spiking": _spiking_hook,
    "train.ga_discretize": _ga_hook,
    "train.train_mlp": _mlp_hook,
}
