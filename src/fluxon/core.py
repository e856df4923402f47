"""Shared event-level domain types used across the toolkit.

Times are picoseconds as float64 throughout. Node identifiers are plain
strings, hierarchical with '/' separators (e.g. "hidden/2/soma"). All
types here are immutable values and safe to share between workers.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, Iterable

PHI0 = 2.068e-15   # magnetic flux quantum, Wb (fixed physical constant)
DUP_TOL_PS = 1e-3  # events on one node closer than 1 fs collapse into one


def _normalize_times(times: Iterable[float]) -> tuple[float, ...]:
    ts = sorted(float(t) for t in times)
    if ts and ts[0] < 0.0:
        raise ValueError(f"negative pulse time {ts[0]} ps")
    out: list[float] = []
    for t in ts:
        if out and t - out[-1] < DUP_TOL_PS:
            continue
        out.append(t)
    return tuple(out)


@dataclass(frozen=True)
class PulseEvent:
    """A single pulse at `time` ps on `node`."""

    time: float
    node: str

    def __post_init__(self):
        if self.time < 0.0:
            raise ValueError(f"negative pulse time {self.time} ps")


@dataclass(frozen=True)
class SpikeTrain:
    """Ordered pulse timestamps on one node.

    Construction sorts the timestamps and collapses duplicates closer
    than 1 fs; negative times are rejected.
    """

    node: str
    times: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "times", _normalize_times(self.times))

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self):
        return iter(self.times)

    def renamed(self, node: str) -> "SpikeTrain":
        return SpikeTrain(node, self.times)

    def events(self) -> list[PulseEvent]:
        return [PulseEvent(t, self.node) for t in self.times]


def sorted_events(events: Iterable[PulseEvent]) -> list[PulseEvent]:
    return sorted(events, key=lambda e: (e.time, e.node))


def write_event_log(fh: IO[str], events: Iterable[PulseEvent]) -> None:
    """Write the event-log CSV: header `time_ps,node`, rows sorted by time."""
    w = csv.writer(fh)
    w.writerow(["time_ps", "node"])
    for ev in sorted_events(events):
        w.writerow([repr(ev.time), ev.node])
