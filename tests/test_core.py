import io

import pytest
from fluxon.core import (
    DUP_TOL_PS,
    PHI0,
    PulseEvent,
    SpikeTrain,
    write_event_log,
)


def test_flux_quantum_constant_exact():
    assert PHI0 == 2.068e-15


def test_pulse_event_rejects_negative_time():
    with pytest.raises(ValueError):
        PulseEvent(-1.0, "n")


def test_spike_train_sorts_and_collapses():
    tr = SpikeTrain("n", (40.0, 0.0, 0.0 + 0.5 * DUP_TOL_PS, 20.0))
    assert tr.times == (0.0, 20.0, 40.0)


def test_event_log_roundtrip():
    events = [PulseEvent(3.25, "a/1"), PulseEvent(1.5, "b"), PulseEvent(1.5, "a/0")]
    buf = io.StringIO()
    write_event_log(buf, events)
    # rows sorted by time, ties broken by node name
    assert buf.getvalue().splitlines() == ["time_ps,node", "1.5,a/0", "1.5,b", "3.25,a/1"]

