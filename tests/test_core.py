import io

import pytest
from fluxon.core import (
    DUP_TOL_PS,
    PHI0,
    PulseEvent,
    SpikeTrain,
    csv_text,
    json_text,
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
    assert "\r" not in buf.getvalue()


def test_csv_text_writes_cells_with_str_and_ends_lines_with_lf():
    rows = [(0, 0.1 + 0.2, "a/0"), (1, 1e-300, "b"), (2, float("inf"), None)]
    assert csv_text(("i", "x", "node"), iter(rows)) == "i,x,node\n0,0.30000000000000004,a/0\n1,1e-300,b\n2,inf,None\n"
    assert csv_text(["time_ps", "node"], []) == "time_ps,node\n"


def test_json_text_indents_two_and_sorts_keys():
    assert json_text({"b": [1, 2.5], "a": None}) == '{\n  "a": null,\n  "b": [\n    1,\n    2.5\n  ]\n}'
