"""Simulation kernel: events, engine, recorder, trace serialization."""

from repro.sim.engine import run_multi_session, run_single_session
from repro.sim.events import EventQueue
from repro.sim.serialize import (
    load_multi_trace,
    load_single_trace,
    save_multi_trace,
    save_single_trace,
)
from repro.sim.recorder import (
    MultiSessionRecorder,
    MultiSessionTrace,
    SingleSessionRecorder,
    SingleSessionTrace,
)

__all__ = [
    "EventQueue",
    "MultiSessionRecorder",
    "MultiSessionTrace",
    "SingleSessionRecorder",
    "SingleSessionTrace",
    "run_multi_session",
    "run_single_session",
    "load_multi_trace",
    "load_single_trace",
    "save_multi_trace",
    "save_single_trace",
]
