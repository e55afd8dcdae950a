"""Scenario: a live feed simulated incrementally, chunk by chunk.

The batch entry points (``run_single_session``) want the whole arrival
stream up front.  A monitoring pipeline doesn't have it: traffic arrives
in chunks and the simulation must keep up.
:class:`repro.sim.vector.EngineState` covers this:

* ``feed`` ingests arrival chunks as they appear; ``step`` advances the
  simulation in bounded bites between feeds;
* the engine's live state — ``state.t``, ``state.queue.size`` and the
  policy's ``change_count`` — gives a status line per chunk without
  building a trace;
* the event-sliced core fast-forwards through quiet slots, so keeping up
  costs numpy-speed, not Python-per-slot speed — and the computed floats
  are bit-identical to the batch engine's.

The example replays a piecewise-constant "day" of traffic chunk by
chunk, prints a rolling status line per chunk, finalizes the trace once
at the end and checks that every column equals the one-shot batch run's.

Run:  python examples/streaming_engine.py
"""

import numpy as np

from repro import SingleSessionOnline, run_single_session
from repro.sim.vector import EngineState

B_A = 64.0
D_O = 8
U_O = 0.25
W = 16

CHUNK_SLOTS = 5_000
CHUNKS = 20

COLUMNS = (
    "arrivals", "allocation", "delivered", "backlog", "dropped", "requested", "effective",
)


def policy() -> SingleSessionOnline:
    return SingleSessionOnline(
        max_bandwidth=B_A,
        offline_delay=D_O,
        offline_utilization=U_O,
        window=W,
    )


def live_feed(rng: np.random.Generator):
    """The 'live' source: piecewise-constant rate, one chunk at a time."""
    for _ in range(CHUNKS):
        rate = rng.uniform(1.0, 12.0)
        yield rng.uniform(0.0, 2.0 * rate, size=CHUNK_SLOTS)


def main() -> None:
    rng = np.random.default_rng(7)
    chunks = list(live_feed(rng))

    # -- streaming pass: feed / step, a status line per chunk -------------
    state = EngineState(policy(), closed=False)
    for index, chunk in enumerate(chunks):
        state.feed(chunk)
        state.step(10**9)  # catch up to the ingested horizon
        print(
            f"chunk {index + 1:>2}/{CHUNKS}: t={state.t:>7,}  "
            f"backlog={state.queue.size:>8,.1f} bits  "
            f"changes={state.policy.change_count}"
        )
    state.close()
    state.run()  # drain the tail
    trace = state.finalize()

    print(
        f"\nstreamed {trace.slots:,} slots "
        f"(horizon {trace.horizon:,} + drain tail)"
    )
    print(
        f"delivered {trace.total_delivered:,.0f} of "
        f"{trace.total_arrived:,.0f} bits, max delay "
        f"{trace.max_delay} slots (guarantee: {2 * D_O}), "
        f"{trace.change_count} bandwidth changes"
    )

    # -- the receipts: identical to the one-shot batch run ---------------
    batch = run_single_session(policy(), np.concatenate(chunks))
    for name in COLUMNS:
        assert np.array_equal(getattr(trace, name), getattr(batch, name)), name
    assert trace.delay_histogram == batch.delay_histogram
    assert trace.changes == batch.changes
    assert trace.stage_starts == batch.stage_starts
    assert trace.resets == batch.resets
    print("\nstreaming run matches the one-shot batch run. qed")


if __name__ == "__main__":
    main()
