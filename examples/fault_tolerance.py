"""Fault tolerance: surviving a degraded link with allocation headroom.

The paper's delay guarantee (``2 * D_O``) assumes the wire delivers every
allocated bit.  Here a mid-run degradation episode makes the link serve
only half of the granted allocation for 300 slots.  The bare Figure 3
algorithm — which cannot see the degradation — violates the delay bound;
wrapping it in a :class:`~repro.faults.HeadroomPolicy` that requests
``2 x`` its decision rides the episode out, at the price of utilization.

Both runs complete; replaying each trace through the certificate checker
(:mod:`repro.verify`) lists the late deliveries, first slot first.

Run:  python examples/fault_tolerance.py
"""

from repro import HeadroomPolicy, SingleSessionOnline, run_single_session
from repro.faults import FaultPlan, LinkDegradation
from repro.traffic import figure1_demand
from repro.verify import TheoremBounds, certify_single

B_A, D_O, U_O, W = 64, 8, 0.25, 16
DELAY_BOUND = 2 * D_O

#: Slots 800-1100 the wire delivers only half of the granted allocation.
PLAN = FaultPlan((LinkDegradation(t0=800, t1=1100, factor=0.5),), seed=0)


#: The delay bound to certify (the other bounds are not read here).
BOUNDS = TheoremBounds(
    variant="single", offline_bandwidth=B_A, offline_delay=D_O,
    online_delay=DELAY_BOUND,
)


def run_one(label: str, policy):
    trace = run_single_session(policy, ARRIVALS, faults=PLAN)
    (delay,) = [c for c in certify_single(trace, BOUNDS).checks
                if c.name == "lemma3"]
    verdict = "HELD" if delay.passed else "VIOLATED"
    print(f"{label:28s} {verdict}: {delay.detail}")
    print(f"{'':28s} changes {trace.change_count}, "
          f"utilization {trace.total_arrived / trace.allocation.sum():.2f}")
    if delay.counterexamples:
        first = delay.counterexamples[0]
        print(f"{'':28s} first late delivery at t={first.t} "
              f"(delay {first.values['delay']:.0f})")
    return trace


ARRIVALS = figure1_demand(mean_rate=6.0).materialize(2000, seed=7)


def main() -> None:
    print("degraded link: slots 800-1100 serve at 50% of the allocation\n")

    bare = SingleSessionOnline(
        max_bandwidth=B_A, offline_delay=D_O,
        offline_utilization=U_O, window=W,
    )
    run_one("bare Fig. 3", bare)

    guarded = HeadroomPolicy(
        SingleSessionOnline(
            max_bandwidth=B_A, offline_delay=D_O,
            offline_utilization=U_O, window=W,
        ),
        factor=2.0,
    )
    run_one("Fig. 3 + 2x headroom", guarded)

    print("\nHeadroom buys the delay guarantee back: requesting twice the")
    print("algorithm's decision makes the *effective* bandwidth during the")
    print("episode equal to the original intent.  The cost is utilization —")
    print("every slot outside the episode is over-allocated 2x.")


if __name__ == "__main__":
    main()
