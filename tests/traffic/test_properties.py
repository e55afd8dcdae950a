"""Property-based tests over the whole traffic substrate.

Every generator in :mod:`repro.traffic` must satisfy three laws:

* **non-negativity** — arrivals are bits, never debts;
* **shape** — ``materialize(horizon)`` returns exactly ``horizon`` slots;
* **seed determinism** — the same integer seed reproduces the stream
  bit-for-bit, and (for stochastic sources) different seeds diverge.

The combinators additionally satisfy algebraic laws (zero jitter is the
identity, superposition sums its parts).
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.traffic import (
    CompoundPoisson,
    Diurnal,
    Jittered,
    MarkovModulatedPoisson,
    MpegVbr,
    OnOffBursts,
    ParetoBursts,
    PoissonArrivals,
    SelfSimilarAggregate,
    Spikes,
    Superpose,
    figure1_demand,
)
from tests.fakes import Constant
from tests.strategies import seeds

# One representative instance of every ArrivalProcess in the package.
# New generators must be added here — test_catalogue_is_exhaustive fails
# otherwise.
GENERATORS = {
    "poisson": PoissonArrivals(6.0),
    "compound": CompoundPoisson(0.5, 8.0),
    "onoff": OnOffBursts(16.0, mean_on=5.0, mean_off=10.0, jitter=0.2),
    "pareto": ParetoBursts(0.1, mean_burst=12.0, spread=2),
    "mmpp": MarkovModulatedPoisson(
        [[0.9, 0.1], [0.2, 0.8]], rates=[2.0, 20.0]
    ),
    "vbr": MpegVbr(8.0),
    "spikes": Spikes([3, 17, 40], height=30.0),
    "diurnal": Diurnal(PoissonArrivals(8.0), period=24),
    "selfsimilar": SelfSimilarAggregate(sources=8),
    "figure1": figure1_demand(),
    "jittered": Jittered(PoissonArrivals(4.0), 0.3),
    "superposed": Superpose([PoissonArrivals(2.0), Spikes([1, 9], height=8.0)]),
}

#: Sources whose output is a pure function of the horizon (no RNG draws).
DETERMINISTIC = {"spikes"}


def test_catalogue_is_exhaustive():
    """Every concrete ArrivalProcess subclass is represented above."""
    import repro.traffic as traffic
    from repro.traffic.base import ArrivalProcess

    exported = {
        getattr(traffic, name)
        for name in traffic.__all__
        if isinstance(getattr(traffic, name), type)
        and issubclass(getattr(traffic, name), ArrivalProcess)
        and getattr(traffic, name) is not ArrivalProcess
    }
    covered = {type(g) for g in GENERATORS.values()}
    missing = {cls.__name__ for cls in exported - covered}
    assert not missing, f"generators without property coverage: {missing}"


@pytest.mark.parametrize("name", sorted(GENERATORS))
class TestGeneratorLaws:
    def test_non_negative_and_shaped(self, name):
        for horizon in (0, 1, 17, 250):
            arrivals = GENERATORS[name].materialize(horizon, seed=3)
            assert arrivals.shape == (horizon,)
            assert arrivals.dtype == float
            if horizon:
                assert arrivals.min() >= 0.0
            assert np.isfinite(arrivals).all()

    def test_seed_determinism(self, name):
        gen = GENERATORS[name]
        a = gen.materialize(300, seed=42)
        b = gen.materialize(300, seed=42)
        assert np.array_equal(a, b)

    def test_seeds_actually_matter(self, name):
        gen = GENERATORS[name]
        a = gen.materialize(400, seed=0)
        b = gen.materialize(400, seed=1)
        if name in DETERMINISTIC:
            assert np.array_equal(a, b)
        else:
            assert not np.array_equal(a, b)

    def test_prefix_stability_under_same_seed(self, name):
        """Restarting with the same seed replays the same prefix."""
        gen = GENERATORS[name]
        long = gen.materialize(200, seed=9)
        short = gen.materialize(200, seed=9)[:50]
        assert np.array_equal(long[:50], short)


class TestTransformLaws:
    """Algebraic laws of the combinators, under shared RNG streams."""

    @settings(max_examples=25, deadline=None)
    @given(seed=seeds)
    def test_zero_jitter_is_identity(self, seed):
        base = PoissonArrivals(5.0)
        assert np.array_equal(
            Jittered(base, 0.0).materialize(90, seed=seed),
            base.materialize(90, seed=seed),
        )

    def test_superpose_of_deterministic_parts_sums(self):
        a, b = Constant(2.0), Spikes([1, 5, 30], height=4.0)
        combined = Superpose([a, b]).materialize(40, seed=0)
        assert np.allclose(
            combined,
            a.materialize(40, seed=0) + b.materialize(40, seed=0),
        )

    def test_add_operator_builds_superpose(self):
        combined = Constant(1.0) + Constant(2.0)
        assert isinstance(combined, Superpose)
        assert np.allclose(combined.materialize(10, seed=0), 3.0)


class TestValidation:
    def test_negative_horizon_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            Constant(1.0).materialize(-1)
