"""Multi-session exact optima validate the Lemma 13 certificate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.offline_multi import multi_stage_lower_bound
from repro.errors import ConfigError
from tests.opt_bruteforce import min_changes_bruteforce_multi

B_O = 8.0
D_O = 2


class TestMinChangesMulti:
    def test_shape_validation(self):
        with pytest.raises(ConfigError):
            min_changes_bruteforce_multi(np.ones(4), B_O, D_O)

    def test_symmetric_load_zero_changes(self):
        arrivals = np.full((6, 2), 2.0)
        assert min_changes_bruteforce_multi(arrivals, B_O, D_O) == 0

    def test_empty(self):
        assert min_changes_bruteforce_multi(np.zeros((0, 2)), B_O, D_O) == 0

    def test_hopping_load_needs_changes(self):
        # Session 0 carries the full rate then session 1 does: any fixed
        # split within B_O = 8 cannot serve rate 6 on both simultaneously.
        arrivals = np.zeros((8, 2))
        arrivals[:4, 0] = 6.0
        arrivals[4:, 1] = 6.0
        opt = min_changes_bruteforce_multi(
            arrivals, B_O, D_O, levels=[6.0, 2.0, 0.0], max_changes=2
        )
        assert opt == 2  # both sessions' levels move at the hand-off

    def test_infeasible_returns_none(self):
        arrivals = np.full((6, 2), 10.0)  # 20 > B_O per slot forever
        assert (
            min_changes_bruteforce_multi(arrivals, B_O, D_O, max_changes=1)
            is None
        )


@settings(max_examples=30, deadline=None)
@given(
    columns=st.lists(
        st.tuples(
            st.sampled_from([0.0, 1.0, 3.0]),
            st.sampled_from([0.0, 1.0, 3.0]),
        ),
        min_size=3,
        max_size=6,
    )
)
def test_multi_certificate_is_sound(columns):
    """Whenever the exhaustive search finds a feasible assignment with c
    changes, the Lemma 13 certificate must not claim more than c."""
    arrivals = np.asarray(columns, dtype=float)
    opt = min_changes_bruteforce_multi(
        arrivals, B_O, D_O, levels=[4.0, 2.0, 1.0, 0.0], max_changes=2
    )
    if opt is None:
        return
    lower = multi_stage_lower_bound(arrivals, B_O, D_O)
    assert lower <= opt
