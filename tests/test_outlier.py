"""Density-based threshold detection and convergence latching."""
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from scfto.config import OutlierParams
from scfto.outlier import ConvergenceTracker, detect_threshold, neighbor_counts

from checks import brute_threshold

PARAMS = OutlierParams(t_nbr=0.1)  # wide radius for hand-traced fixtures


# --------------------------------------------------------- neighbor counts

def test_neighbor_counts_excludes_self():
    assert neighbor_counts([0.5], 0.1) == [0]


def test_neighbor_counts_strict_radius():
    # distance exactly t_nbr does not count as a neighbor (0.25 and 0.75
    # are exact in binary); 0.6 - 0.5 rounds to just below 0.1
    assert neighbor_counts([0.5, 0.75], 0.25) == [0, 0]
    assert neighbor_counts([0.5, 0.6], 0.1) == [1, 1]
    assert neighbor_counts([0.5, 0.599], 0.1) == [1, 1]


def test_neighbor_counts_use_the_difference():
    # 0.08 - 0.07 = 0.009999999999999995 < 0.01, so each is the other's
    # neighbor and the pair forms one cluster
    assert neighbor_counts([0.07, 0.08], 0.01) == [1, 1]
    assert detect_threshold([0.07, 0.08], OutlierParams()) == 0.07


def test_neighbor_counts_cluster():
    vals = sorted([0.9, 0.905, 0.91, 0.2])
    assert neighbor_counts(vals, 0.1) == [0, 2, 2, 2]


@st.composite
def sorted_values_and_radius(draw):
    t_nbr = draw(st.one_of(st.sampled_from([0.01, 0.1, 0.125, 0.25]),
                           st.floats(min_value=1e-3, max_value=0.5)))
    values = draw(st.lists(st.one_of(st.floats(min_value=0.0, max_value=1.0),
                                     st.sampled_from([0.0, 1.0])), max_size=30))
    # pairs one radius apart: exactly so in binary for a dyadic radius on
    # the 1/64 grid, and within rounding of it otherwise
    for k in draw(st.lists(st.integers(0, 64), max_size=4)):
        if k / 64 + t_nbr <= 1.0:
            values += [k / 64, k / 64 + t_nbr]
    if values:
        values += draw(st.lists(st.sampled_from(values), max_size=6))  # duplicates
    return sorted(values), t_nbr


@settings(max_examples=300, deadline=None)
@given(sorted_values_and_radius())
def test_neighbor_counts_follow_the_definition(case):
    vals, t_nbr = case
    assert neighbor_counts(vals, t_nbr) == [sum(abs(y - x) < t_nbr for y in vals) - 1
                                            for x in vals]


# --------------------------------------------------------------- threshold

def test_hand_trace_fixture():
    # clump {0.9, 0.905, 0.91} is dense; 0.2 is isolated; threshold is
    # the clump minimum.
    assert detect_threshold([0.9, 0.905, 0.91, 0.2], PARAMS) == 0.9


def test_hand_trace_fixture_default_radius():
    # the clump spacing (0.005) sits inside the default radius too
    assert detect_threshold([0.9, 0.905, 0.91, 0.2], OutlierParams()) == 0.9


def test_bimodal_isolates_high_clump():
    low = [0.10, 0.12, 0.14, 0.16, 0.18]
    high = [0.80, 0.82, 0.84, 0.86, 0.88]
    assert detect_threshold(low + high, PARAMS) == 0.80


def test_empty_returns_none():
    assert detect_threshold([], PARAMS) is None


def test_singleton_returns_value():
    assert detect_threshold([0.42], PARAMS) == 0.42


def test_all_isolated_returns_max():
    assert detect_threshold([0.1, 0.4, 0.7, 1.0], PARAMS) == 1.0


def test_order_invariance():
    vals = [0.2, 0.91, 0.9, 0.905]
    shuffled = vals[:]
    random.Random(5).shuffle(shuffled)
    assert detect_threshold(vals, PARAMS) == detect_threshold(shuffled, PARAMS)


def test_identical_values_threshold_is_that_value():
    assert detect_threshold([0.7] * 6, PARAMS) == 0.7


def test_edge_value_joins_but_does_not_expand():
    # 0.78 is within t_nbr of the clump but is not core itself (fewer
    # neighbors); it joins the cluster so the threshold drops to it, yet
    # 0.70 (only reachable from 0.78, not from any core value) stays out.
    vals = [0.70, 0.78, 0.86, 0.87, 0.88, 0.89, 0.90]
    t_th = detect_threshold(vals, PARAMS)
    assert t_th == 0.78


def test_threshold_is_member_of_input():
    rng = random.Random(11)
    for _ in range(200):
        vals = [round(rng.random(), 3) for _ in range(rng.randint(1, 30))]
        t_th = detect_threshold(vals, PARAMS)
        assert t_th in vals


_sixteenths = st.integers(0, 16).map(lambda k: k / 16)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_sixteenths, max_size=12), t_nbr=st.integers(1, 8).map(lambda k: k / 16),
       core_fraction=st.sampled_from((0.25, 0.5, 0.8)))
# 0.5 is exactly t_nbr below the lowest core value, 0.75, so it stays out;
# reading "strictly below t_nbr" as "at most" takes it in
@example(values=[0.0625, 0.5, 0.5625, 0.75, 0.75, 0.8125, 0.9375, 1.0], t_nbr=0.25,
         core_fraction=0.8)
def test_threshold_matches_the_graph_walk(values, t_nbr, core_fraction):
    # dyadic values and radii subtract exactly, so many pairs lie exactly
    # one radius apart
    params = OutlierParams(t_nbr=t_nbr, core_fraction=core_fraction)
    assert detect_threshold(values, params) == brute_threshold(values, t_nbr, core_fraction)


def test_threshold_never_exceeds_max():
    rng = random.Random(12)
    for _ in range(200):
        vals = [rng.random() for _ in range(rng.randint(1, 25))]
        assert detect_threshold(vals, PARAMS) <= max(vals)


# ------------------------------------------------------------- convergence

def test_convergence_sequence():
    # th_d=0.05, n_s=3: diffs 0.02, 0.01, 0.02 -> streak reaches 3 on the
    # fourth update and latches.
    tr = ConvergenceTracker()
    params = OutlierParams(th_d=0.05, n_s=3)
    for v, expect in ((0.90, False), (0.92, False), (0.91, False),
                      (0.93, True)):
        tr.update(v, params)
        assert tr.converged is expect


def test_convergence_streak_resets_on_jump():
    tr = ConvergenceTracker()
    params = OutlierParams(th_d=0.05, n_s=3)
    tr.update(0.90, params)
    tr.update(0.91, params)
    tr.update(0.50, params)  # jump resets the stable streak
    assert tr.stable_rounds == 0
    assert not tr.converged


def test_convergence_latches_forever():
    tr = ConvergenceTracker()
    params = OutlierParams(th_d=0.05, n_s=1)
    tr.update(0.9, params)
    tr.update(0.9, params)
    assert tr.converged
    tr.update(0.1, params)  # later instability does not unlatch
    assert tr.converged


def test_convergence_ignores_none():
    tr = ConvergenceTracker()
    params = OutlierParams(th_d=0.05, n_s=2)
    tr.update(0.9, params)
    tr.update(None, params)
    assert tr.last_t_th == 0.9
    assert tr.stable_rounds == 0
    tr.update(0.91, params)
    tr.update(0.92, params)
    assert tr.converged
