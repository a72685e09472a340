"""Closed forms for periodic piles against independent oracles.

The failure-chain transition matrix and stationary law have short exact
derivations; every frozen number here was first produced by a separate
route (hand enumeration of run lengths, power iteration, or the DP
oracle) before being written down.
"""

from __future__ import annotations

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from erwlab.environments import make_bounded, make_custom_tail, make_periodic, parse_env
from erwlab.periodic import (
    Classification,
    InternalConsistencyError,
    _verify_stationary,
    asymptotic_mu,
    classify_periodic,
    classify_positive,
    diagnostics,
    failure_chain,
    half_half_threshold,
    slot_runs,
)
from reference_routes import power_iteration_stationary


# ---------------------------------------------------------------------
# failure chain
# ---------------------------------------------------------------------


def _enumerate_transition_row(params, j, terms=4000):
    """Brute-force P(next slot | current slot j) by summing over run
    lengths of consecutive successes, conditioned on a finite run."""
    m = len(params)
    row = [0.0] * m
    total = 0.0
    acc = 1.0
    for g in range(terms):
        slot = (j + g) % m
        w = acc * (1.0 - params[slot])
        row[(slot + 1) % m] += w
        total += w
        acc *= params[slot]
    return [r / total for r in row]


def test_all_half_transition_rows_are_thirds():
    chain = failure_chain(make_periodic((0.5, 0.5)))
    expect = np.array([[1.0 / 3.0, 2.0 / 3.0], [2.0 / 3.0, 1.0 / 3.0]])
    assert np.allclose(chain.matrix, expect, atol=1e-14)


@pytest.mark.parametrize("params", [(0.9, 0.1), (0.7, 0.3), (0.8, 0.3, 0.4, 0.5)])
def test_transition_matrix_matches_run_length_enumeration(params):
    chain = failure_chain(make_periodic(params))
    for j in range(len(params)):
        row = _enumerate_transition_row(params, j)
        assert np.allclose(chain.matrix[j], row, atol=1e-12)


def test_stationary_is_proportional_to_failure_probabilities():
    chain = failure_chain(make_periodic((0.9, 0.1)))
    assert np.allclose(chain.stationary, [0.9, 0.1], atol=1e-14)
    chain = failure_chain(make_periodic((0.7, 0.3)))
    assert np.allclose(chain.stationary, [0.7, 0.3], atol=1e-14)


@given(st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_stationary_fixed_point_and_power_iteration_agree(values):
    chain = failure_chain(make_periodic(tuple(values)))
    pi = chain.stationary
    assert abs(float(pi.sum()) - 1.0) < 1e-12
    assert float(np.max(np.abs(pi @ chain.matrix - pi))) < 1e-12
    pe = power_iteration_stationary(chain.matrix)
    assert float(np.max(np.abs(pe - pi))) < 1e-10


@pytest.mark.parametrize("m", [512, 2000])
def test_long_period_chain_is_stochastic_with_closed_form_law(m):
    env = make_periodic(tuple(np.random.default_rng(1).uniform(0.05, 0.95, m)))
    chain = failure_chain(env)
    assert float(np.max(np.abs(chain.matrix.sum(axis=1) - 1.0))) < 1e-12
    q = 1.0 - np.asarray(env.cycle)
    assert np.allclose(chain.stationary, np.roll(q, 1) / q.sum(), rtol=0.0, atol=1e-15)
    assert float(np.max(np.abs(chain.stationary @ chain.matrix - chain.stationary))) < 1e-12
    assert chain.mean_run() == pytest.approx(asymptotic_mu(env), abs=1e-10)


def test_matrix_is_the_slot_run_law_moved_one_slot_on():
    params = (0.8, 0.3, 0.4, 0.5, 0.95)
    chain = failure_chain(make_periodic(params))
    runs, fail = slot_runs(params)
    m = len(params)
    assert fail == pytest.approx(1.0 - math.prod(params), rel=1e-14)
    moved = np.empty((m, m))
    for j in range(m):
        for d in range(m):
            moved[j, (j + d + 1) % m] = runs[j, d] / fail
    np.testing.assert_allclose(chain.matrix, moved, rtol=1e-14, atol=0.0)


def test_slot_runs_peaks_at_the_array_it_returns():
    # The products and the failure chances are read through windows of
    # two periods, so the M x M result is the only large array built.
    params = tuple(np.random.default_rng(2).uniform(0.3, 0.75, 2000))
    tracemalloc.start()
    try:
        runs, _ = slot_runs(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= runs.nbytes + (1 << 20), (peak, runs.nbytes)


def test_stationary_check_rejects_a_perturbed_closed_form():
    chain = failure_chain(make_periodic((0.8, 0.3, 0.4, 0.5)))
    _verify_stationary(chain.matrix, chain.stationary)
    off = chain.stationary + np.array([1e-8, -1e-8, 0.0, 0.0])
    with pytest.raises(InternalConsistencyError):
        _verify_stationary(chain.matrix, off)


# ---------------------------------------------------------------------
# drift and diffusion constants
# ---------------------------------------------------------------------


def test_mu_equals_stationary_mean_run_weight():
    for params in [(0.9, 0.1), (0.7, 0.3), (0.6, 0.6, 0.2)]:
        env = make_periodic(params)
        chain = failure_chain(env)
        pbar = sum(params) / len(params)
        assert asymptotic_mu(env) == pytest.approx(pbar / (1 - pbar), abs=1e-12)
        assert float(chain.stationary @ chain.expected_runs) == pytest.approx(
            asymptotic_mu(env), abs=1e-10
        )


def test_frozen_constants_for_reference_envs():
    d = diagnostics(make_periodic((0.9, 0.1)))
    assert d.rho == pytest.approx(0.08, abs=1e-12)
    assert d.nu == pytest.approx(0.72, abs=1e-12)
    assert d.theta_right == pytest.approx(2.0 / 9.0, abs=1e-12)

    d = diagnostics(make_periodic((0.7, 0.3)))
    assert d.rho == pytest.approx(0.12, abs=1e-12)
    assert d.nu == pytest.approx(1.68, abs=1e-12)
    assert d.theta_right == pytest.approx(1.0 / 7.0, abs=1e-12)

    d4 = diagnostics(make_periodic((0.9, 0.9, 0.1, 0.1)))
    assert d4.rho == pytest.approx(0.48, abs=1e-12)
    assert d4.nu == pytest.approx(0.72, abs=1e-12)
    assert d4.theta_right == pytest.approx(4.0 / 3.0, abs=1e-12)


def _rotated(cycle, k):
    """The periodic pile begun at cookie k + 1 of ``cycle``."""
    return make_periodic(cycle[k:] + cycle[:k])


def test_rho_changes_by_one_minus_two_p_under_shift():
    # rotating the pile start past cookie k + 1 changes the drift by the
    # drift of the dropped cookie
    cycle = (0.8, 0.3, 0.4, 0.5)
    for k in range(len(cycle) - 1):
        lhs = diagnostics(_rotated(cycle, k + 1)).rho
        rhs = diagnostics(_rotated(cycle, k)).rho + 1.0 - 2.0 * cycle[k]
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_stationary_average_of_shifted_drifts_vanishes():
    cycle = (0.8, 0.3, 0.4, 0.5)
    chain = failure_chain(make_periodic(cycle))
    acc = 0.0
    for k in range(len(cycle)):
        acc += float(chain.stationary[k]) * diagnostics(_rotated(cycle, k)).rho
    assert acc == pytest.approx(0.0, abs=1e-10)


def test_theta_requires_criticality():
    d = diagnostics(make_periodic((0.9, 0.2)))
    assert d.rho is None and d.theta_right is None and d.theta_left is None


def test_mirror_theta_of_reference_env():
    env = make_periodic((0.9, 0.1))
    assert diagnostics(env.mirror()).theta_right == pytest.approx(-2.0, abs=1e-12)


# ---------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------


def test_half_half_threshold_values():
    assert half_half_threshold(0.9) == pytest.approx(3.4, abs=1e-12)
    assert half_half_threshold(0.75) == pytest.approx(7.0, abs=1e-12)
    # decreasing in p, approaching 2 as p -> 1
    assert half_half_threshold(0.99) > 2.0
    assert half_half_threshold(0.999) < half_half_threshold(0.99)
    with pytest.raises(ValueError, match="strictly between"):
        half_half_threshold(0.5)


def test_alternating_period_two_is_always_recurrent():
    for p in (0.55, 0.7, 0.9, 0.99):
        assert classify_periodic(make_periodic((p, 1 - p))) is Classification.RECURRENT


def test_block_env_turns_transient_past_threshold():
    p = 0.9  # threshold 3.4: M=2 recurrent, M=4 transient
    assert classify_periodic(make_periodic((p, 1 - p))) is Classification.RECURRENT
    env4 = make_periodic((p, p, 1 - p, 1 - p))
    assert classify_periodic(env4) is Classification.TRANSIENT_RIGHT


def test_mean_dominates_when_not_critical():
    assert classify_periodic(make_periodic((0.6, 0.6))) is Classification.TRANSIENT_RIGHT
    assert classify_periodic(make_periodic((0.3, 0.4))) is Classification.TRANSIENT_LEFT


def test_mirror_swaps_transience_direction():
    env = make_periodic((0.9, 0.9, 0.1, 0.1))
    assert classify_periodic(env) is Classification.TRANSIENT_RIGHT
    assert classify_periodic(env.mirror()) is Classification.TRANSIENT_LEFT


def test_diagnostics_record_is_complete_for_critical_env():
    d = diagnostics(make_periodic((0.9, 0.1)))
    assert d.p_bar == pytest.approx(0.5)
    assert d.mu == pytest.approx(1.0)
    assert d.theta_right == pytest.approx(2.0 / 9.0, abs=1e-12)
    assert d.theta_left == pytest.approx(-2.0, abs=1e-12)
    assert d.classification is Classification.RECURRENT


def test_diagnostics_leave_theta_unset_off_criticality():
    d = diagnostics(make_periodic((0.9, 0.3)))
    assert d.theta_right is None and d.rho is None
    assert d.classification is Classification.TRANSIENT_RIGHT


def _tenths_on_the_boundary(m):
    """Numerators k of every elliptic pile (k_1/10, ..., k_m/10) with
    mean 1/2 and theta exactly 1.

    With p = k/10 and D_i = sum_{j <= i} (2 k_j - 10), theta = 1 reads
    sum (10 - k_i) D_i = 2 sum k_i (10 - k_i) in integers.
    """
    k = np.indices((9,) * m).reshape(m, -1).T + 1
    k = k[k.sum(axis=1) == 5 * m]
    d = np.cumsum(2 * k - 10, axis=1)
    return k[((10 - k) * d).sum(axis=1) == 2 * (k * (10 - k)).sum(axis=1)]


def test_theta_one_piles_in_tenths_are_recurrent():
    piles = _tenths_on_the_boundary(5).tolist() + _tenths_on_the_boundary(6).tolist()
    assert len(piles) == 26
    for k in piles:
        env = make_periodic([Fraction(v, 10) for v in k])
        d = diagnostics(env)
        assert d.theta_right == 1.0, k
        assert d.classification is Classification.RECURRENT, k
        mirror = env.mirror()
        d = diagnostics(mirror)
        assert d.theta_left == 1.0, k
        assert d.classification is Classification.RECURRENT, k
        assert classify_periodic(mirror) is Classification.RECURRENT, k


def _prefixed_tenths_on_the_boundary():
    """(prefix, cycle) numerators of every pile k/10, 1 <= k <= 9, with a
    1-2 entry prefix and a non-constant 2-4 entry cycle of mean 1/2 whose
    theta_right or theta_left is exactly 1.

    With n the cycle length, D_i its partial sums of 2k - 10, Dp the
    prefix's sum of 2k - 10 and S = sum k_i (10 - k_i) over the cycle,
    theta_right = 1 reads sum (10 - k_i) D_i + 5 n Dp = 2 S and
    theta_left = 1 reads -sum k_i D_i - 5 n Dp = 2 S in integers.
    """
    prefixes = [p for n in (1, 2) for p in itertools.product(range(1, 10), repeat=n)]
    dp = np.array([sum(2 * k - 10 for k in p) for p in prefixes])
    found = []
    for n in (2, 3, 4):
        k = np.indices((9,) * n).reshape(n, -1).T + 1
        k = k[(k.sum(axis=1) == 5 * n) & (k.min(axis=1) < k.max(axis=1))]
        d = np.cumsum(2 * k - 10, axis=1)
        s = 2 * (k * (10 - k)).sum(axis=1)[:, None]
        right = ((10 - k) * d).sum(axis=1)[:, None] + 5 * n * dp == s
        left = -(k * d).sum(axis=1)[:, None] - 5 * n * dp == s
        for c, j in zip(*np.nonzero(right | left)):
            found.append((prefixes[j], tuple(k[c].tolist())))
    return found


def test_theta_one_piles_with_a_prefix_are_recurrent():
    piles = _prefixed_tenths_on_the_boundary()
    assert len(piles) == 504
    for prefix, cycle in piles:
        body = "@".join(",".join(f"{v}/10" for v in part) for part in (prefix, cycle))
        d = diagnostics(parse_env(f"tail:{body}"))
        assert 1.0 in (d.theta_right, d.theta_left), (prefix, cycle)
        assert d.classification is Classification.RECURRENT, (prefix, cycle)


def test_prefix_before_a_recurrent_cycle_can_make_it_transient():
    # The cycle (0.9, 0.1) alone has theta 2/9; the prefix adds 1.6 to rho.
    d = diagnostics(parse_env("tail:0.9,0.9@0.9,0.1"))
    assert d.classification is Classification.TRANSIENT_RIGHT
    assert d.theta_right == pytest.approx(14.0 / 3.0, abs=1e-12)
    assert d.rho == pytest.approx(1.68, abs=1e-12) and d.nu == pytest.approx(0.72, abs=1e-12)
    assert d.mu == 1.0


def test_unit_drift_bounded_piles_in_twentieths_are_recurrent():
    count = 0
    for c in (2, 3):
        k = np.indices((19,) * c).reshape(c, -1).T + 1
        for row in k[np.abs((k - 10).sum(axis=1)) == 10].tolist():
            env = make_bounded([Fraction(v, 20) for v in row])
            d = diagnostics(env)
            # A fair cycle makes theta the prefix's total drift delta.
            assert (d.theta_right, d.theta_left) in ((1.0, -1.0), (-1.0, 1.0)), row
            assert d.classification is Classification.RECURRENT, row
            count += 1
    assert count == 360


# ---------------------------------------------------------------------
# bounded and positive piles
# ---------------------------------------------------------------------


def test_bounded_total_drift_and_classification():
    env = make_bounded((0.9, 0.9))
    d = diagnostics(env)
    assert d.theta_right == pytest.approx(1.6, abs=1e-12)
    assert d.theta_left == pytest.approx(-1.6, abs=1e-12)
    assert d.classification is Classification.TRANSIENT_RIGHT
    assert classify_periodic(make_bounded((0.9,))) is Classification.RECURRENT
    assert classify_periodic(make_bounded((0.1, 0.2))) is Classification.TRANSIENT_LEFT


def test_bounded_boundary_case_is_recurrent():
    # |delta| exactly 1 stays recurrent
    assert classify_periodic(make_bounded((0.75, 0.75))) is Classification.RECURRENT


def test_custom_tail_at_half_counts_as_bounded():
    env = make_custom_tail((0.9, 0.9), 0.5)
    assert classify_periodic(env) is Classification.TRANSIENT_RIGHT


def test_positive_drift_classifier_threshold():
    assert classify_positive(0.99) is Classification.RECURRENT
    assert classify_positive(1.0) is Classification.RECURRENT
    assert classify_positive(1.01) is Classification.TRANSIENT_RIGHT
    # infinite pile with drift sum 2*(pi^2/6 - 1) > 1
    delta = 2.0 * (math.pi * math.pi / 6.0 - 1.0)
    assert classify_positive(delta) is Classification.TRANSIENT_RIGHT


@given(
    st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=1, max_size=6)
)
@settings(max_examples=40, deadline=None)
def test_classification_is_antisymmetric_under_mirror(values):
    env = make_periodic(tuple(values))
    c = classify_periodic(env)
    cm = classify_periodic(env.mirror())
    swap = {
        Classification.TRANSIENT_RIGHT: Classification.TRANSIENT_LEFT,
        Classification.TRANSIENT_LEFT: Classification.TRANSIENT_RIGHT,
        Classification.RECURRENT: Classification.RECURRENT,
    }
    assert cm is swap[c]


def test_prefix_drifts_partial_sums():
    env = make_periodic((0.8, 0.3))
    assert diagnostics(env).delta == pytest.approx((0.6, 0.2), abs=1e-12)
