"""Exact step-law oracle versus independent closed forms.

The forward DP is the reference everything else is judged against, so
it gets its own independent checks: small cases are recomputed by
direct summation over failure placements, which shares no code with
the DP.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from erwlab.environments import (
    CookieEnvironment,
    make_bounded,
    make_custom_tail,
    make_periodic,
)
from erwlab.kks import (
    OracleHorizonError,
    asymptotic_mu,
    exact_U_distribution,
    exact_moments,
)
from erwlab.periodic import diagnostics


def _mass_by_failure_placement(env, x, k):
    """P(count == k) summed over positions of the first x-1 failures.

    Count k with target x means trial k+x is the x-th failure, and the
    other x-1 failures sit anywhere among trials 1..k+x-1.  Only used
    for x <= 2 where the combinatorics stay readable.
    """
    n = k + x
    q_last = 1.0 - env.cookie_at(n)
    if x == 1:
        acc = q_last
        for i in range(1, n):
            acc *= env.cookie_at(i)
        return acc
    assert x == 2
    total = 0.0
    for j in range(1, n):  # position of the earlier failure
        term = 1.0 - env.cookie_at(j)
        for i in range(1, n):
            if i != j:
                term *= env.cookie_at(i)
        total += term
    return total * q_last


# ---------------------------------------------------------------------


def test_zero_target_is_a_point_mass_at_one():
    d = exact_U_distribution(make_periodic((0.9, 0.1)), 0)
    assert list(d.support()) == [1]
    assert d.mass.tolist() == [1.0]
    assert d.tail_bound == 0.0
    assert d.mean() == 1.0


def test_all_half_small_case_masses():
    d = exact_U_distribution(make_periodic((0.5, 0.5)), 2)
    assert d.support_offset == 0
    assert d.mass[0] == pytest.approx(0.25, abs=1e-15)
    assert d.mass[1] == pytest.approx(0.25, abs=1e-15)
    assert d.mass[2] == pytest.approx(0.1875, abs=1e-15)
    assert d.mass[3] == pytest.approx(0.125, abs=1e-15)


@pytest.mark.parametrize(
    "env",
    [
        make_periodic((0.9, 0.1)),
        make_periodic((0.7, 0.3)),
        make_custom_tail((0.9,), 0.3),
    ],
    ids=["per-9-1", "per-7-3", "tail-9-at-3"],
)
def test_dp_matches_failure_placement_sum(env):
    for x in (1, 2):
        d = exact_U_distribution(env, x, tail_eps=1e-13)
        for k in range(min(len(d.mass), 25)):
            direct = _mass_by_failure_placement(env, x, k)
            assert d.mass[k] == pytest.approx(direct, abs=1e-13)


@given(st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=1, max_size=5))
@settings(max_examples=50, deadline=None)
def test_single_failure_law_is_a_product_formula(values):
    env = make_periodic(tuple(values))
    d = exact_U_distribution(env, 1, tail_eps=1e-12)
    for k in range(min(len(d.mass), 12)):
        assert d.mass[k] == pytest.approx(
            _mass_by_failure_placement(env, 1, k), abs=1e-12
        )


def test_constant_half_single_failure_is_geometric():
    d = exact_U_distribution(make_periodic((0.5,)), 1)
    for k in range(min(len(d.mass), 30)):
        assert d.mass[k] == pytest.approx(0.5 ** (k + 1), abs=1e-15)


def test_mass_is_normalized_up_to_declared_tail():
    for env in (make_periodic((0.9, 0.1)), make_bounded((0.8, 0.7, 0.6))):
        for x in (1, 3, 17, 80):
            d = exact_U_distribution(env, x, tail_eps=1e-12)
            assert np.all(d.mass >= 0.0)
            assert d.tail_bound < 1e-11
            assert d.total_mass() + d.tail_bound == pytest.approx(1.0, abs=1e-11)


def test_bounded_pile_mean_is_target_plus_total_drift():
    env = make_bounded((0.9, 0.9))
    d = exact_U_distribution(env, 50, tail_eps=1e-13)
    assert d.mean() == pytest.approx(51.6, abs=1e-9)
    env = make_bounded((0.2, 0.3, 0.4))
    d = exact_U_distribution(env, 40, tail_eps=1e-13)
    # delta = -0.6 - 0.4 - 0.2
    assert d.mean() == pytest.approx(40.0 - 1.2, abs=1e-9)


@pytest.mark.parametrize(
    "prefix,cycle,rho",
    [
        ((0.9, 0.9), (0.9, 0.1), 1.68),
        ((0.2,), (0.9, 0.9, 0.1, 0.1), -0.12),
        ((0.7, 0.3, 0.95), (0.8, 0.3, 0.4, 0.5), 1.03),
        ((0.1, 0.2), (0.5,), -1.40),
    ],
)
def test_prefix_moves_rho_by_its_total_drift(prefix, cycle, rho):
    # The cycle starts at its slot 0 once the prefix is used up, so the
    # prefix adds its drift to the cycle's rho: rho = rho_cycle + delta.
    env = CookieEnvironment(prefix, cycle)
    delta = sum(2.0 * p - 1.0 for p in prefix)
    assert diagnostics(env).rho == pytest.approx(rho, abs=1e-12)
    assert diagnostics(CookieEnvironment((), cycle)).rho + delta == pytest.approx(rho, abs=1e-12)
    for x in (50, 400):
        assert exact_moments(env, x).rho_x == pytest.approx(rho, abs=1e-6), x


@pytest.mark.parametrize(
    "prefix,cycle,rho",
    [((0.8,), (0.1, 0.1, 0.9, 0.9), -0.52), ((0.1, 0.1), (0.1, 0.9), -2.32)],
)
def test_mirrored_prefix_moves_rho_left_by_minus_its_drift(prefix, cycle, rho):
    # rho of the mirrored pile is the original pile's rho_left, which is
    # the cycle's rho_left less the original prefix's drift.
    mirrored = CookieEnvironment(prefix, cycle)
    d = diagnostics(mirrored.mirror())
    assert d.theta_left * d.nu / 2.0 == pytest.approx(rho, abs=1e-12)
    for x in (50, 400):
        assert exact_moments(mirrored, x).rho_x == pytest.approx(rho, abs=1e-6), x


def test_moments_converge_to_closed_form_constants():
    m = exact_moments(make_periodic((0.9, 0.1)), 50)
    assert m.rho_x == pytest.approx(0.08, abs=1e-9)
    assert m.nu_x == pytest.approx(0.717248, abs=1e-6)
    assert m.mean == pytest.approx(50.08, abs=1e-9)


def test_supercritical_mean_tracks_mu_x():
    env = make_periodic((0.7, 0.7))
    mu = asymptotic_mu(env)
    assert mu == pytest.approx(7.0 / 3.0, abs=1e-12)
    d = exact_U_distribution(env, 60, tail_eps=1e-12)
    assert d.mean() == pytest.approx(mu * 60, rel=5e-3)


def test_near_degenerate_tail_raises_horizon_error():
    env = make_custom_tail((0.5,), 1.0 - 1e-9)
    with pytest.raises(OracleHorizonError):
        exact_U_distribution(env, 1, tail_eps=1e-12)


def test_rejects_bad_arguments():
    env = make_periodic((0.6, 0.4))
    with pytest.raises(ValueError):
        exact_U_distribution(env, -1)
    with pytest.raises(ValueError):
        exact_U_distribution(env, 3, tail_eps=0.0)
