"""Band criterion and Lyapunov drift checks.

Band values are frozen from the closed-form expressions; the verdict
logic is exercised with synthetic ladders whose outcome is known, and
with exact diagnostics from the closed-form module so both routes to a
classification can be compared.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from erwlab.criterion import (
    CriterionInput,
    VerdictValue,
    band_bounds,
    classify_chain,
    lyapunov_drift,
)
from erwlab.environments import make_periodic
from erwlab.kks import LadderEntry, LadderStats, step_sampler
from erwlab.periodic import Classification, classify_periodic, diagnostics
from erwlab.seeding import DEFAULT_SEED, TAG_GENERAL, substream

S = DEFAULT_SEED


def _ladder(points):
    """Ladder from (x, theta, se) triples; other fields are inert."""
    entries = tuple(
        LadderEntry(
            x=x,
            trials=10_000,
            rho_hat=0.0,
            nu_hat=1.0,
            theta_hat=th,
            se_rho=0.0,
            se_nu=0.0,
            se_theta=se,
        )
        for x, th, se in points
    )
    return LadderStats(entries)


# ---------------------------------------------------------------------
# bands
# ---------------------------------------------------------------------


def test_frozen_band_values():
    assert band_bounds(1_000)[1] == pytest.approx(1.5084, abs=5e-4)
    assert band_bounds(10_000)[1] == pytest.approx(1.3092, abs=5e-4)
    assert band_bounds(100_000)[1] == pytest.approx(1.2102, abs=5e-4)
    lower, upper = band_bounds(10)
    assert upper == pytest.approx(1.0 + 2.0 / math.log(10) + math.log(10) / math.sqrt(10), abs=1e-12)
    assert lower < 1.0 < upper


def test_band_bounds_reject_small_x():
    with pytest.raises(ValueError):
        band_bounds(9.5)


@given(st.floats(min_value=10.0, max_value=1e9))
@settings(max_examples=100, deadline=None)
def test_lower_band_is_below_upper_band(x):
    lower, upper = band_bounds(x)
    assert lower < upper
    # both bands approach 1 from their side of the 1/ln x bump
    assert upper > 1.0


# ---------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------


def test_mean_dichotomy_preempts_the_ladder():
    empty = LadderStats(())
    v = classify_chain(CriterionInput(mu=0.8, mu_se=0.01, ladder=empty))
    assert v.value is VerdictValue.RECURRENT
    v = classify_chain(CriterionInput(mu=1.3, mu_se=0.05, ladder=empty))
    assert v.value is VerdictValue.TRANSIENT
    with pytest.raises(ValueError):
        classify_chain(CriterionInput(mu=1.0, mu_se=0.0, ladder=empty))


def test_constant_theta_two_certifies_transience():
    ladder = _ladder([(x, 2.0, 0.0) for x in (1_000, 10_000, 100_000)])
    v = classify_chain(CriterionInput(mu=1.0, mu_se=0.0, ladder=ladder))
    assert v.value is VerdictValue.TRANSIENT
    assert all(m.above_upper > 0.0 for m in v.margins)


def test_theta_inside_the_gap_is_inconclusive():
    pts = [(x, 1.0 + 1.5 / math.log(x), 0.0) for x in (1_000, 10_000, 100_000)]
    v = classify_chain(CriterionInput(mu=1.0, mu_se=0.0, ladder=_ladder(pts)))
    assert v.value is VerdictValue.INCONCLUSIVE


def test_small_theta_certifies_recurrence():
    ladder = _ladder([(x, 0.2, 0.0) for x in (1_000, 10_000)])
    v = classify_chain(CriterionInput(mu=1.0, mu_se=0.0, ladder=ladder))
    assert v.value is VerdictValue.RECURRENT


def test_one_straggling_point_blocks_the_verdict():
    pts = [(1_000, 2.0, 0.0), (10_000, 1.0, 0.0), (100_000, 2.0, 0.0)]
    v = classify_chain(CriterionInput(mu=1.0, mu_se=0.0, ladder=_ladder(pts)))
    assert v.value is VerdictValue.INCONCLUSIVE


def test_wide_errors_downgrade_to_inconclusive():
    # theta 2 with se 0.5: the 3-sigma edge dips under the upper band
    ladder = _ladder([(10_000, 2.0, 0.5)])
    v = classify_chain(CriterionInput(mu=1.0, mu_se=0.0, ladder=ladder))
    assert v.value is VerdictValue.INCONCLUSIVE


@given(st.floats(min_value=0.0, max_value=0.05))
@settings(max_examples=30, deadline=None)
def test_shrinking_errors_never_flip_a_verdict(se):
    # evidence that certifies at some error level still certifies at
    # every smaller error level
    pts = [(x, 2.0, se) for x in (1_000, 10_000)]
    loose = classify_chain(CriterionInput(mu=1.0, mu_se=0.0, ladder=_ladder(pts)))
    tight_pts = [(x, 2.0, se / 2) for x in (1_000, 10_000)]
    tight = classify_chain(CriterionInput(mu=1.0, mu_se=0.0, ladder=_ladder(tight_pts)))
    if loose.value is VerdictValue.TRANSIENT:
        assert tight.value is VerdictValue.TRANSIENT


def test_agrees_with_closed_form_on_clear_cases():
    # exact theta fed in as a flat ladder at huge x: the band criterion
    # must reproduce the closed-form answer when theta is far from 1
    for params in [(0.9, 0.9, 0.1, 0.1), (0.9, 0.1)]:
        env = make_periodic(params)
        theta = diagnostics(env).theta_right
        assert abs(theta - 1.0) > 0.1
        xs = (10**8, 10**10, 10**12)
        ladder = _ladder([(x, theta, 0.0) for x in xs])
        v = classify_chain(CriterionInput(mu=1.0, mu_se=0.0, ladder=ladder))
        closed = classify_periodic(env)
        if closed is Classification.TRANSIENT_RIGHT:
            assert v.value is VerdictValue.TRANSIENT
        else:
            assert v.value in (VerdictValue.RECURRENT, VerdictValue.INCONCLUSIVE)


def test_rationale_mentions_the_band_outcome():
    ladder = _ladder([(1_000, 2.0, 0.0)])
    v = classify_chain(CriterionInput(mu=1.0, mu_se=0.0, ladder=ladder))
    assert "upper band" in v.rationale


# ---------------------------------------------------------------------
# Lyapunov drifts
# ---------------------------------------------------------------------


def test_identity_drift_recovers_rho():
    env = make_periodic((0.9, 0.1))
    rng = substream(S, TAG_GENERAL, 40)
    d, se = lyapunov_drift(step_sampler(env), "identity", 200, 200_000, rng)
    assert abs(d - 0.08) < 3.5 * se


def test_reciprocal_drift_is_negative_for_supercritical_steps():
    env = make_periodic((0.7, 0.7))
    rng = substream(S, TAG_GENERAL, 41)
    d, se = lyapunov_drift(step_sampler(env), "reciprocal", 100, 50_000, rng)
    assert d < -3 * se


def test_guard_points_are_enforced():
    env = make_periodic((0.9, 0.1))
    rng = substream(S, TAG_GENERAL, 42)
    sampler = step_sampler(env)
    with pytest.raises(ValueError):
        lyapunov_drift(sampler, "loglog", 15, 1_000, rng)
    with pytest.raises(ValueError):
        lyapunov_drift(sampler, "invlog", 7, 1_000, rng)
    with pytest.raises(ValueError):
        lyapunov_drift(sampler, "expexp", 100, 1_000, rng)
    with pytest.raises(ValueError):
        lyapunov_drift(sampler, "identity", 10, 1, rng)


def test_loglog_values_extend_linearly_below_the_guard():
    from erwlab.criterion import _lyapunov_value

    t = np.array([2.0, 8.0, 16.0, 40.0])
    v = _lyapunov_value("loglog", t)
    assert v[2] == pytest.approx(math.log(math.log(16.0)), abs=1e-12)
    assert v[3] == pytest.approx(math.log(math.log(40.0)), abs=1e-12)
    # below the guard: straight line with the tangent slope at 16
    slope = 1.0 / (16.0 * math.log(16.0))
    assert v[1] == pytest.approx(v[2] - 8.0 * slope, abs=1e-12)
    assert np.all(np.diff(v) > 0.0)
