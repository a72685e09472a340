"""Direct walk simulation: the scalar reference walk, ensembles, crossings.

The lockstep engine keeps reduced occupation counts; its ensemble and
crossing rows must reproduce the raw-count scalar walk on each trial's
substream, and the right-crossing counts of the killed walk must follow
the same law as the crossing chain built from exact step draws.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from erwlab.environments import make_bounded, make_periodic, parse_env
from erwlab.kks import sample_U
from erwlab.seeding import DEFAULT_SEED, TAG_CROSSINGS, TAG_GENERAL, TAG_WALK, substream
from erwlab.walk import edge_crossings, ensemble_summary, ensemble_walks, run_walk

S = DEFAULT_SEED

PILES = pytest.mark.parametrize(
    "env",
    [
        make_periodic((0.9, 0.1)),
        make_periodic((0.7, 0.3, 0.4)),
        make_bounded((0.9, 0.8)),
        parse_env("tail:0.2,0.9@0.9,0.1,0.4"),
    ],
    ids=["per2", "per3", "bounded", "prefix-cycle"],
)


# ---------------------------------------------------------------------
# single walks
# ---------------------------------------------------------------------


def test_final_position_has_step_parity():
    for steps in (7, 100, 1_001):
        t = run_walk(make_periodic((0.6, 0.4)), steps, substream(S, TAG_GENERAL, 51))
        assert (t.final_position + steps) % 2 == 0
        assert abs(t.final_position) <= t.max_abs_position <= steps


def test_local_times_account_for_every_step():
    env = make_periodic((0.8, 0.3))
    trace = run_walk(env, 2_500, substream(S, TAG_GENERAL, 52))
    counts = trace.local_times
    assert counts is not None
    assert sum(counts.values()) == 2_500 + 1
    assert counts.get(trace.final_position, 0) >= 1
    assert len(counts) >= trace.distinct_sites - 1


def test_recording_grid_shape():
    t = run_walk(
        make_periodic((0.5, 0.5)), 1_000, substream(S, TAG_GENERAL, 53), record_every=100
    )
    assert t.positions is not None
    assert t.positions.shape == (11,)
    assert t.positions[0] == 0
    assert t.positions[-1] == t.final_position


def test_run_walk_argument_validation():
    env = make_periodic((0.5, 0.5))
    rng = substream(S, TAG_GENERAL, 54)
    with pytest.raises(ValueError):
        run_walk(env, -1, rng)
    with pytest.raises(ValueError):
        run_walk(env, 10, rng, record_every=-1)


@pytest.mark.parametrize(
    "call",
    [
        lambda env: ensemble_walks(env, -5, 2),
        lambda env: ensemble_walks(env, 5, 0),
        lambda env: ensemble_walks(env, 5, 2, record_every=-3),
        lambda env: edge_crossings(env, 3, -4),
        lambda env: edge_crossings(env, 0, 10),
    ],
    ids=["negative-steps", "no-trials", "negative-record", "negative-cap", "no-crossing-trials"],
)
def test_ensemble_entry_points_reject_bad_sizes(call):
    with pytest.raises(ValueError):
        call(make_periodic((0.5, 0.5)))


# ---------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------


def test_ensemble_rows_reproduce_scalar_substream_runs():
    env = make_periodic((0.9, 0.1))
    traces = ensemble_walks(env, 500, 8, master_seed=S)
    for i in (0, 3, 7):
        solo = run_walk(env, 500, substream(S, TAG_WALK, i))
        assert traces[i] == solo


@PILES
def test_reduced_and_full_counts_walk_the_same_path(env):
    # reduced counts in the engine against raw counts in the scalar
    # reference, across step chunks and a recording grid that does not
    # divide steps
    traces = ensemble_walks(env, 2_500, 8, master_seed=S, record_every=7)
    for i in (0, 3, 7):
        solo = run_walk(env, 2_500, substream(S, TAG_WALK, i), record_every=7)
        assert traces[i] == solo
        assert np.array_equal(traces[i].positions, solo.positions)


def test_strong_right_drift_shows_in_the_ensemble():
    env = make_periodic((0.9, 0.9))
    summary = ensemble_summary(ensemble_walks(env, 2_000, 300, master_seed=S))
    assert summary.fraction_final_positive > 0.95
    assert summary.mean_final_position > 100
    assert summary.trials == 300 and summary.steps == 2_000


def test_mirror_negates_the_final_position_law():
    env = make_periodic((0.9, 0.9, 0.1, 0.1))
    a = ensemble_walks(env, 2_000, 400, master_seed=S)
    b = ensemble_walks(env.mirror(), 2_000, 400, master_seed=S + 7)
    fa = np.array([t.final_position for t in a], dtype=float)
    fb = np.array([t.final_position for t in b], dtype=float)
    se = np.sqrt(fa.var(ddof=1) / len(fa) + fb.var(ddof=1) / len(fb))
    assert abs(fa.mean() + fb.mean()) < 4.0 * se


def test_summary_rejects_empty_input():
    with pytest.raises(ValueError):
        ensemble_summary([])


# ---------------------------------------------------------------------
# crossings versus the chain
# ---------------------------------------------------------------------


def test_edge_crossings_match_chain_law():
    # For the walk killed on first hitting -1, the right-step counts at
    # sites 0 and 1 follow the first two chain values Z_1 = U(1) and
    # Z_2 = U(Z_1).  Subcritical pile, so no trial is censored.
    env = make_periodic((0.3, 0.3))
    n = 10_000
    counts, censored = edge_crossings(env, n, 100_000, edges=(0, 1), master_seed=S)
    assert int(censored.sum()) == 0

    rng = substream(S, TAG_GENERAL, 13)
    z1 = np.empty(n, dtype=np.int64)
    z2 = np.empty(n, dtype=np.int64)
    for i in range(n):
        a = sample_U(env, 1, rng)
        z1[i] = a
        z2[i] = sample_U(env, a, rng) if a > 0 else 0

    d1 = stats.ks_2samp(counts[:, 0], z1, method="asymp")
    d2 = stats.ks_2samp(counts[:, 1], z2, method="asymp")
    assert d1.pvalue > 0.01
    assert d2.pvalue > 0.01


def test_edge_crossings_rows_reproduce_scalar_substream_runs():
    # Transient pile and a cap spanning several step chunks: some trials
    # hit -1 in the first chunk, some in a later one, some are censored.
    env = make_periodic((0.9, 0.9, 0.1, 0.1))
    n, cap, edges = 16, 3_000, (0, 1, 3)
    counts, censored = edge_crossings(env, n, cap, edges=edges, master_seed=S)
    deaths = []
    for i in range(n):
        solo = run_walk(env, cap, substream(S, TAG_CROSSINGS, i), record_every=1)
        assert solo.positions is not None
        stop = cap if solo.first_hit_minus1 is None else solo.first_hit_minus1
        here, there = solo.positions[:stop], solo.positions[1 : stop + 1]
        right = there == here + 1
        expect = [int(np.sum(right & (here == e))) for e in edges]
        assert counts[i].tolist() == expect
        assert censored[i] == (solo.first_hit_minus1 is None)
        deaths.append(solo.first_hit_minus1)
    hit = [d for d in deaths if d is not None]
    assert min(hit) < 64 and max(hit) > 1_024 and None in deaths


def test_crossing_counts_censor_at_the_cap():
    # strong right drift rarely reaches -1, so short caps censor
    env = make_periodic((0.9, 0.9))
    counts, censored = edge_crossings(env, 200, 500, master_seed=S)
    assert counts.shape == (200, 1)
    assert censored.mean() > 0.5


def test_first_hit_frequency_matches_chain_absorption():
    # P(walk ever hits -1) equals P(U(1) = 0) + higher-order terms; for
    # the subcritical pile it is 1, visible already at a modest cap
    env = make_periodic((0.3, 0.3))
    traces = ensemble_walks(env, 3_000, 300, master_seed=S)
    frac = np.mean([t.first_hit_minus1 is not None for t in traces])
    assert frac == 1.0
