"""Direct walk simulation: ensembles and crossings, against the scalar
reference walk of ``reference_routes``.

The lockstep engine keeps reduced occupation counts; its ensemble and
crossing rows must reproduce the raw-count scalar walk on each trial's
substream, and the right-crossing counts of the killed walk must follow
the same law as the crossing chain built from exact step draws.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from scipy import stats

from erwlab import walk
from erwlab.environments import CookieEnvironment, make_bounded, make_periodic, parse_env
from erwlab.kks import sample_U
from erwlab.seeding import DEFAULT_SEED, TAG_CROSSINGS, TAG_GENERAL, TAG_WALK, substream
from erwlab.walk import _EXTENT, _cookie_tables, _widen, edge_crossings, ensemble_walks

from reference_routes import ensemble_summary, run_walk

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
    counts: dict[int, int] = {}
    trace = run_walk(env, 2_500, substream(S, TAG_GENERAL, 52), local_times=counts)
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


def test_cookie_states_past_int16_do_not_wrap():
    # 40,000 prefix cookies: a site reaches state 32,768 only after that
    # many visits, so the grid's dtype is checked without walking there.
    env = CookieEnvironment(prefix=(0.9, 0.1) * 20_000, cycle=(0.5,))
    probs, nxt = _cookie_tables(env)
    assert len(probs) == 40_001
    counts = np.zeros((1, 2 * _EXTENT + 1), dtype=nxt.dtype)
    counts[0, :3] = nxt[[32_767, 39_999, 40_000]]
    counts, left, right = _widen(counts, _EXTENT, _EXTENT, -5_000, 0)
    assert counts.dtype == nxt.dtype and (left, right) == (8_192, _EXTENT)
    start = left - _EXTENT
    assert counts[0, start : start + 3].tolist() == [32_768, 40_000, 40_000]
    traces = ensemble_walks(env, 300, 2, master_seed=S)
    assert traces[1] == run_walk(env, 300, substream(S, TAG_WALK, 1))


def test_grid_widens_only_the_side_walkers_reach():
    counts = np.arange(2 * 9).reshape(2, 9).astype(np.uint8)  # sites -4..4
    same, left, right = _widen(counts, 4, 4, -4, 4)
    assert same is counts and (left, right) == (4, 4)
    grown, left, right = _widen(counts, 4, 4, -3, 9)
    assert (left, right) == (4, 16) and grown.shape == (2, 21)
    assert np.array_equal(grown[:, :9], counts) and not grown[:, 9:].any()
    grown, left, right = _widen(counts, 4, 4, -5, 0)
    assert (left, right) == (8, 4) and grown.shape == (2, 13)
    assert np.array_equal(grown[:, 4:], counts) and not grown[:, :4].any()
    assert grown.flags.c_contiguous


def test_right_transient_ensemble_grows_its_grid_on_one_side(monkeypatch):
    # Rows of this pile step right with probability 0.9 at every visit, so
    # in 22,000 steps they reach about 17,600 and hardly go left: only the
    # right extent grows, to 32,768 sites, and the 16 rows' grid holds
    # 16 x 34,817 cells (0.56 MB).  A grid symmetric about the origin
    # holds 16 x 65,537 (1.05 MB): the walk's traced peak was 1.15 MB with
    # one-sided growth and 1.74 MB with a symmetric grid.
    widen = walk._widen
    extents = []

    def recorded(*args):
        grown = widen(*args)
        extents.append(grown[1:])
        return grown

    monkeypatch.setattr(walk, "_widen", recorded)
    env = make_periodic((0.9, 0.9))
    ensemble_walks(env, 1, 1, master_seed=S)  # warm up
    tracemalloc.start()
    try:
        traces = ensemble_walks(env, 22_000, 16, master_seed=S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert extents[-1] == (_EXTENT, 32_768)
    assert min(t.final_position for t in traces) > 16_384
    assert peak < 1_450_000


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


def _scalar_crossings(env, cap, edges, trial):
    """Right steps from each edge before the first hit of -1, and that
    hit's step, from the scalar walk on the trial's crossing substream."""
    solo = run_walk(env, cap, substream(S, TAG_CROSSINGS, trial), record_every=1)
    assert solo.positions is not None
    stop = cap if solo.first_hit_minus1 is None else solo.first_hit_minus1
    here, there = solo.positions[:stop], solo.positions[1 : stop + 1]
    right = there == here + 1
    return [int(np.sum(right & (here == e))) for e in edges], solo.first_hit_minus1


def test_edge_crossings_rows_reproduce_scalar_substream_runs():
    # Transient pile and a cap spanning several step chunks: some trials
    # hit -1 in the first chunk, some in a later one, some are censored.
    env = make_periodic((0.9, 0.9, 0.1, 0.1))
    n, cap, edges = 16, 3_000, (0, 1, 3)
    counts, censored = edge_crossings(env, n, cap, edges=edges, master_seed=S)
    deaths = []
    for i in range(n):
        expect, death = _scalar_crossings(env, cap, edges, i)
        assert counts[i].tolist() == expect
        assert censored[i] == (death is None)
        deaths.append(death)
    hit = [d for d in deaths if d is not None]
    assert min(hit) < 64 and max(hit) > 1_024 and None in deaths


# Chunks of the lockstep engine end after steps 64, 192, 448, 960, ...
# A walk first hits -1 on an odd step, so these trials' first hits are
# the odd steps next to a chunk's end, or the last step of a walk cut
# short of one.
WALK_EDGE_HITS = {27: 63, 321: 65, 2_787: 191, 876: 193, 575: 447}
KILLED_EDGE_HITS = {259: 63, 746: 65, 1_442: 191}


@pytest.mark.parametrize("steps,record_every", [(447, 1), (3_100, 1), (3_100, 1_500)])
def test_ensemble_rows_match_the_scalar_walk_at_chunk_edges(steps, record_every):
    env = make_periodic((0.7, 0.3, 0.4))
    traces = ensemble_walks(env, steps, max(WALK_EDGE_HITS) + 1, master_seed=S,
                            record_every=record_every)
    for i, hit in WALK_EDGE_HITS.items():
        solo = run_walk(env, steps, substream(S, TAG_WALK, i), record_every=record_every)
        assert solo.first_hit_minus1 == hit
        assert traces[i] == solo
        assert np.array_equal(traces[i].positions, solo.positions)
        if i == 321 and record_every == 1:
            # it hits -1 again within the chunk of its first hit
            assert np.count_nonzero(solo.positions[65:193] == -1) >= 2


def test_killed_rows_match_the_scalar_walk_at_chunk_edges():
    # The cap ends the second chunk one step early, on trial 1442's death.
    # A killed row walks on to its chunk's end, but no step after its
    # death counts, so edge -1 has no crossings.
    env = make_periodic((0.9, 0.9, 0.1, 0.1))
    cap, edges = 191, (-1, 0, 1, 2)
    counts, censored = edge_crossings(env, max(KILLED_EDGE_HITS) + 1, cap, edges=edges,
                                      master_seed=S)
    for i, hit in KILLED_EDGE_HITS.items():
        expect, death = _scalar_crossings(env, cap, edges, i)
        assert death == hit
        assert counts[i].tolist() == expect and not censored[i]


def test_killed_group_dying_in_the_first_chunk_matches_the_scalar_walk():
    env = make_periodic((0.2, 0.4))
    n, cap, edges = 16, 3_000, (-1, 0, 1)
    counts, censored = edge_crossings(env, n, cap, edges=edges, master_seed=S)
    for i in range(n):
        expect, death = _scalar_crossings(env, cap, edges, i)
        assert death is not None and death < 64
        assert counts[i].tolist() == expect and not censored[i]


def test_killed_walk_returns_once_every_row_has_hit_minus_one(monkeypatch):
    # A left-transient pile hits -1 in every trial, so a cap of 10^9 steps
    # is never reached: the walk stops at the end of the chunk in which
    # its last row dies (step 185, in the second chunk), and every row
    # matches the scalar walk.  Rows that died walk on to that chunk's
    # end, so edge -1 shows they count no crossings after their death.
    # The engine widens its grid once per chunk; counting those calls
    # turns a walk that does not stop into a failure instead of a hang.
    widen = walk._widen
    chunks = []

    def counted(*args):
        chunks.append(len(chunks))
        assert len(chunks) < 100, "the killed walk did not stop"
        return widen(*args)

    monkeypatch.setattr(walk, "_widen", counted)
    env = make_periodic((0.45, 0.45))
    n, edges = 64, (-1, 0, 1)
    counts, censored = edge_crossings(env, n, 10**9, edges=edges, master_seed=S)
    assert not censored.any()
    deaths = []
    for i in range(n):
        expect, death = _scalar_crossings(env, 3_000, edges, i)
        assert death is not None
        assert counts[i].tolist() == expect
        deaths.append(death)
    assert min(deaths) < 64 < max(deaths) < 192
    assert len(chunks) == 2


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
