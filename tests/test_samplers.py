"""Monte Carlo step samplers cross-validated against the exact DP.

Every sampling route (dyadic block composition for periodic piles,
prefix + tail, the crossing chain's inverse-CDF table, and the
trial-by-trial reference) is held to the same
standard: its draw frequencies must match the DP law, judged by a
chi-square z-score with fixed seeds.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from erwlab import kks
from erwlab.environments import make_bounded, make_custom_tail, make_periodic, parse_env
from erwlab.kks import (
    _GUIDE_BITS,
    _GUIDE_SPAN,
    _KEY_ROWS,
    _SCALAR_ROWS,
    _TABLE_CAP,
    _U_BITS,
    _U_SCALE,
    _DyadicSampler,
    _InverseCdf,
    _cached_table,
    _chain_table,
    _samplers,
    asymptotic_mu,
    empirical_ladder,
    exact_U_distribution,
    sample_U,
    sample_U_many,
)
from erwlab.periodic import InternalConsistencyError
from erwlab.seeding import DEFAULT_SEED, TAG_GENERAL, TAG_LADDER, substream
from reference_routes import chain_table_rowwise, dyadic_vector_walk, sample_U_reference

S = DEFAULT_SEED


def _chi_square_z(env, x, draws):
    """z-score of the chi-square statistic of draws against the DP law.

    Buckets are support points with expected count >= 5; everything
    past the last such point is pooled into one tail bucket.
    """
    dist = exact_U_distribution(env, x, tail_eps=1e-13)
    n = len(draws)
    expect = dist.mass * n
    keep = np.flatnonzero(expect >= 5.0)
    hi = int(keep[-1])
    counts = np.bincount(
        np.clip(draws - dist.support_offset, 0, hi + 1), minlength=hi + 2
    ).astype(float)
    exp = np.append(expect[: hi + 1], n - expect[: hi + 1].sum())
    mask = exp >= 5.0
    chi2 = float(((counts[mask] - exp[mask]) ** 2 / exp[mask]).sum())
    dof = int(mask.sum()) - 1
    return (chi2 - dof) / np.sqrt(2.0 * dof)


# ---------------------------------------------------------------------
# agreement with the DP, route by route
# ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "pile,x",
    [((0.9, 0.1), x) for x in (1, 5, 20)]
    + [((0.99, 0.98), x) for x in (1, 5, 20, 600)]
    + [((0.996, 0.994), x) for x in (1, 5)],
    ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else str(v),
)
def test_periodic_sampler_frequencies_match_dp(pile, x):
    # Full-period products near 1 give long runs of whole-period wraps
    # per failure: 33 on average for (0.99, 0.98), 99 for (0.996, 0.994).
    env = make_periodic(pile)
    rng = substream(S, TAG_GENERAL, 10, x)
    draws = sample_U_many(env, x, 1_000_000, rng)
    assert abs(_chi_square_z(env, x, draws)) < 4.0


def test_dyadic_sampler_frequencies_match_dp():
    env = make_periodic((0.7, 0.3))
    x = 600
    rng = substream(S, TAG_GENERAL, 20)
    draws = sample_U_many(env, x, 200_000, rng)
    assert abs(_chi_square_z(env, x, draws)) < 4.0


def test_full_period_product_near_one_keeps_levels_narrow():
    # 1 - P is 3e-7: the wraps are one negative binomial per draw, and
    # the levels hold only the slot advance, below M per failure.
    env = make_periodic((0.9999999, 0.9999998))
    x = 1024
    rng = substream(S, TAG_GENERAL, 28)
    sampler = _DyadicSampler(env)
    draws = sampler.draw(np.full(1_000, x), rng)
    levels = sampler.levels
    assert all(lvl.width <= (1 << k) + 1 for k, lvl in enumerate(levels))
    assert draws.mean() / x == pytest.approx(asymptotic_mu(env), rel=5e-3)


def test_long_period_draws_repeat_the_top_level():
    env = make_periodic(tuple(np.linspace(0.2, 0.8, 170)))
    x = 200
    rng = substream(S, TAG_GENERAL, 29)
    sampler = _DyadicSampler(env)
    draws = sampler.draw(np.full(200_000, x), rng)
    # the level cap stops short of x, so the draws take whole top blocks
    assert len(sampler.levels) < x.bit_length()
    assert abs(_chi_square_z(env, x, draws)) < 4.0
    singles = np.array([sample_U(env, x, rng) for _ in range(20_000)])
    assert abs(_chi_square_z(env, x, singles)) < 4.0


def test_period_above_one_key_array_matches_dp():
    # 2049 start slots need two key arrays.  At x = 40 the slot walks
    # past 2048 (about 66 successes per failure), so draws search both.
    env = make_periodic((0.99, 0.98) * 1024 + (0.99,))
    x = 40
    rng = substream(S, TAG_GENERAL, 30)
    assert len(_DyadicSampler(env).levels[0].inv.keys) == 2
    draws = sample_U_many(env, x, 200_000, rng)
    assert abs(_chi_square_z(env, x, draws)) < 4.0
    singles = np.array([sample_U(env, x, rng) for _ in range(20_000)])
    assert abs(_chi_square_z(env, x, singles)) < 4.0


@pytest.mark.parametrize(
    "pile,x_max",
    [((0.9, 0.9, 0.1, 0.1), 3000), ((0.99, 0.98), 3000), ((0.99, 0.98) * 1024 + (0.99,), 40)],
    ids=["four-slot", "long-runs", "two-key-arrays"],
)
def test_scalar_level_walk_equals_the_vector_walk(pile, x_max, monkeypatch):
    # Small batches walk the levels on Python scalars; every batch size
    # up to twice that threshold gives the vector walk's draws bit for
    # bit.  The 2049-slot pile has two key arrays per level and no level
    # above 0, so its draws repeat the top level x times.
    sampler = _DyadicSampler(make_periodic(pile))
    vector_steps = []
    advance = sampler._advance

    def counted(k, *args):
        vector_steps.append(k)
        advance(k, *args)

    monkeypatch.setattr(sampler, "_advance", counted)
    picks = np.random.default_rng(len(pile))
    for n in range(1, 2 * _SCALAR_ROWS + 1):
        xs = picks.integers(1, x_max + 1, n)
        a, b = substream(S, TAG_GENERAL, 34, n), substream(S, TAG_GENERAL, 34, n)
        del vector_steps[:]
        assert sampler.draw(xs, a).tolist() == dyadic_vector_walk(sampler, xs, b).tolist()
        assert a.random() == b.random()  # both took the same draws
        assert bool(vector_steps) == (n > _SCALAR_ROWS)
    if len(pile) > 2048:
        assert len(sampler.levels) == 1 and len(sampler.levels[0].inv.keys) == 2
    for x in (1, 2, 7, 40, x_max):
        a, b = substream(S, TAG_GENERAL, 35, x), substream(S, TAG_GENERAL, 35, x)
        assert sampler.draw_one(x, a) == sampler.draw(np.array([x]), b)[0]
        assert a.random() == b.random()  # both took the same draws


def test_long_period_with_a_zero_cookie_matches_dp():
    # Past 64 slots, too, a run through the 0 cookie has chance exactly
    # 0, and building the slot-run law must not warn (warnings are errors).
    env = make_periodic((0.0,) + (0.6,) * 69)
    rng = substream(S, TAG_GENERAL, 33)
    assert sample_U_many(env, 5, 3, rng).shape == (3,)
    draws = sample_U_many(env, 5, 50_000, rng)
    assert abs(_chi_square_z(env, 5, draws)) < 4.0


# ---------------------------------------------------------------------
# packed inverse-CDF keys
# ---------------------------------------------------------------------

_CDF_ROWS = [
    np.array([0.25, 0.25, 0.5, 0.5, 1.0]),  # zero-mass entries
    np.array([0.1, 1.0 / 3.0, 1.0, 1.0, 1.0]),  # interior entries equal to 1
    np.array([1.0]),
    np.array([0.0, 0.0, 0.7, 1.0]),
    np.array([1e-300, 2.0**-53, 3 * 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0]),
    np.array([2.0**-60, 0.3, 0.3, np.nextafter(0.75, 0.0), 0.75, 1.0]),
    np.append(0.5 + 2.0**-13 * np.arange(8), 1.0),  # 8 keys in one guide bucket
]


def _uniforms_around(row):
    """Values rng.random() can return (j / 2^53) at and around each cdf
    entry: 0, 1 - 2^-53, every entry and the float below it, rounded
    down to the grid, and the grid point above every entry."""
    grid = 2.0**53
    u = np.concatenate(([0.0, 1.0 - 1.0 / grid], row, np.nextafter(row, 0.0)))
    u = np.concatenate((np.floor(u * grid), np.ceil(row * grid))) / grid
    return np.unique(u[u < 1.0])


@pytest.mark.parametrize("n_rows", [2048, 2053], ids=["one-key-array", "two-key-arrays"])
def test_packed_search_matches_row_searchsorted(n_rows):
    rows = [_CDF_ROWS[r % len(_CDF_ROWS)] for r in range(n_rows)]
    k0 = 5 * np.arange(n_rows) - 7000  # a nonzero offset per row
    sizes = np.array([len(r) for r in rows])
    # Rows 2047 and n_rows - 1 end their key arrays; single-entry rows
    # hold no key at all.
    checked = list(range(14)) + list(range(2036, n_rows))
    qr, qu, want = [], [], []
    for r in checked:
        u = _uniforms_around(rows[r])
        qr += [r] * len(u)
        qu += list(u)
        want += list(k0[r] + np.searchsorted(rows[r], u, side="right"))
    qr, qu = np.array(qr), np.array(qu)
    inv = _InverseCdf(np.concatenate(rows), sizes, k0)
    guides = inv.guides
    assert guides is not None
    for route in (None, guides):  # the plain search, then the guided one
        inv.guides = route
        assert len(inv.keys) == -(-n_rows // 2048)
        assert len(inv) == n_rows
        assert inv.draw(qr, qu).tolist() == want
        assert [inv.draw_one(r, u) for r, u in zip(qr, qu)] == want
        # Small batches take the same route as the whole batch.
        got = [inv.draw(qr[i : i + 128], qu[i : i + 128]) for i in range(0, len(qr), 128)]
        assert np.concatenate(got).tolist() == want
    # In the guided table, queries land both in buckets the guide serves
    # and in buckets that hold more than _GUIDE_SPAN keys, whose entry is -1.
    g = _U_BITS - inv.shift
    bucket = (qr % 2048 << g) + ((qu * 2.0**53).astype(np.int64) >> inv.shift)
    starts = np.array([inv.guides[c][b] for c, b in zip(qr >> 11, bucket)])
    assert np.any(starts < 0) and np.any(starts >= 0)
    # Row 6 holds 8 keys just above u = 1/2, all in one bucket.
    assert _GUIDE_SPAN < 8 and inv.guides[0][(6 << g) + (1 << g - 1)] == -1


def _guide_bound(inv):
    """The guide's stated size bound: max(256 bytes a row, 1/8 of the key bytes)."""
    return max(256 * len(inv), sum(k.nbytes for k in inv.keys) // 8)


def test_chain_table_guide_has_bounded_size():
    # The guide holds one int32 per bucket, within max(256 bytes a row,
    # 1/8 of the key bytes), and its build leaves no large temporary
    # behind.  The bounded pile's rows are wide enough for g = 7.
    for lit, g in (("periodic:0.9,0.9,0.1,0.1", 6), ("bounded:0.9,0.9", 7)):
        table = _chain_table(parse_env(lit), _TABLE_CAP)
        assert table.shift == _U_BITS - g
        nbytes = sum(a.nbytes for a in table.guides)
        assert nbytes == 4 * len(table) << g
        assert nbytes <= _guide_bound(table)
    keys = np.concatenate(table.keys)
    cdf = ((keys & np.uint64((1 << _U_BITS) - 1)).astype(float) / _U_SCALE)
    sizes = np.bincount((keys >> np.uint64(_U_BITS)).astype(np.int64), minlength=len(table))
    # With k0 = 0 the rebuilt table's base is minus its row starts.
    inv = _InverseCdf(cdf, sizes, 0)
    assert inv.shift == table.shift
    tracemalloc.start()
    guides = inv._guides(-inv.base)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert all(np.array_equal(a, b) for a, b in zip(guides, table.guides))
    assert peak <= nbytes + (256 << 10)


def _draws_like_searchsorted(inv, rng):
    """Draw every row of ``inv`` at random uniforms and at each key and
    the grid point below it, and compare with a search of the row's cdf."""
    assert len(inv.keys) == 1
    keys = inv.keys[0]
    row_of = (keys >> np.uint64(_U_BITS)).astype(np.int64)
    j = (keys & np.uint64((1 << _U_BITS) - 1)).astype(np.int64)
    rows = np.concatenate((rng.integers(0, len(inv), 50_000), row_of, row_of))
    u = np.concatenate((rng.random(50_000) * _U_SCALE, j, np.maximum(j - 1, 0))) / _U_SCALE
    want = np.empty(len(u), dtype=np.int64)
    for r in range(len(inv)):
        lo, hi = np.searchsorted(row_of, [r, r + 1])
        sel = rows == r
        want[sel] = inv.base[r] + lo + np.searchsorted(j[lo:hi] / _U_SCALE, u[sel], side="right")
    assert inv.draw(rows, u).tolist() == want.tolist()


def test_wide_level_sizes_its_guide_from_its_rows():
    # Level 15 of the four-slot pile holds about 2,200 keys a row, so its
    # guide has 2^9 buckets a row (about 4 keys each) and the table keeps it.
    sampler = _DyadicSampler(make_periodic((0.9, 0.9, 0.1, 0.1)))
    sampler.draw(np.array([1 << 15]), np.random.default_rng(0))
    inv = sampler.levels[15].inv
    g = _U_BITS - inv.shift
    assert g > _GUIDE_BITS and (4 << g) * len(inv) <= sum(map(len, inv.keys)) < (8 << g) * len(inv)
    assert inv.guides is not None
    assert sum(a.nbytes for a in inv.guides) <= _guide_bound(inv)
    far = np.concatenate(inv.guides) < 0
    assert 0.0 < far.mean() <= 0.25
    _draws_like_searchsorted(inv, np.random.default_rng(1))


def test_tiny_table_keeps_no_guide():
    # Level 0 of (0.9, 0.1) holds one key a row: its buckets lie within
    # _GUIDE_SPAN keys of the array's end, so the table keeps no guide and
    # even a large batch takes the plain search.
    sampler = _DyadicSampler(make_periodic((0.9, 0.1)))
    inv = sampler.levels[0].inv
    assert sum(map(len, inv.keys)) == len(inv) == 2
    assert inv.shift == _U_BITS - _GUIDE_BITS
    assert inv.guides is None
    _draws_like_searchsorted(inv, np.random.default_rng(2))
    # Many rows of one key each leave few buckets near the end: guided.
    assert _InverseCdf(np.tile([0.5, 1.0], 64), np.full(64, 2), 0).guides is not None


@pytest.mark.parametrize(
    "env",
    [make_periodic((0.9, 0.1)), make_bounded((0.9, 0.9))],
    ids=["periodic", "bounded"],
)
def test_table_draws_match_dp(env):
    # The lockstep chain serves every z up to the cap from this table.
    table = _cached_table(env, _TABLE_CAP)
    for x in (1, 7, 500, _TABLE_CAP):
        rng = substream(S, TAG_GENERAL, 31, x)
        draws = table.draw(np.full(200_000, x - 1), rng.random(200_000))
        assert abs(_chi_square_z(env, x, draws)) < 4.0
        singles = np.array([table.draw_one(x - 1, u) for u in rng.random(20_000)])
        assert abs(_chi_square_z(env, x, singles)) < 4.0


def _table_row_law(table, x):
    """Support offset and pmf of table row x, read back from its keys."""
    r = x - 1
    keys = table.keys[r // _KEY_ROWS]
    row = keys[(keys >> np.uint64(_U_BITS)) == r % _KEY_ROWS]
    start = int(keys.searchsorted(np.uint64((r % _KEY_ROWS) << _U_BITS)))  # row r's first key
    cdf = (row & np.uint64((1 << _U_BITS) - 1)).astype(float) / _U_SCALE
    return int(table.base[r]) + start, np.diff(np.concatenate(([0.0], cdf, [1.0])))


@pytest.mark.parametrize(
    "env,cap",
    [(make_periodic((0.9, 0.1)), _TABLE_CAP), (make_bounded((0.9, 0.9)), _TABLE_CAP),
     (make_periodic((0.99, 0.98)), 274)],
    ids=["periodic", "bounded", "long-runs"],
)
def test_table_rows_match_the_oracle(env, cap):
    # U(274) on (0.99, 0.98) averages about 18,000 successes, so this case
    # checks that rows have no width limit.  (The chain itself draws this
    # supercritical pile from its exact samplers, with no table.)
    table = _chain_table(env, cap)
    for x in (x for x in (1, 7, 500, cap) if x <= cap):
        k0, pmf = _table_row_law(table, x)
        exact = exact_U_distribution(env, x, tail_eps=1e-14)
        n = max(k0 + len(pmf), len(exact.mass))
        a = np.zeros(n)
        a[k0 : k0 + len(pmf)] = pmf
        b = np.zeros(n)
        b[: len(exact.mass)] = exact.mass
        tv = 0.5 * float(np.abs(a - b).sum()) + exact.tail_bound
        assert tv <= 1e-11, (x, tv)


@pytest.mark.parametrize("cap", [1, 17, 300, _TABLE_CAP])
@pytest.mark.parametrize(
    "lit",
    ["periodic:0.9,0.9,0.1,0.1", "periodic:0.9,0.1", "bounded:0.9,0.9", "tail:0.9,0.2@0.4",
     "periodic:1.0,0.2"],
)
def test_chain_table_matches_the_row_by_row_build(lit, cap):
    # Blocks of rows trim and accumulate each row bit for bit as a cumsum
    # of that row alone would; caps 1 and 17 sit below one block, and 300
    # and 2048 end on a partial one.  (1.0, 0.2) has sure steps.
    table = _chain_table(parse_env(lit), cap)
    ref = chain_table_rowwise(parse_env(lit), cap)
    assert [k.tobytes() for k in table.keys] == [k.tobytes() for k in ref.keys]
    assert table.base.tobytes() == ref.base.tobytes()
    assert table.shift == ref.shift
    assert (table.guides is None) == (ref.guides is None)
    if ref.guides is not None:
        assert [g.tobytes() for g in table.guides] == [g.tobytes() for g in ref.guides]


@pytest.mark.parametrize("lit", ["periodic:0.9,0.9,0.1,0.1", "bounded:0.9,0.9"])
def test_chain_table_build_peaks_near_the_table_it_keeps(lit):
    # The build holds one float64 per windowed (row, trial) pair and a
    # block of rows at a time, and the keys overwrite that buffer, so its
    # peak stays within 1 MiB of what the table keeps.
    env = parse_env(lit)
    tracemalloc.start()
    table = _chain_table(env, _TABLE_CAP)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    kept = sum(a.nbytes for a in table.keys + table.guides) + table.base.nbytes
    assert peak <= kept + (1 << 20), (peak, kept)


def test_table_build_past_its_trial_cap_is_an_internal_error(monkeypatch):
    # The table picks its own tail, so running out of trials is a fault of
    # the program, not an oracle horizon the user can widen.
    monkeypatch.setattr(kks, "_horizon_cap", lambda env, x: 40)
    with pytest.raises(InternalConsistencyError):
        _chain_table(make_periodic((0.9, 0.1)), 64)


def test_reference_sampler_frequencies_match_dp():
    env = make_periodic((0.9, 0.1))
    x = 6
    rng = substream(S, TAG_GENERAL, 22)
    draws = np.array([sample_U_reference(env, x, rng) for _ in range(30_000)])
    assert abs(_chi_square_z(env, x, draws)) < 4.0


def test_prefix_tail_route_frequencies_match_dp():
    env = make_custom_tail((0.9, 0.2), 0.4)
    x = 15
    rng = substream(S, TAG_GENERAL, 23)
    draws = sample_U_many(env, x, 200_000, rng)
    assert abs(_chi_square_z(env, x, draws)) < 4.0


@pytest.mark.parametrize("x", [1, 7, 40])
def test_prefix_then_cycle_draws_match_dp(x):
    # The prefix stage hands the failures still needed to the cycle's
    # dyadic route, started at cycle slot 0.
    env = parse_env("tail:0.7,0.3,0.95@0.8,0.3,0.4,0.5")
    rng = substream(S, TAG_GENERAL, 31, x)
    assert abs(_chi_square_z(env, x, sample_U_many(env, x, 200_000, rng))) < 4.0
    singles = np.array([sample_U(env, x, rng) for _ in range(10_000)])
    assert abs(_chi_square_z(env, x, singles)) < 4.0


def test_one_sampler_cache_entry_per_pile():
    # A prefix pile keeps its cycle's route in its own entry, and a pile
    # without a prefix is served by its cycle's route directly.
    _samplers.cache_clear()
    sample_U_many(parse_env("tail:0.9,0.9@0.9,0.1"), 300, 10, substream(S, TAG_GENERAL, 32))
    assert _samplers.cache_info().currsize == 1
    many = _samplers(make_periodic((0.9, 0.1)))[1]
    assert many.__func__ is _DyadicSampler.draw


def test_heterogeneous_targets_share_one_call():
    env = make_bounded((0.9, 0.9))
    rng = substream(S, TAG_GENERAL, 24)
    xs = np.array([3, 40, 7, 40, 3] * 20_000, dtype=np.int64)
    draws = _samplers(env)[1](xs, rng)
    for x in (3, 7, 40):
        sel = draws[xs == x]
        d = exact_U_distribution(env, int(x), tail_eps=1e-13)
        assert sel.mean() == pytest.approx(d.mean(), abs=5 * d.mass.std() + 0.1)
    # mean of U(x) is x + 1.6 for this pile
    assert draws[xs == 40].mean() == pytest.approx(41.6, abs=0.15)


def test_scalar_and_vector_entry_points_share_the_law():
    env = make_periodic((0.6, 0.45, 0.45))
    rng = substream(S, TAG_GENERAL, 25)
    singles = np.array([sample_U(env, 9, rng) for _ in range(30_000)])
    assert abs(_chi_square_z(env, 9, singles)) < 4.0


def test_scalar_dyadic_draws_match_dp():
    env = make_periodic((0.7, 0.3))
    x = 600
    rng = substream(S, TAG_GENERAL, 26)
    singles = np.array([sample_U(env, x, rng) for _ in range(20_000)])
    assert abs(_chi_square_z(env, x, singles)) < 4.0


def test_dyadic_variance_growth_tracks_diffusion_constant():
    env = make_periodic((0.9, 0.1))
    x = 10_000
    rng = substream(S, TAG_GENERAL, 27)
    draws = sample_U_many(env, x, 200_000, rng)
    assert draws.mean() / x == pytest.approx(1.0, abs=3e-3)
    assert draws.var() / x == pytest.approx(0.72, rel=0.03)


def test_draws_concentrate_at_the_drift_rate():
    env = make_periodic((0.9, 0.1))
    x = 4096
    rng = substream(S, TAG_GENERAL, 11)
    draws = sample_U_many(env, x, 100_000, rng)
    mu = asymptotic_mu(env)
    freq = float(np.mean(np.abs(draws / x - mu) > 0.2))
    assert freq < 1e-4


@pytest.mark.parametrize(
    "env",
    [
        make_periodic((0.7, 0.7)),
        make_periodic((0.9, 0.1)),
        make_custom_tail((0.9, 0.2), 0.4),
        parse_env("tail:0.9,0.9@0.9,0.1"),
    ],
    ids=["constant", "periodic", "prefix-tail", "prefix-cycle"],
)
def test_empty_batch_is_an_empty_array(env):
    rng = substream(S, TAG_GENERAL, 29)
    for x in (1, 7, 300):
        draws = sample_U_many(env, x, 0, rng)
        assert draws.dtype == np.int64 and draws.shape == (0,)
    assert rng.random() == substream(S, TAG_GENERAL, 29).random()


def test_zero_target_draws_are_all_one():
    env = make_periodic((0.9, 0.1))
    rng = substream(S, TAG_GENERAL, 28)
    assert np.all(sample_U_many(env, 0, 100, rng) == 1)
    assert sample_U(env, 0, rng) == 1


# ---------------------------------------------------------------------
# ladder estimates
# ---------------------------------------------------------------------


def test_ladder_recovers_critical_drift_and_theta():
    env = make_periodic((0.9, 0.1))
    rng = substream(S, TAG_LADDER, 1)
    stats = empirical_ladder(env, (100, 400, 1600), 1_000_000, rng)
    for e in stats.entries:
        assert abs(e.rho_hat - 0.08) < 3.0 * e.se_rho
        assert abs(e.nu_hat - 0.72) < 3.0 * e.se_nu
    last = stats.entries[-1]
    assert abs(last.theta_hat - 2.0 / 9.0) < 4.0 * last.se_theta


def test_ladder_on_fair_pile_centers_at_zero():
    env = make_periodic((0.5, 0.5))
    rng = substream(S, TAG_LADDER, 2)
    stats = empirical_ladder(env, (50, 200), 200_000, rng)
    for e in stats.entries:
        assert abs(e.rho_hat) < 3.0 * e.se_rho
        assert abs(e.theta_hat) < 3.0 * e.se_theta
        assert e.nu_hat == pytest.approx(2.0, rel=0.05)


def test_ladder_on_bounded_pile_sees_total_drift():
    env = make_bounded((0.9, 0.9, 0.9))
    rng = substream(S, TAG_LADDER, 3)
    stats = empirical_ladder(env, (1000,), 100_000, rng)
    e = stats.entries[0]
    assert abs(e.rho_hat - 2.4) < 3.0 * e.se_rho


def test_ladder_round_trips_through_rows():
    env = make_periodic((0.7, 0.3))
    rng = substream(S, TAG_LADDER, 4)
    stats = empirical_ladder(env, (20, 80), 5_000, rng)
    from erwlab.kks import LadderStats

    again = LadderStats.from_rows(stats.to_rows())
    assert again == stats


def test_ladder_input_validation():
    env = make_periodic((0.9, 0.1))
    rng = substream(S, TAG_LADDER, 5)
    with pytest.raises(ValueError):
        empirical_ladder(env, (100, 100), 1_000, rng)
    with pytest.raises(ValueError):
        empirical_ladder(env, (0, 10), 1_000, rng)
    with pytest.raises(ValueError):
        empirical_ladder(env, (10, 20), 99, rng)


def test_ladder_needs_an_x_value():
    env = make_periodic((0.9, 0.1))
    with pytest.raises(ValueError, match="at least one x"):
        empirical_ladder(env, (), 1_000, substream(S, TAG_LADDER, 5))
