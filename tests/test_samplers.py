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
    _SCALAR_ROWS,
    _TABLE_CAP,
    _U_BITS,
    _U_SCALE,
    _DyadicSampler,
    _InverseCdf,
    _LogLevel,
    _cached_table,
    _chain_table,
    _samplers,
    asymptotic_mu,
    empirical_ladder,
    exact_U_distribution,
    sample_U,
    sample_U_many,
)
from erwlab.periodic import InternalConsistencyError, slot_runs
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


def test_full_period_product_near_one_keeps_levels_narrow(monkeypatch):
    # 1 - P is 3e-7: the wraps are one negative binomial per draw, and
    # the levels hold only the slot advance, below M per failure.  A
    # level's width is read as it is built, off the pmf it keeps.
    widths = []
    finish = _DyadicSampler._finish

    def recorded(self, k0, rows):
        inv = finish(self, k0, rows)
        widths.append(self.pmf[1].shape[1])
        return inv

    monkeypatch.setattr(_DyadicSampler, "_finish", recorded)
    env = make_periodic((0.9999999, 0.9999998))
    x = 1024
    rng = substream(S, TAG_GENERAL, 28)
    sampler = _DyadicSampler(env)
    draws = sampler.draw(np.full(1_000, x), rng)
    assert len(widths) == len(sampler.levels) == x.bit_length()
    assert all(w <= (1 << k) + 1 for k, w in enumerate(widths))
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
    # 2049 start slots are more than one key array addresses, so level 0
    # is the log-space search.  At x = 40 the slot walks past 2048 (about
    # 66 successes per failure), so draws start from every part of it.
    env = make_periodic((0.99, 0.98) * 1024 + (0.99,))
    x = 40
    rng = substream(S, TAG_GENERAL, 30)
    assert isinstance(_DyadicSampler(env).levels[0], _LogLevel)
    draws = sample_U_many(env, x, 200_000, rng)
    assert abs(_chi_square_z(env, x, draws)) < 4.0
    singles = np.array([sample_U(env, x, rng) for _ in range(20_000)])
    assert abs(_chi_square_z(env, x, singles)) < 4.0


def _traced_draw(env, x):
    """A dyadic sampler that has drawn a batch at x, and the memory
    tracemalloc still traces for it afterwards."""
    tracemalloc.start()
    try:
        sampler = _DyadicSampler(env)
        sampler.draw(np.full(2 * _SCALAR_ROWS, x), np.random.default_rng(0))
        return sampler, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def _table_bytes(sampler):
    """The keys and guides of every level."""
    return sum(inv.keys.nbytes + (0 if inv.guides is None else inv.guides.nbytes)
               for inv in sampler.levels)


@pytest.mark.parametrize("lit", ["periodic:0.9,0.9,0.1,0.1", "periodic:0.9,0.1"])
def test_built_levels_keep_their_tables_and_one_top_pmf(lit):
    # Lower levels keep only their lookup tables; the top level's pmf
    # stays for the next square.  The slack covers the row offsets, the
    # dropped cdf entries under the keys and the first FFT's imports.
    sampler, retained = _traced_draw(parse_env(lit), 1 << 20)
    assert len(sampler.levels) == 21
    assert retained <= _table_bytes(sampler) + sampler.pmf[1].nbytes + (256 << 10)


def test_refused_square_frees_the_pmf(monkeypatch):
    # On the 2049-slot pile M^2 alone exceeds the bin cap, so no square is
    # ever built and level 0 only serves lookups: the log-space search
    # keeps two periods of run costs, no keys and no pmf, and the build
    # makes neither a table nor the M x M slot-run law (a table kept 36 MiB
    # after a 128 MiB peak).
    def refused(*args):
        raise AssertionError("a period above 2048 slots builds no table")

    monkeypatch.setattr(kks, "slot_runs", refused)
    monkeypatch.setattr(kks, "_InverseCdf", refused)
    env = make_periodic((0.99, 0.98) * 1024 + (0.99,))
    tracemalloc.start()
    try:
        _DyadicSampler(env)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sampler, retained = _traced_draw(env, 40)
    assert sampler.pmf is None and len(sampler.levels) == 1
    assert not hasattr(sampler.levels[0], "keys")
    assert not sampler._extend()
    assert retained <= 256 << 10 and peak <= 1 << 20, (retained, peak)


@pytest.mark.parametrize(
    "pile,x_max",
    [((0.9, 0.9, 0.1, 0.1), 3000), ((0.99, 0.98), 3000), ((0.99, 0.98) * 1024 + (0.99,), 40)],
    ids=["four-slot", "long-runs", "two-key-arrays"],
)
def test_scalar_level_walk_equals_the_vector_walk(pile, x_max, monkeypatch):
    # Small batches walk the levels on Python scalars; every batch size
    # up to twice that threshold gives the vector walk's draws bit for
    # bit.  The 2049-slot pile has only level 0, a log-space search, so
    # its draws repeat it x times.
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
        assert len(sampler.levels) == 1 and isinstance(sampler.levels[0], _LogLevel)
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
    # Past 2048 slots level 0 is the log-space search: a 0 cookie's cost
    # is capped without a log(0) warning and stops every run, and a 1
    # cookie's cost is 0, so no run stops on it.
    for i, pile in enumerate([(0.0,) + (0.6,) * 2100, (1.0, 0.3) + (0.6,) * 2100]):
        env = make_periodic(pile)
        assert isinstance(_DyadicSampler(env).levels[0], _LogLevel)
        for x in (5, 40):
            rng = substream(S, TAG_GENERAL, 37, i, x)
            draws = sample_U_many(env, x, 50_000, rng)
            assert abs(_chi_square_z(env, x, draws)) < 4.0
            singles = np.array([sample_U(env, x, rng) for _ in range(20_000)])
            assert abs(_chi_square_z(env, x, singles)) < 4.0


def test_log_space_level_rows_match_the_slot_run_law():
    # Row r's advance is at most d for the uniforms below
    # (1 - exp(-(t[r + d + 1] - t[r]))) / fail, which gives its law.  The
    # rounding bound of ``_DyadicSampler`` allows 4e-9 in total variation
    # on this pile; every row is held within 1e-12 of the normalized
    # ``slot_runs`` row (8e-14 measured), and fail has that route's bits.
    pile = (0.99, 0.98) * 1024 + (0.99,)
    level = _DyadicSampler(make_periodic(pile)).levels[0]
    runs, fail = slot_runs(pile)
    assert level.fail == fail
    m = len(pile)
    rng = np.random.default_rng(4)
    for r in range(m):
        cdf = -np.expm1(-(level.t[r + 1 : r + m + 1] - level.t[r])) / fail
        pmf = np.diff(cdf, prepend=0.0)
        tv = 0.5 * (float(np.abs(pmf - runs[r] / runs[r].sum()).sum()) + abs(1.0 - cdf[-1]))
        assert tv <= 1e-12, (r, tv)
        if r % 64 == 0:
            # The draws follow those boundaries, in the batch and one by one.
            u = rng.random(200)
            want = cdf.searchsorted(u, side="right")
            assert level.draw(np.full(200, r), u).tolist() == want.tolist()
            assert [level.draw_one(r, v) for v in u.tolist()] == want.tolist()


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


@pytest.mark.parametrize("n_rows", [29, 2048], ids=["few-rows", "one-key-array"])
def test_packed_search_matches_row_searchsorted(n_rows):
    rows = [_CDF_ROWS[r % len(_CDF_ROWS)] for r in range(n_rows)]
    k0 = 5 * np.arange(n_rows) - 7000  # a nonzero offset per row
    sizes = np.array([len(r) for r in rows])
    # Row n_rows - 1 ends the key array (row 2047 the largest one); 29
    # rows end in a part block of 16; single-entry rows hold no key at all.
    checked = sorted(set(range(14)) | set(range(max(n_rows - 12, 0), n_rows)))
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
        assert len(inv) == n_rows
        assert inv.draw(qr, qu).tolist() == want
        assert [inv.draw_one(r, u) for r, u in zip(qr, qu)] == want
        # Small batches take the same route as the whole batch.
        got = [inv.draw(qr[i : i + 128], qu[i : i + 128]) for i in range(0, len(qr), 128)]
        assert np.concatenate(got).tolist() == want
    # In the guided table, queries land both in buckets the guide serves
    # and in buckets that hold more than _GUIDE_SPAN keys, whose entry is -1.
    g = _U_BITS - inv.shift
    bucket = (qr << g) + ((qu * 2.0**53).astype(np.int64) >> inv.shift)
    starts = inv.guides[bucket]
    assert np.any(starts < 0) and np.any(starts >= 0)
    # Row 6 holds 8 keys just above u = 1/2, all in one bucket.
    assert _GUIDE_SPAN < 8 and inv.guides[(6 << g) + (1 << g - 1)] == -1


def test_table_above_one_key_array_is_refused():
    # Row keys hold 11 bits, so a 2049th row would wrap onto row 0.
    with pytest.raises(ValueError):
        _InverseCdf(np.ones(2049), np.ones(2049, dtype=np.int64), 0)


def _guide_bound(inv):
    """The guide's stated size bound: max(256 bytes a row, 1/6 of the key bytes)."""
    return max(256 * len(inv), inv.keys.nbytes // 6)


def test_chain_table_guide_has_bounded_size():
    # The guide holds one int32 per bucket, within max(256 bytes a row,
    # 1/6 of the key bytes), and its build leaves no large temporary
    # behind.  Both piles' rows are wide enough for g = 7.
    for lit, g in (("periodic:0.9,0.9,0.1,0.1", 7), ("bounded:0.9,0.9", 7)):
        table = _chain_table(parse_env(lit), _TABLE_CAP)
        assert table.shift == _U_BITS - g
        nbytes = table.guides.nbytes
        assert nbytes == 4 * len(table) << g
        assert nbytes <= _guide_bound(table)
    keys = table.keys
    cdf = ((keys & np.uint64((1 << _U_BITS) - 1)).astype(float) / _U_SCALE)
    sizes = np.bincount((keys >> np.uint64(_U_BITS)).astype(np.int64), minlength=len(table))
    # With k0 = 0 the rebuilt table's base is minus its row starts.
    inv = _InverseCdf(cdf, sizes, 0)
    assert inv.shift == table.shift
    tracemalloc.start()
    guides = inv._guides(-inv.base)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert np.array_equal(guides, table.guides)
    assert peak <= nbytes + (256 << 10)


def _draws_like_searchsorted(inv, rng):
    """Draw every row of ``inv`` at random uniforms and at each key and
    the grid point below it, and compare with a search of the row's cdf."""
    keys = inv.keys
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


def _wide_level():
    sampler = _DyadicSampler(make_periodic((0.9, 0.9, 0.1, 0.1)))
    sampler.draw(np.array([1 << 15]), np.random.default_rng(0))
    return sampler.levels[15]


def test_wide_level_sizes_its_guide_from_its_rows():
    # Level 15 of the four-slot pile holds about 2,200 keys a row, so its
    # guide has 2^9 buckets a row (about 4 keys each) and the table keeps it.
    inv = _wide_level()
    g = _U_BITS - inv.shift
    assert g == 9
    n_keys = len(inv.keys)
    assert (_GUIDE_SPAN << g) * len(inv) <= n_keys < (2 * _GUIDE_SPAN << g) * len(inv)
    assert inv.guides is not None
    assert inv.guides.nbytes <= _guide_bound(inv)
    far = inv.guides < 0
    assert 0.0 < far.mean() <= 0.25
    _draws_like_searchsorted(inv, np.random.default_rng(1))


def test_tiny_table_keeps_no_guide():
    # Level 0 of (0.9, 0.1) holds one key a row: its buckets lie within
    # _GUIDE_SPAN keys of the array's end, so the table keeps no guide and
    # even a large batch takes the plain search.
    sampler = _DyadicSampler(make_periodic((0.9, 0.1)))
    inv = sampler.levels[0]
    assert len(inv.keys) == len(inv) == 2
    assert inv.shift == _U_BITS - _GUIDE_BITS
    assert inv.guides is None
    _draws_like_searchsorted(inv, np.random.default_rng(2))
    # Many rows of one key each leave few buckets near the end: guided.
    assert _InverseCdf(np.tile([0.5, 1.0], 64), np.full(64, 2), 0).guides is not None


@pytest.mark.parametrize(
    "build",
    [lambda: _cached_table(make_periodic((0.9, 0.1)), _TABLE_CAP), _wide_level],
    ids=["chain-table", "wide-level"],
)
def test_guided_search_equals_plain_searchsorted(build):
    # The guided count gives searchsorted's position exactly: at every key,
    # one below and one above it, at each row's ends, and at random points,
    # in buckets the guide serves and in far buckets (-1), which take the
    # plain search.
    inv = build()
    assert inv.guides is not None
    rng = np.random.default_rng(3)
    one = np.uint64(1)
    keys = inv.keys
    rows = np.arange(len(inv), dtype=np.uint64)
    ends = np.concatenate((rows << _U_BITS, (rows << _U_BITS) | np.uint64(2**_U_BITS - 1)))
    j = rng.integers(0, 2**_U_BITS, 50_000, dtype=np.uint64)
    random = (rng.choice(rows, 50_000) << _U_BITS) | j
    q = np.concatenate((keys, keys - one, keys + one, ends, random))
    q = q[q >> np.uint64(_U_BITS) < len(rows)]  # a step off the ends may leave the rows
    starts = inv.guides[(q >> np.uint64(inv.shift)).astype(np.int64)]
    assert np.any(starts < 0) and np.any(starts >= 0)
    assert inv._search(q).tolist() == keys.searchsorted(q, side="right").tolist()


@pytest.mark.parametrize(
    "build",
    [lambda: _cached_table(make_periodic((0.9, 0.1)), _TABLE_CAP),
     lambda: _DyadicSampler(make_periodic((0.9, 0.1))).levels[0],
     lambda: _DyadicSampler(make_periodic((0.99, 0.98) * 1024 + (0.99,))).levels[0]],
    ids=["guided", "unguided", "log-space"],
)
def test_zero_row_draw_is_an_empty_int64_array(build):
    got = build().draw(np.zeros(0, dtype=np.int64), np.zeros(0))
    assert got.dtype == np.int64 and got.shape == (0,)


def test_fixed_x_batch_makes_one_lookup_per_block_and_set_bit(monkeypatch):
    # x = 10^6 walks one top block (level 19) and the 6 set bits below it;
    # the 13 levels without a set bit draw nothing and make no lookup.
    x = 10**6
    sampler = _DyadicSampler(make_periodic((0.9, 0.9, 0.1, 0.1)))
    top = sampler._top(x)
    lookups = []
    draw = _InverseCdf.draw

    def counted(self, rows, u):
        lookups.append(len(rows))
        return draw(self, rows, u)

    monkeypatch.setattr(_InverseCdf, "draw", counted)
    xs = np.full(4 * _SCALAR_ROWS, x)
    a, b = substream(S, TAG_GENERAL, 36), substream(S, TAG_GENERAL, 36)
    got = sampler.draw(xs, a)
    assert len(lookups) == (x >> top) + bin(x % (1 << top)).count("1") == 7
    assert set(lookups) == {len(xs)}
    assert got.tolist() == dyadic_vector_walk(sampler, xs, b).tolist()
    assert a.random() == b.random()  # both took the same draws


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
    keys = table.keys
    row = keys[(keys >> np.uint64(_U_BITS)) == r]
    start = int(keys.searchsorted(np.uint64(r << _U_BITS)))  # row r's first key
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
    # The two-sweep build, trimming each row in place in the row-major
    # buffer, gives the keys of gathering each row from one sweep's
    # chances; caps 1 and 17 keep the window small.  (1.0, 0.2) has sure
    # steps.
    table = _chain_table(parse_env(lit), cap)
    ref = chain_table_rowwise(parse_env(lit), cap)
    assert table.keys.tobytes() == ref.keys.tobytes()
    assert table.base.tobytes() == ref.base.tobytes()
    assert table.shift == ref.shift
    assert (table.guides is None) == (ref.guides is None)
    if ref.guides is not None:
        assert table.guides.tobytes() == ref.guides.tobytes()


@pytest.mark.parametrize("lit", ["periodic:0.9,0.9,0.1,0.1", "bounded:0.9,0.9"])
def test_chain_table_build_peaks_near_the_table_it_keeps(lit):
    # The build holds one float64 per windowed (row, trial) pair and one
    # row's temporaries, and the keys overwrite that buffer, so its peak
    # stays within 512 KiB of what the table keeps (330 and 445 KiB above
    # it when measured).
    env = parse_env(lit)
    tracemalloc.start()
    table = _chain_table(env, _TABLE_CAP)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    kept = table.keys.nbytes + table.guides.nbytes + table.base.nbytes
    assert peak <= kept + (512 << 10), (peak, kept)


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
    with pytest.raises(ValueError, match="nonnegative"):
        sample_U_many(env, -1, 100, rng)
    with pytest.raises(ValueError, match="nonnegative"):
        sample_U(env, -1, rng)


@pytest.mark.parametrize("lit", ["periodic:0.7", "periodic:0.9,0.1", "bounded:0.9,0.9"],
                         ids=["constant", "dyadic", "prefix"])
def test_non_integral_x_is_rejected(lit):
    # Both entry points refuse x = 5.5 rather than read it two ways (a
    # negative binomial with n = 5.5, or U(5)); numpy integers still pass.
    env = parse_env(lit)
    rng = substream(S, TAG_GENERAL, 36)
    for x in (5.5, 5.0, np.float64(5.0)):
        with pytest.raises(TypeError):
            sample_U(env, x, rng)
        with pytest.raises(TypeError):
            sample_U_many(env, x, 10, rng)
    a, b = substream(S, TAG_GENERAL, 37), substream(S, TAG_GENERAL, 37)
    assert sample_U(env, np.int64(5), a) == sample_U(env, 5, b)
    assert sample_U_many(env, np.int32(5), 10, a).tolist() == sample_U_many(env, 5, 10, b).tolist()


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
    # Every draw of U(10) on (1.0, 0.0) equals mu x: the pile has no
    # spread to estimate, which is bad input, not a fault of the program.
    with pytest.raises(ValueError, match="x=10"):
        empirical_ladder(make_periodic((1.0, 0.0)), (10,), 100, rng)


def test_ladder_needs_an_x_value():
    env = make_periodic((0.9, 0.1))
    with pytest.raises(ValueError, match="at least one x"):
        empirical_ladder(env, (), 1_000, substream(S, TAG_LADDER, 5))
