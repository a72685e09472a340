"""Step distribution and crossing chains of the cookie walk.

The number of right crossings of consecutive edges, watched at the
successive failure times of the cookie Bernoulli sequence, is a Markov
chain whose step distribution U(x) counts successes before the x-th
failure when cookies are consumed in pile order.  This module provides

* an exact dynamic-programming oracle for the law of U(x), whose
  failure-count recursion also builds the chain's inverse-CDF table,
* fast exact samplers: the cycle's own route (a negative binomial for a
  constant cycle, dyadic block composition otherwise), after one stage
  of shared Bernoulli trials for a prefix; the dyadic levels and the
  chain's table draw through ``_InverseCdf``, one packed integer key
  array searched a whole batch at a time (through a guide where few of
  its buckets are crowded) and bisected on Python ints for one draw; a
  period above 2048 slots draws its one level by a search of its run
  costs in log space,
* ensembles of the chain on ``bpm.absorb``, the absorbing-chain engine
  shared with the population (one run is an ensemble of one trial),
* Monte Carlo ladders of drift/diffusion estimates over growing x.

Conventions: U(0) = 1, and the simulated chain treats 0 as absorbing so
that survival means directional transience of the walk.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .bpm import ZEnsembleResult, absorb, escape_threshold
from .environments import CookieEnvironment
from .periodic import InternalConsistencyError, asymptotic_mu, slot_runs
from .seeding import TAG_ZSIM, default_seed, substream

# Mass below this per-row threshold is trimmed from sampler tables; the
# exact oracle is the precision route and never trims this way.
_ROW_TAIL = 1e-15
# The oracle's window floor: only exact zeros lie below it.
_LEAST_SUBNORMAL = 5e-324


def _require_nondegenerate(env: CookieEnvironment) -> None:
    if not env.predicates().non_degenerate:
        raise ValueError("degenerate environment: U(x) is not finite almost surely")


def _constant_value(env: CookieEnvironment) -> Optional[float]:
    """Cookie value if the pile is a single repeated constant."""
    first = env.cycle[0]
    return first if not env.prefix and all(p == first for p in env.cycle) else None


# ---------------------------------------------------------------------
# exact oracle
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class UDistribution:
    """Truncated exact law of U(x).

    ``mass[i]`` is the probability of ``support_offset + i`` successes;
    ``tail_bound`` bounds the un-enumerated probability mass.
    """

    x: int
    support_offset: int
    mass: np.ndarray
    tail_bound: float

    def support(self) -> np.ndarray:
        return np.arange(self.support_offset, self.support_offset + len(self.mass))

    def mean(self) -> float:
        return float(self.support() @ self.mass)

    def second_moment_about(self, center: float) -> float:
        d = self.support() - center
        return float((d * d) @ self.mass)

    def total_mass(self) -> float:
        return float(math.fsum(self.mass.tolist()))


class OracleHorizonError(RuntimeError):
    """Requested tail accuracy unreachable within the trial cap."""


def _horizon_cap(env: CookieEnvironment, x: int) -> int:
    mu = asymptotic_mu(env)
    return int(64 * (x + len(env.prefix) + env.period) * (1.0 + min(mu, 64.0)))


def _failure_counts(env: CookieEnvironment, size: int, floor: float,
                    tail_eps: float) -> Iterator[tuple[int, np.ndarray]]:
    """Free (absorption-free) failure-count recursion over the pile's trials.

    ``live[f]`` is the chance that the trials so far hold f failures, for
    f < ``size``; mass reaching ``size`` failures leaves.  ``live`` is kept
    on a window [lo, hi) whose ends never move back: lo steps past entries
    below ``floor``, and hi opens the next count once the chance flowing
    into it reaches ``floor``.  Trial n, with failure
    chance q_n, yields ``(lo, chances)``: failure lo + i + 1 lands on it
    with chance ``chances[i] = q_n * live[lo + i]``.  The sweep stops once
    the window holds less than ``tail_eps``, read every 32 trials.  Its
    three uses: the oracle, and the chain table's two sweeps (windows,
    then chances), which yield the same trials.
    """
    cap = _horizon_cap(env, size)
    live = np.zeros(size)
    live[0] = 1.0
    lo, hi = 0, 1
    cookies = itertools.chain(env.prefix, itertools.cycle(env.cycle))
    # Termination reads the live window directly; a running "absorbed"
    # total cannot be trusted to cross 1 - tail_eps because its own
    # rounding error is of the same order.
    for n, c in zip(range(1, cap + 1), cookies):
        window = live[lo:hi]
        chances = (1.0 - c) * window
        yield lo, chances
        window *= c
        if hi < size and chances[-1] >= floor:
            hi += 1
        live[lo + 1 : hi] += chances[: hi - lo - 1]
        while live[lo] < floor and lo < hi - 1:
            lo += 1
        if n % 32 == 0 and float(live[lo:hi].sum()) < tail_eps:
            return
    raise OracleHorizonError(f"tail {tail_eps:g} not reached within {cap} trials")


def exact_U_distribution(
    env: CookieEnvironment, x: int, tail_eps: float = 1e-12
) -> UDistribution:
    """Exact law of U(x) by forward dynamic programming.

    Trial n consumes cookie n of the pile.  The x-th failure landing on
    trial n gives the success count n - x; ``_failure_counts`` runs
    until the mass still short of x failures drops below ``tail_eps``.
    Its window floor is the least subnormal, so it trims exact zeros
    only: no mass is lost, and every mass is the untrimmed recursion's.
    The law ends at its last nonzero mass.
    """
    _require_nondegenerate(env)
    if x < 0:
        raise ValueError("x must be nonnegative")
    if not 0.0 < tail_eps < 1.0:
        raise ValueError(f"tail_eps must lie in (0, 1), not {tail_eps}")
    if x == 0:
        return UDistribution(0, 1, np.array([1.0]), 0.0)
    # Failure x can land on trial n only once the window reaches x - 1;
    # while its top is below, failure x's chance is exactly 0.
    steps = enumerate(_failure_counts(env, x, _LEAST_SUBNORMAL, tail_eps), 1)
    masses = [chances[-1] if lo + len(chances) == x else 0.0
              for n, (lo, chances) in steps if n >= x]
    # The sweep reads its tail every 32 trials, so it may run on past the
    # last nonzero mass; those trials' masses are exact zeros.
    while not masses[-1]:
        masses.pop()
    return UDistribution(x, 0, np.array(masses), max(0.0, 1.0 - math.fsum(masses)))


class ExactMoments(NamedTuple):
    mean: float
    rho_x: float
    nu_x: float


def exact_moments(env: CookieEnvironment, x: int, tail_eps: float = 1e-14) -> ExactMoments:
    """Mean of U(x), centered drift rho(x) = E U(x) - mu x, and scaled
    second moment nu(x) = E (U(x) - mu x)^2 / x, all from the oracle."""
    if x < 1:
        raise ValueError("x must be at least 1: nu(x) divides by x")
    dist = exact_U_distribution(env, x, tail_eps)
    mu = asymptotic_mu(env)
    mean = dist.mean()
    center = mu * x
    return ExactMoments(mean, mean - center, dist.second_moment_about(center) / x)


# ---------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------


# Packed inverse-CDF keys; the layout is described on ``_InverseCdf``.
_U_BITS = 53
_U_SCALE = float(1 << _U_BITS)
_KEY_ROWS = 1 << (64 - _U_BITS)
_PACK_ROWS = 16
# Guide tables: 2^g buckets per row, with g at least _GUIDE_BITS, indexed
# by the top g bits of u; a guided lookup counts at most _GUIDE_SPAN keys
# from its bucket's first.  A table keeps its guide unless more than
# _GUIDE_FAR of its buckets hold more keys.
_GUIDE_BITS = 6
_GUIDE_SPAN = 3
_GUIDE_FAR = 0.25


def _packed_keys(cdf: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The keys of ``_InverseCdf``, written over ``cdf`` ``_PACK_ROWS``
    rows at a time, and the position of every row's first key.  Its
    temporaries die with it, before the guide is built."""
    buf = cdf.view(np.uint64)
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    starts = np.empty(len(sizes), dtype=np.int64)
    end = 0
    for r0 in range(0, len(sizes), _PACK_ROWS):
        r1 = min(r0 + _PACK_ROWS, len(sizes))
        c = cdf[bounds[r0] : bounds[r1]]
        live = c < 1.0
        counts = np.add.reduceat(live, bounds[r0:r1] - bounds[r0], dtype=np.int64)
        k = np.ceil(c[live] * _U_SCALE).astype(np.uint64)
        k += np.repeat(np.arange(r0, r1, dtype=np.uint64) << _U_BITS, counts)
        starts[r0:r1] = end + np.cumsum(counts) - counts
        # Writes stay behind the rows not yet read: end <= bounds[r0].
        buf[end : end + len(k)] = k
        end += len(k)
    return buf[:end], starts


class _InverseCdf:
    """Inverse-CDF draws from stacked cdf rows.

    Row r holds ``sizes[r]`` >= 1 entries of the flat ``cdf``; a draw
    from it with uniform u is ``k0`` (one offset, or one per row) plus
    the index of the first entry above u.

    Lookups compare integers.  rng.random() returns j / 2^53 for an
    integer j, with every numpy bit generator.  Entry c of row r becomes
    the key (r << 53) + ceil(c * 2^53), and u the query (r << 53) + j.
    c <= u exactly when ceil(c * 2^53) <= j, so a right-sided search for
    the query counts the entries of row r at or below u, as a search of
    the float row would, and a batch is one search whatever rows its
    draws sit in.  Entries of 1.0 or more (cumsum rounding can lift one
    just above 1) are dropped: no u < 1 reaches them, and their keys
    would spill into row r + 1.  The row index takes the 11 bits above
    j, so the one uint64 key array addresses 2^11 rows, and callers keep
    a table to at most ``_KEY_ROWS`` = 2^11 rows (a larger one raises
    ``ValueError``): the chain table's cap is that, and a dyadic level is
    a table only for periods of at most 2048 slots.

    ``base[r]`` is ``k0[r]`` less the position of row r's first key
    in the array, so a draw is ``base[r]`` plus the search result.
    The keys overwrite ``cdf`` in place, 16 rows at a time, so no
    temporary is large: freeing multi-megabyte temporaries raises
    malloc's mmap threshold, and the fragmented heap then lifts later
    peaks (5 % in the chain benchmark).

    Search: every ``draw`` batch, whatever its size, goes through the
    table's Chen-Asau guide (Devroye, *Non-Uniform Random Variate
    Generation*, 1986, section III.2.4), or is one plain ``searchsorted``
    on a table that keeps no guide.  A row has 2^g buckets, g the largest
    value with 2^g * ``_GUIDE_SPAN`` at most twice the table's mean keys
    per row (1.5 to 3 keys a bucket on average), and never below
    ``_GUIDE_BITS``.  Bucket b of row r holds the keys whose j lies in
    [b, b + 1) * 2^(53 - g), and the guide stores the position of its
    first key.  The query's top 11 + g bits are its row and bucket, so
    one gather at the query shifted right by 53 - g finds the start,
    widened from int32 to intp once so that the gathers below take it
    as it is.  The answer is the start plus the count of the next
    ``_GUIDE_SPAN`` keys at or below the query, one gather and compare
    per view ``keys[i:]``: every key before the start is below the
    query, every key past the bucket above it.  A bucket with more keys
    than that (the far tails), or too close to the array's end for the
    count, stores -1, and a batch holding such queries searches them
    plainly.  With the row keys r << 53 and the views made once per
    table, ``draw`` is 19 numpy calls, or 23 with a far query (a chain
    table's batch of a few hundred draws almost always has one, though
    only 2.6 % of uniform queries are far at g = 8, against 5.9 % at
    g = 7).  The guide holds one int32 per bucket: 256 bytes a row at
    g = 6, and at most 4 bytes per 1.5 keys above it, so at most
    max(256 bytes a row, 1/3 of the key bytes).  It is built
    ``_PACK_ROWS`` rows at a time, for the same malloc reason as the
    keys, from a count of the block's keys per bucket (``bincount`` of
    their top 11 + g bits).  Row ends come from the row starts, never
    from the key (r + 1) << 53, which wraps to 0 for row 2047.

    ``draw_one`` makes no numpy call: it bisects row r's keys between
    the row's bounds on Python ints (``bisect_right`` over memoryviews
    of the keys, the row bounds and ``base``, which share the arrays'
    memory), and every key of an earlier row is below the query and
    every key of a later one above it, so it finds ``searchsorted``'s
    position.  On a chain table that is 0.85 us a lookup, against
    1.45 us for a one-element ``searchsorted`` (2-vCPU host).

    A table keeps its guide unless more than ``_GUIDE_FAR`` of the
    buckets store -1, as uniform queries would then mostly pay for the
    guide and the plain search both.  With g sized from the rows, only
    tiny tables lose their guide: with a few keys a row, most buckets
    lie within ``_GUIDE_SPAN`` keys of the array's end, and a plain
    search of so few keys is fast.  The chain tables hold 410 to 680
    keys a row (g = 8, a 2 MiB guide) and the widest dyadic levels
    thousands (g = 9 to 13).
    """

    def __init__(self, cdf: np.ndarray, sizes: np.ndarray, k0: "int | np.ndarray"):
        if len(sizes) > _KEY_ROWS:
            raise ValueError(f"an inverse-CDF table holds at most {_KEY_ROWS} rows")
        self.keys, starts = _packed_keys(cdf, sizes)
        end = len(self.keys)
        self.base = k0 - starts
        self.row_keys = np.arange(len(sizes), dtype=np.uint64) << _U_BITS
        # The largest g with 2^g * _GUIDE_SPAN <= twice the mean keys per row.
        g = (2 * end // (_GUIDE_SPAN * len(sizes))).bit_length() - 1
        self.shift = _U_BITS - max(g, _GUIDE_BITS)
        # An empty key array (every row a sure value) has nothing to guide.
        self.guides = self._guides(starts) if end else None
        self.spans = tuple(self.keys[i:] for i in range(_GUIDE_SPAN))
        # ``draw_one`` reads these on Python ints, without copying them.
        self._scalar = (memoryview(self.keys), memoryview(np.append(starts, end)),
                        memoryview(self.base))

    def _guides(self, starts: np.ndarray) -> Optional[np.ndarray]:
        """The first key of every bucket, or -1; None when more than
        ``_GUIDE_FAR`` of the buckets hold -1."""
        g = _U_BITS - self.shift
        n = len(self.keys)
        bounds = np.append(starts, n)
        guide = np.empty(len(starts) << g, dtype=np.int32)
        far = 0
        for r0 in range(0, len(starts), _PACK_ROWS):
            r1 = min(r0 + _PACK_ROWS, len(starts))
            # A key's top 11 + g bits are its row and bucket, so counting
            # the block's keys per bucket gives every bucket's first key.
            ids = (self.keys[bounds[r0] : bounds[r1]] >> np.uint64(self.shift)).view(np.intp)
            ids -= r0 << g
            counts = np.bincount(ids, minlength=(r1 - r0) << g)
            del ids  # before the next block's
            first = guide[r0 << g : r1 << g]
            np.cumsum(counts, out=first)
            first -= counts
            first += bounds[r0]
            slow = (counts > _GUIDE_SPAN) | (first > n - _GUIDE_SPAN)
            first[slow] = -1
            far += int(np.count_nonzero(slow))
        return guide if far <= _GUIDE_FAR * guide.size else None

    def __len__(self) -> int:
        return len(self.base)

    def _search(self, q: np.ndarray) -> np.ndarray:
        """``keys.searchsorted(q, "right")``, through the guide when the
        table keeps one."""
        if self.guides is None:
            return self.keys.searchsorted(q, side="right")
        # Widened once here, not by each gather below.
        start = self.guides.take(q >> self.shift).astype(np.intp)
        first, *rest = self.spans
        # Past its bucket a key exceeds q; a far bucket's -1 clips to 0.
        pos = start + (first.take(start, mode="clip") <= q)
        for view in rest:
            pos += view.take(start, mode="clip") <= q
        if np.minimum.reduce(start, initial=0) < 0:
            far = start < 0
            pos[far] = self.keys.searchsorted(q[far], side="right")
        return pos

    def draw(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        """One draw from row ``rows[i]`` per uniform ``u[i]``; each u must
        be a value rng.random() returns."""
        q = (u * _U_SCALE).astype(np.uint64)
        q |= self.row_keys.take(rows)
        # Search, then gather base: their temporaries are never alive together.
        return self._search(q) + self.base.take(rows)

    def draw_one(self, row: int, u: float) -> int:
        """``draw`` for one row and one uniform, by bisecting the row's keys."""
        keys, bounds, base = self._scalar
        row = int(row)  # a numpy row would wrap in the shift below
        q = (row << _U_BITS) + int(u * _U_SCALE)
        return base[row] + bisect.bisect_right(keys, q, bounds[row], bounds[row + 1])


# Dyadic batches of at most this many rows walk the levels on Python scalars.
_SCALAR_ROWS = 24

# Run costs -log p are capped here, above any query's (at most -log
# 2^-53, about 36.7), so a 0 cookie's cost is finite and stops every run.
_COST_CAP = 64.0


class _LogLevel:
    """Level 0 of a cycle of more than ``_KEY_ROWS`` slots, searched in
    log space (see ``_DyadicSampler``): ``t[i]`` is the capped sum of
    -log p over slots 0 .. i - 1 (mod M), for i up to two periods."""

    def __init__(self, cycle: tuple[float, ...]):
        p = np.asarray(cycle, dtype=float)
        # Row 0 of the slot-run law, built as ``slot_runs`` builds it, so
        # fail has the bits of that route's.
        row = np.ones(len(p))
        np.cumprod(p[:-1], out=row[1:])
        row *= 1.0 - p
        self.fail = min(float(row.sum()), 1.0)
        with np.errstate(divide="ignore"):
            cost = np.minimum(-np.log(p), _COST_CAP)
        self.t = np.concatenate(([0.0], np.cumsum(np.tile(cost, 2))))
        self.t_list = self.t.tolist()

    def draw(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self.t.searchsorted(self.t.take(rows) - np.log1p(-self.fail * u), "right") - rows - 1

    def draw_one(self, row: int, u: float) -> int:
        # numpy's log1p, as in ``draw``: math.log1p can differ in the last
        # bit, and the scalar walk must draw what the vector walk draws.
        t = self.t_list
        return bisect.bisect_right(t, t[row] - float(np.log1p(-self.fail * u))) - row - 1


class _DyadicSampler:
    """Exact draws of U(x), x >= 1, for the pile's cycle (started at its
    slot 0, the prefix ignored) by dyadic block composition.

    The run of successes before a failure splits as d + M*t: d < M is
    the slot advance and t counts whole-period wraps.  The wraps are
    geometric with success 1 - P, P the full-period product, and
    independent of the slot walk, so over x failures they add M times a
    single NB(x, 1 - P) draw.  The levels carry the rest: level k draws
    the slot advance k0 + s (s < w, its width) of 2^k failures from each
    start slot r.  They end at slot r + k0 + s + 2^k (mod M), so level
    k + 1 is a slot-threaded convolution square of level k (computed by
    FFT).  One draw walks the set bits of x from high to low with one
    inverse-CDF lookup per bit, so the cost per draw is logarithmic in
    x.  Levels extend lazily as larger x appear.

    A level is one ``_InverseCdf`` with a row per start slot (but see
    periods above 2048 slots below), so a lookup for a batch is one
    search whatever slots the draws sit in; a level no draw has a bit on
    is skipped.  A batch of at most ``_SCALAR_ROWS`` draws (and
    ``draw_one``) walks the levels on Python scalars instead, with the
    same uniforms in the same order and so the same draws: at x near
    2500 on (0.9, 0.1) a vector walk of 25 draws costs about 270 us,
    mostly numpy call overhead, and a scalar one 8.4 us a draw (2-vCPU
    host), so the two cross near 32 draws.  The threshold stays below
    that, where the scalar walk won in every setting measured.

    A level is at most 2^k (M - 1) + 1 wide whatever P is.  Long periods
    still make the square large, so no level is built whose transform
    would exceed ``_MAX_BINS`` complex bins; draws then take whole blocks
    of the top level, down to one failure at a time for the longest
    periods.  Only a square reads a pmf: ``pmf`` holds the top level's
    k0 and trimmed, normalized M x w rows, and is dropped (None) once
    the cap, which depends only on M and w, refuses a square.  A pile
    thus retains its levels' keys and guides plus, until then, one pmf.

    Above 2048 slots (M > ``_KEY_ROWS``) M^2 alone exceeds the cap, so
    level 0, the only level, serves only lookups.  It is then a
    ``_LogLevel``: no table, no pmf and no M x M slot-run law, in O(M)
    memory (162 KiB at M = 2049, where a table kept 36 MiB after a
    128 MiB build peak).  With t[i] the sum of -log p over slots
    0 .. i - 1 of two periods, a run from slot r passes d cookies with
    chance S(d) = exp(-(t[r + d] - t[r])), so its advance is at most d
    with chance (1 - S(d + 1)) / fail, and uniform u draws
    t.searchsorted(t[r] - log1p(-fail * u), "right") - r - 1.  Rounding
    moves each t[j] - t[i] by at most e = 2M * 2^-52 * t[2M] (a query's
    own rounding is smaller), so a row's law moves by at most
    e * E min(N, M) / fail in total variation, N the run from slot r:
    4e-9 on (0.99, 0.98) * 1024 + (0.99).  Against the normalized
    ``slot_runs`` rows it measured 8e-14 there and at most 1.1e-13 on
    three more piles of 2,101 to 2,500 slots, and on 2 * 10^6 random
    (slot, u) pairs of each pile it drew what the table drew.

    Error per level: each level trims at most ``_TAIL`` of its mass from
    either end of the advance and renormalizes.  After an FFT square of
    transform size n, entries below eps * log2(n) times the largest entry
    are set to 0.  That floor sits at the ``irfft`` round-off, which would
    otherwise survive the trim and widen every level linearly in 2^k
    instead of like sqrt(2^k).  Each entry moves by less than the floor,
    so a row of w entries moves by at most w * eps * log2(n) * max in
    total variation before renormalizing.  Measured against the oracle,
    the law of U(2^k) is within 4e-15 in total variation at k = 8 and
    6e-14 at k = 12 on (0.9, 0.1) and (0.9, 0.9, 0.1, 0.1).
    """

    _TAIL = 1e-17
    _MAX_BINS = 1 << 22

    def __init__(self, env: CookieEnvironment):
        self.m = env.period
        if self.m > _KEY_ROWS:
            self.levels: list = [_LogLevel(env.cycle)]
            self.fail, self.pmf = self.levels[0].fail, None
        else:
            # Level 0: advance d within the period, then a failure.
            runs, self.fail = slot_runs(env.cycle)
            self.levels = [self._finish(0, runs)]

    def _finish(self, k0: int, rows: np.ndarray) -> _InverseCdf:
        cs = np.cumsum(rows.sum(axis=0))
        total = cs[-1]
        a = int(np.searchsorted(cs, self._TAIL * total, side="left"))
        b = int(np.searchsorted(cs, (1.0 - self._TAIL) * total, side="left")) + 1
        rows = rows[:, a:b]
        rows = rows / rows.sum(axis=1, keepdims=True)
        self.pmf: Optional[tuple[int, np.ndarray]] = (k0 + a, rows)
        cdf = np.cumsum(rows, axis=1)
        cdf[:, -1] = 1.0
        return _InverseCdf(cdf.ravel(), np.full(self.m, b - a), k0 + a)

    def _extend(self) -> bool:
        """Build the next level; False if it would exceed the bin cap."""
        if self.pmf is None:
            return False
        k0, rows = self.pmf
        m, w = rows.shape
        n = 2 * w - 1
        size = 1 << (n - 1).bit_length()
        if m * m * (size // 2 + 1) > self._MAX_BINS:
            self.pmf = None
            return False
        # split[r, c] keeps the advances of row r that are c mod M
        s = np.arange(w)
        split = np.zeros((m, m, w))
        split[:, (k0 + s) % m, s] = rows
        fa = np.fft.rfft(split, size, axis=2)
        fb = np.fft.rfft(rows, size, axis=1)
        r = np.arange(m)
        block = 1 << (len(self.levels) - 1)
        fc = np.zeros_like(fb)
        for c in range(m):
            fc += fa[:, c] * fb[(r + c + block) % m]
        out = np.fft.irfft(fc, size, axis=1)[:, :n]
        out[out < np.finfo(float).eps * math.log2(size) * out.max()] = 0.0
        self.levels.append(self._finish(2 * k0, out))
        return True

    def _top(self, x_max: int) -> int:
        """Extend the levels for x_max; return the level draws start from."""
        while len(self.levels) < x_max.bit_length() and self._extend():
            pass
        return min(len(self.levels), x_max.bit_length()) - 1

    def _advance(
        self,
        k: int,
        sel: np.ndarray,
        out: np.ndarray,
        state: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        """Move the draws ``sel`` through one block of 2^k failures."""
        st = state[sel]
        adv = self.levels[k].draw(st, rng.random(len(sel)))
        out[sel] += adv
        state[sel] = (st + adv + (1 << k)) % self.m

    def _walk(self, xs: list[int], rng: np.random.Generator) -> list[int]:
        """The level walk of a few draws on Python scalars.

        It takes the vector walk's uniforms in the same level-major order
        (every row's first top block, then every second one, ..., then
        bit top - 1 of the rows that have it, and so on) from one
        ``rng.random`` call, and the negative binomials one per row in
        row order, so its draws are the vector walk's bit for bit.  One
        row's plan is read straight off the set bits of its x.
        """
        top = self._top(max(xs, default=1))
        if len(xs) == 1:
            x = xs[0]
            plan = [(top, 0)] * (x >> top) + [(k, 0) for k in range(top - 1, -1, -1) if x >> k & 1]
        else:
            rows = list(enumerate(xs))
            plan = [(top, i) for j in range(max(xs, default=0) >> top) for i, x in rows if x >> top > j]
            plan += [(k, i) for k in range(top - 1, -1, -1) for i, x in rows if x >> k & 1]
        out = [0] * len(xs)
        state = [0] * len(xs)
        draw_one = [level.draw_one for level in self.levels]
        for (k, i), u in zip(plan, rng.random(len(plan)).tolist()):
            adv = draw_one[k](state[i], u)
            out[i] += adv
            state[i] = (state[i] + adv + (1 << k)) % self.m
        return [o + self.m * int(rng.negative_binomial(x, self.fail)) for o, x in zip(out, xs)]

    def draw(self, xs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.int64)
        if np.any(xs < 1):
            raise ValueError("dyadic sampler serves x >= 1")
        if len(xs) <= _SCALAR_ROWS:
            return np.array(self._walk(xs.tolist(), rng), dtype=np.int64)
        top = self._top(int(xs.max()))
        out = np.zeros(len(xs), dtype=np.int64)
        state = np.zeros(len(xs), dtype=np.int64)
        blocks = xs >> top
        for j in range(int(blocks.max())):
            self._advance(top, np.flatnonzero(blocks > j), out, state, rng)
        # A level no x has a bit on draws nothing (rng.random(0)): skip it.
        bits = int(np.bitwise_or.reduce(xs))
        for k in range(top - 1, -1, -1):
            if bits >> k & 1:
                self._advance(k, np.flatnonzero((xs >> k) & 1), out, state, rng)
        return out + self.m * rng.negative_binomial(xs, self.fail)

    def draw_one(self, x: int, rng: np.random.Generator) -> int:
        x = int(x)
        if x < 1:
            raise ValueError("dyadic sampler serves x >= 1")
        return self._walk([x], rng)[0]


def _cycle_route(env: CookieEnvironment) -> tuple[Callable, Callable]:
    """Exact samplers of the cycle's U(x), started at cycle slot 0: a
    negative binomial for a constant cycle, dyadic levels otherwise."""
    first = env.cycle[0]
    if all(p == first for p in env.cycle):
        q = 1.0 - first
        return (
            lambda x, rng: int(rng.negative_binomial(x, q)),
            lambda xs, rng: rng.negative_binomial(xs, q, len(xs)).astype(np.int64),
        )
    dy = _DyadicSampler(env)
    return dy.draw_one, dy.draw


def _prefix_trials(prefix: tuple[float, ...], xs: "int | np.ndarray",
                   size: Optional[int], rng: np.random.Generator) -> tuple:
    """One shared Bernoulli trial per prefix cookie: the successes that
    count toward U(x), and the failures still needed after the prefix.
    Scalars when ``size`` is None, one entry per target otherwise."""
    out = fails = 0
    for p in prefix:
        u = rng.random(size)
        open_ = fails < xs
        out += (u < p) & open_
        fails += (u >= p) & open_
    return out, xs - fails


@lru_cache(maxsize=4)
def _samplers(env: CookieEnvironment) -> tuple[Callable, Callable]:
    """Exact samplers of U(x), x >= 1: ``one(x, rng)`` for one draw and
    ``many(xs, rng)`` for one draw per entry of an array.

    The one place that checks a pile and picks its route: the checks
    cost O(M), so they run once per pile, and a cycle's dyadic levels
    are kept with its samplers.  A pile without a prefix is its cycle's
    route.  Otherwise ``_prefix_trials`` runs the prefix, and the
    failures still needed come from the cycle's route, held in this
    entry; in a batch, draws for rows that need none are made at x = 1
    and dropped, so the batch is one call.
    """
    _require_nondegenerate(env)
    cycle_one, cycle_many = _cycle_route(env)
    if not env.prefix:
        return cycle_one, cycle_many

    def one(x: int, rng: np.random.Generator) -> int:
        out, rem = _prefix_trials(env.prefix, x, None, rng)
        return int(out) + (cycle_one(rem, rng) if rem > 0 else 0)

    def many(xs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        out, rem = _prefix_trials(env.prefix, xs, len(xs), rng)
        needs = rem > 0
        if np.any(needs):
            out += np.where(needs, cycle_many(np.maximum(rem, 1), rng), 0)
        return out

    return one, many


def sample_U_many(
    env: CookieEnvironment, x: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized exact draws of U(x)."""
    many = _samplers(env)[1]
    if operator.index(x) < 0:
        raise ValueError("x must be nonnegative")
    if x == 0:
        return np.ones(size, dtype=np.int64)
    return many(np.full(size, x, dtype=np.int64), rng)


def sample_U(env: CookieEnvironment, x: int, rng: np.random.Generator) -> int:
    """One exact draw of U(x)."""
    one = _samplers(env)[0]
    if operator.index(x) < 0:
        raise ValueError("x must be nonnegative")
    if x == 0:
        return 1
    return one(x, rng)


def step_sampler(
    env: CookieEnvironment,
) -> Callable[[int, int, np.random.Generator], np.ndarray]:
    """Adapter exposing the pile as a generic chain-step sampler."""
    _samplers(env)  # checks the pile now, not at the first draw

    def draw(x: int, size: int, rng: np.random.Generator) -> np.ndarray:
        return sample_U_many(env, x, size, rng)

    return draw


# ---------------------------------------------------------------------
# sampler tables (ensemble fast path)
# ---------------------------------------------------------------------


# Largest chain size the ensemble serves from a table: the rows that one
# key array addresses.
_TABLE_CAP = _KEY_ROWS


def _chain_table(env: CookieEnvironment, cap: int) -> _InverseCdf:
    """Inverse-CDF rows of U(x) for x = 1 .. cap, row x - 1 for U(x).

    Built from ``_failure_counts`` with a window floor of 1e-18: the
    x-th failure lands on trial n exactly when the free process has
    x - 1 failures after n - 1 trials and trial n fails, so each trial's
    chances feed every row in the window.  Its ends never move back, so
    row x is one run of trials.  Rows are trimmed to relative mass
    1 - 2e-15 and renormalized (within 3e-13 of the oracle in total
    variation, as measured up to x = 2048); the table backs samplers
    only, never the oracle.  The cap is at most ``_TABLE_CAP`` = 2^11
    rows, which one key array addresses.

    A first sweep records each trial's window, which sizes one float64
    buffer laid out row by row; a second scatters the chances into it.
    Each row is then trimmed and accumulated on its own, and its cdf
    written towards the buffer's front; the keys overwrite the buffer.
    So the build holds one float64 per windowed (row, trial) pair plus
    one row's temporaries.
    """
    spans = ((lo, lo + len(c)) for lo, c in _failure_counts(env, cap, 1e-18, 1e-16))
    try:
        windows = np.fromiter(spans, np.dtype((np.int64, 2)))
    except OracleHorizonError as exc:
        raise InternalConsistencyError(f"sampler table build: {exc}") from exc
    # Trial t (from 0) emits failure f + 1 for lo[t] <= f < hi[t].  Row f
    # takes trials first[f] .. ends[f] - 1, success counts t - f, and its
    # trial t sits at buf[to[f] + t].
    rows = np.arange(cap)
    first = np.searchsorted(windows[:, 1], rows, side="right")
    ends = np.searchsorted(windows[:, 0], rows, side="right")
    del windows
    bounds = np.concatenate(([0], np.cumsum(ends - first)))
    to = bounds[:-1] - first
    buf = np.empty(bounds[-1])
    for t, (lo, chances) in enumerate(_failure_counts(env, cap, 1e-18, 1e-16)):
        buf[to[lo : lo + len(chances)] + t] = chances
    k0 = first - rows
    sizes = np.empty(cap, dtype=np.int64)
    w = 0
    for r in range(cap):
        a, b = int(bounds[r]), int(bounds[r + 1])
        row = buf[a:b]
        total = float(row.sum())
        cs = row.cumsum()
        lo = int(cs.searchsorted(_ROW_TAIL * total))
        hi = min(int(cs.searchsorted((1.0 - _ROW_TAIL) * total)) + 1, b - a)
        cdf = row[lo:hi].cumsum() if lo else cs[:hi]
        # The last entry becomes x / x, exactly 1; w <= a, so no unread
        # row is overwritten.
        np.divide(cdf, cdf[-1], out=buf[w : w + hi - lo])
        k0[r] += lo
        sizes[r] = hi - lo
        w += hi - lo
    del row
    # No view of buf is alive, so it may shrink in place.
    buf.resize(w, refcheck=False)
    return _InverseCdf(buf, sizes, k0)


_cached_table = lru_cache(maxsize=8)(_chain_table)


# ---------------------------------------------------------------------
# crossing chain simulation
# ---------------------------------------------------------------------


def _directed(env: CookieEnvironment, direction: str) -> CookieEnvironment:
    if direction == "right":
        return env
    if direction == "left":
        return env.mirror()
    raise ValueError(f"direction must be 'right' or 'left', got {direction!r}")


def _variance_rate(env: CookieEnvironment) -> float:
    """Generous upper bound on Var(U(z)) / z for large z; with mu >= 1
    it is at least 4, above the diffusion coefficient 8 * mean p(1-p)."""
    mu = max(asymptotic_mu(env), 1.0)
    return 2.0 * mu * (1.0 + mu)


def _escape_threshold(env: CookieEnvironment, horizon: int) -> Optional[int]:
    """Chain size above which a run is declared to survive.

    The policy is ``bpm.escape_threshold``; this supplies the chain's
    variance rate and a bound on the constant downward drift of its size
    bias: 2 per cycle entry, plus the prefix's total drift when that
    points left.
    """
    delta = math.fsum(2.0 * p - 1.0 for p in env.prefix)
    down = 2.0 * env.period + max(0.0, -delta)
    return escape_threshold(asymptotic_mu(env), _variance_rate(env), down, horizon)


def simulate_Z_ensemble(
    env: CookieEnvironment,
    direction: str,
    horizon: int,
    trials: int,
    master_seed: Optional[int] = None,
) -> ZEnsembleResult:
    """Ensemble of crossing-chain runs from Z_0 = 1 (``bpm.absorb``).

    On a critical or subcritical pile, lockstep draws within the table
    cap come from precomputed inverse-CDF rows, searched through the
    table's guide; each step is one table lookup.  A supercritical chain
    escapes before a fresh table repays its build, and a constant pile's
    negative binomial draws beat one.  Other draws come from the exact
    samplers, the last few runs' through scalar draws.  Results are a
    pure function of (environment, direction, horizon, trials,
    master_seed).
    """
    eff = _directed(env, direction)
    one, many = _samplers(eff)
    if horizon < 1 or trials < 1:
        raise ValueError("horizon and trials must be at least 1")
    if master_seed is None:
        master_seed = default_seed()
    rng = substream(master_seed, TAG_ZSIM)
    esc = _escape_threshold(eff, horizon)
    if _constant_value(eff) is not None or (esc is not None and not eff.is_critical()):
        return absorb(1, horizon, trials, esc, many, one, rng)
    table = _cached_table(eff, _TABLE_CAP if esc is None else min(_TABLE_CAP, esc))
    cap = len(table)

    def step(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        u = rng.random(len(x))
        rows = x - 1
        if np.maximum.reduce(x) <= cap:
            return table.draw(rows, u)
        # Sizes above the cap take a throwaway lookup in row 0, then
        # their exact draws, which follow this step's uniforms.
        big = np.flatnonzero(x > cap)
        rows[big] = 0
        k = table.draw(rows, u)
        k[big] = many(x[big], rng)
        return k

    def step_one(z: int, rng: np.random.Generator) -> int:
        return table.draw_one(z - 1, rng.random()) if z <= cap else one(z, rng)

    return absorb(1, horizon, trials, esc, step, step_one, rng)


# ---------------------------------------------------------------------
# Monte Carlo ladders
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class LadderEntry:
    x: int
    trials: int
    rho_hat: float
    nu_hat: float
    theta_hat: float
    se_rho: float
    se_nu: float
    se_theta: float


@dataclass(frozen=True)
class LadderStats:
    """Drift/diffusion estimates of the chain step over growing x."""

    entries: tuple[LadderEntry, ...]

    FIELDS = ("x", "trials", "rho_hat", "nu_hat", "theta_hat", "se_rho", "se_nu", "se_theta")

    def to_rows(self) -> list[list[str]]:
        rows = [list(self.FIELDS)]
        for e in self.entries:
            rows.append([repr(getattr(e, f)) for f in self.FIELDS])
        return rows

    @staticmethod
    def from_rows(rows: Sequence[Sequence[str]]) -> "LadderStats":
        if not rows:
            raise ValueError("ladder CSV is empty")
        header = list(rows[0])
        if header != list(LadderStats.FIELDS):
            raise ValueError(f"ladder CSV has unexpected header {header!r}")
        entries = []
        for row in rows[1:]:
            if len(row) != len(header):
                raise ValueError(f"ladder row {list(row)!r} does not have {len(header)} fields")
            # Fields come in FIELDS order: two counts, then six estimates.
            estimates = [float(v) for v in row[2:]]
            if not all(map(math.isfinite, estimates)):
                raise ValueError(f"ladder row {list(row)!r} holds a non-finite value")
            entries.append(LadderEntry(int(row[0]), int(row[1]), *estimates))
        return LadderStats(tuple(entries))


# Draws per sampler call, bounding the memory of one ladder point.
_LADDER_BLOCK = 1 << 16


def empirical_ladder(
    env: CookieEnvironment,
    xs: Sequence[int],
    trials: int,
    rng: np.random.Generator,
) -> LadderStats:
    """Monte Carlo estimates of rho(x), nu(x) and theta at each x.

    Standard errors are plug-in CLT estimates; the theta error combines
    the drift and diffusion errors through a first-order delta method
    with their sampled covariance.
    """
    _samplers(env)  # checks the pile before the x values
    xs = list(xs)
    if not xs:
        raise ValueError("ladder needs at least one x value")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("ladder x values must be strictly increasing")
    if any(x < 1 for x in xs):
        raise ValueError("ladder x values must be at least 1")
    if trials < 100:
        raise ValueError("need at least 100 trials for stable ladder errors")
    mu = asymptotic_mu(env)
    entries = []
    for x in xs:
        s1 = s2 = s3 = s4 = 0.0
        done = 0
        while done < trials:
            b = min(_LADDER_BLOCK, trials - done)
            v = sample_U_many(env, x, b, rng).astype(float) - mu * x
            v2 = v * v
            s1 += float(v.sum())
            s2 += float(v2.sum())
            s3 += float((v * v2).sum())
            s4 += float((v2 * v2).sum())
            done += b
        n = float(trials)
        m1 = s1 / n
        m2 = s2 / n
        if m2 <= 0.0:
            raise ValueError(f"degenerate diffusion estimate at x={x}: "
                             f"every draw of U(x) equals mu x = {mu * x:g}")
        var_v = max(m2 - m1 * m1, 0.0)
        var_v2 = max(s4 / n - m2 * m2, 0.0)
        cov = s3 / n - m1 * m2
        rho_hat = m1
        nu_hat = m2 / x
        theta_hat = 2.0 * m1 * x / m2
        g1 = 2.0 * x / m2
        g2 = -2.0 * m1 * x / (m2 * m2)
        var_theta = max(g1 * g1 * var_v + g2 * g2 * var_v2 + 2.0 * g1 * g2 * cov, 0.0)
        entries.append(
            LadderEntry(
                x=x,
                trials=trials,
                rho_hat=rho_hat,
                nu_hat=nu_hat,
                theta_hat=theta_hat,
                se_rho=math.sqrt(var_v / n),
                se_nu=math.sqrt(var_v2 / n) / x,
                se_theta=math.sqrt(var_theta / n),
            )
        )
    return LadderStats(tuple(entries))
