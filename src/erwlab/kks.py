"""Step distribution and crossing chains of the cookie walk.

The number of right crossings of consecutive edges, watched at the
successive failure times of the cookie Bernoulli sequence, is a Markov
chain whose step distribution U(x) counts successes before the x-th
failure when cookies are consumed in pile order.  This module provides

* an exact dynamic-programming oracle for the law of U(x),
* fast exact samplers (dyadic block composition for periodic piles,
  prefix plus negative binomial for piles with a constant tail),
* single-run simulation of the chain, and ensembles of it on
  ``bpm.absorb``, the absorbing-chain engine shared with the population,
* Monte Carlo ladders of drift/diffusion estimates over growing x.

Conventions: U(0) = 1, and the simulated chain treats 0 as absorbing so
that survival means directional transience of the walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .bpm import ZEnsembleResult, absorb, escape_threshold
from .environments import CookieEnvironment, EnvKind
from .periodic import InternalConsistencyError, mu_periodic, slot_runs
from .seeding import TAG_ZSIM, default_seed, substream

# Mass below this per-row threshold is trimmed from sampler tables; the
# exact oracle is the precision route and never trims this way.
_ROW_TAIL = 1e-15


def asymptotic_mu(env: CookieEnvironment) -> float:
    """Limiting mean of U(x)/x: pbar/(1-pbar) from the recurring part."""
    if env.kind is EnvKind.PERIODIC:
        return mu_periodic(env)
    t = float(env.tail_value)  # type: ignore[arg-type]
    if t >= 1.0:
        return math.inf
    return t / (1.0 - t)


def _diffusion_scale(env: CookieEnvironment) -> float:
    """8 * mean of p(1-p) over the recurring part of the pile."""
    if env.kind is EnvKind.PERIODIC:
        return 8.0 * math.fsum(p * (1.0 - p) for p in env.params) / env.period
    t = float(env.tail_value)  # type: ignore[arg-type]
    return 8.0 * t * (1.0 - t)


def _require_nondegenerate(env: CookieEnvironment) -> None:
    if not env.predicates().non_degenerate:
        raise ValueError("degenerate environment: U(x) is not finite almost surely")


def _constant_value(env: CookieEnvironment) -> Optional[float]:
    """Cookie value if the pile is a single repeated constant."""
    if env.kind is EnvKind.PERIODIC:
        first = env.params[0]
        return first if all(p == first for p in env.params) else None
    t = float(env.tail_value)  # type: ignore[arg-type]
    return t if all(p == t for p in env.params) else None


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
    return int(64 * (x + env.period) * (1.0 + min(mu, 64.0)))


def exact_U_distribution(
    env: CookieEnvironment, x: int, tail_eps: float = 1e-12
) -> UDistribution:
    """Exact law of U(x) by forward dynamic programming.

    The state is the number of failures seen so far; trial n consumes
    cookie n of the pile.  Mass absorbing at the x-th failure on trial n
    contributes probability to the success count n - x.  Enumeration
    stops once the live (un-absorbed) mass drops below ``tail_eps``.
    """
    _require_nondegenerate(env)
    if x < 0:
        raise ValueError("x must be nonnegative")
    if tail_eps <= 0.0:
        raise ValueError("tail_eps must be positive")
    if x == 0:
        return UDistribution(0, 1, np.array([1.0]), 0.0)

    cap = _horizon_cap(env, x)
    live = np.zeros(x)
    live[0] = 1.0
    masses: list[float] = []
    n = 0
    # Termination reads the live array directly every few trials; a
    # running "absorbed" total cannot be trusted to cross 1 - tail_eps
    # because its own rounding error is of the same order.
    while True:
        n += 1
        if n > cap:
            raise OracleHorizonError(
                f"tail {tail_eps:g} not reached within {cap} trials"
            )
        c = env.cookie_at(n)
        q = 1.0 - c
        ab = q * live[x - 1]
        if n >= x:
            masses.append(ab)
        if x > 1:
            live[1:] = c * live[1:] + q * live[:-1]
        live[0] *= c
        if n % 32 == 0 and float(live.sum()) < tail_eps:
            break
    mass = np.array(masses)
    tail = max(0.0, 1.0 - math.fsum(masses))
    return UDistribution(x=x, support_offset=0, mass=mass, tail_bound=tail)


class ExactMoments(NamedTuple):
    mean: float
    rho_x: float
    nu_x: float


def exact_moments(env: CookieEnvironment, x: int, tail_eps: float = 1e-14) -> ExactMoments:
    """Mean of U(x), centered drift rho(x) = E U(x) - mu x, and scaled
    second moment nu(x) = E (U(x) - mu x)^2 / x, all from the oracle."""
    dist = exact_U_distribution(env, x, tail_eps)
    mu = asymptotic_mu(env)
    mean = dist.mean()
    center = mu * x
    return ExactMoments(mean, mean - center, dist.second_moment_about(center) / x)


# ---------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------


def _prefix_tail_draws(
    env: CookieEnvironment,
    x: "int | np.ndarray",
    size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample U(x) for a finite prefix followed by a constant tail.

    ``x`` may be a scalar or one target per draw; the prefix consumes at
    most M shared Bernoulli trials, the rest is a negative binomial.
    """
    params = env.params
    tail = float(env.tail_value)  # type: ignore[arg-type]
    xs = np.asarray(x, dtype=np.int64)
    if xs.ndim == 0:
        xs = np.full(size, int(xs), dtype=np.int64)
    fails = np.zeros(size, dtype=np.int64)
    succ = np.zeros(size, dtype=np.int64)
    for p in params:
        open_ = fails < xs
        u = rng.random(size)
        right = u < p
        succ += (right & open_).astype(np.int64)
        fails += (~right & open_).astype(np.int64)
    rem = np.maximum(xs - fails, 0)
    out = succ.copy()
    needs = rem > 0
    if np.any(needs):
        if tail >= 1.0:
            raise ValueError("degenerate tail: remaining failures never occur")
        draws = rng.negative_binomial(np.maximum(rem, 1), 1.0 - tail, size)
        out += np.where(needs, draws.astype(np.int64), 0)
    return out


# Inverse-CDF lookups compare integers.  rng.random() returns j / 2^53
# for an integer j, with every numpy bit generator.  Entry c of cdf row
# r becomes the key (r << 53) + ceil(c * 2^53), and u the query
# (r << 53) + j.  c <= u exactly when ceil(c * 2^53) <= j, so a
# right-sided search for the query counts the entries of row r at or
# below u, as a search of the float row would.  Entries of 1.0 or more
# (cumsum rounding can lift one just above 1) are dropped: no u < 1
# reaches them, and their keys would spill into row r + 1.  The row
# index takes the 11 bits above j, so one uint64 key array addresses
# 2^11 rows; longer tables get one key array per 2^11 rows, each
# keyed by r mod 2^11.
_U_BITS = 53
_U_SCALE = float(1 << _U_BITS)
_ROW_BITS = 64 - _U_BITS
_KEY_ROWS = 1 << _ROW_BITS
_PACK_ROWS = 16  # divides _KEY_ROWS


def _pack_keys(
    cdf: np.ndarray, sizes: np.ndarray
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Search keys of stacked cdf rows, row r holding ``sizes[r]`` >= 1
    entries of the flat ``cdf``.

    Returns one key array per 2^11 rows and ``starts``, the position of
    each row's first key within its array.  The keys overwrite ``cdf``
    in place, 16 rows at a time, so no temporary is large: freeing
    multi-megabyte temporaries raises malloc's mmap threshold, and the
    fragmented heap then lifts later peaks (5 % in the chain benchmark).
    """
    buf = cdf.view(np.uint64)
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    starts = np.empty(len(sizes), dtype=np.int64)
    keys = []
    end = first = 0
    for r0 in range(0, len(sizes), _PACK_ROWS):
        r1 = min(r0 + _PACK_ROWS, len(sizes))
        if r0 % _KEY_ROWS == 0:
            first = end
        c = cdf[bounds[r0] : bounds[r1]]
        live = c < 1.0
        counts = np.add.reduceat(live, bounds[r0:r1] - bounds[r0], dtype=np.int64)
        k = np.ceil(c[live] * _U_SCALE).astype(np.uint64)
        k += np.repeat((np.arange(r0, r1, dtype=np.uint64) % _KEY_ROWS) << _U_BITS, counts)
        starts[r0:r1] = end - first + np.cumsum(counts) - counts
        # Writes stay behind the rows not yet read: end <= bounds[r0].
        buf[end : end + len(k)] = k
        end += len(k)
        if r1 % _KEY_ROWS == 0 or r1 == len(sizes):
            keys.append(buf[first:end])
    return tuple(keys), starts


def _sorted_search(keys: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``keys.searchsorted(q, "right")``, searched in sorted query order:
    sorted queries walk the keys in memory order."""
    order = np.argsort(q)
    pos = np.empty(len(q), dtype=np.int64)
    pos[order] = keys.searchsorted(q[order], side="right")
    return pos


def _search(
    keys: tuple[np.ndarray, ...], starts: np.ndarray, rows: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Index within row ``rows[i]`` of the first cdf entry above ``u[i]``;
    each u must be a value rng.random() returns."""
    q = (u * _U_SCALE).astype(np.uint64)
    q |= (rows.astype(np.uint64) & (_KEY_ROWS - 1)) << _U_BITS
    if len(keys) == 1:
        return _sorted_search(keys[0], q) - starts[rows]
    pos = np.empty(len(q), dtype=np.int64)
    part = rows >> _ROW_BITS
    for c, k in enumerate(keys):
        sel = np.flatnonzero(part == c)
        pos[sel] = _sorted_search(k, q[sel])
    return pos - starts[rows]


def _search_one(keys: tuple[np.ndarray, ...], starts: np.ndarray, row: int, u: float) -> int:
    """``_search`` for one row and one uniform, in one numpy call."""
    q = ((row & (_KEY_ROWS - 1)) << _U_BITS) + int(u * _U_SCALE)
    return int(keys[row >> _ROW_BITS].searchsorted(np.uint64(q), side="right")) - int(starts[row])


class _DyadicLevel(NamedTuple):
    k0: int
    width: int
    rows: np.ndarray
    keys: tuple[np.ndarray, ...]
    starts: np.ndarray


class _DyadicSampler:
    """Exact draws of U(x), x >= 1, for periodic piles by dyadic block
    composition.

    The run of successes before a failure splits as d + M*t: d < M is
    the slot advance and t counts whole-period wraps.  The wraps are
    geometric with success 1 - P, P the full-period product, and
    independent of the slot walk, so over x failures they add M times a
    single NB(x, 1 - P) draw.  The levels carry the rest: ``rows[r, s]``
    of level k is the chance that 2^k failures from slot r advance the
    slot by k0 + s in total.  They end at slot r + k0 + s + 2^k (mod M),
    so level k + 1 is a slot-threaded convolution square of level k
    (computed by FFT).  One draw walks the set bits of x from high to
    low with one inverse-CDF lookup per bit, so the cost per draw is
    logarithmic in x.  Levels extend lazily as larger x appear.

    Each level stores its cdf rows as packed integer keys (see
    ``_U_BITS``), one row per start slot.  A lookup for a batch is one
    ``searchsorted`` per key array whatever slots the draws sit in, and
    it lands where a search of the float row would for every u that
    ``rng.random()`` returns.  One key array holds 2^11 slots, so a
    period above 2048 splits each level over several.

    A level is at most 2^k (M - 1) + 1 wide whatever P is.  Long periods
    still make the square large, so no level is built whose transform
    would exceed ``_MAX_BINS`` complex bins; draws then take whole blocks
    of the top level, down to one failure at a time for the longest
    periods.

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
        self.m = len(env.params)
        # Level 0: advance d within the period, then a failure.
        runs, self.fail = slot_runs(env.params)
        self.levels: list[_DyadicLevel] = [self._finish(0, runs)]

    def _finish(self, k0: int, rows: np.ndarray) -> _DyadicLevel:
        cs = np.cumsum(rows.sum(axis=0))
        total = cs[-1]
        a = int(np.searchsorted(cs, self._TAIL * total, side="left"))
        b = int(np.searchsorted(cs, (1.0 - self._TAIL) * total, side="left")) + 1
        rows = rows[:, a:b]
        rows = rows / rows.sum(axis=1, keepdims=True)
        cdf = np.cumsum(rows, axis=1)
        cdf[:, -1] = 1.0
        keys, starts = _pack_keys(cdf.ravel(), np.full(self.m, b - a))
        return _DyadicLevel(k0 + a, b - a, rows, keys, starts)

    def _extend(self) -> bool:
        """Build the next level; False if it would exceed the bin cap."""
        prev = self.levels[-1]
        m = self.m
        w = prev.width
        n = 2 * w - 1
        size = 1 << (n - 1).bit_length()
        if m * m * (size // 2 + 1) > self._MAX_BINS:
            return False
        # split[r, c] keeps the advances of row r that are c mod M
        s = np.arange(w)
        split = np.zeros((m, m, w))
        split[:, (prev.k0 + s) % m, s] = prev.rows
        fa = np.fft.rfft(split, size, axis=2)
        fb = np.fft.rfft(prev.rows, size, axis=1)
        r = np.arange(m)
        block = 1 << (len(self.levels) - 1)
        fc = np.zeros_like(fb)
        for c in range(m):
            fc += fa[:, c] * fb[(r + c + block) % m]
        out = np.fft.irfft(fc, size, axis=1)[:, :n]
        out[out < np.finfo(float).eps * math.log2(size) * out.max()] = 0.0
        self.levels.append(self._finish(2 * prev.k0, out))
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
        lvl = self.levels[k]
        st = state[sel]
        adv = lvl.k0 + _search(lvl.keys, lvl.starts, st, rng.random(len(sel)))
        out[sel] += adv
        state[sel] = (st + adv + (1 << k)) % self.m

    def draw(self, xs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.int64)
        if np.any(xs < 1):
            raise ValueError("dyadic sampler serves x >= 1")
        top = self._top(int(xs.max()))
        out = np.zeros(len(xs), dtype=np.int64)
        state = np.zeros(len(xs), dtype=np.int64)
        blocks = xs >> top
        for j in range(int(blocks.max())):
            self._advance(top, np.flatnonzero(blocks > j), out, state, rng)
        for k in range(top - 1, -1, -1):
            self._advance(k, np.flatnonzero((xs >> k) & 1), out, state, rng)
        return out + self.m * rng.negative_binomial(xs, self.fail)

    def draw_one(self, x: int, rng: np.random.Generator) -> int:
        x = int(x)
        if x < 1:
            raise ValueError("dyadic sampler serves x >= 1")
        top = self._top(x)
        ks = [top] * (x >> top) + [k for k in range(top - 1, -1, -1) if (x >> k) & 1]
        out = 0
        r = 0
        for k in ks:
            lvl = self.levels[k]
            adv = lvl.k0 + _search_one(lvl.keys, lvl.starts, r, rng.random())
            out += adv
            r = (r + adv + (1 << k)) % self.m
        return out + self.m * int(rng.negative_binomial(x, self.fail))


@lru_cache(maxsize=4)
def _dyadic(env: CookieEnvironment) -> _DyadicSampler:
    return _DyadicSampler(env)


def sample_U_many(
    env: CookieEnvironment, x: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized exact draws of U(x)."""
    _require_nondegenerate(env)
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0:
        return np.ones(size, dtype=np.int64)
    return _samplers(env)[1](np.full(size, x, dtype=np.int64), rng)


def _samplers(env: CookieEnvironment) -> tuple[Callable, Callable]:
    """Exact samplers of U(x), x >= 1: ``one(x, rng)`` for one draw and
    ``many(xs, rng)`` for one draw per entry of an array.  The route is
    picked here, once, because the pile checks cost O(M)."""
    const = _constant_value(env)
    if const is not None:
        p = 1.0 - const
        return (
            lambda x, rng: int(rng.negative_binomial(x, p)),
            lambda xs, rng: rng.negative_binomial(xs, p, len(xs)).astype(np.int64),
        )
    if env.kind is EnvKind.PERIODIC:
        dy = _dyadic(env)
        return dy.draw_one, dy.draw
    return (
        lambda x, rng: int(_prefix_tail_draws(env, x, 1, rng)[0]),
        lambda xs, rng: _prefix_tail_draws(env, xs, len(xs), rng),
    )


def sample_U(env: CookieEnvironment, x: int, rng: np.random.Generator) -> int:
    """One exact draw of U(x)."""
    _require_nondegenerate(env)
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0:
        return 1
    return _samplers(env)[0](x, rng)


def step_sampler(
    env: CookieEnvironment,
) -> Callable[[int, int, np.random.Generator], np.ndarray]:
    """Adapter exposing the pile as a generic chain-step sampler."""
    _require_nondegenerate(env)

    def draw(x: int, size: int, rng: np.random.Generator) -> np.ndarray:
        return sample_U_many(env, x, size, rng)

    return draw


# ---------------------------------------------------------------------
# sampler tables (ensemble fast path)
# ---------------------------------------------------------------------


# Largest chain size the ensemble serves from a table: the rows that one
# key array addresses.
_TABLE_CAP = _KEY_ROWS


class _UTable:
    """Inverse-CDF rows of U(x) for every x up to a cap.

    Built from one free (absorption-free) failure-count DP: the x-th
    failure lands on trial n exactly when the free process has x - 1
    failures after n - 1 trials and trial n fails, so a single sweep
    serves all rows.  Rows are trimmed to relative mass 1 - 2e-15 and
    renormalized; the table backs samplers only, never the oracle.

    Row x - 1 of the packed ``keys`` holds the cdf of U(x) beyond its
    first ``row_k0[x - 1]`` successes.  A draw is one search of the keys,
    exact for every u = j / 2^53 that ``rng.random()`` returns (see
    ``_U_BITS``), so it lands where a search of the float cdf row would.
    The cap is at most ``_TABLE_CAP`` = 2^11 rows, which one key array
    addresses.
    """

    def __init__(self, x_cap: int, row_k0: np.ndarray, keys: tuple[np.ndarray, ...], starts: np.ndarray):
        self.x_cap = x_cap
        self.row_k0 = row_k0
        self.keys = keys
        self.starts = starts

    @staticmethod
    def build(env: CookieEnvironment, x_cap: int) -> "_UTable":
        mu = min(asymptotic_mu(env), 256.0)
        scale = _diffusion_scale(env) + 0.5
        width = int(x_cap * max(1.0, mu) + 40.0 * math.sqrt(scale * x_cap * max(1.0, mu)) + 256)
        dense = np.zeros((x_cap, width))
        # live[f] = P(free failure process sits at f), kept on the
        # significant window [lo, hi); mass crossing f = x_cap is dropped.
        live = np.zeros(x_cap)
        live[0] = 1.0
        lo = 0
        hi = 1
        n = 0
        cap = _horizon_cap(env, x_cap)
        while n < cap:
            c = env.cookie_at(n + 1)
            q = 1.0 - c
            f = np.arange(lo, hi)
            k = n - f
            keep = k < width
            if not np.all(keep):
                f = f[keep]
                k = k[keep]
            dense[f, k] = q * live[f]
            upper = min(hi + 1, x_cap)
            live[lo + 1 : upper] = c * live[lo + 1 : upper] + q * live[lo : upper - 1]
            live[lo] *= c
            hi = upper
            n += 1
            while lo < hi - 1 and live[lo] < 1e-18:
                lo += 1
            if n % 64 == 0 and float(live[lo:hi].sum()) < 1e-16:
                break
        else:
            raise InternalConsistencyError("sampler table build hit the trial cap")
        row_k0 = np.zeros(x_cap, dtype=np.int64)
        sizes = np.zeros(x_cap, dtype=np.int64)
        pieces: list[np.ndarray] = []
        for x in range(1, x_cap + 1):
            row = dense[x - 1]
            total = row.sum()
            if total <= 0.0:
                raise InternalConsistencyError(f"empty sampler row at x={x}")
            cs = np.cumsum(row)
            k_lo = int(np.searchsorted(cs, _ROW_TAIL * total, side="left"))
            k_hi = int(np.searchsorted(cs, (1.0 - _ROW_TAIL) * total, side="left")) + 1
            cdf = np.cumsum(row[k_lo:k_hi])
            cdf /= cdf[-1]
            cdf[-1] = 1.0
            row_k0[x - 1] = k_lo
            sizes[x - 1] = len(cdf)
            pieces.append(cdf)
        return _UTable(x_cap, row_k0, *_pack_keys(np.concatenate(pieces), sizes))

    def draw(self, xs: np.ndarray, u: np.ndarray) -> np.ndarray:
        """One inverse-CDF draw per entry; xs must be within the cap."""
        rows = xs - 1
        return self.row_k0[rows] + _search(self.keys, self.starts, rows, u)

    def draw_one(self, x: int, u: float) -> int:
        return int(self.row_k0[x - 1]) + _search_one(self.keys, self.starts, x - 1, u)


@lru_cache(maxsize=8)
def _cached_table(env: CookieEnvironment, x_cap: int) -> _UTable:
    return _UTable.build(env, x_cap)


# ---------------------------------------------------------------------
# crossing chain simulation
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class ZRunSummary:
    """Outcome of one crossing-chain run."""

    direction: str
    horizon: int
    hit_zero_step: Optional[int]
    survived: bool
    escaped: bool = False


def _directed(env: CookieEnvironment, direction: str) -> CookieEnvironment:
    if direction == "right":
        return env
    if direction == "left":
        return env.mirror()
    raise ValueError(f"direction must be 'right' or 'left', got {direction!r}")


def _variance_rate(env: CookieEnvironment) -> float:
    """Generous upper bound on Var(U(z)) / z for large z."""
    mu = max(asymptotic_mu(env), 1.0)
    return max(_diffusion_scale(env), 2.0 * mu * (1.0 + mu), 0.5)


def _escape_threshold(env: CookieEnvironment, horizon: int) -> Optional[int]:
    """Chain size above which a run is declared to survive.

    The policy is ``bpm.escape_threshold``; this supplies the chain's
    variance rate and the constant downward drift of its size bias.
    """
    if env.kind is EnvKind.PERIODIC:
        down = 2.0 * float(env.period)
    else:
        delta = float(sum(2.0 * p - 1.0 for p in env.params))
        down = max(0.0, -delta)
    return escape_threshold(asymptotic_mu(env), _variance_rate(env), down, horizon)


def simulate_Z(
    env: CookieEnvironment,
    direction: str,
    horizon: int,
    rng: np.random.Generator,
) -> ZRunSummary:
    """One crossing-chain run from Z_0 = 1 with 0 absorbing."""
    eff = _directed(env, direction)
    _require_nondegenerate(eff)
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    esc = _escape_threshold(eff, horizon)
    draw = _samplers(eff)[0]
    z = 1
    for step in range(1, horizon + 1):
        z = draw(z, rng)
        if z == 0:
            return ZRunSummary(direction, horizon, step, False)
        if esc is not None and z >= esc:
            return ZRunSummary(direction, horizon, None, True, escaped=True)
    return ZRunSummary(direction, horizon, None, True)


def simulate_Z_ensemble(
    env: CookieEnvironment,
    direction: str,
    horizon: int,
    trials: int,
    master_seed: Optional[int] = None,
) -> ZEnsembleResult:
    """Ensemble of crossing-chain runs from Z_0 = 1 (``bpm.absorb``).

    Lockstep draws for sizes within the table cap come from precomputed
    inverse-CDF rows, larger sizes from the exact vector samplers; the
    last few runs finish through scalar draws.  Results are a pure
    function of (environment, direction, horizon, trials, master_seed).
    """
    eff = _directed(env, direction)
    _require_nondegenerate(eff)
    if horizon < 1 or trials < 1:
        raise ValueError("horizon and trials must be at least 1")
    if master_seed is None:
        master_seed = default_seed()
    rng = substream(master_seed, TAG_ZSIM)
    esc = _escape_threshold(eff, horizon)
    one, many = _samplers(eff)
    if _constant_value(eff) is not None:
        return absorb(1, horizon, trials, esc, many, one, rng)
    table = _cached_table(eff, max(64, _TABLE_CAP if esc is None else min(_TABLE_CAP, esc)))

    def step(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        u = rng.random(len(x))
        small = x <= table.x_cap
        k = np.empty(len(x), dtype=np.int64)
        if np.any(small):
            k[small] = table.draw(x[small], u[small])
        if not np.all(small):
            big = ~small
            k[big] = many(x[big], rng)
        return k

    def step_one(z: int, rng: np.random.Generator) -> int:
        return table.draw_one(z, rng.random()) if z <= table.x_cap else one(z, rng)

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
        header = list(rows[0])
        if header != list(LadderStats.FIELDS):
            raise ValueError(f"unexpected ladder header {header!r}")
        entries = []
        for row in rows[1:]:
            vals = dict(zip(header, row))
            entries.append(
                LadderEntry(
                    x=int(vals["x"]),
                    trials=int(vals["trials"]),
                    rho_hat=float(vals["rho_hat"]),
                    nu_hat=float(vals["nu_hat"]),
                    theta_hat=float(vals["theta_hat"]),
                    se_rho=float(vals["se_rho"]),
                    se_nu=float(vals["se_nu"]),
                    se_theta=float(vals["se_theta"]),
                )
            )
        return LadderStats(tuple(entries))


def empirical_ladder(
    env: CookieEnvironment,
    xs: Sequence[int],
    trials: int,
    rng: np.random.Generator,
    block: int = 1 << 16,
) -> LadderStats:
    """Monte Carlo estimates of rho(x), nu(x) and theta at each x.

    Standard errors are plug-in CLT estimates; the theta error combines
    the drift and diffusion errors through a first-order delta method
    with their sampled covariance.
    """
    _require_nondegenerate(env)
    xs = list(xs)
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
            b = min(block, trials - done)
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
            raise InternalConsistencyError(f"degenerate diffusion estimate at x={x}")
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
