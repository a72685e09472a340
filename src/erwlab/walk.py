"""Direct simulation of the cookie walk on the integers.

A walker at a site with j prior visits steps right with the probability
of cookie j+1 of the pile and left otherwise.  Site occupation counts
only matter through the active cookie, so the ensemble engine stores
them reduced (mod M for periodic piles, saturated at the prefix length
for piles with a constant tail); the reduced representation consumes
the same uniform draw per step as the full one and is trajectory-exact.

Ensembles give every trial its own substream keyed by the master seed
and the trial index, and reduce results in trial order, so output is
identical no matter how trials are chunked across threads.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .environments import CookieEnvironment, EnvKind
from .seeding import TAG_CROSSINGS, TAG_WALK, default_seed, substream

_GROUP = 1024
_STEP_CHUNK = 1024


@dataclass(frozen=True)
class WalkTrace:
    """Summary of one walk trajectory."""

    steps: int
    final_position: int
    max_abs_position: int
    returns_to_origin: int
    first_hit_minus1: Optional[int]
    distinct_sites: int
    positions: Optional[np.ndarray] = field(default=None, compare=False)


def _cookie_tables(env: CookieEnvironment) -> tuple[np.ndarray, np.ndarray]:
    """(probability by reduced count, next reduced count) lookup tables."""
    m = env.period
    if env.kind is EnvKind.PERIODIC:
        probs = np.asarray(env.params, dtype=float)
        nxt = (np.arange(m, dtype=np.int64) + 1) % m
        return probs, nxt
    probs = np.asarray(list(env.params) + [float(env.tail_value)], dtype=float)
    nxt = np.minimum(np.arange(m + 1, dtype=np.int64) + 1, m)
    return probs, nxt


def run_walk(
    env: CookieEnvironment,
    steps: int,
    rng: np.random.Generator,
    count_mode: str = "reduced",
    record_every: int = 0,
) -> WalkTrace:
    """Simulate one walk from the origin for ``steps`` steps.

    ``count_mode`` chooses the occupation-count representation:
    ``reduced`` keeps counts mod-M/saturated, ``full`` keeps raw counts.
    Both consume one uniform per step and produce identical paths.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if count_mode not in ("reduced", "full"):
        raise ValueError(f"unknown count mode {count_mode!r}")
    probs, nxt = _cookie_tables(env)
    m = env.period
    periodic = env.kind is EnvKind.PERIODIC
    tail = None if periodic else float(env.tail_value)  # type: ignore[arg-type]
    counts: dict[int, int] = {}
    pos = 0
    minpos = maxpos = 0
    returns = 0
    first_m1: Optional[int] = None
    recorded = [0] if record_every else None
    for k in range(1, steps + 1):
        c = counts.get(pos, 0)
        if count_mode == "reduced":
            p = probs[c]
            counts[pos] = int(nxt[c])
        else:
            if periodic:
                p = env.params[c % m]
            else:
                p = env.params[c] if c < m else tail
            counts[pos] = c + 1
        pos += 1 if rng.random() < p else -1
        if pos == 0:
            returns += 1
        if pos == -1 and first_m1 is None:
            first_m1 = k
        minpos = min(minpos, pos)
        maxpos = max(maxpos, pos)
        if recorded is not None and k % record_every == 0:
            recorded.append(pos)
    return WalkTrace(
        steps=steps,
        final_position=pos,
        max_abs_position=max(-minpos, maxpos),
        returns_to_origin=returns,
        first_hit_minus1=first_m1,
        distinct_sites=maxpos - minpos + 1,
        positions=None if recorded is None else np.asarray(recorded, dtype=np.int64),
    )


def run_walk_with_counts(
    env: CookieEnvironment, steps: int, rng: np.random.Generator
) -> tuple[WalkTrace, dict[int, int]]:
    """Full-count walk that also returns the site local times."""
    probs, _ = _cookie_tables(env)
    m = env.period
    periodic = env.kind is EnvKind.PERIODIC
    tail = None if periodic else float(env.tail_value)  # type: ignore[arg-type]
    counts: dict[int, int] = {}
    pos = 0
    minpos = maxpos = 0
    returns = 0
    first_m1: Optional[int] = None
    for k in range(1, steps + 1):
        c = counts.get(pos, 0)
        counts[pos] = c + 1
        if periodic:
            p = env.params[c % m]
        else:
            p = env.params[c] if c < m else tail
        pos += 1 if rng.random() < p else -1
        if pos == 0:
            returns += 1
        if pos == -1 and first_m1 is None:
            first_m1 = k
        minpos = min(minpos, pos)
        maxpos = max(maxpos, pos)
    # the site being left last still owes its arrival count
    counts[pos] = counts.get(pos, 0) + 1
    trace = WalkTrace(
        steps=steps,
        final_position=pos,
        max_abs_position=max(-minpos, maxpos),
        returns_to_origin=returns,
        first_hit_minus1=first_m1,
        distinct_sites=maxpos - minpos + 1,
    )
    return trace, counts


# ---------------------------------------------------------------------
# vectorized ensembles
# ---------------------------------------------------------------------


class _Grid:
    """Resizable occupation-count grid for a group of walkers."""

    def __init__(self, width: int, half: int = 2048):
        self.half = half
        self.counts = np.zeros((width, 2 * half + 1), dtype=np.int16)
        self.rows = np.arange(width)

    def ensure(self, amplitude: int) -> None:
        while amplitude >= self.half:
            old = self.counts
            half = 2 * self.half
            grown = np.zeros((old.shape[0], 2 * half + 1), dtype=np.int16)
            off = half - self.half
            grown[:, off : off + old.shape[1]] = old
            self.counts = grown
            self.half = half

    def compress(self, keep: np.ndarray) -> None:
        self.counts = self.counts[keep]
        self.rows = np.arange(self.counts.shape[0])


def _walk_group(
    env: CookieEnvironment,
    steps: int,
    seeds: Sequence[int],
    master_seed: int,
    tag: int,
    record_every: int,
) -> list[WalkTrace]:
    probs, nxt = _cookie_tables(env)
    width = len(seeds)
    gens = [substream(master_seed, tag, t) for t in seeds]
    grid = _Grid(width)
    pos = np.zeros(width, dtype=np.int64)
    minpos = np.zeros(width, dtype=np.int64)
    maxpos = np.zeros(width, dtype=np.int64)
    returns = np.zeros(width, dtype=np.int64)
    first_m1 = np.full(width, -1, dtype=np.int64)
    n_rec = steps // record_every if record_every else 0
    rec = np.zeros((width, n_rec + 1), dtype=np.int64) if record_every else None
    u = np.empty((width, _STEP_CHUNK))
    done = 0
    while done < steps:
        cs = min(_STEP_CHUNK, steps - done)
        for i, g in enumerate(gens):
            u[i, :cs] = g.random(cs)
        grid.ensure(int(np.max(np.abs(pos))) + cs + 1)
        counts = grid.counts
        rows = grid.rows
        half = grid.half
        for s in range(cs):
            k = done + s + 1
            col = pos + half
            c = counts[rows, col]
            counts[rows, col] = nxt[c]
            right = u[:, s] < probs[c]
            np.add(pos, np.where(right, 1, -1), out=pos)
            returns += pos == 0
            hit = (first_m1 < 0) & (pos == -1)
            if np.any(hit):
                first_m1[hit] = k
            np.minimum(minpos, pos, out=minpos)
            np.maximum(maxpos, pos, out=maxpos)
            if rec is not None and k % record_every == 0:
                rec[:, k // record_every] = pos
        done += cs
    out = []
    for i in range(width):
        out.append(
            WalkTrace(
                steps=steps,
                final_position=int(pos[i]),
                max_abs_position=int(max(-minpos[i], maxpos[i])),
                returns_to_origin=int(returns[i]),
                first_hit_minus1=None if first_m1[i] < 0 else int(first_m1[i]),
                distinct_sites=int(maxpos[i] - minpos[i] + 1),
                positions=None if rec is None else rec[i].copy(),
            )
        )
    return out


def ensemble_walks(
    env: CookieEnvironment,
    steps: int,
    trials: int,
    master_seed: Optional[int] = None,
    record_every: int = 0,
    threads: int = 1,
) -> list[WalkTrace]:
    """Independent walks, one substream per trial, in trial order."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if master_seed is None:
        master_seed = default_seed()
    groups = [
        list(range(lo, min(lo + _GROUP, trials))) for lo in range(0, trials, _GROUP)
    ]
    if threads > 1 and len(groups) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(
                pool.map(
                    lambda g: _walk_group(env, steps, g, master_seed, TAG_WALK, record_every),
                    groups,
                )
            )
    else:
        parts = [
            _walk_group(env, steps, g, master_seed, TAG_WALK, record_every)
            for g in groups
        ]
    return [t for part in parts for t in part]


@dataclass(frozen=True)
class WalkEnsembleSummary:
    trials: int
    steps: int
    mean_final_position: float
    median_final_position: float
    fraction_final_positive: float
    mean_returns_to_origin: float
    median_returns_to_origin: float
    first_hit_minus1_frequency: float
    mean_max_abs_position: float
    mean_distinct_sites: float

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "steps": self.steps,
            "mean_final_position": self.mean_final_position,
            "median_final_position": self.median_final_position,
            "fraction_final_positive": self.fraction_final_positive,
            "mean_returns_to_origin": self.mean_returns_to_origin,
            "median_returns_to_origin": self.median_returns_to_origin,
            "first_hit_minus1_frequency": self.first_hit_minus1_frequency,
            "mean_max_abs_position": self.mean_max_abs_position,
            "mean_distinct_sites": self.mean_distinct_sites,
        }


def ensemble_summary(traces: Sequence[WalkTrace]) -> WalkEnsembleSummary:
    """Deterministic reduction of per-trial walk summaries."""
    if not traces:
        raise ValueError("no traces to summarize")
    finals = np.array([t.final_position for t in traces], dtype=float)
    rets = np.array([t.returns_to_origin for t in traces], dtype=float)
    hits = np.array([t.first_hit_minus1 is not None for t in traces], dtype=float)
    return WalkEnsembleSummary(
        trials=len(traces),
        steps=traces[0].steps,
        mean_final_position=float(finals.mean()),
        median_final_position=float(np.median(finals)),
        fraction_final_positive=float(np.mean(finals > 0)),
        mean_returns_to_origin=float(rets.mean()),
        median_returns_to_origin=float(np.median(rets)),
        first_hit_minus1_frequency=float(hits.mean()),
        mean_max_abs_position=float(np.mean([t.max_abs_position for t in traces])),
        mean_distinct_sites=float(np.mean([t.distinct_sites for t in traces])),
    )


def edge_crossings(
    env: CookieEnvironment,
    trials: int,
    cap_steps: int,
    edges: Sequence[int] = (0,),
    master_seed: Optional[int] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Right crossings of edges (e, e+1) before the walk first hits -1.

    Returns (counts, censored): ``counts[i, j]`` is how many times trial
    i stepped right from ``edges[j]``, and ``censored[i]`` is True when
    the trial did not reach -1 within ``cap_steps``, leaving its row a
    lower bound.
    """
    if master_seed is None:
        master_seed = default_seed()
    lefts = np.asarray(list(edges), dtype=np.int64)
    counts_out = np.zeros((trials, len(lefts)), dtype=np.int64)
    censored_out = np.zeros(trials, dtype=bool)
    for lo in range(0, trials, _GROUP):
        ids = list(range(lo, min(lo + _GROUP, trials)))
        probs, nxt = _cookie_tables(env)
        width = len(ids)
        gens = [substream(master_seed, TAG_CROSSINGS, t) for t in ids]
        grid = _Grid(width)
        pos = np.zeros(width, dtype=np.int64)
        crossings = np.zeros((width, len(lefts)), dtype=np.int64)
        active = np.arange(width)
        done = 0
        while done < cap_steps and len(active) > 0:
            cs = min(_STEP_CHUNK, cap_steps - done)
            u = np.empty((len(active), cs))
            for i, a in enumerate(active):
                u[i] = gens[a].random(cs)
            grid.ensure(int(np.max(np.abs(pos[active]))) + cs + 1)
            counts = grid.counts
            half = grid.half
            alive = np.ones(len(active), dtype=bool)
            rows = np.arange(len(active))
            for s in range(cs):
                r = rows[alive]
                if len(r) == 0:
                    break
                col = pos[active[r]] + half
                c = counts[r, col]
                counts[r, col] = nxt[c]
                right = u[r, s] < probs[c]
                here = pos[active[r]]
                for j, e in enumerate(lefts):
                    crossings[active[r], j] += ((here == e) & right).astype(np.int64)
                pos[active[r]] += np.where(right, 1, -1)
                alive[r] = pos[active[r]] != -1
            done += cs
            keep = alive
            if not np.all(keep):
                grid.compress(keep)
                active = active[keep]
        censored = np.zeros(width, dtype=bool)
        censored[active] = True
        counts_out[lo : lo + width] = crossings
        censored_out[lo : lo + width] = censored
    return counts_out, censored_out
