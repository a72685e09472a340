"""Direct simulation of the cookie walk on the integers.

A walker at a site with j prior visits steps right with the probability
of cookie j+1 of the pile and left otherwise.

``run_walk`` is the scalar reference walk: it keeps raw visit counts.
The lockstep engine behind ``ensemble_walks`` and ``edge_crossings``
stores them reduced to a cookie state (a prefix position, or a cycle
slot once the prefix is used up), since only the active cookie matters;
both consume one uniform per step, so they walk the same path.  The
engine's step loop only walks, recording each row's path for a chunk of
steps; returns, extremes, first hits, recorded positions and crossings
are reduced from that path once per chunk.

Every trial draws from its own substream keyed by the master seed, a
stream tag and the trial index, and results are reduced in trial order,
so output does not depend on how trials are grouped or chunked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .environments import CookieEnvironment
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
    local_times: Optional[dict[int, int]] = field(default=None, compare=False)


def _check_sizes(
    steps: int, trials: int, record_every: int, steps_name: str = "steps"
) -> None:
    if steps < 0:
        raise ValueError(f"{steps_name} must be nonnegative, got {steps}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if record_every < 0:
        raise ValueError(f"record_every must be nonnegative, got {record_every}")


def run_walk(
    env: CookieEnvironment,
    steps: int,
    rng: np.random.Generator,
    record_every: int = 0,
) -> WalkTrace:
    """Simulate one walk from the origin for ``steps`` steps.

    The reference walk: raw visit counts, one uniform per step.  Its
    ``local_times`` map each visited site to its number of visits,
    counting the arrival at the final site.
    """
    _check_sizes(steps, 1, record_every)
    visits: dict[int, int] = {}
    pos = minpos = maxpos = returns = 0
    first_m1: Optional[int] = None
    recorded = [0]
    for k in range(1, steps + 1):
        c = visits.get(pos, 0) + 1
        visits[pos] = c
        pos += 1 if rng.random() < env.cookie_at(c) else -1
        if pos == 0:
            returns += 1
        if pos == -1 and first_m1 is None:
            first_m1 = k
        minpos = min(minpos, pos)
        maxpos = max(maxpos, pos)
        if record_every and k % record_every == 0:
            recorded.append(pos)
    visits[pos] = visits.get(pos, 0) + 1
    return WalkTrace(
        steps=steps,
        final_position=pos,
        max_abs_position=max(-minpos, maxpos),
        returns_to_origin=returns,
        first_hit_minus1=first_m1,
        distinct_sites=maxpos - minpos + 1,
        positions=np.asarray(recorded, dtype=np.int64) if record_every else None,
        local_times=visits,
    )


# ---------------------------------------------------------------------
# vectorized lockstep engine
# ---------------------------------------------------------------------


def _cookie_tables(env: CookieEnvironment) -> tuple[np.ndarray, np.ndarray]:
    """(probability by reduced count, next reduced count) lookup tables:
    the prefix's states, then the cycle's, whose last state leads back to
    the cycle's first.  States take the narrowest unsigned dtype that
    holds them all."""
    probs = np.asarray(env.prefix + env.cycle, dtype=float)
    nxt = np.arange(1, len(probs) + 1)
    nxt[-1] = len(env.prefix)
    return probs, nxt.astype(np.min_scalar_type(len(probs) - 1))


class _Grid:
    """Resizable occupation-count grid for a group of walkers.

    Cells hold reduced counts of ``dtype``, the dtype of the pile's state
    table.  ``counts`` is always C-contiguous, so ``counts.reshape(-1)``
    is a view of it.
    """

    def __init__(self, width: int, dtype: np.dtype, half: int = 2048):
        self.half = half
        self.counts = np.zeros((width, 2 * half + 1), dtype=dtype)

    def ensure(self, amplitude: int) -> None:
        while amplitude >= self.half:
            old = self.counts
            half = 2 * self.half
            grown = np.zeros((old.shape[0], 2 * half + 1), dtype=old.dtype)
            off = half - self.half
            grown[:, off : off + old.shape[1]] = old
            self.counts = grown
            self.half = half

    def compress(self, keep: np.ndarray) -> None:
        self.counts = self.counts[keep]


def _lockstep(
    env: CookieEnvironment,
    steps: int,
    ids: range,
    master_seed: int,
    tag: int,
    record_every: int = 0,
    edges: Optional[np.ndarray] = None,
) -> dict[str, np.ndarray]:
    """Walk trials ``ids`` side by side for up to ``steps`` steps.

    Returns per-trial arrays in ``ids`` order: ``pos``, ``minpos``,
    ``maxpos``, ``returns``, ``first_m1`` (-1 if the walk never hit -1),
    ``rec`` (every ``record_every``-th position from step 0) and
    ``crossings`` (right steps from each of ``edges`` before the first
    hit of -1; no columns without ``edges``).

    Steps run in chunks that double from 64 up to ``_STEP_CHUNK``.  Each
    step only walks: it reads and advances the cookie state of every
    row's grid cell, compares the row's uniform with that cookie, and
    stores the row's next cell in the chunk's path buffer.  The buffer
    holds flat ``int64`` cell indices, since those are what the next
    step's lookup takes (an ``int32`` index is widened on every lookup,
    which costs more than its buffer saves); at (chunk + 1, rows) it is
    the size of the chunk's uniforms, at most 8 MiB for 1024 rows.  The
    path statistics above are reduced from it once per chunk.

    With ``edges`` given the walk is killed at -1: rows that have hit it
    are dropped at the end of each chunk, after walking on to its end.
    Of a killed row only ``first_m1`` and ``crossings`` are meaningful.
    Each row draws its chunk of uniforms from its own substream, so
    dropping rows changes no other row's draws.
    """
    probs, nxt = _cookie_tables(env)
    killed = edges is not None
    lefts = edges if killed else np.empty(0, dtype=np.int64)
    width = len(ids)
    gens = [substream(master_seed, tag, t) for t in ids]
    n_rec = steps // record_every + 1 if record_every else 0
    state = {
        "pos": np.zeros(width, dtype=np.int64),
        "minpos": np.zeros(width, dtype=np.int64),
        "maxpos": np.zeros(width, dtype=np.int64),
        "returns": np.zeros(width, dtype=np.int64),
        "first_m1": np.full(width, -1, dtype=np.int64),
        "rec": np.zeros((width, n_rec), dtype=np.int64),
        "crossings": np.zeros((width, len(lefts)), dtype=np.int64),
    }
    out = {name: np.empty_like(a) for name, a in state.items()}
    live = np.arange(width)
    grid = _Grid(width, nxt.dtype)
    # Chunks double up to _STEP_CHUNK, so killed rows that die early are
    # dropped early; a row's draws do not depend on the chunk sizes.
    done, chunk = 0, 64
    while done < steps and len(live) > 0:
        cs = min(chunk, steps - done)
        chunk = min(2 * chunk, _STEP_CHUNK)
        u = np.stack([gens[i].random(cs) for i in live], axis=1)
        pos, minpos, maxpos, returns, first_m1, rec, crossings = state.values()
        grid.ensure(int(np.max(np.abs(pos))) + cs + 1)
        flat = grid.counts.reshape(-1)
        origin = np.arange(len(live)) * grid.counts.shape[1] + grid.half
        # Row s of ``path`` is every walker's cell in ``flat`` after step
        # done + s; row 0 is the chunk's start.
        path = np.empty((cs + 1, len(live)), dtype=np.int64)
        np.add(origin, pos, out=path[0])
        for s in range(cs):
            at = path[s]
            c = flat[at]
            flat[at] = nxt[c]
            np.add(at, np.where(u[s] < probs[c], 1, -1), out=path[s + 1])
        del u, at, c

        path -= origin
        prev, walked = path[:-1], path[1:]
        pos[:] = path[-1]
        np.minimum(minpos, path.min(axis=0), out=minpos)
        np.maximum(maxpos, path.max(axis=0), out=maxpos)
        returns += np.count_nonzero(walked == 0, axis=0)
        if record_every:
            lo, hi = done // record_every + 1, (done + cs) // record_every
            rec[:, lo : hi + 1] = path[lo * record_every - done :: record_every].T
        fresh = np.flatnonzero(first_m1 < 0)
        at_m1 = walked[:, fresh] == -1
        stop = np.where(at_m1.any(axis=0), at_m1.argmax(axis=0), cs)
        hit = stop < cs
        first_m1[fresh[hit]] = done + stop[hit] + 1
        if killed:
            # Every killed row is fresh: rows that hit -1 are dropped.
            right = (walked > prev) & (np.arange(cs)[:, None] < stop)
            for j, e in enumerate(lefts):
                crossings[:, j] += np.count_nonzero(right & (prev == e), axis=0)
        del path, prev, walked
        done += cs
        alive = first_m1 < 0
        if killed and not alive.all():
            for name, a in state.items():
                out[name][live[~alive]] = a[~alive]
                state[name] = a[alive]
            live = live[alive]
            grid.compress(alive)
    for name, a in state.items():
        out[name][live] = a
    return out


def ensemble_walks(
    env: CookieEnvironment,
    steps: int,
    trials: int,
    master_seed: Optional[int] = None,
    record_every: int = 0,
) -> list[WalkTrace]:
    """Independent walks, one substream per trial, in trial order."""
    _check_sizes(steps, trials, record_every)
    if master_seed is None:
        master_seed = default_seed()
    traces = []
    for lo in range(0, trials, _GROUP):
        ids = range(lo, min(lo + _GROUP, trials))
        g = _lockstep(env, steps, ids, master_seed, TAG_WALK, record_every)
        for i in range(len(ids)):
            first = int(g["first_m1"][i])
            traces.append(
                WalkTrace(
                    steps=steps,
                    final_position=int(g["pos"][i]),
                    max_abs_position=int(max(-g["minpos"][i], g["maxpos"][i])),
                    returns_to_origin=int(g["returns"][i]),
                    first_hit_minus1=None if first < 0 else first,
                    distinct_sites=int(g["maxpos"][i] - g["minpos"][i] + 1),
                    positions=g["rec"][i] if record_every else None,
                )
            )
    return traces


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
    _check_sizes(cap_steps, trials, 0, "cap_steps")
    if master_seed is None:
        master_seed = default_seed()
    lefts = np.asarray(list(edges), dtype=np.int64)
    groups = [
        _lockstep(env, cap_steps, range(lo, min(lo + _GROUP, trials)),
                  master_seed, TAG_CROSSINGS, edges=lefts)
        for lo in range(0, trials, _GROUP)
    ]
    counts = np.concatenate([g["crossings"] for g in groups])
    censored = np.concatenate([g["first_m1"] < 0 for g in groups])
    return counts, censored
