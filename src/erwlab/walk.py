"""Direct simulation of the cookie walk on the integers.

A walker at a site with j prior visits steps right with the probability
of cookie j+1 of the pile and left otherwise.

The lockstep engine behind ``ensemble_walks`` and ``edge_crossings``
stores each site's visit count reduced to a cookie state (a prefix
position, or a cycle slot once the prefix is used up), since only the
active cookie matters, and consumes one uniform per step.  Its step
loop only walks, recording each row's path for a chunk of steps;
returns, extremes, first hits, recorded positions and crossings are
reduced from that path once per chunk.

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
# Sites each grid row first holds on either side of the origin.
_EXTENT = 2048


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


def _check_sizes(
    steps: int, trials: int, record_every: int, steps_name: str = "steps"
) -> None:
    if steps < 0:
        raise ValueError(f"{steps_name} must be nonnegative, got {steps}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if record_every < 0:
        raise ValueError(f"record_every must be nonnegative, got {record_every}")


def _cookie_tables(env: CookieEnvironment) -> tuple[np.ndarray, np.ndarray]:
    """(probability by reduced count, next reduced count) lookup tables:
    the prefix's states, then the cycle's, whose last state leads back to
    the cycle's first.  States take the narrowest unsigned dtype that
    holds them all."""
    probs = np.asarray(env.prefix + env.cycle, dtype=float)
    nxt = np.arange(1, len(probs) + 1)
    nxt[-1] = len(env.prefix)
    return probs, nxt.astype(np.min_scalar_type(len(probs) - 1))


def _widen(
    counts: np.ndarray, left: int, right: int, low: int, high: int
) -> tuple[np.ndarray, int, int]:
    """The occupation grid ``counts``, whose rows hold sites -left..right,
    widened to hold sites low..high; returns it with its new extents.

    Each extent doubles until it covers its own side's reach, so a side
    that no walker nears keeps its size.  A grown grid keeps the old
    one's dtype and counts, and is C-contiguous like it, so
    ``counts.reshape(-1)`` stays a view."""
    new_left, new_right = left, right
    while -low > new_left:
        new_left *= 2
    while high > new_right:
        new_right *= 2
    if (new_left, new_right) == (left, right):
        return counts, left, right
    grown = np.zeros((len(counts), new_left + new_right + 1), dtype=counts.dtype)
    grown[:, new_left - left : new_left + right + 1] = counts
    return grown, new_left, new_right


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

    Steps run in chunks that double from 64 up to ``_STEP_CHUNK``, and
    every row walks to the end of each chunk.  A chunk's uniforms are
    drawn into one (rows, chunk) buffer, each row from its own substream.
    Each step only walks: it reads and advances the cookie state of every
    row's grid cell, compares the row's uniform with that cookie, and
    stores the row's next cell in a (chunk + 1, rows) path buffer.  The
    path holds flat ``int64`` cell indices, since those are what the next
    step's lookup takes (an ``int32`` index is widened on every lookup,
    which costs more than its buffer saves).  Both buffers are reused by
    every chunk, at most 8 MiB each for 1024 rows.  The path statistics
    above are reduced from the path once per chunk, through (chunk, rows)
    boolean temporaries of at most 1 MiB each.

    The grid holds one cell of the state table's dtype per row and site,
    for the sites -left..right.  Both extents start at ``_EXTENT``, and
    each doubles only when a walker could reach its end within the next
    chunk, so a transient ensemble's grid grows on one side only.

    With ``edges`` given the walk is killed at -1: a row that has hit it
    walks on with ``first_m1`` and ``crossings`` frozen, and the walk
    stops after the first chunk by whose end every row has hit it.  No
    row is dropped.  Of a killed row only ``first_m1`` and ``crossings``
    are meaningful.
    """
    probs, nxt = _cookie_tables(env)
    killed = edges is not None
    lefts = edges if killed else np.empty(0, dtype=np.int64)
    width = len(ids)
    gens = [substream(master_seed, tag, t) for t in ids]
    n_rec = steps // record_every + 1 if record_every else 0
    pos = np.zeros(width, dtype=np.int64)
    minpos = np.zeros(width, dtype=np.int64)
    maxpos = np.zeros(width, dtype=np.int64)
    returns = np.zeros(width, dtype=np.int64)
    first_m1 = np.full(width, -1, dtype=np.int64)
    rec = np.zeros((width, n_rec), dtype=np.int64)
    crossings = np.zeros((width, len(lefts)), dtype=np.int64)
    left = right = _EXTENT
    counts = np.zeros((width, left + right + 1), dtype=nxt.dtype)
    longest = min(steps, _STEP_CHUNK)
    uniforms = np.empty((width, longest))
    cells = np.empty((longest + 1, width), dtype=np.int64)
    # Chunks double up to _STEP_CHUNK, so a killed walk whose rows all die
    # early stops early; a row's draws do not depend on the chunk sizes.
    done, chunk = 0, 64
    while done < steps and not (killed and first_m1.min() >= 0):
        cs = min(chunk, steps - done)
        chunk = min(2 * chunk, _STEP_CHUNK)
        for gen, row in zip(gens, uniforms):
            gen.random(out=row[:cs])
        counts, left, right = _widen(
            counts, left, right, int(pos.min()) - cs, int(pos.max()) + cs
        )
        flat = counts.reshape(-1)
        origin = np.arange(width) * counts.shape[1] + left
        # Row s of ``path`` is every walker's cell in ``flat`` after step
        # done + s; row 0 is the chunk's start.
        path = cells[: cs + 1]
        np.add(origin, pos, out=path[0])
        for s in range(cs):
            at = path[s]
            c = flat[at]
            flat[at] = nxt[c]
            np.add(at, np.where(uniforms[:, s] < probs[c], 1, -1), out=path[s + 1])

        path -= origin
        prev, walked = path[:-1], path[1:]
        pos[:] = path[-1]
        np.minimum(minpos, path.min(axis=0), out=minpos)
        np.maximum(maxpos, path.max(axis=0), out=maxpos)
        returns += np.count_nonzero(walked == 0, axis=0)
        if record_every:
            lo, hi = done // record_every + 1, (done + cs) // record_every
            rec[:, lo : hi + 1] = path[lo * record_every - done :: record_every].T
        at_m1 = walked == -1
        stop = np.where(at_m1.any(axis=0), at_m1.argmax(axis=0), cs)
        fresh = first_m1 < 0
        hit = fresh & (stop < cs)
        first_m1[hit] = done + stop[hit] + 1
        if killed:
            # A row counts right steps only up to its first hit of -1.
            stop[~fresh] = 0
            right_steps = (walked > prev) & (np.arange(cs)[:, None] < stop)
            for j, e in enumerate(lefts):
                crossings[:, j] += np.count_nonzero(right_steps & (prev == e), axis=0)
        done += cs
    return {
        "pos": pos,
        "minpos": minpos,
        "maxpos": maxpos,
        "returns": returns,
        "first_m1": first_m1,
        "rec": rec,
        "crossings": crossings,
    }


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
