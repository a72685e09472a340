"""Slow, independent routes that tests compare the package against.

None of these is used by the package itself: each one recomputes a law
or a fixed point the direct way, so a test can hold the fast route to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from erwlab.bpm import BpmModel, _bpm_step
from erwlab.environments import CookieEnvironment
from erwlab.kks import (
    _ROW_TAIL,
    _DyadicSampler,
    _failure_counts,
    _InverseCdf,
    _require_nondegenerate,
)
from erwlab.periodic import InternalConsistencyError
from erwlab.walk import WalkTrace, _check_sizes


def power_iteration_stationary(matrix: np.ndarray, tol: float = 1e-13, max_iter: int = 100000) -> np.ndarray:
    """Dominant left eigenvector of a stochastic matrix, normalized."""
    m = matrix.shape[0]
    pi = np.full(m, 1.0 / m)
    for _ in range(max_iter):
        nxt = pi @ matrix
        nxt = nxt / nxt.sum()
        if np.max(np.abs(nxt - pi)) < tol:
            return nxt
        pi = nxt
    raise InternalConsistencyError("power iteration did not converge")


def sample_U_reference(env: CookieEnvironment, x: int, rng: np.random.Generator) -> int:
    """Trial-by-trial Bernoulli draw of U(x)."""
    _require_nondegenerate(env)
    if x == 0:
        return 1
    fails = 0
    succ = 0
    i = 0
    while fails < x:
        i += 1
        if rng.random() < env.cookie_at(i):
            succ += 1
        else:
            fails += 1
    return succ


def full_forward_U_masses(env: CookieEnvironment, x: int, trials: int) -> np.ndarray:
    """P(U(x) = n - x) for n = x, ..., ``trials``: the forward
    failure-count recursion over every count below x at every trial,
    with no window and nothing trimmed."""
    live = np.zeros(x)
    live[0] = 1.0
    masses = []
    for n in range(1, trials + 1):
        c = env.cookie_at(n)
        chances = (1.0 - c) * live
        live *= c
        live[1:] += chances[:-1]
        if n >= x:
            masses.append(chances[-1])
    return np.array(masses)


def chain_table_rowwise(env: CookieEnvironment, cap: int) -> _InverseCdf:
    """The chain table built one row at a time: one sweep of
    ``_failure_counts`` keeps every trial's chances, then each row is
    gathered, trimmed and accumulated on its own."""
    los, emitted = zip(*_failure_counts(env, cap, 1e-18, 1e-16))
    lo = np.array(los)
    hi = lo + [len(e) for e in emitted]
    flat = np.concatenate(emitted)
    # Trial t (from 0) emits failure f + 1 at flat[base[t] + f] for
    # lo[t] <= f < hi[t]; row f takes trials first[f] .. ends[f] - 1.
    base = np.cumsum(hi - lo) - hi
    rows = np.arange(cap)
    first = np.searchsorted(hi, rows, side="right")
    ends = np.searchsorted(lo, rows, side="right")
    row_k0 = first - rows
    pieces = []
    for f in range(cap):
        row = flat[base[first[f] : ends[f]] + f]
        total = row.sum()
        cs = np.cumsum(row)
        k_lo = int(np.searchsorted(cs, _ROW_TAIL * total, side="left"))
        k_hi = int(np.searchsorted(cs, (1.0 - _ROW_TAIL) * total, side="left")) + 1
        cdf = np.cumsum(row[k_lo:k_hi])
        cdf /= cdf[-1]
        cdf[-1] = 1.0
        row_k0[f] += k_lo
        pieces.append(cdf)
    sizes = np.array([len(p) for p in pieces])
    return _InverseCdf(np.concatenate(pieces), sizes, row_k0)


def dyadic_vector_walk(
    sampler: _DyadicSampler, xs: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """The dyadic level walk as whole-batch numpy steps: every draw's
    top blocks, one ``rng.random`` call per block, then one call per
    lower bit for the draws that have it, then one negative binomial
    call for the period wraps."""
    top = sampler._top(int(xs.max()))
    out = np.zeros(len(xs), dtype=np.int64)
    state = np.zeros(len(xs), dtype=np.int64)
    steps = [(top, xs >> top > j) for j in range(int((xs >> top).max()))]
    steps += [(k, (xs >> k) & 1 == 1) for k in range(top - 1, -1, -1)]
    for k, mask in steps:
        sel = np.flatnonzero(mask)
        st = state[sel]
        adv = sampler.levels[k].inv.draw(st, rng.random(len(sel)))
        out[sel] += adv
        state[sel] = (st + adv + (1 << k)) % sampler.m
    return out + sampler.m * rng.negative_binomial(xs, sampler.fail)


def bpm_step_samples(
    model: BpmModel, x: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Draws of one population step from size x (for ladder reuse)."""
    if x < 1:
        raise ValueError("step samples need x >= 1")
    return _bpm_step(model, np.full(size, x, dtype=np.int64), rng)


def run_walk(
    env: CookieEnvironment,
    steps: int,
    rng: np.random.Generator,
    record_every: int = 0,
    local_times: Optional[dict[int, int]] = None,
) -> WalkTrace:
    """One walk from the origin for ``steps`` steps, on raw visit counts
    and one uniform per step: the scalar reference for the lockstep
    engine's rows.  A ``local_times`` dict given is filled with every
    visited site's number of visits, counting the arrival at the final
    site."""
    _check_sizes(steps, 1, record_every)
    visits = {} if local_times is None else local_times
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
    )


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
