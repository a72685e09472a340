"""Byte-identity guard rail: the draws of fixed calls, pinned by SHA-256.

Refactors of the piles, the samplers or the walk engine must not change
what any existing pile draws from a given seed.  Each case hashes the
raw outputs of one public entry point; a changed hash means a changed
random stream (or a changed law), which the laws tests alone would not
catch.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from erwlab import kks
from erwlab.bpm import BpmModel, parse_migration, parse_offspring, simulate_bpm
from erwlab.criterion import lyapunov_drift
from erwlab.environments import parse_env
from erwlab.kks import sample_U, sample_U_many, simulate_Z_ensemble
from erwlab.seeding import DEFAULT_SEED, TAG_GENERAL, TAG_LADDER, TAG_LYAPUNOV, substream
from erwlab.walk import edge_crossings, ensemble_walks

S = DEFAULT_SEED


def _sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(part.astype("<i8").tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "literal,digest",
    [
        ("periodic:0.9,0.1", "05b163e76e90277444b0ab37ad70724f27000c92dd2db6266c4fd8c0c19b6c9f"),
        ("periodic:0.7,0.7", "d4bc54853e28248663f4fcf53109b0862b385428a4575da71e3e7b3faa68d763"),
        ("bounded:0.9,0.9", "e5ec0e4bc7935f8d2743b758623804ce5b314ce43654235bc3adaacd65a89029"),
        ("tail:0.9,0.2@0.4", "0a8c2d70aaff546f2befdc5d2860f64959f55bcb5e95210aed61be57c0c2e13c"),
    ],
)
def test_step_draws_are_pinned(literal, digest):
    env = parse_env(literal)
    parts = []
    for i, x in enumerate((1, 7, 300)):
        rng = substream(S, TAG_GENERAL, 90, i)
        parts.append(sample_U_many(env, x, 500, rng))
        parts.append([sample_U(env, x, rng) for _ in range(20)])
    assert _sha(parts) == digest


# The 2049-slot pile: its bin cap refuses every square, so x = 40 draws
# level 0, the log-space search, forty times.
_PERIOD_2049 = "periodic:" + ",".join(["0.99,0.98"] * 1024 + ["0.99"])


@pytest.mark.parametrize(
    "literal,x,digest",
    [
        ("periodic:0.9,0.9,0.1,0.1", 10**6,
         "8370943860e51e5e53d47428cc27d3f99abc589954c4c3f1cb725435cecaf992"),
        (_PERIOD_2049, 40,
         "1b014acda6f9a69d77dab6e8ded87b5bd6d200b2370b18704a2ae2bf7fe39b5d"),
    ],
    ids=["levels-0-to-19", "refused-square"],
)
def test_deep_level_draws_are_pinned(literal, x, digest):
    env = parse_env(literal)
    rng = substream(S, TAG_GENERAL, 91)
    parts = [sample_U_many(env, x, 300, rng), [sample_U(env, x, rng) for _ in range(20)]]
    assert _sha(parts) == digest


def _trace_parts(traces) -> list:
    parts = [(t.final_position, t.max_abs_position, t.returns_to_origin,
              t.first_hit_minus1, t.distinct_sites) for t in traces]
    return parts + [t.positions for t in traces]


def test_walk_draws_are_pinned():
    env = parse_env("bounded:0.9,0.8")
    parts = _trace_parts(ensemble_walks(env, 600, 12, master_seed=S, record_every=50))
    counts, censored = edge_crossings(env, 40, 3_000, edges=(0, 1, 3), master_seed=S)
    parts += [counts, censored.astype(np.int64)]
    # Every position of a periodic walk whose steps end mid-chunk, and
    # the crossings of a transient pile whose trials die in every chunk.
    every = _trace_parts(ensemble_walks(parse_env("periodic:0.9,0.1"), 1_000, 12,
                                        master_seed=S, record_every=1))
    counts, censored = edge_crossings(parse_env("periodic:0.9,0.9,0.1,0.1"), 40, 3_000,
                                      edges=(0, 1, 2), master_seed=S)
    digests = [_sha(parts), _sha(every), _sha([counts, censored.astype(np.int64)])]
    assert digests == [
        "32d589a1343d25ff68ae6aa0d3850471a74d2466066bb17f8ffa5b2c3d258c1f",
        "164e000c6e9f45f5a1e1d67f4435cd6e66d275bf9924e5ebe6f4a9bb963ac7b9",
        "05fe0b4c50f212e947e042d15f7a27ac84d4c469042a6d30c1ad8f24b5a9a6da",
    ]


@pytest.mark.parametrize(
    "literal,digest",
    [
        ("periodic:0.9,0.1", "77c154827644628c6f047ff29b3538ec0633b374d1c0160d9e127fdcd4b1aabb"),
        ("bounded:0.9,0.9", "0ccdf8919e67b6954413dbd6c1275a35986945c4e34ebb432f52b0af8d7acc72"),
        ("tail:0.9,0.2@0.4", "40396e0c39e82459cfeedf0578b15052423a13447f3bd705ef735a59da48ad50"),
    ],
)
def test_chain_draws_are_pinned(literal, digest):
    env = parse_env(literal)
    parts = []
    for direction in ("right", "left"):
        res = simulate_Z_ensemble(env, direction, 200, 400, master_seed=S)
        parts += [res.death_steps, res.escaped]
    assert _sha(parts) == digest


def test_chain_past_the_table_cap_is_pinned(monkeypatch):
    # Surviving runs of this theta = 4/3 pile grow past the table's 2048
    # rows, so the lockstep step sends its largest sizes to the dyadic
    # sampler, in batches of one row up to a few dozen.
    sizes = []
    draw = kks._DyadicSampler.draw

    def counted(self, xs, rng):
        sizes.append(len(xs))
        return draw(self, xs, rng)

    monkeypatch.setattr(kks._DyadicSampler, "draw", counted)
    kks._samplers.cache_clear()  # cached samplers hold the unpatched method
    try:
        res = simulate_Z_ensemble(parse_env("periodic:0.9,0.9,0.1,0.1"), "right", 2000, 500,
                                  master_seed=S)
    finally:
        kks._samplers.cache_clear()
    assert min(sizes) == 1 and max(sizes) > kks._SCALAR_ROWS
    assert _sha([res.death_steps, res.escaped]) == (
        "cabb66b9d0be772fc893c24b575ef10a0713cc9795c45ee623d503fe973ff572")


def test_bpm_runs_are_pinned():
    parts = []
    for migration in ("const:2", "const:0", "table:0.3,0.2,0.5@0"):
        model = BpmModel(parse_offspring("geometric:1"), parse_migration(migration))
        res = simulate_bpm(model, 500, 400, master_seed=S)
        parts += [res.death_steps, res.escaped]
    # const:2 never dies: migration alone keeps the population above 0.
    assert _sha(parts) == (
        "d2d51df7a5dd8aae86e717fb6e85527099ef65a5ddfcd464ecfa5b27f1739666")


# The ladder and Lyapunov estimators draw blocks of 2^16 values, so
# 70,000 trials span two blocks.  The piles are the benchmark's.
_ESTIMATOR_TRIALS = 70_000


@pytest.mark.parametrize(
    "literal,digest",
    [
        ("periodic:0.9,0.9,0.1,0.1",
         "77c584cb42d0a170227d735bac1c5432c56d79b72cf01bb88b4b0d6b375fc401"),
        ("periodic:0.9,0.1",
         "79b6303edc27e133ea557f5f7d8705ef41decdc7278f174c496e172c8b9c80cd"),
        ("bounded:0.9,0.9",
         "ea7540d58d71bf1f74225b87723310db268834d720a9e27efa1385fced223d72"),
    ],
)
def test_ladder_estimates_are_pinned(literal, digest):
    stats = kks.empirical_ladder(parse_env(literal), (20, 100, 500, 10_000), _ESTIMATOR_TRIALS,
                                 substream(S, TAG_LADDER))
    assert _sha(stats.to_rows()) == digest


def test_lyapunov_drift_is_pinned():
    sampler = kks.step_sampler(parse_env("periodic:0.9,0.1"))
    drift, se = lyapunov_drift(sampler, "loglog", 10_000, _ESTIMATOR_TRIALS,
                               substream(S, TAG_LYAPUNOV))
    assert _sha([drift, se]) == (
        "e11f3d28e23dddaab713d60b8e736d996bc842319d4dd52164cd0e94cbe45d9d")
