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

from erwlab.environments import parse_env
from erwlab.kks import sample_U, sample_U_many, simulate_Z_ensemble
from erwlab.seeding import DEFAULT_SEED, TAG_GENERAL, substream
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
        ("periodic:0.9,0.1", "162a308881cfb82f45b0100d68593e8a4b8248294d3888828c8fc43001346bb7"),
        ("periodic:0.7,0.7", "d4bc54853e28248663f4fcf53109b0862b385428a4575da71e3e7b3faa68d763"),
        ("bounded:0.9,0.9", "21e863db6c6fead61a00cca7219028b356105e7cedcfc1a7d4298356724a976d"),
        ("tail:0.9,0.2@0.4", "149792f5408b24233a5e83e8c2c87bc0cc34ae22071107227c3f3296b14f779b"),
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


def test_walk_draws_are_pinned():
    env = parse_env("bounded:0.9,0.8")
    traces = ensemble_walks(env, 600, 12, master_seed=S, record_every=50)
    parts = [(t.final_position, t.max_abs_position, t.returns_to_origin,
              t.first_hit_minus1, t.distinct_sites) for t in traces]
    parts += [t.positions for t in traces]
    counts, censored = edge_crossings(env, 40, 3_000, edges=(0, 1, 3), master_seed=S)
    parts += [counts, censored.astype(np.int64)]
    assert _sha(parts) == "32d589a1343d25ff68ae6aa0d3850471a74d2466066bb17f8ffa5b2c3d258c1f"


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
