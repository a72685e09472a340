"""Deterministic random-stream plumbing.

Every stochastic entry point advances a stream derived from a master seed
and a small integer key, so equal configurations reproduce byte-identical
results no matter how work is grouped or chunked.
"""

from __future__ import annotations

import os

import numpy as np

DEFAULT_SEED = 0xC00C1E

SEED_ENV_VAR = "ERWLAB_SEED"

# Fixed stream tags; per-trial keys are appended after the tag.
TAG_LADDER = 1
TAG_ZSIM = 2
TAG_WALK = 3
TAG_BPM = 4
TAG_LYAPUNOV = 5
TAG_CROSSINGS = 6
TAG_GENERAL = 7


def default_seed() -> int:
    """Built-in master seed, overridable through the environment."""
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw, 0)
    except ValueError as exc:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator keyed by (master_seed, *key)."""
    seq = np.random.SeedSequence([int(master_seed), *[int(k) for k in key]])
    return np.random.Generator(np.random.PCG64(seq))
