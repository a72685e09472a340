"""Branching processes with migration.

The population recursion is

    Z_{n+1} = max(xi_1 + ... + xi_{Z_n} + eta, 0)   while Z_n > 0,

with i.i.d. offspring counts xi and an independent migration term eta
per generation; 0 is absorbing.  The survival classification mirrors
the crossing-chain one: supercritical offspring means survival with
positive probability, subcritical means almost-sure extinction, and in
the critical mean-1 case the ratio theta = 2*E[eta]/Var[xi] decides,
with survival exactly when theta exceeds 1.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .seeding import TAG_BPM, default_seed, substream

_MU_ONE_TOL = 1e-12


class BpmOutcome(enum.Enum):
    SURVIVES = "Survives"
    DIES_OUT = "DiesOut"


@dataclass(frozen=True)
class OffspringSpec:
    """Offspring law on the nonnegative integers.

    Families: ``geometric`` (on {0,1,...} with the given mean),
    ``poisson``, and ``tabular`` with an explicit finite pmf.
    """

    family: str
    mean: float
    var: float
    pmf: Optional[tuple[float, ...]] = None

    @staticmethod
    def geometric(mean: float) -> "OffspringSpec":
        if mean <= 0.0:
            raise ValueError("geometric offspring needs positive mean")
        return OffspringSpec("geometric", mean, mean * (1.0 + mean))

    @staticmethod
    def poisson(mean: float) -> "OffspringSpec":
        if mean <= 0.0:
            raise ValueError("poisson offspring needs positive mean")
        return OffspringSpec("poisson", mean, mean)

    @staticmethod
    def tabular(pmf: Sequence[float]) -> "OffspringSpec":
        probs = np.asarray(list(pmf), dtype=float)
        if len(probs) == 0 or np.any(probs < 0.0) or not math.isclose(probs.sum(), 1.0, abs_tol=1e-12):
            raise ValueError("tabular offspring pmf must be nonnegative and sum to 1")
        k = np.arange(len(probs))
        mean = float(k @ probs)
        var = float(((k - mean) ** 2) @ probs)
        return OffspringSpec("tabular", mean, var, tuple(float(p) for p in probs))


@dataclass(frozen=True)
class MigrationSpec:
    """Per-generation migration law on a finite integer window."""

    mean: float
    var: float
    support: tuple[int, ...]
    pmf: tuple[float, ...]

    @staticmethod
    def deterministic(k: int) -> "MigrationSpec":
        return MigrationSpec(float(k), 0.0, (int(k),), (1.0,))

    @staticmethod
    def tabular(pmf: Sequence[float], first: int) -> "MigrationSpec":
        probs = np.asarray(list(pmf), dtype=float)
        if len(probs) == 0 or np.any(probs < 0.0) or not math.isclose(probs.sum(), 1.0, abs_tol=1e-12):
            raise ValueError("migration pmf must be nonnegative and sum to 1")
        support = np.arange(first, first + len(probs))
        mean = float(support @ probs)
        var = float(((support - mean) ** 2) @ probs)
        return MigrationSpec(mean, var, tuple(int(s) for s in support), tuple(float(p) for p in probs))


@dataclass(frozen=True)
class BpmModel:
    offspring: OffspringSpec
    migration: MigrationSpec

    @property
    def mu(self) -> float:
        return self.offspring.mean

    @property
    def rho(self) -> float:
        return self.migration.mean

    @property
    def theta(self) -> Optional[float]:
        """2*rho/nu; None when the offspring law is deterministic."""
        if self.offspring.var <= 0.0:
            return None
        return 2.0 * self.migration.mean / self.offspring.var


def classify_bpm(model: BpmModel) -> BpmOutcome:
    """Survival/extinction classification of the population chain."""
    mu = model.mu
    if mu > 1.0 + _MU_ONE_TOL:
        return BpmOutcome.SURVIVES
    if mu < 1.0 - _MU_ONE_TOL:
        return BpmOutcome.DIES_OUT
    theta = model.theta
    if theta is None:
        raise ValueError("critical classification needs offspring variance > 0")
    return BpmOutcome.SURVIVES if theta > 1.0 else BpmOutcome.DIES_OUT


# ---------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------


def _offspring_sums(
    spec: OffspringSpec, z: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Vector of xi_1 + ... + xi_{z_i} for each entry of z (all >= 1)."""
    if spec.family == "geometric":
        # sum of z geometrics = negative binomial with z successes
        s = 1.0 / (1.0 + spec.mean)
        return rng.negative_binomial(z, s, len(z)).astype(np.int64)
    if spec.family == "poisson":
        return rng.poisson(spec.mean * z).astype(np.int64)
    assert spec.pmf is not None
    counts = rng.multinomial(z, spec.pmf)
    k = np.arange(len(spec.pmf), dtype=np.int64)
    return counts @ k


def _migration_draws(
    spec: MigrationSpec, size: int, rng: np.random.Generator
) -> np.ndarray:
    if len(spec.support) == 1:
        return np.full(size, spec.support[0], dtype=np.int64)
    cdf = np.cumsum(spec.pmf)
    cdf[-1] = 1.0
    idx = np.searchsorted(cdf, rng.random(size), side="right")
    return np.asarray(spec.support, dtype=np.int64)[idx]


@dataclass(frozen=True)
class BpmEnsembleResult:
    horizon: int
    trials: int
    death_steps: np.ndarray
    escaped: int

    @property
    def survival_frequency(self) -> float:
        return float(np.sum(self.death_steps < 0)) / self.trials

    @property
    def survival_se(self) -> float:
        f = self.survival_frequency
        return math.sqrt(max(f * (1.0 - f), 0.0) / self.trials)

    def survival_at(self, horizon: int) -> float:
        if horizon > self.horizon:
            raise ValueError("horizon exceeds the simulated range")
        d = self.death_steps
        return float(np.sum((d < 0) | (d > horizon))) / self.trials


def escape_threshold(
    mu: float, vr: float, down: float, horizon: int
) -> Optional[int]:
    """Size above which an absorbing run is declared to survive.

    Shared by the population chain and the crossing chain: ``mu`` is the
    asymptotic mean step ratio, ``vr`` an upper bound on the variance
    rate Var(step from z) / z, and ``down`` any constant downward drift.

    Supercritical drift (mu > 1): one step from height z stays above
    (1 + (mu-1)/2) z except with probability exp(-z (mu-1)^2 / (8 vr))
    by a Bernstein bound, so from the returned threshold the chance of
    ever absorbing is below 1e-12 even after a union over the horizon.
    Without a threshold these runs grow forever.

    Critical drift (mu = 1): falling a height z within H steps has
    quadratic variation at most vr * z * H, giving a bound of roughly
    exp(-z / (2 vr H)).  The returned threshold of about 56 * vr * H
    (plus a term covering the downward drift) makes that below 1e-12.
    Typical surviving runs stay an order of magnitude lower, so this
    path is an overflow guard, not a shortcut.
    """
    if mu < 1.0 - _MU_ONE_TOL:
        return None
    diffusive = int(math.ceil((56.0 * vr + 2.0 * down) * horizon)) + 64
    if mu > 1.0 + 1e-9:
        chernoff = int(math.ceil(100.0 * vr / ((mu - 1.0) ** 2))) + 64
        return min(chernoff, diffusive)
    return diffusive


def simulate_bpm(
    model: BpmModel,
    horizon: int,
    trials: int,
    master_seed: Optional[int] = None,
    initial: int = 1,
) -> BpmEnsembleResult:
    """Lockstep ensemble of population runs from Z_0 = ``initial``."""
    if horizon < 1 or trials < 1:
        raise ValueError("horizon and trials must be at least 1")
    if initial < 1:
        raise ValueError("initial population must be at least 1")
    if master_seed is None:
        master_seed = default_seed()
    rng = substream(master_seed, TAG_BPM)
    esc = escape_threshold(
        model.mu,
        max(model.offspring.var + model.migration.var, 0.5),
        max(0.0, -model.migration.mean),
        horizon,
    )
    z = np.full(trials, initial, dtype=np.int64)
    death = np.full(trials, -1, dtype=np.int64)
    idx = np.arange(trials)
    escaped = 0
    for step in range(1, horizon + 1):
        if len(idx) == 0:
            break
        totals = _offspring_sums(model.offspring, z[idx], rng)
        totals += _migration_draws(model.migration, len(idx), rng)
        np.maximum(totals, 0, out=totals)
        z[idx] = totals
        dead = totals == 0
        if np.any(dead):
            death[idx[dead]] = step
        if esc is not None:
            esc_hit = (totals >= esc) & ~dead
            escaped += int(np.sum(esc_hit))
            keep = ~dead & ~esc_hit
        else:
            keep = ~dead
        idx = idx[keep]
    return BpmEnsembleResult(horizon, trials, death, escaped)


def bpm_step_samples(
    model: BpmModel, x: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Draws of one population step from size x (for ladder reuse)."""
    if x < 1:
        raise ValueError("step samples need x >= 1")
    z = np.full(size, x, dtype=np.int64)
    totals = _offspring_sums(model.offspring, z, rng)
    totals += _migration_draws(model.migration, size, rng)
    return np.maximum(totals, 0)


# ---------------------------------------------------------------------
# literals for the command line
# ---------------------------------------------------------------------


def parse_offspring(text: str) -> OffspringSpec:
    """``geometric:m`` | ``poisson:m`` | ``table:p0,p1,...``"""
    head, sep, body = text.partition(":")
    if not sep:
        raise ValueError(f"malformed offspring literal {text!r}")
    if head == "geometric":
        return OffspringSpec.geometric(float(body))
    if head == "poisson":
        return OffspringSpec.poisson(float(body))
    if head == "table":
        return OffspringSpec.tabular([float(v) for v in body.split(",")])
    raise ValueError(f"unknown offspring family {head!r}")


def parse_migration(text: str) -> MigrationSpec:
    """``const:k`` | ``table:p0,p1,...@first`` (support starts at first)."""
    head, sep, body = text.partition(":")
    if not sep:
        raise ValueError(f"malformed migration literal {text!r}")
    if head == "const":
        return MigrationSpec.deterministic(int(body))
    if head == "table":
        probs_part, at, first_part = body.partition("@")
        first = int(first_part) if at else 0
        return MigrationSpec.tabular([float(v) for v in probs_part.split(",")], first)
    raise ValueError(f"unknown migration family {head!r}")
