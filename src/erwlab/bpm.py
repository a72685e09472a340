"""Branching processes with migration.

The population recursion is

    Z_{n+1} = max(xi_1 + ... + xi_{Z_n} + eta, 0)   while Z_n > 0,

with i.i.d. offspring counts xi and an independent migration term eta
per generation; 0 is absorbing.  The survival classification mirrors
the crossing-chain one: supercritical offspring means survival with
positive probability, subcritical means almost-sure extinction, and in
the critical mean-1 case the ratio theta = 2*E[eta]/Var[xi] decides,
with survival exactly when theta exceeds 1.

The crossing chain of ``kks`` is such a process too, and shares with
the population the escape threshold, the absorbing-chain engine
``absorb`` and its one result type, ``ZEnsembleResult``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

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
        if not 0.0 < mean < math.inf:
            raise ValueError(f"geometric offspring needs a finite positive mean, not {mean}")
        return OffspringSpec("geometric", mean, mean * (1.0 + mean))

    @staticmethod
    def poisson(mean: float) -> "OffspringSpec":
        if not 0.0 < mean < math.inf:
            raise ValueError(f"poisson offspring needs a finite positive mean, not {mean}")
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

    @cached_property
    def _inverse_cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """(cdf, support) arrays for inverse-CDF draws, built once per spec."""
        cdf = np.cumsum(self.pmf)
        cdf[-1] = 1.0
        return cdf, np.asarray(self.support, dtype=np.int64)


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
    spec: OffspringSpec, z: "int | np.ndarray", rng: np.random.Generator
) -> "int | np.ndarray":
    """xi_1 + ... + xi_z for a population z >= 1, or for each entry of an
    array of them; an array and its entries one at a time take the same
    draws from the stream."""
    if spec.family == "geometric":
        # sum of z geometrics = negative binomial with z successes
        return rng.negative_binomial(z, 1.0 / (1.0 + spec.mean))
    if spec.family == "poisson":
        return rng.poisson(spec.mean * z)
    assert spec.pmf is not None
    counts = rng.multinomial(z, spec.pmf)
    return counts @ np.arange(len(spec.pmf), dtype=np.int64)


def _migration_draws(
    spec: MigrationSpec, size: Optional[int], rng: np.random.Generator
) -> "int | np.ndarray":
    """``size`` migration draws, or one when ``size`` is None."""
    if len(spec.support) == 1:
        return spec.support[0]
    cdf, support = spec._inverse_cdf
    return support[np.searchsorted(cdf, rng.random(size), side="right")]


def _bpm_step(model: BpmModel, z: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One generation from each population of the array z (entries >= 1)."""
    totals = _offspring_sums(model.offspring, z, rng) + _migration_draws(model.migration, len(z), rng)
    return np.maximum(totals, 0)


def _bpm_step_one(model: BpmModel, z: int, rng: np.random.Generator) -> int:
    """``_bpm_step`` of a one-row array, on Python scalars: the same
    draws in the same order, for the scalar finish of ``absorb``."""
    total = _offspring_sums(model.offspring, z, rng) + _migration_draws(model.migration, None, rng)
    return max(int(total), 0)


@dataclass(frozen=True)
class ZEnsembleResult:
    """Ensemble of absorbing runs, of the crossing chain or the population.

    ``death_steps[i]`` is the absorption step of trial i, or -1 when the
    trial survived the horizon (including early escapes upward).
    """

    horizon: int
    trials: int
    death_steps: np.ndarray
    escaped: int

    @property
    def survivors(self) -> int:
        return int(np.sum(self.death_steps < 0))

    @property
    def survival_frequency(self) -> float:
        return self.survivors / self.trials

    @property
    def survival_se(self) -> float:
        f = self.survival_frequency
        return math.sqrt(max(f * (1.0 - f), 0.0) / self.trials)

    def survival_at(self, horizon: int) -> float:
        """Survival frequency at any horizon up to the simulated one."""
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
    if mu > 1.0 + _MU_ONE_TOL:
        chernoff = int(math.ceil(100.0 * vr / ((mu - 1.0) ** 2))) + 64
        return min(chernoff, diffusive)
    return diffusive


# Lockstep batches at or below this size finish one run at a time: past
# that point scalar draws beat the vectorized machinery.  The scalar
# finish pays for itself (2-vCPU host): the recurrent crossing chain at
# H = 10^5 with 10^4 trials takes 11.4 s with it and 20.1 s without, and
# the BPM die-out model (H = 2000, 1000 trials) 0.003 s against 0.067 s.
_FINISH_BATCH = 16


def absorb(
    z0: int,
    horizon: int,
    trials: int,
    esc: Optional[int],
    step: Callable[[np.ndarray, np.random.Generator], np.ndarray],
    step_one: Callable[[int, np.random.Generator], int],
    rng: np.random.Generator,
) -> ZEnsembleResult:
    """Run ``trials`` copies of a chain on the nonnegative integers from
    ``z0`` for ``horizon`` steps, 0 absorbing.

    The engine of both the crossing chain and the population.  All live
    runs take one ``step`` per iteration while more than ``_FINISH_BATCH``
    are left; the rest then finish one after another through
    ``step_one``.  A run reaching ``esc`` (when given) stops and counts as
    an escaped survivor.  The live sizes are carried from step to step
    in trial order, and shrink with their trial indices only on a step
    where a run dies or escapes.
    """
    top = np.iinfo(np.int64).max if esc is None else esc
    death = np.full(trials, -1, dtype=np.int64)
    # The live runs' trial indices and sizes, in trial order.
    idx = np.arange(trials)
    z = np.full(trials, z0, dtype=np.int64)
    escaped = 0
    t = 0
    while t < horizon and len(idx) > _FINISH_BATCH:
        t += 1
        z = step(z, rng)
        # Most steps kill no run: two reductions find that without a mask.
        lo, hi = np.minimum.reduce(z), np.maximum.reduce(z)
        if lo == 0 or hi >= top:
            live = z > 0
            death[idx[~live]] = t
            if hi >= top:
                gone = z >= top
                escaped += int(np.count_nonzero(gone))
                live &= ~gone
            idx = idx[live]
            z = z[live]
    for j, zz in zip(idx.tolist(), z.tolist()):
        for s in range(t + 1, horizon + 1):
            zz = step_one(zz, rng)
            if zz == 0:
                death[j] = s
                break
            if zz >= top:
                escaped += 1
                break
    return ZEnsembleResult(horizon, trials, death, escaped)


def simulate_bpm(
    model: BpmModel,
    horizon: int,
    trials: int,
    master_seed: Optional[int] = None,
    initial: int = 1,
) -> ZEnsembleResult:
    """Ensemble of population runs from Z_0 = ``initial`` (``absorb``)."""
    if horizon < 1 or trials < 1:
        raise ValueError("horizon and trials must be at least 1")
    if initial < 1:
        raise ValueError("initial population must be at least 1")
    if master_seed is None:
        master_seed = default_seed()
    esc = escape_threshold(
        model.mu,
        max(model.offspring.var + model.migration.var, 0.5),
        max(0.0, -model.migration.mean),
        horizon,
    )
    return absorb(
        initial,
        horizon,
        trials,
        esc,
        lambda z, rng: _bpm_step(model, z, rng),
        lambda z, rng: _bpm_step_one(model, z, rng),
        substream(master_seed, TAG_BPM),
    )


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
