"""Recurrence criteria for chains with asymptotically linear steps.

Given drift/diffusion evidence about a chain step distribution, either
exact or estimated with standard errors, ``classify_chain`` applies the
mean-growth dichotomy and, in the critical mean-1 case, compares the
theta ladder against two explicit bands:

    lower(x) = 1 + 1/ln x - ln x / sqrt(x)
    upper(x) = 1 + 2/ln x + ln x / sqrt(x)

Theta above the upper band at every ladder point certifies transience,
below the lower band at every point certifies recurrence, anything else
is inconclusive.  ``lyapunov_drift`` estimates one-step drifts of the
four textbook test functions used to certify these regimes directly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .kks import LadderStats


class VerdictValue(enum.Enum):
    TRANSIENT = "Transient"
    RECURRENT = "Recurrent"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class BandMargins:
    """Distance of one ladder point from the decision bands.

    Positive ``above_upper`` means the 3-sigma lower edge of theta-hat
    cleared the upper band; positive ``below_lower`` means the 3-sigma
    upper edge stayed under the lower band.
    """

    x: int
    lower_band: float
    upper_band: float
    above_upper: float
    below_lower: float


@dataclass(frozen=True)
class Verdict:
    value: VerdictValue
    rationale: str
    margins: tuple[BandMargins, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class CriterionInput:
    """Evidence bundle for :func:`classify_chain`.

    ``mu_se`` of zero marks the drift as exact; ladder entries carry
    their own standard errors (zero for exact diagnostics).
    """

    mu: float
    mu_se: float
    ladder: LadderStats


def band_bounds(x: float) -> tuple[float, float]:
    """(lower, upper) decision band at ladder point x."""
    if x < 10:
        raise ValueError("bands are defined for x >= 10")
    lx = math.log(x)
    rx = 1.0 / math.sqrt(x)
    return 1.0 + 1.0 / lx - lx * rx, 1.0 + 2.0 / lx + lx * rx


def classify_chain(evidence: CriterionInput) -> Verdict:
    """Transient / Recurrent / Inconclusive from drift evidence."""
    mu, mu_se = evidence.mu, evidence.mu_se
    if not (math.isfinite(mu) and math.isfinite(mu_se)):
        raise ValueError("mu and mu_se must be finite")
    if mu_se < 0.0:
        raise ValueError("mu_se must be nonnegative")
    if mu - 3.0 * mu_se > 1.0:
        return Verdict(
            VerdictValue.TRANSIENT,
            f"step mean {mu:.6g} exceeds 1 beyond 3 standard errors",
        )
    if mu + 3.0 * mu_se < 1.0:
        return Verdict(
            VerdictValue.RECURRENT,
            f"step mean {mu:.6g} is below 1 beyond 3 standard errors",
        )
    entries = evidence.ladder.entries
    if not entries:
        raise ValueError("critical-case classification needs a theta ladder")
    margins = []
    for e in entries:
        lower, upper = band_bounds(e.x)
        margins.append(
            BandMargins(
                x=e.x,
                lower_band=lower,
                upper_band=upper,
                above_upper=(e.theta_hat - 3.0 * e.se_theta) - upper,
                below_lower=lower - (e.theta_hat + 3.0 * e.se_theta),
            )
        )
    margins_t = tuple(margins)
    if all(m.above_upper > 0.0 for m in margins_t):
        return Verdict(
            VerdictValue.TRANSIENT,
            "theta ladder clears the upper band at every point",
            margins_t,
        )
    if all(m.below_lower > 0.0 for m in margins_t):
        return Verdict(
            VerdictValue.RECURRENT,
            "theta ladder stays below the lower band at every point",
            margins_t,
        )
    return Verdict(
        VerdictValue.INCONCLUSIVE,
        "step mean is consistent with 1 and the theta ladder sits between the bands",
        margins_t,
    )


# ---------------------------------------------------------------------
# Lyapunov drift estimation
# ---------------------------------------------------------------------

# Guard points below which each test function switches to its tangent
# line, keeping it defined (and monotone) on all of [0, inf).
_GUARDS = {"identity": 0, "reciprocal": 0, "loglog": 16, "invlog": 8}


def _lyapunov_value(kind: str, t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if kind == "identity":
        return t
    if kind == "reciprocal":
        return 1.0 / (t + 1.0)
    if kind == "loglog":
        g = float(_GUARDS[kind])
        base = math.log(math.log(g))
        slope = 1.0 / (g * math.log(g))
        safe = np.maximum(t, g)
        return np.where(t >= g, np.log(np.log(safe)), base + (t - g) * slope)
    if kind == "invlog":
        g = float(_GUARDS[kind])
        base = 1.0 / math.log(g)
        slope = -1.0 / (g * math.log(g) ** 2)
        safe = np.maximum(t, g)
        return np.where(t >= g, 1.0 / np.log(safe), base + (t - g) * slope)
    raise ValueError(f"unknown Lyapunov kind {kind!r}")


StepSampler = Callable[[int, int, np.random.Generator], np.ndarray]

# Draws per sampler call, bounding the memory of one estimate.
_DRIFT_BLOCK = 1 << 16


def lyapunov_drift(
    sampler: StepSampler,
    kind: str,
    x: int,
    trials: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo estimate of E[V(step from x)] - V(x) with its SE.

    ``kind`` selects V: ``identity`` (t), ``reciprocal`` (1/(t+1)),
    ``loglog`` (ln ln t, linearized below 16), ``invlog`` (1/ln t,
    linearized below 8).  The start point x must lie at or above the
    guard point of the chosen kind.
    """
    if kind not in _GUARDS:
        raise ValueError(f"unknown Lyapunov kind {kind!r}")
    if x < max(_GUARDS[kind], 1):
        raise ValueError(f"kind {kind!r} needs x >= {max(_GUARDS[kind], 1)}")
    if trials < 2:
        raise ValueError("need at least two trials")
    here = float(_lyapunov_value(kind, np.array([float(x)]))[0])
    s1 = 0.0
    s2 = 0.0
    done = 0
    while done < trials:
        b = min(_DRIFT_BLOCK, trials - done)
        v = _lyapunov_value(kind, sampler(x, b, rng))
        s1 += float(v.sum())
        s2 += float((v * v).sum())
        done += b
    mean = s1 / trials
    var = max(s2 / trials - mean * mean, 0.0)
    return mean - here, math.sqrt(var / trials)
