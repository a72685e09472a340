"""Closed-form analysis of cookie piles: a finite prefix, then a cycle.

The central object is the failure chain of the cycle: the cookie slot
(mod M) that is active right after each failed trial when Bernoulli
cookies are consumed in order.  Its transition matrix is the slot-run
law of :func:`slot_runs`, which the dyadic sampler shares; its
stationary law (checked by one linear solve of pi (P - I) = 0) and
per-state expected success-run lengths have closed forms.  Together
they give the drift mu of the embedded crossing chain, and in the
critical case (mean cookie 1/2) the limiting centered drift rho, the
diffusion coefficient nu and the ratio theta = 2*rho/nu that decides
recurrence versus transience.

A prefix is consumed once, before the cycle starts at its slot 0, so it
moves rho by its total drift delta_prefix and leaves mu and nu alone.
:func:`diagnostics` makes one exact pass over the pile's entries as
fractions, so theta is compared with 1 without round-off.  For the fair
cycle (1/2), rho = delta_prefix and nu = 2, so theta is the prefix's
total drift: the bounded-pile rule of Kosygina and Zerner (2008).
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .environments import CookieEnvironment


class Classification(enum.Enum):
    RECURRENT = "Recurrent"
    TRANSIENT_RIGHT = "TransientRight"
    TRANSIENT_LEFT = "TransientLeft"


class InternalConsistencyError(RuntimeError):
    """Closed form and independent numerical route disagree."""


@dataclass(frozen=True)
class FailureChain:
    """Failure chain of a periodic environment.

    ``matrix[j, k]`` is the probability that the state after the next
    failure is k+1 given the current state is j+1 (states are 1-based in
    formulas, 0-based in arrays).  ``stationary`` is its invariant law
    and ``expected_runs[j]`` the expected success-run length from state
    j+1.
    """

    matrix: np.ndarray
    stationary: np.ndarray
    expected_runs: np.ndarray

    @property
    def period(self) -> int:
        return self.matrix.shape[0]

    def mean_run(self) -> float:
        """Stationary expected run length; equals mu of the environment."""
        return float(self.stationary @ self.expected_runs)


def _require_no_prefix(env: CookieEnvironment) -> None:
    if env.prefix:
        raise ValueError("operation requires a periodic environment (no prefix)")


def _require_elliptic(env: CookieEnvironment) -> None:
    if not env.predicates().elliptic:
        raise ValueError("operation requires an elliptic environment")


def slot_runs(params: tuple[float, ...]) -> tuple[np.ndarray, float]:
    """Law of the success run from each slot to the next failure, mod M.

    ``runs[j, d]`` (0-based slots, d < M) is the probability that the d
    cookies from slot j on succeed and cookie j + d (mod M) fails.  Every
    row sums to 1 - P, P the full-period product; the returned ``fail``
    is that sum taken from row 0, without the cancellation of 1 - P
    itself.  Whole-period wraps are left to the caller.
    """
    m = len(params)
    p = np.asarray(params, dtype=float)
    # Window j of two periods holds slots j, j + 1, ... (mod M): runs[j, d]
    # is the product of p over the first d, times 1 - p of slot j + d.
    # Both windows are views, so the one M x M array is the only large one.
    runs = np.empty((m, m))
    runs[:, 0] = 1.0
    np.cumprod(sliding_window_view(np.tile(p, 2), m - 1)[:m], axis=1, out=runs[:, 1:])
    runs *= sliding_window_view(np.tile(1.0 - p, 2), m)[:m]
    return runs, min(float(runs[0].sum()), 1.0)


def asymptotic_mu(env: CookieEnvironment) -> float:
    """Drift of the crossing chain, the limit of E U(x) / x: pbar / (1 - pbar)
    with pbar the cycle's mean cookie.

    Returns ``inf`` for a cycle of ones.  Agrees with the stationary mean
    run length of :func:`failure_chain` for elliptic environments.
    """
    pbar = env.mean_cookie()
    if pbar >= 1.0:
        return math.inf
    return pbar / (1.0 - pbar)


def failure_chain(env: CookieEnvironment) -> FailureChain:
    """Build the failure chain with its stationary law and run lengths.

    Row j is the slot-run law from slot j, moved one slot on and
    normalized over whole-period wraps.  The stationary law has the
    closed form pi_j proportional to (1 - p_{j-1}) with indices mod M.
    It is checked against one linear solve of pi (P - I) = 0 with
    sum(pi) = 1 (unique, as P > 0 for elliptic piles) and by its
    invariance residual; a failure raises :class:`InternalConsistencyError`.
    """
    _require_no_prefix(env)
    _require_elliptic(env)
    m = env.period
    runs, fail = slot_runs(env.cycle)
    slots = np.arange(m)
    matrix = np.empty((m, m))
    matrix[slots[:, None], (slots[:, None] + slots + 1) % m] = runs
    matrix /= runs.sum(axis=1, keepdims=True)

    q = 1.0 - np.asarray(env.cycle, dtype=float)
    stationary = np.roll(q, 1)  # pi_j ~ 1 - p_{j-1}
    stationary = stationary / stationary.sum()

    # A run is its length within the period plus M per whole wrap; the
    # wraps are geometric with mean P / (1 - P).
    expected_runs = (runs @ slots + m * (1.0 - fail)) / fail

    _verify_stationary(matrix, stationary)
    return FailureChain(matrix, stationary, expected_runs)


def _verify_stationary(matrix: np.ndarray, closed_form: np.ndarray, tol: float = 1e-10) -> None:
    m = matrix.shape[0]
    # pi (P - I) = 0 has rank M - 1; the normalization replaces one equation.
    system = matrix.T - np.eye(m)
    system[-1] = 1.0
    rhs = np.zeros(m)
    rhs[-1] = 1.0
    pi = np.linalg.solve(system, rhs)
    if np.max(np.abs(pi - closed_form)) > tol:
        raise InternalConsistencyError(
            "closed-form stationary law disagrees with the linear solve"
        )
    resid = np.max(np.abs(closed_form @ matrix - closed_form))
    if resid > tol:
        raise InternalConsistencyError(
            f"closed-form stationary law is not invariant (residual {resid:g})"
        )


def _compare_with_one(right: Union[Fraction, float], left: Union[Fraction, float]) -> Classification:
    """Right transient when ``right`` exceeds 1, left transient when
    ``left`` does, otherwise recurrent (1 itself included)."""
    if right > 1:
        return Classification.TRANSIENT_RIGHT
    if left > 1:
        return Classification.TRANSIENT_LEFT
    return Classification.RECURRENT


@dataclass(frozen=True)
class PeriodicDiagnostics:
    """Everything the classifier looks at, in one bundle.

    Sums run over the M cycle entries p_i.  ``delta[i]`` is the total
    drift sum (2 p - 1) of the prefix and cycle entries up to i.  ``rho``
    = (2/M) sum_i (1 - p_i) delta_i is the crossing chain's limiting
    centered drift, ``nu`` = 8 * mean of p_i (1 - p_i) its diffusion
    coefficient, and ``theta_right`` = 2 rho / nu; ``theta_left`` is the
    mirrored pile's theta.  ``rho`` and both thetas are None off
    criticality (mean cookie not 1/2).
    """

    p_bar: float
    delta: tuple[float, ...]
    mu: float
    rho: Optional[float]
    nu: float
    theta_right: Optional[float]
    theta_left: Optional[float]
    classification: Classification


def classify_periodic(env: CookieEnvironment) -> Classification:
    """Recurrence/transience trichotomy for every pile.

    The pile must be elliptic.  Mean cookie of the cycle above 1/2 gives
    right transience, below 1/2 left transience.  At exactly 1/2 the sign
    is decided by theta: above 1 for the environment itself means right
    transience, above 1 for the mirrored environment left transience,
    otherwise the walk is recurrent (theta equal to 1 included).
    """
    return diagnostics(env).classification


def diagnostics(env: CookieEnvironment) -> PeriodicDiagnostics:
    """Classification together with every intermediate quantity."""
    _require_elliptic(env)
    # One pass over the entries as fractions (a float converts exactly).
    # The cycle's drifts start from the prefix's total, so at criticality,
    # where (2/M) sum (1 - p_i) = 1, rho is the cycle's rho plus
    # delta_prefix and rho_left the cycle's less it.
    start = sum((2 * Fraction(p) - 1 for p in env.exact_prefix or env.prefix), Fraction(0))
    ps = [Fraction(p) for p in env.exact_cycle or env.cycle]
    m = len(ps)
    delta = list(itertools.accumulate((2 * p - 1 for p in ps), initial=start))[1:]
    rho = 2 * sum(((1 - p) * d for p, d in zip(ps, delta)), Fraction(0)) / m
    rho_left = -2 * sum((p * d for p, d in zip(ps, delta)), Fraction(0)) / m
    nu = 8 * sum((p * (1 - p) for p in ps), Fraction(0)) / m
    theta_right, theta_left = 2 * rho / nu, 2 * rho_left / nu
    critical = env.is_critical()
    if critical:
        label = _compare_with_one(theta_right, theta_left)
    elif env.mean_cookie() > 0.5:
        label = Classification.TRANSIENT_RIGHT
    else:
        label = Classification.TRANSIENT_LEFT
    return PeriodicDiagnostics(
        p_bar=env.mean_cookie(),
        delta=tuple(map(float, delta)),
        mu=asymptotic_mu(env),
        rho=float(rho) if critical else None,
        nu=float(nu),
        theta_right=float(theta_right) if critical else None,
        theta_left=float(theta_left) if critical else None,
        classification=label,
    )


def half_half_threshold(p: float) -> float:
    """Period length above which the half-p, half-(1-p) pile is right
    transient: (8p - 8p^2 + 2) / (2p - 1), for p in (1/2, 1)."""
    if not 0.5 < p < 1.0:
        raise ValueError("threshold defined for p strictly between 1/2 and 1")
    return (8.0 * p - 8.0 * p * p + 2.0) / (2.0 * p - 1.0)


def classify_positive(delta: float) -> Classification:
    """Classification of a positive pile from its total drift.

    The caller supplies delta = sum_i (2*p_i - 1), possibly infinite.
    Positive piles never drift left; delta above 1 means right
    transience and anything else (including exactly 1) recurrence.
    """
    if math.isnan(delta) or delta < 0.0:
        raise ValueError("positive environments have nonnegative total drift")
    return _compare_with_one(delta, -delta)
