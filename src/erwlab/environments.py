"""Cookie environments on the integers.

An environment assigns to every site the same infinite pile of cookies
``p_1, p_2, p_3, ...`` where ``p_i`` is the probability of stepping right
on the i-th visit to the site.  Three representations are supported:

* periodic piles, ``p_{i+M} = p_i`` for all i,
* bounded piles, a finite prefix followed by fair (1/2) cookies,
* custom-tail piles, a finite prefix followed by a constant tail value.

Environments are immutable.  Entries may optionally be given as exact
fractions (strings like ``"9/10"``); the exact values ride along and are
used where criticality of the mean cookie must be decided exactly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union


class EnvKind(enum.Enum):
    PERIODIC = "periodic"
    BOUNDED = "bounded"
    CUSTOM_TAIL = "tail"


@dataclass(frozen=True)
class EnvPredicates:
    """Decidable structural flags for an environment."""

    elliptic: bool
    positive: bool
    bounded: bool
    periodic: bool
    non_degenerate: bool


Number = Union[float, int, str, Fraction]


def _coerce(value: Number) -> tuple[float, Optional[Fraction]]:
    """Return (float value, exact fraction if one was given)."""
    if isinstance(value, Fraction):
        return float(value), value
    if isinstance(value, str):
        frac = Fraction(value)
        return float(frac), frac
    f = float(value)
    if math.isnan(f):
        raise ValueError("cookie value must not be NaN")
    return f, None


@dataclass(frozen=True)
class CookieEnvironment:
    """Identically piled cookie environment.

    ``params`` is the periodic pattern (PERIODIC) or the finite prefix
    (BOUNDED / CUSTOM_TAIL).  ``tail_value`` is 1/2 for BOUNDED, the given
    constant for CUSTOM_TAIL and None for PERIODIC.  ``exact_params`` and
    ``exact_tail`` carry optional exact rationals for the same entries.
    """

    kind: EnvKind
    params: tuple[float, ...]
    tail_value: Optional[float] = None
    exact_params: Optional[tuple[Fraction, ...]] = None
    exact_tail: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if len(self.params) == 0:
            raise ValueError("environment needs at least one cookie value")
        for p in self.params:
            if math.isnan(p) or p < 0.0 or p > 1.0:
                raise ValueError(f"cookie value {p!r} outside [0, 1]")
        if self.kind is EnvKind.PERIODIC:
            if self.tail_value is not None:
                raise ValueError("periodic environment takes no tail value")
        else:
            if self.tail_value is None:
                raise ValueError("tail environments need a tail value")
            t = self.tail_value
            if math.isnan(t) or t < 0.0 or t > 1.0:
                raise ValueError(f"tail value {t!r} outside [0, 1]")
            if self.kind is EnvKind.BOUNDED and t != 0.5:
                raise ValueError("bounded environment must have tail 1/2")

    def __hash__(self) -> int:
        # Equal piles have equal floats, so this agrees with ==; hashing
        # the exact fractions too would cost milliseconds on long piles,
        # paid by every cached lookup keyed on the pile.
        return hash((self.kind, self.params, self.tail_value))

    # -- basic views ---------------------------------------------------

    @property
    def period(self) -> int:
        return len(self.params)

    def cookie_at(self, i: int) -> float:
        """Probability of stepping right on the i-th visit, i >= 1."""
        if i < 1:
            raise ValueError("cookie index starts at 1")
        m = self.period
        if self.kind is EnvKind.PERIODIC:
            return self.params[(i - 1) % m]
        if i <= m:
            return self.params[i - 1]
        return float(self.tail_value)  # type: ignore[arg-type]

    def mirror(self) -> "CookieEnvironment":
        """Environment of the left-right reflected walk (p -> 1-p)."""
        params = tuple(1.0 - p for p in self.params)
        tail = None if self.tail_value is None else 1.0 - self.tail_value
        ex_p = None
        if self.exact_params is not None:
            ex_p = tuple(Fraction(1) - q for q in self.exact_params)
        ex_t = None if self.exact_tail is None else Fraction(1) - self.exact_tail
        return CookieEnvironment(self.kind, params, tail, ex_p, ex_t)

    def shift(self, j: int) -> "CookieEnvironment":
        """Periodic pattern rotated to start at cookie j (1 <= j <= M)."""
        if self.kind is not EnvKind.PERIODIC:
            raise ValueError("shift is defined for periodic environments only")
        m = self.period
        if not 1 <= j <= m:
            raise ValueError(f"shift index {j} outside 1..{m}")
        k = j - 1
        params = self.params[k:] + self.params[:k]
        ex = None
        if self.exact_params is not None:
            ex = self.exact_params[k:] + self.exact_params[:k]
        return CookieEnvironment(self.kind, params, None, ex, None)

    def predicates(self) -> EnvPredicates:
        values = list(self.params)
        if self.tail_value is not None:
            values.append(self.tail_value)
        elliptic = all(0.0 < v < 1.0 for v in values)
        positive = all(v >= 0.5 for v in values)
        if self.kind is EnvKind.PERIODIC:
            # Infinitely many of each period entry occur, so both cookie
            # sums diverge iff some entry is interior, or entries straddle
            # the endpoints.
            non_deg = any(0.0 < p < 1.0 for p in self.params) or (
                any(p > 0.0 for p in self.params) and any(p < 1.0 for p in self.params)
            )
            bounded = all(p == 0.5 for p in self.params)
            periodic = True
        else:
            t = float(self.tail_value)  # type: ignore[arg-type]
            non_deg = 0.0 < t < 1.0
            bounded = t == 0.5
            periodic = all(p == t for p in self.params)
        return EnvPredicates(elliptic, positive, bounded, periodic, non_deg)

    # -- aggregate quantities -----------------------------------------

    def mean_cookie(self) -> float:
        """Average cookie value over one period / the tail value."""
        if self.kind is EnvKind.PERIODIC:
            return math.fsum(self.params) / self.period
        return float(self.tail_value)  # type: ignore[arg-type]

    def exact_mean_cookie(self) -> Optional[Fraction]:
        if self.kind is EnvKind.PERIODIC:
            if self.exact_params is None:
                return None
            return sum(self.exact_params, Fraction(0)) / self.period
        if self.exact_tail is not None:
            return self.exact_tail
        if self.kind is EnvKind.BOUNDED:
            return Fraction(1, 2)
        return None

    def is_critical(self) -> bool:
        """True when the mean cookie equals 1/2 (exactly when rationals
        are available, otherwise within 1e-12)."""
        exact = self.exact_mean_cookie()
        if exact is not None:
            return exact == Fraction(1, 2)
        return abs(self.mean_cookie() - 0.5) <= 1e-12


# -- constructors ------------------------------------------------------


def _build(kind: EnvKind, values: Sequence[Number], tail: Optional[Number]) -> CookieEnvironment:
    floats = []
    fracs = []
    have_exact = True
    for v in values:
        f, q = _coerce(v)
        floats.append(f)
        fracs.append(q)
        have_exact = have_exact and q is not None
    tail_f: Optional[float] = None
    tail_q: Optional[Fraction] = None
    if tail is not None:
        tail_f, tail_q = _coerce(tail)
    exact_params = tuple(fracs) if (have_exact and fracs) else None
    if kind is EnvKind.BOUNDED and tail_q is None:
        tail_q = Fraction(1, 2)
    return CookieEnvironment(kind, tuple(floats), tail_f, exact_params, tail_q)


def make_periodic(values: Sequence[Number]) -> CookieEnvironment:
    """Periodic environment with pattern ``values`` (period = len)."""
    return _build(EnvKind.PERIODIC, values, None)


def make_bounded(prefix: Sequence[Number]) -> CookieEnvironment:
    """Finite cookie prefix followed by fair coins."""
    return _build(EnvKind.BOUNDED, prefix, 0.5)


def make_custom_tail(prefix: Sequence[Number], tail: Number) -> CookieEnvironment:
    """Finite cookie prefix followed by a constant tail value."""
    return _build(EnvKind.CUSTOM_TAIL, prefix, tail)


# -- literal grammar ---------------------------------------------------

_KIND_BY_NAME = {
    "periodic": EnvKind.PERIODIC,
    "bounded": EnvKind.BOUNDED,
    "tail": EnvKind.CUSTOM_TAIL,
}


def parse_env(text: str) -> CookieEnvironment:
    """Parse an environment literal.

    Grammar::

        periodic:0.9,0.1          periodic pattern
        bounded:0.9,0.9           prefix + fair tail
        tail:0.9,0.7@0.5          prefix + constant tail after '@'

    Entries may be decimals or exact fractions such as ``9/10``.
    """
    head, sep, body = text.partition(":")
    if not sep:
        raise ValueError(f"malformed environment literal {text!r}")
    kind = _KIND_BY_NAME.get(head.strip())
    if kind is None:
        raise ValueError(f"unknown environment kind {head!r}")
    tail: Optional[str] = None
    if kind is EnvKind.CUSTOM_TAIL:
        body, at, tail_part = body.partition("@")
        if not at:
            raise ValueError("tail environment literal needs '@tail_value'")
        tail = tail_part.strip()
    entries = [e.strip() for e in body.split(",") if e.strip()]
    if not entries:
        raise ValueError(f"no cookie values in {text!r}")
    if kind is EnvKind.PERIODIC:
        return make_periodic(entries)
    if kind is EnvKind.BOUNDED:
        return make_bounded(entries)
    return make_custom_tail(entries, tail)  # type: ignore[arg-type]


def format_env(env: CookieEnvironment) -> str:
    """Literal round-tripping through :func:`parse_env`."""
    body = ",".join(repr(p) for p in env.params)
    if env.kind is EnvKind.PERIODIC:
        return f"periodic:{body}"
    if env.kind is EnvKind.BOUNDED:
        return f"bounded:{body}"
    return f"tail:{body}@{env.tail_value!r}"
