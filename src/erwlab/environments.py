"""Cookie environments on the integers.

An environment assigns to every site the same infinite pile of cookies
``p_1, p_2, p_3, ...`` where ``p_i`` is the probability of stepping right
on the i-th visit to the site.  Every pile has one shape: a finite
``prefix`` (possibly empty), then a ``cycle`` repeated forever.  The
literals name three common cases of it:

* ``periodic:`` piles, an empty prefix, ``p_{i+M} = p_i`` for all i,
* ``bounded:`` piles, a prefix followed by fair (1/2) cookies,
* ``tail:`` piles, a prefix followed by a constant or a periodic cycle.

Environments are immutable.  Entries may optionally be given as exact
fractions (strings like ``"9/10"``); the exact values ride along and are
used where criticality of the mean cookie must be decided exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union


@dataclass(frozen=True)
class EnvPredicates:
    """Decidable structural flags for an environment."""

    elliptic: bool
    positive: bool
    bounded: bool
    periodic: bool
    non_degenerate: bool


Number = Union[float, int, str, Fraction]

# How far a cookie's float may lie from its exact value: ``mirror`` rounds
# 1 - p once, which moves it by at most 2^-53.
_EXACT_SLACK = 2.0**-52


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


def _flip(values: Optional[tuple]) -> Optional[tuple]:
    """Entries p -> 1 - p, floats and fractions alike; None stays None."""
    return None if values is None else tuple(1 - v for v in values)


@dataclass(frozen=True)
class CookieEnvironment:
    """Identically piled cookie environment: the cookies of ``prefix``,
    then those of ``cycle`` repeated forever.

    ``cycle`` holds at least one entry and ``prefix`` may be empty;
    ``period`` is the cycle's length.  ``exact_prefix`` and
    ``exact_cycle`` carry optional exact rationals for the same entries:
    one per float, each within 2^-52 of it, or construction raises
    ``ValueError``, since the exact values decide criticality while the
    samplers draw the floats.
    A prefix entry equal to the cycle's last entry is the cycle begun one
    cookie early, so construction moves it into the cycle (rotated):
    ``tail:0.1@0.9,0.1`` is ``periodic:0.1,0.9``, and the prefix is empty
    exactly when the pile is periodic.
    """

    prefix: tuple[float, ...]
    cycle: tuple[float, ...]
    exact_prefix: Optional[tuple[Fraction, ...]] = None
    exact_cycle: Optional[tuple[Fraction, ...]] = None

    def __post_init__(self) -> None:
        if len(self.cycle) == 0:
            raise ValueError("environment needs at least one cookie value")
        for p in self.prefix + self.cycle:
            if math.isnan(p) or p < 0.0 or p > 1.0:
                raise ValueError(f"cookie value {p!r} outside [0, 1]")
        for name, floats, exact in (("exact_prefix", self.prefix, self.exact_prefix),
                                    ("exact_cycle", self.cycle, self.exact_cycle)):
            if exact is None:
                continue
            if len(exact) != len(floats):
                raise ValueError(f"{name} holds {len(exact)} values, not {len(floats)}")
            for f, q in zip(floats, exact):
                if abs(float(q) - f) > _EXACT_SLACK:
                    raise ValueError(f"{name} value {q} does not match cookie {f!r}")
        prefix, cycle = self.prefix, self.cycle
        ep, ec = self.exact_prefix, self.exact_cycle
        while prefix and prefix[-1] == cycle[-1]:
            prefix, cycle = prefix[:-1], cycle[-1:] + cycle[:-1]
            if ec is not None:
                ec = ec[-1:] + ec[:-1]
        if ep is not None:
            ep = ep[: len(prefix)] or None
        for name, value in (("prefix", prefix), ("cycle", cycle),
                            ("exact_prefix", ep), ("exact_cycle", ec)):
            object.__setattr__(self, name, value)
        # Equal piles have equal floats, so this agrees with ==.  It is
        # computed once: every cached lookup keyed on the pile hashes it,
        # and hashing M floats takes 37 us at M = 2049.  Hashing the exact
        # fractions too would cost milliseconds on long piles.
        object.__setattr__(self, "_hash", hash((prefix, cycle)))

    def __hash__(self) -> int:
        return self._hash

    # -- basic views ---------------------------------------------------

    @property
    def period(self) -> int:
        return len(self.cycle)

    def cookie_at(self, i: int) -> float:
        """Probability of stepping right on the i-th visit, i >= 1."""
        if i < 1:
            raise ValueError("cookie index starts at 1")
        k = len(self.prefix)
        return self.prefix[i - 1] if i <= k else self.cycle[(i - 1 - k) % self.period]

    def mirror(self) -> "CookieEnvironment":
        """Environment of the left-right reflected walk (p -> 1-p)."""
        return CookieEnvironment(
            _flip(self.prefix), _flip(self.cycle), _flip(self.exact_prefix), _flip(self.exact_cycle)
        )

    def predicates(self) -> EnvPredicates:
        values = self.prefix + self.cycle
        c = self.cycle
        return EnvPredicates(
            elliptic=all(0.0 < v < 1.0 for v in values),
            positive=all(v >= 0.5 for v in values),
            bounded=all(p == 0.5 for p in c),
            periodic=not self.prefix,
            # Infinitely many of each cycle entry occur, so both cookie
            # sums diverge iff some entry is interior, or entries straddle
            # the endpoints.
            non_degenerate=any(0.0 < p < 1.0 for p in c)
            or (any(p > 0.0 for p in c) and any(p < 1.0 for p in c)),
        )

    # -- aggregate quantities -----------------------------------------

    def mean_cookie(self) -> float:
        """Average cookie value over one cycle."""
        return math.fsum(self.cycle) / self.period

    def exact_mean_cookie(self) -> Optional[Fraction]:
        if self.exact_cycle is None:
            return None
        return sum(self.exact_cycle, Fraction(0)) / self.period

    def is_critical(self) -> bool:
        """True when the mean cookie equals 1/2 (exactly when rationals
        are available, otherwise within 1e-12)."""
        exact = self.exact_mean_cookie()
        if exact is not None:
            return exact == Fraction(1, 2)
        return abs(self.mean_cookie() - 0.5) <= 1e-12


# -- constructors ------------------------------------------------------


def _coerce_all(
    values: Sequence[Number],
) -> tuple[tuple[float, ...], Optional[tuple[Fraction, ...]]]:
    """Floats of ``values``, and their fractions if every entry was exact."""
    pairs = [_coerce(v) for v in values]
    exact = tuple(q for _, q in pairs if q is not None)
    return tuple(f for f, _ in pairs), (exact if exact and len(exact) == len(pairs) else None)


def _build(prefix: Sequence[Number], cycle: Sequence[Number]) -> CookieEnvironment:
    (p, ep), (c, ec) = _coerce_all(prefix), _coerce_all(cycle)
    return CookieEnvironment(p, c, ep, ec)


def make_periodic(values: Sequence[Number]) -> CookieEnvironment:
    """Periodic environment with pattern ``values`` (period = len)."""
    return _build((), values)


def make_bounded(prefix: Sequence[Number]) -> CookieEnvironment:
    """Finite cookie prefix followed by fair coins."""
    return _build(prefix, (Fraction(1, 2),))


def make_custom_tail(prefix: Sequence[Number], tail: Number) -> CookieEnvironment:
    """Finite cookie prefix followed by a constant tail value."""
    return _build(prefix, (tail,))


# -- literal grammar ---------------------------------------------------


def _entries(part: str, text: str) -> list[str]:
    entries = [e.strip() for e in part.split(",") if e.strip()]
    if not entries:
        raise ValueError(f"no cookie values in {text!r}")
    return entries


def parse_env(text: str) -> CookieEnvironment:
    """Parse an environment literal.

    Grammar::

        periodic:0.9,0.1          cycle, no prefix
        bounded:0.9,0.9           prefix, then the cycle (1/2)
        tail:0.9,0.7@0.5          prefix, then the cycle after '@'
        tail:0.9,0.9@0.9,0.1      (a cycle may hold several entries)

    Entries may be decimals or exact fractions such as ``9/10``.
    """
    head, sep, body = text.partition(":")
    if not sep:
        raise ValueError(f"malformed environment literal {text!r}")
    kind = head.strip()
    if kind == "periodic":
        return make_periodic(_entries(body, text))
    if kind == "bounded":
        return make_bounded(_entries(body, text))
    if kind == "tail":
        prefix, at, cycle = body.partition("@")
        if not at:
            raise ValueError("tail environment literal needs '@' and a cycle")
        return _build(_entries(prefix, text), _entries(cycle, text))
    raise ValueError(f"unknown environment kind {head!r}")


def _literal(values: tuple[float, ...], exact: Optional[tuple[Fraction, ...]]) -> str:
    """Entries as float reprs; an exact entry whose repr parses to
    another fraction is written as ``p/q``."""
    if exact is None:
        return ",".join(map(repr, values))
    return ",".join(repr(f) if Fraction(repr(f)) == q else str(q) for f, q in zip(values, exact))


def format_env(env: CookieEnvironment) -> str:
    """Literal round-tripping through :func:`parse_env`, exact fractions
    included."""
    cycle = _literal(env.cycle, env.exact_cycle)
    if not env.prefix:
        return f"periodic:{cycle}"
    return f"tail:{_literal(env.prefix, env.exact_prefix)}@{cycle}"
