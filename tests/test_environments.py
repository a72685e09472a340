"""Environment construction, predicates, and literal parsing."""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from erwlab.environments import (
    CookieEnvironment,
    format_env,
    make_bounded,
    make_custom_tail,
    make_periodic,
    parse_env,
)


probs = st.floats(min_value=0.01, max_value=0.99, allow_nan=False)
periods = st.lists(probs, min_size=1, max_size=8)


def test_cookie_at_periodic_wraps():
    env = make_periodic((0.9, 0.1))
    assert env.cookie_at(1) == 0.9
    assert env.cookie_at(2) == 0.1
    assert env.cookie_at(3) == 0.9
    assert env.cookie_at(200) == 0.1


def test_cookie_at_tail_saturates():
    env = make_custom_tail((0.9, 0.7), 0.6)
    assert env.cookie_at(1) == 0.9
    assert env.cookie_at(2) == 0.7
    assert env.cookie_at(3) == 0.6
    assert env.cookie_at(1000) == 0.6


def test_cookie_at_prefix_then_cycle():
    env = parse_env("tail:0.2,0.3@0.9,0.1")
    assert [env.cookie_at(i) for i in range(1, 8)] == [0.2, 0.3, 0.9, 0.1, 0.9, 0.1, 0.9]
    assert env.period == 2
    assert env.is_critical()


def test_prefix_that_continues_the_cycle_is_periodic():
    # 0.1, then 0.9, 0.1 repeating, is the pile 0.1, 0.9, 0.1, 0.9, ...
    env = parse_env("tail:0.1@0.9,0.1")
    assert env == parse_env("periodic:1/10,9/10") and env.prefix == ()
    assert env.exact_cycle == (Fraction(1, 10), Fraction(9, 10))
    assert env.predicates().periodic and format_env(env) == "periodic:0.1,0.9"
    assert parse_env("tail:0.9,0.1@0.9,0.1") == parse_env("periodic:0.9,0.1")
    assert parse_env("tail:0.7,0.3@0.9,0.2,0.3") == parse_env("tail:0.7@0.3,0.9,0.2")
    assert make_custom_tail((0.6, 0.6), 0.6) == make_periodic((0.6,))
    # Only the entries that continue the cycle move into it.
    env = parse_env("bounded:0.9,0.5,0.5")
    assert env == parse_env("bounded:0.9") and env.exact_prefix == (Fraction(9, 10),)
    assert not parse_env("tail:0.9@0.9,0.1").predicates().periodic


def test_cookie_index_starts_at_one():
    env = make_periodic((0.5,))
    with pytest.raises(ValueError):
        env.cookie_at(0)


def test_bounded_constructor_fixes_tail_at_half():
    env = make_bounded((0.9, 0.8))
    assert env.prefix == (0.9, 0.8)
    assert env.cycle == (0.5,) and env.exact_cycle == (Fraction(1, 2),)
    assert env.cookie_at(17) == 0.5


def test_predicates_on_reference_envs():
    p = make_periodic((0.9, 0.1)).predicates()
    assert p.elliptic and p.periodic and p.non_degenerate
    assert not p.positive and not p.bounded

    b = make_bounded((0.9, 0.9)).predicates()
    assert b.bounded and b.positive and b.non_degenerate
    assert not b.periodic

    t = make_custom_tail((0.2,), 0.7).predicates()
    assert t.non_degenerate and not t.bounded and not t.positive


def test_degenerate_alternation_is_still_non_degenerate():
    # both endpoint values occur infinitely often, so both cookie sums
    # diverge even though no single entry is interior
    env = make_periodic((1.0, 0.0))
    p = env.predicates()
    assert p.non_degenerate
    assert not p.elliptic


def test_constant_one_tail_is_degenerate():
    env = make_custom_tail((0.5,), 1.0)
    assert not env.predicates().non_degenerate


def test_criticality_uses_exact_arithmetic_for_fraction_literals():
    env = parse_env("periodic:9/10,1/10")
    assert env.is_critical()
    assert env.exact_mean_cookie() == Fraction(1, 2)
    # float literals summing to 1 still count as critical within tolerance
    assert parse_env("periodic:0.9,0.1").is_critical()
    assert not parse_env("periodic:0.9,0.2").is_critical()


def test_equal_piles_hash_alike():
    # Caches key on the pile, so equal piles must hash alike; a pile of
    # floats and its exact twin share floats but are not equal.
    exact = parse_env("tail:9/10,1/5@1/2")
    assert exact == parse_env("tail:0.9,0.2@0.5")
    assert hash(exact) == hash(parse_env("tail:0.9,0.2@0.5"))
    floats = make_custom_tail((0.9, 0.2), 0.5)
    assert floats != exact and hash(floats) == hash(exact)


def test_parse_and_format_round_trip():
    for text in (
        "periodic:0.9,0.1",
        "bounded:0.9,0.9",
        "tail:0.9,0.7@0.5",
        "tail:0.9,0.9@0.9,0.1",
        "periodic:9/10,1/10",
        "periodic:1/3,2/3",
        "tail:1/10@1/3,2/3",
    ):
        env = parse_env(text)
        again = parse_env(format_env(env))
        assert again == env
    # An exact entry is written as a decimal when that decimal is the same
    # fraction, and as p/q otherwise; float-built entries keep their repr.
    assert format_env(parse_env("tail:0.1,0.9@1/3,2/3")) == "tail:0.1,0.9@1/3,2/3"
    assert format_env(make_periodic((0.9, 0.1))) == "periodic:0.9,0.1"


def test_parse_rejects_unknown_kind_and_bad_values():
    with pytest.raises(ValueError):
        parse_env("weird:0.5")
    with pytest.raises(ValueError):
        parse_env("periodic:1.5")
    with pytest.raises(ValueError):
        parse_env("tail:0.5")  # missing @tail
    with pytest.raises(ValueError):
        parse_env("tail:0.5@")  # empty cycle
    with pytest.raises(ValueError, match="malformed"):
        parse_env("periodic0.5")  # no ':'
    with pytest.raises(ValueError, match="NaN"):
        make_periodic((float("nan"), 0.5))
    with pytest.raises(ValueError, match="outside"):
        CookieEnvironment((), (float("nan"),))
    with pytest.raises(ValueError, match="at least one cookie"):
        make_periodic(())


def test_exact_values_must_match_their_floats():
    # The exact values decide criticality while the samplers draw the
    # floats: this pile's exact prefix is right-transient and its floats
    # recurrent, so it is refused, as is a replace() that swaps the floats.
    with pytest.raises(ValueError, match="does not match"):
        CookieEnvironment((0.3, 0.3), (0.5,), (Fraction(9, 10), Fraction(9, 10)))
    env = parse_env("tail:9/10,9/10@1/2")
    with pytest.raises(ValueError, match="does not match"):
        dataclasses.replace(env, prefix=(0.3, 0.3))
    with pytest.raises(ValueError, match="holds 2 values, not 1"):
        dataclasses.replace(env, prefix=(0.9,))
    with pytest.raises(ValueError, match="holds 1 values, not 2"):
        CookieEnvironment((), (0.9, 0.1), None, (Fraction(9, 10),))


def test_parsed_and_mirrored_piles_keep_their_exact_values():
    # mirror() rounds each 1 - p once, so random decimals and fractions
    # build parsed, mirrored and mirrored twice, each float within 2^-53
    # of its exact value (2^-52 is allowed).
    rng = random.Random(5)

    def entry():
        kind = rng.randrange(4)
        if kind == 0:
            return repr(rng.random())
        if kind == 1:
            return f"{rng.random():.3f}"
        if kind == 2:
            b = rng.randrange(1, 10**6)
            return f"{rng.randrange(b + 1)}/{b}"
        return rng.choice(["0", "1", "1e-30", "0.5", "0.9999999999999999999"])

    for _ in range(2_000):
        prefix = ",".join(entry() for _ in range(rng.randrange(1, 4)))
        cycle = ",".join(entry() for _ in range(rng.randrange(1, 4)))
        env = parse_env(f"tail:{prefix}@{cycle}")
        for e in (env, env.mirror(), env.mirror().mirror()):
            pairs = zip(e.prefix + e.cycle, (e.exact_prefix or ()) + e.exact_cycle)
            assert max(abs(float(q) - f) for f, q in pairs) <= 2.0**-53


@given(periods)
def test_mirror_is_an_involution(values):
    env = make_periodic(tuple(values))
    back = env.mirror().mirror()
    assert back.period == env.period
    for i in range(1, env.period + 1):
        assert back.cookie_at(i) == pytest.approx(env.cookie_at(i), abs=1e-15)


@given(periods)
def test_mirror_flips_mean_cookie(values):
    env = make_periodic(tuple(values))
    assert env.mirror().mean_cookie() == pytest.approx(
        1.0 - env.mean_cookie(), abs=1e-12
    )


def test_environment_is_hashable_and_frozen():
    env = make_periodic((0.7, 0.3))
    assert env in {env}
    with pytest.raises(Exception):
        env.cycle = (0.5,)  # type: ignore[misc]
