"""Crossing-chain simulation: survival laws and bookkeeping.

The chain starts at 1, steps through the exact step law, and absorbs
at 0.  For a supercritical pile the survival probability has a clean
branching-process value to compare against; at criticality survival
decays like 1/horizon.
"""

from __future__ import annotations

import numpy as np
import pytest

from erwlab import kks
from erwlab.bpm import ZEnsembleResult, absorb
from erwlab.environments import make_periodic, parse_env
from erwlab.kks import (
    _TABLE_CAP,
    _cycle_route,
    _directed,
    _escape_threshold,
    _samplers,
    sample_U,
    simulate_Z_ensemble,
)
from erwlab.seeding import DEFAULT_SEED, TAG_GENERAL, TAG_ZSIM, substream

S = DEFAULT_SEED


def test_supercritical_survival_matches_branching_value():
    # constant p = 0.7: the chain is a Galton-Watson process with
    # geometric(0.3) offspring, extinction 3/7, survival 4/7.
    env = make_periodic((0.7, 0.7))
    res = simulate_Z_ensemble(env, "right", 200, 20_000, master_seed=S)
    expect = 4.0 / 7.0
    assert res.survival_frequency == pytest.approx(expect, abs=4 * res.survival_se + 1e-3)
    # escapes count as survivors and dominate here
    assert res.escaped > 0.9 * res.survivors


def test_critical_survival_decays_like_one_over_horizon():
    env = make_periodic((0.5, 0.5))
    res = simulate_Z_ensemble(env, "right", 1000, 40_000, master_seed=S)
    f = res.survival_frequency
    assert 1.0 / (3 * 1000) < f < 3.0 / 1000


def test_subcritical_chain_dies_fast():
    env = make_periodic((0.3, 0.3))
    res = simulate_Z_ensemble(env, "right", 500, 5_000, master_seed=S)
    assert res.survivors == 0
    assert res.escaped == 0


def test_sure_steps_need_no_table_keys():
    # On (1, 0) every U(x) is x for sure, so no table row keeps a key:
    # the chain stays at 1 to the right and dies at once to the left.
    env = make_periodic((1.0, 0.0))
    assert len(_samplers(_directed(env, "right")).table(10).keys) == 0
    right = simulate_Z_ensemble(env, "right", 10, 300, master_seed=S)
    left = simulate_Z_ensemble(env, "left", 10, 300, master_seed=S)
    assert set(right.death_steps.tolist()) == {-1} and right.escaped == 0
    assert set(left.death_steps.tolist()) == {1}


def test_long_success_runs_reach_the_scalar_stragglers():
    # The full-period product 0.9702 gives long success runs, 33
    # whole-period wraps per failure on average; the last few trials
    # run one at a time through the dyadic sampler.
    env = make_periodic((0.99, 0.98))
    res = simulate_Z_ensemble(env, "right", 50, 50, master_seed=S)
    assert res.survival_frequency > 0.9
    assert res.escaped == res.survivors


def test_lockstep_step_one_past_the_table_cap(monkeypatch):
    # The table serves sizes up to its cap and the cycle's route the rest,
    # so a batch whose largest size is cap + 1 must not reach the table
    # with that size.  Catch the step that the ensemble hands to absorb
    # and replay its draws from equal generator states.
    env = make_periodic((0.9, 0.9, 0.1, 0.1))
    caught = {}
    monkeypatch.setattr(kks, "absorb", lambda *args: caught.update(step=args[4], one=args[5]))
    simulate_Z_ensemble(env, "right", 1000, 1, master_seed=S)
    table = _samplers(env).table(_TABLE_CAP)
    one, many = _cycle_route(env)
    cap = len(table)
    esc = _escape_threshold(env, 1000)
    assert esc is None or esc > cap + 1  # so the ensemble's table is this one
    for x in ([1, cap, 7, cap - 1, 300], [1, cap + 1, 7, cap, cap + 1, 300]):
        x = np.array(x)
        a, b = substream(S, TAG_GENERAL, 40, len(x)), substream(S, TAG_GENERAL, 40, len(x))
        got = caught["step"](x, a)
        u = b.random(len(x))
        small = x <= cap
        want = np.empty(len(x), dtype=np.int64)
        want[small] = table.draw(x[small] - 1, u[small])
        want[~small] = many(x[~small], b)
        assert got.tolist() == want.tolist()
        assert a.random() == b.random()  # both took the same draws
    for z in (cap, cap + 1):
        a, b = substream(S, TAG_GENERAL, 41, z), substream(S, TAG_GENERAL, 41, z)
        want = table.draw_one(z - 1, b.random()) if z <= cap else one(z, b)
        assert caught["one"](z, a) == want
        assert a.random() == b.random()


@pytest.mark.parametrize(
    "lit,direction",
    [("periodic:0.8,0.3", "right"), ("periodic:0.52,0.5", "right"),
     ("periodic:0.99,0.98", "right"), ("tail:0.9,0.95,0.2@0.6", "right")],
)
def test_supercritical_ensemble_draws_from_the_exact_samplers(lit, direction):
    # A supercritical chain escapes before a fresh table repays its build,
    # so every draw comes from the pile's exact samplers.
    env = parse_env(lit)
    res = simulate_Z_ensemble(env, direction, 300, 2_000, master_seed=S)
    eff = _directed(env, direction)
    one, many, table = _samplers(eff)
    assert table is None
    want = absorb(1, 300, 2_000, _escape_threshold(eff, 300), many, one,
                  substream(S, TAG_ZSIM))
    assert np.array_equal(res.death_steps, want.death_steps)
    assert res.escaped == want.escaped


@pytest.mark.parametrize(
    "lit,direction,tables",
    [("periodic:0.8,0.3", "left", 1), ("periodic:0.499,0.5", "right", 1),
     ("periodic:0.9,0.1", "right", 1), ("periodic:0.8,0.3", "right", 0),
     ("periodic:0.5,0.5", "right", 0)],
)
def test_only_critical_and_subcritical_ensembles_build_a_table(monkeypatch, lit, direction,
                                                               tables):
    # Near criticality a subcritical run lives long, and table draws pay.
    # The ensemble builds the whole table once, before its first step.
    builds = []
    build = kks._chain_table
    monkeypatch.setattr(kks, "_chain_table", lambda env, cap: builds.append(cap) or build(env, cap))
    _samplers.cache_clear()
    try:
        simulate_Z_ensemble(parse_env(lit), direction, 50, 50, master_seed=S)
    finally:
        _samplers.cache_clear()  # drop tables built through the patch
    assert builds == [_TABLE_CAP] * tables


def test_chain_shares_the_pile_table_and_its_draws_do_not_depend_on_its_size(monkeypatch):
    # The chain draws through the pile's samplers.  After a fixed-x draw
    # grew the table to 32 rows, a short chain grows it to the 1024 rows
    # below its escape threshold (760 at H = 3); a chain after a draw at
    # the cap uses the 2048-row table as it is.  Rows do not depend on the
    # table's size, so both chains draw alike, and a later draw within
    # the cap builds nothing.
    env = parse_env("periodic:0.9,0.1")
    assert _escape_threshold(env, 3) == 760
    runs = []
    for x, rows in ((20, 1024), (_TABLE_CAP, _TABLE_CAP)):
        _samplers.cache_clear()
        sample_U(env, x, substream(S, TAG_GENERAL, 49))
        runs.append(simulate_Z_ensemble(env, "right", 3, 2_000, master_seed=S))
        assert len(_samplers(env).table(1)) == rows
    monkeypatch.setattr(kks, "_chain_table", None)  # a build would fail
    sample_U(env, 700, substream(S, TAG_GENERAL, 49))
    _samplers.cache_clear()
    assert runs[0].death_steps.tolist() == runs[1].death_steps.tolist()
    assert runs[0].escaped == runs[1].escaped


def test_survival_at_is_monotone_and_anchored():
    env = make_periodic((0.9, 0.1))
    res = simulate_Z_ensemble(env, "right", 2_000, 5_000, master_seed=S)
    probes = [1, 10, 100, 500, 2_000]
    values = [res.survival_at(h) for h in probes]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(res.survival_frequency)
    with pytest.raises(ValueError):
        res.survival_at(2_001)


def test_survival_at_refuses_a_negative_horizon():
    res = ZEnsembleResult(10, 3, np.array([-1, 2, 5]), 0)
    assert res.survival_at(0) == 1.0
    with pytest.raises(ValueError, match="nonnegative"):
        res.survival_at(-5)


def test_ensemble_is_deterministic_in_the_seed():
    env = make_periodic((0.7, 0.3))
    a = simulate_Z_ensemble(env, "right", 300, 2_000, master_seed=S)
    b = simulate_Z_ensemble(env, "right", 300, 2_000, master_seed=S)
    assert np.array_equal(a.death_steps, b.death_steps)
    assert a.escaped == b.escaped
    c = simulate_Z_ensemble(env, "right", 300, 2_000, master_seed=S + 1)
    assert not np.array_equal(a.death_steps, c.death_steps)


def test_left_direction_mirrors_the_pile():
    env = make_periodic((0.3, 0.3))
    # mirrored pile is constant 0.7, so leftward runs are supercritical
    res = simulate_Z_ensemble(env, "left", 200, 5_000, master_seed=S)
    assert res.survival_frequency == pytest.approx(4.0 / 7.0, abs=0.03)
    mirrored = simulate_Z_ensemble(env.mirror(), "right", 200, 5_000, master_seed=S)
    assert np.array_equal(res.death_steps, mirrored.death_steps)
    assert res.escaped == mirrored.escaped


def test_death_steps_fields_are_consistent():
    env = make_periodic((0.5, 0.5))
    res = simulate_Z_ensemble(env, "right", 100, 3_000, master_seed=S)
    d = res.death_steps
    assert isinstance(res, ZEnsembleResult)
    assert len(d) == res.trials == 3_000
    dead = d[d >= 0]
    assert np.all(dead >= 1) and np.all(dead <= 100)
    assert res.survivors == int(np.sum(d < 0))


def _single_run(env, horizon, rng):
    """One rightward run of ``absorb`` over the pile's exact samplers:
    (absorption step or -1, escapes)."""
    route = _samplers(env)
    run = absorb(1, horizon, 1, _escape_threshold(env, horizon), route.many, route.one, rng)
    return int(run.death_steps[0]), run.escaped


def test_scalar_run_agrees_with_ensemble_statistics():
    env = make_periodic((0.7, 0.7))
    rng = substream(S, TAG_GENERAL, 30)
    outcomes = [_single_run(env, 200, rng) for _ in range(400)]
    freq = sum(death < 0 for death, _ in outcomes) / len(outcomes)
    assert freq == pytest.approx(4.0 / 7.0, abs=0.08)
    assert any(escaped for _, escaped in outcomes)
    assert all(death == -1 or death >= 1 for death, _ in outcomes)


def _sample_U_run(env, horizon, rng):
    """A rightward crossing-chain run as a loop of sample_U calls."""
    esc = _escape_threshold(env, horizon)
    z = 1
    for step in range(1, horizon + 1):
        z = sample_U(env, z, rng)
        if z == 0:
            return step, 0
        if esc is not None and z >= esc:
            return -1, 1
    return -1, 0


@pytest.mark.parametrize(
    "env",
    [
        make_periodic((0.9, 0.9, 0.1, 0.1)),
        make_periodic((0.7, 0.7)),
        parse_env("bounded:0.9,0.9,0.8"),
        parse_env("tail:0.9,0.95,0.2@0.6"),
        make_periodic((0.99, 0.98) * 1024 + (0.99,)),
    ],
    ids=["periodic", "constant", "bounded", "tail", "period-2049"],
)
def test_scalar_run_is_a_loop_of_sample_U(env):
    # One trial takes absorb's scalar finish; its draws must be those of
    # sample_U, call for call, on the same substream.
    a = substream(S, TAG_GENERAL, 32)
    b = substream(S, TAG_GENERAL, 32)
    runs = [_single_run(env, 300, a) for _ in range(40)]
    assert runs == [_sample_U_run(env, 300, b) for _ in range(40)]
    assert a.random() == b.random()


def test_rejects_bad_direction_and_horizon():
    env = make_periodic((0.6, 0.4))
    with pytest.raises(ValueError):
        simulate_Z_ensemble(env, "sideways", 10, 100, master_seed=S)
    with pytest.raises(ValueError):
        simulate_Z_ensemble(env, "right", 0, 100, master_seed=S)
