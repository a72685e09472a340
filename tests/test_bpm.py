"""Branching population with migration: classification and simulation.

The survival criterion depends only on (offspring mean, migration mean,
offspring variance), so models matched on those numbers must classify
identically; simulation cross-checks the sharp cases.
"""

from __future__ import annotations

import numpy as np
import pytest

from erwlab.bpm import (
    BpmModel,
    BpmOutcome,
    MigrationSpec,
    OffspringSpec,
    _bpm_step,
    _bpm_step_one,
    classify_bpm,
    parse_migration,
    parse_offspring,
    simulate_bpm,
)
from erwlab.criterion import CriterionInput, VerdictValue, classify_chain
from erwlab.kks import LadderEntry, LadderStats
from erwlab.seeding import DEFAULT_SEED, TAG_GENERAL, substream
from reference_routes import bpm_step_samples

S = DEFAULT_SEED


def _model(offspring, migration):
    return BpmModel(offspring=offspring, migration=migration)


# ---------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------


def test_critical_theta_decides_survival():
    # geometric mean-1 offspring has variance 2, so theta = migration mean
    m = _model(OffspringSpec.geometric(1.0), MigrationSpec.deterministic(2))
    assert m.theta == pytest.approx(2.0)
    assert classify_bpm(m) is BpmOutcome.SURVIVES

    m = _model(OffspringSpec.geometric(1.0), MigrationSpec.deterministic(0))
    assert m.theta == pytest.approx(0.0)
    assert classify_bpm(m) is BpmOutcome.DIES_OUT

    m = _model(OffspringSpec.geometric(1.0), MigrationSpec.deterministic(1))
    assert m.theta == pytest.approx(1.0)
    assert classify_bpm(m) is BpmOutcome.DIES_OUT  # theta == 1 dies


def test_mean_dichotomy_ignores_migration():
    up = _model(OffspringSpec.poisson(1.2), MigrationSpec.deterministic(-3))
    assert classify_bpm(up) is BpmOutcome.SURVIVES
    down = _model(OffspringSpec.poisson(0.8), MigrationSpec.deterministic(5))
    assert classify_bpm(down) is BpmOutcome.DIES_OUT


def test_matched_moments_classify_identically():
    # same (mu, rho, nu) through different families
    a = _model(OffspringSpec.geometric(1.0), MigrationSpec.deterministic(2))
    b = _model(
        OffspringSpec.tabular((2.0 / 3.0, 0.0, 0.0, 1.0 / 3.0)),
        MigrationSpec.tabular((0.5, 0.0, 0.5), first=1),
    )
    assert b.mu == pytest.approx(a.mu)
    assert b.rho == pytest.approx(a.rho)
    assert b.theta == pytest.approx(a.theta)
    assert classify_bpm(a) is classify_bpm(b)


def test_deterministic_offspring_needs_no_theta_off_criticality():
    m = _model(OffspringSpec.tabular((0.0, 1.0)), MigrationSpec.deterministic(1))
    assert m.theta is None
    with pytest.raises(ValueError):
        classify_bpm(m)


# ---------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------


def test_zero_offspring_dies_in_one_generation():
    m = _model(OffspringSpec.tabular((1.0,)), MigrationSpec.deterministic(0))
    # 5 trials are at most the lockstep batch floor, so every run takes
    # the one-run-at-a-time finish.
    for trials in (500, 5):
        res = simulate_bpm(m, horizon=10, trials=trials, master_seed=S)
        assert len(res.death_steps) == trials
        assert np.all(res.death_steps == 1)


@pytest.mark.parametrize(
    "offspring",
    [OffspringSpec.geometric(1.5), OffspringSpec.poisson(0.8), OffspringSpec.tabular((0.3, 0.2, 0.5))],
    ids=["geometric", "poisson", "tabular"],
)
@pytest.mark.parametrize(
    "migration",
    [MigrationSpec.deterministic(2), MigrationSpec.tabular((0.25, 0.5, 0.25), first=-1)],
    ids=["const", "table"],
)
def test_step_on_an_int_matches_a_one_row_array(offspring, migration):
    # The lockstep and the scalar finish of simulate_bpm take the same
    # draws: a one-row array of a population and the scalar finish's
    # lean step on the population agree.
    m = _model(offspring, migration)
    a = substream(S, TAG_GENERAL, 14)
    b = substream(S, TAG_GENERAL, 14)
    for z in (1, 2, 7, 300) * 25:
        row = _bpm_step(m, np.array([z], dtype=np.int64), a)
        lean = _bpm_step_one(m, z, b)
        assert row.shape == (1,)
        assert type(lean) is int
        assert int(row[0]) == lean
    assert a.random() == b.random()


def test_supercritical_survival_matches_extinction_equation():
    # geometric mean-2 offspring, no migration: extinction probability
    # solves s = 1/(3 - 2s), giving 1/2
    m = _model(OffspringSpec.geometric(2.0), MigrationSpec.deterministic(0))
    res = simulate_bpm(m, horizon=100, trials=20_000, master_seed=S)
    assert res.survival_frequency == pytest.approx(0.5, abs=4 * res.survival_se + 2e-3)


def test_positive_migration_keeps_critical_population_alive():
    m = _model(OffspringSpec.geometric(1.0), MigrationSpec.deterministic(2))
    res = simulate_bpm(m, horizon=2_000, trials=2_000, master_seed=S)
    assert res.survival_frequency > 0.99


def test_critical_without_migration_dies_slowly():
    m = _model(OffspringSpec.geometric(1.0), MigrationSpec.deterministic(0))
    res = simulate_bpm(m, horizon=2_000, trials=2_000, master_seed=S)
    assert res.survival_frequency < 0.01
    # survival is non-increasing in the horizon
    vals = [res.survival_at(h) for h in (1, 10, 100, 1_000, 2_000)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_simulation_is_deterministic_in_the_seed():
    m = _model(OffspringSpec.poisson(1.0), MigrationSpec.deterministic(1))
    a = simulate_bpm(m, 200, 1_000, master_seed=S)
    b = simulate_bpm(m, 200, 1_000, master_seed=S)
    assert np.array_equal(a.death_steps, b.death_steps)


def test_initial_population_shifts_extinction_time():
    m = _model(OffspringSpec.geometric(0.5), MigrationSpec.deterministic(0))
    small = simulate_bpm(m, 200, 2_000, master_seed=S, initial=1)
    large = simulate_bpm(m, 200, 2_000, master_seed=S, initial=50)
    assert large.death_steps[large.death_steps > 0].mean() > small.death_steps[
        small.death_steps > 0
    ].mean()


# ---------------------------------------------------------------------
# cross-module: population steps through the generic chain criterion
# ---------------------------------------------------------------------


def test_step_samples_feed_the_band_criterion():
    m = _model(OffspringSpec.geometric(1.0), MigrationSpec.deterministic(2))
    rng = substream(S, TAG_GENERAL, 12)
    x = 10_000
    draws = bpm_step_samples(m, x, 1_000_000, rng).astype(float)
    n = len(draws)
    rho_hat = float(draws.mean() - x)
    centered = draws - x
    nu_hat = float((centered * centered).mean() / x)
    se_rho = float(draws.std(ddof=1) / np.sqrt(n))
    theta_hat = 2.0 * rho_hat / nu_hat
    # theta estimate recovers the model value 2
    assert theta_hat == pytest.approx(2.0, abs=0.05)
    entry = LadderEntry(
        x=x,
        trials=n,
        rho_hat=rho_hat,
        nu_hat=nu_hat,
        theta_hat=theta_hat,
        se_rho=se_rho,
        se_nu=0.0,
        se_theta=3.0 * se_rho / nu_hat,
    )
    v = classify_chain(CriterionInput(mu=1.0, mu_se=0.0, ladder=LadderStats((entry,))))
    assert v.value is VerdictValue.TRANSIENT


# ---------------------------------------------------------------------
# literals
# ---------------------------------------------------------------------


def test_offspring_literal_round_trip():
    g = parse_offspring("geometric:1.5")
    assert g.family == "geometric" and g.mean == 1.5 and g.var == pytest.approx(3.75)
    p = parse_offspring("poisson:2")
    assert p.var == pytest.approx(2.0)
    t = parse_offspring("table:0.5,0.25,0.25")
    assert t.mean == pytest.approx(0.75)


def test_migration_literal_round_trip():
    c = parse_migration("const:-2")
    assert c.mean == -2.0 and c.var == 0.0
    t = parse_migration("table:0.5,0.5@-1")
    assert t.support == (-1, 0)
    assert t.mean == pytest.approx(-0.5)


def test_literal_errors():
    with pytest.raises(ValueError):
        parse_offspring("geometric")
    with pytest.raises(ValueError):
        parse_offspring("binomial:3")
    with pytest.raises(ValueError):
        parse_offspring("table:0.5,0.4")
    for text in ("geometric:nan", "geometric:inf", "poisson:nan", "poisson:inf", "poisson:0"):
        with pytest.raises(ValueError, match="finite positive mean"):
            parse_offspring(text)
    with pytest.raises(ValueError):
        parse_migration("const")
    with pytest.raises(ValueError):
        parse_migration("gauss:0")


def test_simulation_argument_validation():
    m = _model(OffspringSpec.geometric(1.0), MigrationSpec.deterministic(0))
    with pytest.raises(ValueError):
        simulate_bpm(m, 0, 10, master_seed=S)
    with pytest.raises(ValueError):
        simulate_bpm(m, 10, 10, master_seed=S, initial=0)
    rng = substream(S, TAG_GENERAL, 13)
    with pytest.raises(ValueError):
        bpm_step_samples(m, 0, 5, rng)
