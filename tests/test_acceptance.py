"""End-to-end acceptance checks for the whole package.

Each test covers one headline claim, from exact closed forms through
Monte Carlo confirmation, at fixed seeds.  On success it prints one
``[PASS]`` line with the observed margins (run ``pytest -s`` to see
them); tolerances are stated inline next to each assertion.
"""

from __future__ import annotations

import math
import time

import numpy as np

from erwlab.bpm import (
    BpmModel,
    BpmOutcome,
    MigrationSpec,
    OffspringSpec,
    classify_bpm,
    simulate_bpm,
)
from erwlab.criterion import lyapunov_drift
from erwlab.environments import make_bounded, make_periodic
from erwlab.kks import (
    asymptotic_mu,
    exact_moments,
    exact_U_distribution,
    sample_U_many,
    simulate_Z_ensemble,
    step_sampler,
)
from erwlab.periodic import (
    Classification,
    classify_periodic,
    diagnostics,
    failure_chain,
    half_half_threshold,
)
from erwlab.seeding import DEFAULT_SEED, TAG_GENERAL, TAG_LYAPUNOV, substream
from erwlab.walk import ensemble_walks
from reference_routes import power_iteration_stationary

S = DEFAULT_SEED

# Five critical reference piles reused by several checks.
CRITICAL_ENVS = [
    make_periodic((0.9, 0.1)),
    make_periodic((0.9, 0.9, 0.1, 0.1)),
    make_periodic((0.7, 0.3)),
    make_periodic((0.8, 0.3, 0.4, 0.5)),
    make_periodic((0.55, 0.45)),
]


def _random_periods(count=100):
    """The shared pool of random elliptic periodic piles."""
    rng = substream(S, TAG_GENERAL, 5)
    envs = []
    for _ in range(count):
        m = int(rng.integers(1, 13))
        envs.append(make_periodic(tuple(rng.uniform(0.02, 0.98, m))))
    return envs


def _ok(label, detail, t0):
    print(f"[PASS] {label}: {detail} ({time.perf_counter() - t0:.2f} s)")


# ---------------------------------------------------------------------
# 1. half-half family against its exact period threshold
# ---------------------------------------------------------------------


def test_half_half_family_matches_threshold_grid():
    t0 = time.perf_counter()
    checked = 0
    for p10 in range(55, 100, 5):
        p = p10 / 100.0
        thr = half_half_threshold(p)
        assert classify_periodic(make_periodic((p, 1.0 - p))) is Classification.RECURRENT
        for m in range(2, 21, 2):
            env = make_periodic((p,) * (m // 2) + (1.0 - p,) * (m // 2))
            expect = (
                Classification.TRANSIENT_RIGHT if m > thr else Classification.RECURRENT
            )
            assert classify_periodic(env) is expect, (p, m)
            checked += 1
    _ok("half-half threshold grid", f"{checked} (p, M) pairs classified exactly", t0)


# ---------------------------------------------------------------------
# 2. bounded piles: step mean is exactly target + total drift
# ---------------------------------------------------------------------


def test_bounded_pile_mean_equals_target_plus_drift():
    t0 = time.perf_counter()
    worst = 0.0
    for prefix in [(0.9,), (0.9, 0.9, 0.9), (0.3, 0.8)]:
        env = make_bounded(prefix)
        delta = math.fsum(2.0 * p - 1.0 for p in prefix)
        for x in (5, 20, 100):
            mean = exact_U_distribution(env, x, tail_eps=1e-13).mean()
            err = abs(mean - (x + delta))
            worst = max(worst, err)
            assert err < 1e-9, (prefix, x, err)
    _ok("bounded mean identity", f"worst |mean - (x + delta)| = {worst:.2e}", t0)


# ---------------------------------------------------------------------
# 3. closed-form drift against the oracle at moderate x
# ---------------------------------------------------------------------


def test_closed_form_drift_matches_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for env in CRITICAL_ENVS:
        rho = diagnostics(env).rho
        mean = exact_U_distribution(env, 200, tail_eps=1e-13).mean()
        err = abs(rho - (mean - 200.0))
        worst = max(worst, err)
        assert err < 1e-6, (env.cycle, err)
    _ok("drift closed form", f"worst |rho - rho(200)| = {worst:.2e} over 5 piles", t0)


# ---------------------------------------------------------------------
# 4. closed-form diffusion constant against the oracle at large x
# ---------------------------------------------------------------------


def test_closed_form_diffusion_matches_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for env in CRITICAL_ENVS:
        nu = diagnostics(env).nu
        nu_x = exact_moments(env, 10_000).nu_x
        rel = abs(nu_x - nu) / nu
        worst = max(worst, rel)
        assert rel < 0.05, (env.cycle, rel)
    _ok("diffusion closed form", f"worst relative error {worst:.2e} at x = 1e4", t0)


# ---------------------------------------------------------------------
# 5. stationary law of the failure chain over random periods
# ---------------------------------------------------------------------


def test_stationary_law_is_invariant_over_random_periods():
    t0 = time.perf_counter()
    worst_resid = 0.0
    worst_power = 0.0
    for env in _random_periods():
        chain = failure_chain(env)
        resid = float(np.max(np.abs(chain.stationary @ chain.matrix - chain.stationary)))
        power = float(
            np.max(np.abs(power_iteration_stationary(chain.matrix) - chain.stationary))
        )
        worst_resid = max(worst_resid, resid)
        worst_power = max(worst_power, power)
        assert resid < 1e-12
        assert power < 1e-10
    _ok(
        "stationary law",
        f"worst invariance residual {worst_resid:.2e}, "
        f"worst power-iteration gap {worst_power:.2e} over 100 piles",
        t0,
    )


# ---------------------------------------------------------------------
# 6. chain drift identity, exactly and by Monte Carlo
# ---------------------------------------------------------------------


def test_chain_drift_identity_and_monte_carlo_mean():
    t0 = time.perf_counter()
    envs = _random_periods()
    worst = 0.0
    for env in envs:
        chain = failure_chain(env)
        err = abs(asymptotic_mu(env) - chain.mean_run())
        worst = max(worst, err)
        assert err < 1e-10
    worst_rel = 0.0
    x = 10_000
    for i, env in enumerate(envs[:3]):
        rng = substream(S, TAG_GENERAL, 6, i)
        draws = sample_U_many(env, x, 100_000, rng)
        mu = asymptotic_mu(env)
        rel = abs(draws.mean() / x - mu) / mu
        worst_rel = max(worst_rel, rel)
        assert rel < 0.01, (env.cycle, rel)
    _ok(
        "drift identity",
        f"worst exact gap {worst:.2e} over 100 piles, "
        f"worst Monte Carlo relative error {worst_rel:.2e}",
        t0,
    )


# ---------------------------------------------------------------------
# 7. crossing chain: transient pile survives, recurrent pile dies
# ---------------------------------------------------------------------


def test_transient_chain_survives_and_recurrent_chain_dies():
    t0 = time.perf_counter()
    env4 = make_periodic((0.9, 0.9, 0.1, 0.1))  # theta 4/3 > 1
    res = simulate_Z_ensemble(env4, "right", 20_000, 10_000, master_seed=S)
    f1 = res.survival_at(10_000)
    f2 = res.survival_frequency
    assert f1 >= 0.05, f1
    assert abs(f2 - f1) <= 0.30 * f1, (f1, f2)

    rec = make_periodic((0.9, 0.1))  # theta 2/9 < 1
    res2 = simulate_Z_ensemble(rec, "right", 100_000, 10_000, master_seed=S)
    assert res2.survival_frequency < 0.05, res2.survival_frequency
    _ok(
        "chain survival",
        f"transient pile {f1:.4f} -> {f2:.4f} across a horizon doubling, "
        f"recurrent pile {res2.survival_frequency:.1e} at 1e5",
        t0,
    )


# ---------------------------------------------------------------------
# 8. walk ensembles confirm the classification
# ---------------------------------------------------------------------


def test_walk_ensembles_confirm_the_classification():
    t0 = time.perf_counter()
    env4 = make_periodic((0.9, 0.9, 0.1, 0.1))
    traces = ensemble_walks(env4, 100_000, 500, master_seed=S)
    frac_pos = float(np.mean([t.final_position > 0 for t in traces]))
    assert frac_pos > 0.80, frac_pos

    rec = make_periodic((0.9, 0.1))
    traces = ensemble_walks(rec, 100_000, 1_000, master_seed=S)
    med_returns = float(np.median([t.returns_to_origin for t in traces]))
    assert med_returns >= 10, med_returns
    _ok(
        "walk ensembles",
        f"transient pile {frac_pos:.3f} positive finals, "
        f"recurrent pile median {med_returns:.0f} origin returns",
        t0,
    )


# ---------------------------------------------------------------------
# 9. Lyapunov drift signs across the four regimes
# ---------------------------------------------------------------------


def test_lyapunov_drift_signs_across_regimes():
    t0 = time.perf_counter()
    margins = []

    # growing steps: 1/(t+1) is a strict supermartingale
    env = make_periodic((0.7, 0.7))
    d, se = lyapunov_drift(
        step_sampler(env), "reciprocal", 10_000, 1_000_000, substream(S, TAG_LYAPUNOV, 0)
    )
    assert d < -3.0 * se, (d, se)
    margins.append(f"reciprocal {d / se:.0f} se")

    # recurrent critical pile: ln ln t drift not significantly positive
    env = make_periodic((0.9, 0.1))
    d, se = lyapunov_drift(
        step_sampler(env), "loglog", 10_000, 1_000_000, substream(S, TAG_LYAPUNOV, 1)
    )
    assert d <= 3.0 * se, (d, se)
    margins.append(f"loglog {d / se:.1f} se")

    # shrinking steps: plain t drifts by (mu - 1) x
    env = make_periodic((0.4, 0.4))
    x = 1_000
    d, se = lyapunov_drift(
        step_sampler(env), "identity", x, 1_000_000, substream(S, TAG_LYAPUNOV, 2)
    )
    target = (asymptotic_mu(env) - 1.0) * x  # = -x/3
    assert abs(d - target) < 0.05 * abs(target), (d, target)
    margins.append(f"identity {d:.1f} vs {target:.1f}")

    # transient critical pile: 1/ln t drift not significantly positive
    env = make_periodic((0.9, 0.9, 0.1, 0.1))
    d, se = lyapunov_drift(
        step_sampler(env), "invlog", 10_000, 1_000_000, substream(S, TAG_LYAPUNOV, 3)
    )
    assert d <= 3.0 * se, (d, se)
    margins.append(f"invlog {d / se:.1f} se")

    _ok("Lyapunov drifts", ", ".join(margins), t0)


# ---------------------------------------------------------------------
# 10. migration decides critical population survival
# ---------------------------------------------------------------------


def test_migration_decides_critical_population_survival():
    t0 = time.perf_counter()
    keep = BpmModel(OffspringSpec.geometric(1.0), MigrationSpec.deterministic(2))
    assert classify_bpm(keep) is BpmOutcome.SURVIVES
    res = simulate_bpm(keep, 10_000, 2_000, master_seed=S)
    assert res.survival_frequency >= 0.2, res.survival_frequency

    lone = BpmModel(OffspringSpec.geometric(1.0), MigrationSpec.deterministic(0))
    assert classify_bpm(lone) is BpmOutcome.DIES_OUT
    res2 = simulate_bpm(lone, 10_000, 2_000, master_seed=S)
    assert res2.survival_frequency < 0.05, res2.survival_frequency
    _ok(
        "population survival",
        f"with migration {res.survival_frequency:.4f}, "
        f"without {res2.survival_frequency:.4f}",
        t0,
    )


# ---------------------------------------------------------------------
# 11. positive bounded piles: drift is monotone in x and capped by delta
# ---------------------------------------------------------------------


def test_positive_pile_drift_is_monotone_and_capped():
    t0 = time.perf_counter()
    for prefix in [(0.9,), (0.8, 0.7)]:
        env = make_bounded(prefix)
        delta = math.fsum(2.0 * p - 1.0 for p in prefix)
        rhos = [
            exact_U_distribution(env, x, tail_eps=1e-13).mean() - x
            for x in range(1, 51)
        ]
        assert all(b - a >= -1e-10 for a, b in zip(rhos, rhos[1:])), prefix
        assert all(r <= delta + 1e-10 for r in rhos), prefix
    _ok("positive pile drift", "non-decreasing in x and capped by delta", t0)
