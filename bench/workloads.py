"""The three benchmark workloads: piles, sizes, one repetition each, and gates.

A workload has a set-up (parse its piles, then one cold public call per
pile that builds the sampler state the repetitions use) and a repetition:
one complete pass through the public calls the workload stands for.  A
repetition returns the chain steps it simulated, the law-level checks
its outputs passed or failed, exact counts, and the raw outputs for the
digest.  Every call into the package goes through ``tracer.call`` so the
traced run can put a span around it.

Sizes are per repetition.  ``full`` is what the benchmark measures;
``smoke`` only proves the plumbing: it evaluates the same gates, but its
inputs are too small for the laws, so some gates may fail there.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

import erwlab
from erwlab.seeding import TAG_GENERAL, TAG_LADDER, TAG_LYAPUNOV, substream

TRANSIENT = "periodic:0.9,0.9,0.1,0.1"  # theta = 4/3: right-transient
RECURRENT = "periodic:0.9,0.1"  # theta = 2/9: recurrent
BOUNDED = "bounded:0.9,0.9"  # total drift 1.6: right-transient

SIZES = {
    "full": {
        "chain": {"horizon": 1000, "trials": {"transient": 2000, "recurrent": 8000}},
        "population_walk": {"horizon": 2000, "trials": 1000,
                            "walk_steps": 10_000, "walk_trials": 128},
        "ladder": {"xs": (20, 100, 500, 10_000, 1_000_000), "draws": 50_000,
                   "oracle_x": 8000, "oracle_ladder_max": 500},
        "probe": {"draws": 100_000, "scalar_draws": 5_000},
    },
    "smoke": {
        "chain": {"horizon": 40, "trials": {"transient": 64, "recurrent": 64}},
        "population_walk": {"horizon": 40, "trials": 64, "walk_steps": 200, "walk_trials": 16},
        "ladder": {"xs": (20, 100, 500, 10_000, 1_000_000), "draws": 200,
                   "oracle_x": 200, "oracle_ladder_max": 100},
        "probe": {"draws": 200, "scalar_draws": 20},
    },
}


@dataclass
class RepResult:
    """What one repetition did and whether its outputs obey the laws."""

    steps: int
    checks: list = field(default_factory=list)  # (name, passed, detail)
    counts: dict = field(default_factory=dict)
    raw: list = field(default_factory=list)  # bytes-like outputs for the digest
    layer_steps: dict = field(default_factory=dict)  # span name -> steps it simulated

    def check(self, name: str, passed: bool, detail: str) -> None:
        self.checks.append((name, bool(passed), detail))

    def digest(self) -> str:
        h = hashlib.sha256()
        for part in self.raw:
            h.update(part if isinstance(part, bytes) else repr(part).encode())
        return h.hexdigest()


def chain_steps(death_steps: np.ndarray, horizon: int) -> int:
    """Chain steps simulated: the death step, or the horizon for survivors."""
    return int(np.where(death_steps < 0, horizon, death_steps).sum())


class Chain:
    """``simulate_Z_ensemble`` to the right on both critical periodic piles.

    The transient pile's large lockstep batches grow past the table cap
    into dyadic draws; on the recurrent pile most trials die early and
    the last few finish in the scalar path, so per-call overhead counts.
    """

    PILES = (("transient", TRANSIENT), ("recurrent", RECURRENT))

    def setup(self, tr, size: dict, seed: int) -> dict:
        envs = {}
        for label, lit in self.PILES:
            envs[label] = tr.call("environments.parse_env", erwlab.parse_env, lit)
            # The table cap depends on the horizon, so the cold call uses
            # the workload's horizon with a single trial.
            tr.call("kks.simulate_Z_ensemble", erwlab.simulate_Z_ensemble,
                    envs[label], "right", size["horizon"], 1, master_seed=seed)
        return {"envs": envs}

    def rep(self, tr, state: dict, size: dict, seed: int) -> RepResult:
        h = size["horizon"]
        out = RepResult(0)
        for label, _ in self.PILES:
            span = f"kks.simulate_Z_ensemble.{label}"
            res = tr.call(span, erwlab.simulate_Z_ensemble, state["envs"][label], "right",
                          h, size["trials"][label], master_seed=seed)
            steps = chain_steps(res.death_steps, h)
            out.steps += steps
            out.layer_steps[span] = steps
            for name, value in (("trial_steps", steps), ("survivors", res.survivors),
                                ("escaped", res.escaped)):
                key = f"kks.simulate_Z_ensemble.{name}"
                out.counts[key] = out.counts.get(key, 0) + value
            out.raw += [res.death_steps.astype("<i8").tobytes(), res.escaped]
            final = res.survival_frequency
            if label == "transient":
                # Acceptance rule for the transient chain: survival settles,
                # so it changes little across a horizon doubling.
                half = res.survival_at(h // 2)
                out.check("survival_half_horizon", half >= 0.05, f"{half:.4f} >= 0.05")
                out.check("survival_settles", abs(final - half) <= 0.30 * half,
                          f"|{final:.4f} - {half:.4f}| <= 0.30 * {half:.4f}")
            else:
                out.check("survival_dies", final < 0.05, f"{final:.4f} < 0.05")
        return out


class PopulationWalk:
    """The loops that run no ``kks`` code: the control for sampler changes.

    ``simulate_bpm`` with critical geometric offspring, with and without
    migration (the other lockstep absorbing loop), then ``ensemble_walks``
    on both piles and ``edge_crossings`` on the transient one.
    """

    MODELS = (("survive", "const:2"), ("dieout", "const:0"))
    EDGES = (0, 1, 2)

    def setup(self, tr, size: dict, seed: int) -> dict:
        off = tr.call("bpm.parse_offspring", erwlab.parse_offspring, "geometric:1")
        models = {}
        for label, lit in self.MODELS:
            mig = tr.call("bpm.parse_migration", erwlab.parse_migration, lit)
            models[label] = erwlab.BpmModel(off, mig)
            tr.call(f"bpm.simulate_bpm.{label}", erwlab.simulate_bpm,
                    models[label], 1, 1, master_seed=seed)
        envs = {lit: tr.call("environments.parse_env", erwlab.parse_env, lit)
                for lit in (TRANSIENT, RECURRENT)}
        for env in envs.values():
            tr.call("walk.ensemble_walks", erwlab.ensemble_walks, env, 1, 1, master_seed=seed)
        tr.call("walk.edge_crossings", erwlab.edge_crossings,
                envs[TRANSIENT], 1, 1, edges=self.EDGES, master_seed=seed)
        return {"models": models, "envs": envs}

    def rep(self, tr, state: dict, size: dict, seed: int) -> RepResult:
        out = RepResult(0)
        h, n = size["horizon"], size["trials"]
        bpm_steps = 0
        for label, _ in self.MODELS:
            res = tr.call(f"bpm.simulate_bpm.{label}", erwlab.simulate_bpm,
                          state["models"][label], h, n, master_seed=seed)
            bpm_steps += chain_steps(res.death_steps, h)
            out.raw += [res.death_steps.astype("<i8").tobytes(), res.escaped]
            f = res.survival_frequency
            if label == "survive":
                out.check("survival_with_migration", f >= 0.2, f"{f:.4f} >= 0.2")
            else:
                out.check("survival_without_migration", f < 0.05, f"{f:.4f} < 0.05")

        steps, n = size["walk_steps"], size["walk_trials"]
        envs = state["envs"]
        walk_steps = 0
        for lit in (TRANSIENT, RECURRENT):
            traces = tr.call("walk.ensemble_walks", erwlab.ensemble_walks,
                             envs[lit], steps, n, master_seed=seed)
            walk_steps += sum(t.steps for t in traces)
            out.raw.append([(t.final_position, t.max_abs_position, t.returns_to_origin,
                             t.first_hit_minus1, t.distinct_sites) for t in traces])
            if lit == TRANSIENT:
                pos = float(np.mean([t.final_position > 0 for t in traces]))
                out.check("transient_finals_positive", pos > 0.80, f"{pos:.3f} > 0.80")
            else:
                med = float(np.median([t.returns_to_origin for t in traces]))
                out.check("recurrent_origin_returns", med >= 10, f"median {med:.0f} >= 10")
        counts, censored = tr.call("walk.edge_crossings", erwlab.edge_crossings,
                                   envs[TRANSIENT], n, steps, edges=self.EDGES,
                                   master_seed=seed)
        out.raw += [counts.astype("<i8").tobytes(), censored.tobytes()]
        out.steps = bpm_steps + walk_steps
        out.layer_steps["walk.ensemble_walks"] = walk_steps
        out.counts = {"bpm.simulate_bpm.trial_steps": bpm_steps,
                      "walk.edge_crossings.censored": int(censored.sum())}
        return out


class Ladder:
    """Estimate to verdict: ladders, oracle, closed forms, criterion, Lyapunov."""

    # Pile, its closed-form class, and the chain verdict that would be wrong.
    PERIODIC = (
        (TRANSIENT, erwlab.Classification.TRANSIENT_RIGHT, erwlab.VerdictValue.RECURRENT),
        (RECURRENT, erwlab.Classification.RECURRENT, erwlab.VerdictValue.TRANSIENT),
    )

    def setup(self, tr, size: dict, seed: int) -> dict:
        envs = {lit: tr.call("environments.parse_env", erwlab.parse_env, lit)
                for lit in (TRANSIENT, RECURRENT, BOUNDED)}
        rng = substream(seed, TAG_GENERAL)
        # Builds the dyadic levels up to the largest ladder point.
        for lit, _, _ in self.PERIODIC:
            tr.call("kks.sample_U_many", erwlab.sample_U_many,
                    envs[lit], max(size["xs"]), 1, rng)
        return {"envs": envs}

    def rep(self, tr, state: dict, size: dict, seed: int) -> RepResult:
        envs, xs, draws = state["envs"], size["xs"], size["draws"]
        out = RepResult(0)
        rng = substream(seed, TAG_LADDER)
        ladders = {}
        for lit in (TRANSIENT, RECURRENT, BOUNDED):
            lad = tr.call("kks.empirical_ladder", erwlab.empirical_ladder,
                          envs[lit], xs, draws, rng)
            ladders[lit] = lad
            out.steps += draws * len(xs)
            out.raw.append(lad.to_rows())
            # rho_hat against the oracle wherever the oracle is cheap.
            for e in lad.entries:
                if e.x > size["oracle_ladder_max"]:
                    continue
                rho = tr.call("kks.exact_moments", erwlab.exact_moments, envs[lit], e.x).rho_x
                z = abs(e.rho_hat - rho) / e.se_rho
                out.check(f"rho_hat_vs_oracle[{lit} x={e.x}]", z <= 5.0,
                          f"|{e.rho_hat:.4f} - {rho:.4f}| = {z:.2f} se <= 5")

        dist = tr.call(f"kks.exact_U_distribution.x{size['oracle_x']}",
                       erwlab.exact_U_distribution, envs[TRANSIENT], size["oracle_x"])
        total = dist.total_mass() + dist.tail_bound
        out.check("oracle_mass_plus_tail", abs(total - 1.0) <= 1e-12,
                  f"mass + tail_bound = {total!r}")
        out.raw.append(dist.mass.astype("<f8").tobytes())

        for lit, expect, wrong in self.PERIODIC:
            env = envs[lit]
            cls = tr.call("periodic.classify_periodic", erwlab.classify_periodic, env)
            diag = tr.call("periodic.diagnostics", erwlab.diagnostics, env)
            out.check(f"closed_form_class[{lit}]",
                      cls is expect and diag.classification is expect, cls.value)
            # Inconclusive is allowed; the wrong side never is.
            verdict = tr.call("criterion.classify_chain", erwlab.classify_chain,
                              erwlab.CriterionInput(diag.mu, 0.0, ladders[lit])).value
            out.check(f"chain_verdict_side[{lit}]", verdict is not wrong,
                      f"{verdict.value} is not {wrong.value}")
            out.raw.append(verdict.value)

        # ln ln t is no submartingale for the recurrent pile: its drift is
        # not significantly positive.
        sampler = tr.call("kks.step_sampler", erwlab.step_sampler, envs[RECURRENT])
        drift, se = tr.call("criterion.lyapunov_drift", erwlab.lyapunov_drift,
                            sampler, "loglog", 10_000, draws, substream(seed, TAG_LYAPUNOV))
        out.steps += draws
        out.check("lyapunov_loglog_drift", drift <= 5.0 * se, f"{drift:.3e} <= 5 * {se:.1e}")
        out.raw.append((drift, se))
        return out


WORKLOADS = {
    "chain": Chain(),
    "population_walk": PopulationWalk(),
    "ladder": Ladder(),
}
