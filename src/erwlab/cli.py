"""Command line front end.

Every subcommand resolves its options from three layers: built-in
defaults, then a JSON config file given with --config, then explicit
flags (flags win).  All randomness flows from a single master seed, so
rerunning a command with the same resolved options reproduces its
output byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from . import bpm as bpm_mod
from . import criterion as criterion_mod
from . import kks, periodic, walk
from .environments import CookieEnvironment, EnvKind, format_env, parse_env
from .seeding import TAG_LADDER, TAG_LYAPUNOV, default_seed, substream

SCHEMA_VERSION = "2"

_COMMON_DEFAULTS: dict[str, object] = {"seed": None, "out": None}

_DEFAULTS: dict[str, dict[str, object]] = {
    "classify": {"env": None, "positive_delta": None},
    "analyze": {"env": None, "chain_csv": None},
    "oracle": {"env": None, "x": 1, "tail_eps": 1e-12},
    "ladder": {"env": None, "xs": "10,100,1000,10000", "trials": 100000},
    "criterion": {"ladder_csv": None, "mu": None, "mu_se": 0.0, "alpha": "log"},
    "lyapunov": {"env": None, "kind": "identity", "x": 100, "trials": 100000},
    "bpm": {"offspring": None, "migration": None, "horizon": 0, "trials": 0},
    "walk": {
        "env": None,
        "steps": 1000,
        "trials": 100,
        "emit_positions": 0,
        "positions_csv": None,
    },
    "zsim": {"env": None, "direction": "right", "horizon": 1000, "trials": 1000},
}


class CliError(Exception):
    """User-facing option or input problem."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved options of one command invocation.

    Immutable so that the config echoed into every JSON payload is
    exactly what the handlers consumed.
    """

    command: str
    seed: int
    out: Optional[str]
    params: tuple[tuple[str, object], ...]

    def get(self, key: str) -> object:
        for k, v in self.params:
            if k == key:
                return v
        raise KeyError(key)

    def require(self, key: str) -> object:
        value = self.get(key)
        if value is None:
            raise CliError(f"missing required option --{key.replace('_', '-')}")
        return value

    def echo(self) -> dict:
        base: dict[str, object] = {"command": self.command, "seed": self.seed}
        base.update(dict(self.params))
        return base


def _resolve(command: str, args: argparse.Namespace) -> RunConfig:
    merged = dict(_COMMON_DEFAULTS)
    merged.update(_DEFAULTS[command])
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise CliError("config file must hold a JSON object")
        for key, value in loaded.items():
            if key not in merged:
                raise CliError(f"config key {key!r} not recognized for {command!r}")
            merged[key] = value
    for key in merged:
        given = getattr(args, key, None)
        if given is not None:
            merged[key] = given
    seed = merged.pop("seed")
    if seed is None:
        seed = default_seed()
    out = merged.pop("out")
    return RunConfig(
        command=command,
        seed=int(seed),  # config may carry it as a string
        out=None if out is None else str(out),
        params=tuple(sorted(merged.items())),
    )


def _env_of(cfg: RunConfig) -> CookieEnvironment:
    return parse_env(str(cfg.require("env")))


def _emit_json(payload: dict, out: Optional[str]) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(rows: Sequence[Sequence[object]], out: Optional[str]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())


def _parse_xs(raw: object) -> list[int]:
    if isinstance(raw, (list, tuple)):
        return [int(v) for v in raw]
    return [int(part) for part in str(raw).split(",") if part.strip()]


# ---------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------


def _cmd_classify(cfg: RunConfig) -> dict:
    if cfg.get("env") is None:
        delta = float(cfg.require("positive_delta"))
        label = periodic.classify_positive(delta).value
        return {"classification": label, "delta": delta, "method": "positive-drift"}
    env = _env_of(cfg)
    preds = env.predicates()
    result: dict = {
        "environment": format_env(env),
        "predicates": {
            "elliptic": preds.elliptic,
            "positive": preds.positive,
            "bounded": preds.bounded,
            "periodic": preds.periodic,
            "non_degenerate": preds.non_degenerate,
        },
    }
    if env.kind is EnvKind.PERIODIC:
        diag = periodic.diagnostics(env)
        result.update(
            classification=diag.classification.value,
            method="periodic-exact",
            p_bar=diag.p_bar,
            mu=diag.mu,
            rho=diag.rho,
            nu=diag.nu,
            theta_right=diag.theta_right,
            theta_left=diag.theta_left,
        )
    elif env.tail_value == 0.5:
        result.update(
            classification=periodic.classify_bounded(env).value,
            method="total-drift",
            delta=periodic.bounded_delta(env),
        )
    else:
        tail = float(env.tail_value)  # type: ignore[arg-type]
        label = (
            periodic.Classification.TRANSIENT_RIGHT
            if tail > 0.5
            else periodic.Classification.TRANSIENT_LEFT
        )
        result.update(
            classification=label.value, method="tail-mean", tail_value=tail
        )
    return result


def _cmd_analyze(cfg: RunConfig) -> dict:
    env = _env_of(cfg)
    diag = periodic.diagnostics(env)
    chain = periodic.failure_chain(env)
    if cfg.get("chain_csv"):
        m = chain.period
        rows: list[list[object]] = [
            ["j", "pi", "expected_run"] + [f"P_to_{k}" for k in range(m)]
        ]
        for j in range(m):
            rows.append(
                [j, repr(float(chain.stationary[j])), repr(float(chain.expected_runs[j]))]
                + [repr(float(chain.matrix[j, k])) for k in range(m)]
            )
        _emit_csv(rows, str(cfg.get("chain_csv")))
    return {
        "environment": format_env(env),
        "classification": diag.classification.value,
        "p_bar": diag.p_bar,
        "prefix_drifts": list(diag.delta),
        "mu": diag.mu,
        "rho": diag.rho,
        "nu": diag.nu,
        "theta_right": diag.theta_right,
        "theta_left": diag.theta_left,
        "mean_run_length": chain.mean_run(),
    }


def _cmd_oracle(cfg: RunConfig) -> list[list[object]]:
    env = _env_of(cfg)
    x = int(cfg.get("x"))  # type: ignore[arg-type]
    dist = kks.exact_U_distribution(env, x, tail_eps=float(cfg.get("tail_eps")))  # type: ignore[arg-type]
    rows: list[list[object]] = [["success_count", "probability"]]
    for k, p in zip(dist.support(), dist.mass):
        rows.append([int(k), repr(float(p))])
    return rows


def _cmd_ladder(cfg: RunConfig) -> list[list[object]]:
    env = _env_of(cfg)
    xs = _parse_xs(cfg.get("xs"))
    trials = int(cfg.get("trials"))  # type: ignore[arg-type]
    rng = substream(cfg.seed, TAG_LADDER)
    stats = kks.empirical_ladder(env, xs, trials, rng)
    return stats.to_rows()


def _cmd_criterion(cfg: RunConfig) -> dict:
    path = str(cfg.require("ladder_csv"))
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    ladder = kks.LadderStats.from_rows(rows)
    verdict = criterion_mod.classify_chain(
        criterion_mod.CriterionInput(
            mu=float(cfg.require("mu")),  # type: ignore[arg-type]
            mu_se=float(cfg.get("mu_se")),  # type: ignore[arg-type]
            ladder=ladder,
            alpha=str(cfg.get("alpha")),
        )
    )
    return {
        "verdict": verdict.value.value,
        "rationale": verdict.rationale,
        "margins": [
            {
                "x": m.x,
                "lower_band": m.lower_band,
                "upper_band": m.upper_band,
                "above_upper": m.above_upper,
                "below_lower": m.below_lower,
            }
            for m in verdict.margins
        ],
    }


def _cmd_lyapunov(cfg: RunConfig) -> dict:
    env = _env_of(cfg)
    kind = str(cfg.get("kind"))
    x = int(cfg.get("x"))  # type: ignore[arg-type]
    trials = int(cfg.get("trials"))  # type: ignore[arg-type]
    rng = substream(cfg.seed, TAG_LYAPUNOV)
    drift, se = criterion_mod.lyapunov_drift(
        kks.step_sampler(env), kind, x, trials, rng
    )
    return {
        "environment": format_env(env),
        "kind": kind,
        "x": x,
        "trials": trials,
        "drift": drift,
        "se": se,
    }


def _cmd_bpm(cfg: RunConfig) -> dict:
    model = bpm_mod.BpmModel(
        bpm_mod.parse_offspring(str(cfg.require("offspring"))),
        bpm_mod.parse_migration(str(cfg.require("migration"))),
    )
    result: dict = {
        "mu": model.mu,
        "rho": model.rho,
        "theta": model.theta,
        "classification": bpm_mod.classify_bpm(model).value,
    }
    horizon = int(cfg.get("horizon"))  # type: ignore[arg-type]
    trials = int(cfg.get("trials"))  # type: ignore[arg-type]
    if horizon > 0 and trials > 0:
        sim = bpm_mod.simulate_bpm(model, horizon, trials, cfg.seed)
        result.update(
            horizon=horizon,
            trials=trials,
            survival_frequency=sim.survival_frequency,
            survival_se=sim.survival_se,
            escaped=sim.escaped,
        )
    return result


def _cmd_walk(cfg: RunConfig) -> list[list[object]]:
    env = _env_of(cfg)
    steps = int(cfg.get("steps"))  # type: ignore[arg-type]
    trials = int(cfg.get("trials"))  # type: ignore[arg-type]
    every = int(cfg.get("emit_positions"))  # type: ignore[arg-type]
    traces = walk.ensemble_walks(
        env, steps, trials, master_seed=cfg.seed, record_every=every
    )
    if every and cfg.get("positions_csv"):
        rows: list[list[object]] = [["trial", "step", "position"]]
        for t, trace in enumerate(traces):
            assert trace.positions is not None
            for i, p in enumerate(trace.positions):
                rows.append([t, i * every, int(p)])
        _emit_csv(rows, str(cfg.get("positions_csv")))
    out: list[list[object]] = [
        [
            "trial",
            "final_position",
            "max_abs_position",
            "returns_to_origin",
            "first_hit_minus1",
            "distinct_sites",
        ]
    ]
    for t, trace in enumerate(traces):
        out.append(
            [
                t,
                trace.final_position,
                trace.max_abs_position,
                trace.returns_to_origin,
                "" if trace.first_hit_minus1 is None else trace.first_hit_minus1,
                trace.distinct_sites,
            ]
        )
    return out


def _cmd_zsim(cfg: RunConfig) -> dict:
    env = _env_of(cfg)
    sim = kks.simulate_Z_ensemble(
        env,
        str(cfg.get("direction")),
        int(cfg.get("horizon")),  # type: ignore[arg-type]
        int(cfg.get("trials")),  # type: ignore[arg-type]
        master_seed=cfg.seed,
    )
    return {
        "environment": format_env(env),
        "direction": sim.direction,
        "horizon": sim.horizon,
        "trials": sim.trials,
        "survivors": sim.survivors,
        "survival_frequency": sim.survival_frequency,
        "survival_se": sim.survival_se,
        "escaped": sim.escaped,
    }


_HANDLERS = {
    "classify": _cmd_classify,
    "analyze": _cmd_analyze,
    "oracle": _cmd_oracle,
    "ladder": _cmd_ladder,
    "criterion": _cmd_criterion,
    "lyapunov": _cmd_lyapunov,
    "bpm": _cmd_bpm,
    "walk": _cmd_walk,
    "zsim": _cmd_zsim,
}

_CSV_COMMANDS = {"oracle", "ladder", "walk"}


# ---------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=None, help="master seed")
    sub.add_argument("--config", default=None, help="JSON file with option defaults")
    sub.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="erwlab",
        description="Classify and simulate multi-cookie excited random walks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="exact classification of an environment")
    p.add_argument("--env", default=None, help="environment literal")
    p.add_argument(
        "--positive-delta",
        dest="positive_delta",
        type=float,
        default=None,
        help="total drift of a positive environment given without a literal",
    )
    _add_common(p)

    p = sub.add_parser("analyze", help="periodic diagnostics and failure chain")
    p.add_argument("--env", default=None)
    p.add_argument("--chain-csv", dest="chain_csv", default=None,
                   help="also write the failure chain to this CSV")
    _add_common(p)

    p = sub.add_parser("oracle", help="exact step distribution as CSV")
    p.add_argument("--env", default=None)
    p.add_argument("--x", type=int, default=None, help="chain position")
    p.add_argument("--tail-eps", dest="tail_eps", type=float, default=None)
    _add_common(p)

    p = sub.add_parser("ladder", help="Monte Carlo drift/diffusion ladder as CSV")
    p.add_argument("--env", default=None)
    p.add_argument("--xs", default=None, help="comma separated x values")
    p.add_argument("--trials", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("criterion", help="band verdict from a ladder CSV")
    p.add_argument("--ladder-csv", dest="ladder_csv", default=None)
    p.add_argument("--mu", type=float, default=None, help="exact asymptotic mean step")
    p.add_argument("--mu-se", dest="mu_se", type=float, default=None)
    p.add_argument("--alpha", default=None, choices=("log", "zero"))
    _add_common(p)

    p = sub.add_parser("lyapunov", help="Monte Carlo Lyapunov drift at one x")
    p.add_argument("--env", default=None)
    p.add_argument(
        "--kind", default=None, choices=("identity", "reciprocal", "loglog", "invlog")
    )
    p.add_argument("--x", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("bpm", help="branching-with-migration classification")
    p.add_argument("--offspring", default=None, help="geometric:m | poisson:m | table:p0,p1,...")
    p.add_argument("--migration", default=None, help="const:k | table:p0,p1,...@first")
    p.add_argument("--horizon", type=int, default=None, help="also simulate this many generations")
    p.add_argument("--trials", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("walk", help="per-trial walk summaries as CSV")
    p.add_argument("--env", default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--emit-positions", dest="emit_positions", type=int, default=None,
                   help="record every m-th position")
    p.add_argument("--positions-csv", dest="positions_csv", default=None)
    _add_common(p)

    p = sub.add_parser("zsim", help="crossing chain survival ensemble")
    p.add_argument("--env", default=None)
    p.add_argument("--direction", default=None, choices=("right", "left"))
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    _add_common(p)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args.command, args)
        handler = _HANDLERS[args.command]
        result = handler(cfg)
        if args.command in _CSV_COMMANDS:
            _emit_csv(result, cfg.out)  # type: ignore[arg-type]
        else:
            payload = {
                "schema_version": SCHEMA_VERSION,
                "config": cfg.echo(),
                "result": result,
            }
            _emit_json(payload, cfg.out)
    except (CliError, ValueError, OSError) as exc:
        print(f"erwlab: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
