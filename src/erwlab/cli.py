"""Command line front end.

``build_parser`` is the one place that declares each option: its name,
type, default and choices.  A JSON config file given with --config is
read as flags: every entry ``"key": value`` becomes ``--key=value``,
placed before the flags of the command line.  So options resolve as
defaults, then config file, then flags (a later flag wins), and a config
value is parsed and checked exactly like the same flag.  Only ``xs`` may
be a JSON list (joined with commas); ``null`` leaves an option at its
default.  All randomness flows from a single master seed, so rerunning a
command with the same resolved options reproduces its output byte for
byte.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict
from typing import Any, Optional, Sequence

from . import bpm as bpm_mod
from . import criterion as criterion_mod
from . import kks, periodic, walk
from .environments import CookieEnvironment, format_env, parse_env
from .seeding import TAG_LADDER, TAG_LYAPUNOV, default_seed, substream

SCHEMA_VERSION = "4"


class CliError(Exception):
    """User-facing option or input problem."""


def _config_flags(path: str, command: str, known: set[str]) -> list[str]:
    """The entries of a JSON config file as ``--key=value`` flags."""
    with open(path, "r", encoding="utf-8") as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise CliError("config file must hold a JSON object")

    def text(value: object) -> str:
        return value if isinstance(value, str) else json.dumps(value)

    flags = []
    for key, value in loaded.items():
        if key not in known:
            raise CliError(f"config key {key!r} not recognized for {command!r}")
        if value is None:
            continue
        if key == "xs" and isinstance(value, list):
            value = ",".join(map(text, value))
        elif isinstance(value, (list, dict)):
            raise CliError(f"config key {key!r} must hold a single value")
        flags.append(f"--{key.replace('_', '-')}={text(value)}")
    return flags


def _require(args: argparse.Namespace, key: str) -> Any:
    value = getattr(args, key)
    if value is None:
        raise CliError(f"missing required option --{key.replace('_', '-')}")
    return value


def _env_of(args: argparse.Namespace) -> CookieEnvironment:
    return parse_env(_require(args, "env"))


def _json_value(value: Any) -> Any:
    """``value`` with every infinite float written as "inf" or "-inf",
    which strict JSON has no number for."""
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return value


def _emit_json(payload: dict, out: Optional[str]) -> None:
    text = json.dumps(_json_value(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"
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


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma separated integers, got {text!r}"
        ) from None


# ---------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------


def _verdict_fields(env: CookieEnvironment, diag: periodic.PeriodicDiagnostics) -> dict:
    """The fields ``classify`` and ``analyze`` both report."""
    return {
        "environment": format_env(env),
        "classification": diag.classification.value,
        "p_bar": diag.p_bar,
        "mu": diag.mu,
        "rho": diag.rho,
        "nu": diag.nu,
        "theta_right": diag.theta_right,
        "theta_left": diag.theta_left,
    }


def _cmd_classify(args: argparse.Namespace) -> dict:
    if args.env is not None and args.positive_delta is not None:
        raise CliError("--positive-delta classifies without --env; give one of the two")
    if args.env is None:
        delta = _require(args, "positive_delta")
        label = periodic.classify_positive(delta).value
        return {"classification": label, "delta": delta, "method": "positive-drift"}
    env = _env_of(args)
    return {
        **_verdict_fields(env, periodic.diagnostics(env)),
        "predicates": asdict(env.predicates()),
        "method": "exact",
    }


def _cmd_analyze(args: argparse.Namespace) -> dict:
    env = _env_of(args)
    diag = periodic.diagnostics(env)
    chain = periodic.failure_chain(env)
    if args.chain_csv:
        m = chain.period
        rows: list[list[object]] = [
            ["j", "pi", "expected_run"] + [f"P_to_{k}" for k in range(m)]
        ]
        for j in range(m):
            rows.append(
                [j, repr(float(chain.stationary[j])), repr(float(chain.expected_runs[j]))]
                + [repr(float(chain.matrix[j, k])) for k in range(m)]
            )
        _emit_csv(rows, args.chain_csv)
    return {
        **_verdict_fields(env, diag),
        "prefix_drifts": list(diag.delta),
        "mean_run_length": chain.mean_run(),
    }


def _cmd_oracle(args: argparse.Namespace) -> list[list[object]]:
    env = _env_of(args)
    dist = kks.exact_U_distribution(env, args.x, tail_eps=args.tail_eps)
    rows: list[list[object]] = [["success_count", "probability"]]
    for k, p in zip(dist.support(), dist.mass):
        rows.append([int(k), repr(float(p))])
    return rows


def _cmd_ladder(args: argparse.Namespace) -> list[list[object]]:
    env = _env_of(args)
    rng = substream(args.seed, TAG_LADDER)
    stats = kks.empirical_ladder(env, args.xs, args.trials, rng)
    return stats.to_rows()


def _cmd_criterion(args: argparse.Namespace) -> dict:
    with open(_require(args, "ladder_csv"), "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    ladder = kks.LadderStats.from_rows(rows)
    verdict = criterion_mod.classify_chain(
        criterion_mod.CriterionInput(
            mu=_require(args, "mu"), mu_se=args.mu_se, ladder=ladder
        )
    )
    return {
        "verdict": verdict.value.value,
        "rationale": verdict.rationale,
        "margins": [asdict(m) for m in verdict.margins],
    }


def _cmd_lyapunov(args: argparse.Namespace) -> dict:
    env = _env_of(args)
    rng = substream(args.seed, TAG_LYAPUNOV)
    drift, se = criterion_mod.lyapunov_drift(
        kks.step_sampler(env), args.kind, args.x, args.trials, rng
    )
    return {
        "environment": format_env(env),
        "kind": args.kind,
        "x": args.x,
        "trials": args.trials,
        "drift": drift,
        "se": se,
    }


def _cmd_bpm(args: argparse.Namespace) -> dict:
    model = bpm_mod.BpmModel(
        bpm_mod.parse_offspring(_require(args, "offspring")),
        bpm_mod.parse_migration(_require(args, "migration")),
    )
    result: dict = {
        "mu": model.mu,
        "rho": model.rho,
        "theta": model.theta,
        "classification": bpm_mod.classify_bpm(model).value,
    }
    horizon, trials = args.horizon, args.trials
    if horizon < 0 or trials < 0:
        raise CliError("--horizon and --trials must be nonnegative")
    if horizon > 0 and trials == 0:
        raise CliError("--horizon needs --trials")
    if trials > 0 and horizon == 0:
        raise CliError("--trials needs --horizon")
    if horizon > 0:
        sim = bpm_mod.simulate_bpm(model, horizon, trials, args.seed)
        result.update(
            horizon=horizon,
            trials=trials,
            survival_frequency=sim.survival_frequency,
            survival_se=sim.survival_se,
            escaped=sim.escaped,
        )
    return result


def _cmd_walk(args: argparse.Namespace) -> list[list[object]]:
    env = _env_of(args)
    every = args.emit_positions
    if args.positions_csv and not every:
        raise CliError("--positions-csv needs --emit-positions")
    if every > 0 and not args.positions_csv:
        raise CliError("--emit-positions needs --positions-csv")
    traces = walk.ensemble_walks(
        env, args.steps, args.trials, master_seed=args.seed, record_every=every
    )
    if args.positions_csv:
        rows: list[list[object]] = [["trial", "step", "position"]]
        for t, trace in enumerate(traces):
            assert trace.positions is not None
            for i, p in enumerate(trace.positions):
                rows.append([t, i * every, int(p)])
        _emit_csv(rows, args.positions_csv)
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


def _cmd_zsim(args: argparse.Namespace) -> dict:
    env = _env_of(args)
    sim = kks.simulate_Z_ensemble(
        env, args.direction, args.horizon, args.trials, master_seed=args.seed
    )
    return {
        "environment": format_env(env),
        "direction": args.direction,
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
    sub.add_argument("--config", default=None, help="JSON file with option values")
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
    p.add_argument("--x", type=int, default=1, help="chain position")
    p.add_argument("--tail-eps", dest="tail_eps", type=float, default=1e-12)
    _add_common(p)

    p = sub.add_parser("ladder", help="Monte Carlo drift/diffusion ladder as CSV")
    p.add_argument("--env", default=None)
    p.add_argument("--xs", type=_int_list, default="10,100,1000,10000",
                   help="comma separated x values")
    p.add_argument("--trials", type=int, default=100000)
    _add_common(p)

    p = sub.add_parser("criterion", help="band verdict from a ladder CSV")
    p.add_argument("--ladder-csv", dest="ladder_csv", default=None)
    p.add_argument("--mu", type=float, default=None, help="exact asymptotic mean step")
    p.add_argument("--mu-se", dest="mu_se", type=float, default=0.0)
    _add_common(p)

    p = sub.add_parser("lyapunov", help="Monte Carlo Lyapunov drift at one x")
    p.add_argument("--env", default=None)
    p.add_argument(
        "--kind",
        default="identity",
        choices=("identity", "reciprocal", "loglog", "invlog"),
    )
    p.add_argument("--x", type=int, default=100)
    p.add_argument("--trials", type=int, default=100000)
    _add_common(p)

    p = sub.add_parser("bpm", help="branching-with-migration classification")
    p.add_argument("--offspring", default=None, help="geometric:m | poisson:m | table:p0,p1,...")
    p.add_argument("--migration", default=None, help="const:k | table:p0,p1,...@first")
    p.add_argument("--horizon", type=int, default=0, help="also simulate this many generations")
    p.add_argument("--trials", type=int, default=0)
    _add_common(p)

    p = sub.add_parser("walk", help="per-trial walk summaries as CSV")
    p.add_argument("--env", default=None)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--emit-positions", dest="emit_positions", type=int, default=0,
                   help="record every m-th position")
    p.add_argument("--positions-csv", dest="positions_csv", default=None)
    _add_common(p)

    p = sub.add_parser("zsim", help="crossing chain survival ensemble")
    p.add_argument("--env", default=None)
    p.add_argument("--direction", default="right", choices=("right", "left"))
    p.add_argument("--horizon", type=int, default=1000)
    p.add_argument("--trials", type=int, default=1000)
    _add_common(p)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # config entries go right after the command, before the flags
            at = argv.index(args.command) + 1
            known = set(vars(args)) - {"command", "config"}
            flags = _config_flags(args.config, args.command, known)
            args = parser.parse_args(argv[:at] + flags + argv[at:])
        if args.seed is None:
            args.seed = default_seed()
        echo = {k: v for k, v in vars(args).items() if k not in ("config", "out")}
        result = _HANDLERS[args.command](args)
        if args.command in _CSV_COMMANDS:
            _emit_csv(result, args.out)
        else:
            payload = {
                "schema_version": SCHEMA_VERSION,
                "config": echo,
                "result": result,
            }
            _emit_json(payload, args.out)
    except (CliError, ValueError, OSError, kks.OracleHorizonError) as exc:
        print(f"erwlab: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
