"""erwlab benchmark: three workloads from crossing chain to verdict.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload chain --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all            # every workload, one after another
    python3 bench/run.py --workload all --smoke    # tiny sizes, proves the plumbing

Workloads (see ``workloads.py`` for piles, sizes and gates):

- ``chain``: ``simulate_Z_ensemble`` on the theta = 4/3 pile, whose large
  lockstep batches grow past the table cap into dyadic draws, and on the
  theta = 2/9 pile, where most trials die early and the last ones finish in
  the scalar path, so per-call overhead counts.
- ``population_walk``: ``simulate_bpm``, the other lockstep absorbing loop,
  then ``ensemble_walks`` on both piles and ``edge_crossings``; it runs no
  ``kks`` code, so it is the control for sampler changes.
- ``ladder``: ladders through every sampler route, the DP oracle, closed
  forms, the band criterion and one Lyapunov drift, up to a verdict.

Both crossing-chain piles share one workload, and so do the BPM and the
walk, because host speed on a small shared machine drifts over tens of
seconds: fewer, longer runs keep run-to-run spread within the bounds.
Each pile's chain speed still shows in the traced run.

Load comes from this one process: each measured set-up is a fresh worker
interpreter (``worker.py``), started one after another with BLAS/OpenMP
pinned to one thread.  ``--trace 0`` starts three workers, each repeating
the workload for a third of ``--seconds`` after one untimed warm-up
repetition, and prints the end-to-end metrics: medians over all timed
repetitions and over the three set-ups.
``--trace 1`` starts one worker that alternates span-recorded and plain
repetitions for a third of ``--seconds`` and then probes every sampler route,
plus four cold-build processes (timed, then under tracemalloc), and prints
the per-layer metrics.  No timing comes from a process running
tracemalloc.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (law-level checks) and ``metrics``; the line
before it is the run record (commit, versions, thread settings, ``src/``
line count, output digest, ``failed_share``).  The record and all spans
are also written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("chain", "population_walk", "ladder")
STEPS_COUNTED_AS = {
    "chain": "crossing-chain steps",
    "population_walk": "BPM generations plus walk steps of ensemble_walks",
    "ladder": "U draws",
}
SETUPS_PER_RUN = 3
RUN_BUDGET_S = 170.0  # a run must end within 180 s

THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "trial_steps_per_s": "1/s",
}

ROUTE_PROBES = [
    "kks.sample_U_many.x5.draws_per_s",
    "kks.sample_U_many.x20.draws_per_s",
    "kks.sample_U_many.x100.draws_per_s",
    "kks.sample_U_many.x500.draws_per_s",
    "kks.sample_U_many.x1e4.draws_per_s",
    "kks.sample_U_many.x1e6.draws_per_s",
    "kks.sample_U.x1e4.draws_per_s",
    "kks.sample_U_many.bounded.x100.draws_per_s",
]
SPAN_SECONDS = [
    "kks.empirical_ladder",
    "kks.exact_moments",
    "kks.exact_U_distribution.x8000",
    "walk.ensemble_walks",
    "walk.edge_crossings",
    "bpm.simulate_bpm.survive",
    "bpm.simulate_bpm.dieout",
    "criterion.classify_chain",
    "criterion.lyapunov_drift",
    "periodic.classify_periodic",
    "periodic.diagnostics",
]
# Steps per second of single calls, from the spans of the traced repetitions.
STEP_RATES = [
    "kks.simulate_Z_ensemble.transient",
    "kks.simulate_Z_ensemble.recurrent",
    "walk.ensemble_walks",
]
COUNTS = [
    "kks.simulate_Z_ensemble.trial_steps",
    "kks.simulate_Z_ensemble.survivors",
    "kks.simulate_Z_ensemble.escaped",
    "walk.edge_crossings.censored",
    "bpm.simulate_bpm.trial_steps",
]
PER_LAYER = {
    **{name: "1/s" for name in ROUTE_PROBES},
    "kks.sample_U_many.x1e6.cold_s": "s",
    "kks.sample_U_many.x1e6.cold_peak_mb": "MiB",
    "kks.simulate_Z_ensemble.cold_s": "s",
    "kks.simulate_Z_ensemble.cold_peak_mb": "MiB",
    "kks.simulate_Z_ensemble.s": "s",
    **{f"{name}.s": "s" for name in SPAN_SECONDS},
    **{name: "count" for name in COUNTS},
    **{f"{name}.steps_per_s": "1/s" for name in STEP_RATES},
    "environments.parse_env.s": "s",
    "import_s": "s",
    "trace_overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker to completion and return the JSON it printed last."""
    env = {**os.environ, **THREAD_PINS}
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC),
           "--t-spawn", repr(t_spawn), *args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run budget exhausted before all workers ran")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                              timeout=timeout, check=False, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} exceeded the run budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_record(workload: str, seed, seconds: float, trace: int, smoke: bool) -> dict:
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10, check=True
                                ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "worker_thread_env": THREAD_PINS,
        "src_lines": src_lines,
    }


def gate_summary(workers: list[dict]) -> tuple[int, int, list]:
    checks = [c for w in workers for c in w["checks"]]
    failures = [c for c in checks if not c["passed"]]
    return len(checks), len(failures), failures


def measure(workload: str, seed: int, seconds: float, smoke: bool, deadline: float):
    """Untraced run: end-to-end metrics over several fresh set-ups."""
    size = "smoke" if smoke else "full"
    workers = [
        spawn(["--workload", workload, "--seed", str(seed), "--size", size,
               "--worker", str(k), "--window", repr(seconds / SETUPS_PER_RUN)], deadline)
        for k in range(SETUPS_PER_RUN)
    ]
    reps = [r for w in workers for r in w["reps"]]
    metrics = {
        "wall_s": median(r["wall_s"] for r in reps),
        "setup_s": median(w["setup_s"] for w in workers),
        "peak_rss_mb": median(w["peak_rss_mb"] for w in workers),
        "trial_steps_per_s": median(r["steps"] / r["wall_s"] for r in reps),
    }
    info = {
        "reps": len(reps),
        "wall_s_each": [[r["wall_s"] for r in w["reps"]] for w in workers],
        "setup_s_each": [w["setup_s"] for w in workers],
        "import_s_each": [w["import_s"] for w in workers],
        "peak_rss_mb_each": [w["peak_rss_mb"] for w in workers],
        "trial_steps_counted_as": STEPS_COUNTED_AS[workload],
    }
    return metrics, workers, info, []


def measure_traced(workload: str, seed: int, seconds: float, smoke: bool, deadline: float):
    """Traced run: per-layer metrics from spans, probes and cold builds."""
    size = "smoke" if smoke else "full"
    common = ["--workload", workload, "--seed", str(seed), "--size", size]
    w = spawn([*common, "--trace", "1", "--window", repr(seconds / 3)], deadline)
    cold = {}
    for kind in ("x1e6", "chain"):
        timed = spawn([*common, "--cold", kind], deadline)
        mem = spawn([*common, "--cold", kind, "--tracemalloc", "1"], deadline)
        cold[kind] = {"cold_s": timed["cold_s"], "cold_peak_mb": mem["cold_peak_mb"]}
    traced = [r for r in w["reps"] if r["traced"]]
    plain = [r for r in w["reps"] if not r["traced"]]
    m = dict(w["probes"])
    m["kks.sample_U_many.x1e6.cold_s"] = cold["x1e6"]["cold_s"]
    m["kks.sample_U_many.x1e6.cold_peak_mb"] = cold["x1e6"]["cold_peak_mb"]
    m["kks.simulate_Z_ensemble.cold_s"] = cold["chain"]["cold_s"]
    m["kks.simulate_Z_ensemble.cold_peak_mb"] = cold["chain"]["cold_peak_mb"]
    for name in SPAN_SECONDS:
        m[f"{name}.s"] = median(r["spans"].get(name, 0.0) for r in traced)
    # The chain workload records one simulate_Z_ensemble span per pile.
    m["kks.simulate_Z_ensemble.s"] = median(
        sum(r["spans"].get(name, 0.0) for name in STEP_RATES[:2]) for r in traced)
    for name in COUNTS:
        m[name] = w["counts"].get(name, 0)
    for name in STEP_RATES:
        m[f"{name}.steps_per_s"] = median(
            r["layer_steps"][name] / r["spans"][name] for r in traced if name in r["spans"])
    m["environments.parse_env.s"] = w["setup_spans"].get("environments.parse_env", 0.0)
    m["import_s"] = w["import_s"]
    m["trace_overhead_s"] = (median(r["wall_s"] for r in traced)
                             - median(r["wall_s"] for r in plain))
    info = {"reps": len(w["reps"]), "traced_reps": len(traced), "plain_reps": len(plain),
            "peak_rss_mb": w["peak_rss_mb"],
            "traced_wall_s": median(r["wall_s"] for r in traced),
            "plain_wall_s": median(r["wall_s"] for r in plain)}
    return m, [w], info, w["spans"]


def run_workload(workload: str, seed, seconds: float, trace: int, smoke: bool,
                 deadline: float) -> dict:
    """One workload, untraced or traced; returns the result object."""
    run_seed = seed if seed is not None else default_seed()
    record = run_record(workload, run_seed, seconds, trace, smoke)
    measure_fn = measure_traced if trace else measure
    metrics, workers, info, spans = measure_fn(workload, run_seed, seconds, smoke, deadline)
    attempted, failed, failures = gate_summary(workers)
    units = PER_LAYER if trace else END_TO_END
    record.update({
        "digest_sha256": workers[0]["digest"],
        "counts": workers[0]["counts"],
        "failed_share": failed / attempted if attempted else 1.0,
        "failed_checks": failures,
        "checks_per_rep": sorted({c["name"] for c in workers[0]["checks"]}),
        "info": info,
    })
    result = {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{run_seed}-trace{trace}{'-smoke' if smoke else ''}.json"
    path.write_text(json.dumps({"record": record, "result": result, "spans": spans}))
    return {"record": record, "result": result}


def default_seed() -> int:
    """The package's ``DEFAULT_SEED``, imported from the checkout's sources."""
    sys.path.insert(0, str(SRC))
    try:
        from erwlab.seeding import DEFAULT_SEED
    finally:
        sys.path.remove(str(SRC))
    return DEFAULT_SEED


def print_table(workload: str, out: dict) -> None:
    rec, res = out["record"], out["result"]
    print(f"# {workload}: {res['attempted']} checks, {res['failed']} failed, "
          f"failed_share {rec['failed_share']:.3g} ratio, digest {rec['digest_sha256'][:16]}")
    for name, m in res["metrics"].items():
        print(f"{workload:16s} {name:44s} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="erwlab benchmark")
    p.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: erwlab's DEFAULT_SEED)")
    p.add_argument("--seconds", type=float, default=40.0,
                   help="measuring time per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="0: end-to-end metrics; 1: per-layer metrics")
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = p.parse_args(argv)

    if not (SRC / "erwlab" / "__init__.py").is_file():
        print(f"bench: no erwlab package under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_BUDGET_S * len(names)
    try:
        outs = {w: run_workload(w, args.seed, args.seconds, args.trace, args.smoke, deadline)
                for w in names}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    if args.workload != "all":
        out = outs[args.workload]
        print(json.dumps(out["record"]))
        print(json.dumps(out["result"]))
        return 0
    for w, out in outs.items():
        print_table(w, out)
    print(json.dumps({
        "correct": all(o["result"]["correct"] for o in outs.values()),
        "attempted": sum(o["result"]["attempted"] for o in outs.values()),
        "failed": sum(o["result"]["failed"] for o in outs.values()),
        "metrics": {f"{w}.{name}": m for w, o in outs.items()
                    for name, m in o["result"]["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
